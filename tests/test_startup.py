"""What `import tempoguard.cli` costs: the modules a fresh interpreter loads for it."""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

import tempoguard
from conftest import make_pattern
from tempoguard.mining import patterns_to_json
from tempoguard.training import ScoreModel, models_to_json

# Loaded by none of the startup path: dataclasses pulls in inspect, ast and dis;
# logging pulls in traceback; typing is a large module that nothing here needs.
UNUSED_AT_STARTUP = {"dataclasses", "inspect", "ast", "dis", "logging", "traceback", "typing"}

# Runs in `python -I`: import what detect imports, load a patterns and a models file,
# then print the modules that this added (site may have loaded some of them before).
CHILD = """
import sys
sys.path.insert(0, sys.argv[1])
before = set(sys.modules)
import tempoguard.cli
from tempoguard import mining, training
with open(sys.argv[2], encoding="utf-8") as f:
    mining.patterns_from_json(f.read())
with open(sys.argv[3], encoding="utf-8") as f:
    training.models_from_json(f.read())
print(tempoguard.cli.__file__)
print(*sorted(set(sys.modules) - before))
"""


def test_startup_loads_no_dataclasses_typing_or_logging(tmp_path):
    src = Path(tempoguard.__file__).resolve().parent.parent
    patterns = tmp_path / "patterns.json"
    patterns.write_text(patterns_to_json([make_pattern("AB")]), encoding="utf-8")
    models = tmp_path / "models.json"
    models.write_text(models_to_json([ScoreModel("p", 1.0, 0.5, 2.0, 1.0)]), encoding="utf-8")
    child = subprocess.run(
        [sys.executable, "-I", "-c", CHILD, str(src), str(patterns), str(models)],
        capture_output=True,
        text=True,
        check=True,
    )
    where, added = child.stdout.splitlines()
    assert Path(where).resolve().is_relative_to(src)
    assert "tempoguard.cli" in added.split()
    assert sorted(UNUSED_AT_STARTUP & set(added.split())) == []
