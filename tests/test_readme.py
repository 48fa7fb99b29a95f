"""The README's library example runs as written."""

from __future__ import annotations

import re
import shlex
from pathlib import Path

from tempoguard.cli import run
from tempoguard.config import RunConfig
from tempoguard.ingest import serialize_log
from tempoguard.simulate import generate

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_use_example_runs_on_a_small_log(tmp_path, monkeypatch, capsys):
    section = README.read_text(encoding="utf-8").split("## Library use", 1)[1]
    (example,) = re.findall(r"```python\n(.*?)```", section.split("\n## ", 1)[0], re.S)
    events = generate(RunConfig(instances_per_activity=5))
    (tmp_path / "log.csv").write_text(serialize_log(events, "csv"), encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    exec(compile(example, str(README), "exec"), {})
    completeness, timing, total = map(float, capsys.readouterr().out.split())
    assert total == completeness + 3.0 * timing


def test_stage_by_stage_block_runs_as_written_in_an_empty_directory(tmp_path, monkeypatch):
    section = README.read_text(encoding="utf-8").split("## Stage by stage", 1)[1]
    block = re.search(r"```\n(.*?)```", section, re.S).group(1)  # the section's first block
    monkeypatch.chdir(tmp_path)
    for line in block.splitlines():
        program, *argv = shlex.split(line)
        assert program == "tempoguard"
        assert (run(argv), line) == (0, line)
