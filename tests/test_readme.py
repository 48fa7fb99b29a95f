"""The README's library example runs as written."""

from __future__ import annotations

import contextlib
import io
import re
import shlex
from pathlib import Path

import pytest

from conftest import digests, seed42_digests
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


@pytest.fixture(scope="module")
def stage_by_stage(tmp_path_factory):
    """The empty directory the "Stage by stage" block ran in, and (line, code, stdout) per line."""
    section = README.read_text(encoding="utf-8").split("## Stage by stage", 1)[1]
    block = re.search(r"```\n(.*?)```", section, re.S).group(1)  # the section's first block
    where, runs = tmp_path_factory.mktemp("stages"), []
    with pytest.MonkeyPatch.context() as patch:
        patch.chdir(where)
        for line in block.splitlines():
            program, *argv = shlex.split(line)
            assert program == "tempoguard"
            with contextlib.redirect_stdout(io.StringIO()) as printed:
                code = run(argv)
            runs.append((line, code, printed.getvalue()))
    return where, runs


def test_stage_by_stage_block_runs_as_written_in_an_empty_directory(stage_by_stage):
    _, runs = stage_by_stage
    assert [(line, code) for line, code, _ in runs] == [(line, 0) for line, _, _ in runs]


def test_stage_by_stage_block_writes_the_seed42_pipeline_files(stage_by_stage):
    where, runs = stage_by_stage
    line, _, printed = runs[-1]
    assert line.startswith("tempoguard evaluate ")
    (where / "report.txt").write_text(printed, encoding="utf-8")  # as pipeline writes it
    assert digests(where) == seed42_digests()
