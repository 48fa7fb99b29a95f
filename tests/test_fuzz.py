"""Mangled logs through `ingest` and `detect`: every run ends in an exit code, never a traceback.

Each example starts from a small clean log, CSV or its JSONL twin, and applies
a few mutations: columns or keys dropped, shuffled or added, fields replaced
by values of the wrong type or by numbers no float holds, and stray quotes,
NUL characters, byte-order marks or bytes that are not UTF-8 put anywhere in
the text. Exit 0 is a clean read, 1 a usage error, 2 a data error.
"""

from __future__ import annotations

import contextlib
import io
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tempoguard.cli import run
from tempoguard.ingest import parse_log, serialize_log

# Stand-ins for a field: numbers too long or too large for a float, and text of the wrong kind.
NUMBERS = ["1" * 30, "-" + "9" * 30, "1e400", "-1e400", "1e-400", "NaN", "0x10", "1_000", "-1"]
FIELDS = [*NUMBERS, "", " ", "x", "true", "2021-10-01", "2021-13-45T25:61:61Z"]
JSON_VALUES = [
    *NUMBERS[:5], "null", "true", "false", "[]", "{}", '""', '"x"', "1.5", "[1, 2]", '{"a": 1}'
]
STRAY = ['"', '""', "\x00", "\ufeff", ",", "\\", "\r", "\n", "\u2028", "{", "[", " "]
NOT_UTF8 = [b"\xff", b"\x80", b"\xc3", b"\xed\xa0\x80"]


@pytest.fixture(scope="module")
def clean(tmp_path_factory):
    """A trained run's models and patterns, and the first 30 events of its log in both formats.

    A CSV row is its list of fields; a JSONL row its list of (key, value as JSON text) pairs.
    """
    workdir = tmp_path_factory.mktemp("fuzz")
    run_dir = workdir / "run"
    with contextlib.redirect_stdout(io.StringIO()):
        argv = ["pipeline", "--workdir", str(run_dir), "--instances-per-activity", "10"]
        assert run(argv) == 0
    log = "\n".join((run_dir / "sim_log.csv").read_text(encoding="utf-8").splitlines()[:31])
    return {
        "dir": workdir,
        "models": str(run_dir / "models.json"),
        "patterns": str(run_dir / "patterns.json"),
        "csv": [line.split(",") for line in log.splitlines()],
        "jsonl": [
            [(k, json.dumps(v)) for k, v in json.loads(line).items()]
            for line in serialize_log(parse_log(log), "jsonl").splitlines()
        ],
    }


def _mutate_row(draw, row: list, fill) -> list:
    """The row with one column dropped, shuffled, added (fill()) or replaced (fill(old))."""
    how = draw(st.sampled_from(["drop", "shuffle", "add", "replace"]))
    at = draw(st.integers(0, max(len(row) - 1, 0)))
    if how == "drop":
        return row[:at] + row[at + 1 :]
    if how == "shuffle":
        return draw(st.permutations(row))
    if how == "add" or not row:
        return row[:at] + [fill()] + row[at:]
    return row[:at] + [fill(row[at])] + row[at + 1 :]


@st.composite
def mangled(draw, fmt: str, rows: list) -> bytes:
    """The clean log in `fmt`, mutated a few times, as the bytes of a file."""
    keys = st.sampled_from(["timestamp", "device", "attribute", "value", "extra"])

    def fill(old=None):
        """A new CSV field, or a JSONL pair: old's key (a drawn one when adding), a drawn value."""
        if fmt == "csv":
            return draw(st.sampled_from(FIELDS))
        return old[0] if old else draw(keys), draw(st.sampled_from(JSON_VALUES))

    rows = list(rows)
    for _ in range(draw(st.integers(1, 3))):
        picked = st.lists(st.integers(0, len(rows) - 1), min_size=1, max_size=4, unique=True)
        for r in draw(picked):
            rows[r] = _mutate_row(draw, rows[r], fill)
    if fmt == "csv":
        text = "\n".join(",".join(row) for row in rows)
    else:
        text = "\n".join("{" + ", ".join(f'"{k}": {v}' for k, v in row) + "}" for row in rows)
    for _ in range(draw(st.integers(0, 3))):
        at = draw(st.integers(0, len(text)))
        text = text[:at] + draw(st.sampled_from(STRAY)) + text[at:]
    data = text.encode("utf-8")
    if draw(st.booleans()):
        at = draw(st.integers(0, len(data)))
        data = data[:at] + draw(st.sampled_from(NOT_UTF8)) + data[at:]
    return data


@pytest.mark.parametrize("command", ["ingest", "detect"])
@pytest.mark.parametrize("fmt", ["csv", "jsonl"])
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_a_mangled_log_ends_in_an_exit_code_not_a_traceback(clean, fmt, command, data):
    log = clean["dir"] / f"log.{fmt}"
    log.write_bytes(data.draw(mangled(fmt, clean[fmt])))
    argv = ["ingest", str(log)]
    if command == "detect":
        argv = ["detect", "--log", str(log), "--models", clean["models"]]
        argv += ["--patterns", clean["patterns"]]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run(argv)
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue() + out.getvalue()
