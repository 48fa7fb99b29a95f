"""Logs and instance files are read from the open file, one line at a time.

The CLI parses what `open(path, encoding="utf-8")` yields line by line. These
tests pin that this reads exactly what parsing the file's `read_text` string
reads, that a byte which is not UTF-8 is reported at its line and file offset
however far into the file it sits, and that loading a log holds little more
than the parsed events.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from tempoguard.cli import _load_log, _parse_file, run
from tempoguard.events import Event, EventKey
from tempoguard.ingest import instances_from_jsonl, parse_log, parse_log_jsonl, serialize_log

_BREAKS = st.sampled_from(["\n", "\r\n", "\r"])

_CSV_HEADERS = st.sampled_from(
    [
        "timestamp,device,attribute,value",
        " Timestamp , device,attribute ,value",
        "timestamp,device,value",
    ]
)
_CSV_LINES = st.one_of(
    st.sampled_from(
        [
            "1000,M1,motion,active",
            " 2000 , M 1 ,motion, open ",
            "3000,M\x851,motion,on",
            "3500,M 1,active",
            '4000,"M1,x",motion,"a""b"',
            "",
            "  \t",
            "bad,M1,motion,active",
            "5000,M1",
        ]
    ),
    st.builds(lambda brk: '6000,"M' + brk + '1",motion,active', _BREAKS),  # a field over two lines
)

_JSON_STRINGS = st.text(alphabet="ab\u2028\u2029\x85", min_size=1, max_size=4)
_EVENT_OBJS = st.fixed_dictionaries(
    {
        "timestamp": st.sampled_from([1000, 2000, "2021-10-01T13:00:01Z", 1500.5]),
        "device": _JSON_STRINGS,
        "attribute": _JSON_STRINGS,
        "value": st.one_of(_JSON_STRINGS, st.just(21.5)),
    }
)
_PADS = st.sampled_from(["", " ", "\t "])
_BAD_JSON_LINES = st.sampled_from(["", " \t", "{", "[1] x", '{"timestamp": "bad"}'])
_JSONL_LINES = st.one_of(
    st.builds(
        lambda pad, obj: pad + json.dumps(obj, ensure_ascii=False) + pad, _PADS, _EVENT_OBJS
    ),
    _BAD_JSON_LINES,
)
_INSTANCE_LINES = st.one_of(
    st.builds(
        lambda pad, sid, events: pad
        + json.dumps({"source_id": sid, "label": "normal", "events": events}, ensure_ascii=False),
        _PADS,
        _JSON_STRINGS,
        st.lists(_EVENT_OBJS, min_size=1, max_size=3),
    ),
    _BAD_JSON_LINES,
    st.just('{"events": []}'),
)


@st.composite
def _hostile_text(draw, first, lines):
    """Lines joined by LF, CR LF or a lone CR, maybe after a BOM, maybe with no final break."""
    parts = [draw(first)] + draw(st.lists(lines, max_size=6))
    breaks = [draw(_BREAKS) for _ in parts]
    text = "".join(part + brk for part, brk in zip(parts, breaks))
    if draw(st.booleans()):
        text = text[: -len(breaks[-1])]
    return ("\ufeff" if draw(st.booleans()) else "") + text


def _outcome(parse, source):
    try:
        result = parse(source)
    except ValueError as exc:
        return str(exc)
    # The parsers build events without Event.__new__; each must still be what it would build.
    events = [e for item in result for e in ([item] if type(item) is Event else item.events)]
    assert all(type(e) is Event and e == Event(*e) for e in events)
    return result


@pytest.mark.parametrize(
    "parse, first, lines",
    [
        (parse_log, st.one_of(_CSV_HEADERS, _CSV_LINES), _CSV_LINES),
        (parse_log_jsonl, _JSONL_LINES, _JSONL_LINES),
        (instances_from_jsonl, _INSTANCE_LINES, _INSTANCE_LINES),
    ],
    ids=["csv", "jsonl", "instances"],
)
@given(data=st.data())
def test_reading_the_open_file_equals_parsing_its_text(tmp_path_factory, parse, first, lines, data):
    text = data.draw(_hostile_text(first, lines))
    path = tmp_path_factory.getbasetemp() / "hostile.txt"
    path.write_bytes(text.encode("utf-8"))
    expected = _outcome(parse, path.read_text(encoding="utf-8"))
    assert _outcome(lambda p: _parse_file(parse, p), str(path)) == expected


def _csv_file(brk: str) -> bytes:
    rows = ["timestamp,device,attribute,value"]
    rows += [f"{1000 * n},M1,motion,active" for n in range(1, 400)]
    rows.append("400000,M\udcff1,motion,active")  # the bad byte, past the first 8 KiB
    rows.append("401000,M2,motion,active")
    return brk.join(rows).encode("utf-8", "surrogateescape")


def _jsonl_file(brk: str) -> bytes:
    event = '{"timestamp": %d, "device": "%s", "attribute": "motion", "value": "on"}'
    rows = [event % (1000 * n, "M1") for n in range(1, 200)] + [event % (200_000, "M\udcff1")]
    return brk.join(rows).encode("utf-8", "surrogateescape")


def _instance_file(brk: str) -> bytes:
    event = '{"timestamp": 1000, "device": "M1", "attribute": "motion", "value": "on"}'
    rows = ['{"source_id": "%s", "events": [%s]}' % (f"s{n}", event) for n in range(120)]
    rows.append('{"source_id": "s\udcff", "events": [%s]}' % event)
    return brk.join(rows).encode("utf-8", "surrogateescape")


@pytest.mark.parametrize("brk", ["\n", "\r\n", "\r"], ids=["lf", "crlf", "cr"])
@pytest.mark.parametrize(
    "name, content, command",
    [
        ("log.csv", _csv_file, "ingest"),
        ("log.jsonl", _jsonl_file, "ingest"),
        ("instances.jsonl", _instance_file, "mine"),
    ],
    ids=["csv", "jsonl", "instances"],
)
def test_byte_that_is_not_utf8_is_a_data_error_naming_its_line_and_offset(
    tmp_path, capsys, name, content, command, brk
):
    data = content(brk)
    offset = data.index(b"\xff")
    assert offset > 8192  # past the first chunk the text reader decodes
    line = len((data[:offset] + b"x").decode("ascii").splitlines())  # splitlines ends CR, CR LF, LF
    path = tmp_path / name
    path.write_bytes(data)
    out = tmp_path / "out.jsonl"
    assert run([command, str(path), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err == f"error: line {line}: not UTF-8 (byte 0xff at offset {offset})\n"
    assert not out.exists()


def test_byte_that_is_not_utf8_in_a_short_file_is_named_exactly(tmp_path, capsys):
    log = tmp_path / "log.csv"
    log.write_bytes(b"timestamp,device,attribute,value\r\n1000,M\xe21,motion,active\r\n")
    assert run(["ingest", str(log)]) == 2
    assert capsys.readouterr().err == "error: line 2: not UTF-8 (byte 0xe2 at offset 40)\n"


_CSV_ROW = "{ts},{device},motion,active"
_JSONL_ROW = '{{"timestamp": "{ts}", "device": "{device}", "attribute": "motion", "value": "on"}}'
_INSTANCE_ROW = '{{"source_id": "s", "events": [%s]}}' % _JSONL_ROW


@pytest.mark.parametrize("between", [5, 800], ids=["same-chunk", "later-chunk"])
@pytest.mark.parametrize(
    "name, header, row, command",
    [
        ("log.csv", "timestamp,device,attribute,value", _CSV_ROW, "ingest"),
        ("log.jsonl", None, _JSONL_ROW, "ingest"),
        ("instances.jsonl", None, _INSTANCE_ROW, "mine"),
    ],
    ids=["csv", "jsonl", "instances"],
)
def test_byte_that_is_not_utf8_wins_over_an_earlier_bad_line(
    tmp_path, capsys, name, header, row, command, between
):
    """Which error is reported depends on the file alone, not on the decoder's chunks."""
    lines = [row.format(ts=1000 * n, device="M1") for n in range(1, 6 + between)]
    if header:
        lines[0] = header
    lines[3] = row.format(ts="bad", device="M1")
    lines[-1] = row.format(ts=9000, device="M\udcff1")  # line 5 + between
    data = "\n".join(lines).encode("utf-8", "surrogateescape")
    offset = data.index(b"\xff")
    path = tmp_path / name
    path.write_bytes(data)
    assert run([command, str(path)]) == 2
    err = capsys.readouterr().err
    assert err == f"error: line {len(lines)}: not UTF-8 (byte 0xff at offset {offset})\n"


@pytest.mark.skipif(not os.path.exists("/dev/stdin"), reason="needs /dev/stdin")
def test_byte_that_is_not_utf8_in_a_pipe_is_named_without_a_wrong_offset():
    """A pipe cannot be read a second time, so the message gives the byte alone."""
    src = Path(__file__).resolve().parent.parent / "src"
    proc = subprocess.run(
        [sys.executable, "-I", "-c", "import sys; sys.path.insert(0, sys.argv.pop(1)); "
         "from tempoguard.cli import main; main()", str(src), "ingest", "/dev/stdin"],
        input=_csv_file("\n"), capture_output=True, timeout=60,
    )  # fmt: skip
    assert proc.returncode == 2
    assert proc.stderr == b"error: not UTF-8 (byte 0xff)\n"


EVENTS_PER_LOG = 20_000
# The parsed events themselves take about 104 bytes each: the Event tuple, its
# timestamp int and a slot in the list. Parsing the whole text at once took 376
# (CSV) and 418 (JSONL) bytes per event at its peak.
PEAK_BYTES_PER_EVENT = 200


@pytest.mark.parametrize("fmt", ["csv", "jsonl"])
def test_loading_a_log_holds_little_more_than_its_events(tmp_path, fmt):
    keys = [EventKey(f"M{n}", "motion", s) for n in range(8) for s in ("active", "inactive")]
    events = [
        Event(1_633_093_201_000 + 1000 * n, keys[n % len(keys)]) for n in range(EVENTS_PER_LOG)
    ]
    path = tmp_path / f"log.{fmt}"
    path.write_text(serialize_log(events, fmt), encoding="utf-8")
    tracemalloc.start()
    try:
        loaded = _load_log(str(path))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert loaded == events
    assert peak / EVENTS_PER_LOG < PEAK_BYTES_PER_EVENT
