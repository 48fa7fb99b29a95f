from __future__ import annotations

import calendar
import json
import re
from datetime import datetime, timezone

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from conftest import key, make_instance
from tempoguard.cli import run
from tempoguard.config import RunConfig
from tempoguard.events import Event, EventKey, LABEL_ANOMALY_TI, LABEL_UNLABELED
from tempoguard.ingest import (
    MAX_TIMESTAMP_MS,
    _json_lines,
    format_timestamp,
    instances_from_jsonl,
    instances_to_jsonl,
    parse_log,
    parse_log_jsonl,
    parse_timestamp,
    segment,
    serialize_log,
)

# Independently computed: 2021-10-01T13:00:01 UTC in epoch milliseconds.
EPOCH_13_00_01 = 1_633_093_201_000


def test_parse_timestamp_accepts_epoch_milliseconds():
    assert parse_timestamp("1633093201000") == EPOCH_13_00_01


def test_parse_timestamp_accepts_iso_with_zulu_suffix():
    assert parse_timestamp("2021-10-01T13:00:01Z") == EPOCH_13_00_01


def test_parse_timestamp_accepts_iso_with_explicit_offset():
    assert parse_timestamp("2021-10-01T15:00:01+02:00") == EPOCH_13_00_01


def test_parse_timestamp_treats_naive_iso_as_utc():
    assert parse_timestamp("2021-10-01T13:00:01") == EPOCH_13_00_01


def test_parse_timestamp_accepts_slash_date_format():
    assert parse_timestamp("10/1/2021 13:00:01") == EPOCH_13_00_01


def test_parse_timestamp_keeps_milliseconds():
    assert parse_timestamp("2021-10-01T13:00:01.234Z") == EPOCH_13_00_01 + 234


def test_parse_timestamp_names_the_bad_token():
    with pytest.raises(ValueError, match="next tuesday"):
        parse_timestamp("next tuesday")


@given(ms=st.integers(min_value=0, max_value=4 * 10**12))
def test_timestamp_format_parse_round_trip(ms):
    assert parse_timestamp(format_timestamp(ms)) == ms


@given(
    local=st.datetimes(
        min_value=datetime(1970, 1, 1), max_value=datetime(9999, 12, 31, 23, 59, 59, 999_999)
    ),
    offset_min=st.one_of(st.none(), st.integers(min_value=-(23 * 60 + 59), max_value=23 * 60 + 59)),
)
# Edges a float epoch gets wrong: the last microsecond of 9999 (a float
# rounds it up a second), a UTC time past 9999-12-31, and -1 ms.
@example(local=datetime(9999, 12, 31, 23, 59, 59, 999_999), offset_min=None)
@example(local=datetime(9999, 12, 31, 23, 30), offset_min=-90)
@example(local=datetime(1970, 1, 1, 0, 59, 59, 999_000), offset_min=60)
def test_parse_timestamp_equals_the_exact_integer_reference(local, offset_min):
    # None: naive (UTC); 0: the Z suffix; otherwise an explicit +HH:MM / -HH:MM offset.
    token = local.isoformat()
    if offset_min == 0:
        token += "Z"
    elif offset_min is not None:
        sign = "+" if offset_min > 0 else "-"
        token += f"{sign}{abs(offset_min) // 60:02d}:{abs(offset_min) % 60:02d}"
    seconds = calendar.timegm(local.timetuple()) - 60 * (offset_min or 0)
    expected = seconds * 1000 + local.microsecond // 1000
    if expected < 0:
        with pytest.raises(ValueError, match="before 1970"):
            parse_timestamp(token)
    elif expected > MAX_TIMESTAMP_MS:
        with pytest.raises(ValueError, match="after 9999"):
            parse_timestamp(token)
    else:
        assert parse_timestamp(token) == expected


def test_parse_timestamp_rejects_a_fraction_before_the_epoch():
    # -500 ms: truncating a float epoch toward zero would give +500.
    with pytest.raises(ValueError, match=r"1969-12-31T23:59:59\.500Z.*before 1970"):
        parse_timestamp("1969-12-31T23:59:59.500Z")


def test_epoch_milliseconds_stop_at_the_last_time_format_timestamp_can_write():
    assert format_timestamp(MAX_TIMESTAMP_MS) == "9999-12-31T23:59:59.999Z"
    assert parse_timestamp(str(MAX_TIMESTAMP_MS)) == MAX_TIMESTAMP_MS
    with pytest.raises(ValueError, match="'253402300800000' is after 9999-12-31T23:59:59.999Z"):
        parse_timestamp(str(MAX_TIMESTAMP_MS + 1))


# The strftime writer that format_timestamp replaced, kept verbatim as an
# exact reference for every time the writers accept.
def _strftime_format_timestamp(ms: int) -> str:
    """ISO-8601 UTC with millisecond precision ("...T13:00:01Z" / "...T13:00:01.234Z")."""
    dt = datetime.fromtimestamp(ms // 1000, tz=timezone.utc)
    text = dt.strftime("%Y-%m-%dT%H:%M:%S")
    frac = ms % 1000
    if frac:
        text += f".{frac:03d}"
    return text + "Z"


@given(ms=st.integers(min_value=0, max_value=MAX_TIMESTAMP_MS))
@example(ms=0)
@example(ms=EPOCH_13_00_01)
@example(ms=EPOCH_13_00_01 + 1)
@example(ms=EPOCH_13_00_01 + 999)
@example(ms=MAX_TIMESTAMP_MS)
def test_format_timestamp_equals_the_strftime_reference(ms):
    assert format_timestamp(ms) == _strftime_format_timestamp(ms)


@pytest.mark.parametrize(
    "ms, message",
    [
        (-1, "timestamp -1 ms is before 1970-01-01T00:00:00Z"),
        (MAX_TIMESTAMP_MS + 1, "timestamp 253402300800000 ms is after 9999-12-31T23:59:59.999Z"),
    ],
    ids=["negative", "past-9999"],
)
def test_format_timestamp_rejects_a_time_it_cannot_write(ms, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        format_timestamp(ms)


def test_instances_to_jsonl_names_the_instance_it_cannot_write():
    late = make_instance("AB", [1000], t0=MAX_TIMESTAMP_MS, source_id="seg-0007")
    message = "instance 'seg-0007': timestamp 253402300800999 ms is after 9999-12-31T23:59:59.999Z"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        instances_to_jsonl([make_instance("AB"), late])


def test_parse_timestamp_accepts_the_epoch_itself():
    assert parse_timestamp("1970-01-01T01:00:00+01:00") == 0


SAMPLE_LOG = """timestamp,device,attribute,value
2021-10-01T13:00:01Z,M1,motion,active
2021-10-01T13:00:02Z,L1,switch,on
2021-10-01T13:01:00Z,L1,switch,off
"""


def test_parse_log_reads_four_column_csv():
    events = parse_log(SAMPLE_LOG)
    assert len(events) == 3
    assert events[0].key == EventKey("M1", "motion", "active")
    assert events[0].timestamp_ms == EPOCH_13_00_01
    assert [e.timestamp_ms - events[0].timestamp_ms for e in events] == [0, 1000, 59000]


def test_parse_log_infers_attribute_for_legacy_three_columns():
    text = (
        "timestamp,device,value\n"
        "2021-10-01T13:00:01Z,M1,active\n"
        "2021-10-01T13:00:02Z,C1,closed\n"
        "2021-10-01T13:00:03Z,L1,on\n"
        "2021-10-01T13:00:04Z,X9,74\n"
    )
    events = parse_log(text)
    assert [e.key.attribute for e in events] == ["motion", "contact", "switch", "state"]


def test_parse_log_requires_a_header():
    with pytest.raises(ValueError, match="header"):
        parse_log("2021-10-01T13:00:01Z,M1,motion,active\n")


def test_parse_log_rejects_empty_text():
    with pytest.raises(ValueError, match="header"):
        parse_log("")


def test_parse_log_names_line_of_malformed_row():
    text = "timestamp,device,attribute,value\n2021-10-01T13:00:01Z,M1,motion\n"
    with pytest.raises(ValueError, match="line 2"):
        parse_log(text)


def test_parse_log_names_line_and_token_of_bad_timestamp():
    text = "timestamp,device,attribute,value\nyesterday,M1,motion,active\n"
    with pytest.raises(ValueError, match=r"line 2.*yesterday"):
        parse_log(text)


def test_parse_log_names_line_of_pre_epoch_row():
    text = "timestamp,device,attribute,value\n1969-12-31T23:59:59Z,M1,motion,active\n"
    with pytest.raises(ValueError, match=r"line 2: .*1969-12-31T23:59:59Z.*before 1970"):
        parse_log(text)


def test_parse_log_jsonl_names_line_of_pre_epoch_row():
    line = '{"timestamp": "1969-12-31T23:59:59.500Z", "device": "M1", "attribute": "a", "value": 1}'
    with pytest.raises(ValueError, match=r"line 2: .*before 1970"):
        parse_log_jsonl("\n" + line + "\n")


def test_parse_log_names_line_of_oversized_field():
    text = SAMPLE_LOG + "2021-10-01T13:02:00Z," + "x" * 140_000 + ",motion,active\n"
    with pytest.raises(ValueError, match="line 5: field larger than field limit"):
        parse_log(text)


def test_parse_log_names_the_physical_line_after_a_field_spanning_two():
    text = 'timestamp,device,attribute,value\n1000,"M\n1",motion,active\nbad,M2,motion,active\n'
    with pytest.raises(ValueError, match="line 4: unparseable timestamp 'bad'"):
        parse_log(text)


def test_parse_log_sorts_rows_by_timestamp():
    text = (
        "timestamp,device,attribute,value\n"
        "2021-10-01T13:00:02Z,L1,switch,on\n"
        "2021-10-01T13:00:01Z,M1,motion,active\n"
    )
    events = parse_log(text)
    assert [e.key.device for e in events] == ["M1", "L1"]


def test_parse_log_skips_blank_lines():
    assert len(parse_log(SAMPLE_LOG + "\n\n")) == 3


def test_serialize_log_round_trips_csv():
    events = parse_log(SAMPLE_LOG)
    assert parse_log(serialize_log(events, "csv")) == events


def test_serialize_log_round_trips_jsonl():
    events = parse_log(SAMPLE_LOG)
    assert parse_log_jsonl(serialize_log(events, "jsonl")) == events


# Names with commas, quotes and non-ASCII characters; no control characters
# and no surrounding whitespace, which the CSV reader strips.
_NAMES = st.text(
    alphabet=st.one_of(
        st.sampled_from(',"\' é漢ü'), st.characters(blacklist_categories=("Cc", "Cs"))
    ),
    min_size=1,
    max_size=10,
).filter(lambda name: name == name.strip())

_LOGS = st.lists(
    st.builds(
        lambda ts, device, attribute, value: Event(ts, EventKey(device, attribute, value), value),
        st.integers(min_value=0, max_value=4 * 10**12),
        _NAMES,
        _NAMES,
        _NAMES,
    ),
    max_size=8,
).map(lambda events: sorted(events, key=lambda e: e.timestamp_ms))


@given(events=_LOGS)
def test_csv_round_trip_keeps_awkward_names(events):
    assert parse_log(serialize_log(events, "csv")) == events


@given(events=_LOGS)
def test_jsonl_round_trip_keeps_awkward_names(events):
    assert parse_log_jsonl(serialize_log(events, "jsonl")) == events


REPEATED_KEYS_LOG = (
    SAMPLE_LOG + "2021-10-01T13:02:00Z,M1,motion,active\n2021-10-01T13:03:00Z,L1,switch,on\n"
)


def _assert_one_object_per_key(events: list[Event]) -> None:
    by_value: dict[EventKey, EventKey] = {}
    for e in events:
        assert by_value.setdefault(e.key, e.key) is e.key
    assert len(by_value) == 3


def test_parse_log_shares_one_key_object_per_distinct_key():
    _assert_one_object_per_key(parse_log(REPEATED_KEYS_LOG))


def test_parse_log_jsonl_shares_one_key_object_per_distinct_key():
    jsonl = serialize_log(parse_log(REPEATED_KEYS_LOG), "jsonl")
    _assert_one_object_per_key(parse_log_jsonl(jsonl))


def test_instances_from_jsonl_shares_key_objects_across_instances():
    text = instances_to_jsonl([make_instance("ABA"), make_instance("BAB")])
    first, second = (inst.key_sequence() for inst in instances_from_jsonl(text))
    assert first[0] is first[2] is second[1]
    assert first[1] is second[0] is second[2]


def test_separate_parses_share_no_key_objects():
    assert parse_log(SAMPLE_LOG)[0].key is not parse_log(SAMPLE_LOG)[0].key


def test_serialize_log_rejects_unknown_format():
    with pytest.raises(ValueError, match="unknown log format"):
        serialize_log([], "xml")


def _events(*gaps: int) -> list[Event]:
    ts = 1_000_000
    out = [Event(ts, key("A"), "on")]
    for gap in gaps:
        ts += gap
        out.append(Event(ts, key("B"), "on"))
    return out


def test_segment_splits_on_gaps_at_or_over_threshold():
    events = _events(1000, 120_000, 1000)
    parts = segment(events, RunConfig(gap_seconds=120))
    assert [len(p.events) for p in parts] == [2, 2]


def test_segment_keeps_gaps_under_threshold_together():
    events = _events(1000, 119_999, 1000)
    parts = segment(events, RunConfig(gap_seconds=120))
    assert [len(p.events) for p in parts] == [4]


def test_segment_drops_short_segments():
    events = _events(200_000, 1000)  # lone first event, then a pair
    parts = segment(events, RunConfig(gap_seconds=120, min_segment_len=2))
    assert [len(p.events) for p in parts] == [2]


def test_segment_assigns_sequential_source_ids():
    events = _events(1000, 200_000, 1000, 200_000, 1000)
    parts = segment(events)
    assert [p.source_id for p in parts] == ["seg-0000", "seg-0001", "seg-0002"]
    assert all(p.label == LABEL_UNLABELED for p in parts)


def test_segment_rejects_unordered_events():
    events = [Event(2000, key("A"), "on"), Event(1000, key("B"), "on")]
    with pytest.raises(ValueError, match="time-ordered"):
        segment(events)


class _PassCountingList(list):
    """A list that counts how often it is iterated."""

    passes = 0

    def __iter__(self):
        self.passes += 1
        return super().__iter__()


def test_segment_reads_the_events_once():
    events = _PassCountingList(_events(1000, 200_000, 1000))
    assert len(segment(events)) == 2
    assert events.passes == 1


def test_segment_rejects_a_late_step_back_in_time():
    events = _events(1000, 200_000, 1000) + [Event(1000, key("A"), "on")]
    with pytest.raises(ValueError, match="^events must be time-ordered before segmentation$"):
        segment(events)


# 23:30 at -01:30 is 01:00 UTC on 10000-01-01.
_PAST_9999 = "9999-12-31T23:30:00-01:30"


def test_log_parsers_reject_an_iso_time_an_offset_puts_past_9999():
    message = f"timestamp '{_PAST_9999}' is after 9999-12-31T23:59:59.999Z$"
    with pytest.raises(ValueError, match="^" + message):
        parse_timestamp(_PAST_9999)
    message = "^line 3: " + message
    csv_text = f"timestamp,device,attribute,value\n1000,M1,m,on\n{_PAST_9999},M1,m,on\n"
    with pytest.raises(ValueError, match=message):
        parse_log(csv_text)
    line = '{"timestamp": "%s", "device": "M1", "attribute": "m", "value": "on"}'
    with pytest.raises(ValueError, match=message):
        parse_log_jsonl("\n".join([line % "1000", "", line % _PAST_9999]))
    assert parse_log("timestamp,device,attribute,value\n9999-12-31T23:59:59.999-00:00,M1,m,on\n")


_FIELDS = '"device": "M1", "attribute": "m", "value": "on"'


@pytest.mark.parametrize(
    "line, message",
    [
        ("[1, 2]", "an event must be an object, not [1, 2]"),
        ('"M1"', 'an event must be an object, not "M1"'),
        ("{%s}" % _FIELDS, "timestamp must be a string or a number, not null"),
        ('{"timestamp": [1], %s}' % _FIELDS, "timestamp must be a string or a number, not [1]"),
    ],
    ids=["array", "string", "timestamp-missing", "timestamp-array"],
)
def test_jsonl_line_of_the_wrong_shape_names_the_expected_type(line, message):
    with pytest.raises(ValueError) as info:
        parse_log_jsonl(line + "\n")
    assert str(info.value) == f"line 1: {message}"


_EVENT = '{"timestamp": 1000, %s}' % _FIELDS


@pytest.mark.parametrize(
    "line, message",
    [
        ('{"source_id": 5, "events": [%s]}' % _EVENT, "'source_id' must be a string, not 5"),
        ('{"label": null, "events": [%s]}' % _EVENT, "'label' must be a string, not null"),
        ('{"source_id": "s", "events": {"a": 1}}', "'events' must be an array, not {\"a\": 1}"),
        ('{"source_id": "s"}', "'events' must be an array, not null"),
        ('{"events": [[1]]}', "an event must be an object, not [1]"),
        ("[%s]" % _EVENT, "an instance must be an object, not [{"),
    ],
    ids=["source-id-int", "label-null", "events-object", "events-missing", "event-array", "array"],
)
def test_instance_file_fields_are_type_checked(line, message):
    with pytest.raises(ValueError) as info:
        instances_from_jsonl('{"events": [%s]}\n%s\n' % (_EVENT, line))
    assert str(info.value).startswith(f"line 2: {message}")


@pytest.mark.parametrize(
    "flag, message",
    [
        ("--gap-seconds=0", "gap_seconds must be over 0.0005"),
        ("--min-segment-len=0", "min_segment_len must be >= 1"),
    ],
    ids=["gap_seconds", "min_segment_len"],
)
def test_ingest_settings_are_checked_before_the_log_is_read(capsys, flag, message):
    assert run(["ingest", "missing.csv", flag]) == 2
    assert f"error: {message}" in capsys.readouterr().err


def test_instances_jsonl_round_trip_preserves_labels_and_ids():
    instances = [
        make_instance("AB", [1500], label=LABEL_ANOMALY_TI, source_id="seg-0007"),
        make_instance("CD", [2500], source_id="seg-0008"),
    ]
    assert instances_from_jsonl(instances_to_jsonl(instances)) == instances


def test_instances_from_jsonl_names_bad_line():
    with pytest.raises(ValueError, match="line 1"):
        instances_from_jsonl("not json\n")


def test_jsonl_boolean_timestamp_is_rejected_not_read_as_one_ms():
    line = '{"timestamp": true, "device": "M1", "attribute": "motion", "value": "active"}\n'
    with pytest.raises(ValueError, match="line 1: timestamp"):
        parse_log_jsonl(line)


def test_jsonl_numeric_value_becomes_a_string():
    lines = [
        '{"timestamp": 1000, "device": "T1", "attribute": "temperature", "value": 21}',
        '{"timestamp": 2000, "device": "T1", "attribute": "temperature", "value": 21.5}',
    ]
    assert [e.raw_value for e in parse_log_jsonl("\n".join(lines))] == ["21", "21.5"]


def test_jsonl_integer_timestamp_is_still_epoch_milliseconds():
    line = '{"timestamp": 1633093201000, "device": "M1", "attribute": "motion", "value": "on"}\n'
    assert parse_log_jsonl(line)[0].timestamp_ms == EPOCH_13_00_01


@pytest.mark.parametrize(
    "number, ms",
    [
        ("1633093201000.0", EPOCH_13_00_01),
        ("1633093201000.999", EPOCH_13_00_01),
        ("1.633093201e12", EPOCH_13_00_01),
        ("0.5", 0),
        ("253402300799999.5", MAX_TIMESTAMP_MS),
    ],
    ids=["zero-fraction", "fraction", "exponent", "half-ms", "last-ms"],
)
def test_jsonl_number_timestamp_is_epoch_milliseconds_with_the_fraction_floored(number, ms):
    line = f'{{"timestamp": {number}, "device": "M1", "attribute": "motion", "value": "on"}}\n'
    assert parse_log_jsonl(line)[0].timestamp_ms == ms


@pytest.mark.parametrize(
    "number, message",
    [
        ("NaN", "timestamp 'NaN' is not a finite number"),
        ("Infinity", "timestamp 'Infinity' is not a finite number"),
        ("-Infinity", "timestamp '-Infinity' is not a finite number"),
        ("-1", "timestamp '-1' is before 1970-01-01T00:00:00Z"),
        ("-0.5", "timestamp '-0.5' is before 1970-01-01T00:00:00Z"),
        ("253402300800000.0", "timestamp '253402300800000.0' is after 9999-12-31T23:59:59.999Z"),
        ("1e300", "timestamp '1e+300' is after 9999-12-31T23:59:59.999Z"),
    ],
    ids=["nan", "infinity", "minus-infinity", "negative", "negative-fraction", "past-9999", "1e300"],
)
def test_jsonl_number_timestamp_out_of_range_names_its_line(number, message):
    lines = [
        '{"timestamp": 1000, "device": "M1", "attribute": "motion", "value": "on"}',
        f'{{"timestamp": {number}, "device": "M1", "attribute": "motion", "value": "on"}}',
    ]
    with pytest.raises(ValueError, match=f"^line 2: {re.escape(message)}$"):
        parse_log_jsonl("\n".join(lines))


@given(
    gaps=st.lists(st.integers(min_value=0, max_value=10**6), min_size=1, max_size=6),
    t0=st.integers(min_value=0, max_value=10**12),
)
def test_instance_round_trip_is_identity(gaps, t0):
    inst = make_instance("ABCDEFG"[: len(gaps) + 1], gaps, t0=t0, source_id="seg-0000")
    assert instances_from_jsonl(instances_to_jsonl([inst])) == [inst]


def test_jsonl_integer_past_the_digit_limit_is_invalid_json_naming_its_line():
    good = '{"timestamp": 1000, "device": "M1", "attribute": "motion", "value": "on"}'
    huge = '{"timestamp": %s, "device": "M1", "attribute": "motion", "value": "on"}' % ("9" * 5000)
    message = r"^line 2: invalid JSON \(Exceeds the limit \(4300 digits\)"
    with pytest.raises(ValueError, match=message):
        parse_log_jsonl(good + "\n" + huge + "\n")
    with pytest.raises(ValueError, match=message):
        instances_from_jsonl('{"events": [%s]}\n{"events": [%s]}\n' % (good, huge))


@pytest.mark.parametrize("read", [parse_log_jsonl, instances_from_jsonl])
def test_jsonl_line_nested_too_deeply_is_invalid_json_naming_its_line(read):
    with pytest.raises(ValueError, match=r"^line 2: invalid JSON \(maximum recursion depth"):
        read("\n" + "[" * 100_000 + "]" * 100_000 + "\n")


_LINE_BREAKS = ["\u2028", "\u2029", "\x85"]


@pytest.mark.parametrize("brk", _LINE_BREAKS, ids=["u2028", "u2029", "u0085"])
def test_jsonl_log_keeps_a_unicode_line_break_inside_a_string(brk):
    obj = {"timestamp": 1000, "device": f"Hall{brk}lamp", "attribute": "switch", "value": "on"}
    text = json.dumps(obj, ensure_ascii=False) + "\n{}\n"
    assert brk in text.split("\n")[0]
    with pytest.raises(ValueError, match="^line 2: timestamp must be a string or a number"):
        parse_log_jsonl(text)
    (event,) = parse_log_jsonl(text.split("\n")[0])
    assert event.key.device == f"Hall{brk}lamp"


@pytest.mark.parametrize("brk", _LINE_BREAKS, ids=["u2028", "u2029", "u0085"])
def test_instance_file_keeps_a_unicode_line_break_inside_a_string(brk):
    event = {"timestamp": 1000, "device": "M1", "attribute": "motion", "value": "on"}
    line = json.dumps({"source_id": f"seg{brk}1", "events": [event]}, ensure_ascii=False)
    (inst,) = instances_from_jsonl(line + "\n")
    assert inst.source_id == f"seg{brk}1"
    with pytest.raises(ValueError, match="^line 2: 'events' must be an array, not null$"):
        instances_from_jsonl(line + "\n{}\n")


def test_jsonl_readers_take_a_carriage_return_before_the_newline_as_whitespace():
    event = '{"timestamp": 1000, "device": "M1", "attribute": "motion", "value": "on"}'
    assert parse_log_jsonl(event + "\r\n\r\n" + event + "\r\n") == parse_log_jsonl(
        event + "\n" + event
    )
    instance = '{"source_id": "s", "events": [%s]}' % event
    assert instances_from_jsonl(instance + "\r\n") == instances_from_jsonl(instance)


def _loads_line_by_line(text: str):
    """The reference for _json_lines: json.loads on each non-blank "\n"-separated line."""
    values = []
    for lineno, line in enumerate(text.split("\n"), start=1):
        if not line.strip():
            continue
        try:
            values.append((lineno, json.loads(line)))
        except ValueError as exc:
            return values, f"line {lineno}: invalid JSON ({exc})"
    return values, None


def _read_all(text: str):
    values = []
    try:
        for item in _json_lines(text):
            values.append(item)
    except ValueError as exc:
        return values, str(exc)
    return values, None


_JSON_WS = st.text(alphabet=" \t\r", max_size=3)
_EVENT_OBJS = st.fixed_dictionaries(
    {
        "timestamp": st.one_of(st.integers(min_value=0, max_value=10**13), st.text(max_size=8)),
        "device": st.text(max_size=8),
        "attribute": st.text(alphabet="ab\u2028\x85é", max_size=4),
        "value": st.one_of(st.text(max_size=4), st.floats(allow_nan=False), st.integers()),
    }
)


def _padded_line(obj: dict, ascii_only: bool, before: str, after: str, tail: str) -> str:
    return before + json.dumps(obj, ensure_ascii=ascii_only) + after + tail


_JSONL_LINES = st.one_of(
    st.builds(
        _padded_line,
        _EVENT_OBJS,
        st.booleans(),
        _JSON_WS,
        _JSON_WS,
        st.sampled_from(["", "", "", "\r", "x", " }", "{", " 1", "\ufeff"]),
    ),
    st.builds(lambda obj: "\ufeff" + json.dumps(obj), _EVENT_OBJS),
    st.text(alphabet=" \t\r\x0b\x0c\x1c\x85\xa0\u2028\u3000", max_size=3),
)


@given(lines=st.lists(_JSONL_LINES, max_size=6))
@example(lines=["", "  ", "\ufeff{}", "{}"])
@example(lines=['{"a": 1} ', "[1] x", "\r"])
def test_json_lines_reader_matches_json_loads_line_by_line(lines):
    text = "\n".join(lines)
    assert _read_all(text) == _loads_line_by_line(text)
