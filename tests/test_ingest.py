from __future__ import annotations

import calendar
import csv
import io
import json
import operator
import re
from datetime import datetime, timezone
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import key, make_instance
from tempoguard.cli import run
from tempoguard.config import RunConfig
from tempoguard.events import (
    ActivityInstance,
    Event,
    EventKey,
    LABEL_ANOMALY_TI,
    LABEL_UNLABELED,
    MIN_ACTIVITY_EVENTS,
    VALID_LABELS,
    is_numeric_value,
)
from tempoguard import ingest
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


# The parser that rewrote a trailing Z or z before its one fromisoformat call,
# kept unchanged as an exact reference for every token, accepted or not.
def _rewrite_first_parse_timestamp(token: str) -> int:
    token = token.strip()
    if not token.isascii():  # int() and strptime also read other scripts' digits
        raise ValueError(f"unparseable timestamp {token!r}")
    if token.isdigit():
        ms = int(token)
    else:
        iso = token[:-1] + "+00:00" if token.endswith(("Z", "z")) else token
        try:
            dt = datetime.fromisoformat(iso)
        except ValueError:
            try:
                dt = datetime.strptime(token, "%m/%d/%Y %H:%M:%S")
            except ValueError:
                raise ValueError(f"unparseable timestamp {token!r}") from None
        if dt.tzinfo is None:
            dt = dt.replace(tzinfo=timezone.utc)
        ms = (dt - ingest.EPOCH_UTC) // ingest.ONE_MS
    if not 0 <= ms <= MAX_TIMESTAMP_MS:
        raise ValueError(f"timestamp {token!r} is {ingest._range_error(ms)}")
    return ms


def _two(low: int, high: int) -> st.SearchStrategy[str]:
    """A zero-padded two-digit field, a little past its valid range on both sides."""
    return st.integers(low, high).map("{:02d}".format)


_YEAR = st.one_of(st.integers(0, 9999).map("{:04d}".format), st.sampled_from(["1970", "9999"]))
# Extended and basic calendar dates and week dates, some out of range.
_DATE = st.one_of(
    st.tuples(_YEAR, _two(0, 13), _two(0, 32)).map("-".join),
    st.tuples(_YEAR, _two(0, 13), _two(0, 32)).map("".join),
    st.builds("{}-W{}-{}".format, _YEAR, _two(0, 54), st.integers(0, 8)),
    st.builds("{}W{}{}".format, _YEAR, _two(0, 54), st.integers(0, 8)),
)
_FRACTION = st.one_of(
    st.just(""),
    st.builds("{}{}".format, st.sampled_from(".,"), st.text("0123456789", max_size=9)),
)
_CLOCK = st.one_of(
    _two(0, 25),
    st.tuples(_two(0, 25), _two(0, 61)).map(":".join),
    st.tuples(_two(0, 25), _two(0, 61), _two(0, 61)).map(":".join),
    st.tuples(_two(0, 25), _two(0, 61), _two(0, 61)).map("".join),
)
_ZONE = st.one_of(
    st.sampled_from(["Z", "z"]),
    st.sampled_from(["", "+00:00", "-00:00", "ZZ", "Zz", "zZ"]),
    st.builds(
        "{}{}{}{}".format,
        st.sampled_from("+-"),
        _two(0, 25),
        st.sampled_from(["", ":"]),
        st.one_of(st.just(""), _two(0, 61)),
    ),
    st.builds("{}{}:{}Z".format, st.sampled_from("+-"), _two(0, 23), _two(0, 59)),
)
# A log's usual form: a date, a time and a zone.
_DATE_TIME = st.builds(
    "{}{}{}{}{}".format, _DATE, st.sampled_from("T "), _CLOCK, _FRACTION, _ZONE
)
_DATE_ONLY = st.builds("{}{}".format, _DATE, st.one_of(st.just(""), _ZONE))
_SLASHED = st.builds(
    "{}/{}/{} {}:{}:{}".format,
    st.integers(0, 13),
    st.integers(0, 32),
    _YEAR,
    _two(0, 25),
    _two(0, 61),
    _two(0, 61),
)
_TOKEN = st.builds(
    "{}{}{}".format,
    st.sampled_from(["", " ", "\t", "  "]),
    st.one_of(
        _DATE_TIME,
        _DATE_ONLY,
        _SLASHED,
        st.integers(0, 10**8 - 1).map("{:08d}".format),  # all digits: epoch ms, not a date
        st.integers(0, 10**16).map(str),
        st.text("0123456789-:+.,/TWZz ", max_size=30),
        # Digits of other scripts: Arabic-Indic, fullwidth and Devanagari.
        st.builds(
            "{}{}".format,
            st.sampled_from(["٢٠٢١", "２０２１", "२०२१", "2021"]),
            st.sampled_from(["-10-01T13:00:01Z", "١٠", "-10-01", ""]),
        ),
    ),
    st.sampled_from(["", " ", "\n", "\r\n"]),
)


def _outcome(parse, token: str):
    """parse(token), or the message of the ValueError it raises."""
    try:
        return parse(token)
    except ValueError as exc:
        return f"ValueError: {exc}"


@settings(max_examples=1000)
@given(token=_TOKEN)
@example(token="2021-10-01T13:00:01Z")
@example(token="2021-10-01T13:00:01z")
@example(token="2021-10-01T13:00:01.123456789Z")
@example(token="2021-10-01Z")
@example(token="20211101T000000Z")
@example(token="20211101")
@example(token="2021-W01-1T00:00:00Z")
@example(token="2021-10-01T13:00:01+01:00Z")
@example(token="10/1/2021 13:00:01")
@example(token="10/1/2021 13:00:01Z")
@example(token=" 1969-12-31T23:59:59.999Z ")
@example(token="9999-12-31T23:59:59.999-00:01")
@example(token="٢٠٢١-10-01T13:00:01Z")
def test_parse_timestamp_equals_the_rewrite_first_reference(token):
    assert _outcome(parse_timestamp, token) == _outcome(_rewrite_first_parse_timestamp, token)


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


def _utc_ms(year, month, day, hour=0, minute=0, second=0, ms=0) -> int:
    """Epoch milliseconds of a UTC time."""
    return calendar.timegm((year, month, day, hour, minute, second)) * 1000 + ms


@given(ms=st.integers(min_value=0, max_value=MAX_TIMESTAMP_MS))
@example(ms=0)
@example(ms=EPOCH_13_00_01)
@example(ms=EPOCH_13_00_01 + 1)
@example(ms=EPOCH_13_00_01 + 999)
@example(ms=MAX_TIMESTAMP_MS)
# The last and first millisecond of an hour, a day, a month and a year.
@example(ms=3_599_999)
@example(ms=3_600_000)
@example(ms=86_399_999)
@example(ms=86_400_000)
@example(ms=_utc_ms(2021, 10, 31, 23, 59, 59, ms=999))
@example(ms=_utc_ms(2021, 11, 1))
@example(ms=_utc_ms(1999, 12, 31, 23, 59, 59, ms=999))
@example(ms=_utc_ms(2000, 1, 1))
# Leap days: 2000 is a leap year, 2100 is not.
@example(ms=_utc_ms(2000, 2, 29, 12, 34, 56, ms=789))
@example(ms=_utc_ms(2000, 3, 1))
@example(ms=_utc_ms(2100, 2, 28, 23, 59, 59, ms=999))
@example(ms=_utc_ms(2100, 3, 1))
# A whole second past nonzero minutes and seconds: no fraction is written.
@example(ms=_utc_ms(2021, 10, 1, 13, 47, 59))
@example(ms=MAX_TIMESTAMP_MS - 3_600_000)
def test_format_timestamp_equals_the_strftime_reference(ms):
    assert format_timestamp(ms) == _strftime_format_timestamp(ms)


def test_format_timestamp_hour_cache_stays_within_its_bound():
    ingest._hour_prefix.cache_clear()
    hours = ingest.HOUR_CACHE_SIZE + 50
    # A time in each of `hours` distinct hours, then the first 50 again, evicted by then.
    times = [EPOCH_13_00_01 + h * 3_600_000 + h * 7_919 % 3_600_000 for h in range(hours)]
    for ms in times + times[:50]:
        assert format_timestamp(ms) == _strftime_format_timestamp(ms)
    info = ingest._hour_prefix.cache_info()
    assert info.misses == hours + 50
    assert info.currsize == info.maxsize == ingest.HOUR_CACHE_SIZE


@pytest.mark.parametrize(
    "ms", [1.5, 1000.0, Fraction(3, 2), Decimal("1000"), True, False], ids=repr
)
def test_format_timestamp_rejects_a_time_that_is_not_an_integer(ms):
    message = f"timestamp {ms!r} ms is not an integer"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        format_timestamp(ms)
    # So no writer meets one: an Event cannot hold it.
    message = f"Event.timestamp_ms must be an int >= 0, not {ms!r}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        Event(ms, key("A"))


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
        "2021-10-01T13:00:04Z,X9,idle\n"
    )
    events = parse_log(text)
    assert [e.key.attribute for e in events] == ["motion", "contact", "switch", "state"]
    assert parse_log(text + "2021-10-01T13:00:05Z,X9,74\n") == events  # a reading is dropped


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


@pytest.mark.parametrize("name", ["M\r1", "M\r\n1", "M\n1"])
def test_csv_round_trip_keeps_a_line_break_inside_a_field(name):
    events = [Event(1000, EventKey(name, "motion", "active"))]
    text = serialize_log(events, "csv")
    assert text == f'timestamp,device,attribute,value\n1970-01-01T00:00:01Z,"{name}",motion,active\n'
    assert parse_log(text) == events


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
        lambda ts, device, attribute, state: Event(ts, EventKey(device, attribute, state)),
        st.integers(min_value=0, max_value=4 * 10**12),
        _NAMES,
        _NAMES,
        _NAMES,
    ),
    max_size=8,
).map(lambda events: sorted(events, key=lambda e: e.timestamp_ms))


def _discrete(events: list[Event]) -> list[Event]:
    """The events that are not numeric readings, which the readers drop."""
    return [e for e in events if not is_numeric_value(e.key.state)]


@given(events=_LOGS)
@example(events=[Event(1000, EventKey("M1", "motion", "0"))])
def test_csv_round_trip_keeps_awkward_names(events):
    assert parse_log(serialize_log(events, "csv")) == _discrete(events)


@given(events=_LOGS)
@example(events=[Event(1000, EventKey("M1", "motion", "0"))])
def test_jsonl_round_trip_keeps_awkward_names(events):
    assert parse_log_jsonl(serialize_log(events, "jsonl")) == _discrete(events)


# The writers as they were before they reused each key's encoded text, kept as
# exact references: json.dumps and csv.writer over every full object and row.
def _event_object(event: Event) -> dict:
    return {
        "timestamp": format_timestamp(event.timestamp_ms),
        "device": event.key.device,
        "attribute": event.key.attribute,
        "value": event.key.state,
    }


def _json_dumps_instances(instances: list[ActivityInstance]) -> str:
    return "".join(
        json.dumps(
            {
                "source_id": inst.source_id,
                "label": inst.label,
                "events": [_event_object(e) for e in inst.events],
            }
        )
        + "\n"
        for inst in instances
    )


def _json_dumps_log(events: list[Event]) -> str:
    return "".join(json.dumps(_event_object(e)) + "\n" for e in events)


def _csv_writer_log(events: list[Event]) -> str:
    """csv.writer's text for each whole row, terminated by CR LF so that a field holding
    a CR is quoted, each row then ended by LF instead."""
    rows = [("timestamp", "device", "attribute", "value")]
    rows += [
        (format_timestamp(e.timestamp_ms), e.key.device, e.key.attribute, e.key.state)
        for e in events
    ]
    text = ""
    for row in rows:
        out = io.StringIO()
        csv.writer(out, lineterminator="\r\n").writerow(row)
        text += out.getvalue().removesuffix("\r\n") + "\n"
    return text


# Text the writers must escape or quote: JSON and CSV specials, whitespace at
# either end, non-ASCII, line and paragraph separators, control characters.
_HOSTILE = st.text(
    alphabet=st.one_of(
        st.sampled_from('"\\,\n\r\t é漢ü\u2028\u2029\u0085\x00\x1f\x7f'), st.characters()
    ),
    max_size=8,
)
_KEY_FIELDS = _HOSTILE.filter(bool)  # EventKey fields are non-empty


_HOSTILE_KEY = st.builds(EventKey, _KEY_FIELDS, _KEY_FIELDS, _KEY_FIELDS)


def _events_from(keys: list[EventKey]):
    """Time-ordered events that share a few keys, as one writer call sees."""
    event = st.builds(
        Event, st.integers(min_value=0, max_value=MAX_TIMESTAMP_MS), st.sampled_from(keys)
    )
    return st.lists(event, min_size=1, max_size=10).map(
        lambda events: sorted(events, key=lambda e: e.timestamp_ms)
    )


_KEYS = st.lists(_HOSTILE_KEY, min_size=1, max_size=4)
_HOSTILE_LOGS = _KEYS.flatmap(_events_from)
_HOSTILE_INSTANCES = _KEYS.flatmap(
    lambda keys: st.lists(
        st.builds(
            ActivityInstance, _events_from(keys), st.sampled_from(sorted(VALID_LABELS)), _HOSTILE
        ),
        max_size=4,
    )
)
# One device and attribute in two states: an encoding cached by (device, attribute)
# would repeat the first state.
_ONE_SENSOR_TWO_STATES = [
    Event(0, EventKey("A", "sensor", "on")),
    Event(1000, EventKey("A", "sensor", "56.0")),
]


@given(instances=_HOSTILE_INSTANCES)
@example(instances=[make_instance("AB", source_id='seg "1"'), make_instance("BA")])
@example(instances=[ActivityInstance(tuple(_ONE_SENSOR_TWO_STATES))])
def test_instances_to_jsonl_equals_json_dumps_of_each_instance(instances):
    assert instances_to_jsonl(instances) == _json_dumps_instances(instances)


@given(events=_HOSTILE_LOGS)
@example(events=_ONE_SENSOR_TWO_STATES)
def test_jsonl_log_equals_json_dumps_of_each_event(events):
    assert serialize_log(events, "jsonl") == _json_dumps_log(events)


@given(events=_HOSTILE_LOGS)
@example(events=_ONE_SENSOR_TWO_STATES)
def test_csv_log_equals_csv_writer_over_the_full_rows(events):
    assert serialize_log(events, "csv") == _csv_writer_log(events)


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
    out = [Event(ts, key("A"))]
    for gap in gaps:
        ts += gap
        out.append(Event(ts, key("B")))
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
    parts = segment(events, RunConfig(gap_seconds=120))
    assert [len(p.events) for p in parts] == [2]


def test_segment_assigns_sequential_source_ids():
    events = _events(1000, 200_000, 1000, 200_000, 1000)
    parts = segment(events)
    assert [p.source_id for p in parts] == ["seg-0000", "seg-0001", "seg-0002"]
    assert all(p.label == LABEL_UNLABELED for p in parts)


def test_segment_rejects_unordered_events():
    events = [Event(2000, key("A")), Event(1000, key("B"))]
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
    events = _events(1000, 200_000, 1000) + [Event(1000, key("A"))]
    with pytest.raises(ValueError, match="^events must be time-ordered before segmentation$"):
        segment(events)


@given(
    start=st.integers(min_value=0, max_value=5000),
    gaps=st.lists(st.integers(min_value=0, max_value=3000), max_size=30),
    gap_seconds=st.sampled_from([0.001, 1.0, 2.5]),
)
def test_segment_builds_each_instance_as_its_constructor_would(start, gaps, gap_seconds):
    events = [Event(start, key("A"))]
    for n, gap in enumerate(gaps):  # a gap of 0 gives two events one timestamp
        events.append(Event(events[-1].timestamp_ms + gap, key("AB"[n % 2])))
    cfg = RunConfig(gap_seconds=gap_seconds)
    runs = [[events[0]]]
    for a, b in zip(events, events[1:]):
        if b.timestamp_ms - a.timestamp_ms >= cfg.gap_ms:
            runs.append([])
        runs[-1].append(b)
    parts = segment(events, cfg)
    expected = [tuple(run) for run in runs if len(run) >= MIN_ACTIVITY_EVENTS]
    assert [inst.events for inst in parts] == expected
    for n, inst in enumerate(parts):
        assert type(inst) is ActivityInstance
        assert inst == ActivityInstance(*inst)
        assert inst.source_id == f"seg-{n:04d}"
    assert segment([], cfg) == []


_BURST_KEYS = [key("A"), key("B"), EventKey("M1", "motion", "active")]
# A reading's value as the log writes it: CSV text, or JSON (a number, or a numeric string).
_CSV_READINGS = st.sampled_from(["21.5", "74", "-0", "nan", "1e400", "-inf", " 1_000 "])
_JSON_READINGS = st.sampled_from(
    ["21", "21.5", "-0", "1e400", "NaN", "-Infinity", '"-0"', '"nan"', '"21.5"']
)


def _reading_line(fmt: str, ms: int, value: str) -> str:
    if fmt == "csv":
        return f"{format_timestamp(ms)},T1,temperature,{value}\n"
    head = '{"timestamp": "%s", "device": "T1", "attribute": "temperature", "value": ' % (
        format_timestamp(ms)
    )
    return head + value + "}\n"


@given(
    times=st.lists(st.integers(min_value=0, max_value=900_000), min_size=1, max_size=12),
    steps=st.lists(st.sampled_from(_BURST_KEYS), min_size=12, max_size=12),
    fmt=st.sampled_from(["csv", "jsonl"]),
    readings=st.data(),
)
def test_inserting_numeric_readings_leaves_the_segments_as_they_are(times, steps, fmt, readings):
    clean = [Event(ms, k) for ms, k in zip(sorted(times), steps)]
    lines = serialize_log(clean, fmt).splitlines(keepends=True)
    values = _CSV_READINGS if fmt == "csv" else _JSON_READINGS
    for _ in range(readings.draw(st.integers(min_value=1, max_value=12))):
        ms = readings.draw(st.integers(min_value=0, max_value=900_000))
        at = readings.draw(st.integers(min_value=fmt == "csv", max_value=len(lines)))
        lines.insert(at, _reading_line(fmt, ms, readings.draw(values)))
    parse = parse_log if fmt == "csv" else parse_log_jsonl
    cfg = RunConfig(gap_seconds=120)
    assert parse("".join(lines)) == clean
    assert segment(parse("".join(lines)), cfg) == segment(clean, cfg)


def test_one_event_among_readings_is_below_the_minimum_segment_length():
    text = (
        "timestamp,device,attribute,value\n"
        "1000,M1,motion,active\n2000,T1,temperature,21.5\n3000,T1,temperature,21.6\n"
        "3600000,M1,motion,active\n3601000,L1,switch,on\n"
    )
    (only,) = segment(parse_log(text))
    assert [e.timestamp_ms for e in only.events] == [3_600_000, 3_601_000]


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


def test_an_instance_of_readings_alone_is_dropped_but_its_label_is_checked():
    reading = '{"timestamp": 1000, "device": "T1", "attribute": "temperature", "value": 21.5}'
    line = '{"label": "%s", "events": [%s]}\n'
    assert instances_from_jsonl(line % ("normal", reading)) == []
    for events in (reading, _EVENT):
        with pytest.raises(ValueError, match="^line 1: unknown label 'bogus'$"):
            instances_from_jsonl(line % ("bogus", events))


@pytest.mark.parametrize(
    "flag, message",
    [
        ("--gap-seconds=0", "gap_seconds must be over 0.0005"),
    ],
    ids=["gap_seconds"],
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


def test_jsonl_number_value_is_a_reading_and_is_dropped():
    line = '{"timestamp": %d, "device": "T1", "attribute": "temperature", "value": %s}'
    numbers = ["21", "21.5", "-0", "1e400", "NaN", "-Infinity"]
    lines = [line % (1000 * n, number) for n, number in enumerate(numbers, start=1)]
    lines.append(line % (9000, '"on"'))
    assert parse_log_jsonl("\n".join(lines)) == [Event(9000, EventKey("T1", "temperature", "on"))]
    message = "^line 1: 'value' must be a string or a number, not true$"
    with pytest.raises(ValueError, match=message):
        parse_log_jsonl(line % (1000, "true"))


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


# The readers as they were before they looked up each row's tail: every row through
# csv.reader or _json_lines, then the same checks. Kept verbatim but for dropping a
# numeric reading, with Event's checked constructor, as the reference the tail lookups
# must equal.
def _reference_row_to_event(fields: list[str], legacy: bool, lineno: int, keys: dict) -> Event:
    expected = 3 if legacy else 4
    if len(fields) != expected or "" in fields:
        raise ValueError(f"line {lineno}: expected {expected} non-empty columns, got {fields!r}")
    try:
        ts = parse_timestamp(fields[0])
    except ValueError as exc:
        raise ValueError(f"line {lineno}: {exc}") from None
    if legacy:
        _, device, value = fields
        attribute = ingest.ATTRIBUTE_FOR_VALUE.get(value, "state")
    else:
        _, device, attribute, value = fields
    key = keys.get((device, attribute, value))
    if key is None:
        key = ingest._interned(keys, device, attribute, value)
    return None if key is None else Event(ts, key)  # a numeric reading is dropped


def _reference_parse_log(source) -> list[Event]:
    reader = csv.reader(io.StringIO(source) if isinstance(source, str) else source)
    events: list[Event] = []
    keys: dict = {}
    header = None
    legacy = False
    try:
        for fields in reader:
            lineno = reader.line_num
            fields = [f.strip() for f in fields]
            if not any(fields):
                continue
            if header is None:
                header = tuple(f.lower() for f in fields)
                if header == ingest.LOG_HEADER:
                    legacy = False
                elif header == ingest.LEGACY_HEADER:
                    legacy = True
                else:
                    raise ValueError(
                        f"line {lineno}: expected header {','.join(ingest.LOG_HEADER)} "
                        f"(or legacy {','.join(ingest.LEGACY_HEADER)}), got {','.join(header)}"
                    )
                continue
            if (event := _reference_row_to_event(fields, legacy, lineno, keys)) is not None:
                events.append(event)
    except csv.Error as exc:
        raise ValueError(f"line {reader.line_num}: {exc}") from None
    if header is None:
        raise ValueError("empty log: header row required")
    events.sort(key=lambda e: e.timestamp_ms)
    return events


def _reference_parse_log_jsonl(source) -> list[Event]:
    events: list[Event] = []
    keys: dict = {}
    for lineno, obj in _json_lines(source):
        try:
            event = ingest._event_from_obj(obj, keys)
        except ValueError as exc:
            raise ValueError(f"line {lineno}: {exc}") from None
        if event is not None:  # a numeric reading is dropped
            events.append(Event(*event))
    events.sort(key=lambda e: e.timestamp_ms)
    return events


def _events_or_error(parse, source):
    try:
        events = parse(source)
    except ValueError as exc:
        return str(exc)
    assert all(type(e) is Event and e == Event(*e) for e in events)
    return events


def _rows(good_times, good_tails, times, tails, others):
    """Rows of a timestamp field and a tail drawn from small pools, so that tails repeat.

    Most rows are drawn from the pools that read as events, so that a log
    gets far before its first error; the rest come from every pool.
    """
    good = st.builds(operator.add, good_times, good_tails)
    hostile = st.one_of(st.builds(operator.add, times, tails), others)
    return st.lists(st.one_of(good, good, good, hostile), max_size=12)


_INTEGER_TIMES = st.integers(min_value=0, max_value=4 * 10**12).map(str)
# A CSV timestamp field and its comma. Quoted fields read as events too, one of them
# holding the first comma of its line, which a valid ISO time may hold.
_CSV_GOOD_TIMES = st.one_of(
    _INTEGER_TIMES,
    st.sampled_from(
        ["2021-10-01T13:00:01.250Z", " 2000 ", '"3000"', '"2021-10-01T13:00:01,250Z"']
    ),
).map(lambda ts: ts + ",")
# Blank, holding a line break or a quote that csv reads otherwise, out of range, or no time.
_CSV_TIMES = st.one_of(
    _CSV_GOOD_TIMES,
    st.sampled_from(
        ["", "  \t", '"40\n00"', "10\r00", "1000\r", '10"00', "1000\n ", "99999999999999999",
         "1969-12-31T23:59:59Z", "yesterday"]
    ).map(lambda ts: ts + ","),
)  # fmt: skip
# What follows the first comma. The line break is part of the tail, and a quoted field
# may hold a line break or pull the next line into the row.
_CSV_GOOD_TAILS = st.sampled_from(
    ["M1,motion,active\n", "M1,motion,active\r\n", "L1,switch,on\n", " M1 , motion,active \n",
     '"M1",motion,active\n', 'M1,"mo,tion","act""ive"\n', '"M\n1",motion,active\n',
     'M1,motion,"act\nive"\n', '250Z",M1,motion,active\n', "T1,temperature,21.5\n",
     "T1,-0\n"]
)  # fmt: skip
_CSV_TAILS = st.one_of(
    _CSV_GOOD_TAILS,
    st.sampled_from(
        ["M1,mo\rtion,active\n", "M1,motion\n", "M1,active\n", "M1,motion,active,x\n",
         "M1,,active\n", ",,\n", "M1,motion,active"]
    ),
)  # fmt: skip
_CSV_ROWS = _rows(
    _CSV_GOOD_TIMES,
    _CSV_GOOD_TAILS,
    _CSV_TIMES,
    _CSV_TAILS,
    st.sampled_from(["\n", "  \n", "1000\n", ",,,\n"]),
)
_CSV_HEADER_ROWS = st.sampled_from(
    ["timestamp,device,attribute,value\n", " Timestamp , device,attribute ,value\n",
     "timestamp,device,value\n"]
)  # fmt: skip
_HEADER = "timestamp,device,attribute,value\n"


@given(
    before=st.lists(st.sampled_from(["\n", " , \n", "1000,M1,motion,active\n"]), max_size=2),
    header=_CSV_HEADER_ROWS,
    rows=_CSV_ROWS,
    lines=st.sampled_from(["text", "universal", "rows"]),
)
@example(before=[], header=_HEADER, lines="text",
         rows=["1000,M1,motion,active\n", '"40\n00",M1,motion,active\n'])
@example(before=[], header=_HEADER, lines="text",
         rows=["1000,M1,motion,active\n", "  ,M1,motion,active\n"])
@example(before=[], header=_HEADER, lines="text",
         rows=["1000,M1,motion,active\r\n", "1000\r,M1,motion,active\r\n"])
@example(before=[], header=_HEADER, lines="rows",
         rows=["1000,M1,motion,active\n", "1000\n ,M1,motion,active\n"])
@example(before=[], header=_HEADER, lines="text",
         rows=['"2021-10-01T13:00:01,250Z",M1,motion,active\n', '1000,250Z",M1,motion,active\n'])
@example(before=[], header=_HEADER, lines="text",
         rows=['1000,"M\n1",motion,active\n', '2000,"M\n1",motion,active\n'])
@example(before=[], header=_HEADER, lines="text", rows=['1000,"M\n1",mo\rtion,active\n'])
def test_parse_log_equals_the_reference_reader(before, header, rows, lines):
    text = "".join(before) + header + "".join(rows)
    # The text itself, whose lines end at LF only; the lines an open file gives; or each
    # drawn row as one item, which csv reads as one line even where it holds a line break.
    if lines == "text":
        source = text
    elif lines == "universal":
        source = list(io.StringIO(text, newline=None))
    else:
        source = before + [header] + rows
    expected = _events_or_error(_reference_parse_log, source)
    assert _events_or_error(parse_log, source) == expected


# A JSON timestamp string's text and its closing quote: plain, escaped or written as
# JSON allows; holding a control character, which JSON forbids; out of range; no time.
_JSON_GOOD_TIMES = st.one_of(
    _INTEGER_TIMES,
    st.sampled_from(["2021-10-01T13:00:01.250Z", "2021-10-01T13:00:01z", "\\u0031000"]),
).map(lambda ts: '{"timestamp": "' + ts + '"')
_JSON_TIMES = st.one_of(
    _JSON_GOOD_TIMES,
    st.sampled_from(
        ["", " ", '10\\"00', "\\\\", "\x01", "\t1000", "99999999999999999", "１０００",
         "yesterday"]
    ).map(lambda ts: '{"timestamp": "' + ts + '"'),
)
_FIELDS_TEXT = '"device": "M1", "attribute": "motion", "value": "active"'
# What follows the timestamp string: a second "timestamp", plain or escaped, wins.
_JSON_GOOD_TAILS = st.sampled_from(
    [
        ", %s}" % _FIELDS_TEXT,
        ', "device": "L1", "attribute": "switch", "value": "on"}',
        ',"device":"M1","attribute":"motion","value":"active"}',
        " , %s}" % _FIELDS_TEXT,
        ", %s}  " % _FIELDS_TEXT,
        ', %s, "timestamp": "5000"}' % _FIELDS_TEXT,
        ', %s, "t\\u0069mestamp": 5000}' % _FIELDS_TEXT,
        ', "device": "M\\u00e91", "attribute": "motion", "value": "active"}',
        ' , "device": "M\\u00e91", "attribute": "motion", "value": "active"}',
        ', "device": "timestamp", "attribute": "motion", "value": 21.5}',
        ', "device": "M1", "device": "M2", "attribute": "motion", "value": "on"}',
    ]
).flatmap(lambda tail: st.sampled_from([tail + "\n", tail + "\r\n"]))
_JSON_TAILS = st.one_of(
    _JSON_GOOD_TAILS,
    st.sampled_from(
        ["}\n", ", %s} x\n" % _FIELDS_TEXT, ", %s}{}\n" % _FIELDS_TEXT, ", %s}" % _FIELDS_TEXT,
         ', "device": "M1", "attribute": "motion"}\n',
         ', "device": ["M1"], "attribute": "motion", "value": "on"}\n']
    ),
)  # fmt: skip
_JSON_ROWS = _rows(
    _JSON_GOOD_TIMES,
    _JSON_GOOD_TAILS,
    _JSON_TIMES,
    _JSON_TAILS,
    st.sampled_from(
        [
            "\n",
            "  \n",
            '{%s, "timestamp": "1000"}\n' % _FIELDS_TEXT,
            '{"timestamp": 1000, %s}\n' % _FIELDS_TEXT,
            ' {"timestamp": "1000", %s}\n' % _FIELDS_TEXT,
            '\ufeff{"timestamp": "1000", %s}\n' % _FIELDS_TEXT,
            '{"timestamp": "1000\n',
        ]
    ),
)


@given(rows=_JSON_ROWS)
@example(rows=['{"timestamp": "1000", %s}\n' % _FIELDS_TEXT,
               '{"timestamp": "2000", %s, "timestamp": "5000"}\n' % _FIELDS_TEXT,
               '{"timestamp": "3000", %s, "timestamp": "5000"}\n' % _FIELDS_TEXT])
@example(rows=['{"timestamp": "1000", %s}\n' % _FIELDS_TEXT,
               '{"timestamp": "\\u0031000", %s}\n' % _FIELDS_TEXT,
               '{"timestamp": " ", %s}\n' % _FIELDS_TEXT])
@example(rows=['{"timestamp": "1000", %s}\n' % _FIELDS_TEXT,
               '{"timestamp": "\t2000", %s}\n' % _FIELDS_TEXT])
@example(rows=['{"timestamp": "%d", %s, "t\\u0069mestamp": 5000}\n' % (ts, _FIELDS_TEXT)
               for ts in (1000, 2000)])
def test_parse_log_jsonl_equals_the_reference_reader(rows):
    text = "".join(rows)
    expected = _events_or_error(_reference_parse_log_jsonl, text)
    assert _events_or_error(parse_log_jsonl, text) == expected


def _counting(monkeypatch, name: str) -> list[int]:
    """Count the calls to ingest's function `name` for the rest of the test."""
    calls = [0]
    inner = getattr(ingest, name)

    def counted(*args):
        calls[0] += 1
        return inner(*args)

    monkeypatch.setattr(ingest, name, counted)
    return calls


@pytest.mark.parametrize(
    "fmt, parse, general", [("csv", parse_log, "_row_to_event"),
                            ("jsonl", parse_log_jsonl, "_event_from_obj")]
)  # fmt: skip
def test_a_repeated_tail_skips_the_general_path(monkeypatch, fmt, parse, general):
    """Only the first row of each distinct tail goes through csv or JSON decoding.

    A numeric reading's tail is kept too, so a repeated reading skips it as well.
    """
    keys = [key("A"), key("B"), EventKey("T1", "temperature", "21.5")]
    events = [Event(1000 * n, keys[n % 3]) for n in range(1000)]
    text = serialize_log(events, fmt)
    calls = _counting(monkeypatch, general)
    assert parse(text) == _discrete(events)
    assert calls[0] == 3


def test_parse_log_holds_a_repeated_tail_to_the_csv_field_limit():
    text = "timestamp,device,attribute,value\n1000,M1,motion,active\n0000002000,M1,motion,active\n"
    limit = csv.field_size_limit(9)  # the header's longest field, "timestamp", fits
    try:
        with pytest.raises(ValueError, match=r"^line 3: field larger than field limit \(9\)$"):
            parse_log(text)
    finally:
        csv.field_size_limit(limit)


def test_parse_log_drops_one_byte_order_mark_before_the_header():
    assert parse_log("\ufeff" + SAMPLE_LOG) == parse_log(SAMPLE_LOG)
    with pytest.raises(ValueError, match="^line 1: expected header"):
        parse_log("\ufeff\ufeff" + SAMPLE_LOG)
    with pytest.raises(ValueError, match="^line 2: expected header"):
        parse_log("\n\ufeff" + SAMPLE_LOG)
