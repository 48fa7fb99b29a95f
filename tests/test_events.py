from __future__ import annotations

import math
import pickle

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import key, make_instance
from tempoguard.events import (
    ActivityInstance,
    ActivityPattern,
    Event,
    EventKey,
    LABEL_ANOMALY_SEQ,
    LABEL_NORMAL,
    intervals,
    is_numeric_value,
    json_records,
    json_value,
    with_label,
)


def test_event_key_rejects_empty_fields():
    with pytest.raises(ValueError):
        EventKey(device="", attribute="motion", state="active")
    with pytest.raises(ValueError):
        EventKey(device="M1", attribute="", state="active")


def test_event_rejects_negative_timestamp():
    with pytest.raises(ValueError):
        Event(timestamp_ms=-1, key=key("A"), raw_value="on")


# Small alphabets, so equal and empty values turn up often.
_names = st.text(alphabet="ab", max_size=2)
_triples = st.tuples(_names, _names, _names)
_keys = st.builds(EventKey, *(st.text(alphabet="ab", min_size=1, max_size=2) for _ in range(3)))
_event_fields = st.tuples(st.integers(min_value=-2, max_value=2), _keys, _names)


@given(a=_triples, b=_triples)
def test_event_key_is_its_three_checked_strings(a, b):
    if not all(a):
        with pytest.raises(ValueError, match="must be non-empty"):
            EventKey(*a)
        return
    k = EventKey(*a)
    assert k == EventKey(device=a[0], attribute=a[1], state=a[2])
    assert (k.device, k.attribute, k.state) == a
    assert k == a and hash(k) == hash(a)  # equal to, and hashed as, the plain triple
    if all(b):
        other = EventKey(*b)
        assert (k == other) == (a == b)
        assert (k < other) == (a < b)
        if a == b:
            assert hash(k) == hash(other)
    with pytest.raises(AttributeError):
        k.device = "c"
    with pytest.raises(AttributeError):
        k.extra = "c"
    assert pickle.loads(pickle.dumps(k)) == k


@given(a=_event_fields, b=_event_fields)
def test_event_is_its_three_checked_fields(a, b):
    if a[0] < 0:
        with pytest.raises(ValueError, match="timestamp_ms must be >= 0"):
            Event(*a)
        return
    e = Event(*a)
    assert e == Event(timestamp_ms=a[0], key=a[1], raw_value=a[2])
    assert (e.timestamp_ms, e.key, e.raw_value) == a
    if b[0] >= 0:
        other = Event(*b)
        assert (e == other) == (a == b)
        if a == b:
            assert hash(e) == hash(other)
    with pytest.raises(AttributeError):
        e.timestamp_ms = 0
    with pytest.raises(AttributeError):
        e.extra = 0


def test_replace_checks_like_construction():
    with pytest.raises(ValueError, match="EventKey.state must be non-empty"):
        key("A")._replace(state="")
    with pytest.raises(ValueError, match="timestamp_ms must be >= 0"):
        Event(1000, key("A"), "on")._replace(timestamp_ms=-1)
    assert Event(1000, key("A"), "on")._replace(raw_value="off") == Event(1000, key("A"), "off")


@given(keys=st.lists(_keys, min_size=1, max_size=8))
def test_key_numbering_equals_the_string_triple_numbering(keys):
    pattern = ActivityPattern("p", tuple(keys), (0.0,) * (len(keys) - 1), 1)
    triples: dict[tuple[str, str, str], int] = {}
    for k in keys:
        triples.setdefault((k.device, k.attribute, k.state), len(triples))
    assert [tuple(k) for k in pattern.key_numbering] == list(triples)
    assert list(pattern.key_numbering.values()) == list(triples.values())
    assert pattern.key_codes == tuple(triples[(k.device, k.attribute, k.state)] for k in keys)


def test_instance_rejects_empty_event_list():
    with pytest.raises(ValueError):
        ActivityInstance(events=())


def test_instance_rejects_decreasing_timestamps():
    events = (Event(2000, key("A"), "on"), Event(1000, key("B"), "on"))
    with pytest.raises(ValueError):
        ActivityInstance(events=events)


def test_instance_allows_equal_timestamps():
    events = (Event(1000, key("A"), "on"), Event(1000, key("B"), "on"))
    assert len(ActivityInstance(events=events).events) == 2


def test_instance_rejects_unknown_label():
    with pytest.raises(ValueError):
        make_instance("AB", label="suspicious")


def test_instance_coerces_event_list_to_tuple():
    events = [Event(1000, key("A"), "on"), Event(2000, key("B"), "on")]
    inst = ActivityInstance(events=events)
    assert isinstance(inst.events, tuple)


def test_key_sequence_lists_keys_in_order():
    assert make_instance("ABC").key_sequence() == (key("A"), key("B"), key("C"))


def test_pattern_rejects_wrong_mean_count():
    with pytest.raises(ValueError):
        ActivityPattern(
            name="p", keys=(key("A"), key("B")), mean_intervals_ms=(1.0, 2.0), support=1
        )


def test_pattern_rejects_empty_keys():
    with pytest.raises(ValueError):
        ActivityPattern(name="p", keys=(), mean_intervals_ms=(), support=1)


def test_pattern_rejects_zero_support():
    with pytest.raises(ValueError):
        ActivityPattern(name="p", keys=(key("A"),), mean_intervals_ms=(), support=0)


def test_pattern_rejects_negative_means():
    with pytest.raises(ValueError):
        ActivityPattern(
            name="p", keys=(key("A"), key("B")), mean_intervals_ms=(-5.0,), support=1
        )


@pytest.mark.parametrize("mean", [math.inf, math.nan])
def test_pattern_rejects_non_finite_means(mean):
    with pytest.raises(ValueError, match="^mean_intervals_ms must be finite and non-negative$"):
        ActivityPattern(name="p", keys=(key("A"), key("B")), mean_intervals_ms=(mean,), support=1)


def test_intervals_of_known_instance():
    inst = make_instance("ABC", [1000, 58000])
    assert intervals(inst) == (1000, 58000)


@given(
    gaps=st.lists(st.integers(min_value=0, max_value=10**7), min_size=1, max_size=8),
    shift=st.integers(min_value=0, max_value=10**9),
)
def test_intervals_are_translation_invariant(gaps, shift):
    letters = "ABCDEFGHI"[: len(gaps) + 1]
    assert intervals(make_instance(letters, gaps, t0=1000)) == intervals(
        make_instance(letters, gaps, t0=1000 + shift)
    )


@given(gaps=st.lists(st.integers(min_value=0, max_value=10**7), min_size=1, max_size=8))
def test_intervals_sum_to_total_elapsed_time(gaps):
    inst = make_instance("ABCDEFGHI"[: len(gaps) + 1], gaps)
    assert sum(intervals(inst)) == inst.events[-1].timestamp_ms - inst.events[0].timestamp_ms


def test_with_label_changes_only_the_label():
    inst = make_instance("AB", label=LABEL_NORMAL, source_id="seg-0001")
    relabeled = with_label(inst, LABEL_ANOMALY_SEQ)
    assert relabeled.label == LABEL_ANOMALY_SEQ
    assert relabeled.events == inst.events
    assert relabeled.source_id == inst.source_id
    assert inst.label == LABEL_NORMAL


def test_is_numeric_value_spots_measurements_not_states():
    assert is_numeric_value("21.5")
    assert is_numeric_value("42")
    assert not is_numeric_value("active")
    assert not is_numeric_value("on")


def test_json_value_message_survives_a_value_too_deep_to_encode():
    deep: list = []
    for _ in range(10_000):
        deep = [deep]
    with pytest.raises(ValueError, match="^'device' must be a string, not a value nested too deeply"):
        json_value(deep, str, "'device'")


@pytest.mark.parametrize(
    "text, message",
    [
        ("[", "model file: invalid JSON (Expecting value: line 1 column 2 (char 1))"),
        ("[" * 100_000 + "]" * 100_000, "model file: invalid JSON (maximum recursion depth exceeded"),
    ],
    ids=["truncated", "nested-too-deeply"],
)
def test_json_records_names_the_file_it_cannot_parse(text, message):
    with pytest.raises(ValueError) as info:
        json_records(text, "model", dict)
    assert str(info.value).startswith(message)
