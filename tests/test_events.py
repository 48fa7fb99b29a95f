from __future__ import annotations

import math
import pickle
import re

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
    MAX_TIMESTAMP_MS,
    intervals,
    is_numeric_value,
    json_records,
    json_value,
    require_labeled,
)


def test_event_key_rejects_empty_fields():
    with pytest.raises(ValueError):
        EventKey(device="", attribute="motion", state="active")
    with pytest.raises(ValueError):
        EventKey(device="M1", attribute="", state="active")


def test_event_rejects_negative_timestamp():
    with pytest.raises(ValueError):
        Event(timestamp_ms=-1, key=key("A"))


# A float time is checked with format_timestamp's cases in test_ingest.
@pytest.mark.parametrize("ms", [True, False, "1000", None], ids=repr)
def test_event_rejects_a_time_that_is_not_an_int(ms):
    message = f"Event.timestamp_ms must be an int >= 0, not {ms!r}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        Event(ms, key("A"))


# Small alphabets, so equal and empty values turn up often.
_names = st.text(alphabet="ab", max_size=2)
_triples = st.tuples(_names, _names, _names)
_keys = st.builds(EventKey, *(st.text(alphabet="ab", min_size=1, max_size=2) for _ in range(3)))
_event_fields = st.tuples(st.integers(min_value=-2, max_value=2), _keys)


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
def test_event_is_its_two_checked_fields(a, b):
    if a[0] < 0:
        with pytest.raises(ValueError, match="timestamp_ms must be an int >= 0"):
            Event(*a)
        return
    e = Event(*a)
    assert e == Event(timestamp_ms=a[0], key=a[1])
    assert (e.timestamp_ms, e.key) == a and Event._fields == ("timestamp_ms", "key")
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
    with pytest.raises(ValueError, match="timestamp_ms must be an int >= 0"):
        Event(1000, key("A"))._replace(timestamp_ms=-1)
    assert Event(1000, key("A"))._replace(key=key("B")) == Event(1000, key("B"))


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
    events = (Event(2000, key("A")), Event(1000, key("B")))
    with pytest.raises(ValueError):
        ActivityInstance(events=events)


def test_instance_allows_equal_timestamps():
    events = (Event(1000, key("A")), Event(1000, key("B")))
    assert len(ActivityInstance(events=events).events) == 2


def test_instance_rejects_unknown_label():
    with pytest.raises(ValueError):
        make_instance("AB", label="suspicious")


@pytest.mark.parametrize("source_id", [5, None, b"seg-0001"])
def test_instance_rejects_a_source_id_that_is_not_a_string(source_id):
    with pytest.raises(ValueError, match="^source_id must be a string, not "):
        make_instance("AB", source_id=source_id)
    with pytest.raises(ValueError, match="^source_id must be a string, not "):
        make_instance("AB")._replace(source_id=source_id)


def test_instance_coerces_event_list_to_tuple():
    events = [Event(1000, key("A")), Event(2000, key("B"))]
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


def _three_step_pattern(means: tuple[float, float]) -> ActivityPattern:
    return ActivityPattern(
        name="p", keys=(key("A"), key("B"), key("C")), mean_intervals_ms=means, support=1
    )


@pytest.mark.parametrize("means", [(1e308, 1e308), (MAX_TIMESTAMP_MS, 1.0)])
def test_pattern_rejects_means_longer_than_any_log(means):
    message = f"^mean_intervals_ms must sum to at most {MAX_TIMESTAMP_MS} ms$"
    with pytest.raises(ValueError, match=message):
        _three_step_pattern(means)


def test_pattern_accepts_means_that_sum_to_the_longest_log():
    means = (MAX_TIMESTAMP_MS - 1000.0, 1000.0)
    assert _three_step_pattern(means).mean_intervals_ms == means


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


def test_replace_label_changes_only_the_label():
    inst = make_instance("AB", label=LABEL_NORMAL, source_id="seg-0001")
    relabeled = inst._replace(label=LABEL_ANOMALY_SEQ)
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
        json_records(text, "model", dict, "activity")
    assert str(info.value).startswith(message)


def test_require_labeled_rejects_an_empty_set_then_the_first_unlabeled_instance():
    with pytest.raises(ValueError, match="^test set is empty$"):
        require_labeled([], "test")
    labeled = [make_instance("AB", label=LABEL_NORMAL, source_id="a")]
    labeled += [make_instance("AB", source_id=s) for s in ("b", "c")]
    with pytest.raises(ValueError, match="^unlabeled instance 'b' in training set$"):
        require_labeled(labeled, "training")
    require_labeled(labeled[:1], "evaluation")


def test_json_value_of_kind_float_gives_a_float_and_rejects_one_too_large():
    assert type(json_value(3, float, "'alpha'")) is float
    assert type(json_value(3, (str, float), "'value'")) is int  # a tuple of kinds keeps the value
    message = "^'alpha' must be a number that fits in a float, not 1000"
    with pytest.raises(ValueError, match=message):
        json_value(10**400, float, "'alpha'")
