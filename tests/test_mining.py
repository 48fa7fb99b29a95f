from __future__ import annotations

import json
import logging
from collections import Counter

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import key, make_instance
from tempoguard.cli import run
from tempoguard.config import RunConfig
from tempoguard.events import ActivityInstance, Event, EventKey
from tempoguard.ingest import (
    instances_from_jsonl,
    instances_to_jsonl,
    parse_log,
    parse_log_jsonl,
    segment,
    serialize_log,
)
from tempoguard.mining import mine_patterns, patterns_from_json, patterns_to_json
from tempoguard.simulate import builtin_specs


def _patterns(instances, cfg=None) -> list:
    """The patterns of mine_patterns' (pattern, segments) pairs."""
    return [pattern for pattern, _ in mine_patterns(instances, cfg)]


def test_identical_sequences_average_into_one_pattern():
    instances = [make_instance("ABC", g) for g in ([10, 20], [12, 22], [14, 24])]
    patterns = _patterns(instances, RunConfig(min_support=3))
    assert len(patterns) == 1
    assert patterns[0].mean_intervals_ms == (12.0, 22.0)
    assert patterns[0].support == 3


def test_support_threshold_filters_small_groups():
    instances = [make_instance("ABC") for _ in range(4)] + [make_instance("XYZ")]
    with pytest.raises(ValueError, match="no pattern mined") as exc:
        mine_patterns(instances, RunConfig(min_support=5))
    assert "(segments: 5, distinct key sequences: 2)" in str(exc.value)


def test_five_identical_sequences_reach_default_support():
    instances = [make_instance("ABC") for _ in range(5)]
    patterns = _patterns(instances)
    assert len(patterns) == 1
    assert patterns[0].keys == (key("A"), key("B"), key("C"))
    assert patterns[0].support == 5


def test_one_event_instances_make_no_pattern(tmp_path, capsys):
    # A pattern is learned from intervals, and one event has none; no setting changes that.
    instances = [make_instance("A", []) for _ in range(6)]
    with pytest.raises(ValueError, match="no pattern mined"):
        mine_patterns(instances)
    path = tmp_path / "instances.jsonl"
    path.write_text(instances_to_jsonl(instances), encoding="utf-8")
    assert run(["mine", str(path)]) == 2
    message = "no pattern mined (segments: 6, distinct key sequences: 1); lower min_support"
    assert capsys.readouterr() == ("", f"error: {message}, or add data\n")


def test_empty_input_mines_no_pattern():
    with pytest.raises(ValueError, match="no pattern mined") as exc:
        mine_patterns([])
    assert "(segments: 0, distinct key sequences: 0)" in str(exc.value)


READING = EventKey("T", "temperature", "21.5")  # a numeric state: a reading, not an event


def _read_back(instances: list[ActivityInstance]) -> list[ActivityInstance]:
    """The instances as the instance-file reader gives them: numeric readings dropped."""
    return instances_from_jsonl(instances_to_jsonl(instances))


def test_numeric_valued_events_are_ignored_with_a_warning(caplog):
    bursts = [(Event(t, key("A")), Event(t + 1000, READING), Event(t + 3000, key("B")))
              for t in range(0, 5 * 3_600_000, 3_600_000)]  # fmt: skip
    for fmt, parse in (("csv", parse_log), ("jsonl", parse_log_jsonl)):
        caplog.clear()
        with caplog.at_level(logging.WARNING):
            events = parse(serialize_log([e for burst in bursts for e in burst], fmt))
        patterns = _patterns(segment(events))
        assert len(patterns) == 1
        assert patterns[0].keys == (key("A"), key("B"))
        assert patterns[0].mean_intervals_ms == (3000.0,)
        assert caplog.messages == ["dropped 5 numeric readings"]


def test_an_instance_of_only_numeric_events_is_left_out_of_mining(caplog):
    readings = ActivityInstance(
        events=(Event(1000, READING), Event(2000, EventKey("H", "humidity", "40")))
    )
    with caplog.at_level(logging.WARNING):
        instances = _read_back([make_instance("AB") for _ in range(5)] + [readings] * 5)
    assert len(instances) == 5
    patterns = _patterns(instances)
    assert [p.keys for p in patterns] == [(key("A"), key("B"))]
    assert patterns[0].support == 5
    assert caplog.messages == ["dropped 10 numeric readings"]


def _burst_lines(start_ms: int, gaps: tuple[int, int], reading: float | None) -> list[str]:
    """One burst of three steps as JSON lines; a T1 temperature reading between the first two."""
    steps = [(start_ms, "M1", "motion", "active")]
    steps.append((start_ms + gaps[0], "D1", "contact", "open"))
    steps.append((start_ms + gaps[0] + gaps[1], "M1", "motion", "inactive"))
    if reading is not None:
        steps.insert(1, (start_ms + gaps[0] // 2, "T1", "temperature", reading))
    names = ("timestamp", "device", "attribute", "value")
    return [json.dumps(dict(zip(names, step))) + "\n" for step in steps]


def _mined_from_jsonl_log(tmp_path, name: str, lines: list[str]) -> list:
    log = tmp_path / f"{name}.log.jsonl"
    instances, patterns = tmp_path / f"{name}.jsonl", tmp_path / f"{name}.json"
    log.write_text("".join(lines), encoding="utf-8")
    assert run(["ingest", str(log), "--out", str(instances)]) == 0
    assert run(["mine", str(instances), "--out", str(patterns)]) == 0
    return patterns_from_json(patterns.read_text(encoding="utf-8"))


def test_numeric_readings_from_a_log_are_dropped_before_mining(tmp_path, caplog):
    gaps = [(1000 + 10 * n, 3000 - 20 * n) for n in range(6)]
    readings = [21 if n % 2 else 21.5 for n in range(6)]  # a JSON number; the parser str()s it
    start = [1_633_093_201_000 + 3_600_000 * n for n in range(6)]
    plain = [line for t, g in zip(start, gaps) for line in _burst_lines(t, g, None)]
    with_readings = [
        line for t, g, r in zip(start, gaps, readings) for line in _burst_lines(t, g, r)
    ]
    expected = _mined_from_jsonl_log(tmp_path, "plain", plain)
    caplog.clear()
    with caplog.at_level(logging.WARNING):
        mined = _mined_from_jsonl_log(tmp_path, "readings", with_readings)
    assert [(p.keys, p.mean_intervals_ms) for p in mined] == [
        (p.keys, p.mean_intervals_ms) for p in expected
    ]
    assert len(mined) == 1 and mined[0].mean_intervals_ms == (1025.0, 2950.0)
    assert caplog.messages == ["dropped 6 numeric readings"]  # by ingest; mine reads none


def test_patterns_come_back_sorted_by_support():
    instances = [make_instance("AB") for _ in range(5)] + [
        make_instance("CD") for _ in range(7)
    ]
    patterns = _patterns(instances)
    assert [p.support for p in patterns] == [7, 5]


def test_auto_names_number_patterns_in_output_order():
    instances = [make_instance("AB") for _ in range(5)] + [
        make_instance("CD") for _ in range(7)
    ]
    assert [p.name for p in _patterns(instances)] == ["pattern-1", "pattern-2"]


def test_label_map_overrides_auto_names():
    # The built-in activity table is the label map: its key sequences take their names.
    instances = (
        [make_instance("AB") for _ in range(7)]
        + _runs(builtin_specs()[1].key_sequence(), 6)  # Use toilet
        + [make_instance("CD") for _ in range(5)]
    )
    names = [p.name for p in _patterns(instances)]
    assert names == ["pattern-1", "Use toilet", "pattern-3"]


# Each key's device, attribute and state rank it differently among the others.
_CROSSED_KEYS = (
    EventKey("A", "z", "off"),
    EventKey("B", "a", "on"),
    EventKey("A", "m", "on"),
    EventKey("C", "a", "idle"),
)


def _runs(keys: tuple[EventKey, ...], count: int) -> list[ActivityInstance]:
    events = tuple(Event(1000 * (n + 1), k) for n, k in enumerate(keys))
    return [ActivityInstance(events=events) for _ in range(count)]


def test_equal_support_patterns_sort_by_device_before_attribute():
    by_attribute_first, by_device_first = _CROSSED_KEYS[1], _CROSSED_KEYS[0]
    tail = key("T")
    instances = _runs((by_attribute_first, tail), 5) + _runs((by_device_first, tail), 5)
    patterns = _patterns(instances)
    assert [p.keys for p in patterns] == [(by_device_first, tail), (by_attribute_first, tail)]
    assert [p.name for p in patterns] == ["pattern-1", "pattern-2"]


@given(
    groups=st.dictionaries(
        st.lists(st.sampled_from(_CROSSED_KEYS), min_size=2, max_size=3).map(tuple),
        st.integers(min_value=5, max_value=7),
        min_size=1,
        max_size=6,
    ),
    seed=st.randoms(use_true_random=False),
)
def test_pattern_order_equals_the_string_triple_order(groups, seed):
    instances = [inst for keys, count in groups.items() for inst in _runs(keys, count)]
    seed.shuffle(instances)
    expected = sorted(
        groups,
        key=lambda keys: (-groups[keys], [(k.device, k.attribute, k.state) for k in keys]),
    )
    assert [p.keys for p in _patterns(instances)] == expected


@given(seed=st.randoms(use_true_random=False))
def test_mining_is_insensitive_to_input_order(seed):
    instances = (
        [make_instance("AB", [g]) for g in (10, 20, 30, 40, 50)]
        + [make_instance("CD", [g]) for g in (5, 15, 25, 35, 45)]
        + [make_instance("EF")]
    )
    shuffled = instances[:]
    seed.shuffle(shuffled)
    mined, reference = mine_patterns(shuffled), mine_patterns(instances)
    assert [p for p, _ in mined] == [p for p, _ in reference]
    assert [Counter(segments) for _, segments in mined] == [
        Counter(segments) for _, segments in reference
    ]


def test_segments_are_the_inputs_with_the_patterns_keys_and_no_numeric_events():
    a, b = Event(1000, key("A")), Event(3000, key("B"))
    reading = Event(2000, READING)
    with_reading = [ActivityInstance(events=(a, reading, b), source_id=f"r{n}") for n in range(3)]
    plain = [ActivityInstance(events=(a, b), source_id=f"p{n}") for n in range(3)]
    other = [make_instance("CD", source_id=f"c{n}") for n in range(5)]
    instances = [inst for trio in zip(with_reading, other, plain) for inst in trio] + other[3:]
    discrete = [
        inst._replace(events=tuple(e for e in inst.events if e != reading)) for inst in instances
    ]
    mined = mine_patterns(_read_back(instances))
    assert [p.keys for p, _ in mined] == [(a.key, b.key), (key("C"), key("D"))]
    for pattern, segments in mined:
        assert segments == [inst for inst in discrete if inst.key_sequence() == pattern.keys]


def test_a_single_instance_pattern_copies_its_intervals():
    solo = make_instance("AB", [1234])
    ((pattern, segments),) = mine_patterns([solo], RunConfig(min_support=1))
    assert pattern.mean_intervals_ms == (1234.0,)
    assert pattern.support == 1
    assert segments == [solo]


def test_means_average_component_wise():
    group = [make_instance("AB", [0]), make_instance("AB", [10])]
    assert _patterns(group, RunConfig(min_support=1))[0].mean_intervals_ms == (5.0,)


@given(
    gap_lists=st.lists(
        st.lists(st.integers(min_value=0, max_value=10**6), min_size=2, max_size=2),
        min_size=1,
        max_size=10,
    )
)
def test_means_lie_between_group_extremes(gap_lists):
    group = [make_instance("ABC", gaps) for gaps in gap_lists]
    (pattern,) = _patterns(group, RunConfig(min_support=1))
    for k, mean in enumerate(pattern.mean_intervals_ms):
        column = [gaps[k] for gaps in gap_lists]
        assert min(column) <= mean <= max(column)


def test_miner_config_validates_fields(capsys):
    assert run(["mine", "missing.jsonl", "--min-support=0"]) == 2
    assert "error: min_support must be >= 1" in capsys.readouterr().err


def test_patterns_json_round_trip():
    instances = [make_instance("ABC", [10, 20]) for _ in range(5)]
    patterns = _patterns(instances)
    assert patterns_from_json(patterns_to_json(patterns)) == patterns
