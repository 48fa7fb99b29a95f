from __future__ import annotations

import logging

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import key, make_instance
from tempoguard.cli import run
from tempoguard.config import RunConfig
from tempoguard.events import ActivityInstance, Event, EventKey
from tempoguard.mining import (
    build_pattern,
    mine_patterns,
    patterns_from_json,
    patterns_to_json,
)


def test_identical_sequences_average_into_one_pattern():
    instances = [make_instance("ABC", g) for g in ([10, 20], [12, 22], [14, 24])]
    patterns = mine_patterns(instances, RunConfig(min_support=3))
    assert len(patterns) == 1
    assert patterns[0].mean_intervals_ms == (12.0, 22.0)
    assert patterns[0].support == 3


def test_support_threshold_filters_small_groups():
    instances = [make_instance("ABC") for _ in range(4)] + [make_instance("XYZ")]
    assert mine_patterns(instances, RunConfig(min_support=5)) == []


def test_five_identical_sequences_reach_default_support():
    instances = [make_instance("ABC") for _ in range(5)]
    patterns = mine_patterns(instances)
    assert len(patterns) == 1
    assert patterns[0].keys == (key("A"), key("B"), key("C"))
    assert patterns[0].support == 5


def test_min_len_filters_short_sequences():
    instances = [make_instance("A", []) for _ in range(6)]
    assert mine_patterns(instances, RunConfig(min_support=5, min_len=2)) == []


def test_empty_input_yields_empty_list():
    assert mine_patterns([]) == []


def test_numeric_valued_events_are_ignored_with_a_warning(caplog):
    events = (
        Event(1000, key("A"), "on"),
        Event(2000, key("T"), "21.5"),  # a thermometer reading, not a state
        Event(3000, key("B"), "on"),
    )
    instances = [ActivityInstance(events=events) for _ in range(5)]
    with caplog.at_level(logging.WARNING):
        patterns = mine_patterns(instances)
    assert len(patterns) == 1
    assert patterns[0].keys == (key("A"), key("B"))
    assert patterns[0].mean_intervals_ms == (2000.0,)
    assert "5 numeric-valued events" in caplog.text


def test_patterns_come_back_sorted_by_support():
    instances = [make_instance("AB") for _ in range(5)] + [
        make_instance("CD") for _ in range(7)
    ]
    patterns = mine_patterns(instances)
    assert [p.support for p in patterns] == [7, 5]


def test_auto_names_number_patterns_in_output_order():
    instances = [make_instance("AB") for _ in range(5)] + [
        make_instance("CD") for _ in range(7)
    ]
    assert [p.name for p in mine_patterns(instances)] == ["pattern-1", "pattern-2"]


def test_label_map_overrides_auto_names():
    instances = [make_instance("AB") for _ in range(5)]
    names = {(key("A"), key("B")): "Come back home"}
    assert mine_patterns(instances, names=names)[0].name == "Come back home"


# Each key's device, attribute and state rank it differently among the others.
_CROSSED_KEYS = (
    EventKey("A", "z", "off"),
    EventKey("B", "a", "on"),
    EventKey("A", "m", "on"),
    EventKey("C", "a", "idle"),
)


def _runs(keys: tuple[EventKey, ...], count: int) -> list[ActivityInstance]:
    events = tuple(Event(1000 * (n + 1), k, k.state) for n, k in enumerate(keys))
    return [ActivityInstance(events=events) for _ in range(count)]


def test_equal_support_patterns_sort_by_device_before_attribute():
    by_attribute_first, by_device_first = _CROSSED_KEYS[1], _CROSSED_KEYS[0]
    tail = key("T")
    instances = _runs((by_attribute_first, tail), 5) + _runs((by_device_first, tail), 5)
    patterns = mine_patterns(instances)
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
    assert [p.keys for p in mine_patterns(instances)] == expected


@given(seed=st.randoms(use_true_random=False))
def test_mining_is_insensitive_to_input_order(seed):
    instances = (
        [make_instance("AB", [g]) for g in (10, 20, 30, 40, 50)]
        + [make_instance("CD", [g]) for g in (5, 15, 25, 35, 45)]
        + [make_instance("EF")]
    )
    shuffled = instances[:]
    seed.shuffle(shuffled)
    assert mine_patterns(shuffled) == mine_patterns(instances)


def test_build_pattern_of_single_instance_copies_its_intervals():
    pattern = build_pattern("solo", [make_instance("AB", [1234])])
    assert pattern.mean_intervals_ms == (1234.0,)
    assert pattern.support == 1


def test_build_pattern_averages_component_wise():
    group = [make_instance("AB", [0]), make_instance("AB", [10])]
    assert build_pattern("p", group).mean_intervals_ms == (5.0,)


def test_build_pattern_reports_first_mismatch_position():
    group = [make_instance("ABC"), make_instance("ABX")]
    with pytest.raises(ValueError, match="mismatch at 2"):
        build_pattern("p", group)


def test_build_pattern_rejects_empty_group():
    with pytest.raises(ValueError, match="non-empty"):
        build_pattern("p", [])


@given(
    gap_lists=st.lists(
        st.lists(st.integers(min_value=0, max_value=10**6), min_size=2, max_size=2),
        min_size=1,
        max_size=10,
    )
)
def test_means_lie_between_group_extremes(gap_lists):
    group = [make_instance("ABC", gaps) for gaps in gap_lists]
    pattern = build_pattern("p", group)
    for k, mean in enumerate(pattern.mean_intervals_ms):
        column = [gaps[k] for gaps in gap_lists]
        assert min(column) <= mean <= max(column)


def test_miner_config_validates_fields(capsys):
    for setting in ("min_support", "min_len"):
        assert run(["mine", "missing.jsonl", f"--{setting.replace('_', '-')}=0"]) == 2
        assert f"error: {setting} must be >= 1" in capsys.readouterr().err


def test_patterns_json_round_trip():
    instances = [make_instance("ABC", [10, 20]) for _ in range(5)]
    patterns = mine_patterns(instances)
    assert patterns_from_json(patterns_to_json(patterns)) == patterns
