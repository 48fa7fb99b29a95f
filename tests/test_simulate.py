from __future__ import annotations

import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tempoguard.cli import run
from tempoguard.config import RunConfig
from tempoguard.events import MAX_TIMESTAMP_MS, intervals
from tempoguard.ingest import parse_log, segment, serialize_log
from tempoguard.mining import mine_patterns
from tempoguard.simulate import AUTOMATION_LATENCY_MS, RUN_SPACING_GAPS, builtin_specs, generate


def test_there_are_three_builtin_activities():
    specs = builtin_specs()
    assert [s.name for s in specs] == ["Come back home", "Use toilet", "Go to work"]


def test_toilet_activity_uses_only_bathroom_devices():
    toilet = next(s for s in builtin_specs() if s.name == "Use toilet")
    devices = {key.device for key, _ in toilet.steps}
    assert devices <= {"M5", "C5", "L5", "V"}


def test_activities_use_disjoint_devices():
    specs = builtin_specs()
    seen: set[str] = set()
    for spec in specs:
        devices = {key.device for key, _ in spec.steps}
        assert not devices & seen
        seen |= devices


def test_automation_consequences_follow_their_triggers():
    rules = {
        ("M2", "active"): ("L1", "on"),
        ("M1", "active"): ("L2", "on"),
        ("M5", "active"): ("L5", "on"),
        ("C5", "closed"): ("V", "on"),
        ("C2", "open"): ("L4", "on"),
        ("M3", "active"): ("L3", "on"),
    }
    for spec in builtin_specs():
        sequence = [(key.device, key.state) for key, _ in spec.steps]
        for trigger, consequence in rules.items():
            if trigger in sequence:
                assert sequence.index(consequence) > sequence.index(trigger)


def test_automation_steps_use_the_fixed_latency():
    for spec in builtin_specs():
        gaps = {key.device: gap for key, gap in spec.steps}
        for device in ("L1", "L2", "L4", "L3"):
            if device in gaps:
                assert gaps[device] == AUTOMATION_LATENCY_MS


def test_simulate_rejects_negative_noise(capsys):
    with pytest.raises(ValueError, match="^noise_sigma must be >= 0$"):
        RunConfig(noise_sigma=-0.1)
    assert run(["simulate", "--noise-sigma", "-0.5"]) == 2
    assert capsys.readouterr().err == "error: noise_sigma must be >= 0\n"


def test_simulate_rejects_zero_instances(capsys):
    assert run(["simulate", "--instances-per-activity=0"]) == 2
    assert "error: instances_per_activity must be >= 1" in capsys.readouterr().err


def test_zero_noise_reproduces_base_intervals_exactly():
    specs = builtin_specs()
    events = generate(RunConfig(instances_per_activity=2, noise_sigma=0.0))
    segments = segment(events)
    assert len(segments) == 6
    for spec, chunk in zip(specs, [segments[0:2], segments[2:4], segments[4:6]]):
        bases = tuple(gap for _, gap in spec.steps[1:])
        for inst in chunk:
            assert inst.key_sequence() == spec.key_sequence()
            assert intervals(inst) == bases


def test_same_seed_gives_identical_logs():
    one = generate(RunConfig(seed=7, instances_per_activity=3))
    two = generate(RunConfig(seed=7, instances_per_activity=3))
    assert serialize_log(one, "csv") == serialize_log(two, "csv")


def test_different_seeds_give_different_timing():
    one = generate(RunConfig(seed=1, instances_per_activity=3))
    two = generate(RunConfig(seed=2, instances_per_activity=3))
    assert serialize_log(one, "csv") != serialize_log(two, "csv")


def test_generated_log_round_trips_through_the_parser():
    events = generate(RunConfig(instances_per_activity=3))
    assert parse_log(serialize_log(events, "csv")) == events


def test_segmentation_recovers_every_scripted_instance():
    specs = builtin_specs()
    events = generate(RunConfig(instances_per_activity=4))
    segments = segment(events)
    assert len(segments) == 12
    wanted = {spec.key_sequence(): 0 for spec in specs}
    for inst in segments:
        wanted[inst.key_sequence()] += 1
    assert all(count == 4 for count in wanted.values())


def test_name_map_indexes_specs_by_key_sequence():
    cfg = RunConfig(instances_per_activity=5)
    mined = {p.keys: p.name for p, _ in mine_patterns(segment(generate(cfg)), cfg)}
    assert mined == {spec.key_sequence(): spec.name for spec in builtin_specs()}
    assert mined[builtin_specs()[0].key_sequence()] == "Come back home"
    assert len(mined) == 3


@settings(deadline=None)
@given(seed=st.integers(min_value=0, max_value=10**6))
def test_generated_intervals_are_strictly_positive(seed):
    cfg = RunConfig(seed=seed, instances_per_activity=1, noise_sigma=0.5)
    events = generate(cfg)
    for before, after in zip(events, events[1:]):
        assert after.timestamp_ms - before.timestamp_ms >= 1


def test_a_jittered_gap_past_any_log_span_is_an_error_naming_the_activity():
    message = (
        r"^activity 'Come back home': noise_sigma 1e\+300 jitters a \d+ ms gap to \S+ ms, "
        rf"not a finite gap of at most {MAX_TIMESTAMP_MS} ms$"
    )
    with pytest.raises(ValueError, match=message):
        generate(RunConfig(noise_sigma=1e300))


@pytest.mark.parametrize("sigma", ["1e300", "1e308"])
def test_simulate_with_a_huge_noise_sigma_is_a_short_data_error(capsys, sigma):
    assert run(["simulate", "--noise-sigma", sigma]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith(f"error: activity 'Come back home': noise_sigma {float(sigma)}")
    assert len(captured.err) < 200  # no timestamp of hundreds of digits
    assert captured.out == ""


def test_generate_rejects_a_log_ending_past_year_9999_naming_the_gap_setting():
    cfg = RunConfig(instances_per_activity=1)
    last = generate(cfg)[-1].timestamp_ms
    # Two run spacings come before the last event, and the jitter does not depend on them.
    gap_ms = cfg.gap_ms + (MAX_TIMESTAMP_MS - last) // (2 * RUN_SPACING_GAPS)
    fits, past = (cfg._replace(gap_seconds=ms / 1000) for ms in (gap_ms, gap_ms + 1))
    assert (fits.gap_ms, past.gap_ms) == (gap_ms, gap_ms + 1)
    assert generate(fits)[-1].timestamp_ms <= MAX_TIMESTAMP_MS
    message = (
        rf"^gap_seconds \({re.escape(str(past.gap_seconds))}\) spaces runs "
        rf"{RUN_SPACING_GAPS * (gap_ms + 1)} ms apart, which puts the last event at \d+ ms, "
        rf"after 9999-12-31T23:59:59\.999Z \({MAX_TIMESTAMP_MS} ms\)$"
    )
    with pytest.raises(ValueError, match=message):
        generate(past)
