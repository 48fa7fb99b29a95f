"""RunConfig holds every setting and range-checks each one when it is built."""

from __future__ import annotations

import json
import math

import pytest

from tempoguard.config import SETTINGS, RunConfig


@pytest.mark.parametrize(
    "settings",
    [
        {"gap_seconds": 0},
        {"gap_seconds": 0.0004},  # rounds to a 0 ms gap
        {"gap_seconds": -1.0},
        {"gap_seconds": math.inf},
        {"gap_seconds": math.nan},
        {"min_support": 0},
        {"ti_multiplier": 1.0},
        {"ti_multiplier": math.inf},
        {"instances_per_activity": 0},
        {"train_normal": -5},
        {"test_normal": -1},
        {"train_anomaly": -1},
        {"test_anomaly": -3},
        {"workdir": ""},
    ],
    ids=lambda settings: ",".join(f"{name}={value}" for name, value in settings.items()),
)
def test_run_config_rejects_an_out_of_range_value_naming_its_field(settings):
    field = next(iter(settings))  # the first setting named is the one at fault
    with pytest.raises(ValueError, match=f"^{field} must be"):
        RunConfig(**settings)


def test_gap_seconds_is_kept_whenever_it_rounds_to_a_millisecond_or_more():
    assert RunConfig(gap_seconds=0.0006).gap_ms == 1
    assert RunConfig(gap_seconds=90).gap_ms == 90_000


# An integer for each float setting.
INTEGER_FLOATS = {"gap_seconds": 300, "noise_sigma": 0, "ti_multiplier": 5}


def test_a_config_file_integer_for_a_float_setting_is_read_as_a_float(tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({**INTEGER_FLOATS, "seed": 7}))
    cfg = RunConfig.from_sources(str(config), {})
    assert [getattr(cfg, name) for name in INTEGER_FLOATS] == [300.0, 0.0, 5.0]
    assert {type(getattr(cfg, name)) for name in INTEGER_FLOATS} == {float}
    assert type(cfg.seed) is int


def test_a_python_integer_for_a_float_setting_is_held_as_a_float():
    cfg = RunConfig(**INTEGER_FLOATS)
    assert [getattr(cfg, name) for name in INTEGER_FLOATS] == [300.0, 0.0, 5.0]
    assert {type(getattr(cfg, name)) for name in INTEGER_FLOATS} == {float}
    assert type(cfg._replace(ti_multiplier=2).ti_multiplier) is float
    assert type(RunConfig(seed=7).seed) is int


def test_a_python_integer_too_large_for_a_float_is_a_value_error_naming_its_setting():
    message = "^gap_seconds must be a number that fits in a float, not 1000"
    with pytest.raises(ValueError, match=message):
        RunConfig(gap_seconds=10**400)


def test_every_setting_has_a_help_text():
    assert [name for name, (_, _, text) in SETTINGS.items() if not text.strip()] == []


def test_run_config_has_no_alpha_grid_settings():
    assert len(RunConfig._fields) == 11
    gone = {"alpha_min", "alpha_max", "alpha_step", "min_len", "min_segment_len"}
    assert not gone & set(SETTINGS)

