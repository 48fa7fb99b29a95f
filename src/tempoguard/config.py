"""Every pipeline setting in one place: the run configuration and its checks.

SETTINGS is the one table of settings: name -> (type, default, help). The
RunConfig named tuple takes its fields and defaults from it, and its CLI
flags and config-file keys are read from it too. Each stage reads the fields
it uses from one RunConfig. What no caller varies is a constant instead: the
weights training sweeps (training.ALPHA_GRID) and the fewest events of an activity
(events.MIN_ACTIVITY_EVENTS, read by segmentation and mining). Every value is
range-checked when the config is built (and again by `_replace`), and a float setting
is stored as a float, so a bad setting stops a run before any artifact is written.
"""

from __future__ import annotations

import math
from collections import namedtuple
from pathlib import Path

from tempoguard.events import json_document, json_value

# name -> (type, default, help for its flag); the order is RunConfig's field order.
# The type reads both flag and config-file values.
SETTINGS = {
    "seed": (int, 42, "seed of every random draw: simulate and split"),
    "instances_per_activity": (int, 50, "instances per activity"),
    "noise_sigma": (float, 0.1, "relative std-dev of interval jitter"),
    "gap_seconds": (float, 120.0, "idle gap that separates activity instances"),
    "min_support": (int, 5, "fewest segments of one key sequence that make a pattern"),
    "ti_multiplier": (float, 50.0, "factor that a forged timing anomaly stretches one gap by"),
    "train_normal": (int, 40, "normal training instances per activity"),
    "test_normal": (int, 60, "normal test instances per activity"),
    "train_anomaly": (int, 10, "training anomalies per activity and kind (seq, ti)"),
    "test_anomaly": (int, 20, "test anomalies per activity and kind (seq, ti)"),
    "workdir": (str, "tempoguard_run", "artifact directory"),
}


class UsageError(Exception):
    """Bad invocation (not bad data): reported with exit code 1."""


class RunConfig(
    namedtuple("RunConfig", SETTINGS, defaults=[default for _, default, _ in SETTINGS.values()])
):
    """Every pipeline setting in one place; config files and CLI flags mirror it."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs) -> RunConfig:
        given = super().__new__(cls, *args, **kwargs)  # the defaults filled in
        fields = []  # a float setting holds a float: an int becomes one, if a float can hold it
        for (name, (kind, _, _)), value in zip(SETTINGS.items(), given):
            if kind is float:
                value = json_value(value, float, name)
                if not math.isfinite(value):
                    raise ValueError(f"{name} must be a finite number")
            fields.append(value)
        self = tuple.__new__(cls, fields)
        if not math.isfinite(self.gap_seconds * 1000) or self.gap_ms <= 0:
            raise ValueError("gap_seconds must be over 0.0005, a gap of 1 ms or more")
        for name in ("instances_per_activity", "min_support"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        split_sizes = ("train_normal", "test_normal", "train_anomaly", "test_anomaly")
        for name in ("noise_sigma", *split_sizes):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0")
        if self.ti_multiplier <= 1:
            raise ValueError("ti_multiplier must be > 1")
        if not self.workdir:
            raise ValueError("workdir must be a non-empty path")
        return self

    _make = classmethod(lambda cls, iterable: cls(*iterable))  # so _replace validates too

    @property
    def gap_ms(self) -> int:
        """The segmentation gap, gap_seconds, in whole milliseconds."""
        return int(round(self.gap_seconds * 1000))

    @classmethod
    def from_sources(cls, config_path: str | None, overrides: dict) -> RunConfig:
        """Defaults, then config-file values, then the non-None overrides that name a field.

        The config is built once from the merged values, so a file value that
        a flag replaces is never checked on its own.
        """
        data = {}
        if config_path is not None:
            text = Path(config_path).read_text(encoding="utf-8")
            data = json_value(json_document(text, "config file"), dict, "config file")
            unknown = sorted(set(data) - set(SETTINGS))
            if unknown:
                raise UsageError(f"unknown config keys: {', '.join(unknown)}")
            for name, value in data.items():  # an int for a float setting becomes a float
                data[name] = json_value(value, SETTINGS[name][0], f"config key {name!r}")
        supplied = {k: v for k, v in overrides.items() if k in SETTINGS and v is not None}
        return cls(**{**data, **supplied})
