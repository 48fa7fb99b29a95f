"""Every pipeline setting in one place: the run configuration and its checks.

Each stage reads the fields it uses from one RunConfig. Config files and CLI
flags mirror its fields; every value is range-checked when the config is
built, so a bad setting stops a run before any artifact is written.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from pathlib import Path

from tempoguard.events import json_document, json_value

# The type of each RunConfig field, by annotation: it reads both flags and config-file values.
CONFIG_TYPES = {"int": int, "float": float, "str": str}


class UsageError(Exception):
    """Bad invocation (not bad data): reported with exit code 1."""


def _with_help(default, text: str):
    return field(default=default, metadata={"help": text})


@dataclass(frozen=True)
class RunConfig:
    """Every pipeline setting in one place; config files and CLI flags mirror it."""

    seed: int = 42
    instances_per_activity: int = _with_help(50, "instances per activity")
    noise_sigma: float = _with_help(0.1, "relative std-dev of interval jitter")
    inter_instance_gap_ms: int = 600_000
    gap_seconds: float = _with_help(120.0, "idle gap that separates activity instances")
    min_segment_len: int = _with_help(2, "drop segments shorter than this")
    min_support: int = 5
    min_len: int = 2
    alpha_min: float = 0.0
    alpha_max: float = 5.0
    alpha_step: float = 0.1
    boundary_epsilon: float = 1e-9
    ti_multiplier: float = 50.0
    train_normal: int = 40
    test_normal: int = 60
    train_anomaly: int = 10
    test_anomaly: int = 20
    workdir: str = _with_help("tempoguard_run", "artifact directory")

    def __post_init__(self) -> None:
        for f in fields(self):
            if f.type == "float" and not math.isfinite(getattr(self, f.name)):
                raise ValueError(f"{f.name} must be a finite number")
        if not math.isfinite(self.gap_seconds * 1000) or self.gap_ms <= 0:
            raise ValueError("gap_seconds must be over 0.0005, a gap of 1 ms or more")
        for name in ("instances_per_activity", "min_segment_len", "min_support", "min_len"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        for name in ("train_normal", "test_normal", "train_anomaly", "test_anomaly"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0")
        if self.alpha_min > self.alpha_max:
            raise ValueError("alpha_min must be <= alpha_max")
        if self.alpha_step <= 0:
            raise ValueError("alpha_step must be > 0")
        if self.boundary_epsilon <= 0:
            raise ValueError("boundary_epsilon must be > 0")
        if self.ti_multiplier <= 1:
            raise ValueError("ti_multiplier must be > 1")

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
        known = {f.name: f.type for f in fields(cls)}
        data = {}
        if config_path is not None:
            text = Path(config_path).read_text(encoding="utf-8")
            data = json_value(json_document(text, "config file"), dict, "config file")
            unknown = sorted(set(data) - set(known))
            if unknown:
                raise UsageError(f"unknown config keys: {', '.join(unknown)}")
            for name, value in data.items():
                json_value(value, CONFIG_TYPES[known[name]], f"config key {name!r}")
        supplied = {k: v for k, v in overrides.items() if k in known and v is not None}
        return cls(**{**data, **supplied})
