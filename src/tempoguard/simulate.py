"""Synthetic smart-home log generator for the three built-in daily activities.

Each activity is an ordered list of device events with base gaps between
them; automation-rule consequences (a light following a motion sensor, a fan
switch following a door) trail their trigger by a fixed 1 s latency. Gaps get
multiplicative Gaussian jitter. None of the timing constants are measured
ground truth — they exist to make the pipeline behave like a lived-in home.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from tempoguard.config import RunConfig
from tempoguard.events import Event, EventKey

# Epoch ms for 2021-10-01T00:00:00Z; an arbitrary fixed origin for determinism.
START_EPOCH_MS = 1_633_046_400_000

# Automation platforms fire rules quickly; one fixed latency keeps runs comparable.
AUTOMATION_LATENCY_MS = 1_000


@dataclass(frozen=True)
class ActivitySpec:
    """One scripted activity: events plus the base gap preceding each.

    steps[k] = (key, base_interval_ms before this event); the first step's
    interval must be None, every later one a positive int.
    """

    name: str
    steps: tuple[tuple[EventKey, int | None], ...]
    noise_sigma_frac: float = 0.10

    def __post_init__(self) -> None:
        object.__setattr__(self, "steps", tuple(self.steps))
        if not self.name:
            raise ValueError("name must be non-empty")
        if not self.steps:
            raise ValueError("steps must be non-empty")
        if self.steps[0][1] is not None:
            raise ValueError("first step must have no preceding interval")
        for key, gap in self.steps[1:]:
            if gap is None or gap <= 0:
                raise ValueError(f"step for {key} needs a positive base interval")
        if self.noise_sigma_frac < 0:
            raise ValueError("noise_sigma_frac must be >= 0")

    def key_sequence(self) -> tuple[EventKey, ...]:
        return tuple(key for key, _ in self.steps)


def _key(device: str, attribute: str, state: str) -> EventKey:
    return EventKey(device=device, attribute=attribute, state=state)


def builtin_specs(noise_sigma_frac: float = 0.10) -> list[ActivitySpec]:
    """The three scripted activities and their automation rules.

    Come back home: front door (C1) opens, entry motion (M2) turns on light
    L1, door closes, kitchen motion (M1) turns on light L2.
    Use toilet: bathroom motion (M5) turns on light L5, door (C5) closes and
    the fan switch (V) follows, door reopens, motion goes quiet, and the
    20-second vacancy rule shuts off L5 then V.
    Go to work: door C2 opens and hall light L4 follows, hallway motion (M4),
    study motion (M3) turns on desk light L3.
    """
    auto = AUTOMATION_LATENCY_MS
    return [
        ActivitySpec(
            name="Come back home",
            steps=(
                (_key("C1", "contact", "open"), None),
                (_key("M2", "motion", "active"), 3_000),
                (_key("L1", "switch", "on"), auto),
                (_key("C1", "contact", "closed"), 4_000),
                (_key("M1", "motion", "active"), 6_000),
                (_key("L2", "switch", "on"), auto),
            ),
            noise_sigma_frac=noise_sigma_frac,
        ),
        ActivitySpec(
            name="Use toilet",
            steps=(
                (_key("M5", "motion", "active"), None),
                (_key("L5", "switch", "on"), auto),
                (_key("C5", "contact", "closed"), 3_000),
                (_key("V", "switch", "on"), auto),
                (_key("C5", "contact", "open"), 12_000),
                (_key("M5", "motion", "inactive"), 8_000),
                (_key("L5", "switch", "off"), 21_000),  # 20 s vacancy rule + latency
                (_key("V", "switch", "off"), auto),
            ),
            noise_sigma_frac=noise_sigma_frac,
        ),
        ActivitySpec(
            name="Go to work",
            steps=(
                (_key("C2", "contact", "open"), None),
                (_key("L4", "switch", "on"), auto),
                (_key("M4", "motion", "active"), 3_000),
                (_key("M3", "motion", "active"), 5_000),
                (_key("L3", "switch", "on"), auto),
            ),
            noise_sigma_frac=noise_sigma_frac,
        ),
    ]


def spec_name_map(specs: list[ActivitySpec]) -> dict[tuple[EventKey, ...], str]:
    """Key-sequence → activity-name lookup, for naming mined patterns."""
    return {spec.key_sequence(): spec.name for spec in specs}


def generate(specs: list[ActivitySpec], cfg: RunConfig | None = None) -> list[Event]:
    """Emit a full log: every activity repeated instances_per_activity times.

    Each gap is base * (1 + gauss(0, sigma)), rounded to whole ms and clamped
    to >= 1. One RNG stream drawn in a fixed order makes the log a pure
    function of the seed.
    """
    cfg = cfg or RunConfig()
    rng = random.Random(cfg.seed)
    events: list[Event] = []
    now = START_EPOCH_MS
    for spec in specs:
        for _ in range(cfg.instances_per_activity):
            for key, base in spec.steps:
                if base is not None:
                    jitter = 1.0 + rng.gauss(0.0, spec.noise_sigma_frac)
                    now += max(1, round(base * jitter))
                events.append(Event(timestamp_ms=now, key=key, raw_value=key.state))
            now += cfg.inter_instance_gap_ms
    return events
