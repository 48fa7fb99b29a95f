"""Synthetic smart-home log generator for the three built-in daily activities.

Each activity is an ordered list of device events with base gaps between
them; automation-rule consequences (a light following a motion sensor, a fan
switch following a door) trail their trigger by a fixed 1 s latency. Gaps get
multiplicative Gaussian jitter. None of the timing constants are measured
ground truth — they exist to make the pipeline behave like a lived-in home.
"""

from __future__ import annotations

import math
import random
from collections import namedtuple

from tempoguard.config import RunConfig
from tempoguard.events import MAX_TIMESTAMP_MS, Event, EventKey

# Epoch ms for 2021-10-01T00:00:00Z; an arbitrary fixed origin for determinism.
START_EPOCH_MS = 1_633_046_400_000

# Automation platforms fire rules quickly; one fixed latency keeps runs comparable.
AUTOMATION_LATENCY_MS = 1_000


class ActivitySpec(namedtuple("ActivitySpec", "name steps")):
    """One scripted activity: events plus the base gap preceding each.

    steps[k] = (key, base_interval_ms before this event); the first step's
    interval is None, every later one a positive int.
    """

    __slots__ = ()

    def key_sequence(self) -> tuple[EventKey, ...]:
        return tuple(key for key, _ in self.steps)


def builtin_specs() -> list[ActivitySpec]:
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
                (EventKey("C1", "contact", "open"), None),
                (EventKey("M2", "motion", "active"), 3_000),
                (EventKey("L1", "switch", "on"), auto),
                (EventKey("C1", "contact", "closed"), 4_000),
                (EventKey("M1", "motion", "active"), 6_000),
                (EventKey("L2", "switch", "on"), auto),
            ),
        ),
        ActivitySpec(
            name="Use toilet",
            steps=(
                (EventKey("M5", "motion", "active"), None),
                (EventKey("L5", "switch", "on"), auto),
                (EventKey("C5", "contact", "closed"), 3_000),
                (EventKey("V", "switch", "on"), auto),
                (EventKey("C5", "contact", "open"), 12_000),
                (EventKey("M5", "motion", "inactive"), 8_000),
                (EventKey("L5", "switch", "off"), 21_000),  # 20 s vacancy rule + latency
                (EventKey("V", "switch", "off"), auto),
            ),
        ),
        ActivitySpec(
            name="Go to work",
            steps=(
                (EventKey("C2", "contact", "open"), None),
                (EventKey("L4", "switch", "on"), auto),
                (EventKey("M4", "motion", "active"), 3_000),
                (EventKey("M3", "motion", "active"), 5_000),
                (EventKey("L3", "switch", "on"), auto),
            ),
        ),
    ]


def generate(cfg: RunConfig | None = None) -> list[Event]:
    """Emit a full log: every built-in activity repeated instances_per_activity times.

    Each gap is base * (1 + gauss(0, cfg.noise_sigma)), rounded to whole ms and clamped
    to >= 1; a gap that is not finite or is longer than MAX_TIMESTAMP_MS is an
    error, and so is a log that ends after MAX_TIMESTAMP_MS. One RNG stream
    drawn in a fixed order makes the log a pure function of the seed.
    """
    cfg = cfg or RunConfig()
    rng = random.Random(cfg.seed)
    events: list[Event] = []
    now = START_EPOCH_MS
    for spec in builtin_specs():
        for _ in range(cfg.instances_per_activity):
            for key, base in spec.steps:
                if base is not None:
                    gap = base * (1.0 + rng.gauss(0.0, cfg.noise_sigma))
                    if not -math.inf < gap <= MAX_TIMESTAMP_MS:
                        raise ValueError(
                            f"activity {spec.name!r}: noise_sigma {cfg.noise_sigma} jitters a "
                            f"{base} ms gap to {gap} ms, not a finite gap of at most "
                            f"{MAX_TIMESTAMP_MS} ms"
                        )
                    now += max(1, round(gap))
                events.append(Event(now, key))
            now += cfg.inter_instance_gap_ms
    if events and (end := events[-1].timestamp_ms) > MAX_TIMESTAMP_MS:
        raise ValueError(
            f"inter_instance_gap_ms ({cfg.inter_instance_gap_ms} ms) puts the last event at "
            f"{end} ms, after 9999-12-31T23:59:59.999Z ({MAX_TIMESTAMP_MS} ms)"
        )
    return events
