"""Synthetic data forging: midpoint oversampling and anomaly injection.

Normal data is expanded by drawing two real instances with the same key
sequence and taking the component-wise midpoint of their interval vectors.
Anomalies come in two flavors: delete one event (sequence anomaly) or stretch
one inter-event interval by a large factor (timing anomaly).
"""

from __future__ import annotations

import random

from tempoguard.config import RunConfig
from tempoguard.events import (
    ActivityInstance,
    Event,
    LABEL_ANOMALY_SEQ,
    LABEL_ANOMALY_TI,
    LABEL_NORMAL,
    intervals,
)


def _rebuild(
    source: ActivityInstance,
    first_timestamp_ms: int,
    new_intervals: list[int],
    label: str,
    source_id: str,
) -> ActivityInstance:
    """New instance with source's keys/values but the given timing."""
    ts = first_timestamp_ms
    events = [Event(ts, source.events[0].key, source.events[0].raw_value)]
    for step, src in zip(new_intervals, source.events[1:]):
        ts += step
        events.append(Event(ts, src.key, src.raw_value))
    return ActivityInstance(events=tuple(events), label=label, source_id=source_id)


def smote_midpoint(p_i: ActivityInstance, p_j: ActivityInstance) -> ActivityInstance:
    """Normal instance halfway between two others (component-wise intervals).

    Midpoints are rounded to whole milliseconds (ties to even). The first
    timestamp is copied from p_i.
    """
    if p_i.key_sequence() != p_j.key_sequence():
        raise ValueError("instances must share one event-key sequence")
    mids = [round((a + b) / 2) for a, b in zip(intervals(p_i), intervals(p_j))]
    return _rebuild(
        p_i,
        p_i.events[0].timestamp_ms,
        mids,
        LABEL_NORMAL,
        source_id=f"smote:{p_i.source_id}+{p_j.source_id}",
    )


def make_anomaly_seq(x: ActivityInstance, rng: random.Random) -> ActivityInstance:
    """Delete one uniformly random event; the other timestamps stay put."""
    if len(x.events) < 2:
        raise ValueError("need at least 2 events to delete one")
    drop = rng.randrange(len(x.events))
    events = x.events[:drop] + x.events[drop + 1 :]
    return ActivityInstance(
        events=events, label=LABEL_ANOMALY_SEQ, source_id=f"seq:{x.source_id}"
    )


def make_anomaly_ti(
    x: ActivityInstance, cfg: RunConfig, rng: random.Random
) -> ActivityInstance:
    """Stretch one uniformly random interval by cfg.ti_multiplier.

    Later events shift by the added time; the key sequence is unchanged.
    """
    if len(x.events) < 2:
        raise ValueError("need at least 2 events to stretch an interval")
    stretched = list(intervals(x))
    idx = rng.randrange(len(stretched))
    stretched[idx] = int(round(stretched[idx] * cfg.ti_multiplier))
    return _rebuild(
        x,
        x.events[0].timestamp_ms,
        stretched,
        LABEL_ANOMALY_TI,
        source_id=f"ti:{x.source_id}",
    )


def augment_normals(
    pool: list[ActivityInstance], target_count: int, rng: random.Random
) -> list[ActivityInstance]:
    """Forge target_count midpoint instances from random distinct pool pairs."""
    if not pool:
        raise ValueError("pool must be non-empty")
    reference = pool[0].key_sequence()
    for inst in pool[1:]:
        if inst.key_sequence() != reference:
            raise ValueError("pool instances must share one event-key sequence")
    if target_count > 0 and len(pool) < 2:
        raise ValueError("need at least 2 pool instances to draw a distinct pair")
    out: list[ActivityInstance] = []
    for _ in range(target_count):
        i, j = rng.sample(range(len(pool)), 2)
        out.append(smote_midpoint(pool[i], pool[j]))
    return out
