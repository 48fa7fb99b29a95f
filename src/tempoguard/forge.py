"""Synthetic data forging: midpoint oversampling and anomaly injection.

Normal data is expanded by drawing two real instances with the same key
sequence and taking the component-wise midpoint of their interval vectors.
Anomalies come in two flavors: delete one event (sequence anomaly) or stretch
one inter-event interval by a large factor (timing anomaly). `split_sets`
does both for each mined activity and deals the results into the labeled
training and test sets.
"""

from __future__ import annotations

import random

from tempoguard.config import RunConfig
from tempoguard.events import (
    ActivityInstance,
    ActivityPattern,
    Event,
    LABEL_ANOMALY_SEQ,
    LABEL_ANOMALY_TI,
    LABEL_NORMAL,
    MAX_TIMESTAMP_MS,
    intervals,
)


def _rebuild(
    source: ActivityInstance, new_intervals: list[int], label: str, source_id: str
) -> ActivityInstance:
    """New instance with source's keys and first time but the given intervals.

    Every caller passes one int interval >= 0 per step of source, a valid
    label and a str source_id, so the records are built without running their
    checks again. An instance that would end past MAX_TIMESTAMP_MS, which no
    file can hold, is a ValueError naming source_id and its first such time.
    """
    first = source.events[0]
    ts = first.timestamp_ms
    # Event.__new__'s checks hold: each ts is an int >= 0, and each key is source's EventKey.
    events = [first]
    for step, src in zip(new_intervals, source.events[1:]):
        ts += step
        events.append(tuple.__new__(Event, (ts, src.key)))
    if ts > MAX_TIMESTAMP_MS:  # ts is the last time, so the latest
        late = next(t for t, _ in events if t > MAX_TIMESTAMP_MS)
        raise ValueError(
            f"instance {source_id!r}: timestamp {late} ms is after 9999-12-31T23:59:59.999Z"
        )
    # ActivityInstance.__new__'s checks hold: no interval is negative, so time never goes back.
    return tuple.__new__(ActivityInstance, (tuple(events), label, source_id))


def smote_midpoint(p_i: ActivityInstance, p_j: ActivityInstance) -> ActivityInstance:
    """Normal instance halfway between two others (component-wise intervals).

    Midpoints are rounded to whole milliseconds (ties to even). The first
    timestamp is copied from p_i.
    """
    if p_i.key_sequence() != p_j.key_sequence():
        raise ValueError("instances must share one event-key sequence")
    return _midpoint(p_i, p_j)


def _midpoint(p_i: ActivityInstance, p_j: ActivityInstance) -> ActivityInstance:
    """smote_midpoint without its check, for augment_normals, which checks its whole pool once."""
    mids = [round((a + b) / 2) for a, b in zip(intervals(p_i), intervals(p_j))]
    return _rebuild(p_i, mids, LABEL_NORMAL, f"smote:{p_i.source_id}+{p_j.source_id}")


def make_anomaly_seq(x: ActivityInstance, rng: random.Random) -> ActivityInstance:
    """Delete one uniformly random event; the other timestamps stay put."""
    if len(x.events) < 2:
        raise ValueError(f"instance {x.source_id!r}: need at least 2 events to delete one")
    drop = rng.randrange(len(x.events))
    events = x.events[:drop] + x.events[drop + 1 :]
    return ActivityInstance(
        events=events, label=LABEL_ANOMALY_SEQ, source_id=f"seq:{x.source_id}"
    )


def make_anomaly_ti(
    x: ActivityInstance, cfg: RunConfig, rng: random.Random
) -> ActivityInstance:
    """Stretch one uniformly random interval by cfg.ti_multiplier.

    Later events shift by the added time; the key sequence is unchanged. A
    stretched interval longer than MAX_TIMESTAMP_MS, which no log can hold,
    is an error.
    """
    if len(x.events) < 2:
        raise ValueError(f"instance {x.source_id!r}: need at least 2 events to stretch an interval")
    stretched = list(intervals(x))
    idx = rng.randrange(len(stretched))
    gap = stretched[idx] * cfg.ti_multiplier
    if not gap <= MAX_TIMESTAMP_MS:  # inf too
        raise ValueError(
            f"instance {x.source_id!r}: ti_multiplier {cfg.ti_multiplier} stretches a "
            f"{stretched[idx]} ms interval past {MAX_TIMESTAMP_MS} ms"
        )
    stretched[idx] = int(round(gap))
    return _rebuild(x, stretched, LABEL_ANOMALY_TI, f"ti:{x.source_id}")


def make_anomalies(
    kind: str, pool: list[ActivityInstance], count: int, cfg: RunConfig, rng: random.Random
) -> list[ActivityInstance]:
    """count anomalies of kind "seq" (make_anomaly_seq) or "ti" (make_anomaly_ti) from pool.

    The sources are count distinct draws when the pool allows it, else draws
    with replacement, and all are drawn before the first anomaly is made.
    """
    if kind not in ("seq", "ti"):
        raise ValueError(f"unknown anomaly kind {kind!r}")
    if not pool:
        raise ValueError(f"pool must be non-empty for {kind} anomalies")
    if count <= len(pool):
        sources = rng.sample(pool, count)
    else:
        sources = [pool[rng.randrange(len(pool))] for _ in range(count)]
    if kind == "seq":
        return [make_anomaly_seq(src, rng) for src in sources]
    return [make_anomaly_ti(src, cfg, rng) for src in sources]


def augment_normals(
    pool: list[ActivityInstance], target_count: int, rng: random.Random
) -> list[ActivityInstance]:
    """Forge target_count midpoint instances from random distinct pool pairs."""
    if not pool:
        raise ValueError("pool must be non-empty")
    reference = pool[0].key_sequence()
    for inst in pool[1:]:
        if inst.key_sequence() != reference:
            first = pool[0].source_id
            raise ValueError(f"instance {inst.source_id!r}: key sequence differs from {first!r}'s")
    if target_count > 0 and len(pool) < 2:
        raise ValueError(
            f"instance {pool[0].source_id!r}: the only pool instance; "
            "need at least 2 pool instances to draw a distinct pair"
        )
    out: list[ActivityInstance] = []
    for _ in range(target_count):
        i, j = rng.sample(range(len(pool)), 2)
        out.append(_midpoint(pool[i], pool[j]))
    return out


def split_sets(
    mined: list[tuple[ActivityPattern, list[ActivityInstance]]], cfg: RunConfig
) -> tuple[list[ActivityInstance], list[ActivityInstance]]:
    """The labeled (training set, test set) forged from each mined pattern's segments.

    Per activity, the segments become normals, topped up by augment_normals
    to train_normal + test_normal and shuffled, and train_anomaly +
    test_anomaly anomalies of each kind are forged from them; the first
    train_normal normals and train_anomaly anomalies of each kind go to the
    training set, the rest to the test set. Three RNG streams, seeded
    cfg.seed + 1 (augment), + 2 (forge) and + 3 (shuffle), run across the
    activities in mining's order. Settings that leave either set empty are a
    ValueError before any draw.
    """
    if cfg.train_normal + cfg.train_anomaly == 0:
        raise ValueError("train_normal + train_anomaly must be >= 1, or no model can be trained")
    if cfg.test_normal + cfg.test_anomaly == 0:
        raise ValueError("test_normal + test_anomaly must be >= 1, or nothing is evaluated")
    rng_augment = random.Random(cfg.seed + 1)
    rng_forge = random.Random(cfg.seed + 2)
    rng_split = random.Random(cfg.seed + 3)
    normal_target = cfg.train_normal + cfg.test_normal
    anomalies_per_type = cfg.train_anomaly + cfg.test_anomaly
    cut, anomaly_cut = cfg.train_normal, cfg.train_anomaly
    train_set: list[ActivityInstance] = []
    test_set: list[ActivityInstance] = []
    for _, segments in mined:
        originals = [inst._replace(label=LABEL_NORMAL) for inst in segments]
        synthetic = augment_normals(originals, max(0, normal_target - len(originals)), rng_augment)
        normals = originals + synthetic
        rng_split.shuffle(normals)
        normals = normals[:normal_target]
        seq = make_anomalies("seq", originals, anomalies_per_type, cfg, rng_forge)
        ti = make_anomalies("ti", originals, anomalies_per_type, cfg, rng_forge)
        train_set += normals[:cut] + seq[:anomaly_cut] + ti[:anomaly_cut]
        test_set += normals[cut:] + seq[anomaly_cut:] + ti[anomaly_cut:]
    return train_set, test_set
