"""Core domain types: device events, activity instances, activity patterns.

All types are immutable after construction and validate their invariants up
front, so downstream code can assume well-formed values. Time is integer
epoch milliseconds UTC throughout; second-resolution sources are multiplied
by 1000 on ingest (avoids float drift in log arithmetic).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property

LABEL_NORMAL = "normal"
LABEL_ANOMALY_SEQ = "anomaly_seq"
LABEL_ANOMALY_TI = "anomaly_ti"
LABEL_UNLABELED = "unlabeled"

VALID_LABELS = frozenset({LABEL_NORMAL, LABEL_ANOMALY_SEQ, LABEL_ANOMALY_TI, LABEL_UNLABELED})
ANOMALY_LABELS = frozenset({LABEL_ANOMALY_SEQ, LABEL_ANOMALY_TI})


@dataclass(frozen=True)
class EventKey:
    """Identity of a discrete device state change: (device, attribute, state).

    State is part of the identity: "motion/active" and "motion/inactive" are
    different keys. Equality is exact string equality on all three fields.
    """

    device: str
    attribute: str
    state: str

    def __post_init__(self) -> None:
        for name in ("device", "attribute", "state"):
            if not getattr(self, name):
                raise ValueError(f"EventKey.{name} must be non-empty")


@dataclass(frozen=True)
class Event:
    """One timestamped device state change.

    raw_value keeps the original log value (possibly numeric like "56.0");
    numeric values are carried but never become pattern states.
    """

    timestamp_ms: int
    key: EventKey
    raw_value: str

    def __post_init__(self) -> None:
        if self.timestamp_ms < 0:
            raise ValueError("Event.timestamp_ms must be >= 0")


@dataclass(frozen=True)
class ActivityInstance:
    """An ordered, contiguous run of events produced by one user activity.

    Timestamps must be non-decreasing; equal timestamps keep log order.
    """

    events: tuple[Event, ...]
    label: str = LABEL_UNLABELED
    source_id: str = ""

    def __post_init__(self) -> None:
        object.__setattr__(self, "events", tuple(self.events))
        if not self.events:
            raise ValueError("ActivityInstance.events must be non-empty")
        if self.label not in VALID_LABELS:
            raise ValueError(f"unknown label {self.label!r}")
        for a, b in zip(self.events, self.events[1:]):
            if b.timestamp_ms < a.timestamp_ms:
                raise ValueError("ActivityInstance timestamps must be non-decreasing")

    def key_sequence(self) -> tuple[EventKey, ...]:
        return tuple(e.key for e in self.events)


@dataclass(frozen=True)
class ActivityPattern:
    """Learned reference for one activity: key sequence plus mean intervals.

    mean_intervals_ms[i] is the average gap between the i-th and (i+1)-th
    events over the `support` instances the pattern was built from.
    """

    name: str
    keys: tuple[EventKey, ...]
    mean_intervals_ms: tuple[float, ...]
    support: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "keys", tuple(self.keys))
        object.__setattr__(self, "mean_intervals_ms", tuple(float(v) for v in self.mean_intervals_ms))
        if not self.keys:
            raise ValueError("ActivityPattern.keys must be non-empty")
        if len(self.mean_intervals_ms) != len(self.keys) - 1:
            raise ValueError("mean_intervals_ms must have length len(keys) - 1")
        if self.support < 1:
            raise ValueError("ActivityPattern.support must be >= 1")
        if any(v < 0 for v in self.mean_intervals_ms):
            raise ValueError("mean intervals must be non-negative")

    @cached_property
    def key_numbering(self) -> dict[tuple[str, str, str], int]:
        """Each distinct key's (device, attribute, state), numbered 0..k-1 by first occurrence.

        Built once per pattern. Plain string triples hash and compare in C,
        where EventKey's generated __hash__ and __eq__ run in Python.
        """
        numbering: dict[tuple[str, str, str], int] = {}
        for k in self.keys:
            numbering.setdefault((k.device, k.attribute, k.state), len(numbering))
        return numbering

    @cached_property
    def key_codes(self) -> tuple[int, ...]:
        """The keys as their numbers: equal codes exactly when the keys are equal."""
        numbering = self.key_numbering
        return tuple(numbering[(k.device, k.attribute, k.state)] for k in self.keys)


def intervals(instance: ActivityInstance) -> tuple[int, ...]:
    """Inter-event gaps in milliseconds; empty for single-event instances."""
    ev = instance.events
    return tuple(b.timestamp_ms - a.timestamp_ms for a, b in zip(ev, ev[1:]))


def with_label(instance: ActivityInstance, label: str) -> ActivityInstance:
    """Copy of `instance` with a new label."""
    return replace(instance, label=label)


def is_numeric_value(raw_value: str) -> bool:
    """True if the raw log value is numeric (e.g. "56.0") rather than a discrete state."""
    try:
        float(raw_value)
    except ValueError:
        return False
    return True
