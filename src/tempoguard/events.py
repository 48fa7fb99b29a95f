"""Core domain types (events, instances, patterns) and the artifact loaders' JSON type checks.

All types are immutable after construction and validate their invariants up
front, so downstream code can assume well-formed values. Time is integer
epoch milliseconds UTC throughout; second-resolution sources are multiplied
by 1000 on ingest (avoids float drift in log arithmetic).

EventKey and Event are named tuples, so the hot paths build, hash and compare
them in C. They unpack like tuples, and an EventKey equals, hashes and sorts
like the plain (device, attribute, state) tuple of its strings.
"""

from __future__ import annotations

import json
import math
from collections import namedtuple
from collections.abc import Callable
from dataclasses import dataclass, replace
from functools import cached_property

LABEL_NORMAL = "normal"
LABEL_ANOMALY_SEQ = "anomaly_seq"
LABEL_ANOMALY_TI = "anomaly_ti"
LABEL_UNLABELED = "unlabeled"

# What a field of each type is called in messages.
_JSON_NAMES = {
    str: "a string", int: "an integer", float: "a number", list: "an array", dict: "an object"
}

# The longest quote of a wrongly typed JSON value in a message, ellipsis included.
SHOWN_VALUE_CHARS = 80

VALID_LABELS = frozenset({LABEL_NORMAL, LABEL_ANOMALY_SEQ, LABEL_ANOMALY_TI, LABEL_UNLABELED})
ANOMALY_LABELS = frozenset({LABEL_ANOMALY_SEQ, LABEL_ANOMALY_TI})


class EventKey(namedtuple("EventKey", "device attribute state")):
    """Identity of a discrete device state change: (device, attribute, state).

    State is part of the identity: "motion/active" and "motion/inactive" are
    different keys. Equality is exact string equality on all three fields.
    """

    __slots__ = ()

    def __new__(cls, device: str, attribute: str, state: str) -> EventKey:
        for name, value in zip(cls._fields, (device, attribute, state)):
            if not value:
                raise ValueError(f"EventKey.{name} must be non-empty")
        return tuple.__new__(cls, (device, attribute, state))

    _make = classmethod(lambda cls, iterable: cls(*iterable))  # so _replace validates too


class Event(namedtuple("Event", "timestamp_ms key raw_value")):
    """One timestamped device state change.

    raw_value keeps the original log value (possibly numeric like "56.0");
    numeric values are carried but never become pattern states.
    """

    __slots__ = ()

    def __new__(cls, timestamp_ms: int, key: EventKey, raw_value: str) -> Event:
        if timestamp_ms < 0:
            raise ValueError("Event.timestamp_ms must be >= 0")
        return tuple.__new__(cls, (timestamp_ms, key, raw_value))

    _make = classmethod(lambda cls, iterable: cls(*iterable))  # so _replace validates too


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
        if not all(0 <= v < math.inf for v in self.mean_intervals_ms):
            raise ValueError("mean_intervals_ms must be finite and non-negative")

    @cached_property
    def key_numbering(self) -> dict[EventKey, int]:
        """Each distinct key numbered 0..k-1 by first occurrence; built once per pattern."""
        return {k: n for n, k in enumerate(dict.fromkeys(self.keys))}

    @cached_property
    def key_codes(self) -> tuple[int, ...]:
        """The keys as their numbers: equal codes exactly when the keys are equal."""
        numbering = self.key_numbering
        return tuple(numbering[k] for k in self.keys)


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


def json_value(value, kind: type | tuple[type, ...], what: str):
    """`value` if JSON gave it as `kind`, or as one of a tuple of kinds.

    A float may be an int; a bool is never a number. The message quotes
    the value cut to SHOWN_VALUE_CHARS characters.
    """
    kinds = kind if isinstance(kind, tuple) else (kind,)
    accepted = kinds + (int,) if float in kinds else kinds
    if isinstance(value, bool) or not isinstance(value, accepted):
        names = " or ".join(_JSON_NAMES[k] for k in kinds)
        try:
            shown = json.dumps(value)
        except RecursionError:  # parsed a few frames up the stack, too deep to encode here
            shown = "a value nested too deeply to show"
        if len(shown) > SHOWN_VALUE_CHARS:
            shown = shown[: SHOWN_VALUE_CHARS - 1] + "…"
        raise ValueError(f"{what} must be {names}, not {shown}")
    return value


def json_field(obj: dict, name: str, kind: type | tuple[type, ...]):
    """obj[name] checked by json_value; a missing field reads as null."""
    return json_value(obj.get(name), kind, repr(name))


def json_document(text: str, what: str):
    """json.loads(text); a parse error, even nesting too deep to parse, names `what`."""
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise ValueError(f"{what}: invalid JSON ({exc})") from None


def json_records(text: str, what: str, build: Callable[[dict], object]) -> list:
    """build(obj) per object of a JSON array; errors name the entry by number."""
    out = []
    records = json_value(json_document(text, f"{what} file"), list, f"a {what} file")
    for n, obj in enumerate(records, start=1):
        try:
            out.append(build(json_value(obj, dict, "the entry")))
        except ValueError as exc:
            raise ValueError(f"{what} {n}: {exc}") from None
    return out
