"""Core domain types (events, instances, patterns) and the artifact loaders' JSON type checks.

All types are immutable after construction and validate their invariants up
front, so downstream code can assume well-formed values. Time is integer
epoch milliseconds UTC throughout; second-resolution sources are multiplied
by 1000 on ingest (avoids float drift in log arithmetic).

Every record here is a named tuple, so the hot paths build, hash and compare
them in C, and none needs the dataclasses module to load. Each `__new__`
checks its fields, and `_make` goes through `__new__`, so `_replace` checks
them too. A record unpacks like a tuple and equals the plain tuple of its
fields; an EventKey equals, hashes and sorts like its (device, attribute,
state) strings. ActivityPattern alone has an instance dict: its two
cached_property numberings are kept there, and its fields stay read-only.
"""

from __future__ import annotations

import json
import math
from collections import namedtuple
from collections.abc import Callable
from functools import cached_property

LABEL_NORMAL = "normal"
LABEL_ANOMALY_SEQ = "anomaly_seq"
LABEL_ANOMALY_TI = "anomaly_ti"
LABEL_UNLABELED = "unlabeled"

# 9999-12-31T23:59:59.999Z: the latest time a log may hold, so no span is longer.
MAX_TIMESTAMP_MS = 253_402_300_799_999

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


class Event(namedtuple("Event", "timestamp_ms key")):
    """One timestamped device state change, logged with the value key.state.

    A numeric reading ("21.5") is not an event: the readers in ingest drop it.
    """

    __slots__ = ()

    def __new__(cls, timestamp_ms: int, key: EventKey) -> Event:
        if type(timestamp_ms) is not int or timestamp_ms < 0:  # a bool is not a time either
            raise ValueError(f"Event.timestamp_ms must be an int >= 0, not {timestamp_ms!r}")
        if not isinstance(key, EventKey):
            raise ValueError(f"Event.key must be an EventKey, not {type(key).__name__}")
        return tuple.__new__(cls, (timestamp_ms, key))

    _make = classmethod(lambda cls, iterable: cls(*iterable))  # so _replace validates too


def check_tags(label: str, source_id: str) -> None:
    """The checks an ActivityInstance makes of its label and source_id."""
    if label not in VALID_LABELS:
        raise ValueError(f"unknown label {label!r}")
    if not isinstance(source_id, str):
        raise ValueError(f"source_id must be a string, not {type(source_id).__name__}")


class ActivityInstance(namedtuple("ActivityInstance", "events label source_id")):
    """An ordered, contiguous run of events produced by one user activity.

    Timestamps must be non-decreasing; equal timestamps keep log order.
    """

    __slots__ = ()

    def __new__(
        cls, events: tuple[Event, ...], label: str = LABEL_UNLABELED, source_id: str = ""
    ) -> ActivityInstance:
        events = tuple(events)
        if not events:
            raise ValueError("ActivityInstance.events must be non-empty")
        check_tags(label, source_id)
        for a, b in zip(events, events[1:]):
            if b.timestamp_ms < a.timestamp_ms:
                raise ValueError("ActivityInstance timestamps must be non-decreasing")
        return tuple.__new__(cls, (events, label, source_id))

    _make = classmethod(lambda cls, iterable: cls(*iterable))  # so _replace validates too

    def key_sequence(self) -> tuple[EventKey, ...]:
        return tuple(e.key for e in self.events)


class ActivityPattern(namedtuple("ActivityPattern", "name keys mean_intervals_ms support")):
    """Learned reference for one activity: key sequence plus mean intervals.

    mean_intervals_ms[i] is the average gap between the i-th and (i+1)-th
    events over the `support` instances the pattern was built from.
    Declared without __slots__: the cached numberings live in the instance dict.
    """

    def __new__(
        cls,
        name: str,
        keys: tuple[EventKey, ...],
        mean_intervals_ms: tuple[float, ...],
        support: int,
    ) -> ActivityPattern:
        keys = tuple(keys)
        mean_intervals_ms = tuple(float(v) for v in mean_intervals_ms)
        if not keys:
            raise ValueError("ActivityPattern.keys must be non-empty")
        if len(mean_intervals_ms) != len(keys) - 1:
            raise ValueError("mean_intervals_ms must have length len(keys) - 1")
        if support < 1:
            raise ValueError("ActivityPattern.support must be >= 1")
        if not all(0 <= v < math.inf for v in mean_intervals_ms):
            raise ValueError("mean_intervals_ms must be finite and non-negative")
        # No log spans longer. sum, not math.fsum: an overflow gives inf, not OverflowError.
        if sum(mean_intervals_ms) > MAX_TIMESTAMP_MS:
            raise ValueError(f"mean_intervals_ms must sum to at most {MAX_TIMESTAMP_MS} ms")
        return tuple.__new__(cls, (name, keys, mean_intervals_ms, support))

    _make = classmethod(lambda cls, iterable: cls(*iterable))  # so _replace validates too

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


def require_labeled(instances: list[ActivityInstance], what: str) -> None:
    """Reject an empty `what` set, or its first unlabeled instance in list order."""
    if not instances:
        raise ValueError(f"{what} set is empty")
    for inst in instances:
        if inst.label == LABEL_UNLABELED:
            raise ValueError(f"unlabeled instance {inst.source_id!r} in {what} set")


def is_numeric_value(value: str) -> bool:
    """True if a logged value is numeric (e.g. "56.0") rather than a discrete state."""
    try:
        float(value)
    except ValueError:
        return False
    return True


def json_value(value, kind: type | tuple[type, ...], what: str):
    """`value` if JSON gave it as `kind`, or as one of a tuple of kinds.

    A float may be an int; a bool is never a number. Kind float alone gives
    float(value), so an int too large for a float is an error too. The
    message quotes the value cut to SHOWN_VALUE_CHARS characters.
    """
    kinds = kind if isinstance(kind, tuple) else (kind,)
    accepted = kinds + (int,) if float in kinds else kinds
    names = None
    if not isinstance(value, bool) and isinstance(value, accepted):
        if kind is not float:
            return value
        try:
            return float(value)
        except OverflowError:
            names = "a number that fits in a float"
    names = names or " or ".join(_JSON_NAMES[k] for k in kinds)
    try:
        shown = json.dumps(value)
    except RecursionError:  # parsed a few frames up the stack, too deep to encode here
        shown = "a value nested too deeply to show"
    if len(shown) > SHOWN_VALUE_CHARS:
        shown = shown[: SHOWN_VALUE_CHARS - 1] + "…"
    raise ValueError(f"{what} must be {names}, not {shown}")


def json_field(obj: dict, name: str, kind: type | tuple[type, ...]):
    """obj[name] checked by json_value; a missing field reads as null."""
    return json_value(obj.get(name), kind, repr(name))


def json_document(text: str, what: str):
    """json.loads(text); a parse error, even nesting too deep to parse, names `what`."""
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise ValueError(f"{what}: invalid JSON ({exc})") from None


def json_records(text: str, what: str, build: Callable[[dict], object], unique: str) -> list:
    """build(obj) per object of a non-empty JSON array; errors name the entry by number.

    No two records may share the value of their attribute `unique`.
    """
    out = []
    seen = set()
    records = json_value(json_document(text, f"{what} file"), list, f"a {what} file")
    if not records:
        raise ValueError(f"a {what} file must hold at least one {what}")
    for n, obj in enumerate(records, start=1):
        try:
            record = build(json_value(obj, dict, "the entry"))
            ident = getattr(record, unique)
            if ident in seen:
                raise ValueError(f"duplicate {unique} {ident!r}")
        except ValueError as exc:
            raise ValueError(f"{what} {n}: {exc}") from None
        seen.add(ident)
        out.append(record)
    return out
