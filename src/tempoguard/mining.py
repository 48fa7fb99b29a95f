"""Mining frequent event-key sequences into timing patterns.

Instances are grouped by their exact event-key sequence; every group that is
frequent enough (and long enough) becomes one pattern whose reference interval
vector is the component-wise arithmetic mean over the group.
"""

from __future__ import annotations

import json
import logging

from tempoguard.config import RunConfig
from tempoguard.events import (
    ActivityInstance,
    ActivityPattern,
    EventKey,
    intervals,
    is_numeric_value,
    json_field,
    json_records,
    json_value,
)

logger = logging.getLogger(__name__)


def build_pattern(name: str, group: list[ActivityInstance]) -> ActivityPattern:
    """Average a group of identically-sequenced instances into one pattern."""
    if not group:
        raise ValueError("group must be non-empty")
    keys = group[0].key_sequence()
    for inst in group[1:]:
        other = inst.key_sequence()
        if other != keys:
            limit = min(len(keys), len(other))
            pos = next(
                (k for k in range(limit) if keys[k] != other[k]),
                limit,
            )
            raise ValueError(f"mismatch at {pos}")
    vectors = [intervals(inst) for inst in group]
    means = tuple(sum(col) / len(group) for col in zip(*vectors))
    return ActivityPattern(name=name, keys=keys, mean_intervals_ms=means, support=len(group))


def _discrete_events(instance: ActivityInstance) -> ActivityInstance | None:
    """Drop numeric-valued events; None if nothing discrete remains."""
    kept = tuple(e for e in instance.events if not is_numeric_value(e.raw_value))
    if not kept:
        return None
    if len(kept) == len(instance.events):
        return instance
    return ActivityInstance(events=kept, label=instance.label, source_id=instance.source_id)


def mine_patterns(
    instances: list[ActivityInstance],
    cfg: RunConfig | None = None,
    names: dict[tuple[EventKey, ...], str] | None = None,
) -> list[ActivityPattern]:
    """Group instances by exact key sequence and keep the frequent ones.

    Numeric-valued events are ignored (a warning reports how many). Patterns
    come back sorted by support descending, then by key sequence as strings,
    so the result is independent of input order; names are "pattern-1",
    "pattern-2", ... unless `names` maps a key sequence to a better one.
    """
    cfg = cfg or RunConfig()
    dropped = 0
    groups: dict[tuple[EventKey, ...], list[ActivityInstance]] = {}
    for inst in instances:
        cleaned = _discrete_events(inst)
        dropped += len(inst.events) - (len(cleaned.events) if cleaned else 0)
        if cleaned is None:
            continue
        groups.setdefault(cleaned.key_sequence(), []).append(cleaned)
    if dropped:
        logger.warning("ignored %d numeric-valued events during mining", dropped)

    patterns: list[ActivityPattern] = []
    for keys, group in sorted(groups.items(), key=lambda kv: (-len(kv[1]), kv[0])):
        if len(group) < cfg.min_support or len(keys) < cfg.min_len:
            continue
        name = (names or {}).get(keys, f"pattern-{len(patterns) + 1}")
        patterns.append(build_pattern(name, group))
    return patterns


def patterns_to_json(patterns: list[ActivityPattern]) -> str:
    """Serialize patterns to a JSON array (the pattern-file format)."""
    return json.dumps([_pattern_to_obj(p) for p in patterns], indent=2) + "\n"


def patterns_from_json(text: str) -> list[ActivityPattern]:
    """Load a pattern file: a JSON array of pattern objects."""
    return json_records(text, "pattern", _pattern_from_obj)


def _pattern_to_obj(pattern: ActivityPattern) -> dict:
    return {
        "name": pattern.name,
        "keys": [k._asdict() for k in pattern.keys],
        "mean_intervals_ms": list(pattern.mean_intervals_ms),
        "support": pattern.support,
    }


def _pattern_from_obj(obj: dict) -> ActivityPattern:
    keys = [json_value(k, dict, "each of 'keys'") for k in json_field(obj, "keys", list)]
    gaps = json_field(obj, "mean_intervals_ms", list)
    return ActivityPattern(
        name=json_field(obj, "name", str),
        keys=tuple(
            EventKey(*(json_field(k, f, str) for f in ("device", "attribute", "state")))
            for k in keys
        ),
        mean_intervals_ms=[json_value(x, float, "each of 'mean_intervals_ms'") for x in gaps],
        support=json_field(obj, "support", int),
    )
