"""Mining frequent event-key sequences into timing patterns.

Instances, free of numeric readings since the readers drop those, are grouped by their exact
event-key sequence; every group of min_support segments or more and events.MIN_ACTIVITY_EVENTS
keys or more (segmentation's floor too) becomes one pattern, whose reference interval vector
is the component-wise mean over the group. Mining alone decides which segments make each
pattern: callers take them from the pairs that `mine_patterns` returns.
"""

from __future__ import annotations

import json

from tempoguard.config import RunConfig
from tempoguard.events import (
    MIN_ACTIVITY_EVENTS,
    ActivityInstance,
    ActivityPattern,
    EventKey,
    intervals,
    json_field,
    json_records,
    json_value,
)
from tempoguard.simulate import builtin_specs


def mine_patterns(
    instances: list[ActivityInstance],
    cfg: RunConfig | None = None,
) -> list[tuple[ActivityPattern, list[ActivityInstance]]]:
    """Group instances by exact key sequence; each frequent group becomes a pattern.

    Returns (pattern, segments) pairs, where segments are the instances the
    pattern was averaged from, in input order. Patterns come back sorted by
    support descending, then by key sequence as strings, so they do not
    depend on input order. A pattern with a built-in activity's key sequence
    takes that activity's name; any other is "pattern-N", N its place in the
    output. Mining no pattern at all is a ValueError that counts the
    segments and the distinct key sequences.
    """
    cfg = cfg or RunConfig()
    builtin = {spec.key_sequence(): spec.name for spec in builtin_specs()}
    groups: dict[tuple[EventKey, ...], list[ActivityInstance]] = {}
    for inst in instances:
        groups.setdefault(inst.key_sequence(), []).append(inst)

    mined: list[tuple[ActivityPattern, list[ActivityInstance]]] = []
    for keys, group in sorted(groups.items(), key=lambda kv: (-len(kv[1]), kv[0])):
        if len(group) < cfg.min_support or len(keys) < MIN_ACTIVITY_EVENTS:
            continue
        means = tuple(sum(col) / len(group) for col in zip(*map(intervals, group)))
        name = builtin.get(keys, f"pattern-{len(mined) + 1}")
        mined.append((ActivityPattern(name, keys, means, len(group)), group))
    if not mined:
        raise ValueError(
            f"no pattern mined (segments: {len(instances)}, distinct key sequences: "
            f"{len(groups)}); lower min_support, or add data"
        )
    return mined


def patterns_to_json(patterns: list[ActivityPattern]) -> str:
    """Serialize patterns to a JSON array (the pattern-file format)."""
    objs = [{**p._asdict(), "keys": [k._asdict() for k in p.keys]} for p in patterns]
    return json.dumps(objs, indent=2) + "\n"


def patterns_from_json(text: str) -> list[ActivityPattern]:
    """Load a pattern file: a non-empty JSON array of pattern objects, no two of one name."""
    return json_records(text, "pattern", _pattern_from_obj, "name")


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
