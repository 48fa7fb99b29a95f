"""Shared builders for tests: compact ways to spell instances and patterns."""

from __future__ import annotations

from tempoguard.events import (
    ActivityInstance,
    ActivityPattern,
    Event,
    EventKey,
    LABEL_UNLABELED,
)


def key(letter: str) -> EventKey:
    """One synthetic device key per letter; equal letters compare equal."""
    return EventKey(device=letter, attribute="sensor", state="on")


def make_instance(
    letters: str,
    intervals: list[int] | None = None,
    t0: int = 1_000_000,
    label: str = LABEL_UNLABELED,
    source_id: str = "",
) -> ActivityInstance:
    """Instance with one event per letter, spaced by the given intervals (ms)."""
    gaps = intervals if intervals is not None else [1000] * (len(letters) - 1)
    assert len(gaps) == len(letters) - 1
    ts = t0
    events = [Event(ts, key(letters[0]))]
    for letter, gap in zip(letters[1:], gaps):
        ts += gap
        events.append(Event(ts, key(letter)))
    return ActivityInstance(events=tuple(events), label=label, source_id=source_id)


def make_pattern(
    letters: str,
    mean_intervals: list[float] | None = None,
    name: str = "p",
    support: int = 5,
) -> ActivityPattern:
    means = mean_intervals if mean_intervals is not None else [1000.0] * (len(letters) - 1)
    return ActivityPattern(
        name=name,
        keys=tuple(key(ch) for ch in letters),
        mean_intervals_ms=tuple(float(m) for m in means),
        support=support,
    )


def brute_force_longest_match(pattern: str, instance: str) -> int:
    """Exhaustive maximum over all order-preserving matchings (slow oracle)."""
    best = 0
    for mask in range(1 << len(pattern)):
        candidate = [pattern[k] for k in range(len(pattern)) if mask >> k & 1]
        pos = 0
        for ch in instance:
            if pos < len(candidate) and candidate[pos] == ch:
                pos += 1
        if pos == len(candidate):
            best = max(best, len(candidate))
    return best
