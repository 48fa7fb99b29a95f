"""Scoring a test activity instance against a learned pattern.

The score has two parts: a completeness fraction (how many pattern events the
instance matched, in order) and a timing similarity derived from the angle
between two interval vectors — the instance's elapsed times between its
matched events, and the pattern's mean intervals with the spans covering any
missing events summed up. A weight blends the parts:

    total = completeness + weight * timing_similarity
"""

from __future__ import annotations

import math
from collections import namedtuple
from collections.abc import Sequence
from functools import lru_cache
from operator import mul

from tempoguard.events import ActivityInstance, ActivityPattern, Event


class ScoreBreakdown(
    namedtuple(
        "ScoreBreakdown",
        "completeness timing_similarity angle_rad total matched unmatched_test_events",
    )
):
    """Everything score() computes for one (pattern, instance) pair."""

    __slots__ = ()


def align(pattern: ActivityPattern, instance: ActivityInstance) -> tuple[tuple[int, int], ...]:
    """Longest in-order match between a pattern's keys and an instance's keys.

    Returns the matched (pattern_index, instance_index) pairs; both indices
    strictly increase, and their count is the number of matched events.

    Deterministic among maximum matchings: the walk in `_align_codes` always
    takes an equal-key pair when one is available (doing so never shortens the
    best completion) and otherwise advances the instance side on ties, which
    keeps matches at the earliest possible pattern positions.

    The table runs on small ints, not on keys. The pattern's keys are numbered
    once per pattern (`ActivityPattern.key_codes`), and the instance is
    projected onto that numbering: events whose key is not in the pattern are
    dropped and the original indices of the rest are kept. This leaves the
    alignment unchanged. A foreign key never matches, so its table column
    equals the next one and the walk's tie rule always steps past it. The
    projected pair of code tuples is memoized (at most `ALIGN_CACHE_SIZE`
    entries), so a repeated key sequence costs one O(n) projection and a
    cache lookup instead of the O(m·n) table; a new one costs the table on the
    projected length.
    """
    numbering = pattern.key_numbering
    positions: list[int] = []
    codes: list[int] = []
    for j, event in enumerate(instance.events):
        code = numbering.get(event.key)
        if code is not None:
            positions.append(j)
            codes.append(code)
    if not codes:  # no key in the pattern: nothing to match
        return ()
    pairs = _align_codes(pattern.key_codes, tuple(codes))
    if len(positions) == len(instance.events):  # nothing dropped: the indices are the instance's
        return pairs
    return tuple((i, positions[j]) for i, j in pairs)


# Entries kept by each of the two memos: the distinct (pattern codes, projected
# instance codes) inputs of _align_codes, and the distinct (mean intervals,
# matched pattern steps) inputs of _reference_side.
ALIGN_CACHE_SIZE = 1024


@lru_cache(maxsize=ALIGN_CACHE_SIZE)
def _align_codes(
    pattern_codes: tuple[int, ...], instance_codes: tuple[int, ...]
) -> tuple[tuple[int, int], ...]:
    """Longest in-order match of two code sequences as (pattern, instance) index pairs."""
    m, n = len(pattern_codes), len(instance_codes)
    # dp[i][j] = longest match of pattern_codes[i:] vs instance_codes[j:]
    dp = [[0] * (n + 1) for _ in range(m + 1)]
    for i in range(m - 1, -1, -1):
        row, below = dp[i], dp[i + 1]
        for j in range(n - 1, -1, -1):
            if pattern_codes[i] == instance_codes[j]:
                row[j] = below[j + 1] + 1
            else:
                row[j] = max(below[j], row[j + 1])
    pairs: list[tuple[int, int]] = []
    i = j = 0
    while i < m and j < n:
        if pattern_codes[i] == instance_codes[j]:
            pairs.append((i, j))
            i += 1
            j += 1
        elif dp[i][j + 1] >= dp[i + 1][j]:
            j += 1
        else:
            i += 1
    return tuple(pairs)


def merged_intervals(
    pattern: ActivityPattern, instance: ActivityInstance, pairs: tuple[tuple[int, int], ...]
) -> tuple[tuple[float, ...], tuple[float, ...]]:
    """Interval vectors between consecutive matched events, given align's pairs.

    Returns (test_intervals, reference_intervals), each of length matched-1.
    The test side is the instance's elapsed milliseconds between the matched
    events; the reference side sums the pattern's mean intervals across the
    span, so an interval bridging a missing pattern event absorbs its means.
    """
    if len(pairs) < 2:
        return (), ()
    steps, at = zip(*pairs)
    return tuple(_elapsed_ms(instance.events, at)), tuple(
        _reference_intervals(pattern.mean_intervals_ms, steps)
    )


def _elapsed_ms(events: tuple[Event, ...], at: tuple[int, ...]) -> list[float]:
    """The milliseconds between consecutive events at the (two or more) indices `at`."""
    test: list[float] = []
    last = events[at[0]].timestamp_ms
    for t in at[1:]:  # each event's time is read once
        now = events[t].timestamp_ms
        test.append(float(now - last))
        last = now
    return test


def _reference_intervals(means: tuple[float, ...], steps: tuple[int, ...]) -> list[float]:
    """The mean intervals summed between consecutive matched pattern steps."""
    ref: list[float] = []
    for p0, p1 in zip(steps, steps[1:]):
        ref.append(float(sum(means[p0:p1])))
    return ref


@lru_cache(maxsize=ALIGN_CACHE_SIZE)
def _reference_side(
    means: tuple[float, ...], steps: tuple[int, ...]
) -> tuple[float, tuple[float, ...]]:
    """The reference intervals between matched `steps` as `_angle_to` takes them.

    That is their norm and, when the norm is not 0, each interval divided by
    it. They depend on nothing but the pattern's means and the matched steps,
    so a repeated alignment of one pattern reuses them.
    """
    ref = _reference_intervals(means, steps)
    norm = math.sqrt(math.fsum(map(mul, ref, ref)))
    return norm, tuple([y / norm for y in ref]) if norm else ()


def angle(u: tuple[float, ...], v: tuple[float, ...]) -> float:
    """Angle in radians between two equal-length vectors, in [0, pi].

    Edge cases: two empty vectors are parallel (0); two zero vectors are
    treated as parallel (0); exactly one zero vector is maximally apart for
    non-negative data (pi/2). Computed via atan2 of the normalized sum and
    difference, which stays exact for identical or proportional inputs.
    """
    if len(u) != len(v):
        raise ValueError(f"vector lengths differ: {len(u)} != {len(v)}")
    v_norm = math.sqrt(math.fsum(map(mul, v, v)))
    return _angle_to(u, v_norm, [y / v_norm for y in v] if v_norm else ())


def _angle_to(u: Sequence[float], v_norm: float, v_unit: Sequence[float]) -> float:
    """`angle(u, v)` for a v of u's length given as its norm and, unless 0, v / v_norm."""
    if not u:
        return 0.0
    nu = math.sqrt(math.fsum(map(mul, u, u)))
    if nu == 0.0 and v_norm == 0.0:
        return 0.0
    if nu == 0.0 or v_norm == 0.0:
        return math.pi / 2
    diffs: list[float] = []
    sums: list[float] = []
    for x, y in zip(u, v_unit):  # one pass, dividing each component once
        x = x / nu
        diffs.append((x - y) ** 2)
        sums.append((x + y) ** 2)
    return 2.0 * math.atan2(math.sqrt(math.fsum(diffs)), math.sqrt(math.fsum(sums)))


def score(pattern: ActivityPattern, instance: ActivityInstance, alpha: float) -> ScoreBreakdown:
    """Score one instance against one pattern with timing weight alpha."""
    if not 0 <= alpha < math.inf:
        raise ValueError(f"alpha must be a finite number >= 0, not {alpha!r}")
    n = len(pattern.keys)  # ActivityPattern has at least one key
    pairs = align(pattern, instance)
    matched = len(pairs)
    completeness = matched / n
    theta = 0.0
    if n >= 2 and matched >= 2:
        steps, at = zip(*pairs)
        v_norm, v_unit = _reference_side(pattern.mean_intervals_ms, steps)
        theta = _angle_to(_elapsed_ms(instance.events, at), v_norm, v_unit)
        timing = 1.0 - theta / math.pi
    elif n >= 2:
        timing = 0.0  # fewer than two matches leaves no interval to compare
    else:
        timing = 1.0 if matched == 1 else 0.0
    total = completeness + alpha * timing
    unmatched = len(instance.events) - matched
    # ScoreBreakdown checks no field, so tuple.__new__ skips only its generated __new__.
    return tuple.__new__(ScoreBreakdown, (completeness, timing, theta, total, matched, unmatched))
