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
from functools import lru_cache
from typing import NamedTuple

from tempoguard.events import ActivityInstance, ActivityPattern


class Alignment(NamedTuple):
    """An ordered pairing of pattern positions to instance positions.

    pairs[k] = (pattern_index, instance_index); both strictly increase.
    """

    pairs: tuple[tuple[int, int], ...]

    @property
    def matched(self) -> int:
        return len(self.pairs)


class ScoreBreakdown(NamedTuple):
    """Everything score() computes for one (pattern, instance) pair."""

    completeness: float
    timing_similarity: float
    angle_rad: float
    total: float
    matched: int
    unmatched_test_events: int


def align(pattern: ActivityPattern, instance: ActivityInstance) -> Alignment:
    """Longest in-order match between a pattern's keys and an instance's keys.

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
    pairs = _align_codes(pattern.key_codes, tuple(codes))
    return Alignment(tuple((i, positions[j]) for i, j in pairs))


# Distinct (pattern codes, projected instance codes) inputs kept by _align_codes.
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
    pattern: ActivityPattern, instance: ActivityInstance, alignment: Alignment
) -> tuple[tuple[float, ...], tuple[float, ...]]:
    """Interval vectors between consecutive matched events.

    Returns (test_intervals, reference_intervals), each of length matched-1.
    The test side is the instance's elapsed milliseconds between the matched
    events; the reference side sums the pattern's mean intervals across the
    span, so an interval bridging a missing pattern event absorbs its means.
    """
    pairs = alignment.pairs
    test: list[float] = []
    ref: list[float] = []
    for (p0, t0), (p1, t1) in zip(pairs, pairs[1:]):
        test.append(float(instance.events[t1].timestamp_ms - instance.events[t0].timestamp_ms))
        ref.append(float(sum(pattern.mean_intervals_ms[p0:p1])))
    return tuple(test), tuple(ref)


def angle(u: tuple[float, ...], v: tuple[float, ...]) -> float:
    """Angle in radians between two equal-length vectors, in [0, pi].

    Edge cases: two empty vectors are parallel (0); two zero vectors are
    treated as parallel (0); exactly one zero vector is maximally apart for
    non-negative data (pi/2). Computed via atan2 of the normalized sum and
    difference, which stays exact for identical or proportional inputs.
    """
    if len(u) != len(v):
        raise ValueError(f"vector lengths differ: {len(u)} != {len(v)}")
    if not u:
        return 0.0
    nu = math.sqrt(math.fsum(x * x for x in u))
    nv = math.sqrt(math.fsum(x * x for x in v))
    if nu == 0.0 and nv == 0.0:
        return 0.0
    if nu == 0.0 or nv == 0.0:
        return math.pi / 2
    diff = math.sqrt(math.fsum((x / nu - y / nv) ** 2 for x, y in zip(u, v)))
    summ = math.sqrt(math.fsum((x / nu + y / nv) ** 2 for x, y in zip(u, v)))
    return 2.0 * math.atan2(diff, summ)


def score(pattern: ActivityPattern, instance: ActivityInstance, alpha: float) -> ScoreBreakdown:
    """Score one instance against one pattern with timing weight alpha."""
    if not 0 <= alpha < math.inf:
        raise ValueError(f"alpha must be a finite number >= 0, not {alpha!r}")
    n = len(pattern.keys)  # ActivityPattern has at least one key
    alignment = align(pattern, instance)
    matched = alignment.matched
    completeness = matched / n
    theta = 0.0
    if n >= 2 and matched >= 2:
        test, ref = merged_intervals(pattern, instance, alignment)
        theta = angle(test, ref)
        timing = 1.0 - theta / math.pi
    elif n >= 2:
        timing = 0.0  # fewer than two matches leaves no interval to compare
    else:
        timing = 1.0 if matched == 1 else 0.0
    return ScoreBreakdown(
        completeness=completeness,
        timing_similarity=timing,
        angle_rad=theta,
        total=completeness + alpha * timing,
        matched=matched,
        unmatched_test_events=len(instance.events) - matched,
    )
