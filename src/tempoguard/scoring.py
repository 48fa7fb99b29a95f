"""Scoring a test activity instance against a learned pattern.

The score has two parts: a completeness fraction (how many pattern events the
instance matched, in order) and a timing similarity derived from the angle
between two interval vectors — the instance's elapsed times between its
matched events, and the pattern's mean intervals with the spans covering any
missing events summed up. `score` returns both parts with the alignment they
rest on. The total at a timing weight is completeness plus the weight times
the timing similarity, and `ScoreBreakdown.blend(weight)` is the one place
that computes it.
"""

from __future__ import annotations

import math
from collections import namedtuple
from collections.abc import Sequence
from functools import lru_cache
from operator import mul

from tempoguard.events import ActivityInstance, ActivityPattern, Event


class ScoreBreakdown(namedtuple("ScoreBreakdown", "completeness timing_similarity pairs")):
    """What score() computes for one (pattern, instance) pair: the two parts and align's pairs."""

    __slots__ = ()

    def blend(self, weight: float) -> float:
        """The total score at timing weight `weight`."""
        return self.completeness + weight * self.timing_similarity


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


def _elapsed_ms(events: tuple[Event, ...], at: tuple[int, ...]) -> list[float]:
    """The milliseconds between consecutive events at the (two or more) indices `at`."""
    test: list[float] = []
    last = events[at[0]].timestamp_ms
    for t in at[1:]:  # each event's time is read once
        now = events[t].timestamp_ms
        test.append(float(now - last))
        last = now
    return test


@lru_cache(maxsize=ALIGN_CACHE_SIZE)
def _reference_side(
    means: tuple[float, ...], steps: tuple[int, ...]
) -> tuple[float, tuple[float, ...]]:
    """The reference intervals between matched `steps` as `_angle_to` takes them.

    Each interval sums the pattern's means between two consecutive matched
    steps, so one that bridges a missing step absorbs its means. Returned are
    their norm and, when the norm is not 0, each interval divided by it. They
    depend on nothing but the means and the steps, so a repeated alignment of
    one pattern reuses them.
    """
    ref = [float(sum(means[p0:p1])) for p0, p1 in zip(steps, steps[1:])]
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


def score(pattern: ActivityPattern, instance: ActivityInstance) -> ScoreBreakdown:
    """Score one instance against one pattern: completeness, timing similarity and pairs."""
    n = len(pattern.keys)  # ActivityPattern has at least one key
    pairs = align(pattern, instance)
    matched = len(pairs)
    if n >= 2 and matched >= 2:
        steps, at = zip(*pairs)
        v_norm, v_unit = _reference_side(pattern.mean_intervals_ms, steps)
        timing = 1.0 - _angle_to(_elapsed_ms(instance.events, at), v_norm, v_unit) / math.pi
    elif n >= 2:
        timing = 0.0  # fewer than two matches leaves no interval to compare
    else:
        timing = 1.0 if matched == 1 else 0.0
    # ScoreBreakdown checks no field, so tuple.__new__ skips only its generated __new__.
    return tuple.__new__(ScoreBreakdown, (matched / n, timing, pairs))
