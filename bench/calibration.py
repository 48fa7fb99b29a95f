"""A fixed pure-Python loop that measures how fast the host runs right now.

The benchmark machine is shared: for minutes at a time every CPU-bound
process on it can run up to twice as slowly. Timing this loop right before
and right after each timed operation, and scaling the operation by
REFERENCE_S / (mean of the two), removes most of that slow common factor;
faster fluctuations inside one operation remain. The loop never
changes, and it does the same kind of work as the program's hot paths: a
longest-common-subsequence table over short tuples of strings (as in
alignment) and a pairwise scan over sorted prefix sums (as in the interval
sweep).
"""

from __future__ import annotations

import time

# Sets the unit of scaled times: the loop's typical time inside benchmark
# runs on the machine the baseline was recorded on, so that scaled times read
# close to wall seconds there.
REFERENCE_S = 0.062

_LEFT = tuple((f"D{i % 7}", "motion", "active" if i % 2 else "inactive") for i in range(9))
_RIGHT = tuple((f"D{i % 5}", "motion", "active" if i % 3 else "inactive") for i in range(11))
_SCORES = [((k * 7919) % 211) / 97.0 for k in range(100)]


def _lcs(a: tuple, b: tuple) -> int:
    m, n = len(a), len(b)
    table = [[0] * (n + 1) for _ in range(m + 1)]
    for i in range(m - 1, -1, -1):
        row, below = table[i], table[i + 1]
        for j in range(n - 1, -1, -1):
            row[j] = below[j + 1] + 1 if a[i] == b[j] else max(below[j], row[j + 1])
    return table[0][0]


def _sweep(scores: list[float]) -> tuple:
    ordered = sorted(scores)
    upto = [0.0]
    for s in ordered:
        upto.append(upto[-1] + s)
    best = None
    for i in range(len(ordered)):
        for j in range(i, len(ordered)):
            cand = (upto[j + 1] - upto[i], ordered[j] - ordered[i], -ordered[i])
            if best is None or cand > best:
                best = cand
    return best


def work() -> int:
    total = 0
    for _ in range(1800):
        total += _lcs(_LEFT, _RIGHT)
    for _ in range(25):
        total += len(_sweep(_SCORES))
    return total


def seconds() -> float:
    """Wall time of one run of `work`."""
    start = time.perf_counter()
    work()
    return time.perf_counter() - start
