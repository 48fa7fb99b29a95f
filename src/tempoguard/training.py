"""Threshold training: sweep the timing weight and pick the accepted interval.

Training blends score breakdowns and scores nothing itself, except in
`train`. Each labeled training instance comes paired with its
ScoreBreakdown against the activity's pattern: the one evaluation.route
made while it grouped the instance (cli.train_models and the alpha curve),
or the one `train` scores for a caller that holds an activity's instances.
For each weight on a grid, the closed interval of blended scores that best
separates normal from anomalous rows becomes that activity's acceptance
band. The grid is the constant ALPHA_GRID, so training takes no settings.
The weight with the highest training accuracy wins (`fit`). `fit` stops at
the first weight whose training accuracy is 1.0, since no later weight can
beat it; `curve` computes every weight.
"""

from __future__ import annotations

import json
import math
from collections import namedtuple
from collections.abc import Iterator
from operator import itemgetter

from tempoguard.events import ActivityInstance, ActivityPattern, LABEL_NORMAL
from tempoguard.events import json_field, json_records, require_labeled
from tempoguard.scoring import ScoreBreakdown, score

# The margin between each edge of an accepted band and the nearest score it excludes.
BOUNDARY_EPSILON = 1e-9

# The timing weights the sweep tries, ascending: 0.0, 0.1, ..., 5.0. Each is
# k * 0.1, not k / 10, so ALPHA_GRID[3] is 0.30000000000000004: `pipeline
# --stats` writes each weight as it is held, and its pinned bytes hold these.
ALPHA_GRID = tuple(k * 0.1 for k in range(51))


class ScoreModel(namedtuple("ScoreModel", "activity alpha lo hi training_accuracy")):
    """A trained per-activity detector: weight plus accepted score interval."""

    __slots__ = ()

    def __new__(
        cls, activity: str, alpha: float, lo: float, hi: float, training_accuracy: float
    ) -> ScoreModel:
        for name, value in (("alpha", alpha), ("lo", lo), ("hi", hi)):
            if not math.isfinite(value):
                raise ValueError(f"{name} must be a finite number")
        if alpha < 0:
            raise ValueError("alpha must be >= 0")
        if lo > hi:
            raise ValueError("lo must be <= hi")
        if not 0.0 <= training_accuracy <= 1.0:
            raise ValueError("training_accuracy must be in [0, 1]")
        return tuple.__new__(cls, (activity, alpha, lo, hi, training_accuracy))

    _make = classmethod(lambda cls, iterable: cls(*iterable))  # so _replace validates too


def best_interval(rows: list[tuple[str, float]]) -> tuple[float, float, float]:
    """Closed score interval [lo, hi] that best separates normal from anomaly.

    Candidate boundaries are the sorted distinct scores nudged by
    ±BOUNDARY_EPSILON. Accuracy counts normals inside plus anomalies outside.
    Ties prefer the widest interval, then the smallest lo. Returns
    (lo, hi, accuracy).

    Costs O(m log m) for m rows, and hashes no score. One stable sort orders
    the rows by score, and one pass over them runs Kadane's maximum-sum run
    (+1 per normal, -1 per anomaly): it keeps the prefix sum and counts the
    anomalies row by row. At the last row of each run of equal scores, that
    score becomes scores[j], and the pass checks the gain of the best
    interval ending at j against the running minimum of the prefix sums
    before it, whose first index it keeps. For a fixed j the accuracy is best
    at the start i with the smallest prefix sum below it, and lo_including
    grows strictly with i, so the earliest such i also has the widest
    interval and the smallest lo. Only the ends j with the best gain become
    candidates, in ascending order, and max keeps the first of any tied
    candidates, as a scan of every (i, j) pair would.
    """
    if not rows:
        raise ValueError("rows must be non-empty")
    epsilon = BOUNDARY_EPSILON
    # Maximize (gain, width, -lo), where gain is normals minus anomalies
    # inside; every achievable selection is a contiguous run of distinct
    # scores, or no scores at all (gain 0).
    ordered = sorted(rows, key=itemgetter(1))
    last = len(ordered) - 1
    scores: list[float] = []  # the distinct scores, ascending
    upto = low = low_at = 0  # prefix sum through scores[j]; min of those before; its first index
    anomalies = 0  # rows not labeled normal
    best_gain = -math.inf
    ends: list[tuple[int, int]] = []  # (start, end) of each run with the best gain so far
    for k, (label, s) in enumerate(ordered):
        if label == LABEL_NORMAL:
            upto += 1
        else:
            upto -= 1
            anomalies += 1
        if k < last and ordered[k + 1][1] == s:
            continue  # a score's prefix sum is complete only at its last row
        j = len(scores)
        scores.append(s)
        gain = upto - low
        if gain > best_gain:
            best_gain, ends = gain, [(low_at, j)]
        elif gain == best_gain:
            ends.append((low_at, j))
        if upto < low:
            low, low_at = upto, j + 1
    m = len(scores)

    def lo_including(i: int) -> float:
        """Smallest candidate boundary that admits scores[i] but not scores[i-1]."""
        if i == 0:
            return scores[0] - epsilon
        prev, cur = scores[i - 1], scores[i]
        if prev + epsilon <= cur:
            return prev + epsilon
        return cur - epsilon if cur - epsilon > prev else cur

    def hi_including(j: int) -> float:
        """Largest candidate boundary that admits scores[j] but not scores[j+1]."""
        if j == m - 1:
            return scores[m - 1] + epsilon
        cur, nxt = scores[j], scores[j + 1]
        if nxt - epsilon >= cur:
            return nxt - epsilon
        return cur + epsilon if cur + epsilon < nxt else cur

    candidates = [(best_gain, *_span(lo_including(i), hi_including(j))) for i, j in ends]
    if best_gain <= 0:  # only then can rejecting every row tie or win
        empty = [(scores[0] - epsilon,) * 2, (scores[-1] + epsilon,) * 2]
        empty += [(a + epsilon, b - epsilon) for a, b in zip(scores, scores[1:])]
        candidates += [(0, *_span(lo, hi)) for lo, hi in empty if lo <= hi]
    gain, _, _, lo, hi = max(candidates, key=lambda cand: cand[:3])
    return lo, hi, (anomalies + gain) / len(rows)


def _span(lo: float, hi: float) -> tuple[float, float, float, float]:
    """(width, -lo, lo, hi): the tie-break keys of an interval, then the interval."""
    return hi - lo, -lo, lo, hi


def sweep(
    scored: list[tuple[ActivityInstance, ScoreBreakdown]],
) -> Iterator[tuple[float, float, float, float]]:
    """One (alpha, lo, hi, accuracy) row per weight of ALPHA_GRID, ascending.

    `scored` pairs each labeled instance with its breakdown against one
    pattern, as evaluation.route pairs them; an instance's total at every
    weight is its breakdown's ScoreBreakdown.blend. `scored` is checked when
    sweep is called; each row is computed when it is drawn.
    """
    require_labeled([inst for inst, _ in scored], "training")

    def rows() -> Iterator[tuple[float, float, float, float]]:
        for alpha in ALPHA_GRID:
            table = [(inst.label, b.blend(alpha)) for inst, b in scored]
            yield (alpha, *best_interval(table))

    return rows()


def curve(
    scored: list[tuple[ActivityInstance, ScoreBreakdown]],
    test: list[tuple[ActivityInstance, ScoreBreakdown]],
) -> list[tuple[float, float, float, float, float | None]]:
    """sweep's rows, each with its accuracy on `test` appended (None when `test` is empty).

    `test` pairs instances with breakdowns as `scored` does. A test instance
    is right when a normal's total lands inside [lo, hi] or an anomaly's
    outside it, as evaluation.classify judges it; each breakdown is blended
    at every weight, as sweep blends.
    """
    if test:
        require_labeled([inst for inst, _ in test], "test")
    parts = [(inst.label == LABEL_NORMAL, b) for inst, b in test]
    rows = []
    for alpha, lo, hi, accuracy in sweep(scored):
        right = sum((lo <= b.blend(alpha) <= hi) == normal for normal, b in parts)
        rows.append((alpha, lo, hi, accuracy, right / len(parts) if parts else None))
    return rows


def fit(activity: str, scored: list[tuple[ActivityInstance, ScoreBreakdown]]) -> ScoreModel:
    """The sweep row with the best training accuracy, as `activity`'s model.

    Ties resolve to the smallest weight: the first sweep row with the highest
    accuracy wins. No accuracy exceeds 1.0, so the rows stop at the first
    weight that reaches it; the weights after it are never computed.
    """
    best = None
    for row in sweep(scored):
        if best is None or row[3] > best[3]:
            best = row
            if row[3] == 1.0:
                break
    alpha, lo, hi, acc = best
    return ScoreModel(activity=activity, alpha=alpha, lo=lo, hi=hi, training_accuracy=acc)


def train(pattern: ActivityPattern, labeled: list[ActivityInstance]) -> ScoreModel:
    """Score each labeled instance once against `pattern`, then fit the pattern's model."""
    return fit(pattern.name, [(inst, score(pattern, inst)) for inst in labeled])


def models_to_json(models: list[ScoreModel]) -> str:
    """The model file: a JSON array, one object per activity."""
    return json.dumps([model._asdict() for model in models], indent=2) + "\n"


def models_from_json(text: str) -> list[ScoreModel]:
    """Load a model file: a non-empty JSON array of model objects, no two for one activity."""
    return json_records(text, "model", _model_from_obj, "activity")


def _model_from_obj(obj: dict) -> ScoreModel:
    return ScoreModel(
        activity=json_field(obj, "activity", str),
        alpha=json_field(obj, "alpha", float),
        lo=json_field(obj, "lo", float),
        hi=json_field(obj, "hi", float),
        training_accuracy=json_field(obj, "training_accuracy", float),
    )
