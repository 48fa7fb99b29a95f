"""Threshold training: sweep the timing weight and pick the accepted interval.

Every labeled training instance is scored once against the activity's
pattern. For each weight on a grid, the closed interval of blended scores
that best separates normal from anomalous rows becomes that activity's
acceptance band. The weight with the highest training accuracy wins.
"""

from __future__ import annotations

import json
import math
from collections import Counter, namedtuple
from itertools import accumulate
from operator import sub

from tempoguard.config import RunConfig
from tempoguard.events import ActivityInstance, ActivityPattern, LABEL_NORMAL
from tempoguard.events import json_field, json_records, require_labeled
from tempoguard.scoring import score


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


def alpha_grid(cfg: RunConfig) -> list[float]:
    """Sweep points alpha_min, alpha_min+step, ... up to alpha_max inclusive."""
    span = cfg.alpha_max - cfg.alpha_min
    steps = int(round(span / cfg.alpha_step))
    while steps > 0 and cfg.alpha_min + steps * cfg.alpha_step > cfg.alpha_max + cfg.alpha_step * 1e-9:
        steps -= 1
    return [cfg.alpha_min + k * cfg.alpha_step for k in range(steps + 1)]


def best_interval(rows: list[tuple[str, float]], epsilon: float) -> tuple[float, float, float]:
    """Closed score interval [lo, hi] that best separates normal from anomaly.

    Candidate boundaries are the sorted distinct scores nudged by ±epsilon.
    Accuracy counts normals inside plus anomalies outside. Ties prefer the
    widest interval, then the smallest lo. Returns (lo, hi, accuracy).

    Costs O(m log m) for m rows. Two comprehensions split the rows by label;
    the rest is C-level calls: a Counter of normals minus anomalies per
    distinct score, a sort, the prefix sums and their running minimum by
    itertools.accumulate, and by one map the gain of the best interval ending
    at each score j (Kadane's maximum-sum run, +1 per normal, -1 per
    anomaly). For a fixed j the accuracy is best at the start i with the
    smallest prefix sum below it, and lo_including grows strictly with i, so
    the earliest such i (the first index of that running minimum) also has
    the widest interval and the smallest lo. Only the ends j with the best
    gain become candidates, in ascending order, and max keeps the first of
    any tied candidates, as a scan of every (i, j) pair would.
    """
    if not rows:
        raise ValueError("rows must be non-empty")
    anomalies = [s for label, s in rows if label != LABEL_NORMAL]
    net_at = Counter([s for label, s in rows if label == LABEL_NORMAL])
    net_at.subtract(anomalies)
    scores = sorted(net_at)
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

    # Maximize (gain, width, -lo), where gain is normals minus anomalies
    # inside; every achievable selection is a contiguous run of distinct
    # scores, or no scores at all (gain 0).
    upto = list(accumulate(map(net_at.__getitem__, scores), initial=0))
    lows = list(accumulate(upto[:-1], min))  # lows[j]: smallest of upto[:j + 1]
    gains = list(map(sub, upto[1:], lows))
    best_gain = max(gains)
    candidates = [
        (best_gain, *_span(lo_including(lows.index(lows[j])), hi_including(j)))
        for j, gain in enumerate(gains)
        if gain == best_gain
    ]
    if best_gain <= 0:  # only then can rejecting every row tie or win
        empty = [(scores[0] - epsilon,) * 2, (scores[-1] + epsilon,) * 2]
        empty += [(a + epsilon, b - epsilon) for a, b in zip(scores, scores[1:])]
        candidates += [(0, *_span(lo, hi)) for lo, hi in empty if lo <= hi]
    gain, _, _, lo, hi = max(candidates, key=lambda cand: cand[:3])
    return lo, hi, (len(anomalies) + gain) / len(rows)


def _span(lo: float, hi: float) -> tuple[float, float, float, float]:
    """(width, -lo, lo, hi): the tie-break keys of an interval, then the interval."""
    return hi - lo, -lo, lo, hi


def sweep(
    pattern: ActivityPattern, labeled: list[ActivityInstance], cfg: RunConfig | None = None
) -> list[tuple[float, float, float, float]]:
    """One (alpha, lo, hi, accuracy) row per weight on the grid, ascending.

    Each instance is scored once; the totals at every weight are blended from
    that one breakdown with the same expression as scoring.score.
    """
    cfg = cfg or RunConfig()
    require_labeled(labeled, "training")
    parts = [(inst.label, score(pattern, inst, 0.0)) for inst in labeled]
    rows = []
    for alpha in alpha_grid(cfg):
        table = [(label, b.completeness + alpha * b.timing_similarity) for label, b in parts]
        rows.append((alpha, *best_interval(table, cfg.boundary_epsilon)))
    return rows


def curve(
    pattern: ActivityPattern,
    labeled: list[ActivityInstance],
    test: list[ActivityInstance],
    cfg: RunConfig | None = None,
) -> list[tuple[float, float, float, float, float | None]]:
    """sweep's rows, each with its accuracy on `test` appended (None when `test` is empty).

    A test instance is right when a normal's total lands inside [lo, hi] or an
    anomaly's outside it, as evaluation.classify judges it. Each is scored
    once and blended at every weight as sweep blends.
    """
    if test:
        require_labeled(test, "test")
    parts = [(inst.label == LABEL_NORMAL, score(pattern, inst, 0.0)) for inst in test]
    rows = []
    for alpha, lo, hi, accuracy in sweep(pattern, labeled, cfg):
        right = sum(
            (lo <= b.completeness + alpha * b.timing_similarity <= hi) == normal
            for normal, b in parts
        )
        rows.append((alpha, lo, hi, accuracy, right / len(parts) if parts else None))
    return rows


def train(
    pattern: ActivityPattern, labeled: list[ActivityInstance], cfg: RunConfig | None = None
) -> ScoreModel:
    """Pick the sweep weight (and its interval) with the best training accuracy.

    Ties resolve to the smallest weight: the first sweep row with the highest
    accuracy wins.
    """
    alpha, lo, hi, acc = max(sweep(pattern, labeled, cfg), key=lambda row: row[3])
    return ScoreModel(activity=pattern.name, alpha=alpha, lo=lo, hi=hi, training_accuracy=acc)


def models_to_json(models: list[ScoreModel]) -> str:
    """The model file: a JSON array, one object per activity."""
    return json.dumps([model._asdict() for model in models], indent=2) + "\n"


def models_from_json(text: str) -> list[ScoreModel]:
    """Load a model file: a JSON array of model objects, no two for one activity."""
    return json_records(text, "model", _model_from_obj, "activity")


def _model_from_obj(obj: dict) -> ScoreModel:
    return ScoreModel(
        activity=json_field(obj, "activity", str),
        alpha=json_field(obj, "alpha", float),
        lo=json_field(obj, "lo", float),
        hi=json_field(obj, "hi", float),
        training_accuracy=json_field(obj, "training_accuracy", float),
    )
