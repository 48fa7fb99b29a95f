"""Threshold training: sweep the timing weight and pick the accepted interval.

Every labeled training instance is scored once against the activity's
pattern. For each weight on a grid, the closed interval of blended scores
that best separates normal from anomalous rows becomes that activity's
acceptance band. The weight with the highest training accuracy wins.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass

from tempoguard.events import ActivityInstance, ActivityPattern, LABEL_NORMAL, LABEL_UNLABELED
from tempoguard.events import json_field, json_records
from tempoguard.scoring import score


@dataclass(frozen=True)
class TrainConfig:
    """Weight-sweep grid and interval-boundary placement."""

    alpha_min: float = 0.0
    alpha_max: float = 5.0
    alpha_step: float = 0.1
    boundary_epsilon: float = 1e-9

    def __post_init__(self) -> None:
        if self.alpha_min > self.alpha_max:
            raise ValueError("alpha_min must be <= alpha_max")
        if self.alpha_step <= 0:
            raise ValueError("alpha_step must be > 0")
        if self.boundary_epsilon <= 0:
            raise ValueError("boundary_epsilon must be > 0")


@dataclass(frozen=True)
class ScoreModel:
    """A trained per-activity detector: weight plus accepted score interval."""

    activity: str
    alpha: float
    lo: float
    hi: float
    training_accuracy: float

    def __post_init__(self) -> None:
        if self.lo > self.hi:
            raise ValueError("lo must be <= hi")
        if not 0.0 <= self.training_accuracy <= 1.0:
            raise ValueError("training_accuracy must be in [0, 1]")


def alpha_grid(cfg: TrainConfig) -> list[float]:
    """Sweep points alpha_min, alpha_min+step, ... up to alpha_max inclusive."""
    span = cfg.alpha_max - cfg.alpha_min
    steps = int(round(span / cfg.alpha_step))
    while steps > 0 and cfg.alpha_min + steps * cfg.alpha_step > cfg.alpha_max + cfg.alpha_step * 1e-9:
        steps -= 1
    return [cfg.alpha_min + k * cfg.alpha_step for k in range(steps + 1)]


def _require_labeled(labeled: list[ActivityInstance]) -> None:
    if not labeled:
        raise ValueError("training set is empty")
    for inst in labeled:
        if inst.label == LABEL_UNLABELED:
            raise ValueError(f"unlabeled instance {inst.source_id!r} in training set")


def best_interval(
    rows: list[tuple[str, float]], epsilon: float = 1e-9
) -> tuple[float, float, float]:
    """Closed score interval [lo, hi] that best separates normal from anomaly.

    Candidate boundaries are the sorted distinct scores nudged by ±epsilon.
    Accuracy counts normals inside plus anomalies outside. Ties prefer the
    widest interval, then the smallest lo. Returns (lo, hi, accuracy).

    Costs O(m log m) for m rows: a sort, then one pass over the interval's
    last score j (Kadane's maximum-sum run, +1 per normal, -1 per anomaly).
    For a fixed j the accuracy is best at the start i with the smallest
    (normals - anomalies) count below it, and lo_including grows strictly
    with i, so the earliest such i also has the widest interval and the
    smallest lo. Scanning j upward with a strict update keeps the first of
    any tied candidates, as a scan of every (i, j) pair would.
    """
    if not rows:
        raise ValueError("rows must be non-empty")
    norm_at: Counter[float] = Counter()
    anom_at: Counter[float] = Counter()
    for label, s in rows:
        (norm_at if label == LABEL_NORMAL else anom_at)[s] += 1
    scores = sorted(set(norm_at) | set(anom_at))
    total = len(rows)
    total_anomalies = sum(anom_at.values())
    m = len(scores)
    norm_upto = [0] * (m + 1)  # normals with score among scores[:k]
    anom_upto = [0] * (m + 1)
    for k, s in enumerate(scores):
        norm_upto[k + 1] = norm_upto[k] + norm_at[s]
        anom_upto[k + 1] = anom_upto[k] + anom_at[s]

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

    # Maximize (accuracy, width, -lo); every achievable selection is a
    # contiguous run of distinct scores, or no scores at all.
    best: tuple[float, float, float, float, float] | None = None
    i = 0  # earliest start with the smallest norm_upto - anom_upto so far
    for j in range(m):
        if norm_upto[j] - anom_upto[j] < norm_upto[i] - anom_upto[i]:
            i = j
        inside_norm = norm_upto[j + 1] - norm_upto[i]
        inside_anom = anom_upto[j + 1] - anom_upto[i]
        acc = (inside_norm + total_anomalies - inside_anom) / total
        lo, hi = lo_including(i), hi_including(j)
        cand = (acc, hi - lo, -lo, lo, hi)
        if best is None or cand[:3] > best[:3]:
            best = cand
    empty_candidates = [
        (scores[0] - epsilon, scores[0] - epsilon),
        (scores[-1] + epsilon, scores[-1] + epsilon),
    ]
    for k in range(m - 1):
        lo, hi = scores[k] + epsilon, scores[k + 1] - epsilon
        if lo <= hi:
            empty_candidates.append((lo, hi))
    acc_empty = total_anomalies / total
    for lo, hi in empty_candidates:
        cand = (acc_empty, hi - lo, -lo, lo, hi)
        if cand[:3] > best[:3]:
            best = cand
    return best[3], best[4], best[0]


def sweep(
    pattern: ActivityPattern, labeled: list[ActivityInstance], cfg: TrainConfig | None = None
) -> list[tuple[float, float, float, float]]:
    """One (alpha, lo, hi, accuracy) row per weight on the grid, ascending.

    Each instance is scored once; the totals at every weight are blended from
    that one breakdown with the same expression as scoring.score.
    """
    cfg = cfg or TrainConfig()
    _require_labeled(labeled)
    parts = [(inst.label, score(pattern, inst, 0.0)) for inst in labeled]
    rows = []
    for alpha in alpha_grid(cfg):
        table = [(label, b.completeness + alpha * b.timing_similarity) for label, b in parts]
        rows.append((alpha, *best_interval(table, cfg.boundary_epsilon)))
    return rows


def train(
    pattern: ActivityPattern, labeled: list[ActivityInstance], cfg: TrainConfig | None = None
) -> ScoreModel:
    """Pick the sweep weight (and its interval) with the best training accuracy.

    Ties resolve to the smallest weight: the first sweep row with the highest
    accuracy wins.
    """
    alpha, lo, hi, acc = max(sweep(pattern, labeled, cfg), key=lambda row: row[3])
    return ScoreModel(activity=pattern.name, alpha=alpha, lo=lo, hi=hi, training_accuracy=acc)


def models_to_json(models: list[ScoreModel]) -> str:
    """The model file: a JSON array, one object per activity."""
    return json.dumps([_model_to_obj(model) for model in models], indent=2) + "\n"


def models_from_json(text: str) -> list[ScoreModel]:
    """Load a model file: a JSON array of model objects."""
    return json_records(text, "model", _model_from_obj)


def _model_to_obj(model: ScoreModel) -> dict:
    return {
        "activity": model.activity,
        "alpha": model.alpha,
        "lo": model.lo,
        "hi": model.hi,
        "training_accuracy": model.training_accuracy,
    }


def _model_from_obj(obj: dict) -> ScoreModel:
    return ScoreModel(
        activity=json_field(obj, "activity", str),
        alpha=float(json_field(obj, "alpha", float)),
        lo=float(json_field(obj, "lo", float)),
        hi=float(json_field(obj, "hi", float)),
        training_accuracy=float(json_field(obj, "training_accuracy", float)),
    )
