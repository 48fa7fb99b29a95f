"""Classifying test instances with trained models and tabulating results.

An instance is classified normal when its total score falls inside the
model's accepted interval. Anomaly is the positive class throughout, so the
confusion matrix reads: tp = anomaly flagged, fn = anomaly missed, fp = normal
flagged, tn = normal passed.
"""

from __future__ import annotations

import json
from collections import Counter, namedtuple
from collections.abc import Iterable, Iterator

from tempoguard.events import (
    ActivityInstance,
    ActivityPattern,
    ANOMALY_LABELS,
    LABEL_ANOMALY_SEQ,
    LABEL_ANOMALY_TI,
    LABEL_NORMAL,
    require_labeled,
)
from tempoguard.scoring import ScoreBreakdown, score
from tempoguard.training import ScoreModel

CLASS_ANOMALY = "anomaly"
CLASS_NORMAL = "normal"

# Display order and names for the per-class report rows.
_ROW_LABELS = (
    ("Anomaly(seq)", LABEL_ANOMALY_SEQ),
    ("Anomaly(ti)", LABEL_ANOMALY_TI),
    ("Normal", LABEL_NORMAL),
)


class ConfusionMatrix(namedtuple("ConfusionMatrix", "tp fn fp tn")):
    """Counts with anomaly as the positive class."""

    __slots__ = ()

    def __new__(cls, tp: int = 0, fn: int = 0, fp: int = 0, tn: int = 0) -> ConfusionMatrix:
        if min(tp, fn, fp, tn) < 0:
            raise ValueError("confusion counts must be >= 0")
        return tuple.__new__(cls, (tp, fn, fp, tn))

    _make = classmethod(lambda cls, iterable: cls(*iterable))  # so _replace validates too

    @property
    def total(self) -> int:
        return self.tp + self.fn + self.fp + self.tn

    @property
    def accuracy(self) -> float:
        """Fraction classified correctly: (tp + tn) / total."""
        if self.total == 0:
            raise ValueError("empty confusion matrix has no accuracy")
        return (self.tp + self.tn) / self.total


class Verdict(namedtuple("Verdict", "classification total breakdown")):
    """One classification outcome: the call, the total it rests on and that total's parts."""

    __slots__ = ()


def classify(model: ScoreModel, pattern: ActivityPattern, instance: ActivityInstance) -> Verdict:
    """Normal iff the total score at the model's weight lands inside [lo, hi]."""
    if model.activity != pattern.name:
        raise ValueError(f"model is for {model.activity!r}, pattern is {pattern.name!r}")
    breakdown = score(pattern, instance)
    total = breakdown.blend(model.alpha)
    inside = model.lo <= total <= model.hi
    return Verdict(CLASS_NORMAL if inside else CLASS_ANOMALY, total, breakdown)


def select_pattern(
    patterns: list[ActivityPattern], instance: ActivityInstance
) -> tuple[ActivityPattern, ScoreBreakdown]:
    """The pattern an instance matches best, with the instance's breakdown against it.

    The one routing rule, and it reads no model: highest matched fraction
    wins; ties go to the higher total score at weight 1.0, then to the
    lexicographically smallest name. Each pattern scores the instance once.
    """
    if not patterns:
        raise ValueError("patterns must be non-empty")
    best = None
    for pattern in patterns:
        b = score(pattern, instance)
        rank = (-b.completeness, -b.blend(1.0), pattern.name)
        if best is None or rank < best[0]:
            best = rank, pattern, b
    return best[1], best[2]


def route(
    patterns: list[ActivityPattern], instances: list[ActivityInstance]
) -> dict[str, list[tuple[ActivityInstance, ScoreBreakdown]]]:
    """Group instances by the pattern select_pattern picks, keyed by pattern name.

    Each instance comes with its ScoreBreakdown against that pattern, so
    training and the alpha curve blend it without scoring again. Every
    pattern has a list, empty when nothing routes to it; each list keeps
    input order.
    """
    groups: dict[str, list[tuple[ActivityInstance, ScoreBreakdown]]] = {
        p.name: [] for p in patterns
    }
    for inst in instances:
        pattern, breakdown = select_pattern(patterns, inst)
        groups[pattern.name].append((inst, breakdown))
    return groups


def judge(
    patterns: list[ActivityPattern],
    models: dict[str, ScoreModel],
    instances: Iterable[ActivityInstance],
) -> Iterator[tuple[ActivityInstance, ActivityPattern, Verdict]]:
    """Route each instance by select_pattern, as route does, and classify it against that pattern.

    Yields (instance, pattern, verdict) in input order; an instance routed to
    a pattern with no model is a ValueError naming the activity.
    """
    for inst in instances:
        pattern, _ = select_pattern(patterns, inst)
        model = models.get(pattern.name)
        if model is None:
            raise ValueError(f"no trained model for activity {pattern.name!r}")
        yield inst, pattern, classify(model, pattern, inst)


def _total(cm: ConfusionMatrix) -> dict:
    """A report's Total block: amount, correct and wrong, then tp, fn, fp and tn."""
    return {"amount": cm.total, "correct": cm.tp + cm.tn, "wrong": cm.fn + cm.fp, **cm._asdict()}


def _tabulate(counts: Counter[tuple[str, bool]]) -> dict:
    """One activity's non-empty (label, flagged) counts as {"rows", "total", "accuracy"}.

    Each row gives a class's label, amount, correct, wrong and accuracy (None
    when the class is absent); "total" is the whole set's counts.
    """
    cm = ConfusionMatrix(
        tp=counts[LABEL_ANOMALY_SEQ, True] + counts[LABEL_ANOMALY_TI, True],
        fn=counts[LABEL_ANOMALY_SEQ, False] + counts[LABEL_ANOMALY_TI, False],
        fp=counts[LABEL_NORMAL, True],
        tn=counts[LABEL_NORMAL, False],
    )
    rows = []
    for display, label in _ROW_LABELS:
        amount = counts[label, True] + counts[label, False]
        correct = counts[label, label in ANOMALY_LABELS]
        row = {"label": display, "amount": amount, "correct": correct, "wrong": amount - correct}
        rows.append({**row, "accuracy": correct / amount if amount else None})
    return {"rows": rows, "total": _total(cm), "accuracy": cm.accuracy}


def _fmt_pct(value: float | None) -> str:
    return "-" if value is None else f"{value * 100:.0f}%"


def build_report(
    patterns: list[ActivityPattern],
    models: dict[str, ScoreModel],
    labeled: list[ActivityInstance],
) -> dict:
    """Judge a labeled set and tabulate it by the activity each instance routes to.

    The set is checked by events.require_labeled before any instance is
    judged. Each activity keeps counts, not verdicts.

    Returns {"activities": [{"activity", "rows", "total", "accuracy"}, ...], "overall": {...}},
    one entry per activity that at least one instance routes to.
    """
    require_labeled(labeled, "evaluation")
    counts: dict[str, Counter[tuple[str, bool]]] = {p.name: Counter() for p in patterns}
    for inst, pattern, verdict in judge(patterns, models, labeled):
        counts[pattern.name][inst.label, verdict.classification == CLASS_ANOMALY] += 1
    activities = [
        {"activity": name, **_tabulate(group)} for name, group in counts.items() if group
    ]
    overall = ConfusionMatrix(
        **{k: sum(a["total"][k] for a in activities) for k in ("tp", "fn", "fp", "tn")}
    )
    return {"activities": activities, "overall": {**_total(overall), "accuracy": overall.accuracy}}


def report_to_json(report: dict) -> str:
    """The report file: build_report's output as indented JSON."""
    return json.dumps(report, indent=2) + "\n"


def render_report(report: dict) -> str:
    """Plain-text rendering of build_report's output, one table per activity.

    Each table has a line per class (Amount / Correct / Wrong / Accuracy) and
    a Total line; an overall line closes the report.
    """
    header = f"{'Class':<14}{'Amount':>8}{'Correct':>9}{'Wrong':>7}{'Accuracy':>10}"
    blocks = []
    for entry in report["activities"]:
        lines = [f"Testing results of activity: {entry['activity']}", header, "-" * len(header)]
        total = {"label": "Total", **entry["total"], "accuracy": entry["accuracy"]}
        for r in (*entry["rows"], total):
            lines.append(
                f"{r['label']:<14}{r['amount']:>8}{r['correct']:>9}{r['wrong']:>7}"
                f"{_fmt_pct(r['accuracy']):>10}"
            )
        blocks.append("\n".join(lines) + "\n")
    overall = report["overall"]
    blocks.append(
        f"Overall: {overall['correct']}/{overall['amount']} correct "
        f"({_fmt_pct(overall['accuracy'])})\n"
    )
    return "\n".join(blocks)
