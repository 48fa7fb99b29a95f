"""Classifying test instances with trained models and tabulating results.

An instance is classified normal when its total score falls inside the
model's accepted interval. Anomaly is the positive class throughout, so the
confusion matrix reads: tp = anomaly flagged, fn = anomaly missed, fp = normal
flagged, tn = normal passed.
"""

from __future__ import annotations

from dataclasses import dataclass

from tempoguard.events import (
    ActivityInstance,
    ActivityPattern,
    ANOMALY_LABELS,
    LABEL_ANOMALY_SEQ,
    LABEL_ANOMALY_TI,
    LABEL_NORMAL,
    LABEL_UNLABELED,
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


@dataclass(frozen=True)
class ConfusionMatrix:
    """Counts with anomaly as the positive class."""

    tp: int = 0
    fn: int = 0
    fp: int = 0
    tn: int = 0

    def __post_init__(self) -> None:
        if min(self.tp, self.fn, self.fp, self.tn) < 0:
            raise ValueError("confusion counts must be >= 0")

    @property
    def total(self) -> int:
        return self.tp + self.fn + self.fp + self.tn

    @property
    def accuracy(self) -> float:
        """Fraction classified correctly: (tp + tn) / total."""
        if self.total == 0:
            raise ValueError("empty confusion matrix has no accuracy")
        return (self.tp + self.tn) / self.total


@dataclass(frozen=True)
class Verdict:
    """One classification outcome: the call, its score, and the pattern used."""

    classification: str
    breakdown: ScoreBreakdown
    pattern: str


@dataclass(frozen=True)
class ClassRow:
    """One per-class report row; accuracy is None when the class is absent."""

    label: str
    amount: int
    correct: int
    wrong: int
    accuracy: float | None


def classify(model: ScoreModel, pattern: ActivityPattern, instance: ActivityInstance) -> Verdict:
    """Normal iff the total score at the model's weight lands inside [lo, hi]."""
    if model.activity != pattern.name:
        raise ValueError(f"model is for {model.activity!r}, pattern is {pattern.name!r}")
    breakdown = score(pattern, instance, model.alpha)
    inside = model.lo <= breakdown.total <= model.hi
    return Verdict(
        classification=CLASS_NORMAL if inside else CLASS_ANOMALY,
        breakdown=breakdown,
        pattern=pattern.name,
    )


def select_pattern(
    patterns: list[ActivityPattern],
    instance: ActivityInstance,
    models: dict[str, ScoreModel] | None = None,
) -> ActivityPattern:
    """Route an instance to the pattern it matches best.

    Highest matched fraction wins; ties go to the higher total score at that
    pattern's trained weight (1.0 when untrained), then to the
    lexicographically smallest name.
    """
    if not patterns:
        raise ValueError("patterns must be non-empty")

    def rank(pattern: ActivityPattern) -> tuple[float, float, str]:
        model = (models or {}).get(pattern.name)
        alpha = model.alpha if model is not None else 1.0
        b = score(pattern, instance, alpha)
        return (-b.completeness, -b.total, pattern.name)

    return min(patterns, key=rank)


def route(
    patterns: list[ActivityPattern],
    instances: list[ActivityInstance],
    models: dict[str, ScoreModel] | None = None,
) -> dict[str, list[ActivityInstance]]:
    """Group instances by the pattern select_pattern picks, keyed by pattern name.

    Every pattern has a list, empty when nothing routes to it; each list keeps
    input order.
    """
    groups: dict[str, list[ActivityInstance]] = {p.name: [] for p in patterns}
    for inst in instances:
        groups[select_pattern(patterns, inst, models).name].append(inst)
    return groups


def evaluate(
    model: ScoreModel, pattern: ActivityPattern, labeled: list[ActivityInstance]
) -> tuple[ConfusionMatrix, float, list[ClassRow]]:
    """Classify a labeled set and tabulate per-class and overall results."""
    if not labeled:
        raise ValueError("evaluation set is empty")
    per_label: dict[str, list[int]] = {lbl: [0, 0] for _, lbl in _ROW_LABELS}  # [amount, correct]
    tp = fn = fp = tn = 0
    for inst in labeled:
        if inst.label == LABEL_UNLABELED:
            raise ValueError(f"unlabeled instance {inst.source_id!r} in evaluation set")
        verdict = classify(model, pattern, inst)
        is_anomaly = inst.label in ANOMALY_LABELS
        flagged = verdict.classification == CLASS_ANOMALY
        correct = flagged == is_anomaly
        if is_anomaly:
            tp, fn = tp + flagged, fn + (not flagged)
        else:
            fp, tn = fp + flagged, tn + (not flagged)
        per_label[inst.label][0] += 1
        per_label[inst.label][1] += correct
    cm = ConfusionMatrix(tp=tp, fn=fn, fp=fp, tn=tn)
    rows = []
    for display, label in _ROW_LABELS:
        amount, correct = per_label[label]
        rows.append(
            ClassRow(
                label=display,
                amount=amount,
                correct=correct,
                wrong=amount - correct,
                accuracy=correct / amount if amount else None,
            )
        )
    return cm, cm.accuracy, rows


def report_to_dict(cm: ConfusionMatrix, accuracy: float, rows: list[ClassRow]) -> dict:
    """Machine-readable twin of the per-activity result table."""
    return {
        "rows": [
            {
                "label": r.label,
                "amount": r.amount,
                "correct": r.correct,
                "wrong": r.wrong,
                "accuracy": r.accuracy,
            }
            for r in rows
        ],
        "total": {
            "amount": cm.total,
            "correct": cm.tp + cm.tn,
            "wrong": cm.fn + cm.fp,
            "tp": cm.tp,
            "fn": cm.fn,
            "fp": cm.fp,
            "tn": cm.tn,
        },
        "accuracy": accuracy,
    }


def _fmt_pct(value: float | None) -> str:
    return "-" if value is None else f"{value * 100:.0f}%"


def render_table(
    cm: ConfusionMatrix, accuracy: float, rows: list[ClassRow], title: str | None = None
) -> str:
    """Plain-text result table: Amount / Correct / Wrong / Accuracy per class."""
    lines = []
    if title:
        lines.append(f"Testing results of activity: {title}")
    header = f"{'Class':<14}{'Amount':>8}{'Correct':>9}{'Wrong':>7}{'Accuracy':>10}"
    lines.append(header)
    lines.append("-" * len(header))
    for r in rows:
        lines.append(
            f"{r.label:<14}{r.amount:>8}{r.correct:>9}{r.wrong:>7}{_fmt_pct(r.accuracy):>10}"
        )
    lines.append(
        f"{'Total':<14}{cm.total:>8}{cm.tp + cm.tn:>9}{cm.fn + cm.fp:>7}{_fmt_pct(accuracy):>10}"
    )
    return "\n".join(lines) + "\n"


def build_report(
    patterns: list[ActivityPattern],
    models: dict[str, ScoreModel],
    labeled: list[ActivityInstance],
) -> dict:
    """Route, classify, and tabulate a labeled set across all activities.

    Returns {"activities": [per-activity report dicts], "overall": {...}};
    every instance lands in exactly one activity's table via route.
    """
    routed = route(patterns, labeled, models)
    activities = []
    tp = fn = fp = tn = 0
    for pattern in patterns:
        group = routed[pattern.name]
        if not group:
            continue
        model = models.get(pattern.name)
        if model is None:
            raise ValueError(f"no trained model for activity {pattern.name!r}")
        cm, accuracy, rows = evaluate(model, pattern, group)
        entry = {"activity": pattern.name}
        entry.update(report_to_dict(cm, accuracy, rows))
        activities.append(entry)
        tp, fn, fp, tn = tp + cm.tp, fn + cm.fn, fp + cm.fp, tn + cm.tn
    overall = ConfusionMatrix(tp=tp, fn=fn, fp=fp, tn=tn)
    return {
        "activities": activities,
        "overall": {
            "amount": overall.total,
            "correct": overall.tp + overall.tn,
            "wrong": overall.fn + overall.fp,
            "tp": tp,
            "fn": fn,
            "fp": fp,
            "tn": tn,
            "accuracy": overall.accuracy if overall.total else None,
        },
    }


def render_report(report: dict) -> str:
    """Plain-text rendering of build_report's output, one table per activity."""
    blocks = []
    for entry in report["activities"]:
        rows = [
            ClassRow(
                label=r["label"],
                amount=r["amount"],
                correct=r["correct"],
                wrong=r["wrong"],
                accuracy=r["accuracy"],
            )
            for r in entry["rows"]
        ]
        total = entry["total"]
        cm = ConfusionMatrix(tp=total["tp"], fn=total["fn"], fp=total["fp"], tn=total["tn"])
        blocks.append(render_table(cm, entry["accuracy"], rows, title=entry["activity"]))
    overall = report["overall"]
    blocks.append(
        f"Overall: {overall['correct']}/{overall['amount']} correct "
        f"({_fmt_pct(overall['accuracy'])})\n"
    )
    return "\n".join(blocks)
