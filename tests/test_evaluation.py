from __future__ import annotations

import weakref

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import make_instance, make_pattern
from tempoguard import evaluation
from tempoguard.events import LABEL_ANOMALY_SEQ, LABEL_ANOMALY_TI, LABEL_NORMAL
from tempoguard.evaluation import (
    CLASS_ANOMALY,
    CLASS_NORMAL,
    ConfusionMatrix,
    build_report,
    classify,
    judge,
    render_report,
    route,
    select_pattern,
)
from tempoguard.scoring import score
from tempoguard.training import ScoreModel

N, S, T = LABEL_NORMAL, LABEL_ANOMALY_SEQ, LABEL_ANOMALY_TI


def model_for(pattern, alpha=0.0, lo=1.0, hi=1.0, accuracy=1.0):
    return ScoreModel(
        activity=pattern.name, alpha=alpha, lo=lo, hi=hi, training_accuracy=accuracy
    )


def tabulated(model, pattern, labeled):
    """build_report's one activity entry for labeled, each instance classified by model."""
    return build_report([pattern], {pattern.name: model}, labeled)["activities"][0]


def test_confusion_accuracy_is_exact_for_93_of_100():
    cm = ConfusionMatrix(tp=36, fn=4, fp=3, tn=57)
    assert cm.total == 100
    assert cm.accuracy == 0.93


def test_confusion_rejects_negative_counts():
    with pytest.raises(ValueError):
        ConfusionMatrix(tp=-1, fn=0, fp=0, tn=0)


def test_confusion_accuracy_needs_population():
    with pytest.raises(ValueError, match="empty"):
        _ = ConfusionMatrix().accuracy


def test_classify_inside_the_interval_is_normal():
    pattern = make_pattern("AB", [1000])
    model = model_for(pattern, alpha=3.0, lo=2.9, hi=3.1)
    verdict = classify(model, pattern, make_instance("AB", [1000]))
    # full match with exact timing scores 1 + 3 = 4.0, outside [2.9, 3.1]
    assert verdict.classification == CLASS_ANOMALY
    wider = model_for(pattern, alpha=3.0, lo=2.9, hi=4.1)
    assert classify(wider, pattern, make_instance("AB", [1000])).classification == CLASS_NORMAL


def test_classify_boundary_score_counts_as_normal():
    pattern = make_pattern("AB", [1000])
    model = model_for(pattern, alpha=0.0, lo=1.0, hi=1.0)  # total is exactly lo
    verdict = classify(model, pattern, make_instance("AB", [1000]))
    assert verdict.classification == CLASS_NORMAL
    assert verdict.total == 1.0


def test_classify_below_the_interval_is_anomaly():
    pattern = make_pattern("AB", [1000])
    model = model_for(pattern, alpha=0.0, lo=1.0, hi=1.0)
    verdict = classify(model, pattern, make_instance("AX", [1000]))
    assert verdict.classification == CLASS_ANOMALY


def test_classify_rejects_mismatched_model_and_pattern():
    pattern = make_pattern("AB", [1000], name="toilet")
    model = model_for(make_pattern("AB", [1000], name="kitchen"))
    with pytest.raises(ValueError, match="kitchen"):
        classify(model, pattern, make_instance("AB", [1000]))


def test_select_pattern_picks_the_exact_match():
    patterns = [make_pattern("ABC", name="abc"), make_pattern("XYZ", name="xyz")]
    assert select_pattern(patterns, make_instance("ABC"))[0].name == "abc"


def test_select_pattern_prefers_fuller_matches():
    patterns = [make_pattern("ABCD", name="full"), make_pattern("ABXY", name="half")]
    assert select_pattern(patterns, make_instance("ABCD"))[0].name == "full"


def test_select_pattern_breaks_total_disjoint_ties_by_name():
    patterns = [make_pattern("AB", name="beta"), make_pattern("CD", name="alpha")]
    assert select_pattern(patterns, make_instance("XY"))[0].name == "alpha"


def test_route_groups_every_instance_under_its_selected_pattern():
    patterns = [make_pattern(letters, name=letters.lower()) for letters in ("AB", "CD", "EF")]
    cd, ab, abx, c = (make_instance(letters) for letters in ("CD", "AB", "ABX", "C"))
    groups = route(patterns, [cd, ab, abx, c])
    by_name = {p.name: p for p in patterns}
    assert {name: [inst for inst, _ in group] for name, group in groups.items()} == {
        "ab": [ab, abx], "cd": [cd, c], "ef": []
    }
    for name, group in groups.items():
        assert all(select_pattern(patterns, inst)[0].name == name for inst, _ in group)
        assert all(b == score(by_name[name], inst) for inst, b in group)


def test_select_pattern_returns_its_pick_with_that_pairs_score():
    slow = make_pattern("AB", [1000], name="slow")
    fast = make_pattern("AB", [100_000], name="fast")
    inst = make_instance("AB", [1000])
    pattern, breakdown = select_pattern([slow, fast], inst)
    assert pattern is fast
    assert breakdown == score(pattern, inst)


def test_select_pattern_rejects_empty_pattern_list():
    with pytest.raises(ValueError, match="non-empty"):
        select_pattern([], make_instance("AB"))


def _fixture_93_percent():
    """100 labeled instances engineered to score 93 correct at alpha=0."""
    pattern = make_pattern("AB", [1000])
    model = model_for(pattern, alpha=0.0, lo=1.0, hi=1.0)
    full = lambda label: make_instance("AB", [1000], label=label)
    partial = lambda label: make_instance("A", [], label=label)
    labeled = (
        [full(N) for _ in range(57)]  # inside -> true negatives
        + [partial(N) for _ in range(3)]  # outside -> false positives
        + [partial(S) for _ in range(20)]  # outside -> true positives
        + [partial(T) for _ in range(16)]  # outside -> true positives
        + [full(T) for _ in range(4)]  # inside -> false negatives
    )
    return model, pattern, labeled


def test_evaluate_tabulates_the_engineered_table():
    model, pattern, labeled = _fixture_93_percent()
    report = tabulated(model, pattern, labeled)
    total = report["total"]
    assert (total["tp"], total["fn"], total["fp"], total["tn"]) == (36, 4, 3, 57)
    assert report["accuracy"] == 0.93
    by_label = {r["label"]: r for r in report["rows"]}
    assert by_label["Anomaly(seq)"]["amount"] == 20
    assert by_label["Anomaly(seq)"]["correct"] == 20
    assert by_label["Anomaly(ti)"]["amount"] == 20
    assert by_label["Anomaly(ti)"]["correct"] == 16
    assert by_label["Anomaly(ti)"]["wrong"] == 4
    assert by_label["Normal"]["amount"] == 60
    assert by_label["Normal"]["correct"] == 57
    assert by_label["Normal"]["accuracy"] == 0.95


def test_evaluate_row_bookkeeping_adds_up():
    model, pattern, labeled = _fixture_93_percent()
    report = tabulated(model, pattern, labeled)
    rows, total = report["rows"], report["total"]
    assert sum(r["amount"] for r in rows) == total["amount"] == len(labeled)
    for r in rows:
        assert r["amount"] == r["correct"] + r["wrong"]
    assert total["tp"] + total["fn"] == sum(1 for inst in labeled if inst.label in (S, T))
    assert total["fp"] + total["tn"] == sum(1 for inst in labeled if inst.label == N)
    assert total["correct"] == total["tp"] + total["tn"]
    assert total["wrong"] == total["fn"] + total["fp"]


def test_evaluate_rejects_unlabeled_instances():
    pattern = make_pattern("AB", [1000])
    model = model_for(pattern)
    with pytest.raises(ValueError, match="unlabeled"):
        tabulated(model, pattern, [make_instance("AB", [1000])])


def test_absent_class_row_has_no_accuracy():
    pattern = make_pattern("AB", [1000])
    model = model_for(pattern)
    report = tabulated(model, pattern, [make_instance("AB", [1000], label=N)])
    by_label = {r["label"]: r for r in report["rows"]}
    assert by_label["Anomaly(seq)"]["amount"] == 0
    assert by_label["Anomaly(seq)"]["accuracy"] is None


@given(
    labels=st.lists(st.sampled_from([N, S, T]), min_size=1, max_size=30),
    data=st.data(),
)
def test_accuracy_equals_mean_correctness(labels, data):
    pattern = make_pattern("AB", [1000])
    model = model_for(pattern, alpha=0.0, lo=1.0, hi=1.0)
    labeled = []
    verdict_correct = []
    for label in labels:
        matches = data.draw(st.booleans())
        inst = make_instance("AB" if matches else "A", [1000] if matches else [], label=label)
        labeled.append(inst)
        flagged = not matches  # partial instances fall outside [1, 1]
        verdict_correct.append(flagged == (label != N))
    expected = sum(verdict_correct) / len(verdict_correct)
    assert tabulated(model, pattern, labeled)["accuracy"] == expected


def test_render_table_shapes_the_report():
    model, pattern, labeled = _fixture_93_percent()
    entry = {**tabulated(model, pattern, labeled), "activity": "Engineered"}
    report = {"activities": [entry]}
    report["overall"] = {**report["activities"][0]["total"], "accuracy": 0.93}
    lines = render_report(report).splitlines()
    assert lines[0] == "Testing results of activity: Engineered"
    assert lines[1].split() == ["Class", "Amount", "Correct", "Wrong", "Accuracy"]
    assert lines[3].split() == ["Anomaly(seq)", "20", "20", "0", "100%"]
    assert lines[4].split() == ["Anomaly(ti)", "20", "16", "4", "80%"]
    assert lines[5].split() == ["Normal", "60", "57", "3", "95%"]
    assert lines[6].split() == ["Total", "100", "93", "7", "93%"]
    assert lines[7:] == ["", "Overall: 93/100 correct (93%)"]


def test_report_dict_mirrors_the_table():
    model, pattern, labeled = _fixture_93_percent()
    doc = build_report([pattern], {pattern.name: model}, labeled)["activities"][0]
    assert list(doc) == ["activity", "rows", "total", "accuracy"]
    assert list(doc["total"]) == ["amount", "correct", "wrong", "tp", "fn", "fp", "tn"]
    assert doc["activity"] == pattern.name
    assert doc["accuracy"] == 0.93
    assert doc["total"]["amount"] == 100
    assert doc["total"]["tp"] == 36
    assert [r["label"] for r in doc["rows"]] == ["Anomaly(seq)", "Anomaly(ti)", "Normal"]


def test_build_report_routes_and_aggregates():
    pattern_ab = make_pattern("AB", [1000], name="ab")
    pattern_cd = make_pattern("CD", [1000], name="cd")
    models = {
        "ab": model_for(pattern_ab, alpha=0.0, lo=1.0, hi=1.0),
        "cd": model_for(pattern_cd, alpha=0.0, lo=1.0, hi=1.0),
    }
    labeled = [
        make_instance("AB", [1000], label=N),
        make_instance("A", [], label=S),
        make_instance("CD", [1000], label=N),
        make_instance("CD", [900], label=N),
    ]
    report = build_report([pattern_ab, pattern_cd], models, labeled)
    assert [entry["activity"] for entry in report["activities"]] == ["ab", "cd"]
    assert report["overall"]["amount"] == 4
    assert report["overall"]["correct"] == 4
    assert report["overall"]["accuracy"] == 1.0
    text = render_report(report)
    assert "Testing results of activity: ab" in text
    assert "Overall: 4/4 correct (100%)" in text


def test_build_report_keeps_counts_not_verdicts(monkeypatch):
    model, pattern, labeled = _fixture_93_percent()
    expected = build_report([pattern], {pattern.name: model}, labeled)
    verdicts = []

    class Watched:
        """A verdict's fields in an object that, unlike a tuple, can be weakly referenced."""

        def __init__(self, verdict):
            self.classification, self.total, self.breakdown = verdict

    def judge_watched(*args):
        for inst, routed, verdict in judge(*args):
            # Only the verdict build_report's loop still names may be alive.
            assert [ref for ref in verdicts[:-1] if ref() is not None] == []
            watched = Watched(verdict)
            verdicts.append(weakref.ref(watched))
            yield inst, routed, watched

    monkeypatch.setattr(evaluation, "judge", judge_watched)
    assert build_report([pattern], {pattern.name: model}, labeled) == expected
    assert len(verdicts) == len(labeled)


def test_build_report_requires_models_for_routed_activities():
    pattern = make_pattern("AB", [1000], name="ab")
    with pytest.raises(ValueError, match="no trained model"):
        build_report([pattern], {}, [make_instance("AB", [1000], label=N)])
    # judge raises it, lazily: instances routed to a trained pattern before it are yielded.
    patterns = [pattern, make_pattern("CD", [1000], name="cd")]
    verdicts = judge(patterns, {"ab": model_for(pattern)}, [make_instance(s) for s in ("AB", "CD")])
    assert next(verdicts)[1] is pattern
    with pytest.raises(ValueError, match="^no trained model for activity 'cd'$"):
        next(verdicts)


def test_build_report_rejects_an_empty_set():
    pattern = make_pattern("AB", [1000])
    with pytest.raises(ValueError, match="^evaluation set is empty$"):
        build_report([pattern], {pattern.name: model_for(pattern)}, [])


def test_build_report_names_the_first_unlabeled_instance_in_file_order_before_judging():
    ab, cd = make_pattern("AB", [1000], name="ab"), make_pattern("CD", [1000], name="cd")
    labeled = [
        make_instance("CD", [1000], label=N, source_id="routed-to-cd"),
        make_instance("CD", [1000], source_id="first"),
        make_instance("AB", [1000], source_id="second"),
    ]
    models = {"ab": model_for(ab), "cd": model_for(cd)}
    # "first" routes to the second activity; the file order, not the activity order, names it.
    with pytest.raises(ValueError, match="^unlabeled instance 'first' in evaluation set$"):
        build_report([ab, cd], models, labeled)
    # "cd" has no model, and the first instance routes to it: the unlabeled one is still named.
    with pytest.raises(ValueError, match="^unlabeled instance 'first' in evaluation set$"):
        build_report([ab, cd], {"ab": models["ab"]}, labeled)


def test_judge_routes_as_route_does_then_classifies_each_instance_in_order():
    # ABC ties "close" and "far" on completeness; its timing fits "close" exactly. Each at its
    # own trained weight, "far" totals more, yet that weight must not pull the instance to it.
    close = make_pattern("ABCE", [1000, 1000, 1000], name="close")
    far = make_pattern("ABCF", [1000, 5000, 1000], name="far")
    other = make_pattern("XY", [1000], name="other")
    patterns = [far, close, other]
    models = {
        "close": model_for(close, alpha=0.0, lo=0.5, hi=1.0),
        "far": model_for(far, alpha=5.0, lo=0.0, hi=9.0),
        "other": model_for(other, alpha=1.0, lo=1.5, hi=2.0),
    }
    abc = make_instance("ABC", [1000, 1000], source_id="abc")
    assert score(close, abc).completeness == score(far, abc).completeness == 0.75
    assert score(close, abc).blend(0.0) < score(far, abc).blend(5.0)
    instances = [abc, make_instance("XY", source_id="xy"), make_instance("X", source_id="x")]
    triples = list(judge(patterns, models, iter(instances)))
    groups = route(patterns, instances)
    for inst, pattern, verdict in triples:
        assert select_pattern(patterns, inst)[0] is pattern
        assert [i for i, _ in groups[pattern.name]].count(inst) == 1
        assert verdict == classify(models[pattern.name], pattern, inst)
    assert [(i, p.name) for i, p, _ in triples] == list(
        zip(instances, ["close", "other", "other"])
    )
    assert [v.classification for *_, v in triples] == [CLASS_NORMAL, CLASS_NORMAL, CLASS_ANOMALY]
