from __future__ import annotations

import math
from collections import Counter

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import make_instance, make_pattern
from tempoguard import training as training_module
from tempoguard.evaluation import build_report
from tempoguard.events import LABEL_ANOMALY_SEQ, LABEL_ANOMALY_TI, LABEL_NORMAL
from tempoguard.scoring import ScoreBreakdown, score
from tempoguard.training import (
    ALPHA_GRID,
    BOUNDARY_EPSILON,
    ScoreModel,
    best_interval,
    curve,
    fit,
    models_from_json,
    models_to_json,
    sweep,
    train,
)

N, S, T = LABEL_NORMAL, LABEL_ANOMALY_SEQ, LABEL_ANOMALY_TI


def score_table(pattern, labeled, alpha):
    """One (label, total score) row per instance, in input order: the recount reference."""
    return [(inst.label, score(pattern, inst).blend(alpha)) for inst in labeled]


def scored(pattern, labeled):
    """Each instance with its breakdown against `pattern`, as evaluation.route pairs them."""
    return [(inst, score(pattern, inst)) for inst in labeled]


def interval_accuracy(rows, lo, hi):
    """Recount accuracy for a closed interval, straight from the definition."""
    correct = 0
    for label, total in rows:
        inside = lo <= total <= hi
        correct += inside if label == N else not inside
    return correct / len(rows)


def test_alpha_grid_has_51_points_by_default():
    assert len(ALPHA_GRID) == 51
    assert ALPHA_GRID[0] == 0.0
    assert ALPHA_GRID[-1] == 5.0
    # k * 0.1, not k / 10: `pipeline --stats` writes each weight as it is held.
    assert ALPHA_GRID[3] == 0.30000000000000004
    assert ALPHA_GRID == tuple(k * 0.1 for k in range(51))


def test_score_table_perfect_match_rows():
    pattern = make_pattern("ABC", [10, 20])
    instance = make_instance("ABC", [10, 20], label=N)
    assert score_table(pattern, [instance], 3.0) == [(N, 4.0)]
    assert score_table(pattern, [instance], 0.0) == [(N, 1.0)]


def test_score_table_has_one_row_per_instance_in_order():
    pattern = make_pattern("AB", [10])
    labeled = [make_instance("AB", [10], label=lbl) for lbl in (N, S, T) for _ in range(20)]
    rows = score_table(pattern, labeled, 1.0)
    assert len(rows) == 60
    assert [lbl for lbl, _ in rows] == [lbl for lbl in (N, S, T) for _ in range(20)]


def test_sweep_rejects_unlabeled_instances():
    pattern = make_pattern("AB", [10])
    with pytest.raises(ValueError, match="unlabeled"):
        sweep(scored(pattern, [make_instance("AB", [10])]))


def test_sweep_rejects_empty_input():
    with pytest.raises(ValueError, match="empty"):
        sweep([])


def test_best_interval_separates_separable_scores():
    rows = [(N, 3.0), (N, 3.05), (T, 2.0), (T, 4.5)]
    lo, hi, accuracy = best_interval(rows)
    assert accuracy == 1.0
    assert lo <= 3.0 and 3.05 <= hi
    assert not (lo <= 2.0 <= hi) and not (lo <= 4.5 <= hi)


def test_best_interval_with_identical_scores_keeps_the_majority():
    rows = [(N, 3.0), (N, 3.0), (N, 3.0), (S, 3.0)]
    lo, hi, accuracy = best_interval(rows)
    assert accuracy == 0.75
    assert lo <= 3.0 <= hi


def test_best_interval_with_an_embedded_anomaly():
    rows = [(N, 1.0), (N, 2.0), (N, 3.0), (S, 2.0)]
    _, _, accuracy = best_interval(rows)
    assert accuracy == 0.75


def test_best_interval_without_anomalies_covers_everything():
    rows = [(N, 1.0), (N, 2.0), (N, 5.0)]
    lo, hi, accuracy = best_interval(rows)
    assert accuracy == 1.0
    assert lo <= 1.0 and hi >= 5.0


def test_best_interval_prefers_the_widest_tie():
    # Either endpoint alone scores 0.5; the widest winning interval spans both.
    rows = [(N, 1.0), (N, 5.0)]
    lo, hi, accuracy = best_interval(rows)
    assert accuracy == 1.0
    assert hi - lo == pytest.approx(4.0, abs=1e-6)


def test_best_interval_rejects_empty_rows():
    with pytest.raises(ValueError, match="non-empty"):
        best_interval([])


def exhaustive_best_accuracy(rows, epsilon=1e-9):
    """Oracle: try every candidate boundary pair."""
    scores = sorted({s for _, s in rows})
    candidates = sorted(
        {s for s in scores} | {s - epsilon for s in scores} | {s + epsilon for s in scores}
    )
    best = 0.0
    for i, lo in enumerate(candidates):
        for hi in candidates[i:]:
            best = max(best, interval_accuracy(rows, lo, hi))
    return best


@given(
    rows=st.lists(
        st.tuples(
            st.sampled_from([N, S, T]),
            st.floats(min_value=0, max_value=6, allow_nan=False),
        ),
        min_size=1,
        max_size=12,
    )
)
def test_best_interval_matches_exhaustive_scan(rows):
    lo, hi, accuracy = best_interval(rows)
    assert accuracy == exhaustive_best_accuracy(rows)
    assert interval_accuracy(rows, lo, hi) == accuracy


@given(
    rows=st.lists(
        st.tuples(
            st.sampled_from([N, S]),
            st.floats(min_value=0, max_value=6, allow_nan=False),
        ),
        min_size=1,
        max_size=20,
    )
)
def test_best_interval_accuracy_is_reproducible_from_its_endpoints(rows):
    lo, hi, accuracy = best_interval(rows)
    assert lo <= hi
    assert interval_accuracy(rows, lo, hi) == accuracy


# The all-pairs O(m^2) search that best_interval replaced, kept unchanged as an
# exact reference: models.json depends on the endpoints, not just the accuracy.
def _quadratic_best_interval(
    rows: list[tuple[str, float]], epsilon: float = 1e-9
) -> tuple[float, float, float]:
    """Closed score interval [lo, hi] that best separates normal from anomaly.

    Candidate boundaries are the sorted distinct scores nudged by ±epsilon.
    Accuracy counts normals inside plus anomalies outside. Ties prefer the
    widest interval, then the smallest lo. Returns (lo, hi, accuracy).
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
    for i in range(m):
        for j in range(i, m):
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


# Scores drawn from here repeat often and sit within 1e-9 of each other, so the
# boundary nudges, the width tie-break and the lo tie-break all come into play.
_CLOSE_SCORES = [
    0.0, 2e-10, 1e-9, 1.5e-9, 3e-9,
    1.0, 1.0 + 5e-10, 1.0 + 1e-9, 1.0 + 2e-9, 1.0 - 1e-9,
    2.5, 2.5 + math.ulp(2.5), 3.0, 3.0 + 1e-9, 5.9,
]


@given(
    rows=st.lists(
        st.tuples(
            st.sampled_from([N, S, T]),
            st.one_of(
                st.sampled_from(_CLOSE_SCORES),
                st.floats(min_value=0, max_value=6, allow_nan=False),
            ),
        ),
        min_size=1,
        max_size=60,
    )
)
def test_best_interval_equals_the_quadratic_reference(rows):
    assert best_interval(rows) == _quadratic_best_interval(rows, BOUNDARY_EPSILON)


# Rows drawn from _CLOSE_SCORES alone share scores often, with mixed labels at
# one score, so the end of each equal-score run must come from the sorted rows
# and not from the order the caller gave.
@given(
    rows=st.lists(
        st.tuples(st.sampled_from([N, S, T]), st.sampled_from(_CLOSE_SCORES)),
        min_size=1,
        max_size=40,
    ),
    data=st.data(),
)
def test_best_interval_ignores_the_order_of_its_rows(rows, data):
    shuffled = data.draw(st.permutations(rows))
    assert best_interval(shuffled) == best_interval(rows)


# best_interval builds the empty-interval candidates only when no run of
# scores has more normals than anomalies; each set here reaches that branch.
@pytest.mark.parametrize(
    "rows, expected",
    [
        ([(S, 1.0)], (1.0 - 1e-9, 1.0 - 1e-9, 1.0)),
        ([(S, 1.0), (T, 2.0), (S, 2.0)], (1.0 + 1e-9, 2.0 - 1e-9, 1.0)),
        ([(N, 1.0), (S, 1.0), (S, 2.0), (T, 100.0)], (2.0 + 1e-9, 100.0 - 1e-9, 0.75)),
        ([(N, 1.0), (S, 1.0)], (1.0 - 1e-9, 1.0 + 1e-9, 0.5)),
    ],
    ids=[
        "one-anomaly",
        "all-anomalies-widest-gap",
        "zero-gain-empty-gap-wider",
        "zero-gain-interval-wider",
    ],
)
def test_best_interval_without_a_positive_gain_equals_the_quadratic_reference(rows, expected):
    assert best_interval(rows) == _quadratic_best_interval(rows, BOUNDARY_EPSILON) == expected


def _separable_training_set():
    normals = [make_instance("ABC", [10_000 + d, 20_000 - d], label=N) for d in (0, 50, -50)]
    fast = [make_instance("ABC", [500_000, 20_000], label=T) for _ in range(2)]
    partial = [make_instance("AC", [30_000], label=S) for _ in range(2)]
    return normals + fast + partial


def test_train_reaches_full_accuracy_when_classes_separate():
    model = train(make_pattern("ABC", [10_000, 20_000]), _separable_training_set())
    assert model.training_accuracy == 1.0
    assert model.activity == "p"


def test_train_breaks_accuracy_ties_toward_the_smallest_alpha():
    # A lone normal instance is classified perfectly at every sweep point.
    pattern = make_pattern("AB", [10])
    model = train(pattern, [make_instance("AB", [10], label=N)])
    assert model.alpha == 0.0
    assert model.training_accuracy == 1.0


def test_trained_accuracy_matches_a_recount_on_the_training_set():
    pattern = make_pattern("ABC", [10_000, 20_000])
    labeled = _separable_training_set()
    model = train(pattern, labeled)
    rows = score_table(pattern, labeled, model.alpha)
    assert interval_accuracy(rows, model.lo, model.hi) == model.training_accuracy


def test_train_picks_a_grid_alpha():
    model = train(make_pattern("ABC", [10_000, 20_000]), _separable_training_set())
    assert model.alpha in ALPHA_GRID


def test_sweep_has_one_row_per_grid_weight_refit_from_a_score_table():
    pattern = make_pattern("ABC", [10_000, 20_000])
    labeled = _separable_training_set()
    expected = [
        (alpha, *best_interval(score_table(pattern, labeled, alpha))) for alpha in ALPHA_GRID
    ]
    assert list(sweep(scored(pattern, labeled))) == expected


def test_train_scores_each_instance_once(monkeypatch):
    calls = Counter()
    original = training_module.score

    def counting_score(pattern, instance):
        calls[instance] += 1
        return original(pattern, instance)

    monkeypatch.setattr(training_module, "score", counting_score)
    labeled = _separable_training_set()
    train(make_pattern("ABC", [10_000, 20_000]), labeled)
    assert calls == Counter(labeled)


def test_curve_is_each_sweep_row_with_its_test_accuracy_as_classify_judges_it():
    pattern = make_pattern("ABC", [10_000, 20_000])
    labeled = _separable_training_set()
    test = [
        make_instance("ABC", [10_020, 19_990], label=N),
        make_instance("ABC", [400_000, 20_000], label=T),
        make_instance("AC", [31_000], label=S),
        make_instance("ABC", [12_000, 18_000], label=N),
    ]
    rows = curve(scored(pattern, labeled), scored(pattern, test))
    assert [row[:4] for row in rows] == list(sweep(scored(pattern, labeled)))
    for alpha, lo, hi, train_acc, test_acc in rows:
        model = ScoreModel("p", alpha, lo, hi, train_acc)
        assert test_acc == build_report([pattern], {"p": model}, test)["overall"]["accuracy"]


def test_curve_with_no_test_instances_has_no_test_accuracy():
    pattern = make_pattern("ABC", [10_000, 20_000])
    rows = curve(scored(pattern, _separable_training_set()), [])
    assert rows and all(row[4] is None for row in rows)


def test_curve_rejects_an_unlabeled_test_instance():
    pattern = make_pattern("AB", [10])
    test = [make_instance("AB", [10], source_id="seg-0003")]
    with pytest.raises(ValueError, match="^unlabeled instance 'seg-0003' in test set$"):
        curve(scored(pattern, [make_instance("AB", [10], label=N)]), scored(pattern, test))


def test_train_takes_the_first_sweep_row_with_the_best_accuracy():
    pattern = make_pattern("ABC", [10_000, 20_000])
    labeled = _separable_training_set()
    rows = list(sweep(scored(pattern, labeled)))
    best = max(acc for _, _, _, acc in rows)
    alpha, lo, hi, acc = next(row for row in rows if row[3] == best)
    assert train(pattern, labeled) == ScoreModel("p", alpha, lo, hi, acc)


def _first_best_row(rows):
    """The first sweep row with the highest accuracy: the row fit's model is made of."""
    best = max(acc for _, _, _, acc in rows)
    return next(row for row in rows if row[3] == best)


def _count_best_interval_calls(monkeypatch):
    """Wrap training.best_interval; returns the list of each call's row count."""
    calls = []
    original = training_module.best_interval

    def counting(rows):
        calls.append(len(rows))
        return original(rows)

    monkeypatch.setattr(training_module, "best_interval", counting)
    return calls


def test_fit_stops_at_the_first_sweep_row_with_full_accuracy(monkeypatch):
    pattern = make_pattern("ABC", [10_000, 20_000])
    pairs = scored(pattern, _separable_training_set())
    rows = list(sweep(pairs))
    first = next(k for k, row in enumerate(rows) if row[3] == 1.0)
    assert first + 1 < len(rows)  # an exit that leaves weights uncomputed
    calls = _count_best_interval_calls(monkeypatch)
    model = fit("p", pairs)
    assert calls == [len(pairs)] * (first + 1)
    assert model == ScoreModel("p", *rows[first])


def test_fit_computes_every_weight_when_no_weight_separates(monkeypatch):
    # A normal and an anomaly with the same events score alike at every weight.
    pattern = make_pattern("ABC", [10_000, 20_000])
    pairs = scored(
        pattern,
        [make_instance("ABC", [10_000, 20_000], label=lbl) for lbl in (N, T)]
        + [make_instance("AC", [30_000], label=S)],
    )
    rows = list(sweep(pairs))
    assert max(acc for _, _, _, acc in rows) < 1.0
    calls = _count_best_interval_calls(monkeypatch)
    model = fit("p", pairs)
    assert len(calls) == len(ALPHA_GRID) == len(rows)
    assert model == ScoreModel("p", *_first_best_row(rows))


def test_sweep_computes_each_row_when_it_is_drawn(monkeypatch):
    pattern = make_pattern("ABC", [10_000, 20_000])
    pairs = scored(pattern, _separable_training_set())
    calls = _count_best_interval_calls(monkeypatch)
    rows = sweep(pairs)
    assert calls == []
    assert next(rows)[0] == 0.0
    assert calls == [len(pairs)]


def test_fit_rejects_an_unlabeled_instance_before_any_interval(monkeypatch):
    pattern = make_pattern("AB", [10])
    labeled = [make_instance("AB", [10], label=N), make_instance("AB", [10], source_id="seg-0001")]
    calls = _count_best_interval_calls(monkeypatch)
    with pytest.raises(ValueError, match="^unlabeled instance 'seg-0001' in training set$"):
        fit("p", scored(pattern, labeled))
    assert calls == []


# Breakdowns drawn from a few completeness and timing values: rows often reach
# full accuracy, at the first weight or a later one. A normal and an anomaly
# given the same breakdown (clash) keep every weight below full accuracy.
_BREAKDOWNS = st.builds(
    ScoreBreakdown,
    st.sampled_from([1.0, 0.75, 0.5]),
    st.sampled_from([1.0, 0.9, 0.5, 0.0, -0.2]),
    st.just(()),
)


@given(
    rows=st.lists(st.tuples(st.sampled_from([N, S, T]), _BREAKDOWNS), min_size=1, max_size=12),
    clash=st.one_of(st.none(), _BREAKDOWNS),
)
def test_fit_equals_the_first_best_sweep_row(rows, clash):
    if clash is not None:
        rows = rows + [(N, clash), (T, clash)]
    pairs = [(make_instance("AB", [10], label=lbl), b) for lbl, b in rows]
    assert fit("p", pairs) == ScoreModel("p", *_first_best_row(list(sweep(pairs))))


def test_score_model_validates_interval_order():
    with pytest.raises(ValueError, match="lo"):
        ScoreModel(activity="p", alpha=1.0, lo=2.0, hi=1.0, training_accuracy=0.5)


@pytest.mark.parametrize(
    "field, value, message",
    [
        ("alpha", math.nan, "alpha must be a finite number"),
        ("alpha", math.inf, "alpha must be a finite number"),
        ("alpha", -0.5, "alpha must be >= 0"),
        ("lo", math.nan, "lo must be a finite number"),
        ("lo", -math.inf, "lo must be a finite number"),
        ("hi", math.nan, "hi must be a finite number"),
        ("hi", math.inf, "hi must be a finite number"),
        ("training_accuracy", 1.5, r"training_accuracy must be in \[0, 1\]"),
    ],
    ids=[
        "alpha-nan", "alpha-inf", "alpha-negative", "lo-nan", "lo-minus-inf", "hi-nan", "hi-inf",
        "training_accuracy-over-1",
    ],
)
def test_score_model_rejects_a_weight_or_bound_it_cannot_classify_with(field, value, message):
    settings = {"activity": "p", "alpha": 1.0, "lo": 1.0, "hi": 2.0, "training_accuracy": 0.5}
    with pytest.raises(ValueError, match=f"^{message}$"):
        ScoreModel(**{**settings, field: value})


def test_model_json_round_trip_array():
    models = [
        ScoreModel(activity="a", alpha=0.1, lo=1.0, hi=2.0, training_accuracy=1.0),
        ScoreModel(activity="b", alpha=3.0, lo=2.9, hi=3.1, training_accuracy=0.95),
    ]
    assert models_from_json(models_to_json(models)) == models
