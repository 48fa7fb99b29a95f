from __future__ import annotations

import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import make_instance, make_pattern
from tempoguard.cli import run
from tempoguard.config import RunConfig
from tempoguard.events import (
    LABEL_ANOMALY_SEQ,
    LABEL_ANOMALY_TI,
    LABEL_NORMAL,
    MAX_TIMESTAMP_MS,
    intervals,
)
from tempoguard.forge import (
    augment_normals,
    make_anomalies,
    make_anomaly_seq,
    make_anomaly_ti,
    smote_midpoint,
)
from tempoguard.scoring import align


def test_midpoint_of_two_interval_vectors():
    a = make_instance("ABC", [10_000, 20_000])
    b = make_instance("ABC", [20_000, 40_000])
    assert intervals(smote_midpoint(a, b)) == (15_000, 30_000)


def test_midpoint_of_an_instance_with_itself_is_itself():
    a = make_instance("ABC", [10, 20])
    assert intervals(smote_midpoint(a, a)) == (10, 20)


def test_midpoint_of_zero_and_ten_is_five():
    a = make_instance("ABC", [0, 0])
    b = make_instance("ABC", [10, 10])
    assert intervals(smote_midpoint(a, b)) == (5, 5)


def test_midpoint_keeps_first_timestamp_and_labels_normal():
    a = make_instance("AB", [10], t0=777_000)
    b = make_instance("AB", [30], t0=999_000)
    mid = smote_midpoint(a, b)
    assert mid.events[0].timestamp_ms == 777_000
    assert mid.label == LABEL_NORMAL


def test_midpoint_rejects_different_key_sequences():
    with pytest.raises(ValueError, match="key sequence"):
        smote_midpoint(make_instance("AB"), make_instance("AC"))


@given(
    pairs=st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=10**7),
            st.integers(min_value=0, max_value=10**7),
        ),
        min_size=1,
        max_size=8,
    )
)
def test_midpoint_lies_within_component_extremes(pairs):
    letters = "ABCDEFGHI"[: len(pairs) + 1]
    a = make_instance(letters, [p[0] for p in pairs])
    b = make_instance(letters, [p[1] for p in pairs])
    for mid, (x, y) in zip(intervals(smote_midpoint(a, b)), pairs):
        assert min(x, y) <= mid <= max(x, y)


def test_deleting_a_middle_event_merges_its_intervals():
    source = make_instance("ABC", [10, 20])
    rng = _rng_choosing(1)
    anomaly = make_anomaly_seq(source, rng)
    assert intervals(anomaly) == (30,)
    assert [e.key for e in anomaly.events] == [source.events[0].key, source.events[2].key]
    assert anomaly.label == LABEL_ANOMALY_SEQ


def test_deleting_an_endpoint_drops_the_end_interval():
    source = make_instance("ABC", [10, 20])
    anomaly = make_anomaly_seq(source, _rng_choosing(0))
    assert intervals(anomaly) == (20,)


def test_deletion_keeps_remaining_timestamps():
    source = make_instance("ABCD", [10, 20, 30], t0=5_000)
    anomaly = make_anomaly_seq(source, _rng_choosing(2))
    assert [e.timestamp_ms for e in anomaly.events] == [5_000, 5_010, 5_060]


def test_deletion_is_deterministic_under_a_seed():
    source = make_instance("ABCDE")
    one = make_anomaly_seq(source, random.Random(7))
    two = make_anomaly_seq(source, random.Random(7))
    assert one == two


def test_deletion_rejects_single_event_instances():
    with pytest.raises(ValueError, match="at least 2"):
        make_anomaly_seq(make_instance("A", []), random.Random(0))


@given(n=st.integers(min_value=2, max_value=9), seed=st.integers(0, 1000))
def test_deletion_leaves_an_alignment_one_short(n, seed):
    letters = "ABCDEFGHI"[:n]
    source = make_instance(letters)
    pattern = make_pattern(letters)
    anomaly = make_anomaly_seq(source, random.Random(seed))
    assert len(align(pattern, anomaly)) == n - 1


def test_stretching_multiplies_exactly_one_interval():
    source = make_instance("ABC", [10, 20])
    stretched = make_anomaly_ti(source, RunConfig(ti_multiplier=50), _rng_choosing(0))
    assert intervals(stretched) == (500, 20)
    assert stretched.label == LABEL_ANOMALY_TI


def test_stretching_the_other_interval():
    source = make_instance("ABC", [10, 20])
    stretched = make_anomaly_ti(source, RunConfig(ti_multiplier=50), _rng_choosing(1))
    assert intervals(stretched) == (10, 1000)


def test_stretching_shifts_later_timestamps_only():
    source = make_instance("ABCD", [10, 20, 30], t0=1_000)
    stretched = make_anomaly_ti(source, RunConfig(ti_multiplier=50), _rng_choosing(1))
    assert [e.timestamp_ms for e in stretched.events] == [1_000, 1_010, 2_010, 2_040]
    assert stretched.key_sequence() == source.key_sequence()


def test_stretching_rejects_single_event_instances():
    with pytest.raises(ValueError, match="at least 2"):
        make_anomaly_ti(make_instance("A", []), RunConfig(), random.Random(0))


def test_forge_config_rejects_multiplier_of_one_or_less(capsys):
    argv = ["split", "missing.jsonl", "--train-out=a", "--test-out=b", "--ti-multiplier=1"]
    assert run(argv) == 2
    assert "error: ti_multiplier must be > 1" in capsys.readouterr().err


def test_augment_zero_is_empty():
    assert augment_normals([make_instance("AB")], 0, random.Random(0)) == []


def test_augment_pool_of_two_returns_their_midpoint():
    pool = [make_instance("AB", [10]), make_instance("AB", [30])]
    [synthetic] = augment_normals(pool, 1, random.Random(0))
    assert intervals(synthetic) == (20,)


def test_augment_rejects_empty_pool():
    with pytest.raises(ValueError, match="non-empty"):
        augment_normals([], 1, random.Random(0))


def test_augment_rejects_lone_instance_when_asked_for_output():
    with pytest.raises(ValueError, match="distinct pair"):
        augment_normals([make_instance("AB")], 1, random.Random(0))


def test_augment_rejects_mixed_key_sequences():
    pool = [make_instance("AB"), make_instance("AC")]
    with pytest.raises(ValueError, match="key sequence"):
        augment_normals(pool, 1, random.Random(0))


def test_augment_is_reproducible_and_bounded():
    rng = random.Random(123)
    pool = [make_instance("ABC", [rng.randrange(1000, 9000), rng.randrange(1000, 9000)])
            for _ in range(40)]
    first = augment_normals(pool, 40, random.Random(42))
    second = augment_normals(pool, 40, random.Random(42))
    assert first == second
    lo = [min(intervals(p)[k] for p in pool) for k in range(2)]
    hi = [max(intervals(p)[k] for p in pool) for k in range(2)]
    for synthetic in first:
        assert synthetic.label == LABEL_NORMAL
        for k, gap in enumerate(intervals(synthetic)):
            assert lo[k] <= gap <= hi[k]


def _rng_choosing(index: int) -> random.Random:
    """RNG whose first randrange call lands on the given index."""

    class Fixed(random.Random):
        def randrange(self, start, stop=None, step=1):
            return index

    return Fixed()


@pytest.mark.parametrize("multiplier", [1e12, 1e308])
def test_stretching_an_interval_past_any_log_span_is_an_error_naming_the_instance(multiplier):
    source = make_instance("ABC", [1000, 2000], source_id="seg-7")
    message = (
        rf"^instance 'seg-7': ti_multiplier {multiplier} stretches a 2000 ms interval past "
        rf"{MAX_TIMESTAMP_MS} ms$"
    ).replace("+", r"\+")
    with pytest.raises(ValueError, match=message):
        make_anomaly_ti(source, RunConfig(ti_multiplier=multiplier), _rng_choosing(1))


def _pick_then_make(kind, pool, count, cfg, rng):
    """The draw make_anomalies replaced, copied as it was: pick every source, then forge each."""
    if count <= len(pool):
        sources = rng.sample(pool, count)
    else:
        sources = [pool[rng.randrange(len(pool))] for _ in range(count)]
    out = []
    for src in sources:
        if kind == "seq":
            out.append(make_anomaly_seq(src, rng))
        else:
            out.append(make_anomaly_ti(src, cfg, rng))
    return out


@pytest.mark.parametrize("kind", ["seq", "ti"])
@pytest.mark.parametrize("count", [0, 3, 5, 12], ids=lambda n: f"count={n}")
def test_make_anomalies_draws_as_the_pick_then_make_loop(kind, count):
    # A pool of 5: counts up to 5 are distinct draws, 12 draws with replacement.
    pool = [
        make_instance("ABCD", [1000 + i, 2000, 3000 * i + 1], source_id=f"p{i}") for i in range(5)
    ]
    cfg = RunConfig(ti_multiplier=7.5)
    for seed in range(20):
        ours, reference = random.Random(seed), random.Random(seed)
        forged = make_anomalies(kind, pool, count, cfg, ours)
        assert forged == _pick_then_make(kind, pool, count, cfg, reference)
        assert ours.getstate() == reference.getstate()
    assert len(forged) == count
    if 0 < count <= len(pool):
        assert len({inst.source_id for inst in forged}) == count


def test_make_anomalies_rejects_an_unknown_kind_before_drawing():
    rng = random.Random(0)
    state = rng.getstate()
    with pytest.raises(ValueError, match="^unknown anomaly kind 'both'$"):
        make_anomalies("both", [make_instance("AB")], 1, RunConfig(), rng)
    assert rng.getstate() == state


@pytest.mark.parametrize("kind", ["seq", "ti"])
def test_make_anomalies_rejects_an_empty_pool_naming_its_kind_before_drawing(kind):
    rng = random.Random(0)
    state = rng.getstate()
    with pytest.raises(ValueError, match=f"^pool must be non-empty for {kind} anomalies$"):
        make_anomalies(kind, [], 3, RunConfig(), rng)
    assert rng.getstate() == state
