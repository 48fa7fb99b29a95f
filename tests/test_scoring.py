from __future__ import annotations

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import brute_force_longest_match, make_instance, make_pattern
from tempoguard import scoring
from tempoguard.scoring import Alignment, align, angle, merged_intervals, score

# ------------------------------------------------------------------ alignment


def test_align_unique_longest_match():
    a = align(make_pattern("ABCD"), make_instance("ABD"))
    assert a.pairs == ((0, 0), (1, 1), (3, 2))
    assert a.matched == 3


def test_align_identical_sequences_match_everywhere():
    a = align(make_pattern("ABC"), make_instance("ABC"))
    assert a.pairs == ((0, 0), (1, 1), (2, 2))


def test_align_disjoint_sequences_match_nothing():
    assert align(make_pattern("ABC"), make_instance("XYZ")).matched == 0


def test_align_prefers_earliest_pattern_positions():
    # 'A' appears twice in the pattern; the match should use index 0, not 2.
    a = align(make_pattern("ABA"), make_instance("A"))
    assert a.pairs == ((0, 0),)


@given(
    pattern=st.text(alphabet="AB", min_size=1, max_size=7),
    instance=st.text(alphabet="AB", min_size=1, max_size=7),
)
def test_align_matches_brute_force_maximum(pattern, instance):
    a = align(make_pattern(pattern), make_instance(instance))
    assert a.matched == brute_force_longest_match(pattern, instance)


@given(
    pattern=st.text(alphabet="ABC", min_size=1, max_size=8),
    instance=st.text(alphabet="ABC", min_size=1, max_size=8),
)
def test_align_pairs_increase_and_keys_agree(pattern, instance):
    a = align(make_pattern(pattern), make_instance(instance))
    for (p0, t0), (p1, t1) in zip(a.pairs, a.pairs[1:]):
        assert p0 < p1 and t0 < t1
    for p, t in a.pairs:
        assert pattern[p] == instance[t]


def _reference_align(pattern, instance) -> Alignment:
    """The table over EventKey objects that align replaced, kept verbatim as its oracle."""
    pattern_keys = pattern.keys
    instance_keys = instance.key_sequence()
    m, n = len(pattern_keys), len(instance_keys)
    # dp[i][j] = longest match of pattern_keys[i:] vs instance_keys[j:]
    dp = [[0] * (n + 1) for _ in range(m + 1)]
    for i in range(m - 1, -1, -1):
        row, below = dp[i], dp[i + 1]
        for j in range(n - 1, -1, -1):
            if pattern_keys[i] == instance_keys[j]:
                row[j] = below[j + 1] + 1
            else:
                row[j] = max(below[j], row[j + 1])
    pairs: list[tuple[int, int]] = []
    i = j = 0
    while i < m and j < n:
        if pattern_keys[i] == instance_keys[j]:
            pairs.append((i, j))
            i += 1
            j += 1
        elif dp[i][j + 1] >= dp[i + 1][j]:
            j += 1
        else:
            i += 1
    return Alignment(pairs=tuple(pairs))


# Pattern letters repeat; X, Y and Z never occur in a pattern.
_PATTERN_TEXT = st.text(alphabet="ABC", min_size=1, max_size=8)
_FOREIGN_TEXT = st.text(alphabet="XYZ", min_size=1, max_size=6)


@given(
    pattern=_PATTERN_TEXT,
    instance=st.one_of(st.text(alphabet="ABCXYZ", min_size=1, max_size=12), _FOREIGN_TEXT),
)
def test_align_equals_the_reference_table(pattern, instance):
    p, inst = make_pattern(pattern), make_instance(instance)
    assert align(p, inst) == _reference_align(p, inst)


@given(clean=st.text(alphabet="ABC", min_size=1, max_size=8), data=st.data())
def test_foreign_keys_only_shift_instance_indices(clean, data):
    p = make_pattern(data.draw(_PATTERN_TEXT))
    noisy, kept = "", []
    for letter in clean:
        noisy += data.draw(st.text(alphabet="XYZ", max_size=2))
        kept.append(len(noisy))
        noisy += letter
    noisy += data.draw(st.text(alphabet="XYZ", max_size=2))
    expected = tuple((i, kept[j]) for i, j in align(p, make_instance(clean)).pairs)
    assert align(p, make_instance(noisy)).pairs == expected


def test_align_cache_stays_within_its_bound():
    pattern = make_pattern("ABC")
    scoring._align_codes.cache_clear()
    extra = scoring.ALIGN_CACHE_SIZE + 50
    for n in range(extra):
        letters = ""
        while True:  # n in base 3 over A, B, C: a distinct instance each time
            n, digit = divmod(n, 3)
            letters += "ABC"[digit]
            if n == 0:
                break
        align(pattern, make_instance(letters))
    info = scoring._align_codes.cache_info()
    assert info.misses == extra
    assert info.currsize == info.maxsize == scoring.ALIGN_CACHE_SIZE


# ----------------------------------------------------------- merged intervals


def test_merged_intervals_sum_across_a_deleted_event():
    pattern = make_pattern("ABCD", [10, 20, 30])
    instance = make_instance("ABD", [10, 50])  # C missing; timing consistent
    test, ref = merged_intervals(pattern, instance, align(pattern, instance))
    assert test == (10.0, 50.0)
    assert ref == (10.0, 50.0)


def test_merged_intervals_on_full_match_are_the_raw_vectors():
    pattern = make_pattern("ABC", [10, 20])
    instance = make_instance("ABC", [11, 19])
    test, ref = merged_intervals(pattern, instance, align(pattern, instance))
    assert test == (11.0, 19.0)
    assert ref == (10.0, 20.0)


def test_merged_intervals_with_one_match_are_empty():
    pattern = make_pattern("AB", [10])
    instance = make_instance("AX", [10])
    test, ref = merged_intervals(pattern, instance, align(pattern, instance))
    assert test == () and ref == ()


@given(
    letters=st.text(alphabet="ABCDE", min_size=2, max_size=8),
    data=st.data(),
)
def test_merge_conserves_elapsed_time(letters, data):
    gaps = data.draw(
        st.lists(
            st.integers(min_value=1, max_value=10**6),
            min_size=len(letters) - 1,
            max_size=len(letters) - 1,
        )
    )
    means = data.draw(
        st.lists(
            st.floats(min_value=1, max_value=10**6),
            min_size=len(letters) - 1,
            max_size=len(letters) - 1,
        )
    )
    pattern = make_pattern(letters, means)
    instance = make_instance(letters[::-1], gaps)  # arbitrary overlap
    a = align(pattern, instance)
    test, ref = merged_intervals(pattern, instance, a)
    if a.matched >= 2:
        first, last = a.pairs[0], a.pairs[-1]
        span = instance.events[last[1]].timestamp_ms - instance.events[first[1]].timestamp_ms
        assert sum(test) == pytest.approx(span)
        assert sum(ref) == pytest.approx(sum(means[first[0] : last[0]]))
    else:
        assert test == () and ref == ()


# ---------------------------------------------------------------------- angle


def test_angle_of_orthogonal_vectors_is_half_pi():
    assert angle((1.0, 0.0), (0.0, 1.0)) == pytest.approx(math.pi / 2, abs=1e-15)


def test_angle_of_collinear_vectors_is_zero():
    assert angle((10.0, 20.0), (20.0, 40.0)) == 0.0


def test_angle_of_known_pair_matches_frozen_reference():
    # Independently computed with 50-digit arithmetic and frozen here.
    assert angle((10.0, 20.0), (500.0, 20.0)) == pytest.approx(
        1.0671700306708005, abs=1e-12
    )


def test_angle_of_empty_vectors_is_zero():
    assert angle((), ()) == 0.0


def test_angle_of_two_zero_vectors_is_zero():
    assert angle((0.0, 0.0), (0.0, 0.0)) == 0.0


def test_angle_of_one_zero_vector_is_quarter_turn():
    assert angle((0.0, 0.0), (1.0, 2.0)) == math.pi / 2


def test_angle_rejects_length_mismatch():
    with pytest.raises(ValueError, match="lengths differ"):
        angle((1.0,), (1.0, 2.0))


@given(
    u=st.lists(st.floats(min_value=0, max_value=1e9), min_size=1, max_size=8),
    data=st.data(),
)
def test_angle_is_symmetric_and_bounded_for_nonnegative_vectors(u, data):
    v = data.draw(
        st.lists(st.floats(min_value=0, max_value=1e9), min_size=len(u), max_size=len(u))
    )
    theta = angle(tuple(u), tuple(v))
    assert theta == angle(tuple(v), tuple(u))
    assert 0.0 <= theta <= math.pi / 2 + 1e-12


# ---------------------------------------------------------------------- score


def test_score_of_identical_instance_is_one_plus_alpha():
    pattern = make_pattern("ABC", [1000, 58000])
    instance = make_instance("ABC", [1000, 58000])
    b = score(pattern, instance, 3.0)
    assert b.completeness == 1.0
    assert b.angle_rad == 0.0
    assert b.timing_similarity == 1.0
    assert b.total == 4.0


def test_score_counts_matched_fraction():
    pattern = make_pattern("ABCDE")
    instance = make_instance("ABCE", [1000, 1000, 2000])
    b = score(pattern, instance, 0.0)
    assert b.completeness == pytest.approx(0.8)
    assert b.total == pytest.approx(0.8)


def test_score_of_known_divergent_timing():
    # Frozen alongside the angle reference above: 1 + 3 * (1 - theta/pi).
    pattern = make_pattern("ABC", [10, 20])
    instance = make_instance("ABC", [500, 20])
    b = score(pattern, instance, 3.0)
    assert b.total == pytest.approx(2.9809276869952753, abs=1e-12)


def test_score_single_key_pattern_matched_gets_full_timing_credit():
    pattern = make_pattern("A", [])
    b = score(pattern, make_instance("A", []), 3.0)
    assert b.completeness == 1.0 and b.timing_similarity == 1.0 and b.total == 4.0


def test_score_single_key_pattern_unmatched_gets_nothing():
    pattern = make_pattern("A", [])
    b = score(pattern, make_instance("X", []), 3.0)
    assert b.completeness == 0.0 and b.timing_similarity == 0.0 and b.total == 0.0


def test_score_with_fewer_than_two_matches_has_no_timing_evidence():
    pattern = make_pattern("ABC")
    b = score(pattern, make_instance("AXY"), 5.0)
    assert b.matched == 1
    assert b.timing_similarity == 0.0
    assert b.angle_rad == 0.0
    assert b.total == pytest.approx(1 / 3)


def test_score_counts_unmatched_test_events():
    pattern = make_pattern("AB")
    b = score(pattern, make_instance("AXB", [10, 10]), 0.0)
    assert b.unmatched_test_events == 1


def test_score_rejects_negative_alpha():
    with pytest.raises(ValueError, match="alpha"):
        score(make_pattern("AB"), make_instance("AB"), -0.1)


@pytest.mark.parametrize("alpha", [math.nan, math.inf])
def test_score_rejects_a_non_finite_alpha(alpha):
    with pytest.raises(ValueError, match=f"^alpha must be a finite number >= 0, not {alpha}$"):
        score(make_pattern("AB"), make_instance("AB"), alpha)


def test_deleting_one_matched_event_costs_exactly_one_nth():
    pattern = make_pattern("ABCDE")
    full = make_instance("ABCDE")
    partial = make_instance("ABDE", [1000, 2000, 1000])
    drop = score(pattern, full, 0.0).completeness - score(pattern, partial, 0.0).completeness
    assert drop == pytest.approx(1 / 5)


@given(
    alpha=st.floats(min_value=0, max_value=5),
    gaps=st.lists(st.integers(min_value=1, max_value=10**6), min_size=1, max_size=6),
)
def test_score_total_is_exactly_completeness_plus_weighted_timing(alpha, gaps):
    letters = "ABCDEFG"[: len(gaps) + 1]
    pattern = make_pattern(letters, [g + 1 for g in gaps])
    b = score(pattern, make_instance(letters, gaps), alpha)
    assert b.total == b.completeness + alpha * b.timing_similarity
    assert 0.0 <= b.completeness <= 1.0
    assert 0.0 <= b.timing_similarity <= 1.0
