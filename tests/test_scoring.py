from __future__ import annotations

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import brute_force_longest_match, make_instance, make_pattern
from tempoguard import scoring
from tempoguard.scoring import align, angle, score

# ------------------------------------------------------------------ alignment


def test_align_unique_longest_match():
    assert align(make_pattern("ABCD"), make_instance("ABD")) == ((0, 0), (1, 1), (3, 2))


def test_align_identical_sequences_match_everywhere():
    assert align(make_pattern("ABC"), make_instance("ABC")) == ((0, 0), (1, 1), (2, 2))


def test_align_disjoint_sequences_match_nothing():
    assert align(make_pattern("ABC"), make_instance("XYZ")) == ()


def test_align_prefers_earliest_pattern_positions():
    # 'A' appears twice in the pattern; the match should use index 0, not 2.
    assert align(make_pattern("ABA"), make_instance("A")) == ((0, 0),)


@given(
    pattern=st.text(alphabet="AB", min_size=1, max_size=7),
    instance=st.text(alphabet="AB", min_size=1, max_size=7),
)
def test_align_matches_brute_force_maximum(pattern, instance):
    pairs = align(make_pattern(pattern), make_instance(instance))
    assert len(pairs) == brute_force_longest_match(pattern, instance)


@given(
    pattern=st.text(alphabet="ABC", min_size=1, max_size=8),
    instance=st.text(alphabet="ABC", min_size=1, max_size=8),
)
def test_align_pairs_increase_and_keys_agree(pattern, instance):
    pairs = align(make_pattern(pattern), make_instance(instance))
    for (p0, t0), (p1, t1) in zip(pairs, pairs[1:]):
        assert p0 < p1 and t0 < t1
    for p, t in pairs:
        assert pattern[p] == instance[t]


def _reference_align(pattern, instance) -> tuple[tuple[int, int], ...]:
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
    return tuple(pairs)


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
    expected = tuple((i, kept[j]) for i, j in align(p, make_instance(clean)))
    assert align(p, make_instance(noisy)) == expected


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
# score compares the instance's gaps between matched events with the pattern's
# mean intervals summed across the same steps.


def test_merged_intervals_sum_across_a_deleted_event():
    pattern = make_pattern("ABCD", [10, 20, 30])
    instance = make_instance("ABD", [10, 50])  # C missing; its span absorbs 20 + 30
    b = score(pattern, instance)
    assert b.pairs == ((0, 0), (1, 1), (3, 2))
    assert b.completeness == 0.75
    assert b.timing_similarity == 1.0


def test_merged_intervals_on_full_match_are_the_raw_vectors():
    pattern = make_pattern("ABC", [10, 20])
    instance = make_instance("ABC", [11, 19])
    b = score(pattern, instance)
    assert b.pairs == ((0, 0), (1, 1), (2, 2))
    assert b.timing_similarity == 1.0 - angle((11.0, 19.0), (10.0, 20.0)) / math.pi


def test_merged_intervals_with_one_match_are_empty():
    pattern = make_pattern("AB", [10])
    instance = make_instance("AX", [10])
    b = score(pattern, instance)
    assert b.pairs == ((0, 0),)
    assert b.timing_similarity == 0.0  # no interval to compare


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
    pairs = align(pattern, instance)
    test, ref = _reference_merged_intervals(pattern, instance, pairs)
    if len(pairs) >= 2:
        first, last = pairs[0], pairs[-1]
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
    b = score(pattern, instance)
    assert b.completeness == 1.0
    assert b.timing_similarity == 1.0
    assert b.blend(3.0) == 4.0


def test_score_counts_matched_fraction():
    pattern = make_pattern("ABCDE")
    instance = make_instance("ABCE", [1000, 1000, 2000])
    b = score(pattern, instance)
    assert b.completeness == pytest.approx(0.8)
    assert b.blend(0.0) == pytest.approx(0.8)


def test_score_of_known_divergent_timing():
    # Frozen alongside the angle reference above: 1 + 3 * (1 - theta/pi).
    pattern = make_pattern("ABC", [10, 20])
    instance = make_instance("ABC", [500, 20])
    b = score(pattern, instance)
    assert b.blend(3.0) == pytest.approx(2.9809276869952753, abs=1e-12)


def test_score_single_key_pattern_matched_gets_full_timing_credit():
    pattern = make_pattern("A", [])
    b = score(pattern, make_instance("A", []))
    assert b.completeness == 1.0 and b.timing_similarity == 1.0 and b.blend(3.0) == 4.0


def test_score_single_key_pattern_unmatched_gets_nothing():
    pattern = make_pattern("A", [])
    b = score(pattern, make_instance("X", []))
    assert b.completeness == 0.0 and b.timing_similarity == 0.0 and b.blend(3.0) == 0.0


def test_score_with_fewer_than_two_matches_has_no_timing_evidence():
    pattern = make_pattern("ABC")
    b = score(pattern, make_instance("AXY"))
    assert len(b.pairs) == 1
    assert b.timing_similarity == 0.0
    assert b.blend(5.0) == pytest.approx(1 / 3)


def test_score_counts_unmatched_test_events():
    pattern = make_pattern("AB")
    instance = make_instance("AXB", [10, 10])
    b = score(pattern, instance)
    assert b.pairs == ((0, 0), (1, 2))  # X, at index 1, is left out
    assert len(instance.events) - len(b.pairs) == 1


def test_deleting_one_matched_event_costs_exactly_one_nth():
    pattern = make_pattern("ABCDE")
    full = make_instance("ABCDE")
    partial = make_instance("ABDE", [1000, 2000, 1000])
    drop = score(pattern, full).completeness - score(pattern, partial).completeness
    assert drop == pytest.approx(1 / 5)


@given(
    alpha=st.floats(min_value=0, max_value=5),
    gaps=st.lists(st.integers(min_value=1, max_value=10**6), min_size=1, max_size=6),
)
def test_score_total_is_exactly_completeness_plus_weighted_timing(alpha, gaps):
    letters = "ABCDEFG"[: len(gaps) + 1]
    pattern = make_pattern(letters, [g + 1 for g in gaps])
    b = score(pattern, make_instance(letters, gaps))
    assert b.blend(alpha) == b.completeness + alpha * b.timing_similarity
    assert 0.0 <= b.completeness <= 1.0
    assert 0.0 <= b.timing_similarity <= 1.0


# score's interval vectors and angle as they were before their loops were
# tightened, kept verbatim as the reference that every float of the current code
# must equal bit for bit. The reference score aligns with _reference_align and
# returns (completeness, timing, pairs); its total at a weight alpha is
# completeness + alpha * timing.


def _reference_merged_intervals(pattern, instance, pairs):
    test: list[float] = []
    ref: list[float] = []
    for (p0, t0), (p1, t1) in zip(pairs, pairs[1:]):
        test.append(float(instance.events[t1].timestamp_ms - instance.events[t0].timestamp_ms))
        ref.append(float(sum(pattern.mean_intervals_ms[p0:p1])))
    return tuple(test), tuple(ref)


def _reference_angle(u, v):
    if len(u) != len(v):
        raise ValueError(f"vector lengths differ: {len(u)} != {len(v)}")
    if not u:
        return 0.0
    nu = math.sqrt(math.fsum(x * x for x in u))
    nv = math.sqrt(math.fsum(x * x for x in v))
    if nu == 0.0 and nv == 0.0:
        return 0.0
    if nu == 0.0 or nv == 0.0:
        return math.pi / 2
    diff = math.sqrt(math.fsum((x / nu - y / nv) ** 2 for x, y in zip(u, v)))
    summ = math.sqrt(math.fsum((x / nu + y / nv) ** 2 for x, y in zip(u, v)))
    return 2.0 * math.atan2(diff, summ)


def _reference_score(pattern, instance):
    n = len(pattern.keys)  # ActivityPattern has at least one key
    pairs = _reference_align(pattern, instance)
    matched = len(pairs)
    completeness = matched / n
    if n >= 2 and matched >= 2:
        test, ref = _reference_merged_intervals(pattern, instance, pairs)
        timing = 1.0 - _reference_angle(test, ref) / math.pi
    elif n >= 2:
        timing = 0.0  # fewer than two matches leaves no interval to compare
    else:
        timing = 1.0 if matched == 1 else 0.0
    return completeness, timing, pairs


@st.composite
def _scored_pair(draw):
    """A pattern over A-C (repeats allowed) and an instance that matches some, all or none of it.

    The instance is either any text over the pattern's and foreign (X, Y) letters,
    or the pattern with steps deleted and foreign events put in. Gaps may be 0.
    """
    letters = draw(_PATTERN_TEXT)
    size = len(letters) - 1
    means = draw(st.lists(st.floats(min_value=0, max_value=1e9), min_size=size, max_size=size))
    edited = "".join(
        draw(st.text(alphabet="XY", max_size=1)) + ("" if draw(st.booleans()) else ch)
        for ch in letters
    )
    text = draw(st.one_of(st.text(alphabet="ABCXY", max_size=10), st.just(edited)).filter(bool))
    size = len(text) - 1
    gaps = draw(st.lists(st.integers(min_value=0, max_value=10**9), min_size=size, max_size=size))
    return make_pattern(letters, means), make_instance(text, gaps)


@given(pair=_scored_pair(), alpha=st.floats(min_value=0, max_value=1e6))
def test_score_equals_the_reference_bit_for_bit(pair, alpha):
    pattern, instance = pair
    got = score(pattern, instance)
    completeness, timing, pairs = _reference_score(pattern, instance)
    assert type(got) is scoring.ScoreBreakdown
    assert [repr(field) for field in got] == [repr(completeness), repr(timing), repr(pairs)]
    assert repr(got.blend(alpha)) == repr(completeness + alpha * timing)
    assert got.pairs == align(pattern, instance)
    assert got.completeness == len(got.pairs) / len(pattern.keys)
    vectors = _reference_merged_intervals(pattern, instance, pairs)
    assert repr(angle(*vectors)) == repr(_reference_angle(*vectors))


@given(
    vectors=st.integers(min_value=0, max_value=6).flatmap(
        lambda n: st.tuples(*[st.lists(st.floats(-1e200, 1e200), min_size=n, max_size=n)] * 2)
    )
)
def test_angle_equals_the_reference_bit_for_bit(vectors):
    u, v = map(tuple, vectors)
    assert repr(angle(u, v)) == repr(_reference_angle(u, v))


def test_reference_memo_tells_apart_patterns_whose_key_codes_are_equal():
    # Both patterns are coded (0, 1, 2): only their means tell their reference sides apart.
    abc, xyz = make_pattern("ABC", [1000, 5000]), make_pattern("XYZ", [5000, 1000])
    assert abc.key_codes == xyz.key_codes
    scoring._reference_side.cache_clear()
    for _ in range(2):
        for pattern, letters in ((abc, "ABC"), (xyz, "XYZ"), (abc, "AQC"), (xyz, "XQZ")):
            instance = make_instance(letters, [2000, 3000])
            got, expected = score(pattern, instance), _reference_score(pattern, instance)
            assert [repr(field) for field in got] == [repr(field) for field in expected]
    assert scoring._reference_side.cache_info().hits > 0


def test_reference_cache_stays_within_its_bound():
    scoring._reference_side.cache_clear()
    extra = scoring.ALIGN_CACHE_SIZE + 50
    for n in range(extra):  # distinct means: a distinct reference side each time
        score(make_pattern("AB", [n + 1]), make_instance("AB"))
    info = scoring._reference_side.cache_info()
    assert info.misses == extra
    assert info.currsize == info.maxsize == scoring.ALIGN_CACHE_SIZE
