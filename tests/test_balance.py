import itertools
import tracemalloc
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from movingframes import (build_minimal_balanced, build_pairing_matrix,
                          count_pair_slice, count_sign_slice, enumerate_full,
                          extract_pairings, is_balanced, make_operator,
                          sign_flip_bijection, validate_pairing_matrix)
from movingframes.balance import PairingMatrix
from movingframes.operators import OperatorSet, SignedInvolution, sign_assignments

A4 = enumerate_full(2)
A6 = enumerate_full(3)
A8 = enumerate_full(4)
MIN2 = build_minimal_balanced(2)


@st.composite
def full_subsets(draw):
    """A random nonempty subset of enumerate_full(n) for n = 2, 3 or 4."""
    full = draw(st.sampled_from([A4, A6, A8]))
    members = draw(st.lists(st.sampled_from(full.members), min_size=1, unique=True))
    return OperatorSet(full.dim, tuple(members))


def failures_from_definitions(a_set):
    """Both failure lists of is_balanced, counted member by member for every
    pair (p, q) and every ordered quadruple (p, q, r, s) of distinct indices."""
    d, size = a_set.dim, len(a_set)
    cond_i = []
    for p, q in itertools.permutations(range(1, d + 1), 2):
        count = sum(1 for u in a_set if u.pairing[p - 1] == q)
        if p < q and count * (d - 1) != size:
            cond_i.append((p, q, count, Fraction(size, d - 1)))
    cond_ii = []
    for p, q, r, s in itertools.permutations(range(1, d + 1), 4):
        counts = {1: 0, -1: 0}
        for u in a_set:
            if {u.pairing[r - 1], u.pairing[s - 1]} == {p, q}:
                counts[u.signs[p - 1] * u.signs[q - 1]] += 1
        if p < q and r < s and counts[1] != counts[-1]:
            cond_ii.append((p, q, r, s, counts[1], counts[-1]))
    return cond_i, cond_ii


def failures_by_pair(a_set):
    """Both failure lists of is_balanced, from the definitions read per pair
    p < q of each member: k_p = q puts it in the pair slice {p, q}; else it
    is in the sign slice with {r, s} = {k_p, k_q}, since {k_r, k_s} = {p, q}
    exactly when {r, s} = {k_p, k_q} for an involution."""
    d, size = a_set.dim, len(a_set)
    pairs = list(itertools.combinations(range(1, d + 1), 2))
    pair_counts, sign_counts = Counter(), Counter()
    for u in a_set:
        k, signs = u.pairing, u.signs
        for p, q in pairs:
            if k[p - 1] == q:
                pair_counts[p, q] += 1
            else:
                r, s = sorted((k[p - 1], k[q - 1]))
                sign_counts[p, q, r, s, signs[p - 1] * signs[q - 1]] += 1
    cond_i = [(p, q, pair_counts[p, q], Fraction(size, d - 1))
              for p, q in pairs if pair_counts[p, q] * (d - 1) != size]
    cond_ii = sorted((*key, sign_counts[(*key, 1)], sign_counts[(*key, -1)])
                     for key in {key[:4] for key in sign_counts}
                     if sign_counts[(*key, 1)] != sign_counts[(*key, -1)])
    return cond_i, cond_ii


class TestPairSlice:
    def test_full_set_uniform(self):
        for p, q in itertools.permutations(range(1, 5), 2):
            assert count_pair_slice(A4, p, q) == 4

    def test_single_circle_field(self):
        single = OperatorSet.from_members([make_operator(2, (2, 1), (1, -1))])
        assert count_pair_slice(single, 1, 2) == 1

    def test_minimal_set_uniform(self):
        for p, q in itertools.permutations(range(1, 5), 2):
            assert count_pair_slice(MIN2, p, q) == 2

    def test_symmetry_and_row_sums(self):
        for subset_size in (1, 4, 12):
            a_set = OperatorSet(4, A4.members[:subset_size])
            for p in range(1, 5):
                counts = [count_pair_slice(a_set, p, q) for q in range(1, 5) if q != p]
                assert sum(counts) == len(a_set)
                for q in range(1, 5):
                    if q != p:
                        assert count_pair_slice(a_set, p, q) == count_pair_slice(a_set, q, p)

    def test_rejects_equal_indices(self):
        with pytest.raises(ValueError, match="differ"):
            count_pair_slice(A4, 2, 2)

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError, match="out of range"):
            count_pair_slice(A4, 1, 5)


class TestSignSlice:
    def test_full_set_split_evenly(self):
        assert count_sign_slice(A4, 1, 2, 3, 4, 1) == 4
        assert count_sign_slice(A4, 1, 2, 3, 4, -1) == 4

    def test_empty_like_slice(self):
        single = OperatorSet.from_members([make_operator(4, (2, 1, 4, 3), (1, -1, 1, -1))])
        # k_3 = 4, k_4 = 3, so {k_3, k_4} never equals {1, 2}
        assert count_sign_slice(single, 1, 2, 3, 4, 1) == 0
        assert count_sign_slice(single, 1, 2, 3, 4, -1) == 0

    def test_rejects_repeated_indices(self):
        with pytest.raises(ValueError, match="distinct"):
            count_sign_slice(A4, 1, 2, 3, 1, 1)

    def test_rejects_dim_two(self):
        single = OperatorSet.from_members([make_operator(2, (2, 1), (1, -1))])
        with pytest.raises(ValueError, match="dimension"):
            count_sign_slice(single, 1, 2, 1, 2, 1)

    def test_symmetric_in_p_q_and_in_r_s(self):
        a_set = OperatorSet(6, A6.members[:37])
        for p, q, r, s in itertools.permutations(range(1, 7), 4):
            for sign in (1, -1):
                count = count_sign_slice(a_set, p, q, r, s, sign)
                assert count_sign_slice(a_set, q, p, r, s, sign) == count
                assert count_sign_slice(a_set, p, q, s, r, sign) == count


class TestIsBalanced:
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_full_sets_balanced(self, n):
        report = is_balanced(enumerate_full(n))
        assert report.balanced
        assert not report.condition_i_failures
        assert not report.condition_ii_failures

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_minimal_sets_balanced(self, n):
        assert is_balanced(build_minimal_balanced(n)).balanced

    def test_minimal_minus_one_fails_divisibility(self):
        clipped = OperatorSet(4, MIN2.members[:-1])
        report = is_balanced(clipped)
        assert not report.balanced
        assert report.set_size == 5
        # 5 is not divisible by 3, so every pair slice fails condition i
        assert len(report.condition_i_failures) == 6
        p, q, observed, required = report.condition_i_failures[0]
        assert required == Fraction(5, 3)

    def test_rejects_empty(self):
        with pytest.raises(ValueError, match="empty"):
            is_balanced(OperatorSet(4, ()))

    def test_n1_only_condition_i(self):
        report = is_balanced(enumerate_full(1))
        assert report.balanced
        assert report.condition_ii_failures == []

    @settings(max_examples=60, deadline=None)
    @given(full_subsets())
    def test_failures_match_definitions(self, a_set):
        report = is_balanced(a_set)
        cond_i, cond_ii = failures_from_definitions(a_set)
        assert report.condition_i_failures == cond_i
        assert report.condition_ii_failures == cond_ii
        assert report.balanced == (not cond_i and not cond_ii)

    def test_large_dimension_in_bounded_memory(self):
        # d = 100 from three of the 99 pairings for n = 50 (never the whole
        # set, which has 99 * 2^49 members)
        pairings = extract_pairings(build_pairing_matrix(50))[:3]
        a_set = OperatorSet(100, tuple(SignedInvolution(k, next(sign_assignments(k)))
                                       for k in pairings))
        tracemalloc.start()
        try:
            report = is_balanced(a_set)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        cond_i, cond_ii = failures_by_pair(a_set)
        assert (len(cond_i), len(cond_ii)) == (4950, 14700)
        assert report.condition_i_failures == cond_i
        assert report.condition_ii_failures == cond_ii
        # one table over all (p, q, r, s, sign) codes would take 392 MB
        assert peak < 32 * 2**20

    def test_condition_ii_failures_sorted(self):
        failures = is_balanced(OperatorSet(6, A6.members[:37])).condition_ii_failures
        assert len(failures) > 1
        assert failures == sorted(failures)


class TestSignFlipBijection:
    def test_example(self):
        u = make_operator(4, (2, 1, 4, 3), (1, -1, 1, -1))
        flipped = sign_flip_bijection(u, 3)
        assert flipped.pairing == u.pairing
        assert flipped.signs == (1, -1, -1, 1)

    def test_involutive(self):
        for u in A4:
            for p in range(1, 5):
                assert sign_flip_bijection(sign_flip_bijection(u, p), p) == u

    @pytest.mark.parametrize("n", [2, 3])
    def test_maps_minus_slice_onto_plus_slice(self, n):
        full = enumerate_full(n)
        members = set(full.members)
        d = 2 * n
        for p, q, r, s in itertools.permutations(range(1, d + 1), 4):
            minus = [u for u in full
                     if u.signs[p - 1] * u.signs[q - 1] == -1
                     and {u.pairing[r - 1], u.pairing[s - 1]} == {p, q}]
            images = {sign_flip_bijection(u, p) for u in minus}
            assert len(images) == len(minus)
            for v in images:
                assert v in members
                assert v.signs[p - 1] * v.signs[q - 1] == 1
                assert {v.pairing[r - 1], v.pairing[s - 1]} == {p, q}

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError, match="out of range"):
            sign_flip_bijection(A4[0], 5)


class TestPairingMatrix:
    def test_n1(self):
        assert build_pairing_matrix(1).rows == ((0, 1), (1, 0))

    def test_n2(self):
        assert build_pairing_matrix(2).rows == (
            (0, 2, 3, 1),
            (2, 0, 1, 3),
            (3, 1, 0, 2),
            (1, 3, 2, 0),
        )

    @pytest.mark.parametrize("n", [1, 2, 3, 7, 25, 50])
    def test_invariants(self, n):
        validate_pairing_matrix(build_pairing_matrix(n))

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            build_pairing_matrix(0)

    def test_as_text(self):
        assert build_pairing_matrix(1).as_text() == "0 1\n1 0"

    def test_validate_reports_asymmetry(self):
        bad = PairingMatrix(2, ((0, 2, 3, 1), (2, 0, 1, 3), (3, 1, 0, 2), (1, 2, 3, 0)))
        with pytest.raises(ValueError, match="symmetric"):
            validate_pairing_matrix(bad)

    def test_validate_reports_diagonal(self):
        bad = PairingMatrix(1, ((1, 0), (0, 1)))
        with pytest.raises(ValueError, match="diagonal"):
            validate_pairing_matrix(bad)

    def test_validate_reports_bad_row(self):
        bad = PairingMatrix(2, ((0, 2, 2, 1), (2, 0, 1, 3), (2, 1, 0, 2), (1, 3, 2, 0)))
        with pytest.raises(ValueError, match="row 1"):
            validate_pairing_matrix(bad)


class TestExtractPairings:
    def test_n1(self):
        assert extract_pairings(build_pairing_matrix(1)) == ((2, 1),)

    def test_n2(self):
        pairings = extract_pairings(build_pairing_matrix(2))
        assert set(pairings) == {(4, 3, 2, 1), (2, 1, 4, 3), (3, 4, 1, 2)}

    @pytest.mark.parametrize("n", [1, 2, 3, 10, 50])
    def test_pair_coverage_exactly_once(self, n):
        pairings = extract_pairings(build_pairing_matrix(n))
        d = 2 * n
        assert len(pairings) == d - 1
        matched = [
            (i, k[i - 1])
            for k in pairings
            for i in range(1, d + 1)
            if i < k[i - 1]
        ]
        assert sorted(matched) == [
            (i, j) for i in range(1, d + 1) for j in range(i + 1, d + 1)
        ]

    def test_rejects_invalid_matrix(self):
        with pytest.raises(ValueError, match="diagonal"):
            extract_pairings(PairingMatrix(1, ((1, 0), (0, 1))))


class TestBuildMinimalBalanced:
    @pytest.mark.parametrize("n,size", [(1, 1), (2, 6), (3, 20), (4, 56), (5, 144)])
    def test_sizes(self, n, size):
        assert len(build_minimal_balanced(n)) == size

    def test_n1_is_circle_field(self):
        a_set = build_minimal_balanced(1)
        assert [(u.pairing, u.signs) for u in a_set] == [((2, 1), (1, -1))]

    def test_members_valid_with_pinned_first_sign(self):
        for n in (2, 3, 4):
            for u in build_minimal_balanced(n):
                make_operator(u.dim, u.pairing, u.signs)
                assert u.signs[0] == 1

    def test_deterministic(self):
        assert build_minimal_balanced(3) == build_minimal_balanced(3)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            build_minimal_balanced(0)
