import functools
import itertools
import tracemalloc
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from movingframes import (augment_with_normal, build_minimal_balanced,
                          build_pairing_matrix, count_pair_slice, count_sign_slice,
                          enumerate_full, extract_pairings, frame_operator,
                          is_balanced, make_operator, operator_images,
                          probe_points, sample_sphere, sign_flip_bijection,
                          tangent_basis, validate_pairing_matrix,
                          verify_moving_funtf, witness_cross_term,
                          witness_unbalanced)
from movingframes.cli import main
from movingframes.operators import OperatorSet, SignedInvolution

A4 = enumerate_full(2)
A6 = enumerate_full(3)
A8 = enumerate_full(4)
MIN2 = build_minimal_balanced(2)
THEOREM_SETS = {n: build_minimal_balanced(n) for n in range(2, 6)}


@st.composite
def full_subsets(draw):
    """A random nonempty subset of enumerate_full(n) for n = 2, 3 or 4."""
    full = draw(st.sampled_from([A4, A6, A8]))
    members = draw(st.lists(st.sampled_from(full.members), min_size=1, unique=True))
    return OperatorSet(full.dim, tuple(members))


def relabel(a_set, perm):
    """The set conjugated by the coordinate permutation i -> perm[i] (0-based):
    each member's partner of perm[i] is perm[k_i], with the sign it had at i."""
    k, sign = a_set.index_arrays
    pairing, signs = np.empty_like(k), np.empty_like(sign)
    pairing[:, perm], signs[:, perm] = perm[k] + 1, sign
    return OperatorSet.from_arrays(pairing, signs)


@functools.lru_cache(maxsize=None)
def tangent_frames(d):
    """The points verify_moving_funtf(..., num_samples=20) checks in R^d, the
    probe points and 20 samples of seed 0, and an orthonormal tangent basis at each."""
    points = np.vstack([probe_points(d), sample_sphere(d, 20, 0)])
    return points, np.stack([tangent_basis(a) for a in points])


@st.composite
def cross_route_sets(draw):
    """A set and the same set relabelled at random.  The set is a subset of
    enumerate_full(2..4), a Theorem 3.4 set for n = 2..5 under a random
    relabelling, or such a set minus one member."""
    kind = draw(st.sampled_from(["full subset", "theorem", "theorem minus one"]))
    if kind == "full subset":
        a_set = draw(full_subsets())
    else:
        theorem = THEOREM_SETS[draw(st.integers(2, 5))]
        a_set = relabel(theorem, np.array(draw(st.permutations(range(theorem.dim)))))
        if kind == "theorem minus one":
            k, sign = a_set.index_arrays
            drop = draw(st.integers(0, len(a_set) - 1))
            a_set = OperatorSet.from_arrays(np.delete(k, drop, axis=0) + 1,
                                           np.delete(sign, drop, axis=0))
    return a_set, relabel(a_set, np.array(draw(st.permutations(range(a_set.dim)))))


@st.composite
def full_subsets_3_4(draw):
    """A subset of enumerate_full(3) or enumerate_full(4): a random one, the
    whole set, or a relabelled Theorem 3.4 set (also a balanced subset), each
    possibly minus one member."""
    full = draw(st.sampled_from([A6, A8]))
    kind = draw(st.sampled_from(["random", "whole", "theorem"]))
    if kind == "random":
        keep = draw(st.lists(st.integers(0, len(full) - 1), min_size=1, unique=True))
        k, sign = (a[sorted(keep)] for a in full.index_arrays)
    elif kind == "whole":
        k, sign = full.index_arrays
    else:
        theorem = THEOREM_SETS[full.dim // 2]
        k, sign = relabel(theorem, np.array(draw(st.permutations(range(full.dim))))).index_arrays
    if len(k) > 1 and draw(st.booleans()):
        drop = draw(st.integers(0, len(k) - 1))
        k, sign = np.delete(k, drop, axis=0), np.delete(sign, drop, axis=0)
    return OperatorSet.from_arrays(k + 1, sign)


def frame_form_coefficients(a_set):
    """The integer coefficients of the quadratic form (d-1)*S(a) - #A*|a|^2*I,
    S(a) = C*a*a^T + sum_U U(a)U(a)^T the augmented frame operator with
    C = #A/(d-1): entry [r, s, p, q] + [r, s, q, p] multiplies a_p*a_q in
    entry (r, s).  Read member by member from the index arrays: U adds
    (d-1)*S[r]*S[s] at (r, s, K[r], K[s]), as U(a)_r = -S[r]*a[K[r]]; the
    normal adds #A at (r, s, r, s); the identity takes #A from every (r, r, p, p)."""
    k, sign = a_set.index_arrays
    d, size = a_set.dim, len(a_set)
    table = np.zeros((d, d, d, d), dtype=np.int64)
    r, s = np.meshgrid(np.arange(d), np.arange(d), indexing="ij")
    np.add.at(table, (r, s, k[:, :, None], k[:, None, :]),
              (d - 1) * sign[:, :, None] * sign[:, None, :])
    table[r, s, r, s] += size
    diagonal = np.arange(d)
    table[diagonal[:, None], diagonal[:, None], diagonal, diagonal] -= size
    return table + table.transpose(0, 1, 3, 2)


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
        single = OperatorSet(2, (make_operator(2, (2, 1), (1, -1)),))
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
        # True == 1 == 1.0, but neither a boolean nor a float is an index
        for p, q in ((1, 5), (True, 2), (1, False), (1.0, 2), (1.5, 2), ("1", 2), (2, 1.0)):
            with pytest.raises(ValueError, match="out of range"):
                count_pair_slice(A4, p, q)
        assert count_pair_slice(A4, np.int64(1), np.int64(2)) == count_pair_slice(A4, 1, 2)


class TestSignSlice:
    def test_full_set_split_evenly(self):
        assert count_sign_slice(A4, 1, 2, 3, 4, 1) == 4
        assert count_sign_slice(A4, 1, 2, 3, 4, -1) == 4

    def test_empty_like_slice(self):
        single = OperatorSet(4, (make_operator(4, (2, 1, 4, 3), (1, -1, 1, -1)),))
        # k_3 = 4, k_4 = 3, so {k_3, k_4} never equals {1, 2}
        assert count_sign_slice(single, 1, 2, 3, 4, 1) == 0
        assert count_sign_slice(single, 1, 2, 3, 4, -1) == 0

    def test_rejects_repeated_indices(self):
        with pytest.raises(ValueError, match="distinct"):
            count_sign_slice(A4, 1, 2, 3, 1, 1)

    def test_rejects_bad_sign_or_bool_index(self):
        for sign in (0, 2, True, 1.0):
            with pytest.raises(ValueError, match="sign must be -1 or \\+1"):
                count_sign_slice(A4, 1, 2, 3, 4, sign)
        for p in (True, 1.0, 1.5, "1"):
            with pytest.raises(ValueError, match=f"index p={p} out of range"):
                count_sign_slice(A4, p, 2, 3, 4, 1)
        assert count_sign_slice(A4, *map(np.int64, (1, 2, 3, 4, 1))) == 4

    def test_rejects_dim_two(self):
        single = OperatorSet(2, (make_operator(2, (2, 1), (1, -1)),))
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
        pairings = map(tuple, extract_pairings(build_pairing_matrix(50))[:3].tolist())
        # each with its first sign pattern: +1 at the smaller index of every pair
        a_set = OperatorSet(100, tuple(
            SignedInvolution(k, tuple(1 if i < j else -1 for i, j in enumerate(k, 1)))
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


class TestCrossRoutes:
    @settings(max_examples=80, deadline=None)
    @given(cross_route_sets())
    def test_numerical_routes_agree_with_exact_verdict(self, sets):
        a_set, relabelled = sets
        report = is_balanced(a_set)
        frame = verify_moving_funtf(a_set, num_samples=20)
        assert frame.tight == report.balanced
        # the reported deviation is that of the direct V^T V at the worst point
        constant = len(a_set) / (a_set.dim - 1)
        s = frame_operator(augment_with_normal(a_set, frame.worst_point))
        direct = np.max(np.abs(s - constant * np.eye(a_set.dim)))
        assert abs(direct - max(frame.max_offdiag, frame.max_diag_dev)) <= 1e-12
        # coordinates G of the images in a tangent basis: G^T G = C*I at every point
        points, bases = tangent_frames(a_set.dim)
        g = np.einsum("pmd,pbd->pmb", operator_images(a_set, points), bases)
        gram = np.einsum("pmb,pmc->pbc", g, g)
        tangent_dev = np.max(np.abs(gram - constant * np.eye(a_set.dim - 1)))
        assert (tangent_dev <= 1e-9) == report.balanced
        assert is_balanced(relabelled).balanced == report.balanced
        if not report.balanced:
            witness = witness_unbalanced(a_set, report)
            assert abs(witness_cross_term(a_set, witness) - float(witness.defect)) <= 1e-10

    @settings(max_examples=60, deadline=None)
    @given(full_subsets_3_4())
    def test_frame_form_vanishes_exactly_when_balanced(self, a_set):
        # "tight iff balanced" as an exact integer check: S(a) = C*I on the
        # whole sphere exactly when every coefficient of the form is zero
        assert (not frame_form_coefficients(a_set).any()) == is_balanced(a_set).balanced


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
        for p in (5, True, 1.0, 1.5, "1"):
            with pytest.raises(ValueError, match="out of range"):
                sign_flip_bijection(A4[0], p)
        assert sign_flip_bijection(A4[0], np.int64(3)) == sign_flip_bijection(A4[0], 3)


def reference_validation_message(rows):
    """The checks of validate_pairing_matrix as three Python loops over nested
    rows (the form its numpy checks replaced): the first message for a
    square matrix of even side, or None."""
    d = len(rows)
    for i in range(d):
        if rows[i][i] != 0:
            return f"diagonal entry ({i + 1},{i + 1}) is {rows[i][i]}, not 0"
    for i in range(d):
        for j in range(i + 1, d):
            if rows[i][j] != rows[j][i]:
                return (f"matrix is not symmetric at ({i + 1},{j + 1}): "
                        f"{rows[i][j]} != {rows[j][i]}")
    for i, row in enumerate(rows, start=1):
        if sorted(row) != list(range(d)):
            return f"row {i} is not a permutation of 0..{d - 1}"
    return None


@st.composite
def corrupted_matrices(draw):
    """A pairing matrix for n = 1..5 with up to three entries overwritten by
    integers in -2..2n+1 or far out of int64 range, each alone or together
    with its mirror entry (so symmetric matrices with bad rows come up)."""
    rows = build_pairing_matrix(draw(st.integers(1, 5))).tolist()
    d = len(rows)
    values = st.one_of(st.integers(-2, d + 1), st.sampled_from([2**70, -2**70]))
    for _ in range(draw(st.integers(0, 3))):
        i, j, value = draw(st.integers(0, d - 1)), draw(st.integers(0, d - 1)), draw(values)
        rows[i][j] = value
        if draw(st.booleans()):
            rows[j][i] = value
    return rows


class TestPairingMatrix:
    def test_n1(self):
        assert build_pairing_matrix(1).tolist() == [[0, 1], [1, 0]]

    def test_n2(self):
        assert build_pairing_matrix(2).tolist() == [
            [0, 2, 3, 1],
            [2, 0, 1, 3],
            [3, 1, 0, 2],
            [1, 3, 2, 0],
        ]

    @pytest.mark.parametrize("n", [1, 2, 3, 7, 25, 50])
    def test_invariants(self, n):
        validate_pairing_matrix(build_pairing_matrix(n))

    def test_rejects_nonpositive(self):
        for n in (0, -1, True, 2.5, "3"):
            with pytest.raises(ValueError, match="positive integer"):
                build_pairing_matrix(n)

    def test_as_text(self, capsys):
        assert main(["matrix", "1"]) == 0
        assert capsys.readouterr().out == "0 1\n1 0\n"

    def test_validate_reports_asymmetry(self):
        bad = np.array([[0, 2, 3, 1], [2, 0, 1, 3], [3, 1, 0, 2], [1, 2, 3, 0]])
        with pytest.raises(ValueError, match="symmetric"):
            validate_pairing_matrix(bad)

    def test_validate_reports_diagonal(self):
        bad = np.array([[1, 0], [0, 1]])
        with pytest.raises(ValueError, match="diagonal"):
            validate_pairing_matrix(bad)

    def test_validate_reports_bad_row(self):
        bad = np.array([[0, 2, 2, 1], [2, 0, 1, 3], [2, 1, 0, 2], [1, 3, 2, 0]])
        with pytest.raises(ValueError, match="row 1"):
            validate_pairing_matrix(bad)

    @pytest.mark.parametrize("bad", [
        np.zeros((3, 3), int), np.zeros((2, 4), int), np.zeros((0, 0), int),
        np.zeros((2, 2, 2), int), [[0, 1], [1]], 7,
    ])
    def test_validate_reports_shape(self, bad):
        with pytest.raises(ValueError, match="square with a positive even side"):
            validate_pairing_matrix(bad)

    @pytest.mark.parametrize("bad,kind", [
        (((0, 1.0), (1.0, 0)), "float"), (((0, True), (True, 0)), "bool"),
        (np.array([[0.0, 1.0], [1.0, 0.0]]), "float"),
        (np.array([[False, True], [True, False]]), "bool"), ((("0", 1), (1, 0)), "str"),
    ])
    def test_validate_refuses_non_integer_entries(self, bad, kind):
        # (0, 1.0) and (0, True) compare equal to (0, 1); the type alone is wrong
        with pytest.raises(ValueError, match=f"entries must be integers, got {kind}$"):
            validate_pairing_matrix(bad)

    @settings(max_examples=300, deadline=None)
    @given(corrupted_matrices())
    def test_validate_matches_reference_loops(self, rows):
        expected = reference_validation_message(rows)
        if expected is None:
            assert validate_pairing_matrix(rows).tolist() == rows
        else:
            with pytest.raises(ValueError) as exc:
                validate_pairing_matrix(rows)
            assert str(exc.value) == expected


class TestExtractPairings:
    def test_n1(self):
        assert extract_pairings(build_pairing_matrix(1)).tolist() == [[2, 1]]

    def test_n2(self):
        # the matrix as an array or as nested int sequences
        for matrix in (build_pairing_matrix(2), build_pairing_matrix(2).tolist()):
            pairings = extract_pairings(matrix).tolist()
            assert set(map(tuple, pairings)) == {(4, 3, 2, 1), (2, 1, 4, 3), (3, 4, 1, 2)}

    @pytest.mark.parametrize("n", [1, 2, 3, 10, 50])
    def test_pair_coverage_exactly_once(self, n):
        pairings = extract_pairings(build_pairing_matrix(n)).tolist()
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
            extract_pairings(np.array([[1, 0], [0, 1]]))


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
        for n in (0, True, 2.5, "3"):
            with pytest.raises(ValueError, match="positive integer"):
                build_minimal_balanced(n)
