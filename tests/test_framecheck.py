import math
import re
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from movingframes import (augment_with_normal, build_minimal_balanced, build_pairing_matrix,
                          check_tight, enumerate_full, extract_pairings, frame_operator,
                          is_balanced, make_operator, operator_images,
                          probe_points, reconstruct, s3_basis,
                          verify_moving_funtf, witness_cross_term,
                          witness_unbalanced)
from movingframes import balance, count_pair_slice, count_sign_slice, framecheck
from movingframes.operators import OperatorSet, signed_pairings
from movingframes.sphere import project_tangent, sample_sphere
from test_balance import (failures_by_pair, failures_from_definitions, group_always,
                          group_never, sylvester_set)

MODULES = {"balance": balance, "framecheck": framecheck}

MIN2 = build_minimal_balanced(2)
MIN10, MIN12 = build_minimal_balanced(10), build_minimal_balanced(12)
# full n = 2 with pairing (2, 1, 4, 3) whole (4 members) and one member of
# each other pairing: unbalanced, with pairings of unequal sizes
MIXED = OperatorSet(4, [enumerate_full(2)[i] for i in (0, 1, 2, 3, 4, 8)])


def subset(a_set, pick):
    """The members of ``a_set`` at the indices ``pick``, in set order."""
    k, sign = a_set.index_arrays
    return OperatorSet.from_arrays(k[pick] + 1, sign[pick])


def fresh(a_set):
    """The same members in a new set, which holds no grouping and no decode yet."""
    k, sign = a_set.index_arrays
    return OperatorSet.from_arrays(k + 1, sign)


# 100 of the 120 members of the full n = 3 set, in 15 pairings of 3 to 8
FULL3_SUBSET = subset(enumerate_full(3), np.sort(np.random.default_rng(0).choice(120, 100, replace=False)))


def one_member_per_pairing():
    """One seeded member of each of the 945 pairings of R^10: as many pairings
    as members, so grouping by pairing would not shrink the scatter into F."""
    return subset(enumerate_full(5), 32 * np.arange(945) + np.random.default_rng(0).integers(
        32, size=945))


def heavy_pairings(n, pairings, members):
    """``members`` seeded distinct sign patterns of each of the first ``pairings``
    pairings of build_pairing_matrix(n): pairings of at least d = 2n members,
    which verify_moving_funtf prices by their member count alone."""
    codes = np.random.default_rng(n).choice(2 ** 16, members, replace=False)
    design = (1 - 2 * ((codes[:, None] >> np.arange(n)) & 1)).astype(np.int8)
    return signed_pairings(extract_pairings(build_pairing_matrix(n))[:pairings], design)


def relabel(a_set, perm):
    """The set conjugated by the coordinate permutation i -> perm[i] (0-based)."""
    k, sign = a_set.index_arrays
    pairing, signs = np.empty_like(k), np.empty_like(sign)
    pairing[:, perm], signs[:, perm] = perm[k] + 1, sign
    return OperatorSet.from_arrays(pairing, signs)


@st.composite
def sweep_shaped_sets(draw, clipped=False):
    """A seeded random nonempty subset of enumerate_full(2) or enumerate_full(3),
    or a Theorem 3.4 set under a random relabelling: for n <= 4, or with
    ``clipped`` for 2 <= n <= 5 minus a drawn member, the sweep benchmark's
    relabelled sets made unbalanced."""
    kind = draw(st.sampled_from(["full2", "full3", "theorem"]))
    if kind == "theorem":
        theorem = build_minimal_balanced(draw(st.integers(2, 5) if clipped else st.integers(1, 4)))
        a_set = relabel(theorem, np.array(draw(st.permutations(range(theorem.dim)))))
        if clipped:
            a_set = subset(a_set, np.delete(np.arange(len(a_set)), draw(st.integers(0, len(a_set) - 1))))
        return a_set
    full = enumerate_full(int(kind[-1]))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    return subset(full, np.sort(rng.choice(len(full), rng.integers(1, len(full) + 1),
                                           replace=False)))


def reversed_coordinates(a_set):
    """The set conjugated by the coordinate reversal i -> d-1-i (0-based)."""
    k, sign = a_set.index_arrays
    return OperatorSet.from_arrays(a_set.dim - k[:, ::-1], sign[:, ::-1])


def reference_worst_point(a_set, num_samples, seed):
    """The direct per-point loop: the frame operator of the augmented system,
    the scaled normal and the image rows of every member, at each point.

    Returns (worst point, max off-diagonal, max diagonal deviation) with the
    first point of largest deviation winning ties.
    """
    d = a_set.dim
    expected = len(a_set) / (d - 1)
    points = np.vstack([probe_points(d), sample_sphere(d, num_samples, seed)])
    worst_dev, worst = -1.0, None
    for a in points:
        s = frame_operator(augment_with_normal(a_set, a))
        max_off = float(np.max(np.abs(s - np.diag(np.diagonal(s)))))
        max_diag = float(np.max(np.abs(np.diagonal(s) - expected)))
        if max(max_off, max_diag) > worst_dev:
            worst_dev, worst = max(max_off, max_diag), (a, max_off, max_diag)
    return worst


def entry_order(d):
    """The entries (r, s), r <= s, of a symmetric d x d matrix in the order of
    the frame form: the diagonal, then the pairs r < s row by row.  The
    monomials a_p*a_q, p <= q, are numbered alike."""
    return [(r, r) for r in range(d)] + [(r, s) for r in range(d) for s in range(r + 1, d)]


def reference_form(a_set):
    """F of verify_moving_funtf, member by member: F[e, m] multiplies monomial
    m in entry e of sum_U U(a)U(a)^T.  As U(a)_r = -S[r]*a[K[r]], member U
    adds S[r]*S[s] at the monomial {K[r], K[s]} of entry (r, s)."""
    k, sign = a_set.index_arrays
    order = entry_order(a_set.dim)
    number = {pair: m for m, pair in enumerate(order)}
    form = np.zeros((len(order), len(order)))
    for pairing, signs in zip(k.tolist(), sign.tolist()):
        for e, (r, s) in enumerate(order):
            p, q = sorted((pairing[r], pairing[s]))
            form[e, number[p, q]] += signs[r] * signs[s]
    return form


def whole_defect(a_set):
    """(d-1)*D of verify_moving_funtf, written from the set's decode, its row
    blocks stacked in the order they come."""
    blocks = list(balance._defect_rows(a_set))
    assert [first for first, _ in blocks] == sorted(first for first, _ in blocks)
    return np.vstack([form for _, form in blocks])


def reference_defect(a_set, form=None):
    """(d-1)*D of verify_moving_funtf, from ``form`` (by default its own F,
    reference_form): (d-1)*F, plus #A on each entry's own monomial and minus
    #A at each a_p^2 of each diagonal entry, the coefficients of
    (d-1)*(S(a) - C*|a|^2*I)."""
    d, size = a_set.dim, len(a_set)
    form = reference_form(a_set) if form is None else form
    defect = (d - 1) * form + size * np.eye(d * (d + 1) // 2)
    defect[:d, :d] -= size
    return defect


def reduced_worst_point(a_set, num_samples, seed):
    """The arithmetic of verify_moving_funtf on F's route, written out with
    its own D (reference_defect).  Where D = 0: off the diagonal 0.0, on it
    C*||a|^2 - 1|, at the first point where that is largest.  Otherwise
    (d-1)*S - (d-1)*C*|a|^2*I at every point at once is (d-1)*D times the
    points' monomials, in one matmul; then a plain loop over the points, and
    the worst one's maxima divided by d - 1.  Returns what
    reference_worst_point returns, then the frame constant C*|a|^2 there.
    """
    d = a_set.dim
    expected = len(a_set) / (d - 1)
    rows, cols = np.array(entry_order(d)).T
    defect = reference_defect(a_set)
    points = np.vstack([probe_points(d), sample_sphere(d, num_samples, seed)])
    errors = np.square(points).sum(axis=1) - 1.0  # |a|^2 - 1, as verify_moving_funtf sums it
    if not defect.any():
        widest = max(range(len(points)), key=lambda i: abs(errors[i]))  # the first largest
        return (points[widest], 0.0, expected * abs(errors[widest]),
                expected * (1.0 + errors[widest]))
    entries = defect @ (points.T[rows] * points.T[cols])
    worst_dev, worst = -1.0, None
    for a, error, column in zip(points, errors, entries.T.tolist()):
        max_off = max((abs(x) for x in column[d:]), default=0.0)
        max_diag = max(abs(x) for x in column[:d])
        if max(max_off, max_diag) > worst_dev:
            worst_dev = max(max_off, max_diag)
            worst = (a, max_off / (d - 1), max_diag / (d - 1), expected * (1.0 + error))
    return worst


def reduced_row_worst_point(a_set, num_samples, seed):
    """The per-point arithmetic of verify_moving_funtf's row route, written
    out: the scaled normal, then the image row -S*a[K] of every member in
    set order.  Returns what reduced_worst_point returns."""
    k, sign = a_set.index_arrays
    d = a_set.dim
    expected = len(a_set) / (d - 1)
    points = np.vstack([probe_points(d), sample_sphere(d, num_samples, seed)])
    worst_dev, worst = -1.0, None
    for a in points:
        v = np.vstack([math.sqrt(expected) * a, -sign * a[k]])
        s = v.T @ v
        max_off = float(np.max(np.abs(s - np.diag(np.diagonal(s)))))
        max_diag = float(np.max(np.abs(np.diagonal(s) - expected)))
        if max(max_off, max_diag) > worst_dev:
            worst_dev = max(max_off, max_diag)
            worst = (a, max_off, max_diag, float(np.diagonal(s).sum() / d))
    return worst


def rebuilt_cross_term(a_set, a, pair):
    """C*a_r*a_c + sum_U U(a)_r*U(a)_c, entry (r, c) of the augmented frame
    operator at ``a``, from columns r and c of the images S*a[K] = -U(a)."""
    k, sign = a_set.index_arrays
    r, c = pair[0] - 1, pair[1] - 1
    return float(len(a_set) / (a_set.dim - 1) * a[r] * a[c]
                 + (sign[:, r] * a[k[:, r]]) @ (sign[:, c] * a[k[:, c]]))


def row_block_deviations(blocks, draw):
    """What framecheck._form_deviations returns, from the row blocks
    (first, rows) of (d-1)*D, each times the monomials of every point in one
    matmul: BLAS may round a row's product differently with the row count of
    its block, so a D cut otherwise gives maxima a last bit apart."""
    d = draw[0].shape[1]
    monomials = framecheck._monomials(draw, 0, len(draw[0]))
    largest = np.zeros((2, len(draw[0])))  # the diagonal's, then the other entries'
    for first, rows in blocks:
        s = np.abs(rows @ monomials)
        split = max(0, d - first)
        largest = np.maximum(largest, [s[:split].max(axis=0, initial=0.0),
                                       s[split:].max(axis=0, initial=0.0)])
    worst = int(largest.max(axis=0).argmax())
    return worst, float(largest[1, worst]), float(largest[0, worst])


def direct_deviation(a_set, a):
    """max |S(a) - C*I| for the directly built augmented system at ``a``."""
    s = frame_operator(augment_with_normal(a_set, a))
    return float(np.max(np.abs(s - len(a_set) / (a_set.dim - 1) * np.eye(a_set.dim))))


class TestFrameOperator:
    def test_orthonormal_basis(self):
        assert np.allclose(frame_operator(np.eye(2)), np.eye(2))

    def test_mercedes_benz(self):
        angles = np.deg2rad([90.0, 210.0, 330.0])
        vectors = np.column_stack([np.cos(angles), np.sin(angles)])
        assert np.allclose(frame_operator(vectors), 1.5 * np.eye(2), atol=1e-15)

    def test_repeated_vector_is_not_a_frame(self):
        s = frame_operator([[1.0, 0.0], [1.0, 0.0]])
        assert np.allclose(s, np.diag([2.0, 0.0]))

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            frame_operator(np.empty((0, 3)))

    def test_rejects_vectors_of_length_zero(self):
        """No frame of R^0: check_tight gets the same refusal, not a 0/0."""
        for vectors in ([[]], np.zeros((3, 0))):
            for check in (frame_operator, check_tight):
                with pytest.raises(ValueError, match="^expected a nonempty list of vectors of "
                                                     "common length$"):
                    check(vectors)


class TestOperatorImages:
    def test_batch_equals_stacked_points(self):
        a_set = build_minimal_balanced(3)
        points = sample_sphere(6, 7, seed=11)
        batch = operator_images(a_set, points)
        assert batch.shape == (7, 20, 6)
        assert np.array_equal(batch, np.stack([operator_images(a_set, a) for a in points]))
        for a, images in zip(points, batch):
            for u, row in zip(a_set, images):
                assert np.array_equal(row, u(a))

    def test_rejects_points_of_another_length(self):
        a_set = build_minimal_balanced(2)
        for points in (np.ones(3), np.ones((2, 6)), np.ones((1, 2, 4))):
            with pytest.raises(ValueError, match="expected points of length 4"):
                operator_images(a_set, points)


class TestCheckTight:
    def test_orthonormal_basis(self):
        report = check_tight(np.eye(4))
        assert report.tight
        assert report.frame_constant == pytest.approx(1.0)
        assert report.theoretical_constant == pytest.approx(1.0)

    def test_augmented_minimal_set_on_s3(self):
        a = sample_sphere(4, 1, seed=7)[0]
        report = check_tight(augment_with_normal(MIN2, a), expected_constant=2.0)
        assert report.tight
        assert report.frame_constant == pytest.approx(2.0, abs=1e-12)

    def test_redundant_but_not_tight(self):
        vectors = np.array([[1.0, 0.0], [0.0, 1.0], [1 / math.sqrt(2), 1 / math.sqrt(2)]])
        report = check_tight(vectors)
        assert not report.tight
        assert report.max_offdiag == pytest.approx(0.5)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            check_tight([])

    @pytest.mark.parametrize("tolerance", [float("nan"), -1.0, float("inf"), "1e-9", None,
                                           1 + 0j, True, np.array([1e-9])])
    def test_rejects_bad_tolerance(self, tolerance):
        with pytest.raises(ValueError, match="tolerance"):
            check_tight(np.eye(4), tolerance=tolerance)

    @pytest.mark.parametrize("constant", [float("nan"), -1.0, float("inf"), "1", 1 + 0j, True,
                                          np.array([1.0])])
    def test_rejects_bad_expected_constant(self, constant):
        """The tolerance rule, as None stands for no expected constant."""
        with pytest.raises(ValueError, match="^expected_constant must be a finite real number"):
            check_tight(np.eye(4), expected_constant=constant)

    def test_numpy_scalars_stay_valid(self):
        for value in (np.float32(1e-9), np.float64(1e-9), np.int64(0), 0, 1):
            assert check_tight(np.eye(4), tolerance=value).tight
        for value in (np.float64(1.0), np.int64(1), 1):
            assert check_tight(np.eye(4), expected_constant=value).tight


class TestAugmentWithNormal:
    def test_circle_field_gives_orthonormal_basis(self):
        from movingframes import s1_basis
        augmented = augment_with_normal(s1_basis(), np.array([1.0, 0.0]))
        assert np.allclose(augmented, [[1.0, 0.0], [0.0, 1.0]])

    def test_minimal_n2_at_e1(self):
        augmented = augment_with_normal(MIN2, np.array([1.0, 0.0, 0.0, 0.0]))
        assert augmented.shape == (7, 4)
        assert np.allclose(augmented[0], [math.sqrt(2), 0.0, 0.0, 0.0])
        assert np.allclose(np.linalg.norm(augmented[1:], axis=1), 1.0)

    def test_balanced_set_is_tight_after_augmentation(self):
        a_set = build_minimal_balanced(3)
        expected = len(a_set) / 5
        for seed in range(5):
            a = sample_sphere(6, 1, seed)[0]
            s = frame_operator(augment_with_normal(a_set, a))
            assert np.allclose(s, expected * np.eye(6), atol=1e-12)

    def test_rejects_non_unit_point(self):
        for a in ([1.0, 1.0, 0.0, 0.0], [math.nan] * 4, [0.0] * 4):
            with pytest.raises(ValueError, match="expected a unit vector"):
                augment_with_normal(MIN2, np.array(a))

    def test_rejects_dimension_mismatch(self):
        with pytest.raises(ValueError, match="length"):
            augment_with_normal(MIN2, np.array([1.0, 0.0]))


SHRUNK = {"framecheck._BLOCK": 21 * 40, "balance._FORM": 21 * 8, "balance._BLOCK": 30 * 4,
          "balance._CHUNK": 1}


class TestVerifyMovingFuntf:
    def test_s3_preset_is_moving_orthonormal_basis(self):
        report = verify_moving_funtf(s3_basis(), num_samples=50, seed=3)
        assert report.tight
        assert report.theoretical_constant == pytest.approx(1.0)
        assert report.frame_constant == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("n", range(1, 13))
    def test_minimal_sets(self, n):
        whole = build_minimal_balanced(n)
        k, sign = whole.index_arrays
        clipped = [OperatorSet.from_arrays(k[:-1] + 1, sign[:-1])] if n > 1 else []  # n = 1: empty
        for a_set in [whole, *clipped]:
            report = verify_moving_funtf(a_set, num_samples=20, seed=n)
            balanced = is_balanced(a_set).balanced
            assert balanced == (a_set is whole)
            assert report.tight == balanced
            assert report.theoretical_constant == pytest.approx(len(a_set) / (2 * n - 1))
            if balanced:
                assert max(report.max_offdiag, report.max_diag_dev) <= 1e-9
                assert report.max_offdiag == 0.0  # each off-diagonal coefficient of F is 0

    def test_rejects_empty_set(self):
        """No empty set reaches verify_moving_funtf: both constructors refuse
        one.  A set of one member is verified, with C = #A/(2n-1) > 0."""
        for build in (lambda: OperatorSet(4, ()),
                      lambda: OperatorSet.from_arrays(np.zeros((0, 4), int), np.zeros((0, 4), int))):
            with pytest.raises(ValueError, match="^an operator set needs at least one member$"):
                build()
        report = verify_moving_funtf(OperatorSet(2, enumerate_full(1)[:1]), num_samples=5)
        assert report.tight and report.theoretical_constant == 1.0
        report = verify_moving_funtf(OperatorSet(4, enumerate_full(2)[:1]), num_samples=5)
        assert not report.tight and report.theoretical_constant == pytest.approx(1 / 3)

    def test_full_set_n2(self):
        report = verify_moving_funtf(enumerate_full(2), num_samples=20, seed=1)
        assert report.tight
        assert report.theoretical_constant == pytest.approx(4.0)

    @pytest.mark.parametrize("a_set,num_samples,shrunk", [
        *((build_minimal_balanced(n), 10, {}) for n in (2, 3, 4, 5)),
        (OperatorSet(4, MIN2.members[:-1]), 10, {}), (MIXED, 10, {}),
        (reversed_coordinates(build_minimal_balanced(5)), 10, {}),
        # with the working sizes shrunk: 215 points in 6 blocks of up to 36, F
        # in 3 row blocks of 7 entries, slice tables of 4 columns and chunks of
        # 30 members, scattered member by member...
        (FULL3_SUBSET, 200, SHRUNK),
        (one_member_per_pairing(), 10, {}),
        # ...or pairing by pairing
        (FULL3_SUBSET, 200, {**SHRUNK, "balance._grouping": group_always}),
    ], ids=["min2", "min3", "min4", "min5", "clipped-min2", "mixed", "reversed-min5",
            "full3-subset", "one-per-pairing", "full3-subset-grouped"])
    def test_worst_point_matches_reference_loop(self, a_set, num_samples, shrunk, monkeypatch):
        for name, value in shrunk.items():
            module, name = name.split(".")
            monkeypatch.setattr(MODULES[module], name, value)
        a_set = fresh(a_set)  # so no table kept by another case serves this one
        report = verify_moving_funtf(a_set, num_samples=num_samples, seed=4)
        point, max_off, max_diag, _ = reduced_worst_point(a_set, num_samples, 4)
        assert np.array_equal(report.worst_point, point)
        assert report.max_offdiag == max_off
        assert report.max_diag_dev == max_diag
        # the direct loop over every member's image rows agrees on the worst
        # deviation and at the reported worst point (its worst point may differ
        # on near ties)
        _, direct_off, direct_diag = reference_worst_point(a_set, num_samples, 4)
        assert abs(max(direct_off, direct_diag) - max(max_off, max_diag)) <= 1e-12
        assert abs(direct_deviation(a_set, point) - max(max_off, max_diag)) <= 1e-12

    @pytest.mark.parametrize("a_set", [
        MIN2, OperatorSet(4, MIN2.members[:-1]), MIXED, enumerate_full(2),
        build_minimal_balanced(3), reversed_coordinates(build_minimal_balanced(4)),
        subset(enumerate_full(3), np.arange(0, 120, 7)), one_member_per_pairing(),
        build_minimal_balanced(8),
        subset(sylvester_set(16), np.delete(np.arange(496), np.random.default_rng(16).integers(496))),
    ], ids=["min2", "clipped-min2", "mixed", "full2", "min3", "reversed-min4", "full3-subset",
            "one-per-pairing", "min8", "sylvester16-minus-one"])
    def test_grouped_and_per_member_forms_are_identical(self, a_set, monkeypatch):
        """The slice tables scattered member by member and pairing by pairing
        (each pairing's W_pi) give the same (d-1)*D, whole or in row blocks,
        from large tables or from tables of 3 columns, an array of exact
        integers; and the same balance report, that of the definitions.  The
        slice counts read the definitions themselves.  Each mode and table
        size gets a fresh set, so a decode kept by one never serves another."""
        d = a_set.dim
        size = d * (d + 1) // 2
        k, sign = a_set.index_arrays
        pairings = len(np.unique(k, axis=0))
        rng = np.random.default_rng(d)
        picks = [rng.choice(d, min(d, 4), replace=False) + 1 for _ in range(8)]
        forms, counts = [], []
        for grouping in (group_always, group_never):
            monkeypatch.setattr(balance, "_grouping", grouping)
            a_set = fresh(a_set)
            keys, weights = balance._slice_source(a_set)
            assert len(keys) == (pairings if grouping is group_always else len(a_set))
            assert (weights is None) == (grouping is group_never)
            forms.append(whole_defect(a_set))
            with monkeypatch.context() as patch:
                patch.setattr(balance, "_FORM", 4 * size)
                patch.setattr(balance, "_BLOCK", 2 * (size - d) * 3)
                forms.append(whole_defect(fresh(a_set)))
            report = is_balanced(a_set)
            assert (report.condition_i_failures, report.condition_ii_failures) == failures_by_pair(a_set)
            counts.append([count_pair_slice(a_set, *pick[:2]) for pick in picks])
            if d >= 4:
                counts.append([count_sign_slice(a_set, *pick, product)
                               for pick in picks for product in (1, -1)])
        for form in forms[1:]:
            assert np.array_equal(form, forms[0])
        if len(a_set) * size <= 10 ** 5:
            assert np.array_equal(forms[0], reference_defect(a_set))
        # the slice counts as defined: members with k_p = q, and members with
        # {k_r, k_s} = {p, q} and sign[p]*sign[q] equal to the given sign
        assert counts[0] == counts[len(counts) // 2] == [
            int((k[:, p - 1] == q - 1).sum()) for p, q, *_ in picks]
        if d >= 4:
            assert counts[1] == counts[3] == [
                int(((np.sort(k[:, [r - 1, s - 1]], axis=1) == sorted((p - 1, q - 1))).all(axis=1)
                     & (sign[:, p - 1] * sign[:, q - 1] == product)).sum())
                for p, q, r, s in picks for product in (1, -1)]

    @settings(max_examples=60, deadline=None)
    @given(sweep_shaped_sets())
    def test_form_coefficients_are_the_balance_counts(self, a_set):
        """(d-1)*D written from the decode, against the reference loop, and its
        F read as the counts of the balance definitions
        (failures_from_definitions): on the diagonal the pair counts of
        condition i, at each entry's own monomial minus its pair count, and
        elsewhere count_plus - count_minus of the failing sign slices of
        condition ii, 0 at every other one."""
        d = a_set.dim
        rows, cols = balance._layout(d)[1]
        order = entry_order(d)
        assert [tuple(e) for e in zip(rows.tolist(), cols.tolist())] == order
        number = {pair: m for m, pair in enumerate(order)}
        defect = whole_defect(a_set)
        assert np.array_equal(defect, reference_defect(a_set))
        cond_i, cond_ii = failures_from_definitions(a_set)
        counts = np.full((d, d), float(Fraction(len(a_set), d - 1)))  # condition i holds...
        for p, q, observed, _ in cond_i:  # ...except where it fails
            counts[p - 1, q - 1] = counts[q - 1, p - 1] = observed
        expected = np.zeros_like(defect)
        for r, p in zip(*np.nonzero(~np.eye(d, dtype=bool))):
            expected[number[r, r], number[p, p]] = counts[r, p]
        for e in range(d, len(rows)):
            expected[e, e] = -counts[rows[e], cols[e]]
        for p, q, r, s, plus, minus in cond_ii:
            expected[number[r - 1, s - 1], number[p - 1, q - 1]] = plus - minus
        assert np.array_equal(defect, reference_defect(a_set, expected))

    @pytest.mark.parametrize("a_set,num_samples,shrunk", [
        (MIN2, 10, {}), (OperatorSet(4, MIN2.members[:-1]), 10, {}), (MIXED, 10, {}),
        (build_minimal_balanced(3), 10, {}), (reversed_coordinates(build_minimal_balanced(5)), 10, {}),
        # the normal and 100 image rows: 606 floats a point, so 215 points in
        # 22 blocks of up to 10
        (FULL3_SUBSET, 200, {"_ROWS": 606 * 10}),
        (one_member_per_pairing(), 10, {}),
    ], ids=["min2", "clipped-min2", "mixed", "min3", "reversed-min5", "full3-subset",
            "one-per-pairing"])
    def test_row_route_matches_reference_loop(self, a_set, num_samples, shrunk, monkeypatch):
        """The row route, taken by every set here with F refused: the scaled
        normal and every member's image row, also in pairings of at least d
        members (one of MIXED's, 12 of full3-subset's and all of
        reversed-min5's).  The decode is asked only for the sets that pass the
        rows and the re-check."""
        monkeypatch.setattr(framecheck, "_SMALL", 0)
        monkeypatch.setattr(framecheck, "_DENSE", 0)
        reads, decoded = [], balance._decoded
        monkeypatch.setattr(framecheck, "_decoded", lambda a_set: reads.append(1) or decoded(a_set))
        for name, value in shrunk.items():
            monkeypatch.setattr(framecheck, name, value)
        report = verify_moving_funtf(a_set, num_samples=num_samples, seed=4)
        point, max_off, max_diag, mean = reduced_row_worst_point(a_set, num_samples, 4)
        assert np.array_equal(report.worst_point, point)
        assert report.max_offdiag == max_off
        assert report.max_diag_dev == max_diag
        assert report.frame_constant == pytest.approx(mean, abs=1e-15)
        _, direct_off, direct_diag = reference_worst_point(a_set, num_samples, 4)
        assert abs(max(direct_off, direct_diag) - max(max_off, max_diag)) <= 1e-12
        assert abs(direct_deviation(a_set, point) - max(max_off, max_diag)) <= 1e-12
        assert report.tight == is_balanced(a_set).balanced == (reads == [1])

    @pytest.mark.parametrize("pick,route", [
        (np.arange(0, 512, 512), "rows"),  # one member
        (np.arange(0, 2560, 512), "rows"),  # five members of five pairings
        (np.arange(54), "rows"),  # 2 (54 + 1) 400 = 44,000 < 44,100
        (np.arange(55), "form"),  # 2 (55 + 1) 400 = 44,800
        (np.arange(0, 9728, 2), "form"),  # half of each of the 19 pairings
    ], ids=["one", "five", "first-54", "first-55", "half"])
    def test_route_follows_the_cost_of_the_rows(self, pick, route, monkeypatch):
        """At d = 20 F costs E^2 = 44,100 products per point, which _route
        sets against 2 (#A + 1) d^2 = 800 (#A + 1) for the rows: so the first
        54 members of the Theorem 3.4 set take the rows, the first 55 take F.
        Either route gives the same verdict and worst deviation, and the rows
        never write D."""
        assert (44_100 <= 2 * (len(pick) + 1) * 400) == (route == "form")
        a_set = subset(build_minimal_balanced(10), pick)
        assert framecheck._route(a_set) == (route == "form")
        patched = "_row_deviations" if route == "form" else "_defect_rows"
        with monkeypatch.context() as patch:
            patch.setattr(framecheck, patched, None)
            report = verify_moving_funtf(a_set, num_samples=10, seed=4)
        with monkeypatch.context() as patch:  # the other route
            patch.setattr(framecheck, *(("_DENSE", 0) if route == "form" else ("_SMALL", 20)))
            patch.setattr(framecheck, "_defect_rows" if route == "form" else "_row_deviations", None)
            other = verify_moving_funtf(a_set, num_samples=10, seed=4)
        # each U is an isometry, so trace S(a) = C + #A at every unit point
        assert report.frame_constant == pytest.approx((1 / 19 + 1) * len(pick) / 20, abs=1e-12)
        assert not report.tight and not other.tight
        for r in (report, other):
            assert abs(direct_deviation(a_set, r.worst_point) - max(r.max_offdiag, r.max_diag_dev)) <= 1e-12
        assert abs(max(other.max_offdiag, other.max_diag_dev)
                   - max(report.max_offdiag, report.max_diag_dev)) <= 1e-12

    def test_the_direct_recheck_refuses_what_the_form_missed(self, monkeypatch):
        """The verdict also needs S rebuilt from the image rows at the worst
        point: with the decode stubbed to say D = 0 on an unbalanced set, only
        that re-check is left to refuse it."""
        monkeypatch.setattr(framecheck, "_decoded", lambda a_set: (True,))
        assert verify_moving_funtf(MIN2, num_samples=5).tight
        report = verify_moving_funtf(OperatorSet(4, MIN2.members[:-1]), num_samples=5)
        assert not report.tight
        errors = framecheck._points(4, 5, 0)[1]
        assert report.max_offdiag == 0.0
        assert report.max_diag_dev == 5 / 3 * np.abs(errors).max()
        assert direct_deviation(OperatorSet(4, MIN2.members[:-1]), report.worst_point) > 0.1

    @pytest.mark.parametrize("a_set", [
        subset(build_minimal_balanced(8), np.arange(1919)),
        subset(enumerate_full(5), np.arange(3, 30240)),
        heavy_pairings(16, 4, 64),
    ], ids=["min8-minus-one", "full5-minus-three", "heavy-d32"])
    def test_the_grouping_is_found_once(self, a_set, monkeypatch):
        """check-funtf on an unbalanced set: the frame check by F, then exact
        balance, both reading the set's one grouping by pairing."""
        assert framecheck._route(a_set)
        calls, unique = [], np.unique
        monkeypatch.setattr(np, "unique", lambda *args, **kw: calls.append(1) or unique(*args, **kw))
        a_set = fresh(a_set)
        assert not verify_moving_funtf(a_set, num_samples=5).tight
        assert not is_balanced(a_set).balanced
        assert len(calls) == 1
        for array in a_set._pairings:
            assert not array.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 0

    @pytest.mark.parametrize("a_set,tolerance", [
        (build_minimal_balanced(3), 1e-9),
        (subset(build_minimal_balanced(3), np.arange(19)), 1e-9),
        (build_minimal_balanced(9), 1e-9),
        (subset(build_minimal_balanced(9), np.arange(4351)), 1e-9),
        # one member at d = 16 takes the image rows, and asks the decode only
        # where a large tolerance lets them and the re-check pass
        (subset(build_minimal_balanced(8), [0]), 1e3),
        # d = 20 and 24: all C columns take more than one table
        (MIN10, 1e-9), (subset(MIN10, np.arange(len(MIN10) - 1)), 1e-9),
        (MIN12, 1e-9), (subset(MIN12, np.arange(len(MIN12) - 1)), 1e-9),
    ], ids=["min3", "min3-minus-last", "min9", "min9-minus-last", "one-member-d16",
            "min10", "min10-minus-last", "min12", "min12-minus-last"])
    @pytest.mark.parametrize("balance_first", [True, False], ids=["balance-first", "frame-first"])
    def test_one_scatter_per_set(self, a_set, tolerance, balance_first, monkeypatch):
        """A set decodes its slice tables once, so exact balance and the frame
        check, in either order and at every d, make one _slice_counts pass
        between them: up to d = 18 one np.bincount, as each such set here
        fits one table and one chunk."""
        passes, slice_counts = [], balance._slice_counts
        monkeypatch.setattr(balance, "_slice_counts", lambda source: passes.append(1) or slice_counts(source))
        calls, bincount = [], np.bincount
        monkeypatch.setattr(np, "bincount", lambda *args: calls.append(1) or bincount(*args))
        a_set = fresh(a_set)
        steps = [lambda: is_balanced(a_set).balanced,
                 lambda: verify_moving_funtf(a_set, num_samples=5, tolerance=tolerance).tight]
        verdicts = [step() for step in (steps if balance_first else steps[::-1])]
        assert verdicts[0] == verdicts[1]
        assert len(passes) == 1
        if a_set.dim <= 18:
            assert len(calls) == 1

    @pytest.mark.parametrize("n", [1, 3, 9, 10])
    def test_the_decode_is_kept_read_only_at_every_d(self, n):
        """A set keeps its one decode read-only at every d, also at d = 20,
        where its C = d(d-1)/2 columns take two tables of balance._BLOCK
        entries; and each report's failure lists are its own, so mutating one
        leaves the next call's report unchanged."""
        whole = build_minimal_balanced(n)
        for a_set in [fresh(whole), *([subset(whole, np.arange(len(whole) - 1))] if n > 1 else [])]:
            report = is_balanced(a_set)
            assert report.balanced == verify_moving_funtf(a_set, num_samples=5).tight == (len(a_set) == len(whole))
            decode = vars(a_set)["_decode"]
            # balanced: every pair count #A/(2n-1), and no sign slice whose counts differ
            assert decode[0] == report.balanced == (decode[1].shape == (0,))
            assert (decode[3] * (2 * n - 1) == len(a_set)).all() == report.balanced
            for array in decode[1:]:
                assert not array.flags.writeable
                with pytest.raises(ValueError, match="read-only"):
                    array[:1] = 0
            words = report.to_dict()
            report.condition_i_failures.append((1, 2, 0, Fraction(1)))
            report.condition_ii_failures.clear()
            assert is_balanced(a_set).to_dict() == words
            assert vars(a_set)["_decode"] is decode

    def test_heavy_pairings_take_the_rows(self, monkeypatch):
        """Pairings of at least d members take the route of their member count:
        256 members at d = 32 take F, 256 at d = 64 the rows, which never write D."""
        for (n, pairings, members), form in (((16, 4, 64), True), ((32, 2, 128), False)):
            a_set = heavy_pairings(n, pairings, members)
            assert framecheck._route(a_set) == form
            with monkeypatch.context() as patch:
                patch.setattr(framecheck, "_row_deviations" if form else "_defect_rows", None)
                assert verify_moving_funtf(a_set, num_samples=5).tight == is_balanced(a_set).balanced

    @pytest.mark.parametrize("a_set", [
        subset(build_minimal_balanced(8), [0]), heavy_pairings(32, 2, 128),
    ], ids=["one-member-d16", "heavy-d64"])
    def test_the_row_route_never_finds_the_grouping(self, a_set, monkeypatch):
        """The rows read every member's image row, and the route is priced by
        the member count alone, so the row route never calls np.unique."""
        calls, unique = [], np.unique
        monkeypatch.setattr(np, "unique", lambda *args, **kw: calls.append(1) or unique(*args, **kw))
        a_set = fresh(a_set)
        assert not framecheck._route(a_set)
        assert not verify_moving_funtf(a_set).tight
        assert calls == []

    @settings(max_examples=30, deadline=None)
    @given(sweep_shaped_sets())
    def test_sweep_shaped_sets_never_look_for_their_grouping(self, a_set):
        """Built as the sweep benchmark builds them, or from arrays, and
        decided both ways, small sets never pay for np.unique."""
        k, sign = a_set.index_arrays
        calls, unique = [], np.unique
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(np, "unique", lambda *args, **kw: calls.append(1) or unique(*args, **kw))
            for built in (OperatorSet(a_set.dim, a_set.members), OperatorSet.from_arrays(k + 1, sign)):
                assert verify_moving_funtf(built, num_samples=5).tight == is_balanced(built).balanced
                assert "_pairings" not in vars(built)
        assert calls == []

    def test_distinct_pairings_stay_within_three_times_the_index_arrays(self):
        a_set = one_member_per_pairing()
        k, sign = a_set.index_arrays
        tracemalloc.start()
        try:
            report = verify_moving_funtf(a_set, num_samples=20)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert not report.tight
        assert peak <= 3 * (k.nbytes + sign.nbytes)

    @pytest.mark.parametrize("bad", [
        {"tolerance": float("nan")}, {"tolerance": -1e-12}, {"tolerance": float("inf")},
        {"tolerance": "1e-9"}, {"tolerance": None}, {"tolerance": 1 + 0j}, {"tolerance": True},
        {"tolerance": np.array([1e-9])},
        {"num_samples": 0}, {"num_samples": True}, {"num_samples": 2.0}, {"num_samples": "3"},
        {"seed": True}, {"seed": 1.0}, {"seed": -1}, {"seed": "1"},
    ], ids=repr)
    def test_rejects_bad_arguments(self, bad):
        # an infinite tolerance used to report this unbalanced set as tight.
        # True and 1.0 equal 1 as keys of the point cache, so every argument is
        # refused both on an empty cache and after a seed=1 call filled it.
        clipped = OperatorSet(4, MIN2.members[:-1])
        (name, value), = bad.items()
        match = name
        if name == "seed":  # the messages of sample_sphere's own checks
            match = re.escape("seed must be nonnegative, got -1" if value == -1 else
                              f"dim, count and seed must be integers, got (4, 5, {value!r})")
        for warm in (False, True):
            framecheck._points.cache_clear()
            if warm:
                verify_moving_funtf(clipped, num_samples=5, seed=1)
            with pytest.raises(ValueError, match=match):
                verify_moving_funtf(clipped, **{"num_samples": 5, **bad})

    def test_points_are_drawn_once_and_shared_read_only(self, monkeypatch):
        clipped = OperatorSet(4, MIN2.members[:-1])
        framecheck._points.cache_clear()
        draws = []
        monkeypatch.setattr(framecheck, "sample_sphere",
                            lambda *args: draws.append(args) or sample_sphere(*args))
        first, second = (verify_moving_funtf(clipped, num_samples=5, seed=2) for _ in range(2))
        assert draws == [(4, 5, 2)]
        assert first.to_dict() == second.to_dict()
        first.worst_point[:] = 0.0
        assert np.array_equal(second.worst_point, reduced_worst_point(clipped, 5, 2)[0])
        points, errors, _ = framecheck._points(4, 5, 2)
        assert errors.tolist() == (np.square(points).sum(axis=1) - 1.0).tolist()
        for array in (points, errors):
            assert not array.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 1.0
        for other, *_ in (framecheck._points(4, 5, 3), framecheck._points(4, 6, 2)):
            assert not np.array_equal(other[6:11], points[6:])
        assert framecheck._points.cache_info().maxsize <= 16

    def test_monomials_are_kept_with_the_draw(self, monkeypatch):
        """An unbalanced set on F's route forms the monomials a_p*a_q of the
        draw's first point block once, read-only, in the draw's cache entry:
        every set of that (d, samples, seed) reads them, a balanced set and a
        set on the row route never form them, and clearing the cache clears them."""
        formed, layout = [], framecheck._layout
        monkeypatch.setattr(framecheck, "_layout", lambda d: formed.append(d) or layout(d))
        framecheck._points.cache_clear()
        for a_set in (MIN2, build_minimal_balanced(3), subset(build_minimal_balanced(8), [0])):
            assert not framecheck._route(a_set) or is_balanced(a_set).balanced
            verify_moving_funtf(a_set)
        assert formed == []
        assert all(draw[2] == [] for draw in map(framecheck._points, (4, 6, 16), [100] * 3, [0] * 3))
        for a_set in (OperatorSet(4, MIN2.members[:-1]), MIXED, OperatorSet(4, enumerate_full(2)[:1])):
            assert not verify_moving_funtf(a_set).tight
        assert formed == [4]
        assert framecheck._points.cache_info().currsize == 3
        points, _, kept = framecheck._points(4, 100, 0)
        (monomials,) = kept
        rows, cols = balance._layout(4)[1]
        assert np.array_equal(monomials, points.T[rows] * points.T[cols])
        assert monomials.size <= framecheck._BLOCK
        assert not monomials.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            monomials[0, 0] = 1.0
        verify_moving_funtf(MIXED)
        assert framecheck._points(4, 100, 0)[2][0] is monomials and formed == [4]
        # at most one block of _BLOCK floats: here the first 35 of the 215 points of d = 6
        monkeypatch.setattr(framecheck, "_BLOCK", 21 * 40)
        verify_moving_funtf(fresh(FULL3_SUBSET), num_samples=200, seed=4)
        (first,) = framecheck._points(6, 200, 4)[2]
        assert first.shape == (21, 35) and first.size <= framecheck._BLOCK
        framecheck._points.cache_clear()
        assert framecheck._points(4, 100, 0)[2] == []
        assert framecheck._points.cache_info().maxsize == 16

    @pytest.mark.parametrize("a_set,num_samples,shrunk", [
        (OperatorSet(4, MIN2.members[:-1]), 10, {}), (MIXED, 100, {}),
        (subset(build_minimal_balanced(5), np.arange(143)), 100, {}),
        # the draw in 6 point blocks and D in 3 row blocks, so the kept first
        # block and the blocks formed on each use are both read
        (FULL3_SUBSET, 200, SHRUNK),
        (FULL3_SUBSET, 200, {**SHRUNK, "balance._grouping": group_always}),
    ], ids=["clipped-min2", "mixed", "min5-minus-last", "full3-subset", "full3-subset-grouped"])
    def test_cold_and_warm_caches_give_the_same_report(self, a_set, num_samples, shrunk,
                                                        monkeypatch):
        for name, value in shrunk.items():
            module, name = name.split(".")
            monkeypatch.setattr(MODULES[module], name, value)
        d = a_set.dim
        size = d * (d + 1) // 2
        blocks = balance._blocks(d * (d - 1) // 2 + num_samples, max(1, framecheck._BLOCK // size))
        assert (len(blocks) > 1) == bool(shrunk)
        framecheck._points.cache_clear()
        cold = verify_moving_funtf(fresh(a_set), num_samples=num_samples, seed=4)
        (kept,) = framecheck._points(d, num_samples, 4)[2]
        assert kept.shape == (size, blocks[0][1])
        warm = verify_moving_funtf(fresh(a_set), num_samples=num_samples, seed=4)
        assert framecheck._points(d, num_samples, 4)[2] == [kept]
        assert not cold.tight and cold.to_dict() == warm.to_dict()
        point, max_off, max_diag, constant = reduced_worst_point(a_set, num_samples, 4)
        for report in (cold, warm):
            assert np.array_equal(report.worst_point, point)
            assert (report.max_offdiag, report.max_diag_dev) == (max_off, max_diag)
            assert report.frame_constant == constant

    @pytest.mark.parametrize("kind", [np.int8, np.int16, np.uint8])
    def test_numpy_integer_arguments_are_read_as_ints(self, kind):
        """A numpy integer gives the plain int's result, with no size computed in
        its own type; np.int8(12) used to cache a draw of NaN rows under the key 12."""
        balanced = build_minimal_balanced(6)
        framecheck._points.cache_clear()
        report = verify_moving_funtf(OperatorSet(kind(12), balanced.members), seed=5)
        later = verify_moving_funtf(balanced, seed=5)
        assert report.tight and report.to_dict() == later.to_dict()
        assert np.isfinite(framecheck._points(12, framecheck.DEFAULT_NUM_SAMPLES, 5)[0]).all()
        framecheck._points.cache_clear()
        assert verify_moving_funtf(balanced, seed=5).to_dict() == later.to_dict()
        assert np.array_equal(sample_sphere(kind(12), 100, 5), sample_sphere(12, 100, 5))
        assert build_minimal_balanced(kind(8)) == build_minimal_balanced(8)
        assert np.array_equal(build_pairing_matrix(kind(70)), build_pairing_matrix(70))
        small = build_minimal_balanced(3)
        assert (verify_moving_funtf(small, num_samples=kind(100)).to_dict()
                == verify_moving_funtf(small, num_samples=100).to_dict())

    @settings(max_examples=100, deadline=None)
    @given(sweep_shaped_sets(), st.integers(0, 2 ** 16))
    def test_worst_point_matches_reference_on_sweep_shaped_sets(self, a_set, seed):
        """Twice on each set: the draw's kept monomials serve the second call."""
        point, max_off, max_diag, mean_diagonal = reduced_worst_point(a_set, 10, seed)
        reports = [verify_moving_funtf(a_set, num_samples=10, seed=seed) for _ in range(2)]
        assert reports[0].to_dict() == reports[1].to_dict()
        for report in reports:
            assert np.array_equal(report.worst_point, point)
            assert report.max_offdiag == max_off
            assert report.max_diag_dev == max_diag
            assert report.frame_constant == mean_diagonal

    def test_unbalanced_set_fails_at_probe(self):
        clipped = OperatorSet(4, MIN2.members[:-1])
        report = verify_moving_funtf(clipped, num_samples=5, seed=0)
        assert not report.tight
        assert report.max_offdiag > 0.1
        assert report.points_checked == 11  # 6 probes + 5 samples

    @pytest.mark.parametrize("n,tolerance", [(10, 1e-13), (12, 1e-12)], ids=["min10", "min12"])
    def test_the_float_bound_is_relative_to_the_frame_constant(self, n, tolerance):
        """Both float cross-checks are bounded by tolerance * max(1, C), as the
        rounding of S grows with C: the re-check of a balanced set reads above
        the absolute tolerance (6.8e-13 at C = 512 and 4.5e-12 at C = 2048),
        and the set is tight.  Without its last member it stays refused, also
        at tolerance 1000."""
        whole = build_minimal_balanced(n)
        report = verify_moving_funtf(whole, tolerance=tolerance)
        expected = len(whole) / (2 * n - 1)
        assert tolerance < framecheck._direct_deviation(whole, report.worst_point, expected)
        assert report.tight
        clipped = subset(whole, np.arange(len(whole) - 1))
        for bound in (tolerance, 1e3):
            assert not verify_moving_funtf(clipped, tolerance=bound).tight


@st.composite
def sylvester_sets(draw):
    """sylvester_set(n) for 2 <= n <= 16, whole or minus one drawn member."""
    whole = sylvester_set(draw(st.integers(2, 16)))
    if draw(st.booleans()):
        return whole
    return subset(whole, np.delete(np.arange(len(whole)), draw(st.integers(0, len(whole) - 1))))


class TestExactVerdict:
    """The frame verdict rests on D = 0 alone: with tolerance 1000 as with the
    default, it is the balance verdict of the definitions."""

    @staticmethod
    def check(a_set, balanced):
        assert balance._decoded(a_set)[0] == balanced
        assert (not any(form.any() for _, form in balance._defect_rows(a_set))) == balanced
        for tolerance in (framecheck.DEFAULT_TIGHTNESS_TOL, 1e3):
            report = verify_moving_funtf(a_set, num_samples=5, tolerance=tolerance)
            assert report.tight == balanced
            if balanced:
                assert report.max_offdiag == 0.0

    @pytest.mark.parametrize("a_set,route", [
        (build_minimal_balanced(3), "form"), (subset(build_minimal_balanced(3), np.arange(19)), "form"),
        (subset(build_minimal_balanced(8), [0]), "rows"),
    ], ids=["min3", "min3-minus-last", "one-member-d16"])
    def test_each_part_only_while_the_verdict_is_open(self, a_set, route, monkeypatch):
        """At tolerance 1000 every float check passes, so the parts run are
        those the rule leaves open: the decode is asked once, and on F's route
        only a set with D = 0 is re-checked."""
        reads, rechecks = [], []
        decoded, direct = framecheck._decoded, framecheck._direct_deviation
        monkeypatch.setattr(framecheck, "_decoded", lambda s: reads.append(1) or decoded(s))
        monkeypatch.setattr(framecheck, "_direct_deviation",
                            lambda *args: rechecks.append(1) or direct(*args))
        balanced = is_balanced(a_set).balanced
        assert framecheck._route(a_set) == (route == "form")
        assert verify_moving_funtf(a_set, num_samples=5, tolerance=1e3).tight == balanced
        assert (len(reads), len(rechecks)) == (1, int(balanced or route == "rows"))

    @settings(max_examples=60, deadline=None)
    @given(sweep_shaped_sets())
    def test_on_sweep_shaped_sets(self, a_set):
        self.check(a_set, failures_from_definitions(a_set) == ([], []))

    @settings(max_examples=20, deadline=None)
    @given(sylvester_sets())
    def test_on_sylvester_sets(self, a_set):
        """failures_by_pair reads the definitions per pair of each member, as
        failures_from_definitions' walk over every quadruple takes minutes at d = 32."""
        self.check(a_set, failures_by_pair(a_set) == ([], []))


class TestReconstruct:
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_round_trip(self, n):
        a_set = build_minimal_balanced(n)
        d = 2 * n
        rng = np.random.default_rng(n)
        a = rng.standard_normal(d)
        a /= np.linalg.norm(a)
        x = project_tangent(a, rng.standard_normal(d))
        coeffs = operator_images(a_set, a) @ x
        rebuilt = reconstruct(a_set, a, coeffs)
        assert np.linalg.norm(rebuilt - x) <= 1e-12 * np.linalg.norm(x)

    def test_zero_coefficients(self):
        a = sample_sphere(4, 1, seed=0)[0]
        assert np.allclose(reconstruct(MIN2, a, np.zeros(6)), np.zeros(4))

    def test_single_erasure_error_is_bounded(self):
        constant = 2.0
        rng = np.random.default_rng(42)
        a = rng.standard_normal(4)
        a /= np.linalg.norm(a)
        x = project_tangent(a, rng.standard_normal(4))
        coeffs = operator_images(MIN2, a) @ x
        erased = coeffs.copy()
        erased[3] = 0.0
        error = np.linalg.norm(reconstruct(MIN2, a, erased) - x)
        assert error == pytest.approx(abs(coeffs[3]) / constant, abs=1e-12)

    def test_rejects_wrong_count(self):
        a = sample_sphere(4, 1, seed=0)[0]
        with pytest.raises(ValueError, match="coefficients"):
            reconstruct(MIN2, a, np.zeros(5))

    @pytest.mark.parametrize("shape", [(1, 6), (6, 1)])
    def test_refuses_coefficients_that_are_not_one_vector(self, shape):
        a = sample_sphere(4, 1, seed=0)[0]
        with pytest.raises(ValueError, match=re.escape(
                f"expected one vector of 6 coefficients, got shape {shape}")):
            reconstruct(MIN2, a, np.ones(shape))

    @pytest.mark.parametrize("a, message", [
        ([math.nan] * 4, "unit vector"), ([2.0, 0.0, 0.0, 0.0], "unit vector"),
        ([1.0, 0.0, 0.0], "point has length 3, expected 4"),
        ([1.0, 0.0, 0.0, 0.0, 0.0, 0.0], "point has length 6, expected 4")])
    def test_refuses_a_point_off_the_sphere(self, a, message):
        with pytest.raises(ValueError, match=message):
            reconstruct(MIN2, a, np.ones(6))

    def test_divides_by_the_frame_constant(self):
        for a_set, constant in ((enumerate_full(2), 4), (build_minimal_balanced(1), 1)):
            a = sample_sphere(a_set.dim, 1, seed=3)[0]
            c = np.random.default_rng(3).standard_normal(len(a_set))
            assert np.array_equal(reconstruct(a_set, a, c), c @ operator_images(a_set, a) / constant)


class TestWitnessUnbalanced:
    def test_minimal_minus_one(self):
        keep = [u for u in MIN2 if u.pairing[0] != 2]
        removed_one = [u for u in MIN2 if u.pairing[0] == 2][1:]
        clipped = OperatorSet(4, tuple(keep + removed_one))
        report = is_balanced(clipped)
        witness = witness_unbalanced(clipped, report)
        assert witness.probe_pair == (1, 2)
        assert witness.defect == Fraction(1, 3)
        expected = np.zeros(4)
        expected[0] = expected[1] = 1 / math.sqrt(2)
        assert np.allclose(witness.point, expected)
        assert witness_cross_term(clipped, witness) == pytest.approx(1 / 3, abs=1e-12)

    def test_single_operator(self):
        single = OperatorSet(4, (make_operator(4, (3, 4, 1, 2), (1, 1, -1, -1)),))
        report = is_balanced(single)
        witness = witness_unbalanced(single, report)
        assert witness.probe_pair == (1, 2)
        assert witness.defect == Fraction(1, 6)
        assert witness_cross_term(single, witness) == pytest.approx(1 / 6, abs=1e-12)

    def test_condition_ii_witness(self):
        # flipping signs inside one member keeps every pair count (condition i)
        # but skews a sign slice, so only condition ii fails
        from movingframes import sign_flip_bijection
        members = list(MIN2.members)
        idx = next(i for i, u in enumerate(members) if u.pairing == (3, 4, 1, 2))
        members[idx] = sign_flip_bijection(members[idx], 1)
        skewed = OperatorSet(4, tuple(members))
        report = is_balanced(skewed)
        assert not report.balanced
        assert not report.condition_i_failures
        assert report.condition_ii_failures
        witness = witness_unbalanced(skewed, report)
        p, q, r, s, plus, minus = min(report.condition_ii_failures)
        assert witness.probe_pair == (r, s)
        assert witness.defect == Fraction(plus - minus, 2)
        assert witness_cross_term(skewed, witness) == pytest.approx(
            float(witness.defect), abs=1e-12)

    def test_rejects_balanced_report(self):
        report = is_balanced(MIN2)
        with pytest.raises(ValueError, match="balanced"):
            witness_unbalanced(MIN2, report)

    @pytest.mark.parametrize("pair", [
        (0, 2), (True, 2), (1, 5), (1.5, 2), (2, 0), (1, True), (1, np.True_), (1, 2.0),
        (-1, 2), (1,), (1, 2, 3), None, "12",
    ], ids=repr)
    def test_refuses_a_probe_pair_that_is_not_two_coordinates(self, pair):
        """(0, 2) used to read coordinate d and return 0.0 and (True, 2) to be
        read as (1, 2); (1, 5) and (1.5, 2) raised numpy's IndexError."""
        clipped = OperatorSet(4, MIN2.members[:-1])
        witness = witness_unbalanced(clipped, is_balanced(clipped))
        witness.probe_pair = pair
        with pytest.raises(ValueError, match=re.escape(f"probe_pair must be two integers in 1..4, got {pair!r}")):
            witness_cross_term(clipped, witness)

    @pytest.mark.parametrize("pair", [(1, 2), (2, 1), (3, 4), (4, 4), (np.int64(2), 3), [1, 3]],
                             ids=repr)
    def test_a_valid_probe_pair_reads_its_entry(self, pair):
        """The value C*a_r*a_c + sum_U U(a)_r*U(a)_c, as before the pair was
        checked, and the entry of the augmented frame operator."""
        clipped = OperatorSet(4, MIN2.members[:-1])
        witness = witness_unbalanced(clipped, is_balanced(clipped))
        witness.probe_pair = pair
        assert witness_cross_term(clipped, witness) == rebuilt_cross_term(clipped, witness.point, pair)
        entry = frame_operator(augment_with_normal(clipped, witness.point))[pair[0] - 1, pair[1] - 1]
        assert witness_cross_term(clipped, witness) == pytest.approx(entry, abs=1e-12)

    @settings(max_examples=60, deadline=None)
    @given(sweep_shaped_sets(clipped=True), st.integers(0, 2 ** 16))
    def test_small_sets_keep_their_bytes(self, a_set, seed):
        """On sets shaped as the sweep benchmark's unbalanced ones: D in one row
        block and D in row blocks of four entries are the same array, bit for
        bit, and each gives the worst point and maxima of its own row products
        (row_block_deviations), bit for bit; the direct re-check at the worst
        point is max |S - C*I| of S built from the images U(a), bit for bit;
        the witness defect is the exact rational of the first failing slice;
        and its cross term is rebuilt_cross_term's, bit for bit, and the
        defect's value."""
        d, size = a_set.dim, len(a_set)
        entries, expected = d * (d + 1) // 2, size / (d - 1)
        draw = framecheck._points(d, 10, seed)
        whole = list(balance._defect_rows(a_set))
        assert [first for first, _ in whole] == [0]
        worst, off, diag = framecheck._form_deviations(a_set, draw)
        assert (worst, off, diag) == row_block_deviations(whole, draw)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(balance, "_FORM", 4 * entries)
            blocks = list(balance._defect_rows(a_set))
            assert len(blocks) > 1
            assert np.array_equal(np.vstack([rows for _, rows in blocks]), whole[0][1])
            assert framecheck._form_deviations(a_set, draw) == row_block_deviations(blocks, draw)
        point = draw[0][worst]
        k, sign = a_set.index_arrays
        images = -sign * point[k]
        direct = expected * np.outer(point, point) + images.T @ images
        direct.ravel()[::d + 1] -= expected
        assert framecheck._direct_deviation(a_set, point, expected) == float(np.abs(direct).max())
        report = is_balanced(a_set)
        if report.balanced:  # a drawn subset of a full set may be balanced
            return
        witness = witness_unbalanced(a_set, report)
        if report.condition_i_failures:
            p, q, observed, _ = min(report.condition_i_failures)
            assert witness.probe_pair == (p, q)
            assert witness.defect == (Fraction(size, d - 1) - observed) / 2
        else:
            p, q, r, s, plus, minus = min(report.condition_ii_failures)
            assert witness.probe_pair == (r, s)
            assert witness.defect == Fraction(plus - minus, 2)
        assert type(witness.defect) is Fraction and witness.defect != 0
        cross = witness_cross_term(a_set, witness)
        assert cross == rebuilt_cross_term(a_set, witness.point, witness.probe_pair)
        assert abs(cross - float(witness.defect)) <= 1e-12


class TestProbePoints:
    def test_count_and_shape(self):
        pts = probe_points(4)
        assert pts.shape == (6, 4)
        assert np.allclose(np.linalg.norm(pts, axis=1), 1.0)
        assert np.all(np.sum(pts > 0, axis=1) == 2)

    @pytest.mark.parametrize("dim", [True, 2.0, "4", 3, 0, -2, np.int64(5), None], ids=repr)
    def test_rejects_a_dim_sample_sphere_refuses(self, dim):
        with pytest.raises(ValueError, match=re.escape(
                f"dim must be an even integer of at least 2, got {dim!r}")):
            probe_points(dim)

    def test_numpy_integer_dim(self):
        assert np.array_equal(probe_points(np.int64(6)), probe_points(6))
        assert probe_points(2).tolist() == [[1 / math.sqrt(2)] * 2]
