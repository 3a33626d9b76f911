import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from movingframes import (apply, augment_with_normal, build_minimal_balanced,
                          check_tight, enumerate_full, frame_operator,
                          is_balanced, make_operator, operator_images,
                          probe_points, reconstruct, s3_basis,
                          verify_moving_funtf, witness_cross_term,
                          witness_unbalanced)
from movingframes.operators import OperatorSet
from movingframes.sphere import project_tangent, sample_sphere

MIN2 = build_minimal_balanced(2)
# full n = 2 with pairing (2, 1, 4, 3) whole (4 = d members, a Gram matrix) and
# one member of each other pairing (image rows): unbalanced
MIXED = OperatorSet(4, [enumerate_full(2)[i] for i in (0, 1, 2, 3, 4, 8)])


def subset(a_set, pick):
    """The members of ``a_set`` at the indices ``pick``, in set order."""
    k, sign = a_set.index_arrays
    return OperatorSet.from_arrays(k[pick] + 1, sign[pick])


def one_member_per_pairing():
    """One seeded member of each of the 945 pairings of R^10: no pairing
    reaches the Gram-matrix threshold, so every member keeps its image row."""
    return subset(enumerate_full(5), 32 * np.arange(945) + np.random.default_rng(0).integers(
        32, size=945))


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


def reduced_worst_point(a_set, num_samples, seed):
    """The per-point arithmetic of verify_moving_funtf, written out with its
    own grouping.  A pairing of at least d members becomes the integer Gram
    matrix of their sign rows (pairings in order of first appearance); the
    other members keep their image rows, after the scaled normal and in set
    order.  Returns what reference_worst_point returns.
    """
    k, sign = a_set.index_arrays
    d = a_set.dim
    expected = len(a_set) / (d - 1)
    groups = {}
    for m, row in enumerate(k.tolist()):
        groups.setdefault(tuple(row), []).append(m)
    heavy = [rows for rows in groups.values() if len(rows) >= d]
    light = sorted(m for rows in groups.values() if len(rows) < d for m in rows)
    w = np.zeros((len(heavy), d, d))
    for j, rows in enumerate(heavy):
        for m in rows:
            w[j] += np.outer(sign[m], sign[m])
    k_heavy = k[[rows[0] for rows in heavy]]
    points = np.vstack([probe_points(d), sample_sphere(d, num_samples, seed)])
    worst_dev, worst = -1.0, None
    for a in points:
        v = np.vstack([math.sqrt(expected) * a, -sign[light] * a[k[light]]])
        s = v.T @ v
        if heavy:
            s = s + np.einsum("prs,pr,ps->rs", w, a[k_heavy], a[k_heavy])
        max_off = float(np.max(np.abs(s - np.diag(np.diagonal(s)))))
        max_diag = float(np.max(np.abs(np.diagonal(s) - expected)))
        if max(max_off, max_diag) > worst_dev:
            worst_dev, worst = max(max_off, max_diag), (a, max_off, max_diag)
    return worst


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


class TestOperatorImages:
    def test_batch_equals_stacked_points(self):
        a_set = build_minimal_balanced(3)
        points = sample_sphere(6, 7, seed=11)
        batch = operator_images(a_set, points)
        assert batch.shape == (7, 20, 6)
        assert np.array_equal(batch, np.stack([operator_images(a_set, a) for a in points]))
        for a, images in zip(points, batch):
            for u, row in zip(a_set, images):
                assert np.array_equal(row, apply(u, a))

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

    @pytest.mark.parametrize("tolerance", [float("nan"), -1.0, float("inf")])
    def test_rejects_bad_tolerance(self, tolerance):
        with pytest.raises(ValueError, match="tolerance"):
            check_tight(np.eye(4), tolerance=tolerance)


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

    def test_rejects_empty_set(self):
        with pytest.raises(ValueError, match="^cannot verify an empty operator set$"):
            verify_moving_funtf(OperatorSet(4, ()))

    def test_full_set_n2(self):
        report = verify_moving_funtf(enumerate_full(2), num_samples=20, seed=1)
        assert report.tight
        assert report.theoretical_constant == pytest.approx(4.0)

    @pytest.mark.parametrize("a_set,num_samples", [
        *((build_minimal_balanced(n), 10) for n in (2, 3, 4, 5)),
        (OperatorSet(4, MIN2.members[:-1]), 10), (MIXED, 10),
        (reversed_coordinates(build_minimal_balanced(5)), 10),
        # points in several blocks: 3 blocks of up to 105 points, and 55 of one
        (subset(enumerate_full(3), np.sort(np.random.default_rng(0).choice(120, 100, replace=False))),
         200),
        (one_member_per_pairing(), 10),
    ], ids=["min2", "min3", "min4", "min5", "clipped-min2", "mixed", "reversed-min5",
            "full3-subset", "one-per-pairing"])
    def test_worst_point_matches_reference_loop(self, a_set, num_samples):
        report = verify_moving_funtf(a_set, num_samples=num_samples, seed=4)
        point, max_off, max_diag = reduced_worst_point(a_set, num_samples, 4)
        assert np.array_equal(report.worst_point, point)
        assert report.max_offdiag == max_off
        assert report.max_diag_dev == max_diag
        # the direct loop over every member's image rows agrees on the worst
        # deviation and at the reported worst point (its worst point may differ
        # on near ties)
        _, direct_off, direct_diag = reference_worst_point(a_set, num_samples, 4)
        assert abs(max(direct_off, direct_diag) - max(max_off, max_diag)) <= 1e-12
        assert abs(direct_deviation(a_set, point) - max(max_off, max_diag)) <= 1e-12

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
        {"num_samples": 0}, {"num_samples": True}, {"num_samples": 2.0}, {"num_samples": "3"},
    ], ids=repr)
    def test_rejects_bad_arguments(self, bad):
        # an infinite tolerance used to report this unbalanced set as tight
        clipped = OperatorSet(4, MIN2.members[:-1])
        with pytest.raises(ValueError, match=next(iter(bad))):
            verify_moving_funtf(clipped, **{"num_samples": 5, **bad})

    def test_unbalanced_set_fails_at_probe(self):
        clipped = OperatorSet(4, MIN2.members[:-1])
        report = verify_moving_funtf(clipped, num_samples=5, seed=0)
        assert not report.tight
        assert report.max_offdiag > 0.1
        assert report.points_checked == 11  # 6 probes + 5 samples


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


class TestProbePoints:
    def test_count_and_shape(self):
        pts = probe_points(4)
        assert pts.shape == (6, 4)
        assert np.allclose(np.linalg.norm(pts, axis=1), 1.0)
        assert np.all(np.sum(pts > 0, axis=1) == 2)
