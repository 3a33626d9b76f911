import numpy as np
import pytest

from movingframes import (augment_with_normal, project_tangent, s1_basis,
                          sample_sphere, tangent_basis)
from movingframes.sphere import UNIT_POINT_TOL

# points of R^4 off the unit sphere, NaN and zero among them
OFF_SPHERE = ([1.0, 1.0, 0.0, 0.0], [np.nan] * 4, [0.0] * 4, [0.6, np.nan, 0.0, 0.8],
              [0.6, 0.8 + 2 * UNIT_POINT_TOL, 0.0, 0.0])


class TestSpherePoint:
    """A point where a frame is checked must lie on the sphere."""

    def test_accepts_unit_vector(self):
        # within UNIT_POINT_TOL of the sphere counts as on it
        for a in ([0.6, 0.8], [0.6, 0.8 + 0.5 * UNIT_POINT_TOL]):
            assert augment_with_normal(s1_basis(), a).shape == (2, 2)

    def test_rejects_off_sphere(self):
        for a in ([0.6, 0.9], [0.6, 0.8 + 2 * UNIT_POINT_TOL], [np.nan, np.nan], [0.0, 0.0]):
            with pytest.raises(ValueError, match="norm"):
                augment_with_normal(s1_basis(), a)

    def test_rejects_odd_length(self):
        with pytest.raises(ValueError, match="length"):
            augment_with_normal(s1_basis(), [1.0, 0.0, 0.0])


class TestRandomSpherePoint:
    """Seeded random points of the sphere come from sample_sphere."""

    def test_unit_norm(self):
        for seed in range(10):
            p = sample_sphere(6, 3, seed)
            assert np.all(np.abs(np.linalg.norm(p, axis=1) - 1.0) <= 1e-12)

    def test_deterministic(self):
        assert np.array_equal(sample_sphere(4, 5, 123), sample_sphere(4, 5, 123))
        assert not np.array_equal(sample_sphere(4, 5, 123), sample_sphere(4, 5, 124))

    def test_rejects_odd_dim(self):
        for dim in (1, 3, 5):
            with pytest.raises(ValueError, match="even"):
                sample_sphere(dim, 1, 0)

    def test_rejects_non_integer_arguments(self):
        for dim, count, seed in ((4.0, 1, 0), (4, 2.5, 0), (4, True, 0), (4, 1, 1.5)):
            with pytest.raises(ValueError, match="must be integers"):
                sample_sphere(dim, count, seed)
        assert np.array_equal(sample_sphere(np.int64(4), np.int64(2), np.int64(7)),
                              sample_sphere(4, 2, 7))

    def test_rejects_negative_count(self):
        assert sample_sphere(4, 0, 0).shape == (0, 4)
        with pytest.raises(ValueError, match="^count must be nonnegative, got -1$"):
            sample_sphere(4, -1, 0)

    def test_coordinate_means_vanish(self):
        # central-limit sanity check on the sampler
        pts = sample_sphere(4, 10_000, seed=0)
        assert np.all(np.abs(pts.mean(axis=0)) < 0.05)


class TestProjectTangent:
    def test_projecting_the_point_gives_zero(self):
        a = np.array([1.0, 0.0, 0.0, 0.0])
        assert np.allclose(project_tangent(a, a), 0.0)

    def test_orthogonal_vector_unchanged(self):
        a = np.array([1.0, 0.0, 0.0, 0.0])
        e2 = np.array([0.0, 1.0, 0.0, 0.0])
        assert np.array_equal(project_tangent(a, e2), e2)

    def test_diagonal_point(self):
        a = np.zeros(4)
        a[0] = a[1] = 1 / np.sqrt(2)
        e1 = np.array([1.0, 0.0, 0.0, 0.0])
        assert np.allclose(project_tangent(a, e1), [0.5, -0.5, 0.0, 0.0])

    def test_idempotent(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            a = rng.standard_normal(6)
            a /= np.linalg.norm(a)
            x = rng.standard_normal(6)
            once = project_tangent(a, x)
            assert np.allclose(project_tangent(a, once), once, atol=1e-12)
            assert abs(once @ a) <= 1e-12 * np.linalg.norm(x)

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="mismatch"):
            project_tangent(np.array([1.0, 0.0]), np.array([1.0, 0.0, 0.0]))

    def test_rejects_off_sphere(self):
        for a in OFF_SPHERE:
            with pytest.raises(ValueError, match="expected a unit vector"):
                project_tangent(a, [1.0, 0.0, 0.0, 0.0])


class TestTangentBasis:
    def test_coordinate_point(self):
        basis = tangent_basis(np.array([1.0, 0.0, 0.0, 0.0]))
        assert np.allclose(basis, np.eye(4)[1:])

    def test_orthonormal_and_tangent(self):
        for seed in range(20):
            a = sample_sphere(8, 1, seed)[0]
            basis = tangent_basis(a)
            assert basis.shape == (7, 8)
            assert np.allclose(basis @ basis.T, np.eye(7), atol=1e-12)
            assert np.all(np.abs(basis @ a) <= 1e-12)

    def test_rejects_off_sphere(self):
        # at [1, 1, 0, 0] the rows would not be tangent: 0.707 against the unit point
        for a in OFF_SPHERE:
            with pytest.raises(ValueError, match="expected a unit vector"):
                tangent_basis(a)

    def test_near_axis_point_stays_stable(self):
        a = np.array([np.sqrt(1 - 3e-16), 1e-8, 1e-8, 1e-8])
        a /= np.linalg.norm(a)
        basis = tangent_basis(a)
        assert np.allclose(basis @ basis.T, np.eye(3), atol=1e-12)
