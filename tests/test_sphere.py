import random
import re
from fractions import Fraction

import numpy as np
import pytest

from movingframes import (augment_with_normal, check_tight, frame_operator, make_operator,
                          operator_images, project_tangent, reconstruct, s1_basis, s3_basis,
                          sample_sphere, tangency_defect, tangent_basis)
from movingframes.sphere import UNIT_POINT_TOL, unit_point

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

    def test_names_the_shape_of_a_point_that_is_not_one_vector(self):
        # a (2, 2) array has 4 entries, so its size read like the right length
        a = np.full((2, 2), 0.5)
        for check in (lambda: unit_point(a, 4), lambda: project_tangent(a, np.ones(4)),
                      lambda: tangent_basis(a)):
            with pytest.raises(ValueError, match=re.escape(
                    "expected one point of length 4, got shape (2, 2)")):
                check()
        with pytest.raises(ValueError, match=re.escape("point has length 3, expected 4")):
            unit_point([1.0, 0.0, 0.0], 4)


def not_numbers(length):
    """Vectors of ``length`` that np.asarray(x, dtype=float) would read as
    (1, 0, ..., 0): strings, bytes, bools, a bool among floats, and numpy
    arrays of strings and of bools."""
    rest = length - 1
    return [["1"] + ["0"] * rest, [b"1"] + [b"0"] * rest, [True] + [False] * rest,
            [1.0] + [0.0] * (rest - 1) + [False], [np.True_] + [0.0] * rest,
            np.array(["1"] + ["0"] * rest), np.array([True] + [False] * rest)]


E1 = [1.0, 0.0, 0.0, 0.0]


NOT_NUMBERS = "^entries must be real numbers, not strings, bytes, booleans, None or complex$"
READERS = pytest.mark.parametrize("call, length", [
    (lambda v: augment_with_normal(s3_basis(), v), 4),
    (lambda v: reconstruct(s3_basis(), v, [1.0, 0.0, 0.0]), 4),
    (lambda v: reconstruct(s3_basis(), E1, v), 3),
    (lambda v: tangency_defect(make_operator(4, (2, 1, 4, 3), (1, -1, 1, -1)), v), 4),
    (lambda v: make_operator(4, (2, 1, 4, 3), (1, -1, 1, -1))(v), 4),
    (lambda v: project_tangent(v, E1), 4),
    (lambda v: project_tangent(E1, v), 4),
    (lambda v: tangent_basis(v), 4),
    (lambda v: operator_images(s3_basis(), v), 4),
    (lambda v: frame_operator([v]), 4),
    (lambda v: check_tight([v]), 4),
], ids=["augment_with_normal", "reconstruct-point", "reconstruct-coefficients",
        "tangency_defect", "u(a)", "project_tangent-point", "project_tangent-vector", "tangent_basis",
        "operator_images", "frame_operator", "check_tight"])


@READERS
def test_no_vector_is_coerced(call, length):
    """Strings, bytes and bools are refused, not read as numbers; Fractions
    are numbers, which tangency_defect needs for its exact zeros."""
    for vector in not_numbers(length):
        with pytest.raises(ValueError, match=NOT_NUMBERS):
            call(vector)
    call([Fraction(1)] + [Fraction(0)] * (length - 1))


@READERS
def test_none_and_complex_entries_are_refused(call, length):
    """None, which np.asarray(x, dtype=float) reads as NaN, and complex
    entries, which it refuses with a TypeError among floats and reads as
    their real parts in a complex array, get the package's message."""
    rest = [0.0] * (length - 1)
    for vector in ([None] + rest, rest + [None], [1 + 0j] + rest, [np.complex64(1)] + rest,
                   np.array([1 + 0j] + rest)):
        with pytest.raises(ValueError, match=NOT_NUMBERS):
            call(vector)


RAGGED = [[1.0], [2.0, 3.0], [4.0], [5.0]]


@pytest.mark.parametrize("call", [
    lambda: reconstruct(s3_basis(), E1, [[1.0], [2.0, 3.0], [4.0]]),
    lambda: operator_images(s3_basis(), RAGGED),
    lambda: check_tight(RAGGED),
    lambda: project_tangent(E1, RAGGED),
    lambda: tangent_basis(RAGGED),
], ids=["reconstruct", "operator_images", "check_tight", "project_tangent", "tangent_basis"])
def test_a_ragged_sequence_gets_the_package_message(call):
    """Every vector of numbers is read by sphere._as_floats, which names a
    ragged sequence as u(a) does, not with numpy's "setting an array element
    with a sequence"."""
    with pytest.raises(ValueError, match="^expected an array of numbers, got a ragged sequence$"):
        call()


def norm_cases():
    """Vectors whose np.linalg.norm lies at, just inside and just outside
    1 +- UNIT_POINT_TOL, or is NaN, infinite, overflowed or underflowed, and
    a strided one."""
    cases = []
    for edge in (1.0 - UNIT_POINT_TOL, 1.0 + UNIT_POINT_TOL):
        for steps in range(-3, 4):
            x = edge
            for _ in range(abs(steps)):
                x = np.nextafter(x, np.inf if steps > 0 else -np.inf)
            cases += [np.array([x, 0.0, 0.0, 0.0]), np.array([0.6 * x, 0.0, 0.8 * x, 0.0])]
    cases += [np.array(v) for v in ([np.nan, 0.0, 0.0, 0.0], [np.inf, 0.0, 0.0, 0.0],
                                    [0.0, -np.inf, 0.0, 0.0], [np.inf, -np.inf, 0.0, 0.0],
                                    [1e200, 0.0, 0.0, 0.0], [1e200] * 4, [1e-200] * 4,
                                    [1.0, 1e-200, 0.0, 0.0], [0.5] * 4, [0.6, 0.8, 0.0, 0.0])]
    cases.append(np.random.default_rng(4).standard_normal((4, 3))[:, 1])
    cases.append(cases[-1] / np.linalg.norm(cases[-1]))
    return cases


@pytest.mark.parametrize("a", norm_cases(), ids=repr)
def test_unit_point_decides_as_the_norm_of_numpy(a):
    """unit_point forms sqrt(a.a), the product np.linalg.norm forms for a
    vector, so it accepts and refuses at the same points, with the same message.
    Both warn alike where a.a overflows."""
    with np.errstate(over="ignore"):
        norm = np.linalg.norm(a)
        if abs(norm - 1.0) <= UNIT_POINT_TOL:
            assert unit_point(a, 4) is a
        else:
            with pytest.raises(ValueError) as exc:
                unit_point(a, 4)
            assert str(exc.value) == f"expected a unit vector, got norm {norm}"


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

    def test_rejects_negative_seed(self):
        # random.Random would silently take |seed|, so -7 would repeat seed 7
        with pytest.raises(ValueError, match="^seed must be nonnegative, got -7$"):
            sample_sphere(4, 2, -7)

    def test_stream_is_pinned(self):
        # the points every fixed-seed report is computed at; a changed stream
        # moves them by O(1), while the platform's cos and log may move the
        # last bits
        pinned = {(4, 2, 7): [
            [0.8965817631723637, -0.3864366960278188, 0.11789622249393328, 0.18140645697300714],
            [0.5837012077924486, -0.21455553882278044, -0.0728218815083333, 0.7797152007981436]],
            (2, 1, 0): [[0.7714892434111882, -0.6362423652200727]]}
        for args, points in pinned.items():
            assert np.allclose(sample_sphere(*args), points, rtol=0, atol=1e-14)

    def test_draws_in_bounded_slices(self, monkeypatch):
        # randbytes(n) is getrandbits(8 * n), which takes a C int before
        # Python 3.13: one draw for all of --samples 2000000 in R^20 would
        # raise OverflowError, so every draw is capped at 2^16 pairs
        sizes, draw = [], random.Random.randbytes
        monkeypatch.setattr(random.Random, "randbytes",
                            lambda self, n: sizes.append(n) or draw(self, n))
        points = sample_sphere(4, 2 ** 16 + 1, 5)
        assert sizes == [2 ** 20, 2 ** 20, 32]  # 16 bytes per pair
        assert np.allclose(np.linalg.norm(points, axis=1), 1.0, rtol=0, atol=1e-12)
        # a count that fits one draw gives the first slice of a longer stream
        first = sample_sphere(4, 2 ** 15, 5)
        assert np.array_equal(points[:2 ** 15], first)
        assert not np.allclose(points[2 ** 15:2 ** 16], first)

    def test_coordinate_means_vanish(self):
        # central-limit sanity check on the sampler
        pts = sample_sphere(4, 10_000, seed=0)
        assert np.all(np.abs(pts.mean(axis=0)) < 0.05)

    @pytest.mark.parametrize("dim", [2, 4, 6, 10])
    def test_coordinate_mean_squares_are_one_over_dim(self, dim):
        # a uniform point of the sphere has E[x_i^2] = 1/dim for every i
        pts = sample_sphere(dim, 10_000, seed=0)
        assert np.all(np.abs((pts ** 2).mean(axis=0) - 1 / dim) <= 0.01)


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

    def test_names_the_shape_of_a_vector_that_is_not_one_vector(self):
        a = np.array([1.0, 0.0, 0.0, 0.0])
        for x, message in ((np.ones((1, 4)), "expected one vector of length 4, got shape (1, 4)"),
                           (np.ones((2, 2)), "expected one vector of length 4, got shape (2, 2)"),
                           (np.ones(3), "length mismatch: point has 4, vector has 3")):
            with pytest.raises(ValueError, match=re.escape(message)):
                project_tangent(a, x)

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
