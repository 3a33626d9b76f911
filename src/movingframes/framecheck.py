"""Numerical frame verification for operator-set vector fields.

The tangent images of a balanced operator set form a unit tight frame of
every tangent space.  Tightness of a subspace frame is tested by adjoining
a scaled copy of the normal vector and checking that the augmented system
is tight for the whole ambient space; the expected frame constant of the
augmented system is #A/(2n-1).  :func:`verify_moving_funtf` evaluates it, in
blocks of points, from an exact integer Gram matrix of the signs per pairing
of at least d members plus the image rows of the rest, and re-checks the
worst point directly.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from fractions import Fraction
from math import sqrt

import numpy as np

from .balance import BalanceReport
from .operators import OperatorSet
from .sphere import UNIT_POINT_TOL, check_draw, is_integer, sample_sphere, unit_point

DEFAULT_TIGHTNESS_TOL = 1e-9
DEFAULT_NUM_SAMPLES = 100


@dataclass
class FrameReport:
    """Verdict of a tightness check, with the worst deviation found."""

    tight: bool
    frame_constant: float
    max_offdiag: float
    max_diag_dev: float
    points_checked: int
    worst_point: np.ndarray | None = None
    theoretical_constant: float | None = None

    def to_dict(self) -> dict:
        return {
            "tight": self.tight,
            "frame_constant": self.frame_constant,
            "theoretical_constant": self.theoretical_constant,
            "max_offdiag": self.max_offdiag,
            "max_diag_dev": self.max_diag_dev,
            "points_checked": self.points_checked,
            "worst_point": None if self.worst_point is None else list(self.worst_point),
        }


@dataclass
class UnbalancedWitness:
    """A sphere point and coordinate pair at which tightness provably fails.

    ``defect`` is the exact rational value of the offending entry of the
    augmented frame operator at ``point``.
    """

    point: np.ndarray
    probe_pair: tuple[int, int]
    defect: Fraction

    def to_dict(self) -> dict:
        return {
            "point": list(self.point),
            "probe_pair": list(self.probe_pair),
            "defect": str(self.defect),
            "defect_float": float(self.defect),
        }


def operator_images(a_set: OperatorSet, a) -> np.ndarray:
    """U(a) over the set: shape (#A, dim) for one point, (P, #A, dim) for P points.

    ``a`` is one point of shape (dim,) or a batch (P, dim); U(a)_i = -S_i * a[K_i].
    """
    av = np.asarray(a, dtype=float)
    if av.ndim not in (1, 2) or av.shape[-1] != a_set.dim:
        raise ValueError(f"expected points of length {a_set.dim}, got shape {av.shape}")
    k, sign = a_set.index_arrays
    return sign * np.negative(av)[..., k]


def frame_operator(vectors) -> np.ndarray:
    """Sum of outer products f_i f_i^T, as a symmetric matrix."""
    v = np.asarray(vectors, dtype=float)
    if v.ndim != 2 or 0 in v.shape:
        raise ValueError("expected a nonempty list of vectors of common length")
    return v.T @ v


def probe_points(dim: int) -> np.ndarray:
    """The deterministic probe points (e_p + e_q)/sqrt(2) for all p < q.

    Tightness failures of unbalanced sets always show up at one of these.
    """
    rows, cols = np.triu_indices(dim, 1)
    points = np.zeros((len(rows), dim))
    points[np.arange(len(rows)), rows] = points[np.arange(len(rows)), cols] = 1 / sqrt(2)
    return points


def _check_tolerance(tolerance: float) -> None:
    if not 0 <= tolerance < float("inf"):  # NaN fails both comparisons
        raise ValueError(f"tolerance must be finite and >= 0, got {tolerance!r}")


def check_tight(vectors, tolerance: float = DEFAULT_TIGHTNESS_TOL,
                expected_constant: float | None = None) -> FrameReport:
    """Test whether a vector system is a tight frame for its ambient space.

    The measured constant is the mean diagonal of the frame operator; the
    deviation is taken against ``expected_constant`` when given, else against
    the measured one.  For unit-norm systems the constant is cross-checked
    against k/m, which any genuine unit tight frame must match.  The
    tolerance must be finite and nonnegative.
    """
    _check_tolerance(tolerance)
    s = frame_operator(vectors)
    v = np.asarray(vectors, dtype=float)
    k, m = v.shape
    unit = expected_constant is None and np.all(
        np.abs(np.linalg.norm(v, axis=1) - 1.0) <= UNIT_POINT_TOL)
    theoretical = k / m if unit else expected_constant
    diagonal = np.diagonal(s)
    measured = float(diagonal.sum() / m)
    reference = measured if expected_constant is None else expected_constant
    off = np.abs(s)
    np.fill_diagonal(off, 0.0)
    max_offdiag, max_diag_dev = float(off.max()), float(np.abs(diagonal - reference).max())
    if unit:  # so every entry is finite
        max_diag_dev = max(max_diag_dev, abs(measured - theoretical))
    tight = reference > 0 and max_offdiag <= tolerance and max_diag_dev <= tolerance
    return FrameReport(tight, measured, max_offdiag, max_diag_dev, points_checked=1,
                       theoretical_constant=None if theoretical is None else float(theoretical))


def _frame_constant(a_set: OperatorSet) -> float:
    """C = #A/(2n-1): #A unit vectors of a tight frame of the (2n-1)-dimensional tangent space."""
    return len(a_set) / (a_set.dim - 1)


def augment_with_normal(a_set: OperatorSet, a) -> np.ndarray:
    """The scaled normal sqrt(#A/(2n-1)) * a followed by the images U(a)."""
    av = unit_point(a, a_set.dim)
    return np.vstack([sqrt(_frame_constant(a_set)) * av, operator_images(a_set, av)])


@lru_cache(maxsize=16)
def _points(dim: int, num_samples: int, seed: int) -> np.ndarray:
    """The probe points, then ``sample_sphere(dim, num_samples, seed)``; read-only, as shared."""
    points = np.vstack([probe_points(dim), sample_sphere(dim, num_samples, seed)])
    points.flags.writeable = False
    return points


def verify_moving_funtf(a_set: OperatorSet, num_samples: int = DEFAULT_NUM_SAMPLES,
                        seed: int = 0,
                        tolerance: float = DEFAULT_TIGHTNESS_TOL) -> FrameReport:
    """Certify tightness of the tangent images over sampled sphere points.

    Checks S(a) = C*a*a^T + sum_U U(a)U(a)^T, C = #A/(2n-1), against C*I at
    every probe point (e_p + e_q)/sqrt(2) plus ``num_samples`` seeded random
    points, drawn once per (dimension, num_samples, seed).  Members sharing a
    pairing pi differ only in signs, so they add W_pi o (a[pi] a[pi]^T), W_pi
    the exact integer Gram matrix of their sign rows.  A pairing of m >= d
    members gets its W_pi, d*d floats against the m*d of their images per
    point; the others keep their image rows (Theorem 3.4 sets have 2^(n-1)
    members per pairing, most random subsets of small full sets fewer than d).
    Points are judged a block at a time, with one batched product for S, one
    for the W_pi terms and one max |S - C*I|, the block sized to about 2^14
    floats of image rows and W_pi coordinates.  The report is that of the
    first point of largest deviation; its verdict also needs max |S - C*I| <=
    tolerance for S built there from every member's image row.
    """
    if not is_integer(num_samples) or num_samples < 1:
        raise ValueError(f"num_samples must be an integer of at least 1, got {num_samples!r}")
    _check_tolerance(tolerance)
    d, expected = a_set.dim, _frame_constant(a_set)
    check_draw(d, num_samples, seed)  # before the cache, to which True and 1.0 are the key 1
    points = _points(d, num_samples, seed)
    k_all, sign_all = k, sign = a_set.index_arrays
    w = k_heavy = np.empty((0, d, d))
    if len(k) >= d:  # else no pairing has d members
        narrow = k.astype(np.min_scalar_type(d - 1))  # the same grouping, sorted several times faster
        rows = narrow.view(np.dtype((np.void, narrow.itemsize * d))).ravel()
        _, first, group, count = np.unique(rows, return_index=True, return_inverse=True,
                                           return_counts=True)
        heavy = np.flatnonzero(count >= d)
        heavy = heavy[np.argsort(first[heavy])]  # pairings in order of first appearance
        w, k_heavy = np.empty((len(heavy), d, d)), k[first[heavy]]
        if len(heavy):
            members, stops = np.argsort(group, kind="stable"), np.cumsum(count)
            for j, g in enumerate(heavy.tolist()):
                signs = sign[members[stops[g] - count[g]:stops[g]]].astype(float)
                w[j] = signs.T @ signs  # sums of +-1 terms, exact far below 2^53
            k, sign = k[count[group] < d], sign[count[group] < d]

    # points go in blocks of about 2^14 floats of what grows with the set: the
    # scaled normal and image rows, and the heavy pairings' coordinates
    block = max(1, 2 ** 14 // ((len(k) + 1 + len(w)) * d))
    v = np.empty((min(block, len(points)), len(k) + 1, d))  # the scaled normal, then images
    target = expected * np.eye(d)
    worst_dev, worst = -1.0, 0
    for start in range(0, len(points), block):
        a = points[start:start + block]
        vb = v[:len(a)]
        np.multiply(sqrt(expected), a, out=vb[:, 0])
        np.multiply(sign, np.negative(a)[:, k], out=vb[:, 1:])
        s = np.matmul(vb.transpose(0, 2, 1), vb)
        if len(w):
            a_heavy = a[:, k_heavy]
            s += np.einsum("prs,xpr,xps->xrs", w, a_heavy, a_heavy)
        deviation = np.abs(s - target).max(axis=(1, 2))  # NaN stays NaN, so it fails below
        j = int(np.argmax(deviation))  # the first point of largest deviation, or the first NaN,
        if worst_dev == worst_dev and not deviation[j] <= worst_dev:  # in the block and overall
            worst_dev, worst, worst_s = deviation[j], start + j, s[j].copy()

    point = points[worst].copy()
    direct = np.vstack([sqrt(expected) * point, sign_all * np.negative(point)[k_all]])
    tight = worst_dev <= tolerance and np.abs(direct.T @ direct - target).max() <= tolerance
    diagonal, off = np.diagonal(worst_s), np.abs(worst_s)
    np.fill_diagonal(off, 0.0)
    return FrameReport(bool(tight), float(diagonal.sum() / d), float(off.max()),
                       float(np.abs(diagonal - expected).max()), len(points), point, expected)


def reconstruct(a_set: OperatorSet, a, coefficients) -> np.ndarray:
    """Resynthesize (1/C) * sum_U c_U U(a) from frame coefficients; C = #A/(2n-1)."""
    a = unit_point(a, a_set.dim)
    coeffs = np.asarray(coefficients, dtype=float)
    if coeffs.shape != (len(a_set),):
        raise ValueError(f"expected one vector of {len(a_set)} coefficients, got shape {coeffs.shape}")
    return coeffs @ operator_images(a_set, a) / _frame_constant(a_set)


def witness_unbalanced(a_set: OperatorSet, report: BalanceReport) -> UnbalancedWitness:
    """Turn the lexicographically smallest failing slice into a concrete witness.

    A condition-i failure at (p, q) makes the (p, q) entry of the augmented
    frame operator at (e_p + e_q)/sqrt(2) equal (#A/(2n-1) - #A_{p,q})/2; a
    condition-ii failure at (p, q, r, s) makes the (r, s) entry equal
    (#A_{+1} - #A_{-1})/2.
    """
    if report.balanced:
        raise ValueError("witness requested for a balanced set")
    d = a_set.dim
    if report.condition_i_failures:
        p, q, observed, required = min(report.condition_i_failures)
        probe = (p, q)
        defect = (required - observed) / 2
    else:
        p, q, r, s, plus, minus = min(report.condition_ii_failures)
        probe = (r, s)
        defect = Fraction(plus - minus, 2)
    point = np.zeros(d)
    point[p - 1] = point[q - 1] = 1 / sqrt(2)
    return UnbalancedWitness(point=point, probe_pair=probe, defect=defect)


def witness_cross_term(a_set: OperatorSet, witness: UnbalancedWitness) -> float:
    """The frame-operator entry the witness predicts, C*a_r*a_c + sum_U U(a)_r*U(a)_c, at its point."""
    a = unit_point(witness.point, a_set.dim)
    images = operator_images(a_set, a)
    r, c = witness.probe_pair[0] - 1, witness.probe_pair[1] - 1
    return float(_frame_constant(a_set) * a[r] * a[c] + images[:, r] @ images[:, c])
