"""Numerical frame verification for operator-set vector fields.

The tangent images of a balanced operator set form a unit tight frame of
every tangent space.  Tightness of a subspace frame is tested by adjoining
a scaled copy of the normal vector and checking that the augmented system
is tight for the whole ambient space; the expected frame constant of the
augmented system is #A/(2n-1).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import sqrt

import numpy as np

from .balance import BalanceReport
from .operators import OperatorSet
from .sphere import UNIT_POINT_TOL, sample_sphere

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

    ``a`` is one point of shape (dim,) or a batch of shape (P, dim).
    """
    av = np.asarray(a, dtype=float)
    if av.ndim not in (1, 2) or av.shape[-1] != a_set.dim:
        raise ValueError(f"expected points of length {a_set.dim}, got shape {av.shape}")
    k, e = a_set.index_arrays
    return e * av[..., k]


def frame_operator(vectors) -> np.ndarray:
    """Sum of outer products f_i f_i^T, as a symmetric matrix."""
    v = np.asarray(vectors, dtype=float)
    if v.ndim != 2 or v.shape[0] == 0:
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


def check_tight(vectors, tolerance: float = DEFAULT_TIGHTNESS_TOL,
                expected_constant: float | None = None) -> FrameReport:
    """Test whether a vector system is a tight frame for its ambient space.

    The measured constant is the mean diagonal of the frame operator; the
    deviation is taken against ``expected_constant`` when given, else against
    the measured one.  For unit-norm systems the constant is cross-checked
    against k/m, which any genuine unit tight frame must match.
    """
    s = frame_operator(vectors)
    v = np.asarray(vectors, dtype=float)
    k, m = v.shape
    measured = float(np.trace(s) / m)
    reference = measured if expected_constant is None else float(expected_constant)

    off = s - np.diag(np.diagonal(s))
    max_offdiag = float(np.max(np.abs(off))) if m > 1 else 0.0
    max_diag_dev = float(np.max(np.abs(np.diagonal(s) - reference)))

    theoretical = expected_constant
    if theoretical is None and np.all(np.abs(np.linalg.norm(v, axis=1) - 1.0) <= UNIT_POINT_TOL):
        theoretical = k / m
        max_diag_dev = max(max_diag_dev, abs(measured - theoretical))

    tight = reference > 0 and max(max_offdiag, max_diag_dev) <= tolerance
    return FrameReport(
        tight=tight,
        frame_constant=measured,
        max_offdiag=max_offdiag,
        max_diag_dev=max_diag_dev,
        points_checked=1,
        theoretical_constant=None if theoretical is None else float(theoretical),
    )


def augment_with_normal(a_set: OperatorSet, a) -> np.ndarray:
    """The scaled normal sqrt(#A/(2n-1)) * a followed by the images U(a)."""
    av = np.asarray(a, dtype=float)
    if av.size != a_set.dim:
        raise ValueError(f"point has length {av.size}, expected {a_set.dim}")
    if abs(np.linalg.norm(av) - 1.0) > UNIT_POINT_TOL:
        raise ValueError(f"expected a unit vector, got norm {np.linalg.norm(av)}")
    scale = sqrt(len(a_set) / (a_set.dim - 1))
    return np.vstack([scale * av, operator_images(a_set, av)])


def verify_moving_funtf(a_set: OperatorSet, num_samples: int = DEFAULT_NUM_SAMPLES,
                        seed: int = 0,
                        tolerance: float = DEFAULT_TIGHTNESS_TOL) -> FrameReport:
    """Certify tightness of the tangent images over sampled sphere points.

    Checks the augmented system at every probe point (e_p + e_q)/sqrt(2)
    plus ``num_samples`` seeded random points, against the theoretical
    constant #A/(2n-1).  Each point's verdict comes from :func:`check_tight`;
    the report is that of the point with the largest deviation (the first
    such point on ties), with the verdict over all points.
    """
    if len(a_set) == 0:
        raise ValueError("cannot verify an empty operator set")
    if num_samples < 1:
        raise ValueError(f"num_samples must be at least 1, got {num_samples}")
    d = a_set.dim
    expected = len(a_set) / (d - 1)
    points = np.vstack([probe_points(d), sample_sphere(d, num_samples, seed)])

    tight = True
    worst_dev = -1.0
    worst = None
    for a in points:
        report = check_tight(augment_with_normal(a_set, a), tolerance, expected_constant=expected)
        tight = tight and report.tight
        dev = max(report.max_offdiag, report.max_diag_dev)
        if dev > worst_dev:
            worst_dev, worst = dev, report
            worst.worst_point = a

    worst.tight = tight
    worst.points_checked = len(points)
    return worst


def reconstruct(a_set: OperatorSet, a, coefficients, constant: float) -> np.ndarray:
    """Resynthesize (1/C) * sum_U c_U U(a) from frame coefficients."""
    coeffs = np.asarray(coefficients, dtype=float)
    if coeffs.size != len(a_set):
        raise ValueError(f"got {coeffs.size} coefficients for {len(a_set)} operators")
    if constant <= 0:
        raise ValueError(f"frame constant must be positive, got {constant}")
    return coeffs @ operator_images(a_set, a) / constant


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
    """Numerically evaluate the frame-operator entry the witness predicts."""
    s = frame_operator(augment_with_normal(a_set, witness.point))
    r, c = witness.probe_pair
    return float(s[r - 1, c - 1])
