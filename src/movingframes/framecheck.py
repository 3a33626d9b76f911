"""Numerical frame verification for operator-set vector fields.

The tangent images of a balanced operator set form a unit tight frame of
every tangent space.  Tightness of a subspace frame is tested by adjoining
a scaled copy of the normal vector and checking that the augmented system
is tight for the whole ambient space; the expected frame constant of the
augmented system is #A/(2n-1).  :func:`verify_moving_funtf` decides it from
the exact integer coefficients D of a quadratic form, S(a) - C*|a|^2*I,
which vanish exactly when the set is balanced: its verdict is read from the
set's one decode of the balance slice tables, and the row blocks of D are
written from that decode.  The float deviations at sampled points,
and a direct re-check at the worst of them, cross-check that verdict.  Sets
for which D costs more are first evaluated from their image rows.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from fractions import Fraction
from math import sqrt

import numpy as np

from .balance import BalanceReport, _decoded, _layout
from .operators import OperatorSet
from .sphere import UNIT_POINT_TOL, _as_floats, check_draw, is_integer, sample_sphere, unit_point

DEFAULT_TIGHTNESS_TOL = 1e-9
DEFAULT_NUM_SAMPLES = 100

# Working sizes of verify_moving_funtf, in floats: a block of points' monomials
# through D, and on the row route of their image rows V and of their S each;
# and a row block of D (4 MB).
_BLOCK = 2 ** 17
_FORM = 2 ** 19

# Where F pays, as timed (see :func:`_route`): up to d = _SMALL always, above
# it where E^2 <= _DENSE (#A + 1) d^2.
_SMALL = 14
_DENSE = 2


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
    av = _as_floats(a)
    if av.ndim not in (1, 2) or av.shape[-1] != a_set.dim:
        raise ValueError(f"expected points of length {a_set.dim}, got shape {av.shape}")
    k, sign = a_set.index_arrays
    return sign * np.negative(av)[..., k]


def frame_operator(vectors) -> np.ndarray:
    """Sum of outer products f_i f_i^T, as a symmetric matrix."""
    v = _as_floats(vectors)
    if v.ndim != 2 or 0 in v.shape:
        raise ValueError("expected a nonempty list of vectors of common length")
    return v.T @ v


def probe_points(dim: int) -> np.ndarray:
    """The deterministic probe points (e_p + e_q)/sqrt(2) for all p < q.

    Tightness failures of unbalanced sets always show up at one of these.
    ``dim`` follows :func:`sample_sphere`'s rule: an even integer of at least 2.
    """
    if not is_integer(dim) or dim < 2 or dim % 2 != 0:
        raise ValueError(f"dim must be an even integer of at least 2, got {dim!r}")
    rows, cols = np.triu_indices(dim, 1)
    points = np.zeros((len(rows), dim))
    points[np.arange(len(rows)), rows] = points[np.arange(len(rows)), cols] = 1 / sqrt(2)
    return points


def _check_tolerance(value, name: str = "tolerance") -> None:
    """The rule for a tolerance and an expected frame constant: a finite,
    nonnegative int, float, Fraction or numpy integer or float, not a bool."""
    real = isinstance(value, (int, float, Fraction, np.integer, np.floating))
    if not (real and not isinstance(value, bool) and 0 <= value < float("inf")):  # NaN fails both
        raise ValueError(f"{name} must be a finite real number >= 0, got {value!r}")


def check_tight(vectors, tolerance: float = DEFAULT_TIGHTNESS_TOL,
                expected_constant: float | None = None) -> FrameReport:
    """Test whether a vector system is a tight frame for its ambient space.

    The measured constant is the mean diagonal of the frame operator; the
    deviation is taken against ``expected_constant`` when given, else against
    the measured one.  For unit-norm systems the constant is cross-checked
    against k/m, which any genuine unit tight frame must match.  The
    tolerance and a given expected constant must be finite nonnegative reals.
    """
    _check_tolerance(tolerance)
    if expected_constant is not None:
        _check_tolerance(expected_constant, "expected_constant")
    v = _as_floats(vectors)
    s = frame_operator(v)
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


def _blocks(total: int, most: int) -> list[tuple[int, int]]:
    """range(total) cut into the fewest slices of at most ``most``, of near-equal
    lengths, so no block is left with a sliver of one or two points."""
    if total <= most:
        return [(0, total)]
    count = -(-total // most)
    bounds = [total * j // count for j in range(count + 1)]
    return list(zip(bounds[:-1], bounds[1:]))


@lru_cache(maxsize=16)
def _points(dim: int, num_samples: int, seed: int) -> tuple[np.ndarray, np.ndarray, list]:
    """The probe points, then ``sample_sphere(dim, num_samples, seed)``, |a|^2 - 1
    at each, and a list that keeps the monomials of their first block once
    formed (:func:`_monomials`); read-only, as shared."""
    points = np.vstack([probe_points(dim), sample_sphere(dim, num_samples, seed)])
    errors = np.square(points).sum(axis=1) - 1.0
    points.flags.writeable = errors.flags.writeable = False
    return points, errors, []


def _monomials(draw: tuple, lo: int, hi: int) -> np.ndarray:
    """The monomials a_p*a_q of points lo..hi of a draw of :func:`_points`,
    E x (hi - lo) in the order of :func:`balance._layout`.  Those of the first
    block, at most _BLOCK floats, are formed on first use and kept in the draw,
    read-only; later blocks are formed on each use."""
    points, _, kept = draw
    if lo == 0 and kept:
        return kept[0]
    rows, cols = _layout(points.shape[1])[1]
    a = points[lo:hi].T
    monomials = a.take(rows, axis=0) * a.take(cols, axis=0)
    if lo == 0 and not kept:
        monomials.flags.writeable = False
        kept.append(monomials)
    return monomials


def _route(a_set: OperatorSet) -> bool:
    """Whether F pays for this set.

    Timed on random sets of d = 10 to 64 (one BLAS thread of a shared
    2-vCPU machine, against the rows of :func:`_row_deviations`): up to
    d = 14, F was faster for every member count tried.  Above, F costs E^2
    products per point and the rows (#A + 1) d^2, for the members and the
    normal.  Against rows in blocks of 2^14 floats of V they took equal time
    at about E^2 = 3 (#A + 1) d^2, so F is taken where E^2 <= 2 (#A + 1) d^2.
    Re-timed in October 2026 against rows in blocks of _BLOCK floats of V and
    of S (unbalanced sets of d = 16 to 64, best of 5), the point is about 1.7
    from d = 32 and 3 to 4 at d = 16 and 24, so near the bound F may take up
    to 1.2 times the rows' time.  The bound stays: the routes round
    differently, and moving it moves the reports of the sets it crosses.
    """
    d = a_set.dim
    size = d * (d + 1) // 2
    return d <= _SMALL or size * size <= _DENSE * (len(a_set) + 1) * d * d


def _defect_rows(a_set: OperatorSet):
    """Yield (split, (d-1)*D[first:stop]) over row blocks of at most _FORM
    floats, in order, ``split`` the block's rows of diagonal entries.  D holds
    the E x E integer coefficients of S(a) - C*|a|^2*I, entries and monomials
    numbered as in :func:`balance._layout`, and is 0 exactly when the set is
    balanced.  As U(a)_r = -S[r]*a[K[r]], a member adds S[r]*S[s] at the
    monomial {K[r], K[s]} of entry (r, s), so (d-1)*D is written from the
    decode.  From its pair counts: at a_p^2 of entry (r, r),
    (d-1)*#A_{r,p} - #A (0 at p = r), and at the own monomial a_r*a_s of entry
    (r, s), #A - (d-1)*#A_{r,s}; each entry's own monomial is on D's diagonal.
    At the other monomials of (r, s), (d-1)*(count_plus - count_minus) of each
    decoded sign slice of column (r, s), put at its code, as the codes C*c + g
    number the pair rows' pair monomials D[d:, d:] row by row.  These integers
    are at most d*#A in magnitude, so float64 holds them exactly.  A D of one
    block, as every set up to d = 36 has, takes the codes as they are."""
    _, codes, slices, counts = _decoded(a_set)
    d, size = a_set.dim, len(a_set)
    pair_id = _layout(d)[4]
    entries = d * (d + 1) // 2
    columns = entries - d
    defects = counts * float(d - 1) - size  # at a_p^2 of (r, r), p != r
    change = slices.dot((1 - d, d - 1))  # (d-1)*(count_plus - count_minus)
    for first, stop in _blocks(entries, max(1, _FORM // entries)):
        form = np.zeros((stop - first, entries))
        split = max(0, min(d, stop) - first)  # rows of diagonal entries, then of pairs low, low + 1, ...
        defects.take(pair_id[first:stop], out=form[:split, :d], mode="wrap")  # (r, r) set below
        low = first + split - d
        if stop - first == entries:  # one block: the codes as they are
            form[d:, d:].put(codes, change)
        else:
            lo, hi = codes.searchsorted((columns * low, columns * (stop - d)))
            form[split:, d:].put(codes[lo:hi] - columns * low, change[lo:hi])
        own = form.reshape(-1)[first::entries + 1]  # (e, e) for e = first, first + 1, ...
        own[:split] = 0.0  # at a_r^2 of (r, r)
        np.negative(defects[low:stop - d], out=own[split:])  # #A - (d-1)*#A_{r,s} at a_r*a_s of (r, s)
        yield split, form


def _form_deviations(a_set: OperatorSet, draw: tuple) -> tuple[int, float, float]:
    """The first point of largest deviation, with its largest off-diagonal
    |S_rs| and largest |S_rr - C*|a|^2|, both times d - 1: every row block of
    :func:`_defect_rows` times the monomials of each block of about _BLOCK
    floats (:func:`_monomials`), one matmul each.  Entries go down the rows,
    so each point's reductions run along the fast axis."""
    d = a_set.dim
    blocks = _blocks(len(draw[0]), max(1, _BLOCK // (d * (d + 1) // 2)))
    deviations = None
    for split, form in _defect_rows(a_set):
        largest = np.empty((2, len(draw[0])))  # per point: the diagonal's, then the other entries'
        for lo, hi in blocks:
            s = form @ _monomials(draw, lo, hi)
            np.abs(s, out=s)
            np.maximum.reduce(s[:split], axis=0, initial=0.0, out=largest[0, lo:hi])
            np.maximum.reduce(s[split:], axis=0, initial=0.0, out=largest[1, lo:hi])
        deviations = largest if deviations is None else np.maximum(deviations, largest, out=deviations)
    worst = int(np.maximum(deviations[0], deviations[1]).argmax())
    diag, off = deviations[:, worst].tolist()
    return worst, off, diag


def _row_deviations(a_set: OperatorSet, points: np.ndarray, expected: float) -> np.ndarray:
    """Per point: the sum of the diagonal of S, the largest off-diagonal
    |S_rs| and the largest |S_rr - C|, with S = V^T V for V the scaled
    normal and every member's image row in set order, one batched matmul per
    block of points whose V and S each take at most about _BLOCK floats."""
    d = a_set.dim
    k, sign = a_set.index_arrays
    total, off, diag = deviations = np.empty((3, len(points)))
    blocks = _blocks(len(points), max(1, _BLOCK // max((len(k) + 1) * d, d * d)))
    v = np.empty((max(hi - lo for lo, hi in blocks), len(k) + 1, d))  # the normal, then the images
    for lo, hi in blocks:
        a, vb = points[lo:hi], v[:hi - lo]
        np.multiply(sqrt(expected), a, out=vb[:, 0])
        np.multiply(sign, np.negative(a)[:, k], out=vb[:, 1:])
        s = np.matmul(vb.transpose(0, 2, 1), vb).reshape(hi - lo, -1)
        diagonal = s[:, ::d + 1]
        total[lo:hi] = diagonal.sum(axis=1)
        diag[lo:hi] = np.abs(diagonal - expected).max(axis=1)  # NaN stays NaN, as above
        diagonal[...] = 0.0
        off[lo:hi] = np.abs(s, out=s).max(axis=1)
    return deviations


def _direct_deviation(a_set: OperatorSet, point: np.ndarray, expected: float) -> float:
    """max |S - C*I| for S built at ``point`` from the scaled normal and every member's image row.
    The rows are formed as S*a[K] = -U(a), whose minus signs cancel in S."""
    k, sign = a_set.index_arrays
    images = sign * point[k]
    direct = np.multiply.outer(point, point)
    direct *= expected
    direct += images.T @ images
    direct.ravel()[::a_set.dim + 1] -= expected
    return float(np.maximum.reduce(np.abs(direct, out=direct), axis=None))


def verify_moving_funtf(a_set: OperatorSet, num_samples: int = DEFAULT_NUM_SAMPLES,
                        seed: int = 0,
                        tolerance: float = DEFAULT_TIGHTNESS_TOL) -> FrameReport:
    """Certify tightness of the tangent images: exactly, with a float cross-check.

    S(a) = C*a*a^T + sum_U U(a)U(a)^T, C = #A/(2n-1), is C*I on the whole
    sphere exactly when the integer coefficients D of :func:`_defect_rows`
    vanish, that is when the set's one decode (:func:`balance._decoded`) finds
    it balanced.  The set is tight when D = 0, the largest deviation |S - C*I|
    over the probe points (e_p + e_q)/sqrt(2) and ``num_samples`` seeded
    random points (drawn once per dimension, num_samples and seed) is at most
    ``tolerance * max(1, C)``, as rounding grows with C, and so is max |S - C*I|
    for S built at the worst of them from every member's image row.  Each part
    is evaluated only while the verdict is open, so no tolerance passes a set
    with D != 0.

    On F's route a set with D = 0 evaluates no point: S(a) = C*|a|^2*I, so
    its off-diagonal deviation is exactly 0.0 and its worst point the first
    at which ||a|^2 - 1| is largest.  Any other set is refused by D, and its
    deviations come from the row blocks of D times the monomials of the
    points, the first block of which the draw keeps (:func:`_form_deviations`).
    Where F would cost more (:func:`_route`), the image rows give the
    deviations (:func:`_row_deviations`), and D = 0 is asked last.  The
    report is that of the first point of largest deviation (or the first
    NaN); its frame constant is the mean diagonal of S there, C*|a|^2 on F's
    route, as trace S(a) = d*C*|a|^2 for every set.
    """
    if not is_integer(num_samples) or num_samples < 1:
        raise ValueError(f"num_samples must be an integer of at least 1, got {num_samples!r}")
    _check_tolerance(tolerance)
    d, expected = a_set.dim, _frame_constant(a_set)
    # checked before the cache, to which True and 1.0 are the key 1, and passed on as ints
    points, errors, _ = draw = _points(*check_draw(d, num_samples, seed))
    bound = tolerance * max(1.0, expected)
    form = _route(a_set)
    if form:
        balanced = _decoded(a_set)[0]  # D = 0
        if balanced:
            worst = int(np.argmax(np.abs(errors)))
            off, diag = 0.0, expected * abs(float(errors[worst]))
        else:
            worst, off, diag = _form_deviations(a_set, draw)
            off, diag = off / (d - 1), diag / (d - 1)
        deviation, constant = max(off, diag), expected * (1.0 + float(errors[worst]))
    else:
        total, off, diag = _row_deviations(a_set, points, expected)
        deviation = np.maximum(off, diag)
        worst = int(np.argmax(deviation))  # the first point of largest deviation, or the first NaN
        deviation, constant = deviation[worst], float(total[worst] / d)
        off, diag = float(off[worst]), float(diag[worst])
    point = points[worst].copy()

    def floats_pass():
        return deviation <= bound and _direct_deviation(a_set, point, expected) <= bound

    # D = 0 is known first on F's route, and asked last on the rows'
    tight = balanced and floats_pass() if form else floats_pass() and _decoded(a_set)[0]
    return FrameReport(bool(tight), constant, off, diag, len(points), point, expected)


def reconstruct(a_set: OperatorSet, a, coefficients) -> np.ndarray:
    """Resynthesize (1/C) * sum_U c_U U(a) from frame coefficients; C = #A/(2n-1)."""
    a = unit_point(a, a_set.dim)
    coeffs = _as_floats(coefficients)
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
        p, q, observed, _ = min(report.condition_i_failures)
        probe = (p, q)
        defect = Fraction(len(a_set) - (d - 1) * observed, 2 * (d - 1))
    else:
        p, q, r, s, plus, minus = min(report.condition_ii_failures)
        probe = (r, s)
        defect = Fraction(plus - minus, 2)
    point = np.zeros(d)
    point[p - 1] = point[q - 1] = 1 / sqrt(2)
    return UnbalancedWitness(point=point, probe_pair=probe, defect=defect)


def witness_cross_term(a_set: OperatorSet, witness: UnbalancedWitness) -> float:
    """The frame-operator entry the witness predicts, C*a_r*a_c + sum_U U(a)_r*U(a)_c, at its point.

    Only columns r and c of the images are formed, as S[:, j] * a[K[:, j]]:
    the minus signs of U(a) = -S * a[K] cancel in the product.  The probe
    pair must be two integers in 1..2n, not bools.
    """
    d = a_set.dim
    a = unit_point(witness.point, d)
    try:
        r, c = witness.probe_pair
    except (TypeError, ValueError):  # not two items
        r = c = None
    if not (is_integer(r) and is_integer(c) and 0 < r <= d and 0 < c <= d):
        raise ValueError(f"probe_pair must be two integers in 1..{d}, got {witness.probe_pair!r}")
    k, sign = a_set.index_arrays
    r, c = r - 1, c - 1
    cross = (sign[:, r] * a[k[:, r]]) @ (sign[:, c] * a[k[:, c]])
    return float(_frame_constant(a_set) * a[r] * a[c] + cross)
