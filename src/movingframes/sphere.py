"""Geometry of unit spheres in R^{2n}, and the argument rules every module shares:
:func:`unit_point` decides what is a point of the sphere, :func:`is_integer` an
integer and :func:`_as_floats` an array of numbers."""

from __future__ import annotations

import random
from math import sqrt

import numpy as np

# The one unit-norm test of the package: a vector counts as a unit vector
# (a point of the sphere) when its norm is within this of 1.  Tightness
# deviations are judged separately, against the tolerance of each check.
UNIT_POINT_TOL = 1e-6

# Box-Muller pairs per draw of sample_sphere: one randbytes call of 1 MiB, so
# the temporaries stay small and getrandbits never meets its C-int bit limit.
_DRAW_PAIRS = 2 ** 16


def is_integer(value) -> bool:
    """Whether ``value`` is an ``int`` or numpy integer, and not a ``bool``."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def _as_floats(x) -> np.ndarray:
    """``x`` as a float array, refused if an entry is a string, bytes, a bool,
    None or complex, which ``np.asarray(x, dtype=float)`` would take as a
    number, NaN or its real part, or if ``x`` is a ragged sequence; any other
    number (a Fraction too) is converted."""
    entries = x if isinstance(x, np.ndarray) else np.asarray(x, dtype=object)
    if entries.dtype.kind in "bSUc" or entries.dtype.kind == "O" and any(
            entry is None or isinstance(entry, (str, bytes, bool, np.bool_, complex, np.complexfloating))
            for entry in entries.flat):
        raise ValueError("entries must be real numbers, not strings, bytes, booleans, None or complex")
    try:
        return np.asarray(entries, dtype=float)
    except ValueError as exc:
        if any(hasattr(entry, "__len__") for entry in entries.flat):  # sequences left by a ragged nesting
            raise ValueError("expected an array of numbers, got a ragged sequence") from exc
        raise


def unit_point(a, dim: int) -> np.ndarray:
    """``a`` as floats, refused unless its shape is (dim,) and its norm within UNIT_POINT_TOL of 1."""
    av = _as_floats(a)
    if av.ndim != 1:  # its size would read like a length
        raise ValueError(f"expected one point of length {dim}, got shape {av.shape}")
    if av.size != dim:
        raise ValueError(f"point has length {av.size}, expected {dim}")
    flat = av.ravel(order="K")  # np.linalg.norm's own product, so the same bits
    norm = sqrt(flat.dot(flat))
    if not abs(norm - 1.0) <= UNIT_POINT_TOL:  # so NaN fails too
        raise ValueError(f"expected a unit vector, got norm {norm}")
    return av


def check_draw(dim: int, count: int, seed: int) -> tuple[int, int, int]:
    """Refuse arguments that :func:`sample_sphere` cannot draw from; return them as ints."""
    if not all(map(is_integer, (dim, count, seed))):
        raise ValueError(f"dim, count and seed must be integers, got {(dim, count, seed)!r}")
    if dim < 2 or dim % 2 != 0:
        raise ValueError(f"dimension must be even and at least 2, got {dim}")
    if count < 0:
        raise ValueError(f"count must be nonnegative, got {count}")
    if seed < 0:  # random.Random would take |seed|
        raise ValueError(f"seed must be nonnegative, got {seed}")
    return int(dim), int(count), int(seed)


def sample_sphere(dim: int, count: int, seed: int) -> np.ndarray:
    """``count`` unit vectors in R^dim, rows of the result; deterministic in seed.

    Normalized standard Gaussians, so the distribution is rotation invariant.
    They are Box-Muller pairs from the bytes of ``random.Random(seed)``, the
    standard library's Mersenne Twister, so no ``numpy.random`` is imported.
    The flattened result is filled in slices of at most 2^17 numbers, one
    ``randbytes`` call each: of a slice's 53-bit uniforms the first half give
    the radii and the rest the angles, and cosines fill the first half of the
    slice, sines the second.
    """
    dim, count, seed = check_draw(dim, count, seed)  # numpy integers would overflow below
    points = np.empty((count, dim))  # first, so that an impossible count fails before any draw
    flat, rng = points.reshape(-1), random.Random(seed)
    for start in range(0, count * dim // 2, _DRAW_PAIRS):  # dim is even
        pairs = min(_DRAW_PAIRS, count * dim // 2 - start)
        bits = np.frombuffer(rng.randbytes(16 * pairs), dtype="<u8")
        uniform = (bits >> 11) * 2.0 ** -53  # 53-bit uniforms in [0, 1)
        radius = np.sqrt(-2.0 * np.log1p(-uniform[:pairs]))
        angle = 2 * np.pi * uniform[pairs:]
        out = flat[2 * start:2 * (start + pairs)]
        np.multiply(radius, np.cos(angle), out=out[:pairs])
        np.multiply(radius, np.sin(angle), out=out[pairs:])
    points /= np.linalg.norm(points, axis=1, keepdims=True)
    return points


def project_tangent(a, x) -> np.ndarray:
    """Orthogonal projection of x onto the tangent space at the unit point a: x - <x,a> a."""
    av = unit_point(a, _as_floats(a).size)
    xv = _as_floats(x)
    if xv.ndim != 1:
        raise ValueError(f"expected one vector of length {av.size}, got shape {xv.shape}")
    if xv.size != av.size:
        raise ValueError(f"length mismatch: point has {av.size}, vector has {xv.size}")
    return xv - (xv @ av) * av


def tangent_basis(a) -> np.ndarray:
    """Rows of a (d-1) x d array: an orthonormal basis of the tangent space at the unit point a.

    Gram-Schmidt on the standard basis vectors, dropping the coordinate where
    |a_i| is largest so the remaining directions stay well separated from a.
    One reorthogonalization pass keeps the basis orthonormal to ~1e-15.
    """
    av = unit_point(a, _as_floats(a).size)
    d = av.size
    pivot = int(np.argmax(np.abs(av)))
    basis: list[np.ndarray] = []
    for j in range(d):
        if j == pivot:
            continue
        v = np.zeros(d)
        v[j] = 1.0
        for _ in range(2):
            v -= (v @ av) * av
            for b in basis:
                v -= (v @ b) * b
        v /= np.linalg.norm(v)
        basis.append(v)
    return np.array(basis)
