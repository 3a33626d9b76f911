"""Signed involutions on R^{2n}: construction, application, enumeration.

The operators here swap coordinates in pairs and flip the sign of one
coordinate per pair.  Applied to a point on the unit sphere S^{2n-1} the
image is always a unit tangent vector, which makes these operators the
raw material for building moving frames of the tangent bundle.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property
from math import sqrt
from typing import Iterable, Iterator, Sequence

import numpy as np

from .sphere import UNIT_POINT_TOL

DEFAULT_ENUMERATION_CAP = 5


@dataclass(frozen=True)
class SignedInvolution:
    """A fixed-point-free involutive coordinate pairing with antisymmetric signs.

    ``pairing[i-1]`` is the 1-based partner of coordinate ``i`` and
    ``signs[i-1]`` is the sign attached to coordinate ``i``; within each
    pair exactly one coordinate carries -1.  Acting on a vector ``a``,
    component ``i`` of the image is ``signs[k-1] * a[k-1]`` with
    ``k = pairing[i-1]``.
    """

    pairing: tuple[int, ...]
    signs: tuple[int, ...]

    def __post_init__(self) -> None:
        pairing, signs = self.pairing, self.signs
        d = len(pairing)
        if d == 0 or d % 2 != 0:
            raise ValueError(f"dimension must be a positive even integer, got {d}")
        if len(signs) != d:
            raise ValueError(f"signs has length {len(signs)}, expected {d} to match pairing")
        for i in range(d):  # each position on its own; messages count positions from 1
            k, s = pairing[i], signs[i]
            if not isinstance(k, int) or isinstance(k, bool) or not 1 <= k <= d:
                raise ValueError(f"pairing index at position {i + 1} is out of range 1..{d}: {k!r}")
            if k == i + 1:
                raise ValueError(f"pairing has a fixed point at position {i + 1}")
            if not isinstance(s, int) or isinstance(s, bool) or s not in (-1, 1):
                raise ValueError(f"sign at position {i + 1} must be -1 or +1, got {s!r}")
        for i in range(d):  # each position against its partner
            k = pairing[i]
            if pairing[k - 1] != i + 1:
                raise ValueError(
                    f"pairing is not an involution at position {i + 1}: "
                    f"position {i + 1} maps to {k} but {k} maps to {pairing[k - 1]}"
                )
            if signs[i] != -signs[k - 1]:
                raise ValueError(
                    f"signs are not antisymmetric within the pair at position {i + 1}: "
                    f"sign[{i + 1}] = {signs[i]} but sign[{k}] = {signs[k - 1]}"
                )

    @property
    def dim(self) -> int:
        return len(self.pairing)

    def __call__(self, a):
        return apply(self, a)


@dataclass(frozen=True)
class OperatorSet:
    """An ordered, duplicate-free collection of signed involutions of one dimension."""

    dim: int
    members: tuple[SignedInvolution, ...]

    def __post_init__(self) -> None:
        if self.dim <= 0 or self.dim % 2 != 0:
            raise ValueError(f"dimension must be a positive even integer, got {self.dim}")
        for idx, u in enumerate(self.members):
            if u.dim != self.dim:
                raise ValueError(
                    f"member {idx} has dimension {u.dim}, expected {self.dim}"
                )
        if len(set(self.members)) != len(self.members):
            raise ValueError("operator set contains duplicate members")

    @classmethod
    def from_members(cls, members: Iterable[SignedInvolution]) -> "OperatorSet":
        members = tuple(members)
        if not members:
            raise ValueError("cannot infer dimension from an empty member list")
        return cls(members[0].dim, members)

    @cached_property
    def index_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """Partner indices K and partner signs E, both of shape (#A, dim).

        Row m of the images of a point a is E[m] * a[K[m]].  Built on first
        use and then shared read-only by every numerical consumer.  E is
        the negated sign row: each member's signs are antisymmetric within
        every pair {i, k_i}, so the sign at the partner of i is -sign[i].
        """
        shape, size = (len(self), self.dim), len(self) * self.dim
        flat = itertools.chain.from_iterable
        k = np.fromiter(flat(u.pairing for u in self.members), np.intp, size).reshape(shape) - 1
        e = -np.fromiter(flat(u.signs for u in self.members), np.int64, size).reshape(shape)
        k.flags.writeable = e.flags.writeable = False
        return k, e

    def __len__(self) -> int:
        return len(self.members)

    def __iter__(self) -> Iterator[SignedInvolution]:
        return iter(self.members)

    def __getitem__(self, idx: int) -> SignedInvolution:
        return self.members[idx]


def make_operator(dim: int, pairing: Sequence[int], signs: Sequence[int]) -> SignedInvolution:
    """Validate and build a signed involution with 1-based pairing indices.

    Entries must be ``int`` (not ``bool``); nothing is coerced.  Only the
    pairing length is checked here; :class:`SignedInvolution` checks the rest.
    """
    if len(pairing) != dim:
        raise ValueError(f"pairing has length {len(pairing)}, expected {dim}")
    return SignedInvolution(tuple(pairing), tuple(signs))


def apply(u: SignedInvolution, a):
    """Apply ``u`` to a vector: component i of the result is sign[k_i] * a[k_i].

    Numpy arrays come back as numpy arrays; any other sequence comes back
    as a list, preserving element types (so Fraction inputs stay exact).
    """
    if len(a) != u.dim:
        raise ValueError(f"vector has length {len(a)}, expected {u.dim}")
    if isinstance(a, np.ndarray):
        idx = np.asarray(u.pairing) - 1
        return np.asarray(u.signs)[idx] * a[idx]
    return [u.signs[k - 1] * a[k - 1] for k in u.pairing]


def tangency_defect(u: SignedInvolution, a):
    """Inner product of ``u(a)`` with ``a``; zero exactly when ``a`` is tangentable.

    Pure-Python summation so that rational inputs (e.g. Fraction) give an
    exact 0 rather than a rounded one.
    """
    if len(a) != u.dim:
        raise ValueError(f"vector has length {len(a)}, expected {u.dim}")
    norm = sqrt(sum(float(x) * float(x) for x in a))
    if abs(norm - 1.0) > UNIT_POINT_TOL:
        raise ValueError(f"expected a unit vector, got norm {norm}")
    return sum(u.signs[k - 1] * a[k - 1] * a[i] for i, k in enumerate(u.pairing))


def _fixed_point_free_involutions(d: int) -> Iterator[tuple[int, ...]]:
    """All fixed-point-free involutions of {1..d}, lexicographic by the index map."""

    partner = [0] * (d + 1)  # partner[i] of index i, 0 while unmatched

    def rec(i: int) -> Iterator[tuple[int, ...]]:
        if i > d:
            yield tuple(partner[1:])
        elif partner[i]:
            yield from rec(i + 1)
        else:
            for j in range(i + 1, d + 1):
                if not partner[j]:
                    partner[i], partner[j] = j, i
                    yield from rec(i + 1)
                    partner[i] = partner[j] = 0

    yield from rec(1)


def sign_assignments(pairing: Sequence[int], fix_first: bool = False) -> Iterator[tuple[int, ...]]:
    """All antisymmetric sign sequences for a pairing, lexicographic with +1 first.

    With ``fix_first`` the sign of coordinate 1 is pinned to +1, leaving one
    free choice per pair not containing index 1.
    """
    pairs = [(i, k) for i, k in enumerate(pairing, start=1) if i < k]
    choices = [(1,) if fix_first and i == 1 else (1, -1) for i, _ in pairs]
    for combo in itertools.product(*choices):
        signs = [0] * len(pairing)
        for (i, k), s in zip(pairs, combo):
            signs[i - 1], signs[k - 1] = s, -s
        yield tuple(signs)


def enumerate_full(n: int, cap: int | None = DEFAULT_ENUMERATION_CAP) -> OperatorSet:
    """Every signed involution on R^{2n}, canonically ordered.

    The result has (2n)!/n! members, sorted lexicographically by pairing and
    then by signs (+1 before -1).  ``cap`` bounds ``n`` because the count
    grows factorially; pass a larger cap (or None) to override.
    """
    if n < 1:
        raise ValueError(f"n must be a positive integer, got {n}")
    if cap is not None and n > cap:
        raise ValueError(
            f"n={n} exceeds the enumeration cap {cap}; "
            f"raise the cap explicitly to enumerate larger sets"
        )
    members = [
        SignedInvolution(pairing, signs)
        for pairing in _fixed_point_free_involutions(2 * n)
        for signs in sign_assignments(pairing)
    ]
    return OperatorSet(2 * n, tuple(members))
