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
from typing import Iterable, Iterator, Sequence

import numpy as np

from .sphere import _as_floats, is_integer, unit_point

DEFAULT_ENUMERATION_CAP = 5


@dataclass(frozen=True)
class SignedInvolution:
    """A fixed-point-free involutive coordinate pairing with antisymmetric signs.

    ``pairing[i-1]`` is the 1-based partner of coordinate ``i`` and
    ``signs[i-1]`` is the sign attached to coordinate ``i``; within each
    pair exactly one coordinate carries -1.  ``u(a)`` is the image of ``a``.
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
        # Each position's own fault is raised at once (positions count from 1); the first
        # position not mapped back or with its partner's sign is worded after the loop, so
        # every own fault comes first.  A comparison that raises has met a partner not yet
        # checked, whose own check raises later.  A counter runs faster here than enumerate.
        i = mismatch = 0
        for k, s in zip(pairing, signs):
            i += 1
            if not (type(k) is int or isinstance(k, int) and not isinstance(k, bool)):
                raise ValueError(f"pairing index at position {i} must be an int, got {k!r}")
            if not 0 < k <= d:
                raise ValueError(f"pairing index at position {i} is out of range 1..{d}: {k!r}")
            if k == i:
                raise ValueError(f"pairing has a fixed point at position {i}")
            if not (type(s) is int or isinstance(s, int) and not isinstance(s, bool)) or (
                    s != 1 and s != -1):
                raise ValueError(f"sign at position {i} must be -1 or +1, got {s!r}")
            if not mismatch:
                try:
                    if pairing[k - 1] != i or s != -signs[k - 1]:
                        mismatch = i
                except Exception:
                    mismatch = i
        if mismatch:
            i, k = mismatch, pairing[mismatch - 1]
            if pairing[k - 1] != i:
                raise ValueError(f"pairing is not an involution at position {i}: "
                                 f"position {i} maps to {k} but {k} maps to {pairing[k - 1]}")
            raise ValueError(f"signs are not antisymmetric within the pair at position {i}: "
                             f"sign[{i}] = {signs[i - 1]} but sign[{k}] = {signs[k - 1]}")

    @property
    def dim(self) -> int:
        return len(self.pairing)

    def __call__(self, a):
        """The image U(a): component i is ``signs[k-1] * a[k-1]`` with ``k = pairing[i-1]``.

        ``a`` must be one vector of length ``dim``, of numbers as
        :func:`~movingframes.sphere._as_floats` reads them.  Numpy arrays come
        back as numpy arrays; any other sequence comes back as a list,
        preserving element types (so Fraction inputs stay exact).
        """
        try:
            got = f"shape {np.shape(a)}"
        except ValueError:  # numpy refuses a ragged nesting
            got = "a ragged sequence"
        if got != f"shape ({self.dim},)":
            raise ValueError(f"expected one vector of length {self.dim}, got {got}")
        _as_floats(a)
        if isinstance(a, np.ndarray):
            idx = np.asarray(self.pairing) - 1
            return np.asarray(self.signs)[idx] * a[idx]
        return [self.signs[k - 1] * a[k - 1] for k in self.pairing]


class OperatorSet:
    """An ordered, duplicate-free collection of signed involutions of one dimension.

    ``OperatorSet(dim, members)`` takes the members as objects, and ``dim``
    must be an ``int`` or numpy integer (not ``bool``), kept as an ``int``;
    :meth:`from_arrays` takes them as one pairing row and one sign row per
    member and builds no member objects.  Both need at least one member, all
    distinct by a ``set`` of the members or of the rows.  Either way equality and hashing are by dimension
    and members in order, and ``members``, iteration and indexing give
    :class:`SignedInvolution` views, built from the arrays on first use.
    """

    def __init__(self, dim: int, members: Iterable[SignedInvolution]) -> None:
        members = tuple(members)
        if not is_integer(dim) or dim <= 0 or dim % 2 != 0:
            raise ValueError(f"dimension must be a positive even integer, got {dim}")
        for idx, u in enumerate(members):
            if not isinstance(u, SignedInvolution):
                raise ValueError(f"member {idx} must be a SignedInvolution, got {type(u).__name__}")
            if u.dim != dim:
                raise ValueError(f"member {idx} has dimension {u.dim}, expected {dim}")
        _refuse_duplicates(members)
        self.__dict__.update(dim=int(dim), members=members, _size=len(members))

    @classmethod
    def from_arrays(cls, pairing: np.ndarray, signs: np.ndarray) -> "OperatorSet":
        """The set whose member m has pairing ``pairing[m]`` (1-based) and signs
        ``signs[m]``, both integer arrays of shape (#A, dim).

        All rows are checked at once.  The first invalid row is handed to
        :class:`SignedInvolution` for its message, so the error reads
        "operator record m is invalid: ..." exactly as the per-member check
        words it; no rows or duplicate rows are refused after that, as in ``__init__``.
        """
        pairing, signs = np.asarray(pairing), np.asarray(signs)
        if (pairing.ndim != 2 or pairing.shape != signs.shape or pairing.dtype.kind not in "iu"
                or signs.dtype.kind not in "iu"):
            raise ValueError("pairing and signs must be integer arrays of one shape (#A, dim)")
        given = pairing, signs
        size, dim = pairing.shape
        if dim == 0 or dim % 2 != 0:
            raise ValueError(f"dimension must be a positive even integer, got {dim}")
        position = np.arange(1, dim + 1)
        bad = ((pairing < 1) | (pairing > dim) | (pairing == position)
               | ((signs != 1) & (signs != -1)))
        # C order, so that rows can be viewed as bytes; the casts wrap only in bad rows
        pairing, signs = pairing.astype(np.intp, order="C"), signs.astype(np.int64, order="C")
        partner = pairing - 1
        partner[bad] = 0  # any index will do in a row that already fails
        bad |= np.take_along_axis(pairing, partner, axis=1) != position
        bad |= np.take_along_axis(signs, partner, axis=1) != -signs
        del partner
        bad_rows = bad.any(axis=1).nonzero()[0]
        if len(bad_rows):
            row = int(bad_rows[0])
            try:
                SignedInvolution(*(tuple(a[row].tolist()) for a in given))
            except ValueError as exc:
                raise ValueError(f"operator record {row} is invalid: {exc}") from exc
        # pairing * signs encodes each row's (pairing, signs) entrywise; compare rows as
        # bytes, in the narrowest signed type that holds -dim - 1 and so +-dim
        codes = np.multiply(pairing, signs, dtype=np.min_scalar_type(-dim - 1))
        _refuse_duplicates(codes.view(np.dtype((np.void, codes.itemsize * dim))).ravel().tolist())
        pairing -= 1
        pairing.flags.writeable = signs.flags.writeable = False
        a_set = cls.__new__(cls)
        a_set.__dict__.update(dim=dim, _size=size, index_arrays=(pairing, signs))
        return a_set

    @cached_property
    def members(self) -> tuple[SignedInvolution, ...]:
        k, sign = self.index_arrays
        return tuple(map(SignedInvolution, map(tuple, (k + 1).tolist()), map(tuple, sign.tolist())))

    @cached_property
    def index_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """Partner indices K = pairing - 1 and the members' own signs S, as
        documents write them, both of shape (#A, dim); the images of a point a
        are -S * a[K], as signs are antisymmetric within every pair.  Built on
        first use and then shared read-only by every numerical consumer; a set
        from :meth:`from_arrays` stores only these.
        """
        shape, size = (self._size, self.dim), self._size * self.dim
        flat = itertools.chain.from_iterable
        k = np.fromiter(flat(u.pairing for u in self.members), np.intp, size).reshape(shape) - 1
        sign = np.fromiter(flat(u.signs for u in self.members), np.int64, size).reshape(shape)
        k.flags.writeable = sign.flags.writeable = False
        return k, sign

    def __eq__(self, other) -> bool:
        if not isinstance(other, OperatorSet):
            return NotImplemented
        return (self.dim, self._size) == (other.dim, other._size) and all(
            np.array_equal(mine, theirs)
            for mine, theirs in zip(self.index_arrays, other.index_arrays))

    def __hash__(self) -> int:
        return hash((self.dim, *(a.tobytes() for a in self.index_arrays)))

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to {name!r}: an operator set is immutable")

    def __repr__(self) -> str:
        return f"OperatorSet(dim={self.dim}, size={self._size})"

    def __len__(self) -> int:
        return self._size

    def __iter__(self) -> Iterator[SignedInvolution]:
        return iter(self.members)

    def __getitem__(self, idx: int) -> SignedInvolution:
        return self.members[idx]


def _refuse_duplicates(rows: Sequence) -> None:
    """The membership rule of both constructors: at least one member, all distinct."""
    if not rows:
        raise ValueError("an operator set needs at least one member")
    if len(set(rows)) != len(rows):
        raise ValueError("operator set contains duplicate members")


def make_operator(dim: int, pairing: Sequence[int], signs: Sequence[int]) -> SignedInvolution:
    """Validate and build a signed involution with 1-based pairing indices.

    ``dim`` and the entries must be ``int`` (not ``bool``; ``dim`` may be a
    numpy integer); nothing is coerced.  Only ``dim`` and the pairing length
    are checked here; :class:`SignedInvolution` checks the rest.
    """
    if not (type(dim) is int or is_integer(dim)):
        raise ValueError(f"dim must be an integer, got {dim!r}")
    if len(pairing) != dim:
        raise ValueError(f"pairing has length {len(pairing)}, expected {dim}")
    return SignedInvolution(tuple(pairing), tuple(signs))


def tangency_defect(u: SignedInvolution, a):
    """Inner product of ``u(a)`` with the unit point ``a``: zero when u(a) is tangent at a.

    Pure-Python summation so that rational inputs (e.g. Fraction) give an
    exact 0 rather than a rounded one.
    """
    unit_point(a, u.dim)
    return sum(image * x for image, x in zip(u(a), a))


def _fixed_point_free_involutions(d: int) -> np.ndarray:
    """All fixed-point-free involutions of {1..d}, a 1-based row each,
    lexicographic by the index map: a block per partner j of 1, in increasing
    j, over the involutions of the other d-2 indices relabelled in order."""
    if d == 0:
        return np.zeros((1, 0), np.intp)
    inner, blocks = _fixed_point_free_involutions(d - 2), []
    for j in range(2, d + 1):  # inner's labels 1..d-2 become the indices other than 1 and j
        rest = np.delete(np.arange(d + 1), [1, j])[inner]
        blocks.append(np.insert(np.insert(rest, j - 2, 1, axis=1), 0, j, axis=1))
    return np.concatenate(blocks)


def check_cap(n: int, cap: int | None, what: str, action: str) -> int:
    """Refuse an n that is not an ``int`` or numpy integer, a bool or n < 1,
    a ``cap`` that is neither None nor such an integer of at least 1, and n
    above ``cap`` unless ``cap`` is None.  Returns n as an ``int``, so that
    no size is computed in a narrow numpy type.

    ``what`` names the cap in the message and ``action`` says what raising
    it allows.
    """
    if not is_integer(n) or n < 1:
        raise ValueError(f"n must be a positive integer, got {n}")
    if cap is not None and (not is_integer(cap) or cap < 1):
        raise ValueError(f"cap must be None or an integer of at least 1, got {cap!r}")
    if cap is not None and n > cap:
        raise ValueError(f"n={n} exceeds the {what} cap {cap}; "
                         f"raise the cap explicitly to {action}")
    return int(n)


def sign_design(n: int) -> np.ndarray:
    """All 2^n patterns of n signs +-1, a row each: lexicographic with +1 first,
    the last column fastest, so the first 2^(n-1) rows are those with +1 first."""
    bits = (np.arange(2 ** n)[:, None] >> np.arange(n - 1, -1, -1)) & 1
    return (1 - 2 * bits).astype(np.int8)


def signed_pairings(family: np.ndarray, design: np.ndarray) -> OperatorSet:
    """Each pairing (a row, 1-based) with each sign pattern of ``design``.

    ``design`` is a (patterns x pairs) array of +-1.  A pattern gives every
    pair {i, k} with i < k its sign at i and the opposite sign at k; pairs are
    ordered by i.  Members go pairing by pairing, each with the patterns in
    the design's order: the design broadcast over all pairings, with no
    per-member objects.
    """
    d = family.shape[1]
    lower = family - 1 > np.arange(d)  # position i is the smaller one of its pair
    pair = np.cumsum(lower, axis=1) - 1  # pairs numbered by their smaller position
    pair = np.where(lower, pair, np.take_along_axis(pair, family - 1, axis=1))
    orient = np.where(lower, 1, -1).astype(np.int8)
    signs = design[:, pair].transpose(1, 0, 2) * orient[:, None, :]
    return OperatorSet.from_arrays(np.repeat(family, len(design), axis=0), signs.reshape(-1, d))


def enumerate_full(n: int, cap: int | None = DEFAULT_ENUMERATION_CAP) -> OperatorSet:
    """Every signed involution on R^{2n}, canonically ordered.

    The result has (2n)!/n! members, sorted lexicographically by pairing and
    then by signs (+1 before -1).  ``cap`` bounds ``n`` because the count
    grows factorially; pass a larger cap (or None) to override.
    """
    n = check_cap(n, cap, "enumeration", "enumerate larger sets")
    return signed_pairings(_fixed_point_free_involutions(2 * n), sign_design(n))
