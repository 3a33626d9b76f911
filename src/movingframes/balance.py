"""Exact combinatorics of balanced operator sets.

Everything here is integer or rational arithmetic: slice counts (integer
numpy arrays from one ``np.bincount`` kernel, so still exact), the balanced
decision, the sign-flip bijection between opposite-sign slices, and the
round-robin style pairing matrix that yields a minimal balanced set of
(2n-1) * 2^(n-1) operators.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .operators import OperatorSet, SignedInvolution, sign_assignments

_BLOCK = 1 << 16  # entries in one working array of the slice counts


@dataclass(frozen=True)
class PairingMatrix:
    """Symmetric zero-diagonal matrix whose rows permute {0..2n-1}.

    Row i holds, for each column j, the label of the pairing that matches
    coordinates i and j.  Built by :func:`build_pairing_matrix`; arbitrary
    entries are accepted at construction so invalid matrices can be fed to
    :func:`extract_pairings` for diagnosis.
    """

    n: int
    rows: tuple[tuple[int, ...], ...]

    def as_text(self) -> str:
        return "\n".join(" ".join(str(v) for v in row) for row in self.rows)


@dataclass
class BalanceReport:
    """Exact verdict on the two balance conditions, with every failing slice."""

    balanced: bool
    set_size: int
    # (p, q, observed count, required count as an exact rational)
    condition_i_failures: list[tuple[int, int, int, Fraction]] = field(default_factory=list)
    # (p, q, r, s, count at sign +1, count at sign -1)
    condition_ii_failures: list[tuple[int, int, int, int, int, int]] = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "balanced": self.balanced,
            "set_size": self.set_size,
            "condition_i_failures": [
                {"p": p, "q": q, "observed": obs, "required": str(req)}
                for p, q, obs, req in self.condition_i_failures
            ],
            "condition_ii_failures": [
                {"p": p, "q": q, "r": r, "s": s, "count_plus": cp, "count_minus": cm}
                for p, q, r, s, cp, cm in self.condition_ii_failures
            ],
        }


def _check_index(d: int, name: str, value: int) -> None:
    if not 1 <= value <= d:
        raise ValueError(f"index {name}={value} out of range 1..{d}")


@lru_cache(maxsize=16)
def _layout(d: int):
    """Constants of :func:`_slice_counts` in dimension d: ``pairs`` (the pairs r < s,
    lexicographic, 1-based), ``columns`` (their r and s, 0-based), ``column_code``
    (2C*c for pair c) and ``key_code`` (key_code[p, q] // 2 numbers {p, q})."""
    rows, cols = np.triu_indices(d, 1)
    pair_id = np.zeros((d, d), dtype=np.intp)
    pair_id[rows, cols] = pair_id[cols, rows] = np.arange(len(rows))
    partner, positive = np.arange(2 * d) % d, np.arange(2 * d) // d
    key_code = 2 * pair_id[np.ix_(partner, partner)] + (positive[:, None] == positive)
    columns, column_code = np.stack([rows, cols]), 2 * len(rows) * np.arange(len(rows))
    for array in (columns, column_code, key_code):
        array.flags.writeable = False
    return list(zip((rows + 1).tolist(), (cols + 1).tolist())), columns, column_code, key_code


def _slice_counts(a_set: OperatorSet, start: int, stop: int) -> np.ndarray:
    """Row C*j + g, column t: members with {k_r, k_s} = pair g and E[r]*E[s] =
    (+1 if t else -1), for (r, s) the pair start + j of :func:`_layout`.

    With K, E the cached index arrays, E[r]*E[s] = sign[p]*sign[q]; the keys
    k + d*[E > 0] at r and s give key_code 2g + [E[r] = E[s]].  Row C*j +
    start + j is the pair slice {r, s} (k_r = s, E[r] = -E[s]); the others
    are sign slices: k_r != s forces k_s != r, and a pairing has no fixed
    points, so {k_r, k_s} and {r, s} are disjoint.  Operators go in chunks.
    """
    k, e = a_set.index_arrays
    pairs, columns, column_code, key_code = _layout(a_set.dim)
    keys, rs = k + (e + 1) * (a_set.dim // 2), columns[:, start:stop]  # (e + 1)/2 = [E > 0]
    size, step = 2 * len(pairs) * (stop - start), max(1, _BLOCK // (stop - start))

    def count(m: int) -> np.ndarray:
        kk = keys[m:m + step].take(rs, axis=1)
        codes = key_code[kk[:, 0], kk[:, 1]] + column_code[:stop - start]
        return np.bincount(codes.ravel(), minlength=size)

    table = count(0)
    for m in range(step, len(k), step):
        table += count(m)
    return table.reshape(-1, 2)


def count_pair_slice(a_set: OperatorSet, p: int, q: int) -> int:
    """Number of members whose pairing matches coordinate p with coordinate q."""
    d = a_set.dim
    _check_index(d, "p", p)
    _check_index(d, "q", q)
    if p == q:
        raise ValueError(f"p and q must differ, both are {p}")
    column = int(_layout(d)[3][p - 1, q - 1]) // 2
    return int(_slice_counts(a_set, column, column + 1)[column, 0])


def count_sign_slice(a_set: OperatorSet, p: int, q: int, r: int, s: int, sign: int) -> int:
    """Number of members with sign[p]*sign[q] == sign and {k_r, k_s} == {p, q}."""
    d = a_set.dim
    if d < 4:
        raise ValueError("sign slices need four distinct indices, so dimension >= 4")
    for name, value in (("p", p), ("q", q), ("r", r), ("s", s)):
        _check_index(d, name, value)
    if len({p, q, r, s}) != 4:
        raise ValueError(f"indices must be distinct, got p={p} q={q} r={r} s={s}")
    if sign not in (-1, 1):
        raise ValueError(f"sign must be -1 or +1, got {sign!r}")
    key_code = _layout(d)[3]
    table = _slice_counts(a_set, key_code[r - 1, s - 1] // 2, key_code[r - 1, s - 1] // 2 + 1)
    return int(table[key_code[p - 1, q - 1] // 2, int(sign > 0)])


def is_balanced(a_set: OperatorSet) -> BalanceReport:
    """Decide balance exactly.

    Condition i requires every pair slice to hold exactly #A/(2n-1) members;
    the comparison is done as #A_{p,q} * (2n-1) == #A so a non-divisible set
    size fails automatically.  Condition ii compares the two sign slices of
    every four distinct indices; it is vacuous for n = 1.  Both are read
    from :func:`_slice_counts` in blocks of about _BLOCK entries, never a
    d^4 table, at the rows whose two signs differ.
    """
    if len(a_set) == 0:
        raise ValueError("balance is undefined for an empty operator set")
    d, size = a_set.dim, len(a_set)
    pairs = _layout(d)[0]
    pair_counts, cond_ii = [0] * len(pairs), []
    width = max(1, _BLOCK // (2 * len(pairs)))
    for start in range(0, len(pairs), width):
        table = _slice_counts(a_set, start, min(start + width, len(pairs)))
        differ = (table[:, 1] != table[:, 0]).nonzero()[0]
        for row, (minus, plus) in zip(differ.tolist(), table.take(differ, axis=0).tolist()):
            j, g = divmod(row, len(pairs))
            if g == start + j:  # the pair slice {r, s}, all at sign -1
                pair_counts[g] = minus
            else:
                cond_ii.append((*pairs[g], *pairs[start + j], plus, minus))
    cond_ii.sort()
    required = Fraction(size, d - 1)
    cond_i = [(*pair, count, required) for pair, count in zip(pairs, pair_counts)
              if count * (d - 1) != size]
    return BalanceReport(balanced=not cond_i and not cond_ii, set_size=size,
                         condition_i_failures=cond_i, condition_ii_failures=cond_ii)


def sign_flip_bijection(u: SignedInvolution, p: int) -> SignedInvolution:
    """Flip the signs of coordinate p and its partner, keeping the pairing.

    Restricted to the full operator set this is an involution that maps the
    sign slice at -1 onto the slice at +1, which is how the full set earns
    condition ii.
    """
    _check_index(u.dim, "p", p)
    kp = u.pairing[p - 1]
    signs = tuple(-s if i in (p, kp) else s for i, s in enumerate(u.signs, start=1))
    return SignedInvolution(u.pairing, signs)


def build_pairing_matrix(n: int) -> PairingMatrix:
    """The explicit symmetric scheduling matrix encoding 2n-1 pairings.

    Entry (i, j) with i, j < 2n is ((i+j-2) mod (2n-1)) + 1; the last row
    and column hold ((2i-2) mod (2n-1)) + 1, which runs over all labels
    because 2 and 2n-1 are coprime.
    """
    if n < 1:
        raise ValueError(f"n must be a positive integer, got {n}")
    d = 2 * n
    m = d - 1

    def entry(i: int, j: int) -> int:
        if i == j:
            return 0
        if i < d and j < d:
            return (i + j - 2) % m + 1
        if j == d:
            return (2 * i - 2) % m + 1
        return (2 * j - 2) % m + 1

    rows = tuple(tuple(entry(i, j) for j in range(1, d + 1)) for i in range(1, d + 1))
    return PairingMatrix(n, rows)


def validate_pairing_matrix(matrix: PairingMatrix) -> None:
    """Raise naming the violated invariant: shape, symmetry, diagonal, or rows."""
    d = 2 * matrix.n
    if len(matrix.rows) != d or any(len(row) != d for row in matrix.rows):
        raise ValueError(f"matrix is not {d}x{d}")
    for i in range(d):
        if matrix.rows[i][i] != 0:
            raise ValueError(f"diagonal entry ({i + 1},{i + 1}) is {matrix.rows[i][i]}, not 0")
    for i in range(d):
        for j in range(i + 1, d):
            if matrix.rows[i][j] != matrix.rows[j][i]:
                raise ValueError(
                    f"matrix is not symmetric at ({i + 1},{j + 1}): "
                    f"{matrix.rows[i][j]} != {matrix.rows[j][i]}"
                )
    for i, row in enumerate(matrix.rows, start=1):
        if sorted(row) != list(range(d)):
            raise ValueError(f"row {i} is not a permutation of 0..{d - 1}")


def extract_pairings(matrix: PairingMatrix) -> tuple[tuple[int, ...], ...]:
    """Read the pairing family off the matrix: the 2n-1 fixed-point-free
    involutions, where label j pairs i with the column of row i whose entry is j.

    A matrix that passes :func:`validate_pairing_matrix` needs no further
    check of the family.  Each row is a permutation of 0..2n-1 with its 0 on
    the diagonal, so every label j in 1..2n-1 sits in exactly one column
    c != i of row i: pairing j is a map without fixed points.  Symmetry gives
    entry (c, i) = j as well, so pairing j sends c back to i: an involution.
    Every pair {i, c} has exactly one off-diagonal label, so it is matched by
    exactly one pairing.  The labels in row i are distinct, so no two
    pairings send i to the same partner.
    """
    validate_pairing_matrix(matrix)
    d = 2 * matrix.n
    # column of each label per row, so extraction is one scan per row
    position = [{value: col + 1 for col, value in enumerate(row)} for row in matrix.rows]
    return tuple(tuple(position[i][label] for i in range(d)) for label in range(1, d))


def build_minimal_balanced(n: int) -> OperatorSet:
    """The balanced set of (2n-1) * 2^(n-1) operators from the pairing matrix.

    Each of the 2n-1 pairings is combined with every antisymmetric sign
    sequence pinned to +1 at coordinate 1; free signs are enumerated in
    binary-counting order with +1 first, so the output is reproducible.
    """
    members = [
        SignedInvolution(pairing, signs)
        for pairing in extract_pairings(build_pairing_matrix(n))
        for signs in sign_assignments(pairing, fix_first=True)
    ]
    return OperatorSet(2 * n, tuple(members))
