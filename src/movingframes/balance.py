"""Exact combinatorics of balanced operator sets.

Everything here is integer or rational arithmetic: slice counts (integer
numpy arrays from one ``np.bincount`` kernel, so still exact), the balanced
decision, the sign-flip bijection between opposite-sign slices, and the
round-robin style pairing matrix that yields the balanced set of
Theorem 3.4: (2n-1) * 2^(n-1) operators, every pairing of the family with
every sign pattern pinned at coordinate 1.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .operators import OperatorSet, SignedInvolution, check_cap, sign_design, signed_pairings
from .sphere import is_integer

_BLOCK = 1 << 16  # entries in one working array of the slice counts
# default caps on n: (2n-1) * 2^(n-1) operators (47,104 at n = 12) and a 2n x 2n matrix
DEFAULT_THEOREM_SET_CAP = 12
DEFAULT_MATRIX_CAP = 100


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


def _check_indices(d: int, **indices: int) -> None:
    for name, value in indices.items():
        if not is_integer(value) or not 1 <= value <= d:
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
    """Row C*j + g, column t: members with {k_r, k_s} = pair g and S[r]*S[s] =
    (+1 if t else -1), for (r, s) the pair start + j of :func:`_layout`.

    With K, S the cached index arrays, S[r]*S[s] = sign[p]*sign[q]; the keys
    k + d*[S < 0] at r and s give key_code 2g + [S[r] = S[s]].  Row C*j +
    start + j is the pair slice {r, s} (k_r = s, S[r] = -S[s]); the others
    are sign slices: k_r != s forces k_s != r, and a pairing has no fixed
    points, so {k_r, k_s} and {r, s} are disjoint.  Operators go in chunks.
    """
    k, sign = a_set.index_arrays
    pairs, columns, column_code, key_code = _layout(a_set.dim)
    keys, rs = k + (1 - sign) * (a_set.dim // 2), columns[:, start:stop]  # (1 - S)/2 = [S < 0]
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
    _check_indices(d, p=p, q=q)
    if p == q:
        raise ValueError(f"p and q must differ, both are {p}")
    column = int(_layout(d)[3][p - 1, q - 1]) // 2
    return int(_slice_counts(a_set, column, column + 1)[column, 0])


def count_sign_slice(a_set: OperatorSet, p: int, q: int, r: int, s: int, sign: int) -> int:
    """Number of members with sign[p]*sign[q] == sign and {k_r, k_s} == {p, q}."""
    d = a_set.dim
    if d < 4:
        raise ValueError("sign slices need four distinct indices, so dimension >= 4")
    _check_indices(d, p=p, q=q, r=r, s=s)
    if len({p, q, r, s}) != 4:
        raise ValueError(f"indices must be distinct, got p={p} q={q} r={r} s={s}")
    if not is_integer(sign) or sign not in (-1, 1):
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
    _check_indices(u.dim, p=p)
    kp = u.pairing[p - 1]
    signs = tuple(-s if i in (p, kp) else s for i, s in enumerate(u.signs, start=1))
    return SignedInvolution(u.pairing, signs)


def build_pairing_matrix(n: int, cap: int | None = DEFAULT_MATRIX_CAP) -> np.ndarray:
    """The symmetric 2n x 2n integer matrix whose entry (i, j) labels the pairing
    that matches coordinates i and j.  For 0-based i, j < 2n-1 it is ((i+j) mod
    (2n-1)) + 1; the last row and column hold (2i mod (2n-1)) + 1, which runs
    over all labels as 2 and 2n-1 are coprime.  ``cap`` bounds ``n`` (None lifts it).
    """
    check_cap(n, cap, "size", "build larger matrices")
    i = np.arange(2 * n)
    matrix = (i[:, None] + i) % (2 * n - 1) + 1
    matrix[-1] = matrix[:, -1] = 2 * i % (2 * n - 1) + 1
    np.fill_diagonal(matrix, 0)
    return matrix


def validate_pairing_matrix(matrix) -> np.ndarray:
    """Raise naming the violated invariant: shape, entry type (int, not bool or
    float), diagonal, symmetry (first failure in row-major order), or rows
    that do not permute {0..2n-1}.  Returns the checked matrix as an int array.
    """
    entries = np.asarray(matrix, dtype=object)  # every entry exact, with its own type
    d = entries.shape[0] if entries.ndim == 2 else 0
    if entries.shape != (d, d) or d == 0 or d % 2:
        raise ValueError(f"matrix must be square with a positive even side, "
                         f"got shape {entries.shape}")
    kinds = {t.__name__ for t in set(map(type, entries.flat))
             if t is bool or not issubclass(t, (int, np.integer))}
    if kinds:
        raise ValueError(f"matrix entries must be integers, got {', '.join(sorted(kinds))}")
    if (bad := entries.diagonal() != 0).any():  # argmax of a bool array: its first True
        i = bad.argmax()
        raise ValueError(f"diagonal entry ({i + 1},{i + 1}) is {entries[i, i]}, not 0")
    if (bad := np.triu(entries != entries.T, 1)).any():
        i, j = divmod(bad.argmax(), d)
        raise ValueError(f"matrix is not symmetric at ({i + 1},{j + 1}): "
                         f"{entries[i, j]} != {entries[j, i]}")
    # range-checked while exact; then -1 marks an entry out of 0..d-1 and the sort is on ints
    ints = np.where((entries >= 0) & (entries < d), entries, -1).astype(np.intp)
    if (bad := (np.sort(ints, axis=1) != np.arange(d)).any(axis=1)).any():
        raise ValueError(f"row {bad.argmax() + 1} is not a permutation of 0..{d - 1}")
    return ints


def extract_pairings(matrix) -> np.ndarray:
    """Read the pairing family off the matrix: row j-1 of the (2n-1) x 2n
    result is pairing j, 1-based, which sends i to the column of row i whose
    entry is j.

    A matrix that passes :func:`validate_pairing_matrix` needs no further
    check of the family.  Each row is a permutation of 0..2n-1 with its 0 on
    the diagonal, so every label j in 1..2n-1 sits in exactly one column
    c != i of row i: pairing j is a map without fixed points.  Symmetry gives
    entry (c, i) = j as well, so pairing j sends c back to i: an involution.
    Every pair {i, c} has exactly one off-diagonal label, so it is matched by
    exactly one pairing.  The labels in row i are distinct, so no two
    pairings send i to the same partner.
    """
    # argsort inverts each row's permutation: column j holds the position of label j
    return np.argsort(validate_pairing_matrix(matrix), axis=1)[:, 1:].T + 1


def build_minimal_balanced(n: int, cap: int | None = DEFAULT_THEOREM_SET_CAP) -> OperatorSet:
    """The balanced set of Theorem 3.4: (2n-1) * 2^(n-1) operators from the pairing matrix.

    Each of the 2n-1 pairings is combined with every antisymmetric sign
    sequence pinned to +1 at coordinate 1; free signs are enumerated in
    binary-counting order with +1 first, so the output is reproducible.
    The function name is historical: this is not the smallest balanced set
    (the three operators of ``s3_basis()`` are balanced at n = 2, where this
    set has six).  ``cap`` bounds ``n`` (None lifts it).
    """
    check_cap(n, cap, "size", "build larger sets")
    return signed_pairings(extract_pairings(build_pairing_matrix(n, cap=None)),
                           sign_design(n)[:2 ** (n - 1)])
