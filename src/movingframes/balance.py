"""Exact combinatorics of balanced operator sets.

Everything here is integer or rational arithmetic: slice counts, the
balanced decision, the sign-flip bijection between opposite-sign slices,
and the round-robin style pairing matrix that yields the balanced set of
Theorem 3.4: (2n-1) * 2^(n-1) operators, every pairing of the family with
every sign pattern pinned at coordinate 1.  The slice counts are integer
numpy arrays from one ``np.bincount`` kernel, so still exact.  It scatters a
set member by member or, where one rule finds that smaller, pairing by
pairing.  A set decodes its tables once, and the balance report, the exact
frame verdict and the frame check's integer form D all read that decode.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .operators import OperatorSet, SignedInvolution, check_cap, sign_design, signed_pairings
from .sphere import is_integer

# Working sizes of the slice counts: entries of one table; the least codes one np.bincount
# scatters; and one pairing's W_pi, in scattered entries.
_BLOCK = 1 << 16
_CHUNK = 1 << 12
_GROUP = 1 << 8
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
    """Constants of :func:`_decoded` in dimension d: ``pairs`` (the pairs r < s,
    lexicographic, 1-based), ``entries`` (rows and columns of the entries r <= s,
    0-based: the diagonal, then the pairs, so table column c is entry d + c, as
    the frame check's D is ordered), ``column_code`` (2C*c for pair c), ``key_code``
    (key_code[p, q] // 2 numbers {p, q}, C where p = q mod d; flat at p*2d + q) and
    ``pair_id`` (pair_id[p, q] = key_code[p, q] // 2 for p, q < d)."""
    rows, cols = np.triu_indices(d, 1)
    pair_id = np.full((d, d), d * (d - 1) // 2, dtype=np.intp)  # C where p = q
    pair_id[rows, cols] = pair_id[cols, rows] = np.arange(len(rows))
    partner, positive = np.arange(2 * d) % d, np.arange(2 * d) // d
    key_code = 2 * pair_id[np.ix_(partner, partner)] + (positive[:, None] == positive)
    entries = np.stack([np.concatenate([np.arange(d), part]) for part in (rows, cols)])
    column_code = 2 * len(rows) * np.arange(len(rows))
    for array in (entries, column_code, key_code, pair_id):
        array.flags.writeable = False
    pairs = list(zip((rows + 1).tolist(), (cols + 1).tolist()))
    return pairs, entries, column_code, key_code, pair_id


def _pairings(k: np.ndarray):
    """The members grouped by pairing, i.e. by partner row K: each pairing's
    first member, each member's pairing and each pairing's member count."""
    narrow = k.astype(np.min_scalar_type(k.shape[1] - 1))  # the same grouping, sorted faster
    keys = narrow.view(np.dtype((np.void, narrow.itemsize * k.shape[1]))).ravel()
    return np.unique(keys, return_index=True, return_inverse=True, return_counts=True)[1:]


def _pairing_grams(sign: np.ndarray, grouping):
    """W_pi = S_pi^T S_pi of each pairing pi of ``grouping`` (:func:`_pairings`),
    in pairing order, shape (P, d, d): sums of +-1 terms, exact.  The pairings
    of one member count go through one batched float32 matmul, exact below 2^24."""
    _, group, count = grouping
    signs = sign.astype(np.int8)[np.lexsort((group, count[group]))]
    grams, start = np.empty((len(count), sign.shape[1], sign.shape[1])), 0
    for size in sorted(set(count.tolist())):  # members by count, then by pairing
        which = np.flatnonzero(count == size)
        block = signs[start:start + size * len(which)].astype(np.float32).reshape(len(which), size, -1)
        grams[which] = block.transpose(0, 2, 1) @ block
        start += size * len(which)
    return grams


def _grouping(a_set: OperatorSet):
    """The set's grouping by pairing (:func:`_pairings`) where its C = d(d-1)/2
    columns are counted pairing by pairing, else None: where 2*C entries per
    pairing, _GROUP for its W_pi and #A*d for finding the pairings come to
    less than #A*C member by member.  The pairings are looked for only where
    that could save more than a table, so small sets never pay for ``np.unique``."""
    k = a_set.index_arrays[0]
    size, d = k.shape
    width = d * (d - 1) // 2
    if size * (width - d) <= _BLOCK:
        return None
    grouping = _pairings(k)
    return grouping if len(grouping[2]) * (2 * width + _GROUP) + size * d < size * width else None


def _decoded(a_set: OperatorSet):
    """(balanced, codes, slices, counts), decoded on first use from the set's
    slice tables and kept read-only in the set; no grouping is kept.

    The tables cover all C columns in blocks of about _BLOCK entries.  Row
    C*j + g, column t of the block from column ``first``: members with
    {k_r, k_s} = pair g and S[r]*S[s] = (+1 if t else -1), for (r, s) the pair
    first + j; row C*j + first + j is the pair slice {r, s}.  They are
    scattered by ``np.bincount``, at least _CHUNK codes and as many as a table
    holds at a time, either member by member, each member's keys
    K + d*[S < 0] at r and s giving key_code 2g + [S[r] = S[s]] (:func:`_layout`),
    or (see :func:`_grouping`) pairing by pairing, each pairing's K, under d,
    giving 2g + 1, where it adds the counts of its members at sign -1 and +1,
    (|pi| -+ W_pi[r, s])/2, at 2g and 2g + 1.  Each table is decoded as soon
    as it is filled: ``counts``, the pair counts #A_{r,s} by ``pair_id``, read
    from the pair slices (all at sign -1); ``codes``, C*c + g ascending, of
    each other slice of pair g at column c whose two counts differ, that is
    each failure of condition ii, and ``slices`` their (count_minus, count_plus)."""
    decode = vars(a_set).get("_decode")
    if decode is None:
        k, sign = a_set.index_arrays
        d, size = a_set.dim, len(a_set)
        pairs, entries, column_code, key_code, _ = _layout(d)
        columns = len(pairs)
        grouping = _grouping(a_set)
        if grouping is None:
            keys, weights = k + (1 - sign) * (d // 2), None  # (1 - S)/2 = [S < 0]
        else:
            members = grouping[2][:, None]
            grams = _pairing_grams(sign, grouping)[:, entries[0, d:], entries[1, d:]]
            weights = np.stack([members - grams, members + grams]) / 2  # exact halves of even integers
            keys, weights = k[grouping[0]], weights.astype(np.min_scalar_type(members.max()))
        most = max(1, _BLOCK // (2 * columns))
        parts = []
        for first in range(0, columns, most):
            last = min(first + most, columns)
            rs, width = entries[:, d + first:d + last], last - first
            cells = 2 * columns * width
            step = max(1, max(_CHUNK, cells) // (width if weights is None else 2 * width))
            for m in range(0, len(keys), step):
                kk = keys[m:m + step].take(rs, axis=1)
                codes = key_code.take(kk[:, 0] * (2 * d) + kk[:, 1])  # key_code[key_r, key_s]
                codes += column_code[:width]
                part = None
                if weights is not None:
                    codes, part = np.concatenate([codes - 1, codes]), weights[:, m:m + step, first:last].ravel()
                scattered = np.bincount(codes.ravel(), part, cells)  # with weights, floats of exact integers
                table = np.add(table, scattered, out=table) if m else scattered
            table = table.reshape(-1, 2)
            pair = table[first::columns + 1]  # row C*j + first + j: the pair slice of column first + j
            counts = pair[:, 0].copy()
            pair[...] = 0  # so only the sign slices are left to differ
            rows = (table[:, 1] != table[:, 0]).nonzero()[0]
            parts.append((rows + columns * first, table.take(rows, axis=0), counts))
        codes, slices, counts = map(np.concatenate, zip(*parts)) if len(parts) > 1 else parts[0]
        # ints also from weights
        slices, counts = slices.astype(int, copy=False), counts.astype(int, copy=False)
        codes.flags.writeable = slices.flags.writeable = counts.flags.writeable = False
        count, rest = divmod(size, d - 1)
        balanced = not rest and not len(codes) and counts.tolist() == [count] * columns
        decode = vars(a_set)["_decode"] = (balanced, codes, slices, counts)
    return decode


def count_pair_slice(a_set: OperatorSet, p: int, q: int) -> int:
    """Number of members whose pairing matches coordinate p with coordinate q."""
    _check_indices(a_set.dim, p=p, q=q)
    if p == q:
        raise ValueError(f"p and q must differ, both are {p}")
    return int(np.count_nonzero(a_set.index_arrays[0][:, p - 1] == q - 1))


def count_sign_slice(a_set: OperatorSet, p: int, q: int, r: int, s: int, sign: int) -> int:
    """Number of members with sign[p]*sign[q] == sign and {k_r, k_s} == {p, q}:
    as {k_p, k_q} = {r, s} and S[k_i] = -S[i], sign[p]*sign[q] = sign[r]*sign[s]."""
    d = a_set.dim
    if d < 4:
        raise ValueError("sign slices need four distinct indices, so dimension >= 4")
    _check_indices(d, p=p, q=q, r=r, s=s)
    if len({p, q, r, s}) != 4:
        raise ValueError(f"indices must be distinct, got p={p} q={q} r={r} s={s}")
    if not is_integer(sign) or sign not in (-1, 1):
        raise ValueError(f"sign must be -1 or +1, got {sign!r}")
    k, signs = (array[:, [r - 1, s - 1]] for array in a_set.index_arrays)
    return int(np.count_nonzero((np.sort(k, axis=1) == sorted((p - 1, q - 1))).all(axis=1)
                                & (signs[:, 0] * signs[:, 1] == sign)))


def is_balanced(a_set: OperatorSet) -> BalanceReport:
    """Decide balance exactly.

    Condition i requires every pair slice to hold exactly #A/(2n-1) members;
    the comparison is done as #A_{p,q} * (2n-1) == #A so a non-divisible set
    size fails automatically.  Condition ii compares the two sign slices of
    every four distinct indices; it is vacuous for n = 1.  Both are worded
    from the set's one decode of the slice tables (:func:`_decoded`), never
    a d^4 table: the pair counts, and the sign slices whose two counts differ.
    """
    d, size = a_set.dim, len(a_set)
    pairs = _layout(d)[0]
    columns = len(pairs)
    balanced, codes, slices, counts = _decoded(a_set)
    cond_ii = []
    for code, (minus, plus) in zip(codes.tolist(), slices.tolist()):
        column, pair = divmod(code, columns)
        cond_ii.append((*pairs[pair], *pairs[column], plus, minus))
    cond_ii.sort()
    required = Fraction(size, d - 1)
    cond_i = [(*pair, count, required) for pair, count in zip(pairs, counts.tolist())
              if count * (d - 1) != size]
    return BalanceReport(balanced=balanced, set_size=size,
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
    n = check_cap(n, cap, "size", "build larger matrices")
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
    n = check_cap(n, cap, "size", "build larger sets")
    return signed_pairings(extract_pairings(build_pairing_matrix(n, cap=None)),
                           sign_design(n)[:2 ** (n - 1)])
