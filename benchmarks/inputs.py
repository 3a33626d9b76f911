"""Seeded benchmark inputs and independent reference checks.

Everything here works on the document format alone (1-based pairings,
+-1 signs) and never imports ``movingframes``.  The inputs for one seed are
therefore the same whatever the package under test does, and the checks
do not trust the code they check.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction

import numpy as np


def _matchings(items: list[int]):
    """Perfect matchings of ``items`` as sorted lists of (smaller, larger)."""
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for j, partner in enumerate(rest):
        for tail in _matchings(rest[:j] + rest[j + 1:]):
            yield [(first, partner)] + tail


def _pairing(pairs, d: int) -> tuple[int, ...]:
    k = [0] * d
    for i, j in pairs:
        k[i - 1], k[j - 1] = j, i
    return tuple(k)


def _signings(pairs, d: int, fix_first: bool = False):
    """Antisymmetric sign vectors for a matching; ``fix_first`` pins coordinate 1 to +1."""
    free = pairs[1:] if fix_first else pairs
    for combo in itertools.product((1, -1), repeat=len(free)):
        s = [0] * d
        if fix_first:
            i, j = pairs[0]
            s[i - 1], s[j - 1] = 1, -1
        for (i, j), c in zip(free, combo):
            s[i - 1], s[j - 1] = c, -c
        yield tuple(s)


def full_set(n: int) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    """All (2n)!/n! signed involutions on R^(2n) as (pairing, signs)."""
    d = 2 * n
    return [(_pairing(m, d), s)
            for m in _matchings(list(range(1, d + 1)))
            for s in _signings(m, d)]


def minimal_set(n: int) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    """A balanced set of (2n-1)*2^(n-1) operators from a round-robin one-factorisation.

    Round t of the circle method matches vertex t with the fixed vertex and
    t-j with t+j (mod 2n-1); each round is combined with every sign vector
    pinned to +1 at coordinate 1.
    """
    d = 2 * n
    m = d - 1
    members = []
    for t in range(m):
        pairs = [(t, m)] + [((t - j) % m, (t + j) % m) for j in range(1, n)]
        pairs = sorted((min(a, b) + 1, max(a, b) + 1) for a, b in pairs)
        members += [(_pairing(pairs, d), s) for s in _signings(pairs, d, fix_first=True)]
    return members


def relabel(ops, perm: list[int]):
    """Conjugate every operator by the coordinate permutation i -> perm[i] (0-based)."""
    d = len(perm)
    out = []
    for pairing, signs in ops:
        k = [0] * d
        s = [0] * d
        for i in range(d):
            k[perm[i]] = perm[pairing[i] - 1] + 1
            s[perm[i]] = signs[i]
        out.append((tuple(k), tuple(s)))
    return out


class SweepSource:
    """The seeded stream of candidate sets for the sweep.

    Candidate i is a relabelled minimal balanced set (n = 2..5 in turn) when
    i % 4 == 0, else a random nonempty subset of the full set at n = 2 or 3.
    Each candidate is (dim, [(pairing, signs), ...], kind).

    Subset sizes follow a golden-ratio sequence from a seeded start, so every
    seed spreads them evenly over 1..#full and the work per set varies less
    from seed to seed than with independent sizes; the members are random.
    """

    KINDS = ("minimal", "full2", "full3", "full2")
    GOLDEN = (5 ** 0.5 - 1) / 2

    def __init__(self, seed: int):
        self.rng = random.Random(seed)
        self.minimal = {n: minimal_set(n) for n in (2, 3, 4, 5)}
        self.full = {n: full_set(n) for n in (2, 3)}
        self.phase = {n: self.rng.random() for n in (2, 3)}
        self.count = 0

    def next(self):
        i = self.count
        self.count += 1
        kind = self.KINDS[i % 4]
        if kind == "minimal":
            n = 2 + (i // 4) % 4
            perm = list(range(2 * n))
            self.rng.shuffle(perm)
            ops = relabel(self.minimal[n], perm)
            self.rng.shuffle(ops)
        else:
            n = int(kind[-1])
            pool = self.full[n]
            self.phase[n] = (self.phase[n] + self.GOLDEN) % 1.0
            size = 1 + int(self.phase[n] * len(pool))
            ops = [pool[j] for j in sorted(self.rng.sample(range(len(pool)), size))]
        return 2 * n, ops, kind


def drop_indices(records: list[dict], seed: int) -> set[int]:
    """Seeded choice of 1% of the records (at least one), by canonical order.

    Records are ranked by (pairing, signs), so the choice depends on the set
    and the seed, not on the order in which the generator wrote them.
    """
    order = sorted(range(len(records)),
                   key=lambda i: (records[i]["pairing"], records[i]["signs"]))
    k = max(1, len(records) // 100)
    return {order[i] for i in random.Random(seed).sample(range(len(records)), k)}


# ---- reference checks -------------------------------------------------------

def arrays(records) -> tuple[np.ndarray, np.ndarray]:
    """(K, S): 0-based partner indices and signs, one row per operator record."""
    k = np.array([r["pairing"] for r in records], dtype=np.int64) - 1
    s = np.array([r["signs"] for r in records], dtype=np.int64)
    return k, s


def valid_operators(k: np.ndarray, s: np.ndarray) -> bool:
    """Every row a fixed-point-free involution with antisymmetric +-1 signs, no duplicates."""
    m, d = k.shape
    if k.min() < 0 or k.max() >= d:
        return False
    idx = np.arange(d)
    rows = np.arange(m)[:, None]
    return bool(np.all(k != idx)
                and np.all(k[rows, k] == idx)
                and np.all(np.abs(s) == 1)
                and np.all(s[rows, k] == -s)
                and len(np.unique(np.hstack([k, s]), axis=0)) == m)


def balance_failures(k: np.ndarray, s: np.ndarray):
    """Every failing slice of the two balance conditions, counted from scratch.

    Returns (condition i, condition ii) as sorted lists of tuples
    (p, q, observed, required) and (p, q, r, s, count at +1, count at -1),
    1-based, in the shape of the package's balance report.
    """
    m, d = k.shape
    idx = np.arange(d)
    upper = idx[None, :] < k
    pair = np.bincount((idx[None, :] * d + k)[upper], minlength=d * d).reshape(d, d)
    required = Fraction(m, d - 1)
    cond_i = [(p + 1, q + 1, int(pair[p, q]), str(required))
              for p in range(d) for q in range(p + 1, d)
              if pair[p, q] * (d - 1) != m]

    plus = np.zeros(d ** 4, dtype=np.int64)
    minus = np.zeros(d ** 4, dtype=np.int64)
    for r in range(d - 1):
        cols = np.arange(r + 1, d)
        kr = np.repeat(k[:, r:r + 1], len(cols), axis=1)
        ks = k[:, cols]
        keep = kr != cols[None, :]
        p = np.minimum(kr, ks)
        q = np.maximum(kr, ks)
        sign = np.take_along_axis(s, p, 1) * np.take_along_axis(s, q, 1)
        key = ((p * d + q) * d + r) * d + cols[None, :]
        plus += np.bincount(key[keep & (sign > 0)], minlength=d ** 4)
        minus += np.bincount(key[keep & (sign < 0)], minlength=d ** 4)
    cond_ii = []
    for key in np.nonzero(plus != minus)[0]:
        key = int(key)
        p, q, r, c = key // d ** 3, key // d ** 2 % d, key // d % d, key % d
        cond_ii.append((p + 1, q + 1, r + 1, c + 1, int(plus[key]), int(minus[key])))
    return cond_i, cond_ii


def cross_term(k: np.ndarray, s: np.ndarray, point, pair) -> float:
    """Entry ``pair`` (1-based) of the augmented frame operator at ``point``.

    The augmented system is sqrt(#A/(2n-1))*a followed by the images U(a),
    whose coordinate i is sign[k_i] * a[k_i].
    """
    m, d = k.shape
    a = np.asarray(point, dtype=float)
    images = np.take_along_axis(s, k, 1) * a[k]
    r, c = pair[0] - 1, pair[1] - 1
    return float(m / (d - 1) * a[r] * a[c] + images[:, r] @ images[:, c])
