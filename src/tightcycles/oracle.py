"""Exact ground truth at small scale: tight-Hamiltonicity by bitmask DP,
permutation-level brute force, exact bounded path counting, and the
brute-force counts the exact deviation and cherry modes are checked against."""

from __future__ import annotations

from fractions import Fraction
from typing import Optional

import numpy as np

from . import _pykernels
from .density import as_density_fraction
from .errors import BudgetError, UncertifiedResult
from .hypercore import Hypergraph3, TightPath, bits, checked_mask, min_degree, verify_tight_cycle

__all__ = [
    "DP_MAX_N",
    "EXHAUSTIVE_MAX_N",
    "PATHS_MAX_N",
    "PATHS_MAX_INNER",
    "has_tight_hamilton",
    "extract_tight_hamilton",
    "exhaustive_hamilton",
    "count_paths_between",
    "subset_min_sum",
    "brute_ev_raw",
    "naive_cherry_count",
]


# the largest inputs each exact oracle accepts; beyond them it raises BudgetError
DP_MAX_N = 20
EXHAUSTIVE_MAX_N = 9
PATHS_MAX_N = 14
PATHS_MAX_INNER = 6


def _dp_cycle(H: Hypergraph3) -> Optional[list[int]]:
    if H.n > DP_MAX_N:
        raise BudgetError(f"DP budget exceeded (n={H.n} > {DP_MAX_N})")
    if H.n < 4:
        return None
    # a tight cycle puts every vertex into three edges
    if min_degree(H) < 3:
        return None
    seq = _pykernels.tight_hamilton_cycle(H.n, H.nbr_flat())
    # a Hamilton cycle visits every vertex once, which verify_tight_cycle
    # alone does not check
    if seq is not None and not (
        sorted(seq) == list(range(H.n)) and verify_tight_cycle(H, seq)
    ):
        raise UncertifiedResult("DP produced an uncertified cycle")
    return seq


def has_tight_hamilton(H: Hypergraph3) -> bool:
    """Exact decision by subset DP over (visited set, ordered end pair)."""
    return _dp_cycle(H) is not None


def extract_tight_hamilton(H: Hypergraph3) -> Optional[TightPath]:
    """A tight Hamilton cycle when one exists, verified before return."""
    seq = _dp_cycle(H)
    return None if seq is None else TightPath(tuple(seq), is_cycle=True)


def exhaustive_hamilton(H: Hypergraph3) -> bool:
    """Permutation-level brute force with early pruning; independent of the DP."""
    if H.n > EXHAUSTIVE_MAX_N:
        raise BudgetError(f"exhaustive budget exceeded (n={H.n} > {EXHAUSTIVE_MAX_N})")
    n = H.n
    if n < 4:
        return False

    rest = list(range(1, n))

    def extend(seq: list[int], remaining: set) -> bool:
        if len(seq) >= 3 and not H.has_edge(seq[-3], seq[-2], seq[-1]):
            return False
        if not remaining:
            return H.has_edge(seq[-2], seq[-1], seq[0]) and H.has_edge(
                seq[-1], seq[0], seq[1]
            )
        for v in sorted(remaining):
            seq.append(v)
            remaining.discard(v)
            if extend(seq, remaining):
                return True
            remaining.add(v)
            seq.pop()
        return False

    return extend([0], set(rest))


def count_paths_between(
    H: Hypergraph3,
    from_pair: tuple[int, int],
    to_pair: tuple[int, int],
    inner: int,
) -> int:
    """Exact number of tight paths from from_pair to to_pair with exactly
    ``inner`` inner vertices, by pruned backtracking."""
    if inner > PATHS_MAX_INNER:
        raise BudgetError(f"inner budget exceeded ({inner} > {PATHS_MAX_INNER})")
    if H.n > PATHS_MAX_N:
        raise BudgetError(f"path-count budget exceeded (n={H.n} > {PATHS_MAX_N})")
    x, y = from_pair
    z, w = to_pair
    endmask = checked_mask(H.n, from_pair, "from_pair") | checked_mask(H.n, to_pair, "to_pair")
    if endmask.bit_count() != 4:
        raise ValueError("endpoint vertices must be distinct")
    if inner < 0:
        raise ValueError("inner must be nonnegative")
    full = H.vertex_mask()

    def rec(u: int, v: int, used: int, left: int) -> int:
        if left == 0:
            if (H.nbr_mask(u, v) >> z) & 1 and (H.nbr_mask(v, z) >> w) & 1:
                return 1
            return 0
        total = 0
        cand = H.nbr_mask(u, v) & full & ~used & ~endmask
        for t in bits(cand):
            total += rec(v, t, used | (1 << t), left - 1)
        return total

    return rec(x, y, (1 << x) | (1 << y), inner)


# -- brute-force counts -----------------------------------------------------------
#
# These deliberately avoid the per-element sign shortcut the exact modes rely
# on: inner minimisations materialise every subset sum by iterative doubling,
# so each one genuinely enumerates the full search space.


def subset_min_sum(values) -> int:
    """Minimum over all subsets of the sum of chosen values, by doubling.

    Materialises all 2^k subset sums; k is capped by the caller.
    """
    sums = np.zeros(1, dtype=np.int64)
    for v in values:
        sums = np.concatenate([sums, sums + np.int64(v)])
    return int(sums.min())


def brute_ev_raw(H: Hypergraph3, d) -> Fraction:
    """min over (X, P) of e(X,P) - d|X||P| by exhausting X and all P subsets."""
    d = as_density_fraction(d)
    p, q = d.numerator, d.denominator
    n = H.n
    pairs = [(y, z) for y in range(n) for z in range(n) if y != z]
    best = 0
    for xbits in range(1 << n):
        k = bin(xbits).count("1")
        margins = [
            (H.nbr_mask(y, z) & xbits).bit_count() * q - p * k for y, z in pairs
        ]
        best = min(best, subset_min_sum(margins))
    return Fraction(best, q)


def naive_cherry_count(H: Hypergraph3) -> int:
    """Ordered 4-tuples of distinct vertices with both overlapping edges."""
    n = H.n
    total = 0
    for x in range(n):
        for y in range(n):
            for z in range(n):
                for w in range(n):
                    if len({x, y, z, w}) != 4:
                        continue
                    if H.has_edge(x, y, z) and H.has_edge(y, z, w):
                        total += 1
    return total
