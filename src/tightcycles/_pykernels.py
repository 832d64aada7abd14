"""The exact kernels: the Hamilton subset DP and the ev / vvv / ee
deviation minimisations.

The Hamilton kernel runs the subset DP on big-integer bitmaps (one bitmap
per ordered end pair, one bit per visited set), which keeps it usable up to
n around 16-18.  The deviation kernels read the dense 0/1 edge tensor and
sweep their subsets as integer numpy arrays; ev takes its subsets in blocks
of ``BLOCK`` rows, which bounds its memory at any n.
"""

from __future__ import annotations

import numpy as np

from .errors import UncertifiedResult

NAME = "pure"
BLOCK = 256


def _ctz(x: int) -> int:
    return (x & -x).bit_length() - 1


def tight_hamilton_cycle(n: int, nbr: tuple[int, ...]) -> list[int] | None:
    """Find a tight Hamilton cycle, or None.

    ``nbr[u*n+v]`` is the bitmask of vertices w with {u,v,w} an edge.
    The cycle is rooted at vertex 0; roots (0, b) are tried in order and the
    closing state must satisfy last > b, which canonicalises orientation.
    """
    if n < 4:
        return None
    full = (1 << n) - 1
    # bitmap over visited-set indices in which bit w is clear
    without = []
    for w in range(n):
        block = (1 << (1 << w)) - 1
        pat = block
        width = 1 << (w + 1)
        while width < (1 << n):
            pat |= pat << width
            width <<= 1
        without.append(pat)

    for b in range(1, n):
        if not nbr[b]:  # pair (0, b) extends through N(0, b)
            continue
        seed_mask = 1 | (1 << b)
        seed_bit = 1 << seed_mask
        dp: dict[int, int] = {b: seed_bit}  # key: ordered pair u*n+v
        for _ in range(n - 2):
            changed = False
            for key in list(dp):
                cur = dp[key]
                v = key % n
                ext = nbr[key]
                while ext:
                    w = _ctz(ext)
                    ext &= ext - 1
                    add = (cur & without[w]) << (1 << w)
                    if add:
                        k2 = v * n + w
                        old = dp.get(k2, 0)
                        new = old | add
                        if new != old:
                            dp[k2] = new
                            changed = True
            if not changed:
                break
        # close: last pair (u, v), edges {u,v,0} and {v,0,b}, v > b
        for key, bitmap in dp.items():
            if not (bitmap >> full) & 1:
                continue
            u, v = divmod(key, n)
            if v <= b:
                continue
            if not (nbr[key] & 1):
                continue
            if not (nbr[v * n] >> b) & 1:
                continue
            return _extract(n, nbr, dp, b, u, v, full)
    return None


def _extract(n, nbr, dp, b, u, v, mask):
    seed_mask = 1 | (1 << b)
    rev = [v, u]
    while mask != seed_mask:
        mask2 = mask ^ (1 << v)
        found = False
        for w in range(n):
            if w == u or not (mask2 >> w) & 1:
                continue
            if not (nbr[w * n + u] >> v) & 1:
                continue
            if (dp.get(w * n + u, 0) >> mask2) & 1:
                rev.append(w)
                u, v = w, u
                mask = mask2
                found = True
                break
        if not found:
            raise UncertifiedResult("DP extraction lost the predecessor chain")
    rev.reverse()
    return rev


def _wide(p: int, q: int, n: int):
    """int64 while no scaled objective can reach 2^63, Python ints beyond
    (a density given as a long decimal string has a large denominator)."""
    return np.int64 if 2 * (p + q) * n**3 < 2**63 else object


def _rows(codes: np.ndarray, n: int) -> np.ndarray:
    """The 0/1 membership rows of the bitmasks ``codes`` over ``n`` vertices."""
    return (codes[:, None] >> np.arange(n, dtype=np.int64)) & 1


def ev_exact(T: np.ndarray, p: int, q: int) -> tuple[int, int]:
    """Exact ev deviation numerator (denominator q) and the minimising X mask.

    ``T`` is the 0/1 edge tensor of :meth:`Hypergraph3.edge_tensor`.  For
    fixed X the optimal P is the set of negative-margin pairs, so the
    objective is 2 * sum over unordered pairs of min(0, |N(y,z) ∩ X|*q - p*|X|).
    X runs over Gray order in blocks of at most ``BLOCK`` rows, and the first
    strict minimum in that order is kept.
    """
    n = len(T)
    iu, ju = np.triu_indices(n, 1)
    inc = T[:, iu, ju]  # inc[x, pair] = [x ∈ N(pair)]
    dt = _wide(p, q, n)
    best = 0
    best_mask = 0
    for lo in range(0, 1 << n, BLOCK):
        i = np.arange(lo, min(lo + BLOCK, 1 << n), dtype=np.int64)
        gray = i ^ (i >> 1)
        X = _rows(gray, n)
        k = X.sum(axis=1).astype(dt)
        s = 2 * np.minimum(0, (X @ inc).astype(dt) * q - p * k[:, None]).sum(axis=1)
        j = int(np.argmin(s))
        if s[j] < best:
            best = int(s[j])
            best_mask = int(gray[j])
    return best, best_mask


def vvv_exact(T: np.ndarray, p: int, q: int) -> tuple[int, int, int]:
    """Exact vvv deviation numerator and minimising (X, Y) masks.

    Outer Gray walk over X keeping B[b, z] = #{a in X : abz an edge}; every Y
    is scored at once as M = Y @ B, and for fixed (X, Y) the optimal Z
    collects the vertices with negative margin.  The first strict minimum in
    (X, Y) Gray order is kept.
    """
    n = len(T)
    j = np.arange(1 << n, dtype=np.int64)
    ygray = j ^ (j >> 1)
    Y = _rows(ygray, n)
    dt = _wide(p, q, n)
    ky = Y.sum(axis=1).astype(dt)
    B = np.zeros((n, n), dtype=np.int64)
    best = 0
    bx = by = 0
    x = 0
    kx = 0
    for i in range(1, 1 << n):  # X = {} scores 0 and never improves on it
        v = _ctz(i)
        sign = -1 if (x >> v) & 1 else 1
        x ^= 1 << v
        kx += sign
        B += sign * T[v]
        s = np.minimum(0, (Y @ B).astype(dt) * q - (p * kx) * ky[:, None]).sum(axis=1)
        t = int(np.argmin(s))
        if s[t] < best:
            best = int(s[t])
            bx = x
            by = int(ygray[t])
    return best, bx, by


def ee_exact(T: np.ndarray, p: int, q: int) -> tuple[int, int]:
    """Exact ee deviation numerator and a minimising P mask.

    The mask uses the pair order of :func:`ee_pair_list`.  For fixed P the
    optimal Q collects ordered pairs (y, z) with negative margin, and the
    terms with middle vertex y depend only on the section
    S_y = {x : (x, y) in P}, so the minimum splits over y: each y takes the
    first S ⊆ V∖{y} minimising sum over z != y of
    min(0, q*|S ∩ N(y,z)| - p*|S∖{z}|).  Only triples of three distinct
    vertices count.
    """
    n = len(T)
    dt = _wide(p, q, n)
    S = _rows(np.arange(1 << max(n - 1, 0), dtype=np.int64), n - 1)
    size = S.sum(axis=1, keepdims=True)
    total = 0
    pmask = 0
    for y in range(n):
        others = [x for x in range(n) if x != y]
        a = S @ T[y][np.ix_(others, others)]  # |S ∩ N(y, z)|
        f = np.minimum(0, a.astype(dt) * q - p * (size - S).astype(dt)).sum(axis=1)
        t = int(np.argmin(f))
        total += int(f[t])
        for w in range(n - 1):
            if (t >> w) & 1:
                x = others[w]
                pmask |= 1 << (x * (n - 1) + (y if y < x else y - 1))
    return total, pmask


def ee_pair_list(n: int) -> list[tuple[int, int]]:
    return [(x, y) for x in range(n) for y in range(n) if x != y]
