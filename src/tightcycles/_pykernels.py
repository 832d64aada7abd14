"""The exact kernels: the Hamilton subset DP and the ev / vvv / ee
deviation minimisations.

The Hamilton kernel runs the subset DP on big-integer bitmaps: one bitmap
per ordered end pair, one bit per visited set.  Every set of a run holds
vertex 0, and in a run rooted at the pair (0, b) also b, so a run indexes
its sets by the other vertices alone (its :class:`_Frame`): n - 2 of them in
a rooted run and n - 1 in the union run below, a bitmap 4x and 2x smaller
than one over all n.  A round expands only the end pairs whose bitmap grew
since their last expansion.  The kernel runs the first root alone.  If that
finds no cycle, one union run seeded with every other root shows which of
them could close, and only those are rerun: a skipped root's table lies
inside the union's, so it had no closing state.  On every two-colouring
host tried (``example1``, n = 12 to 20) the union admits no root, so each
costs two runs instead of n - 1, and n = 20 (``oracle.DP_MAX_N``) takes
0.3-0.4 s on 2 vCPU (five seeds).

The deviation kernels read the dense 0/1 edge tensor and sweep their subsets
as 0/1 rows whose counts are float32 products (see :func:`int_matmul`); ev
takes its subsets in blocks of ``BLOCK`` rows, which bounds its memory at
any n.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .errors import UncertifiedResult

NAME = "pure"
BLOCK = 256


def _ctz(x: int) -> int:
    return (x & -x).bit_length() - 1


def tight_hamilton_cycle(n: int, nbr: tuple[int, ...]) -> list[int] | None:
    """Find a tight Hamilton cycle, or None.

    ``nbr[u*n+v]`` is the bitmask of vertices w with {u,v,w} an edge.
    The cycle is rooted at vertex 0: a rooted run for the pair (0, b) grows
    every tight path 0, b, ... and closes at a full state (u, v) with
    {u,v,0} and {v,0,b} edges and v > b, which canonicalises orientation.
    Roots are tried in ascending order and the first that closes is
    returned, in three stages:

    1. the first root runs as a rooted run;
    2. if it fails, one union run is seeded with every other root at once.
       Its transitions are the same monotone ORs, so its table is the union
       of the rooted tables, and a root b is admitted when some full union
       state (u, v) has {u,v,0} an edge, b < v and b in N(v, 0);
    3. only the admitted roots are rerun as rooted runs, in ascending order.

    A root that is not admitted has no closing state in its own table, so
    skipping it changes neither the answer nor the cycle returned.
    """
    if n < 4:
        return None
    roots = [b for b in range(1, n) if nbr[b]]  # (0, b) extends through N(0, b)
    if not roots:
        return None
    # over the union run's n - 1 live vertices; a rooted run's bitmaps hold
    # only the low 2^(n-2) indices, where the first n - 2 patterns agree
    # with its own
    pats = _patterns(n - 1)

    def rooted(b):
        frame = _frame(n, 1 | 1 << b, pats)
        dp = _grow(n, nbr, frame, {b: 1})  # the seed set {0, b} has index 0
        return _close(n, nbr, dp, frame, b)

    cycle = rooted(roots[0])
    if cycle is not None:
        return cycle
    frame = _frame(n, 1, pats)
    union = _grow(n, nbr, frame, {b: 1 << frame.bit[b] for b in roots[1:]})
    admitted = 0
    for key, bitmap in union.items():
        if (bitmap >> frame.full) & 1 and nbr[key] & 1:
            v = key % n
            admitted |= nbr[v * n] & ((1 << v) - 1)
    del union  # up to n² bitmaps of 2^(n-1) bits, freed before the reruns
    for b in roots[1:]:
        if (admitted >> b) & 1:
            cycle = rooted(b)
            if cycle is not None:
                return cycle
    return None


class _Frame(NamedTuple):
    """How a run indexes its visited sets.  Every set holds the fixed
    vertices (0, and b in a rooted run), so a set is indexed by its live
    vertices alone: the live vertex of rank r (ascending) is index bit
    ``1 << r``, and a fixed vertex has index bit 0."""

    live: int  # mask of the live vertices
    bit: list[int]  # index bit of each vertex
    without: list[int]  # per vertex, the indices whose sets miss it
    full: int  # index of the full set


def _patterns(m):
    """For each rank r < m, the bitmap over 2^m indices in which bit r of
    the index is clear."""
    pats = []
    for r in range(m):
        pat = (1 << (1 << r)) - 1
        width = 1 << (r + 1)
        while width < (1 << m):
            pat |= pat << width
            width <<= 1
        pats.append(pat)
    return pats


def _frame(n, fixed, pats):
    """The frame of the runs whose sets all hold the vertex mask ``fixed``;
    ``pats`` are :func:`_patterns` of at least as many ranks as there are
    live vertices."""
    live = ((1 << n) - 1) & ~fixed
    bit = [0] * n
    without = [0] * n
    r = 0
    for w in range(n):
        if (live >> w) & 1:
            bit[w] = 1 << r
            without[w] = pats[r]
            r += 1
    return _Frame(live, bit, without, (1 << r) - 1)


def _grow(n, nbr, frame, dp):
    """Extend the tight paths of ``dp`` (ordered end pair u*n+v -> bitmap
    of visited-set indices) in place until every reachable state is set.

    A key is expanded only when its bitmap has grown since its last
    expansion (it is in ``dirty``): targets only grow, so expanding it again
    would add nothing, and the table and its key order stay those of
    expanding every key in every round."""
    live, bit, without = frame.live, frame.bit, frame.without
    dirty = set(dp)
    for _ in range(n - 2):
        if not dirty:
            break
        for key in list(dp):
            if key not in dirty:
                continue
            dirty.remove(key)
            cur = dp[key]
            v = key % n
            ext = nbr[key] & live
            while ext:
                w = _ctz(ext)
                ext &= ext - 1
                add = (cur & without[w]) << bit[w]
                if add:
                    k2 = v * n + w
                    old = dp.get(k2, 0)
                    new = old | add
                    if new != old:
                        dp[k2] = new
                        dirty.add(k2)
    return dp


def _close(n, nbr, dp, frame, b):
    """The cycle of the first closing state of root b's table, or None."""
    # last pair (u, v), edges {u,v,0} and {v,0,b}, v > b
    for key, bitmap in dp.items():
        if not (bitmap >> frame.full) & 1:
            continue
        u, v = divmod(key, n)
        if v <= b:
            continue
        if not (nbr[key] & 1):
            continue
        if not (nbr[v * n] >> b) & 1:
            continue
        return _extract(n, nbr, dp, frame, u, v)
    return None


def _extract(n, nbr, dp, frame, u, v):
    """The path of a rooted table's full state (u, v), read back to the
    seed (0, b), whose index is 0.  Each step drops the live end v from the
    set, so the walk ends after at most n - 2 steps."""
    bit = frame.bit
    mask = frame.full
    rev = [v, u]
    while mask and mask & bit[v]:
        mask2 = mask ^ bit[v]
        for w in range(n):
            if w == u or (mask2 & bit[w]) != bit[w]:  # w not in the set
                continue
            if (nbr[w * n + u] >> v) & 1 and (dp.get(w * n + u, 0) >> mask2) & 1:
                break
        else:
            break
        rev.append(w)
        u, v = w, u
        mask = mask2
    if mask:
        raise UncertifiedResult("DP extraction lost the predecessor chain")
    rev.reverse()
    return rev


def _wide(p: int, q: int, n: int):
    """int64 while no scaled objective can reach 2^63, Python ints beyond
    (a density given as a long decimal string has a large denominator)."""
    return np.int64 if 2 * (p + q) * n**3 < 2**63 else object


def int_matmul(a, b, out=None) -> np.ndarray:
    """``a @ b`` for arrays of non-negative integers, run in float32 BLAS and
    returned as int64: in ``out``, an int64 array of the product's shape, when
    one is given.

    The rule for every count in this library: such a product may run in
    float32 when each of its sums is at most 2^24, because every partial sum
    is then an integer that float32 holds exactly (numpy's integer matmul has
    no BLAS behind it).  The callers' sums are at most n or n^2.  Margins are
    taken from the int64 result in ``_wide``'s dtype; a float32 array cast to
    ``object`` would give Python floats.
    """
    if out is None:
        return np.matmul(a, b, dtype=np.float32).astype(np.int64)
    return np.matmul(a, b, dtype=np.float32, out=out, casting="unsafe")


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
    # every block counts into one buffer and takes its margins in place: fresh
    # block-sized arrays can let malloc trim the heap top after each block and
    # fault it back in on the next (1472 minor faults per call at n = 13)
    counts = np.empty((min(BLOCK, 1 << n), len(iu)), dtype=np.int64)
    best = 0
    best_mask = 0
    for lo in range(0, 1 << n, BLOCK):
        i = np.arange(lo, min(lo + BLOCK, 1 << n), dtype=np.int64)
        gray = i ^ (i >> 1)
        X = _rows(gray, n)
        k = X.sum(axis=1).astype(dt)
        m = int_matmul(X, inc, out=counts[: len(X)]).astype(dt, copy=False)
        m *= q
        m -= p * k[:, None]
        s = 2 * np.minimum(m, 0, out=m).sum(axis=1)
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
    Y = Y.astype(np.float32)  # cast once, not on every product
    B = np.zeros((n, n), dtype=np.float32)  # entries at most n, sums of Y @ B at most n^2
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
        s = np.minimum(0, int_matmul(Y, B).astype(dt) * q - (p * kx) * ky[:, None]).sum(axis=1)
        t = int(np.argmin(s))
        if s[t] < best:
            best = int(s[t])
            bx = x
            by = int(ygray[t])
    return best, bx, by


def ee_exact(T: np.ndarray, p: int, q: int) -> tuple[int, int]:
    """Exact ee deviation numerator and a minimising P mask.

    Bit i of the mask is the i-th ordered pair (x, y), x != y, in row-major
    order (x first, the diagonal skipped).  For fixed P the
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
        a = int_matmul(S, T[y][np.ix_(others, others)])  # |S ∩ N(y, z)|
        f = np.minimum(0, a.astype(dt) * q - p * (size - S).astype(dt)).sum(axis=1)
        t = int(np.argmin(f))
        total += int(f[t])
        for w in range(n - 1):
            if (t >> w) & 1:
                x = others[w]
                pmask |= 1 << (x * (n - 1) + (y if y < x else y - 1))
    return total, pmask
