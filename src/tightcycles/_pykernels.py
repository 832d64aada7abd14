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
as 0/1 rows whose counts are float32 products (see :func:`int_matmul`), and
each returns the first strict minimum of a fixed Gray order.  ev splits a
subset's Gray index into its low ``SPLIT`` bits and the rest: one table
holds the margins of every low part, and a Gray walk over the high parts
adds one row to it per step.  vvv scores blocks of X rows against every Y at
once, and only the Y whose Gray index is at least the block's first X:
the edge tensor is symmetric, so a pair (X, Y) scores as (Y, X) does.  Both
bound their memory at any n, ev by the table of 2^SPLIT rows and vvv by the
``CELLS`` margins of a block.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .errors import UncertifiedResult

NAME = "pure"
SPLIT = 8  # ev: the low Gray bits taken as one table of 2^SPLIT subsets
CELLS = 1 << 15  # vvv: the margins a block of X rows scores at once


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
    The first strict minimum in Gray order is kept.

    Gray index i = hi * 2^h + lo (h = ``SPLIT``, at most n) splits X: its
    low h bits are gray_h(lo) with bit h - 1 flipped when hi is odd, which is
    the row 2^h - 1 - lo of the gray_h order, and its high bits are gray(hi).
    The margins of the 2^h low parts form one table; a walk over hi in Gray
    order keeps the high part's margins as one row, and each hi scores its
    2^h subsets as the table plus that row, read backwards when hi is odd.
    """
    n = len(T)
    h = min(SPLIT, n)
    iu, ju = np.triu_indices(n, 1)
    inc = T[:, iu, ju]  # inc[x, pair] = [x ∈ N(pair)]
    dt = _wide(p, q, n)
    lo = np.arange(1 << h, dtype=np.int64)
    X = _rows(lo ^ (lo >> 1), h)
    table = int_matmul(X, inc[:h]).astype(dt)
    table *= q
    table -= p * X.sum(axis=1).astype(dt)[:, None]
    # the margins one high vertex adds; T is float32, which ``object`` would
    # take as Python floats
    step = inc[h:].astype(np.int64).astype(dt, copy=False) * q - p
    row = np.zeros(len(iu), dtype=dt)
    buf = np.empty_like(table)
    best = 0
    best_mask = 0
    x = 0
    for hi in range(1 << (n - h)):
        if hi:
            v = _ctz(hi)
            if (x >> v) & 1:
                row -= step[v]
            else:
                row += step[v]
            x ^= 1 << v
        np.add(table, row, out=buf)
        s = np.minimum(buf, 0, out=buf).sum(axis=1)
        if hi & 1:
            s = s[::-1]
        j = int(np.argmin(s))
        if 2 * s[j] < best:
            best = int(2 * s[j])
            i = hi << h | j
            best_mask = i ^ (i >> 1)
    return best, best_mask


def vvv_exact(T: np.ndarray, p: int, q: int) -> tuple[int, int, int]:
    """Exact vvv deviation numerator and minimising (X, Y) masks.

    For (X, Y) the counts M[z] = #{(a, b) in X × Y : abz an edge} are taken
    for a block of X rows at once: B = X-rows @ T as (x, b, z) and M = Y-rows
    @ B, and for fixed (X, Y) the optimal Z collects the vertices with
    negative margin.  The first strict minimum in (X, Y) Gray order is kept.

    T is symmetric, so the score of (X, Y) is that of (Y, X), and the first
    minimum of the full order has X's Gray index at most Y's.  A block whose
    first X has index lo therefore scores only the Y of index >= lo: a pair
    below the diagonal inside the block mirrors a pair of an earlier row of
    the same block, so it moves neither the block's minimum nor its first
    position.  A block holds as many X rows as keep it near ``CELLS``
    margins.
    """
    n = len(T)
    N = 1 << n
    j = np.arange(N, dtype=np.int64)
    gray = j ^ (j >> 1)
    R = _rows(gray, n)
    dt = _wide(p, q, n)
    k = R.sum(axis=1).astype(dt)
    R = R.astype(np.float32)  # cast once, not on every product
    Tm = T.reshape(n, n * n)
    best = 0
    bx = by = 0
    lo = 0
    while lo < N:
        hi = min(N, lo + max(1, CELLS // max(n * (N - lo), 1)))
        B = (R[lo:hi] @ Tm).reshape(hi - lo, n, n)  # float32, entries at most n
        m = int_matmul(R[lo:], B).astype(dt, copy=False)  # sums at most n^2
        m *= q
        m -= (p * k[lo:hi, None] * k[None, lo:])[:, :, None]
        s = np.minimum(m, 0, out=m).sum(axis=2)
        t = int(np.argmin(s))
        if s.flat[t] < best:
            best = int(s.flat[t])
            r, c = divmod(t, N - lo)
            bx = int(gray[lo + r])
            by = int(gray[lo + c])
        lo = hi
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
