"""Pure-Python implementations of the hot kernels.

Same call signatures as the compiled module ``tightcycles._kernels``; selected
at import time by :mod:`tightcycles.kernels` when the extension is missing or
disabled.  The Hamilton kernel runs the subset DP on big-integer bitmaps (one
bitmap per ordered end pair, one bit per visited set), which keeps the pure
fallback usable up to n around 16-18.
"""

from __future__ import annotations

NAME = "pure"


def _ctz(x: int) -> int:
    return (x & -x).bit_length() - 1


def tight_hamilton_cycle(n: int, nbr: list[int]) -> list[int] | None:
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
        assert found, "DP extraction lost the predecessor chain"
    rev.reverse()
    return rev


def ev_exact(
    n: int,
    link_off: list[int],
    link_a: list[int],
    link_b: list[int],
    p: int,
    q: int,
) -> tuple[int, int]:
    """Exact ev deviation numerator (denominator q) and the minimising X mask.

    Gray-code walk over X keeping a histogram of pair counts |N(y,z) ∩ X|;
    for fixed X the optimal P is the set of negative-margin pairs, so the
    objective is 2 * sum over unordered pairs of min(0, c*q - p*|X|).
    """
    cnt = [0] * (n * n)
    hist = [0] * max(n, 1)
    if n >= 2:
        hist[0] = n * (n - 1) // 2
    best = 0
    best_mask = 0
    x = 0
    k = 0
    top = n - 2
    for i in range(1, 1 << n):
        v = _ctz(i)
        if (x >> v) & 1:
            delta = -1
            x ^= 1 << v
            k -= 1
        else:
            delta = 1
            x |= 1 << v
            k += 1
        for j in range(link_off[v], link_off[v + 1]):
            key = link_a[j] * n + link_b[j]
            c = cnt[key]
            hist[c] -= 1
            c += delta
            cnt[key] = c
            hist[c] += 1
        thr = p * k
        s = 0
        c = 0
        while c <= top and c * q < thr:
            if hist[c]:
                s += hist[c] * (c * q - thr)
            c += 1
        s *= 2
        if s < best:
            best = s
            best_mask = x
    return best, best_mask


def vvv_exact(
    n: int,
    inc_off: list[int],
    inc_a: list[int],
    inc_b: list[int],
    p: int,
    q: int,
) -> tuple[int, int, int]:
    """Exact vvv deviation numerator and minimising (X, Y) masks.

    Outer Gray walk over X, full inner walk over Y; for fixed (X, Y) the
    optimal Z collects the vertices with negative margin.
    """
    best = 0
    bx = by = 0
    margin = [0] * n
    x = 0
    kx = 0
    for i in range(1 << n):
        if i:
            v = _ctz(i)
            if (x >> v) & 1:
                x ^= 1 << v
                kx -= 1
            else:
                x |= 1 << v
                kx += 1
        for z in range(n):
            margin[z] = 0
        y = 0
        ky = 0
        for j in range(1, 1 << n):
            w = _ctz(j)
            if (y >> w) & 1:
                d = -1
                y ^= 1 << w
                ky -= 1
            else:
                d = 1
                y |= 1 << w
                ky += 1
            for t in range(inc_off[w], inc_off[w + 1]):
                a = inc_a[t]
                bb = inc_b[t]
                if (x >> a) & 1:
                    margin[bb] += d
                if (x >> bb) & 1:
                    margin[a] += d
            thr = p * kx * ky
            s = 0
            for z in range(n):
                mz = margin[z] * q - thr
                if mz < 0:
                    s += mz
            if s < best:
                best = s
                bx = x
                by = y
    return best, bx, by


def ee_exact(n: int, nbr: list[int], p: int, q: int) -> tuple[int, int]:
    """Exact ee deviation numerator and the minimising P mask.

    P ranges over ordered distinct pairs indexed x*(n-1)+adjusted; the mask
    uses the pair order of :func:`ee_pair_list`.  For fixed P the optimal Q
    collects ordered pairs (y,z) with negative margin; only triples of three
    distinct vertices count.
    """
    pairs = ee_pair_list(n)
    kview = len(pairs)
    acount = [0] * (n * n)
    bcount = [0] * (n * n)
    contrib = [0] * (n * n)
    s = 0
    best = 0
    best_pmask = 0
    pmask = 0
    for i in range(1, 1 << kview):
        pi = _ctz(i)
        x, y = pairs[pi]
        if (pmask >> pi) & 1:
            d = -1
            pmask ^= 1 << pi
        else:
            d = 1
            pmask |= 1 << pi
        mask = nbr[x * n + y]
        for z in range(n):
            if z == x or z == y:
                continue
            idx = y * n + z
            s -= contrib[idx]
            acount[idx] += d * ((mask >> z) & 1)
            bcount[idx] += d
            val = acount[idx] * q - p * bcount[idx]
            c = val if val < 0 else 0
            contrib[idx] = c
            s += c
        if s < best:
            best = s
            best_pmask = pmask
    return best, best_pmask


def ee_pair_list(n: int) -> list[tuple[int, int]]:
    return [(x, y) for x in range(n) for y in range(n) if x != y]
