"""Independent brute-force oracles used to cross-validate the library.

These deliberately avoid the per-element sign shortcut the library's exact
modes rely on: inner minimisations materialise every subset sum by iterative
doubling, so each oracle genuinely enumerates the full search space.  The ev
and cherry oracles live in :mod:`tightcycles.oracle`, which the acceptance
suite shares, and are re-exported here.  The loops the library has replaced
by faster or shorter ones are kept here as references, among them the
Hamilton kernel that runs one full DP per root
(:func:`tight_hamilton_cycle_reference`).
"""

from fractions import Fraction
from itertools import combinations, permutations

import numpy as np

from tightcycles._pykernels import _ctz, _extract
from tightcycles.constructions import _rng
from tightcycles.density import as_density_fraction, ee_value
from tightcycles.hamilton import Absorber, _eligible_probe, is_absorber
from tightcycles.hypercore import (
    Hypergraph3,
    bits,
    from_edges,
    from_triple_array,
    mask_of,
    pair_key,
    pair_of,
    verify_tight_path,
)
from tightcycles.motifs import blowup_path_ordering, find_k333
from tightcycles.oracle import (  # noqa: F401  (re-exported)
    brute_ev_raw,
    naive_cherry_count,
    subset_min_sum,
)


def dedupe_reference(arr) -> np.ndarray:
    """The former triple dedupe: sort each row, then ``np.unique(axis=0)``."""
    arr = np.asarray(arr, dtype=np.int64).reshape(-1, 3)
    if len(arr) == 0:
        return np.zeros((0, 3), dtype=np.int64)
    return np.unique(np.sort(arr, axis=1), axis=0)


def dedupe_sort_reference(n: int, arr: np.ndarray) -> np.ndarray:
    """The former ``hypercore._dedupe``: a row sort and a key sort on every
    call, whatever order the rows arrive in."""
    arr = np.sort(arr, axis=1)
    keys = np.sort((arr[:, 0] * n + arr[:, 1]) * n + arr[:, 2])
    keys = keys[np.diff(keys, prepend=-1) != 0]
    ab, c = np.divmod(keys, n)
    a, b = np.divmod(ab, n)
    return np.stack([a, b, c], axis=1)


def pair_index_reference(H) -> dict[int, int]:
    """The former pair index: a dict mapping each shadow pair key u*n+v
    (u < v), in ascending key order, to N(u, v)."""
    n = H.n
    t = H.triples
    if len(t) == 0:
        return {}
    # incidences (pair key u*n+v with u<v, third vertex)
    keys = np.concatenate(
        [t[:, 0] * n + t[:, 1], t[:, 0] * n + t[:, 2], t[:, 1] * n + t[:, 2]]
    )
    thirds = np.concatenate([t[:, 2], t[:, 1], t[:, 0]])
    uniq, ridx = np.unique(keys, return_inverse=True)
    nbytes = (n + 7) // 8
    rows = np.zeros((len(uniq), nbytes), dtype=np.uint8)
    np.bitwise_or.at(
        rows.reshape(-1),
        ridx * nbytes + (thirds >> 3),
        (1 << (thirds & 7)).astype(np.uint8),
    )
    out: dict[int, int] = {}
    for i, key in enumerate(uniq):
        out[int(key)] = int.from_bytes(rows[i].tobytes(), "little")
    return out


def link_pairs_reference(H, vertices=None) -> dict:
    """Each vertex's k x 2 int64 array of link pairs in edge order, read off
    the triples alone: the rows that hold v, in row order, with v removed.
    ``vertices`` picks the vertices to compute; by default, all of them."""
    t = H.triples
    out = {}
    for v in range(H.n) if vertices is None else vertices:
        rows = t[(t[:, 0] == v) | (t[:, 1] == v) | (t[:, 2] == v)]
        out[v] = rows[rows != v].reshape(-1, 2)
    return out


def link_lists(H) -> tuple[list[int], list[int], list[int]]:
    """Every link in edge order, from ``link_pairs_reference``, as the
    Gray-walk references' CSR ``(off, a, b)`` lists: the link of v is the
    pairs (a[j], b[j]) for off[v] <= j < off[v+1]."""
    off, a, b = [0], [], []
    for ps in link_pairs_reference(H).values():
        a += ps[:, 0].tolist()
        b += ps[:, 1].tolist()
        off.append(len(a))
    return off, a, b


def _high_codegree_masks(H: Hypergraph3, thr: float) -> list[int]:
    """For each vertex y, the bitmask of z with codegree(y, z) >= thr."""
    high = [0] * H.n
    for u, v, m in H.pair_masks():
        if m.bit_count() >= thr:
            high[u] |= 1 << v
            high[v] |= 1 << u
    return high


def connectable_pairs(H: Hypergraph3, beta: float) -> frozenset:
    """Ordered pairs (x, y) with at least beta*n extensions z such that xyz is
    an edge and (y, z) has codegree at least beta*n.  Note the asymmetry.
    The whole-host reference for ``motifs.is_connectable``."""
    if not 0 < beta < 1:
        raise ValueError("beta must lie in (0, 1)")
    thr = beta * H.n
    high = _high_codegree_masks(H, thr)
    out = []
    for u, v, m in H.pair_masks():
        if (m & high[v]).bit_count() >= thr:
            out.append((u, v))
        if (m & high[u]).bit_count() >= thr:
            out.append((v, u))
    return frozenset(out)


def masks_to_hypergraph(n: int, masks: dict[int, int]) -> Hypergraph3:
    """The hypergraph whose pair neighbourhoods are ``masks``, keyed by the
    pair key u*n+v (u < v), as ``motifs._cleaned_masks`` returns them."""
    triples = []
    for key, m in masks.items():
        u, v = pair_of(key, n)
        for w in bits(m):
            if w > v:
                triples.append((u, v, w))
    return from_edges(n, triples)


def count_cherries_reference(H: Hypergraph3, P, Q, cap=None) -> tuple[int, bool]:
    """The former cherry loop, as (count, cap_hit): ordered 4-tuples
    (x, y, z, w) of distinct vertices with {x, y} in P, {z, w} in Q and both
    xyz and yzw edges, for collections P and Q of unordered pairs.  Each
    shadow pair adds both of its orientations before the cap is checked."""

    def by_first(pairs):
        out: dict[int, int] = {}
        for a, b in pairs:
            out[a] = out.get(a, 0) | (1 << b)
            out[b] = out.get(b, 0) | (1 << a)
        return out

    pm, qm = by_first(P), by_first(Q)
    total = 0
    for u, v, m in H.pair_masks():
        for y, z in ((u, v), (v, u)):
            a = m & pm.get(y, 0)
            b = m & qm.get(z, 0)
            ca, cb = a.bit_count(), b.bit_count()
            if ca and cb:
                total += ca * cb - (a & b).bit_count()
        if cap is not None and total > cap:
            return total, True
    return total, False


def ee_pair_list(n: int) -> list[tuple[int, int]]:
    """The ordered pairs (x, y), x != y, in the row-major order of
    ``ee_exact``'s P mask."""
    return [(x, y) for x in range(n) for y in range(n) if x != y]


# -- the former exact kernels ------------------------------------------------------
#
# The Gray-code walks the exact ev / vvv / ee modes ran before the numpy
# sweeps: ev and vvv must return the same value and witness masks, ee the
# same value.


def gray_ev_exact(
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


def gray_vvv_exact(
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


def gray_ee_exact(n: int, nbr: list[int], p: int, q: int) -> tuple[int, int]:
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


def vvv_value_reference(H, d, X, Y, Z) -> Fraction:
    """The former e(X, Y, Z) recount: a loop over the link of every z in Z."""
    d = as_density_fraction(d)
    xm, ym = mask_of(X), mask_of(Y)
    zs = set(Z)
    e = 0
    for z in zs:
        for a, b in H.link_pairs(z).tolist():
            e += ((xm >> a) & 1) * ((ym >> b) & 1) + ((xm >> b) & 1) * ((ym >> a) & 1)
    return e - d * xm.bit_count() * ym.bit_count() * len(zs)


def brute_vvv_raw(H, d) -> Fraction:
    """min over (X, Y, Z) by exhausting (X, Y) and doubling over Z margins."""
    d = as_density_fraction(d)
    p, q = d.numerator, d.denominator
    n = H.n
    best = 0
    links = [H.link_pairs(z).tolist() for z in range(n)]
    for xbits in range(1 << n):
        kx = bin(xbits).count("1")
        for ybits in range(1 << n):
            ky = bin(ybits).count("1")
            margins = []
            for z in range(n):
                m = 0
                for a, b in links[z]:
                    m += ((xbits >> a) & 1) * ((ybits >> b) & 1)
                    m += ((xbits >> b) & 1) * ((ybits >> a) & 1)
                margins.append(m * q - p * kx * ky)
            best = min(best, subset_min_sum(margins))
    return Fraction(best, q)


def brute_ee_raw(H, d) -> Fraction:
    """min over (P, Q) by exhausting P and doubling over Q margins (n <= 4)."""
    d = as_density_fraction(d)
    p, q = d.numerator, d.denominator
    n = H.n
    pairs = [(x, y) for x in range(n) for y in range(n) if x != y]
    best = 0
    for pbits in range(1 << len(pairs)):
        psec = [0] * n
        for i, (x, y) in enumerate(pairs):
            if (pbits >> i) & 1:
                psec[y] |= 1 << x
        margins = []
        for y, z in pairs:
            xm = psec[y]
            a = (xm & H.nbr_mask(y, z)).bit_count()
            b = (xm & ~(1 << z)).bit_count()
            margins.append(a * q - p * b)
        best = min(best, subset_min_sum(margins))
    return Fraction(best, q)


def naive_k4minus_count(H) -> int:
    """Apex-labelled count: (apex, unordered base) with the three apex edges."""
    total = 0
    for apex in range(H.n):
        for base in combinations(range(H.n), 3):
            if apex in base:
                continue
            x, y, z = base
            if (
                H.has_edge(apex, x, y)
                and H.has_edge(apex, x, z)
                and H.has_edge(apex, y, z)
            ):
                total += 1
    return total


def naive_embedding_count(F, H, injective=True) -> int:
    """Labelled embedding count by raw enumeration (tiny inputs only)."""
    fv = F.n
    total = 0
    fedges = F.edges()
    if injective:
        universe = permutations(range(H.n), fv)
    else:
        universe = _tuples(range(H.n), fv)
    for phi in universe:
        if all(H.has_edge(phi[a], phi[b], phi[c]) for a, b, c in fedges):
            total += 1
    return total


def _tuples(rng, k):
    rng = list(rng)
    if k == 0:
        yield ()
        return
    for rest in _tuples(rng, k - 1):
        for v in rng:
            yield rest + (v,)


def naive_tight_hamilton(H) -> bool:
    """Permutation-level check, independent of both library oracles."""
    n = H.n
    if n < 4:
        return False
    for perm in permutations(range(1, n)):
        seq = (0,) + perm
        ok = True
        for i in range(n):
            a, b, c = seq[i % n], seq[(i + 1) % n], seq[(i + 2) % n]
            if not H.has_edge(a, b, c):
                ok = False
                break
        if ok:
            return True
    return False


def tight_hamilton_cycle_reference(n: int, nbr) -> list[int] | None:
    """The former Hamilton kernel: one full rooted subset DP per root pair
    (0, b), b = 1..n-1, each closed in turn; the library's kernel must
    return the same list or None."""
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


def first_root_fails(H) -> bool:
    """Whether the first rooted run, from the smallest b with N(0, b)
    nonempty, finds no cycle: the reference then returns None or a cycle
    (0, b', ...) from a later root b'."""
    nbr = H.nbr_flat()
    cycle = tight_hamilton_cycle_reference(H.n, nbr)
    return cycle is None or cycle[1] != next(b for b in range(1, H.n) if nbr[b])


def _blowup_candidates_reference(H, classes, i, used) -> int:
    cand = H.vertex_mask() & ~used
    for da, db in ((-2, -1), (-1, 1), (1, 2)):
        ca = classes[(i + da) % 8]
        cb = classes[(i + db) % 8]
        for u in ca:
            for v in cb:
                cand &= H.nbr_mask(u, v)
                if not cand:
                    return 0
    return cand


def grow_blowup_reference(H, classes, t, budget, rng, avoid_mask: int = 0):
    """The C8 blow-up grower that rebuilds every candidate mask from scratch:
    the same search tree, node order, budget accounting and RNG draws that
    ``motifs._grow_blowup`` must reproduce."""
    classes = [list(c) for c in classes]
    budget_left = [budget]

    def rec() -> bool:
        if budget_left[0] <= 0:
            return False
        budget_left[0] -= 1
        sizes = [len(c) for c in classes]
        if min(sizes) == t:
            return True
        i = sizes.index(min(sizes))
        used = mask_of(v for c in classes for v in c) | avoid_mask
        cand = _blowup_candidates_reference(H, classes, i, used)
        opts = list(bits(cand))
        if len(opts) > 8:
            idx = rng.permutation(len(opts))[:8]
            opts = [opts[int(j)] for j in idx]
        for v in opts:
            classes[i].append(v)
            if rec():
                return True
            classes[i].pop()
        return False

    if rec():
        ordering = blowup_path_ordering(classes)
        if verify_tight_path(H, ordering):
            return classes
    return None


# -- the former absorber search --------------------------------------------------


def find_absorber_reference(
    H,
    forbidden=(),
    min_eligibility: int = 1,
    budget: int = 4000,
    seed: int = 0,
    k333_tries: int = 200,
):
    """The former absorber search, verbatim: each slot filters the whole link
    of its middle vertex in Python, shuffles the pair list and recomputes the
    full three-way eligibility product for every scored 4-tuple.  The library
    version must return the same absorber for every argument."""
    n = H.n
    fmask = mask_of(forbidden)
    rng = np.random.Generator(np.random.PCG64(seed))
    for attempt in range(6):
        K = find_k333(
            H, avoid=bits(fmask), tries=k333_tries, seed=int(rng.integers(2**31))
        )
        if K is None:
            return None
        used = mask_of(K)
        links = []
        eligibles = []
        ok = True
        for i in range(3):
            yv = K[3 + i]
            best = None
            avail = H.vertex_mask() & ~fmask & ~used
            edges = [
                (a, b)
                for a, b in H.link_pairs(yv).tolist()
                if (avail >> a) & 1 and (avail >> b) & 1
            ]
            rng.shuffle(edges)
            spent = 0
            for b_, c_ in edges:
                for bb, cc in ((b_, c_), (c_, b_)):
                    # the link of yv inside avail: bb's neighbours are N(yv, bb)
                    cnbr = H.nbr_mask(yv, cc) & avail & ~(1 << bb)
                    for a_ in bits(H.nbr_mask(yv, bb) & avail & ~(1 << cc)):
                        dmask = cnbr & ~(1 << a_)
                        for d_ in bits(dmask):
                            spent += 1
                            elig = (
                                H.nbr_mask(a_, bb)
                                & H.nbr_mask(bb, cc)
                                & H.nbr_mask(cc, d_)
                            )
                            score = elig.bit_count()
                            if best is None or score > best[0]:
                                best = (score, (a_, bb, cc, d_), elig)
                            if spent >= budget // 3:
                                break
                        if spent >= budget // 3:
                            break
                    if spent >= budget // 3:
                        break
                if spent >= budget // 3 or (best and best[0] >= n - 21):
                    break
            if best is None or best[0] < min_eligibility:
                ok = False
                break
            links.append(best[1])
            eligibles.append(best[2])
            used |= mask_of(best[1])
        if not ok:
            continue
        own = mask_of(K) | mask_of(v for link in links for v in link)
        eligibles = [e & ~own for e in eligibles]
        if any(e.bit_count() < min_eligibility for e in eligibles):
            continue
        A = Absorber(K=tuple(K), links=tuple(links), eligible=tuple(eligibles))
        probe = _eligible_probe(A)
        if probe is not None and is_absorber(H, A, probe):
            return A
        # no joint eligible triple to probe with; accept on path identities
        if probe is None and all(
            verify_tight_path(H, A.link_path(i)) for i in range(3)
        ) and verify_tight_path(H, A.k_path_full()) and verify_tight_path(
            H, A.k_path_short()
        ):
            return A
    return None


# -- the former path growth ------------------------------------------------------


def grow_path_reference(H, masks, min_len, rng, attempts):
    """The former almost-cover path growth, verbatim: the right and the left
    end each grow by their own copy of the one-step lookahead.  The library
    version must return the same path and leave ``rng`` in the same state."""
    n = H.n
    keys = sorted(masks)
    for _ in range(attempts):
        key = keys[int(rng.integers(len(keys)))]
        u, v = pair_of(key, n)
        wopts = list(bits(masks[key]))
        wpick = wopts[int(rng.integers(len(wopts)))]
        seq = [u, v, wpick]
        used = mask_of(seq)
        # extend right, then left, greedily by one-step lookahead
        grew = True
        while grew:
            grew = False
            cand = masks.get(pair_key(seq[-2], seq[-1], n), 0) & ~used
            if cand:
                t = max(
                    bits(cand),
                    key=lambda c: (masks.get(pair_key(seq[-1], c, n), 0) & ~used).bit_count(),
                )
                seq.append(t)
                used |= 1 << t
                grew = True
            cand = masks.get(pair_key(seq[1], seq[0], n), 0) & ~used
            if cand:
                t = max(
                    bits(cand),
                    key=lambda c: (masks.get(pair_key(c, seq[0], n), 0) & ~used).bit_count(),
                )
                seq.insert(0, t)
                used |= 1 << t
                grew = True
        if len(seq) >= min_len:
            return seq
    return None


# -- the former density search helpers -------------------------------------------
#
# The sampled and heuristic searches as they were before they read
# `Hypergraph3.pair_counts`: one `nbr_mask` call per pair, `np.add.at` updates
# and Python best responses.  The searches must return the same reports.


def _ev_witness_from_mask(H, p, q, xmask):
    xs = sorted(bits(xmask))
    k = len(xs)
    P = []
    for y in range(H.n):
        for z in range(H.n):
            if y == z:
                continue
            cnt = (H.nbr_mask(y, z) & xmask).bit_count()
            if cnt * q < p * k:
                P.append((y, z))
    return xs, P


def _ev_search(H, p, q, seed, restarts=32, budget=None):
    """Local search over X; returns (best X mask, proposals evaluated).

    Maintains per-pair counts |N(y,z) ∩ X| and their histogram so a vertex
    flip costs O(deg); the objective is exact integer arithmetic throughout.
    """
    n = H.n
    if n == 0:
        return 0, 0
    rng = np.random.Generator(np.random.PCG64(seed))
    linkkeys = [ps[:, 0] * n + ps[:, 1] for ps in link_pairs_reference(H).values()]
    valid = np.array([a * n + b for a in range(n) for b in range(a + 1, n)], dtype=np.int64)
    # Python integers once a margin c*q - p*k could leave int64 (a density
    # with a huge denominator); below that, int64 gives the same values
    cgrid = np.arange(n, dtype=np.int64 if (p + q) * n**3 < 2**62 else object)

    def objective(hist, k):
        marg = cgrid * q - p * k
        neg = marg < 0
        return 2 * int((hist[neg] * marg[neg]).sum())

    best_num = 0
    best_mask = 0
    used = 0
    r = 0
    while r < restarts if budget is None else used < budget:
        cnt = np.zeros(n * n, dtype=np.int64)
        if r == 0:
            xmask = (1 << n) - 1
        else:
            xmask = int(
                sum(1 << v for v in range(n) if rng.random() < 0.5)
            )
        k = xmask.bit_count()
        for v in bits(xmask):
            cnt[linkkeys[v]] += 1
        hist = np.bincount(cnt[valid], minlength=n)[:n].astype(np.int64)
        s = objective(hist, k)
        if s < best_num:
            best_num, best_mask = s, xmask
        stall = 0
        limit = max(4 * n, 64)
        while stall < limit and (budget is None or used < budget):
            v = int(rng.integers(n))
            keys = linkkeys[v]
            delta = -1 if (xmask >> v) & 1 else 1
            old = cnt[keys]
            np.add.at(hist, old, -1)
            np.add.at(hist, old + delta, 1)
            cnt[keys] = old + delta
            k2 = k + delta
            s2 = objective(hist, k2)
            used += 1
            if s2 < s:
                s, k = s2, k2
                xmask ^= 1 << v
                if s < best_num:
                    best_num, best_mask = s, xmask
                stall = 0
            else:
                new = cnt[keys]
                np.add.at(hist, new, -1)
                np.add.at(hist, new - delta, 1)
                cnt[keys] = new - delta
                stall += 1
        r += 1
        if budget is None and r >= restarts:
            break
    return best_mask, used


def _vvv_margins(H, amask_bool, bmask_bool):
    """Per-vertex counts of ordered pairs (a, b) in A x B completing an edge."""
    m = np.zeros(H.n, dtype=np.int64)
    E = H.triples
    if len(E) == 0:
        return m
    for i, j, k in ((0, 1, 2), (0, 2, 1), (1, 2, 0)):
        contrib = (amask_bool[E[:, i]] & bmask_bool[E[:, j]]).astype(np.int64)
        contrib += (amask_bool[E[:, j]] & bmask_bool[E[:, i]]).astype(np.int64)
        np.add.at(m, E[:, k], contrib)
    return m


def _ee_best_q(H, p, q, P):
    n = H.n
    psec = [0] * n
    for x, y in P:
        psec[y] |= 1 << x
    Q = []
    for y in range(n):
        xm = psec[y]
        if not xm:
            continue
        for z in range(n):
            if z == y:
                continue
            a = (xm & H.nbr_mask(y, z)).bit_count()
            b = (xm & ~(1 << z)).bit_count()
            if a * q < p * b:
                Q.append((y, z))
    return Q


def _ee_best_p(H, p, q, Q):
    n = H.n
    qfirst = [0] * n
    for y, z in Q:
        qfirst[y] |= 1 << z
    P = []
    for x in range(n):
        for y in range(n):
            if x == y or not qfirst[y]:
                continue
            zm = qfirst[y]
            a = (zm & H.nbr_mask(x, y)).bit_count()
            b = (zm & ~(1 << x)).bit_count()
            if a * q < p * b:
                P.append((x, y))
    return P


def _ee_alternating(H, p, q, seed, restarts, budget):
    n = H.n
    rng = np.random.Generator(np.random.PCG64(seed))
    allp = ee_pair_list(n)
    dfrac = Fraction(p, q)
    best_val = Fraction(0)
    best = ([], [])
    used = 0
    for r in range(max(restarts, 1)):
        if budget is not None and used >= budget:
            break
        if r == 0:
            P = list(allp)
        else:
            P = [pr for pr in allp if rng.random() < 0.5]
        prev = None
        for _ in range(40):
            Q = _ee_best_q(H, p, q, P)
            used += 1
            P = _ee_best_p(H, p, q, Q)
            used += 1
            state = (tuple(P), tuple(Q))
            if state == prev or (budget is not None and used >= budget):
                break
            prev = state
        val = ee_value(H, dfrac, P, Q)
        if val < best_val:
            best_val = val
            best = (P, Q)
    return best, used


# -- the former two-colouring construction -------------------------------------


def biased_colouring_reference(n: int, p: float, seed: int, xy_edges: bool) -> Hypergraph3:
    """Colour the complete graph on n-2 vertices red with probability p; the
    hyperedges are the monochromatic triangles plus two apex vertices whose
    links are the red and the blue graph respectively.  The former builder:
    one numpy chunk per colour pair."""
    if n < 5:
        raise ValueError("construction needs n >= 5")
    g = n - 2
    x, y = n - 2, n - 1
    rng = _rng(seed)
    red = np.zeros((g, g), dtype=bool)
    iu = np.triu_indices(g, k=1)
    red[iu] = rng.random(len(iu[0])) < p
    red |= red.T

    chunks: list[np.ndarray] = []
    idx = np.arange(g)
    for i in range(g):
        ri = red[i]
        for j in range(i + 1, g):
            ks = idx[j + 1 :]
            if red[i, j]:
                hits = ks[ri[ks] & red[j, ks]]
            else:
                hits = ks[~ri[ks] & ~red[j, ks]]
            if len(hits):
                tri = np.empty((len(hits), 3), dtype=np.int64)
                tri[:, 0] = i
                tri[:, 1] = j
                tri[:, 2] = hits
                chunks.append(tri)
    ri_, rj_ = np.nonzero(np.triu(red, k=1))
    bi_, bj_ = np.nonzero(np.triu(~red, k=1) & (np.arange(g)[:, None] < np.arange(g)[None, :]))
    for apex, (ai, aj) in ((x, (ri_, rj_)), (y, (bi_, bj_))):
        if len(ai):
            tri = np.empty((len(ai), 3), dtype=np.int64)
            tri[:, 0] = ai
            tri[:, 1] = aj
            tri[:, 2] = apex
            chunks.append(tri)
    if xy_edges:
        vs = np.arange(g, dtype=np.int64)
        tri = np.empty((g, 3), dtype=np.int64)
        tri[:, 0] = vs
        tri[:, 1] = x
        tri[:, 2] = y
        chunks.append(tri)
    arr = np.concatenate(chunks) if chunks else np.zeros((0, 3), dtype=np.int64)
    return from_triple_array(n, arr)
