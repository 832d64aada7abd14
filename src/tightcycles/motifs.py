"""Structural gadget search and counting: the cleaned pair neighbourhoods,
connectable pairs, apex-rooted four-vertex motifs, cherries, turns,
embeddings, the 3-partite nine-vertex gadget and blow-ups of the tight
8-cycle.  The bounded pair-to-pair connection search lives in ``hamilton``.

All search budgets are node-expansion counts, never wall clock, so results
are deterministic per seed.  A budget that would run no search raises
``ValueError``.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Iterable, Optional

import numpy as np

from .errors import BudgetError, check_budget
from .hypercore import (
    Hypergraph3,
    TightPath,
    bits,
    checked_mask,
    degree,
    link_keys,
    mask_of,
    verify_tight_path,
)

__all__ = [
    "CountReport",
    "Turn",
    "is_connectable",
    "count_k4minus",
    "sample_k4minus",
    "count_cherries",
    "is_turn",
    "find_turns",
    "turn_connecting_orderings",
    "count_embeddings",
    "find_k333",
    "find_c8",
    "find_c8_blowup",
]


@dataclass
class CountReport:
    motif: str
    count: float
    normalized: float
    exact: bool
    cap_hit: bool = False

    def to_dict(self) -> dict:
        return {
            "schema_version": 1,
            "motif": self.motif,
            "count": self.count,
            "normalized": self.normalized,
            "exact": self.exact,
            "cap_hit": self.cap_hit,
        }


# -- cleaning and connectable pairs ------------------------------------------


def _cleaned_masks(H: Hypergraph3, thr: float, allowed_mask: int) -> list[int]:
    """Pair-neighbourhood masks after iteratively deleting every edge that
    contains a pair of positive codegree below ``thr``, inside the vertices
    of ``allowed_mask``.  The fixed point is order-independent.  The masks
    are in the host's layout (:meth:`Hypergraph3.nbr_flat`): a list of n*n
    with the cleaned N(u, v) at both u*n+v and v*n+u, 0 elsewhere."""
    n = H.n
    masks = [0] * (n * n)
    queue = deque()
    for u, v, m in H.pair_masks():
        if (allowed_mask >> u) & 1 and (allowed_mask >> v) & 1:
            m &= allowed_mask
            masks[u * n + v] = masks[v * n + u] = m
            if 0 < m.bit_count() < thr:
                queue.append(u * n + v)
    while queue:
        key = queue.popleft()
        m = masks[key]
        if m == 0 or m.bit_count() >= thr:
            continue
        u, v = divmod(key, n)
        masks[key] = masks[v * n + u] = 0
        for w in bits(m):
            for a, b in ((u, w), (v, w)):
                third = (u + v + w) - a - b
                m2 = masks[a * n + b]
                if (m2 >> third) & 1:
                    m2 ^= 1 << third
                    masks[a * n + b] = masks[b * n + a] = m2
                    if 0 < m2.bit_count() < thr:
                        queue.append(a * n + b)
    return masks


def is_connectable(H: Hypergraph3, x: int, y: int, beta: float) -> bool:
    """Whether the ordered pair (x, y) is beta-connectable: at least beta*n
    vertices z in N(x, y) have codegree(y, z) >= beta*n.  Note the asymmetry.
    Only the z in N(x, y) are looked up, one codegree each.  An x or y
    outside 0..n-1 raises ValueError."""
    checked_mask(H.n, (x,), "x")
    checked_mask(H.n, (y,), "y")
    thr = beta * H.n
    hits = sum(
        1 for z in bits(H.nbr_mask(x, y)) if H.nbr_mask(y, z).bit_count() >= thr
    )
    return hits >= thr


# -- apex-rooted 4-vertex motif ------------------------------------------------


def count_k4minus(H: Hypergraph3, cap: Optional[int] = None) -> CountReport:
    """Count labelled (apex, unordered base) tuples where the three triples
    through the apex are edges; the fourth triple is unconstrained."""
    n = H.n
    total = 0
    cap_hit = False
    for a in range(n):
        nbr = [H.nbr_mask(a, u) for u in range(n)]  # N(a, u) is u's link neighbourhood
        for u, v in H.link_pairs(a).tolist():
            common = nbr[u] & nbr[v]
            total += (common >> (v + 1)).bit_count()  # base third above v
        if cap is not None and total > cap:
            cap_hit = True
            break
    return CountReport("k4minus", total, total / max(n, 1) ** 4, not cap_hit, cap_hit)


def sample_k4minus(H: Hypergraph3, samples: int, seed: int) -> CountReport:
    """Estimate the apex-rooted motif density by uniform 4-tuple sampling."""
    check_budget("samples", samples)
    n = H.n
    rng = np.random.Generator(np.random.PCG64(seed))
    hits = 0
    if n >= 4:
        draws = rng.integers(0, n, size=(samples, 4))
        for a, x, y, z in draws.tolist():
            if len({a, x, y, z}) != 4 or not (x < y < z):
                continue  # sample unordered bases via sorted representatives
            if (
                (H.nbr_mask(a, x) >> y) & 1
                and (H.nbr_mask(a, x) >> z) & 1
                and (H.nbr_mask(a, y) >> z) & 1
            ):
                hits += 1
    density = hits / samples
    return CountReport("k4minus", density * n**4, density, False)


# -- cherries -------------------------------------------------------------------


def count_cherries(H: Hypergraph3, cap: Optional[int] = None) -> CountReport:
    """Ordered 4-tuples (x, y, z, w) of distinct vertices with both xyz and
    yzw edges.  A shadow pair {y, z} of codegree c gives c(c - 1) choices of
    (x, w) in each of its two orientations; the cap is checked after each
    pair, in ascending key order."""
    n = H.n
    total = 0
    cap_hit = False
    for _, _, m in H.pair_masks():
        c = m.bit_count()
        total += 2 * c * (c - 1)
        if cap is not None and total > cap:
            cap_hit = True
            break
    return CountReport("cherries", total, total / max(n, 1) ** 4, not cap_hit, cap_hit)


# -- turns ----------------------------------------------------------------------


@dataclass(frozen=True)
class Turn:
    a1: int
    a2: int
    a3: int
    b1: int
    b2: int
    c: int
    d: int

    def vertices(self) -> tuple:
        return (self.a1, self.a2, self.a3, self.b1, self.b2, self.c, self.d)


def is_turn(H: Hypergraph3, t: Turn | Iterable[int]) -> bool:
    """Check the six apex conditions: for every a_i and b_j, the four vertices
    {a_i, b_j, c, d} carry the three edges through apex a_i."""
    if not isinstance(t, Turn):
        t = Turn(*t)
    vs = t.vertices()
    if len(set(vs)) != 7 or any(not 0 <= v < H.n for v in vs):
        return False
    for a in (t.a1, t.a2, t.a3):
        if not (H.nbr_mask(t.c, t.d) >> a) & 1:
            return False
        for b in (t.b1, t.b2):
            m = H.nbr_mask(a, b)
            if not ((m >> t.c) & 1 and (m >> t.d) & 1):
                return False
    return True


def turn_connecting_orderings(t: Turn) -> list[list[int]]:
    """The four tight-path orderings through a turn joining {a1,b1} to
    {a2,b2} in all four orientation combinations (at most 3 inner vertices)."""
    return [
        [t.a1, t.b1, t.c, t.a2, t.b2],
        [t.a1, t.b1, t.c, t.a3, t.d, t.b2, t.a2],
        [t.b1, t.a1, t.c, t.d, t.a2, t.b2],
        [t.b1, t.a1, t.c, t.b2, t.a2],
    ]


def find_turns(H: Hypergraph3, samples: int, seed: int) -> list[Turn]:
    """Sample for turns: half blind 7-tuples, half guided from pairs (c, d)
    with three apex candidates.  Every returned turn is verified."""
    check_budget("samples", samples)
    n = H.n
    rng = np.random.Generator(np.random.PCG64(seed))
    found: list[Turn] = []
    seen = set()
    if n < 7:
        return found
    shadow = [(u, v) for u, v, _ in H.pair_masks()]
    for step in range(samples):
        if step % 2 == 0 or not shadow:
            vs = rng.choice(n, size=7, replace=False).tolist()
            cand = Turn(*vs)
        else:
            c, d = shadow[int(rng.integers(len(shadow)))]
            amask = H.nbr_mask(c, d)
            alist = list(bits(amask))
            if len(alist) < 3:
                continue
            aa = rng.choice(len(alist), size=3, replace=False)
            a1, a2, a3 = (alist[i] for i in aa)
            # b_j must satisfy {a_i, b_j, c}, {a_i, b_j, d} for all i
            bmask = H.vertex_mask() & ~mask_of((a1, a2, a3, c, d))
            for a in (a1, a2, a3):
                bmask &= H.nbr_mask(a, c) & H.nbr_mask(a, d)
            blist = list(bits(bmask))
            if len(blist) < 2:
                continue
            bb = rng.choice(len(blist), size=2, replace=False)
            cand = Turn(a1, a2, a3, blist[bb[0]], blist[bb[1]], c, d)
        if cand.vertices() in seen:
            continue
        if is_turn(H, cand):
            seen.add(cand.vertices())
            found.append(cand)
    return found


# -- embeddings -------------------------------------------------------------------


def count_embeddings(
    F: Hypergraph3,
    H: Hypergraph3,
    mode: str = "injective",
    cap: Optional[int] = None,
) -> CountReport:
    """Labelled embedding count of F into H by backtracking with pair pruning;
    homomorphic mode drops injectivity."""
    if mode not in ("injective", "homomorphic"):
        raise ValueError("mode must be injective or homomorphic")
    if F.n > 10:
        raise BudgetError("embedding pattern capped at 10 vertices")
    injective = mode == "injective"
    fedges = F.edges()
    # order pattern vertices greedily by adjacency to already-placed ones
    placed_order: list[int] = []
    remaining = set(range(F.n))
    fdeg = [0] * F.n
    for a, b, c in fedges:
        fdeg[a] += 1
        fdeg[b] += 1
        fdeg[c] += 1
    while remaining:
        best = max(
            remaining,
            key=lambda v: (
                sum(1 for e in fedges if v in e and sum(1 for u in e if u in placed_order) == 2),
                fdeg[v],
                -v,
            ),
        )
        placed_order.append(best)
        remaining.discard(best)

    pos = {v: i for i, v in enumerate(placed_order)}
    # for each step, the edges that become fully placed and the pair-prune edges
    prune_pairs: list[list[tuple[int, int]]] = [[] for _ in range(F.n)]
    for a, b, c in fedges:
        last = max((a, b, c), key=lambda v: pos[v])
        others = [v for v in (a, b, c) if v != last]
        prune_pairs[pos[last]].append((others[0], others[1]))

    n = H.n
    full = H.vertex_mask()
    total = 0
    cap_hit = False
    phi = [0] * F.n

    def rec(step: int) -> bool:
        """Returns False when the cap was hit."""
        nonlocal total
        if step == F.n:
            total += 1
            return not (cap is not None and total > cap)
        fv = placed_order[step]
        cand = full
        for a, b in prune_pairs[step]:
            cand &= H.nbr_mask(phi[a], phi[b])
            if not cand:
                return True
        if injective:
            cand &= ~mask_of(phi[pos2] for pos2 in placed_order[:step])
        for hv in bits(cand):
            phi[fv] = hv
            if not rec(step + 1):
                return False
        return True

    ok = rec(0)
    cap_hit = not ok
    norm = total / max(n, 1) ** F.n if F.n else 0.0
    return CountReport(f"embeddings[{mode}]", total, norm, not cap_hit, cap_hit)


# -- the 3-partite nine-vertex gadget ----------------------------------------------


def find_k333(
    H: Hypergraph3,
    avoid: Iterable[int] = (),
    tries: int = 400,
    seed: int = 0,
) -> Optional[tuple]:
    """A labelled complete 3-partite gadget (x1,x2,x3,y1,y2,y3,z1,z2,z3) with
    parts {x_i,y_i,z_i}, disjoint from ``avoid``; grown from a seed edge by
    common-neighbourhood intersections.  Absence within budget is normal.  An
    avoided vertex outside 0..n-1 raises ValueError."""
    check_budget("tries", tries)
    n = H.n
    avoid_mask = checked_mask(n, avoid, "avoid")
    allowed = H.vertex_mask() & ~avoid_mask
    if allowed.bit_count() < 9 or H.m == 0:
        return None
    rng = np.random.Generator(np.random.PCG64(seed))
    edges = H.triples
    for _ in range(tries):
        e = edges[int(rng.integers(len(edges)))].tolist()
        perm = rng.permutation(3)
        x1, x2, x3 = (e[int(i)] for i in perm)
        if (avoid_mask >> x1) & 1 or (avoid_mask >> x2) & 1 or (avoid_mask >> x3) & 1:
            continue
        used = mask_of((x1, x2, x3))
        m1 = H.nbr_mask(x2, x3) & allowed & ~used
        pick = _pick_two(m1, rng)
        if pick is None:
            continue
        y1, z1 = pick
        used |= mask_of((y1, z1))
        m2 = (
            H.nbr_mask(x1, x3)
            & H.nbr_mask(y1, x3)
            & H.nbr_mask(z1, x3)
            & allowed
            & ~used
        )
        pick = _pick_two(m2, rng)
        if pick is None:
            continue
        y2, z2 = pick
        used |= mask_of((y2, z2))
        m3 = allowed & ~used
        for a in (x1, y1, z1):
            for b in (x2, y2, z2):
                m3 &= H.nbr_mask(a, b)
                if not m3:
                    break
            if not m3:
                break
        pick = _pick_two(m3, rng)
        if pick is None:
            continue
        y3, z3 = pick
        out = (x1, x2, x3, y1, y2, y3, z1, z2, z3)
        if _verify_k333(H, out):
            return out
    return None


def _pick_two(mask: int, rng) -> Optional[tuple[int, int]]:
    opts = list(bits(mask))
    if len(opts) < 2:
        return None
    i, j = rng.choice(len(opts), size=2, replace=False)
    return opts[int(i)], opts[int(j)]


def _verify_k333(H: Hypergraph3, vs: tuple) -> bool:
    x1, x2, x3, y1, y2, y3, z1, z2, z3 = vs
    if len(set(vs)) != 9:
        return False
    parts = ((x1, y1, z1), (x2, y2, z2), (x3, y3, z3))
    for a in parts[0]:
        for b in parts[1]:
            for c in parts[2]:
                if not H.has_edge(a, b, c):
                    return False
    return True


def k333_path_orderings(vs: tuple) -> tuple[list[int], list[int]]:
    """The two tight-path orderings of a labelled 3-partite gadget: the full
    nine-vertex threading and the six-vertex version with the middle
    transversal removed (same ends)."""
    x1, x2, x3, y1, y2, y3, z1, z2, z3 = vs
    return [x1, x2, x3, y1, y2, y3, z1, z2, z3], [x1, x2, x3, z1, z2, z3]


# -- tight 8-cycle and its blow-up ---------------------------------------------------


def find_c8(
    H: Hypergraph3, budget: int = 50000, avoid: Iterable[int] = ()
) -> Optional[TightPath]:
    """Backtrack for a tight cycle on 8 vertices (rooted at its minimum
    vertex, direction canonicalised) outside ``avoid``.  An avoided vertex
    outside 0..n-1 raises ValueError."""
    check_budget("budget", budget)
    allowed = H.vertex_mask() & ~checked_mask(H.n, avoid, "avoid")
    if allowed.bit_count() < 8:
        return None
    budget_left = [budget]

    def rec(seq: list[int], used: int, above: int):
        if budget_left[0] <= 0:
            return None
        budget_left[0] -= 1
        if len(seq) == 8:
            if (
                (H.nbr_mask(seq[6], seq[7]) >> seq[0]) & 1
                and (H.nbr_mask(seq[7], seq[0]) >> seq[1]) & 1
                and seq[1] < seq[7]
            ):
                return list(seq)
            return None
        cand = H.nbr_mask(seq[-2], seq[-1]) & ~used & above
        for t in bits(cand):
            seq.append(t)
            res = rec(seq, used | (1 << t), above)
            if res is not None:
                return res
            seq.pop()
        return None

    for v0 in bits(allowed):
        above = allowed >> (v0 + 1) << (v0 + 1)
        for v in bits(above):
            if not H.nbr_mask(v0, v):
                continue
            res = rec([v0, v], (1 << v0) | (1 << v), above)
            if res is not None:
                return TightPath(tuple(res), is_cycle=True)
            if budget_left[0] <= 0:
                return None
    return None


def find_c8_blowup(
    H: Hypergraph3,
    budget: int = 200000,
    seed: int = 0,
    t: int = 4,
    avoid: Iterable[int] = (),
) -> Optional[list[list[int]]]:
    """Search for a t-fold blow-up of the tight 8-cycle: 8 cyclic classes of
    size t whose consecutive-class transversal triples are all edges.

    Seeds come from tight 8-cycles and from the six-vertex double-apex gadget
    (two apex-sharing four-vertex motifs joined by a cherry); classes are then
    grown greedily inside common neighbourhoods with backtracking.

    ``budget`` counts node expansions for each of the (at most two) seeds;
    the 8-cycle search gets ``max(budget // 4, 1000)`` of its own, so the
    worst case is ``max(budget // 4, 1000) + 2 * budget`` nodes.  A class
    size t < 1 or an avoided vertex outside 0..n-1 raises ValueError."""
    check_budget("budget", budget)
    if t < 1:
        raise ValueError("class size t must be >= 1")
    avoid_mask = checked_mask(H.n, avoid, "avoid")
    if H.n - avoid_mask.bit_count() < 8 * t:
        return None
    seeds: list[list[list[int]]] = []
    c8 = find_c8(H, budget=max(budget // 4, 1000), avoid=bits(avoid_mask))
    if c8 is not None:
        seeds.append([[v] for v in c8.vertices])
    gadget = _find_double_apex_gadget(H, seed, avoid_mask=avoid_mask)
    if gadget is not None:
        x, a, y, z, yp, zp = gadget
        seeds.append([[x], [a], [y], [z], [yp], [zp], [], []])
    rng = np.random.Generator(np.random.PCG64(seed))
    for classes in seeds:
        res = _grow_blowup(H, classes, t, budget, rng, avoid_mask)
        if res is not None:
            return res
    return None


def _find_double_apex_gadget(H: Hypergraph3, seed: int, tries: int = 300, avoid_mask: int = 0):
    """Vertices (x, a, y, z, y', z'): {a,x,y,z} and {a,x,y',z'} span the
    apex-rooted motif with apex a, and yzy'z' is a tight path."""
    n = H.n
    ok_mask = H.vertex_mask() & ~avoid_mask
    rng = np.random.Generator(np.random.PCG64(seed ^ 0x5EED))
    for _ in range(tries):
        a = int(rng.integers(n))
        if not (ok_mask >> a) & 1:
            continue
        if degree(H, a) == 0:
            continue
        x = int(rng.integers(n))
        xnbr = H.nbr_mask(a, x) & ok_mask
        if x == a or not (ok_mask >> x) & 1 or not xnbr:
            continue
        # the link of a inside N(a, x) & ok_mask, as keys y*n+z
        tri = link_keys(H, a, xnbr).tolist()
        if len(tri) < 2:
            continue
        order = rng.permutation(len(tri))
        for ii in order.tolist()[:20]:
            y, z = divmod(tri[ii], n)
            for jj in order.tolist()[:20]:
                yp, zp = divmod(tri[jj], n)
                for yy, zz in ((y, z), (z, y)):
                    for yy2, zz2 in ((yp, zp), (zp, yp)):
                        vs = (x, a, yy, zz, yy2, zz2)
                        if len(set(vs)) != 6:
                            continue
                        if H.has_edge(yy, zz, yy2) and H.has_edge(zz, yy2, zz2):
                            return vs
    return None


def _grow_blowup(H, classes, t, budget, rng, avoid_mask: int = 0):
    """Grow the seed classes to size t by depth-first search.  Each node
    extends the first smallest class by one of its candidates (a random eight
    when there are more); ``budget`` counts node expansions.

    A candidate for class i lies in N(u, v) for every u, v in the class pairs
    (i-2, i-1), (i-1, i+1) and (i+1, i+2).  These pair products are kept as
    running ANDs, ``near[k]`` over classes k x k+1 and ``skip[k]`` over
    k-1 x k+1, so placing a vertex updates four masks with at most t lookups
    each."""
    classes = [list(c) for c in classes]
    nbr_mask = H.nbr_mask
    full = H.vertex_mask()

    def link(v: int, cls: list[int]) -> int:
        """AND of N(v, w) over w in cls; every vertex when cls is empty."""
        m = full
        for w in cls:
            m &= nbr_mask(v, w)
        return m

    # negative class indices wrap round the cycle like the positive ones
    near = [full] * 8
    skip = [full] * 8
    for k in range(8):
        for u in classes[k]:
            near[k] &= link(u, classes[(k + 1) % 8])
        for u in classes[k - 1]:
            skip[k] &= link(u, classes[(k + 1) % 8])
    sizes = [len(c) for c in classes]
    used = mask_of(v for c in classes for v in c) | avoid_mask
    budget_left = budget

    def rec() -> bool:
        nonlocal budget_left, used
        if budget_left <= 0:
            return False
        budget_left -= 1
        smallest = min(sizes)
        if smallest == t:
            return True
        i = sizes.index(smallest)
        a, b = i - 1, (i + 1) % 8
        opts = list(bits(full & ~used & near[i - 2] & skip[i] & near[b]))
        if len(opts) > 8:
            idx = rng.permutation(len(opts))[:8]
            opts = [opts[int(j)] for j in idx]
        cls = classes[i]
        saved = near[a], near[i], skip[a], skip[b]
        for v in opts:
            near[a] = saved[0] & link(v, classes[a])
            near[i] = saved[1] & link(v, classes[b])
            skip[a] = saved[2] & link(v, classes[i - 2])
            skip[b] = saved[3] & link(v, classes[(i + 2) % 8])
            cls.append(v)
            sizes[i] += 1
            used |= 1 << v
            if rec():
                return True
            cls.pop()
            sizes[i] -= 1
            used ^= 1 << v
        near[a], near[i], skip[a], skip[b] = saved
        return False

    if rec():
        ordering = blowup_path_ordering(classes)
        if verify_tight_path(H, ordering):
            return classes
    return None


def blowup_path_ordering(classes: list[list[int]], drop_layers: tuple[int, ...] = ()) -> list[int]:
    """Layer-by-layer path ordering of blow-up classes; dropping layer sets
    (1,) or (1, 2) keeps a tight path with the same ends."""
    t = len(classes[0])
    out = []
    for layer in range(t):
        if layer in drop_layers:
            continue
        out.extend(c[layer] for c in classes)
    return out
