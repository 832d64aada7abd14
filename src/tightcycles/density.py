"""Uniform-density deviations (vvv / ev / ee) and regularity utilities.

Each deviation reports the worst signed slack ``raw`` found over the notion's
test families, the witness realising it, and ``rho_hat = max(0, -raw)/n^3``.
Exact modes enumerate by Gray-code walks (ee by a split over the middle
vertex) and are only allowed below fixed budgets; heuristic and sampled modes
are restricted searches whose witnesses are recounted exactly, so a reported
violation is always genuine.

The target density d is handled as a rational p/q throughout (floats are
snapped to the nearest fraction with denominator <= 10^9), which makes raw
values exactly reproducible from their witnesses.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import sqrt
from typing import Iterable, Optional

import numpy as np

from . import kernels
from ._pykernels import ee_pair_list
from .errors import BudgetError
from .hypercore import Graph, Hypergraph3, PairSet, bits, mask_bools, mask_of

__all__ = [
    "DeviationReport",
    "RegularPairReport",
    "EV_EXACT_MAX_N",
    "VVV_EXACT_MAX_N",
    "EE_EXACT_MAX_N",
    "ev_deviation",
    "vvv_deviation",
    "ee_deviation",
    "ev_value",
    "vvv_value",
    "ee_value",
    "restricted_degree_filter",
    "find_regular_pair",
    "partite_shadow_sizes",
]

EV_EXACT_MAX_N = 24
VVV_EXACT_MAX_N = 11
EE_EXACT_MAX_N = 12

_MODES = ("exact", "heuristic", "sampled")


def as_density_fraction(d) -> Fraction:
    """Snap a density parameter to an exact rational (denominator <= 1e9)."""
    if isinstance(d, Fraction):
        f = d
    elif isinstance(d, str):
        f = Fraction(d)
    elif isinstance(d, int):
        f = Fraction(d)
    else:
        f = Fraction(d).limit_denominator(10**9)
    if not 0 <= f <= 1:
        raise ValueError("density d must lie in [0, 1]")
    return f


@dataclass
class DeviationReport:
    """Outcome of one deviation search."""

    notion: str
    d: float
    raw: float
    rho_hat: float
    witness: dict
    exact: bool
    mode: str
    n: int
    raw_fraction: tuple[int, int]
    samples: Optional[int] = None

    def to_dict(self) -> dict:
        return {
            "schema_version": 1,
            "notion": self.notion,
            "d": self.d,
            "raw": self.raw,
            "rho_hat": self.rho_hat,
            "witness": self.witness,
            "exact": self.exact,
            "mode": self.mode,
            "n": self.n,
            "raw_num": self.raw_fraction[0],
            "raw_den": self.raw_fraction[1],
            "samples": self.samples,
        }


@dataclass
class RegularPairReport:
    V1: list
    V2: list
    eta: float
    density: float
    certified: bool

    def to_dict(self) -> dict:
        return {
            "schema_version": 1,
            "V1": self.V1,
            "V2": self.V2,
            "eta": self.eta,
            "density": self.density,
            "certified": self.certified,
        }


# -- exact recounts (witness -> value, integer arithmetic) -------------------


def ev_value(H: Hypergraph3, d, X: Iterable[int], P: Iterable[tuple[int, int]]) -> Fraction:
    """e(X, P) - d |X| |P| for a vertex set and an ordered pair collection."""
    d = as_density_fraction(d)
    xs = set(X)
    xmask = mask_of(xs)
    pl = list(P)
    e = sum((H.nbr_mask(y, z) & xmask).bit_count() for y, z in pl)
    return e - d * len(xs) * len(pl)


def vvv_value(H, d, X, Y, Z) -> Fraction:
    """e(X, Y, Z) - d |X| |Y| |Z|, counting ordered (x, y) per z."""
    d = as_density_fraction(d)
    xm, ym = mask_of(X), mask_of(Y)
    zs = set(Z)
    if any(not 0 <= z < H.n for z in zs):
        raise ValueError(f"Z has a vertex outside 0..{H.n - 1}")
    off, pairs = H.link_index()
    zb = np.zeros(H.n, dtype=bool)
    zb[list(zs)] = True
    a, b = pairs[np.repeat(zb, np.diff(off))].T
    xb, yb = mask_bools(xm, H.n), mask_bools(ym, H.n)
    e = int(np.count_nonzero(xb[a] & yb[b]) + np.count_nonzero(xb[b] & yb[a]))
    return e - d * xm.bit_count() * ym.bit_count() * len(zs)


def ee_value(H, d, P: Iterable[tuple[int, int]], Q: Iterable[tuple[int, int]]) -> Fraction:
    """e(P, Q) - d |K(Q, P)| where K pairs (x,y) in P with (y,z) in Q over
    three distinct vertices."""
    d = as_density_fraction(d)
    psec: dict[int, int] = {}
    for x, y in P:
        psec[y] = psec.get(y, 0) | (1 << x)
    e = 0
    k = 0
    for y, z in Q:
        xm = psec.get(y, 0)
        k += (xm & ~(1 << z)).bit_count()
        e += (xm & H.nbr_mask(y, z)).bit_count()
    return e - d * k


def _report(notion, H, mode, dfrac, raw: Fraction, witness, exact, samples=None):
    n3 = max(H.n, 1) ** 3
    rho = Fraction(0) if raw >= 0 else -raw / n3
    return DeviationReport(
        notion=notion,
        d=float(dfrac),
        raw=float(raw),
        rho_hat=float(rho),
        witness=witness,
        exact=exact,
        mode=mode,
        n=H.n,
        raw_fraction=(raw.numerator, raw.denominator),
        samples=samples,
    )


# -- ev ----------------------------------------------------------------------


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


def ev_deviation(
    H: Hypergraph3,
    d,
    mode: str = "exact",
    samples: int = 100_000,
    seed: int = 0,
    restarts: int = 32,
) -> DeviationReport:
    """Deviation over vertex sets X and ordered pair collections P.

    exact: Gray-code enumeration of X with per-pair optimal P (n <= 24).
    heuristic: seeded multi-restart local search over X.
    sampled: the same search bounded by a total number of flip proposals.
    """
    if mode not in _MODES:
        raise ValueError(f"mode must be one of {_MODES}")
    dfrac = as_density_fraction(d)
    p, q = dfrac.numerator, dfrac.denominator
    if mode == "exact":
        if H.n > EV_EXACT_MAX_N:
            raise BudgetError(
                f"ev exact exceeds exact budget (n={H.n} > {EV_EXACT_MAX_N})"
            )
        _, xmask = kernels.backend().ev_exact(H.edge_tensor(), p, q)
        xs, P = _ev_witness_from_mask(H, p, q, int(xmask))
        raw = ev_value(H, dfrac, xs, P)
        return _report("ev", H, mode, dfrac, raw, {"X": xs, "P": P}, True)

    budget = samples if mode == "sampled" else None
    xmask, used = _ev_search(H, p, q, seed, restarts=restarts, budget=budget)
    xs, P = _ev_witness_from_mask(H, p, q, xmask)
    raw = ev_value(H, dfrac, xs, P)
    return _report(
        "ev", H, mode, dfrac, raw, {"X": xs, "P": P}, False,
        samples=used if mode == "sampled" else None,
    )


def _ev_search(H, p, q, seed, restarts=32, budget=None):
    """Local search over X; returns (best X mask, proposals evaluated).

    Maintains per-pair counts |N(y,z) ∩ X| and their histogram so a vertex
    flip costs O(deg); the objective is exact integer arithmetic throughout.
    """
    n = H.n
    if n == 0:
        return 0, 0
    rng = np.random.Generator(np.random.PCG64(seed))
    off, pairs = H.link_index()
    linkkeys = np.split(pairs[:, 0] * n + pairs[:, 1], off[1:-1])
    valid = np.array([a * n + b for a in range(n) for b in range(a + 1, n)], dtype=np.int64)
    npairs = len(valid)
    cgrid = np.arange(n, dtype=np.int64)

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


# -- vvv ---------------------------------------------------------------------


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


def vvv_deviation(
    H: Hypergraph3,
    d,
    mode: str = "exact",
    samples: int = 100_000,
    seed: int = 0,
    restarts: int = 32,
) -> DeviationReport:
    """Deviation over vertex set triples (X, Y, Z).

    exact: Gray-code enumeration of (X, Y) with per-vertex optimal Z (n <= 11).
    heuristic/sampled: alternating minimisation with seeded restarts.
    """
    if mode not in _MODES:
        raise ValueError(f"mode must be one of {_MODES}")
    dfrac = as_density_fraction(d)
    p, q = dfrac.numerator, dfrac.denominator
    if mode == "exact":
        if H.n > VVV_EXACT_MAX_N:
            raise BudgetError(
                f"vvv exact exceeds exact budget (n={H.n} > {VVV_EXACT_MAX_N})"
            )
        _, xm, ym = kernels.backend().vvv_exact(H.edge_tensor(), p, q)
        xs, ys, zs = _vvv_witness(H, p, q, int(xm), int(ym))
        raw = vvv_value(H, dfrac, xs, ys, zs)
        return _report("vvv", H, mode, dfrac, raw, {"X": xs, "Y": ys, "Z": zs}, True)

    budget = samples if mode == "sampled" else None
    (xm, ym), used = _vvv_alternating(H, p, q, seed, restarts, budget)
    xs, ys, zs = _vvv_witness(H, p, q, xm, ym)
    raw = vvv_value(H, dfrac, xs, ys, zs)
    return _report(
        "vvv", H, mode, dfrac, raw, {"X": xs, "Y": ys, "Z": zs}, False,
        samples=used if mode == "sampled" else None,
    )


def _vvv_witness(H, p, q, xmask, ymask):
    n = H.n
    m = _vvv_margins(H, mask_bools(xmask, n), mask_bools(ymask, n))
    kx, ky = xmask.bit_count(), ymask.bit_count()
    zs = [z for z in range(n) if m[z] * q < p * kx * ky]
    return sorted(bits(xmask)), sorted(bits(ymask)), zs


def _vvv_alternating(H, p, q, seed, restarts, budget):
    n = H.n
    rng = np.random.Generator(np.random.PCG64(seed))
    best_val = Fraction(0)
    best = (0, 0)
    used = 0
    dfrac = Fraction(p, q)
    for r in range(max(restarts, 1)):
        if budget is not None and used >= budget:
            break
        if r == 0:
            xb = np.ones(n, dtype=bool)
            yb = np.ones(n, dtype=bool)
        else:
            xb = rng.random(n) < 0.5
            yb = rng.random(n) < 0.5
        prev = None
        for _ in range(40):
            m = _vvv_margins(H, xb, yb)
            kxy = int(xb.sum()) * int(yb.sum())
            zb = m * q < p * kxy
            used += 1
            # optimise X against (Y, Z)
            mx = _vvv_margins(H, yb, zb)
            xb = mx * q < p * int(yb.sum()) * int(zb.sum())
            used += 1
            my = _vvv_margins(H, xb, zb)
            yb = my * q < p * int(xb.sum()) * int(zb.sum())
            used += 1
            state = (xb.tobytes(), yb.tobytes())
            if state == prev or (budget is not None and used >= budget):
                break
            prev = state
        xm = mask_of(np.nonzero(xb)[0].tolist())
        ym = mask_of(np.nonzero(yb)[0].tolist())
        xs, ys, zs = _vvv_witness(H, p, q, xm, ym)
        val = vvv_value(H, dfrac, xs, ys, zs)
        if val < best_val:
            best_val = val
            best = (xm, ym)
    return best, used


# -- ee ----------------------------------------------------------------------


def ee_deviation(
    H: Hypergraph3,
    d,
    mode: str = "exact",
    samples: int = 100_000,
    seed: int = 0,
    restarts: int = 32,
) -> DeviationReport:
    """Deviation over two ordered pair collections sharing a middle vertex.

    exact: per middle vertex y, enumeration of the sections
    S_y = {x : (x, y) in P} with per-pair optimal Q (n <= 12).
    heuristic/sampled: alternating minimisation (fix P, optimise Q; swap).
    Only triples of three distinct vertices contribute.
    """
    if mode not in _MODES:
        raise ValueError(f"mode must be one of {_MODES}")
    dfrac = as_density_fraction(d)
    p, q = dfrac.numerator, dfrac.denominator
    if mode == "exact":
        if H.n > EE_EXACT_MAX_N:
            raise BudgetError(
                f"ee exact exceeds exact budget (n={H.n} > {EE_EXACT_MAX_N})"
            )
        _, pmask = kernels.backend().ee_exact(H.edge_tensor(), p, q)
        pairs = ee_pair_list(H.n)
        P = [pairs[i] for i in bits(int(pmask))]
        Q = _ee_best_q(H, p, q, P)
        raw = ee_value(H, dfrac, P, Q)
        return _report("ee", H, mode, dfrac, raw, {"P": P, "Q": Q}, True)

    budget = samples if mode == "sampled" else None
    (P, Q), used = _ee_alternating(H, p, q, seed, restarts, budget)
    raw = ee_value(H, dfrac, P, Q)
    return _report(
        "ee", H, mode, dfrac, raw, {"P": P, "Q": Q}, False,
        samples=used if mode == "sampled" else None,
    )


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


# -- regularity utilities ----------------------------------------------------


def restricted_degree_filter(H: Hypergraph3, X: Iterable[int], P: PairSet, d, rho) -> set:
    """Vertices x in X whose pair neighbourhood inside P falls below
    (d - sqrt(rho)) |P|."""
    if not P.ordered:
        raise ValueError("P must be an ordered PairSet")
    dv = float(as_density_fraction(d))
    thr = (dv - sqrt(rho)) * len(P)
    xs = set(X)
    out = set()
    for x in xs:
        cnt = sum(1 for y, z in P.members if (H.nbr_mask(y, z) >> x) & 1)
        if cnt < thr:
            out.add(x)
    return out


def partite_shadow_sizes(H: Hypergraph3, V1, V2, V3) -> tuple[int, int]:
    """Shadow sizes |∂H[V1,V3]| and |∂H[V2,V3]| for three disjoint equal parts."""
    s1, s2, s3 = set(V1), set(V2), set(V3)
    if s1 & s2 or s1 & s3 or s2 & s3:
        raise ValueError("parts must be pairwise disjoint")
    if not (len(s1) == len(s2) == len(s3)):
        raise ValueError("parts must have equal sizes")

    def count(a, b):
        return sum(1 for u in a for v in b if H.nbr_mask(u, v))

    return count(s1, s3), count(s2, s3)


def find_regular_pair(
    G: Graph,
    eta: float,
    d: float,
    seed: int = 0,
    probes: int = 40,
) -> RegularPairReport:
    """Probe for an equal-size disjoint pair (V1, V2) with no irregularity
    witness; on a witness, recurse into the densest quadrant (density
    increment).  The result is never certified, only probe-clean."""
    n = G.n
    if G.edge_count() < d * n * n / 2:
        raise ValueError("graph too sparse for the requested density")
    rng = np.random.Generator(np.random.PCG64(seed))
    order = rng.permutation(n).tolist()
    half = n // 2
    V1, V2 = order[:half], order[half : 2 * half]

    max_depth = min(int(4 / max(eta * eta, 1e-6)) + 4, 64)
    for _ in range(max_depth):
        k = len(V1)
        if k < 4:
            break
        m1, m2 = mask_of(V1), mask_of(V2)
        dens = G.count_between(m1, m2) / (k * k)
        witness = _probe_irregularity(G, V1, V2, dens, eta, rng, probes)
        if witness is None:
            return RegularPairReport(sorted(V1), sorted(V2), eta, dens, False)
        X, Y = witness
        bestq = None
        for A in (X, [v for v in V1 if v not in set(X)]):
            for B in (Y, [v for v in V2 if v not in set(Y)]):
                if len(A) < 2 or len(B) < 2:
                    continue
                qd = G.count_between(mask_of(A), mask_of(B)) / (len(A) * len(B))
                if bestq is None or qd > bestq[0]:
                    bestq = (qd, A, B)
        if bestq is None:
            break
        _, A, B = bestq
        s = min(len(A), len(B))
        V1, V2 = sorted(A)[:s], sorted(B)[:s]
    k = len(V1)
    dens = G.count_between(mask_of(V1), mask_of(V2)) / max(k * k, 1)
    return RegularPairReport(sorted(V1), sorted(V2), eta, dens, False)


def _probe_irregularity(G, V1, V2, dens, eta, rng, probes):
    k = len(V1)
    tol = eta * k * k

    def deviation(X, Y):
        if not X or not Y:
            return 0.0, None
        e = G.count_between(mask_of(X), mask_of(Y))
        return abs(e - dens * len(X) * len(Y)), (X, Y)

    candidates = []
    for _ in range(probes):
        X = [v for v in V1 if rng.random() < 0.5]
        Y = [v for v in V2 if rng.random() < 0.5]
        candidates.append((X, Y))
    m2 = mask_of(V2)
    m1 = mask_of(V1)
    by_deg1 = sorted(V1, key=lambda v: -(G.adj[v] & m2).bit_count())
    by_deg2 = sorted(V2, key=lambda v: -(G.adj[v] & m1).bit_count())
    for fx in (0.25, 0.5, 0.75):
        for fy in (0.25, 0.5, 0.75):
            candidates.append(
                (by_deg1[: max(1, int(fx * k))], by_deg2[: max(1, int(fy * k))])
            )
    worst = (0.0, None)
    for X, Y in candidates:
        dev, w = deviation(X, Y)
        if dev > worst[0]:
            worst = (dev, w)
    if worst[0] > tol:
        return worst[1]
    return None
