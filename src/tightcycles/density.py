"""Uniform-density deviations (vvv / ev / ee) and their exact recounts.

Each deviation reports the worst signed slack ``raw`` found over the notion's
test families, the witness realising it, and ``rho_hat = max(0, -raw)/n^3``.
Exact modes enumerate by Gray-code walks (ee by a split over the middle
vertex) and are only allowed below fixed budgets; heuristic and sampled modes
are restricted searches whose witnesses are recounted exactly, so a reported
violation is always genuine.

Every search step and witness counts "how many thirds x of a pair lie in a
set" with :meth:`Hypergraph3.pair_counts`; the recounts ``ev_value``,
``vvv_value`` and ``ee_value`` stay independent of it.

The target density d is handled as a rational p/q throughout (floats are
snapped to the nearest fraction with denominator <= 10^9), which makes raw
values exactly reproducible from their witnesses.  Every margin comparison
q*count < p*size takes its dtype from the exact kernels' rule (``_wide``):
int64 while nothing can wrap, Python integers beyond.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional

import numpy as np

from . import kernels
from ._pykernels import _wide
from .errors import BudgetError
from .hypercore import Hypergraph3, mask_bools, mask_of

__all__ = [
    "DeviationReport",
    "EV_EXACT_MAX_N",
    "VVV_EXACT_MAX_N",
    "EE_EXACT_MAX_N",
    "ev_deviation",
    "vvv_deviation",
    "ee_deviation",
    "ev_value",
    "vvv_value",
    "ee_value",
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


# -- exact recounts (witness -> value, integer arithmetic) -------------------


def _check_range(H, **witness) -> None:
    for name, part in witness.items():
        vs = np.asarray(list(part))  # object dtype for ints beyond int64
        if vs.size and not (vs.min() >= 0 and vs.max() < H.n):
            raise ValueError(f"{name} has a vertex outside 0..{H.n - 1}")


def ev_value(H: Hypergraph3, d, X: Iterable[int], P: Iterable[tuple[int, int]]) -> Fraction:
    """e(X, P) - d |X| |P| for a vertex set and an ordered pair collection."""
    d = as_density_fraction(d)
    xs, pl = set(X), list(P)
    _check_range(H, X=xs, P=pl)
    xmask = mask_of(xs)
    e = sum((H.nbr_mask(y, z) & xmask).bit_count() for y, z in pl)
    return e - d * len(xs) * len(pl)


def vvv_value(H, d, X, Y, Z) -> Fraction:
    """e(X, Y, Z) - d |X| |Y| |Z|, counting ordered (x, y) per z."""
    d = as_density_fraction(d)
    sets = {"X": set(X), "Y": set(Y), "Z": set(Z)}
    _check_range(H, **sets)
    xb, yb, zb = np.zeros((3, H.n), dtype=bool)
    for row, vs in zip((xb, yb, zb), sets.values()):
        row[list(vs)] = True
    off, pairs = H.link_index()
    a, b = pairs[np.repeat(zb, np.diff(off))].T
    e = int(np.count_nonzero(xb[a] & yb[b]) + np.count_nonzero(xb[b] & yb[a]))
    return e - d * int(xb.sum()) * int(yb.sum()) * int(zb.sum())


def ee_value(H, d, P: Iterable[tuple[int, int]], Q: Iterable[tuple[int, int]]) -> Fraction:
    """e(P, Q) - d |K(Q, P)| where K pairs (x,y) in P with (y,z) in Q over
    three distinct vertices."""
    d = as_density_fraction(d)
    P, Q = list(P), list(Q)
    _check_range(H, P=P, Q=Q)
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


# -- search helpers ----------------------------------------------------------


def _below(a, b, p, q, n) -> np.ndarray:
    """The margin test a*q < p*b, elementwise, in the dtype ``_wide`` picks
    for (p, q, n), so no product wraps."""
    dt = _wide(p, q, n)
    return np.asarray(a).astype(dt) * q < p * np.asarray(b).astype(dt)


def _pairs(M: np.ndarray) -> list[tuple[int, int]]:
    """The pairs (u, v) set in a boolean matrix, in row-major order."""
    return [tuple(uv) for uv in np.argwhere(M).tolist()]


def _offdiag(n: int, flags) -> np.ndarray:
    """The n x n boolean matrix holding ``flags`` off the diagonal, in
    row-major order (the pair order of ``ee_pair_list``)."""
    M = np.zeros((n, n), dtype=bool)
    M[~np.eye(n, dtype=bool)] = flags
    return M


# -- ev ----------------------------------------------------------------------


def _ev_witness(H, p, q, xmask):
    """X and its best P: the ordered pairs (y, z) with q*|N(y,z) ∩ X| < p*|X|."""
    n = H.n
    xb = mask_bools(xmask, n)
    P = _below(H.pair_counts(xb), xmask.bit_count(), p, q, n)
    np.fill_diagonal(P, False)
    return np.flatnonzero(xb).tolist(), _pairs(P)


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
        xs, P = _ev_witness(H, p, q, int(xmask))
        raw = ev_value(H, dfrac, xs, P)
        return _report("ev", H, mode, dfrac, raw, {"X": xs, "P": P}, True)

    budget = samples if mode == "sampled" else None
    xmask, used = _ev_search(H, p, q, seed, restarts=restarts, budget=budget)
    xs, P = _ev_witness(H, p, q, xmask)
    raw = ev_value(H, dfrac, xs, P)
    return _report(
        "ev", H, mode, dfrac, raw, {"X": xs, "P": P}, False,
        samples=used if mode == "sampled" else None,
    )


def _ev_search(H, p, q, seed, restarts=32, budget=None):
    """Local search over X; returns (best X mask, proposals evaluated).

    Each restart starts from the counts |N(y,z) ∩ X| of ``pair_counts`` and
    their histogram over unordered pairs.  Flipping v moves each pair in v's
    link by the same ±1, so the candidate histogram takes one ``bincount`` of
    their counts, shifted by one place; it is written only on acceptance.
    """
    n = H.n
    if n == 0:
        return 0, 0
    rng = np.random.Generator(np.random.PCG64(seed))
    off, pairs = H.link_index()
    linkkeys = np.split(pairs[:, 0] * n + pairs[:, 1], off[1:-1])
    upper = np.triu_indices(n, 1)
    cq = np.arange(n).astype(_wide(p, q, n)) * q

    def objective(hist, k):
        return 2 * int(hist @ np.minimum(cq - p * k, 0))

    best_num = 0
    best_mask = 0
    used = 0
    r = 0
    while r < restarts if budget is None else used < budget:
        xb = np.ones(n, dtype=bool) if r == 0 else rng.random(n) < 0.5
        xmask = mask_of(np.flatnonzero(xb).tolist())
        k = xmask.bit_count()
        cnt = H.pair_counts(xb)
        hist = np.bincount(cnt[upper], minlength=n)
        cnt = cnt.ravel()
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
            # moved[c + 1] pairs leave count c for c + delta; a link pair's
            # count stays in 0..n-2, so both pads are 0
            moved = np.bincount(old + 1, minlength=n + 2)
            hist2 = hist - moved[1:-1] + moved[1 - delta : n + 1 - delta]
            s2 = objective(hist2, k + delta)
            used += 1
            if s2 < s:
                s, k, hist = s2, k + delta, hist2
                cnt[keys] = old + delta
                xmask ^= 1 << v
                if s < best_num:
                    best_num, best_mask = s, xmask
                stall = 0
            else:
                stall += 1
        r += 1
    return best_mask, used


# -- vvv ---------------------------------------------------------------------


def _vvv_margins(H, amask_bool, bmask_bool):
    """Per-vertex counts of ordered pairs (a, b) in A x B completing an edge."""
    return H.pair_counts(bmask_bool) @ amask_bool


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
        xs, ys, zs = _vvv_witness(H, p, q, mask_bools(int(xm), H.n), mask_bools(int(ym), H.n))
        raw = vvv_value(H, dfrac, xs, ys, zs)
        return _report("vvv", H, mode, dfrac, raw, {"X": xs, "Y": ys, "Z": zs}, True)

    budget = samples if mode == "sampled" else None
    (xb, yb), used = _vvv_alternating(H, p, q, seed, restarts, budget)
    xs, ys, zs = _vvv_witness(H, p, q, xb, yb)
    raw = vvv_value(H, dfrac, xs, ys, zs)
    return _report(
        "vvv", H, mode, dfrac, raw, {"X": xs, "Y": ys, "Z": zs}, False,
        samples=used if mode == "sampled" else None,
    )


def _vvv_best(H, p, q, a, b):
    """The vertices v with q*#{(x, y) in A x B : xyv an edge} < p*|A||B|."""
    return _below(_vvv_margins(H, a, b), int(a.sum()) * int(b.sum()), p, q, H.n)


def _vvv_witness(H, p, q, xb, yb):
    """X, Y and their best Z, as sorted vertex lists."""
    return [np.flatnonzero(v).tolist() for v in (xb, yb, _vvv_best(H, p, q, xb, yb))]


def _vvv_alternating(H, p, q, seed, restarts, budget):
    n = H.n
    rng = np.random.Generator(np.random.PCG64(seed))
    best_val = Fraction(0)
    best = (np.zeros(n, dtype=bool),) * 2
    used = 0
    dfrac = Fraction(p, q)
    for r in range(max(restarts, 1)):
        if budget is not None and used >= budget:
            break
        xb, yb = (np.ones(n, dtype=bool) if r == 0 else rng.random(n) < 0.5 for _ in "xy")
        prev = None
        for _ in range(40):
            zb = _vvv_best(H, p, q, xb, yb)
            used += 1
            # optimise X against (Y, Z)
            xb = _vvv_best(H, p, q, yb, zb)
            used += 1
            yb = _vvv_best(H, p, q, xb, zb)
            used += 1
            state = (xb.tobytes(), yb.tobytes())
            if state == prev or (budget is not None and used >= budget):
                break
            prev = state
        val = vvv_value(H, dfrac, *_vvv_witness(H, p, q, xb, yb))
        if val < best_val:
            best_val = val
            best = (xb, yb)
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
        Pm = _offdiag(H.n, mask_bools(int(pmask), H.n * (H.n - 1)))
        P, Q = _pairs(Pm), _pairs(_ee_best(H, p, q, Pm.T))
        raw = ee_value(H, dfrac, P, Q)
        return _report("ee", H, mode, dfrac, raw, {"P": P, "Q": Q}, True)

    budget = samples if mode == "sampled" else None
    (P, Q), used = _ee_alternating(H, p, q, seed, restarts, budget)
    raw = ee_value(H, dfrac, P, Q)
    return _report(
        "ee", H, mode, dfrac, raw, {"P": P, "Q": Q}, False,
        samples=used if mode == "sampled" else None,
    )


def _ee_best(H, p, q, S):
    """The best response to the sections in the rows of S, as an n x n
    boolean matrix: entry [y, z] is set iff z != y and
    q*|S_y ∩ N(y, z)| < p*|S_y ∖ {z}|.

    With S[y, x] = [(x, y) in P] it is the best Q against P; with S = Q, its
    transpose is the best P against Q.
    """
    S = np.asarray(S, dtype=bool)
    M = _below(H.pair_counts(S), S.sum(axis=1, keepdims=True) - S, p, q, H.n)
    np.fill_diagonal(M, False)
    return M


def _ee_alternating(H, p, q, seed, restarts, budget):
    n = H.n
    rng = np.random.Generator(np.random.PCG64(seed))
    dfrac = Fraction(p, q)
    best_val = Fraction(0)
    best = ([], [])
    used = 0
    for r in range(max(restarts, 1)):
        if budget is not None and used >= budget:
            break
        Pm = _offdiag(n, True if r == 0 else rng.random(n * (n - 1)) < 0.5)
        prev = None
        for _ in range(40):
            Qm = _ee_best(H, p, q, Pm.T)
            used += 1
            Pm = _ee_best(H, p, q, Qm).T
            used += 1
            state = (Pm.tobytes(), Qm.tobytes())
            if state == prev or (budget is not None and used >= budget):
                break
            prev = state
        P, Q = _pairs(Pm), _pairs(Qm)
        val = ee_value(H, dfrac, P, Q)
        if val < best_val:
            best_val = val
            best = (P, Q)
    return best, used
