"""Uniform-density deviations (vvv / ev / ee) and their exact recounts.

Each deviation reports the worst signed slack ``raw`` found over the notion's
test families, the witness realising it, and ``rho_hat = max(0, -raw)/n^3``.
Exact modes enumerate by Gray-code walks (ee by a split over the middle
vertex) and are only allowed below fixed budgets; heuristic and sampled modes
are restricted searches whose witnesses are recounted exactly, so a reported
violation is always genuine.

Every search step, restart score and witness counts "how many thirds x of a
pair lie in a set" with :func:`hypercore.pair_counts`, a float32 product over
the dense edge tensor.  Each ``*_deviation`` call builds that tensor once
(4n^3 bytes), hands it to its search, its witness and, in exact mode, its
kernel, and drops it on return.  The recounts ``ev_value``, ``vvv_value`` and
``ee_value`` stay independent of it.

The target density d is handled as a rational p/q throughout (floats are
snapped to the nearest fraction with denominator <= 10^9), which makes raw
values exactly reproducible from their witnesses.  Every margin
q*count - p*size, and every sum of margins that scores a restart, takes its
dtype from the exact kernels' rule (``_wide``): int64 while nothing can wrap,
Python integers beyond.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional

import numpy as np

from . import kernels
from ._pykernels import _wide
from .errors import BudgetError, check_budget
from .hypercore import Hypergraph3, mask_bools, mask_of, pair_counts

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
    """e(X, Y, Z) - d |X| |Y| |Z|, with e the sum over z in Z and x in X of
    |N(x, z) ∩ Y|."""
    d = as_density_fraction(d)
    xs, ys, zs = set(X), set(Y), set(Z)
    _check_range(H, X=xs, Y=ys, Z=zs)
    ymask = mask_of(int(y) for y in ys)
    e = sum((H.nbr_mask(x, z) & ymask).bit_count() for z in zs for x in xs)
    return e - d * len(xs) * len(ys) * len(zs)


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


def _margin(a, b, p, q, n) -> np.ndarray:
    """The margins q*a - p*b, elementwise, in the dtype ``_wide`` picks for
    (p, q, n), so neither a margin nor a sum of n^2 margins wraps."""
    dt = _wide(p, q, n)
    return np.asarray(a).astype(dt) * q - p * np.asarray(b).astype(dt)


def _search_budget(mode, samples, restarts):
    """The proposal budget of a heuristic (None) or sampled search.  A budget
    that would run no search is refused: it would report no violation."""
    check_budget("restarts", restarts)
    if mode != "sampled":
        return None
    check_budget("samples", samples)
    return samples


def _pairs(M: np.ndarray) -> list[tuple[int, int]]:
    """The pairs (u, v) set in a boolean matrix, in row-major order."""
    return [tuple(uv) for uv in np.argwhere(M).tolist()]


def _offdiag(n: int, flags) -> np.ndarray:
    """The n x n boolean matrix holding ``flags`` off the diagonal, in
    row-major order (the pair order of ``ee_exact``'s P mask)."""
    M = np.zeros((n, n), dtype=bool)
    M[~np.eye(n, dtype=bool)] = flags
    return M


# -- ev ----------------------------------------------------------------------


def _ev_witness(T, p, q, xmask):
    """X and its best P: the ordered pairs (y, z) with q*|N(y,z) ∩ X| < p*|X|."""
    n = len(T)
    xb = mask_bools(xmask, n)
    P = _margin(pair_counts(T, xb), xmask.bit_count(), p, q, n) < 0
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
        T = H.edge_tensor()
        _, xmask = kernels.backend().ev_exact(T, p, q)
        xs, P = _ev_witness(T, p, q, int(xmask))
        raw = ev_value(H, dfrac, xs, P)
        return _report("ev", H, mode, dfrac, raw, {"X": xs, "P": P}, True)

    budget = _search_budget(mode, samples, restarts)
    T = H.edge_tensor()
    xmask, used = _ev_search(T, p, q, seed, restarts=restarts, budget=budget)
    xs, P = _ev_witness(T, p, q, xmask)
    raw = ev_value(H, dfrac, xs, P)
    return _report(
        "ev", H, mode, dfrac, raw, {"X": xs, "P": P}, False,
        samples=used if mode == "sampled" else None,
    )


def _ev_search(T, p, q, seed, restarts=32, budget=None):
    """Local search over X; returns (best X mask, proposals evaluated).

    Each restart starts from the counts |N(y,z) ∩ X| of ``pair_counts`` and
    their histogram over unordered pairs.  Flipping v moves each pair in v's
    link by the same ±1, so the candidate histogram takes one ``bincount`` of
    their counts, shifted by one place; it is written only on acceptance.
    """
    n = len(T)
    if n == 0:
        return 0, 0
    rng = np.random.Generator(np.random.PCG64(seed))
    upper = np.flatnonzero(np.triu(np.ones((n, n), dtype=bool), 1))  # keys a*n+b, a < b
    # v's link pairs as keys, in edge order (see link_pairs)
    linkkeys = [upper[T[v].ravel()[upper] != 0] for v in range(n)]
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
        cnt = pair_counts(T, xb).ravel()
        hist = np.bincount(cnt[upper], minlength=n)
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


def _vvv_margins(T, amask_bool, bmask_bool):
    """Per-vertex counts of ordered pairs (a, b) in A x B completing an edge."""
    return pair_counts(T, bmask_bool) @ amask_bool


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
        T = H.edge_tensor()
        _, xm, ym = kernels.backend().vvv_exact(T, p, q)
        xs, ys, zs = _vvv_witness(T, p, q, mask_bools(int(xm), H.n), mask_bools(int(ym), H.n))
        raw = vvv_value(H, dfrac, xs, ys, zs)
        return _report("vvv", H, mode, dfrac, raw, {"X": xs, "Y": ys, "Z": zs}, True)

    budget = _search_budget(mode, samples, restarts)
    T = H.edge_tensor()
    (xb, yb), used = _vvv_alternating(T, p, q, seed, restarts, budget)
    xs, ys, zs = _vvv_witness(T, p, q, xb, yb)
    raw = vvv_value(H, dfrac, xs, ys, zs)
    return _report(
        "vvv", H, mode, dfrac, raw, {"X": xs, "Y": ys, "Z": zs}, False,
        samples=used if mode == "sampled" else None,
    )


def _vvv_slack(T, p, q, a, b):
    """Per vertex v, the margin q*#{(x, y) in A x B : xyv an edge} - p*|A||B|."""
    return _margin(_vvv_margins(T, a, b), int(a.sum()) * int(b.sum()), p, q, len(T))


def _vvv_best(T, p, q, a, b):
    """The vertices v with q*#{(x, y) in A x B : xyv an edge} < p*|A||B|."""
    return _vvv_slack(T, p, q, a, b) < 0


def _vvv_witness(T, p, q, xb, yb):
    """X, Y and their best Z, as sorted vertex lists."""
    return [np.flatnonzero(v).tolist() for v in (xb, yb, _vvv_best(T, p, q, xb, yb))]


def _vvv_descend(T, p, q, xb, yb, left):
    """One restart: best responses Z to (X, Y), X to (Y, Z) and Y to (X, Z),
    in rounds, until a round repeats (X, Y), 40 rounds pass or ``left`` best
    responses are spent.  Returns X, Y, the best responses made, and the
    score q * vvv_value(X, Y, Z) for their best Z: the sum of Z's margins."""
    used = 0
    prev = None
    for _ in range(40):
        zb = _vvv_best(T, p, q, xb, yb)
        xb = _vvv_best(T, p, q, yb, zb)
        yb = _vvv_best(T, p, q, xb, zb)
        used += 3
        state = (xb.tobytes(), yb.tobytes())
        if state == prev or used >= left:
            break
        prev = state
    slack = _vvv_slack(T, p, q, xb, yb)
    return xb, yb, used, slack[slack < 0].sum()


def _vvv_alternating(T, p, q, seed, restarts, budget):
    n = len(T)
    rng = np.random.Generator(np.random.PCG64(seed))
    left = math.inf if budget is None else budget
    best_val = 0
    best = (np.zeros(n, dtype=bool),) * 2
    used = 0
    for r in range(restarts):
        if used >= left:
            break
        xb, yb = (np.ones(n, dtype=bool) if r == 0 else rng.random(n) < 0.5 for _ in "xy")
        xb, yb, steps, val = _vvv_descend(T, p, q, xb, yb, left - used)
        used += steps
        if val < best_val:
            best_val, best = val, (xb, yb)
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
        T = H.edge_tensor()
        _, pmask = kernels.backend().ee_exact(T, p, q)
        Pm = _offdiag(H.n, mask_bools(int(pmask), H.n * (H.n - 1)))
        P, Q = _pairs(Pm), _pairs(_ee_best(T, p, q, Pm.T))
        raw = ee_value(H, dfrac, P, Q)
        return _report("ee", H, mode, dfrac, raw, {"P": P, "Q": Q}, True)

    budget = _search_budget(mode, samples, restarts)
    (P, Q), used = _ee_alternating(H.edge_tensor(), p, q, seed, restarts, budget)
    raw = ee_value(H, dfrac, P, Q)
    return _report(
        "ee", H, mode, dfrac, raw, {"P": P, "Q": Q}, False,
        samples=used if mode == "sampled" else None,
    )


def _ee_slack(T, p, q, S):
    """The margins of a best response to the sections in the rows of S:
    entry [y, z] is q*|S_y ∩ N(y, z)| - p*|S_y ∖ {z}| for z != y, and 0 on
    the diagonal, which holds no pair."""
    S = np.asarray(S, dtype=bool)
    M = _margin(pair_counts(T, S), S.sum(axis=1, keepdims=True) - S, p, q, len(T))
    np.fill_diagonal(M, 0)
    return M


def _ee_best(T, p, q, S):
    """The best response to the sections in the rows of S, as an n x n
    boolean matrix: entry [y, z] is set iff z != y and
    q*|S_y ∩ N(y, z)| < p*|S_y ∖ {z}|.

    With S[y, x] = [(x, y) in P] it is the best Q against P; with S = Q, its
    transpose is the best P against Q.
    """
    return _ee_slack(T, p, q, S) < 0


def _ee_descend(T, p, q, Pm, left):
    """One restart: best responses Q to P and P to Q, in rounds, until a round
    repeats (P, Q), 40 rounds pass or ``left`` best responses are spent.
    Returns P and Q as boolean matrices, the best responses made, and the
    score q * ee_value(P, Q).  P is the best response to Q, so the score is
    the sum of P's margins."""
    used = 0
    prev = None
    for _ in range(40):
        Qm = _ee_best(T, p, q, Pm.T)
        slack = _ee_slack(T, p, q, Qm)
        Pm = (slack < 0).T
        used += 2
        state = (Pm.tobytes(), Qm.tobytes())
        if state == prev or used >= left:
            break
        prev = state
    return Pm, Qm, used, slack[slack < 0].sum()


def _ee_alternating(T, p, q, seed, restarts, budget):
    n = len(T)
    rng = np.random.Generator(np.random.PCG64(seed))
    left = math.inf if budget is None else budget
    best_val = 0
    best = (np.zeros((n, n), dtype=bool),) * 2
    used = 0
    for r in range(restarts):
        if used >= left:
            break
        Pm = _offdiag(n, True if r == 0 else rng.random(n * (n - 1)) < 0.5)
        Pm, Qm, steps, val = _ee_descend(T, p, q, Pm, left - used)
        used += steps
        if val < best_val:
            best_val, best = val, (Pm, Qm)
    return (_pairs(best[0]), _pairs(best[1])), used
