"""Uniform-density deviations (vvv / ev / ee) and their exact recounts.

Each deviation reports the worst signed slack ``raw`` found over the notion's
test families, the witness realising it, and ``rho_hat = max(0, -raw)/n^3``.
Exact modes enumerate by Gray-code walks (ee by a split over the middle
vertex) and are only allowed below fixed budgets; heuristic and sampled modes
are restricted searches whose witnesses are recounted exactly, so a reported
violation is always genuine.

Every vvv and ee search step, every restart score and every witness counts
"how many thirds x of a pair lie in a set" with :func:`hypercore.pair_counts`,
a float32 product over the dense edge tensor.  An ev search step counts
nothing: it prices a vertex flip from packed bitsets over the pairs, each
vertex's link and four planes of the current counts, which only an accepted
flip rebuilds (see ``_ev_search``).

The three ``*_deviation`` functions share one frame.  ``_prepare`` checks
the mode, snaps d, refuses an exact call above the notion's cap or a search
budget that runs nothing, and builds the tensor once (4n^3 bytes).  The
notion then runs its kernel or its search and derives its witness, and
``_conclude`` recounts the witness and assembles the report.  The vvv and ee
searches share one restart loop (``_restarts``).  The recounts ``ev_value``,
``vvv_value`` and ``ee_value`` stay independent of the tensor.

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
from itertools import chain
from typing import Iterable, Optional

import numpy as np

from . import _pykernels
from ._pykernels import _wide
from .errors import BudgetError, check_budget
from .hypercore import Hypergraph3, bits, checked_mask, mask_bools, mask_of, pair_counts

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
    """Snap a density parameter to an exact rational (denominator <= 1e9).
    A density that does not snap ('1/0', NaN, infinity) or lies outside
    [0, 1] raises ValueError."""
    try:
        if isinstance(d, (Fraction, str, int)):
            f = Fraction(d)
        else:
            f = Fraction(d).limit_denominator(10**9)
    except (ArithmeticError, ValueError) as exc:
        raise ValueError(f"density d={d!r} does not snap to a fraction") from exc
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


def ev_value(H: Hypergraph3, d, X: Iterable[int], P: Iterable[tuple[int, int]]) -> Fraction:
    """e(X, P) - d |X| |P| for a vertex set and an ordered pair collection."""
    d = as_density_fraction(d)
    xmask, pl = checked_mask(H.n, X, "X"), list(P)
    checked_mask(H.n, chain.from_iterable(pl), "P")
    e = sum((H.nbr_mask(y, z) & xmask).bit_count() for y, z in pl)
    return e - d * xmask.bit_count() * len(pl)


def vvv_value(H, d, X, Y, Z) -> Fraction:
    """e(X, Y, Z) - d |X| |Y| |Z|, with e the sum over z in Z and x in X of
    |N(x, z) ∩ Y|."""
    d = as_density_fraction(d)
    xmask, ymask, zmask = (checked_mask(H.n, S, name) for S, name in zip((X, Y, Z), "XYZ"))
    xs = list(bits(xmask))
    e = sum((H.nbr_mask(x, z) & ymask).bit_count() for z in bits(zmask) for x in xs)
    return e - d * len(xs) * ymask.bit_count() * zmask.bit_count()


def ee_value(H, d, P: Iterable[tuple[int, int]], Q: Iterable[tuple[int, int]]) -> Fraction:
    """e(P, Q) - d |K(Q, P)| where K pairs (x,y) in P with (y,z) in Q over
    three distinct vertices."""
    d = as_density_fraction(d)
    P, Q = list(P), list(Q)
    for S, name in zip((P, Q), "PQ"):
        checked_mask(H.n, chain.from_iterable(S), name)
    psec: dict[int, int] = {}
    for x, y in P:
        psec[y] = psec.get(y, 0) | (1 << int(x))
    e = 0
    k = 0
    for y, z in Q:
        xm = psec.get(y, 0)
        k += (xm & ~(1 << int(z))).bit_count()
        e += (xm & H.nbr_mask(y, z)).bit_count()
    return e - d * k


def _prepare(notion, cap, H, d, mode, samples, restarts):
    """The steps before a deviation's search: check the mode, snap d to p/q,
    refuse an exact call above the notion's ``cap`` (before the tensor is
    built) or a search budget that would run nothing (it would report no
    violation), and build the edge tensor.  Returns (T, p, q, budget), the
    budget being ``samples`` in sampled mode and None otherwise."""
    if mode not in _MODES:
        raise ValueError(f"mode must be one of {_MODES}")
    dfrac = as_density_fraction(d)
    if mode == "exact" and H.n > cap:
        raise BudgetError(f"{notion} exact exceeds exact budget (n={H.n} > {cap})")
    if mode != "exact":
        check_budget("restarts", restarts)
    if mode == "sampled":
        check_budget("samples", samples)
    budget = samples if mode == "sampled" else None
    return H.edge_tensor(), dfrac.numerator, dfrac.denominator, budget


def _conclude(notion, recount, H, mode, p, q, witness, used):
    """The report of a witness: ``recount`` gives its raw value in exact
    arithmetic, and ``used``, what the search spent, is reported as
    ``samples`` in sampled mode."""
    dfrac = Fraction(p, q)
    raw = recount(H, dfrac, **witness)
    rho = Fraction(0) if raw >= 0 else -raw / max(H.n, 1) ** 3
    return DeviationReport(
        notion=notion,
        d=float(dfrac),
        raw=float(raw),
        rho_hat=float(rho),
        witness=witness,
        exact=mode == "exact",
        mode=mode,
        n=H.n,
        raw_fraction=(raw.numerator, raw.denominator),
        samples=used if mode == "sampled" else None,
    )


# -- search helpers ----------------------------------------------------------


def _margin(a, b, p, q, n) -> np.ndarray:
    """The margins q*a - p*b, elementwise, in the dtype ``_wide`` picks for
    (p, q, n), so neither a margin nor a sum of n^2 margins wraps."""
    dt = _wide(p, q, n)
    return np.asarray(a).astype(dt) * q - p * np.asarray(b).astype(dt)


def _pairs(M: np.ndarray) -> list[tuple[int, int]]:
    """The pairs (u, v) set in a boolean matrix, in row-major order."""
    return [tuple(uv) for uv in np.argwhere(M).tolist()]


def _offdiag(n: int, flags) -> np.ndarray:
    """The n x n boolean matrix holding ``flags`` off the diagonal, in
    row-major order (the pair order of ``ee_exact``'s P mask)."""
    M = np.zeros((n, n), dtype=bool)
    M[~np.eye(n, dtype=bool)] = flags
    return M


def _restarts(seed, restarts, budget, size, empty, descend):
    """The restart loop of the vvv and ee searches.  Restart r draws ``size``
    start flags (all set for r = 0, fair coins after) and runs
    ``descend(flags, left)``, which returns the state it reached, then the
    best responses it made with at most ``left`` allowed and its score.  The
    loop stops after ``restarts`` restarts or once ``budget`` best responses
    (None: no bound) are spent.  Returns the state of the lowest score below 0
    (``empty`` if no score is) and the best responses made."""
    rng = np.random.Generator(np.random.PCG64(seed))
    left = math.inf if budget is None else budget
    best_val, best, used = 0, empty, 0
    for r in range(restarts):
        if used >= left:
            break
        flags = np.ones(size, dtype=bool) if r == 0 else rng.random(size) < 0.5
        *state, steps, val = descend(flags, left - used)
        used += steps
        if val < best_val:
            best_val, best = val, state
    return best, used


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
    heuristic: seeded local search over X, ``restarts`` restarts of it.
    sampled: the same search, restarted until exactly ``samples`` flip
    proposals are spent; ``restarts`` is only validated.
    """
    T, p, q, budget = _prepare("ev", EV_EXACT_MAX_N, H, d, mode, samples, restarts)
    used = None
    if mode == "exact":
        xmask = int(_pykernels.ev_exact(T, p, q)[1])
    else:
        xmask, used = _ev_search(T, p, q, seed, restarts=restarts, budget=budget)
    xs, P = _ev_witness(T, p, q, xmask)
    return _conclude("ev", ev_value, H, mode, p, q, {"X": xs, "P": P}, used)


# pending draws priced per array pass, which ends at the first accepted draw;
# 16 and 32 measured the same at n = 120
_EV_BLOCK = 16


def _packed(B) -> np.ndarray:
    """The boolean rows of B packed little-endian into uint64 words, the last
    word zero-padded."""
    b = np.packbits(B, axis=-1, bitorder="little")
    out = np.zeros(b.shape[:-1] + (-(-b.shape[-1] // 8),), np.uint64)
    out.view(np.uint8)[..., : b.shape[-1]] = b
    return out


def _ev_search(T, p, q, seed, restarts=32, budget=None):
    """Local search over X; returns (best X mask, proposals evaluated).

    The objective of X is s = 2 * sum over unordered pairs ab of
    min(q*c_ab - p*|X|, 0), with c_ab = |N(a, b) ∩ X|; each restart takes the
    counts from ``pair_counts``.  Flipping v in direction δ (+1 adds v, -1
    removes it) moves the count of each pair in v's link by δ.  With
    k' = |X| + δ and m = p*k', the flip's objective is

        s2(v) = 2*G(k') + 2 * sum over ab in link(v) of h_δ(c_ab),
        G(k') = hist @ min(c*q - m, 0),

    hist being the histogram of the counts.  With (c0, r) = divmod(m, q):

        h_{+1}(c) = q*[c < c0] + r*[c = c0],
        h_{-1}(c) = -q*[c < c0 + 1] - r*[c = c0 + 1].

    So a state keeps 2*G(|X| ± 1) and, per direction, two planes over the
    pairs (the count is below the threshold, the count equals it), packed
    into uint64 words as each vertex's link is once per call.  A price is two
    popcounts of v's link ANDed with those planes.  Only an accepted flip
    rebuilds the state: its link pairs' counts move by δ, and its price is the
    new state's objective.

    Draws come ``rng.integers(n, size=m)`` at a time, m being the proposals
    left before the restart stalls out or the budget ends, so each of them is
    proposed whatever is accepted.  Chunked draws read the generator's stream
    exactly as one scalar draw per proposal does, so every restart's
    ``rng.random(n)`` sees the same generator state as a scalar loop would.
    The pending draws are priced ``_EV_BLOCK`` at a time against the current
    state; the first whose price is below s is accepted, and the scan resumes
    after it.
    """
    n = len(T)
    if n == 0:
        return 0, 0
    rng = np.random.Generator(np.random.PCG64(seed))
    upper = np.flatnonzero(np.triu(np.ones((n, n), dtype=bool), 1))  # keys a*n+b, a < b
    npairs = len(upper)
    links = _packed(T.reshape(n, n * n)[:, upper] != 0)  # v's link over the pairs
    dt = _wide(p, q, n)
    cq = np.arange(n).astype(dt) * q

    def G(hist, k):
        return int(hist @ np.minimum(cq - p * k, 0))

    def priced(cnt, k):
        """Per direction (0 removes, 1 adds): 2*G(k'), the weights of the
        two plane popcounts, and the two planes."""
        hist = np.bincount(cnt, minlength=n)
        (c1, r1), (c0, r0) = divmod(p * (k - 1), q), divmod(p * (k + 1), q)
        base = np.array([2 * G(hist, k - 1), 2 * G(hist, k + 1)], dtype=dt)
        weights = np.array([[-2 * q, -2 * r1], [2 * q, 2 * r0]], dtype=dt)
        t = np.array([[c1 + 1], [c0]])
        return base, weights, _packed(np.stack([cnt < t, cnt == t], axis=1))

    best_num = 0
    best_mask = 0
    used = 0
    r = 0
    limit = max(4 * n, 64)
    while r < restarts if budget is None else used < budget:
        xb = np.ones(n, dtype=bool) if r == 0 else rng.random(n) < 0.5
        xmask = mask_of(np.flatnonzero(xb).tolist())
        add = (~xb).astype(np.intp)  # a flip's direction index
        k = xmask.bit_count()
        cnt = pair_counts(T, xb).ravel()[upper]
        s = 2 * G(np.bincount(cnt, minlength=n), k)
        if s < best_num:
            best_num, best_mask = s, xmask
        base, weights, planes = priced(cnt, k)
        stall = 0
        while stall < limit and (budget is None or used < budget):
            m = limit - stall if budget is None else min(limit - stall, budget - used)
            draws = rng.integers(n, size=m)
            i = 0
            while i < m:
                vs = draws[i : i + _EV_BLOCK]
                d = add[vs]
                hits = np.bitwise_count(links[vs][:, None] & planes[d]).sum(-1, dtype=np.int64)
                price = base[d] + (hits * weights[d]).sum(1)
                hit = np.flatnonzero(price < s)
                if not len(hit):
                    i += len(vs)
                    used += len(vs)
                    stall += len(vs)
                    continue
                j = int(hit[0])
                v = int(vs[j])
                i += j + 1
                used += j + 1
                stall = 0
                delta = 2 * int(add[v]) - 1
                s, k = int(price[j]), k + delta
                xmask ^= 1 << v
                add[v] ^= 1
                link = np.unpackbits(links[v].view(np.uint8), count=npairs, bitorder="little")
                (np.add if delta > 0 else np.subtract)(cnt, link, out=cnt)
                base, weights, planes = priced(cnt, k)
                if s < best_num:
                    best_num, best_mask = s, xmask
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
    heuristic/sampled: alternating best responses from ``restarts`` seeded
    restarts; sampled mode also stops once ``samples`` best responses are
    spent, so its ``samples`` reports what was spent, which can fall far
    below the budget (3 per round, at most 40 rounds per restart).
    """
    T, p, q, budget = _prepare("vvv", VVV_EXACT_MAX_N, H, d, mode, samples, restarts)
    n, used = H.n, None
    if mode == "exact":
        _, xm, ym = _pykernels.vvv_exact(T, p, q)
        xb, yb = mask_bools(int(xm), n), mask_bools(int(ym), n)
    else:
        (xb, yb), used = _restarts(
            seed, restarts, budget, 2 * n, (np.zeros(n, dtype=bool),) * 2,
            lambda flags, left: _vvv_descend(T, p, q, *flags.reshape(2, n), left),
        )
    xs, ys, zs = _vvv_witness(T, p, q, xb, yb)
    return _conclude("vvv", vvv_value, H, mode, p, q, {"X": xs, "Y": ys, "Z": zs}, used)


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
    heuristic/sampled: alternating best responses (fix P, optimise Q; swap)
    from ``restarts`` seeded restarts; sampled mode also stops once
    ``samples`` best responses are spent, so its ``samples`` reports what was
    spent, which can fall far below the budget (2 per round, at most 40
    rounds per restart).
    Only triples of three distinct vertices contribute.
    """
    T, p, q, budget = _prepare("ee", EE_EXACT_MAX_N, H, d, mode, samples, restarts)
    used = None
    if mode == "exact":
        _, pmask = _pykernels.ee_exact(T, p, q)
        Pm = _offdiag(H.n, mask_bools(int(pmask), H.n * (H.n - 1)))
        P, Q = _pairs(Pm), _pairs(_ee_best(T, p, q, Pm.T))
    else:
        (P, Q), used = _ee_alternating(T, p, q, seed, restarts, budget)
    return _conclude("ee", ee_value, H, mode, p, q, {"P": P, "Q": Q}, used)


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
    """The ee search: P and Q as pair lists, and the best responses made."""
    n = len(T)
    (Pm, Qm), used = _restarts(
        seed, restarts, budget, n * (n - 1), (np.zeros((n, n), dtype=bool),) * 2,
        lambda flags, left: _ee_descend(T, p, q, _offdiag(n, flags), left),
    )
    return (_pairs(Pm), _pairs(Qm)), used
