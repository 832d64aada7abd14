"""The absorption pipeline: bounded pair-to-pair connection, greedy almost
cover, absorbers, the absorbing path, and tight-Hamilton-cycle assembly.

Soundness is unconditional: every path or cycle any function returns has been
re-verified against the host hypergraph, and a result that fails that check
raises ``UncertifiedResult`` under any interpreter flag, ``python -O``
included.  Completeness is heuristic; absence is a normal outcome carrying
per-stage diagnostics in the trace.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import permutations
from math import ceil
from typing import Iterable, Iterator, Optional, Sequence

import numpy as np

from .errors import UncertifiedResult, check_budget
from .hypercore import (
    Hypergraph3,
    TightPath,
    bits,
    checked_mask,
    mask_of,
    pair_key,
    pair_of,
    verify_tight_cycle,
    verify_tight_path,
)
from .motifs import (
    _cleaned_masks,
    find_k333,
    is_connectable,
    k333_path_orderings,
)

# the pipeline makes no gadget search; the benchmark tracer in
# perfbench/tracing.py still replaces this name, as it still reads the
# unused link-cache attribute that hypercore keeps for it
from .motifs import find_c8_blowup  # noqa: F401

__all__ = [
    "Absorber",
    "AbsorbingPath",
    "CONNECT_BUDGET",
    "MAX_INNER",
    "PipelineParams",
    "cover_target",
    "connect",
    "almost_cover",
    "find_absorber",
    "is_absorber",
    "build_absorbing_path",
    "absorb",
    "find_tight_hamilton",
]


# -- parameters ----------------------------------------------------------------

MAX_INNER = 15  # inner vertices a connection may use
CONNECT_BUDGET = 30000  # expansions per connection; see connect
K333_TRIES = 400  # core seeds per absorber attempt; see find_k333


def _check_fractions(beta: float, gamma: float) -> None:
    """Refuse a connectability fraction beta or a reservoir fraction gamma
    outside (0, 1) with ValueError."""
    if not 0 < beta < 1 or not 0 < gamma < 1:
        raise ValueError("beta and gamma must lie in (0, 1)")


def cover_target(gamma: float, n: int) -> float:
    """gamma^2 * n: the uncovered vertices an almost cover aims to leave, and
    the base of the reservoir and absorber targets."""
    return gamma * gamma * n


@dataclass
class PipelineParams:
    """What a caller sets for the assembly pipeline: the connectability
    fraction ``beta``, the reservoir fraction ``gamma``, the number of
    ``retries`` and the ``seed`` (attempt i draws from the seed pair
    (``seed``, i)).  The inner lengths each connection tries, and their
    order, follow from the stage it serves, not from a parameter.

    The search budgets are the module constants above and the stage
    functions' defaults, engineering choices for dense instances at desk
    scale; the reservoir fraction is gamma^2 with a small-n floor so that
    connections are not starved on hosts with a few dozen vertices.

    The leftover that absorption takes must split into triples; the closing
    connection's free length, and a trim of 1 or 2 vertices off a covered
    path end, keep its size a multiple of three.
    """

    beta: float = 0.05
    gamma: float = 0.15
    retries: int = 5
    seed: int = 0

    def __post_init__(self):
        _check_fractions(self.beta, self.gamma)
        check_budget("retries", self.retries)

    def resolved_reservoir(self, n: int) -> float:
        target = cover_target(self.gamma, n)
        if target < 6.0:
            target = min(6.0, 0.2 * n)
        target = min(target, max(2.0, n - 27.0))
        return target / n if n else 0.0


# -- connection search -----------------------------------------------------------


def connect(
    H: Hypergraph3,
    from_pair: tuple[int, int],
    to_pair: tuple[int, int],
    allowed: Iterable[int],
    max_inner: int = MAX_INNER,
    budget: int = CONNECT_BUDGET,
    seed: int = 0,
    lengths: Optional[Sequence[int]] = None,
    stats: Optional[dict] = None,
) -> Optional[TightPath]:
    """Tight path starting with from_pair and ending with to_pair whose inner
    vertices all come from ``allowed``.

    Bidirectional meet-in-the-middle: forward partial paths and backward
    partial suffixes are grown level by level and joined on a compatible
    middle pair.  Sound (a result that fails re-verification raises
    ``UncertifiedResult``) but incomplete: None within budget does not
    certify absence.  ``lengths`` restricts the inner-vertex counts
    tried (default 1..max_inner, ascending).  A budget below 1, no inner
    length in 0..max_inner left to try, or an endpoint or allowed vertex
    outside 0..n-1 raises ``ValueError``.
    """
    x, y = map(int, from_pair)  # floats are refused below
    z, w = map(int, to_pair)
    endmask = checked_mask(H.n, from_pair, "from_pair") | checked_mask(H.n, to_pair, "to_pair")
    if endmask.bit_count() != 4:
        raise ValueError("endpoint vertices must be four distinct vertices")
    allowed_mask = checked_mask(H.n, allowed, "allowed") & ~endmask
    if lengths is None:
        lengths = range(1, max_inner + 1)
    lengths = [l for l in lengths if 0 <= l <= max_inner]
    if not lengths:
        raise ValueError(f"no inner length in 0..{max_inner} to try")
    check_budget("budget", budget)
    stats = {} if stats is None else stats
    rng = np.random.Generator(np.random.PCG64(seed))
    # tiny allowed pools (exact-length closings through a reservoir) need the
    # full state variety per pair; wide pools get capped for breadth control
    per_pair_cap = 24 if allowed_mask.bit_count() <= 20 else 4
    layer_cap = 4096
    expansions = 0

    # forward layers: pair -> list of (sequence, used mask); seq starts x, y
    fwd = [{(x, y): [((x, y), (1 << x) | (1 << y))]}]
    # backward layers: first pair of suffix -> (sequence, used); seq ends z, w
    bwd = [{(z, w): [((z, w), (1 << z) | (1 << w))]}]

    def extend(layers, forward: bool) -> bool:
        nonlocal expansions
        cur = layers[-1]
        new: dict = {}
        total = 0
        for key in sorted(cur):
            for seq, used in cur[key]:
                u, v = key
                cand = H.nbr_mask(u, v) & allowed_mask & ~used
                for t in bits(cand):
                    expansions += 1
                    if expansions > budget:
                        layers.append(new)
                        return False
                    if forward:
                        k2 = (v, t)
                        item = (seq + (t,), used | (1 << t))
                    else:
                        k2 = (t, u)
                        item = ((t,) + seq, used | (1 << t))
                    bucket = new.setdefault(k2, [])
                    if len(bucket) < per_pair_cap:
                        bucket.append(item)
                        total += 1
        if total > layer_cap:
            keys = sorted(new)
            keep = rng.permutation(len(keys))[:layer_cap]
            new = {keys[int(i)]: new[keys[int(i)]] for i in keep}
        layers.append(new)
        return True

    def join(fl: dict, bl: dict) -> Optional[tuple]:
        for (p1, p2), fstates in sorted(fl.items()):
            seam = H.nbr_mask(p1, p2)
            for (q1, q2), bstates in sorted(bl.items()):
                if not (seam >> q1) & 1:
                    continue
                if not (H.nbr_mask(p2, q1) >> q2) & 1:
                    continue
                for fseq, fused in fstates:
                    for bseq, bused in bstates:
                        if fused & bused:
                            continue
                        return fseq + bseq
        return None

    for l in lengths:
        f = (l + 1) // 2
        b = l - f
        ok = True
        while len(fwd) - 1 < f and ok:
            ok = extend(fwd, True)
        while len(bwd) - 1 < b and ok:
            ok = extend(bwd, False)
        if len(fwd) - 1 >= f and len(bwd) - 1 >= b:
            seq = join(fwd[f], bwd[b])
            if seq is not None:
                if not verify_tight_path(H, seq):
                    raise UncertifiedResult("connect produced an uncertified path")
                stats.update({"expansions": expansions, "inner": l})
                return TightPath(tuple(seq))
        if not ok:
            break
    stats.update({"expansions": expansions, "inner": None})
    return None


# -- almost cover -----------------------------------------------------------------


def almost_cover(
    H: Hypergraph3,
    beta: float,
    gamma: float,
    seed: int = 0,
    allowed: Optional[Iterable[int]] = None,
    attempts: int = 12,
) -> tuple[list[TightPath], set]:
    """Vertex-disjoint tight paths with connectable end pairs covering all but
    (ideally) gamma^2 * n of the allowed vertices.

    Paths are grown greedily inside the cleaned restriction to the still
    uncovered vertices; a returned uncovered set larger than gamma^2 * n is a
    heuristic shortfall, not an error.  A beta or gamma outside (0, 1), or an
    allowed vertex outside 0..n-1, raises ValueError.
    """
    _check_fractions(beta, gamma)
    n = H.n
    thr = beta * n
    min_len = max(4, ceil(thr))
    target = cover_target(gamma, n)
    uncovered = H.vertex_mask() if allowed is None else checked_mask(n, allowed, "allowed")
    rng = np.random.Generator(np.random.PCG64(seed))
    paths: list[TightPath] = []
    while uncovered.bit_count() >= max(target, min_len):
        masks = _cleaned_masks(H, thr, allowed_mask=uncovered)
        if not masks:
            break
        seq = _grow_path(H, masks, min_len, rng, attempts)
        if seq is None:
            break
        if not verify_tight_path(H, seq):
            raise UncertifiedResult("almost cover produced an uncertified path")
        paths.append(TightPath(tuple(seq)))
        uncovered &= ~mask_of(seq)
    return paths, set(bits(uncovered))


def _grow_path(H, masks, min_len, rng, attempts):
    n = H.n
    keys = sorted(masks)
    for _ in range(attempts):
        key = keys[int(rng.integers(len(keys)))]
        u, v = pair_of(key, n)
        wopts = list(bits(masks[key]))
        wpick = wopts[int(rng.integers(len(wopts)))]
        seq = [u, v, wpick]
        used = mask_of(seq)
        # extend right, then left, until neither end grows
        grew = True
        while grew:
            grew = False
            t = _step(masks, seq[-2], seq[-1], used, n)
            if t is not None:
                seq.append(t)
                used |= 1 << t
                grew = True
            t = _step(masks, seq[1], seq[0], used, n)
            if t is not None:
                seq.insert(0, t)
                used |= 1 << t
                grew = True
        if len(seq) >= min_len:
            return seq
    return None


def _step(masks, u, v, used, n) -> Optional[int]:
    """The first unused w in N(u, v) whose pair (v, w) has the most unused
    neighbours, or None when N(u, v) has no unused vertex."""
    cand = masks.get(pair_key(u, v, n), 0) & ~used
    if not cand:
        return None
    return max(
        bits(cand), key=lambda w: (masks.get(pair_key(v, w, n), 0) & ~used).bit_count()
    )


# -- absorbers -----------------------------------------------------------------------


@dataclass(frozen=True)
class Absorber:
    """A nine-vertex 3-partite core plus three four-vertex link paths; slot i
    can exchange its middle for any vertex in eligible[i]."""

    K: tuple  # (x1, x2, x3, y1, y2, y3, z1, z2, z3)
    links: tuple  # three (a, b, c, d) tuples
    eligible: tuple  # three bitmasks

    def all_vertices(self) -> tuple:
        return self.K + tuple(v for link in self.links for v in link)

    def pieces(self, T: Optional[Sequence[int]] = None) -> list[tuple]:
        """The four sub-paths in stitch order: the core's six-vertex
        threading, then link path i through y_i for i = 0, 1, 2.  With a
        triple T, ordered to the slots, the absorbed versions: the nine-vertex
        threading, and link path i through T[i].  Both keep each piece's end
        vertices."""
        full, short = k333_path_orderings(self.K)
        middles = self.K[3:6] if T is None else T
        return [tuple(short if T is None else full)] + [
            (a, b, m, c, d) for (a, b, c, d), m in zip(self.links, middles)
        ]


def is_absorber(H: Hypergraph3, A: Absorber, T: Sequence[int]) -> bool:
    """Exact check: 21 distinct vertices, T of three distinct vertices outside
    A, and all eight defining sub-paths (the four pieces before and after
    absorbing T) tight in H."""
    vs = A.all_vertices()
    if len(set(vs)) != 21:
        return False
    t = tuple(T)
    if len(t) != 3 or len(set(t)) != 3 or set(t) & set(vs):
        return False
    if any(not 0 <= v < H.n for v in vs + t):
        return False
    return all(verify_tight_path(H, p) for p in A.pieces() + A.pieces(t))


def find_absorber(
    H: Hypergraph3,
    forbidden: Iterable[int] = (),
    min_eligibility: int = 1,
    budget: int = 4000,
    seed: int = 0,
    k333_tries: int = 200,
) -> Optional[Absorber]:
    """Seed a 3-partite core avoiding ``forbidden``, then pick for each middle
    vertex a four-vertex path in its link maximising the eligibility set.

    ``budget`` counts scored 4-tuples (a, b, c, d): each of the three slots
    scores at most ``budget // 3`` of them, in a shuffled order of its link
    pairs, and keeps the first best.  Absence within budget is a normal
    outcome.  A forbidden vertex outside 0..n-1 raises ValueError."""
    n = H.n
    fmask = checked_mask(n, forbidden, "forbidden")
    per_slot = budget // 3
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
            avail = H.vertex_mask() & ~fmask & ~used
            # the link of yv inside avail, in edge order (see link_pairs): the
            # pairs (a, b) for each head a and each b in its tail, above a
            heads = list(bits(avail))
            tails = [H.nbr_mask(yv, a) & avail & (-2 << a) for a in heads]
            ends = np.cumsum([t.bit_count() for t in tails], dtype=np.int64)
            # a 1-D index array shuffles with the same draws as a list would
            order = np.arange(ends[-1] if heads else 0)
            rng.shuffle(order)
            rows = _ranked_pairs(heads, tails, ends, order)
            best = _best_link(H, yv, rows, avail, per_slot, n - 21)
            if best is None or best[0] < min_eligibility:
                ok = False
                break
            links.append(best[1])
            eligibles.append(best[2])
            used |= mask_of(best[1])
        if not ok:
            continue
        eligibles = [e & ~used for e in eligibles]
        if any(e.bit_count() < min_eligibility for e in eligibles):
            continue
        A = Absorber(K=tuple(K), links=tuple(links), eligible=tuple(eligibles))
        probe = _eligible_probe(A)
        if probe is not None and is_absorber(H, A, probe):
            return A
        # no joint eligible triple to probe with; accept on the stitched pieces
        if probe is None and all(verify_tight_path(H, p) for p in A.pieces()):
            return A
    return None


def _ranked_pairs(heads, tails, ends, order) -> Iterator[tuple[int, int]]:
    """The pairs at the ranks in ``order``, where ranks ends[j-1]..ends[j]-1
    are (heads[j], b) for the set bits b of tails[j], ascending.  The ranks
    are placed 64 at a time, and each pair is built only when it is drawn: a
    slot's budget rarely reaches past the first."""
    for s in range(0, len(order), 64):
        ranks = order[s : s + 64]
        js = np.searchsorted(ends, ranks, side="right")
        for j, k in zip(js.tolist(), (ends[js] - ranks).tolist()):
            tail = tails[j]
            for _ in range(k - 1):  # drop the k - 1 highest bits
                tail ^= 1 << (tail.bit_length() - 1)
            yield heads[j], tail.bit_length() - 1


def _best_link(H, yv, pairs, avail, budget, enough) -> Optional[tuple]:
    """(score, (a, b, c, d), eligible) for the first highest-scoring path
    a b c d in the link of yv inside ``avail``, where {b, c} runs over
    ``pairs`` in order, both ways round, and eligible = N(a,b) & N(b,c) &
    N(c,d).  Stops after ``budget`` scored 4-tuples, or after a pair whose
    best score reached ``enough``."""
    best = None
    spent = 0
    for b_, c_ in pairs:
        for bb, cc in ((b_, c_), (c_, b_)):
            # the link of yv inside avail: bb's neighbours are N(yv, bb)
            bc = H.nbr_mask(bb, cc)
            drow = [
                (d_, H.nbr_mask(cc, d_))
                for d_ in bits(H.nbr_mask(yv, cc) & avail & ~(1 << bb))
            ]
            for a_ in bits(H.nbr_mask(yv, bb) & avail & ~(1 << cc)):
                abc = H.nbr_mask(a_, bb) & bc
                for d_, cd in drow:
                    if d_ == a_:
                        continue
                    spent += 1
                    elig = abc & cd
                    score = elig.bit_count()
                    if best is None or score > best[0]:
                        best = (score, (a_, bb, cc, d_), elig)
                    if spent >= budget:
                        return best
        if spent >= budget or (best is not None and best[0] >= enough):
            return best
    return best


def _eligible_probe(A: Absorber) -> Optional[tuple]:
    """A disjoint triple from the eligibility sets, if one exists."""
    for v1 in list(bits(A.eligible[0]))[:4]:
        for v2 in list(bits(A.eligible[1] & ~(1 << v1)))[:4]:
            m3 = A.eligible[2] & ~(1 << v1) & ~(1 << v2)
            if m3:
                return (v1, v2, next(bits(m3)))
    return None


# -- absorbing path ---------------------------------------------------------------


@dataclass
class AbsorbingPath:
    """A tight path stitched from absorber sub-paths, with enough
    structure to rewrite it."""

    # (j, k, verts): piece k of absorber j as stitched, either way round, or
    # (None, None, verts) for a connection's inner vertices
    segments: list
    absorbers: list

    @property
    def path(self) -> TightPath:
        return TightPath(self.vertex_sequence())

    def vertex_sequence(self) -> tuple:
        out: list[int] = []
        for _, _, verts in self.segments:
            out.extend(verts)
        return tuple(out)

    def vertex_mask(self) -> int:
        return mask_of(self.vertex_sequence())


def build_absorbing_path(
    H: Hypergraph3,
    R: Iterable[int],
    params: PipelineParams,
    seed: Optional[int] = None,
    trace: Optional[dict] = None,
) -> Optional[AbsorbingPath]:
    """Collect disjoint absorbers avoiding the reservoir R and stitch their
    sub-paths into one tight path with inner connection vertices outside R.
    Its facts, and on failure its ``fail_stage``, go into ``trace``.  A
    vertex of R outside 0..n-1 raises ValueError."""
    trace = {} if trace is None else trace
    n = H.n
    rmask = checked_mask(n, R, "R")
    seed = params.seed if seed is None else seed
    rng = np.random.Generator(np.random.PCG64(seed))
    free = n - rmask.bit_count()
    t_target = 2 * ceil(cover_target(params.gamma, n))
    t_target = max(1, min(t_target, (free - 3) // 22))
    absorbers: list[Absorber] = []
    forbidden = rmask
    while len(absorbers) < t_target:
        A = find_absorber(
            H,
            forbidden=bits(forbidden),
            min_eligibility=3,
            seed=int(rng.integers(2**31)),
            k333_tries=K333_TRIES,
        )
        if A is None:
            break
        absorbers.append(A)
        forbidden |= mask_of(A.all_vertices())
    if not absorbers:
        trace["fail_stage"] = "absorber_shortage"
        return None

    pieces = [(j, k, p) for j, A in enumerate(absorbers) for k, p in enumerate(A.pieces())]
    # forbidden holds the reservoir and exactly the pieces' vertices
    allowed_base = H.vertex_mask() & ~forbidden
    segments: list[tuple] = [pieces[0]]
    used_conn = 0
    for j, k, verts in pieces[1:]:
        for cand in (verts, verts[::-1]):
            conn = connect(
                H,
                segments[-1][2][-2:],
                cand[:2],
                bits(allowed_base & ~used_conn),
                seed=int(rng.integers(2**31)),
                lengths=range(MAX_INNER + 1),
            )
            if conn is not None:
                break
        else:
            trace["fail_stage"] = "absorbing_connect"
            return None
        inner = conn.vertices[2:-2]
        used_conn |= mask_of(inner)
        if inner:
            segments.append((None, None, inner))
        segments.append((j, k, cand))

    ap = AbsorbingPath(segments=segments, absorbers=absorbers)
    seq = ap.vertex_sequence()
    if not verify_tight_path(H, seq):
        raise UncertifiedResult("absorbing path failed re-verification")
    ends_ok = bool(
        is_connectable(H, seq[1], seq[0], params.beta)
        and is_connectable(H, seq[-2], seq[-1], params.beta)
    )
    trace.update(
        {
            "absorbers": len(absorbers),
            "length": len(seq),
            "connectable_ends": ends_ok,
        }
    )
    if not ends_ok:
        trace["fail_stage"] = "ends_not_connectable"
        return None
    return ap


# -- absorption --------------------------------------------------------------------


def absorb(
    H: Hypergraph3,
    A: AbsorbingPath,
    U: Iterable[int],
    trace: Optional[dict] = None,
) -> Optional[TightPath]:
    """Rewrite the absorbing path so it additionally spans U (same ends).

    A U whose size is not divisible by three is a divisibility failure.
    Otherwise U is split into triples and matched to unused absorbers on
    eligibility (all six slot assignments tried per pair).  Its facts, and on
    failure its ``fail_stage``, go into ``trace``.  A vertex of U outside
    0..n-1 or on the absorbing path raises ValueError."""
    trace = {} if trace is None else trace
    umask = checked_mask(H.n, U, "U")
    u = list(bits(umask))
    if umask & A.vertex_mask():
        raise ValueError("U must be disjoint from the absorbing path")
    if not u:
        return A.path
    if len(u) % 3:
        trace["fail_stage"] = "divisibility"
        return None
    triples = [tuple(u[i : i + 3]) for i in range(0, len(u), 3)]
    if len(triples) > len(A.absorbers):
        trace.update({"fail_stage": "capacity", "matched": 0})
        return None

    def fit(tr: tuple, ab: Absorber):
        for perm in permutations(range(3)):
            if all((ab.eligible[i] >> tr[perm[i]]) & 1 for i in range(3)):
                return perm
        return None

    # maximum bipartite matching absorber -> (triple, slot order), grown by
    # augmenting paths
    match: dict[int, tuple] = {}

    def try_assign(ti: int, visited: set) -> bool:
        for j, ab in enumerate(A.absorbers):
            if j in visited:
                continue
            perm = fit(triples[ti], ab)
            if perm is None:
                continue
            visited.add(j)
            if j not in match or try_assign(match[j][0], visited):
                match[j] = (ti, perm)
                return True
        return False

    matched = 0
    for ti in range(len(triples)):
        if try_assign(ti, set()):
            matched += 1
    if matched < len(triples):
        trace.update({"fail_stage": "matching", "matched": matched})
        return None

    # a matched absorber's pieces are rewritten in the orientation stitched
    absorbed = {
        j: A.absorbers[j].pieces([triples[ti][i] for i in perm])
        for j, (ti, perm) in match.items()
    }
    seq: tuple = ()
    for j, k, verts in A.segments:
        if j in absorbed:
            new = absorbed[j][k]
            verts = new if new[0] == verts[0] else new[::-1]
        seq += verts
    old = A.vertex_sequence()
    if seq[:2] != old[:2] or seq[-2:] != old[-2:] or not verify_tight_path(H, seq):
        raise UncertifiedResult("absorption produced an uncertified path")
    trace["absorbed"] = len(u)
    return TightPath(seq)


# -- full pipeline -------------------------------------------------------------------


def find_tight_hamilton(
    H: Hypergraph3, params: Optional[PipelineParams] = None
) -> tuple[Optional[TightPath], dict]:
    """Reservoir sampling, absorbing path, almost cover, cyclic connection
    through the reservoir, parity fixing (the closing connection's free
    length, then a trim of a covered path end), absorption.  Returns the
    verified cycle (or None) plus a trace; retries with derived seeds.

    The trace holds ``n``, ``success_attempt`` (None when every attempt
    failed), ``cycle_length`` on success, and ``attempts``: one flat record
    per attempt, with the keys its stages reached:

    - ``attempt``, ``reservoir`` (the reservoir's size);
    - ``absorbers``, ``length``, ``connectable_ends``: the absorbing path's
      absorber count, its vertex count, and whether both its end pairs are
      connectable;
    - ``cover``: ``{"paths", "uncovered"}`` of the almost cover;
    - from the attempt's last parity try: ``trim`` (0, 1 or 2 vertices
      trimmed off a covered path end), ``connections`` (the inner lengths of
      the connections through the reservoir), ``leftover`` (the vertices
      handed to absorption), then ``absorbed`` on success or ``matched`` on
      a matching failure;
    - ``fail_stage``, on a failed attempt only, one of:
      ``absorber_shortage`` (no absorber outside the reservoir),
      ``absorbing_connect`` (two absorber sub-paths did not connect) and
      ``ends_not_connectable`` (an end pair of the absorbing path is not
      connectable), set by ``build_absorbing_path``; ``parity_planning`` (no
      closing length leaves a leftover the absorbers can take) and
      ``connect_<i>`` (connection i through the reservoir not found, the
      last one closing the cycle), set by the connection stage; ``matching``
      (the leftover's triples do not all match absorbers), set by
      ``absorb``.
    """
    if params is None:
        params = PipelineParams()
    n = H.n
    if n < 12:
        raise ValueError("pipeline requires n >= 12; use the exact oracle instead")
    trace: dict = {"attempts": [], "n": n}
    for attempt in range(params.retries):
        at: dict = {"attempt": attempt}
        trace["attempts"].append(at)
        cycle = _attempt(H, params, attempt, at)
        if cycle is not None:
            trace["success_attempt"] = attempt
            trace["cycle_length"] = len(cycle)
            return cycle, trace
    trace["success_attempt"] = None
    return None, trace


def _attempt(H, params, attempt, at) -> Optional[TightPath]:
    n = H.n
    rng = np.random.Generator(
        np.random.PCG64(np.random.SeedSequence((params.seed, attempt)))
    )
    rmask = mask_of(np.flatnonzero(rng.random(n) < params.resolved_reservoir(n)).tolist())
    at["reservoir"] = rmask.bit_count()

    ap = build_absorbing_path(
        H, bits(rmask), params, seed=int(rng.integers(2**31)), trace=at
    )
    if ap is None:
        return None

    cover_allowed = H.vertex_mask() & ~rmask & ~ap.vertex_mask()
    base_paths, base_uncovered = almost_cover(
        H,
        params.beta,
        params.gamma,
        seed=int(rng.integers(2**31)),
        allowed=bits(cover_allowed),
    )
    at["cover"] = {"paths": len(base_paths), "uncovered": len(base_uncovered)}

    # stage 5's parity fix: first rely on the closing connection's free
    # length; when that cannot work, trim 1-2 vertices off a long covered
    # path end (new end pair must stay connectable) and retry.  Each try
    # records into a fresh dict, and the attempt keeps the last try's.
    for trim in (0, 1, 2):
        paths = list(base_paths)
        uncovered = set(base_uncovered)
        if trim:
            j = _trimmable(H, paths, trim, params.beta)
            if j is None:
                continue
            kept = paths[j].vertices[:-trim]
            uncovered.update(paths[j].vertices[-trim:])
            paths[j] = TightPath(kept)
        tried = {"trim": trim}
        cycle = _connect_and_absorb(H, params, rng, ap, paths, uncovered, rmask, tried)
        if cycle is not None:
            break
    at.update(tried)
    return cycle


def _trimmable(H, paths, trim, beta) -> Optional[int]:
    order = sorted(range(len(paths)), key=lambda j: -len(paths[j]))
    for j in order:
        if len(paths[j]) < 4 + trim:
            continue
        kept = paths[j].vertices[:-trim]
        if is_connectable(H, kept[-2], kept[-1], beta):
            return j
    return None


def _connect_and_absorb(H, params, rng, ap, paths, uncovered, rmask, tried):
    pieces: list[TightPath] = [ap.path] + paths
    k = len(pieces)
    avail = rmask
    conns: list[tuple] = []
    spare = len(ap.absorbers)
    for i in range(k):
        frm = pieces[i].end_pair
        to = pieces[(i + 1) % k].start_pair
        avail_count = avail.bit_count()
        remaining = k - i
        if i < k - 1:
            lengths = _spread_lengths(avail_count, remaining)
        else:
            lengths = _closing_lengths(avail_count, len(uncovered), spare)
            if lengths is None:
                tried["fail_stage"] = "parity_planning"
                return None
        conn = connect(
            H,
            frm,
            to,
            bits(avail),
            seed=int(rng.integers(2**31)),
            lengths=lengths,
        )
        if conn is None:
            tried["fail_stage"] = f"connect_{i}"
            return None
        inner = conn.vertices[2:-2]
        conns.append(inner)
        avail &= ~mask_of(inner)
    tried["connections"] = [len(inner) for inner in conns]

    leftover = sorted(set(uncovered) | set(bits(avail)))
    tried["leftover"] = len(leftover)
    # the closing lengths leave a leftover that fits the absorbers
    new_ap_path = absorb(H, ap, leftover, trace=tried)
    if new_ap_path is None:
        return None

    seq: list[int] = list(new_ap_path.vertices)
    for i in range(k):
        seq.extend(conns[i])
        if i + 1 < k:
            seq.extend(pieces[i + 1].vertices)
    if len(seq) != H.n or not verify_tight_cycle(H, seq):
        raise UncertifiedResult("the assembled cycle failed re-verification")
    return TightPath(tuple(seq), is_cycle=True)


def _spread_lengths(avail, remaining) -> list[int]:
    """Inner-length preference for non-closing connections: spend the
    reservoir evenly, keeping at least one vertex per remaining connection."""
    cap = min(MAX_INNER, max(avail - (remaining - 1), 0))
    target = min(cap, max(1, avail // max(remaining, 1)))
    return sorted(range(0, cap + 1), key=lambda l: (abs(l - target), l))


def _absorbable(leftover: int, spare: int) -> bool:
    """Whether a leftover of this size splits into triples that the spare
    absorbers can take."""
    return leftover % 3 == 0 and leftover // 3 <= spare


def _closing_lengths(avail, uncovered, spare) -> Optional[list[int]]:
    """Feasible inner lengths for the closing connection, longest first so
    that it consumes as much reservoir as possible: the leftover (uncovered
    plus unused reservoir) must be absorbable."""
    out = [
        l
        for l in range(min(MAX_INNER, avail), -1, -1)
        if _absorbable(uncovered + avail - l, spare)
    ]
    return out or None
