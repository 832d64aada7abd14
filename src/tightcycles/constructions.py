"""Instance generators: extremal two-colouring constructions, random models
and canonical gadget fixtures.

All generators are deterministic per (family, n, p, seed); randomness comes
from numpy's PCG64 so fixtures are reproducible across platforms.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .hypercore import Hypergraph3, from_triple_array

__all__ = [
    "GenSpec",
    "generate",
    "example1",
    "hp_construction",
    "tight_cycle",
    "complete",
    "random",
    "empty",
    "k333",
    "c8",
    "c8_blowup",
    "blowup",
    "k333_base_ordering",
    "k333_skip_ordering",
    "c8_blowup_ordering",
]

FAMILIES = (
    "complete",
    "tight_cycle",
    "random",
    "example1",
    "hp",
    "k333",
    "c8",
    "c8_blowup",
    "blowup",
)


@dataclass(frozen=True)
class GenSpec:
    """Parameters fully determining a generated instance."""

    family: str
    n: int = 0
    p: float = 0.5
    seed: int = 0
    include_xy_edges: bool = False
    t: int = 4  # blow-up class size

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError(f"unknown family {self.family!r}")
        if not 0.0 <= self.p <= 1.0:
            raise ValueError("p must lie in [0, 1]")


def generate(spec: GenSpec) -> Hypergraph3:
    fam = spec.family
    if fam == "complete":
        return complete(spec.n)
    if fam == "tight_cycle":
        return tight_cycle(spec.n)
    if fam == "random":
        return random(spec.n, spec.p, spec.seed)
    if fam == "example1":
        return example1(spec.n, spec.seed, spec.include_xy_edges)
    if fam == "hp":
        return hp_construction(spec.n, spec.p, spec.seed)
    if fam == "k333":
        return k333()
    if fam == "c8":
        return c8()
    if fam == "c8_blowup":
        return c8_blowup(spec.t)
    raise ValueError(f"family {fam!r} needs an explicit host hypergraph")


def _rng(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(seed))


def empty(n: int) -> Hypergraph3:
    return from_triple_array(n, np.zeros((0, 3), dtype=np.int64))


def _triples(n: int) -> np.ndarray:
    """All C(n, 3) triples a < b < c as rows, in lexicographic order."""
    i = np.arange(n)
    lt = i[:, None] < i[None, :]
    return np.argwhere(lt[:, :, None] & lt[None, :, :]).astype(np.int64, copy=False)


def complete(n: int) -> Hypergraph3:
    if n < 3:
        return empty(n)
    return from_triple_array(n, _triples(n))


def tight_cycle(n: int) -> Hypergraph3:
    """Edges {i, i+1, i+2} mod n."""
    if n < 5:
        raise ValueError("tight_cycle needs n >= 5")
    i = np.arange(n, dtype=np.int64)
    arr = np.stack([i, (i + 1) % n, (i + 2) % n], axis=1)
    return from_triple_array(n, arr)


def random(n: int, p: float, seed: int) -> Hypergraph3:
    """Each of the C(n,3) triples is an edge independently with probability p."""
    if not 0.0 <= p <= 1.0:
        raise ValueError("p must lie in [0, 1]")
    if n < 3:
        return empty(n)
    arr = _triples(n)
    keep = _rng(seed).random(len(arr)) < p
    return from_triple_array(n, arr[keep])


# -- two-colouring constructions ------------------------------------------


def _biased_colouring(n: int, p: float, seed: int, xy_edges: bool) -> Hypergraph3:
    """Colour the complete graph on n-2 vertices red with probability p; the
    hyperedges are the monochromatic triangles plus two apex vertices whose
    links are the red and the blue graph respectively."""
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


def example1(n: int, seed: int, include_xy_edges: bool = False) -> Hypergraph3:
    """The balanced (p = 1/2) two-colouring construction: no tight Hamilton
    cycle, yet uniformly dense at density 1/4."""
    return _biased_colouring(n, 0.5, seed, include_xy_edges)


def hp_construction(n: int, p: float, seed: int, include_xy_edges: bool = True) -> Hypergraph3:
    """The p-biased variant.  The pair of apex vertices gets all its triples
    by default so that the minimum codegree is carried by the blue pairs."""
    if not 0.0 <= p <= 1.0:
        raise ValueError("p must lie in [0, 1]")
    return _biased_colouring(n, p, seed, include_xy_edges)


# -- canonical gadgets -------------------------------------------------------


def k333() -> Hypergraph3:
    """Complete 3-partite hypergraph on parts {0,3,6}, {1,4,7}, {2,5,8}
    (all transversal triples); vertex 3i+j sits in part j."""
    triples = []
    for a in (0, 3, 6):
        for b in (1, 4, 7):
            for c in (2, 5, 8):
                triples.append((a, b, c))
    return from_triple_array(9, np.array(triples, dtype=np.int64))


def k333_base_ordering() -> list[int]:
    """Nine-vertex ordering threading all three parts as a tight path."""
    return [0, 1, 2, 3, 4, 5, 6, 7, 8]


def k333_skip_ordering() -> list[int]:
    """Six-vertex ordering with the middle transversal removed; same ends."""
    return [0, 1, 2, 6, 7, 8]


def c8() -> Hypergraph3:
    """The tight cycle on 8 vertices."""
    return tight_cycle(8)


def c8_blowup(t: int = 4) -> Hypergraph3:
    """Blow-up of the tight 8-cycle: 8 cyclically ordered classes of size t;
    edges are the transversal triples of three consecutive classes.  Vertex
    ``layer*8 + position`` is the layer-th clone of cycle position."""
    if t < 1:
        raise ValueError("class size must be >= 1")
    triples = []
    for i in range(8):
        cls = [
            [layer * 8 + (i + off) % 8 for layer in range(t)] for off in range(3)
        ]
        for a in cls[0]:
            for b in cls[1]:
                for c in cls[2]:
                    triples.append((a, b, c))
    return from_triple_array(8 * t, np.array(triples, dtype=np.int64))


def c8_blowup_ordering(t: int = 4, drop_layers: tuple[int, ...] = ()) -> list[int]:
    """Tight-path ordering of the blow-up: layer 0 around the cycle, then
    layer 1, and so on.  ``drop_layers`` removes whole layers (classic choices
    at t=4: drop (1,) for 24 vertices, drop (1, 2) for 16), preserving ends."""
    order = []
    for layer in range(t):
        if layer in drop_layers:
            continue
        order.extend(layer * 8 + i for i in range(8))
    return order


def blowup(H: Hypergraph3, t: int) -> Hypergraph3:
    """Replace each vertex by t clones; edges are all transversal triples of
    cloned edges (clone of v is v*t + j)."""
    if t < 1:
        raise ValueError("blow-up factor must be >= 1")
    triples = []
    for a, b, c in H.triples.tolist():
        for i in range(t):
            for j in range(t):
                for k in range(t):
                    triples.append((a * t + i, b * t + j, c * t + k))
    arr = np.array(triples, dtype=np.int64) if triples else np.zeros((0, 3), dtype=np.int64)
    return from_triple_array(H.n * t, arr)
