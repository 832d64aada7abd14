"""Instance generators: extremal two-colouring constructions, random models
and canonical gadget fixtures.

All generators are deterministic per (family, n, p, seed); randomness comes
from numpy's PCG64 so fixtures are reproducible across platforms.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .hypercore import Hypergraph3, from_triple_array
from .motifs import blowup_path_ordering, k333_path_orderings

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
        return hp_construction(spec.n, spec.p, spec.seed, spec.include_xy_edges)
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
    return from_triple_array(n, _cycle_triples(n))


def _cycle_triples(n: int) -> np.ndarray:
    i = np.arange(n, dtype=np.int64)
    return np.stack([i, (i + 1) % n, (i + 2) % n], axis=1)


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
    for i in range(g):
        # (i, j, k) with i < j < k is monochromatic iff red[i, j], red[i, k]
        # and red[j, k] all agree
        ri = red[i, i + 1 :]
        mono = (ri[:, None] == ri[None, :]) & (red[i + 1 :, i + 1 :] == ri[:, None])
        j, k = np.nonzero(np.triu(mono, 1))
        chunks.append(_rows(i, j + i + 1, k + i + 1))
    for apex, colour in ((x, red), (y, ~red)):
        ai, aj = np.nonzero(np.triu(colour, 1))
        chunks.append(_rows(ai, aj, apex))
    if xy_edges:
        chunks.append(_rows(np.arange(g), x, y))
    return from_triple_array(n, np.concatenate(chunks))


def _rows(*cols) -> np.ndarray:
    """Triples whose three columns are ``cols`` broadcast together, in C
    order of the broadcast shape."""
    arr = np.stack(np.broadcast_arrays(*cols), axis=-1).reshape(-1, 3)
    return arr.astype(np.int64, copy=False)


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


def _transversals(triples: np.ndarray, t: int, a: int, b: int) -> np.ndarray:
    """The t**3 transversal triples of every edge in ``triples``, the j-th
    clone of vertex v labelled ``v*a + j*b``."""
    c = triples[:, :, None] * a + np.arange(t) * b  # edge x slot x clone
    return _rows(c[:, 0, :, None, None], c[:, 1, None, :, None], c[:, 2, None, None, :])


def k333() -> Hypergraph3:
    """Complete 3-partite hypergraph on parts {0,3,6}, {1,4,7}, {2,5,8}
    (all transversal triples); vertex 3i+j sits in part j."""
    return from_triple_array(9, _transversals(np.array([[0, 1, 2]]), 3, 1, 3))


def k333_base_ordering() -> list[int]:
    """Nine-vertex ordering threading all three parts as a tight path."""
    return k333_path_orderings(tuple(range(9)))[0]


def k333_skip_ordering() -> list[int]:
    """Six-vertex ordering with the middle transversal removed; same ends."""
    return k333_path_orderings(tuple(range(9)))[1]


def c8() -> Hypergraph3:
    """The tight cycle on 8 vertices."""
    return tight_cycle(8)


def c8_blowup(t: int = 4) -> Hypergraph3:
    """Blow-up of the tight 8-cycle: 8 cyclically ordered classes of size t;
    edges are the transversal triples of three consecutive classes.  Vertex
    ``layer*8 + position`` is the layer-th clone of cycle position."""
    if t < 1:
        raise ValueError("class size must be >= 1")
    return from_triple_array(8 * t, _transversals(_cycle_triples(8), t, 1, 8))


def c8_blowup_ordering(t: int = 4, drop_layers: tuple[int, ...] = ()) -> list[int]:
    """Tight-path ordering of the blow-up: layer 0 around the cycle, then
    layer 1, and so on.  ``drop_layers`` removes whole layers (classic choices
    at t=4: drop (1,) for 24 vertices, drop (1, 2) for 16), preserving ends."""
    classes = [[layer * 8 + i for layer in range(t)] for i in range(8)]
    return blowup_path_ordering(classes, drop_layers)


def blowup(H: Hypergraph3, t: int) -> Hypergraph3:
    """Replace each vertex by t clones; edges are all transversal triples of
    cloned edges (clone of v is v*t + j)."""
    if t < 1:
        raise ValueError("blow-up factor must be >= 1")
    return from_triple_array(H.n * t, _transversals(H.triples, t, t, 1))
