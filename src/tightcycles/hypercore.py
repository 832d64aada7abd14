"""Core 3-uniform hypergraph representation and tight-path verification.

Vertices are dense integer ids ``0..n-1``.  A hypergraph is immutable after
construction; every neighbourhood is exposed as an integer bitmask so the
search code can run on plain set algebra.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import permutations
from typing import Iterable, Iterator, Optional, Sequence

import numpy as np

__all__ = [
    "Hypergraph3",
    "PairSet",
    "TightPath",
    "Graph",
    "from_edges",
    "degree",
    "codegree",
    "min_degree",
    "min_codegree",
    "shadow_between",
    "verify_tight_path",
    "verify_tight_cycle",
    "first_violation",
    "read_h3",
    "write_h3",
    "bits",
    "mask_of",
    "mask_bools",
    "pair_key",
    "pair_of",
]


def bits(mask: int) -> Iterator[int]:
    """Iterate over the set bit positions of ``mask`` in increasing order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def mask_of(vertices: Iterable[int]) -> int:
    m = 0
    for v in vertices:
        m |= 1 << v
    return m


def mask_bools(mask: int, n: int) -> np.ndarray:
    """Membership of 0..n-1 in a vertex bitmask, as a boolean array."""
    return np.array([(mask >> v) & 1 for v in range(n)], dtype=bool)


class Hypergraph3:
    """Immutable 3-uniform hypergraph, indexed by pair neighbourhoods.

    The eager index maps each shadow pair key ``u*n+v`` (u < v), in ascending
    key order, to the bitmask N(u, v).  The link index is built on first use:
    CSR offsets plus a 3m x 2 pair array holding, for each vertex, its link
    pairs in edge order.
    """

    __slots__ = (
        "n",
        "triples",
        "_pair_nbr",
        "_deg",
        "_link_cache",
    )

    def __init__(self, n: int, triples: np.ndarray):
        """Internal constructor; use :func:`from_edges` for validated input."""
        self.n = int(n)
        self.triples = triples  # m x 3 int64, rows sorted, lexicographically ordered
        self.triples.setflags(write=False)
        self._pair_nbr = self._build_pair_index()
        self._deg = np.bincount(triples.ravel(), minlength=self.n)
        self._link_cache: tuple[np.ndarray, np.ndarray] | None = None

    # -- construction -------------------------------------------------

    def _build_pair_index(self) -> dict[int, int]:
        n = self.n
        t = self.triples
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

    # -- basic queries -------------------------------------------------

    @property
    def m(self) -> int:
        return len(self.triples)

    def edges(self) -> list[tuple[int, int, int]]:
        return [tuple(row) for row in self.triples.tolist()]

    def has_edge(self, a: int, b: int, c: int) -> bool:
        """False for repeated or out-of-range vertices: N(u, v) never holds
        u or v, and a repeated pair has no key in the index."""
        n = self.n
        if not (0 <= a < n and 0 <= b < n and 0 <= c < n):
            return False
        key = a * n + b if a < b else b * n + a
        return bool(self._pair_nbr.get(key, 0) >> int(c) & 1)

    def nbr_mask(self, u: int, v: int) -> int:
        """Bitmask of N(u, v), the third vertices completing an edge."""
        if u > v:
            u, v = v, u
        return self._pair_nbr.get(u * self.n + v, 0)

    def pair_masks(self) -> Iterator[tuple[int, int, int]]:
        """(u, v, N(u, v)) for every shadow pair u < v, in ascending key order."""
        n = self.n
        for key, mask in self._pair_nbr.items():
            u, v = divmod(key, n)
            yield u, v, mask

    def nbr_flat(self) -> list[int]:
        """N(u, v) at position u*n+v for every ordered pair, 0 on the
        diagonal: the Hamilton DP's neighbourhood input."""
        n = self.n
        flat = [0] * (n * n)
        for u, v, mask in self.pair_masks():
            flat[u * n + v] = flat[v * n + u] = mask
        return flat

    def link_index(self) -> tuple[np.ndarray, np.ndarray]:
        """The CSR link index ``(off, pairs)``: the link of v is
        ``pairs[off[v]:off[v+1]]``, pairs (a, b) with a < b, in edge order."""
        if self._link_cache is None:
            t = self.triples
            # edge i contributes (b, c) to a, (a, c) to b and (a, b) to c, in
            # that order, so a stable sort on the owner keeps edge order
            pairs = t[:, [1, 2, 0, 2, 0, 1]].reshape(-1, 2)
            pairs = pairs[np.argsort(t.ravel(), kind="stable")]
            off = np.zeros(self.n + 1, dtype=np.int64)
            np.cumsum(self._deg, out=off[1:])
            pairs.setflags(write=False)
            off.setflags(write=False)
            self._link_cache = (off, pairs)
        return self._link_cache

    def link_pairs(self, v: int) -> np.ndarray:
        """The link of ``v``: a read-only k x 2 array of pairs {a, b} with
        {v,a,b} an edge, in edge order."""
        if not 0 <= v < self.n:
            raise ValueError(f"vertex {v} outside 0..{self.n - 1}")
        off, pairs = self.link_index()
        return pairs[off[v] : off[v + 1]]

    def edge_tensor(self) -> np.ndarray:
        """The dense n x n x n int64 tensor T with T[a, b, c] = 1 iff {a, b, c}
        is an edge: the exact deviation kernels' input.  Built on each call
        and not cached; it is meant for the exact budgets (n <= 24)."""
        T = np.zeros((self.n,) * 3, dtype=np.int64)
        t = self.triples
        for i, j, k in permutations(range(3)):
            T[t[:, i], t[:, j], t[:, k]] = 1
        return T

    def vertex_mask(self) -> int:
        return (1 << self.n) - 1

    def __repr__(self) -> str:  # pragma: no cover
        return f"Hypergraph3(n={self.n}, m={self.m})"

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Hypergraph3)
            and self.n == other.n
            and self.triples.shape == other.triples.shape
            and bool(np.all(self.triples == other.triples))
        )

    def __hash__(self) -> int:
        return hash((self.n, self.triples.tobytes()))


def pair_key(u: int, v: int, n: int) -> int:
    """The index key ``min*n + max`` of the unordered pair {u, v}."""
    return u * n + v if u < v else v * n + u


def pair_of(key: int, n: int) -> tuple[int, int]:
    """The pair (u, v), u < v, behind an index key."""
    return divmod(key, n)


def _dedupe(n: int, arr: np.ndarray) -> np.ndarray:
    """Sort each row, drop repeated rows and order them lexicographically,
    through the 1-D key (a*n+b)*n+c."""
    arr = np.sort(arr, axis=1)
    keys = np.sort((arr[:, 0] * n + arr[:, 1]) * n + arr[:, 2])
    # a sort and a neighbour test beat np.unique, which hashes the keys first
    keys = keys[np.diff(keys, prepend=-1) != 0]
    ab, c = np.divmod(keys, n)
    a, b = np.divmod(ab, n)
    return np.stack([a, b, c], axis=1)


def from_edges(n: int, triples: Iterable[Sequence[int]]) -> Hypergraph3:
    """Build a hypergraph from 3-element edges, deduplicating.

    Raises ValueError for out-of-range or repeated vertices in a triple.
    """
    if n < 0:
        raise ValueError("vertex count must be nonnegative")
    rows = []
    for t in triples:
        a, b, c = t
        if len({a, b, c}) != 3:
            raise ValueError(f"edge {tuple(t)} repeats a vertex")
        if not all(0 <= x < n for x in (a, b, c)):
            raise ValueError(f"edge {tuple(t)} has a vertex outside 0..{n - 1}")
        rows.append((a, b, c))
    return Hypergraph3(n, _dedupe(n, np.array(rows, dtype=np.int64).reshape(-1, 3)))


def from_triple_array(n: int, arr: np.ndarray) -> Hypergraph3:
    """Fast path for generators: rows are assumed valid, possibly unsorted."""
    return Hypergraph3(n, _dedupe(n, np.asarray(arr, dtype=np.int64).reshape(-1, 3)))


# -- degrees ------------------------------------------------------------


def degree(H: Hypergraph3, v: int) -> int:
    if not 0 <= v < H.n:
        raise ValueError(f"vertex {v} outside 0..{H.n - 1}")
    return int(H._deg[v])


def codegree(H: Hypergraph3, u: int, v: int) -> int:
    if u == v:
        raise ValueError("codegree requires two distinct vertices")
    for x in (u, v):
        if not 0 <= x < H.n:
            raise ValueError(f"vertex {x} outside 0..{H.n - 1}")
    return H.nbr_mask(u, v).bit_count()


def min_degree(H: Hypergraph3) -> int:
    if H.n == 0:
        return 0
    return int(H._deg.min())


def min_codegree(H: Hypergraph3) -> int:
    n = H.n
    if n < 2:
        return 0
    if len(H._pair_nbr) < n * (n - 1) // 2:
        return 0  # some pair has empty neighbourhood
    return min(m.bit_count() for m in H._pair_nbr.values())


# -- pair sets -----------------------------------------------------------


@dataclass(frozen=True)
class PairSet:
    """A set of vertex pairs, either ordered or canonically unordered."""

    ordered: bool
    members: frozenset = field(default_factory=frozenset)

    def __post_init__(self):
        for a, b in self.members:
            if a == b:
                raise ValueError(f"pair ({a},{a}) has equal endpoints")
        if not self.ordered:
            bad = [p for p in self.members if p[0] > p[1]]
            if bad:
                raise ValueError(f"unordered pairs must be stored as (min,max): {bad[0]}")

    @staticmethod
    def from_ordered(pairs: Iterable[tuple[int, int]]) -> "PairSet":
        return PairSet(True, frozenset((int(a), int(b)) for a, b in pairs))

    @staticmethod
    def from_unordered(pairs: Iterable[tuple[int, int]]) -> "PairSet":
        canon = frozenset((min(a, b), max(a, b)) for a, b in pairs)
        return PairSet(False, canon)

    def __len__(self) -> int:
        return len(self.members)

    def __contains__(self, pair) -> bool:
        a, b = pair
        if self.ordered:
            return (a, b) in self.members
        return (min(a, b), max(a, b)) in self.members

    def __iter__(self):
        return iter(sorted(self.members))

    def endpoint_mask_by_first(self, n: int) -> dict[int, int]:
        """For each first coordinate y, the bitmask {v : (y,v) in set}.

        For unordered sets, membership is interpreted symmetrically.
        """
        out: dict[int, int] = {}
        for a, b in self.members:
            out[a] = out.get(a, 0) | (1 << b)
            if not self.ordered:
                out[b] = out.get(b, 0) | (1 << a)
        return out


def shadow_between(H: Hypergraph3, V1: Iterable[int], V2: Iterable[int]) -> PairSet:
    """Ordered pairs (v1, v2) in V1 x V2 whose unordered pair lies in the shadow."""
    s1, s2 = set(V1), set(V2)
    if s1 & s2:
        raise ValueError("V1 and V2 must be disjoint")
    pairs = []
    for a in s1:
        for b in s2:
            if H.nbr_mask(a, b):
                pairs.append((a, b))
    return PairSet.from_ordered(pairs)


# -- tight paths ----------------------------------------------------------


@dataclass(frozen=True)
class TightPath:
    """An ordered vertex sequence; certified against a host at creation sites."""

    vertices: tuple
    is_cycle: bool = False

    def __post_init__(self):
        object.__setattr__(self, "vertices", tuple(int(v) for v in self.vertices))

    def __len__(self) -> int:
        return len(self.vertices)

    @property
    def start_pair(self) -> tuple[int, int]:
        return self.vertices[0], self.vertices[1]

    @property
    def end_pair(self) -> tuple[int, int]:
        return self.vertices[-2], self.vertices[-1]

    def reversed(self) -> "TightPath":
        return TightPath(tuple(reversed(self.vertices)), self.is_cycle)

    def vertex_set(self) -> frozenset:
        return frozenset(self.vertices)

    def vertex_mask(self) -> int:
        return mask_of(self.vertices)


def first_violation(H: Hypergraph3, seq: Sequence[int], cycle: bool = False) -> Optional[str]:
    """None if the sequence certifies, else a message for the first failure."""
    seq = list(seq)
    if len(seq) != len(set(seq)):
        return "repeated vertex"
    if any(not 0 <= v < H.n for v in seq):
        return "vertex out of range"
    minimum = 4 if cycle else 3
    if len(seq) < minimum:
        return f"length {len(seq)} below minimum {minimum}"
    for i in range(len(seq) - 2):
        a, b, c = seq[i], seq[i + 1], seq[i + 2]
        if not H.has_edge(a, b, c):
            return f"triple ({a},{b},{c}) at position {i} is not an edge"
    if cycle:
        a, b, c = seq[-2], seq[-1], seq[0]
        if not H.has_edge(a, b, c):
            return f"wrap triple ({a},{b},{c}) is not an edge"
        a, b, c = seq[-1], seq[0], seq[1]
        if not H.has_edge(a, b, c):
            return f"wrap triple ({a},{b},{c}) is not an edge"
    return None


def verify_tight_path(H: Hypergraph3, seq: Sequence[int]) -> bool:
    return first_violation(H, seq, cycle=False) is None


def verify_tight_cycle(H: Hypergraph3, seq: Sequence[int]) -> bool:
    return first_violation(H, seq, cycle=True) is None


# -- plain graphs ----------------------------------------------------------


class Graph:
    """Minimal undirected graph with bitmask adjacency (used for links and
    the regular-pair probe)."""

    __slots__ = ("n", "adj")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]] = ()):
        self.n = n
        self.adj = [0] * n
        for a, b in edges:
            self.add_edge(a, b)

    def add_edge(self, a: int, b: int) -> None:
        if a == b:
            raise ValueError("loops not allowed")
        self.adj[a] |= 1 << b
        self.adj[b] |= 1 << a

    def has_edge(self, a: int, b: int) -> bool:
        return bool(self.adj[a] >> b & 1)

    def edge_count(self) -> int:
        return sum(m.bit_count() for m in self.adj) // 2

    def edges(self) -> list[tuple[int, int]]:
        out = []
        for a in range(self.n):
            for b in bits(self.adj[a] >> (a + 1) << (a + 1)):
                out.append((a, b))
        return out

    def degree(self, v: int) -> int:
        return self.adj[v].bit_count()

    def count_between(self, xmask: int, ymask: int) -> int:
        """Edges (a,b) with a in X, b in Y; an edge inside X∩Y counts twice."""
        total = 0
        for a in bits(xmask):
            total += (self.adj[a] & ymask).bit_count()
        return total


# -- .h3 serialisation ------------------------------------------------------


def write_h3(H: Hypergraph3, path: str) -> None:
    with open(path, "w") as fh:
        fh.write(f"{H.n} {H.m}\n")
        for a, b, c in H.triples.tolist():
            fh.write(f"{a} {b} {c}\n")


def read_h3(path: str) -> Hypergraph3:
    with open(path) as fh:
        header = fh.readline().split()
        if len(header) != 2:
            raise ValueError("first line must be 'n m'")
        n, m = int(header[0]), int(header[1])
        triples = []
        for lineno, line in enumerate(fh, start=2):
            line = line.strip()
            if not line:
                continue
            parts = line.split()
            if len(parts) != 3:
                raise ValueError(f"line {lineno}: expected 3 vertices")
            triples.append(tuple(int(p) for p in parts))
        if len(triples) != m:
            raise ValueError(f"header declares {m} edges, file has {len(triples)}")
    H = from_edges(n, triples)
    if H.m != m:
        raise ValueError(f"header declares {m} edges, file has {H.m} distinct")
    return H
