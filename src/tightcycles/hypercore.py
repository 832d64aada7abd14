"""Core 3-uniform hypergraph representation and tight-path verification.

Vertices are dense integer ids ``0..n-1``.  A hypergraph is immutable after
construction; every neighbourhood is exposed as an integer bitmask so the
search code can run on plain set algebra.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import permutations
from operator import index
from typing import Iterable, Iterator, Optional, Sequence

import numpy as np

from ._pykernels import int_matmul

__all__ = [
    "Hypergraph3",
    "TightPath",
    "from_edges",
    "degree",
    "codegree",
    "min_degree",
    "min_codegree",
    "verify_tight_path",
    "verify_tight_cycle",
    "first_violation",
    "pair_counts",
    "read_h3",
    "write_h3",
    "bits",
    "mask_of",
    "checked_mask",
    "mask_bools",
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


def checked_mask(n: int, vertices: Iterable[int], name: str) -> int:
    """The bitmask of ``vertices``, each an int or a numpy integer (a float
    raises TypeError).  A vertex outside 0..n-1 raises ValueError naming
    ``name``: the one range check behind every public vertex argument.  Each
    vertex is checked before it is shifted, so a huge one costs nothing."""
    mask = 0
    for v in vertices:
        v = index(v)
        if not 0 <= v < n:
            raise ValueError(f"{name} must lie in 0..{n - 1}")
        mask |= 1 << v
    return mask


def mask_bools(mask: int, n: int) -> np.ndarray:
    """Membership of 0..n-1 in a vertex bitmask, as a boolean array."""
    return _mask_rows([mask], n)[0]


def _mask_rows(masks: Sequence[int], n: int) -> np.ndarray:
    """A len(masks) x n boolean array: row i holds the bits 0..n-1 of masks[i]."""
    nbytes = (n + 7) // 8
    packed = np.frombuffer(b"".join(m.to_bytes(nbytes, "little") for m in masks), np.uint8)
    rows = np.unpackbits(packed.reshape(len(masks), nbytes), axis=1, count=n, bitorder="little")
    return rows.view(bool)


class Hypergraph3:
    """Immutable 3-uniform hypergraph, indexed by pair neighbourhoods.

    The pair index is one tuple of n*n bitmasks, built eagerly: N(u, v) sits
    at both ``u*n+v`` and ``v*n+u`` (one int object for the two), and every
    other entry, the diagonal included, is 0.  The build marks each edge
    a < b < c at (a, b, c), (a, c, b) and (b, c, a) in an n x n x n boolean
    array, whose rows u*n+v (u < v), packed, are the masks N(u, v); it holds
    n^3 bytes (27 MB at n = 300) while it runs.  It is the only index kept: a
    vertex link is derived from it on request (:meth:`link_pairs`), and the
    dense edge tensor is built only on request (:meth:`edge_tensor`) and
    never kept.
    """

    __slots__ = ("n", "triples", "_pair_nbr", "_deg")

    # no link is cached; the benchmark tracer in perfbench/tracing.py still
    # reads this name to tell a link build from a cached lookup
    _link_cache = None

    def __init__(self, n: int, triples: np.ndarray):
        """Internal constructor; use :func:`from_edges` for validated input.
        A negative vertex count raises ValueError."""
        if n < 0:
            raise ValueError("vertex count must be nonnegative")
        self.n = int(n)
        self.triples = triples  # m x 3 int64, rows sorted, lexicographically ordered
        self.triples.setflags(write=False)
        self._pair_nbr = self._build_pair_index()
        self._deg = np.bincount(triples.ravel(), minlength=self.n)

    # -- construction -------------------------------------------------

    def _build_pair_index(self) -> tuple[int, ...]:
        n = self.n
        # B[u, v] marks N(u, v) for u < v
        B = np.zeros((n, n, n), dtype=bool)
        a, b, c = self.triples.T
        B[a, b, c] = B[a, c, b] = B[b, c, a] = True
        rows = np.packbits(B.reshape(n * n, n), axis=1, bitorder="little")
        upper = np.flatnonzero(rows.any(axis=1))
        masks = np.fromiter(
            (int.from_bytes(r, "little") for r in rows[upper]), dtype=object, count=len(upper)
        )
        u, v = np.divmod(upper, n)
        flat = np.zeros(n * n, dtype=object)
        flat[upper] = masks
        flat[v * n + u] = masks
        return tuple(flat.tolist())

    # -- basic queries -------------------------------------------------

    @property
    def m(self) -> int:
        return len(self.triples)

    def edges(self) -> list[tuple[int, int, int]]:
        return [tuple(row) for row in self.triples.tolist()]

    def has_edge(self, a: int, b: int, c: int) -> bool:
        """False for repeated or out-of-range vertices: N(u, v) never holds
        u or v, and the diagonal entry N(u, u) is 0."""
        n = self.n
        if not (0 <= a < n and 0 <= b < n and 0 <= c < n):
            return False
        return bool(self._pair_nbr[a * n + b] >> int(c) & 1)

    def nbr_mask(self, u: int, v: int) -> int:
        """Bitmask of N(u, v), the third vertices completing an edge; 0 when
        u == v.  Both vertices must lie in 0..n-1: this lookup is unchecked,
        so callers validate vertices that come from outside."""
        return self._pair_nbr[u * self.n + v]

    def pair_masks(self) -> Iterator[tuple[int, int, int]]:
        """(u, v, N(u, v)) for every shadow pair u < v, in ascending key order."""
        n = self.n
        flat = self._pair_nbr
        for u in range(n):
            for v, mask in enumerate(flat[u * n + u + 1 : (u + 1) * n], u + 1):
                if mask:
                    yield u, v, mask

    def nbr_flat(self) -> tuple[int, ...]:
        """The pair index itself: N(u, v) at position u*n+v for every ordered
        pair, 0 on the diagonal.  The Hamilton DP's neighbourhood input."""
        return self._pair_nbr

    def link_pairs(self, v: int) -> np.ndarray:
        """The link of ``v``: a read-only k x 2 int64 array of pairs {a, b},
        a < b, with {v,a,b} an edge, in edge order (see :func:`link_keys`)."""
        checked_mask(self.n, (v,), "v")
        pairs = np.stack(np.divmod(link_keys(self, v, self.vertex_mask()), self.n), axis=1)
        pairs.setflags(write=False)
        return pairs

    def edge_tensor(self) -> np.ndarray:
        """The dense n x n x n float32 tensor T with T[a, b, c] = 1 iff
        {a, b, c} is an edge, 0 elsewhere: the input of :func:`pair_counts`
        and of the exact deviation kernels.  Built on each call by marking the
        six orderings of every edge, as the pair index marks three, and never
        cached, because it takes 4n^3 bytes (31 MB at n = 200); a caller holds
        it for one search."""
        n = self.n
        T = np.zeros((n, n, n), dtype=np.float32)
        for x, y, z in permutations(self.triples.T):
            T[x, y, z] = 1
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


def pair_counts(T: np.ndarray, S) -> np.ndarray:
    """The n x n int64 matrix C with C[u, v] = sum of S[u, x] over x in
    N(u, v), read from the edge tensor ``T`` of :meth:`Hypergraph3.edge_tensor`
    for a 0/1 n x n array S.  A length-n S weighs every row the same, so
    C[u, v] = |N(u, v) ∩ S| and C is symmetric.  The diagonal is 0.  One
    float32 product (its sums are at most n, see ``int_matmul``)."""
    n = len(T)
    S = np.asarray(S)
    if S.ndim == 1:
        return int_matmul(T.reshape(n * n, n), S).reshape(n, n)
    return int_matmul(T, S[:, :, None]).reshape(n, n)


def link_keys(H: Hypergraph3, v: int, within: int) -> np.ndarray:
    """The keys a*n+b, a < b, of the pairs {a, b} in the link of ``v`` with
    both a and b in the vertex mask ``within``, in edge order, as an int64
    array.  Unchecked: ``v`` must lie in 0..n-1.

    One pass over the n masks N(v, a): row a keeps its bits b > a inside
    ``within`` (none when a is outside it), and the cells (a, b) in row-major
    order are the link in edge order, because dropping v from
    lexicographically sorted triples keeps their order."""
    n = H.n
    rows = [
        m & within & (-2 << a) if within >> a & 1 else 0
        for a, m in enumerate(H._pair_nbr[v * n : (v + 1) * n])
    ]
    return np.flatnonzero(_mask_rows(rows, n))


def _dedupe(n: int, arr: np.ndarray) -> np.ndarray:
    """Sort each row, drop repeated rows and order them lexicographically,
    through the 1-D key (a*n+b)*n+c, as a fresh array.  Each sort runs only
    when an O(m) check finds its input out of order."""
    if not (np.all(arr[:, 0] < arr[:, 1]) and np.all(arr[:, 1] < arr[:, 2])):
        arr = np.sort(arr, axis=1)
    keys = (arr[:, 0] * n + arr[:, 1]) * n + arr[:, 2]
    if np.all(keys[1:] > keys[:-1]):
        return arr.copy()
    keys = np.sort(keys)
    # a sort and a neighbour test beat np.unique, which hashes the keys first
    keys = keys[np.diff(keys, prepend=-1) != 0]
    ab, c = np.divmod(keys, n)
    a, b = np.divmod(ab, n)
    return np.stack([a, b, c], axis=1)


def from_edges(n: int, triples: Iterable[Sequence[int]]) -> Hypergraph3:
    """Build a hypergraph from 3-element edges, deduplicating.

    Raises ValueError for a negative vertex count, and for out-of-range or
    repeated vertices in a triple.
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
    checked_mask(H.n, (v,), "v")
    return int(H._deg[v])


def codegree(H: Hypergraph3, u: int, v: int) -> int:
    if (checked_mask(H.n, (u,), "u") | checked_mask(H.n, (v,), "v")).bit_count() != 2:
        raise ValueError("codegree requires two distinct vertices")
    return H.nbr_mask(u, v).bit_count()


def min_degree(H: Hypergraph3) -> int:
    if H.n == 0:
        return 0
    return int(H._deg.min())


def min_codegree(H: Hypergraph3) -> int:
    n = H.n
    if n < 2:
        return 0
    flat = H._pair_nbr
    return min(m.bit_count() for u in range(n) for m in flat[u * n + u + 1 : (u + 1) * n])


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
