import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    dedupe_reference,
    dedupe_sort_reference,
    link_pairs_reference,
    pair_index_reference,
)
import tightcycles
from tightcycles import constructions as cons
from tightcycles.hypercore import (
    TightPath,
    codegree,
    degree,
    first_violation,
    from_edges,
    from_triple_array,
    _dedupe,
    mask_of,
    min_codegree,
    min_degree,
    pair_counts,
    read_h3,
    verify_tight_cycle,
    verify_tight_path,
    pair_key,
    pair_of,
    write_h3,
)


def test_from_edges_complete_k4():
    H = from_edges(4, [(0, 1, 2), (1, 2, 3), (2, 3, 0), (3, 0, 1)])
    assert H.m == 4
    assert H.n == 4


def test_from_edges_empty():
    H = from_edges(5, [])
    assert H.m == 0
    assert all(degree(H, v) == 0 for v in range(5))


def test_from_edges_rejects_repeats_and_range():
    with pytest.raises(ValueError):
        from_edges(3, [(0, 1, 1)])
    with pytest.raises(ValueError):
        from_edges(3, [(0, 1, 3)])


@pytest.mark.parametrize(
    "build",
    [
        lambda: from_edges(-1, []),
        lambda: from_triple_array(-5, np.zeros((0, 3), dtype=np.int64)),
        lambda: cons.empty(-5),
        lambda: cons.complete(-5),
        lambda: cons.random(-5, 0.5, 1),
    ],
    ids=["from_edges", "from_triple_array", "empty", "complete", "random"],
)
def test_negative_vertex_count_is_refused(build):
    with pytest.raises(ValueError, match="^vertex count must be nonnegative$"):
        build()


def test_from_edges_dedupes():
    H = from_edges(4, [(0, 1, 2), (2, 1, 0), (1, 0, 2)])
    assert H.m == 1


def test_complete_codegrees():
    n = 7
    H = cons.complete(n)
    assert all(
        codegree(H, u, v) == n - 2 for u in range(n) for v in range(n) if u != v
    )


def test_tight_cycle_degrees():
    # every vertex lies in exactly the 3 edges {i-2..i}, {i-1..i+1}, {i..i+2}
    H = cons.tight_cycle(9)
    assert all(degree(H, v) == 3 for v in range(9))
    assert all(codegree(H, i, (i + 1) % 9) == 2 for i in range(9))


def test_min_degrees_empty():
    H = from_edges(6, [])
    assert min_degree(H) == 0
    assert min_codegree(H) == 0


def test_degree_errors():
    H = cons.complete(4)
    with pytest.raises(ValueError):
        degree(H, 4)
    with pytest.raises(ValueError):
        codegree(H, 1, 1)


def test_degree_sum_identities():
    for seed in range(5):
        H = cons.random(8, 0.5, seed)
        assert sum(degree(H, v) for v in range(8)) == 3 * H.m
        total = sum(codegree(H, u, v) for u in range(8) for v in range(u + 1, 8))
        assert total == 3 * H.m


def test_codegree_matches_short_path_count():
    H = cons.random(7, 0.6, 3)
    for u in range(7):
        for v in range(u + 1, 7):
            cnt = sum(1 for w in range(7) if verify_tight_path(H, [u, v, w]))
            assert cnt == codegree(H, u, v)


def test_shadow_symmetry():
    # N(u, v) sits at both u*n+v and v*n+u, as one object
    H = cons.random(8, 0.5, 1)
    flat = H.nbr_flat()
    for u in range(8):
        assert flat[u * 8 + u] == 0
        for v in range(8):
            assert H.nbr_mask(u, v) == H.nbr_mask(v, u)
            assert flat[u * 8 + v] is flat[v * 8 + u]


def test_verify_cycle_on_tight_cycle():
    for n in (5, 8, 12):
        H = cons.tight_cycle(n)
        assert verify_tight_cycle(H, list(range(n)))


def test_verify_k4_cycle():
    H = cons.complete(4)
    assert verify_tight_cycle(H, [0, 1, 2, 3])


def test_verify_detects_missing_edge():
    n = 9
    H = cons.tight_cycle(n)
    triples = [t for t in H.edges() if t != (0, 1, 2)]
    H2 = from_edges(n, triples)
    assert not verify_tight_cycle(H2, list(range(n)))
    assert "(0,1,2)" in first_violation(H2, list(range(n)), cycle=True)


def test_verify_short_and_degenerate():
    H = cons.complete(5)
    assert not verify_tight_path(H, [0, 1])
    assert not verify_tight_path(H, [0, 1, 1])
    # minimum certified cycle length is 4
    assert not verify_tight_cycle(H, [0, 1, 2])
    assert verify_tight_path(H, [0, 1, 2])


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 500),
    rot=st.integers(0, 11),
    reverse=st.booleans(),
)
def test_cycle_verification_invariant_under_rotation_reversal(seed, rot, reverse):
    H = cons.random(8, 0.7, seed)
    seq = list(np.random.Generator(np.random.PCG64(seed)).permutation(8))
    base = verify_tight_cycle(H, seq)
    other = seq[rot % 8 :] + seq[: rot % 8]
    if reverse:
        other = other[::-1]
    assert verify_tight_cycle(H, other) == base


def test_tight_path_helpers():
    p = TightPath((4, 5, 6, 7))
    assert p.start_pair == (4, 5)
    assert p.end_pair == (6, 7)


def test_h3_roundtrip(tmp_path):
    H = cons.random(9, 0.5, 42)
    path = tmp_path / "g.h3"
    write_h3(H, str(path))
    H2 = read_h3(str(path))
    assert H == H2
    # canonical: rows sorted lexicographically
    text = path.read_text().splitlines()
    assert text[0] == f"{H.n} {H.m}"
    rows = [tuple(map(int, line.split())) for line in text[1:]]
    assert rows == sorted(rows)


def test_h3_rejects_malformed(tmp_path):
    p = tmp_path / "bad.h3"
    p.write_text("3 1\n0 1\n")
    with pytest.raises(ValueError):
        read_h3(str(p))
    p.write_text("3 2\n0 1 2\n")
    with pytest.raises(ValueError):
        read_h3(str(p))
    # a repeated edge line leaves fewer distinct edges than the header says
    p.write_text("4 3\n0 1 2\n1 2 3\n2 1 0\n")
    with pytest.raises(ValueError, match="distinct"):
        read_h3(str(p))


# -- the pair and link indices against the former builders and the raw rows ----


INDEX_HOSTS = [
    pytest.param(from_edges(6, []), id="empty"),
    pytest.param(from_edges(9, [(0, 1, 2), (1, 2, 3), (2, 3, 0), (5, 1, 3)]), id="isolated"),
    pytest.param(cons.random(13, 0.12, 4), id="sparse"),
    pytest.param(cons.random(11, 0.9, 5), id="dense"),
    pytest.param(cons.complete(8), id="complete"),
    pytest.param(cons.example1(14, 2), id="example1"),
]


def _scrambled_rows(H, seed):
    """H's rows with each row permuted, the row order shuffled and about a
    third of the rows repeated."""
    rng = np.random.Generator(np.random.PCG64(seed))
    rows = H.triples.copy()
    if len(rows):
        rows = np.concatenate([rows, rows[rng.random(len(rows)) < 0.35]])
        rows = rows[rng.permutation(len(rows))]
        rows = np.array([r[rng.permutation(3)] for r in rows], dtype=np.int64)
    return rows.reshape(-1, 3)


def _assert_links_match_reference(H, want):
    for v in want:
        got = H.link_pairs(v)
        assert got.dtype == np.int64 and got.shape == want[v].shape
        assert np.array_equal(got, want[v])  # row for row, in edge order
        assert not got.flags.writeable


@pytest.mark.parametrize("H", INDEX_HOSTS)
def test_index_matches_former_builders(H):
    for seed in range(3):
        rows = _scrambled_rows(H, seed)
        want = dedupe_reference(rows)
        for G in (from_triple_array(H.n, rows), from_edges(H.n, rows.tolist())):
            assert G.triples.dtype == np.int64
            assert G.triples.shape == want.shape
            assert np.array_equal(G.triples, want)
            assert np.array_equal(G.triples, H.triples)
            assert G == H and hash(G) == hash(H)
    links = link_pairs_reference(H)
    _assert_links_match_reference(H, links)
    assert [len(links[v]) for v in range(H.n)] == [degree(H, v) for v in range(H.n)]
    for v in (-1, -2, H.n):
        with pytest.raises(ValueError):
            H.link_pairs(v)


@pytest.mark.parametrize(
    "make",
    [
        lambda: cons.random(150, 0.85, 2),
        lambda: cons.example1(120, 5),
        lambda: cons.hp_construction(120, 0.6, 7),
    ],
    ids=["random150", "example1-120", "hp120"],
)
def test_link_pairs_match_reference_at_workload_scale(make):
    H = make()
    _assert_links_match_reference(H, link_pairs_reference(H, range(0, H.n, 7)))


def test_link_pairs_survive_an_h3_round_trip(tmp_path):
    H = cons.example1(120, 5)
    write_h3(H, str(tmp_path / "g.h3"))
    want = link_pairs_reference(H, range(0, H.n, 7))
    _assert_links_match_reference(read_h3(str(tmp_path / "g.h3")), want)


@pytest.mark.parametrize(
    "H",
    INDEX_HOSTS
    + [
        pytest.param(cons.random(40, 0.5, 6), id="random40"),
        pytest.param(cons.hp_construction(30, 0.6, 7), id="hp30"),
        pytest.param(cons.example1(25, 8, True), id="example1-xy"),
    ],
)
def test_dedupe_matches_former_sorts(H):
    """Every row order the checks can meet: sorted and distinct (both sorts
    skipped), rows sorted but keys out of order or repeated (the row sort
    skipped), and scrambled, repeated rows (neither skipped)."""
    rng = np.random.Generator(np.random.PCG64(H.n))
    t = H.triples
    repeated = t[np.sort(rng.integers(len(t), size=len(t) // 2 + 1))] if len(t) else t
    doubled = np.concatenate([t, repeated])
    inputs = [t, t[::-1], t[rng.permutation(len(t))], doubled,
              doubled[np.lexsort(doubled.T[::-1])], t[:, ::-1]]
    inputs += [_scrambled_rows(H, seed) for seed in range(3)]
    for arr in inputs:
        arr = np.array(arr, dtype=np.int64).reshape(-1, 3)
        before = arr.copy()
        got = _dedupe(H.n, arr)
        want = dedupe_sort_reference(H.n, arr)
        assert got.dtype == want.dtype and np.array_equal(got, want)
        assert np.array_equal(got, t)
        assert not np.shares_memory(got, arr)
        assert np.array_equal(arr, before)


@pytest.mark.parametrize("H", INDEX_HOSTS)
def test_has_edge_and_masks_match_raw_rows(H):
    n = H.n
    edges = {tuple(sorted(row)) for row in H.triples.tolist()}
    T = H.edge_tensor()
    assert T.dtype == np.float32 and T.shape == (n, n, n)
    vertices = range(-2, n + 2)
    for a in vertices:
        for b in vertices:
            for c in vertices:
                in_range = all(0 <= x < n for x in (a, b, c))
                want = (
                    len({a, b, c}) == 3
                    and in_range
                    and tuple(sorted((a, b, c))) in edges
                )
                assert H.has_edge(a, b, c) == want, (a, b, c)
                if in_range:
                    assert T[a, b, c] == want, (a, b, c)
    for a, b, c in list(edges)[:20]:
        assert H.has_edge(np.int64(c), np.int64(a), np.int64(b))
    flat = H.nbr_flat()
    assert len(flat) == n * n
    for u in range(n):
        for v in range(n):
            want = 0
            if u != v:
                for w in range(n):
                    if tuple(sorted((u, v, w))) in edges:
                        want |= 1 << w
            assert H.nbr_mask(u, v) == want
            assert flat[u * n + v] == want
    shadow = list(H.pair_masks())
    assert [(u, v) for u, v, _ in shadow] == sorted(
        {(u, v) for u in range(n) for v in range(u + 1, n) if H.nbr_mask(u, v)}
    )
    assert all(m == H.nbr_mask(u, v) for u, v, m in shadow)


def test_pair_key_roundtrip():
    n = 9
    for u in range(n):
        for v in range(n):
            if u == v:
                continue
            key = pair_key(u, v, n)
            assert key == pair_key(v, u, n)
            assert pair_of(key, n) == (min(u, v), max(u, v))


@pytest.mark.parametrize(
    "H",
    [cons.empty(0), cons.empty(1), cons.empty(7), cons.complete(8), cons.random(13, 0.5, 2),
     cons.example1(24, 1)],
    ids=["empty0", "empty1", "empty7", "complete8", "random13", "example1"],
)
def test_pair_counts_match_the_masks(H):
    n = H.n
    T = H.edge_tensor()
    rng = np.random.Generator(np.random.PCG64(n))
    for S in (rng.random(n) < 0.5, np.ones(n, dtype=bool), rng.random((n, n)) < 0.5,
              (rng.random((n, n)) < 0.3).astype(np.int64)):
        rows = np.broadcast_to(S, (n, n))
        masks = [mask_of(np.flatnonzero(rows[u]).tolist()) for u in range(n)]
        C = pair_counts(T, S)
        assert C.dtype == np.int64 and C.shape == (n, n)
        for u in range(n):
            for v in range(n):
                assert C[u, v] == (masks[u] & H.nbr_mask(u, v)).bit_count()
        assert not np.diagonal(C).any()
        if S.ndim == 1:
            assert np.array_equal(C, C.T)
    S = np.asarray(rng.random((n, n)) < 0.5)
    assert np.array_equal(pair_counts(T, S.T), pair_counts(T, np.ascontiguousarray(S.T)))


# -- the pair index against the former dict builder ----------------------------


def _assert_pair_index_matches_reference(H):
    n = H.n
    want = [(*divmod(key, n), mask) for key, mask in pair_index_reference(H).items()]
    assert list(H.pair_masks()) == want  # in order and masks
    flat = H.nbr_flat()
    assert type(flat) is tuple and len(flat) == n * n
    assert flat is H.nbr_flat()
    assert sum(1 for m in flat if m) == 2 * len(want)
    for u, v, mask in want:
        assert flat[u * n + v] is flat[v * n + u]
    every_pair = len(want) == n * (n - 1) // 2
    assert min_codegree(H) == (min((m.bit_count() for *_, m in want), default=0) if every_pair else 0)


@pytest.mark.parametrize("H", INDEX_HOSTS)
def test_pair_index_matches_former_builder(H):
    _assert_pair_index_matches_reference(H)
    for seed in range(3):
        _assert_pair_index_matches_reference(from_triple_array(H.n, _scrambled_rows(H, seed)))


@pytest.mark.parametrize(
    "make",
    [lambda: cons.random(150, 0.85, 2), lambda: cons.hp_construction(300, 0.9, 5001)],
    ids=["random150", "hp300"],
)
def test_pair_index_matches_former_builder_at_scale(make):
    _assert_pair_index_matches_reference(make())


def test_index_fields_stay_private_to_hypercore():
    """Only ``hypercore`` reads the index's private fields; every other module
    goes through its accessors."""
    private = re.compile(r"\._(pair_nbr|deg|link_cache)\b")
    modules = sorted(Path(tightcycles.__file__).parent.glob("*.py"))
    assert len(modules) > 5
    readers = [p.name for p in modules if p.name != "hypercore.py" and private.search(p.read_text())]
    assert readers == []
