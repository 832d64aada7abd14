import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import dedupe_reference, link_pairs_reference
from tightcycles import constructions as cons
from tightcycles.hypercore import (
    Graph,
    PairSet,
    TightPath,
    codegree,
    degree,
    first_violation,
    from_edges,
    from_triple_array,
    min_codegree,
    min_degree,
    read_h3,
    shadow_between,
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


def test_shadow_between_complete():
    H = cons.complete(6)
    ps = shadow_between(H, {0, 1}, {2, 3})
    assert ps.ordered and len(ps) == 4


def test_shadow_between_empty_and_single_edge():
    assert len(shadow_between(from_edges(5, []), {0}, {1})) == 0
    H = from_edges(4, [(0, 1, 2)])
    assert len(shadow_between(H, {0}, {3})) == 0


def test_shadow_between_disjointness_required():
    with pytest.raises(ValueError):
        shadow_between(cons.complete(5), {0, 1}, {1, 2})


def test_shadow_symmetry():
    H = cons.random(8, 0.5, 1)
    a = shadow_between(H, {0, 1, 2}, {3, 4})
    b = shadow_between(H, {3, 4}, {0, 1, 2})
    assert {(x, y) for x, y in a.members} == {(y, x) for x, y in b.members}


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


def test_pairset_validation_and_lookup():
    with pytest.raises(ValueError):
        PairSet.from_ordered([(1, 1)])
    up = PairSet.from_unordered([(3, 1), (2, 4)])
    assert (1, 3) in up and (3, 1) in up
    op = PairSet.from_ordered([(3, 1)])
    assert (3, 1) in op and (1, 3) not in op


def test_tight_path_helpers():
    p = TightPath((4, 5, 6, 7))
    assert p.start_pair == (4, 5)
    assert p.end_pair == (6, 7)
    assert p.reversed().vertices == (7, 6, 5, 4)


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


def test_graph_helpers():
    G = Graph(5, [(0, 1), (1, 2), (3, 4)])
    assert G.has_edge(1, 0)
    assert G.edge_count() == 3
    assert G.degree(1) == 2
    assert G.count_between(0b00011, 0b00100) == 1


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
    for v in range(H.n):
        got = H.link_pairs(v)
        assert got.dtype == np.int64 and got.shape == links[v].shape
        assert np.array_equal(got, links[v])  # row for row, in edge order
        assert not got.flags.writeable
        assert degree(H, v) == len(got)
    for v in (-1, -2, H.n):
        with pytest.raises(ValueError):
            H.link_pairs(v)


@pytest.mark.parametrize("H", INDEX_HOSTS)
def test_has_edge_and_masks_match_raw_rows(H):
    n = H.n
    edges = {tuple(sorted(row)) for row in H.triples.tolist()}
    T = H.edge_tensor()
    assert T.dtype == np.int64 and T.shape == (n, n, n)
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
