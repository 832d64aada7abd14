from itertools import combinations, product

import numpy as np
import pytest

from oracles import biased_colouring_reference
from tightcycles import constructions as cons
from tightcycles.hypercore import codegree, from_triple_array, verify_tight_path


def test_generators_deterministic():
    for fam, kwargs in [
        ("random", dict(n=10, p=0.5, seed=3)),
        ("example1", dict(n=12, seed=3)),
        ("hp", dict(n=12, p=0.7, seed=3)),
    ]:
        a = cons.generate(cons.GenSpec(fam, **kwargs))
        b = cons.generate(cons.GenSpec(fam, **kwargs))
        assert a == b


@pytest.mark.parametrize("xy", [False, True])
def test_generate_hp_forwards_include_xy_edges(xy):
    spec = cons.GenSpec("hp", n=12, p=0.5, seed=9, include_xy_edges=xy)
    want = cons.hp_construction(12, 0.5, 9, include_xy_edges=xy)
    assert cons.generate(spec) == want
    assert want.m == (88 if xy else 78)


def test_random_extremes():
    assert cons.random(6, 1.0, 0) == cons.complete(6)
    assert cons.random(6, 0.0, 0).m == 0


@pytest.mark.parametrize("n", list(range(13)) + [60])
def test_triples_match_combinations(n):
    want = np.array(list(combinations(range(n), 3)), dtype=np.int64).reshape(-1, 3)
    got = cons._triples(n)
    assert got.dtype == np.int64 and got.shape == want.shape
    assert np.array_equal(got, want)


def test_random_hosts_unchanged_by_triple_enumeration():
    """The same triples in the same order, so the same draws keep each edge."""
    for n in (3, 4, 7, 12, 25):
        for p in (0.0, 0.3, 0.85, 1.0):
            for seed in (0, 7, 123):
                arr = np.array(list(combinations(range(n), 3)), dtype=np.int64)
                keep = np.random.Generator(np.random.PCG64(seed)).random(len(arr)) < p
                want = from_triple_array(n, arr[keep])
                assert np.array_equal(cons.random(n, p, seed).triples, want.triples)


def test_example1_apex_codegree():
    H = cons.example1(14, 5)
    assert codegree(H, 12, 13) == 0
    Hx = cons.example1(14, 5, include_xy_edges=True)
    assert codegree(Hx, 12, 13) == 12


def test_example1_links_are_colour_classes():
    H = cons.example1(10, 2)
    x, y = 8, 9
    red = {tuple(p) for p in H.link_pairs(x).tolist()}
    blue = {tuple(p) for p in H.link_pairs(y).tolist()}
    assert not red & blue
    assert len(red) + len(blue) == 8 * 7 // 2


def test_hp_half_matches_example1():
    a = cons.hp_construction(12, 0.5, seed=9, include_xy_edges=False)
    b = cons.example1(12, seed=9)
    assert a == b


def test_hp_rejects_bad_p():
    with pytest.raises(ValueError):
        cons.hp_construction(12, 1.5, 0)


def test_tight_cycle_minimum():
    with pytest.raises(ValueError):
        cons.tight_cycle(4)


def test_k333_gadget_paths():
    K = cons.k333()
    assert K.n == 9 and K.m == 27
    assert verify_tight_path(K, cons.k333_base_ordering())
    assert verify_tight_path(K, cons.k333_skip_ordering())
    base = cons.k333_base_ordering()
    skip = cons.k333_skip_ordering()
    assert base[:2] == skip[:2] and base[-2:] == skip[-2:]


def test_c8_blowup_paths():
    B = cons.c8_blowup(4)
    assert B.n == 32 and B.m == 8 * 64
    full = cons.c8_blowup_ordering(4)
    assert verify_tight_path(B, full)
    for drops, size in (((1,), 24), ((1, 2), 16)):
        seq = cons.c8_blowup_ordering(4, drops)
        assert len(seq) == size
        assert verify_tight_path(B, seq)
        assert seq[:2] == full[:2] and seq[-2:] == full[-2:]


def test_blowup_single_edge():
    from tightcycles.hypercore import from_edges

    B = cons.blowup(from_edges(3, [(0, 1, 2)]), 2)
    assert B.n == 6 and B.m == 8
    # no edges inside clone classes
    for a, b, c in B.edges():
        assert len({a // 2, b // 2, c // 2}) == 3


def test_blowup_of_small_cycle_regression():
    # recorded fixture: the 2-blow-up of the tight 5-cycle stays Hamiltonian
    from tightcycles.oracle import has_tight_hamilton

    B = cons.blowup(cons.tight_cycle(5), 2)
    assert B.n == 10
    assert has_tight_hamilton(B)


def test_genspec_validation():
    with pytest.raises(ValueError):
        cons.GenSpec("nope", n=5)
    with pytest.raises(ValueError):
        cons.GenSpec("random", n=5, p=1.5)


@pytest.mark.parametrize("n", [5, 6, 7, 12, 30, 61, 120])
def test_biased_colouring_matches_reference(n):
    """The per-vertex block test keeps every host of the per-pair builder."""
    for p in (0.0, 0.3, 0.5, 0.6, 2 / 3, 0.9, 1.0):
        for seed in (0, 1, 4000):
            for xy in (False, True):
                got = cons._biased_colouring(n, p, seed, xy).triples
                want = biased_colouring_reference(n, p, seed, xy).triples
                assert got.dtype == want.dtype and got.shape == want.shape
                assert got.tobytes() == want.tobytes(), (n, p, seed, xy)


@pytest.mark.parametrize("xy", [False, True])
def test_biased_colouring_from_definition(xy):
    """Rebuild the construction from its definition: the colour pairs take
    the draws in lexicographic order, red when the draw is below p."""
    for n, p, seed in ((5, 0.5, 0), (9, 0.5, 3), (14, 0.3, 1), (14, 0.8, 7)):
        g = n - 2
        x, y = n - 2, n - 1
        pairs = list(combinations(range(g), 2))
        draws = np.random.Generator(np.random.PCG64(seed)).random(len(pairs))
        red = {pr for pr, r in zip(pairs, draws) if r < p}
        want = {t for t in combinations(range(g), 3)
                if len({pr in red for pr in combinations(t, 2)}) == 1}
        want |= {(a, b, x) for a, b in red}
        want |= {(a, b, y) for a, b in pairs if (a, b) not in red}
        if xy:
            want |= {(v, x, y) for v in range(g)}
        H = cons._biased_colouring(n, p, seed, xy)
        assert set(H.edges()) == want and H.m == len(want)


def _transversal_definition(edges, t, clone):
    """Every transversal triple of every edge, clone(v, j) naming the j-th
    clone of v."""
    return {
        tuple(sorted((clone(a, i), clone(b, j), clone(c, k))))
        for a, b, c in edges
        for i, j, k in product(range(t), repeat=3)
    }


def _assert_edges(H, n, want):
    assert H.n == n and H.m == len(want) and set(H.edges()) == want


@pytest.mark.parametrize("t", [1, 2, 3])
def test_blowup_from_definition(t):
    for host in (cons.tight_cycle(5), cons.random(7, 0.5, 1), cons.empty(4)):
        want = _transversal_definition(host.edges(), t, lambda v, j: v * t + j)
        _assert_edges(cons.blowup(host, t), host.n * t, want)


def test_k333_from_definition():
    want = _transversal_definition([(0, 1, 2)], 3, lambda v, j: v + 3 * j)
    _assert_edges(cons.k333(), 9, want)


@pytest.mark.parametrize("t", [1, 2, 3, 4, 5])
def test_c8_blowup_from_definition(t):
    cycle = [(i, (i + 1) % 8, (i + 2) % 8) for i in range(8)]
    want = _transversal_definition(cycle, t, lambda v, j: v + 8 * j)
    _assert_edges(cons.c8_blowup(t), 8 * t, want)


def test_every_generator_builds_the_index_once(monkeypatch):
    """perfbench times the index build by wrapping ``from_triple_array``, so
    each generator must build its host through exactly one call to it."""
    host = cons.tight_cycle(7)
    calls = []
    real = cons.from_triple_array

    def counting(n, arr):
        calls.append(n)
        return real(n, arr)

    monkeypatch.setattr(cons, "from_triple_array", counting)
    builds = [
        lambda fam=fam: cons.generate(cons.GenSpec(fam, n=14, t=2))
        for fam in cons.FAMILIES
        if fam != "blowup"
    ]
    builds += [
        lambda: cons.random(2, 0.5, 0),
        lambda: cons.complete(2),
        lambda: cons.empty(4),
        lambda: cons.blowup(host, 2),
    ]
    for build in builds:
        calls.clear()
        build()
        assert len(calls) == 1
