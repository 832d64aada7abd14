from itertools import combinations

import numpy as np
import pytest

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
