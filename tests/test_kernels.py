"""The exact deviation kernels against the Gray-code walks they replaced."""

import tracemalloc
from fractions import Fraction

import pytest

from oracles import gray_ee_exact, gray_ev_exact, gray_vvv_exact, link_index_lists
from tightcycles import _pykernels, constructions as cons, density as dn

DENSITIES = [Fraction(1, 4), Fraction(3, 10), Fraction(1, 2), Fraction(1)]
HOST_P = [0.3, 0.5, 0.8]


def _hosts(n, seed):
    return [cons.random(n, hp, seed + n) for hp in HOST_P]


@pytest.mark.parametrize("n", range(3, 15))
def test_ev_matches_gray_walk(n):
    for H in _hosts(n, 500):
        T = H.edge_tensor()
        for d in DENSITIES:
            p, q = d.numerator, d.denominator
            want = gray_ev_exact(n, *link_index_lists(H), p, q)
            assert _pykernels.ev_exact(T, p, q) == want, (n, d)


@pytest.mark.parametrize("block", [1, 7, 64])
@pytest.mark.parametrize("n", [6, 9])
def test_ev_matches_gray_walk_across_blocks(monkeypatch, n, block):
    """Many small blocks: the value and the first minimum survive every
    block boundary."""
    monkeypatch.setattr(_pykernels, "BLOCK", block)
    for H in _hosts(n, 600) + [cons.complete(n), cons.empty(n)]:
        T = H.edge_tensor()
        for d in DENSITIES:
            p, q = d.numerator, d.denominator
            want = gray_ev_exact(n, *link_index_lists(H), p, q)
            assert _pykernels.ev_exact(T, p, q) == want


def test_ev_memory_is_bounded_by_the_block():
    T = cons.random(14, 0.5, 3).edge_tensor()
    tracemalloc.start()
    try:
        _pykernels.ev_exact(T, 3, 10)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # the 2^14 x 91 pair counts alone would take 12 MB
    assert peak < 2_000_000


@pytest.mark.parametrize("n", range(3, 9))
def test_vvv_matches_gray_walk(n):
    for H in _hosts(n, 700):
        T = H.edge_tensor()
        for d in DENSITIES:
            p, q = d.numerator, d.denominator
            want = gray_vvv_exact(n, *link_index_lists(H), p, q)
            assert _pykernels.vvv_exact(T, p, q) == want, (n, d)


def _ee_checked(H, d):
    """The kernel's raw value, after checking that its P mask recounts to it."""
    p, q = d.numerator, d.denominator
    raw, pmask = _pykernels.ee_exact(H.edge_tensor(), p, q)
    pairs = _pykernels.ee_pair_list(H.n)
    P = [pairs[i] for i in range(len(pairs)) if (pmask >> i) & 1]
    assert dn.ee_value(H, d, P, dn._ee_best_q(H, p, q, P)) == Fraction(raw, q)
    return raw


@pytest.mark.parametrize("n", range(0, 5))
def test_ee_matches_gray_walk(n):
    hosts = _hosts(n, 800) if n >= 3 else [cons.empty(n)]
    for H in hosts:
        for d in DENSITIES:
            p, q = d.numerator, d.denominator
            assert _ee_checked(H, d) == gray_ee_exact(n, H.nbr_flat(), p, q)[0]


# At n <= 4 an ee sum that skips the z outside S reaches the same minimum on
# every host tried; on random(5, 0.1, 0) it does not.
@pytest.mark.parametrize("hp, seed", [(0.1, 0), (0.5, 901)])
def test_ee_matches_gray_walk_at_n5(hp, seed):
    H = cons.random(5, hp, seed)
    d = Fraction(3, 10)
    want = gray_ee_exact(5, H.nbr_flat(), d.numerator, d.denominator)[0]
    assert _ee_checked(H, d) == want


@pytest.mark.parametrize(
    "d", [Fraction(10**18 + 9, 4 * 10**18 + 1), Fraction(10**29 + 7, 4 * 10**29)]
)
def test_huge_denominator_stays_exact(d):
    """q * count wraps int64 silently for the first density and q itself
    leaves int64 for the second; the kernels switch to Python integers and
    still agree with the Gray walks."""
    p, q = d.numerator, d.denominator
    H = cons.random(6, 0.5, 11)
    T = H.edge_tensor()
    assert _pykernels.ev_exact(T, p, q) == gray_ev_exact(6, *link_index_lists(H), p, q)
    assert _pykernels.vvv_exact(T, p, q) == gray_vvv_exact(6, *link_index_lists(H), p, q)
    H = cons.random(4, 0.5, 12)
    assert _ee_checked(H, d) == gray_ee_exact(4, H.nbr_flat(), p, q)[0]

