"""The exact deviation kernels against the Gray-code walks they replaced."""

import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from oracles import (
    ee_pair_list,
    gray_ee_exact,
    gray_ev_exact,
    gray_vvv_exact,
    link_lists,
)
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
            want = gray_ev_exact(n, *link_lists(H), p, q)
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
            want = gray_ev_exact(n, *link_lists(H), p, q)
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
            want = gray_vvv_exact(n, *link_lists(H), p, q)
            assert _pykernels.vvv_exact(T, p, q) == want, (n, d)


def test_float32_products_are_exact_up_to_2_to_the_24():
    """The counting rule: a float32 product of non-negative integer arrays
    whose every sum is at most 2^24 equals the int64 product."""
    rng = np.random.Generator(np.random.PCG64(24))
    a = rng.integers(0, 2, size=(5, 300, 40))
    b = rng.integers(0, 2, size=(40, 7))
    assert np.array_equal(_pykernels.int_matmul(a, b), a @ b)
    a = rng.integers(0, 4097, size=(6, 4096))
    a[0] = 4096  # this row's sums reach 2^24 exactly
    b = rng.integers(0, 2, size=(4096, 3))
    b[:, 0] = 1
    got = _pykernels.int_matmul(a, b)
    assert got.dtype == np.int64 and got[0, 0] == 2**24
    assert np.array_equal(got, a @ b)
    out = np.empty((6, 3), dtype=np.int64)
    assert _pykernels.int_matmul(a, b, out=out) is out
    assert np.array_equal(out, a @ b)


def _ee_checked(H, d):
    """The kernel's raw value, after checking that its P mask recounts to it."""
    p, q = d.numerator, d.denominator
    T = H.edge_tensor()
    raw, pmask = _pykernels.ee_exact(T, p, q)
    pairs = ee_pair_list(H.n)
    flags = [(pmask >> i) & 1 for i in range(len(pairs))]
    P = [pr for pr, f in zip(pairs, flags) if f]
    best_q = dn._pairs(dn._ee_best(T, p, q, dn._offdiag(H.n, flags).T))
    assert dn.ee_value(H, d, P, best_q) == Fraction(raw, q)
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


def _best_responses_recount(H, d, rep):
    """Each best response in a report equals the one that single-element
    recounts pick: ev's P and vvv's Z against the rest of the witness, ee's P
    against Q (and Q against P in exact mode, where Q is a best response)."""
    w = rep.witness
    ordered = [(u, v) for u in range(H.n) for v in range(H.n) if u != v]
    if rep.notion == "ev":
        assert dn.ev_value(H, d, w["X"], w["P"]) == Fraction(*rep.raw_fraction)
        assert w["P"] == [uv for uv in ordered if dn.ev_value(H, d, w["X"], [uv]) < 0]
    elif rep.notion == "vvv":
        assert dn.vvv_value(H, d, w["X"], w["Y"], w["Z"]) == Fraction(*rep.raw_fraction)
        zs = [z for z in range(H.n) if dn.vvv_value(H, d, w["X"], w["Y"], [z]) < 0]
        assert w["Z"] == zs
    else:
        assert dn.ee_value(H, d, w["P"], w["Q"]) == Fraction(*rep.raw_fraction)
        assert w["P"] == [uv for uv in ordered if dn.ee_value(H, d, [uv], w["Q"]) < 0]
        if rep.exact:
            assert w["Q"] == [uv for uv in ordered if dn.ee_value(H, d, w["P"], [uv]) < 0]


@pytest.mark.parametrize(
    "d",
    [
        Fraction(10**18 + 9, 4 * 10**18 + 1),
        Fraction(10**29 + 7, 4 * 10**29),
        Fraction(1, 3 * 10**18 + 1),
    ],
)
def test_huge_denominator_stays_exact(d):
    """q * count wraps int64 silently for the first and third densities and
    q itself leaves int64 for the second; the kernels, the witnesses and the
    searches all switch to Python integers.  Each exact report equals the
    Gray walk's minimum, and every best response recounts."""
    p, q = d.numerator, d.denominator
    H = cons.random(6, 0.5, 11)
    T = H.edge_tensor()
    assert _pykernels.ev_exact(T, p, q) == gray_ev_exact(6, *link_lists(H), p, q)
    assert _pykernels.vvv_exact(T, p, q) == gray_vvv_exact(6, *link_lists(H), p, q)
    H = cons.random(4, 0.5, 12)
    assert _ee_checked(H, d) == gray_ee_exact(4, H.nbr_flat(), p, q)[0]
    for s in (11, 12, 13):
        H = cons.random(7, 0.5, s)
        for notion, gray in (("ev", gray_ev_exact), ("vvv", gray_vvv_exact)):
            rep = getattr(dn, f"{notion}_deviation")(H, d, "exact")
            assert Fraction(*rep.raw_fraction) == Fraction(gray(7, *link_lists(H), p, q)[0], q)
            _best_responses_recount(H, d, rep)
        H4 = cons.random(4, 0.5, s)
        rep = dn.ee_deviation(H4, d, "exact")
        assert Fraction(*rep.raw_fraction) == Fraction(gray_ee_exact(4, H4.nbr_flat(), p, q)[0], q)
        _best_responses_recount(H4, d, rep)
        for notion in ("ev", "vvv", "ee"):
            search = getattr(dn, f"{notion}_deviation")
            _best_responses_recount(H, d, search(H, d, "heuristic", seed=s, restarts=4))
            _best_responses_recount(H, d, search(H, d, "sampled", samples=300, seed=s))
