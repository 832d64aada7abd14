from fractions import Fraction

import pytest

from oracles import brute_ee_raw, brute_ev_raw, brute_vvv_raw, vvv_value_reference
from tightcycles import constructions as cons
from tightcycles import density as dn
from tightcycles.errors import BudgetError
from tightcycles.hypercore import Graph, PairSet, from_edges


def frac(report):
    return Fraction(*report.raw_fraction)


# -- ev ---------------------------------------------------------------------


def test_ev_empty_host():
    n = 5
    r = dn.ev_deviation(cons.empty(n), Fraction(1, 2), "exact")
    assert frac(r) == Fraction(-1, 2) * n * n * (n - 1)
    assert set(r.witness["X"]) == set(range(n))
    assert len(r.witness["P"]) == n * (n - 1)


def test_ev_complete_k4_d1():
    r = dn.ev_deviation(cons.complete(4), 1, "exact")
    assert frac(r) == -24
    assert r.exact and r.rho_hat == 24 / 64


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("d", [Fraction(1, 4), Fraction(1, 2)])
def test_ev_exact_matches_bruteforce(seed, d):
    H = cons.random(5, 0.4 + 0.1 * (seed % 3), seed)
    assert frac(dn.ev_deviation(H, d, "exact")) == brute_ev_raw(H, d)


def test_ev_budget_error():
    with pytest.raises(BudgetError):
        dn.ev_deviation(cons.empty(25), 0.5, "exact")


def test_ev_heuristic_bounded_by_exact():
    H = cons.random(10, 0.5, 7)
    ex = frac(dn.ev_deviation(H, Fraction(1, 2), "exact"))
    he = frac(dn.ev_deviation(H, Fraction(1, 2), "heuristic", seed=1))
    assert he >= ex
    assert he <= 0


def test_ev_sampled_reports_samples():
    H = cons.random(12, 0.5, 3)
    r = dn.ev_deviation(H, 0.5, "sampled", samples=2000, seed=2)
    assert r.samples >= 2000
    assert not r.exact


def test_ev_witness_recounts():
    H = cons.random(8, 0.6, 11)
    r = dn.ev_deviation(H, Fraction(1, 3), "exact")
    val = dn.ev_value(H, Fraction(1, 3), r.witness["X"], r.witness["P"])
    assert val == frac(r)


def test_ev_monotone_in_d():
    H = cons.random(7, 0.5, 5)
    rhos = [dn.ev_deviation(H, d, "exact").rho_hat for d in (0.2, 0.4, 0.6, 0.8)]
    assert rhos == sorted(rhos)


def test_vvv_and_ee_monotone_in_d():
    H = cons.random(5, 0.5, 15)
    for fn in (dn.vvv_deviation, dn.ee_deviation):
        rhos = [fn(H, d, "exact").rho_hat for d in (0.2, 0.5, 0.8)]
        assert rhos == sorted(rhos)


def test_heuristic_and_sampled_witnesses_recount():
    H = cons.random(11, 0.6, 9)
    d = Fraction(2, 5)
    for rep in (
        dn.ev_deviation(H, d, "heuristic", seed=1),
        dn.ev_deviation(H, d, "sampled", samples=500, seed=1),
    ):
        assert dn.ev_value(H, d, rep.witness["X"], rep.witness["P"]) == frac(rep)
    rep = dn.vvv_deviation(H, d, "heuristic", seed=1)
    w = rep.witness
    assert dn.vvv_value(H, d, w["X"], w["Y"], w["Z"]) == frac(rep)
    rep = dn.ee_deviation(H, d, "heuristic", seed=1, restarts=4)
    assert dn.ee_value(H, d, rep.witness["P"], rep.witness["Q"]) == frac(rep)


# -- vvv --------------------------------------------------------------------


def test_vvv_empty_host():
    n = 5
    r = dn.vvv_deviation(cons.empty(n), Fraction(1, 2), "exact")
    assert frac(r) == Fraction(-1, 2) * n**3


def test_vvv_complete_k5_d1():
    r = dn.vvv_deviation(cons.complete(5), 1, "exact")
    assert frac(r) == -(5**3 - 5 * 4 * 3)


@pytest.mark.parametrize("seed", range(4))
def test_vvv_exact_matches_bruteforce(seed):
    H = cons.random(4, 0.5, seed)
    for d in (Fraction(1, 4), Fraction(1, 2)):
        assert frac(dn.vvv_deviation(H, d, "exact")) == brute_vvv_raw(H, d)


@pytest.mark.parametrize(
    "H", [cons.example1(30, 2), cons.random(17, 0.4, 3), cons.complete(9), cons.empty(7)]
)
def test_vvv_value_matches_link_loop(H):
    """Random witnesses, with repeated vertices in X, Y and Z."""
    import numpy as np

    rng = np.random.Generator(np.random.PCG64(H.n))
    d = Fraction(3, 10)
    for _ in range(12):
        X, Y, Z = (rng.integers(H.n, size=rng.integers(0, H.n + 4)).tolist() for _ in range(3))
        assert dn.vvv_value(H, d, X, Y, Z) == vvv_value_reference(H, d, X, Y, Z)
    for bad in (-1, H.n):
        with pytest.raises(ValueError):
            dn.vvv_value(H, d, [0], [1], [bad])


def test_vvv_heuristic_bounded_by_exact():
    H = cons.random(10, 0.5, 123)
    ex = frac(dn.vvv_deviation(H, Fraction(1, 2), "exact"))
    he = frac(dn.vvv_deviation(H, Fraction(1, 2), "heuristic", seed=5))
    assert ex <= he <= 0


def test_vvv_budget_error():
    with pytest.raises(BudgetError):
        dn.vvv_deviation(cons.empty(12), 0.5, "exact")


# -- ee ---------------------------------------------------------------------


def test_ee_complete_d1_is_tight():
    r = dn.ee_deviation(cons.complete(4), 1, "exact")
    assert frac(r) == 0
    assert r.rho_hat == 0.0


def test_ee_empty_heuristic_reaches_full_pairs():
    n = 5
    r = dn.ee_deviation(cons.empty(n), Fraction(1, 2), "heuristic", seed=0)
    assert frac(r) == Fraction(-1, 2) * n * (n - 1) * (n - 2)


@pytest.mark.parametrize("seed", range(4))
def test_ee_exact_matches_bruteforce(seed):
    H = cons.random(4, 0.5, seed + 20)
    for d in (Fraction(1, 4), Fraction(1, 2)):
        assert frac(dn.ee_deviation(H, d, "exact")) == brute_ee_raw(H, d)


def test_ee_budget_error():
    with pytest.raises(BudgetError):
        dn.ee_deviation(cons.empty(13), 0.5, "exact")


def test_ee_biased_construction_strongly_negative():
    # the biased two-colouring is not uniformly dense in the strongest notion
    H = cons.hp_construction(60, 0.9, seed=1)
    r = dn.ee_deviation(H, Fraction(3, 10), "heuristic", seed=4, restarts=8)
    assert frac(r) < -3000


def test_mode_dominance_chain():
    H = cons.random(5, 0.5, 77)
    d = Fraction(1, 2)
    ex = frac(dn.ee_deviation(H, d, "exact"))
    he = frac(dn.ee_deviation(H, d, "heuristic", seed=3))
    sa = frac(dn.ee_deviation(H, d, "sampled", samples=200, seed=3))
    assert ex <= he <= 0
    assert ex <= sa <= 0


# -- hierarchy boundary (documented convention artifact) -----------------------


def test_complete_host_breaks_literal_hierarchy():
    """On complete hosts the strongest notion has zero deviation while the
    middle one is negative: the middle notion's volume term d|X||P| counts
    degenerate tuples (x inside the pair), the strongest notion's does not.
    The acceptance corpus therefore consists of non-complete instances."""
    H = cons.complete(5)
    d = Fraction(1, 5)
    assert frac(dn.ee_deviation(H, d, "exact")) == 0
    assert frac(dn.ev_deviation(H, d, "exact")) < 0


# -- regularity utilities ------------------------------------------------------


def test_restricted_degree_filter_cases():
    H = cons.complete(6)
    P = PairSet.from_ordered(
        [(y, z) for y in range(1, 6) for z in range(1, 6) if y != z]
    )
    assert dn.restricted_degree_filter(H, range(1), P, 1.0, 0.01) == set()
    E = cons.empty(6)
    assert dn.restricted_degree_filter(E, range(6), P, 0.5, 0.01) == set(range(6))
    H1 = from_edges(6, [(1, 2, 3)])
    assert 0 in dn.restricted_degree_filter(H1, {0}, P, 0.9, 0.01)


def test_partite_shadow_sizes():
    m = 4
    H = cons.complete(3 * m)
    a, b, c = range(0, m), range(m, 2 * m), range(2 * m, 3 * m)
    assert dn.partite_shadow_sizes(H, a, b, c) == (m * m, m * m)
    assert dn.partite_shadow_sizes(cons.empty(3 * m), a, b, c) == (0, 0)
    K = cons.k333()
    assert dn.partite_shadow_sizes(K, (0, 3, 6), (1, 4, 7), (2, 5, 8)) == (9, 9)
    with pytest.raises(ValueError):
        dn.partite_shadow_sizes(H, range(3), range(3, 6), range(6, 11))


def test_find_regular_pair_complete_bipartite():
    n = 24
    G = Graph(n, [(a, b) for a in range(12) for b in range(12, 24)])
    rep = dn.find_regular_pair(G, eta=0.1, d=0.4, seed=1)
    assert len(rep.V1) == len(rep.V2)
    assert not set(rep.V1) & set(rep.V2)
    assert rep.density == 1.0
    assert not rep.certified
    # the pair straddles the bipartition
    assert set(rep.V1) <= set(range(12)) or set(rep.V1) <= set(range(12, 24))


def test_find_regular_pair_complete_graph():
    n = 20
    G = Graph(n, [(a, b) for a in range(n) for b in range(a + 1, n)])
    rep = dn.find_regular_pair(G, eta=0.1, d=0.9, seed=0)
    assert rep.density == 1.0


def test_find_regular_pair_random_passes_probes():
    rng_edges = []
    import numpy as np

    rng = np.random.Generator(np.random.PCG64(5))
    n = 30
    for a in range(n):
        for b in range(a + 1, n):
            if rng.random() < 0.5:
                rng_edges.append((a, b))
    G = Graph(n, rng_edges)
    rep = dn.find_regular_pair(G, eta=0.15, d=0.3, seed=2)
    assert abs(rep.density - 0.5) < 0.2


def test_find_regular_pair_random_bipartite():
    import numpy as np

    rng = np.random.Generator(np.random.PCG64(8))
    half = 16
    edges = [
        (a, half + b)
        for a in range(half)
        for b in range(half)
        if rng.random() < 0.5
    ]
    G = Graph(2 * half, edges)
    rep = dn.find_regular_pair(G, eta=0.12, d=0.2, seed=3)
    assert len(rep.V1) == len(rep.V2) >= 4
    assert not rep.certified
    # the probe-clean pair straddles the bipartition at the cross density
    assert 0.3 <= rep.density <= 0.7


def test_find_regular_pair_precondition():
    G = Graph(10, [(0, 1)])
    with pytest.raises(ValueError):
        dn.find_regular_pair(G, eta=0.1, d=0.9)
