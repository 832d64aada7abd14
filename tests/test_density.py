import math
from fractions import Fraction

import numpy as np
import pytest

import oracles
from oracles import brute_ee_raw, brute_ev_raw, brute_vvv_raw, vvv_value_reference
from tightcycles import constructions as cons
from tightcycles import density as dn
from tightcycles.errors import BudgetError


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


# -- the searches against the helpers they replaced ----------------------------


def _ee_best_q_reference(H, p, q, S):
    """Exact ee's best-Q call, answered by the former ``_ee_best_q``."""
    M = np.zeros((H.n, H.n), dtype=bool)
    for y, z in oracles._ee_best_q(H, p, q, dn._pairs(np.asarray(S).T)):
        M[y, z] = True
    return M


def _reference_report(monkeypatch, notion, *args, **kwargs) -> dict:
    """The report with every count taken by the former helpers, which read
    the host ``args[0]`` where the searches read its edge tensor."""
    H = args[0]
    with monkeypatch.context() as m:
        m.setattr(dn, "_ev_search", lambda T, *a, **k: oracles._ev_search(H, *a, **k))
        m.setattr(dn, "_ev_witness", lambda T, *a: oracles._ev_witness_from_mask(H, *a))
        m.setattr(dn, "_vvv_margins", lambda T, *a: oracles._vvv_margins(H, *a))
        m.setattr(dn, "_ee_alternating", lambda T, *a: oracles._ee_alternating(H, *a))
        m.setattr(dn, "_ee_best", lambda T, *a: _ee_best_q_reference(H, *a))
        return getattr(dn, f"{notion}_deviation")(*args, **kwargs).to_dict()


@pytest.mark.parametrize(
    "H",
    [
        cons.empty(6),
        cons.complete(7),
        cons.random(3, 0.7, 2),
        cons.random(4, 0.5, 1),
        cons.random(12, 0.5, 3),
        cons.random(20, 0.6, 4),
        cons.example1(30, 2),
        cons.hp_construction(24, 0.9, 1),
    ],
    ids=["empty6", "complete7", "random3", "random4", "random12", "random20", "example1", "hp24"],
)
def test_searches_match_the_former_helpers(monkeypatch, H):
    for d in (Fraction(1, 4), Fraction(3, 10), Fraction(1, 2)):
        for notion in ("ev", "vvv", "ee"):
            for mode, kw in (("heuristic", {"restarts": 6}), ("sampled", {"samples": 300})):
                args = (H, d, mode)
                kw = dict(kw, seed=H.n)
                got = getattr(dn, f"{notion}_deviation")(*args, **kw).to_dict()
                assert got == _reference_report(monkeypatch, notion, *args, **kw)


@pytest.mark.parametrize("n", range(5))
def test_searches_match_the_former_helpers_on_tiny_hosts(monkeypatch, n):
    hosts = [cons.empty(n), cons.complete(n)] + ([cons.random(4, 0.6, 9)] if n == 4 else [])
    for H in hosts:
        for notion in ("ev", "vvv", "ee"):
            for mode in ("exact", "heuristic", "sampled"):
                args, kw = (H, Fraction(3, 10), mode), {"samples": 100, "seed": 3}
                got = getattr(dn, f"{notion}_deviation")(*args, **kw).to_dict()
                assert got == _reference_report(monkeypatch, notion, *args, **kw)


# 3/10 and the huge-denominator densities of test_kernels.py, where the
# margins and the restart scores are Python integers
SCORE_DENSITIES = [
    Fraction(3, 10),
    Fraction(10**18 + 9, 4 * 10**18 + 1),
    Fraction(10**29 + 7, 4 * 10**29),
    Fraction(1, 3 * 10**18 + 1),
]


@pytest.mark.parametrize(
    "H",
    [cons.empty(6), cons.complete(7), cons.random(12, 0.5, 3), cons.example1(30, 2),
     cons.hp_construction(24, 0.9, 1)],
    ids=["empty6", "complete7", "random12", "example1", "hp24"],
)
def test_restart_scores_equal_the_recounts(H):
    """Each restart's score, summed from the margins its last best response
    computed, is q times the independent recount of its witness, on full and
    on cut-short descents."""
    n = H.n
    T = H.edge_tensor()
    rng = np.random.Generator(np.random.PCG64(n))
    for d in SCORE_DENSITIES:
        p, q = d.numerator, d.denominator
        for start in range(4):
            xb, yb = (np.ones(n, dtype=bool) if start == 0 else rng.random(n) < 0.5 for _ in "xy")
            Pm = dn._offdiag(n, True if start == 0 else rng.random(n * (n - 1)) < 0.5)
            for left in (math.inf, 3, 1):
                x2, y2, used, score = dn._vvv_descend(T, p, q, xb, yb, left)
                assert used < left + 3  # the budget is checked once a round
                want = dn.vvv_value(H, d, *dn._vvv_witness(T, p, q, x2, y2))
                assert Fraction(int(score), q) == want
                P2, Q2, used, score = dn._ee_descend(T, p, q, Pm, left)
                assert used < left + 2
                want = dn.ee_value(H, d, dn._pairs(P2), dn._pairs(Q2))
                assert Fraction(int(score), q) == want


@pytest.mark.parametrize("notion", ["ev", "vvv", "ee"])
def test_search_budgets_that_run_nothing_are_refused(notion):
    """A heuristic search needs a restart and a sampled one a proposal too;
    without them it would report no violation at all.  Exact mode runs no
    search and ignores both."""
    H = cons.example1(24, 1)
    search = getattr(dn, f"{notion}_deviation")
    for kw in ({"restarts": 0}, {"restarts": -3}):
        with pytest.raises(ValueError, match="restarts"):
            search(H, Fraction(3, 10), "heuristic", **kw)
        with pytest.raises(ValueError, match="restarts"):
            search(H, Fraction(3, 10), "sampled", samples=50, **kw)
    for samples in (0, -5):
        with pytest.raises(ValueError, match="samples"):
            search(H, Fraction(3, 10), "sampled", samples=samples)
    assert search(H, Fraction(3, 10), "heuristic", restarts=1).rho_hat > 0
    assert search(H, Fraction(3, 10), "sampled", samples=1, restarts=1).samples >= 1
    small = cons.random(5, 0.5, 1)
    assert search(small, Fraction(3, 10), "exact", samples=0, restarts=0).exact


# -- recounts ----------------------------------------------------------------


@pytest.mark.parametrize(
    "recount, args",
    [
        (dn.ev_value, ([0, 99], [(1, 2)])),
        (dn.ev_value, ([0], [(1, 99)])),
        (dn.ev_value, ([-1], [(1, 2)])),
        (dn.vvv_value, ([0, 99], [1], [2])),
        (dn.vvv_value, ([0], [-1], [2])),
        (dn.vvv_value, ([0], [1, 6], [2])),
        (dn.ee_value, ([(0, 99)], [(1, 2)])),
        (dn.ee_value, ([(0, 1)], [(-1, 2)])),
    ],
)
def test_recounts_reject_out_of_range_witnesses(recount, args):
    with pytest.raises(ValueError):
        recount(cons.complete(6), Fraction(1, 2), *args)


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
