import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    connectable_pairs,
    count_cherries_reference,
    grow_blowup_reference,
    masks_to_hypergraph,
    naive_cherry_count,
    naive_embedding_count,
    naive_k4minus_count,
)
from tightcycles import constructions as cons
from tightcycles import hamilton as ham
from tightcycles import motifs as mt
from tightcycles import oracle as orc
from tightcycles.errors import BudgetError
from tightcycles.hypercore import (
    bits,
    codegree,
    from_edges,
    mask_of,
    verify_tight_cycle,
    verify_tight_path,
)


# -- cleaning -------------------------------------------------------------------


def clean(H, beta):
    """The subhypergraph that ``motifs._cleaned_masks`` leaves at threshold
    beta*n: every pair has codegree 0 or at least beta*n."""
    return masks_to_hypergraph(H.n, mt._cleaned_masks(H, beta * H.n))


def test_clean_complete_unchanged():
    n = 8
    H = cons.complete(n)
    assert clean(H, (n - 2) / n - 1e-9) == H


def test_clean_single_edge_to_empty():
    H = from_edges(4, [(0, 1, 2)])
    assert clean(H, 0.3).m == 0  # threshold 1.2 kills the codegree-1 pairs


def test_clean_tight_cycle_collapses():
    # every pair in the 9-cycle has codegree at most 2
    H = cons.tight_cycle(9)
    assert all(codegree(H, u, v) <= 2 for u in range(9) for v in range(u + 1, 9))
    assert clean(H, 0.25).m == 0


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 1000), beta=st.sampled_from([0.15, 0.2, 0.3]))
def test_clean_idempotent_and_thresholds(seed, beta):
    H = cons.random(10, 0.45, seed)
    C = clean(H, beta)
    assert clean(C, beta) == C
    thr = beta * H.n
    for u in range(10):
        for v in range(u + 1, 10):
            c = codegree(C, u, v)
            assert c == 0 or c >= thr


# -- connectable pairs --------------------------------------------------------------


def test_connectable_complete():
    n = 8
    cp = connectable_pairs(cons.complete(n), (n - 2) / n - 1e-9)
    assert len(cp) == n * (n - 1)


def test_connectable_empty():
    assert len(connectable_pairs(cons.empty(6), 0.3)) == 0


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 500))
def test_cleaned_pairs_are_connectable(seed):
    beta = 0.2
    H = cons.random(11, 0.5, seed)
    C = clean(H, beta)
    cp = connectable_pairs(H, beta)
    for u, v, _ in C.pair_masks():
        assert (u, v) in cp and (v, u) in cp


def test_connectable_is_asymmetric_in_general():
    # x sees y's well-connected side but not vice versa
    edges = [(0, 1, v) for v in (2, 3, 4)]
    edges += [(1, v, w) for v in (2, 3, 4) for w in (5, 6) ]
    H = from_edges(8, edges)
    beta = 2 / 8
    assert mt.is_connectable(H, 0, 1, beta)
    assert not mt.is_connectable(H, 1, 0, beta)


@pytest.mark.parametrize(
    "H",
    [cons.empty(12), cons.complete(12), cons.example1(16, seed=1)]
    + [cons.random(n, p, n) for n, p in ((14, 0.3), (18, 0.6), (24, 0.85))],
    ids=["empty", "complete", "example1", "random14", "random18", "random24"],
)
@pytest.mark.parametrize("beta", [0.05, 0.2, 0.45])
def test_is_connectable_matches_connectable_pairs(H, beta):
    cp = connectable_pairs(H, beta)
    for x in range(H.n):
        for y in range(H.n):
            if x != y:
                assert mt.is_connectable(H, x, y, beta) == ((x, y) in cp)


# -- apex-rooted motif ------------------------------------------------------------


def test_k4minus_fixed_counts():
    assert mt.count_k4minus(cons.complete(4)).count == 4
    assert mt.count_k4minus(cons.complete(5)).count == 20
    assert mt.count_k4minus(cons.empty(5)).count == 0


@pytest.mark.parametrize("seed", range(5))
def test_k4minus_matches_naive(seed):
    H = cons.random(7, 0.6, seed + 40)
    assert mt.count_k4minus(H).count == naive_k4minus_count(H)


def test_k4minus_cap():
    rep = mt.count_k4minus(cons.complete(9), cap=5)
    assert rep.cap_hit and not rep.exact and rep.count > 5


def test_searches_that_run_nothing_are_refused():
    # with no sample, try or node to spend, "not found" would read as
    # "searched but absent"
    H = cons.complete(12)
    calls = {
        "samples": [
            lambda v: mt.sample_k4minus(H, samples=v, seed=0),
            lambda v: mt.find_turns(H, samples=v, seed=0),
        ],
        "tries": [lambda v: mt.find_k333(H, tries=v)],
        "budget": [
            lambda v: mt.find_c8(H, budget=v),
            lambda v: mt.find_c8_blowup(H, budget=v, t=1),
        ],
    }
    for name, fns in calls.items():
        for fn in fns:
            for v in (0, -3):
                with pytest.raises(ValueError, match=name):
                    fn(v)
    assert mt.sample_k4minus(H, samples=1, seed=0).count >= 0
    assert mt.find_turns(H, samples=1, seed=0)
    assert mt.find_k333(H, tries=1) is not None
    assert mt.find_c8(H, budget=8) is not None
    assert mt.find_c8_blowup(H, budget=1, t=1) is not None


def test_k4minus_sampling_tracks_exact():
    H = cons.random(10, 0.7, 2)
    exact = mt.count_k4minus(H)
    est = mt.sample_k4minus(H, samples=60000, seed=3)
    assert not est.exact
    # sampled density lands near the apex/unordered-base density
    assert abs(est.normalized - exact.normalized) < 0.01


# -- cherries ---------------------------------------------------------------------


def test_cherries_k5_120():
    assert mt.count_cherries(cons.complete(5)).count == 120


def test_cherries_trivial_cases():
    assert mt.count_cherries(cons.empty(5)).count == 0
    single = from_edges(5, [(0, 1, 2)])
    assert mt.count_cherries(single).count == 0


@pytest.mark.parametrize("seed", range(5))
def test_cherries_match_naive(seed):
    n = 8 + seed
    H = cons.random(n, 0.5, seed + 90)
    assert mt.count_cherries(H).count == naive_cherry_count(H)


@pytest.mark.parametrize(
    "H",
    [cons.empty(6), cons.complete(9), cons.tight_cycle(10), cons.example1(14, seed=2)]
    + [cons.random(n, p, n) for n, p in ((10, 0.4), (13, 0.7), (20, 0.5))],
    ids=["empty", "complete", "tight_cycle", "example1", "random10", "random13", "random20"],
)
@pytest.mark.parametrize("cap", [None, 0, 10, 1000, 10**9])
def test_cherries_match_pair_set_loop(H, cap):
    # the codegree count equals the former loop over all pairs as P and Q,
    # count and cap_hit alike, whether or not the cap stops it
    rep = mt.count_cherries(H, cap=cap)
    ps = [(a, b) for a in range(H.n) for b in range(a + 1, H.n)]
    assert (rep.count, rep.cap_hit) == count_cherries_reference(H, ps, ps, cap)
    assert rep.exact == (not rep.cap_hit)


# -- turns -------------------------------------------------------------------------


def test_turn_on_complete_and_empty():
    t = mt.Turn(0, 1, 2, 3, 4, 5, 6)
    assert mt.is_turn(cons.complete(7), t)
    assert not mt.is_turn(cons.empty(7), t)
    assert not mt.is_turn(cons.complete(7), mt.Turn(0, 0, 2, 3, 4, 5, 6))


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 300))
def test_turn_orderings_verify(seed):
    H = cons.random(11, 0.75, seed)
    for t in mt.find_turns(H, samples=300, seed=seed)[:20]:
        for seq in mt.turn_connecting_orderings(t):
            assert verify_tight_path(H, seq)


def test_turn_orderings_cover_all_orientations():
    t = mt.Turn(0, 1, 2, 3, 4, 5, 6)
    seqs = mt.turn_connecting_orderings(t)
    starts = {tuple(s[:2]) for s in seqs}
    ends = {tuple(s[-2:]) for s in seqs}
    assert starts == {(0, 3), (3, 0)}
    assert ends == {(1, 4), (4, 1)}


def turnable_table(H, q, q_prime):
    """For each of the four orientation combinations of two pairs, the tight
    path ``connect`` finds between them with 1..3 inner vertices, or None."""
    return {
        (s, e): ham.connect(H, s, e, range(H.n), max_inner=3, budget=20000)
        for s in (q, q[::-1])
        for e in (q_prime, q_prime[::-1])
    }


def test_turnable_on_complete():
    table = turnable_table(cons.complete(9), (0, 1), (2, 3))
    assert len(table) == 4
    assert all(p is not None and len(p) == 5 for p in table.values())


def test_turnable_cross_class_absent():
    H = cons.example1(10, 4)
    red = tuple(H.link_pairs(8).tolist()[0])
    blue = next(
        tuple(p) for p in H.link_pairs(9).tolist() if not set(p) & set(red)
    )
    table = turnable_table(H, red, blue)
    assert all(p is None for p in table.values())


def test_turnable_empty_and_overlap():
    assert all(
        p is None for p in turnable_table(cons.empty(6), (0, 1), (2, 3)).values()
    )
    with pytest.raises(ValueError):
        turnable_table(cons.complete(6), (0, 1), (1, 2))


def test_turnable_matches_exact_path_count():
    # an entry is a path exactly when the oracle counts one with 1..3 inners
    rng = np.random.Generator(np.random.PCG64(17))
    outcomes = set()
    for i in range(40):
        n = int(rng.integers(7, 13))
        H = cons.random(n, (0.3, 0.5, 0.7)[i % 3], 1000 + i)
        a, b, c, d = (int(v) for v in rng.choice(n, size=4, replace=False))
        for (s, e), path in turnable_table(H, (a, b), (c, d)).items():
            exists = any(orc.count_paths_between(H, s, e, l) > 0 for l in (1, 2, 3))
            assert (path is not None) == exists, (i, s, e)
            if path is not None:
                assert path.start_pair == s and path.end_pair == e
                assert 5 <= len(path) <= 7 and verify_tight_path(H, path.vertices)
            outcomes.add(exists)
    assert outcomes == {True, False}


# -- embeddings ----------------------------------------------------------------------


def test_embeddings_fixed_counts():
    edge = from_edges(3, [(0, 1, 2)])
    assert mt.count_embeddings(edge, cons.complete(4)).count == 24
    c8 = cons.c8()
    assert mt.count_embeddings(c8, c8).count == 16
    assert mt.count_embeddings(edge, cons.empty(5)).count == 0
    assert mt.count_embeddings(edge, cons.empty(5), "homomorphic").count == 0


@pytest.mark.parametrize("seed", range(3))
def test_embeddings_match_naive(seed):
    F = cons.random(4, 0.5, seed + 400)
    H = cons.random(6, 0.6, seed + 500)
    assert mt.count_embeddings(F, H).count == naive_embedding_count(F, H)
    assert mt.count_embeddings(F, H, "homomorphic").count == naive_embedding_count(
        F, H, injective=False
    )


def test_embeddings_budget_and_cap():
    with pytest.raises(BudgetError):
        mt.count_embeddings(cons.complete(11), cons.complete(12))
    rep = mt.count_embeddings(from_edges(3, [(0, 1, 2)]), cons.complete(8), cap=10)
    assert rep.cap_hit


# -- 3-partite gadget -----------------------------------------------------------------


def test_find_k333_canonical_and_complete():
    found = mt.find_k333(cons.complete(9), tries=50, seed=1)
    assert found is not None
    o1, o2 = mt.k333_path_orderings(found)
    assert verify_tight_path(cons.complete(9), o1)
    assert verify_tight_path(cons.complete(9), o2)
    K = cons.k333()
    got = mt.find_k333(K, tries=400, seed=0)
    assert got is not None


def test_find_k333_respects_avoid():
    assert mt.find_k333(cons.complete(12), avoid=range(4), tries=60, seed=0) is None
    found = mt.find_k333(cons.complete(18), avoid=range(4), tries=200, seed=0)
    assert found is not None and not set(found) & set(range(4))


def test_find_k333_on_dense_random():
    H = cons.random(40, 0.8, 17)
    found = mt.find_k333(H, tries=600, seed=4)
    assert found is not None
    o1, o2 = mt.k333_path_orderings(found)
    assert verify_tight_path(H, o1) and verify_tight_path(H, o2)


# -- 8-cycle and blow-up ----------------------------------------------------------------


def test_find_c8_cases():
    got = mt.find_c8(cons.random(12, 0.8, 1))
    assert got is not None and verify_tight_cycle(cons.random(12, 0.8, 1), got.vertices)
    assert mt.find_c8(cons.empty(10)) is None
    assert mt.find_c8(cons.tight_cycle(8)) is not None


def test_find_c8_blowup_canonical():
    B = cons.c8_blowup(4)
    classes = mt.find_c8_blowup(B, seed=0)
    assert classes is not None
    for drops in ((), (1,), (1, 2)):
        assert verify_tight_path(B, mt.blowup_path_ordering(classes, drops))


def test_find_c8_blowup_complete_and_small():
    classes = mt.find_c8_blowup(cons.complete(40), seed=0)
    assert classes is not None
    assert len({v for c in classes for v in c}) == 32
    assert mt.find_c8_blowup(cons.complete(20)) is None
    # too sparse: absent within budget
    assert mt.find_c8_blowup(cons.random(34, 0.5, 0), budget=20000) is None


def test_find_c8_blowup_respects_avoid():
    classes = mt.find_c8_blowup(cons.complete(40), seed=3, avoid=range(6))
    assert classes is not None
    assert not {v for c in classes for v in c} & set(range(6))


GROW_HOSTS = {
    "c8_blowup": lambda: cons.c8_blowup(4),
    "complete40": lambda: cons.complete(40),
    "dense40": lambda: cons.random(40, 0.95, 1),
    "dense60": lambda: cons.random(60, 0.9, 3),
    "sparse60": lambda: cons.random(60, 0.7, 0),
}


def _grow_seed_classes(H, avoid_mask):
    """The seeds find_c8_blowup grows: a tight 8-cycle, and the double-apex
    gadget, whose last two classes start empty."""
    out = []
    c8 = mt.find_c8(H, budget=15000, avoid=bits(avoid_mask))
    if c8 is not None:
        out.append([[v] for v in c8.vertices])
    gadget = mt._find_double_apex_gadget(H, 0, avoid_mask=avoid_mask)
    if gadget is not None:
        out.append([[v] for v in gadget] + [[], []])
    return out


def _grow_both(H, classes, budget, avoid_mask=0, seed=0):
    """Run the grower and the reference from identically seeded generators;
    equal final generator states pin the draws node for node."""
    rng = np.random.Generator(np.random.PCG64(seed))
    ref_rng = np.random.Generator(np.random.PCG64(seed))
    got = mt._grow_blowup(H, classes, 4, budget, rng, avoid_mask)
    want = grow_blowup_reference(H, classes, 4, budget, ref_rng, avoid_mask)
    assert got == want
    assert rng.bit_generator.state == ref_rng.bit_generator.state
    return got


@pytest.mark.parametrize(
    "host, avoid_mask, budget, found",
    [
        ("c8_blowup", 0, 20000, (True,)),
        ("complete40", 0, 20000, (True, True)),
        ("complete40", 0b111111, 20000, (True, True)),
        ("dense40", 0, 20000, (True, True)),
        ("dense40", 0b11111, 5000, (False, True)),
        ("dense60", 0, 5000, (False, False)),
        ("sparse60", 0b1111111, 5000, (False, False)),
    ],
)
def test_grow_blowup_matches_reference(host, avoid_mask, budget, found):
    H = GROW_HOSTS[host]()
    results = [
        _grow_both(H, classes, budget, avoid_mask, seed=k + 5)
        for k, classes in enumerate(_grow_seed_classes(H, avoid_mask))
    ]
    assert tuple(r is not None for r in results) == found
    for got in results:
        if got is not None:
            assert not mask_of(v for c in got for v in c) & avoid_mask


def test_grow_blowup_budget_sweep_matches_reference():
    H = GROW_HOSTS["dense40"]()
    outcomes = set()
    for classes in _grow_seed_classes(H, 0):
        for budget in range(1, 301):
            outcomes.add(_grow_both(H, classes, budget) is not None)
    assert outcomes == {False, True}
