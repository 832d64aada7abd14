"""The exact kernels against the loops they replaced: the deviation
kernels against their Gray-code walks, the Hamilton kernel against one full
DP per root."""

import importlib.util
import json
import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from oracles import (
    ee_pair_list,
    first_root_fails,
    gray_ee_exact,
    gray_ev_exact,
    gray_vvv_exact,
    link_lists,
    rooted_table_reference,
    tight_hamilton_cycle_reference,
)
from tightcycles import _pykernels, constructions as cons, density as dn
from tightcycles.hypercore import from_edges, verify_tight_cycle

DENSITIES = [Fraction(1, 4), Fraction(3, 10), Fraction(1, 2), Fraction(1)]
# p/q whose margins reach far into int64, and one past it (``object``)
WIDE = [Fraction(333333333, 10**9), Fraction(2**61, 2**62 + 1)]
HOST_P = [0.3, 0.5, 0.8]


def _hosts(n, seed):
    if n < 3:
        return [cons.empty(n)]
    return [cons.random(n, hp, seed + n) for hp in HOST_P]


@pytest.mark.parametrize("n", range(0, 15))
def test_ev_matches_gray_walk(n):
    for H in _hosts(n, 500):
        T = H.edge_tensor()
        for d in DENSITIES:
            p, q = d.numerator, d.denominator
            want = gray_ev_exact(n, *link_lists(H), p, q)
            assert _pykernels.ev_exact(T, p, q) == want, (n, d)


@pytest.mark.parametrize("split", [0, 1, 4, 7, 64])
@pytest.mark.parametrize("n", [6, 9])
def test_ev_matches_gray_walk_across_blocks(monkeypatch, n, split):
    """Every split of the Gray index, from no low bits (one table row) to
    all of them (one high part): the value and the first minimum survive
    the odd high parts' reversed tables."""
    monkeypatch.setattr(_pykernels, "SPLIT", split)
    for H in _hosts(n, 600) + [cons.complete(n), cons.empty(n)]:
        T = H.edge_tensor()
        for d in DENSITIES + WIDE:
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


@pytest.mark.parametrize("n", range(0, 9))
def test_vvv_matches_gray_walk(n):
    for H in _hosts(n, 700):
        T = H.edge_tensor()
        for d in DENSITIES:
            p, q = d.numerator, d.denominator
            want = gray_vvv_exact(n, *link_lists(H), p, q)
            assert _pykernels.vvv_exact(T, p, q) == want, (n, d)


# 1 margin: one X row per block.  1000: 1-2 rows in the first blocks and
# more, of sizes that divide nothing, as the Y range shrinks.  10^9: one
# block of every X.
@pytest.mark.parametrize("cells", [1, 1000, 10**9])
@pytest.mark.parametrize("n", [5, 6])
def test_vvv_matches_gray_walk_across_blocks(monkeypatch, n, cells):
    monkeypatch.setattr(_pykernels, "CELLS", cells)
    for H in _hosts(n, 650) + [cons.complete(n), cons.empty(n)]:
        T = H.edge_tensor()
        for d in DENSITIES + WIDE:
            p, q = d.numerator, d.denominator
            want = gray_vvv_exact(n, *link_lists(H), p, q)
            assert _pykernels.vvv_exact(T, p, q) == want, (n, d)


def test_vvv_memory_is_bounded_by_the_block():
    T = cons.random(9, 0.5, 3).edge_tensor()
    tracemalloc.start()
    try:
        _pykernels.vvv_exact(T, 3, 10)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # the 2^9 x 2^9 x 9 int64 margins of every (X, Y, z) would take 19 MB
    assert peak < 2_000_000


@pytest.mark.parametrize("d", WIDE, ids=["int64", "object"])
@pytest.mark.parametrize("n", range(3, 8))
def test_exact_kernels_match_gray_walks_at_wide_fractions(n, d):
    p, q = d.numerator, d.denominator
    assert _pykernels._wide(p, q, n) is (np.int64 if d == WIDE[0] else object)
    for H in _hosts(n, 1100):
        T = H.edge_tensor()
        assert _pykernels.ev_exact(T, p, q) == gray_ev_exact(n, *link_lists(H), p, q)
        assert _pykernels.vvv_exact(T, p, q) == gray_vvv_exact(n, *link_lists(H), p, q)
        if n <= 4:  # the ee walk runs over all 2^(n(n-1)) sets P, 2 s a host at n = 5
            assert _ee_checked(H, d) == gray_ee_exact(n, H.nbr_flat(), p, q)[0]


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
    for H in _hosts(n, 800):
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


def _benchmark_workloads():
    """The benchmark's workload module, which decodes its reference hosts."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up
    spec.loader.exec_module(module)
    return module


WORKLOADS = _benchmark_workloads()
SLOTS = json.loads(WORKLOADS.REFERENCE.read_text())["slots"]
DP_SLOTS = [s for s in SLOTS if s["call"] in ("has_tight_hamilton", "extract_tight_hamilton")]
DEVIATION_SLOTS = [s for s in SLOTS if s["call"] in ("ev_deviation", "vvv_deviation")]
DEVIATION_KERNELS = {
    "ev_deviation": (_pykernels.ev_exact, gray_ev_exact),
    "vvv_deviation": (_pykernels.vvv_exact, gray_vvv_exact),
}


@pytest.mark.parametrize("slot", DEVIATION_SLOTS, ids=lambda slot: slot["slot"])
def test_deviation_kernels_match_gray_walks_on_benchmark_hosts(slot):
    """The value and the masks of every ev and vvv host of the benchmark
    table, and the value the table stores.  vvv9 takes its first 3 hosts:
    its Gray walk costs about 0.6 s a host."""
    kernel, gray = DEVIATION_KERNELS[slot["call"]]
    d = Fraction(slot["d"])
    p, q = d.numerator, d.denominator
    entries = slot["entries"][:3] if slot["slot"] == "vvv9" else slot["entries"]
    assert len(entries) > 0
    for entry in entries:
        H = WORKLOADS.host_from_hex(slot["n"], entry["edges"])
        got = kernel(H.edge_tensor(), p, q)
        assert got == gray(slot["n"], *link_lists(H), p, q)
        assert Fraction(got[0], q) == Fraction(*entry["raw"])


# random(n, p, seed) hosts whose first root finds no cycle and a later one
# does, so the kernel reaches its union run and reruns an admitted root
LATER_ROOT_HOSTS = [
    (8, 0.4, 5), (8, 0.4, 32), (8, 0.5, 1), (8, 0.5, 4),
    (9, 0.4, 3), (9, 0.4, 10), (9, 0.5, 14),
    (10, 0.4, 0), (10, 0.4, 15), (10, 0.5, 9),
    (11, 0.4, 15), (11, 0.4, 34),
    (12, 0.4, 4), (12, 0.4, 14),
]


def _assert_same_cycle(H):
    nbr = H.nbr_flat()
    want = tight_hamilton_cycle_reference(H.n, nbr)
    assert _pykernels.tight_hamilton_cycle(H.n, nbr) == want
    return want


@pytest.mark.parametrize("slot", DP_SLOTS, ids=lambda slot: slot["slot"])
def test_hamilton_dp_matches_rooted_loop_on_benchmark_hosts(slot):
    assert len(slot["entries"]) > 0
    for entry in slot["entries"]:
        _assert_same_cycle(WORKLOADS.host_from_hex(slot["n"], entry["edges"]))


@pytest.mark.parametrize("n", [10, 12])
def test_hamilton_dp_matches_rooted_loop_on_the_construction(n):
    """The hosts of acceptance criterion 3 at n = 10 and 12."""
    for seed in range(20):
        _assert_same_cycle(cons.example1(n, seed=3000 + seed))


def test_hamilton_dp_matches_rooted_loop_where_a_later_root_closes():
    for n, hp, seed in LATER_ROOT_HOSTS:
        H = cons.random(n, hp, seed)
        assert _assert_same_cycle(H) is not None and first_root_fails(H)


def _rooted_table(n, nbr, b):
    """The kernel's table of root (0, b), indexed over the n - 2 live vertices."""
    frame = _pykernels._frame(n, 1 | 1 << b, _pykernels._patterns(n - 2))
    return _pykernels._grow(n, nbr, frame, {b: 1})


def _assert_same_tables(H):
    """Every root's table has the former table's keys, in the same insertion
    order, each with as many visited sets: a count that does not depend on
    how the sets are indexed."""
    nbr = H.nbr_flat()
    for b in range(1, H.n):
        if nbr[b]:
            want = rooted_table_reference(H.n, nbr, b)
            got = _rooted_table(H.n, nbr, b)
            assert list(got) == list(want), b
            assert [x.bit_count() for x in got.values()] == [
                x.bit_count() for x in want.values()
            ], b


@pytest.mark.parametrize("slot", DP_SLOTS, ids=lambda slot: slot["slot"])
def test_rooted_tables_match_former_tables_on_benchmark_hosts(slot):
    for entry in slot["entries"]:
        _assert_same_tables(WORKLOADS.host_from_hex(slot["n"], entry["edges"]))


def test_rooted_tables_match_former_tables_where_a_later_root_closes():
    for n, hp, seed in LATER_ROOT_HOSTS:
        _assert_same_tables(cons.random(n, hp, seed))


def _rooted_runs(monkeypatch, H):
    """The kernel's answer on H, called with no guard in front, and the
    roots b whose rooted runs it closed, in order."""
    runs = []
    close = _pykernels._close

    def record(n, nbr, dp, frame, b):
        runs.append(b)
        return close(n, nbr, dp, frame, b)

    monkeypatch.setattr(_pykernels, "_close", record)
    nbr = H.nbr_flat()
    cycle = _pykernels.tight_hamilton_cycle(H.n, nbr)
    assert cycle == tight_hamilton_cycle_reference(H.n, nbr)
    assert cycle is None or verify_tight_cycle(H, cycle) and sorted(cycle) == list(range(H.n))
    return cycle, runs


@pytest.mark.parametrize("n", [4, 5])
def test_hamilton_kernel_on_small_complete_hosts(monkeypatch, n):
    cycle, runs = _rooted_runs(monkeypatch, cons.complete(n))
    assert cycle[:2] == [0, 1] and runs == [1]


def test_hamilton_kernel_without_a_root():
    """Vertex 0 lies in no edge, so no pair (0, b) extends and no run starts."""
    H = from_edges(6, [(a, b, c) for a in range(1, 6) for b in range(a + 1, 6) for c in range(b + 1, 6)])
    assert _pykernels.tight_hamilton_cycle(6, H.nbr_flat()) is None


def test_hamilton_kernel_reruns_only_what_the_union_admits(monkeypatch):
    """random(6, .3, 239): root 1 fails, the union admits roots 2 and 3, and
    root 2 closes.  random(6, .3, 39): root 1 fails, the union admits only
    root 3 of roots 2-5, and its own run does not close."""
    later = from_edges(6, [
        (0, 1, 2), (0, 1, 3), (0, 2, 4), (0, 3, 4),
        (1, 2, 4), (1, 2, 5), (1, 3, 5), (3, 4, 5),
    ])
    assert _rooted_runs(monkeypatch, later) == ([0, 2, 1, 5, 3, 4], [1, 2])
    refused = from_edges(6, [
        (0, 1, 4), (0, 2, 5), (0, 3, 4),
        (1, 2, 5), (1, 3, 4), (1, 3, 5), (3, 4, 5),
    ])
    assert _rooted_runs(monkeypatch, refused) == (None, [1, 3])
