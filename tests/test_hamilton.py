import re
from itertools import combinations

import numpy as np
import pytest

from oracles import find_absorber_reference, grow_path_reference
from tightcycles import constructions as cons
from tightcycles import hamilton as ham
from tightcycles import oracle as orc
from tightcycles.errors import UncertifiedResult
from tightcycles.hypercore import from_edges, verify_tight_cycle, verify_tight_path

# -- connect -----------------------------------------------------------------


def test_connect_complete_one_inner():
    H = cons.complete(10)
    p = ham.connect(H, (0, 1), (2, 3), range(4, 10), max_inner=15, seed=0)
    assert p is not None and len(p) == 5
    assert p.vertices[:2] == (0, 1) and p.vertices[-2:] == (2, 3)


def test_connect_respects_allowed_and_length():
    H = cons.complete(12)
    for l in (1, 2, 3, 6):
        p = ham.connect(H, (0, 1), (2, 3), range(4, 11), lengths=[l], seed=1)
        assert p is not None and len(p) == l + 4
        inner = set(p.vertices[2:-2])
        assert inner <= set(range(4, 11))


def test_connect_zero_inner_glue():
    H = cons.complete(8)
    p = ham.connect(H, (0, 1), (2, 3), [], lengths=[0], seed=0)
    assert p is not None and p.vertices == (0, 1, 2, 3)


def test_connect_cross_class_absent_and_confirmed():
    H = cons.example1(12, seed=5)
    red = tuple(H.link_pairs(10).tolist()[0])
    blue = next(
        tuple(p) for p in H.link_pairs(11).tolist() if not set(p) & set(red)
    )
    assert ham.connect(H, red, blue, range(12), max_inner=15, seed=3) is None
    for inner in range(1, 6):
        assert orc.count_paths_between(H, red, blue, inner) == 0


def test_connect_exact_ee_lengths_on_dense(monkeypatch):
    H = cons.random(12, 0.85, 4)
    monkeypatch.setattr(orc, "PATHS_MAX_INNER", 7)
    for l in (5, 6, 7):
        p = ham.connect(H, (0, 1), (2, 3), range(12), lengths=[l], seed=2)
        assert p is not None and len(p) == l + 4
        assert orc.count_paths_between(H, (0, 1), (2, 3), l) > 0


def test_connect_that_searches_nothing_is_refused():
    # "None" must mean searched and not found, so a call that would search
    # nothing raises instead
    H = cons.complete(12)
    for budget in (0, -3):
        with pytest.raises(ValueError, match="budget"):
            ham.connect(H, (0, 1), (2, 3), range(12), budget=budget)
    for kw in ({"max_inner": 0}, {"max_inner": -1}, {"lengths": []},
               {"lengths": [16]}, {"lengths": [4], "max_inner": 3}):
        with pytest.raises(ValueError, match="inner length"):
            ham.connect(H, (0, 1), (2, 3), range(12), **kw)
    p = ham.connect(H, (0, 1), (2, 3), [], lengths=[0], budget=1)
    assert p is not None and p.vertices == (0, 1, 2, 3)
    p = ham.connect(H, (0, 1), (2, 3), range(12), max_inner=1, budget=1)
    assert p is not None and len(p) == 5


def test_connect_endpoint_validation():
    with pytest.raises(ValueError):
        ham.connect(cons.complete(8), (0, 1), (1, 2), range(8))


@pytest.mark.parametrize("allowed", [range(13), [4, 12], [99]])
def test_connect_refuses_allowed_vertices_outside_the_host(allowed):
    # an allowed vertex >= n was dropped silently before
    with pytest.raises(ValueError, match=r"allowed vertices must lie in 0\.\.11"):
        ham.connect(cons.complete(12), (0, 1), (2, 3), allowed)


def test_connect_stats_on_absence():
    stats = {}
    out = ham.connect(cons.empty(10), (0, 1), (2, 3), range(10), stats=stats, seed=0)
    assert out is None and stats["inner"] is None


@pytest.mark.parametrize("seed", range(8))
def test_connect_fuzz_respects_contract(seed):
    import numpy as np

    rng = np.random.Generator(np.random.PCG64(seed))
    H = cons.random(16, 0.45 + 0.06 * (seed % 4), seed + 70)
    ends = rng.choice(16, size=4, replace=False).tolist()
    allowed = [v for v in range(16) if rng.random() < 0.6]
    p = ham.connect(
        H, (ends[0], ends[1]), (ends[2], ends[3]), allowed,
        max_inner=6, seed=seed,
    )
    if p is not None:
        assert verify_tight_path(H, p.vertices)
        inner = p.vertices[2:-2]
        assert len(inner) <= 6
        assert set(inner) <= set(allowed) - set(ends)


# -- almost cover ----------------------------------------------------------------


def test_cover_complete_single_path():
    H = cons.complete(14)
    paths, unc = ham.almost_cover(H, 0.1, 0.3, seed=0)
    assert len(paths) == 1
    assert len(paths[0]) >= H.n - 2
    assert not unc or len(unc) <= 2


def test_cover_empty_shortfall():
    paths, unc = ham.almost_cover(cons.empty(10), 0.1, 0.3, seed=0)
    assert paths == [] and len(unc) == 10


def test_cover_cleaned_away_shortfall():
    H = cons.tight_cycle(12)
    paths, unc = ham.almost_cover(H, 0.25, 0.3, seed=0)
    assert paths == [] and len(unc) == 12


def test_cover_refuses_allowed_vertices_outside_the_host():
    # before, vertices 30..39 came back as "uncovered", and they do not exist
    H = cons.random(30, 0.9, 1)
    with pytest.raises(ValueError, match=r"allowed vertices must lie in 0\.\.29"):
        ham.almost_cover(H, 0.05, 0.15, seed=1, allowed=range(40))
    paths, unc = ham.almost_cover(H, 0.05, 0.15, seed=1, allowed=range(30))
    assert unc <= set(range(30))


@pytest.mark.parametrize("seed", range(5))
def test_cover_disjoint_union_invariant(seed):
    H = cons.random(22, 0.7, seed)
    paths, unc = ham.almost_cover(H, 0.1, 0.25, seed=seed)
    seen = set()
    for p in paths:
        assert verify_tight_path(H, p.vertices)
        assert not seen & set(p.vertices)
        seen |= set(p.vertices)
    assert seen | unc == set(range(22))
    ends_beta = 0.1
    from tightcycles.motifs import is_connectable

    for p in paths:
        a, b = p.start_pair
        c, d = p.end_pair
        assert is_connectable(H, b, a, ends_beta)
        assert is_connectable(H, c, d, ends_beta)


def _two_cliques():
    return from_edges(21, [t for part in (range(10), range(10, 21)) for t in combinations(part, 3)])


# (host, beta, gamma, allowed): two cliques grow one path each; a tight cycle
# at beta = 0.05 grows short paths until a growth fails, and at beta = 0.25
# its cleaning deletes every pair; example1 and the sparse random host lose
# some pairs to cleaning; the last host covers a restricted allowed set
GROWTH_HOSTS = [
    (_two_cliques, 0.05, 0.1, None),
    (lambda: cons.tight_cycle(12), 0.05, 0.1, None),
    (lambda: cons.tight_cycle(12), 0.25, 0.3, None),
    (lambda: cons.example1(24, 1), 0.05, 0.15, None),
    (lambda: cons.random(30, 0.35, 2), 0.15, 0.2, None),
    (lambda: cons.random(60, 0.8, 3), 0.05, 0.15, None),
    (lambda: cons.random(40, 0.85, 1), 0.05, 0.15, range(5, 35)),
]


@pytest.mark.parametrize("host", range(len(GROWTH_HOSTS)))
def test_cover_growth_matches_reference(host, monkeypatch):
    # the merged growth step grows each path as the former two-block loop
    # did, and leaves the cover's generator in the same state after each one
    build, beta, gamma, allowed = GROWTH_HOSTS[host]
    H = build()

    def cover(grow, seed):
        seen = []

        def record(H_, masks, min_len, rng, attempts):
            seq = grow(H_, masks, min_len, rng, attempts)
            seen.append((seq, rng.bit_generator.state))
            return seq

        monkeypatch.setattr(ham, "_grow_path", record)
        return ham.almost_cover(H, beta, gamma, seed=seed, allowed=allowed), seen

    library = ham._grow_path
    for seed in range(3):
        got, got_seen = cover(library, seed)
        want, want_seen = cover(grow_path_reference, seed)
        assert got == want
        assert got_seen == want_seen


# -- absorbers ---------------------------------------------------------------------


def test_absorber_on_complete_k25():
    H = cons.complete(25)
    A = ham.find_absorber(H, seed=1)
    assert A is not None
    rest = sorted(set(range(25)) - set(A.all_vertices()))
    assert ham.is_absorber(H, A, tuple(rest[:3]))


def test_is_absorber_rejects_bad_middle():
    H = cons.complete(25)
    A = ham.find_absorber(H, seed=2)
    rest = sorted(set(range(25)) - set(A.all_vertices()))
    # slot 1's middle must also appear in the eligibility set; breaking the
    # first link edge set makes its own middle ineligible
    broken = ham.Absorber(K=A.K, links=A.links, eligible=(0, A.eligible[1], A.eligible[2]))
    assert broken.eligible[0] == 0
    t = tuple(rest[:3])
    # is_absorber checks paths directly, so the genuine absorber passes
    assert ham.is_absorber(H, A, t)
    # overlapping triples and repeats are rejected
    assert not ham.is_absorber(H, A, (A.K[0], rest[0], rest[1]))
    assert not ham.is_absorber(H, A, (rest[0], rest[0], rest[1]))


def test_absorber_respects_forbidden():
    H = cons.complete(30)
    A = ham.find_absorber(H, forbidden=range(8), seed=3)
    assert A is not None
    assert not set(A.all_vertices()) & set(range(8))


@pytest.mark.parametrize("seed", range(3))
def test_absorber_random_eligible_triples_pass(seed):
    H = cons.random(40, 0.8, seed + 10)
    A = ham.find_absorber(H, seed=seed)
    assert A is not None
    from tightcycles.hypercore import bits

    opts = [list(bits(m)) for m in A.eligible]
    count = 0
    for v1 in opts[0][:4]:
        for v2 in opts[1][:4]:
            for v3 in opts[2][:4]:
                if len({v1, v2, v3}) == 3:
                    assert ham.is_absorber(H, A, (v1, v2, v3))
                    count += 1
    assert count > 0


@pytest.mark.parametrize("n", [36, 66, 96, 120, 150])
def test_find_absorber_matches_reference(n):
    H = cons.random(n, 0.85, n)
    for seed in range(3):
        forbidden = range(n - 3 * seed - 9, n, 3) if seed else ()
        # slot budgets budget // 3 of 1000, 333, 10 and 0 (which stops each
        # slot at its first scored 4-tuple); min_eligibility n is never met,
        # so all six attempts run and the search returns None
        for budget in (3000, 1000, 30, 2):
            for min_elig in (1, 3, n):
                kwargs = dict(
                    forbidden=forbidden,
                    min_eligibility=min_elig,
                    budget=budget,
                    seed=seed,
                    k333_tries=50,
                )
                assert ham.find_absorber(H, **kwargs) == find_absorber_reference(
                    H, **kwargs
                )


@pytest.mark.parametrize("size", [0, 1, 2, 7, 9000])
def test_index_shuffle_draws_like_list_shuffle(size):
    a = np.random.Generator(np.random.PCG64(size))
    b = np.random.Generator(np.random.PCG64(size))
    order = np.arange(size)
    items = list(range(size))
    a.shuffle(order)
    b.shuffle(items)
    assert order.tolist() == items
    assert a.bit_generator.state == b.bit_generator.state


# -- absorbing path -------------------------------------------------------------------


def test_build_absorbing_path_k60_length_audit():
    H = cons.complete(60)
    params = ham.PipelineParams(gamma=0.1, seed=0)
    tr = {}
    ap = ham.build_absorbing_path(H, [0, 1, 2], params, trace=tr)
    assert ap is not None
    t = len(ap.absorbers)
    assert t >= 1
    seq = ap.vertex_sequence()
    assert verify_tight_path(H, seq)
    assert len(seq) <= 47 * t + 32
    assert not set(seq) & {0, 1, 2}
    assert tr["connectable_ends"]


def test_build_absorbing_path_two_absorbers_on_dense_random():
    H = cons.random(50, 0.85, seed=12)
    params = ham.PipelineParams(gamma=0.1, seed=12)
    got = 0
    for seed in range(3):
        ap = ham.build_absorbing_path(H, [0], params, seed=seed)
        if ap is not None:
            got = max(got, len(ap.absorbers))
    assert got >= 2  # twice ceil(gamma^2 n) at gamma=0.1, n=50


def test_build_absorbing_path_empty_host():
    tr = {}
    ap = ham.build_absorbing_path(
        cons.empty(30), [0], ham.PipelineParams(seed=0), trace=tr
    )
    assert ap is None and tr["fail_stage"] == "absorber_shortage"


def test_absorb_identity_and_triples():
    H = cons.complete(60)
    ap = ham.build_absorbing_path(H, [0, 1], ham.PipelineParams(gamma=0.1, seed=1))
    assert ap is not None
    assert ham.absorb(H, ap, []) == ap.path
    outside = [
        v for v in range(60) if not (ap.vertex_mask() >> v) & 1 and v not in (0, 1)
    ]
    U = outside[: 3 * len(ap.absorbers)]
    out = ham.absorb(H, ap, U)
    assert out is not None
    assert verify_tight_path(H, out.vertices)
    assert set(out.vertices) == set(ap.vertex_sequence()) | set(U)
    assert out.vertices[:2] == ap.path.vertices[:2]
    assert out.vertices[-2:] == ap.path.vertices[-2:]


def test_absorb_divisibility_without_gadget():
    H = cons.complete(60)
    ap = ham.build_absorbing_path(H, [0], ham.PipelineParams(gamma=0.1, seed=2))
    outside = [v for v in range(60) if not (ap.vertex_mask() >> v) & 1 and v != 0]
    tr = {}
    assert ham.absorb(H, ap, outside[:4], trace=tr) is None
    assert tr["fail_stage"] == "divisibility"


@pytest.mark.parametrize("seed", range(2))
def test_default_pipeline_makes_no_gadget_search(seed, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the default pipeline searched for a gadget")

    monkeypatch.setattr(ham, "find_c8_blowup", refuse)
    H = cons.random(120, 0.85, seed)
    cyc, trace = ham.find_tight_hamilton(H, ham.PipelineParams(seed=seed))
    assert cyc is not None and verify_tight_cycle(H, cyc.vertices)
    assert len(cyc) == 120
    assert not any(at.get("gadget") for at in trace["attempts"])


def test_absorb_rejects_overlapping_u():
    H = cons.complete(60)
    ap = ham.build_absorbing_path(H, [0], ham.PipelineParams(gamma=0.1, seed=3))
    inside = ap.vertex_sequence()[0]
    with pytest.raises(ValueError):
        ham.absorb(H, ap, [inside])


# -- inner-length preferences ---------------------------------------------------------


def _old_spread(mi, avail, remaining):
    cap = min(mi, max(avail - (remaining - 1), 0))
    target = min(cap, max(1, avail // max(remaining, 1)))
    order = sorted(range(0, cap + 1), key=lambda l: (abs(l - target), l))
    return order


def _old_absorbable(leftover, spare, has_gadget):
    if leftover % 3 == 0:
        removal = 0
    elif not has_gadget:
        return False
    else:
        removal = 8 if (leftover + 8) % 3 == 0 else 16
    return (leftover + removal) // 3 <= spare


def _old_closing(mi, avail, uncovered, spare, has_gadget):
    out = [
        l
        for l in range(0, min(mi, avail) + 1)
        if _old_absorbable(uncovered + avail - l, spare, has_gadget)
    ]
    if not out:
        return None
    out.sort(reverse=True)
    return out


def test_length_orders_keep_connect_orders(monkeypatch):
    # each stage's inner-length order is its reference copy's above, as
    # connect sees it: filtered to 0..max_inner, in order
    def seen(order, mi):
        return None if order is None else [l for l in order if 0 <= l <= mi]

    for mi in range(3, 16):
        monkeypatch.setattr(ham, "MAX_INNER", mi)
        for avail in range(26):
            for remaining in range(1, 5):
                assert seen(ham._spread_lengths(avail, remaining), mi) == seen(
                    _old_spread(mi, avail, remaining), mi
                )
            for uncovered in range(6):
                for spare in range(5):
                    args = (avail, uncovered, spare)
                    assert seen(ham._closing_lengths(*args), mi) == seen(
                        _old_closing(mi, *args, has_gadget=False), mi
                    )


# -- the full pipeline -----------------------------------------------------------------


def test_pipeline_complete_30():
    H = cons.complete(30)
    cyc, trace = ham.find_tight_hamilton(H, ham.PipelineParams(seed=11))
    assert cyc is not None
    assert verify_tight_cycle(H, cyc.vertices)
    assert len(cyc) == 30


def test_pipeline_dense_random_36():
    H = cons.random(36, 0.9, 7)
    cyc, trace = ham.find_tight_hamilton(H, ham.PipelineParams(seed=7))
    assert cyc is not None
    assert verify_tight_cycle(H, cyc.vertices)
    assert len(cyc) == 36


@pytest.mark.parametrize("seed,trim", [(39, 1), (4, 2)])
def test_pipeline_parity_trim(seed, trim):
    """Stage 5's parity repair: the first attempt succeeds only after
    trimming ``trim`` vertices off a covered path end."""
    H = cons.random(36, 0.9, seed)
    cyc, trace = ham.find_tight_hamilton(H, ham.PipelineParams(seed=seed))
    assert trace["success_attempt"] == 0
    assert trace["attempts"][0]["trim"] == trim
    assert sorted(cyc.vertices) == list(range(36))
    assert verify_tight_cycle(H, cyc.vertices)


@pytest.mark.parametrize("seed,trim", [(3, 1), (2, 2)])
def test_successful_attempt_carries_no_failure(seed, trim):
    """Attempt 0 succeeds on a trimmed try after its trim-0 try failed (at
    connect_1 for seed 3, at parity_planning for seed 2); the record holds
    only the successful try."""
    cyc, trace = ham.find_tight_hamilton(
        cons.random(30, 0.9, 0), ham.PipelineParams(seed=seed)
    )
    at = trace["attempts"][0]
    assert cyc is not None and trace["success_attempt"] == 0
    assert at["trim"] == trim and "fail_stage" not in at


PIPELINE_STAGES = (
    "absorber_shortage", "absorbing_connect", "ends_not_connectable",
    "parity_planning", "matching",
)


def test_failed_attempts_hold_one_documented_stage_and_their_last_try(monkeypatch):
    tries = []  # per attempt, the record of each parity try
    real_attempt, real_try = ham._attempt, ham._connect_and_absorb

    def attempt(*args):
        tries.append([])
        return real_attempt(*args)

    def one_try(*args):
        tries[-1].append(args[-1])
        return real_try(*args)

    monkeypatch.setattr(ham, "_attempt", attempt)
    monkeypatch.setattr(ham, "_connect_and_absorb", one_try)
    runs = [(cons.random(30, 0.9, 0), seed, 5) for seed in range(6)]
    for seed in range(12):
        for H in (cons.random(14, 0.5, seed), cons.random(18, 0.7, seed),
                  cons.random(24, 0.8, seed), cons.random(36, 0.9, seed),
                  cons.example1(14, seed)):
            runs.append((H, seed, 2))
    stages = set()
    for H, seed, retries in runs:
        tries.clear()
        _, trace = ham.find_tight_hamilton(H, ham.PipelineParams(seed=seed, retries=retries))
        assert len(tries) == len(trace["attempts"])
        for i, (at, its) in enumerate(zip(trace["attempts"], tries)):
            assert ("fail_stage" in at) == (trace["success_attempt"] != i)
            if "fail_stage" in at:
                stage = at["fail_stage"]
                assert stage in PIPELINE_STAGES or re.fullmatch(r"connect_\d+", stage)
                stages.add(stage)
            if its:
                assert its[-1].items() <= at.items()
                for key in ("trim", "connections", "leftover", "fail_stage"):
                    assert (key in at) == (key in its[-1])
    assert {"absorber_shortage", "absorbing_connect", "parity_planning"} <= stages


def test_pipeline_refuses_a_cycle_that_misses_vertices(monkeypatch):
    """An absorption that drops its leftover still closes a tight cycle, on
    33 of the 36 vertices here; the final check refuses it."""
    monkeypatch.setattr(ham, "absorb", lambda H, A, U, trace=None: A.path)
    with pytest.raises(UncertifiedResult):
        ham.find_tight_hamilton(cons.random(36, 0.9, 4), ham.PipelineParams(seed=4))


def test_pipeline_two_colouring_absent_and_oracle_confirms():
    for n in (14, 16):
        H = cons.example1(n, seed=2)
        cyc, trace = ham.find_tight_hamilton(
            H, ham.PipelineParams(seed=2, retries=2)
        )
        assert cyc is None
        assert not orc.has_tight_hamilton(H)


def test_pipeline_determinism():
    H = cons.random(36, 0.9, 3)
    a, _ = ham.find_tight_hamilton(H, ham.PipelineParams(seed=5))
    b, _ = ham.find_tight_hamilton(H, ham.PipelineParams(seed=5))
    assert (a is None) == (b is None)
    if a is not None:
        assert a.vertices == b.vertices


def test_pipeline_requires_minimum_size():
    with pytest.raises(ValueError):
        ham.find_tight_hamilton(cons.complete(10))


def test_pipeline_params_validate():
    with pytest.raises(ValueError):
        ham.PipelineParams(beta=0)
    for retries in (0, -2):
        with pytest.raises(ValueError, match="retries"):
            ham.PipelineParams(retries=retries)
    assert ham.PipelineParams(retries=1).retries == 1
