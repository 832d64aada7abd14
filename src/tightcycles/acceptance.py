"""The acceptance suite: each criterion is a self-timing runner returning a
pass/fail result with details, shared by `tightcycles bench` and the pytest
acceptance module."""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from fractions import Fraction
from math import comb

import numpy as np

from . import constructions as cons
from . import density, hamilton, motifs, oracle
from .hypercore import bits, from_edges, mask_of, verify_tight_cycle, verify_tight_path

__all__ = ["CriterionResult", "run_all", "ALL_CRITERIA"]


@dataclass
class CriterionResult:
    number: int
    name: str
    passed: bool
    details: dict = field(default_factory=dict)
    seconds: float = 0.0


def _timed(number, name, fn) -> CriterionResult:
    t0 = time.perf_counter()
    passed, details = fn()
    return CriterionResult(number, name, passed, details, time.perf_counter() - t0)


# -- 1: oracle agreement ------------------------------------------------------


def criterion_1() -> CriterionResult:
    def run():
        ps = (0.3, 0.5, 0.7, 0.9)
        mismatches = 0
        t0 = time.perf_counter()
        for i in range(200):
            n = 5 + i % 4
            p = ps[(i // 4) % 4]
            H = cons.random(n, p, seed=1000 + i)
            if oracle.has_tight_hamilton(H) != oracle.exhaustive_hamilton(H):
                mismatches += 1
        elapsed = time.perf_counter() - t0
        return mismatches == 0 and elapsed < 30.0, {
            "instances": 200,
            "mismatches": mismatches,
            "elapsed": round(elapsed, 2),
            "limit": 30.0,
        }

    return _timed(1, "oracle agreement (DP vs exhaustive)", run)


# -- 2: ev exactness ----------------------------------------------------------


def criterion_2() -> CriterionResult:
    def run():
        bad = []
        cases = [(4, s) for s in range(20)] + [(5, s) for s in range(10)]
        for n, seed in cases:
            H = cons.random(n, 0.5, seed=2000 + seed)
            d = Fraction(1, 4) if seed % 2 == 0 else Fraction(1, 2)
            got = Fraction(*density.ev_deviation(H, d, "exact").raw_fraction)
            want = oracle.brute_ev_raw(H, d)
            if got != want:
                bad.append((n, seed, str(got), str(want)))
        return not bad, {"cases": len(cases), "mismatches": bad}

    return _timed(2, "ev exactness vs full (X,P) enumeration", run)


# -- 3: the two-colouring construction has no tight Hamilton cycle -------------


def criterion_3() -> CriterionResult:
    def run():
        t0 = time.perf_counter()
        false_count = 0
        total = 0
        for n in (10, 12, 14, 16):
            for seed in range(20):
                H = cons.example1(n, seed=3000 + seed)
                total += 1
                if not oracle.has_tight_hamilton(H):
                    false_count += 1
        elapsed = time.perf_counter() - t0
        return false_count == total and elapsed < 300.0, {
            "instances": total,
            "non_hamiltonian": false_count,
            "elapsed": round(elapsed, 2),
            "limit": 300.0,
        }

    return _timed(3, "two-colouring construction is never Hamiltonian", run)


# -- 4: density profile of the balanced construction ---------------------------


def criterion_4() -> CriterionResult:
    def run():
        n = 200
        passes = 0
        records = []
        for seed in range(20):
            H = cons.example1(n, seed=4000 + seed, include_xy_edges=True)
            d1 = oracle_min_degree_ratio(H)
            rep = density.ev_deviation(
                H, Fraction(1, 4), "sampled", samples=100_000, seed=seed
            )
            ok = 0.22 <= d1 <= 0.28 and rep.rho_hat <= 0.02 and rep.samples >= 100_000
            passes += ok
            records.append(
                {"seed": seed, "delta1": round(d1, 4), "rho_hat": rep.rho_hat}
            )
        return passes >= 19, {"passes": passes, "needed": 19, "runs": records[:5]}

    return _timed(4, "balanced construction: degree and sampled ev profile", run)


def oracle_min_degree_ratio(H) -> float:
    from .hypercore import min_degree

    return min_degree(H) / comb(H.n, 2)


# -- 5: biased construction degree formulas ------------------------------------


def criterion_5() -> CriterionResult:
    def run():
        from .hypercore import min_codegree, min_degree

        n = 300
        detail = {}
        overall = True
        for p in (0.5, 2 / 3, 0.9):
            qq = 1 - p
            want_d1 = min(qq, p**3 + qq**3)
            want_d2 = qq * qq
            ok_d1 = ok_d2 = 0
            obs = []
            for seed in range(10):
                H = cons.hp_construction(n, p, seed=5000 + seed)
                d1 = min_degree(H) / comb(n, 2)
                d2 = min_codegree(H) / n
                ok_d1 += abs(d1 - want_d1) <= 0.03
                ok_d2 += abs(d2 - want_d2) <= 0.03
                obs.append((round(d1, 4), round(d2, 4)))
            detail[f"p={p:.3f}"] = {
                "target_delta1": round(want_d1, 4),
                "target_delta2": round(want_d2, 4),
                "delta1_passes": ok_d1,
                "delta2_passes": ok_d2,
                "observed": obs[:3],
            }
            overall = overall and ok_d1 >= 9 and ok_d2 >= 9
        return overall, detail

    return _timed(5, "biased construction degree formulas", run)


# -- 6: pipeline soundness -------------------------------------------------------


def criterion_6() -> CriterionResult:
    def run():
        invocations = 0
        cycles = 0
        unsound = 0
        for seed in range(100):
            hosts = [
                cons.random(14, 0.5, seed),
                cons.random(18, 0.7, seed),
                cons.random(24, 0.8, seed),
                cons.random(36, 0.9, seed),
                cons.example1(14, seed),
            ]
            for H in hosts:
                cyc, _ = hamilton.find_tight_hamilton(
                    H, hamilton.PipelineParams(seed=seed, retries=2)
                )
                invocations += 1
                if cyc is not None:
                    cycles += 1
                    if not verify_tight_cycle(H, cyc.vertices):
                        unsound += 1
        return invocations >= 500 and unsound == 0, {
            "invocations": invocations,
            "cycles_returned": cycles,
            "unsound": unsound,
        }

    return _timed(6, "pipeline soundness (every returned cycle verifies)", run)


# -- 7: pipeline completeness ------------------------------------------------------


def criterion_7() -> CriterionResult:
    def run():
        successes = 0
        worst = 0.0
        for seed in range(20):
            H = cons.random(36, 0.9, seed)
            t0 = time.perf_counter()
            cyc, _ = hamilton.find_tight_hamilton(
                H, hamilton.PipelineParams(seed=seed, retries=5)
            )
            worst = max(worst, time.perf_counter() - t0)
            if cyc is not None:
                successes += 1
        complete_ok = 0
        for seed in range(20):
            cyc, _ = hamilton.find_tight_hamilton(
                cons.complete(30), hamilton.PipelineParams(seed=seed, retries=5)
            )
            if cyc is not None:
                complete_ok += 1
        return successes >= 16 and worst < 60.0 and complete_ok == 20, {
            "random_successes": successes,
            "needed": 16,
            "worst_seconds": round(worst, 2),
            "complete30_successes": complete_ok,
        }

    return _timed(7, "pipeline completeness (random 36 and complete 30)", run)


# -- 8: gadget identities --------------------------------------------------------


def criterion_8() -> CriterionResult:
    def run():
        K = cons.k333()
        ok = verify_tight_path(K, cons.k333_base_ordering())
        ok &= verify_tight_path(K, cons.k333_skip_ordering())
        B = cons.c8_blowup(4)
        for drops in ((), (1,), (1, 2)):
            ok &= verify_tight_path(B, cons.c8_blowup_ordering(4, drops))
        H = cons.random(12, 0.8, seed=8)
        turns = motifs.find_turns(H, samples=6000, seed=81)
        enough = len(turns) >= 100
        orderings_ok = all(
            verify_tight_path(H, seq)
            for t in turns[:100]
            for seq in motifs.turn_connecting_orderings(t)
        )
        return bool(ok and enough and orderings_ok), {
            "gadget_paths": bool(ok),
            "turns_sampled": len(turns),
            "turn_orderings_ok": orderings_ok,
        }

    return _timed(8, "gadget path identities", run)


# -- 9: absorber soundness --------------------------------------------------------


def _fixture_absorber():
    """A hand-built host containing exactly one absorber whose slots can only
    take one specific triple, stitched into an absorbing path with no inner
    connection vertices."""
    # vertices 0..8: core (x1,x2,x3,y1,y2,y3,z1,z2,z3); 9..20: link paths;
    # 21..23: the absorbable triple
    x1, x2, x3, y1, y2, y3, z1, z2, z3 = range(9)
    links = [(9, 10, 11, 12), (13, 14, 15, 16), (17, 18, 19, 20)]
    u = (21, 22, 23)
    edges = []

    def path_edges(seq):
        return [tuple(seq[i : i + 3]) for i in range(len(seq) - 2)]

    edges += path_edges([x1, x2, x3, y1, y2, y3, z1, z2, z3])
    edges += path_edges([x1, x2, x3, z1, z2, z3])
    for i, (a, b, c, d) in enumerate(links):
        middle_y = (y1, y2, y3)[i]
        edges += path_edges([a, b, middle_y, c, d])
        edges += path_edges([a, b, u[i], c, d])
    # glue edges: core short path end (z2, z3) to link 1, then link to link
    seqs = [[z2, z3, 9, 10], [11, 12, 13, 14], [15, 16, 17, 18]]
    for s in seqs:
        edges += path_edges(s)
    H = from_edges(24, edges)
    eligible = []
    for i, (a, b, c, d) in enumerate(links):
        elig = H.nbr_mask(a, b) & H.nbr_mask(b, c) & H.nbr_mask(c, d)
        eligible.append(elig & ~mask_of(range(21)))
    A = hamilton.Absorber(
        K=(x1, x2, x3, y1, y2, y3, z1, z2, z3),
        links=tuple(links),
        eligible=tuple(eligible),
    )
    segments = [("kshort", 0, tuple(A.k_path_short()))]
    for i in range(3):
        segments.append(("link", (0, i), tuple(A.link_path(i))))
    ap = hamilton.AbsorbingPath(segments=segments, absorbers=[A])
    return H, A, ap, u


def criterion_9() -> CriterionResult:
    def run():
        H = cons.random(40, 0.8, seed=9)
        rng = np.random.Generator(np.random.PCG64(99))
        checked = 0
        failures = 0
        attempts = 0
        while checked < 1000 and attempts < 80:
            attempts += 1
            A = hamilton.find_absorber(H, seed=int(rng.integers(2**31)))
            if A is None:
                continue
            opts = [list(bits(m)) for m in A.eligible]
            for _ in range(50):
                if checked >= 1000:
                    break
                t = (
                    opts[0][int(rng.integers(len(opts[0])))],
                    opts[1][int(rng.integers(len(opts[1])))],
                    opts[2][int(rng.integers(len(opts[2])))],
                )
                if len(set(t)) != 3:
                    continue
                checked += 1
                if not hamilton.is_absorber(H, A, t):
                    failures += 1
        # hand-built fixture: the unique matching performs the middle exchange
        Hf, A, ap, u = _fixture_absorber()
        eligible_is_unique = all(m.bit_count() == 1 for m in A.eligible)
        before = ap.path.vertices
        after = hamilton.absorb(Hf, ap, u)
        fixture_ok = (
            eligible_is_unique
            and after is not None
            and verify_tight_path(Hf, after.vertices)
            and after.vertices[:2] == before[:2]
            and after.vertices[-2:] == before[-2:]
            and set(after.vertices) == set(before) | set(u)
        )
        return checked >= 1000 and failures == 0 and fixture_ok, {
            "sampled": checked,
            "failures": failures,
            "fixture_ok": fixture_ok,
        }

    return _timed(9, "absorber soundness and the exchange fixture", run)


# -- 10: cherry and connection cross-checks ------------------------------------------


def criterion_10() -> CriterionResult:
    def run():
        mismatches = []
        for i in range(20):
            n = 8 + i % 5
            H = cons.random(n, 0.4 + 0.05 * (i % 4), seed=10_000 + i)
            got = motifs.count_cherries(H).count
            want = oracle.naive_cherry_count(H)
            if got != want:
                mismatches.append((i, got, want))
        k5_ok = motifs.count_cherries(cons.complete(5)).count == 120

        E = cons.example1(12, seed=123)
        x, y = 10, 11
        red = [tuple(p) for p in E.link_pairs(x).tolist()][:3]
        blue = [
            tuple(p)
            for p in E.link_pairs(y).tolist()
            if not set(p) & set(v for pr in red for v in pr)
        ][:3]
        cross_ok = True
        zero_counts = True
        for rp in red:
            for bp in blue:
                conn = hamilton.connect(E, rp, bp, range(12), max_inner=15, seed=5)
                if conn is not None:
                    cross_ok = False
                for inner in range(1, 6):
                    if oracle.count_paths_between(E, rp, bp, inner) != 0:
                        zero_counts = False
        return (not mismatches) and k5_ok and cross_ok and zero_counts, {
            "cherry_mismatches": mismatches,
            "k5_is_120": k5_ok,
            "cross_class_connects_absent": cross_ok,
            "cross_class_counts_zero": zero_counts,
        }

    return _timed(10, "cherry counts and cross-class connection absence", run)


# -- 11: density-notion hierarchy -------------------------------------------------


def criterion_11() -> CriterionResult:
    def run():
        literal_ok = True
        quantitative_ok = True
        corpus = []
        for i in range(50):
            p = (0.3, 0.5)[i % 2]
            corpus.append(cons.random(5, p, seed=11_000 + i))
        for H in corpus:
            n = H.n
            for d in (Fraction(1, 5), Fraction(1, 2)):
                rees = Fraction(*density.ee_deviation(H, d, "exact").raw_fraction)
                rev = Fraction(*density.ev_deviation(H, d, "exact").raw_fraction)
                rvvv = Fraction(*density.vvv_deviation(H, d, "exact").raw_fraction)
                hee = -rees / n**3 if rees < 0 else Fraction(0)
                hev = -rev / n**3 if rev < 0 else Fraction(0)
                hvvv = -rvvv / n**3 if rvvv < 0 else Fraction(0)
                if hee == 0 and hev != 0:
                    literal_ok = False
                if hev == 0 and hvvv != 0:
                    literal_ok = False
                # sharpened finite-n form, provable under the distinct-tuple
                # conventions: stepping down a notion costs at most d*n^2 or
                # 2*d*n^2 of raw deviation
                if hvvv > hev + d * Fraction(1, n):
                    quantitative_ok = False
                if hev > hee + 2 * d * Fraction(1, n):
                    quantitative_ok = False
        return literal_ok and quantitative_ok, {
            "corpus": len(corpus),
            "literal_implications": literal_ok,
            "quantitative_hierarchy": quantitative_ok,
        }

    return _timed(11, "density-notion hierarchy on an exact corpus", run)


ALL_CRITERIA = [
    criterion_1,
    criterion_2,
    criterion_3,
    criterion_4,
    criterion_5,
    criterion_6,
    criterion_7,
    criterion_8,
    criterion_9,
    criterion_10,
    criterion_11,
]


def run_all(numbers=None) -> list[CriterionResult]:
    out = []
    for i, fn in enumerate(ALL_CRITERIA, start=1):
        if numbers and i not in numbers:
            continue
        out.append(fn())
    return out
