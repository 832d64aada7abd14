"""The four benchmark workloads.

Each workload function is the workload's set-up: it turns a seed into a
fixed list of operations, building and warming the hosts they need.  An
op's ``call`` is the timed library call and its ``check`` recomputes the
result's correctness without relying on the library's own ``assert``
statements.  Every library function is looked up on its module at call
time, so the traced run sees the same calls.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from pathlib import Path
from typing import Callable, Optional

from tightcycles import constructions, density, hamilton, hypercore, oracle

HERE = Path(__file__).resolve().parent
REFERENCE = HERE / "exact_reference.json"

# the checks call these directly, never through a traced module attribute
_verify_cycle = hypercore.verify_tight_cycle
_recount = {"ev": density.ev_value, "vvv": density.vvv_value, "ee": density.ee_value}


@dataclass(frozen=True)
class Facts:
    """What an operation returned, reduced to values that must repeat exactly."""

    ok: bool
    found: bool = False
    why: str = ""
    rho_hat: Optional[float] = None
    attempts: int = 0
    leftovers: tuple = ()
    fail_stages: tuple = ()


@dataclass
class Op:
    kind: str
    desc: tuple  # the operation's inputs, for the input fingerprint
    call: Callable[[], object]
    check: Callable[[object], Facts]


# -- pipelines ------------------------------------------------------------------


def _stage(name: str) -> str:
    return "connect" if name.startswith("connect_") else name


def _check_cycle(H):
    def check(out) -> Facts:
        cycle, trace = out
        attempts = trace["attempts"]
        facts = dict(
            attempts=len(attempts),
            leftovers=tuple(at["leftover"] for at in attempts if "leftover" in at),
            fail_stages=tuple(_stage(at["fail_stage"]) for at in attempts if "fail_stage" in at),
        )
        if cycle is None:
            return Facts(ok=True, found=False, **facts)
        seq = cycle.vertices
        if not cycle.is_cycle or sorted(seq) != list(range(H.n)):
            return Facts(ok=False, why="cycle does not cover every vertex once", **facts)
        if not _verify_cycle(H, seq):
            return Facts(ok=False, why="returned cycle is not tight", **facts)
        return Facts(ok=True, found=True, **facts)

    return check


def _pipeline_ops(seed: int, hosts, per_host: int, name: str) -> list[Op]:
    """``per_host`` pipeline runs on each of the (n, p) hosts; the seed picks
    the host seeds and the pipeline seeds."""
    rng = random.Random(f"{name}:{seed}")
    built = []
    for n, p in hosts:
        hseed = rng.randrange(2**31)
        H = constructions.random(n, p, hseed)
        H.link_pairs(0)  # warm the link cache
        built.append(((n, p, hseed), H))
    ops = []
    for _ in range(per_host):
        for desc, H in built:
            params = hamilton.PipelineParams(seed=rng.randrange(2**31))
            ops.append(
                Op(
                    "pipeline",
                    desc + (params.seed,),
                    lambda H=H, params=params: hamilton.find_tight_hamilton(H, params),
                    _check_cycle(H),
                )
            )
    return ops


# The median latency falls among the n=66 operations and most of a pass is
# spent on n=56..76, so those sizes get three hosts each: the median and the
# pass time then average over several host draws instead of following one.
ABSORB_HOSTS = (
    ((36, 0.8), (46, 0.82)) + ((56, 0.84),) * 3 + ((66, 0.85),) * 3 + ((76, 0.86),) * 3
    + ((86, 0.88), (96, 0.9))
)
GADGET_HOSTS = ((120, 0.85), (150, 0.85))
# a gadget run's cost depends on its seed (a few take twice as long), so a
# pass averages over twelve of them
GADGET_RUNS_PER_HOST = 6


def pipeline_absorb(seed: int) -> list[Op]:
    return _pipeline_ops(seed, ABSORB_HOSTS, 6, "pipeline_absorb")


def pipeline_gadget(seed: int) -> list[Op]:
    return _pipeline_ops(seed, GADGET_HOSTS, GADGET_RUNS_PER_HOST, "pipeline_gadget")


# -- sampled density ------------------------------------------------------------

DENSITY_N = 120
DENSITY_HP_P = 0.6
DENSITY_D = "3/10"
DENSITY_BUDGETS = {"ev": 10_000, "vvv": 60, "ee": 40}


def _check_report(notion, d, budget):
    """Recount the witness in integer arithmetic; ``budget`` is the proposal
    budget a sampled search must have reached (None in exact mode)."""

    def check(out) -> Facts:
        H, rep = out
        got = Fraction(*rep.raw_fraction)
        if _recount[notion](H, d, *_WITNESS[notion](rep.witness)) != got:
            return Facts(ok=False, why=f"{notion} witness does not recount to raw")
        rho = max(Fraction(0), -got) / Fraction(H.n) ** 3
        if rep.rho_hat != float(rho):
            return Facts(ok=False, why=f"{notion} rho_hat disagrees with raw")
        if budget is not None and (rep.samples or 0) < budget:
            return Facts(ok=False, why=f"{notion} stopped before its proposal budget")
        return Facts(ok=True, found=rep.rho_hat > 0, rho_hat=rep.rho_hat)

    return check


_WITNESS = {
    "ev": lambda w: (w["X"], [tuple(pq) for pq in w["P"]]),
    "vvv": lambda w: (w["X"], w["Y"], w["Z"]),
    "ee": lambda w: ([tuple(pq) for pq in w["P"]], [tuple(pq) for pq in w["Q"]]),
}


def _density_op(family, n, p, hseed, notion, sseed) -> Op:
    budget = DENSITY_BUDGETS[notion]

    def call():
        if family == "example1":
            H = constructions.example1(n, hseed)
        else:
            H = constructions.hp_construction(n, p, hseed)
        H.link_pairs(0)  # the first link query builds the link cache
        search = getattr(density, f"{notion}_deviation")
        return H, search(H, DENSITY_D, mode="sampled", samples=budget, seed=sseed)

    desc = (family, n, p, hseed, notion, DENSITY_D, budget, sseed)
    return Op(notion + "_sampled", desc, call, _check_report(notion, DENSITY_D, budget))


def density_sampled(seed: int) -> list[Op]:
    # warm the host builders on fixed small hosts; the timed operations
    # build their own hosts
    constructions.example1(60, 0).link_pairs(0)
    constructions.hp_construction(60, DENSITY_HP_P, 0).link_pairs(0)
    rng = random.Random(f"density_sampled:{seed}")
    ops = []
    for i in range(18):
        family = ("example1", "hp")[i % 2]
        p = 0.5 if family == "example1" else DENSITY_HP_P
        notion = ("ev", "vvv", "ee")[i % 3]
        ops.append(_density_op(family, DENSITY_N, p, rng.randrange(2**31), notion, rng.randrange(2**31)))
    return ops


# -- exact ----------------------------------------------------------------------


def host_from_hex(n: int, edges_hex: str):
    """Decode the reference table's host: bit i marks the i-th triple of
    ``range(n)`` in lexicographic order."""
    bitsint = int(edges_hex, 16)
    triples = [t for i, t in enumerate(combinations(range(n), 3)) if (bitsint >> i) & 1]
    return hypercore.from_edges(n, triples)


def _exact_op(slot: dict, entry: dict, H) -> Op:
    call_name = slot["call"]
    desc = (slot["slot"], entry["host_seed"])

    if call_name in ("ev_deviation", "vvv_deviation", "ee_deviation"):
        notion = call_name.split("_")[0]
        d = slot["d"]
        want = Fraction(*entry["raw"])
        recheck = _check_report(notion, d, None)

        def call():
            return H, getattr(density, call_name)(H, d, mode="exact")

        def check(out) -> Facts:
            if Fraction(*out[1].raw_fraction) != want:
                return Facts(ok=False, why=f"{slot['slot']}: raw differs from reference")
            return recheck(out)

        return Op(slot["slot"], desc, call, check)

    want_ham = entry["hamiltonian"]

    def call():
        return getattr(oracle, call_name)(H)

    def check(out) -> Facts:
        if call_name == "extract_tight_hamilton":
            found = out is not None
            if found and not (sorted(out.vertices) == list(range(H.n)) and _verify_cycle(H, out.vertices)):
                return Facts(ok=False, why=f"{slot['slot']}: extracted cycle does not verify")
        else:
            found = bool(out)
        if found != want_ham:
            return Facts(ok=False, why=f"{slot['slot']}: answer differs from reference")
        return Facts(ok=True, found=found)

    return Op(slot["slot"], desc, call, check)


# ev at n=13 costs the same on every host of its slot.  One such call follows
# every other call, so the median latency is an ev n=13 call and its samples
# are spread over the whole pass rather than taken in one burst.
SPREAD_SLOT = "ev13"


def exact(seed: int) -> list[Op]:
    """Build every host of the reference table, then draw one host per slot
    and, after each, an ev n=13 host drawn on its own."""
    table = json.loads(REFERENCE.read_text())
    hosts = {}
    for slot in table["slots"]:
        for entry in slot["entries"]:
            H = host_from_hex(slot["n"], entry["edges"])
            H.link_pairs(0)
            hosts[slot["slot"], entry["host_seed"]] = H
    rng = random.Random(f"exact:{seed}")
    spread = next(slot for slot in table["slots"] if slot["slot"] == SPREAD_SLOT)
    ops = []
    for slot in table["slots"]:
        if slot is spread:
            continue
        for drawn in (slot, spread):
            entry = rng.choice(drawn["entries"])
            ops.append(_exact_op(drawn, entry, hosts[drawn["slot"], entry["host_seed"]]))
    return ops


WORKLOADS = {
    "pipeline_absorb": pipeline_absorb,
    "pipeline_gadget": pipeline_gadget,
    "density_sampled": density_sampled,
    "exact": exact,
}
