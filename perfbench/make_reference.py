#!/usr/bin/env python3
"""Build ``exact_reference.json``, the answers the ``exact`` workload checks.

Each slot is one kind of exact call on one host size; each of its entries
is a host (stored as a bitmask over the lexicographic triples of
``range(n)``) with the library's answer.  Every answer is cross-checked
before it is stored, wherever an independent method fits:

- ev at n=5 and vvv at n=6 against ``tests/oracles.py`` (brute_ev_raw,
  brute_vvv_raw), which enumerate every subset sum;
- ee at n=5 against a decomposition over the middle vertex written here
  (``brute_ee_raw`` is limited to n <= 4);
- Hamiltonicity at n <= 10 against ``tests/oracles.naive_tight_hamilton``,
  and the permutation oracle against the subset DP;
- ``example1`` hosts must be non-Hamiltonian, as the construction proves.

Larger slots (ev at n=12..14, vvv at n=8..9, DP at n=14..16) have no
cross-check that fits and rely on the library's exact enumeration.

Run from the repository root: ``python3 perfbench/make_reference.py``.
"""

from __future__ import annotations

import json
import sys
from fractions import Fraction
from itertools import combinations
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "tests"))

import numpy as np  # noqa: E402

from tightcycles import constructions, density, oracle  # noqa: E402
from tightcycles.hypercore import from_edges  # noqa: E402

import oracles  # noqa: E402  (tests/oracles.py)

POOL = 12  # hosts per slot; the workload seed picks one per slot

# (slot, call, family, n, p, d); "random" hosts have exactly round(p * C(n, 3))
# edges, so the cost of an exact call varies little between the hosts of a slot
SLOTS = (
    ("ee5", "ee_deviation", "random", 5, 0.5, "1/2"),
    ("vvv9", "vvv_deviation", "random", 9, 0.5, "1/2"),
    ("vvv8", "vvv_deviation", "random", 8, 0.5, "1/2"),
    ("vvv6", "vvv_deviation", "random", 6, 0.5, "1/2"),
    ("ev14", "ev_deviation", "random", 14, 0.5, "1/2"),
    ("ev13", "ev_deviation", "random", 13, 0.5, "1/2"),
    ("ev12", "ev_deviation", "random", 12, 0.5, "1/2"),
    ("ev5", "ev_deviation", "random", 5, 0.5, "1/2"),
    ("dp_example1_16", "has_tight_hamilton", "example1", 16, None, None),
    ("dp_example1_14", "has_tight_hamilton", "example1", 14, None, None),
    ("dp_example1_12", "has_tight_hamilton", "example1", 12, None, None),
    ("dp_random_16", "extract_tight_hamilton", "random", 16, 0.5, None),
    ("dp_random_14", "extract_tight_hamilton", "random", 14, 0.5, None),
    ("dp_random_10", "extract_tight_hamilton", "random", 10, 0.5, None),
    ("exhaustive_9", "exhaustive_hamilton", "random", 9, 0.5, None),
)


def fixed_size_random(n: int, p: float, seed: int):
    """A uniformly random host with exactly round(p * C(n, 3)) edges."""
    triples = list(combinations(range(n), 3))
    rng = np.random.Generator(np.random.PCG64(seed))
    keep = rng.choice(len(triples), size=round(p * len(triples)), replace=False)
    return from_edges(n, [triples[i] for i in sorted(keep.tolist())])


def edges_hex(H) -> str:
    edges = set(map(tuple, H.edges()))
    bits = 0
    for i, t in enumerate(combinations(range(H.n), 3)):
        if t in edges:
            bits |= 1 << i
    return format(bits, "x")


def ee_by_middle_vertex(H, d) -> Fraction:
    """Exact ee minimum: for fixed P the best Q keeps the negative-margin
    pairs (y, z), and only the section S_y = {x : (x, y) in P} enters the
    terms with middle vertex y, so the minimum splits over y."""
    d = density.as_density_fraction(d)
    p, q = d.numerator, d.denominator
    n = H.n
    total = 0
    for y in range(n):
        others = [x for x in range(n) if x != y]
        best = 0
        for r in range(len(others) + 1):
            for S in combinations(others, r):
                s = sum(1 << x for x in S)
                val = 0
                for z in others:
                    m = (s & H.nbr_mask(y, z)).bit_count() * q - p * (s & ~(1 << z)).bit_count()
                    val += min(0, m)
                best = min(best, val)
        total += best
    return Fraction(total, q)


def entry_for(call, family, n, p, d, seed):
    H = constructions.example1(n, seed) if family == "example1" else fixed_size_random(n, p, seed)
    entry = {"host_seed": seed, "edges": edges_hex(H)}
    if d is not None:
        rep = getattr(density, call)(H, d, mode="exact")
        raw = Fraction(*rep.raw_fraction)
        entry["raw"] = [raw.numerator, raw.denominator]
        brute = None
        if call == "ev_deviation" and n <= 5:
            brute, entry["checked_by"] = oracles.brute_ev_raw(H, d), "brute_ev_raw"
        elif call == "vvv_deviation" and n <= 6:
            brute, entry["checked_by"] = oracles.brute_vvv_raw(H, d), "brute_vvv_raw"
        elif call == "ee_deviation":
            brute, entry["checked_by"] = ee_by_middle_vertex(H, d), "ee_by_middle_vertex"
        if brute is not None and brute != raw:
            raise SystemExit(f"{call} n={n} seed={seed}: library {raw} != check {brute}")
        return entry
    ham = oracle.has_tight_hamilton(H)
    entry["hamiltonian"] = ham
    checks = []
    if n <= 10:
        checks.append(("naive_tight_hamilton", oracles.naive_tight_hamilton(H)))
    if n <= 9:
        checks.append(("exhaustive_hamilton", oracle.exhaustive_hamilton(H)))
    if family == "example1":
        checks.append(("example1 construction", False))
    for name, want in checks:
        if want != ham:
            raise SystemExit(f"{call} n={n} seed={seed}: DP says {ham}, {name} says {want}")
    if checks:
        entry["checked_by"] = ", ".join(name for name, _ in checks)
    return entry


def main() -> int:
    slots = []
    for slot, call, family, n, p, d in SLOTS:
        entries = [entry_for(call, family, n, p, d, seed) for seed in range(POOL)]
        spec = {"slot": slot, "call": call, "family": family, "n": n, "p": p, "d": d}
        slots.append(dict(spec, entries=entries))
        print(slot, "done", flush=True)
    out = {"schema_version": 1, "pool": POOL, "slots": slots}
    (HERE / "exact_reference.json").write_text(json.dumps(out, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
