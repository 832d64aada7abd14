#!/usr/bin/env python3
"""Check that a workload's counts repeat exactly per seed.

    python3 perfbench/check_repeat.py [--seed N] [--seconds S] [WORKLOAD ...]

For each workload (default: all) it makes two traced runs with ``--seed N``
and one with ``--seed N+1``.  The two same-seed runs must agree exactly on
the input fingerprint, ``found_rate``, ``rho_hat_mean`` and every per-layer
count (calls, found ratios, proposals, rho_hat, the ``fail_stage``
histogram); the other seed must produce different inputs.  Exits 1 on any
mismatch.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("pipeline_absorb", "pipeline_gadget", "density_sampled", "exact")
TIMED_UNITS = ("s", "1/s")


def traced_run(workload: str, seed: int, seconds: float) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "1"]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True).stdout
    lines = out.strip().splitlines()
    facts = json.loads(next(l for l in lines if l.startswith("facts "))[6:])
    result = json.loads(lines[-1])
    counts = {
        name: m["value"]
        for name, m in result["metrics"].items()
        if m["unit"] not in TIMED_UNITS and not name.startswith("trace.overhead")
    }
    return {"correct": result["correct"], "facts": facts, "counts": counts}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=4)
    ap.add_argument("workloads", nargs="*", default=list(WORKLOADS))
    args = ap.parse_args()
    bad = 0
    for w in args.workloads:
        a, b, other = (traced_run(w, s, args.seconds) for s in (args.seed, args.seed, args.seed + 1))
        problems = [f"run {i} not correct" for i, r in enumerate((a, b, other)) if not r["correct"]]
        if a["facts"] != b["facts"]:
            problems.append(f"facts differ: {a['facts']} vs {b['facts']}")
        diff = sorted(k for k in a["counts"] if a["counts"][k] != b["counts"].get(k))
        if diff:
            pairs = (f"{k} {a['counts'][k]} vs {b['counts'][k]}" for k in diff)
            problems.append("counts differ: " + ", ".join(pairs))
        if other["facts"]["inputs"] == a["facts"]["inputs"]:
            problems.append(f"seeds {args.seed} and {args.seed + 1} give the same inputs")
        print(f"{w}: " + ("; ".join(problems) if problems else f"{len(a['counts'])} counts repeat exactly"))
        bad += bool(problems)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
