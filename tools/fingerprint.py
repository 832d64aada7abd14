#!/usr/bin/env python3
"""A fingerprint of the library's results, to show that a change keeps them.

    python3 tools/fingerprint.py --seeds 1 2

Runs, on the library in this checkout's ``src``:

- every operation of the four benchmark workloads (``perfbench/workloads.py``)
  at each given seed;
- criterion 6's five pipeline hosts at seeds 0-19, with ``retries=2``;
- the double-apex gadget search and ``motifs.find_c8_blowup`` (with and
  without an avoided set, at t = 2, 3 and 4) on ``random(40, 0.9, s)``,
  s = 0-5, hosts where the gadget exists.

It prints one line per group and a total line, each with a result count and
a sha256 over the pickled results in order.  The density and exact groups'
results hold their hosts, and a host pickles together with its pair index, so
those groups pin the index as well as the search results.  Two checkouts
whose results are identical print the same lines; a change that claims
unchanged outputs should print its parent's hashes.
"""

import os

# pin the numeric libraries to one thread before numpy is first imported
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import pickle  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import workloads  # noqa: E402
from tightcycles import constructions as cons  # noqa: E402
from tightcycles import hamilton, motifs  # noqa: E402


def _workload(name: str, seeds):
    for seed in seeds:
        for op in workloads.WORKLOADS[name](seed):
            yield op.call()


def _criterion_6():
    for seed in range(20):
        hosts = [
            cons.random(14, 0.5, seed),
            cons.random(18, 0.7, seed),
            cons.random(24, 0.8, seed),
            cons.random(36, 0.9, seed),
            cons.example1(14, seed),
        ]
        for H in hosts:
            yield hamilton.find_tight_hamilton(H, hamilton.PipelineParams(seed=seed, retries=2))


def _gadget():
    avoid = range(0, 40, 5)
    for s in range(6):
        H = cons.random(40, 0.9, s)
        yield motifs._find_double_apex_gadget(H, s)
        yield motifs._find_double_apex_gadget(H, s, avoid_mask=sum(1 << v for v in avoid))
        # t = 4 grows from both seeds and fails; t = 3 and 2 find a blow-up
        yield motifs.find_c8_blowup(H, seed=s)
        yield motifs.find_c8_blowup(H, seed=s, t=3)
        yield motifs.find_c8_blowup(H, seed=s, t=2, avoid=avoid)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seeds", type=int, nargs="+", default=[1, 2], help="workload seeds")
    args = ap.parse_args(argv)
    groups = {name: _workload(name, args.seeds) for name in workloads.WORKLOADS}
    groups["criterion_6"] = _criterion_6()
    groups["c8_blowup"] = _gadget()
    total, total_count = hashlib.sha256(), 0
    for name, results in groups.items():
        digest, count = hashlib.sha256(), 0
        for result in results:
            blob = pickle.dumps(result, protocol=4)
            digest.update(blob)
            total.update(blob)
            count += 1
        total_count += count
        print(f"{name:16} {count:4} {digest.hexdigest()}", flush=True)
    print(f"{'total':16} {total_count:4} {total.hexdigest()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
