#!/usr/bin/env python3
"""Benchmark harness for tightcycles.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload (see ``workloads.py``) as a closed loop: a single client
in one process issues the workload's fixed operation list, pass after pass,
until ``--seconds`` have elapsed, and checks every result.  With
``--trace 0`` it prints the end-to-end metrics; with ``--trace 1`` it runs
half the time untraced and half traced and prints the per-layer metrics.
The last line of standard output is one JSON object; the lines before it
repeat every metric by name with its unit, plus run metadata.

The library is imported from ``src/`` next to this directory, never from an
installed copy, so the benchmark fails (exit code 2, no result) when the
sources are missing.
"""

import os

# pin the numeric libraries to one thread before numpy is first imported
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter, process_time  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
# set-up is repeated at least 3 times, and up to 25 times until it took a second
SETUP_REPEATS = (3, 25)
SETUP_MIN_SECONDS = 1.0

# name -> unit; the end-to-end metrics listed in BENCHMARK.json
END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_p50_s": "s",
    "found_rate": "ratio",
    "peak_rss_mb": "MB",
}


def _load():
    """Import the library from this checkout's ``src`` and the workloads."""
    sys.path.insert(0, str(SRC))
    import tightcycles

    if Path(tightcycles.__file__).resolve().parent.parent != SRC.resolve():
        raise ImportError(f"tightcycles imported from {tightcycles.__file__}, not {SRC}")
    import numpy
    import tracing
    import workloads
    from tightcycles import constructions, density, hamilton, hypercore, kernels, motifs, oracle

    modules = dict(
        constructions=constructions, density=density, hamilton=hamilton,
        hypercore=hypercore, motifs=motifs, oracle=oracle, backend=kernels.backend(),
    )
    return numpy, tracing, workloads, kernels, modules


def _commit() -> str:
    """HEAD of the checkout's git metadata, read directly, if there is any."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


class Loop:
    """Runs whole passes over the operation list and keeps every outcome."""

    def __init__(self, ops):
        self.ops = ops
        self.tracer = None  # set to trace the following passes
        self.latencies: list[float] = []
        self.first_facts = None
        self.units: list[str] = []  # one label per pass, in order
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def run(self, seconds: float, label: str) -> float:
        """Passes until ``seconds`` are used up (at least one).  Returns
        operations per second over the list, with each operation's time
        taken as its median over these passes, so a pass slowed by another
        load on the machine does not set the result."""
        first = len(self.latencies)
        busy = 0.0
        while True:
            self.units.append(f"{label}{len(self.units) + 1}")
            busy += self._one_pass(self.units[-1])
            passes = (len(self.latencies) - first) // len(self.ops)
            if busy + busy / passes / 2 >= seconds:
                break
        per_op = [statistics.median(self.latencies[first + i :: len(self.ops)]) for i in range(len(self.ops))]
        return len(self.ops) / sum(per_op)

    def _one_pass(self, unit: str) -> float:
        facts_now = []
        total = 0.0
        for i, op in enumerate(self.ops):
            call = op.call
            if self.tracer is not None:
                self.tracer.unit, self.tracer.op = unit, f"{unit}:{i}"
                call = self.tracer.wrap("op." + op.kind, op.call)
            t0 = perf_counter()
            try:
                out = call()
                err = None
            except Exception:  # a failing operation is counted, never fatal
                err = traceback.format_exc(limit=3)
            dt = perf_counter() - t0
            total += dt
            self.latencies.append(dt)
            if err is None:
                try:
                    facts = op.check(out)
                except Exception:
                    err = traceback.format_exc(limit=3)
            if err is not None:
                facts = None
                self._fail(f"{op.kind} raised:\n{err}")
            elif not facts.ok:
                self._fail(f"{op.kind}: {facts.why}")
            elif self.first_facts is not None and facts != self.first_facts[i]:
                self._fail(f"{op.kind}: result differs from the first pass")
            self.attempted += 1
            facts_now.append(facts)
        if self.first_facts is None:
            self.first_facts = facts_now
        return total

    def _fail(self, why: str) -> None:
        self.failed += 1
        if len(self.errors) < 5:
            self.errors.append(why)


def _fingerprint(ops) -> str:
    desc = json.dumps([(op.kind, list(op.desc)) for op in ops])
    return hashlib.sha256(desc.encode()).hexdigest()[:16]


def _setup(build, seed, low, high):
    """Build the operation list at least ``low`` times, and up to ``high``
    times until a second is spent; returns the last build and the times."""
    times = []
    ops = None
    while len(times) < low or (len(times) < high and sum(times) < SETUP_MIN_SECONDS):
        ops = None  # drop the previous hosts before building again
        t0 = perf_counter()
        ops = build(seed)
        times.append(perf_counter() - t0)
    return ops, times


def _quality(loop, kinds):
    """found_rate and rho_hat_mean of the first pass (they repeat exactly)."""
    pairs = [(f, k) for f, k in zip(loop.first_facts, kinds) if f is not None]
    found_rate = sum(f.found for f, _ in pairs) / len(kinds)
    rhos = [f.rho_hat for f, k in pairs if k.endswith("_sampled") and f.rho_hat is not None]
    return found_rate, (sum(rhos) / len(rhos) if rhos else None)


def _print_metric(name, value, unit, note=""):
    print(f"  {name:<34} {value!r:>24} {unit}{note}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    try:
        numpy, tracing, workloads, kernels, modules = _load()
    except ImportError as exc:
        print(f"cannot import the library from {SRC}: {exc}", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        names = ", ".join(sorted(workloads.WORKLOADS))
        print(f"unknown workload {args.workload!r}; choose from {names}", file=sys.stderr)
        return 2

    meta = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "backend": kernels.backend_name(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "commit": _commit(),
        "threads": {v: os.environ[v] for v in THREAD_VARS},
        "clients": 1,
        "loop": "closed",
    }

    tracer = tracing.Tracer() if args.trace else None
    wall0, cpu0 = perf_counter(), process_time()
    if tracer is None:
        ops, setup_times = _setup(workloads.WORKLOADS[args.workload], args.seed, *SETUP_REPEATS)
        loop = Loop(ops)
        rate = loop.run(args.seconds, "pass")
    else:
        tracer.install(modules)
        try:
            build = tracer.wrap("setup", workloads.WORKLOADS[args.workload])
            ops, setup_times = _setup(build, args.seed, 1, 1)
            tracer.restore()
            loop = Loop(ops)
            base_rate = loop.run(args.seconds / 2, "untraced")
            tracer.install(modules)
            loop.tracer = tracer
            rate = loop.run(args.seconds / 2, "traced")
        finally:
            tracer.restore()
    # below 1 when the machine took the CPU away (steal) during the run
    meta["cpu_share"] = (process_time() - cpu0) / (perf_counter() - wall0)
    kinds = [op.kind for op in ops]
    meta["ops_per_pass"] = len(ops)
    meta["inputs"] = _fingerprint(ops)
    found_rate, rho_hat_mean = _quality(loop, kinds)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    correct = loop.failed == 0

    print("meta " + json.dumps(meta, sort_keys=True))
    if tracer is None:
        lat = loop.latencies
        metrics = {
            "setup_s": statistics.median(setup_times),
            "ops_per_s": rate,
            "op_p50_s": statistics.median(lat),
            "found_rate": found_rate,
            "peak_rss_mb": rss_mb,
        }
        print(f"end-to-end metrics ({len(lat)} operations in {len(loop.units)} passes, "
              f"{len(setup_times)} set-ups):")
        for name, unit in END_TO_END.items():
            _print_metric(name, metrics[name], unit)
        _print_metric("fail_share", loop.failed / loop.attempted, "ratio")
        if len(lat) * 0.1 >= 10:
            p90 = statistics.quantiles(lat, n=10)[-1]
            _print_metric("op_p90_s", p90, "s", f"  (n={len(lat)})")
        else:
            print(f"  op_p90_s: not reported, {len(lat)} operations leave fewer than 10 beyond it")
        if rho_hat_mean is not None:
            _print_metric("rho_hat_mean", rho_hat_mean, "rho")
        units = {name: END_TO_END[name] for name in metrics}
    else:
        units_agg = tracer.aggregate()
        passes = [u for u in loop.units if u.startswith("traced")]
        first = tracing.counts_of(units_agg, passes[0])
        for p in passes[1:]:
            if tracing.counts_of(units_agg, p) != first:
                correct = False
                loop.errors.append(f"traced counts of {p} differ from {passes[0]}")
        metrics = tracing.layer_metrics(units_agg, passes, loop.first_facts, kinds)
        traced_spans = sum(1 for s in tracer.spans if s[4] == passes[0])
        metrics.update({
            "trace.op_s": len(ops) / rate,
            "trace.spans": traced_spans,
            "trace.ops_per_s": rate,
            "trace.untraced_ops_per_s": base_rate,
            "trace.overhead_share": 1 - rate / base_rate,
        })
        print(f"per-layer metrics (one set-up plus one pass of {len(ops)} operations; "
              f"{len(passes)} traced passes):")
        for name, (unit, _better) in tracing.PER_LAYER.items():
            _print_metric(name, metrics[name], unit)
        units = {name: tracing.PER_LAYER[name][0] for name in metrics}
        out = HERE / "out" / f"trace-{args.workload}-{args.seed}.jsonl"
        tracer.write(out, meta)
        print(f"spans written to {out.relative_to(ROOT)}")
    print("facts " + json.dumps({
        "inputs": meta["inputs"],
        "found_rate": found_rate,
        "rho_hat_mean": rho_hat_mean,
    }, sort_keys=True))
    for why in loop.errors:
        print("FAILED " + why, file=sys.stderr)
    print(json.dumps({
        "correct": correct,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
