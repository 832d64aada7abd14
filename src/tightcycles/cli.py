"""Command-line front end: generation, measurement, gadget search, the
assembly pipeline and the exact oracle, with human tables or machine JSON.

Exit codes: 0 verified success, 1 legitimate absence (searched, not found),
2 usage error, including a file that cannot be read or written, 3 budget or
precondition violation, 4 internal error, including a result that failed its
re-verification (``UncertifiedResult``).  Codes 2, 3 and 4 raised by a running
command carry a JSON diagnostic on stderr; code 4 adds the traceback.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time
import traceback
from typing import Optional

from . import constructions, density, hamilton, motifs, oracle
from .errors import BudgetError, UncertifiedResult
from .hypercore import Hypergraph3, read_h3, verify_tight_cycle, write_h3

SCHEMA_VERSION = 3


def _digest(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _instance(path: str) -> tuple[Hypergraph3, dict]:
    H = read_h3(path)
    return H, {"file": path, "n": H.n, "m": H.m, "sha256": _digest(path)}


def _emit(args, payload: dict, timings: dict) -> None:
    report = {
        "schema_version": SCHEMA_VERSION,
        "command": " ".join(sys.argv[1:]),
        "seed": getattr(args, "seed", None),
        "result": payload,
    }
    if args.format == "json":
        report["timings"] = timings
        print(json.dumps(report, sort_keys=True, default=str))
    else:
        for key, value in payload.items():
            print(f"{key}: {value}")
        print(f"elapsed: {timings.get('total', 0):.3f}s")


def _parse_pair(text: str) -> tuple[int, int]:
    parts = text.split(",")
    if len(parts) != 2:
        raise argparse.ArgumentTypeError("expected 'a,b'")
    return int(parts[0]), int(parts[1])


def _parse_ints(text: str) -> list[int]:
    return [int(p) for p in text.split(",") if p != ""]


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(prog="tightcycles", description=__doc__)
    top.add_argument("--format", choices=("json", "text"), default="json")
    top.add_argument("--strict", action="store_true",
                     help="require an explicit --seed on randomized subcommands")
    sub = top.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen", help="generate an instance and write .h3")
    g.add_argument("--family", required=True, choices=constructions.FAMILIES)
    g.add_argument("--n", type=int, default=0)
    g.add_argument("--p", type=float, default=0.5)
    g.add_argument("--seed", type=int, default=None)
    g.add_argument("--xy-edges", action="store_true")
    g.add_argument("--t", type=int, default=4)
    g.add_argument("--host", help="host .h3 file (blowup family only)")
    g.add_argument("-o", "--output", required=True)

    d = sub.add_parser("density", help="deviation of one uniform-density notion")
    d.add_argument("--notion", required=True, choices=("vvv", "ev", "ee"))
    d.add_argument("--d", required=True,
                   help="target density (decimal string or fraction, e.g. 0.25 or 1/4)")
    d.add_argument("--mode", required=True, choices=("exact", "heuristic", "sampled"))
    d.add_argument("--samples", type=int, default=100000)
    d.add_argument("--restarts", type=int, default=32)
    d.add_argument("--seed", type=int, default=None)
    d.add_argument("file")

    m = sub.add_parser("motifs", help="count or find structural gadgets")
    mx = m.add_mutually_exclusive_group(required=True)
    mx.add_argument("--count", choices=("k4minus", "cherries", "embeddings"))
    mx.add_argument("--find", choices=("turn", "k333", "c8", "c84"))
    m.add_argument("--cap", type=int, default=None)
    m.add_argument("--sampled", action="store_true",
                   help="sampled estimate instead of exact count (k4minus)")
    m.add_argument("--samples", type=int, default=2000)
    m.add_argument("--seed", type=int, default=None)
    m.add_argument("--pattern", help="pattern .h3 file for embeddings")
    m.add_argument("--mode", choices=("injective", "homomorphic"), default="injective")
    m.add_argument("--budget", type=int, default=200000)
    m.add_argument("--avoid", type=_parse_ints, default=[])
    m.add_argument("file")

    pipeline = hamilton.PipelineParams()
    h = sub.add_parser("hamilton", help="absorption pipeline operations")
    hsub = h.add_subparsers(dest="action", required=True)
    hf = hsub.add_parser("find", help="search for a tight Hamilton cycle")
    hf.add_argument("--beta", type=float, default=pipeline.beta)
    hf.add_argument("--gamma", type=float, default=pipeline.gamma)
    hf.add_argument("--retries", type=int, default=pipeline.retries)
    hf.add_argument("--seed", type=int, default=None)
    hf.add_argument("file")
    hc_ = hsub.add_parser("connect", help="tight path between two ordered pairs")
    hc_.add_argument("--from", dest="frm", type=_parse_pair, required=True)
    hc_.add_argument("--to", dest="to", type=_parse_pair, required=True)
    hc_.add_argument("--allowed", type=_parse_ints, default=None)
    hc_.add_argument("--max-inner", type=int, default=hamilton.MAX_INNER)
    hc_.add_argument("--lengths", type=_parse_ints, default=None)
    hc_.add_argument("--budget", type=int, default=hamilton.CONNECT_BUDGET)
    hc_.add_argument("--seed", type=int, default=None)
    hc_.add_argument("file")
    hcv = hsub.add_parser("cover", help="almost cover by connectable paths")
    hcv.add_argument("--beta", type=float, default=pipeline.beta)
    hcv.add_argument("--gamma", type=float, default=pipeline.gamma)
    hcv.add_argument("--seed", type=int, default=None)
    hcv.add_argument("file")

    o = sub.add_parser("oracle", help="exact small-scale ground truth")
    osub = o.add_subparsers(dest="action", required=True)
    oh = osub.add_parser("hamilton", help="decide tight Hamiltonicity exactly")
    oh.add_argument("--extract", action="store_true")
    oh.add_argument("file")
    oc = osub.add_parser("count-paths", help="exact bounded path count")
    oc.add_argument("--from", dest="frm", type=_parse_pair, required=True)
    oc.add_argument("--to", dest="to", type=_parse_pair, required=True)
    oc.add_argument("--inner", type=int, required=True)
    oc.add_argument("file")

    b = sub.add_parser("bench", help="run the acceptance criteria")
    b.add_argument("--criteria", type=_parse_ints, default=None,
                   help="subset to run, e.g. 1,2,8")
    return top


RANDOMIZED = {"gen", "density", "motifs", "hamilton"}


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.strict and args.command in RANDOMIZED and getattr(args, "seed", None) is None:
        parser.error(f"--strict requires --seed for '{args.command}'")
    if getattr(args, "seed", None) is None and hasattr(args, "seed"):
        args.seed = 0
    t0 = time.perf_counter()
    try:
        code, payload = _dispatch(args)
    except Exception as exc:  # every failure leaves with its documented code
        diag = {"schema_version": SCHEMA_VERSION, "error": type(exc).__name__,
                "message": str(exc)}
        if isinstance(exc, OSError):
            code = 2
        elif isinstance(exc, (BudgetError, ValueError)):
            code = 3
        else:
            code = 4
            diag["traceback"] = traceback.format_exc()
        print(json.dumps(diag, sort_keys=True), file=sys.stderr)
        return code
    _emit(args, payload, {"total": time.perf_counter() - t0})
    return code


def _dispatch(args) -> tuple[int, dict]:
    cmd = args.command
    if cmd == "gen":
        if args.family == "blowup":
            if not args.host:
                raise ValueError("blowup generation needs --host file.h3")
            H = constructions.blowup(read_h3(args.host), args.t)
        else:
            spec = constructions.GenSpec(
                family=args.family, n=args.n, p=args.p, seed=args.seed,
                include_xy_edges=args.xy_edges, t=args.t,
            )
            H = constructions.generate(spec)
        write_h3(H, args.output)
        return 0, {"written": args.output, "n": H.n, "m": H.m,
                   "sha256": _digest(args.output)}

    if cmd == "density":
        H, meta = _instance(args.file)
        fn = {"vvv": density.vvv_deviation, "ev": density.ev_deviation,
              "ee": density.ee_deviation}[args.notion]
        from fractions import Fraction

        dval = Fraction(args.d)
        rep = fn(H, dval, mode=args.mode, samples=args.samples,
                 seed=args.seed, restarts=args.restarts)
        return 0, {"instance": meta, "report": rep.to_dict()}

    if cmd == "motifs":
        return _dispatch_motifs(args)
    if cmd == "hamilton":
        return _dispatch_hamilton(args)
    if cmd == "oracle":
        return _dispatch_oracle(args)
    if cmd == "bench":
        return _dispatch_bench(args)
    raise ValueError(f"unknown command {cmd}")


def _dispatch_motifs(args) -> tuple[int, dict]:
    H, meta = _instance(args.file)
    if args.count == "k4minus":
        if args.sampled:
            rep = motifs.sample_k4minus(H, samples=args.samples, seed=args.seed)
        else:
            rep = motifs.count_k4minus(H, cap=args.cap)
        return 0, {"instance": meta, "report": rep.to_dict()}
    if args.count == "cherries":
        rep = motifs.count_cherries(H, cap=args.cap)
        return 0, {"instance": meta, "report": rep.to_dict()}
    if args.count == "embeddings":
        if not args.pattern:
            raise ValueError("embeddings counting needs --pattern file.h3")
        F = read_h3(args.pattern)
        rep = motifs.count_embeddings(F, H, mode=args.mode, cap=args.cap)
        return 0, {"instance": meta, "report": rep.to_dict()}
    if args.find == "turn":
        turns = motifs.find_turns(H, samples=args.samples, seed=args.seed)
        payload = {"instance": meta, "found": len(turns),
                   "turns": [t.vertices() for t in turns[:50]]}
        return (0 if turns else 1), payload
    if args.find == "k333":
        out = motifs.find_k333(H, avoid=args.avoid, tries=args.samples, seed=args.seed)
        return (0 if out else 1), {"instance": meta, "gadget": out}
    if args.find == "c8":
        out = motifs.find_c8(H, budget=args.budget, avoid=args.avoid)
        return (0 if out else 1), {
            "instance": meta,
            "cycle": list(out.vertices) if out else None,
        }
    if args.find == "c84":
        out = motifs.find_c8_blowup(H, budget=args.budget, seed=args.seed,
                                    avoid=args.avoid)
        return (0 if out else 1), {"instance": meta, "classes": out}
    raise ValueError("nothing to do")


def _dispatch_hamilton(args) -> tuple[int, dict]:
    H, meta = _instance(args.file)
    if args.action == "find":
        params = hamilton.PipelineParams(
            beta=args.beta, gamma=args.gamma, retries=args.retries, seed=args.seed
        )
        cycle, trace = hamilton.find_tight_hamilton(H, params)
        if cycle is not None:
            return 0, {"instance": meta, "cycle": list(cycle.vertices),
                       "trace": trace}
        return 1, {"instance": meta, "cycle": None, "trace": trace}
    if args.action == "connect":
        allowed = args.allowed if args.allowed is not None else range(H.n)
        stats: dict = {}
        path = hamilton.connect(
            H, args.frm, args.to, allowed, max_inner=args.max_inner,
            budget=args.budget, seed=args.seed, lengths=args.lengths,
            stats=stats,
        )
        if path is not None:
            return 0, {"instance": meta, "path": list(path.vertices),
                       "stats": stats}
        return 1, {"instance": meta, "path": None, "stats": stats}
    if args.action == "cover":
        paths, uncovered = hamilton.almost_cover(
            H, args.beta, args.gamma, seed=args.seed
        )
        shortfall = len(uncovered) > hamilton.cover_target(args.gamma, H.n)
        return 0, {
            "instance": meta,
            "paths": [list(p.vertices) for p in paths],
            "uncovered": sorted(uncovered),
            "shortfall": shortfall,
        }
    raise ValueError("unknown hamilton action")


def _dispatch_oracle(args) -> tuple[int, dict]:
    H, meta = _instance(args.file)
    if args.action == "hamilton":
        if args.extract:
            cycle = oracle.extract_tight_hamilton(H)
            if cycle is not None:
                if not verify_tight_cycle(H, cycle.vertices):
                    raise UncertifiedResult("oracle cycle failed re-verification")
                return 0, {"instance": meta, "hamiltonian": True,
                           "cycle": list(cycle.vertices)}
            return 1, {"instance": meta, "hamiltonian": False, "cycle": None}
        res = oracle.has_tight_hamilton(H)
        return (0 if res else 1), {"instance": meta, "hamiltonian": res}
    if args.action == "count-paths":
        cnt = oracle.count_paths_between(H, args.frm, args.to, args.inner)
        return (0 if cnt else 1), {"instance": meta, "inner": args.inner,
                                   "count": cnt}
    raise ValueError("unknown oracle action")


def _dispatch_bench(args) -> tuple[int, dict]:
    from . import acceptance

    results = acceptance.run_all(numbers=args.criteria)
    rows = []
    all_pass = True
    for r in results:
        rows.append({"criterion": r.number, "name": r.name, "passed": r.passed,
                     "seconds": round(r.seconds, 2), "details": r.details})
        all_pass = all_pass and r.passed
        status = "PASS" if r.passed else "FAIL"
        print(f"[{status}] criterion {r.number:2d} {r.name} "
              f"({r.seconds:.1f}s)", file=sys.stderr)
    return (0 if all_pass else 1), {"criteria": rows, "all_pass": all_pass}


if __name__ == "__main__":
    sys.exit(main())
