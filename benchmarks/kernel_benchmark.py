#!/usr/bin/env python3
"""Benchmark the compiled kernels against the pure-Python fallbacks.

Times the Hamilton subset DP and the three exact deviation enumerations on
matched inputs and prints a speedup table.
"""

import argparse
import time

from tightcycles import _pykernels, constructions as cons
from tightcycles.kernels import HAS_COMPILED


def timed(fn, *args, repeat=1):
    best = float("inf")
    result = None
    for _ in range(repeat):
        t0 = time.perf_counter()
        result = fn(*args)
        best = min(best, time.perf_counter() - t0)
    return best, result


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--repeat", type=int, default=2)
    args = parser.parse_args()

    if not HAS_COMPILED:
        raise SystemExit("compiled extension not available; build it first")
    from tightcycles import _kernels

    cases = []

    H = cons.random(15, 0.55, 3)
    cases.append(
        ("hamilton DP n=15", "tight_hamilton_cycle", (H.n, H.nbr_flat()))
    )
    E = cons.example1(16, 5)
    cases.append(
        ("hamilton DP n=16 (two-colouring)", "tight_hamilton_cycle", (E.n, E.nbr_flat()))
    )
    H2 = cons.random(14, 0.5, 7)
    off, la, lb = H2.link_lists()
    cases.append(("ev exact n=14", "ev_exact", (H2.n, off, la, lb, 1, 4)))
    H3 = cons.random(9, 0.5, 11)
    off3, ia3, ib3 = H3.link_lists()
    cases.append(("vvv exact n=9", "vvv_exact", (H3.n, off3, ia3, ib3, 1, 4)))
    H4 = cons.random(5, 0.5, 13)
    cases.append(("ee exact n=5", "ee_exact", (H4.n, H4.nbr_flat(), 1, 4)))

    print(f"{'case':36} {'pure (s)':>10} {'compiled (s)':>13} {'speedup':>9}")
    for name, fname, fargs in cases:
        t_pure, r_pure = timed(getattr(_pykernels, fname), *fargs, repeat=args.repeat)
        t_fast, r_fast = timed(getattr(_kernels, fname), *fargs, repeat=args.repeat)
        if fname == "tight_hamilton_cycle":
            agree = (r_pure is None) == (r_fast is None)
        else:
            agree = r_pure[0] == r_fast[0]
        flag = "" if agree else "  MISMATCH!"
        print(f"{name:36} {t_pure:10.4f} {t_fast:13.4f} {t_pure / t_fast:8.1f}x{flag}")


if __name__ == "__main__":
    main()
