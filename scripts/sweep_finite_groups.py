#!/usr/bin/env python3
"""Build the finite truncated groups over the small quotient algebras and
report orders, lower central series, derived series, and filtration bounds.

The environment variable STEENROD_LIMIT caps the group orders, as for the
CLI; a group above it ends the run with exit 2.

Usage: python3 scripts/sweep_finite_groups.py [--p P]
"""

import argparse
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from steenrodgroup.algebra import SteenrodError
from steenrodgroup.grouptheory import (
    SWEEP_GRID,
    check_filtration_bounds,
    derived_series,
    enumerate_group,
    ev_subgroup_series,
    lower_central_series,
)
from steenrodgroup.hopf import milnor_quotient


def run(prime=None) -> int:
    failed = 0
    for p, n in SWEEP_GRID:
        if prime not in (None, p):
            continue
        hp = milnor_quotient(p, n)
        t0 = time.monotonic()
        G = enumerate_group(hp.algebra, n, p)
        lcs = lower_central_series(G)
        dser = derived_series(G)
        bounds_ok = check_filtration_bounds(G)
        dt = time.monotonic() - t0
        print(
            f"p={p} n={n} {hp.label:8s} order={G.order:6d} "
            f"lcs={lcs.sizes} class={lcs.length} (bound {lcs.bound}, ok={lcs.ok}) "
            f"derived={dser.sizes} filtration_ok={bounds_ok} [{dt:.2f}s]"
        )
        if p != 2:
            ev = ev_subgroup_series(hp.algebra, n, p)
            print(
                f"          eps-free subgroup: sizes={ev.sizes} "
                f"class={ev.length} (bound {ev.bound}, ok={ev.ok})"
            )
            if ev.ok is False:
                failed += 1
        if lcs.ok is False or not bounds_ok:
            failed += 1
    return 1 if failed else 0


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    primes = sorted({p for p, _ in SWEEP_GRID})
    ap.add_argument("--p", type=int, choices=primes, help="restrict to one prime")
    args = ap.parse_args()
    try:
        return run(args.p)
    except SteenrodError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
