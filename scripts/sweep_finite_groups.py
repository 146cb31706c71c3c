#!/usr/bin/env python3
"""Build the finite truncated groups over the small quotient algebras and
report orders, lower central series, derived series, filtration bounds and
the eps-free series: the rows of `grouptheory.sweep`, as `steenrodgroup
sweep` judges them.  Exit 1 if a row fails.

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
from steenrodgroup.grouptheory import SWEEP_GRID, sweep


def run(prime=None) -> int:
    failed, t0 = False, time.monotonic()
    for row in sweep(prime):
        G, lcs, ev = row.group, row.lower_central, row.ev
        print(
            f"p={G.p} n={G.n} {row.hopf.label:8s} order={G.order:6d} "
            f"lcs={lcs.sizes} class={lcs.length} (bound {lcs.bound}, ok={lcs.ok}) "
            f"derived={row.derived.sizes} filtration_ok={row.bounds_ok} [{time.monotonic() - t0:.2f}s]"
        )
        if ev is not None:
            print(f"          eps-free subgroup: sizes={ev.sizes} class={ev.length} (bound {ev.bound}, ok={ev.ok})")
        failed, t0 = failed or not row.ok, time.monotonic()
    return 1 if failed else 0


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--p", type=int, choices=sorted({p for p, _ in SWEEP_GRID}), help="restrict to one prime")
    args = ap.parse_args()
    try:
        return run(args.p)
    except SteenrodError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
