#!/usr/bin/env python3
"""Replay the forcing chain that pins down the minimal cocommutativity ideal.

Any monomial Hopf ideal I with cocommutative quotient must contain, step by
step:
  * odd p: t0 (otherwise the defect at t1 survives as x1(x)t0 - t0(x)x1),
    then x_i^p for each i (otherwise the defect at t_{i+1} resp. x_{i+1}
    survives with the Frobenius-power cross terms);
  * p = 2: z_i^2 for each i (otherwise the defect at z_{i+1} survives as
    z_i^2(x)z_i - z_i(x)z_i^2).
The script builds the partial quotients along the chain, prints the surviving
defect at each step, and confirms the final quotient is cocommutative.

Usage: python3 scripts/cocommutativity_minimality.py [--p P] [--N N]
"""

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from steenrodgroup.cli import MAX_N, at_most, positive, prime
from steenrodgroup.hopf import (
    HopfPresentation,
    cocommutativity_defect,
    level_mod_I,
    primitivity_check,
    quotient,
)


def partial_quotient(p: int, N: int, upto: int, kill_t0: bool) -> HopfPresentation:
    """Quotient killing t0 (if requested) and g_i^p for i <= upto only; the
    other g_i keep cap p^2."""
    taus = range(1 if kill_t0 else 0, N + 1)
    return quotient(p, N, 0, f"partial({upto},{kill_t0})", lambda i: p if i <= upto else p * p, taus)


def surviving_defects(hp: HopfPresentation):
    return [(name, t) for name, t in cocommutativity_defect(hp) if not t.is_zero()]


def run(p: int, N: int) -> int:
    print(f"== forcing chain for p = {p}, N = {N} ==")
    if p != 2:
        hp = partial_quotient(p, N, N, kill_t0=False)
        bad = surviving_defects(hp)
        print(f"keep t0, kill all x_i^p  -> defects at {[n for n, _ in bad]}")
        print(f"  first witness: mu - T mu at {bad[0][0]} = {bad[0][1]}")
        assert any(n == "t1" for n, _ in bad), "t0 must be forced into the ideal"
    # the defect at g_{i+1} forces g_i^p, so the chain is visible for i < N;
    # the top generator's power is forced the same way at the next index
    for upto in range(0, N - 1):
        hp = partial_quotient(p, N, upto, kill_t0=True)
        bad = surviving_defects(hp)
        print(f"kill {hp.xi_name('_i')}^{p} for i <= {upto} -> defects at {[n for n, _ in bad]}")
        assert bad, f"{hp.xi_name(upto + 1)}^{p} must be forced into the ideal"
        print(f"  first witness: mu - T mu at {bad[0][0]} = {bad[0][1]}")
    final = level_mod_I(p, 0, N)  # A/I<0>
    bad = surviving_defects(final)
    print(f"full quotient            -> defects at {[n for n, _ in bad]}")
    assert not bad, "the full quotient must be cocommutative"
    assert primitivity_check(final), "generators must be primitive"
    print("chain complete: every smaller monomial ideal leaves a defect;")
    print("the full quotient is cocommutative with primitive generators.\n")
    return 0


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--p", type=prime, default=None, help="run one prime only")
    ap.add_argument("--N", type=at_most(MAX_N, positive), default=3, help=f"generator index bound, at most {MAX_N}")
    args = ap.parse_args()
    for p in [args.p] if args.p else [2, 3]:
        run(p, args.N)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
