"""Command-line front end: JSON in, JSON/CSV out, deterministic for a seed.

Each command returns its report, a JSON-able object or CSV text, and a
verdict that is False only when a check failed.  `run` alone writes the
report, to --out or stdout, and turns the verdict into the exit code:
0 success, 1 verification failure (counterexample serialized in the report),
2 usage error: an argparse error (bad arguments, a size above its bound) or
a SteenrodError (malformed JSON, limit exceeded, an --out or a stdout that
cannot be written, any refusal of the library).

`lcs` builds its group with `grouptheory.finite_group`, and `sweep` prints
the rows of `grouptheory.sweep`, each with the verdict the sweep script prints.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import io
import json
import os
import sys

from .algebra import SteenrodError, check_prime
from .group import (
    MAX_LEVEL,
    check_head,
    commutator,
    compose,
    filtration_level,
    invert_closed,
    invert_recursive,
    invert_split,
    rho,
)
from .grouptheory import (
    LIMIT_ENV,
    SWEEP_GRID,
    ev_subgroup_series,
    finite_group,
    lower_central_series,
    size_limit,
    sweep,
)
from .hopf import (
    axiom_counterexamples,
    cocommutativity_defect,
    dual_mod_J,
    dual_steenrod,
    level_algebra,
    level_mod_I,
    milnor_quotient,
    milnor_quotient_ev,
    primitivity_check,
)
from .milnor import DualSymbol, in_dual_span, in_J_basis
from .partitions import DEFAULT_MAX_N, enumerate_compositions
from .serialize import filtration_to_str, group_from_obj, group_to_obj
from .verify import run_suites

USAGE_ERROR = 2
# hopf's generator bound N (n for A and A_ev): the antipode of xi_N alone
# has 2^(N-1) terms, so no STEENROD_LIMIT a machine can meet admits more
MAX_N = 64
# verify's samples per suite, 200 times the default: at k = 4 it took 18 s
# at p = 2 and 36-48 s at p = 3 (2 vCPUs, shared, Python 3.11)
MAX_SAMPLES = 10_000


def _load_json(path: str):
    try:
        with open(path) as fh:
            return json.load(fh)
    # ValueError: bad syntax, or an int of more than 4300 digits;
    # RecursionError: arrays or objects nested past the recursion limit
    except (OSError, ValueError, RecursionError) as exc:
        raise SteenrodError(f"cannot read JSON from {path}: {exc}") from exc


def _element(obj):
    """A group element whose head alpha_0 = 1 + b*eps, as every inverse needs,
    and whose alpha_i are homogeneous of degree coeff_degree(i)."""
    g = check_head(group_from_obj(obj))
    for i, c in enumerate(g.coeffs):
        d = g.coeff_degree(i)
        if any(g.algebra.mono_degree(m) != d for m in c.terms):
            try:
                shown = str(d)
            except ValueError:  # an int of more than 4300 digits, which Python will not print
                shown = f"coeff_degree({g.p}, {g.level}, {i}), an int of {d.bit_length()} bits"
            raise SteenrodError(f"coefficient alpha_{i} is not homogeneous of degree {shown}")
    return g


def _load_pair(args):
    obj = _load_json(args.infile)
    if not isinstance(obj, dict) or "a" not in obj or "b" not in obj:
        raise SteenrodError('expected {"a": <group element>, "b": <group element>}')
    return _element(obj["a"]), _element(obj["b"])


def cmd_pair(args):
    a, b = _load_pair(args)
    return group_to_obj(args.op(a, b)), True


def cmd_invert(args):
    g = _element(_load_json(args.infile))
    fn = {"recursive": invert_recursive, "closed": invert_closed, "split": invert_split}[args.method]
    return group_to_obj(fn(g)), True


def cmd_map(args):
    g = _element(_load_json(args.infile))
    return args.op(g), True


def cmd_partitions(args):
    comps = enumerate_compositions(args.n)
    return [list(c.parts) for c in comps], True


def _class(rep):
    return {"sizes": rep.sizes, "class": rep.length, "bound": rep.bound, "ok": rep.ok}


def cmd_lcs(args):
    """The lower central series alone, and the eps-free one with --ev."""
    hp, G = finite_group(args.p, args.n)
    rep = lower_central_series(G)
    report = {"p": args.p, "n": args.n, "order": G.order, "kind": rep.kind, **_class(rep)}
    if args.ev:
        ev = ev_subgroup_series(hp.algebra, args.n, args.p)
        report["ev"] = _class(ev)
        return report, rep.ok and ev.ok
    return report, rep.ok


def cmd_sweep(args):
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["p", "n", "algebra", "order", "class", "bound", "ok"])
    rows = list(sweep(args.p))
    for r in rows:
        G, lcs = r.group, r.lower_central
        writer.writerow([G.p, G.n, r.hopf.label, G.order, lcs.length, lcs.bound, r.ok])
    return buf.getvalue(), all(r.ok for r in rows)


PRESETS = {
    "A_dual": lambda a: dual_steenrod(a.p, a.N, a.D),
    "A": lambda a: milnor_quotient(a.p, a.n),
    "A_ev": lambda a: milnor_quotient_ev(a.p, a.n),
    "A_angle": lambda a: level_algebra(a.p, a.k, a.N, a.D),
    "A_mod_I": lambda a: level_mod_I(a.p, a.k, a.N),
    "A_mod_J": lambda a: dual_mod_J(a.p, a.k, a.N),
}


def cmd_hopf(args):
    hp = PRESETS[args.preset](args)
    work, limit = hp.work(), size_limit()
    if work > limit:
        raise SteenrodError(f"checking {hp.label} needs {work} words of antipode terms, over the limit {limit} ({LIMIT_ENV})")
    counterexamples = list(axiom_counterexamples(hp))
    defects = [
        {"generator": name, "defect": repr(t)}
        for name, t in cocommutativity_defect(hp)
        if not t.is_zero()
    ]
    report = {
        "check": "hopf",
        "preset": args.preset,
        "label": hp.label,
        "degree_bound": hp.D,
        "primitive": primitivity_check(hp),
        "cocommutativity_defects": defects,
        "ok": not counterexamples,
        "counterexamples": counterexamples,
    }
    return report, not counterexamples


def cmd_milnor(args):
    E, R = args.E, args.R
    if args.action == "in-j":
        verdict = in_J_basis(E, R, args.k, args.p)
    else:
        verdict = in_dual_span(DualSymbol(args.p, R, E), args.k)
    report = {"action": args.action, "p": args.p, "k": args.k, "E": list(E), "R": list(R), "result": verdict}
    return report, True


def cmd_verify(args):
    suites = run_suites(args.p, args.k, args.seed, args.samples)
    report = {
        "p": args.p,
        "k": args.k,
        "seed": args.seed,
        "samples": args.samples,
        "suites": suites,
        "ok": all(s["ok"] for s in suites),
    }
    return report, report["ok"]


# argument types: a bad value is a usage error (exit 2) before any work starts


def prime(raw: str) -> int:
    try:
        return check_prime(int(raw))
    except SteenrodError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc


def non_negative(raw: str) -> int:
    v = int(raw)
    if v < 0:
        raise argparse.ArgumentTypeError(f"{v} is negative")
    return v


def positive(raw: str) -> int:
    v = int(raw)
    if v < 1:
        raise argparse.ArgumentTypeError(f"{v} is not positive")
    return v


def at_most(bound: int, kind=non_negative):
    """The argument type kind, refusing a value above bound."""

    def bounded(raw: str) -> int:
        v = kind(raw)
        if v > bound:
            raise argparse.ArgumentTypeError(f"{v} is above the bound {bound}")
        return v

    bounded.__name__ = kind.__name__  # argparse names it in "invalid ... value"
    return bounded


def int_list(raw: str) -> tuple:
    raw = raw.strip()
    if not raw:
        return ()
    try:
        return tuple(int(v) for v in raw.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"{raw!r} is not a comma-separated list of integers")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="steenrodgroup",
        description="Exact computations in mod-p composition groups of stunted series and the dual algebra family.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(sp, infile=False):
        sp.add_argument("--out", default=None, help="output path (default stdout)")
        if infile:
            sp.add_argument("--in", dest="infile", required=True, help="input JSON path")

    sp = sub.add_parser("compose", help="compose two serialized group elements")
    common(sp, infile=True)
    sp.set_defaults(fn=cmd_pair, op=compose)

    sp = sub.add_parser("invert", help="invert a serialized group element")
    common(sp, infile=True)
    sp.add_argument("--method", choices=["recursive", "closed", "split"], default="recursive")
    sp.set_defaults(fn=cmd_invert)

    sp = sub.add_parser("commutator", help="commutator of two serialized group elements")
    common(sp, infile=True)
    sp.set_defaults(fn=cmd_pair, op=commutator)

    sp = sub.add_parser("filtration", help="filtration level of a group element")
    common(sp, infile=True)
    sp.set_defaults(fn=cmd_map, op=lambda g: {"level": filtration_to_str(filtration_level(g))})

    sp = sub.add_parser("rho", help="apply the level-raising quotient map")
    common(sp, infile=True)
    sp.set_defaults(fn=cmd_map, op=lambda g: group_to_obj(rho(g)))

    sp = sub.add_parser("partitions", help="list all compositions of n")
    sp.add_argument("n", type=int)
    common(sp)
    sp.set_defaults(fn=cmd_partitions)

    sp = sub.add_parser("lcs", help="lower central series of a finite group")
    sp.add_argument("--p", type=prime, default=2)
    sp.add_argument("--n", type=non_negative, default=1)
    sp.add_argument("--ev", action="store_true", help="also report the eps-free subgroup series")
    common(sp)
    sp.set_defaults(fn=cmd_lcs)

    sp = sub.add_parser("sweep", help="run the finite-group grid, emit CSV")
    sp.add_argument("--p", type=prime, default=None, choices=sorted({p for p, _ in SWEEP_GRID}))
    common(sp)
    sp.set_defaults(fn=cmd_sweep)

    sp = sub.add_parser("hopf", help="Hopf-axiom report for a named preset")
    sp.add_argument("--preset", required=True, choices=sorted(PRESETS), metavar="PRESET")
    sp.add_argument("--p", type=prime, default=2)
    sp.add_argument("--k", type=at_most(MAX_LEVEL), default=0)
    sp.add_argument("--n", type=at_most(MAX_N), default=2)
    sp.add_argument("--N", type=at_most(MAX_N), default=4)
    sp.add_argument("--D", type=int, default=None)
    common(sp)
    sp.set_defaults(fn=cmd_hopf)

    sp = sub.add_parser("milnor", help="basis membership predicates")
    sp.add_argument("action", choices=["in-j", "in-span"])
    sp.add_argument("--p", type=prime, required=True)
    sp.add_argument("--k", type=at_most(MAX_LEVEL), default=0)
    sp.add_argument("--E", type=int_list, default="")
    sp.add_argument("--R", type=int_list, default="")
    common(sp)
    sp.set_defaults(fn=cmd_milnor)

    sp = sub.add_parser("verify", help="run all property suites")
    sp.add_argument("--p", type=prime, default=2)
    sp.add_argument("--k", type=at_most(DEFAULT_MAX_N), default=4)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--samples", type=at_most(MAX_SAMPLES, positive), default=50)
    common(sp)
    sp.set_defaults(fn=cmd_verify)

    return parser


def run(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return USAGE_ERROR if exc.code not in (0, None) else 0
    try:
        report, ok = args.fn(args)
        text = report if isinstance(report, str) else json.dumps(report, indent=2, sort_keys=True) + "\n"
        try:
            with open(args.out, "w") if args.out else contextlib.nullcontext(sys.stdout) as fh:
                print(text, end="", file=fh, flush=True)
        except OSError as exc:
            if not args.out:  # stdout's unwritten bytes go to devnull, or the flush at exit fails again
                with contextlib.suppress(OSError, ValueError), open(os.devnull, "w") as null:
                    os.dup2(null.fileno(), sys.stdout.fileno())
            raise SteenrodError(f"cannot write {args.out or 'stdout'}: {exc.strerror}") from exc
    except SteenrodError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    return 0 if ok else 1


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
