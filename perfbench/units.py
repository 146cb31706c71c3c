"""Units of work, one class per workload, each with its correctness oracle.

A workload object is built from the payload's header during set-up, where
``decode`` also reads each request line.  The worker then calls, per request:
``prepare`` (untimed), ``execute`` (timed: the unit itself) and ``check``
(untimed: the oracle).  The package is reached through
module attributes at call time, so a tracer installed after import sees every
call.
"""

from __future__ import annotations

import json
from fractions import Fraction

from steenrodgroup import algebra, group, grouptheory, hopf, milnor, serialize

import spec


def hopf_preset(kind: str, p: int, k: int):
    if kind == "dual_steenrod":
        return hopf.dual_steenrod(p, spec.HOPF_N)
    return getattr(hopf, kind)(p, k, spec.HOPF_N)


def push_to_quotient(obj: dict, kill) -> dict:
    """A wire-format group element mapped to A/(kill), for the listed generators.

    Killing generators is a graded ring map that keeps eps, so it commutes with
    Frobenius, products, the eps-drop and hence with every group operation.
    The quotient keeps the generators, with cap 1 on the killed ones.
    """
    gens = obj["algebra"]["generators"]
    dead = [i for i, g in enumerate(gens) if g["name"] in kill]
    pres = dict(obj["algebra"], generators=[
        dict(g, cap=1) if g["name"] in kill else g for g in gens
    ])
    coeffs = [
        [t for t in c if not any(t["exponents"][i] for i in dead)] for c in obj["coeffs"]
    ]
    return dict(obj, algebra=pres, coeffs=coeffs)


def reference_compose(a, b):
    """The group law restated from its defining formula, independently of
    group.compose: (a.b)_i = sum_{j<=i} a_{i-j}^(p^j) b_j, eps dropped from
    positive-index coefficients at level 1 for odd p."""
    drop = a.level == 1 and a.p != 2
    out = []
    for i in range(a.k + 1):
        acc = a.algebra.zero()
        for j in range(i + 1):
            acc = acc + algebra.frobenius(a.coeffs[i - j], j) * b.coeffs[j]
        out.append(algebra.eps_reduce(acc) if drop and i else acc)
    return tuple(out)


def reference_rho(a):
    """rho_j restated: alpha_i -> alpha_i^p without eps; alpha_0 kept at level 0."""
    head = a.coeffs[0] if a.level == 0 else a.algebra.one()
    return (head,) + tuple(algebra.eps_reduce(algebra.frobenius(c, 1)) for c in a.coeffs[1:])


def is_unit(coeffs, alg) -> bool:
    return coeffs[0] == alg.one() and all(c.is_zero() for c in coeffs[1:])


HALF = Fraction(1, 2)


class Workload:
    """Defaults: a request is one JSON line and one unit, needs no
    preparation, and its time is one latency sample."""

    # whether the worker empties the cyclic garbage collector before each unit
    collect_before = False

    def __init__(self, header):
        self.header = header

    def decode(self, line):
        return json.loads(line)

    def prepare(self, req):
        return req

    def units(self, req) -> int:
        return 1

    def latency(self, req, seconds):
        """(key, seconds) for the latency samples; samples that share a key
        other than None are pooled, see stats.latencies."""
        return None, seconds

    def long_unit(self, req) -> bool:
        """Whether the speed probe samples during the unit (see probe.py)."""
        return False


class GroupStream(Workload):
    """One request: decode, one group operation, encode (the CLI path)."""

    def decode(self, line):
        return line  # raw JSON text; decoding is part of the unit

    def execute(self, line):
        req = json.loads(line)
        op = req["op"]
        a = serialize.group_from_obj(req["a"])
        if op == "filtration_level":
            level = group.filtration_level(a)
            return req, level, serialize.filtration_to_str(level)
        if op in spec.BINARY_OPS:
            result = getattr(group, op)(a, serialize.group_from_obj(req["b"]))
        else:
            result = getattr(group, op)(a)
        return req, result, json.dumps(serialize.group_to_obj(result))

    def check(self, out) -> bool:
        req, result, text = out
        op = req["op"]
        if op == "filtration_level":
            return result * 2 == req["level2"]
        encoded = json.loads(text)
        if serialize.group_from_obj(encoded) != result:
            return False
        kill = req["kill"]

        def image(obj):
            return serialize.group_from_obj(push_to_quotient(obj, kill))

        # the operation must commute with the quotient map; the images are
        # checked against the restated group law, not the code under test
        a, r = image(req["a"]), image(encoded)
        if op == "compose":
            return reference_compose(a, image(req["b"])) == r.coeffs
        if op == "commutator":
            # [a, b] = a^-1 b^-1 a b  <=>  (b a) [a, b] = a b
            b = image(req["b"])
            ba = group.GroupElement(a.p, a.k, a.level, a.algebra, reference_compose(b, a))
            return (reference_compose(ba, r) == reference_compose(a, b)
                    and group.filtration_level(result) >= HALF)
        if op == "rho":
            return reference_rho(a) == r.coeffs and r.level == a.level + 1
        return is_unit(reference_compose(a, r), a.algebra)


class FiniteGroups(Workload):
    """One request: enumerate a finite group and run its series; a unit is an element."""

    # a request is a whole lcs/sweep computation, which a CLI user starts on a
    # clean heap.  Without this, collections of an earlier group's garbage
    # land in later groups: over nine rounds the order-8 group read 1.6 to
    # 3.2 ms, and 2.1 to 2.7 ms with it
    collect_before = True

    def __init__(self, header):
        super().__init__(header)
        self.presets = {(p, n): hopf.milnor_quotient(p, n) for p, n, _, _ in spec.FINITE_GROUPS}

    def execute(self, req):
        p, n = req["p"], req["n"]
        A = self.presets[(p, n)].algebra
        G = grouptheory.enumerate_group(A, n, p)
        lcs = grouptheory.lower_central_series(G)
        derived = grouptheory.derived_series(G)
        bounds = grouptheory.check_filtration_bounds(G)
        ev = grouptheory.ev_subgroup_series(A, n, p) if p != 2 else None
        return req, G.order, lcs, derived, bounds, ev

    def check(self, out) -> bool:
        req, order, lcs, derived, bounds, ev = out
        return (
            order == req["order"]
            and lcs.ok is True
            and lcs.length == req["class"]
            and derived.sizes[0] == order
            and bounds is True
            and (ev is None or ev.ok is True)
        )

    def units(self, req) -> int:
        return req["order"]

    def latency(self, req, seconds):
        """Pooled per group: five requests a round are too few for a latency
        distribution of their own, and the groups' times differ a thousandfold."""
        return f"{req['p']},{req['n']}", seconds

    def long_unit(self, req) -> bool:
        return req["order"] >= spec.PROBE_DURING_ORDER


class HopfLaws(Workload):
    """One request: the three Hopf-law defects of one basis monomial."""

    def __init__(self, header):
        super().__init__(header)
        self.presets = {pid: hopf_preset(kind, p, k) for pid, kind, p, k in header["presets"]}

    def execute(self, req):
        hp = self.presets[req["preset"]]
        x = hp.algebra.monomial(req["exponents"])
        coassoc = hopf.coassociativity_defect(hp, x)
        return (coassoc,) + hopf.counit_defect(hp, x) + hopf.antipode_defect(hp, x)

    def check(self, out) -> bool:
        coassoc, *rest = out
        return not coassoc and all(v.is_zero() for v in rest)


class MilnorSweep(Workload):
    """One request: a block of index tuples through the public predicates."""

    def __init__(self, header):
        super().__init__(header)
        self.block = header["block"]
        self.grids = [tuple(g) for g in header["grids"]]

    def prepare(self, req):
        grid = self.grids[req["grid"]]
        p, k = grid[0], grid[1]
        if "indices" in req:
            indices = req["indices"]
        else:
            indices = range(req["start"], req["start"] + req["count"])
        return p, k, [spec.grid_tuple(grid, i) for i in indices]

    def execute(self, prepared):
        p, k, tuples = prepared
        in_J, in_span, Sym = milnor.in_J_basis, milnor.in_dual_span, milnor.DualSymbol
        return [(in_J(E, R, k, p), in_span(Sym(p, R, E), k)) for E, R in tuples]

    def check(self, out) -> bool:
        return all(j != s for j, s in out)

    def units(self, req) -> int:
        return len(req["indices"]) if "indices" in req else req["count"]

    def latency(self, req, seconds):
        """Blocks shorter than MILNOR_BLOCK are scaled up to its length."""
        return None, seconds * self.block / self.units(req)


WORKLOADS = {
    "group_stream": GroupStream,
    "finite_groups": FiniteGroups,
    "hopf_laws": HopfLaws,
    "milnor_sweep": MilnorSweep,
}
