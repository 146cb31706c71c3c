"""Seeded workload inputs, written in the package's JSON wire formats.

The payload is JSON lines: a header object, then one request per line, in
rounds of `per_round` requests.  It depends only on the workload, the seed and
the package's public constructors (presets and `component_monomials`), so its
sha256 is the same on every run and every commit for a given seed.
"""

from __future__ import annotations

import hashlib
import json
import random

from steenrodgroup import algebra, group, hopf, serialize, verify

import spec
import units


def dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def payload(workload: str, seed: int) -> bytes:
    rng = random.Random(f"perfbench:{workload}:{seed}")
    header, rounds = PAYLOADS[workload](rng)
    per_round = len(rounds[0])
    if any(len(r) != per_round for r in rounds):
        raise ValueError("rounds must have equal length")
    header = dict(header, workload=workload, rounds=len(rounds), per_round=per_round)
    lines = [dumps(header)] + [dumps(req) for r in rounds for req in r]
    return ("\n".join(lines) + "\n").encode()


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


# -- group_stream --------------------------------------------------------------


def group_algebra(p: int, density: str):
    if density == "sparse":
        return verify.group_test_algebra(p)
    if p == 2:
        return hopf.milnor_quotient(2, 4).algebra
    return algebra.adjoin_epsilon(hopf.milnor_quotient(p, 3).algebra)


def _uniform(rng, monos, p):
    terms = []
    for m in monos:
        c = rng.randrange(p)
        if c:
            terms.append({"coeff": c, "exponents": list(m)})
    return terms


def _nonzero(rng, monos, p):
    while True:
        terms = _uniform(rng, monos, p)
        if terms:
            return terms


class ElementSampler:
    """Uniform base-flavor elements of one (p, k, algebra), never repeated."""

    def __init__(self, rng, p, k, alg, seen):
        self.rng, self.p, self.k, self.seen = rng, p, k, seen
        self.pres_obj = serialize.presentation_to_obj(alg)
        ident = group.identity(p, k, alg)
        self.head = algebra.component_monomials(alg, 0)
        self.comps = [
            algebra.component_monomials(alg, ident.coeff_degree(i)) for i in range(1, k + 1)
        ]
        eps = alg.epsilon_index if alg.has_epsilon else None
        self.even = [[m for m in c if eps is None or m[eps] == 0] for c in self.comps]
        self.odd = [[m for m in c if eps is not None and m[eps] == 1] for c in self.comps]
        self.names = [g.name for g in alg.generators if g.name != algebra.EPSILON]

    def _unit_head(self):
        one = tuple(0 for _ in self.head[0])
        terms = [{"coeff": 1, "exponents": list(one)}]
        rest = _uniform(self.rng, [m for m in self.head if m != one], self.p)
        return sorted(terms + rest, key=lambda t: t["exponents"])

    def _emit(self, make):
        """Draw with make() -> (coeffs, tag) until the coefficients are new."""
        for _ in range(1000):
            coeffs, tag = make()
            key = dumps(coeffs)
            if key not in self.seen:
                self.seen.add(key)
                obj = {"p": self.p, "k": self.k, "flavor": 0,
                       "algebra": self.pres_obj, "coeffs": coeffs}
                return obj, tag
        raise RuntimeError("input space exhausted; shrink the pool")

    def uniform(self):
        return self._emit(lambda: ([self._unit_head()] + [
            _uniform(self.rng, c, self.p) for c in self.comps
        ], None))[0]

    def with_level(self):
        """An element with alpha_0 = 1 and a chosen filtration; returns (obj, 2*level)."""
        rng = self.rng
        one = [{"coeff": 1, "exponents": [0] * len(self.head[0])}]

        def make():
            j = rng.choice([i for i in range(1, self.k + 1) if self.comps[i - 1]])
            odd = bool(self.odd[j - 1]) and rng.randrange(2) == 1
            coeffs = [one] + [[] for _ in range(j - 1)]
            if odd:
                lead = _nonzero(rng, self.odd[j - 1], self.p)
            else:
                lead = _nonzero(rng, self.even[j - 1], self.p) + _uniform(rng, self.odd[j - 1], self.p)
            coeffs.append(sorted(lead, key=lambda t: t["exponents"]))
            coeffs += [_uniform(rng, c, self.p) for c in self.comps[j:]]
            return coeffs, 2 * (j - 1) + odd

        return self._emit(make)

    def kill_set(self):
        names = list(self.names)
        self.rng.shuffle(names)
        return sorted(names[: max(1, len(names) // 2)])


def _group_stream(rng):
    seen: set = set()
    samplers = {}
    for p, density in spec.GROUP_ALGEBRAS:
        alg = group_algebra(p, density)
        for k in spec.GROUP_TRUNCATIONS:
            samplers[(p, density, k)] = ElementSampler(rng, p, k, alg, seen)
    rounds = []
    for _ in range(spec.GROUP_POOL_ROUNDS):
        rnd = []
        for (p, density, k), s in samplers.items():
            for op in spec.group_ops(p):
                req = {"op": op, "cell": f"{p}/{density}/{k}"}
                if op == "filtration_level":
                    req["a"], req["level2"] = s.with_level()
                else:
                    req["a"] = s.uniform()
                    req["kill"] = s.kill_set()
                if op in spec.BINARY_OPS:
                    req["b"] = s.uniform()
                rnd.append(req)
        rng.shuffle(rnd)
        rounds.append(rnd)
    return {}, rounds


# -- finite_groups -------------------------------------------------------------


def _finite_groups(rng):
    rounds = []
    for _ in range(spec.FINITE_POOL_ROUNDS):
        rnd = [{"p": p, "n": n, "order": order, "class": cls}
               for p, n, order, cls in spec.FINITE_GROUPS]
        rng.shuffle(rnd)
        rounds.append(rnd)
    return {}, rounds


# -- hopf_laws -----------------------------------------------------------------


def _hopf_laws(rng):
    monos = []
    for pid, kind, p, k, top in spec.HOPF_PRESETS:
        alg = units.hopf_preset(kind, p, k).algebra
        for d in range(1, top + 1):
            monos += [{"preset": pid, "exponents": list(m)}
                      for m in algebra.component_monomials(alg, d)]
    rounds = []
    for _ in range(spec.HOPF_POOL_ROUNDS):
        rnd = list(monos)
        rng.shuffle(rnd)
        rounds.append(rnd)
    presets = [[pid, kind, p, k] for pid, kind, p, k, _ in spec.HOPF_PRESETS]
    return {"presets": presets}, rounds


# -- milnor_sweep --------------------------------------------------------------


def _milnor_sweep(rng):
    """Each round is one pass of criterion 9's public calls, in blocks of at
    most MILNOR_BLOCK tuples, in a seeded order.  Whole grids are cut into
    consecutive index ranges; drawn tuples are distinct across the pool."""
    B = spec.MILNOR_BLOCK
    rounds_n = spec.MILNOR_POOL_ROUNDS
    drawn = {
        g: rng.sample(range(spec.grid_size(grid)), grid[4] * rounds_n)
        for g, grid in enumerate(spec.MILNOR_GRIDS) if grid[4]
    }
    rounds = []
    for r in range(rounds_n):
        rnd = []
        for g, grid in enumerate(spec.MILNOR_GRIDS):
            if g in drawn:
                mine = drawn[g][r * grid[4]:(r + 1) * grid[4]]
                rnd += [{"grid": g, "indices": mine[i:i + B]} for i in range(0, len(mine), B)]
            else:
                size = spec.grid_size(grid)
                rnd += [{"grid": g, "start": i, "count": min(B, size - i)}
                        for i in range(0, size, B)]
        rng.shuffle(rnd)
        rounds.append(rnd)
    header = {"block": B, "grids": [list(g[:4]) for g in spec.MILNOR_GRIDS]}
    return header, rounds


PAYLOADS = {
    "group_stream": _group_stream,
    "finite_groups": _finite_groups,
    "hopf_laws": _hopf_laws,
    "milnor_sweep": _milnor_sweep,
}


def main(argv=None) -> int:
    import argparse

    ap = argparse.ArgumentParser(description="Write one workload's seeded inputs.")
    ap.add_argument("--workload", required=True, choices=sorted(PAYLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", required=True)
    args = ap.parse_args(argv)
    data = payload(args.workload, args.seed)
    with open(args.out, "wb") as f:
        f.write(data)
    print(json.dumps({"inputs_sha256": sha256(data), "bytes": len(data)}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
