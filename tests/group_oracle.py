"""Brute-force oracle for `steenrodgroup.grouptheory`: every element of a finite group.

`Oracle` closes a group's filtration-layer generators by breadth-first search
over all |G| elements, sorted by key(), and composes each product and inverse
on first use and keeps it.  Its series are normal closures of element
commutators, each closure a breadth-first search again.  This is how
`grouptheory` computed before it held groups as polycyclic generating
sequences; the tests compare the two.

Run as a script to compare them on groups too large for the tier-1 suite:

    PYTHONPATH=src python tests/group_oracle.py 2,4 3,2

It exits 1 at the first disagreement.
"""

from __future__ import annotations

import sys
import time
from fractions import Fraction

from steenrodgroup.algebra import adjoin_epsilon
from steenrodgroup.group import GroupElement, compose, filtration_level, identity, invert_recursive
from steenrodgroup.grouptheory import (
    SeriesReport,
    _layer_generators,
    check_filtration_bounds,
    derived_series,
    enumerate_group,
    ev_subgroup_series,
    lower_central_series,
)
from steenrodgroup.hopf import milnor_quotient


def _bfs(start, gens, mul, key=lambda x: x) -> dict:
    """key -> member of the closure of start under right multiplication by gens."""
    found = {key(start): start}
    frontier = [start]
    while frontier:
        nxt = []
        for g in frontier:
            for s in gens:
                h = mul(g, s)
                k = key(h)
                if k not in found:
                    found[k] = h
                    nxt.append(h)
        frontier = nxt
    return found


class Oracle:
    """The elements of the order-n truncated group over A (its eps-free
    subgroup with eps_free), closed from the layer generators.

    elements are sorted by key(); gens are the indices of the generators.
    """

    def __init__(self, A, n: int, p: int, eps_free: bool = False):
        galg = A if A.has_epsilon else adjoin_epsilon(A)
        gens = [g for _, g in _layer_generators(p, n, galg, eps_free)]
        one = identity(p, n, galg)
        found = _bfs(one, gens, compose, GroupElement.key)
        if len(found) != p ** len(gens):
            raise AssertionError(f"generators closed to {len(found)} elements, not {p}^{len(gens)}")
        self.p, self.n, self.algebra = p, n, galg
        self.index = {k: i for i, k in enumerate(sorted(found))}
        self.elements = [found[k] for k in self.index]
        self.gens = [self.index[g.key()] for g in gens]
        self.identity_index = self.index[one.key()]
        self.products: dict = {}
        self.inverses: dict = {}

    @property
    def order(self) -> int:
        return len(self.elements)

    def find(self, g: GroupElement) -> int:
        i = self.index.get(g.key())
        if i is None:
            raise AssertionError("a product left the enumerated group")
        return i

    def mul(self, i: int, j: int) -> int:
        k = self.products.get((i, j))
        if k is None:
            k = self.products[i, j] = self.find(compose(self.elements[i], self.elements[j]))
        return k

    def inv(self, i: int) -> int:
        k = self.inverses.get(i)
        if k is None:
            k = self.inverses[i] = self.find(invert_recursive(self.elements[i]))
        return k

    def comm(self, i: int, j: int) -> int:
        """Index of the commutator (i^-1 j^-1)(i j)."""
        left = self.mul(self.inv(i), self.inv(j))
        return self.mul(left, self.mul(i, j))


def subgroup_closure(O: Oracle, seed) -> frozenset[int]:
    """Indices of the subgroup generated by the seed, by breadth-first closure."""
    return frozenset(_bfs(O.identity_index, set(seed) - {O.identity_index}, O.mul))


def expand(O: Oracle, pcgs) -> frozenset[int]:
    """Indices of the elements of the subgroup that a pcgs (group elements) generates."""
    return subgroup_closure(O, [O.find(h) for h in pcgs])


def normal_closure(O: Oracle, seed) -> tuple[list[int], frozenset[int]]:
    """Generators and members of the normal closure of seed in O = <O.gens>."""
    gens = [x for x in dict.fromkeys(seed) if x != O.identity_index]
    members = subgroup_closure(O, gens)
    for x in gens:  # visits the conjugates appended below as well
        for y in O.gens:
            c = O.mul(O.mul(O.inv(y), x), y)
            if c not in members:
                gens.append(c)
                members = subgroup_closure(O, gens)
    return gens, members


def _commutators(O: Oracle, X, Y) -> list[int]:
    """[x, y] for x in X and y in Y, one per unordered pair, without [x, x]."""
    pairs = {(min(x, y), max(x, y)) for x in X for y in Y if x != y}
    return [O.comm(x, y) for x, y in sorted(pairs)]


def series(O: Oracle, partners, kind: str, bound) -> SeriesReport:
    """G = H_0 > H_1 > ..., H_{k+1} = the normal closure of [<X>, <Y>] for H_k = <X>
    and Y = partners(X); chain terms are sets of element indices."""
    gens, chain = O.gens, [frozenset(range(O.order))]
    while True:
        gens, nxt = normal_closure(O, _commutators(O, gens, partners(gens)))
        if nxt == chain[-1]:
            break
        chain.append(nxt)
        if len(nxt) == 1:
            break
    length = next((i for i, h in enumerate(chain) if len(h) == 1), None)
    ok = None
    if bound is not None:
        ok = any(len(h) == 1 for h in chain[: bound + 1]) if length is not None else False
    return SeriesReport(kind, chain, [len(h) for h in chain], length, bound, ok)


def lower_central(O: Oracle) -> SeriesReport:
    return series(O, lambda X: O.gens, "lower_central", O.n + 1)


def derived(O: Oracle) -> SeriesReport:
    return series(O, lambda X: X, "derived", None)


def ev_lower_central(A, n: int, p: int) -> SeriesReport:
    H = Oracle(A, n, p, eps_free=True)
    return series(H, lambda X: H.gens, "ev_lower_central", n)


def filtration_bounds(O: Oracle, lcs: SeriesReport, dser: SeriesReport) -> bool:
    """The filtration bounds tested on every element of every term."""

    def holds(rep, need):
        return all(
            filtration_level(O.elements[i]) >= need(k) for k, H in enumerate(rep.chain[1:]) for i in H
        )

    return holds(lcs, lambda k: k + Fraction(1, 2)) and holds(
        dser, lambda k: Fraction(1, 2) if k == 0 else Fraction(2 * k)
    )


def compare(A, n: int, p: int) -> None:
    """Raise AssertionError unless grouptheory and the oracle agree on the group:
    its order, both series (each term below G expanded to its elements), the
    filtration bounds and, at odd p, the eps-free series."""
    G, O = enumerate_group(A, n, p), Oracle(A, n, p)
    assert G.order == O.order, (G.order, O.order)
    reports = []
    for fast, slow in ((lower_central_series(G), lower_central(O)), (derived_series(G), derived(O))):
        assert (fast.kind, fast.sizes, fast.length, fast.bound, fast.ok) == (
            slow.kind, slow.sizes, slow.length, slow.bound, slow.ok
        ), (fast, slow)
        assert [expand(O, H) for H in fast.chain[1:]] == slow.chain[1:], fast.kind
        reports.append(slow)
    assert check_filtration_bounds(G) is filtration_bounds(O, *reports) is True
    if p != 2:
        fast, slow = ev_subgroup_series(A, n, p), ev_lower_central(A, n, p)
        assert (fast.sizes, fast.length, fast.bound, fast.ok) == (slow.sizes, slow.length, slow.bound, slow.ok)


def main(argv) -> int:
    for arg in argv:
        p, n = map(int, arg.split(","))
        t0 = time.monotonic()
        try:
            compare(milnor_quotient(p, n).algebra, n, p)
        except AssertionError as exc:
            print(f"p={p} n={n}: pcgs and oracle disagree: {exc}")
            return 1
        print(f"p={p} n={n}: pcgs and oracle agree [{time.monotonic() - t0:.1f}s]")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
