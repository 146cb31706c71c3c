"""Exhaustive finite-group computations: Cayley tables and subgroup series.

Over a finite coefficient algebra the truncated subgroup cut out by the
Frobenius-nilpotency conditions (alpha_i^(p^(n-i+1)) = 0 for i <= n,
alpha_i = 0 beyond) is a finite group.  This module enumerates it, builds the
composition table, and computes lower central and derived series by
breadth-first closure over the table.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

from .algebra import (
    AlgebraPresentation,
    adjoin_epsilon,
    enumerate_component,
    eps_reduce,
    frobenius,
    times_eps,
)
from .group import (
    GroupElement,
    compose,
    filtration_level,
    identity,
    invert_recursive,
    pi_ev,
)

DEFAULT_LIMIT = 100_000
LIMIT_ENV = "STEENROD_LIMIT"

# (p, n) of the finite groups swept by the CLI and the sweep script
SWEEP_GRID = ((2, 1), (2, 2), (3, 0), (3, 1))


class GroupTheoryError(Exception):
    pass


def size_limit() -> int:
    raw = os.environ.get(LIMIT_ENV)
    if raw is None:
        return DEFAULT_LIMIT
    try:
        return int(raw)
    except ValueError as exc:
        raise GroupTheoryError(f"bad {LIMIT_ENV} value {raw!r}") from exc


@dataclass
class FiniteGroupTable:
    """A finite group of stunted series, closed under compose and invert."""

    p: int
    n: int
    algebra: AlgebraPresentation
    elements: list[GroupElement]
    table: list[list[int]]
    identity_index: int
    inverse: list[int]
    index: dict = field(repr=False, default_factory=dict)

    @property
    def order(self) -> int:
        return len(self.elements)

    def mul(self, i: int, j: int) -> int:
        return self.table[i][j]

    def inv(self, i: int) -> int:
        return self.inverse[i]

    def comm(self, i: int, j: int) -> int:
        """Index of the commutator (i^-1 j^-1)(i j)."""
        left = self.mul(self.inv(i), self.inv(j))
        return self.mul(left, self.mul(i, j))

    def verify_latin_square(self) -> bool:
        m = self.order
        full = set(range(m))
        for row in self.table:
            if set(row) != full:
                return False
        for j in range(m):
            if {self.table[i][j] for i in range(m)} != full:
                return False
        return True

    def subtable(self, indices: frozenset[int]) -> "FiniteGroupTable":
        """The subgroup on a closed index set, reindexed."""
        order = sorted(indices)
        remap = {old: new for new, old in enumerate(order)}
        elements = [self.elements[i] for i in order]
        table = [[remap[self.table[i][j]] for j in order] for i in order]
        inverse = [remap[self.inverse[i]] for i in order]
        tab = FiniteGroupTable(
            self.p, self.n, self.algebra, elements, table,
            remap[self.identity_index], inverse,
        )
        tab.index = {e.key(): i for i, e in enumerate(elements)}
        return tab


@dataclass
class SeriesReport:
    """A descending subgroup chain with its termination data.

    sizes[i] is the order of the i-th term; length is the first index whose
    term is trivial (None if the chain stabilized before reaching triviality);
    bound/ok record an expected vanishing stage when one applies.
    """

    kind: str
    chain: list[frozenset[int]]
    sizes: list[int]
    length: Optional[int]
    bound: Optional[int] = None
    ok: Optional[bool] = None


def _coefficient_candidates(p: int, n: int, base: AlgebraPresentation):
    """Per-index candidate coefficient lists for the order-n truncated group."""
    galg = base if p == 2 or base.has_epsilon else adjoin_epsilon(base)
    one = galg.one()
    if p == 2:
        heads = [one]
    else:
        # alpha_0 = 1 + b*eps with b of degree 1 in the eps-free part
        degree_one = [
            b for b in enumerate_component(galg, 1) if eps_reduce(b) == b
        ]
        heads = [one + times_eps(b) for b in degree_one]
    slots = [heads]
    for i in range(1, n + 1):
        d = 2**i - 1 if p == 2 else 2 * (p**i - 1)
        cands = [c for c in enumerate_component(galg, d) if frobenius(c, n - i + 1).is_zero()]
        slots.append(cands)
    return galg, slots


def enumerate_group(
    A: AlgebraPresentation, n: int, p: int, limit: Optional[int] = None
) -> FiniteGroupTable:
    """Enumerate the full order-n truncated group over a finite algebra."""
    if p != A.p:
        raise GroupTheoryError("prime does not match the algebra")
    if n < 0:
        raise GroupTheoryError("n must be >= 0")
    cap = size_limit() if limit is None else limit
    galg, slots = _coefficient_candidates(p, n, A)

    total = 1
    for s in slots:
        total *= len(s)
        if total > cap:
            raise GroupTheoryError(f"group size {total}+ exceeds limit {cap}")

    elements: list[GroupElement] = []
    index: dict = {}

    def emit(coeffs):
        g = GroupElement(p, n, 0, galg, tuple(coeffs))
        key = g.key()
        if key not in index:
            index[key] = len(elements)
            elements.append(g)

    def build(i, coeffs):
        if i == len(slots):
            emit(coeffs)
            return
        for c in slots[i]:
            build(i + 1, coeffs + [c])

    build(0, [])
    elements.sort(key=lambda g: g.key())
    index = {g.key(): i for i, g in enumerate(elements)}

    m = len(elements)
    table = [[0] * m for _ in range(m)]
    for i, a in enumerate(elements):
        for j, b in enumerate(elements):
            c = compose(a, b)
            ci = index.get(c.key())
            if ci is None:
                raise GroupTheoryError("composition left the enumerated set")
            table[i][j] = ci
    ident = index[identity(p, n, galg).key()]
    inverse = [0] * m
    for i, a in enumerate(elements):
        v = index.get(invert_recursive(a).key())
        if v is None:
            raise GroupTheoryError("inverse left the enumerated set")
        inverse[i] = v

    tab = FiniteGroupTable(p, n, galg, elements, table, ident, inverse, index)
    if not tab.verify_latin_square():
        raise GroupTheoryError("composition table is not a Latin square")
    return tab


def subgroup_closure(G: FiniteGroupTable, seed) -> frozenset[int]:
    """Indices of the subgroup generated by the seed, by breadth-first closure."""
    members = {G.identity_index}
    frontier = [G.identity_index]
    for s in set(seed):
        if s not in members:
            members.add(s)
            frontier.append(s)
    gens = list(members)
    while frontier:
        nxt = []
        for g in frontier:
            for h in gens:
                for prod in (G.mul(g, h), G.mul(h, g), G.inv(g)):
                    if prod not in members:
                        members.add(prod)
                        nxt.append(prod)
        gens = list(members)
        frontier = nxt
    return frozenset(members)


def _commutator_span(G: FiniteGroupTable, H: frozenset[int], K: frozenset[int]) -> frozenset[int]:
    comms = {G.comm(h, k) for h in H for k in K}
    return subgroup_closure(G, comms)


def _series(G: FiniteGroupTable, step, kind: str, bound: Optional[int]) -> SeriesReport:
    chain = [frozenset(range(G.order))]
    while True:
        nxt = step(chain[-1])
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


def lower_central_series(G: FiniteGroupTable) -> SeriesReport:
    """Gamma_0 = G, Gamma_{k+1} = [Gamma_k, G]; nilpotency class = first trivial stage."""
    whole = frozenset(range(G.order))
    return _series(
        G, lambda H: _commutator_span(G, H, whole), "lower_central", G.n + 1
    )


def derived_series(G: FiniteGroupTable) -> SeriesReport:
    """D_0 = G, D_{k+1} = [D_k, D_k]."""
    return _series(G, lambda H: _commutator_span(G, H, H), "derived", None)


def check_filtration_bounds(G: FiniteGroupTable) -> bool:
    """Elementwise filtration bounds for both series.

    Every element of Gamma_{k+1} must sit at filtration >= k + 1/2, every
    element of D_1 at >= 1/2, and of D_{k+1} (k >= 1) at >= 2k.
    """
    gamma = lower_central_series(G)
    for k1, H in enumerate(gamma.chain[1:], start=1):
        need = Fraction(k1 - 1) + Fraction(1, 2)
        for i in H:
            if i != G.identity_index and filtration_level(G.elements[i]) < need:
                return False
    dser = derived_series(G)
    for k1, H in enumerate(dser.chain[1:], start=1):
        need = Fraction(1, 2) if k1 == 1 else Fraction(2 * (k1 - 1))
        for i in H:
            if i != G.identity_index and filtration_level(G.elements[i]) < need:
                return False
    return True


def ev_subgroup(G: FiniteGroupTable) -> FiniteGroupTable:
    """The subgroup of eps-free elements (odd p): alpha_0 = 1 and pi_ev fixes them."""
    if G.p == 2:
        raise GroupTheoryError("the eps-free subgroup split needs odd p")
    keep = []
    for i, g in enumerate(G.elements):
        if pi_ev(g) == g and g.coeffs[0] == g.algebra.one():
            keep.append(i)
    return G.subtable(frozenset(keep))


def ev_subgroup_series(A: AlgebraPresentation, n: int, p: int) -> SeriesReport:
    """Lower central series of the eps-free order-n truncated group.

    The expected vanishing stage drops by one relative to the full group.
    """
    if p == 2:
        raise GroupTheoryError("requires an odd prime")
    G = enumerate_group(A, n, p)
    H = ev_subgroup(G)
    whole = frozenset(range(H.order))
    return _series(
        H, lambda S: _commutator_span(H, S, whole), "ev_lower_central", max(n, 0)
    )
