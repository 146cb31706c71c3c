"""Finite-group computations: closure from filtration generators, subgroup series.

Over a finite coefficient algebra the truncated subgroup cut out by the
Frobenius-nilpotency conditions (alpha_i^(p^(n-i+1)) = 0 for i <= n,
alpha_i = 0 beyond) is a finite p-group.  The layers of its filtration by
coefficient index are elementary abelian, so one generator per basis monomial
of each layer generates it.  This module closes those generators, remembers
each product and inverse on first use, and takes lower central and derived
series as normal closures of generator commutators (Holt, Eick & O'Brien,
Handbook of Computational Group Theory, 2005).
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

from .algebra import (
    AlgebraPresentation,
    adjoin_epsilon,
    component_monomials,
    eps_reduce,
    frobenius,
    times_eps,
)
from .group import (
    GroupElement,
    coeff_degree,
    compose,
    filtration_level,
    identity,
    invert_recursive,
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
class FiniteGroup:
    """A finite group of stunted series, closed from its generators.

    elements are sorted by key(); gens are the indices of the filtration-layer
    generators.  Products and inverses are composed on first use and kept.
    """

    p: int
    n: int
    algebra: AlgebraPresentation
    elements: list[GroupElement]
    gens: list[int]
    identity_index: int
    index: dict = field(repr=False)
    products: dict = field(repr=False, default_factory=dict)
    inverses: dict = field(repr=False, default_factory=dict)

    @property
    def order(self) -> int:
        return len(self.elements)

    def _find(self, g: GroupElement) -> int:
        i = self.index.get(g.key())
        if i is None:
            raise GroupTheoryError("a product left the enumerated group")
        return i

    def mul(self, i: int, j: int) -> int:
        k = self.products.get((i, j))
        if k is None:
            k = self.products[i, j] = self._find(compose(self.elements[i], self.elements[j]))
        return k

    def inv(self, i: int) -> int:
        k = self.inverses.get(i)
        if k is None:
            k = self.inverses[i] = self._find(invert_recursive(self.elements[i]))
        return k

    def comm(self, i: int, j: int) -> int:
        """Index of the commutator (i^-1 j^-1)(i j)."""
        left = self.mul(self.inv(i), self.inv(j))
        return self.mul(left, self.mul(i, j))


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


def _layer_generators(p: int, n: int, galg: AlgebraPresentation, eps_free: bool) -> list:
    """One generator per basis monomial of each filtration layer.

    Layer 0 (odd p, with eps): alpha_0 = 1 + m*eps for each eps-free degree-1 monomial m.
    Layer i >= 1: alpha_i = m for each degree-d_i monomial m with
    m^(p^(n-i+1)) = 0.  With eps_free, only the generators of the eps-free
    subgroup: no layer 0 and no monomial containing eps.  Refused as soon as
    the order p^(generators so far) exceeds STEENROD_LIMIT.
    """
    limit = size_limit()
    one, zero = galg.one(), galg.zero()

    def element(i, c):
        coeffs = [one] + [zero] * n
        coeffs[i] = c
        return GroupElement(p, n, 0, galg, tuple(coeffs))

    def basis(d, only_eps_free):
        monos = (galg.monomial(m) for m in component_monomials(galg, d))
        return [m for m in monos if not only_eps_free or eps_reduce(m) == m]

    def layers():
        if galg.has_epsilon and not eps_free:
            yield from (element(0, one + times_eps(m)) for m in basis(1, True))
        for i in range(1, n + 1):
            d = coeff_degree(p, 0, i)
            yield from (element(i, m) for m in basis(d, eps_free) if frobenius(m, n - i + 1).is_zero())

    gens = []
    for g in layers():
        gens.append(g)
        if p ** len(gens) > limit:
            raise GroupTheoryError(f"group order {p}^{len(gens)} or more is over the limit {limit} ({LIMIT_ENV})")
    return gens


def _close(A: AlgebraPresentation, n: int, p: int, eps_free: bool) -> FiniteGroup:
    if p != A.p:
        raise GroupTheoryError("prime does not match the algebra")
    if n < 0:
        raise GroupTheoryError("n must be >= 0")
    galg = A if A.has_epsilon else adjoin_epsilon(A)
    gens = _layer_generators(p, n, galg, eps_free)
    predicted = p ** len(gens)
    one = identity(p, n, galg)
    found = _bfs(one, gens, compose, GroupElement.key)
    # the layers hold p^len(gens) elements in all: a closure of any other size
    # means the law or the generating set is wrong
    if len(found) != predicted:
        raise GroupTheoryError(f"generators closed to {len(found)} elements, not {predicted}")
    index = {k: i for i, k in enumerate(sorted(found))}
    elements = [found[k] for k in index]
    return FiniteGroup(p, n, galg, elements, [index[g.key()] for g in gens], index[one.key()], index)


def enumerate_group(A: AlgebraPresentation, n: int, p: int) -> FiniteGroup:
    """The full order-n truncated group over a finite algebra."""
    return _close(A, n, p, eps_free=False)


def subgroup_closure(G: FiniteGroup, seed) -> frozenset[int]:
    """Indices of the subgroup generated by the seed, by breadth-first closure."""
    return frozenset(_bfs(G.identity_index, set(seed) - {G.identity_index}, G.mul))


def _normal_closure(G: FiniteGroup, seed) -> tuple[list[int], frozenset[int]]:
    """Generators and members of the normal closure of seed in G = <G.gens>."""
    gens = [x for x in dict.fromkeys(seed) if x != G.identity_index]
    members = subgroup_closure(G, gens)
    for x in gens:  # visits the conjugates appended below as well
        for y in G.gens:
            c = G.mul(G.mul(G.inv(y), x), y)
            if c not in members:
                gens.append(c)
                members = subgroup_closure(G, gens)
    return gens, members


def _commutators(G: FiniteGroup, X, Y) -> list[int]:
    """[x, y] for x in X and y in Y, one per unordered pair, without [x, x]."""
    pairs = {(min(x, y), max(x, y)) for x in X for y in Y if x != y}
    return [G.comm(x, y) for x, y in sorted(pairs)]


def _series(G: FiniteGroup, partners, kind: str, bound: Optional[int]) -> SeriesReport:
    """G = H_0 > H_1 > ..., H_{k+1} = [<X>, <Y>] for H_k = <X> and Y = partners(X).

    [<X>, <Y>] is the normal closure of the [x, y] in <X, Y>; for both series
    it is normal in G, so the closure is taken in G.
    """
    gens, chain = G.gens, [frozenset(range(G.order))]
    while True:
        gens, nxt = _normal_closure(G, _commutators(G, gens, partners(gens)))
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


def lower_central_series(G: FiniteGroup) -> SeriesReport:
    """Gamma_0 = G, Gamma_{k+1} = [Gamma_k, G]; nilpotency class = first trivial stage."""
    return _series(G, lambda X: G.gens, "lower_central", G.n + 1)


def derived_series(G: FiniteGroup) -> SeriesReport:
    """D_0 = G, D_{k+1} = [D_k, D_k]."""
    return _series(G, lambda X: X, "derived", None)


def check_filtration_bounds(G: FiniteGroup) -> bool:
    """Elementwise filtration bounds for both series.

    Every element of Gamma_{k+1} must sit at filtration >= k + 1/2, every
    element of D_1 at >= 1/2, and of D_{k+1} (k >= 1) at >= 2k.
    """

    def holds(series, need):
        return all(
            i == G.identity_index or filtration_level(G.elements[i]) >= need(k)
            for k, H in enumerate(series(G).chain[1:])
            for i in H
        )

    return holds(lower_central_series, lambda k: k + Fraction(1, 2)) and holds(
        derived_series, lambda k: Fraction(1, 2) if k == 0 else Fraction(2 * k)
    )


def ev_subgroup_series(A: AlgebraPresentation, n: int, p: int) -> SeriesReport:
    """Lower central series of the eps-free order-n truncated group.

    Only the eps-free generators are closed, so STEENROD_LIMIT bounds this
    subgroup and the chain indexes its elements in key order.  The expected
    vanishing stage drops by one relative to the full group.
    """
    if p == 2:
        raise GroupTheoryError("requires an odd prime")
    H = _close(A, n, p, eps_free=True)
    return _series(H, lambda X: H.gens, "ev_lower_central", n)
