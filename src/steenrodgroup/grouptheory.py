"""Finite-group computations by polycyclic sifting: subgroup series of the finite groups.

Over a finite coefficient algebra the truncated subgroup cut out by the
Frobenius-nilpotency conditions (alpha_i^(p^(n-i+1)) = 0 for i <= n,
alpha_i = 0 beyond) is a finite p-group.  Its filtration by the normal
subgroups N_i (alpha_0 = 1 and alpha_1 = ... = alpha_{i-1} = 0; N_0 = G) has
elementary abelian layers N_i / N_{i+1}: inside N_i the layer-i coefficients
of a product are the sum of its factors' (alpha_0 - 1 for layer 0).  So one
generator per basis monomial of each layer is a polycyclic generating
sequence (pcgs) of G, and an element's coordinates on a layer are its
coefficients at the layer's monomials.

No element is enumerated.  A subgroup is an induced pcgs: rows in echelon
form, one per depth (layer, monomial), each the list g, g^2, ..., g^(p-1) of
an element g whose coordinate at the depth is 1, so that row[t - 1] has
coordinate t there.  Sifting left-divides an element by the rows in depth
order (`group._divide`), by row[c - 1] at a coordinate c; it reaches the
identity exactly when the element lies in the subgroup, whose order is
p^(rows).  One procedure, `_close`, makes every pcgs: it sifts the p-th
power of each new row's g and its commutators (`group.commutator`) with the
rows before it, and, for a normal closure in G, with G's generators, and
hands back the commutators it took.  G is the closure of its layer
generators; [G, G] is the normal closure of the commutators that G's
closure took, and each later term of the lower central or derived series
the normal closure of the ones that the term before it took with G's
generators or with its own rows (Holt, Eick & O'Brien, Handbook of
Computational Group Theory, 2005, ch. 8), on O(r^2) commutators of the r
generators instead of |G| r products.  `_build` takes [G, G] and both
series once, so no commutator list outlives the build.

`finite_group` builds the group over A(n) once `check_order` admits it, and
`sweep` judges each SWEEP_GRID row for the CLI and the sweep script alike.
"""

from __future__ import annotations

import os
from collections import deque
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import accumulate
from typing import NamedTuple, Optional

from .algebra import (
    _UNIT,
    AlgebraElement,
    AlgebraPresentation,
    SteenrodError,
    adjoin_epsilon,
    component,
    times_eps,
)
from .group import (
    GroupElement,
    _divide,
    class_bound,
    coeff_degree,
    commutator,
    commutator_stage,
    compose,
    filtration_level,
    identity,
    in_Gpn_layer,
    invert_recursive,
    is_identity,
)
from .hopf import HopfPresentation, milnor_quotient

DEFAULT_LIMIT = 100_000
LIMIT_ENV = "STEENROD_LIMIT"

# (p, n) of the finite groups swept by the CLI and the sweep script
SWEEP_GRID = ((2, 1), (2, 2), (3, 0), (3, 1))


class GroupTheoryError(SteenrodError):
    pass


def size_limit() -> int:
    raw = os.environ.get(LIMIT_ENV, str(DEFAULT_LIMIT))
    try:
        return int(raw)
    except ValueError as exc:
        raise GroupTheoryError(f"bad {LIMIT_ENV} value {raw!r}") from exc


def check_order(p: int, gens: int) -> None:
    """GroupTheoryError if a group with at least gens layer generators, so of
    order p^gens or more, is over the limit, naming the least such power;
    p^gens itself is never computed."""
    limit = size_limit()
    e, order = 1, p
    while order <= limit and e < gens:
        e, order = e + 1, order * p
    if gens > 0 and order > limit:
        raise GroupTheoryError(f"group order {p}^{e} or more is over the limit {limit} ({LIMIT_ENV})")


class _Term(NamedTuple):
    """A closed subgroup's pcgs rows, keyed by depth in the order found, and
    the commutators its closure took: inner, [g, x] for each row g and each
    row x found before it; outer, [g, y] for each row g and each generator y
    of G (normal closures only).  A row is the list g, g^2, ..., g^(p-1) of an
    element g whose coordinate at the row's depth is 1, so row[t - 1] has
    coordinate t there, and every coordinate at an earlier depth is 0."""

    rows: dict
    inner: list
    outer: list


@dataclass
class FiniteGroup:
    """A finite group of stunted series, held as its pcgs.

    rows are G's pcgs rows, one per filtration-layer generator, keyed by
    depth and in depth order; gens reads the element g of each.  layers[i]
    lists layer i's packed monomials, so an element of N_i has coordinate c
    at a monomial it carries with coefficient c in alpha_i (alpha_0 - 1 for
    layer 0).  lower_central and derived are G's two series, each taken once
    when the group is built.
    """

    p: int
    n: int
    algebra: AlgebraPresentation
    layers: list[list[int]] = field(repr=False)
    rows: dict = field(repr=False, default_factory=dict)
    lower_central: Optional[SeriesReport] = field(repr=False, default=None)
    derived: Optional[SeriesReport] = field(repr=False, default=None)

    @property
    def gens(self) -> list[GroupElement]:
        return [row[0] for row in self.rows.values()]

    @property
    def order(self) -> int:
        return self.p ** len(self.rows)


@dataclass
class SeriesReport:
    """A descending subgroup chain with its termination data.

    chain[i] is the induced pcgs of the i-th term, in depth order; sizes[i]
    is its order; length is the first index whose term is trivial (None if
    the chain stabilized before reaching triviality); bound/ok record an
    expected vanishing stage when one applies.
    """

    kind: str
    chain: list[tuple[GroupElement, ...]]
    sizes: list[int]
    length: Optional[int]
    bound: Optional[int] = None
    ok: Optional[bool] = None


def _layer_generators(p: int, n: int, galg: AlgebraPresentation, eps_free: bool) -> list:
    """(layer, generator) for each basis monomial of each filtration layer.

    Layer 0 (odd p, with eps): alpha_0 = 1 + m*eps for each eps-free degree-1 monomial m.
    Layer i >= 1: alpha_i = m for each degree-d_i monomial m that
    `group.in_Gpn_layer` admits, m^(p^(n-i+1)) = 0.  With eps_free, only the
    generators of the eps-free subgroup: no layer 0 and no monomial containing
    eps.  Refused by `check_order` as soon as the generators so far exceed
    STEENROD_LIMIT.
    """
    one, zero = galg.one(), galg.zero()

    def element(i, m):
        c = AlgebraElement(galg, {m: 1})
        coeffs = [one] + [zero] * n
        coeffs[i] = one + times_eps(c) if i == 0 else c
        return i, GroupElement(p, n, 0, galg, tuple(coeffs))

    def layers():
        if galg.has_epsilon and not eps_free:
            yield from (element(0, m) for m in component(galg, 1, True))
        for i in range(1, n + 1):
            monomials = component(galg, coeff_degree(p, 0, i), eps_free)
            yield from (element(i, m) for m in monomials if in_Gpn_layer(galg, m, i, n))

    gens = []
    for g in layers():
        gens.append(g)
        check_order(p, len(gens))
    return gens


def _sift(G: FiniteGroup, rows: dict, g: GroupElement):
    """Left-divide g by the rows in depth order.

    None if g reaches the identity, which is when it lies in the rows'
    subgroup; otherwise (depth, c, residue) for the first coordinate c no row
    clears; the layer map is additive, so row[c - 1]^-1 g clears it as
    g row[c - 1]^-1 does.  A layer left non-zero after its coordinates are
    cleared means a product left G.
    """
    for i, basis in enumerate(G.layers):
        for j, mono in enumerate(basis):
            c = g.coeffs[i].terms.get(mono)
            if c:
                row = rows.get((i, j))
                if row is None:
                    return (i, j), c, g
                g = _divide(row[c - 1], g)
        if (g.coeffs[i].terms != _UNIT) if i == 0 else g.coeffs[i].terms:
            raise GroupTheoryError(f"a product left the group: its layer-{i} coefficient is not in the layer's span")
    return None


def _close(G: FiniteGroup, queue, normal: bool) -> _Term:
    """The pcgs of the subgroup generated by the queue, or of its normal
    closure in G: sift the queue into rows, queueing each new row's p-th
    power, its inner and, when normal, its outer commutators, until it is empty.

    A residue h of coordinate c makes the row g^t = h^(t / c mod p), h's own
    powers in another order."""
    p, rows, inner, outer = G.p, {}, [], []
    queue = deque(queue)
    while queue:
        found = _sift(G, rows, queue.popleft())
        if found is not None:
            depth, c, h = found
            powers = list(accumulate([h] * (p - 1), compose))
            row = [powers[t * pow(c, -1, p) % p - 1] for t in range(1, p)]
            new = [commutator(row[0], x[0]) for x in rows.values()]
            new_outer = [commutator(row[0], y[0]) for y in G.rows.values()] if normal else []
            queue.append(compose(row[-1], row[0]))
            queue += new + new_outer
            inner += new
            outer += new_outer
            rows[depth] = row
    return _Term(rows, inner, outer)


def _build(A: AlgebraPresentation, n: int, p: int, eps_free: bool) -> FiniteGroup:
    if p != A.p:
        raise GroupTheoryError("prime does not match the algebra")
    if n < 0:
        raise GroupTheoryError("n must be >= 0")
    galg = A if A.has_epsilon else adjoin_epsilon(A)
    one = identity(p, n, galg)
    G = FiniteGroup(p, n, galg, [[] for _ in range(n + 1)])
    gens = []
    for i, g in _layer_generators(p, n, galg, eps_free):
        inverse = invert_recursive(g)
        if not (compose(one, g) == g == compose(g, one) and is_identity(compose(g, inverse))
                and is_identity(compose(inverse, g))):
            raise GroupTheoryError("the group law breaks the identity or inverse law on a generator")
        [mono] = g.coeffs[i].terms.keys() - _UNIT.keys()
        G.layers[i].append(mono)
        gens.append(g)
    # each generator sifts to a row at its own depth, ahead of every relation;
    # with every depth filled, a relation sifts to the identity, which makes
    # the generators a pcgs of G, or _sift refuses it as a product that left G
    G.rows, relations, _ = _close(G, gens, normal=False)
    commutator_term = _close(G, relations, normal=True)
    del relations  # the build's largest list, freed before the series
    kind = "ev_lower_central" if eps_free else "lower_central"
    G.lower_central = _series(G, commutator_term, kind, class_bound(n, eps_free), "outer")
    G.derived = _series(G, commutator_term, "derived", None, "inner")
    return G


def enumerate_group(A: AlgebraPresentation, n: int, p: int) -> FiniteGroup:
    """The full order-n truncated group over a finite algebra, as its pcgs."""
    return _build(A, n, p, eps_free=False)


def _series(G: FiniteGroup, term: _Term, kind: str, bound: Optional[int], side: str) -> SeriesReport:
    """G = H_0 > H_1 = [G, G] > ..., H_{k+1} the normal closure in G of the
    commutators that H_k's closure took: its outer list for side "outer",
    which gives [H_k, G], and its inner list for "inner", which gives [H_k, H_k].

    For H and K normal in G, [H, K] is the normal closure of the [h, y] for
    h in H's pcgs and y in K's, one per pair when K is H; so [G, G] reads the
    commutators that G's own closure took.  term is the [G, G] term, which
    both series start from; neither it nor G is changed.
    """
    chain, nxt = [G.rows], term
    while len(nxt.rows) < len(chain[-1]):
        chain.append(nxt.rows)
        if not nxt.rows:
            break
        nxt = _close(G, getattr(nxt, side), normal=True)
    sizes = [G.p ** len(H) for H in chain]
    length = next((i for i, s in enumerate(sizes) if s == 1), None)
    ok = None if bound is None else length is not None and length <= bound
    terms = [tuple(H[d][0] for d in sorted(H)) for H in chain]
    return SeriesReport(kind, terms, sizes, length, bound, ok)


def lower_central_series(G: FiniteGroup) -> SeriesReport:
    """Gamma_0 = G, Gamma_{k+1} = [Gamma_k, G]; nilpotency class = first trivial stage."""
    return G.lower_central


def derived_series(G: FiniteGroup) -> SeriesReport:
    """D_0 = G, D_{k+1} = [D_k, D_k]."""
    return G.derived


def check_filtration_bounds(G: FiniteGroup) -> bool:
    """Filtration bounds for both series.

    Every element of Gamma_d must sit at filtration >= commutator_stage(d), every
    element of D_1 at >= 1/2, and of D_{k+1} (k >= 1) at >= 2k.  Each level
    set {g : filtration_level(g) >= s} is a subgroup, so it holds for a term
    exactly when it holds for the term's pcgs.
    """

    def holds(rep, need):
        return all(filtration_level(h) >= need(k) for k, H in enumerate(rep.chain[1:]) for h in H)

    return holds(lower_central_series(G), lambda k: commutator_stage(k + 1)) and holds(
        derived_series(G), lambda k: Fraction(1, 2) if k == 0 else Fraction(2 * k)
    )


def ev_subgroup_series(A: AlgebraPresentation, n: int, p: int) -> SeriesReport:
    """Lower central series of the eps-free order-n truncated group, of which
    only the eps-free generators are closed, so STEENROD_LIMIT bounds it."""
    if p == 2:
        raise GroupTheoryError("requires an odd prime")
    return _build(A, n, p, eps_free=True).lower_central


def finite_group(p: int, n: int) -> tuple[HopfPresentation, FiniteGroup]:
    """A(n) and the group of order-n series over it; the group has n layer
    generators or more (xi_i in layer i), so `check_order` comes first."""
    check_order(p, n)
    hp = milnor_quotient(p, n)
    return hp, enumerate_group(hp.algebra, n, p)


class SweepRow(NamedTuple):
    """A SWEEP_GRID row: A(n), its group, the group's series and filtration
    bounds, the eps-free series at odd p, and ok, whether all of them hold."""

    hopf: HopfPresentation
    group: FiniteGroup
    lower_central: SeriesReport
    derived: SeriesReport
    bounds_ok: bool
    ev: Optional[SeriesReport]
    ok: bool


def sweep(prime: Optional[int] = None):
    """The SWEEP_GRID rows at prime, or at every prime for None, one at a time."""
    for p, n in SWEEP_GRID:
        if prime in (None, p):
            hp, G = finite_group(p, n)
            lcs, derived, bounds = lower_central_series(G), derived_series(G), check_filtration_bounds(G)
            ev = ev_subgroup_series(hp.algebra, n, p) if p != 2 else None
            yield SweepRow(hp, G, lcs, derived, bounds, ev, lcs.ok and bounds and (ev is None or ev.ok))
