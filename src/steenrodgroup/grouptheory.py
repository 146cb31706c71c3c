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
form, one per depth (layer, monomial), each with its powers h .. h^(p-1).
Sifting left-divides an element by the rows in depth order (`group._divide`);
it reaches the identity exactly when the element lies in the subgroup, whose
order is p^(rows).  A subgroup is closed by sifting the p-th power of each new
row and its commutators (`group.commutator`) with the rows before it, and, for
a normal closure in G, with G's generators.  The lower central and derived
series are then normal closures of the commutators of pcgs elements (Holt,
Eick & O'Brien, Handbook of Computational Group Theory, 2005, ch. 8), on
O(r^2) commutators of the r generators instead of |G| r products.

`finite_group` builds the group over A(n) once `check_order` admits it, and
`sweep` judges each SWEEP_GRID row for the CLI and the sweep script alike.
"""

from __future__ import annotations

import os
from collections import deque
from dataclasses import dataclass, field
from fractions import Fraction
from typing import NamedTuple, Optional

from .algebra import (
    AlgebraElement,
    AlgebraPresentation,
    SteenrodError,
    adjoin_epsilon,
    component,
    frobenius,
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


@dataclass(eq=False)
class _Row:
    """One element h of an induced pcgs, at its depth (layer, position).

    h^-t clears the coordinate c at the depth for t = c * scale mod p;
    powers[t - 1] = h^t.  position is h's index in G's pcgs when h is one
    of G's generators, and comms[j] memoizes [h, G.gens[j]].
    """

    depth: tuple[int, int]
    element: GroupElement
    scale: int
    powers: list[GroupElement]
    position: Optional[int] = None
    comms: dict = field(default_factory=dict)


def _row(depth, h: GroupElement, scale: int, position=None) -> _Row:
    """The row of h, with its powers h .. h^(p-1)."""
    powers = [h]
    for _ in range(h.p - 2):
        powers.append(compose(powers[-1], h))
    return _Row(depth, h, scale, powers, position)


@dataclass
class FiniteGroup:
    """A finite group of stunted series, held as its pcgs.

    gens are the filtration-layer generators in depth order; layers[i] lists
    layer i's monomials, each with the inverse of its generator's coefficient
    there, so an element of N_i has coordinate c * scale at the monomial it
    carries with coefficient c in alpha_i.  rows are gens as pcgs rows, keyed
    by depth; cache holds each series report and [G, G], each computed once.
    """

    p: int
    n: int
    algebra: AlgebraPresentation
    gens: list[GroupElement]
    layers: list[list[tuple[int, int]]] = field(repr=False)
    rows: dict = field(repr=False, default_factory=dict)
    cache: dict = field(repr=False, default_factory=dict)

    @property
    def order(self) -> int:
        return self.p ** len(self.gens)


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
    Layer i >= 1: alpha_i = m for each degree-d_i monomial m with
    m^(p^(n-i+1)) = 0.  With eps_free, only the generators of the eps-free
    subgroup: no layer 0 and no monomial containing eps.  Refused by
    `check_order` as soon as the generators so far exceed STEENROD_LIMIT.
    """
    one, zero = galg.one(), galg.zero()

    def element(i, c):
        coeffs = [one] + [zero] * n
        coeffs[i] = c
        return i, GroupElement(p, n, 0, galg, tuple(coeffs))

    def basis(d, only_eps_free):
        return [AlgebraElement(galg, {m: 1}) for m in component(galg, d, only_eps_free)]

    def layers():
        if galg.has_epsilon and not eps_free:
            yield from (element(0, one + times_eps(m)) for m in basis(1, True))
        for i in range(1, n + 1):
            d = coeff_degree(p, 0, i)
            yield from (element(i, m) for m in basis(d, eps_free) if frobenius(m, n - i + 1).is_zero())

    gens = []
    for g in layers():
        gens.append(g)
        check_order(p, len(gens))
    return gens


def _comm(h: _Row, x: _Row) -> GroupElement:
    """[h, x], memoized on h when x is one of G's generators."""
    c = h.comms.get(x.position)
    if c is None:
        c = commutator(h.element, x.element)
        if x.position is not None:
            h.comms[x.position] = c
    return c


def _sift(G: FiniteGroup, rows: dict, g: GroupElement):
    """Left-divide g by the rows in depth order.

    None if g reaches the identity, which is when it lies in the rows'
    subgroup; otherwise (depth, scale, residue) for the first coordinate no
    row clears; the layer map is additive, so h^-t g clears it as g h^-t does.
    A layer left non-zero after its coordinates are cleared means a product left G.
    """
    p, one = G.p, G.algebra.one()
    for i, basis in enumerate(G.layers):
        for j, (mono, scale) in enumerate(basis):
            c = g.coeffs[i].terms.get(mono, 0) * scale % p
            if c:
                row = rows.get((i, j))
                if row is None:
                    return (i, j), pow(c, -1, p), g
                g = _divide(row.powers[c * row.scale % p - 1], g)
        if (g.coeffs[i] - one if i == 0 else g.coeffs[i]).terms:
            raise GroupTheoryError(f"a product left the group: its layer-{i} coefficient is not in the layer's span")
    return None


def _relations(G: FiniteGroup, h: _Row, earlier, normal: bool) -> list[GroupElement]:
    """h^p, [h, x] for the earlier rows x and, for a normal closure in G,
    [h, y] for G's generators y."""
    out = [compose(h.powers[-1], h.element)]
    out += [_comm(h, x) for x in earlier]
    if normal:
        out += [_comm(h, y) for y in G.rows.values()]
    return out


def _close(G: FiniteGroup, rows: dict, queue, normal: bool) -> dict:
    """Sift the queue into rows, queueing each new row's relations, until it is empty."""
    queue = deque(queue)
    while queue:
        found = _sift(G, rows, queue.popleft())
        if found is not None:
            depth, scale, h = found
            row = _row(depth, h, scale)
            queue.extend(_relations(G, row, rows.values(), normal))
            rows[depth] = row
    return rows


def _build(A: AlgebraPresentation, n: int, p: int, eps_free: bool) -> FiniteGroup:
    if p != A.p:
        raise GroupTheoryError("prime does not match the algebra")
    if n < 0:
        raise GroupTheoryError("n must be >= 0")
    galg = A if A.has_epsilon else adjoin_epsilon(A)
    one = identity(p, n, galg)
    G = FiniteGroup(p, n, galg, [], [[] for _ in range(n + 1)])
    for i, g in _layer_generators(p, n, galg, eps_free):
        [(mono, c)] = (g.coeffs[i] - one.coeffs[i]).terms.items()
        inverse = invert_recursive(g)
        if not (compose(one, g) == g == compose(g, one) and is_identity(compose(g, inverse))
                and is_identity(compose(inverse, g))):
            raise GroupTheoryError("the group law breaks the identity or inverse law on a generator")
        depth = (i, len(G.layers[i]))
        G.layers[i].append((mono, pow(c, -1, p)))
        G.rows[depth] = _row(depth, g, 1, len(G.gens))
        G.gens.append(g)
    # the generators are a pcgs of G exactly when closing them adds no row
    rows = list(G.rows.values())
    relations = [r for i, h in enumerate(rows) for r in _relations(G, h, rows[:i], normal=False)]
    closed = len(_close(G, dict(G.rows), relations, normal=False))
    if closed != len(G.gens):
        raise GroupTheoryError(f"generators closed to {p}^{closed} elements, not {p}^{len(G.gens)}")
    return G


def enumerate_group(A: AlgebraPresentation, n: int, p: int) -> FiniteGroup:
    """The full order-n truncated group over a finite algebra, as its pcgs."""
    return _build(A, n, p, eps_free=False)


def _bracket(G: FiniteGroup, X: list, Y: list) -> dict:
    """The pcgs of [<X>, <Y>], the normal closure in G of the [x, y] for x in
    X and y in Y (one per pair when Y is X), for <X> and <Y> normal in G."""
    seeds = [_comm(x, y) for i, x in enumerate(X) for y in (X[:i] if Y is X else Y)]
    return _close(G, {}, seeds, normal=True)


def _series(G: FiniteGroup, partners, kind: str, bound: Optional[int]) -> SeriesReport:
    """G = H_0 > H_1 = [G, G] > ..., H_{k+1} = [<X>, <Y>] for X the pcgs of H_k and Y = partners(X).

    [<X>, <Y>] is the normal closure of the [x, y] in <X, Y>; for both series
    it is normal in G, so the closure is taken in G.  [G, G] and each series
    are computed once per group.
    """
    if kind in G.cache:
        return G.cache[kind]
    if "commutator" not in G.cache:
        gens = list(G.rows.values())
        G.cache["commutator"] = _bracket(G, gens, gens)
    chain, nxt = [G.rows], G.cache["commutator"]
    while len(nxt) < len(chain[-1]):
        chain.append(nxt)
        if not nxt:
            break
        X = list(nxt.values())
        nxt = _bracket(G, X, partners(X))
    sizes = [G.p ** len(H) for H in chain]
    length = next((i for i, s in enumerate(sizes) if s == 1), None)
    ok = None if bound is None else length is not None and length <= bound
    terms = [tuple(H[d].element for d in sorted(H)) for H in chain]
    G.cache[kind] = SeriesReport(kind, terms, sizes, length, bound, ok)
    return G.cache[kind]


def lower_central_series(G: FiniteGroup) -> SeriesReport:
    """Gamma_0 = G, Gamma_{k+1} = [Gamma_k, G]; nilpotency class = first trivial stage."""
    return _series(G, lambda X: list(G.rows.values()), "lower_central", class_bound(G.n))


def derived_series(G: FiniteGroup) -> SeriesReport:
    """D_0 = G, D_{k+1} = [D_k, D_k]."""
    return _series(G, lambda X: X, "derived", None)


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
    H = _build(A, n, p, eps_free=True)
    return _series(H, lambda X: list(H.rows.values()), "ev_lower_central", class_bound(n, eps_free=True))


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
