"""The dual Steenrod algebra family as symbolic Hopf algebras.

A HopfPresentation wraps a finitely presented graded-commutative algebra whose
generators are the Milnor generators (possibly Frobenius-shifted: the level-k
subalgebras are generated by zeta_i^(2^k) resp. xi_i^(p^k)), together with a
generator index bound N, a degree cap D and the Frobenius shift.  All
quotients in play are by monomial ideals, so ideal membership is decided by
the caps of the presentation.

Everything is exact below degree D.  Presentations of the full (infinitely
generated, cap-free) algebras carry synthetic caps just large enough that no
monomial of degree <= D is lost.

Naming: "z{i}" are the p=2 generators, "x{i}" the polynomial and "t{i}" the
exterior generators for odd p.  Code outside this module reaches them through
`HopfPresentation.xi` and `HopfPresentation.tau`, never by name.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Iterable, Optional

from .algebra import (
    AlgebraElement,
    AlgebraError,
    AlgebraPresentation,
    EnumerationError,
    Generator,
    accumulate,
    adjoin_epsilon,
    component_monomials,
    frobenius,
    sparse_add,
    sparse_neg,
    sparse_scale,
    sparse_sub,
    times_eps,
)
from .group import GroupElement, GroupError, rho

HopfElement = AlgebraElement


class HopfError(Exception):
    pass


@dataclass(frozen=True)
class HopfPresentation:
    p: int
    N: int  # generator index bound
    D: int  # degree cap
    shift: int  # generators are the (p^shift)-th powers of the Milnor generators
    algebra: AlgebraPresentation
    label: str

    def gen_names(self) -> list[str]:
        return [g.name for g in self.algebra.generators]

    def has_gen(self, name: str) -> bool:
        return any(g.name == name for g in self.algebra.generators)

    def gen_degree(self, name: str) -> int:
        return self.algebra.generators[self.algebra.index(name)].degree

    def xi_name(self, i: int) -> str:
        """The name of Milnor's xi_i (zeta_i at p = 2)."""
        return f"{'z' if self.p == 2 else 'x'}{i}"

    def xi(self, i: int, e: int = 1) -> AlgebraElement:
        """xi_i^e: one at i = 0; zero where the quotient lacks xi_i or a cap
        kills the power."""
        alg = self.algebra
        if i == 0:
            return alg.one()
        name = self.xi_name(i)
        return alg.gen(name, e) if self.has_gen(name) else alg.zero()

    def tau(self, i: int) -> AlgebraElement:
        """tau_i, or zero where the presentation lacks it (always at p = 2)."""
        name = f"t{i}"
        return self.algebra.gen(name) if self.has_gen(name) else self.algebra.zero()

    def work(self) -> int:
        """About how many tensor-term pairs checking the Hopf laws multiplies out.

        The coproduct of g_n holds xi_(n-j)^(p^j) for 0 < j < n, and `coproduct`
        multiplies a power g^e out by e tensor products of up to about e terms
        each, so every such power that survives its cap counts e^2.
        """
        work = 0
        for g in self.algebra.generators:
            n = int(g.name[1:])
            for j in range(1, n):
                e = self.p**j
                if not self.xi(n - j, e).is_zero():
                    work += e * e
        return work

    @property
    def degree_cap(self) -> int:
        # D, relaxed so that every generator itself is admissible (the top
        # exterior generator outweighs D = 2(p^N - 1) by one)
        gens = self.algebra.generators
        return max([self.D] + [g.degree for g in gens])


def default_degree_cap(p: int, N: int = 4) -> int:
    return 2 * (p**N - 1)


def _synthetic(name: str, degree: int, D: int) -> Generator:
    # the smallest cap that keeps every monomial of degree <= D representable
    return Generator(name, degree, D // degree + 1)


def _exterior(p: int, indices) -> list[Generator]:
    return [Generator(f"t{i}", 2 * p**i - 1, 2) for i in indices]


def _build(p, N, shift, gens, label, D=None) -> HopfPresentation:
    if D is None:  # a finite quotient: its top degree
        D = max(sum((g.cap - 1) * g.degree for g in gens), 0)
    return HopfPresentation(p, N, D, shift, AlgebraPresentation(p, tuple(gens)), label)


def dual_steenrod(p: int, N: int = 4, D: Optional[int] = None) -> HopfPresentation:
    """The full dual algebra, truncated at generator bound N and degree D."""
    if D is None:
        D = default_degree_cap(p, N)
    if p == 2:
        gens = [_synthetic(f"z{i}", 2**i - 1, D) for i in range(1, N + 1)]
    else:
        gens = _exterior(p, range(N + 1))
        gens += [_synthetic(f"x{i}", 2 * (p**i - 1), D) for i in range(1, N + 1)]
    return _build(p, N, 0, gens, f"A_dual(p={p})", D)


def milnor_quotient(p: int, n: int) -> HopfPresentation:
    """The finite quotient dual to the length-n subalgebra of operations."""
    if p == 2:
        gens = [Generator(f"z{i}", 2**i - 1, 2 ** (n - i + 1)) for i in range(1, n + 1)]
    else:
        gens = _exterior(p, range(n + 1)) + list(milnor_quotient_ev(p, n).algebra.generators)
    return _build(p, n, 0, gens, f"A({n})")


def milnor_quotient_ev(p: int, n: int) -> HopfPresentation:
    """Polynomial part of milnor_quotient (odd p)."""
    if p == 2:
        raise HopfError("the even subalgebra split is an odd-p notion")
    gens = [Generator(f"x{i}", 2 * (p**i - 1), p ** (n - i + 1)) for i in range(1, n + 1)]
    return _build(p, n, 0, gens, f"A_ev({n})")


def level_algebra(p: int, k: int, N: int = 4, D: Optional[int] = None) -> HopfPresentation:
    """The level-k subalgebra, generated by the (p^k)-th generator powers."""
    if k == 0:
        return dual_steenrod(p, N, D)
    if D is None:
        D = default_degree_cap(p, N) * p**k
    if p == 2:
        gens = [_synthetic(f"z{i}", 2**k * (2**i - 1), D) for i in range(1, N + 1)]
    else:
        gens = _exterior(p, [0] if k == 1 else [])
        gens += [_synthetic(f"x{i}", 2 * p**k * (p**i - 1), D) for i in range(1, N + 1)]
    return _build(p, N, k, gens, f"A_angle({k})", D)


def level_mod_I(p: int, k: int, N: int = 4) -> HopfPresentation:
    """Quotient of the level-k algebra by the minimal cocommutativity ideal."""
    if p == 2:
        gens = [Generator(f"z{i}", 2**k * (2**i - 1), 2) for i in range(1, N + 1)]
    else:
        gens = _exterior(p, range(1, N + 1) if k == 0 else [0] if k == 1 else [])
        gens += [Generator(f"x{i}", 2 * p**k * (p**i - 1), p) for i in range(1, N + 1)]
    return _build(p, N, k, gens, f"A_mod_I({k})")


def dual_mod_J(p: int, k: int, N: int = 4) -> HopfPresentation:
    """Quotient of the full dual algebra by the extended level-k ideal."""
    if p == 2:
        gens = [Generator(f"z{i}", 2**i - 1, 2 ** (k + 1)) for i in range(1, N + 1)]
    elif k == 0:
        return level_mod_I(p, 0, N)
    else:
        gens = _exterior(p, range(N + 1))
        gens += [Generator(f"x{i}", 2 * (p**i - 1), p ** (k + 1)) for i in range(1, N + 1)]
    return _build(p, N, 0, gens, f"A_mod_J({k})")


# -- tensor square -------------------------------------------------------------


class TensorElement(AlgebraElement):
    """Sparse element of the two-fold tensor square, with Koszul signs.

    An AlgebraElement over `base.square()`: the term a (x) b is keyed by the
    packed monomial (a << base.width) | b, so its product is the algebra
    product.  `pairs` splits the keys again.
    """

    __slots__ = ()

    # bound on the class itself, not inherited: perfbench/tracing.py wraps
    # each class's own bindings, to count tensor and algebra arithmetic apart
    __mul__ = AlgebraElement.__mul__
    __add__ = sparse_add
    __sub__ = sparse_sub
    __neg__ = sparse_neg
    scale = sparse_scale

    @classmethod
    def zero(cls, base: AlgebraPresentation) -> "TensorElement":
        return cls(base.square(), {})

    @classmethod
    def of(cls, x: AlgebraElement, y: AlgebraElement) -> "TensorElement":
        p, w = x.pres.p, x.pres.width
        terms = {}
        for m1, c1 in x.terms.items():
            for m2, c2 in y.terms.items():
                c = c1 * c2 % p
                if c:
                    terms[m1 << w | m2] = c
        return cls(x.pres.square(), terms)

    def pairs(self):
        """The terms as ((a, b), c) for c * a (x) b, a and b packed monomials."""
        w = self.pres.width >> 1
        low = (1 << w) - 1
        return (((m >> w, m & low), c) for m, c in self.terms.items())

    def __repr__(self):
        if not self.terms:
            return "0"
        n = self.pres.ngens >> 1
        exps = [(self.pres.exponents(m), c) for m, c in sorted(self.terms.items())]
        return " + ".join(f"{c}*{e[:n]}(x){e[n:]}" for e, c in exps)


def switch(t: TensorElement) -> TensorElement:
    """The switching map x(x)y -> (-1)^(|x||y|) y(x)x."""
    p, odd, w = t.pres.p, t.pres.odd, t.pres.width >> 1
    return TensorElement(t.pres, {
        m2 << w | m1: -c % p if (m1 & odd).bit_count() & (m2 & odd).bit_count() & 1 else c
        for (m1, m2), c in t.pairs()
    })


# -- structure maps ------------------------------------------------------------


@functools.lru_cache(maxsize=128)
def coproduct_gen(hp: HopfPresentation, name: str) -> TensorElement:
    """Coproduct of one generator, by Milnor's mu(xi_n) = sum_j xi_{n-j}^(p^j)
    (x) xi_j and mu(tau_n) = tau_n (x) 1 + sum_j xi_{n-j}^(p^j) (x) tau_j; the
    shifted generators obey the same, and quotient caps kill the rest."""
    kind, n = name[0], int(name[1:])
    right = hp.tau if kind == "t" else hp.xi
    acc = TensorElement.zero(hp.algebra)
    for j in range(n + 1):
        acc = acc + TensorElement.of(hp.xi(n - j, hp.p**j), right(j))
    if kind == "t":
        acc = acc + TensorElement.of(right(n), hp.algebra.one())
    return acc


def coproduct(hp: HopfPresentation, x: HopfElement, check_cap: bool = True) -> TensorElement:
    """Multiplicative extension of the generator coproducts."""
    alg = hp.algebra
    top = max(map(alg.mono_degree, x.terms), default=0) if check_cap else 0
    if top > hp.degree_cap:
        raise HopfError(f"degree {top} exceeds cap D={hp.D}")
    return extend(alg, x, functools.partial(coproduct_gen, hp), TensorElement.of(alg.one(), alg.one()))


def extend(alg: AlgebraPresentation, x: AlgebraElement, image, one: AlgebraElement) -> AlgebraElement:
    """The algebra map given on the generator names of alg by image, at x.

    Each term c * g1^e1 ... gn^en of x goes to c * image(g1)^e1 ... image(gn)^en,
    multiplied out from one in generator order; all are summed in one dict.
    """
    terms: dict = {}
    for mono, c in x.terms.items():
        out = one
        for g, e in zip(alg.generators, alg.exponents(mono)):
            if e:
                y = image(g.name)
                for _ in range(e):
                    out = out * y
        accumulate(terms, ((m, c * v) for m, v in out.terms.items()), one.pres.p)
    return type(one)(one.pres, terms)


@functools.lru_cache(maxsize=128)
def antipode_gen(hp: HopfPresentation, name: str) -> AlgebraElement:
    """Conjugation on one generator, by Milnor's recursions sum_j xi_{n-j}^(p^j)
    iota(xi_j) = 0 and iota(tau_n) = -sum_j iota(xi_{n-j})^(p^j) tau_j."""
    n = int(name[1:])
    if name[0] != "t":
        acc = hp.xi(n)  # the j = 0 term
        for j in range(1, n):
            acc = acc + hp.xi(n - j, hp.p**j) * antipode_gen(hp, hp.xi_name(j))
        return -acc
    acc = hp.algebra.zero()
    for j in range(n + 1):
        tau = hp.tau(j)
        if tau.is_zero():
            continue
        conj = hp.xi(n - j)  # one at j = n, zero where xi_{n-j} is missing
        if j < n and not conj.is_zero():
            conj = antipode_gen(hp, hp.xi_name(n - j))
        acc = acc + frobenius(conj, j) * tau
    return -acc


def antipode(hp: HopfPresentation, x: HopfElement) -> HopfElement:
    """Multiplicative extension; legitimate because the algebra is graded-commutative."""
    return extend(hp.algebra, x, functools.partial(antipode_gen, hp), hp.algebra.one())


def counit(x: HopfElement) -> int:
    return x.constant_term()


# -- axiom defects (zero iff the axiom holds) ---------------------------------


def coassociativity_defect(hp: HopfPresentation, x: HopfElement) -> dict:
    """(mu (x) id) mu(x) - (id (x) mu) mu(x) as a sparse triple tensor: the
    term a (x) b (x) c is keyed by (a << 2w) | (b << w) | c, w = the width."""
    alg = hp.algebra
    w = alg.width
    mu = coproduct(hp, x)
    memo: dict = {}  # monomial -> its coproduct's terms, for this call only

    def delta(m):
        if m not in memo:
            memo[m] = coproduct(hp, AlgebraElement(alg, {m: 1}), check_cap=False).terms
        return memo[m].items()

    terms: dict = {}
    for (m1, m2), c in mu.pairs():
        accumulate(terms, ((ab << w | m2, c * c2) for ab, c2 in delta(m1)), alg.p)
        accumulate(terms, ((m1 << 2 * w | bc, -c * c2) for bc, c2 in delta(m2)), alg.p)
    return terms


def counit_defect(hp: HopfPresentation, x: HopfElement) -> tuple[AlgebraElement, AlgebraElement]:
    """((counit (x) id) mu(x) - x, (id (x) counit) mu(x) - x)."""
    alg = hp.algebra
    mu = coproduct(hp, x)  # its pairs are distinct keys: nothing to add up
    left = AlgebraElement(alg, {m2: c for (m1, m2), c in mu.pairs() if m1 == 0})
    right = AlgebraElement(alg, {m1: c for (m1, m2), c in mu.pairs() if m2 == 0})
    return left - x, right - x


def antipode_defect(hp: HopfPresentation, x: HopfElement) -> tuple[AlgebraElement, AlgebraElement]:
    """(m(iota (x) id) mu(x) - counit(x) 1,  m(id (x) iota) mu(x) - counit(x) 1)."""
    alg = hp.algebra
    left, right = {}, {}
    for (m1, m2), c in coproduct(hp, x).pairs():
        e1 = AlgebraElement(alg, {m1: c})
        e2 = AlgebraElement(alg, {m2: 1})
        accumulate(left, (antipode(hp, e1) * e2).terms.items(), alg.p)
        accumulate(right, (e1 * antipode(hp, e2)).terms.items(), alg.p)
    target = alg.scalar(counit(x))
    return AlgebraElement(alg, left) - target, AlgebraElement(alg, right) - target


def axiom_counterexamples(hp: HopfPresentation):
    """The Hopf laws each generator breaks, as {"law", "generator"} dicts.

    Lazy, so a caller that wants only the first failure stops there.
    """
    alg = hp.algebra
    for g in alg.generators:
        x = alg.gen(g.name)
        if coassociativity_defect(hp, x):
            yield {"law": "coassociativity", "generator": g.name}
        if not all(v.is_zero() for v in counit_defect(hp, x)):
            yield {"law": "counit", "generator": g.name}
        if not all(v.is_zero() for v in antipode_defect(hp, x)):
            yield {"law": "antipode", "generator": g.name}


def cocommutativity_defect(hp: HopfPresentation):
    """Per-generator images of mu - T mu; all zero means cocommutative up to D."""
    out = []
    for g in hp.algebra.generators:
        if g.degree > hp.D:
            continue
        mu = coproduct(hp, hp.algebra.gen(g.name))
        out.append((g.name, mu - switch(mu)))
    return out


def primitivity_check(hp: HopfPresentation) -> bool:
    """True iff every generator is primitive in this quotient."""
    alg = hp.algebra
    for g in alg.generators:
        x = alg.gen(g.name)
        expected = TensorElement.of(x, alg.one()) + TensorElement.of(alg.one(), x)
        if coproduct(hp, x, check_cap=False) != expected:
            return False
    return True


# -- monomial Hopf ideals ------------------------------------------------------


def check_hopf_ideal(hp: HopfPresentation, ideal_gens: Iterable[HopfElement], d: int):
    """Verify the Hopf-ideal axioms for a monomial ideal, up to degree d.

    Returns (ok, first_violation) where the violation names the offending
    monomial and axiom.
    """
    alg = hp.algebra
    gen_monos = []
    for g in ideal_gens:
        if len(g.terms) != 1 or next(iter(g.terms.values())) != 1:
            raise HopfError("ideal generators must be single monomials")
        gen_monos.append(next(iter(g.terms)))

    def in_ideal(m) -> bool:
        # m divisible by gm: no field of m | guard borrows when gm is subtracted
        return any(((m | alg.guard) - gm) & alg.guard == alg.guard for gm in gen_monos)

    if any(g.degree <= 0 for g in alg.generators):
        raise EnumerationError("requires strictly positive generator degrees")
    for mono in (mono for deg in range(d + 1) for mono in component_monomials(alg, deg)):
        m = alg.pack(mono)
        if not in_ideal(m):
            continue
        x = AlgebraElement(alg, {m: 1})
        if counit(x) != 0:
            return False, (mono, "counit")
        mu = coproduct(hp, x, check_cap=False)
        for (m1, m2), c in mu.pairs():
            if not in_ideal(m1) and not in_ideal(m2):
                return False, (mono, "coproduct", (alg.exponents(m1), alg.exponents(m2), c))
        conj = antipode(hp, x)
        for m in conj.terms:
            if not in_ideal(m):
                return False, (mono, "antipode", alg.exponents(m))
    return True, None


# -- assignments, convolution, theta -------------------------------------------


@dataclass
class GeneratorAssignment:
    """A degree-preserving assignment of target values to the Hopf generators,
    i.e. an algebra homomorphism into the target presentation."""

    hopf: HopfPresentation
    target: AlgebraPresentation
    values: dict

    def __post_init__(self):
        if self.target.p != self.hopf.p:
            raise HopfError("target prime mismatch")
        for name, v in self.values.items():
            if not self.hopf.has_gen(name):
                raise HopfError(f"assignment to unknown generator {name}")
            if v.is_zero():
                continue
            if v.degree() != self.hopf.gen_degree(name):
                raise HopfError(f"assignment to {name} is not degree-preserving")

    def value(self, name: str) -> AlgebraElement:
        return self.values.get(name, self.target.zero())

    def eval(self, x: HopfElement) -> AlgebraElement:
        return extend(self.hopf.algebra, x, self.value, self.target.one())


def convolution(phi: GeneratorAssignment, psi: GeneratorAssignment) -> GeneratorAssignment:
    """The point-group product: x -> m(psi (x) phi)(mu(x)) on each generator,
    where m(psi (x) phi) is the map out of the tensor square that `extend`s
    g -> psi(g) and the primed copy g' -> phi(g)."""
    if phi.hopf != psi.hopf or phi.target != psi.target:
        raise HopfError("convolution needs matching presentations")
    hp, alg = phi.hopf, phi.hopf.algebra

    def image(name):
        return phi.value(name[:-1]) if name.endswith("'") else psi.value(name)

    values = {}
    for g in alg.generators:
        mu = coproduct(hp, alg.gen(g.name), check_cap=False)
        v = extend(alg.square(), mu, image, phi.target.one())
        if not v.is_zero():
            values[g.name] = v
    return GeneratorAssignment(hp, phi.target, values)


def embed(x: AlgebraElement, big: AlgebraPresentation) -> AlgebraElement:
    """Extend an element along an append-only extension of its presentation."""
    if x.pres == big:
        return x
    extra = big.ngens - x.pres.ngens
    if extra < 0 or big.generators[: x.pres.ngens] != x.pres.generators:
        raise AlgebraError("not an append-only extension")
    exps = x.pres.exponents
    return AlgebraElement(big, {big.pack(exps(m) + (0,) * extra): c for m, c in x.terms.items()})


def theta(phi: GeneratorAssignment, trunc: int) -> GroupElement:
    """The group element corresponding to an algebra homomorphism."""
    hp = phi.hopf
    if trunc > hp.N:
        raise GroupError(f"truncation {trunc} exceeds generator bound N={hp.N}")
    # eps is adjoined for odd p; at p = 2 adjoin_epsilon returns the target,
    # and times_eps below is zero
    galg = phi.target if phi.target.has_epsilon else adjoin_epsilon(phi.target)

    def up(v):
        return embed(v, galg)

    head = galg.one()
    if hp.shift <= 1:
        head = head + times_eps(up(phi.value("t0")))
    coeffs = [head]
    for i in range(1, trunc + 1):
        c = up(phi.value(hp.xi_name(i)))
        if hp.shift == 0:
            c = c + times_eps(up(phi.value(f"t{i}")))
        coeffs.append(c)
    return GroupElement(hp.p, trunc, hp.shift, galg, tuple(coeffs))


def restrict_assignment(phi: GeneratorAssignment) -> GeneratorAssignment:
    """Precompose with the inclusion of the next level: generators become p-th powers."""
    hp = phi.hopf
    next_hp = level_algebra(hp.p, hp.shift + 1, hp.N, hp.D * hp.p)
    values = {}
    for i in range(1, hp.N + 1):
        v = frobenius(phi.value(hp.xi_name(i)), 1)
        if not v.is_zero():
            values[hp.xi_name(i)] = v
    if next_hp.has_gen("t0"):
        v = phi.value("t0")
        if not v.is_zero():
            values["t0"] = v
    return GeneratorAssignment(next_hp, phi.target, values)


def rho_diagram_check(phi: GeneratorAssignment, trunc: int) -> bool:
    """rho(theta(phi)) must equal theta of the restricted assignment."""
    lhs = rho(theta(phi, trunc))
    rhs = theta(restrict_assignment(phi), trunc)
    return lhs == rhs
