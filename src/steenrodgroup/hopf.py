"""The dual Steenrod algebra family as symbolic Hopf algebras.

A HopfPresentation wraps a finitely presented graded-commutative algebra whose
generators are the Milnor generators (possibly Frobenius-shifted: the level-k
subalgebras are generated by zeta_i^(2^k) resp. xi_i^(p^k)), together with a
generator index bound N, a degree cap D and the Frobenius shift.  All
quotients in play are by monomial ideals: a preset's kernel is generated by
the generators it lacks and the powers its caps kill, which is how
`verify.check_hopf_ideals` reads it.  The coproduct and antipode are
multiplicative, so `check_hopf_ideal` decides such an ideal on its generators.
`coproduct` and `antipode` are exact up to `degree_cap`, and refuse an x above
it, or of another presentation.

Every preset is one call to `quotient`: the tau_i it lists, then xi_1 .. xi_N
at its shift, xi_i of the degree of alpha_i, with one cap rule; the full
(cap-free) algebras get `quotient`'s synthetic caps.

    preset                     shift  taus                      xi_i cap
    dual_steenrod(p, N, D)     0      0..N                      synthetic from D
    milnor_quotient(p, n)      0      0..n                      p^(n-i+1)
    milnor_quotient_ev(p, n)   0      none                      p^(n-i+1)
    level_algebra(p, k, N, D)  k      0..N at k = 0, 0 at k = 1 synthetic from D
    level_mod_I(p, k, N)       k      1..N at k = 0, 0 at k = 1 p
    dual_mod_J(p, k, N)        0      0..N, 1..N at k = 0       p^(k+1)

p = 2 has no tau.  Naming: "z{i}" is xi_i at p = 2 (Milnor's zeta_i), "x{i}"
xi_i and "t{i}" tau_i at odd p; `_name` writes and `_parse` reads the names,
and code outside this module reaches the generators through
`HopfPresentation.xi` and `HopfPresentation.tau`.  A negative level,
generator bound or degree cap is refused with a HopfError before anything is
built.

Every map given on generators (coproduct, antipode, assignment, convolution,
the switch of tensor copies) is one `extend` over an `Images`: a `Memo` from
packed monomials to their images that builds each missing image with one
product, image(m / piece) * image(piece), from the image of its divisor.
The piece is g^(p^j) for m's last generator g and the lowest non-zero base-p
digit j of its exponent; Milnor's coproduct is built from p^j-th powers, and
in characteristic p such a power is termwise, so image(g^(p^j)) is one
`frobenius` step from image(g^(p^(j-1))).

`coproduct` and `antipode` admit x, then sum c * image(m) over the terms
c * m of x, from the presentation's two `Images`, made on first use and kept
for as long as it lives; the law defects index the same two for the
monomials of mu(x), and `check_hopf_ideal` for an ideal's generators.  A map
of one monomial with coefficient 1 hands out the stored image itself.
Assignments, convolution and `switch` make an `Images` for one call.  No Hopf
law is assumed: every image is a product of the generator maps' images, so
each defect is still computed from them alone.  The defects sum without
building a product or a term stream: each c * S(m1) * m2 and c * m1 * S(m2)
is one `mul_into`, and each mu(m1) (x) m2 and m1 (x) mu(m2) one `join`, into
the defect's dict; `extend` adds c * image(m) as it is at c = 1 and as the
product with the scalar c else.  `theta` truncates at the N of its
assignment's presentation.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Callable, Iterable, Optional

from .algebra import (
    AlgebraElement,
    AlgebraPresentation,
    EnumerationError,
    Generator,
    Memo,
    SteenrodError,
    accumulate,
    adjoin_epsilon,
    embed,
    frobenius,
    mul_into,
    sparse_add,
    sparse_neg,
    sparse_scale,
    sparse_sub,
    times_eps,
)
from .group import GroupElement, coeff_degree, rho

HopfElement = AlgebraElement


class HopfError(SteenrodError):
    pass


def _name(p: int, i: int, tau: bool = False) -> str:
    """The generator name of tau_i, or of xi_i (zeta_i at p = 2)."""
    return f"{'t' if tau else 'z' if p == 2 else 'x'}{i}"


def _parse(name: str) -> tuple[bool, int]:
    """(whether it is a tau, its index) for a name written by `_name`."""
    return name[0] == "t", int(name[1:])


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

    def xi_name(self, i: int | str) -> str:
        """The name of Milnor's xi_i (zeta_i at p = 2); index "_i" names all."""
        return _name(self.p, i)

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
        name = _name(self.p, i, tau=True)
        return self.algebra.gen(name) if self.has_gen(name) else self.algebra.zero()

    def work(self) -> int:
        """The refusal bound of the `hopf` command: the terms of the generator
        antipodes, in 64-bit words of packed monomials.

        Milnor's conjugation formula sums over the compositions of n, one
        term each: 2^(n-1) for xi_n and 2^n for tau_n.  The count is exact
        where no cap kills a term (`dual_steenrod`, `level_algebra`) and an
        upper bound on the other presets; a wide monomial (a huge D) makes
        every term dearer.
        """
        terms = 0
        for name in self.gen_names():
            is_tau, n = _parse(name)
            terms += 2**n if is_tau else 2 ** (n - 1)
        return terms * ((self.algebra.width + 63) // 64)

    @functools.cached_property
    def degree_cap(self) -> int:
        # D, relaxed so that every generator itself is admissible (the top
        # exterior generator outweighs D = 2(p^N - 1) by one); `quotient`'s
        # synthetic caps keep every monomial up to it
        return max([self.D] + [g.degree for g in self.algebra.generators])

    # packed monomial -> its coproduct, and its antipode: made on first use
    # and kept as long as the presentation; each builds through a partial of
    # `coproduct_gen` or `antipode_gen`, so a presentation pickles with them
    @functools.cached_property
    def _coproducts(self) -> "Images":
        one = self.algebra.one()
        return Images(self.algebra, functools.partial(coproduct_gen, self), TensorElement.of(one, one))

    @functools.cached_property
    def _antipodes(self) -> "Images":
        return Images(self.algebra, functools.partial(antipode_gen, self), self.algebra.one())


def default_degree_cap(p: int, N: int = 4) -> int:
    return 2 * (p**N - 1)


def _non_negative(**values: int) -> None:
    """Refuse a negative level, generator bound or degree cap before anything is built."""
    for name, v in values.items():
        if v < 0:
            raise HopfError(f"{name} = {v} is negative")


def quotient(p: int, N: int, shift: int, label: str, xi_cap: Optional[Callable[[int], int]],
             taus: Iterable[int], D: Optional[int] = None) -> HopfPresentation:
    """Milnor's generators at a Frobenius shift, one cap per generator.

    tau_i for each i in taus (none at p = 2), of degree 2p^i - 1 and cap 2,
    then xi_1 .. xi_N, xi_i of degree coeff_degree(p, shift, i), the degree
    of alpha_i, and cap xi_cap(i).  xi_cap None gives the synthetic caps, the
    smallest that keep every monomial up to `degree_cap`; D None is the top
    degree of the finite quotient.  A negative N, shift or D is refused.
    """
    _non_negative(N=N, shift=shift, D=D or 0)
    gens = [Generator(_name(p, i, tau=True), 2 * p**i - 1, 2) for i in taus if p != 2]
    degrees = [coeff_degree(p, shift, i) for i in range(1, N + 1)]
    top = max([D or 0] + degrees + [g.degree for g in gens])
    for i, d in enumerate(degrees, 1):
        gens.append(Generator(_name(p, i), d, top // d + 1 if xi_cap is None else xi_cap(i)))
    D = sum((g.cap - 1) * g.degree for g in gens) if D is None else D
    return HopfPresentation(p, N, D, shift, AlgebraPresentation(p, tuple(gens)), label)


def dual_steenrod(p: int, N: int = 4, D: Optional[int] = None) -> HopfPresentation:
    """The full dual algebra, truncated at generator bound N and degree D."""
    D = default_degree_cap(p, N) if D is None else D
    return quotient(p, N, 0, f"A_dual(p={p})", None, range(N + 1), D)


def milnor_quotient(p: int, n: int) -> HopfPresentation:
    """The finite quotient dual to the length-n subalgebra of operations."""
    _non_negative(n=n)
    return quotient(p, n, 0, f"A({n})", lambda i: p ** (n - i + 1), range(n + 1))


def milnor_quotient_ev(p: int, n: int) -> HopfPresentation:
    """Polynomial part of milnor_quotient (odd p)."""
    _non_negative(n=n)
    if p == 2:
        raise HopfError("the even subalgebra split is an odd-p notion")
    return quotient(p, n, 0, f"A_ev({n})", lambda i: p ** (n - i + 1), ())


def level_algebra(p: int, k: int, N: int = 4, D: Optional[int] = None) -> HopfPresentation:
    """The level-k subalgebra, generated by the (p^k)-th generator powers."""
    _non_negative(k=k, N=N)
    if k == 0:
        return dual_steenrod(p, N, D)
    D = default_degree_cap(p, N) * p**k if D is None else D
    return quotient(p, N, k, f"A_angle({k})", None, [0] if k == 1 else [], D)


def level_mod_I(p: int, k: int, N: int = 4) -> HopfPresentation:
    """Quotient of the level-k algebra by the minimal cocommutativity ideal."""
    _non_negative(k=k, N=N)
    taus = range(1, N + 1) if k == 0 else [0] if k == 1 else []
    return quotient(p, N, k, f"A_mod_I({k})", lambda i: p, taus)


def dual_mod_J(p: int, k: int, N: int = 4) -> HopfPresentation:
    """Quotient of the full dual algebra by the extended level-k ideal; J<0>
    is I<0>, so at k = 0 tau_0 goes as well."""
    _non_negative(k=k, N=N)
    return quotient(p, N, 0, f"A_mod_J({k})", lambda i: p ** (k + 1), range(0 if k else 1, N + 1))


# -- tensor square -------------------------------------------------------------


class TensorElement(AlgebraElement):
    """Sparse element of the tensor square `base.power(2)`: an AlgebraElement,
    so its product is the algebra product, Koszul sign included; `pairs`
    splits each term's monomial into a (x) b."""

    __slots__ = ()

    # bound on the class itself, not inherited: perfbench/tracing.py wraps
    # each class's own bindings, to count tensor and algebra arithmetic apart
    __mul__ = AlgebraElement.__mul__
    __add__ = sparse_add
    __sub__ = sparse_sub
    __neg__ = sparse_neg
    scale = sparse_scale

    @classmethod
    def of(cls, x: AlgebraElement, y: AlgebraElement) -> "TensorElement":
        square = x.pres.power(2)
        return cls(square, square.join({}, x.terms, y.terms))

    def pairs(self):
        """The terms as ((a, b), c) for c * a (x) b, a and b packed monomials."""
        return self.pres.split(self.terms)

    def __repr__(self):
        if not self.terms:
            return "0"
        exps = self.pres.factor.exponents
        return " + ".join(f"{c}*{exps(a)}(x){exps(b)}" for (a, b), c in sorted(self.pairs()))


def _on_copies(power: AlgebraPresentation, image: Callable) -> Callable:
    """The `extend` image out of a tensor power: copy j of generator n -> image(j, n)."""
    names = [g.name for g in power.factor.generators]
    images = [image(j, n) for j in range(power.copies) for n in names]
    return dict(zip([g.name for g in power.generators], images)).__getitem__


def switch(t: TensorElement) -> TensorElement:
    """x(x)y -> (-1)^(|x||y|) y(x)x: the algebra map that swaps the copies, signed by the product."""
    square, base = t.pres, t.pres.factor
    image = _on_copies(square, lambda j, n: square.inject(base.gen(n), 1 - j))
    return extend(Images(square, image, TensorElement.of(base.one(), base.one())), t)


# -- structure maps ------------------------------------------------------------


@functools.lru_cache(maxsize=128)
def coproduct_gen(hp: HopfPresentation, name: str) -> TensorElement:
    """Coproduct of one generator, by Milnor's mu(xi_n) = sum_j xi_{n-j}^(p^j)
    (x) xi_j and mu(tau_n) = tau_n (x) 1 + sum_j xi_{n-j}^(p^j) (x) tau_j; the
    shifted generators obey the same, and quotient caps kill the rest."""
    is_tau, n = _parse(name)
    right = hp.tau if is_tau else hp.xi
    terms = [TensorElement.of(hp.xi(n - j, hp.p**j), right(j)) for j in range(n + 1)]
    if is_tau:
        terms.append(TensorElement.of(right(n), hp.algebra.one()))
    return sum(terms[1:], terms[0])


def _admit(hp: HopfPresentation, x: HopfElement) -> None:
    """Refuse an x above hp's degree cap, where the caps would truncate its images."""
    top = max(map(x.pres.mono_degree, x.terms), default=0)
    if top > hp.degree_cap:
        raise HopfError(f"degree {top} exceeds the degree cap {hp.degree_cap}")


def _check_pres(alg: AlgebraPresentation, x: AlgebraElement) -> None:
    """Refuse an x of another presentation, whose packed monomials alg would misread."""
    if x.pres is not alg and x.pres != alg:
        raise HopfError("element of another presentation")


class Images(Memo):
    """Packed monomial of alg -> its image under the algebra map given on the
    generator names of alg by image; image(1) is one.  A missing image is
    built, and `keep` stores it with every divisor and piece built on the way.

    Let g be m's last generator, in generator order, with an exponent e != 0,
    and p^j the lowest power in e's base-p digits: m's piece is g^(p^j), and
    image(m) = image(m / piece) * image(piece).  No sign: g is m's last
    factor, so m is m / piece times the piece, in that order.  A piece's
    image is frobenius(image(g^(p^(j-1))), 1), and one * image(g.name) at
    j = 0, which refuses a value of another presentation: every presentation
    here, the tensor square too, is graded-commutative of characteristic p
    with odd elements squaring to zero, so y^p is frobenius(y, 1).  Both walks
    are loops down to the first stored image (or to 1), so a monomial of more
    pieces than the recursion limit is built too.
    """

    def __init__(self, alg: AlgebraPresentation, image: Callable, one: AlgebraElement):
        super().__init__(image, {0: one})  # build is the map on generator names
        self.alg, self.one = alg, one

    def __missing__(self, m: int) -> AlgebraElement:
        p, steps = self.alg.p, []
        while m and m not in self:
            for g, (shift, mask) in zip(reversed(self.alg.generators), reversed(self.alg.fields)):
                e = m >> shift & mask
                if e:
                    break
            q = e & -e if p == 2 else 1  # at p = 2 the lowest digit at once
            while e % (q * p) == 0:
                q *= p
            steps.append((m, g.name, shift, q))
            m -= q << shift
        y = self[m] if m else None
        for m, name, shift, q in reversed(steps):
            k = q  # image(g^q), up from the highest stored g^k, or from image(g)
            while k > 1 and (k << shift) not in self:
                k //= p
            z = self.get(k << shift)
            if z is None:
                z = self.keep(1 << shift, self.one * self.build(name))
            while k < q:
                k *= p
                z = self.keep(k << shift, frobenius(z, 1))
            y = self.keep(m, z if y is None else y * z)
        return y


def extend(images: Images, x: AlgebraElement) -> AlgebraElement:
    """The algebra map of images at x: each term c * m of x goes to
    c * images[m], all summed in one dict, as it is at c = 1 and as the
    product with the scalar c else.  An x of another presentation than
    images.alg is refused before any lookup.  For x a monomial with
    coefficient 1 the stored image itself is handed out, not a copy: no
    caller changes an element it is handed."""
    _check_pres(images.alg, x)
    if len(x.terms) == 1:
        ((m, c),) = x.terms.items()
        if c == 1:
            return images[m]
    pres = images.one.pres
    terms: dict = {}
    for m, c in x.terms.items():
        y = images[m].terms
        if c == 1:
            accumulate(terms, y.items(), pres.p)
        else:
            mul_into(terms, pres, {0: 1}, y, c)
    return type(images.one)(pres, terms)


def coproduct(hp: HopfPresentation, x: HopfElement) -> TensorElement:
    """Multiplicative extension of the generator coproducts, summed from the
    images of x's monomials."""
    _admit(hp, x)
    return extend(hp._coproducts, x)


@functools.lru_cache(maxsize=128)
def antipode_gen(hp: HopfPresentation, name: str) -> AlgebraElement:
    """Conjugation on one generator, by Milnor's recursions sum_j xi_{n-j}^(p^j)
    iota(xi_j) = 0 and iota(tau_n) = -sum_j iota(xi_{n-j})^(p^j) tau_j."""
    is_tau, n = _parse(name)
    if not is_tau:
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
    """Multiplicative extension, summed from the images of x's monomials;
    legitimate because the algebra is graded-commutative."""
    _admit(hp, x)
    return extend(hp._antipodes, x)


def counit(x: HopfElement) -> int:
    return x.constant_term()


# -- axiom defects (zero iff the axiom holds) ---------------------------------


def coassociativity_defect(hp: HopfPresentation, x: HopfElement) -> dict:
    """(mu (x) id) mu(x) - (id (x) mu) mu(x), as the terms of an element of `power(3)`."""
    alg = hp.algebra
    cube = alg.power(3)
    mu = coproduct(hp, x)  # no monomial of mu outweighs x
    coproducts, terms = hp._coproducts, {}
    for (m1, m2), c in mu.pairs():
        cube.join(terms, coproducts[m1].terms, {m2: c})
        cube.join(terms, {m1: -c}, coproducts[m2].terms, 2)
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
    mu = coproduct(hp, x)  # no monomial of mu outweighs x
    antipodes, left, right = hp._antipodes, {}, {}
    for (m1, m2), c in mu.pairs():
        mul_into(left, alg, antipodes[m1].terms, {m2: 1}, c)
        mul_into(right, alg, {m1: 1}, antipodes[m2].terms, c)
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
    """Per-generator images of mu - T mu; all zero means cocommutative up to
    `degree_cap`."""
    out = []
    for g in hp.algebra.generators:
        mu = coproduct(hp, hp.algebra.gen(g.name))
        out.append((g.name, mu - switch(mu)))
    return out


def primitivity_check(hp: HopfPresentation) -> bool:
    """True iff every generator is primitive in this quotient."""
    alg = hp.algebra
    for g in alg.generators:
        x = alg.gen(g.name)
        expected = TensorElement.of(x, alg.one()) + TensorElement.of(alg.one(), x)
        if coproduct(hp, x) != expected:
            return False
    return True


# -- monomial Hopf ideals ------------------------------------------------------


def check_hopf_ideal(hp: HopfPresentation, ideal_gens: Iterable[HopfElement]):
    """Verify the Hopf-ideal axioms for a monomial ideal on its generators.

    Returns (ok, first_violation) where the violation names the offending
    generator and axiom.  Exact: mu and S are multiplicative, so a multiple
    of a passing generator passes, and with positive degrees the first
    failing ideal monomial in (degree, packed monomial) order is the first
    failing generator in that order.  A generator above hp's degree cap, or
    of another presentation, is refused before any image is built.
    """
    alg = hp.algebra
    gen_monos = set()
    for g in ideal_gens:
        _check_pres(alg, g)
        if len(g.terms) != 1 or next(iter(g.terms.values())) != 1:
            raise HopfError("ideal generators must be single monomials")
        _admit(hp, g)
        gen_monos.add(next(iter(g.terms)))

    def in_ideal(m) -> bool:
        return any(alg.divides(gm, m) for gm in gen_monos)

    if any(g.degree <= 0 for g in alg.generators):
        raise EnumerationError("requires strictly positive generator degrees")
    for m in sorted(gen_monos, key=lambda m: (alg.mono_degree(m), m)):
        if m == 0:  # the monomial 1, the only one of non-zero counit
            return False, (alg.exponents(m), "counit")
        for (m1, m2), c in hp._coproducts[m].pairs():
            if not in_ideal(m1) and not in_ideal(m2):
                return False, (alg.exponents(m), "coproduct", (alg.exponents(m1), alg.exponents(m2), c))
        for t in hp._antipodes[m].terms:
            if not in_ideal(t):
                return False, (alg.exponents(m), "antipode", alg.exponents(t))
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
        return extend(Images(self.hopf.algebra, self.value, self.target.one()), x)


def convolution(phi: GeneratorAssignment, psi: GeneratorAssignment) -> GeneratorAssignment:
    """The point-group product: x -> m(psi (x) phi)(mu(x)) on each generator,
    where m(psi (x) phi) is the map out of the tensor square that `extend`s
    psi on the first copy and phi on the second."""
    if phi.hopf != psi.hopf or phi.target != psi.target:
        raise HopfError("convolution needs matching presentations")
    hp, alg = phi.hopf, phi.hopf.algebra
    square = alg.power(2)
    images = Images(square, _on_copies(square, lambda j, n: (psi, phi)[j].value(n)), phi.target.one())
    values = {}
    for g in alg.generators:
        v = extend(images, coproduct(hp, alg.gen(g.name)))
        if not v.is_zero():
            values[g.name] = v
    return GeneratorAssignment(hp, phi.target, values)


def theta(phi: GeneratorAssignment) -> GroupElement:
    """The group element of an algebra homomorphism, truncated at the generator
    bound N of its presentation; `group.project` cuts it lower."""
    hp = phi.hopf
    # eps is adjoined for odd p; at p = 2 adjoin_epsilon returns the target,
    # and times_eps below is zero
    galg = phi.target if phi.target.has_epsilon else adjoin_epsilon(phi.target)

    def value(i, tau):  # zero where the shift lacks the generator
        return embed(phi.value(_name(hp.p, i, tau)), galg)

    # alpha_i = phi(xi_i) + phi(tau_i) eps, where xi_0 = 1
    xi = [galg.one()] + [value(i, False) for i in range(1, hp.N + 1)]
    return GroupElement(hp.p, hp.N, hp.shift, galg, tuple(x + times_eps(value(i, True)) for i, x in enumerate(xi)))


def universal_points(hp: HopfPresentation, c: int) -> tuple[GroupElement, ...]:
    """theta of the c injections of hp's algebra into its c-th tensor power.
    Over dual_steenrod(p, N), below its degree cap, each copy is the
    coordinate ring of G_p^N, so an identity in c elements that holds at
    these points holds over every algebra (the Yoneda lemma)."""
    alg, power = hp.algebra, hp.algebra.power(c)
    target = adjoin_epsilon(power)  # once, so that the points share it
    copies = [{g: embed(power.inject(alg.gen(g), j), target) for g in hp.gen_names()} for j in range(c)]
    return tuple(theta(GeneratorAssignment(hp, target, values)) for values in copies)


def restrict_assignment(phi: GeneratorAssignment) -> GeneratorAssignment:
    """Precompose with the inclusion of the next level: each xi_i goes to the
    p-th power of its value, tau_0 (kept by level 1 alone) to its own."""
    hp = phi.hopf
    next_hp = level_algebra(hp.p, hp.shift + 1, hp.N, hp.D * hp.p)
    values = {g: frobenius(phi.value(g), 0 if _parse(g)[0] else 1) for g in next_hp.gen_names()}
    return GeneratorAssignment(next_hp, phi.target, {g: v for g, v in values.items() if not v.is_zero()})


def rho_diagram_check(phi: GeneratorAssignment) -> bool:
    """rho(theta(phi)) must equal theta of the restricted assignment."""
    return rho(theta(phi)) == theta(restrict_assignment(phi))
