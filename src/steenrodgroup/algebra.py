"""Exact arithmetic in finitely presented graded-commutative algebras over F_p.

An algebra is presented by an ordered list of generators, each carrying a
degree and a nilpotency cap (the smallest exponent that vanishes).  All
relations in play are monomial, so caps are the whole relation data: a monomial whose
exponent reaches a cap is zero.  Elements are sparse maps from exponent
vectors to residues in 1..p-1, which gives a canonical normal form and exact
equality.  The same normal form, keyed by pairs of exponent vectors, serves
the tensor square in `hopf`; both element classes share the additive
operations defined here, and `accumulate` is the one way to add terms into a
normal-form dict.

The exterior variable eps (degree -1, square zero) is adjoined as an ordinary
generator; for p = 2 it does not exist and every eps-operation degenerates to
the identity.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Optional

NO_CAP: Optional[int] = None

EPSILON = "eps"


class AlgebraError(Exception):
    pass


class EnumerationError(AlgebraError):
    """Raised when a graded component cannot be enumerated finitely."""


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


@dataclass(frozen=True)
class Generator:
    name: str
    degree: int
    cap: Optional[int]  # smallest vanishing exponent, None = no cap


@dataclass(frozen=True)
class AlgebraPresentation:
    p: int
    generators: tuple[Generator, ...]

    def __post_init__(self):
        if not is_prime(self.p):
            raise AlgebraError(f"{self.p} is not prime")
        names = [g.name for g in self.generators]
        if len(set(names)) != len(names):
            raise AlgebraError("duplicate generator names")
        for g in self.generators:
            if g.cap is not None and g.cap < 1:
                raise AlgebraError(f"cap of {g.name} must be >= 1")
            if self.p != 2 and g.degree % 2 == 1:
                if g.cap is None or g.cap > 2:
                    raise AlgebraError(
                        f"odd generator {g.name} must have cap <= 2 (use mk_algebra)"
                    )

    @property
    def ngens(self) -> int:
        return len(self.generators)

    def index(self, name: str) -> int:
        for i, g in enumerate(self.generators):
            if g.name == name:
                return i
        raise AlgebraError(f"no generator named {name}")

    @property
    def has_epsilon(self) -> bool:
        return any(g.name == EPSILON for g in self.generators)

    @property
    def epsilon_index(self) -> int:
        return self.index(EPSILON)

    def is_odd(self, i: int) -> bool:
        return self.generators[i].degree % 2 == 1

    # -- element constructors -------------------------------------------------

    def zero(self) -> "AlgebraElement":
        return AlgebraElement(self, {})

    def one(self) -> "AlgebraElement":
        return self.scalar(1)

    def scalar(self, c: int) -> "AlgebraElement":
        c %= self.p
        if c == 0:
            return self.zero()
        return AlgebraElement(self, {(0,) * self.ngens: c})

    def gen(self, name: str, exp: int = 1) -> "AlgebraElement":
        i = self.index(name)
        cap = self.generators[i].cap
        if cap is not None and exp >= cap:
            return self.zero()
        mono = [0] * self.ngens
        mono[i] = exp
        return AlgebraElement(self, {tuple(mono): 1})

    def monomial(self, exponents: Iterable[int], coeff: int = 1) -> "AlgebraElement":
        mono = tuple(exponents)
        if len(mono) != self.ngens:
            raise AlgebraError("exponent vector has wrong length")
        coeff %= self.p
        if coeff == 0 or not self.mono_in_caps(mono):
            return self.zero()
        return AlgebraElement(self, {mono: coeff})

    def mono_in_caps(self, mono: tuple[int, ...]) -> bool:
        for e, g in zip(mono, self.generators):
            if e < 0:
                return False
            if g.cap is not None and e >= g.cap:
                return False
        return True

    def mono_degree(self, mono: tuple[int, ...]) -> int:
        return sum(e * g.degree for e, g in zip(mono, self.generators))


def mk_algebra(p: int, generators: Iterable[tuple[str, int, Optional[int]]]) -> AlgebraPresentation:
    """Validated presentation; odd-degree caps are normalized to <= 2 for odd p."""
    gens = []
    for name, degree, cap in generators:
        if p != 2 and degree % 2 == 1:
            cap = 2 if cap is None else min(cap, 2)
        gens.append(Generator(name, degree, cap))
    return AlgebraPresentation(p, tuple(gens))


def adjoin_epsilon(a: AlgebraPresentation) -> AlgebraPresentation:
    """Append the exterior variable eps (degree -1, cap 2); identity for p=2."""
    if a.p == 2:
        return a
    if a.has_epsilon:
        raise AlgebraError("eps already present")
    return AlgebraPresentation(a.p, a.generators + (Generator(EPSILON, -1, 2),))


# -- monomial arithmetic ------------------------------------------------------


def mono_mul(pres: AlgebraPresentation, m1: tuple[int, ...], m2: tuple[int, ...]):
    """Merge two exponent vectors; returns (mono, sign) or None if a cap kills it."""
    merged = tuple(a + b for a, b in zip(m1, m2))
    if not pres.mono_in_caps(merged):
        return None
    if pres.p == 2:
        return merged, 1
    # Koszul sign: move each odd factor of m2 left past the odd factors of m1
    # sitting at later positions.  Odd exponents are 0 or 1 by the cap rule.
    inversions = 0
    n = pres.ngens
    odd_after = [0] * n  # odd factors of m1 strictly after position i
    count = 0
    for i in range(n - 1, -1, -1):
        odd_after[i] = count
        if pres.is_odd(i) and m1[i] % 2 == 1:
            count += 1
    for j in range(n):
        if pres.is_odd(j) and m2[j] % 2 == 1:
            inversions += odd_after[j]
    sign = -1 if inversions % 2 == 1 else 1
    return merged, sign


# -- sparse normal form ---------------------------------------------------------


def accumulate(terms: dict, pairs, p: int) -> dict:
    """Add (key, coefficient) pairs into a normal-form dict in place; returns it."""
    for key, c in pairs:
        v = (terms.get(key, 0) + c) % p
        if v:
            terms[key] = v
        else:
            terms.pop(key, None)
    return terms


def _check_same(x, y):
    if x.pres is not y.pres and x.pres != y.pres:
        raise AlgebraError("elements of different presentations")


def sparse_add(self, other):
    _check_same(self, other)
    return type(self)(self.pres, accumulate(dict(self.terms), other.terms.items(), self.pres.p))


def sparse_neg(self):
    p = self.pres.p
    return type(self)(self.pres, {m: (-c) % p for m, c in self.terms.items()})


def sparse_sub(self, other):
    return sparse_add(self, sparse_neg(other))


def sparse_scale(self, c: int):
    p = self.pres.p
    c %= p
    if c == 0:
        return type(self)(self.pres, {})
    return type(self)(self.pres, {m: (v * c) % p for m, v in self.terms.items()})


class AlgebraElement:
    """Sparse normal-form F_p-linear combination of monomials.

    Treated as immutable; the term dict is never mutated after construction.
    """

    __slots__ = ("pres", "terms")

    __add__ = sparse_add
    __sub__ = sparse_sub
    __neg__ = sparse_neg
    scale = sparse_scale

    def __init__(self, pres: AlgebraPresentation, terms: dict):
        self.pres = pres
        self.terms = terms

    # -- queries --------------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def degree(self) -> Optional[int]:
        """Degree of a homogeneous element, None for zero."""
        degs = {self.pres.mono_degree(m) for m in self.terms}
        if not degs:
            return None
        if len(degs) > 1:
            raise AlgebraError("inhomogeneous element has no degree")
        return degs.pop()

    def constant_term(self) -> int:
        return self.terms.get((0,) * self.pres.ngens, 0)

    def key(self):
        """Canonical hashable form, usable for dedup and golden comparison."""
        return tuple(sorted(self.terms.items()))

    def __eq__(self, other) -> bool:
        if not isinstance(other, AlgebraElement):
            return NotImplemented
        return self.pres == other.pres and self.terms == other.terms

    def __hash__(self):
        return hash(self.key())

    def __repr__(self):
        if not self.terms:
            return "0"
        parts = []
        for mono, c in sorted(self.terms.items()):
            factors = [
                g.name + (f"^{e}" if e > 1 else "")
                for g, e in zip(self.pres.generators, mono)
                if e
            ]
            body = "*".join(factors) if factors else "1"
            parts.append(body if c == 1 and factors else f"{c}*{body}")
        return " + ".join(parts)

    # -- ring operations ------------------------------------------------------

    def __mul__(self, other: "AlgebraElement") -> "AlgebraElement":
        _check_same(self, other)
        pres = self.pres
        p = pres.p
        terms: dict = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                hit = mono_mul(pres, m1, m2)
                if hit is None:
                    continue
                mono, sign = hit
                v = (terms.get(mono, 0) + sign * c1 * c2) % p
                if v:
                    terms[mono] = v
                else:
                    terms.pop(mono, None)
        return AlgebraElement(pres, terms)


def frobenius(x: AlgebraElement, j: int) -> AlgebraElement:
    """x ** (p**j), computed termwise (freshman's dream in characteristic p)."""
    if j < 0:
        raise AlgebraError("negative Frobenius power")
    if j == 0:
        return x
    pres = x.pres
    q = pres.p ** j
    terms: dict = {}
    for mono, c in x.terms.items():
        scaled = tuple(e * q for e in mono)
        if not pres.mono_in_caps(scaled):
            continue
        # c^q = c mod p; no Koszul sign: odd generators die under q >= 2
        terms[scaled] = (terms.get(scaled, 0) + c) % pres.p
        if terms[scaled] == 0:
            del terms[scaled]
    return AlgebraElement(pres, terms)


def eps_reduce(x: AlgebraElement) -> AlgebraElement:
    """Delete every monomial containing eps (identity when eps is absent)."""
    pres = x.pres
    if not pres.has_epsilon:
        return x
    i = pres.epsilon_index
    return AlgebraElement(pres, {m: c for m, c in x.terms.items() if m[i] == 0})


def eps_part(x: AlgebraElement) -> AlgebraElement:
    """The element b with x = eps_reduce(x) + b*eps (zero when eps is absent)."""
    pres = x.pres
    if not pres.has_epsilon:
        return pres.zero()
    i = pres.epsilon_index
    terms = {}
    for m, c in x.terms.items():
        if m[i] == 0:
            continue
        stripped = m[:i] + (0,) + m[i + 1 :]
        # x = a + b*eps with monomials written eps-last, so the coefficient
        # transfers without sign
        terms[stripped] = c
    return AlgebraElement(pres, terms)


def times_eps(x: AlgebraElement) -> AlgebraElement:
    """x * eps (zero for p = 2, where eps = 0)."""
    pres = x.pres
    if not pres.has_epsilon:
        return pres.zero()
    return x * pres.gen(EPSILON)


# -- graded component enumeration ---------------------------------------------


def component_monomials(a: AlgebraPresentation, d: int) -> list[tuple[int, ...]]:
    """All normal-form monomials of degree d, or EnumerationError if infinite."""
    gens = a.generators
    n = len(gens)
    capless_pos = [g for g in gens if g.cap is None and g.degree > 0]
    capless_neg = [g for g in gens if g.cap is None and g.degree < 0]
    if any(g.cap is None and g.degree == 0 for g in gens):
        raise EnumerationError("capless degree-0 generator: component infinite")
    if capless_pos and capless_neg:
        raise EnumerationError(
            "capless generators of both degree signs: component may be infinite"
        )

    # min/max achievable degree of each suffix of the generator list
    INF = float("inf")
    suffix_min = [0.0] * (n + 1)
    suffix_max = [0.0] * (n + 1)
    for i in range(n - 1, -1, -1):
        g = gens[i]
        top = INF if g.cap is None else (g.cap - 1) * abs(g.degree)
        lo = -top if g.degree < 0 else 0
        hi = top if g.degree > 0 else 0
        suffix_min[i] = suffix_min[i + 1] + lo
        suffix_max[i] = suffix_max[i + 1] + hi

    out: list[tuple[int, ...]] = []
    mono = [0] * n

    def walk(i: int, remaining: int):
        if i == n:
            if remaining == 0:
                out.append(tuple(mono))
            return
        g = gens[i]
        e = 0
        while True:
            if g.cap is not None and e >= g.cap:
                break
            contrib = e * g.degree
            rest = remaining - contrib
            if g.degree > 0 and rest < suffix_min[i + 1]:
                break
            if g.degree < 0 and rest > suffix_max[i + 1]:
                break
            if suffix_min[i + 1] <= rest <= suffix_max[i + 1]:
                mono[i] = e
                walk(i + 1, rest)
                mono[i] = 0
            e += 1

    walk(0, d)
    out.sort()
    return out


def component_dimension(a: AlgebraPresentation, d: int) -> int:
    return len(component_monomials(a, d))


def enumerate_component(a: AlgebraPresentation, d: int) -> list[AlgebraElement]:
    """All p^dim homogeneous elements of degree d, including 0."""
    monos = component_monomials(a, d)
    p = a.p
    out = [a.zero()]
    for mono in monos:
        new = []
        for x in out:
            for c in range(1, p):
                new.append(x + a.monomial(mono, c))
        out.extend(new)
    return out


def monomials_up_to_degree(a: AlgebraPresentation, d: int) -> Iterator[tuple[int, ...]]:
    """All normal-form monomials of degree <= d (positive-degree presentations)."""
    if any(g.degree <= 0 for g in a.generators):
        raise EnumerationError("requires strictly positive generator degrees")
    gens = a.generators
    n = len(gens)
    mono = [0] * n

    def walk(i: int, budget: int):
        if i == n:
            yield tuple(mono)
            return
        g = gens[i]
        e = 0
        while e * g.degree <= budget and (g.cap is None or e < g.cap):
            mono[i] = e
            yield from walk(i + 1, budget - e * g.degree)
            mono[i] = 0
            e += 1

    yield from walk(0, d)
