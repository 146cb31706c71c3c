"""Exact arithmetic in finitely presented graded-commutative algebras over F_p.

An algebra is presented by an ordered list of generators, each carrying a
degree and a nilpotency cap (the smallest exponent that vanishes).  All
relations in play are monomial, so caps are the whole relation data: a monomial whose
exponent reaches a cap is zero.  Elements are sparse maps from monomials to
residues in 1..p-1, which gives a canonical normal form and exact equality.
A tensor power is one more presentation, `power(c)`, so its product is the
algebra product, Koszul sign included; `join`, `split` and `inject` are the
only ways across its layout, and `join` adds the joined terms straight into a
dict.  `hopf`'s tensor elements share the additive operations here.  Two
kernels add into a normal-form dict in place: `accumulate` adds (monomial,
coefficient) pairs, and `mul_into` adds a multiple of a product.  `*` is
`mul_into` into an empty dict, so the product loop exists once, and a caller
that sums products (`hopf`'s law defects, or c times an image) adds each into
one dict instead of building it first.

A monomial is a packed exponent vector (Monagan & Pearce, CASC 2007): one int
with a bit field per generator and a guard bit above each field, generator 0
in the most significant field, so integer order is the lexicographic order of
exponent vectors.  The presentation fixes the layout once.  Multiplying
monomials is one integer add; adding the cap bias sets a guard bit iff some
exponent reached its cap; the Koszul sign is the parity of a mask of
odd-generator bits (`koszul_mask`).  A capless generator gets a wide field,
and an exponent that outgrows it raises AlgebraError instead of vanishing,
unless a cap kills the monomial anyway.
Exponent vectors go in through `AlgebraPresentation.monomial` (or `pack`) and
come back out through `AlgebraPresentation.exponents` only where a monomial
is handed out: `repr`, the wire format, `component_monomials` and the
boundaries of `hopf` and `milnor`.  The wire format keeps what it packs and
unpacks in two `Memo`s of the presentation, `wire_packs` and `wire_exponents`;
`pack` and `exponents` themselves keep nothing.  Every memo that lives as
long as an object is a `Memo`, which keeps at most MEMO_LIMIT entries and
builds again what it could not keep.  `component(a, d)` is the
packed basis of a graded component, in the order of the exponent vectors, so
every reader of a basis takes packed monomials from here and none packs one
itself.  Its walk takes the generators of degree <= 0 first and then the
positive ones, largest degree first, so the small generators come last and
fill in what the larger ones leave; each step starts at the first positive
generator whose degree fits what is left.

The exterior variable eps (degree -1, cap 2) is adjoined as an ordinary
generator; for p = 2 it does not exist and every eps-operation is the
identity.  The presentation refuses any other generator named eps, so
`has_epsilon`, not the prime, says whether eps exists.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field
from itertools import chain
from typing import Iterable, Optional

EPSILON = "eps"
EPSILON_RULE = "eps must be adjoined, of degree -1 and cap 2, for odd p and only for odd p"

CAPLESS_BITS = 32  # value bits of a capless generator's field
# the largest p admitted: `is_prime` divides by every d up to sqrt(p), about
# 6 ms at this bound (2 vCPUs, Python 3.11), and 0.12 s already at 10^12
MAX_PRIME = 2**31 - 1
MEMO_LIMIT = 1 << 12  # the most entries a `Memo` keeps, read whenever it builds


class SteenrodError(Exception):
    """Base of every refusal raised by this package: an input that breaks a
    precondition or a size bound.  The CLI turns each one into exit 2."""


class AlgebraError(SteenrodError):
    pass


class EnumerationError(AlgebraError):
    """Raised when a graded component cannot be enumerated finitely."""


class Memo(dict):
    """A dict that builds a missing value as build(key).  `keep` stores a value
    only while the memo holds fewer than MEMO_LIMIT entries, so a long-lived
    process that meets ever new keys holds a bounded memo; items are kept
    from the start.  A hit is the plain dict lookup: only a miss runs Python code."""

    def __init__(self, build, items=()):
        super().__init__(items)
        self.build = build

    def __missing__(self, key):
        return self.keep(key, self.build(key))

    def keep(self, key, value):
        if len(self) < MEMO_LIMIT:
            self[key] = value
        return value


def capless_overflow():
    raise AlgebraError(f"exponent of a capless generator reaches 2^{CAPLESS_BITS}")


def check_prime(p: int) -> int:
    """p, if it is a prime at most MAX_PRIME; AlgebraError otherwise, and
    before any trial division when p is above the bound."""
    if p > MAX_PRIME:
        raise AlgebraError(f"p = {p} above the prime bound {MAX_PRIME}")
    if not is_prime(p):
        raise AlgebraError(f"{p} is not prime")
    return p


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


def _layout():
    return field(init=False, compare=False, repr=False)


@dataclass(frozen=True)
class AlgebraPresentation:
    p: int
    generators: tuple[Generator, ...]
    # packed-monomial layout, set once in __post_init__: (shift, value mask)
    # of each generator's field; the bias whose add sets a field's guard bit
    # iff its exponent reaches the cap; the guard bits (those of capless
    # fields again in `wide`); the value bits of the odd generators (none for
    # p = 2, where signs vanish); the value field of eps (0 when absent); the
    # bit width of a monomial; the hash of (p, generators), which `__eq__`
    # compares, taken once, as every lru_cache lookup keyed on a
    # presentation hashes it; the factor and copies of a `power` (self and 1 if
    # none); the wire format's `Memo`s, which only `serialize` reads
    fields: tuple = _layout()
    bias: int = _layout()
    guard: int = _layout()
    wide: int = _layout()
    odd: int = _layout()
    eps: int = _layout()
    width: int = _layout()
    _hash: int = _layout()
    _frobenius_bias: Memo = _layout()  # q -> bias for exponents times q
    factor: "AlgebraPresentation" = _layout()
    copies: int = _layout()
    _powers: Memo = _layout()  # c -> the c-th tensor power (1 -> self)
    wire_packs: Memo = _layout()  # exponent tuple of exact ints -> pack(tuple)
    wire_exponents: Memo = _layout()  # packed monomial -> exponents(m)

    def __post_init__(self):
        check_prime(self.p)
        names = [g.name for g in self.generators]
        if len(set(names)) != len(names):
            raise AlgebraError("duplicate generator names")
        if EPSILON in names and (self.p == 2 or Generator(EPSILON, -1, 2) not in self.generators):
            raise AlgebraError(EPSILON_RULE)
        fields, guard, wide, odd, eps, shift = [], 0, 0, 0, 0, 0
        for g in reversed(self.generators):
            if g.cap is not None and (type(g.cap) is not int or g.cap < 1):
                raise AlgebraError(f"cap of {g.name} must be an integer >= 1")
            if self.p != 2 and g.degree % 2 == 1 and (g.cap is None or g.cap > 2):
                raise AlgebraError(f"odd generator {g.name} must have cap <= 2 (use mk_algebra)")
            width = CAPLESS_BITS if g.cap is None else max(1, (g.cap - 1).bit_length())
            guard |= 1 << (shift + width)
            if g.cap is None:
                wide |= 1 << (shift + width)
            if self.p != 2 and g.degree % 2 == 1:
                odd |= 1 << shift
            if g.name == EPSILON:
                eps = ((1 << width) - 1) << shift
            fields.insert(0, (shift, (1 << width) - 1))
            shift += width + 1
        layout = (tuple(fields), guard, wide, odd, eps, shift, hash((self.p, self.generators)),
                  Memo(self._bias), self, 1, Memo(self._power, {1: self}), Memo(self.pack), Memo(self.exponents))
        names = ("fields", "guard", "wide", "odd", "eps", "width", "_hash", "_frobenius_bias", "factor", "copies",
                 "_powers", "wire_packs", "wire_exponents")
        for name, value in zip(names, layout):
            object.__setattr__(self, name, value)
        object.__setattr__(self, "bias", self.frobenius_bias(1))

    def __hash__(self):
        return self._hash

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
        return self.eps != 0

    @property
    def epsilon_index(self) -> int:
        return self.index(EPSILON)

    # -- packed monomials -----------------------------------------------------

    def pack(self, exponents: Iterable[int]) -> Optional[int]:
        """The packed monomial of an exponent vector; None if a cap kills it.
        A capless exponent that outgrows its field raises AlgebraError unless
        a cap kills the monomial, so every cap is read first."""
        mono = tuple(exponents)
        if len(mono) != self.ngens:
            raise AlgebraError("exponent vector has wrong length")
        m, overflow = 0, False
        for e, g, (shift, mask) in zip(mono, self.generators, self.fields):
            if not e:  # no cap kills it, and OR-ing it in would copy m
                continue
            if e < 0:
                raise AlgebraError(f"exponent {e} of {g.name} is negative")
            if g.cap is not None and e >= g.cap:
                return None
            if e > mask:
                overflow = True
            else:
                m |= e << shift
        if overflow:
            capless_overflow()
        return m

    def exponents(self, m: int) -> tuple[int, ...]:
        """The exponent vector of a packed monomial, read from the top field
        down.  A field read is cleared from m, so each shift copies only the
        field it reads, and a wide monomial costs its non-zero fields."""
        out = []
        for shift, _ in self.fields:
            e = m >> shift
            out.append(e)
            if e:
                m ^= e << shift
        return tuple(out)

    def mono_degree(self, m: int) -> int:
        """The degree of a packed monomial, its fields read as `exponents` reads them."""
        d = 0
        for (shift, _), g in zip(self.fields, self.generators):
            e = m >> shift
            if e:
                d += e * g.degree
                m ^= e << shift
        return d

    def frobenius_bias(self, q: int) -> int:
        """The bias whose add sets a guard bit iff some exponent times q reaches
        its cap (2^CAPLESS_BITS for a capless generator)."""
        return self._frobenius_bias[q]

    def _bias(self, q: int) -> int:
        # per field: mask + 1 - ceil(cap / q) below a 0 guard bit, as the
        # binary digits of the fields, top field first, read into one int
        # at once: linear in the width, where a sum of shifted fields is not
        return int("0" + "".join(
            format(mask + 1 + -(g.cap or mask + 1) // q, f"0{mask.bit_length() + 1}b")
            for g, (_, mask) in zip(self.generators, self.fields)
        ), 2)

    def divides(self, d: int, m: int) -> bool:
        """Whether d divides m: no field of m | guard borrows when d is subtracted."""
        return ((m | self.guard) - d) & self.guard == self.guard

    # -- tensor powers --------------------------------------------------------

    def power(self, c: int) -> "AlgebraPresentation":
        """A (x) ... (x) A with c factors, kept once built (power(1) is A):
        copy j of each generator is named with j primes and takes the fields
        below copy j - 1.  Each copy keeps A's caps; the Koszul sign is the
        tensor sign, as a2 moves left past b1 in (a1 (x) b1)(a2 (x) b2)."""
        return self._powers[c]

    def _power(self, c: int) -> "AlgebraPresentation":
        gens = tuple(Generator(g.name + "'" * j, g.degree, g.cap) for j in range(c) for g in self.generators)
        power = AlgebraPresentation(self.p, gens)
        object.__setattr__(power, "factor", self)
        object.__setattr__(power, "copies", c)
        return power

    def join(self, terms: dict, left: dict, right: dict, j: int = 1) -> dict:
        """Add c1 * c2 l (x) r for c1 l in left and c2 r in right, r over the
        factor's power(j), in the lowest fields, into the normal-form dict
        terms in place; returns it.  No sign: l stays left of r."""
        shift, p = j * self.factor.width, self.p
        if len(left) > len(right):  # the smaller side outside: one inner pass per term of it
            for r, c2 in right.items():
                for l, c1 in left.items():
                    m = l << shift | r
                    v = (terms.get(m, 0) + c1 * c2) % p
                    if v:
                        terms[m] = v
                    else:
                        terms.pop(m, None)
            return terms
        for l, c1 in left.items():
            l <<= shift
            for r, c2 in right.items():
                m = l | r
                v = (terms.get(m, 0) + c1 * c2) % p
                if v:
                    terms[m] = v
                else:
                    terms.pop(m, None)
        return terms

    def split(self, terms: dict):
        """The terms of this power as ((l, r), c), r in the last copy: `join` undone."""
        shift = self.factor.width
        low = (1 << shift) - 1
        return (((m >> shift, m & low), c) for m, c in terms.items())

    def inject(self, x: "AlgebraElement", j: int) -> "AlgebraElement":
        """x, an element of the factor, in copy j of this power (copy 0 highest)."""
        return AlgebraElement(self, self.join({}, x.terms, {0: 1}, self.copies - 1 - j))

    # -- element constructors -------------------------------------------------

    def zero(self) -> "AlgebraElement":
        return AlgebraElement(self, {})

    def one(self) -> "AlgebraElement":
        return self.scalar(1)

    def scalar(self, c: int) -> "AlgebraElement":
        c %= self.p
        if c == 0:
            return self.zero()
        return AlgebraElement(self, {0: c})

    def gen(self, name: str, exp: int = 1) -> "AlgebraElement":
        i = self.index(name)
        return self.monomial(exp if j == i else 0 for j in range(self.ngens))

    def monomial(self, exponents: Iterable[int], coeff: int = 1) -> "AlgebraElement":
        m = self.pack(exponents)
        coeff %= self.p
        if coeff == 0 or m is None:
            return self.zero()
        return AlgebraElement(self, {m: coeff})


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


def koszul_mask(odd: int, m: int) -> int:
    """The odd-generator bits with an odd number of odd factors of m below them.

    An odd factor of m2 moves left past the odd factors of m1 in the fields
    below its own, so m1 * m2 has sign (-1)^popcount(koszul_mask(odd, m1) & m2).
    """
    o, mask = m & odd, 0
    while o:
        low = o & -o
        mask ^= -(low << 1)  # every bit above low
        o ^= low
    return mask & odd


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


def mul_into(terms: dict, pres: AlgebraPresentation, left: dict, right: dict, scale: int = 1) -> dict:
    """Add scale * left * right, the product of two term dicts of pres, into
    the normal-form dict terms in place; returns it.  A cap kills a product
    monomial, the Koszul sign is applied, and a capless exponent that
    outgrows its field raises AlgebraError unless a cap kills the monomial.
    The one product loop: `*` is this into an empty dict, and c * y is scale
    c times {0: 1} times y."""
    p, bias, guard, wide, odd = pres.p, pres.bias, pres.guard, pres.wide, pres.odd
    for m1, c1 in left.items():
        passed = koszul_mask(odd, m1) if m1 & odd else 0
        c1 *= scale
        for m2, c2 in right.items():
            m = m1 + m2
            if (m + bias) & guard:
                # a capped field's guard bit kills m; else a capless one overflowed
                if not (m + bias) & guard & ~wide:
                    capless_overflow()
                continue
            c = -c1 * c2 if (passed & m2).bit_count() & 1 else c1 * c2
            v = (terms.get(m, 0) + c) % p
            if v:
                terms[m] = v
            else:
                terms.pop(m, None)
    return terms


def _check_same(x, y):
    if x.pres is not y.pres and x.pres != y.pres:
        raise AlgebraError("elements of different presentations")


def sparse_add(self, other):
    _check_same(self, other)
    if not other.terms:
        return self
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


_UNIT = {0: 1}  # the terms of 1


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
        return self.terms.get(0, 0)

    def key(self):
        """Canonical hashable form, usable for dedup and golden comparison."""
        return tuple(sorted(self.terms.items()))

    def __eq__(self, other) -> bool:
        if not isinstance(other, AlgebraElement):
            return NotImplemented
        return (self.pres is other.pres or self.pres == other.pres) and self.terms == other.terms

    def __hash__(self):
        return hash(self.key())

    def __repr__(self):
        if not self.terms:
            return "0"
        parts = []
        for mono, c in sorted(self.terms.items()):
            factors = [
                g.name + (f"^{e}" if e > 1 else "")
                for g, e in zip(self.pres.generators, self.pres.exponents(mono))
                if e
            ]
            body = "*".join(factors) if factors else "1"
            parts.append(body if c == 1 and factors else f"{c}*{body}")
        return " + ".join(parts)

    # -- ring operations ------------------------------------------------------

    def __mul__(self, other: "AlgebraElement") -> "AlgebraElement":
        if self.pres is not other.pres:
            _check_same(self, other)
        # a zero factor or the unit on the left costs one test: a group law
        # meets both, on each pair with a zero coefficient and on each
        # alpha_0^(p^j) = 1.  Terms are in normal form and never change, so
        # 1 * other shares other's terms
        if not self.terms:
            return self
        if not other.terms or self.terms == _UNIT:
            return other if type(other) is type(self) else type(self)(self.pres, other.terms)
        return type(self)(self.pres, mul_into({}, self.pres, self.terms, other.terms))


def frobenius(x: AlgebraElement, j: int) -> AlgebraElement:
    """x ** (p**j), computed termwise (freshman's dream in characteristic p),
    as an element of x's own class: a tensor element stays one.

    Valid in every graded-commutative presentation here: even monomials are
    central, and an odd element squares to zero.
    """
    if j < 0:
        raise AlgebraError("negative Frobenius power")
    if j == 0 or not x.terms:
        return x
    pres = x.pres
    q = pres.p ** j
    bias, guard, wide = pres.frobenius_bias(q), pres.guard, pres.wide
    terms: dict = {}
    for m, c in x.terms.items():
        if (m + bias) & guard:
            if not (m + bias) & guard & ~wide:
                capless_overflow()
            continue
        # m * q scales every field and keeps monomials apart; c^q = c mod p;
        # no Koszul sign: odd generators die under q >= 2
        terms[m * q] = c
    return type(x)(pres, terms)


def eps_reduce(x: AlgebraElement) -> AlgebraElement:
    """Delete every monomial containing eps (identity when eps is absent)."""
    eps = x.pres.eps
    if not eps:
        return x
    return AlgebraElement(x.pres, {m: c for m, c in x.terms.items() if not m & eps})


def eps_part(x: AlgebraElement) -> AlgebraElement:
    """The element b with x = eps_reduce(x) + b*eps (zero when eps is absent)."""
    pres = x.pres
    if not pres.has_epsilon:
        return pres.zero()
    # m = (-1)^s m' * eps for m' = m without eps, where s counts the odd
    # factors in the fields below eps, which eps moves left past
    p, eps = pres.p, pres.eps
    below = pres.odd & ((eps & -eps) - 1)
    return AlgebraElement(
        pres, {m & ~eps: -c % p if (m & below).bit_count() & 1 else c for m, c in x.terms.items() if m & eps}
    )


def embed(x: AlgebraElement, big: AlgebraPresentation) -> AlgebraElement:
    """Extend an element along an append-only extension of its presentation,
    whose new generators take the lowest fields: each monomial shifts up."""
    if x.pres == big:
        return x
    if big.generators[: x.pres.ngens] != x.pres.generators:
        raise AlgebraError("not an append-only extension")
    shift = big.width - x.pres.width
    return AlgebraElement(big, {m << shift: c for m, c in x.terms.items()})


def times_eps(x: AlgebraElement) -> AlgebraElement:
    """x * eps (zero for p = 2, where eps = 0)."""
    pres = x.pres
    if not pres.has_epsilon:
        return pres.zero()
    return x * AlgebraElement(pres, {pres.eps & -pres.eps: 1})  # eps^1, the low bit of its field


# -- graded component enumeration ---------------------------------------------


def _walk(a: AlgebraPresentation, d: int, eps_free: bool, emit):
    """Call emit on each packed monomial of degree d, without eps if eps_free.

    A capless generator's exponent is bounded by what the capped generators
    of the other degree sign can offset, so every bound is an exact integer;
    a monomial whose exponent outgrows its capless field raises AlgebraError.
    The walk takes the generators of degree <= 0 first, then the positive
    ones by descending degree, each with just the exponents its suffix can
    complete, and picks the next generator with a non-zero exponent, so its
    depth is the number of non-zero exponents.  Past the first positive
    generator the degrees descend, so a node bisects them for the first one
    that fits the degree left and tries none above it."""
    # (degree, top exponent, shift, mask) of each generator in the walk
    gens = [(g.degree, None if g.cap is None else g.cap - 1) + f
            for g, f in zip(a.generators, a.fields) if not (eps_free and g.name == EPSILON)]
    if any(top is None for _, top, _, _ in gens):
        signs = {(deg > 0) - (deg < 0) for deg, top, _, _ in gens if top is None}
        if 0 in signs:
            raise EnumerationError("capless degree-0 generator: component infinite")
        if len(signs) > 1:
            raise EnumerationError("capless generators of both degree signs: component may be infinite")
        capped = [top * deg for deg, top, _, _ in gens if top is not None]
        pos, neg = sum(c for c in capped if c > 0), sum(c for c in capped if c < 0)
        gens = [(deg, max(0, (d - (neg if deg > 0 else pos)) // deg) if top is None else top, shift, mask)
                for deg, top, shift, mask in gens]
    gens.sort(key=lambda g: (g[0] > 0, -abs(g[0])))
    n = len(gens)
    negated = [-g[0] for g in gens if g[0] > 0]  # the positive degrees, negated: ascending
    pos = n - len(negated)  # the first positive generator
    # min/max achievable degree of each suffix of gens
    suffix_min, suffix_max = [0] * (n + 1), [0] * (n + 1)
    for j in range(n - 1, -1, -1):
        c = gens[j][0] * gens[j][1]
        suffix_min[j] = suffix_min[j + 1] + (c if c < 0 else 0)
        suffix_max[j] = suffix_max[j + 1] + (c if c > 0 else 0)

    def walk(k: int, remaining: int, m: int):
        # the exponents of gens[:k] are set in m, which is -1 once one is
        # past its capless field (-1 | x is -1); the later generators are 0
        if remaining == 0:
            if m < 0:
                capless_overflow()
            emit(m)
        # a positive generator of degree above remaining has no exponent that
        # fits (every later one is positive), so the loop starts past them,
        # bisecting only when the first positive candidate does not fit
        fits = k if k > pos else pos
        if fits < n and gens[fits][0] > remaining:
            fits = pos + bisect_left(negated, -remaining, fits - pos)
        for j in range(fits, n) if k >= pos else chain(range(k, pos), range(fits, n)):
            if not suffix_min[j] <= remaining <= suffix_max[j]:
                return
            (deg, top, shift, mask), lo, hi = gens[j], suffix_min[j + 1], suffix_max[j + 1]
            # the exponents e with lo <= remaining - e * deg <= hi; dividing by
            # a negative deg turns each inequality round, so the bounds swap
            if deg < 0:
                lo, hi = hi, lo
            first, last = (-((hi - remaining) // deg), (remaining - lo) // deg) if deg else (1, top)
            for e in range(max(first, 1), min(last, top) + 1):
                walk(j + 1, remaining - e * deg, m | e << shift if e <= mask else -1)

    walk(0, d, 0)


def component(a: AlgebraPresentation, d: int, eps_free: bool = False) -> list[int]:
    """The packed monomials of degree d, without eps if eps_free, in increasing
    order (that of their exponent vectors); EnumerationError if infinitely many."""
    out: list[int] = []
    _walk(a, d, eps_free, out.append)
    out.sort()
    return out


def component_monomials(a: AlgebraPresentation, d: int) -> list[tuple[int, ...]]:
    """The exponent vectors of `component(a, d)`, in its order, each read as
    the walk finds it: a wide presentation holds one packed monomial at a time."""
    out: list[tuple[int, ...]] = []
    _walk(a, d, False, lambda m: out.append(a.exponents(m)))
    out.sort()
    return out


def component_dimension(a: AlgebraPresentation, d: int) -> int:
    return len(component(a, d))


def enumerate_component(a: AlgebraPresentation, d: int) -> list[AlgebraElement]:
    """All p^dim homogeneous elements of degree d, including 0."""
    out = [a.zero()]
    for m in component(a, d):
        out += [x + AlgebraElement(a, {m: c}) for x in out for c in range(1, a.p)]
    return out
