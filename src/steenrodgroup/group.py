"""Truncated Steenrod groups: composition, inverses, commutators, filtrations.

A group element is a stunted series  sum_i alpha_i X^(p^i)  with coefficients
in A_*[eps]/(eps^2), truncated at index k.  The flavor is the level index j:
level 0 is the base group (quotients G_p^k of G_p), level j >= 1 the groups
G_p<j> whose coefficient degrees are shifted by p^j.  The product is series
composition

    (alpha . beta)_i = sum_{j<=i} alpha_{i-j}^(p^j) beta_j,

with the eps-drop applied to positive-index coefficients at level 1.  At odd
p `GroupElement` requires eps adjoined, and at p = 2 the presentation refuses
it, so the eps operations ask the algebra, never p, and are identities at p = 2.

Evaluation builds each output coefficient in one normal-form dict: the terms
of every product are added into it with `algebra.accumulate`, so no partial
sum is ever materialised as an element.  `compose` takes one Frobenius power
and one product per (i, j) pair.  One triangular solve, `_divide(u, v)` =
u^{-1} . v, serves `invert_recursive` (v = 1) and `commutator`: it takes them
only for the pairs whose two factors are both non-zero, and [a, b] is
`_divide(compose(b, a), compose(a, b))`, three series passes.  The two
partition-sum inverses make one walk of the composition tree: the child
nu + (m) of a composition nu of n carries nu's product times alpha_m^(p^n),
so each product costs one multiply, and a zero product cuts its subtree.
Each Frobenius power is taken once per call (while its `algebra.Memo` has
room), a truncation k above `partitions.DEFAULT_MAX_N` is refused before any
product, and `invert_split` carries the pair of a composition's even and eps
terms down the tree and applies eps to each coefficient's summed odd terms once.

`commutator_stage` states the paper's filtration bound once: d-fold
commutators sit at stage d - 1/2 (d in G_p^ev), whence `class_bound`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .algebra import (
    AlgebraElement,
    AlgebraPresentation,
    EPSILON_RULE,
    Memo,
    SteenrodError,
    accumulate,
    eps_part,
    eps_reduce,
    frobenius,
    times_eps,
)
from .partitions import DEFAULT_MAX_N, PartitionError

BOTTOM = Fraction(-1)  # filtration verdict for alpha_0 != 1
TOP = Fraction(10**9)  # identity up to truncation
# the largest level the wire and the CLI admit: degrees grow as p^level, and
# at MAX_PRIME the degree p^(MAX_LEVEL + 64) of hopf's largest N still prints
# in about 3000 digits, under Python's 4300-digit int-to-str limit
MAX_LEVEL = 256


class GroupError(SteenrodError):
    pass


def coeff_degree(p: int, level: int, i: int) -> int:
    """Degree of the even part of alpha_i at the given level."""
    if p == 2:
        return 2 ** (i + level) - 2**level
    return 2 * (p ** (i + level) - p**level)


@dataclass(frozen=True)
class GroupElement:
    """sum_i alpha_i X^(p^i) at a level, over an algebra with eps iff p is odd."""

    p: int
    k: int  # truncation level: coefficients alpha_0 .. alpha_k retained
    level: int  # 0 = base group, j >= 1 = G_p<j>
    algebra: AlgebraPresentation
    coeffs: tuple[AlgebraElement, ...]

    def __post_init__(self):
        if self.k < 0:
            raise GroupError("truncation k must be >= 0")
        if len(self.coeffs) != self.k + 1:
            raise GroupError("coefficient list must have length k+1")
        if self.level < 0:
            raise GroupError("level must be >= 0")
        if self.p != self.algebra.p:
            raise GroupError("prime of algebra and element disagree")
        if self.p != 2 and not self.algebra.has_epsilon:
            raise GroupError(EPSILON_RULE)

    def coeff_degree(self, i: int) -> int:
        """Degree of the even part of alpha_i for this flavor."""
        return coeff_degree(self.p, self.level, i)

    def key(self):
        return (self.p, self.k, self.level) + tuple(c.key() for c in self.coeffs)

    def __repr__(self):
        parts = []
        for i, c in enumerate(self.coeffs):
            if c.is_zero():
                continue
            parts.append(f"({c!r})X^{self.p}^{i}" if i else f"({c!r})X")
        return " + ".join(parts) if parts else "0"


def _check_compatible(a: GroupElement, b: GroupElement):
    if (a.p, a.k, a.level, a.algebra) != (b.p, b.k, b.level, b.algebra):
        raise GroupError("mismatched group element parameters")


def identity(p: int, k: int, algebra: AlgebraPresentation, level: int = 0) -> GroupElement:
    coeffs = (algebra.one(),) + tuple(algebra.zero() for _ in range(k))
    return GroupElement(p, k, level, algebra, coeffs)


def is_identity(a: GroupElement) -> bool:
    return a.coeffs[0] == a.algebra.one() and all(c.is_zero() for c in a.coeffs[1:])


def check_head(a: GroupElement) -> GroupElement:
    """a, if its head alpha_0 is 1 + b*eps, the unit head that every inverse
    needs; GroupError otherwise."""
    if eps_reduce(a.coeffs[0]) != a.algebra.one():
        raise GroupError("head alpha_0 is not of the form 1 + b*eps, so the series has no inverse")
    return a


def _composition_sums(heads, bases, k: int, p: int) -> list:
    """sums[n][v] = sum_nu (-1)^l(nu) heads[nu(1)][v] prod_{j >= 2} bases[nu(j)]^(p^sigma(nu)(j))
    over the compositions nu of n, as normal-form term dicts (1 <= n <= k).

    One walk of the composition tree: the child of nu that appends the part m
    multiplies nu's values by bases[m]^(p^|nu|), kept in a `Memo`; a zero
    factor or a node whose values are all zero cuts the subtree below."""
    if k > DEFAULT_MAX_N:
        raise PartitionError(f"truncation k = {k} above the composition cap {DEFAULT_MAX_N}")
    powers = Memo(lambda key: frobenius(bases[key[0]], key[1]))
    sums = [tuple({} for _ in heads[0]) for _ in range(k + 1)]

    def walk(n, values, sign):
        for terms, x in zip(sums[n], values):
            accumulate(terms, ((mono, sign * c) for mono, c in x.terms.items()), p)
        for m in range(1, k - n + 1):
            factor = powers[m, n]
            if factor.terms:
                child = tuple(x * factor for x in values)
                if any(x.terms for x in child):
                    walk(n + m, child, -sign)

    for m in range(1, k + 1):
        if any(x.terms for x in heads[m]):
            walk(m, heads[m], -1)
    return sums


def compose(a: GroupElement, b: GroupElement) -> GroupElement:
    """The product a(X).b(X) = b(a(X))."""
    _check_compatible(a, b)
    alg, p = a.algebra, a.p
    out = []
    drop = a.level == 1
    for i in range(a.k + 1):
        terms: dict = {}
        for j in range(i + 1):
            accumulate(terms, (frobenius(a.coeffs[i - j], j) * b.coeffs[j]).terms.items(), p)
        acc = AlgebraElement(alg, terms)
        if drop and i >= 1:
            acc = eps_reduce(acc)
        out.append(acc)
    return GroupElement(a.p, a.k, a.level, alg, tuple(out))


def _divide(u: GroupElement, v: GroupElement | None = None) -> GroupElement:
    """u^{-1} . v (u^{-1} for v None), the c with compose(u, c) = v.

    Solves sum_{j<=i} u_{i-j}^(p^j) c_j = v_i coefficient by coefficient:
    c_0 = u_0^{-1} v_0 with u_0^{-1} = 2 - u_0, and, as u_0^(p^i) = 1 for
    i >= 1, c_i = v_i - sum_{j<i} u_{i-j}^(p^j) c_j.  Both steps need
    u_0 = 1 + (square-zero): the public callers `check_head` their inputs,
    and a sift's rows all have such heads.  At level 1, c_i (i >= 1) is
    eps-reduced as compose's coefficients are.  A pair with u_{i-j} = 0 or
    c_j = 0 is skipped: it takes no Frobenius power and no product."""
    alg, p = u.algebra, u.p
    drop = u.level == 1
    inv0 = alg.scalar(2) - u.coeffs[0]
    out = [inv0 if v is None else inv0 * v.coeffs[0]]
    for i in range(1, u.k + 1):
        terms: dict = {}
        for j in range(i):
            x, y = u.coeffs[i - j], out[j]
            if x.terms and y.terms:
                accumulate(terms, (frobenius(x, j) * y).terms.items(), p)
        terms = {m: p - c for m, c in terms.items()}
        if v is not None:
            accumulate(terms, v.coeffs[i].terms.items(), p)
        acc = AlgebraElement(alg, terms)
        if drop:
            acc = eps_reduce(acc)
        out.append(acc)
    return GroupElement(u.p, u.k, u.level, alg, tuple(out))


def invert_recursive(a: GroupElement) -> GroupElement:
    """Inverse by solving sum_j alpha_{i-j}^(p^j) beta_j = 0 coefficient by
    coefficient for i >= 1, from beta_0 = 2 - alpha_0: `_divide` with no v,
    so no identity element is built.  It is the recursive construction, an
    oracle for the two partition-sum inverses."""
    return _divide(check_head(a))


def invert_closed(a: GroupElement) -> GroupElement:
    """Inverse by the closed partition-sum formula

        beta_i = alpha_0^{-1} sum_nu (-1)^l(nu) prod_j alpha_{nu(j)}^(p^sigma(nu)(j))

    over the compositions nu of i."""
    check_head(a)
    alg, p = a.algebra, a.p
    sums = _composition_sums([(c,) for c in a.coeffs], a.coeffs, a.k, p)
    inv0 = alg.scalar(2) - a.coeffs[0]
    drop = a.level == 1
    betas = [inv0]
    for (terms,) in sums[1:]:
        beta = inv0 * AlgebraElement(alg, terms)
        if drop:
            beta = eps_reduce(beta)
        betas.append(beta)
    return GroupElement(a.p, a.k, a.level, alg, tuple(betas))


def invert_split(a: GroupElement) -> GroupElement:
    """Inverse via the eps-split formula (odd p, base flavor only).

    With alpha_m = e_m + o_m eps, the term of a composition nu is
    e_{nu(1)} t + (o_{nu(1)} t) eps for the tail
    t = prod_{j >= 2} e_{nu(j)}^(p^sigma(nu)(j)) (t = 1 for length 1).
    """
    if a.p == 2:
        raise GroupError("eps-split inverse requires odd p")
    if a.level != 0:
        raise GroupError("eps-split inverse is for the base flavor")
    check_head(a)
    alg, p = a.algebra, a.p
    even = [eps_reduce(c) for c in a.coeffs]
    odd = [eps_part(c) for c in a.coeffs]
    sums = _composition_sums(list(zip(even, odd)), even, a.k, p)
    inv0 = alg.one() - times_eps(odd[0])  # (1 - alpha_{10} eps)
    betas = [inv0]
    for terms, odd_terms in sums[1:]:
        if odd_terms:
            accumulate(terms, times_eps(AlgebraElement(alg, odd_terms)).terms.items(), p)
        betas.append(inv0 * AlgebraElement(alg, terms))
    return GroupElement(a.p, a.k, a.level, alg, tuple(betas))


def commutator(a: GroupElement, b: GroupElement) -> GroupElement:
    """[a, b] = (a^{-1} . b^{-1}) . (a . b) in the composition product order.

    a^{-1} . b^{-1} = (b . a)^{-1}, so [a, b] is the one c with
    (b . a) . c = a . b: two composes and one `_divide`."""
    _check_compatible(a, b)
    check_head(a)
    check_head(b)
    return _divide(compose(b, a), compose(a, b))


def zero_prefix_length(a: GroupElement) -> int:
    """Largest m with alpha_1 = ... = alpha_m = 0."""
    m = 0
    for i in range(1, a.k + 1):
        if not a.coeffs[i].is_zero():
            break
        m += 1
    return m


def commutator_leading(a: GroupElement, b: GroupElement, case: int):
    """Predicted leading commutator coefficients.

    Case 1 (k = l = 0) predicts the X^p and X^(p^2) coefficients; cases 2 and 3
    predict the X^(p^(k+1)) and X^(p^(k+2)) coefficients, where k is the number
    of leading vanishing alpha_i and l that of beta.  Returns (k, c1, c2).
    Cases 2 and 3 share one formula: its two beta_1 terms vanish under case
    3's hypothesis l >= 1, which makes beta_1 = 0.
    """
    _check_compatible(a, b)
    alg = a.algebra
    one = alg.one()
    kk = zero_prefix_length(a)
    ll = zero_prefix_length(b)
    a0, b0 = a.coeffs[0], b.coeffs[0]

    if case == 1:
        if a.k < 2:
            raise GroupError("truncation too small for case-1 prediction")
        a1, a2 = a.coeffs[1], a.coeffs[2]
        b1, b2 = b.coeffs[1], b.coeffs[2]
        c1 = a1 * (b0 - one) + (one - a0) * b1
        c2 = (
            (a2 - frobenius(a1, 1) * a1) * (b0 - one)
            + (one - a0) * (b2 - frobenius(b1, 1) * b1)
            + a0 * frobenius(a1, 1) * b1
            - a1 * b0 * frobenius(b1, 1)
        )
        return 0, c1, c2

    if case in (2, 3):
        if case == 2 and (kk < 1 or ll != 0):
            raise GroupError("case 2 requires k >= 1 vanishing alpha_i and beta_1 != 0 allowed")
        if case == 3 and not (kk >= ll >= 1):
            raise GroupError("case 3 requires k >= l >= 1")
        if a.k < kk + 2:
            raise GroupError(f"truncation too small for case-{case} prediction")
        bbar = invert_recursive(b).coeffs
        ak1, ak2 = a.coeffs[kk + 1], a.coeffs[kk + 2]
        b1 = b.coeffs[1]
        c1 = ak1 * (b0 - one) - (one - a0) * b0 * bbar[kk + 1]
        c2 = (
            ak2 * (b0 - one)
            - (one - a0) * b0 * bbar[kk + 2]
            + a0 * frobenius(ak1, 1) * b1
            - ak1 * b0 * frobenius(b1, kk + 1)
        )
        return kk, c1, c2

    raise GroupError(f"unknown case {case}")


def project(a: GroupElement, k2: int) -> GroupElement:
    """Truncate to level k2 <= k (a group homomorphism)."""
    if not 0 <= k2 <= a.k:
        raise GroupError(f"cannot project to truncation {k2}")
    return GroupElement(a.p, k2, a.level, a.algebra, a.coeffs[: k2 + 1])


def half_quotient(a: GroupElement) -> GroupElement:
    """Delete the eps-part of the top coefficient (the q^k map); identity for p=2."""
    coeffs = a.coeffs[:-1] + (eps_reduce(a.coeffs[-1]),)
    return GroupElement(a.p, a.k, a.level, a.algebra, coeffs)


def in_half_group(a: GroupElement) -> bool:
    """Top coefficient eps-free, i.e. membership in G_p^(k+0.5) inside G_p^(k+1)."""
    return eps_part(a.coeffs[-1]).is_zero()


def star_product(a: GroupElement, b: GroupElement) -> GroupElement:
    """Group law of G_p^(k+0.5): compose, then drop the top eps-part."""
    if not (in_half_group(a) and in_half_group(b)):
        raise GroupError("star product needs eps-free top coefficients")
    return half_quotient(compose(a, b))


def star_inverse(a: GroupElement) -> GroupElement:
    return half_quotient(invert_recursive(a))


def filtration_level(a: GroupElement) -> Fraction:
    """Largest filtration stage G_p^(m) / G_p^(m+0.5) containing a.

    Returns BOTTOM when alpha_0 != 1 and TOP when a is the identity up to
    truncation; otherwise an integer or half-integer Fraction.
    """
    if a.level != 0:
        raise GroupError("filtration is defined for the base flavor")
    if a.coeffs[0] != a.algebra.one():
        return BOTTOM
    for i in range(1, a.k + 1):
        if a.coeffs[i].is_zero():
            continue
        m = Fraction(i - 1)
        if eps_reduce(a.coeffs[i]).is_zero():
            return m + Fraction(1, 2)
        return m
    return TOP


def commutator_stage(d: int, eps_free: bool = False) -> Fraction:
    """The filtration stage that every d-fold commutator reaches: d - 1/2,
    and d in the eps-free subgroup G_p^ev."""
    return Fraction(d) if eps_free else Fraction(2 * d - 1, 2)


def class_bound(n: int, eps_free: bool = False) -> int:
    """The least d >= 0 whose d-fold commutators reach stage n, the identity
    among series of order n: n + 1, and n in the eps-free subgroup."""
    return n - math.floor(commutator_stage(0, eps_free))


def in_Gpn(a: GroupElement, n: int) -> bool:
    """Membership in G_{p,n}: alpha_i^(p^(n-i+1)) = 0 for i <= n, alpha_i = 0 beyond."""
    if a.level != 0:
        raise GroupError("G_{p,n} is defined inside the base group")
    if n < 0:
        raise GroupError("n must be >= 0")
    for i in range(1, a.k + 1):
        if i >= n + 1:
            if not a.coeffs[i].is_zero():
                return False
        elif not frobenius(a.coeffs[i], n - i + 1).is_zero():
            return False
    return True


def pi_ev(a: GroupElement) -> GroupElement:
    """Projection onto the eps-free subgroup G_p^ev (odd p)."""
    if a.p == 2:
        raise GroupError("pi^ev is defined for odd p")
    if a.level != 0:
        raise GroupError("pi^ev is defined on the base group")
    return GroupElement(
        a.p, a.k, a.level, a.algebra, tuple(eps_reduce(c) for c in a.coeffs)
    )


def in_G_od(a: GroupElement) -> bool:
    """Kernel of pi^ev: all coefficients lie in (eps) after subtracting X."""
    if eps_reduce(a.coeffs[0]) != a.algebra.one():
        return False
    return all(eps_reduce(c).is_zero() for c in a.coeffs[1:])


def rho(a: GroupElement) -> GroupElement:
    """The quotient map rho_j: level j -> level j+1, alpha_i -> alpha_i^p (no eps: cap 2 < p)."""
    alg = a.algebra
    if a.level == 0:
        head = a.coeffs[0]
    else:
        head = alg.one()
    tail = tuple(frobenius(c, 1) for c in a.coeffs[1:])
    return GroupElement(a.p, a.k, a.level + 1, alg, (head,) + tail)


def in_abelian_kernel(a: GroupElement) -> bool:
    """Membership in the kernel of rho, i.e. rho(a) = identity."""
    return is_identity(rho(a))
