"""Milnor-basis bookkeeping: exponent sequences, dual symbols, span predicates.

Basis monomials of the dual algebra are indexed by a finitely supported
sequence R = (r_1, r_2, ...) of polynomial exponents and, for odd p, a 0/1
sequence E = (e_0, e_1, ...) of exterior exponents.  Dual symbols are the
formal duals Sq(R) (p = 2) and Q(E)P(R) (odd p); no product is implemented on
the dual side, only the Kronecker pairing against basis monomials.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .algebra import AlgebraElement
from .hopf import HopfElement, HopfPresentation


class MilnorError(Exception):
    pass


def normalize_seq(r) -> tuple[int, ...]:
    """Drop trailing zeros; reject negative entries."""
    r = tuple(r)
    if any(v < 0 for v in r):
        raise MilnorError("sequence entries must be non-negative")
    while r and r[-1] == 0:
        r = r[:-1]
    return r


def normalize_seqb(e) -> tuple[int, ...]:
    e = tuple(e)
    if any(v not in (0, 1) for v in e):
        raise MilnorError("exterior exponents must be 0 or 1")
    while e and e[-1] == 0:
        e = e[:-1]
    return e


def seq_add(r, s) -> tuple[int, ...]:
    r, s = normalize_seq(r), normalize_seq(s)
    n = max(len(r), len(s))
    r += (0,) * (n - len(r))
    s += (0,) * (n - len(s))
    return normalize_seq(a + b for a, b in zip(r, s))


def seq_leq(r, s) -> bool:
    """Componentwise order on finitely supported sequences."""
    r, s = normalize_seq(r), normalize_seq(s)
    n = max(len(r), len(s))
    r += (0,) * (n - len(r))
    s += (0,) * (n - len(s))
    return all(a <= b for a, b in zip(r, s))


def unit_seq(n: int, c: int = 1) -> tuple[int, ...]:
    """c times the sequence E_n with a single nonzero entry at position n (1-based)."""
    if n < 1:
        raise MilnorError("position must be >= 1")
    return (0,) * (n - 1) + (c,)


@dataclass(frozen=True)
class DualSymbol:
    """Formal dual-basis symbol: Sq(R) for p = 2, Q(E)P(R) for odd p."""

    p: int
    R: tuple[int, ...]
    E: tuple[int, ...] = field(default=())

    def __post_init__(self):
        object.__setattr__(self, "R", normalize_seq(self.R))
        object.__setattr__(self, "E", normalize_seqb(self.E))
        if self.p == 2 and self.E:
            raise MilnorError("p = 2 symbols carry no exterior part")

    @property
    def kind(self) -> str:
        return "Sq" if self.p == 2 else "QP"


def monomial_of(E, R, hp: HopfPresentation) -> HopfElement:
    """The basis monomial tau(E)xi(R) resp. zeta(R) in the given presentation.

    Zero when a cap of the (quotient) presentation is exceeded; error when the
    index range exceeds the generator bound N.
    """
    E = normalize_seqb(E)
    R = normalize_seq(R)
    if hp.shift != 0:
        raise MilnorError("basis monomials live in unshifted presentations")
    if len(R) > hp.N or len(E) > hp.N + 1:
        raise MilnorError(f"sequence index exceeds generator bound N={hp.N}")
    alg = hp.algebra
    if hp.p == 2:
        if E:
            raise MilnorError("p = 2 monomials carry no exterior part")
        mono = [0] * alg.ngens
        for i, r in enumerate(R, start=1):
            mono[alg.index(f"z{i}")] = r
    else:
        mono = [0] * alg.ngens
        for i, e in enumerate(E):
            if e:
                if not hp.has_gen(f"t{i}"):
                    return alg.zero()
                mono[alg.index(f"t{i}")] = 1
        for i, r in enumerate(R, start=1):
            if r:
                if not hp.has_gen(f"x{i}"):
                    return alg.zero()
                mono[alg.index(f"x{i}")] = r
    return alg.monomial(mono)


def j_clause(E, R, k: int, p: int) -> bool:
    """The ideal-basis clause: p = 2: some r_n >= 2^(k+1); odd p, k = 0:
    e_0 = 1 or some r_n >= p; odd p, k >= 1: some r_n >= p^(k+1).

    Hot path for exhaustive sweeps; inputs are trusted raw sequences.
    """
    if p == 2:
        t = 2 << k
        return any(r >= t for r in R)
    if k == 0:
        if len(E) >= 1 and E[0] == 1:
            return True
        return any(r >= p for r in R)
    t = p ** (k + 1)
    return any(r >= t for r in R)


def span_clause(E, R, k: int, p: int) -> bool:
    """The dual spanning-set clause: p = 2: all r_n < 2^(k+1); odd p, k = 0:
    e_0 = 0 and all r_n < p; odd p, k >= 1: all r_n < p^(k+1).

    Written from the spanning-set description, independently of j_clause.
    """
    if p == 2:
        t = 2 << k
        return all(r < t for r in R)
    if k == 0:
        if len(E) >= 1 and E[0] == 1:
            return False
        return all(r < p for r in R)
    t = p ** (k + 1)
    return all(r < t for r in R)


def in_J_basis(E, R, k: int, p: int) -> bool:
    """Monomial membership in the level-k Hopf ideal of the dual algebra."""
    E = normalize_seqb(E)
    R = normalize_seq(R)
    if p == 2 and E:
        raise MilnorError("p = 2 monomials carry no exterior part")
    return j_clause(E, R, k, p)


def in_dual_span(sym: DualSymbol, k: int) -> bool:
    """Membership in the spanning set of the level-k dual subspace."""
    return span_clause(sym.E, sym.R, k, sym.p)


def kronecker_pair(sym: DualSymbol, E, R) -> int:
    """Dual-basis pairing: 1 on the matching index pair, 0 otherwise."""
    E = normalize_seqb(E)
    R = normalize_seq(R)
    if sym.p == 2 and E:
        raise MilnorError("p = 2 monomials carry no exterior part")
    return 1 if (sym.E, sym.R) == (E, R) else 0


def kronecker_pair_element(sym: DualSymbol, x: AlgebraElement, hp: HopfPresentation) -> int:
    """Pairing extended linearly over a sum of basis monomials."""
    alg = hp.algebra
    total = 0
    for mono, c in x.terms.items():
        E = [0] * (hp.N + 1)
        R = [0] * hp.N
        for g, e in zip(alg.generators, alg.exponents(mono)):
            if e == 0:
                continue
            kind, i = g.name[0], int(g.name[1:])
            if kind == "t":
                E[i] = e
            else:
                R[i - 1] = e
        total += c * kronecker_pair(sym, normalize_seqb(E), normalize_seq(R))
    return total % hp.p
