"""Milnor-basis bookkeeping: exponent sequences, dual symbols, span predicates.

Basis monomials of the dual algebra are indexed by a finitely supported
sequence R = (r_1, r_2, ...) of polynomial exponents and, for odd p, a 0/1
sequence E = (e_0, e_1, ...) of exterior exponents.  Dual symbols are the
formal duals Sq(R) (p = 2) and Q(E)P(R) (odd p); no product is implemented on
the dual side, only the Kronecker pairing against basis monomials.

The public predicates validate each index sequence in one pass and build no
stripped copy where trailing zeros cannot change the answer.  The level-k
clauses behind them, `j_clause` (the ideal basis) and `span_clause` (the dual
spanning set), are written independently from their two descriptions, so each
is an oracle for the other: they must exactly complement each other.
"""

from __future__ import annotations

from dataclasses import dataclass

from .algebra import SteenrodError
from .hopf import HopfElement, HopfPresentation


class MilnorError(SteenrodError):
    pass


def _exponents(r) -> tuple[int, ...]:
    """r as a tuple; MilnorError on a negative entry."""
    r = tuple(r)
    for v in r:  # a loop: min(r) costs more at these lengths
        if v < 0:
            raise MilnorError("sequence entries must be non-negative")
    return r


def _exterior(e) -> tuple[int, ...]:
    """e as a tuple; MilnorError on an entry other than 0 or 1."""
    e = tuple(e)
    if e.count(0) + e.count(1) != len(e):
        raise MilnorError("exterior exponents must be 0 or 1")
    return e


def _strip(r: tuple[int, ...]) -> tuple[int, ...]:
    n = len(r)
    while n and r[n - 1] == 0:
        n -= 1
    return r[:n]


def normalize_seq(r) -> tuple[int, ...]:
    """Drop trailing zeros; reject negative entries."""
    return _strip(_exponents(r))


def normalize_seqb(e) -> tuple[int, ...]:
    return _strip(_exterior(e))


def seq_leq(r, s) -> bool:
    """Componentwise order on finitely supported sequences."""
    r, s = normalize_seq(r), normalize_seq(s)
    n = max(len(r), len(s))
    r += (0,) * (n - len(r))
    s += (0,) * (n - len(s))
    return all(a <= b for a, b in zip(r, s))


@dataclass(frozen=True, slots=True, init=False)
class DualSymbol:
    """Formal dual-basis symbol: Sq(R) for p = 2, Q(E)P(R) for odd p."""

    p: int
    R: tuple[int, ...]
    E: tuple[int, ...] = ()

    def __init__(self, p: int, R, E=()):
        R = normalize_seq(R)
        E = normalize_seqb(E)
        if p == 2 and E:
            raise MilnorError("p = 2 symbols carry no exterior part")
        _set_p(self, p)
        _set_R(self, R)
        _set_E(self, E)

    @property
    def kind(self) -> str:
        return "Sq" if self.p == 2 else "QP"


# the slot setters, which a frozen instance's __setattr__ would refuse; calling
# them directly skips the attribute lookup object.__setattr__ makes each time
_set_p, _set_R, _set_E = (DualSymbol.__dict__[f].__set__ for f in ("p", "R", "E"))


def monomial_of(E, R, hp: HopfPresentation) -> HopfElement:
    """The basis monomial tau(E)xi(R) resp. zeta(R) in the given presentation.

    Zero when the (quotient) presentation lacks a factor or a cap is exceeded;
    error when the index range exceeds the generator bound N.  The tau_i are
    multiplied in index order, which is their presentation order, so the
    product carries no Koszul sign.
    """
    E = normalize_seqb(E)
    R = normalize_seq(R)
    if hp.shift != 0:
        raise MilnorError("basis monomials live in unshifted presentations")
    if len(R) > hp.N or len(E) > hp.N + 1:
        raise MilnorError(f"sequence index exceeds generator bound N={hp.N}")
    if hp.p == 2 and E:
        raise MilnorError("p = 2 monomials carry no exterior part")
    out = hp.algebra.one()
    for i, e in enumerate(E):
        if e:
            out = out * hp.tau(i)
    for i, r in enumerate(R, start=1):
        if r:
            out = out * hp.xi(i, r)
    return out


def j_clause(E, R, k: int, p: int) -> bool:
    """The ideal-basis clause: p = 2: some r_n >= 2^(k+1); odd p, k = 0:
    e_0 = 1 or some r_n >= p; odd p, k >= 1: some r_n >= p^(k+1).

    Hot path for exhaustive sweeps; inputs are trusted raw sequences, and
    trailing zeros do not change the verdict.
    """
    if k == 0 and p != 2 and E and E[0] == 1:
        return True
    t = p ** (k + 1)
    for r in R:
        if r >= t:
            return True
    return False


def span_clause(E, R, k: int, p: int) -> bool:
    """The dual spanning-set clause: p = 2: all r_n < 2^(k+1); odd p, k = 0:
    e_0 = 0 and all r_n < p; odd p, k >= 1: all r_n < p^(k+1).

    Written from the spanning-set description, independently of j_clause.
    """
    bound = p ** (k + 1)
    for r in R:
        if not r < bound:
            return False
    # at odd p and level 0 the spanning set also asks for e_0 = 0
    return p == 2 or k > 0 or not E or E[0] != 1


def in_J_basis(E, R, k: int, p: int) -> bool:
    """Monomial membership in the level-k Hopf ideal of the dual algebra.

    MilnorError for a negative level.  p is not checked: a non-prime p is
    refused by the CLI's `prime` argument type, because an `is_prime` call per
    tuple (about 70 ns) is a large share of a `milnor_sweep` unit (about 1.8 us).
    """
    if k < 0:
        raise MilnorError("level k must be non-negative")
    E = _exterior(E)
    R = _exponents(R)
    if p == 2 and 1 in E:
        raise MilnorError("p = 2 monomials carry no exterior part")
    return j_clause(E, R, k, p)


def in_dual_span(sym: DualSymbol, k: int) -> bool:
    """Membership in the spanning set of the level-k dual subspace.

    MilnorError for a negative level; p is not checked, as in `in_J_basis`.
    """
    if k < 0:
        raise MilnorError("level k must be non-negative")
    return span_clause(sym.E, sym.R, k, sym.p)


def kronecker_pair(sym: DualSymbol, E, R) -> int:
    """Dual-basis pairing: 1 on the matching index pair, 0 otherwise."""
    E = normalize_seqb(E)
    R = normalize_seq(R)
    if sym.p == 2 and E:
        raise MilnorError("p = 2 monomials carry no exterior part")
    return 1 if (sym.E, sym.R) == (E, R) else 0
