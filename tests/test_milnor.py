import dataclasses
import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from steenrodgroup.hopf import dual_steenrod, level_algebra, milnor_quotient
from steenrodgroup.milnor import (
    DualSymbol,
    MilnorError,
    in_J_basis,
    in_dual_span,
    j_clause,
    kronecker_pair,
    monomial_of,
    normalize_seq,
    normalize_seqb,
    seq_leq,
    span_clause,
)

seqs = st.lists(st.integers(0, 6), max_size=4).map(tuple)


def seq_add(r, s):
    r, s = normalize_seq(r), normalize_seq(s)
    n = max(len(r), len(s))
    r += (0,) * (n - len(r))
    s += (0,) * (n - len(s))
    return normalize_seq(a + b for a, b in zip(r, s))


def unit_seq(n, c=1):
    """c times the sequence E_n with a single nonzero entry at position n (1-based)."""
    if n < 1:
        raise MilnorError("position must be >= 1")
    return (0,) * (n - 1) + (c,)


def kronecker_pair_element(sym, x, hp):
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


# -- sequences -----------------------------------------------------------------


def test_normalize_drops_trailing_zeros():
    assert normalize_seq((1, 0, 2, 0, 0)) == (1, 0, 2)
    assert normalize_seq(()) == ()
    with pytest.raises(MilnorError):
        normalize_seq((1, -1))


def test_unit_seq():
    assert unit_seq(3) == (0, 0, 1)
    assert unit_seq(1, 5) == (5,)
    with pytest.raises(MilnorError):
        unit_seq(0)


@given(seqs, seqs)
def test_seq_add_commutes_and_bounds(r, s):
    assert seq_add(r, s) == seq_add(s, r)
    assert seq_leq(r, seq_add(r, s))


@given(seqs, seqs, seqs)
def test_seq_leq_partial_order(r, s, t):
    assert seq_leq(r, r)
    if seq_leq(r, s) and seq_leq(s, t):
        assert seq_leq(r, t)
    if seq_leq(r, s) and seq_leq(s, r):
        assert normalize_seq(r) == normalize_seq(s)


# -- symbols and monomials -----------------------------------------------------


def test_symbol_normalization_and_p2_guard():
    sym = DualSymbol(3, (1, 0, 0), (0, 1, 0))
    assert sym.R == (1,) and sym.E == (0, 1)
    assert sym.kind == "QP"
    assert DualSymbol(2, (2, 1)).kind == "Sq"
    with pytest.raises(MilnorError):
        DualSymbol(2, (1,), (1,))
    with pytest.raises(MilnorError):
        DualSymbol(3, (1,), (2,))


def test_monomial_of_p2():
    hp = dual_steenrod(2, N=3)
    alg = hp.algebra
    assert monomial_of((), (2, 0, 1), hp) == alg.gen("z1", 2) * alg.gen("z3")
    assert monomial_of((), (), hp) == alg.one()


def test_monomial_of_odd():
    hp = dual_steenrod(3, N=2)
    alg = hp.algebra
    got = monomial_of((1, 0, 1), (2,), hp)
    assert got == alg.gen("t0") * alg.gen("t2") * alg.gen("x1", 2)
    # the basis monomial itself, with coefficient 1: no Koszul sign
    assert monomial_of((1, 1, 1), (2, 1), hp) == alg.monomial((1, 1, 1, 2, 1))


def test_monomial_of_quotient_kills_capped():
    hp = milnor_quotient(3, 1)  # x1 cap p^1 = 3... cap is p^(n-i+1) = 3
    assert monomial_of((), (3,), hp).is_zero()
    assert not monomial_of((), (2,), hp).is_zero()


def test_monomial_of_errors():
    hp = dual_steenrod(2, N=2)
    with pytest.raises(MilnorError):
        monomial_of((), (1, 1, 1), hp)  # index 3 > N
    with pytest.raises(MilnorError):
        monomial_of((1,), (1,), hp)  # exterior part at p = 2
    with pytest.raises(MilnorError):
        monomial_of((), (1,), level_algebra(2, 1, N=2))  # shifted presentation


# -- ideal/span predicates -----------------------------------------------------


def test_in_J_examples_p2():
    assert in_J_basis((), (4,), 1, 2)
    assert not in_J_basis((), (3, 3), 1, 2)
    assert in_J_basis((), (0, 2), 0, 2)
    assert not in_J_basis((), (1, 1, 1), 0, 2)


def test_in_J_examples_odd():
    assert in_J_basis((1,), (), 0, 3)  # e_0 = 1 lands in the level-0 ideal
    assert in_J_basis((), (3,), 0, 3)
    assert not in_J_basis((0, 1, 1), (2, 2), 0, 3)
    # for k >= 1 the exterior part is irrelevant
    assert not in_J_basis((1, 1), (8, 8), 1, 3)
    assert in_J_basis((), (9,), 1, 3)


def test_in_dual_span_examples():
    assert in_dual_span(DualSymbol(2, (3, 3)), 1)
    assert not in_dual_span(DualSymbol(2, (4,)), 1)
    assert in_dual_span(DualSymbol(3, (2, 2), (0, 1)), 0)
    assert not in_dual_span(DualSymbol(3, (2,), (1,)), 0)
    assert in_dual_span(DualSymbol(3, (8,), (1,)), 1)


@pytest.mark.parametrize("p,k", [(2, 0), (2, 1), (2, 2), (3, 0), (3, 1)])
def test_complementarity_exhaustive_small(p, k):
    hi = min(p ** (k + 1) + 2, 12)
    e_choices = [()] if p == 2 else [(), (1,), (0, 1), (1, 1)]
    for R in itertools.product(range(hi), repeat=2):
        for E in e_choices:
            assert in_J_basis(E, R, k, p) != in_dual_span(DualSymbol(p, R, E), k)


# -- pairing -------------------------------------------------------------------


def test_kronecker_pairing_delta():
    sym = DualSymbol(2, (2, 1))
    assert kronecker_pair(sym, (), (2, 1)) == 1
    assert kronecker_pair(sym, (), (2, 1, 0)) == 1  # normalized
    assert kronecker_pair(sym, (), (1, 2)) == 0


def test_kronecker_pairing_on_elements():
    hp = dual_steenrod(2, N=3)
    alg = hp.algebra
    x = alg.gen("z1", 2) * alg.gen("z3") + alg.gen("z1")
    assert kronecker_pair_element(DualSymbol(2, (2, 0, 1)), x, hp) == 1
    assert kronecker_pair_element(DualSymbol(2, (1,)), x, hp) == 1
    assert kronecker_pair_element(DualSymbol(2, (2,)), x, hp) == 0


def test_kronecker_pairing_odd_with_exterior():
    hp = dual_steenrod(3, N=2)
    alg = hp.algebra
    x = alg.gen("t0") * alg.gen("x1")
    assert kronecker_pair_element(DualSymbol(3, (1,), (1,)), x, hp) == 1
    assert kronecker_pair_element(DualSymbol(3, (1,)), x, hp) == 0


# -- the one-pass predicates against the reference implementation -------------
#
# The reference below restates the predicates as first written: every sequence
# normalized by generator checks and repeated slicing, the clauses as any/all
# over R, and DualSymbol built by the generated __init__ and __post_init__.
# The one-pass rewrite must agree on every verdict, normal form, comparison,
# hash, repr and refusal, including which of two faults is reported.


def ref_normalize_seq(r):
    r = tuple(r)
    if any(v < 0 for v in r):
        raise MilnorError("sequence entries must be non-negative")
    while r and r[-1] == 0:
        r = r[:-1]
    return r


def ref_normalize_seqb(e):
    e = tuple(e)
    if any(v not in (0, 1) for v in e):
        raise MilnorError("exterior exponents must be 0 or 1")
    while e and e[-1] == 0:
        e = e[:-1]
    return e


@dataclasses.dataclass(frozen=True)
class RefDualSymbol:
    p: int
    R: tuple
    E: tuple = ()

    def __post_init__(self):
        object.__setattr__(self, "R", ref_normalize_seq(self.R))
        object.__setattr__(self, "E", ref_normalize_seqb(self.E))
        if self.p == 2 and self.E:
            raise MilnorError("p = 2 symbols carry no exterior part")


def ref_j_clause(E, R, k, p):
    if p == 2:
        t = 2 << k
        return any(r >= t for r in R)
    if k == 0:
        if len(E) >= 1 and E[0] == 1:
            return True
        return any(r >= p for r in R)
    t = p ** (k + 1)
    return any(r >= t for r in R)


def ref_span_clause(E, R, k, p):
    if p == 2:
        t = 2 << k
        return all(r < t for r in R)
    if k == 0:
        if len(E) >= 1 and E[0] == 1:
            return False
        return all(r < p for r in R)
    t = p ** (k + 1)
    return all(r < t for r in R)


def ref_in_J_basis(E, R, k, p):
    E = ref_normalize_seqb(E)
    R = ref_normalize_seq(R)
    if p == 2 and E:
        raise MilnorError("p = 2 monomials carry no exterior part")
    return ref_j_clause(E, R, k, p)


def outcome(f, *args):
    """f's result, or the type and message of what it raised."""
    try:
        return "ok", f(*args)
    except Exception as exc:  # compared by type and message across both sides
        return type(exc), str(exc)


def symbol_outcome(cls, p, R, E):
    kind, sym = outcome(cls, p, R, E)
    if kind != "ok":
        return kind, sym
    return "ok", (sym.p, sym.R, sym.E, hash(sym), repr(sym).replace("RefDualSymbol", "DualSymbol"))


# each sequence is handed over as a list, a tuple or a one-shot generator
FORMS = (list, tuple, iter)


@st.composite
def milnor_cases(draw, faults=False):
    p = draw(st.sampled_from((2, 3, 5)))
    k = draw(st.integers(0, 3))
    t = p ** (k + 1)
    lo = -1 if faults else 0
    entry = st.one_of(st.integers(lo, 2 * t), st.sampled_from((t - 1, t, t + 1)), st.just(0))
    R = draw(st.lists(entry, max_size=5)) + [0] * draw(st.integers(0, 2))
    bits = st.integers(0, 2) if faults else st.integers(0, 1)
    E = [] if p == 2 and not faults else draw(st.lists(bits, max_size=5))
    E += [0] * draw(st.integers(0, 2))
    return p, k, R, E, draw(st.sampled_from(FORMS)), draw(st.sampled_from(FORMS))


def check_against_reference(case):
    p, k, R, E, form_r, form_e = case
    assert outcome(normalize_seq, form_r(R)) == outcome(ref_normalize_seq, form_r(R))
    assert outcome(normalize_seqb, form_e(E)) == outcome(ref_normalize_seqb, form_e(E))
    assert outcome(in_J_basis, form_e(E), form_r(R), k, p) == outcome(ref_in_J_basis, form_e(E), form_r(R), k, p)
    got = symbol_outcome(DualSymbol, p, form_r(R), form_e(E))
    assert got == symbol_outcome(RefDualSymbol, p, form_r(R), form_e(E))
    if got[0] == "ok":
        sym = DualSymbol(p, R, E)
        assert in_dual_span(sym, k) == ref_span_clause(sym.E, sym.R, k, p)
    if min(R, default=0) >= 0 and set(E) <= {0, 1}:
        # the raw clauses take trusted sequences, trailing zeros included
        assert j_clause(tuple(E), tuple(R), k, p) == ref_j_clause(tuple(E), tuple(R), k, p)
        assert span_clause(tuple(E), tuple(R), k, p) == ref_span_clause(tuple(E), tuple(R), k, p)


@settings(max_examples=300)
@given(milnor_cases())
def test_one_pass_predicates_match_reference(case):
    check_against_reference(case)


@settings(max_examples=300)
@given(milnor_cases(faults=True))
def test_one_pass_refusals_match_reference(case):
    check_against_reference(case)


@given(milnor_cases(), milnor_cases(), st.booleans())
def test_symbol_equality_matches_reference(a, b, padded):
    if padded:  # b is then a itself with one more trailing zero on each side
        b = a[:2] + (a[2] + [0], a[3] + [0]) + a[4:]

    def build(cls, case):
        p, _, R, E, _, _ = case
        return outcome(cls, p, R, E)

    assert (build(DualSymbol, a) == build(DualSymbol, b)) == (build(RefDualSymbol, a) == build(RefDualSymbol, b))


NEG = "sequence entries must be non-negative"
EXT = "exterior exponents must be 0 or 1"


# (p, E, R) -> the message in_J_basis and DualSymbol each raise: in_J_basis
# checks E, then R, then p = 2; DualSymbol checks R, then E, then p = 2
REFUSALS = {
    "negative-R": (3, (), (1, -1), NEG, NEG),
    "exterior-2": (3, (0, 2), (1,), EXT, EXT),
    "p2-with-E": (2, (0, 1), (1,), "p = 2 monomials carry no exterior part", "p = 2 symbols carry no exterior part"),
    "exterior-2-and-negative": (3, (2,), (-1,), EXT, NEG),
    "p2-E-and-negative": (2, (1,), (-1,), NEG, NEG),
    "p2-exterior-2": (2, (2,), (1,), EXT, EXT),
}


@pytest.mark.parametrize("p,E,R,in_j_msg,sym_msg", REFUSALS.values(), ids=REFUSALS.keys())
def test_refusal_order_matches_reference(p, E, R, in_j_msg, sym_msg):
    assert outcome(in_J_basis, E, R, 0, p) == outcome(ref_in_J_basis, E, R, 0, p) == (MilnorError, in_j_msg)
    assert outcome(DualSymbol, p, R, E) == outcome(RefDualSymbol, p, R, E) == (MilnorError, sym_msg)


def test_p2_accepts_an_all_zero_exterior_part():
    assert in_J_basis((0, 0), (4,), 1, 2) is True
    assert DualSymbol(2, (3,), [0, 0]).E == ()


def test_symbol_is_frozen():
    sym = DualSymbol(3, (1, 0), (1,))
    for name, value in (("p", 5), ("R", (2,)), ("E", ())):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(sym, name, value)
    assert sym == DualSymbol(3, [1], iter([1, 0]))


@pytest.mark.parametrize("p", [2, 3])
@pytest.mark.parametrize("k", [-1, -2])
def test_negative_level_is_refused(p, k):
    # at k = -1 the threshold p^0 = 1 made every nonzero r an ideal index, and
    # at k = -2 the clauses compared against the float 1/p
    with pytest.raises(MilnorError, match="level k must be non-negative"):
        in_J_basis((), (1,), k, p)
    with pytest.raises(MilnorError, match="level k must be non-negative"):
        in_dual_span(DualSymbol(p, (1,)), k)
