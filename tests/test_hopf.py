import hashlib
import pickle
import random
import re
import sys
from contextlib import nullcontext
from unittest.mock import patch

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from steenrodgroup import hopf, verify
from steenrodgroup.algebra import (
    AlgebraElement,
    AlgebraError,
    AlgebraPresentation,
    Generator,
    adjoin_epsilon,
    component,
    component_monomials,
    frobenius,
    mk_algebra,
)
from steenrodgroup.group import (
    GroupElement,
    coeff_degree,
    compose,
    invert_closed,
    invert_recursive,
    invert_split,
    rho,
)
from steenrodgroup.hopf import (
    GeneratorAssignment,
    HopfError,
    TensorElement,
    antipode,
    antipode_defect,
    antipode_gen,
    axiom_counterexamples,
    check_hopf_ideal,
    coassociativity_defect,
    cocommutativity_defect,
    convolution,
    coproduct,
    counit,
    counit_defect,
    dual_mod_J,
    dual_steenrod,
    level_algebra,
    level_mod_I,
    milnor_quotient,
    milnor_quotient_ev,
    primitivity_check,
    rho_diagram_check,
    switch,
    theta,
    universal_points,
)
from steenrodgroup.sampling import random_assignment
from steenrodgroup.verify import theta_target


def trivial_assignment(hp, target):
    """The counit as a point: every generator to zero."""
    return GeneratorAssignment(hp, target, {})


def antipode_assignment(phi):
    """phi precomposed with the conjugation."""
    hp = phi.hopf
    values = {}
    for g in hp.algebra.generators:
        v = phi.eval(antipode_gen(hp, g.name))
        if not v.is_zero():
            values[g.name] = v
    return GeneratorAssignment(hp, phi.target, values)


def H2():
    return dual_steenrod(2, N=3, D=2 * (2**3 - 1))


def H3():
    return dual_steenrod(3, N=2, D=2 * (3**2 - 1) + 12)


# -- presets -------------------------------------------------------------------


def test_generator_degrees_p2():
    hp = dual_steenrod(2)
    assert [hp.gen_degree(f"z{i}") for i in (1, 2, 3, 4)] == [1, 3, 7, 15]


def test_generator_degrees_odd():
    hp = dual_steenrod(3)
    assert hp.gen_degree("t0") == 1
    assert hp.gen_degree("t2") == 2 * 9 - 1
    assert hp.gen_degree("x2") == 2 * (9 - 1)


def test_degree_cap_admits_top_exterior_generator():
    hp = dual_steenrod(3)
    assert hp.degree_cap >= hp.gen_degree("t4") > hp.D


@pytest.mark.parametrize("D", [4, 15])
def test_synthetic_caps_keep_every_degree_the_maps_admit(D):
    # a D below t2's degree 17, or odd at p = 3, is relaxed to the degree cap
    # 17, and the caps keep every monomial up to it: chi(xi_2) keeps xi_1^4,
    # and mu(tau_1 xi_1^3) keeps xi_1^4 (x) tau_0
    hp = dual_steenrod(3, 2, D=D)
    x, one = hp.algebra.gen, hp.algebra.one()
    assert hp.degree_cap == 17
    chi = antipode(hp, x("x2"))
    assert chi == -x("x2") + x("x1", 4) and len(chi.terms) == 2
    pairs = [(x("t1") * x("x1", 3), one), (x("t1"), x("x1", 3)), (x("x1", 4), x("t0")),
             (x("x1"), x("t0") * x("x1", 3)), (x("x1", 3), x("t1")), (one, x("t1") * x("x1", 3))]
    terms = [TensorElement.of(a, b) for a, b in pairs]
    mu = coproduct(hp, x("t1") * x("x1", 3))
    assert mu == sum(terms[1:], terms[0]) and len(list(mu.pairs())) == 6


def test_quotient_caps():
    hp = milnor_quotient(2, 2)
    alg = hp.algebra
    z1 = alg.gen("z1")
    assert alg.gen("z1", 3) == z1 * z1 * z1
    assert alg.gen("z1", 4).is_zero()
    assert alg.gen("z2", 2).is_zero()


def test_ev_preset_needs_odd_prime():
    with pytest.raises(HopfError):
        milnor_quotient_ev(2, 2)
    hp = milnor_quotient_ev(3, 1)
    assert hp.gen_names() == ["x1"]


def test_level_algebra_shift():
    hp = level_algebra(2, 2, N=2)
    assert hp.shift == 2
    assert hp.gen_degree("z1") == 4 * 1
    assert hp.gen_degree("z2") == 4 * 3
    hp3 = level_algebra(3, 1, N=2)
    assert hp3.has_gen("t0") and not hp3.has_gen("t1")
    assert not level_algebra(3, 2, N=2).has_gen("t0")


def every_preset():
    """(call, preset) for each preset over p in {2, 3, 5, 7}, N <= 6, k <= 3
    and D in {None, 5, 17, 100}; a refused call gives its HopfError."""
    calls = []
    for p in (2, 3, 5, 7):
        for N in range(7):
            calls += [(milnor_quotient, (p, N)), (milnor_quotient_ev, (p, N))]
            calls += [(dual_steenrod, (p, N, D)) for D in (None, 5, 17, 100)]
            for k in range(4):
                calls += [(level_mod_I, (p, k, N)), (dual_mod_J, (p, k, N))]
                calls += [(level_algebra, (p, k, N, D)) for D in (None, 5, 17, 100)]
    for fn, args in calls:
        try:
            yield f"{fn.__name__}{args}", fn(*args)
        except HopfError as exc:
            yield f"{fn.__name__}{args}", exc


def test_presets_keep_their_generators_degrees_caps_and_labels():
    # sha256 of every preset's repr, recorded before the presets were built
    # by `hopf.quotient` (names, degrees, caps, D, shift and label all stay),
    # again when dual_mod_J(p, 0, N) took the label A_mod_J(0) at odd p, and
    # again when the synthetic caps were built from the degree cap: the 286
    # calls whose D is below a generator's degree got larger caps
    text = "".join(f"{call} {hp!r}\n" for call, hp in every_preset())
    assert text.count("\n") == 840
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "2ac539e4f9227425da56f047a2de61de80bf74cc93049129844a99eac169b6f1"
    )


@pytest.mark.parametrize("p", [2, 3, 5])
@pytest.mark.parametrize("N", range(5))
def test_mod_J0_is_mod_I0_with_its_own_label(p, N):
    hp = dual_mod_J(p, 0, N)
    assert hp.algebra == level_mod_I(p, 0, N).algebra
    assert hp.label == "A_mod_J(0)"


def test_xi_has_the_degree_of_alpha_at_its_shift():
    # theta sends xi_i to alpha_i, so they must agree in degree
    for call, hp in every_preset():
        if isinstance(hp, HopfError):
            continue
        for i in range(1, hp.N + 1):
            assert hp.gen_degree(hp.xi_name(i)) == coeff_degree(hp.p, hp.shift, i), call


NEGATIVE = [
    (level_algebra, (2, -1, 2), "k = -1"),
    (level_algebra, (3, 1, -2), "N = -2"),
    (level_mod_I, (3, -1, 2), "k = -1"),
    (level_mod_I, (2, 0, -1), "N = -1"),
    (dual_mod_J, (2, -1, 4), "k = -1"),
    (dual_mod_J, (3, -1, 2), "k = -1"),
    (dual_mod_J, (5, 1, -1), "N = -1"),
    (dual_steenrod, (2, -1), "N = -1"),
    (milnor_quotient, (3, -1), "n = -1"),
    (milnor_quotient_ev, (3, -1), "n = -1"),
    (hopf.quotient, (2, -1, 0, "q", None, ()), "N = -1"),
    (hopf.quotient, (3, 2, -1, "q", lambda i: 3, ()), "shift = -1"),
    (dual_steenrod, (2, 2, -5), "D = -5"),
    (dual_steenrod, (3, 2, -1), "D = -1"),
    (level_algebra, (2, 2, 2, -1), "D = -1"),
    (level_algebra, (3, 1, 2, -5), "D = -5"),
    (hopf.quotient, (3, 2, 0, "q", None, (), -1), "D = -1"),
]


@pytest.mark.parametrize("fn, args, message", NEGATIVE)
def test_negative_level_or_bound_is_refused_up_front(fn, args, message):
    # refused before any degree p**k or cap p**(k+1) is taken: a negative
    # level gives float degrees or caps of 1
    with pytest.raises(HopfError, match=re.escape(message)):
        fn(*args)


# -- tensor square -------------------------------------------------------------


def test_tensor_product_koszul_sign():
    alg = H3().algebra
    t0, t1 = alg.gen("t0"), alg.gen("t1")
    lhs = TensorElement.of(alg.one(), t0) * TensorElement.of(t1, alg.one())
    assert lhs == -TensorElement.of(t1, t0)


def test_switch_sign_on_odd_odd():
    alg = H3().algebra
    t = TensorElement.of(alg.gen("t0"), alg.gen("t1"))
    assert switch(t) == -TensorElement.of(alg.gen("t1"), alg.gen("t0"))


def test_frobenius_keeps_a_tensor_element_and_is_its_pth_power():
    # the freshman's dream in the tensor square, Koszul signs and taus included
    hp = H3()
    alg = hp.algebra
    mus = [coproduct(hp, alg.gen(g.name)) for g in alg.generators]
    for t in mus + [mus[0] + mus[1] + mus[3], mus[2] - mus[4]]:
        f = frobenius(t, 1)
        assert type(f) is TensorElement
        assert f == t * t * t


def test_switch_is_involution():
    alg = H3().algebra
    t = TensorElement.of(alg.gen("t0") + alg.gen("t1"), alg.gen("x1"))
    assert switch(switch(t)) == t


# -- coproduct / antipode hand values ------------------------------------------


def test_coproduct_z1_primitive():
    hp = H2()
    alg = hp.algebra
    z1 = alg.gen("z1")
    assert coproduct(hp, z1) == TensorElement.of(z1, alg.one()) + TensorElement.of(alg.one(), z1)


def test_coproduct_z2():
    hp = H2()
    alg = hp.algebra
    z1, z2 = alg.gen("z1"), alg.gen("z2")
    expected = (
        TensorElement.of(z2, alg.one())
        + TensorElement.of(z1 * z1, z1)
        + TensorElement.of(alg.one(), z2)
    )
    assert coproduct(hp, z2) == expected


def test_coproduct_t1_three_terms():
    hp = H3()
    alg = hp.algebra
    expected = (
        TensorElement.of(alg.gen("t1"), alg.one())
        + TensorElement.of(alg.gen("x1"), alg.gen("t0"))
        + TensorElement.of(alg.one(), alg.gen("t1"))
    )
    assert coproduct(hp, alg.gen("t1")) == expected


def test_coproduct_multiplicative():
    hp = H2()
    alg = hp.algebra
    x, y = alg.gen("z1"), alg.gen("z2")
    assert coproduct(hp, x * y) == coproduct(hp, x) * coproduct(hp, y)


def test_coproduct_cap_guard():
    hp = dual_steenrod(2, N=2, D=4)
    alg = hp.algebra
    with pytest.raises(HopfError, match="degree 5 exceeds the degree cap 4"):
        coproduct(hp, alg.gen("z1", 2) * alg.gen("z2"))
    # the antipode refuses the same element: the caps would truncate it too
    with pytest.raises(HopfError, match="degree 5 exceeds the degree cap 4"):
        antipode(hp, alg.gen("z1", 2) * alg.gen("z2"))


ADMITTING = [coproduct, antipode, coassociativity_defect, counit_defect, antipode_defect]


@pytest.mark.parametrize("p", [2, 3, 5])
@pytest.mark.parametrize("fn", ADMITTING, ids=lambda fn: fn.__name__)
def test_hopf_maps_refuse_above_the_degree_cap(p, fn):
    # one degree above the cap the caps would truncate the image; the top
    # generator is admitted, t3 at odd p too, which outweighs D by one
    hp = dual_steenrod(p, 3)
    alg = hp.algebra
    above = alg.monomial(component_monomials(alg, hp.degree_cap + 1)[0])
    with pytest.raises(HopfError, match=f"^degree {hp.degree_cap + 1} exceeds the degree cap {hp.degree_cap}$"):
        fn(hp, above)
    top = max(alg.generators, key=lambda g: g.degree)
    fn(hp, alg.gen(top.name))


@pytest.mark.parametrize("p", [2, 3, 5])
@pytest.mark.parametrize("fn", ADMITTING, ids=lambda fn: fn.__name__)
def test_hopf_maps_refuse_another_presentation(p, fn):
    # xi_2 of A(2) would be read in the packed layout of A_dual, N = 3
    hp, other = dual_steenrod(p, 3), milnor_quotient(p, 2)
    with pytest.raises(HopfError, match="element of another presentation"):
        fn(hp, other.xi(2))


def test_assignment_refuses_another_presentation():
    hp, other = dual_steenrod(3, 3), milnor_quotient(3, 2)
    phi = GeneratorAssignment(hp, hp.algebra, {g: hp.algebra.gen(g) for g in hp.gen_names()})
    assert phi.eval(hp.xi(2)) == hp.xi(2)
    with pytest.raises(HopfError, match="element of another presentation"):
        phi.eval(other.xi(2))


def test_antipode_hand_values():
    hp = H2()
    alg = hp.algebra
    assert antipode(hp, alg.gen("z1")) == alg.gen("z1")
    assert antipode(hp, alg.gen("z2")) == alg.gen("z2") + alg.gen("z1", 3)


def test_antipode_t0():
    hp = H3()
    alg = hp.algebra
    assert antipode(hp, alg.gen("t0")) == -alg.gen("t0")


def test_counit():
    alg = H2().algebra
    assert counit(alg.one() + alg.gen("z1")) == 1
    assert counit(alg.gen("z2")) == 0


# -- axioms --------------------------------------------------------------------


@pytest.mark.parametrize("p", [2, 3])
def test_hopf_axioms_on_generators(p):
    hp = dual_steenrod(p, N=3, D=2 * (p**3 - 1))
    alg = hp.algebra
    for g in alg.generators:
        x = alg.gen(g.name)
        assert coassociativity_defect(hp, x) == {}
        l, r = counit_defect(hp, x)
        assert l.is_zero() and r.is_zero()
        l, r = antipode_defect(hp, x)
        assert l.is_zero() and r.is_zero()


def test_dropped_coproduct_term_breaks_coassociativity(monkeypatch):
    # without z2 (x) 1, mu(z2) = z1^2 (x) z1 + 1 (x) z2, and (mu (x) id) mu(z2)
    # misses the z1^2 (x) z1 (x) 1 that (id (x) mu) mu(z2) has
    hp = H2()
    alg = hp.algebra
    full = hopf.coproduct_gen
    dropped = TensorElement.of(alg.gen("z2"), alg.one())
    monkeypatch.setattr(
        hopf, "coproduct_gen", lambda hp_, name: full(hp_, name) - dropped if name == "z2" else full(hp_, name)
    )
    w = alg.width
    z1, z1sq = (alg.pack((e, 0, 0)) for e in (1, 2))
    assert coassociativity_defect(hp, alg.gen("z2")) == {z1sq << 2 * w | z1 << w: 1}
    assert coassociativity_defect(hp, alg.gen("z1")) == {}
    laws = [(c["law"], c["generator"]) for c in axiom_counterexamples(hp)]
    assert ("coassociativity", "z2") in laws and ("coassociativity", "z1") not in laws


def test_not_cocommutative_p2():
    hp = H2()
    alg = hp.algebra
    defects = dict(cocommutativity_defect(hp))
    assert defects["z1"].is_zero()
    witness = TensorElement.of(alg.gen("z1", 2), alg.gen("z1")) - TensorElement.of(
        alg.gen("z1"), alg.gen("z1", 2)
    )
    assert defects["z2"] == witness


def test_not_cocommutative_odd():
    hp = H3()
    alg = hp.algebra
    defects = dict(cocommutativity_defect(hp))
    witness = TensorElement.of(alg.gen("x1"), alg.gen("t0")) - TensorElement.of(
        alg.gen("t0"), alg.gen("x1")
    )
    assert defects["t1"] == witness


def test_cocommutativity_defect_covers_every_generator_the_maps_admit():
    # the top tau, t2 of degree 17, lies above D = 16 but not above degree_cap
    hp = dual_steenrod(3, 2)
    defects = dict(cocommutativity_defect(hp))
    assert list(defects) == hp.gen_names() == ["t0", "t1", "t2", "x1", "x2"]
    assert not defects["t2"].is_zero()


@pytest.mark.parametrize("p", [2, 3])
@pytest.mark.parametrize("k", [0, 1, 2])
def test_cocommutative_quotients_are_primitive(p, k):
    assert primitivity_check(level_mod_I(p, k, N=3))


def test_mod_J_primitive_only_at_level_zero():
    assert primitivity_check(dual_mod_J(2, 0, N=3))
    assert not primitivity_check(dual_mod_J(2, 1, N=3))
    assert primitivity_check(dual_mod_J(3, 0, N=3))


# -- monomial Hopf ideals ------------------------------------------------------


def test_square_ideal_is_hopf_p2():
    hp = H2()
    alg = hp.algebra
    ok, witness = check_hopf_ideal(hp, [alg.gen(f"z{i}", 2) for i in (1, 2, 3)])
    assert ok, witness


def test_principal_generator_ideal_is_not_hopf():
    hp = H2()
    alg = hp.algebra
    ok, witness = check_hopf_ideal(hp, [alg.gen("z2")])
    assert not ok
    mono, axiom, (m1, m2, _) = witness
    assert axiom == "coproduct"


def test_non_hopf_ideal_witness_holds_exponent_tuples():
    # z2 is the first ideal monomial; z1^2 (x) z1 in mu(z2) leaves the ideal
    hp = H2()
    ok, witness = check_hopf_ideal(hp, [hp.algebra.gen("z2")])
    assert not ok
    assert witness == ((0, 1, 0), "coproduct", ((2, 0, 0), (1, 0, 0), 1))


def test_tau_ideal_must_take_enough_generators():
    # (t1) alone is not a Hopf ideal: mu(t1) has the x1 (x) t0 cross term
    hp = H3()
    alg = hp.algebra
    ok, witness = check_hopf_ideal(hp, [alg.gen("t1")])
    assert not ok
    ok, _ = check_hopf_ideal(hp, [alg.gen("t0"), alg.gen("t1")])
    assert ok


def test_nonmonomial_ideal_generators_rejected():
    hp = H2()
    alg = hp.algebra
    with pytest.raises(HopfError):
        check_hopf_ideal(hp, [alg.gen("z1") + alg.gen("z2")])


def test_hopf_ideal_check_refuses_a_degree_above_the_cap():
    # above the cap the caps would truncate the antipode: at D = 14 the
    # degree-15 z1^3*z2^4 would lose the z1^15 term it has at D = 15
    hp = H2()
    z = hp.algebra.gen
    with pytest.raises(HopfError, match="degree 15 exceeds the degree cap 14"):
        antipode(hp, z("z1", 3) * z("z2", 4))
    with pytest.raises(HopfError, match="degree 15 exceeds the degree cap 14"):
        check_hopf_ideal(hp, [z("z1", 2), z("z1", 3) * z("z2", 4)])
    wide = dual_steenrod(2, N=3, D=15)
    z = wide.algebra.gen
    assert antipode(wide, z("z1", 3) * z("z2", 4)) == z("z1", 3) * z("z2", 4) + z("z1", 15)


def test_hopf_ideal_check_refuses_a_generator_of_another_presentation():
    # z2 of A(3) is packed in another layout: read in A_dual's it names no
    # ideal that the check could decide
    hp = dual_steenrod(2, 3, D=15)
    with pytest.raises(HopfError, match="element of another presentation"):
        check_hopf_ideal(hp, [milnor_quotient(2, 3).algebra.gen("z2")])
    assert check_hopf_ideal(hp, [hp.algebra.gen("z2")])[0] is False


def test_hopf_ideal_check_names_the_counit_witness():
    # the unit ideal holds the monomial 1, whose counit is 1
    hp = dual_steenrod(2, 3)
    assert check_hopf_ideal(hp, [hp.algebra.one()]) == (False, ((0, 0, 0), "counit"))


def test_hopf_ideal_check_names_the_antipode_witness(monkeypatch):
    # Milnor's antipode keeps a coideal's kernel, so the antipode witness takes
    # a broken one: sending z3 to 1, made before the fresh presentation's first
    # antipode, leaves the I(2,n) kernel (z1^4, z2^2, z3) at z3, whose
    # coproduct terms each keep an ideal factor
    real = hopf.antipode_gen
    monkeypatch.setattr(hopf, "antipode_gen", lambda hp, name: hp.algebra.one() if name == "z3" else real(hp, name))
    hp = dual_steenrod(2, 3)
    ideal = verify._kernel_generators(hp, milnor_quotient(2, 2))
    assert check_hopf_ideal(hp, ideal) == (False, ((0, 0, 1), "antipode", (0, 0, 0)))


def _walk_hopf_ideal(hp, ideal_gens):
    """The reference check: every ideal monomial up to hp's degree cap, in
    (degree, packed monomial) order, under the three checks of
    `check_hopf_ideal`."""
    alg = hp.algebra
    gens = [next(iter(g.terms)) for g in ideal_gens]

    def in_ideal(m):
        return any(alg.divides(g, m) for g in gens)

    for m in (m for d in range(hp.degree_cap + 1) for m in component(alg, d) if in_ideal(m)):
        if m == 0:
            return False, (alg.exponents(m), "counit")
        for (m1, m2), c in hp._coproducts[m].pairs():
            if not in_ideal(m1) and not in_ideal(m2):
                return False, (alg.exponents(m), "coproduct", (alg.exponents(m1), alg.exponents(m2), c))
        for t in hp._antipodes[m].terms:
            if not in_ideal(t):
                return False, (alg.exponents(m), "antipode", alg.exponents(t))
    return True, None


def _random_monomial_ideal(rng, hp):
    """One to four generators, each a power of one generator or a monomial
    of a random degree up to the cap."""
    alg, gens, n = hp.algebra, [], rng.randint(1, 4)
    while len(gens) < n:
        if rng.random() < 0.5:
            g = rng.choice(alg.generators)
            gens.append(alg.gen(g.name, rng.randint(1, g.cap - 1)))
        else:
            monos = component(alg, rng.randint(1, hp.degree_cap))
            if monos:
                gens.append(AlgebraElement(alg, {rng.choice(monos): 1}))
    return gens


@pytest.mark.parametrize("make", [
    lambda: dual_steenrod(2, 3), lambda: level_algebra(2, 1, 3), lambda: milnor_quotient(2, 3),
    lambda: dual_steenrod(3, 2), lambda: level_algebra(3, 1, 2), lambda: dual_mod_J(3, 1, 2),
    lambda: level_mod_I(5, 0, 2),
], ids=["A_dual(2)", "A_angle(2,1)", "A(2,3)", "A_dual(3)", "A_angle(3,1)", "A_mod_J(3,1)", "A_mod_I(5,0)"])
def test_hopf_ideal_check_agrees_with_the_walk_of_every_ideal_monomial(make):
    hp = make()
    rng = random.Random(f"{hp.p}:{hp.label}")
    verdicts = set()
    for _ in range(60):
        gens = _random_monomial_ideal(rng, hp)
        result = check_hopf_ideal(hp, gens)
        assert result == _walk_hopf_ideal(hp, gens), gens
        verdicts.add(result[0])
    assert verdicts == {True, False}


# -- the kernels of the quotient presets -----------------------------------------
#
# `verify._kernel_generators` reads a preset's ideal off its caps; the lists
# below state the six ideals of `verify.check_hopf_ideals` as the paper does,
# as an oracle for that reading.


def _papers_ideals(hp):
    p, xi, tau = hp.p, hp.xi, hp.tau
    if p == 2:
        return {"I<0>": [xi(i, 2) for i in range(1, 4)], "I<1>": [xi(1, 4), xi(2, 4)],
                "I(2,n)": [xi(1, 4), xi(2, 2), xi(3)]}
    return {"J<0>": [tau(0)] + [xi(i, p) for i in range(1, 4)], "I(p,1)": [tau(2), tau(3), xi(1, p), xi(2), xi(3)],
            "I(p,2)": [tau(3), xi(1, p**2), xi(2, p), xi(3)]}


def _monomials(gens):
    return {next(iter(g.terms)) for g in gens if not g.is_zero()}


@pytest.mark.parametrize("p", [2, 3, 5, 7, 13])
def test_suite_ideals_are_the_papers(monkeypatch, p):
    seen = []
    monkeypatch.setattr(verify, "check_hopf_ideal", lambda hp, gens: seen.append((hp, gens)) or (True, None))
    verify.check_hopf_ideals(p, 4, random.Random(0), 1)
    *ideals, (hp, principal) = seen  # the last call is the non-Hopf ideal (xi_2)
    assert [_monomials(gens) for _, gens in ideals] == [_monomials(g) for g in _papers_ideals(hp).values()]
    assert principal == [hp.xi(2)]


def _quotient_presets(p):
    """(ambient, preset) for each quotient preset over three generators."""
    full = dual_steenrod(p, 3)
    yield from ((level_algebra(p, k, 3), level_mod_I(p, k, 3)) for k in range(3))
    yield from ((full, dual_mod_J(p, k, 3)) for k in range(3))
    yield from ((full, milnor_quotient(p, n)) for n in (1, 2))


@pytest.mark.parametrize("p", [2, 3, 5])
def test_quotient_presets_are_hopf_quotients(p):
    for hp, q in _quotient_presets(p):
        assert check_hopf_ideal(hp, verify._kernel_generators(hp, q)) == (True, None), q.label


def _misplaced_caps(p, n):
    """A(n) with the caps p^i of xi_i in place of p^(n-i+1)."""
    return hopf.quotient(p, n, 0, f"A({n})", lambda i: p**i, range(n + 1))


@pytest.mark.parametrize("p", [2, 3, 5])
def test_misplaced_milnor_caps_are_no_hopf_quotient(p):
    # xi_2^p (x) xi_1 in mu(xi_3) leaves the kernel, whose xi_2 power is p^2
    hp = dual_steenrod(p, 3)
    ok, witness = check_hopf_ideal(hp, verify._kernel_generators(hp, _misplaced_caps(p, 2)))

    def exps(x):
        return hp.algebra.exponents(next(iter(x.terms)))

    assert not ok
    assert witness == (exps(hp.xi(3)), "coproduct", (exps(hp.xi(2, p)), exps(hp.xi(1)), 1))


@pytest.mark.parametrize("p", [2, 3, 5])
def test_hopf_ideals_names_a_failing_ideal_as_the_paper_does(monkeypatch, p):
    # A(1)'s caps p and p^1 agree: only A(2)'s kernel is wrong, past xi_3
    monkeypatch.setattr(verify, "milnor_quotient", _misplaced_caps)
    ce = verify.check_hopf_ideals(p, 4, random.Random(0), 1)
    assert ce["ideal"] == ("I(2,n)" if p == 2 else "I(p,2)")


# -- assignments, convolution, theta -------------------------------------------


def mk_phi(seed, p, N=3):
    hp = dual_steenrod(p, N=N, D=2 * (p**N - 1))
    return random_assignment(random.Random(seed), hp, theta_target(p))


def test_assignment_degree_validation():
    hp = H2()
    target = theta_target(2)
    with pytest.raises(HopfError):
        GeneratorAssignment(hp, target, {"z2": target.gen("z1")})
    with pytest.raises(HopfError):
        GeneratorAssignment(hp, target, {"bogus": target.gen("z1")})


def test_assignment_is_multiplicative():
    phi = mk_phi(1, 2)
    alg = phi.hopf.algebra
    x, y = alg.gen("z1"), alg.gen("z2")
    assert phi.eval(x * y) == phi.eval(x) * phi.eval(y)


def test_trivial_assignment_is_counit_like():
    hp = H2()
    target = theta_target(2)
    e = trivial_assignment(hp, target)
    assert e.eval(hp.algebra.one()) == target.one()
    assert e.eval(hp.algebra.gen("z1")).is_zero()


def test_convolution_unit():
    phi = mk_phi(2, 3)
    e = trivial_assignment(phi.hopf, phi.target)
    got = convolution(phi, e)
    for name in phi.hopf.gen_names():
        assert got.value(name) == phi.value(name)


def test_convolution_inverse_is_antipode():
    phi = mk_phi(3, 2)
    inv = antipode_assignment(phi)
    got = convolution(phi, inv)
    for name in phi.hopf.gen_names():
        assert got.value(name).is_zero()


def test_theta_hand_example_p2():
    # phi(z1) = a gives the series X + a X^2 (+ higher assigned coefficients)
    hp = dual_steenrod(2, N=2, D=6)
    target = milnor_quotient(2, 2).algebra
    phi = GeneratorAssignment(hp, target, {"z1": target.gen("z1")})
    g = theta(phi)
    assert g.coeffs[0] == g.algebra.one()
    assert g.coeffs[1] == g.algebra.gen("z1")
    assert g.coeffs[2].is_zero()


def test_theta_odd_head_carries_t0():
    hp = dual_steenrod(3, N=2, D=20)
    target = milnor_quotient(3, 2).algebra
    phi = GeneratorAssignment(hp, target, {"t0": target.gen("t0")})
    g = theta(phi)
    from steenrodgroup.algebra import eps_part, eps_reduce

    assert eps_reduce(g.coeffs[0]) == g.algebra.one()
    assert eps_part(g.coeffs[0]) == g.algebra.gen("t0")


@pytest.mark.parametrize("p,N", [(2, 6), (2, 8), (3, 4), (3, 6), (5, 3), (7, 3)])
def test_milnor_antipode_is_the_group_inverse(p, N):
    # theta of xi -> S(xi), tau -> S(tau) is the inverse of the universal
    # point, by each of the three power-series inverses
    hp = dual_steenrod(p, N)
    (u,) = universal_points(hp, 1)
    S = GeneratorAssignment(hp, hp.algebra, {g: antipode_gen(hp, g) for g in hp.gen_names()})
    inverse = theta(S)
    assert inverse == invert_recursive(u) == invert_closed(u)
    if p != 2:
        assert inverse == invert_split(u)


@given(st.integers(0, 10**6), st.sampled_from([2, 3]))
def test_theta_turns_convolution_into_composition(seed, p):
    phi, psi = mk_phi(seed, p), mk_phi(seed + 1, p)
    lhs = theta(convolution(phi, psi))
    rhs = compose(theta(psi), theta(phi))
    assert lhs == rhs


def _embed_by_pack(x, big):
    """The former route of `embed`: exponents out, zeros appended, packed again."""
    extra = (0,) * (big.ngens - x.pres.ngens)
    return AlgebraElement(big, {big.pack(x.pres.exponents(m) + extra): c for m, c in x.terms.items()})


A2_3 = milnor_quotient(3, 2).algebra
CAPLESS_3 = mk_algebra(3, [("t0", 1, 2), ("x1", 4, None)])
EXTENSIONS = {
    "eps": (A2_3, adjoin_epsilon(A2_3)),
    "two-generators": (A2_3, AlgebraPresentation(3, A2_3.generators + (Generator("y", 6, 5), Generator("w", 3, 2)))),
    "capless": (CAPLESS_3, AlgebraPresentation(3, CAPLESS_3.generators + (Generator("y", 2, None),))),
}


@pytest.mark.parametrize("small, big", EXTENSIONS.values(), ids=EXTENSIONS.keys())
@given(seed=st.integers(0, 10**6))
def test_embed_by_shift_matches_the_pack_route(small, big, seed):
    rng = random.Random(seed)
    x = small.zero()
    for _ in range(6):
        exps = [rng.randrange(g.cap) if g.cap else rng.choice([0, 1, 7, 2**32 - 1]) for g in small.generators]
        x = x + small.monomial(exps, rng.randrange(1, 3))
    assert hopf.embed(x, big) == _embed_by_pack(x, big)


def test_embed_refuses_what_is_not_an_append_only_extension():
    x = A2_3.gen("x1")
    for big in (AlgebraPresentation(3, A2_3.generators[1:]), AlgebraPresentation(3, A2_3.generators[::-1])):
        with pytest.raises(AlgebraError, match="not an append-only extension"):
            hopf.embed(x, big)


def test_rho_diagram_hand_example():
    # phi(z1) = a at level 0: theta gives X + aX^2 + ...; rho squares the
    # coefficients and bumps the level, matching theta of the restriction
    hp = dual_steenrod(2, N=2, D=6)
    target = milnor_quotient(2, 2).algebra
    phi = GeneratorAssignment(hp, target, {"z1": target.gen("z1")})
    assert rho_diagram_check(phi)
    g = rho(theta(phi))
    assert g.level == 1
    assert g.coeffs[1] == frobenius(g.algebra.gen("z1"), 1)


@given(st.integers(0, 10**6), st.sampled_from([2, 3]), st.sampled_from([0, 1, 2]))
def test_rho_diagram_commutes(seed, p, k):
    hp = level_algebra(p, k, N=3)
    phi = random_assignment(random.Random(seed), hp, theta_target(p))
    assert rho_diagram_check(phi)


# -- the maps against their per-term sums ----------------------------------------
#
# The reference below multiplies out each monomial on its own and adds the
# results one term at a time with `+` and `.scale`; `hopf.extend` sums every
# term of an element into one dict.


def ref_extend_monomial(alg, mono, image, out):
    for g, e in zip(alg.generators, alg.exponents(mono)):
        for _ in range(e):
            out = out * image(g.name)
    return out


def ref_coproduct(hp, x):
    alg = hp.algebra
    one, acc = TensorElement.of(alg.one(), alg.one()), TensorElement.of(alg.zero(), alg.zero())
    for mono, c in x.terms.items():
        acc = acc + ref_extend_monomial(alg, mono, lambda name: hopf.coproduct_gen(hp, name), one).scale(c)
    return acc


def ref_antipode(hp, x):
    alg = hp.algebra
    acc = alg.zero()
    for mono, c in x.terms.items():
        acc = acc + ref_extend_monomial(alg, mono, lambda name: hopf.antipode_gen(hp, name), alg.scalar(c))
    return acc


def ref_eval_monomial(phi, mono):
    return ref_extend_monomial(phi.hopf.algebra, mono, phi.value, phi.target.one())


def ref_eval(phi, x):
    acc = phi.target.zero()
    for mono, c in x.terms.items():
        acc = acc + ref_eval_monomial(phi, mono).scale(c)
    return acc


def ref_convolution(phi, psi):
    hp = phi.hopf
    values = {}
    for g in hp.algebra.generators:
        mu = ref_coproduct(hp, hp.algebra.gen(g.name))
        acc = phi.target.zero()
        for (m1, m2), c in mu.pairs():
            acc = acc + (ref_eval_monomial(psi, m1) * ref_eval_monomial(phi, m2)).scale(c)
        if not acc.is_zero():
            values[g.name] = acc
    return values


def ref_counit_defect(hp, x):
    alg = hp.algebra
    left = right = alg.zero()
    for (m1, m2), c in ref_coproduct(hp, x).pairs():
        if m1 == 0:
            left = left + AlgebraElement(alg, {m2: c})
        if m2 == 0:
            right = right + AlgebraElement(alg, {m1: c})
    return left - x, right - x


def ref_coassociativity_defect(hp, x):
    alg = hp.algebra
    w = alg.width

    def mu(m):
        return ref_coproduct(hp, AlgebraElement(alg, {m: 1})).pairs()

    acc = {}

    def add(a, b, d, c):
        key = a << 2 * w | b << w | d
        acc[key] = (acc.get(key, 0) + c) % hp.p

    for (m1, m2), c in ref_coproduct(hp, x).pairs():
        for (a, b), c2 in mu(m1):
            add(a, b, m2, c * c2)
        for (b, d), c2 in mu(m2):
            add(m1, b, d, -c * c2)
    return {k: v for k, v in acc.items() if v}


def ref_antipode_defect(hp, x):
    alg = hp.algebra
    left = right = alg.zero()
    for (m1, m2), c in ref_coproduct(hp, x).pairs():
        e1, e2 = AlgebraElement(alg, {m1: c}), AlgebraElement(alg, {m2: 1})
        left = left + ref_antipode(hp, e1) * e2
        right = right + e1 * ref_antipode(hp, e2)
    target = alg.scalar(counit(x))
    return left - target, right - target


PRESETS = {
    "A_dual": lambda p: dual_steenrod(p, N=3, D=2 * (p**3 - 1)),
    "A_mod_J": lambda p: dual_mod_J(p, 1, N=3),
    "A_mod_J(2)": lambda p: dual_mod_J(p, 2, N=2),
    "A_angle": lambda p: level_algebra(p, 1, N=2),
    "A_angle(2)": lambda p: level_algebra(p, 2, N=2),
}


# the largest degree of a drawn term: the per-term references multiply a
# power out one factor at a time, and x1^26 x2^26 at p = 3 (degree 520)
# takes them about 10 s
TERM_DEGREE = 110


@st.composite
def hopf_elements(draw, primes=(2, 3)):
    """A preset at p in primes and an element of it below its degree cap: up
    to five terms of up to three generators each, with coefficients other
    than 1 where p allows.  Each exponent is drawn up to its generator's cap
    - 1, as far as the degree left allows, so that powers have several
    non-zero base-p digits (z1^14 at p = 2, x1^26 at p = 3)."""
    hp = PRESETS[draw(st.sampled_from(sorted(PRESETS)))](draw(st.sampled_from(primes)))
    alg = hp.algebra
    terms = {}
    for _ in range(draw(st.integers(2, 5))):
        exps, left = [0] * alg.ngens, min(hp.degree_cap, TERM_DEGREE)
        for i in draw(st.lists(st.integers(0, alg.ngens - 1), max_size=3, unique=True)):
            g = alg.generators[i]
            top = min(g.cap - 1, left // g.degree)
            if top:
                exps[i] = draw(st.integers(1, top))
                left -= exps[i] * g.degree
        terms[alg.pack(exps)] = draw(st.integers(1, hp.p - 1))
    return hp, AlgebraElement(alg, terms)


@given(hopf_elements())
def test_structure_maps_match_their_per_term_sums(case):
    hp, x = case
    assert coassociativity_defect(hp, x) == ref_coassociativity_defect(hp, x)
    assert coproduct(hp, x) == ref_coproduct(hp, x)
    assert antipode(hp, x) == ref_antipode(hp, x)
    assert counit_defect(hp, x) == ref_counit_defect(hp, x)
    assert antipode_defect(hp, x) == ref_antipode_defect(hp, x)


@given(hopf_elements(), st.integers(0, 10**6))
def test_assignments_match_their_per_term_sums(case, seed):
    hp, x = case
    rng = random.Random(seed)
    target = milnor_quotient(hp.p, 2).algebra
    phi, psi = random_assignment(rng, hp, target), random_assignment(rng, hp, target)
    assert phi.eval(x) == ref_eval(phi, x)
    assert convolution(phi, psi).values == ref_convolution(phi, psi)


def ref_switch(t):
    """switch as written before it became an `extend`: a (x) b goes to
    b (x) a, negated when both have an odd number of odd generators."""
    p, odd = t.pres.p, t.pres.factor.odd
    return {
        (m2, m1): -c % p if (m1 & odd).bit_count() & (m2 & odd).bit_count() & 1 else c
        for (m1, m2), c in t.pairs()
    }


@given(hopf_elements(primes=(3,)))
def test_switch_matches_the_sign_rule(case):
    hp, x = case
    for t in (coproduct(hp, x), TensorElement.of(x, antipode(hp, x))):
        assert dict(switch(t).pairs()) == ref_switch(t)


HIGH_POWERS = [
    # (preset, exponents by generator, each with several non-zero base-p digits)
    (lambda: dual_steenrod(2, N=3, D=14), {"z1": 14}),
    (lambda: dual_steenrod(3, N=3, D=52), {"x1": 13}),
    (lambda: dual_steenrod(3, N=3, D=52), {"t0": 1, "x1": 11, "t1": 1}),
    (lambda: dual_mod_J(3, 2, N=2), {"x1": 26}),
    (lambda: dual_mod_J(3, 2, N=2), {"t0": 1, "x1": 10, "x2": 4, "t2": 1}),
    (lambda: dual_mod_J(2, 2, N=3), {"z1": 7, "z2": 6}),
    (lambda: level_algebra(3, 2, N=2), {"x1": 4}),
    (lambda: level_algebra(2, 2, N=2), {"z1": 6}),
]


@pytest.mark.parametrize("make, exps", HIGH_POWERS)
def test_high_powers_match_repeated_products(make, exps):
    hp = make()
    alg = hp.algebra
    x = alg.monomial([exps.get(g.name, 0) for g in alg.generators], hp.p - 1)
    assert not x.is_zero() and x.degree() <= hp.degree_cap
    assert coproduct(hp, x) == ref_coproduct(hp, x)
    assert antipode(hp, x) == ref_antipode(hp, x)
    assert coassociativity_defect(hp, x) == ref_coassociativity_defect(hp, x) == {}
    assert counit_defect(hp, x) == ref_counit_defect(hp, x)
    assert antipode_defect(hp, x) == ref_antipode_defect(hp, x)
    identity = GeneratorAssignment(hp, alg, {g: alg.gen(g) for g in hp.gen_names()})
    assert identity.eval(x) == ref_eval(identity, x) == x


@pytest.fixture
def cold_caches():
    """Generator caches emptied around a test that patches a generator map:
    antipode_gen recurses through the patched name, so its cache would keep
    wrong values."""
    caches = (hopf.coproduct_gen, hopf.antipode_gen)
    for cache in caches:
        cache.cache_clear()
    yield
    for cache in caches:
        cache.cache_clear()


def test_wrong_antipode_gen_gives_the_reference_defects(monkeypatch, cold_caches):
    # iota(x1) = +x1 instead of -x1; the defects of powers of x1 past p, with
    # one, two and three non-zero base-3 digits, come from that map alone
    hp = dual_mod_J(3, 2, N=2)
    alg = hp.algebra
    full = hopf.antipode_gen
    monkeypatch.setattr(
        hopf, "antipode_gen", lambda hp_, name: -full(hp_, name) if name == "x1" else full(hp_, name)
    )
    for e in (4, 13, 22):
        x = alg.gen("x1", e)
        assert antipode(hp, x) == ref_antipode(hp, x)
        got = antipode_defect(hp, x)
        assert got == ref_antipode_defect(hp, x)
        assert not any(v.is_zero() for v in got)


def test_wrong_coproduct_gen_gives_the_reference_defects(monkeypatch, cold_caches):
    # mu(x2) without its 1 (x) x2 term
    hp = dual_mod_J(3, 2, N=2)
    alg = hp.algebra
    full = hopf.coproduct_gen
    dropped = TensorElement.of(alg.one(), alg.gen("x2"))
    monkeypatch.setattr(
        hopf, "coproduct_gen", lambda hp_, name: full(hp_, name) - dropped if name == "x2" else full(hp_, name)
    )
    for x in (alg.gen("x2", 4), alg.gen("x2", 5), alg.gen("x1") * alg.gen("x2", 3)):
        assert coproduct(hp, x) == ref_coproduct(hp, x)
        got = coassociativity_defect(hp, x), counit_defect(hp, x), antipode_defect(hp, x)
        want = ref_coassociativity_defect(hp, x), ref_counit_defect(hp, x), ref_antipode_defect(hp, x)
        assert got == want
        assert got[0] and not got[1][0].is_zero()


@settings(max_examples=100)
@given(hopf_elements(), st.sampled_from([None, "antipode_gen", "coproduct_gen"]), st.data())
def test_defects_match_the_references_under_a_wrong_generator_map(case, which, data):
    # the defects add c * S(m1) * m2, c * m1 * S(m2) and the images of mu
    # into one dict each; the references add whole elements with `+`.  A
    # wrong antipode_gen adds the generator to its image (a change at p = 2
    # too, where negation is none), a wrong coproduct_gen drops 1 (x) g
    hp, x = case
    alg = hp.algebra
    used = sorted({g.name for m in x.terms for g, e in zip(alg.generators, alg.exponents(m)) if e})
    name = data.draw(st.sampled_from(used or hp.gen_names()))
    caches = (hopf.coproduct_gen, hopf.antipode_gen)
    full = getattr(hopf, which) if which else None

    def wrong(hp_, n):
        y, g = full(hp_, n), hp_.algebra.gen(n)
        if n != name:
            return y
        return y + g if which == "antipode_gen" else y - TensorElement.of(hp_.algebra.one(), g)

    for cache in caches:
        cache.cache_clear()
    try:
        with patch.object(hopf, which, wrong) if which else nullcontext():
            got = coassociativity_defect(hp, x), counit_defect(hp, x), antipode_defect(hp, x)
            want = ref_coassociativity_defect(hp, x), ref_counit_defect(hp, x), ref_antipode_defect(hp, x)
    finally:
        for cache in caches:
            cache.cache_clear()
    assert got == want
    if which is None:  # the laws hold on a sum of terms with any coefficients
        assert not got[0] and all(v.is_zero() for v in got[1] + got[2])


def test_capless_overflow_still_raises_through_frobenius():
    # z1 has degree 2^30 and goes to y^(2^30): z1^3 fits in y's field, and
    # z1^4 = frobenius(y^(2^30), 2) reaches 2^32
    hp = level_algebra(2, 30, N=1, D=2**32)
    target = mk_algebra(2, [("y", 1, None)])
    phi = GeneratorAssignment(hp, target, {"z1": target.gen("y", 2**30)})
    assert phi.eval(hp.algebra.gen("z1", 3)) == target.gen("y", 3 * 2**30)
    with pytest.raises(AlgebraError):
        phi.eval(hp.algebra.gen("z1", 4))


def test_equal_presentations_hash_once_and_share_cache_entries():
    a, b = dual_steenrod(3, N=3), dual_steenrod(3, N=3)
    assert a.algebra is not b.algebra and a.algebra == b.algebra
    assert hash(a.algebra) == hash(b.algebra) == hash((3, a.algebra.generators))
    hopf.coproduct_gen.cache_clear()
    first = hopf.coproduct_gen(a, "x2")
    assert hopf.coproduct_gen(b, "x2") is first
    assert hopf.coproduct_gen.cache_info().hits == 1
    gens = list(a.algebra.generators)
    gens[-1] = Generator(gens[-1].name, gens[-1].degree, gens[-1].cap + 1)
    assert AlgebraPresentation(3, tuple(gens)) != a.algebra


def test_presentation_pickles_after_its_maps_were_taken():
    # the coproduct and antipode memos build through a module-level map, so
    # the presentation pickles with them, and the copy's maps are the same
    hp = dual_steenrod(3, 3)
    x = hp.algebra.gen("x1") * hp.algebra.gen("x2")
    maps = coproduct(hp, x), antipode(hp, x)
    twin = pickle.loads(pickle.dumps(hp))
    assert twin == hp and len(twin._coproducts) == len(hp._coproducts)
    y = twin.algebra.gen("x1") * twin.algebra.gen("x2")
    assert (coproduct(twin, y), antipode(twin, y)) == maps


# -- the per-presentation memo of monomial images -------------------------------

# each memoised map -> the presentation's attribute that holds its images
MEMOISED = {coproduct: "_coproducts", antipode: "_antipodes"}


@pytest.mark.parametrize("p", [2, 3, 5])
@pytest.mark.parametrize("fn", list(MEMOISED), ids=lambda fn: fn.__name__)
def test_memo_lookup_comes_after_the_boundary_checks(p, fn):
    hp, other = dual_steenrod(p, 3), milnor_quotient(p, 2)
    alg, images = hp.algebra, getattr(hp, MEMOISED[fn])
    # xi_2 of A(2) packs to the int that is xi_3 in A_dual's layout
    stranger = other.xi(2)
    (m,) = stranger.terms
    fn(hp, AlgebraElement(alg, {m: 1}))
    assert m in images
    with pytest.raises(HopfError, match="element of another presentation"):
        fn(hp, stranger)
    # above the cap: refused with the memo cold, and with an entry planted
    above = alg.monomial(component_monomials(alg, hp.degree_cap + 1)[0])
    (m,) = above.terms
    message = f"^degree {hp.degree_cap + 1} exceeds the degree cap {hp.degree_cap}$"
    with pytest.raises(HopfError, match=message):
        fn(hp, above)
    assert m not in images
    images[m]
    with pytest.raises(HopfError, match=message):
        fn(hp, above)


MEMO_PRESETS = [
    # (preset, the top degree of the basis monomials checked)
    pytest.param(lambda: dual_steenrod(2, 4), 20, id="A_dual(2,4)"),
    pytest.param(lambda: dual_mod_J(3, 2, N=2), 40, id="A_mod_J(3,2)"),
    pytest.param(lambda: level_algebra(3, 1), 130, id="A_angle(3,1)"),
]


@pytest.mark.parametrize("make, top", MEMO_PRESETS)
def test_memoised_maps_match_the_references_cold_and_warm(make, top):
    hp = make()
    alg = hp.algebra
    monos = [alg.pack(e) for d in range(top + 1) for e in component_monomials(alg, d)]
    random.Random(top).shuffle(monos)
    want = {}
    for m in monos:
        x = AlgebraElement(alg, {m: 1})
        want[m] = (ref_coproduct(hp, x), ref_antipode(hp, x), ref_coassociativity_defect(hp, x),
                   ref_counit_defect(hp, x), ref_antipode_defect(hp, x))
    for _ in range(2):  # the memo cold, then warm
        for m in monos:
            x = AlgebraElement(alg, {m: 1})
            got = (coproduct(hp, x), antipode(hp, x), coassociativity_defect(hp, x),
                   counit_defect(hp, x), antipode_defect(hp, x))
            assert got == want[m], alg.exponents(m)
    # a sum with coefficients other than 1 where p allows
    rng = random.Random(1)
    terms = {m: rng.randrange(1, hp.p) for m in monos[:6]}
    assert hp.p == 2 or set(terms.values()) != {1}
    x = AlgebraElement(alg, terms)
    mu, iota = TensorElement.of(alg.zero(), alg.zero()), alg.zero()
    for m, c in terms.items():
        mu, iota = mu + want[m][0].scale(c), iota + want[m][1].scale(c)
    assert coproduct(hp, x) == mu and antipode(hp, x) == iota
    # a map of a monomial hands out its memoised image's own terms; the
    # additive operations, switch and the defects act on them
    for m in monos:
        x = AlgebraElement(alg, {m: 1})
        mu, iota = coproduct(hp, x), antipode(hp, x)
        assert mu.terms is hp._coproducts[m].terms
        assert iota.terms is hp._antipodes[m].terms
        for y in (mu, iota):
            assert (y - y).is_zero() and y + y == y.scale(2) and (-y).scale(-1) == y
        assert switch(switch(mu)) == mu
        coassociativity_defect(hp, x), counit_defect(hp, x), antipode_defect(hp, x)
    # no caller changed an image it was handed
    fresh = make()
    assert fresh == hp and not vars(fresh).keys() & set(MEMOISED.values())
    for name in MEMOISED.values():
        for m, image in getattr(hp, name).items():
            assert image == getattr(fresh, name)[m]


@pytest.mark.parametrize("make", [lambda: dual_mod_J(3, 2, N=2), lambda: level_algebra(2, 2, N=2)],
                         ids=["A_mod_J(3,2)", "A_angle(2,2)"])
def test_each_generator_map_is_asked_once_per_presentation(make, monkeypatch, cold_caches):
    # the generator maps, counted where a memo asks them: antipode_gen's
    # recursion into itself is not an ask
    asks, depth = {}, [0]

    def counted(full):
        def ask(hp_, name):
            if not depth[0]:
                asks[full.__name__, name] = asks.get((full.__name__, name), 0) + 1
            depth[0] += 1
            try:
                return full(hp_, name)
            finally:
                depth[0] -= 1
        return ask

    for name in ("coproduct_gen", "antipode_gen"):
        monkeypatch.setattr(hopf, name, counted(getattr(hopf, name)))
    hp = make()
    alg = hp.algebra
    top = min(40, hp.degree_cap)
    monos = [alg.monomial(e) for d in range(top + 1) for e in component_monomials(alg, d)]
    augmentation = [alg.gen(g) for g in hp.gen_names()]

    def run():
        for x in monos:
            coproduct(hp, x), antipode(hp, x)
            coassociativity_defect(hp, x), counit_defect(hp, x), antipode_defect(hp, x)
        assert check_hopf_ideal(hp, augmentation) == (True, None)

    run()
    assert asks and set(asks.values()) == {1}
    assert {name for _, name in asks} == set(hp.gen_names())
    cold = dict(asks), len(hp._coproducts), len(hp._antipodes)
    run()  # warm: no ask, and neither memo grows
    assert (asks, len(hp._coproducts), len(hp._antipodes)) == cold


# -- images built from their memoised divisors ----------------------------------

IMAGE_PRESETS = {
    "A_dual": lambda p: dual_steenrod(p, N=2, D=6 * p**2),
    "A_angle(1)": lambda p: level_algebra(p, 1, N=2),
    "A_angle(2)": lambda p: level_algebra(p, 2, N=2),
    "A_mod_J(1)": lambda p: dual_mod_J(p, 1, N=2),
}

# the most factors of a drawn monomial: the references multiply them out one
# at a time
FACTORS = 30


@st.composite
def basis_monomials(draw):
    """A new preset, so its memo is cold, at p = 2, 3 or 5, and up to six
    distinct basis monomials of it in drawn order.  Each exponent is drawn up
    to its generator's cap - 1, as far as the degree cap and FACTORS allow,
    so that powers have several non-zero base-p digits."""
    hp = IMAGE_PRESETS[draw(st.sampled_from(sorted(IMAGE_PRESETS)))](draw(st.sampled_from([2, 3, 5])))
    alg = hp.algebra
    monos = []
    for _ in range(draw(st.integers(1, 6))):
        exps, degree, factors = [0] * alg.ngens, hp.degree_cap, FACTORS
        for i in draw(st.permutations(range(alg.ngens))):
            g = alg.generators[i]
            exps[i] = draw(st.integers(0, min(g.cap - 1, degree // g.degree, factors)))
            degree, factors = degree - exps[i] * g.degree, factors - exps[i]
        m = alg.pack(exps)
        if m not in monos:
            monos.append(m)
    return hp, monos


def _packed(hp, *monos):
    alg = hp.algebra
    return hp, [alg.pack([exps.get(g.name, 0) for g in alg.generators]) for exps in monos]


@given(basis_monomials(), st.integers(0, 10**6))
# x1^24 = (44)_5, then x1^13 x2^6 and x1^11 x2^3 t0, which share divisors with it
@example(_packed(dual_mod_J(5, 1, N=2), {"x1": 24}, {"x1": 13, "x2": 6}, {"t0": 1, "x1": 11, "x2": 3}), 0)
# z1^6 z2^2 at shift 2, and x1^4 = (11)_3 at shift 1
@example(_packed(level_algebra(2, 2, N=2), {"z1": 6, "z2": 2}, {"z1": 5}), 1)
@example(_packed(level_algebra(3, 1, N=2), {"t0": 1, "x1": 4}, {"x1": 4}), 2)
def test_images_built_from_divisors_match_the_factor_by_factor_products(case, seed):
    hp, monos = case
    alg = hp.algebra
    one = TensorElement.of(alg.one(), alg.one())
    want = {
        m: (ref_extend_monomial(alg, m, lambda name: hopf.coproduct_gen(hp, name), one),
            ref_extend_monomial(alg, m, lambda name: hopf.antipode_gen(hp, name), alg.one()))
        for m in monos
    }
    for _ in range(2):  # the memo cold, then warm
        for m in monos:
            got = hp._coproducts[m], hp._antipodes[m]
            assert got == want[m], alg.exponents(m)
    # an assignment's memo lives for one call, filled in the order of x's terms
    phi = random_assignment(random.Random(seed), hp, alg)
    x = AlgebraElement(alg, {m: 1 + i % (hp.p - 1) for i, m in enumerate(monos)})
    assert phi.eval(x) == ref_eval(phi, x)


def test_a_monomial_of_more_pieces_than_the_recursion_limit_is_built_by_a_loop():
    # z1^(2^1500 - 1) has 1500 non-zero binary digits, so 1500 pieces, each
    # one product from its divisor's image
    hp = dual_steenrod(2, 1, 2**1600)
    target = mk_algebra(2, [("z", 1, 2**1600)])
    phi = GeneratorAssignment(hp, target, {"z1": target.gen("z")})
    e = 2**1500 - 1
    assert e.bit_count() > sys.getrecursionlimit()
    assert phi.eval(hp.xi(1, e)) == target.gen("z", e)


def test_equal_presentations_keep_separate_memos(monkeypatch):
    a, b = H2(), H2()
    assert a == b and hash(a) == hash(b)
    z2 = a.algebra.gen("z2")
    assert coassociativity_defect(a, z2) == {}
    assert len(a._coproducts) > 1 and not vars(b).keys() & set(MEMOISED.values())
    # the generator caches are still shared
    assert hopf.coproduct_gen(b, "z2") is hopf.coproduct_gen(a, "z2")
    full = hopf.coproduct_gen
    dropped = TensorElement.of(z2, a.algebra.one())
    monkeypatch.setattr(
        hopf, "coproduct_gen", lambda hp_, name: full(hp_, name) - dropped if name == "z2" else full(hp_, name)
    )
    # b, first used under the patch, sees it; a keeps the images it computed
    w, z1 = b.algebra.width, b.algebra.pack((1, 0, 0))
    assert coassociativity_defect(b, z2) == {b.algebra.pack((2, 0, 0)) << 2 * w | z1 << w: 1}
    assert coassociativity_defect(a, z2) == {}


def _presets(p, N):
    """(preset, whether no cap kills an antipode term) at bound N, levels 0..2;
    level 0 of `level_algebra` is `dual_steenrod`."""
    yield milnor_quotient(p, N), False
    if p != 2:
        yield milnor_quotient_ev(p, N), False
    for k in range(3):
        yield level_algebra(p, k, N), True
        yield level_mod_I(p, k, N), False
        yield dual_mod_J(p, k, N), False


@pytest.mark.parametrize("p", [2, 3, 5])
@pytest.mark.parametrize("N", range(8))
def test_work_counts_the_generator_antipode_terms(p, N):
    # Milnor's conjugation has one term per composition of n; a cap can
    # only kill terms, so the count bounds every quotient's antipodes
    for hp, exact in _presets(p, N):
        terms = sum(len(antipode_gen(hp, g).terms) for g in hp.gen_names())
        words = terms * ((hp.algebra.width + 63) // 64)
        assert hp.work() == words if exact else hp.work() >= words, hp.label


def test_work_weighs_each_term_by_its_packed_words():
    # a huge D widens every field: refused at N = 7, where the default D
    # is admitted up to N = 13
    assert dual_steenrod(3, 7, 10**1000).work() > 100000 >= dual_steenrod(3, 13).work()


@pytest.mark.parametrize("p, N", [(2, 16), (3, 14), (5, 14)])
def test_hopf_laws_hold_past_the_default_refusal_bound(p, N):
    # the first N that the hopf command refuses at the default STEENROD_LIMIT,
    # each checked here in about half a second
    hp = dual_steenrod(p, N)
    assert hp.work() > 100000 >= dual_steenrod(p, N - 1).work()
    assert list(axiom_counterexamples(hp)) == []
