import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from steenrodgroup import group
from steenrodgroup.algebra import (
    EPSILON,
    EPSILON_RULE,
    AlgebraElement,
    accumulate,
    adjoin_epsilon,
    component_monomials,
    eps_part,
    eps_reduce,
    frobenius,
    mk_algebra,
    mul_into,
    times_eps,
)
from steenrodgroup.group import (
    BOTTOM,
    TOP,
    GroupElement,
    GroupError,
    commutator,
    commutator_leading,
    compose,
    filtration_level,
    half_quotient,
    identity,
    in_abelian_kernel,
    in_G_od,
    in_Gpn,
    invert_closed,
    invert_recursive,
    invert_split,
    is_identity,
    pi_ev,
    project,
    rho,
    star_inverse,
    star_product,
    zero_prefix_length,
)
from steenrodgroup.hopf import TensorElement, milnor_quotient
from steenrodgroup.partitions import enumerate_compositions
from steenrodgroup.sampling import random_group_element
from steenrodgroup.verify import _sample_with_prefix, group_test_algebra


def alg2():
    return group_test_algebra(2)


def alg3():
    return group_test_algebra(3)


def sample(seed, p=2, k=4, level=0, zero_prefix=0):
    a = alg2() if p == 2 else group_test_algebra(p)
    return random_group_element(random.Random(seed), p, k, a, level, zero_prefix)


# -- worked composition/inverse examples ---------------------------------------


def test_compose_hand_example_p2():
    # over F_2[a]/(a^4): (X + aX^2) o (X + aX^2) = X + a^3 X^4
    A = mk_algebra(2, [("a", 1, 4)])
    g = GroupElement(2, 2, 0, A, (A.one(), A.gen("a"), A.zero()))
    gg = compose(g, g)
    assert gg.coeffs[1].is_zero()
    assert gg.coeffs[2] == A.gen("a", 3)


def test_invert_hand_example_p2():
    A = mk_algebra(2, [("a", 1, 4)])
    g = GroupElement(2, 2, 0, A, (A.one(), A.gen("a"), A.zero()))
    inv = invert_recursive(g)
    assert inv.coeffs[1] == A.gen("a")
    assert inv.coeffs[2] == A.gen("a", 3)


def test_first_inverse_coefficient_formula():
    # beta_1 = -alpha_0^{-1} alpha_1
    g = sample(5, p=3)
    a0inv = g.algebra.scalar(2) - g.coeffs[0]
    assert invert_recursive(g).coeffs[1] == -(a0inv * g.coeffs[1])


def test_split_inverse_of_pure_head():
    A = adjoin_epsilon(mk_algebra(3, [("c", 1, 2)]))
    head = A.one() + times_eps(A.gen("c"))
    g = GroupElement(3, 1, 0, A, (head, A.zero()))
    inv = invert_split(g)
    assert inv.coeffs[0] == A.one() - times_eps(A.gen("c"))
    assert is_identity(compose(g, inv))


def test_split_inverse_requires_odd_base():
    g = sample(1, p=2)
    with pytest.raises(GroupError):
        invert_split(g)


def test_negative_truncation_is_rejected():
    # k = -1 with no coefficients passed the length check, and
    # invert_recursive then failed with IndexError on the missing head
    with pytest.raises(GroupError):
        GroupElement(3, -1, 0, alg3(), ())


# -- group laws ----------------------------------------------------------------


@given(st.integers(0, 10**6), st.sampled_from([2, 3]), st.integers(0, 4))
def test_associativity(seed, p, k):
    a = sample(seed, p, k)
    b = sample(seed + 1, p, k)
    c = sample(seed + 2, p, k)
    assert compose(compose(a, b), c) == compose(a, compose(b, c))


@given(st.integers(0, 10**6), st.sampled_from([2, 3]))
def test_identity_and_inverse_laws(seed, p):
    g = sample(seed, p)
    e = identity(p, g.k, g.algebra)
    assert compose(e, g) == g
    assert compose(g, e) == g
    assert is_identity(compose(g, invert_recursive(g)))
    assert is_identity(compose(invert_recursive(g), g))


# capless coefficients, as over A_* itself: no Frobenius power vanishes, so a
# composition's product survives at every shift (over the milnor_quotient
# algebras every product with a shift of 4 or more is zero)
CAPLESS = {
    2: mk_algebra(2, [("z1", 1, None)]),
    3: adjoin_epsilon(mk_algebra(3, [("t0", 1, 2), ("x1", 4, None)])),
    5: adjoin_epsilon(mk_algebra(5, [("t0", 1, 2), ("x1", 8, None)])),
}


@given(st.integers(0, 10**6), st.sampled_from([2, 3, 5]), st.integers(0, 8), st.booleans())
def test_inverse_oracles_agree(seed, p, k, capless):
    g = random_group_element(random.Random(seed), p, k, CAPLESS[p]) if capless else sample(seed, p, k)
    r = invert_recursive(g)
    assert invert_closed(g) == r
    if p != 2:
        assert invert_split(g) == r


@given(st.integers(0, 10**6))
def test_inverse_oracles_agree_with_eps_first(seed):
    # the eps-split inverse reads eps_part, which must not assume eps is last
    gens = [(g.name, g.degree, g.cap) for g in milnor_quotient(3, 2).algebra.generators]
    alg = mk_algebra(3, [(EPSILON, -1, 2)] + gens)
    g = random_group_element(random.Random(seed), 3, 4, alg)
    assert invert_split(g) == invert_recursive(g)


# the benchmark's dense coefficient algebras: A(4) at p = 2, A(3)[eps] at p = 3
DENSE = {2: milnor_quotient(2, 4).algebra, 3: adjoin_epsilon(milnor_quotient(3, 3).algebra)}


def dense_element(seed, p, k, level, zeros):
    """alpha_i uniform over its whole graded component, and 0 for i in zeros;
    the head is 1 + b*eps (1 at p = 2 and from level 2 on), and at level 1 the
    alpha_i (i >= 1) are eps-free, as the eps-drop leaves them."""
    rng = random.Random(seed)
    alg = DENSE[p]
    probe = identity(p, k, alg, level)
    coeffs = []
    for i in range(k + 1):
        monos = component_monomials(alg, probe.coeff_degree(i))
        if i == 0 and (p == 2 or level >= 2):
            monos = []
        elif i >= 1 and level >= 1 and alg.has_epsilon:
            monos = [m for m in monos if not m[alg.epsilon_index]]
        c = alg.one() if i == 0 else alg.zero()
        if i not in zeros:
            for m in monos:
                if any(m):
                    c = c + alg.monomial(m, rng.randrange(p))
        coeffs.append(c)
    return GroupElement(p, k, level, alg, tuple(coeffs))


@settings(max_examples=6)
@given(
    st.integers(0, 10**6),
    st.sampled_from([2, 3]),
    st.sampled_from([6, 7, 8]),
    st.sets(st.integers(1, 5), max_size=3),
)
def test_inverse_oracles_agree_on_dense_algebras(seed, p, k, zeros):
    g = dense_element(seed, p, k, 0, zeros)
    r = invert_recursive(g)
    assert is_identity(compose(g, r))
    assert invert_closed(g) == r
    if p != 2:
        assert invert_split(g) == r


@settings(max_examples=6)
@given(
    st.integers(0, 10**6),
    st.sampled_from([2, 3]),
    st.sampled_from([6, 7, 8]),
    st.sets(st.integers(1, 4), max_size=2),
)
def test_closed_inverse_agrees_at_level_one(seed, p, k, zeros):
    g = dense_element(seed, p, k, 1, zeros)
    r = invert_recursive(g)
    assert is_identity(compose(g, r))
    assert invert_closed(g) == r


@pytest.mark.parametrize("invert", [invert_closed, invert_split])
def test_partition_inverses_take_each_frobenius_power_once(monkeypatch, invert):
    calls = []
    frobenius = group.frobenius

    def counting(x, j):
        calls.append(j)
        return frobenius(x, j)

    monkeypatch.setattr(group, "frobenius", counting)
    k = 8
    invert(dense_element(0, 3, k, 0, ()))
    # alpha_m^(p^s) is needed for m >= 1 and m + s <= k only
    assert 0 < len(calls) <= k * (k + 1) // 2


def _live_compositions(heads, tail, k):
    """Compositions of n <= k whose every proper prefix has a non-zero product
    heads[nu(1)] prod_{j >= 2} tail[nu(j)]^(p^sigma(nu)(j)), by brute force."""
    count = 0
    for n in range(1, k + 1):
        for nu in enumerate_compositions(n):
            values = heads[nu.parts[0]]
            for j in range(2, nu.length + 1):
                if not any(x.terms for x in values):
                    break
                values = [x * group.frobenius(tail[nu.parts[j - 1]], nu.sigma(j)) for x in values]
            else:
                count += 1
    return count


@pytest.mark.parametrize("p", [2, 3])
def test_partition_inverses_multiply_once_per_live_composition(monkeypatch, p):
    # one walk of the composition tree: one product per value of each live
    # node, then alpha_0^{-1} (and for split the eps step) once per coefficient
    k = 8
    g = dense_element(0, p, k, 0, ())
    even = [eps_reduce(c) for c in g.coeffs]
    bounds = {invert_closed: _live_compositions([(c,) for c in g.coeffs], g.coeffs, k) + k}
    if p != 2:
        heads = list(zip(even, map(eps_part, g.coeffs)))
        bounds[invert_split] = 2 * _live_compositions(heads, even, k) + 2 * k
    calls = []
    mul = AlgebraElement.__mul__
    monkeypatch.setattr(AlgebraElement, "__mul__", lambda x, y: calls.append(1) or mul(x, y))
    for invert, bound in bounds.items():
        calls.clear()
        invert(g)
        assert 0 < len(calls) <= bound, invert.__name__


def test_a_head_that_is_not_a_unit_is_refused():
    # alpha_0 = 2 over group_test_algebra(3): invert_recursive returned
    # alpha_0 = 0, whose product with the element is not the identity
    A = group_test_algebra(3)
    g = GroupElement(3, 2, 0, A, (A.scalar(2), A.zero(), A.zero()))
    one = identity(3, 2, A)
    refusals = (invert_recursive, invert_closed, invert_split,
                lambda x: commutator(x, one), lambda x: commutator(one, x))
    for refuse in refusals:
        with pytest.raises(GroupError, match=r"^head alpha_0 is not of the form 1 \+ b\*eps"):
            refuse(g)
    # the heads 1 + b*eps pass
    head = A.one() + times_eps(A.gen("t0"))
    h = GroupElement(3, 2, 0, A, (head, A.zero(), A.zero()))
    assert is_identity(compose(h, invert_recursive(h))) and is_identity(commutator(h, one))


# -- commutators ---------------------------------------------------------------


def test_commutator_with_identity_is_identity():
    g = sample(7, p=3)
    assert is_identity(commutator(g, identity(3, g.k, g.algebra)))


def test_od_elements_commute():
    # elements with eps-only coefficients form an abelian subgroup
    A = alg3()
    r = random.Random(11)
    mk = lambda s: _od_element(random.Random(s), A)
    a, b = mk(1), mk(2)
    assert in_G_od(a) and in_G_od(b)
    assert is_identity(commutator(a, b))


def _od_element(r, A, k=3):
    g = random_group_element(r, 3, k, A)
    coeffs = [g.coeffs[0]] + [times_eps(eps_part(c)) for c in g.coeffs[1:]]
    return GroupElement(3, k, 0, A, tuple(coeffs))


def test_od_elements_have_exponent_p():
    A = alg3()
    g = _od_element(random.Random(3), A)
    acc = g
    for _ in range(2):
        acc = compose(acc, g)
    assert is_identity(acc)


def test_case3_predictions_vanish_for_p2():
    a = _sample_with_prefix(random.Random(0), 2, 4, alg2(), 2)
    b = _sample_with_prefix(random.Random(1), 2, 4, alg2(), 1)
    kk, c1, c2 = commutator_leading(a, b, 3)
    assert kk == 2 and c1.is_zero() and c2.is_zero()


def test_case1_first_prediction_formula():
    a, b = sample(21, p=3), sample(22, p=3)
    one = a.algebra.one()
    _, c1, _ = commutator_leading(a, b, 1)
    assert c1 == a.coeffs[1] * (b.coeffs[0] - one) + (one - a.coeffs[0]) * b.coeffs[1]


@given(st.integers(0, 10**5), st.sampled_from([2, 3]), st.sampled_from([1, 2, 3]))
def test_leading_predictions_match_brute_force(seed, p, case):
    r = random.Random(seed)
    A = group_test_algebra(p)
    k = 4
    if case == 1:
        a, b = random_group_element(r, p, k, A), random_group_element(r, p, k, A)
    elif case == 2:
        a = _sample_with_prefix(r, p, k, A, r.randint(1, 2))
        b = _sample_with_prefix(r, p, k, A, 0)
    else:
        ll = r.randint(1, 2)
        a = _sample_with_prefix(r, p, k, A, r.randint(ll, 2))
        b = _sample_with_prefix(r, p, k, A, ll)
    kk, c1, c2 = commutator_leading(a, b, case)
    actual = commutator(a, b)
    assert actual.coeffs[kk + 1] == c1
    assert actual.coeffs[kk + 2] == c2


# -- projections and quotients -------------------------------------------------


def test_project_truncates():
    g = sample(31, p=2, k=3)
    assert project(g, 1).coeffs == g.coeffs[:2]
    assert project(g, g.k) == g
    with pytest.raises(GroupError):
        project(g, g.k + 1)


@given(st.integers(0, 10**6), st.sampled_from([2, 3]))
def test_project_is_homomorphism(seed, p):
    a, b = sample(seed, p), sample(seed + 1, p)
    for k2 in (0, 1, 3):
        assert project(compose(a, b), k2) == compose(project(a, k2), project(b, k2))


def test_half_quotient_idempotent_and_trivial_for_p2():
    g3 = sample(41, p=3)
    assert half_quotient(half_quotient(g3)) == half_quotient(g3)
    g2 = sample(41, p=2)
    assert half_quotient(g2) == g2


@given(st.integers(0, 10**6))
def test_star_product_associative_with_star_inverse(seed):
    A = alg3()
    r = random.Random(seed)
    elems = [half_quotient(random_group_element(r, 3, 3, A)) for _ in range(3)]
    a, b, c = elems
    assert star_product(star_product(a, b), c) == star_product(a, star_product(b, c))
    e = identity(3, 3, A)
    assert star_product(e, a) == a
    assert star_product(a, star_inverse(a)) == e


# -- filtration ----------------------------------------------------------------


def test_filtration_of_identity_is_top():
    assert filtration_level(identity(2, 3, alg2())) == TOP


def test_filtration_bottom_when_head_nontrivial():
    A = alg3()
    g = random_group_element(random.Random(1), 3, 2, A)
    if g.coeffs[0] == A.one():
        g = GroupElement(3, 2, 0, A, (A.one() + times_eps(A.gen("t0")),) + g.coeffs[1:])
    assert filtration_level(g) == BOTTOM


def test_filtration_integer_level_p2():
    A = mk_algebra(2, [("a", 1, 4)])
    g = GroupElement(2, 2, 0, A, (A.one(), A.zero(), A.gen("a", 3)))
    assert filtration_level(g) == Fraction(1)


def test_filtration_half_level_odd_p():
    A = adjoin_epsilon(mk_algebra(3, [("c", 9, 2)]))
    top = times_eps(A.gen("c"))  # in (eps), nonzero
    g = GroupElement(3, 2, 0, A, (A.one(), A.zero(), top))
    assert filtration_level(g) == Fraction(3, 2)


# -- subgroup membership -------------------------------------------------------


def test_identity_in_every_Gpn():
    g = identity(2, 3, alg2())
    for n in range(4):
        assert in_Gpn(g, n)


def test_in_Gpn_example_p2():
    A = mk_algebra(2, [("z1", 1, 4), ("z2", 3, 2)])  # A_2(2)_*
    g = GroupElement(2, 2, 0, A, (A.one(), A.gen("z1"), A.zero()))
    assert in_Gpn(g, 2)
    assert not in_Gpn(g, 0)  # alpha_1 != 0


@given(st.integers(0, 10**6))
def test_pi_ev_homomorphism_and_kernel(seed):
    a, b = sample(seed, p=3), sample(seed + 1, p=3)
    assert pi_ev(compose(a, b)) == compose(pi_ev(a), pi_ev(b))
    assert in_G_od(a) == is_identity(pi_ev(a))


# -- rho and the abelian kernel ------------------------------------------------


def test_rho_of_identity():
    assert is_identity(rho(identity(3, 2, alg3())))


@given(st.integers(0, 10**6), st.sampled_from([2, 3]))
def test_rho_is_homomorphism(seed, p):
    a, b = sample(seed, p), sample(seed + 1, p)
    assert rho(compose(a, b)) == compose(rho(a), rho(b))


def test_rho_raises_level_and_takes_pth_powers():
    A = alg2()
    g = sample(51, p=2, k=3)
    image = rho(g)
    assert image.level == 1
    assert image.coeffs[2] == frobenius(g.coeffs[2], 1)


def test_abelian_kernel_example_p2():
    A = mk_algebra(2, [("z1", 1, 2)])
    g = GroupElement(2, 1, 0, A, (A.one(), A.gen("z1")))
    assert in_abelian_kernel(g)


@given(st.integers(0, 10**5))
def test_abelian_kernel_elements_commute(seed):
    r = random.Random(seed)
    A = mk_algebra(2, [("z1", 1, 2), ("z2", 3, 2)])
    found = []
    while len(found) < 2:
        g = random_group_element(r, 2, 3, A)
        if in_abelian_kernel(g):
            found.append(g)
    assert is_identity(commutator(found[0], found[1]))


def test_zero_prefix_length():
    g = identity(2, 3, alg2())
    assert zero_prefix_length(g) == 3


# -- the eps rule: asked of the data, checked against the prime-forked code ----


def test_odd_p_without_eps_is_refused():
    A = milnor_quotient(3, 2).algebra
    with pytest.raises(GroupError, match="eps must be adjoined"):
        GroupElement(3, 1, 0, A, (A.one(), A.zero()))
    with pytest.raises(GroupError, match="eps must be adjoined"):
        identity(5, 2, milnor_quotient(5, 1).algebra)


# The functions below are the versions that asked `p == 2` whether eps is
# there, kept as references for the versions that ask the algebra.


def ref_compose(a, b):
    alg, p = a.algebra, a.p
    out = []
    drop = a.level == 1 and p != 2
    for i in range(a.k + 1):
        terms: dict = {}
        for j in range(i + 1):
            accumulate(terms, (frobenius(a.coeffs[i - j], j) * b.coeffs[j]).terms.items(), p)
        acc = AlgebraElement(alg, terms)
        if drop and i >= 1:
            acc = eps_reduce(acc)
        out.append(acc)
    return GroupElement(a.p, a.k, a.level, alg, tuple(out))


def ref_invert_recursive(a):
    alg, p = a.algebra, a.p
    drop = a.level == 1 and p != 2
    betas = [alg.scalar(2) - a.coeffs[0]]
    for i in range(1, a.k + 1):
        terms: dict = {}
        for j in range(i):
            accumulate(terms, (frobenius(a.coeffs[i - j], j) * betas[j]).terms.items(), p)
        acc = AlgebraElement(alg, {m: p - c for m, c in terms.items()})
        if drop:
            acc = eps_reduce(acc)
        betas.append(acc)
    return GroupElement(a.p, a.k, a.level, alg, tuple(betas))


def ref_invert_closed(a):
    alg, p = a.algebra, a.p
    sums = group._composition_sums([(c,) for c in a.coeffs], a.coeffs, a.k, p)
    inv0 = alg.scalar(2) - a.coeffs[0]
    drop = a.level == 1 and p != 2
    betas = [inv0]
    for (terms,) in sums[1:]:
        beta = inv0 * AlgebraElement(alg, terms)
        if drop:
            beta = eps_reduce(beta)
        betas.append(beta)
    return GroupElement(a.p, a.k, a.level, alg, tuple(betas))


def ref_half_quotient(a):
    if a.p == 2:
        return a
    coeffs = a.coeffs[:-1] + (eps_reduce(a.coeffs[-1]),)
    return GroupElement(a.p, a.k, a.level, a.algebra, coeffs)


def ref_filtration_level(a):
    if a.coeffs[0] != a.algebra.one():
        return BOTTOM
    for i in range(1, a.k + 1):
        if a.coeffs[i].is_zero():
            continue
        m = Fraction(i - 1)
        if a.p != 2 and eps_reduce(a.coeffs[i]).is_zero():
            return m + Fraction(1, 2)
        return m
    return TOP


def ref_in_G_od(a):
    if a.p == 2:
        return is_identity(a)
    if eps_reduce(a.coeffs[0]) != a.algebra.one():
        return False
    return all(eps_reduce(c).is_zero() for c in a.coeffs[1:])


def ref_rho(a):
    alg = a.algebra
    head = a.coeffs[0] if a.level == 0 else alg.one()
    tail = tuple(eps_reduce(frobenius(c, 1)) for c in a.coeffs[1:])
    return GroupElement(a.p, a.k, a.level + 1, alg, (head,) + tail)


def eps_shaped(seed, p, k, level, zero_prefix, od):
    """A sampled element; with od, its alpha_i (i >= 1) cut down to their
    eps terms, so that it lies in G_od and sits at a half filtration level."""
    g = random_group_element(random.Random(seed), p, k, group_test_algebra(p), level, zero_prefix)
    if od:
        tail = tuple(times_eps(eps_part(c)) for c in g.coeffs[1:])
        g = GroupElement(p, k, level, g.algebra, g.coeffs[:1] + tail)
    return g


@given(
    st.integers(0, 10**6),
    st.sampled_from([2, 3, 5]),
    st.integers(0, 4),
    st.integers(0, 2),
    st.integers(0, 3),
    st.booleans(),
)
def test_eps_rule_from_the_data_matches_the_prime_forks(seed, p, k, level, zero_prefix, od):
    a = eps_shaped(seed, p, k, level, zero_prefix, od)
    b = eps_shaped(seed + 1, p, k, level, 0, False)
    assert half_quotient(a) == ref_half_quotient(a)
    assert in_G_od(a) == ref_in_G_od(a)
    assert rho(a) == ref_rho(a)
    assert compose(a, b) == ref_compose(a, b)
    assert invert_recursive(a) == ref_invert_recursive(a)
    assert invert_closed(a) == ref_invert_closed(a)
    if level == 0:
        # a sampled head is 1 + b*eps, which is BOTTOM; with head 1 the
        # first nonzero alpha_i decides between an integer and a half level
        unit = GroupElement(p, k, 0, a.algebra, (a.algebra.one(),) + a.coeffs[1:])
        for g in (a, unit):
            assert filtration_level(g) == ref_filtration_level(g)



@given(st.integers(0, 10**6), st.sampled_from([2, 3, 5]), st.integers(1, 4))
def test_level_one_group_law_matches_the_prime_forks(seed, p, k):
    # level 1 is where the eps-drop asked the prime
    a = eps_shaped(seed, p, k, 1, 0, False)
    b = eps_shaped(seed + 1, p, k, 1, 0, False)
    assert compose(a, b) == ref_compose(a, b)
    assert invert_recursive(a) == ref_invert_recursive(a)
    assert invert_closed(a) == ref_invert_closed(a)


# -- the triangular solve behind invert_recursive and commutator ---------------


def ref_commutator(a, b):
    """The five-pass commutator: two inverses by the old recursive loop,
    `ref_invert_recursive`, then three composes."""
    return ref_compose(ref_compose(ref_invert_recursive(a), ref_invert_recursive(b)), ref_compose(a, b))


def divide_counting(u, v=None):
    """group._divide(u, v) and the number of Frobenius powers it took."""
    calls = []
    frobenius = group.frobenius
    group.frobenius = lambda x, j: calls.append(j) or frobenius(x, j)
    try:
        return group._divide(u, v), len(calls)
    finally:
        group.frobenius = frobenius


def live_pairs(u, c):
    """The pairs (i, j), j < i, of the solve for c whose u_{i-j} and c_j are both non-zero."""
    return sum(1 for i in range(1, u.k + 1) for j in range(i) if u.coeffs[i - j].terms and c.coeffs[j].terms)


@settings(max_examples=150)
@given(
    st.integers(0, 10**6),
    st.sampled_from([2, 3, 5]),
    st.integers(0, 2),
    st.integers(1, 8),
    st.one_of(st.none(), st.sets(st.integers(1, 8), max_size=3)),
)
def test_divide_matches_the_old_inverse_and_commutator(seed, p, level, k, dense_zeros):
    # The solve gives the old loop's inverse and the five-pass commutator only
    # because every alpha_0 here is 1 + (square-zero): then 2 - alpha_0 is its
    # inverse and alpha_0^(p^i) = 1 for i >= 1, as invert_recursive assumed.
    if dense_zeros is not None and p in DENSE:
        a, b = (dense_element(seed + s, p, k, level, dense_zeros) for s in (0, 1))
    else:
        a, b = (sample(seed + s, p, k, level) for s in (0, 1))
    assert invert_recursive(a) == ref_invert_recursive(a)
    assert commutator(a, b) == ref_commutator(a, b)
    # u^{-1} . (u . c) = c, with one Frobenius power and product per live pair
    c, calls = divide_counting(a, compose(a, b))
    assert c == b
    assert calls == live_pairs(a, c)
    inv, calls = divide_counting(a)
    assert calls == live_pairs(a, inv)


# -- the fixed costs of one group-law call --------------------------------------


def factors(seed, p, level):
    """The coefficients of a sampled element, whose head carries eps at odd
    p, then 0 and 1 of its algebra."""
    g = sample(seed, p, 3, level)
    return list(g.coeffs) + [g.algebra.zero(), g.algebra.one()]


@given(st.integers(0, 10**6), st.sampled_from([2, 3, 5]), st.integers(0, 1))
def test_a_zero_or_unit_factor_multiplies_as_the_kernel_does(seed, p, level):
    # the early exits of `*` give mul_into's terms, in the left factor's class
    xs = factors(seed, p, level)
    square = xs[0].pres.power(2)
    ts = [TensorElement.of(x, y) for x, y in zip(xs, reversed(xs))]
    ts += [TensorElement(square, {}), TensorElement(square, {0: 1}), AlgebraElement(square, {0: 1})]
    for elements in (xs, ts):
        for x in elements:
            for y in elements:
                if x.terms and y.terms and x.terms != {0: 1}:
                    continue
                z = x * y
                assert z.terms == mul_into({}, x.pres, x.terms, y.terms)
                assert type(z) is type(x)


def shaped_head(seed, p, level, k, zero_prefix, od, head):
    """eps_shaped's element with alpha_0 replaced: the sampled 1 + b*eps, 1,
    2, 1 plus an eps-free nilpotent, or 0."""
    g = eps_shaped(seed, p, k, level, zero_prefix, od)
    A = g.algebra
    nilpotent = random_group_element(random.Random(seed), p, 1, A).coeffs[1]
    heads = [g.coeffs[0], A.one(), A.scalar(2), A.one() + eps_reduce(nilpotent), A.zero()]
    return GroupElement(p, k, level, A, (heads[head],) + g.coeffs[1:])


@given(
    st.integers(0, 10**6),
    st.sampled_from([2, 3, 5]),
    st.integers(0, 1),
    st.integers(0, 4),
    st.integers(0, 4),
    st.booleans(),
    st.integers(0, 4),
)
def test_head_predicates_match_the_eps_reduce_restatement(seed, p, level, k, zero_prefix, od, head):
    a = shaped_head(seed, p, level, k, zero_prefix, od, head)
    one = a.algebra.one()
    unit = eps_reduce(a.coeffs[0]) == one
    try:
        group.check_head(a)
        refused = False
    except GroupError:
        refused = True
    assert refused is not unit
    assert in_G_od(a) == (unit and all(eps_reduce(c).is_zero() for c in a.coeffs[1:]))
    assert is_identity(a) == (a.coeffs[0] == one and all(c.is_zero() for c in a.coeffs[1:]))
    if level == 0:
        assert filtration_level(a) == ref_filtration_level(a)


@given(st.integers(0, 10**6), st.sampled_from([2, 3, 5]), st.integers(0, 1), st.integers(0, 5), st.booleans())
def test_divide_solves_compose(seed, p, level, k, inverse):
    # u has an eps-carrying head at odd p, and so has v
    u = eps_shaped(seed, p, k, level, 0, False)
    if inverse:
        assert is_identity(compose(u, group._divide(u)))
    else:
        v = eps_shaped(seed + 1, p, k, level, 0, False)
        assert compose(u, group._divide(u, v)) == v


FAULTS = (
    "truncation k must be >= 0",
    "coefficient list must have length k+1",
    "level must be >= 0",
    "prime of algebra and element disagree",
    EPSILON_RULE,
)


def faulty(faults):
    """GroupElement's arguments at p = 3, with the faults of the given indices into FAULTS."""
    k = -1 if 0 in faults else 1
    if 3 in faults:
        A = milnor_quotient(5, 1).algebra if 4 in faults else group_test_algebra(5)
    else:
        A = milnor_quotient(3, 1).algebra if 4 in faults else group_test_algebra(3)
    coeffs = (A.one(),) * (k + 1 + (1 in faults))
    return 3, k, -1 if 2 in faults else 0, A, coeffs


@pytest.mark.parametrize("first", range(len(FAULTS)))
@pytest.mark.parametrize("alone", [True, False])
def test_group_element_reports_its_first_fault(first, alone):
    faults = {first} if alone else set(range(first, len(FAULTS)))
    if first == 0:
        faults.add(1)  # k = -1 leaves no coefficient list of length k + 1 >= 1
    with pytest.raises(GroupError) as err:
        GroupElement(*faulty(faults))
    assert str(err.value) == FAULTS[first]
    GroupElement(*faulty(set()))
