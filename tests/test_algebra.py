import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from steenrodgroup.algebra import (
    EPSILON,
    AlgebraError,
    AlgebraPresentation,
    EnumerationError,
    Generator,
    adjoin_epsilon,
    component,
    component_dimension,
    component_monomials,
    enumerate_component,
    eps_part,
    eps_reduce,
    frobenius,
    mk_algebra,
    times_eps,
)
from steenrodgroup.sampling import random_homogeneous
from steenrodgroup.verify import theta_target


def A22():
    # F_2[z1, z2] / (z1^4, z2^2), degrees 1 and 3
    return mk_algebra(2, [("z1", 1, 4), ("z2", 3, 2)])


def A3():
    return adjoin_epsilon(
        mk_algebra(3, [("t0", 1, 2), ("t1", 5, 2), ("x1", 4, 9)])
    )


def random_homog(seed, pres, d):
    return random_homogeneous(random.Random(seed), pres, d)


# -- presentation validation ---------------------------------------------------


def test_non_prime_rejected():
    with pytest.raises(AlgebraError):
        mk_algebra(4, [("a", 1, 2)])


def test_non_integer_cap_rejected():
    # a cap is a field width of the packed monomial, so 4.0 cannot stand in for 4
    with pytest.raises(AlgebraError):
        mk_algebra(2, [("a", 1, 4.0)])


def test_duplicate_names_rejected():
    with pytest.raises(AlgebraError):
        mk_algebra(2, [("a", 1, 2), ("a", 3, 2)])


def test_odd_generator_cap_normalized():
    a = mk_algebra(3, [("t0", 1, 5)])
    assert a.generators[0].cap == 2
    assert a.gen("t0", 2).is_zero()


def test_adjoin_epsilon_p2_is_identity():
    a = mk_algebra(2, [("z1", 1, 2)])
    assert adjoin_epsilon(a) == a


def test_adjoin_epsilon_twice_fails():
    a = mk_algebra(3, [("x1", 4, 3)])
    with pytest.raises(AlgebraError):
        adjoin_epsilon(adjoin_epsilon(a))


@pytest.mark.parametrize(
    "p, eps",
    [(2, Generator(EPSILON, -1, 2)), (3, Generator(EPSILON, 4, 3)), (3, Generator(EPSILON, -1, None)),
     (5, Generator(EPSILON, 1, 2))],
    ids=["at-p2", "degree-4", "capless", "degree-1"],
)
def test_misplaced_eps_is_refused(p, eps):
    with pytest.raises(AlgebraError, match="eps must be adjoined"):
        AlgebraPresentation(p, (Generator("x1", 4, 3), eps))


# -- multiplication ------------------------------------------------------------


def test_eps_squares_to_zero():
    a = A3()
    eps = a.gen("eps")
    assert (eps * eps).is_zero()


def test_odd_generator_squares_to_zero():
    a = A3()
    t0 = a.gen("t0")
    assert (t0 * t0).is_zero()


def test_even_odd_commute_without_sign():
    a = A3()
    assert a.gen("t0") * a.gen("x1") == a.gen("x1") * a.gen("t0")


def test_odd_odd_anticommute():
    a = A3()
    t0, t1 = a.gen("t0"), a.gen("t1")
    assert t0 * t1 == -(t1 * t0)
    assert not (t0 * t1).is_zero()


def test_unit_law():
    a = A22()
    x = a.gen("z1") + a.gen("z2")
    assert a.one() * x == x


@given(st.integers(0, 10**6), st.data())
def test_koszul_commutativity(seed, data):
    a = A3()
    d1 = data.draw(st.integers(0, 8))
    d2 = data.draw(st.integers(0, 8))
    x = random_homog(seed, a, d1)
    y = random_homog(seed + 1, a, d2)
    sign = -1 if (d1 % 2 == 1 and d2 % 2 == 1) else 1
    assert x * y == (y * x).scale(sign)


@given(st.integers(0, 10**6))
def test_associativity_and_distributivity(seed):
    a = A3()
    r = random.Random(seed)
    x = random_homogeneous(r, a, r.randint(0, 8))
    y = random_homogeneous(r, a, r.randint(0, 8))
    z = random_homogeneous(r, a, r.randint(0, 8))
    assert (x * y) * z == x * (y * z)
    assert x * (y + z) == x * y + x * z


# -- frobenius -----------------------------------------------------------------


def test_frobenius_kills_eps_tail():
    a = A3()
    x = a.one() + a.gen("t0") * a.gen("eps")
    assert frobenius(x, 1) == a.one()


def test_frobenius_zero_power_is_identity():
    a = A22()
    x = a.gen("z1") + a.gen("z2")
    assert frobenius(x, 0) == x


def test_frobenius_is_additive_p2():
    a = A22()
    assert frobenius(a.gen("z1") + a.gen("z2"), 1) == a.gen("z1", 2)  # z2^2 = 0


@given(st.integers(0, 10**6))
def test_frobenius_ring_homomorphism(seed):
    a = A3()
    r = random.Random(seed)
    x = random_homogeneous(r, a, r.randint(0, 6))
    y = random_homogeneous(r, a, r.randint(0, 6))
    assert frobenius(x * y, 1) == frobenius(x, 1) * frobenius(y, 1)
    assert frobenius(x + y, 1) == frobenius(x, 1) + frobenius(y, 1)


# -- eps split -----------------------------------------------------------------


@given(st.integers(0, 10**6))
def test_eps_split_reassembles(seed):
    a = A3()
    r = random.Random(seed)
    x = random_homogeneous(r, a, r.randint(0, 6))
    assert eps_reduce(x) + times_eps(eps_part(x)) == x


def test_eps_split_reassembles_with_eps_first():
    # eps * t is -(t * eps): eps moves left past the odd t to reach the front
    a = mk_algebra(3, [(EPSILON, -1, 2), ("t", 1, 2)])
    x = a.gen(EPSILON) * a.gen("t")
    assert eps_part(x) == -a.gen("t")
    assert eps_reduce(x) + times_eps(eps_part(x)) == x


@given(st.integers(0, 10**6))
def test_eps_reduce_is_ring_hom(seed):
    a = A3()
    r = random.Random(seed)
    x = random_homogeneous(r, a, r.randint(0, 6))
    y = random_homogeneous(r, a, r.randint(0, 6))
    assert eps_reduce(x * y) == eps_reduce(x) * eps_reduce(y)


# -- component enumeration -----------------------------------------------------


def test_component_degree_1():
    assert len(enumerate_component(A22(), 1)) == 2  # {0, z1}


def test_component_degree_3():
    a = A22()
    got = enumerate_component(a, 3)
    assert len(got) == 4  # span{z1^3, z2}


def test_empty_component_is_zero_only():
    a = mk_algebra(2, [("z2", 3, 2)])
    assert enumerate_component(a, 2) == [a.zero()]


def test_component_cardinality_is_p_pow_dim():
    a = A3()
    for d in range(0, 7):
        assert len(enumerate_component(a, d)) == 3 ** component_dimension(a, d)


def test_negative_degree_monomials_found():
    a = A3()
    # degree -1 component is spanned by eps
    assert component_monomials(a, -1) == [(0, 0, 0, 1)]


def test_capless_degree_zero_is_rejected():
    a = mk_algebra(2, [("u", 0, None)])
    with pytest.raises(EnumerationError):
        component_monomials(a, 0)


def test_mixed_sign_capless_is_rejected():
    a = mk_algebra(2, [("u", 1, None), ("v", -1, None)])
    with pytest.raises(EnumerationError):
        component_monomials(a, 0)


def huge_caps():
    # x_i of degree 2^i - 1 with caps 2^(2001 - i), most above 2^1100, and a
    # capless y of degree 2
    return mk_algebra(2, [(f"x{i}", 2**i - 1, 2 ** (2001 - i)) for i in range(1, 2001)] + [("y", 2, None)])


def test_component_of_2000_generators_with_huge_caps():
    # the bounds stay exact integers and the walk does not recurse once per generator
    a = huge_caps()

    def support(d):
        return sorted(tuple((i, e) for i, e in enumerate(m) if e) for m in component_monomials(a, d))

    assert support(3) == [((0, 1), (2000, 1)), ((0, 3),), ((1, 1),)]
    assert len(support(7)) == 9
    # every generator can carry degree 1 alone
    flat = mk_algebra(2, [(f"z{i}", 1, 2**1200) for i in range(2000)])
    assert len(component_monomials(flat, 1)) == 2000


def tuple_walk(a, d):
    """The exponent vectors of degree d by a walk over a mutable exponent
    list, each appended as a tuple: the enumeration that `component` replaced."""
    gens = a.generators
    n = len(gens)
    degrees = [g.degree for g in gens]
    tops = [None if g.cap is None else g.cap - 1 for g in gens]
    if None in tops:
        signs = {(deg > 0) - (deg < 0) for deg, top in zip(degrees, tops) if top is None}
        if 0 in signs or len(signs) > 1:
            raise EnumerationError("infinite")
        capped = [top * deg for deg, top in zip(degrees, tops) if top is not None]
        pos, neg = sum(c for c in capped if c > 0), sum(c for c in capped if c < 0)
        tops = [max(0, (d - (neg if deg > 0 else pos)) // deg) if top is None else top
                for deg, top in zip(degrees, tops)]
    order = sorted(range(n), key=degrees.__getitem__)
    suffix_min, suffix_max = [0] * (n + 1), [0] * (n + 1)
    for j in range(n - 1, -1, -1):
        c = tops[order[j]] * degrees[order[j]]
        suffix_min[j] = suffix_min[j + 1] + min(c, 0)
        suffix_max[j] = suffix_max[j + 1] + max(c, 0)
    out, mono = [], [0] * n

    def walk(k, remaining):
        if remaining == 0:
            out.append(tuple(mono))
        for j in range(k, n):
            if not suffix_min[j] <= remaining <= suffix_max[j]:
                return
            i, lo, hi = order[j], suffix_min[j + 1], suffix_max[j + 1]
            deg = degrees[i]
            for e in range(1, tops[i] + 1):
                rest = remaining - e * deg
                if lo <= rest <= hi:
                    mono[i] = e
                    walk(j + 1, rest)
                elif deg > 0 and rest < lo:
                    if e == 1:
                        return  # so does every later generator, of degree >= deg
                    break
                elif deg <= 0 and rest > hi:
                    break
            mono[i] = 0

    walk(0, d)
    return sorted(out)


def agrees_with_the_tuple_walk(a, d):
    try:
        expected = tuple_walk(a, d)
    except EnumerationError:
        for enumerate_ in (component_monomials, component):
            with pytest.raises(EnumerationError):
                enumerate_(a, d)
        return
    assert component_monomials(a, d) == expected
    assert component(a, d) == [a.pack(m) for m in component_monomials(a, d)]
    # eps_free keeps the component's eps-free monomials, as a filter of the tuples did
    eps_free = [m for m in expected if not a.has_epsilon or not m[a.epsilon_index]]
    assert component(a, d, eps_free=True) == [a.pack(m) for m in eps_free]


@settings(max_examples=200)
@given(
    st.sampled_from([2, 3, 5]),
    st.lists(st.tuples(st.integers(-4, 6), st.sampled_from([None, 1, 2, 3, 5])), max_size=9),
    st.booleans(),
    st.integers(-12, 24),
)
def test_component_agrees_with_the_tuple_walk(p, gens, eps, d):
    a = mk_algebra(p, [(f"g{i}", deg, cap) for i, (deg, cap) in enumerate(gens)])
    agrees_with_the_tuple_walk(adjoin_epsilon(a) if eps else a, d)


def test_component_of_2000_generators_agrees_with_the_tuple_walk():
    a = huge_caps()
    for d in (0, 1, 3, 7):
        agrees_with_the_tuple_walk(a, d)
    # 2000 monomials of 300 kB each packed: only the tuples are compared
    flat = mk_algebra(2, [(f"z{i}", 1, 2**1200) for i in range(2000)])
    assert component_monomials(flat, 1) == tuple_walk(flat, 1)


def test_component_costs_what_it_holds():
    # verify's rho_diagram target at p = 13: the walk takes the positive
    # degrees largest first, so it does not try every exponent of the
    # smallest, most highly capped generator before the rest fail (an
    # ascending walk took about 4 s, this one 0.03 s, 2 vCPUs)
    a = theta_target(13)
    start = time.monotonic()
    assert len(component(a, 57096)) == 1181
    assert time.monotonic() - start < 1.0


def test_capless_overflow_raises_in_the_walk():
    # a^(2^32) is past its 32-bit field: the walk refuses it, where the tuple
    # walk handed it on and `pack` refused it one step later
    a = mk_algebra(2, [("a", 1, None)])
    assert component_monomials(a, 2**32 - 1) == [(2**32 - 1,)]
    for enumerate_ in (component, component_monomials):
        with pytest.raises(AlgebraError, match="capless"):
            enumerate_(a, 2**32)
    ab = mk_algebra(2, [("a", 2, None), ("b", 4, 2)])
    with pytest.raises(AlgebraError, match="capless"):
        component(ab, 2**33)
    # at odd degree the walk tries a's exponents past 2^32 - 1 but completes
    # no monomial with them, so nothing is refused
    assert component(ab, 2**33 + 1) == []


def shifted_sum_bias(a, q):
    """frobenius_bias(q) as a sum of shifted fields, lowest first: the
    construction that the one-pass join replaced."""
    return sum(
        (mask + 1 + -(g.cap or mask + 1) // q) << shift
        for g, (shift, mask) in zip(reversed(a.generators), reversed(a.fields))
    )


@settings(max_examples=200)
@given(
    st.sampled_from([2, 3, 5]),
    st.lists(st.tuples(st.integers(-4, 6), st.sampled_from([None, 1, 2, 3, 5, 2**40])), max_size=9),
    st.booleans(),
    st.integers(0, 45),
)
def test_frobenius_bias_is_the_sum_of_its_shifted_fields(p, gens, eps, j):
    a = mk_algebra(p, [(f"g{i}", deg, cap) for i, (deg, cap) in enumerate(gens)])
    a = adjoin_epsilon(a) if eps else a
    assert a.frobenius_bias(p**j) == shifted_sum_bias(a, p**j)
    # the layout's own bias is the bias at q = 1
    assert a.bias == shifted_sum_bias(a, 1)


def test_frobenius_bias_of_2000_generators_is_the_sum_of_its_shifted_fields():
    flat = mk_algebra(2, [(f"z{i}", 1, 2**1200) for i in range(2000)])
    for a in (flat, huge_caps()):
        for q in (1, 2, 2**600, 2**1300):
            assert a.frobenius_bias(q) == shifted_sum_bias(a, q)


def test_random_homogeneous_refuses_an_infinite_component():
    a = mk_algebra(3, [("u", 0, None)])
    with pytest.raises(EnumerationError):
        random_homogeneous(random.Random(0), a, 0)
