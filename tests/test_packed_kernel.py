"""The packed-monomial kernel against the exponent-tuple arithmetic it replaced.

The reference below restates that arithmetic on exponent tuples: monomials
merge by zip, caps kill by comparison, and the Koszul sign counts the odd
factors each odd factor moves past.  Hypothesis draws elements over
presentations at p = 2, 3, 5, with eps last and with eps first, with six odd
generators and with a capless generator; every packed result, read back as
exponent tuples, must equal the reference.
"""

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from steenrodgroup.algebra import (
    CAPLESS_BITS,
    EPSILON,
    AlgebraError,
    AlgebraPresentation,
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
from steenrodgroup.hopf import TensorElement, dual_mod_J, dual_steenrod, milnor_quotient

CAPLESS = adjoin_epsilon(mk_algebra(3, [("a", 2, None), ("t", 1, None), ("b", 4, 3)]))
A_T = CAPLESS.gen("a", 2**31) * CAPLESS.gen("t")  # its square overflows a's field, and t's cap kills it
EPS_FIRST = mk_algebra(3, [(EPSILON, -1, 2), ("t0", 1, 2), ("x1", 4, 9), ("t1", 5, 2)])

PRESENTATIONS = {
    "A_dual(2)": dual_steenrod(2, 3).algebra,
    "A(3) at p=2": milnor_quotient(2, 3).algebra,
    "A_dual(3,5)": dual_steenrod(3, 5).algebra,
    "A(2)[eps] at p=3": adjoin_epsilon(milnor_quotient(3, 2).algebra),
    "A_mod_J(3,1)": dual_mod_J(3, 1).algebra,
    "A_dual(5,2)": dual_steenrod(5, 2).algebra,
    "A(1)[eps] at p=5": adjoin_epsilon(milnor_quotient(5, 1).algebra),
    "capless": CAPLESS,
    "eps first at p=3": EPS_FIRST,
}

# -- the reference: exponent-tuple arithmetic --------------------------------


def ref_mono_mul(pres, m1, m2):
    """(merged tuple, sign), or None if a cap kills the product."""
    merged = tuple(a + b for a, b in zip(m1, m2))
    if any(g.cap is not None and e >= g.cap for e, g in zip(merged, pres.generators)):
        return None
    if pres.p == 2:
        return merged, 1
    odd = [g.degree % 2 == 1 for g in pres.generators]
    inversions = sum(
        1
        for j in range(len(m2))
        for i in range(j + 1, len(m1))
        if odd[j] and m2[j] % 2 and odd[i] and m1[i] % 2
    )
    return merged, (-1) ** inversions


def ref_add(terms, key, c, p):
    v = (terms.get(key, 0) + c) % p
    if v:
        terms[key] = v
    else:
        terms.pop(key, None)


def ref_mul(pres, x, y):
    out = {}
    for m1, c1 in x.items():
        for m2, c2 in y.items():
            hit = ref_mono_mul(pres, m1, m2)
            if hit:
                ref_add(out, hit[0], hit[1] * c1 * c2, pres.p)
    return out


def ref_degree(pres, m):
    return sum(e * g.degree for e, g in zip(m, pres.generators))


def ref_tensor_mul(pres, s, t):
    out = {}
    for (a1, b1), c1 in s.items():
        for (a2, b2), c2 in t.items():
            left, right = ref_mono_mul(pres, a1, a2), ref_mono_mul(pres, b1, b2)
            if left and right:
                sign = left[1] * right[1]
                if ref_degree(pres, b1) % 2 and ref_degree(pres, a2) % 2:
                    sign = -sign
                ref_add(out, (left[0], right[0]), sign * c1 * c2, pres.p)
    return out


def ref_frobenius(pres, x, j):
    q = pres.p**j
    out = {}
    for m, c in x.items():
        scaled = tuple(e * q for e in m)
        if all(g.cap is None or e < g.cap for e, g in zip(scaled, pres.generators)):
            ref_add(out, scaled, c, pres.p)
    return out


def ref_eps_reduce(pres, x):
    i = pres.index(EPSILON)
    return {m: c for m, c in x.items() if m[i] == 0}


def ref_eps_part(pres, x):
    """b with x = eps_reduce(x) + b * eps: in b * eps, eps moves left past
    the odd factors of b after it, one sign each."""
    i = pres.index(EPSILON)
    odd = [g.degree % 2 == 1 for g in pres.generators]
    return {
        m[:i] + (0,) + m[i + 1 :]: c * (-1) ** sum(e for e, o in zip(m[i + 1 :], odd[i + 1 :]) if o) % pres.p
        for m, c in x.items()
        if m[i]
    }


def ref_times_eps(pres, x):
    eps = tuple(int(g.name == EPSILON) for g in pres.generators)
    return ref_mul(pres, x, {eps: 1})


# -- drawing elements ---------------------------------------------------------


def tuples(x):
    return {x.pres.exponents(m): c for m, c in x.terms.items()}


def monomials(pres):
    return st.tuples(*[st.integers(0, 5 if g.cap is None else g.cap - 1) for g in pres.generators])


@st.composite
def element(draw, pres, monos=None):
    """A sum of up to six monomials, built through the public way in."""
    x = pres.zero()
    monos = monomials(pres) if monos is None else monos
    for m, c in draw(st.lists(st.tuples(monos, st.integers(1, pres.p - 1)), max_size=6)):
        x = x + pres.monomial(m, c)
    return x


@st.composite
def tensor(draw, pres):
    s = TensorElement.of(pres.zero(), pres.zero())
    for _ in range(draw(st.integers(0, 4))):
        s = s + TensorElement.of(draw(element(pres)), draw(element(pres)))
    return s


presentations = st.sampled_from(sorted(PRESENTATIONS)).map(PRESENTATIONS.get)
with_eps = st.sampled_from([k for k, a in sorted(PRESENTATIONS.items()) if a.has_epsilon]).map(
    PRESENTATIONS.get
)


# -- the differential tests -----------------------------------------------------


@given(presentations.flatmap(lambda a: st.tuples(element(a), element(a))))
def test_products_and_koszul_signs_match_reference(xy):
    x, y = xy
    assert tuples(x * y) == ref_mul(x.pres, tuples(x), tuples(y))


@given(presentations.flatmap(lambda a: element(a)), st.integers(0, 3))
def test_frobenius_matches_reference(x, j):
    assert tuples(frobenius(x, j)) == ref_frobenius(x.pres, tuples(x), j)


@given(with_eps.flatmap(lambda a: element(a)))
def test_eps_operations_match_reference(x):
    pres, ref = x.pres, tuples(x)
    assert tuples(eps_reduce(x)) == ref_eps_reduce(pres, ref)
    assert tuples(eps_part(x)) == ref_eps_part(pres, ref)
    assert tuples(times_eps(x)) == ref_times_eps(pres, ref)


@given(presentations.flatmap(lambda a: element(a)))
def test_times_eps_is_the_product_with_the_eps_generator(x):
    # times_eps reads eps's monomial from the layout, not from the generator names
    pres = x.pres
    assert times_eps(x) == (x * pres.gen(EPSILON) if pres.has_epsilon else pres.zero())


@given(presentations.flatmap(lambda a: st.tuples(st.just(a), tensor(a), tensor(a))))
def test_tensor_products_match_reference(pst):
    pres, s, t = pst

    def ref(u):
        return {(pres.exponents(a), pres.exponents(b)): c for (a, b), c in u.pairs()}

    assert ref(s * t) == ref_tensor_mul(pres, ref(s), ref(t))


@given(presentations.flatmap(lambda a: st.tuples(st.just(a), monomials(a), monomials(a), monomials(a))))
def test_tensor_power_keys_are_the_hand_packed_triple(pabc):
    pres, *monos = pabc
    cube = pres.power(3)
    assert pres.power(1) is pres and pres.power(3) is cube and cube.factor is pres
    a, b, c = (pres.pack(m) for m in monos)
    w = pres.width
    triple = a << 2 * w | b << w | c
    assert cube.pack(monos[0] + monos[1] + monos[2]) == triple
    assert cube.join({}, {a: 1}, pres.power(2).join({}, {b: 1}, {c: 1}), 2) == {triple: 1}
    assert list(cube.split({triple: 1})) == [((a << w | b, c), 1)]
    x = pres.monomial(monos[1], pres.p - 1)
    assert tuples(cube.inject(x, 1)) == {(0,) * pres.ngens + monos[1] + (0,) * pres.ngens: pres.p - 1}


def test_tensor_power_layout_stays_out_of_equality():
    pres = PRESENTATIONS["A_dual(3,5)"]
    square = pres.power(2)
    twin = AlgebraPresentation(pres.p, square.generators)
    assert [g.name for g in square.generators[pres.ngens:]] == [g.name + "'" for g in pres.generators]
    assert square == twin and hash(square) == hash(twin) and repr(square) == repr(twin)
    assert (square.factor, square.copies, twin.factor, twin.copies) == (pres, 2, twin, 1)
    assert pres.power(0).ngens == 0  # the ground field, the unit of the tensor product


def test_dual_steenrod_3_5_has_six_odd_generators():
    assert PRESENTATIONS["A_dual(3,5)"].odd.bit_count() == 6


@pytest.mark.parametrize("name", sorted(PRESENTATIONS))
def test_pack_round_trip_keeps_order(name):
    pres = PRESENTATIONS[name]
    degrees = sorted({g.degree * e for g in pres.generators for e in range(3)})
    for d in degrees[:12]:
        monos = component_monomials(pres, d)
        packed = [pres.pack(m) for m in monos]
        assert [pres.exponents(m) for m in packed] == monos
        assert packed == sorted(packed) and len(set(packed)) == len(packed)


def test_capless_overflow_raises():
    big = CAPLESS.gen("a", 2**31)
    assert big.terms and tuples(big) == {(2**31, 0, 0, 0): 1}
    with pytest.raises(AlgebraError):
        big * big
    with pytest.raises(AlgebraError):
        frobenius(big, 1)
    with pytest.raises(AlgebraError):
        CAPLESS.monomial((2**32, 0, 0, 0))
    with pytest.raises(AlgebraError):
        TensorElement.of(big, CAPLESS.one()) * TensorElement.of(big, CAPLESS.one())
    # just below the field's top the product survives
    half = CAPLESS.gen("a", 2**31 - 1)
    assert tuples(half * CAPLESS.gen("a", 2**31)) == {(2**32 - 1, 0, 0, 0): 1}


def test_a_cap_kill_comes_before_a_capless_overflow():
    # a^(2^32) outgrows a's field in each product below, but t's cap 2 (b's
    # cap 3) kills the monomial, so the product is zero there and nothing raises
    one = CAPLESS.one()
    assert tuples((one + A_T) * (one + A_T)) == {(0, 0, 0, 0): 1, (2**31, 1, 0, 0): 2}
    assert frobenius(CAPLESS.gen("a", 2**31) * CAPLESS.gen("b"), 1).is_zero()
    assert TensorElement.of(A_T, one) * TensorElement.of(A_T, one) == TensorElement.of(CAPLESS.zero(), one)
    # a^(2^32) b^3 packs to nothing, b's field read after a's overflowed
    assert CAPLESS.pack((2**32, 0, 3, 0)) is None
    assert CAPLESS.monomial((2**32, 0, 3, 0)).is_zero()
    # without the cap kill, all still raise
    with pytest.raises(AlgebraError):
        CAPLESS.pack((2**32, 0, 0, 0))
    with pytest.raises(AlgebraError):
        frobenius(CAPLESS.gen("a", 2**31) * CAPLESS.gen("b") + CAPLESS.gen("a", 2**31), 1)
    with pytest.raises(AlgebraError):
        (one + A_T) * (one + CAPLESS.gen("a", 2**31))


# -- the multiply-accumulate kernels --------------------------------------------
#
# `mul_into` and `join` add into a normal-form dict in place.  The references
# restate each as the steps it replaced: the product (`ref_mul` on exponent
# tuples, packed again), or the generator of joined pairs that `join` was,
# summed into a copy of the target by `accumulate`.


def ref_mul_into(terms, x, y, scale):
    """scale * x * y added into terms.  An exponent that outgrows its capless
    field raises, unless a cap kills the product monomial."""
    pres, x, y = x.pres, tuples(x), tuples(y)
    for m1 in x:
        for m2 in y:
            merged = [a + b for a, b in zip(m1, m2)]
            if not any(g.cap is not None and e >= g.cap for e, g in zip(merged, pres.generators)) and any(
                g.cap is None and e >= 2**CAPLESS_BITS for e, g in zip(merged, pres.generators)
            ):
                raise AlgebraError("capless overflow")
    product = ref_mul(pres, x, y)
    return accumulate(dict(terms), ((pres.pack(m), scale * c) for m, c in product.items()), pres.p)


def ref_join(pres, left, right, j):
    """The pairs (l (x) r, c1 * c2), not reduced mod p, of `join` before it
    added into a dict."""
    shift = j * pres.factor.width
    return ((l << shift | r, c1 * c2) for l, c1 in left.items() for r, c2 in right.items())


def outcome(f):
    """f(), or AlgebraError if it raises one."""
    try:
        return f()
    except AlgebraError:
        return AlgebraError


# the capless generator a drawn at and next to the top of its field, so
# that a product can outgrow it
capless_monomials = st.tuples(
    st.sampled_from([0, 1, 2**31 - 1, 2**31]), st.integers(0, 1), st.integers(0, 2), st.integers(0, 1)
)
kernel_elements = st.one_of(
    presentations.flatmap(lambda a: st.tuples(element(a), element(a), element(a))),
    st.tuples(*[element(CAPLESS, capless_monomials)] * 3),
)


@given(kernel_elements, st.integers(-12, 12), st.sampled_from(["target", "empty", "cancel"]))
# t1 moves left past t0: the Koszul sign
@example((EPS_FIRST.gen("t1"), EPS_FIRST.gen("t0") + EPS_FIRST.gen("x1"), EPS_FIRST.gen("x1")), -1, "target")
# a^(2^32) outgrows its field: raised at scale 0 too, as the product raises
@example((CAPLESS.gen("a", 2**31), CAPLESS.gen("a", 2**31), CAPLESS.gen("t")), 0, "target")
# a^(2^32) t^2 outgrows a's field, but t's cap 2 kills it: (1 + a^(2^31) t)^2
@example((CAPLESS.one() + A_T, CAPLESS.one() + A_T, CAPLESS.gen("b")), 1, "target")
def test_mul_into_matches_the_product_and_accumulate(xyz, scale, start):
    x, y, z = xyz
    pres = x.pres
    if start == "empty":
        z = pres.zero()
    elif start == "cancel":  # the target that scale * x * y cancels to nothing
        product = outcome(lambda: x * y)
        z = pres.zero() if product is AlgebraError else product.scale(-scale)
    target, before = dict(z.terms), (dict(x.terms), dict(y.terms))
    want = outcome(lambda: ref_mul_into(z.terms, x, y, scale))
    got = outcome(lambda: mul_into(target, pres, x.terms, y.terms, scale))
    assert got == want
    if got is not AlgebraError:
        assert got is target
        assert all(0 < c < pres.p for c in got.values())
        if start == "cancel":
            assert got == {}
    assert (x.terms, y.terms) == before


@given(
    presentations.flatmap(lambda a: st.tuples(st.just(a), element(a), tensor(a), element(a), tensor(a))),
    st.sampled_from([(2, 1), (3, 1), (3, 2)]),
    st.sampled_from(["target", "empty", "cancel"]),
    st.booleans(),
)
def test_join_matches_its_generator_form(case, power_j, start, negate):
    pres, x, s, u, t = case
    c, j = power_j
    power = pres.power(c)
    # left over power(c - j), right over power(j)
    left, right = (x.terms if c - j == 1 else s.terms), (u.terms if j == 1 else t.terms)
    if negate:  # coefficients outside 1..p-1, as coassociativity_defect passes
        left = {m: -v for m, v in left.items()}
    if start == "empty":
        target = {}
    elif start == "cancel":
        target = {m: -v % pres.p for m, v in accumulate({}, ref_join(power, left, right, j), pres.p).items()}
    else:  # another pair of the same shapes
        other = (u.terms if c - j == 1 else t.terms), (x.terms if j == 1 else s.terms)
        target = accumulate({}, ref_join(power, *other, j), pres.p)
    want = accumulate(dict(target), ref_join(power, left, right, j), pres.p)
    got = power.join(target, left, right, j)
    assert got is target and got == want
    if start == "cancel":
        assert got == {}
