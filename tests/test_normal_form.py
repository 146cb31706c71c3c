"""The sparse normal form shared by algebra and tensor elements: every stored
coefficient is a residue in 1..p-1, whatever operation produced the element."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from steenrodgroup.algebra import AlgebraError, adjoin_epsilon, frobenius, mk_algebra
from steenrodgroup.hopf import TensorElement

PRESENTATIONS = {
    2: mk_algebra(2, [("z1", 1, 4), ("z2", 3, 2)]),
    3: adjoin_epsilon(mk_algebra(3, [("t0", 1, 2), ("t1", 5, 2), ("x1", 4, 9)])),
    5: adjoin_epsilon(mk_algebra(5, [("t0", 1, 2), ("x1", 8, 5), ("x2", 48, 2)])),
}


@st.composite
def elements(draw, p):
    """A sum of up to five monomials with arbitrary integer coefficients."""
    pres = PRESENTATIONS[p]
    mono = st.tuples(*[st.integers(0, g.cap - 1) for g in pres.generators])
    x = pres.zero()
    for m, c in draw(st.lists(st.tuples(mono, st.integers(-2 * p, 2 * p)), max_size=5)):
        x = x + pres.monomial(m, c)
    return x


def element_lists(n):
    return st.sampled_from(sorted(PRESENTATIONS)).flatmap(
        lambda p: st.lists(elements(p), min_size=n, max_size=n)
    )


def assert_normal(x):
    p = x.pres.p
    assert all(type(c) is int and 1 <= c <= p - 1 for c in x.terms.values()), x.terms


@given(element_lists(2), st.integers(-12, 12), st.integers(0, 2))
def test_algebra_operations_keep_normal_form(xs, c, j):
    x, y = xs
    for z in (x + y, x - y, -x, x.scale(c), x * y, frobenius(x, j)):
        assert_normal(z)
    assert not (x - x).terms


@given(element_lists(4))
def test_tensor_operations_keep_normal_form(xs):
    a, b, c, d = xs
    s = TensorElement.of(a, b) + TensorElement.of(c, d)
    t = TensorElement.of(b, c) - TensorElement.of(d, a)
    for z in (s, t, s + t, s - t, -s, s * t):
        assert_normal(z)
    assert not (s - s).terms


def test_tensor_addition_across_presentations_raises():
    small = mk_algebra(3, [("t0", 1, 2), ("x1", 4, 3)])
    big = mk_algebra(3, [("t0", 1, 2), ("x1", 4, 9)])
    s = TensorElement.of(small.gen("x1"), small.one())
    t = TensorElement.of(big.gen("x1"), big.one())
    with pytest.raises(AlgebraError):
        s + t
    with pytest.raises(AlgebraError):
        s - t
