"""The wire codec's memos against the reader and writer that pack and unpack
every term on its own, and the bounds on the truncation k and the flavor."""

import copy
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from steenrodgroup import algebra, serialize
from steenrodgroup.algebra import AlgebraElement, AlgebraError, accumulate, adjoin_epsilon, mk_algebra
from steenrodgroup.group import MAX_LEVEL, identity, rho
from steenrodgroup.serialize import (
    MAX_WIRE_K,
    SerializeError,
    element_from_obj,
    element_to_obj,
    group_from_obj,
    group_to_obj,
)


def reference_from_obj(pres, obj):
    """The reader without a memo: each term's exponents packed on their own."""
    try:
        pairs = []
        for term in serialize._list(obj, "a term list"):
            if len(term) != 2:
                raise SerializeError(f"a term has the keys coeff and exponents only, not {term!r}")
            exponents, coeff = term["exponents"], serialize._int(term["coeff"], "coeff")
            if not set(map(type, exponents)) <= {int}:
                raise SerializeError(f"exponents must be integers, not {exponents!r}")
            m = pres.pack(exponents)
            if m is not None:
                pairs.append((m, coeff))
        return AlgebraElement(pres, accumulate({}, pairs, pres.p))
    except (KeyError, TypeError) as exc:
        raise SerializeError(f"malformed element: {exc}") from exc


def reference_to_obj(x):
    """The writer without a memo: each term's exponents unpacked on their own."""
    return [{"coeff": c, "exponents": list(x.pres.exponents(m))} for m, c in sorted(x.terms.items())]


# capped, capless and eps presentations, each kept for the whole module so
# that its memos are warm when later examples read it
CAPPED = mk_algebra(2, [("z1", 1, 4), ("z2", 3, 2), ("z3", 7, 3)])
CAPLESS = mk_algebra(2, [("a", 1, None), ("b", 2, 3), ("c", 4, None)])
EPS = adjoin_epsilon(mk_algebra(3, [("x1", 4, 3), ("y", 3, None), ("x2", 12, 5)]))

# 3 and 4 reach some caps; -1 is refused, and 2^32 is past a capless field
ENTRY = st.sampled_from([0, 0, 0, 1, 1, 1, 2, 2, 3, 4])
EDGE = st.sampled_from([-1, 2**32 - 1, 2**32])
# each equal to an int or a sequence of them, and each refused
ALIEN = st.sampled_from([True, False, 1.0, 0.0, None, "1"])


@st.composite
def exponent_vectors(draw, n):
    v = draw(st.lists(ENTRY, min_size=n, max_size=n))
    kind = draw(st.integers(0, 19))
    if kind == 0:
        v.append(draw(ENTRY))  # one entry too many
    elif kind == 1:
        v.pop()  # one entry too few
    elif kind in (2, 3, 4):
        v[draw(st.integers(0, n - 1))] = draw(ALIEN if kind == 2 else EDGE)
    return v


@st.composite
def term_lists(draw, n):
    pool = draw(st.lists(exponent_vectors(n), min_size=1, max_size=4))
    terms = []
    for _ in range(draw(st.integers(0, 8))):
        kind = draw(st.integers(0, 79))
        term = {
            "coeff": draw(ALIEN if kind == 0 else st.integers(-7, 12)),  # outside [0, p) too
            "exponents": list(draw(st.sampled_from(pool))),  # duplicates, each its own list
        }
        if kind == 1:
            term["bogus"] = 1
        elif kind == 2:
            del term["coeff"]
        terms.append(term)
    return terms


def outcome(read, pres, obj):
    try:
        return read(pres, obj)
    except Exception as exc:
        return type(exc), str(exc)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_reader_and_writer_agree_with_the_per_term_codec(data):
    pres = data.draw(st.sampled_from([CAPPED, CAPLESS, EPS]))
    for obj in data.draw(st.lists(term_lists(pres.ngens), min_size=1, max_size=3)):
        got = outcome(element_from_obj, pres, copy.deepcopy(obj))
        assert got == outcome(reference_from_obj, pres, obj)
        if isinstance(got, AlgebraElement):
            written = element_to_obj(got)
            assert written == reference_to_obj(got)
            # each term gets a list of its own: editing one leaves the memo as it was
            for term in written:
                term["exponents"].append(7)
            assert element_to_obj(got) == reference_to_obj(got)
            assert element_from_obj(pres, json.loads(json.dumps(element_to_obj(got)))) == got


def test_a_remembered_vector_does_not_admit_bools_or_floats():
    a = mk_algebra(2, [("z1", 1, 4), ("z2", 3, 2)])
    x = element_from_obj(a, [{"coeff": 1, "exponents": [1, 1]}])
    assert a.wire_packs == {(1, 1): a.pack([1, 1])}
    for alias in ([True, 1], [1.0, 1], [1, True], [1, 1.0]):
        with pytest.raises(SerializeError, match="exponents must be integers"):
            element_from_obj(a, [{"coeff": 1, "exponents": alias}])
    assert element_from_obj(a, [{"coeff": 1, "exponents": [1, 1]}]) == x
    # through a decoded presentation, which the CLI's two elements share
    g = {
        "p": 2,
        "k": 1,
        "flavor": 0,
        "algebra": {"p": 2, "generators": [{"name": "z1", "degree": 1, "cap": 4}, {"name": "z2", "degree": 3, "cap": 2}]},
        "coeffs": [[{"coeff": 1, "exponents": [0, 0]}], [{"coeff": 1, "exponents": [1, 0]}]],
    }
    group_from_obj(g)
    for alias in ([True, 0], [1.0, 0]):
        bad = copy.deepcopy(g)
        bad["coeffs"][1][0]["exponents"] = alias
        with pytest.raises(SerializeError, match="exponents must be integers"):
            group_from_obj(bad)


def test_the_reader_memo_keeps_packs_and_cap_kills_but_no_refusal():
    a = mk_algebra(2, [("z1", 1, 4), ("z2", 3, 2)])
    x = element_from_obj(a, [{"coeff": 1, "exponents": [1, 1]}, {"coeff": 1, "exponents": [0, 2]}])
    assert x == a.monomial([1, 1])
    assert a.wire_packs == {(1, 1): a.pack([1, 1]), (0, 2): None}
    for bad, message in (([-1, 0], "negative"), ([1], "wrong length"), ([1, 0, 0], "wrong length")):
        with pytest.raises(AlgebraError, match=message):
            element_from_obj(a, [{"coeff": 1, "exponents": bad}])
    wide = mk_algebra(2, [("a", 1, None)])
    with pytest.raises(AlgebraError, match="capless"):
        element_from_obj(wide, [{"coeff": 1, "exponents": [2**32]}])
    assert set(a.wire_packs) == {(1, 1), (0, 2)} and wide.wire_packs == {}


def test_the_memos_stop_growing_at_their_limit(monkeypatch):
    monkeypatch.setattr(algebra, "MEMO_LIMIT", 2)
    a = mk_algebra(2, [("z1", 1, 8)])
    terms = [{"coeff": 1, "exponents": [e]} for e in range(5)]
    x = element_from_obj(a, terms)
    assert x == reference_from_obj(a, terms)
    assert element_to_obj(x) == reference_to_obj(x) == terms
    assert len(a.wire_packs) == len(a.wire_exponents) == 2


def test_k_above_the_wire_bound_is_refused_before_any_coefficient(monkeypatch):
    a = mk_algebra(2, [("z1", 1, 4)])
    admitted = group_to_obj(identity(2, MAX_WIRE_K, a))
    assert group_from_obj(admitted).k == MAX_WIRE_K
    calls = []
    monkeypatch.setattr(serialize, "element_from_obj", lambda *args: calls.append(args))
    refused = dict(admitted, k=MAX_WIRE_K + 1, coeffs=admitted["coeffs"] + [[]])
    with pytest.raises(SerializeError, match=f"truncation k = {MAX_WIRE_K + 1} above the wire bound {MAX_WIRE_K}"):
        group_from_obj(refused)
    assert calls == []


def test_the_writer_refuses_the_flavor_that_the_reader_refuses():
    a = mk_algebra(2, [("z1", 1, 4)])
    top = group_from_obj(group_to_obj(identity(2, 1, a, level=MAX_LEVEL)))
    assert top.level == MAX_LEVEL
    past = rho(top)  # the library's rho has no bound
    assert past.level == MAX_LEVEL + 1
    with pytest.raises(SerializeError, match=f"flavor = {MAX_LEVEL + 1} above the level bound {MAX_LEVEL}"):
        group_to_obj(past)
