import itertools

import pytest

from steenrodgroup import grouptheory
from steenrodgroup.algebra import eps_reduce, mk_algebra
from steenrodgroup.group import (
    TOP,
    GroupElement,
    coeff_degree,
    compose,
    filtration_level,
    identity,
    invert_recursive,
    is_identity,
    pi_ev,
)
from steenrodgroup.grouptheory import (
    SWEEP_GRID,
    GroupTheoryError,
    check_filtration_bounds,
    derived_series,
    enumerate_group,
    ev_subgroup_series,
    lower_central_series,
    size_limit,
)
from steenrodgroup.hopf import milnor_quotient

from group_oracle import Oracle, compare, expand, normal_closure, subgroup_closure


def G21():
    return enumerate_group(mk_algebra(2, [("z1", 1, 2)]), 1, 2)


def G22():
    return enumerate_group(milnor_quotient(2, 2).algebra, 2, 2)


def G31():
    return enumerate_group(milnor_quotient(3, 1).algebra, 1, 3)


def oracle(p, n):
    """The oracle's enumeration of the order-n group over milnor_quotient(p, n)."""
    return Oracle(milnor_quotient(p, n).algebra, n, p)


# -- orders --------------------------------------------------------------------


def test_order_two_group():
    G = G21()
    assert G.order == 2
    assert lower_central_series(G).length == 1  # abelian


def test_order_eight_group():
    G = G22()
    assert G.order == 8
    rep = lower_central_series(G)
    assert rep.length == 1
    assert rep.sizes[0] == 8


def test_order_81_group_class_2():
    G = G31()
    assert G.order == 81
    rep = lower_central_series(G)
    assert rep.length == 2
    assert rep.sizes == [81, 3, 1]
    assert rep.ok is True


def test_trivial_group():
    G = enumerate_group(mk_algebra(2, [("z1", 1, 2)]), 0, 2)
    assert G.order == 1
    assert lower_central_series(G).length == 0


def test_coefficient_constraints_g22():
    # alpha_1 ranges over the degree-1 component {0, z1}, alpha_2 over the
    # degree-3 component span{z1^3, z2}; alpha_i^(2^(n-i+1)) = 0 holds for all
    G = oracle(2, 2)
    alg = G.algebra
    firsts = {g.coeffs[1].key() for g in G.elements}
    seconds = {g.coeffs[2].key() for g in G.elements}
    assert len(firsts) == 2 and len(seconds) == 4
    for g in G.elements:
        assert g.coeffs[0] == alg.one()
        assert (g.coeffs[2] * g.coeffs[2]).is_zero()


# -- Cayley-table oracle ---------------------------------------------------------

# (algebra, p, n, order) of the groups checked against a brute-force Cayley
# table: the sweep groups, the order-128 group, and one of class 3 whose lower
# central and derived series differ (sizes 64, 4, 2, 1 and 64, 4, 1)
ORACLE_GROUPS = [
    pytest.param(milnor_quotient(p, n).algebra, p, n, order, id=f"p{p}-n{n}")
    for p, n, order in [(2, 1, 2), (2, 2, 8), (3, 0, 3), (3, 1, 81), (2, 3, 128)]
]
ORACLE_GROUPS.append(
    pytest.param(mk_algebra(2, [("a", 1, 2), ("b", 1, 8)]), 2, 3, 64, id="p2-n3-class3")
)


def brute_lower_central(table, inverse, members):
    """Lower central series of the group on members, from its Cayley table."""

    def comm(i, j):
        return table[table[inverse[i]][inverse[j]]][table[i][j]]

    def closure(seed):
        out = set(seed)
        while True:
            more = {table[a][b] for a in out for b in out} - out
            if not more:
                return out
            out |= more

    one = table[0][inverse[0]]
    chain = [set(members)]
    while len(chain[-1]) > 1:
        nxt = closure({one} | {comm(h, g) for h in chain[-1] for g in members})
        if nxt == chain[-1]:
            break
        chain.append(nxt)
    return chain, comm, closure


@pytest.mark.parametrize("A, p, n, order", ORACLE_GROUPS)
def test_series_match_cayley_table_oracle(A, p, n, order):
    G, O = enumerate_group(A, n, p), Oracle(A, n, p)
    assert G.order == O.order == order
    els = O.elements
    at = {g.key(): i for i, g in enumerate(els)}
    table = [[at[compose(a, b).key()] for b in els] for a in els]
    inverse = [at[invert_recursive(g).key()] for g in els]
    one = at[identity(p, n, G.algebra).key()]
    every = set(range(order))
    assert all(set(row) == every for row in table)
    assert all({row[j] for row in table} == every for j in range(order))
    assert all(table[i][inverse[i]] == one == table[inverse[i]][i] for i in every)
    assert O.identity_index == one
    assert [O.inv(i) for i in range(order)] == inverse

    def keys(S):
        return {els[i].key() for i in S}

    def terms(rep):
        """The elements of each chain term, expanded from its pcgs."""
        return [keys(expand(O, H)) for H in rep.chain]

    lcs, comm, closure = brute_lower_central(table, inverse, every)
    assert terms(lower_central_series(G)) == [keys(H) for H in lcs]

    derived = [every]
    while len(derived[-1]) > 1:
        nxt = closure({one} | {comm(h, k) for h in derived[-1] for k in derived[-1]})
        if nxt == derived[-1]:
            break
        derived.append(nxt)
    assert terms(derived_series(G)) == [keys(H) for H in derived]

    if p != 2:
        ev = {i for i, g in enumerate(els) if pi_ev(g) == g and g.coeffs[0] == O.algebra.one()}
        brute = brute_lower_central(table, inverse, ev)[0]
        rep = ev_subgroup_series(A, n, p)
        assert terms(rep)[0] == keys(ev)
        assert terms(rep) == [keys(H) for H in brute]


# every group up to order 2401: the sweep grid, the order-128 group, the
# orders 625 and 2401, and the class-3 group
DIFFERENTIAL_GROUPS = [
    pytest.param(milnor_quotient(p, n).algebra, p, n, id=f"p{p}-n{n}")
    for p, n in SWEEP_GRID + ((2, 3), (5, 1), (7, 1))
]
DIFFERENTIAL_GROUPS.append(pytest.param(mk_algebra(2, [("a", 1, 2), ("b", 1, 8)]), 2, 3, id="p2-n3-class3"))


@pytest.mark.parametrize("A, p, n", DIFFERENTIAL_GROUPS)
def test_pcgs_matches_the_enumeration_oracle(A, p, n):
    compare(A, n, p)


@pytest.mark.parametrize("A, p, n", DIFFERENTIAL_GROUPS)
def test_pcgs_closures_match_the_enumeration_oracle(A, p, n):
    # the subgroup and the normal closure of each generator and of each pair:
    # small seeds whose closures need the p-th powers, the commutators of the
    # rows and the conjugates that the series seeds may not
    G, O = enumerate_group(A, n, p), Oracle(A, n, p)
    r = len(G.gens)
    for seed in [(i,) for i in range(r)] + list(itertools.combinations(range(r), 2)):
        elements = [G.gens[i] for i in seed]
        indices = [O.find(g) for g in elements]
        for normal, members in ((False, subgroup_closure(O, indices)), (True, normal_closure(O, indices)[1])):
            rows = grouptheory._close(G, {}, elements, normal)
            assert len(members) == p ** len(rows)
            assert expand(O, [row.element for row in rows.values()]) == members, (seed, normal)


@pytest.mark.parametrize("A, p, n, order", ORACLE_GROUPS)
def test_filtration_level_sets_are_subgroups(A, p, n, order):
    # {g : filtration_level(g) >= s} is closed under products and inverses
    # for every level s that occurs, so a bound holds on a subgroup exactly
    # when it holds on its generators
    O = Oracle(A, n, p)
    level = [filtration_level(g) for g in O.elements]
    for s in set(level) - {TOP}:
        members = [i for i in range(O.order) if level[i] >= s]
        assert all(level[O.inv(i)] >= s for i in members)
        assert all(level[O.mul(i, j)] >= s for i in members for j in members)
    # the least level on each series term is the least on its pcgs
    G = enumerate_group(A, n, p)
    for rep in (lower_central_series(G), derived_series(G)):
        for H in rep.chain[1:]:
            least = min((level[i] for i in expand(O, H) if i != O.identity_index), default=TOP)
            assert min((filtration_level(h) for h in H), default=TOP) == least


def count_series_passes(monkeypatch) -> list:
    """Count every group-law entry grouptheory makes, in series passes: one
    per `compose` and `_divide`, three per `commutator`."""
    passes = []
    for name, cost in (("compose", 1), ("_divide", 1), ("commutator", 3)):
        def counted(*args, real=getattr(grouptheory, name), cost=cost):
            passes.append(cost)
            return real(*args)

        monkeypatch.setattr(grouptheory, name, counted)
    return passes


def test_series_at_order_32768_compose_fewer_than_an_eighth_of_the_elements(monkeypatch):
    passes = count_series_passes(monkeypatch)
    G = enumerate_group(milnor_quotient(2, 4).algebra, 4, 2)
    assert lower_central_series(G).sizes == [32768, 16, 2, 1]
    assert derived_series(G).sizes == [32768, 16, 1]
    assert sum(passes) < G.order / 8


# (p, n): the orders of the lower central series, the class, the orders of
# the derived series and of the eps-free lower central series, as exponents
# of p, for groups past the default limit
ABOVE_LIMIT = {
    (2, 5): ([34, 13, 5, 1, 0], 4, [34, 13, 0], None),
    (3, 3): ([27, 12, 5, 1, 0], 4, [27, 12, 0], [7, 1, 0]),
    (5, 2): ([10, 4, 1, 0], 3, [10, 4, 0], [3, 0]),
    (7, 2): ([10, 4, 1, 0], 3, [10, 4, 0], [3, 0]),
}


@pytest.mark.parametrize("p,n", sorted(ABOVE_LIMIT))
def test_series_of_groups_above_the_default_limit(monkeypatch, p, n):
    monkeypatch.setenv("STEENROD_LIMIT", str(10**50))
    lower, cls, derived, ev = ABOVE_LIMIT[p, n]
    A = milnor_quotient(p, n).algebra
    G = enumerate_group(A, n, p)
    rep = lower_central_series(G)
    assert (rep.sizes, rep.length, rep.ok) == ([p**e for e in lower], cls, True)
    assert derived_series(G).sizes == [p**e for e in derived]
    assert check_filtration_bounds(G)
    if ev is not None:
        rep = ev_subgroup_series(A, n, p)
        assert (rep.sizes, rep.ok) == ([p**e for e in ev], True)


def test_order_check_catches_a_wrong_law(monkeypatch):
    def lossy(a, b):
        c = compose(a, b)
        top = c.coeffs[:-1] + (c.algebra.zero(),)
        return GroupElement(c.p, c.k, c.level, c.algebra, top)

    monkeypatch.setattr(grouptheory, "compose", lossy)
    with pytest.raises(GroupTheoryError):
        enumerate_group(milnor_quotient(2, 2).algebra, 2, 2)


def test_enumeration_composes_each_element_with_each_generator_once(monkeypatch):
    passes = count_series_passes(monkeypatch)
    G = enumerate_group(milnor_quotient(2, 3).algebra, 3, 2)
    assert G.order == 128 and len(G.gens) == 7
    assert sum(passes) <= G.order * len(G.gens)


def test_table_matches_compose():
    G = oracle(2, 2)
    for i in (0, 3, 5):
        for j in (1, 2, 7):
            k = G.mul(i, j)
            assert compose(G.elements[i], G.elements[j]) == G.elements[k]


def test_subgroup_closure_of_identity():
    G = oracle(2, 2)
    assert subgroup_closure(G, []) == frozenset({G.identity_index})


def test_subgroup_closure_generates_lagrange_divisor():
    G = oracle(3, 1)
    sub = subgroup_closure(G, [1])
    assert G.order % len(sub) == 0
    assert len(sub) > 1


# -- series --------------------------------------------------------------------


def test_derived_series_first_term_matches_gamma_one():
    for G in (G22(), G31()):
        dser = derived_series(G)
        gamma = lower_central_series(G)
        assert dser.chain[1] == gamma.chain[1]


def test_filtration_bounds_hold():
    assert check_filtration_bounds(G22())
    assert check_filtration_bounds(G31())


def test_ev_subgroup_order_and_series():
    rep = ev_subgroup_series(milnor_quotient(3, 1).algebra, 1, 3)
    assert rep.sizes == [3, 1]
    assert rep.length == 1
    assert rep.ok is True


def test_ev_subgroup_requires_odd_prime():
    with pytest.raises(GroupTheoryError):
        ev_subgroup_series(milnor_quotient(2, 2).algebra, 2, 2)


def test_ev_subgroup_series_is_limited_by_its_own_order(monkeypatch):
    # only the order-3 eps-free subgroup is built, not the order-81 group
    monkeypatch.setenv("STEENROD_LIMIT", "4")
    A = milnor_quotient(3, 1).algebra
    assert ev_subgroup_series(A, 1, 3).sizes == [3, 1]
    with pytest.raises(GroupTheoryError):
        enumerate_group(A, 1, 3)
    monkeypatch.setenv("STEENROD_LIMIT", "2")
    with pytest.raises(GroupTheoryError):
        ev_subgroup_series(A, 1, 3)


@pytest.mark.parametrize("p,n,e", [(3, 4, 11), (2, 7, 17), (5, 3, 8)])
def test_limit_refuses_before_the_next_layer_is_enumerated(monkeypatch, p, n, e):
    # the order p^(generators so far) passes the limit inside an early layer,
    # so the top layer's component, the costliest, is never enumerated
    real, degrees = grouptheory.component, []
    monkeypatch.setattr(grouptheory, "component", lambda a, d, eps_free=False: degrees.append(d) or real(a, d, eps_free))
    with pytest.raises(GroupTheoryError, match=rf"group order {p}\^{e} or more is over the limit 100000"):
        enumerate_group(milnor_quotient(p, n).algebra, n, p)
    assert coeff_degree(p, 0, n) not in degrees


def test_level_zero_odd_group_is_elementary_abelian():
    # heads 1 + b*eps only: the group is (A_1, +)
    G = enumerate_group(milnor_quotient(3, 1).algebra, 0, 3)
    assert G.order == 3  # heads 1 + b*eps, b in the degree-1 component span{t0}
    assert lower_central_series(G).length <= 1
    O = Oracle(milnor_quotient(3, 1).algebra, 0, 3)
    for i in range(O.order):
        cube = O.mul(O.mul(i, i), i)
        assert cube == O.identity_index


def test_od_part_has_exponent_p():
    G = oracle(3, 1)
    for g in G.elements:
        if all(eps_reduce(c) == c for c in g.coeffs[1:]) and g.coeffs[0] == G.algebra.one():
            continue
        if g.coeffs[0] != G.algebra.one():
            continue
        if not all(eps_reduce(c).is_zero() for c in g.coeffs[1:]):
            continue
        cube = compose(compose(g, g), g)
        assert is_identity(cube)


# -- limits --------------------------------------------------------------------


def test_size_limit_env(monkeypatch):
    monkeypatch.setenv("STEENROD_LIMIT", "4")
    assert size_limit() == 4
    with pytest.raises(GroupTheoryError):
        enumerate_group(milnor_quotient(3, 1).algebra, 1, 3)
    monkeypatch.setenv("STEENROD_LIMIT", "nope")
    with pytest.raises(GroupTheoryError):
        size_limit()


def test_prime_mismatch_rejected():
    with pytest.raises(GroupTheoryError):
        enumerate_group(milnor_quotient(2, 2).algebra, 2, 3)
