"""The bound of `algebra.Memo` changes what is kept, never a result.

Every per-object memo of the package is a `Memo`; the finite groups keep
none, since each pcgs closure hands the next series term the commutators it
took.  Each result below is computed from fresh presentations and groups at
the default MEMO_LIMIT and again at the limits 0 and 1, where nearly nothing
is kept and every image, power and packed monomial is built again on each
use; the results must agree, and no memo may grow past the limit.
"""

import pytest

from steenrodgroup import algebra, grouptheory
from steenrodgroup.algebra import Memo, mk_algebra
from steenrodgroup.group import invert_closed, invert_split
from steenrodgroup.grouptheory import (
    SWEEP_GRID,
    check_filtration_bounds,
    derived_series,
    ev_subgroup_series,
    finite_group,
    lower_central_series,
)
from steenrodgroup.hopf import axiom_counterexamples, check_hopf_ideal, cocommutativity_defect, dual_mod_J, dual_steenrod
from steenrodgroup.serialize import element_from_obj, element_to_obj, group_from_obj, group_to_obj
from steenrodgroup.verify import generic_points


def _results():
    out = []
    for hp in (dual_steenrod(2, 6), dual_mod_J(3, 2, 3)):
        alg = hp.algebra
        augmentation = [alg.gen(g.name) for g in alg.generators]
        out += [
            list(axiom_counterexamples(hp)),
            cocommutativity_defect(hp),
            check_hopf_ideal(hp, augmentation),
            check_hopf_ideal(hp, [hp.xi(2)]),  # not a Hopf ideal: a witness
        ]
    (a,) = generic_points(3, 4, 1)
    closed = invert_closed(a)
    out += [closed, invert_split(a), group_from_obj(group_to_obj(closed))]
    pres = mk_algebra(2, [("z1", 1, 8), ("z2", 3, 4)])
    cube = pres.power(3)
    out.append((cube, cube.width, cube.factor, cube.copies))
    terms = [{"coeff": 1, "exponents": [e % 9, e % 5]} for e in range(12)]
    x = element_from_obj(pres, terms)
    out += [x, element_to_obj(x), element_from_obj(pres, element_to_obj(x))]
    return out + _group_results(SWEEP_GRID + ((2, 4),))


def _group_results(grid):
    """The series, with their chains, sizes and verdicts, and the filtration
    bounds of each group of the grid, and at odd p its eps-free series."""
    out = []
    for p, n in grid:
        hp, G = finite_group(p, n)
        out += [G.order, lower_central_series(G), derived_series(G), check_filtration_bounds(G)]
        if p != 2:
            out.append(ev_subgroup_series(hp.algebra, n, p))
    return out


@pytest.fixture
def memos(monkeypatch):
    """(made, grown): each Memo made, with the entries it was made with, and
    each Memo that stored an entry, while the fixture is active."""
    made, grown = [], []
    init = Memo.__init__

    def record_init(self, build, items=()):
        init(self, build, items)
        made.append((self, len(self)))

    def record_set(self, key, value):
        grown.append(self)
        dict.__setitem__(self, key, value)

    monkeypatch.setattr(Memo, "__init__", record_init)
    monkeypatch.setattr(Memo, "__setitem__", record_set)
    return made, grown


def test_the_memo_limit_changes_no_result(monkeypatch, memos):
    made, grown = memos
    expected = _results()
    # at the default bound the memos keep more than one entry, so a limit of 1 bites
    assert max(len(memo) for memo in grown) > 1
    for limit in (0, 1):
        made.clear()
        grown.clear()
        monkeypatch.setattr(algebra, "MEMO_LIMIT", limit)
        assert _results() == expected
        kinds = {type(memo).__name__ for memo, _ in made}
        assert kinds == {"Memo", "Images"}
        for memo, seeded in made:
            assert len(memo) <= max(limit, seeded)
        for memo in grown:
            assert len(memo) <= limit
        assert bool(grown) == bool(limit)


def test_a_miss_is_kept_only_below_the_limit(monkeypatch):
    monkeypatch.setattr(algebra, "MEMO_LIMIT", 2)
    calls = []
    squares = Memo(lambda n: calls.append(n) or n * n, {0: 0})
    assert [squares[n] for n in (3, 3, 4, 4)] == [9, 9, 16, 16]
    assert squares == {0: 0, 3: 9} and calls == [3, 4, 4]
    with pytest.raises(TypeError):
        squares["x"]
    assert squares == {0: 0, 3: 9}


def test_the_row_memos_reuse_commutators_across_series_terms(monkeypatch):
    # each closure hands the next series term the commutators it took, so
    # [G, G] and the next bracket of either series take none again: 1295
    # calls for both series at (2, 5), where a memo of [h, generator] alone
    # made 1373; a build and its lower central series make 1295 at (2, 5) and
    # 913 at (3, 3)
    monkeypatch.setenv("STEENROD_LIMIT", str(10**50))
    calls = []
    real = grouptheory.commutator
    monkeypatch.setattr(grouptheory, "commutator", lambda a, b: calls.append(1) or real(a, b))
    (order, *_) = _group_results([(2, 5)])
    assert order == 2**34
    assert len(calls) <= 1295, len(calls)
    for (p, n), most in (((2, 5), 1295), ((3, 3), 913)):
        calls.clear()
        lower_central_series(finite_group(p, n)[1])
        assert len(calls) <= most, (p, n, len(calls))
