"""GroupElement as a slotted frozen dataclass.  The module needs neither pytest
nor Hypothesis, so it also runs as a script on an interpreter without them:

    PYTHONPATH=src python tests/test_group_element.py
"""

import dataclasses
import pickle
import random

from steenrodgroup.algebra import mk_algebra
from steenrodgroup.group import GroupElement, GroupError, compose
from steenrodgroup.sampling import random_group_element
from steenrodgroup.verify import group_test_algebra


def elements():
    for p in (2, 3, 5):
        for level in (0, 1):
            yield random_group_element(random.Random(p + level), p, 3, group_test_algebra(p), level)


def test_group_element_is_frozen_and_slotted():
    for g in elements():
        assert not hasattr(g, "__dict__")
        for field in dataclasses.fields(g):
            for change in (lambda: setattr(g, field.name, None), lambda: delattr(g, field.name)):
                try:
                    change()
                except dataclasses.FrozenInstanceError:
                    pass
                else:
                    raise AssertionError(f"changed {field.name}")


def test_group_element_survives_pickle_and_replace():
    for g in elements():
        for h in (pickle.loads(pickle.dumps(g)), dataclasses.replace(g)):
            assert h == g and hash(h) == hash(g)
        # replace goes through the checks
        try:
            dataclasses.replace(g, k=g.k + 1)
        except GroupError as err:
            assert str(err) == "coefficient list must have length k+1"
        else:
            raise AssertionError("replace skipped the checks")


def test_group_element_builds_from_positional_arguments():
    # as perfbench/units.py builds a reference product
    for a in elements():
        b = GroupElement(a.p, a.k, a.level, a.algebra, compose(a, a).coeffs)
        assert b == compose(a, a)
        assert (b.p, b.k, b.level, b.algebra) == (a.p, a.k, a.level, a.algebra)


def test_group_element_refuses_a_coefficient_of_another_algebra():
    # compose would read w^2, packed in B's layout, as y^3 in A's
    A = mk_algebra(2, [("x", 1, 4), ("y", 1, 4)])
    B = mk_algebra(2, [("w", 4, 8)])
    for coeffs in ((B.one(), B.gen("w"), B.zero()), (A.one(), A.gen("x"), B.zero())):
        try:
            GroupElement(2, 2, 0, A, coeffs)
        except GroupError as err:
            assert str(err) == "a coefficient belongs to another algebra"
        else:
            raise AssertionError("took a coefficient of another algebra")
    # an equal presentation built apart is the same algebra
    twin = mk_algebra(2, [("x", 1, 4), ("y", 1, 4)])
    g = GroupElement(2, 2, 0, A, (twin.one(), twin.gen("y"), A.zero()))
    h = GroupElement(2, 2, 0, A, (A.one(), A.gen("y"), A.zero()))
    assert compose(g, g) == compose(h, h)


if __name__ == "__main__":
    for name, test in list(globals().items()):
        if name.startswith("test_"):
            test()
            print("ok", name)
