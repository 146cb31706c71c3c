"""Every `verify` suite can fail: a mutant of one law that a suite reads, patched
in the module that the suite reads it from, makes the suite return a
counterexample."""

import random

import pytest

from steenrodgroup import verify
from steenrodgroup.group import compose, identity, rho
from steenrodgroup.hopf import coproduct, level_algebra, theta
from steenrodgroup.partitions import Composition


def _forgets_to_restrict(real):
    # rho(theta(phi)) against theta(phi) itself, not its restriction
    return lambda phi: rho(theta(phi)) == theta(phi)


def _unswitched_defects(real):
    # mu in place of mu - T mu
    return lambda hp: [(g.name, coproduct(hp, hp.algebra.gen(g.name))) for g in hp.algebra.generators]


def _deficit_on_the_last_part(real):
    # the deficit added to nu's last part, not appended to nu
    return lambda nu, m: Composition(nu.parts[:-1] + (nu.parts[-1] + m - nu.n,))


# (suite, p, the law of steenrodgroup.verify that is broken, its broken
# version built from the real one, the counterexample's keys and the values
# it must hold)
MUTANTS = [
    ("group_axioms", 3, "invert_recursive",
     lambda real: lambda a: real(identity(a.p, a.k, a.algebra, a.level)), {"law": repr("inverse")}),
    ("filtration_bounds", 3, "commutator", lambda real: compose, {"stage_a": "Fraction(-1, 1)"}),
    ("nested_commutators", 3, "commutator", lambda real: compose, {"depth": "1"}),
    # a test one level too strict: G_{p,1} in place of G_{p,2}
    ("subgroup_closure", 3, "in_Gpn", lambda real: lambda a, n: real(a, n - 1), {}),
    # the level algebra in place of its quotient by I<k>
    ("primitivity", 3, "level_mod_I", lambda real: lambda p, k, N: level_algebra(p, k, N), {"preset": "A_mod_I(0)"}),
    # J<1> in place of J<0>
    ("primitivity", 3, "dual_mod_J", lambda real: lambda p, k, N: real(p, k + 1, N), {"preset": "A_mod_J(0)"}),
    ("primitivity", 3, "cocommutativity_defect", _unswitched_defects, {"law": "cocommutativity witness"}),
    ("primitivity", 2, "cocommutativity_defect", _unswitched_defects, {"law": "p=2 cocommutativity defect"}),
    ("rho_diagram", 3, "rho_diagram_check", _forgets_to_restrict, {"k": 0}),
    ("partition_bijection", 2, "extend_F", _deficit_on_the_last_part, {"m": 2}),
    # the compositions that start with 1: a bijection still, but 2^(m-2) of them
    ("partition_bijection", 2, "enumerate_compositions",
     lambda real: lambda n: [c for c in real(n) if c.parts[0] == 1], {"m": 3, "count": 2}),
]


@pytest.mark.parametrize("suite, p, law, breaker, expected", MUTANTS,
                         ids=[f"{suite}-{law}-p{p}" for suite, p, law, _, _ in MUTANTS])
def test_a_suite_returns_a_counterexample_of_a_broken_law(monkeypatch, suite, p, law, breaker, expected):
    monkeypatch.setattr(verify, law, breaker(getattr(verify, law)))
    ce = verify.SUITES[suite](p, 4, random.Random(f"0:{suite}"), 5)
    assert ce is not None
    assert {key: ce[key] for key in expected} == expected

