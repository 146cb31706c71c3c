"""Seeded random generation of homogeneous elements, group elements, and
generator assignments.

All sampling goes through an explicit random.Random instance so that every
report is reproducible from its seed.  A component is sampled uniformly, one
independent uniform residue per basis monomial, so it must be finite: an
infinite one raises EnumerationError.
"""

from __future__ import annotations

import functools
import random

from .algebra import (
    AlgebraElement,
    AlgebraPresentation,
    component,
    times_eps,
)
from .group import GroupElement, coeff_degree
from .hopf import GeneratorAssignment, HopfPresentation


@functools.lru_cache(maxsize=64)
def _monos(pres: AlgebraPresentation, d: int, eps_free: bool) -> tuple:
    """The packed basis monomials of the degree-d component, only those
    without eps if eps_free."""
    return tuple(component(pres, d, eps_free))


def random_homogeneous(
    rng: random.Random,
    pres: AlgebraPresentation,
    d: int,
    eps_free: bool = False,
) -> AlgebraElement:
    """Uniform element of the degree-d component; EnumerationError if it is infinite."""
    terms = {}
    for m in _monos(pres, d, eps_free):
        c = rng.randrange(pres.p)
        if c:
            terms[m] = c
    return AlgebraElement(pres, terms)


def random_group_element(
    rng: random.Random,
    p: int,
    k: int,
    algebra: AlgebraPresentation,
    level: int = 0,
    zero_prefix: int = 0,
) -> GroupElement:
    """Random element of the order-k truncated group of the given flavor.

    zero_prefix forces alpha_1..alpha_zero_prefix to vanish (for commutator
    case hypotheses).
    """
    one = algebra.one()
    if p == 2 or level >= 2:
        head = one
    else:
        head = one + times_eps(random_homogeneous(rng, algebra, 1, eps_free=True))
    coeffs = [head]
    for i in range(1, k + 1):
        if i <= zero_prefix:
            coeffs.append(algebra.zero())
            continue
        coeffs.append(random_homogeneous(rng, algebra, coeff_degree(p, level, i), eps_free=level != 0))
    return GroupElement(p, k, level, algebra, tuple(coeffs))


def random_assignment(
    rng: random.Random,
    hp: HopfPresentation,
    target: AlgebraPresentation,
) -> GeneratorAssignment:
    """Random degree-preserving assignment of target values to the generators."""
    values = {}
    for g in hp.algebra.generators:
        v = random_homogeneous(rng, target, g.degree)
        if not v.is_zero():
            values[g.name] = v
    return GeneratorAssignment(hp, target, values)
