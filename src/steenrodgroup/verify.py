"""Named property suites over seeded random samples, with counterexamples.

Each suite checks one family of algebraic laws (group axioms, inverse-oracle
agreement, commutator-coefficient predictions, filtration bounds, Hopf axioms,
diagram compatibilities, basis complementarity) and returns its first
counterexample, or None when every sample passes.  `run_suites` turns these
into the report's suite entries, sorted by suite name.

`group_axioms`, `inverse_oracles`, `commutator_leading`, `nested_commutators`
and `homomorphisms` decide each input with one check of it, which returns the
counterexample or None; the acceptance gate calls the first four's checks.
The counterexamples of `group_axioms`, `inverse_oracles`, `commutator_leading`
and `filtration_bounds` carry all of their inputs as wire objects: decoding
them with `serialize.group_from_obj` and calling the check again replays the
failure.  The others do not: `homomorphisms` omits its truncations,
`nested_commutators` its points, `theta_convolution` its assignments, and
`rho_diagram` and `hopf_ideals` report theirs as `repr` strings.  Each ideal
of `hopf_ideals` is the kernel of a `hopf` preset, read off its caps, named
as the paper does: I<0>, I<1>, I(2,n) at p = 2; J<0>, I(p,1), I(p,2) at odd p.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction
from typing import Optional

from .algebra import AlgebraElement, AlgebraPresentation, adjoin_epsilon, component, eps_part, times_eps
from .group import (
    BOTTOM,
    GroupElement,
    coeff_degree,
    commutator,
    commutator_leading,
    commutator_stage,
    compose,
    filtration_level,
    identity,
    in_Gpn,
    in_Gpn_layer,
    invert_closed,
    invert_recursive,
    invert_split,
    is_identity,
    pi_ev,
    project,
    rho,
    zero_prefix_length,
)
from .hopf import (
    HopfPresentation,
    TensorElement,
    axiom_counterexamples,
    check_hopf_ideal,
    cocommutativity_defect,
    convolution,
    default_degree_cap,
    dual_mod_J,
    dual_steenrod,
    level_algebra,
    level_mod_I,
    milnor_quotient,
    primitivity_check,
    rho_diagram_check,
    theta,
    universal_points,
)
from .milnor import DualSymbol, in_J_basis, in_dual_span
from .partitions import enumerate_compositions, extend_F
from .sampling import random_assignment, random_group_element
from .serialize import group_to_obj


def group_test_algebra(p: int) -> AlgebraPresentation:
    """Default coefficient algebra for random group-element tests."""
    n = 3 if p == 2 else 2
    return adjoin_epsilon(milnor_quotient(p, n).algebra)


def _ce_group(**named) -> dict:
    return {k: group_to_obj(v) if isinstance(v, GroupElement) else repr(v) for k, v in named.items()}


# the universal points' inverses take milliseconds at t = 8 and grow steeply with t
GENERIC_TRUNCATION = 8


def generic_points(p: int, k: int, c: int, scale: int = 1) -> tuple[GroupElement, ...]:
    """The universal points of G_p^t, t = min(k, GENERIC_TRUNCATION), over c copies
    of dual_steenrod(p, t) with its degree cap times scale; the samples' alpha_k
    are all zero at odd p, k >= 4."""
    t = min(k, GENERIC_TRUNCATION)
    return universal_points(dual_steenrod(p, t, scale * default_degree_cap(p, t)), c)


def _unit_laws(a: GroupElement) -> Optional[dict]:
    e = identity(a.p, a.k, a.algebra)
    if compose(e, a) != a or compose(a, e) != a:
        return _ce_group(law="identity", a=a)
    if not is_identity(compose(a, invert_recursive(a))):
        return _ce_group(law="inverse", a=a)


def _associativity(a: GroupElement, b: GroupElement, c: GroupElement) -> Optional[dict]:
    if compose(compose(a, b), c) != compose(a, compose(b, c)):
        return _ce_group(law="associativity", a=a, b=b, c=c)


def check_group_axioms(p: int, k: int, rng: random.Random, samples: int) -> Optional[dict]:
    alg = group_test_algebra(p)
    for _ in range(samples):
        a, b, c = (random_group_element(rng, p, k, alg) for _ in range(3))
        ce = _associativity(a, b, c) or _unit_laws(a)
        if ce is not None:
            return ce
    return _unit_laws(*generic_points(p, k, 1)) or _associativity(*generic_points(p, k, 3))


def _inverse_oracles(a: GroupElement) -> Optional[dict]:
    r = invert_recursive(a)
    c = invert_closed(a)
    if r != c:
        return _ce_group(law="closed", a=a, recursive=r, closed=c)
    if a.p != 2:
        s = invert_split(a)
        if r != s:
            return _ce_group(law="split", a=a, recursive=r, split=s)


def check_inverse_oracles(p: int, k: int, rng: random.Random, samples: int) -> Optional[dict]:
    alg = group_test_algebra(p)
    points = (random_group_element(rng, p, k, alg) for _ in range(samples))
    for a in itertools.chain(points, generic_points(p, k, 1)):
        ce = _inverse_oracles(a)
        if ce is not None:
            return ce


def _sample_with_prefix(rng, p, k, alg, want: int) -> GroupElement:
    """Random element whose leading vanishing-coefficient count is exactly want."""
    for _ in range(100):
        a = random_group_element(rng, p, k, alg, zero_prefix=want)
        if zero_prefix_length(a) == want:
            return a
    raise RuntimeError(f"could not sample element with zero prefix {want}")


def _leading_pair(rng, p, k, alg, case: int, top: int) -> tuple[GroupElement, GroupElement]:
    """A random pair of the shape that `group.commutator_leading`'s case
    predicts, each zero prefix drawn from 1..top."""
    if case == 1:
        return random_group_element(rng, p, k, alg), random_group_element(rng, p, k, alg)
    if case == 2:
        return _sample_with_prefix(rng, p, k, alg, rng.randint(1, top)), _sample_with_prefix(rng, p, k, alg, 0)
    ll = rng.randint(1, top)
    return _sample_with_prefix(rng, p, k, alg, rng.randint(ll, top)), _sample_with_prefix(rng, p, k, alg, ll)


def _leading_coefficients(a: GroupElement, b: GroupElement, case: int) -> Optional[dict]:
    kk, c1, c2 = commutator_leading(a, b, case)
    actual = commutator(a, b)
    if actual.coeffs[kk + 1] != c1 or actual.coeffs[kk + 2] != c2:
        return _ce_group(case=case, a=a, b=b, predicted_1=c1, predicted_2=c2, actual=actual)


def check_commutator_leading(p: int, k: int, rng: random.Random, samples: int) -> Optional[dict]:
    alg = group_test_algebra(p)
    k = max(k, 3)
    per_case = max(samples // 3, 1)
    # a zero prefix m needs a non-zero alpha_(m+1): draw m only below the
    # first empty alpha_(m+1) component of alg
    top = 1
    while top < k - 2 and component(alg, coeff_degree(p, 0, top + 2)):
        top += 1
    for case in (1, 2, 3):
        for _ in range(per_case):
            ce = _leading_coefficients(*_leading_pair(rng, p, k, alg, case, top), case)
            if ce is not None:
                return ce


def _filtered_element(rng, p, k, alg, m: Fraction) -> GroupElement:
    """Random element of filtration >= m (integer or half-integer Fraction)."""
    whole = int(m)
    half = m - whole == Fraction(1, 2)
    a = random_group_element(rng, p, k, alg, zero_prefix=min(whole, k))
    coeffs = list(a.coeffs)
    coeffs[0] = alg.one()
    if half and whole + 1 <= k:
        coeffs[whole + 1] = times_eps(eps_part(coeffs[whole + 1]))
    return GroupElement(p, k, 0, alg, tuple(coeffs))


def check_filtration_bounds(p: int, k: int, rng: random.Random, samples: int) -> Optional[dict]:
    """Commutator inclusions between filtration stages, elementwise."""
    alg = group_test_algebra(p)
    k = max(k, 4)
    H = Fraction(1, 2)
    cases = [
        (Fraction(-1), Fraction(-1), H),
        (H, H, Fraction(2)),
        (Fraction(1), Fraction(1), Fraction(3)),
        (Fraction(2), Fraction(2), Fraction(4)),
        (Fraction(1), Fraction(-1), Fraction(1) + H),
        (Fraction(2), Fraction(-1), Fraction(2) + H),
        (H, Fraction(-1), Fraction(1) + H),
        (Fraction(1) + H, Fraction(-1), Fraction(2) + H),
    ]
    per = max(samples // len(cases), 1)

    def draw(m):
        # a BOTTOM stage is the whole group, alpha_0 != 1 included
        return random_group_element(rng, p, k, alg) if m == BOTTOM else _filtered_element(rng, p, k, alg, m)

    for ma, mb, bound in cases:
        for _ in range(per):
            a, b = draw(ma), draw(mb)
            c = commutator(a, b)
            lvl = filtration_level(c)
            if lvl < min(bound, Fraction(k)):
                return _ce_group(stage_a=ma, stage_b=mb, bound=bound, a=a, b=b, commutator=c, level=lvl)


def _nested_commutator(points, ev: bool) -> Optional[dict]:
    """The left-normed commutator of the points, or at odd p of their pi_ev
    images for ev, against the stage of its depth, cut at their truncation."""
    cut = pi_ev if ev else (lambda g: g)
    acc = cut(points[0])
    for b in points[1:]:
        acc = commutator(acc, cut(b))
    depth = len(points) - 1
    lvl, bound = filtration_level(acc), min(commutator_stage(depth, ev), Fraction(acc.k))
    if lvl < bound:
        variant = {"variant": "ev"} if ev else {}
        return _ce_group(depth=depth, **variant, result=acc, level=lvl, bound=bound)


def check_nested_commutators(p: int, k: int, rng: random.Random, samples: int) -> Optional[dict]:
    """Lower-central bound: a depth-d nested commutator sits at stage
    `group.commutator_stage(d)` or above, and at odd p an eps-free one at the
    eps-free stage, each bound cut at the truncation.

    The sampled eps-free commutators come out as the identity up to the
    truncation, so the loop ends at the universal points, where every level
    at odd p below the truncation is exactly its bound."""
    alg = group_test_algebra(p)
    k = max(k, 4)
    per = max(samples // 4, 1)
    variants = (False,) if p == 2 else (False, True)
    for depth in range(1, 5):
        for _ in range(per):
            for ev in variants:
                ce = _nested_commutator([random_group_element(rng, p, k, alg) for _ in range(depth + 1)], ev)
                if ce is not None:
                    return ce
    for depth in range(1, 5):
        points = generic_points(p, k, depth + 1)
        for ev in variants:
            ce = _nested_commutator(points, ev)
            if ce is not None:
                return ce


def _element_of_Gpn(rng, p, k, alg, n: int) -> GroupElement:
    """Random element of G_{p,n}: alpha_i for i <= n on the monomials that
    `group.in_Gpn_layer` admits, the basis of `grouptheory._layer_generators`,
    and alpha_i = 0 beyond."""
    a = random_group_element(rng, p, n, alg)
    coeffs = [a.coeffs[0]]
    for i in range(1, n + 1):
        terms = {m: c for m, c in a.coeffs[i].terms.items() if in_Gpn_layer(alg, m, i, n)}
        coeffs.append(AlgebraElement(alg, terms))
    return GroupElement(p, k, 0, alg, tuple(coeffs) + (alg.zero(),) * (k - n))


def check_subgroup_closure(p: int, k: int, rng: random.Random, samples: int) -> Optional[dict]:
    """Closure of the Frobenius-nilpotency condition under compose and invert.

    The coefficients are the level-1 quotient of the dual algebra, over which
    G_{p,2} is a proper subgroup with non-identity elements at every p; over
    `group_test_algebra(2)` it holds the identity alone.
    """
    n = 2
    alg = adjoin_epsilon(dual_mod_J(p, 1, N=3).algebra)
    k = max(k, n)
    for _ in range(samples):
        a = _element_of_Gpn(rng, p, k, alg, n)
        b = _element_of_Gpn(rng, p, k, alg, n)
        c = compose(a, b)
        inv = invert_recursive(a)
        if not in_Gpn(c, n):
            return _ce_group(a=a, b=b, product=c)
        if not in_Gpn(inv, n):
            return _ce_group(a=a, inverse=inv)


def _homomorphism_laws(a: GroupElement, b: GroupElement, truncations) -> Optional[dict]:
    ab = compose(a, b)
    if any(project(ab, k2) != compose(project(a, k2), project(b, k2)) for k2 in truncations):
        return _ce_group(law="project", a=a, b=b)
    if rho(ab) != compose(rho(a), rho(b)):
        return _ce_group(law="rho", a=a, b=b)
    if a.p != 2 and pi_ev(ab) != compose(pi_ev(a), pi_ev(b)):
        return _ce_group(law="pi_ev", a=a, b=b)


def check_homomorphisms(p: int, k: int, rng: random.Random, samples: int) -> Optional[dict]:
    alg = group_test_algebra(p)
    for _ in range(samples):
        a = random_group_element(rng, p, k, alg)
        b = random_group_element(rng, p, k, alg)
        ce = _homomorphism_laws(a, b, [rng.randint(0, k)])
        if ce is not None:
            return ce
    # rho takes p-th powers, whose degrees pass the points' degree cap: so the
    # laws are checked again at points whose caps reach p times as high
    a, b = generic_points(p, k, 2)
    truncations = range(a.k + 1)
    return _homomorphism_laws(a, b, truncations) or _homomorphism_laws(*generic_points(p, k, 2, scale=p), truncations)


def check_hopf_axioms(p: int, k: int, rng: random.Random, samples: int) -> Optional[dict]:
    return next(axiom_counterexamples(dual_steenrod(p)), None)


def _kernel_generators(hp: HopfPresentation, q: HopfPresentation) -> list[AlgebraElement]:
    """The monomial generators of the kernel of hp onto its quotient preset q:
    each generator of hp that q lacks, and each power that q's cap kills and
    hp's cap keeps."""
    caps = {g.name: g.cap for g in q.algebra.generators}
    alg = hp.algebra
    return [alg.gen(g.name, caps.get(g.name, 1)) for g in alg.generators if caps.get(g.name, 1) < g.cap]


def check_hopf_ideals(p: int, k: int, rng: random.Random, samples: int) -> Optional[dict]:
    """The kernels of the named quotient presets satisfy the Hopf-ideal axioms."""
    hp = dual_steenrod(p, 3)
    if p == 2:
        quotients = {"I<0>": level_mod_I(p, 0, 3), "I<1>": dual_mod_J(p, 1, 3), "I(2,n)": milnor_quotient(p, 2)}
    else:
        quotients = {"J<0>": dual_mod_J(p, 0, 3), "I(p,1)": milnor_quotient(p, 1), "I(p,2)": milnor_quotient(p, 2)}
    for name, q in quotients.items():
        ok, witness = check_hopf_ideal(hp, _kernel_generators(hp, q))
        if not ok:
            return {"ideal": name, "witness": repr(witness)}
    # a non-Hopf ideal must be rejected
    ok, _ = check_hopf_ideal(hp, [hp.xi(2)])
    if ok:
        return {"ideal": "principal-degree-counterexample", "witness": "accepted"}


def check_primitivity(p: int, k: int, rng: random.Random, samples: int) -> Optional[dict]:
    for level in range(0, 3):
        if not primitivity_check(level_mod_I(p, level, N=3)):
            return {"preset": f"A_mod_I({level})"}
    if not primitivity_check(dual_mod_J(p, 0, N=3)):
        return {"preset": "A_mod_J(0)"}
    if p != 2:
        hp = dual_steenrod(p, N=2, D=2 * (p**2 - 1) + 4 * p)
        defects = dict(cocommutativity_defect(hp))
        witness = TensorElement.of(hp.xi(1), hp.tau(0)) - TensorElement.of(hp.tau(0), hp.xi(1))
        if defects.get("t1") != witness:
            return {"law": "cocommutativity witness", "got": repr(defects.get("t1"))}
    else:
        hp = dual_steenrod(2, N=3)
        defects = dict(cocommutativity_defect(hp))
        witness = TensorElement.of(hp.xi(1, 2), hp.xi(1)) - TensorElement.of(hp.xi(1), hp.xi(1, 2))
        if not defects["z1"].is_zero() or defects["z2"] != witness:
            return {"law": "p=2 cocommutativity defect"}


def theta_target(p: int) -> AlgebraPresentation:
    """A roomy finite target algebra for random generator assignments."""
    n = 4 if p == 2 else 3
    return milnor_quotient(p, n).algebra


def check_theta_convolution(p: int, k: int, rng: random.Random, samples: int) -> Optional[dict]:
    hp = dual_steenrod(p, N=3)
    target = theta_target(p)
    for _ in range(samples):
        phi = random_assignment(rng, hp, target)
        psi = random_assignment(rng, hp, target)
        lhs = theta(convolution(phi, psi))
        rhs = compose(theta(psi), theta(phi))
        if lhs != rhs:
            return _ce_group(lhs=lhs, rhs=rhs)


def check_rho_diagram(p: int, k: int, rng: random.Random, samples: int) -> Optional[dict]:
    target = theta_target(p)
    per = max(samples // 3, 1)
    for level in (0, 1, 2):
        hp = level_algebra(p, level, N=3)
        for _ in range(per):
            phi = random_assignment(rng, hp, target)
            if not rho_diagram_check(phi):
                return {"k": level, "values": {n: repr(v) for n, v in phi.values.items()}}


def check_milnor_complement(p: int, k: int, rng: random.Random, samples: int) -> Optional[dict]:
    """J-basis membership and dual-span membership partition the monomial indices.

    It runs a fixed (level, R, E) grid that reads neither `--k` nor `--samples`."""
    for level in range(0, 3):
        hi = min(p ** (level + 2), 30)
        for R in itertools.product(range(hi), repeat=3):
            e_choices = [()] if p == 2 else [(), (1,), (0, 1), (1, 1, 1)]
            for E in e_choices:
                in_j = in_J_basis(E, R, level, p)
                in_span = in_dual_span(DualSymbol(p, R, E), level)
                if in_j == in_span:
                    return {"k": level, "E": list(E), "R": list(R), "in_J": in_j, "in_span": in_span}


def check_partition_bijection(p: int, k: int, rng: random.Random, samples: int) -> Optional[dict]:
    """Appending the deficit is a bijection onto length->=2 compositions."""
    for m in range(2, 11):
        image = set()
        total = 0
        for n in range(1, m):
            for nu in enumerate_compositions(n):
                image.add(extend_F(nu, m).parts)
                total += 1
        expected = {c.parts for c in enumerate_compositions(m) if c.length >= 2}
        if image != expected or len(image) != total:
            return {"m": m}
        if total != 2 ** (m - 1) - 1:
            return {"m": m, "count": total}


SUITES = {
    "group_axioms": check_group_axioms,
    "inverse_oracles": check_inverse_oracles,
    "commutator_leading": check_commutator_leading,
    "filtration_bounds": check_filtration_bounds,
    "nested_commutators": check_nested_commutators,
    "subgroup_closure": check_subgroup_closure,
    "homomorphisms": check_homomorphisms,
    "hopf_axioms": check_hopf_axioms,
    "hopf_ideals": check_hopf_ideals,
    "primitivity": check_primitivity,
    "theta_convolution": check_theta_convolution,
    "rho_diagram": check_rho_diagram,
    "milnor_complement": check_milnor_complement,
    "partition_bijection": check_partition_bijection,
}


def run_suites(p: int, k: int, seed: int, samples: int) -> list[dict]:
    """One entry per suite, by name: its verdict, its sample count, and its
    counterexample when it has one."""
    suites = []
    for name in sorted(SUITES):
        ce = SUITES[name](p, k, random.Random(f"{seed}:{name}"), samples)
        entry = {"name": name, "ok": ce is None, "samples": samples}
        if ce is not None:
            entry["counterexample"] = ce
        suites.append(entry)
    return suites
