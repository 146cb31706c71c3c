"""JSON wire formats for presentations, elements, and group elements.

Presentations: {"p": 2, "generators": [{"name": "z1", "degree": 1, "cap": 4}]}
(cap null means no cap).  Elements: [{"coeff": c, "exponents": [...]}] sorted
by exponent vector.  Group elements carry their presentation inline so a file
is self-contained:
{"p", "k", "flavor", "algebra": <presentation>, "coeffs": [<element>, ...]}.
"""

from __future__ import annotations

from fractions import Fraction

from .algebra import AlgebraElement, AlgebraPresentation, Generator, accumulate
from .group import BOTTOM, TOP, GroupElement


class SerializeError(Exception):
    pass


def presentation_to_obj(a: AlgebraPresentation) -> dict:
    return {
        "p": a.p,
        "generators": [
            {"name": g.name, "degree": g.degree, "cap": g.cap} for g in a.generators
        ],
    }


def presentation_from_obj(obj: dict) -> AlgebraPresentation:
    try:
        gens = tuple(
            Generator(g["name"], g["degree"], g.get("cap"))
            for g in obj["generators"]
        )
        return AlgebraPresentation(obj["p"], gens)
    except (KeyError, TypeError) as exc:
        raise SerializeError(f"malformed presentation: {exc}") from exc


def element_to_obj(x: AlgebraElement) -> list:
    return [
        {"coeff": c, "exponents": list(x.pres.exponents(m))} for m, c in sorted(x.terms.items())
    ]


def element_from_obj(pres: AlgebraPresentation, obj) -> AlgebraElement:
    try:
        terms: dict = {}
        for term in obj:
            monomial = pres.monomial(term["exponents"], term["coeff"])
            accumulate(terms, monomial.terms.items(), pres.p)
        return AlgebraElement(pres, terms)
    except (KeyError, TypeError) as exc:
        raise SerializeError(f"malformed element: {exc}") from exc


def group_to_obj(g: GroupElement) -> dict:
    return {
        "p": g.p,
        "k": g.k,
        "flavor": g.level,
        "algebra": presentation_to_obj(g.algebra),
        "coeffs": [element_to_obj(c) for c in g.coeffs],
    }


def group_from_obj(obj: dict) -> GroupElement:
    try:
        pres = presentation_from_obj(obj["algebra"])
        coeffs = tuple(element_from_obj(pres, c) for c in obj["coeffs"])
        return GroupElement(obj["p"], obj["k"], obj.get("flavor", 0), pres, coeffs)
    except (KeyError, TypeError) as exc:
        raise SerializeError(f"malformed group element: {exc}") from exc


def filtration_to_str(level: Fraction) -> str:
    if level == BOTTOM:
        return "bottom"
    if level == TOP:
        return "top"
    if level.denominator == 1:
        return str(level.numerator)
    return f"{level.numerator}/{level.denominator}"
