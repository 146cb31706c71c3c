"""JSON wire formats for presentations, elements, and group elements.

Presentations: {"p": 2, "generators": [{"name": "z1", "degree": 1, "cap": 4}]}
(cap null means no cap).  Elements: [{"coeff": c, "exponents": [...]}] sorted
by exponent vector.  Group elements carry their presentation inline so a file
is self-contained:
{"p", "k", "flavor", "algebra": <presentation>, "coeffs": [<element>, ...]}.

Every number on the wire is a JSON integer: a float such as 4.0 or a boolean
is refused with SerializeError, as is a generator name that is not a string, a
list (of generators, coefficients or terms) that is not a JSON array, an
object with a key the format does not name, and a term whose keys are not
exactly coeff and exponents.  A group element's truncation k is at most
MAX_WIRE_K = 1000: a larger k is refused before any coefficient is decoded.
Its flavor is at most group.MAX_LEVEL, on the way in and on the way out, so
`group_to_obj` never writes what `group_from_obj` refuses.

Each distinct presentation is decoded once (a bounded cache), so the elements
of one request share one `AlgebraPresentation` object.  That object also
holds the codec's two `algebra.Memo`s, `wire_packs` (an exponent tuple to
its packed monomial, or None if a cap kills it) and `wire_exponents` (a
packed monomial to its exponent tuple), so each distinct monomial is packed
and unpacked once for as long as the presentation lives, which is while the
cache keeps it or a caller holds it, and the memo has room: each stops
growing at algebra.MEMO_LIMIT entries.  The reader looks a term up only
after its type checks, so an equal vector of bools or floats is still
refused; an exponent vector that `pack` refuses raises before anything is
stored.
"""

from __future__ import annotations

import functools
from fractions import Fraction

from .algebra import AlgebraElement, AlgebraPresentation, Generator, SteenrodError, accumulate
from .group import BOTTOM, MAX_LEVEL, TOP, GroupElement


class SerializeError(SteenrodError):
    pass


# the largest truncation k the reader admits: the cost of a group law is
# quadratic in k, and a commutator of two series with two non-zero
# coefficients each takes about 0.25 s at k = 1000, 0.4 s through the CLI
# with interpreter start (2 vCPUs, Python 3.11)
MAX_WIRE_K = 1000


_PRESENTATION_KEYS = frozenset(("p", "generators"))
_GENERATOR_KEYS = frozenset(("name", "degree", "cap"))
_GROUP_KEYS = frozenset(("p", "k", "flavor", "algebra", "coeffs"))


def presentation_to_obj(a: AlgebraPresentation) -> dict:
    return {
        "p": a.p,
        "generators": [
            {"name": g.name, "degree": g.degree, "cap": g.cap} for g in a.generators
        ],
    }


def _int(value, what: str) -> int:
    """value itself if it is a JSON integer (bool excluded)."""
    if type(value) is not int:
        raise SerializeError(f"{what} must be an integer, not {value!r}")
    return value


def _list(value, what: str) -> list:
    """value itself if it is a JSON array."""
    if type(value) is not list:
        raise SerializeError(f"{what} must be a JSON array, not {value!r}")
    return value


def _object(value, keys: frozenset, what: str) -> dict:
    """value itself if it is a JSON object whose keys are all among keys."""
    if type(value) is not dict:
        raise SerializeError(f"{what} must be a JSON object, not {value!r}")
    if not value.keys() <= keys:
        raise SerializeError(f"unknown {what} keys {sorted(value.keys() - keys)}")
    return value


@functools.lru_cache(maxsize=64)
def _presentation(p: int, gens: tuple) -> AlgebraPresentation:
    """The presentation of checked (name, degree, cap) triples; the key holds
    only str names and exact ints, so equal keys mean equal inputs."""
    return AlgebraPresentation(p, tuple(Generator(*g) for g in gens))


def presentation_from_obj(obj: dict) -> AlgebraPresentation:
    try:
        gens = []
        for g in _list(_object(obj, _PRESENTATION_KEYS, "presentation")["generators"], "generators"):
            name, cap = _object(g, _GENERATOR_KEYS, "generator")["name"], g.get("cap")
            if type(name) is not str:
                raise SerializeError(f"generator name must be a string, not {name!r}")
            gens.append((name, _int(g["degree"], "degree"), None if cap is None else _int(cap, "cap")))
        return _presentation(_int(obj["p"], "p"), tuple(gens))
    except (KeyError, TypeError) as exc:
        raise SerializeError(f"malformed presentation: {exc}") from exc


def element_to_obj(x: AlgebraElement) -> list:
    memo = x.pres.wire_exponents
    return [{"coeff": c, "exponents": list(memo[m])} for m, c in sorted(x.terms.items())]


def element_from_obj(pres: AlgebraPresentation, obj) -> AlgebraElement:
    memo = pres.wire_packs
    try:
        pairs = []
        for term in _list(obj, "a term list"):
            if len(term) != 2:  # with both lookups below, exactly coeff and exponents
                raise SerializeError(f"a term has the keys coeff and exponents only, not {term!r}")
            exponents, coeff = term["exponents"], _int(term["coeff"], "coeff")
            if not set(map(type, exponents)) <= {int}:
                raise SerializeError(f"exponents must be integers, not {exponents!r}")
            m = memo[tuple(exponents)]  # exact ints only, so equal keys are equal inputs
            if m is not None:
                pairs.append((m, coeff))
        return AlgebraElement(pres, accumulate({}, pairs, pres.p))
    except (KeyError, TypeError) as exc:
        raise SerializeError(f"malformed element: {exc}") from exc


def _level(level: int) -> int:
    """The flavor, refused above MAX_LEVEL by the reader and the writer alike."""
    if level > MAX_LEVEL:
        raise SerializeError(f"flavor = {level} above the level bound {MAX_LEVEL}")
    return level


def group_to_obj(g: GroupElement) -> dict:
    return {
        "p": g.p,
        "k": g.k,
        "flavor": _level(g.level),
        "algebra": presentation_to_obj(g.algebra),
        "coeffs": [element_to_obj(c) for c in g.coeffs],
    }


def group_from_obj(obj: dict) -> GroupElement:
    try:
        pres = presentation_from_obj(_object(obj, _GROUP_KEYS, "group element")["algebra"])
        k = _int(obj["k"], "k")
        if k > MAX_WIRE_K:
            raise SerializeError(f"truncation k = {k} above the wire bound {MAX_WIRE_K}")
        level = _level(_int(obj.get("flavor", 0), "flavor"))
        coeffs = tuple(element_from_obj(pres, c) for c in _list(obj["coeffs"], "coeffs"))
        return GroupElement(_int(obj["p"], "p"), k, level, pres, coeffs)
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
