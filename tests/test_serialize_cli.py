import errno
import hashlib
import io
import json
import os
import random
import subprocess
import sys
import time
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import pytest

from steenrodgroup import cli, group, hopf, serialize, verify
from steenrodgroup.algebra import (
    AlgebraElement,
    AlgebraError,
    AlgebraPresentation,
    component_monomials,
    eps_reduce,
    frobenius,
)
from steenrodgroup.cli import USAGE_ERROR, run
from steenrodgroup.group import BOTTOM, TOP, commutator, compose, identity, invert_closed, invert_recursive
from steenrodgroup.milnor import in_J_basis
from steenrodgroup.serialize import (
    SerializeError,
    element_from_obj,
    element_to_obj,
    filtration_to_str,
    group_from_obj,
    group_to_obj,
    presentation_from_obj,
    presentation_to_obj,
)
from steenrodgroup.sampling import random_group_element, random_homogeneous
from steenrodgroup.verify import group_test_algebra
from test_cli_golden import GOLDEN


# -- serialization roundtrips --------------------------------------------------


def test_presentation_roundtrip():
    a = group_test_algebra(3)
    obj = json.loads(json.dumps(presentation_to_obj(a)))
    assert presentation_from_obj(obj) == a


def test_element_roundtrip():
    a = group_test_algebra(2)
    x = random_homogeneous(random.Random(7), a, 4)
    obj = json.loads(json.dumps(element_to_obj(x)))
    assert element_from_obj(a, obj) == x


def test_group_roundtrip():
    g = random_group_element(random.Random(9), 3, 3, group_test_algebra(3))
    obj = json.loads(json.dumps(group_to_obj(g)))
    assert group_from_obj(obj) == g


def test_malformed_objects_raise():
    with pytest.raises(SerializeError):
        presentation_from_obj({"p": 2})
    with pytest.raises(SerializeError):
        group_from_obj({"p": 2, "k": 1})


def test_equal_presentations_decode_to_one_object():
    obj = presentation_to_obj(group_test_algebra(3))
    first = presentation_from_obj(json.loads(json.dumps(obj)))
    assert presentation_from_obj(json.loads(json.dumps(obj))) is first
    assert serialize._presentation.cache_info().maxsize is not None


def test_separately_decoded_elements_skip_presentation_equality(monkeypatch):
    g = random_group_element(random.Random(3), 3, 4, group_test_algebra(3))
    h = random_group_element(random.Random(4), 3, 4, group_test_algebra(3))
    a = group_from_obj(json.loads(json.dumps(group_to_obj(g))))
    b = group_from_obj(json.loads(json.dumps(group_to_obj(h))))
    calls = []
    eq = AlgebraPresentation.__eq__

    def counting(self, other):
        calls.append(1)
        return eq(self, other)

    monkeypatch.setattr(AlgebraPresentation, "__eq__", counting)
    assert compose(a, b) == compose(g, h)
    assert commutator(a, b) == commutator(g, h)
    calls.clear()
    compose(a, b)
    commutator(a, b)
    assert calls == []


def test_presentation_cache_keeps_the_type_checks():
    obj = {"p": 2, "generators": [{"name": "z1", "degree": 1, "cap": 4}]}
    presentation_from_obj(obj)
    for bad in (
        dict(obj, generators=[{"name": "z1", "degree": 1, "cap": 4.0}]),
        dict(obj, generators=[{"name": "z1", "degree": 1.0, "cap": 4}]),
        dict(obj, generators=[{"name": "z1", "degree": True, "cap": 4}]),
        dict(obj, p=2.0),
        dict(obj, p=True),
    ):
        with pytest.raises(SerializeError):
            presentation_from_obj(bad)


def test_filtration_to_str():
    assert filtration_to_str(BOTTOM) == "bottom"
    assert filtration_to_str(TOP) == "top"
    assert filtration_to_str(Fraction(2)) == "2"
    assert filtration_to_str(Fraction(3, 2)) == "3/2"


# -- CLI -----------------------------------------------------------------------


def run_cli(capsys, *argv):
    code = run(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_cli_partitions(capsys):
    code, out = run_cli(capsys, "partitions", "3")
    assert code == 0
    assert json.loads(out) == [[1, 1, 1], [1, 2], [2, 1], [3]]


def test_cli_partitions_bad_n(capsys):
    code, _ = run_cli(capsys, "partitions", "0")
    assert code == USAGE_ERROR


def test_cli_unknown_command(capsys):
    assert run(["bogus"]) == USAGE_ERROR


def test_cli_invert_methods_agree_bytewise(tmp_path, capsys):
    g = random_group_element(random.Random(5), 3, 3, group_test_algebra(3))
    path = tmp_path / "g.json"
    path.write_text(json.dumps(group_to_obj(g)))
    outputs = {}
    for method in ("recursive", "closed", "split"):
        code, out = run_cli(capsys, "invert", "--in", str(path), "--method", method)
        assert code == 0
        outputs[method] = out
    assert outputs["recursive"] == outputs["closed"] == outputs["split"]
    assert group_from_obj(json.loads(outputs["closed"])) == invert_recursive(g)


@pytest.mark.parametrize("method", ["closed", "split"])
def test_cli_partition_inverses_bound_k_before_any_work(tmp_path, capsys, monkeypatch, method):
    # k = 21 is above the composition cap: the refusal comes before any
    # Frobenius power is taken, and before any walk over the compositions of
    # 1 .. 20, which would take seconds
    calls = []
    frobenius = group.frobenius
    monkeypatch.setattr(group, "frobenius", lambda x, j: calls.append(j) or frobenius(x, j))
    path = tmp_path / "g.json"
    path.write_text(json.dumps(group_to_obj(identity(3, 21, group_test_algebra(3)))))
    started = time.monotonic()
    code = run(["invert", "--in", str(path), "--method", method])
    elapsed = time.monotonic() - started
    captured = capsys.readouterr()
    assert (code, captured.out, calls) == (USAGE_ERROR, "", [])
    assert "error:" in captured.err
    assert elapsed < 1


def test_cli_compose_and_commutator(tmp_path, capsys):
    r = random.Random(6)
    alg = group_test_algebra(2)
    a = random_group_element(r, 2, 3, alg)
    b = random_group_element(r, 2, 3, alg)
    path = tmp_path / "pair.json"
    path.write_text(json.dumps({"a": group_to_obj(a), "b": group_to_obj(b)}))
    code, out = run_cli(capsys, "compose", "--in", str(path))
    assert code == 0
    from steenrodgroup.group import commutator, compose

    assert group_from_obj(json.loads(out)) == compose(a, b)
    code, out = run_cli(capsys, "commutator", "--in", str(path))
    assert code == 0
    assert group_from_obj(json.loads(out)) == commutator(a, b)
    # rho reads one element, at p = 2 and at odd p, into the next flavor
    for g in (a, random_group_element(r, 3, 3, group_test_algebra(3))):
        path.write_text(json.dumps(group_to_obj(g)))
        code, out = run_cli(capsys, "rho", "--in", str(path))
        assert code == 0
        assert json.loads(out) == group_to_obj(group.rho(g))
        assert json.loads(out)["flavor"] == 1


def test_cli_filtration_of_identity(tmp_path, capsys):
    from steenrodgroup.group import identity

    g = identity(2, 2, group_test_algebra(2))
    path = tmp_path / "e.json"
    path.write_text(json.dumps(group_to_obj(g)))
    code, out = run_cli(capsys, "filtration", "--in", str(path))
    assert code == 0
    assert json.loads(out) == {"level": "top"}


def test_cli_bad_json_is_usage_error(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    code, _ = run_cli(capsys, "invert", "--in", str(path))
    assert code == USAGE_ERROR
    # a pair without "b"
    path.write_text(json.dumps({"a": group_to_obj(identity(2, 1, group_test_algebra(2)))}))
    code = run(["compose", "--in", str(path)])
    captured = capsys.readouterr()
    assert (code, captured.out) == (USAGE_ERROR, "")
    assert captured.err.startswith("error: ") and '"b"' in captured.err


def test_cli_missing_file_is_usage_error(capsys):
    code, _ = run_cli(capsys, "rho", "--in", "/nonexistent/g.json")
    assert code == USAGE_ERROR


def test_cli_milnor(capsys):
    code, out = run_cli(capsys, "milnor", "in-j", "--p", "2", "--k", "1", "--R", "4")
    assert code == 0
    assert json.loads(out)["result"] is True
    code, out = run_cli(capsys, "milnor", "in-span", "--p", "3", "--k", "0", "--E", "1", "--R", "1")
    assert code == 0
    assert json.loads(out)["result"] is False


def test_cli_lcs(capsys):
    code, out = run_cli(capsys, "lcs", "--p", "3", "--n", "1", "--ev")
    assert code == 0
    payload = json.loads(out)
    assert payload["order"] == 81
    assert payload["sizes"] == [81, 3, 1]
    assert payload["ev"]["sizes"] == [3, 1]


def test_cli_lcs_order_2401(capsys):
    code, out = run_cli(capsys, "lcs", "--p", "7", "--n", "1", "--ev")
    assert code == 0
    payload = json.loads(out)
    assert payload["order"] == 2401
    assert payload["sizes"] == [2401, 7, 1]
    assert payload["class"] == 2 <= payload["bound"] == 2
    assert payload["ev"]["sizes"] == [7, 1]


def test_cli_lcs_ev_verdict_needs_the_eps_free_bound(capsys, monkeypatch):
    real = cli.ev_subgroup_series
    monkeypatch.setattr(cli, "ev_subgroup_series", lambda *args: replace(real(*args), ok=False))
    code, out = run_cli(capsys, "lcs", "--p", "3", "--n", "1", "--ev")
    payload = json.loads(out)
    assert (code, payload["ok"], payload["ev"]["ok"]) == (1, True, False)
    # without --ev the eps-free series is neither built nor judged
    assert run_cli(capsys, "lcs", "--p", "3", "--n", "1")[0] == 0


def test_cli_sweep_csv(capsys):
    code, out = run_cli(capsys, "sweep", "--p", "2")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "p,n,algebra,order,class,bound,ok"
    assert len(lines) == 3
    assert all(line.endswith("True") for line in lines[1:])


def test_cli_hopf_preset(capsys):
    code, out = run_cli(capsys, "hopf", "--preset", "A_mod_I", "--p", "2", "--k", "1", "--N", "3")
    assert code == 0
    payload = json.loads(out)
    assert payload["ok"] is True
    assert payload["primitive"] is True


def test_cli_hopf_unknown_preset(capsys):
    code, _ = run_cli(capsys, "hopf", "--preset", "nope")
    assert code == USAGE_ERROR


def test_cli_verify_deterministic(capsys):
    args = ["verify", "--p", "2", "--k", "3", "--seed", "11", "--samples", "4"]
    code1, out1 = run_cli(capsys, *args)
    code2, out2 = run_cli(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2
    payload = json.loads(out1)
    assert payload["ok"] is True
    assert len(payload["suites"]) == 14


@pytest.mark.parametrize("p,k", [(3, 5), (2, 8)])
def test_cli_verify_beyond_the_sample_algebras_top_degree(capsys, p, k):
    # alpha_(m+1) has no monomials for large m, so no element has zero prefix m
    code, out = run_cli(capsys, "verify", "--p", str(p), "--k", str(k))
    assert code == 0
    assert json.loads(out)["ok"] is True


def _drop_top_coefficient(op):
    def broken(*args):
        c = op(*args)
        return replace(c, coeffs=c.coeffs[:-1] + (c.algebra.zero(),))

    return broken


def _drop_top_term(antipode_gen):
    def broken(hp, name):
        x = antipode_gen(hp, name)
        return AlgebraElement(x.pres, {m: c for m, c in x.terms.items() if m != max(x.terms)})

    return broken


# law -> (the module it is patched in, its broken version built from the real
# one, the suites that must fail, sha256 of the stdout of VERIFY_BROKEN)
BROKEN_LAWS = {
    # at p = 3, k = 4 every sampled alpha_4 is zero, so group_axioms sees the
    # dropped top coefficient only at the generic point
    "compose": (
        verify,
        _drop_top_coefficient,
        {"group_axioms", "homomorphisms", "theta_convolution"},
        "322edd1e5daac6bba66f74e96cf5ce9b8b6eeaf4970692405d68dd5b79470b1b",
    ),
    "invert_closed": (
        verify,
        lambda real: lambda a: invert_recursive(identity(a.p, a.k, a.algebra, a.level)),
        {"inverse_oracles"},
        "a2c5351b2de925c669ebf75025da8b6e39f7a040934b1ae7993f0f52f30dc94d",
    ),
    "in_dual_span": (
        verify,
        lambda real: lambda sym, k: in_J_basis(sym.E, sym.R, k, sym.p),
        {"milnor_complement"},
        "1650d7bde1bf40cf04c1e146208e7d45ad26d356adec94af58655661410b0d2f",
    ),
    # the function each presentation's antipode images are built from
    "antipode_gen": (
        hopf,
        _drop_top_term,
        {"hopf_axioms"},
        "c8763afd6f880ab5122f2c7ed785cdb1d459a00c07b05d5aa8a847c532eee7ea",
    ),
}

VERIFY_BROKEN = "verify --p 3 --k 4 --seed 0 --samples 5"


@pytest.mark.parametrize("law", sorted(BROKEN_LAWS))
def test_cli_verify_reports_a_broken_law(capsys, monkeypatch, law):
    module, breaker, suites, digest = BROKEN_LAWS[law]
    monkeypatch.setattr(module, law, breaker(getattr(module, law)))
    code, out = run_cli(capsys, *VERIFY_BROKEN.split())
    payload = json.loads(out)
    assert code == 1 and payload["ok"] is False
    failed = {s["name"] for s in payload["suites"] if not s["ok"]}
    assert failed == suites
    assert failed == {s["name"] for s in payload["suites"] if "counterexample" in s}
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# suite -> (the law of steenrodgroup.verify that is broken, its broken version
# built from the real one, the truncation at which the suite sees it)
REPLAYED = {
    "group_axioms": ("compose", BROKEN_LAWS["compose"][1], 4),
    "inverse_oracles": ("invert_closed", BROKEN_LAWS["invert_closed"][1], 4),
    # at k = 4 the dropped alpha_4 lies past every predicted coefficient
    "commutator_leading": ("commutator", _drop_top_coefficient, 3),
}


def _replay(suite: str, ce: dict) -> dict:
    """The counterexample that suite's check of one input gives on ce's decoded inputs."""
    g = {name: group_from_obj(obj) for name, obj in ce.items() if isinstance(obj, dict)}
    if suite == "group_axioms":
        return verify._associativity(g["a"], g["b"], g["c"]) if "c" in g else verify._unit_laws(g["a"])
    if suite == "inverse_oracles":
        return verify._inverse_oracles(g["a"])
    return verify._leading_coefficients(g["a"], g["b"], int(ce["case"]))


@pytest.mark.parametrize("suite", sorted(REPLAYED))
def test_a_counterexample_replays_through_its_laws_check(monkeypatch, suite):
    law, breaker, k = REPLAYED[suite]
    monkeypatch.setattr(verify, law, breaker(getattr(verify, law)))
    ce = verify.SUITES[suite](3, k, random.Random(f"0:{suite}"), 5)
    assert ce is not None
    assert _replay(suite, json.loads(json.dumps(ce))) == ce


def test_generic_point_is_the_identity_assignment():
    a = verify.generic_points(3, 2, 1)[0]
    alg, eps = a.algebra, a.algebra.gen("eps")
    assert (a.p, a.k, a.level) == (3, 2, 0)
    assert a.coeffs == (alg.one() + alg.gen("t0") * eps, alg.gen("x1") + alg.gen("t1") * eps, alg.gen("x2") + alg.gen("t2") * eps)
    assert verify.generic_points(2, 20, 1)[0].k == verify.GENERIC_TRUNCATION


def test_generic_points_are_the_copies_of_the_generic_point():
    one, = verify.generic_points(3, 2, 1)
    points = verify.generic_points(3, 2, 3)
    alg = points[0].algebra
    gens = alg.generators[: alg.ngens - 1]  # eps is adjoined last
    assert [g.name for g in gens] == [g.name + "'" * j for j in range(3) for g in one.algebra.generators[:-1]]
    assert all(a.algebra is alg and (a.p, a.k, a.level) == (3, 2, 0) for a in points)
    eps = alg.gen("eps")
    for j, a in enumerate(points):
        names = [g + "'" * j for g in ("t0", "t1", "t2", "x1", "x2")]
        t0, t1, t2, x1, x2 = (alg.gen(n) for n in names)
        assert a.coeffs == (alg.one() + t0 * eps, x1 + t1 * eps, x2 + t2 * eps)


def _skew_top_coefficient(op):
    """compose plus A_2^3 (A_1 + B_1)^27 B_1 in the top coefficient, A_i and
    B_i the eps-free parts of alpha_i and beta_i: of degree coeff_degree(4)
    at p = 3, zero at (e, a), (a, e) and (a, a^-1), so no unit law sees it,
    and no sample either, as every sampled alpha_4 is zero."""

    def broken(a, b):
        c = op(a, b)
        a1, a2, b1 = (eps_reduce(x) for x in (a.coeffs[1], a.coeffs[2], b.coeffs[1]))
        skew = a2 * a2 * a2 * frobenius(a1 + b1, 3) * b1
        return replace(c, coeffs=c.coeffs[:-1] + (c.coeffs[-1] + skew,))

    return broken


@pytest.mark.parametrize("samples", [5, 50])
def test_group_axioms_see_a_compose_that_is_not_associative(monkeypatch, samples):
    monkeypatch.setattr(verify, "compose", _skew_top_coefficient(compose))
    ce = verify.check_group_axioms(3, 4, random.Random("0:group_axioms"), samples)
    assert ce is not None and ce["law"] == repr("associativity")
    a, b, c = verify.generic_points(3, 4, 3)
    assert (ce["a"], ce["b"], ce["c"]) == tuple(serialize.group_to_obj(x) for x in (a, b, c))
    assert verify._unit_laws(*verify.generic_points(3, 4, 1)) is None


@pytest.mark.parametrize("p", [3, 5])
def test_homomorphisms_see_a_dropped_top_coefficient_of_pi_ev(monkeypatch, p):
    # every sampled product has a zero alpha_4 at k = 4; the universal pair's has not
    monkeypatch.setattr(verify, "pi_ev", _drop_top_coefficient(group.pi_ev))
    ce = verify.check_homomorphisms(p, 4, random.Random("0:homomorphisms"), 20)
    assert ce is not None and ce["law"] == repr("pi_ev")
    assert ce["a"] == serialize.group_to_obj(verify.generic_points(p, 4, 2)[0])


@pytest.mark.parametrize("p", [3, 5])
def test_homomorphisms_see_a_dropped_top_coefficient_of_rho(monkeypatch, p):
    # rho's p-th powers pass the generic pair's caps, so only the pair whose
    # caps reach p times as high sees the dropped top coefficient
    monkeypatch.setattr(verify, "rho", _drop_top_coefficient(group.rho))
    ce = verify.check_homomorphisms(p, 4, random.Random("0:homomorphisms"), 20)
    assert ce is not None and ce["law"] == repr("rho")
    assert ce["a"] == serialize.group_to_obj(verify.generic_points(p, 4, 2, scale=p)[0])


@pytest.mark.parametrize("p", [2, 3, 5])
def test_group_axioms_see_a_dropped_top_coefficient(monkeypatch, p):
    # at odd p and k = 4 every sampled alpha_4 is zero; the generic point's is not
    monkeypatch.setattr(verify, "compose", _drop_top_coefficient(compose))
    ce = verify.check_group_axioms(p, 4, random.Random("0:group_axioms"), 5)
    assert ce is not None
    assert verify._unit_laws(verify.generic_points(p, 4, 1)[0])["law"] == repr("identity")


@pytest.mark.parametrize("p", [3, 5])
@pytest.mark.parametrize("law", ["invert_closed", "invert_split"])
def test_inverse_oracles_see_a_dropped_top_coefficient(monkeypatch, p, law):
    monkeypatch.setattr(verify, law, _drop_top_coefficient(getattr(verify, law)))
    ce = verify.check_inverse_oracles(p, 4, random.Random("0:inverse_oracles"), 5)
    assert ce is not None and ce["law"] == repr(law.removeprefix("invert_"))
    assert ce["a"] == serialize.group_to_obj(verify.generic_points(p, 4, 1)[0])


def test_nested_commutators_see_an_eps_free_stage_set_too_high(monkeypatch):
    # every sampled eps-free commutator is the identity up to the truncation,
    # so only the universal points' commutators see the eps-free stage
    real = verify.commutator_stage
    monkeypatch.setattr(verify, "commutator_stage", lambda d, eps_free=False: real(d, eps_free) + 10 * eps_free)
    ce = verify.check_nested_commutators(3, 4, random.Random(0), 50)
    assert ce is not None
    assert (ce["depth"], ce["variant"]) == ("1", repr("ev"))
    assert (ce["level"], ce["bound"]) == (repr(Fraction(1)), repr(Fraction(4)))


@pytest.mark.parametrize("p", [2, 3, 5])
def test_subgroup_closure_checks_samples_pairs_inside_the_subgroup(monkeypatch, p):
    # a pair drawn from the whole group at k = 4 is never inside G_{p,2}, so
    # a suite that filters such draws compares nothing
    pairs = []
    monkeypatch.setattr(verify, "compose", lambda a, b: pairs.append((a, b)) or compose(a, b))
    assert verify.check_subgroup_closure(p, 4, random.Random("0:subgroup_closure"), 50) is None
    assert len(pairs) == 50
    assert all(group.in_Gpn(a, 2) and group.in_Gpn(b, 2) for a, b in pairs)
    assert sum(not group.is_identity(a) for a, _ in pairs) > 25


@pytest.mark.parametrize("p", [2, 3, 5])
def test_subgroup_closure_reports_an_inverse_outside_the_subgroup(monkeypatch, p):
    def leaves(a):
        inv = invert_recursive(a)
        top = component_monomials(inv.algebra, inv.coeff_degree(inv.k))[0]
        return replace(inv, coeffs=inv.coeffs[:-1] + (inv.algebra.monomial(top),))

    monkeypatch.setattr(verify, "invert_recursive", leaves)
    ce = verify.check_subgroup_closure(p, 4, random.Random("0:subgroup_closure"), 50)
    assert ce is not None and "inverse" in ce


def test_cli_out_file(tmp_path, capsys):
    dest = tmp_path / "parts.json"
    code, out = run_cli(capsys, "partitions", "2", "--out", str(dest))
    assert code == 0
    assert out == ""
    assert json.loads(dest.read_text()) == [[1, 1], [2]]


@pytest.mark.parametrize("where", ["directory", "missing-directory"])
def test_cli_unwritable_out_is_usage_error(tmp_path, capsys, where):
    # exit 1 means a failed check, so an --out that cannot be opened is not one
    dest = tmp_path if where == "directory" else tmp_path / "missing" / "parts.json"
    code = run(["partitions", "3", "--out", str(dest)])
    captured = capsys.readouterr()
    assert (code, captured.out) == (USAGE_ERROR, "")
    assert captured.err.startswith(f"error: cannot write {dest}: ")


@pytest.mark.parametrize("fails", ["write", "flush"])
def test_cli_unwritable_stdout_is_usage_error(capsys, monkeypatch, fails):
    # a full disk behind stdout (`> /dev/full`): a buffered write fails at the
    # flush, a short one at the write itself; neither is a failed check
    class Full(io.StringIO):
        def write(self, text):
            if fails == "write":
                self.flush()
            return super().write(text)

        def flush(self):
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

    monkeypatch.setattr(sys, "stdout", Full())
    code = run(["partitions", "3"])
    assert code == USAGE_ERROR
    assert capsys.readouterr().err == f"error: cannot write stdout: {os.strerror(errno.ENOSPC)}\n"


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
@pytest.mark.parametrize("unbuffered", [False, True])
def test_cli_stdout_on_dev_full_is_one_usage_error(unbuffered):
    # buffered, the report is left in stdout's buffer, and the flush at exit
    # would fail again: one error line and exit 2, not an exit 120
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    with open("/dev/full", "w") as full:
        done = subprocess.run([sys.executable, "-m", "steenrodgroup.cli", "partitions", "3"],
                              env=env, stdout=full, stderr=subprocess.PIPE, text=True, timeout=60)
    assert (done.returncode, done.stderr) == (USAGE_ERROR, f"error: cannot write stdout: {os.strerror(errno.ENOSPC)}\n")


def test_cli_failed_verify_writes_its_report_to_out(tmp_path, capsys, monkeypatch):
    module, breaker, _, digest = BROKEN_LAWS["invert_closed"]
    monkeypatch.setattr(module, "invert_closed", breaker(module.invert_closed))
    dest = tmp_path / "verify.json"
    code, out = run_cli(capsys, *VERIFY_BROKEN.split(), "--out", str(dest))
    assert (code, out) == (1, "")
    # the digest of the bytes that the same command prints without --out
    assert hashlib.sha256(dest.read_bytes()).hexdigest() == digest


def test_cli_sweep_out_writes_the_golden_csv(tmp_path, capsys):
    dest = tmp_path / "sweep.csv"
    code, out = run_cli(capsys, "sweep", "--out", str(dest))
    assert (code, out) == (0, "")
    assert (code, hashlib.sha256(dest.read_bytes()).hexdigest()) == GOLDEN["sweep"]


def test_cli_limit_env_respected(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("STEENROD_LIMIT", "5")
    code, _ = run_cli(capsys, "lcs", "--p", "3", "--n", "1")
    assert code == USAGE_ERROR


@pytest.mark.parametrize("p,n,e", [(3, 6, 11), (2, 10, 17), (2, 12, 17)])
def test_cli_lcs_is_bounded_before_enumerating_layers(p, n, e):
    # (3, 6) ended in a ValueError traceback after 30 s, formatting a group
    # order of over 4300 digits; (2, 10) and (2, 12) ran for minutes
    src = str(Path(__file__).resolve().parent.parent / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    argv = [sys.executable, "-m", "steenrodgroup.cli", "lcs", "--p", str(p), "--n", str(n)]
    started = time.monotonic()
    try:
        done = subprocess.run(argv, env={**os.environ, "PYTHONPATH": path}, capture_output=True, text=True, timeout=20)
    except subprocess.TimeoutExpired:
        pytest.fail("lcs was not refused within 20 s")
    assert (done.returncode, done.stdout) == (USAGE_ERROR, "")
    assert done.stderr == f"error: group order {p}^{e} or more is over the limit 100000 (STEENROD_LIMIT)\n"
    assert time.monotonic() - started < 10


def test_cli_hopf_work_is_bounded_before_any_coproduct(capsys, monkeypatch):
    # A_dual at p = 3, N = 20: the antipode of tau_20 alone has 2^20 terms
    src = str(Path(__file__).resolve().parent.parent / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    started = time.monotonic()
    done = subprocess.run(
        [sys.executable, "-m", "steenrodgroup.cli", "hopf", "--preset", "A_dual", "--p", "3", "--N", "20"],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode == USAGE_ERROR and done.stdout == ""
    assert "error:" in done.stderr and "STEENROD_LIMIT" in done.stderr
    assert time.monotonic() - started < 10
    # the bound is the same limit as for group sizes, so it can be raised
    monkeypatch.setenv("STEENROD_LIMIT", "21")
    assert run(["hopf", "--preset", "A_dual", "--p", "3", "--N", "3"]) == USAGE_ERROR
    monkeypatch.setenv("STEENROD_LIMIT", "22")
    assert run(["hopf", "--preset", "A_dual", "--p", "3", "--N", "3"]) == 0
    capsys.readouterr()


@pytest.mark.parametrize(
    "argv",
    [
        ["milnor", "in-j", "--p", "2", "--R", "a,b"],
        ["milnor", "in-j", "--p", "2", "--k", "-1", "--R", "1"],
        ["milnor", "in-span", "--p", "4", "--R", "1"],
        ["hopf", "--preset", "A_angle", "--p", "2", "--k", "-1", "--N", "2"],
        ["sweep", "--p", "5"],
        ["sweep", "--p", "4"],
        ["verify", "--samples", "-3"],
        ["verify", "--samples", "0"],
        ["verify", "--p", "4"],
        ["verify", "--k", "-1"],
        ["lcs", "--p", "4"],
        ["lcs", "--n", "-1"],
        ["verify", "--k", "21"],
        ["hopf", "--preset", "nope"],
        # each below ran past `timeout 20` (the first past `timeout 5`), or
        # ended, the k = 100000 hopf, in a json.dumps ValueError with exit 1
        ["verify", "--p", "1000000000000000003"],
        ["verify", "--p", "2", "--k", "2000", "--samples", "1"],
        ["verify", "--k", "1", "--samples", str(10**30)],
        ["milnor", "in-j", "--p", "3", "--k", "100000000", "--R", "5"],
        ["milnor", "in-span", "--p", "3", "--k", "100000000", "--R", "5"],
        ["hopf", "--preset", "A_angle", "--p", "2", "--k", "100000", "--N", "2"],
        ["hopf", "--preset", "A_dual", "--N", str(10**30)],
        ["hopf", "--preset", "A", "--n", str(10**30)],
        ["lcs", "--n", str(10**30)],
        ["lcs", "--p", "2147483647", "--n", "2000"],
    ],
)
def test_cli_bad_input_is_usage_error(capsys, argv):
    started = time.monotonic()
    code = run(argv)
    captured = capsys.readouterr()
    assert code == USAGE_ERROR
    assert "error:" in captured.err
    assert captured.out == ""
    assert time.monotonic() - started < 1


def test_cli_sweep_names_the_grid_primes(capsys):
    assert run(["sweep", "--p", "5"]) == USAGE_ERROR
    assert "choose from 2, 3" in capsys.readouterr().err


# p = 2 series without a unit head: alpha_0 = 0, and no coefficient at all
NON_UNIT_HEAD = {
    "p": 2,
    "k": 2,
    "flavor": 0,
    "algebra": {"p": 2, "generators": [{"name": "z1", "degree": 1, "cap": 4}]},
    "coeffs": [[], [{"coeff": 1, "exponents": [1]}], []],
}
NO_HEAD = dict(NON_UNIT_HEAD, k=-1, coeffs=[])
# alpha_1 must have degree 2^1 - 1 = 1, and z1^2 has degree 2
WRONG_DEGREE = dict(NON_UNIT_HEAD, k=1, coeffs=[[{"coeff": 1, "exponents": [0]}], [{"coeff": 1, "exponents": [2]}]])


@pytest.mark.parametrize("g", [NON_UNIT_HEAD, NO_HEAD], ids=["zero-head", "no-head"])
@pytest.mark.parametrize("command", ["invert", "compose", "commutator", "filtration", "rho"])
def test_cli_non_unit_head_is_usage_error(tmp_path, capsys, command, g):
    assert_refused(tmp_path, capsys, command, g)


@pytest.mark.parametrize("command", ["invert", "compose", "commutator", "filtration", "rho"])
def test_cli_wrong_degree_coefficient_is_usage_error(tmp_path, capsys, command):
    err = assert_refused(tmp_path, capsys, command, WRONG_DEGREE)
    assert "alpha_1 is not homogeneous of degree 1" in err


def _one_generator(p, name, degree, cap):
    """alpha_0 = 1 and alpha_1 = the generator, over that one generator."""
    return {
        "p": p,
        "k": 1,
        "flavor": 0,
        "algebra": {"p": p, "generators": [{"name": name, "degree": degree, "cap": cap}]},
        "coeffs": [[{"coeff": 1, "exponents": [0]}], [{"coeff": 1, "exponents": [1]}]],
    }


# odd-p coefficients live in an algebra with eps adjoined; unchecked, a
# generator named eps is read as that eps whatever its degree and cap: at
# p = 3 `filtration` read alpha_1 = eps of degree 4 as level 1/2, and at
# p = 2 `rho` dropped alpha_1^2 = eps^2
MISPLACED_EPS = {
    "no-eps": _one_generator(3, "x1", 4, 3),
    "eps-of-degree-4": _one_generator(3, "eps", 4, 3),
    "eps-at-p2": _one_generator(2, "eps", 1, 4),
}


@pytest.mark.parametrize("g", MISPLACED_EPS.values(), ids=MISPLACED_EPS.keys())
@pytest.mark.parametrize(
    "argv",
    [
        ["invert", "--method", "recursive"],
        ["invert", "--method", "closed"],
        ["invert", "--method", "split"],
        ["compose"],
        ["commutator"],
        ["filtration"],
        ["rho"],
    ],
)
def test_cli_misplaced_eps_is_usage_error(tmp_path, capsys, argv, g):
    err = assert_refused(tmp_path, capsys, argv[0], g, *argv[1:])
    assert "eps must be adjoined" in err


@pytest.mark.parametrize("g", MISPLACED_EPS.values(), ids=MISPLACED_EPS.keys())
def test_library_refuses_misplaced_eps(g):
    # the presentation and GroupElement hold the rule, so a library caller
    # gets the refusal the CLI gives
    with pytest.raises((AlgebraError, group.GroupError), match="eps must be adjoined"):
        group_from_obj(g)


# a valid p = 2 element: alpha_0 = 1, alpha_1 = z1
UNIT = dict(NON_UNIT_HEAD, k=1, coeffs=[[{"coeff": 1, "exponents": [0]}], [{"coeff": 1, "exponents": [1]}]])


def _with(path, value):
    """A deep copy of UNIT with the entry at path replaced by value."""
    g = json.loads(json.dumps(UNIT))
    *outer, last = path
    target = g
    for key in outer:
        target = target[key]
    target[last] = value
    return g


# every number on the wire must be a JSON integer (not a float, not a bool),
# and every generator name a string
NON_INTEGER = {
    "coeff-1.5": (("coeffs", 1, 0, "coeff"), 1.5),
    "coeff-true": (("coeffs", 1, 0, "coeff"), True),
    "algebra-p-2.0": (("algebra", "p"), 2.0),
    "p-2.0": (("p",), 2.0),
    "k-1.0": (("k",), 1.0),
    "k-true": (("k",), True),
    "flavor-0.0": (("flavor",), 0.0),
    "exponent-true": (("coeffs", 1, 0, "exponents"), [True]),
    "exponent-1.0": (("coeffs", 1, 0, "exponents"), [1.0]),
    "degree-1.0": (("algebra", "generators", 0, "degree"), 1.0),
    "cap-4.0": (("algebra", "generators", 0, "cap"), 4.0),
    "name-1": (("algebra", "generators", 0, "name"), 1),
}


# a list that is not a JSON array, a term whose keys are not exactly coeff and
# exponents, and an unknown key on an object; each once read as a zero
# coefficient or ignored, with exit 0
MALFORMED = {
    "coeff-object": (("coeffs", 1), {}),
    "coeff-string": (("coeffs", 1), ""),
    "coeffs-object": (("coeffs",), {}),
    "generators-object": (("algebra", "generators"), {}),
    "term-extra-key": (("coeffs", 1, 0), {"coeff": 1, "exponents": [1], "bogus": 7}),
    "term-missing-coeff": (("coeffs", 1, 0), {"exponents": [1], "bogus": 7}),
    "term-list": (("coeffs", 1, 0), [1, [1]]),
    "generator-extra-key": (("algebra", "generators", 0, "bogus"), 7),
    "generator-list": (("algebra", "generators", 0), ["z1", 1, 4]),
    "presentation-extra-key": (("algebra", "bogus"), 7),
    "element-extra-key": (("bogus",), 7),
}


@pytest.mark.parametrize("where,value", MALFORMED.values(), ids=MALFORMED.keys())
def test_malformed_lists_and_keys_are_refused(tmp_path, capsys, where, value):
    g = _with(where, value)
    with pytest.raises(SerializeError):
        group_from_obj(g)
    assert_refused(tmp_path, capsys, "invert", g)


def test_unit_element_is_accepted(tmp_path, capsys):
    path = tmp_path / "g.json"
    path.write_text(json.dumps(UNIT))
    assert run(["invert", "--in", str(path)]) == 0


@pytest.mark.parametrize("where,value", NON_INTEGER.values(), ids=NON_INTEGER.keys())
def test_non_integer_numbers_are_refused(tmp_path, capsys, where, value):
    g = _with(where, value)
    with pytest.raises(SerializeError):
        group_from_obj(g)
    assert_refused(tmp_path, capsys, "invert", g)


# alpha_1 = z1^-1 is no element of the algebra; dropping the term as if a cap
# killed it would read alpha_1 = 0
NEGATIVE_EXPONENT = _with(("coeffs", 1, 0, "exponents"), [-1])


def test_negative_exponent_is_refused():
    with pytest.raises(AlgebraError, match="exponent -1 of z1 is negative"):
        group_from_obj(NEGATIVE_EXPONENT)


@pytest.mark.parametrize("command", ["invert", "compose"])
def test_cli_negative_exponent_is_usage_error(tmp_path, capsys, command):
    err = assert_refused(tmp_path, capsys, command, NEGATIVE_EXPONENT)
    assert "exponent -1 of z1 is negative" in err


def assert_refused(tmp_path, capsys, command, g, *options):
    path = tmp_path / "g.json"
    pair = command in ("compose", "commutator")
    path.write_text(json.dumps({"a": g, "b": g} if pair else g))
    code = run([command, "--in", str(path), *options])
    captured = capsys.readouterr()
    assert code == USAGE_ERROR
    assert "error:" in captured.err
    assert captured.out == ""
    return captured.err


# JSON that Python will not read: an int of more than 4300 digits, and arrays
# nested past the recursion limit; each ended in a traceback with exit 1
UNREADABLE_JSON = {
    "cap-of-5001-digits": json.dumps(UNIT).replace('"cap": 4', '"cap": 1' + "0" * 5000),
    "nested-200000-deep": "[" * 200000,
}


@pytest.mark.parametrize("text", UNREADABLE_JSON.values(), ids=UNREADABLE_JSON.keys())
@pytest.mark.parametrize("command", ["invert", "compose"])
def test_cli_unreadable_json_is_usage_error(tmp_path, capsys, command, text):
    path = tmp_path / "g.json"
    path.write_text(text)
    started = time.monotonic()
    code = run([command, "--in", str(path)])
    captured = capsys.readouterr()
    assert (code, captured.out) == (USAGE_ERROR, "")
    # Python's own text after the prefix differs between versions
    assert captured.err.startswith(f"error: cannot read JSON from {path}: ")
    assert captured.err.count("\n") == 1
    assert time.monotonic() - started < 1
