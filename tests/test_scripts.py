"""The experiment scripts run from any working directory."""

import hashlib
import importlib.util
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

from steenrodgroup import cli, grouptheory

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def run_script(name, *args, cwd, env=None):
    return subprocess.run(
        [sys.executable, str(SCRIPTS / name), *args],
        cwd=cwd,
        env={**os.environ, **(env or {})},
        capture_output=True,
        text=True,
        timeout=300,
    )


def test_sweep_script_outside_repo(tmp_path):
    done = run_script("sweep_finite_groups.py", "--p", "2", cwd=tmp_path)
    assert done.returncode == 0, done.stderr
    assert "order=     8" in done.stdout
    # the defaults: the whole grid, both primes
    done = run_script("sweep_finite_groups.py", cwd=tmp_path)
    assert done.returncode == 0, done.stderr
    assert "order=     8" in done.stdout and "order=    81" in done.stdout


def test_sweep_script_limit_is_usage_error(tmp_path):
    done = run_script("sweep_finite_groups.py", "--p", "3", cwd=tmp_path, env={"STEENROD_LIMIT": "5"})
    assert done.returncode == 2
    assert done.stderr.startswith("error: ")
    assert "Traceback" not in done.stderr


def _sweep_script():
    spec = importlib.util.spec_from_file_location("sweep_finite_groups", SCRIPTS / "sweep_finite_groups.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# a check of grouptheory forced to fail -> the CSV ok column of the grid rows
BROKEN_ROW_CHECKS = {
    "check_filtration_bounds": (lambda real: lambda G: False, ["False"] * 4),
    "ev_subgroup_series": (lambda real: lambda *args: replace(real(*args), ok=False), ["True", "True", "False", "False"]),
}


@pytest.mark.parametrize("check", sorted(BROKEN_ROW_CHECKS))
def test_cli_sweep_and_script_share_the_row_verdict(monkeypatch, capsys, check):
    breaker, column = BROKEN_ROW_CHECKS[check]
    monkeypatch.setattr(grouptheory, check, breaker(getattr(grouptheory, check)))
    assert cli.run(["sweep"]) == 1
    assert [line.rsplit(",", 1)[1] for line in capsys.readouterr().out.splitlines()[1:]] == column
    assert _sweep_script().run() == 1
    # lcs judges its class alone, and the eps-free class only with --ev
    assert cli.run(["lcs", "--p", "3", "--n", "1"]) == 0


def test_cocommutativity_script_outside_repo(tmp_path):
    done = run_script("cocommutativity_minimality.py", "--p", "2", "--N", "2", cwd=tmp_path)
    assert done.returncode == 0, done.stderr
    assert "chain complete" in done.stdout
    # the defaults, p = 2 and 3 at N = 3: the odd-p chain builds quotients
    # without t0, where the coproduct of t1 must drop its tau_0 terms
    done = run_script("cocommutativity_minimality.py", cwd=tmp_path)
    assert done.returncode == 0, done.stderr
    assert done.stdout.count("chain complete") == 2
    assert "kill x_i^3 for i <= 0 -> defects at ['t2', 't3', 'x2', 'x3']" in done.stdout


def test_sweep_script_prime_outside_grid_is_usage_error(tmp_path):
    done = run_script("sweep_finite_groups.py", "--p", "5", cwd=tmp_path)
    assert done.returncode == 2
    assert "choose from 2, 3" in done.stderr


# sha256 of the stdout of cocommutativity_minimality.py, recorded before its
# partial quotients were built by `hopf.quotient`
FORCING_CHAIN = {
    "": "2857f3713dd8fb6d7c729afcd62980058bd4db16ddaff3a4a9fc41889ee071c7",
    "--p 2": "4ff1aff67b8a7ad8e381b8cbf8e6bf1324026cd52fae9dbbf7f12b4c7c3c1d79",
    "--p 3": "dadc000113fb9725e4ef139edc342978f72e59bd7baef570dadb311261c2012a",
    "--p 5 --N 3": "a7fafcc8db7688ecb5c5c9d6944bb95d67662cbcfd488d014e7fdf53b7d569ee",
    "--p 3 --N 4": "cf3bcbfa5304a39c3d3ad32920fc8599efe6eed7e038e6ffccc4be2dd2450fc2",
}


@pytest.mark.parametrize("args", sorted(FORCING_CHAIN))
def test_cocommutativity_script_bytes(tmp_path, args):
    done = run_script("cocommutativity_minimality.py", *args.split(), cwd=tmp_path)
    assert done.returncode == 0, done.stderr
    assert hashlib.sha256(done.stdout.encode()).hexdigest() == FORCING_CHAIN[args]


@pytest.mark.parametrize("args", [["--p", "4"], ["--p", "0"], ["--N", "0"], ["--N", "-1"], ["--N", "65"]])
def test_cocommutativity_script_bad_argument_is_usage_error(tmp_path, args):
    done = run_script("cocommutativity_minimality.py", *args, cwd=tmp_path)
    assert (done.returncode, done.stdout) == (2, "")
    assert "error: argument" in done.stderr and "Traceback" not in done.stderr
