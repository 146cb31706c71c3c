"""The experiment scripts run from any working directory."""

import os
import subprocess
import sys
from pathlib import Path

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
