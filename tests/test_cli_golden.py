"""CLI output pinned byte for byte across changes to the program.

Each case is the exit code and the sha256 of stdout of one command, as
recorded from a reference run.  A rewrite that changes any output byte fails
here; a change of output that is meant must record new hashes.
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

from steenrodgroup.cli import run

# command -> (exit code, sha256 of stdout)
GOLDEN = {
    "verify --p 2 --k 4 --seed 0 --samples 20": (0, "38978665999e9484613c94175423082f59d05dcb21dcd01029945838e637e379"),
    "verify --p 3 --k 4 --seed 0 --samples 20": (0, "094d7be319adb52dcd4eded1d891dc0c50e44eedf3ece004f15242238e02ec54"),
    "verify --p 5 --k 4 --seed 0 --samples 20": (0, "ee54a37a68c216d0d051e213b128a07fd6d5a66b4c636d110880ee5e58e9c791"),
    "sweep": (0, "d848cd5d45eaa7aed5dea3ff91615a92b2ec7d787cc4a893e7158a90cbac466b"),
    "lcs --p 3 --n 1 --ev": (0, "50149437090b865a01c7b454977819077c567c67760f54a6df8e22cec5ff343b"),
    "lcs --p 5 --n 1 --ev": (0, "385a9e7ee86b58f7c4601bb94a6fb31fd87407bcfa0caaedf6075b6ba06cbf28"),
    "hopf --preset A_dual --p 3 --k 1 --N 3": (0, "f6f3045be34b457ae1a8579e75e178b826c31d81f4131dfe670733bdf2f34d88"),
    "hopf --preset A --p 3 --k 1 --N 3": (0, "75dd311d1416dcbc02a0cd357209222b42ca211db0f541090758826578407bda"),
    "hopf --preset A_ev --p 3 --k 1 --N 3": (0, "715f1d75f9e326a6ab3bb1c89707022bb256082001d6d92645a61408c30d22c3"),
    "hopf --preset A_angle --p 3 --k 1 --N 3": (0, "c78fa62a968f05474066dedb13f0c329987f67ff7594da3304478d682b06e603"),
    "hopf --preset A_mod_I --p 3 --k 1 --N 3": (0, "e7e97c85ed303b5ddeedfa6e9b2d66807b8dd74ccde0d4c4a23f98775307234c"),
    "hopf --preset A_mod_J --p 3 --k 1 --N 3": (0, "d4576220a595ea96cd8cb1e0808145cc8ba45ff5b99a64b613542b2726b61f43"),
}


@pytest.mark.parametrize("command", sorted(GOLDEN))
def test_cli_output_bytes(capsys, command):
    code = run(command.split())
    out = capsys.readouterr().out
    assert (code, hashlib.sha256(out.encode()).hexdigest()) == GOLDEN[command]


def test_module_entry_point_prints_golden_sweep():
    src = str(Path(__file__).resolve().parent.parent / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-m", "steenrodgroup.cli", "sweep"],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        timeout=300,
    )
    assert (done.returncode, hashlib.sha256(done.stdout).hexdigest()) == GOLDEN["sweep"]
