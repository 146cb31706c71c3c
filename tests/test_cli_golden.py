"""CLI output pinned byte for byte across changes to the program.

Each case is the exit code and the sha256 of stdout of one command, or the
stderr text of a refused command, as recorded from a reference run.  A rewrite
that changes any output byte fails here; a change of output that is meant must
record new hashes.
"""

import hashlib
import json
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
    "lcs --p 7 --n 1 --ev": (0, "8f71f4bd471e902072332388fe7ac6d6c3d30b71a930fb51adb90487490cd3a7"),
    "lcs --p 2 --n 4": (0, "328614c9916cc90bb9b3c71450429d66cc6d6549d08078cf85da9269615c6062"),
    "lcs --p 3 --n 2 --ev": (0, "4d4bf5bd83e6c17964ce2bf88cd84c6ac06fb65ee647368dde217d19961c67cf"),
    "hopf --preset A_dual --p 3 --k 1 --N 3": (0, "0f12ae7f29f98adefe9e55c67cb09a96c638eed54d8ab0f1e171949fe5876ef9"),
    "hopf --preset A --p 3 --k 1 --N 3": (0, "75dd311d1416dcbc02a0cd357209222b42ca211db0f541090758826578407bda"),
    "hopf --preset A_ev --p 3 --k 1 --N 3": (0, "715f1d75f9e326a6ab3bb1c89707022bb256082001d6d92645a61408c30d22c3"),
    "hopf --preset A_angle --p 3 --k 1 --N 3": (0, "c78fa62a968f05474066dedb13f0c329987f67ff7594da3304478d682b06e603"),
    "hopf --preset A_mod_I --p 3 --k 1 --N 3": (0, "e7e97c85ed303b5ddeedfa6e9b2d66807b8dd74ccde0d4c4a23f98775307234c"),
    "hopf --preset A_mod_J --p 3 --k 1 --N 3": (0, "d4576220a595ea96cd8cb1e0808145cc8ba45ff5b99a64b613542b2726b61f43"),
    "hopf --preset A_dual --p 2 --N 4": (0, "a2a228dd18f9f11e2888da605ebc6c6c38fb61a88b85dc6a822638a90610b0f8"),
    "hopf --preset A_dual --p 2 --N 9": (0, "8c6728b26e0386e4f50b6563d488f3ebf1cbddef4435d604c877d4d9f8f633d2"),
    "hopf --preset A_dual --p 2 --N 15": (0, "e4084bbdf926c186b5a345bc3d2eff0137d8fb67821eabbc353b006bc9bb4c47"),
    "hopf --preset A --p 2 --n 3": (0, "ee0a0dee9ff7b67aa5526b78bab5c4228dd600f18016bd005879f510b1c77216"),
    "hopf --preset A_mod_J --p 2 --k 1 --N 4": (0, "24ce4eeba38f302d52ee38c28eb727edcc71d801c0abef468490d445006ff626"),
    "milnor in-j --p 2 --k 0 --R 1,1,1": (0, "6b9c06976b243775ad18e56981ed7534fab3185484e139563b2ed7309c1dad46"),
    "milnor in-j --p 2 --k 1 --R 4": (0, "bbbd6123e6f97debf0d7b6a8d4229ff7bc7187e1aa51596342ce7e1f89530594"),
    "milnor in-span --p 2 --k 1 --R 3,3": (0, "97eecba783d2832446f581e02d098758009ce017eef2d0709f68593686a7bbc2"),
    "milnor in-span --p 2 --k 0 --R 0,2": (0, "b27841632047ea30ad1a63ed2e1a8d38a7f722062581ba284a5b7c3b81904ead"),
    "milnor in-j --p 3 --k 0 --E 1": (0, "2c805b3bebde8dd20ee7d427a31bab659460321e51485f3c54518a92eb36dae5"),
    "milnor in-j --p 3 --k 0 --E 0,1,1 --R 2,2": (0, "0c3f138a263a688447583fa4d4a98ebeb04cd58e4524934fbc7b1b2e411e090c"),
    "milnor in-span --p 3 --k 0 --E 0,1 --R 2,2": (0, "48159337ed6ca40ed3a679b0f6500034e24564f95e8a87f56f12d0df5647853e"),
    "milnor in-span --p 3 --k 0 --E 1 --R 1": (0, "5bfbfdbd4df8d4509013c3048e9ce047563b791c6b90dda5b915d37aacc30e22"),
    "milnor in-j --p 3 --k 2 --R 0,27": (0, "d343b52b3d9b0883f97905213baf2b49381e96830487a2859755cc45ef5ded85"),
    "milnor in-j --p 3 --k 1 --E 1,1 --R 8,8,0,0": (0, "3e4d1f56cb18fafd46d1a89f60c7551d26031a835fd7febafe66aaa81fff5609"),
    "milnor in-span --p 3 --k 1 --E 1,1 --R 8,8,0,0": (0, "95585ef933362efe88e1de0b176ca7fabdd2337b3e7599494fc11f492f7f263d"),
    "milnor in-span --p 3 --k 2 --R 26,27": (0, "7783da626f0dabe2605c7f0fe44f2bb9c7d47793fda91b579e4cb32eb1565664"),
}

# command -> stderr of a refusal: exit 2 and nothing on stdout
REFUSED = {
    "milnor in-j --p 3 --R=-1,2": "error: sequence entries must be non-negative\n",
    "milnor in-span --p 3 --E 2 --R 1": "error: exterior exponents must be 0 or 1\n",
    "milnor in-j --p 2 --E 1 --R 1": "error: p = 2 monomials carry no exterior part\n",
    "milnor in-span --p 2 --E 1 --R 1": "error: p = 2 symbols carry no exterior part\n",
    "hopf --preset A_dual --p 2 --N 16": (
        "error: checking A_dual(p=2) needs 196605 words of antipode terms,"
        " over the limit 100000 (STEENROD_LIMIT)\n"
    ),
    "hopf --preset A_dual --p 2 --N 2 --D -5": "error: D = -5 is negative\n",
    # more generators than the recursion limit, and caps past float range
    "lcs --p 2 --n 1000": "error: group order 2^17 or more is over the limit 100000 (STEENROD_LIMIT)\n",
    "lcs --p 3 --n 600": "error: group order 3^11 or more is over the limit 100000 (STEENROD_LIMIT)\n",
    "lcs --p 2 --n 1100": "error: group order 2^17 or more is over the limit 100000 (STEENROD_LIMIT)\n",
    "lcs --p 2 --n 2000": "error: group order 2^17 or more is over the limit 100000 (STEENROD_LIMIT)\n",
    # refused before A(n) is built; both ran for minutes
    "lcs --p 2 --n 1000000000000000000000000000000": (
        "error: group order 2^17 or more is over the limit 100000 (STEENROD_LIMIT)\n"
    ),
    "lcs --p 2147483647 --n 2000": "error: group order 2147483647^1 or more is over the limit 100000 (STEENROD_LIMIT)\n",
}


def _series(k):
    """The identity series at p = 2 over one generator, truncated at k."""
    return {
        "p": 2,
        "k": k,
        "flavor": 0,
        "algebra": {"p": 2, "generators": [{"name": "z1", "degree": 1, "cap": 4}]},
        "coeffs": [[{"coeff": 1, "exponents": [0]}]] + [[] for _ in range(k)],
    }


# a prime above algebra.MAX_PRIME on the wire
_BIG_PRIME = 1000000000000000003


def _unprintable_degree():
    """A series at p = 1000003, k = 800 whose alpha_800 is x of degree 2: its
    degree coeff_degree(p, 0, 800) has about 4800 digits, more than Python prints."""
    p, k = 1000003, 800
    gens = [{"name": "x", "degree": 2, "cap": None}, {"name": "eps", "degree": -1, "cap": 2}]
    coeffs = [[{"coeff": 1, "exponents": [0, 0]}]] + [[] for _ in range(k - 1)] + [[{"coeff": 1, "exponents": [1, 0]}]]
    return {"p": p, "k": k, "flavor": 0, "algebra": {"p": p, "generators": gens}, "coeffs": coeffs}


# command reading an --in file, then what the case is if one command has
# several -> (the file's JSON, stderr of the refusal); k = 1001 is one above
# serialize.MAX_WIRE_K, and commutator's a is admitted; the flavor and the
# prime, each above its bound, both ran for minutes; rho at the level bound
# would write a flavor that the reader refuses
REFUSED_IN = {
    "compose": ({"a": _series(1001), "b": _series(1001)}, "error: truncation k = 1001 above the wire bound 1000\n"),
    "commutator": ({"a": _series(1), "b": _series(1001)}, "error: truncation k = 1001 above the wire bound 1000\n"),
    "invert": (_series(1001), "error: truncation k = 1001 above the wire bound 1000\n"),
    "filtration": (dict(_series(1), flavor=10**30), f"error: flavor = {10**30} above the level bound 256\n"),
    "rho": (
        dict(_series(1), p=_BIG_PRIME, algebra=dict(_series(1)["algebra"], p=_BIG_PRIME)),
        f"error: p = {_BIG_PRIME} above the prime bound 2147483647\n",
    ),
    "filtration of an unprintable degree": (
        _unprintable_degree(),
        "error: coefficient alpha_800 is not homogeneous of degree coeff_degree(1000003, 0, 800),"
        " an int of 15947 bits\n",
    ),
    "rho at the level bound": (dict(_series(1), flavor=256), "error: flavor = 257 above the level bound 256\n"),
}


@pytest.mark.parametrize("command", sorted(GOLDEN))
def test_cli_output_bytes(capsys, command):
    code = run(command.split())
    out = capsys.readouterr().out
    assert (code, hashlib.sha256(out.encode()).hexdigest()) == GOLDEN[command]


@pytest.mark.parametrize("command", sorted(REFUSED))
def test_cli_refusal_bytes(capsys, command):
    code = run(command.split())
    captured = capsys.readouterr()
    assert (code, captured.out, captured.err) == (2, "", REFUSED[command])


@pytest.mark.parametrize("command", sorted(REFUSED_IN))
def test_cli_refusal_bytes_of_an_input_file(tmp_path, capsys, command):
    obj, err = REFUSED_IN[command]
    path = tmp_path / "in.json"
    path.write_text(json.dumps(obj))
    code = run([command.split()[0], "--in", str(path)])
    captured = capsys.readouterr()
    assert (code, captured.out, captured.err) == (2, "", err)


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
