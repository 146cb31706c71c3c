"""The boundary as a whole: one refusal type, and a fuzzer over the CLI."""

import copy
import importlib
import inspect
import json
import pkgutil
import random

from hypothesis import HealthCheck, event, given, settings
from hypothesis import strategies as st

import steenrodgroup
from steenrodgroup import SteenrodError, cli
from steenrodgroup.group import MAX_LEVEL
from steenrodgroup.sampling import random_group_element
from steenrodgroup.serialize import group_from_obj, group_to_obj
from steenrodgroup.verify import group_test_algebra


def _modules():
    for info in pkgutil.iter_modules(steenrodgroup.__path__):
        yield importlib.import_module(f"steenrodgroup.{info.name}")


def test_every_exception_class_is_a_steenrod_error():
    defined = [
        cls
        for module in _modules()
        for _, cls in inspect.getmembers(module, inspect.isclass)
        if cls.__module__ == module.__name__ and issubclass(cls, BaseException)
    ]
    assert len(defined) >= 8  # the base and one class per refusing module
    assert [cls.__name__ for cls in defined if not issubclass(cls, SteenrodError)] == []


# -- a fuzzer over the whole CLI ----------------------------------------------
#
# Every example runs `cli.run` in process.  It must return 0, 1 or 2 and raise
# nothing, and a group element it prints must read back.  Sizes are drawn small
# so that an admitted run is quick; the edge values are what a bound or a type
# check must refuse.

EDGE_NUMBERS = ["-1", "-3", str(10**30), str(-(10**30)), "0"]
NOT_INTEGERS = ["", "abc", "1.5", "true", "2e3", "0x11", "--"]


def _arg(small):
    """An option value: four times in five a small int, else an edge number or a non-integer."""
    edge = st.sampled_from(EDGE_NUMBERS + NOT_INTEGERS)
    return st.integers(0, 4).flatmap(lambda r: edge if r == 0 else small.map(str))


def _options(**values):
    """argv pieces `--name value` for a drawn subset of the options."""
    drawn = [st.one_of(st.just([]), v.map(lambda x, n=name: [f"--{n}", x])) for name, v in values.items()]
    return st.tuples(*drawn).map(lambda parts: [w for part in parts for w in part])


PRIMES = _arg(st.sampled_from([2, 3, 5, 4, 1]))
COMMANDS = {
    "partitions": st.tuples(_arg(st.integers(-1, 10))).map(list),
    "lcs": st.tuples(_options(p=PRIMES, n=_arg(st.integers(0, 2))), st.sampled_from([[], ["--ev"]])).map(
        lambda t: t[0] + t[1]
    ),
    "sweep": _options(p=_arg(st.sampled_from([2, 3, 5]))),
    "hopf": st.tuples(
        st.sampled_from(["A_dual", "A", "A_ev", "A_angle", "A_mod_I", "A_mod_J", "nope"]),
        _options(p=PRIMES, k=_arg(st.integers(0, 4)), n=_arg(st.integers(0, 4)), N=_arg(st.integers(0, 4)),
                 D=_arg(st.integers(-2, 40))),
    ).map(lambda t: ["--preset", t[0]] + t[1]),
    "milnor": st.tuples(
        st.sampled_from(["in-j", "in-span"]),
        _options(p=PRIMES, k=_arg(st.integers(0, 4))),
        _options(E=st.lists(st.integers(-1, 2), max_size=3).map(lambda v: ",".join(map(str, v))),
                 R=st.one_of(st.lists(st.integers(-1, 30), max_size=4).map(lambda v: ",".join(map(str, v))),
                             st.sampled_from(NOT_INTEGERS + [str(10**30)]))),
    ).map(lambda t: [t[0]] + ["--p", "2"] * (not any(w == "--p" for w in t[1])) + t[1] + t[2]),
    # --samples always, so that no example runs the default 50; p = 2 alone,
    # as one run at p = 3 takes 0.4 s whatever k
    "verify": st.tuples(
        _arg(st.integers(1, 2)),
        _options(p=_arg(st.just(2)), k=_arg(st.integers(0, 4)), seed=_arg(st.integers(0, 9))),
    ).map(lambda t: ["--samples", t[0]] + t[1]),
}
# the commands that read --in get a path that cannot be read as JSON here;
# test_fuzz_input_json gives them files
for command in ("compose", "commutator", "invert", "filtration", "rho"):
    COMMANDS[command] = _options(**{"in": st.sampled_from(["/nonexistent/g.json", "", "."])})
# each example shares the capsys and tmp_path_factory fixtures, and reads and
# resets the captured output itself
FUZZ = settings(suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow])


def _run(capsys, argv):
    code = cli.run(argv)
    event(f"{argv[0]} exit {code}")  # shown by --hypothesis-show-statistics
    captured = capsys.readouterr()
    assert code in (0, 1, 2), argv
    assert "Traceback" not in captured.err
    if code == 2:
        assert captured.out == "" and captured.err.startswith(("error: ", "usage: ")), (argv, captured.err)
    return code, captured.out


@settings(FUZZ, max_examples=120)
@given(st.sampled_from(sorted(COMMANDS)).flatmap(lambda c: COMMANDS[c].map(lambda rest: [c] + rest)),
       st.sampled_from([[]] * 8 + [["--bogus"], ["extra"]]))
def test_fuzz_argv(capsys, argv, junk):
    code, out = _run(capsys, argv + junk)
    if junk:
        assert code == 2
    if code == 0 and argv[0] != "sweep":
        json.loads(out)


# a JSON value out of place: each must be refused by a type check or a bound
# (the sentinels are written out raw: an int of 5001 digits, arrays nested
# 500 deep, which Python reads, and 100000 deep, which it does not)
HUGE, NESTED, DEEP = "@huge@", "@nested@", "@deep@"
EDGE_VALUES = [-1, 10**30, "7", True, 1.5, None, [], {}, [[1]], HUGE, NESTED, DEEP]
RAW = {
    f'"{HUGE}"': "1" + "0" * 5000,
    f'"{NESTED}"': "[" * 500 + "1" + "]" * 500,
    f'"{DEEP}"': "[" * 100000 + "]" * 100000,
}


def _bases():
    """Valid group elements over the sample algebras: p = 2 and 3, k <= 3,
    level 0, 1 and MAX_LEVEL, where rho's output is refused."""
    out = []
    for i, (p, k, level) in enumerate([(2, 1, 0), (2, 3, 0), (3, 2, 0), (3, 1, 1), (2, 0, 0), (2, 1, MAX_LEVEL)]):
        g = random_group_element(random.Random(i), p, k, group_test_algebra(p), level)
        out.append(group_to_obj(g))
    return out


BASES = _bases()


def _mutated(data, value):
    """value with at most one entry, found by a random walk, replaced,
    dropped or joined by an unknown key."""
    value = copy.deepcopy(value)
    parent, key = None, None
    node = value
    while isinstance(node, (dict, list)) and node and data.draw(st.booleans(), label="descend"):
        keys = sorted(node) if isinstance(node, dict) else range(len(node))
        parent, key = node, data.draw(st.sampled_from(list(keys)), label="key")
        node = parent[key]
    action = data.draw(st.sampled_from(["replace", "drop", "extra"]), label="action")
    if action == "extra" and isinstance(node, dict):
        node["bogus"] = 1
    elif action == "drop" and isinstance(parent, dict):
        del parent[key]
    elif action == "drop" and isinstance(parent, list):
        parent.pop(key)
    elif parent is None:
        return data.draw(st.sampled_from(EDGE_VALUES), label="edge")
    else:
        parent[key] = data.draw(st.sampled_from(EDGE_VALUES), label="edge")
    return value


def _text(obj):
    text = json.dumps(obj)
    for sentinel, raw in RAW.items():
        text = text.replace(sentinel, raw)
    return text


@settings(FUZZ, max_examples=150)
@given(st.sampled_from(["compose", "commutator", "invert", "filtration", "rho"]), st.data())
def test_fuzz_input_json(capsys, tmp_path_factory, command, data):
    a = data.draw(st.sampled_from(BASES), label="a")
    obj = {"a": a, "b": data.draw(st.sampled_from([a] * 3 + BASES), label="b")}
    if command not in ("compose", "commutator"):
        obj = a
    # one in three inputs is left valid; the others get one mutation, in a
    # pair at the top, in "a" or in "b"
    where = data.draw(st.sampled_from([None, "top", "a", "b"] if obj is not a else [None, "top", "top"]))
    if where == "top":
        obj = _mutated(data, obj)
    elif where is not None:
        obj = dict(obj, **{where: _mutated(data, obj[where])})
    options = data.draw(st.sampled_from([[], ["--method", "closed"], ["--method", "split"]]), label="method")
    path = tmp_path_factory.mktemp("fuzz") / "in.json"
    path.write_text(_text(obj))
    code, out = _run(capsys, [command, "--in", str(path)] + (options if command == "invert" else []))
    if code == 0 and command != "filtration":
        group_from_obj(json.loads(out))
