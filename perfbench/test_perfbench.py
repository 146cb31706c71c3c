"""Tests for the benchmark's own helpers.

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

import importlib
import json
import pkgutil
import random
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
for p in (str(HERE), str(ROOT / "src")):
    if p not in sys.path:
        sys.path.insert(0, p)

import steenrodgroup  # noqa: E402

import gen  # noqa: E402
import probe  # noqa: E402
import spec  # noqa: E402
import stats  # noqa: E402
import tracing  # noqa: E402
import units  # noqa: E402

for _info in pkgutil.iter_modules(steenrodgroup.__path__, "steenrodgroup."):
    importlib.import_module(_info.name)

from steenrodgroup import group, grouptheory, hopf, serialize  # noqa: E402


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_self_time_subtracts_child_spans():
    clock = FakeClock()
    t = tracing.Tracer(clock=clock, aggregated=frozenset({"leaf"}))
    t.unit = 7
    t.enter("outer")          # 0
    clock.now = 1.0
    t.enter("mid")            # 1
    clock.now = 2.0
    t.enter("leaf")           # 2
    clock.now = 4.0
    t.exit()                  # leaf: 2 s
    t.enter("leaf")
    clock.now = 5.0
    t.exit()                  # leaf: 1 s
    clock.now = 7.0
    t.exit()                  # mid: 6 s, 3 s in leaves
    clock.now = 10.0
    t.exit()                  # outer: 10 s, 6 s in mid
    assert t.self_time("leaf") == 3.0
    assert t.self_time("mid") == 3.0
    assert t.self_time("outer") == 4.0
    assert t.calls("leaf") == 2 and t.calls("leaf", parent="mid") == 2
    assert t.calls("leaf", parent="outer") == 0
    # aggregated spans keep no record; the others keep start/end/parent/unit
    assert t.spans == [("outer", 0.0, 10.0, None, 7), ("mid", 1.0, 7.0, 0, 7)]


def test_self_time_is_recorded_when_the_call_raises():
    clock = FakeClock()
    t = tracing.Tracer(clock=clock)

    def boom():
        clock.now += 1.0
        raise ValueError

    traced = tracing.wrap(t, "boom", boom)
    with pytest.raises(ValueError):
        traced()
    assert t.calls("boom") == 1 and t.self_time("boom") == 1.0 and not t.stack


@pytest.mark.parametrize("n, pct, beyond", [
    (19, None, None),   # even the median has only 9 beyond
    (20, 50.0, 10),
    (100, 90.0, 10),
    (199, 90.0, 19),
    (200, 95.0, 10),
    (999, 95.0, 49),
    (1000, 99.0, 10),
    (10000, 99.9, 10),
])
def test_tail_is_highest_percentile_with_ten_beyond(n, pct, beyond):
    got = stats.tail(list(range(n, 0, -1)))
    if pct is None:
        assert got is None
        return
    assert got[0] == pct and got[2] == beyond
    assert got[1] == n - beyond  # nearest rank on the values 1..n


def test_tracer_wraps_every_binding():
    t = tracing.Tracer()
    uninstall = tracing.install(t)
    try:
        for layer, targets in tracing.LAYERS.items():
            for where, attr in targets:
                if where.startswith("class:"):
                    continue
                wrapped = getattr(sys.modules[f"steenrodgroup.{where}"], attr)
                original = wrapped.__wrapped__
                for name, mod in sys.modules.items():
                    if name.startswith("steenrodgroup"):
                        assert all(v is not original for v in vars(mod).values()), (layer, name)
        alg = hopf.milnor_quotient(2, 1).algebra
        x = alg.gen("z1")
        hopf.frobenius(x, 1)
        e = group.identity(2, 1, alg)
        grouptheory.compose(e, e)
    finally:
        uninstall()
    # compose at k = 1 takes 3 Frobenius powers and 3 products; one more
    # Frobenius call came through hopf's binding
    assert t.calls("group.compose") == 1
    assert t.calls("algebra.frobenius", parent="group.compose") == 3
    assert t.calls("algebra.frobenius") == 4
    assert t.calls("algebra.mul", parent="group.compose") == 3
    # uninstalling restores the originals
    assert not hasattr(grouptheory.compose, "__wrapped__")
    assert not hasattr(steenrodgroup.algebra.AlgebraElement.__mul__, "__wrapped__")


def test_layer_metrics_match_benchmark_json():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {m["name"]: (m["unit"], m["better"]) for m in bench["per_layer"]}
    assert declared == tracing.PER_LAYER
    t = tracing.Tracer()
    values = tracing.layer_metrics(t, tracing.cache_infos())
    assert set(values) | {"trace.overhead_ratio"} == set(tracing.PER_LAYER)
    assert {w["name"] for w in bench["workloads"]} == set(spec.WORKLOADS)
    assert set(gen.PAYLOADS) == set(units.WORKLOADS) == set(spec.WORKLOADS)


@pytest.mark.parametrize("workload", ["finite_groups", "hopf_laws", "milnor_sweep"])
def test_same_seed_same_inputs(workload):
    a = gen.payload(workload, 5)
    assert gen.sha256(a) == gen.sha256(gen.payload(workload, 5))
    assert gen.sha256(a) != gen.sha256(gen.payload(workload, 6))


def test_inputs_match_recorded_digests():
    baseline = json.loads((HERE / "baseline.json").read_text())
    for workload, digest in baseline["inputs_sha256_seed0"].items():
        assert gen.sha256(gen.payload(workload, 0)) == digest, workload


def test_group_stream_inputs_are_never_repeated():
    lines = gen.payload("group_stream", 1).splitlines()[1:]
    seen = set()
    for line in lines:
        req = json.loads(line)
        for key in ("a", "b"):
            if key in req:
                coeffs = json.dumps(req[key]["coeffs"])
                assert coeffs not in seen
                seen.add(coeffs)


def _request(op):
    alg = gen.group_algebra(3, "sparse")
    rng = random.Random(op)
    s = gen.ElementSampler(rng, 3, 4, alg, set())
    req = {"op": op, "a": s.uniform(), "kill": s.kill_set()}
    if op in spec.BINARY_OPS:
        req["b"] = s.uniform()
    return req


@pytest.mark.parametrize("op", ["compose", "commutator", "invert_recursive", "invert_closed", "invert_split", "rho"])
def test_group_oracle_accepts_right_and_rejects_wrong(op):
    wl = units.GroupStream({})
    req = _request(op)
    out = wl.execute(json.dumps(req))
    assert wl.check(out)
    # turn the constant term 1 of alpha_0 into 2; every quotient keeps it
    bad = json.loads(out[2])
    bad["coeffs"][0] = [
        t if any(t["exponents"]) else dict(t, coeff=2) for t in bad["coeffs"][0]
    ]
    wrong = serialize.group_from_obj(bad)
    assert not wl.check((req, wrong, json.dumps(bad)))


def test_filtration_oracle_uses_the_generated_level():
    wl = units.GroupStream({})
    s = gen.ElementSampler(random.Random(0), 3, 5, gen.group_algebra(3, "sparse"), set())
    for _ in range(20):
        a, level2 = s.with_level()
        out = wl.execute(json.dumps({"op": "filtration_level", "a": a, "level2": level2}))
        assert wl.check(out)
        req, level, text = out
        assert not wl.check((dict(req, level2=level2 + 1), level, text))


def test_grid_tuples_follow_criterion_9_order():
    import itertools

    for grid in spec.MILNOR_GRIDS:
        p, k, hi, e_len, _ = grid
        e_all = list(itertools.product((0, 1), repeat=e_len)) if e_len else [()]
        expected = ((E, R) for R in itertools.product(range(hi), repeat=4) for E in e_all)
        for i, pair in enumerate(itertools.islice(expected, 3000)):
            assert spec.grid_tuple(grid, i) == pair
        size = spec.grid_size(grid)
        assert size == hi**4 * len(e_all)
        assert spec.grid_tuple(grid, size - 1) == ((1,) * e_len, (hi - 1,) * 4)
        with pytest.raises(IndexError):
            spec.grid_tuple(grid, size)


def test_milnor_rounds_are_criterion_9_passes():
    """Each round sweeps every whole grid once and draws new spot tuples; no
    tuple repeats within a round, and drawn tuples never repeat in the pool."""
    lines = gen.payload("milnor_sweep", 3).splitlines()
    header = json.loads(lines[0])
    per_round = header["per_round"]
    drawn_all = []
    for r in range(header["rounds"]):
        covered = {}
        for line in lines[1 + r * per_round:1 + (r + 1) * per_round]:
            req = json.loads(line)
            idx = req["indices"] if "indices" in req else range(
                req["start"], req["start"] + req["count"])
            assert 0 < len(idx) <= spec.MILNOR_BLOCK
            covered.setdefault(req["grid"], []).extend(idx)
        for g, grid in enumerate(spec.MILNOR_GRIDS):
            got = covered[g]
            assert len(set(got)) == len(got)
            if grid[4] is None:
                assert sorted(got) == list(range(spec.grid_size(grid)))
            else:
                assert len(got) == grid[4]
                drawn_all += [(g, i) for i in got]
    assert len(set(drawn_all)) == len(drawn_all)


def test_pooled_latencies_weigh_each_key_equally():
    samples = [(None, 1.0), (None, 2.0), ("big", 9.0), ("big", 7.0), ("big", 8.0), ("small", 0.5)]
    out = stats.latencies(samples)
    assert out[:2] == [1.0, 2.0]
    assert out.count(8.0) == out.count(0.5) == stats.PER_KEY
    assert len(out) == 2 + 2 * stats.PER_KEY


def test_probe_thread_samples_again_after_a_restart():
    """The worker starts and stops the background sampler around each long unit."""
    speed = probe.Probe("product")
    for _ in range(2):
        before = speed.mark()
        speed.start()
        time.sleep(5 * probe.PERIOD_S)
        speed.stop()
        assert speed.mark() > before
    assert speed.scale(before) > 0
