"""The repository benchmark: one command, four seeded workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  The inputs are generated here from
the seed and piped to fresh worker processes, which see only the inputs.

--trace 0 reports the end-to-end metrics.  Every round of units runs in a
fresh worker process, as a CLI user's computation would, so the package's
caches start cold in each and inputs repeated across rounds earn nothing.
Rounds run one after another until their units have taken S seconds.  Set-up
is the median over those processes, topped up with set-up-only ones to
SETUP_SAMPLES.

--trace 1 reports the per-layer metrics.  A fixed number of rounds runs twice,
in two fresh processes: untraced, then with every layer's public entry points
wrapped.  The traced one gives the layer counts and self times, and the ratio
of their busy times is the tracing overhead.

The last line of standard output is the result object; the line before it
holds the details (inputs_sha256, tail percentile, machine, cache_info).
Any failed unit makes the exit status 1.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_build" / "perfbench"

SETUP_SAMPLES = 9
CHILD_TIMEOUT_S = 150
# rounds per traced run, a few seconds of untraced work today
TRACE_ROUNDS = {"group_stream": 3, "finite_groups": 1, "hopf_laws": 1, "milnor_sweep": 1}


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    return env


def last_json_line(proc):
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr.decode(errors="replace"))
        raise SystemExit(f"{proc.args[1]} exited with status {proc.returncode}")
    return json.loads(proc.stdout.decode().strip().splitlines()[-1])


def generate(workload, seed, path):
    """Write the inputs in a process of their own, so this one stays small:
    a child's ru_maxrss starts from its parent's resident size."""
    cmd = [sys.executable, str(HERE / "gen.py"), "--workload", workload,
           "--seed", str(seed), "--out", str(path)]
    proc = subprocess.run(cmd, capture_output=True, timeout=CHILD_TIMEOUT_S,
                          env=child_env(), cwd=ROOT)
    return last_json_line(proc)["inputs_sha256"]


def rounds_of(inputs):
    """The payload's header line, then each round's request lines, in bytes.
    Reads one round at a time."""
    with open(inputs, "rb") as f:
        header = f.readline()
        per_round = json.loads(header)["per_round"]
        yield header
        while True:
            lines = [f.readline() for _ in range(per_round)]
            if not lines[-1]:
                return
            yield b"".join(lines)


def spawn(workload, stdin, *extra):
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload]
    t0 = time.monotonic()
    proc = subprocess.run(
        cmd + ["--t0", repr(t0), *extra], input=stdin, capture_output=True,
        timeout=CHILD_TIMEOUT_S, env=child_env(), cwd=ROOT,
    )
    return last_json_line(proc)


def machine():
    model = None
    try:
        with open("/proc/cpuinfo") as f:
            model = next((ln.split(":", 1)[1].strip() for ln in f if ln.startswith("model name")), None)
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu_model": model or platform.processor() or platform.machine(),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "system": f"{platform.system()} {platform.release()}",
    }


def metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(workload, inputs, seconds, details):
    import stats
    from worker import MAX_ERRORS

    rounds = rounds_of(inputs)
    header = next(rounds)
    reps = []
    busy_raw = 0.0
    for rnd in rounds:
        reps.append(spawn(workload, header + rnd))
        busy_raw += reps[-1]["busy_raw_s"]
        if busy_raw >= seconds:
            break
    first = header + b"".join(itertools.islice(rounds_of(inputs), 1, 2))
    setups = reps + [spawn(workload, first, "--setup-only")
                     for _ in range(SETUP_SAMPLES - len(reps))]
    lat_ms = [s * 1000 for s in stats.latencies([x for rep in reps for x in rep["samples"]])]
    tail = stats.tail(lat_ms)
    if tail is None:
        raise SystemExit(f"only {len(lat_ms)} latency samples; too few for a tail")
    pct, tail_ms, beyond = tail
    units = sum(rep["units"] for rep in reps)
    failed = sum(rep["failed"] for rep in reps)
    details.update(
        setup_samples_s=[s["setup_s"] for s in setups],
        rounds=len(reps),
        busy_s=sum(rep["busy_s"] for rep in reps),
        wall_s=sum(rep["wall_s"] for rep in reps),
        speed_factor=statistics.median(rep["speed_factor"] for rep in reps),
        raw={
            "setup_s": statistics.median([s["setup_raw_s"] for s in setups]),
            "units_per_s": units / busy_raw,
        },
        latency_samples=len(lat_ms),
        tail_percentile=pct,
        tail_beyond=beyond,
        failed_ratio=metric(failed / units, "ratio"),
        errors=[e for rep in reps for e in rep["errors"]][:MAX_ERRORS],
    )
    metrics = {
        "setup_s": metric(statistics.median([s["setup_s"] for s in setups]), "s"),
        "units_per_s": metric(statistics.median(
            [rep["units"] / rep["busy_s"] for rep in reps]), "1/s"),
        "latency_p50_ms": metric(statistics.median(lat_ms), "ms"),
        "latency_tail_ms": metric(tail_ms, "ms"),
        "peak_rss_mb": metric(max(rep["peak_rss_mb"] for rep in reps), "MB"),
    }
    return {"units": units, "failed": failed}, metrics


def per_layer(workload, inputs, details):
    import tracing

    data = b"".join(itertools.islice(rounds_of(inputs), 1 + TRACE_ROUNDS[workload]))
    plain = spawn(workload, data)
    trace_file = OUT / f"spans-{workload}.jsonl"
    traced = spawn(workload, data, "--trace-out", str(trace_file))
    if plain["units"] != traced["units"]:
        raise SystemExit("traced and untraced runs did different work")
    details.update(
        rounds=traced["rounds"],
        busy_s={"untraced": plain["busy_s"], "traced": traced["busy_s"]},
        spans=traced["spans"],
        span_file=str(trace_file.relative_to(ROOT)),
        cache_info=traced["cache_info"],
        errors=plain["errors"] + traced["errors"],
    )
    metrics = {
        name: metric(traced["layers"][name], unit)
        for name, (unit, _) in tracing.PER_LAYER.items()
        if name != "trace.overhead_ratio"
    }
    metrics["trace.overhead_ratio"] = metric(traced["busy_s"] / plain["busy_s"], "ratio")
    failed = plain["failed"] + traced["failed"]
    return {"units": plain["units"] + traced["units"], "failed": failed}, metrics


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "steenrodgroup" / "__init__.py").is_file():
        sys.stderr.write(f"no package source under {SRC}; run from a source checkout\n")
        return 2
    import spec

    if args.workload not in spec.WORKLOADS:
        sys.stderr.write(f"unknown workload {args.workload!r}; choose from {spec.WORKLOADS}\n")
        return 2
    OUT.mkdir(parents=True, exist_ok=True)
    inputs = OUT / f"inputs-{args.workload}-{args.seed}.jsonl"
    try:
        details = {
            "workload": args.workload,
            "seed": args.seed,
            "held_out_seed": spec.HELD_OUT_SEED,
            "inputs_sha256": generate(args.workload, args.seed, inputs),
            "machine": machine(),
        }
        if args.trace:
            rep, metrics = per_layer(args.workload, inputs, details)
        else:
            rep, metrics = end_to_end(args.workload, inputs, args.seconds, details)
    finally:
        inputs.unlink(missing_ok=True)
    correct = rep["failed"] == 0
    print(json.dumps({"details": details}))
    print(json.dumps({
        "correct": correct,
        "attempted": rep["units"],
        "failed": rep["failed"],
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
