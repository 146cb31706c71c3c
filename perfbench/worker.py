"""One measured process: set up a workload from stdin, run its units, report JSON.

    python3 perfbench/worker.py --workload NAME --t0 T [--setup-only] [--trace-out FILE]

Standard input is the payload's header line followed by the request lines of
the rounds this process runs (one round for an end-to-end run).  ``--t0`` is
the CLOCK_MONOTONIC reading taken by the parent just before it started this
process, so set-up time counts interpreter start, imports, preset
construction and reading the requests, up to the first timed unit.

The units run one at a time in a closed loop.  Only ``execute`` is timed;
``prepare`` and the oracle run between timed units.  Reported times are
scaled by the speed probe (see probe.py); the raw times are reported too.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import pkgutil
import resource
import sys
import time

MAX_ERRORS = 5
# kernel runs right after set-up, to scale the set-up time
SETUP_PROBES = 31


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--t0", type=float, required=True)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--trace-out")
    args = ap.parse_args(argv)

    import probe
    import spec
    import units

    stdin = sys.stdin.buffer
    header = json.loads(stdin.readline())
    wl = units.WORKLOADS[args.workload](header)
    per_round = header["per_round"]
    requests = [wl.decode(line.rstrip(b"\n")) for line in stdin]
    if not requests or len(requests) % per_round:
        raise SystemExit(f"expected whole rounds of {per_round} requests, got {len(requests)}")
    rounds = [requests[i:i + per_round] for i in range(0, len(requests), per_round)]

    tracer = None
    if args.trace_out:
        import tracing

        import steenrodgroup

        for info in pkgutil.iter_modules(steenrodgroup.__path__, "steenrodgroup."):
            importlib.import_module(info.name)
        tracer = tracing.Tracer()
        tracing.install(tracer)

    setup_raw = time.monotonic() - args.t0
    speed = probe.Probe(spec.PROBE_KERNEL.get(args.workload, "dict"))
    speed.sample(SETUP_PROBES)
    setup_s = setup_raw * speed.scale(0)
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s, "setup_raw_s": setup_raw}))
        return 0

    units_done = failed = 0
    busy = busy_raw = 0.0
    samples = []
    errors = []
    clock = time.perf_counter
    start = time.monotonic()
    for rnd in rounds:
        for req in rnd:
            n = wl.units(req)
            prepared = wl.prepare(req)
            if tracer is not None:
                tracer.unit = units_done
                tracer.active = True
                tracer.enter("unit")
            during = wl.long_unit(req)
            if wl.collect_before:
                gc.collect()
            if during:
                speed.start()
            mark = speed.mark()
            t = clock()
            try:
                out = wl.execute(prepared)
            except Exception as exc:  # a unit that raises is a failed unit
                out = exc
            dt = clock() - t
            if during:
                speed.stop()
            if tracer is not None:
                tracer.exit()
                tracer.active = False
            if not during:
                speed.after(dt)
            scaled = dt * speed.scale(mark)
            units_done += n
            busy += scaled
            busy_raw += dt
            samples.append(wl.latency(req, scaled))
            try:
                ok = not isinstance(out, Exception) and wl.check(out)
            except Exception as exc:  # an oracle that raises fails its unit
                ok, out = False, exc
            if not ok:
                failed += n
                if len(errors) < MAX_ERRORS:
                    errors.append(f"{req if isinstance(req, dict) else req[:200]}: {out!r}"[:500])

    report = {
        "setup_s": setup_s,
        "setup_raw_s": setup_raw,
        "units": units_done,
        "failed": failed,
        "busy_s": busy,
        "busy_raw_s": busy_raw,
        "speed_factor": speed.overall(),
        "wall_s": time.monotonic() - start,
        "rounds": len(rounds),
        "samples": samples,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "errors": errors,
    }
    if tracer is not None:
        caches = tracing.cache_infos()
        report["layers"] = tracing.layer_metrics(tracer, caches, speed.overall())
        report["cache_info"] = caches
        report["spans"] = len(tracer.spans)
        with open(args.trace_out, "w") as f:
            for span in tracer.spans:
                f.write(json.dumps(span) + "\n")
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
