#!/usr/bin/env python3
"""irmlab benchmark: time to a verdict, end to end and per layer.

    python3 perfbench/run.py --workload edge-n300 --seed 0 --seconds 20 --trace 0

Run from the root of a source checkout; the package is imported from
``src/``.  Set-up is timed in ``SETUP_PROBES`` fresh processes, from process
start to the first timed op, and reported as the median.  Then whole passes
over the workload's ops run until they have taken at least ``--seconds``.
Every op's output is checked.

With ``--trace 0`` the result carries the end-to-end metrics.  With
``--trace 1`` passes alternate untraced and traced, and the result carries
the per-layer metrics of the traced passes; the spans are written to
``.bench_out/``.  The last line of standard output is the result object;
the line before it records the environment.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")
SETUP_PROBES = 9
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def cap_threads(nproc):
    """Cap BLAS threads at nproc; must run before numpy is imported."""
    for var in THREAD_VARS:
        try:
            current = int(os.environ.get(var, nproc))
        except ValueError:
            current = nproc
        os.environ[var] = str(max(1, min(current, nproc)))


def environment(nproc):
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (TypeError, KeyError):
        blas = "unknown"
    src_lines = 0
    for dirpath, _, files in os.walk(SRC):
        for f in files:
            if f.endswith(".py"):
                with open(os.path.join(dirpath, f)) as fh:
                    src_lines += sum(1 for _ in fh)
    return {"numpy": np.__version__, "blas": blas, "cpu_count": os.cpu_count(),
            "nproc": nproc, "threads": {v: os.environ.get(v) for v in THREAD_VARS},
            "python": platform.python_version(), "src_lines": src_lines}


def probe_setup(args):
    """Seconds from spawning a fresh process to its first op being ready."""
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
           "--seed", str(args.seed), "--probe-setup"]
    t0 = time.monotonic()
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=150)
    if done.returncode != 0:
        raise RuntimeError(f"set-up probe failed:\n{done.stderr}")
    return float(done.stdout.split()[-1]) - t0


def run_op(op, times):
    """Time one op, append its seconds to times, return its check's problems."""
    t0 = time.perf_counter()
    try:
        result = op.run()
    finally:
        times.append(time.perf_counter() - t0)
    return op.check(result)


def run_pass(ops, tracer=None):
    """Run every op once; return (op seconds, failed op count)."""
    times, failed = [], 0
    for i, op in enumerate(ops):
        if tracer is not None:
            tracer.op_id = i
        try:
            problems = run_op(op, times)
        except Exception as exc:  # an op that raises counts as failed
            problems = [f"raised {type(exc).__name__}: {exc}"]
        if problems:
            failed += 1
            sys.stderr.write(f"FAILED {op.name}: {'; '.join(problems)}\n")
    return times, failed


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "irmlab", "__init__.py")):
        sys.stderr.write(f"no irmlab sources under {SRC}; run from a checkout\n")
        return 2
    nproc = len(os.sched_getaffinity(0))
    cap_threads(nproc)
    sys.path.insert(0, SRC)
    import workloads
    import spans

    setup = workloads.WORKLOADS.get(args.workload)
    if setup is None:
        sys.stderr.write(f"unknown workload {args.workload!r}; "
                         f"choose from {sorted(workloads.WORKLOADS)}\n")
        return 2
    out_dir = os.path.join(OUT, args.workload)
    if args.probe_setup:
        setup(args.seed, out_dir)
        print(repr(time.monotonic()))
        return 0
    setup_samples = [probe_setup(args) for _ in range(SETUP_PROBES)]

    shutil.rmtree(out_dir, ignore_errors=True)
    setup_tracer = spans.Tracer() if args.trace else None
    if setup_tracer:
        setup_tracer.op_id = 0
        setup_tracer.install()
    try:
        ops = setup(args.seed, out_dir)
    finally:
        if setup_tracer:
            setup_tracer.uninstall()
    op_names = [op.name for op in ops]

    plain_walls, traced_walls, cpu, op_times, tracers = [], [], [], [], []
    attempted = failed = 0
    t_start = time.perf_counter()
    while True:
        c0 = os.times()
        times, bad = run_pass(ops)
        c1 = os.times()
        plain_walls.append(sum(times))
        cpu.append((c1.user + c1.system) - (c0.user + c0.system))
        op_times.append(times)
        attempted += len(ops)
        failed += bad
        if args.trace:
            tracer = spans.Tracer()
            tracer.install()
            try:
                times, bad = run_pass(ops, tracer)
            finally:
                tracer.uninstall()
            traced_walls.append(sum(times))
            tracers.append(tracer)
            attempted += len(ops)
            failed += bad
        if time.perf_counter() - t_start >= args.seconds:
            break

    if args.trace:
        per_pass = [spans.layer_metrics(t) for t in tracers]
        values = {k: statistics.median(p[k] for p in per_pass) for k in per_pass[0]}
        # profile builders run in set-up for two workloads; count them there too
        setup_layers = spans.layer_metrics(setup_tracer)
        for key in ("profiles.build.calls", "profiles.build_s"):
            values[key] += setup_layers[key]
        plain = statistics.median(plain_walls)
        values["proc.cpu_s"] = statistics.median(cpu)
        values["proc.cpu_util"] = statistics.median(c / w for c, w in zip(cpu, plain_walls))
        values["trace.overhead_ratio"] = statistics.median(traced_walls) / plain - 1.0
        units = {k: u for k, (u, _, _) in spans.LAYER_METRICS.items()}
        units.update({k: u for k, (u, _) in spans.PROCESS_METRICS.items()})
        kinds = {k: kind for k, (_, kind, _) in spans.LAYER_METRICS.items()}
        kinds.update({k: kind for k, (_, kind) in spans.PROCESS_METRICS.items()})
    else:
        per_op = [statistics.median(col) for col in zip(*op_times)]
        values = {
            "setup_s": statistics.median(setup_samples),
            "wall_s": statistics.median(plain_walls),
            "op_max_s": max(per_op),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = {"setup_s": "s", "wall_s": "s", "op_max_s": "s", "peak_rss_mb": "MB"}
        kinds = {k: "measured" for k in values}

    env = environment(nproc)
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()}}
    os.makedirs(OUT, exist_ok=True)
    stem = os.path.join(OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    detail = {"env": env, "result": result, "kinds": kinds, "setup_samples": setup_samples,
              "pass_walls": plain_walls, "traced_pass_walls": traced_walls,
              "op_seconds": dict(zip(op_names, map(list, zip(*op_times))))}
    if args.trace:
        detail["setup_spans"] = spans.per_op_summary(setup_tracer, ["set-up"])
        detail["per_op_spans"] = spans.per_op_summary(tracers[-1], op_names)
        for k, t in enumerate(tracers):
            t.save(f"{stem}-spans{k}.npz", op_names)
    with open(stem + ".json", "w") as fh:
        json.dump(detail, fh, indent=1)
    print(json.dumps({"env": env}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
