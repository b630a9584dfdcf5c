#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics as JSON.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root (any directory works; paths are resolved from
this file).  The workload calls `unravel.cli.main` in this process, in
whole rounds, until S seconds have passed; the outputs are then checked
against the independent references in ref_qbm.py and ref_renewal.py.  The
last line of standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones (wall_s, setup_s,
peak_rss_mb); with --trace 1 they are the per-layer ones.  See README.md.
"""

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SCRATCH = ROOT / ".perfbench"
SETUP_SAMPLES = 3
BLAS_THREADS = "1"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def pin_threads():
    """Pin BLAS, OpenMP and the package's sweep fan-out to one thread and put
    the source tree first on the path, for this process (before numpy is
    imported) and for the interpreters that time the set-up."""
    for var in THREAD_VARS:
        os.environ[var] = BLAS_THREADS
    os.environ["UNRAVEL_THREADS"] = "1"
    sys.path.insert(0, str(SRC))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def machine():
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                             capture_output=True, timeout=10).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        sha = ""
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": int(BLAS_THREADS), "git_sha": sha or "unknown"}


def measure_setup(env):
    """Median wall time of a fresh interpreter importing unravel, numpy, scipy."""
    samples = []
    for _ in range(SETUP_SAMPLES):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import unravel, numpy, scipy"],
                       env=env, cwd=ROOT, check=True, timeout=60)
        samples.append(time.perf_counter() - t0)
    return statistics.median(samples)


def run_rounds(work, args, workdir):
    """Call `unravel.cli.main` in whole rounds until args.seconds have passed.

    Each round writes the program's output to its own file in workdir and
    yields one record: arguments, exit code (None if the call raised), wall
    time, output path and, for traced rounds, the per-layer metrics.  With
    --trace 1 the rounds alternate untraced and traced, starting untraced,
    and at least one of each runs; without it no wrapper is ever installed.
    """
    import unravel.cli

    tracer = None
    if args.trace:
        from tracer import Tracer
        tracer = Tracer()
    rounds = []
    start = time.perf_counter()
    while True:
        index = len(rounds)
        traced = tracer is not None and index % 2 == 1
        out = str(workdir / f"round{index}.out")
        argv = work.argv(args.seed, index, out)
        if traced:
            tracer.install()
        t0 = time.perf_counter()
        try:
            code = unravel.cli.main(argv)
        except Exception:   # counted as a failed round by the check
            traceback.print_exc()
            code = None
        finally:
            wall = time.perf_counter() - t0
            if traced:
                tracer.uninstall()
        rounds.append({"index": index, "argv": argv, "exit": code, "out": out,
                       "wall_s": wall, "traced": traced,
                       "layers": tracer.metrics() if traced else None})
        done = time.perf_counter() - start >= args.seconds
        if done and (tracer is None or len(rounds) >= 2):
            return rounds


def metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(rounds, setup_s, peak_rss_mb, units):
    values = {"wall_s": statistics.median(r["wall_s"] for r in rounds),
              "setup_s": setup_s, "peak_rss_mb": peak_rss_mb}
    return {name: metric(value, units[name]) for name, value in values.items()}


def per_layer(rounds, units):
    """Median of each per-layer metric over the traced rounds."""
    traced = [r for r in rounds if r["traced"]]
    plain = [r for r in rounds if not r["traced"]]
    layers = {k: statistics.median(r["layers"][k] for r in traced)
              for k in traced[0]["layers"]}
    layers["trace.overhead_s"] = (statistics.median(r["wall_s"] for r in traced)
                                  - statistics.median(r["wall_s"] for r in plain))
    return {name: metric(value, units[name]) for name, value in layers.items()}


def benchmark_units():
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not (SRC / "unravel" / "__init__.py").is_file():
        print(f"error: no unravel package under {SRC}", file=sys.stderr)
        return 2
    env = pin_threads()
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    work = workloads.WORKLOADS[args.workload]
    print("machine:", json.dumps(machine(), sort_keys=True))
    setup_s = measure_setup(env)

    SCRATCH.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=SCRATCH))
    try:
        rounds = run_rounds(work, args, workdir)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        failures, problems = work.check(args.seed, rounds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for r in rounds:
        print(f"round {r['index']}: exit {r['exit']}, wall {r['wall_s']:.3f} s"
              + (" (traced)" if r["traced"] else ""))
    for line in failures:
        print("FAILED:", line)
    for line in problems:
        print("WRONG:", line)
    units = benchmark_units()
    metrics = (per_layer(rounds, units) if args.trace
               else end_to_end(rounds, setup_s, peak_rss_mb, units))
    print(json.dumps({"correct": not problems,
                      "attempted": work.ops_per_round * len(rounds),
                      "failed": len(failures),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
