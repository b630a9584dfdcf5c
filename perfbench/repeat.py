#!/usr/bin/env python3
"""Repeat benchmark runs and summarize them.

    python3 perfbench/repeat.py [--runs 10] [--seed0 1]
    python3 perfbench/repeat.py --trace [--seed0 1]

Every workload in BENCHMARK.json runs through run.py for the run length
BENCHMARK.json sets.  Without --trace, each runs --runs times, with seeds
seed0, seed0+1, ..., and every end-to-end metric is summarized by its
median and quartiles (statistics.quantiles, n=4) and its spread, the
interquartile range as a share of the median, next to the bound in
BENCHMARK.json.  With --trace, each workload runs once traced and the
per-layer metrics are printed side by side.  The machine record and every
run's result go to a JSON report, .perfbench/repeat-*.json.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def load_spec():
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    elapsed = time.perf_counter() - t0
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}:\n"
                           f"{proc.stdout}\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    machine = next((json.loads(ln.split(":", 1)[1]) for ln in lines
                    if ln.startswith("machine:")), None)
    result = json.loads(lines[-1])
    result.update(seed=seed, elapsed_s=elapsed,
                  notes=[ln for ln in lines[:-1] if not ln.startswith("machine:")])
    return machine, result


def summarize(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else float("nan")}


def main():
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seed0", type=int, default=1)
    ap.add_argument("--trace", action="store_true")
    args = ap.parse_args()

    seconds = spec["run_seconds"]
    report = {"seconds": seconds, "trace": args.trace, "workloads": {}}
    for workload in names:
        seeds = [args.seed0] if args.trace else range(args.seed0, args.seed0 + args.runs)
        runs = []
        for seed in seeds:
            machine, result = run_once(workload, seed, seconds, int(args.trace))
            report["machine"] = machine
            runs.append(result)
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  f"failed {result['failed']}/{result['attempted']} "
                  f"({result['elapsed_s']:.0f} s)", file=sys.stderr, flush=True)
        entry = {"runs": runs}
        if not args.trace:
            entry["summary"] = {m["name"]: summarize(
                [r["metrics"][m["name"]]["value"] for r in runs])
                for m in spec["end_to_end"]}
            entry["failed_share"] = sorted({r["failed"] / r["attempted"] for r in runs})
        report["workloads"][workload] = entry

    print("machine:", json.dumps(report.get("machine"), sort_keys=True))
    if args.trace:
        print_trace(spec, report)
    else:
        print_summary(spec, report)
    out = (ROOT / ".perfbench" / f"repeat-{'trace-' if args.trace else ''}"
           f"{time.strftime('%Y%m%d-%H%M%S')}.json")
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    print(f"report: {out}")
    return 0


def print_summary(spec, report):
    bounds = {m["name"]: (m["unit"], m["bound"]) for m in spec["end_to_end"]}
    print(f"{'workload':20s} {'metric':12s} {'median':>10s} {'q1':>10s} {'q3':>10s} "
          f"{'spread':>7s} {'bound':>6s}  unit")
    for workload, entry in report["workloads"].items():
        correct = all(r["correct"] for r in entry["runs"])
        for name, s in entry["summary"].items():
            unit, bound = bounds[name]
            print(f"{workload:20s} {name:12s} {s['median']:10.4f} {s['q1']:10.4f} "
                  f"{s['q3']:10.4f} {s['spread']:7.3f} {bound:6.2f}  {unit}")
        print(f"{workload:20s} correct={correct} failed share={entry['failed_share']} "
              f"runs={len(entry['runs'])}")


def print_trace(spec, report):
    workloads = list(report["workloads"])
    print(f"{'metric':42s} {'unit':6s} " + " ".join(f"{w:>18s}" for w in workloads))
    for m in spec["per_layer"]:
        vals = [report["workloads"][w]["runs"][0]["metrics"][m["name"]]["value"]
                for w in workloads]
        print(f"{m['name']:42s} {m['unit']:6s} " + " ".join(f"{v:18.6g}" for v in vals))


if __name__ == "__main__":
    sys.exit(main())
