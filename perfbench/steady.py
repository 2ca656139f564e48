#!/usr/bin/env python3
"""Steadiness runner: repeat workloads over seeds and report the spread.

    python3 perfbench/steady.py [--runs N] [--seed S] [--workloads a,b]
                                [--trace 0|1|0,1] [--seconds S]
                                [--save FILE] [--compare FILE]

Runs perfbench/run.py N times per workload (seeds S, S+1, ...) and prints,
for every metric, the median, the quartiles (statistics.quantiles, n=4),
and the spread: the distance between the quartiles as a share of the
median. With --trace 0 each end-to-end spread is checked against the
metric's bound in BENCHMARK.json: "steady" below a third of the bound,
"within" below the bound, "UNSTEADY" above it (setup_s is reported but
not held to it). --save keeps the raw values; --compare checks that this
set's medians are no worse than a saved set's by more than the bounds, the
way two sets of runs of the same code must agree.

`--runs 1 --trace 0,1` is the one command that runs every workload of
BENCHMARK.json, untraced and traced, prints every metric with its unit, and
fails on any ground-truth, ledger, replay or traced-vs-untraced mismatch.

Exits non-zero when a run fails or is incorrect, a spread exceeds its
bound, or a comparison does not hold.
"""
import argparse
import json
import pathlib
import statistics
import subprocess
import sys
import time

ROOT = pathlib.Path(__file__).resolve().parent.parent
RUN = ROOT / "perfbench" / "run.py"


def load_benchmark():
    path = ROOT / "BENCHMARK.json"
    return json.loads(path.read_text()) if path.is_file() else {}


def run_once(workload, seed, seconds, trace):
    started = time.monotonic()
    done = subprocess.run([sys.executable, str(RUN), "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds),
                           "--trace", str(trace)],
                          cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True)
    elapsed = time.monotonic() - started
    lines = done.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    if done.returncode != 0 or result is None or not result.get("correct"):
        print(f"  {workload} seed {seed}: FAILED (exit {done.returncode})")
        print("    " + "\n    ".join(done.stderr.strip().splitlines()[-10:]))
        return None, elapsed
    return result, elapsed


def spread(values):
    med = statistics.median(values)
    if len(values) < 2:
        return med, med, med, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med if med else 0.0


def main():
    bench = load_benchmark()
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--workloads",
                        default=",".join(w["name"] for w in bench.get("workloads", [])))
    parser.add_argument("--trace", default="0",
                        help="0, 1, or 0,1 for both (default 0)")
    parser.add_argument("--seconds", type=float, default=bench.get("run_seconds", 10))
    parser.add_argument("--save")
    parser.add_argument("--compare")
    args = parser.parse_args()

    traces = [int(t) for t in args.trace.split(",")]
    if not traces or any(t not in (0, 1) for t in traces):
        parser.error("--trace takes 0, 1 or 0,1")
    metric_specs = {m["name"]: m for m in bench.get("end_to_end", [])}
    ok = True
    values = {}
    runs = [(w, t) for w in args.workloads.split(",") if w for t in traces]
    for workload, trace in runs:
        print(f"== {workload}: {args.runs} run(s), {args.seconds:g} s, trace {trace}")
        key = workload if trace == 0 else f"{workload}/trace"
        per_metric = values.setdefault(key, {})
        units = {}
        for i in range(args.runs):
            result, elapsed = run_once(workload, args.seed + i, args.seconds, trace)
            if result is None:
                ok = False
                continue
            print(f"  seed {args.seed + i}: {elapsed:.1f} s wall")
            for name, metric in result["metrics"].items():
                per_metric.setdefault(name, []).append(metric["value"])
                units[name] = metric["unit"]
        print(f"  {'metric':28} {'unit':>6} {'median':>14} {'q1':>14} {'q3':>14} {'spread':>8}"
              f" {'bound':>6}  verdict")
        for name, vals in per_metric.items():
            med, q1, q3, s = spread(vals)
            spec = metric_specs.get(name) if trace == 0 else None
            verdict = ""
            if spec is not None:
                bound = spec["bound"]
                verdict = ("steady" if s < bound / 3 else "within" if s <= bound
                           else "UNSTEADY")
                if verdict == "UNSTEADY" and name != "setup_s":
                    ok = False
            print(f"  {name:28} {units.get(name, ''):>6} {med:14.6g} {q1:14.6g}"
                  f" {q3:14.6g} {s:8.2%} {spec['bound'] if spec else '':>6}  {verdict}")

    if args.save:
        pathlib.Path(args.save).write_text(json.dumps(values, indent=1))
    if args.compare:
        earlier = json.loads(pathlib.Path(args.compare).read_text())
        print("== comparison with", args.compare)
        for workload, per_metric in values.items():
            for name, vals in per_metric.items():
                spec = metric_specs.get(name)
                old = earlier.get(workload, {}).get(name)
                if spec is None or not old or not vals:
                    continue
                before, after = statistics.median(old), statistics.median(vals)
                worse = (after - before) if spec["better"] == "lower" else (before - after)
                share = worse / before if before else 0.0
                holds = share <= spec["bound"]
                ok = ok and holds
                print(f"  {workload:20} {name:24} {before:14.6g} -> {after:14.6g}"
                      f"  worse by {share:+7.2%} (bound {spec['bound']:.0%})"
                      f"  {'ok' if holds else 'REGRESSED'}")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
