#!/usr/bin/env python3
"""A/A tool: run the benchmark N times per workload on unchanged code.

    python3 perfbench/aa.py [--runs 10] [--first-seed 1] [--workloads a,b]
                            [--json results.json]

Each run uses its own seed (first-seed, first-seed+1, ...). For every
(workload, end-to-end metric) it prints the median, the first and third
quartiles (statistics.quantiles(values, n=4)) and their distance as a share
of the median, with a verdict against the metric's bound in BENCHMARK.json:
"steady" when the spread is under a third of the bound, "wide" under the
bound, "FAIL" above it. setup_s is judged the same way but only reported.
Exits non-zero if any run is incorrect or any spread other than setup_s
exceeds its bound. Run from the repository root.
"""
import argparse
import json
import statistics
import subprocess
import sys


def run_once(spec, workload, seed):
    cmd = spec["command"] + ["--workload", workload, "--seed", str(seed),
                             "--seconds", str(spec["run_seconds"]),
                             "--trace", "0"]
    out = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
    if out.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed}: exit {out.returncode}\n"
                           f"{out.stderr[-2000:]}")
    return json.loads(out.stdout.strip().splitlines()[-1])


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workloads", default="")
    parser.add_argument("--json", help="write every run's result here")
    args = parser.parse_args()

    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    workloads = (args.workloads.split(",") if args.workloads
                 else [w["name"] for w in spec["workloads"]])
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    results = {}
    ok = True
    print(f"{'workload':<22}{'metric':<16}{'median':>14}{'q1':>14}"
          f"{'q3':>14}{'spread':>9}  verdict")
    for workload in workloads:
        runs = [run_once(spec, workload, args.first_seed + i)
                for i in range(args.runs)]
        results[workload] = runs
        if not all(r["correct"] and r["failed"] == 0 for r in runs):
            ok = False
            print(f"{workload}: incorrect run(s)")
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in runs]
            q1, median, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / median if median else float("inf")
            verdict = ("steady" if spread < bound / 3 else
                       "wide" if spread <= bound else "FAIL")
            if verdict == "FAIL" and name != "setup_s":
                ok = False
            print(f"{workload:<22}{name:<16}{median:>14.6g}{q1:>14.6g}"
                  f"{q3:>14.6g}{spread:>9.4f}  {verdict} (bound {bound})")
    if args.json:
        with open(args.json, "w") as f:
            json.dump(results, f, indent=1)
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
