#!/usr/bin/env python3
"""Determinism self-check of the traced run's per-layer counters.

    python3 perfbench/selfcheck.py [--seed 7] [--other-seed 8] [--seconds 3]

For every workload it makes two traced runs with --seed and one with
--other-seed. Every per-layer metric counted in events (unit "count" or
"ticks") must be identical in the two same-seed runs, and at least one must
differ under the other seed. Exits non-zero otherwise. Run from the
repository root.
"""
import argparse
import json
import subprocess
import sys

DETERMINISTIC_UNITS = ("count", "ticks")


def traced_run(spec, workload, seed, seconds):
    cmd = spec["command"] + ["--workload", workload, "--seed", str(seed),
                             "--seconds", str(seconds), "--trace", "1"]
    out = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
    if out.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed}: exit {out.returncode}\n"
                           f"{out.stderr[-2000:]}")
    result = json.loads(out.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise RuntimeError(f"{workload} seed {seed}: incorrect\n"
                           f"{out.stderr[-2000:]}")
    return {name: m["value"] for name, m in result["metrics"].items()
            if m["unit"] in DETERMINISTIC_UNITS}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--other-seed", type=int, default=8)
    parser.add_argument("--seconds", type=float, default=3)
    args = parser.parse_args()

    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    ok = True
    for workload in (w["name"] for w in spec["workloads"]):
        first = traced_run(spec, workload, args.seed, args.seconds)
        again = traced_run(spec, workload, args.seed, args.seconds)
        other = traced_run(spec, workload, args.other_seed, args.seconds)
        drift = sorted(n for n in first if first[n] != again[n])
        moved = sorted(n for n in first if first[n] != other[n])
        same_seed_ok = not drift
        other_seed_ok = bool(moved)
        ok = ok and same_seed_ok and other_seed_ok
        print(f"{workload}: {len(first)} counters; seed {args.seed} twice: "
              f"{'identical' if same_seed_ok else 'DIFFER in ' + ', '.join(drift)}; "
              f"seed {args.other_seed}: {len(moved)} differ"
              f"{'' if other_seed_ok else ' (FAIL: none)'}")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
