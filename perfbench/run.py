#!/usr/bin/env python3
"""RaceGuard benchmark: one run of one workload.

    python3 perfbench/run.py --workload fig6-sweep --seed 1 --seconds 10 --trace 0

Run from the repository root. The first run builds the driver (perfbench/*.cpp
against the libraries in src/) into .bench_build/perfbench; later runs only
re-check that build. The driver's output is passed through, so the last line
of stdout is the JSON result {correct, attempted, failed, metrics}.

    python3 perfbench/run.py --make-refs

regenerates the reference digests in perfbench/refs/ for every workload.
"""
import argparse
import os
import subprocess
import sys

BUILD_DIR = os.path.join(".bench_build", "perfbench")
BINARY = os.path.join(BUILD_DIR, "perfbench")
WORKLOADS = ["fig6-sweep", "long-session", "chaos-soak-observed"]
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"run.py: {message}", file=sys.stderr)
    sys.exit(2)


def build():
    """Configures once, then builds; compiler output goes to stderr."""
    if not os.path.isfile(os.path.join("src", "CMakeLists.txt")):
        fail("no RaceGuard sources under src/ (run from the repository root)")
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", "perfbench", "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", BUILD_DIR, "-j", "4",
                  "--target", "perfbench"])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("build failed: " + " ".join(cmd))


def run_driver(args):
    """Runs the driver, forwarding its output; kills it on timeout."""
    proc = subprocess.Popen([BINARY] + args)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        fail(f"driver exceeded {RUN_TIMEOUT_S} s")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--make-refs", action="store_true",
                        help="regenerate perfbench/refs/*.tsv and exit")
    args = parser.parse_args()
    if not args.make_refs and args.workload is None:
        parser.error("--workload is required")

    build()
    if args.make_refs:
        for workload in WORKLOADS:
            code = run_driver(["--workload", workload, "--make-refs"])
            if code:
                sys.exit(code)
        return
    sys.stdout.flush()
    sys.exit(run_driver(["--workload", args.workload, "--seed", str(args.seed),
                         "--seconds", str(args.seconds),
                         "--trace", str(args.trace)]))


if __name__ == "__main__":
    main()
