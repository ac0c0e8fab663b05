#!/usr/bin/env bash
# Tier-1 CI: regular build (-Werror) + full test suite, a build of the
# benchmark binary (perfbench/), then an ASan+UBSan build (-Werror too).
#
# Usage: tools/ci.sh [--fast] [--bench] [--soak] [--trace] [--deadlock]
#                    [--obs] [--perfbench]
#   --fast   skip the chaos-labelled tests in the sanitizer pass (they run
#            the full fault-injection scenarios and dominate its runtime)
#   --bench  additionally run the bench-labelled smoke tests against the
#            default build
#   --soak   additionally run the replayable chaos soak matrix (seeds x
#            fault mixes, every cell replay-verified) on the default build
#   --trace  additionally smoke the flight recorder: a seeded E6 run with
#            rg-debug --trace-out, validated as loadable Chrome trace JSON,
#            byte-identical across two same-seed runs and free of
#            absolute source paths under the checkout
#   --deadlock  additionally run just the deadlock-labelled tests (hazard
#            prediction + replay confirmation + recovery soak) in isolation
#   --obs    observability umbrella: obs-labelled tests, the observability
#            bench smoke gate, and a span-traced rg-debug run whose
#            Chrome trace (spans + flows), span summary and contention
#            matrix are round-trip validated and replay-compared
#   --perfbench  additionally run the benchmark (perfbench/) on each
#            gated workload plus long-session (the longest thread
#            populations, so the most scheduler scans) for 1 s; fails
#            unless the result line reports "correct": true and
#            "failed": 0, i.e. every output matches its reference digest
set -euo pipefail

cd "$(dirname "$0")/.."

FAST=0
BENCH=0
SOAK=0
TRACE=0
DEADLOCK=0
OBS=0
PERFBENCH=0
for arg in "$@"; do
  case "$arg" in
    --fast) FAST=1 ;;
    --bench) BENCH=1 ;;
    --soak) SOAK=1 ;;
    --trace) TRACE=1 ;;
    --deadlock) DEADLOCK=1 ;;
    --obs) OBS=1 ;;
    --perfbench) PERFBENCH=1 ;;
    *) echo "unknown option: $arg" >&2; exit 2 ;;
  esac
done

echo "== tier-1: configure + build + ctest =="
# Warnings fail the tier-1 build, so the tree (and the scheduler's asm)
# stays warning-free.
cmake --preset default -DRG_WERROR=ON
cmake --build --preset default -j
ctest --preset default -j

echo "== perfbench: build the benchmark binary =="
# The binary compiles against src/ but no test builds it; build it on every
# run, with the configure and build commands of perfbench/run.py.
if [[ ! -f .bench_build/perfbench/CMakeCache.txt ]]; then
  cmake -S perfbench -B .bench_build/perfbench -DCMAKE_BUILD_TYPE=RelWithDebInfo
fi
cmake --build .bench_build/perfbench -j 4 --target perfbench

if [[ "$BENCH" == 1 ]]; then
  echo "== bench: smoke runs of the perf-critical binaries =="
  ctest --preset bench
fi

if [[ "$TRACE" == 1 ]]; then
  echo "== trace: flight-recorder smoke (seeded E6 run, Perfetto JSON) =="
  trace_dir=$(mktemp -d)
  trap 'rm -rf "${trace_dir:-}" "${obs_dir:-}"' EXIT
  build/tools/rg-debug --testcase 5 --config hwlc+dr --seed 11 \
    --trace-out "$trace_dir/run1.json" > /dev/null
  build/tools/rg-debug --testcase 5 --config hwlc+dr --seed 11 \
    --trace-out "$trace_dir/run2.json" > /dev/null
  cmp "$trace_dir/run1.json" "$trace_dir/run2.json" \
    || { echo "same-seed traces differ" >&2; exit 1; }
  # Sites name files relative to the checkout, so the trace does not
  # depend on where the tree lives.
  if grep -qF "$PWD/" "$trace_dir/run1.json"; then
    echo "trace names absolute source paths under $PWD" >&2; exit 1
  fi
  python3 - "$trace_dir/run1.json" <<'PY'
import json, sys
trace = json.load(open(sys.argv[1]))
events = trace["traceEvents"]
assert events, "empty traceEvents"
assert all(e["ph"] in ("i", "M") for e in events), "unexpected phase"
assert any(e["ph"] == "i" for e in events), "no instant events"
print(f"trace OK: {len(events)} events, byte-identical across runs")
PY
fi

if [[ "$OBS" == 1 ]]; then
  echo "== obs: spans + contention observatory (tests, bench gate, trace) =="
  ctest --preset obs
  ctest --preset bench -R bench_observability_smoke
  obs_dir=$(mktemp -d)
  trap 'rm -rf "${trace_dir:-}" "${obs_dir:-}"' EXIT
  for run in 1 2; do
    build/tools/rg-debug --testcase 5 --config hwlc+dr --seed 11 \
      --trace-out "$obs_dir/trace$run.json" \
      --spans-out "$obs_dir/spans$run.json" \
      --contention-out "$obs_dir/cont$run.json" > /dev/null
  done
  for f in trace spans cont; do
    cmp "$obs_dir/${f}1.json" "$obs_dir/${f}2.json" \
      || { echo "same-seed $f outputs differ" >&2; exit 1; }
  done
  python3 - "$obs_dir/trace1.json" "$obs_dir/spans1.json" \
    "$obs_dir/cont1.json" <<'PY'
import json, sys
trace = json.load(open(sys.argv[1]))
events = trace["traceEvents"]
assert events, "empty traceEvents"
# With spans attached the trace carries duration spans and flow pairs on
# top of the instant/metadata events.
assert all(e["ph"] in ("i", "M", "X", "s", "f") for e in events), \
    "unexpected phase"
spans = [e for e in events if e["ph"] == "X"]
starts = {e["id"] for e in events if e["ph"] == "s"}
ends = {e["id"] for e in events if e["ph"] == "f"}
assert spans, "no duration spans"
assert starts and starts == ends, "unmatched flow events"
summary = json.load(open(sys.argv[2]))
assert summary["spans"] == len(spans), "span summary disagrees with trace"
assert summary["traces"] > 0, "no traces"
matrix = json.load(open(sys.argv[3]))
assert matrix["top"], "empty contention ranking"
assert matrix["total_acquisitions"] > 0, "no acquisitions"
print(f"obs OK: {len(spans)} spans, {len(starts)} flows, "
      f"top lock {matrix['top'][0]['name']}, byte-identical across runs")
PY
fi

if [[ "$SOAK" == 1 ]]; then
  echo "== soak: replayable chaos matrix (seeds x fault mixes) =="
  ctest --preset soak
fi

if [[ "$DEADLOCK" == 1 ]]; then
  echo "== deadlock: hazard prediction + replay oracle + recovery soak =="
  ctest --preset deadlock
fi

if [[ "$PERFBENCH" == 1 ]]; then
  echo "== perfbench: build + reference digests per workload =="
  for workload in fig6-sweep chaos-soak-observed long-session; do
    result=$(python3 perfbench/run.py --workload "$workload" --seconds 1 \
      | tail -n 1)
    python3 - "$workload" "$result" <<'PY'
import json, sys
workload, line = sys.argv[1], sys.argv[2]
result = json.loads(line)
if result.get("correct") is not True or result.get("failed") != 0:
    sys.exit(f"perfbench {workload}: correct={result.get('correct')} "
             f"failed={result.get('failed')}")
print(f"perfbench {workload} OK: {result['attempted']} ops, all correct")
PY
  done
fi

echo "== sanitize: ASan + UBSan build + ctest =="
cmake --preset sanitize -DRG_WERROR=ON
cmake --build --preset sanitize -j
if [[ "$FAST" == 1 ]]; then
  ctest --preset sanitize-fast -j
else
  ctest --preset sanitize -j
fi

echo "CI OK"
