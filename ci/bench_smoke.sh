#!/usr/bin/env bash
# Bench smoke gate: Release-builds the bench binaries, runs one tiny Fig-7
# pass covering every compilation route (bench_fig7_smoke) twice — as is,
# and under a forced out-of-core spill (TRANCE_SPILL_FORCE=1 shrinks the
# memory cap so every route must survive through disk runs), each diffed
# against its own baseline — plus the spill ablation report of
# bench_micro_ops (its google-benchmark suite filtered out), then runs three
# machine-readable drift gates:
#
#   1. docs:     every key in the emitted BENCH_*.json reports AND in the
#                event-log JSONL must appear in docs/METRICS.md as an exact
#                backtick token (`key` with closing backtick — prefixes do
#                not count). Labeled metric series (name{k="v"}) gate on the
#                family name; histogram bucket keys (le_1, le_2.5, le_inf)
#                gate on the single documented `le_*` token.
#   2. events:   the TRANCE_EVENT_LOG output of the smoke bench must be
#                schema-valid JSONL (bench_diff --check-events).
#   3. baseline: each report is diffed against bench/baselines/ with
#                bench_diff (hard-fail on deterministic invariants, per-run
#                scalars and every stage of `job` alike; soft wall-time
#                warnings). A self-diff must pass and two tampered reports
#                (a run scalar, a stage counter) must fail, so the gate
#                itself is exercised on every run. Refresh workflow:
#                EXPERIMENTS.md.
#
# Usage: ci/bench_smoke.sh [build-dir]   (default: build-bench-smoke)
set -euo pipefail

cd "$(dirname "$0")/.."
BUILD_DIR="${1:-build-bench-smoke}"

cmake -B "$BUILD_DIR" -S . -DCMAKE_BUILD_TYPE=Release
cmake --build "$BUILD_DIR" --target bench_fig7_smoke bench_micro_ops \
  bench_diff -j"$(nproc)"

OUT_DIR="$BUILD_DIR/bench-out"
mkdir -p "$OUT_DIR"
rm -f "$OUT_DIR"/BENCH_*.json "$OUT_DIR"/events.jsonl

TRANCE_BENCH_OUT="$OUT_DIR" TRANCE_EVENT_LOG="$OUT_DIR/events.jsonl" \
  "$BUILD_DIR/bench/bench_fig7_smoke"
# Forced-spill pass (writes BENCH_fig7_smoke_spill.json): under an 8 KiB
# memory cap every route spills; the binary asserts that every run
# completed and that spill_runs > 0 before writing the report.
TRANCE_BENCH_OUT="$OUT_DIR" TRANCE_SPILL_FORCE=1 \
  "$BUILD_DIR/bench/bench_fig7_smoke"
# bench_micro_ops writes BENCH_micro_spill.json from its main() before the
# google-benchmark suite starts; filter every registered benchmark out so
# only the ablation pass runs.
TRANCE_BENCH_OUT="$OUT_DIR" "$BUILD_DIR/bench/bench_micro_ops" \
  --benchmark_filter='^$'

fail=0

# --- gate 1: report/event keys vs docs/METRICS.md ------------------------
# documented <key>: exact backtick-token membership test.
documented() {
  grep -qF "\`$1\`" docs/METRICS.md
}

# Emits the distinct gate tokens for one JSON/JSONL file: plain scalar keys
# (dots allowed: le_1.25), labeled metric series reduced to the family name
# (trance_stages_total{movement=\"local\"} -> trance_stages_total), and
# histogram bucket keys collapsed onto le_*.
extract_keys() {
  {
    grep -oE '"[A-Za-z_][A-Za-z0-9_.]*"[[:space:]]*:' "$1" |
      sed -E 's/^"//; s/"[[:space:]]*:$//'
    grep -oE '"[A-Za-z_][A-Za-z0-9_]*\{[^}]*}"[[:space:]]*:' "$1" |
      sed -E 's/^"//; s/\{.*$//'
  } | sed -E 's/^le_([0-9.]+|inf)$/le_*/' | sort -u
}

for f in "$OUT_DIR"/BENCH_*.json "$OUT_DIR/events.jsonl"; do
  case "$f" in *_trace.json) continue ;; esac
  while IFS= read -r key; do
    if ! documented "$key"; then
      echo "UNDOCUMENTED BENCH KEY: \"$key\" (from $f) not in docs/METRICS.md"
      fail=1
    fi
  done < <(extract_keys "$f")
done

# --- gate 2: event-log JSONL schema --------------------------------------
if ! "$BUILD_DIR/bench/bench_diff" --check-events "$OUT_DIR/events.jsonl"; then
  echo "event log schema check FAILED"
  fail=1
fi

# --- gate 3: baseline comparison -----------------------------------------
for report in "$OUT_DIR"/BENCH_*.json; do
  case "$report" in *_trace.json) continue ;; esac
  base="bench/baselines/$(basename "$report")"
  if [ ! -f "$base" ]; then
    echo "MISSING BASELINE: $base (refresh: see EXPERIMENTS.md)"
    fail=1
    continue
  fi
  if ! "$BUILD_DIR/bench/bench_diff" "$base" "$report"; then
    echo "baseline diff FAILED for $report"
    fail=1
  fi
  # Self-diff must pass by construction.
  if ! "$BUILD_DIR/bench/bench_diff" "$report" "$report" >/dev/null; then
    echo "SELF-DIFF FAILED for $report (bench_diff is broken)"
    fail=1
  fi
done

# Synthetically regressed reports must hard-fail, proving the gate bites:
# one per-run scalar, and one stage counter inside `job` (total_work_bytes
# appears only in stages; sed edits its first occurrence).
tamper_check() { # description sed-expression
  local tampered="$OUT_DIR/tampered.json"
  sed -E "$2" "$OUT_DIR/BENCH_fig7_smoke.json" >"$tampered"
  if "$BUILD_DIR/bench/bench_diff" "$OUT_DIR/BENCH_fig7_smoke.json" \
    "$tampered" >/dev/null; then
    echo "TAMPER CHECK FAILED: bench_diff accepted a report with $1"
    fail=1
  fi
  rm -f "$tampered"
}
tamper_check "a regressed out_rows" \
  's/"out_rows":[0-9]+/"out_rows":999999999/'
tamper_check "one stage's total_work_bytes changed" \
  's/"total_work_bytes":([0-9]+)/"total_work_bytes":1\1/'

if [ "$fail" -ne 0 ]; then
  echo "bench_smoke: FAILED"
  exit 1
fi
echo "bench_smoke: OK (reports: $(ls "$OUT_DIR" | tr '\n' ' '))"
