#!/usr/bin/env bash
# CI-style sanitizer pass: checks the docs for drift (ci/check_docs.sh)
# and the bench-report schema (ci/bench_smoke.sh), then builds every test
# binary (target trance_tests, compiled in parallel) with
# TRANCE_SANITIZE=ON (ASan + UBSan, where a UBSan report fails its test
# rather than only printing, and _GLIBCXX_ASSERTIONS bounds-checks the
# standard containers' operator[], e.g. a row list's index into a block)
# into its own build directory and runs
# the fast observability suite (ctest label `obs`), the stage-fusion
# equivalence suite (label `fusion`), the fault-recovery suite (label
# `faults`), the encoded-key suite (label `keys` — bag-key encodings
# recurse through nested element rows), the flat hash-table suite (label
# `flathash` — arena OOB stress for exactly this pass), the
# columnar-block suite (label `columnar` — string-arena and bitmap bounds
# under ASan), the spill-format suites (labels `serde` and `spill` — byte
# parsers over corrupt input are exactly what ASan is for), the telemetry
# suites (labels `metrics` and `events`), the skew-module suite (label
# `skew` — heavy-key sets, skew-aware join and BagToDict), the operator
# suite (label `ops` — the keyed loops that read typed key and value cells
# and assemble their output column by column), the exec-layer suite (label
# `exec` — compiled scalar closures index a block's columns at a row) and
# the determinism suite (label `parallel` — every bulk operator at several
# thread counts and under injected faults, whose recovery discards and
# rebuilds blocks), the compiler suites (label `compile` — NRC typing,
# unnesting, plan optimization and shredding, whose passes rebuild shared
# expression and plan nodes), the end-to-end workload suite (label
# `workloads` — the TPC-H and biomedical generators' nested bags driven
# through every route and checked against the interpreter), the
# interpreter's own suite (label `oracle` — the reference every route is
# checked against walks nested values recursively) and the utility suite
# (label `util` — Status, the printers, the RNG and the Zipf sampler) under
# the sanitizers.
# TRANCE_WERROR keeps the build warning-clean. A listed label that matches
# no test fails the script, so the sanitized set cannot shrink silently.
#
# Usage: ci/sanitize.sh [build-dir]   (default: build-sanitize)
set -euo pipefail

cd "$(dirname "$0")/.."
BUILD_DIR="${1:-build-sanitize}"

ci/check_docs.sh
ci/bench_smoke.sh

LABELS=(parallel obs fusion faults keys flathash metrics events columnar serde spill skew ops exec compile workloads oracle util)

cmake -B "$BUILD_DIR" -S . -DTRANCE_SANITIZE=ON -DTRANCE_WERROR=ON
cmake --build "$BUILD_DIR" --target trance_tests -j"$(nproc)"
for label in "${LABELS[@]}"; do
  n=$(ctest --test-dir "$BUILD_DIR" -N -L "^${label}\$" |
    sed -nE 's/^Total Tests: ([0-9]+)$/\1/p')
  if [ "${n:-0}" -eq 0 ]; then
    echo "sanitize: label '$label' matches no tests"
    exit 1
  fi
done
ctest --test-dir "$BUILD_DIR" -L "^($(IFS='|'; echo "${LABELS[*]}"))\$" \
  --output-on-failure -j"$(nproc)"
