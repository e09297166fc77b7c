#!/usr/bin/env bash
# CI-style sanitizer pass: checks the docs for drift (ci/check_docs.sh)
# and the bench-report schema (ci/bench_smoke.sh), then builds the tree
# with TRANCE_SANITIZE=ON (ASan + UBSan) into its own build directory and
# runs the fast observability suite (ctest label `obs`), the stage-fusion
# equivalence suite (label `fusion`), the fault-recovery suite (label
# `faults`), the encoded-key suite (label `keys` — bag-key encodings
# recurse through nested element rows), the flat hash-table suite (label
# `flathash` — arena OOB stress for exactly this pass), the
# columnar-block suite (label `columnar` — string-arena and bitmap bounds
# under ASan), the spill-format suites (labels `serde` and `spill` — byte
# parsers over corrupt input are exactly what ASan is for), and the
# telemetry suites (labels `metrics` and `events`) under the sanitizers.
# TRANCE_WERROR keeps the build warning-clean. A listed label that matches
# no test fails the script, so the sanitized set cannot shrink silently.
#
# Usage: ci/sanitize.sh [build-dir]   (default: build-sanitize)
set -euo pipefail

cd "$(dirname "$0")/.."
BUILD_DIR="${1:-build-sanitize}"

ci/check_docs.sh
ci/bench_smoke.sh

LABELS=(obs fusion faults keys flathash metrics events columnar serde spill)

cmake -B "$BUILD_DIR" -S . -DTRANCE_SANITIZE=ON -DTRANCE_WERROR=ON
cmake --build "$BUILD_DIR" --target obs_test fusion_test fault_test key_codec_test flat_hash_test metrics_test event_log_test column_test columnar_test serde_test spill_test -j"$(nproc)"
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
