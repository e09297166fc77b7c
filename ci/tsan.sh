#!/usr/bin/env bash
# CI-style ThreadSanitizer pass: checks the docs for drift
# (ci/check_docs.sh) and the bench-report schema (ci/bench_smoke.sh), then
# builds the tree with TRANCE_SANITIZE=thread into its own build directory
# and runs the suites that exercise concurrency (ctest labels `parallel`,
# `obs`, `fusion`, `faults`, `keys`, `flathash`, `columnar`, `serde`,
# `spill`, `metrics`, `events` and `skew` — fault recovery retries tasks inside the
# parallel loops, the encoded-key, flat hash-table, and columnar-block suites
# run the Fig-7 suite and the keyed operators at 1, 4, and 8 threads, the
# spill suite forces concurrent fetch-side disk runs at those same thread
# counts, the serde suite covers the block decoder those runs restore
# through, the telemetry suites hammer the sharded counters and the event
# ring from worker threads, and the skew suite runs the skew-aware join and
# BagToDict, whose heavy-key probes use per-thread scratch encoders)
# under TSan. The partition-parallel runtime
# oversubscribes threads on small machines, so data races are reachable
# (and reported) even on a single core. A listed label that matches no test
# fails the script, so the race-checked set cannot shrink silently.
#
# Usage: ci/tsan.sh [build-dir]   (default: build-tsan)
set -euo pipefail

cd "$(dirname "$0")/.."
BUILD_DIR="${1:-build-tsan}"

ci/check_docs.sh
ci/bench_smoke.sh

LABELS=(parallel obs fusion faults keys flathash metrics events columnar serde spill skew)

cmake -B "$BUILD_DIR" -S . -DTRANCE_SANITIZE=thread -DTRANCE_WERROR=ON
cmake --build "$BUILD_DIR" --target parallel_test obs_test fusion_test fault_test key_codec_test flat_hash_test metrics_test event_log_test column_test columnar_test serde_test spill_test skew_test -j"$(nproc)"
for label in "${LABELS[@]}"; do
  n=$(ctest --test-dir "$BUILD_DIR" -N -L "^${label}\$" |
    sed -nE 's/^Total Tests: ([0-9]+)$/\1/p')
  if [ "${n:-0}" -eq 0 ]; then
    echo "tsan: label '$label' matches no tests"
    exit 1
  fi
done
ctest --test-dir "$BUILD_DIR" -L "^($(IFS='|'; echo "${LABELS[*]}"))\$" \
  --output-on-failure -j"$(nproc)"
