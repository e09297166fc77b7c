#!/usr/bin/env bash
# Figure gate: Release-builds every paper figure/table binary and runs each
# once, failing when any exits non-zero. Each binary checks its own report
# before writing it (TRANCE_CHECK), so a harness break in any figure (a
# route that no longer runs, a report that cannot be written) fails here
# rather than going unseen until someone reruns that figure by hand. After
# writing its report, each Fig 7, 8 and 9 binary also checks paper shapes:
# plain SHRED (in Fig 8 every shredded strategy) runs without spilling, and
# in Fig 9 exactly full Step2 of STANDARD and SPARKSQL spills, so a change
# that makes SHRED spill fails here too.
#
# The binaries run sequentially at TRANCE_THREADS=1 unless the caller sets
# TRANCE_THREADS, and write BENCH_<name>.json plus its trace into
# <build-dir>/shapes-out. About 1-3 minutes of runs after the build, so the
# script sits beside ci/bench_smoke.sh rather than in the tier-1 ctest gate.
#
# Usage: ci/shapes.sh [build-dir]   (default: build-shapes)
set -euo pipefail

cd "$(dirname "$0")/.."
BUILD_DIR="${1:-build-shapes}"
BINARIES=(bench_fig7_narrow bench_fig7_wide bench_fig8_skew bench_fig9_biomed
  bench_shuffle_table bench_ablations)

cmake -B "$BUILD_DIR" -S . -DCMAKE_BUILD_TYPE=Release
cmake --build "$BUILD_DIR" --target "${BINARIES[@]}" -j"$(nproc)"

OUT_DIR="$BUILD_DIR/shapes-out"
mkdir -p "$OUT_DIR"
rm -f "$OUT_DIR"/BENCH_*.json "$OUT_DIR"/*.log

fail=0
for bin in "${BINARIES[@]}"; do
  start=$(date +%s)
  if TRANCE_THREADS="${TRANCE_THREADS:-1}" TRANCE_BENCH_OUT="$OUT_DIR" \
    "$BUILD_DIR/bench/$bin" >"$OUT_DIR/$bin.log" 2>&1; then
    echo "ok    $bin ($(($(date +%s) - start)) s)"
  else
    echo "FAIL  $bin exited non-zero; last lines of $OUT_DIR/$bin.log:"
    tail -n 20 "$OUT_DIR/$bin.log"
    fail=1
  fi
done

if [ "$fail" -ne 0 ]; then
  echo "shapes: FAILED"
  exit 1
fi
echo "shapes: OK (reports in $OUT_DIR)"
