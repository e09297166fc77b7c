#!/usr/bin/env bash
# CI-style sanitizer pass: checks the docs for drift (ci/check_docs.sh)
# and the bench-report schema (ci/bench_smoke.sh), then builds every test
# binary (target trance_tests, compiled in parallel) with
# TRANCE_SANITIZE=ON (ASan + UBSan, where a UBSan report fails its test
# rather than only printing, and _GLIBCXX_ASSERTIONS bounds-checks the
# standard containers' operator[], e.g. a row list's index into a block)
# into its own build directory and runs the whole ctest suite there, so a
# new test binary is sanitized without editing this script.
# TRANCE_WERROR keeps the build warning-clean.
#
# Usage: ci/sanitize.sh [build-dir]   (default: build-sanitize)
set -euo pipefail

cd "$(dirname "$0")/.."
BUILD_DIR="${1:-build-sanitize}"

ci/check_docs.sh
ci/bench_smoke.sh

cmake -B "$BUILD_DIR" -S . -DTRANCE_SANITIZE=ON -DTRANCE_WERROR=ON
cmake --build "$BUILD_DIR" --target trance_tests -j"$(nproc)"
ctest --test-dir "$BUILD_DIR" --output-on-failure -j"$(nproc)"
