#!/usr/bin/env bash
# Full pre-merge check: build the release and asan-ubsan presets and run
# the test suite under both. The sanitizer run covers the thread-pool users
# (variant runner, serve, store migration) and the metric indexes under
# ASan/UBSan, catching memory errors and UB the release run cannot see.
set -euo pipefail
cd "$(dirname "$0")/.."

jobs=$(nproc 2>/dev/null || echo 2)

for preset in release asan-ubsan; do
  echo "==> configure: $preset"
  cmake --preset "$preset"
  echo "==> build: $preset"
  cmake --build --preset "$preset" -j "$jobs"
  echo "==> test: $preset"
  ctest --preset "$preset" -j "$jobs"
done

echo "All checks passed."
