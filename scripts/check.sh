#!/usr/bin/env bash
# Pre-PR gate: build the whole tree from scratch with AddressSanitizer and
# run the test suite under it, then (optionally) smoke the benches in the
# regular build. Usage:
#   scripts/check.sh           # sanitized build + ctest
#   scripts/check.sh --bench   # additionally run every bench (regular build)
#   scripts/check.sh --tsan    # ThreadSanitizer build + concurrency suites
#   scripts/check.sh --ubsan   # UndefinedBehaviorSanitizer build + full ctest
set -euo pipefail
cd "$(dirname "$0")/.."

if [[ "${1:-}" == "--ubsan" ]]; then
  UBSAN_BUILD=build-ubsan
  rm -rf "$UBSAN_BUILD"
  cmake -B "$UBSAN_BUILD" -S . \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DPAFS_SANITIZE=undefined
  cmake --build "$UBSAN_BUILD" -j "$(nproc)"
  # halt_on_error turns any UB report into a test failure instead of a log
  # line; the full suite runs, and the serving smoke again explicitly so
  # the resilience path (reaper timers, status-frame raw sends, retry
  # backoff arithmetic) is exercised under UBSan even if the suite list
  # changes.
  export UBSAN_OPTIONS="halt_on_error=1:print_stacktrace=1"
  ctest --test-dir "$UBSAN_BUILD" --output-on-failure
  ctest --test-dir "$UBSAN_BUILD" -R bench_serving_smoke --output-on-failure
  echo "check.sh: ubsan green"
  exit 0
fi

if [[ "${1:-}" == "--tsan" ]]; then
  TSAN_BUILD=build-tsan
  rm -rf "$TSAN_BUILD"
  cmake -B "$TSAN_BUILD" -S . \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DPAFS_SANITIZE=thread
  cmake --build "$TSAN_BUILD" -j "$(nproc)"
  # The concurrency-bearing suites: socket transport + cross-thread close,
  # event loop + serving layer, chaos watchdogs, thread pool, telemetry,
  # parallel kernels, concurrent pad-pool refillers (crypto_test), the
  # pipeline (core_test) and the driver-level protocol suites (smc_test,
  # forest_test): both serving drivers and two-thread base-OT opens on
  # two threads, garbling on the global pool; and the end-to-end serving
  # smoke. The remaining numeric/protocol suites are single-threaded and
  # covered by the ASan gate.
  ctest --test-dir "$TSAN_BUILD" --output-on-failure \
    -R '^(net_test|serve_test|chaos_test|core_test|smc_test|forest_test|util_test|obs_test|kernel_test|crypto_test|bench_serving_smoke|bench_serving_smoke_linear|bench_e2e_smoke)$'
  echo "check.sh: tsan green"
  exit 0
fi

SAN_BUILD=build-asan
rm -rf "$SAN_BUILD"
cmake -B "$SAN_BUILD" -S . \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DPAFS_SANITIZE=address
cmake --build "$SAN_BUILD" -j "$(nproc)"
ctest --test-dir "$SAN_BUILD" --output-on-failure

if [[ "${1:-}" == "--bench" ]]; then
  cmake -B build -S .
  cmake --build build -j "$(nproc)"
  for b in build/bench/*; do
    [ -x "$b" ] && [ -f "$b" ] && "$b"
  done
fi
echo "check.sh: all green"
