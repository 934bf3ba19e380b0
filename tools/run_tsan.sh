#!/usr/bin/env bash
# Runs the concurrency suite (ctest label `tsan`) in a dedicated
# ThreadSanitizer-instrumented build, so every cross-thread handoff is
# checked for data races, not just correctness. The slice covers:
#   - the request-lifecycle tests of docs/ROBUSTNESS.md §7 (CancellationToken,
#     AdmissionController, Submit* serialization);
#   - the wavefront-scheduler suite of docs/ROBUSTNESS.md §8
#     (etl_parallel_test, the SchedulerProperty sweep, and the parallel
#     executor fault matrix in fault_injection_test).
#
# Usage: tools/run_tsan.sh [build-dir]
#   build-dir  defaults to build-tsan (kept separate from the plain build)
set -euo pipefail

repo_root="$(cd "$(dirname "$0")/.." && pwd)"
build_dir="${1:-${repo_root}/build-tsan}"

cmake -B "${build_dir}" -S "${repo_root}" \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DQUARRY_SANITIZE=thread
cmake --build "${build_dir}" -j "$(nproc)"

# halt_on_error makes a TSan report fail the ctest run instead of only
# printing a warning and exiting 0.
export TSAN_OPTIONS="${TSAN_OPTIONS:-halt_on_error=1}"

# The serving soak (docs/ROBUSTNESS.md §9) is in this slice as the
# reader-vs-refresh race test; TSan's ~10x slowdown makes the full soak
# excessive here, so bound its knobs unless the caller already set them.
# tools/run_soak.sh runs the full-size soak in the ASan build.
export QUARRY_SOAK_READERS="${QUARRY_SOAK_READERS:-4}"
export QUARRY_SOAK_CYCLES="${QUARRY_SOAK_CYCLES:-10}"

if ! ctest --test-dir "${build_dir}" -L tsan -N | grep -q 'Total Tests: [1-9]'; then
  echo "run_tsan: no tests carry the 'tsan' label" >&2
  exit 1
fi

ctest --test-dir "${build_dir}" -L tsan --output-on-failure
echo "==== tsan suite passed ===="
