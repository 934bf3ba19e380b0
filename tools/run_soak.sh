#!/usr/bin/env bash
# Chaos-soak driver for the snapshot-isolated serving path
# (docs/ROBUSTNESS.md §9): runs the serving suite — GenerationStore
# semantics, the publish/retire fault matrix, the torn-read regression, and
# the multi-threaded reader-vs-refresh soak — at full size in an
# ASan-instrumented build, so a leaked generation or a pin released twice is
# a hard failure, not a silent one.
#
# Usage: tools/run_soak.sh [build-dir] [readers] [cycles]
#   build-dir  defaults to build-asan (shared with run_crash_matrix.sh)
#   readers    concurrent query threads       (default 8,  env QUARRY_SOAK_READERS)
#   cycles     source-churn + refresh rounds  (default 50, env QUARRY_SOAK_CYCLES)
set -euo pipefail

repo_root="$(cd "$(dirname "$0")/.." && pwd)"
build_dir="${1:-${repo_root}/build-asan}"
readers="${2:-${QUARRY_SOAK_READERS:-8}}"
cycles="${3:-${QUARRY_SOAK_CYCLES:-50}}"

cmake -B "${build_dir}" -S "${repo_root}" \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DQUARRY_SANITIZE=address
cmake --build "${build_dir}" -j "$(nproc)"

export ASAN_OPTIONS="${ASAN_OPTIONS:-abort_on_error=1:detect_leaks=1}"
export QUARRY_SOAK_READERS="${readers}"
export QUARRY_SOAK_CYCLES="${cycles}"

if ! ctest --test-dir "${build_dir}" -L serving -N | grep -q 'Total Tests: [1-9]'; then
  echo "run_soak: no tests carry the 'serving' label" >&2
  exit 1
fi

echo "==== serving soak: ${readers} readers x ${cycles} refresh cycles ===="
ctest --test-dir "${build_dir}" -L serving --output-on-failure
echo "==== serving soak passed ===="
