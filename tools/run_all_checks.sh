#!/usr/bin/env bash
# The whole pre-merge gauntlet in one command:
#   1. tier-1    — plain build + full ctest suite (the seed contract)
#   2. tsan      — concurrency slice under ThreadSanitizer (tools/run_tsan.sh)
#   3. crash     — fault + crash matrices under ASan (tools/run_crash_matrix.sh)
#   4. recovery  — warehouse kill-and-recover matrix, plain build (fast
#                  re-run of the §10 crash surface outside the ASan gate)
#   5. vectorized — differential harness (the chunk runtime vs the
#                  row-at-a-time reference executor in tests/, byte-identical
#                  targets at every chunk size) plus the bench's --smoke
#                  mode, which re-runs the timed TPC-H flows and fails when
#                  iterations disagree or the chunk kernels never ran
#                  (DESIGN.md §8)
#   6. metrics   — two-way metric/doc lint (tools/check_metrics_doc.sh)
#   7. http      — telemetry-endpoint smoke: start quarry_httpd, curl all
#                  six endpoints, validate JSON with the in-tree parser
#                  (tools/run_http_smoke.sh)
#   8. load      — deterministic two-tenant sustained-load smoke: a
#                  closed-loop flooder vs a high-priority tenant, asserting
#                  the §11 priority-isolation invariants
#                  (tools/run_load_smoke.sh)
#   9. quarry_bench smoke — every quarry_bench workload at tiny sizes
#                  (python3 quarry_bench/run.py --smoke). quarry_bench
#                  compiles src/ as a package of its own, outside tier-1,
#                  so a public-API change that breaks it would otherwise
#                  leave ctest green.
#
# Every step runs even after an earlier one fails, so one broken gate cannot
# mask another; the script prints a per-step PASS/FAIL summary at the end and
# exits non-zero if anything failed. The full-size ASan soak
# (tools/run_soak.sh) is not in the default gauntlet — the bounded soak
# already rides both the tier-1 suite and the tsan slice — but
# RUN_ALL_CHECKS_SOAK=1 adds it as a final step.
#
# Usage: tools/run_all_checks.sh [build-dir]
#   build-dir  defaults to build (the sanitizer scripts keep their own dirs)
set -u

repo_root="$(cd "$(dirname "$0")/.." && pwd)"
build_dir="${1:-${repo_root}/build}"

declare -a step_names=()
declare -a step_results=()
failed=0

run_step() {
  local name="$1"
  shift
  echo
  echo "==== ${name}: $* ===="
  if "$@"; then
    step_results+=("PASS")
  else
    step_results+=("FAIL")
    failed=1
  fi
  step_names+=("${name}")
}

tier1() {
  cmake -B "${build_dir}" -S "${repo_root}" &&
    cmake --build "${build_dir}" -j &&
    ctest --test-dir "${build_dir}" --output-on-failure -j "$(nproc)"
}

# The warehouse-recovery crash matrix re-run on the plain build: the ASan
# crash step already covers it, but this keeps a fast, sanitizer-free
# repro of the §10 kill-and-recover surface in the gauntlet even when the
# ASan build is what broke.
warehouse_recovery() {
  ctest --test-dir "${build_dir}" -R '^generation_persist_test$' \
    --output-on-failure
}

# Runs a gtest binary with a filter and fails when the filter selected no
# test: the installed googletest has no --gtest_fail_if_no_test_selected,
# and after a rename a filter that matches nothing would otherwise pass.
run_filtered() {
  local binary="$1" filter="$2" log
  log="$(mktemp)"
  "${binary}" --gtest_filter="${filter}" | tee "${log}"
  local status="${PIPESTATUS[0]}"
  if grep -q "Running 0 tests" "${log}"; then
    echo "filter '${filter}' selected no test in ${binary}" >&2
    status=1
  fi
  rm -f "${log}"
  return "${status}"
}

# Differential harness + bench smoke (DESIGN.md §8): the filters pin the
# suites that compare the chunk runtime with the reference executor, and
# the bench smoke re-runs the timed TPC-H flows with the chunk kernels
# verifiably engaged (it exits non-zero when they never ran).
vectorized_differential() {
  run_filtered "${build_dir}/tests/etl_parallel_test" 'EtlVectorizedTest.*' &&
    run_filtered "${build_dir}/tests/property_test" '*VectorizedProperty*'
}

vectorized_bench_smoke() {
  "${build_dir}/bench/bench_etl_vectorized" --smoke
}

quarry_bench_smoke() {
  (cd "${repo_root}" && python3 quarry_bench/run.py --smoke)
}

run_step "tier-1 build+ctest" tier1
run_step "tsan slice" "${repo_root}/tools/run_tsan.sh"
run_step "crash matrix (asan)" "${repo_root}/tools/run_crash_matrix.sh"
run_step "warehouse recovery" warehouse_recovery
run_step "vectorized differential" vectorized_differential
run_step "vectorized bench smoke" vectorized_bench_smoke
run_step "metrics doc lint" "${repo_root}/tools/check_metrics_doc.sh"
run_step "http smoke" "${repo_root}/tools/run_http_smoke.sh" "${build_dir}"
run_step "load smoke" "${repo_root}/tools/run_load_smoke.sh" "${build_dir}"
run_step "quarry_bench smoke" quarry_bench_smoke
if [[ "${RUN_ALL_CHECKS_SOAK:-0}" == "1" ]]; then
  run_step "serving soak (asan)" "${repo_root}/tools/run_soak.sh"
fi

echo
echo "==== run_all_checks summary ===="
for i in "${!step_names[@]}"; do
  printf '  %-22s %s\n' "${step_names[$i]}" "${step_results[$i]}"
done
if [[ "${failed}" -ne 0 ]]; then
  echo "==== run_all_checks FAILED ===="
  exit 1
fi
echo "==== run_all_checks passed ===="
