#!/usr/bin/env bash
# Runs the robustness suites — the fault-injection matrix (`-L fault`), the
# durability crash matrix (`-L crash`) and the chunk-kernel differential
# (`-L asan`) — in a dedicated build instrumented with ASan and UBSan
# (QUARRY_SANITIZE=address), so the QUARRY_SANITIZE wiring is actually
# exercised and every injected crash/recovery path is checked for memory
# errors and undefined behaviour too. Either kind of report fails the
# entry: ASan aborts on error, and UBSan is built with
# -fno-sanitize-recover (float-cast-overflow included, which GCC's
# -fsanitize=undefined leaves out).
#
# The crash label covers both durable substrates: the docstore WAL
# (wal_crash_test, docs/ROBUSTNESS.md §6) and the warehouse generation
# store (generation_persist_test, §10) — the latter's kill-and-recover
# matrix exercises every storage.generation.persist.* / recover.* fault
# site. The asan label covers etl_parallel_test and property_test_vectorized:
# the chunk kernels against the reference executor at chunk sizes 1/7/1024/
# rows+1, where the hash kernels (join, aggregation, surrogate key, loader
# merge) read keys straight from segment payloads (storage/key.h) and the
# column evaluator runs random expressions; etl_test and chunk_test: the
# expression unit cases (ExprTest, each through the reference row walk and
# the column evaluator, integer overflow included), SUM's accumulator and
# the segment constructors; and storage_test and key_test: Table indexing
# into its shared and pending chunks, the loader's TableWriter, DOUBLE ->
# INT coercion and casts, and RowKey/KeyIndex. New tests are picked up
# automatically via the labels.
#
# Each matrix entry (ctest test) runs individually so one failure cannot
# mask another: the script prints a per-entry pass/fail summary at the end
# and exits non-zero if any entry failed.
#
# Usage: tools/run_crash_matrix.sh [build-dir] [sanitizer]
#   build-dir  defaults to build-asan (kept separate from the plain build)
#   sanitizer  defaults to address (ASan + UBSan)
set -euo pipefail

repo_root="$(cd "$(dirname "$0")/.." && pwd)"
build_dir="${1:-${repo_root}/build-asan}"
sanitizer="${2:-address}"

cmake -B "${build_dir}" -S "${repo_root}" \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DQUARRY_SANITIZE="${sanitizer}"
cmake --build "${build_dir}" -j "$(nproc)"

# abort_on_error makes an ASan report fail the ctest run instead of only
# printing; detect_leaks catches WAL fds / buffers dropped on crash paths.
export ASAN_OPTIONS="${ASAN_OPTIONS:-abort_on_error=1:detect_leaks=1}"
# A UBSan report names the failing source line and its call stack.
export UBSAN_OPTIONS="${UBSAN_OPTIONS:-print_stacktrace=1}"

# Enumerate the matrix entries; `ctest -N` prints lines like
# "  Test  #4: wal_crash_test" (the '#' column is space-aligned).
mapfile -t entries < <(ctest --test-dir "${build_dir}" -L 'fault|crash|asan' -N |
  sed -n 's/^ *Test *#[0-9]*: //p')
if [ "${#entries[@]}" -eq 0 ]; then
  echo "run_crash_matrix: no tests matched -L 'fault|crash|asan'" >&2
  exit 1
fi

declare -a results=()
failures=0
for entry in "${entries[@]}"; do
  # Individual entries must not abort the loop (set -e): capture the exit
  # code explicitly and keep going so the summary covers every entry.
  if ctest --test-dir "${build_dir}" -R "^${entry}\$" --output-on-failure; then
    results+=("PASS ${entry}")
  else
    results+=("FAIL ${entry}")
    failures=$((failures + 1))
  fi
done

echo
echo "==== crash matrix summary (${sanitizer} sanitizer) ===="
for line in "${results[@]}"; do
  echo "  ${line}"
done
echo "  ${#entries[@]} entries, ${failures} failed"

if [ "${failures}" -gt 0 ]; then
  exit 1
fi
