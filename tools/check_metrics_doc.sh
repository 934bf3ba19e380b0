#!/usr/bin/env bash
# Lints docs/OBSERVABILITY.md against the metric families the code actually
# registers: every `quarry_*` family name that appears as a string literal
# in src/ must appear in the doc, and every family the doc inventories must
# still exist in src/ (so the doc can't drift in either direction).
set -euo pipefail

repo_root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
doc="${repo_root}/docs/OBSERVABILITY.md"

if [[ ! -f "${doc}" ]]; then
  echo "check_metrics_doc: missing ${doc}" >&2
  exit 1
fi

# Family names are registered as "quarry_..." string literals; attribute and
# span names never use that prefix, so the grep is precise.
mapfile -t registered < <(
  grep -rhoE '"quarry_[a-z0-9_]+"' "${repo_root}/src" |
    tr -d '"' | sort -u
)
# Trailing-underscore mentions (`quarry_design_`) are prefix references in
# the naming-conventions prose, not families.
mapfile -t documented < <(
  grep -ohE '`quarry_[a-z0-9_]+`' "${doc}" | tr -d '\`' |
    grep -v '_$' | sort -u
)

if [[ ${#registered[@]} -eq 0 ]]; then
  echo "check_metrics_doc: found no registered quarry_* families in src/" >&2
  exit 1
fi

status=0
for family in "${registered[@]}"; do
  if ! grep -q "\`${family}\`" "${doc}"; then
    echo "UNDOCUMENTED: ${family} (registered in src/, missing from ${doc#"${repo_root}"/})"
    status=1
  fi
done
# A set lookup, not `printf | grep -q`: under pipefail that pipeline fails
# whenever grep exits on its match before printf has written every name.
declare -A is_registered=()
for family in "${registered[@]}"; do is_registered["${family}"]=1; done
for family in "${documented[@]}"; do
  if [[ -z "${is_registered[${family}]:-}" ]]; then
    echo "STALE: ${family} (in ${doc#"${repo_root}"/}, no longer registered in src/)"
    status=1
  fi
done

if [[ ${status} -eq 0 ]]; then
  echo "check_metrics_doc: ${#registered[@]} families registered, all documented"
fi
exit ${status}
