#!/usr/bin/env bash
# The end-to-end benchmark's one command. Builds the harness (and the hbold
# library it links) from source, then runs workloads, each in its own process.
#
#   bash bench/e2e/run.sh --workload NAME --seed N --seconds S --trace 0|1
#       One workload; the last line of stdout is its JSON result.
#   bash bench/e2e/run.sh [--trace] [--scale=smoke] [--seed N] [--seconds S]
#       All four workloads; prints every metric as "workload metric value
#       unit" with a PASS/FAIL line per workload, and writes
#       build/e2e/out/results.json.
#
# Build output goes to stderr. Everything it writes stays under build/e2e/.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(cd "$here/../.." && pwd)"
work="$root/build/e2e"
bin="$work/cmake/hbold_e2e"

workload="" seed="1" seconds="" trace="0" scale="full"
while [[ $# -gt 0 ]]; do
  case "$1" in
    --workload) workload="$2"; shift 2 ;;
    --seed) seed="$2"; shift 2 ;;
    --seconds) seconds="$2"; shift 2 ;;
    --trace)
      if [[ "${2:-}" == 0 || "${2:-}" == 1 ]]; then trace="$2"; shift 2
      else trace=1; shift; fi ;;
    --scale=*) scale="${1#--scale=}"; shift ;;
    --scale) scale="$2"; shift 2 ;;
    *) echo "run.sh: unknown argument $1" >&2; exit 2 ;;
  esac
done
if [[ -z "$seconds" ]]; then
  if [[ "$scale" == smoke ]]; then seconds=1; else seconds=10; fi
fi

if [[ ! -f "$root/CMakeLists.txt" || ! -d "$root/src" ]]; then
  echo "run.sh: no H-BOLD sources under $root" >&2
  exit 1
fi

jobs="$(nproc 2>/dev/null || echo 2)"
(( jobs > 4 )) && jobs=4
if [[ ! -f "$work/cmake/CMakeCache.txt" ]]; then
  cmake -S "$here" -B "$work/cmake" -DCMAKE_BUILD_TYPE=Release \
    -DFETCHCONTENT_FULLY_DISCONNECTED=ON >&2
fi
cmake --build "$work/cmake" --target hbold_e2e -j "$jobs" >&2

mkdir -p "$work/out"
tmp="$work/tmp/$$"
mkdir -p "$tmp"
trap 'rm -rf "$tmp"' EXIT
# Hash-join spill runs go to the system temp directory; keep them here too.
export TMPDIR="$tmp"

run_one() {  # workload
  "$bin" --workload "$1" --seed "$seed" --seconds "$seconds" --trace "$trace" \
    --scale "$scale" --out "$work/out" --tmp "$tmp" --expect "$here/expect.json"
}

if [[ -n "$workload" ]]; then
  run_one "$workload"
  exit 0
fi

status=0
entries=()
for w in portal_full portal_churn explore_open bigstore_ooc; do
  out="$(run_one "$w")" || status=1
  sed '$d' <<<"$out"
  last="$(tail -n 1 <<<"$out")"
  entries+=("\"$w\": $last")
  [[ "$last" == *'"correct":true'* ]] || status=1
done
(IFS=,; printf '{%s}\n' "${entries[*]}") >"$work/out/results.json"
echo "wrote $work/out/results.json" >&2
exit "$status"
