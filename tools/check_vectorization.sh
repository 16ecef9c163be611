#!/usr/bin/env bash
# Vectorization guard for the row kernels.
#
# Compiles tools/vectorization_probe.cpp at the benchmark's flags with
# GCC's vectorizer report and fails if any loop under src/ whose `for` line
# carries a `// must-vectorize` comment is reported as not vectorized, or
# is not reported at all (a marker the probe never reaches guards nothing).
# A loop that silently falls back to scalar code still passes every bitwise
# test, so this is the only check that notices.
#
# Usage: tools/check_vectorization.sh        (compiler: $CXX, default g++)
set -euo pipefail

repo_root="$(cd "$(dirname "$0")/.." && pwd -P)"
cxx="${CXX:-g++}"
if ! "$cxx" --version 2>/dev/null | head -n 1 | grep -qiE 'g\+\+|gcc'; then
  echo "check_vectorization: needs GCC's -fopt-info; '$cxx' is not GCC" >&2
  exit 2
fi

work="$(mktemp -d)"
trap 'rm -rf "$work"' EXIT
report="$work/vec.txt"
"$cxx" -std=c++20 -I"$repo_root/src" -O3 -march=x86-64-v3 -fno-math-errno \
  -fopt-info-vec-optimized-missed="$report" \
  -c "$repo_root/tools/vectorization_probe.cpp" -o "$work/probe.o"

markers="$(grep -rn --include='*.hpp' -- '// must-vectorize' "$repo_root/src" |
           cut -d: -f1,2)"
if [[ -z "$markers" ]]; then
  echo "check_vectorization: no '// must-vectorize' loops under src/" >&2
  exit 1
fi

# Report lines for the loop at file:line (fixed-string prefix match).
count() {
  awk -v at="$1:" -v what="$2" \
    'index($0, at) == 1 && index($0, what) > 0 { n++ } END { print n + 0 }' \
    "$report"
}

fail=0
while IFS= read -r loc; do
  vec="$(count "$loc" ": optimized: loop vectorized")"
  missed="$(count "$loc" ": missed: couldn't vectorize loop")"
  rel="${loc#"$repo_root"/}"
  if [[ "$missed" -gt 0 ]]; then
    echo "NOT VECTORIZED  $rel  (missed in $missed instance(s))"
    fail=1
  elif [[ "$vec" -eq 0 ]]; then
    echo "NOT REPORTED    $rel  (the probe does not reach this loop)"
    fail=1
  else
    echo "ok              $rel"
  fi
done <<< "$markers"

if [[ "$fail" -ne 0 ]]; then
  echo "check_vectorization: FAILED; see $cxx -fopt-info-vec-missed or" \
       "-fdump-tree-vect-details for the reason" >&2
  exit 1
fi
echo "check_vectorization: all marked loops vectorized"
