#!/usr/bin/env bash
# Code-line count of the C++ sources: non-blank lines that do not start
# with `//` (leading whitespace ignored) in *.cpp/*.hpp, per directory
# under src/, in total, and for bench/. Informational; it gates nothing.
#
# Usage: ci/code_lines.sh [REPO_ROOT]
set -euo pipefail
cd "${1:-$(dirname "$0")/..}"

count() {
  find "$@" -name '*.cpp' -o -name '*.hpp' | sort | xargs cat |
    grep -cvE '^[[:space:]]*(//|$)' || true
}

for dir in $(find src -mindepth 1 -type d | sort); do
  printf '%-24s %6d\n' "$dir/" "$(count "$dir" -maxdepth 1)"
done
printf '%-24s %6d\n' "src/ (total)" "$(count src)"
printf '%-24s %6d\n' "bench/ (total)" "$(count bench)"
