#!/usr/bin/env bash
# Prints the non-test lines of each Rust source file, then their total.
# A file's non-test lines are those before its first `#[cfg(test)]`
# (all of its lines when it has none), so unit-test modules at the end
# of a file do not count.
#
#   scripts/count_lines.sh [PATH...]    # files or directories (default: crates src)
set -euo pipefail

if [ $# -eq 0 ]; then
    set -- crates src
fi
total=0
while IFS= read -r file; do
    n=$(awk '/^[[:space:]]*#\[cfg\(test\)\]/ { exit } { n++ } END { print n + 0 }' "$file")
    printf '%6d %s\n' "$n" "$file"
    total=$((total + n))
done < <(find "$@" -name '*.rs' -type f | sort)
printf '%6d total\n' "$total"
