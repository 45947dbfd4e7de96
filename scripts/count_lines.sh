#!/usr/bin/env bash
# Prints the non-test lines of each Rust source file, then their total.
# A file's non-test lines are those before its first test module: a
# `#[cfg(test)]` line followed by a line opening `mod … {` (all of its
# lines when it has none), so unit-test modules at the end of a file do
# not count. Test-only items elsewhere (a `#[cfg(test)]` accessor or
# `thread_local!`) count as the lines around them do.
#
#   scripts/count_lines.sh [PATH...]    # files or directories (default: crates src)
set -euo pipefail

if [ $# -eq 0 ]; then
    set -- crates src
fi
total=0
while IFS= read -r file; do
    n=$(awk '
        cfg && /^[[:space:]]*(pub(\([^)]*\))?[[:space:]]+)?mod[[:space:]]+[[:alnum:]_]+[[:space:]]*\{/ { cfg = 0; exit }
        cfg { n++; cfg = 0 }
        /^[[:space:]]*#\[cfg\(test\)\]/ { cfg = 1; next }
        { n++ }
        END { print n + cfg }' "$file")
    printf '%6d %s\n' "$n" "$file"
    total=$((total + n))
done < <(find "$@" -name '*.rs' -type f | sort)
printf '%6d total\n' "$total"
