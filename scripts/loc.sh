#!/usr/bin/env bash
# Count each crate's non-test lines of Rust source.
#
# For every file under crates/<crate>/src the count is the lines above the
# file's last `#[cfg(test)]`, or the whole file when it has none; a crate's
# count is the sum over its files. Prints one "<crate> <lines>" row per
# crate and a total row.
#
#   scripts/loc.sh                  # every crate under crates/
#   scripts/loc.sh rel-engine ...   # only the named crates
set -euo pipefail

cd "$(dirname "$0")/.."

if [ "$#" -gt 0 ]; then
    crates=("$@")
else
    crates=()
    for dir in crates/*/; do
        crates+=("$(basename "$dir")")
    done
fi

total=0
for crate in "${crates[@]}"; do
    src="crates/$crate/src"
    if [ ! -d "$src" ]; then
        echo "loc.sh: no such crate source directory: $src" >&2
        exit 2
    fi
    lines=$(find "$src" -name '*.rs' -print0 | sort -z | xargs -0 awk '
        FNR == 1 { if (NR > 1) sum += (last ? last - 1 : n); last = 0 }
        /^[[:space:]]*#\[cfg\(test\)\]/ { last = FNR }
        { n = FNR }
        END { sum += (last ? last - 1 : n); print sum + 0 }')
    printf '%-12s %6d\n' "$crate" "$lines"
    total=$((total + lines))
done
printf '%-12s %6d\n' total "$total"
