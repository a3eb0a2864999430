#!/usr/bin/env bash
# Code-size ledger: per crate, the non-blank, non-comment lines of every
# `crates/*/src/**/*.rs` file before its first `#[cfg(test)]` — what the
# shipped library and binaries consist of, tests and prose excluded.
#
#   scripts/loc.sh            per-crate table and total
#   scripts/loc.sh FILE...    the same count for the named files
#
# Run it at the parent commit and at the change to get a before/after
# table (a simplification PR quotes both in CHANGES.md).

set -euo pipefail
cd "$(dirname "$0")/.."

count() {
    awk '
        FNR == 1 { in_tests = 0 }
        /^[[:space:]]*#\[cfg\(test\)\]/ { in_tests = 1 }
        in_tests { next }
        /^[[:space:]]*$/ { next }
        /^[[:space:]]*\/\// { next }
        { n++ }
        END { print n + 0 }
    ' "$@" </dev/null
}

if [[ $# -gt 0 ]]; then
    for f in "$@"; do
        printf '%6d  %s\n' "$(count "$f")" "$f"
    done
    printf '%6d  total\n' "$(count "$@")"
    exit 0
fi

total=0
for crate in crates/*/; do
    mapfile -t files < <(find "${crate}src" -name '*.rs' | sort)
    n=$(count "${files[@]}")
    printf '%6d  %s\n' "$n" "$(basename "$crate")"
    total=$((total + n))
done
printf '%6d  total\n' "$total"
