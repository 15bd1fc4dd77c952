#!/usr/bin/env bash
# Lines of Rust per crate: every `.rs` file under the crate, and the non-test part of
# its `src/` — the lines before a file's last top-level `#[cfg(test)]` (a file without
# one counts whole). ROADMAP aim 2 tracks these numbers; CI prints them and fails when
# the workspace's non-test total exceeds the ceiling in .github/workflows/ci.yml. The
# vendored stand-ins under vendor/ get a row of their own, outside the workspace sum.
#
# Usage: scripts/loc.sh [file.rs ...]   with files: one line per file, no crate table
set -euo pipefail
cd "$(dirname "$0")/.."

# Prints "<total> <non-test>" summed over the files given on stdin (NUL-separated).
count() {
    xargs -0 -r awk '
        FNR == 1 { flush() }
        { lines++ }
        /^#\[cfg\(test\)\]/ { cut = FNR - 1 }
        function flush() { total += lines; code += (cut >= 0 ? cut : lines); lines = 0; cut = -1 }
        BEGIN { cut = -1 }
        END { flush(); printf "%d %d\n", total, code }
    '
}

if [ "$#" -gt 0 ]; then
    for file in "$@"; do
        read -r total code < <(printf '%s\0' "$file" | count)
        printf '%-40s %7d %9d\n' "$file" "$total" "$code"
    done
    exit 0
fi

printf '%-22s %7s %9s\n' crate total non-test
sum_total=0
sum_code=0
for crate in crates/* .; do
    if [ "$crate" = . ]; then
        name="bea (root)"
        all=(src tests examples)
    else
        name=${crate#crates/}
        all=("$crate")
    fi
    read -r total _ < <(find "${all[@]}" -name '*.rs' -print0 | count)
    read -r _ code < <(find "$crate/src" -name '*.rs' -print0 | count)
    printf '%-22s %7d %9d\n' "$name" "$total" "$code"
    sum_total=$((sum_total + total))
    sum_code=$((sum_code + code))
done
printf '%-22s %7d %9d\n' workspace "$sum_total" "$sum_code"
# The offline stand-ins for crates.io dependencies: counted apart, never in the sum.
read -r total code < <(find vendor -name '*.rs' -print0 | count)
printf '%-22s %7d %9d\n' "vendor (not in sum)" "$total" "$code"
