#!/usr/bin/env bash
# The library surface only tests call: per crate, the `pub fn`s defined in non-test
# code under `crates/*/src` whose name nothing outside tests mentions, then a total.
# Test code is every `#[cfg(test)]` item or module and every `tests/` directory;
# callers are the non-test code of `crates/*/src` (binaries included), `src`,
# `examples` and `benchmark/src` (the harness compiles against these crates), less its
# `pub use` re-exports, which name a function without calling it. Names are matched as
# words, so a name shared with a used function is not printed: the list is a lower
# bound. ROADMAP aim 2 tracks the total; CI prints it and fails above its ceiling.
#
# Usage: scripts/surface.sh
set -euo pipefail
cd "$(dirname "$0")/.."

# Prints the files given on stdin (NUL-separated) with `//` comments, string and char
# literals, every `#[cfg(test)]` item and every `pub use` removed: a skipped item ends
# at the `;` or the closing brace that brings its nesting back to where it started, a
# `pub use` at its `;`.
strip() {
    xargs -0 -r awk '
        {
            line = $0
            gsub(/\\\\/, "", line)
            gsub(/\\"/, "", line)
            gsub(/"[^"]*"/, "\"\"", line)
            gsub(/'"'"'.'"'"'/, "'"'"''"'"'", line)
            sub(/\/\/.*/, "", line)
        }
        skip == 0 && line ~ /^[ \t]*#\[cfg\(test\)\]/ { skip = 1; depth = 0; opened = 0; next }
        skip == 1 {
            if (line ~ /^[ \t]*#\[/ && depth == 0) next
            opens = gsub(/\{/, "{", line); closes = gsub(/\}/, "}", line)
            depth += opens - closes
            if (opens > 0) opened = 1
            if ((opened && depth <= 0) || (!opened && line ~ /;[ \t]*$/)) skip = 0
            next
        }
        reexport == 1 { if (line ~ /;/) reexport = 0; next }
        line ~ /^[ \t]*pub use[ \t]/ { if (line !~ /;/) reexport = 1; next }
        { print line }
    '
}

callers=$(find crates/*/src src examples benchmark/src -name '*.rs' -print0 | strip)
# "<count> <word>" for every word of the callers, and for every name a `fn` defines.
words=$(grep -oE '[A-Za-z_][A-Za-z0-9_]*' <<<"$callers" | sort | uniq -c)
defs=$(grep -oE '\bfn [A-Za-z_][A-Za-z0-9_]*' <<<"$callers" | cut -c4- | sort | uniq -c)

printf '%-10s %s\n' crate 'pub fn with no caller outside tests'
sum=0
for crate in crates/*; do
    name=${crate#crates/}
    # A name whose mentions are all definitions has no caller.
    unused=$(find "$crate/src" -name '*.rs' -print0 | strip |
        sed -n 's/^[ \t]*pub \(const \)\{0,1\}\(unsafe \)\{0,1\}fn \([A-Za-z_][A-Za-z0-9_]*\).*/\3/p' |
        sort -u |
        awk -v words="$words" -v defs="$defs" '
            BEGIN {
                n = split(words, w, "\n"); for (i = 1; i <= n; i++) { split(w[i], f, " "); uses[f[2]] = f[1] }
                n = split(defs, d, "\n"); for (i = 1; i <= n; i++) { split(d[i], f, " "); made[f[2]] = f[1] }
            }
            uses[$1] <= made[$1] { print }
        ')
    for fn in $unused; do
        printf '%-10s %s\n' "$name" "$fn"
        sum=$((sum + 1))
    done
done
printf '%-10s %d\n' total "$sum"
