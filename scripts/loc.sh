#!/usr/bin/env bash
# Non-test Rust lines per crate: for every .rs file under crates/*/src
# and src/, the lines before its first `#[cfg(test)]`.
#
#   scripts/loc.sh         lines in the working tree
#   scripts/loc.sh REV     the same, plus the lines at git rev REV and the delta
#
# Run from anywhere inside the repo.
set -euo pipefail
cd "$(dirname "$0")/.."

rev="${1:-}"
if [ -n "$rev" ]; then
    git rev-parse --verify -q "$rev^{commit}" > /dev/null || {
        echo "loc.sh: not a git rev: $rev" >&2
        exit 2
    }
fi

# Reads one file on stdin, prints its lines before the first #[cfg(test)].
# It reads to the end, so the `git show` feeding it never gets SIGPIPE.
head_lines() {
    awk '/^[[:space:]]*#\[cfg\(test\)\]/ { seen = 1 } !seen { n++ } END { print n + 0 }'
}

# The crate a source path belongs to: crates/<name> or src.
crate_of() {
    case "$1" in
        crates/*) echo "$1" | cut -d/ -f1-2 ;;
        *) echo src ;;
    esac
}

declare -A now at_rev
for f in $(find crates/*/src src -name '*.rs' | sort); do
    c="$(crate_of "$f")"
    now[$c]=$(( ${now[$c]:-0} + $(head_lines < "$f") ))
done
if [ -n "$rev" ]; then
    for f in $(git ls-tree -r --name-only "$rev" -- crates src | grep -E '^(crates/[^/]+/)?src/.*\.rs$'); do
        c="$(crate_of "$f")"
        at_rev[$c]=$(( ${at_rev[$c]:-0} + $(git show "$rev:$f" | head_lines) ))
    done
fi

crates="$(printf '%s\n' "${!now[@]}" "${!at_rev[@]}" | sort -u)"
if [ -n "$rev" ]; then
    short="$(git rev-parse --short "$rev")"
    printf '%-18s %8s %8s %7s\n' crate lines "$short" delta
else
    printf '%-18s %8s\n' crate lines
fi
total_now=0
total_rev=0
for c in $crates; do
    a=${now[$c]:-0}
    total_now=$(( total_now + a ))
    if [ -n "$rev" ]; then
        b=${at_rev[$c]:-0}
        total_rev=$(( total_rev + b ))
        printf '%-18s %8d %8d %+7d\n' "$c" "$a" "$b" $(( a - b ))
    else
        printf '%-18s %8d\n' "$c" "$a"
    fi
done
if [ -n "$rev" ]; then
    printf '%-18s %8d %8d %+7d\n' total "$total_now" "$total_rev" $(( total_now - total_rev ))
else
    printf '%-18s %8d\n' total "$total_now"
fi
