#!/usr/bin/env bash
# Prints the non-test line count of the library and binary sources: every
# non-blank line under crates/*/src that does not start with `//` and lies
# above its file's first `#[cfg(test)]`. Run it on a tree that
# `cargo fmt --check` accepts, so that formatting does not move the count.
#
#   ./scripts/loc.sh
set -euo pipefail
cd "$(dirname "$0")/.."

find crates/*/src -name '*.rs' -print0 | sort -z | xargs -0 awk '
    FNR == 1 { in_test = 0 }
    /#\[cfg\(test\)\]/ { in_test = 1 }
    !in_test && !/^[[:space:]]*$/ && !/^[[:space:]]*\/\// { n++ }
    END {
        s = sprintf("%d", n)
        while (s ~ /[0-9][0-9][0-9][0-9]/) sub(/[0-9][0-9][0-9]($|,)/, ",&", s)
        print s
    }
'
