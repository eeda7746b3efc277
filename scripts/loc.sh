#!/usr/bin/env bash
# Prints the workspace's non-test Rust line count: non-blank lines of every
# `.rs` file under crates/ outside `tests/` and `benches/` directories,
# counted up to the file's first `#[cfg(test)]` line (unit-test modules
# sit at the end of a file). The CHANGES.md before/after counts use it.
#
#   scripts/loc.sh
set -euo pipefail
cd "$(dirname "$0")/.."

find crates -name '*.rs' -not -path '*/tests/*' -not -path '*/benches/*' -print0 |
    sort -z |
    xargs -0 awk '
        FNR == 1 { in_test = 0 }
        /^[[:space:]]*#\[cfg\(test\)\]/ { in_test = 1 }
        !in_test && NF > 0 { n++ }
        END { print n + 0 }
    ' |
    awk '{ total += $1 } END { print total + 0 }' # xargs may split the list
