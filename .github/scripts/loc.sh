#!/bin/sh
# Lines of Rust under each crate's src/, as a markdown table.
#   raw  = every line
#   code = non-blank lines that are not `//` comments, counted up to a
#          file's first `#[cfg(test)]` (inline test modules excluded)
# Closes with the two sums the CHANGES.md ledger quotes: core+efs+parsim
# (the figure ROADMAP's line target tracks) and all crates, then a row for
# the root tests/ (the system suites and the fault harness, counted the
# same way), and under the table the code lines of the files the two logs
# are made of.
# No gate and no threshold: each PR leaves its count beside the
# bridgebench ledger so line targets in ROADMAP.md are read, not argued.
set -eu
cd "$(dirname "$0")/../.."
count='
    FNR == 1 { tests = 0 }
    { raw++ }
    /#\[cfg\(test\)\]/ { tests = 1 }
    !tests && !/^[[:space:]]*($|\/\/)/ { code++ }
    END { printf "%d %d\n", raw, code }'
echo "| crate | raw | code |"
echo "|---|---:|---:|"
for src in crates/*/src; do
    find "$src" -name '*.rs' -exec awk "$count" {} + |
        { read -r raw code; echo "| $(basename "$(dirname "$src")") | $raw | $code |"; }
done | awk -F'|' '
    { print; raw += $3; code += $4 }
    $2 ~ /^ (core|efs|parsim) $/ { kraw += $3; kcode += $4 }
    END {
        printf "| core+efs+parsim | %d | %d |\n", kraw, kcode
        printf "| all crates | %d | %d |\n", raw, code
    }'
find tests -name '*.rs' -exec awk "$count" {} + |
    { read -r raw code; echo "| tests | $raw | $code |"; }
echo
for log in efs/src/wal.rs efs/src/ring.rs efs/src/codec.rs core/src/txlog.rs; do
    awk "$count" "crates/$log" | { read -r _ code; echo "$log $code"; }
done | awk '{ printf "%s%s %d", sep, $1, $2; sep = " + "; sum += $2 }
    END { printf " = %d code lines in the log files\n", sum }'
