#!/usr/bin/env bash
# Line counts the ROADMAP tracks ("line count per crate is a tracked number"), as a
# markdown report: non-test .rs lines per crate and per directory/*.rs file, the
# workspace total, and the HopliteConfig field count.
#
# "Non-test" = lines of a file before its first top-level `#[cfg(test)]`, skipping
# `tests.rs` files and `tests/` directories. Run from anywhere: scripts/loc.sh
set -euo pipefail
cd "$(dirname "$0")/.."

non_test() { # non-test lines of the .rs files given on stdin
    local total=0 f
    while read -r f; do
        case "$f" in tests/* | */tests/* | */tests.rs) continue ;; esac
        total=$((total + $(awk '/^#\[cfg\(test\)\]/ { exit } { n++ } END { print n + 0 }' "$f")))
    done
    echo "$total"
}

all_lines() { xargs cat | wc -l | tr -d ' '; }

echo "### Line counts"
echo
echo "| crate | non-test .rs lines | all .rs lines |"
echo "|---|---:|---:|"
for dir in crates/*/ crates/compat/*/ src examples tests; do
    [ -d "$dir" ] || continue
    case "$dir" in crates/compat/) continue ;; esac
    files=$(find "$dir" -name '*.rs' | sort)
    [ -n "$files" ] || continue
    echo "| ${dir%/} | $(echo "$files" | non_test) | $(echo "$files" | all_lines) |"
done
echo "| **workspace** (crates src tests examples) | $(find crates src tests examples -name '*.rs' | non_test) | $(find crates src tests examples -name '*.rs' | all_lines) |"
echo
echo "| crates/core/src/directory | non-test lines |"
echo "|---|---:|"
for f in crates/core/src/directory/*.rs; do
    echo "| $(basename "$f") | $(echo "$f" | non_test) |"
done
echo "| **total** | $(find crates/core/src/directory -name '*.rs' | non_test) |"
echo
fields=$(awk '/^pub struct HopliteConfig \{/ { on = 1; next } on && /^\}/ { exit } on && /^    pub / { n++ } END { print n + 0 }' crates/core/src/config.rs)
echo "\`HopliteConfig\` fields: $fields"
