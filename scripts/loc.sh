#!/usr/bin/env bash
# Line counts the ROADMAP tracks ("line count per crate is a tracked number"), as a
# markdown report: non-test .rs lines per crate and per directory/*.rs file, the
# "directory plane" (those plus node/failure.rs), the "reduce plane" (reduce/*.rs plus
# node/reduce.rs and node/coordinator.rs), the "object plane"
# (directory/{shard,client,placement}.rs, store.rs and node/broadcast.rs), the "node
# facade" (node/mod.rs, where every directory op and frame once was spelled out), the
# workspace total, the "behaviour pins" (every line of the four transcript tests and of
# the harness they share, crates/core/tests/support/; its self-test counted apart; and
# per transcript, its episodes and those pinned only by `.diverged` lines), the
# HopliteConfig field count, the core files whose non-test code names a random-state
# `HashMap`/`HashSet` (clippy's `disallowed-types` keeps it at 0), and the lifecycle
# counts of ROADMAP's transport item (unbounded queues, sleeps, SlabPool construction
# sites, thread-spawn sites) and the `SlabPool::checkout` call sites, i.e. the code that
# may hold pool memory.
#
# "Non-test" = lines of a file before its first top-level `#[cfg(test)]` that opens an
# inline test module (one that only gates a `mod …;` declaration, like node/mod.rs's
# `#[cfg(test)] mod tests;`, is skipped with its declaration and counting goes on),
# skipping `tests.rs` files and `tests/` directories. Run from anywhere: scripts/loc.sh
set -euo pipefail
cd "$(dirname "$0")/.."

non_test_text() { # the non-test text of the .rs files given on stdin
    local f
    while read -r f; do
        case "$f" in tests/* | */tests/* | */tests.rs) continue ;; esac
        awk '
            held != "" { if ($0 ~ /^(pub )?mod [a-z_]+;/) { held = ""; next } exit }
            /^#\[cfg\(test\)\]/ { held = $0; next }
            { print }' "$f"
    done
}

non_test() { non_test_text | wc -l | tr -d ' '; } # non-test lines of the files on stdin

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
echo "| **fleet supervisor** (crates/daemon + crates/cluster/src/process.rs) | $( (find crates/daemon -name '*.rs'; echo crates/cluster/src/process.rs) | non_test) | $( (find crates/daemon -name '*.rs'; echo crates/cluster/src/process.rs) | all_lines) |"
echo
echo "| crates/core/src/directory | non-test lines |"
echo "|---|---:|"
for f in crates/core/src/directory/*.rs; do
    echo "| $(basename "$f") | $(echo "$f" | non_test) |"
done
echo "| **total** | $(find crates/core/src/directory -name '*.rs' | non_test) |"
echo "| **directory plane** (the above + node/failure.rs) | $( (find crates/core/src/directory -name '*.rs'; echo crates/core/src/node/failure.rs) | non_test) |"
reduce_plane="$(find crates/core/src/reduce -name '*.rs' | sort) crates/core/src/node/reduce.rs crates/core/src/node/coordinator.rs"
echo "| **reduce plane** (reduce/*.rs + node/reduce.rs + node/coordinator.rs) | $(echo "$reduce_plane" | tr ' ' '\n' | non_test) |"
object_plane="crates/core/src/directory/shard.rs crates/core/src/directory/client.rs crates/core/src/directory/placement.rs crates/core/src/store.rs crates/core/src/node/broadcast.rs"
echo "| **object plane** (directory/{shard,client,placement}.rs + store.rs + node/broadcast.rs) | $(echo "$object_plane" | tr ' ' '\n' | non_test) |"
echo "| **node facade** (node/mod.rs) | $(echo crates/core/src/node/mod.rs | non_test) |"
echo
echo "| liveness plane (non-test lines) | |"
echo "|---|---:|"
liveness="crates/core/src/membership.rs crates/core/src/detector.rs crates/core/src/node/mod.rs crates/core/src/node/failure.rs"
for f in $liveness; do
    echo "| ${f#crates/core/src/} | $(echo "$f" | non_test) |"
done
echo "| **total** | $(echo "$liveness" | tr ' ' '\n' | non_test) |"
echo
pins=$(find crates/core/tests -name '*_transcript.rs' | sort; find crates/core/tests/support -name '*.rs' | sort)
echo "| behaviour pins (all lines) | |"
echo "|---|---:|"
echo "| **behaviour pins** (crates/core/tests/*_transcript.rs + tests/support/) | $(echo "$pins" | all_lines) |"
echo "| transcript harness self-test (tests/transcript_harness.rs) | $(echo crates/core/tests/transcript_harness.rs | all_lines) |"
echo
echo "| transcript | episodes | pinned only by \`.diverged\` lines |"
echo "|---|---:|---:|"
episode_lines() { grep -cv -e '^#' -e '^[[:space:]]*$' "$1" || true; } # lines naming an episode
episodes=0 overlaid=0
for golden in crates/core/tests/*_transcript.golden; do
    diverged="${golden%.golden}.diverged"
    e=$(episode_lines "$golden") o=0
    [ -f "$diverged" ] && o=$(episode_lines "$diverged")
    episodes=$((episodes + e)) overlaid=$((overlaid + o))
    echo "| $(basename "${golden%.golden}") | $e | $o |"
done
echo "| **total** | $episodes | $overlaid |"
echo
fields=$(awk '/^pub struct HopliteConfig \{/ { on = 1; next } on && /^\}/ { exit } on && /^    pub / { n++ } END { print n + 0 }' crates/core/src/config.rs)
echo "\`HopliteConfig\` fields: $fields"
hashed=$(find crates/core/src -name '*.rs' | sort | while read -r f; do
    if echo "$f" | non_test_text | grep -E 'Hash(Map|Set)' >/dev/null; then echo "${f#crates/core/src/}"; fi
done)
echo
echo "Core files whose non-test code names \`HashMap\` or \`HashSet\`: $(echo "$hashed" | grep -c . || true)${hashed:+ ($(echo $hashed | sed 's/ /, /g'))}"

# Lifecycle counts: occurrences in non-test code outside crates/compat (the stand-ins
# define `unbounded`, they do not use it).
occurrences() { # <fixed string>
    find crates src examples -name '*.rs' -not -path 'crates/compat/*' | sort | non_test_text | grep -oF -- "$1" | wc -l | tr -d ' '
}
echo
echo "| lifecycle count (non-test, outside crates/compat) | sites |"
echo "|---|---:|"
echo "| \`unbounded(\` call sites | $(occurrences 'unbounded(') |"
echo "| \`thread::sleep\` calls | $(occurrences 'thread::sleep') |"
echo "| \`SlabPool\` construction sites (expected 5: the two process builders, \`hoplited\` and \`LocalCluster\`; the private defaults of a node, of a fabric or reader built alone, of the tiny-slab test reader) | $(($(occurrences 'SlabPool::new()') + $(occurrences 'SlabPool::for_block_size(') + $(occurrences 'SlabPool::with_slab_len('))) |"
echo "| thread-spawn sites (\`thread::spawn\`, \`Builder::new()\`, \`spawn_scoped\`) | $(($(occurrences 'thread::spawn') + $(occurrences 'thread::Builder::new()') + $(occurrences 'spawn_scoped'))) |"
checkouts=$(find crates src examples -name '*.rs' -not -path 'crates/compat/*' | sort | while read -r f; do
    if echo "$f" | non_test_text | grep -F '.checkout(' >/dev/null; then echo "${f#crates/}"; fi
done)
echo "| \`SlabPool::checkout\` call sites, who may hold pool memory (expected 2: a frame reader, for one frame at a time, and \`BlockAccum::fold\`) | $(occurrences '.checkout(')${checkouts:+ ($(echo $checkouts | sed 's/ /, /g'))} |"
