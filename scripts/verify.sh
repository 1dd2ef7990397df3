#!/usr/bin/env bash
# Full offline verification gate. CI runs this script and nothing else
# (.github/workflows/ci.yml), so a gate is added or changed here only.
#
# The workspace is zero-dependency (every crate is an in-tree path crate),
# so everything here must succeed with no network and no registry.
set -euo pipefail
cd "$(dirname "$0")/.."

# --locked: a Cargo.lock that no longer matches the manifests (a crate
# added, removed or re-wired without committing the rewritten lock) fails
# here instead of being silently regenerated.
echo "==> cargo build --release --offline --locked"
cargo build --release --offline --locked

echo "==> cargo test -q --offline --locked"
cargo test -q --offline --locked

echo "==> cargo fmt --check"
cargo fmt --check

# Lint gate: warning-free under clippy. Skips gracefully on toolchains
# without the clippy component installed.
if cargo clippy --version >/dev/null 2>&1; then
    echo "==> cargo clippy --offline --workspace --all-targets -- -D warnings"
    cargo clippy --offline --workspace --all-targets -- -D warnings
else
    echo "==> cargo clippy: not installed, skipping"
fi

# Doc gate: rustdoc warning-free, so a doc link to a removed or private
# item fails here rather than rotting silently.
echo "==> RUSTDOCFLAGS=-D warnings cargo doc --offline --no-deps --workspace"
RUSTDOCFLAGS="-D warnings" cargo doc --offline --no-deps --workspace

# Fault smoke (E12): inject faults into NT-paths across all four engines
# through the campaign driver. --max-quarantine 0 exits 1 on any
# violated (sandbox escape), panicked or timed-out case, and the aggregate
# digest must equal its pin. Case i draws only from (seed, i), so the 256
# cases include fault:1:64's.
echo "==> fault-smoke: 256-case fault-injection campaign"
tmp=$(mktemp -d)
# perfbench/Cargo.lock still lists dependency edges the crates no longer
# have, so the perfbench self-test below rewrites it (ROADMAP item 4). It is
# saved here and restored after that step and on any exit, so a green run
# leaves the tree as it found it.
cp perfbench/Cargo.lock "$tmp/perfbench.Cargo.lock"
trap 'cp "$tmp/perfbench.Cargo.lock" perfbench/Cargo.lock; rm -rf "$tmp"' EXIT
fault_report=$(cargo run --release --offline -q -p px-cli --bin pxc -- campaign \
    --cases fault:1:256 --max-quarantine 0 --no-resume \
    --journal "$tmp/fault-smoke.ndjson" --json)
case "$fault_report" in
    *'"digest":"2aac22e426a11ffe"'*) ;;
    *)
        echo "fault-smoke FAILED: fault:1:256 digest is not 2aac22e426a11ffe" >&2
        echo "$fault_report" >&2
        exit 1
        ;;
esac

# Campaign gate (E16/E17): the zoo roster's prime-path sets must enumerate
# byte-identically (twice) inside a hard wall-time budget; then both pinned
# manifests (E16's 512 cases with deliberately panicking and runaway chaos
# cases, E17's zoo-roster:quick) run straight through on 1 worker, killed
# mid-flight (torn journal tail) and resumed on 4 workers, and re-folded
# forward and in reverse. Every digest must equal its pin (`GATE_PINS` in
# crates/bench/src/experiments/campaign.rs), every case must be accounted
# for exactly once, and the quarantine must match chaos ground truth.
echo "==> campaign-gate: E16/E17 kill+resume digest identity on both pinned manifests"
cargo run --release --offline -q -p px-bench --bin campaign_gate -- --check

# Matcher oracle: the prime-path automaton must credit exactly what a
# brute-force substring oracle finds, over random block graphs whose
# walks interleave NT spawns (trail copies that diverge) and squashes
# (resets), and the plan's O(1) pc lookups must match a linear scan of
# sparse block starts under pc-driven walks (jumps and straight-line
# batches), each at 5000 cases rather than the default 96.
echo "==> matcher-oracle: prime-path automaton vs brute force, 5000 cases"
PX_PROP_CASES=5000 cargo test --release --offline -q -p px-mach --lib -- \
    paths::tests::matcher_agrees_with_brute_force_on_random_walks \
    paths::tests::pc_walks_on_sparse_starts_agree_with_a_linear_scan

# Recycle oracle: a cache hierarchy or BTB built from the arrays a dropped
# one parked on its thread's shelf must answer exactly like one built on a
# fresh thread (every access latency, volatile eviction, squash, commit,
# injected fault and exercise count), and must really reuse the parked
# arrays, over random geometries including the fault campaign's 2-line L1
# and 64-entry BTB, at 2000 cases rather than the default 96.
echo "==> recycle-oracle: recycled cache/BTB arrays vs fresh ones, 2000 cases"
PX_PROP_CASES=2000 cargo test --release --offline -q -p px-mach --lib -- \
    cache::tests::a_recycled_hierarchy_answers_like_a_fresh_one \
    btb::tests::a_recycled_btb_reads_like_a_fresh_one

# Interpreter oracle: step_uop must match the byte-decode reference
# interpreter step for step on random byte-soup programs, plainly and under
# identically seeded fault plans (every fault kind, suppressed system calls
# on and off), and run_baseline_with must match the reference baseline run
# (the runner's own loop over that interpreter) on exit, instructions,
# cycles, coverage, monitor records, I/O, registers and memory, plainly and
# under seeded fault plans. The loop-soup properties do the same on counted
# loops over a data segment, whose loads and stores mostly succeed, so the
# taken path's wide batches (loads and stores retired in a batch) meet
# in-bounds, crashing, page-straddling and watched accesses and L1s of four
# and two lines; there both engines must also match the reference run
# (exactly when no NT-path spawns, on committed state when they do), their
# encode/decode round trip, themselves stepping every micro-op, and
# themselves with a watch nothing hits (every clock shifted by the watch's
# extra cost, nothing else changed); and
# a_batch_is_its_steps_on_loop_soup checks one TakenPath::batch against
# the steps its rules allow, with volatile lines, watch ranges, a deadline,
# a store tag and a logging store hook drawn per case.
# Each runs at 2000 cases rather than the default.
echo "==> uop-oracle: step_uop, the baseline and the taken paths vs the reference, 2000 cases"
PX_PROP_CASES=2000 cargo test --release --offline -q -p px-mach --test uop_differential -- \
    step_uop_matches_reference baseline_matches_reference_run loop_soup

# Replay-cache oracle: the standard and CMP engines must compute
# byte-identical results with the NT-path replay cache on and off over
# random byte-soup programs, at 2000 cases rather than the default 48.
# Each CMP case also runs twice against one shared table, so the second
# run meets every key state the first left: live, dead, or forgotten
# because its recording path was still running when the run ended.
echo "==> memo-oracle: replay cache on/off identity on byte soup, 2000 cases"
PX_PROP_CASES=2000 cargo test --release --offline -q -p pathexpander --test memo_identity \
    memo_identity_on_byte_soup

# Zoo smoke: the quick E15 roster must meet the acceptance criteria
# (every expected bug detected on some engine, zero NT-only false
# positives), and the zoo CLI must be byte-deterministic.
echo "==> zoo-smoke: quick E15 roster + CLI determinism"
cargo run --release --offline -q -p px-bench --bin zoo_tables -- --quick --check
a=$(cargo run --release --offline -q -p px-cli --bin pxc -- zoo run zoo:parser:1 --json)
b=$(cargo run --release --offline -q -p px-cli --bin pxc -- zoo run zoo:parser:1 --json)
if [ "$a" != "$b" ]; then
    echo "zoo-smoke FAILED: pxc zoo run --json is not deterministic" >&2
    exit 1
fi

# Bench gate (E13/E18): the engine x workload matrix must reproduce the
# committed BENCH_throughput.json byte for byte (every row named on a
# mismatch), every standard/CMP row must be digest-identical with the
# NT-path replay cache on and off, and the cache must demonstrably engage
# on nt-heavy (minimum hit rate). No wall clock: timing is perfbench's job.
echo "==> bench-gate: BENCH_throughput.json byte identity + replay-cache on/off identity"
cargo run --release --offline -q -p px-bench --bin bench_report -- --verify BENCH_throughput.json

# Benchmark self-test: perfbench imports the engine API directly, so a
# change to an entry point it pins fails here rather than in the benchmark
# run. Every workload at tiny size; every golden digest must match.
echo "==> perfbench self-test"
cargo test --release --offline -q --manifest-path perfbench/Cargo.toml
cp "$tmp/perfbench.Cargo.lock" perfbench/Cargo.lock

echo "verify: OK"

# Informational, not a gate: the non-test line count that change notes quote.
echo "loc: $(./scripts/loc.sh) non-test lines under crates/*/src"
