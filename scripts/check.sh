#!/usr/bin/env bash
# Repo-wide hygiene gate: formatting, lints, doc links, static analysis,
# tests.
# Offline-friendly — everything below works from the vendored deps with
# no network access.
#
# Modes:
#   scripts/check.sh          quick gate (every step below except Miri
#                             and all but one loom model: the loom tests
#                             compile, and the doorbell model runs)
#   scripts/check.sh --full   also runs the flow-queue model checks
#                             under --cfg loom and, when a miri
#                             toolchain is installed, the CDR tests
#                             under Miri
set -euo pipefail

cd "$(dirname "$0")/.."

FULL=0
if [ "${1:-}" = "--full" ]; then
    FULL=1
fi

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> cargo clippy --workspace -- -D warnings"
cargo clippy --workspace --all-targets --offline -- -D warnings

echo "==> cargo doc (rustdoc warnings are errors: every intra-doc link resolves)"
# A deleted or made-private item leaves dangling links in the docs that
# name it; nothing else checks them.
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --offline -q

echo "==> static analysis (newtop-analyze: call-graph reachability rules + baseline diff gate)"
cargo run --release --offline -q -p newtop-analyze -- --self-test
# The gate diffs findings against the committed baseline: a new finding
# fails, and a fixed finding fails until the baseline is regenerated
# (cargo run -p newtop-analyze -- --write-baseline analyze.baseline.json).
# Pretty-print the JSON report with scripts/analyze_report.sh.
cargo run --release --offline -q -p newtop-analyze -- \
    --json target/analyze-report.json --baseline analyze.baseline.json

echo "==> cargo test -q"
cargo test --workspace --offline -q

echo "==> loom model tests compile (--cfg loom)"
RUSTFLAGS="--cfg loom" cargo test --offline -q -p newtop-flow --no-run

echo "==> loom doorbell model runs (--cfg loom, 64 iterations, the debug build above)"
# A lost doorbell wake-up leaves newtop-rt's event loop asleep with work
# queued; the model hangs on one.
RUSTFLAGS="--cfg loom" LOOM_ITERS=64 cargo test --offline -q -p newtop-flow \
    --test loom_queue -- --exact loom_doorbell_wakes_a_consumer_of_two_queues

if [ "$FULL" = 1 ]; then
    echo "==> loom model tests run (--cfg loom, release)"
    RUSTFLAGS="--cfg loom" cargo test --offline -q -p newtop-flow --release

    if rustup run miri true >/dev/null 2>&1 || command -v miri >/dev/null 2>&1; then
        echo "==> miri over the CDR marshalling tests"
        cargo miri test --offline -p newtop-orb cdr
    else
        echo "==> miri not installed; skipping (install with: rustup component add miri)"
    fi
fi

echo "==> cargo bench --no-run (bench targets must compile)"
cargo bench --workspace --offline --no-run

echo "==> fault-injection campaign (quick, 25 seeds)"
cargo build --release --offline -p newtop-check
./target/release/campaign --seeds 25 --quiet

echo "==> crash-recovery campaign smoke (25 seeds: replay + delta rejoin obligations)"
./target/release/campaign --recovery --seeds 25 --quiet

echo "==> simulator bench (bench_snapshot asserts its invariants and reproduces BENCH_SIM.json byte for byte)"
# The document is a pure function of the seed, so any difference is a
# behaviour change. The baseline records today's numbers, known defects
# included: it detects change, it is not a target.
cargo build --release --offline -p newtop-bench --bin bench_snapshot
env -u NEWTOP_BENCH_SEED ./target/release/bench_snapshot > target/bench_sim.json
if ! diff -u BENCH_SIM.json target/bench_sim.json; then
    echo "ERROR: the simulator's numbers differ from the committed BENCH_SIM.json (diff above)." >&2
    echo "If the change is intended, regenerate the baseline with" >&2
    echo "  env -u NEWTOP_BENCH_SEED cargo run --release --offline -p newtop-bench --bin bench_snapshot > BENCH_SIM.json" >&2
    echo "and say in CHANGES.md why the numbers moved." >&2
    exit 1
fi

echo "==> paper figures (the figure bench targets reproduce BENCH_FIGURES.txt byte for byte)"
# Every table and graph of the paper's §5, at seed 2000. The micro and
# fanout_encode benches measure wall clock and stay out.
for bench in table1_plain_corba graphs_1_4_nonreplicated graphs_5_10_optimised \
    graphs_11_16_closed_open graphs_17_18_peer ablations; do
    echo "## $bench"
    env -u NEWTOP_BENCH_SEED cargo bench --offline -q -p newtop-bench --bench "$bench"
done > target/bench_figures.txt
if ! diff -u BENCH_FIGURES.txt target/bench_figures.txt; then
    echo "ERROR: the paper figures differ from the committed BENCH_FIGURES.txt (diff above)." >&2
    echo "If the change is intended, regenerate the baseline with" >&2
    echo "  cp target/bench_figures.txt BENCH_FIGURES.txt" >&2
    echo "and say in CHANGES.md why the numbers moved." >&2
    exit 1
fi

echo "==> example programs (each asserts its own outcome and exits non-zero when its run goes wrong)"
cargo build --release --offline -p newtop-examples
for example in quickstart replicated_bank passive_store conference group_to_group; do
    ./target/release/"$example" > /dev/null
done

echo "==> perfbench smoke (the benchmark builds, a short run of each workload is correct, its lockfile stays put)"
cargo build --release --offline --manifest-path perfbench/Cargo.toml
# invoke-closed is the only workload on the closed binding, 4 KiB
# arguments and the flow window.
for workload in invoke-open peer-total invoke-closed; do
    perfbench_last=$(cargo run --release --offline -q --manifest-path perfbench/Cargo.toml -- \
        --workload "$workload" --seconds 2 --trace 0 | tail -n 1)
    case "$perfbench_last" in
        *'"correct": true'*) ;;
        *)
            echo "ERROR: perfbench $workload smoke was not correct: $perfbench_last" >&2
            exit 1
            ;;
    esac
    # invoke-open and peer-total fail no op. invoke-closed loses calls
    # to its send window's starvation (ROADMAP item 2), so it is held to
    # correctness only.
    if [ "$workload" != invoke-closed ]; then
        case "$perfbench_last" in
            *'"failed": 0,'*) ;;
            *)
                echo "ERROR: perfbench $workload smoke failed ops: $perfbench_last" >&2
                exit 1
                ;;
        esac
    fi
done
if ! git diff --quiet -- perfbench/Cargo.lock; then
    echo "ERROR: building perfbench rewrote perfbench/Cargo.lock; a dependency of a crate it builds changed" >&2
    exit 1
fi

echo "==> no build artifacts under version control"
if [ -n "$(git ls-files target/)" ]; then
    echo "ERROR: target/ files are tracked by git; run 'git rm -r --cached target/'" >&2
    exit 1
fi

echo "OK"
