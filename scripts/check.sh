#!/usr/bin/env bash
# The CI gate: formatting, lints, and the test suite.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== cargo fmt --check"
cargo fmt --all --check

# The workspace linter runs first among the custom gates: it is
# dependency-free, builds in seconds, and fails on any determinism /
# obs-registry (a dead name row, or a read of an unregistered name:
# the compiler refuses a wrong name at an emit) / error-taxonomy /
# panic-hygiene / SAFETY violation —
# or, via the flow-sensitive passes, a lock class missing from the
# `locks!` table (common::locks), any static lock-order edge against
# the table's rank, a blocking call under a live guard, or a dropped
# Deadline/TraceCtx — not
# explicitly excepted in fabriclint.allow or an inline allow comment. The JSON report lands
# in target/ for tooling that wants machine-readable findings.
echo "== fabriclint --workspace"
cargo run -q -p fabriclint -- --workspace
mkdir -p target
cargo run -q -p fabriclint -- --workspace --format json > target/fabriclint.json

echo "== cargo clippy --workspace -D warnings"
cargo clippy --workspace --all-targets -q -- -D warnings

echo "== cargo build --workspace --all-features"
cargo build --workspace --all-features -q

# A doc link to an item that was renamed or deleted fails here, and so
# does a public doc's link to a private item, which renders dead. The
# vendored crates are left out: vendored proptest carries an ambiguous
# link of its own.
echo "== cargo doc --workspace (broken and private intra-doc links)"
RUSTDOCFLAGS="-D rustdoc::broken_intra_doc_links -D rustdoc::private_intra_doc_links" \
    cargo doc --workspace --no-deps -q --exclude proptest --exclude rand --exclude parking_lot

# --workspace: the root is itself a package, so a bare `cargo test`
# would run only its suites and skip every crate's own (the scan
# differentials, the recorder golden log, the connector integration
# suites, the fabriclint fixtures, the bench acceptance tests). The
# root's own suites are the gates for fault tolerance (chaos), grey
# failures (resilience), the Tuple Mover (tuple_mover) and the elastic
# cluster (rebalance); they run here once, not again by name.
echo "== cargo test -q --workspace"
cargo test -q --workspace

# The run-length container visibility against the per-row model it
# replaced: the 256 cases above, over eight more seed sets.
echo "== visibility property, 8 more seed sets"
cargo test -q -p mppdb --lib store::model_tests -- --ignored

# The typed predicate kernels against the interpreter: the 256 cases
# above, over eight more seed sets.
echo "== predicate kernel differential, 8 more seed sets"
cargo test -q -p mppdb --lib storage::predicate::tests -- --ignored

# The columnar COPY, DIRECT and into the WOS, against the row routine it
# replaced: the 256 cases above, over eight more seed sets.
echo "== load differential, 8 more seed sets"
cargo test -q -p mppdb --lib copy::differential -- --ignored

# The Avro writer, building each block inside the file it returns,
# against the reference writer's bytes: the 256 cases above, over eight
# more seed sets.
echo "== avro writer byte identity, 8 more seed sets"
cargo test -q -p avrolite --lib writer_bytes_match_the_reference -- --ignored

# The charge the S2V append commit records for its hand-over against
# the scan and insert it stands for: the 256 cases above, over eight
# more seed sets.
echo "== append charge differential, 8 more seed sets"
cargo test -q -p mppdb --lib query::charge_differential -- --ignored

# The lane kernels of a container build (column-wise hash, statistics,
# encoding choice) against their row references: the properties above,
# over eight more seed sets.
echo "== container-build kernel properties, 8 more seed sets"
cargo test -q -p mppdb --lib storage::batch::tests -- --ignored

# Rows that are windows onto a batch's shared block against the owned
# rows of the per-row transposition: the 256 cases above, over eight
# more seed sets.
echo "== row window property, 8 more seed sets"
cargo test -q -p mppdb --lib storage::batch::windows -- --ignored

# The column-at-a-time aggregate fold against the row fold over the
# same scan's rows: the 256 cases above, over eight more seed sets.
echo "== aggregate differential, 8 more seed sets"
cargo test -q -p mppdb --test agg_differential aggregate_fold -- --ignored

# SQL aggregates, lowered onto the pushed-down aggregate scan, against
# the row fold over the rows the same read returns: the 256 generated
# statements above, over eight more seed sets.
echo "== SQL aggregate differential, 8 more seed sets"
cargo test -q -p mppdb --test agg_differential sql_aggregates -- --ignored

# The worker pool under 10,000 jobs of random width, with nested jobs
# and panicking calls: every call runs once, every panic comes back.
echo "== worker pool stress, 10k random jobs"
cargo test -q -p common --lib pool -- --ignored

# The hedge timer under 10,000 hedged reads from eight threads, with
# random delays, arm latencies, cooperative and uncooperative arms and
# failures: every read returns once, succeeds whenever an arm did, never
# surfaces a cancelled arm's error, and leaves nothing armed.
echo "== hedge timer stress, 10k hedged reads"
cargo test -q -p connector --lib retry -- --ignored

# The wall-clock benchmark is a package of its own, outside the
# workspace: its tests run every workload at 1/100 scale against the
# generator-side oracles, so a product change that breaks a benchmark
# oracle fails here and not in the bench pipeline.
echo "== cargo test (perfbench)"
cargo test -q --offline --manifest-path perfbench/Cargo.toml

# Static-vs-dynamic lock-order diff, in declared class names: the suites
# above exported their runtime-witnessed acquisition edges
# (target/lockwitness-*.edges) after asserting that none went against
# rank; every witnessed edge must be derivable from source by the
# static lock-order pass (exit 1 if not — an analysis soundness hole),
# while statically-possible-but-never-witnessed edges are only reported
# as coverage. The suites assert the same inclusion as tests; this step
# re-runs the diff through the CLI so the edge lists land in the log.
echo "== fabriclint --lock-graph"
witness_args=()
for f in target/lockwitness-*.edges; do
    if [ -e "$f" ]; then witness_args+=(--witness "$f"); fi
done
cargo run -q -p fabriclint -- --lock-graph ${witness_args[@]+"${witness_args[@]}"} > /dev/null

# Three ablations through the one bench binary, one process each. They
# regenerate BENCH_pushdown.json (asserting every cell returns the
# identical aggregate), BENCH_stream.json and BENCH_rebalance.json into
# a temporary directory, so the committed reference files stay as they
# are; their gates (≥5x scan and ≥10x wire reduction, mover-on strictly
# faster, zero failures and a bounded P99) also run as bench lib tests
# above.
bench_out="$(mktemp -d)"
for e in pushdown stream rebalance; do
    echo "== bench $e"
    BENCH_OUT_DIR="$bench_out" cargo run -q -p bench -- "$e" > /dev/null
done
rm -rf "$bench_out"

echo "All checks passed."
