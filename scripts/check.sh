#!/usr/bin/env bash
# The CI gate: formatting, lints, and the test suite.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== cargo fmt --check"
cargo fmt --all --check

# The workspace linter runs first among the custom gates: it is
# dependency-free, builds in seconds, and fails on any determinism /
# obs-registry / error-taxonomy / panic-hygiene / SAFETY violation —
# or, via the flow-sensitive passes, any static lock-order cycle,
# blocking call under a live guard, or dropped Deadline/TraceCtx — not
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

# A doc link to an item that was renamed or deleted fails here. The
# vendored crates are left out: vendored proptest carries an ambiguous
# link of its own.
echo "== cargo doc --workspace (broken intra-doc links)"
RUSTDOCFLAGS="-D rustdoc::broken_intra_doc_links" cargo doc --workspace --no-deps -q \
    --exclude proptest --exclude rand --exclude parking_lot

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

# The column-at-a-time aggregate fold against the row fold over the
# same scan's rows: the 256 cases above, over eight more seed sets.
echo "== aggregate differential, 8 more seed sets"
cargo test -q -p mppdb --test agg_differential -- --ignored

# The worker pool under 10,000 jobs of random width, with nested jobs
# and panicking calls: every call runs once, every panic comes back.
echo "== worker pool stress, 10k random jobs"
cargo test -q -p common --lib pool -- --ignored

# The wall-clock benchmark is a package of its own, outside the
# workspace: its tests run every workload at 1/100 scale against the
# generator-side oracles, so a product change that breaks a benchmark
# oracle fails here and not in the bench pipeline.
echo "== cargo test (perfbench)"
cargo test -q --offline --manifest-path perfbench/Cargo.toml

# Static-vs-dynamic lock-order diff: the suites above exported their
# runtime-witnessed acquisition edges (target/lockwitness-*.edges);
# every witnessed edge must be derivable from source by the static
# lock-order pass (exit 1 if not — an analysis soundness hole), while
# statically-possible-but-never-witnessed edges are only reported as
# coverage. The suites assert the same inclusion as tests; this step
# re-runs the diff through the CLI so the edge lists land in the log.
echo "== fabriclint --lock-graph"
witness_args=()
for f in target/lockwitness-*.edges; do
    if [ -e "$f" ]; then witness_args+=(--witness "$f"); fi
done
cargo run -q -p fabriclint -- --lock-graph ${witness_args[@]+"${witness_args[@]}"} > /dev/null

# Three ablations through the one bench binary, one process each. They
# regenerate BENCH_pushdown.json (asserting every cell returns the
# identical aggregate), BENCH_stream.json and BENCH_rebalance.json;
# their gates (≥5x scan and ≥10x wire reduction, mover-on strictly
# faster, zero failures and a bounded P99) also run as bench lib tests
# above.
for e in pushdown stream rebalance; do
    echo "== bench $e"
    cargo run -q -p bench -- "$e" > /dev/null
done

echo "All checks passed."
