//! Shared helpers for the integration suites.

use std::path::Path;

/// Assert the suite took no lock against its declared rank, and that
/// the runtime lock-order witness is a subgraph of the static
/// lock-order graph fabriclint derives from source: every edge the
/// suite actually drove at runtime must be statically derivable, or
/// the static analysis has lost a guard/alias and its rank check can
/// no longer be trusted. Also writes the witnessed edges to
/// `target/lockwitness-<suite>.edges` so `fabriclint --lock-graph
/// --witness <file>` can re-run the same diff from the CLI.
///
/// The witness only records in debug builds; release test runs skip.
pub fn assert_witness_subgraph(suite: &str) {
    if !parking_lot::witness::active() {
        return;
    }
    let inversions = parking_lot::witness::snapshot().inversions;
    assert!(
        inversions.is_empty(),
        "locks taken against their rank (held class, taken class): {inversions:?}"
    );
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let text = parking_lot::witness::export_edges_text();
    let target = root.join("target");
    std::fs::create_dir_all(&target).ok();
    std::fs::write(target.join(format!("lockwitness-{suite}.edges")), &text).ok();

    let graph = fabriclint::lock_graph_workspace(root).expect("lint workspace sources");
    let mut missing = Vec::new();
    for line in text.lines() {
        let mut cols = line.split('\t');
        if let (Some(from), Some(to)) = (cols.next(), cols.next()) {
            if !graph.has_edge(from, to) {
                missing.push(format!("{from} -> {to}"));
            }
        }
    }
    assert!(
        missing.is_empty(),
        "witnessed lock edges not statically derivable (the static-lock-order \
         analysis lost a guard or an alias; fix the analyzer, not this test):\n  {}",
        missing.join("\n  ")
    );
}
