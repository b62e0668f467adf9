//! The three save strategies side by side (paper Sec. 3.2 + Sec. 5):
//!
//! 1. **Direct S2V** — the paper's contribution,
//! 2. **Pre-hashed S2V** — Sec. 5's future-work optimization
//!    (implemented here): zero database-internal shuffle,
//! 3. **Two-stage via a DFS landing zone** — the Spark-Redshift-style
//!    alternative Sec. 5 discusses.
//!
//! ```sh
//! cargo run --example transfer_strategies
//! ```

use netsim::record::{EventKind, NetClass, NodeRef};
use vertica_spark_fabric::prelude::*;

fn db_internal_bytes(events: &[netsim::record::Event]) -> u64 {
    events
        .iter()
        .filter_map(|e| match &e.kind {
            EventKind::Transfer {
                src: NodeRef::Db(_),
                dst: NodeRef::Db(_),
                class: NetClass::DbInternal,
                bytes,
                ..
            } => Some(*bytes),
            _ => None,
        })
        .sum()
}

fn main() {
    let db = Cluster::new(ClusterConfig::default());
    let ctx = SparkContext::new(SparkConf::default());
    DefaultSource::register(&ctx, db.clone());
    let dfs = dfslite::DfsClusterSim::new(dfslite::DfsConfig {
        nodes: 4,
        block_size: 1 << 18,
        replication: 3,
    });

    let schema = Schema::from_pairs(&[
        ("event_id", DataType::Int64),
        ("payload", DataType::Float64),
    ]);
    let rows: Vec<Row> = (0..20_000i64).map(|i| row![i, i as f64 * 0.5]).collect();
    let df = ctx.create_dataframe(rows, schema, 16).unwrap();

    // --- 1. Direct S2V -------------------------------------------------
    db.recorder().clear();
    df.write()
        .format(DEFAULT_SOURCE)
        .option("table", "events_direct")
        .option("numPartitions", 16)
        .mode(SaveMode::Overwrite)
        .save()
        .unwrap();
    let direct_shuffle = db_internal_bytes(&db.recorder().drain());
    println!("direct S2V:      20,000 rows saved; internal shuffle {direct_shuffle} bytes");

    // --- 2. Pre-hashed S2V (Sec. 5) -------------------------------------
    db.recorder().clear();
    df.write()
        .format(DEFAULT_SOURCE)
        .option("table", "events_prehash")
        .option("numPartitions", 16)
        .option("prehash", true)
        .mode(SaveMode::Overwrite)
        .save()
        .unwrap();
    let prehash_shuffle = db_internal_bytes(&db.recorder().drain());
    println!(
        "pre-hashed S2V:  20,000 rows saved; internal shuffle {prehash_shuffle} bytes \
         ({}x less)",
        direct_shuffle / prehash_shuffle.max(1)
    );

    // --- 3. Two-stage via the DFS landing zone --------------------------
    let two_stage_opts = connector::ConnectorOptions::builder("events_two_stage")
        .method(connector::WriteMethod::Dfs)
        .staging_path("/landing/events")
        .build()
        .unwrap();
    let report = connector::SaveRequest::new(&ctx, &db, &df, &two_stage_opts)
        .with_dfs(&dfs)
        .submit()
        .unwrap();
    println!(
        "two-stage:       {} rows staged as {} part files ({} bytes in the \
         landing zone), then loaded in one transaction",
        report.rows_loaded, report.part_files, report.staged_bytes
    );

    // All three produced identical tables.
    let mut s = db.connect(0).unwrap();
    for table in ["events_direct", "events_prehash", "events_two_stage"] {
        let count = s.query(&QuerySpec::scan(table).count()).unwrap().count;
        assert_eq!(count, 20_000);
    }
    println!("\nall three strategies landed identical data, exactly once.");
    println!("see `cargo run -p bench -- ablation_prehash ablation_two_stage`");
    println!("for the simulated paper-scale cost comparison.");
}
