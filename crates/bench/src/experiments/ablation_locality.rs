//! Ablation (DESIGN.md §5): locality-aware hash-range queries vs
//! funneling every range query through a single host — the design
//! choice behind Fig. 10's 4x.
//!
//! Both variants load the same table with the same parallelism; only
//! the routing differs (the JDBC baseline is the "no locality" arm).

use crate::datasets::{self, specs};
use crate::experiments::{seed_table, LAB_D1_ROWS};
use crate::report::ReportRow;
use crate::{simulate, SimParams, TestBed};
use netsim::record::NetClass;

pub fn run() -> Vec<ReportRow> {
    let bed = TestBed::new(4, 8);
    let (schema, rows) = datasets::d1_with_int_column(LAB_D1_ROWS, 100, 42);
    seed_table(&bed, schema, rows, "ablate");
    let spec = specs::d1_100m(LAB_D1_ROWS as u64);
    let params = SimParams::new(4, 8, spec.scale());

    // Arm A: the connector's locality-aware plan.
    bed.clear_recorders();
    bed.ctx
        .read()
        .format(connector::DEFAULT_SOURCE)
        .option("table", "ablate")
        .option("numPartitions", 32)
        .load()
        .unwrap()
        .collect()
        .unwrap();
    let events = bed.db.recorder().drain();
    let shuffle_a: u64 = events
        .iter()
        .filter_map(|e| match &e.kind {
            netsim::record::EventKind::Transfer {
                class: NetClass::DbInternal,
                bytes,
                ..
            } => Some(*bytes),
            _ => None,
        })
        .sum();
    let a = simulate(&events, &params).seconds;

    // Arm B: identical parallelism, all queries through one host.
    bed.clear_recorders();
    bed.ctx
        .read()
        .format(baselines::JDBC_FORMAT)
        .option("dbtable", "ablate")
        .option("partitionColumn", "pct")
        .option("lowerBound", 0)
        .option("upperBound", 99)
        .option("numPartitions", 32)
        .load()
        .unwrap()
        .collect()
        .unwrap();
    let events = bed.db.recorder().drain();
    let shuffle_b: u64 = events
        .iter()
        .filter_map(|e| match &e.kind {
            netsim::record::EventKind::Transfer {
                class: NetClass::DbInternal,
                bytes,
                ..
            } => Some(*bytes),
            _ => None,
        })
        .sum();
    let b = simulate(&events, &params).seconds;

    println!(
        "internal shuffle: locality-aware {} bytes, single-host {} bytes (lab scale)",
        shuffle_a, shuffle_b
    );
    println!("locality speedup: {:.1}x", b / a);
    vec![
        ReportRow::new("locality-aware (connector)", None, a),
        ReportRow::new("single-host funnel (JDBC-style)", None, b),
    ]
}
