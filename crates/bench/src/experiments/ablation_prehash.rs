//! Ablation (paper Sec. 5): standard S2V vs pre-hashed S2V. Pre-hashing
//! aligns each partition with the database node owning its rows,
//! trading an engine-side shuffle for the elimination of all
//! database-internal distribution traffic.

use crate::datasets::{self, specs};
use crate::experiments::LAB_D1_ROWS;
use crate::report::ReportRow;
use crate::{simulate, SimParams, TestBed};
use netsim::record::{EventKind, NetClass, NodeRef};
use sparklet::{Options, SaveMode};

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

pub fn run() -> Vec<ReportRow> {
    let bed = TestBed::new(4, 8);
    let (schema, rows) = datasets::d1(LAB_D1_ROWS, 100, 42);
    let spec = specs::d1_100m(LAB_D1_ROWS as u64);
    let params = SimParams::new(4, 8, spec.scale());

    let mut out = Vec::new();
    for (label, prehash) in [("standard S2V", false), ("pre-hashed S2V", true)] {
        let df = bed.dataframe(schema.clone(), rows.clone(), 128);
        bed.clear_recorders();
        df.write()
            .format(connector::DEFAULT_SOURCE)
            .options(
                Options::new()
                    .with("host", 0)
                    .with("table", format!("prehash_{prehash}"))
                    .with("numPartitions", 128)
                    .with("prehash", prehash),
            )
            .mode(SaveMode::Overwrite)
            .save()
            .unwrap();
        let events = bed.db.recorder().drain();
        let shuffle_gb = db_internal_bytes(&events) as f64 * spec.scale() / 1e9;
        let secs = simulate(&events, &params).seconds;
        println!("{label}: database-internal shuffle {shuffle_gb:.1} GB (paper scale)");
        out.push(ReportRow::new(label, None, secs));
    }
    out
}
