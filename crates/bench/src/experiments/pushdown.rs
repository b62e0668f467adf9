//! Ablation (DESIGN.md §12): zone-map data skipping × partial-aggregate
//! pushdown, over a time-clustered fact table.
//!
//! The workload is the canonical analytic probe: filter a narrow recent
//! time window out of an append-ordered table, then aggregate it. The
//! four cells toggle the two independent optimizations:
//!
//! * **skipping** — per-container zone maps eliminate containers whose
//!   `ts` range cannot intersect the window before any column is
//!   decoded;
//! * **aggregate pushdown** — each V2S piece ships partial accumulator
//!   states (one row) instead of its matching rows.
//!
//! Volumes are recorded at lab scale and replayed through the simulator
//! at 1M/10M/100M paper-scale rows; the two headline ratios (scanned
//! rows and wire bytes) are scale-invariant and asserted by the
//! in-module acceptance tests.

use std::collections::BTreeMap;

use common::agg::{AggCall, AggFunc};
use common::{row, Expr, Row, Value};
use netsim::record::Event;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

use crate::report::ReportRow;
use crate::{simulate, SimParams, TestBed};

/// Lab-scale row count; the simulator scales volumes up from here.
pub const LAB_ROWS: usize = 8_000;
/// Moveout batches; each becomes one ROS container per node with a
/// contiguous `ts` range, which is what makes zone maps selective.
pub const CHUNKS: usize = 16;

/// One ablation cell: its recorded transfer events and counter deltas.
pub struct Cell {
    pub skipping: bool,
    pub agg_pushdown: bool,
    pub events: Vec<Event>,
    pub counters: BTreeMap<String, u64>,
}

impl Cell {
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }
}

/// The full ablation output: the four cells plus the derived ratios.
pub struct PushdownReport {
    pub cells: Vec<Cell>,
    /// Rows examined without skipping / with skipping (agg off cells).
    pub scan_reduction: f64,
    /// V2S wire bytes pulled / shipped as partials (skip-on cells).
    pub wire_reduction: f64,
}

/// Create and populate the clustered table: `ts` is append-ordered, so
/// each moveout chunk becomes containers with narrow `ts` zone maps.
pub fn seed_clustered(bed: &TestBed, table: &str) {
    let mut session = bed.db.connect(0).expect("node 0 up");
    session
        .execute(&format!(
            "CREATE TABLE {table} (id BIGINT, ts BIGINT, grp VARCHAR, val DOUBLE) \
             SEGMENTED BY HASH(id) ALL NODES"
        ))
        .expect("create clustered table");
    let mut rng = StdRng::seed_from_u64(17);
    let rows: Vec<Row> = (0..LAB_ROWS)
        .map(|i| {
            row![
                i as i64,
                i as i64,
                format!("g{}", rng.random_range(0..7)),
                rng.random_range(0..1000) as f64 * 0.1
            ]
        })
        .collect();
    for chunk in rows.chunks(LAB_ROWS / CHUNKS) {
        session.insert(table, chunk.to_vec()).expect("chunk insert");
        bed.db.moveout_all();
    }
    bed.clear_recorders();
}

/// Run one cell: filter the last `1/CHUNKS` time window, aggregate it,
/// verify the answer, and capture events + counters.
pub fn run_cell(bed: &TestBed, table: &str, skipping: bool, agg_pushdown: bool) -> Cell {
    bed.clear_recorders();
    let before = obs::global().snapshot();
    let df = bed
        .ctx
        .read()
        .format(connector::DEFAULT_SOURCE)
        .option("host", 0)
        .option("table", table)
        .option("stats_skipping", skipping)
        .option("agg_pushdown", agg_pushdown)
        .load()
        .expect("V2S relation");
    let window = (LAB_ROWS - LAB_ROWS / CHUNKS) as i64;
    let out = df
        .filter(Expr::col("ts").gt_eq(Expr::lit(window)))
        .expect("filter binds")
        .agg(
            &[],
            vec![
                AggCall::count_star(),
                AggCall::new(AggFunc::Sum, "val"),
                AggCall::new(AggFunc::Min, "ts"),
                AggCall::new(AggFunc::Max, "ts"),
            ],
        )
        .expect("aggregate")
        .collect()
        .expect("collect");
    // Every cell must produce the identical answer; the ablation only
    // moves where the work happens.
    assert_eq!(out.len(), 1);
    assert_eq!(out[0].get(0), &Value::Int64((LAB_ROWS / CHUNKS) as i64));
    assert_eq!(out[0].get(2), &Value::Int64(window));
    assert_eq!(out[0].get(3), &Value::Int64(LAB_ROWS as i64 - 1));
    Cell {
        skipping,
        agg_pushdown,
        events: bed.db.recorder().drain(),
        counters: obs::global().snapshot().counters_since(&before),
    }
}

/// Run all four cells and derive the headline ratios.
pub fn run(bed: &TestBed) -> PushdownReport {
    const TABLE: &str = "pushdown_fact";
    seed_clustered(bed, TABLE);
    let mut cells = Vec::new();
    for (skipping, agg_pushdown) in [(false, false), (false, true), (true, false), (true, true)] {
        cells.push(run_cell(bed, TABLE, skipping, agg_pushdown));
    }
    let by = |skip: bool, agg: bool| {
        cells
            .iter()
            .find(|c| c.skipping == skip && c.agg_pushdown == agg)
            .expect("all four cells ran")
    };
    // Scan reduction on the pure scan path (agg off both sides), wire
    // reduction with skipping fixed on (so only pushdown varies).
    let scan_reduction = by(false, false).counter("scan.rows_examined") as f64
        / by(true, false).counter("scan.rows_examined").max(1) as f64;
    let wire_reduction = by(true, false).counter("v2s.bytes") as f64
        / by(true, true).counter("v2s.bytes").max(1) as f64;
    PushdownReport {
        cells,
        scan_reduction,
        wire_reduction,
    }
}

/// Render the report rows: simulated seconds for each cell at each
/// paper scale, then the scale-invariant ratios.
pub fn report_rows(bed: &TestBed, report: &PushdownReport) -> Vec<ReportRow> {
    let mut rows = Vec::new();
    for (scale_label, paper_rows) in [
        ("1M", 1_000_000u64),
        ("10M", 10_000_000),
        ("100M", 100_000_000),
    ] {
        let params = SimParams::new(
            bed.db_nodes,
            bed.compute_nodes,
            paper_rows as f64 / LAB_ROWS as f64,
        );
        for cell in &report.cells {
            let label = format!(
                "{scale_label} rows — skipping {}, agg pushdown {}",
                if cell.skipping { "on" } else { "off" },
                if cell.agg_pushdown { "on" } else { "off" },
            );
            rows.push(ReportRow::new(
                label,
                None,
                simulate(&cell.events, &params).seconds,
            ));
        }
    }
    rows.push(
        ReportRow::new(
            "scanned-row reduction (zone-map skipping)",
            None,
            report.scan_reduction,
        )
        .with_unit("x"),
    );
    rows.push(
        ReportRow::new(
            "wire-byte reduction (aggregate pushdown)",
            None,
            report.wire_reduction,
        )
        .with_unit("x"),
    );
    rows
}

/// The whole ablation on a fresh 4:8 bed, as report rows.
pub fn report() -> Vec<ReportRow> {
    let bed = TestBed::new(4, 8);
    let result = run(&bed);
    report_rows(&bed, &result)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The acceptance gates of the ablation: ≥5× fewer rows scanned for
    /// the selective window, ≥10× fewer wire bytes for the pushed-down
    /// aggregate — and skipping actually eliminated whole containers.
    #[test]
    fn pushdown_ablation_meets_reduction_targets() {
        let bed = TestBed::alone(4, 8);
        let report = run(&bed);
        assert!(
            report.scan_reduction >= 5.0,
            "zone maps must cut scanned rows ≥5x: got {:.1}x",
            report.scan_reduction
        );
        assert!(
            report.wire_reduction >= 10.0,
            "aggregate pushdown must cut wire bytes ≥10x: got {:.1}x",
            report.wire_reduction
        );
        for cell in &report.cells {
            if cell.skipping {
                assert!(
                    cell.counter("scan.containers_skipped") > 0,
                    "skipping cells must eliminate whole containers"
                );
            } else {
                assert_eq!(cell.counter("scan.containers_skipped"), 0);
                assert_eq!(cell.counter("scan.rows_skipped"), 0);
            }
            if cell.agg_pushdown {
                assert!(
                    cell.counter("agg.pushdown.partials_merged") > 0,
                    "pushdown cells must merge partials at the driver"
                );
            } else {
                assert_eq!(cell.counter("agg.pushdown.partials_merged"), 0);
            }
        }
    }
}
