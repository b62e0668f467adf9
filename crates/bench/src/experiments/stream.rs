//! Ablation (DESIGN.md §13): steady-state scan latency under continuous
//! micro-batch streaming ingest, tuple mover on vs off.
//!
//! Both cells trickle the same workload through the streaming S2V path
//! with `copy_direct=false`, so every micro-batch lands in the WOS.
//! Commit-path auto-moveout is disabled in both clusters; the only
//! WOS→ROS motion in the "on" cell is the mover pass the stream writer
//! schedules after each flush. The probe is the canonical operational
//! query against a growing table: a narrow-predicate count that zone
//! maps answer from one or two containers — when a mover keeps the WOS
//! drained and the trickle compacted. With the mover off the same probe
//! must decode every WOS row ever ingested.

use std::sync::Arc;
use std::time::Instant;

use common::{row, DataType, Expr, Row, Schema};
use connector::{ConnectorOptions, DefaultSource, StreamWriter};
use mppdb::{Cluster, ClusterConfig, QuerySpec};
use sparklet::{SaveMode, SparkConf, SparkContext};

use crate::report::{Kind, ReportRow};

/// Micro-batches ingested per cell.
pub const BATCHES: usize = 48;
/// Rows per micro-batch.
pub const BATCH_ROWS: usize = 1_500;
/// Batches ingested before latency sampling starts (steady state).
pub const WARMUP: usize = 8;

/// One cell of the ablation: the same continuous-ingest workload with
/// the tuple mover on or off.
pub struct StreamCell {
    pub mover_on: bool,
    /// Median steady-state probe latency, microseconds.
    pub median_probe_us: f64,
    /// Rows the steady-state probes had to examine, total.
    pub rows_examined: u64,
    /// Containers the probes skipped outright via zone maps.
    pub containers_skipped: u64,
    /// Micro-batches the stream writer committed.
    pub batches: u64,
}

/// A self-hosted bed whose commit path never auto-moves rows: the two
/// cells differ *only* in whether the stream writer runs mover passes.
fn bed() -> (SparkContext, Arc<Cluster>) {
    let db = Cluster::new(ClusterConfig {
        node_count: 4,
        moveout_threshold: usize::MAX,
        ..ClusterConfig::default()
    });
    let ctx = SparkContext::new(SparkConf {
        nodes: 8,
        cores_per_node: 8,
        max_task_attempts: 4,
        thread_cap: 8,
        ..SparkConf::default()
    });
    DefaultSource::register(&ctx, Arc::clone(&db));
    (ctx, db)
}

fn batch(seq: usize) -> Vec<Row> {
    (0..BATCH_ROWS)
        .map(|i| {
            let id = (seq * BATCH_ROWS + i) as i64;
            row![id, id as f64 * 0.25]
        })
        .collect()
}

/// Run one cell: stream `BATCHES` micro-batches, timing a narrow count
/// probe after every post-warmup batch.
pub fn run_cell(mover_on: bool) -> StreamCell {
    let (ctx, db) = bed();
    let schema = Schema::from_pairs(&[("id", DataType::Int64), ("val", DataType::Float64)]);
    let opts = ConnectorOptions::builder("stream_fact")
        .num_partitions(4)
        .copy_direct(false)
        .stream(BATCH_ROWS, 600_000)
        .mover_enabled(mover_on)
        .build()
        .expect("valid stream options");
    let mut writer =
        StreamWriter::open(&ctx, &db, schema, &opts, SaveMode::Overwrite).expect("stream opens");

    // The operational probe: how many of the first batch's ids are
    // live? Old data in a narrow id range — exactly what zone maps
    // answer without touching the rest of the table.
    let probe = QuerySpec::scan("stream_fact")
        .filter(Expr::col("id").lt(Expr::lit(BATCH_ROWS as i64)))
        .count();
    let mut samples_us: Vec<u64> = Vec::new();
    let before = obs::global().snapshot();
    for seq in 0..BATCHES {
        writer.append_rows(batch(seq)).expect("micro-batch commits");
        if seq < WARMUP {
            continue;
        }
        let mut session = db.connect(seq % 4).expect("node up");
        let t0 = Instant::now();
        let result = session.query(&probe).expect("probe scans");
        samples_us.push(t0.elapsed().as_micros() as u64);
        assert_eq!(result.count, BATCH_ROWS as u64, "probe answer is stable");
    }
    let delta = obs::global().snapshot().counters_since(&before);
    let report = writer.finish().expect("stream finishes");
    assert_eq!(report.rows_loaded as usize, BATCHES * BATCH_ROWS);

    samples_us.sort_unstable();
    StreamCell {
        mover_on,
        median_probe_us: samples_us[samples_us.len() / 2] as f64,
        rows_examined: delta.get("scan.rows_examined").copied().unwrap_or(0),
        containers_skipped: delta.get("scan.containers_skipped").copied().unwrap_or(0),
        batches: report.batches,
    }
}

/// Run both cells (mover off first, so its counters cannot inherit the
/// other cell's work on a shared collector).
pub fn run() -> (StreamCell, StreamCell) {
    (run_cell(false), run_cell(true))
}

/// Median probe latency of the mover-off cell over the mover-on one.
pub fn speedup(off: &StreamCell, on: &StreamCell) -> f64 {
    off.median_probe_us / on.median_probe_us.max(1.0)
}

/// Render the report rows: the headline latencies, the work each cell's
/// probes did, and the derived speedup.
pub fn report_rows(off: &StreamCell, on: &StreamCell) -> Vec<ReportRow> {
    vec![
        ReportRow::new(
            "probe latency, median — mover off",
            None,
            off.median_probe_us,
        )
        .with_unit("us")
        .with_kind(Kind::Measured),
        ReportRow::new("probe latency, median — mover on", None, on.median_probe_us)
            .with_unit("us")
            .with_kind(Kind::Measured),
        ReportRow::new(
            "probe rows examined — mover off",
            None,
            off.rows_examined as f64,
        )
        .with_unit("rows")
        .with_kind(Kind::Counted),
        ReportRow::new(
            "probe rows examined — mover on",
            None,
            on.rows_examined as f64,
        )
        .with_unit("rows")
        .with_kind(Kind::Counted),
        ReportRow::new(
            "probe containers skipped — mover on",
            None,
            on.containers_skipped as f64,
        )
        .with_unit("")
        .with_kind(Kind::Counted),
        ReportRow::new("steady-state scan speedup (off/on)", None, speedup(off, on))
            .with_unit("x")
            .with_kind(Kind::Measured),
    ]
}

/// The whole ablation as report rows, with its headline beside them.
pub fn report() -> Vec<ReportRow> {
    let (off, on) = run();
    println!(
        "mover speedup: {:.2}x median probe latency under continuous ingest \
         ({BATCHES} micro-batches of {BATCH_ROWS} rows)",
        speedup(&off, &on),
    );
    report_rows(&off, &on)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The acceptance gate of the ablation: with the identical
    /// continuous-ingest workload, a running tuple mover makes the
    /// steady-state probe strictly faster — because its probes examine
    /// strictly fewer rows (WOS drained, containers zone-map-skipped).
    #[test]
    fn mover_makes_steady_state_scans_strictly_faster() {
        let _alone = crate::fabric::obs_counters::exclusive();
        let (off, on) = run();
        assert_eq!(off.batches as usize, BATCHES);
        assert_eq!(on.batches as usize, BATCHES);
        assert!(
            on.rows_examined < off.rows_examined,
            "mover-on probes must examine fewer rows: on {} vs off {}",
            on.rows_examined,
            off.rows_examined
        );
        assert!(
            on.containers_skipped > 0,
            "mover-built containers must be zone-map-skippable"
        );
        assert!(
            on.median_probe_us < off.median_probe_us,
            "mover-on steady-state latency must beat mover-off: on {}us vs off {}us",
            on.median_probe_us,
            off.median_probe_us
        );
    }
}
