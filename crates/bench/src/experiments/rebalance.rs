//! Ablation (DESIGN.md §14): query availability through an online
//! node-add. The elastic-cluster claim is that membership changes are
//! invisible to readers and writers: while a rebalance copies segment
//! ranges onto a new node, every probe query keeps answering (zero
//! errors, the same count) and every S2V save job lands, with bounded
//! latency inflation over the quiet baseline.
//!
//! The harness arms a seeded rebalance crash with probability 1.0 so
//! each `run_rebalance` call copies exactly one migration and then
//! "dies" — which turns the rebalance into a step-wise background job
//! the probe load can interleave with, exactly the online shape a real
//! rebalancer has. Once every migration is recorded, the next call
//! skips them all and flips the map at an epoch boundary.

use std::sync::Arc;
use std::time::Instant;

use common::{row, DataType, Expr, Row, Schema};
use connector::DefaultSource;
use mppdb::{Cluster, ClusterConfig, FaultPlan, QuerySpec};
use sparklet::{Options, SaveMode, SparkConf, SparkContext};

use crate::report::{Kind, ReportRow};

/// Rows seeded before the membership change.
pub const SEED_ROWS: usize = 24_000;
/// The probe counts ids below this bound; appended rows live far above
/// it, so the correct answer never moves.
pub const PROBE_IDS: i64 = 1_000;
/// Probe queries in the quiet baseline phase.
pub const BASELINE_PROBES: usize = 160;
/// Probe queries between consecutive rebalance migrations.
pub const PROBES_PER_STEP: usize = 6;
/// An S2V append job lands every this-many migration steps.
pub const SAVE_EVERY: usize = 2;
/// Rows per mid-rebalance append job.
pub const APPEND_ROWS: usize = 400;

/// Everything the ablation measures across the three phases: quiet
/// baseline, during the online rebalance, and after the flip.
pub struct RebalanceCell {
    pub baseline_p50_us: f64,
    pub baseline_p99_us: f64,
    pub during_p50_us: f64,
    pub during_p99_us: f64,
    pub after_p50_us: f64,
    pub after_p99_us: f64,
    /// Probe queries issued across all phases.
    pub probes: u64,
    /// Probes that errored or returned the wrong count. Must be zero.
    pub failed_probes: u64,
    /// S2V save jobs submitted while the rebalance was in flight.
    pub jobs: u64,
    /// Save jobs that failed. Must be zero.
    pub failed_jobs: u64,
    /// Interrupted `run_rebalance` calls (one migration each).
    pub steps: u64,
    pub migrations: u64,
    pub rows_copied: u64,
    pub flips: u64,
}

fn bed() -> (SparkContext, Arc<Cluster>) {
    let db = Cluster::new(ClusterConfig {
        node_count: 4,
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

fn schema() -> Schema {
    Schema::from_pairs(&[("id", DataType::Int64), ("val", DataType::Float64)])
}

fn save(ctx: &SparkContext, rows: Vec<Row>, mode: SaveMode) -> Result<(), sparklet::SparkError> {
    let df = ctx
        .create_dataframe(rows, schema(), 4)
        .expect("generated rows match the schema");
    df.write()
        .format(connector::DEFAULT_SOURCE)
        .options(
            Options::new()
                .with("host", 0)
                .with("table", "elastic_fact")
                .with("numPartitions", 4),
        )
        .mode(mode)
        .save()
        .map(|_| ())
}

fn pctl(sorted_us: &[u64], q: f64) -> f64 {
    if sorted_us.is_empty() {
        return 0.0;
    }
    let idx = ((sorted_us.len() - 1) as f64 * q).round() as usize;
    sorted_us[idx] as f64
}

/// One timed probe: a narrow count whose answer is pinned by
/// construction. An error or a wrong count both count as a failure —
/// availability means *correct* answers, not just connections.
fn probe(db: &Arc<Cluster>, node: usize, samples_us: &mut Vec<u64>, failed: &mut u64) {
    let spec = QuerySpec::scan("elastic_fact")
        .filter(Expr::col("id").lt(Expr::lit(PROBE_IDS)))
        .count();
    let t0 = Instant::now();
    match db.connect(node).and_then(|mut s| s.query(&spec)) {
        Ok(result) if result.count == PROBE_IDS as u64 => {
            samples_us.push(t0.elapsed().as_micros() as u64);
        }
        _ => *failed += 1,
    }
}

/// Run the ablation: seed, measure a quiet baseline, add a node and
/// drive its rebalance one migration at a time under probe + save
/// load, then measure again after the flip.
pub fn run() -> RebalanceCell {
    let (ctx, db) = bed();
    let seed: Vec<Row> = (0..SEED_ROWS as i64)
        .map(|id| row![id, id as f64 * 0.5])
        .collect();
    save(&ctx, seed, SaveMode::Overwrite).expect("seeding save");

    let before = obs::global().snapshot();
    let mut failed_probes = 0u64;
    let mut probes = 0u64;

    // Phase A: quiet baseline on the 4-node cluster.
    let mut baseline_us: Vec<u64> = Vec::new();
    for i in 0..BASELINE_PROBES {
        probe(&db, i % 4, &mut baseline_us, &mut failed_probes);
        probes += 1;
    }

    // Phase B: node-add under load. Every `run_rebalance` call copies
    // one migration and crash-returns; probes and append jobs run in
    // the gaps. Dual-writes cover the in-flight target map, so the
    // appends need no special handling.
    db.faults()
        .arm(FaultPlan::seeded(0xE1A5).with_rebalance_crash(1.0));
    let mut during_us: Vec<u64> = Vec::new();
    let mut steps = 0u64;
    let mut jobs = 0u64;
    let mut failed_jobs = 0u64;
    let mut next_append_id = 1_000_000i64;
    let _ = db.add_node();
    while db.rebalance_in_progress() && steps < 256 {
        steps += 1;
        for p in 0..PROBES_PER_STEP {
            probe(
                &db,
                (steps as usize + p) % 4,
                &mut during_us,
                &mut failed_probes,
            );
            probes += 1;
        }
        if (steps as usize).is_multiple_of(SAVE_EVERY) {
            let rows: Vec<Row> = (0..APPEND_ROWS as i64)
                .map(|i| row![next_append_id + i, 0.0f64])
                .collect();
            next_append_id += APPEND_ROWS as i64;
            jobs += 1;
            if save(&ctx, rows, SaveMode::Append).is_err() {
                failed_jobs += 1;
            }
        }
        let _ = db.run_rebalance();
    }
    db.faults().disarm();
    assert!(
        !db.rebalance_in_progress(),
        "rebalance must finish within the step budget"
    );

    // Phase C: the flipped 5-node cluster under the same probe load.
    let mut after_us: Vec<u64> = Vec::new();
    for i in 0..BASELINE_PROBES {
        probe(&db, i % db.node_count(), &mut after_us, &mut failed_probes);
        probes += 1;
    }

    let delta = obs::global().snapshot().counters_since(&before);
    baseline_us.sort_unstable();
    during_us.sort_unstable();
    after_us.sort_unstable();
    RebalanceCell {
        baseline_p50_us: pctl(&baseline_us, 0.50),
        baseline_p99_us: pctl(&baseline_us, 0.99),
        during_p50_us: pctl(&during_us, 0.50),
        during_p99_us: pctl(&during_us, 0.99),
        after_p50_us: pctl(&after_us, 0.50),
        after_p99_us: pctl(&after_us, 0.99),
        probes,
        failed_probes,
        jobs,
        failed_jobs,
        steps,
        migrations: delta.get("rebalance.migrations").copied().unwrap_or(0),
        rows_copied: delta.get("rebalance.rows_copied").copied().unwrap_or(0),
        flips: delta.get("rebalance.flips").copied().unwrap_or(0),
    }
}

/// P99 inflation of the during-rebalance phase over the quiet baseline.
pub fn p99_inflation(cell: &RebalanceCell) -> f64 {
    cell.during_p99_us / cell.baseline_p99_us.max(1.0)
}

pub fn report_rows(cell: &RebalanceCell) -> Vec<ReportRow> {
    let latency = |label: &str, us: f64| {
        ReportRow::new(label, None, us)
            .with_unit("us")
            .with_kind(Kind::Measured)
    };
    let count = |label: &str, n: u64, unit| {
        ReportRow::new(label, None, n as f64)
            .with_unit(unit)
            .with_kind(Kind::Counted)
    };
    vec![
        latency("probe P50 — quiet baseline", cell.baseline_p50_us),
        latency("probe P99 — quiet baseline", cell.baseline_p99_us),
        latency("probe P50 — during rebalance", cell.during_p50_us),
        latency("probe P99 — during rebalance", cell.during_p99_us),
        latency("probe P50 — after flip", cell.after_p50_us),
        latency("probe P99 — after flip", cell.after_p99_us),
        ReportRow::new("P99 inflation (during/baseline)", None, p99_inflation(cell))
            .with_unit("x")
            .with_kind(Kind::Measured),
        count("probes issued", cell.probes, ""),
        count("probes failed", cell.failed_probes, ""),
        count("save jobs during rebalance", cell.jobs, ""),
        count("save jobs failed", cell.failed_jobs, ""),
        count("migrations copied", cell.migrations, ""),
        count("rows migrated", cell.rows_copied, "rows"),
        count("map flips", cell.flips, ""),
    ]
}

/// The whole ablation as report rows, with its headline beside them.
pub fn report() -> Vec<ReportRow> {
    let cell = run();
    println!(
        "node-add under load: {}/{} probes answered, {}/{} jobs landed, \
         {} migrations over {} steps, P99 inflation {:.2}x",
        cell.probes - cell.failed_probes,
        cell.probes,
        cell.jobs - cell.failed_jobs,
        cell.jobs,
        cell.migrations,
        cell.steps,
        p99_inflation(&cell),
    );
    report_rows(&cell)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The acceptance gate of the ablation: a node-add under sustained
    /// probe + save load completes with zero failed queries, zero
    /// failed jobs, exactly one map flip, and bounded P99 inflation.
    #[test]
    fn node_add_under_load_keeps_availability() {
        let _alone = crate::fabric::obs_counters::exclusive();
        let cell = run();
        assert_eq!(
            cell.failed_probes, 0,
            "every probe must answer correctly through the rebalance"
        );
        assert_eq!(cell.failed_jobs, 0, "every save job must land");
        assert_eq!(cell.flips, 1, "exactly one epoch-boundary map flip");
        assert!(cell.migrations > 0, "the add must actually move data");
        assert!(cell.rows_copied > 0);
        assert!(cell.steps > 1, "the rebalance must be genuinely stepwise");
        let inflation = p99_inflation(&cell);
        assert!(
            cell.during_p99_us <= cell.baseline_p99_us * 12.0 + 5_000.0,
            "P99 inflation through the rebalance must stay bounded: \
             {:.0}us during vs {:.0}us baseline ({inflation:.2}x)",
            cell.during_p99_us,
            cell.baseline_p99_us,
        );
    }
}
