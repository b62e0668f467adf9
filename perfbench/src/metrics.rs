//! The benchmark's metric tables. `BENCHMARK.json` is generated from
//! them (`perf manifest`) and a test keeps the checked-in file equal.

use std::collections::BTreeMap;

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// End-to-end only: the share of the parent's median by which the
    /// metric may worsen before a change counts as a regression.
    pub bound: f64,
    /// Per-layer only: the layer (module) it belongs to.
    pub layer: &'static str,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound,
        layer: "",
    }
}

/// What a user of the fabric sees, from the timed pass (spans off).
/// Every workload reports every one of them:
///
/// * `rows_per_s`, `ops_per_s` — user rows and ops completed per second
///   the clients spent inside calls into the system. In the closed
///   loops that is the timed window less the oracle's own time; in the
///   open loop it is the service capacity at the offered rate.
/// * `op_ms_p50`, `side_ms_p50` — median latency of the workload's main
///   and side op (see `WORKLOADS`): service time in the closed loops,
///   time from the due instant in the open loop.
/// * `setup_s` — median of the repeated set-ups: bed, seeding, warm-up.
///
/// Every bound is a quarter. On the two-core sandbox this was sized on,
/// ten runs of one commit with ten seeds spread (first to third
/// quartile over the median) by 4–14% per metric and workload, and the
/// machine itself drifts by a fifth under sustained load; a bound
/// below a quarter would reject unchanged code.
pub const END_TO_END: [MetricDef; 5] = [
    e2e("rows_per_s", "1/s", Better::Higher, 0.25),
    e2e("ops_per_s", "1/s", Better::Higher, 0.25),
    e2e("op_ms_p50", "ms", Better::Lower, 0.25),
    e2e("side_ms_p50", "ms", Better::Lower, 0.25),
    e2e("setup_s", "s", Better::Lower, 0.25),
];

const fn layer(
    layer: &'static str,
    name: &'static str,
    unit: &'static str,
    better: Better,
) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: 0.0,
        layer,
    }
}

use Better::{Higher, Lower};

/// Single layers, from the traced pass. Three sources:
///
/// * medians of 21 repeated single-threaded calls after 3 warm-up calls
///   (`<module>.<what>_ns_per_row`, `_us`, `_ms`), on the same seeded
///   inputs as the workloads;
/// * exact deltas of what the program already publishes, over the
///   traced pass of the named workload: obs counters per op (unit
///   `1/op`), obs timers as mean microseconds per recorded event,
///   `SaveReport.phase_us`, `Cluster::table_stats`;
/// * the process and the generator.
///
/// A value that does not apply to the workload of the run is 0.
pub const PER_LAYER: [MetricDef; 76] = [
    // Tail latencies: too noisy on a two-core sandbox to carry a bound,
    // and `s2v_bulk_save` completes too few ops for a p95 at all.
    layer("e2e", "e2e.op_ms_p95", "ms", Lower),
    layer("e2e", "e2e.side_ms_p95", "ms", Lower),
    layer("avrolite", "avrolite.encode_ns_per_row", "ns/row", Lower),
    layer("avrolite", "avrolite.decode_ns_per_row", "ns/row", Lower),
    layer("avrolite", "avrolite.bytes_per_row", "B/row", Lower),
    layer("common", "common.hash_ns_per_row", "ns/row", Lower),
    layer("mppdb.copy", "mppdb.copy.avro_ns_per_row", "ns/row", Lower),
    layer("mppdb.copy", "mppdb.copy.rows_ns_per_row", "ns/row", Lower),
    layer("mppdb.copy", "mppdb.copy.wos_ns_per_row", "ns/row", Lower),
    layer("mppdb.copy", "db.copy_us", "us", Lower),
    layer("mppdb.copy", "stats.build_us", "us", Lower),
    layer(
        "mppdb.storage",
        "mppdb.storage.scan_batch_ns_per_row",
        "ns/row",
        Lower,
    ),
    layer(
        "mppdb.storage",
        "mppdb.storage.into_rows_ns_per_row",
        "ns/row",
        Lower,
    ),
    layer(
        "mppdb.storage",
        "mppdb.storage.moveout_ns_per_row",
        "ns/row",
        Lower,
    ),
    layer("mppdb.storage", "mppdb.storage.mover_pass_ms", "ms", Lower),
    layer(
        "mppdb.storage",
        "mppdb.storage.containers_per_node",
        "count",
        Lower,
    ),
    layer(
        "mppdb.storage",
        "mppdb.storage.encoded_bytes_per_raw_byte",
        "B/B",
        Lower,
    ),
    layer("mppdb.storage", "scan.rows_examined", "1/op", Lower),
    layer("mppdb.storage", "scan.values_decoded", "1/op", Lower),
    layer("mppdb.storage", "scan.containers_skipped", "1/op", Higher),
    layer("mppdb.storage", "scan.rows_skipped", "1/op", Higher),
    layer("mppdb.storage", "tm.rows_moved", "1/op", Lower),
    layer("mppdb.storage", "tm.containers_merged", "1/op", Lower),
    layer("mppdb.storage", "tm.sheds", "1/op", Lower),
    layer("mppdb.query", "mppdb.query.agg_sel_us", "us", Lower),
    layer("mppdb.query", "mppdb.query.agg_full_ms", "ms", Lower),
    layer("mppdb.sql", "mppdb.sql.agg_sel_us", "us", Lower),
    layer(
        "mppdb.query",
        "mppdb.query.rows_examined_per_result",
        "rows",
        Lower,
    ),
    layer("mppdb.query", "agg.pushdown.stats_answered", "1/op", Higher),
    layer("mppdb.query", "agg.pushdown.partials_merged", "1/op", Lower),
    layer("mppdb.query", "planner.conjuncts_reordered", "1/op", Lower),
    layer("mppdb.txn", "mppdb.txn.commit_us", "us", Lower),
    layer("mppdb.session", "mppdb.session.connect_us", "us", Lower),
    layer("mppdb.txn", "db.commit_us", "us", Lower),
    layer("mppdb.resource", "db.pool_admit_wait_us", "us", Lower),
    layer("mppdb.resource", "db.pool_queued", "1/op", Lower),
    layer("mppdb.resource", "shed.total", "1/op", Lower),
    layer("sparklet", "sparklet.scheduler.empty_job_us", "us", Lower),
    layer(
        "sparklet",
        "sparklet.dataframe.create_ns_per_row",
        "ns/row",
        Lower,
    ),
    layer(
        "sparklet",
        "sparklet.dataframe.collect_ns_per_row",
        "ns/row",
        Lower,
    ),
    layer("sparklet", "sched.slot_wait_us", "us", Lower),
    layer("sparklet", "sched.task_run_us", "us", Lower),
    layer("sparklet", "sched.tasks_launched", "1/op", Lower),
    layer("sparklet", "sched.task_retries", "1/op", Lower),
    layer("connector", "connector.s2v.phase1_us", "us", Lower),
    layer("connector", "connector.s2v.phase2_us", "us", Lower),
    layer("connector", "connector.s2v.phase3_us", "us", Lower),
    layer("connector", "connector.s2v.phase4_us", "us", Lower),
    layer("connector", "connector.s2v.phase5_us", "us", Lower),
    layer("connector", "connector.v2s.open_us", "us", Lower),
    layer("connector", "v2s.pieces", "1/op", Lower),
    layer("connector", "v2s.bytes", "1/op", Lower),
    layer("connector", "v2s.piece_us", "us", Lower),
    layer("connector", "connector.stream.flush_ms_p50", "ms", Lower),
    layer("connector", "connector.stream.flush_growth_x", "x", Lower),
    layer("connector", "retry.attempts", "1/op", Lower),
    layer("connector", "hedge.launched", "1/op", Lower),
    layer("connector", "failover.connects", "1/op", Lower),
    layer(
        "connector",
        "connector.s2v.prehash_rows_per_s",
        "1/s",
        Higher,
    ),
    layer("connector", "connector.md.score_rows_per_s", "1/s", Higher),
    layer("obs", "obs.overhead_pct.s2v", "%", Lower),
    layer("obs", "obs.overhead_pct.pushdown", "%", Lower),
    layer("obs", "dc.dropped_events", "count", Lower),
    layer("obs", "dc.dropped_spans", "count", Lower),
    layer(
        "netsim.record",
        "netsim.recorder_events_per_op",
        "1/op",
        Lower,
    ),
    layer("process", "proc.cpu_ns_per_row", "ns/row", Lower),
    layer("process", "proc.sys_share", "%", Lower),
    layer("process", "proc.peak_rss_mb", "MiB", Lower),
    layer("generator", "gen.late_frac", "%", Lower),
    layer("generator", "gen.max_late_ms", "ms", Lower),
    layer("baseline", "baseline.csv_insert_rows_per_s", "1/s", Higher),
    layer("baseline", "baseline.s2v_vs_baseline_x", "x", Higher),
    layer("bench", "bench.span_overhead_pct", "%", Lower),
    layer("bench", "bench.spans_recorded", "count", Higher),
    layer("bench", "budget.layers_ns_per_row", "ns/row", Lower),
    layer("bench", "budget.residual_pct", "%", Lower),
];

/// Measured values by metric name.
#[derive(Default)]
pub struct Values(BTreeMap<&'static str, f64>);

impl Values {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.0.insert(name, value);
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).copied()
    }

    pub fn extend(&mut self, other: Values) {
        self.0.extend(other.0);
    }

    /// Names set that no table row declares: a typo in the benchmark.
    pub fn undeclared(&self, table: &[MetricDef]) -> Vec<&'static str> {
        self.0
            .keys()
            .filter(|k| !table.iter().any(|m| m.name == **k))
            .copied()
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn well_formed(name: &str, max: usize, extra: &str) -> bool {
        !name.is_empty()
            && name.len() <= max
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || extra.contains(c))
    }

    #[test]
    fn names_and_units_meet_the_contract() {
        let mut seen = std::collections::BTreeSet::new();
        for m in END_TO_END.iter().chain(PER_LAYER.iter()) {
            assert!(well_formed(m.name, 64, "_.-"), "name {}", m.name);
            assert!(m.name.chars().next().unwrap().is_ascii_alphanumeric());
            assert!(well_formed(m.unit, 16, "_/%.-"), "unit {}", m.unit);
            assert!(seen.insert(m.name), "{} is used twice", m.name);
        }
        for m in &END_TO_END {
            assert!(m.bound > 0.0 && m.bound <= 0.25, "{}", m.name);
        }
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s").unwrap();
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound));
    }
}
