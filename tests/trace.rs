//! Distributed-tracing integration suite.
//!
//! * **Determinism**: the same seeded workload (scripted faults, one
//!   partition) run twice produces byte-identical span-tree shape
//!   digests and critical-path name sequences — span ids and wall
//!   times differ, structure must not.
//! * **Diagnostics**: orphaned and unclosed spans are detected, both
//!   on hand-crafted records and on a real save whose setup phase
//!   dies with its span open.
//! * **Quantiles**: the log-linear histogram agrees with a sorted
//!   reference — exactly under the linear cutoff, within one bucket
//!   above it.
//! * **Acceptance**: a save with one scripted mid-COPY crash yields a
//!   span tree holding both attempts with the failed one tagged, a
//!   `dc_trace_summary` row with its critical path, and
//!   `dc_histograms` P50/P99 for `s2v.phase3` matching a reference
//!   computed from the very spans that fed it.
//!
//! Tests share the process-global `obs` collector and are serialized
//! behind one mutex so span trees and histograms stay attributable.

use std::sync::{Arc, Mutex};

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use vertica_spark_fabric::prelude::*;
use vertica_spark_fabric::{connector, mppdb, obs};

use connector::ConnectorOptions;
use mppdb::FaultSite;
use obs::trace::TraceIssue;

static TRACE_LOCK: Mutex<()> = Mutex::new(());

fn lock() -> std::sync::MutexGuard<'static, ()> {
    TRACE_LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

fn setup() -> (SparkContext, Arc<mppdb::Cluster>) {
    let db = Cluster::new(ClusterConfig::default());
    let ctx = SparkContext::new(SparkConf {
        nodes: 4,
        cores_per_node: 4,
        max_task_attempts: 6,
        thread_cap: 8,
        ..SparkConf::default()
    });
    DefaultSource::register(&ctx, db.clone());
    (ctx, db)
}

fn make_df(ctx: &SparkContext, rows: usize, partitions: usize) -> DataFrame {
    let schema = Schema::from_pairs(&[("id", DataType::Int64), ("x", DataType::Float64)]);
    let data: Vec<Row> = (0..rows).map(|i| row![i as i64, i as f64]).collect();
    ctx.create_dataframe(data, schema, partitions).unwrap()
}

/// Run one seeded save — a single partition so the attempt sequence is
/// a deterministic function of the scripted faults — and return the
/// trace's shape digest and critical-path names.
fn seeded_save(seed: u64, table: &str) -> (String, Vec<&'static str>) {
    let (ctx, db) = setup();
    // The fault script is the only seed-dependent input: `seed % 3`
    // mid-COPY crashes, each consumed by one task attempt.
    for _ in 0..(seed % 3) {
        db.faults().inject_once(FaultSite::MidCopy);
    }
    let rows = 60 + (seed as usize % 5) * 20;
    let df = make_df(&ctx, rows, 1);
    let opts = ConnectorOptions::builder(table)
        .num_partitions(1)
        .retry_max_attempts(8)
        .build()
        .unwrap();
    let report = connector::SaveRequest::new(&ctx, &db, &df, &opts)
        .mode(SaveMode::Overwrite)
        .submit()
        .unwrap();
    assert_eq!(report.rows_loaded, rows as u64);
    let spans = obs::global().trace_spans(report.trace);
    assert!(!spans.is_empty(), "trace must be retained");
    let digest = obs::trace::shape_digest(&spans);
    let path = obs::trace::critical_path(&spans)
        .into_iter()
        .map(|s| s.name)
        .collect();
    (digest, path)
}

/// Same seed ⇒ identical tree shape and critical path, across 20
/// seeds covering zero, one, and two scripted crashes.
#[test]
fn span_trees_are_deterministic_across_20_seeds() {
    let _g = lock();
    for seed in 0..20u64 {
        let (digest_a, path_a) = seeded_save(seed, &format!("det_a_{seed}"));
        let (digest_b, path_b) = seeded_save(seed, &format!("det_b_{seed}"));
        assert_eq!(digest_a, digest_b, "shape diverged for seed {seed}");
        assert_eq!(path_a, path_b, "critical path diverged for seed {seed}");
        // The digest reflects the script: a seed with crashes carries
        // failed attempts a clean seed does not.
        if seed % 3 == 0 {
            assert!(!digest_a.contains("#failed"), "seed {seed}: {digest_a}");
        } else {
            assert!(digest_a.contains("#failed"), "seed {seed}: {digest_a}");
        }
    }
}

/// Orphan detection on crafted records: a span pointing at a parent id
/// absent from the snapshot.
#[test]
fn validate_detects_orphan_spans() {
    let mk = |id: u64, parent: Option<u64>, name: &'static str| obs::SpanRecord {
        trace: obs::TraceId(7),
        span: obs::SpanId(id),
        parent: parent.map(obs::SpanId),
        name,
        start_us: 0,
        end_us: Some(10),
        node: None,
        task: None,
        attempt: 0,
        rows: 0,
        bytes: 0,
        failed: false,
        detail: String::new(),
    };
    let spans = vec![
        mk(1, None, "s2v.job"),
        mk(2, Some(1), "s2v.setup"),
        mk(3, Some(99), "db.copy"),
    ];
    let issues = obs::trace::validate(&spans);
    assert_eq!(
        issues,
        vec![TraceIssue::Orphan {
            span: obs::SpanId(3),
            name: "db.copy",
        }]
    );
}

/// A save whose setup connections are all refused dies with the setup
/// span open: the root is closed (and tagged failed) by the
/// `s2v::run` wrapper, the abandoned setup span surfaces as
/// `Unclosed`.
#[test]
fn failed_save_leaves_tagged_root_and_unclosed_setup_span() {
    let _g = lock();
    let (ctx, db) = setup();
    let df = make_df(&ctx, 50, 1);
    // One retry attempt scans every failover candidate, so refusing
    // setup outright takes attempts × nodes scripted faults.
    for _ in 0..8 {
        db.faults().inject_once(FaultSite::Connect);
    }
    let opts = ConnectorOptions::builder("refused_tgt")
        .num_partitions(1)
        .retry_max_attempts(2)
        .build()
        .unwrap();
    let err = connector::SaveRequest::new(&ctx, &db, &df, &opts)
        .mode(SaveMode::Overwrite)
        .submit();
    assert!(err.is_err(), "setup must exhaust its retry budget");

    // The failed job is the newest retained trace.
    let trace = *obs::global().trace_ids().last().unwrap();
    let spans = obs::global().trace_spans(trace);
    let root = spans.iter().find(|s| s.parent.is_none()).unwrap();
    assert_eq!(root.name, "s2v.job");
    assert!(root.failed, "root must be tagged failed");
    assert!(root.end_us.is_some(), "the wrapper closes the root");
    let issues = obs::trace::validate(&spans);
    assert!(
        issues
            .iter()
            .any(|i| matches!(i, TraceIssue::Unclosed { name, .. } if *name == "s2v.setup")),
        "setup span must be reported unclosed: {issues:?}"
    );
    // Both refused connection attempts were closed and tagged.
    let attempts: Vec<_> = spans.iter().filter(|s| s.name == "retry.attempt").collect();
    assert_eq!(attempts.len(), 2);
    assert!(attempts.iter().all(|s| s.failed && s.end_us.is_some()));
}

/// Histogram quantiles against a sorted reference over seeded values:
/// exact below the linear cutoff (64), within one log-linear bucket
/// (1/64 relative) above it.
#[test]
fn histogram_quantiles_match_sorted_reference() {
    let mut rng = StdRng::seed_from_u64(0xfab);
    let mut small = Vec::new();
    let mut wide = Vec::new();
    for _ in 0..500 {
        small.push(rng.random_range(1u64..64));
        wide.push(rng.random_range(1u64..2_000_000));
    }
    let reference = |sorted: &[u64], q: f64| {
        let rank = ((sorted.len() as f64) * q).ceil().max(1.0) as usize;
        sorted[rank - 1]
    };
    for (values, exact) in [(small, true), (wide, false)] {
        let mut h = obs::Histo::new();
        let mut sorted = values.clone();
        for v in values {
            h.record(v);
        }
        sorted.sort_unstable();
        for q in [0.5, 0.95, 0.99] {
            let truth = reference(&sorted, q);
            let got = h.quantile(q);
            if exact {
                assert_eq!(got, truth, "q={q}");
            } else {
                assert!(got >= truth, "q={q}: {got} < {truth}");
                assert!(
                    got <= truth + truth / 64 + 1,
                    "q={q}: {got} beyond bucket bound of {truth}"
                );
            }
        }
    }
}

/// The end-to-end acceptance scenario: a chaos-seeded save with one
/// mid-COPY crash.
#[test]
fn crashed_copy_save_yields_tagged_tree_summary_and_exact_quantiles() {
    let _g = lock();
    let (ctx, db) = setup();
    let df = make_df(&ctx, 120, 1);
    db.faults().inject_once(FaultSite::MidCopy);
    let opts = ConnectorOptions::builder("acceptance_tgt")
        .num_partitions(1)
        .retry_max_attempts(8)
        .build()
        .unwrap();
    let report = connector::SaveRequest::new(&ctx, &db, &df, &opts)
        .mode(SaveMode::Overwrite)
        .submit()
        .unwrap();
    assert_eq!(report.rows_loaded, 120);

    // Both protocol attempts are in the tree; the crashed one is
    // tagged at both the retry layer and the phase span.
    let spans = obs::global().trace_spans(report.trace);
    let attempts: Vec<_> = spans.iter().filter(|s| s.name == "retry.attempt").collect();
    assert!(
        attempts.len() >= 2,
        "crash and recovery: {}",
        attempts.len()
    );
    assert!(attempts.iter().any(|s| s.failed));
    assert!(attempts.iter().any(|s| !s.failed));
    let phase1: Vec<_> = spans.iter().filter(|s| s.name == "s2v.phase1").collect();
    assert!(phase1.iter().any(|s| s.failed), "crashed COPY phase tagged");
    assert!(phase1.iter().any(|s| !s.failed), "recovered COPY present");
    // The report renders the same tree.
    let profile = report.profile();
    assert!(profile.contains("s2v.job"), "{profile}");
    assert!(profile.contains("FAILED"), "{profile}");
    assert!(profile.contains("critical path"), "{profile}");

    // dc_trace_summary carries the job's critical path.
    let mut session = db.connect(0).unwrap();
    let summary = session
        .query(&QuerySpec::scan("dc_trace_summary"))
        .unwrap()
        .into_rows();
    let row = summary
        .iter()
        .find(|r| r.values()[0] == Value::Int64(report.trace.0 as i64))
        .expect("summary row for the save's trace");
    let Value::Varchar(path) = &row.values()[7] else {
        panic!("critical_path must be text: {row:?}")
    };
    assert!(!path.is_empty());
    assert!(path.contains('%'), "attributed percentages: {path}");

    // dc_histograms must agree exactly with a reference histogram fed
    // by the same durations the spans recorded — every closed
    // s2v.phase3 span in the retained store, since span_finish is the
    // histogram's only writer for that name.
    let mut reference = obs::Histo::new();
    for s in obs::global().all_spans() {
        if s.name == "s2v.phase3" && s.end_us.is_some() {
            reference.record(s.dur_us());
        }
    }
    assert!(reference.count() > 0);
    let histos = session
        .query(&QuerySpec::scan("dc_histograms"))
        .unwrap()
        .into_rows();
    let row = histos
        .iter()
        .find(|r| r.values()[0] == Value::Varchar("s2v.phase3".to_string()))
        .expect("s2v.phase3 histogram row");
    assert_eq!(row.values()[1], Value::Int64(reference.count() as i64));
    assert_eq!(
        row.values()[5],
        Value::Int64(reference.quantile(0.5) as i64)
    );
    assert_eq!(
        row.values()[7],
        Value::Int64(reference.quantile(0.99) as i64)
    );
}
