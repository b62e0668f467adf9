//! Two-stage (DFS landing zone) transfer tests — the Sec. 5 / Redshift
//! alternative, driven through the unified [`SaveRequest`] surface
//! with `method=dfs`.

use std::sync::Arc;

use common::{row, DataType, Row, Schema};
use connector::{load_via_dfs, ConnectorOptions, SaveRequest, TwoStageConfig, WriteMethod};
use dfslite::{DfsClusterSim, DfsConfig};
use mppdb::{Cluster, ClusterConfig, QuerySpec};
use sparklet::{FailureMode, SaveMode, SparkConf, SparkContext};

fn setup() -> (SparkContext, Arc<Cluster>, Arc<DfsClusterSim>) {
    let db = Cluster::new(ClusterConfig::default());
    let ctx = SparkContext::new(SparkConf {
        nodes: 8,
        cores_per_node: 4,
        max_task_attempts: 4,
        thread_cap: 8,
        ..SparkConf::default()
    });
    let dfs = DfsClusterSim::new(DfsConfig {
        nodes: 4,
        block_size: 1 << 16,
        replication: 3,
    });
    (ctx, db, dfs)
}

fn dfs_options(table: &str, staging: &str) -> ConnectorOptions {
    ConnectorOptions::builder(table)
        .method(WriteMethod::Dfs)
        .staging_path(staging)
        .build()
        .unwrap()
}

fn schema() -> Schema {
    Schema::from_pairs(&[("id", DataType::Int64), ("x", DataType::Float64)])
}

fn rows(n: usize) -> Vec<Row> {
    (0..n).map(|i| row![i as i64, i as f64 / 3.0]).collect()
}

#[test]
fn two_stage_save_round_trip() {
    let (ctx, db, dfs) = setup();
    let df = ctx.create_dataframe(rows(600), schema(), 6).unwrap();
    let opts = dfs_options("landed", "/staging/landed");
    let report = SaveRequest::new(&ctx, &db, &df, &opts)
        .with_dfs(&dfs)
        .submit()
        .unwrap();
    assert_eq!(report.method, WriteMethod::Dfs);
    assert_eq!(report.rows_loaded, 600);
    assert_eq!(report.part_files, 6);
    assert!(report.staged_bytes > 0);
    // The landing zone was cleaned up.
    assert!(dfs.list("/staging/landed/").is_empty());

    let mut session = db.connect(0).unwrap();
    let mut loaded = session.query(&QuerySpec::scan("landed")).unwrap().rows;
    loaded.sort_by_key(|r| r.get(0).as_i64().unwrap());
    assert_eq!(loaded, rows(600));
}

#[test]
fn two_stage_save_is_atomic_under_stage1_retries() {
    let (ctx, db, dfs) = setup();
    let df = ctx.create_dataframe(rows(300), schema(), 6).unwrap();
    // A task that writes its file and then dies is retried and replaces
    // its own file — no duplicates reach the database.
    ctx.failures().fail_task(2, 1, FailureMode::AfterWork);
    let opts = dfs_options("retried", "/staging/retried");
    let report = SaveRequest::new(&ctx, &db, &df, &opts)
        .with_dfs(&dfs)
        .submit()
        .unwrap();
    ctx.failures().clear();
    assert_eq!(report.rows_loaded, 300);
    let mut session = db.connect(1).unwrap();
    assert_eq!(
        session
            .query(&QuerySpec::scan("retried").count())
            .unwrap()
            .count,
        300
    );
}

#[test]
fn two_stage_save_killed_mid_stage1_leaves_target_absent() {
    let (ctx, db, dfs) = setup();
    let df = ctx.create_dataframe(rows(400), schema(), 32).unwrap();
    ctx.failures().kill_job_after(3);
    let opts = dfs_options("never_landed", "/staging/never");
    let err = SaveRequest::new(&ctx, &db, &df, &opts)
        .with_dfs(&dfs)
        .submit()
        .unwrap_err();
    ctx.failures().clear();
    assert!(err.to_string().contains("killed"), "{err}");
    // Stage 2 never ran: the table was never created/loaded. Staged
    // leftovers may exist (the decoupling trade-off), but the database
    // is clean.
    assert!(!db.has_table("never_landed"));
}

#[test]
fn two_stage_load_exports_a_consistent_snapshot() {
    let (ctx, db, dfs) = setup();
    {
        let mut s = db.connect(0).unwrap();
        s.execute("CREATE TABLE src (id INT, x FLOAT)").unwrap();
        s.insert("src", rows(500)).unwrap();
    }
    let df = load_via_dfs(&ctx, &db, &dfs, "src", &TwoStageConfig::new("/staging/out")).unwrap();
    assert_eq!(df.num_partitions().unwrap(), 4, "one export per node");
    let mut loaded = df.collect().unwrap();
    loaded.sort_by_key(|r| r.get(0).as_i64().unwrap());
    assert_eq!(loaded, rows(500));

    // A mutation after the export does not affect re-reads of the
    // already-staged files.
    {
        let mut s = db.connect(2).unwrap();
        s.execute("DELETE FROM src WHERE id < 100").unwrap();
    }
    assert_eq!(df.count().unwrap(), 500, "staged copy is a stable snapshot");
}

#[test]
fn two_stage_round_trips_unsegmented_tables() {
    let (ctx, db, dfs) = setup();
    {
        let mut s = db.connect(0).unwrap();
        s.execute("CREATE TABLE dim (id INT, x FLOAT) UNSEGMENTED ALL NODES")
            .unwrap();
        s.insert("dim", rows(120)).unwrap();
    }
    let df = load_via_dfs(&ctx, &db, &dfs, "dim", &TwoStageConfig::new("/staging/dim")).unwrap();
    assert_eq!(
        df.num_partitions().unwrap(),
        1,
        "replicated table exports once"
    );
    assert_eq!(df.count().unwrap(), 120);
}

/// The stage-2 connect runs under the job's own call policy, pinned to
/// the configured host: with that host dead it gives up after the
/// job's `retry_max_attempts` (not a built-in default), and a job
/// deadline bounds it like every other call of the save.
#[test]
fn two_stage_connect_honours_the_job_policy() {
    let (ctx, db, dfs) = setup();
    let df = ctx.create_dataframe(rows(60), schema(), 2).unwrap();
    db.kill_node(0);
    let base = ConnectorOptions::builder("unreachable")
        .method(WriteMethod::Dfs)
        .staging_path("/staging/unreachable")
        .retry_max_attempts(2);
    let save = |opts: ConnectorOptions| {
        SaveRequest::new(&ctx, &db, &df, &opts)
            .with_dfs(&dfs)
            .mode(SaveMode::Append)
            .submit()
            .unwrap_err()
            .to_string()
    };
    let err = save(base.clone().build().unwrap());
    assert!(err.contains("gave up after 2 attempts"), "{err}");
    let err = save(base.deadline_ms(1).build().unwrap());
    assert!(err.contains("deadline exceeded"), "{err}");
}
