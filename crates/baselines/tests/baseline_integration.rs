//! Baseline behaviour tests: the JDBC default source works but lacks
//! the connector's guarantees (paper Sec. 4.7.1, Sec. 6), and the
//! native DFS path round-trips DataFrames (Sec. 4.7.2).

use std::sync::Arc;

use baselines::{DfsSource, JdbcDefaultSource, DFS_FORMAT, JDBC_FORMAT};
use common::{row, DataType, Expr, Row, Schema};
use dfslite::{DfsClusterSim, DfsConfig};
use mppdb::{Cluster, ClusterConfig, QuerySpec};
use netsim::record::NetClass;
use sparklet::{FailureMode, Options, SaveMode, SparkConf, SparkContext};

fn setup() -> (SparkContext, Arc<Cluster>) {
    setup_with_task_threads(8)
}

fn setup_with_task_threads(thread_cap: usize) -> (SparkContext, Arc<Cluster>) {
    let cluster = Cluster::new(ClusterConfig::default());
    let ctx = SparkContext::new(SparkConf {
        nodes: 8,
        cores_per_node: 4,
        max_task_attempts: 4,
        thread_cap,
        ..SparkConf::default()
    });
    JdbcDefaultSource::register(&ctx, Arc::clone(&cluster));
    connector::DefaultSource::register(&ctx, Arc::clone(&cluster));
    (ctx, cluster)
}

fn schema() -> Schema {
    Schema::from_pairs(&[("id", DataType::Int64), ("x", DataType::Float64)])
}

fn rows(n: usize) -> Vec<Row> {
    (0..n).map(|i| row![i as i64, i as f64]).collect()
}

fn seed_table(cluster: &Arc<Cluster>, table: &str, n: usize) {
    let mut s = cluster.connect(0).unwrap();
    s.execute(&format!(
        "CREATE TABLE {table} (id INT, x FLOAT) SEGMENTED BY HASH(id) ALL NODES"
    ))
    .unwrap();
    s.insert(table, rows(n)).unwrap();
}

#[test]
fn jdbc_load_requires_bounds_for_parallelism() {
    let (ctx, cluster) = setup();
    seed_table(&cluster, "j1", 200);

    // Without partition options: a single partition.
    let df = ctx
        .read()
        .format(JDBC_FORMAT)
        .option("dbtable", "j1")
        .load()
        .unwrap();
    assert_eq!(df.rdd().unwrap().num_partitions(), 1);
    assert_eq!(df.count().unwrap(), 200);

    // With the integer column + min/max: ranged parallel queries.
    let df = ctx
        .read()
        .format(JDBC_FORMAT)
        .option("dbtable", "j1")
        .option("partitionColumn", "id")
        .option("lowerBound", 0)
        .option("upperBound", 199)
        .option("numPartitions", 8)
        .load()
        .unwrap();
    assert_eq!(df.rdd().unwrap().num_partitions(), 8);
    let mut loaded = df.collect().unwrap();
    loaded.sort_by_key(|r| r.get(0).as_i64().unwrap());
    assert_eq!(loaded, rows(200));
}

#[test]
fn jdbc_load_shuffles_internally_but_v2s_does_not() {
    let (ctx, cluster) = setup();
    seed_table(&cluster, "j2", 400);

    cluster.recorder().clear();
    let jdbc_rows = ctx
        .read()
        .format(JDBC_FORMAT)
        .option("dbtable", "j2")
        .option("partitionColumn", "id")
        .option("lowerBound", 0)
        .option("upperBound", 399)
        .option("numPartitions", 8)
        .load()
        .unwrap()
        .collect()
        .unwrap();
    assert_eq!(jdbc_rows.len(), 400);
    let jdbc_shuffle = cluster.recorder().total_bytes(NetClass::DbInternal);
    // Every range query goes through node 0; ~3/4 of the data lives on
    // other nodes and shuffles internally first (Sec. 4.7.1).
    assert!(jdbc_shuffle > 0, "JDBC load must induce internal shuffle");

    cluster.recorder().clear();
    let v2s_rows = ctx
        .read()
        .format(connector::DEFAULT_SOURCE)
        .option("table", "j2")
        .option("numPartitions", 8)
        .load()
        .unwrap()
        .collect()
        .unwrap();
    assert_eq!(v2s_rows.len(), 400);
    assert_eq!(
        cluster.recorder().total_bytes(NetClass::DbInternal),
        0,
        "V2S locality-aware queries shuffle nothing"
    );
}

#[test]
fn jdbc_save_duplicates_rows_on_post_commit_task_failure() {
    let (ctx, cluster) = setup();
    let df = ctx.create_dataframe(rows(100), schema(), 4).unwrap();
    // A task that finishes its INSERTs and then dies is retried,
    // re-inserting its rows — the inconsistency S2V prevents.
    ctx.failures().fail_task(1, 1, FailureMode::AfterWork);
    df.write()
        .format(JDBC_FORMAT)
        .options(Options::new().with("dbtable", "dup"))
        .mode(SaveMode::Append)
        .save()
        .unwrap();
    ctx.failures().clear();

    let mut session = cluster.connect(0).unwrap();
    let count = session
        .query(&QuerySpec::scan("dup").count())
        .unwrap()
        .count;
    assert!(
        count > 100,
        "expected duplicated rows from the retried task, got {count}"
    );

    // The connector under the identical failure stays exactly-once.
    let df2 = ctx.create_dataframe(rows(100), schema(), 4).unwrap();
    ctx.failures().fail_task(1, 1, FailureMode::AfterWork);
    df2.write()
        .format(connector::DEFAULT_SOURCE)
        .options(
            Options::new()
                .with("table", "dup_s2v")
                .with("numPartitions", 4),
        )
        .mode(SaveMode::Overwrite)
        .save()
        .unwrap();
    ctx.failures().clear();
    let count = session
        .query(&QuerySpec::scan("dup_s2v").count())
        .unwrap()
        .count;
    assert_eq!(count, 100);
}

#[test]
fn jdbc_save_leaves_partial_load_on_job_kill() {
    // One task thread: the tasks run one after another, so the kill on
    // the third completion is seen before a fourth task starts. With a
    // thread per task all eight could be running by then, and a running
    // task finishes its insert — the whole table landed one run in five.
    let (ctx, cluster) = setup_with_task_threads(1);
    let df = ctx.create_dataframe(rows(200), schema(), 8).unwrap();
    for round in 0..50 {
        let table = format!("partial{round}");
        ctx.failures().kill_job_after(3);
        let err = df
            .write()
            .format(JDBC_FORMAT)
            .options(Options::new().with("dbtable", table.as_str()))
            .mode(SaveMode::Append)
            .save()
            .unwrap_err();
        ctx.failures().clear();
        assert!(err.to_string().contains("killed"));

        // Some but not all rows landed: the partial load the paper warns
        // about (Sec. 2.2.2) — the three finished partitions of eight.
        let mut session = cluster.connect(0).unwrap();
        let count = session
            .query(&QuerySpec::scan(&table).count())
            .unwrap()
            .count;
        assert_eq!(count, 75, "partial load expected in round {round}");
    }
}

#[test]
fn jdbc_load_is_not_snapshot_consistent() {
    // Structural demonstration: JDBC partitions read at whatever epoch
    // they run; a mutation between partition queries is visible to some
    // partitions only. We force the interleaving by running one ranged
    // load, mutating, then the other half.
    let (ctx, cluster) = setup();
    seed_table(&cluster, "inconsistent", 100);

    let df_low = ctx
        .read()
        .format(JDBC_FORMAT)
        .option("dbtable", "inconsistent")
        .option("partitionColumn", "id")
        .option("lowerBound", 0)
        .option("upperBound", 49)
        .option("numPartitions", 2)
        .load()
        .unwrap();
    let low = df_low.collect().unwrap();

    // Concurrent mutation between "tasks".
    let mut s = cluster.connect(1).unwrap();
    s.execute("DELETE FROM inconsistent WHERE id >= 50")
        .unwrap();

    let df_high = ctx
        .read()
        .format(JDBC_FORMAT)
        .option("dbtable", "inconsistent")
        .option("partitionColumn", "id")
        .option("lowerBound", 50)
        .option("upperBound", 99)
        .option("numPartitions", 2)
        .load()
        .unwrap();
    let high = df_high.collect().unwrap();
    // The combined "load" lost rows mid-flight: 50 + 0.
    assert_eq!(low.len(), 50);
    assert_eq!(high.len(), 0, "JDBC reads see the mutation");

    // V2S pins the epoch at relation-open: the same interleaving still
    // returns the full snapshot (asserted in connector tests).
}

#[test]
fn dfs_write_and_read_round_trip() {
    let (ctx, _cluster) = setup();
    let dfs = DfsClusterSim::new(DfsConfig {
        nodes: 4,
        block_size: 1 << 16,
        replication: 3,
    });
    DfsSource::register(&ctx, Arc::clone(&dfs));

    let df = ctx.create_dataframe(rows(500), schema(), 6).unwrap();
    df.write()
        .format(DFS_FORMAT)
        .options(Options::new().with("path", "/data/out"))
        .mode(SaveMode::Overwrite)
        .save()
        .unwrap();
    assert_eq!(
        dfs.list("/data/out/").len(),
        6,
        "one part file per partition"
    );

    let loaded = ctx
        .read()
        .format(DFS_FORMAT)
        .option("path", "/data/out")
        .load()
        .unwrap();
    assert_eq!(loaded.rdd().unwrap().num_partitions(), 6);
    let mut all = loaded.collect().unwrap();
    all.sort_by_key(|r| r.get(0).as_i64().unwrap());
    assert_eq!(all, rows(500));

    // Filters work (applied post-read; no pushdown into storage).
    let filtered = loaded
        .filter(Expr::col("id").lt(Expr::lit(10i64)))
        .unwrap()
        .collect()
        .unwrap();
    assert_eq!(filtered.len(), 10);

    // Save modes.
    assert!(df
        .write()
        .format(DFS_FORMAT)
        .options(Options::new().with("path", "/data/out"))
        .mode(SaveMode::ErrorIfExists)
        .save()
        .is_err());
    df.write()
        .format(DFS_FORMAT)
        .options(Options::new().with("path", "/data/out"))
        .mode(SaveMode::Append)
        .save()
        .unwrap();
    let appended = ctx
        .read()
        .format(DFS_FORMAT)
        .option("path", "/data/out")
        .load()
        .unwrap();
    assert_eq!(appended.count().unwrap(), 1000);
}

#[test]
fn dfs_write_survives_task_retries() {
    let (ctx, _cluster) = setup();
    let dfs = DfsClusterSim::new(DfsConfig {
        nodes: 4,
        block_size: 1 << 16,
        replication: 3,
    });
    DfsSource::register(&ctx, Arc::clone(&dfs));
    let df = ctx.create_dataframe(rows(120), schema(), 4).unwrap();
    ctx.failures().fail_task(2, 1, FailureMode::AfterWork);
    df.write()
        .format(DFS_FORMAT)
        .options(Options::new().with("path", "/retry/out"))
        .mode(SaveMode::Overwrite)
        .save()
        .unwrap();
    ctx.failures().clear();
    let loaded = ctx
        .read()
        .format(DFS_FORMAT)
        .option("path", "/retry/out")
        .load()
        .unwrap();
    assert_eq!(
        loaded.count().unwrap(),
        120,
        "retried part file replaced, not duplicated"
    );
}

#[test]
fn baseline_option_validation() {
    let (ctx, _cluster) = setup();
    // JDBC: table required; bounds required with partitionColumn;
    // unknown partition column rejected.
    assert!(ctx.read().format(JDBC_FORMAT).load().is_err());
    seed_table(&_cluster, "opts", 10);
    assert!(ctx
        .read()
        .format(JDBC_FORMAT)
        .option("dbtable", "opts")
        .option("partitionColumn", "id")
        .load()
        .is_err());
    assert!(ctx
        .read()
        .format(JDBC_FORMAT)
        .option("dbtable", "opts")
        .option("partitionColumn", "ghost")
        .option("lowerBound", 0)
        .option("upperBound", 9)
        .load()
        .is_err());
    assert!(ctx
        .read()
        .format(JDBC_FORMAT)
        .option("dbtable", "missing_table")
        .load()
        .is_err());

    // DFS source: path required; empty directory rejected.
    let dfs = DfsClusterSim::new(DfsConfig::default());
    DfsSource::register(&ctx, Arc::clone(&dfs));
    assert!(ctx.read().format(DFS_FORMAT).load().is_err());
    assert!(ctx
        .read()
        .format(DFS_FORMAT)
        .option("path", "/does/not/exist")
        .load()
        .is_err());
}
