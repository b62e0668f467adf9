//! The S2V final commit (paper Sec. 3.2, Fig. 5 phase 5): an overwrite
//! hands the staged containers to the target (the constant-time
//! rename), an append copies the staged rows. What the whole pipeline
//! must keep true around it.

use vertica_spark_fabric::prelude::*;

/// The tests read process-wide obs counters, so they take turns.
fn serial() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

fn setup() -> (SparkContext, std::sync::Arc<mppdb::Cluster>) {
    let db = Cluster::new(ClusterConfig::default());
    let ctx = SparkContext::new(SparkConf {
        nodes: 4,
        cores_per_node: 4,
        max_task_attempts: 4,
        thread_cap: 8,
        speculation: false,
        ..SparkConf::default()
    });
    DefaultSource::register(&ctx, db.clone());
    (ctx, db)
}

fn schema() -> Schema {
    Schema::from_pairs(&[("id", DataType::Int64), ("x", DataType::Float64)])
}

fn overwrite(ctx: &SparkContext, table: &str, ids: std::ops::Range<i64>, partitions: usize) {
    let rows: Vec<Row> = ids.map(|i| row![i, i as f64]).collect();
    ctx.create_dataframe(rows, schema(), partitions)
        .unwrap()
        .write()
        .format(DEFAULT_SOURCE)
        .options(
            Options::new()
                .with("table", table)
                .with("numPartitions", partitions),
        )
        .mode(SaveMode::Overwrite)
        .save()
        .unwrap();
}

fn sorted_ids(rows: &[Row]) -> Vec<i64> {
    let mut ids: Vec<i64> = rows.iter().map(|r| r.get(0).as_i64().unwrap()).collect();
    ids.sort_unstable();
    ids
}

#[test]
fn a_load_pinned_before_an_overwrite_still_reads_the_old_table() {
    let _serial = serial();
    let (ctx, db) = setup();
    overwrite(&ctx, "swapped", 0..300, 6);
    let pinned = ctx
        .read()
        .format(DEFAULT_SOURCE)
        .option("table", "swapped")
        .option("numPartitions", 8)
        .load()
        .unwrap();

    let before = obs::global().snapshot();
    overwrite(&ctx, "swapped", 1000..1500, 6);
    let delta = obs::global().snapshot().counters_since(&before);
    // The overwrite moved no row through the WOS, so its commit owed no
    // moveout, and the target holds exactly the staged containers.
    assert_eq!(delta.get("tm.rows_moved").copied().unwrap_or(0), 0);
    let stats = db.table_stats("swapped").unwrap();
    assert_eq!(stats.iter().map(|s| s.wos_rows).sum::<usize>(), 0);
    assert_eq!(stats.iter().map(|s| s.ros_rows).sum::<usize>(), 300 + 500);

    assert_eq!(pinned.count().unwrap(), 300);
    assert_eq!(
        sorted_ids(&pinned.collect().unwrap()),
        (0..300).collect::<Vec<i64>>(),
        "the pinned epoch keeps the overwritten contents"
    );
    let fresh = ctx
        .read()
        .format(DEFAULT_SOURCE)
        .option("table", "swapped")
        .load()
        .unwrap();
    assert_eq!(
        sorted_ids(&fresh.collect().unwrap()),
        (1000..1500).collect::<Vec<i64>>()
    );
}

#[test]
fn a_task_killed_after_its_phase_1_commit_does_not_load_again() {
    let _serial = serial();
    let (ctx, db) = setup();
    // Attempt 1 of partition 2 saves, walks its phases and only then
    // reports failure; the scheduler runs the partition again.
    ctx.failures().fail_task(2, 1, FailureMode::AfterWork);
    let before = obs::global().snapshot();
    overwrite(&ctx, "retried", 0..400, 5);
    ctx.failures().clear();
    let delta = obs::global().snapshot().counters_since(&before);
    assert!(delta.get("sched.task_retries").copied().unwrap_or(0) >= 1);
    assert_eq!(
        delta.get("db.copy_rows").copied().unwrap_or(0),
        400,
        "the retry found its partition saved before encoding it again"
    );
    let mut s = db.connect(0).unwrap();
    let rows = s.query(&QuerySpec::scan("retried")).unwrap().rows;
    assert_eq!(sorted_ids(&rows), (0..400).collect::<Vec<i64>>());
}

/// A speculative duplicate of a task's phase 1 holds the staging table
/// (its COPY) and then asks for the status table (its done flag). The
/// final commit must not hold the status table while it asks for the
/// staging table: the two would wait for each other until the lock
/// timeout, and the save would pay for it with a retry. Runs `saves`
/// saves in `mode` with every partition running twice at once and
/// returns the rows the target holds afterwards.
fn race_phase_1_against_the_final_commit(mode: SaveMode, saves: u64) -> u64 {
    let db = Cluster::new(ClusterConfig {
        // A regression fails in seconds, not minutes.
        lock_timeout: std::time::Duration::from_millis(500),
        ..ClusterConfig::default()
    });
    let (ctx, _) = setup();
    let rows: Vec<Row> = (0..2_000).map(|i| row![i, i as f64]).collect();
    let df = ctx.create_dataframe(rows, schema(), 2).unwrap();
    let opts = connector::ConnectorOptions::builder("raced")
        .num_partitions(2)
        .build()
        .unwrap();
    let before = obs::global().snapshot();
    for _ in 0..saves {
        // Every partition runs twice at once: whichever copy loses the
        // done flag is still inside its COPY when the winner's task
        // moves on to the commit.
        ctx.failures().speculate(0, 1);
        ctx.failures().speculate(1, 1);
        let report = connector::SaveRequest::new(&ctx, &db, &df, &opts)
            .mode(mode)
            .submit()
            .unwrap();
        ctx.failures().clear();
        assert_eq!(report.rows_loaded, 2_000);
    }
    let delta = obs::global().snapshot().counters_since(&before);
    assert_eq!(
        delta.get("retry.attempts").copied().unwrap_or(0),
        0,
        "{mode:?}: a phase waited for a lock until it timed out"
    );
    let mut s = db.connect(0).unwrap();
    s.query(&QuerySpec::scan("raced").count()).unwrap().count
}

#[test]
fn a_speculative_phase_1_never_deadlocks_the_final_commit() {
    let _serial = serial();
    assert_eq!(
        race_phase_1_against_the_final_commit(SaveMode::Overwrite, 12),
        2_000
    );
}

#[test]
fn a_speculative_phase_1_never_deadlocks_the_append_commit() {
    let _serial = serial();
    assert_eq!(
        race_phase_1_against_the_final_commit(SaveMode::Append, 12),
        2_000 * 12
    );
}

/// The Sec. 2.2.2 hazard at the append commit: the commit lands, its
/// acknowledgement is lost, and the retried phase 5 must find the job
/// finished instead of copying the staged rows a second time. One
/// ack is lost per save, at a commit the seeded plan picks, until one
/// save has lost the final commit's own (it then counts no
/// `s2v.final_commits`); every save must leave each id exactly once.
#[test]
fn an_append_whose_commit_ack_is_lost_loads_each_row_once() {
    let _serial = serial();
    let ctx = SparkContext::new(SparkConf {
        nodes: 4,
        cores_per_node: 4,
        thread_cap: 1,
        speculation: false,
        ..SparkConf::default()
    });
    let mut final_commit_lost = false;
    for seed in 0..200 {
        let db = Cluster::new(ClusterConfig::default());
        DefaultSource::register(&ctx, db.clone());
        overwrite(&ctx, "acked", 0..100, 3);
        db.faults().arm(
            mppdb::FaultPlan::seeded(seed)
                .with_post_commit_crash(0.2)
                .with_budget(1),
        );
        let before = obs::global().snapshot();
        let rows: Vec<Row> = (100..400).map(|i| row![i, i as f64]).collect();
        let opts = connector::ConnectorOptions::builder("acked")
            .num_partitions(3)
            .retry_max_attempts(8)
            .build()
            .unwrap();
        let df = ctx.create_dataframe(rows, schema(), 3).unwrap();
        connector::SaveRequest::new(&ctx, &db, &df, &opts)
            .mode(SaveMode::Append)
            .submit()
            .unwrap();
        db.faults().disarm();
        let delta = obs::global().snapshot().counters_since(&before);
        let mut s = db.connect(0).unwrap();
        let ids = sorted_ids(&s.query(&QuerySpec::scan("acked")).unwrap().rows);
        assert_eq!(ids, (0..400).collect::<Vec<i64>>(), "seed {seed}");
        if delta.get("s2v.final_commits").copied().unwrap_or(0) == 0 {
            final_commit_lost = true;
            break;
        }
    }
    assert!(final_commit_lost, "no seed lost the final commit's ack");
}
