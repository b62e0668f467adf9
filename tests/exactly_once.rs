//! Property-based exactly-once testing: randomized failure schedules
//! over randomized workloads must never lose or duplicate a row.

use proptest::prelude::*;
use vertica_spark_fabric::prelude::*;

fn setup() -> (SparkContext, std::sync::Arc<mppdb::Cluster>) {
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

#[derive(Debug, Clone)]
struct FailurePlanSpec {
    /// `(partition, attempt, after_work)` scripted failures.
    scripted: Vec<(usize, u32, bool)>,
    /// `(partition, copies)` speculation.
    speculative: Vec<(usize, u32)>,
}

fn arb_plan(partitions: usize) -> impl Strategy<Value = FailurePlanSpec> {
    let scripted = proptest::collection::vec((0..partitions, 1u32..3, any::<bool>()), 0..4);
    let speculative = proptest::collection::vec((0..partitions, 1u32..3), 0..2);
    (scripted, speculative).prop_map(|(scripted, speculative)| FailurePlanSpec {
        scripted,
        speculative,
    })
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 12,
        .. ProptestConfig::default()
    })]

    #[test]
    fn s2v_is_exactly_once_under_random_failures(
        rows in 50usize..400,
        partitions in 2usize..12,
        plan in arb_plan(12),
    ) {
        let (ctx, db) = setup();
        let schema = Schema::from_pairs(&[("id", DataType::Int64), ("x", DataType::Float64)]);
        let data: Vec<Row> = (0..rows).map(|i| row![i as i64, i as f64]).collect();
        let df = ctx.create_dataframe(data, schema, partitions).unwrap();

        for (p, attempt, after) in &plan.scripted {
            if *p < partitions {
                let mode = if *after { FailureMode::AfterWork } else { FailureMode::BeforeWork };
                ctx.failures().fail_task(*p, *attempt, mode);
            }
        }
        for (p, copies) in &plan.speculative {
            if *p < partitions {
                ctx.failures().speculate(*p, *copies);
            }
        }

        df.write()
            .format(DEFAULT_SOURCE)
            .options(Options::new().with("table", "prop_target").with("numPartitions", partitions))
            .mode(SaveMode::Overwrite)
            .save()
            .unwrap();
        ctx.failures().clear();

        let mut s = db.connect(0).unwrap();
        let result = s.query(&QuerySpec::scan("prop_target")).unwrap();
        prop_assert_eq!(result.rows.len(), rows, "row count");
        let mut ids: Vec<i64> = result.rows.iter().map(|r| r.get(0).as_i64().unwrap()).collect();
        ids.sort();
        let expected: Vec<i64> = (0..rows as i64).collect();
        prop_assert_eq!(ids, expected, "every id exactly once");
    }

    #[test]
    fn v2s_load_is_complete_under_random_failures(
        rows in 50usize..300,
        partitions in 2usize..16,
        plan in arb_plan(16),
    ) {
        let (ctx, db) = setup();
        {
            let mut s = db.connect(0).unwrap();
            s.execute("CREATE TABLE prop_src (id INT, x FLOAT)").unwrap();
            s.insert("prop_src", (0..rows).map(|i| row![i as i64, 0.5f64]).collect()).unwrap();
        }
        for (p, attempt, after) in &plan.scripted {
            if *p < partitions {
                let mode = if *after { FailureMode::AfterWork } else { FailureMode::BeforeWork };
                ctx.failures().fail_task(*p, *attempt, mode);
            }
        }
        for (p, copies) in &plan.speculative {
            if *p < partitions {
                ctx.failures().speculate(*p, *copies);
            }
        }
        let loaded = ctx
            .read()
            .format(DEFAULT_SOURCE)
            .option("table", "prop_src")
            .option("numPartitions", partitions)
            .load()
            .unwrap()
            .collect()
            .unwrap();
        ctx.failures().clear();
        prop_assert_eq!(loaded.len(), rows);
        let mut ids: Vec<i64> = loaded.iter().map(|r| r.get(0).as_i64().unwrap()).collect();
        ids.sort();
        ids.dedup();
        prop_assert_eq!(ids.len(), rows, "no duplicated rows from retried tasks");
    }
}

/// Deterministic event-log witness: under task kills and speculative
/// duplicates, the data collector must record exactly one phase-5
/// final-commit event for the job, and its per-job scheduler events
/// must match the scheduler's own `JobStats` ground truth.
#[test]
fn event_log_records_exactly_one_final_commit_under_failures() {
    // Scripted speculation only: the organic straggler watchdog is
    // timing-dependent and can complete a partition before its scripted
    // failure lands, hiding the retry this test counts exactly.
    let db = Cluster::new(ClusterConfig::default());
    let ctx = SparkContext::new(SparkConf {
        nodes: 4,
        cores_per_node: 4,
        max_task_attempts: 6,
        thread_cap: 8,
        speculation: false,
        ..SparkConf::default()
    });
    DefaultSource::register(&ctx, db.clone());
    let rows = 240usize;
    let partitions = 6usize;
    let schema = Schema::from_pairs(&[("id", DataType::Int64), ("x", DataType::Float64)]);
    let data: Vec<Row> = (0..rows).map(|i| row![i as i64, i as f64]).collect();
    let df = ctx.create_dataframe(data, schema, partitions).unwrap();

    // Kills after side effects ran (the Sec. 2.2.2 hazard), a retried
    // double failure, and speculative duplicates of two partitions.
    ctx.failures().fail_task(1, 1, FailureMode::AfterWork);
    ctx.failures().fail_task(3, 1, FailureMode::BeforeWork);
    ctx.failures().fail_task(3, 2, FailureMode::AfterWork);
    ctx.failures().speculate(0, 2);
    ctx.failures().speculate(4, 1);

    let opts = connector::ConnectorOptions::builder("obs_target")
        .num_partitions(partitions)
        .job_name("obs_final_commit_job")
        .build()
        .unwrap();
    let report = connector::SaveRequest::new(&ctx, &db, &df, &opts)
        .mode(SaveMode::Overwrite)
        .submit()
        .expect("S2V save");
    ctx.failures().clear();

    // The data itself is exactly-once, as always.
    let mut s = db.connect(0).unwrap();
    let result = s.query(&QuerySpec::scan("obs_target")).unwrap();
    assert_eq!(result.rows.len(), rows);

    let snap = obs::global().snapshot();

    // Exactly one phase-5 final-commit event for this job, no matter
    // how many attempts, retries, and duplicates ran its phases.
    let commits = snap
        .events_of(obs::EventKind::S2vPhase)
        .filter(|e| e.job.as_deref() == Some(report.job_name.as_str()))
        .filter(|e| e.detail.starts_with("phase 5 final commit"))
        .count();
    assert_eq!(commits, 1, "exactly one final commit in the event log");
    let committer = report.committer_task.expect("S2V saves name a committer");
    let committer_detail = format!("phase 5 final commit by task {committer}");
    assert!(
        snap.events_of(obs::EventKind::S2vPhase)
            .any(|e| e.detail.starts_with(&committer_detail)),
        "the final-commit event names the reported committer"
    );

    // Per-job scheduler events must agree with the scheduler's own
    // tallies for the same job.
    let stats = ctx
        .job_stats(report.engine_job_id)
        .expect("job stats retained");
    let label = sparklet::job_label(report.engine_job_id);
    let count_kind = |kind: obs::EventKind| {
        snap.events_of(kind)
            .filter(|e| e.job.as_deref() == Some(label.as_str()))
            .count() as u64
    };
    assert_eq!(
        count_kind(obs::EventKind::TaskLaunch),
        stats.tasks_launched,
        "launch events match scheduler attempts"
    );
    assert_eq!(
        count_kind(obs::EventKind::TaskRetry),
        stats.retries,
        "retry events match scheduler retries"
    );
    assert_eq!(
        count_kind(obs::EventKind::TaskSpeculative),
        stats.speculative,
        "speculation events match scheduler duplicates"
    );
    assert_eq!(
        count_kind(obs::EventKind::TaskFinish),
        stats.tasks_completed,
        "finish events match completed attempts"
    );
    // Our scripted schedule forced at least 3 retries and 3 duplicates.
    assert!(stats.retries >= 3, "scripted failures were retried");
    assert!(stats.speculative >= 3, "speculative copies were enqueued");

    // The report's timing breakdown saw real work in phases 1 and 5.
    assert!(report.phase_us[0] > 0, "phase 1 time recorded");
    assert!(report.phase_us[4] > 0, "phase 5 time recorded");
}

/// Acceptance path: after a connector save, the event log is queryable
/// through the mppdb SQL layer as the `dc_events` / `dc_counters`
/// system tables — observability lands in SQL exactly as in Vertica.
#[test]
fn dc_events_queryable_over_sql_after_save() {
    let (ctx, db) = setup();
    let rows = 120usize;
    let schema = Schema::from_pairs(&[("id", DataType::Int64), ("x", DataType::Float64)]);
    let data: Vec<Row> = (0..rows).map(|i| row![i as i64, i as f64]).collect();
    let df = ctx.create_dataframe(data, schema, 4).unwrap();
    df.write()
        .format(DEFAULT_SOURCE)
        .options(
            Options::new()
                .with("table", "sql_obs_target")
                .with("numPartitions", 4)
                .with("job_name", "sql_obs_job"),
        )
        .mode(SaveMode::Overwrite)
        .save()
        .unwrap();

    let mut s = db.connect(0).unwrap();
    let events = s
        .execute("SELECT * FROM dc_events")
        .unwrap()
        .rows()
        .unwrap();
    let kind_col = events
        .schema
        .fields()
        .iter()
        .position(|f| f.name == "kind")
        .unwrap();
    let job_col = events
        .schema
        .fields()
        .iter()
        .position(|f| f.name == "job")
        .unwrap();
    let detail_col = events
        .schema
        .fields()
        .iter()
        .position(|f| f.name == "detail")
        .unwrap();
    let phase_events: Vec<_> = events
        .rows
        .iter()
        .filter(|r| r.get(kind_col) == &Value::Varchar("s2v_phase".into()))
        .filter(|r| r.get(job_col) == &Value::Varchar("sql_obs_job".into()))
        .collect();
    assert!(
        !phase_events.is_empty(),
        "SELECT * FROM dc_events returns S2V phase events after a save"
    );
    assert_eq!(
        phase_events
            .iter()
            .filter(|r| match r.get(detail_col) {
                Value::Varchar(d) => d.starts_with("phase 5 final commit"),
                _ => false,
            })
            .count(),
        1,
        "one final commit visible through SQL"
    );

    let counters = s
        .execute("SELECT * FROM dc_counters")
        .unwrap()
        .rows()
        .unwrap();
    let loaded = counters.rows.iter().find_map(|r| {
        (r.get(0) == &Value::Varchar("s2v.rows_loaded".into())).then(|| r.get(1).as_i64().unwrap())
    });
    assert!(
        loaded.unwrap_or(0) >= rows as i64,
        "s2v.rows_loaded counter visible through SQL"
    );
}
