//! End-to-end connector tests: the paper's correctness claims.

use std::sync::Arc;

use common::{row, DataType, Expr, Row, Schema, Value};
use connector::{DefaultSource, ModelDeployment, DEFAULT_SOURCE};
use mppdb::{Cluster, ClusterConfig, QuerySpec};
use netsim::record::NetClass;
use sparklet::{FailureMode, Options, SaveMode, SparkConf, SparkContext};

fn setup() -> (SparkContext, Arc<Cluster>) {
    let cluster = Cluster::new(ClusterConfig::default());
    let ctx = SparkContext::new(SparkConf {
        nodes: 8,
        cores_per_node: 4,
        max_task_attempts: 4,
        thread_cap: 8,
        ..SparkConf::default()
    });
    DefaultSource::register(&ctx, Arc::clone(&cluster));
    (ctx, cluster)
}

fn d1_schema() -> Schema {
    Schema::from_pairs(&[
        ("id", DataType::Int64),
        ("a", DataType::Float64),
        ("b", DataType::Float64),
    ])
}

fn d1_rows(n: usize) -> Vec<Row> {
    (0..n)
        .map(|i| row![i as i64, i as f64 / 7.0, (i * i) as f64 / 13.0])
        .collect()
}

fn save_options(table: &str, partitions: usize) -> Options {
    Options::new()
        .with("host", 0)
        .with("table", table)
        .with("numPartitions", partitions)
}

#[test]
fn s2v_then_v2s_round_trip() {
    let (ctx, cluster) = setup();
    let df = ctx.create_dataframe(d1_rows(500), d1_schema(), 10).unwrap();
    df.write()
        .format(DEFAULT_SOURCE)
        .options(save_options("roundtrip", 16))
        .mode(SaveMode::Overwrite)
        .save()
        .unwrap();

    // Exactly once: the row count in the database matches.
    let mut session = cluster.connect(0).unwrap();
    let count = session
        .query(&QuerySpec::scan("roundtrip").count())
        .unwrap()
        .count;
    assert_eq!(count, 500);

    // Load it back through V2S and compare contents.
    let loaded = ctx
        .read()
        .format(DEFAULT_SOURCE)
        .option("host", 1)
        .option("table", "roundtrip")
        .option("numPartitions", 32)
        .load()
        .unwrap();
    assert_eq!(loaded.count().unwrap(), 500);
    let mut rows = loaded.collect().unwrap();
    rows.sort_by_key(|r| r.get(0).as_i64().unwrap());
    assert_eq!(rows, d1_rows(500));
}

#[test]
fn v2s_pushdown_filters_and_projections() {
    let (ctx, cluster) = setup();
    let df = ctx.create_dataframe(d1_rows(300), d1_schema(), 8).unwrap();
    df.write()
        .format(DEFAULT_SOURCE)
        .options(save_options("pushme", 8))
        .mode(SaveMode::Overwrite)
        .save()
        .unwrap();

    cluster.recorder().clear();
    let loaded = ctx
        .read()
        .format(DEFAULT_SOURCE)
        .option("table", "pushme")
        .option("numPartitions", 8)
        .load()
        .unwrap();
    let filtered = loaded
        .filter(Expr::col("id").lt(Expr::lit(30i64)))
        .unwrap()
        .select(&["id", "a"])
        .unwrap();
    let rows = filtered.collect().unwrap();
    assert_eq!(rows.len(), 30);
    assert!(rows.iter().all(|r| r.len() == 2));

    // Pushdown means only the filtered, projected bytes crossed the
    // boundary: far less than the full table.
    let external = cluster.recorder().total_bytes(NetClass::External);
    let full_size: u64 = d1_rows(300).iter().map(|r| r.wire_size() as u64).sum();
    assert!(
        external < full_size / 3,
        "pushdown shipped {external} bytes of a {full_size}-byte table"
    );

    // Count pushdown ships only counts.
    cluster.recorder().clear();
    let n = loaded
        .filter(Expr::col("id").lt(Expr::lit(30i64)))
        .unwrap()
        .count()
        .unwrap();
    assert_eq!(n, 30);
    let external = cluster.recorder().total_bytes(NetClass::External);
    assert!(external <= 8 * 8, "count pushdown shipped {external} bytes");
}

#[test]
fn v2s_induces_no_internal_shuffle() {
    let (ctx, cluster) = setup();
    let df = ctx.create_dataframe(d1_rows(400), d1_schema(), 8).unwrap();
    df.write()
        .format(DEFAULT_SOURCE)
        .options(save_options("local", 8))
        .mode(SaveMode::Overwrite)
        .save()
        .unwrap();

    cluster.recorder().clear();
    let loaded = ctx
        .read()
        .format(DEFAULT_SOURCE)
        .option("table", "local")
        .option("numPartitions", 16)
        .load()
        .unwrap();
    assert_eq!(loaded.collect().unwrap().len(), 400);
    // The locality-aware hash-range queries only touch node-local
    // segments: zero internal traffic (the paper's Sec. 3.1.2 claim).
    assert_eq!(cluster.recorder().total_bytes(NetClass::DbInternal), 0);
}

#[test]
fn v2s_snapshot_isolated_from_concurrent_commits() {
    let (ctx, cluster) = setup();
    let df = ctx.create_dataframe(d1_rows(100), d1_schema(), 4).unwrap();
    df.write()
        .format(DEFAULT_SOURCE)
        .options(save_options("snap", 8))
        .mode(SaveMode::Overwrite)
        .save()
        .unwrap();

    // Open the relation (pins the epoch)...
    let loaded = ctx
        .read()
        .format(DEFAULT_SOURCE)
        .option("table", "snap")
        .option("numPartitions", 8)
        .load()
        .unwrap();
    // ...then mutate the table before the scan actually runs.
    let mut session = cluster.connect(2).unwrap();
    session.execute("DELETE FROM snap WHERE id < 50").unwrap();
    session
        .execute("INSERT INTO snap VALUES (1000, 0.0, 0.0)")
        .unwrap();

    // The load still sees the pinned snapshot: all 100 original rows.
    let rows = loaded.collect().unwrap();
    assert_eq!(rows.len(), 100);
    assert!(rows.iter().all(|r| r.get(0).as_i64().unwrap() < 1000));
    // A fresh relation sees the new state.
    let fresh = ctx
        .read()
        .format(DEFAULT_SOURCE)
        .option("table", "snap")
        .load()
        .unwrap();
    assert_eq!(fresh.count().unwrap(), 51);
}

#[test]
fn v2s_task_retries_do_not_change_the_result() {
    let (ctx, cluster) = setup();
    let df = ctx.create_dataframe(d1_rows(200), d1_schema(), 4).unwrap();
    df.write()
        .format(DEFAULT_SOURCE)
        .options(save_options("retry_read", 8))
        .mode(SaveMode::Overwrite)
        .save()
        .unwrap();
    let _ = cluster;

    ctx.failures().fail_task(0, 1, FailureMode::BeforeWork);
    ctx.failures().fail_task(3, 1, FailureMode::AfterWork);
    ctx.failures().speculate(5, 1);
    let loaded = ctx
        .read()
        .format(DEFAULT_SOURCE)
        .option("table", "retry_read")
        .option("numPartitions", 8)
        .load()
        .unwrap();
    let mut rows = loaded.collect().unwrap();
    ctx.failures().clear();
    rows.sort_by_key(|r| r.get(0).as_i64().unwrap());
    assert_eq!(rows, d1_rows(200));
}

#[test]
fn s2v_exactly_once_under_task_failures_and_speculation() {
    let (ctx, cluster) = setup();
    let df = ctx.create_dataframe(d1_rows(600), d1_schema(), 12).unwrap();

    // Partition 2 dies before work; partition 7 does all its work and
    // then dies (the paper's post-commit failure); partitions 1 and 11
    // run speculative duplicates.
    ctx.failures().fail_task(2, 1, FailureMode::BeforeWork);
    ctx.failures().fail_task(7, 1, FailureMode::AfterWork);
    ctx.failures().speculate(1, 1);
    ctx.failures().speculate(11, 2);

    df.write()
        .format(DEFAULT_SOURCE)
        .options(save_options("exactly_once", 12))
        .mode(SaveMode::Overwrite)
        .save()
        .unwrap();
    ctx.failures().clear();

    let mut session = cluster.connect(0).unwrap();
    let result = session.query(&QuerySpec::scan("exactly_once")).unwrap();
    assert_eq!(result.rows.len(), 600, "no lost and no duplicated rows");
    let mut ids: Vec<i64> = result
        .rows
        .iter()
        .map(|r| r.get(0).as_i64().unwrap())
        .collect();
    ids.sort();
    ids.dedup();
    assert_eq!(ids.len(), 600, "every id exactly once");
}

#[test]
fn s2v_total_engine_failure_leaves_target_untouched() {
    let (ctx, cluster) = setup();

    // Seed the target with known data.
    let df = ctx.create_dataframe(d1_rows(50), d1_schema(), 4).unwrap();
    df.write()
        .format(DEFAULT_SOURCE)
        .options(save_options("crash_target", 4))
        .mode(SaveMode::Overwrite)
        .save()
        .unwrap();

    // Now a bigger save that dies mid-job. More partitions than worker
    // threads guarantees some tasks never run, so the staging table can
    // never be promoted.
    let df2 = ctx.create_dataframe(d1_rows(400), d1_schema(), 32).unwrap();
    ctx.failures().kill_job_after(3);
    let err = df2
        .write()
        .format(DEFAULT_SOURCE)
        .options(save_options("crash_target", 32).with("job_name", "doomed"))
        .mode(SaveMode::Overwrite)
        .save()
        .unwrap_err();
    ctx.failures().clear();
    assert!(err.to_string().contains("killed"), "{err}");

    // The target still holds exactly the old data (no partial load).
    let mut session = cluster.connect(1).unwrap();
    let count = session
        .query(&QuerySpec::scan("crash_target").count())
        .unwrap()
        .count;
    assert_eq!(count, 50);

    // The permanent final-status table records the unfinished job.
    let status = session
        .execute("SELECT status FROM s2v_job_final_status WHERE job_name = 'doomed'")
        .unwrap()
        .rows()
        .unwrap();
    assert_eq!(status.rows.len(), 1);
    assert_eq!(status.rows[0].get(0), &Value::Varchar("in_progress".into()));
}

#[test]
fn s2v_append_mode_accumulates() {
    let (ctx, cluster) = setup();
    let df = ctx.create_dataframe(d1_rows(100), d1_schema(), 4).unwrap();
    for _ in 0..3 {
        df.write()
            .format(DEFAULT_SOURCE)
            .options(save_options("appender", 4))
            .mode(SaveMode::Append)
            .save()
            .unwrap();
    }
    let mut session = cluster.connect(0).unwrap();
    let count = session
        .query(&QuerySpec::scan("appender").count())
        .unwrap()
        .count;
    assert_eq!(count, 300);
}

#[test]
fn s2v_overwrite_replaces_atomically() {
    let (ctx, cluster) = setup();
    let df1 = ctx.create_dataframe(d1_rows(100), d1_schema(), 4).unwrap();
    df1.write()
        .format(DEFAULT_SOURCE)
        .options(save_options("swap", 4))
        .mode(SaveMode::Overwrite)
        .save()
        .unwrap();
    let df2 = ctx
        .create_dataframe(
            (1000..1040)
                .map(|i| row![i as i64, 0.0f64, 0.0f64])
                .collect(),
            d1_schema(),
            4,
        )
        .unwrap();
    df2.write()
        .format(DEFAULT_SOURCE)
        .options(save_options("swap", 4))
        .mode(SaveMode::Overwrite)
        .save()
        .unwrap();
    let mut session = cluster.connect(0).unwrap();
    let result = session.query(&QuerySpec::scan("swap")).unwrap();
    assert_eq!(result.rows.len(), 40);
    assert!(result
        .rows
        .iter()
        .all(|r| r.get(0).as_i64().unwrap() >= 1000));
}

#[test]
fn s2v_save_mode_semantics() {
    let (ctx, _cluster) = setup();
    let df = ctx.create_dataframe(d1_rows(10), d1_schema(), 2).unwrap();
    // First write with ErrorIfExists works.
    df.write()
        .format(DEFAULT_SOURCE)
        .options(save_options("modal", 2))
        .mode(SaveMode::ErrorIfExists)
        .save()
        .unwrap();
    // Second fails.
    assert!(df
        .write()
        .format(DEFAULT_SOURCE)
        .options(save_options("modal", 2))
        .mode(SaveMode::ErrorIfExists)
        .save()
        .is_err());
    // Ignore silently does nothing.
    df.write()
        .format(DEFAULT_SOURCE)
        .options(save_options("modal", 2))
        .mode(SaveMode::Ignore)
        .save()
        .unwrap();
}

#[test]
fn s2v_rejected_rows_tolerance() {
    let (ctx, cluster) = setup();
    // A schema whose NOT NULL column the data sometimes violates.
    {
        let mut s = cluster.connect(0).unwrap();
        s.execute("CREATE TABLE strict (id INT NOT NULL, x FLOAT)")
            .unwrap();
    }
    let schema = Schema::from_pairs(&[("id", DataType::Int64), ("x", DataType::Float64)]);
    let rows: Vec<Row> = (0..100)
        .map(|i| {
            if i % 10 == 0 {
                Row::new(vec![Value::Null, Value::Float64(0.0)])
            } else {
                row![i as i64, i as f64]
            }
        })
        .collect();
    let df = ctx
        .create_dataframe(rows.clone(), schema.clone(), 5)
        .unwrap();

    // Zero tolerance: the job fails, the target is not polluted.
    let err = df
        .write()
        .format(DEFAULT_SOURCE)
        .options(save_options("strict", 5))
        .mode(SaveMode::Append)
        .save()
        .unwrap_err();
    assert!(err.to_string().contains("tolerance"), "{err}");
    let mut session = cluster.connect(0).unwrap();
    assert_eq!(
        session
            .query(&QuerySpec::scan("strict").count())
            .unwrap()
            .count,
        0
    );

    // 15% tolerance: the good rows land.
    df.write()
        .format(DEFAULT_SOURCE)
        .options(save_options("strict", 5).with("failed_rows_percent_tolerance", 0.15))
        .mode(SaveMode::Append)
        .save()
        .unwrap();
    assert_eq!(
        session
            .query(&QuerySpec::scan("strict").count())
            .unwrap()
            .count,
        90
    );
}

#[test]
fn v2s_loads_views_with_synthetic_ranges() {
    let (ctx, cluster) = setup();
    let df = ctx.create_dataframe(d1_rows(120), d1_schema(), 4).unwrap();
    df.write()
        .format(DEFAULT_SOURCE)
        .options(save_options("base_table", 4))
        .mode(SaveMode::Overwrite)
        .save()
        .unwrap();
    {
        let mut s = cluster.connect(0).unwrap();
        // A view with an aggregation — the pushdown the Data Source API
        // itself cannot express (Sec. 3.1.1).
        s.execute(
            "CREATE VIEW sums AS SELECT id % 10 AS bucket, SUM(a) AS total \
             FROM base_table GROUP BY id % 10",
        )
        .unwrap();
    }
    let view_df = ctx
        .read()
        .format(DEFAULT_SOURCE)
        .option("table", "sums")
        .option("numPartitions", 6)
        .load()
        .unwrap();
    let rows = view_df.collect().unwrap();
    assert_eq!(rows.len(), 10);
    assert_eq!(view_df.count().unwrap(), 10);
}

#[test]
fn md_full_analytics_pipeline() {
    use sparklet::mllib::{LabeledPoint, LinearRegression};
    use sparklet::pmml_export::linear_to_pmml;

    let (ctx, cluster) = setup();

    // Data lives in the database.
    {
        let mut s = cluster.connect(0).unwrap();
        s.execute("CREATE TABLE points (x1 FLOAT, x2 FLOAT, y FLOAT)")
            .unwrap();
        let rows: Vec<Row> = (0..200)
            .map(|i| {
                let x1 = i as f64 / 10.0;
                let x2 = (i % 17) as f64;
                row![x1, x2, 2.0 * x1 - x2 + 5.0]
            })
            .collect();
        s.insert("points", rows).unwrap();
    }

    // V2S: load into the engine and train with MLlib.
    let df = ctx
        .read()
        .format(DEFAULT_SOURCE)
        .option("table", "points")
        .option("numPartitions", 8)
        .load()
        .unwrap();
    let training = df.rdd().unwrap().map(|r: Row| {
        LabeledPoint::new(
            r.get(2).as_f64().unwrap(),
            vec![r.get(0).as_f64().unwrap(), r.get(1).as_f64().unwrap()],
        )
    });
    let model = LinearRegression::default().fit(&training).unwrap();
    assert!((model.intercept - 5.0).abs() < 1e-6);

    // MD: export to PMML, deploy, score in-database via SQL.
    let doc = linear_to_pmml(
        &model,
        "regression",
        Some(&["x1".to_string(), "x2".to_string()]),
        "y",
    );
    let md = ModelDeployment::new(Arc::clone(&cluster)).unwrap();
    md.deploy_pmml_model(&doc, false).unwrap();

    let models = md.list_models().unwrap();
    assert_eq!(models.len(), 1);
    assert_eq!(models[0].name, "regression");
    assert_eq!(models[0].model_type, "regression");
    assert_eq!(models[0].num_features, 2);

    let round_trip = md.get_pmml("regression").unwrap();
    assert_eq!(round_trip, doc);

    let mut s = cluster.connect(1).unwrap();
    let predictions = s
        .execute(
            "SELECT y, PMMLPredict(x1, x2 USING PARAMETERS model_name='regression') \
             FROM points",
        )
        .unwrap()
        .rows()
        .unwrap();
    assert_eq!(predictions.rows.len(), 200);
    for row in &predictions.rows {
        let actual = row.get(0).as_f64().unwrap();
        let predicted = row.get(1).as_f64().unwrap();
        assert!((actual - predicted).abs() < 1e-6, "{actual} vs {predicted}");
    }

    // Unknown models error; duplicate deployment guarded.
    assert!(s
        .execute("SELECT PMMLPredict(x1 USING PARAMETERS model_name='nope') FROM points")
        .is_err());
    assert!(md.deploy_pmml_model(&doc, false).is_err());
    md.deploy_pmml_model(&doc, true).unwrap();
    md.drop_model("regression").unwrap();
    assert!(md.get_pmml("regression").is_err());
}

#[test]
fn s2v_random_failures_stress() {
    let (ctx, cluster) = setup();
    let df = ctx.create_dataframe(d1_rows(300), d1_schema(), 10).unwrap();
    // Every attempt has a 25% chance of dying after its side effects.
    ctx.failures()
        .random_failures(0.25, 1234, FailureMode::AfterWork);
    let result = df
        .write()
        .format(DEFAULT_SOURCE)
        .options(save_options("stress", 10))
        .mode(SaveMode::Overwrite)
        .save();
    ctx.failures().clear();
    match result {
        Ok(()) => {
            let mut session = cluster.connect(0).unwrap();
            assert_eq!(
                session
                    .query(&QuerySpec::scan("stress").count())
                    .unwrap()
                    .count,
                300
            );
        }
        Err(e) => {
            // Retry budget exhausted is legal; the target must be clean.
            assert!(
                e.to_string().contains("failed") || e.to_string().contains("attempts"),
                "{e}"
            );
            if cluster.has_table("stress") {
                let mut session = cluster.connect(0).unwrap();
                let count = session
                    .query(&QuerySpec::scan("stress").count())
                    .unwrap()
                    .count;
                assert_eq!(count, 0, "failed job must not partially load");
            }
        }
    }
}

#[test]
fn s2v_prehash_eliminates_database_internal_shuffle() {
    use netsim::record::{EventKind, NodeRef};

    let (ctx, cluster) = setup();
    let df = ctx
        .create_dataframe(d1_rows(4_000), d1_schema(), 8)
        .unwrap();

    let db_shuffle = |events: &[netsim::record::Event]| -> u64 {
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
    };

    // Standard save: ~3/4 of the staged rows shuffle to their owners.
    cluster.recorder().clear();
    df.write()
        .format(DEFAULT_SOURCE)
        .options(save_options("standard_save", 16))
        .mode(SaveMode::Overwrite)
        .save()
        .unwrap();
    let standard = db_shuffle(&cluster.recorder().drain());
    assert!(standard > 0, "standard save must shuffle internally");

    // Pre-hashed save: tasks connect to the owning node; the bulk load
    // is entirely node-local (Sec. 5).
    cluster.recorder().clear();
    df.write()
        .format(DEFAULT_SOURCE)
        .options(save_options("prehash_save", 16).with("prehash", true))
        .mode(SaveMode::Overwrite)
        .save()
        .unwrap();
    let events = cluster.recorder().drain();
    let prehashed = db_shuffle(&events);
    // Only the tiny unsegmented protocol-table writes remain.
    assert!(
        prehashed < standard / 10,
        "prehash shuffle {prehashed} vs standard {standard}"
    );

    // And the data is still exactly once, content-identical.
    let mut session = cluster.connect(0).unwrap();
    let mut a = session
        .query(&QuerySpec::scan("standard_save"))
        .unwrap()
        .rows;
    let mut b = session
        .query(&QuerySpec::scan("prehash_save"))
        .unwrap()
        .rows;
    a.sort_by_key(|r| r.get(0).as_i64().unwrap());
    b.sort_by_key(|r| r.get(0).as_i64().unwrap());
    assert_eq!(a, b);
}

#[test]
fn s2v_prehash_survives_failures_too() {
    let (ctx, cluster) = setup();
    let df = ctx.create_dataframe(d1_rows(400), d1_schema(), 8).unwrap();
    ctx.failures().fail_task(2, 1, FailureMode::AfterWork);
    ctx.failures().speculate(5, 1);
    df.write()
        .format(DEFAULT_SOURCE)
        .options(save_options("prehash_faulty", 8).with("prehash", true))
        .mode(SaveMode::Overwrite)
        .save()
        .unwrap();
    ctx.failures().clear();
    let mut session = cluster.connect(1).unwrap();
    assert_eq!(
        session
            .query(&QuerySpec::scan("prehash_faulty").count())
            .unwrap()
            .count,
        400
    );
}

#[test]
fn s2v_prehash_argument_validation() {
    let (ctx, cluster) = setup();
    let df = ctx.create_dataframe(d1_rows(50), d1_schema(), 2).unwrap();
    // Fewer partitions than database nodes cannot align owner-wise.
    let err = df
        .write()
        .format(DEFAULT_SOURCE)
        .options(save_options("prehash_bad", 2).with("prehash", true))
        .mode(SaveMode::Overwrite)
        .save()
        .unwrap_err();
    assert!(err.to_string().contains("prehash"), "{err}");
    // A down node breaks owner alignment.
    cluster.set_node_down(3);
    let err = df
        .write()
        .format(DEFAULT_SOURCE)
        .options(save_options("prehash_bad2", 8).with("prehash", true))
        .mode(SaveMode::Overwrite)
        .save()
        .unwrap_err();
    assert!(err.to_string().contains("prehash"), "{err}");
    cluster.set_node_up(3);
}

#[test]
fn connector_sessions_respect_a_dedicated_resource_pool() {
    // The paper isolates data movement in its own resource pool (Sec.
    // 4.1). A pool with bounded concurrency caps how many connector
    // queries run at once, and the high-water mark proves the sessions
    // actually joined it.
    let (ctx, cluster) = setup();
    cluster.create_resource_pool(mppdb::resource::ResourcePool::new(
        "data_movement",
        16 << 30,
        3,
    ));
    let df = ctx.create_dataframe(d1_rows(400), d1_schema(), 8).unwrap();
    df.write()
        .format(DEFAULT_SOURCE)
        .options(save_options("pooled", 8).with("resource_pool", "data_movement"))
        .mode(SaveMode::Overwrite)
        .save()
        .unwrap();
    let loaded = ctx
        .read()
        .format(DEFAULT_SOURCE)
        .option("table", "pooled")
        .option("numPartitions", 16)
        .option("resource_pool", "data_movement")
        .load()
        .unwrap();
    assert_eq!(loaded.count().unwrap(), 400);
    assert_eq!(loaded.collect().unwrap().len(), 400);

    let pool = cluster.resource_pool("data_movement").unwrap();
    assert!(pool.high_water_mark() >= 1, "sessions joined the pool");
    assert!(
        pool.high_water_mark() <= 3,
        "admission bound held: {}",
        pool.high_water_mark()
    );
    assert_eq!(pool.active(), 0, "all admissions released");

    // An unknown pool is rejected up front.
    let err = ctx
        .read()
        .format(DEFAULT_SOURCE)
        .option("table", "pooled")
        .option("resource_pool", "nope")
        .load()
        .unwrap()
        .collect()
        .unwrap_err();
    assert!(err.to_string().contains("resource pool"), "{err}");
}

#[test]
fn md_serves_external_pmml_producers() {
    // Sec. 3.3: deployment "can also serve other PMML producers such as
    // SAS or Distributed R". A hand-authored PMML document (not from
    // our ML library) deploys and scores identically.
    let (_ctx, cluster) = setup();
    let xml = r#"<?xml version="1.0" encoding="UTF-8"?>
<PMML version="4.1" xmlns="http://www.dmg.org/PMML-4_1">
  <Header description="external producer"><Application name="SAS-like"/></Header>
  <DataDictionary numberOfFields="3">
    <DataField name="age" optype="continuous" dataType="double"/>
    <DataField name="income" optype="continuous" dataType="double"/>
    <DataField name="risk" optype="continuous" dataType="double"/>
  </DataDictionary>
  <RegressionModel modelName="external_risk" functionName="regression" normalizationMethod="none">
    <MiningSchema>
      <MiningField name="age" usageType="active"/>
      <MiningField name="income" usageType="active"/>
      <MiningField name="risk" usageType="predicted"/>
    </MiningSchema>
    <RegressionTable intercept="0.5">
      <NumericPredictor name="age" coefficient="0.02"/>
      <NumericPredictor name="income" coefficient="-0.001"/>
    </RegressionTable>
  </RegressionModel>
</PMML>"#;
    let doc = pmml::PmmlDocument::from_xml(xml).unwrap();
    assert_eq!(doc.application, "SAS-like");

    let md = ModelDeployment::new(Arc::clone(&cluster)).unwrap();
    md.deploy_pmml_model(&doc, false).unwrap();

    let mut s = cluster.connect(0).unwrap();
    s.execute("CREATE TABLE customers (age FLOAT, income FLOAT)")
        .unwrap();
    s.execute("INSERT INTO customers VALUES (40.0, 500.0), (20.0, 100.0)")
        .unwrap();
    let r = s
        .execute(
            "SELECT PMMLPredict(age, income USING PARAMETERS \
             model_name='external_risk') FROM customers ORDER BY 1 DESC",
        )
        .unwrap()
        .rows()
        .unwrap();
    assert!((r.rows[0].get(0).as_f64().unwrap() - (0.5 + 0.8 - 0.5)).abs() < 1e-12);
    assert!((r.rows[1].get(0).as_f64().unwrap() - (0.5 + 0.4 - 0.1)).abs() < 1e-12);
}

#[test]
fn v2s_fails_over_to_buddy_replicas_under_k_safety() {
    let cluster = Cluster::new(ClusterConfig {
        k_safety: 1,
        ..ClusterConfig::default()
    });
    let ctx = SparkContext::new(SparkConf {
        nodes: 8,
        cores_per_node: 4,
        max_task_attempts: 4,
        thread_cap: 8,
        ..SparkConf::default()
    });
    DefaultSource::register(&ctx, Arc::clone(&cluster));

    let df = ctx.create_dataframe(d1_rows(500), d1_schema(), 8).unwrap();
    df.write()
        .format(DEFAULT_SOURCE)
        .options(save_options("ksafe", 8))
        .mode(SaveMode::Overwrite)
        .save()
        .unwrap();

    // Down a node; its segment's hash ranges are served by the buddy.
    cluster.set_node_down(1);
    let loaded = ctx
        .read()
        .format(DEFAULT_SOURCE)
        .option("host", 0)
        .option("table", "ksafe")
        .option("numPartitions", 16)
        .load()
        .unwrap();
    let mut rows = loaded.collect().unwrap();
    rows.sort_by_key(|r| r.get(0).as_i64().unwrap());
    assert_eq!(rows, d1_rows(500), "buddy replicas serve the full snapshot");
    cluster.set_node_up(1);
}

#[test]
fn s2v_report_carries_rejected_row_samples() {
    let (ctx, cluster) = setup();
    {
        let mut s = cluster.connect(0).unwrap();
        s.execute("CREATE TABLE picky (id INT NOT NULL, x FLOAT)")
            .unwrap();
    }
    let schema = Schema::from_pairs(&[("id", DataType::Int64), ("x", DataType::Float64)]);
    let rows: Vec<Row> = (0..60)
        .map(|i| {
            if i % 20 == 0 {
                Row::new(vec![Value::Null, Value::Float64(i as f64)])
            } else {
                row![i as i64, i as f64]
            }
        })
        .collect();
    let df = ctx.create_dataframe(rows, schema, 3).unwrap();

    let opts = connector::ConnectorOptions::builder("picky")
        .num_partitions(3)
        .failed_rows_percent_tolerance(0.2)
        .build()
        .unwrap();
    let report = connector::SaveRequest::new(&ctx, &cluster, &df, &opts)
        .mode(SaveMode::Append)
        .submit()
        .unwrap();
    assert_eq!(report.rows_loaded, 57);
    assert_eq!(report.rows_rejected, 3);
    // Each of the three partitions rejected one row and reports a
    // sample explaining why (the NOT NULL violation).
    assert_eq!(report.rejected_samples.len(), 3);
    for (task, reason) in &report.rejected_samples {
        assert!(*task < 3);
        assert!(reason.contains("NULL"), "sample: {reason}");
    }
}
