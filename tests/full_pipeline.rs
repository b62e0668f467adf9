//! The complete Fig. 1 loop, asserted end-to-end: S2V (ETL) → SQL →
//! V2S → MLlib training → PMML export → MD deployment → in-database
//! scoring — one test exercising every crate in the workspace together.

use sparklet::mllib::{LabeledPoint, LinearRegression};
use sparklet::pmml_export::linear_to_pmml;
use vertica_spark_fabric::prelude::*;

#[test]
fn full_analytics_loop() {
    let db = Cluster::new(ClusterConfig::default());
    let ctx = SparkContext::new(SparkConf {
        nodes: 8,
        cores_per_node: 4,
        max_task_attempts: 4,
        thread_cap: 8,
        ..SparkConf::default()
    });
    DefaultSource::register(&ctx, db.clone());

    // 1. ETL in the engine: raw text → typed rows, then S2V.
    let raw = ctx.parallelize(
        (0..3_000)
            .map(|i| format!("{i},{}", (i as f64) * 0.25 + 7.0))
            .collect::<Vec<String>>(),
        8,
    );
    let parsed: Vec<Row> = raw
        .map(|line: String| {
            let (a, b) = line.split_once(',').unwrap();
            row![a.parse::<i64>().unwrap(), b.parse::<f64>().unwrap()]
        })
        .collect()
        .unwrap();
    let schema = Schema::from_pairs(&[("x", DataType::Int64), ("y", DataType::Float64)]);
    let df = ctx.create_dataframe(parsed, schema, 8).unwrap();
    df.write()
        .format(DEFAULT_SOURCE)
        .options(
            Options::new()
                .with("table", "samples")
                .with("numPartitions", 16),
        )
        .mode(SaveMode::Overwrite)
        .save()
        .unwrap();

    // 2. SQL sanity on the database.
    let mut s = db.connect(0).unwrap();
    let stats = s
        .execute("SELECT COUNT(*), MIN(y), MAX(y) FROM samples")
        .unwrap()
        .rows()
        .unwrap();
    assert_eq!(stats.rows[0].get(0), &Value::Int64(3_000));
    assert_eq!(stats.rows[0].get(1).as_f64().unwrap(), 7.0);

    // 3. V2S into the engine; train y = 0.25x + 7.
    let training = ctx
        .read()
        .format(DEFAULT_SOURCE)
        .option("table", "samples")
        .option("numPartitions", 8)
        .load()
        .unwrap()
        .rdd()
        .unwrap()
        .map(|r: Row| {
            LabeledPoint::new(r.get(1).as_f64().unwrap(), vec![r.get(0).as_f64().unwrap()])
        });
    let model = LinearRegression::default().fit(&training).unwrap();
    assert!((model.intercept - 7.0).abs() < 1e-6, "{}", model.intercept);
    assert!((model.weights[0] - 0.25).abs() < 1e-9);

    // 4. MD: deploy and score from SQL.
    let md = ModelDeployment::new(db.clone()).unwrap();
    md.deploy_pmml_model(
        &linear_to_pmml(&model, "line", Some(&["x".to_string()]), "y"),
        false,
    )
    .unwrap();
    let scored = s
        .execute(
            "SELECT y, PMMLPredict(x USING PARAMETERS model_name='line') FROM samples LIMIT 50",
        )
        .unwrap()
        .rows()
        .unwrap();
    assert_eq!(scored.rows.len(), 50);
    for r in &scored.rows {
        let actual = r.get(0).as_f64().unwrap();
        let predicted = r.get(1).as_f64().unwrap();
        assert!((actual - predicted).abs() < 1e-6);
    }

    // Each row the query returns is scored once: md.predictions counts
    // the model's evaluations.
    let before = obs::global().snapshot();
    let scored = s
        .execute(
            "SELECT PMMLPredict(x USING PARAMETERS model_name='line') FROM samples WHERE x < 100",
        )
        .unwrap()
        .rows()
        .unwrap();
    let delta = obs::global().snapshot().counters_since(&before);
    assert_eq!(scored.rows.len(), 100);
    assert_eq!(delta.get("md.predictions"), Some(&100), "{delta:?}");

    // 5. The model round-trips through its PMML document.
    let doc = md.get_pmml("line").unwrap();
    let eval = pmml::Evaluator::from_document(&doc).unwrap();
    assert!((eval.predict(&[4.0]).unwrap() - 8.0).abs() < 1e-9);
}

#[test]
fn fabric_moves_data_between_storage_systems() {
    // DataFrame → DFS → DataFrame → database → DataFrame: the fabric
    // as the connective tissue between storage systems.
    let db = Cluster::new(ClusterConfig::default());
    let ctx = SparkContext::new(SparkConf {
        nodes: 4,
        cores_per_node: 4,
        max_task_attempts: 4,
        thread_cap: 8,
        ..SparkConf::default()
    });
    DefaultSource::register(&ctx, db.clone());
    let dfs = dfslite::DfsClusterSim::new(dfslite::DfsConfig {
        nodes: 4,
        block_size: 1 << 16,
        replication: 3,
    });
    baselines::DfsSource::register(&ctx, dfs);

    let schema = Schema::from_pairs(&[("k", DataType::Int64), ("v", DataType::Varchar)]);
    let rows: Vec<Row> = (0..500)
        .map(|i| row![i as i64, format!("value{i}")])
        .collect();
    let df = ctx.create_dataframe(rows.clone(), schema, 5).unwrap();

    // Engine → DFS.
    df.write()
        .format(baselines::DFS_FORMAT)
        .options(Options::new().with("path", "/stage/data"))
        .mode(SaveMode::Overwrite)
        .save()
        .unwrap();
    // DFS → engine → database.
    let from_dfs = ctx
        .read()
        .format(baselines::DFS_FORMAT)
        .option("path", "/stage/data")
        .load()
        .unwrap();
    from_dfs
        .write()
        .format(DEFAULT_SOURCE)
        .options(
            Options::new()
                .with("table", "landed")
                .with("numPartitions", 8),
        )
        .mode(SaveMode::Overwrite)
        .save()
        .unwrap();
    // Database → engine; contents identical.
    let mut final_rows = ctx
        .read()
        .format(DEFAULT_SOURCE)
        .option("table", "landed")
        .load()
        .unwrap()
        .collect()
        .unwrap();
    final_rows.sort_by_key(|r| r.get(0).as_i64().unwrap());
    assert_eq!(final_rows, rows);
}
