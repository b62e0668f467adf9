//! A tour of the failure modes the fabric survives — the scenarios the
//! paper's Sec. 2.2.2 enumerates — each demonstrated live:
//!
//! 1. a task dying *after* its work is done (the subtle post-commit
//!    duplication hazard),
//! 2. speculative duplicate execution,
//! 3. total engine failure mid-save (partial-load prevention + the
//!    durable final-status audit record),
//! 4. a database node going down under k-safety during a load.
//!
//! ```sh
//! cargo run --example fault_tolerance
//! ```

use vertica_spark_fabric::prelude::*;

fn schema() -> Schema {
    Schema::from_pairs(&[("id", DataType::Int64), ("v", DataType::Float64)])
}

fn rows(n: usize) -> Vec<Row> {
    (0..n).map(|i| row![i as i64, i as f64]).collect()
}

fn main() {
    let db = Cluster::new(ClusterConfig {
        k_safety: 1,
        ..ClusterConfig::default()
    });
    let ctx = SparkContext::new(SparkConf::default());
    DefaultSource::register(&ctx, db.clone());

    // --- 1 & 2: post-work failures and speculation --------------------
    let df = ctx.create_dataframe(rows(5_000), schema(), 10).unwrap();
    ctx.failures().fail_task(1, 1, FailureMode::AfterWork);
    ctx.failures().fail_task(4, 1, FailureMode::BeforeWork);
    ctx.failures().speculate(7, 2);
    df.write()
        .format(DEFAULT_SOURCE)
        .option("table", "resilient")
        .option("numPartitions", 10)
        .mode(SaveMode::Overwrite)
        .save()
        .unwrap();
    ctx.failures().clear();

    let mut s = db.connect(0).unwrap();
    let count = s
        .query(&QuerySpec::scan("resilient").count())
        .unwrap()
        .count;
    println!(
        "save under injected failures + speculation: {count} rows \
         (expected 5000 — exactly once)"
    );
    assert_eq!(count, 5_000);

    // --- 3: total engine failure mid-save ------------------------------
    let df2 = ctx.create_dataframe(rows(20_000), schema(), 64).unwrap();
    ctx.failures().kill_job_after(5);
    let err = df2
        .write()
        .format(DEFAULT_SOURCE)
        .option("table", "resilient")
        .option("numPartitions", 64)
        .option("job_name", "crashed_job")
        .mode(SaveMode::Overwrite)
        .save()
        .unwrap_err();
    ctx.failures().clear();
    println!("\ntotal engine failure mid-save: {err}");

    let count = s
        .query(&QuerySpec::scan("resilient").count())
        .unwrap()
        .count;
    println!("target table still holds {count} rows — no partial load");
    assert_eq!(count, 5_000);

    let audit = s
        .execute("SELECT status FROM s2v_job_final_status WHERE job_name = 'crashed_job'")
        .unwrap()
        .rows()
        .unwrap();
    println!(
        "final-status table records the dead job as: {}",
        audit.rows[0].get(0)
    );

    // --- 4: node failure under k-safety --------------------------------
    println!("\ntaking database node 2 down...");
    db.kill_node(2);
    let loaded = ctx
        .read()
        .format(DEFAULT_SOURCE)
        .option("host", 0)
        .option("table", "resilient")
        .option("numPartitions", 16)
        .load()
        .unwrap();
    let n = loaded.count().unwrap();
    println!("V2S under a down node (k-safety 1): read {n} rows from buddy replicas");
    assert_eq!(n, 5_000);
    db.restore_node(2);

    println!("\nall failure scenarios survived with exactly-once semantics.");
}
