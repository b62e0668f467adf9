//! The S2V append commit hands the staged containers over (paper Sec.
//! 3.2, Fig. 5 phase 5): the target shares the staging table's payloads
//! instead of copying its rows. What must hold for as long as the target
//! lives: dropping the staging table at job teardown, sealing the
//! adopted open containers and merging the adopted sealed ones leave the
//! target's rows exactly as they were, and a phase 5 that does not
//! commit leaves the staging table whole for the retry.

use std::sync::Arc;

use vertica_spark_fabric::prelude::*;
use vertica_spark_fabric::{connector, mppdb};

use mppdb::fault::FaultSite;

const SCHEMA_SQL: &str = "(id INT NOT NULL, x FLOAT) SEGMENTED BY HASH(id) ALL NODES";

/// A 4-node k=1 cluster whose commits never move rows out on their own
/// (every seal here is one the test runs) and whose mergeout takes any
/// two neighbours of a size.
fn cluster() -> Arc<Cluster> {
    Cluster::new(ClusterConfig {
        k_safety: 1,
        moveout_threshold: usize::MAX,
        mergeout_min_containers: 2,
        ..ClusterConfig::default()
    })
}

fn rows(ids: std::ops::Range<i64>) -> Vec<Row> {
    ids.map(|i| row![i, i as f64 / 4.0]).collect()
}

/// The exact multiset of ids `table` holds, sorted.
fn ids(db: &Arc<Cluster>, table: &str) -> Vec<i64> {
    let mut s = db.connect(0).unwrap();
    let mut ids: Vec<i64> = s
        .query(&QuerySpec::scan(table))
        .unwrap()
        .rows
        .iter()
        .map(|r| r.get(0).as_i64().unwrap())
        .collect();
    ids.sort_unstable();
    ids
}

fn range(ids: std::ops::Range<i64>) -> Vec<i64> {
    ids.collect()
}

/// A target holding ids 0..100, sealed and open, and a staging table
/// holding 100..400 from three committed loads, DIRECT or into the WOS.
fn setup(direct: bool) -> Arc<Cluster> {
    let db = cluster();
    let mut s = db.connect(0).unwrap();
    for table in ["target", "staging"] {
        s.execute(&format!("CREATE TABLE {table} {SCHEMA_SQL}"))
            .unwrap();
    }
    s.insert("target", rows(0..50)).unwrap();
    db.moveout_all();
    s.insert("target", rows(50..100)).unwrap();
    for load in 0..3 {
        let from = 100 + load * 100;
        let options = CopyOptions {
            direct,
            rejected_max: 0,
        };
        s.copy("staging", CopySource::Rows(rows(from..from + 100)), options)
            .unwrap();
    }
    db
}

/// Phase 5's append arm, up to its commit: the hand-over, then the
/// charge for the copy it replaces.
fn hand_over(s: &mut Session) {
    s.begin().unwrap();
    s.insert_from_table("target", "staging").unwrap();
    s.charge_copy("target", "staging", |rows, _| assert_eq!(rows, 300))
        .unwrap();
}

/// Teardown, seal, merge: the target's ids never change.
fn outlive_the_staging_table(db: &Arc<Cluster>, direct: bool) {
    let all = range(0..400);
    db.drop_table("staging").unwrap();
    assert_eq!(ids(db, "target"), all, "direct={direct}: staging dropped");
    let moved = db.moveout_all();
    assert_eq!(ids(db, "target"), all, "direct={direct}: sealed");
    let wos: usize = db
        .table_stats("target")
        .unwrap()
        .iter()
        .map(|n| n.wos_rows)
        .sum();
    assert_eq!(wos, 0, "direct={direct}");
    let merged = db.mergeout_all();
    assert_eq!(ids(db, "target"), all, "direct={direct}: merged");
    // What was handed over is what the mover worked on: open containers
    // are sealed (both replicas of 50 + 300 rows), sealed ones merged.
    if direct {
        assert_eq!(moved, 2 * 50, "direct={direct}");
        assert!(merged >= 300, "direct={direct}: {merged} rows merged");
    } else {
        assert_eq!(moved, 2 * 350, "direct={direct}");
    }
}

#[test]
fn a_handed_over_target_outlives_its_staging_table() {
    for direct in [false, true] {
        let db = setup(direct);
        let mut s = db.connect(1).unwrap();
        hand_over(&mut s);
        s.commit().unwrap();
        assert_eq!(ids(&db, "target"), range(0..400), "direct={direct}");
        assert_eq!(ids(&db, "staging"), range(100..400), "direct={direct}");
        outlive_the_staging_table(&db, direct);
    }
}

/// A phase 5 that dies before its commit (the connection is lost and
/// the server aborts its transaction) leaves the staging table whole and
/// the target as it was; the retry hands over every row once.
#[test]
fn an_aborted_append_commit_leaves_staging_whole_for_the_retry() {
    for direct in [false, true] {
        let db = setup(direct);
        let mut s = db.connect(1).unwrap();
        hand_over(&mut s);
        drop(s);
        assert_eq!(ids(&db, "target"), range(0..100), "direct={direct}");
        assert_eq!(ids(&db, "staging"), range(100..400), "direct={direct}");
        db.moveout_all();
        db.mergeout_all();
        assert_eq!(ids(&db, "staging"), range(100..400), "direct={direct}");

        let mut retry = db.connect(2).unwrap();
        hand_over(&mut retry);
        retry.commit().unwrap();
        assert_eq!(ids(&db, "target"), range(0..400), "direct={direct}");
        db.drop_table("staging").unwrap();
        db.moveout_all();
        db.mergeout_all();
        assert_eq!(ids(&db, "target"), range(0..400), "direct={direct}");
    }
}

/// The Sec. 2.2.2 hazard: the commit lands and only its acknowledgement
/// is lost. The rows are in the target once, and the staging table the
/// retry re-reads is still whole until teardown drops it.
#[test]
fn an_append_commit_whose_ack_is_lost_leaves_staging_whole() {
    for direct in [false, true] {
        let db = setup(direct);
        let mut s = db.connect(1).unwrap();
        hand_over(&mut s);
        db.faults().inject_once(FaultSite::PostCommit);
        assert!(s.commit().is_err(), "direct={direct}: the ack is lost");
        assert_eq!(ids(&db, "target"), range(0..400), "direct={direct}");
        assert_eq!(ids(&db, "staging"), range(100..400), "direct={direct}");
        outlive_the_staging_table(&db, direct);
    }
}

/// The whole save: an append through the connector, DIRECT and into the
/// WOS, then the mover over the target its teardown left behind.
#[test]
fn an_appended_target_survives_the_mover_after_the_save() {
    let ctx = SparkContext::new(SparkConf {
        nodes: 4,
        cores_per_node: 2,
        thread_cap: 2,
        speculation: false,
        ..SparkConf::default()
    });
    let schema = Schema::from_pairs(&[("id", DataType::Int64), ("x", DataType::Float64)]);
    for direct in [false, true] {
        let db = cluster();
        DefaultSource::register(&ctx, db.clone());
        db.connect(0)
            .unwrap()
            .execute(&format!("CREATE TABLE target {SCHEMA_SQL}"))
            .unwrap();
        db.connect(0)
            .unwrap()
            .insert("target", rows(0..100))
            .unwrap();
        let df = ctx
            .create_dataframe(rows(100..600), schema.clone(), 2)
            .unwrap();
        let opts = connector::ConnectorOptions::builder("target")
            .num_partitions(2)
            .copy_direct(direct)
            .build()
            .unwrap();
        connector::SaveRequest::new(&ctx, &db, &df, &opts)
            .mode(SaveMode::Append)
            .submit()
            .unwrap();
        assert_eq!(ids(&db, "target"), range(0..600), "direct={direct}");
        db.moveout_all();
        assert_eq!(ids(&db, "target"), range(0..600), "direct={direct}");
        db.mergeout_all();
        assert_eq!(ids(&db, "target"), range(0..600), "direct={direct}");
    }
}
