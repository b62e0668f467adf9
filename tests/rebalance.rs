//! Elastic-cluster chaos: seeded node add/remove, rolling-upgrade, and
//! crash-during-migration schedules against the online rebalancer.
//!
//! Each schedule derives a workload and a [`FaultPlan`] from one seed,
//! drives a membership change while jobs run (or while the rebalance is
//! deliberately left pending in dual-write mode), and asserts the
//! elastic-cluster invariants:
//!
//! * every id is present exactly once after the flip — migrations never
//!   lose or duplicate rows, no matter how many times they crash and
//!   resume;
//! * scans pinned to a pre-flip epoch resolve ownership through the
//!   *old* map version and return the identical wire volume, while
//!   post-flip scans resolve through the new map;
//! * a V2S relation opened before the flip keeps serving its pinned
//!   snapshot afterwards, even when its pinned owners include a node
//!   that was removed and retired;
//! * rolling kill→restore of every node mid-rebalance never breaks
//!   reads (k-safety) and the rebalance still converges.
//!
//! Tests sharing the process-global `obs` collector are serialized
//! behind one mutex so counter deltas are attributable.

use std::sync::Mutex;

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
mod common;

use vertica_spark_fabric::prelude::*;
use vertica_spark_fabric::{connector, mppdb, obs};

use connector::ConnectorOptions;
use mppdb::{FaultPlan, FaultSite};

static CHAOS_LOCK: Mutex<()> = Mutex::new(());

fn lock() -> std::sync::MutexGuard<'static, ()> {
    CHAOS_LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

fn setup(k_safety: usize) -> (SparkContext, std::sync::Arc<mppdb::Cluster>) {
    let db = Cluster::new(ClusterConfig {
        k_safety,
        ..ClusterConfig::default()
    });
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

fn save_rows(
    ctx: &SparkContext,
    db: &std::sync::Arc<mppdb::Cluster>,
    table: &str,
    ids: std::ops::Range<i64>,
    partitions: usize,
    job: &str,
) {
    let schema = Schema::from_pairs(&[("id", DataType::Int64), ("x", DataType::Float64)]);
    let rows: Vec<Row> = ids.map(|i| row![i, i as f64]).collect();
    let df = ctx.create_dataframe(rows, schema, partitions).unwrap();
    let opts = ConnectorOptions::builder(table)
        .num_partitions(partitions)
        .job_name(job)
        .retry_max_attempts(10)
        .retry_deadline_ms(60_000)
        .build()
        .unwrap();
    connector::SaveRequest::new(ctx, db, &df, &opts)
        .mode(SaveMode::Append)
        .submit()
        .unwrap_or_else(|e| panic!("save {job} failed: {e}"));
}

/// Sorted ids in `table` at `epoch`, read through the first live node.
fn ids_at(db: &std::sync::Arc<mppdb::Cluster>, table: &str, epoch: u64) -> Vec<i64> {
    let node = db.up_nodes()[0];
    let mut session = db.connect(node).unwrap();
    let result = session
        .query(&QuerySpec::scan(table).at_epoch(epoch))
        .unwrap();
    let mut ids: Vec<i64> = result
        .rows
        .iter()
        .map(|r| r.get(0).as_i64().unwrap())
        .collect();
    ids.sort_unstable();
    ids
}

/// Total wire volume of a scan of `table` pinned at `epoch`.
fn wire_at(db: &std::sync::Arc<mppdb::Cluster>, table: &str, epoch: u64) -> u64 {
    let node = db.up_nodes()[0];
    let mut session = db.connect(node).unwrap();
    session
        .query(&QuerySpec::scan(table).at_epoch(epoch))
        .unwrap()
        .wire_bytes()
}

/// Drive a pending rebalance to completion, restoring any down member
/// first. Transient interruptions (seeded crashes, killed targets) are
/// retried; anything fatal panics with the seed attached.
fn finish_rebalance(db: &std::sync::Arc<mppdb::Cluster>, seed: u64) {
    let mut guard = 0;
    while db.rebalance_in_progress() {
        guard += 1;
        assert!(guard < 32, "seed {seed}: rebalance did not converge");
        if let Err(e) = db.run_rebalance() {
            assert!(e.is_transient(), "seed {seed}: fatal rebalance error: {e}");
        }
    }
}

/// Node-add schedule: load a table, leave an add-rebalance pending in
/// dual-write mode, run a *second* S2V save mid-rebalance, then finish
/// under seeded migration crashes. Pre-flip epochs must keep resolving
/// the old map version (and the old wire volume); the post-flip scan
/// must resolve the new one and hold the exact union multiset.
fn run_add_schedule(seed: u64) {
    let mut rng = StdRng::seed_from_u64(seed);
    let (ctx, db) = setup(if rng.random_bool(0.5) { 1 } else { 0 });
    let n_rows = rng.random_range(60i64..200);
    let partitions = rng.random_range(2usize..8);
    save_rows(
        &ctx,
        &db,
        "elastic_add",
        0..n_rows,
        partitions,
        &format!("add_{seed}_a"),
    );

    let pre_epoch = db.current_epoch();
    let old_version = db.segment_map().version();
    let pre_ids = ids_at(&db, "elastic_add", pre_epoch);
    let pre_wire = wire_at(&db, "elastic_add", pre_epoch);

    // Leave the add pending: the planned map is staged, writes
    // dual-write to current and target owners, but nothing has flipped.
    db.faults().inject_once(FaultSite::Rebalance);
    let before = obs::global().snapshot();
    let err = db.add_node().unwrap_err();
    assert!(err.is_transient(), "seed {seed}: {err}");
    assert!(db.rebalance_in_progress());
    assert_eq!(
        db.segment_map().version(),
        old_version,
        "seed {seed}: no flip while pending"
    );

    // Mid-rebalance S2V: an entire save lands in dual-write mode.
    let extra = rng.random_range(20i64..80);
    save_rows(
        &ctx,
        &db,
        "elastic_add",
        n_rows..n_rows + extra,
        partitions,
        &format!("add_{seed}_b"),
    );

    // Finish under seeded migration crashes.
    db.faults().arm(
        FaultPlan::seeded(seed)
            .with_rebalance_crash(0.4)
            .with_budget(rng.random_range(1u64..4)),
    );
    finish_rebalance(&db, seed);
    let fired = db.faults().disarm();

    let new_map = db.segment_map();
    assert_eq!(new_map.version(), old_version + 1, "seed {seed}: flipped");
    assert_eq!(new_map.node_count(), 5, "seed {seed}: five members");

    // Post-flip: the union multiset, exactly once, through the new map.
    let expected: Vec<i64> = (0..n_rows + extra).collect();
    assert_eq!(
        ids_at(&db, "elastic_add", db.current_epoch()),
        expected,
        "seed {seed}: post-flip ids"
    );
    // Pre-flip epochs still resolve the old map version and the exact
    // old snapshot — same ids, same wire volume.
    assert_eq!(
        db.segment_map_at(pre_epoch).version(),
        old_version,
        "seed {seed}: pre-flip epoch pins old map"
    );
    assert_eq!(
        db.segment_map_at(db.current_epoch()).version(),
        old_version + 1,
        "seed {seed}: current epoch resolves new map"
    );
    assert_eq!(
        ids_at(&db, "elastic_add", pre_epoch),
        pre_ids,
        "seed {seed}: pre-flip ids unchanged"
    );
    assert_eq!(
        wire_at(&db, "elastic_add", pre_epoch),
        pre_wire,
        "seed {seed}: pre-flip wire volume unchanged"
    );

    // Every fired fault was a rebalance crash (the only site armed,
    // plus the single injected one), and the flip happened once.
    let delta = obs::global().snapshot().counters_since(&before);
    assert_eq!(
        delta.get("fault.rebalance").copied().unwrap_or(0),
        fired + 1,
        "seed {seed}: fired faults were rebalance crashes: {delta:?}"
    );
    assert_eq!(
        delta.get("rebalance.flips").copied().unwrap_or(0),
        1,
        "seed {seed}: exactly one flip: {delta:?}"
    );
    assert!(
        delta.get("rebalance.migrations").copied().unwrap_or(0) > 0,
        "seed {seed}: migrations ran: {delta:?}"
    );
}

/// Node-remove schedule: open a V2S relation *before* removing one of
/// its pinned owners. The relation's epoch+map pin must keep the load
/// correct after the flip retires the node, and fresh reads must route
/// through the shrunk map.
fn run_remove_schedule(seed: u64) {
    let mut rng = StdRng::seed_from_u64(seed);
    let k = if rng.random_bool(0.5) { 1 } else { 0 };
    let (ctx, db) = setup(k);
    let n_rows = rng.random_range(60i64..200);
    let partitions = rng.random_range(2usize..8);
    save_rows(
        &ctx,
        &db,
        "elastic_rm",
        0..n_rows,
        partitions,
        &format!("rm_{seed}"),
    );

    let pre_epoch = db.current_epoch();
    let old_version = db.segment_map().version();
    let pre_wire = wire_at(&db, "elastic_rm", pre_epoch);
    let expected: Vec<i64> = (0..n_rows).collect();

    // Pin a V2S relation to the pre-remove epoch and map.
    let pinned = ctx
        .read()
        .format(DEFAULT_SOURCE)
        .option("table", "elastic_rm")
        .option("numPartitions", 4)
        .option("retry_max_attempts", 10)
        .option("retry_deadline_ms", 60_000)
        .load()
        .unwrap_or_else(|e| panic!("seed {seed}: V2S open failed: {e}"));
    assert_eq!(pinned.count().unwrap(), n_rows as u64);

    let victim = rng.random_range(0usize..db.node_count());
    db.faults().arm(
        FaultPlan::seeded(seed)
            .with_rebalance_crash(0.3)
            .with_budget(rng.random_range(1u64..3)),
    );
    if let Err(e) = db.remove_node(victim) {
        assert!(e.is_transient(), "seed {seed}: {e}");
        finish_rebalance(&db, seed);
    }
    db.faults().disarm();

    assert!(db.is_node_retired(victim), "seed {seed}: retired");
    let new_map = db.segment_map();
    assert_eq!(new_map.version(), old_version + 1);
    assert!(!new_map.is_member(victim), "seed {seed}: out of the map");

    // The pinned relation still serves its snapshot: its map routes to
    // the retired node, so pieces fail over to buddies (k=1) or to the
    // new owners holding the verbatim history (k=0).
    let mut loaded: Vec<i64> = pinned
        .collect()
        .unwrap_or_else(|e| panic!("seed {seed}: pinned V2S after flip: {e}"))
        .iter()
        .map(|r| r.get(0).as_i64().unwrap())
        .collect();
    loaded.sort_unstable();
    assert_eq!(loaded, expected, "seed {seed}: pinned V2S snapshot");

    // Session reads: pre-flip epoch = old map + old volume; current
    // epoch = new map, same multiset.
    assert_eq!(db.segment_map_at(pre_epoch).version(), old_version);
    assert_eq!(ids_at(&db, "elastic_rm", pre_epoch), expected);
    assert_eq!(wire_at(&db, "elastic_rm", pre_epoch), pre_wire);
    assert_eq!(ids_at(&db, "elastic_rm", db.current_epoch()), expected);

    // A fresh V2S load plans against the shrunk map.
    let fresh = ctx
        .read()
        .format(DEFAULT_SOURCE)
        .option("table", "elastic_rm")
        .option("retry_max_attempts", 10)
        .option("retry_deadline_ms", 60_000)
        .load()
        .unwrap_or_else(|e| panic!("seed {seed}: fresh V2S open failed: {e}"));
    assert_eq!(fresh.count().unwrap(), n_rows as u64, "seed {seed}: fresh");
}

/// Rolling-upgrade schedule: with a rebalance pending, kill and restore
/// every member in sequence (the classic one-node-at-a-time upgrade),
/// inserting a small batch at each step. Reads must stay available
/// throughout (k=1), and the rebalance must still converge to the exact
/// union multiset.
fn run_rolling_upgrade_schedule(seed: u64) {
    let mut rng = StdRng::seed_from_u64(seed);
    let (ctx, db) = setup(1);
    let n_rows = rng.random_range(60i64..160);
    let partitions = rng.random_range(2usize..6);
    save_rows(
        &ctx,
        &db,
        "elastic_roll",
        0..n_rows,
        partitions,
        &format!("roll_{seed}"),
    );

    let pre_epoch = db.current_epoch();
    let old_version = db.segment_map().version();
    let pre_ids = ids_at(&db, "elastic_roll", pre_epoch);
    let pre_wire = wire_at(&db, "elastic_roll", pre_epoch);

    // Stage a membership change and leave it pending.
    let removing = rng.random_bool(0.4);
    let victim = rng.random_range(0usize..db.node_count());
    db.faults().inject_once(FaultSite::Rebalance);
    let err = if removing {
        db.remove_node(victim).unwrap_err()
    } else {
        db.add_node().unwrap_err()
    };
    assert!(err.is_transient(), "seed {seed}: {err}");
    assert!(db.rebalance_in_progress());

    // Roll through the original members: kill, read, write, restore,
    // nudge the rebalance (it may or may not finish mid-roll).
    let mut next_id = n_rows;
    for node in 0..4usize {
        if removing && node == victim {
            continue; // the leaving node needs no upgrade
        }
        db.kill_node(node);
        let have = ids_at(&db, "elastic_roll", db.current_epoch());
        assert_eq!(
            have.len(),
            next_id as usize,
            "seed {seed}: read with node {node} down"
        );
        let batch = rng.random_range(5i64..20);
        save_rows(
            &ctx,
            &db,
            "elastic_roll",
            next_id..next_id + batch,
            partitions,
            &format!("roll_{seed}_n{node}"),
        );
        next_id += batch;
        db.restore_node(node);
        let _ = db.run_rebalance();
    }

    finish_rebalance(&db, seed);
    let new_map = db.segment_map();
    assert_eq!(new_map.version(), old_version + 1, "seed {seed}: flipped");
    if removing {
        assert!(db.is_node_retired(victim), "seed {seed}: victim retired");
    } else {
        assert_eq!(new_map.node_count(), 5, "seed {seed}: added member");
    }

    // Exactly once across the whole roll: original + every step batch.
    let expected: Vec<i64> = (0..next_id).collect();
    assert_eq!(
        ids_at(&db, "elastic_roll", db.current_epoch()),
        expected,
        "seed {seed}: union multiset after rolling upgrade"
    );
    // The pre-roll epoch still reads the pre-roll snapshot through the
    // old map version — same ids, same wire volume.
    assert_eq!(db.segment_map_at(pre_epoch).version(), old_version);
    assert_eq!(ids_at(&db, "elastic_roll", pre_epoch), pre_ids);
    assert_eq!(
        wire_at(&db, "elastic_roll", pre_epoch),
        pre_wire,
        "seed {seed}: pre-roll wire volume"
    );
}

#[test]
fn chaos_ten_node_add_schedules_are_exactly_once() {
    let _g = lock();
    for seed in 9000..9010 {
        run_add_schedule(seed);
    }
}

#[test]
fn chaos_ten_node_remove_schedules_preserve_pinned_reads() {
    let _g = lock();
    for seed in 9100..9110 {
        run_remove_schedule(seed);
    }
}

#[test]
fn chaos_ten_rolling_upgrade_schedules_converge() {
    let _g = lock();
    for seed in 9200..9210 {
        run_rolling_upgrade_schedule(seed);
    }
}

/// A DIRECT COPY still open when a node add migrates its range lands on
/// the new owner in one container with the rows a later save committed.
/// Aborting the COPY afterwards must take back its rows only: the new
/// owner serves what the old one served.
#[test]
fn aborting_a_migrated_open_load_keeps_the_rows_committed_beside_it() {
    let _g = lock();
    let (ctx, db) = setup(0);
    db.connect(0)
        .unwrap()
        .execute("CREATE TABLE elastic_abort (id BIGINT, x DOUBLE) SEGMENTED BY HASH(id) ALL NODES")
        .unwrap();
    let mut open = db.connect(1).unwrap();
    open.begin().unwrap();
    let pending: Vec<Row> = (1000..1200).map(|i| row![i as i64, i as f64]).collect();
    open.copy(
        "elastic_abort",
        CopySource::Rows(pending),
        CopyOptions::default(),
    )
    .unwrap();
    save_rows(&ctx, &db, "elastic_abort", 0..200, 4, "abort_save");
    let pre_epoch = db.current_epoch();
    let old_owners = ids_at(&db, "elastic_abort", pre_epoch);
    assert_eq!(old_owners, (0..200).collect::<Vec<i64>>());

    db.add_node().unwrap();
    open.rollback().unwrap();

    assert_eq!(
        ids_at(&db, "elastic_abort", pre_epoch),
        old_owners,
        "old owners"
    );
    assert_eq!(
        ids_at(&db, "elastic_abort", db.current_epoch()),
        old_owners,
        "new owners"
    );
}

/// The observability surface of a rebalance: dc_segment_map carries
/// both map versions with the flip epoch, dc_rebalance records the op
/// log, and dc_nodes reflects membership and retirement.
#[test]
fn rebalance_system_tables_reflect_the_flip() {
    let _g = lock();
    let (ctx, db) = setup(0);
    save_rows(&ctx, &db, "elastic_dc", 0..100, 4, "dc_job");
    db.add_node().unwrap();
    db.remove_node(1).unwrap();

    let mut session = db.connect(0).unwrap();
    let maps = session.query(&QuerySpec::scan("dc_segment_map")).unwrap();
    let versions: std::collections::BTreeSet<i64> = maps
        .rows
        .iter()
        .map(|r| r.get(0).as_i64().unwrap())
        .collect();
    assert_eq!(
        versions.into_iter().collect::<Vec<i64>>(),
        vec![0, 1, 2],
        "three map versions in history"
    );

    let ops = session.query(&QuerySpec::scan("dc_rebalance")).unwrap();
    assert!(ops.rows.len() >= 2, "op log has plan/copy/flip entries");

    let nodes = session.query(&QuerySpec::scan("dc_nodes")).unwrap();
    assert_eq!(nodes.rows.len(), 5, "four seed nodes plus the added one");
    // Node 1 is down and retired; the added node 4 is up.
    let row1 = nodes
        .rows
        .iter()
        .find(|r| r.get(0).as_i64().ok() == Some(1))
        .unwrap();
    assert_eq!(row1.get(1).to_string(), "false", "node 1 down");
    assert_eq!(row1.get(2).to_string(), "true", "node 1 retired");
}

/// Static/dynamic lock-graph cross-check over the rebalance paths: one
/// node-add schedule under faults, then every runtime-witnessed
/// lock-order edge must be statically derivable (see tests/common).
#[test]
fn witnessed_lock_edges_are_statically_derivable() {
    let _g = lock();
    run_add_schedule(0x10CD);
    common::assert_witness_subgraph("rebalance");
}
