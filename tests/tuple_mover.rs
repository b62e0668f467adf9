//! Tuple Mover gate: moveout and mergeout must be invisible to every
//! reader at every epoch, mover-created containers must carry the same
//! statistics COPY-created ones do, every operation must surface in
//! `dc_tuple_mover` / `tm.*`, and the background mover thread must run
//! with zero lock-order cycles while DML and scans hammer the table.

use std::sync::Mutex;
use std::time::Duration;

mod common;

use vertica_spark_fabric::prelude::*;
use vertica_spark_fabric::{mppdb, obs};

use mppdb::QuerySpec;

static GATE_LOCK: Mutex<()> = Mutex::new(());

fn lock() -> std::sync::MutexGuard<'static, ()> {
    GATE_LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

/// A cluster whose commit path never auto-moves rows: every moveout in
/// these tests is one this file triggered, so the differential
/// assertions know exactly when storage may change shape.
fn cluster() -> std::sync::Arc<mppdb::Cluster> {
    Cluster::new(ClusterConfig {
        moveout_threshold: usize::MAX,
        ..ClusterConfig::default()
    })
}

/// Trickle `batches` INSERT batches of `per_batch` sequential rows into
/// a fresh `t`, returning the next unused id.
fn trickle(s: &mut Session, batches: usize, per_batch: usize) -> i64 {
    s.execute("CREATE TABLE t (id INT NOT NULL, x FLOAT) SEGMENTED BY HASH(id) ALL NODES")
        .unwrap();
    let mut next = 0i64;
    for _ in 0..batches {
        let values: Vec<String> = (0..per_batch)
            .map(|i| format!("({}, {}.5)", next + i as i64, next + i as i64))
            .collect();
        s.execute(&format!("INSERT INTO t VALUES {}", values.join(", ")))
            .unwrap();
        next += per_batch as i64;
    }
    next
}

/// The core differential: scans — full, filtered, and epoch-pinned —
/// are byte-identical before, between, and after moveout and mergeout,
/// deletes included.
#[test]
fn mover_passes_are_invisible_to_scans_at_every_epoch() {
    let _g = lock();
    let db = cluster();
    let mut s = db.connect(0).unwrap();
    s.execute("CREATE TABLE t (id INT NOT NULL, x FLOAT) SEGMENTED BY HASH(id) ALL NODES")
        .unwrap();
    // Trickle with a moveout between batches: half the rows end up as
    // small same-stratum ROS containers (mergeout's diet), the rest
    // stay in the WOS (moveout's).
    let mut next = 0i64;
    for batch in 0..6 {
        let values: Vec<String> = (0..40)
            .map(|i| format!("({}, {}.5)", next + i as i64, next + i as i64))
            .collect();
        s.execute(&format!("INSERT INTO t VALUES {}", values.join(", ")))
            .unwrap();
        next += 40;
        if batch < 4 {
            // Four same-sized containers: enough for a full
            // same-stratum mergeout run under the default policy.
            assert!(db.moveout_all() > 0, "batch {batch} must drain to ROS");
        }
    }

    // Pin the pre-delete snapshot, then delete a slice of rows spanning
    // both moved containers and the live WOS.
    let pre_delete_epoch = db.current_epoch();
    s.execute("DELETE FROM t WHERE id >= 100 AND id < 140")
        .unwrap();

    let probes = |db: &std::sync::Arc<mppdb::Cluster>| {
        let mut s = db.connect(0).unwrap();
        [
            QuerySpec::scan("t"),
            QuerySpec::scan("t").filter(Expr::col("id").lt(Expr::lit(60i64))),
            QuerySpec::scan("t").at_epoch(pre_delete_epoch),
        ]
        .map(|spec| s.query(&spec).unwrap())
    };
    let baseline = probes(&db);
    assert_eq!(baseline[0].rows.len(), 200, "240 inserted minus 40 deleted");
    assert_eq!(
        baseline[2].rows.len(),
        240,
        "pinned epoch predates the delete"
    );

    // Interleave moveout and mergeout, probing after every step. Each
    // pass may reshape storage (WOS drained, containers rewritten), but
    // no reader at any epoch may see rows, order, or bytes change.
    for step in 0..4 {
        if step % 2 == 0 {
            db.moveout_all();
        } else {
            db.mergeout_all();
        }
        let now = probes(&db);
        for (i, (before, after)) in baseline.iter().zip(&now).enumerate() {
            assert_eq!(before.rows, after.rows, "step {step}, probe {i}: rows");
            assert_eq!(
                before.wire_bytes(),
                after.wire_bytes(),
                "step {step}, probe {i}: wire volume"
            );
        }
    }

    // The mover actually did something — this differential is not
    // vacuously passing over a WOS-only table.
    let ops = db.mover_ops();
    assert!(
        ops.iter().any(|o| o.op == "moveout"),
        "no moveout ran: {ops:?}"
    );
    assert!(
        ops.iter().any(|o| o.op == "mergeout"),
        "no mergeout ran: {ops:?}"
    );
}

/// Mergeout's compaction policy: trickled WOS batches moved out one by
/// one leave a trail of small same-stratum containers; one mergeout
/// collapses them and scans still see every row exactly once.
#[test]
fn mergeout_compacts_trickle_containers() {
    let _g = lock();
    let db = cluster();
    let mut s = db.connect(0).unwrap();
    s.execute("CREATE TABLE t (id INT NOT NULL, x FLOAT) SEGMENTED BY HASH(id) ALL NODES")
        .unwrap();
    // Move out after every batch: one small ROS container per batch.
    let mut next = 0i64;
    for _ in 0..8 {
        let values: Vec<String> = (0..32).map(|i| format!("({}, 0.25)", next + i)).collect();
        s.execute(&format!("INSERT INTO t VALUES {}", values.join(", ")))
            .unwrap();
        next += 32;
        assert!(db.moveout_all() > 0, "each batch must drain to ROS");
    }

    let containers = |db: &std::sync::Arc<mppdb::Cluster>| {
        let mut s = db.connect(0).unwrap();
        let rows = s
            .execute("SELECT * FROM dc_column_stats")
            .unwrap()
            .rows()
            .unwrap();
        // Distinct (node, container) pairs for table t.
        let mut ids: Vec<(i64, i64)> = rows
            .rows
            .iter()
            .filter(|r| r.get(1) == &Value::Varchar("t".into()))
            .map(|r| (r.get(0).as_i64().unwrap(), r.get(2).as_i64().unwrap()))
            .collect();
        ids.sort_unstable();
        ids.dedup();
        ids.len()
    };
    let before = containers(&db);
    let merged = db.mergeout_all();
    assert!(merged > 0, "mergeout must rewrite the trickle containers");
    let after = containers(&db);
    assert!(
        after < before,
        "mergeout must shrink the container count ({before} -> {after})"
    );

    let mut ids: Vec<i64> = s
        .query(&QuerySpec::scan("t"))
        .unwrap()
        .rows
        .iter()
        .map(|r| r.get(0).as_i64().unwrap())
        .collect();
    ids.sort_unstable();
    assert_eq!(ids, (0..next).collect::<Vec<_>>(), "every row exactly once");
}

/// The stats-parity fix: a moveout-created ROS container must carry
/// per-column statistics through the same build path COPY DIRECT uses —
/// row counts, null counts, NDV, and zone-map endpoints all present in
/// `dc_column_stats`.
#[test]
fn moveout_containers_carry_copy_grade_column_stats() {
    let _g = lock();
    let db = cluster();
    let mut s = db.connect(0).unwrap();
    trickle(&mut s, 1, 50);
    assert!(db.moveout_all() > 0);

    let stats = s
        .execute("SELECT * FROM dc_column_stats")
        .unwrap()
        .rows()
        .unwrap();
    // Schema: node, table_name, container_id, column_idx, encoding,
    // row_count, null_count, ndv, min, max.
    let t_rows: Vec<_> = stats
        .rows
        .iter()
        .filter(|r| r.get(1) == &Value::Varchar("t".into()))
        .collect();
    assert!(
        !t_rows.is_empty(),
        "moved containers must appear in dc_column_stats"
    );
    let mut id_col_min = i64::MAX;
    let mut id_col_max = i64::MIN;
    let mut rows_seen = 0;
    for r in &t_rows {
        assert!(r.get(5).as_i64().unwrap() > 0, "row_count present");
        assert_eq!(r.get(6).as_i64().unwrap(), 0, "no nulls inserted");
        assert!(r.get(7).as_i64().unwrap() > 0, "ndv present");
        if r.get(3).as_i64().unwrap() == 0 {
            // The id column: zone-map endpoints are real values, and the
            // per-node ranges must tile 0..50.
            rows_seen += r.get(5).as_i64().unwrap();
            let min: i64 = r.get(8).as_str().unwrap().parse().unwrap();
            let max: i64 = r.get(9).as_str().unwrap().parse().unwrap();
            assert!(min <= max);
            id_col_min = id_col_min.min(min);
            id_col_max = id_col_max.max(max);
        }
    }
    assert_eq!(rows_seen, 50, "every moved row is covered by a container");
    assert_eq!((id_col_min, id_col_max), (0, 49), "zone maps span the data");
}

/// Every mover operation surfaces in the `dc_tuple_mover` system table
/// with consistent fields, and the `tm.*` counters move with it.
#[test]
fn dc_tuple_mover_and_counters_record_operations() {
    let _g = lock();
    let db = cluster();
    let before = obs::global().snapshot();
    let mut s = db.connect(0).unwrap();
    trickle(&mut s, 4, 32);
    let moved = db.moveout_all();
    assert!(moved > 0);
    let report = db.mover_pass();
    assert!(
        !report.crashed && report.sheds == 0,
        "clean pass: {report:?}"
    );

    let rows = s
        .execute("SELECT * FROM dc_tuple_mover")
        .unwrap()
        .rows()
        .unwrap();
    // Schema: seq, op, node, table_name, rows, containers_in,
    // containers_out, epoch, dur_us.
    assert!(!rows.rows.is_empty(), "mover ops must be queryable");
    let mut seqs = Vec::new();
    let mut moveout_rows = 0i64;
    for r in &rows.rows {
        seqs.push(r.get(0).as_i64().unwrap());
        let op = r.get(1).as_str().unwrap();
        assert!(op == "moveout" || op == "mergeout", "op {op}");
        if op == "moveout" && r.get(3) == &Value::Varchar("t".into()) {
            moveout_rows += r.get(4).as_i64().unwrap();
            assert_eq!(r.get(5).as_i64().unwrap(), 0, "moveout consumes the WOS");
            assert_eq!(r.get(6).as_i64().unwrap(), 1, "moveout emits one container");
        }
    }
    assert_eq!(
        moveout_rows as usize, moved,
        "op log rows match moveout_all"
    );
    let mut sorted = seqs.clone();
    sorted.sort_unstable();
    sorted.dedup();
    assert_eq!(seqs, sorted, "seq is monotonic and unique");

    let delta = obs::global().snapshot().counters_since(&before);
    assert_eq!(
        delta.get("tm.rows_moved").copied().unwrap_or(0),
        moved as u64,
        "tm.rows_moved: {delta:?}"
    );
    assert!(
        delta.get("tm.moveout_runs").copied().unwrap_or(0) >= 1,
        "tm.moveout_runs: {delta:?}"
    );
}

/// The deadlock gate with the mover in play: a background mover thread
/// ticking at full speed while a writer inserts, deletes, and scans
/// must finish with the lock-order witness reporting zero cycles, and
/// the data exactly once. This pins the mover's lock discipline (table
/// lock shared, stores.write() after, release before op-log) against
/// every lock the DML path takes.
#[test]
fn background_mover_with_concurrent_dml_has_zero_lock_cycles() {
    let _g = lock();
    let db = cluster();
    let mut s = db.connect(0).unwrap();
    s.execute("CREATE TABLE t (id INT NOT NULL, x FLOAT) SEGMENTED BY HASH(id) ALL NODES")
        .unwrap();

    db.start_mover(Duration::from_millis(1));
    let mut next = 0i64;
    for round in 0..30 {
        let values: Vec<String> = (0..16).map(|i| format!("({}, 1.0)", next + i)).collect();
        s.execute(&format!("INSERT INTO t VALUES {}", values.join(", ")))
            .unwrap();
        next += 16;
        if round % 5 == 4 {
            // Deletes take the exclusive table lock the mover's shared
            // lock must coexist with.
            s.execute(&format!("DELETE FROM t WHERE id = {}", next - 1))
                .unwrap();
        }
        let count = s.query(&QuerySpec::scan("t").count()).unwrap().count;
        assert_eq!(count, next as u64 - (round as u64 + 1) / 5, "round {round}");
        std::thread::sleep(Duration::from_millis(1));
    }
    db.stop_mover();

    // Exactly once, whatever the mover got up to in the background.
    let deleted: Vec<i64> = (0..30 / 5).map(|k| (k + 1) * 5 * 16 - 1).collect();
    let mut ids: Vec<i64> = s
        .query(&QuerySpec::scan("t"))
        .unwrap()
        .rows
        .iter()
        .map(|r| r.get(0).as_i64().unwrap())
        .collect();
    ids.sort_unstable();
    let expected: Vec<i64> = (0..next).filter(|i| !deleted.contains(i)).collect();
    assert_eq!(ids, expected);

    if vertica_spark_fabric::parking_lot::witness::active() {
        use vertica_spark_fabric::parking_lot::witness;
        assert_eq!(
            witness::inversion_count(),
            0,
            "mover + DML took locks against their rank: {:?}",
            witness::snapshot().inversions
        );
    }
}

/// Static/dynamic lock-graph cross-check over the tuple-mover paths:
/// trickle, moveout, and mergeout, then every runtime-witnessed
/// lock-order edge must be statically derivable (see tests/common).
#[test]
fn witnessed_lock_edges_are_statically_derivable() {
    let _g = lock();
    let db = cluster();
    let mut s = db.connect(0).unwrap();
    trickle(&mut s, 4, 40);
    db.moveout_all();
    db.mergeout_all();
    common::assert_witness_subgraph("tuple_mover");
}
