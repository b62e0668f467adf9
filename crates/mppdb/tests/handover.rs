//! The hand-over primitive (`Session::insert_from_table`): a target
//! table adopts a source table's storage containers instead of copying
//! rows.
//!
//! Everything here compares against the path it replaced — scan the
//! source into rows, `insert` them — on a second, identically seeded
//! cluster, at every epoch, and checks that an abort, a node failure or
//! a pending rebalance leaves no trace of the sharing.

use std::sync::Arc;

use common::{row, Row};
use mppdb::fault::FaultSite;
use mppdb::storage::StorageStats;
use mppdb::{Cluster, ClusterConfig, CopyOptions, CopySource, QuerySpec, Session};

/// The decode assertions read process-wide counters, so the tests of
/// this file take turns.
fn serial() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

fn cluster(k_safety: usize) -> Arc<Cluster> {
    Cluster::new(ClusterConfig {
        node_count: 4,
        k_safety,
        ..ClusterConfig::default()
    })
}

fn rows(ids: std::ops::Range<i64>) -> Vec<Row> {
    ids.map(|i| row![i, format!("g{}", i % 5), i as f64 / 4.0])
        .collect()
}

fn copy_direct(s: &mut Session, table: &str, ids: std::ops::Range<i64>) {
    s.copy(table, CopySource::Rows(rows(ids)), CopyOptions::default())
        .unwrap();
}

/// What the source table holds before the hand-over.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Shape {
    RosOnly,
    WosOnly,
    Mixed,
    /// Mixed, then some rows of both stores deleted.
    Deleted,
    /// Mixed, with another transaction's uncommitted ROS and WOS rows
    /// present while the hand-over runs.
    OtherPending,
}

const SHAPES: [Shape; 5] = [
    Shape::RosOnly,
    Shape::WosOnly,
    Shape::Mixed,
    Shape::Deleted,
    Shape::OtherPending,
];

/// `src` in the given shape and `dst` holding 60 older rows (half ROS,
/// half WOS), segmented or replicated alike. Returns the session whose
/// open transaction holds the `OtherPending` rows, to be kept alive.
fn seed(db: &Arc<Cluster>, shape: Shape, segmentation: &str) -> Option<Session> {
    let mut s = db.connect(0).unwrap();
    for t in ["src", "dst"] {
        s.execute(&format!(
            "CREATE TABLE {t} (id BIGINT, grp VARCHAR, val DOUBLE) {segmentation}"
        ))
        .unwrap();
    }
    copy_direct(&mut s, "dst", 1000..1030);
    s.insert("dst", rows(1030..1060)).unwrap();
    if shape != Shape::WosOnly {
        copy_direct(&mut s, "src", 0..120);
        copy_direct(&mut s, "src", 120..200);
    }
    if shape != Shape::RosOnly {
        s.insert("src", rows(200..260)).unwrap();
    }
    if shape == Shape::Deleted {
        s.execute("DELETE FROM src WHERE id < 40").unwrap();
        s.execute("DELETE FROM src WHERE id >= 240").unwrap();
    }
    if shape != Shape::OtherPending {
        return None;
    }
    let mut other = db.connect(1).unwrap();
    other.begin().unwrap();
    copy_direct(&mut other, "src", 5000..5040);
    other.insert("src", rows(5040..5060)).unwrap();
    Some(other)
}

/// Every row of `table` visible at `epoch`, sorted by id.
fn contents(db: &Arc<Cluster>, table: &str, epoch: u64) -> Vec<Row> {
    let node = db.up_nodes()[0];
    let mut s = db.connect(node).unwrap();
    let mut rows = s
        .query(&QuerySpec::scan(table).at_epoch(epoch))
        .unwrap()
        .rows;
    rows.sort_by_key(|r| r.get(0).as_i64().unwrap());
    rows
}

fn history(db: &Arc<Cluster>, table: &str) -> Vec<Vec<Row>> {
    (0..=db.current_epoch())
        .map(|e| contents(db, table, e))
        .collect()
}

/// The overwrite as phase 5 runs it now.
fn overwrite_by_hand_over(s: &mut Session) -> u64 {
    s.begin().unwrap();
    s.execute("DELETE FROM dst").unwrap();
    let n = s.insert_from_table("dst", "src").unwrap();
    s.commit().unwrap();
    n
}

/// The overwrite as phase 5 ran it before: scan, delete, insert.
fn overwrite_by_copy(s: &mut Session) -> u64 {
    let staged = s.query(&QuerySpec::scan("src")).unwrap().rows;
    s.begin().unwrap();
    s.execute("DELETE FROM dst").unwrap();
    let n = s.insert("dst", staged).unwrap();
    s.commit().unwrap();
    n
}

#[test]
fn hand_over_equals_scan_and_insert_at_every_epoch() {
    let _serial = serial();
    for segmentation in ["SEGMENTED BY HASH(id) ALL NODES", "UNSEGMENTED ALL NODES"] {
        for k in [0, 1] {
            for shape in SHAPES {
                let what = format!("{shape:?}, k={k}, {segmentation}");
                let (new, old) = (cluster(k), cluster(k));
                let held_new = seed(&new, shape, segmentation);
                let held_old = seed(&old, shape, segmentation);
                let moved = overwrite_by_hand_over(&mut new.connect(2).unwrap());
                let copied = overwrite_by_copy(&mut old.connect(2).unwrap());
                assert_eq!(moved, copied, "{what}: rows reported");
                assert_eq!(new.current_epoch(), old.current_epoch(), "{what}");
                assert_eq!(history(&new, "dst"), history(&old, "dst"), "{what}: dst");
                assert_eq!(history(&new, "src"), history(&old, "src"), "{what}: src");
                // A later change to either table does not show in the
                // other: the payload is shared, visibility is not.
                drop((held_new, held_old));
                let mut s = new.connect(3).unwrap();
                let before = contents(&new, "src", new.current_epoch());
                s.execute("DELETE FROM dst WHERE id < 100").unwrap();
                assert_eq!(contents(&new, "src", new.current_epoch()), before, "{what}");
                let kept = contents(&new, "dst", new.current_epoch());
                s.execute("DELETE FROM src").unwrap();
                assert_eq!(contents(&new, "dst", new.current_epoch()), kept, "{what}");
            }
        }
    }
}

#[test]
fn segmented_ros_rows_change_hands_without_being_decoded() {
    let _serial = serial();
    let db = cluster(0);
    seed(&db, Shape::RosOnly, "SEGMENTED BY HASH(id) ALL NODES");
    let before = obs::global().snapshot();
    let mut s = db.connect(0).unwrap();
    s.begin().unwrap();
    s.execute("DELETE FROM dst").unwrap();
    s.insert_from_table("dst", "src").unwrap();
    s.commit().unwrap();
    let delta = obs::global().snapshot().counters_since(&before);
    assert_eq!(
        delta.get("scan.values_decoded").copied().unwrap_or(0),
        0,
        "neither the unconditional delete nor the hand-over decodes a value"
    );
    // The adopted containers are ROS: nothing went through the WOS, so
    // no moveout is owed.
    let stats = db.table_stats("dst").unwrap();
    assert_eq!(stats.iter().map(|s| s.ros_rows).sum::<usize>(), 30 + 200);
    assert_eq!(stats.iter().map(|s| s.wos_rows).sum::<usize>(), 30);
}

#[test]
fn predicate_delete_decodes_the_predicate_column_and_unconditional_delete_nothing() {
    let _serial = serial();
    let db = cluster(0);
    seed(&db, Shape::Mixed, "SEGMENTED BY HASH(id) ALL NODES");
    let decoded_by = |sql: &str| {
        let before = obs::global().snapshot();
        let n = db
            .connect(0)
            .unwrap()
            .execute(sql)
            .unwrap()
            .affected()
            .unwrap();
        let delta = obs::global().snapshot().counters_since(&before);
        (n, delta.get("scan.values_decoded").copied().unwrap_or(0))
    };
    let (n, decoded) = decoded_by("DELETE FROM src WHERE id < 50");
    assert_eq!(n, 50);
    assert_eq!(
        decoded, 120,
        "the id column of the 0..120 load; zone maps skip the 120..200 one"
    );
    let (n, decoded) = decoded_by("DELETE FROM src");
    assert_eq!(n, 210);
    assert_eq!(decoded, 0);
}

fn physical(db: &Arc<Cluster>) -> Vec<Vec<StorageStats>> {
    ["src", "dst"]
        .iter()
        .map(|t| db.table_stats(t).unwrap())
        .collect()
}

#[test]
fn rollback_leaves_both_tables_as_they_were_and_a_second_attempt_commits() {
    let _serial = serial();
    for shape in SHAPES {
        let db = cluster(1);
        let _held = seed(&db, shape, "SEGMENTED BY HASH(id) ALL NODES");
        let epoch = db.current_epoch();
        let (stats, src, dst) = (physical(&db), history(&db, "src"), history(&db, "dst"));

        let mut s = db.connect(1).unwrap();
        s.begin().unwrap();
        s.execute("DELETE FROM dst").unwrap();
        let staged = s.insert_from_table("dst", "src").unwrap();
        // Read-your-writes inside the transaction: the target already
        // shows the source's rows.
        assert_eq!(
            s.query(&QuerySpec::scan("dst").count()).unwrap().count,
            staged
        );
        s.rollback().unwrap();

        assert_eq!(db.current_epoch(), epoch, "{shape:?}");
        assert_eq!(physical(&db), stats, "{shape:?}: containers, rows, bytes");
        assert_eq!(history(&db, "src"), src, "{shape:?}");
        assert_eq!(history(&db, "dst"), dst, "{shape:?}");

        // The retry commits, and a dropped session aborts like rollback.
        assert_eq!(overwrite_by_hand_over(&mut s), staged, "{shape:?}");
        assert_eq!(
            contents(&db, "dst", db.current_epoch()),
            contents(&db, "src", db.current_epoch()),
            "{shape:?}"
        );
        assert_eq!(
            contents(&db, "dst", epoch),
            dst[epoch as usize],
            "{shape:?}"
        );
    }
}

#[test]
fn a_rebalance_begun_after_the_load_takes_the_routed_path_and_loses_nothing() {
    let _serial = serial();
    let db = cluster(0);
    seed(&db, Shape::Mixed, "SEGMENTED BY HASH(id) ALL NODES");
    // Leave an add-node rebalance pending between the load and the
    // hand-over: planned, one migration copied, not flipped.
    db.faults().inject_once(FaultSite::Rebalance);
    assert!(db.add_node().unwrap_err().is_transient());
    assert!(db.rebalance_in_progress());

    let expect = contents(&db, "src", db.current_epoch());
    overwrite_by_hand_over(&mut db.connect(0).unwrap());
    // Routed: the rows went through `insert_rows`, which lands them in
    // the WOS and dual-writes the new node's share.
    let stats = db.table_stats("dst").unwrap();
    assert_eq!(
        stats[..4].iter().map(|s| s.wos_rows).sum::<usize>(),
        30 + 260
    );
    assert!(stats[4].wos_rows > 0, "dual-written to the pending owner");
    assert_eq!(contents(&db, "dst", db.current_epoch()), expect);

    db.run_rebalance().unwrap();
    assert_eq!(db.segment_map().version(), 1);
    assert_eq!(contents(&db, "dst", db.current_epoch()), expect);

    // A source created under the old map keeps the routed path after the
    // flip too; one created under the new map is adopted in place.
    let mut s = db.connect(0).unwrap();
    s.execute(
        "CREATE TABLE src2 (id BIGINT, grp VARCHAR, val DOUBLE) SEGMENTED BY HASH(id) ALL NODES",
    )
    .unwrap();
    copy_direct(&mut s, "src2", 0..100);
    s.begin().unwrap();
    s.execute("DELETE FROM dst").unwrap();
    s.insert_from_table("dst", "src2").unwrap();
    s.commit().unwrap();
    let adopted: usize = db
        .table_stats("dst")
        .unwrap()
        .iter()
        .map(|s| s.ros_containers)
        .sum();
    assert!(adopted >= 5, "one adopted container per member: {adopted}");
    assert_eq!(contents(&db, "dst", db.current_epoch()), rows(0..100));
}

#[test]
fn a_node_down_at_the_hand_over_is_rebuilt_with_the_new_contents() {
    let _serial = serial();
    let db = cluster(1);
    seed(&db, Shape::Mixed, "SEGMENTED BY HASH(id) ALL NODES");
    let old = contents(&db, "dst", db.current_epoch());
    let pre_epoch = db.current_epoch();
    let expect = contents(&db, "src", db.current_epoch());

    db.kill_node(2);
    overwrite_by_hand_over(&mut db.connect(0).unwrap());
    assert_eq!(contents(&db, "dst", db.current_epoch()), expect);
    db.restore_node(2);
    // Force every segment node 2 holds to be served by node 2.
    db.kill_node(1);
    db.kill_node(3);
    assert_eq!(contents(&db, "dst", db.current_epoch()), expect);
    assert_eq!(contents(&db, "dst", pre_epoch), old, "pinned readers");

    // Without replication a down member fails the statement instead.
    let db = cluster(0);
    seed(&db, Shape::RosOnly, "SEGMENTED BY HASH(id) ALL NODES");
    db.kill_node(2);
    let mut s = db.connect(0).unwrap();
    assert!(s.insert_from_table("dst", "src").is_err());
}

/// An S2V save whose phase 1 staged its rows under the old segment map
/// and whose phase 5 commits them after a rebalance flipped to a new
/// one. The staging table is temp; it migrates with its target, so the
/// staged rows the new node now owns are read there and none is lost.
#[test]
fn rows_staged_before_a_rebalance_flip_reach_the_target_in_both_save_modes() {
    let _serial = serial();
    let (mut read, mut want) = (Vec::new(), Vec::new());
    for k in [0, 1] {
        for overwrite in [false, true] {
            let what = format!("k={k}, overwrite={overwrite}");
            let db = cluster(k);
            let mut s = db.connect(0).unwrap();
            for (t, temp) in [("dst", ""), ("stg", "TEMP ")] {
                s.execute(&format!(
                    "CREATE {temp}TABLE {t} (id BIGINT, grp VARCHAR, val DOUBLE) \
                     SEGMENTED BY HASH(id) ALL NODES"
                ))
                .unwrap();
            }
            s.insert("dst", rows(0..100)).unwrap();
            copy_direct(&mut s, "stg", 100..500);
            db.add_node().unwrap();

            let mut s = db.connect(0).unwrap();
            s.begin().unwrap();
            if overwrite {
                s.execute("DELETE FROM dst").unwrap();
            }
            s.insert_from_table("dst", "stg").unwrap();
            s.commit().unwrap();
            let expect = if overwrite {
                rows(100..500)
            } else {
                rows(0..500)
            };
            read.push((what.clone(), contents(&db, "dst", db.current_epoch())));
            want.push((what, expect));
        }
    }
    let counts = |cells: &[(String, Vec<Row>)]| -> Vec<(String, usize)> {
        cells.iter().map(|(w, r)| (w.clone(), r.len())).collect()
    };
    assert_eq!(counts(&read), counts(&want));
    assert_eq!(read, want);
}
