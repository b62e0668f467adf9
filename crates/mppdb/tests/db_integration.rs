//! End-to-end database tests: SQL, epoch snapshots, views with joins
//! and aggregates, k-safety failover, and the conditional-update
//! pattern S2V builds on.

use std::sync::Arc;

use common::agg::{AggCall, AggFunc, AggRequest};
use common::{row, Value};
use mppdb::{Cluster, ClusterConfig, DbError, QuerySpec};

fn cluster() -> Arc<Cluster> {
    Cluster::new(ClusterConfig::default())
}

#[test]
fn sql_end_to_end() {
    let c = cluster();
    let mut s = c.connect(0).unwrap();
    s.execute(
        "CREATE TABLE users (id INT NOT NULL, name VARCHAR, score FLOAT) \
         SEGMENTED BY HASH(id) ALL NODES",
    )
    .unwrap();
    s.execute("INSERT INTO users VALUES (1, 'alice', 9.5), (2, 'bob', 7.25), (3, 'carol', 8.0)")
        .unwrap();

    let r = s
        .execute("SELECT name FROM users WHERE score > 7.5 LIMIT 10")
        .unwrap()
        .rows()
        .unwrap();
    let mut names: Vec<String> = r
        .rows
        .iter()
        .map(|row| row.get(0).as_str().unwrap().to_string())
        .collect();
    names.sort();
    assert_eq!(names, vec!["alice", "carol"]);

    let r = s
        .execute("SELECT COUNT(*) FROM users")
        .unwrap()
        .rows()
        .unwrap();
    assert_eq!(r.rows[0].get(0), &Value::Int64(3));

    s.execute("UPDATE users SET score = score + 1 WHERE name = 'bob'")
        .unwrap();
    let r = s
        .execute("SELECT score FROM users WHERE name = 'bob'")
        .unwrap()
        .rows()
        .unwrap();
    assert_eq!(r.rows[0].get(0), &Value::Float64(8.25));

    let n = s
        .execute("DELETE FROM users WHERE id = 1")
        .unwrap()
        .affected()
        .unwrap();
    assert_eq!(n, 1);
    let r = s
        .execute("SELECT COUNT(*) FROM users")
        .unwrap()
        .rows()
        .unwrap();
    assert_eq!(r.rows[0].get(0), &Value::Int64(2));

    // SQL and pushed-down aggregates share one accumulator: an
    // overflowing integer SUM wraps the same way on both paths.
    s.execute("CREATE TABLE big (v INT)").unwrap();
    s.execute("INSERT INTO big VALUES (9223372036854775807), (1)")
        .unwrap();
    let sql = s.execute("SELECT SUM(v) FROM big").unwrap().rows().unwrap();
    let pushed = s
        .query(
            &QuerySpec::scan("big")
                .aggregate(AggRequest::new(&[], vec![AggCall::new(AggFunc::Sum, "v")])),
        )
        .unwrap();
    assert_eq!(sql.rows, pushed.rows);
    assert_eq!(sql.rows[0].get(0), &Value::Int64(i64::MIN));
}

#[test]
fn epoch_snapshots_are_stable_under_updates() {
    let c = cluster();
    let mut s = c.connect(1).unwrap();
    s.execute("CREATE TABLE t (id INT, v FLOAT)").unwrap();
    s.execute("INSERT INTO t VALUES (1, 1.0), (2, 2.0)")
        .unwrap();
    let e1 = c.current_epoch();

    s.execute("INSERT INTO t VALUES (3, 3.0)").unwrap();
    s.execute("DELETE FROM t WHERE id = 1").unwrap();
    let e2 = c.current_epoch();
    assert!(e2 > e1);

    // AT EPOCH e1 sees the original two rows.
    let r = s
        .execute(&format!("AT EPOCH {e1} SELECT COUNT(*) FROM t"))
        .unwrap()
        .rows()
        .unwrap();
    assert_eq!(r.rows[0].get(0), &Value::Int64(2));

    // Latest sees two rows as well (one added, one deleted), but not
    // the same ones.
    let r = s
        .execute("AT EPOCH LATEST SELECT id FROM t")
        .unwrap()
        .rows()
        .unwrap();
    let mut ids: Vec<i64> = r.rows.iter().map(|x| x.get(0).as_i64().unwrap()).collect();
    ids.sort();
    assert_eq!(ids, vec![2, 3]);

    // A future epoch is an error.
    let err = s
        .execute(&format!("AT EPOCH {} SELECT * FROM t", e2 + 10))
        .unwrap_err();
    assert!(matches!(err, DbError::BadEpoch { .. }));
}

#[test]
fn views_push_joins_and_aggregates_below_the_client() {
    let c = cluster();
    let mut s = c.connect(0).unwrap();
    s.execute("CREATE TABLE orders (oid INT, uid INT, amount FLOAT)")
        .unwrap();
    s.execute("CREATE TABLE users (uid INT, name VARCHAR)")
        .unwrap();
    s.execute("INSERT INTO users VALUES (1, 'alice'), (2, 'bob')")
        .unwrap();
    s.execute("INSERT INTO orders VALUES (10, 1, 5.0), (11, 1, 7.0), (12, 2, 1.5)")
        .unwrap();
    s.execute(
        "CREATE VIEW user_totals AS SELECT u.name AS name, SUM(o.amount) AS total \
         FROM orders o JOIN users u ON o.uid = u.uid GROUP BY u.name",
    )
    .unwrap();

    // Through SQL.
    let r = s
        .execute("SELECT name, total FROM user_totals WHERE total > 2")
        .unwrap()
        .rows()
        .unwrap();
    let mut pairs: Vec<(String, f64)> = r
        .rows
        .iter()
        .map(|row| {
            (
                row.get(0).as_str().unwrap().to_string(),
                row.get(1).as_f64().unwrap(),
            )
        })
        .collect();
    pairs.sort_by(|a, b| a.0.cmp(&b.0));
    assert_eq!(pairs, vec![("alice".to_string(), 12.0)]);

    // Through the programmatic API with a synthetic row range — the
    // V2S view-loading path.
    let all = s.query(&QuerySpec::scan("user_totals")).unwrap();
    assert_eq!(all.rows.len(), 2);
    let first = s
        .query(&QuerySpec::scan("user_totals").with_row_range(0, 1))
        .unwrap();
    let second = s
        .query(&QuerySpec::scan("user_totals").with_row_range(1, 2))
        .unwrap();
    assert_eq!(first.rows.len() + second.rows.len(), 2);
    assert_ne!(first.rows[0], second.rows[0]);
}

#[test]
fn k_safety_failover_serves_all_segments() {
    let c = Cluster::new(ClusterConfig {
        k_safety: 1,
        ..ClusterConfig::default()
    });
    let mut s = c.connect(0).unwrap();
    s.execute("CREATE TABLE t (id INT, v FLOAT) SEGMENTED BY HASH(id) ALL NODES")
        .unwrap();
    let rows: Vec<common::Row> = (0..400).map(|i| row![i as i64, i as f64]).collect();
    s.insert("t", rows).unwrap();

    let before = s.query(&QuerySpec::scan("t").count()).unwrap();
    assert_eq!(before.count, 400);

    // Down a node that is not the session's; its segment fails over to
    // the buddy.
    c.kill_node(2);
    let after = s.query(&QuerySpec::scan("t").count()).unwrap();
    assert_eq!(after.count, 400, "buddy replica must serve segment 2");

    // With k=0 the same scenario errors.
    let c0 = cluster();
    let mut s0 = c0.connect(0).unwrap();
    s0.execute("CREATE TABLE t (id INT, v FLOAT)").unwrap();
    s0.insert("t", (0..50).map(|i| row![i as i64, 0.0f64]).collect())
        .unwrap();
    c0.kill_node(2);
    let err = s0.query(&QuerySpec::scan("t").count()).unwrap_err();
    assert!(matches!(err, DbError::DataUnavailable { segment: 2 }));
}

#[test]
fn conditional_update_race_elects_exactly_one_winner() {
    // The S2V phase-3 pattern: many transactions race to claim a slot
    // with "read, check empty, write, commit"; table locks must admit
    // exactly one.
    let c = cluster();
    {
        let mut s = c.connect(0).unwrap();
        s.execute("CREATE TABLE last_committer (winner INT) UNSEGMENTED ALL NODES")
            .unwrap();
    }
    let winners = std::sync::Mutex::new(Vec::new());
    std::thread::scope(|scope| {
        for contender in 0..8i64 {
            let c = Arc::clone(&c);
            let winners = &winners;
            scope.spawn(move || {
                let node = (contender as usize) % c.node_count();
                let mut s = c.connect(node).unwrap();
                s.begin().unwrap();
                let r = s
                    .execute("SELECT COUNT(*) FROM last_committer")
                    .unwrap()
                    .rows()
                    .unwrap();
                let empty = r.rows[0].get(0) == &Value::Int64(0);
                if empty {
                    s.execute(&format!("INSERT INTO last_committer VALUES ({contender})"))
                        .unwrap();
                    s.commit().unwrap();
                    winners.lock().unwrap().push(contender);
                } else {
                    s.rollback().unwrap();
                }
            });
        }
    });
    assert_eq!(winners.lock().unwrap().len(), 1, "exactly one winner");
    let mut s = c.connect(0).unwrap();
    let r = s
        .execute("SELECT COUNT(*) FROM last_committer")
        .unwrap()
        .rows()
        .unwrap();
    assert_eq!(r.rows[0].get(0), &Value::Int64(1));
}

#[test]
fn dropped_session_aborts_open_transaction() {
    let c = cluster();
    {
        let mut s = c.connect(0).unwrap();
        s.execute("CREATE TABLE t (id INT)").unwrap();
    }
    {
        let mut s = c.connect(0).unwrap();
        s.begin().unwrap();
        s.execute("INSERT INTO t VALUES (1)").unwrap();
        // Session dropped mid-transaction: the task died.
    }
    let mut s = c.connect(1).unwrap();
    let r = s.execute("SELECT COUNT(*) FROM t").unwrap().rows().unwrap();
    assert_eq!(r.rows[0].get(0), &Value::Int64(0));
}

#[test]
fn snapshot_reads_do_not_block_on_writers() {
    let c = cluster();
    let mut writer = c.connect(0).unwrap();
    writer.execute("CREATE TABLE t (id INT)").unwrap();
    writer.execute("INSERT INTO t VALUES (1)").unwrap();

    writer.begin().unwrap();
    writer.execute("INSERT INTO t VALUES (2)").unwrap();
    // While the writer holds the lock, an auto-commit reader proceeds
    // and sees only committed data.
    let mut reader = c.connect(1).unwrap();
    let r = reader
        .execute("SELECT COUNT(*) FROM t")
        .unwrap()
        .rows()
        .unwrap();
    assert_eq!(r.rows[0].get(0), &Value::Int64(1));
    writer.commit().unwrap();
    let r = reader
        .execute("SELECT COUNT(*) FROM t")
        .unwrap()
        .rows()
        .unwrap();
    assert_eq!(r.rows[0].get(0), &Value::Int64(2));
}

#[test]
fn unsegmented_tables_replicate_and_serve_locally() {
    let c = cluster();
    let mut s = c.connect(0).unwrap();
    s.execute("CREATE TABLE dim (id INT, label VARCHAR) UNSEGMENTED ALL NODES")
        .unwrap();
    s.execute("INSERT INTO dim VALUES (1, 'x'), (2, 'y'), (3, 'z')")
        .unwrap();
    // Every node serves the same data with identical stable order.
    let mut orders = Vec::new();
    for node in 0..c.node_count() {
        let mut sn = c.connect(node).unwrap();
        let r = sn.query(&QuerySpec::scan("dim")).unwrap();
        orders.push(r.rows);
    }
    for o in &orders[1..] {
        assert_eq!(o, &orders[0]);
    }
    // Synthetic row ranges split without overlap.
    let mut sn = c.connect(2).unwrap();
    let a = sn
        .query(&QuerySpec::scan("dim").with_row_range(0, 2))
        .unwrap();
    let b = sn
        .query(&QuerySpec::scan("dim").with_row_range(2, 3))
        .unwrap();
    assert_eq!(a.rows.len(), 2);
    assert_eq!(b.rows.len(), 1);
}

#[test]
fn udf_callable_from_sql() {
    struct Doubler;
    impl mppdb::ScalarUdf for Doubler {
        fn name(&self) -> &str {
            "double_it"
        }
        fn eval(&self, args: &[Value], params: &mppdb::udf::UdfParams) -> mppdb::DbResult<Value> {
            let factor = match params.get("factor") {
                Some(v) => v.as_f64().map_err(|e| DbError::Udf(e.to_string()))?,
                None => 2.0,
            };
            let x = args[0].as_f64().map_err(|e| DbError::Udf(e.to_string()))?;
            Ok(Value::Float64(x * factor))
        }
    }
    let c = cluster();
    c.register_udf(Arc::new(Doubler));
    let mut s = c.connect(0).unwrap();
    s.execute("CREATE TABLE t (x FLOAT)").unwrap();
    s.execute("INSERT INTO t VALUES (1.5)").unwrap();
    let r = s
        .execute("SELECT double_it(x USING PARAMETERS factor=4) FROM t")
        .unwrap()
        .rows()
        .unwrap();
    assert_eq!(r.rows[0].get(0), &Value::Float64(6.0));
}

#[test]
fn order_by_and_insert_select() {
    let c = cluster();
    let mut s = c.connect(0).unwrap();
    s.execute("CREATE TABLE scores (name VARCHAR, pts INT)")
        .unwrap();
    s.execute("INSERT INTO scores VALUES ('carol', 7), ('alice', 9), ('bob', NULL), ('dave', 9)")
        .unwrap();

    // ORDER BY column with direction; NULLs last ascending.
    let r = s
        .execute("SELECT name, pts FROM scores ORDER BY pts ASC, name")
        .unwrap()
        .rows()
        .unwrap();
    let names: Vec<&str> = r.rows.iter().map(|x| x.get(0).as_str().unwrap()).collect();
    assert_eq!(names, vec!["carol", "alice", "dave", "bob"]);

    // ORDER BY position, descending, with LIMIT after ordering.
    let r = s
        .execute("SELECT name, pts FROM scores ORDER BY 2 DESC LIMIT 2")
        .unwrap()
        .rows()
        .unwrap();
    let names: Vec<&str> = r.rows.iter().map(|x| x.get(0).as_str().unwrap()).collect();
    assert_eq!(names, vec!["alice", "dave"]);

    // ORDER BY an aggregate output through its alias.
    s.execute("INSERT INTO scores VALUES ('alice', 1)").unwrap();
    let r = s
        .execute(
            "SELECT name, SUM(pts) AS total FROM scores GROUP BY name \
             ORDER BY total DESC, name",
        )
        .unwrap()
        .rows()
        .unwrap();
    assert_eq!(r.rows[0].get(0).as_str().unwrap(), "alice"); // 10
    assert_eq!(r.rows[1].get(0).as_str().unwrap(), "dave"); // 9

    // INSERT INTO ... SELECT.
    s.execute("CREATE TABLE winners (name VARCHAR, pts INT)")
        .unwrap();
    let n = s
        .execute("INSERT INTO winners SELECT name, pts FROM scores WHERE pts >= 9")
        .unwrap()
        .affected()
        .unwrap();
    assert_eq!(n, 2, "alice(9) and dave(9); alice(1) and NULLs excluded");
    let r = s
        .execute("SELECT COUNT(*) FROM winners")
        .unwrap()
        .rows()
        .unwrap();
    assert_eq!(r.rows[0].get(0), &Value::Int64(2));

    // Schema incompatibility is rejected.
    assert!(s
        .execute("INSERT INTO winners SELECT pts FROM scores")
        .is_err());
    // Bad ORDER BY targets error.
    assert!(s.execute("SELECT name FROM scores ORDER BY nope").is_err());
    assert!(s.execute("SELECT name FROM scores ORDER BY 5").is_err());
}

#[test]
fn group_by_keeps_keys_apart_whatever_their_text() {
    let c = cluster();
    let mut s = c.connect(0).unwrap();
    s.execute("CREATE TABLE pairs (a VARCHAR, b VARCHAR)")
        .unwrap();
    // Two distinct (a, b) keys whose text, joined without lengths,
    // spells the same string.
    s.execute("INSERT INTO pairs VALUES ('p|VARCHAR:q', ''), ('p', 'q|VARCHAR:')")
        .unwrap();
    let r = s
        .execute("SELECT a, b, COUNT(*) FROM pairs GROUP BY a, b ORDER BY a")
        .unwrap()
        .rows()
        .unwrap();
    let groups: Vec<(&str, &str, &Value)> = r
        .rows
        .iter()
        .map(|x| {
            (
                x.get(0).as_str().unwrap(),
                x.get(1).as_str().unwrap(),
                x.get(2),
            )
        })
        .collect();
    assert_eq!(
        groups,
        vec![
            ("p", "q|VARCHAR:", &Value::Int64(1)),
            ("p|VARCHAR:q", "", &Value::Int64(1)),
        ]
    );
}

#[test]
fn system_tables_expose_the_catalog() {
    let c = cluster();
    let mut s = c.connect(0).unwrap();
    s.execute("CREATE TABLE seg (id INT, x FLOAT) SEGMENTED BY HASH(id) ALL NODES")
        .unwrap();
    s.execute("CREATE TEMP TABLE tmp (a INT) UNSEGMENTED ALL NODES")
        .unwrap();

    // v_segments: one row per node, covering the ring in hex.
    let segs = s
        .execute("SELECT * FROM v_segments")
        .unwrap()
        .rows()
        .unwrap();
    assert_eq!(segs.rows.len(), c.node_count());
    assert_eq!(segs.rows[0].get(2).as_str().unwrap(), "0000000000000000");

    // v_tables reflects segmentation and temp-ness; works with WHERE
    // and ORDER BY like any relation.
    let tables = s
        .execute("SELECT table_name, segmented, is_temp FROM v_tables ORDER BY table_name")
        .unwrap()
        .rows()
        .unwrap();
    let names: Vec<&str> = tables
        .rows
        .iter()
        .map(|r| r.get(0).as_str().unwrap())
        .collect();
    assert_eq!(names, vec!["seg", "tmp"]);
    assert_eq!(tables.rows[0].get(1), &Value::Boolean(true));
    assert_eq!(tables.rows[1].get(1), &Value::Boolean(false));
    assert_eq!(tables.rows[1].get(2), &Value::Boolean(true));

    // v_nodes tracks liveness and the open session count (≥ ours).
    c.kill_node(3);
    let nodes = s
        .execute("SELECT node FROM v_nodes WHERE is_up = FALSE")
        .unwrap()
        .rows()
        .unwrap();
    assert_eq!(nodes.rows.len(), 1);
    assert_eq!(nodes.rows[0].get(0), &Value::Int64(3));
    c.restore_node(3);
    let mine = s
        .execute("SELECT open_sessions FROM v_nodes WHERE node = 0")
        .unwrap()
        .rows()
        .unwrap();
    assert!(mine.rows[0].get(0).as_i64().unwrap() >= 1);

    // Programmatic access with pushdown-style specs also works.
    let count = s
        .query(&QuerySpec::scan("v_segments").count())
        .unwrap()
        .count;
    assert_eq!(count as usize, c.node_count());
}

#[test]
fn explain_describes_the_plan() {
    let c = cluster();
    let mut s = c.connect(0).unwrap();
    s.execute("CREATE TABLE facts (id INT, x FLOAT) SEGMENTED BY HASH(id) ALL NODES")
        .unwrap();
    s.execute("INSERT INTO facts VALUES (1, 1.0)").unwrap();

    fn plan(s: &mut mppdb::Session, sql: &str) -> String {
        let r = s.execute(sql).unwrap().rows().unwrap();
        r.rows
            .iter()
            .map(|row| row.get(0).as_str().unwrap().to_string())
            .collect::<Vec<_>>()
            .join("\n")
    }

    // Pushdown-eligible scan.
    let p = plan(&mut s, "EXPLAIN SELECT id FROM facts WHERE x > 0.5 LIMIT 3");
    assert!(p.contains("locality-aware"), "{p}");
    assert!(p.contains("segment 0 on node 0"), "{p}");
    assert!(p.contains("[pushed down to storage]"), "{p}");
    assert!(p.contains("limit: 3"), "{p}");

    // What the executor does not hand to storage is not claimed: ORDER BY
    // needs the materialized output, an expression needs the executor.
    for sql in [
        "EXPLAIN SELECT id FROM facts WHERE x > 0.5 ORDER BY id",
        "EXPLAIN SELECT id + 1 FROM facts WHERE x > 0.5",
    ] {
        let p = plan(&mut s, sql);
        assert!(!p.contains("[pushed down to storage]"), "{p}");
        assert!(
            p.contains("filter: (x > 0.5) [evaluated in the executor]"),
            "{p}"
        );
        assert!(p.contains("projection: evaluated in the executor"), "{p}");
    }

    // Aggregate + order: executor-side.
    let p = plan(
        &mut s,
        "EXPLAIN SELECT id, COUNT(*) FROM facts GROUP BY id ORDER BY id",
    );
    assert!(p.contains("aggregate: 1 group key(s)"), "{p}");
    assert!(p.contains("sort: 1 key(s)"), "{p}");

    // Epoch pin shows up.
    let e = c.current_epoch();
    let p = plan(&mut s, &format!("EXPLAIN AT EPOCH {e} SELECT * FROM facts"));
    assert!(p.contains(&format!("epoch: {e}")), "{p}");

    // Unsegmented + system tables.
    s.execute("CREATE TABLE dim (a INT) UNSEGMENTED ALL NODES")
        .unwrap();
    let p = plan(&mut s, "EXPLAIN SELECT * FROM dim");
    assert!(p.contains("local replica"), "{p}");
    let p = plan(&mut s, "EXPLAIN SELECT * FROM v_segments");
    assert!(p.contains("system table"), "{p}");

    // EXPLAIN of non-SELECT is a syntax error.
    assert!(s.execute("EXPLAIN DELETE FROM facts").is_err());
}

#[test]
fn tuple_mover_runs_automatically_past_the_wos_threshold() {
    let c = Cluster::new(ClusterConfig {
        moveout_threshold: 100,
        ..ClusterConfig::default()
    });
    let mut s = c.connect(0).unwrap();
    s.execute("CREATE TABLE wosy (id INT, tag VARCHAR)")
        .unwrap();
    // A small commit stays in the WOS...
    s.insert("wosy", (0..50).map(|i| row![i as i64, "x"]).collect())
        .unwrap();
    let stats = c.table_stats("wosy").unwrap();
    assert!(stats.iter().any(|st| st.wos_rows > 0));
    assert_eq!(stats.iter().map(|st| st.ros_rows).sum::<usize>(), 0);
    // ...while a large one triggers moveout on commit.
    s.insert("wosy", (50..2_000).map(|i| row![i as i64, "x"]).collect())
        .unwrap();
    let stats = c.table_stats("wosy").unwrap();
    assert_eq!(stats.iter().map(|st| st.wos_rows).sum::<usize>(), 0);
    assert_eq!(stats.iter().map(|st| st.ros_rows).sum::<usize>(), 2_000);
}

#[test]
fn ros_encodings_compress_low_cardinality_columns() {
    let c = cluster();
    let mut s = c.connect(0).unwrap();
    s.execute("CREATE TABLE enc (id INT, category VARCHAR)")
        .unwrap();
    // Repetitive category strings: dictionary/RLE territory.
    let rows: Vec<common::Row> = (0..4_000)
        .map(|i| row![i as i64, format!("category-{}", i % 3)])
        .collect();
    s.insert("enc", rows).unwrap();
    c.moveout_all();
    let stats = c.table_stats("enc").unwrap();
    let raw: usize = stats.iter().map(|st| st.ros_raw_bytes).sum();
    let encoded: usize = stats.iter().map(|st| st.ros_encoded_bytes).sum();
    assert!(raw > 0);
    assert!(
        encoded * 2 < raw,
        "expected >2x compression: raw {raw}, encoded {encoded}"
    );
}
