//! UPDATE and DELETE through the pushed-down scan against the routines
//! they replaced.
//!
//! [`reference`] is the mutation path as it was when it materialised the
//! table twice — `scan_primary_live` into rows, the predicate matched
//! row-at-a-time in a closure, then `delete_where` scanning again —
//! kept verbatim. Every case sets two clusters up alike (ROS, WOS and
//! deleted rows, NULLs, k ∈ {0, 1}, segmented or replicated, maybe a
//! pending rebalance, maybe a down node, maybe inside a transaction with
//! work of its own), runs one generated statement through each routine
//! and compares the affected count or the error, what the transaction
//! then sees, and afterwards the table at every epoch and every node's
//! storage statistics.

#![cfg(test)]

use std::sync::Arc;

use common::{row, DataType, Field, Row, Schema, Value};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

use crate::catalog::{Segmentation, TableDef};
use crate::cluster::{Cluster, ClusterConfig};
use crate::copy::{CopyOptions, CopySource};
use crate::error::DbResult;
use crate::fault::FaultSite;
use crate::query::QuerySpec;
use crate::session::Session;

mod reference {
    use std::sync::atomic::Ordering;

    use common::{Expr, Row};
    use netsim::record::NodeRef;

    use crate::catalog::TableDef;
    use crate::cluster::Cluster;
    use crate::error::{DbError, DbResult};
    use crate::session::Session;
    use crate::sql::ast::Statement;
    use crate::sql::exec::lower_scalar;
    use crate::sql::parse_statement;
    use crate::storage::store::RowLoc;
    use crate::storage::BatchScan;
    use crate::txn::{LockMode, TxnHandle};

    fn scan_primary_live(
        cluster: &Cluster,
        def: &TableDef,
        as_of: u64,
        my_txn: Option<u64>,
    ) -> DbResult<Vec<Row>> {
        let mut out = Vec::new();
        let map = cluster.segment_map();
        let states = cluster.node_states();
        for (node, state) in states.iter().enumerate() {
            if state.retired.load(Ordering::Acquire) {
                continue;
            }
            if !cluster.is_node_up(node) {
                if def.is_segmented() && cluster.config.k_safety == 0 && map.is_member(node) {
                    return Err(DbError::NodeUnavailable(node));
                }
                continue;
            }
            let stores = state.stores.read();
            let Some(store) = stores.get(&def.name) else {
                continue;
            };
            let scan = BatchScan {
                as_of,
                my_txn,
                ..BatchScan::default()
            };
            store
                .for_each_visible(&scan, |_loc, row, hash| {
                    if cluster.is_live_primary(def, &map, node, hash) {
                        out.push(row.clone());
                    }
                })
                .map_err(DbError::Data)?;
        }
        Ok(out)
    }

    fn delete_where(
        cluster: &Cluster,
        txn: &mut TxnHandle,
        task: Option<u64>,
        table: &str,
        predicate: Option<&Expr>,
    ) -> DbResult<u64> {
        let def = cluster.table_def(table)?;
        cluster.lock_table(txn, &def.name, LockMode::Exclusive)?;
        txn.touched.insert(def.name.clone());
        let as_of = cluster.current_epoch();

        let mut deleted = 0u64;
        let map = cluster.segment_map();
        let states = cluster.node_states();
        for (node, state) in states.iter().enumerate() {
            if state.retired.load(Ordering::Acquire) {
                continue;
            }
            if !cluster.is_node_up(node) {
                if def.is_segmented() && cluster.config.k_safety == 0 && map.is_member(node) {
                    return Err(DbError::NodeUnavailable(node));
                }
                continue;
            }
            let stores = state.stores.read();
            let Some(store) = stores.get(&def.name) else {
                continue;
            };
            let mut matched: Vec<(RowLoc, bool)> = Vec::new();
            let mut hit = |loc, hash| {
                matched.push((loc, cluster.is_live_primary(&def, &map, node, hash)));
            };
            let scan = BatchScan {
                as_of,
                my_txn: Some(txn.id),
                ..BatchScan::default()
            };
            match predicate {
                Some(p) => store.for_each_visible(&scan, |loc, row, hash| {
                    if p.matches(row).unwrap_or(false) {
                        hit(loc, hash);
                    }
                }),
                None => store.for_each_visible_loc(&scan, hit),
            }
            .map_err(DbError::Data)?;
            drop(stores);
            let locs: Vec<RowLoc> = matched.iter().map(|(l, _)| *l).collect();
            deleted += matched.iter().filter(|(_, primary)| *primary).count() as u64;
            if !locs.is_empty() {
                let mut stores = state.stores.write();
                if let Some(store) = stores.get_mut(&def.name) {
                    store.delete_pending(&locs, txn.id);
                }
                cluster
                    .recorder
                    .work(task, NodeRef::Db(node), "delete_mark", locs.len() as u64, 0);
            }
        }
        Ok(deleted)
    }

    /// One UPDATE or DELETE statement, as `execute_statement` ran it.
    pub fn execute(session: &mut Session, sql: &str) -> DbResult<u64> {
        let bind = |def: &TableDef, ast| {
            lower_scalar(&ast).and_then(|e| e.bind(&def.schema).map_err(DbError::Data))
        };
        match parse_statement(sql)? {
            Statement::Delete { table, predicate } => {
                let def = session.cluster().table_def(&table)?;
                let pred = predicate.map(|p| bind(&def, p)).transpose()?;
                session.with_txn(|cluster, txn, _node, tag| {
                    delete_where(cluster, txn, tag, &table, pred.as_ref())
                })
            }
            Statement::Update {
                table,
                assignments,
                predicate,
            } => {
                let def = session.cluster().table_def(&table)?;
                let pred = predicate.map(|p| bind(&def, p)).transpose()?;
                let assigns: Vec<(usize, Expr)> = assignments
                    .into_iter()
                    .map(|(col, e)| {
                        let idx = def.schema.index_of(&col).map_err(DbError::Data)?;
                        Ok((idx, bind(&def, e)?))
                    })
                    .collect::<DbResult<Vec<_>>>()?;
                session.with_txn(|cluster, txn, node, tag| {
                    cluster.lock_table(txn, &table, LockMode::Exclusive)?;
                    let as_of = cluster.current_epoch();
                    let mut updated: Vec<Row> = Vec::new();
                    for row in scan_primary_live(cluster, &def, as_of, Some(txn.id))? {
                        let matched = match &pred {
                            Some(p) => p.matches(&row).map_err(DbError::Data)?,
                            None => true,
                        };
                        if !matched {
                            continue;
                        }
                        let mut values = row.into_values();
                        let original = Row::new(values.clone());
                        for (idx, expr) in &assigns {
                            values[*idx] = expr.eval(&original).map_err(DbError::Data)?;
                        }
                        updated.push(Row::new(values));
                    }
                    let deleted = delete_where(cluster, txn, tag, &table, pred.as_ref())?;
                    assert_eq!(deleted as usize, updated.len());
                    cluster.insert_rows(txn, node, tag, &table, updated)?;
                    Ok(deleted)
                })
            }
            other => panic!("the reference runs UPDATE and DELETE, not {other:?}"),
        }
    }
}

const TABLE: &str = "t";

fn schema() -> Schema {
    Schema::new(vec![
        Field::new("id", DataType::Int64),
        Field::new("grp", DataType::Varchar),
        Field::new("val", DataType::Float64),
        Field::new("n", DataType::Int64),
    ])
}

/// Rows `ids`, every nullable column NULL now and then, `n` zero now
/// and then (what `10 / n` fails on).
fn rows(rng: &mut StdRng, ids: std::ops::Range<i64>) -> Vec<Row> {
    ids.map(|i| {
        let grp = match rng.random_range(0..8) {
            0 => Value::Null,
            g => Value::Varchar(format!("g{}", g % 4)),
        };
        let val = match rng.random_range(0..8) {
            0 => Value::Null,
            _ => Value::Float64(rng.random_range(-40..40) as f64 / 4.0),
        };
        let n = match rng.random_range(0..8) {
            0 => Value::Null,
            1 => Value::Int64(0),
            _ => Value::Int64(rng.random_range(-5..20)),
        };
        row![i, grp, val, n]
    })
    .collect()
}

/// How one case sets its two clusters up.
#[derive(Debug, Clone, Copy)]
struct Bed {
    seed: u64,
    segmented: bool,
    k_safety: usize,
    pending_add: bool,
    moveout: bool,
}

/// The way a statement reaches a cluster: the product's or the
/// reference's. Seeding goes the same way, so the reference cluster
/// never runs the routine under test.
type Run = fn(&mut Session, &str) -> DbResult<u64>;

fn product(session: &mut Session, sql: &str) -> DbResult<u64> {
    session.execute(sql)?.affected()
}

fn cluster(bed: Bed, run: Run) -> Arc<Cluster> {
    let c = Cluster::new(ClusterConfig {
        node_count: 4,
        k_safety: bed.k_safety,
        ..ClusterConfig::default()
    });
    let segmentation = if bed.segmented {
        Segmentation::ByHash(vec!["id".into()])
    } else {
        Segmentation::Unsegmented
    };
    c.create_table(TableDef::new(TABLE, schema(), segmentation).unwrap())
        .unwrap();
    let rng = &mut StdRng::seed_from_u64(bed.seed);
    let mut s = c.connect(0).unwrap();
    for ids in [0..40, 40..80] {
        s.copy(
            TABLE,
            CopySource::Rows(rows(rng, ids)),
            CopyOptions::default(),
        )
        .unwrap();
    }
    s.insert(TABLE, rows(rng, 80..100)).unwrap();
    if bed.moveout {
        c.moveout_all();
    }
    s.insert(TABLE, rows(rng, 100..120)).unwrap();
    run(&mut s, "DELETE FROM t WHERE id < 8 OR id >= 112").unwrap();
    if bed.pending_add {
        // Crash the rebalance after its first migration: the add stays
        // pending and its target already holds copies.
        c.faults().inject_once(FaultSite::Rebalance);
        assert!(c.add_node().is_err());
        assert!(c.rebalance_in_progress());
    }
    c
}

fn predicate(rng: &mut StdRng, depth: u32) -> String {
    let c = rng.random_range(0..130);
    match rng.random_range(0..if depth < 2 { 18 } else { 13 }) {
        // Provably error-free: pushed into the store scan.
        0 => format!("id < {c}"),
        1 => format!("id >= {c}"),
        2 => format!("grp = 'g{}'", c % 4),
        3 => format!("val > {}", c as f64 / 8.0 - 6.0),
        4 => "n IS NULL".into(),
        5 => "grp IS NOT NULL".into(),
        6 => format!("n = {}", c % 20),
        7 => format!("{c} > id"),
        // Evaluated on the decoded row: arithmetic, LIKE.
        8 => format!("id % 7 = {}", c % 7),
        9 => "grp LIKE 'g%1'".into(),
        // May fail: division by zero where n = 0, a type mismatch
        // everywhere else;
        // which of the two a statement reports depends on the row it
        // meets first.
        10..=12 => match rng.random_range(0..4) {
            0 => "10 / n > 1".into(),
            1 => format!("val / (id - {c}) > 0"),
            _ => "100 / n > 3 OR NOT grp".into(),
        },
        13 | 14 => format!(
            "{} AND {}",
            predicate(rng, depth + 1),
            predicate(rng, depth + 1)
        ),
        15 | 16 => format!(
            "({} OR {})",
            predicate(rng, depth + 1),
            predicate(rng, depth + 1)
        ),
        _ => format!("NOT ({})", predicate(rng, depth + 1)),
    }
}

fn statement(rng: &mut StdRng) -> String {
    let filter = match rng.random_range(0..8) {
        0 => String::new(),
        _ => format!(" WHERE {}", predicate(rng, 0)),
    };
    if rng.random_bool(0.5) {
        return format!("DELETE FROM t{filter}");
    }
    let set = match rng.random_range(0..6) {
        0 => "val = val + 1",
        1 => "grp = 'z'",
        // Re-routes every row it touches.
        2 => "id = id + 1000",
        // Fails on a matched row with n = 0.
        3 => "n = 10 / n",
        4 => "val = NULL, n = 3",
        _ => "grp = 'y', val = val * 2",
    };
    format!("UPDATE t SET {set}{filter}")
}

/// The table as the session sees it now, or why it cannot.
fn seen_by(s: &mut Session) -> String {
    format!(
        "{:?}",
        s.query(&QuerySpec::scan(TABLE)).map(|r| {
            let mut rows: Vec<String> = r.rows.iter().map(|r| format!("{r:?}")).collect();
            rows.sort();
            rows
        })
    )
}

fn history(c: &Arc<Cluster>) -> Vec<String> {
    (0..=c.current_epoch())
        .map(|e| {
            let mut s = c.connect(0).unwrap();
            let rows = s.query(&QuerySpec::scan(TABLE).at_epoch(e)).unwrap().rows;
            let mut rows: Vec<String> = rows.iter().map(|r| format!("{r:?}")).collect();
            rows.sort();
            rows.join("\n")
        })
        .collect()
}

#[test]
fn update_and_delete_equal_the_routines_they_replaced_256_cases() {
    let (mut pushed, mut failed, mut hit) = (0, 0, 0);
    for case in 0..256u64 {
        let rng = &mut StdRng::seed_from_u64(0x5eed_0000 + case);
        let bed = Bed {
            seed: case,
            segmented: rng.random_bool(0.7),
            k_safety: rng.random_range(0..2),
            pending_add: rng.random_bool(0.15),
            moveout: rng.random_bool(0.5),
        };
        let in_txn = rng.random_bool(0.5);
        let down = rng.random_bool(0.3).then(|| rng.random_range(0..4usize));
        let sql = statement(rng);
        let commit = rng.random_bool(0.7);
        let what = format!("case {case}: {bed:?}, down {down:?}, in txn {in_txn}: {sql}");

        let mut outcomes = Vec::new();
        for run in [product as Run, reference::execute] {
            let c = cluster(bed, run);
            let up = (0..4).find(|n| Some(*n) != down).unwrap();
            let mut s = c.connect(up).unwrap();
            if in_txn {
                // Work of the transaction's own for the statement to
                // see: WOS rows, a ROS container, a delete.
                let rng = &mut StdRng::seed_from_u64(bed.seed ^ 0xabcd);
                s.begin().unwrap();
                s.insert(TABLE, rows(rng, 200..212)).unwrap();
                let direct = CopySource::Rows(rows(rng, 212..230));
                s.copy(TABLE, direct, CopyOptions::default()).unwrap();
                run(&mut s, "DELETE FROM t WHERE id >= 224 OR id = 50").unwrap();
            }
            if let Some(node) = down {
                c.set_node_down(node);
            }
            let result = run(&mut s, &sql).map_err(|e| e.to_string());
            let after = seen_by(&mut s);
            if in_txn {
                // A client whose statement failed gives the transaction
                // up (a dropped session does the same).
                if commit && result.is_ok() {
                    s.commit().unwrap();
                } else {
                    s.rollback().unwrap();
                }
            }
            drop(s);
            if let Some(node) = down {
                c.set_node_up(node);
            }
            let storage = format!("{:?}", c.table_stats(TABLE).unwrap());
            outcomes.push((result, after, history(&c), storage));
        }
        let (new, old) = (&outcomes[0], &outcomes[1]);
        assert_eq!(new.0, old.0, "{what}: affected rows or error");
        // The texts are long: on a mismatch, the case is what to rerun.
        assert!(new.1 == old.1, "{what}: what the session sees afterwards");
        assert!(new.2 == old.2, "{what}: the table at every epoch");
        assert_eq!(new.3, old.3, "{what}: storage per node");

        let bound = |sql: &str| match crate::sql::parse_statement(sql).unwrap() {
            crate::sql::ast::Statement::Delete { predicate, .. }
            | crate::sql::ast::Statement::Update { predicate, .. } => predicate.map(|p| {
                crate::sql::exec::lower_scalar(&p)
                    .unwrap()
                    .bind(&schema())
                    .unwrap()
            }),
            _ => None,
        };
        pushed += bound(&sql).is_some_and(|p| crate::storage::stats::analyzable(&p)) as u32;
        failed += new.0.is_err() as u32;
        hit += new.0.as_ref().is_ok_and(|n| *n > 0) as u32;
    }
    // The generator must keep reaching all three kinds of statement.
    assert!(
        pushed >= 60,
        "{pushed} statements had their predicate pushed down"
    );
    assert!(failed >= 20, "{failed} statements failed");
    assert!(hit >= 100, "{hit} statements changed rows");
}

/// A k=1 table of 40 rows from one COPY, `values(id)` deciding each row.
fn replicated(values: impl Fn(i64) -> (Value, Value)) -> Arc<Cluster> {
    let c = Cluster::new(ClusterConfig {
        node_count: 4,
        k_safety: 1,
        ..ClusterConfig::default()
    });
    let by_id = Segmentation::ByHash(vec!["id".into()]);
    c.create_table(TableDef::new(TABLE, schema(), by_id).unwrap())
        .unwrap();
    let rows = (0..40).map(|i| {
        let (grp, n) = values(i);
        row![i, grp, 1.0f64, n]
    });
    let mut s = c.connect(0).unwrap();
    s.copy(
        TABLE,
        CopySource::Rows(rows.collect()),
        CopyOptions::default(),
    )
    .unwrap();
    c
}

/// The error an UPDATE reports is the first *primary's*: node 0 meets a
/// buddy copy that divides by zero before any of its own rows, and the
/// statement must still fail on the type mismatch its first own failing
/// row raises — the row the replaced routine, which read primaries only,
/// failed on.
#[test]
fn an_update_fails_on_its_first_failing_primary_not_on_a_buddy_copy() {
    let mismatch = |_| (Value::Varchar("g".into()), Value::Int64(5));
    // Where node 0 keeps what, in scan order.
    let mut copies: Vec<(i64, bool)> = Vec::new();
    {
        let probe = replicated(mismatch);
        let def = probe.table_def(TABLE).unwrap();
        let map = probe.segment_map();
        let states = probe.node_states();
        let stores = states[0].stores.read();
        let scan = crate::storage::BatchScan {
            as_of: probe.current_epoch(),
            ..Default::default()
        };
        let visit = |_loc, row: &Row, hash| {
            let primary = probe.is_live_primary(&def, &map, 0, hash);
            copies.push((row.get(0).as_i64().unwrap(), primary));
        };
        crate::storage::NodeTableStore::for_each_visible(&stores[&def.name], &scan, visit).unwrap();
    }
    let buddy = copies
        .iter()
        .position(|(_, primary)| !primary)
        .filter(|at| copies[*at..].iter().any(|(_, primary)| *primary))
        .expect("node 0 holds a buddy copy ahead of one of its own rows");
    let quiet: Vec<i64> = copies[..buddy].iter().map(|(id, _)| *id).collect();
    let zero = copies[buddy].0;

    let sql = "UPDATE t SET val = 2 WHERE 100 / n > 3 OR NOT grp";
    let sides: [Run; 2] = [product, reference::execute];
    let errors = sides.map(|run| {
        let c = replicated(|id| match id {
            id if quiet.contains(&id) => (Value::Null, Value::Null),
            id if id == zero => (Value::Varchar("g".into()), Value::Int64(0)),
            id => mismatch(id),
        });
        run(&mut c.connect(0).unwrap(), sql)
            .unwrap_err()
            .to_string()
    });
    assert_eq!(errors[0], errors[1]);
    assert!(errors[0].contains("mismatch"), "{}", errors[0]);
}

/// A DELETE that cannot reach every copy stages nothing: the replaced
/// routine marked the nodes ahead of the dead one before it failed, and
/// a transaction that went on to commit deleted some of the rows.
#[test]
fn a_delete_that_fails_on_a_down_node_stages_nothing() {
    let c = cluster(
        Bed {
            seed: 1,
            segmented: true,
            k_safety: 0,
            pending_add: false,
            moveout: false,
        },
        product,
    );
    let mut s = c.connect(0).unwrap();
    s.begin().unwrap();
    let before = seen_by(&mut s);
    c.set_node_down(2);
    let err = product(&mut s, "DELETE FROM t WHERE id < 60").unwrap_err();
    assert_eq!(
        err.to_string(),
        crate::DbError::NodeUnavailable(2).to_string()
    );
    c.set_node_up(2);
    assert!(seen_by(&mut s) == before, "no row was marked");
    s.commit().unwrap();
}
