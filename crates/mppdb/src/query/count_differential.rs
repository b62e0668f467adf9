//! The count pushdown against the scan it stands for.
//!
//! A count-only read prices its survivors from validity bits and string
//! lengths and copies none of them. The reference is the materializing
//! read of the same spec. Every case builds a cluster holding one table
//! of all four types with NULLs — segmented or not, k=0 or 1, maybe a
//! dead node — loaded through the WOS and DIRECT, with loads shaped so
//! that sealing encodes columns plain, as runs and as dictionaries, a
//! committed delete, and pending work: another transaction's load and
//! staged deletes, or the reading session's own. Each random spec —
//! predicate (one that errors among them), projection, hash range or row
//! window, epoch, `no_skip` — then runs twice through `Session::query`:
//! the count must be the number of rows the scan returns (or both fail
//! alike), and the recorder logs must be the same event for event, but
//! for a remote piece shipping 8 bytes and one row. Every node's store
//! answers each spec's pushed-down scan through `scan_count` with the
//! counters `scan_batch` gives, the batch's row count and its wire size.

#![cfg(test)]

use std::collections::BTreeSet;
use std::sync::Arc;

use common::expr::BinaryOp;
use common::{DataType, Expr, Field, Row, Schema, Value};
use netsim::record::{Event, EventKind, NetClass};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

use crate::catalog::{Segmentation, TableDef};
use crate::cluster::{Cluster, ClusterConfig};
use crate::copy::{CopyOptions, CopySource};
use crate::query::QuerySpec;
use crate::session::Session;
use crate::storage::{BatchScan, NodeTableStore};

const TABLE: &str = "t";

fn schema() -> Schema {
    Schema::new(vec![
        Field::not_null("id", DataType::Int64),
        Field::new("x", DataType::Float64),
        Field::new("s", DataType::Varchar),
        Field::new("b", DataType::Boolean),
        Field::new("n", DataType::Int64),
    ])
}

/// How a load fills one column: what sealing then encodes as runs, as
/// a dictionary, or plain.
#[derive(Debug, Clone, Copy)]
enum Shape {
    Runs,
    Few,
    Spread,
}

fn value(rng: &mut StdRng, dtype: DataType, domain: i64) -> Value {
    let k = rng.random_range(0..domain);
    match dtype {
        DataType::Int64 => Value::Int64(k - domain / 2),
        DataType::Float64 => Value::Float64((k - domain / 2) as f64 * 0.5),
        DataType::Varchar => {
            Value::Varchar(format!("s{}", "é".repeat(k as usize % 7) + &k.to_string()))
        }
        DataType::Boolean => Value::Boolean(k % 2 == 0),
    }
}

/// One load's rows, each column shaped as drawn.
fn rows(rng: &mut StdRng, next_id: &mut i64) -> Vec<Row> {
    let n = match rng.random_range(0..6) {
        0 => rng.random_range(1..4),
        _ => rng.random_range(8..90),
    };
    let fields = schema();
    let shapes: Vec<Shape> = (0..fields.len())
        .map(|_| match rng.random_range(0..3) {
            0 => Shape::Runs,
            1 => Shape::Few,
            _ => Shape::Spread,
        })
        .collect();
    let mut last: Vec<Value> = vec![Value::Null; fields.len()];
    (0..n)
        .map(|_| {
            let values = fields.fields().iter().enumerate().map(|(c, f)| {
                if c == 0 {
                    *next_id += 1;
                    return Value::Int64(*next_id % 50);
                }
                let fresh = match shapes[c] {
                    Shape::Runs if !last[c].is_null() && rng.random_bool(0.9) => last[c].clone(),
                    Shape::Runs | Shape::Few => value(rng, f.dtype, 3),
                    Shape::Spread => value(rng, f.dtype, 1_000),
                };
                last[c] = if rng.random_bool(0.1) {
                    Value::Null
                } else {
                    fresh
                };
                last[c].clone()
            });
            Row::new(values.collect())
        })
        .collect()
}

fn load(s: &mut Session, rng: &mut StdRng, next_id: &mut i64) {
    let rows = rows(rng, next_id);
    if rng.random_bool(0.5) {
        let options = CopyOptions {
            direct: true,
            rejected_max: 0,
        };
        s.copy(TABLE, CopySource::Rows(rows), options).unwrap();
    } else {
        s.insert(TABLE, rows).unwrap();
    }
}

/// A cluster as the case draws it, the session that reads, and the one
/// holding another transaction open (dropping it aborts).
fn cluster(
    rng: &mut StdRng,
    encodings: &mut BTreeSet<&'static str>,
) -> (Arc<Cluster>, Session, Session) {
    let k_safety = rng.random_range(0..2);
    let c = Cluster::new(ClusterConfig {
        node_count: 4,
        k_safety,
        ..ClusterConfig::default()
    });
    let segmentation = match rng.random_range(0..3) {
        0 => Segmentation::ByHash(vec!["id".into()]),
        1 => Segmentation::ByHash(vec!["id".into(), "s".into()]),
        _ => Segmentation::Unsegmented,
    };
    c.create_table(TableDef::new(TABLE, schema(), segmentation).unwrap())
        .unwrap();
    let mut s = c.connect(0).unwrap();
    let mut next_id = 0;
    for _ in 0..rng.random_range(1..6) {
        load(&mut s, rng, &mut next_id);
        if rng.random_bool(0.4) {
            c.moveout_all();
        }
    }
    if rng.random_bool(0.4) {
        s.execute(&format!("DELETE FROM {TABLE} WHERE id % 5 = 1"))
            .unwrap();
    }
    for state in c.node_states() {
        if let Some(store) = state.stores.read().get(TABLE) {
            for info in store.container_infos() {
                encodings.extend(info.encodings);
            }
        }
    }
    let mut other = c.connect(0).unwrap();
    let mut reader = c.connect(rng.random_range(0..4)).unwrap();
    // A reader in a transaction would wait for the lock another
    // transaction's deletes hold: the pending work is one or the other's.
    let pending = if rng.random_bool(0.5) {
        &mut other
    } else {
        &mut reader
    };
    pending.begin().unwrap();
    if rng.random_bool(0.6) {
        load(pending, rng, &mut next_id);
    }
    if rng.random_bool(0.4) {
        pending
            .execute(&format!("DELETE FROM {TABLE} WHERE id % 3 = 0"))
            .unwrap();
    }
    if k_safety == 1 && rng.random_bool(0.3) {
        let node = rng.random_range(1..4);
        if node != reader.node() {
            c.kill_node(node);
        }
    }
    (c, reader, other)
}

fn literal(rng: &mut StdRng, dtype: DataType) -> Expr {
    // Now and then a literal of another type class.
    if rng.random_bool(0.1) {
        return Expr::lit(Value::Varchar("zz".into()));
    }
    Expr::lit(value(rng, dtype, 6))
}

fn predicate(rng: &mut StdRng, depth: u32) -> Expr {
    let fields = schema();
    if depth > 0 && rng.random_bool(0.4) {
        let (a, b) = (predicate(rng, depth - 1), predicate(rng, depth - 1));
        return match rng.random_range(0..3) {
            0 => a.and(b),
            1 => a.or(b),
            _ => Expr::Not(Box::new(a)),
        };
    }
    let field = &fields.fields()[rng.random_range(0..fields.len())];
    let col = Expr::col(&field.name);
    match rng.random_range(0..10) {
        0 => Expr::IsNull(Box::new(col)),
        // Fails at the first row it reaches.
        1 => Expr::binary(Expr::col("id"), BinaryOp::Mod, Expr::lit(0i64)).eq(Expr::lit(1i64)),
        2 => col.lt(literal(rng, field.dtype)),
        3 => col.gt_eq(literal(rng, field.dtype)),
        4 => Expr::binary(col, BinaryOp::NotEq, literal(rng, field.dtype)),
        _ => col.eq(literal(rng, field.dtype)),
    }
}

fn spec(rng: &mut StdRng, c: &Cluster, segmented: bool) -> QuerySpec {
    let mut spec = QuerySpec::scan(TABLE);
    if rng.random_bool(0.7) {
        spec = spec.filter(predicate(rng, 2));
    }
    if rng.random_bool(0.5) {
        let names: Vec<String> = schema().fields().iter().map(|f| f.name.clone()).collect();
        let mut picked: Vec<&str> = names
            .iter()
            .filter(|_| rng.random_bool(0.5))
            .map(String::as_str)
            .collect();
        if picked.is_empty() {
            picked.push("s");
        }
        spec = spec.project(&picked);
    }
    if segmented && rng.random_bool(0.5) {
        let map = c.segment_map();
        let segments = map.segments();
        let range = segments[rng.random_range(0..segments.len())].range;
        spec = spec.with_hash_range(range.split(2)[rng.random_range(0..2)]);
    }
    if !segmented && rng.random_bool(0.5) {
        let start = rng.random_range(0..60);
        spec = spec.with_row_range(start, start + rng.random_range(0..120));
    }
    if rng.random_bool(0.3) {
        spec = spec.at_epoch(rng.random_range(0..c.current_epoch() + 1));
    }
    if rng.random_bool(0.3) {
        spec = spec.without_skipping();
    }
    spec
}

/// The materializing read's log as the count records it: a piece served
/// remotely ships the count, 8 bytes in one row.
fn as_counted(log: Vec<Event>) -> Vec<Event> {
    log.into_iter()
        .map(|mut e| {
            if let EventKind::Transfer {
                class: NetClass::DbInternal,
                bytes,
                rows,
                ..
            } = &mut e.kind
            {
                (*bytes, *rows) = (8, 1);
            }
            e
        })
        .collect()
}

/// Each node's store, under the spec's own pushed-down scan: the count
/// and the batch agree on every counter, the rows and their wire size.
fn same_at_every_store(c: &Cluster, spec: &QuerySpec, my_txn: Option<u64>, what: &str) {
    let def = c.table_def(TABLE).unwrap();
    let predicate = spec
        .predicate
        .as_ref()
        .map(|p| p.bind(&def.schema).unwrap());
    let projection: Option<Vec<usize>> = spec.projection.as_ref().map(|cols| {
        let idx = cols.iter().map(|n| def.schema.index_of(n));
        idx.collect::<Result<_, _>>().unwrap()
    });
    let dtypes: Vec<DataType> = match &projection {
        Some(idx) => idx.iter().map(|&i| def.schema.field(i).dtype).collect(),
        None => def.schema.fields().iter().map(|f| f.dtype).collect(),
    };
    let scan = BatchScan {
        as_of: spec.as_of_epoch.unwrap_or(c.current_epoch()),
        my_txn,
        hash_range: spec.hash_range.as_ref(),
        row_range: spec.row_range,
        predicate: predicate.as_ref(),
        projection: projection.as_deref(),
        dtypes: &dtypes,
        no_skip: spec.no_skip,
    };
    for state in c.node_states() {
        let stores = state.stores.read();
        let Some(store) = stores.get(TABLE) else {
            continue;
        };
        let batch = NodeTableStore::scan_batch(store, &scan);
        let count = NodeTableStore::scan_count(store, &scan);
        match (batch, count) {
            (Ok(batch), Ok(count)) => {
                assert_eq!(count.counters, batch.counters, "{what}: counters");
                assert_eq!(count.count, batch.batch.num_rows() as u64, "{what}");
                assert_eq!(count.wire_bytes, batch.batch.wire_size() as u64, "{what}");
            }
            (batch, count) => assert_eq!(
                format!("{:?}", count.map(|_| ())),
                format!("{:?}", batch.map(|_| ())),
                "{what}"
            ),
        }
    }
}

/// 256 cases seeded from `base`.
fn run_cases(base: u64) {
    let mut encodings = BTreeSet::new();
    let (mut counted, mut failed) = (0, 0);
    for case in 0..256u64 {
        let seed = 0xC0A7_0000 + base * 1_000 + case;
        let mut rng = StdRng::seed_from_u64(seed);
        let (c, mut reader, _other) = cluster(&mut rng, &mut encodings);
        let segmented = c.table_def(TABLE).unwrap().is_segmented();
        let my_txn = reader.txn.as_ref().map(|t| t.id);
        for round in 0..4 {
            let spec = spec(&mut rng, &c, segmented);
            let what = format!("base {base}, case {case}, round {round}: {spec:?}");
            c.recorder().clear();
            let scanned = reader.query(&spec);
            let scan_log = c.recorder().drain();
            let count = reader.query(&spec.clone().count());
            let count_log = c.recorder().drain();
            match (&scanned, &count) {
                (Ok(scanned), Ok(count)) => {
                    assert_eq!(count.count, scanned.rows.len() as u64, "{what}");
                    counted += 1;
                }
                _ => {
                    let scanned = scanned.as_ref().map(|r| r.rows.len());
                    let count = count.as_ref().map(|r| r.count as usize);
                    assert_eq!(format!("{count:?}"), format!("{scanned:?}"), "{what}");
                    failed += 1;
                }
            }
            assert_eq!(count_log, as_counted(scan_log), "{what}");
            same_at_every_store(&c, &spec, my_txn, &what);
        }
    }
    let all = ["dictionary", "plain", "rle"];
    assert_eq!(encodings, BTreeSet::from(all), "encodings sealed");
    assert!(
        counted > 600 && failed > 20,
        "{counted} counted, {failed} failed"
    );
}

#[test]
fn a_count_is_the_scan_it_stands_for() {
    run_cases(0);
}

/// `scripts/check.sh` runs this once with `--ignored`.
#[test]
#[ignore = "eight more seed sets of the differential above; check.sh runs them"]
fn a_count_is_the_scan_it_stands_for_eight_more_seed_sets() {
    for base in 1..=8 {
        run_cases(base);
    }
}
