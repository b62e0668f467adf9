//! Randomized differential test of the pushed-down aggregate fold:
//! [`NodeTableStore::scan_aggregate`] against the row-at-a-time
//! reference, [`GroupedAccs::fold_rows`] over the rows
//! [`NodeTableStore::scan_batch`] returns for the same [`BatchScan`].
//!
//! The partial states must match exactly — group order, values by
//! `Debug` and floats by their bits (so `-0.0` and NaN count) — and a
//! failing aggregate must fail with the same error text. Every case is
//! drawn from a seed: column types with NULLs, NaN, ±0.0, fractional
//! and large-magnitude floats and integers near overflow; columns shaped
//! so that the store encodes them plain, RLE or dictionary, beside open
//! WOS containers; deletes, the transaction's own pending rows, hash
//! ranges and row windows; 0–3 key columns of every type; all five
//! functions plus `COUNT(col)`, and `SUM`/`AVG` over BOOLEAN or VARCHAR
//! for the error path.

use std::collections::BTreeSet;

use common::agg::{AggFunc, GroupedAccs};
use common::{DataType, Expr, Row, Schema, Value};
use mppdb::segmentation::HashRange;
use mppdb::storage::{BatchScan, ColumnData, NodeTableStore};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

const TYPES: [DataType; 4] = [
    DataType::Int64,
    DataType::Float64,
    DataType::Varchar,
    DataType::Boolean,
];

fn random_float(rng: &mut StdRng) -> f64 {
    match rng.random_range(0..8) {
        0 => f64::NAN,
        1 => 0.0,
        2 => -0.0,
        // Fractions and magnitudes far apart: a sum's value depends on
        // the order it adds them in.
        3 => rng.random_range(-40..40) as f64 * 0.1,
        4 => rng.random_range(-9..9) as f64 * 1e16,
        5 => rng.random_range(-3..3) as f64 * 1e308,
        _ => rng.random_range(-4..4) as f64 * 0.5,
    }
}

fn random_int(rng: &mut StdRng) -> i64 {
    match rng.random_range(0..4) {
        0 => i64::MAX - rng.random_range(0..3),
        1 => i64::MIN + rng.random_range(0..3),
        _ => rng.random_range(-5..5),
    }
}

fn random_value(rng: &mut StdRng, dtype: DataType) -> Value {
    if rng.random_bool(0.1) {
        return Value::Null;
    }
    match dtype {
        DataType::Boolean => Value::Boolean(rng.random_bool(0.5)),
        DataType::Int64 => Value::Int64(random_int(rng)),
        DataType::Float64 => Value::Float64(random_float(rng)),
        DataType::Varchar => Value::Varchar(format!("s{}", rng.random_range(0..6))),
    }
}

/// `n` values of one column, shaped toward one encoding: long runs
/// (RLE), a few distinct values shuffled (dictionary), or anything
/// (plain, unless chance says otherwise).
fn random_column(rng: &mut StdRng, dtype: DataType, n: usize) -> Vec<Value> {
    match rng.random_range(0..3) {
        0 => {
            let mut out = Vec::with_capacity(n);
            while out.len() < n {
                let v = random_value(rng, dtype);
                let run = rng.random_range(4..12);
                out.extend(std::iter::repeat_n(v, run));
            }
            out.truncate(n);
            out
        }
        1 => {
            let pool: Vec<Value> = (0..rng.random_range(1..6))
                .map(|_| random_value(rng, dtype))
                .collect();
            (0..n)
                .map(|_| pool[rng.random_range(0..pool.len())].clone())
                .collect()
        }
        _ => (0..n).map(|_| random_value(rng, dtype)).collect(),
    }
}

/// One staged container's rows: columns and hashes.
fn random_batch(rng: &mut StdRng, schema: &Schema, max_rows: usize) -> (Vec<ColumnData>, Vec<u64>) {
    let n = rng.random_range(0..max_rows);
    let columns = schema
        .fields()
        .iter()
        .map(|f| {
            let mut column = ColumnData::with_capacity(n);
            for v in random_column(rng, f.dtype, n) {
                column.push(v);
            }
            column
        })
        .collect();
    let hashes = (0..n).map(|_| rng.random_range(0..1000)).collect();
    (columns, hashes)
}

/// A store of sealed containers (loaded DIRECT, or moved out of the
/// WOS) and open ones, with aborts, committed and pending deletes and
/// mergeouts. Returns the store, the top committed epoch, and a still
/// open transaction holding pending rows.
fn random_store(rng: &mut StdRng, schema: &Schema) -> (NodeTableStore, u64, u64) {
    let mut store = NodeTableStore::new(schema.fields().len());
    let (mut epoch, mut txn) = (0u64, 100u64);
    for _ in 0..rng.random_range(1..6) {
        let (columns, hashes) = random_batch(rng, schema, 48);
        txn += 1;
        if rng.random_bool(0.5) {
            store.insert_pending_wos(columns, hashes, txn);
        } else {
            store.insert_pending_direct(columns, hashes, txn);
        }
        if rng.random_bool(0.15) {
            store.abort(txn);
        } else {
            epoch += 1;
            store.commit(txn, epoch);
        }
        if rng.random_bool(0.3) {
            store.moveout();
        }
        if rng.random_bool(0.2) {
            store.mergeout(2);
        }
        if rng.random_bool(0.5) {
            let locs: Vec<_> = store
                .scan(epoch, None, None)
                .iter()
                .filter(|_| rng.random_bool(0.2))
                .map(|v| v.loc)
                .collect();
            txn += 1;
            store.delete_pending(&locs, txn);
            match rng.random_range(0..3) {
                0 => store.abort(txn),
                1 => {
                    epoch += 1;
                    store.commit(txn, epoch);
                }
                _ => {} // left pending under `txn`
            }
        }
    }
    txn += 1;
    let (columns, hashes) = random_batch(rng, schema, 12);
    store.insert_pending_wos(columns, hashes, txn);
    (store, epoch, txn)
}

fn random_schema(rng: &mut StdRng) -> Schema {
    let n = rng.random_range(1..6);
    let fields: Vec<(String, DataType)> = (0..n)
        .map(|i| (format!("c{i}"), TYPES[rng.random_range(0..TYPES.len())]))
        .collect();
    let pairs: Vec<(&str, DataType)> = fields.iter().map(|(n, t)| (n.as_str(), *t)).collect();
    Schema::from_pairs(&pairs)
}

fn random_predicate(rng: &mut StdRng, schema: &Schema) -> Expr {
    let f = &schema.fields()[rng.random_range(0..schema.fields().len())];
    let col = Expr::col(f.name.clone());
    match (rng.random_range(0..3), random_value(rng, f.dtype)) {
        (0, _) => Expr::IsNotNull(Box::new(col)),
        (1, v) if !v.is_null() => col.lt_eq(Expr::lit(v)),
        (_, v) if !v.is_null() => col.gt(Expr::lit(v)),
        _ => Expr::IsNull(Box::new(col)),
    }
}

/// The calls: each function over a random column (`COUNT(*)` over
/// none); a `SUM` or `AVG` mostly over a numeric column, sometimes over
/// any, which fails on a non-null BOOLEAN or VARCHAR.
fn random_calls(rng: &mut StdRng, schema: &Schema) -> Vec<(AggFunc, Option<usize>)> {
    let ncols = schema.fields().len();
    let numeric: Vec<usize> = (0..ncols)
        .filter(|&i| matches!(schema.field(i).dtype, DataType::Int64 | DataType::Float64))
        .collect();
    (0..rng.random_range(1..5))
        .map(|_| {
            let any = rng.random_range(0..ncols);
            match rng.random_range(0..6) {
                0 => (AggFunc::Count, None),
                1 => (AggFunc::Count, Some(any)),
                2 => (AggFunc::Min, Some(any)),
                3 => (AggFunc::Max, Some(any)),
                k => {
                    let func = if k == 4 { AggFunc::Sum } else { AggFunc::Avg };
                    match numeric.is_empty() || rng.random_bool(0.15) {
                        true => (func, Some(any)),
                        false => (func, Some(numeric[rng.random_range(0..numeric.len())])),
                    }
                }
            }
        })
        .collect()
}

/// Partial rows spelled out: each value by `Debug`, each float by its
/// bits as well.
fn spelled(accs: &GroupedAccs) -> Vec<String> {
    accs.to_partial_rows()
        .iter()
        .map(|row| {
            let values = row.values().iter().map(|v| match v {
                Value::Float64(f) => format!("{v:?}#{:016x}", f.to_bits()),
                _ => format!("{v:?}"),
            });
            values.collect::<Vec<_>>().join(", ")
        })
        .collect()
}

/// What the cases reached, so a generator change that stops reaching a
/// path fails the test instead of passing it vacuously.
#[derive(Default)]
struct Reached {
    /// `(column type, encoding)` of every sealed container column.
    encodings: BTreeSet<(String, &'static str)>,
    open_rows: usize,
    ok: usize,
    errors: usize,
    multi_group: usize,
    nan_keys: usize,
}

fn run_case(seed: u64, reached: &mut Reached) {
    let mut rng = StdRng::seed_from_u64(seed);
    let schema = random_schema(&mut rng);
    let ncols = schema.fields().len();
    let dtypes: Vec<DataType> = schema.fields().iter().map(|f| f.dtype).collect();
    let (store, max_epoch, open_txn) = random_store(&mut rng, &schema);
    for info in store.container_infos() {
        for (c, encoding) in info.encodings.iter().enumerate() {
            reached
                .encodings
                .insert((format!("{:?}", dtypes[c]), encoding));
        }
    }
    reached.open_rows += store.stats().wos_rows;

    for query in 0..4 {
        let as_of = rng.random_range(0..max_epoch + 2);
        let my_txn = match rng.random_range(0..3) {
            0 => None,
            1 => Some(open_txn),
            _ => Some(9999),
        };
        let hash_range = match rng.random_range(0..3) {
            0 => None,
            1 => Some(HashRange::new(rng.random_range(0..500), None)),
            _ => {
                let start = rng.random_range(0..800);
                Some(HashRange::new(
                    start,
                    Some(start + rng.random_range(1..400)),
                ))
            }
        };
        let row_range = rng.random_bool(0.3).then(|| {
            let start = rng.random_range(0..30u64);
            (start, start + rng.random_range(0..40u64))
        });
        let predicate = rng.random_bool(0.3).then(|| {
            random_predicate(&mut rng, &schema)
                .bind(&schema)
                .expect("bind over own schema")
        });
        let group_by: Vec<usize> = (0..rng.random_range(0..4))
            .map(|_| rng.random_range(0..ncols))
            .collect();
        let calls = random_calls(&mut rng, &schema);
        let funcs: Vec<AggFunc> = calls.iter().map(|(f, _)| *f).collect();
        let inputs: Vec<Option<usize>> = calls.iter().map(|(_, c)| *c).collect();
        let tag = format!(
            "seed {seed} query {query}: as_of={as_of} my_txn={my_txn:?} hash={hash_range:?} \
             window={row_range:?} pred={:?} group_by={group_by:?} calls={calls:?} \
             schema={dtypes:?}",
            predicate.as_ref().map(|p| p.to_sql()),
        );

        for no_skip in [true, false] {
            let scan = BatchScan {
                as_of,
                my_txn,
                hash_range: hash_range.as_ref(),
                row_range,
                predicate: predicate.as_ref(),
                projection: None,
                dtypes: &dtypes,
                no_skip,
            };
            let expected = store.scan_batch(&scan).and_then(|out| {
                let rows: Vec<Row> = out.batch.into_rows();
                reached.nan_keys += rows
                    .iter()
                    .filter(|r| {
                        group_by
                            .iter()
                            .any(|&g| matches!(r.get(g), Value::Float64(f) if f.is_nan()))
                    })
                    .count();
                let mut accs = GroupedAccs::new(funcs.clone());
                accs.fold_rows(&rows, &group_by, &inputs)?;
                Ok(accs)
            });
            let actual = store
                .scan_aggregate(&scan, &calls, &group_by)
                .map(|out| out.accs);
            match (expected, actual) {
                (Ok(e), Ok(a)) => {
                    assert_eq!(spelled(&a), spelled(&e), "no_skip={no_skip}: {tag}");
                    reached.ok += 1;
                    reached.multi_group += usize::from(e.len() > 1);
                }
                (Err(e), Err(a)) => {
                    assert_eq!(a.to_string(), e.to_string(), "no_skip={no_skip}: {tag}");
                    reached.errors += 1;
                }
                (e, a) => panic!(
                    "fold and reference disagree on success (no_skip={no_skip}): \
                     reference={:?} fold={:?} ({tag})",
                    e.map(|t| spelled(&t)),
                    a.map(|t| spelled(&t)),
                ),
            }
        }
    }
}

fn run_cases(base: u64) {
    let mut reached = Reached::default();
    for case in 0..256 {
        run_case(base * 1_000 + case, &mut reached);
    }
    for dtype in TYPES {
        for encoding in ["plain", "rle", "dictionary"] {
            assert!(
                reached
                    .encodings
                    .contains(&(format!("{dtype:?}"), encoding)),
                "no {dtype:?} column was encoded {encoding}"
            );
        }
    }
    assert!(reached.open_rows > 0, "no open container");
    assert!(
        reached.ok > 0 && reached.errors > 0,
        "one outcome never reached"
    );
    assert!(reached.multi_group > 0, "no case had two groups");
    assert!(reached.nan_keys > 0, "no NaN key");
}

#[test]
fn aggregate_fold_matches_the_row_fold_256_cases() {
    run_cases(0);
}

/// `scripts/check.sh` runs this once with `--ignored`.
#[test]
#[ignore = "eight more seed sets of the property above; check.sh runs them"]
fn aggregate_fold_matches_the_row_fold_eight_more_seed_sets() {
    for base in 1..=8 {
        run_cases(base);
    }
}
