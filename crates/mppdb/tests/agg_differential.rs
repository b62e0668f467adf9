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
//!
//! The second property holds SQL aggregates, which lower onto that scan,
//! to [`aggregate_rows`] over the rows `SELECT * FROM t [WHERE p] [AT
//! EPOCH e]` returns: 0–2 key columns, the five functions and
//! `COUNT(*)`, aliases, ORDER BY and LIMIT, over tables with NULL, NaN
//! and ±0.0 values, deleted and updated rows, WOS and ROS containers,
//! views, and statements inside a transaction after its own INSERT and
//! DELETE. Each statement runs twice: as drawn, lowered onto the scan,
//! and with a function call added to its WHERE, on the row executor.
//! Output names, declared types and values must match (rows as a list
//! under ORDER BY, as a multiset without), or both must fail.
//!
//! The third property holds plain selects — `*`, bare and qualified
//! columns, arithmetic and comparisons, aliased or not — over the same
//! tables, views, epochs and transactions, to [`Expr::eval`] over the
//! rows `SELECT *` returns. Each statement runs as drawn and again with
//! `ALWAYS(0) AND` in its WHERE; both must give the same output names
//! and declared types whatever the row count, each value must have its
//! column's declared type, and a column's declared type is its
//! expression's [`Expr::result_type`].

use std::cmp::Ordering;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

use common::agg::{aggregate_rows, AggCall, AggFunc, AggRequest, GroupedAccs};
use common::{DataType, Expr, Field, Row, Schema, Value};
use mppdb::segmentation::HashRange;
use mppdb::storage::{BatchScan, ColumnData, NodeTableStore, RowLoc, ScanCounters};
use mppdb::udf::UdfParams;
use mppdb::{Cluster, ClusterConfig, DbResult, ScalarUdf};
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
    spelled_rows(&accs.to_partial_rows())
}

/// Rows spelled out as [`spelled`] spells partial rows.
fn spelled_rows(rows: &[Row]) -> Vec<String> {
    rows.iter()
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
    fold: FoldReached,
}

/// The cases the fold's native accumulators and slot tables must get
/// right bit for bit, counted over the rows of the cases that succeeded.
#[derive(Default)]
struct FoldReached {
    /// A FLOAT `SUM` group with inputs from two containers or more: its
    /// state is carried from one container's pass into the next.
    float_carried: usize,
    /// A FLOAT `SUM` group whose first input is `-0.0`.
    first_negative_zero: usize,
    /// A BIGINT `SUM` group whose running sum wraps.
    int_wrapped: usize,
    /// A `SUM` call with a NULL input.
    sum_nulls: usize,
    /// Encoding of the key column, in a sealed container whose survivors
    /// hold two keys or more, of a case with one key column.
    key_encodings: BTreeSet<&'static str>,
}

/// One group's inputs to a `SUM`, as [`reach_fold`] counts them.
struct SumGroup {
    /// Containers with an input.
    containers: BTreeSet<u64>,
    first: Value,
    /// The running sum of BIGINT inputs, wrapping.
    int_sum: i64,
    wrapped: bool,
}

/// Count what `(group_by, calls)` over `scan` reaches of [`FoldReached`].
fn reach_fold(
    reached: &mut FoldReached,
    store: &NodeTableStore,
    scan: &BatchScan<'_>,
    group_by: &[usize],
    calls: &[(AggFunc, Option<usize>)],
) {
    let rows = store
        .scan_batch(scan)
        .expect("the scan succeeded")
        .batch
        .into_rows();
    let mut containers = Vec::new();
    store
        .for_each_visible_loc(scan, |loc, _| {
            let RowLoc::Ros { container, .. } = loc;
            containers.push(container);
        })
        .expect("the scan succeeded");
    assert_eq!(
        containers.len(),
        rows.len(),
        "one traversal, one survivor order"
    );
    let key = |r: &Row| {
        spelled_rows(&[Row::new(
            group_by.iter().map(|&g| r.get(g).clone()).collect(),
        )])
    };
    for &(func, col) in calls {
        let (AggFunc::Sum, Some(c)) = (func, col) else {
            continue;
        };
        reached.sum_nulls += usize::from(rows.iter().any(|r| r.get(c).is_null()));
        let mut groups: BTreeMap<Vec<String>, SumGroup> = BTreeMap::new();
        for (r, &container) in rows.iter().zip(&containers) {
            let v = r.get(c);
            if v.is_null() {
                continue;
            }
            let g = groups.entry(key(r)).or_insert_with(|| SumGroup {
                containers: BTreeSet::new(),
                first: v.clone(),
                int_sum: 0,
                wrapped: false,
            });
            g.containers.insert(container);
            if let Value::Int64(i) = v {
                let (sum, wrapped) = g.int_sum.overflowing_add(*i);
                (g.int_sum, g.wrapped) = (sum, g.wrapped || wrapped);
            }
        }
        for g in groups.values() {
            if let Value::Float64(f) = g.first {
                reached.float_carried += usize::from(g.containers.len() >= 2);
                reached.first_negative_zero += usize::from(f.to_bits() == (-0.0f64).to_bits());
            }
            reached.int_wrapped += usize::from(g.wrapped);
        }
    }
    if let &[k] = group_by {
        let infos = store.container_infos();
        let mut keys_in: Vec<(u64, BTreeSet<Vec<String>>)> = Vec::new();
        for (r, &container) in rows.iter().zip(&containers) {
            match keys_in.iter_mut().find(|(c, _)| *c == container) {
                Some((_, keys)) => {
                    keys.insert(key(r));
                }
                None => keys_in.push((container, BTreeSet::from([key(r)]))),
            }
        }
        for (container, keys) in keys_in {
            let info = infos.iter().find(|info| info.id == container);
            if let (Some(info), true) = (info, keys.len() >= 2) {
                reached.key_encodings.insert(info.encodings[k]);
            }
        }
    }
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
                    reach_fold(&mut reached.fold, &store, &scan, &group_by, &calls);
                    if no_skip {
                        assert_eq!(
                            fold_counters(&store, &scan, &group_by, &calls),
                            batch_counters(&store, &scan, &group_by, &calls),
                            "the fold's counters are the projected scan's: {tag}"
                        );
                    }
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

/// `scan_aggregate`'s counters.
fn fold_counters(
    store: &NodeTableStore,
    scan: &BatchScan<'_>,
    group_by: &[usize],
    calls: &[(AggFunc, Option<usize>)],
) -> ScanCounters {
    let out = store.scan_aggregate(scan, calls, group_by);
    out.expect("the fold succeeded").counters
}

/// The counters of `scan_batch` over the same scan projected onto the
/// columns the fold reads: its keys and its calls' inputs.
fn batch_counters(
    store: &NodeTableStore,
    scan: &BatchScan<'_>,
    group_by: &[usize],
    calls: &[(AggFunc, Option<usize>)],
) -> ScanCounters {
    let mut needed: Vec<usize> = group_by
        .iter()
        .copied()
        .chain(calls.iter().filter_map(|&(_, c)| c))
        .collect();
    needed.sort_unstable();
    needed.dedup();
    let dtypes: Vec<DataType> = needed.iter().map(|&c| scan.dtypes[c]).collect();
    let projected = BatchScan {
        projection: Some(&needed),
        dtypes: &dtypes,
        ..*scan
    };
    let out = store.scan_batch(&projected);
    out.expect("the scan succeeded").counters
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
    let fold = &reached.fold;
    assert!(
        fold.float_carried > 0,
        "no FLOAT SUM group carried across containers"
    );
    assert!(
        fold.first_negative_zero > 0,
        "no FLOAT SUM group began with -0.0"
    );
    assert!(fold.int_wrapped > 0, "no BIGINT SUM wrapped");
    assert!(fold.sum_nulls > 0, "no SUM input was NULL");
    for encoding in ["plain", "rle", "dictionary"] {
        assert!(
            fold.key_encodings.contains(encoding),
            "no {encoding} key column held two groups in one container"
        );
    }
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

// ----- SQL aggregates against the row fold ----------------------------

/// A FLOAT for the SQL property: NaN, both zeros and halves. Halves sum
/// exactly in any order; a segmented table's SUM adds per-node partials,
/// so values whose sum depends on the order of the additions (as the
/// fold property above draws) would make two right answers differ in
/// their last bits.
fn sql_float(rng: &mut StdRng) -> f64 {
    match rng.random_range(0..6) {
        0 => f64::NAN,
        1 => 0.0,
        2 => -0.0,
        _ => rng.random_range(-8..8) as f64 * 0.5,
    }
}

/// A value for the SQL property. BIGINTs are small or multiples of
/// 2^40, so that AVG's `f64` sum is exact in any order too.
fn sql_value(rng: &mut StdRng, dtype: DataType) -> Value {
    if rng.random_bool(0.15) {
        return Value::Null;
    }
    match dtype {
        DataType::Boolean => Value::Boolean(rng.random_bool(0.5)),
        DataType::Int64 if rng.random_bool(0.2) => Value::Int64(rng.random_range(-3i64..3) << 40),
        DataType::Int64 => Value::Int64(rng.random_range(-5..5)),
        DataType::Float64 => Value::Float64(sql_float(rng)),
        DataType::Varchar => Value::Varchar(format!("s{}", rng.random_range(0..4))),
    }
}

fn sql_rows(rng: &mut StdRng, schema: &Schema, n: usize) -> Vec<Row> {
    (0..n)
        .map(|_| {
            let values = schema.fields().iter().map(|f| sql_value(rng, f.dtype));
            Row::new(values.collect())
        })
        .collect()
}

/// A literal of `dtype` in SQL text (no NULL, no NaN).
fn sql_literal(rng: &mut StdRng, dtype: DataType) -> String {
    match dtype {
        DataType::Boolean => ["TRUE", "FALSE"][rng.random_range(0..2)].to_string(),
        DataType::Int64 => rng.random_range(-5..5).to_string(),
        DataType::Float64 => format!("{:?}", rng.random_range(-8..8) as f64 * 0.5),
        DataType::Varchar => format!("'s{}'", rng.random_range(0..4)),
    }
}

fn sql_atom(rng: &mut StdRng, schema: &Schema) -> String {
    let f = &schema.fields()[rng.random_range(0..schema.fields().len())];
    match rng.random_range(0..5) {
        0 => format!("{} IS NULL", f.name),
        1 => format!("{} IS NOT NULL", f.name),
        _ => {
            let op = ["=", "<>", "<", "<=", ">", ">="][rng.random_range(0..6)];
            format!("{} {op} {}", f.name, sql_literal(rng, f.dtype))
        }
    }
}

/// A WHERE clause that lowers onto a storage predicate.
fn sql_predicate(rng: &mut StdRng, schema: &Schema) -> String {
    let a = sql_atom(rng, schema);
    match rng.random_range(0..4) {
        0 => format!("{a} AND {}", sql_atom(rng, schema)),
        1 => format!("{a} OR {}", sql_atom(rng, schema)),
        2 => format!("NOT {a}"),
        _ => a,
    }
}

/// SQL's ORDER BY over output positions: NULLs last either way, values
/// by `sql_cmp`, NaN after every number (a column holds one type).
fn order_rows(rows: &mut [Row], keys: &[(usize, bool)]) {
    rows.sort_by(|a, b| {
        for &(i, descending) in keys {
            let (x, y) = (a.get(i), b.get(i));
            let ord = match (x.is_null(), y.is_null()) {
                (true, true) => Ordering::Equal,
                (true, false) => Ordering::Greater,
                (false, true) => Ordering::Less,
                (false, false) => {
                    let nan = |v: &Value| matches!(v, Value::Float64(f) if f.is_nan());
                    let ord = x.sql_cmp(y).unwrap_or_else(|| nan(x).cmp(&nan(y)));
                    if descending {
                        ord.reverse()
                    } else {
                        ord
                    }
                }
            };
            if ord != Ordering::Equal {
                return ord;
            }
        }
        Ordering::Equal
    });
}

/// A generated aggregate SELECT: its item list and the clauses after
/// FROM and WHERE, and what the reference needs to answer it.
struct Select {
    items: String,
    /// ` GROUP BY …`, ` ORDER BY …`, ` LIMIT …`, each when present.
    tail: String,
    /// The keys and calls, with a `COUNT(*)` added when no item calls.
    request: AggRequest,
    /// Per item, its column of `request`'s output and its SQL name.
    outputs: Vec<(usize, String)>,
    /// ORDER BY as (item index, descending).
    order: Vec<(usize, bool)>,
    limit: Option<usize>,
}

/// 0–2 key columns; 1–4 items, each a key or a call (the five functions
/// and `COUNT(*)`), some aliased; maybe an ORDER BY over item positions
/// and a LIMIT.
fn random_select(rng: &mut StdRng, schema: &Schema) -> Select {
    let ncols = schema.fields().len();
    let keys: Vec<String> = (0..rng.random_range(0..3))
        .map(|_| format!("c{}", rng.random_range(0..ncols)))
        .collect();
    let (mut texts, mut outputs, mut calls) = (Vec::new(), Vec::new(), Vec::new());
    for i in 0..rng.random_range(1..5) {
        let (text, name, at) = match keys.is_empty() || rng.random_bool(0.7) {
            true => {
                let call = match random_calls(rng, schema)[0] {
                    (func, Some(c)) => AggCall::new(func, format!("c{c}")),
                    (_, None) => AggCall::count_star(),
                };
                let text = format!(
                    "{}({})",
                    call.func.sql_name().to_uppercase(),
                    call.column.as_deref().unwrap_or("*")
                );
                let name = call.func.sql_name().to_string();
                calls.push(call);
                (text, name, keys.len() + calls.len() - 1)
            }
            false => {
                let k = rng.random_range(0..keys.len());
                // The first key of that name: duplicates group alike.
                let at = keys.iter().position(|g| *g == keys[k]).unwrap();
                (keys[k].clone(), keys[k].clone(), at)
            }
        };
        if rng.random_bool(0.2) {
            texts.push(format!("{text} AS a{i}"));
            outputs.push((at, format!("a{i}")));
        } else {
            texts.push(text);
            outputs.push((at, name));
        }
    }
    let mut tail = String::new();
    if !keys.is_empty() {
        tail += &format!(" GROUP BY {}", keys.join(", "));
    }
    let order: Vec<(usize, bool)> = match rng.random_bool(0.4) {
        true => (0..rng.random_range(1..3))
            .map(|_| (rng.random_range(0..outputs.len()), rng.random_bool(0.5)))
            .collect(),
        false => Vec::new(),
    };
    if !order.is_empty() {
        let order: Vec<String> = order
            .iter()
            .map(|&(i, desc)| format!("{}{}", i + 1, if desc { " DESC" } else { "" }))
            .collect();
        tail += &format!(" ORDER BY {}", order.join(", "));
    }
    let limit = rng.random_bool(0.3).then(|| rng.random_range(0..5usize));
    if let Some(n) = limit {
        tail += &format!(" LIMIT {n}");
    }
    if calls.is_empty() {
        calls.push(AggCall::count_star());
    }
    Select {
        items: texts.join(", "),
        tail,
        request: AggRequest {
            group_by: keys,
            calls,
        },
        outputs,
        order,
        limit,
    }
}

impl Select {
    /// The reference answer over `rows`: [`aggregate_rows`], its columns
    /// put in item order under their SQL names, sorted as ORDER BY asks;
    /// LIMIT is left to [`Select::compare`].
    fn reference(&self, schema: &Schema, rows: &[Row]) -> Result<(Schema, Vec<Row>), String> {
        let (out, rows) = aggregate_rows(schema, rows, &self.request).map_err(|e| e.to_string())?;
        let idx: Vec<usize> = self.outputs.iter().map(|&(i, _)| i).collect();
        let fields = self
            .outputs
            .iter()
            .map(|(i, name)| Field::new(name.clone(), out.field(*i).dtype))
            .collect();
        let mut rows: Vec<Row> = rows.iter().map(|r| r.project(&idx)).collect();
        order_rows(&mut rows, &self.order);
        Ok((Schema::new(fields), rows))
    }

    /// With ORDER BY the rows are a list, the reference's first `limit`;
    /// without, a multiset, and LIMIT keeps some `limit` of the groups.
    fn compare(&self, got: &[Row], mut want: Vec<Row>, tag: &str) {
        if !self.order.is_empty() {
            want.truncate(self.limit.unwrap_or(usize::MAX));
            assert_eq!(
                spelled_rows(got),
                spelled_rows(&want),
                "ordered rows: {tag}"
            );
            return;
        }
        let (mut got, mut want) = (spelled_rows(got), spelled_rows(&want));
        got.sort();
        want.sort();
        let Some(n) = self.limit else {
            assert_eq!(got, want, "rows: {tag}");
            return;
        };
        assert_eq!(got.len(), n.min(want.len()), "row count: {tag}");
        for row in &got {
            let at = want.iter().position(|w| w == row);
            let at = at.unwrap_or_else(|| panic!("row {row} not in {want:?}: {tag}"));
            want.remove(at);
        }
    }
}

/// What the SQL cases reached.
#[derive(Default)]
struct SqlReached {
    ok: usize,
    errors: usize,
    multi_group: usize,
    nan_keys: usize,
    moved_out: usize,
    deleted: u64,
    updated: u64,
    in_txn: usize,
    views: usize,
    pinned: usize,
    ordered: usize,
    limited: usize,
    typed_nulls: usize,
}

/// `ALWAYS(x)`: TRUE for every row. A WHERE clause that calls a function
/// does not lower, so `WHERE ALWAYS(0) AND (p)` runs a select on the row
/// executor with `WHERE p`'s rows.
struct Always;

impl ScalarUdf for Always {
    fn name(&self) -> &str {
        "always"
    }

    fn eval(&self, _args: &[Value], _params: &UdfParams) -> DbResult<Value> {
        Ok(Value::Boolean(true))
    }
}

fn run_sql_case(seed: u64, reached: &mut SqlReached) {
    let mut rng = StdRng::seed_from_u64(seed);
    let schema = random_schema(&mut rng);
    let ncols = schema.fields().len();
    let cluster = Cluster::new(ClusterConfig::default());
    cluster.register_udf(Arc::new(Always));
    let mut s = cluster.connect(0).unwrap();
    let columns: Vec<String> = schema
        .fields()
        .iter()
        .map(|f| format!("{} {}", f.name, f.dtype.sql_name()))
        .collect();
    let placement = match rng.random_range(0..3) {
        0 => " UNSEGMENTED ALL NODES".to_string(),
        1 => format!(
            " SEGMENTED BY HASH(c{}) ALL NODES",
            rng.random_range(0..ncols)
        ),
        _ => String::new(),
    };
    s.execute(&format!(
        "CREATE TABLE t ({}){placement}",
        columns.join(", ")
    ))
    .unwrap();

    let mut epochs = vec![cluster.current_epoch()];
    for _ in 0..rng.random_range(1..4) {
        let n = rng.random_range(0..40);
        s.insert("t", sql_rows(&mut rng, &schema, n)).unwrap();
        if rng.random_bool(0.4) {
            reached.moved_out += cluster.moveout_all();
        }
        if rng.random_bool(0.4) {
            let sql = format!("DELETE FROM t WHERE {}", sql_predicate(&mut rng, &schema));
            reached.deleted += s.execute(&sql).unwrap().affected().unwrap();
        }
        if rng.random_bool(0.3) {
            let f = &schema.fields()[rng.random_range(0..ncols)];
            let sql = format!(
                "UPDATE t SET {} = {} WHERE {}",
                f.name,
                sql_literal(&mut rng, f.dtype),
                sql_predicate(&mut rng, &schema)
            );
            reached.updated += s.execute(&sql).unwrap().affected().unwrap();
        }
        epochs.push(cluster.current_epoch());
    }
    let view = rng.random_bool(0.4);
    if view {
        let filter = match rng.random_bool(0.5) {
            true => format!(" WHERE {}", sql_predicate(&mut rng, &schema)),
            false => String::new(),
        };
        s.execute(&format!("CREATE VIEW v AS SELECT * FROM t{filter}"))
            .unwrap();
    }
    // Read-your-writes: the statements below see the open transaction's
    // own insert and delete.
    let in_txn = rng.random_bool(0.3);
    if in_txn {
        s.execute("BEGIN").unwrap();
        let n = rng.random_range(0..12);
        s.insert("t", sql_rows(&mut rng, &schema, n)).unwrap();
        let sql = format!("DELETE FROM t WHERE {}", sql_predicate(&mut rng, &schema));
        reached.deleted += s.execute(&sql).unwrap().affected().unwrap();
    }

    for query in 0..4 {
        let relation = if view && rng.random_bool(0.5) {
            "v"
        } else {
            "t"
        };
        let at = match rng.random_bool(0.25) {
            true => format!("AT EPOCH {} ", epochs[rng.random_range(0..epochs.len())]),
            false => String::new(),
        };
        let filter = match rng.random_bool(0.6) {
            true => format!(" WHERE {}", sql_predicate(&mut rng, &schema)),
            false => String::new(),
        };
        let select = random_select(&mut rng, &schema);
        let base = s
            .execute(&format!("{at}SELECT * FROM {relation}{filter}"))
            .and_then(|r| r.rows())
            .unwrap_or_else(|e| panic!("reference read failed: {e} ({at}{relation}{filter})"));
        reached.nan_keys += base
            .rows
            .iter()
            .filter(|r| {
                let nan = |k: &String| matches!(r.get(base.schema.index_of(k).unwrap()), Value::Float64(f) if f.is_nan());
                select.request.group_by.iter().any(nan)
            })
            .count();
        // The statement lowers onto the aggregate scan; its twin, whose
        // WHERE calls a function, runs on the row executor. Both must
        // give the reference's answer.
        let twin_filter = match filter.strip_prefix(" WHERE ") {
            Some(p) => format!(" WHERE ALWAYS(0) AND ({p})"),
            None => " WHERE ALWAYS(0)".to_string(),
        };
        for (lowered, filter) in [(true, &filter), (false, &twin_filter)] {
            let sql = format!(
                "SELECT {} FROM {relation}{filter}{}",
                select.items, select.tail
            );
            let tag =
                format!("seed {seed} query {query}: {at}{sql} (schema {schema}, txn {in_txn})");
            let plan = s
                .execute(&format!("EXPLAIN {sql}"))
                .unwrap()
                .rows()
                .unwrap();
            let pushed = plan.rows.iter().any(|r| {
                let line = r.get(0).as_str().unwrap();
                line.starts_with("aggregate:") && line.ends_with("[pushed down to storage]")
            });
            assert_eq!(pushed, lowered, "plan {:?}: {tag}", plan.rows);
            let actual = s
                .execute(&format!("{at}{sql}"))
                .and_then(|r| r.rows())
                .map_err(|e| e.to_string());
            match (actual, select.reference(&base.schema, &base.rows)) {
                (Ok(a), Ok((schema, rows))) => {
                    let columns = |s: &Schema| -> Vec<(String, DataType)> {
                        s.fields()
                            .iter()
                            .map(|f| (f.name.clone(), f.dtype))
                            .collect()
                    };
                    let want = columns(&schema);
                    assert_eq!(columns(&a.schema), want, "output names and types: {tag}");
                    reached.multi_group += usize::from(rows.len() > 1);
                    reached.typed_nulls += rows
                        .iter()
                        .flat_map(|r| r.values().iter().zip(&want))
                        .filter(|(v, (_, dtype))| v.is_null() && *dtype != DataType::Varchar)
                        .count();
                    select.compare(&a.rows, rows, &tag);
                    reached.ok += 1;
                }
                (Err(_), Err(_)) => reached.errors += 1,
                (a, e) => panic!(
                    "SQL and reference disagree on success: sql={:?} reference={:?} ({tag})",
                    a.map(|r| spelled_rows(&r.rows)),
                    e.map(|(_, rows)| spelled_rows(&rows)),
                ),
            }
        }
        reached.views += usize::from(relation == "v");
        reached.pinned += usize::from(!at.is_empty());
        reached.ordered += usize::from(!select.order.is_empty());
        reached.limited += usize::from(select.limit.is_some());
        reached.in_txn += usize::from(in_txn);
    }
    if in_txn {
        s.execute(if rng.random_bool(0.5) {
            "COMMIT"
        } else {
            "ROLLBACK"
        })
        .unwrap();
    }
}

fn run_sql_cases(base: u64) {
    let mut reached = SqlReached::default();
    for case in 0..256 {
        run_sql_case(base * 1_000 + case, &mut reached);
    }
    let r = &reached;
    for (what, n) in [
        ("successful statement", r.ok),
        ("failing statement", r.errors),
        ("multi-group result", r.multi_group),
        ("NaN key", r.nan_keys),
        ("row moved out to the ROS", r.moved_out),
        ("deleted row", r.deleted as usize),
        ("updated row", r.updated as usize),
        ("statement in an open transaction", r.in_txn),
        ("view", r.views),
        ("AT EPOCH", r.pinned),
        ("ORDER BY", r.ordered),
        ("LIMIT", r.limited),
        ("typed NULL output", r.typed_nulls),
    ] {
        assert!(n > 0, "no {what}");
    }
}

#[test]
fn sql_aggregates_match_the_row_fold_256_cases() {
    run_sql_cases(0);
}

/// `scripts/check.sh` runs this once with `--ignored`.
#[test]
#[ignore = "eight more seed sets of the property above; check.sh runs them"]
fn sql_aggregates_match_the_row_fold_eight_more_seed_sets() {
    for base in 1..=8 {
        run_sql_cases(base);
    }
}

// ----- plain selects against `Expr::eval` ------------------------------

/// A generated operand or expression: its SQL text and the [`Expr`] it
/// means over `SELECT *`'s columns.
fn projection_operand(rng: &mut StdRng, schema: &Schema, depth: u32) -> (String, Expr) {
    let numeric = [DataType::Int64, DataType::Float64];
    if depth == 0 || rng.random_bool(0.4) {
        if rng.random_bool(0.7) {
            let f = &schema.fields()[rng.random_range(0..schema.fields().len())];
            return (f.name.clone(), Expr::col(f.name.clone()));
        }
        // A literal, mostly numeric; parenthesized so a minus sign never
        // meets another.
        let dtype = match rng.random_bool(0.85) {
            true => numeric[rng.random_range(0..2)],
            false => TYPES[rng.random_range(0..TYPES.len())],
        };
        let text = sql_literal(rng, dtype);
        let value = match dtype {
            DataType::Boolean => Value::Boolean(text == "TRUE"),
            DataType::Int64 => Value::Int64(text.parse().unwrap()),
            DataType::Float64 => Value::Float64(text.parse().unwrap()),
            DataType::Varchar => Value::Varchar(text.trim_matches('\'').to_string()),
        };
        return (format!("({text})"), Expr::lit(value));
    }
    use common::expr::BinaryOp::*;
    let (l, le) = projection_operand(rng, schema, depth - 1);
    match rng.random_range(0..8) {
        0 => (format!("(-{l})"), Expr::Neg(Box::new(le))),
        1 => (format!("({l} IS NULL)"), Expr::IsNull(Box::new(le))),
        k => {
            let ops = [
                ("+", Add),
                ("-", Sub),
                ("*", Mul),
                ("/", Div),
                ("%", Mod),
                ("<", Lt),
                ("=", Eq),
                (">=", GtEq),
            ];
            // Mostly `+`, `-` and `*`, which fail only on a wrong type.
            let (text, op) = ops[match k {
                2 => rng.random_range(0..ops.len()),
                _ => rng.random_range(0..3),
            }];
            let (r, re) = projection_operand(rng, schema, depth - 1);
            (format!("({l} {text} {r})"), Expr::binary(le, op, re))
        }
    }
}

/// A generated plain select: its SQL pieces and its reference.
struct Projection {
    /// The item list; `*` alone, or expressions.
    items: String,
    /// ` ORDER BY …`, ` LIMIT …`, each when present.
    tail: String,
    /// Per output column: its expression over `SELECT *`'s columns, and
    /// its SQL name.
    exprs: Vec<(Expr, String)>,
    /// Whether every item is a bare or qualified column (or `*`).
    plain: bool,
    order: Vec<(usize, bool)>,
    limit: Option<usize>,
}

/// `*`, or 1–4 items: bare columns, columns qualified by `qualifier`
/// (in any case), and expressions of depth up to 2, some aliased; maybe
/// an ORDER BY over item positions and a LIMIT.
fn random_projection(rng: &mut StdRng, schema: &Schema, qualifier: &str) -> Projection {
    let ncols = schema.fields().len();
    let (mut texts, mut exprs, mut plain) = (Vec::new(), Vec::new(), true);
    if rng.random_bool(0.15) {
        texts.push("*".to_string());
        for f in schema.fields() {
            exprs.push((Expr::col(f.name.clone()), f.name.clone()));
        }
    } else {
        for i in 0..rng.random_range(1..5) {
            let c = format!("c{}", rng.random_range(0..ncols));
            let (text, expr) = match rng.random_range(0..4) {
                0 => (c.clone(), Expr::col(c)),
                1 => {
                    let q = match rng.random_bool(0.5) {
                        true => qualifier.to_uppercase(),
                        false => qualifier.to_string(),
                    };
                    (format!("{q}.{c}"), Expr::col(c))
                }
                _ => projection_operand(rng, schema, 2),
            };
            let name = match &expr {
                Expr::Column(name) => name.clone(),
                _ => {
                    plain = false;
                    format!("col{i}")
                }
            };
            if rng.random_bool(0.25) {
                plain = false;
                texts.push(format!("{text} AS a{i}"));
                exprs.push((expr, format!("a{i}")));
            } else {
                texts.push(text);
                exprs.push((expr, name));
            }
        }
    }
    let mut tail = String::new();
    let order: Vec<(usize, bool)> = match rng.random_bool(0.4) {
        true => (0..rng.random_range(1..3))
            .map(|_| (rng.random_range(0..exprs.len()), rng.random_bool(0.5)))
            .collect(),
        false => Vec::new(),
    };
    if !order.is_empty() {
        let keys: Vec<String> = order
            .iter()
            .map(|&(i, desc)| format!("{}{}", i + 1, if desc { " DESC" } else { "" }))
            .collect();
        tail += &format!(" ORDER BY {}", keys.join(", "));
    }
    let limit = rng.random_bool(0.3).then(|| rng.random_range(0..5usize));
    if let Some(n) = limit {
        tail += &format!(" LIMIT {n}");
    }
    Projection {
        items: texts.join(", "),
        tail,
        exprs,
        plain,
        order,
        limit,
    }
}

impl Projection {
    /// The reference: output names and types, and every row of `base`
    /// through [`Expr::eval`] (`Err` if any row fails), sorted as ORDER
    /// BY asks; LIMIT is left to [`Projection::compare`].
    fn reference(&self, schema: &Schema, base: &[Row]) -> Result<(Columns, Vec<Row>), String> {
        let bound: Vec<Expr> = self
            .exprs
            .iter()
            .map(|(e, _)| e.bind(schema).unwrap())
            .collect();
        let fields = self
            .exprs
            .iter()
            .zip(&bound)
            .map(|((_, name), e)| {
                let dtype = e.result_type(schema).unwrap();
                (name.clone(), dtype.unwrap_or(DataType::Varchar))
            })
            .collect();
        let mut rows = base
            .iter()
            .map(|row| bound.iter().map(|e| e.eval(row)).collect())
            .collect::<Result<Vec<Row>, _>>()
            .map_err(|e| e.to_string())?;
        order_rows(&mut rows, &self.order);
        Ok((fields, rows))
    }

    /// Without ORDER BY the rows are a multiset, and LIMIT keeps some
    /// `limit` of them. With it, rows tied on the keys may come in any
    /// order: the answer must be sorted, and hold the reference's rows,
    /// or under LIMIT its first `limit` up to ties.
    fn compare(&self, got: &[Row], want: &[Row], tag: &str) {
        let sorted = |rows: &[Row]| {
            let mut again = rows.to_vec();
            order_rows(&mut again, &self.order);
            spelled_rows(&again) == spelled_rows(rows)
        };
        assert!(sorted(got), "rows out of order: {tag}");
        let mut rest = spelled_rows(want);
        assert_eq!(
            got.len(),
            self.limit.unwrap_or(usize::MAX).min(want.len()),
            "row count: {tag}"
        );
        for row in spelled_rows(got) {
            let at = rest.iter().position(|w| *w == row);
            let at = at.unwrap_or_else(|| panic!("row {row} not in {want:?}: {tag}"));
            rest.remove(at);
        }
        // Under ORDER BY and LIMIT, no row left out sorts before the
        // last row kept.
        if let (Some(last), false) = (got.last(), self.order.is_empty()) {
            for row in want {
                if !sorted(&[last.clone(), row.clone()]) {
                    let spelled = &spelled_rows(std::slice::from_ref(row))[0];
                    assert!(
                        !rest.contains(spelled),
                        "{spelled} sorts before a kept row: {tag}"
                    );
                }
            }
        }
    }
}

/// Output names and declared types.
type Columns = Vec<(String, DataType)>;

fn columns(schema: &Schema) -> Columns {
    let fields = schema.fields().iter();
    fields.map(|f| (f.name.clone(), f.dtype)).collect()
}

/// What the projection cases reached.
#[derive(Default)]
struct ProjectionReached {
    ok: usize,
    errors: usize,
    lowered: usize,
    empty_expressions: usize,
    typed_nulls: usize,
    qualified: usize,
    in_txn: usize,
    views: usize,
    pinned: usize,
    ordered: usize,
    limited: usize,
}

fn run_projection_case(seed: u64, reached: &mut ProjectionReached) {
    let mut rng = StdRng::seed_from_u64(seed);
    let schema = random_schema(&mut rng);
    let ncols = schema.fields().len();
    let cluster = Cluster::new(ClusterConfig::default());
    cluster.register_udf(Arc::new(Always));
    let mut s = cluster.connect(0).unwrap();
    let defs: Vec<String> = schema
        .fields()
        .iter()
        .map(|f| format!("{} {}", f.name, f.dtype.sql_name()))
        .collect();
    let placement = match rng.random_range(0..3) {
        0 => " UNSEGMENTED ALL NODES".to_string(),
        1 => format!(
            " SEGMENTED BY HASH(c{}) ALL NODES",
            rng.random_range(0..ncols)
        ),
        _ => String::new(),
    };
    s.execute(&format!("CREATE TABLE t ({}){placement}", defs.join(", ")))
        .unwrap();
    let mut epochs = vec![cluster.current_epoch()];
    for _ in 0..rng.random_range(1..4) {
        let n = rng.random_range(0..12);
        s.insert("t", sql_rows(&mut rng, &schema, n)).unwrap();
        if rng.random_bool(0.4) {
            cluster.moveout_all();
        }
        if rng.random_bool(0.4) {
            let sql = format!("DELETE FROM t WHERE {}", sql_predicate(&mut rng, &schema));
            s.execute(&sql).unwrap();
        }
        epochs.push(cluster.current_epoch());
    }
    let view = rng.random_bool(0.4);
    if view {
        let filter = match rng.random_bool(0.5) {
            true => format!(" WHERE {}", sql_predicate(&mut rng, &schema)),
            false => String::new(),
        };
        s.execute(&format!("CREATE VIEW v AS SELECT * FROM t{filter}"))
            .unwrap();
    }
    let in_txn = rng.random_bool(0.3);
    if in_txn {
        s.execute("BEGIN").unwrap();
        let n = rng.random_range(0..6);
        s.insert("t", sql_rows(&mut rng, &schema, n)).unwrap();
    }

    for query in 0..4 {
        let relation = if view && rng.random_bool(0.5) {
            "v"
        } else {
            "t"
        };
        let at = match rng.random_bool(0.25) {
            true => format!("AT EPOCH {} ", epochs[rng.random_range(0..epochs.len())]),
            false => String::new(),
        };
        let filter = match rng.random_bool(0.6) {
            true => format!(" WHERE {}", sql_predicate(&mut rng, &schema)),
            false => String::new(),
        };
        let (from, qualifier) = match rng.random_bool(0.3) {
            true => (format!("{relation} AS r"), "r"),
            false => (relation.to_string(), relation),
        };
        let select = random_projection(&mut rng, &schema, qualifier);
        let base = s
            .execute(&format!("{at}SELECT * FROM {relation}{filter}"))
            .and_then(|r| r.rows())
            .unwrap_or_else(|e| panic!("reference read failed: {e} ({at}{relation}{filter})"));
        let reference = select.reference(&base.schema, &base.rows);
        let twin_filter = match filter.strip_prefix(" WHERE ") {
            Some(p) => format!(" WHERE ALWAYS(0) AND ({p})"),
            None => " WHERE ALWAYS(0)".to_string(),
        };
        let lowerable = select.plain && select.order.is_empty();
        let mut answers = Vec::new();
        for (lowered, filter) in [(lowerable, &filter), (false, &twin_filter)] {
            let sql = format!("SELECT {} FROM {from}{filter}{}", select.items, select.tail);
            let tag =
                format!("seed {seed} query {query}: {at}{sql} (schema {schema}, txn {in_txn})");
            let plan = s
                .execute(&format!("EXPLAIN {sql}"))
                .unwrap()
                .rows()
                .unwrap();
            let pushed = plan
                .rows
                .iter()
                .any(|r| r.get(0).as_str().unwrap() == "projection: [pushed down to storage]");
            assert_eq!(pushed, lowered, "plan {:?}: {tag}", plan.rows);
            let actual = s
                .execute(&format!("{at}{sql}"))
                .and_then(|r| r.rows())
                .map_err(|e| e.to_string());
            match (&actual, &reference) {
                (Ok(a), Ok((want, rows))) => {
                    assert_eq!(&columns(&a.schema), want, "output names and types: {tag}");
                    for row in &a.rows {
                        for (v, (_, dtype)) in row.values().iter().zip(want) {
                            let ok = v.is_null() || v.data_type() == Some(*dtype);
                            assert!(ok, "{v:?} in a {dtype} column: {tag}");
                            reached.typed_nulls += usize::from(v.is_null());
                        }
                    }
                    select.compare(&a.rows, rows, &tag);
                    reached.ok += 1;
                    reached.lowered += usize::from(lowered);
                    reached.empty_expressions += usize::from(a.rows.is_empty() && !select.plain);
                }
                (Err(_), Err(_)) => reached.errors += 1,
                (a, e) => panic!(
                    "SQL and reference disagree on success: sql={:?} reference={:?} ({tag})",
                    a.as_ref().map(|r| spelled_rows(&r.rows)),
                    e.as_ref().map(|(_, rows)| spelled_rows(rows)),
                ),
            }
            answers.push(actual.map(|a| (columns(&a.schema), a.rows.len())));
        }
        assert_eq!(
            answers[0], answers[1],
            "the twins differ: seed {seed} query {query}"
        );
        reached.qualified += usize::from(select.items.contains('.'));
        reached.views += usize::from(relation == "v");
        reached.pinned += usize::from(!at.is_empty());
        reached.ordered += usize::from(!select.order.is_empty());
        reached.limited += usize::from(select.limit.is_some());
        reached.in_txn += usize::from(in_txn);
    }
    if in_txn {
        s.execute("ROLLBACK").unwrap();
    }
}

fn run_projection_cases(base: u64) {
    let mut reached = ProjectionReached::default();
    for case in 0..256 {
        run_projection_case(base * 1_000 + case, &mut reached);
    }
    let r = &reached;
    for (what, n) in [
        ("successful statement", r.ok),
        ("failing statement", r.errors),
        ("lowered projection", r.lowered),
        ("expression over no rows", r.empty_expressions),
        ("NULL output", r.typed_nulls),
        ("qualified column", r.qualified),
        ("statement in an open transaction", r.in_txn),
        ("view", r.views),
        ("AT EPOCH", r.pinned),
        ("ORDER BY", r.ordered),
        ("LIMIT", r.limited),
    ] {
        assert!(n > 0, "no {what}");
    }
}

#[test]
fn sql_projections_match_expr_eval_256_cases() {
    run_projection_cases(0);
}

/// `scripts/check.sh` runs this once with `--ignored`.
#[test]
#[ignore = "eight more seed sets of the property above; check.sh runs them"]
fn sql_projections_match_expr_eval_eight_more_seed_sets() {
    for base in 1..=8 {
        run_projection_cases(base);
    }
}
