//! The typed predicate kernels against the interpreter they stand in
//! for: every generated scan runs twice through the one traversal, once
//! as the engine runs it and once with every step sent to the
//! interpreter ([`probe::INTERPRET_ONLY`]), and the two must agree on
//! the survivors, on all five [`ScanCounters`] fields and on the error;
//! the survivors must also be the ones the row-at-a-time reference
//! (`NodeTableStore::scan` + `Expr::matches`) keeps.

#![cfg(test)]

use common::expr::BinaryOp;
use common::{Expr, Row, Value};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

use super::{probe, PredPlan};
use crate::segmentation::HashRange;
use crate::storage::encoding::{encode_dictionary, encode_rle, ColumnData, EncodedColumn};
use crate::storage::stats::ContainerStats;
use crate::storage::store::{BatchScan, NodeTableStore, RowLoc, ScanCounters};

const TWO_53: i64 = 1 << 53;

/// Column ordinals of the generated table. `HOLLOW` is all-NULL in some
/// containers and floats in the others.
const BOOL: usize = 0;
const INT: usize = 1;
const FLOAT: usize = 2;
const TEXT: usize = 3;
const HOLLOW: usize = 4;
const COLUMNS: usize = 5;

fn pick<T: Clone>(rng: &mut StdRng, from: &[T]) -> T {
    from[rng.random_range(0..from.len())].clone()
}

fn int(rng: &mut StdRng) -> Value {
    Value::Int64(match rng.random_range(0..10u32) {
        0..=6 => rng.random_range(-3..4),
        _ => pick(
            rng,
            &[
                TWO_53 - 1,
                TWO_53,
                TWO_53 + 1,
                -TWO_53 - 1,
                -TWO_53,
                i64::MAX,
                i64::MIN,
            ],
        ),
    })
}

fn float(rng: &mut StdRng) -> Value {
    Value::Float64(match rng.random_range(0..10u32) {
        0..=5 => rng.random_range(-3..4) as f64 * 0.5,
        _ => pick(
            rng,
            &[
                f64::NAN,
                -0.0,
                0.0,
                TWO_53 as f64,
                TWO_53 as f64 + 2.0,
                -(TWO_53 as f64),
                f64::INFINITY,
                f64::NEG_INFINITY,
            ],
        ),
    })
}

fn text(rng: &mut StdRng) -> Value {
    Value::Varchar(pick(rng, &["", "s0", "s1", "s2", "s20"]).to_string())
}

/// A non-null value of the type column `col` is declared with.
fn value_of(rng: &mut StdRng, col: usize) -> Value {
    match col {
        BOOL => Value::Boolean(rng.random_bool(0.5)),
        INT => int(rng),
        FLOAT | HOLLOW => float(rng),
        _ => text(rng),
    }
}

fn any_value(rng: &mut StdRng) -> Value {
    match rng.random_range(0..9u32) {
        0 => Value::Null,
        1 => Value::Boolean(rng.random_bool(0.5)),
        2..=3 => int(rng),
        4..=5 => float(rng),
        _ => text(rng),
    }
}

/// One container's worth of a column: NULLs, and repeats so that runs
/// and dictionaries have something to share.
fn column(rng: &mut StdRng, col: usize, rows: usize, odd: bool) -> ColumnData {
    let mut values: Vec<Value> = Vec::with_capacity(rows);
    for _ in 0..rows {
        let v = match values.last() {
            Some(last) if rng.random_bool(0.5) => last.clone(),
            _ if col == HOLLOW && odd => Value::Null,
            _ if rng.random_bool(0.15) => Value::Null,
            _ => value_of(rng, col),
        };
        values.push(v);
    }
    ColumnData::from_values(&values)
}

fn row_of(rng: &mut StdRng) -> Row {
    Row::new(
        (0..COLUMNS)
            .map(|col| {
                if rng.random_bool(0.15) {
                    Value::Null
                } else {
                    value_of(rng, col)
                }
            })
            .collect(),
    )
}

fn hash(rng: &mut StdRng) -> u64 {
    rng.random_range(0..1000u64)
}

/// A store of a few containers (each column in a drawn encoding, some
/// rows deleted, the last container and some deletes possibly still
/// pending) and WOS rows. Returns it with the last committed epoch and
/// the transaction left open.
fn store(rng: &mut StdRng) -> (NodeTableStore, u64, u64) {
    let mut store = NodeTableStore::new(COLUMNS);
    let (mut epoch, mut txn) = (0u64, 0u64);
    let open_txn = 1_000;
    let containers = rng.random_range(1..4usize);
    for c in 0..containers {
        let rows = rng.random_range(1..40usize);
        let odd = rng.random_bool(0.4);
        let columns = (0..COLUMNS)
            .map(|col| column(rng, col, rows, odd))
            .collect();
        let hashes = (0..rows).map(|_| hash(rng)).collect();
        let pending = c + 1 == containers && rng.random_bool(0.25);
        txn += 1;
        let by = if pending { open_txn } else { txn };
        store.insert_pending_encoded(columns, hashes, by, |col| match rng.random_range(0..3u32) {
            0 => EncodedColumn::Plain(col.clone()),
            1 => encode_rle(col),
            _ => encode_dictionary(col),
        });
        if !pending {
            epoch += 1;
            store.commit(txn, epoch);
        }
    }
    for pending in [false, true] {
        let rows: Vec<(Row, u64)> = (0..rng.random_range(0..6usize))
            .map(|_| (row_of(rng), hash(rng)))
            .collect();
        if pending {
            store.insert_pending(rows, open_txn);
        } else {
            txn += 1;
            epoch += 1;
            store.insert_pending(rows, txn);
            store.commit(txn, epoch);
        }
    }
    for pending in [false, true] {
        let by = pending.then_some(open_txn);
        let locs: Vec<RowLoc> = NodeTableStore::scan(&store, epoch, by, None)
            .into_iter()
            .filter(|_| rng.random_bool(0.15))
            .map(|v| v.loc)
            .collect();
        if pending {
            store.delete_pending(&locs, open_txn);
        } else {
            txn += 1;
            epoch += 1;
            store.delete_pending(&locs, txn);
            store.commit(txn, epoch);
        }
    }
    (store, epoch, open_txn)
}

const COMPARISONS: [BinaryOp; 6] = [
    BinaryOp::Eq,
    BinaryOp::NotEq,
    BinaryOp::Lt,
    BinaryOp::LtEq,
    BinaryOp::Gt,
    BinaryOp::GtEq,
];

fn col(rng: &mut StdRng) -> usize {
    rng.random_range(0..COLUMNS)
}

/// A literal for a comparison with column `c`: mostly of its type, else
/// anything — the other numeric type, another type class, NULL.
fn literal_for(rng: &mut StdRng, c: usize) -> Expr {
    Expr::Literal(if rng.random_bool(0.6) {
        value_of(rng, c)
    } else {
        any_value(rng)
    })
}

/// A leaf the kernels take.
fn leaf(rng: &mut StdRng) -> Expr {
    let c = col(rng);
    let op = pick(rng, &COMPARISONS);
    match rng.random_range(0..12u32) {
        0..=3 => Expr::binary(Expr::ColumnIdx(c), op, literal_for(rng, c)),
        4..=6 => Expr::binary(literal_for(rng, c), op, Expr::ColumnIdx(c)),
        7 => Expr::IsNull(Box::new(Expr::ColumnIdx(c))),
        8 => Expr::IsNotNull(Box::new(Expr::ColumnIdx(c))),
        9 => Expr::binary(Expr::ColumnIdx(c), op, Expr::ColumnIdx(col(rng))),
        10 => match rng.random_range(0..3u32) {
            0 => Expr::IsNull(Box::new(literal_for(rng, c))),
            1 => Expr::IsNotNull(Box::new(literal_for(rng, c))),
            _ => Expr::binary(literal_for(rng, c), op, literal_for(rng, c)),
        },
        _ => Expr::Literal(pick(
            rng,
            &[Value::Boolean(true), Value::Boolean(false), Value::Null],
        )),
    }
}

fn tree(rng: &mut StdRng, depth: u32) -> Expr {
    if depth == 0 || rng.random_bool(0.4) {
        return leaf(rng);
    }
    match rng.random_range(0..3u32) {
        0 => Expr::Not(Box::new(tree(rng, depth - 1))),
        1 => tree(rng, depth - 1).and(tree(rng, depth - 1)),
        _ => tree(rng, depth - 1).or(tree(rng, depth - 1)),
    }
}

/// A shape that can error, which the interpreter keeps.
fn erring(rng: &mut StdRng) -> Expr {
    let (c, op) = (col(rng), pick(rng, &COMPARISONS));
    let arithmetic = pick(
        rng,
        &[BinaryOp::Add, BinaryOp::Mul, BinaryOp::Div, BinaryOp::Mod],
    );
    match rng.random_range(0..5u32) {
        0 => Expr::binary(
            Expr::binary(Expr::ColumnIdx(c), arithmetic, literal_for(rng, c)),
            op,
            literal_for(rng, c),
        ),
        1 => Expr::binary(
            Expr::binary(Expr::ColumnIdx(INT), arithmetic, Expr::ColumnIdx(c)),
            op,
            int_literal(rng),
        ),
        2 => Expr::Like {
            expr: Box::new(Expr::ColumnIdx(pick(rng, &[TEXT, TEXT, c]))),
            pattern: pick(rng, &["s%", "s_", "%0", "%"]).to_string(),
        },
        3 => Expr::binary(
            Expr::Neg(Box::new(Expr::ColumnIdx(c))),
            op,
            literal_for(rng, c),
        ),
        _ => Expr::Not(Box::new(Expr::ColumnIdx(pick(rng, &[BOOL, BOOL, c])))),
    }
}

fn int_literal(rng: &mut StdRng) -> Expr {
    Expr::Literal(int(rng))
}

fn predicate(rng: &mut StdRng) -> Expr {
    match rng.random_range(0..10u32) {
        0..=6 => tree(rng, 3),
        7 => erring(rng),
        8 => tree(rng, 2).and(erring(rng)),
        _ => erring(rng).or(tree(rng, 2)),
    }
}

type Survivors = Vec<(RowLoc, u64)>;

fn survivors(
    store: &NodeTableStore,
    scan: &BatchScan<'_>,
) -> Result<(Survivors, ScanCounters), String> {
    let mut out = Vec::new();
    store
        .for_each_visible_loc(scan, |loc, hash| out.push((loc, hash)))
        .map(|n| (out, n))
        .map_err(|e| e.to_string())
}

/// The same scan with every step sent to the interpreter.
fn interpreted(
    store: &NodeTableStore,
    scan: &BatchScan<'_>,
) -> Result<(Survivors, ScanCounters), String> {
    probe::INTERPRET_ONLY.set(true);
    let out = survivors(store, scan);
    probe::INTERPRET_ONLY.set(false);
    out
}

/// Row at a time: every visible row materialised, then the predicate.
fn reference(store: &NodeTableStore, scan: &BatchScan<'_>) -> Result<Survivors, String> {
    let mut out = Vec::new();
    let visible = NodeTableStore::scan(store, scan.as_of, scan.my_txn, scan.hash_range);
    for (pos, v) in visible.into_iter().enumerate() {
        let pos = pos as u64;
        if scan
            .row_range
            .is_some_and(|(start, end)| pos < start || pos >= end)
        {
            continue;
        }
        let keep = match scan.predicate {
            Some(p) => p.matches(&v.row).map_err(|e| e.to_string())?,
            None => true,
        };
        if keep {
            out.push((v.loc, v.hash));
        }
    }
    Ok(out)
}

/// Step applications `(kernel, interpreter)` of the engine-side runs.
fn run_case(seed: u64) -> (u64, u64) {
    let mut rng = StdRng::seed_from_u64(seed);
    let (store, epoch, open_txn) = store(&mut rng);
    let mut applied = (0, 0);
    for query in 0..6 {
        let pred = predicate(&mut rng);
        let hash_range = match rng.random_range(0..3u32) {
            0 => None,
            1 => Some(HashRange::new(rng.random_range(0..600u64), None)),
            _ => {
                let lo = rng.random_range(0..800u64);
                Some(HashRange::new(lo, Some(lo + rng.random_range(1..600u64))))
            }
        };
        let row_range = rng.random_bool(0.25).then(|| {
            let start = rng.random_range(0..20u64);
            (start, start + rng.random_range(0..40u64))
        });
        let as_of = rng.random_range(0..epoch + 2);
        let my_txn = rng.random_bool(0.5).then_some(open_txn);
        for no_skip in [false, true] {
            let scan = BatchScan {
                as_of,
                my_txn,
                hash_range: hash_range.as_ref(),
                row_range,
                predicate: Some(&pred),
                no_skip,
                ..BatchScan::default()
            };
            let what = format!(
                "seed {seed} query {query}: {} as_of={as_of} my_txn={my_txn:?} \
                 hash={hash_range:?} window={row_range:?} no_skip={no_skip}",
                pred.to_sql()
            );
            let before = probe::APPLIED.get();
            let got = survivors(&store, &scan);
            let after = probe::APPLIED.get();
            applied.0 += after.0 - before.0;
            applied.1 += after.1 - before.1;
            assert_eq!(got, interpreted(&store, &scan), "{what}");
            assert_eq!(
                got.map(|(rows, _)| rows),
                reference(&store, &scan),
                "{what}"
            );
        }
    }
    applied
}

fn run_cases(base: u64) {
    let mut applied = (0, 0);
    for case in 0..256 {
        let (kernel, interpreter) = run_case(base * 1_000 + case);
        applied = (applied.0 + kernel, applied.1 + interpreter);
    }
    assert!(
        applied.0 >= 100 && applied.1 >= 30,
        "the generator reached {applied:?} (kernel, interpreter) step applications"
    );
}

#[test]
fn kernels_equal_the_interpreter_256_cases() {
    run_cases(0);
}

/// `scripts/check.sh` runs this once with `--ignored`.
#[test]
#[ignore = "eight more seed sets of the property above; check.sh runs them"]
fn kernels_equal_the_interpreter_eight_more_seed_sets() {
    for base in 1..=8 {
        run_cases(base);
    }
}

// ---------------------------------------------------------------------
// The rules most likely to drift, one by one
// ---------------------------------------------------------------------

/// One committed container of one column, encoded as `encode` says.
fn one_column(values: &[Value], encode: fn(&ColumnData) -> EncodedColumn) -> NodeTableStore {
    let mut store = NodeTableStore::new(1);
    let hashes = (0..values.len() as u64).collect();
    store.insert_pending_encoded(vec![ColumnData::from_values(values)], hashes, 1, encode);
    store.commit(1, 1);
    store
}

fn plain(col: &ColumnData) -> EncodedColumn {
    EncodedColumn::Plain(col.clone())
}

/// Positions `pred` keeps and what the scan charged, strict accounting
/// (no zone-map skip), after checking that a kernel evaluated it and
/// that the interpreter agrees on both.
fn kept(store: &NodeTableStore, pred: &Expr) -> (Vec<usize>, ScanCounters) {
    let scan = BatchScan {
        as_of: 1,
        predicate: Some(pred),
        no_skip: true,
        ..BatchScan::default()
    };
    let before = probe::APPLIED.get();
    let got = survivors(store, &scan);
    let after = probe::APPLIED.get();
    assert!(
        after.0 > before.0 && after.1 == before.1,
        "{} did not run as a kernel",
        pred.to_sql()
    );
    assert_eq!(got, interpreted(store, &scan), "{}", pred.to_sql());
    let (rows, n) = got.expect("kernels cannot error");
    let positions = rows
        .into_iter()
        .map(|(loc, _)| match loc {
            RowLoc::Ros { idx, .. } => idx,
        })
        .collect();
    (positions, n)
}

fn c0() -> Expr {
    Expr::ColumnIdx(0)
}

#[test]
fn an_int_column_meets_a_float_literal_as_a_float() {
    // 2^53 + 1 has no f64 of its own: as a float it *is* 2^53.
    let values: Vec<Value> = [TWO_53 - 1, TWO_53, TWO_53 + 1, TWO_53 + 2]
        .iter()
        .map(|&i| Value::Int64(i))
        .collect();
    let store = one_column(&values, plain);
    let lit = Expr::lit(TWO_53 as f64);
    assert_eq!(kept(&store, &c0().eq(lit.clone())).0, vec![1, 2]);
    assert_eq!(kept(&store, &c0().gt(lit.clone())).0, vec![3]);
    assert_eq!(kept(&store, &lit.lt_eq(c0())).0, vec![1, 2, 3]);
    // Against an integer literal the same cells compare as integers.
    assert_eq!(kept(&store, &c0().eq(Expr::lit(TWO_53))).0, vec![1]);
}

#[test]
fn a_nan_keeps_nothing_under_any_operator() {
    let cells = [Value::Float64(f64::NAN), Value::Float64(1.0), Value::Null];
    let store = one_column(&cells, plain);
    for op in COMPARISONS {
        let nan_literal = Expr::binary(c0(), op, Expr::lit(f64::NAN));
        assert_eq!(kept(&store, &nan_literal).0, vec![], "{op:?}");
        // The NaN cell is kept by no comparison with a number either.
        let number = Expr::binary(c0(), op, Expr::lit(1.0));
        assert!(!kept(&store, &number).0.contains(&0), "{op:?}");
    }
}

#[test]
fn not_drops_a_null_and_is_null_keeps_it() {
    let cells = [Value::Int64(3), Value::Null, Value::Int64(7), Value::Null];
    for encode in [plain, encode_rle, encode_dictionary] {
        let store = one_column(&cells, encode);
        let below = c0().lt(Expr::lit(5i64));
        assert_eq!(kept(&store, &below).0, vec![0]);
        assert_eq!(kept(&store, &Expr::Not(Box::new(below.clone()))).0, vec![2]);
        let or_null = below.or(Expr::IsNull(Box::new(c0())));
        assert_eq!(kept(&store, &or_null).0, vec![0, 1, 3]);
    }
}

#[test]
fn a_literal_of_another_class_keeps_nothing_and_pays_per_row() {
    let cells: Vec<Value> = ["a", "b", "a", "5"]
        .iter()
        .map(|s| Value::Varchar(s.to_string()))
        .collect();
    let store = one_column(&cells, plain);
    for op in COMPARISONS {
        let (rows, n) = kept(&store, &Expr::binary(c0(), op, Expr::lit(5i64)));
        assert_eq!(rows, vec![], "{op:?}");
        assert_eq!((n.scanned, n.decoded, n.rows_skipped), (4, 4, 0), "{op:?}");
    }
}

#[test]
fn an_rle_column_pays_per_touched_run() {
    // Runs: 1 ×3, 2 ×2, NULL ×2, 3 ×3.
    let cells: Vec<Value> = [1, 1, 1, 2, 2]
        .iter()
        .map(|&i| Value::Int64(i))
        .chain([Value::Null, Value::Null])
        .chain([3, 3, 3].iter().map(|&i| Value::Int64(i)))
        .collect();
    let store = one_column(&cells, encode_rle);
    let (rows, n) = kept(&store, &c0().gt_eq(Expr::lit(2i64)));
    assert_eq!(rows, vec![3, 4, 7, 8, 9]);
    assert_eq!(
        n,
        ScanCounters {
            examined: 10,
            scanned: 10,
            decoded: 4,
            containers_skipped: 0,
            // The run of 1s and the run of NULLs, dropped whole.
            rows_skipped: 5,
        }
    );
    // A second conjunct sees only the runs the first one left.
    let both = c0().gt_eq(Expr::lit(2i64)).and(c0().lt(Expr::lit(3i64)));
    let scan = BatchScan {
        as_of: 1,
        predicate: Some(&both),
        ..BatchScan::default()
    };
    let (rows, n) = survivors(&store, &scan).expect("kernels cannot error");
    assert_eq!(rows.len(), 2);
    assert_eq!((n.decoded, n.rows_skipped), (4 + 2, 5 + 3));
    assert_eq!(interpreted(&store, &scan), Ok((rows, n)));
}

#[test]
fn empty_columns_narrow_to_nothing() {
    let pred = c0().lt(Expr::lit(1i64)).or(Expr::IsNull(Box::new(c0())));
    let empty = ColumnData::from_values(&[]);
    let stats = ContainerStats::compute(std::slice::from_ref(&empty), &[]);
    for encode in [plain, encode_rle, encode_dictionary] {
        for interpret in [false, true] {
            probe::INTERPRET_ONLY.set(interpret);
            let mut plan = PredPlan::new(&pred, true, 1);
            let (mut sel, mut n) = (Vec::new(), ScanCounters::default());
            let narrowed = plan.narrow(&[encode(&empty)], &stats, &mut sel, &mut n);
            probe::INTERPRET_ONLY.set(false);
            assert!(narrowed.is_ok() && sel.is_empty());
            assert_eq!(n, ScanCounters::default());
        }
    }
}
