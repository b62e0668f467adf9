//! Criterion micro-benchmarks of the vectorized scan pipeline against
//! the row-at-a-time reference scan, across store sizes and predicate
//! selectivities.
//!
//! Each configuration pairs:
//!
//! * `reference` — [`NodeTableStore::scan`]: every visible row fully
//!   materialized, then filtered and projected row by row; and
//! * `batched` — [`NodeTableStore::scan_batch`]: late materialization,
//!   so only referenced predicate columns and surviving projected
//!   values are ever decoded.
//!
//! A second group, `wide100_*`, is the V2S shape: 100 FLOAT columns, no
//! predicate, every column projected — all gather, no filter — once
//! with the whole container selected (a slice copy per column) and once
//! with the hash-scattered half a range piece selects (an indexed copy).
//!
//! Before timing, each batched configuration runs once bracketed by
//! obs snapshots and prints the data-collector counters
//! (`scan.rows_examined` vs `scan.values_decoded`) — the ratio is the
//! decode work late materialization avoided.

use common::hash::segmentation_hash;
use common::{row, DataType, Expr, Row, Schema, Value};
use criterion::{criterion_group, criterion_main, Criterion};
use mppdb::storage::{BatchScan, ColumnData, NodeTableStore};
use mppdb::HashRange;

const AS_OF: u64 = 2;

fn schema() -> Schema {
    Schema::from_pairs(&[
        ("id", DataType::Int64),
        ("grp", DataType::Varchar),
        ("val", DataType::Float64),
        ("payload", DataType::Varchar),
    ])
}

fn dtypes() -> Vec<DataType> {
    schema().fields().iter().map(|f| f.dtype).collect()
}

/// `n` committed, moved-out rows. `val` cycles 0..1000 so `val < 1`
/// matches 0.1% of rows and `val < 900` matches 90%; `grp` has 16
/// distinct values (dictionary-friendly), `payload` is wide filler.
fn build_store(n: usize) -> NodeTableStore {
    let mut store = NodeTableStore::new(4);
    let rows: Vec<(Row, u64)> = (0..n)
        .map(|i| {
            let id = i as i64;
            let hash = segmentation_hash(&[Value::Int64(id)]);
            let r = row![
                id,
                format!("g{}", i % 16),
                (i % 1000) as f64,
                format!("payload-{i}-{}", "x".repeat(24))
            ];
            (r, hash)
        })
        .collect();
    store.insert_pending(rows, 1);
    store.commit(1, 1);
    store.moveout();
    store
}

fn reference_scan(
    store: &NodeTableStore,
    predicate: Option<&Expr>,
    projection: &[usize],
) -> Vec<Row> {
    let mut out = Vec::new();
    for v in store.scan(AS_OF, None, None) {
        if let Some(p) = predicate {
            if !p.matches(&v.row).unwrap() {
                continue;
            }
        }
        out.push(v.row.into_projected(projection));
    }
    out
}

fn batched_scan(
    store: &NodeTableStore,
    predicate: Option<&Expr>,
    projection: &[usize],
    dtypes: &[DataType],
) -> usize {
    let scan = BatchScan {
        as_of: AS_OF,
        my_txn: None,
        hash_range: None,
        row_range: None,
        predicate,
        projection: Some(projection),
        dtypes,
        no_skip: false,
    };
    store.scan_batch(&scan).unwrap().batch.num_rows()
}

fn bench_scans(c: &mut Criterion) {
    let schema = schema();
    let dtypes = dtypes();
    let selective = Expr::col("val")
        .lt(Expr::lit(1.0f64))
        .bind(&schema)
        .unwrap();
    let broad = Expr::col("val")
        .lt(Expr::lit(900.0f64))
        .bind(&schema)
        .unwrap();

    for &n in &[10_000usize, 100_000, 1_000_000] {
        let store = build_store(n);
        let label = |name: &str| format!("{name}_{}k", n / 1000);
        // (tag, predicate, projection, expected row count)
        let cases: Vec<(&str, Option<&Expr>, Vec<usize>, usize)> = vec![
            ("selective_narrow", Some(&selective), vec![0], n / 1000),
            ("broad_narrow", Some(&broad), vec![0], n * 9 / 10),
            ("full_wide", None, vec![0, 1, 2, 3], n),
        ];

        for (tag, pred, proj, expect) in &cases {
            // One instrumented run: how much decode work did late
            // materialization skip?
            let before = obs::global().snapshot();
            let got = batched_scan(&store, *pred, proj, &dtypes);
            assert_eq!(got, *expect);
            let counters = obs::global().snapshot().counters_since(&before);
            eprintln!(
                "dc_counters {tag} n={n}: rows_examined={} values_decoded={}",
                counters.get("scan.rows_examined").copied().unwrap_or(0),
                counters.get("scan.values_decoded").copied().unwrap_or(0),
            );

            c.bench_function(&label(&format!("{tag}_reference")), |b| {
                b.iter(|| {
                    let rows = reference_scan(&store, *pred, proj);
                    assert_eq!(rows.len(), *expect);
                })
            });
            c.bench_function(&label(&format!("{tag}_batched")), |b| {
                b.iter(|| {
                    assert_eq!(batched_scan(&store, *pred, proj, &dtypes), *expect);
                })
            });
        }
    }
}

/// Dataset D1's shape: `n` committed rows of `WIDE_COLUMNS` high-entropy
/// floats loaded straight into one ROS container (plain encoding).
const WIDE_COLUMNS: usize = 100;

fn build_wide_store(n: usize) -> NodeTableStore {
    let mut store = NodeTableStore::new(WIDE_COLUMNS);
    let rows = (0..n).map(|i| {
        let hash = segmentation_hash(&[Value::Int64(i as i64)]);
        let values =
            (0..WIDE_COLUMNS).map(move |c| Value::Float64(((i * WIDE_COLUMNS + c) as f64).sin()));
        (values, hash)
    });
    let (columns, hashes) = ColumnData::transpose(WIDE_COLUMNS, rows);
    store.insert_pending_direct(columns, hashes, 1);
    store.commit(1, 1);
    store
}

fn bench_wide_projection(c: &mut Criterion) {
    let n = 10_000usize;
    let store = build_wide_store(n);
    let dtypes = vec![DataType::Float64; WIDE_COLUMNS];
    let half = HashRange::new(0, Some(u64::MAX / 2));
    let in_half = store.scan(AS_OF, None, Some(&half)).len();
    assert!(in_half > n / 3 && in_half < n * 2 / 3, "{in_half} of {n}");

    // (tag, hash range, expected row count)
    let cases = [("full", None, n), ("half", Some(&half), in_half)];
    for (tag, hash_range, expect) in cases {
        let scan = BatchScan {
            as_of: AS_OF,
            hash_range,
            dtypes: &dtypes,
            ..BatchScan::default()
        };
        c.bench_function(&format!("wide100_{tag}_reference"), |b| {
            b.iter(|| assert_eq!(store.scan(AS_OF, None, hash_range).len(), expect))
        });
        c.bench_function(&format!("wide100_{tag}_batched"), |b| {
            b.iter(|| assert_eq!(store.scan_batch(&scan).unwrap().batch.num_rows(), expect))
        });
        c.bench_function(&format!("wide100_{tag}_batched_into_rows"), |b| {
            b.iter(|| {
                assert_eq!(
                    store.scan_batch(&scan).unwrap().batch.into_rows().len(),
                    expect
                )
            })
        });
    }
}

criterion_group!(benches, bench_scans, bench_wide_projection);
criterion_main!(benches);
