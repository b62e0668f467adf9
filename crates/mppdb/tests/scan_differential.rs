//! Randomized differential test: the vectorized scan pipeline
//! ([`NodeTableStore::scan_batch`], and the aggregate and visitor sinks
//! over the same traversal) against the row-at-a-time reference
//! path (`scan` + per-row predicate + projection), across mixed
//! ROS/WOS stores, deletes, epochs, own-transaction visibility, hash
//! ranges, row windows, predicates, and projections. Results must
//! match exactly — values, order, hashes, wire sizes, and which error
//! surfaces first.

use common::agg::AggFunc;
use common::{DataType, Error, Expr, Row, Schema, Value};
use mppdb::segmentation::HashRange;
use mppdb::storage::{BatchScan, ColumnData, NodeTableStore, RowLoc};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// What the reference pipeline yields: the surviving `(loc, row, hash)`
/// triples before projection, and the count of rows that reached the
/// predicate.
type Reference = (Vec<(RowLoc, Row, u64)>, u64);

/// The row-at-a-time pipeline every sink must reproduce.
fn reference_scan(
    store: &NodeTableStore,
    as_of: u64,
    my_txn: Option<u64>,
    hash_range: Option<&HashRange>,
    row_range: Option<(u64, u64)>,
    predicate: Option<&Expr>,
) -> Result<Reference, Error> {
    let visible = store.scan(as_of, my_txn, hash_range);
    let mut survivors = Vec::new();
    let mut scanned = 0u64;
    for (pos, v) in visible.into_iter().enumerate() {
        if let Some((start, end)) = row_range {
            let pos = pos as u64;
            if pos < start || pos >= end {
                continue;
            }
        }
        scanned += 1;
        if let Some(p) = predicate {
            if !p.matches(&v.row)? {
                continue;
            }
        }
        survivors.push((v.loc, v.row, v.hash));
    }
    Ok((survivors, scanned))
}

fn random_value(rng: &mut StdRng, dtype: DataType) -> Value {
    if rng.random_bool(0.1) {
        return Value::Null;
    }
    match dtype {
        DataType::Boolean => Value::Boolean(rng.random_bool(0.5)),
        // Small domains so predicates, RLE runs, and dictionaries all
        // get exercised.
        DataType::Int64 => Value::Int64(rng.random_range(-5..5)),
        DataType::Float64 => Value::Float64(rng.random_range(-4..4) as f64 * 0.5),
        DataType::Varchar => Value::Varchar(format!("s{}", rng.random_range(0..6))),
    }
}

fn random_literal(rng: &mut StdRng, dtype: DataType) -> Expr {
    // Occasionally a type-mismatched literal, so evaluation errors are
    // part of the differential surface.
    if rng.random_bool(0.1) {
        return Expr::lit(Value::Varchar("boom".into()));
    }
    match dtype {
        DataType::Boolean => Expr::lit(Value::Boolean(rng.random_bool(0.5))),
        DataType::Int64 => Expr::lit(Value::Int64(rng.random_range(-5..5))),
        DataType::Float64 => Expr::lit(Value::Float64(rng.random_range(-4..4) as f64 * 0.5)),
        DataType::Varchar => Expr::lit(Value::Varchar(format!("s{}", rng.random_range(0..6)))),
    }
}

fn random_leaf(rng: &mut StdRng, schema: &Schema) -> Expr {
    let fields = schema.fields();
    let f = &fields[rng.random_range(0..fields.len())];
    let col = Expr::col(f.name.clone());
    match rng.random_range(0..7) {
        0 => Expr::IsNull(Box::new(col)),
        1 => Expr::IsNotNull(Box::new(col)),
        2 => col.eq(random_literal(rng, f.dtype)),
        3 => col.lt(random_literal(rng, f.dtype)),
        4 => col.gt(random_literal(rng, f.dtype)),
        5 => col.lt_eq(random_literal(rng, f.dtype)),
        _ => col.gt_eq(random_literal(rng, f.dtype)),
    }
}

fn random_predicate(rng: &mut StdRng, schema: &Schema) -> Expr {
    let leaf = random_leaf(rng, schema);
    match rng.random_range(0..4) {
        0 => leaf,
        1 => leaf.and(random_leaf(rng, schema)),
        2 => leaf.or(random_leaf(rng, schema)),
        _ => Expr::Not(Box::new(leaf)),
    }
}

/// Build a store with a random mix of WOS batches, direct-load ROS
/// containers, moveouts, aborts, and (pending and committed) deletes.
/// Returns the store, the top committed epoch, and a still-open txn id.
fn random_store(rng: &mut StdRng, schema: &Schema) -> (NodeTableStore, u64, u64) {
    let ncols = schema.fields().len();
    let mut store = NodeTableStore::new(ncols);
    let mut epoch = 0u64;
    let mut txn = 100u64;

    for _ in 0..rng.random_range(2..6) {
        let n = rng.random_range(0..30);
        let rows: Vec<(Row, u64)> = (0..n)
            .map(|_| {
                let row = Row::new(
                    schema
                        .fields()
                        .iter()
                        .map(|f| random_value(rng, f.dtype))
                        .collect(),
                );
                (row, rng.random_range(0..1000))
            })
            .collect();
        txn += 1;
        if rng.random_bool(0.5) {
            store.insert_pending(rows, txn);
        } else {
            let rows = rows.into_iter().map(|(r, h)| (r.into_values(), h));
            let (columns, hashes) = ColumnData::transpose(ncols, rows);
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
        // Stage some deletes over what is currently visible.
        if rng.random_bool(0.5) {
            let visible = store.scan(epoch, None, None);
            if !visible.is_empty() {
                let locs: Vec<_> = visible
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
                    _ => {} // leave the delete pending under `txn`
                }
            }
        }
    }
    // One more batch left pending, to exercise own-txn visibility.
    txn += 1;
    let rows: Vec<(Row, u64)> = (0..rng.random_range(0..10))
        .map(|_| {
            let row = Row::new(
                schema
                    .fields()
                    .iter()
                    .map(|f| random_value(rng, f.dtype))
                    .collect(),
            );
            (row, rng.random_range(0..1000))
        })
        .collect();
    store.insert_pending(rows, txn);
    (store, epoch, txn)
}

fn random_schema(rng: &mut StdRng) -> Schema {
    let dtypes = [
        DataType::Int64,
        DataType::Float64,
        DataType::Varchar,
        DataType::Boolean,
    ];
    let n = rng.random_range(1..5);
    let fields: Vec<(String, DataType)> = (0..n)
        .map(|i| (format!("c{i}"), dtypes[rng.random_range(0..dtypes.len())]))
        .collect();
    let pairs: Vec<(&str, DataType)> = fields.iter().map(|(n, t)| (n.as_str(), *t)).collect();
    Schema::from_pairs(&pairs)
}

#[test]
fn batched_scan_matches_reference() {
    let mut rng = StdRng::seed_from_u64(0xC0FFEE);
    for case in 0..60 {
        let schema = random_schema(&mut rng);
        let ncols = schema.fields().len();
        let (store, max_epoch, open_txn) = random_store(&mut rng, &schema);

        for query in 0..12 {
            let as_of = rng.random_range(0..max_epoch + 2);
            let my_txn = match rng.random_range(0..3) {
                0 => None,
                1 => Some(open_txn),
                _ => Some(9999), // unknown txn: sees only committed data
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
            let row_range = if rng.random_bool(0.3) {
                let start = rng.random_range(0..20u64);
                Some((start, start + rng.random_range(0..25u64)))
            } else {
                None
            };
            let predicate = if rng.random_bool(0.6) {
                Some(
                    random_predicate(&mut rng, &schema)
                        .bind(&schema)
                        .expect("bind over own schema"),
                )
            } else {
                None
            };
            let projection: Option<Vec<usize>> = if rng.random_bool(0.5) {
                // Subsets, reorderings, and duplicates are all legal.
                let k = rng.random_range(1..ncols + 2);
                Some((0..k).map(|_| rng.random_range(0..ncols)).collect())
            } else {
                None
            };
            let dtypes: Vec<DataType> = match &projection {
                Some(idx) => idx.iter().map(|&i| schema.field(i).dtype).collect(),
                None => schema.fields().iter().map(|f| f.dtype).collect(),
            };

            let tag = format!(
                "case {case} query {query}: as_of={as_of} my_txn={my_txn:?} \
                 hash={hash_range:?} window={row_range:?} pred={:?} proj={projection:?}",
                predicate.as_ref().map(|p| p.to_sql()),
            );

            let expected = reference_scan(
                &store,
                as_of,
                my_txn,
                hash_range.as_ref(),
                row_range,
                predicate.as_ref(),
            );
            let visible = store.scan(as_of, my_txn, None).len() as u64;
            // Both skipping modes must reproduce the reference exactly:
            // zone-map container elimination and RLE run elimination
            // are pure no-row-can-match proofs, never result changes.
            for no_skip in [true, false] {
                let scan = BatchScan {
                    as_of,
                    my_txn,
                    hash_range: hash_range.as_ref(),
                    row_range,
                    predicate: predicate.as_ref(),
                    projection: projection.as_deref(),
                    dtypes: &dtypes,
                    no_skip,
                };
                let actual = store.scan_batch(&scan);
                // The other two sinks over the same traversal.
                let counted = store.scan_aggregate(&scan, &[(AggFunc::Count, None)], &[]);
                let mut visited = Vec::new();
                let visit = store.for_each_visible(&scan, |loc, row, hash| {
                    visited.push((loc, row.clone(), hash))
                });

                match (&expected, actual) {
                    (Ok((survivors, scanned)), Ok(out)) => {
                        let hashes: Vec<u64> = survivors.iter().map(|(_, _, h)| *h).collect();
                        let rows: Vec<Row> = survivors
                            .iter()
                            .map(|(_, row, _)| match &projection {
                                Some(idx) => row.project(idx),
                                None => row.clone(),
                            })
                            .collect();
                        assert_eq!(
                            out.batch.hashes(),
                            hashes.as_slice(),
                            "hash vector diverged (no_skip={no_skip}): {tag}"
                        );
                        let n = out.counters;
                        if no_skip {
                            assert_eq!(n.scanned, *scanned, "scanned count diverged: {tag}");
                            assert_eq!(n.examined, visible, "examined != visible rows: {tag}");
                            assert_eq!(n.containers_skipped, 0, "skip while disabled: {tag}");
                            assert_eq!(n.rows_skipped, 0, "skip while disabled: {tag}");
                        } else {
                            // Container skips remove rows from `examined`;
                            // `rows_skipped` counts whole containers (which
                            // may include invisible rows), so the pair
                            // bounds the visible count from both sides.
                            assert!(n.examined <= visible, "examined beyond visible: {tag}");
                            assert!(
                                n.examined + n.rows_skipped >= visible,
                                "skipped more than accounted: {tag}"
                            );
                            assert!(n.scanned <= *scanned, "skipping scanned extra rows: {tag}");
                            assert!(
                                n.scanned + n.rows_skipped >= *scanned,
                                "scan skips unaccounted: {tag}"
                            );
                        }

                        // Sink parity: the visitor shares every counter
                        // but `decoded` (it decodes all columns); so
                        // does the aggregate unless zone maps answered
                        // a container for it, which skipping mode allows.
                        let stages = |c: mppdb::storage::ScanCounters| {
                            (c.examined, c.scanned, c.containers_skipped, c.rows_skipped)
                        };
                        let visit = visit.expect("visitor failed where batch succeeded");
                        assert_eq!(stages(visit), stages(n), "visitor counters: {tag}");
                        assert_eq!(
                            &visited, survivors,
                            "visitor diverged (no_skip={no_skip}): {tag}"
                        );
                        let counted = counted.expect("aggregate failed where batch succeeded");
                        if no_skip {
                            assert_eq!(stages(counted.counters), stages(n), "agg counters: {tag}");
                        }
                        let mut count = counted.accs;
                        count.ensure_global_group();
                        assert_eq!(
                            count.finalize_rows(),
                            vec![Row::new(vec![Value::Int64(out.batch.num_rows() as i64)])],
                            "COUNT(*) != batch rows (no_skip={no_skip}): {tag}"
                        );

                        assert_eq!(
                            out.batch.wire_size(),
                            rows.iter().map(Row::wire_size).sum::<usize>(),
                            "wire size diverged (no_skip={no_skip}): {tag}"
                        );
                        assert_eq!(
                            out.batch.text_wire_size(),
                            rows.iter().map(Row::text_wire_size).sum::<usize>(),
                            "text wire size diverged (no_skip={no_skip}): {tag}"
                        );
                        let batch_rows = out.batch.into_rows();
                        assert_eq!(batch_rows, rows, "rows diverged (no_skip={no_skip}): {tag}");
                    }
                    (Err(e), Err(a)) => {
                        for (sink, got) in [
                            ("batch", a.to_string()),
                            (
                                "aggregate",
                                counted.expect_err("aggregate succeeded").to_string(),
                            ),
                            ("visitor", visit.expect_err("visitor succeeded").to_string()),
                        ] {
                            assert_eq!(
                                e.to_string(),
                                got,
                                "different {sink} error (no_skip={no_skip}): {tag}"
                            );
                        }
                    }
                    (e, a) => panic!(
                        "reference and batched scans disagree on success \
                         (no_skip={no_skip}): reference={e:?} batched={a:?} ({tag})"
                    ),
                }
            }
        }
    }
}

#[test]
fn query_and_query_batched_agree_end_to_end() {
    use common::row;
    use mppdb::{Cluster, ClusterConfig, QuerySpec};

    let cluster = Cluster::new(ClusterConfig {
        node_count: 4,
        k_safety: 1,
        ..ClusterConfig::default()
    });
    let mut session = cluster.connect(0).unwrap();
    session
        .execute(
            "CREATE TABLE t (id BIGINT, grp VARCHAR, val DOUBLE) SEGMENTED BY HASH(id) ALL NODES",
        )
        .unwrap();
    let mut rng = StdRng::seed_from_u64(7);
    let rows: Vec<Row> = (0..500)
        .map(|i| {
            row![
                i as i64,
                format!("g{}", rng.random_range(0..5)),
                rng.random_range(0..100) as f64
            ]
        })
        .collect();
    session.insert("t", rows).unwrap();
    cluster.moveout_all();

    let specs = vec![
        QuerySpec::scan("t"),
        QuerySpec::scan("t").project(&["grp", "id"]),
        QuerySpec::scan("t")
            .filter(Expr::col("val").lt(Expr::lit(30.0f64)))
            .project(&["id"]),
        QuerySpec::scan("t")
            .filter(Expr::col("grp").eq(Expr::lit("g2")))
            .with_limit(17),
    ];
    for spec in specs {
        let rows = session.query(&spec).unwrap();
        let batched = session.query_batched(&spec).unwrap();
        assert!(batched.batch.is_some(), "batched read carries a batch");
        assert_eq!(batched.num_rows(), rows.rows.len());
        assert_eq!(batched.wire_bytes(), rows.wire_bytes());
        assert_eq!(batched.text_wire_bytes(), rows.text_wire_bytes());
        // Deterministic order, even with parallel per-segment scans.
        let again = session.query_batched(&spec).unwrap();
        assert_eq!(again.clone().into_rows(), batched.clone().into_rows());
        assert_eq!(batched.into_rows(), rows.rows);
    }
}

/// Pushed-down aggregation (node-side partials, zone-map fast paths,
/// conjunct reordering) must agree with materialize-then-aggregate in
/// every mode, for every request shape.
#[test]
fn aggregate_pushdown_matches_materialized_aggregation() {
    use common::agg::{aggregate_rows, AggCall, AggFunc, AggRequest};
    use common::row;
    use mppdb::{Cluster, ClusterConfig, QuerySpec};

    let cluster = Cluster::new(ClusterConfig {
        node_count: 4,
        k_safety: 1,
        ..ClusterConfig::default()
    });
    let mut session = cluster.connect(0).unwrap();
    session
        .execute(
            "CREATE TABLE t (id BIGINT, grp VARCHAR, val DOUBLE) SEGMENTED BY HASH(id) ALL NODES",
        )
        .unwrap();
    let schema = cluster.table_def("t").unwrap().schema;
    let mut rng = StdRng::seed_from_u64(11);
    let rows: Vec<Row> = (0..500)
        .map(|i| {
            row![
                i as i64,
                format!("g{}", rng.random_range(0..5)),
                rng.random_range(0..100) as f64
            ]
        })
        .collect();
    session.insert("t", rows).unwrap();
    cluster.moveout_all();

    let requests: Vec<(Vec<&str>, Vec<AggCall>)> = vec![
        (vec![], vec![AggCall::count_star()]),
        (
            vec![],
            vec![
                AggCall::new(AggFunc::Min, "val"),
                AggCall::new(AggFunc::Max, "val"),
                AggCall::count_star(),
            ],
        ),
        (
            vec!["grp"],
            vec![
                AggCall::new(AggFunc::Sum, "val"),
                AggCall::new(AggFunc::Avg, "val"),
                AggCall::count_star(),
            ],
        ),
        (vec!["grp"], vec![AggCall::new(AggFunc::Count, "id")]),
    ];
    let filters = [
        None,
        Some(Expr::col("val").lt(Expr::lit(50.0f64))),
        // A selective conjunction, so zone-map skipping and conjunct
        // reordering both engage on the aggregate path.
        Some(
            Expr::col("val")
                .lt(Expr::lit(30.0f64))
                .and(Expr::col("id").gt_eq(Expr::lit(400i64))),
        ),
        // A never-true predicate: zero-row aggregates.
        Some(Expr::col("val").lt(Expr::lit(-1.0f64))),
    ];
    let sort_key = |r: &Row| format!("{r:?}");
    for (group_by, calls) in &requests {
        for filter in &filters {
            let req = AggRequest::new(group_by, calls.clone());
            let mut base = QuerySpec::scan("t");
            if let Some(f) = filter {
                base = base.filter(f.clone());
            }
            let tag = format!(
                "group_by={group_by:?} calls={calls:?} filter={:?}",
                filter.as_ref().map(|f| f.to_sql())
            );

            // Reference: pull rows, aggregate at the caller.
            let pulled = session.query(&base.clone()).unwrap().rows;
            let (_, mut expected) = aggregate_rows(&schema, &pulled, &req).unwrap();
            expected.sort_by_key(sort_key);

            for no_skip in [false, true] {
                let mut spec = base.clone().aggregate(req.clone());
                if no_skip {
                    spec = spec.without_skipping();
                }
                let mut pushed = session.query(&spec).unwrap().rows;
                pushed.sort_by_key(sort_key);
                assert_eq!(pushed, expected, "no_skip={no_skip}: {tag}");
            }
        }
    }
}
