//! The columnar load against the row routine it replaced.
//!
//! [`reference::run_copy`] is `run_copy` as it was when a load built
//! rows — `Reader` → `validate_row` → `coerce_row` → per-row hash →
//! per-node `(Row, hash)` batches, staged through the store's row
//! entries (transposed into a container for DIRECT, `insert_pending` for
//! the WOS) — kept verbatim. Every case loads one generated input, DIRECT
//! or into the WOS, into two clusters set up alike, one through each
//! routine, and everything a load leaves behind must be equal: the result
//! or the error, every node's storage statistics, every node's rows at
//! the commit epoch in storage order, the `dc_column_stats` rows and the
//! multiset of recorder events.

#![cfg(test)]

use std::sync::Arc;

use common::{row, DataType, Field, Row, Schema, Value};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

use super::{CopyOptions, CopyResult, CopySource};
use crate::catalog::{Segmentation, TableDef};
use crate::cluster::{Cluster, ClusterConfig};
use crate::error::DbResult;
use crate::fault::FaultSite;
use crate::storage::{ColumnVec, NodeTableStore};

mod reference {
    use common::{csv, Row};
    use netsim::record::NodeRef;

    use crate::cluster::Cluster;
    use crate::copy::{CopyOptions, CopyResult, CopySource, REJECT_SAMPLE};
    use crate::error::{DbError, DbResult};
    use crate::txn::TxnHandle;

    pub fn run_copy(
        cluster: &Cluster,
        txn: &mut TxnHandle,
        node: usize,
        task: Option<u64>,
        table: &str,
        source: CopySource,
        options: &CopyOptions,
    ) -> DbResult<CopyResult> {
        let def = cluster.table_def(table)?;
        let mut good: Vec<Row> = Vec::new();
        let mut rejected = 0u64;
        let mut sample: Vec<(u64, String)> = Vec::new();
        let reject =
            |line: u64, reason: String, rejected: &mut u64, sample: &mut Vec<(u64, String)>| {
                *rejected += 1;
                if sample.len() < REJECT_SAMPLE {
                    sample.push((line, reason));
                }
            };

        match source {
            CopySource::Csv { text, delimiter } => {
                let bytes = text.len() as u64;
                let mut line_no = 0u64;
                for line in text.lines() {
                    if line.is_empty() {
                        continue;
                    }
                    line_no += 1;
                    match csv::parse_row(line, &def.schema, delimiter) {
                        Ok(row) => match def.schema.validate_row(&row) {
                            Ok(()) => good.push(row),
                            Err(e) => reject(line_no, e.to_string(), &mut rejected, &mut sample),
                        },
                        Err(e) => reject(line_no, e.to_string(), &mut rejected, &mut sample),
                    }
                }
                cluster
                    .recorder()
                    .work(task, NodeRef::Db(node), "copy_parse_csv", line_no, bytes);
            }
            CopySource::Avro(bytes) => {
                let size = bytes.len() as u64;
                let reader = avrolite::Reader::new(&bytes).map_err(DbError::Data)?;
                if !reader.schema().to_schema().compatible_with(&def.schema) {
                    return Err(DbError::Data(common::Error::SchemaMismatch(format!(
                        "avro schema {} does not match table {}",
                        reader.schema().to_json(),
                        def.name
                    ))));
                }
                let mut line_no = 0u64;
                for row in reader {
                    line_no += 1;
                    match def.schema.validate_row(&row) {
                        Ok(()) => good.push(row),
                        Err(e) => reject(line_no, e.to_string(), &mut rejected, &mut sample),
                    }
                }
                cluster
                    .recorder()
                    .work(task, NodeRef::Db(node), "copy_parse_avro", line_no, size);
            }
            CopySource::Rows(rows) => {
                for (i, row) in rows.into_iter().enumerate() {
                    match def.schema.validate_row(&row) {
                        Ok(()) => good.push(row),
                        Err(e) => reject(i as u64 + 1, e.to_string(), &mut rejected, &mut sample),
                    }
                }
            }
        }

        if rejected > options.rejected_max {
            return Err(DbError::CopyRejected {
                rejected,
                tolerance: options.rejected_max,
            });
        }

        if cluster
            .faults()
            .should_fire(crate::fault::FaultSite::MidCopy, node)
        {
            return Err(DbError::ConnectionLost { node });
        }

        let loaded = cluster.insert_rows_reference(txn, node, task, table, good, options.direct)?;
        Ok(CopyResult {
            loaded,
            rejected,
            rejected_sample: sample,
        })
    }
}

const TABLE: &str = "t";

fn schema() -> Schema {
    Schema::new(vec![
        Field::not_null("id", DataType::Int64),
        Field::new("x", DataType::Float64),
        Field::not_null("y", DataType::Float64),
        Field::new("s", DataType::Varchar),
        Field::new("b", DataType::Boolean),
        Field::new("n", DataType::Float64),
    ])
}

/// How one case sets its two clusters up.
#[derive(Debug, Clone, Copy)]
struct Bed {
    segmentation: u8,
    k_safety: usize,
    pending_add: bool,
    down_node: Option<usize>,
    mid_copy_fault: bool,
}

fn cluster(bed: Bed) -> Arc<Cluster> {
    let c = Cluster::new(ClusterConfig {
        node_count: 4,
        k_safety: bed.k_safety,
        ..ClusterConfig::default()
    });
    let all: Vec<String> = schema().fields().iter().map(|f| f.name.clone()).collect();
    let segmentation = match bed.segmentation {
        0 => Segmentation::ByHash(vec!["id".into()]),
        1 => Segmentation::ByHash(all),
        _ => Segmentation::Unsegmented,
    };
    c.create_table(TableDef::new(TABLE, schema(), segmentation).unwrap())
        .unwrap();
    // Rows for a rebalance to move (and a WOS beside the new containers).
    let mut s = c.connect(0).unwrap();
    let seed: Vec<Row> = (0..40)
        .map(|i| row![-(i as i64) - 1, 0.5f64, 1.0f64, "seed", true, 2.0f64])
        .collect();
    s.insert(TABLE, seed).unwrap();
    if bed.pending_add {
        // Crash the rebalance after its first migration: the add stays
        // pending and every insert dual-writes.
        c.faults().inject_once(FaultSite::Rebalance);
        assert!(c.add_node().is_err());
        assert!(c.rebalance_in_progress());
    }
    if let Some(node) = bed.down_node {
        c.set_node_down(node);
    }
    if bed.mid_copy_fault {
        c.faults().inject_once(FaultSite::MidCopy);
    }
    c.recorder().clear();
    c
}

/// Rows as a client would hand them over: mostly storable, some not.
fn input_rows(rng: &mut StdRng, widen: bool) -> Vec<Row> {
    let n = match rng.random_range(0..6) {
        0 => 0,
        1 => rng.random_range(1..4),
        _ => rng.random_range(4..70),
    };
    let all_null_n = rng.random_bool(0.3);
    let bad_share = [0.0, 0.0, 0.03, 0.2][rng.random_range(0..4)];
    (0..n)
        .map(|i| {
            let float = |rng: &mut StdRng| match rng.random_range(0..12) {
                0 => Value::Null,
                1 => Value::Float64(f64::NAN),
                2 => Value::Float64(-0.0),
                3 => Value::Float64(0.0),
                4 if widen => Value::Int64(rng.random_range(-5..5)),
                _ => Value::Float64(rng.random_range(-400..400) as f64 / 8.0),
            };
            let bad = rng.random_bool(bad_share);
            let id = if bad && rng.random_bool(0.5) {
                Value::Null
            } else {
                Value::Int64(rng.random_range(0..50) * (i as i64 % 3 + 1))
            };
            let y = match float(rng) {
                Value::Null if !bad => Value::Float64(1.0),
                v => v,
            };
            Row::new(vec![
                id,
                float(rng),
                y,
                match rng.random_range(0..5) {
                    0 => Value::Null,
                    1 => Value::Varchar(String::new()),
                    k => Value::Varchar(format!("s{}", "é".repeat(k))),
                },
                match rng.random_range(0..3) {
                    0 => Value::Null,
                    k => Value::Boolean(k == 1),
                },
                if all_null_n { Value::Null } else { float(rng) },
            ])
        })
        .collect()
}

fn source(rng: &mut StdRng, format: u8) -> CopySource {
    match format {
        0 => {
            let rows = input_rows(rng, true);
            let avro_schema = avrolite::AvroSchema::from_schema(TABLE, &schema());
            let codec = if rng.random_bool(0.5) {
                avrolite::Codec::Rle
            } else {
                avrolite::Codec::Null
            };
            let mut w =
                avrolite::Writer::new(avro_schema, codec).with_block_rows(rng.random_range(1..20));
            for r in &rows {
                w.write_row(r).unwrap();
            }
            let mut bytes = w.finish();
            // Now and then a damaged file: both must say the same.
            if rng.random_bool(0.05) && !bytes.is_empty() {
                let at = rng.random_range(0..bytes.len());
                bytes[at] ^= 0x41;
            }
            CopySource::Avro(bytes)
        }
        1 => {
            let mut text = String::new();
            for r in input_rows(rng, false) {
                let line = match rng.random_range(0..40) {
                    0 => "not,enough,fields".to_string(),
                    1 => format!("oops{}", common::csv::encode_row(&r, ',')),
                    _ => common::csv::encode_row(&r, ','),
                };
                text.push_str(&line);
                text.push('\n');
                if rng.random_bool(0.05) {
                    text.push('\n');
                }
            }
            CopySource::Csv {
                text,
                delimiter: ',',
            }
        }
        _ => {
            let mut rows = input_rows(rng, true);
            for r in &mut rows {
                match rng.random_range(0..40) {
                    0 => *r = row![1i64, 2.0f64],
                    1 => r.set(1, Value::Varchar("not a float".into())),
                    2 => r.set(4, Value::Int64(1)),
                    _ => {}
                }
            }
            CopySource::Rows(rows)
        }
    }
}

/// Everything a load leaves behind, in comparable form. Through `Debug`,
/// so that a NaN equals itself and `-0.0` does not equal `0.0`.
fn aftermath(c: &Arc<Cluster>, outcome: &DbResult<CopyResult>) -> Vec<String> {
    let mut out = vec![format!("{outcome:?}")];
    out.push(format!("{:?}", c.table_stats(TABLE).unwrap()));
    let epoch = c.current_epoch();
    for (n, node) in c.node_states().iter().enumerate() {
        let stores = node.stores.read();
        // Called by its full name: fabriclint resolves a bare `.scan(..)`
        // under the guard to every `scan` of the workspace.
        for v in NodeTableStore::scan(&stores[TABLE], epoch, None, None) {
            out.push(format!("node {n}: {v:?}"));
        }
    }
    let up = c.up_nodes()[0];
    let stats = c
        .connect(up)
        .unwrap()
        .execute("SELECT * FROM dc_column_stats")
        .unwrap()
        .rows()
        .unwrap();
    out.extend(stats.rows.iter().map(|r| format!("{r:?}")));
    let mut events: Vec<String> = c
        .recorder()
        .drain()
        .iter()
        .map(|e| format!("{e:?}"))
        .collect();
    events.sort();
    out.extend(events);
    out
}

/// 256 cases seeded from `base`, DIRECT and WOS loads alike.
fn run_cases(base: u64) {
    let mut loads = 0;
    let mut kinds = std::collections::BTreeSet::new();
    for case in 0..256u64 {
        let mut rng = StdRng::seed_from_u64(0xC0_15EE_D000 + base * 1_000 + case);
        let k_safety = rng.random_range(0..2);
        let bed = Bed {
            segmentation: (case % 3) as u8,
            k_safety,
            pending_add: rng.random_bool(0.4),
            down_node: rng.random_bool(0.15).then(|| rng.random_range(1..4)),
            mid_copy_fault: rng.random_bool(0.04),
        };
        let source = source(&mut rng, (case / 3 % 3) as u8);
        let options = CopyOptions {
            direct: rng.random_bool(0.5),
            rejected_max: [0, 1, 2, 4, u64::MAX][rng.random_range(0..5)],
        };
        let node = rng.random_range(0..4);
        let node = if bed.down_node == Some(node) { 0 } else { node };

        let (columnar, by_rows) = (cluster(bed), cluster(bed));
        let got = columnar
            .connect(node)
            .unwrap()
            .copy(TABLE, source.clone(), options.clone());
        let want = by_rows
            .connect(node)
            .unwrap()
            .with_txn(|cluster, txn, node, tag| {
                reference::run_copy(cluster, txn, node, tag, TABLE, source, &options)
            });
        let (got, want) = (aftermath(&columnar, &got), aftermath(&by_rows, &want));
        // Line by line, so that a failure names what differs.
        for (g, w) in got.iter().zip(&want) {
            assert_eq!(g, w, "base {base}, case {case}: {bed:?}, {options:?}");
        }
        assert_eq!(got.len(), want.len(), "base {base}, case {case}: {bed:?}");
        if got[0].starts_with("Ok") {
            loads += 1;
        }
        kinds.insert(
            got[0]
                .split(['(', ' ', '{'])
                .take(2)
                .collect::<Vec<_>>()
                .join(" "),
        );
    }
    // The cases must not all end one way.
    assert!(loads > 100, "only {loads} of 256 cases loaded");
    assert!(kinds.len() >= 4, "outcomes seen: {kinds:?}");
}

#[test]
fn columnar_direct_load_matches_the_row_routine() {
    run_cases(0);
}

/// `scripts/check.sh` runs this once with `--ignored`.
#[test]
#[ignore = "eight more seed sets of the differential above; check.sh runs them"]
fn columnar_load_matches_the_row_routine_eight_more_seed_sets() {
    for base in 1..=8 {
        run_cases(base);
    }
}

/// The column-wise hash of every subset of columns against the row
/// hash, over prefixes of rows seeded from `base` at every length a lane
/// kernel has an edge at, and with a NULL at every lane position.
pub(crate) fn column_wise_hash_matches(base: u64) {
    use rand::RngCore;
    let seed = 20 + base;
    let mut rng = StdRng::seed_from_u64(seed);
    let dtypes = [
        DataType::Int64,
        DataType::Float64,
        DataType::Varchar,
        DataType::Boolean,
    ];
    let rows: Vec<Row> = (0..10_000)
        .map(|_| {
            Row::new(
                dtypes
                    .iter()
                    .map(|dtype| match (rng.random_range(0..8), dtype) {
                        (0, _) => Value::Null,
                        (1, DataType::Int64) => Value::Int64(i64::MIN),
                        (2, DataType::Int64) => Value::Int64(i64::MAX),
                        (_, DataType::Int64) => Value::Int64(rng.next_u64() as i64),
                        // Any bit pattern: NaNs of every payload, both zeros.
                        (1, DataType::Float64) => Value::Float64(-0.0),
                        (2, DataType::Float64) => Value::Float64(0.0),
                        (3, DataType::Float64) => Value::Float64(f64::INFINITY),
                        (4, DataType::Float64) => Value::Float64(f64::NEG_INFINITY),
                        (_, DataType::Float64) => Value::Float64(f64::from_bits(rng.next_u64())),
                        (k, DataType::Varchar) => Value::Varchar("ü".repeat(k)),
                        (k, DataType::Boolean) => Value::Boolean(k % 2 == 0),
                    })
                    .collect(),
            )
        })
        .collect();
    let check = |rows: &[Row], what: &str| {
        let mut columns: Vec<ColumnVec> = dtypes.iter().map(|&t| ColumnVec::new(t)).collect();
        for r in rows {
            for (col, v) in columns.iter_mut().zip(r.values()) {
                col.push(v.clone()).unwrap();
            }
        }
        for subset in [vec![0], vec![2, 0], vec![0, 1, 2, 3], vec![1, 1, 3], vec![]] {
            let mut hashes = vec![common::hash::HASH_SEED; rows.len()];
            for &c in &subset {
                columns[c].fold_hash(&mut hashes);
            }
            for (r, h) in rows.iter().zip(&hashes) {
                assert_eq!(
                    *h,
                    common::hash::hash_row_columns(r, &subset),
                    "seed {seed}, {what}: {subset:?} of {r:?}"
                );
            }
        }
    };
    let lengths = (0..=17)
        .chain(63..=66)
        .chain(1023..=1025)
        .chain([5_000, 10_000]);
    for n in lengths {
        check(&rows[..n], &format!("{n} rows"));
    }
    let null_row = Row::new(vec![Value::Null; dtypes.len()]);
    for n in [8, 13, 16, 17] {
        for lane in 0..8 {
            let mut rows = rows[..n].to_vec();
            rows[lane] = null_row.clone();
            if lane + 8 < n {
                rows[lane + 8] = null_row.clone();
            }
            check(&rows, &format!("{n} rows, NULL in lane {lane}"));
        }
    }
}

#[test]
fn column_wise_hash_equals_the_row_hash() {
    column_wise_hash_matches(0);
}
