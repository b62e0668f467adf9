//! The COPY bulk-load utility.
//!
//! COPY is "the standard way to load large amounts of data" (Sec.
//! 4.7.3) and the engine-side half of S2V: the connector streams each
//! task's Avro-encoded partition into COPY (the `VerticaCopyStream`
//! analog, Sec. 3.2.2). Sources: delimited text (CSV), Avro container
//! bytes, and pre-parsed rows. Malformed or schema-violating input rows
//! are *rejected* rather than failing the load, up to a caller-supplied
//! tolerance; a sample of rejected rows is returned (Sec. 3.2).

use common::{csv, Row, Schema};
use netsim::record::NodeRef;

use crate::cluster::Cluster;
use crate::error::{DbError, DbResult};
use crate::storage::ColumnVec;
use crate::txn::TxnHandle;

/// Bulk-load input.
#[derive(Debug, Clone)]
pub enum CopySource {
    /// Delimited text, one row per line.
    Csv { text: String, delimiter: char },
    /// An `avrolite` container file.
    Avro(Vec<u8>),
    /// Pre-parsed rows (used by in-process loaders and tests).
    Rows(Vec<Row>),
}

/// Load options.
#[derive(Debug, Clone)]
pub struct CopyOptions {
    /// DIRECT loads skip the WOS and write encoded ROS containers.
    pub direct: bool,
    /// Maximum rejected rows before the whole load aborts.
    pub rejected_max: u64,
}

impl Default for CopyOptions {
    fn default() -> CopyOptions {
        CopyOptions {
            direct: true,
            rejected_max: 0,
        }
    }
}

impl CopyOptions {
    pub fn tolerating(rejected_max: u64) -> CopyOptions {
        CopyOptions {
            rejected_max,
            ..CopyOptions::default()
        }
    }
}

/// Outcome of a COPY.
#[derive(Debug, Clone, PartialEq)]
pub struct CopyResult {
    pub loaded: u64,
    pub rejected: u64,
    /// Up to [`REJECT_SAMPLE`] `(line number, reason)` pairs.
    pub rejected_sample: Vec<(u64, String)>,
}

/// How many rejected rows are sampled into the result.
pub const REJECT_SAMPLE: usize = 10;

/// Rows turned away so far, with the first few reasons.
#[derive(Default)]
struct Rejects {
    count: u64,
    sample: Vec<(u64, String)>,
}

impl Rejects {
    fn reject(&mut self, line: u64, reason: String) {
        self.count += 1;
        if self.sample.len() < REJECT_SAMPLE {
            self.sample.push((line, reason));
        }
    }
}

/// The rows a COPY accepted: one typed vector per table column, all
/// `rows` long between rows. Both destinations store columns, so no
/// source keeps its rows as rows.
struct ColumnBuilders {
    columns: Vec<ColumnVec>,
    rows: usize,
}

impl ColumnBuilders {
    fn new(schema: &Schema) -> ColumnBuilders {
        ColumnBuilders {
            columns: schema
                .fields()
                .iter()
                .map(|f| ColumnVec::new(f.dtype))
                .collect(),
            rows: 0,
        }
    }

    /// Take back whatever a turned-away row left in the first `filled`
    /// columns.
    fn unwind(&mut self, filled: usize) {
        for col in &mut self.columns[..filled] {
            col.truncate(self.rows);
        }
    }

    /// Check `row` against the schema and append it, widening as
    /// `ColumnVec::push` does, or say why not.
    fn push(&mut self, schema: &Schema, row: Row) -> common::Result<()> {
        schema.validate_row(&row)?;
        for (filled, (col, value)) in self.columns.iter_mut().zip(row.into_values()).enumerate() {
            if let Err(e) = col.push(value) {
                self.unwind(filled);
                return Err(e);
            }
        }
        self.rows += 1;
        Ok(())
    }
}

/// Decoded Avro fields go straight onto the column builders. The checks
/// are `Schema::validate_row`'s, field by field as the fields arrive: a
/// NULL in a NOT NULL column or a value of another type turns the row
/// away, with the reason the row check would give, and what the row had
/// already appended is taken back when it ends.
struct ColumnSink<'a> {
    schema: &'a Schema,
    builders: &'a mut ColumnBuilders,
    rejects: &'a mut Rejects,
    /// Rows seen, good or bad: the 1-based line number of the last one.
    line: u64,
    /// Why the row being decoded is turned away, and how many of its
    /// fields were appended before that.
    bad: Option<(String, usize)>,
}

/// Append `$v` to the `$variant` vector of `$field`, unless the row is
/// already turned away. The column has the field's type (`run_copy`
/// checks the schemas before it decodes); if it had another, the row
/// would be turned away as `Schema::validate_row` would.
macro_rules! append {
    ($sink:ident, $field:ident, $variant:ident($v:expr)) => {
        if $sink.bad.is_none() {
            match &mut $sink.builders.columns[$field] {
                ColumnVec::$variant(col) => col.push($v),
                col => {
                    let mismatch = common::Error::TypeMismatch {
                        expected: col.dtype().sql_name().to_string(),
                        found: common::DataType::$variant.sql_name().to_string(),
                    };
                    $sink.bad = Some((mismatch.to_string(), $field));
                }
            }
        }
    };
}

impl avrolite::FieldSink for ColumnSink<'_> {
    fn null(&mut self, field: usize) {
        if self.bad.is_some() {
            return;
        }
        let f = self.schema.field(field);
        if f.nullable {
            self.builders.columns[field].push_nulls(1);
        } else {
            let null =
                common::Error::SchemaMismatch(format!("NULL in non-nullable column {}", f.name));
            self.bad = Some((null.to_string(), field));
        }
    }
    fn boolean(&mut self, field: usize, v: bool) {
        append!(self, field, Boolean(v));
    }
    fn long(&mut self, field: usize, v: i64) {
        append!(self, field, Int64(v));
    }
    fn double(&mut self, field: usize, v: f64) {
        append!(self, field, Float64(v));
    }
    fn string(&mut self, field: usize, v: &str) {
        append!(self, field, Varchar(v.to_string()));
    }
    fn end_row(&mut self) {
        self.line += 1;
        match self.bad.take() {
            None => self.builders.rows += 1,
            Some((reason, filled)) => {
                self.builders.unwind(filled);
                self.rejects.reject(self.line, reason);
            }
        }
    }
}

pub(crate) fn run_copy(
    cluster: &Cluster,
    txn: &mut TxnHandle,
    node: usize,
    task: Option<u64>,
    table: &str,
    source: CopySource,
    options: &CopyOptions,
) -> DbResult<CopyResult> {
    let def = cluster.table_def(table)?;
    cluster
        .faults()
        .apply_latency(crate::fault::LatencySite::Copy, node);
    let copy_started = std::time::Instant::now();
    let (format, input_bytes) = match &source {
        CopySource::Csv { text, .. } => ("csv", text.len() as u64),
        CopySource::Avro(bytes) => ("avro", bytes.len() as u64),
        CopySource::Rows(rows) => (
            "rows",
            rows.iter().map(|r| r.wire_size() as u64).sum::<u64>(),
        ),
    };
    let schema = &def.schema;
    let mut good = ColumnBuilders::new(schema);
    let mut rejects = Rejects::default();

    match source {
        CopySource::Csv { text, delimiter } => {
            let bytes = text.len() as u64;
            let mut line_no = 0u64;
            for line in text.lines() {
                if line.is_empty() {
                    continue;
                }
                line_no += 1;
                if let Err(e) =
                    csv::parse_row(line, schema, delimiter).and_then(|row| good.push(schema, row))
                {
                    rejects.reject(line_no, e.to_string());
                }
            }
            cluster
                .recorder()
                .work(task, NodeRef::Db(node), "copy_parse_csv", line_no, bytes);
        }
        CopySource::Avro(bytes) => {
            let size = bytes.len() as u64;
            let container = avrolite::Container::open(&bytes).map_err(DbError::Data)?;
            if !container.schema().to_schema().compatible_with(schema) {
                // A file of another schema is read only to find damage,
                // which is reported first.
                let reader = avrolite::Reader::new(&bytes).map_err(DbError::Data)?;
                return Err(DbError::Data(common::Error::SchemaMismatch(format!(
                    "avro schema {} does not match table {}",
                    reader.schema().to_json(),
                    def.name
                ))));
            }
            let mut sink = ColumnSink {
                schema,
                builders: &mut good,
                rejects: &mut rejects,
                line: 0,
                bad: None,
            };
            container.decode_into(&mut sink).map_err(DbError::Data)?;
            let line_no = sink.line;
            cluster
                .recorder()
                .work(task, NodeRef::Db(node), "copy_parse_avro", line_no, size);
        }
        CopySource::Rows(rows) => {
            for (i, row) in rows.into_iter().enumerate() {
                if let Err(e) = good.push(schema, row) {
                    rejects.reject(i as u64 + 1, e.to_string());
                }
            }
        }
    }

    let Rejects {
        count: rejected,
        sample,
    } = rejects;
    if rejected > options.rejected_max {
        obs::global().add(obs::names::DB_COPY_REJECTS, rejected);
        return Err(DbError::CopyRejected {
            rejected,
            tolerance: options.rejected_max,
        });
    }

    if cluster
        .faults()
        .should_fire(crate::fault::FaultSite::MidCopy, node)
    {
        // The stream died after parsing but before any row was applied;
        // the enclosing transaction aborts and nothing is visible.
        return Err(DbError::ConnectionLost { node });
    }

    let ColumnBuilders { columns, rows } = good;
    let loaded = cluster.insert_columns(txn, node, task, table, columns, rows, options.direct)?;
    obs::global().emit(obs::EventKind::CopyLoad, |e| {
        e.node = Some(node as u64);
        e.task = task;
        e.rows = loaded;
        e.bytes = input_bytes;
        e.dur_us = copy_started.elapsed().as_micros() as u64;
        e.detail = format!(
            "{format} into {table}, {rejected} rejected{}",
            if options.direct { ", direct" } else { "" }
        );
    });
    obs::global().add("db.copy_rows", loaded);
    obs::global().add("db.copy_bytes", input_bytes);
    obs::global().add(obs::names::DB_COPY_REJECTS, rejected);
    obs::global().record_time("db.copy_us", copy_started.elapsed());
    Ok(CopyResult {
        loaded,
        rejected,
        rejected_sample: sample,
    })
}

pub(crate) mod differential;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::{Segmentation, TableDef};
    use crate::cluster::{Cluster, ClusterConfig};
    use common::{DataType, Schema};

    fn setup() -> std::sync::Arc<Cluster> {
        let c = Cluster::new(ClusterConfig::default());
        c.create_table(
            TableDef::new(
                "t",
                Schema::new(vec![
                    common::Field::not_null("id", DataType::Int64),
                    common::Field::new("x", DataType::Float64),
                ]),
                Segmentation::ByHash(vec!["id".into()]),
            )
            .unwrap(),
        )
        .unwrap();
        c
    }

    #[test]
    fn csv_copy_loads_and_lands_in_ros_when_direct() {
        let c = setup();
        let mut s = c.connect(0).unwrap();
        let result = s
            .copy(
                "t",
                CopySource::Csv {
                    text: "1,0.5\n2,1.5\n3,2.5\n".into(),
                    delimiter: ',',
                },
                CopyOptions::default(),
            )
            .unwrap();
        assert_eq!(result.loaded, 3);
        assert_eq!(result.rejected, 0);
        let stats = c.table_stats("t").unwrap();
        assert_eq!(stats.iter().map(|st| st.ros_rows).sum::<usize>(), 3);
        assert_eq!(stats.iter().map(|st| st.wos_rows).sum::<usize>(), 0);
    }

    #[test]
    fn rejected_rows_within_tolerance() {
        let c = setup();
        let mut s = c.connect(0).unwrap();
        // Line 2 has a bad integer; line 4 violates NOT NULL.
        let text = "1,0.5\nnope,1.0\n3,2.5\n,9.0\n";
        let result = s
            .copy(
                "t",
                CopySource::Csv {
                    text: text.into(),
                    delimiter: ',',
                },
                CopyOptions::tolerating(2),
            )
            .unwrap();
        assert_eq!(result.loaded, 2);
        assert_eq!(result.rejected, 2);
        assert_eq!(result.rejected_sample.len(), 2);
        assert_eq!(result.rejected_sample[0].0, 2);
        assert_eq!(result.rejected_sample[1].0, 4);
    }

    #[test]
    fn rejects_above_tolerance_abort_whole_load() {
        let c = setup();
        let mut s = c.connect(0).unwrap();
        let err = s
            .copy(
                "t",
                CopySource::Csv {
                    text: "bad,row\n1,1.0\n".into(),
                    delimiter: ',',
                },
                CopyOptions::default(),
            )
            .unwrap_err();
        assert!(matches!(err, DbError::CopyRejected { rejected: 1, .. }));
        // Nothing committed.
        let stats = c.table_stats("t").unwrap();
        assert_eq!(
            stats
                .iter()
                .map(|st| st.ros_rows + st.wos_rows)
                .sum::<usize>(),
            0
        );
    }

    #[test]
    fn avro_copy_round_trip() {
        let c = setup();
        let schema = c.table_def("t").unwrap().schema;
        let avro_schema = avrolite::AvroSchema::from_schema("t", &schema);
        let mut w = avrolite::Writer::new(avro_schema, avrolite::Codec::Rle);
        for i in 0..100i64 {
            w.write_row(&common::row![i, i as f64 / 2.0]).unwrap();
        }
        let bytes = w.finish();
        let mut s = c.connect(1).unwrap();
        let result = s
            .copy("t", CopySource::Avro(bytes), CopyOptions::default())
            .unwrap();
        assert_eq!(result.loaded, 100);
        let q = s
            .query(&crate::query::QuerySpec::scan("t").count())
            .unwrap();
        assert_eq!(q.count, 100);
    }

    #[test]
    fn avro_schema_mismatch_rejected() {
        let c = setup();
        let wrong =
            avrolite::AvroSchema::new("w", vec![("only_one".into(), avrolite::AvroType::Long)]);
        let w = avrolite::Writer::new(wrong, avrolite::Codec::Null);
        let bytes = w.finish();
        let mut s = c.connect(0).unwrap();
        assert!(s
            .copy("t", CopySource::Avro(bytes), CopyOptions::default())
            .is_err());
    }
}
