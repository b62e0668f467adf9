//! The generic JDBC DefaultSource baseline (paper Sec. 4.7.1).
//!
//! Differences from the connector, all faithful to the paper:
//!
//! * **Load parallelism needs help**: the source table must have an
//!   integer column, and the user must pass its name plus `lowerBound`
//!   and `upperBound`; the range is split evenly per partition. Without
//!   these, the load is a single partition.
//! * **No locality**: every partition's query goes through the single
//!   configured host node, which fans the work out to the other nodes
//!   and shuffles their rows back internally.
//! * **No epoch pinning**: each partition reads whatever is committed
//!   when *it* runs, so concurrent updates can yield an inconsistent
//!   view across partitions.
//! * **Saves are INSERT batches**: per-partition transactions with no
//!   cross-task coordination — a job that dies mid-way leaves a partial
//!   load, and a task that fails after committing duplicates rows when
//!   retried.

use std::sync::Arc;

use common::expr::Expr;
use common::{Row, Schema};
use mppdb::{Cluster, QuerySpec};
use netsim::record::{NetClass, NodeRef};
use sparklet::rdd::{Partition, PartitionSource};
use sparklet::{
    DataFrame, DataSourceProvider, Options, Rdd, SaveMode, ScanRelation, SparkContext, SparkError,
    SparkResult,
};

/// Format name to register under.
pub const JDBC_FORMAT: &str = "jdbc";

/// Rows per INSERT statement batch.
const INSERT_BATCH: usize = 1000;

/// The provider.
pub struct JdbcDefaultSource {
    cluster: Arc<Cluster>,
}

impl JdbcDefaultSource {
    pub fn new(cluster: Arc<Cluster>) -> Arc<JdbcDefaultSource> {
        Arc::new(JdbcDefaultSource { cluster })
    }

    pub fn register(ctx: &SparkContext, cluster: Arc<Cluster>) {
        ctx.register_format(JDBC_FORMAT, JdbcDefaultSource::new(cluster));
    }
}

struct JdbcRelation {
    cluster: Arc<Cluster>,
    table: String,
    schema: Schema,
    host: usize,
    /// `(column, lower, upper, partitions)` when range-parallelized.
    partitioning: Option<(String, i64, i64, usize)>,
}

struct JdbcScanSource {
    cluster: Arc<Cluster>,
    table: String,
    host: usize,
    /// Per-partition extra range predicate.
    ranges: Vec<Option<Expr>>,
    projection: Option<Vec<String>>,
    filters: Vec<Expr>,
    compute_nodes: usize,
}

impl PartitionSource<Row> for JdbcScanSource {
    fn num_partitions(&self) -> usize {
        self.ranges.len()
    }

    fn compute(&self, partition: usize) -> SparkResult<Partition<Row>> {
        // Everything goes through the single host — the "all queries
        // through one node" behaviour the paper calls out.
        let mut session = self
            .cluster
            .connect(self.host)
            .map_err(|e| SparkError::DataSource(e.to_string()))?;
        session.set_task_tag(Some(partition as u64));
        self.cluster.recorder().setup(
            Some(partition as u64),
            NodeRef::Db(self.host),
            "jdbc_connect",
        );
        let mut predicates: Vec<Expr> = self.filters.clone();
        if let Some(range) = &self.ranges[partition] {
            predicates.push(range.clone());
        }
        let mut spec = QuerySpec::scan(&self.table);
        spec.projection = self.projection.clone();
        spec.predicate = predicates.into_iter().reduce(|a, b| a.and(b));
        // NOTE: no `at_epoch` — reads are not pinned to a snapshot.
        let result = session
            .query(&spec)
            .map_err(|e| SparkError::DataSource(e.to_string()))?;
        let executor = partition % self.compute_nodes;
        self.cluster.recorder().transfer(
            Some(partition as u64),
            NodeRef::Db(self.host),
            NodeRef::Compute(executor),
            NetClass::External,
            result.text_wire_bytes(),
            result.rows.len() as u64,
        );
        Ok(result.rows.into())
    }
}

impl ScanRelation for JdbcRelation {
    fn schema(&self) -> Schema {
        self.schema.clone()
    }

    fn scan(
        &self,
        ctx: &SparkContext,
        projection: Option<&[String]>,
        filters: &[Expr],
    ) -> SparkResult<Rdd<Row>> {
        let ranges: Vec<Option<Expr>> = match &self.partitioning {
            None => vec![None],
            Some((column, lower, upper, partitions)) => {
                split_bounds(*lower, *upper, *partitions)
                    .into_iter()
                    .map(|(lo, hi, last)| {
                        let col = Expr::col(column.clone());
                        let lower_bound = col.clone().gt_eq(Expr::lit(lo));
                        Some(if last {
                            // The final stride is closed above.
                            lower_bound.and(col.lt_eq(Expr::lit(hi)))
                        } else {
                            lower_bound.and(col.lt(Expr::lit(hi)))
                        })
                    })
                    .collect()
            }
        };
        let source = JdbcScanSource {
            cluster: Arc::clone(&self.cluster),
            table: self.table.clone(),
            host: self.host,
            ranges,
            projection: projection.map(|p| p.to_vec()),
            filters: filters.to_vec(),
            compute_nodes: ctx.conf().nodes,
        };
        Ok(Rdd::from_source(ctx.clone(), Arc::new(source)))
    }
}

/// Even strides over `[lower, upper]`; returns `(lo, hi, is_last)`.
fn split_bounds(lower: i64, upper: i64, partitions: usize) -> Vec<(i64, i64, bool)> {
    let partitions = partitions.max(1) as i64;
    let span = (upper - lower).max(0);
    (0..partitions)
        .map(|p| {
            let lo = lower + span * p / partitions;
            let hi = lower + span * (p + 1) / partitions;
            (lo, hi, p + 1 == partitions)
        })
        .collect()
}

impl DataSourceProvider for JdbcDefaultSource {
    fn create_relation(
        &self,
        _ctx: &SparkContext,
        options: &Options,
    ) -> SparkResult<Arc<dyn ScanRelation>> {
        let table = options
            .require("dbtable")
            .or_else(|_| options.require("table"))?;
        let host = options.get_parsed::<usize>("host")?.unwrap_or(0);
        let def = self
            .cluster
            .table_def(table)
            .map_err(|e| SparkError::DataSource(e.to_string()))?;
        let partitioning = match options.get("partitioncolumn") {
            None => None,
            Some(column) => {
                let lower = options.get_parsed::<i64>("lowerbound")?.ok_or_else(|| {
                    SparkError::Usage("partitionColumn requires lowerBound".into())
                })?;
                let upper = options.get_parsed::<i64>("upperbound")?.ok_or_else(|| {
                    SparkError::Usage("partitionColumn requires upperBound".into())
                })?;
                let partitions = options.get_parsed::<usize>("numpartitions")?.unwrap_or(1);
                def.schema
                    .index_of(column)
                    .map_err(|e| SparkError::DataSource(e.to_string()))?;
                Some((column.to_string(), lower, upper, partitions))
            }
        };
        Ok(Arc::new(JdbcRelation {
            cluster: Arc::clone(&self.cluster),
            table: def.name.clone(),
            schema: def.schema,
            host,
            partitioning,
        }))
    }

    fn save(
        &self,
        ctx: &SparkContext,
        options: &Options,
        df: &DataFrame,
        mode: SaveMode,
    ) -> SparkResult<()> {
        let table = options
            .require("dbtable")
            .or_else(|_| options.require("table"))?
            .to_string();
        let host = options.get_parsed::<usize>("host")?.unwrap_or(0);
        let cluster = Arc::clone(&self.cluster);

        let exists = cluster.has_table(&table);
        match mode {
            SaveMode::ErrorIfExists if exists => {
                return Err(SparkError::DataSource(format!("table {table} exists")))
            }
            SaveMode::Ignore if exists => return Ok(()),
            SaveMode::Overwrite
                // JDBC overwrite truncates up front — no staging, so a
                // later failure leaves the table partially loaded.
                if exists => {
                    let mut session = cluster.connect(host).map_err(|e| {
                        SparkError::DataSource(e.to_string())
                    })?;
                    session
                        .execute(&format!("DELETE FROM {table}"))
                        .map_err(|e| SparkError::DataSource(e.to_string()))?;
                }
            _ => {}
        }
        if !exists {
            cluster
                .create_table(
                    mppdb::catalog::TableDef::new(
                        &table,
                        df.schema().clone(),
                        mppdb::catalog::Segmentation::ByHash(vec![]),
                    )
                    .map_err(|e| SparkError::DataSource(e.to_string()))?,
                )
                .map_err(|e| SparkError::DataSource(e.to_string()))?;
        }

        let rdd = df.rdd()?;
        let table_ref = table.as_str();
        let cluster_ref = &cluster;
        ctx.run_job(&rdd, move |tc, rows: Vec<Row>| {
            let mut session = cluster_ref
                .connect(host)
                .map_err(|e| SparkError::DataSource(e.to_string()))?;
            session.set_task_tag(Some(tc.partition as u64));
            cluster_ref.recorder().setup(
                Some(tc.partition as u64),
                NodeRef::Db(host),
                "jdbc_connect",
            );
            // A batch of INSERT statements per chunk; each batch is its
            // own little transaction, committed independently.
            for batch in rows.chunks(INSERT_BATCH) {
                // INSERT statements are textual.
                let bytes: u64 = batch.iter().map(|r| r.text_wire_size() as u64).sum();
                cluster_ref.recorder().work(
                    Some(tc.partition as u64),
                    NodeRef::Compute(tc.executor_node),
                    "jdbc_insert_encode",
                    batch.len() as u64,
                    bytes,
                );
                cluster_ref.recorder().transfer(
                    Some(tc.partition as u64),
                    NodeRef::Compute(tc.executor_node),
                    NodeRef::Db(host),
                    NetClass::External,
                    bytes,
                    batch.len() as u64,
                );
                cluster_ref.recorder().work(
                    Some(tc.partition as u64),
                    NodeRef::Db(host),
                    "jdbc_insert_parse",
                    batch.len() as u64,
                    bytes,
                );
                session
                    .insert(table_ref, batch.to_vec())
                    .map_err(|e| SparkError::DataSource(e.to_string()))?;
            }
            Ok(())
        })?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn split_bounds_covers_range() {
        let strides = split_bounds(0, 100, 4);
        assert_eq!(
            strides,
            vec![
                (0, 25, false),
                (25, 50, false),
                (50, 75, false),
                (75, 100, true)
            ]
        );
        // Degenerate single partition.
        assert_eq!(split_bounds(5, 5, 1), vec![(5, 5, true)]);
    }
}
