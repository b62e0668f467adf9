//! Native DFS read/write for the compute engine (paper Sec. 4.7.2).
//!
//! Writes emit one columnar part-file per partition under the output
//! directory; reads produce one partition per part-file (the paper's
//! Spark defaults to one partition per HDFS *block*; the benchmark
//! harness models block-grained parallelism analytically when scaling
//! up to paper sizes). There is no pushdown into storage: filters and
//! projections are applied after the full bytes are read — storage is
//! dumb, which is exactly the trade-off Fig. 12 probes.

use std::sync::Arc;

use common::expr::Expr;
use common::{Row, Schema};
use dfslite::{colfile, DfsClusterSim};
use netsim::record::NodeRef;
use sparklet::rdd::{Partition, PartitionSource};
use sparklet::{
    DataFrame, DataSourceProvider, Options, Rdd, SaveMode, ScanRelation, SparkContext, SparkError,
    SparkResult,
};

/// Format name to register under.
pub const DFS_FORMAT: &str = "dfs.colfile";

/// The provider.
pub struct DfsSource {
    dfs: Arc<DfsClusterSim>,
}

impl DfsSource {
    pub fn new(dfs: Arc<DfsClusterSim>) -> Arc<DfsSource> {
        Arc::new(DfsSource { dfs })
    }

    pub fn register(ctx: &SparkContext, dfs: Arc<DfsClusterSim>) {
        ctx.register_format(DFS_FORMAT, DfsSource::new(dfs));
    }
}

fn dir_prefix(path: &str) -> String {
    format!("{}/", path.trim_end_matches('/'))
}

struct DfsRelation {
    dfs: Arc<DfsClusterSim>,
    files: Vec<String>,
    schema: Schema,
}

struct DfsScanSource {
    dfs: Arc<DfsClusterSim>,
    files: Vec<String>,
    schema: Schema,
    projection: Option<Vec<usize>>,
    filters: Vec<Expr>,
    compute_nodes: usize,
}

impl PartitionSource<Row> for DfsScanSource {
    fn num_partitions(&self) -> usize {
        self.files.len()
    }

    fn compute(&self, partition: usize) -> SparkResult<Partition<Row>> {
        let reader = NodeRef::Compute(partition % self.compute_nodes);
        let bytes = self
            .dfs
            .read(&self.files[partition], reader, Some(partition as u64))
            .map_err(|e| SparkError::DataSource(e.to_string()))?;
        let (_, rows) =
            colfile::read_all(&bytes).map_err(|e| SparkError::DataSource(e.to_string()))?;
        self.dfs.recorder().work(
            Some(partition as u64),
            reader,
            "colfile_decode",
            rows.len() as u64,
            bytes.len() as u64,
        );
        // Filters/projection apply *after* I/O — no storage pushdown.
        let bound: Vec<Expr> = self
            .filters
            .iter()
            .map(|f| f.bind(&self.schema))
            .collect::<Result<_, _>>()
            .map_err(SparkError::Data)?;
        let mut out = Vec::with_capacity(rows.len());
        for row in rows {
            let keep = bound
                .iter()
                .try_fold(true, |acc, f| f.matches(&row).map(|m| acc && m))
                .map_err(SparkError::Data)?;
            if !keep {
                continue;
            }
            out.push(match &self.projection {
                Some(idx) => row.into_projected(idx),
                None => row,
            });
        }
        Ok(out.into())
    }
}

impl ScanRelation for DfsRelation {
    fn schema(&self) -> Schema {
        self.schema.clone()
    }

    fn scan(
        &self,
        ctx: &SparkContext,
        projection: Option<&[String]>,
        filters: &[Expr],
    ) -> SparkResult<Rdd<Row>> {
        let projection_idx = match projection {
            Some(cols) => Some(
                cols.iter()
                    .map(|c| self.schema.index_of(c))
                    .collect::<Result<Vec<_>, _>>()
                    .map_err(SparkError::Data)?,
            ),
            None => None,
        };
        let source = DfsScanSource {
            dfs: Arc::clone(&self.dfs),
            files: self.files.clone(),
            schema: self.schema.clone(),
            projection: projection_idx,
            filters: filters.to_vec(),
            compute_nodes: ctx.conf().nodes,
        };
        Ok(Rdd::from_source(ctx.clone(), Arc::new(source)))
    }
}

impl DataSourceProvider for DfsSource {
    fn create_relation(
        &self,
        _ctx: &SparkContext,
        options: &Options,
    ) -> SparkResult<Arc<dyn ScanRelation>> {
        let path = options.require("path")?;
        let files = self.dfs.list(&dir_prefix(path));
        if files.is_empty() {
            return Err(SparkError::DataSource(format!(
                "no part files under {path}"
            )));
        }
        // Schema from the first part-file's footer.
        let head = self
            .dfs
            .read(&files[0], NodeRef::Client, None)
            .map_err(|e| SparkError::DataSource(e.to_string()))?;
        let meta = colfile::read_meta(&head).map_err(|e| SparkError::DataSource(e.to_string()))?;
        Ok(Arc::new(DfsRelation {
            dfs: Arc::clone(&self.dfs),
            files,
            schema: meta.schema,
        }))
    }

    fn save(
        &self,
        ctx: &SparkContext,
        options: &Options,
        df: &DataFrame,
        mode: SaveMode,
    ) -> SparkResult<()> {
        let path = options.require("path")?.to_string();
        let prefix = dir_prefix(&path);
        let existing = self.dfs.list(&prefix);
        match mode {
            SaveMode::ErrorIfExists if !existing.is_empty() => {
                return Err(SparkError::DataSource(format!("path {path} exists")))
            }
            SaveMode::Ignore if !existing.is_empty() => return Ok(()),
            SaveMode::Overwrite => {
                for f in &existing {
                    self.dfs
                        .delete(f)
                        .map_err(|e| SparkError::DataSource(e.to_string()))?;
                }
            }
            _ => {}
        }
        let offset = if mode == SaveMode::Append {
            existing.len()
        } else {
            0
        };

        let rdd = df.rdd()?;
        let schema = df.schema().clone();
        let dfs = Arc::clone(&self.dfs);
        ctx.run_job(&rdd, move |tc, rows: Vec<Row>| {
            let bytes = colfile::write(&schema, &rows, colfile::DEFAULT_ROW_GROUP);
            let writer = NodeRef::Compute(tc.executor_node);
            dfs.recorder().work(
                Some(tc.partition as u64),
                writer,
                "colfile_encode",
                rows.len() as u64,
                bytes.len() as u64,
            );
            let file = format!("{prefix}part-{:05}", offset + tc.partition);
            match dfs.create(&file, &bytes, writer, Some(tc.partition as u64)) {
                Ok(()) => Ok(()),
                // A retried task finds its own partial output: replace it.
                Err(dfslite::DfsError::FileExists(_)) => {
                    dfs.delete(&file)
                        .map_err(|e| SparkError::DataSource(e.to_string()))?;
                    dfs.create(&file, &bytes, writer, Some(tc.partition as u64))
                        .map_err(|e| SparkError::DataSource(e.to_string()))
                }
                Err(e) => Err(SparkError::DataSource(e.to_string())),
            }
        })?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dir_prefix_normalizes() {
        assert_eq!(dir_prefix("/data/out"), "/data/out/");
        assert_eq!(dir_prefix("/data/out/"), "/data/out/");
    }
}
