//! The two-stage transfer alternative (paper Sec. 5 and the
//! Spark-Redshift connector of Sec. 6): stage the data in a shared DFS
//! first, then move it into the other system in a second step.
//!
//! * **Save**: engine tasks write one columnar part-file per partition
//!   into the DFS; the driver then loads every part into the target
//!   table inside a single database transaction ("bookended by a BEGIN
//!   and END"), which is what gives the approach its exactly-once
//!   semantics.
//! * **Load**: each database node exports its local segment (pinned to
//!   one epoch) as a part-file; the engine reads one partition per
//!   file.
//!
//! Trade-offs, as the paper states them: the landing zone decouples the
//! systems, but every byte is written and read one extra time and the
//! DFS must hold a full copy of the dataset. Our stage 2 is the most
//! conservative reading of the Redshift description — one transactional
//! sequence of loads through a single session — so the measured penalty
//! is an upper bound; engines that fan the final load out across nodes
//! recover some of it. `cargo run -p bench -- ablation_two_stage`
//! quantifies this against the direct connector.

use std::sync::Arc;

use common::Row;
use dfslite::{colfile, DfsClusterSim};
use mppdb::catalog::{Segmentation, TableDef};
use mppdb::{Cluster, CopyOptions, CopySource, QuerySpec};
use netsim::record::NodeRef;
use sparklet::rdd::{Partition, PartitionSource};
use sparklet::{DataFrame, Rdd, SparkContext, SparkError, SparkResult};

use crate::error::ConnectorError;
use crate::retry::CallPolicy;

/// Configuration for a two-stage transfer.
#[derive(Debug, Clone)]
pub struct TwoStageConfig {
    /// DFS directory used as the landing zone.
    pub staging_path: String,
    /// Partition count for the staged files (defaults to the source's).
    pub partitions: Option<usize>,
    /// Database node the driver's bulk load connects through.
    pub host: usize,
    /// Remove the staged files after a successful transfer.
    pub cleanup: bool,
}

impl TwoStageConfig {
    pub fn new(staging_path: impl Into<String>) -> TwoStageConfig {
        TwoStageConfig {
            staging_path: staging_path.into(),
            partitions: None,
            host: 0,
            cleanup: true,
        }
    }
}

/// Outcome of a two-stage save.
#[derive(Debug, Clone, PartialEq)]
pub struct TwoStageReport {
    pub rows: u64,
    pub part_files: usize,
    pub staged_bytes: u64,
}

fn prefix(path: &str) -> String {
    format!("{}/", path.trim_end_matches('/'))
}

/// Save a DataFrame into `table` via the DFS landing zone.
pub(crate) fn run_via_dfs(
    ctx: &SparkContext,
    db: &Arc<Cluster>,
    dfs: &Arc<DfsClusterSim>,
    df: &DataFrame,
    table: &str,
    config: &TwoStageConfig,
    policy: &CallPolicy,
) -> SparkResult<TwoStageReport> {
    let dir = prefix(&config.staging_path);
    // A half-finished previous attempt may have left files: clear them.
    for f in dfs.list(&dir) {
        dfs.delete(&f)
            .map_err(|e| SparkError::DataSource(e.to_string()))?;
    }

    // ----- stage 1: engine tasks write part-files -----------------------
    let df = match config.partitions {
        Some(n) => df.repartition(n)?,
        None => df.clone(),
    };
    let schema = df.schema().clone();
    let rdd = df.rdd()?;
    let dir_for_tasks = dir.clone();
    let dfs_for_tasks = Arc::clone(dfs);
    let schema_for_tasks = schema.clone();
    ctx.run_job(&rdd, move |tc, rows: Vec<Row>| {
        let bytes = colfile::write(&schema_for_tasks, &rows, colfile::DEFAULT_ROW_GROUP);
        let file = format!("{dir_for_tasks}part-{:05}", tc.partition);
        let writer = NodeRef::Compute(tc.executor_node);
        match dfs_for_tasks.create(&file, &bytes, writer, Some(tc.partition as u64)) {
            Ok(()) => Ok(()),
            // A retried task replaces its own partial file.
            Err(dfslite::DfsError::FileExists(_)) => dfs_for_tasks
                .delete(&file)
                .and_then(|_| {
                    dfs_for_tasks.create(&file, &bytes, writer, Some(tc.partition as u64))
                })
                .map_err(|e| SparkError::DataSource(e.to_string())),
            Err(e) => Err(SparkError::DataSource(e.to_string())),
        }
    })?;

    // ----- stage 2: one transactional bulk load ------------------------
    if !db.has_table(table) {
        db.create_table(
            TableDef::new(table, schema.clone(), Segmentation::ByHash(vec![]))
                .map_err(|e| SparkError::DataSource(e.to_string()))?,
        )
        .map_err(|e| SparkError::DataSource(e.to_string()))?;
    }
    let files = dfs.list(&dir);
    // Connecting runs under the job's policy, pinned to the configured
    // host (the node the staged files are read through); the
    // transactional load itself is deliberately single-attempt — without
    // protocol tables to consult, a retry after a commit-then-lost-ack
    // would load twice.
    let connect = {
        let db = Arc::clone(db);
        move |node| {
            db.connect(node)
                .map_err(|e| ConnectorError::db("two_stage.connect", e))
        }
    };
    let mut session = policy
        .read(db, "two_stage.connect", &[config.host], Arc::new(connect))
        .map_err(SparkError::from)?;
    session
        .begin()
        .map_err(|e| SparkError::DataSource(e.to_string()))?;
    let mut rows_loaded = 0u64;
    let mut staged_bytes = 0u64;
    let result: SparkResult<()> = (|| {
        for file in &files {
            let bytes = dfs
                .read(file, NodeRef::Db(config.host), None)
                .map_err(|e| SparkError::DataSource(e.to_string()))?;
            staged_bytes += bytes.len() as u64;
            let (_, rows) =
                colfile::read_all(&bytes).map_err(|e| SparkError::DataSource(e.to_string()))?;
            let copy = session
                .copy(table, CopySource::Rows(rows), CopyOptions::default())
                .map_err(|e| SparkError::DataSource(e.to_string()))?;
            rows_loaded += copy.loaded;
        }
        Ok(())
    })();
    match result {
        Ok(()) => {
            session
                .commit()
                .map_err(|e| SparkError::DataSource(e.to_string()))?;
        }
        Err(e) => {
            let _ = session.rollback();
            return Err(e);
        }
    }

    if config.cleanup {
        for f in &files {
            let _ = dfs.delete(f);
        }
    }
    Ok(TwoStageReport {
        rows: rows_loaded,
        part_files: files.len(),
        staged_bytes,
    })
}

/// Partition source reading staged part-files (one per partition).
struct StagedFiles {
    dfs: Arc<DfsClusterSim>,
    files: Vec<String>,
    compute_nodes: usize,
}

impl PartitionSource<Row> for StagedFiles {
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
        Ok(rows.into())
    }
}

/// Load `table` into a DataFrame via the DFS landing zone: each
/// database node exports its local segment at one pinned epoch
/// (UNLOAD-style), then the engine reads the files.
pub fn load_via_dfs(
    ctx: &SparkContext,
    db: &Arc<Cluster>,
    dfs: &Arc<DfsClusterSim>,
    table: &str,
    config: &TwoStageConfig,
) -> SparkResult<DataFrame> {
    let dir = prefix(&config.staging_path);
    for f in dfs.list(&dir) {
        dfs.delete(&f)
            .map_err(|e| SparkError::DataSource(e.to_string()))?;
    }
    let def = db
        .table_def(table)
        .map_err(|e| SparkError::DataSource(e.to_string()))?;
    let epoch = db.current_epoch();

    // Stage 1: every node exports its segment, consistently.
    let map = db.segment_map();
    for node in db.up_nodes() {
        let mut session = db
            .connect(node)
            .map_err(|e| SparkError::DataSource(e.to_string()))?;
        let mut spec = QuerySpec::scan(&def.name).at_epoch(epoch);
        if def.is_segmented() {
            spec.hash_range = Some(map.segment_range(node));
        }
        let result = session
            .query(&spec)
            .map_err(|e| SparkError::DataSource(e.to_string()))?;
        let bytes = colfile::write(&def.schema, &result.rows, colfile::DEFAULT_ROW_GROUP);
        dfs.create(
            &format!("{dir}part-{node:05}"),
            &bytes,
            NodeRef::Db(node),
            None,
        )
        .map_err(|e| SparkError::DataSource(e.to_string()))?;
        if !def.is_segmented() {
            // Replicated tables export once.
            break;
        }
    }

    // Stage 2: the engine reads the staged files.
    let source = StagedFiles {
        dfs: Arc::clone(dfs),
        files: dfs.list(&dir),
        compute_nodes: ctx.conf().nodes,
    };
    let rdd = Rdd::from_source(ctx.clone(), Arc::new(source));
    Ok(DataFrame::from_row_rdd(rdd, def.schema))
}
