//! The database connector for the compute engine — the paper's primary
//! contribution.
//!
//! Three components, matching Fig. 1 of the paper:
//!
//! * **V2S** ([`v2s`]) — parallel, locality-aware load of database
//!   tables (and views) into DataFrames. Each task formulates a hash-
//!   range query for data *local* to the node it connects to,
//!   eliminating internal shuffle; all tasks read at one pinned epoch,
//!   so the load is a consistent snapshot with exactly-once semantics
//!   regardless of task retries (Sec. 3.1).
//! * **S2V** ([`s2v`]) — parallel save of DataFrames into the database
//!   with exactly-once semantics. Stateless tasks coordinate through
//!   durable protocol tables *in the database itself* (staging, task
//!   status, last committer, final status), surviving task failures,
//!   restarts, speculative duplicates, and total engine failure
//!   (Sec. 3.2).
//! * **MD** ([`md`]) — PMML model deployment: store documents in the
//!   database's internal DFS with a metadata table, and score them from
//!   SQL via the generic `PMMLPredict` UDx (Sec. 3.3).
//!
//! Every database touchpoint runs under a typed error surface
//! ([`error::ConnectorError`]) and one call policy
//! ([`retry::CallPolicy`], built once per `save()`/`load()`): it
//! places the call (failover candidates steered away from nodes whose
//! [`health`] circuit breaker is open), bounds it (the retry budget
//! and the job-wide [`health::Deadline`]), retries transient errors,
//! feeds the outcome back to the breakers, and hedges idempotent reads
//! onto a buddy node past the observed P99. Reads enter through
//! [`retry::CallPolicy::read`], writes through
//! [`retry::RetryConn::run`]; [`fault-injection`] on the database side
//! drives the chaos suite that exercises both.
//!
//! The connector plugs into the engine's External Data Source API under
//! the format name [`DEFAULT_SOURCE`], so the user-facing surface is
//! exactly the paper's Table 1:
//!
//! ```text
//! df.read.format(DEFAULT_SOURCE).options(opts).load()
//! df.write.format(DEFAULT_SOURCE).options(opts).mode(mode).save()
//! ```
//!
//! Every write path — the direct S2V protocol, the two-stage DFS load,
//! and streaming micro-batch ingest — hangs off one typed entry point,
//! [`SaveRequest`], dispatched by `ConnectorOptions::{ingest, method}`;
//! all of them return the same [`SaveReport`].
//!
//! [`fault-injection`]: mppdb::fault

pub mod error;
pub mod health;
pub mod ingest;
pub mod md;
pub mod options;
pub mod retry;
pub mod s2v;
pub mod stream;
pub mod two_stage;
pub mod v2s;

use std::sync::Arc;

use dfslite::DfsClusterSim;
use mppdb::Cluster;
use sparklet::{DataFrame, DataSourceProvider, Options, SaveMode, ScanRelation, SparkContext};

pub use error::{ConnectorError, ConnectorResult};
pub use health::{BreakerState, Deadline, HealthConfig, HealthTracker};
pub use ingest::SaveRequest;
pub use md::ModelDeployment;
pub use options::{ConnectorOptions, ConnectorOptionsBuilder, IngestMode, WriteMethod};
pub use retry::{CallPolicy, RetryConn, RetryPolicy};
pub use s2v::S2vReport;
pub use stream::StreamWriter;
pub use two_stage::{load_via_dfs, TwoStageConfig, TwoStageReport};
pub use v2s::DbRelation;

/// The format name the connector registers under — the paper's
/// implementation-specific DefaultSource string.
pub const DEFAULT_SOURCE: &str = "com.vertica.spark.datasource.DefaultSource";

/// Outcome of a save through either write path.
#[derive(Debug, Clone, PartialEq)]
pub struct SaveReport {
    pub method: WriteMethod,
    /// S2V job name (empty for the DFS path, which has no protocol job).
    pub job_name: String,
    pub rows_loaded: u64,
    pub rows_rejected: u64,
    /// S2V: the task that won the final-commit race.
    pub committer_task: Option<u64>,
    /// S2V: `(task, first rejection reason)` samples.
    pub rejected_samples: Vec<(u64, String)>,
    /// S2V: the scheduler job id of the save.
    pub engine_job_id: u64,
    /// S2V: cumulative microseconds per Fig. 5 phase.
    pub phase_us: [u64; 5],
    /// DFS path: number of staged part-files.
    pub part_files: usize,
    /// DFS path: bytes that crossed the landing zone.
    pub staged_bytes: u64,
    /// Streaming path: micro-batches committed (0 for bulk saves).
    pub batches: u64,
    /// The save's span tree in the global collector (S2V path only;
    /// [`obs::TraceId`] 0 when untraced).
    pub trace: obs::TraceId,
}

impl SaveReport {
    /// Render the save's span tree and critical path (empty when
    /// tracing was disabled, the trace was evicted, or the save went
    /// through the untraced DFS path).
    pub fn profile(&self) -> String {
        obs::trace::render(&obs::global().trace_spans(self.trace))
    }

    /// An all-zero report for no-op saves (e.g. `SaveMode::Ignore` on
    /// an existing table).
    pub fn empty(method: WriteMethod) -> SaveReport {
        SaveReport {
            method,
            job_name: String::new(),
            rows_loaded: 0,
            rows_rejected: 0,
            committer_task: None,
            rejected_samples: Vec::new(),
            engine_job_id: 0,
            phase_us: [0; 5],
            part_files: 0,
            staged_bytes: 0,
            batches: 0,
            trace: obs::TraceId(0),
        }
    }
}

impl From<S2vReport> for SaveReport {
    fn from(r: S2vReport) -> SaveReport {
        SaveReport {
            method: WriteMethod::Copy,
            job_name: r.job_name,
            rows_loaded: r.rows_loaded,
            rows_rejected: r.rows_rejected,
            committer_task: Some(r.committer_task),
            rejected_samples: r.rejected_samples,
            engine_job_id: r.engine_job_id,
            phase_us: r.phase_us,
            part_files: 0,
            staged_bytes: 0,
            batches: 0,
            trace: r.trace,
        }
    }
}

/// The connector's `DataSourceProvider`: one instance per database
/// cluster it connects to.
pub struct DefaultSource {
    cluster: Arc<Cluster>,
    dfs: Option<Arc<DfsClusterSim>>,
}

impl DefaultSource {
    pub fn new(cluster: Arc<Cluster>) -> Arc<DefaultSource> {
        Arc::new(DefaultSource { cluster, dfs: None })
    }

    /// A source that can also run `method=dfs` two-stage saves.
    pub fn with_dfs(cluster: Arc<Cluster>, dfs: Arc<DfsClusterSim>) -> Arc<DefaultSource> {
        Arc::new(DefaultSource {
            cluster,
            dfs: Some(dfs),
        })
    }

    /// Register the connector with an engine context under
    /// [`DEFAULT_SOURCE`].
    pub fn register(ctx: &SparkContext, cluster: Arc<Cluster>) {
        ctx.register_format(DEFAULT_SOURCE, DefaultSource::new(cluster));
    }

    /// Register with a DFS handle so `method=dfs` works through the
    /// `df.write()` surface too.
    pub fn register_with_dfs(ctx: &SparkContext, cluster: Arc<Cluster>, dfs: Arc<DfsClusterSim>) {
        ctx.register_format(DEFAULT_SOURCE, DefaultSource::with_dfs(cluster, dfs));
    }
}

impl DataSourceProvider for DefaultSource {
    fn create_relation(
        &self,
        _ctx: &SparkContext,
        options: &Options,
    ) -> sparklet::SparkResult<Arc<dyn ScanRelation>> {
        let opts = ConnectorOptions::parse(options)?;
        let relation = DbRelation::open(Arc::clone(&self.cluster), &opts)?;
        Ok(Arc::new(relation))
    }

    fn save(
        &self,
        ctx: &SparkContext,
        options: &Options,
        df: &DataFrame,
        mode: SaveMode,
    ) -> sparklet::SparkResult<()> {
        let opts = ConnectorOptions::parse(options)?;
        SaveRequest::new(ctx, &self.cluster, df, &opts)
            .with_dfs_opt(self.dfs.as_ref())
            .mode(mode)
            .submit()
            .map(|_report| ())
            .map_err(sparklet::SparkError::from)
    }
}
