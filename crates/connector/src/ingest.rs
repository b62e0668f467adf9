//! The unified ingest surface: one [`SaveRequest`] for every way rows
//! reach the database.
//!
//! Direct COPY, the DFS landing zone, streaming micro-batches and the
//! stringly dispatch behind `df.write()` all enter here:
//!
//! ```ignore
//! let report = SaveRequest::new(&ctx, &cluster, &df, &opts)
//!     .mode(SaveMode::Append)
//!     .submit()?;
//! ```
//!
//! Dispatch is typed, not stringly: [`ConnectorOptions::ingest`] picks
//! bulk vs. streaming micro-batches ([`IngestMode`]), and
//! [`ConnectorOptions::method`] picks the physical bulk path (direct
//! COPY vs. two-stage DFS). Every combination returns the same
//! [`SaveReport`].

use std::sync::Arc;

use dfslite::DfsClusterSim;
use mppdb::Cluster;
use sparklet::{DataFrame, SaveMode, SparkContext};

use crate::error::{ConnectorError, ConnectorResult};
use crate::options::{ConnectorOptions, IngestMode, WriteMethod};
use crate::retry::{CallPolicy, RetryConn};
use crate::two_stage::TwoStageConfig;
use crate::{s2v, stream, two_stage, SaveReport};

/// One save, fully described: the engine context, the target cluster,
/// the rows, the parsed options, and the save mode. Built with
/// [`SaveRequest::new`], submitted with [`SaveRequest::submit`].
#[must_use = "a SaveRequest does nothing until submit() is called"]
pub struct SaveRequest<'a> {
    ctx: &'a SparkContext,
    cluster: &'a Arc<Cluster>,
    dfs: Option<&'a Arc<DfsClusterSim>>,
    df: &'a DataFrame,
    opts: &'a ConnectorOptions,
    mode: SaveMode,
}

impl<'a> SaveRequest<'a> {
    /// A save request with the default [`SaveMode::ErrorIfExists`] and
    /// no DFS handle (sufficient for `method=copy`).
    pub fn new(
        ctx: &'a SparkContext,
        cluster: &'a Arc<Cluster>,
        df: &'a DataFrame,
        opts: &'a ConnectorOptions,
    ) -> SaveRequest<'a> {
        SaveRequest {
            ctx,
            cluster,
            dfs: None,
            df,
            opts,
            mode: SaveMode::default(),
        }
    }

    /// Attach the DFS handle `method=dfs` stages through.
    pub fn with_dfs(mut self, dfs: &'a Arc<DfsClusterSim>) -> SaveRequest<'a> {
        self.dfs = Some(dfs);
        self
    }

    /// Attach an optional DFS handle (what `DefaultSource` carries).
    pub fn with_dfs_opt(mut self, dfs: Option<&'a Arc<DfsClusterSim>>) -> SaveRequest<'a> {
        self.dfs = dfs;
        self
    }

    /// Set the save mode (default: [`SaveMode::ErrorIfExists`]).
    pub fn mode(mut self, mode: SaveMode) -> SaveRequest<'a> {
        self.mode = mode;
        self
    }

    /// Run the save, dispatching on [`ConnectorOptions::ingest`] and
    /// [`ConnectorOptions::method`].
    pub fn submit(self) -> ConnectorResult<SaveReport> {
        match self.opts.ingest {
            IngestMode::Bulk => bulk(
                self.ctx,
                self.cluster,
                self.dfs,
                self.df,
                self.opts,
                self.mode,
            ),
            IngestMode::Stream { batch_rows, .. } => {
                if self.opts.method == WriteMethod::Dfs {
                    return Err(ConnectorError::Usage(
                        "streaming ingest requires method=copy: each micro-batch \
                         is an exactly-once COPY job, which the two-stage DFS \
                         path cannot provide"
                            .into(),
                    ));
                }
                stream::save_stream(
                    self.ctx,
                    self.cluster,
                    self.df,
                    self.opts,
                    self.mode,
                    batch_rows,
                )
            }
        }
    }
}

/// The bulk path: one shot through the physical method `opts.method`
/// selects — the direct S2V exactly-once protocol (`method=copy`) or
/// the two-stage DFS landing zone (`method=dfs`).
pub(crate) fn bulk(
    ctx: &SparkContext,
    cluster: &Arc<Cluster>,
    dfs: Option<&Arc<DfsClusterSim>>,
    df: &DataFrame,
    opts: &ConnectorOptions,
    mode: SaveMode,
) -> ConnectorResult<SaveReport> {
    match opts.method {
        WriteMethod::Copy => Ok(s2v::run(ctx, cluster, df, opts, mode)?.into()),
        WriteMethod::Dfs => {
            let dfs = dfs.ok_or_else(|| {
                ConnectorError::Usage(
                    "method=dfs needs a DFS: register the source with \
                     DefaultSource::register_with_dfs (or pass a DFS handle \
                     via SaveRequest::with_dfs)"
                        .into(),
                )
            })?;
            let exists = cluster.has_table(&opts.table);
            let policy = CallPolicy::for_job(cluster, opts);
            match mode {
                SaveMode::ErrorIfExists if exists => {
                    return Err(ConnectorError::Usage(format!(
                        "table {} already exists (mode=ErrorIfExists)",
                        opts.table
                    )))
                }
                SaveMode::Ignore if exists => {
                    return Ok(SaveReport::empty(WriteMethod::Dfs));
                }
                SaveMode::Overwrite if exists => {
                    // The DFS stage-2 COPY appends; overwrite = clear first.
                    let host = opts.host_on(cluster)?;
                    RetryConn::new(Arc::clone(cluster), host, policy.clone()).run(
                        "dfs.truncate",
                        |session| {
                            session
                                .execute(&format!("DELETE FROM {}", opts.table))
                                .map(|_| ())
                                .map_err(|e| ConnectorError::db("dfs.truncate", e))
                        },
                    )?;
                }
                _ => {}
            }
            let staging = opts
                .staging_path
                .clone()
                .unwrap_or_else(|| format!("/staging/{}", opts.table));
            let mut config = TwoStageConfig::new(staging);
            config.partitions = opts.num_partitions;
            config.host = opts.host_on(cluster)?;
            let report =
                two_stage::run_via_dfs(ctx, cluster, dfs, df, &opts.table, &config, &policy)?;
            Ok(SaveReport {
                method: WriteMethod::Dfs,
                rows_loaded: report.rows,
                part_files: report.part_files,
                staged_bytes: report.staged_bytes,
                ..SaveReport::empty(WriteMethod::Dfs)
            })
        }
    }
}
