//! Streaming micro-batch S2V: continuous ingest as a sequence of
//! small, exactly-once COPY jobs.
//!
//! A [`StreamWriter`] buffers rows and flushes a micro-batch whenever
//! either bound from [`IngestMode::Stream`] is hit: `batch_rows`
//! buffered rows (checked on [`append_rows`]) or a buffer older than
//! `flush_ms` (checked on [`poll`]). Every flush is a complete 5-phase
//! S2V job ([`s2v`]) — staging table, task status, committer election,
//! conditional final commit — so each micro-batch individually carries
//! the bulk path's exactly-once guarantee.
//!
//! **Exactly-once across batches** comes from deterministic job names:
//! batch `k` of a writer with base name `b` runs as job `b_mb000k`.
//! The S2V final-status table is keyed by job name and phase 5 commits
//! *conditionally* on the job not being finished, so replaying any
//! prefix of a stream — the recovery story after a crashed driver —
//! re-runs the same job names and every already-committed batch
//! resolves to "already finished": rolled back, no duplicate rows.
//! A crash *between* batches loses nothing (every prior batch fully
//! committed) and a crash *during* a batch leaves that job unfinished
//! (only staging/protocol state, target untouched) for the replay to
//! complete.
//!
//! After each committed batch the writer starts one tuple-mover pass
//! ([`Cluster::mover_pass`], unless `mover.enabled=false`) on a pooled
//! thread, draining the WOS the trickle load grows and compacting the
//! small ROS containers it creates — the difference `BENCH_stream`
//! measures. The flush returns once its batch is committed, so the
//! pass runs in the caller's time between batches, as Vertica's tuple
//! mover runs behind a load. The writer holds at most one pass and
//! joins it before its next flush, in [`finish`] and when dropped:
//! every flush, and every fault the injector draws, sees the store
//! layout and the order of passes that running the pass inline gives.
//!
//! [`append_rows`]: StreamWriter::append_rows
//! [`poll`]: StreamWriter::poll
//! [`finish`]: StreamWriter::finish
//! [`IngestMode::Stream`]: crate::options::IngestMode::Stream
//! [`s2v`]: crate::s2v

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use common::{pool, Row, Schema};
use mppdb::Cluster;
use sparklet::{DataFrame, SaveMode, SparkContext};

use crate::error::{ConnectorError, ConnectorResult};
use crate::options::{ConnectorOptions, IngestMode, WriteMethod};
use crate::{s2v, SaveReport};

/// Distinguishes concurrent anonymous stream writers; an explicit
/// `job_name` (required for crash-replay recovery) bypasses it.
static STREAM_SEQ: AtomicU64 = AtomicU64::new(1);

/// A handle for continuous ingest into one table. Create with
/// [`StreamWriter::open`], feed with [`StreamWriter::append_rows`],
/// tick with [`StreamWriter::poll`], and close with
/// [`StreamWriter::finish`] to flush the tail and get the aggregate
/// [`SaveReport`].
pub struct StreamWriter {
    ctx: SparkContext,
    cluster: Arc<Cluster>,
    schema: Schema,
    opts: ConnectorOptions,
    /// Mode for batch 0; later batches always append.
    first_mode: SaveMode,
    /// Deterministic job-name prefix: batch `k` runs as `{base}_mb{k:05}`.
    base: String,
    batch_rows: usize,
    flush_age: Duration,
    buf: Vec<Row>,
    /// When the oldest buffered row arrived, on the cluster's clock
    /// (drives `flush_ms`).
    buf_since: Option<Instant>,
    /// Ignore-mode short circuit: the target existed at open, so the
    /// whole stream is a no-op.
    ignored: bool,
    // ----- aggregate totals for the final report ---------------------
    batches: u64,
    rows_loaded: u64,
    rows_rejected: u64,
    rejected_samples: Vec<(u64, String)>,
    phase_us: [u64; 5],
    committer_task: Option<u64>,
    engine_job_id: u64,
    trace: obs::TraceId,
    /// The mover pass the last flush started, until it is joined.
    pass: Option<pool::Handle>,
}

impl StreamWriter {
    /// Open a stream into `opts.table`, whose rows must match `schema`.
    ///
    /// `opts.ingest` must be [`IngestMode::Stream`] (use
    /// `builder.stream(..)` or the `stream.*` string keys) and
    /// `opts.method` must be the COPY path. `mode` applies to the first
    /// micro-batch exactly as it would to a bulk save: `ErrorIfExists`
    /// fails here if the target exists, `Ignore` turns the whole stream
    /// into a no-op, `Overwrite` truncates once; every later batch
    /// appends.
    pub fn open(
        ctx: &SparkContext,
        cluster: &Arc<Cluster>,
        schema: Schema,
        opts: &ConnectorOptions,
        mode: SaveMode,
    ) -> ConnectorResult<StreamWriter> {
        let IngestMode::Stream {
            batch_rows,
            flush_ms,
        } = opts.ingest
        else {
            return Err(ConnectorError::Usage(
                "StreamWriter::open needs stream ingest mode: set \
                 stream.batch_rows / stream.flush_ms (or builder.stream(..))"
                    .into(),
            ));
        };
        if opts.method == WriteMethod::Dfs {
            return Err(ConnectorError::Usage(
                "streaming ingest requires method=copy: each micro-batch is an \
                 exactly-once COPY job, which the two-stage DFS path cannot provide"
                    .into(),
            ));
        }
        let exists = cluster.has_table(&opts.table);
        let mut ignored = false;
        match mode {
            SaveMode::ErrorIfExists if exists => {
                return Err(ConnectorError::Usage(format!(
                    "table {} already exists (mode=ErrorIfExists)",
                    opts.table
                )))
            }
            SaveMode::Ignore if exists => ignored = true,
            _ => {}
        }
        let base = opts.job_name.clone().unwrap_or_else(|| {
            format!(
                "stream_{}_{}",
                opts.table,
                STREAM_SEQ.fetch_add(1, Ordering::AcqRel)
            )
        });
        Ok(StreamWriter {
            ctx: ctx.clone(),
            cluster: Arc::clone(cluster),
            schema,
            opts: opts.clone(),
            first_mode: mode,
            base,
            batch_rows,
            flush_age: Duration::from_millis(flush_ms),
            buf: Vec::new(),
            buf_since: None,
            ignored,
            batches: 0,
            rows_loaded: 0,
            rows_rejected: 0,
            rejected_samples: Vec::new(),
            phase_us: [0; 5],
            committer_task: None,
            engine_job_id: 0,
            trace: obs::TraceId(0),
            pass: None,
        })
    }

    /// The job-name prefix micro-batches run under. Reopening a writer
    /// with the same explicit `job_name` after a crash replays the same
    /// job names, which is what makes recovery exactly-once.
    pub fn job_base(&self) -> &str {
        &self.base
    }

    /// Micro-batches committed so far.
    pub fn batches(&self) -> u64 {
        self.batches
    }

    /// Rows currently buffered (not yet flushed).
    pub fn buffered(&self) -> usize {
        self.buf.len()
    }

    /// Buffer rows, flushing a micro-batch for every `batch_rows` rows
    /// now available. Returns the number of batches flushed.
    pub fn append_rows(&mut self, rows: Vec<Row>) -> ConnectorResult<u64> {
        if self.ignored {
            return Ok(0);
        }
        let arrived = self.cluster.clock().now();
        self.buf.extend(rows);
        let mut flushed = 0;
        while self.buf.len() >= self.batch_rows {
            let batch: Vec<Row> = self.buf.drain(..self.batch_rows).collect();
            self.flush_batch(batch)?;
            flushed += 1;
        }
        // Rows left by a flush are this call's newest: they age from
        // their arrival. Without a flush, the oldest row's stamp stands.
        if flushed > 0 || self.buf_since.is_none() {
            self.buf_since = (!self.buf.is_empty()).then_some(arrived);
        }
        Ok(flushed)
    }

    /// Flush the buffer if it has rows older than `flush_ms` — the
    /// age-based bound that keeps a slow trickle from sitting invisible
    /// in the writer forever. Call this from the ingest loop's timer.
    /// Returns true when a batch was flushed.
    pub fn poll(&mut self) -> ConnectorResult<bool> {
        if self.ignored || self.buf.is_empty() {
            return Ok(false);
        }
        let old_enough = self
            .buf_since
            .is_some_and(|since| self.cluster.clock().since(since) >= self.flush_age);
        if !old_enough {
            return Ok(false);
        }
        let batch = std::mem::take(&mut self.buf);
        self.buf_since = None;
        self.flush_batch(batch)?;
        Ok(true)
    }

    /// Flush whatever is buffered, wait for the last mover pass, and
    /// return the aggregate report for the whole stream: summed
    /// rows/phases, `batches` flushed, the base job name.
    pub fn finish(mut self) -> ConnectorResult<SaveReport> {
        if !self.ignored && !self.buf.is_empty() {
            let batch = std::mem::take(&mut self.buf);
            self.flush_batch(batch)?;
        }
        self.join_pass();
        Ok(SaveReport {
            method: WriteMethod::Copy,
            job_name: std::mem::take(&mut self.base),
            rows_loaded: self.rows_loaded,
            rows_rejected: self.rows_rejected,
            committer_task: self.committer_task,
            rejected_samples: std::mem::take(&mut self.rejected_samples),
            engine_job_id: self.engine_job_id,
            phase_us: self.phase_us,
            part_files: 0,
            staged_bytes: 0,
            batches: self.batches,
            trace: self.trace,
        })
    }

    /// Wait for the mover pass the last flush started, if it is still
    /// pending, re-raising its panic.
    fn join_pass(&mut self) {
        if let Some(pass) = self.pass.take() {
            pass.join();
        }
    }

    /// Run one micro-batch as a full exactly-once S2V job, once the
    /// previous batch's mover pass has returned.
    fn flush_batch(&mut self, rows: Vec<Row>) -> ConnectorResult<()> {
        self.join_pass();
        let parts = self
            .opts
            .num_partitions
            .unwrap_or(4)
            .clamp(1, rows.len().max(1));
        let df = self
            .ctx
            .create_dataframe(rows, self.schema.clone(), parts)?;
        let mut bopts = self.opts.clone();
        bopts.ingest = IngestMode::Bulk;
        // Deterministic per-batch job name: the replay key.
        bopts.job_name = Some(format!("{}_mb{:05}", self.base, self.batches));
        let mode = if self.batches == 0 {
            self.first_mode
        } else {
            SaveMode::Append
        };
        let report = s2v::run(&self.ctx, &self.cluster, &df, &bopts, mode)?;
        obs::global().incr(obs::names::STREAM_BATCHES);
        obs::global().add(obs::names::STREAM_ROWS, report.rows_loaded);
        self.batches += 1;
        self.rows_loaded += report.rows_loaded;
        self.rows_rejected += report.rows_rejected;
        self.rejected_samples.extend(report.rejected_samples);
        for (total, phase) in self.phase_us.iter_mut().zip(report.phase_us) {
            *total += phase;
        }
        self.committer_task = Some(report.committer_task);
        self.engine_job_id = report.engine_job_id;
        self.trace = report.trace;
        // Background maintenance rides the ingest cadence: drain the
        // WOS this batch grew and compact the small container it left,
        // while the caller prepares the next batch.
        if self.opts.mover_enabled {
            let cluster = Arc::clone(&self.cluster);
            self.pass = Some(pool::spawn(move || {
                cluster.mover_pass();
            }));
        }
        Ok(())
    }
}

impl Drop for StreamWriter {
    /// A dropped writer leaves no pass running behind it. While the
    /// thread is already panicking, the pass's own panic is not raised
    /// over it.
    fn drop(&mut self) {
        if let Some(pass) = self.pass.take() {
            if std::thread::panicking() {
                let _ = pass.wait();
            } else {
                pass.join();
            }
        }
    }
}

/// Save a whole DataFrame through the streaming path: chop it into
/// `batch_rows` micro-batches and run each as an exactly-once COPY job.
/// What `SaveRequest::submit` dispatches to for stream-mode options —
/// the batch-at-rest counterpart of driving a [`StreamWriter`] by hand.
pub(crate) fn save_stream(
    ctx: &SparkContext,
    cluster: &Arc<Cluster>,
    df: &DataFrame,
    opts: &ConnectorOptions,
    mode: SaveMode,
    batch_rows: usize,
) -> ConnectorResult<SaveReport> {
    let mut writer = StreamWriter::open(ctx, cluster, df.schema().clone(), opts, mode)?;
    let mut rows = df.collect()?.into_iter();
    loop {
        let chunk: Vec<Row> = rows.by_ref().take(batch_rows.max(1)).collect();
        if chunk.is_empty() {
            break;
        }
        writer.append_rows(chunk)?;
    }
    writer.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use common::clock::Clock;
    use common::{row, DataType};
    use mppdb::ClusterConfig;
    use sparklet::SparkConf;

    const FLUSH_AGE: Duration = Duration::from_millis(50);
    const US: Duration = Duration::from_micros(1);

    /// A writer of 10-row batches that flushes rows 50ms old, on
    /// `clock`, with its cluster; `copy_direct(false)` lands every batch
    /// in the WOS for the mover to drain.
    fn open(clock: Clock, copy_direct: bool) -> (Arc<Cluster>, StreamWriter) {
        let cluster = Cluster::new(ClusterConfig {
            clock,
            ..ClusterConfig::default()
        });
        let ctx = SparkContext::new(SparkConf {
            clock,
            ..SparkConf::default()
        });
        let opts = ConnectorOptions::builder("ticks")
            .num_partitions(2)
            .stream(10, FLUSH_AGE.as_millis() as u64)
            .copy_direct(copy_direct)
            .mover_enabled(true)
            .build()
            .unwrap();
        let schema = Schema::from_pairs(&[("id", DataType::Int64)]);
        let writer =
            StreamWriter::open(&ctx, &cluster, schema, &opts, SaveMode::Overwrite).unwrap();
        (cluster, writer)
    }

    /// A writer of 10-row batches that flushes rows 50ms old, on a
    /// clock only the test moves.
    fn writer(clock: Clock) -> StreamWriter {
        open(clock, true).1
    }

    fn wos_rows(cluster: &Cluster) -> usize {
        let stats = cluster.table_stats("ticks").unwrap();
        stats.iter().map(|s| s.wos_rows).sum()
    }

    fn rows(ids: std::ops::Range<i64>) -> Vec<Row> {
        ids.map(|i| row![i]).collect()
    }

    #[test]
    fn poll_flushes_exactly_at_the_flush_age() {
        let clock = Clock::manual();
        let mut w = writer(clock);
        assert_eq!(w.append_rows(rows(0..3)).unwrap(), 0);
        clock.advance(FLUSH_AGE - US);
        assert!(!w.poll().unwrap(), "a microsecond short of the age");
        assert_eq!(w.buffered(), 3);
        clock.advance(US);
        assert!(w.poll().unwrap(), "flushed at the age");
        assert_eq!((w.batches(), w.buffered()), (1, 0));
        assert!(!w.poll().unwrap(), "nothing left to flush");
    }

    #[test]
    fn a_size_flush_remainder_ages_from_its_own_arrival() {
        let clock = Clock::manual();
        let mut w = writer(clock);
        assert_eq!(w.append_rows(rows(0..4)).unwrap(), 0);
        clock.advance(Duration::from_millis(30));
        // 4 + 13 rows: one size flush, and 7 rows that arrived just now.
        assert_eq!(w.append_rows(rows(4..17)).unwrap(), 1);
        assert_eq!(w.buffered(), 7);
        clock.advance(FLUSH_AGE - US);
        assert!(
            !w.poll().unwrap(),
            "the first rows' age is not the remainder's"
        );
        clock.advance(US);
        assert!(w.poll().unwrap());
        assert_eq!((w.batches(), w.buffered()), (2, 0));
        assert_eq!(w.finish().unwrap().rows_loaded, 17);
    }

    #[test]
    fn a_flush_returns_while_its_mover_pass_waits_for_a_lock() {
        let clock = Clock::manual();
        let (cluster, mut w) = open(clock, false);
        // An open transaction holds a table that sorts before the
        // target exclusively, so the pass waits at that table's lock;
        // a manual clock never times the wait out.
        let mut holder = cluster.connect(0).unwrap();
        holder
            .execute("CREATE TABLE held (id INT) SEGMENTED BY HASH(id) ALL NODES")
            .unwrap();
        holder.insert("held", rows(0..4)).unwrap();
        holder.begin().unwrap();
        holder.execute("DELETE FROM held WHERE id < 0").unwrap();

        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            let flushed = w.append_rows(rows(0..10)).unwrap();
            let _ = tx.send((flushed, w));
        });
        // The wait only runs out when the flush waits for its pass.
        let (flushed, w) = rx
            .recv_timeout(Duration::from_secs(60))
            .expect("append_rows returns while its pass waits for a lock");
        assert_eq!(flushed, 1);
        assert_eq!(wos_rows(&cluster), 10, "committed, not yet moved");
        let deadline = std::time::Instant::now() + Duration::from_secs(60);
        while clock.waiters() == 0 {
            assert!(
                std::time::Instant::now() < deadline,
                "the pass never waited"
            );
            std::thread::sleep(Duration::from_millis(1));
        }

        holder.rollback().unwrap();
        assert_eq!(w.finish().unwrap().rows_loaded, 10);
        let stats = cluster.table_stats("ticks").unwrap();
        assert!(stats.iter().all(|s| s.wos_rows == 0), "{stats:?}");
    }

    #[test]
    fn dropping_a_writer_joins_its_mover_pass() {
        let (cluster, mut w) = open(Clock::real(), false);
        assert_eq!(w.append_rows(rows(0..10)).unwrap(), 1);
        drop(w);
        assert_eq!(
            wos_rows(&cluster),
            0,
            "the pass ran before the drop returned"
        );
        let ops = cluster.mover_ops().len();
        assert!(ops > 0);
        // Armed after the drop, moveout crashes find no pass to kill.
        cluster.faults().arm(
            mppdb::FaultPlan::seeded(7)
                .with_moveout_crash(1.0)
                .with_budget(3),
        );
        std::thread::sleep(Duration::from_millis(50));
        assert_eq!(cluster.mover_ops().len(), ops);
        assert_eq!(cluster.faults().disarm(), 0, "the plan keeps its budget");
    }
}
