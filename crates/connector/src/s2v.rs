//! S2V: saving DataFrames into the database with exactly-once semantics
//! (paper Sec. 3.2).
//!
//! The engine's tasks are stateless and cannot talk to each other, so
//! the protocol uses tables *in the database* as a durable log:
//!
//! * a **staging table** with the target's schema,
//! * a **task status table** (one pre-created row per task: id, rows
//!   loaded/rejected, done flag),
//! * a **last committer table** (the leader-election slot),
//! * a permanent **final status table** recording every job's outcome —
//!   consultable even after a total engine failure.
//!
//! Each task walks the five phases of the paper's Fig. 5:
//!
//! 1. bulk-load its partition into the staging table and set its
//!    status-row `done` flag, *in one transaction*, aborting if the
//!    flag is already set (a duplicate attempt saved it first);
//! 2. read the status table; if any task is not done, terminate;
//! 3. race to write its id into the empty last-committer table;
//! 4. read it back; losers terminate;
//! 5. the single winner verifies the rejected-row tolerance and commits
//!    the staging table into the target, flipping the final status to
//!    finished — again conditionally, so a speculative duplicate of the
//!    committer cannot commit twice.
//!
//! In both modes the final commit hands the staged containers over to
//! the target: no row is read or copied. Overwrite is the atomic swap
//! of staging into target, charged to the cost model as a constant-time
//! rename; append is charged as the copy of the staging rows it stands
//! for (the slower path the paper's Sec. 5 discusses).
//!
//! Every database touchpoint — the driver's setup/wrap-up and each
//! phase — runs on a retrying, failing-over connection
//! ([`crate::retry::RetryConn`]). The phases were already idempotent
//! against *task* restarts (each re-checks durable state); the same
//! property makes them safe to retry against *connection* failures,
//! including the Sec. 2.2.2 hazard of a commit whose acknowledgement
//! is lost: the retry re-reads the done flag / committer slot / final
//! status and discovers the commit landed.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use avrolite::{AvroSchema, Codec, Writer};
use common::{hash, Value};
use mppdb::catalog::{Segmentation, TableDef};
use mppdb::{Cluster, CopyOptions, CopySource, DbError, DbResult, Session};
use netsim::record::{NetClass, NodeRef};
use sparklet::{DataFrame, SaveMode, SparkContext, SparkError};

use obs::names;

use crate::error::{ConnectorError, ConnectorResult};
use crate::options::ConnectorOptions;
use crate::retry::{CallPolicy, RetryConn};

/// Outcome of a successful save.
#[derive(Debug, Clone, PartialEq)]
pub struct S2vReport {
    pub job_name: String,
    pub rows_loaded: u64,
    pub rows_rejected: u64,
    /// Task id that won the final-commit race.
    pub committer_task: u64,
    /// Per-task samples of rejected rows — "a sample of the rejected
    /// rows is provided" (Sec. 3.2): `(task, first rejection reason)`.
    pub rejected_samples: Vec<(u64, String)>,
    /// Scheduler job id this save ran as (0 if no tasks ran); keys into
    /// [`sparklet::SparkContext::job_stats`] and the data collector's
    /// `job` event column via [`sparklet::job_label`].
    pub engine_job_id: u64,
    /// Cumulative microseconds spent in each of the five Fig. 5 phases,
    /// summed across every task attempt of this job.
    pub phase_us: [u64; 5],
    /// The save's `s2v.job` span tree in the global collector
    /// ([`obs::TraceId`] 0 when tracing was disabled).
    pub trace: obs::TraceId,
}

impl S2vReport {
    /// Render the save's span tree and critical path from the global
    /// collector (empty when tracing was disabled or the trace was
    /// evicted).
    pub fn profile(&self) -> String {
        obs::trace::render(&obs::global().trace_spans(self.trace))
    }
}

/// Lock-free accumulator the task closures write their phase timings
/// into; the driver folds it into the [`S2vReport`].
#[derive(Default)]
struct PhaseAcc {
    engine_job_id: AtomicU64,
    phase_us: [AtomicU64; 5],
}

impl PhaseAcc {
    fn record(&self, phase: usize, dur: std::time::Duration) {
        self.phase_us[phase - 1].fetch_add(dur.as_micros() as u64, Ordering::Relaxed);
    }

    fn snapshot_us(&self) -> [u64; 5] {
        [0, 1, 2, 3, 4].map(|i| self.phase_us[i].load(Ordering::Relaxed))
    }
}

/// Job-name uniquifier for auto-derived names.
static JOB_SEQ: AtomicU64 = AtomicU64::new(1);

/// Per-task terminal outcome (driver-side bookkeeping only; the durable
/// record is in the database tables).
#[derive(Debug, Clone, PartialEq)]
enum TaskEnd {
    /// Finished its phases without being the committer.
    Done,
    /// Won the race and committed.
    Committed { loaded: u64, rejected: u64 },
    /// Won the race but the tolerance check failed; the job fails.
    ToleranceExceeded { loaded: u64, rejected: u64 },
}

fn sanitize(name: &str) -> String {
    name.chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() {
                c.to_ascii_lowercase()
            } else {
                '_'
            }
        })
        .collect()
}

struct JobTables {
    staging: String,
    status: String,
    committer: String,
}

/// The permanent record of all S2V jobs (paper: "this table is always
/// available; users can consult this table any time").
pub const FINAL_STATUS_TABLE: &str = "s2v_job_final_status";

/// Save `df` into `opts.table` with exactly-once semantics.
///
/// The whole save runs as one `s2v.job` trace: the driver's setup,
/// finalize, and teardown steps, every task attempt (`sched.task`),
/// every Fig. 5 phase attempt, and every connection retry get spans,
/// and [`S2vReport::profile`] renders the assembled tree.
pub(crate) fn run(
    ctx: &SparkContext,
    cluster: &Arc<Cluster>,
    df: &DataFrame,
    opts: &ConnectorOptions,
    mode: SaveMode,
) -> ConnectorResult<S2vReport> {
    let trace = obs::global().trace_start("s2v.job");
    let result = run_traced(ctx, cluster, df, opts, mode, trace);
    obs::global().span_finish(trace, |s| match &result {
        Ok(r) => {
            s.rows = r.rows_loaded;
            s.detail = r.job_name.clone();
        }
        Err(e) => {
            s.failed = true;
            s.detail = e.to_string();
        }
    });
    result
}

fn run_traced(
    ctx: &SparkContext,
    cluster: &Arc<Cluster>,
    df: &DataFrame,
    opts: &ConnectorOptions,
    mode: SaveMode,
    trace: obs::TraceCtx,
) -> ConnectorResult<S2vReport> {
    let target = sanitize(&opts.table);
    let job_name = opts
        .job_name
        .clone()
        .map(|j| sanitize(&j))
        .unwrap_or_else(|| format!("s2v_{}_{}", target, JOB_SEQ.fetch_add(1, Ordering::AcqRel)));

    // ----- setup phase (driver) --------------------------------------
    // The overall wall-clock budget starts here and flows through every
    // driver and task phase. Writes are never hedged — only steered and
    // retried — so exactly-once never depends on the committer race.
    let policy = CallPolicy::for_job(cluster, opts);
    let host = opts.host_on(cluster)?;
    let mut driver = RetryConn::new(Arc::clone(cluster), host, policy.clone());
    let exists = cluster.has_table(&target);
    match mode {
        SaveMode::ErrorIfExists if exists => {
            return Err(ConnectorError::Usage(format!(
                "table {target} already exists (mode=ErrorIfExists)"
            )))
        }
        SaveMode::Ignore if exists => {
            return Ok(S2vReport {
                job_name,
                rows_loaded: 0,
                rows_rejected: 0,
                committer_task: 0,
                rejected_samples: Vec::new(),
                engine_job_id: 0,
                phase_us: [0; 5],
                trace: trace.trace,
            })
        }
        _ => {}
    }
    if exists {
        let def = cluster
            .table_def(&target)
            .map_err(|e| ConnectorError::db(names::S2V_SETUP, e))?;
        if !def.schema.compatible_with(df.schema()) {
            return Err(ConnectorError::Usage(format!(
                "DataFrame schema {} incompatible with target table {}",
                df.schema(),
                def.schema
            )));
        }
    } else {
        cluster
            .create_table(
                TableDef::new(&target, df.schema().clone(), Segmentation::ByHash(vec![]))
                    .map_err(|e| ConnectorError::db(names::S2V_SETUP, e))?,
            )
            .map_err(|e| ConnectorError::db(names::S2V_SETUP, e))?;
    }

    // Decide the parallelism (a coalesce when reducing, per Sec. 3.2).
    let current_parts = df.num_partitions()?;
    let df = match opts.num_partitions {
        Some(n) if n < current_parts => df.coalesce(n)?,
        Some(n) if n > current_parts => df.repartition(n)?,
        _ => df.clone(),
    };
    let partitions = df.num_partitions()?;

    // Create the protocol tables.
    let tables = JobTables {
        staging: format!("{job_name}_staging"),
        status: format!("{job_name}_status"),
        committer: format!("{job_name}_committer"),
    };
    let target_def = cluster
        .table_def(&target)
        .map_err(|e| ConnectorError::db(names::S2V_SETUP, e))?;

    // Sec. 5 future-work optimization: pre-hash the DataFrame to the
    // target's segmentation so partition `p` holds exactly the rows
    // node `p % N` owns — its task then connects there and the bulk
    // load induces zero database-internal shuffle.
    let df = if opts.prehash && target_def.is_segmented() {
        prehash_dataframe(ctx, cluster, &df, &target_def, partitions)?
    } else {
        df
    };
    if !cluster.has_table(&tables.staging) {
        cluster
            .create_table(
                TableDef::new(
                    &tables.staging,
                    target_def.schema.clone(),
                    target_def.segmentation.clone(),
                )
                .map_err(|e| ConnectorError::db(names::S2V_SETUP, e))?
                .temp(),
            )
            .map_err(|e| ConnectorError::db(names::S2V_SETUP, e))?;
    }
    // The setup DDL/DML is guarded by existence checks, so a retry after
    // a commit-then-lost-ack replays as a no-op instead of "table
    // exists" / duplicate status rows.
    let setup_span = obs::global().span_start(names::S2V_SETUP, trace);
    driver.set_trace(setup_span);
    driver.run(names::S2V_SETUP, |session| {
        let db = |e: DbError| ConnectorError::db(names::S2V_SETUP, e);
        if !session.cluster().has_table(&tables.status) {
            session
                .execute(&format!(
                    "CREATE TEMP TABLE {} (task_id INT NOT NULL, rows_loaded INT, \
                     rows_rejected INT, done BOOLEAN, reject_sample VARCHAR) \
                     UNSEGMENTED ALL NODES",
                    tables.status
                ))
                .map_err(db)?;
        }
        if !session.cluster().has_table(&tables.committer) {
            session
                .execute(&format!(
                    "CREATE TEMP TABLE {} (task_id INT) UNSEGMENTED ALL NODES",
                    tables.committer
                ))
                .map_err(db)?;
        }
        session
            .execute(&format!(
                "CREATE TABLE IF NOT EXISTS {FINAL_STATUS_TABLE} \
                 (job_name VARCHAR NOT NULL, failed_pct FLOAT, status VARCHAR) \
                 UNSEGMENTED ALL NODES"
            ))
            .map_err(db)?;
        // One status row per task (done=false) and one in-progress final
        // status row, in one transaction, only if a previous attempt
        // didn't already write them.
        session.begin().map_err(db)?;
        let seeded = session
            .execute(&format!("SELECT COUNT(*) FROM {}", tables.status))
            .map_err(db)?
            .rows()
            .map_err(db)?
            .rows[0]
            .get(0)
            .as_i64()?;
        if seeded == 0 && partitions > 0 {
            let values: Vec<String> = (0..partitions)
                .map(|p| format!("({p}, 0, 0, FALSE, '')"))
                .collect();
            session
                .execute(&format!(
                    "INSERT INTO {} VALUES {}",
                    tables.status,
                    values.join(", ")
                ))
                .map_err(db)?;
        }
        let registered = session
            .execute(&format!(
                "SELECT COUNT(*) FROM {FINAL_STATUS_TABLE} WHERE job_name = '{job_name}'"
            ))
            .map_err(db)?
            .rows()
            .map_err(db)?
            .rows[0]
            .get(0)
            .as_i64()?;
        if registered == 0 {
            session
                .execute(&format!(
                    "INSERT INTO {FINAL_STATUS_TABLE} VALUES ('{job_name}', 0.0, 'in_progress')"
                ))
                .map_err(db)?;
        }
        session.commit().map_err(db)?;
        Ok(())
    })?;
    obs::global().span_finish(setup_span, |s| {
        s.node = Some(host as u64);
        s.detail = format!("protocol tables for {job_name}");
    });
    cluster
        .recorder()
        .setup(None, NodeRef::Db(host), "s2v_setup_tables");

    // Node addresses are looked up once so tasks spread connections.
    let up_nodes = cluster.up_nodes();
    if up_nodes.is_empty() {
        return Err(ConnectorError::NoLiveNodes);
    }

    // ----- the job ----------------------------------------------------
    let rdd = df.rdd()?;
    let schema = df.schema().clone();
    let avro_schema = AvroSchema::from_schema(&target, &schema);
    let tolerance = opts.failed_rows_percent_tolerance;
    let copy_direct = opts.copy_direct;
    let cluster_for_tasks = Arc::clone(cluster);
    let tables_ref = &tables;
    let job_ref = job_name.as_str();
    let target_ref = target.as_str();
    let up_nodes_ref = &up_nodes;
    let avro_ref = &avro_schema;

    let pool_ref = opts.resource_pool.as_deref();
    let acc = PhaseAcc::default();
    let acc_ref = &acc;
    let outcomes = ctx.run_job_traced(&rdd, trace, move |tc, rows| {
        acc_ref.engine_job_id.store(tc.job_id, Ordering::Release);
        run_task_phases(
            &cluster_for_tasks,
            tc,
            &rows,
            avro_ref,
            tables_ref,
            job_ref,
            target_ref,
            up_nodes_ref,
            tolerance,
            copy_direct,
            mode,
            partitions,
            pool_ref,
            &policy,
            acc_ref,
        )
        .map_err(SparkError::from)
    })?;

    // ----- driver wrap-up ---------------------------------------------
    let mut committed: Option<(u64, u64, u64)> = None;
    for (task, outcome) in outcomes.iter().enumerate() {
        match outcome {
            TaskEnd::Committed { loaded, rejected } => {
                committed = Some((task as u64, *loaded, *rejected));
            }
            TaskEnd::ToleranceExceeded { loaded, rejected } => {
                return Err(ConnectorError::Tolerance {
                    job: job_name.clone(),
                    loaded: *loaded,
                    rejected: *rejected,
                    tolerance,
                });
            }
            TaskEnd::Done => {}
        }
    }
    // When the committer's attempt was killed *after* phase 5 committed
    // (the post-commit failure of Sec. 2.2.2), its retry sees "finished"
    // and reports Done — recover the outcome from the durable final
    // status table, which is the ground truth.
    let finalize_span = obs::global().span_start(names::S2V_FINALIZE, trace);
    driver.set_trace(finalize_span);
    let (committer_task, rows_loaded, rows_rejected) = match committed {
        Some(c) => c,
        None => driver.run(names::S2V_FINALIZE, |session| {
            let db = |e: DbError| ConnectorError::db(names::S2V_FINALIZE, e);
            let status = session
                .execute(&format!(
                    "SELECT status FROM {FINAL_STATUS_TABLE} WHERE job_name = '{job_name}'"
                ))
                .map_err(db)?
                .rows()
                .map_err(db)?;
            let finished = status
                .rows
                .first()
                .map(|r| r.get(0) == &Value::Varchar("finished".into()))
                .unwrap_or(false);
            if !finished {
                return Err(ConnectorError::Protocol(format!(
                    "S2V job {job_name}: no task committed (job incomplete)"
                )));
            }
            let totals = session
                .execute(&format!(
                    "SELECT SUM(rows_loaded), SUM(rows_rejected) FROM {}",
                    tables.status
                ))
                .map_err(db)?
                .rows()
                .map_err(db)?;
            let winner = session
                .execute(&format!("SELECT task_id FROM {} LIMIT 1", tables.committer))
                .map_err(db)?
                .rows()
                .map_err(db)?;
            Ok((
                winner.rows[0].get(0).as_i64()? as u64,
                totals.rows[0].get(0).as_i64()? as u64,
                totals.rows[0].get(1).as_i64()? as u64,
            ))
        })?,
    };

    // Harvest the rejected-row samples before the temp tables go away.
    let rejected_samples = driver.run(names::S2V_FINALIZE, |session| {
        let sample_rows = session
            .execute(&format!(
                "SELECT task_id, reject_sample FROM {} WHERE rows_rejected > 0 \
                 ORDER BY task_id",
                tables.status
            ))
            .map_err(|e| ConnectorError::db(names::S2V_FINALIZE, e))?
            .rows()
            .map_err(|e| ConnectorError::db(names::S2V_FINALIZE, e))?;
        Ok(sample_rows
            .rows
            .iter()
            .filter_map(|r| {
                Some((
                    r.get(0).as_i64().ok()? as u64,
                    r.get(1).as_str().ok()?.to_string(),
                ))
            })
            .collect::<Vec<(u64, String)>>())
    })?;
    obs::global().span_finish(finalize_span, |s| {
        s.node = Some(host as u64);
        s.detail = format!("committer task {committer_task}");
    });

    // Temp protocol tables are deleted on success; the final status
    // table is permanent.
    let teardown_span = obs::global().span_start("s2v.teardown", trace);
    for t in [&tables.staging, &tables.status, &tables.committer] {
        cluster
            .drop_table(t)
            .map_err(|e| ConnectorError::db("s2v.teardown", e))?;
    }
    obs::global().span_finish(teardown_span, |s| {
        s.node = Some(host as u64);
        s.detail = "dropped protocol tables".to_string();
    });
    cluster
        .recorder()
        .setup(None, NodeRef::Db(host), "s2v_teardown_tables");

    obs::global().add("s2v.jobs", 1);
    obs::global().add("s2v.rows_loaded", rows_loaded);
    obs::global().add("s2v.rows_rejected", rows_rejected);

    Ok(S2vReport {
        job_name,
        rows_loaded,
        rows_rejected,
        committer_task,
        rejected_samples,
        engine_job_id: acc.engine_job_id.load(Ordering::Acquire),
        phase_us: acc.snapshot_us(),
        trace: trace.trace,
    })
}

/// Shuffle the DataFrame so partition `p` holds exactly the rows owned
/// by database node `p % N` under the target's segmentation — the
/// paper's Sec. 5 pre-hashing. The engine-side shuffle it costs is
/// recorded (ring pattern over the compute NICs); the database-internal
/// shuffle it saves simply never happens.
fn prehash_dataframe(
    ctx: &SparkContext,
    cluster: &Arc<Cluster>,
    df: &DataFrame,
    def: &TableDef,
    partitions: usize,
) -> ConnectorResult<DataFrame> {
    let map = cluster.segment_map();
    let members = map.members();
    let n = members.len();
    if partitions < n {
        return Err(ConnectorError::Usage(format!(
            "prehash requires numPartitions >= the {n} database nodes"
        )));
    }
    // Owner-aligned connections need up_nodes == members exactly: a
    // down member breaks a bucket's home connection, and an extra live
    // non-member (a mid-rebalance staging node) shifts the
    // partition -> node mapping the tasks use.
    if cluster.up_nodes() != members {
        return Err(ConnectorError::Protocol(
            "prehash requires every member node up (owner-aligned connections)".into(),
        ));
    }
    let rows = df.collect()?;
    let shuffled_bytes: u64 = rows.iter().map(|r| r.wire_size() as u64).sum();

    let mut buckets: Vec<Vec<common::Row>> = vec![Vec::new(); partitions];
    let mut cursor = vec![0usize; n];
    for row in rows {
        // Hash exactly what the insert path will hash, the coerced row,
        // without building it: an integer in a FLOAT column hashes as
        // the float it widens to, a value the column cannot hold as the
        // NULL it would be stored as.
        let hash = def.seg_columns.iter().fold(hash::HASH_SEED, |state, &c| {
            match (row.get(c), def.schema.field(c).dtype) {
                (Value::Int64(i), common::DataType::Float64) => hash::fold_f64(state, *i as f64),
                (v, dtype) if v.fits(dtype) => hash::fold_value(state, v),
                _ => hash::fold_null(state),
            }
        });
        let owner = map.owner_of_hash(hash);
        // Node ids stay stable across membership changes, so the owner
        // id can exceed the member count; bucket math runs on the
        // owner's *member index*, which matches the round-robin
        // partition -> node assignment the tasks connect with.
        let idx = members
            .binary_search(&owner)
            // fabriclint: allow(panic-hygiene): owner_of_hash only returns segment owners, all members
            .expect("segment owner is a member");
        // Buckets for this owner are idx, idx+n, idx+2n, ...
        let per_owner = (partitions - idx).div_ceil(n);
        let bucket = idx + cursor[idx] * n;
        cursor[idx] = (cursor[idx] + 1) % per_owner;
        buckets[bucket].push(row);
    }

    // Charge the engine-side shuffle: ~(1-1/C) of the bytes cross the
    // compute cluster's links, pipelined with the rest of setup.
    let compute = ctx.conf().nodes;
    if compute > 1 {
        let per_link = shuffled_bytes * (compute as u64 - 1) / (compute as u64 * compute as u64);
        for i in 0..compute {
            cluster.recorder().transfer(
                None,
                NodeRef::Compute(i),
                NodeRef::Compute((i + 1) % compute),
                netsim::record::NetClass::DbInternal,
                per_link,
                0,
            );
        }
    }

    Ok(DataFrame::from_partitions(
        ctx.clone(),
        df.schema().clone(),
        buckets,
    )?)
}

/// The five phases of one task (Fig. 5). Runs once per attempt; every
/// phase re-checks durable state so reruns, duplicates, and
/// connection-level retries are harmless. Each phase runs on a
/// [`RetryConn`]: a transient failure drops the session (aborting the
/// phase's open transaction) and the retry reconnects, preferring the
/// task's node but failing over to its buddies.
#[allow(clippy::too_many_arguments)]
fn run_task_phases(
    cluster: &Arc<Cluster>,
    tc: &sparklet::TaskContext,
    rows: &[common::Row],
    avro_schema: &AvroSchema,
    tables: &JobTables,
    job_name: &str,
    target: &str,
    up_nodes: &[usize],
    tolerance: f64,
    copy_direct: bool,
    mode: SaveMode,
    partitions: usize,
    resource_pool: Option<&str>,
    policy: &CallPolicy,
    acc: &PhaseAcc,
) -> ConnectorResult<TaskEnd> {
    let p = tc.partition;
    let preferred = up_nodes[p % up_nodes.len()];
    // The deadline is checked before every phase attempt (inside the
    // retry loop), so an expired budget fails the next phase boundary
    // instead of grinding through the remaining protocol steps.
    let mut conn = RetryConn::new(Arc::clone(cluster), preferred, policy.under(tc.trace))
        .with_pool(resource_pool.map(str::to_string))
        .with_task_tag(Some(p as u64));
    cluster
        .recorder()
        .setup(Some(p as u64), NodeRef::Db(preferred), "s2v_connect");

    // One S2vPhase event (+ span finish + report accumulation)
    // per phase exit; `detail` says how the phase ended so the event
    // log (and span tree) reads as the Fig. 5 walk of each attempt.
    let mark = |span: obs::TraceCtx,
                phase: usize,
                node: usize,
                started: Instant,
                failed: bool,
                detail: String| {
        let dur = started.elapsed();
        obs::global().span_finish(span, |s| {
            s.task = Some(p as u64);
            s.attempt = tc.attempt;
            s.node = Some(node as u64);
            s.failed = failed;
            s.detail = detail.clone();
        });
        obs::global().emit(obs::EventKind::S2vPhase, |e| {
            e.job = Some(job_name.to_string());
            e.task = Some(p as u64);
            e.node = Some(node as u64);
            e.dur_us = dur.as_micros() as u64;
            e.detail = detail;
        });
        acc.record(phase, dur);
    };

    // ----- Phase 1: save into staging + conditional done flag --------
    // Whether an earlier run of this phase may already have saved the
    // partition: a rescheduled or speculative attempt, or (from its
    // second pass on) a connection-level retry of this one.
    let mut maybe_saved = tc.attempt > 1 || tc.speculative;
    conn.run("s2v.phase1", |session| {
        let db = |e: DbError| ConnectorError::db("s2v.phase1", e);
        let span = obs::global().span_start("s2v.phase1", tc.trace);
        session.set_trace(span);
        let started = Instant::now();
        let node = session.node();
        // A duplicate of a partition that is already saved skips the
        // encode and the COPY. This snapshot read only saves work; the
        // guard is the conditional flip inside the transaction below.
        if std::mem::replace(&mut maybe_saved, true) && task_done(session, tables, p).map_err(db)? {
            mark(
                span,
                1,
                node,
                started,
                false,
                format!("phase 1 duplicate of {p}, nothing loaded"),
            );
            return Ok(());
        }
        session.begin().map_err(db)?;
        match phase1_save(
            cluster,
            session,
            tc,
            rows,
            avro_schema,
            tables,
            node,
            copy_direct,
        ) {
            Ok(true) => {
                session.commit().map_err(db)?;
                mark(
                    span,
                    1,
                    node,
                    started,
                    false,
                    format!("phase 1 saved partition {p}"),
                );
                Ok(())
            }
            Ok(false) => {
                // A duplicate attempt already saved this partition;
                // discard our staged copy.
                session.rollback().map_err(db)?;
                mark(
                    span,
                    1,
                    node,
                    started,
                    false,
                    format!("phase 1 duplicate of {p}, rolled back"),
                );
                Ok(())
            }
            Err(e) => {
                let e = db(e);
                mark(span, 1, node, started, true, format!("phase 1 failed: {e}"));
                Err(e)
            }
        }
    })?;

    // ----- Phase 2: are all tasks done? -------------------------------
    let not_done = conn.run("s2v.phase2", |session| {
        let db = |e: DbError| ConnectorError::db("s2v.phase2", e);
        let span = obs::global().span_start("s2v.phase2", tc.trace);
        let started = Instant::now();
        let node = session.node();
        let not_done = session
            .execute(&format!(
                "SELECT COUNT(*) FROM {} WHERE done = FALSE",
                tables.status
            ))
            .map_err(db)?
            .rows()
            .map_err(db)?
            .rows[0]
            .get(0)
            .as_i64()?;
        let detail = if not_done > 0 {
            format!("phase 2: {not_done} tasks pending, terminating")
        } else {
            "phase 2: all tasks done".to_string()
        };
        mark(span, 2, node, started, false, detail);
        Ok(not_done)
    })?;
    if not_done > 0 {
        return Ok(TaskEnd::Done);
    }
    debug_assert!(partitions > 0);

    // ----- Phase 3: race to become the last committer -----------------
    conn.run("s2v.phase3", |session| {
        let db = |e: DbError| ConnectorError::db("s2v.phase3", e);
        let span = obs::global().span_start("s2v.phase3", tc.trace);
        let started = Instant::now();
        let node = session.node();
        session.begin().map_err(db)?;
        let committer_count = session
            .execute(&format!("SELECT COUNT(*) FROM {}", tables.committer))
            .map_err(db)?
            .rows()
            .map_err(db)?
            .rows[0]
            .get(0)
            .as_i64()?;
        if committer_count == 0 {
            session
                .execute(&format!("INSERT INTO {} VALUES ({p})", tables.committer))
                .map_err(db)?;
            session.commit().map_err(db)?;
            mark(
                span,
                3,
                node,
                started,
                false,
                format!("phase 3: task {p} claimed the committer slot"),
            );
        } else {
            session.rollback().map_err(db)?;
            mark(
                span,
                3,
                node,
                started,
                false,
                "phase 3: committer slot taken".to_string(),
            );
        }
        Ok(())
    })?;

    // ----- Phase 4: did we win? ---------------------------------------
    let winner = conn.run("s2v.phase4", |session| {
        let db = |e: DbError| ConnectorError::db("s2v.phase4", e);
        let span = obs::global().span_start("s2v.phase4", tc.trace);
        let started = Instant::now();
        let node = session.node();
        let winner = session
            .execute(&format!("SELECT task_id FROM {} LIMIT 1", tables.committer))
            .map_err(db)?
            .rows()
            .map_err(db)?
            .rows[0]
            .get(0)
            .as_i64()?;
        let detail = if winner != p as i64 {
            format!("phase 4: task {winner} won, terminating")
        } else {
            format!("phase 4: task {p} is the committer")
        };
        mark(span, 4, node, started, false, detail);
        Ok(winner)
    })?;
    if winner != p as i64 {
        return Ok(TaskEnd::Done);
    }

    // ----- Phase 5: tolerance check + final atomic commit -------------
    conn.run("s2v.phase5", |session| {
        let db = |e: DbError| ConnectorError::db("s2v.phase5", e);
        let span = obs::global().span_start("s2v.phase5", tc.trace);
        session.set_trace(span);
        let started = Instant::now();
        let node = session.node();
        // Read before the transaction opens, so that it takes no lock:
        // phase 2 saw every task done, and a task's counts are committed
        // with its done flag and never change again. Inside the
        // transaction this read would hold the status table while the
        // commit below waits for the staging table — which a duplicate
        // of some task's phase 1 holds while it waits for the status
        // table, a deadlock that only the lock timeout resolves.
        let totals = session
            .execute(&format!(
                "SELECT SUM(rows_loaded), SUM(rows_rejected) FROM {}",
                tables.status
            ))
            .map_err(db)?
            .rows()
            .map_err(db)?;
        session.begin().map_err(db)?;
        let loaded = totals.rows[0].get(0).as_i64()? as u64;
        let rejected = totals.rows[0].get(1).as_i64()? as u64;
        let attempted = loaded + rejected;
        let failed_pct = if attempted == 0 {
            0.0
        } else {
            rejected as f64 / attempted as f64
        };

        if failed_pct > tolerance {
            session
                .execute(&format!(
                    "UPDATE {FINAL_STATUS_TABLE} SET failed_pct = {failed_pct}, \
                     status = 'failed_tolerance' WHERE job_name = '{job_name}'"
                ))
                .map_err(db)?;
            session.commit().map_err(db)?;
            mark(
                span,
                5,
                node,
                started,
                true,
                format!("phase 5: tolerance exceeded ({rejected} rejected)"),
            );
            return Ok(TaskEnd::ToleranceExceeded { loaded, rejected });
        }

        // Conditional: only commit if the job is not already finished (a
        // speculative duplicate of the committer — or our own earlier
        // attempt whose commit ack was lost — may have beaten us here).
        let status = session
            .execute(&format!(
                "SELECT status FROM {FINAL_STATUS_TABLE} WHERE job_name = '{job_name}'"
            ))
            .map_err(db)?
            .rows()
            .map_err(db)?;
        let current = status.rows[0].get(0).as_str()?.to_string();
        if current == "finished" {
            session.rollback().map_err(db)?;
            mark(
                span,
                5,
                node,
                started,
                false,
                "phase 5: already finished, terminating".to_string(),
            );
            return Ok(TaskEnd::Done);
        }

        // Commit staging into target. In both modes the target adopts the
        // staged storage containers and no row is read or copied; what
        // differs is the charge. Overwrite is the atomic swap, a
        // constant-time rename in the paper and in the cost log; append
        // is charged as the copy Sec. 5 discusses — the scan of staging,
        // the copy step, the routed insert — priced by the database from
        // the staged rows' hashes and wire sizes.
        match mode {
            SaveMode::Append => {
                {
                    let _mute = cluster.recorder().mute();
                    session
                        .insert_from_table(target, &tables.staging)
                        .map_err(db)?;
                }
                session
                    .charge_copy(target, &tables.staging, |rows, bytes| {
                        cluster.recorder().work(
                            Some(p as u64),
                            NodeRef::Db(node),
                            "s2v_append_copy",
                            rows,
                            bytes,
                        )
                    })
                    .map_err(db)?;
            }
            _ => {
                cluster
                    .recorder()
                    .setup(Some(p as u64), NodeRef::Db(node), "s2v_atomic_rename");
                let _mute = cluster.recorder().mute();
                session
                    .execute(&format!("DELETE FROM {target}"))
                    .map_err(db)?;
                session
                    .insert_from_table(target, &tables.staging)
                    .map_err(db)?;
            }
        }
        session
            .execute(&format!(
                "UPDATE {FINAL_STATUS_TABLE} SET failed_pct = {failed_pct}, \
                 status = 'finished' WHERE job_name = '{job_name}'"
            ))
            .map_err(db)?;
        session.commit().map_err(db)?;
        // The exactly-once witness: this exact detail string appears once
        // per job no matter how many attempts, retries, or speculative
        // duplicates ran — tests/exactly_once.rs asserts on it. (A lost
        // commit ack can suppress it entirely; then the durable final
        // status table is the record.)
        mark(
            span,
            5,
            node,
            started,
            false,
            format!("phase 5 final commit by task {p}, {loaded} loaded"),
        );
        obs::global().add("s2v.final_commits", 1);
        Ok(TaskEnd::Committed { loaded, rejected })
    })
}

/// Task `p`'s done flag in the status table.
fn task_done(session: &mut Session, tables: &JobTables, p: usize) -> DbResult<bool> {
    let done = session
        .execute(&format!(
            "SELECT done FROM {} WHERE task_id = {p}",
            tables.status
        ))?
        .rows()?;
    match done.rows.first() {
        Some(row) => Ok(row.get(0) == &Value::Boolean(true)),
        None => Err(DbError::Execution(format!(
            "status row for task {p} missing"
        ))),
    }
}

/// Phase 1 body (inside an open transaction): encode, ship, COPY, and
/// conditionally flip the done flag. Returns whether the transaction
/// should commit. The rows are the task's partition as its source
/// holds it: encoding only reads them.
#[allow(clippy::too_many_arguments)]
fn phase1_save(
    cluster: &Arc<Cluster>,
    session: &mut Session,
    tc: &sparklet::TaskContext,
    rows: &[common::Row],
    avro_schema: &AvroSchema,
    tables: &JobTables,
    node: usize,
    copy_direct: bool,
) -> DbResult<bool> {
    let p = tc.partition;
    let row_count = rows.len() as u64;

    // Encode the partition in the Avro binary format (Sec. 3.2.2).
    let mut writer = Writer::new(avro_schema.clone(), Codec::Rle).with_rows_hint(rows.len());
    let mut encode_errors = 0u64;
    for row in rows {
        // Rows that cannot be encoded count as rejected.
        if writer.write_row(row).is_err() {
            encode_errors += 1;
        }
    }
    let payload = writer.finish();
    cluster.recorder().work(
        Some(p as u64),
        NodeRef::Compute(tc.executor_node),
        "avro_encode",
        row_count,
        payload.len() as u64,
    );
    cluster.recorder().transfer(
        Some(p as u64),
        NodeRef::Compute(tc.executor_node),
        NodeRef::Db(node),
        NetClass::External,
        payload.len() as u64,
        row_count,
    );

    // Bulk-load into staging; local rejections are tallied, the global
    // tolerance is enforced by the last committer in phase 5.
    let copy = session.copy(
        &tables.staging,
        CopySource::Avro(payload),
        CopyOptions {
            direct: copy_direct,
            rejected_max: u64::MAX,
        },
    )?;
    let loaded = copy.loaded;
    let rejected = copy.rejected + encode_errors;
    let sample = copy
        .rejected_sample
        .first()
        .map(|(line, reason)| format!("line {line}: {reason}"))
        .unwrap_or_default()
        .replace('\'', "''");

    // Conditional flip of the done flag (the duplicate-save guard).
    if task_done(session, tables, p)? {
        return Ok(false);
    }
    session.execute(&format!(
        "UPDATE {} SET done = TRUE, rows_loaded = {loaded}, rows_rejected = {rejected}, \
         reject_sample = '{sample}' WHERE task_id = {p}",
        tables.status
    ))?;
    Ok(true)
}
