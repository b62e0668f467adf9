//! Client sessions: the JDBC-connection analog.
//!
//! A session is pinned to one cluster node — exactly like a JDBC
//! connection to one host — which is what makes the connector's
//! locality story meaningful: a task that connects to node `n` and asks
//! only for node-`n`-local hash ranges induces no internal shuffle.

use std::sync::{Arc, OnceLock};

use common::Row;

use crate::cluster::Cluster;
use crate::copy::{run_copy, CopyOptions, CopyResult, CopySource};
use crate::error::{DbError, DbResult};
use crate::query::{execute_table_scan, resolve_epoch, ExecCtx, QueryResult, QuerySpec};
use crate::sql::exec::{execute_statement, SqlResult};
use crate::sql::parser::parse_statement;
use crate::txn::TxnHandle;
use netsim::record::NodeRef;

/// An open client session against one node.
pub struct Session {
    cluster: Arc<Cluster>,
    node: usize,
    /// The node's kill generation when this session connected. If the
    /// node dies (even if it is later restored) the generation moves on
    /// and every subsequent operation here fails with
    /// [`DbError::ConnectionLost`] — a dead TCP connection does not
    /// come back just because the server did.
    generation: u64,
    pub(crate) txn: Option<TxnHandle>,
    task_tag: Option<u64>,
    pool: String,
    /// Parent for the session's `db.copy` / `db.query` spans; NONE (the
    /// default) keeps the session untraced.
    trace: obs::TraceCtx,
}

impl Session {
    pub(crate) fn new(cluster: Arc<Cluster>, node: usize) -> Session {
        let generation = cluster.node_generation(node);
        Session {
            cluster,
            node,
            generation,
            txn: None,
            task_tag: None,
            pool: "general".to_string(),
            trace: obs::TraceCtx::NONE,
        }
    }

    /// Fail with `ConnectionLost` if the pinned node died since connect.
    fn ensure_connected(&self) -> DbResult<()> {
        if !self.cluster.is_node_up(self.node)
            || self.cluster.node_generation(self.node) != self.generation
        {
            return Err(DbError::ConnectionLost { node: self.node });
        }
        Ok(())
    }

    pub fn cluster(&self) -> &Arc<Cluster> {
        &self.cluster
    }

    pub fn node(&self) -> usize {
        self.node
    }

    /// Attribute subsequent recorded work to a logical task (partition).
    pub fn set_task_tag(&mut self, tag: Option<u64>) {
        self.task_tag = tag;
    }

    pub fn task_tag(&self) -> Option<u64> {
        self.task_tag
    }

    /// Parent subsequent `db.copy` / `db.query` spans under `trace`
    /// (the caller's current span). [`obs::TraceCtx::NONE`] disables.
    pub fn set_trace(&mut self, trace: obs::TraceCtx) {
        self.trace = trace;
    }

    /// Switch the session's resource pool (must exist).
    pub fn set_resource_pool(&mut self, name: &str) -> DbResult<()> {
        if self.cluster.resource_pool(name).is_none() {
            return Err(DbError::Execution(format!("no such resource pool: {name}")));
        }
        self.pool = name.to_string();
        Ok(())
    }

    pub fn resource_pool_name(&self) -> &str {
        &self.pool
    }

    // ----- transactions ---------------------------------------------

    pub fn in_txn(&self) -> bool {
        self.txn.is_some()
    }

    pub fn begin(&mut self) -> DbResult<()> {
        self.ensure_connected()?;
        if self.txn.is_some() {
            return Err(DbError::TxnState("transaction already open".into()));
        }
        self.txn = Some(self.cluster.begin_txn());
        Ok(())
    }

    /// Commit the open transaction, returning its commit epoch.
    pub fn commit(&mut self) -> DbResult<u64> {
        // Liveness first: if the node is gone, leave the transaction in
        // place so Drop aborts it, exactly as the server's session reaper
        // would.
        self.ensure_connected()?;
        let txn = self
            .txn
            .take()
            .ok_or_else(|| DbError::TxnState("no open transaction".into()))?;
        self.record_commit(!txn.touched.is_empty());
        let epoch = self.cluster.commit_txn(txn);
        if self
            .cluster
            .faults()
            .should_fire(crate::fault::FaultSite::PostCommit, self.node)
        {
            // The commit landed; only the acknowledgement is lost
            // (Sec. 2.2.2's indistinguishable-outcome hazard).
            return Err(DbError::ConnectionLost { node: self.node });
        }
        Ok(epoch)
    }

    /// Commits serialize on the engine's global commit/epoch path; the
    /// cost model charges each writing commit against that shared
    /// resource.
    fn record_commit(&self, wrote: bool) {
        if wrote {
            self.cluster
                .recorder()
                .work(self.task_tag, NodeRef::Db(self.node), "db_commit", 1, 0);
        }
    }

    pub fn rollback(&mut self) -> DbResult<()> {
        let txn = self
            .txn
            .take()
            .ok_or_else(|| DbError::TxnState("no open transaction".into()))?;
        self.cluster.abort_txn(txn);
        Ok(())
    }

    /// Run `op` inside the open transaction or an auto-commit one. On
    /// error in auto-commit mode the implicit transaction is aborted.
    pub(crate) fn with_txn<T>(
        &mut self,
        op: impl FnOnce(&Cluster, &mut TxnHandle, usize, Option<u64>) -> DbResult<T>,
    ) -> DbResult<T> {
        self.ensure_connected()?;
        let node = self.node;
        let tag = self.task_tag;
        if let Some(txn) = self.txn.as_mut() {
            return op(&self.cluster, txn, node, tag);
        }
        let mut txn = self.cluster.begin_txn();
        match op(&self.cluster, &mut txn, node, tag) {
            Ok(v) => {
                self.record_commit(!txn.touched.is_empty());
                self.cluster.commit_txn(txn);
                if self
                    .cluster
                    .faults()
                    .should_fire(crate::fault::FaultSite::PostCommit, node)
                {
                    return Err(DbError::ConnectionLost { node });
                }
                Ok(v)
            }
            Err(e) => {
                self.cluster.abort_txn(txn);
                Err(e)
            }
        }
    }

    // ----- data operations -------------------------------------------

    /// Insert rows (routed by segmentation, replicated per k-safety).
    pub fn insert(&mut self, table: &str, rows: Vec<Row>) -> DbResult<u64> {
        self.with_txn(|cluster, txn, node, tag| cluster.insert_rows(txn, node, tag, table, rows))
    }

    /// Insert every row of `source` into `target`: the hand-over a bulk
    /// load's final commit uses. Where the two tables' rows are placed
    /// alike the target adopts the source's storage containers instead
    /// of copying rows ([`Cluster::insert_from_table`]); the source is
    /// left as it was either way.
    pub fn insert_from_table(&mut self, target: &str, source: &str) -> DbResult<u64> {
        self.with_txn(|cluster, txn, node, tag| {
            cluster.insert_from_table(txn, node, tag, target, source)
        })
    }

    /// Record on the cluster's cost log what `INSERT INTO target SELECT *
    /// FROM source` costs as the scan of `source` and the routed insert
    /// of its rows into `target` — the copy a hand-over replaces — while
    /// moving no row and reading no value: only hashes, validity bits
    /// and string lengths. `between` runs between the two halves with
    /// the rows and wire bytes copied, for a caller that charges a step
    /// of its own there. The rows are routed by the hashes `source`
    /// stores, so the charge is the copy's own when the two tables share
    /// schema and segmentation, as a staging table and its target do.
    pub fn charge_copy(
        &mut self,
        target: &str,
        source: &str,
        between: impl FnOnce(u64, u64),
    ) -> DbResult<()> {
        self.ensure_connected()?;
        // The walk reads no value, so it runs on this thread.
        let ctx = ExecCtx {
            cluster: &self.cluster,
            node: self.node,
            task: self.task_tag,
            txn: self.txn.as_ref().map(|t| t.id),
            parallelism: 1,
        };
        crate::query::charge_copy(ctx, target, source, between)
    }

    /// Bulk load (the COPY utility).
    pub fn copy(
        &mut self,
        table: &str,
        source: CopySource,
        options: CopyOptions,
    ) -> DbResult<CopyResult> {
        let span = obs::global().span_start("db.copy", self.trace);
        let node = self.node;
        let result = self.with_txn(|cluster, txn, node, tag| {
            run_copy(cluster, txn, node, tag, table, source, &options)
        });
        obs::global().span_finish(span, |s| {
            s.node = Some(node as u64);
            match &result {
                Ok(copy) => {
                    s.rows = copy.loaded;
                    s.detail = format!("COPY {table} ({} rejected)", copy.rejected);
                }
                Err(e) => {
                    s.failed = true;
                    s.detail = format!("COPY {table}: {e}");
                }
            }
        });
        result
    }

    /// Execute a programmatic read. Outside a transaction this is a
    /// pure epoch-snapshot read and never blocks; inside one it takes
    /// the table lock for serializability and sees the transaction's
    /// own writes.
    pub fn query(&mut self, spec: &QuerySpec) -> DbResult<QueryResult> {
        self.query_inner(spec, false)
    }

    /// Execute a programmatic read, keeping table-scan results in
    /// columnar form ([`QueryResult::batch`]) instead of materializing
    /// rows. The connector uses this so rows only exist at the Spark
    /// partition boundary. Views and system tables still come back
    /// row-materialized.
    pub fn query_batched(&mut self, spec: &QuerySpec) -> DbResult<QueryResult> {
        self.query_inner(spec, true)
    }

    fn query_inner(&mut self, spec: &QuerySpec, want_batch: bool) -> DbResult<QueryResult> {
        let span = obs::global().span_start("db.query", self.trace);
        let node = self.node;
        let result = self.query_unspanned(spec, want_batch);
        obs::global().span_finish(span, |s| {
            s.node = Some(node as u64);
            match &result {
                Ok(r) => {
                    s.rows = r.num_rows() as u64;
                    s.detail = format!("scan {}", spec.table);
                }
                Err(e) => {
                    s.failed = true;
                    s.detail = format!("scan {}: {e}", spec.table);
                }
            }
        });
        result
    }

    fn query_unspanned(&mut self, spec: &QuerySpec, want_batch: bool) -> DbResult<QueryResult> {
        self.ensure_connected()?;
        let _admission = match self.cluster.resource_pool(&self.pool) {
            Some(pool) => Some(pool.try_admit()?),
            None => None,
        };
        self.cluster
            .faults()
            .apply_latency(crate::fault::LatencySite::Scan, self.node);
        // System tables are read-only catalog views.
        if let Some((schema, rows)) = crate::system::scan_system_table(&self.cluster, &spec.table) {
            if spec.hash_range.is_some() {
                return Err(DbError::Execution(format!(
                    "hash ranges do not apply to system table {}",
                    spec.table
                )));
            }
            let epoch = self.resolve_epoch(spec.as_of_epoch)?;
            return crate::query::apply_spec_to_rows(schema, rows, spec, epoch);
        }
        // Views route through the SQL executor.
        let is_view = self.cluster.catalog.read().view(&spec.table).is_some();
        if is_view {
            return crate::sql::exec::execute_view_scan(self, spec);
        }
        let txn_id = if let Some(txn) = self.txn.as_mut() {
            self.cluster
                .lock_table(txn, &spec.table, crate::txn::LockMode::Exclusive)?;
            txn.touched.insert(crate::catalog::normalize(&spec.table));
            Some(txn.id)
        } else {
            None
        };
        // Per-segment scan fan-out is bounded by the session's resource
        // pool (its concurrency knob governs intra- as well as
        // inter-statement parallelism) and the host's core count.
        let parallelism = self
            .cluster
            .resource_pool(&self.pool)
            .map(|p| p.max_concurrency())
            .unwrap_or(1)
            .min(host_parallelism());
        let ctx = ExecCtx {
            cluster: &self.cluster,
            node: self.node,
            task: self.task_tag,
            txn: txn_id,
            parallelism,
        };
        execute_table_scan(ctx, spec, want_batch)
    }

    /// Parse and execute one SQL statement.
    pub fn execute(&mut self, sql: &str) -> DbResult<SqlResult> {
        self.ensure_connected()?;
        let stmt = parse_statement(sql)?;
        execute_statement(self, stmt)
    }

    /// The last committed epoch visible to this session.
    pub fn current_epoch(&self) -> u64 {
        self.cluster.current_epoch()
    }

    /// Validate an epoch request against the current epoch.
    pub fn resolve_epoch(&self, requested: Option<u64>) -> DbResult<u64> {
        resolve_epoch(&self.cluster, requested)
    }
}

/// The host's core count, read once per process: on Linux
/// `available_parallelism` re-reads the cgroup files on every call.
fn host_parallelism() -> usize {
    static CORES: OnceLock<usize> = OnceLock::new();
    *CORES.get_or_init(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
}

impl Drop for Session {
    fn drop(&mut self) {
        // A dropped session aborts any open transaction — exactly what a
        // failed client (a killed Spark task) does to its connection.
        if let Some(txn) = self.txn.take() {
            self.cluster.abort_txn(txn);
        }
        self.cluster.close_session(self.node);
    }
}
