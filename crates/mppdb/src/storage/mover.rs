//! The Tuple Mover: background maintenance that lets continuous ingest
//! coexist with fast scans ("C-Store 7 Years Later", Sec. 4).
//!
//! Two passes, both driven from [`Cluster::mover_pass`]:
//!
//! * **moveout** — seal the WOS's committed open containers into one
//!   fresh encoded ROS container ([`NodeTableStore::moveout`]): their
//!   typed columns are concatenated, no row is built, and the container
//!   gets its statistics and encodings through the same
//!   [`ContainerStats`] path as COPY DIRECT and mergeout, so moved rows
//!   immediately benefit from zone-map skipping.
//! * **mergeout** — compact adjacent runs of small, fully-committed ROS
//!   containers in the same power-of-two size stratum into one
//!   container ([`NodeTableStore::mergeout`]), bounding the container
//!   count trickle loads would otherwise grow without limit.
//!
//! Safety properties:
//!
//! * Both passes preserve per-row commit/delete states verbatim and
//!   keep the visible-row sequence at every snapshot epoch unchanged,
//!   so concurrent MVCC scans (including the connector's epoch-pinned
//!   V2S pieces and synthetic row windows) cannot observe a pass.
//! * Each table pass holds the table's **shared** lock: `DELETE` /
//!   `UPDATE` statements take the exclusive lock, so their [`RowLoc`]s
//!   cannot go stale while the mover relocates rows under them.
//! * The pass admits into the dedicated `tm` resource pool; when the
//!   pool is full the pass sheds (`tm.sheds`) instead of piling onto a
//!   busy cluster.
//! * The seeded fault injector's [`FaultSite::Moveout`] kills a pass
//!   before it touches a store — every mutation is all-or-nothing
//!   under the store write lock, so a "crash" can only mean the pass
//!   never ran, never a torn container.
//!
//! Every completed operation is logged (bounded ring) and surfaced as
//! the `dc_tuple_mover` system table, plus `tm.*` counters/timers in
//! the data collector.
//!
//! [`ContainerStats`]: crate::storage::stats::ContainerStats
//! [`RowLoc`]: crate::storage::store::RowLoc
//! [`FaultSite::Moveout`]: crate::fault::FaultSite::Moveout

use std::collections::BTreeSet;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use parking_lot::Mutex;

use crate::cluster::Cluster;
use crate::fault::FaultSite;
use crate::storage::NodeTableStore;
use crate::txn::LockMode;

/// Resource pool the mover admits into; created with every cluster.
pub const MOVER_POOL: &str = "tm";

/// Most recent mover operations retained for `dc_tuple_mover`.
const OP_LOG_CAP: usize = 1024;

/// One completed tuple-mover operation, as surfaced by the
/// `dc_tuple_mover` system table.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MoverOp {
    /// Monotonic per-cluster sequence number.
    pub seq: u64,
    /// `"moveout"` or `"mergeout"`.
    pub op: &'static str,
    pub node: usize,
    pub table: String,
    /// Rows moved (moveout) or rewritten (mergeout).
    pub rows: u64,
    /// Containers consumed (0 for moveout: the source is the WOS).
    pub containers_in: u64,
    /// Containers produced.
    pub containers_out: u64,
    /// Cluster epoch when the operation ran.
    pub epoch: u64,
    pub dur_us: u64,
}

/// Outcome of one [`Cluster::mover_pass`] tick.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MoverPassReport {
    /// Rows drained WOS → ROS.
    pub moveout_rows: usize,
    /// Stores a moveout actually ran on.
    pub moveout_runs: usize,
    /// Mergeout operations performed.
    pub merges: usize,
    /// Rows rewritten by mergeout.
    pub merged_rows: usize,
    /// Containers consumed by mergeout.
    pub containers_merged: usize,
    /// Tables skipped because the pool was full or the lock was busy.
    pub sheds: usize,
    /// True when the seeded fault injector killed part of the pass.
    pub crashed: bool,
}

impl MoverPassReport {
    /// Did this tick change any store at all?
    pub fn did_work(&self) -> bool {
        self.moveout_rows > 0 || self.merges > 0
    }
}

/// Per-cluster mover state: the bounded operation log and the
/// background-thread handle.
#[derive(Default)]
pub(crate) struct MoverState {
    ops: Mutex<VecDeque<MoverOp>>,
    seq: AtomicU64,
    stop: AtomicBool,
    thread: Mutex<Option<JoinHandle<()>>>,
}

impl MoverState {
    fn log(&self, mut op: MoverOp) {
        op.seq = self.seq.fetch_add(1, Ordering::AcqRel);
        let mut ops = self.ops.lock();
        if ops.len() == OP_LOG_CAP {
            ops.pop_front();
        }
        ops.push_back(op);
    }
}

impl Cluster {
    /// One synchronous tuple-mover tick: for every table (sorted, for
    /// deterministic op logs) and node, drain committed WOS rows and
    /// compact small ROS containers. Callers drive this directly in
    /// tests and benches; [`Cluster::start_mover`] drives it from a
    /// background thread.
    pub fn mover_pass(&self) -> MoverPassReport {
        let mut report = MoverPassReport::default();
        // Admission: maintenance must not starve foreground queries.
        let _guard = match self.resource_pool(MOVER_POOL) {
            Some(pool) => match pool.try_admit() {
                Ok(guard) => Some(guard),
                Err(_) => {
                    obs::global().incr("tm.sheds");
                    report.sheds += 1;
                    return report;
                }
            },
            None => None,
        };
        let mut tables: BTreeSet<String> = BTreeSet::new();
        for node in self.node_states() {
            tables.extend(node.stores.read().keys().cloned());
        }
        for table in &tables {
            self.mover_table_pass(table, &mut report);
        }
        report
    }

    /// Move and merge one table across all nodes, under its shared
    /// table lock.
    fn mover_table_pass(&self, table: &str, report: &mut MoverPassReport) {
        // Shared vs. the exclusive lock DELETE/UPDATE hold: a mutation
        // statement's RowLocs stay valid for its whole transaction, and
        // the mover waits its turn rather than relocating under it.
        let txn = self.alloc_txn_id();
        if self
            .locks
            .acquire(txn, table, LockMode::Shared, self.config().lock_timeout)
            .is_err()
        {
            obs::global().incr("tm.sheds");
            report.sheds += 1;
            return;
        }
        for (idx, node) in self.node_states().into_iter().enumerate() {
            // The seeded crash: die before touching this store. Stores
            // already processed keep their (complete, self-consistent)
            // new containers; this one is simply left for a later pass.
            if self.faults().should_fire(FaultSite::Moveout, idx) {
                report.crashed = true;
                break;
            }
            let mut stores = node.stores.write();
            let Some(store) = stores.get_mut(table) else {
                continue;
            };
            let moved = self.moveout_store_recorded(idx, table, store);
            if moved > 0 {
                report.moveout_rows += moved;
                report.moveout_runs += 1;
            }
            let started = Instant::now();
            let outcome = store.mergeout(self.config().mergeout_min_containers);
            if outcome.merges > 0 {
                let dur = started.elapsed();
                obs::global().add("tm.mergeout_runs", outcome.merges as u64);
                obs::global().add("tm.rows_merged", outcome.rows as u64);
                obs::global().add("tm.containers_merged", outcome.containers_in as u64);
                obs::global().record_time("tm.mergeout_us", dur);
                self.mover.log(MoverOp {
                    seq: 0,
                    op: "mergeout",
                    node: idx,
                    table: table.to_string(),
                    rows: outcome.rows as u64,
                    containers_in: outcome.containers_in as u64,
                    containers_out: outcome.merges as u64,
                    epoch: self.current_epoch(),
                    dur_us: dur.as_micros() as u64,
                });
                report.merges += outcome.merges;
                report.merged_rows += outcome.rows;
                report.containers_merged += outcome.containers_in;
            }
        }
        self.locks.release_all(txn);
    }

    /// Run moveout on one store (caller holds the store map's write
    /// lock) and record it: `tm.*` counters, timer, and the op log.
    /// Shared by the mover pass and post-commit maintenance so every
    /// moveout — however triggered — shows up in `dc_tuple_mover`.
    pub(crate) fn moveout_store_recorded(
        &self,
        node: usize,
        table: &str,
        store: &mut NodeTableStore,
    ) -> usize {
        if store.wos_committed_rows() == 0 {
            return 0;
        }
        let started = Instant::now();
        let moved = store.moveout();
        if moved == 0 {
            return 0;
        }
        let dur = started.elapsed();
        obs::global().incr("tm.moveout_runs");
        obs::global().add("tm.rows_moved", moved as u64);
        obs::global().record_time("tm.moveout_us", dur);
        self.mover.log(MoverOp {
            seq: 0,
            op: "moveout",
            node,
            table: table.to_string(),
            rows: moved as u64,
            containers_in: 0,
            containers_out: 1,
            epoch: self.current_epoch(),
            dur_us: dur.as_micros() as u64,
        });
        moved
    }

    /// Run the tuple mover's mergeout on every node-table store
    /// (unconditionally, no pool/lock gating — the test and bench
    /// counterpart of [`Cluster::moveout_all`]). Returns rows rewritten.
    pub fn mergeout_all(&self) -> usize {
        let mut rows = 0;
        for (idx, node) in self.node_states().into_iter().enumerate() {
            let mut stores = node.stores.write();
            let mut tables: Vec<String> = stores.keys().cloned().collect();
            tables.sort();
            for table in tables {
                let Some(store) = stores.get_mut(&table) else {
                    continue;
                };
                let started = Instant::now();
                let outcome = store.mergeout(self.config().mergeout_min_containers);
                if outcome.merges > 0 {
                    let dur = started.elapsed();
                    obs::global().add("tm.mergeout_runs", outcome.merges as u64);
                    obs::global().add("tm.rows_merged", outcome.rows as u64);
                    obs::global().add("tm.containers_merged", outcome.containers_in as u64);
                    obs::global().record_time("tm.mergeout_us", dur);
                    self.mover.log(MoverOp {
                        seq: 0,
                        op: "mergeout",
                        node: idx,
                        table,
                        rows: outcome.rows as u64,
                        containers_in: outcome.containers_in as u64,
                        containers_out: outcome.merges as u64,
                        epoch: self.current_epoch(),
                        dur_us: dur.as_micros() as u64,
                    });
                    rows += outcome.rows;
                }
            }
        }
        rows
    }

    /// The retained mover operation log, oldest first (what
    /// `dc_tuple_mover` serves).
    pub fn mover_ops(&self) -> Vec<MoverOp> {
        self.mover.ops.lock().iter().cloned().collect()
    }

    /// Start the background mover thread, ticking [`Cluster::mover_pass`]
    /// every `interval`. Idempotent while running. The thread holds only
    /// a weak reference, so dropping the last cluster handle also ends
    /// it; call [`Cluster::stop_mover`] for a deterministic shutdown.
    pub fn start_mover(self: &Arc<Cluster>, interval: Duration) {
        let mut thread = self.mover.thread.lock();
        if thread.is_some() {
            return;
        }
        self.mover.stop.store(false, Ordering::Release);
        let weak = Arc::downgrade(self);
        *thread = Some(std::thread::spawn(move || loop {
            std::thread::sleep(interval);
            let Some(cluster) = weak.upgrade() else {
                break;
            };
            if cluster.mover.stop.load(Ordering::Acquire) {
                break;
            }
            cluster.mover_pass();
        }));
    }

    /// Stop the background mover thread and wait for it to exit. No-op
    /// when it is not running.
    pub fn stop_mover(&self) {
        self.mover.stop.store(true, Ordering::Release);
        let thread = self.mover.thread.lock().take();
        if let Some(thread) = thread {
            let _ = thread.join();
        }
    }
}
