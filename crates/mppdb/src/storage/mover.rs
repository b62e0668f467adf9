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
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use common::locks;
use parking_lot::{Condvar, Mutex};

use crate::cluster::Cluster;
use crate::fault::FaultSite;
use crate::storage::store::MergeOutcome;
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
/// background thread with its stop signal.
pub(crate) struct MoverState {
    ops: Mutex<VecDeque<MoverOp>>,
    seq: AtomicU64,
    thread: Mutex<Option<(JoinHandle<()>, Arc<MoverStop>)>>,
}

/// What a running mover thread waits on between passes: a stop ends the
/// wait at once instead of after the rest of the interval.
struct MoverStop {
    stopped: Mutex<bool>,
    wake: Condvar,
}

impl Default for MoverState {
    fn default() -> MoverState {
        MoverState {
            ops: Mutex::new(&locks::MOVER_OPS, VecDeque::new()),
            seq: AtomicU64::new(0),
            thread: Mutex::new(&locks::MOVER_THREAD, None),
        }
    }
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
            Some(pool) => match pool.try_admit(self.clock()) {
                Ok(guard) => Some(guard),
                Err(_) => {
                    obs::global().incr(obs::names::TM_SHEDS);
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
            obs::global().incr(obs::names::TM_SHEDS);
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
            let outcome = self.mergeout_store_recorded(idx, table, store);
            report.merges += outcome.merges;
            report.merged_rows += outcome.rows;
            report.containers_merged += outcome.containers_in;
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
        let started = self.clock().now();
        let moved = store.moveout();
        if moved == 0 {
            return 0;
        }
        let dur = self.clock().since(started);
        obs::global().incr(obs::names::TM_MOVEOUT_RUNS);
        obs::global().add(obs::names::TM_ROWS_MOVED, moved as u64);
        obs::global().record_time(obs::names::TM_MOVEOUT_US, dur);
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

    /// Run mergeout on one store (caller holds the store map's write
    /// lock) and record what it merged, as [`Cluster::moveout_store_recorded`]
    /// does for moveout.
    fn mergeout_store_recorded(
        &self,
        node: usize,
        table: &str,
        store: &mut NodeTableStore,
    ) -> MergeOutcome {
        let started = self.clock().now();
        let outcome = store.mergeout(self.config().mergeout_min_containers);
        if outcome.merges == 0 {
            return outcome;
        }
        let dur = self.clock().since(started);
        obs::global().add(obs::names::TM_MERGEOUT_RUNS, outcome.merges as u64);
        obs::global().add(obs::names::TM_ROWS_MERGED, outcome.rows as u64);
        obs::global().add(
            obs::names::TM_CONTAINERS_MERGED,
            outcome.containers_in as u64,
        );
        obs::global().record_time(obs::names::TM_MERGEOUT_US, dur);
        self.mover.log(MoverOp {
            seq: 0,
            op: "mergeout",
            node,
            table: table.to_string(),
            rows: outcome.rows as u64,
            containers_in: outcome.containers_in as u64,
            containers_out: outcome.merges as u64,
            epoch: self.current_epoch(),
            dur_us: dur.as_micros() as u64,
        });
        outcome
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
                rows += self.mergeout_store_recorded(idx, &table, store).rows;
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
    /// every `interval` of the cluster's clock. Idempotent while running.
    /// The thread holds only a weak reference, so dropping the last
    /// cluster handle also ends it (at its next tick); call
    /// [`Cluster::stop_mover`] for a prompt, deterministic shutdown.
    pub fn start_mover(self: &Arc<Cluster>, interval: Duration) {
        let mut thread = self.mover.thread.lock();
        if thread.is_some() {
            return;
        }
        let stop = Arc::new(MoverStop {
            stopped: Mutex::new(&locks::MOVER_STOP, false),
            wake: Condvar::new(),
        });
        let (weak, clock, signal) = (Arc::downgrade(self), self.clock(), Arc::clone(&stop));
        let mut due = clock.now() + interval;
        let handle = std::thread::spawn(move || loop {
            let mut stopped = signal.stopped.lock();
            while !*stopped && !clock.wait(&signal.wake, &mut stopped, due) {}
            if *stopped {
                break;
            }
            drop(stopped);
            let Some(cluster) = weak.upgrade() else {
                break;
            };
            cluster.mover_pass();
            due = clock.now() + interval;
        });
        *thread = Some((handle, stop));
    }

    /// Stop the background mover thread and wait for it to exit: at
    /// most the pass it is running, never the rest of an interval. No-op
    /// when it is not running.
    pub fn stop_mover(&self) {
        let running = self.mover.thread.lock().take();
        if let Some((handle, stop)) = running {
            *stop.stopped.lock() = true;
            stop.wake.notify_all();
            let _ = handle.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::ClusterConfig;
    use common::clock::Clock;

    /// On a manual clock with an hour-long interval, one advance of an
    /// hour runs one pass, and the stop that follows returns with no
    /// further advance instead of waiting out the next hour.
    #[test]
    fn stop_mover_does_not_wait_out_the_interval() {
        let clock = Clock::manual();
        let db = Cluster::new(ClusterConfig {
            clock,
            ..ClusterConfig::default()
        });
        let mut s = db.connect(0).unwrap();
        s.execute("CREATE TABLE t (id INT NOT NULL) SEGMENTED BY HASH(id) ALL NODES")
            .unwrap();
        s.execute("INSERT INTO t VALUES (1), (2), (3), (4)")
            .unwrap();
        db.start_mover(Duration::from_secs(3600));
        clock.advance(Duration::from_secs(3600));
        while db.mover_ops().is_empty() {
            std::thread::yield_now();
        }
        db.stop_mover();
        let ops = db.mover_ops();
        assert!(ops.iter().all(|op| op.op == "moveout"), "{ops:?}");
        assert_eq!(
            ops.iter().map(|op| op.rows).sum::<u64>(),
            4,
            "one pass moved the WOS"
        );
    }
}
