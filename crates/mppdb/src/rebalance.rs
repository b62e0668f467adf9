//! Online rebalance: elastic membership with epoch-pinned map flips
//! ("C-Store 7 Years Later" Sec. 6's online rebalance, adapted to this
//! cluster's epoch MVCC).
//!
//! The protocol, end to end:
//!
//! 1. **Plan.** [`Cluster::add_node`] registers a fresh node slot
//!    (empty stores, dual-write eligible) and derives the target map
//!    with [`SegmentMap::with_node_added`]; [`Cluster::remove_node`]
//!    derives it with [`SegmentMap::with_node_removed`]. Either way the
//!    target map and the minimal [`SegmentMap::migration_plan`] become
//!    the cluster's *pending rebalance*.
//! 2. **Dual writes.** While a rebalance is pending, `insert_rows`
//!    routes every row to the union of its current-map and target-map
//!    replica sets, and `delete_where` marks matches on every
//!    registered node — so data copied early cannot go stale while
//!    later ranges migrate.
//! 3. **Copy.** Each migration copies one hash range to one target
//!    node under a short commit-lock critical section: the source's
//!    containers holding rows in range are exported as slices with
//!    commit/delete state verbatim (pending transactions included —
//!    `commit_txn`/`abort_txn` stamp every registered node, so they
//!    resolve on the target exactly as on the source), the target's
//!    range is cleared first (idempotency), and each slice lands in its
//!    container's form: a sealed one rebuilt through the
//!    `ContainerStats` path (or shared whole) so the migrated data stays
//!    zone-map-skippable, an open one in the WOS. Temp tables (S2V
//!    staging) migrate too, so rows staged before a flip are found after
//!    it. The target's kill-generation is recorded per migration; a kill
//!    between copy and flip invalidates the record and forces a re-copy
//!    on resume.
//! 4. **Flip.** When every migration is durable, the target map is
//!    published at the *next* epoch boundary under the commit lock:
//!    epoch `E` advances to `E+1` and the map version becomes
//!    effective at `E+1`. Reads and V2S pieces pinned at epochs `<= E`
//!    keep resolving ownership through the old map — whose owners
//!    still hold every pre-flip row — while anything at `>= E+1` uses
//!    the new map, whose owners hold the full verbatim history. No
//!    in-flight job is ever wrong; migrated ranges are merely
//!    dual-served until the old snapshots age out.
//! 5. **Crash/resume.** [`FaultSite::Rebalance`] kills the rebalance
//!    right after a migration is recorded. The plan stays pending;
//!    [`Cluster::run_rebalance`] recomputes the deterministic plan,
//!    skips migrations whose recorded target generation still
//!    matches, and re-copies the rest — `remove_hash_range` before
//!    each landing makes re-copies exact, never additive. A target
//!    killed *during* a copy bumps its generation, so that migration
//!    is left unrecorded and resumed from scratch.
//!
//! Every completed operation lands in a bounded op log surfaced as the
//! `dc_rebalance` system table, the map history as `dc_segment_map`,
//! and `rebalance.*` counters/timers in the data collector.
//!
//! [`FaultSite::Rebalance`]: crate::fault::FaultSite::Rebalance

use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use common::locks;
use parking_lot::Mutex;

use crate::cluster::Cluster;
use crate::error::{DbError, DbResult};
use crate::fault::FaultSite;
use crate::segmentation::{HashRange, SegmentMap, SegmentMove};

/// Most recent rebalance operations retained for `dc_rebalance`.
const OP_LOG_CAP: usize = 1024;

/// One completed rebalance operation, as surfaced by the
/// `dc_rebalance` system table.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RebalanceOp {
    /// Monotonic per-cluster sequence number.
    pub seq: u64,
    /// `"plan"`, `"copy"`, `"skip"`, `"crash"`, or `"flip"`.
    pub op: &'static str,
    /// Target node of the migration (or the added/removed node for
    /// plan/flip entries).
    pub node: usize,
    /// Table migrated; empty for plan/flip entries.
    pub table: String,
    /// Rows copied.
    pub rows: u64,
    pub range_start: u64,
    pub range_end: Option<u64>,
    /// The target map version this operation works toward.
    pub map_version: u64,
    /// Cluster epoch when the operation ran.
    pub epoch: u64,
    pub dur_us: u64,
}

/// The cluster's pending rebalance: target map, what kind of
/// membership change it is, and which migrations are already durable.
pub(crate) struct PendingRebalance {
    target: Arc<SegmentMap>,
    /// Node being drained for removal (retired at flip), if any.
    remove: Option<usize>,
    /// Node added by this rebalance, if any.
    add: Option<usize>,
    /// Durable copies: (table, target node, range start) -> the
    /// target's kill-generation when the copy landed. A generation
    /// mismatch at resume or flip time means the target restarted and
    /// the copy must be redone.
    done: HashMap<(String, usize, u64), u64>,
}

/// Per-cluster rebalance state: the pending plan and the bounded op
/// log.
pub(crate) struct RebalanceState {
    pub(crate) pending: Mutex<Option<PendingRebalance>>,
    ops: Mutex<VecDeque<RebalanceOp>>,
    seq: AtomicU64,
}

impl Default for RebalanceState {
    fn default() -> RebalanceState {
        RebalanceState {
            pending: Mutex::new(&locks::REBALANCE_PENDING, None),
            ops: Mutex::new(&locks::REBALANCE_OPS, VecDeque::new()),
            seq: AtomicU64::new(0),
        }
    }
}

impl RebalanceState {
    fn log(&self, mut op: RebalanceOp) {
        op.seq = self.seq.fetch_add(1, Ordering::AcqRel);
        let mut ops = self.ops.lock();
        if ops.len() == OP_LOG_CAP {
            ops.pop_front();
        }
        ops.push_back(op);
    }
}

/// Outcome of a completed [`Cluster::run_rebalance`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RebalanceReport {
    /// The map version that became authoritative.
    pub map_version: u64,
    /// The epoch at which the new map took effect.
    pub flip_epoch: u64,
    /// Migrations copied this run.
    pub migrations: usize,
    /// Migrations skipped because a previous (interrupted) run already
    /// landed them durably.
    pub skipped: usize,
    /// Rows copied this run.
    pub rows_copied: usize,
    /// Node added by this rebalance, if any.
    pub added: Option<usize>,
    /// Node retired by this rebalance, if any.
    pub removed: Option<usize>,
}

impl Cluster {
    /// Whether a rebalance is planned but not yet flipped.
    pub fn rebalance_in_progress(&self) -> bool {
        self.rebalance.pending.lock().is_some()
    }

    /// The pending rebalance's target map, if any — what `insert_rows`
    /// dual-writes against.
    pub(crate) fn rebalance_target_map(&self) -> Option<Arc<SegmentMap>> {
        self.rebalance
            .pending
            .lock()
            .as_ref()
            .map(|p| Arc::clone(&p.target))
    }

    /// Add a node to the cluster and rebalance onto it online. Returns
    /// the new node's id. The node is registered (up, empty stores,
    /// receiving dual-writes) before any data moves, then
    /// [`Cluster::run_rebalance`] copies its share and flips the map.
    ///
    /// On interruption (injected crash, target killed mid-copy) the
    /// error is returned and the plan stays pending: the node id is
    /// `node_count() - 1`, and a later `run_rebalance` resumes from
    /// where the copy stopped.
    pub fn add_node(&self) -> DbResult<usize> {
        let node;
        {
            let mut pending = self.rebalance.pending.lock();
            if pending.is_some() {
                return Err(DbError::Execution(
                    "a rebalance is already in progress".to_string(),
                ));
            }
            let _guard = self.commit_lock.lock();
            node = self.register_node();
            let target = Arc::new(self.segment_map().with_node_added(node));
            self.rebalance.log(RebalanceOp {
                seq: 0,
                op: "plan",
                node,
                table: String::new(),
                rows: 0,
                range_start: 0,
                range_end: None,
                map_version: target.version(),
                epoch: self.current_epoch(),
                dur_us: 0,
            });
            *pending = Some(PendingRebalance {
                target,
                remove: None,
                add: Some(node),
                done: HashMap::new(),
            });
        }
        obs::global().incr(obs::names::REBALANCE_NODE_ADDS);
        obs::global().emit(obs::EventKind::FaultInject, |e| {
            e.node = Some(node as u64);
            e.detail = format!("node {node} added; rebalance planned");
        });
        self.run_rebalance()?;
        Ok(node)
    }

    /// Remove a member node online: its data migrates to the remaining
    /// members, and at the flip the node is retired for good (sessions
    /// die, `restore_node` refuses it). Node ids stay stable — no
    /// renumbering.
    ///
    /// On interruption the plan stays pending (the node keeps serving)
    /// and a later [`Cluster::run_rebalance`] resumes it.
    pub fn remove_node(&self, node: usize) -> DbResult<()> {
        {
            let mut pending = self.rebalance.pending.lock();
            if pending.is_some() {
                return Err(DbError::Execution(
                    "a rebalance is already in progress".to_string(),
                ));
            }
            let map = self.segment_map();
            if !map.is_member(node) {
                return Err(DbError::NodeUnavailable(node));
            }
            if map.node_count() <= 1 {
                return Err(DbError::Execution(
                    "cannot remove the last member node".to_string(),
                ));
            }
            let _guard = self.commit_lock.lock();
            let target = Arc::new(map.with_node_removed(node));
            self.rebalance.log(RebalanceOp {
                seq: 0,
                op: "plan",
                node,
                table: String::new(),
                rows: 0,
                range_start: 0,
                range_end: None,
                map_version: target.version(),
                epoch: self.current_epoch(),
                dur_us: 0,
            });
            *pending = Some(PendingRebalance {
                target,
                remove: Some(node),
                add: None,
                done: HashMap::new(),
            });
        }
        obs::global().emit(obs::EventKind::FaultInject, |e| {
            e.node = Some(node as u64);
            e.detail = format!("node {node} leaving; rebalance planned");
        });
        self.run_rebalance()
    }

    /// Run (or resume) the pending rebalance to completion: copy every
    /// outstanding migration, then flip the map at an epoch boundary.
    /// `Ok(None)`-equivalent behavior: with nothing pending this is a
    /// no-op. Idempotent under crashes — migrations already durable
    /// (recorded generation still matching the target's) are skipped.
    pub fn run_rebalance(&self) -> DbResult<()> {
        let mut pending_guard = self.rebalance.pending.lock();
        let Some(pending) = pending_guard.as_mut() else {
            return Ok(());
        };
        let old = self.segment_map();
        let target = Arc::clone(&pending.target);
        let k = self.config().k_safety;
        let was_resumed = !pending.done.is_empty();
        if was_resumed {
            obs::global().incr(obs::names::REBALANCE_RESUMES);
        }
        let mut report = RebalanceReport {
            map_version: target.version(),
            added: pending.add,
            removed: pending.remove,
            ..RebalanceReport::default()
        };

        // The deterministic migration list: segmented tables move the
        // minimal plan's ranges; unsegmented tables full-copy to a
        // freshly added node (every surviving member already holds a
        // full replica, so removals copy nothing).
        let moves = old.migration_plan(&target, k);
        let catalog_tables: Vec<(String, bool)> = {
            let catalog = self.catalog.read();
            catalog
                .table_names()
                .into_iter()
                .filter_map(|name| {
                    let def = catalog.table(&name).ok()?;
                    Some((def.name.clone(), def.is_segmented()))
                })
                .collect()
        };
        for (table, segmented) in &catalog_tables {
            let table_moves: Vec<SegmentMove> = if *segmented {
                moves.clone()
            } else {
                match pending.add {
                    Some(node) => vec![SegmentMove {
                        range: HashRange::full(),
                        node,
                    }],
                    None => Vec::new(),
                }
            };
            for mv in table_moves {
                let key = (table.clone(), mv.node, mv.range.start);
                let gen_now = self.node_generation(mv.node);
                if pending.done.get(&key) == Some(&gen_now) {
                    report.skipped += 1;
                    obs::global().incr(obs::names::REBALANCE_MIGRATIONS_SKIPPED);
                    self.rebalance.log(RebalanceOp {
                        seq: 0,
                        op: "skip",
                        node: mv.node,
                        table: table.clone(),
                        rows: 0,
                        range_start: mv.range.start,
                        range_end: mv.range.end,
                        map_version: target.version(),
                        epoch: self.current_epoch(),
                        dur_us: 0,
                    });
                    continue;
                }
                if !self.is_node_up(mv.node) {
                    // Target down mid-rebalance: leave the plan pending;
                    // resume after the node is restored.
                    return Err(DbError::RebalanceInterrupted { node: mv.node });
                }
                let started = self.clock().now();
                let rows = self.copy_migration(&old, table, *segmented, &mv)?;
                // A kill during the copy bumped the generation: the
                // target's staged rows died with it. Leave unrecorded —
                // a resume re-copies it exactly (the landing clears the
                // range first).
                if self.node_generation(mv.node) != gen_now {
                    return Err(DbError::RebalanceInterrupted { node: mv.node });
                }
                pending.done.insert(key, gen_now);
                report.migrations += 1;
                report.rows_copied += rows;
                let dur = self.clock().since(started);
                obs::global().incr(obs::names::REBALANCE_MIGRATIONS);
                obs::global().add(obs::names::REBALANCE_ROWS_COPIED, rows as u64);
                self.rebalance.log(RebalanceOp {
                    seq: 0,
                    op: "copy",
                    node: mv.node,
                    table: table.clone(),
                    rows: rows as u64,
                    range_start: mv.range.start,
                    range_end: mv.range.end,
                    map_version: target.version(),
                    epoch: self.current_epoch(),
                    dur_us: dur.as_micros() as u64,
                });
                // The seeded mid-rebalance crash: this migration is
                // recorded, but the run dies before reaching the next
                // one. A resume skips recorded work (generation
                // permitting) and picks up where the crash hit.
                if self.faults().should_fire(FaultSite::Rebalance, mv.node) {
                    self.rebalance.log(RebalanceOp {
                        seq: 0,
                        op: "crash",
                        node: mv.node,
                        table: table.clone(),
                        rows: rows as u64,
                        range_start: mv.range.start,
                        range_end: mv.range.end,
                        map_version: target.version(),
                        epoch: self.current_epoch(),
                        dur_us: self.clock().since(started).as_micros() as u64,
                    });
                    return Err(DbError::RebalanceInterrupted { node: mv.node });
                }
            }
        }

        // Flip: publish the target map at the next epoch boundary. Any
        // migration whose target restarted since its copy is stale —
        // drop it and report interrupted instead of flipping onto lost
        // data.
        let flip_epoch;
        {
            let _guard = self.commit_lock.lock();
            let mut stale: Option<usize> = None;
            pending.done.retain(|(_, node, _), gen| {
                let ok = self.node_generation(*node) == *gen && self.is_node_up(*node);
                if !ok {
                    stale = Some(*node);
                }
                ok
            });
            if let Some(node) = stale {
                return Err(DbError::RebalanceInterrupted { node });
            }
            flip_epoch = self.epoch.load(Ordering::Acquire) + 1;
            self.push_map_version(flip_epoch, Arc::clone(&target));
            self.epoch.store(flip_epoch, Ordering::Release);
        }
        report.flip_epoch = flip_epoch;
        if let Some(node) = pending.remove {
            self.retire_node(node);
        }
        *pending_guard = None;
        drop(pending_guard);

        obs::global().incr(obs::names::REBALANCE_FLIPS);
        obs::global().incr(obs::names::DB_EPOCH_ADVANCE);
        obs::global().emit(obs::EventKind::EpochAdvance, |e| {
            e.detail = format!(
                "epoch {flip_epoch}: segment map v{} authoritative",
                target.version()
            );
        });
        self.rebalance.log(RebalanceOp {
            seq: 0,
            op: "flip",
            node: report.removed.or(report.added).unwrap_or(0),
            table: String::new(),
            rows: report.rows_copied as u64,
            range_start: 0,
            range_end: None,
            map_version: target.version(),
            epoch: flip_epoch,
            dur_us: 0,
        });
        Ok(())
    }

    /// Copy one migration's range to its target under a short
    /// commit-lock hold, so no commit can stamp epochs between export
    /// and landing. Returns rows copied.
    fn copy_migration(
        &self,
        old: &SegmentMap,
        table: &str,
        segmented: bool,
        mv: &SegmentMove,
    ) -> DbResult<usize> {
        let _guard = self.commit_lock.lock();
        let target_state = self
            .node_state(mv.node)
            .ok_or(DbError::NodeUnavailable(mv.node))?;
        let mut copied = 0usize;
        // A merged move range can span several old-map segments, each
        // with its own source replica set.
        let pieces: Vec<(usize, HashRange)> = if segmented {
            old.segments_intersecting(&mv.range)
        } else {
            // Unsegmented full copy: any live holder serves as source.
            let src = (0..self.node_count())
                .find(|&n| n != mv.node && self.is_node_up(n))
                .ok_or(DbError::DataUnavailable { segment: 0 })?;
            vec![(src, mv.range)]
        };
        for (src_owner, sub) in pieces {
            let source = if segmented {
                self.live_holders(old, src_owner)
                    .find(|&n| n != mv.node)
                    .ok_or(DbError::RebalanceInterrupted { node: mv.node })?
            } else {
                src_owner
            };
            let src_state = self
                .node_state(source)
                .ok_or(DbError::NodeUnavailable(source))?;
            let exported = {
                let stores = src_state.stores.read();
                match stores.get(table) {
                    Some(store) => store.export_range(segmented.then_some(&sub)),
                    None => continue,
                }
            };
            let mut stores = target_state.stores.write();
            let Some(store) = stores.get_mut(table) else {
                continue;
            };
            // Idempotency: clear the landing range first, so a resumed
            // copy replaces rather than duplicates.
            store.remove_hash_range(&sub);
            copied += exported.len();
            store.adopt(exported);
        }
        Ok(copied)
    }

    /// The retained rebalance operation log, oldest first (what
    /// `dc_rebalance` serves).
    pub fn rebalance_ops(&self) -> Vec<RebalanceOp> {
        self.rebalance.ops.lock().iter().cloned().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::{Segmentation, TableDef};
    use crate::cluster::{ClusterConfig, OnPredicateError};
    use common::{row, DataType, Row, Schema};

    fn schema() -> Schema {
        Schema::from_pairs(&[("id", DataType::Int64), ("x", DataType::Float64)])
    }

    fn seeded(node_count: usize, k_safety: usize, rows: usize) -> Arc<Cluster> {
        let c = Cluster::new(ClusterConfig {
            node_count,
            k_safety,
            ..ClusterConfig::default()
        });
        c.create_table(
            TableDef::new("t", schema(), Segmentation::ByHash(vec!["id".into()])).unwrap(),
        )
        .unwrap();
        let mut txn = c.begin_txn();
        let rows: Vec<Row> = (0..rows).map(|i| row![i as i64, i as f64]).collect();
        c.insert_rows(&mut txn, 0, None, "t", rows).unwrap();
        c.commit_txn(txn);
        c
    }

    fn all_ids(c: &Arc<Cluster>, epoch: u64) -> Vec<i64> {
        let def = c.table_def("t").unwrap();
        let mut ids: Vec<i64> = c
            .match_live(&def, epoch, None, None, OnPredicateError::Skip, true)
            .unwrap()
            .rows
            .into_iter()
            .map(|r| match r.values()[0] {
                common::Value::Int64(v) => v,
                _ => panic!("id column must be int"),
            })
            .collect();
        ids.sort_unstable();
        ids
    }

    #[test]
    fn add_node_preserves_ids_and_versions_map() {
        let c = seeded(4, 0, 500);
        let before = all_ids(&c, c.current_epoch());
        let pre_epoch = c.current_epoch();
        let node = c.add_node().unwrap();
        assert_eq!(node, 4);
        assert_eq!(c.node_count(), 5);
        assert_eq!(c.segment_map().version(), 1);
        assert!(c.segment_map().is_member(4));
        // Post-flip scans see the same multiset; the new node now
        // serves its share.
        assert_eq!(all_ids(&c, c.current_epoch()), before);
        // Epoch-pinned resolution: the pre-flip epoch resolves the old
        // map version.
        assert_eq!(c.segment_map_at(pre_epoch).version(), 0);
        assert_eq!(c.segment_map_at(c.current_epoch()).version(), 1);
        let stats = c.table_stats("t").unwrap();
        assert!(
            stats[4].ros_rows + stats[4].wos_rows > 0,
            "migrated rows must land on the new node"
        );
    }

    #[test]
    fn remove_node_retires_it_and_preserves_ids() {
        let c = seeded(4, 0, 500);
        let before = all_ids(&c, c.current_epoch());
        c.remove_node(2).unwrap();
        assert!(c.is_node_retired(2));
        assert!(!c.is_node_up(2));
        assert_eq!(c.segment_map().members(), &[0, 1, 3]);
        assert_eq!(all_ids(&c, c.current_epoch()), before);
        // A retired node never comes back.
        c.restore_node(2);
        assert!(!c.is_node_up(2));
        assert!(c.connect(2).is_err());
    }

    #[test]
    fn interrupted_rebalance_resumes_idempotently() {
        let c = seeded(4, 0, 400);
        let before = all_ids(&c, c.current_epoch());
        // Crash the first migration attempt, every time until the
        // budget runs out.
        c.faults().arm(
            crate::fault::FaultPlan::seeded(7)
                .with_rebalance_crash(1.0)
                .with_budget(2),
        );
        let err = c.add_node().unwrap_err();
        assert!(matches!(err, DbError::RebalanceInterrupted { .. }));
        assert!(c.rebalance_in_progress());
        assert_eq!(c.segment_map().version(), 0, "no flip before completion");
        // Resume: one more crash, then the budget is spent.
        let _ = c.run_rebalance();
        c.run_rebalance().unwrap();
        assert!(!c.rebalance_in_progress());
        assert_eq!(c.segment_map().version(), 1);
        assert_eq!(all_ids(&c, c.current_epoch()), before);
        assert!(c.rebalance_ops().iter().any(|op| op.op == "crash"));
        assert!(c.rebalance_ops().iter().any(|op| op.op == "skip"));
    }

    #[test]
    fn dual_writes_reach_the_new_owner_before_flip() {
        let c = seeded(4, 0, 200);
        // Plan an add but crash after the first migration records,
        // leaving the rebalance pending.
        c.faults().inject_once(FaultSite::Rebalance);
        let err = c.add_node().unwrap_err();
        assert!(matches!(err, DbError::RebalanceInterrupted { node: 4 }));
        // Insert while pending: rows dual-write to current and target
        // owners.
        let mut txn = c.begin_txn();
        let rows: Vec<Row> = (200..400).map(|i| row![i as i64, 0.0f64]).collect();
        c.insert_rows(&mut txn, 0, None, "t", rows).unwrap();
        c.commit_txn(txn);
        let stats = c.table_stats("t").unwrap();
        assert!(
            stats[4].wos_rows > 0,
            "dual-writes must land on the pending target"
        );
        // Finish the rebalance; the multiset is exact (no duplicates
        // from dual-written rows, since the copy clears before landing).
        c.run_rebalance().unwrap();
        let ids = all_ids(&c, c.current_epoch());
        assert_eq!(ids, (0..400).collect::<Vec<i64>>());
    }

    #[test]
    fn k_safety_migration_keeps_replication() {
        let c = seeded(4, 1, 300);
        let before = all_ids(&c, c.current_epoch());
        c.add_node().unwrap();
        assert_eq!(all_ids(&c, c.current_epoch()), before);
        // Every logical row still has 2 physical copies among the
        // *new-map* replica set; total physical rows can exceed 2x
        // because old owners keep their pre-flip copies for epoch-
        // pinned readers.
        let map = c.segment_map();
        assert_eq!(map.node_count(), 5);
        // Kill one node: everything stays readable under k=1.
        c.kill_node(1);
        assert_eq!(all_ids(&c, c.current_epoch()), before);
    }

    #[test]
    fn unsegmented_tables_full_copy_to_new_node() {
        let c = Cluster::new(ClusterConfig::default());
        c.create_table(TableDef::new("u", schema(), Segmentation::Unsegmented).unwrap())
            .unwrap();
        let mut txn = c.begin_txn();
        let rows: Vec<Row> = (0..50).map(|i| row![i as i64, 0.0f64]).collect();
        c.insert_rows(&mut txn, 0, None, "u", rows).unwrap();
        c.commit_txn(txn);
        let node = c.add_node().unwrap();
        let stats = c.table_stats("u").unwrap();
        assert_eq!(
            stats[node].ros_rows + stats[node].wos_rows,
            50,
            "new node must hold the full unsegmented replica"
        );
    }

    #[test]
    fn concurrent_rebalance_refused() {
        let c = seeded(4, 0, 100);
        c.faults().inject_once(FaultSite::Rebalance);
        assert!(c.add_node().is_err());
        assert!(c.rebalance_in_progress());
        assert!(matches!(c.add_node(), Err(DbError::Execution(_))));
        assert!(matches!(c.remove_node(0), Err(DbError::Execution(_))));
        c.run_rebalance().unwrap();
        assert!(!c.rebalance_in_progress());
    }
}
