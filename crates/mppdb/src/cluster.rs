//! The database cluster: nodes, routing, transactions, DDL, and
//! maintenance.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

use common::hash;
use common::{Expr, Row, Value};
use netsim::record::{NetClass, NodeRef, Recorder};
use parking_lot::{Mutex, RwLock};

use crate::catalog::{normalize, Catalog, TableDef};
use crate::dfs::Dfs;
use crate::error::{DbError, DbResult};
use crate::fault::{FaultInjector, FaultSite, LatencySite};
use crate::resource::ResourcePool;
use crate::segmentation::{merge_ranges, HashRange, SegmentMap};
use crate::session::Session;
use crate::sql::ast::SelectStmt;
use crate::storage::stats::analyzable;
use crate::storage::store::{HandOver, RowLoc};
use crate::storage::{BatchScan, ColumnData, ColumnVec, NodeTableStore, StorageStats};
use crate::txn::{LockManager, LockMode, TxnHandle};
use crate::udf::ScalarUdf;

/// Cluster-wide configuration.
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    pub node_count: usize,
    /// Number of node failures tolerated before data loss; each segment
    /// is replicated to this many buddy nodes. The paper's experiments
    /// run with k-safety 0 "for clarity of evaluation of data movement".
    pub k_safety: usize,
    /// Per-node client session limit (the paper raises
    /// MAX-CLIENT-SESSIONS to 100 for the parallelism experiments).
    pub max_client_sessions: usize,
    /// Committed WOS rows per node-table that trigger an automatic
    /// tuple-mover moveout after commit.
    pub moveout_threshold: usize,
    /// Minimum adjacent same-stratum ROS containers before the tuple
    /// mover's mergeout collapses them into one.
    pub mergeout_min_containers: usize,
    /// Lock wait timeout (deadlock resolution).
    pub lock_timeout: Duration,
}

impl Default for ClusterConfig {
    fn default() -> ClusterConfig {
        ClusterConfig {
            node_count: 4,
            k_safety: 0,
            max_client_sessions: 100,
            moveout_threshold: 16 * 1024,
            mergeout_min_containers: 4,
            lock_timeout: Duration::from_secs(5),
        }
    }
}

impl ClusterConfig {
    pub fn with_nodes(node_count: usize) -> ClusterConfig {
        ClusterConfig {
            node_count,
            ..ClusterConfig::default()
        }
    }
}

/// What a mutation makes of a row its predicate fails to evaluate on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum OnPredicateError {
    /// The row does not match (DELETE).
    Skip,
    /// The statement fails (UPDATE).
    Fail,
}

/// What [`Cluster::match_live`] found.
#[derive(Debug, Default)]
pub(crate) struct LiveMatches {
    /// Per live node, where its matching copies are, in scan order.
    copies: Vec<(usize, Vec<RowLoc>)>,
    /// Logical rows matched: copies on their first live holder.
    pub(crate) primaries: u64,
    /// Those rows, in node then scan order, when the caller asked.
    pub(crate) rows: Vec<Row>,
}

pub(crate) struct NodeState {
    pub up: AtomicBool,
    /// Bumped on every kill: sessions remember the generation they
    /// connected under, so a session that outlives its node's death
    /// fails with `ConnectionLost` even after the node is restored.
    pub generation: AtomicU64,
    pub open_sessions: AtomicUsize,
    pub stores: RwLock<HashMap<String, NodeTableStore>>,
    /// Permanently removed from the cluster (`Cluster::remove_node`
    /// after its rebalance flipped). Node ids are stable, so a retired
    /// node keeps its slot but never serves again: `is_node_up` is
    /// false forever and `restore_node` refuses to revive it.
    pub retired: AtomicBool,
    /// Times this node's stores were rebuilt from live peers
    /// (restore-after-kill recovery); surfaced in `dc_nodes`.
    pub rebuilds: AtomicU64,
}

impl NodeState {
    fn fresh() -> NodeState {
        NodeState {
            up: AtomicBool::new(true),
            generation: AtomicU64::new(0),
            open_sessions: AtomicUsize::new(0),
            stores: RwLock::new(HashMap::new()),
            retired: AtomicBool::new(false),
            rebuilds: AtomicU64::new(0),
        }
    }
}

/// One entry of the cluster's segment-map history: the map and the
/// epoch at which it became authoritative. A snapshot read at epoch `e`
/// resolves ownership through the newest version whose
/// `effective_epoch <= e` — this is what keeps in-flight epoch-pinned
/// jobs correct across a rebalance flip.
#[derive(Clone)]
pub struct MapVersion {
    pub effective_epoch: u64,
    pub map: Arc<SegmentMap>,
}

/// A row's owner under the current map and under the pending one, if
/// any: rows that agree on both land on the same nodes.
type RouteKey = (usize, Option<usize>);

/// The routing of one insert: the table, the maps in force when it
/// began, and which nodes its rows go to.
struct Routes {
    def: TableDef,
    map: Arc<SegmentMap>,
    /// The pending rebalance's target map, if any.
    pending: Option<Arc<SegmentMap>>,
    states: Vec<Arc<NodeState>>,
    k_safety: usize,
    /// Nodes that are a current-map replica of some routed row (a down
    /// pending-only target is safely skipped: its migration re-copies
    /// after restore).
    current_target: Vec<bool>,
    /// Target lists worked out so far.
    known: Vec<(RouteKey, Vec<usize>)>,
}

impl Routes {
    /// The columns whose values make a row's hash: the segmentation
    /// columns, or — unsegmented, for bookkeeping only — all of them.
    fn hashed_columns(&self) -> Vec<usize> {
        if self.def.is_segmented() {
            self.def.seg_columns.clone()
        } else {
            (0..self.def.schema.len()).collect()
        }
    }

    /// The nodes a row with segmentation hash `h` lands on: its owner
    /// and the owner's buddies, then whichever nodes the pending map adds
    /// to those; for an unsegmented table every slot that is not retired
    /// (retired nodes are gone for good).
    fn targets_of(&mut self, h: u64) -> &[usize] {
        let key = if self.def.is_segmented() {
            let next = self.pending.as_ref().map(|next| next.owner_of_hash(h));
            (self.map.owner_of_hash(h), next)
        } else {
            (0, None)
        };
        let at = match self.known.iter().position(|(k, _)| *k == key) {
            Some(at) => at,
            None => {
                let targets = self.work_out(key);
                self.known.push((key, targets));
                self.known.len() - 1
            }
        };
        &self.known[at].1
    }

    fn work_out(&mut self, (owner, next_owner): RouteKey) -> Vec<usize> {
        let mut targets: Vec<usize> = if self.def.is_segmented() {
            std::iter::once(owner)
                .chain(self.map.buddies(owner, self.k_safety))
                .collect()
        } else {
            (0..self.states.len())
                .filter(|&i| !self.states[i].retired.load(Ordering::Acquire))
                .collect()
        };
        for &t in &targets {
            self.current_target[t] = true;
        }
        if let (Some(next), Some(next_owner)) = (&self.pending, next_owner) {
            for t in std::iter::once(next_owner).chain(next.buddies(next_owner, self.k_safety)) {
                if !targets.contains(&t) {
                    targets.push(t);
                }
            }
        }
        targets
    }
}

/// An insert priced instead of run: rows known only by their
/// segmentation hash and wire size, routed as [`Cluster::insert_columns`]
/// routes rows and tallied per target node. Nothing is locked, stored or
/// recorded before [`Cluster::charge_routed`].
pub(crate) struct RouteTally {
    routes: Routes,
    /// Per node: the wire bytes and rows routed to it.
    shares: Vec<(u64, u64)>,
    /// Rows routed.
    rows: u64,
}

impl RouteTally {
    /// Route one row.
    pub(crate) fn add(&mut self, hash: u64, wire: u64) {
        self.rows += 1;
        for &t in self.routes.targets_of(hash) {
            self.shares[t].0 += wire;
            self.shares[t].1 += 1;
        }
    }
}

/// A multi-node MPP database running in-process.
pub struct Cluster {
    /// Process-unique id, distinguishing clusters that share a process
    /// (every test builds its own). External per-cluster state — the
    /// connector's health trackers — keys off this rather than the Arc
    /// pointer, which the allocator may reuse.
    id: u64,
    config: ClusterConfig,
    /// Segment-map history, oldest first; the last entry is the
    /// authoritative map. Never empty. Appended to only at an epoch
    /// boundary under the commit lock (the rebalance flip).
    maps: RwLock<Vec<MapVersion>>,
    /// Registered node slots. Ids are stable (slot index == node id for
    /// the life of the cluster): `add_node` appends, `remove_node`
    /// retires in place. Grown only under the commit lock.
    nodes: RwLock<Vec<Arc<NodeState>>>,
    pub(crate) catalog: RwLock<Catalog>,
    pub(crate) epoch: AtomicU64,
    pub(crate) commit_lock: Mutex<()>,
    pub(crate) locks: LockManager,
    next_txn: AtomicU64,
    recorder: Arc<Recorder>,
    udfs: RwLock<HashMap<String, Arc<dyn ScalarUdf>>>,
    dfs: Dfs,
    pools: RwLock<HashMap<String, Arc<ResourcePool>>>,
    faults: FaultInjector,
    /// Tuple-mover op log and background-thread handle
    /// (`storage::mover` holds the pass logic).
    pub(crate) mover: crate::storage::mover::MoverState,
    /// Pending-rebalance state and op log (`rebalance` holds the
    /// migration logic).
    pub(crate) rebalance: crate::rebalance::RebalanceState,
}

impl Cluster {
    pub fn new(config: ClusterConfig) -> Arc<Cluster> {
        assert!(config.node_count > 0, "cluster needs at least one node");
        assert!(
            config.k_safety < config.node_count,
            "k-safety must be below the node count"
        );
        let nodes = (0..config.node_count)
            .map(|_| Arc::new(NodeState::fresh()))
            .collect();
        let seg_map = Arc::new(SegmentMap::new(config.node_count));
        let mut pools = HashMap::new();
        pools.insert(
            "general".to_string(),
            Arc::new(ResourcePool::new("general", 32 << 30, usize::MAX)),
        );
        // The tuple mover's maintenance pool: narrow on purpose, so
        // background moveout/mergeout sheds under load instead of
        // competing with foreground statements.
        pools.insert(
            crate::storage::mover::MOVER_POOL.to_string(),
            Arc::new(ResourcePool::new(
                crate::storage::mover::MOVER_POOL,
                4 << 30,
                2,
            )),
        );
        static NEXT_CLUSTER_ID: AtomicU64 = AtomicU64::new(1);
        Arc::new(Cluster {
            id: NEXT_CLUSTER_ID.fetch_add(1, Ordering::Relaxed),
            config,
            maps: RwLock::new(vec![MapVersion {
                effective_epoch: 0,
                map: seg_map,
            }]),
            nodes: RwLock::new(nodes),
            catalog: RwLock::new(Catalog::new()),
            epoch: AtomicU64::new(0),
            commit_lock: Mutex::new(()),
            locks: LockManager::new(),
            next_txn: AtomicU64::new(1),
            recorder: Recorder::new(),
            udfs: RwLock::new(HashMap::new()),
            dfs: Dfs::new(),
            pools: RwLock::new(pools),
            faults: FaultInjector::default(),
            mover: crate::storage::mover::MoverState::default(),
            rebalance: crate::rebalance::RebalanceState::default(),
        })
    }

    pub fn config(&self) -> &ClusterConfig {
        &self.config
    }

    /// Process-unique cluster id.
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Number of registered node slots (including retired ones): node
    /// ids are always `0..node_count()`.
    pub fn node_count(&self) -> usize {
        self.nodes.read().len()
    }

    /// The node's shared state, if the id is registered.
    pub(crate) fn node_state(&self, node: usize) -> Option<Arc<NodeState>> {
        self.nodes.read().get(node).cloned()
    }

    /// Snapshot of every registered node's state, in id order.
    pub(crate) fn node_states(&self) -> Vec<Arc<NodeState>> {
        self.nodes.read().clone()
    }

    /// The authoritative (newest) segment map.
    pub fn segment_map(&self) -> Arc<SegmentMap> {
        let maps = self.maps.read();
        // fabriclint: allow(panic-hygiene): version 0 is pushed at construction, entries are never popped
        let newest = maps.last().expect("map history never empty");
        Arc::clone(&newest.map)
    }

    /// The segment map that was authoritative at `epoch` — what an
    /// epoch-pinned read resolves ownership through, so a scan taken
    /// before a rebalance flip keeps routing against the map its
    /// snapshot was written under.
    pub fn segment_map_at(&self, epoch: u64) -> Arc<SegmentMap> {
        let maps = self.maps.read();
        let idx = match maps.partition_point(|v| v.effective_epoch <= epoch) {
            0 => 0,
            p => p - 1,
        };
        Arc::clone(&maps[idx].map)
    }

    /// The whole segment-map history, oldest first.
    pub fn segment_map_history(&self) -> Vec<MapVersion> {
        self.maps.read().clone()
    }

    /// Publish `map` as the authoritative version from `effective_epoch`
    /// on. Caller must hold the commit lock.
    pub(crate) fn push_map_version(&self, effective_epoch: u64, map: Arc<SegmentMap>) {
        self.maps.write().push(MapVersion {
            effective_epoch,
            map,
        });
    }

    /// Register a brand-new node slot (up, empty stores for every
    /// catalog table) and return its id. Caller (`add_node`) must hold
    /// the commit lock.
    pub(crate) fn register_node(&self) -> usize {
        let catalog = self.catalog.read();
        let state = Arc::new(NodeState::fresh());
        {
            let mut stores = state.stores.write();
            for name in catalog.table_names() {
                if let Ok(def) = catalog.table(&name) {
                    stores.insert(def.name.clone(), NodeTableStore::new(def.schema.len()));
                }
            }
        }
        let mut nodes = self.nodes.write();
        nodes.push(state);
        nodes.len() - 1
    }

    /// Permanently retire a node: it stops serving, its sessions die,
    /// and it can never be restored. Caller (`run_rebalance`'s flip)
    /// ensures no map still routes new work to it.
    pub(crate) fn retire_node(&self, node: usize) {
        if let Some(state) = self.node_state(node) {
            state.retired.store(true, Ordering::Release);
            if state.up.swap(false, Ordering::AcqRel) {
                state.generation.fetch_add(1, Ordering::AcqRel);
            }
            obs::global().emit(obs::EventKind::FaultInject, |e| {
                e.node = Some(node as u64);
                e.detail = format!("node {node} retired");
            });
        }
    }

    /// Whether the node id is registered but permanently removed.
    pub fn is_node_retired(&self, node: usize) -> bool {
        self.node_state(node)
            .is_some_and(|n| n.retired.load(Ordering::Acquire))
    }

    pub fn recorder(&self) -> &Arc<Recorder> {
        &self.recorder
    }

    pub fn dfs(&self) -> &Dfs {
        &self.dfs
    }

    /// The last committed epoch (0 before any commit). A snapshot read
    /// at this epoch sees all committed data (the paper's "last epoch").
    pub fn current_epoch(&self) -> u64 {
        self.epoch.load(Ordering::Acquire)
    }

    // ----- sessions -------------------------------------------------

    /// Open a client session against `node` (the JDBC connect analog).
    pub fn connect(self: &Arc<Cluster>, node: usize) -> DbResult<Session> {
        let state = self
            .node_state(node)
            .ok_or(DbError::NodeUnavailable(node))?;
        if !state.up.load(Ordering::Acquire) || state.retired.load(Ordering::Acquire) {
            return Err(DbError::NodeUnavailable(node));
        }
        if self.faults.should_fire(FaultSite::Connect, node) {
            return Err(DbError::ConnectionRefused { node });
        }
        self.faults.apply_latency(LatencySite::Connect, node);
        // Optimistic increment with bound check.
        let prev = state.open_sessions.fetch_add(1, Ordering::AcqRel);
        if prev >= self.config.max_client_sessions {
            state.open_sessions.fetch_sub(1, Ordering::AcqRel);
            return Err(DbError::TooManySessions {
                node,
                limit: self.config.max_client_sessions,
            });
        }
        obs::global().emit(obs::EventKind::SessionOpen, |e| {
            e.node = Some(node as u64);
            e.detail = format!("{} open", prev + 1);
        });
        obs::global().incr("db.sessions_opened");
        Ok(Session::new(Arc::clone(self), node))
    }

    pub(crate) fn close_session(&self, node: usize) {
        let Some(state) = self.node_state(node) else {
            return;
        };
        let before = state.open_sessions.fetch_sub(1, Ordering::AcqRel);
        obs::global().emit(obs::EventKind::SessionClose, |e| {
            e.node = Some(node as u64);
            e.detail = format!("{} open", before.saturating_sub(1));
        });
        obs::global().incr("db.sessions_closed");
    }

    pub fn open_sessions(&self, node: usize) -> usize {
        self.node_state(node)
            .map(|n| n.open_sessions.load(Ordering::Acquire))
            .unwrap_or(0)
    }

    /// All node indices that are currently up — what the connector's
    /// setup phase looks up so tasks can spread their connections
    /// (paper Sec. 3.2: "all Vertica node IPs are looked up during
    /// setup").
    pub fn up_nodes(&self) -> Vec<usize> {
        self.nodes
            .read()
            .iter()
            .enumerate()
            .filter(|(_, n)| n.up.load(Ordering::Acquire) && !n.retired.load(Ordering::Acquire))
            .map(|(i, _)| i)
            .collect()
    }

    pub fn is_node_up(&self, node: usize) -> bool {
        self.node_state(node)
            .is_some_and(|n| n.up.load(Ordering::Acquire) && !n.retired.load(Ordering::Acquire))
    }

    /// The live replicas of `owner`'s data under `map`, in serving
    /// order: the owner first, then its k-safety buddies. `.next()` is
    /// the node a read fails over to.
    pub(crate) fn live_holders<'a>(
        &'a self,
        map: &SegmentMap,
        owner: usize,
    ) -> impl Iterator<Item = usize> + 'a {
        std::iter::once(owner)
            .chain(map.buddies(owner, self.config.k_safety))
            .filter(move |&n| self.is_node_up(n))
    }

    /// Mark a node down. Alias of [`Cluster::kill_node`], kept for the
    /// pre-fault-domain call sites.
    pub fn set_node_down(&self, node: usize) {
        self.kill_node(node);
    }

    /// Alias of [`Cluster::restore_node`].
    pub fn set_node_up(&self, node: usize) {
        self.restore_node(node);
    }

    /// Kill a node: new connections are refused, and every session
    /// pinned to it fails its next operation with
    /// [`DbError::ConnectionLost`]. Idempotent.
    pub fn kill_node(&self, node: usize) {
        let Some(state) = self.node_state(node) else {
            return;
        };
        if state.up.swap(false, Ordering::AcqRel) {
            state.generation.fetch_add(1, Ordering::AcqRel);
            obs::global().emit(obs::EventKind::FaultInject, |e| {
                e.node = Some(node as u64);
                e.detail = format!("node {node} killed");
            });
            obs::global().incr("db.node_kills");
        }
    }

    /// Restore a killed node. Before it starts serving, its stores are
    /// rebuilt from live peers (replica recovery): segmented tables pull
    /// each owned or buddied segment from that segment's surviving
    /// replicas, unsegmented tables copy any live node's replica. The
    /// export preserves commit/delete epochs, so epoch-pinned snapshot
    /// reads against the rebuilt node see exactly the history its peers
    /// hold. With k-safety 0 a segmented table has no surviving replica
    /// to pull from, so the node's own (possibly stale) disk state is
    /// kept — the same gamble a real k=0 deployment makes. Idempotent.
    pub fn restore_node(&self, node: usize) {
        let Some(state) = self.node_state(node) else {
            return;
        };
        // Retired nodes never come back: their data has migrated away.
        if state.retired.load(Ordering::Acquire) || state.up.load(Ordering::Acquire) {
            return;
        }
        self.rebuild_node_stores(node);
        state.rebuilds.fetch_add(1, Ordering::AcqRel);
        state.up.store(true, Ordering::Release);
        obs::global().emit(obs::EventKind::FaultInject, |e| {
            e.node = Some(node as u64);
            e.detail = format!("node {node} restored");
        });
        obs::global().incr("db.node_restores");
    }

    /// The node's kill generation (bumped on every kill); sessions pin
    /// the generation they connected under.
    pub(crate) fn node_generation(&self, node: usize) -> u64 {
        self.node_state(node)
            .map(|n| n.generation.load(Ordering::Acquire))
            .unwrap_or(0)
    }

    /// How many times recovery has rebuilt the node's stores.
    pub fn node_rebuilds(&self, node: usize) -> u64 {
        self.node_state(node)
            .map(|n| n.rebuilds.load(Ordering::Acquire))
            .unwrap_or(0)
    }

    /// The cluster's fault-injection switchboard.
    pub fn faults(&self) -> &FaultInjector {
        &self.faults
    }

    /// Rebuild a down node's stores from live replicas. Runs under the
    /// commit lock so no commit can stamp epochs mid-copy; pending rows
    /// of still-open transactions are copied too, so their eventual
    /// commit or abort applies to the rebuilt replica as well.
    ///
    /// Lock order: commit lock strictly before the catalog — rebalance
    /// paths hold the commit lock while registering nodes (which reads
    /// the catalog), so taking the catalog first here would close a
    /// cycle: a queued `catalog.write()` between the two readers turns
    /// the inversion into a deadlock under a write-preferring RwLock.
    fn rebuild_node_stores(&self, node: usize) {
        let k = self.config.k_safety;
        let _commit_guard = self.commit_lock.lock();
        let catalog = self.catalog.read();
        let map = self.segment_map();
        for name in catalog.table_names() {
            let Ok(def) = catalog.table(&name) else {
                continue;
            };
            let mut rebuilt = NodeTableStore::new(def.schema.len());
            if def.is_segmented() {
                if k == 0 {
                    // No surviving replica anywhere; keep the local disk.
                    continue;
                }
                // Ranges this node serves under ANY live map version:
                // what it owns or buddies for in the authoritative map,
                // plus historical obligations — epoch-pinned readers of
                // pre-rebalance snapshots still route those ranges here,
                // so a rebuild that restored only current-map segments
                // would silently serve them short.
                let mut serves: Vec<HashRange> = Vec::new();
                for mv in self.segment_map_history() {
                    for seg in mv.map.segments() {
                        if seg.owner == node || mv.map.buddies(seg.owner, k).contains(&node) {
                            serves.push(seg.range);
                        }
                    }
                }
                let mut recovered_all = true;
                for range in merge_ranges(serves) {
                    // Each piece is sourced through the authoritative
                    // map: post-flip owners hold the verbatim history of
                    // migrated ranges, so historical pieces come back
                    // complete even when every pre-flip holder is gone.
                    for (owner, sub) in map.segments_intersecting(&range) {
                        let source = self.live_holders(&map, owner).find(|&n| n != node);
                        // Every other replica of this piece is down too:
                        // fall back to our own disk.
                        recovered_all &= source.is_some();
                        let src = source.unwrap_or(node);
                        // fabriclint: allow(panic-hygiene): src is a map member or the restoring node itself
                        let src_state = self.node_state(src).expect("registered node");
                        let stores = src_state.stores.read();
                        if let Some(store) = stores.get(&def.name) {
                            rebuilt.adopt(store.export_range(Some(&sub)));
                        }
                    }
                }
                obs::global().emit(obs::EventKind::FaultInject, |e| {
                    e.node = Some(node as u64);
                    e.detail = format!(
                        "recovery rebuilt {}{}",
                        def.name,
                        if recovered_all { "" } else { " (partial)" }
                    );
                });
            } else {
                // Unsegmented: copy the full replica from any live node.
                let Some(src) = (0..self.node_count()).find(|&n| n != node && self.is_node_up(n))
                else {
                    continue;
                };
                // fabriclint: allow(panic-hygiene): src < node_count() is registered by construction
                let src_state = self.node_state(src).expect("registered node");
                let stores = src_state.stores.read();
                if let Some(store) = stores.get(&def.name) {
                    rebuilt.adopt(store.export_range(None));
                } else {
                    continue;
                }
            }
            self.node_state(node)
                // fabriclint: allow(panic-hygiene): node is the restoring member itself
                .expect("registered node")
                .stores
                .write()
                .insert(def.name.clone(), rebuilt);
        }
    }

    // ----- DDL ------------------------------------------------------

    /// Create a table cluster-wide.
    pub fn create_table(&self, mut def: TableDef) -> DbResult<()> {
        let mut catalog = self.catalog.write();
        def.map_version = self.segment_map().version();
        let columns = def.schema.len();
        let name = def.name.clone();
        catalog.create_table(def)?;
        for node in self.node_states() {
            node.stores
                .write()
                .insert(name.clone(), NodeTableStore::new(columns));
        }
        Ok(())
    }

    pub fn drop_table(&self, name: &str) -> DbResult<()> {
        let mut catalog = self.catalog.write();
        let def = catalog.drop_table(name)?;
        for node in self.node_states() {
            node.stores.write().remove(&def.name);
        }
        Ok(())
    }

    pub fn has_table(&self, name: &str) -> bool {
        self.catalog.read().has_table(name)
    }

    pub fn table_def(&self, name: &str) -> DbResult<TableDef> {
        self.catalog.read().table(name).cloned()
    }

    pub fn create_view(&self, name: &str, select: SelectStmt) -> DbResult<()> {
        self.catalog.write().create_view(name, select)
    }

    pub fn drop_view(&self, name: &str) -> DbResult<()> {
        self.catalog.write().drop_view(name).map(|_| ())
    }

    // ----- transactions ---------------------------------------------

    /// Allocate a transaction id without opening a statement-level
    /// transaction (the tuple mover uses bare ids to hold table locks).
    pub(crate) fn alloc_txn_id(&self) -> u64 {
        self.next_txn.fetch_add(1, Ordering::AcqRel)
    }

    pub(crate) fn begin_txn(&self) -> TxnHandle {
        let id = self.alloc_txn_id();
        obs::global().emit(obs::EventKind::TxnBegin, |e| {
            e.task = Some(id);
        });
        obs::global().incr("db.txn_begin");
        TxnHandle::new(id)
    }

    /// Acquire `table`'s lock for the transaction (re-entrant).
    pub(crate) fn lock_table(
        &self,
        txn: &mut TxnHandle,
        table: &str,
        mode: LockMode,
    ) -> DbResult<()> {
        let table = normalize(table);
        self.locks
            .acquire(txn.id, &table, mode, self.config.lock_timeout)?;
        txn.locked.insert(table);
        Ok(())
    }

    /// Commit: stamp all pending work with the next epoch, publish it,
    /// release locks, and run the tuple mover where the WOS grew large.
    pub(crate) fn commit_txn(&self, txn: TxnHandle) -> u64 {
        let commit_started = std::time::Instant::now();
        let epoch;
        {
            let _guard = self.commit_lock.lock();
            epoch = self.epoch.load(Ordering::Acquire) + 1;
            // Every registered node — including a rebalance target
            // still staging copies — is stamped, so migrated replicas
            // of pending rows resolve exactly like their sources.
            for table in &txn.touched {
                for node in self.node_states() {
                    let mut stores = node.stores.write();
                    if let Some(store) = stores.get_mut(table) {
                        store.commit(txn.id, epoch);
                    }
                }
            }
            self.epoch.store(epoch, Ordering::Release);
        }
        self.locks.release_all(txn.id);
        obs::global().emit(obs::EventKind::TxnCommit, |e| {
            e.task = Some(txn.id);
            e.dur_us = commit_started.elapsed().as_micros() as u64;
            e.detail = format!("epoch {epoch}, {} tables", txn.touched.len());
        });
        obs::global().incr("db.txn_commit");
        obs::global().emit(obs::EventKind::EpochAdvance, |e| {
            e.task = Some(txn.id);
            e.detail = format!("epoch {epoch}");
        });
        obs::global().incr("db.epoch_advance");
        obs::global().record_time("db.commit_us", commit_started.elapsed());
        // Post-commit maintenance: moveout of large WOS'es, recorded
        // like any other tuple-mover operation.
        for table in &txn.touched {
            for (idx, node) in self.node_states().into_iter().enumerate() {
                let mut stores = node.stores.write();
                if let Some(store) = stores.get_mut(table) {
                    if store.wos_committed_rows() >= self.config.moveout_threshold {
                        self.moveout_store_recorded(idx, table, store);
                    }
                }
            }
        }
        epoch
    }

    pub(crate) fn abort_txn(&self, txn: TxnHandle) {
        for table in &txn.touched {
            for node in self.node_states() {
                let mut stores = node.stores.write();
                if let Some(store) = stores.get_mut(table) {
                    store.abort(txn.id);
                }
            }
        }
        self.locks.release_all(txn.id);
        obs::global().emit(obs::EventKind::TxnAbort, |e| {
            e.task = Some(txn.id);
            e.detail = format!("{} tables", txn.touched.len());
        });
        obs::global().incr("db.txn_abort");
    }

    // ----- DML ------------------------------------------------------

    /// Validate and coerce a row against a table schema, in place: only
    /// the values that need widening are rewritten.
    fn coerce_row(def: &TableDef, row: Row) -> DbResult<Row> {
        if row.len() != def.schema.len() {
            return Err(DbError::Data(common::Error::SchemaMismatch(format!(
                "row has {} values, table {} has {} columns",
                row.len(),
                def.name,
                def.schema.len()
            ))));
        }
        let mut values = row.into_values();
        for (v, f) in values.iter_mut().zip(def.schema.fields()) {
            if v.is_null() {
                if !f.nullable {
                    return Err(DbError::Data(common::Error::SchemaMismatch(format!(
                        "NULL in non-nullable column {}",
                        f.name
                    ))));
                }
            } else if v.data_type() != Some(f.dtype) {
                *v = std::mem::replace(v, Value::Null)
                    .coerce(f.dtype)
                    .map_err(DbError::Data)?;
            }
        }
        Ok(Row::new(values))
    }

    /// Insert rows into the WOS under an open transaction: SQL
    /// `INSERT`, `UPDATE` and the routed hand-over. The rows are coerced
    /// to the table's types and transposed into columns, which
    /// [`Cluster::insert_columns`] routes and stages.
    pub(crate) fn insert_rows(
        &self,
        txn: &mut TxnHandle,
        initiator: usize,
        task: Option<u64>,
        table: &str,
        rows: Vec<Row>,
    ) -> DbResult<u64> {
        let def = self.table_def(table)?;
        let n = rows.len();
        let fields = def.schema.fields().iter();
        let mut columns: Vec<ColumnVec> = fields.map(|f| ColumnVec::new(f.dtype)).collect();
        columns.iter_mut().for_each(|c| c.reserve(n));
        for row in rows {
            let row = Self::coerce_row(&def, row)?;
            for (col, value) in columns.iter_mut().zip(row.into_values()) {
                col.push(value).map_err(DbError::Data)?;
            }
        }
        self.insert_columns(txn, initiator, task, table, columns, n, false)
    }

    /// Load `rows` rows, held as one typed vector per table column,
    /// under an open transaction: into the WOS, or straight into ROS
    /// containers when `direct` (COPY DIRECT). No row is built: the
    /// segmentation hash is folded column by column — FNV-1a runs over a
    /// row's values in column order, so the hashes are those of
    /// [`hash::hash_row_columns`] bit for bit — each row index is routed
    /// like a row, replicated per k-safety, and every live target
    /// gathers its rows, in load order, into the columns of one new
    /// container, open or sealed. The values must be storable under the
    /// table's schema (COPY validates them as it builds the vectors).
    /// `initiator` is the session's node; rows routed elsewhere are
    /// internal shuffle traffic.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn insert_columns(
        &self,
        txn: &mut TxnHandle,
        initiator: usize,
        task: Option<u64>,
        table: &str,
        columns: Vec<ColumnVec>,
        rows: usize,
        direct: bool,
    ) -> DbResult<u64> {
        let def = self.table_def(table)?;
        self.lock_table(txn, &def.name, LockMode::Shared)?;
        txn.touched.insert(def.name.clone());
        let mut routes = self.routes(def);
        debug_assert_eq!(columns.len(), routes.def.schema.len());
        debug_assert!(columns.iter().all(|c| c.len() == rows));
        if u32::try_from(rows).is_err() {
            return Err(DbError::Execution(format!(
                "one load holds at most {} rows",
                u32::MAX
            )));
        }

        let mut hashes = vec![hash::HASH_SEED; rows];
        for c in routes.hashed_columns() {
            columns[c].fold_hash(&mut hashes);
        }
        // Per target, the indices of its rows, ascending.
        let mut picks: Vec<Vec<u32>> = vec![Vec::new(); routes.states.len()];
        for (i, &h) in hashes.iter().enumerate() {
            for &t in routes.targets_of(h) {
                picks[t].push(i as u32);
            }
        }

        self.recorder
            .work(task, NodeRef::Db(initiator), "route_hash", rows as u64, 0);

        let columns: Vec<ColumnData> = columns.into_iter().map(ColumnData).collect();
        for (target, picked) in picks.iter().enumerate() {
            if picked.is_empty() || !self.takes_rows(&routes, target)? {
                continue;
            }
            // Ascending indices of distinct rows: all of them is every row.
            let taken: Vec<ColumnData> = if picked.len() == rows {
                columns.clone()
            } else {
                columns.iter().map(|c| c.gather(picked)).collect()
            };
            self.ship(task, initiator, target, picked.len() as u64, || {
                taken.iter().map(ColumnData::wire_size).sum::<usize>() as u64
            });
            let hashes = picked.iter().map(|&i| hashes[i as usize]).collect();
            let mut stores = routes.states[target].stores.write();
            let store = stores
                .get_mut(&routes.def.name)
                .ok_or_else(|| DbError::UnknownTable(routes.def.name.clone()))?;
            if direct {
                store.insert_pending_direct(taken, hashes, txn.id);
            } else {
                store.insert_pending_wos(taken, hashes, txn.id);
            }
        }
        Ok(rows as u64)
    }

    /// The routing of rows into `def` under the maps in force now.
    fn routes(&self, def: TableDef) -> Routes {
        let states = self.node_states();
        Routes {
            k_safety: self.config.k_safety,
            current_target: vec![false; states.len()],
            known: Vec::new(),
            map: self.segment_map(),
            // During a pending rebalance every row is *dual-written*: it
            // lands on its current-map replicas AND its target-map
            // replicas, so rows inserted after a range was copied still
            // reach the new owner before the flip.
            pending: self.rebalance_target_map(),
            states,
            def,
        }
    }

    /// Whether `target` takes the rows `routes` gave it. A down target
    /// is skipped when a live replica holds its rows. Without
    /// replication a down current-map target of a segmented table is
    /// fatal; an unsegmented table needs one live holder; a down
    /// rebalance target never is (its kill bumped the generation, which
    /// forces a re-copy on resume).
    fn takes_rows(&self, routes: &Routes, target: usize) -> DbResult<bool> {
        if self.is_node_up(target) {
            return Ok(true);
        }
        if self.config.k_safety == 0 && routes.def.is_segmented() && routes.current_target[target] {
            return Err(DbError::NodeUnavailable(target));
        }
        Ok(false)
    }

    /// Record `rows` rows of `bytes()` wire bytes shipped from the
    /// initiator to the node that stores them: internal shuffle traffic,
    /// nothing (and `bytes` not called) when they stay on the initiator.
    fn ship(
        &self,
        task: Option<u64>,
        initiator: usize,
        target: usize,
        rows: u64,
        bytes: impl FnOnce() -> u64,
    ) {
        if target != initiator {
            self.recorder.transfer(
                task,
                NodeRef::Db(initiator),
                NodeRef::Db(target),
                NetClass::DbInternal,
                bytes(),
                rows,
            );
        }
    }

    /// Start pricing an insert into `table` ([`RouteTally`]) under the
    /// maps in force now.
    pub(crate) fn route_tally(&self, table: &str) -> DbResult<RouteTally> {
        let routes = self.routes(self.table_def(table)?);
        Ok(RouteTally {
            shares: vec![(0, 0); routes.states.len()],
            rows: 0,
            routes,
        })
    }

    /// Record a tallied insert as [`Cluster::insert_columns`] records the
    /// same rows — `route_hash` on the initiator, then each target's
    /// share shipped to it — and fail where it fails, at a down target
    /// that must take rows.
    pub(crate) fn charge_routed(
        &self,
        task: Option<u64>,
        initiator: usize,
        tally: RouteTally,
    ) -> DbResult<()> {
        self.recorder
            .work(task, NodeRef::Db(initiator), "route_hash", tally.rows, 0);
        for (target, &(bytes, rows)) in tally.shares.iter().enumerate() {
            if rows > 0 && self.takes_rows(&tally.routes, target)? {
                self.ship(task, initiator, target, rows, || bytes);
            }
        }
        Ok(())
    }

    /// The row routine [`Cluster::insert_columns`] replaced, kept
    /// verbatim as the reference of the load differential in `copy`:
    /// coerce, hash and route row by row, one `(Row, hash)` batch per
    /// node, transposed into a container when `direct`, staged through
    /// the store's row entry otherwise.
    #[cfg(test)]
    pub(crate) fn insert_rows_reference(
        &self,
        txn: &mut TxnHandle,
        initiator: usize,
        task: Option<u64>,
        table: &str,
        rows: Vec<Row>,
        direct: bool,
    ) -> DbResult<u64> {
        let def = self.table_def(table)?;
        self.lock_table(txn, &def.name, LockMode::Shared)?;
        txn.touched.insert(def.name.clone());

        let n = rows.len() as u64;
        let map = self.segment_map();
        // During a pending rebalance every row is *dual-written*: it
        // lands on its current-map replicas AND its target-map replicas,
        // so rows inserted after a range was copied still reach the new
        // owner before the flip.
        let pending = self.rebalance_target_map();
        let states = self.node_states();
        // Per-target batches of (row, hash), plus whether the target is
        // a current-map replica (down pending-only targets are safely
        // skipped: their migration re-copies after restore).
        let mut batches: Vec<Vec<(Row, u64)>> = (0..states.len()).map(|_| Vec::new()).collect();
        let mut current_target = vec![false; states.len()];
        // One row's target nodes; reused across the loop.
        let mut targets: Vec<usize> = Vec::new();
        let all_columns: Vec<usize> = (0..def.schema.len()).collect();
        for row in rows {
            let row = Self::coerce_row(&def, row)?;
            if def.is_segmented() {
                let h = hash::hash_row_columns(&row, &def.seg_columns);
                let owner = map.owner_of_hash(h);
                targets.clear();
                targets.push(owner);
                targets.extend(map.buddies(owner, self.config.k_safety));
                for &t in &targets {
                    current_target[t] = true;
                }
                if let Some(next) = &pending {
                    let next_owner = next.owner_of_hash(h);
                    for t in std::iter::once(next_owner)
                        .chain(next.buddies(next_owner, self.config.k_safety))
                    {
                        if !targets.contains(&t) {
                            targets.push(t);
                        }
                    }
                }
                // The row moves into its last target: only replication
                // and dual-writes pay for copies.
                if let Some((&last, rest)) = targets.split_last() {
                    for &t in rest {
                        batches[t].push((row.clone(), h));
                    }
                    batches[last].push((row, h));
                }
            } else {
                // Unsegmented: replicate to every live slot (retired
                // nodes are gone for good); the hash over all columns
                // is kept for bookkeeping only.
                let h = hash::hash_row_columns(&row, &all_columns);
                for (i, batch) in batches.iter_mut().enumerate() {
                    if !states[i].retired.load(Ordering::Acquire) {
                        batch.push((row.clone(), h));
                        current_target[i] = true;
                    }
                }
            }
        }

        self.recorder
            .work(task, NodeRef::Db(initiator), "route_hash", n, 0);

        for (target, batch) in batches.into_iter().enumerate() {
            if batch.is_empty() {
                continue;
            }
            if !self.is_node_up(target) {
                if (self.config.k_safety == 0 || !def.is_segmented()) && current_target[target] {
                    // Without replication a down target is fatal; for
                    // unsegmented tables we tolerate missing replicas as
                    // long as one node holds the data. A down
                    // rebalance-target is never fatal: its kill bumped
                    // the generation, which forces a re-copy on resume.
                    if def.is_segmented() {
                        return Err(DbError::NodeUnavailable(target));
                    }
                }
                continue;
            }
            if target != initiator {
                let bytes: usize = batch.iter().map(|(r, _)| r.wire_size()).sum();
                self.recorder.transfer(
                    task,
                    NodeRef::Db(initiator),
                    NodeRef::Db(target),
                    NetClass::DbInternal,
                    bytes as u64,
                    batch.len() as u64,
                );
            }
            let mut stores = states[target].stores.write();
            let store = stores
                .get_mut(&def.name)
                .ok_or_else(|| DbError::UnknownTable(def.name.clone()))?;
            if direct {
                store.insert_pending_direct_rows(batch, txn.id);
            } else {
                store.insert_pending(batch, txn.id);
            }
        }
        Ok(n)
    }

    /// `INSERT INTO target SELECT * FROM source` at container
    /// granularity: stage every row of `source` visible to the
    /// transaction into `target`. Returns the (logical) rows inserted.
    ///
    /// When every source row already sits where [`Cluster::insert_rows`]
    /// would place it now, each live node's target store *adopts* its own
    /// source store's containers by reference, ROS and WOS alike — and
    /// no row is decoded, hashed or routed. That
    /// holds when the two tables are segmented alike over the same
    /// schema, the segment map has not changed since the source was
    /// created, and no rebalance is pending; the pending-rebalance lock
    /// is held across the adoption, so none can begin under it. Otherwise
    /// the same rows go through `insert_rows`, which routes (and
    /// dual-writes) them under the maps in force now.
    pub(crate) fn insert_from_table(
        &self,
        txn: &mut TxnHandle,
        initiator: usize,
        task: Option<u64>,
        target: &str,
        source: &str,
    ) -> DbResult<u64> {
        let target_def = self.table_def(target)?;
        let source_def = self.table_def(source)?;
        self.lock_table(txn, &source_def.name, LockMode::Shared)?;
        self.lock_table(txn, &target_def.name, LockMode::Shared)?;
        let as_of = self.current_epoch();

        let pending = self.rebalance.pending.lock();
        let map = self.segment_map();
        let placed_alike = pending.is_none()
            && source_def.map_version == map.version()
            && source_def.schema == target_def.schema
            && source_def.seg_columns == target_def.seg_columns
            && source_def.is_segmented() == target_def.is_segmented();
        if !placed_alike {
            drop(pending);
            let all = self.match_live(
                &source_def,
                as_of,
                Some(txn.id),
                None,
                OnPredicateError::Skip,
                true,
            )?;
            return self.insert_rows(txn, initiator, task, &target_def.name, all.rows);
        }

        txn.touched.insert(target_def.name.clone());
        let mut inserted = 0u64;
        // Replicas of an unsegmented table must agree on scan order (row
        // windows are served from any of them), so every node adopts the
        // first live replica's contents rather than its own.
        let mut replica: Option<HandOver> = None;
        for (node, state) in self.node_states().iter().enumerate() {
            if state.retired.load(Ordering::Acquire) {
                continue;
            }
            if !self.is_node_up(node) {
                // The rule `match_live` applies: recovery rebuilds a
                // dead replica from a live copy, which a segmented k=0
                // member does not have.
                if target_def.is_segmented() && self.config.k_safety == 0 && map.is_member(node) {
                    return Err(DbError::NodeUnavailable(node));
                }
                continue;
            }
            let mut stores = state.stores.write();
            let contents = match (&replica, stores.get(&source_def.name)) {
                (Some(first), _) => first.clone(),
                (None, Some(store)) => store.hand_over(as_of, txn.id),
                (None, None) => continue,
            };
            if target_def.is_segmented() {
                inserted += contents
                    .hashes(txn.id)
                    .filter(|&h| self.is_live_primary(&target_def, &map, node, h))
                    .count() as u64;
            } else if replica.is_none() {
                inserted = contents.hashes(txn.id).count() as u64;
                replica = Some(contents.clone());
            }
            stores
                .get_mut(&target_def.name)
                .ok_or_else(|| DbError::UnknownTable(target_def.name.clone()))?
                .adopt(contents);
        }
        Ok(inserted)
    }

    /// Whether `node` is the primary of a row with segmentation hash
    /// `hash`: its first *live* holder, so each logical row is counted
    /// exactly once even when its owner (or node 0) is down.
    fn is_live_primary(&self, def: &TableDef, map: &SegmentMap, node: usize, hash: u64) -> bool {
        let first = if def.is_segmented() {
            self.live_holders(map, map.owner_of_hash(hash)).next()
        } else {
            (0..self.node_count()).find(|&n| self.is_node_up(n))
        };
        first == Some(node)
    }

    /// The one traversal behind DELETE, UPDATE and the routed copy:
    /// what of `def` is visible at `as_of` (plus `my_txn`'s own pending
    /// work) and matches `predicate` (bound to the table schema), on
    /// every live node.
    ///
    /// Every copy is matched — buddy copies and any copy a pending
    /// rebalance already staged on its target must be deleted with
    /// their primary — but a logical row counts (and is read) once, on
    /// its first *live* holder, so reads and deletes agree when nodes
    /// are down. A predicate [`analyzable`] proves error-free is pushed
    /// into the store scan (zone-map skips, column-at-a-time filter,
    /// only the matches decoded, and none of them when the caller wants
    /// no rows); any other is evaluated on the decoded rows here, where
    /// `on_error` decides what a failed evaluation means.
    pub(crate) fn match_live(
        &self,
        def: &TableDef,
        as_of: u64,
        my_txn: Option<u64>,
        predicate: Option<&Expr>,
        on_error: OnPredicateError,
        want_rows: bool,
    ) -> DbResult<LiveMatches> {
        let map = self.segment_map();
        let states = self.node_states();
        let mut live = Vec::with_capacity(states.len());
        for (node, state) in states.iter().enumerate() {
            if state.retired.load(Ordering::Acquire) {
                continue;
            }
            if self.is_node_up(node) {
                live.push((node, state));
                continue;
            }
            // A dead replica misses the delete marks now; recovery
            // rebuilds it from a live buddy (k >= 1) or a live peer
            // (unsegmented), re-acquiring them; a down rebalance target
            // re-copies on resume. Only a segmented k=0 current-map
            // member has no surviving copy to read or recover from —
            // found out before any store is read or marked.
            if def.is_segmented() && self.config.k_safety == 0 && map.is_member(node) {
                return Err(DbError::NodeUnavailable(node));
            }
        }

        let pushed = predicate.filter(|p| analyzable(p));
        let residual = predicate.filter(|_| pushed.is_none());
        let scan = BatchScan {
            as_of,
            my_txn,
            predicate: pushed,
            ..BatchScan::default()
        };
        let mut out = LiveMatches::default();
        for (node, state) in live {
            let stores = state.stores.read();
            let Some(store) = stores.get(&def.name) else {
                continue;
            };
            let mut locs = Vec::new();
            if residual.is_none() && !want_rows {
                store.for_each_visible_loc(&scan, |loc, hash| {
                    locs.push(loc);
                    out.primaries += self.is_live_primary(def, &map, node, hash) as u64;
                })
            } else {
                let mut failed = None;
                let counters = store.for_each_visible(&scan, |loc, row, hash| {
                    if failed.is_some() {
                        return;
                    }
                    let primary = self.is_live_primary(def, &map, node, hash);
                    match residual.map_or(Ok(true), |p| p.matches(row)) {
                        Ok(true) => {
                            locs.push(loc);
                            if primary {
                                out.primaries += 1;
                                if want_rows {
                                    out.rows.push(row.clone());
                                }
                            }
                        }
                        Ok(false) => {}
                        // Every copy of a row evaluates alike, so its
                        // primary speaks for the others.
                        Err(e) if primary && on_error == OnPredicateError::Fail => failed = Some(e),
                        Err(_) => {}
                    }
                });
                failed.map_or(counters, Err)
            }
            .map_err(DbError::Data)?;
            if !locs.is_empty() {
                out.copies.push((node, locs));
            }
        }
        Ok(out)
    }

    /// Stage the delete of every copy a [`Cluster::match_live`] found.
    /// The caller holds the table's exclusive lock since before the
    /// match, so the locations are still good. Returns the number of
    /// logical rows deleted.
    pub(crate) fn stage_deletes(
        &self,
        txn: &mut TxnHandle,
        task: Option<u64>,
        def: &TableDef,
        matches: &LiveMatches,
    ) -> u64 {
        txn.touched.insert(def.name.clone());
        for (node, locs) in &matches.copies {
            let Some(state) = self.node_state(*node) else {
                continue;
            };
            if let Some(store) = state.stores.write().get_mut(&def.name) {
                store.delete_pending(locs, txn.id);
            }
            self.recorder.work(
                task,
                NodeRef::Db(*node),
                "delete_mark",
                locs.len() as u64,
                0,
            );
        }
        matches.primaries
    }

    /// Delete rows matching `predicate` (already bound to the table
    /// schema); a row the predicate cannot be evaluated on is kept.
    /// Returns the count of (logical) rows deleted.
    pub(crate) fn delete_where(
        &self,
        txn: &mut TxnHandle,
        task: Option<u64>,
        table: &str,
        predicate: Option<&Expr>,
    ) -> DbResult<u64> {
        let def = self.table_def(table)?;
        self.lock_table(txn, &def.name, LockMode::Exclusive)?;
        let found = self.match_live(
            &def,
            self.current_epoch(),
            Some(txn.id),
            predicate,
            OnPredicateError::Skip,
            false,
        )?;
        Ok(self.stage_deletes(txn, task, &def, &found))
    }

    // ----- maintenance & introspection -------------------------------

    /// Run the tuple mover's moveout on every node-table store. Returns
    /// the number of rows moved.
    pub fn moveout_all(&self) -> usize {
        let mut moved = 0;
        for (idx, node) in self.node_states().into_iter().enumerate() {
            let mut stores = node.stores.write();
            let mut tables: Vec<String> = stores.keys().cloned().collect();
            tables.sort();
            for table in tables {
                if let Some(store) = stores.get_mut(&table) {
                    moved += self.moveout_store_recorded(idx, &table, store);
                }
            }
        }
        moved
    }

    /// Storage statistics per node for a table.
    pub fn table_stats(&self, table: &str) -> DbResult<Vec<StorageStats>> {
        let def = self.table_def(table)?;
        Ok(self
            .node_states()
            .iter()
            .map(|n| {
                n.stores
                    .read()
                    .get(&def.name)
                    .map(|s| s.stats())
                    .unwrap_or_default()
            })
            .collect())
    }

    // ----- UDx ------------------------------------------------------

    pub fn register_udf(&self, udf: Arc<dyn ScalarUdf>) {
        self.udfs
            .write()
            .insert(udf.name().to_ascii_lowercase(), udf);
    }

    pub fn udf(&self, name: &str) -> Option<Arc<dyn ScalarUdf>> {
        self.udfs.read().get(&name.to_ascii_lowercase()).cloned()
    }

    // ----- resource pools --------------------------------------------

    /// Create (or replace) a resource pool.
    pub fn create_resource_pool(&self, pool: ResourcePool) {
        self.pools
            .write()
            .insert(pool.name().to_string(), Arc::new(pool));
    }

    pub fn resource_pool(&self, name: &str) -> Option<Arc<ResourcePool>> {
        self.pools.read().get(name).cloned()
    }

    /// All resource pools, sorted by name (for the system catalog).
    pub fn resource_pools(&self) -> Vec<Arc<ResourcePool>> {
        let mut pools: Vec<Arc<ResourcePool>> = self.pools.read().values().cloned().collect();
        pools.sort_by(|a, b| a.name().cmp(b.name()));
        pools
    }
}

#[cfg(test)]
mod mutation_differential;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::Segmentation;
    use common::{row, DataType, Schema};

    fn schema() -> Schema {
        Schema::from_pairs(&[("id", DataType::Int64), ("x", DataType::Float64)])
    }

    fn cluster4() -> Arc<Cluster> {
        Cluster::new(ClusterConfig::default())
    }

    fn make_table(cluster: &Cluster, name: &str) {
        cluster
            .create_table(
                TableDef::new(name, schema(), Segmentation::ByHash(vec!["id".into()])).unwrap(),
            )
            .unwrap();
    }

    #[test]
    fn create_and_drop_table_everywhere() {
        let c = cluster4();
        make_table(&c, "t");
        assert!(c.has_table("T"));
        assert_eq!(c.table_stats("t").unwrap().len(), 4);
        c.drop_table("t").unwrap();
        assert!(!c.has_table("t"));
        assert!(c.table_stats("t").is_err());
    }

    #[test]
    fn insert_commit_advances_epoch_and_distributes() {
        let c = cluster4();
        make_table(&c, "t");
        assert_eq!(c.current_epoch(), 0);
        let mut txn = c.begin_txn();
        let rows: Vec<Row> = (0..1000).map(|i| row![i as i64, i as f64]).collect();
        c.insert_rows(&mut txn, 0, None, "t", rows).unwrap();
        let epoch = c.commit_txn(txn);
        assert_eq!(epoch, 1);
        assert_eq!(c.current_epoch(), 1);
        // Rows spread over all nodes, roughly evenly.
        let stats = c.table_stats("t").unwrap();
        let total: usize = stats.iter().map(|s| s.wos_rows + s.ros_rows).sum();
        assert_eq!(total, 1000);
        for (i, s) in stats.iter().enumerate() {
            let n = s.wos_rows + s.ros_rows;
            assert!(n > 100, "node {i} got only {n} rows");
        }
    }

    #[test]
    fn k_safety_replicates_rows() {
        let c = Cluster::new(ClusterConfig {
            k_safety: 1,
            ..ClusterConfig::default()
        });
        make_table(&c, "t");
        let mut txn = c.begin_txn();
        let rows: Vec<Row> = (0..100).map(|i| row![i as i64, 0.0f64]).collect();
        c.insert_rows(&mut txn, 0, None, "t", rows).unwrap();
        c.commit_txn(txn);
        let total: usize = c
            .table_stats("t")
            .unwrap()
            .iter()
            .map(|s| s.wos_rows + s.ros_rows)
            .sum();
        assert_eq!(total, 200, "each row stored twice under k=1");
    }

    #[test]
    fn abort_leaves_no_trace() {
        let c = cluster4();
        make_table(&c, "t");
        let mut txn = c.begin_txn();
        c.insert_rows(&mut txn, 0, None, "t", vec![row![1i64, 1.0f64]])
            .unwrap();
        c.abort_txn(txn);
        assert_eq!(c.current_epoch(), 0);
        let total: usize = c.table_stats("t").unwrap().iter().map(|s| s.wos_rows).sum();
        assert_eq!(total, 0);
    }

    #[test]
    fn insert_shuffle_recorded() {
        let c = cluster4();
        make_table(&c, "t");
        c.recorder().clear();
        let mut txn = c.begin_txn();
        let rows: Vec<Row> = (0..100).map(|i| row![i as i64, 0.0f64]).collect();
        c.insert_rows(&mut txn, 0, None, "t", rows).unwrap();
        c.commit_txn(txn);
        // ~3/4 of rows belong to other nodes and shuffle internally.
        let bytes = c.recorder().total_bytes(NetClass::DbInternal);
        assert!(bytes > 0, "expected internal shuffle from initiator");
    }

    #[test]
    fn session_limit_enforced() {
        let c = Cluster::new(ClusterConfig {
            max_client_sessions: 2,
            ..ClusterConfig::default()
        });
        let s1 = c.connect(0).unwrap();
        let _s2 = c.connect(0).unwrap();
        assert!(matches!(c.connect(0), Err(DbError::TooManySessions { .. })));
        drop(s1);
        let _s3 = c.connect(0).unwrap();
    }

    #[test]
    fn down_node_refuses_connections() {
        let c = cluster4();
        c.set_node_down(2);
        assert!(matches!(c.connect(2), Err(DbError::NodeUnavailable(2))));
        assert_eq!(c.up_nodes(), vec![0, 1, 3]);
        c.set_node_up(2);
        assert!(c.connect(2).is_ok());
    }

    #[test]
    fn delete_where_counts_primaries_once_under_replication() {
        let c = Cluster::new(ClusterConfig {
            k_safety: 1,
            ..ClusterConfig::default()
        });
        make_table(&c, "t");
        let mut txn = c.begin_txn();
        let rows: Vec<Row> = (0..50).map(|i| row![i as i64, i as f64]).collect();
        c.insert_rows(&mut txn, 0, None, "t", rows).unwrap();
        c.commit_txn(txn);

        let pred = common::Expr::col("id")
            .lt(common::Expr::lit(10i64))
            .bind(&schema())
            .unwrap();
        let mut txn = c.begin_txn();
        let deleted = c.delete_where(&mut txn, None, "t", Some(&pred)).unwrap();
        c.commit_txn(txn);
        assert_eq!(deleted, 10);
    }

    #[test]
    fn moveout_all_compacts() {
        let c = cluster4();
        make_table(&c, "t");
        let mut txn = c.begin_txn();
        let rows: Vec<Row> = (0..500).map(|i| row![i as i64, 0.0f64]).collect();
        c.insert_rows(&mut txn, 0, None, "t", rows).unwrap();
        c.commit_txn(txn);
        let moved = c.moveout_all();
        assert_eq!(moved, 500);
        let stats = c.table_stats("t").unwrap();
        assert!(stats.iter().all(|s| s.wos_rows == 0));
        assert_eq!(stats.iter().map(|s| s.ros_rows).sum::<usize>(), 500);
    }
}
