//! The per-node, per-table MVCC store: WOS + ROS with pending-until-
//! commit visibility and delete vectors.
//! Both are lists of containers: a ROS container is *sealed* (encoded,
//! with statistics), a WOS one *open* (plain columns, no statistics,
//! staged whole by one transaction).

use std::sync::Arc;

use common::agg::{AggFunc, GroupedAccs};
use common::{DataType, Expr, Result, Row, Value};

use crate::segmentation::HashRange;
use crate::storage::batch::ColumnBatch;
use crate::storage::encoding::{encode_with_stats, ColumnData, EncodedColumn};
use crate::storage::predicate::PredPlan;
use crate::storage::stats::{
    container_cannot_match, estimate_selectivity, ColumnStats, ContainerStats,
};

mod fold;
#[cfg(test)]
mod model_tests;
mod visibility;

pub use visibility::CommitState;
#[cfg(test)]
use visibility::DeleteState;
use visibility::{row_visible, Visibility};

/// Location of a row within a node-table store: its container, open or
/// sealed, and its index there. Stable while the store's lock is held
/// (the tuple mover may relocate rows between statements).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RowLoc {
    Ros { container: u64, idx: usize },
}

/// A row surfaced by a scan.
#[derive(Debug, Clone)]
pub struct VisibleRow {
    pub loc: RowLoc,
    pub row: Row,
    /// Segmentation hash computed at insert time.
    pub hash: u64,
}

/// The row data of a container. Never mutated once built, so a
/// hand-over or an export ([`NodeTableStore::adopt`]) shares it between
/// stores by reference count; every operation that changes a
/// container's rows (moveout, mergeout, `remove_hash_range`) builds a
/// new payload and leaves the shared one as it was.
#[derive(Debug, Clone)]
struct RosPayload {
    columns: Vec<EncodedColumn>,
    hashes: Vec<u64>,
}

/// A payload and its statistics: `None` for an open container.
type Built = (Arc<RosPayload>, Option<ContainerStats>);

impl RosPayload {
    /// The one ROS creation path: statistics from the unencoded typed
    /// columns, then encoding, which the statistics decide for a small
    /// all-distinct column.
    fn build(columns: Vec<ColumnData>, hashes: Vec<u64>) -> Built {
        let stats = ContainerStats::compute(&columns, &hashes);
        let columns = columns.into_iter().zip(&stats.columns);
        let columns = columns.map(|(c, s)| encode_with_stats(c, s)).collect();
        (Arc::new(RosPayload { columns, hashes }), Some(stats))
    }

    /// An open container's payload: the columns as they are.
    fn open(columns: Vec<ColumnData>, hashes: Vec<u64>) -> Built {
        let columns = columns.into_iter().map(EncodedColumn::Plain).collect();
        (Arc::new(RosPayload { columns, hashes }), None)
    }
}

/// A container: a (possibly shared) payload, its statistics, and this
/// table's own view of which rows exist.
#[derive(Debug)]
struct RosContainer {
    id: u64,
    payload: Arc<RosPayload>,
    /// Zone maps, null counts, and NDV sketches computed with the
    /// payload and as immutable: a superset description of the rows any
    /// snapshot of any table holding the payload can see. Kept beside
    /// the visibility, not behind the payload's pointer: a scan that
    /// skips the container by its zone maps touches nothing else.
    /// `None` while the container is open.
    stats: Option<ContainerStats>,
    visibility: Visibility,
}

impl RosContainer {
    fn row(&self, idx: usize) -> Row {
        Row::new(self.payload.columns.iter().map(|c| c.get(idx)).collect())
    }

    fn len(&self) -> usize {
        self.visibility.len()
    }

    /// The rows at `keep` (ascending) as a payload of the same form.
    fn gathered(&self, keep: &[u32]) -> Built {
        let hashes = keep
            .iter()
            .map(|&i| self.payload.hashes[i as usize])
            .collect();
        let columns = self.payload.columns.iter();
        let columns = columns.map(|col| col.gather_sorted(keep)).collect();
        match self.stats {
            Some(_) => RosPayload::build(columns, hashes),
            None => RosPayload::open(columns, hashes),
        }
    }

    /// Positions of the rows whose hash `keep` accepts, ascending.
    fn positions(&self, keep: impl Fn(u64) -> bool) -> Vec<u32> {
        (0..self.len() as u32)
            .filter(|&i| keep(self.payload.hashes[i as usize]))
            .collect()
    }

    /// [`RosContainer::gathered`], except that keeping no row is `None`
    /// and keeping every row shares the payload and its statistics.
    fn slice(&self, keep: &[u32]) -> Option<Built> {
        match keep.len() {
            0 => None,
            n if n == self.len() => Some((Arc::clone(&self.payload), self.stats.clone())),
            _ => Some(self.gathered(keep)),
        }
    }
}

/// Containers on their way from one store to another: payloads, each
/// with its statistics and the visibility the receiving store starts
/// from. A sealed payload lands in the ROS, an open one in the WOS.
#[derive(Debug, Clone)]
pub(crate) struct HandOver {
    containers: Vec<(Built, Visibility)>,
}

impl HandOver {
    /// Segmentation hashes of the rows `txn` sees in what is carried.
    pub(crate) fn hashes(&self, txn: u64) -> impl Iterator<Item = u64> + '_ {
        self.containers
            .iter()
            .flat_map(move |((payload, _), visibility)| {
                visibility
                    .visible_ranges(u64::MAX, Some(txn))
                    .flatten()
                    .map(|idx| payload.hashes[idx])
            })
    }

    /// Rows carried, whatever their visibility.
    pub(crate) fn len(&self) -> usize {
        self.containers.iter().map(|(_, v)| v.len()).sum()
    }
}

/// Parameters of a vectorized scan ([`NodeTableStore::scan_batch`]).
///
/// Everything the engine pushes down to the serving node in one place:
/// snapshot, segmentation restriction, row window, predicate, and
/// projection. Bundled as a struct so the scan entry point stays a
/// two-argument call as pushdowns grow.
#[derive(Clone, Copy, Default)]
pub struct BatchScan<'a> {
    /// Epoch to read as of.
    pub as_of: u64,
    /// Open transaction id, for read-your-writes visibility.
    pub my_txn: Option<u64>,
    /// Restrict to rows whose segmentation hash falls in the range.
    pub hash_range: Option<&'a HashRange>,
    /// Window `[start, end)` over the rows surviving visibility and the
    /// hash range, in stable scan order (the connector's synthetic
    /// ranges for unsegmented tables).
    pub row_range: Option<(u64, u64)>,
    /// Filter with column references bound to table ordinals
    /// ([`Expr::ColumnIdx`]); evaluated before projection decode.
    pub predicate: Option<&'a Expr>,
    /// Table-schema ordinals to materialize, in output order; `None`
    /// means all columns.
    pub projection: Option<&'a [usize]>,
    /// Data types of the output (projected) columns, in output order.
    pub dtypes: &'a [DataType],
    /// Disable zone-map container/run skipping and stats-driven
    /// conjunct reordering (the ablation baseline and the differential
    /// tests' strict-accounting mode).
    pub no_skip: bool,
}

/// Per-stage row counts of one store traversal — what the query layer
/// feeds into cost accounting, identical whichever sink consumed the
/// survivors.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ScanCounters {
    /// Visible rows examined (before the hash range) — every one of
    /// these pays a visibility check and a hash probe.
    pub examined: u64,
    /// Rows surviving the hash range and row window (before the
    /// predicate) — the filter's evaluation count.
    pub scanned: u64,
    /// Values actually decoded from encoded columns, counting one per
    /// RLE run / dictionary code the predicate touched rather than one
    /// per row. The late-materialization win is `examined *
    /// column_count - decoded`.
    pub decoded: u64,
    /// Whole ROS containers skipped because their zone maps prove the
    /// predicate cannot match (and cannot error).
    pub containers_skipped: u64,
    /// Rows eliminated by metadata alone: all rows of skipped
    /// containers, plus rows of RLE runs rejected run-at-a-time.
    pub rows_skipped: u64,
}

/// What [`NodeTableStore::scan_batch`] returns: the materialized batch
/// plus the traversal's counters.
#[derive(Debug)]
pub struct ScanOutput {
    pub batch: ColumnBatch,
    pub counters: ScanCounters,
}

/// What [`NodeTableStore::scan_aggregate`] returns: per-group partial
/// accumulators plus the traversal's counters.
#[derive(Debug)]
pub struct AggScanOutput {
    pub accs: GroupedAccs,
    pub counters: ScanCounters,
}

/// One ROS container's statistics row set, as surfaced by the
/// `dc_column_stats` system table.
#[derive(Debug, Clone)]
pub struct ContainerInfo {
    pub id: u64,
    pub row_count: u64,
    /// Encoding name per column, parallel to `columns`.
    pub encodings: Vec<&'static str>,
    pub columns: Vec<ColumnStats>,
}

/// Where one traversal's survivors go ([`NodeTableStore::scan_with`]).
/// Statically dispatched, so each sink's hot loop is monomorphized into
/// the traversal.
trait ScanSink {
    /// Answer a whole sealed container from its statistics alone, before
    /// any row of it is touched; `true` means it was consumed. Only
    /// offered when skipping is sound (no row window, skipping enabled).
    fn try_stats(
        &mut self,
        _c: &RosContainer,
        _stats: &ContainerStats,
        _scan: &BatchScan<'_>,
    ) -> Result<bool> {
        Ok(false)
    }

    /// Consume the non-empty final selection vector of one container,
    /// adding what it decodes to `decoded`.
    fn consume(&mut self, c: &RosContainer, sel: &[u32], decoded: &mut u64) -> Result<()>;
}

/// Gather the projected columns of the survivors into a [`ColumnBatch`].
struct BatchSink<'a> {
    batch: ColumnBatch,
    /// Table ordinals to materialize, in output order.
    projection: &'a [usize],
}

impl ScanSink for BatchSink<'_> {
    fn consume(&mut self, c: &RosContainer, sel: &[u32], decoded: &mut u64) -> Result<()> {
        for (out_c, &table_c) in self.projection.iter().enumerate() {
            c.payload.columns[table_c].gather_into(sel, self.batch.column_mut(out_c))?;
            *decoded += sel.len() as u64;
        }
        let hashes = &c.payload.hashes;
        self.batch
            .extend_hashes(sel.iter().map(|&p| hashes[p as usize]));
        Ok(())
    }
}

/// Fold the survivors into per-group partial accumulators.
struct AggSink<'a> {
    accs: GroupedAccs,
    funcs: &'a [(AggFunc, Option<usize>)],
    group_by: &'a [usize],
    /// Sorted, deduplicated ordinals the fold reads.
    needed: Vec<usize>,
    stats_eligible: bool,
    /// Containers answered from zone maps alone, with no decode.
    stats_answered: u64,
}

impl ScanSink for AggSink<'_> {
    /// Every row must be visible in this snapshot (no pending/aborted
    /// commits, no deletes), the hash range must cover the container's
    /// whole hash span, and every MIN/MAX column must have a usable
    /// zone map (or be all-null, contributing nothing).
    fn try_stats(
        &mut self,
        c: &RosContainer,
        stats: &ContainerStats,
        scan: &BatchScan<'_>,
    ) -> Result<bool> {
        let answerable = self.stats_eligible
            && scan
                .hash_range
                .is_none_or(|r| r.contains(stats.hash_min) && r.contains(stats.hash_max))
            && c.visibility.fully_visible(scan.as_of)
            && self.funcs.iter().all(|(f, col)| match (f, col) {
                (AggFunc::Min | AggFunc::Max, Some(i)) => {
                    let cs = &stats.columns[*i];
                    cs.min.is_some() || cs.null_count == stats.row_count
                }
                _ => true,
            });
        if !answerable {
            return Ok(false);
        }
        let n = stats.row_count;
        let group = self.accs.entry(&[]);
        for ((f, col), acc) in self.funcs.iter().zip(group.iter_mut()) {
            match (f, col) {
                (AggFunc::Count, None) => acc.update_repeated(&Value::Int64(1), n)?,
                (AggFunc::Count, Some(i)) => {
                    acc.update_repeated(&Value::Int64(1), n - stats.columns[*i].null_count)?
                }
                (AggFunc::Min, Some(i)) => {
                    if let Some(m) = &stats.columns[*i].min {
                        acc.update(m)?;
                    }
                }
                (AggFunc::Max, Some(i)) => {
                    if let Some(m) = &stats.columns[*i].max {
                        acc.update(m)?;
                    }
                }
                // `stats_eligible` admits no other shape.
                _ => {}
            }
        }
        self.stats_answered += 1;
        Ok(true)
    }

    fn consume(&mut self, c: &RosContainer, sel: &[u32], decoded: &mut u64) -> Result<()> {
        fold::fold_container(
            &mut self.accs,
            self.funcs,
            self.group_by,
            &self.needed,
            &c.payload.columns,
            sel,
            decoded,
        )
    }
}

/// Call a visitor with every survivor, fully decoded.
struct VisitSink<F>(F);

impl<F: FnMut(RowLoc, &Row, u64)> ScanSink for VisitSink<F> {
    fn consume(&mut self, c: &RosContainer, sel: &[u32], decoded: &mut u64) -> Result<()> {
        let located: Vec<_> = c
            .payload
            .columns
            .iter()
            .map(|col| col.locate(sel))
            .collect();
        *decoded += (located.len() * sel.len()) as u64;
        for (k, &idx) in sel.iter().enumerate() {
            let row = Row::new(
                located
                    .iter()
                    .map(|(values, at)| values.value(at[k] as usize))
                    .collect(),
            );
            let loc = RowLoc::Ros {
                container: c.id,
                idx: idx as usize,
            };
            (self.0)(loc, &row, c.payload.hashes[idx as usize]);
        }
        Ok(())
    }
}

/// Call a visitor with every survivor's location and hash; decodes
/// nothing.
struct LocSink<F>(F);

impl<F: FnMut(RowLoc, u64)> ScanSink for LocSink<F> {
    fn consume(&mut self, c: &RosContainer, sel: &[u32], _decoded: &mut u64) -> Result<()> {
        for &idx in sel {
            let loc = RowLoc::Ros {
                container: c.id,
                idx: idx as usize,
            };
            (self.0)(loc, c.payload.hashes[idx as usize]);
        }
        Ok(())
    }
}

/// Call a visitor with every survivor's hash and `Row::wire_size`, sized
/// from validity bits and string lengths: no value is copied or counted
/// as decoded.
struct WireSink<F>(F);

impl<F: FnMut(u64, u64)> ScanSink for WireSink<F> {
    fn consume(&mut self, c: &RosContainer, sel: &[u32], _decoded: &mut u64) -> Result<()> {
        let mut wire = vec![0u64; sel.len()];
        for column in &c.payload.columns {
            column.add_wire_sizes(sel, &mut wire);
        }
        for (&idx, w) in sel.iter().zip(wire) {
            (self.0)(c.payload.hashes[idx as usize], w);
        }
        Ok(())
    }
}

/// Aggregate storage statistics for one node-table store.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct StorageStats {
    pub wos_rows: usize,
    pub ros_rows: usize,
    pub ros_containers: usize,
    /// Decoded (wire) size of ROS data in bytes.
    pub ros_raw_bytes: usize,
    /// Encoded size of ROS data in bytes.
    pub ros_encoded_bytes: usize,
}

/// Outcome of one mergeout pass over a store.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MergeOutcome {
    /// Merge operations performed (one per stratum run collapsed).
    pub merges: usize,
    /// Containers consumed as merge inputs.
    pub containers_in: usize,
    /// Rows rewritten into merged containers.
    pub rows: usize,
}

/// The storage for one table on one node. All methods expect the caller
/// (the cluster) to hold the appropriate synchronization; the struct
/// itself is single-threaded data.
#[derive(Debug, Default)]
pub struct NodeTableStore {
    /// Open containers, in staging order.
    wos: Vec<RosContainer>,
    /// Sealed containers. Ids ascend with position in each list.
    ros: Vec<RosContainer>,
    next_container_id: u64,
    column_count: usize,
}

impl NodeTableStore {
    pub fn new(column_count: usize) -> NodeTableStore {
        NodeTableStore {
            column_count,
            ..NodeTableStore::default()
        }
    }

    /// Stage rows in the WOS under an open transaction, transposed.
    pub fn insert_pending(&mut self, rows: Vec<(Row, u64)>, txn: u64) {
        let (columns, hashes) = self.transpose(rows);
        self.insert_pending_wos(columns, hashes, txn);
    }

    /// Stage columns (one per table column) and every row's hash in the
    /// WOS under an open transaction, as one open container.
    pub fn insert_pending_wos(&mut self, columns: Vec<ColumnData>, hashes: Vec<u64>, txn: u64) {
        self.stage(RosPayload::open, columns, hashes, txn);
    }

    /// Stage columns directly as an encoded ROS container (the COPY
    /// DIRECT path, bypassing the WOS for bulk loads).
    pub fn insert_pending_direct(&mut self, columns: Vec<ColumnData>, hashes: Vec<u64>, txn: u64) {
        self.stage(RosPayload::build, columns, hashes, txn);
    }

    fn stage(
        &mut self,
        build: fn(Vec<ColumnData>, Vec<u64>) -> Built,
        columns: Vec<ColumnData>,
        hashes: Vec<u64>,
        txn: u64,
    ) {
        if hashes.is_empty() {
            return;
        }
        let n = hashes.len();
        debug_assert_eq!(columns.len(), self.column_count);
        debug_assert!(columns.iter().all(|c| c.len() == n));
        self.push_container(build(columns, hashes), Visibility::staged(n, txn));
    }

    fn transpose(&self, rows: Vec<(Row, u64)>) -> (Vec<ColumnData>, Vec<u64>) {
        let rows = rows
            .into_iter()
            .map(|(row, hash)| (row.into_values(), hash));
        ColumnData::transpose(self.column_count, rows)
    }

    /// The row entry the column one replaced. The reference of the load
    /// differential, and how tests that think in rows stage a container.
    #[cfg(test)]
    pub(crate) fn insert_pending_direct_rows(&mut self, rows: Vec<(Row, u64)>, txn: u64) {
        let (columns, hashes) = self.transpose(rows);
        self.insert_pending_direct(columns, hashes, txn);
    }

    /// Stage a container with each column encoded as `encode` says, not
    /// as [`RosPayload::build`] would choose: how the predicate
    /// differential reaches every encoding of every column shape.
    #[cfg(test)]
    pub(crate) fn insert_pending_encoded(
        &mut self,
        columns: Vec<ColumnData>,
        hashes: Vec<u64>,
        txn: u64,
        encode: impl FnMut(&ColumnData) -> EncodedColumn,
    ) {
        let stats = ContainerStats::compute(&columns, &hashes);
        let visibility = Visibility::staged(hashes.len(), txn);
        let columns = columns.iter().map(encode).collect();
        self.push_container(
            (Arc::new(RosPayload { columns, hashes }), Some(stats)),
            visibility,
        );
    }

    fn next_id(&mut self) -> u64 {
        self.next_container_id += 1;
        self.next_container_id - 1
    }

    /// Append a container under the next id, to the ROS or the WOS.
    fn push_container(&mut self, (payload, stats): Built, visibility: Visibility) {
        let c = RosContainer {
            id: self.next_id(),
            payload,
            stats,
            visibility,
        };
        match c.stats {
            Some(_) => self.ros.push(c),
            None => self.wos.push(c),
        }
    }

    /// Everything in this store that `txn` sees at `as_of` (its own
    /// pending work included), for another table's store to adopt under
    /// the same transaction: each ROS container with a visible row
    /// contributes its payload by reference (and a copy of its
    /// statistics), rows the snapshot cannot see marked never-visible.
    /// An open container is shared whole when the snapshot sees all of
    /// it and copied down to the rows it sees otherwise, so the adopter's
    /// moveout never seals a row it did not hold. No column is decoded.
    pub(crate) fn hand_over(&self, as_of: u64, txn: u64) -> HandOver {
        let mut containers = Vec::new();
        for c in &self.ros {
            if let Some(visibility) = c.visibility.handed_to(as_of, txn) {
                containers.push(((Arc::clone(&c.payload), c.stats.clone()), visibility));
            }
        }
        for c in &self.wos {
            let seen: Vec<u32> = c
                .visibility
                .visible_ranges(as_of, Some(txn))
                .flatten()
                .map(|i| i as u32)
                .collect();
            if let Some(built) = c.slice(&seen) {
                containers.push((built, Visibility::staged(seen.len(), txn)));
            }
        }
        HandOver { containers }
    }

    /// Every container's rows whose hash `range` holds (all, for
    /// `None`), states verbatim: what a rebalance copies to a new owner
    /// and a recovering node pulls from a live peer. A container wholly
    /// in range travels by reference; a slice keeps its container's form,
    /// a sealed one with statistics rebuilt. Pending rows travel too
    /// (commit and abort stamp every node), still whole per transaction.
    pub(crate) fn export_range(&self, range: Option<&HashRange>) -> HandOver {
        let mut containers = Vec::new();
        for c in self.ros.iter().chain(&self.wos) {
            let keep = c.positions(|h| range.is_none_or(|r| r.contains(h)));
            if let Some(built) = c.slice(&keep) {
                containers.push((built, c.visibility.gather(&keep)));
            }
        }
        HandOver { containers }
    }

    /// Land carried containers as they come: one new container per
    /// payload, sharing it, with the visibility it carries (after a
    /// hand-over, pending under the adopting transaction, so abort
    /// drops only this store's reference).
    pub(crate) fn adopt(&mut self, contents: HandOver) {
        for (built, visibility) in contents.containers {
            debug_assert_eq!(built.0.columns.len(), self.column_count);
            self.push_container(built, visibility);
        }
    }

    /// Stage deletes for the given row locations.
    pub fn delete_pending(&mut self, locs: &[RowLoc], txn: u64) {
        // Container ids ascend with position in each list (mergeout and
        // `remove_hash_range` keep the first input's id and place), and
        // a scan reports a container's rows together: look each one up
        // once per run of equal ids.
        let mut current: Option<(u64, bool, usize)> = None;
        for &RowLoc::Ros { container, idx } in locs {
            let (open, at) = match current {
                Some((id, open, at)) if id == container => (open, at),
                _ => self.position(container),
            };
            current = Some((container, open, at));
            let list = if open { &mut self.wos } else { &mut self.ros };
            list[at].visibility.stage_delete(idx, txn);
        }
    }

    /// Whether container `id` is open, and its place in its list.
    fn position(&self, id: u64) -> (bool, usize) {
        let find = |list: &[RosContainer]| list.binary_search_by_key(&id, |c| c.id).ok();
        match (find(&self.ros), find(&self.wos)) {
            (Some(at), _) => (false, at),
            (None, Some(at)) => (true, at),
            // A RowLoc only ever comes from this store's own scan, so the
            // container must exist; a miss is storage corruption, not a
            // recoverable error.
            // fabriclint: allow(panic-hygiene): RowLoc invariant, corruption must not be retried
            (None, None) => panic!("delete references unknown container {id}"),
        }
    }

    /// Stamp all of `txn`'s pending work with the commit epoch.
    pub fn commit(&mut self, txn: u64, epoch: u64) {
        self.commit_ros(txn, epoch);
    }

    /// [`NodeTableStore::commit`]: only containers with something
    /// pending are read. Returns how many that was.
    fn commit_ros(&mut self, txn: u64, epoch: u64) -> usize {
        let mut touched = 0;
        for c in self.ros.iter_mut().chain(&mut self.wos) {
            if c.visibility.has_pending() {
                c.visibility.commit(txn, epoch);
                touched += 1;
            }
        }
        touched
    }

    /// Discard all of `txn`'s pending work.
    pub fn abort(&mut self, txn: u64) {
        self.abort_ros(txn);
    }

    /// [`NodeTableStore::abort`]: only containers with something pending
    /// are read. Returns how many that was.
    fn abort_ros(&mut self, txn: u64) -> usize {
        let mut touched = 0;
        for list in [&mut self.ros, &mut self.wos] {
            list.retain_mut(|c| {
                if !c.visibility.has_pending() {
                    return true;
                }
                touched += 1;
                // A container the txn staged goes whole (an adopted one
                // gives up only its reference to the payload); any other
                // loses only the deletes the txn staged in it.
                if c.visibility.staged_by(txn) {
                    return false;
                }
                c.visibility.abort(txn);
                true
            });
        }
        touched
    }

    /// Scan rows visible at `as_of` (plus `my_txn`'s own pending work),
    /// optionally restricted to a hash range. Rows are returned in
    /// stable storage order: ROS containers by id, then the WOS's.
    ///
    /// This is the row-at-a-time path: every visible row is fully
    /// materialized (all columns decoded) before any filter above it
    /// runs. The engine never calls it — every engine scan goes through
    /// the one late-materializing traversal (`scan_with`). It stays,
    /// deliberately sharing no code with that traversal, as the
    /// reference the `scan_differential` and `prop_storage` suites
    /// compare against.
    pub fn scan(
        &self,
        as_of: u64,
        my_txn: Option<u64>,
        hash_range: Option<&HashRange>,
    ) -> Vec<VisibleRow> {
        let mut out = Vec::new();
        for c in self.ros.iter().chain(&self.wos) {
            for idx in 0..c.len() {
                let (commit, delete) = c.visibility.get(idx);
                if !row_visible(commit, delete, as_of, my_txn) {
                    continue;
                }
                let h = c.payload.hashes[idx];
                if let Some(r) = hash_range {
                    if !r.contains(h) {
                        continue;
                    }
                }
                out.push(VisibleRow {
                    loc: RowLoc::Ros {
                        container: c.id,
                        idx,
                    },
                    row: c.row(idx),
                    hash: h,
                });
            }
        }
        out
    }

    /// The one store traversal behind every scan entry point except the
    /// reference [`NodeTableStore::scan`]: late materialization, with the
    /// survivors handed to a statically-dispatched [`ScanSink`]. Per
    /// container, the ROS's in id order and then the WOS's:
    ///
    /// 0. skip a sealed one when its zone maps prove the predicate
    ///    matches no row and cannot error (or let the sink answer it
    ///    from statistics); an open one has none, so is never skipped;
    /// 1. build a selection vector of visible positions, probing the
    ///    hash vector against the range (unless the container's hash
    ///    span lies inside it) without decoding any column;
    /// 2. apply the row window over the surviving positions;
    /// 3. evaluate the predicate column-at-a-time ([`PredPlan`]), reading
    ///    only the referenced columns (once per RLE run / dictionary
    ///    code where the encoding allows);
    /// 4. hand the final selection vector to the sink, which decodes
    ///    only what it needs.
    ///
    /// Survivor order matches [`NodeTableStore::scan`] exactly. Predicate
    /// errors surface at the same row as row-at-a-time evaluation
    /// (memoization is lazy, in row order).
    fn scan_with<S: ScanSink>(&self, scan: &BatchScan<'_>, sink: &mut S) -> Result<ScanCounters> {
        let mut n = ScanCounters::default();
        let mut plan = scan
            .predicate
            .map(|p| PredPlan::new(p, !scan.no_skip, self.column_count));
        // Skipping a container by metadata is sound only when the scan
        // has no row window: it would desynchronize `window_pos`, which
        // counts range survivors across all containers.
        let may_skip = !scan.no_skip && scan.row_range.is_none();
        // Position in the stable scan order of range survivors, for the
        // row window; spans containers.
        let mut window_pos = 0u64;
        let mut in_piece = |hash: u64| -> bool {
            if scan.hash_range.is_some_and(|r| !r.contains(hash)) {
                return false;
            }
            let pos = window_pos;
            window_pos += 1;
            scan.row_range
                .is_none_or(|(start, end)| pos >= start && pos < end)
        };

        for c in self.ros.iter().chain(&self.wos) {
            if let (true, Some(stats)) = (may_skip, &c.stats) {
                // Stage 0: zone maps. Stats cover a superset of the
                // visible rows, so "no row matches" holds for every
                // snapshot.
                if scan
                    .predicate
                    .is_some_and(|pred| container_cannot_match(pred, stats))
                {
                    n.containers_skipped += 1;
                    n.rows_skipped += c.len() as u64;
                    continue;
                }
                if sink.try_stats(c, stats, scan)? {
                    n.examined += stats.row_count;
                    continue;
                }
            }
            // Stage 1+2: selection vector only, no column touched.
            // Without a row window, a container whose hash span lies
            // inside the piece's range (any container, when there is no
            // range) has every visible row in the piece, and no hash is
            // read to find that out.
            let covered = scan.row_range.is_none()
                && scan.hash_range.is_none_or(|r| {
                    c.stats
                        .as_ref()
                        .is_some_and(|s| r.contains(s.hash_min) && r.contains(s.hash_max))
                });
            let mut sel: Vec<u32> = Vec::new();
            for range in c.visibility.visible_ranges(scan.as_of, scan.my_txn) {
                n.examined += range.len() as u64;
                if covered {
                    sel.extend(range.start as u32..range.end as u32);
                    continue;
                }
                for idx in range {
                    if in_piece(c.payload.hashes[idx]) {
                        sel.push(idx as u32);
                    }
                }
            }
            n.scanned += sel.len() as u64;
            if sel.is_empty() {
                continue;
            }
            // Stage 3: predicate over referenced columns only.
            let mut read = ScanCounters::default();
            if let Some(plan) = &mut plan {
                plan.narrow(&c.payload.columns, c.stats.as_ref(), &mut sel, &mut read)?;
            }
            if !sel.is_empty() {
                sink.consume(c, &sel, &mut read.decoded)?;
            }
            // An open container's plain columns are read in place, as
            // the WOS's rows were: no decode to charge.
            if c.stats.is_some() {
                n.decoded += read.decoded;
                n.rows_skipped += read.rows_skipped;
            }
        }

        obs::global().add("scan.containers_skipped", n.containers_skipped);
        obs::global().add("scan.rows_examined", n.examined);
        obs::global().add("scan.rows_skipped", n.rows_skipped);
        obs::global().add("scan.values_decoded", n.decoded);
        Ok(n)
    }

    /// Vectorized scan into a [`ColumnBatch`]: the traversal's survivors
    /// with only the projected columns decoded.
    pub fn scan_batch(&self, scan: &BatchScan<'_>) -> Result<ScanOutput> {
        let all_columns: Vec<usize> = (0..self.column_count).collect();
        let projection: &[usize] = scan.projection.unwrap_or(&all_columns);
        debug_assert_eq!(projection.len(), scan.dtypes.len());
        let mut sink = BatchSink {
            batch: ColumnBatch::new(scan.dtypes),
            projection,
        };
        let counters = self.scan_with(scan, &mut sink)?;
        Ok(ScanOutput {
            batch: sink.batch,
            counters,
        })
    }

    /// Aggregate visible rows without materializing them: the node-side
    /// half of partial-aggregate pushdown. `funcs` are the aggregate
    /// calls with their bound input ordinals (`None` = `COUNT(*)`),
    /// `group_by` the grouping ordinals. Returns per-group partial
    /// accumulators — the caller merges partials across stores/nodes
    /// and finalizes.
    ///
    /// Unfiltered, fully-visible, hash-covered containers are answered
    /// straight from their stats (COUNT from row/null counts, MIN/MAX
    /// from zone maps) with no decode at all.
    pub fn scan_aggregate(
        &self,
        scan: &BatchScan<'_>,
        funcs: &[(AggFunc, Option<usize>)],
        group_by: &[usize],
    ) -> Result<AggScanOutput> {
        // Ordinals the fold must decode: grouping columns plus
        // aggregate inputs, deduplicated.
        let mut needed: Vec<usize> = group_by
            .iter()
            .copied()
            .chain(funcs.iter().filter_map(|(_, c)| *c))
            .collect();
        needed.sort_unstable();
        needed.dedup();
        let mut sink = AggSink {
            accs: GroupedAccs::new(funcs.iter().map(|(f, _)| *f).collect()),
            funcs,
            group_by,
            needed,
            // A container is answerable from stats alone only for a
            // global (ungrouped) aggregate with no predicate whose
            // functions read nothing but counts and zone-map endpoints.
            stats_eligible: scan.predicate.is_none()
                && group_by.is_empty()
                && funcs.iter().all(|(f, c)| {
                    matches!(f, AggFunc::Count)
                        || (matches!(f, AggFunc::Min | AggFunc::Max) && c.is_some())
                }),
            stats_answered: 0,
        };
        let counters = self.scan_with(scan, &mut sink)?;
        obs::global().add("agg.pushdown.stats_answered", sink.stats_answered);
        Ok(AggScanOutput {
            accs: sink.accs,
            counters,
        })
    }

    /// Visit every surviving row in stable scan order without building
    /// a result set: rows are decoded container-at-a-time with the
    /// run-aware gather. The mutation paths (UPDATE / DELETE WHERE) use
    /// this to locate rows.
    pub fn for_each_visible(
        &self,
        scan: &BatchScan<'_>,
        f: impl FnMut(RowLoc, &Row, u64),
    ) -> Result<ScanCounters> {
        self.scan_with(scan, &mut VisitSink(f))
    }

    /// [`NodeTableStore::for_each_visible`] for visitors that need only
    /// where the survivors are: no column of a survivor is decoded, so
    /// a scan without a predicate costs O(visibility vectors).
    pub fn for_each_visible_loc(
        &self,
        scan: &BatchScan<'_>,
        f: impl FnMut(RowLoc, u64),
    ) -> Result<ScanCounters> {
        self.scan_with(scan, &mut LocSink(f))
    }

    /// Visit every survivor's segmentation hash and `Row::wire_size`
    /// ([`WireSink`]): all that pricing a copy of the rows takes.
    pub(crate) fn for_each_wire_size(
        &self,
        scan: &BatchScan<'_>,
        f: impl FnMut(u64, u64),
    ) -> Result<ScanCounters> {
        self.scan_with(scan, &mut WireSink(f))
    }

    /// Estimated rows a scan of this store leaves after filtering, from
    /// container stats alone: containers the zone maps disqualify
    /// contribute zero, the rest their row count scaled by the
    /// predicate's estimated selectivity. Open containers carry no stats
    /// and use the default selectivity.
    pub fn estimate_rows(&self, predicate: Option<&Expr>) -> f64 {
        let ros: f64 = self
            .ros
            .iter()
            .filter_map(|c| c.stats.as_ref())
            .map(|stats| match predicate {
                None => stats.row_count as f64,
                Some(p) if container_cannot_match(p, stats) => 0.0,
                Some(p) => stats.row_count as f64 * estimate_selectivity(p, stats),
            })
            .sum();
        let wos = self.wos_rows() as f64
            * predicate.map_or(1.0, |_| crate::storage::stats::DEFAULT_SELECTIVITY);
        ros + wos
    }

    /// Per-container statistics for the `dc_column_stats` system table.
    pub fn container_infos(&self) -> Vec<ContainerInfo> {
        self.ros
            .iter()
            .filter_map(|c| {
                let stats = c.stats.as_ref()?;
                Some(ContainerInfo {
                    id: c.id,
                    row_count: stats.row_count,
                    encodings: c
                        .payload
                        .columns
                        .iter()
                        .map(|col| col.encoding_name())
                        .collect(),
                    columns: stats.columns.clone(),
                })
            })
            .collect()
    }

    /// Seal the committed open containers into one ROS container (the
    /// tuple mover's "moveout" operation). Open containers still pending
    /// stay put. Returns the number of rows moved.
    pub fn moveout(&mut self) -> usize {
        let (sealing, open): (Vec<RosContainer>, Vec<RosContainer>) = std::mem::take(&mut self.wos)
            .into_iter()
            .partition(|c| c.visibility.committed());
        self.wos = open;
        if sealing.is_empty() {
            return 0;
        }
        let id = self.next_id();
        let sealed = self.concat(sealing, id);
        let n = sealed.len();
        self.ros.push(sealed);
        n
    }

    /// Size-ratio stratum of a container: row counts sharing a
    /// power-of-two bucket are "about the same size", and only
    /// same-stratum neighbours merge (repeated passes cascade merged
    /// containers into ever-higher strata, LSM-style).
    fn stratum(rows: usize) -> u32 {
        (rows.max(1) as u64).ilog2()
    }

    /// A container the mover may consume: every insert committed (so
    /// `abort`'s created-whole invariant cannot be violated) and no
    /// delete in flight. Committed deletes are fine — their states are
    /// carried over verbatim, so epoch-pinned snapshots older than the
    /// delete still see those rows.
    fn merge_eligible(c: &RosContainer) -> bool {
        !c.visibility.has_pending()
    }

    /// The tuple mover's "mergeout": compact adjacent runs of at least
    /// `min_merge` fully-committed ROS containers in the same size
    /// stratum into one container.
    ///
    /// The merged container keeps the *first* input's id and position,
    /// and rows are concatenated in scan order with commit/delete
    /// states preserved verbatim — so the visible-row sequence at any
    /// snapshot epoch is unchanged. Scans (and the connector's
    /// synthetic row windows over unsegmented tables) cannot tell a
    /// merge happened. Statistics are recomputed through the same
    /// [`ContainerStats`] path as every other ROS creation site.
    pub fn mergeout(&mut self, min_merge: usize) -> MergeOutcome {
        let min_merge = min_merge.max(2);
        let mut outcome = MergeOutcome::default();
        let ros = std::mem::take(&mut self.ros);
        let mut out: Vec<RosContainer> = Vec::with_capacity(ros.len());
        let mut run: Vec<RosContainer> = Vec::new();
        let mut run_stratum = 0u32;
        for c in ros {
            let eligible = NodeTableStore::merge_eligible(&c);
            let s = NodeTableStore::stratum(c.len());
            if eligible && !run.is_empty() && s == run_stratum {
                run.push(c);
                continue;
            }
            self.flush_merge_run(&mut run, &mut out, min_merge, &mut outcome);
            if eligible {
                run_stratum = s;
                run.push(c);
            } else {
                out.push(c);
            }
        }
        self.flush_merge_run(&mut run, &mut out, min_merge, &mut outcome);
        self.ros = out;
        outcome
    }

    /// Close out one adjacent same-stratum run: merge it when it is
    /// long enough, otherwise pass the containers through untouched.
    fn flush_merge_run(
        &self,
        run: &mut Vec<RosContainer>,
        out: &mut Vec<RosContainer>,
        min_merge: usize,
        outcome: &mut MergeOutcome,
    ) {
        if run.len() < min_merge {
            out.append(run);
            return;
        }
        let inputs = std::mem::take(run);
        let id = inputs[0].id;
        outcome.merges += 1;
        outcome.containers_in += inputs.len();
        let merged = self.concat(inputs, id);
        outcome.rows += merged.len();
        out.push(merged);
    }

    /// One sealed container `id` holding the rows of `inputs` one after
    /// the other, commit and delete states verbatim, statistics through
    /// [`RosPayload::build`] like every ROS container's. The values are
    /// copied into vectors the mover allocates: moved, they would stay in
    /// the allocator arenas of the threads that staged them.
    fn concat(&self, inputs: Vec<RosContainer>, id: u64) -> RosContainer {
        let n: usize = inputs.iter().map(|c| c.len()).sum();
        let mut hashes = Vec::with_capacity(n);
        let mut column_values: Vec<ColumnData> = (0..self.column_count)
            .map(|_| ColumnData::with_capacity(n))
            .collect();
        for c in &inputs {
            for (col, vals) in c.payload.columns.iter().zip(column_values.iter_mut()) {
                vals.extend(&col.decode());
            }
            hashes.extend_from_slice(&c.payload.hashes);
        }
        let visibility = Visibility::concat(inputs.iter().map(|c| &c.visibility));
        let (payload, stats) = RosPayload::build(column_values, hashes);
        RosContainer {
            id,
            payload,
            stats,
            visibility,
        }
    }

    /// Drop every row (ROS and WOS) whose hash falls in `range`.
    /// Containers that lose rows are rebuilt in place — same id, same
    /// position, a new payload of the same form, a sealed one with
    /// statistics recomputed through the [`ContainerStats`] path — so
    /// surviving data stays zone-map-skippable and a payload shared with
    /// another table is left as it was. Used by the rebalancer to make a
    /// re-copy idempotent: clearing the target range before landing the
    /// export means a resumed migration can never double-count rows.
    pub(crate) fn remove_hash_range(&mut self, range: &HashRange) -> usize {
        let mut removed = 0;
        for list in [&mut self.ros, &mut self.wos] {
            for c in std::mem::take(list) {
                let keep = c.positions(|h| !range.contains(h));
                removed += c.len() - keep.len();
                if keep.len() == c.len() {
                    list.push(c);
                } else if let Some((payload, stats)) = c.slice(&keep) {
                    let visibility = c.visibility.gather(&keep);
                    list.push(RosContainer {
                        id: c.id,
                        payload,
                        stats,
                        visibility,
                    });
                }
            }
        }
        removed
    }

    /// Number of committed rows currently in the WOS (the moveout
    /// trigger input).
    pub fn wos_committed_rows(&self) -> usize {
        let committed = self.wos.iter().filter(|c| c.visibility.committed());
        committed.map(RosContainer::len).sum()
    }

    fn wos_rows(&self) -> usize {
        self.wos.iter().map(RosContainer::len).sum()
    }

    /// Every WOS row's hash and states, in storage order: what the
    /// store-vs-model property compares its WOS with.
    #[cfg(test)]
    fn wos_states(&self) -> Vec<(u64, CommitState, DeleteState)> {
        let rows = self.wos.iter().flat_map(|c| {
            (0..c.len()).map(|i| {
                let (commit, delete) = c.visibility.get(i);
                (c.payload.hashes[i], commit, delete)
            })
        });
        rows.collect()
    }

    pub fn stats(&self) -> StorageStats {
        let mut ros_rows = 0;
        let mut raw = 0;
        let mut encoded = 0;
        for c in &self.ros {
            ros_rows += c.len();
            for col in &c.payload.columns {
                encoded += col.encoded_size();
                raw += col.decode().wire_size();
            }
        }
        StorageStats {
            wos_rows: self.wos_rows(),
            ros_rows,
            ros_containers: self.ros.len(),
            ros_raw_bytes: raw,
            ros_encoded_bytes: encoded,
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use common::row;

    fn rows3() -> Vec<(Row, u64)> {
        vec![
            (row![1i64, "a"], 100),
            (row![2i64, "b"], 200),
            (row![3i64, "c"], 300),
        ]
    }

    /// The columns [`RosPayload::build`] seals against the reference
    /// `encode_auto` on the generated columns of `base`, each in a
    /// container beside its own reversal, under hashes of any value.
    pub(crate) fn built_containers_match_the_reference(base: u64) {
        use crate::storage::encoding::tests::{for_each_generated_column, reference};
        use rand::RngCore;
        // Through `Debug`, so that NaN equals itself and `-0.0` does not
        // equal `0.0`.
        let same = |a: Vec<Value>, b: Vec<Value>| format!("{a:?}") == format!("{b:?}");
        for_each_generated_column(base, |what, values, rng| {
            let reversed: Vec<Value> = values.iter().rev().cloned().collect();
            let hashes = values.iter().map(|_| rng.next_u64()).collect();
            let columns = [&values, &reversed].map(|v| ColumnData::from_values(v));
            let (payload, _) = RosPayload::build(columns.into(), hashes);
            for (got, values) in payload.columns.iter().zip([&values, &reversed]) {
                let want = reference::encode_auto(values);
                assert_eq!(got.encoding_name(), want.encoding_name(), "{what}");
                assert_eq!(got.len(), want.len(), "{what}");
                assert_eq!(got.encoded_size(), want.encoded_size(), "{what}");
                assert!(same(got.decode().to_values(), want.decode()), "{what}");
                let rows = 0..values.len();
                let by_get = rows.clone().map(|i| got.get(i)).collect();
                assert!(same(by_get, rows.map(|i| want.get(i)).collect()), "{what}");
            }
        });
    }

    #[test]
    fn built_containers_match_the_reference_routine() {
        built_containers_match_the_reference(0);
    }

    #[test]
    fn pending_rows_invisible_to_others() {
        let mut s = NodeTableStore::new(2);
        s.insert_pending(rows3(), 7);
        assert!(s.scan(u64::MAX, None, None).is_empty());
        assert_eq!(s.scan(u64::MAX, Some(7), None).len(), 3);
        s.commit(7, 5);
        assert_eq!(s.scan(5, None, None).len(), 3);
        // Epoch-based snapshot: before the commit epoch nothing visible.
        assert_eq!(s.scan(4, None, None).len(), 0);
    }

    #[test]
    fn abort_discards_pending_inserts() {
        let mut s = NodeTableStore::new(2);
        s.insert_pending(rows3(), 7);
        s.abort(7);
        assert!(s.scan(u64::MAX, Some(7), None).is_empty());
        assert_eq!(s.stats().wos_rows, 0);
    }

    #[test]
    fn delete_visibility_and_abort() {
        let mut s = NodeTableStore::new(2);
        s.insert_pending(rows3(), 1);
        s.commit(1, 2);
        let visible = s.scan(2, None, None);
        // Txn 9 stages a delete of the first row.
        s.delete_pending(&[visible[0].loc], 9);
        // Others still see it; txn 9 does not.
        assert_eq!(s.scan(2, None, None).len(), 3);
        assert_eq!(s.scan(2, Some(9), None).len(), 2);
        s.abort(9);
        assert_eq!(s.scan(2, Some(9), None).len(), 3);
        // Now commit a delete at epoch 4 and check epoch visibility.
        let visible = s.scan(2, None, None);
        s.delete_pending(&[visible[0].loc], 10);
        s.commit(10, 4);
        assert_eq!(
            s.scan(3, None, None).len(),
            3,
            "old epoch still sees the row"
        );
        assert_eq!(s.scan(4, None, None).len(), 2, "new epoch does not");
    }

    #[test]
    fn hash_range_filtering() {
        let mut s = NodeTableStore::new(2);
        s.insert_pending(rows3(), 1);
        s.commit(1, 1);
        let r = HashRange::new(150, Some(250));
        let hits = s.scan(1, None, Some(&r));
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].hash, 200);
    }

    #[test]
    fn moveout_preserves_rows_and_visibility() {
        let mut s = NodeTableStore::new(2);
        s.insert_pending(rows3(), 1);
        s.commit(1, 3);
        // A pending row must stay in the WOS.
        s.insert_pending(vec![(row![4i64, "d"], 400)], 2);
        let moved = s.moveout();
        assert_eq!(moved, 3);
        let stats = s.stats();
        assert_eq!(stats.ros_rows, 3);
        assert_eq!(stats.wos_rows, 1);
        assert_eq!(stats.ros_containers, 1);
        // Visibility unchanged.
        assert_eq!(s.scan(3, None, None).len(), 3);
        assert_eq!(s.scan(2, None, None).len(), 0);
        assert_eq!(s.scan(3, Some(2), None).len(), 4);
        // Deletes still work against ROS locations.
        let visible = s.scan(3, None, None);
        s.delete_pending(&[visible[1].loc], 5);
        s.commit(5, 6);
        assert_eq!(s.scan(6, None, None).len(), 2);
        assert_eq!(s.scan(5, None, None).len(), 3);
    }

    #[test]
    fn direct_load_creates_container() {
        let mut s = NodeTableStore::new(2);
        s.insert_pending_direct_rows(rows3(), 1);
        assert_eq!(s.stats().ros_containers, 1);
        assert!(s.scan(10, None, None).is_empty());
        s.commit(1, 2);
        assert_eq!(s.scan(2, None, None).len(), 3);
    }

    #[test]
    fn direct_load_abort_removes_container() {
        let mut s = NodeTableStore::new(2);
        s.insert_pending_direct_rows(rows3(), 1);
        s.abort(1);
        assert_eq!(s.stats().ros_containers, 0);
        s.insert_pending_direct_rows(rows3(), 2);
        s.commit(2, 2);
        assert_eq!(s.scan(2, None, None).len(), 3);
    }

    /// `(id, hash)` of the rows visible at `as_of`, in scan order.
    fn visible(s: &NodeTableStore, as_of: u64) -> Vec<(i64, u64)> {
        s.scan(as_of, None, None)
            .iter()
            .map(|v| (v.row.get(0).as_i64().unwrap(), v.hash))
            .collect()
    }

    #[test]
    fn adopted_container_shares_the_payload_not_the_visibility() {
        let mut src = NodeTableStore::new(2);
        src.insert_pending_direct_rows(rows3(), 1);
        src.commit(1, 1);
        // Row 2 is deleted in the source, a fourth row belongs to a
        // transaction still open, a fifth sits in the WOS.
        let second = src.scan(1, None, None)[1].loc;
        src.delete_pending(&[second], 2);
        src.commit(2, 2);
        src.insert_pending_direct_rows(vec![(row![4i64, "d"], 400)], 9);
        src.insert_pending(vec![(row![5i64, "e"], 500)], 3);
        src.commit(3, 3);

        let mut dst = NodeTableStore::new(2);
        dst.adopt(src.hand_over(3, 7));
        assert!(Arc::ptr_eq(&src.ros[0].payload, &dst.ros[0].payload));
        assert_eq!(dst.ros.len(), 1, "txn 9's container holds nothing visible");
        assert!(visible(&dst, u64::MAX).is_empty(), "pending until commit");
        assert_eq!(dst.scan(3, Some(7), None).len(), 3, "read-your-writes");
        dst.commit(7, 4);
        assert_eq!(visible(&dst, 4), vec![(1, 100), (3, 300), (5, 500)]);
        assert!(visible(&dst, 3).is_empty(), "not before its own commit");
        assert_eq!(
            visible(&dst, u64::MAX),
            visible(&dst, 4),
            "row 2 never appears"
        );

        // Deleting in the target leaves the source as it was, and the
        // source's open transaction resolves without touching the target.
        let first = dst.scan(4, None, None)[0].loc;
        dst.delete_pending(&[first], 8);
        dst.commit(8, 5);
        src.commit(9, 6);
        assert_eq!(
            visible(&src, 6),
            vec![(1, 100), (3, 300), (4, 400), (5, 500)]
        );
        assert_eq!(visible(&dst, 6), vec![(3, 300), (5, 500)]);
    }

    #[test]
    fn aborted_adoption_drops_only_the_reference() {
        let mut src = NodeTableStore::new(2);
        src.insert_pending_direct_rows(rows3(), 1);
        src.commit(1, 1);
        let mut dst = NodeTableStore::new(2);
        dst.adopt(src.hand_over(1, 7));
        assert_eq!(Arc::strong_count(&src.ros[0].payload), 2);
        dst.abort(7);
        assert_eq!(dst.stats(), NodeTableStore::new(2).stats());
        assert_eq!(Arc::strong_count(&src.ros[0].payload), 1);
        assert_eq!(visible(&src, 1).len(), 3);
        // The retry adopts again and commits.
        dst.adopt(src.hand_over(1, 8));
        dst.commit(8, 2);
        assert_eq!(visible(&dst, 2), visible(&src, 2));
    }

    /// An export lands an open transaction's pending container beside
    /// committed ones, each as it was: aborting takes back that whole
    /// container and leaves nothing pending.
    #[test]
    fn abort_after_an_export_drops_the_pending_container_only() {
        for pending_first in [true, false] {
            let mut src = NodeTableStore::new(2);
            let open = vec![(row![1i64, "a"], 100)];
            let committed = vec![(row![2i64, "b"], 200)];
            if pending_first {
                src.insert_pending_direct_rows(open, 7);
                src.insert_pending_direct_rows(committed, 8);
            } else {
                src.insert_pending_direct_rows(committed, 8);
                src.insert_pending_direct_rows(open, 7);
            }
            src.commit(8, 1);
            let mut dst = NodeTableStore::new(2);
            dst.adopt(src.export_range(None));
            src.abort(7);
            dst.abort(7);
            assert_eq!(visible(&src, 1), vec![(2, 200)], "{pending_first}");
            assert_eq!(visible(&dst, 1), visible(&src, 1), "{pending_first}");
            assert_eq!(dst.scan(1, Some(7), None).len(), 1, "{pending_first}");
            assert_eq!(dst.ros.len(), 1, "{pending_first}");
            assert!(
                NodeTableStore::merge_eligible(&dst.ros[0]),
                "{pending_first}: nothing pending, so the mover may take it"
            );
        }
    }

    /// One sealed container of the rows `ids`, row `i` hashed `10 * i`,
    /// committed at epoch 1.
    fn sealed(ids: std::ops::Range<i64>) -> NodeTableStore {
        let mut s = NodeTableStore::new(2);
        let rows = ids.map(|i| (row![i, format!("v{}", i % 3)], i as u64 * 10));
        s.insert_pending_direct_rows(rows.collect(), 1);
        s.commit(1, 1);
        s
    }

    #[test]
    fn a_container_wholly_in_range_travels_by_reference() {
        let (src, mut dst) = (sealed(0..10), NodeTableStore::new(2));
        let exported = src.export_range(Some(&HashRange::new(0, Some(100))));
        assert_eq!(exported.len(), 10);
        dst.adopt(exported);
        assert!(Arc::ptr_eq(&src.ros[0].payload, &dst.ros[0].payload));
        assert_eq!(dst.ros[0].stats, src.ros[0].stats);
        assert_eq!(visible(&dst, 1), visible(&src, 1));
    }

    #[test]
    fn a_partial_sealed_slice_lands_sealed_with_its_own_statistics() {
        let (mut src, mut dst) = (sealed(0..10), NodeTableStore::new(2));
        // Row 4 is deleted at epoch 2, on the receiver too.
        src.delete_pending(&[src.scan(1, None, None)[4].loc], 2);
        src.commit(2, 2);
        dst.adopt(src.export_range(Some(&HashRange::new(25, Some(65)))));
        assert_eq!((dst.ros.len(), dst.wos.len()), (1, 0));
        assert_eq!(visible(&dst, 1), vec![(3, 30), (4, 40), (5, 50), (6, 60)]);
        assert_eq!(visible(&dst, 2), vec![(3, 30), (5, 50), (6, 60)]);
        assert_eq!(dst.ros[0].stats, sealed(3..7).ros[0].stats);
    }

    #[test]
    fn an_open_slice_lands_in_the_wos() {
        let (mut src, mut dst) = (NodeTableStore::new(2), NodeTableStore::new(2));
        src.insert_pending(rows3(), 1);
        src.commit(1, 1);
        dst.adopt(src.export_range(Some(&HashRange::new(150, None))));
        assert_eq!((dst.ros.len(), dst.wos.len()), (0, 1));
        assert_eq!(visible(&dst, 1), vec![(2, 200), (3, 300)]);
        assert_eq!(dst.moveout(), 2, "committed, so the mover seals it");
    }

    #[test]
    fn a_pending_slice_aborts_whole_on_the_receiver() {
        let (mut src, mut dst) = (sealed(0..10), NodeTableStore::new(2));
        src.insert_pending_direct_rows(vec![(row![10i64, "p"], 45)], 9);
        src.insert_pending(vec![(row![11i64, "q"], 55)], 9);
        dst.adopt(src.export_range(Some(&HashRange::new(25, Some(65)))));
        assert_eq!((dst.ros.len(), dst.wos.len()), (2, 1));
        assert_eq!(dst.scan(1, Some(9), None).len(), 6, "read-your-writes");
        dst.abort(9);
        assert_eq!((dst.ros.len(), dst.wos.len()), (1, 0));
        assert_eq!(visible(&dst, 1), vec![(3, 30), (4, 40), (5, 50), (6, 60)]);
        assert!(NodeTableStore::merge_eligible(&dst.ros[0]));
    }

    #[test]
    fn rewriting_a_sharing_container_copies_on_write() {
        let mut src = NodeTableStore::new(2);
        for (txn, base) in [(1u64, 0i64), (2, 10), (3, 20), (4, 30)] {
            let rows = (0..3)
                .map(|i| (row![base + i, "x"], (base + i) as u64 * 10))
                .collect();
            src.insert_pending_direct_rows(rows, txn);
            src.commit(txn, txn);
        }
        let mut dst = NodeTableStore::new(2);
        dst.adopt(src.hand_over(4, 5));
        dst.commit(5, 5);
        let (before, stats) = (visible(&src, 5), src.stats());
        let infos = |s: &NodeTableStore| -> Vec<Vec<ColumnStats>> {
            s.container_infos().into_iter().map(|c| c.columns).collect()
        };
        let zone_maps = infos(&src);

        // The rebalancer clears a hash range of the target: rows 0..=11.
        assert_eq!(dst.remove_hash_range(&HashRange::new(0, Some(115))), 5);
        assert_eq!(visible(&dst, 5), before[5..].to_vec());
        assert!(
            !Arc::ptr_eq(&src.ros[1].payload, &dst.ros[0].payload),
            "the container that lost rows got a payload of its own"
        );
        assert!(Arc::ptr_eq(&src.ros[2].payload, &dst.ros[1].payload));
        // The mover compacts what is left of the target.
        assert_eq!(dst.mergeout(2).merges, 1);
        assert_eq!(visible(&dst, 5), before[5..].to_vec());

        assert_eq!(visible(&src, 5), before, "source rows unchanged");
        assert_eq!(src.stats(), stats, "source storage unchanged");
        assert_eq!(infos(&src), zone_maps, "source statistics unchanged");
    }

    #[test]
    fn scan_order_is_stable() {
        let mut s = NodeTableStore::new(2);
        s.insert_pending(rows3(), 1);
        s.commit(1, 1);
        s.moveout();
        s.insert_pending(vec![(row![4i64, "d"], 400)], 2);
        s.commit(2, 2);
        let rows: Vec<i64> = s
            .scan(2, None, None)
            .iter()
            .map(|v| v.row.get(0).as_i64().unwrap())
            .collect();
        assert_eq!(rows, vec![1, 2, 3, 4]);
    }

    #[test]
    fn insert_then_delete_same_txn() {
        let mut s = NodeTableStore::new(2);
        s.insert_pending(rows3(), 1);
        let mine = s.scan(0, Some(1), None);
        s.delete_pending(&[mine[0].loc], 1);
        assert_eq!(s.scan(0, Some(1), None).len(), 2);
        s.commit(1, 5);
        assert_eq!(s.scan(5, None, None).len(), 2);
    }
}
