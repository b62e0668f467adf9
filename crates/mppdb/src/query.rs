//! Programmatic scan execution: the engine's physical access path.
//!
//! A [`QuerySpec`] is the lowered form of a single-table read. It is
//! what the SQL planner produces for simple selects, and — more
//! importantly — what database clients (the connector, the JDBC-style
//! baseline) submit directly. It expresses everything the paper's V2S
//! needs to push down: projection, filter, count, an epoch pin, and a
//! hash range (or a synthetic row range for unsegmented tables and
//! views).

use std::sync::atomic::{AtomicUsize, Ordering};

use common::agg::{aggregate_rows, fold_request, AggFunc, AggRequest, GroupedAccs};
use common::{DataType, Expr, Row, Schema};
use netsim::record::{NetClass, NodeRef};
use parking_lot::Mutex;

use crate::catalog::TableDef;
use crate::cluster::Cluster;
use crate::error::{DbError, DbResult};
use crate::segmentation::HashRange;
use crate::storage::{BatchScan, ColumnBatch, NodeTableStore, ScanCounters};

mod charge_differential;

/// A single-table read request.
#[derive(Debug, Clone)]
pub struct QuerySpec {
    pub table: String,
    /// Column names to return; `None` = all columns.
    pub projection: Option<Vec<String>>,
    /// Filter over the table's columns (pushed down: evaluated on the
    /// serving nodes before any data moves).
    pub predicate: Option<Expr>,
    /// Restrict to rows whose segmentation hash falls in the range.
    /// Only valid for segmented tables.
    pub hash_range: Option<HashRange>,
    /// Restrict to a window `[start, end)` of the stable row order.
    /// Only valid for unsegmented tables and views (the connector's
    /// "synthetic hash ranges", Sec. 3.1.1).
    pub row_range: Option<(u64, u64)>,
    /// Epoch to read as of; `None` = the last committed epoch.
    pub as_of_epoch: Option<u64>,
    /// Segment-map version the client planned this read against, if it
    /// planned against one at all (the V2S piece path does). The scan
    /// is rejected with [`DbError::StaleSegmentMap`] when it differs
    /// from the version authoritative at the read's snapshot epoch —
    /// the signal that the cluster rebalanced under the client and the
    /// plan's hash ranges may no longer mean what it thinks.
    pub map_version: Option<u64>,
    /// Return only the row count (the `.count()` pushdown).
    pub count_only: bool,
    pub limit: Option<u64>,
    /// Aggregate spec (the `.agg()` pushdown): evaluated node-side so
    /// only group keys and accumulator states cross the wire.
    pub aggregate: Option<AggRequest>,
    /// With `aggregate`: return per-store partial accumulator rows
    /// ([`AggRequest::partial_schema`]) instead of finalized values, so
    /// a driver can merge partials from many pieces exactly once.
    pub aggregate_partial: bool,
    /// Disable zone-map skipping and conjunct reordering (ablation and
    /// differential-testing hook; results must be identical).
    pub no_skip: bool,
}

impl QuerySpec {
    pub fn scan(table: impl Into<String>) -> QuerySpec {
        QuerySpec {
            table: table.into(),
            projection: None,
            predicate: None,
            hash_range: None,
            row_range: None,
            as_of_epoch: None,
            map_version: None,
            count_only: false,
            limit: None,
            aggregate: None,
            aggregate_partial: false,
            no_skip: false,
        }
    }

    pub fn project(mut self, columns: &[&str]) -> QuerySpec {
        self.projection = Some(columns.iter().map(|c| c.to_string()).collect());
        self
    }

    pub fn filter(mut self, predicate: Expr) -> QuerySpec {
        self.predicate = Some(predicate);
        self
    }

    pub fn with_hash_range(mut self, range: HashRange) -> QuerySpec {
        self.hash_range = Some(range);
        self
    }

    pub fn with_row_range(mut self, start: u64, end: u64) -> QuerySpec {
        self.row_range = Some((start, end));
        self
    }

    pub fn at_epoch(mut self, epoch: u64) -> QuerySpec {
        self.as_of_epoch = Some(epoch);
        self
    }

    /// Assert the segment-map version this read was planned against.
    pub fn expect_map_version(mut self, version: u64) -> QuerySpec {
        self.map_version = Some(version);
        self
    }

    pub fn count(mut self) -> QuerySpec {
        self.count_only = true;
        self
    }

    pub fn with_limit(mut self, limit: u64) -> QuerySpec {
        self.limit = Some(limit);
        self
    }

    pub fn aggregate(mut self, request: AggRequest) -> QuerySpec {
        self.aggregate = Some(request);
        self
    }

    /// Return partial accumulator rows instead of finalized aggregates.
    pub fn partial_aggregates(mut self) -> QuerySpec {
        self.aggregate_partial = true;
        self
    }

    /// Disable zone-map skipping and conjunct reordering.
    pub fn without_skipping(mut self) -> QuerySpec {
        self.no_skip = true;
        self
    }
}

/// The result of a read.
///
/// Table scans carry their data in exactly one of two forms: the
/// columnar `batch` (requested through [`crate::Session::query_batched`]
/// — the connector's zero-row-materialization path) or the
/// materialized `rows` compatibility view (everything else). The
/// accessors below work over either form.
#[derive(Debug, Clone)]
pub struct QueryResult {
    pub schema: Schema,
    pub rows: Vec<Row>,
    /// Row count: `num_rows()` for materializing reads, the count for
    /// `count_only` reads.
    pub count: u64,
    /// The epoch the read was served at.
    pub epoch: u64,
    /// Columnar form of the result, populated instead of `rows` for
    /// batched reads. `None` for row-materialized results.
    pub batch: Option<ColumnBatch>,
}

impl QueryResult {
    /// Number of materialized result rows, whichever form holds them.
    pub fn num_rows(&self) -> usize {
        match &self.batch {
            Some(b) => b.num_rows(),
            None => self.rows.len(),
        }
    }

    /// Materialize the result as rows, consuming the batch if present
    /// (values are moved, not cloned).
    pub fn into_rows(self) -> Vec<Row> {
        match self.batch {
            Some(b) => b.into_rows(),
            None => self.rows,
        }
    }

    /// Total wire size of the materialized result.
    pub fn wire_bytes(&self) -> u64 {
        match &self.batch {
            Some(b) => b.wire_size() as u64,
            None => self.rows.iter().map(|r| r.wire_size() as u64).sum(),
        }
    }

    /// Total textual (JDBC result set) wire size of the result.
    pub fn text_wire_bytes(&self) -> u64 {
        match &self.batch {
            Some(b) => b.text_wire_size() as u64,
            None => self.rows.iter().map(|r| r.text_wire_size() as u64).sum(),
        }
    }
}

/// Apply a spec's row window, predicate, aggregate or projection, count,
/// and limit to already-materialized rows (views and system tables).
/// The aggregate folds row at a time, under the table path's rules: it
/// takes no count and no row window.
pub(crate) fn apply_spec_to_rows(
    schema: Schema,
    mut rows: Vec<Row>,
    spec: &QuerySpec,
    epoch: u64,
) -> DbResult<QueryResult> {
    if spec.aggregate.is_some() && spec.count_only {
        return Err(DbError::Execution(
            "count_only and aggregate are mutually exclusive".into(),
        ));
    }
    if spec.aggregate.is_some() && spec.row_range.is_some() {
        return Err(DbError::Execution(
            "aggregate pushdown does not compose with row windows".into(),
        ));
    }
    if let Some((start, end)) = spec.row_range {
        let start = (start as usize).min(rows.len());
        let end = (end as usize).min(rows.len());
        rows = rows[start..end].to_vec();
    }
    if let Some(pred) = &spec.predicate {
        let bound = pred.bind(&schema).map_err(DbError::Data)?;
        let mut kept = Vec::with_capacity(rows.len());
        for row in rows {
            if bound.matches(&row).map_err(DbError::Data)? {
                kept.push(row);
            }
        }
        rows = kept;
    }
    let (schema, mut rows) = match (&spec.aggregate, &spec.projection) {
        (Some(req), _) if spec.aggregate_partial => (
            req.partial_schema(&schema)?,
            fold_request(&schema, &rows, req)?.to_partial_rows(),
        ),
        (Some(req), _) => aggregate_rows(&schema, &rows, req)?,
        (None, Some(cols)) => {
            let refs: Vec<&str> = cols.iter().map(String::as_str).collect();
            let projected = schema.project(&refs).map_err(DbError::Data)?;
            let idx: Vec<usize> = cols
                .iter()
                .map(|c| schema.index_of(c))
                .collect::<Result<_, _>>()
                .map_err(DbError::Data)?;
            (
                projected,
                rows.into_iter().map(|r| r.into_projected(&idx)).collect(),
            )
        }
        (None, None) => (schema, rows),
    };
    let count = rows.len() as u64;
    if spec.count_only {
        return Ok(QueryResult {
            schema,
            rows: Vec::new(),
            count,
            epoch,
            batch: None,
        });
    }
    if let Some(limit) = spec.limit {
        rows.truncate(limit as usize);
    }
    Ok(QueryResult {
        count: rows.len() as u64,
        schema,
        rows,
        epoch,
        batch: None,
    })
}

/// Execution context: where the query entered the cluster and on whose
/// behalf.
#[derive(Clone, Copy)]
pub(crate) struct ExecCtx<'a> {
    pub cluster: &'a Cluster,
    /// The node the client session is connected to.
    pub node: usize,
    /// Task attribution for the recorder.
    pub task: Option<u64>,
    /// Open transaction id, for read-your-writes visibility.
    pub txn: Option<u64>,
    /// Upper bound on scan threads for this statement (the session's
    /// resource-pool concurrency capped by the host's parallelism).
    pub parallelism: usize,
}

pub(crate) fn resolve_epoch(cluster: &Cluster, requested: Option<u64>) -> DbResult<u64> {
    let current = cluster.current_epoch();
    match requested {
        None => Ok(current),
        Some(e) if e <= current => Ok(e),
        Some(e) => Err(DbError::BadEpoch {
            requested: e,
            current,
        }),
    }
}

/// Execute a table scan (not a view — the SQL executor handles views by
/// running their stored select). The scan itself is always vectorized;
/// `want_batch` chooses whether the result keeps the columnar batch or
/// materializes the `rows` compatibility view.
pub(crate) fn execute_table_scan(
    ctx: ExecCtx<'_>,
    spec: &QuerySpec,
    want_batch: bool,
) -> DbResult<QueryResult> {
    let def = ctx.cluster.table_def(&spec.table)?;
    let as_of = resolve_epoch(ctx.cluster, spec.as_of_epoch)?;
    if let Some(expected) = spec.map_version {
        let current = ctx.cluster.segment_map_at(as_of).version();
        if expected != current {
            return Err(DbError::StaleSegmentMap {
                requested: expected,
                current,
            });
        }
    }

    let predicate = match &spec.predicate {
        Some(p) => Some(p.bind(&def.schema)?),
        None => None,
    };
    if let Some(req) = &spec.aggregate {
        return execute_aggregate_scan(ctx, &def, as_of, spec, req, predicate.as_ref());
    }
    let projection_idx: Option<Vec<usize>> = match &spec.projection {
        Some(cols) => Some(
            cols.iter()
                .map(|c| def.schema.index_of(c))
                .collect::<Result<Vec<_>, _>>()
                .map_err(DbError::Data)?,
        ),
        None => None,
    };
    let out_schema = match &spec.projection {
        Some(cols) => {
            let refs: Vec<&str> = cols.iter().map(String::as_str).collect();
            def.schema.project(&refs).map_err(DbError::Data)?
        }
        None => def.schema.clone(),
    };
    let dtypes: Vec<DataType> = out_schema.fields().iter().map(|f| f.dtype).collect();

    let mut batch = ColumnBatch::new(&dtypes);
    scan_pieces(
        ctx,
        &def,
        as_of,
        spec,
        predicate.as_ref(),
        |store, piece| {
            let out = store.scan_batch(&BatchScan {
                projection: projection_idx.as_deref(),
                dtypes: &dtypes,
                ..*piece
            })?;
            // Only surviving rows materialize their full projected
            // width, and only they cross between database nodes; a
            // count-only request ships just the count.
            let bytes = out.batch.wire_size() as u64;
            let wire = if spec.count_only {
                (8, 1)
            } else {
                (bytes, out.batch.num_rows() as u64)
            };
            Ok(PieceResult {
                payload: out.batch,
                counters: out.counters,
                payload_bytes: bytes,
                wire,
            })
        },
        |piece| batch.append(piece),
    )?;

    let count = batch.num_rows() as u64;
    if spec.count_only {
        return Ok(QueryResult {
            schema: out_schema,
            rows: Vec::new(),
            count,
            epoch: as_of,
            batch: None,
        });
    }
    if let Some(limit) = spec.limit {
        batch.truncate(limit as usize);
    }
    let count = batch.num_rows() as u64;
    let (rows, batch) = if want_batch {
        (Vec::new(), Some(batch))
    } else {
        (batch.into_rows(), None)
    };
    Ok(QueryResult {
        count,
        schema: out_schema,
        rows,
        epoch: as_of,
        batch,
    })
}

/// [`crate::Session::charge_copy`]: a full scan of `source` through the
/// one piece driver — so every piece is recorded as a scan records it —
/// whose survivors are known by hash and wire size only, then `between`,
/// then the routed insert of those rows into `target`.
pub(crate) fn charge_copy(
    ctx: ExecCtx<'_>,
    target: &str,
    source: &str,
    between: impl FnOnce(u64, u64),
) -> DbResult<()> {
    let def = ctx.cluster.table_def(source)?;
    let as_of = resolve_epoch(ctx.cluster, None)?;
    let mut tally = ctx.cluster.route_tally(target)?;
    let (mut rows, mut bytes) = (0u64, 0u64);
    scan_pieces(
        ctx,
        &def,
        as_of,
        &QuerySpec::scan(source),
        None,
        |store, piece| {
            let mut sizes = Vec::new();
            let counters =
                store.for_each_wire_size(piece, |hash, wire| sizes.push((hash, wire)))?;
            let wire: u64 = sizes.iter().map(|&(_, w)| w).sum();
            Ok(PieceResult {
                wire: (wire, sizes.len() as u64),
                payload: sizes,
                counters,
                payload_bytes: wire,
            })
        },
        |sizes| {
            rows += sizes.len() as u64;
            for (hash, wire) in sizes {
                tally.add(hash, wire);
                bytes += wire;
            }
            Ok(())
        },
    )?;
    between(rows, bytes);
    ctx.cluster.charge_routed(ctx.task, ctx.node, tally)
}

/// Approximate stored width of a column, for scan-cost accounting.
fn column_width(dtype: common::DataType) -> u64 {
    match dtype {
        common::DataType::Boolean => 1,
        common::DataType::Int64 | common::DataType::Float64 => 8,
        common::DataType::Varchar => 32,
    }
}

/// Decoded width per examined row: the segmentation columns when a hash
/// range restricts the query, plus the bound predicate's referenced
/// columns. Computed once per statement from `referenced_indices` (not
/// per piece, and without per-column name lookups).
fn examined_width(def: &TableDef, hash_restricted: bool, predicate: Option<&Expr>) -> u64 {
    let mut width = 0u64;
    if hash_restricted {
        width += def
            .seg_columns
            .iter()
            .map(|&i| column_width(def.schema.field(i).dtype))
            .sum::<u64>();
    }
    if let Some(p) = predicate {
        let mut cols = Vec::new();
        p.referenced_indices(&mut cols);
        width += cols
            .iter()
            .map(|&i| column_width(def.schema.field(i).dtype))
            .sum::<u64>();
    }
    width
}

/// The one scan-cost formula, shared by the segmented and unsegmented
/// paths so recorded volumes are comparable across table kinds: every
/// examined row decodes the referenced-column width, and matched rows
/// additionally materialize their full projected wire size.
fn scan_cost(examined: u64, examined_width: u64, matched_bytes: u64) -> u64 {
    examined * examined_width + matched_bytes
}

/// One piece's scan, produced by a (possibly parallel) worker and
/// recorded and merged on the coordinating thread.
struct PieceResult<P> {
    /// What the caller merges: a [`ColumnBatch`] or partial accumulators.
    payload: P,
    counters: ScanCounters,
    /// Wire size of what the survivors materialize on the serving node
    /// (the second term of [`scan_cost`]).
    payload_bytes: u64,
    /// `(bytes, rows)` shipped to the coordinating node when the piece
    /// was served remotely.
    wire: (u64, u64),
}

/// A store a statement reads: the serving node and, for segmented
/// tables, the hash sub-range it covers there.
type Piece = (usize, Option<HashRange>);

/// Enumerate a statement's pieces in segment order. A segment nobody
/// can serve ends the enumeration; its error is returned beside the
/// pieces before it, which still run (and are recorded) first.
fn enumerate_pieces(
    ctx: ExecCtx<'_>,
    def: &TableDef,
    as_of: u64,
    spec: &QuerySpec,
) -> DbResult<(Vec<Piece>, Option<DbError>)> {
    let cluster = ctx.cluster;
    if !def.is_segmented() {
        if spec.hash_range.is_some() {
            return Err(DbError::Execution(format!(
                "hash ranges apply to segmented tables; {} is unsegmented",
                def.name
            )));
        }
        // Unsegmented tables are replicated everywhere: serve from the
        // local replica — no inter-node traffic at all.
        if !cluster.is_node_up(ctx.node) {
            return Err(DbError::NodeUnavailable(ctx.node));
        }
        return Ok((vec![(ctx.node, None)], None));
    }
    if spec.row_range.is_some() {
        return Err(DbError::Execution(format!(
            "row ranges apply to unsegmented tables and views; {} is segmented",
            def.name
        )));
    }
    // Ownership resolves through the map version authoritative at the
    // read's snapshot epoch: a scan pinned before a rebalance flip keeps
    // using the old map (whose owners still hold every pre-flip row),
    // one pinned after uses the new.
    let map = cluster.segment_map_at(as_of);
    let range = spec.hash_range.unwrap_or_else(HashRange::full);
    let mut pieces = Vec::new();
    for (segment, sub) in map.segments_intersecting(&range) {
        // Serve from the owner at the pinned epoch, failing over to its
        // buddies under that same map version.
        if let Some(serving) = cluster.live_holders(&map, segment).next() {
            pieces.push((serving, Some(sub)));
            continue;
        }
        // Last resort for epoch-pinned reads that outlived a rebalance:
        // the current map's owners hold the full verbatim history of
        // their ranges, so a pre-flip snapshot whose old replica set is
        // gone (a retired node at k=0, say) is still servable there.
        let current = cluster.segment_map();
        if current.version() == map.version() {
            return Ok((pieces, Some(DbError::DataUnavailable { segment })));
        }
        let resolved = pieces.len();
        for (owner, subsub) in current.segments_intersecting(&sub) {
            match cluster.live_holders(&current, owner).next() {
                Some(serving) => pieces.push((serving, Some(subsub))),
                None => {
                    // The pinned segment is served whole or not at all.
                    pieces.truncate(resolved);
                    return Ok((pieces, Some(DbError::DataUnavailable { segment: owner })));
                }
            }
        }
    }
    Ok((pieces, None))
}

/// The one piece driver behind batch, count and aggregate scans:
/// enumerate the statement's pieces, run `scan` over each piece's store
/// on a bounded worker pool, then — on this thread, in segment order —
/// record each piece and hand its payload to `merge`.
///
/// `scan` receives the piece's pushed-down [`BatchScan`] (snapshot,
/// hash range or row window, predicate; no projection) and picks the
/// store sink. Two accounting rules hold for every sink: `filter_eval`
/// is recorded iff a predicate exists and the piece scanned at least
/// one row, and a piece whose scan fails records nothing.
fn scan_pieces<P: Send>(
    ctx: ExecCtx<'_>,
    def: &TableDef,
    as_of: u64,
    spec: &QuerySpec,
    predicate: Option<&Expr>,
    scan: impl Fn(&NodeTableStore, &BatchScan<'_>) -> common::Result<PieceResult<P>> + Sync,
    mut merge: impl FnMut(P) -> common::Result<()>,
) -> DbResult<()> {
    let cluster = ctx.cluster;
    let (pieces, unservable) = enumerate_pieces(ctx, def, as_of, spec)?;
    let scan_piece = |(serving, range): &Piece| -> DbResult<PieceResult<P>> {
        let state = cluster
            .node_state(*serving)
            .ok_or(DbError::NodeUnavailable(*serving))?;
        let stores = state.stores.read();
        let store = stores
            .get(&def.name)
            .ok_or_else(|| DbError::UnknownTable(def.name.clone()))?;
        // A range query has no hash index: the node examines every
        // visible row to test it against the range — the per-query
        // overhead that makes very high parallelism lose (Fig. 6).
        let piece = BatchScan {
            as_of,
            my_txn: ctx.txn,
            hash_range: range.as_ref(),
            row_range: spec.row_range,
            predicate,
            no_skip: spec.no_skip,
            ..BatchScan::default()
        };
        scan(store, &piece).map_err(DbError::Data)
    };

    // Fan the pieces across pooled worker threads, bounded by the
    // statement's resource-pool concurrency. Workers only scan; all
    // recording and merging happens below on this thread, in segment
    // order, so the recorder log and the output order are identical to a
    // serial scan — including which error surfaces first.
    let workers = ctx.parallelism.min(pieces.len());
    let results: Vec<Option<DbResult<PieceResult<P>>>> = if workers <= 1 {
        pieces.iter().map(|p| Some(scan_piece(p))).collect()
    } else {
        let next = AtomicUsize::new(0);
        let slots: Mutex<Vec<Option<DbResult<PieceResult<P>>>>> =
            Mutex::new((0..pieces.len()).map(|_| None).collect());
        common::pool::run_all(workers, &|_| loop {
            let i = next.fetch_add(1, Ordering::Relaxed);
            if i >= pieces.len() {
                break;
            }
            let r = scan_piece(&pieces[i]);
            slots.lock()[i] = Some(r);
        });
        slots.into_inner()
    };

    // Columnar scan cost: every visible row is examined, but only the
    // *referenced* columns are decoded for it; what the survivors
    // additionally materialize is the piece's payload.
    let exam_width = examined_width(def, spec.hash_range.is_some(), predicate);
    let op = if def.is_segmented() {
        "scan_hash"
    } else {
        "scan_local"
    };
    let recorder = cluster.recorder();
    for (slot, &(serving, _)) in results.into_iter().zip(&pieces) {
        let piece =
            slot.ok_or_else(|| DbError::Execution("scan worker left no result".into()))??;
        let n = piece.counters;
        let cost = scan_cost(n.examined, exam_width, piece.payload_bytes);
        recorder.work(ctx.task, NodeRef::Db(serving), op, n.examined, cost);
        if predicate.is_some() && n.scanned > 0 {
            recorder.work(ctx.task, NodeRef::Db(serving), "filter_eval", n.scanned, 0);
        }
        if serving != ctx.node {
            let (bytes, rows) = piece.wire;
            recorder.transfer(
                ctx.task,
                NodeRef::Db(serving),
                NodeRef::Db(ctx.node),
                NetClass::DbInternal,
                bytes,
                rows,
            );
        }
        merge(piece.payload).map_err(DbError::Data)?;
    }
    unservable.map_or(Ok(()), Err)
}

/// Execute an aggregate-pushdown scan: every serving store folds its
/// visible rows into per-group partial accumulators (answering from
/// zone maps where it can), only those partials cross between nodes,
/// and this coordinating node merges them — in segment order, so the
/// result and any error are deterministic. With `aggregate_partial` the
/// partials themselves are returned (for a driver that merges pieces
/// from many queries exactly once); otherwise they are finalized here.
fn execute_aggregate_scan(
    ctx: ExecCtx<'_>,
    def: &TableDef,
    as_of: u64,
    spec: &QuerySpec,
    req: &AggRequest,
    predicate: Option<&Expr>,
) -> DbResult<QueryResult> {
    if spec.count_only {
        return Err(DbError::Execution(
            "count_only and aggregate are mutually exclusive".into(),
        ));
    }
    if spec.row_range.is_some() {
        return Err(DbError::Execution(
            "aggregate pushdown does not compose with row windows".into(),
        ));
    }
    req.validate().map_err(DbError::Data)?;
    let group_idx: Vec<usize> = req
        .group_by
        .iter()
        .map(|c| def.schema.index_of(c))
        .collect::<Result<_, _>>()
        .map_err(DbError::Data)?;
    let funcs: Vec<(AggFunc, Option<usize>)> = req
        .calls
        .iter()
        .map(|call| {
            Ok((
                call.func,
                match &call.column {
                    Some(c) => Some(def.schema.index_of(c).map_err(DbError::Data)?),
                    None => None,
                },
            ))
        })
        .collect::<DbResult<_>>()?;
    let out_schema = if spec.aggregate_partial {
        req.partial_schema(&def.schema).map_err(DbError::Data)?
    } else {
        req.output_schema(&def.schema).map_err(DbError::Data)?
    };
    obs::global().add("agg.pushdown.queries", 1);

    let mut accs = GroupedAccs::new(funcs.iter().map(|(f, _)| *f).collect());
    scan_pieces(
        ctx,
        def,
        as_of,
        spec,
        predicate,
        |store, piece| {
            let out = store.scan_aggregate(piece, &funcs, &group_idx)?;
            // Only accumulator states cross between database nodes —
            // the whole point of the pushdown.
            let partial_rows = out.accs.to_partial_rows();
            let bytes: u64 = partial_rows.iter().map(|r| r.wire_size() as u64).sum();
            Ok(PieceResult {
                payload: out.accs,
                counters: out.counters,
                payload_bytes: bytes,
                wire: (bytes.max(8), partial_rows.len().max(1) as u64),
            })
        },
        |partial| accs.merge(&partial),
    )?;

    // A global aggregate over zero rows still yields one (all-NULL /
    // zero-count) group — but only in the finalized form; a partial
    // result stays empty so a driver merging many pieces doesn't count
    // phantom groups.
    if req.group_by.is_empty() && !spec.aggregate_partial {
        accs.ensure_global_group();
    }
    let mut rows = if spec.aggregate_partial {
        accs.to_partial_rows()
    } else {
        accs.finalize_rows()
    };
    if let Some(limit) = spec.limit {
        rows.truncate(limit as usize);
    }
    Ok(QueryResult {
        count: rows.len() as u64,
        schema: out_schema,
        rows,
        epoch: as_of,
        batch: None,
    })
}

/// Estimate the visible-row count a scan of `table` leaves after
/// predicate pushdown, from per-container zone maps and NDV sketches —
/// the planner input for V2S piece sizing. Sums per-store estimates
/// across all nodes and divides by the replication factor (k+1 buddy
/// copies for segmented tables, every node for unsegmented ones).
pub fn estimate_scan_rows(
    cluster: &Cluster,
    table: &str,
    predicate: Option<&Expr>,
) -> DbResult<u64> {
    let def = cluster.table_def(table)?;
    let bound = match predicate {
        Some(p) => Some(p.bind(&def.schema).map_err(DbError::Data)?),
        None => None,
    };
    let replicas = if def.is_segmented() {
        cluster.config().k_safety as u64 + 1
    } else {
        cluster.node_count() as u64
    };
    let mut est = 0f64;
    for node in cluster.node_states() {
        let stores = node.stores.read();
        if let Some(store) = stores.get(&def.name) {
            est += store.estimate_rows(bound.as_ref());
        }
    }
    let est = (est / replicas.max(1) as f64).round() as u64;
    obs::global().add("planner.estimated_rows", est);
    Ok(est)
}
