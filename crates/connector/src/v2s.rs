//! V2S: loading database tables into the compute engine (paper Sec. 3.1).
//!
//! Each engine task formulates a unique query for a non-overlapping
//! subset of the table, and the union of all queries is exactly the
//! table:
//!
//! * **Segmented tables** use the hash ring (Sec. 3.1.2): the segment
//!   boundaries come from the system catalog, each partition is
//!   assigned one or more contiguous hash ranges, and — the key
//!   locality property — every range is requested through a connection
//!   to *the node that owns it*, so no data shuffles between database
//!   nodes.
//! * **Views and unsegmented tables** get *synthetic* ranges (Sec.
//!   3.1.1): row-order windows over the relation's stable output.
//!
//! All queries are pinned to the epoch captured when the relation was
//! opened, so concurrent commits and task retries cannot produce an
//! inconsistent view.
//!
//! Because every V2S query is an idempotent snapshot read, this is the
//! one place hedging is safe: a piece's primary attempt runs on its
//! task's own thread, and when it runs past the observed P99 (a grey
//! failure) a buddy-node attempt launches; the first success wins and
//! cancels the other. Every catalog probe and piece goes through the
//! load's one [`CallPolicy`], so pieces steer away from nodes whose
//! circuit breakers are open before timeouts ever fire.

use std::sync::Arc;

use common::agg::{self, AggRequest, GroupedAccs};
use common::expr::Expr;
use common::{Row, Schema};
use mppdb::segmentation::{HashRange, SegmentMap};
use mppdb::{Cluster, QuerySpec};
use netsim::record::{NetClass, NodeRef};
use obs::names;
use sparklet::rdd::{Partition, PartitionSource};
use sparklet::{Rdd, ScanRelation, SparkContext, SparkError, SparkResult};

use crate::error::{ConnectorError, ConnectorResult};
use crate::options::ConnectorOptions;
use crate::retry::{CallPolicy, NodeCall};

/// How a relation's rows are divided among partitions.
#[derive(Debug, Clone)]
enum RelationKind {
    /// Hash-segmented table: locality-aware hash ranges.
    Segmented,
    /// View or unsegmented table: synthetic row ranges.
    RowOrdered,
}

/// A loaded database relation (the V2S read side).
pub struct DbRelation {
    cluster: Arc<Cluster>,
    table: String,
    schema: Schema,
    kind: RelationKind,
    /// Whether `table` resolved to a table when the relation was opened
    /// (a view has no node-side aggregate path).
    is_table: bool,
    /// Epoch pinned at open time — the paper's "same epoch (e.g., last
    /// epoch)" shared by every task's query.
    epoch: u64,
    /// Segment map pinned with the epoch: the version authoritative at
    /// `epoch`. Hash-range plans, locality routing, and buddy failover
    /// all resolve through it, and every piece query asserts its
    /// version — so if the cluster rebalances mid-load, epoch-pinned
    /// pieces keep reading the old owners (which still hold every
    /// pre-flip row) instead of silently racing the new map.
    map: Arc<SegmentMap>,
    num_partitions: usize,
    /// Whether `numPartitions` was set explicitly. When it was not, the
    /// planner sizes scan pieces from the estimated post-pushdown
    /// cardinality instead of the node count.
    explicit_partitions: bool,
    /// Disable zone-map data skipping node-side (`stats_skipping=off`).
    no_skip: bool,
    /// Ship per-piece partial aggregates instead of rows for `agg`
    /// (`agg_pushdown=on`).
    agg_pushdown: bool,
    host: usize,
    resource_pool: Option<String>,
    /// The load's call policy. Its deadline started at open time; its
    /// trace is the `v2s.load` root span every catalog probe, piece
    /// attempt, and hedge parents under, closed when the relation is
    /// dropped.
    policy: CallPolicy,
}

/// One partition's work: queries to issue, each against a specific node.
#[derive(Debug, Clone)]
pub struct PartitionPlan {
    pub pieces: Vec<(usize, RangeSpec)>,
}

/// One query's restriction: a hash range (segmented tables), a
/// synthetic row window (views/unsegmented tables), or the whole
/// relation (unsegmented aggregate pushdown, where partial aggregates
/// do not compose with row windows).
#[derive(Debug, Clone)]
pub enum RangeSpec {
    Hash(HashRange),
    Rows(u64, u64),
    Full,
}

impl DbRelation {
    /// Open a relation: resolve the table or view, pin the epoch, and
    /// pick the partition count.
    pub fn open(cluster: Arc<Cluster>, opts: &ConnectorOptions) -> ConnectorResult<DbRelation> {
        let host = opts.host_on(&cluster)?;
        let epoch = cluster.current_epoch();
        let map = cluster.segment_map_at(epoch);
        let policy =
            CallPolicy::for_job(&cluster, opts).under(obs::global().trace_start(names::V2S_LOAD));
        let resolved = cluster.table_def(&opts.table);
        let is_table = resolved.is_ok();
        let (table, schema, kind) = match resolved {
            Ok(def) if def.is_segmented() => (def.name, def.schema, RelationKind::Segmented),
            Ok(def) => (def.name, def.schema, RelationKind::RowOrdered),
            // A view: discover the schema by executing it with LIMIT 1.
            // The probe is an idempotent catalog read, so it gets the
            // same health steering and hedging as data pieces.
            Err(_) => {
                let spec = QuerySpec::scan(&opts.table).with_limit(1).at_epoch(epoch);
                let open_span = obs::global().span_start(names::V2S_OPEN, policy.trace);
                let probe = policy.under(open_span).read(
                    &cluster,
                    names::V2S_OPEN.name(),
                    &policy.candidates(&cluster, &map, host),
                    catalog_exec(&cluster, names::V2S_OPEN.name(), spec, open_span),
                );
                obs::global().span_finish(open_span, |s| {
                    s.failed = probe.is_err();
                    s.detail = format!("probe view {}", opts.table);
                });
                (opts.table.clone(), probe?.schema, RelationKind::RowOrdered)
            }
        };
        Ok(DbRelation {
            table,
            schema,
            kind,
            is_table,
            epoch,
            map,
            num_partitions: opts.num_partitions.unwrap_or(cluster.node_count()),
            explicit_partitions: opts.num_partitions.is_some(),
            no_skip: !opts.stats_skipping,
            agg_pushdown: opts.agg_pushdown,
            host,
            resource_pool: opts.resource_pool.clone(),
            policy,
            cluster,
        })
    }

    /// The epoch every partition query is pinned to.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    pub fn num_partitions(&self) -> usize {
        self.num_partitions
    }

    /// The load's trace in the global collector.
    pub fn trace_id(&self) -> obs::TraceId {
        self.policy.trace.trace
    }

    /// Render the load's span tree and critical path so far. The
    /// `v2s.load` root stays open until the relation drops, so a live
    /// relation shows it `UNCLOSED` — everything underneath is real.
    pub fn profile(&self) -> String {
        obs::trace::render(&obs::global().trace_spans(self.trace_id()))
    }

    /// Pick the partition count for a scan. An explicit `numPartitions`
    /// always wins; otherwise tables are sized from the zone-map
    /// estimate of the post-pushdown cardinality — enough pieces to keep
    /// every piece under a target row budget, but never fewer than one
    /// per node and never an unbounded fan-out. Views (no table stats)
    /// keep the node-count default.
    fn planned_partitions(&self, filters: &[Expr]) -> usize {
        const TARGET_ROWS_PER_PIECE: u64 = 250_000;
        if self.explicit_partitions {
            return self.num_partitions;
        }
        let predicate = and_filters(filters);
        match mppdb::estimate_scan_rows(&self.cluster, &self.table, predicate.as_ref()) {
            Ok(est) => {
                let nodes = self.cluster.node_count().max(1);
                ((est / TARGET_ROWS_PER_PIECE) as usize).clamp(nodes, nodes * 4)
            }
            // Views have no table stats; keep the default.
            Err(_) => self.num_partitions,
        }
    }

    /// The partition source for one scan over `plans`.
    fn source(
        &self,
        ctx: &SparkContext,
        plans: Vec<PartitionPlan>,
        projection: Option<&[String]>,
        filters: &[Expr],
    ) -> V2sSource {
        V2sSource {
            cluster: Arc::clone(&self.cluster),
            relation_table: self.table.clone(),
            epoch: self.epoch,
            map: Arc::clone(&self.map),
            plans,
            projection: projection.map(|p| p.to_vec()),
            filters: filters.to_vec(),
            no_skip: self.no_skip,
            compute_nodes: ctx.conf().nodes,
            resource_pool: self.resource_pool.clone(),
            policy: self.policy.clone(),
        }
    }

    /// Build the per-partition plans.
    fn plan(&self, partitions: usize) -> ConnectorResult<Vec<PartitionPlan>> {
        match &self.kind {
            RelationKind::Segmented => Ok(plan_hash_partitions(&self.map, partitions)),
            RelationKind::RowOrdered => {
                // Synthetic ranges need the relation's current size at
                // the pinned epoch.
                let spec = QuerySpec::scan(&self.table).at_epoch(self.epoch).count();
                let plan_span = obs::global().span_start(names::V2S_PLAN, self.policy.trace);
                let total = self.policy.under(plan_span).read(
                    &self.cluster,
                    names::V2S_PLAN.name(),
                    &self.policy.candidates(&self.cluster, &self.map, self.host),
                    catalog_exec(&self.cluster, names::V2S_PLAN.name(), spec, plan_span),
                );
                obs::global().span_finish(plan_span, |s| {
                    s.failed = total.is_err();
                    if let Ok(t) = &total {
                        s.rows = t.count;
                    }
                    s.detail = format!("count {}", self.table);
                });
                let total = total?;
                let up = self.cluster.up_nodes();
                if up.is_empty() {
                    return Err(ConnectorError::NoLiveNodes);
                }
                Ok(plan_row_partitions(total.count, partitions, &up))
            }
        }
    }
}

impl Drop for DbRelation {
    fn drop(&mut self) {
        // The relation's lifetime is the load: closing the root here
        // stamps the `v2s.load` duration and feeds its histogram.
        obs::global().span_finish(self.policy.trace, |s| {
            s.detail = format!("load {}", self.table);
        });
    }
}

/// AND a filter list into one predicate.
fn and_filters(filters: &[Expr]) -> Option<Expr> {
    let mut iter = filters.iter().cloned();
    let first = iter.next()?;
    Some(iter.fold(first, |acc, f| acc.and(f)))
}

/// The exec closure for a catalog/status query: connect to the given
/// node under the attempt's cancel token and run the spec. Owned clones
/// only, so a hedge buddy can run it on a pooled thread.
fn catalog_exec(
    cluster: &Arc<Cluster>,
    op: &'static str,
    spec: QuerySpec,
    trace: obs::TraceCtx,
) -> NodeCall<mppdb::QueryResult> {
    let cluster = Arc::clone(cluster);
    Arc::new(move |node, cancel| {
        let mut session = cluster
            .connect_cancellable(node, cancel.clone())
            .map_err(|e| ConnectorError::db(op, e))?;
        session.set_trace(trace);
        session.query(&spec).map_err(|e| ConnectorError::db(op, e))
    })
}

/// Assign hash ranges to partitions per the paper's Fig. 4: with fewer
/// partitions than segments each partition takes a contiguous run of
/// whole segments; with more, each segment is split into equal
/// subranges. Every range is paired with its owning node.
///
/// The returned plan list is the source of truth for partition count:
/// [`HashRange::split`] yields `min(parts, width)` pieces, so a
/// degenerate (narrower-than-parts) segment contributes fewer plans
/// than its share and the Fig. 4(b) total can fall short of
/// `partitions`. Callers must size per-partition state from the
/// returned `Vec` (as `V2sSource::num_partitions` does), never from
/// the requested count.
pub fn plan_hash_partitions(map: &SegmentMap, partitions: usize) -> Vec<PartitionPlan> {
    let segs = map.segments();
    let segments = segs.len();
    let mut plans = Vec::with_capacity(partitions);
    if partitions <= segments {
        // Fig. 4(a): contiguous groups of whole segments.
        for p in 0..partitions {
            let lo = segments * p / partitions;
            let hi = segments * (p + 1) / partitions;
            let pieces = (lo..hi)
                .map(|s| (segs[s].owner, RangeSpec::Hash(segs[s].range)))
                .collect();
            plans.push(PartitionPlan { pieces });
        }
    } else {
        // Fig. 4(b): split each segment into per-segment shares.
        let base = partitions / segments;
        let extra = partitions % segments;
        for (s, seg) in segs.iter().enumerate() {
            let parts = base + usize::from(s < extra);
            for sub in seg.range.split(parts) {
                plans.push(PartitionPlan {
                    pieces: vec![(seg.owner, RangeSpec::Hash(sub))],
                });
            }
        }
    }
    plans
}

/// Synthetic row-range assignment for views/unsegmented tables, with
/// connections spread round-robin over the live nodes.
pub fn plan_row_partitions(
    total_rows: u64,
    partitions: usize,
    up_nodes: &[usize],
) -> Vec<PartitionPlan> {
    assert!(!up_nodes.is_empty(), "no live database nodes");
    (0..partitions)
        .map(|p| {
            let lo = total_rows * p as u64 / partitions as u64;
            let hi = total_rows * (p as u64 + 1) / partitions as u64;
            PartitionPlan {
                pieces: vec![(up_nodes[p % up_nodes.len()], RangeSpec::Rows(lo, hi))],
            }
        })
        .collect()
}

/// The RDD partition source: each partition issues its planned queries
/// through its own connection(s) and pulls the results.
struct V2sSource {
    cluster: Arc<Cluster>,
    relation_table: String,
    epoch: u64,
    /// The relation's pinned map (see [`DbRelation::map`]): failover
    /// candidates and the per-spec version assertion come from here.
    map: Arc<SegmentMap>,
    plans: Vec<PartitionPlan>,
    projection: Option<Vec<String>>,
    filters: Vec<Expr>,
    no_skip: bool,
    compute_nodes: usize,
    resource_pool: Option<String>,
    /// The relation's policy: piece attempts parent at its `v2s.load`
    /// root.
    policy: CallPolicy,
}

/// Everything one piece execution needs, owned, so a hedge buddy can
/// run on a pooled thread.
struct PieceCtx {
    cluster: Arc<Cluster>,
    relation_table: String,
    resource_pool: Option<String>,
    compute_nodes: usize,
    partition: usize,
    /// The piece's locality-preferred owner, for failover accounting.
    preferred: usize,
    spec: QuerySpec,
    /// The map version the piece currently asserts. Starts at the
    /// plan's pinned version; a `StaleSegmentMap` rejection refreshes
    /// it (see [`V2sSource::run_piece`]) so the next attempt carries
    /// the version the engine holds authoritative at the pinned epoch.
    map_version: std::sync::atomic::AtomicU64,
}

/// Execute one piece query against `connect_node` under `cancel` — the
/// hot body shared by the primary and any hedge buddy.
fn exec_piece(
    ctx: &PieceCtx,
    connect_node: usize,
    cancel: &mppdb::Cancel,
    trace: obs::TraceCtx,
) -> ConnectorResult<mppdb::QueryResult> {
    let mut session = ctx
        .cluster
        .connect_cancellable(connect_node, cancel.clone())
        .map_err(|e| ConnectorError::db(names::V2S_CONNECT, e))?;
    session.set_task_tag(Some(ctx.partition as u64));
    session.set_trace(trace);
    if let Some(pool) = &ctx.resource_pool {
        session
            .set_resource_pool(pool)
            .map_err(|e| ConnectorError::db(names::V2S_CONNECT, e))?;
    }
    ctx.cluster.recorder().setup(
        Some(ctx.partition as u64),
        NodeRef::Db(connect_node),
        "v2s_connect",
    );
    let clock = ctx.cluster.clock();
    let piece_started = clock.now();
    let mut spec = ctx.spec.clone();
    if spec.map_version.is_some() {
        spec.map_version = Some(ctx.map_version.load(std::sync::atomic::Ordering::Acquire));
    }
    let spec = &spec;
    // Batched read: the scan stays columnar end to end; rows are
    // only materialized at the Spark partition boundary (compute).
    let result = session
        .query_batched(spec)
        .map_err(|e| ConnectorError::db("v2s.query", e))?;
    // The result set crosses the system boundary to the executor.
    let executor = ctx.partition % ctx.compute_nodes;
    // Result sets cross the boundary in the client protocol's
    // text encoding (what a JDBC result set actually ships).
    let (bytes, rows) = if spec.count_only {
        (8, 1)
    } else {
        (result.text_wire_bytes(), result.num_rows() as u64)
    };
    ctx.cluster.recorder().transfer(
        Some(ctx.partition as u64),
        NodeRef::Db(connect_node),
        NodeRef::Compute(executor),
        NetClass::External,
        bytes,
        rows,
    );
    obs::global().emit(obs::EventKind::V2sPiece, |e| {
        let pushdown = format!(
            "{}{}{}",
            if spec.count_only {
                "count"
            } else if spec.aggregate.is_some() {
                "aggregate"
            } else {
                "scan"
            },
            if spec.projection.is_some() {
                ", projected"
            } else {
                ""
            },
            if spec.predicate.is_some() {
                ", filtered"
            } else {
                ""
            },
        );
        e.task = Some(ctx.partition as u64);
        e.node = Some(connect_node as u64);
        e.rows = rows;
        e.bytes = bytes;
        e.dur_us = clock.since(piece_started).as_micros() as u64;
        e.detail = format!(
            "{} from {} ({pushdown}{})",
            match (spec.hash_range, spec.row_range) {
                (Some(_), _) => "hash range",
                (_, Some(_)) => "row range",
                _ => "full scan",
            },
            ctx.relation_table,
            if connect_node == ctx.preferred {
                ""
            } else {
                ", failover"
            },
        );
    });
    if connect_node != ctx.preferred {
        obs::global().add(names::FAILOVER_READS, 1);
    }
    obs::global().add(names::V2S_PIECES, 1);
    obs::global().add(names::V2S_ROWS, rows);
    obs::global().add(names::V2S_BYTES, bytes);
    obs::global().record_histo(names::V2S_PIECE_BYTES, bytes);
    obs::global().record_time(names::V2S_PIECE_US, clock.since(piece_started));
    Ok(result)
}

impl V2sSource {
    fn run_piece(
        &self,
        partition: usize,
        node: usize,
        spec: &QuerySpec,
    ) -> ConnectorResult<mppdb::QueryResult> {
        // Buddies come from the *pinned* map: they hold replicas of
        // exactly this range at the load's epoch.
        let candidates = self.policy.candidates(&self.cluster, &self.map, node);
        let ctx = Arc::new(PieceCtx {
            cluster: Arc::clone(&self.cluster),
            relation_table: self.relation_table.clone(),
            resource_pool: self.resource_pool.clone(),
            compute_nodes: self.compute_nodes,
            partition,
            preferred: node,
            spec: spec.clone(),
            map_version: std::sync::atomic::AtomicU64::new(spec.map_version.unwrap_or(0)),
        });
        self.policy.run(names::V2S_PIECE.name(), |attempt| {
            let span = obs::global().span_start(names::V2S_PIECE, self.policy.trace);
            let result = self.policy.read_attempt(
                &self.cluster,
                names::V2S_PIECE.name(),
                &candidates,
                attempt,
                span,
                Arc::new({
                    let ctx = Arc::clone(&ctx);
                    move |n, cancel| exec_piece(&ctx, n, cancel, span)
                }),
            );
            // The engine rejected the plan's map version: the cluster
            // rebalanced under the client. Adopt the version it holds
            // authoritative (StaleSegmentMap is transient, so the retry
            // loop re-runs the piece with the refreshed assertion —
            // the epoch pin keeps the ranges themselves valid).
            if let Err(ConnectorError::Db {
                source: mppdb::DbError::StaleSegmentMap { current, .. },
                ..
            }) = &result
            {
                ctx.map_version
                    .store(*current, std::sync::atomic::Ordering::Release);
                obs::global().incr(names::V2S_MAP_REFRESH);
            }
            obs::global().span_finish(span, |s| {
                s.task = Some(partition as u64);
                s.attempt = attempt;
                s.node = Some(node as u64);
                s.failed = result.is_err();
                s.detail = format!("{} piece {partition}", self.relation_table);
            });
            result
        })
    }
}

impl PartitionSource<Row> for V2sSource {
    fn num_partitions(&self) -> usize {
        self.plans.len()
    }

    fn compute(&self, partition: usize) -> SparkResult<Partition<Row>> {
        let _ = self.epoch; // pinned inside each spec
        let mut rows = Vec::new();
        for (node, range) in &self.plans[partition].pieces {
            let spec = build_piece_spec(
                &self.relation_table,
                self.epoch,
                self.map.version(),
                range,
                self.projection.as_deref(),
                &self.filters,
                false,
                self.no_skip,
            );
            rows.extend(
                self.run_piece(partition, *node, &spec)
                    .map_err(SparkError::from)?
                    .into_rows(),
            );
        }
        Ok(rows.into())
    }
}

#[allow(clippy::too_many_arguments)]
fn build_piece_spec(
    table: &str,
    epoch: u64,
    map_version: u64,
    range: &RangeSpec,
    projection: Option<&[String]>,
    filters: &[Expr],
    count_only: bool,
    no_skip: bool,
) -> QuerySpec {
    let mut spec = QuerySpec::scan(table).at_epoch(epoch);
    match range {
        // Hash ranges only mean something relative to a specific map
        // version, so those pieces assert it; row windows and full
        // scans are map-independent.
        RangeSpec::Hash(r) => {
            spec.hash_range = Some(*r);
            spec.map_version = Some(map_version);
        }
        RangeSpec::Rows(lo, hi) => spec.row_range = Some((*lo, *hi)),
        RangeSpec::Full => {}
    }
    spec.projection = projection.map(|p| p.to_vec());
    spec.predicate = and_filters(filters);
    spec.count_only = count_only;
    spec.no_skip = no_skip;
    spec
}

impl ScanRelation for DbRelation {
    fn schema(&self) -> Schema {
        self.schema.clone()
    }

    fn scan(
        &self,
        ctx: &SparkContext,
        projection: Option<&[String]>,
        filters: &[Expr],
    ) -> SparkResult<Rdd<Row>> {
        let plans = self
            .plan(self.planned_partitions(filters))
            .map_err(SparkError::from)?;
        let source = self.source(ctx, plans, projection, filters);
        Ok(Rdd::from_source(ctx.clone(), Arc::new(source)))
    }

    /// Count pushdown: every partition ships back an 8-byte count
    /// instead of rows.
    fn count(&self, ctx: &SparkContext, filters: &[Expr]) -> SparkResult<u64> {
        let plans = self
            .plan(self.planned_partitions(filters))
            .map_err(SparkError::from)?;
        let source = self.source(ctx, plans, None, filters);
        let counts =
            ctx.run_partitions_traced(source.num_partitions(), self.policy.trace, |tc| {
                let mut total = 0u64;
                for (node, range) in &source.plans[tc.partition].pieces {
                    let spec = build_piece_spec(
                        &source.relation_table,
                        source.epoch,
                        source.map.version(),
                        range,
                        None,
                        &source.filters,
                        true,
                        source.no_skip,
                    );
                    total += source
                        .run_piece(tc.partition, *node, &spec)
                        .map_err(SparkError::from)?
                        .count;
                }
                Ok(total)
            })?;
        Ok(counts.into_iter().sum())
    }

    /// Aggregate pushdown: every piece ships back partial accumulator
    /// states (a handful of rows) instead of its matching rows, and the
    /// driver merges each piece's partials exactly once. Retried or
    /// hedged piece attempts cannot double-count — a piece's partials
    /// enter the merge only after its retry loop returns its single
    /// success, so `agg.pushdown.partials_merged` equals the piece
    /// count even when nodes die mid-read.
    fn aggregate(
        &self,
        ctx: &SparkContext,
        filters: &[Expr],
        request: &AggRequest,
    ) -> SparkResult<(Schema, Vec<Row>)> {
        // Views have no node-side aggregate path, and `agg_pushdown=off`
        // forces the materialize-then-aggregate baseline for ablations.
        if !self.agg_pushdown || !self.is_table {
            let rows = self.scan(ctx, None, filters)?.collect()?;
            return agg::aggregate_rows(&self.schema, &rows, request).map_err(SparkError::from);
        }
        let plans = match self.kind {
            RelationKind::Segmented => {
                // Partials are tiny, so one piece per segment is enough
                // parallelism unless the user asked for more.
                let partitions = if self.explicit_partitions {
                    self.num_partitions
                } else {
                    self.cluster.node_count()
                };
                plan_hash_partitions(&self.map, partitions)
            }
            RelationKind::RowOrdered => {
                // Partial aggregates do not compose with row windows:
                // an unsegmented table runs as one whole-relation piece.
                let up = self.cluster.up_nodes();
                if up.is_empty() {
                    return Err(SparkError::from(ConnectorError::NoLiveNodes));
                }
                vec![PartitionPlan {
                    pieces: vec![(up[0], RangeSpec::Full)],
                }]
            }
        };
        let source = self.source(ctx, plans, None, filters);
        let request_owned = request.clone();
        let partials: Vec<Vec<Vec<Row>>> =
            ctx.run_partitions_traced(source.num_partitions(), self.policy.trace, |tc| {
                let mut per_piece = Vec::new();
                for (node, range) in &source.plans[tc.partition].pieces {
                    let spec = build_piece_spec(
                        &source.relation_table,
                        source.epoch,
                        source.map.version(),
                        range,
                        None,
                        &source.filters,
                        false,
                        source.no_skip,
                    )
                    .aggregate(request_owned.clone())
                    .partial_aggregates();
                    per_piece.push(
                        source
                            .run_piece(tc.partition, *node, &spec)
                            .map_err(SparkError::from)?
                            .into_rows(),
                    );
                }
                Ok(per_piece)
            })?;
        let key_width = request.group_by.len();
        let mut accs = GroupedAccs::new(request.calls.iter().map(|c| c.func).collect());
        for per_piece in partials {
            for piece_rows in per_piece {
                for row in &piece_rows {
                    accs.absorb_partial_row(row, key_width)
                        .map_err(SparkError::from)?;
                }
                obs::global().add(names::AGG_PUSHDOWN_PARTIALS_MERGED, 1);
            }
        }
        if key_width == 0 {
            accs.ensure_global_group();
        }
        let schema = request
            .output_schema(&self.schema)
            .map_err(SparkError::from)?;
        Ok((schema, accs.finalize_rows()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fewer_partitions_take_whole_segments() {
        let map = SegmentMap::new(4);
        let plans = plan_hash_partitions(&map, 2);
        assert_eq!(plans.len(), 2);
        // Fig. 4(a): each partition requests 2 whole segments.
        assert_eq!(plans[0].pieces.len(), 2);
        assert_eq!(plans[1].pieces.len(), 2);
        // Locality: each piece targets the segment's owner.
        for plan in &plans {
            for (node, range) in &plan.pieces {
                let RangeSpec::Hash(r) = range else { panic!() };
                assert_eq!(*r, map.segment_range(*node));
            }
        }
    }

    #[test]
    fn more_partitions_split_segments() {
        let map = SegmentMap::new(4);
        let plans = plan_hash_partitions(&map, 8);
        assert_eq!(plans.len(), 8);
        // Fig. 4(b): each partition gets half a segment, all local.
        for plan in &plans {
            assert_eq!(plan.pieces.len(), 1);
            let (node, RangeSpec::Hash(r)) = &plan.pieces[0] else {
                panic!()
            };
            assert!(map.segment_range(*node).intersect(r).is_some());
            let owner_lo = map.owner_of_hash(r.start);
            assert_eq!(owner_lo, *node, "range is local to its node");
        }
    }

    #[test]
    fn hash_plans_tile_the_ring_exactly() {
        for (segments, partitions) in [(4, 1), (4, 3), (4, 4), (4, 7), (4, 32), (3, 8), (8, 256)] {
            let map = SegmentMap::new(segments);
            let plans = plan_hash_partitions(&map, partitions);
            let mut ranges: Vec<HashRange> = plans
                .iter()
                .flat_map(|p| {
                    p.pieces.iter().map(|(_, r)| match r {
                        RangeSpec::Hash(h) => *h,
                        _ => panic!("hash plan expected"),
                    })
                })
                .collect();
            ranges.sort_by_key(|r| r.start);
            assert_eq!(ranges[0].start, 0, "{segments}:{partitions}");
            assert_eq!(ranges.last().unwrap().end, None);
            for w in ranges.windows(2) {
                assert_eq!(
                    w[0].end,
                    Some(w[1].start),
                    "gap/overlap at {segments}:{partitions}"
                );
            }
        }
    }

    #[test]
    fn row_plans_cover_all_rows() {
        let plans = plan_row_partitions(100, 7, &[0, 1, 2, 3]);
        assert_eq!(plans.len(), 7);
        let mut covered = 0u64;
        for plan in &plans {
            let (_, RangeSpec::Rows(lo, hi)) = &plan.pieces[0] else {
                panic!()
            };
            covered += hi - lo;
        }
        assert_eq!(covered, 100);
        // Nodes round-robin.
        let nodes: Vec<usize> = plans.iter().map(|p| p.pieces[0].0).collect();
        assert_eq!(nodes, vec![0, 1, 2, 3, 0, 1, 2]);
    }

    #[test]
    fn stale_map_version_refreshes_and_retries() {
        use common::{row, DataType};
        use mppdb::{ClusterConfig, Segmentation, TableDef};

        let cluster = Arc::new(Cluster::new(ClusterConfig::default()));
        let schema = Schema::from_pairs(&[("id", DataType::Int64), ("v", DataType::Float64)]);
        cluster
            .create_table(
                TableDef::new("stale", schema, Segmentation::ByHash(vec!["id".into()])).unwrap(),
            )
            .unwrap();
        let rows: Vec<Row> = (0..100).map(|i| row![i as i64, 0.5f64]).collect();
        cluster.connect(0).unwrap().insert("stale", rows).unwrap();

        let epoch = cluster.current_epoch();
        let map = cluster.segment_map_at(epoch);
        let owner = map.segments()[0].owner;
        let range = map.segments()[0].range;
        let source = V2sSource {
            cluster: Arc::clone(&cluster),
            relation_table: "stale".into(),
            epoch,
            map: Arc::clone(&map),
            plans: vec![PartitionPlan {
                pieces: vec![(owner, RangeSpec::Hash(range))],
            }],
            projection: None,
            filters: Vec::new(),
            no_skip: false,
            compute_nodes: 2,
            resource_pool: None,
            policy: CallPolicy::for_job(
                &cluster,
                &ConnectorOptions::builder("stale")
                    .failover(false)
                    .hedge(false)
                    .build()
                    .unwrap(),
            ),
        };
        // A spec asserting a version the engine never published: the
        // first attempt is rejected with `StaleSegmentMap`, the piece
        // adopts the engine's authoritative version, and the retry
        // succeeds against the same epoch-pinned ranges.
        let mut spec = build_piece_spec(
            "stale",
            epoch,
            99,
            &RangeSpec::Hash(range),
            None,
            &[],
            false,
            false,
        );
        assert_eq!(spec.map_version, Some(99));
        let before = obs::global().snapshot();
        let result = source.run_piece(0, owner, &spec).unwrap();
        assert!(result.num_rows() > 0);
        let delta = obs::global().snapshot().counters_since(&before);
        assert!(delta.get("v2s.map_refresh").copied().unwrap_or(0) >= 1);
        // The correct version passes on the first attempt — no refresh.
        spec.map_version = Some(map.version());
        let before = obs::global().snapshot();
        source.run_piece(0, owner, &spec).unwrap();
        let delta = obs::global().snapshot().counters_since(&before);
        assert_eq!(delta.get("v2s.map_refresh").copied().unwrap_or(0), 0);
    }

    #[test]
    fn and_filters_combines() {
        assert!(and_filters(&[]).is_none());
        let one = and_filters(&[Expr::col("a").gt(Expr::lit(1i64))]).unwrap();
        assert_eq!(one.to_sql(), "(a > 1)");
        let two = and_filters(&[
            Expr::col("a").gt(Expr::lit(1i64)),
            Expr::col("b").lt(Expr::lit(2i64)),
        ])
        .unwrap();
        assert_eq!(two.to_sql(), "((a > 1) AND (b < 2))");
    }
}
