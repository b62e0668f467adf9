//! Virtual system tables.
//!
//! The connector's locality planning rests on the fact that "the
//! hash-ring segmentation boundaries, along with the node that contains
//! each segment ... is stored in the Vertica system catalog and can be
//! queried" (paper Sec. 3.1.2). These read-only virtual tables expose
//! that metadata — and the data-collector's observability feed — to
//! SQL:
//!
//! * `v_segments` — one row per hash-ring segment: its owning node and
//!   its boundaries (hex, since the ring is the full 64-bit space),
//! * `v_tables` — catalog objects with their segmentation,
//! * `v_nodes` — node liveness and open session counts,
//! * `v_resource_pools` — admission-control pools: concurrency bound,
//!   live/queued statement counts, and shed totals,
//! * `dc_events` — the structured event log from the process-wide
//!   data collector (task launches, transactions, COPY loads, S2V
//!   phases, ...), one row per event in sequence order,
//! * `dc_counters` — monotonic counters plus flattened timer
//!   statistics (`<timer>.count`, `.sum_us`, `.min_us`, `.max_us`,
//!   `.p50_us`, `.p99_us`) as name/value pairs,
//! * `dc_lock_edges` — the lock-order witness's acquisition-order
//!   graph (debug/test builds): one row per observed "lock of class
//!   `from_class` held while acquiring `to_class`" edge. Empty in
//!   release builds, where the witness compiles out,
//! * `dc_spans` — every retained distributed-trace span: trace/span/
//!   parent ids, name, timing, node/task/attempt tags, and row/byte
//!   payloads. `dur_us` is NULL while a span is unclosed,
//! * `dc_trace_summary` — one row per retained trace: its root span,
//!   span/failure/unclosed counts, total duration, and the rendered
//!   critical-path attribution line,
//! * `dc_histograms` — the log-linear value histograms
//!   (`Metric::Histo`): count/sum/min/max plus P50/P95/P99. Values
//!   are unit-free — span histograms hold microseconds,
//!   `v2s.piece_bytes` holds bytes,
//! * `dc_column_stats` — per-ROS-container column statistics: row and
//!   null counts, the NDV estimate, the encoding chosen, and the
//!   min/max zone-map endpoints (rendered as text; NULL when the store
//!   kept no endpoint). One row per node × container × column — what
//!   the scan planner and zone-map skipping actually consult,
//! * `dc_tuple_mover` — the tuple mover's retained operation log: one
//!   row per completed moveout/mergeout with rows moved, containers
//!   consumed/produced, the epoch it ran at, and its duration,
//! * `dc_nodes` — the elastic-membership view of the cluster: per node
//!   its liveness, retirement, kill-generation, open sessions, and how
//!   many times recovery rebuilt its stores,
//! * `dc_segment_map` — every retained segment-map version: one row per
//!   version × segment with the epoch the version became authoritative
//!   at, so epoch-pinned ownership is auditable from SQL,
//! * `dc_rebalance` — the rebalancer's retained operation log: plans,
//!   per-range copies, skips, injected crashes, and map flips.
//!
//! All tables are defined in one place (`DEFS`): the name list and
//! the scan dispatch both derive from it, so they cannot drift apart.

use common::{DataType, Row, Schema, Value};

use crate::cluster::Cluster;

/// A virtual-table definition: its name and the function producing its
/// contents. The single source of truth for both [`SYSTEM_TABLES`] and
/// [`scan_system_table`].
struct SystemTableDef {
    name: &'static str,
    scan: fn(&Cluster) -> (Schema, Vec<Row>),
}

static DEFS: &[SystemTableDef] = &[
    SystemTableDef {
        name: "v_segments",
        scan: scan_segments,
    },
    SystemTableDef {
        name: "v_tables",
        scan: scan_tables,
    },
    SystemTableDef {
        name: "v_nodes",
        scan: scan_nodes,
    },
    SystemTableDef {
        name: "v_resource_pools",
        scan: scan_resource_pools,
    },
    SystemTableDef {
        name: "dc_events",
        scan: scan_dc_events,
    },
    SystemTableDef {
        name: "dc_counters",
        scan: scan_dc_counters,
    },
    SystemTableDef {
        name: "dc_lock_edges",
        scan: scan_dc_lock_edges,
    },
    SystemTableDef {
        name: "dc_spans",
        scan: scan_dc_spans,
    },
    SystemTableDef {
        name: "dc_trace_summary",
        scan: scan_dc_trace_summary,
    },
    SystemTableDef {
        name: "dc_histograms",
        scan: scan_dc_histograms,
    },
    SystemTableDef {
        name: "dc_column_stats",
        scan: scan_dc_column_stats,
    },
    SystemTableDef {
        name: "dc_tuple_mover",
        scan: scan_dc_tuple_mover,
    },
    SystemTableDef {
        name: "dc_nodes",
        scan: scan_dc_nodes,
    },
    SystemTableDef {
        name: "dc_segment_map",
        scan: scan_dc_segment_map,
    },
    SystemTableDef {
        name: "dc_rebalance",
        scan: scan_dc_rebalance,
    },
];

/// One row per registered node slot, retired ones included — the
/// elastic-membership companion to `v_nodes`.
fn scan_dc_nodes(cluster: &Cluster) -> (Schema, Vec<Row>) {
    let schema = Schema::from_pairs(&[
        ("node", DataType::Int64),
        ("is_up", DataType::Boolean),
        ("retired", DataType::Boolean),
        ("generation", DataType::Int64),
        ("open_sessions", DataType::Int64),
        ("rebuilds", DataType::Int64),
    ]);
    let rows = (0..cluster.node_count())
        .map(|n| {
            Row::new(vec![
                Value::Int64(n as i64),
                Value::Boolean(cluster.is_node_up(n)),
                Value::Boolean(cluster.is_node_retired(n)),
                Value::Int64(cluster.node_generation(n) as i64),
                Value::Int64(cluster.open_sessions(n) as i64),
                Value::Int64(cluster.node_rebuilds(n) as i64),
            ])
        })
        .collect();
    (schema, rows)
}

/// One row per retained map version × segment, newest version last.
fn scan_dc_segment_map(cluster: &Cluster) -> (Schema, Vec<Row>) {
    let schema = Schema::from_pairs(&[
        ("version", DataType::Int64),
        ("effective_epoch", DataType::Int64),
        ("segment", DataType::Int64),
        ("owner", DataType::Int64),
        ("start_hash", DataType::Varchar),
        ("end_hash", DataType::Varchar),
        ("is_current", DataType::Boolean),
    ]);
    let history = cluster.segment_map_history();
    let current = history.last().map(|mv| mv.map.version());
    let mut rows = Vec::new();
    for mv in &history {
        for (s, seg) in mv.map.segments().iter().enumerate() {
            rows.push(Row::new(vec![
                Value::Int64(mv.map.version() as i64),
                Value::Int64(mv.effective_epoch as i64),
                Value::Int64(s as i64),
                Value::Int64(seg.owner as i64),
                Value::Varchar(format!("{:016x}", seg.range.start)),
                Value::Varchar(render_end_hash(seg.range.end)),
                Value::Boolean(Some(mv.map.version()) == current),
            ]));
        }
    }
    (schema, rows)
}

/// One row per retained rebalance operation, oldest first.
fn scan_dc_rebalance(cluster: &Cluster) -> (Schema, Vec<Row>) {
    let schema = Schema::from_pairs(&[
        ("seq", DataType::Int64),
        ("op", DataType::Varchar),
        ("node", DataType::Int64),
        ("table_name", DataType::Varchar),
        ("rows", DataType::Int64),
        ("start_hash", DataType::Varchar),
        ("end_hash", DataType::Varchar),
        ("map_version", DataType::Int64),
        ("epoch", DataType::Int64),
        ("dur_us", DataType::Int64),
    ]);
    let rows = cluster
        .rebalance_ops()
        .into_iter()
        .map(|op| {
            Row::new(vec![
                Value::Int64(op.seq as i64),
                Value::Varchar(op.op.to_string()),
                Value::Int64(op.node as i64),
                Value::Varchar(op.table),
                Value::Int64(op.rows as i64),
                Value::Varchar(format!("{:016x}", op.range_start)),
                Value::Varchar(render_end_hash(op.range_end)),
                Value::Int64(op.map_version as i64),
                Value::Int64(op.epoch as i64),
                Value::Int64(op.dur_us as i64),
            ])
        })
        .collect();
    (schema, rows)
}

/// Exclusive range ends render in hex; `None` is the wrapped top of the
/// 64-bit ring.
fn render_end_hash(end: Option<u64>) -> String {
    end.map(|e| format!("{e:016x}"))
        .unwrap_or_else(|| "ffffffffffffffff+1".to_string())
}

/// One row per retained tuple-mover operation, oldest first.
fn scan_dc_tuple_mover(cluster: &Cluster) -> (Schema, Vec<Row>) {
    let schema = Schema::from_pairs(&[
        ("seq", DataType::Int64),
        ("op", DataType::Varchar),
        ("node", DataType::Int64),
        ("table_name", DataType::Varchar),
        ("rows", DataType::Int64),
        ("containers_in", DataType::Int64),
        ("containers_out", DataType::Int64),
        ("epoch", DataType::Int64),
        ("dur_us", DataType::Int64),
    ]);
    let rows = cluster
        .mover_ops()
        .into_iter()
        .map(|op| {
            Row::new(vec![
                Value::Int64(op.seq as i64),
                Value::Varchar(op.op.to_string()),
                Value::Int64(op.node as i64),
                Value::Varchar(op.table),
                Value::Int64(op.rows as i64),
                Value::Int64(op.containers_in as i64),
                Value::Int64(op.containers_out as i64),
                Value::Int64(op.epoch as i64),
                Value::Int64(op.dur_us as i64),
            ])
        })
        .collect();
    (schema, rows)
}

/// Names of the available system tables.
pub const SYSTEM_TABLES: &[&str] = &[
    "v_segments",
    "v_tables",
    "v_nodes",
    "v_resource_pools",
    "dc_events",
    "dc_counters",
    "dc_lock_edges",
    "dc_spans",
    "dc_trace_summary",
    "dc_histograms",
    "dc_column_stats",
    "dc_tuple_mover",
    "dc_nodes",
    "dc_segment_map",
    "dc_rebalance",
];

/// Produce the contents of a system table, or `None` if `name` isn't one.
pub(crate) fn scan_system_table(cluster: &Cluster, name: &str) -> Option<(Schema, Vec<Row>)> {
    let name = name.to_ascii_lowercase();
    DEFS.iter()
        .find(|d| d.name == name)
        .map(|d| (d.scan)(cluster))
}

fn scan_segments(cluster: &Cluster) -> (Schema, Vec<Row>) {
    let schema = Schema::from_pairs(&[
        ("segment", DataType::Int64),
        ("node", DataType::Int64),
        ("start_hash", DataType::Varchar),
        ("end_hash", DataType::Varchar),
    ]);
    let map = cluster.segment_map();
    let rows = map
        .segments()
        .iter()
        .enumerate()
        .map(|(s, seg)| {
            Row::new(vec![
                Value::Int64(s as i64),
                Value::Int64(seg.owner as i64),
                Value::Varchar(format!("{:016x}", seg.range.start)),
                Value::Varchar(render_end_hash(seg.range.end)),
            ])
        })
        .collect();
    (schema, rows)
}

fn scan_tables(cluster: &Cluster) -> (Schema, Vec<Row>) {
    let schema = Schema::from_pairs(&[
        ("table_name", DataType::Varchar),
        ("segmented", DataType::Boolean),
        ("segmentation_columns", DataType::Varchar),
        ("column_count", DataType::Int64),
        ("is_temp", DataType::Boolean),
    ]);
    let catalog = cluster.catalog.read();
    let rows = catalog
        .table_names()
        .into_iter()
        .filter_map(|name| {
            let def = catalog.table(&name).ok()?;
            let seg_cols = match &def.segmentation {
                crate::catalog::Segmentation::ByHash(cols) => cols.join(","),
                crate::catalog::Segmentation::Unsegmented => String::new(),
            };
            Some(Row::new(vec![
                Value::Varchar(def.name.clone()),
                Value::Boolean(def.is_segmented()),
                Value::Varchar(seg_cols),
                Value::Int64(def.schema.len() as i64),
                Value::Boolean(def.is_temp),
            ]))
        })
        .collect();
    (schema, rows)
}

fn scan_nodes(cluster: &Cluster) -> (Schema, Vec<Row>) {
    let schema = Schema::from_pairs(&[
        ("node", DataType::Int64),
        ("is_up", DataType::Boolean),
        ("open_sessions", DataType::Int64),
    ]);
    let rows = (0..cluster.node_count())
        .map(|n| {
            Row::new(vec![
                Value::Int64(n as i64),
                Value::Boolean(cluster.is_node_up(n)),
                Value::Int64(cluster.open_sessions(n) as i64),
            ])
        })
        .collect();
    (schema, rows)
}

fn scan_resource_pools(cluster: &Cluster) -> (Schema, Vec<Row>) {
    let schema = Schema::from_pairs(&[
        ("pool_name", DataType::Varchar),
        ("max_concurrency", DataType::Int64),
        ("max_queue", DataType::Int64),
        ("queue_timeout_ms", DataType::Int64),
        ("active", DataType::Int64),
        ("waiting", DataType::Int64),
        ("high_water", DataType::Int64),
        ("shed_total", DataType::Int64),
    ]);
    // Effectively-unbounded limits render as i64::MAX rather than
    // wrapping negative.
    let clamp = |n: usize| i64::try_from(n).unwrap_or(i64::MAX);
    let rows = cluster
        .resource_pools()
        .into_iter()
        .map(|p| {
            Row::new(vec![
                Value::Varchar(p.name().to_string()),
                Value::Int64(clamp(p.max_concurrency())),
                Value::Int64(clamp(p.max_queue())),
                p.queue_timeout()
                    .map(|t| Value::Int64(i64::try_from(t.as_millis()).unwrap_or(i64::MAX)))
                    .unwrap_or(Value::Null),
                Value::Int64(p.active() as i64),
                Value::Int64(p.waiting() as i64),
                Value::Int64(p.high_water_mark() as i64),
                Value::Int64(i64::try_from(p.shed_count()).unwrap_or(i64::MAX)),
            ])
        })
        .collect();
    (schema, rows)
}

fn scan_dc_events(_cluster: &Cluster) -> (Schema, Vec<Row>) {
    let schema = Schema::from_pairs(&[
        ("seq", DataType::Int64),
        ("ts_us", DataType::Int64),
        ("dur_us", DataType::Int64),
        ("kind", DataType::Varchar),
        ("job", DataType::Varchar),
        ("task", DataType::Int64),
        ("node", DataType::Int64),
        ("rows", DataType::Int64),
        ("bytes", DataType::Int64),
        ("detail", DataType::Varchar),
    ]);
    let snap = obs::global().snapshot();
    let rows = snap
        .events
        .into_iter()
        .map(|e| {
            Row::new(vec![
                Value::Int64(e.seq as i64),
                Value::Int64(e.ts_us as i64),
                Value::Int64(e.dur_us as i64),
                Value::Varchar(e.kind.as_str().to_string()),
                e.job.map(Value::Varchar).unwrap_or(Value::Null),
                e.task
                    .map(|t| Value::Int64(t as i64))
                    .unwrap_or(Value::Null),
                e.node
                    .map(|n| Value::Int64(n as i64))
                    .unwrap_or(Value::Null),
                Value::Int64(e.rows as i64),
                Value::Int64(e.bytes as i64),
                Value::Varchar(e.detail),
            ])
        })
        .collect();
    (schema, rows)
}

fn scan_dc_counters(_cluster: &Cluster) -> (Schema, Vec<Row>) {
    let schema = Schema::from_pairs(&[("name", DataType::Varchar), ("value", DataType::Int64)]);
    let snap = obs::global().snapshot();
    let mut rows: Vec<Row> = snap
        .counters
        .iter()
        .map(|(name, value)| {
            Row::new(vec![
                Value::Varchar(name.clone()),
                Value::Int64(*value as i64),
            ])
        })
        .collect();
    for (name, t) in &snap.timers {
        for (suffix, value) in [
            ("count", t.count),
            ("sum_us", t.sum_us),
            ("min_us", t.min_us),
            ("max_us", t.max_us),
            ("p50_us", t.p50_us),
            ("p99_us", t.p99_us),
        ] {
            rows.push(Row::new(vec![
                Value::Varchar(format!("{name}.{suffix}")),
                Value::Int64(value as i64),
            ]));
        }
    }
    rows.push(Row::new(vec![
        Value::Varchar("dc.dropped_events".to_string()),
        Value::Int64(snap.dropped_events as i64),
    ]));
    rows.push(Row::new(vec![
        Value::Varchar("dc.dropped_spans".to_string()),
        Value::Int64(snap.dropped_spans as i64),
    ]));
    // Lock-order-witness findings are pulled here rather than pushed
    // through the collector: the witness hooks run while a freshly
    // acquired guard is still held, so an emit from inside them could
    // re-enter the collector's own locks. Absent in release builds,
    // where the witness compiles out.
    if parking_lot::witness::active() {
        for (name, value) in [
            (
                obs::names::LOCKWITNESS_CLASSES,
                common::locks::ALL.len() as u64,
            ),
            (
                obs::names::LOCKWITNESS_EDGES,
                parking_lot::witness::edge_count(),
            ),
            (
                obs::names::LOCKWITNESS_HAZARDS,
                parking_lot::witness::hazard_count(),
            ),
            (
                obs::names::LOCKWITNESS_INVERSIONS,
                parking_lot::witness::inversion_count(),
            ),
        ] {
            rows.push(Row::new(vec![
                Value::Varchar(name.to_string()),
                Value::Int64(i64::try_from(value).unwrap_or(i64::MAX)),
            ]));
        }
    }
    (schema, rows)
}

fn scan_dc_lock_edges(_cluster: &Cluster) -> (Schema, Vec<Row>) {
    let schema = Schema::from_pairs(&[
        ("from_class", DataType::Varchar),
        ("to_class", DataType::Varchar),
        ("count", DataType::Int64),
    ]);
    let snap = parking_lot::witness::snapshot();
    let rows = snap
        .edges
        .into_iter()
        .map(|e| {
            Row::new(vec![
                Value::Varchar(e.from.to_string()),
                Value::Varchar(e.to.to_string()),
                Value::Int64(i64::try_from(e.count).unwrap_or(i64::MAX)),
            ])
        })
        .collect();
    (schema, rows)
}

fn scan_dc_spans(_cluster: &Cluster) -> (Schema, Vec<Row>) {
    let schema = Schema::from_pairs(&[
        ("trace_id", DataType::Int64),
        ("span_id", DataType::Int64),
        ("parent_id", DataType::Int64),
        ("name", DataType::Varchar),
        ("start_us", DataType::Int64),
        ("dur_us", DataType::Int64),
        ("node", DataType::Int64),
        ("task", DataType::Int64),
        ("attempt", DataType::Int64),
        ("rows", DataType::Int64),
        ("bytes", DataType::Int64),
        ("failed", DataType::Boolean),
        ("detail", DataType::Varchar),
    ]);
    let rows = obs::global()
        .all_spans()
        .into_iter()
        .map(|s| {
            Row::new(vec![
                Value::Int64(s.trace.0 as i64),
                Value::Int64(s.span.0 as i64),
                s.parent
                    .map(|p| Value::Int64(p.0 as i64))
                    .unwrap_or(Value::Null),
                Value::Varchar(s.name.to_string()),
                Value::Int64(s.start_us as i64),
                // NULL marks an unclosed span; 0 is a real (sub-µs)
                // duration.
                s.end_us
                    .map(|_| Value::Int64(s.dur_us() as i64))
                    .unwrap_or(Value::Null),
                s.node
                    .map(|n| Value::Int64(n as i64))
                    .unwrap_or(Value::Null),
                s.task
                    .map(|t| Value::Int64(t as i64))
                    .unwrap_or(Value::Null),
                Value::Int64(s.attempt as i64),
                Value::Int64(s.rows as i64),
                Value::Int64(s.bytes as i64),
                Value::Boolean(s.failed),
                Value::Varchar(s.detail),
            ])
        })
        .collect();
    (schema, rows)
}

fn scan_dc_trace_summary(_cluster: &Cluster) -> (Schema, Vec<Row>) {
    let schema = Schema::from_pairs(&[
        ("trace_id", DataType::Int64),
        ("root", DataType::Varchar),
        ("spans", DataType::Int64),
        ("failed_spans", DataType::Int64),
        ("unclosed_spans", DataType::Int64),
        ("orphan_spans", DataType::Int64),
        ("dur_us", DataType::Int64),
        ("critical_path", DataType::Varchar),
    ]);
    let rows = obs::global()
        .traces()
        .into_iter()
        .filter_map(|(id, spans)| {
            let root = spans.iter().find(|s| s.parent.is_none())?;
            let issues = obs::trace::validate(&spans);
            let unclosed = issues
                .iter()
                .filter(|i| matches!(i, obs::trace::TraceIssue::Unclosed { .. }))
                .count();
            let orphans = issues.len() - unclosed;
            Some(Row::new(vec![
                Value::Int64(id.0 as i64),
                Value::Varchar(root.name.to_string()),
                Value::Int64(spans.len() as i64),
                Value::Int64(spans.iter().filter(|s| s.failed).count() as i64),
                Value::Int64(unclosed as i64),
                Value::Int64(orphans as i64),
                root.end_us
                    .map(|_| Value::Int64(root.dur_us() as i64))
                    .unwrap_or(Value::Null),
                Value::Varchar(obs::trace::critical_path_text(&spans)),
            ]))
        })
        .collect();
    (schema, rows)
}

fn scan_dc_histograms(_cluster: &Cluster) -> (Schema, Vec<Row>) {
    let schema = Schema::from_pairs(&[
        ("name", DataType::Varchar),
        ("count", DataType::Int64),
        ("sum", DataType::Int64),
        ("min", DataType::Int64),
        ("max", DataType::Int64),
        ("p50", DataType::Int64),
        ("p95", DataType::Int64),
        ("p99", DataType::Int64),
    ]);
    let snap = obs::global().snapshot();
    let rows = snap
        .histos
        .iter()
        .map(|(name, h)| {
            let s = h.stats();
            Row::new(vec![
                Value::Varchar(name.clone()),
                Value::Int64(s.count as i64),
                Value::Int64(s.sum as i64),
                Value::Int64(s.min as i64),
                Value::Int64(s.max as i64),
                Value::Int64(s.p50 as i64),
                Value::Int64(s.p95 as i64),
                Value::Int64(s.p99 as i64),
            ])
        })
        .collect();
    (schema, rows)
}

fn scan_dc_column_stats(cluster: &Cluster) -> (Schema, Vec<Row>) {
    let schema = Schema::from_pairs(&[
        ("node", DataType::Int64),
        ("table_name", DataType::Varchar),
        ("container_id", DataType::Int64),
        ("column_idx", DataType::Int64),
        ("encoding", DataType::Varchar),
        ("row_count", DataType::Int64),
        ("null_count", DataType::Int64),
        ("ndv", DataType::Int64),
        ("min", DataType::Varchar),
        ("max", DataType::Varchar),
    ]);
    // Zone-map endpoints render as text: the column's min/max can be
    // any SQL type, and NULL marks a stat the store could not keep
    // (all-null or NaN-bearing column).
    let render = |v: &Option<Value>| match v {
        Some(v) => Value::Varchar(v.to_string()),
        None => Value::Null,
    };
    let mut rows = Vec::new();
    for (n, node) in cluster.node_states().into_iter().enumerate() {
        let stores = node.stores.read();
        let mut tables: Vec<&String> = stores.keys().collect();
        tables.sort();
        for table in tables {
            for info in stores[table].container_infos() {
                for (idx, cs) in info.columns.iter().enumerate() {
                    rows.push(Row::new(vec![
                        Value::Int64(n as i64),
                        Value::Varchar(table.clone()),
                        Value::Int64(info.id as i64),
                        Value::Int64(idx as i64),
                        Value::Varchar(info.encodings[idx].to_string()),
                        Value::Int64(info.row_count as i64),
                        Value::Int64(cs.null_count as i64),
                        Value::Int64(cs.ndv as i64),
                        render(&cs.min),
                        render(&cs.max),
                    ]));
                }
            }
        }
    }
    (schema, rows)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::{Cluster, ClusterConfig};

    /// `SYSTEM_TABLES` (the public const) must stay in bijection with
    /// the scan dispatch in `DEFS` — the drift this guards against is a
    /// table that is advertised but not scannable, or vice versa.
    #[test]
    fn system_tables_const_matches_defs() {
        let from_defs: Vec<&str> = DEFS.iter().map(|d| d.name).collect();
        assert_eq!(SYSTEM_TABLES, from_defs.as_slice());
        // Every advertised table actually scans.
        let cluster = Cluster::new(ClusterConfig::default());
        for name in SYSTEM_TABLES {
            assert!(
                scan_system_table(&cluster, name).is_some(),
                "{name} is advertised but does not scan"
            );
        }
    }

    #[test]
    fn resource_pools_table_lists_general_pool() {
        let cluster = Cluster::new(ClusterConfig::default());
        let (schema, rows) = scan_system_table(&cluster, "v_resource_pools").unwrap();
        assert_eq!(schema.fields()[0].name, "pool_name");
        assert!(rows
            .iter()
            .any(|r| matches!(r.values().first(), Some(Value::Varchar(n)) if n == "general")));
        // The general pool is unbounded: limits clamp instead of wrap.
        let general = rows
            .iter()
            .find(|r| matches!(r.values().first(), Some(Value::Varchar(n)) if n == "general"))
            .unwrap();
        assert_eq!(general.values()[1], Value::Int64(i64::MAX));
        assert_eq!(general.values()[3], Value::Null);
    }

    #[test]
    fn dc_tables_have_stable_schemas() {
        let cluster = Cluster::new(ClusterConfig::default());
        let (events_schema, _) = scan_system_table(&cluster, "dc_events").unwrap();
        assert_eq!(events_schema.len(), 10);
        assert_eq!(events_schema.fields()[0].name, "seq");
        assert_eq!(events_schema.fields()[3].name, "kind");
        let (counters_schema, counter_rows) = scan_system_table(&cluster, "dc_counters").unwrap();
        assert_eq!(counters_schema.len(), 2);
        // dc.dropped_events is always present.
        assert!(counter_rows.iter().any(
            |r| matches!(r.values().first(), Some(Value::Varchar(n)) if n == "dc.dropped_events")
        ));
    }

    /// The trace tables read the process-wide collector, which other
    /// tests also feed — so assert on spans this test created rather
    /// than on totals.
    #[test]
    fn dc_span_tables_expose_trace_and_critical_path() {
        let cluster = Cluster::new(ClusterConfig::default());
        let c = obs::global();
        let root = c.trace_start(obs::names::S2V_JOB);
        assert!(root.is_some());
        let child = c.span_start(obs::names::S2V_PHASE3, root);
        c.span_finish(child, |s| {
            s.node = Some(2);
            s.attempt = 1;
            s.rows = 7;
        });
        c.span_finish(root, |s| s.detail = "dc_spans test job".to_string());

        let (schema, rows) = scan_system_table(&cluster, "dc_spans").unwrap();
        assert_eq!(schema.fields()[0].name, "trace_id");
        assert_eq!(schema.len(), 13);
        let trace_id = Value::Int64(root.trace.0 as i64);
        let mine: Vec<&Row> = rows.iter().filter(|r| r.values()[0] == trace_id).collect();
        assert_eq!(mine.len(), 2);
        // Root has NULL parent; the child links to it.
        assert_eq!(mine[0].values()[2], Value::Null);
        assert_eq!(mine[1].values()[2], Value::Int64(root.span.0 as i64));
        assert_eq!(mine[1].values()[9], Value::Int64(7)); // rows tag

        let (_, summaries) = scan_system_table(&cluster, "dc_trace_summary").unwrap();
        let mine = summaries
            .iter()
            .find(|r| r.values()[0] == trace_id)
            .expect("summary row for the test trace");
        assert_eq!(mine.values()[1], Value::Varchar("s2v.job".to_string()));
        assert_eq!(mine.values()[2], Value::Int64(2));
        assert_eq!(mine.values()[4], Value::Int64(0), "no unclosed spans");
        let Value::Varchar(path) = &mine.values()[7] else {
            panic!("critical_path must be text")
        };
        assert!(path.contains("s2v.phase3"), "critical path: {path}");
    }

    #[test]
    fn dc_histograms_reports_exact_quantiles() {
        let cluster = Cluster::new(ClusterConfig::default());
        // A registered name nothing else in this test binary records,
        // so the quantiles stay exact.
        for v in [1, 2, 3, 60] {
            obs::global().record_histo(obs::names::V2S_PIECE_BYTES, v);
        }
        let (schema, rows) = scan_system_table(&cluster, "dc_histograms").unwrap();
        assert_eq!(schema.fields()[0].name, "name");
        let row = rows
            .iter()
            .find(|r| r.values()[0] == Value::Varchar("v2s.piece_bytes".to_string()))
            .expect("histogram row");
        assert_eq!(row.values()[1], Value::Int64(4)); // count
        assert_eq!(row.values()[2], Value::Int64(66)); // sum
                                                       // Values under the linear cutoff are bucketed exactly.
        assert_eq!(row.values()[5], Value::Int64(2)); // p50
        assert_eq!(row.values()[7], Value::Int64(60)); // p99
    }

    #[test]
    fn dc_column_stats_exposes_zone_maps() {
        let cluster = Cluster::new(ClusterConfig::default());
        let mut session = cluster.connect(0).unwrap();
        session
            .execute("CREATE TABLE zm (id INT, name VARCHAR) SEGMENTED BY HASH(id) ALL NODES")
            .unwrap();
        session
            .copy(
                "zm",
                crate::copy::CopySource::Csv {
                    text: "1,a\n2,b\n3,c\n4,d\n".to_string(),
                    delimiter: ',',
                },
                crate::copy::CopyOptions::default(),
            )
            .unwrap();
        let (schema, rows) = scan_system_table(&cluster, "dc_column_stats").unwrap();
        assert_eq!(schema.fields()[1].name, "table_name");
        let zm: Vec<&Row> = rows
            .iter()
            .filter(|r| r.values()[1] == Value::Varchar("zm".to_string()))
            .collect();
        assert!(!zm.is_empty(), "COPY DIRECT must create container stats");
        // Every container row for column 0 carries integer min/max text
        // and a positive NDV.
        for r in zm.iter().filter(|r| r.values()[3] == Value::Int64(0)) {
            assert!(matches!(&r.values()[7], Value::Int64(ndv) if *ndv >= 1));
            assert!(matches!(&r.values()[8], Value::Varchar(_)));
            assert!(matches!(&r.values()[9], Value::Varchar(_)));
        }
    }

    #[test]
    fn dc_lock_edges_table_scans() {
        let cluster = Cluster::new(ClusterConfig::default());
        let (schema, rows) = scan_system_table(&cluster, "dc_lock_edges").unwrap();
        assert_eq!(schema.fields()[0].name, "from_class");
        assert_eq!(schema.fields()[1].name, "to_class");
        assert_eq!(schema.fields()[2].name, "count");
        if parking_lot::witness::active() {
            // Building a cluster takes catalog/store locks in a fixed
            // order, so a debug build has already observed edges; every
            // row names both classes.
            for row in &rows {
                assert!(matches!(&row.values()[0], Value::Varchar(s) if !s.is_empty()));
                assert!(matches!(&row.values()[2], Value::Int64(c) if *c > 0));
            }
        } else {
            assert!(rows.is_empty(), "witness must compile out in release");
        }
    }

    /// The mover's op log and the fault injector's plan are both locked
    /// under other locks, and each must show up as its own class: were
    /// they one class, any order between them would read as a cycle.
    #[test]
    fn mover_ops_and_fault_plan_are_distinct_classes_in_dc_lock_edges() {
        use crate::catalog::{Segmentation, TableDef};
        use common::row;
        if !parking_lot::witness::active() {
            return;
        }
        let c = Cluster::new(ClusterConfig::default());
        let schema = Schema::from_pairs(&[("id", DataType::Int64)]);
        c.create_table(
            TableDef::new("t", schema, Segmentation::ByHash(vec!["id".into()])).unwrap(),
        )
        .unwrap();
        let mut txn = c.begin_txn();
        let rows = (0..64).map(|i| row![i as i64]).collect();
        c.insert_rows(&mut txn, 0, None, "t", rows).unwrap();
        c.commit_txn(txn);
        // A mover pass logs its moveouts under the store lock; an added
        // node consults the fault plan under the rebalance plan's lock.
        c.mover_pass();
        c.add_node().unwrap();
        let (_, rows) = scan_system_table(&c, "dc_lock_edges").unwrap();
        let taken: Vec<&Value> = rows.iter().map(|r| &r.values()[1]).collect();
        for class in [&common::locks::MOVER_OPS, &common::locks::FAULT_PLAN] {
            assert!(
                taken.contains(&&Value::Varchar(class.name.to_string())),
                "no edge into {}: {taken:?}",
                class.name
            );
        }
    }
}
