//! Distributed tracing: span trees with explicit, by-value context.
//!
//! A *trace* is one job-scoped tree of *spans*. Every span knows its
//! trace, its parent, a registered name, wall-clock bounds from the
//! collector's monotonic clock, and a small fixed tag set (node, task,
//! attempt, rows, bytes, failed, detail) — the same vocabulary as
//! [`crate::Event`], so `dc_spans` rows read like `dc_events` rows with
//! ancestry.
//!
//! Context travels **by value**: a [`TraceCtx`] is a 16-byte `Copy`
//! struct handed down call chains and across threads as an ordinary
//! argument. No thread-locals — the fabric moves work between threads
//! constantly (scheduler slots, hedged-read buddies, retry attempts),
//! and TLS would silently re-parent spans whenever a closure migrated.
//! A `TraceCtx` is also the *null* propagation token: [`TraceCtx::NONE`]
//! (trace id 0) flows through untraced call paths and turns every span
//! operation downstream into a cheap no-op, so instrumented code never
//! branches on "am I being traced".
//!
//! Span ids are allocated sequentially per trace under the trace-store
//! lock — no ambient entropy, so a single-threaded replay yields
//! identical ids and concurrent replays yield identical *shapes* (see
//! [`shape_digest`], which canonicalizes child order).
//!
//! The analysis helpers ([`critical_path`], [`render`], [`validate`])
//! work on a plain `Vec<SpanRecord>` snapshot, so they can run against
//! a live collector, a `dc_spans` dump, or a hand-built fixture.

use std::collections::HashMap;

use crate::names::Span;

/// Identifies one trace (one job). Id 0 is reserved for "not traced".
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TraceId(pub u64);

/// Identifies one span within its trace. Ids start at 1 (the root).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SpanId(pub u64);

/// The propagation token: which trace we are in and which span is the
/// current parent. Passed by value through every layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceCtx {
    pub trace: TraceId,
    pub span: SpanId,
}

impl TraceCtx {
    /// The null context: all span operations through it are no-ops.
    pub const NONE: TraceCtx = TraceCtx {
        trace: TraceId(0),
        span: SpanId(0),
    };

    pub fn is_none(self) -> bool {
        self.trace.0 == 0
    }

    pub fn is_some(self) -> bool {
        !self.is_none()
    }
}

impl Default for TraceCtx {
    fn default() -> TraceCtx {
        TraceCtx::NONE
    }
}

/// One finished-or-in-flight span.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanRecord {
    pub trace: TraceId,
    pub span: SpanId,
    /// Parent span within the same trace; `None` only for the root.
    pub parent: Option<SpanId>,
    pub name: &'static str,
    /// Microseconds since the collector was created.
    pub start_us: u64,
    /// Set by `span_finish`; `None` marks an unclosed span.
    pub end_us: Option<u64>,
    /// Database or executor node, when known.
    pub node: Option<u64>,
    /// Task / partition index, when known.
    pub task: Option<u64>,
    /// 1-based attempt number (0 = not an attempt-scoped span).
    pub attempt: u32,
    pub rows: u64,
    pub bytes: u64,
    /// The operation under this span failed (it may have been retried
    /// by a sibling attempt).
    pub failed: bool,
    /// Free-form detail (phase label, error class, winner/loser, ...).
    pub detail: String,
}

impl SpanRecord {
    /// Span duration in microseconds; 0 while unclosed.
    pub fn dur_us(&self) -> u64 {
        self.end_us
            .map(|e| e.saturating_sub(self.start_us))
            .unwrap_or(0)
    }
}

/// Retained traces before the oldest is evicted.
const MAX_TRACES: usize = 128;

/// Spans retained per trace; further `span_start`s return
/// [`TraceCtx::NONE`] and count as dropped.
const MAX_SPANS_PER_TRACE: usize = 8_192;

/// Collector-internal store of live and recently finished traces.
#[derive(Debug, Default)]
pub(crate) struct TraceStore {
    next_trace: u64,
    /// Trace ids in creation order (eviction order).
    order: std::collections::VecDeque<u64>,
    traces: HashMap<u64, TraceBuf>,
    pub(crate) dropped_spans: u64,
}

#[derive(Debug)]
struct TraceBuf {
    next_span: u64,
    /// Sorted by span id: ids are allocated and pushed under one lock.
    spans: Vec<SpanRecord>,
    /// Each span's handle, parallel to `spans`: its histogram slot.
    handles: Vec<Span>,
}

impl TraceStore {
    pub(crate) fn start_trace(&mut self, name: Span, start_us: u64) -> TraceCtx {
        self.next_trace += 1;
        let trace = TraceId(self.next_trace);
        if self.order.len() >= MAX_TRACES {
            if let Some(old) = self.order.pop_front() {
                self.traces.remove(&old);
            }
        }
        self.order.push_back(trace.0);
        let root = SpanId(1);
        self.traces.insert(
            trace.0,
            TraceBuf {
                next_span: 2,
                spans: vec![blank(trace, root, None, name.name(), start_us)],
                handles: vec![name],
            },
        );
        TraceCtx { trace, span: root }
    }

    pub(crate) fn start_span(&mut self, name: Span, parent: TraceCtx, start_us: u64) -> TraceCtx {
        let Some(buf) = self.traces.get_mut(&parent.trace.0) else {
            // Trace evicted (or forged ctx): drop silently.
            self.dropped_spans += 1;
            return TraceCtx::NONE;
        };
        if buf.spans.len() >= MAX_SPANS_PER_TRACE {
            self.dropped_spans += 1;
            return TraceCtx::NONE;
        }
        let span = SpanId(buf.next_span);
        buf.next_span += 1;
        buf.spans.push(blank(
            parent.trace,
            span,
            Some(parent.span),
            name.name(),
            start_us,
        ));
        buf.handles.push(name);
        TraceCtx {
            trace: parent.trace,
            span,
        }
    }

    /// Close a span, returning `(handle, dur_us)` so the collector can
    /// feed the span's histogram slot outside the store lock.
    pub(crate) fn finish_span(
        &mut self,
        ctx: TraceCtx,
        end_us: u64,
        fill: impl FnOnce(&mut SpanRecord),
    ) -> Option<(Span, u64)> {
        let buf = self.traces.get_mut(&ctx.trace.0)?;
        let idx = buf
            .spans
            .binary_search_by_key(&ctx.span.0, |s| s.span.0)
            .ok()?;
        let span = &mut buf.spans[idx];
        if span.end_us.is_some() {
            return None; // double-finish: keep the first close
        }
        span.end_us = Some(end_us.max(span.start_us));
        fill(span);
        Some((buf.handles[idx], span.dur_us()))
    }

    pub(crate) fn spans_of(&self, trace: TraceId) -> Vec<SpanRecord> {
        self.traces
            .get(&trace.0)
            .map(|b| b.spans.clone())
            .unwrap_or_default()
    }

    /// All retained spans, grouped by trace in creation order.
    pub(crate) fn all_spans(&self) -> Vec<SpanRecord> {
        let mut out = Vec::new();
        for id in &self.order {
            if let Some(buf) = self.traces.get(id) {
                out.extend(buf.spans.iter().cloned());
            }
        }
        out
    }

    pub(crate) fn trace_ids(&self) -> Vec<TraceId> {
        self.order.iter().map(|&id| TraceId(id)).collect()
    }
}

fn blank(
    trace: TraceId,
    span: SpanId,
    parent: Option<SpanId>,
    name: &'static str,
    start_us: u64,
) -> SpanRecord {
    SpanRecord {
        trace,
        span,
        parent,
        name,
        start_us,
        end_us: None,
        node: None,
        task: None,
        attempt: 0,
        rows: 0,
        bytes: 0,
        failed: false,
        detail: String::new(),
    }
}

// ---------------------------------------------------------------------
// Analysis over a span snapshot.
// ---------------------------------------------------------------------

/// Structural problems [`validate`] reports.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TraceIssue {
    /// A non-root span whose parent id is absent from the snapshot.
    Orphan { span: SpanId, name: &'static str },
    /// A span that was started but never finished.
    Unclosed { span: SpanId, name: &'static str },
}

/// Check a single trace's spans for orphans and unclosed spans.
pub fn validate(spans: &[SpanRecord]) -> Vec<TraceIssue> {
    let ids: std::collections::HashSet<u64> = spans.iter().map(|s| s.span.0).collect();
    let mut issues = Vec::new();
    for s in spans {
        if let Some(p) = s.parent {
            if !ids.contains(&p.0) {
                issues.push(TraceIssue::Orphan {
                    span: s.span,
                    name: s.name,
                });
            }
        }
        if s.end_us.is_none() {
            issues.push(TraceIssue::Unclosed {
                span: s.span,
                name: s.name,
            });
        }
    }
    issues
}

/// Indices of `spans` forming the tree: `children[i]` lists the child
/// indices of `spans[i]`, display-ordered (start time, then span id).
struct Tree {
    root: usize,
    children: Vec<Vec<usize>>,
}

fn build_tree(spans: &[SpanRecord]) -> Option<Tree> {
    let by_id: HashMap<u64, usize> = spans
        .iter()
        .enumerate()
        .map(|(i, s)| (s.span.0, i))
        .collect();
    let mut root = None;
    let mut children: Vec<Vec<usize>> = vec![Vec::new(); spans.len()];
    for (i, s) in spans.iter().enumerate() {
        match s.parent {
            None => root = Some(i),
            Some(p) => {
                if let Some(&pi) = by_id.get(&p.0) {
                    children[pi].push(i);
                }
                // Orphans are surfaced by `validate`, not rendered.
            }
        }
    }
    for kids in &mut children {
        kids.sort_by_key(|&i| (spans[i].start_us, spans[i].span.0));
    }
    root.map(|root| Tree { root, children })
}

/// A canonical digest of the tree *shape*: names, tags, and ancestry,
/// with children sorted by stable keys and all ids and times erased.
/// Two runs of the same seeded workload must produce equal digests even
/// though span ids and wall-times differ run to run.
pub fn shape_digest(spans: &[SpanRecord]) -> String {
    fn node(spans: &[SpanRecord], tree: &Tree, i: usize, out: &mut String) {
        let s = &spans[i];
        out.push_str(s.name);
        if let Some(t) = s.task {
            out.push_str(&format!("#t{t}"));
        }
        if s.attempt > 0 {
            out.push_str(&format!("#a{}", s.attempt));
        }
        if s.failed {
            out.push_str("#failed");
        }
        let mut kids = tree.children[i].clone();
        kids.sort_by(|&a, &b| {
            let (a, b) = (&spans[a], &spans[b]);
            (a.name, a.task, a.attempt, a.node, a.span.0)
                .cmp(&(b.name, b.task, b.attempt, b.node, b.span.0))
        });
        if !kids.is_empty() {
            out.push('(');
            for (n, k) in kids.into_iter().enumerate() {
                if n > 0 {
                    out.push(' ');
                }
                node(spans, tree, k, out);
            }
            out.push(')');
        }
    }
    let mut out = String::new();
    if let Some(tree) = build_tree(spans) {
        node(spans, &tree, tree.root, &mut out);
    }
    out
}

/// One hop of a critical path.
#[derive(Debug, Clone, PartialEq)]
pub struct CriticalStep {
    pub span: SpanId,
    pub name: &'static str,
    pub node: Option<u64>,
    pub task: Option<u64>,
    pub attempt: u32,
    pub failed: bool,
    /// Microseconds attributed exclusively to this hop: its duration
    /// minus the duration of the next hop down the path.
    pub self_us: u64,
}

/// Walk a finished trace from the root, at each level descending into
/// the child that finishes last (the chain the job actually waited
/// on), and attribute each hop the time its own level added. Ties
/// break on later start, then higher span id. The step durations sum
/// to the root duration whenever children nest inside their parents.
pub fn critical_path(spans: &[SpanRecord]) -> Vec<CriticalStep> {
    let Some(tree) = build_tree(spans) else {
        return Vec::new();
    };
    let mut path = vec![tree.root];
    let mut cur = tree.root;
    loop {
        let next = tree.children[cur]
            .iter()
            .copied()
            .filter(|&i| spans[i].end_us.is_some())
            .max_by_key(|&i| (spans[i].end_us, spans[i].start_us, spans[i].span.0));
        match next {
            Some(n) => {
                path.push(n);
                cur = n;
            }
            None => break,
        }
    }
    path.iter()
        .enumerate()
        .map(|(depth, &i)| {
            let s = &spans[i];
            let child_dur = path.get(depth + 1).map(|&c| spans[c].dur_us()).unwrap_or(0);
            CriticalStep {
                span: s.span,
                name: s.name,
                node: s.node,
                task: s.task,
                attempt: s.attempt,
                failed: s.failed,
                self_us: s.dur_us().saturating_sub(child_dur),
            }
        })
        .collect()
}

/// The critical path as one line — what `dc_trace_summary` shows:
/// hops ordered by attributed time, each with its share of the root
/// duration, e.g. `78% s2v.phase3 (node 2, attempt 2)`.
pub fn critical_path_text(spans: &[SpanRecord]) -> String {
    let steps = critical_path(spans);
    let total: u64 = steps.iter().map(|s| s.self_us).sum();
    let mut ranked: Vec<&CriticalStep> = steps.iter().collect();
    ranked.sort_by_key(|s| std::cmp::Reverse((s.self_us, s.span.0)));
    let mut out = String::new();
    for (n, s) in ranked.iter().take(4).enumerate() {
        if n > 0 {
            out.push_str(" > ");
        }
        let pct = (s.self_us * 100 + total / 2)
            .checked_div(total)
            .unwrap_or(0);
        out.push_str(&format!("{pct}% {}", s.name));
        let mut tags = Vec::new();
        if let Some(node) = s.node {
            tags.push(format!("node {node}"));
        }
        if s.attempt > 0 {
            tags.push(format!("attempt {}", s.attempt));
        }
        if s.failed {
            tags.push("failed".to_string());
        }
        if !tags.is_empty() {
            out.push_str(&format!(" ({})", tags.join(", ")));
        }
    }
    out
}

/// Render one trace as an indented text tree (a textual flamegraph):
/// every span with its duration, tags, and ancestry, followed by the
/// critical-path line.
pub fn render(spans: &[SpanRecord]) -> String {
    fn fmt_us(us: u64) -> String {
        if us >= 1_000 {
            format!("{}.{}ms", us / 1_000, (us % 1_000) / 100)
        } else {
            format!("{us}us")
        }
    }
    fn line(s: &SpanRecord) -> String {
        let mut out = format!("{} {}", s.name, fmt_us(s.dur_us()));
        if let Some(t) = s.task {
            out.push_str(&format!(" task {t}"));
        }
        if s.attempt > 0 {
            out.push_str(&format!(" attempt {}", s.attempt));
        }
        if let Some(n) = s.node {
            out.push_str(&format!(" node {n}"));
        }
        if s.rows > 0 {
            out.push_str(&format!(" rows {}", s.rows));
        }
        if s.failed {
            out.push_str(" FAILED");
        }
        if s.end_us.is_none() {
            out.push_str(" UNCLOSED");
        }
        if !s.detail.is_empty() {
            out.push_str(&format!(" [{}]", s.detail));
        }
        out
    }
    fn walk(
        spans: &[SpanRecord],
        tree: &Tree,
        i: usize,
        prefix: &str,
        root: bool,
        last: bool,
        out: &mut String,
    ) {
        let (branch, cont) = if root {
            ("", "")
        } else if last {
            ("`- ", "   ")
        } else {
            ("|- ", "|  ")
        };
        out.push_str(prefix);
        out.push_str(branch);
        out.push_str(&line(&spans[i]));
        out.push('\n');
        let kids = &tree.children[i];
        for (n, &k) in kids.iter().enumerate() {
            let child_prefix = format!("{prefix}{cont}");
            walk(
                spans,
                tree,
                k,
                &child_prefix,
                false,
                n + 1 == kids.len(),
                out,
            );
        }
    }
    let Some(tree) = build_tree(spans) else {
        return String::from("(empty trace)\n");
    };
    let mut out = String::new();
    out.push_str(&format!("trace {}\n", spans[tree.root].trace.0));
    walk(spans, &tree, tree.root, "", true, true, &mut out);
    out.push_str(&format!("critical path: {}\n", critical_path_text(spans)));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(
        id: u64,
        parent: Option<u64>,
        name: &'static str,
        start: u64,
        end: Option<u64>,
    ) -> SpanRecord {
        SpanRecord {
            trace: TraceId(1),
            span: SpanId(id),
            parent: parent.map(SpanId),
            name,
            start_us: start,
            end_us: end,
            node: None,
            task: None,
            attempt: 0,
            rows: 0,
            bytes: 0,
            failed: false,
            detail: String::new(),
        }
    }

    #[test]
    fn validate_finds_orphans_and_unclosed() {
        let spans = vec![
            span(1, None, "root", 0, Some(100)),
            span(2, Some(1), "ok", 10, Some(20)),
            span(3, Some(99), "lost", 10, Some(20)),
            span(4, Some(1), "open", 30, None),
        ];
        let issues = validate(&spans);
        assert!(issues.contains(&TraceIssue::Orphan {
            span: SpanId(3),
            name: "lost"
        }));
        assert!(issues.contains(&TraceIssue::Unclosed {
            span: SpanId(4),
            name: "open"
        }));
        assert_eq!(issues.len(), 2);
    }

    #[test]
    fn critical_path_follows_latest_finisher_and_sums_to_root() {
        // root [0,100]; fast child [0,30]; slow child [10,90] with its
        // own child [20,80].
        let spans = vec![
            span(1, None, "root", 0, Some(100)),
            span(2, Some(1), "fast", 0, Some(30)),
            span(3, Some(1), "slow", 10, Some(90)),
            span(4, Some(3), "inner", 20, Some(80)),
        ];
        let path = critical_path(&spans);
        let names: Vec<_> = path.iter().map(|s| s.name).collect();
        assert_eq!(names, vec!["root", "slow", "inner"]);
        assert_eq!(path.iter().map(|s| s.self_us).sum::<u64>(), 100);
        assert_eq!(path[0].self_us, 20); // 100 - 80
        assert_eq!(path[1].self_us, 20); // 80 - 60
        assert_eq!(path[2].self_us, 60);
        let text = critical_path_text(&spans);
        assert!(text.starts_with("60% inner"), "{text}");
    }

    #[test]
    fn shape_digest_ignores_ids_times_and_sibling_order() {
        let mut a = vec![
            span(1, None, "root", 0, Some(100)),
            span(2, Some(1), "x", 0, Some(10)),
            span(3, Some(1), "y", 5, Some(20)),
        ];
        a[1].task = Some(0);
        a[2].task = Some(1);
        // Same logical tree, different ids, times, and arrival order.
        let mut b = vec![
            span(7, None, "root", 1000, Some(1500)),
            span(9, Some(7), "y", 1100, Some(1200)),
            span(8, Some(7), "x", 1400, Some(1450)),
        ];
        b[1].task = Some(1);
        b[2].task = Some(0);
        assert_eq!(shape_digest(&a), shape_digest(&b));
        // But a failure tag changes the shape.
        let mut c = a.clone();
        c[2].failed = true;
        assert_ne!(shape_digest(&a), shape_digest(&c));
    }

    #[test]
    fn render_shows_tree_and_tags() {
        let mut spans = vec![
            span(1, None, "s2v.job", 0, Some(5000)),
            span(2, Some(1), "s2v.phase1", 100, Some(2100)),
        ];
        spans[1].node = Some(2);
        spans[1].attempt = 2;
        spans[1].failed = true;
        let text = render(&spans);
        assert!(text.contains("s2v.job 5.0ms"), "{text}");
        // Children carry branch prefixes; only the root is flush-left.
        assert!(
            text.contains("`- s2v.phase1 2.0ms attempt 2 node 2 FAILED"),
            "{text}"
        );
        assert!(text.contains("critical path:"), "{text}");
    }

    #[test]
    fn render_indents_nested_children() {
        let spans = vec![
            span(1, None, "s2v.job", 0, Some(5000)),
            span(2, Some(1), "sched.task", 100, Some(2100)),
            span(3, Some(2), "s2v.phase1", 200, Some(900)),
            span(4, Some(2), "s2v.phase2", 900, Some(2000)),
            span(5, Some(1), "s2v.teardown", 2100, Some(2200)),
        ];
        let text = render(&spans);
        assert!(text.contains("|- sched.task"), "{text}");
        assert!(text.contains("|  |- s2v.phase1"), "{text}");
        assert!(text.contains("|  `- s2v.phase2"), "{text}");
        assert!(text.contains("`- s2v.teardown"), "{text}");
    }
}
