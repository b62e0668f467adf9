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
//! Span ids are allocated sequentially per trace from an atomic counter
//! in the trace's slot of a fixed table of `MAX_TRACES` slots — no
//! ambient entropy, so a single-threaded replay yields identical ids
//! and concurrent replays yield identical *shapes* (see
//! [`shape_digest`], which canonicalizes child order). Starting trace
//! `t + MAX_TRACES` reuses trace `t`'s slot and so evicts it.
//!
//! Recording never waits on another recorder. `span_start` and
//! `span_finish` append a start or a finish record to the calling
//! thread's own span log, registered once per thread and collector, so
//! only a reader ever contends a log's lock. A finish claims its span
//! with one compare-and-swap on the span's word in the slot table, so
//! the first close wins without a lock, and `fill` runs with no lock
//! held. An evicted trace's records are freed by their log's owner
//! when the log next grows past its pruning mark, outside the lock.
//! Readers ([`crate::Collector::trace_spans`],
//! [`crate::Collector::all_spans`], [`crate::Collector::traces`]) merge
//! the logs and join each start record with the first finish record of
//! its span. A read beside running writers reads each log as it stood
//! when the read reached it, and leaves out any span whose parent's
//! start it did not find, so every span read has its parent.
//!
//! The analysis helpers ([`critical_path`], [`render`], [`validate`])
//! work on a plain `Vec<SpanRecord>` snapshot, so they can run against
//! a live collector, a `dc_spans` dump, or a hand-built fixture.

use std::cell::RefCell;
use std::collections::{BTreeMap, HashMap, HashSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

use common::locks;
use parking_lot::Mutex;

use crate::names::{self, Span};

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

/// Retained traces: trace `t` lives in slot `t % MAX_TRACES` of the
/// slot table until trace `t + MAX_TRACES` starts and evicts it.
pub(crate) const MAX_TRACES: usize = 128;

/// Spans retained per trace; further `span_start`s return
/// [`TraceCtx::NONE`] and count as dropped.
pub(crate) const MAX_SPANS_PER_TRACE: usize = 8_192;

/// A slot's `alloc` word is `trace << NEXT_BITS | next span id`.
const NEXT_BITS: u32 = 14;
const NEXT_MASK: u64 = (1 << NEXT_BITS) - 1;
const _: () = assert!(MAX_SPANS_PER_TRACE < NEXT_MASK as usize);

/// Span words per chunk; a slot makes its chunks as its traces grow.
const CHUNK: usize = 256;

// A span word holds all that `span_finish` needs, so that closing a
// span is one compare-and-swap on it:
//
//   bit  47      CLOSED: the span has finished
//   bits 37..47  the index of the span's name handle
//   bits  0..37  its start, in µs, mod 2^37 (38 hours)
//
// Words are never cleared. A start writes its word, and a finish
// claims one, only while the slot names their trace; a later trace's
// word is written with `Release` after it took the slot, and read with
// `Acquire`, so reading it shows the later trace in the slot.
const CLOSED: u64 = 1 << 47;
const NAME_SHIFT: u32 = 37;
const NAME_MASK: u64 = (1 << 10) - 1;
const START_MASK: u64 = (1 << NAME_SHIFT) - 1;

/// Records a thread's log holds before it frees the records of evicted
/// traces, at the least.
const PRUNE_MIN: usize = 1_024;

/// The word of a span named `name` that started at `start_us`.
fn span_word(name: Span, start_us: u64) -> u64 {
    (name.index() as u64 & NAME_MASK) << NAME_SHIFT | start_us & START_MASK
}

/// One slot of the trace table.
struct Slot {
    alloc: AtomicU64,
    /// Span `s`'s word is `chunks[(s - 1) / CHUNK][(s - 1) % CHUNK]`.
    chunks: [OnceLock<Box<[AtomicU64; CHUNK]>>; MAX_SPANS_PER_TRACE / CHUNK],
}

impl Slot {
    fn new() -> Slot {
        Slot {
            alloc: AtomicU64::new(0),
            chunks: [const { OnceLock::new() }; MAX_SPANS_PER_TRACE / CHUNK],
        }
    }

    fn trace(&self) -> u64 {
        self.alloc.load(Ordering::Relaxed) >> NEXT_BITS
    }

    /// Whether the slot still holds `ctx`'s trace and has issued its id.
    fn issued(&self, ctx: TraceCtx) -> bool {
        let alloc = self.alloc.load(Ordering::Relaxed);
        alloc >> NEXT_BITS == ctx.trace.0 && ctx.span.0 < alloc & NEXT_MASK
    }

    /// Span `span`'s word, if its chunk exists.
    fn word(&self, span: SpanId) -> Option<&AtomicU64> {
        let i = usize::try_from(span.0).ok()?.checked_sub(1)?;
        Some(&self.chunks.get(i / CHUNK)?.get()?[i % CHUNK])
    }

    fn word_or_make(&self, span: SpanId) -> &AtomicU64 {
        let i = span.0 as usize - 1;
        &self.chunks[i / CHUNK].get_or_init(|| Box::new([const { AtomicU64::new(0) }; CHUNK]))
            [i % CHUNK]
    }
}

/// One entry of a span log.
enum Record {
    Start {
        trace: TraceId,
        span: SpanId,
        parent: Option<SpanId>,
        name: Span,
        start_us: u64,
    },
    /// The span as its `fill` left it: its end time and tags.
    Finish(SpanRecord),
}

impl Record {
    fn trace(&self) -> TraceId {
        match self {
            Record::Start { trace, .. } => *trace,
            Record::Finish(s) => s.trace,
        }
    }
}

/// One thread's span records in one collector. Only that thread
/// appends, so a reader is the only one who ever waits on its lock.
struct SpanLog(Mutex<LogBuf>);

struct LogBuf {
    records: Vec<Record>,
    /// Length at which the owner next frees evicted traces' records.
    prune_at: usize,
}

impl LogBuf {
    /// Drop the records of evicted traces, handing back the details
    /// they own so that the caller frees them after unlocking.
    fn take_dead(&mut self, spans: &Spans) -> Vec<String> {
        let mut freed = Vec::new();
        self.records.retain_mut(|r| {
            let live = spans.is_live(r.trace());
            if let (false, Record::Finish(s)) = (live, r) {
                if s.detail.capacity() > 0 {
                    freed.push(std::mem::take(&mut s.detail));
                }
            }
            live
        });
        self.prune_at = PRUNE_MIN.max(2 * self.records.len());
        freed
    }
}

impl SpanLog {
    fn new() -> SpanLog {
        SpanLog(Mutex::new(
            &locks::OBS_SPAN_LOG,
            LogBuf {
                records: Vec::new(),
                prune_at: PRUNE_MIN,
            },
        ))
    }

    fn append(&self, record: Record, spans: &Spans) {
        let freed = {
            let mut buf = self.0.lock();
            buf.records.push(record);
            if buf.records.len() < buf.prune_at {
                return;
            }
            buf.take_dead(spans)
        };
        drop(freed); // with no lock held
    }
}

/// Ids of span stores, the key of a thread's logs.
static NEXT_STORE: AtomicU64 = AtomicU64::new(1);

thread_local! {
    /// This thread's log in each store it has recorded into.
    static LOGS: RefCell<Vec<(u64, Arc<SpanLog>)>> = const { RefCell::new(Vec::new()) };
}

/// The collector's spans: a fixed table of [`MAX_TRACES`] trace slots,
/// which hands out span ids, and one log per recording thread, which
/// holds the spans' records.
pub(crate) struct Spans {
    id: u64,
    next_trace: AtomicU64,
    slots: Box<[Slot]>,
    /// Every thread's log, registered by its first record.
    logs: Mutex<Vec<Arc<SpanLog>>>,
    dropped: AtomicU64,
}

impl Spans {
    pub(crate) fn new() -> Spans {
        Spans {
            id: NEXT_STORE.fetch_add(1, Ordering::Relaxed),
            next_trace: AtomicU64::new(0),
            slots: (0..MAX_TRACES).map(|_| Slot::new()).collect(),
            logs: Mutex::new(&locks::OBS_SPAN_LOGS, Vec::new()),
            dropped: AtomicU64::new(0),
        }
    }

    fn slot(&self, trace: TraceId) -> &Slot {
        &self.slots[(trace.0 % MAX_TRACES as u64) as usize]
    }

    fn is_live(&self, trace: TraceId) -> bool {
        trace.0 != 0 && self.slot(trace).trace() == trace.0
    }

    fn drop_span(&self) -> TraceCtx {
        self.dropped.fetch_add(1, Ordering::Relaxed);
        TraceCtx::NONE
    }

    pub(crate) fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    /// Start a trace in the next slot, evicting the trace there: its
    /// records die in place and their owners free them.
    pub(crate) fn start_trace(&self, name: Span, start_us: u64) -> TraceCtx {
        let trace = TraceId(self.next_trace.fetch_add(1, Ordering::Relaxed) + 1);
        let slot = self.slot(trace);
        let prev = slot
            .alloc
            .fetch_max(trace.0 << NEXT_BITS | 2, Ordering::Relaxed);
        if prev >> NEXT_BITS > trace.0 {
            return self.drop_span(); // a later trace took the slot first
        }
        self.open(slot, trace, SpanId(1), None, name, start_us)
    }

    pub(crate) fn start_span(&self, name: Span, parent: TraceCtx, start_us: u64) -> TraceCtx {
        let slot = self.slot(parent.trace);
        let next = slot
            .alloc
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |a| {
                (a >> NEXT_BITS == parent.trace.0 && a & NEXT_MASK <= MAX_SPANS_PER_TRACE as u64)
                    .then_some(a + 1)
            });
        match next {
            // Trace evicted (or forged ctx), or at its span cap.
            Err(_) => self.drop_span(),
            Ok(a) => self.open(
                slot,
                parent.trace,
                SpanId(a & NEXT_MASK),
                Some(parent.span),
                name,
                start_us,
            ),
        }
    }

    fn open(
        &self,
        slot: &Slot,
        trace: TraceId,
        span: SpanId,
        parent: Option<SpanId>,
        name: Span,
        start_us: u64,
    ) -> TraceCtx {
        // Whatever the word holds was left by an evicted trace, unless
        // a later trace has taken the slot and so evicted this start.
        // Ordering between a span's starter and its finisher comes from
        // the hand-over of the ctx.
        let word = span_word(name, start_us);
        let set = slot
            .word_or_make(span)
            .fetch_update(Ordering::AcqRel, Ordering::Acquire, |_| {
                (slot.trace() == trace.0).then_some(word)
            });
        if set.is_err() {
            return self.drop_span();
        }
        self.append_own(Record::Start {
            trace,
            span,
            parent,
            name,
            start_us,
        });
        TraceCtx { trace, span }
    }

    /// Close a span: the first finish of a live span wins its word, runs
    /// `fill` with no lock held, and logs the result. Returns the span
    /// name's slot and the duration for the collector's histogram.
    pub(crate) fn finish_span(
        &self,
        ctx: TraceCtx,
        end_us: u64,
        fill: impl FnOnce(&mut SpanRecord),
    ) -> Option<(usize, u64)> {
        let slot = self.slot(ctx.trace);
        let word = slot
            .word(ctx.span)?
            .fetch_update(Ordering::AcqRel, Ordering::Acquire, |w| {
                (w & CLOSED == 0 && slot.issued(ctx)).then_some(w | CLOSED)
            })
            .ok()?; // evicted, unknown span, or double finish: keep the first close
        let name = (word >> NAME_SHIFT & NAME_MASK) as usize;
        let dur_us = end_us.wrapping_sub(word) & START_MASK;
        let mut span = blank(
            ctx.trace,
            ctx.span,
            None,
            names::DEFS[name].name,
            end_us.saturating_sub(dur_us),
        );
        span.end_us = Some(end_us);
        fill(&mut span);
        self.append_own(Record::Finish(span));
        Some((name, dur_us))
    }

    /// Append to the calling thread's log, registering it on its first
    /// record in this store.
    fn append_own(&self, record: Record) {
        let mut record = Some(record);
        // Fails only while the thread's locals are torn down.
        let _ = LOGS.try_with(|logs| {
            let mut logs = logs.borrow_mut();
            let i = match logs.iter().position(|(id, _)| *id == self.id) {
                Some(i) => i,
                None => {
                    // Forget the logs of stores that are gone.
                    logs.retain(|(_, log)| Arc::strong_count(log) > 1);
                    logs.push((self.id, self.register()));
                    logs.len() - 1
                }
            };
            if let Some(record) = record.take() {
                logs[i].1.append(record, self);
            }
        });
        if let Some(record) = record {
            self.register().append(record, self);
        }
    }

    fn register(&self) -> Arc<SpanLog> {
        let log = Arc::new(SpanLog::new());
        let mut freed = Vec::new();
        {
            let mut logs = self.logs.lock();
            // A log no thread holds any more belongs to an exited
            // thread: free its dead records, and forget it once empty.
            logs.retain_mut(|log| match Arc::get_mut(log) {
                None => true,
                Some(log) => {
                    let buf = log.0.get_mut();
                    freed.extend(buf.take_dead(self));
                    !buf.records.is_empty()
                }
            });
            logs.push(Arc::clone(&log));
        }
        drop(freed);
        log
    }

    /// The retained spans of the live traces `keep` selects, by trace
    /// id, each trace's sorted by span id: every start record joined
    /// with the first finish record of its span.
    ///
    /// The logs are read one after another while recorders run, so a
    /// child's start may be found in a later log than its parent's
    /// start, which landed after the read passed its log. Such a child,
    /// and its subtree, is left out, as a read before its start would
    /// have: every span read has its parent. A trace evicted during the
    /// read reads as gone.
    fn collect(&self, keep: impl Fn(TraceId) -> bool) -> BTreeMap<TraceId, Vec<SpanRecord>> {
        let logs = self.logs.lock().clone();
        let mut starts = Vec::new();
        let mut finishes: HashMap<(TraceId, SpanId), SpanRecord> = HashMap::new();
        for log in logs {
            let buf = log.0.lock();
            for record in buf.records.iter().filter(|r| keep(r.trace())) {
                match record {
                    Record::Start {
                        trace,
                        span,
                        parent,
                        name,
                        start_us,
                    } => starts.push((*trace, *span, *parent, *name, *start_us)),
                    Record::Finish(s) => {
                        finishes
                            .entry((s.trace, s.span))
                            .or_insert_with(|| s.clone());
                    }
                }
            }
        }
        let mut out: BTreeMap<TraceId, Vec<SpanRecord>> = BTreeMap::new();
        for (trace, span, parent, name, start_us) in starts {
            let name = name.name();
            let record = match finishes.remove(&(trace, span)) {
                Some(f) => SpanRecord {
                    parent,
                    name,
                    start_us,
                    end_us: f.end_us.map(|e| e.max(start_us)),
                    ..f
                },
                None => blank(trace, span, parent, name, start_us),
            };
            out.entry(trace).or_default().push(record);
        }
        // A trace whose slot is taken stays gone, so one still live now
        // was live, and unpruned, for the whole read.
        out.retain(|trace, _| self.is_live(*trace));
        for spans in out.values_mut() {
            // A parent's id is below its children's.
            spans.sort_by_key(|s| s.span);
            let mut read = HashSet::new();
            spans.retain(|s| {
                let whole = s.parent.is_none_or(|p| read.contains(&p));
                if whole {
                    read.insert(s.span);
                }
                whole
            });
        }
        out
    }

    pub(crate) fn spans_of(&self, trace: TraceId) -> Vec<SpanRecord> {
        if !self.is_live(trace) {
            return Vec::new();
        }
        self.collect(|t| t == trace)
            .remove(&trace)
            .unwrap_or_default()
    }

    /// Every retained trace's spans, in creation order.
    pub(crate) fn by_trace(&self) -> BTreeMap<TraceId, Vec<SpanRecord>> {
        self.collect(|t| self.is_live(t))
    }

    pub(crate) fn trace_ids(&self) -> Vec<TraceId> {
        let mut ids: Vec<TraceId> = self
            .slots
            .iter()
            .map(|s| TraceId(s.trace()))
            .filter(|t| t.0 != 0)
            .collect();
        ids.sort();
        ids
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
    use crate::names::{RETRY_ATTEMPT, S2V_JOB};

    /// A span word has room for the index of every registered name.
    #[test]
    fn span_words_hold_every_name() {
        assert!(names::DEFS.len() <= NAME_MASK as usize + 1);
    }

    /// Evicted traces' records are freed by their owner, and the log of
    /// an exited thread is forgotten by the next registration once its
    /// traces are evicted; the spans of live traces stay readable.
    #[test]
    fn evicted_records_are_freed_and_exited_logs_forgotten() {
        let spans = Spans::new();
        let one_trace = |t: u64| {
            let root = spans.start_trace(S2V_JOB, t);
            let child = spans.start_span(RETRY_ATTEMPT, root, t);
            spans.finish_span(child, t + 1, |s| s.detail = format!("t{t}"));
            spans.finish_span(root, t + 2, |_| {});
            root.trace
        };
        let log_lens = || -> Vec<usize> {
            let logs = spans.logs.lock().clone();
            logs.iter().map(|l| l.0.lock().records.len()).collect()
        };
        // Ten times the table, four records a trace: the log never
        // reaches the pruning mark without falling back to the live
        // traces' records.
        for t in 0..10 * MAX_TRACES as u64 {
            one_trace(t);
            assert!(log_lens()[0] < PRUNE_MIN);
        }
        let exited = std::thread::scope(|s| s.spawn(|| one_trace(0)).join().unwrap());
        assert_eq!(log_lens().len(), 2);
        for t in 0..MAX_TRACES as u64 {
            one_trace(t);
        }
        assert!(spans.spans_of(exited).is_empty());
        let live = std::thread::scope(|s| s.spawn(|| one_trace(0)).join().unwrap());
        assert_eq!(log_lens().len(), 2, "the evicted thread's log is gone");
        let kept = spans.spans_of(live);
        assert_eq!(kept.len(), 2);
        assert!(validate(&kept).is_empty());
        assert_eq!(kept[1].detail, "t0");
    }

    /// A start overwrites whatever word an evicted trace left in its
    /// slot, however long ago: a 300-span trace, then, 16,385 reuses of
    /// the slot later (past the half-way turn of a 15-bit serial-number
    /// count of reuses), another as long, none dropped. Each leaves its
    /// last span open, and a finish through the evicted trace's ctx
    /// leaves the new trace's span at that id open.
    #[test]
    fn a_start_overwrites_the_words_of_any_evicted_trace() {
        let spans = Spans::new();
        let one_trace = || {
            let root = spans.start_trace(S2V_JOB, 0);
            assert!(root.is_some());
            let mut last = root;
            for t in 0..299 {
                spans.finish_span(last, t, |_| {});
                last = spans.start_span(RETRY_ATTEMPT, root, t);
                assert!(last.is_some());
            }
            last
        };
        let old = one_trace();
        spans
            .next_trace
            .fetch_add(16_385 * MAX_TRACES as u64 - 1, Ordering::Relaxed);
        let new = one_trace();
        assert_eq!((old.span, old.trace.0 % MAX_TRACES as u64), (new.span, 1));
        assert_eq!(spans.dropped(), 0);
        assert_eq!(spans.finish_span(old, 300, |_| panic!("evicted")), None);
        let read = spans.spans_of(new.trace);
        assert_eq!(read.len(), 300);
        assert_eq!(
            validate(&read),
            [TraceIssue::Unclosed {
                span: new.span,
                name: "retry.attempt"
            }]
        );
    }

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
