//! A process-wide data collector, modeled on Vertica's Data Collector
//! (the monitoring layer behind its `dc_*` system tables).
//!
//! Five kinds of telemetry:
//!
//! * **Events** ([`Event`]) — structured records (an [`EventKind`],
//!   fixed fields, a monotonic timestamp and sequence number) kept in
//!   sharded in-memory ring buffers. Each thread writes to its own
//!   shard, so hot paths never contend on one lock; a snapshot drains
//!   all shards and re-sorts by sequence number.
//! * **Counters** — monotonic `u64`s (`rows loaded`, `task
//!   retries`, ...), updated with a single atomic add.
//! * **Timers** — log-linear histograms ([`Histo`]) of durations
//!   in microseconds, recorded via [`Collector::record_time`] and
//!   reported as [`TimerStats`].
//! * **Histograms** ([`Histo`]) — log-linear value histograms
//!   with exact-rank quantile extraction at ~1.6% bucket resolution
//!   (and *exactly* for values below [`HISTO_LINEAR_MAX`]), recorded
//!   via [`Collector::record_histo`]. Finished trace spans also feed a
//!   histogram named after the span, so P50/P95/P99 per span name come
//!   for free.
//! * **Traces** ([`trace`]) — span trees with explicit by-value
//!   context ([`TraceCtx`]), started with [`Collector::trace_start`]
//!   and grown with [`Collector::span_start`] /
//!   [`Collector::span_finish`].
//!
//! Counters, timers, histograms and spans are named by the typed
//! handles of [`names`], one per registered name: the handle's type is
//! its kind, and its value is the index of the collector's slot for it.
//! A counter slot is an atomic; a histogram slot is a set of atomic
//! buckets made on its first record. No recording entry point waits on
//! a lock another recorder holds: events go to per-thread shards, spans
//! to per-thread logs ([`trace`]), and counters and histograms are
//! atomics. A snapshot shows a slot once something recorded into it.
//!
//! The process-wide instance is [`global()`]; isolated instances
//! ([`Collector::new`]) exist for tests. Collection can be switched
//! off at runtime ([`Collector::set_enabled`]): every recording entry
//! point checks one relaxed atomic load and returns before building
//! the record, so disabled instrumentation costs a branch.
//!
//! The database surfaces a snapshot of the global collector as the
//! `dc_events` / `dc_counters` system tables, making observability
//! SQL-queryable exactly as in the paper's database.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::OnceLock;
use std::time::{Duration, Instant};

use common::clock::Clock;
use common::locks;
use parking_lot::Mutex;

pub mod names;
pub mod trace;

use names::{Counter, Histogram, NameKind, Span, Timer};
pub use trace::{SpanId, SpanRecord, TraceCtx, TraceId};

/// Number of event shards; writers pick one per thread.
const SHARDS: usize = 16;

/// Ring capacity per shard. Oldest events are dropped (and counted)
/// once a shard fills, bounding memory for long processes.
const SHARD_CAP: usize = 16_384;

/// The event taxonomy, spanning the three instrumented layers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum EventKind {
    // Compute-engine scheduler.
    TaskLaunch,
    TaskFinish,
    TaskRetry,
    TaskSpeculative,
    JobKill,
    JobFinish,
    // Database.
    TxnBegin,
    TxnCommit,
    TxnAbort,
    EpochAdvance,
    CopyLoad,
    PoolAdmit,
    SessionOpen,
    SessionClose,
    /// A node kill/restore or an injected fault firing (chaos layer).
    FaultInject,
    // Connector.
    S2vPhase,
    V2sPiece,
    MdScore,
    /// A hedged read launched its buddy-node attempt.
    Hedge,
    /// A per-node circuit breaker changed state (opened, half-opened,
    /// or closed).
    BreakerTrip,
}

impl EventKind {
    pub fn as_str(self) -> &'static str {
        match self {
            EventKind::TaskLaunch => "task_launch",
            EventKind::TaskFinish => "task_finish",
            EventKind::TaskRetry => "task_retry",
            EventKind::TaskSpeculative => "task_speculative",
            EventKind::JobKill => "job_kill",
            EventKind::JobFinish => "job_finish",
            EventKind::TxnBegin => "txn_begin",
            EventKind::TxnCommit => "txn_commit",
            EventKind::TxnAbort => "txn_abort",
            EventKind::EpochAdvance => "epoch_advance",
            EventKind::CopyLoad => "copy_load",
            EventKind::PoolAdmit => "pool_admit",
            EventKind::SessionOpen => "session_open",
            EventKind::SessionClose => "session_close",
            EventKind::FaultInject => "fault_inject",
            EventKind::S2vPhase => "s2v_phase",
            EventKind::V2sPiece => "v2s_piece",
            EventKind::MdScore => "md_score",
            EventKind::Hedge => "hedge",
            EventKind::BreakerTrip => "breaker_trip",
        }
    }
}

/// One structured record in the event log.
#[derive(Debug, Clone, PartialEq)]
pub struct Event {
    /// Global sequence number; total order across shards.
    pub seq: u64,
    /// Microseconds since the collector was created.
    pub ts_us: u64,
    /// Span duration in microseconds (0 for instantaneous events).
    pub dur_us: u64,
    pub kind: EventKind,
    /// Job name or id the event belongs to, when known.
    pub job: Option<String>,
    /// Task / partition index, when known.
    pub task: Option<u64>,
    /// Node index (database or compute, per layer), when known.
    pub node: Option<u64>,
    /// Row count the event accounts for.
    pub rows: u64,
    /// Byte volume the event accounts for.
    pub bytes: u64,
    /// Free-form detail (phase name, pool name, reject reason, ...).
    pub detail: String,
}

/// Aggregated statistics for one named timer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TimerStats {
    pub count: u64,
    pub sum_us: u64,
    pub min_us: u64,
    pub max_us: u64,
    /// Percentiles from [`Histo::quantile`]: exact below
    /// [`HISTO_LINEAR_MAX`] µs, within 1/64 above it.
    pub p50_us: u64,
    pub p99_us: u64,
}

fn timer_stats(histo: &Histo) -> TimerStats {
    TimerStats {
        count: histo.count,
        sum_us: histo.sum,
        min_us: histo.min,
        max_us: histo.max,
        p50_us: histo.quantile(0.50),
        p99_us: histo.quantile(0.99),
    }
}

/// Values below this record into their own unit-wide bucket, so
/// quantiles of small values are exact, not bucket-rounded.
pub const HISTO_LINEAR_MAX: u64 = 64;

/// Sub-buckets per power-of-two octave above the linear range: the
/// bucket width is `2^(msb-6)`, bounding relative error at 1/64.
const HISTO_SUB: u64 = 64;

/// 64 linear buckets + 64 sub-buckets for each octave 2^6 ..= 2^63.
const HISTO_BUCKETS: usize = (HISTO_LINEAR_MAX + (63 - 6 + 1) * HISTO_SUB) as usize;

/// Aggregated statistics for one histogram, quantiles included.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct HistoStats {
    pub count: u64,
    pub sum: u64,
    pub min: u64,
    pub max: u64,
    pub p50: u64,
    pub p95: u64,
    pub p99: u64,
}

/// A fixed-bucket log-linear histogram (the `Metric::Histo` shape):
/// values below [`HISTO_LINEAR_MAX`] get exact unit buckets; above
/// that, each power-of-two octave splits into 64 sub-buckets, so a
/// quantile is off by at most 1/64 of the value. [`Histo::quantile`]
/// does exact *rank* selection — it returns the inclusive upper bound
/// of the bucket holding the `ceil(q·n)`-th smallest sample, clamped
/// to the observed `[min, max]` — so for small values it reproduces
/// the sorted-reference answer exactly.
#[derive(Debug, Clone, PartialEq)]
pub struct Histo {
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
    buckets: Box<[u64]>,
}

impl Default for Histo {
    fn default() -> Histo {
        Histo {
            count: 0,
            sum: 0,
            min: 0,
            max: 0,
            buckets: vec![0; HISTO_BUCKETS].into_boxed_slice(),
        }
    }
}

/// Bucket index holding `value`.
pub fn histo_bucket_index(value: u64) -> usize {
    if value < HISTO_LINEAR_MAX {
        return value as usize;
    }
    let msb = 63 - value.leading_zeros() as u64; // >= 6
    let offset = (value >> (msb - 6)) - HISTO_SUB; // 0..64 within the octave
    (HISTO_LINEAR_MAX + (msb - 6) * HISTO_SUB + offset) as usize
}

/// Smallest value mapping to bucket `index`.
pub fn histo_bucket_floor(index: usize) -> u64 {
    let index = index as u64;
    if index < HISTO_LINEAR_MAX {
        return index;
    }
    let octave = (index - HISTO_LINEAR_MAX) / HISTO_SUB;
    let pos = (index - HISTO_LINEAR_MAX) % HISTO_SUB;
    (((HISTO_SUB + pos) as u128) << octave) as u64
}

/// Largest value mapping to bucket `index` — what [`Histo::quantile`]
/// reports (before clamping), and what a reference computation should
/// round a sorted sample up to.
pub fn histo_bucket_bound(index: usize) -> u64 {
    let index = index as u64;
    if index < HISTO_LINEAR_MAX {
        return index;
    }
    let octave = (index - HISTO_LINEAR_MAX) / HISTO_SUB;
    let pos = (index - HISTO_LINEAR_MAX) % HISTO_SUB;
    ((((HISTO_SUB + pos + 1) as u128) << octave) - 1) as u64
}

impl Histo {
    pub fn new() -> Histo {
        Histo::default()
    }

    pub fn record(&mut self, value: u64) {
        self.count += 1;
        self.sum = self.sum.saturating_add(value);
        if self.count == 1 || value < self.min {
            self.min = value;
        }
        if value > self.max {
            self.max = value;
        }
        self.buckets[histo_bucket_index(value)] += 1;
    }

    pub fn count(&self) -> u64 {
        self.count
    }

    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    pub fn min(&self) -> u64 {
        self.min
    }

    pub fn max(&self) -> u64 {
        self.max
    }

    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Exact-rank quantile at bucket resolution: the upper bound of
    /// the bucket holding the `ceil(q·count)`-th smallest sample,
    /// clamped to the observed `[min, max]`.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((self.count as f64) * q).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (i, n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                return histo_bucket_bound(i).min(self.max).max(self.min);
            }
        }
        self.max
    }

    pub fn stats(&self) -> HistoStats {
        HistoStats {
            count: self.count,
            sum: self.sum,
            min: self.min,
            max: self.max,
            p50: self.quantile(0.50),
            p95: self.quantile(0.95),
            p99: self.quantile(0.99),
        }
    }

    /// The distribution recorded between `earlier` and `self`
    /// (bucket-wise subtraction) — what one experiment contributed.
    /// `min`/`max` of the delta are reconstructed from the surviving
    /// buckets, so they carry bucket resolution rather than being
    /// sample-exact.
    pub fn since(&self, earlier: &Histo) -> Histo {
        let mut out = Histo {
            count: self.count.saturating_sub(earlier.count),
            sum: self.sum.saturating_sub(earlier.sum),
            ..Histo::default()
        };
        for (i, (now, before)) in self.buckets.iter().zip(earlier.buckets.iter()).enumerate() {
            let delta = now.saturating_sub(*before);
            out.buckets[i] = delta;
            if delta > 0 {
                let floor = histo_bucket_floor(i).max(self.min);
                let bound = histo_bucket_bound(i).min(self.max);
                if out.max == 0 || floor < out.min {
                    out.min = floor;
                }
                if bound > out.max {
                    out.max = bound;
                }
            }
        }
        if out.count == 0 {
            out.min = 0;
            out.max = 0;
        }
        out
    }
}

/// One timer, histogram or span slot: a [`Histo`] recorded with atomic
/// adds instead of under a lock. A snapshot's count is the sum of the
/// buckets it read, so count and buckets always agree; its sum, min and
/// max may run one record ahead of them while records land.
struct HistoSlot {
    sum: AtomicU64,
    /// `u64::MAX` until the first record.
    min: AtomicU64,
    max: AtomicU64,
    buckets: Box<[AtomicU64]>,
}

impl HistoSlot {
    fn new() -> HistoSlot {
        HistoSlot {
            sum: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
            buckets: (0..HISTO_BUCKETS).map(|_| AtomicU64::new(0)).collect(),
        }
    }

    fn record(&self, value: u64) {
        if value < self.min.load(Ordering::Relaxed) {
            self.min.fetch_min(value, Ordering::Relaxed);
        }
        if value > self.max.load(Ordering::Relaxed) {
            self.max.fetch_max(value, Ordering::Relaxed);
        }
        // `Histo::record` saturates the sum; so does this.
        let _ = self
            .sum
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |s| {
                Some(s.saturating_add(value))
            });
        // Last, with `Release`: a snapshot that counts this value also
        // sees it in the sum, min and max.
        self.buckets[histo_bucket_index(value)].fetch_add(1, Ordering::Release);
    }

    fn load(&self) -> Histo {
        let buckets: Box<[u64]> = self
            .buckets
            .iter()
            .map(|b| b.load(Ordering::Acquire))
            .collect();
        let count = buckets.iter().sum();
        let recorded = count > 0;
        Histo {
            count,
            sum: self.sum.load(Ordering::Relaxed),
            min: if recorded {
                self.min.load(Ordering::Relaxed)
            } else {
                0
            },
            max: self.max.load(Ordering::Relaxed),
            buckets,
        }
    }
}

/// One counter's slot. `recorded` is set by the first record, so a
/// counter that was only ever `add`ed 0 still shows in a snapshot. Both
/// are statistics publishing no other data, hence `Relaxed`: a snapshot
/// shows a counter whose value it sees nonzero even if it does not yet
/// see the flag.
#[derive(Default)]
struct CounterSlot {
    value: AtomicU64,
    recorded: AtomicBool,
}

/// A point-in-time copy of everything the collector holds.
#[derive(Debug, Clone, Default)]
pub struct Snapshot {
    /// All retained events, in sequence order.
    pub events: Vec<Event>,
    /// Counter name → value.
    pub counters: BTreeMap<String, u64>,
    /// Timer name → aggregated stats.
    pub timers: BTreeMap<String, TimerStats>,
    /// Histogram name → full histogram (so deltas via [`Histo::since`]
    /// can still extract quantiles).
    pub histos: BTreeMap<String, Histo>,
    /// Events discarded because a shard's ring filled.
    pub dropped_events: u64,
    /// Spans discarded because a trace hit its span cap (or its trace
    /// was already evicted).
    pub dropped_spans: u64,
}

impl Snapshot {
    /// Counter increments between `earlier` and `self` — what an
    /// experiment consumed, independent of whatever ran before it.
    pub fn counters_since(&self, earlier: &Snapshot) -> BTreeMap<String, u64> {
        self.counters
            .iter()
            .map(|(name, v)| {
                let before = earlier.counters.get(name).copied().unwrap_or(0);
                (name.clone(), v.saturating_sub(before))
            })
            .filter(|(_, delta)| *delta > 0)
            .collect()
    }

    /// Events of one kind, in order.
    pub fn events_of(&self, kind: EventKind) -> impl Iterator<Item = &Event> {
        self.events.iter().filter(move |e| e.kind == kind)
    }
}

/// The data collector. See the crate docs for the model.
///
/// Its recording methods take the typed handles of [`names`], so the
/// compiler refuses a name that is not registered or is of the wrong
/// kind. Each refused call below has a twin that differs only in the
/// argument and compiles.
///
/// A string is not a name:
///
/// ```compile_fail,E0308
/// obs::Collector::new().incr("sched.jobs");
/// ```
///
/// ```
/// obs::Collector::new().incr(obs::names::SCHED_JOBS);
/// ```
///
/// A span is not a counter:
///
/// ```compile_fail,E0308
/// obs::Collector::new().incr(obs::names::S2V_JOB);
/// ```
///
/// ```
/// obs::Collector::new().incr(obs::names::S2V_JOBS);
/// ```
///
/// A counter is not a span:
///
/// ```compile_fail,E0308
/// let c = obs::Collector::new();
/// c.span_start(obs::names::S2V_JOBS, c.trace_start(obs::names::S2V_JOB));
/// ```
///
/// ```
/// let c = obs::Collector::new();
/// c.span_start(obs::names::S2V_PHASE1, c.trace_start(obs::names::S2V_JOB));
/// ```
pub struct Collector {
    enabled: AtomicBool,
    /// The collector has no owner to hand it a clock: its timestamps are
    /// real time, whatever clock the recorded work runs on.
    start: Instant,
    seq: AtomicU64,
    shards: Vec<Mutex<std::collections::VecDeque<Event>>>,
    dropped: AtomicU64,
    /// One slot per [`names::DEFS`] row, indexed by a handle.
    counters: Box<[CounterSlot]>,
    /// Timer, histogram and span slots, likewise indexed; a slot is
    /// about 30 KB, so each is made on its first record.
    histos: Box<[OnceLock<HistoSlot>]>,
    spans: trace::Spans,
    next_shard: AtomicUsize,
}

impl Default for Collector {
    fn default() -> Collector {
        Collector::new()
    }
}

impl Collector {
    pub fn new() -> Collector {
        Collector {
            enabled: AtomicBool::new(true),
            start: Clock::real().now(),
            seq: AtomicU64::new(0),
            shards: (0..SHARDS)
                .map(|_| Mutex::new(&locks::OBS_EVENTS, std::collections::VecDeque::new()))
                .collect(),
            dropped: AtomicU64::new(0),
            counters: names::DEFS.iter().map(|_| CounterSlot::default()).collect(),
            histos: names::DEFS.iter().map(|_| OnceLock::new()).collect(),
            spans: trace::Spans::new(),
            next_shard: AtomicUsize::new(0),
        }
    }

    /// Runtime toggle. Disabled collectors drop every record at the
    /// entry point, before field closures run.
    pub fn set_enabled(&self, on: bool) {
        self.enabled.store(on, Ordering::Relaxed);
    }

    pub fn is_enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// Microseconds since the collector was made.
    fn now_us(&self) -> u64 {
        Clock::real().since(self.start).as_micros() as u64
    }

    fn shard_index(&self) -> usize {
        thread_local! {
            static SHARD: std::cell::Cell<usize> = const { std::cell::Cell::new(usize::MAX) };
        }
        SHARD.with(|s| {
            if s.get() == usize::MAX {
                s.set(self.next_shard.fetch_add(1, Ordering::Relaxed) % SHARDS);
            }
            s.get()
        })
    }

    /// Record one event. `fill` runs only when collection is enabled,
    /// so argument formatting costs nothing when it is off.
    pub fn emit(&self, kind: EventKind, fill: impl FnOnce(&mut Event)) {
        if !self.is_enabled() {
            return;
        }
        let mut event = Event {
            seq: self.seq.fetch_add(1, Ordering::Relaxed),
            ts_us: self.now_us(),
            dur_us: 0,
            kind,
            job: None,
            task: None,
            node: None,
            rows: 0,
            bytes: 0,
            detail: String::new(),
        };
        fill(&mut event);
        let mut shard = self.shards[self.shard_index()].lock();
        if shard.len() >= SHARD_CAP {
            shard.pop_front();
            self.dropped.fetch_add(1, Ordering::Relaxed);
        }
        shard.push_back(event);
    }

    /// Add `delta` to a counter.
    pub fn add(&self, counter: Counter, delta: u64) {
        if !self.is_enabled() {
            return;
        }
        let slot = &self.counters[counter.index()];
        if !slot.recorded.load(Ordering::Relaxed) {
            slot.recorded.store(true, Ordering::Relaxed);
        }
        slot.value.fetch_add(delta, Ordering::Relaxed);
    }

    /// Add 1 to a counter.
    pub fn incr(&self, counter: Counter) {
        self.add(counter, 1);
    }

    /// Record one duration, in microseconds, into a timer.
    pub fn record_time(&self, timer: Timer, dur: Duration) {
        if self.is_enabled() {
            self.record_value(timer.index(), dur.as_micros() as u64);
        }
    }

    /// Record one value into a log-linear histogram.
    pub fn record_histo(&self, histogram: Histogram, value: u64) {
        if self.is_enabled() {
            self.record_value(histogram.index(), value);
        }
    }

    fn record_value(&self, slot: usize, value: u64) {
        self.histos[slot].get_or_init(HistoSlot::new).record(value);
    }

    /// Start a new trace rooted at a span `span`. Returns
    /// [`TraceCtx::NONE`] when collection is disabled, which turns all
    /// downstream span operations into no-ops.
    pub fn trace_start(&self, span: Span) -> TraceCtx {
        if !self.is_enabled() {
            return TraceCtx::NONE;
        }
        let now = self.now_us();
        self.spans.start_trace(span, now)
    }

    /// Start a child span of `parent`. A `NONE` parent (untraced call
    /// path, or disabled collection at trace start) yields `NONE`.
    pub fn span_start(&self, span: Span, parent: TraceCtx) -> TraceCtx {
        if parent.is_none() || !self.is_enabled() {
            return TraceCtx::NONE;
        }
        let now = self.now_us();
        self.spans.start_span(span, parent, now)
    }

    /// Finish the span `ctx` points at, stamping its end time and
    /// letting `fill` set tags (node, rows, failed, ...). The span's
    /// duration also lands in its span's histogram slot, so every span
    /// name has P50/P95/P99 without separate bookkeeping.
    ///
    /// Only the first finish of a span runs `fill` and counts; later
    /// ones, and finishes of a span whose trace was evicted, do nothing.
    /// `fill` runs with no lock held, so it may block or record spans of
    /// its own. The record it is handed carries the span's trace, id,
    /// name and times; only the tags it sets are kept.
    pub fn span_finish(&self, ctx: TraceCtx, fill: impl FnOnce(&mut SpanRecord)) {
        if ctx.is_none() || !self.is_enabled() {
            return;
        }
        let now = self.now_us();
        if let Some((slot, dur_us)) = self.spans.finish_span(ctx, now, fill) {
            self.record_value(slot, dur_us);
        }
    }

    /// All retained spans of one trace, in span-id order.
    pub fn trace_spans(&self, trace: TraceId) -> Vec<SpanRecord> {
        self.spans.spans_of(trace)
    }

    /// All retained spans across traces, grouped by trace in creation
    /// order (the `dc_spans` feed).
    pub fn all_spans(&self) -> Vec<SpanRecord> {
        self.traces().into_values().flatten().collect()
    }

    /// Every retained trace's spans, each in span-id order, read in one
    /// pass (the `dc_trace_summary` feed).
    pub fn traces(&self) -> BTreeMap<TraceId, Vec<SpanRecord>> {
        self.spans.by_trace()
    }

    /// Ids of retained traces, in creation order.
    pub fn trace_ids(&self) -> Vec<TraceId> {
        self.spans.trace_ids()
    }

    /// Copy out events, counters, timers, and histograms.
    pub fn snapshot(&self) -> Snapshot {
        let mut events: Vec<Event> = Vec::new();
        for shard in &self.shards {
            events.extend(shard.lock().iter().cloned());
        }
        events.sort_by_key(|e| e.seq);
        let mut snap = Snapshot {
            events,
            dropped_events: self.dropped.load(Ordering::Relaxed),
            dropped_spans: self.spans.dropped(),
            ..Snapshot::default()
        };
        for (def, slot) in names::DEFS.iter().zip(self.counters.iter()) {
            let value = slot.value.load(Ordering::Relaxed);
            if value > 0 || slot.recorded.load(Ordering::Relaxed) {
                snap.counters.insert(def.name.to_string(), value);
            }
        }
        for (def, slot) in names::DEFS.iter().zip(self.histos.iter()) {
            let Some(histo) = slot.get() else { continue };
            let histo = histo.load();
            if def.kind == NameKind::Timer {
                snap.timers
                    .insert(def.name.to_string(), timer_stats(&histo));
            } else {
                snap.histos.insert(def.name.to_string(), histo);
            }
        }
        snap
    }
}

/// The process-wide collector instance all layers record into.
///
/// Lock-order-witness findings are *not* pushed in here: the witness
/// hooks run while a freshly acquired guard is still held, so bumping
/// a collector counter from them could re-enter the collector's own
/// locks and self-deadlock. `dc_counters` folds the `lockwitness.*`
/// rows in at scan time instead (see `mppdb::system`).
pub fn global() -> &'static Collector {
    static GLOBAL: OnceLock<Collector> = OnceLock::new();
    GLOBAL.get_or_init(Collector::new)
}

#[cfg(test)]
mod tests {
    use super::*;
    use names::{
        DB_COMMIT_US, DB_COPY_ROWS, HEDGE_ATTEMPT, RETRY_ATTEMPT, S2V_JOB, SCHED_JOBS,
        V2S_PIECE_BYTES,
    };
    use std::sync::atomic::AtomicU32;
    use std::sync::{mpsc, Arc};
    use std::thread;

    #[test]
    fn events_are_sequenced_and_carry_fields() {
        let c = Collector::new();
        c.emit(EventKind::TaskLaunch, |e| {
            e.job = Some("j1".into());
            e.task = Some(3);
        });
        c.emit(EventKind::TaskFinish, |e| {
            e.job = Some("j1".into());
            e.rows = 10;
            e.bytes = 100;
        });
        let snap = c.snapshot();
        assert_eq!(snap.events.len(), 2);
        assert_eq!(snap.events[0].kind, EventKind::TaskLaunch);
        assert_eq!(snap.events[0].task, Some(3));
        assert!(snap.events[0].seq < snap.events[1].seq);
        assert!(snap.events[0].ts_us <= snap.events[1].ts_us);
        assert_eq!(snap.events[1].rows, 10);
        assert_eq!(snap.events_of(EventKind::TaskFinish).count(), 1);
    }

    #[test]
    fn counters_accumulate_and_delta() {
        let c = Collector::new();
        c.add(DB_COPY_ROWS, 5);
        let before = c.snapshot();
        c.add(DB_COPY_ROWS, 7);
        c.incr(SCHED_JOBS);
        let after = c.snapshot();
        assert_eq!(after.counters["db.copy_rows"], 12);
        let delta = after.counters_since(&before);
        assert_eq!(delta["db.copy_rows"], 7);
        assert_eq!(delta["sched.jobs"], 1);
    }

    /// Timers are `Histo`s of microseconds: exact ranks below
    /// `HISTO_LINEAR_MAX`, and the same quantiles a value histogram
    /// gives for the same samples.
    #[test]
    fn timers_track_distribution() {
        let c = Collector::new();
        for us in [10u64, 20, 30, 40, 5000] {
            c.record_time(DB_COMMIT_US, Duration::from_micros(us));
            c.record_histo(V2S_PIECE_BYTES, us);
        }
        let snap = c.snapshot();
        let stats = snap.timers["db.commit_us"];
        assert_eq!(stats.count, 5);
        assert_eq!(stats.sum_us, 5100);
        assert_eq!(stats.min_us, 10);
        assert_eq!(stats.max_us, 5000);
        assert_eq!(stats.p50_us, 30, "rank 3 of [10, 20, 30, 40, 5000]");
        assert_eq!(stats.p99_us, 5000);
        let histo = &snap.histos["v2s.piece_bytes"];
        assert_eq!(stats.p50_us, histo.quantile(0.50));
        assert_eq!(stats.p99_us, histo.quantile(0.99));
    }

    #[test]
    fn disabled_collector_records_nothing_and_skips_closures() {
        let c = Collector::new();
        c.set_enabled(false);
        let ran = AtomicU32::new(0);
        c.emit(EventKind::TxnBegin, |_| {
            ran.fetch_add(1, Ordering::Relaxed);
        });
        c.add(SCHED_JOBS, 3);
        c.record_time(DB_COMMIT_US, Duration::from_micros(9));
        assert_eq!(ran.load(Ordering::Relaxed), 0, "fill closure must not run");
        let snap = c.snapshot();
        assert!(snap.events.is_empty());
        assert!(snap.counters.is_empty());
        assert!(snap.timers.is_empty());
        c.set_enabled(true);
        c.incr(SCHED_JOBS);
        assert_eq!(c.snapshot().counters["sched.jobs"], 1);
    }

    #[test]
    fn ring_buffer_drops_oldest_beyond_capacity() {
        let c = Collector::new();
        for _ in 0..(SHARD_CAP + 10) {
            c.emit(EventKind::TxnBegin, |_| {});
        }
        let snap = c.snapshot();
        assert_eq!(snap.events.len(), SHARD_CAP);
        assert_eq!(snap.dropped_events, 10);
        // The survivors are the newest events.
        assert_eq!(snap.events[0].seq, 10);
    }

    #[test]
    fn concurrent_writers_land_in_one_total_order() {
        let c = Arc::new(Collector::new());
        let threads: Vec<_> = (0..8)
            .map(|t| {
                let c = Arc::clone(&c);
                std::thread::spawn(move || {
                    for i in 0..500 {
                        c.emit(EventKind::CopyLoad, |e| {
                            e.node = Some(t);
                            e.rows = i;
                        });
                        c.add(DB_COPY_ROWS, 1);
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        let snap = c.snapshot();
        assert_eq!(snap.events.len(), 8 * 500);
        assert_eq!(snap.counters["db.copy_rows"], 8 * 500);
        assert!(snap.events.windows(2).all(|w| w[0].seq < w[1].seq));
    }

    /// Quantiles are *exact* against a sorted reference for values in
    /// the linear range, and exact-at-bucket-resolution above it: the
    /// histogram answer equals the bucket upper bound of the sorted
    /// sample at rank `ceil(q·n)`, clamped to the observed extrema.
    #[test]
    fn histo_quantiles_match_sorted_reference() {
        let mut sorted: Vec<u64> = (1..=50).collect(); // all < HISTO_LINEAR_MAX
        let mut h = Histo::new();
        for &v in &sorted {
            h.record(v);
        }
        sorted.sort_unstable();
        for q in [0.01, 0.25, 0.50, 0.75, 0.95, 0.99, 1.0] {
            let rank = ((sorted.len() as f64) * q).ceil().max(1.0) as usize;
            assert_eq!(h.quantile(q), sorted[rank - 1], "q={q}");
        }

        // A long-tailed distribution crossing octaves: the reference
        // maps each sorted sample through the public bucket mapping.
        let values: Vec<u64> = (0..500u64).map(|i| (i * i * 37) % 90_000).collect();
        let mut h = Histo::new();
        for &v in &values {
            h.record(v);
        }
        let mut sorted = values.clone();
        sorted.sort_unstable();
        for q in [0.50, 0.95, 0.99] {
            let rank = ((sorted.len() as f64) * q).ceil().max(1.0) as usize;
            let expect = histo_bucket_bound(histo_bucket_index(sorted[rank - 1]))
                .min(h.max())
                .max(h.min());
            assert_eq!(h.quantile(q), expect, "q={q}");
            // Bucket resolution: within 1/64 of the true rank value.
            let truth = sorted[rank - 1];
            assert!(h.quantile(q) >= truth, "q={q}");
            assert!(h.quantile(q) <= truth + truth / 64 + 1, "q={q}");
        }
        assert_eq!(h.stats().count, 500);
    }

    #[test]
    fn histo_bucket_mapping_is_monotone_and_consistent() {
        for v in (0..4096u64).chain([1 << 20, (1 << 40) + 12345, u64::MAX]) {
            let i = histo_bucket_index(v);
            assert!(histo_bucket_floor(i) <= v, "floor({i}) > {v}");
            assert!(histo_bucket_bound(i) >= v, "bound({i}) < {v}");
        }
        for i in 1..HISTO_BUCKETS {
            assert_eq!(
                histo_bucket_floor(i),
                histo_bucket_bound(i - 1).wrapping_add(1),
                "gap/overlap at bucket {i}"
            );
        }
    }

    #[test]
    fn histo_since_subtracts_and_keeps_quantiles() {
        let mut h = Histo::new();
        for v in [10u64, 20, 30] {
            h.record(v);
        }
        let before = h.clone();
        for v in [40u64, 50, 60, 61, 62] {
            h.record(v);
        }
        let delta = h.since(&before);
        assert_eq!(delta.count(), 5);
        assert_eq!(delta.min(), 40);
        assert_eq!(delta.max(), 62);
        assert_eq!(delta.quantile(0.5), 60); // rank 3 of [40,50,60,61,62]
        assert_eq!(delta.quantile(1.0), 62);
    }

    #[test]
    fn spans_build_a_tree_and_feed_histograms() {
        let c = Collector::new();
        let root = c.trace_start(S2V_JOB);
        let child = c.span_start(RETRY_ATTEMPT, root);
        let grand = c.span_start(HEDGE_ATTEMPT, child);
        c.span_finish(grand, |s| {
            s.node = Some(2);
            s.attempt = 1;
            s.failed = true;
        });
        c.span_finish(child, |s| s.rows = 7);
        c.span_finish(root, |_| {});
        let spans = c.trace_spans(root.trace);
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[0].name, "s2v.job");
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(root.span));
        assert_eq!(spans[2].parent, Some(child.span));
        assert!(spans[2].failed);
        assert_eq!(spans[1].rows, 7);
        assert!(spans.iter().all(|s| s.end_us.is_some()));
        assert!(trace::validate(&spans).is_empty());
        // Every finished span landed in a same-named histogram.
        let snap = c.snapshot();
        for name in ["s2v.job", "retry.attempt", "hedge.attempt"] {
            assert_eq!(snap.histos[name].count(), 1, "{name}");
        }
        assert_eq!(c.trace_ids(), vec![root.trace]);
    }

    /// The disabled-mode no-op discipline extends to tracing: a
    /// disabled collector hands out `NONE` contexts, runs no fill
    /// closures, stores no spans, and records no histograms.
    #[test]
    fn disabled_tracing_is_a_no_op() {
        let c = Collector::new();
        c.set_enabled(false);
        let ran = AtomicU32::new(0);
        let root = c.trace_start(S2V_JOB);
        assert!(root.is_none());
        let child = c.span_start(RETRY_ATTEMPT, root);
        assert!(child.is_none());
        c.span_finish(child, |_| {
            ran.fetch_add(1, Ordering::Relaxed);
        });
        c.record_histo(V2S_PIECE_BYTES, 5);
        assert_eq!(ran.load(Ordering::Relaxed), 0, "fill must not run");
        let snap = c.snapshot();
        assert!(c.all_spans().is_empty());
        assert!(snap.histos.is_empty());
        assert_eq!(snap.dropped_spans, 0);
        // Spans started while enabled but finished while disabled stay
        // unclosed rather than recording.
        c.set_enabled(true);
        let root = c.trace_start(S2V_JOB);
        c.set_enabled(false);
        c.span_finish(root, |_| {});
        let spans = c.trace_spans(root.trace);
        assert_eq!(spans[0].end_us, None);
    }

    #[test]
    fn span_cap_drops_and_counts() {
        let c = Collector::new();
        let root = c.trace_start(S2V_JOB);
        let mut dropped = 0;
        for _ in 0..9000 {
            let ctx = c.span_start(RETRY_ATTEMPT, root);
            if ctx.is_none() {
                dropped += 1;
            } else {
                c.span_finish(ctx, |_| {});
            }
        }
        assert!(dropped > 0);
        assert_eq!(c.snapshot().dropped_spans, dropped);
        // Children of a dropped span are no-ops, not errors.
        let ctx = c.span_start(RETRY_ATTEMPT, TraceCtx::NONE);
        assert!(ctx.is_none());

        // Eight threads racing for the last ids of one trace: exactly
        // the cap's worth get one, and every other start is counted.
        let c = Arc::new(Collector::new());
        let root = c.trace_start(S2V_JOB);
        let kept: u64 = (0..8)
            .map(|_| {
                let c = Arc::clone(&c);
                thread::spawn(move || {
                    (0..1_200)
                        .filter(|_| c.span_start(RETRY_ATTEMPT, root).is_some())
                        .count() as u64
                })
            })
            .collect::<Vec<_>>()
            .into_iter()
            .map(|t| t.join().unwrap())
            .sum();
        let cap = trace::MAX_SPANS_PER_TRACE as u64 - 1; // the root has one
        assert_eq!(kept, cap);
        assert_eq!(c.snapshot().dropped_spans, 8 * 1_200 - cap);
        assert_eq!(c.trace_spans(root.trace).len() as u64, cap + 1);
    }

    /// A span's `fill` runs with no lock held: while one thread's fill
    /// blocks, another thread starts and finishes a span of the same
    /// trace. The blocked fill gives up after 5 s, so a recorder that
    /// waits on it fails the test instead of hanging it.
    #[test]
    fn a_blocked_fill_stalls_no_other_recorder() {
        let c = Arc::new(Collector::new());
        let root = c.trace_start(S2V_JOB);
        let blocked = c.span_start(RETRY_ATTEMPT, root);
        let (started_tx, started_rx) = mpsc::channel();
        let (release_tx, release_rx) = mpsc::channel::<()>();
        let a = {
            let c = Arc::clone(&c);
            thread::spawn(move || {
                c.span_finish(blocked, |s| {
                    started_tx.send(()).unwrap();
                    let _ = release_rx.recv_timeout(Duration::from_secs(5));
                    s.rows = 1;
                })
            })
        };
        started_rx
            .recv_timeout(Duration::from_secs(5))
            .expect("thread A's fill never started");
        let (done_tx, done_rx) = mpsc::channel();
        let b = {
            let c = Arc::clone(&c);
            thread::spawn(move || {
                let span = c.span_start(HEDGE_ATTEMPT, root);
                c.span_finish(span, |s| s.rows = 2);
                done_tx.send(span).unwrap();
            })
        };
        let b_done = done_rx.recv_timeout(Duration::from_secs(1));
        release_tx.send(()).ok();
        a.join().unwrap();
        b.join().unwrap();
        let b_span = b_done.expect("thread B waited for thread A's fill");
        c.span_finish(root, |_| {});
        let spans = c.trace_spans(root.trace);
        assert!(trace::validate(&spans).is_empty());
        assert_eq!(spans[blocked.span.0 as usize - 1].rows, 1);
        assert_eq!(spans[b_span.span.0 as usize - 1].rows, 2);
    }

    /// A `fill` may itself record spans: it holds no lock that the
    /// nested start and finish would need. The spans are recorded on a
    /// thread of their own, so a recorder deadlocked on itself fails
    /// the test instead of hanging it.
    #[test]
    fn a_fill_may_record_spans() {
        let c = Arc::new(Collector::new());
        let root = c.trace_start(S2V_JOB);
        let (tx, rx) = mpsc::channel();
        let recorder = {
            let c = Arc::clone(&c);
            thread::spawn(move || {
                let outer = c.span_start(RETRY_ATTEMPT, root);
                c.span_finish(outer, |s| {
                    let inner = c.span_start(HEDGE_ATTEMPT, outer);
                    c.span_finish(inner, |s| s.rows = 2);
                    s.rows = 1;
                });
                tx.send(()).unwrap();
            })
        };
        rx.recv_timeout(Duration::from_secs(5))
            .expect("a fill that records a span deadlocked");
        recorder.join().unwrap();
        c.span_finish(root, |_| {});
        let spans = c.trace_spans(root.trace);
        assert_eq!(spans.len(), 3);
        assert!(trace::validate(&spans).is_empty());
        assert_eq!((spans[1].name, spans[1].rows), ("retry.attempt", 1));
        assert_eq!((spans[2].name, spans[2].rows), ("hedge.attempt", 2));
        assert_eq!(spans[2].parent, Some(spans[1].span));
    }

    /// Eight threads record 1,000 spans each into one trace. Every
    /// other span is finished by the next thread instead of its
    /// starter, and every fourth is finished twice, by both. Ids come
    /// out dense and unique, exactly one close of each span runs its
    /// `fill` and feeds the histogram, and the trace reads back sorted
    /// and whole.
    #[test]
    fn spans_from_eight_threads_get_dense_ids_and_one_close_each() {
        const THREADS: usize = 8;
        const PER: u64 = 1_000;
        let c = Arc::new(Collector::new());
        let root = c.trace_start(S2V_JOB);
        let fills = Arc::new(AtomicU64::new(0));
        let (txs, rxs): (Vec<_>, Vec<_>) = (0..THREADS).map(|_| mpsc::channel()).unzip();
        let threads: Vec<_> = rxs
            .into_iter()
            .enumerate()
            .map(|(t, rx)| {
                let (c, fills) = (Arc::clone(&c), Arc::clone(&fills));
                // The next thread finishes what this one hands over.
                let next: mpsc::Sender<(TraceCtx, u64)> = txs[(t + 1) % THREADS].clone();
                thread::spawn(move || {
                    let finish = |ctx: TraceCtx, rows: u64| {
                        c.span_finish(ctx, |s| {
                            fills.fetch_add(1, Ordering::Relaxed);
                            s.rows = rows;
                            s.task = Some(rows % 7);
                        })
                    };
                    let mut ids = Vec::new();
                    for i in 0..PER {
                        let ctx = c.span_start(RETRY_ATTEMPT, root);
                        ids.push(ctx.span.0);
                        let rows = t as u64 * PER + i;
                        match i % 4 {
                            0 => {
                                finish(ctx, rows);
                                // A second close changes nothing.
                                c.span_finish(ctx, |s| {
                                    s.rows = u64::MAX;
                                    s.failed = true;
                                });
                            }
                            1 => next.send((ctx, rows)).unwrap(),
                            2 => {
                                next.send((ctx, rows)).unwrap();
                                finish(ctx, rows);
                            }
                            _ => finish(ctx, rows),
                        }
                        while let Ok((ctx, rows)) = rx.try_recv() {
                            finish(ctx, rows);
                        }
                    }
                    drop(next);
                    for (ctx, rows) in rx {
                        finish(ctx, rows);
                    }
                    ids
                })
            })
            .collect();
        drop(txs);
        let mut ids: Vec<u64> = threads
            .into_iter()
            .flat_map(|t| t.join().unwrap())
            .collect();
        ids.sort_unstable();
        let total = THREADS as u64 * PER;
        assert_eq!(ids, (2..2 + total).collect::<Vec<_>>(), "dense and unique");
        c.span_finish(root, |_| {});
        assert_eq!(fills.load(Ordering::Relaxed), total, "one fill per span");
        let spans = c.trace_spans(root.trace);
        assert_eq!(spans.len() as u64, total + 1);
        assert!(
            spans.windows(2).all(|w| w[0].span < w[1].span),
            "sorted by id"
        );
        assert!(trace::validate(&spans).is_empty());
        for s in &spans[1..] {
            assert!(s.rows < total && !s.failed, "first close wins: {s:?}");
            assert_eq!(s.task, Some(s.rows % 7));
        }
        let mut rows: Vec<u64> = spans[1..].iter().map(|s| s.rows).collect();
        rows.sort_unstable();
        assert_eq!(rows, (0..total).collect::<Vec<_>>());
        assert_eq!(c.snapshot().histos["retry.attempt"].count(), total);
        assert_eq!(c.all_spans().len() as u64, total + 1);
    }

    /// Eight threads start 40 traces each, 2.5 times the table: the
    /// newest `MAX_TRACES` survive whole, the rest are gone, and a span
    /// started or finished in an evicted trace does nothing but count.
    #[test]
    fn trace_slots_evict_the_oldest_under_concurrency() {
        let c = Arc::new(Collector::new());
        let threads: Vec<_> = (0..8)
            .map(|_| {
                let c = Arc::clone(&c);
                thread::spawn(move || {
                    (0..40)
                        .map(|_| {
                            let root = c.trace_start(S2V_JOB);
                            let child = c.span_start(RETRY_ATTEMPT, root);
                            c.span_finish(child, |s| s.rows = root.trace.0);
                            c.span_finish(root, |_| {});
                            root
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        let mut roots: Vec<TraceCtx> = threads
            .into_iter()
            .flat_map(|t| t.join().unwrap())
            .collect();
        roots.sort_by_key(|r| r.trace);
        let ids: Vec<TraceId> = roots.iter().map(|r| r.trace).collect();
        assert_eq!(ids, (1..=320).map(TraceId).collect::<Vec<_>>());
        let (evicted, kept) = roots.split_at(320 - trace::MAX_TRACES);
        assert_eq!(
            c.trace_ids(),
            kept.iter().map(|r| r.trace).collect::<Vec<_>>()
        );
        for root in kept {
            let spans = c.trace_spans(root.trace);
            assert_eq!(spans.len(), 2);
            assert!(trace::validate(&spans).is_empty());
            assert_eq!(spans[1].rows, root.trace.0);
        }
        let all = c.all_spans();
        assert_eq!(all.len(), 2 * trace::MAX_TRACES);
        assert!(all
            .windows(2)
            .all(|w| (w[0].trace, w[0].span) < (w[1].trace, w[1].span)));
        assert!(evicted.iter().all(|r| c.trace_spans(r.trace).is_empty()));
        let before = c.snapshot();
        assert!(c.span_start(RETRY_ATTEMPT, evicted[0]).is_none());
        c.span_finish(evicted[1], |_| panic!("fill of an evicted span ran"));
        let after = c.snapshot();
        assert_eq!(after.dropped_spans, before.dropped_spans + 1);
        assert_eq!(after.histos["s2v.job"], before.histos["s2v.job"]);
    }

    /// A read beside running recorders shows every span with its
    /// parent. Four threads in a ring each start spans and hand them to
    /// the next thread, which starts and finishes a child under each
    /// and finishes it; a reader keeps reading the trace meanwhile.
    /// Four traces in turn, each near the span cap.
    #[test]
    fn a_read_beside_recorders_finds_no_orphans() {
        let c = Arc::new(Collector::new());
        for _ in 0..4 {
            read_beside_recorders(&c);
        }
    }

    fn read_beside_recorders(c: &Arc<Collector>) {
        const THREADS: usize = 4;
        let root = c.trace_start(S2V_JOB);
        let (txs, rxs): (Vec<_>, Vec<_>) = (0..THREADS).map(|_| mpsc::channel()).unzip();
        let writers: Vec<_> = rxs
            .into_iter()
            .enumerate()
            .map(|(t, rx)| {
                let c = Arc::clone(c);
                let next: mpsc::Sender<TraceCtx> = txs[(t + 1) % THREADS].clone();
                thread::spawn(move || {
                    let adopt = |parent: TraceCtx| {
                        let child = c.span_start(HEDGE_ATTEMPT, parent);
                        c.span_finish(child, |_| {});
                        c.span_finish(parent, |_| {});
                    };
                    for _ in 0..1_000 {
                        next.send(c.span_start(RETRY_ATTEMPT, root)).unwrap();
                        while let Ok(parent) = rx.try_recv() {
                            adopt(parent);
                        }
                    }
                    drop(next);
                    rx.into_iter().for_each(adopt);
                })
            })
            .collect();
        drop(txs);
        let mut reads = 0;
        while !writers.iter().all(|w| w.is_finished()) {
            let spans = c.trace_spans(root.trace);
            let orphans: Vec<_> = trace::validate(&spans)
                .into_iter()
                .filter(|i| matches!(i, trace::TraceIssue::Orphan { .. }))
                .collect();
            assert!(orphans.is_empty(), "read {reads}: {orphans:?}");
            reads += 1;
        }
        for w in writers {
            w.join().unwrap();
        }
        c.span_finish(root, |_| {});
        let spans = c.trace_spans(root.trace);
        assert_eq!(spans.len(), 1 + 2 * THREADS * 1_000);
        assert!(trace::validate(&spans).is_empty());
    }

    /// What a snapshot shows of the slots: a slot appears once recorded
    /// and never before, `add(c, 0)` counts as a record, each kind lands
    /// in its own map, and concurrent records into one histogram slot
    /// lose nothing.
    #[test]
    fn snapshot_shows_exactly_the_recorded_slots() {
        let c = Collector::new();
        let snap = c.snapshot();
        assert!(snap.counters.is_empty() && snap.timers.is_empty() && snap.histos.is_empty());

        c.add(SCHED_JOBS, 0);
        let snap = c.snapshot();
        assert_eq!(snap.counters.len(), 1);
        assert_eq!(snap.counters["sched.jobs"], 0);
        assert!(snap.timers.is_empty() && snap.histos.is_empty());

        c.record_time(DB_COMMIT_US, Duration::from_micros(7));
        c.record_histo(V2S_PIECE_BYTES, 9);
        let root = c.trace_start(S2V_JOB);
        c.span_start(RETRY_ATTEMPT, root); // started, never finished
        c.span_finish(root, |_| {});
        let snap = c.snapshot();
        assert_eq!(snap.counters.keys().collect::<Vec<_>>(), ["sched.jobs"]);
        assert_eq!(snap.timers.keys().collect::<Vec<_>>(), ["db.commit_us"]);
        assert_eq!(snap.timers["db.commit_us"].sum_us, 7);
        assert_eq!(
            snap.histos.keys().collect::<Vec<_>>(),
            ["s2v.job", "v2s.piece_bytes"]
        );
        assert_eq!(snap.histos["s2v.job"].count(), 1);
        assert_eq!(snap.histos["v2s.piece_bytes"].sum(), 9);

        let c = Arc::new(Collector::new());
        let threads: Vec<_> = (0..8u64)
            .map(|t| {
                let c = Arc::clone(&c);
                std::thread::spawn(move || {
                    for i in 0..1_000u64 {
                        c.record_histo(V2S_PIECE_BYTES, t * 1_000 + i);
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        let histo = &c.snapshot().histos["v2s.piece_bytes"];
        assert_eq!(histo.count(), 8_000);
        assert_eq!(histo.sum(), (0..8_000u64).sum::<u64>());
    }
}
