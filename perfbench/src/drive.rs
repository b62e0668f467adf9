//! The two load generators: a closed loop shared by the three
//! single-client workloads, and the open loop of `stream_mixed`.
//!
//! Load generation is one thread (two for `stream_mixed`: writer and
//! prober), never more than the machine has cores for.

use std::time::{Duration, Instant};

use crate::bed::{err, Res};
use crate::spans::{SpanId, Spans};
use crate::stats::Samples;
use crate::workloads::{
    Closed, StreamMixed, STREAM_BATCH_ROWS, STREAM_PERIOD, STREAM_PROBE_OFFSET,
};

/// What one pass measured.
#[derive(Default)]
pub struct Pass {
    /// Latency of main and side ops: service time in a closed loop,
    /// time from the op's due instant in the open loop.
    pub main: Samples,
    pub side: Samples,
    /// Service time of the main ops of the ops recorded with spans on
    /// and off (traced pass only): the spans' own overhead.
    pub main_spans_on: Samples,
    pub main_spans_off: Samples,
    /// Open loop: service time of each `append_rows`, in order.
    pub flush: Samples,
    /// Seconds the clients spent inside calls into the system.
    pub busy_s: f64,
    pub rows: u64,
    pub attempted: u64,
    pub failed: u64,
    /// Netsim recorder events the ops left behind.
    pub recorder_events: u64,
    /// Open loop: share of batches that started more than one period
    /// late, and the worst lateness of any op.
    pub late_frac: f64,
    pub max_late_ms: f64,
}

impl Pass {
    pub fn ops(&self) -> u64 {
        (self.main.len() + self.side.len()) as u64
    }

    fn push_spans_half(&mut self, spans_on: bool, service: Duration) {
        if spans_on {
            self.main_spans_on.push(service);
        } else {
            self.main_spans_off.push(service);
        }
    }

    /// The open loop could not keep its schedule: latencies then grow
    /// for as long as the run lasts and say nothing about the system
    /// at this rate.
    pub fn unsustainable(&self) -> bool {
        self.late_frac > 0.05
    }
}

/// The traced pass records spans for two ops in every four: whatever
/// the period of a workload's side op, both op kinds land in both
/// halves, and the halves give the spans' own overhead.
fn spans_turn(op: u64) -> bool {
    (op / 2).is_multiple_of(2)
}

/// Drive `w` through ops `first_op .. first_op + ops`.
pub fn closed_loop(
    w: &mut dyn Closed,
    first_op: u64,
    ops: u64,
    spans: &mut Spans,
    traced: bool,
) -> Pass {
    let mut pass = Pass::default();
    for i in first_op..first_op + ops {
        let spans_on = traced && spans_turn(i);
        spans.set_on(spans_on);
        let root = spans.start("op", i, SpanId::NONE);
        let out = w.op(i, spans, root);
        spans.end(root);
        pass.attempted += 1;
        pass.failed += u64::from(!out.ok);
        pass.rows += out.rows;
        pass.busy_s += out.service.as_secs_f64();
        if out.side {
            pass.side.push(out.service);
        } else {
            pass.main.push(out.service);
            if traced {
                pass.push_spans_half(spans_on, out.service);
            }
        }
        pass.recorder_events += w.bed().take_recorder_events();
    }
    spans.set_on(false);
    pass
}

/// Sleep until `due`; returns how late the caller woke (zero when on
/// time).
fn wait_until(due: Instant) -> Duration {
    let now = Instant::now();
    if due > now {
        std::thread::sleep(due - now);
    }
    Instant::now().saturating_duration_since(due)
}

/// Warm the stream up with `batches` back-to-back appends (no probes:
/// the first batch must commit before any probe has an answer).
pub fn stream_warmup(w: &mut StreamMixed, batches: u64) -> Res<()> {
    for _ in 0..batches {
        let batch = w.next_batch();
        w.append(batch)?;
        w.bed.take_recorder_events();
    }
    Ok(())
}

/// The open loop: batch `k` is due at `start + k × period`, probe `k`
/// at `start + offset + k × period`, whatever the system is doing.
/// Every latency counts from the due instant, so a stall is charged to
/// each op it delays.
pub fn open_loop(
    w: &mut StreamMixed,
    batches: u64,
    first_op: u64,
    writer_spans: &mut Spans,
    prober_spans: &mut Spans,
    traced: bool,
) -> Pass {
    let db = std::sync::Arc::clone(&w.bed.db);
    let probe = StreamMixed::probe_spec();
    let expect = STREAM_BATCH_ROWS as u64;
    let start = Instant::now() + Duration::from_millis(5);
    let mut pass = Pass::default();

    struct Side {
        lat: Samples,
        busy_s: f64,
        failed: u64,
        max_late: Duration,
    }

    let side = std::thread::scope(|scope| {
        let prober = scope.spawn(|| {
            let mut out = Side {
                lat: Samples::default(),
                busy_s: 0.0,
                failed: 0,
                max_late: Duration::ZERO,
            };
            for k in 0..batches {
                let op_id = first_op + 2 * k + 1;
                let due = start + STREAM_PROBE_OFFSET + STREAM_PERIOD * k as u32;
                out.max_late = out.max_late.max(wait_until(due));
                prober_spans.set_on(traced && spans_turn(k));
                let root = prober_spans.start("op", op_id, SpanId::NONE);
                let t0 = Instant::now();
                let answer = prober_spans.within("mppdb.query.probe", op_id, root, || {
                    db.connect(k as usize % db.node_count())
                        .and_then(|mut s| s.query(&probe))
                        .map_err(err("probe"))
                });
                let done = Instant::now();
                prober_spans.end(root);
                out.busy_s += (done - t0).as_secs_f64();
                out.lat.push(done - due);
                match answer {
                    Ok(r) if r.count == expect => {}
                    Ok(r) => {
                        eprintln!("perf: probe counted {}, expected {expect}", r.count);
                        out.failed += 1;
                    }
                    Err(e) => {
                        eprintln!("perf: {e}");
                        out.failed += 1;
                    }
                }
            }
            prober_spans.set_on(false);
            out
        });

        let mut late_batches = 0u64;
        let mut max_late = Duration::ZERO;
        for k in 0..batches {
            let op_id = first_op + 2 * k;
            let batch = w.next_batch();
            let due = start + STREAM_PERIOD * k as u32;
            let late = wait_until(due);
            max_late = max_late.max(late);
            late_batches += u64::from(late > STREAM_PERIOD);
            let spans_on = traced && spans_turn(k);
            writer_spans.set_on(spans_on);
            let root = writer_spans.start("op", op_id, SpanId::NONE);
            let t0 = Instant::now();
            let span = writer_spans.start("connector.stream.append_rows", op_id, root);
            let answer = w.append(batch);
            writer_spans.end(span);
            let done = Instant::now();
            writer_spans.end(root);
            let service = done - t0;
            pass.busy_s += service.as_secs_f64();
            pass.flush.push(service);
            pass.main.push(done - due);
            if traced {
                pass.push_spans_half(spans_on, service);
            }
            match answer {
                Ok(rows) => pass.rows += rows,
                Err(e) => {
                    eprintln!("perf: batch {k} failed: {e}");
                    pass.failed += 1;
                }
            }
            pass.recorder_events += w.bed.take_recorder_events();
        }
        writer_spans.set_on(false);
        pass.late_frac = late_batches as f64 / batches.max(1) as f64;
        let side = prober.join().expect("prober thread panicked");
        pass.max_late_ms = max_late.max(side.max_late).as_secs_f64() * 1e3;
        side
    });

    pass.side = side.lat;
    pass.busy_s += side.busy_s;
    pass.failed += side.failed;
    pass.attempted = 2 * batches;
    pass
}
