//! One run of one workload: set-up (repeated), warm-up, then either the
//! timed pass (spans off, end-to-end metrics) or the traced pass (spans
//! on, fixed work, per-layer metrics).

use std::path::PathBuf;
use std::time::Instant;

use crate::bed::Res;
use crate::drive::{closed_loop, open_loop, stream_warmup, Pass};
use crate::layers::{self, obs_values, pct_over, storage_values, ObsDelta};
use crate::metrics::{MetricDef, Values, END_TO_END, PER_LAYER};
use crate::spans::{write_jsonl, Spans};
use crate::stats::{cpu_ns, median, peak_rss_mb};
use crate::workloads::{
    Closed, PushdownAgg, PushdownInputs, S2vBulkSave, S2vInputs, Scale, StreamMixed, V2sInputs,
    V2sWideScan, WorkloadDef, REFERENCE_SECONDS,
};

/// The bed is set up and warmed up this many times per run, on a fresh
/// bed each time; `setup_s` is the median, so one slow set-up does not
/// move it. The last bed is the one measured.
const SETUP_REPEATS: usize = 3;

pub struct RunArgs {
    pub workload: &'static WorkloadDef,
    pub seed: u64,
    pub seconds: f64,
    pub scale: Scale,
    pub traced: bool,
}

pub struct RunOutput {
    /// End-to-end values of a timed run, per-layer values of a traced
    /// one.
    pub values: Values,
    pub attempted: u64,
    pub failed: u64,
    pub main_samples: usize,
    pub side_samples: usize,
    pub unsustainable: bool,
}

/// Run `setup` (bed, seeding, warm-up) [`SETUP_REPEATS`] times, keeping
/// the last; returns it with the median time in seconds.
fn repeated_setup<W>(mut setup: impl FnMut() -> Res<W>) -> Res<(W, f64)> {
    let mut times = Vec::with_capacity(SETUP_REPEATS);
    let mut kept = None;
    for _ in 0..SETUP_REPEATS {
        // The previous bed goes first: two beds never share memory.
        drop(kept.take());
        let t0 = Instant::now();
        kept = Some(setup()?);
        times.push(t0.elapsed().as_secs_f64());
    }
    Ok((kept.expect("SETUP_REPEATS > 0"), median(times)))
}

/// Ops of a pass for a run of `seconds`: fixed work, sized so that on
/// the seed the timed pass measures for about `seconds`. The traced
/// pass never has so few ops that a side op (at most every 10th) is
/// missing.
fn pass_ops(def: &WorkloadDef, seconds: f64, traced: bool) -> u64 {
    let scaled = |n: u64| (n as f64 * seconds / REFERENCE_SECONDS).round() as u64;
    if traced {
        scaled(def.traced_ops).max(20)
    } else {
        scaled(def.timed_cycles).max(1) * def.cycle_ops
    }
}

/// CPU and obs readings taken around the traced pass.
struct Around {
    obs: obs::Snapshot,
    cpu: Option<(u64, u64)>,
}

impl Around {
    fn now() -> Around {
        Around {
            obs: obs::global().snapshot(),
            cpu: cpu_ns(),
        }
    }
}

fn end_to_end(pass: &Pass, row_busy_s: f64, setup_s: f64) -> Values {
    let mut v = Values::default();
    v.set("rows_per_s", pass.rows as f64 / row_busy_s.max(1e-9));
    v.set("ops_per_s", pass.ops() as f64 / pass.busy_s.max(1e-9));
    v.set("op_ms_p50", pass.main.p50_ms());
    v.set("side_ms_p50", pass.side.p50_ms());
    v.set("setup_s", setup_s);
    v
}

/// Per-layer values every traced pass yields, whatever the workload.
fn traced_common(pass: &Pass, before: &Around, after: &Around, spans_recorded: usize) -> Values {
    let delta = ObsDelta::between(&before.obs, &after.obs);
    let mut v = obs_values(&delta, pass.ops());
    v.set(
        "e2e.op_ms_p95",
        pass.main.percentile_ms(0.95).unwrap_or(0.0),
    );
    v.set(
        "e2e.side_ms_p95",
        pass.side.percentile_ms(0.95).unwrap_or(0.0),
    );
    v.set(
        "netsim.recorder_events_per_op",
        pass.recorder_events as f64 / pass.ops().max(1) as f64,
    );
    if let (Some(b), Some(a)) = (before.cpu, after.cpu) {
        let (user, sys) = (a.0 - b.0, a.1 - b.1);
        v.set(
            "proc.cpu_ns_per_row",
            (user + sys) as f64 / pass.rows.max(1) as f64,
        );
        v.set(
            "proc.sys_share",
            100.0 * sys as f64 / (user + sys).max(1) as f64,
        );
    }
    v.set("proc.peak_rss_mb", peak_rss_mb().unwrap_or(0.0));
    v.set("gen.late_frac", 100.0 * pass.late_frac);
    v.set("gen.max_late_ms", pass.max_late_ms);
    v.set(
        "bench.span_overhead_pct",
        pct_over(pass.main_spans_on.p50_ms(), pass.main_spans_off.p50_ms()),
    );
    v.set("bench.spans_recorded", spans_recorded as f64);
    // Mover work is timed by the program itself; a pass is the moveout
    // and mergeout of one committed micro-batch.
    let mover_us = delta.timer_sum_us("tm.moveout_us") + delta.timer_sum_us("tm.mergeout_us");
    let batches = delta.counter("stream.batches");
    v.set(
        "mppdb.storage.mover_pass_ms",
        if batches > 0 {
            mover_us as f64 / 1e3 / batches as f64
        } else {
            0.0
        },
    );
    v
}

/// Where span files go: `<target dir>/perf/`, beside the build that is
/// running, so nothing is written under the repo root.
pub fn spans_dir() -> PathBuf {
    let exe = std::env::current_exe().unwrap_or_default();
    let profile_dir = exe.parent().unwrap_or(std::path::Path::new("."));
    profile_dir.parent().unwrap_or(profile_dir).join("perf")
}

fn write_spans(workload: &str, logs: &[&Spans]) {
    let path = spans_dir().join(format!("spans-{workload}.jsonl"));
    if let Err(e) = write_jsonl(&path, logs) {
        eprintln!("perf: cannot write {}: {e}", path.display());
    }
}

/// Run a closed-loop workload; `extras` adds the workload's own
/// per-layer values after a traced pass.
fn run_closed<W: Closed>(
    args: &RunArgs,
    setup: impl Fn() -> Res<W>,
    extras: impl FnOnce(&W) -> Values,
) -> Res<RunOutput> {
    let def = args.workload;
    let origin = Instant::now();
    let mut spans = Spans::new(origin);
    let ((mut w, warm), setup_s) = repeated_setup(|| {
        let mut w = setup()?;
        let warm = closed_loop(&mut w, 0, def.warmup_ops, &mut spans, false);
        Ok((w, warm))
    })?;

    let ops = pass_ops(def, args.seconds, args.traced);
    let (pass, values) = if args.traced {
        let before = Around::now();
        let pass = closed_loop(&mut w, def.warmup_ops, ops, &mut spans, true);
        let after = Around::now();
        let mut v = traced_common(&pass, &before, &after, spans.len());
        v.extend(extras(&w));
        write_spans(def.name, &[&spans]);
        (pass, v)
    } else {
        let pass = closed_loop(&mut w, def.warmup_ops, ops, &mut spans, false);
        let v = end_to_end(&pass, pass.busy_s, setup_s);
        (pass, v)
    };
    let (checks, wrong) = w.finish();
    Ok(RunOutput {
        values,
        attempted: warm.attempted + pass.attempted + checks,
        failed: warm.failed + pass.failed + wrong,
        main_samples: pass.main.len(),
        side_samples: pass.side.len(),
        unsustainable: false,
    })
}

fn run_stream(args: &RunArgs) -> Res<RunOutput> {
    let def = args.workload;
    let origin = Instant::now();
    let (mut writer_spans, mut prober_spans) = (Spans::new(origin), Spans::new(origin));
    let (mut w, setup_s) = repeated_setup(|| {
        let mut w = StreamMixed::setup(args.seed)?;
        stream_warmup(&mut w, def.warmup_ops)?;
        Ok(w)
    })?;

    let batches = pass_ops(def, args.seconds, args.traced);
    let before = Around::now();
    let pass = open_loop(
        &mut w,
        batches,
        2 * def.warmup_ops,
        &mut writer_spans,
        &mut prober_spans,
        args.traced,
    );
    let after = Around::now();
    let values = if args.traced {
        let recorded = writer_spans.len() + prober_spans.len();
        let mut v = traced_common(&pass, &before, &after, recorded);
        v.set("connector.stream.flush_ms_p50", pass.flush.p50_ms());
        v.set("connector.stream.flush_growth_x", pass.flush.growth());
        v.extend(storage_values(&w.bed, StreamMixed::TABLE));
        write_spans(def.name, &[&writer_spans, &prober_spans]);
        v
    } else {
        end_to_end(&pass, pass.flush.total_s(), setup_s)
    };
    let unsustainable = pass.unsustainable();
    if unsustainable {
        eprintln!(
            "perf: stream_mixed is unsustainable here: {:.1}% of batches started more than \
             one period late (worst {:.0} ms); its latencies describe a growing backlog",
            100.0 * pass.late_frac,
            pass.max_late_ms
        );
    }
    let (checks, wrong) = w.finish();
    Ok(RunOutput {
        values,
        attempted: def.warmup_ops + pass.attempted + checks,
        failed: pass.failed + wrong,
        main_samples: pass.main.len(),
        side_samples: pass.side.len(),
        unsustainable,
    })
}

pub fn run_workload(args: &RunArgs) -> Res<RunOutput> {
    match args.workload.name {
        "v2s_wide_scan" => {
            let inputs = V2sInputs::new(args.seed, args.scale);
            run_closed(
                args,
                || V2sWideScan::setup(&inputs),
                |w| storage_values(w.bed(), V2sWideScan::TABLE),
            )
        }
        "s2v_bulk_save" => {
            let inputs = S2vInputs::new(args.seed, args.scale);
            run_closed(
                args,
                || S2vBulkSave::setup(&inputs),
                |w| {
                    let mut v = storage_values(w.bed(), S2vBulkSave::TABLE);
                    const PHASES: [&str; 5] = [
                        "connector.s2v.phase1_us",
                        "connector.s2v.phase2_us",
                        "connector.s2v.phase3_us",
                        "connector.s2v.phase4_us",
                        "connector.s2v.phase5_us",
                    ];
                    for (name, us) in PHASES.into_iter().zip(w.phase_us) {
                        v.set(name, us as f64 / w.phase_saves.max(1) as f64);
                    }
                    v
                },
            )
        }
        "pushdown_agg" => {
            let inputs = PushdownInputs::new(args.seed, args.scale);
            run_closed(
                args,
                || PushdownAgg::setup(&inputs),
                |w| storage_values(w.bed(), PushdownAgg::TABLE),
            )
        }
        "stream_mixed" => run_stream(args),
        other => Err(format!("unknown workload {other}")),
    }
}

/// The layer calls that make up one user row's trip through a bulk
/// workload; empty for the other two.
pub fn budget_parts(workload: &str) -> &'static [&'static str] {
    match workload {
        "v2s_wide_scan" => &[
            "mppdb.storage.scan_batch_ns_per_row",
            "mppdb.storage.into_rows_ns_per_row",
            "sparklet.dataframe.collect_ns_per_row",
        ],
        // COPY of an avro source covers decode, segmentation hashing,
        // sort/encode into ROS and container statistics.
        "s2v_bulk_save" => &["avrolite.encode_ns_per_row", "mppdb.copy.avro_ns_per_row"],
        _ => &[],
    }
}

/// The budget: the layers' ns per row beside the CPU the process
/// actually spent per row, and the share no layer call accounts for.
fn set_budget(workload: &str, values: &mut Values) {
    let parts = budget_parts(workload);
    let layers_ns = parts
        .iter()
        .filter_map(|p| values.get(p))
        .fold(0.0, |sum, ns| sum + ns);
    let cpu = values.get("proc.cpu_ns_per_row").unwrap_or(0.0);
    values.set("budget.layers_ns_per_row", layers_ns);
    values.set(
        "budget.residual_pct",
        if parts.is_empty() || cpu <= 0.0 {
            0.0
        } else {
            100.0 * (cpu - layers_ns) / cpu
        },
    );
}

/// One run and the metric table its values answer to: the timed pass
/// and the end-to-end table, or the traced pass plus the micro-suite
/// and the per-layer table.
pub fn run(args: &RunArgs) -> Res<(RunOutput, &'static [MetricDef])> {
    if args.traced {
        Ok((run_layers(args)?, &PER_LAYER))
    } else {
        Ok((run_workload(args)?, &END_TO_END))
    }
}

fn run_layers(args: &RunArgs) -> Res<RunOutput> {
    let mut out = run_workload(args)?;
    // A value that does not apply to this workload is 0.
    let mut values = Values::default();
    for m in &PER_LAYER {
        values.set(m.name, 0.0);
    }
    values.extend(std::mem::take(&mut out.values));
    out.values = values;
    let mut spans = Spans::new(Instant::now());
    spans.set_on(true);
    out.values
        .extend(layers::micro_suite(args.seed, args.scale, &mut spans)?);
    write_spans(&format!("{}-layers", args.workload.name), &[&spans]);
    set_budget(args.workload.name, &mut out.values);
    Ok(out)
}
