//! The per-layer pass: repeated single-threaded calls into each layer
//! through its public functions, and exact deltas of what the program
//! already publishes (obs counters and timers, `SaveReport.phase_us`,
//! `Cluster::table_stats`). Nothing here adds a span, counter or switch
//! to a product crate.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

use common::agg::AggRequest;
use common::{Expr, Row, Schema};
use connector::{ConnectorOptions, DbRelation, ModelDeployment, SaveRequest};
use mppdb::{CopyOptions, CopySource, QuerySpec};
use sparklet::mllib::LinearRegressionModel;
use sparklet::pmml_export::linear_to_pmml;
use sparklet::SaveMode;

use crate::bed::{err, Bed, Res};
use crate::gen::{self, Rng};
use crate::metrics::Values;
use crate::spans::{SpanId, Spans};
use crate::stats::median;
use crate::workloads::{fact_agg_calls, judge_groups, seed_fact, PushdownInputs, Scale, D1_COLS};

/// Calls per micro-measurement: the one-shot sizing probe saw single
/// calls vary fivefold with allocator state, medians of 21 do not.
const WARMUP_CALLS: usize = 3;
const CALLS: usize = 21;

/// What the obs collector recorded between two snapshots.
pub struct ObsDelta {
    counters: BTreeMap<String, u64>,
    /// Timer name → (events, summed microseconds).
    timers: BTreeMap<String, (u64, u64)>,
    pub dropped_events: u64,
    pub dropped_spans: u64,
}

impl ObsDelta {
    pub fn between(before: &obs::Snapshot, after: &obs::Snapshot) -> ObsDelta {
        let timers = after
            .timers
            .iter()
            .map(|(name, t)| {
                let b = before.timers.get(name).copied().unwrap_or_default();
                (
                    name.clone(),
                    (
                        t.count.saturating_sub(b.count),
                        t.sum_us.saturating_sub(b.sum_us),
                    ),
                )
            })
            .collect();
        ObsDelta {
            counters: after.counters_since(before),
            timers,
            dropped_events: after.dropped_events.saturating_sub(before.dropped_events),
            dropped_spans: after.dropped_spans.saturating_sub(before.dropped_spans),
        }
    }

    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Mean microseconds per recorded event of a timer.
    pub fn timer_mean_us(&self, name: &str) -> f64 {
        match self.timers.get(name) {
            Some((n, sum)) if *n > 0 => *sum as f64 / *n as f64,
            _ => 0.0,
        }
    }

    pub fn timer_sum_us(&self, name: &str) -> u64 {
        self.timers.get(name).map_or(0, |t| t.1)
    }
}

/// Counters reported per op of the traced pass.
const COUNTERS_PER_OP: [&str; 19] = [
    "scan.rows_examined",
    "scan.values_decoded",
    "scan.containers_skipped",
    "scan.rows_skipped",
    "tm.rows_moved",
    "tm.containers_merged",
    "tm.sheds",
    "agg.pushdown.stats_answered",
    "agg.pushdown.partials_merged",
    "planner.conjuncts_reordered",
    "db.pool_queued",
    "shed.total",
    "sched.tasks_launched",
    "sched.task_retries",
    "v2s.pieces",
    "v2s.bytes",
    "retry.attempts",
    "hedge.launched",
    "failover.connects",
];

/// Timers reported as mean microseconds per event.
const TIMER_MEANS: [&str; 7] = [
    "db.copy_us",
    "stats.build_us",
    "db.commit_us",
    "db.pool_admit_wait_us",
    "sched.slot_wait_us",
    "sched.task_run_us",
    "v2s.piece_us",
];

/// The obs deltas of a traced pass of `ops` ops as per-layer values.
pub fn obs_values(delta: &ObsDelta, ops: u64) -> Values {
    let mut v = Values::default();
    let per_op = |n: u64| n as f64 / ops.max(1) as f64;
    for name in COUNTERS_PER_OP {
        v.set(name, per_op(delta.counter(name)));
    }
    for name in TIMER_MEANS {
        v.set(name, delta.timer_mean_us(name));
    }
    v.set("dc.dropped_events", delta.dropped_events as f64);
    v.set("dc.dropped_spans", delta.dropped_spans as f64);
    v
}

/// Repeats one call and reports the median; every call is a span.
struct Micro<'a> {
    spans: &'a mut Spans,
    next_op: u64,
    warmup: usize,
    calls: usize,
}

impl Micro<'_> {
    /// Median nanoseconds of `call` over [`CALLS`] calls, each on a
    /// fresh input from `prepare` (untimed).
    fn median_ns<S>(
        &mut self,
        name: &'static str,
        mut prepare: impl FnMut(usize) -> Res<S>,
        mut call: impl FnMut(S) -> Res<()>,
    ) -> Res<f64> {
        let mut ns = Vec::with_capacity(self.calls);
        for k in 0..self.warmup + self.calls {
            let input = prepare(k)?;
            let op = self.next_op;
            self.next_op += 1;
            let span = self.spans.start(name, op, SpanId::NONE);
            let t0 = Instant::now();
            let out = call(input);
            let dt = t0.elapsed();
            self.spans.end(span);
            out.map_err(|e| format!("{name}: {e}"))?;
            if k >= self.warmup {
                ns.push(dt.as_nanos() as f64);
            }
        }
        Ok(median(ns))
    }
}

fn avro_bytes(schema: &avrolite::AvroSchema, rows: &[Row]) -> Res<Vec<u8>> {
    let mut w = avrolite::Writer::new(schema.clone(), avrolite::Codec::Rle);
    for r in rows {
        w.write_row(r).map_err(err("avro write_row"))?;
    }
    Ok(w.finish())
}

/// Rows of the micro-calls that take row batches: a prefix of the
/// workloads' D1 table.
const MICRO_ROWS: usize = 2_000;
/// Rows of the micro-suite's own D1 table, also a prefix: one
/// partition's share of `v2s_wide_scan`'s table (40,000 rows over 8
/// partitions). Table scans, saves, scoring and the baseline run on it.
const PART_ROWS: usize = 5_000;
/// Calls (after one warm-up) of a micro-call that takes a tenth of a
/// second or more, where allocator state no longer decides the time.
const SLOW_CALLS: usize = 7;

/// The micro-suite's D1 bed: a prefix of the workloads' D1 rows, as
/// rows and (once [`reads`] has loaded it) as the table `d1`.
struct D1 {
    bed: Bed,
    schema: Schema,
    rows: Vec<Row>,
}

impl D1 {
    /// The rows the row-batch calls take.
    fn sample(&self) -> &[Row] {
        &self.rows[..MICRO_ROWS.min(self.rows.len())]
    }
}

/// Every layer's repeated-call metrics, on inputs made from `seed`
/// exactly as the workloads make theirs. Independent of the workload
/// of the run, so each traced run reports the same set.
pub fn micro_suite(seed: u64, scale: Scale, spans: &mut Spans) -> Res<Values> {
    let mut v = Values::default();
    let mut m = Micro {
        spans,
        next_op: 1 << 32,
        warmup: WARMUP_CALLS,
        calls: CALLS,
    };
    let d1 = D1 {
        bed: Bed::new(),
        schema: gen::d1_schema(D1_COLS),
        rows: gen::d1_rows(seed, (PART_ROWS / scale.0).max(8), D1_COLS),
    };
    codecs(&d1, &mut m, &mut v)?;
    copies(&d1, &mut m, &mut v)?;
    reads(&d1, &mut m, &mut v)?;
    let s2v_s = saves(&d1, &mut v)?;
    scoring(&d1, seed, &mut v)?;
    transactions(&d1, seed, &mut m, &mut v)?;
    baseline(&d1, s2v_s, &mut v)?;
    drop(d1);
    queries(seed, scale, &mut m, &mut v)?;
    Ok(v)
}

/// avrolite encode and decode, segmentation hashing.
fn codecs(d1: &D1, m: &mut Micro, v: &mut Values) -> Res<()> {
    let sample = d1.sample();
    let n = sample.len() as f64;
    let avro_schema = avrolite::AvroSchema::from_schema("perf", &d1.schema);
    let bytes = avro_bytes(&avro_schema, sample)?;
    v.set("avrolite.bytes_per_row", bytes.len() as f64 / n);
    let enc = m.median_ns(
        "avrolite.encode",
        |_| Ok(()),
        |()| {
            let got = avro_bytes(&avro_schema, sample)?;
            std::hint::black_box(got.len());
            Ok(())
        },
    )?;
    v.set("avrolite.encode_ns_per_row", enc / n);
    let dec = m.median_ns(
        "avrolite.decode",
        |_| Ok(()),
        |()| {
            let rows = avrolite::Reader::new(&bytes)
                .map_err(err("avro reader"))?
                .read_all();
            if rows.len() != sample.len() {
                return Err(format!("decoded {} rows", rows.len()));
            }
            Ok(())
        },
    )?;
    v.set("avrolite.decode_ns_per_row", dec / n);
    let hash = m.median_ns(
        "common.hash",
        |_| Ok(()),
        |()| {
            let mut acc = 0u64;
            for r in sample {
                acc ^= common::hash::segmentation_hash(r.values());
            }
            std::hint::black_box(acc);
            Ok(())
        },
    )?;
    v.set("common.hash_ns_per_row", hash / n);
    Ok(())
}

/// `Session::copy` into a fresh table: DIRECT from avro and from
/// pre-parsed rows (the difference is COPY parse), into the WOS, and
/// the moveout of those WOS rows.
fn copies(d1: &D1, m: &mut Micro, v: &mut Values) -> Res<()> {
    const TABLE: &str = "micro_copy";
    let (bed, sample) = (&d1.bed, d1.sample());
    let n = sample.len() as f64;
    let bytes = avro_bytes(
        &avrolite::AvroSchema::from_schema("perf", &d1.schema),
        sample,
    )?;
    // One table at a time: `moveout_all` drains every table's WOS, and
    // only the one under test may hold rows.
    let fresh_table = || -> Res<()> {
        if bed.db.has_table(TABLE) {
            bed.db.drop_table(TABLE).map_err(err("drop table"))?;
        }
        bed.create_table(TABLE, &d1.schema, None)
    };
    let copy = |source: CopySource, direct: bool| -> Res<()> {
        let mut s = bed.db.connect(0).map_err(err("connect"))?;
        let options = CopyOptions {
            direct,
            ..CopyOptions::default()
        };
        let r = s.copy(TABLE, source, options).map_err(err("copy"))?;
        if r.loaded != sample.len() as u64 {
            return Err(format!("loaded {}", r.loaded));
        }
        Ok(())
    };
    let from_rows = |_| fresh_table().map(|()| CopySource::Rows(sample.to_vec()));
    let avro = m.median_ns(
        "mppdb.copy.avro",
        |_| fresh_table().map(|()| CopySource::Avro(bytes.clone())),
        |src| copy(src, true),
    )?;
    v.set("mppdb.copy.avro_ns_per_row", avro / n);
    let rows = m.median_ns("mppdb.copy.rows", from_rows, |src| copy(src, true))?;
    v.set("mppdb.copy.rows_ns_per_row", rows / n);
    let wos = m.median_ns("mppdb.copy.wos", from_rows, |src| copy(src, false))?;
    v.set("mppdb.copy.wos_ns_per_row", wos / n);
    let moveout = m.median_ns(
        "mppdb.storage.moveout",
        |k| from_rows(k).and_then(|src| copy(src, false)),
        |()| {
            let moved = bed.db.moveout_all();
            if moved != sample.len() {
                return Err(format!("moved {moved} rows"));
            }
            Ok(())
        },
    )?;
    v.set("mppdb.storage.moveout_ns_per_row", moveout / n);
    bed.db.drop_table(TABLE).map_err(err("drop table"))
}

/// The read side: batched scan, row materialisation, DataFrame
/// creation and collect, an empty job, relation open. Loads `d1`.
fn reads(d1: &D1, m: &mut Micro, v: &mut Values) -> Res<()> {
    let (bed, sample) = (&d1.bed, d1.sample());
    let (n, all) = (sample.len() as f64, d1.rows.len() as f64);
    bed.create_table("d1", &d1.schema, None)?;
    bed.copy_rows("d1", d1.rows.clone(), true)?;
    let mut session = bed.db.connect(0).map_err(err("connect"))?;
    let mut scan_d1 = || {
        session
            .query_batched(&QuerySpec::scan("d1"))
            .map_err(err("query_batched"))
    };
    let scan = m.median_ns(
        "mppdb.storage.scan_batch",
        |_| Ok(()),
        |()| {
            let r = scan_d1()?;
            if r.num_rows() != d1.rows.len() {
                return Err(format!("scanned {} rows", r.num_rows()));
            }
            Ok(())
        },
    )?;
    v.set("mppdb.storage.scan_batch_ns_per_row", scan / all);
    let batch = scan_d1()?.batch.ok_or("query_batched returned no batch")?;
    let into_rows = m.median_ns(
        "mppdb.storage.into_rows",
        |_| Ok(batch.clone()),
        |b| {
            std::hint::black_box(b.into_rows().len());
            Ok(())
        },
    )?;
    v.set("mppdb.storage.into_rows_ns_per_row", into_rows / all);
    let create = m.median_ns(
        "sparklet.dataframe.create",
        |_| Ok(sample.to_vec()),
        |rows| {
            bed.ctx
                .create_dataframe(rows, d1.schema.clone(), 8)
                .map(|_| ())
                .map_err(err("create_dataframe"))
        },
    )?;
    v.set("sparklet.dataframe.create_ns_per_row", create / n);
    let df = bed
        .ctx
        .create_dataframe(d1.rows.clone(), d1.schema.clone(), 8)
        .map_err(err("create_dataframe"))?;
    let collect = m.median_ns(
        "sparklet.dataframe.collect",
        |_| Ok(()),
        |()| {
            let rows = df.collect().map_err(err("collect"))?;
            std::hint::black_box(rows.len());
            Ok(())
        },
    )?;
    v.set("sparklet.dataframe.collect_ns_per_row", collect / all);
    let empty_job = m.median_ns(
        "sparklet.scheduler.empty_job",
        |_| Ok(()),
        |()| {
            bed.ctx
                .run_partitions(8, |_| Ok(()))
                .map(|_| ())
                .map_err(err("run_partitions"))
        },
    )?;
    v.set("sparklet.scheduler.empty_job_us", empty_job / 1e3);
    let opts = ConnectorOptions::builder("d1")
        .num_partitions(8)
        .build()
        .map_err(err("options"))?;
    let open = m.median_ns(
        "connector.v2s.open",
        |_| Ok(()),
        |()| {
            DbRelation::open(Arc::clone(&bed.db), &opts)
                .map(|_| ())
                .map_err(err("open"))
        },
    )?;
    v.set("connector.v2s.open_us", open / 1e3);
    Ok(())
}

/// Short arms of S2V saves of the D1 rows: collector on against off,
/// and prehashed. Returns the median seconds of a plain save.
fn saves(d1: &D1, v: &mut Values) -> Res<f64> {
    let bed = &d1.bed;
    let df = bed
        .ctx
        .create_dataframe(d1.rows.clone(), d1.schema.clone(), 8)
        .map_err(err("create_dataframe"))?;
    let save = |table: &str, prehash: bool| -> Res<f64> {
        let mut b = ConnectorOptions::builder(table).num_partitions(8);
        if prehash {
            b = b.prehash();
        }
        let opts = b.build().map_err(err("options"))?;
        let t0 = Instant::now();
        let r = SaveRequest::new(&bed.ctx, &bed.db, &df, &opts)
            .mode(SaveMode::Overwrite)
            .submit()
            .map_err(err("save"))?;
        let dt = t0.elapsed().as_secs_f64();
        if r.rows_loaded != d1.rows.len() as u64 {
            return Err(format!("saved {} rows", r.rows_loaded));
        }
        bed.take_recorder_events();
        Ok(dt)
    };
    save("micro_save", false)?;
    let (on, off) = on_off(&|_| save("micro_save", false), SLOW_CALLS)?;
    v.set("obs.overhead_pct.s2v", pct_over(on, off));
    save("micro_prehash", true)?;
    let prehash = (0..SLOW_CALLS)
        .map(|_| save("micro_prehash", true))
        .collect::<Res<Vec<f64>>>()?;
    v.set(
        "connector.s2v.prehash_rows_per_s",
        d1.rows.len() as f64 / median(prehash),
    );
    Ok(on)
}

/// MD: deploy a linear-regression PMML with seeded weights and score
/// the `d1` table with `PMMLPredict`; the oracle is the model itself.
fn scoring(d1: &D1, seed: u64, v: &mut Values) -> Res<()> {
    let mut rng = Rng::new(seed, gen::STREAM_OPS ^ 0xD1);
    let model = LinearRegressionModel {
        intercept: rng.unit(),
        weights: (0..D1_COLS).map(|_| rng.unit() - 0.5).collect(),
    };
    let features: Vec<String> = (0..D1_COLS).map(|i| format!("c{i}")).collect();
    let md = ModelDeployment::new(Arc::clone(&d1.bed.db)).map_err(err("md"))?;
    md.deploy_pmml_model(
        &linear_to_pmml(&model, "perf_linear", Some(&features), "y"),
        true,
    )
    .map_err(err("deploy"))?;
    let sql = format!(
        "SELECT PMMLPredict({} USING PARAMETERS model_name='perf_linear') FROM d1",
        features.join(", ")
    );
    let expect: f64 = d1
        .rows
        .iter()
        .map(|r| {
            let x: Vec<f64> = r.values().iter().filter_map(|c| c.as_f64().ok()).collect();
            model.predict(&x)
        })
        .sum();
    let mut session = d1.bed.db.connect(0).map_err(err("connect"))?;
    let mut times = Vec::new();
    for _ in 0..3 {
        let t0 = Instant::now();
        let scored = session
            .execute(&sql)
            .and_then(|r| r.rows())
            .map_err(err("PMMLPredict"))?;
        times.push(t0.elapsed().as_secs_f64());
        let rows = scored.into_rows();
        let sum: f64 = rows
            .iter()
            .map(|r| r.get(0).as_f64().unwrap_or(f64::NAN))
            .sum();
        // NaN fails the comparison, as it must.
        let close = (sum - expect).abs() <= 1e-6 * expect.abs().max(1.0);
        if rows.len() != d1.rows.len() || !close {
            return Err(format!(
                "PMMLPredict scored {} rows summing to {sum}, expected {} and {expect}",
                rows.len(),
                d1.rows.len()
            ));
        }
    }
    v.set(
        "connector.md.score_rows_per_s",
        d1.rows.len() as f64 / median(times),
    );
    Ok(())
}

/// A one-row transaction, and a session connect.
fn transactions(d1: &D1, seed: u64, m: &mut Micro, v: &mut Values) -> Res<()> {
    let bed = &d1.bed;
    bed.create_table("micro_txn", &gen::tweet_schema(), None)?;
    let one_row = gen::Tweets::new(seed).batch(1);
    let mut session = bed.db.connect(0).map_err(err("connect"))?;
    let commit = m.median_ns(
        "mppdb.txn.commit",
        |_| Ok(one_row.clone()),
        |row| {
            session.begin().map_err(err("begin"))?;
            session.insert("micro_txn", row).map_err(err("insert"))?;
            session.commit().map(|_| ()).map_err(err("commit"))
        },
    )?;
    v.set("mppdb.txn.commit_us", commit / 1e3);
    let connect = m.median_ns(
        "mppdb.session.connect",
        |k| Ok(k % bed.db.node_count()),
        |node| bed.db.connect(node).map(|_| ()).map_err(err("connect")),
    )?;
    v.set("mppdb.session.connect_us", connect / 1e3);
    Ok(())
}

/// The deliberately dumb arm: one thread, CSV text through the parser,
/// 1,000-row INSERT transactions. Every layer of machinery in the S2V
/// path has to beat this or justify itself otherwise; `s2v_s` is the
/// S2V save of the same rows.
fn baseline(d1: &D1, s2v_s: f64, v: &mut Values) -> Res<()> {
    let csv = common::csv::encode_rows(&d1.rows, ',');
    d1.bed.create_table("micro_baseline", &d1.schema, None)?;
    let mut session = d1.bed.db.connect(0).map_err(err("connect"))?;
    let t0 = Instant::now();
    let mut inserted = 0u64;
    let mut pending: Vec<Row> = Vec::with_capacity(1_000);
    for line in csv.lines() {
        pending.push(common::csv::parse_row(line, &d1.schema, ',').map_err(err("csv parse"))?);
        if pending.len() == 1_000 {
            inserted += session
                .insert("micro_baseline", std::mem::take(&mut pending))
                .map_err(err("insert"))?;
        }
    }
    if !pending.is_empty() {
        inserted += session
            .insert("micro_baseline", pending)
            .map_err(err("insert"))?;
    }
    let baseline_s = t0.elapsed().as_secs_f64();
    if inserted != d1.rows.len() as u64 {
        return Err(format!("baseline inserted {inserted} rows"));
    }
    v.set(
        "baseline.csv_insert_rows_per_s",
        d1.rows.len() as f64 / baseline_s,
    );
    v.set("baseline.s2v_vs_baseline_x", baseline_s / s2v_s);
    Ok(())
}

/// The two `pushdown_agg` ops as bare `Session::query` aggregates (no
/// connector, no scheduler) on that workload's own table, the
/// selective one through SQL text as well, and the collector's
/// overhead on the op through the connector.
fn queries(seed: u64, scale: Scale, m: &mut Micro, v: &mut Values) -> Res<()> {
    let inputs = PushdownInputs::new(seed, scale);
    let bed = Bed::new();
    seed_fact(&bed, "fact", &inputs.fact)?;
    let mut session = bed.db.connect(0).map_err(err("connect"))?;
    let request = || AggRequest::new(&["grp"], fact_agg_calls());
    let window = |k: usize| Ok(&inputs.windows[k % inputs.windows.len()]);
    let before = obs::global().snapshot();
    let sel = m.median_ns("mppdb.query.agg_sel", window, |(lo, hi, expect)| {
        let in_window = Expr::col("ts")
            .gt_eq(Expr::lit(*lo))
            .and(Expr::col("ts").lt(Expr::lit(*hi)));
        let spec = QuerySpec::scan("fact")
            .filter(in_window)
            .aggregate(request());
        let r = session.query(&spec).map_err(err("query"))?;
        judge_groups(&r.into_rows(), expect).map(|_| ())
    })?;
    let delta = ObsDelta::between(&before, &obs::global().snapshot());
    v.set("mppdb.query.agg_sel_us", sel / 1e3);
    v.set(
        "mppdb.query.rows_examined_per_result",
        delta.counter("scan.rows_examined") as f64
            / ((WARMUP_CALLS + CALLS) as f64 * gen::FACT_GROUPS as f64),
    );
    let full = m.median_ns(
        "mppdb.query.agg_full",
        |k| Ok(&inputs.fulls[k % inputs.fulls.len()]),
        |(c, expect)| {
            let spec = QuerySpec::scan("fact")
                .filter(Expr::col("val").lt(Expr::lit(*c as f64)))
                .aggregate(request());
            let r = session.query(&spec).map_err(err("query"))?;
            judge_groups(&r.into_rows(), expect).map(|_| ())
        },
    )?;
    v.set("mppdb.query.agg_full_ms", full / 1e6);
    // The SQL path scans and materialises the whole table for this
    // query: two orders of magnitude slower than the call above.
    (m.warmup, m.calls) = (1, SLOW_CALLS);
    let sql_sel = m.median_ns("mppdb.sql.agg_sel", window, |(lo, hi, expect)| {
        let sql = format!(
            "SELECT grp, COUNT(*), SUM(val) FROM fact \
             WHERE ts >= {lo} AND ts < {hi} GROUP BY grp"
        );
        let r = session
            .execute(&sql)
            .and_then(|r| r.rows())
            .map_err(err("sql"))?;
        judge_groups(&r.into_rows(), expect).map(|_| ())
    })?;
    v.set("mppdb.sql.agg_sel_us", sql_sel / 1e3);

    // The selective op is where fixed per-job cost, and so the
    // collector, weighs most.
    let df_op = |k: usize| -> Res<f64> {
        let (lo, hi, expect) = &inputs.windows[k % inputs.windows.len()];
        let t0 = Instant::now();
        let rows = bed
            .ctx
            .read()
            .format(connector::DEFAULT_SOURCE)
            .option("host", 0)
            .option("table", "fact")
            .load()
            .and_then(|df| df.filter(Expr::col("ts").gt_eq(Expr::lit(*lo))))
            .and_then(|df| df.filter(Expr::col("ts").lt(Expr::lit(*hi))))
            .and_then(|df| df.agg(&["grp"], fact_agg_calls()))
            .and_then(|df| df.collect())
            .map_err(err("pushdown op"))?;
        let dt = t0.elapsed().as_secs_f64();
        judge_groups(&rows, expect)?;
        bed.take_recorder_events();
        Ok(dt)
    };
    for k in 0..20 {
        df_op(k)?;
    }
    let (on, off) = on_off(&df_op, 100)?;
    v.set("obs.overhead_pct.pushdown", pct_over(on, off));
    Ok(())
}

/// Median time of `call` with the obs collector on and with it off.
/// The two alternate call by call, so that drift over the arm
/// (allocator state, table growth) cancels.
fn on_off(call: &dyn Fn(usize) -> Res<f64>, pairs: usize) -> Res<(f64, f64)> {
    let (mut on, mut off) = (Vec::new(), Vec::new());
    for k in 0..2 * pairs {
        let enabled = k % 2 == 0;
        obs::global().set_enabled(enabled);
        let t = call(k);
        obs::global().set_enabled(true);
        if enabled { &mut on } else { &mut off }.push(t?);
    }
    Ok((median(on), median(off)))
}

/// How much larger `a` is than `b`, in percent of `b`.
pub fn pct_over(a: f64, b: f64) -> f64 {
    if b > 0.0 {
        (a - b) / b * 100.0
    } else {
        0.0
    }
}

/// Per-node container count and encoded-to-raw byte ratio of a table.
pub fn storage_values(bed: &Bed, table: &str) -> Values {
    let mut v = Values::default();
    if let Ok(stats) = bed.db.table_stats(table) {
        let nodes = stats.len().max(1) as f64;
        let containers: usize = stats.iter().map(|s| s.ros_containers).sum();
        let raw: usize = stats.iter().map(|s| s.ros_raw_bytes).sum();
        let encoded: usize = stats.iter().map(|s| s.ros_encoded_bytes).sum();
        v.set(
            "mppdb.storage.containers_per_node",
            containers as f64 / nodes,
        );
        v.set(
            "mppdb.storage.encoded_bytes_per_raw_byte",
            if raw > 0 {
                encoded as f64 / raw as f64
            } else {
                0.0
            },
        );
    }
    v
}
