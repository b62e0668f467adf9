//! The four workloads: what one op is, how the bed is seeded, and the
//! oracle that judges every answer. Oracles are computed from the
//! generator, never from the system under test.

use std::time::{Duration, Instant};

use common::agg::{AggCall, AggFunc};
use common::{Expr, Row, Value};
use connector::{ConnectorOptions, SaveRequest, StreamWriter, DEFAULT_SOURCE};
use mppdb::QuerySpec;
use sparklet::{DataFrame, SaveMode};

use crate::bed::{err, Bed, Res};
use crate::gen::{self, Fact, Rng, SetDigest, Tweets, FACT_GROUPS, FACT_VAL_MAX};
use crate::spans::{SpanId, Spans};

/// One row of the workload table. `BENCHMARK.json` repeats `name` and
/// `why`; a test holds the two together.
pub struct WorkloadDef {
    pub name: &'static str,
    pub why: &'static str,
    /// Main op and side op, for the reports.
    pub main_op: &'static str,
    pub side_op: &'static str,
    /// Untimed ops before the timed window, about 5% of what a
    /// [`REFERENCE_SECONDS`] run completes on the seed. Their time is
    /// part of `setup_s`.
    pub warmup_ops: u64,
    /// Ops of the traced pass for a [`REFERENCE_SECONDS`] run, about a
    /// fifth of the timed pass unless noted; scaled with `--seconds`.
    pub traced_ops: u64,
    /// Ops in one cycle of the op mix, and cycles in the timed pass of
    /// a [`REFERENCE_SECONDS`] run on the seed (scaled with
    /// `--seconds`). Both passes are fixed work: every run of one
    /// `--seconds` does the same ops in the same order, so the
    /// program's own counts repeat and a table that grows during the
    /// run grows the same way every time.
    pub cycle_ops: u64,
    pub timed_cycles: u64,
}

/// The run length the op counts above were sized for.
pub const REFERENCE_SECONDS: f64 = 15.0;

pub const WORKLOADS: [WorkloadDef; 4] = [
    WorkloadDef {
        name: "v2s_wide_scan",
        why: "Row movement out of the database: scan decode, row materialisation and collect of 40k x 100 FLOAT rows; no COPY, no avrolite, fixed per-job cost amortised.",
        main_op: "load + collect of the whole 40,000 x 100 FLOAT table, 8 partitions",
        side_op: "every 5th op: load, filter c0 < t (about 1% of rows), select 2 columns, collect",
        warmup_ops: 15,
        traced_ops: 40,
        cycle_ops: V2S_SIDE_EVERY,
        timed_cycles: 35,
    },
    WorkloadDef {
        name: "s2v_bulk_save",
        why: "The write direction of the same data shape: avrolite, COPY parse, ROS encode and the 5-phase protocol on 20k x 100 FLOAT rows; the scan path does almost nothing.",
        main_op: "Overwrite save of one reused 20,000 x 100 FLOAT DataFrame (8 partitions) into one table, dropped (untimed) after every fourth save",
        side_op: "every 2nd op: Append save of a 500-row DataFrame (2 partitions), where the protocol's fixed cost dominates",
        warmup_ops: 8,
        traced_ops: 16,
        // Main and side ops alternate; the database moves a table's WOS
        // out on every fourth 20,000-row save (the default 16k-row
        // moveout threshold per node), which costs as much as the other
        // three together. Whole four-save cycles hold the same share of
        // those whatever `--seconds` is.
        cycle_ops: S2V_CYCLE_OPS,
        timed_cycles: 7,
    },
    WorkloadDef {
        name: "pushdown_agg",
        why: "Almost no rows cross the wire: a selective filter + group-by is fixed per-job cost, a full-scan one is scan_aggregate decode and fold; row and codec work is absent.",
        main_op: "load, filter one 1/32 ts window, agg COUNT(*), SUM(val) by grp, pushed down, over a 400,000-row clustered fact table",
        side_op: "every 10th op: the same aggregate under val < c, which zone maps cannot help: a full scan",
        warmup_ops: 150,
        traced_ops: 600,
        cycle_ops: FACT_FULL_EVERY * FACT_FULL_THRESHOLDS as u64,
        timed_cycles: 15,
    },
    WorkloadDef {
        name: "stream_mixed",
        why: "Writes beside reads, open loop: 1,000-row micro-batches every 25 ms through StreamWriter into the WOS with mover passes, and a narrow count probe contending; cost grows with container count.",
        main_op: "open loop: a 1,000-row tweet micro-batch due every 25 ms; latency from due time to append_rows returning",
        side_op: "open loop: a count probe tweet_id < 1000 due every 25 ms, offset 12 ms; latency from due time to the answer",
        warmup_ops: 30,
        // As long as the timed pass: the cost of an append grows with
        // the container count, and the tail percentiles need the samples.
        traced_ops: 600,
        cycle_ops: 1,
        timed_cycles: 600,
    },
];

pub fn workload(name: &str) -> Option<&'static WorkloadDef> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// Divisor applied to table sizes. 1 for every measured run; the smoke
/// test runs the same code on tables a hundredth the size.
#[derive(Clone, Copy)]
pub struct Scale(pub usize);

pub const D1_COLS: usize = 100;
const V2S_ROWS: usize = 40_000;
const V2S_SIDE_EVERY: u64 = 5;
const V2S_SIDE_THRESHOLDS: usize = 16;
const S2V_ROWS: usize = 20_000;
const S2V_SMALL_ROWS: usize = 500;
const S2V_CYCLE_OPS: u64 = 8;
const FACT_ROWS: usize = 400_000;
const FACT_CHUNKS: usize = 32;
const FACT_WINDOWS: usize = 256;
const FACT_FULL_EVERY: u64 = 10;
const FACT_FULL_THRESHOLDS: usize = 16;
pub const STREAM_BATCH_ROWS: usize = 1_000;
pub const STREAM_PERIOD: Duration = Duration::from_millis(25);
pub const STREAM_PROBE_OFFSET: Duration = Duration::from_millis(12);

/// What one closed-loop op did.
pub struct Outcome {
    pub side: bool,
    /// Time inside the calls into the system, oracle excluded.
    pub service: Duration,
    /// User rows the op delivered (read, written or aggregated over).
    pub rows: u64,
    /// The call succeeded and the oracle accepted its answer.
    pub ok: bool,
}

impl Outcome {
    fn judged(side: bool, service: Duration, answer: Res<u64>, what: &str) -> Outcome {
        match answer {
            Ok(rows) => Outcome {
                side,
                service,
                rows,
                ok: true,
            },
            Err(e) => {
                eprintln!("perf: {what} failed: {e}");
                Outcome {
                    side,
                    service,
                    rows: 0,
                    ok: false,
                }
            }
        }
    }
}

/// A workload one client drives op after op.
pub trait Closed {
    fn bed(&self) -> &Bed;
    /// Run op number `i`. Child spans hang under `root`.
    fn op(&mut self, i: u64, spans: &mut Spans, root: SpanId) -> Outcome;
    /// Untimed checks after the last op: `(attempted, failed)`.
    fn finish(&mut self) -> (u64, u64);
}

fn timed<T>(f: impl FnOnce() -> T) -> (T, Duration) {
    let t0 = Instant::now();
    let out = f();
    (out, t0.elapsed())
}

// ----- v2s_wide_scan ---------------------------------------------------

pub struct V2sWideScan {
    bed: Bed,
    rows: u64,
    whole: SetDigest,
    /// `(threshold, digest of the rows with c0 < threshold)`.
    sides: Vec<(f64, SetDigest)>,
}

/// Inputs of `v2s_wide_scan`, generated once per run.
pub struct V2sInputs {
    rows: Vec<Row>,
    whole: SetDigest,
    sides: Vec<(f64, SetDigest)>,
}

impl V2sInputs {
    pub fn new(seed: u64, scale: Scale) -> V2sInputs {
        let rows = gen::d1_rows(seed, V2S_ROWS / scale.0, D1_COLS);
        let whole = SetDigest::of(&rows).expect("D1 rows are FLOAT");
        let mut rng = Rng::new(seed, gen::STREAM_OPS);
        // Thresholds 0.5%, 0.6%, … 2.0% of the rows, in a seeded order.
        let sides = rng
            .permutation(V2S_SIDE_THRESHOLDS)
            .into_iter()
            .map(|k| {
                let t = 0.005 + 0.001 * k as f64;
                let hit = rows
                    .iter()
                    .filter(|r| matches!(r.get(0), Value::Float64(c0) if *c0 < t));
                (t, SetDigest::of(hit).expect("D1 rows are FLOAT"))
            })
            .collect();
        V2sInputs { rows, whole, sides }
    }
}

impl V2sWideScan {
    pub const TABLE: &'static str = "d1";

    /// A fresh bed with the D1 table seeded by one COPY DIRECT.
    pub fn setup(inputs: &V2sInputs) -> Res<V2sWideScan> {
        let bed = Bed::new();
        bed.create_table(Self::TABLE, &gen::d1_schema(D1_COLS), None)?;
        let loaded = bed.copy_rows(Self::TABLE, inputs.rows.clone(), true)?;
        if loaded != inputs.rows.len() as u64 {
            return Err(format!("seeded {loaded} of {} rows", inputs.rows.len()));
        }
        Ok(V2sWideScan {
            bed,
            rows: loaded,
            whole: inputs.whole,
            sides: inputs.sides.clone(),
        })
    }

    fn load(&self) -> Res<DataFrame> {
        self.bed
            .ctx
            .read()
            .format(DEFAULT_SOURCE)
            .option("host", 0)
            .option("table", Self::TABLE)
            .option("numPartitions", 8)
            .load()
            .map_err(err("load"))
    }
}

impl Closed for V2sWideScan {
    fn bed(&self) -> &Bed {
        &self.bed
    }

    fn op(&mut self, i: u64, spans: &mut Spans, root: SpanId) -> Outcome {
        let side = i % V2S_SIDE_EVERY == V2S_SIDE_EVERY - 1;
        let (threshold, expect) = if side {
            let (t, d) = self.sides[(i / V2S_SIDE_EVERY) as usize % self.sides.len()];
            (Some(t), d)
        } else {
            (None, self.whole)
        };
        let (got, service) = timed(|| -> Res<Vec<Row>> {
            let df = spans.within("connector.v2s.load", i, root, || self.load())?;
            let df = match threshold {
                Some(t) => df
                    .filter(Expr::col("c0").lt(Expr::lit(t)))
                    .and_then(|df| df.select(&["c0", "c1"]))
                    .map_err(err("filter/select"))?,
                None => df,
            };
            spans.within("sparklet.collect", i, root, || {
                df.collect().map_err(err("collect"))
            })
        });
        let answer = got.and_then(|rows| {
            let width = if side { 2 } else { D1_COLS };
            if rows.iter().any(|r| r.len() != width) {
                return Err(format!("a row is not {width} columns wide"));
            }
            match SetDigest::of(&rows) {
                Some(d) if d == expect => Ok(d.rows),
                Some(d) => Err(format!("digest {d:?}, expected {expect:?}")),
                None => Err("c0 is not a FLOAT".into()),
            }
        });
        Outcome::judged(side, service, answer, "v2s op")
    }

    fn finish(&mut self) -> (u64, u64) {
        // The table is read-only: its size must not have moved.
        self.bed.check_count(Self::TABLE, self.rows)
    }
}

// ----- s2v_bulk_save ---------------------------------------------------

pub struct S2vInputs {
    rows: Vec<Row>,
    digest: SetDigest,
    small_digest: SetDigest,
}

impl S2vInputs {
    pub fn new(seed: u64, scale: Scale) -> S2vInputs {
        let rows = gen::d1_rows(seed, S2V_ROWS / scale.0, D1_COLS);
        let small = (S2V_SMALL_ROWS / scale.0).max(2);
        S2vInputs {
            digest: SetDigest::of(&rows).expect("D1 rows are FLOAT"),
            small_digest: SetDigest::of(&rows[..small]).expect("D1 rows are FLOAT"),
            rows,
        }
    }
}

pub struct S2vBulkSave {
    bed: Bed,
    df: DataFrame,
    small_df: DataFrame,
    digest: SetDigest,
    small_digest: SetDigest,
    bulk_opts: ConnectorOptions,
    small_opts: ConnectorOptions,
    /// Main and side saves that succeeded.
    bulk_saves: u64,
    small_saves: u64,
    /// Sum of `SaveReport.phase_us` over the main saves, and their count.
    pub phase_us: [u64; 5],
    pub phase_saves: u64,
}

impl S2vBulkSave {
    pub const TABLE: &'static str = "s2v_bulk";
    const SMALL_TABLE: &'static str = "s2v_small";

    pub fn setup(inputs: &S2vInputs) -> Res<S2vBulkSave> {
        let bed = Bed::new();
        let schema = gen::d1_schema(D1_COLS);
        let df = bed
            .ctx
            .create_dataframe(inputs.rows.clone(), schema.clone(), 8)
            .map_err(err("create_dataframe"))?;
        let small = inputs.small_digest.rows as usize;
        let small_df = bed
            .ctx
            .create_dataframe(inputs.rows[..small].to_vec(), schema, 2)
            .map_err(err("create_dataframe"))?;
        let opts = |table: &str, parts: usize| {
            ConnectorOptions::builder(table)
                .num_partitions(parts)
                .build()
                .map_err(err("options"))
        };
        Ok(S2vBulkSave {
            df,
            small_df,
            digest: inputs.digest,
            small_digest: inputs.small_digest,
            bulk_opts: opts(Self::TABLE, 8)?,
            small_opts: opts(Self::SMALL_TABLE, 2)?,
            bulk_saves: 0,
            small_saves: 0,
            phase_us: [0; 5],
            phase_saves: 0,
            bed,
        })
    }

    /// Digest of a table's rows, read back through a plain session.
    fn table_digest(&self, table: &str) -> Res<SetDigest> {
        let mut s = self.bed.db.connect(0).map_err(err("connect"))?;
        let rows = s
            .query(&QuerySpec::scan(table).project(&["c0"]))
            .map_err(err("read back"))?
            .into_rows();
        SetDigest::of(&rows).ok_or_else(|| "c0 is not a FLOAT".to_string())
    }
}

impl Closed for S2vBulkSave {
    fn bed(&self) -> &Bed {
        &self.bed
    }

    fn op(&mut self, i: u64, spans: &mut Spans, root: SpanId) -> Outcome {
        let side = i % 2 == 1;
        // Overwritten rows are only marked deleted, so the target would
        // grow by 20,000 dead rows per save and never reach a steady
        // state. Dropping it (untimed) at the start of every cycle makes
        // all cycles alike: create, two overwrites, and the overwrite
        // whose commit moves the WOS out.
        if i.is_multiple_of(S2V_CYCLE_OPS) && self.bed.db.has_table(Self::TABLE) {
            if let Err(e) = self.bed.db.drop_table(Self::TABLE) {
                let dropped = Err(format!("drop {}: {e}", Self::TABLE));
                return Outcome::judged(side, Duration::ZERO, dropped, "s2v reset");
            }
        }
        let (df, opts, mode, expect) = if side {
            (
                &self.small_df,
                &self.small_opts,
                SaveMode::Append,
                self.small_digest.rows,
            )
        } else {
            (
                &self.df,
                &self.bulk_opts,
                SaveMode::Overwrite,
                self.digest.rows,
            )
        };
        let (report, service) = timed(|| {
            spans.within("connector.s2v.submit", i, root, || {
                SaveRequest::new(&self.bed.ctx, &self.bed.db, df, opts)
                    .mode(mode)
                    .submit()
                    .map_err(err("submit"))
            })
        });
        let answer = report.and_then(|r| {
            if r.rows_loaded != expect || r.rows_rejected != 0 {
                return Err(format!(
                    "loaded {} rejected {}, expected {expect} and 0",
                    r.rows_loaded, r.rows_rejected
                ));
            }
            if side {
                self.small_saves += 1;
            } else {
                self.bulk_saves += 1;
                for (sum, us) in self.phase_us.iter_mut().zip(r.phase_us) {
                    *sum += us;
                }
                self.phase_saves += 1;
            }
            Ok(r.rows_loaded)
        });
        Outcome::judged(side, service, answer, "s2v save")
    }

    /// Both tables hold exactly what their saves should have left: the
    /// whole DataFrame once however often it was overwritten, the small
    /// one once per append.
    fn finish(&mut self) -> (u64, u64) {
        let mut checks = Vec::new();
        if self.bulk_saves > 0 {
            checks.push((Self::TABLE, self.digest));
        }
        if self.small_saves > 0 {
            let mut d = SetDigest::default();
            for _ in 0..self.small_saves {
                d.rows += self.small_digest.rows;
                d.xor ^= self.small_digest.xor;
                d.sum = d.sum.wrapping_add(self.small_digest.sum);
            }
            checks.push((Self::SMALL_TABLE, d));
        }
        let mut failed = 0;
        for (table, expect) in &checks {
            match self.table_digest(table) {
                Ok(d) if d == *expect => {}
                Ok(d) => {
                    eprintln!("perf: {table} holds {d:?}, expected {expect:?}");
                    failed += 1;
                }
                Err(e) => {
                    eprintln!("perf: {table}: {e}");
                    failed += 1;
                }
            }
        }
        (checks.len() as u64, failed)
    }
}

// ----- pushdown_agg ----------------------------------------------------

type GroupRef = [(u64, u64); FACT_GROUPS as usize];

pub struct PushdownInputs {
    pub fact: Fact,
    /// `(first ts, one past the last ts, reference)` of each window.
    pub windows: Vec<(i64, i64, GroupRef)>,
    /// `(c, reference)` for each full-scan predicate `val < c`.
    pub fulls: Vec<(u16, GroupRef)>,
}

impl PushdownInputs {
    pub fn new(seed: u64, scale: Scale) -> PushdownInputs {
        let rows = FACT_ROWS / scale.0;
        let fact = Fact::new(seed, rows);
        let span = rows / FACT_CHUNKS;
        let mut rng = Rng::new(seed, gen::STREAM_OPS);
        let windows = (0..FACT_WINDOWS)
            .map(|_| {
                let lo = rng.below((rows - span) as u64 + 1) as usize;
                (
                    lo as i64,
                    (lo + span) as i64,
                    fact.reference(lo..lo + span, |_| true),
                )
            })
            .collect();
        // `val < c` keeps 10%, 15%, … 85% of the rows, in a seeded order.
        let fulls = rng
            .permutation(FACT_FULL_THRESHOLDS)
            .into_iter()
            .map(|k| {
                let c = (FACT_VAL_MAX as usize * (10 + 5 * k) / 100) as u16;
                (c, fact.reference(0..rows, |v| v < c))
            })
            .collect();
        PushdownInputs {
            fact,
            windows,
            fulls,
        }
    }
}

pub struct PushdownAgg {
    bed: Bed,
    rows: u64,
    windows: Vec<(i64, i64, GroupRef)>,
    fulls: Vec<(u16, GroupRef)>,
}

/// Compare an aggregate's rows `(grp, count, sum)` with the reference;
/// returns the rows aggregated over.
pub fn judge_groups(got: &[Row], expect: &GroupRef) -> Res<u64> {
    let mut seen = [false; FACT_GROUPS as usize];
    for r in got {
        let grp = r.get(0).as_str().map_err(err("grp"))?;
        let g: usize = grp
            .strip_prefix('g')
            .and_then(|n| n.parse().ok())
            .filter(|g| *g < seen.len())
            .ok_or_else(|| format!("unknown group {grp}"))?;
        let count = r.get(1).as_i64().map_err(err("count"))?;
        let sum = r.get(2).as_f64().map_err(err("sum"))?;
        if seen[g] || count as u64 != expect[g].0 || sum != expect[g].1 as f64 {
            return Err(format!(
                "group {grp}: got ({count}, {sum}), expected {:?}",
                expect[g]
            ));
        }
        seen[g] = true;
    }
    for (g, e) in expect.iter().enumerate() {
        if e.0 > 0 && !seen[g] {
            return Err(format!("group g{g} missing, expected {e:?}"));
        }
    }
    Ok(expect.iter().map(|e| e.0).sum())
}

pub fn fact_agg_calls() -> Vec<AggCall> {
    vec![AggCall::count_star(), AggCall::new(AggFunc::Sum, "val")]
}

impl PushdownAgg {
    pub const TABLE: &'static str = "fact";

    /// A fresh bed with the fact table seeded as append-ordered COPY
    /// DIRECT chunks, so each container covers a narrow `ts` range.
    pub fn setup(inputs: &PushdownInputs) -> Res<PushdownAgg> {
        let bed = Bed::new();
        seed_fact(&bed, Self::TABLE, &inputs.fact)?;
        Ok(PushdownAgg {
            bed,
            rows: inputs.fact.len() as u64,
            windows: inputs.windows.clone(),
            fulls: inputs.fulls.clone(),
        })
    }
}

pub fn seed_fact(bed: &Bed, table: &str, fact: &Fact) -> Res<()> {
    bed.create_table(table, &gen::fact_schema(), Some("id"))?;
    let chunk = fact.len() / FACT_CHUNKS;
    for c in 0..FACT_CHUNKS {
        let loaded = bed.copy_rows(table, fact.rows(c * chunk..(c + 1) * chunk), true)?;
        if loaded != chunk as u64 {
            return Err(format!("chunk {c}: seeded {loaded} of {chunk} rows"));
        }
    }
    Ok(())
}

impl Closed for PushdownAgg {
    fn bed(&self) -> &Bed {
        &self.bed
    }

    fn op(&mut self, i: u64, spans: &mut Spans, root: SpanId) -> Outcome {
        let side = i % FACT_FULL_EVERY == FACT_FULL_EVERY - 1;
        let (filters, expect) = if side {
            let (c, e) = &self.fulls[(i / FACT_FULL_EVERY) as usize % self.fulls.len()];
            (vec![Expr::col("val").lt(Expr::lit(*c as f64))], e)
        } else {
            let (lo, hi, e) = &self.windows[i as usize % self.windows.len()];
            (
                vec![
                    Expr::col("ts").gt_eq(Expr::lit(*lo)),
                    Expr::col("ts").lt(Expr::lit(*hi)),
                ],
                e,
            )
        };
        let ctx = &self.bed.ctx;
        let (got, service) = timed(|| -> Res<Vec<Row>> {
            let mut df = spans.within("connector.v2s.load", i, root, || {
                ctx.read()
                    .format(DEFAULT_SOURCE)
                    .option("host", 0)
                    .option("table", Self::TABLE)
                    .load()
                    .map_err(err("load"))
            })?;
            for f in filters {
                df = df.filter(f).map_err(err("filter"))?;
            }
            spans.within("connector.v2s.agg", i, root, || {
                df.agg(&["grp"], fact_agg_calls())
                    .and_then(|out| out.collect())
                    .map_err(err("agg"))
            })
        });
        let answer = got.and_then(|rows| judge_groups(&rows, expect));
        Outcome::judged(side, service, answer, "pushdown op")
    }

    fn finish(&mut self) -> (u64, u64) {
        self.bed.check_count(Self::TABLE, self.rows)
    }
}

// ----- stream_mixed ----------------------------------------------------

/// The streaming bed: an open `StreamWriter` and the tweet source that
/// feeds it. The open-loop driver in `drive.rs` owns the schedule.
pub struct StreamMixed {
    pub bed: Bed,
    pub writer: StreamWriter,
    tweets: Tweets,
    /// Rows offered so far.
    pub offered: u64,
}

impl StreamMixed {
    pub const TABLE: &'static str = "tweets";

    pub fn setup(seed: u64) -> Res<StreamMixed> {
        let bed = Bed::new();
        let opts = ConnectorOptions::builder(Self::TABLE)
            .num_partitions(4)
            .copy_direct(false)
            .stream(STREAM_BATCH_ROWS, 600_000)
            .mover_enabled(true)
            .build()
            .map_err(err("options"))?;
        let writer = StreamWriter::open(
            &bed.ctx,
            &bed.db,
            gen::tweet_schema(),
            &opts,
            SaveMode::Overwrite,
        )
        .map_err(err("open stream"))?;
        Ok(StreamMixed {
            bed,
            writer,
            tweets: Tweets::new(seed),
            offered: 0,
        })
    }

    /// The next micro-batch, made before it is due: generation is the
    /// generator's time, not the system's.
    pub fn next_batch(&mut self) -> Vec<Row> {
        self.tweets.batch(STREAM_BATCH_ROWS)
    }

    /// Append one micro-batch; the oracle is that exactly one batch was
    /// flushed (so the rows are committed and visible on return).
    pub fn append(&mut self, batch: Vec<Row>) -> Res<u64> {
        let rows = batch.len() as u64;
        self.offered += rows;
        match self.writer.append_rows(batch).map_err(err("append_rows"))? {
            1 => Ok(rows),
            n => Err(format!("{n} batches flushed, expected 1")),
        }
    }

    /// The probe: how many of the first batch's ids are live? Always
    /// exactly one batch's worth once the first batch has committed.
    pub fn probe_spec() -> QuerySpec {
        QuerySpec::scan(Self::TABLE)
            .filter(Expr::col("tweet_id").lt(Expr::lit(STREAM_BATCH_ROWS as i64)))
            .count()
    }

    /// Close the stream and count the table: every row offered is
    /// there, once.
    pub fn finish(self) -> (u64, u64) {
        let StreamMixed {
            bed,
            writer,
            offered,
            ..
        } = self;
        let loaded = writer.finish().map(|r| r.rows_loaded);
        let (_, mut failed) = bed.check_count(Self::TABLE, offered);
        if loaded.as_ref().ok() != Some(&offered) {
            eprintln!("perf: stream loaded {loaded:?}, offered {offered}");
            failed += 1;
        }
        (2, failed)
    }
}
