//! `perf`: the wall-clock benchmark of the functional fabric.
//!
//! It drives mppdb ⇄ connector ⇄ sparklet on real threads, from
//! outside, through public functions; the netsim timing model is never
//! replayed, and every number is this machine's wall-clock. See
//! README.md beside this package for the workloads and metrics.
//!
//! ```text
//! perf --workload <name> --seed <n> --seconds <s> --trace <0|1>   one run, JSON result on the last line
//! perf run    [--workload <name>|all] [--seed n] [--seconds s]    timed pass, end-to-end metrics
//! perf layers [--workload <name>|all] [--seed n] [--seconds s]    traced pass, per-layer metrics
//! perf repeat [--sets 2] [--runs 3] [--seed n] [--seconds s]      repeatability table
//! perf manifest                                                   BENCHMARK.json from the tables
//! ```

mod bed;
mod drive;
mod gen;
mod layers;
mod metrics;
mod run;
mod spans;
mod stats;
mod workloads;

use std::process::ExitCode;

use metrics::{MetricDef, END_TO_END, PER_LAYER};
use run::{run_workload, RunArgs, RunOutput};
use workloads::{workload, Scale, WorkloadDef, REFERENCE_SECONDS, WORKLOADS};

/// `run_seconds` of `BENCHMARK.json`.
const RUN_SECONDS: u64 = REFERENCE_SECONDS as u64;

struct Cli {
    workloads: Vec<&'static WorkloadDef>,
    seed: u64,
    seconds: f64,
    trace: Option<bool>,
    sets: usize,
    runs: usize,
}

fn parse_flags(args: &[String]) -> Result<Cli, String> {
    let mut cli = Cli {
        workloads: WORKLOADS.iter().collect(),
        seed: 42,
        seconds: REFERENCE_SECONDS,
        trace: None,
        sets: 2,
        runs: 3,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value"))?
            .as_str();
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" if value == "all" => {}
            "--workload" => {
                let def = workload(value).ok_or_else(|| {
                    let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
                    format!("unknown workload {value}; one of {}", names.join(", "))
                })?;
                cli.workloads = vec![def];
            }
            "--seed" => cli.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                cli.seconds = value.parse().map_err(|_| bad())?;
                if !(cli.seconds > 0.0 && cli.seconds <= 600.0) {
                    return Err(bad());
                }
            }
            "--trace" => {
                cli.trace = Some(match value {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                })
            }
            "--sets" => cli.sets = value.parse().ok().filter(|n| *n >= 2).ok_or_else(bad)?,
            "--runs" => cli.runs = value.parse().ok().filter(|n| *n >= 1).ok_or_else(bad)?,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(cli)
}

fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Every metric of `table`, in table order; a metric the run did not
/// set is a bug in the benchmark, reported and counted as failed.
fn result_json(table: &[MetricDef], out: &RunOutput) -> (String, bool) {
    let mut complete = true;
    let metrics: Vec<String> = table
        .iter()
        .map(|m| {
            let value = out.values.get(m.name).filter(|v| v.is_finite());
            if value.is_none() {
                eprintln!("perf: metric {} was not measured", m.name);
                complete = false;
            }
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_string(m.name),
                value.unwrap_or(0.0),
                json_string(m.unit)
            )
        })
        .collect();
    for name in out.values.undeclared(table) {
        eprintln!("perf: metric {name} is not in the table");
        complete = false;
    }
    let correct = complete && out.failed == 0;
    let line = format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.attempted.max(1),
        out.failed,
        metrics.join(", ")
    );
    (line, correct)
}

/// The contract's entry point: one workload, one run, the result as one
/// JSON object on the last line of standard output.
fn driver_mode(cli: &Cli) -> Result<bool, String> {
    let [def] = cli.workloads[..] else {
        return Err("--workload <name> is required".into());
    };
    let traced = cli.trace.ok_or("--trace <0|1> is required")?;
    let args = RunArgs {
        workload: def,
        seed: cli.seed,
        seconds: cli.seconds,
        scale: Scale(1),
        traced,
    };
    let (out, table) = run::run(&args)?;
    let (line, correct) = result_json(table, &out);
    println!("{line}");
    Ok(correct)
}

fn print_values(def: &WorkloadDef, table: &[MetricDef], out: &RunOutput) {
    println!(
        "\n== {} — main op: {}\n   side op: {}",
        def.name, def.main_op, def.side_op
    );
    println!(
        "   attempted {} failed {} error_rate {} | samples: main {} side {}{}",
        out.attempted,
        out.failed,
        out.failed as f64 / out.attempted.max(1) as f64,
        out.main_samples,
        out.side_samples,
        if out.unsustainable {
            " | UNSUSTAINABLE"
        } else {
            ""
        }
    );
    let mut layer = "";
    for m in table {
        if m.layer != layer {
            layer = m.layer;
            println!("   [{layer}]");
        }
        match out.values.get(m.name) {
            Some(v) => println!(
                "   {:<44} {:>16.4} {:<7} ({} is better)",
                m.name,
                v,
                m.unit,
                m.better.as_str()
            ),
            None => println!("   {:<44} {:>16} {:<7}", m.name, "unmeasured", m.unit),
        }
    }
}

/// `perf run` / `perf layers`: every chosen workload in turn, printed
/// by name with unit, direction and sample counts.
fn human_mode(cli: &Cli, traced: bool) -> Result<bool, String> {
    println!(
        "perf: seed {} | {} s per run | {} cores | wall-clock of this machine, never simulated seconds",
        cli.seed,
        cli.seconds,
        std::thread::available_parallelism().map_or(0, |n| n.get())
    );
    let mut ok = true;
    for def in &cli.workloads {
        let args = RunArgs {
            workload: def,
            seed: cli.seed,
            seconds: cli.seconds,
            scale: Scale(1),
            traced,
        };
        let (out, table) = run::run(&args)?;
        print_values(def, table, &out);
        if traced {
            let parts = run::budget_parts(def.name);
            if !parts.is_empty() {
                println!("   budget, ns per user row:");
                let totals = [
                    "budget.layers_ns_per_row",
                    "proc.cpu_ns_per_row",
                    "budget.residual_pct",
                ];
                for name in parts.iter().chain(&totals) {
                    println!(
                        "     {name:<42} {:>12.1}",
                        out.values.get(name).unwrap_or(0.0)
                    );
                }
            }
            println!("   spans: {}", run::spans_dir().display());
        }
        ok &= out.failed == 0 && !out.unsustainable;
    }
    Ok(ok)
}

/// `perf repeat`: the timed pass in interleaved sets of runs of the
/// same code; a metric whose set medians differ by more than its bound
/// cannot resolve a change of that size and is UNRESOLVED.
fn repeat_mode(cli: &Cli) -> Result<bool, String> {
    // sets[s][w][m] = the runs' values.
    let mut sets = vec![vec![vec![Vec::new(); END_TO_END.len()]; cli.workloads.len()]; cli.sets];
    let mut ok = true;
    for r in 0..cli.runs {
        for set in sets.iter_mut() {
            for (w, def) in cli.workloads.iter().enumerate() {
                let out = run_workload(&RunArgs {
                    workload: def,
                    seed: cli.seed + r as u64,
                    seconds: cli.seconds,
                    scale: Scale(1),
                    traced: false,
                })?;
                ok &= out.failed == 0;
                for (m, def) in END_TO_END.iter().enumerate() {
                    set[w][m].push(out.values.get(def.name).unwrap_or(f64::NAN));
                }
            }
        }
    }
    println!(
        "| workload | metric | {} | worst diff | bound | verdict |",
        (0..cli.sets)
            .map(|s| format!("set {} median", s + 1))
            .collect::<Vec<_>>()
            .join(" | ")
    );
    println!("|---|---|{}---|---|---|", "---|".repeat(cli.sets));
    for (w, def) in cli.workloads.iter().enumerate() {
        for (m, metric) in END_TO_END.iter().enumerate() {
            let medians: Vec<f64> = sets
                .iter()
                .map(|set| stats::median(set[w][m].clone()))
                .collect();
            let (lo, hi) = medians
                .iter()
                .fold((f64::MAX, f64::MIN), |(lo, hi), v| (lo.min(*v), hi.max(*v)));
            let diff = (hi - lo) / lo.abs().max(1e-12);
            let pass = diff <= metric.bound;
            ok &= pass;
            println!(
                "| {} | {} ({}, {}) | {} | {:.1}% | {:.0}% | {} |",
                def.name,
                metric.name,
                metric.unit,
                metric.better.as_str(),
                medians
                    .iter()
                    .map(|v| format!("{v:.4}"))
                    .collect::<Vec<_>>()
                    .join(" | "),
                100.0 * diff,
                100.0 * metric.bound,
                if pass { "PASS" } else { "UNRESOLVED" }
            );
        }
    }
    Ok(ok)
}

/// `BENCHMARK.json`, generated from the tables.
fn manifest() -> String {
    let workloads: Vec<String> = WORKLOADS
        .iter()
        .map(|w| {
            format!(
                "    {{\"name\": {}, \"why\": {}}}",
                json_string(w.name),
                json_string(w.why)
            )
        })
        .collect();
    let metric = |m: &MetricDef, bound: bool| {
        let better = m.better.as_str();
        let bound = if bound {
            format!(", \"bound\": {}", m.bound)
        } else {
            String::new()
        };
        format!(
            "    {{\"name\": {}, \"unit\": {}, \"better\": \"{better}\"{bound}}}",
            json_string(m.name),
            json_string(m.unit)
        )
    };
    let e2e: Vec<String> = END_TO_END.iter().map(|m| metric(m, true)).collect();
    let layers: Vec<String> = PER_LAYER.iter().map(|m| metric(m, false)).collect();
    format!(
        "{{\n  \"command\": [\"cargo\", \"run\", \"--release\", \"--quiet\", \"--offline\", \
         \"--manifest-path\", \"perfbench/Cargo.toml\", \"--\"],\n  \"paths\": [\"perfbench\"],\n  \
         \"run_seconds\": {RUN_SECONDS},\n  \"workloads\": [\n{}\n  ],\n  \"end_to_end\": [\n{}\n  ],\n  \
         \"per_layer\": [\n{}\n  ]\n}}\n",
        workloads.join(",\n"),
        e2e.join(",\n"),
        layers.join(",\n")
    )
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (mode, flags) = match args.first().map(String::as_str) {
        Some(m @ ("run" | "layers" | "repeat" | "manifest")) => (m, &args[1..]),
        _ => ("driver", &args[..]),
    };
    let outcome = parse_flags(flags).and_then(|cli| match mode {
        "run" => human_mode(&cli, false),
        "layers" => human_mode(&cli, true),
        "repeat" => repeat_mode(&cli),
        "manifest" => {
            print!("{}", manifest());
            Ok(true)
        }
        _ => driver_mode(&cli),
    });
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("perf: {e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn benchmark_json_is_what_the_tables_generate() {
        let checked_in = include_str!("../../BENCHMARK.json");
        assert_eq!(
            checked_in,
            manifest(),
            "regenerate with `perf manifest > BENCHMARK.json`"
        );
        assert!(checked_in.len() <= 64 * 1024);
        for w in &WORKLOADS {
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
        }
    }

    /// Every workload at a hundredth of its size produces every metric
    /// the tables name, finite, with no failed op.
    #[test]
    fn smoke_every_workload_reports_every_metric() {
        for def in &WORKLOADS {
            for traced in [false, true] {
                let args = RunArgs {
                    workload: def,
                    seed: 42,
                    seconds: 0.4,
                    scale: Scale(100),
                    traced,
                };
                // One micro-suite is enough: it does not depend on
                // the workload.
                let (out, table) = if traced && def.name != WORKLOADS[0].name {
                    (run_workload(&args).unwrap(), &[][..])
                } else {
                    run::run(&args).unwrap()
                };
                assert_eq!(out.failed, 0, "{} traced={traced}", def.name);
                assert!(out.attempted > 0);
                assert!(out.main_samples > 0 && out.side_samples > 0, "{}", def.name);
                if !table.is_empty() {
                    let (line, correct) = result_json(table, &out);
                    assert!(correct, "{}: {line}", def.name);
                    for m in table {
                        let v = out.values.get(m.name).unwrap();
                        assert!(v.is_finite(), "{} {}", def.name, m.name);
                    }
                } else {
                    assert!(out.values.undeclared(&PER_LAYER).is_empty());
                }
                if !traced {
                    for m in &END_TO_END {
                        assert!(out.values.get(m.name).unwrap() > 0.0, "{}", m.name);
                    }
                }
            }
        }
    }

    #[test]
    fn flags_are_checked() {
        let s = |xs: &[&str]| xs.iter().map(|x| x.to_string()).collect::<Vec<_>>();
        assert!(parse_flags(&s(&["--workload", "nope"])).is_err());
        assert!(parse_flags(&s(&["--trace", "2"])).is_err());
        assert!(parse_flags(&s(&["--seed"])).is_err());
        let cli = parse_flags(&s(&[
            "--workload",
            "pushdown_agg",
            "--seed",
            "7",
            "--seconds",
            "3",
            "--trace",
            "1",
        ]))
        .unwrap();
        assert_eq!(cli.workloads.len(), 1);
        assert_eq!((cli.seed, cli.seconds, cli.trace), (7, 3.0, Some(true)));
    }
}
