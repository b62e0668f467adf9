//! Report printing: paper-vs-simulated tables, plus machine-readable
//! `BENCH_<name>.json` reports carrying the data-collector counters
//! each experiment moved (rows, bytes, retries, ...).

use std::collections::BTreeMap;
use std::path::PathBuf;

/// What a row's value is. It names the JSON key and the table column
/// the value is written under, so a wall-clock reading or a count never
/// appears as a simulated figure.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Out of the netsim replay of recorded volumes at paper scale.
    Simulated,
    /// Wall-clock of the functional layer on this machine, or a ratio
    /// of two such readings.
    Measured,
    /// A count of rows, containers, probes, jobs.
    Counted,
}

impl Kind {
    const ALL: [Kind; 3] = [Kind::Simulated, Kind::Measured, Kind::Counted];

    fn key(self) -> &'static str {
        match self {
            Kind::Simulated => "simulated",
            Kind::Measured => "measured",
            Kind::Counted => "counted",
        }
    }
}

/// One row of an experiment report.
#[derive(Debug, Clone)]
pub struct ReportRow {
    pub label: String,
    /// The paper's reported value, when it printed one.
    pub paper: Option<f64>,
    /// Our value.
    pub value: f64,
    pub kind: Kind,
    pub unit: &'static str,
}

impl ReportRow {
    /// A simulated value, in seconds.
    pub fn new(label: impl Into<String>, paper: Option<f64>, simulated: f64) -> ReportRow {
        ReportRow {
            label: label.into(),
            paper,
            value: simulated,
            kind: Kind::Simulated,
            unit: "s",
        }
    }

    pub fn with_unit(mut self, unit: &'static str) -> ReportRow {
        self.unit = unit;
        self
    }

    pub fn with_kind(mut self, kind: Kind) -> ReportRow {
        self.kind = kind;
        self
    }
}

/// Render a titled experiment table: one value column per [`Kind`] the
/// rows hold.
pub fn render(title: &str, rows: &[ReportRow]) -> String {
    let mut out = String::new();
    out.push_str(&format!("\n== {title} ==\n"));
    let label_w = rows
        .iter()
        .map(|r| r.label.len())
        .max()
        .unwrap_or(10)
        .max("condition".len());
    let kinds: Vec<Kind> = Kind::ALL
        .into_iter()
        .filter(|k| rows.iter().any(|r| r.kind == *k))
        .collect();
    let line = |label: &str, paper: &str, value: &dyn Fn(Kind) -> String, ratio: &str| {
        let values: String = kinds
            .iter()
            .map(|&k| format!("  {:>12}", value(k)))
            .collect();
        format!("{label:<label_w$}  {paper:>12}{values}  {ratio:>8}\n")
    };
    out.push_str(&line("condition", "paper", &|k| k.key().into(), "ratio"));
    let rule = |n: usize| "-".repeat(n);
    out.push_str(&line(&rule(label_w), &rule(12), &|_| rule(12), &rule(8)));
    for r in rows {
        let paper = match r.paper {
            Some(p) => format!("{p:.0} {}", r.unit),
            None => "-".to_string(),
        };
        let ratio = match r.paper {
            Some(p) if p > 0.0 => format!("{:.2}x", r.value / p),
            _ => "-".to_string(),
        };
        let value = |k: Kind| match r.kind == k {
            true => format!("{:.0} {}", r.value, r.unit),
            false => String::new(),
        };
        out.push_str(&line(&r.label, &paper, &value, &ratio));
    }
    out
}

/// Render and print.
pub fn print(title: &str, rows: &[ReportRow]) {
    println!("{}", render(title, rows));
}

/// Mark the start of an experiment: snapshot the data collector so
/// [`publish`] can report only the counters this experiment moved.
pub fn begin() -> obs::Snapshot {
    obs::global().snapshot()
}

/// Print the table and write `BENCH_<name>.json` beside it: the same
/// rows plus the collector-counter deltas since [`begin`] and the
/// per-histogram quantiles (span durations, phase timings, piece
/// sizes) the experiment contributed.
pub fn publish(name: &str, title: &str, rows: &[ReportRow], before: &obs::Snapshot) {
    print(title, rows);
    let after = obs::global().snapshot();
    let counters = after.counters_since(before);
    let histos = histos_since(&after, before);
    match write_json(name, title, rows, &counters, &histos) {
        Ok(path) => println!("report: {}", path.display()),
        Err(e) => eprintln!("report: failed to write BENCH_{name}.json: {e}"),
    }
}

/// Per-histogram stats for what moved between two snapshots: bucket-
/// wise deltas, so a long-running process's earlier work does not
/// pollute an experiment's quantiles.
pub fn histos_since(
    after: &obs::Snapshot,
    before: &obs::Snapshot,
) -> BTreeMap<String, obs::HistoStats> {
    after
        .histos
        .iter()
        .filter_map(|(name, h)| {
            let delta = match before.histos.get(name) {
                Some(b) => h.since(b),
                None => h.clone(),
            };
            (!delta.is_empty()).then(|| (name.clone(), delta.stats()))
        })
        .collect()
}

/// Where the JSON reports land: `$BENCH_OUT_DIR` or the current dir.
fn out_dir() -> PathBuf {
    std::env::var_os("BENCH_OUT_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("."))
}

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Serialize one experiment to JSON (hand-rolled; the workspace has no
/// serde and the shape is fixed).
pub fn to_json(
    name: &str,
    title: &str,
    rows: &[ReportRow],
    counters: &BTreeMap<String, u64>,
    histos: &BTreeMap<String, obs::HistoStats>,
) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str(&format!("  \"experiment\": \"{}\",\n", json_escape(name)));
    out.push_str(&format!("  \"title\": \"{}\",\n", json_escape(title)));
    out.push_str("  \"rows\": [\n");
    for (i, r) in rows.iter().enumerate() {
        let paper = r
            .paper
            .map(|p| format!("{p}"))
            .unwrap_or_else(|| "null".to_string());
        out.push_str(&format!(
            "    {{\"label\": \"{}\", \"paper\": {paper}, \"{}\": {}, \"unit\": \"{}\"}}{}\n",
            json_escape(&r.label),
            r.kind.key(),
            r.value,
            json_escape(r.unit),
            if i + 1 < rows.len() { "," } else { "" }
        ));
    }
    out.push_str("  ],\n");
    out.push_str("  \"counters\": {\n");
    for (i, (k, v)) in counters.iter().enumerate() {
        out.push_str(&format!(
            "    \"{}\": {v}{}\n",
            json_escape(k),
            if i + 1 < counters.len() { "," } else { "" }
        ));
    }
    out.push_str("  },\n");
    out.push_str("  \"histograms\": {\n");
    for (i, (k, s)) in histos.iter().enumerate() {
        out.push_str(&format!(
            "    \"{}\": {{\"count\": {}, \"sum\": {}, \"min\": {}, \"max\": {}, \
             \"p50\": {}, \"p95\": {}, \"p99\": {}}}{}\n",
            json_escape(k),
            s.count,
            s.sum,
            s.min,
            s.max,
            s.p50,
            s.p95,
            s.p99,
            if i + 1 < histos.len() { "," } else { "" }
        ));
    }
    out.push_str("  }\n}\n");
    out
}

fn write_json(
    name: &str,
    title: &str,
    rows: &[ReportRow],
    counters: &BTreeMap<String, u64>,
    histos: &BTreeMap<String, obs::HistoStats>,
) -> std::io::Result<PathBuf> {
    let path = out_dir().join(format!("BENCH_{name}.json"));
    std::fs::write(&path, to_json(name, title, rows, counters, histos))?;
    Ok(path)
}

/// The first line where two reports differ outside `histograms`, the
/// one section that holds wall-clock values: `(line number, line of a,
/// line of b)`, a missing line read as empty.
pub fn first_difference_outside_histograms(a: &str, b: &str) -> Option<(usize, String, String)> {
    let before_histograms = |json: &str| -> Vec<String> {
        json.lines()
            .take_while(|line| !line.starts_with("  \"histograms\":"))
            .map(str::to_string)
            .collect()
    };
    let (a, b) = (before_histograms(a), before_histograms(b));
    (0..a.len().max(b.len())).find_map(|i| {
        let line = |lines: &[String]| lines.get(i).cloned().unwrap_or_default();
        (line(&a) != line(&b)).then(|| (i + 1, line(&a), line(&b)))
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn measured_and_counted() -> Vec<ReportRow> {
        vec![
            ReportRow::new("probe P50", None, 250.0)
                .with_unit("us")
                .with_kind(Kind::Measured),
            ReportRow::new("probes issued", None, 40.0)
                .with_unit("")
                .with_kind(Kind::Counted),
        ]
    }

    #[test]
    fn render_contains_ratio_and_dashes() {
        let rows = vec![
            ReportRow::new("V2S 32 partitions", Some(497.0), 480.0),
            ReportRow::new("V2S 4 partitions", None, 1400.0),
        ];
        let text = render("Fig 6", &rows);
        assert!(text.contains("Fig 6"));
        assert!(text.contains("497 s"));
        assert!(text.contains("0.97x"));
        assert!(text.contains("V2S 4 partitions"));
        assert!(text.contains("   -"));
        assert!(text.contains("simulated") && !text.contains("measured"));

        // A value sits in the column its kind names.
        let text = render("Ablation", &measured_and_counted());
        let lines: Vec<&str> = text.lines().collect();
        let head = lines.iter().find(|l| l.starts_with("condition")).unwrap();
        assert!(!head.contains("simulated"), "{text}");
        let column_end = |name: &str| head.find(name).unwrap() + name.len();
        let p50 = lines.iter().find(|l| l.starts_with("probe P50")).unwrap();
        assert_eq!(p50.find("250 us").unwrap() + 6, column_end("measured"));
        let issued = lines
            .iter()
            .find(|l| l.starts_with("probes issued"))
            .unwrap();
        assert_eq!(issued.find("40 ").unwrap() + 3, column_end("counted"));
    }

    #[test]
    fn json_report_carries_rows_and_counters() {
        let mut rows = vec![
            ReportRow::new("a \"quoted\" label", Some(10.0), 9.5),
            ReportRow::new("plain", None, 1.0),
        ];
        rows.extend(measured_and_counted());
        let mut counters = BTreeMap::new();
        counters.insert("s2v.rows_loaded".to_string(), 8000u64);
        counters.insert("sched.task_retries".to_string(), 3u64);
        let mut phase3 = obs::Histo::new();
        for us in [100, 200, 300, 4000] {
            phase3.record(us);
        }
        let mut histos = BTreeMap::new();
        histos.insert("s2v.phase3".to_string(), phase3.stats());
        let json = to_json("fig6", "Fig. 6", &rows, &counters, &histos);
        assert!(json.contains("\"experiment\": \"fig6\""));
        assert!(json.contains("\\\"quoted\\\""));
        assert!(json.contains("\"paper\": null"));
        assert!(json.contains(
            "{\"label\": \"plain\", \"paper\": null, \"simulated\": 1, \"unit\": \"s\"}"
        ));
        assert!(json.contains("\"measured\": 250, \"unit\": \"us\""));
        assert!(json.contains("\"counted\": 40, \"unit\": \"\""));
        assert!(json.contains("\"s2v.rows_loaded\": 8000"));
        assert!(json.contains("\"sched.task_retries\": 3"));
        assert!(json.contains("\"s2v.phase3\": {\"count\": 4"));
        assert!(json.contains("\"p99\": 4000"), "{json}");
    }

    #[test]
    fn reports_compare_outside_their_histograms() {
        let rows = vec![ReportRow::new("cell", None, 2.0)];
        let counters = BTreeMap::from([("scan.rows_examined".to_string(), 17u64)]);
        let histos = |p50: u64| {
            let c = obs::Collector::new();
            c.record_histo(obs::names::V2S_PIECE_BYTES, p50);
            histos_since(&c.snapshot(), &obs::Collector::new().snapshot())
        };
        let json = to_json("pushdown", "Ablation", &rows, &counters, &histos(10));
        let slower = to_json("pushdown", "Ablation", &rows, &counters, &histos(90));
        assert_eq!(first_difference_outside_histograms(&json, &slower), None);
        let more = BTreeMap::from([("scan.rows_examined".to_string(), 18u64)]);
        let moved = to_json("pushdown", "Ablation", &rows, &more, &histos(10));
        let (_, was, now) = first_difference_outside_histograms(&json, &moved).unwrap();
        assert!(was.contains("17") && now.contains("18"), "{was} / {now}");
        let cut = &json[..json.find("\"counters\"").unwrap()];
        assert!(first_difference_outside_histograms(&json, cut).is_some());
    }

    /// `scripts/check.sh` runs this with `--ignored` once `bench
    /// pushdown` has regenerated the report into `$BENCH_OUT_DIR`: its
    /// experiment, title, rows and counters are deterministic, so they
    /// must be the committed file's.
    #[test]
    #[ignore = "reads a report regenerated into $BENCH_OUT_DIR; check.sh regenerates it first"]
    fn regenerated_pushdown_report_matches_the_committed_one() {
        let read = |path: PathBuf| {
            std::fs::read_to_string(&path)
                .unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()))
        };
        let fresh = read(out_dir().join("BENCH_pushdown.json"));
        let committed =
            read(PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_pushdown.json"));
        if let Some((line, was, now)) = first_difference_outside_histograms(&committed, &fresh) {
            panic!(
                "BENCH_pushdown.json line {line} changed outside histograms:\n  \
                 committed:   {was}\n  regenerated: {now}"
            );
        }
    }

    #[test]
    fn histos_since_subtracts_prior_work() {
        let c = obs::Collector::new();
        c.record_histo(obs::names::V2S_PIECE_BYTES, 10);
        let before = c.snapshot();
        c.record_histo(obs::names::V2S_PIECE_BYTES, 50);
        c.record_histo(obs::names::V2S_PIECE_BYTES, 50);
        let after = c.snapshot();
        let histos = histos_since(&after, &before);
        let s = &histos["v2s.piece_bytes"];
        assert_eq!(s.count, 2);
        assert_eq!(s.sum, 100);
        assert_eq!(s.p50, 50);
        // A histogram that did not move since `before` is omitted.
        let unmoved = histos_since(&after, &after);
        assert!(unmoved.is_empty());
    }
}
