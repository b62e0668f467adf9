//! CLI for the fabric linter.
//!
//! ```text
//! fabriclint --workspace [--root DIR] [--format text|json]
//! fabriclint FILE... [--format text|json]
//! fabriclint --lock-graph [--root DIR] [--witness FILE ...]
//! ```
//!
//! Lint modes exit 0 clean, 1 findings, 2 usage/IO error. `--format
//! json` prints the findings as a JSON report (check.sh captures it to
//! `target/fabriclint.json`).
//!
//! `--lock-graph` prints the static lock-order graph in the witness's
//! edge format (`from-class<TAB>to-class`). Each `--witness FILE` is a
//! runtime edge export (`from<TAB>to<TAB>count` lines, written by the
//! test suites via `parking_lot::witness::export_edges_text`) to diff
//! against: a witnessed edge the static graph cannot derive is an
//! analysis soundness hole and FAILS (exit 1); a static edge never
//! witnessed is reported as dynamic-coverage information (exit 0).
//! Missing witness files warn and are skipped, so the diff can run
//! before any suite has produced an export.

use std::path::PathBuf;
use std::process::ExitCode;

use fabriclint::{
    find_workspace_root, lint_files, lint_workspace, lock_graph_workspace, Allowlist, Config,
    Finding, SourceFile,
};

enum Format {
    Text,
    Json,
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut workspace = false;
    let mut lock_graph = false;
    let mut format = Format::Text;
    let mut root: Option<PathBuf> = None;
    let mut witnesses: Vec<String> = Vec::new();
    let mut files: Vec<String> = Vec::new();
    let mut it = args.into_iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--workspace" => workspace = true,
            "--lock-graph" => lock_graph = true,
            "--root" => match it.next() {
                Some(dir) => root = Some(PathBuf::from(dir)),
                None => return usage("--root needs a directory"),
            },
            "--witness" => match it.next() {
                Some(path) => witnesses.push(path),
                None => return usage("--witness needs a file"),
            },
            "--format" => match it.next().as_deref() {
                Some("text") => format = Format::Text,
                Some("json") => format = Format::Json,
                _ => return usage("--format needs `text` or `json`"),
            },
            "--help" | "-h" => {
                eprintln!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            _ if arg.starts_with('-') => return usage(&format!("unknown flag `{arg}`")),
            _ => files.push(arg),
        }
    }

    if lock_graph {
        let root = match resolve_root(root) {
            Some(r) => r,
            None => return usage("no workspace root found (looked for [workspace] in Cargo.toml)"),
        };
        let graph = match lock_graph_workspace(&root) {
            Ok(g) => g,
            Err(e) => {
                eprintln!("fabriclint: {e}");
                return ExitCode::from(2);
            }
        };
        return diff_lock_graph(&graph, &witnesses);
    }

    let findings = if workspace {
        let root = match resolve_root(root) {
            Some(r) => r,
            None => return usage("no workspace root found (looked for [workspace] in Cargo.toml)"),
        };
        match lint_workspace(&root) {
            Ok(f) => f,
            Err(e) => {
                eprintln!("fabriclint: {e}");
                return ExitCode::from(2);
            }
        }
    } else if files.is_empty() {
        return usage("pass --workspace, --lock-graph, or one or more .rs files");
    } else {
        let mut sources = Vec::new();
        for path in &files {
            match std::fs::read_to_string(path) {
                Ok(text) => sources.push(SourceFile {
                    path: path.replace('\\', "/"),
                    text,
                }),
                Err(e) => {
                    eprintln!("fabriclint: {path}: {e}");
                    return ExitCode::from(2);
                }
            }
        }
        lint_files(&sources, &Allowlist::default(), &Config::default())
    };

    match format {
        Format::Json => print_json(&findings),
        Format::Text => {
            if findings.is_empty() {
                println!("fabriclint: clean");
            } else {
                for f in &findings {
                    println!("{f}");
                }
                println!("fabriclint: {} finding(s)", findings.len());
            }
        }
    }
    if findings.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn resolve_root(root: Option<PathBuf>) -> Option<PathBuf> {
    root.or_else(|| {
        std::env::current_dir()
            .ok()
            .and_then(|d| find_workspace_root(&d))
    })
}

/// Print the static graph, then diff each witness export against it.
fn diff_lock_graph(graph: &fabriclint::locks::LockGraph, witnesses: &[String]) -> ExitCode {
    print!("{}", graph.edges_text());
    if witnesses.is_empty() {
        eprintln!(
            "fabriclint: {} static edge(s), {} lock class(es)",
            graph.edges.len(),
            graph.registry.classes.len()
        );
        return ExitCode::SUCCESS;
    }
    let mut witnessed: Vec<(String, String)> = Vec::new();
    for path in witnesses {
        let text = match std::fs::read_to_string(path) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("fabriclint: warning: witness {path}: {e} (skipped)");
                continue;
            }
        };
        for line in text.lines() {
            let mut cols = line.split('\t');
            if let (Some(from), Some(to)) = (cols.next(), cols.next()) {
                witnessed.push((from.to_string(), to.to_string()));
            }
        }
    }
    witnessed.sort();
    witnessed.dedup();

    let mut underivable = 0usize;
    for (from, to) in &witnessed {
        if !graph.has_edge(from, to) {
            underivable += 1;
            eprintln!(
                "fabriclint: witnessed edge NOT statically derivable: {from} -> {to} \
                 (the analysis lost a guard or an alias; fix the analyzer, not the test)"
            );
        }
    }
    let never_witnessed = graph
        .edges
        .keys()
        .filter(|(f, t)| !witnessed.contains(&(f.clone(), t.clone())))
        .count();
    eprintln!(
        "fabriclint: {} static edge(s); {} witnessed ({} underivable, {} static-only)",
        graph.edges.len(),
        witnessed.len(),
        underivable,
        never_witnessed
    );
    if never_witnessed > 0 {
        eprintln!(
            "fabriclint: note: {never_witnessed} statically-possible edge(s) never \
             witnessed at runtime — dynamic coverage gaps, not errors"
        );
    }
    if underivable > 0 {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

fn print_json(findings: &[Finding]) {
    let mut out = String::from("{\n  \"findings\": [\n");
    for (i, f) in findings.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"file\": \"{}\", \"line\": {}, \"rule\": \"{}\", \"message\": \"{}\"}}{}\n",
            json_escape(&f.file),
            f.line,
            f.rule.as_str(),
            json_escape(&f.message),
            if i + 1 < findings.len() { "," } else { "" }
        ));
    }
    out.push_str(&format!("  ],\n  \"count\": {}\n}}\n", findings.len()));
    print!("{out}");
}

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

const USAGE: &str = "usage: fabriclint --workspace [--root DIR] [--format text|json]
       fabriclint FILE... [--format text|json]
       fabriclint --lock-graph [--root DIR] [--witness FILE ...]";

fn usage(msg: &str) -> ExitCode {
    eprintln!("fabriclint: {msg}");
    eprintln!("{USAGE}");
    ExitCode::from(2)
}
