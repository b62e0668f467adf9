//! `fabriclint`: workspace-aware static analysis for the fabric.
//!
//! The chaos/resilience gates in this repo are only as good as a set
//! of conventions no compiler checks: seeded schedules must not read
//! ambient time or entropy, every `obs` registry row must be used and
//! every name a test or report reads must be registered, every error
//! variant must carry a transient/fatal classification, hot paths must
//! not panic, and `unsafe` must justify itself. This crate makes those conventions machine-checked.
//!
//! Five rules, all driven by the hand-rolled lexer in [`lexer`] (no
//! registry access, no syn):
//!
//! * **determinism** — banned identifiers (`SystemTime`, `UNIX_EPOCH`,
//!   `thread_rng`, …) anywhere outside explicitly allowlisted seed
//!   plumbing; replayable chaos schedules depend on it. In `crates/*/src`
//!   outside test regions, ambient clock reads, sleeps and timed waits
//!   (`Instant::now`, `.elapsed()`, `thread::sleep`, `.wait_until(`) too:
//!   time goes through `common::clock`, the one exempt file.
//! * **obs-registry** — every row of the `names!` table in
//!   `obs::names` must be mentioned elsewhere, by handle or by name (no
//!   dead rows); dotted literals that share a registered family
//!   (`hedge.`, `shed.`, …) but are not registered are flagged as
//!   likely typos in a read. Emits need no check: the collector takes
//!   typed handles, so the compiler refuses an unregistered name or
//!   one of the wrong kind.
//! * **error-taxonomy** — every `DbError`/`ConnectorError` variant is
//!   classified by an `is_transient()` in its defining file and is
//!   constructed somewhere in the workspace.
//! * **panic-hygiene** — `.unwrap()`/`.expect(` are banned in
//!   non-test `mppdb`/`connector` code.
//! * **safety-comment** — every `unsafe` needs a `// SAFETY:` comment
//!   within the three preceding lines.
//!
//! Intentional exceptions are explicit and diff-reviewed: either an
//! inline `// fabriclint: allow(<rule>): why` on the offending line
//! (or the line above), or an entry in the checked-in
//! [`ALLOW_FILE`] baseline. Stale baseline entries are themselves
//! findings, so the exception list can only shrink by itself.

pub mod callgraph;
pub mod cfg;
pub mod flow;
pub mod lexer;
pub mod locks;

use std::collections::{HashMap, HashSet};
use std::fmt;
use std::path::{Path, PathBuf};

use lexer::{lex, Lexed, Tok, TokKind};

/// Where the single-source obs name registry lives.
pub const NAMES_PATH: &str = "crates/obs/src/names.rs";

/// The checked-in baseline of intentional exceptions.
pub const ALLOW_FILE: &str = "fabriclint.allow";

/// Ambient clock reads, sleeps and timed waits, spelled as tokens:
/// banned in `crates/*/src` outside test regions and [`CLOCK_EXEMPT`],
/// since time goes through `common::clock`.
const CLOCK_CALLS: &[&str] = &["Instant::now", ".elapsed(", "thread::sleep", ".wait_until("];

/// Where [`CLOCK_CALLS`] stay allowed: the clock itself, and the crates
/// that time the machine rather than the fabric.
const CLOCK_EXEMPT: &[&str] = &[
    "crates/common/src/clock.rs",
    "crates/bench/",
    "crates/fabriclint/",
];

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Rule {
    Determinism,
    ObsRegistry,
    ErrorTaxonomy,
    PanicHygiene,
    SafetyComment,
    /// Flow-sensitive: static lock-order cycles and lost guards.
    StaticLockOrder,
    /// Flow-sensitive: a call that may sleep/park under a live guard.
    BlockingUnderLock,
    /// Flow-sensitive: a Deadline/TraceCtx/CallPolicy parameter that is
    /// dropped on a path that sleeps or emits.
    ContextPropagation,
    /// Meta-rule: problems with the allowlist itself (stale entries).
    Allowlist,
}

impl Rule {
    pub fn as_str(self) -> &'static str {
        match self {
            Rule::Determinism => "determinism",
            Rule::ObsRegistry => "obs-registry",
            Rule::ErrorTaxonomy => "error-taxonomy",
            Rule::PanicHygiene => "panic-hygiene",
            Rule::SafetyComment => "safety-comment",
            Rule::StaticLockOrder => "static-lock-order",
            Rule::BlockingUnderLock => "blocking-under-lock",
            Rule::ContextPropagation => "context-propagation",
            Rule::Allowlist => "allowlist",
        }
    }
}

#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    pub file: String,
    pub line: u32,
    pub rule: Rule,
    pub message: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.file,
            self.line,
            self.rule.as_str(),
            self.message
        )
    }
}

/// One source file handed to the linter (workspace-relative path).
#[derive(Debug, Clone)]
pub struct SourceFile {
    pub path: String,
    pub text: String,
}

/// Knobs the fixture tests override; the defaults describe this repo.
#[derive(Debug, Clone)]
pub struct Config {
    /// Path of the obs name registry inside the file set.
    pub names_path: String,
    /// Enums whose variants need `is_transient()` classification.
    pub taxonomy_enums: Vec<String>,
    /// Path prefixes where `.unwrap()`/`.expect(` are banned.
    pub panic_path_prefixes: Vec<String>,
    /// Identifiers that leak ambient time/entropy into seeded code.
    pub banned_idents: Vec<String>,
    /// Base functions that can sleep/park the calling thread
    /// (blocking-under-lock's leaves; propagation is transitive).
    pub blocking_fns: Vec<String>,
    /// Context types the propagation pass tracks.
    pub ctx_types: Vec<String>,
}

impl Default for Config {
    fn default() -> Config {
        Config {
            names_path: NAMES_PATH.to_string(),
            taxonomy_enums: vec!["DbError".to_string(), "ConnectorError".to_string()],
            panic_path_prefixes: vec![
                "crates/connector/src/".to_string(),
                "crates/mppdb/src/".to_string(),
            ],
            banned_idents: [
                "SystemTime",
                "UNIX_EPOCH",
                "thread_rng",
                "OsRng",
                "from_entropy",
                "getrandom",
                "RandomState",
            ]
            .into_iter()
            .map(String::from)
            .collect(),
            blocking_fns: callgraph::default_blocking_fns(),
            ctx_types: ["Deadline", "TraceCtx", "CallPolicy"]
                .into_iter()
                .map(String::from)
                .collect(),
        }
    }
}

/// The checked-in exception baseline. Line format (one per line):
///
/// ```text
/// <rule> <path-suffix> [<message-substring>]
/// ```
///
/// A finding is suppressed when the rule matches, the finding's file
/// ends with the path suffix, and (if given) the message contains the
/// substring. `#` starts a comment.
#[derive(Debug, Default)]
pub struct Allowlist {
    entries: Vec<AllowEntry>,
}

#[derive(Debug)]
struct AllowEntry {
    rule: String,
    path: String,
    needle: String,
    line: u32,
}

impl Allowlist {
    pub fn parse(text: &str) -> Allowlist {
        let mut entries = Vec::new();
        for (idx, raw) in text.lines().enumerate() {
            let line = raw.split('#').next().unwrap_or("").trim();
            if line.is_empty() {
                continue;
            }
            let mut parts = line.split_whitespace();
            let (rule, path) = match (parts.next(), parts.next()) {
                (Some(r), Some(p)) => (r.to_string(), p.to_string()),
                _ => continue,
            };
            entries.push(AllowEntry {
                rule,
                path,
                needle: parts.collect::<Vec<_>>().join(" "),
                line: idx as u32 + 1,
            });
        }
        Allowlist { entries }
    }

    fn matches(&self, finding: &Finding, used: &mut HashSet<usize>) -> bool {
        for (i, e) in self.entries.iter().enumerate() {
            if e.rule == finding.rule.as_str()
                && finding.file.ends_with(&e.path)
                && (e.needle.is_empty() || finding.message.contains(&e.needle))
            {
                used.insert(i);
                return true;
            }
        }
        false
    }
}

// ---------------------------------------------------------------------
// Registry parsing (obs names.rs)
// ---------------------------------------------------------------------

/// One row of the `names!` table: `Kind IDENT = "name", "help";`.
#[derive(Debug, Clone)]
struct RegEntry {
    kind: String,
    ident: String,
    name: String,
    line: u32,
}

/// The rows of the `names!` table in `names.rs`.
fn parse_registry(lexed: &Lexed) -> Vec<RegEntry> {
    let toks = &lexed.tokens;
    let Some(open) = toks
        .windows(3)
        .position(|w| w[0].is_ident("names") && w[1].is_punct('!') && w[2].is_punct('{'))
    else {
        return Vec::new();
    };
    let close = match_delim(toks, open + 2, '{', '}');
    let mut rows = Vec::new();
    for row in toks[(open + 3)..close].split(|t| t.is_punct(';')) {
        if let [kind, ident, eq, name, ..] = row {
            if kind.kind == TokKind::Ident
                && ident.kind == TokKind::Ident
                && eq.is_punct('=')
                && name.kind == TokKind::Str
            {
                rows.push(RegEntry {
                    kind: kind.text.clone(),
                    ident: ident.text.clone(),
                    name: name.text.clone(),
                    line: ident.line,
                });
            }
        }
    }
    rows
}

/// Whether `name` is a registered row, or one of the six derived
/// `dc_counters` spellings of a timer row (`<timer>.p99_us`, ...).
fn is_registered(rows: &[RegEntry], name: &str) -> bool {
    let row = |n: &str| rows.iter().find(|e| e.name == n);
    if row(name).is_some() {
        return true;
    }
    [
        ".count", ".sum_us", ".min_us", ".max_us", ".p50_us", ".p99_us",
    ]
    .iter()
    .any(|suffix| {
        name.strip_suffix(suffix)
            .and_then(row)
            .is_some_and(|e| e.kind == "Timer")
    })
}

// ---------------------------------------------------------------------
// Token helpers
// ---------------------------------------------------------------------

/// Crate-internal re-exports for the flow modules.
pub(crate) fn match_delim_pub(toks: &[Tok], open: usize, open_ch: char, close_ch: char) -> usize {
    match_delim(toks, open, open_ch, close_ch)
}

pub(crate) fn find_test_regions_pub(toks: &[Tok]) -> (Vec<(u32, u32)>, bool) {
    find_test_regions(toks)
}

pub(crate) fn is_test_path_pub(path: &str) -> bool {
    is_test_path(path)
}

/// Index of the delimiter closing the one at `open` (inclusive scan;
/// returns the last token index if unbalanced).
fn match_delim(toks: &[Tok], open: usize, open_ch: char, close_ch: char) -> usize {
    let mut depth = 0i32;
    for (k, t) in toks.iter().enumerate().skip(open) {
        if t.is_punct(open_ch) {
            depth += 1;
        } else if t.is_punct(close_ch) {
            depth -= 1;
            if depth == 0 {
                return k;
            }
        }
    }
    toks.len().saturating_sub(1)
}

/// Lowercase dotted identifier (`family.name[.more]`) — the shape of a
/// data-collector counter name. File-looking suffixes are excluded so
/// path literals ("fault.rs") don't read as counters.
fn is_counter_shaped(s: &str) -> bool {
    let segments: Vec<&str> = s.split('.').collect();
    if segments.len() < 2 {
        return false;
    }
    if !segments.iter().all(|seg| {
        !seg.is_empty()
            && seg
                .chars()
                .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '_')
    }) {
        return false;
    }
    const FILE_EXTS: &[&str] = &[
        "rs", "json", "csv", "txt", "toml", "sh", "avro", "pmml", "tmp", "gz", "log", "lock",
    ];
    !FILE_EXTS.contains(&segments.last().copied().unwrap_or(""))
}

// ---------------------------------------------------------------------
// Per-file analysis
// ---------------------------------------------------------------------

#[derive(Debug, Default)]
struct FileFacts {
    /// Counter-shaped string literals anywhere in the file.
    dotted_literals: Vec<(String, u32)>,
    /// Every string literal value (dead-row cross-check).
    str_values: HashSet<String>,
    /// Every identifier (detects references to name handles).
    idents: HashSet<String>,
    /// Taxonomy enums defined here: (enum, variants with lines).
    enums: Vec<EnumDecl>,
    /// Identifier sets of `fn is_transient` bodies in this file.
    transient_bodies: Vec<HashSet<String>>,
    /// `Enum::Variant` uses that look like constructions.
    constructed: HashSet<(String, String)>,
    /// Line → joined comment text (inline-allow + SAFETY lookups).
    comments: HashMap<u32, String>,
    findings: Vec<Finding>,
}

/// A taxonomy enum declaration: (name, decl line, variants with lines).
type EnumDecl = (String, u32, Vec<(String, u32)>);

/// The collector methods that record: the flow pass counts a call of
/// one as an emit.
pub(crate) const EMIT_METHODS: &[&str] = &[
    "incr",
    "add",
    "record_time",
    "trace_start",
    "span_start",
    "record_histo",
];

fn is_test_path(path: &str) -> bool {
    path.starts_with("tests/")
        || path.starts_with("examples/")
        || path.contains("/tests/")
        || path.contains("/benches/")
        || path.contains("/examples/")
}

fn analyze_file(file: &SourceFile, cfg: &Config) -> FileFacts {
    let lexed = lex(&file.text);
    let toks = &lexed.tokens;
    let mut facts = FileFacts::default();
    for (line, text) in &lexed.comments {
        let slot = facts.comments.entry(*line).or_default();
        slot.push_str(text);
        slot.push('\n');
    }

    let (test_regions, whole_file_test) = find_test_regions(toks);
    let path_is_test = is_test_path(&file.path);
    let in_test = |line: u32| {
        whole_file_test || path_is_test || test_regions.iter().any(|&(s, e)| line >= s && line <= e)
    };

    let panic_scope = cfg
        .panic_path_prefixes
        .iter()
        .any(|p| file.path.starts_with(p));
    let clock_scope = file.path.starts_with("crates/")
        && file.path.contains("/src/")
        && !CLOCK_EXEMPT.iter().any(|p| file.path.starts_with(p));

    // determinism: ambient clock reads, sleeps and waits.
    for w in toks
        .windows(4)
        .filter(|w| clock_scope && !in_test(w[0].line))
    {
        let spelled: String = w.iter().map(|t| t.text.as_str()).collect();
        if let Some(call) = CLOCK_CALLS.iter().find(|call| spelled.starts_with(**call)) {
            facts.findings.push(Finding {
                file: file.path.clone(),
                line: w[0].line,
                rule: Rule::Determinism,
                message: format!(
                    "`{call}` reads or waits on ambient time; take the owner's \
                     `common::clock::Clock` instead"
                ),
            });
        }
    }

    let mut i = 0usize;
    while i < toks.len() {
        let t = &toks[i];
        match t.kind {
            TokKind::Str => {
                facts.str_values.insert(t.text.clone());
                if file.path != cfg.names_path && is_counter_shaped(&t.text) {
                    facts.dotted_literals.push((t.text.clone(), t.line));
                }
            }
            TokKind::Ident => {
                facts.idents.insert(t.text.clone());
                // determinism: banned ambient time/entropy identifiers.
                if cfg.banned_idents.iter().any(|b| b == &t.text) {
                    facts.findings.push(Finding {
                        file: file.path.clone(),
                        line: t.line,
                        rule: Rule::Determinism,
                        message: format!(
                            "`{}` leaks ambient time/entropy into seeded code; \
                             plumb a seed or an injected clock instead",
                            t.text
                        ),
                    });
                }
                // safety-comment: unsafe must be justified nearby.
                if t.text == "unsafe" {
                    let justified = (t.line.saturating_sub(3)..=t.line).any(|l| {
                        facts
                            .comments
                            .get(&l)
                            .is_some_and(|c| c.contains("SAFETY:"))
                    });
                    if !justified {
                        facts.findings.push(Finding {
                            file: file.path.clone(),
                            line: t.line,
                            rule: Rule::SafetyComment,
                            message: "`unsafe` without a `// SAFETY:` comment on the \
                                      preceding lines"
                                .to_string(),
                        });
                    }
                }
                // panic-hygiene: `.unwrap()` / `.expect(` on hot paths.
                if panic_scope
                    && (t.text == "unwrap" || t.text == "expect")
                    && i > 0
                    && toks[i - 1].is_punct('.')
                    && i + 1 < toks.len()
                    && toks[i + 1].is_punct('(')
                    && !in_test(t.line)
                {
                    facts.findings.push(Finding {
                        file: file.path.clone(),
                        line: t.line,
                        rule: Rule::PanicHygiene,
                        message: format!(
                            ".{}() in a non-test hot path; return a typed error \
                             (DbError/ConnectorError) instead",
                            t.text
                        ),
                    });
                }
                // Taxonomy enum declarations.
                if t.text == "enum"
                    && i + 1 < toks.len()
                    && toks[i + 1].kind == TokKind::Ident
                    && cfg.taxonomy_enums.contains(&toks[i + 1].text)
                {
                    if let Some((variants, close)) = parse_enum_variants(toks, i) {
                        facts
                            .enums
                            .push((toks[i + 1].text.clone(), toks[i + 1].line, variants));
                        i = close;
                    }
                }
                // is_transient classification bodies.
                if t.text == "fn" && i + 1 < toks.len() && toks[i + 1].is_ident("is_transient") {
                    if let Some((body, close)) = fn_body_idents(toks, i) {
                        facts.transient_bodies.push(body);
                        i = close;
                    }
                }
                // Enum::Variant constructions.
                if cfg.taxonomy_enums.contains(&t.text)
                    && i + 3 < toks.len()
                    && toks[i + 1].is_punct(':')
                    && toks[i + 2].is_punct(':')
                    && toks[i + 3].kind == TokKind::Ident
                    && toks[i + 3]
                        .text
                        .chars()
                        .next()
                        .is_some_and(|c| c.is_ascii_uppercase())
                    && is_construction(toks, i, i + 3)
                {
                    facts
                        .constructed
                        .insert((t.text.clone(), toks[i + 3].text.clone()));
                }
            }
            _ => {}
        }
        i += 1;
    }
    facts
}

/// Parse `enum Name { A, B(..), C { .. } }` starting at the `enum`
/// keyword; returns the variant list and the index of the closing `}`.
fn parse_enum_variants(toks: &[Tok], enum_idx: usize) -> Option<(Vec<(String, u32)>, usize)> {
    let mut open = enum_idx + 2;
    while open < toks.len() && !toks[open].is_punct('{') {
        if toks[open].is_punct(';') {
            return None;
        }
        open += 1;
    }
    if open >= toks.len() {
        return None;
    }
    let close = match_delim(toks, open, '{', '}');
    let mut variants = Vec::new();
    let mut expecting = true; // at a position where a variant may start
    let mut k = open + 1;
    while k < close {
        let t = &toks[k];
        if t.is_punct('#') && k + 1 < close && toks[k + 1].is_punct('[') {
            k = match_delim(toks, k + 1, '[', ']') + 1;
            continue;
        }
        if expecting && t.kind == TokKind::Ident {
            variants.push((t.text.clone(), t.line));
            expecting = false;
        } else if t.is_punct('(') {
            k = match_delim(toks, k, '(', ')');
        } else if t.is_punct('{') {
            k = match_delim(toks, k, '{', '}');
        } else if t.is_punct(',') {
            expecting = true;
        }
        k += 1;
    }
    Some((variants, close))
}

/// Identifier set of the body of the `fn` at `fn_idx`; returns the set
/// and the index of the body's closing brace.
fn fn_body_idents(toks: &[Tok], fn_idx: usize) -> Option<(HashSet<String>, usize)> {
    let mut open = fn_idx + 2;
    // Skip the parameter list so a `{` in a default-expr can't confuse.
    while open < toks.len() && !toks[open].is_punct('(') {
        open += 1;
    }
    if open >= toks.len() {
        return None;
    }
    let params_close = match_delim(toks, open, '(', ')');
    let mut body_open = params_close + 1;
    while body_open < toks.len() && !toks[body_open].is_punct('{') {
        if toks[body_open].is_punct(';') {
            return None;
        }
        body_open += 1;
    }
    if body_open >= toks.len() {
        return None;
    }
    let close = match_delim(toks, body_open, '{', '}');
    let set = toks[body_open..close]
        .iter()
        .filter(|t| t.kind == TokKind::Ident)
        .map(|t| t.text.clone())
        .collect();
    Some((set, close))
}

/// Heuristic: does `Enum::Variant` at `path_idx..=var_idx` appear in
/// expression (construction) position rather than pattern position?
fn is_construction(toks: &[Tok], path_idx: usize, var_idx: usize) -> bool {
    if path_idx > 0 && toks[path_idx - 1].is_punct('|') {
        return false; // one alternative in an or-pattern
    }
    // Where does the variant's payload end?
    let mut after = var_idx + 1;
    if after < toks.len() && (toks[after].is_punct('(') || toks[after].is_punct('{')) {
        let (open_ch, close_ch) = if toks[after].is_punct('(') {
            ('(', ')')
        } else {
            ('{', '}')
        };
        let close = match_delim(toks, after, open_ch, close_ch);
        // A payload of only `_` / `..` / `,` is a wildcard pattern.
        let all_wild = toks[(after + 1)..close]
            .iter()
            .all(|t| t.is_ident("_") || t.is_punct('.') || t.is_punct(',') || t.is_punct('_'));
        if all_wild && close > after + 1 {
            return false;
        }
        after = close + 1;
    }
    if after >= toks.len() {
        return true;
    }
    if toks[after].is_punct('|') {
        return false; // or-pattern continues
    }
    if toks[after].is_punct('=') {
        // `=>` (match arm) and `= expr` (let-pattern) are patterns;
        // `==` is a comparison against a constructed value.
        return after + 1 < toks.len() && toks[after + 1].is_punct('=');
    }
    true
}

/// `(start, end)` line ranges of `#[cfg(test)]` / `#[test]` items,
/// plus whether an inner `#![cfg(test)]` marks the whole file.
fn find_test_regions(toks: &[Tok]) -> (Vec<(u32, u32)>, bool) {
    let mut regions = Vec::new();
    let mut whole_file = false;
    let mut i = 0usize;
    while i < toks.len() {
        if !toks[i].is_punct('#') {
            i += 1;
            continue;
        }
        let mut j = i + 1;
        let inner = j < toks.len() && toks[j].is_punct('!');
        if inner {
            j += 1;
        }
        if j >= toks.len() || !toks[j].is_punct('[') {
            i += 1;
            continue;
        }
        let attr_close = match_delim(toks, j, '[', ']');
        let idents: Vec<&str> = toks[j + 1..attr_close]
            .iter()
            .filter(|t| t.kind == TokKind::Ident)
            .map(|t| t.text.as_str())
            .collect();
        let is_test_attr = idents.first() == Some(&"test")
            || (idents.first() == Some(&"cfg") && idents.contains(&"test"));
        if !is_test_attr {
            i = attr_close + 1;
            continue;
        }
        if inner {
            whole_file = true;
            i = attr_close + 1;
            continue;
        }
        // Skip further attributes, then find the item's body.
        let mut k = attr_close + 1;
        while k + 1 < toks.len() && toks[k].is_punct('#') && toks[k + 1].is_punct('[') {
            k = match_delim(toks, k + 1, '[', ']') + 1;
        }
        let mut body = k;
        while body < toks.len() && !toks[body].is_punct('{') {
            if toks[body].is_punct(';') {
                break;
            }
            body += 1;
        }
        if body < toks.len() && toks[body].is_punct('{') {
            let close = match_delim(toks, body, '{', '}');
            regions.push((toks[i].line, toks[close].line));
            i = close + 1;
        } else {
            i = body + 1;
        }
    }
    (regions, whole_file)
}

// ---------------------------------------------------------------------
// Workspace linting
// ---------------------------------------------------------------------

/// Lint an in-memory file set. The entry point fixture tests use;
/// [`lint_workspace`] feeds it from disk.
pub fn lint_files(files: &[SourceFile], allow: &Allowlist, cfg: &Config) -> Vec<Finding> {
    lint_files_with_graph(files, allow, cfg).0
}

/// Like [`lint_files`], but also returns the static lock graph the
/// flow passes computed (the `--lock-graph` diff and the subgraph
/// tests reuse it instead of re-analyzing).
pub fn lint_files_with_graph(
    files: &[SourceFile],
    allow: &Allowlist,
    cfg: &Config,
) -> (Vec<Finding>, locks::LockGraph) {
    let flow = flow::run(files, cfg);
    let graph = flow.graph;
    let mut findings: Vec<Finding> = flow.findings;
    let registry = files
        .iter()
        .find(|f| f.path == cfg.names_path)
        .map(|f| parse_registry(&lex(&f.text)))
        .unwrap_or_default();

    let facts: Vec<(&SourceFile, FileFacts)> =
        files.iter().map(|f| (f, analyze_file(f, cfg))).collect();

    for (_, ff) in &facts {
        findings.extend(ff.findings.iter().cloned());
    }

    if !registry.is_empty() {
        // Dead rows: a row whose handle or name no other file mentions.
        let mut idents: HashSet<&str> = HashSet::new();
        let mut strs: HashSet<&str> = HashSet::new();
        for (file, ff) in &facts {
            if file.path != cfg.names_path {
                idents.extend(ff.idents.iter().map(String::as_str));
                strs.extend(ff.str_values.iter().map(String::as_str));
            }
        }
        for e in &registry {
            if !idents.contains(e.ident.as_str()) && !strs.contains(e.name.as_str()) {
                findings.push(Finding {
                    file: cfg.names_path.clone(),
                    line: e.line,
                    rule: Rule::ObsRegistry,
                    message: format!(
                        "dead DEFS row: \"{}\" is never recorded or read anywhere",
                        e.name
                    ),
                });
            }
        }
        // Drift: family-matching literals that are not registered.
        let families: HashSet<&str> = registry
            .iter()
            .filter_map(|e| e.name.split('.').next())
            .collect();
        for (file, ff) in &facts {
            for (name, line) in &ff.dotted_literals {
                let family = name.split('.').next().unwrap_or("");
                if !families.contains(family) || is_registered(&registry, name) {
                    continue;
                }
                findings.push(Finding {
                    file: file.path.clone(),
                    line: *line,
                    rule: Rule::ObsRegistry,
                    message: format!(
                        "\"{name}\" shares the registered counter family \"{family}.\" \
                         but is not in obs::names::DEFS (drifted or typoed name?)"
                    ),
                });
            }
        }
    }

    // Error taxonomy: classification + constructed-somewhere.
    let all_constructed: HashSet<(String, String)> = facts
        .iter()
        .flat_map(|(_, ff)| ff.constructed.iter().cloned())
        .collect();
    for (file, ff) in &facts {
        for (enum_name, enum_line, variants) in &ff.enums {
            let classified: Option<&HashSet<String>> = ff
                .transient_bodies
                .iter()
                .find(|body| variants.iter().any(|(v, _)| body.contains(v)))
                .or(ff.transient_bodies.first());
            match classified {
                None => findings.push(Finding {
                    file: file.path.clone(),
                    line: *enum_line,
                    rule: Rule::ErrorTaxonomy,
                    message: format!(
                        "enum {enum_name} has no is_transient() classification in its \
                         defining file"
                    ),
                }),
                Some(body) => {
                    for (v, vline) in variants {
                        if !body.contains(v) {
                            findings.push(Finding {
                                file: file.path.clone(),
                                line: *vline,
                                rule: Rule::ErrorTaxonomy,
                                message: format!(
                                    "variant {enum_name}::{v} is not classified by \
                                     is_transient()"
                                ),
                            });
                        }
                    }
                }
            }
            for (v, vline) in variants {
                if !all_constructed.contains(&(enum_name.clone(), v.clone())) {
                    findings.push(Finding {
                        file: file.path.clone(),
                        line: *vline,
                        rule: Rule::ErrorTaxonomy,
                        message: format!(
                            "variant {enum_name}::{v} is never constructed anywhere in \
                             the workspace"
                        ),
                    });
                }
            }
        }
    }

    // Inline `// fabriclint: allow(rule)` suppressions.
    let comments: HashMap<&str, &HashMap<u32, String>> = facts
        .iter()
        .map(|(f, ff)| (f.path.as_str(), &ff.comments))
        .collect();
    findings.retain(|f| {
        let directive = format!("fabriclint: allow({})", f.rule.as_str());
        let Some(file_comments) = comments.get(f.file.as_str()) else {
            return true;
        };
        !(f.line.saturating_sub(1)..=f.line).any(|l| {
            file_comments
                .get(&l)
                .is_some_and(|c| c.contains(&directive))
        })
    });

    // Baseline allowlist, then flag entries that no longer fire.
    let mut used: HashSet<usize> = HashSet::new();
    findings.retain(|f| !allow.matches(f, &mut used));
    for (i, e) in allow.entries.iter().enumerate() {
        if !used.contains(&i) {
            findings.push(Finding {
                file: ALLOW_FILE.to_string(),
                line: e.line,
                rule: Rule::Allowlist,
                message: format!(
                    "stale allowlist entry `{} {}`: no finding matches it any more",
                    e.rule, e.path
                ),
            });
        }
    }

    findings.sort_by(|a, b| (&a.file, a.line, a.rule).cmp(&(&b.file, b.line, b.rule)));
    (findings, graph)
}

/// Compute only the static lock graph for a file set (no findings,
/// no allowlist) — what the per-suite subgraph tests call.
pub fn lock_graph_files(files: &[SourceFile], cfg: &Config) -> locks::LockGraph {
    flow::run(files, cfg).graph
}

/// Static lock graph of the workspace rooted at `root`.
pub fn lock_graph_workspace(root: &Path) -> std::io::Result<locks::LockGraph> {
    let files = workspace_files(root)?;
    Ok(lock_graph_files(&files, &Config::default()))
}

/// Collect every workspace `.rs` file (the set `lint_workspace` lints).
pub fn workspace_files(root: &Path) -> std::io::Result<Vec<SourceFile>> {
    let mut files = Vec::new();
    for top in ["src", "crates", "tests", "examples", "vendor"] {
        collect_rs_files(&root.join(top), root, &mut files)?;
    }
    files.sort_by(|a, b| a.path.cmp(&b.path));
    Ok(files)
}

/// Lint the workspace rooted at `root` from disk.
pub fn lint_workspace(root: &Path) -> std::io::Result<Vec<Finding>> {
    let files = workspace_files(root)?;
    let allow_text = std::fs::read_to_string(root.join(ALLOW_FILE)).unwrap_or_default();
    let allow = Allowlist::parse(&allow_text);
    Ok(lint_files(&files, &allow, &Config::default()))
}

fn collect_rs_files(dir: &Path, root: &Path, out: &mut Vec<SourceFile>) -> std::io::Result<()> {
    if !dir.is_dir() {
        return Ok(());
    }
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        let name = entry.file_name();
        if path.is_dir() {
            if name != "target" {
                collect_rs_files(&path, root, out)?;
            }
        } else if path.extension().is_some_and(|e| e == "rs") {
            let rel = path
                .strip_prefix(root)
                .unwrap_or(&path)
                .to_string_lossy()
                .replace('\\', "/");
            out.push(SourceFile {
                path: rel,
                text: std::fs::read_to_string(&path)?,
            });
        }
    }
    Ok(())
}

/// Find the workspace root by walking up from `start` to the first
/// directory whose `Cargo.toml` declares `[workspace]`.
pub fn find_workspace_root(start: &Path) -> Option<PathBuf> {
    let mut dir = start.to_path_buf();
    loop {
        let manifest = dir.join("Cargo.toml");
        if let Ok(text) = std::fs::read_to_string(&manifest) {
            if text.contains("[workspace]") {
                return Some(dir);
            }
        }
        if !dir.pop() {
            return None;
        }
    }
}
