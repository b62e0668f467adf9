//! `fabriclint`: workspace-aware static analysis for the fabric.
//!
//! The chaos/resilience gates in this repo are only as good as a set
//! of conventions no compiler checks: seeded schedules must not read
//! ambient time or entropy, `obs` counter names must match the
//! single-source registry, every error variant must carry a transient
//! /fatal classification, hot paths must not panic, and `unsafe` must
//! justify itself. This crate makes those conventions machine-checked.
//!
//! Five rules, all driven by the hand-rolled lexer in [`lexer`] (no
//! registry access, no syn):
//!
//! * **determinism** — banned identifiers (`SystemTime`, `UNIX_EPOCH`,
//!   `thread_rng`, …) anywhere outside explicitly allowlisted seed
//!   plumbing; replayable chaos schedules depend on it.
//! * **obs-registry** — every counter/timer name recorded through
//!   `obs::global()` must appear in `obs::names::DEFS` and vice versa
//!   (no phantom emits, no dead registry rows); dotted literals that
//!   share a registered family (`hedge.`, `shed.`, …) but are not
//!   registered are flagged as likely typos.
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

#[derive(Debug, Clone)]
struct RegEntry {
    name: String,
    kind: String,
    line: u32,
}

#[derive(Debug, Default)]
struct Registry {
    /// `pub const NAME: &str = "value";` bindings in names.rs. Array
    /// consts (`[&str; N]`) map to all their element values.
    consts: HashMap<String, Vec<String>>,
    entries: Vec<RegEntry>,
}

impl Registry {
    fn is_registered(&self, name: &str) -> bool {
        if self.entries.iter().any(|e| e.name == name) {
            return true;
        }
        for suffix in [
            ".count", ".sum_us", ".min_us", ".max_us", ".p50_us", ".p99_us",
        ] {
            if let Some(base) = name.strip_suffix(suffix) {
                return self
                    .entries
                    .iter()
                    .any(|e| e.name == base && e.kind == "Timer");
            }
        }
        false
    }

    fn families(&self) -> HashSet<String> {
        self.entries
            .iter()
            .filter_map(|e| e.name.split('.').next())
            .map(String::from)
            .collect()
    }
}

fn parse_registry(path: &str, lexed: &Lexed, findings: &mut Vec<Finding>) -> Registry {
    let toks = &lexed.tokens;
    let mut reg = Registry::default();
    // Consts: `const NAME: &str = "value";` and array consts
    // `const NAME: [&str; N] = ["a", "b"];` (the `;` inside the type
    // annotation is skipped by matching the brackets).
    let mut i = 0;
    while i < toks.len() {
        if toks[i].is_ident("const") && i + 1 < toks.len() && toks[i + 1].kind == TokKind::Ident {
            let name = toks[i + 1].text.clone();
            let mut j = i + 2;
            while j < toks.len() && !toks[j].is_punct('=') && !toks[j].is_punct(';') {
                if toks[j].is_punct('[') {
                    j = match_delim(toks, j, '[', ']');
                }
                j += 1;
            }
            if j + 1 < toks.len() && toks[j].is_punct('=') {
                match toks[j + 1].kind {
                    TokKind::Str => {
                        reg.consts.insert(name, vec![toks[j + 1].text.clone()]);
                    }
                    TokKind::Punct if toks[j + 1].is_punct('[') => {
                        let close = match_delim(toks, j + 1, '[', ']');
                        let values: Vec<String> = toks[(j + 2)..close]
                            .iter()
                            .filter(|t| t.kind == TokKind::Str)
                            .map(|t| t.text.clone())
                            .collect();
                        if !values.is_empty() {
                            reg.consts.insert(name, values);
                        }
                        j = close;
                    }
                    _ => {}
                }
            }
            i = j;
        }
        i += 1;
    }
    // The DEFS table: `static DEFS: &[NameDef] = &[ NameDef { .. }, … ]`.
    let Some(defs_at) = toks.iter().position(|t| t.is_ident("DEFS")) else {
        return reg;
    };
    let Some(open) = (defs_at..toks.len()).find(|&k| toks[k].is_punct('[')) else {
        return reg;
    };
    // The `&[NameDef]` type annotation comes first; skip to the array.
    let type_close = match_delim(toks, open, '[', ']');
    let Some(arr_open) = (type_close..toks.len()).find(|&k| toks[k].is_punct('[')) else {
        return reg;
    };
    let arr_close = match_delim(toks, arr_open, '[', ']');
    let mut k = arr_open + 1;
    while k < arr_close {
        if toks[k].is_ident("NameDef") && k + 1 < arr_close && toks[k + 1].is_punct('{') {
            let entry_line = toks[k].line;
            let close = match_delim(toks, k + 1, '{', '}');
            let mut name: Option<String> = None;
            let mut kind = String::new();
            let mut f = k + 2;
            while f < close {
                if toks[f].kind == TokKind::Ident && f + 1 < close && toks[f + 1].is_punct(':') {
                    let field = toks[f].text.clone();
                    let v = f + 2;
                    match field.as_str() {
                        "name" if v < close => match toks[v].kind {
                            TokKind::Str => name = Some(toks[v].text.clone()),
                            TokKind::Ident => {
                                match reg.consts.get(&toks[v].text).and_then(|vals| vals.first()) {
                                    Some(value) => name = Some(value.clone()),
                                    None => findings.push(Finding {
                                        file: path.to_string(),
                                        line: toks[v].line,
                                        rule: Rule::ObsRegistry,
                                        message: format!(
                                            "DEFS entry references unknown const `{}`",
                                            toks[v].text
                                        ),
                                    }),
                                }
                            }
                            _ => {}
                        },
                        "kind" => {
                            let mut w = v;
                            while w < close && !toks[w].is_punct(',') {
                                if toks[w].kind == TokKind::Ident {
                                    kind = toks[w].text.clone();
                                }
                                w += 1;
                            }
                        }
                        _ => {}
                    }
                }
                f += 1;
            }
            if let Some(name) = name {
                reg.entries.push(RegEntry {
                    name,
                    kind,
                    line: entry_line,
                });
            }
            k = close;
        }
        k += 1;
    }
    reg
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
    /// Names recorded through `obs::global()` in this file, with the
    /// emit method used (the method picks the kind cross-check).
    used_names: Vec<(String, u32, String)>,
    /// SCREAMING_CASE idents inside emit-call arguments (name consts),
    /// with the emit method used.
    used_consts: Vec<(String, u32, String)>,
    /// Counter-shaped string literals anywhere in the file.
    dotted_literals: Vec<(String, u32)>,
    /// Every string literal value (dead-row cross-check).
    str_values: HashSet<String>,
    /// Every identifier (detects references to name consts).
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

pub(crate) const EMIT_METHODS: &[&str] = &[
    "incr",
    "add",
    "record_time",
    "counter_value",
    "trace_start",
    "span_start",
    "record_histo",
];

/// Registry kinds each trace/histogram emit method may target; methods
/// not listed here keep the registration-only check. A finished span
/// feeds a same-named histogram, so `record_histo` also accepts Span.
fn allowed_kinds(method: &str) -> Option<&'static [&'static str]> {
    match method {
        "trace_start" | "span_start" => Some(&["Span"]),
        "record_histo" => Some(&["Histo", "Span"]),
        _ => None,
    }
}

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
                // obs emit calls: global().method("name", …)
                if t.text == "global"
                    && i + 5 < toks.len()
                    && toks[i + 1].is_punct('(')
                    && toks[i + 2].is_punct(')')
                    && toks[i + 3].is_punct('.')
                    && toks[i + 4].kind == TokKind::Ident
                    && EMIT_METHODS.contains(&toks[i + 4].text.as_str())
                    && toks[i + 5].is_punct('(')
                {
                    let method = toks[i + 4].text.clone();
                    let close = match_delim(toks, i + 5, '(', ')');
                    let arg_end = first_arg_end(toks, i + 5, close);
                    for arg in &toks[(i + 6)..arg_end] {
                        match arg.kind {
                            TokKind::Str => {
                                facts
                                    .used_names
                                    .push((arg.text.clone(), arg.line, method.clone()));
                            }
                            TokKind::Ident
                                if arg.text.len() > 1
                                    && arg
                                        .text
                                        .chars()
                                        .all(|c| c.is_ascii_uppercase() || c == '_') =>
                            {
                                facts.used_consts.push((
                                    arg.text.clone(),
                                    arg.line,
                                    method.clone(),
                                ));
                            }
                            _ => {}
                        }
                    }
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

/// End (exclusive) of the first argument of a call whose `(` is at
/// `open` and `)` at `close`: the top-level `,`, or `close` itself.
fn first_arg_end(toks: &[Tok], open: usize, close: usize) -> usize {
    let mut depth = 0i32;
    for (k, t) in toks.iter().enumerate().take(close).skip(open + 1) {
        if t.is_punct('(') || t.is_punct('[') || t.is_punct('{') {
            depth += 1;
        } else if t.is_punct(')') || t.is_punct(']') || t.is_punct('}') {
            depth -= 1;
        } else if depth == 0 && t.is_punct(',') {
            return k;
        }
    }
    close
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
    let mut registry = Registry::default();
    for f in files {
        if f.path == cfg.names_path {
            registry = parse_registry(&f.path, &lex(&f.text), &mut findings);
        }
    }

    let facts: Vec<(&SourceFile, FileFacts)> =
        files.iter().map(|f| (f, analyze_file(f, cfg))).collect();

    for (_, ff) in &facts {
        findings.extend(ff.findings.iter().cloned());
    }

    let have_registry = !registry.entries.is_empty();
    let families = registry.families();
    let mut flagged_sites: HashSet<(String, u32, String)> = HashSet::new();

    if have_registry {
        // Direction A: every recorded name must be registered — and
        // for trace/histogram methods, registered with the right kind
        // (a `span_start` against a Counter row is as wrong as an
        // unregistered name: the span would shadow an existing metric).
        let kind_of = |name: &str| -> Option<String> {
            registry
                .entries
                .iter()
                .find(|e| e.name == name)
                .map(|e| e.kind.clone())
        };
        let check_kind =
            |file: &str, line: u32, name: &str, method: &str, findings: &mut Vec<Finding>| {
                let Some(allowed) = allowed_kinds(method) else {
                    return;
                };
                if let Some(kind) = kind_of(name) {
                    if !allowed.contains(&kind.as_str()) {
                        findings.push(Finding {
                            file: file.to_string(),
                            line,
                            rule: Rule::ObsRegistry,
                            message: format!(
                                "`{method}` on \"{name}\" which is registered as \
                                 NameKind::{kind}; expected {}",
                                allowed.join(" or ")
                            ),
                        });
                    }
                }
            };
        for (file, ff) in &facts {
            for (name, line, method) in &ff.used_names {
                if !registry.is_registered(name) {
                    flagged_sites.insert((file.path.clone(), *line, name.clone()));
                    findings.push(Finding {
                        file: file.path.clone(),
                        line: *line,
                        rule: Rule::ObsRegistry,
                        message: format!(
                            "counter name \"{name}\" is not registered in obs::names::DEFS"
                        ),
                    });
                } else {
                    check_kind(&file.path, *line, name, method, &mut findings);
                }
            }
            for (ident, line, method) in &ff.used_consts {
                match registry.consts.get(ident) {
                    None => findings.push(Finding {
                        file: file.path.clone(),
                        line: *line,
                        rule: Rule::ObsRegistry,
                        message: format!(
                            "`{ident}` in an obs emit call is not a const from obs::names"
                        ),
                    }),
                    Some(values) => {
                        for value in values {
                            if !registry.is_registered(value) {
                                findings.push(Finding {
                                    file: file.path.clone(),
                                    line: *line,
                                    rule: Rule::ObsRegistry,
                                    message: format!(
                                        "const `{ident}` (\"{value}\") is not registered \
                                         in obs::names::DEFS"
                                    ),
                                });
                            } else {
                                check_kind(&file.path, *line, value, method, &mut findings);
                            }
                        }
                    }
                }
            }
        }
        // Direction B: every registry row must be used somewhere.
        let mut occurrences: HashSet<&str> = HashSet::new();
        for (file, ff) in &facts {
            if file.path == cfg.names_path {
                continue;
            }
            occurrences.extend(ff.str_values.iter().map(String::as_str));
            for (cname, cvalues) in &registry.consts {
                if ff.idents.contains(cname) {
                    occurrences.extend(cvalues.iter().map(String::as_str));
                }
            }
        }
        for e in &registry.entries {
            if !occurrences.contains(e.name.as_str()) {
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
        for (file, ff) in &facts {
            for (name, line) in &ff.dotted_literals {
                if registry.is_registered(name) {
                    continue;
                }
                let family = name.split('.').next().unwrap_or("");
                if !families.contains(family) {
                    continue;
                }
                if flagged_sites.contains(&(file.path.clone(), *line, name.clone())) {
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
