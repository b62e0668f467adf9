//! Positive and negative fixtures for every lint rule.
//!
//! Each fixture is an in-memory workspace (a `Vec<SourceFile>`) fed
//! through [`fabriclint::lint_files`]; the assertions pin both that a
//! violation *is* reported (positive) and that the idiomatic spelling
//! is *not* (negative). Counter names in fixtures use the `fix.`
//! family, which the real registry does not define, so these literals
//! never collide with the workspace lint.

use fabriclint::{lint_files, Allowlist, Config, Finding, Rule, SourceFile};

fn file(path: &str, text: &str) -> SourceFile {
    SourceFile {
        path: path.to_string(),
        text: text.to_string(),
    }
}

/// A minimal obs name registry: one const-named counter, one
/// literal-named counter, and a timer.
fn names_file() -> SourceFile {
    file(
        "crates/obs/src/names.rs",
        r#"
pub const FIX_HITS: &str = "fix.hits";

pub static DEFS: &[NameDef] = &[
    NameDef { name: FIX_HITS, kind: NameKind::Counter, help: "h" },
    NameDef { name: "fix.misses", kind: NameKind::Counter, help: "h" },
    NameDef { name: "fix.wait_us", kind: NameKind::Timer, help: "h" },
];
"#,
    )
}

/// A file that legitimately uses every registered name, so the
/// dead-row check stays quiet unless a fixture wants it to fire.
fn uses_all_names() -> SourceFile {
    file(
        "crates/app/src/emit.rs",
        r#"
fn emit() {
    obs::global().incr(FIX_HITS);
    obs::global().incr("fix.misses");
    obs::global().record_time("fix.wait_us", d);
}
"#,
    )
}

fn lint(files: &[SourceFile]) -> Vec<Finding> {
    lint_files(files, &Allowlist::default(), &Config::default())
}

fn rules(findings: &[Finding]) -> Vec<Rule> {
    findings.iter().map(|f| f.rule).collect()
}

// ---------------------------------------------------------------------
// determinism
// ---------------------------------------------------------------------

#[test]
fn determinism_flags_ambient_time_and_entropy() {
    let bad = file(
        "crates/app/src/clock.rs",
        "fn now() -> u64 { SystemTime::now().duration_since(UNIX_EPOCH).unwrap().as_secs() }",
    );
    let f = lint(&[bad]);
    assert!(
        f.iter().filter(|x| x.rule == Rule::Determinism).count() >= 2,
        "SystemTime and UNIX_EPOCH should both be flagged: {f:?}"
    );
    let rng = file(
        "crates/app/src/rng.rs",
        "fn roll() -> u64 { let mut r = thread_rng(); r.next() }",
    );
    assert_eq!(rules(&lint(&[rng])), vec![Rule::Determinism]);
}

#[test]
fn determinism_accepts_seeded_code_and_inline_allows() {
    let good = file(
        "crates/app/src/seeded.rs",
        "fn mk(seed: u64) -> StdRng { StdRng::seed_from_u64(seed) }",
    );
    assert!(lint(&[good]).is_empty());
    let allowed = file(
        "crates/app/src/wall.rs",
        "// fabriclint: allow(determinism): report timestamps are display-only\n\
         fn stamp() -> SystemTime { SystemTime::now() }",
    );
    assert!(lint(&[allowed]).is_empty(), "inline allow must suppress");
}

// ---------------------------------------------------------------------
// obs-registry
// ---------------------------------------------------------------------

#[test]
fn obs_registry_flags_unregistered_emit() {
    let bad = file(
        "crates/app/src/emit.rs",
        r#"
fn emit() {
    obs::global().incr(FIX_HITS);
    obs::global().incr("fix.misses");
    obs::global().record_time("fix.wait_us", d);
    obs::global().incr("fix.phantom");
}
"#,
    );
    let f = lint(&[names_file(), bad]);
    assert_eq!(rules(&f), vec![Rule::ObsRegistry]);
    assert!(f[0].message.contains("fix.phantom"));
    assert!(f[0].message.contains("not registered"));
}

#[test]
fn obs_registry_flags_dead_defs_rows() {
    // Nothing references "fix.misses" or "fix.wait_us".
    let partial = file(
        "crates/app/src/emit.rs",
        "fn emit() { obs::global().incr(FIX_HITS); }",
    );
    let f = lint(&[names_file(), partial]);
    assert_eq!(f.len(), 2, "{f:?}");
    assert!(f.iter().all(|x| x.rule == Rule::ObsRegistry
        && x.file == "crates/obs/src/names.rs"
        && x.message.contains("dead DEFS row")));
}

#[test]
fn obs_registry_flags_family_drift_and_unknown_consts() {
    // "fix.hitz" is counter-shaped, shares the registered family, and
    // is not registered: the classic drifted/typoed assertion literal.
    let drift = file(
        "crates/app/src/check.rs",
        r#"fn check(v: u64) { assert_counter("fix.hitz", v); }"#,
    );
    let f = lint(&[names_file(), uses_all_names(), drift]);
    assert_eq!(rules(&f), vec![Rule::ObsRegistry]);
    assert!(f[0].message.contains("fix.hitz") && f[0].message.contains("family"));

    // A SCREAMING const in an emit call that names.rs does not define.
    let unknown = file(
        "crates/app/src/emit2.rs",
        "fn emit() { obs::global().incr(FIX_TYPO); }",
    );
    let f = lint(&[names_file(), uses_all_names(), unknown]);
    assert_eq!(rules(&f), vec![Rule::ObsRegistry]);
    assert!(f[0].message.contains("FIX_TYPO"));
}

#[test]
fn obs_registry_accepts_derived_timer_rows_and_if_else_emits() {
    let good = file(
        "crates/app/src/read.rs",
        r#"
fn read() {
    let p99 = counter_value("fix.wait_us.p99_us");
    obs::global().incr(if fast { FIX_HITS } else { "fix.misses" });
    obs::global().record_time("fix.wait_us", d);
}
"#,
    );
    assert!(lint(&[names_file(), good]).is_empty());
}

/// A registry with one span, one histogram, and one counter — for the
/// trace-emit cross-checks.
fn span_names_file() -> SourceFile {
    file(
        "crates/obs/src/names.rs",
        r#"
pub const FIX_HITS: &str = "fix.hits";

pub static DEFS: &[NameDef] = &[
    NameDef { name: FIX_HITS, kind: NameKind::Counter, help: "h" },
    NameDef { name: "fix.job", kind: NameKind::Span, help: "h" },
    NameDef { name: "fix.piece_bytes", kind: NameKind::Histo, help: "h" },
];
"#,
    )
}

#[test]
fn obs_registry_cross_checks_span_emit_sites() {
    // The idiomatic spellings: spans against Span rows, record_histo
    // against Histo rows (or a Span row, whose histogram is implicit).
    let good = file(
        "crates/app/src/trace.rs",
        r#"
fn run() {
    obs::global().incr(FIX_HITS);
    let root = obs::global().trace_start("fix.job");
    let child = obs::global().span_start("fix.job", root);
    obs::global().record_histo("fix.piece_bytes", n);
    obs::global().record_histo("fix.job", n);
}
"#,
    );
    assert!(lint(&[span_names_file(), good]).is_empty());

    // An unregistered span name is flagged like an unregistered counter.
    let phantom = file(
        "crates/app/src/trace.rs",
        r#"
fn run() {
    obs::global().incr(FIX_HITS);
    let root = obs::global().trace_start("fix.job");
    obs::global().record_histo("fix.piece_bytes", n);
    let c = obs::global().span_start("fix.phantom", root);
}
"#,
    );
    let f = lint(&[span_names_file(), phantom]);
    assert_eq!(rules(&f), vec![Rule::ObsRegistry]);
    assert!(f[0].message.contains("fix.phantom"));

    // A span emit against a non-Span row is a kind mismatch.
    let mismatch = file(
        "crates/app/src/trace.rs",
        r#"
fn run() {
    let root = obs::global().trace_start(FIX_HITS);
    let child = obs::global().span_start("fix.job", root);
    obs::global().record_histo("fix.piece_bytes", n);
}
"#,
    );
    let f = lint(&[span_names_file(), mismatch]);
    assert_eq!(rules(&f), vec![Rule::ObsRegistry], "{f:?}");
    assert!(
        f[0].message.contains("NameKind::Counter") && f[0].message.contains("expected Span"),
        "{:?}",
        f[0]
    );

    // A dead Span row is still a dead row.
    let unused = file("crates/app/src/other.rs", "fn emit() { obs::global().incr(FIX_HITS); obs::global().record_histo(\"fix.piece_bytes\", n); }");
    let f = lint(&[span_names_file(), unused]);
    assert_eq!(f.len(), 1, "{f:?}");
    assert!(f[0].message.contains("dead DEFS row") && f[0].message.contains("fix.job"));
}

#[test]
fn obs_registry_catches_phantom_planner_emits() {
    // The planner family ships registered rows; a typoed or freshly
    // invented `planner.*` emit must not slip past the registry check
    // just because siblings in the family exist.
    let planner_names = file(
        "crates/obs/src/names.rs",
        r#"
pub static DEFS: &[NameDef] = &[
    NameDef { name: "planner.conjuncts_reordered", kind: NameKind::Counter, help: "h" },
    NameDef { name: "planner.estimated_rows", kind: NameKind::Counter, help: "h" },
];
"#,
    );
    // Assembled at runtime so the *real* workspace lint (which scans
    // this test's source text too) does not see the phantom literal.
    let phantom = format!("plan{}.phantom", "ner");
    let emits = file(
        "crates/app/src/planner.rs",
        &format!(
            r#"
fn plan() {{
    obs::global().incr("planner.conjuncts_reordered");
    obs::global().add("planner.estimated_rows", est);
    obs::global().incr("{phantom}");
}}
"#
        ),
    );
    let f = lint(&[planner_names, emits]);
    assert_eq!(rules(&f), vec![Rule::ObsRegistry], "{f:?}");
    assert!(
        f[0].message.contains(&phantom) && f[0].message.contains("registered"),
        "{:?}",
        f[0]
    );
}

#[test]
fn obs_registry_catches_phantom_rebalance_emits() {
    // The elastic-cluster family: counters land in DEFS alongside a
    // timer, and an invented `rebalance.*` emit is flagged even though
    // registered siblings exist — new rebalance instrumentation cannot
    // drift past the registry.
    let rebalance_names = file(
        "crates/obs/src/names.rs",
        r#"
pub static DEFS: &[NameDef] = &[
    NameDef { name: "rebalance.flips", kind: NameKind::Counter, help: "h" },
    NameDef { name: "rebalance.migration_us", kind: NameKind::Timer, help: "h" },
    NameDef { name: "rebalance.rows_copied", kind: NameKind::Counter, help: "h" },
];
"#,
    );
    // Assembled at runtime so the *real* workspace lint (which scans
    // this test's source text too) does not see the phantom literal.
    let phantom = format!("rebal{}.migrations_done", "ance");
    let emits = file(
        "crates/mppdb/src/rebalance.rs",
        &format!(
            r#"
fn flip() {{
    obs::global().incr("rebalance.flips");
    obs::global().add("rebalance.rows_copied", rows);
    obs::global().record_time("rebalance.migration_us", dur);
    obs::global().incr("{phantom}");
}}
"#
        ),
    );
    let f = lint(&[rebalance_names, emits]);
    assert_eq!(rules(&f), vec![Rule::ObsRegistry], "{f:?}");
    assert!(
        f[0].message.contains(&phantom) && f[0].message.contains("registered"),
        "{:?}",
        f[0]
    );
}

// ---------------------------------------------------------------------
// error-taxonomy
// ---------------------------------------------------------------------

#[test]
fn taxonomy_flags_unclassified_and_never_constructed_variants() {
    let err = file(
        "crates/app/src/error.rs",
        r#"
pub enum DbError {
    Lost { node: usize },
    Syntax(String),
    Phantom(String),
}
impl DbError {
    pub fn is_transient(&self) -> bool {
        match self {
            DbError::Lost { .. } => true,
            DbError::Syntax(_) => false,
            DbError::Phantom(_) => false,
        }
    }
}
"#,
    );
    let uses = file(
        "crates/app/src/use_err.rs",
        r#"
fn fail(node: usize) -> DbError { DbError::Lost { node } }
fn parse() -> DbError { DbError::Syntax("bad".into()) }
"#,
    );
    let f = lint(&[err, uses]);
    assert_eq!(rules(&f), vec![Rule::ErrorTaxonomy]);
    assert!(
        f[0].message.contains("Phantom") && f[0].message.contains("never constructed"),
        "{f:?}"
    );

    let missing = file(
        "crates/app/src/error.rs",
        r#"
pub enum DbError { Lost { node: usize }, Syntax(String) }
impl DbError {
    pub fn is_transient(&self) -> bool {
        matches!(self, DbError::Lost { .. })
    }
}
fn mk(node: usize) -> DbError { DbError::Lost { node } }
fn mk2() -> DbError { DbError::Syntax("x".into()) }
"#,
    );
    let f = lint(&[missing]);
    assert_eq!(rules(&f), vec![Rule::ErrorTaxonomy]);
    assert!(f[0].message.contains("Syntax") && f[0].message.contains("not classified"));
}

#[test]
fn taxonomy_flags_enum_without_classifier_and_accepts_complete_one() {
    let bare = file(
        "crates/app/src/error.rs",
        r#"
pub enum ConnectorError { Usage(String) }
fn mk() -> ConnectorError { ConnectorError::Usage("x".into()) }
"#,
    );
    let f = lint(&[bare]);
    assert_eq!(rules(&f), vec![Rule::ErrorTaxonomy]);
    assert!(f[0].message.contains("no is_transient()"));

    let complete = file(
        "crates/app/src/error.rs",
        r#"
pub enum ConnectorError { Usage(String), NoLiveNodes }
impl ConnectorError {
    pub fn is_transient(&self) -> bool {
        match self {
            ConnectorError::NoLiveNodes => true,
            ConnectorError::Usage(_) => false,
        }
    }
}
fn a() -> ConnectorError { ConnectorError::Usage("x".into()) }
fn b() -> ConnectorError { ConnectorError::NoLiveNodes }
fn is_no_nodes(e: &ConnectorError) -> bool {
    matches!(e, ConnectorError::NoLiveNodes) || match e {
        ConnectorError::Usage(_) | ConnectorError::NoLiveNodes => false,
    }
}
"#,
    );
    assert!(lint(&[complete]).is_empty());
}

// ---------------------------------------------------------------------
// panic-hygiene
// ---------------------------------------------------------------------

#[test]
fn panic_hygiene_flags_hot_path_unwraps_only() {
    let hot = file(
        "crates/mppdb/src/hot.rs",
        "fn read(v: Option<u32>) -> u32 { v.unwrap() }\n\
         fn msg(v: Option<u32>) -> u32 { v.expect(\"always set\") }",
    );
    let f = lint(&[hot]);
    assert_eq!(rules(&f), vec![Rule::PanicHygiene, Rule::PanicHygiene]);

    // The same code outside the configured hot paths is fine.
    let cold = file(
        "crates/bench/src/hot.rs",
        "fn read(v: Option<u32>) -> u32 { v.unwrap() }",
    );
    assert!(lint(&[cold]).is_empty());
}

#[test]
fn panic_hygiene_skips_tests_and_honors_inline_allows() {
    let tested = file(
        "crates/mppdb/src/hot.rs",
        r#"
fn safe(v: Option<u32>) -> Option<u32> { v }

#[cfg(test)]
mod tests {
    #[test]
    fn roundtrip() { assert_eq!(super::safe(Some(3)).unwrap(), 3); }
}
"#,
    );
    assert!(lint(&[tested]).is_empty(), "test regions are exempt");

    let allowed = file(
        "crates/connector/src/hot.rs",
        "fn get(v: Option<u32>) -> u32 {\n\
         \x20   // fabriclint: allow(panic-hygiene): invariant, v set by caller\n\
         \x20   v.unwrap()\n\
         }",
    );
    assert!(lint(&[allowed]).is_empty());
}

// ---------------------------------------------------------------------
// safety-comment
// ---------------------------------------------------------------------

#[test]
fn safety_comment_required_for_unsafe() {
    let bad = file(
        "crates/app/src/ptr.rs",
        "fn read(p: *const u8) -> u8 { unsafe { *p } }",
    );
    let f = lint(&[bad]);
    assert_eq!(rules(&f), vec![Rule::SafetyComment]);

    let good = file(
        "crates/app/src/ptr.rs",
        "fn read(p: *const u8) -> u8 {\n\
         \x20   // SAFETY: caller guarantees p is valid for reads.\n\
         \x20   unsafe { *p }\n\
         }",
    );
    assert!(lint(&[good]).is_empty());
}

// ---------------------------------------------------------------------
// static-lock-order
// ---------------------------------------------------------------------

/// Two distinctly-named lock fields created on lines 8 and 9; each
/// test appends fns that acquire them in some order. Field names use
/// the `fix_` prefix so the in-memory classes never alias real
/// workspace lock names.
fn pair_file(body: &str) -> SourceFile {
    file(
        "crates/app/src/pair.rs",
        &format!(
            r#"
pub struct FixPair {{
    fix_front: Mutex<u32>,
    fix_rear: Mutex<u32>,
}}
pub fn mk_pair() -> FixPair {{
    FixPair {{
        fix_front: Mutex::new(0),
        fix_rear: Mutex::new(1),
    }}
}}
{body}
"#
        ),
    )
}

#[test]
fn lock_order_flags_inverted_acquisitions() {
    let body = "pub fn fr(p: &FixPair) { let f = p.fix_front.lock(); let r = p.fix_rear.lock(); }\n\
                pub fn rf(p: &FixPair) { let r = p.fix_rear.lock(); let f = p.fix_front.lock(); }\n";
    let f = lint(&[pair_file(body)]);
    assert_eq!(rules(&f), vec![Rule::StaticLockOrder], "{f:?}");
    assert!(f[0].message.contains("cycle"), "{:?}", f[0]);
}

#[test]
fn lock_order_accepts_guard_dropped_before_inversion() {
    let body = "pub fn fr(p: &FixPair) { let f = p.fix_front.lock(); let r = p.fix_rear.lock(); }\n\
                pub fn rf(p: &FixPair) { let r = p.fix_rear.lock(); drop(r); let f = p.fix_front.lock(); }\n";
    assert!(lint(&[pair_file(body)]).is_empty());
}

#[test]
fn lock_order_revives_conditionally_dropped_guards() {
    // `drop(r)` inside the `if` releases the guard only on that
    // branch; the fall-through still holds it across the second
    // acquisition, so the inversion (and the cycle) is real.
    let body =
        "pub fn fr(p: &FixPair) { let f = p.fix_front.lock(); let r = p.fix_rear.lock(); }\n\
                pub fn rf(p: &FixPair, c: bool) {\n\
                    let r = p.fix_rear.lock();\n\
                    if c { drop(r); return; }\n\
                    let f = p.fix_front.lock();\n\
                }\n";
    let f = lint(&[pair_file(body)]);
    assert_eq!(rules(&f), vec![Rule::StaticLockOrder], "{f:?}");
}

#[test]
fn lock_order_honors_inline_allow() {
    let body = "pub fn fr(p: &FixPair) {\n\
                    let f = p.fix_front.lock();\n\
                    // fabriclint: allow(static-lock-order): fixture inversion\n\
                    let r = p.fix_rear.lock();\n\
                }\n\
                pub fn rf(p: &FixPair) {\n\
                    let r = p.fix_rear.lock();\n\
                    // fabriclint: allow(static-lock-order): fixture inversion\n\
                    let f = p.fix_front.lock();\n\
                }\n";
    assert!(lint(&[pair_file(body)]).is_empty());
}

#[test]
fn lock_graph_exposes_witness_keyed_edges() {
    let body =
        "pub fn fr(p: &FixPair) { let f = p.fix_front.lock(); let r = p.fix_rear.lock(); }\n";
    let g = fabriclint::lock_graph_files(&[pair_file(body)], &Config::default());
    // Classes are keyed by creation site — the same `file:line` format
    // the runtime witness exports, so the two sides diff directly.
    assert!(g.has_edge("crates/app/src/pair.rs:8", "crates/app/src/pair.rs:9"));
    assert!(!g.has_edge("crates/app/src/pair.rs:9", "crates/app/src/pair.rs:8"));
    assert!(g
        .edges_text()
        .contains("crates/app/src/pair.rs:8\tcrates/app/src/pair.rs:9"));
}

// ---------------------------------------------------------------------
// blocking-under-lock
// ---------------------------------------------------------------------

#[test]
fn blocking_under_lock_flags_sleep_with_guard_live() {
    let body = "pub fn stall(p: &FixPair, d: Duration) { let f = p.fix_front.lock(); sleep(d); }\n";
    let f = lint(&[pair_file(body)]);
    assert_eq!(rules(&f), vec![Rule::BlockingUnderLock], "{f:?}");
}

#[test]
fn blocking_under_lock_sees_through_calls() {
    // The sleep is one call away: the transitive may-block summary of
    // `fix_nap` carries it back under the guard.
    let body = "pub fn fix_nap(d: Duration) { sleep(d); }\n\
                pub fn stall(p: &FixPair, d: Duration) { let f = p.fix_front.lock(); fix_nap(d); }\n";
    let f = lint(&[pair_file(body)]);
    assert_eq!(rules(&f), vec![Rule::BlockingUnderLock], "{f:?}");
}

#[test]
fn blocking_under_lock_accepts_dropped_guard_and_inline_allow() {
    let ok =
        "pub fn stall(p: &FixPair, d: Duration) { let f = p.fix_front.lock(); drop(f); sleep(d); }\n";
    assert!(lint(&[pair_file(ok)]).is_empty());
    let allowed = "pub fn stall(p: &FixPair, d: Duration) {\n\
                       let f = p.fix_front.lock();\n\
                       // fabriclint: allow(blocking-under-lock): fixture, bounded wait\n\
                       sleep(d);\n\
                   }\n";
    assert!(lint(&[pair_file(allowed)]).is_empty());
}

// ---------------------------------------------------------------------
// context-propagation
// ---------------------------------------------------------------------

#[test]
fn ctx_propagation_flags_unused_ctx_on_blocking_path() {
    // A `CallPolicy` carries the job's Deadline and TraceCtx, so
    // dropping one on a blocking path loses both.
    for ty in ["Deadline", "CallPolicy"] {
        let bad = file(
            "crates/app/src/ctx.rs",
            &format!("pub fn run_fix(d: {ty}, t: Duration) {{ sleep(t); }}\n"),
        );
        let f = lint(&[bad]);
        assert_eq!(rules(&f), vec![Rule::ContextPropagation], "{f:?}");
        assert!(f[0].message.contains(ty), "{:?}", f[0]);
    }
}

#[test]
fn ctx_propagation_accepts_used_discarded_or_nonblocking_ctx() {
    let used = file(
        "crates/app/src/ctx.rs",
        "pub fn run_fix(d: Deadline) { sleep(d.remaining()); }\n",
    );
    assert!(lint(&[used]).is_empty());
    // `_`-prefixed params are an explicit discard, not a lost ctx.
    let discarded = file(
        "crates/app/src/ctx.rs",
        "pub fn run_fix(_d: Deadline, t: Duration) { sleep(t); }\n",
    );
    assert!(lint(&[discarded]).is_empty());
    // A fn that neither sleeps nor emits owes the ctx nothing.
    let nonblocking = file(
        "crates/app/src/ctx.rs",
        "pub fn peek_fix(d: Deadline) -> u32 { 7 }\n",
    );
    assert!(lint(&[nonblocking]).is_empty());
    let allowed = file(
        "crates/app/src/ctx.rs",
        "// fabriclint: allow(context-propagation): fixture trait signature\n\
         pub fn run_fix(d: Deadline, t: Duration) { sleep(t); }\n",
    );
    assert!(lint(&[allowed]).is_empty());
}

// ---------------------------------------------------------------------
// allowlist baseline
// ---------------------------------------------------------------------

#[test]
fn baseline_suppresses_matches_and_flags_stale_entries() {
    let bad = file(
        "crates/app/src/clock.rs",
        "fn now() -> SystemTime { SystemTime::now() }",
    );
    let allow = Allowlist::parse(
        "# fixture baseline\n\
         determinism crates/app/src/clock.rs SystemTime\n",
    );
    let f = lint_files(std::slice::from_ref(&bad), &allow, &Config::default());
    assert!(f.is_empty(), "baseline entry must suppress: {f:?}");

    // The same baseline against a clean workspace is itself a finding.
    let clean = file("crates/app/src/clean.rs", "fn nothing() {}");
    let f = lint_files(&[clean], &allow, &Config::default());
    assert_eq!(rules(&f), vec![Rule::Allowlist]);
    assert!(f[0].message.contains("stale"));
    assert_eq!(f[0].file, "fabriclint.allow");
}
