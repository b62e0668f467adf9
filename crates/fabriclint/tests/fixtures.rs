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

/// A minimal obs name registry in the `names!` table grammar: two
/// counters and a timer.
fn names_file() -> SourceFile {
    file(
        "crates/obs/src/names.rs",
        r#"
names! {
    Counter FIX_HITS = "fix.hits",
        "h";
    Counter FIX_MISSES = "fix.misses", "h";
    Timer FIX_WAIT_US = "fix.wait_us", "h";
}
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
    obs::global().incr(names::FIX_MISSES);
    obs::global().record_time(obs::names::FIX_WAIT_US, d);
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

/// Every ambient clock read, sleep and timed wait, once each.
const AMBIENT_CLOCK: &str = "fn tick(cv: &Condvar, g: &mut Guard) -> u64 {\n\
     let t = std::time::Instant::now();\n\
     std::thread::sleep(D);\n\
     cv.wait_until(g, t + D);\n\
     t.elapsed().as_micros() as u64\n\
     }\n";

#[test]
fn determinism_flags_ambient_clock_calls_in_product_code() {
    let f = lint(&[file("crates/app/src/tick.rs", AMBIENT_CLOCK)]);
    assert_eq!(rules(&f), vec![Rule::Determinism; 4], "{f:?}");
    let lines: Vec<u32> = f.iter().map(|x| x.line).collect();
    assert_eq!(lines, vec![2, 3, 4, 5]);
    assert!(f[0].message.contains("`Instant::now`"), "{f:?}");
    assert!(f[3].message.contains("`.elapsed(`"), "{f:?}");
}

#[test]
fn determinism_leaves_the_clock_tests_and_bench_their_clock_calls() {
    for path in [
        "crates/common/src/clock.rs",
        "crates/bench/src/tick.rs",
        "crates/app/tests/tick.rs",
    ] {
        let f = lint(&[file(path, AMBIENT_CLOCK)]);
        assert!(f.is_empty(), "{path}: {f:?}");
    }
    let test_region =
        format!("pub fn real() {{}}\n#[cfg(test)]\nmod tests {{\n{AMBIENT_CLOCK}}}\n");
    let f = lint(&[file("crates/app/src/tick.rs", &test_region)]);
    assert!(f.is_empty(), "{f:?}");
    // A clock's own reads are the owner's, not ambient.
    let owned = file(
        "crates/app/src/owned.rs",
        "fn tick(clock: Clock, t: Instant) -> Duration { clock.sleep(D); clock.since(t) }",
    );
    assert!(lint(&[owned]).is_empty());
}

// ---------------------------------------------------------------------
// obs-registry
// ---------------------------------------------------------------------

#[test]
fn obs_registry_flags_dead_defs_rows() {
    // Nothing mentions FIX_MISSES or FIX_WAIT_US, by handle or by name.
    let partial = file(
        "crates/app/src/emit.rs",
        "fn emit() { obs::global().incr(FIX_HITS); }",
    );
    let f = lint(&[names_file(), partial]);
    assert_eq!(f.len(), 2, "{f:?}");
    assert!(f.iter().all(|x| x.rule == Rule::ObsRegistry
        && x.file == "crates/obs/src/names.rs"
        && x.message.contains("dead DEFS row")));
    assert_eq!(f[0].line, 5, "the finding points at the row: {f:?}");
    assert!(f[0].message.contains("fix.misses") && f[1].message.contains("fix.wait_us"));

    // A row read by its name string alone is not dead.
    let read = file(
        "crates/app/src/read.rs",
        r#"fn read(d: &Delta) { d.get("fix.misses"); d.get("fix.wait_us"); }"#,
    );
    let f = lint(&[
        names_file(),
        file(
            "crates/app/src/emit.rs",
            "fn emit() { obs::global().incr(FIX_HITS); }",
        ),
        read,
    ]);
    assert!(f.is_empty(), "{f:?}");
}

#[test]
fn obs_registry_flags_family_drift() {
    // "fix.hitz" is counter-shaped, shares the registered family, and
    // is not registered: the classic drifted/typoed assertion literal.
    let drift = file(
        "crates/app/src/check.rs",
        r#"fn check(v: u64) { assert_counter("fix.hitz", v); }"#,
    );
    let f = lint(&[names_file(), uses_all_names(), drift]);
    assert_eq!(rules(&f), vec![Rule::ObsRegistry]);
    assert!(f[0].message.contains("fix.hitz") && f[0].message.contains("family"));
}

#[test]
fn obs_registry_accepts_derived_timer_rows_and_if_else_emits() {
    let good = file(
        "crates/app/src/read.rs",
        r#"
fn read() {
    let p99 = delta.get("fix.wait_us.p99_us");
    obs::global().incr(if fast { FIX_HITS } else { FIX_MISSES });
    obs::global().record_time(FIX_WAIT_US, d);
}
"#,
    );
    assert!(lint(&[names_file(), good]).is_empty());
    // The derived spellings belong to timers only.
    let counter_p99 = file(
        "crates/app/src/read2.rs",
        r#"fn read() { delta.get("fix.hits.p99_us"); }"#,
    );
    let f = lint(&[names_file(), uses_all_names(), counter_p99]);
    assert_eq!(rules(&f), vec![Rule::ObsRegistry], "{f:?}");
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

/// A `locks!` table of two classes, `FIX_FRONT` ranked before
/// `FIX_REAR`.
fn lock_table() -> SourceFile {
    file(
        "crates/common/src/locks.rs",
        "locks! {\n    FIX_FRONT: \"the front\";\n    FIX_REAR: \"the rear\";\n}\n",
    )
}

/// Two distinctly-named lock fields of the two table classes; each
/// test appends fns that acquire them in some order. Field names use
/// the `fix_` prefix so the in-memory classes never alias real
/// workspace lock names.
fn pair_file(body: &str) -> [SourceFile; 2] {
    let pair = file(
        "crates/app/src/pair.rs",
        &format!(
            r#"
pub struct FixPair {{
    fix_front: Mutex<u32>,
    fix_rear: Mutex<u32>,
}}
pub fn mk_pair() -> FixPair {{
    FixPair {{
        fix_front: Mutex::new(&locks::FIX_FRONT, 0),
        fix_rear: Mutex::new(&locks::FIX_REAR, 1),
    }}
}}
{body}
"#
        ),
    );
    [pair, lock_table()]
}

#[test]
fn lock_order_flags_inverted_acquisitions() {
    let body = "pub fn fr(p: &FixPair) { let f = p.fix_front.lock(); let r = p.fix_rear.lock(); }\n\
                pub fn rf(p: &FixPair) { let r = p.fix_rear.lock(); let f = p.fix_front.lock(); }\n";
    let f = lint(&pair_file(body));
    assert_eq!(rules(&f), vec![Rule::StaticLockOrder], "{f:?}");
    assert!(f[0].message.contains("inversion"), "{:?}", f[0]);
}

#[test]
fn lock_order_flags_one_order_against_rank_with_no_cycle() {
    // Only the rear → front order exists: no cycle closes, but the edge
    // goes up the table.
    let body =
        "pub fn rf(p: &FixPair) { let r = p.fix_rear.lock(); let f = p.fix_front.lock(); }\n";
    let f = lint(&pair_file(body));
    assert_eq!(rules(&f), vec![Rule::StaticLockOrder], "{f:?}");
    assert!(
        f[0].message.contains("`FIX_FRONT` (rank 0)")
            && f[0].message.contains("`FIX_REAR` (rank 1)"),
        "{:?}",
        f[0]
    );
    // The table order itself is clean.
    let body =
        "pub fn fr(p: &FixPair) { let f = p.fix_front.lock(); let r = p.fix_rear.lock(); }\n";
    assert!(lint(&pair_file(body)).is_empty());
}

#[test]
fn lock_order_flags_a_product_class_missing_from_the_table() {
    let [pair, _] = pair_file("");
    let f = lint(&[
        pair.clone(),
        file(
            "crates/common/src/locks.rs",
            "locks! {\n    FIX_FRONT: \"the front\";\n}\n",
        ),
    ]);
    assert_eq!(rules(&f), vec![Rule::StaticLockOrder], "{f:?}");
    assert!(
        f[0].message.contains("`FIX_REAR` is not a row"),
        "{:?}",
        f[0]
    );
    // Test code may declare classes of its own.
    let test_only = file("crates/app/tests/pair.rs", &pair.text);
    assert!(lint(&[test_only, lock_table()]).is_empty());
}

#[test]
fn lock_order_accepts_guard_dropped_before_inversion() {
    let body = "pub fn fr(p: &FixPair) { let f = p.fix_front.lock(); let r = p.fix_rear.lock(); }\n\
                pub fn rf(p: &FixPair) { let r = p.fix_rear.lock(); drop(r); let f = p.fix_front.lock(); }\n";
    assert!(lint(&pair_file(body)).is_empty());
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
    let f = lint(&pair_file(body));
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
    assert!(lint(&pair_file(body)).is_empty());
}

#[test]
fn lock_graph_exposes_witness_keyed_edges() {
    let body =
        "pub fn fr(p: &FixPair) { let f = p.fix_front.lock(); let r = p.fix_rear.lock(); }\n";
    let g = fabriclint::lock_graph_files(&pair_file(body), &Config::default());
    // Edges are keyed by declared class — the names the runtime witness
    // exports, so the two sides diff directly.
    assert!(g.has_edge("FIX_FRONT", "FIX_REAR"));
    assert!(!g.has_edge("FIX_REAR", "FIX_FRONT"));
    assert!(g.edges_text().contains("FIX_FRONT\tFIX_REAR"));
}

// ---------------------------------------------------------------------
// blocking-under-lock
// ---------------------------------------------------------------------

#[test]
fn blocking_under_lock_flags_sleep_with_guard_live() {
    let body = "pub fn stall(p: &FixPair, d: Duration) { let f = p.fix_front.lock(); sleep(d); }\n";
    let f = lint(&pair_file(body));
    assert_eq!(rules(&f), vec![Rule::BlockingUnderLock], "{f:?}");
}

#[test]
fn blocking_under_lock_sees_through_calls() {
    // The sleep is one call away: the transitive may-block summary of
    // `fix_nap` carries it back under the guard.
    let body = "pub fn fix_nap(d: Duration) { sleep(d); }\n\
                pub fn stall(p: &FixPair, d: Duration) { let f = p.fix_front.lock(); fix_nap(d); }\n";
    let f = lint(&pair_file(body));
    assert_eq!(rules(&f), vec![Rule::BlockingUnderLock], "{f:?}");
}

#[test]
fn blocking_under_lock_flags_a_clock_sleep_but_not_a_wait_on_its_own_guard() {
    let body = "pub fn stall(p: &FixPair, clock: Clock, d: Duration) {\n\
                    let f = p.fix_front.lock();\n\
                    clock.sleep(d);\n\
                }\n";
    let f = lint(&pair_file(body));
    assert_eq!(rules(&f), vec![Rule::BlockingUnderLock], "{f:?}");
    assert!(f[0].message.contains("`sleep`"), "{f:?}");
    let body = "pub fn park(p: &FixPair, cv: &Condvar, clock: Clock, t: Instant) {\n\
                    let mut f = p.fix_front.lock();\n\
                    clock.wait(cv, &mut f, t);\n\
                }\n";
    assert!(lint(&pair_file(body)).is_empty());
}

#[test]
fn blocking_under_lock_accepts_dropped_guard_and_inline_allow() {
    let ok =
        "pub fn stall(p: &FixPair, d: Duration) { let f = p.fix_front.lock(); drop(f); sleep(d); }\n";
    assert!(lint(&pair_file(ok)).is_empty());
    let allowed = "pub fn stall(p: &FixPair, d: Duration) {\n\
                       let f = p.fix_front.lock();\n\
                       // fabriclint: allow(blocking-under-lock): fixture, bounded wait\n\
                       sleep(d);\n\
                   }\n";
    assert!(lint(&pair_file(allowed)).is_empty());
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
