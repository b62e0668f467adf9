//! The flow-sensitive passes: static-lock-order, blocking-under-lock,
//! context-propagation. One entry point builds the shared
//! IR/call-graph/lock-registry state and runs everything, returning
//! findings (fed through the normal allow machinery by `lint_files`)
//! and the static lock graph (used by the `--lock-graph` diff mode and
//! the in-tree subgraph tests).

use std::collections::{BTreeMap, HashMap};

use crate::callgraph::{self, CallGraph};
use crate::cfg::{self, Ev, FnIr};
use crate::lexer::lex;
use crate::locks::{self, LockGraph, LockRegistry};
use crate::{find_test_regions_pub, is_test_path_pub, Config, Finding, Rule, SourceFile};

/// Everything the flow passes computed, kept so callers (the CLI's
/// `--lock-graph` mode, tests) can reuse the graph without re-linting.
pub struct FlowAnalysis {
    pub findings: Vec<Finding>,
    pub graph: LockGraph,
}

pub fn run(files: &[SourceFile], cfg: &Config) -> FlowAnalysis {
    let debug = std::env::var("FABRICLINT_DEBUG").is_ok();
    let mut last = std::time::Instant::now();
    let mut stage = |name: &str| {
        if debug {
            eprintln!("[flow] {name}: {:?}", last.elapsed());
            last = std::time::Instant::now();
        }
    };
    let mut findings = Vec::new();

    // ---- shared state: lexing, IR, lock registry, call graph ----
    let lexed: Vec<(&SourceFile, crate::lexer::Lexed)> =
        files.iter().map(|f| (f, lex(&f.text))).collect();

    let mut irs: Vec<FnIr> = Vec::new();
    let mut reg = LockRegistry::default();
    let mut default_fields = Vec::new();
    let mut stmt_idents: HashMap<String, Vec<String>> = HashMap::new();
    for (f, lx) in &lexed {
        let (regions, whole) = find_test_regions_pub(&lx.tokens);
        let path_test = is_test_path_pub(&f.path);
        let in_test =
            |line: u32| whole || path_test || regions.iter().any(|&(s, e)| line >= s && line <= e);
        if debug {
            eprintln!("[flow] file {}", f.path);
        }
        irs.extend(cfg::extract_fns(&f.path, lx, &in_test));
        locks::scan_creations(&f.path, lx, &mut reg, &mut default_fields);
        stmt_idents.extend(locks::creation_stmt_idents(&f.path, lx));
    }

    // Default-created lock fields share the vendored blanket-impl
    // creation sites; find those lines in the vendored source.
    let defaults = vendor_default_sites(&lexed);
    for (field, kind, _file) in &default_fields {
        let site = match kind {
            locks::LockKind::Mutex => defaults.mutex.clone(),
            locks::LockKind::RwLock => defaults.rwlock.clone(),
        };
        if let Some(site) = site {
            reg.add_default_field(site, *kind, field.clone());
        }
    }
    locks::tag_containers(&mut reg, &stmt_idents);

    stage("extract");
    let cg = CallGraph::build(&irs);
    let fn_lock_rets = callgraph::lock_returning_fns(&irs);
    let call_map = |ir: &FnIr, ev: &Ev| cg.resolve(ir, ev);

    // ---- static-lock-order: edges, cycles, lost guards ----
    let lock_sums = locks::lock_summaries(&irs, &reg, &fn_lock_rets, &call_map);
    stage("summaries");
    let mut graph = LockGraph {
        registry: LockRegistry::default(),
        ..Default::default()
    };
    let idx_of: HashMap<String, Vec<usize>> = HashMap::new();
    let mut edge_in_test: BTreeMap<(String, String), bool> = BTreeMap::new();
    for ir in &irs {
        locks::derive_edges(
            ir,
            &idx_of,
            &irs,
            &lock_sums,
            &reg,
            &fn_lock_rets,
            &call_map,
            &mut graph,
            &mut edge_in_test,
        );
    }
    stage("edges");
    locks::find_cycles(&mut graph, &edge_in_test);
    stage("cycles");

    for (file, line, recv) in &graph.unresolved {
        if is_test_path_pub(file) || file.starts_with("vendor/") {
            continue; // manufactured locks in tests/vendor self-tests
        }
        findings.push(Finding {
            file: file.clone(),
            line: *line,
            rule: Rule::StaticLockOrder,
            message: format!(
                "`.lock()` receiver `{recv}` resolves to no known lock class; \
                 the static lock-order analysis lost track of this guard"
            ),
        });
    }
    for (cycle, all_test) in &graph.cycles {
        if *all_test {
            continue; // deliberately inverted edges in test code
        }
        // Every `#[derive(Default)]`-created lock shares one class (the
        // vendored blanket impl's creation site — `default()` is not
        // `#[track_caller]`), exactly as the runtime witness keys them.
        // A cycle through that merged class usually conflates two
        // *different* locks (mover ops vs. rebalance pending), so it
        // does not fail the build; the runtime witness still fails any
        // such cycle it actually observes within one process.
        if cycle.iter().any(|s| s.starts_with(locks::VENDOR_LOT)) {
            continue;
        }
        let via = graph
            .edges
            .get(&(cycle[0].clone(), cycle[(1) % cycle.len()].clone()))
            .cloned()
            .unwrap_or_default();
        let (file, line) = split_site(&via);
        findings.push(Finding {
            file,
            line,
            rule: Rule::StaticLockOrder,
            message: format!(
                "static lock-order cycle: {} -> (back to start); acquire these \
                 classes in one global order",
                cycle.join(" -> ")
            ),
        });
    }

    // ---- blocking-under-lock ----
    let flow_sums = callgraph::flow_summaries(&irs, &cg, &cfg.blocking_fns, crate::EMIT_METHODS);
    for ir in &irs {
        if ir.is_test || ir.file.starts_with("vendor/") {
            continue;
        }
        blocking_under_lock(ir, &cg, &flow_sums, &reg, &fn_lock_rets, cfg, &mut findings);
    }

    // ---- context-propagation ----
    for (idx, ir) in irs.iter().enumerate() {
        if ir.is_test || ir.file.starts_with("vendor/") {
            continue;
        }
        context_propagation(ir, &flow_sums[idx], cfg, &mut findings);
    }

    stage("flow-passes");

    graph.registry = reg;
    FlowAnalysis { findings, graph }
}

/// The blanket `impl Default` creation sites inside the vendored
/// parking_lot: the unqualified `Mutex::new` / `RwLock::new` calls in
/// `vendor/parking_lot/src/lib.rs` (its inner std primitives are
/// `std::sync`-qualified, so they don't match).
fn vendor_default_sites(lexed: &[(&SourceFile, crate::lexer::Lexed)]) -> locks::DefaultSites {
    let mut out = locks::DefaultSites::default();
    for (f, lx) in lexed {
        if f.path != locks::VENDOR_LOT {
            continue;
        }
        let toks = &lx.tokens;
        for i in 0..toks.len() {
            let t = &toks[i];
            if t.kind != crate::lexer::TokKind::Ident {
                continue;
            }
            let qualified_std = i >= 3
                && toks[i - 1].is_punct(':')
                && toks[i - 2].is_punct(':')
                && toks[i - 3].is_ident("sync");
            if qualified_std
                || !(toks.get(i + 1).is_some_and(|x| x.is_punct(':'))
                    && toks.get(i + 3).is_some_and(|x| x.is_ident("new")))
            {
                continue;
            }
            let site = format!("{}:{}", f.path, t.line);
            if t.text == "Mutex" && out.mutex.is_none() {
                out.mutex = Some(site);
            } else if t.text == "RwLock" && out.rwlock.is_none() {
                out.rwlock = Some(site);
            }
        }
    }
    out
}

fn split_site(site: &str) -> (String, u32) {
    match site.rsplit_once(':') {
        Some((f, l)) => (f.to_string(), l.parse().unwrap_or(0)),
        None => (site.to_string(), 0),
    }
}

/// Replay guard liveness and flag calls that may sleep/park while a
/// guard is live (condvar waits release the guard they're handed).
fn blocking_under_lock(
    ir: &FnIr,
    cg: &CallGraph,
    flow_sums: &[callgraph::FlowSummary],
    reg: &LockRegistry,
    fn_lock_rets: &HashMap<String, Vec<String>>,
    cfg: &Config,
    findings: &mut Vec<Finding>,
) {
    struct Guard {
        binding: Option<String>,
        depth: u32,
        temp: bool,
        recv: String,
        line: u32,
    }
    let mut live: Vec<Guard> = Vec::new();
    // Conditionally-dropped guards (drop nested deeper than the
    // binding) revive when the enclosing block closes.
    let mut suspended: Vec<(u32, Guard)> = Vec::new();
    for ev in &ir.events {
        match ev {
            Ev::Acquire {
                recv,
                kind,
                line,
                binding,
                depth,
            } => {
                // Only receivers that resolve to a real lock class
                // count as guards (`file.read()` io noise does not).
                if locks::resolve_recv(reg, ir, fn_lock_rets, recv, *kind).is_empty() {
                    continue;
                }
                live.push(Guard {
                    binding: binding.clone(),
                    depth: *depth,
                    temp: binding.is_none(),
                    recv: recv.clone(),
                    line: *line,
                });
            }
            Ev::Drop { name, depth } => {
                let mut kept = Vec::with_capacity(live.len());
                for g in live.drain(..) {
                    if g.binding.as_deref() != Some(name) {
                        kept.push(g);
                    } else if g.depth < *depth {
                        suspended.push((*depth, g));
                    }
                }
                live = kept;
            }
            Ev::Stmt { depth } => live.retain(|g| !(g.temp && g.depth >= *depth)),
            Ev::Close { depth } => {
                live.retain(|g| g.depth < *depth);
                let mut still = Vec::with_capacity(suspended.len());
                for (d, g) in suspended.drain(..) {
                    if d >= *depth && g.depth < *depth {
                        live.push(g);
                    } else if g.depth < *depth {
                        still.push((d, g));
                    }
                }
                suspended = still;
            }
            Ev::Call {
                name, args, line, ..
            } => {
                if live.is_empty() {
                    continue;
                }
                let direct_block = cfg.blocking_fns.iter().any(|b| b == name);
                let transitive_block = !direct_block
                    && cg
                        .resolve(ir, ev)
                        .into_iter()
                        .any(|callee| flow_sums[callee].blocks);
                if !direct_block && !transitive_block {
                    continue;
                }
                let wait_call = name == "wait" || name == "wait_until";
                let held: Vec<&Guard> = live
                    .iter()
                    .filter(|g| {
                        !(wait_call
                            && g.binding
                                .as_deref()
                                .is_some_and(|b| args.iter().any(|a| a == b)))
                    })
                    .collect();
                if let Some(g) = held.first() {
                    findings.push(Finding {
                        file: ir.file.clone(),
                        line: *line,
                        rule: Rule::BlockingUnderLock,
                        message: format!(
                            "call to `{}` may sleep/park while the guard on `{}` \
                             (acquired line {}) is live; release the lock before \
                             blocking",
                            name, g.recv, g.line
                        ),
                    });
                }
            }
        }
    }
}

/// A fn that accepts a `Deadline`/`TraceCtx`/`CallPolicy` and
/// transitively reaches a sleep or emit site must actually use the ctx
/// it was handed.
fn context_propagation(
    ir: &FnIr,
    sum: &callgraph::FlowSummary,
    cfg: &Config,
    findings: &mut Vec<Finding>,
) {
    if !(sum.blocks || sum.emits) {
        return;
    }
    for p in &ir.params {
        let is_ctx = p.ty.iter().any(|t| cfg.ctx_types.iter().any(|c| c == t));
        if !is_ctx || p.name == "_" || p.name.starts_with('_') {
            continue;
        }
        if !ir.body_idents.contains(&p.name) {
            let ty =
                p.ty.iter()
                    .find(|t| cfg.ctx_types.iter().any(|c| c == *t))
                    .cloned()
                    .unwrap_or_default();
            findings.push(Finding {
                file: ir.file.clone(),
                line: ir.line,
                rule: Rule::ContextPropagation,
                message: format!(
                    "fn `{}` takes `{}: {}` and reaches a {} site but never uses \
                     the ctx; pass it through or drop the parameter",
                    ir.name,
                    p.name,
                    ty,
                    if sum.blocks { "sleep" } else { "emit" }
                ),
            });
        }
    }
}
