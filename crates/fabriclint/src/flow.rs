//! The flow-sensitive passes: static-lock-order, blocking-under-lock,
//! context-propagation. One entry point builds the shared
//! IR/call-graph/lock-registry state and runs everything, returning
//! findings (fed through the normal allow machinery by `lint_files`)
//! and the static lock graph (used by the `--lock-graph` diff mode and
//! the in-tree subgraph tests).

use std::collections::HashMap;

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
    let mut findings = Vec::new();

    // ---- shared state: lexing, IR, lock registry, call graph ----
    let lexed: Vec<(&SourceFile, crate::lexer::Lexed)> =
        files.iter().map(|f| (f, lex(&f.text))).collect();

    let mut irs: Vec<FnIr> = Vec::new();
    let mut reg = LockRegistry::default();
    let mut table: Option<Vec<String>> = None;
    for (f, lx) in &lexed {
        let (regions, whole) = find_test_regions_pub(&lx.tokens);
        let path_test = is_test_path_pub(&f.path);
        let in_test =
            |line: u32| whole || path_test || regions.iter().any(|&(s, e)| line >= s && line <= e);
        irs.extend(cfg::extract_fns(&f.path, lx, &in_test));
        locks::scan_creations(&f.path, lx, &in_test, &mut reg);
        if table.is_none() {
            table = locks::parse_lock_table(lx);
        }
    }
    locks::tag_containers(&mut reg);
    let rank: HashMap<String, usize> = table
        .unwrap_or_default()
        .into_iter()
        .enumerate()
        .map(|(i, name)| (name, i))
        .collect();

    let cg = CallGraph::build(&irs);
    let fn_lock_rets = callgraph::lock_returning_fns(&irs);
    let call_map = |ir: &FnIr, ev: &Ev| cg.resolve(ir, ev);

    // ---- static-lock-order: undeclared classes, edges, lost guards ----
    for class in &reg.classes {
        if rank.contains_key(&class.name) {
            continue;
        }
        for site in class.sites.iter().filter(|s| !s.test) {
            findings.push(Finding {
                file: site.file.clone(),
                line: site.line,
                rule: Rule::StaticLockOrder,
                message: format!(
                    "lock class `{}` is not a row of the `locks!` table in \
                     common::locks; declare it there, at its rank",
                    class.name
                ),
            });
        }
    }
    let lock_sums = locks::lock_summaries(&irs, &reg, &fn_lock_rets, &call_map);
    let mut graph = LockGraph::default();
    for ir in &irs {
        locks::derive_edges(ir, &lock_sums, &reg, &fn_lock_rets, &call_map, &mut graph);
    }

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
    // Every cycle between classes contains an edge that goes up the
    // table, so one rank comparison per edge finds them all.
    for ((from, to), via) in &graph.edges {
        let (Some(&held), Some(&taken)) = (rank.get(from), rank.get(to)) else {
            continue; // a test's own classes
        };
        if held <= taken || via.test_only {
            continue;
        }
        let (file, line) = split_site(&via.site);
        findings.push(Finding {
            file,
            line,
            rule: Rule::StaticLockOrder,
            message: format!(
                "lock-order inversion: `{to}` (rank {taken}) acquired while `{from}` \
                 (rank {held}) may be held; take classes in `locks!` table order"
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

    graph.registry = reg;
    FlowAnalysis { findings, graph }
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
