//! Static lock classes and the static lock-order graph.
//!
//! Every lock is created with a declared class, one row of the `locks!`
//! table in `common::locks` (`Mutex::new(&locks::CATALOG, ..)`), and a
//! row's position is its rank. The pass reads a creation's class from
//! its first argument: the name the runtime witness keys on too, so
//! static and witnessed edges share one namespace and diff directly. A
//! creation with no class argument is a `std::sync` lock, which the
//! witness does not see either; it is skipped.
//!
//! Resolution from an acquisition's receiver name to classes is a
//! name-keyed over-approximation: same-file creations win when they
//! exist, otherwise every same-named creation in the workspace
//! matches, filtered by kind (`.lock()` ⇒ Mutex, `.read()`/`.write()`
//! ⇒ RwLock). Let-init and closure-param aliases resolve guards bound
//! through map-element chains (`.map(|h| h.lock())`).

use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet};

use crate::cfg::{AcqKind, Ev, FnIr};
use crate::lexer::{Lexed, Tok, TokKind};

/// Which primitive a class wraps (resolution kind filter).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LockKind {
    Mutex,
    RwLock,
}

/// Where a lock of a class is created.
#[derive(Debug, Clone)]
pub struct Site {
    pub file: String,
    pub line: u32,
    /// In test code: exempt from the table check.
    pub test: bool,
}

#[derive(Debug, Clone)]
pub struct LockClass {
    /// The declared class: a `locks!` row, and the witness's key.
    pub name: String,
    pub kind: LockKind,
    /// Names this class answers to (field/let bindings).
    pub names: Vec<String>,
    /// Lock-container bindings mentioned in the creation statement
    /// (element locks: the Mutex inside `timers`' map is tagged
    /// "timers" so `.map(|h| h.lock())` chains resolve).
    pub containers: Vec<String>,
    /// The identifiers before a creation that inserts into a
    /// container, from which [`tag_containers`] picks the containers.
    stmt_idents: Vec<String>,
    pub sites: Vec<Site>,
}

pub type ClassId = usize;

#[derive(Debug, Default)]
pub struct LockRegistry {
    pub classes: Vec<LockClass>,
    by_name: HashMap<String, Vec<ClassId>>,
    by_container: HashMap<String, Vec<ClassId>>,
}

impl LockRegistry {
    /// Register one creation, merging it into its class.
    fn add(&mut self, creation: LockClass) {
        let Some(id) = self.classes.iter().position(|c| c.name == creation.name) else {
            for n in &creation.names {
                self.by_name
                    .entry(n.clone())
                    .or_default()
                    .push(self.classes.len());
            }
            self.classes.push(creation);
            return;
        };
        let class = &mut self.classes[id];
        for n in creation.names {
            if !class.names.contains(&n) {
                class.names.push(n.clone());
                self.by_name.entry(n).or_default().push(id);
            }
        }
        class.stmt_idents.extend(creation.stmt_idents);
        class.sites.extend(creation.sites);
    }

    fn kind_ok(&self, id: ClassId, acq: AcqKind) -> bool {
        match acq {
            AcqKind::Lock => self.classes[id].kind == LockKind::Mutex,
            AcqKind::Read | AcqKind::Write => self.classes[id].kind == LockKind::RwLock,
        }
    }

    /// Classes named `name`, kind-filtered; same-file creations narrow
    /// the set when any exist.
    pub fn resolve_name(&self, name: &str, file: &str, acq: AcqKind) -> Vec<ClassId> {
        let Some(ids) = self.by_name.get(name) else {
            return Vec::new();
        };
        let kinded: Vec<ClassId> = ids
            .iter()
            .copied()
            .filter(|&id| self.kind_ok(id, acq))
            .collect();
        let same_file: Vec<ClassId> = kinded
            .iter()
            .copied()
            .filter(|&id| self.classes[id].sites.iter().any(|s| s.file == file))
            .collect();
        if !same_file.is_empty() {
            same_file
        } else {
            kinded
        }
    }

    /// Element classes whose creation statement mentioned container
    /// binding `name` (kind-filtered).
    pub fn resolve_container(&self, name: &str, acq: AcqKind) -> Vec<ClassId> {
        self.by_container
            .get(name)
            .map(|ids| {
                ids.iter()
                    .copied()
                    .filter(|&id| self.kind_ok(id, acq))
                    .collect()
            })
            .unwrap_or_default()
    }
}

/// The class names of the `locks!` table, in rank order: the rows
/// `IDENT: "what it guards";` of the first `locks! { .. }` in `lexed`.
pub fn parse_lock_table(lexed: &Lexed) -> Option<Vec<String>> {
    let rows = crate::table_rows(&lexed.tokens, "locks")?
        .filter_map(|row| match row {
            [ident, colon, ..] if ident.kind == TokKind::Ident && colon.is_punct(':') => {
                Some(ident.text.clone())
            }
            _ => None,
        })
        .collect();
    Some(rows)
}

/// The class a creation's argument list (from the token after its
/// `(`) names: `&path::IDENT` followed by `,`. A `std::sync` creation
/// has no class argument.
fn class_arg(toks: &[Tok], at: usize) -> Option<String> {
    if !toks.get(at)?.is_punct('&') {
        return None;
    }
    let mut k = at + 1;
    loop {
        let t = toks.get(k)?;
        if t.kind != TokKind::Ident {
            return None;
        }
        if toks.get(k + 1)?.is_punct(':') && toks.get(k + 2)?.is_punct(':') {
            k += 3;
            continue;
        }
        return toks.get(k + 1)?.is_punct(',').then(|| t.text.clone());
    }
}

/// Scan one file for the creations of classed locks.
pub fn scan_creations(
    path: &str,
    lexed: &Lexed,
    in_test: &dyn Fn(u32) -> bool,
    reg: &mut LockRegistry,
) {
    const INSERT_METHODS: &[&str] = &["or_insert_with", "or_insert", "insert", "push", "entry"];
    let toks = &lexed.tokens;
    // Statement context for binding inference: the nearest `let` name
    // and pending `field:` bindings, and the receiver chain before an
    // element creation (container tagging, resolved later).
    let mut stmt_start = 0usize;
    for i in 0..toks.len() {
        let t = &toks[i];
        if t.is_punct(';') {
            stmt_start = i + 1;
        }
        let kind = match t.text.as_str() {
            "Mutex" => LockKind::Mutex,
            "RwLock" => LockKind::RwLock,
            _ => continue,
        };
        if t.kind != TokKind::Ident
            || !(toks.get(i + 1).is_some_and(|x| x.is_punct(':'))
                && toks.get(i + 2).is_some_and(|x| x.is_punct(':'))
                && toks.get(i + 3).is_some_and(|x| x.is_ident("new"))
                && toks.get(i + 4).is_some_and(|x| x.is_punct('(')))
        {
            continue;
        }
        let Some(name) = class_arg(toks, i + 5) else {
            continue;
        };
        let prefix: Vec<String> = toks[stmt_start..i]
            .iter()
            .filter(|x| x.kind == TokKind::Ident)
            .map(|x| x.text.clone())
            .collect();
        let inserts = prefix.iter().any(|p| INSERT_METHODS.contains(&p.as_str()));
        reg.add(LockClass {
            name,
            kind,
            names: binding_names(toks, stmt_start, i),
            containers: Vec::new(),
            stmt_idents: if inserts { prefix } else { Vec::new() },
            sites: vec![Site {
                file: path.to_string(),
                line: t.line,
                test: in_test(t.line),
            }],
        });
    }
}

/// Binding names for the creation at `at`: the innermost pending
/// `ident :` (struct-literal field init or let with type annotation)
/// plus the nearest `let` name in the statement slice.
fn binding_names(toks: &[Tok], stmt_start: usize, at: usize) -> Vec<String> {
    let mut names = Vec::new();
    // Walk back from the creation looking for `ident :` at shallower
    // delimiter depth (field init like `commit_lock: Mutex::new(..)`,
    // or `stores: RwLock::new(..)`), skipping over closed delimiters.
    let mut depth = 0i32;
    let mut k = at;
    while k > stmt_start {
        k -= 1;
        let t = &toks[k];
        if t.is_punct(')') || t.is_punct(']') || t.is_punct('}') {
            depth += 1;
        } else if t.is_punct('(') || t.is_punct('[') || t.is_punct('{') {
            depth -= 1;
        } else if depth <= 0
            && t.is_punct(':')
            && k > 0
            && toks[k - 1].kind == TokKind::Ident
            && !toks.get(k + 1).is_some_and(|n| n.is_punct(':'))
            && !toks[k - 1].is_ident("mut")
        {
            // Skip `::` path separators (second `:` right before).
            if !(k >= 2 && toks[k - 2].is_punct(':')) {
                names.push(toks[k - 1].text.clone());
                break;
            }
        } else if depth <= 0 && t.is_ident("let") {
            break;
        }
    }
    // The statement's `let` binding, if any.
    let mut j = stmt_start;
    while j < at {
        if toks[j].is_ident("let") {
            let mut w = j + 1;
            while w < at && toks[w].is_ident("mut") {
                w += 1;
            }
            if w < at && toks[w].kind == TokKind::Ident {
                let n = toks[w].text.clone();
                if !names.contains(&n) {
                    names.push(n);
                }
            }
        }
        j += 1;
    }
    names
}

/// Tag element classes with their containers: a creation whose
/// receiver chain inserts into another lock binding (`timers`,
/// `histos`, …) is an element of that container. Runs after all
/// creations are known. Only a chain with an insertion method
/// (`entry(..).or_insert_with(..)`, `insert`, `push`) counts: a struct
/// literal mentions every other field's lock in the same "statement",
/// so tagging on mere co-occurrence would make every field look like an
/// element of every other (phantom static edges between unrelated
/// locks).
pub fn tag_containers(reg: &mut LockRegistry) {
    let lock_names: HashSet<String> = reg.by_name.keys().cloned().collect();
    for id in 0..reg.classes.len() {
        let class = &mut reg.classes[id];
        for ident in &class.stmt_idents {
            if lock_names.contains(ident)
                && !class.names.contains(ident)
                && !class.containers.contains(ident)
            {
                class.containers.push(ident.clone());
                reg.by_container.entry(ident.clone()).or_default().push(id);
            }
        }
    }
}

// ---------------------------------------------------------------------
// Static graph
// ---------------------------------------------------------------------

/// Where a static lock-order edge was derived: the `file:line` of an
/// acquisition or call that induced it, product code preferred.
#[derive(Debug, Clone)]
pub struct Via {
    pub site: String,
    /// Every acquisition or call inducing the edge is in test code.
    pub test_only: bool,
}

#[derive(Debug, Default)]
pub struct LockGraph {
    pub registry: LockRegistry,
    /// Deduped edges keyed (from-class, to-class): a guard of `from`
    /// was (possibly transitively) live while `to` was acquired.
    pub edges: BTreeMap<(String, String), Via>,
    /// Receivers of `.lock()` that resolved to no class (analysis
    /// lost a guard) — (file, line, receiver).
    pub unresolved: Vec<(String, u32, String)>,
}

impl LockGraph {
    pub fn has_edge(&self, from: &str, to: &str) -> bool {
        self.edges.contains_key(&(from.to_string(), to.to_string()))
    }

    /// The witness's text format: `from\tto` per line, sorted.
    pub fn edges_text(&self) -> String {
        self.edges
            .keys()
            .map(|(from, to)| format!("{from}\t{to}\n"))
            .collect()
    }
}

/// A guard inferred live during replay.
#[derive(Debug, Clone)]
struct LiveGuard {
    classes: Vec<ClassId>,
    binding: Option<String>,
    depth: u32,
    /// Bound guards survive statement ends; temporaries do not.
    temp: bool,
}

/// Per-function summary used interprocedurally: the classes a call to
/// this function may acquire (transitively).
#[derive(Debug, Default, Clone)]
pub struct FnLockSummary {
    pub acquires: BTreeSet<ClassId>,
}

/// Resolve an acquisition receiver to classes using every alias layer.
pub fn resolve_recv(
    reg: &LockRegistry,
    ir: &FnIr,
    fn_lock_rets: &HashMap<String, Vec<String>>,
    recv: &str,
    acq: AcqKind,
) -> Vec<ClassId> {
    let direct = reg.resolve_name(recv, &ir.file, acq);
    if !direct.is_empty() {
        return direct;
    }
    // Let-init alias: `let timer = { .. Mutex::new(..) .. }` — the
    // init's idents include creation-statement context; resolve any
    // lock-ish ident in the init through name/container maps.
    for (name, idents, line) in &ir.let_inits {
        if name == recv {
            let mut out = Vec::new();
            // A creation inside the init binds directly: classes
            // created in this file near the init line get priority.
            if idents.iter().any(|i| i == "new")
                && idents.iter().any(|i| i == "Mutex" || i == "RwLock")
            {
                for (id, class) in reg.classes.iter().enumerate() {
                    if reg.kind_ok(id, acq)
                        && class
                            .sites
                            .iter()
                            .any(|s| s.file == ir.file && s.line >= *line && s.line <= line + 30)
                    {
                        out.push(id);
                    }
                }
            }
            if !out.is_empty() {
                return out;
            }
            for ident in idents {
                for id in reg.resolve_container(ident, acq) {
                    if !out.contains(&id) {
                        out.push(id);
                    }
                }
            }
            if !out.is_empty() {
                return out;
            }
        }
    }
    // Closure-param / for-loop alias: `.map(|h| h.lock())` or
    // `for shard in &self.shards` — resolve through the chain idents.
    // Containers first (element classes), then direct names with the
    // kind filter (`for shard in &self.shards` + `shard.lock()` hits
    // the `shards` element class itself).
    for (param, chain) in &ir.closure_aliases {
        if param == recv {
            let mut out = Vec::new();
            for ident in chain {
                for id in reg.resolve_container(ident, acq) {
                    if !out.contains(&id) {
                        out.push(id);
                    }
                }
            }
            if out.is_empty() {
                for ident in chain {
                    for id in reg.resolve_name(ident, &ir.file, acq) {
                        if !out.contains(&id) {
                            out.push(id);
                        }
                    }
                }
            }
            if !out.is_empty() {
                return out;
            }
        }
    }
    // Fn-returning-lock alias: `self.node(i).lock()` where
    // `fn node(..) -> &Mutex<..>` — resolve through the fn's body locks.
    if let Some(names) = fn_lock_rets.get(recv) {
        let mut out = Vec::new();
        for n in names {
            for id in reg.resolve_name(n, &ir.file, acq) {
                if !out.contains(&id) {
                    out.push(id);
                }
            }
            for id in reg.resolve_container(n, acq) {
                if !out.contains(&id) {
                    out.push(id);
                }
            }
        }
        out
    } else {
        Vec::new()
    }
}

/// Fixpoint over the call graph: which classes can each function
/// (transitively) acquire? `call_map` resolves a Call event to
/// candidate function indices.
pub fn lock_summaries(
    irs: &[FnIr],
    reg: &LockRegistry,
    fn_lock_rets: &HashMap<String, Vec<String>>,
    call_map: &dyn Fn(&FnIr, &Ev) -> Vec<usize>,
) -> Vec<FnLockSummary> {
    let mut sums: Vec<FnLockSummary> = vec![FnLockSummary::default(); irs.len()];
    // Seed with direct acquisitions.
    for (idx, ir) in irs.iter().enumerate() {
        for ev in &ir.events {
            if let Ev::Acquire { recv, kind, .. } = ev {
                for id in resolve_recv(reg, ir, fn_lock_rets, recv, *kind) {
                    sums[idx].acquires.insert(id);
                }
            }
        }
    }
    // Propagate through calls to fixpoint.
    loop {
        let mut changed = false;
        for (idx, ir) in irs.iter().enumerate() {
            let mut add: BTreeSet<ClassId> = BTreeSet::new();
            for ev in &ir.events {
                if matches!(ev, Ev::Call { .. }) {
                    for callee in call_map(ir, ev) {
                        for &id in &sums[callee].acquires {
                            if !sums[idx].acquires.contains(&id) {
                                add.insert(id);
                            }
                        }
                    }
                }
            }
            if !add.is_empty() {
                sums[idx].acquires.extend(add);
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }
    sums
}

/// Record `from → to` as derived at `site`.
fn add_edge(
    graph: &mut LockGraph,
    reg: &LockRegistry,
    from: ClassId,
    to: ClassId,
    ir: &FnIr,
    site: &str,
) {
    let key = (reg.classes[from].name.clone(), reg.classes[to].name.clone());
    let via = graph.edges.entry(key).or_insert_with(|| Via {
        site: site.to_string(),
        test_only: true,
    });
    if via.test_only && !ir.is_test {
        *via = Via {
            site: site.to_string(),
            test_only: false,
        };
    }
}

/// Replay one function's events deriving edges: every class acquired
/// (directly or via a call's summary) while guards are live yields an
/// edge from each live guard's classes. Self-edges (same class) are
/// recorded like the witness records re-acquisition of a class; having
/// one rank, they never go against it.
pub fn derive_edges(
    ir: &FnIr,
    sums: &[FnLockSummary],
    reg: &LockRegistry,
    fn_lock_rets: &HashMap<String, Vec<String>>,
    call_map: &dyn Fn(&FnIr, &Ev) -> Vec<usize>,
    graph: &mut LockGraph,
) {
    let mut live: Vec<LiveGuard> = Vec::new();
    // Guards dropped inside a nested block (conditional drop): revived
    // when that block closes, since the untaken branch keeps them.
    let mut suspended: Vec<(u32, LiveGuard)> = Vec::new();
    for ev in &ir.events {
        match ev {
            Ev::Acquire {
                recv,
                kind,
                line,
                binding,
                depth,
            } => {
                let classes = resolve_recv(reg, ir, fn_lock_rets, recv, *kind);
                if classes.is_empty() {
                    if *kind == AcqKind::Lock {
                        graph
                            .unresolved
                            .push((ir.file.clone(), *line, recv.clone()));
                    }
                    continue;
                }
                let via = format!("{}:{}", ir.file, line);
                for g in &live {
                    for &from in &g.classes {
                        for &to in &classes {
                            add_edge(graph, reg, from, to, ir, &via);
                        }
                    }
                }
                live.push(LiveGuard {
                    classes,
                    binding: binding.clone(),
                    depth: *depth,
                    temp: binding.is_none(),
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
            Ev::Stmt { depth } => {
                live.retain(|g| !(g.temp && g.depth >= *depth));
            }
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
                // Condvar waits release the guard passed by `&mut`.
                let wait_call = name == "wait" || name == "wait_until";
                let mut acquired: BTreeSet<ClassId> = BTreeSet::new();
                for callee in call_map(ir, ev) {
                    acquired.extend(sums[callee].acquires.iter().copied());
                }
                if acquired.is_empty() {
                    continue;
                }
                let via = format!("{}:{}", ir.file, line);
                for g in &live {
                    if wait_call
                        && g.binding
                            .as_deref()
                            .is_some_and(|b| args.iter().any(|a| a == b))
                    {
                        continue;
                    }
                    for &from in &g.classes {
                        for &to in &acquired {
                            add_edge(graph, reg, from, to, ir, &via);
                        }
                    }
                }
            }
        }
    }
}
