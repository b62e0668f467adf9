//! Stage 3 of the store traversal: the pushed-down predicate, applied
//! to one container's selection vector, sealed or open.
//!
//! A bound predicate is planned once per scan ([`PredPlan::new`]): split
//! into steps, and every step whose shape cannot error — exactly the
//! shapes [`analyzable`] accepts — compiled into a [`Kernel`], a small
//! program whose leaves read a container's typed vectors in place. A
//! step that can error (arithmetic, `LIKE`, `Neg`) is evaluated by
//! [`Expr::matches`] over a scratch row instead; that interpreter is
//! also what the differential tests hold the kernels to. Because a kernel never takes a shape that can error,
//! which error a scan reports, and at which row, is the interpreter's
//! alone.
//!
//! Either way a step walks the encoded column the same way ([`walk`]):
//! once per selected row of a plain column, once per touched run of an
//! RLE column, once per touched dictionary entry. What a step charges to
//! [`ScanCounters`] depends on that walk only, never on which of the two
//! evaluated it.

use std::cmp::Ordering;

use common::expr::BinaryOp;
use common::{Expr, Result, Row, Value};

use crate::storage::batch::{each_column_type, Bitmap, ColumnVec, Native, TypedVec};
use crate::storage::encoding::{ColumnData, EncodedColumn};
use crate::storage::stats::{analyzable, estimate_selectivity, flip, ContainerStats};
use crate::storage::store::ScanCounters;

/// Run `$body` with `$l` bound to what `$leaf` holds, whichever it is.
macro_rules! each_leaf {
    ($leaf:expr, $l:ident => $body:expr) => {
        match $leaf {
            Leaf::Fixed($l) => $body,
            Leaf::Bool($l) => $body,
            Leaf::Int($l) => $body,
            Leaf::IntFloat($l) => $body,
            Leaf::FloatInt($l) => $body,
            Leaf::Float($l) => $body,
            Leaf::Str($l) => $body,
            Leaf::IsNull($l) => $body,
            Leaf::Columns($l) => $body,
        }
    };
}

#[cfg(test)]
mod tests;

/// Per-scan predicate plan: the filter steps stage 3 applies to each
/// container's selection vector.
///
/// When the predicate is a conjunction of at least two provably
/// error-free ([`analyzable`]) conjuncts, each conjunct is its own step
/// — that is what makes evaluating them in any order, short-circuiting
/// on an empty selection, semantics-preserving. Otherwise the whole
/// predicate tree is the single step.
pub(super) struct PredPlan<'p> {
    steps: Vec<Step<'p>>,
    /// Where the interpreter reads a step's columns from: bound
    /// predicates only read the ordinals they reference, so the
    /// unreferenced positions stay NULL.
    scratch: Row,
}

struct Step<'p> {
    expr: &'p Expr,
    /// Referenced table ordinals, sorted.
    cols: Vec<usize>,
    /// `None` for a shape that can error.
    kernel: Option<Kernel<'p>>,
}

impl<'p> PredPlan<'p> {
    pub(super) fn new(pred: &'p Expr, allow_reorder: bool, column_count: usize) -> PredPlan<'p> {
        let mut parts: Vec<&Expr> = Vec::new();
        split_conjuncts(pred, &mut parts);
        if !(allow_reorder && parts.len() > 1 && parts.iter().all(|e| analyzable(e))) {
            parts = vec![pred];
        }
        let steps = parts
            .into_iter()
            .map(|expr| {
                let mut cols = Vec::new();
                expr.referenced_indices(&mut cols);
                cols.sort_unstable();
                let kernel = Kernel::compile(expr, &cols);
                debug_assert_eq!(kernel.is_some(), analyzable(expr));
                Step { expr, cols, kernel }
            })
            .collect();
        PredPlan {
            steps,
            scratch: Row::new(vec![Value::Null; column_count]),
        }
    }

    /// Narrow `sel` (ascending positions of one container) to the rows
    /// the predicate keeps, the steps most-selective-first by the
    /// container's zone maps (in textual order for an open container,
    /// which has none).
    pub(super) fn narrow<'s>(
        &mut self,
        columns: &[EncodedColumn],
        stats: impl Into<Option<&'s ContainerStats>>,
        sel: &mut Vec<u32>,
        n: &mut ScanCounters,
    ) -> Result<()> {
        for i in self.order_for(stats.into()) {
            self.steps[i].apply(columns, &mut self.scratch, sel, n)?;
            if sel.is_empty() {
                break;
            }
        }
        Ok(())
    }

    /// Step evaluation order for one container: most selective first
    /// (zone-map estimate), then fewest referenced columns, then
    /// textual order.
    fn order_for(&self, stats: Option<&ContainerStats>) -> Vec<usize> {
        let steps = &self.steps;
        let Some(stats) = stats.filter(|_| steps.len() > 1) else {
            return (0..steps.len()).collect();
        };
        let sel: Vec<f64> = steps
            .iter()
            .map(|s| estimate_selectivity(s.expr, stats))
            .collect();
        let mut order: Vec<usize> = (0..steps.len()).collect();
        order.sort_by(|&a, &b| {
            sel[a]
                .partial_cmp(&sel[b])
                .unwrap_or(Ordering::Equal)
                .then(steps[a].cols.len().cmp(&steps[b].cols.len()))
                .then(a.cmp(&b))
        });
        if order.iter().enumerate().any(|(i, &j)| i != j) {
            obs::global().add("planner.conjuncts_reordered", 1);
        }
        order
    }
}

fn split_conjuncts<'a>(e: &'a Expr, out: &mut Vec<&'a Expr>) {
    match e {
        Expr::Binary {
            left,
            op: BinaryOp::And,
            right,
        } => {
            split_conjuncts(left, out);
            split_conjuncts(right, out);
        }
        other => out.push(other),
    }
}

impl Step<'_> {
    /// Narrow `sel` by this step, dispatching on how many columns it
    /// references: none (decided once), one (walked in its encoding),
    /// several (gathered side by side).
    fn apply(
        &self,
        columns: &[EncodedColumn],
        scratch: &mut Row,
        sel: &mut Vec<u32>,
        n: &mut ScanCounters,
    ) -> Result<()> {
        match self.cols.as_slice() {
            [] => {
                // A step only reads the ordinals it references, so what
                // earlier steps left in the scratch row is invisible.
                let keep = match self.bind(&[]) {
                    Some((root, leaves)) => root.eval(&leaves, &|_| 0) == Some(true),
                    None => self.expr.matches(scratch)?,
                };
                if !keep {
                    sel.clear();
                }
                Ok(())
            }
            &[ci] => {
                let col = &columns[ci];
                let values = col.values();
                match self.bind(&[values]) {
                    Some((root, leaves)) => match (root, leaves.as_slice()) {
                        // One leaf: one dispatch on its types per
                        // container, and the walk is compiled around
                        // the comparison.
                        (Node::Leaf(_), [leaf]) => each_leaf!(leaf, l => {
                            walk(col, sel, n, |i| Ok(l.test(&|_| i) == Some(true)))
                        }),
                        _ => walk(
                            col,
                            sel,
                            n,
                            |i| Ok(root.eval(&leaves, &|_| i) == Some(true)),
                        ),
                    },
                    None => walk(col, sel, n, |i| {
                        scratch.set(ci, values.value(i));
                        self.expr.matches(scratch)
                    }),
                }
            }
            multi => {
                let positions = std::mem::take(sel);
                let located: Vec<_> = multi
                    .iter()
                    .map(|&ci| columns[ci].locate(&positions))
                    .collect();
                n.decoded += (located.len() * positions.len()) as u64;
                let values: Vec<&ColumnData> = located.iter().map(|(values, _)| *values).collect();
                match self.bind(&values) {
                    Some((root, leaves)) => keep_where(&positions, sel, |k| {
                        Ok(root.eval(&leaves, &|slot| located[slot].1[k] as usize) == Some(true))
                    }),
                    None => keep_where(&positions, sel, |k| {
                        for ((values, idx), &ci) in located.iter().zip(multi) {
                            scratch.set(ci, values.value(idx[k] as usize));
                        }
                        self.expr.matches(scratch)
                    }),
                }
            }
        }
    }

    /// The step's kernel over one container: its program and the leaves
    /// reading `values` (the unencoded values behind each referenced
    /// column, parallel to `cols`). `None` sends the step to the
    /// interpreter: it has no kernel.
    fn bind<'a>(&'a self, values: &[&'a ColumnData]) -> Option<(&'a Node, Vec<Leaf<'a>>)> {
        let kernel = self.kernel.as_ref();
        #[cfg(test)]
        let kernel = kernel.filter(|_| !probe::INTERPRET_ONLY.get());
        let bound = kernel.map(|kernel| {
            let leaves = kernel.leaves.iter().map(|l| l.bind(values)).collect();
            (&kernel.root, leaves)
        });
        #[cfg(test)]
        probe::tally(bound.is_some());
        bound
    }
}

/// Append to `sel` every position whose place `k` in `positions` `keep`
/// accepts, asking in order.
fn keep_where(
    positions: &[u32],
    sel: &mut Vec<u32>,
    mut keep: impl FnMut(usize) -> Result<bool>,
) -> Result<()> {
    for (k, &p) in positions.iter().enumerate() {
        if keep(k)? {
            sel.push(p);
        }
    }
    Ok(())
}

/// Narrow `sel` (ascending row positions of `col`) in place to the rows
/// whose value `keep` accepts, asking once per distinct stored value the
/// selection touches: `keep` takes an index into [`EncodedColumn::values`]
/// — the row of a plain column, the run of an RLE column (a rejected
/// run's rows are dropped wholesale and counted in `rows_skipped`), the
/// entry of a dictionary (memoised lazily, in row order). Asking in row
/// order is what makes the first error `keep` reports the one
/// row-at-a-time evaluation would have reported.
fn walk(
    col: &EncodedColumn,
    sel: &mut Vec<u32>,
    n: &mut ScanCounters,
    mut keep: impl FnMut(usize) -> Result<bool>,
) -> Result<()> {
    // `sel[..kept]` are the survivors so far. A row's position is
    // written there whether it survives or not (`kept` never passes the
    // row being read) and counted only if it does: whether a row passes
    // is often a coin toss, which a branch would mispredict.
    let mut kept = 0usize;
    match col {
        EncodedColumn::Plain(_) => {
            n.decoded += sel.len() as u64;
            for r in 0..sel.len() {
                let p = sel[r];
                let keep_row = keep(p as usize)?;
                sel[kept] = p;
                kept += keep_row as usize;
            }
        }
        EncodedColumn::Rle { lengths, .. } => {
            let mut i = 0usize; // cursor into sel
            let mut run_start = 0usize;
            for (run, len) in lengths.iter().enumerate() {
                if i == sel.len() {
                    break;
                }
                let run_end = run_start + *len as usize;
                let begin = i;
                while i < sel.len() && (sel[i] as usize) < run_end {
                    i += 1;
                }
                run_start = run_end;
                if begin == i {
                    continue; // no selected row in this run
                }
                n.decoded += 1;
                if keep(run)? {
                    sel.copy_within(begin..i, kept);
                    kept += i - begin;
                } else {
                    n.rows_skipped += (i - begin) as u64;
                }
            }
        }
        EncodedColumn::Dictionary { dict, codes } => {
            let mut memo: Vec<Option<bool>> = vec![None; dict.len()];
            for r in 0..sel.len() {
                let p = sel[r];
                let code = codes[p as usize] as usize;
                let keep_row = match memo[code] {
                    Some(k) => k,
                    None => {
                        n.decoded += 1;
                        let k = keep(code)?;
                        memo[code] = Some(k);
                        k
                    }
                };
                sel[kept] = p;
                kept += keep_row as usize;
            }
        }
    }
    sel.truncate(kept);
    Ok(())
}

// ---------------------------------------------------------------------
// Kernels
// ---------------------------------------------------------------------

/// One step compiled for evaluation on typed vectors: the boolean
/// structure as a tree over numbered leaves, under SQL's three-valued
/// logic (`None` is NULL; a row is kept on `Some(true)` only).
struct Kernel<'p> {
    root: Node,
    leaves: Vec<LeafSpec<'p>>,
}

enum Node {
    /// Index into the kernel's leaves.
    Leaf(usize),
    Not(Box<Node>),
    And(Box<Node>, Box<Node>),
    Or(Box<Node>, Box<Node>),
}

/// A leaf as the predicate states it. Columns are named by their place
/// among the step's referenced columns.
enum LeafSpec<'p> {
    Fixed(Option<bool>),
    /// `column <op> literal`, mirrored if need be so that the column is
    /// on the left.
    Cmp {
        slot: usize,
        keeps: Keeps,
        lit: &'p Value,
    },
    CmpColumns {
        left: usize,
        keeps: Keeps,
        right: usize,
    },
    /// `IS NULL`, or `IS NOT NULL` when `negated`.
    IsNull {
        slot: usize,
        negated: bool,
    },
}

impl<'p> Kernel<'p> {
    /// The kernel of `expr`, whose sorted referenced ordinals are
    /// `cols`; `None` unless `expr` is [`analyzable`].
    fn compile(expr: &'p Expr, cols: &[usize]) -> Option<Kernel<'p>> {
        let mut leaves = Vec::new();
        let root = compile_node(expr, cols, &mut leaves)?;
        Some(Kernel { root, leaves })
    }
}

fn compile_node<'p>(
    expr: &'p Expr,
    cols: &[usize],
    leaves: &mut Vec<LeafSpec<'p>>,
) -> Option<Node> {
    let slot = |ordinal: &usize| cols.binary_search(ordinal).ok();
    let both = |left: &'p Expr, right: &'p Expr, leaves: &mut Vec<LeafSpec<'p>>| {
        Some((
            Box::new(compile_node(left, cols, leaves)?),
            Box::new(compile_node(right, cols, leaves)?),
        ))
    };
    let leaf = match expr {
        Expr::Literal(Value::Boolean(b)) => LeafSpec::Fixed(Some(*b)),
        Expr::Literal(Value::Null) => LeafSpec::Fixed(None),
        Expr::IsNull(inner) | Expr::IsNotNull(inner) => {
            let negated = matches!(expr, Expr::IsNotNull(_));
            match &**inner {
                Expr::ColumnIdx(c) => LeafSpec::IsNull {
                    slot: slot(c)?,
                    negated,
                },
                Expr::Literal(v) => LeafSpec::Fixed(Some(v.is_null() != negated)),
                _ => return None,
            }
        }
        Expr::Not(inner) => return Some(Node::Not(Box::new(compile_node(inner, cols, leaves)?))),
        Expr::Binary { left, op, right } => match op {
            BinaryOp::And => {
                let (l, r) = both(left, right, leaves)?;
                return Some(Node::And(l, r));
            }
            BinaryOp::Or => {
                let (l, r) = both(left, right, leaves)?;
                return Some(Node::Or(l, r));
            }
            _ => {
                let keeps = Keeps::of(*op)?;
                match (&**left, &**right) {
                    (Expr::ColumnIdx(c), Expr::Literal(lit)) => LeafSpec::Cmp {
                        slot: slot(c)?,
                        keeps,
                        lit,
                    },
                    (Expr::Literal(lit), Expr::ColumnIdx(c)) => LeafSpec::Cmp {
                        slot: slot(c)?,
                        keeps: Keeps::of(flip(*op))?,
                        lit,
                    },
                    (Expr::ColumnIdx(a), Expr::ColumnIdx(b)) => LeafSpec::CmpColumns {
                        left: slot(a)?,
                        keeps,
                        right: slot(b)?,
                    },
                    (Expr::Literal(a), Expr::Literal(b)) => {
                        LeafSpec::Fixed(a.sql_cmp(b).and_then(|o| keeps.answer(outcome_of(o))))
                    }
                    _ => return None,
                }
            }
        },
        _ => return None,
    };
    leaves.push(leaf);
    Some(Node::Leaf(leaves.len() - 1))
}

impl Node {
    /// Kleene evaluation at one row; `at` maps a column slot to the
    /// index of the row's value in that column's bound vector.
    fn eval(&self, leaves: &[Leaf<'_>], at: &impl Fn(usize) -> usize) -> Option<bool> {
        match self {
            Node::Leaf(i) => each_leaf!(&leaves[*i], l => l.test(at)),
            Node::Not(e) => e.eval(leaves, at).map(|b| !b),
            Node::And(a, b) => match (a.eval(leaves, at), b.eval(leaves, at)) {
                (Some(false), _) | (_, Some(false)) => Some(false),
                (Some(true), Some(true)) => Some(true),
                _ => None,
            },
            Node::Or(a, b) => match (a.eval(leaves, at), b.eval(leaves, at)) {
                (Some(true), _) | (_, Some(true)) => Some(true),
                (Some(false), Some(false)) => Some(false),
                _ => None,
            },
        }
    }
}

/// How a comparison came out, as one bit: less, equal or greater. No
/// bit at all is SQL's NULL — the two do not compare.
const LT: u8 = 1;
const EQ: u8 = 2;
const GT: u8 = 4;

/// The outcome of comparing two values of one ordered type, computed
/// without a branch: which way a comparison of stored data goes is often
/// a coin toss. A NaN on either side sets no bit.
#[inline]
fn outcome<T: PartialOrd + ?Sized>(a: &T, b: &T) -> u8 {
    ((a < b) as u8 * LT) | ((a == b) as u8 * EQ) | ((a > b) as u8 * GT)
}

/// The outcome bit of an [`Ordering`].
#[inline]
fn outcome_of(ordering: Ordering) -> u8 {
    1 << (ordering as i8 + 1)
}

/// The outcomes a comparison operator keeps a row on.
#[derive(Clone, Copy)]
struct Keeps(u8);

impl Keeps {
    fn of(op: BinaryOp) -> Option<Keeps> {
        Some(Keeps(match op {
            BinaryOp::Lt => LT,
            BinaryOp::LtEq => LT | EQ,
            BinaryOp::Eq => EQ,
            BinaryOp::GtEq => GT | EQ,
            BinaryOp::Gt => GT,
            BinaryOp::NotEq => LT | GT,
            _ => return None,
        }))
    }

    /// The comparison's value for `outcome`: NULL when the operands did
    /// not compare.
    #[inline]
    fn answer(self, outcome: u8) -> Option<bool> {
        (outcome != 0).then_some(self.0 & outcome != 0)
    }
}

/// [`Value::sql_cmp`] restated on the native types: two `Int64`s compare
/// as integers, every other numeric pair as `f64` (so a NaN compares
/// with nothing, and an `i64` beyond 2⁵³ rounds before it meets a
/// float), booleans and strings with their own kind. The pairs with no
/// implementation are the ones `sql_cmp` answers NULL for.
trait SqlOrd<Other: ?Sized> {
    /// One of `LT`, `EQ`, `GT`, or `0` for NULL.
    fn sql_ord(&self, other: &Other) -> u8;
}

impl SqlOrd<bool> for bool {
    #[inline]
    fn sql_ord(&self, other: &bool) -> u8 {
        outcome(self, other)
    }
}

impl SqlOrd<i64> for i64 {
    #[inline]
    fn sql_ord(&self, other: &i64) -> u8 {
        outcome(self, other)
    }
}

impl SqlOrd<f64> for i64 {
    #[inline]
    fn sql_ord(&self, other: &f64) -> u8 {
        outcome(&(*self as f64), other)
    }
}

impl SqlOrd<i64> for f64 {
    #[inline]
    fn sql_ord(&self, other: &i64) -> u8 {
        outcome(self, &(*other as f64))
    }
}

impl SqlOrd<f64> for f64 {
    #[inline]
    fn sql_ord(&self, other: &f64) -> u8 {
        outcome(self, other)
    }
}

impl SqlOrd<str> for String {
    #[inline]
    fn sql_ord(&self, other: &str) -> u8 {
        // One pass over the bytes, not three.
        outcome_of(self.as_str().cmp(other))
    }
}

/// A [`LeafSpec`] bound to one container's vectors. Every variant
/// answers `test(at)`; [`each_leaf!`] is the one dispatch on which.
enum Leaf<'a> {
    Fixed(Fixed),
    Bool(Cmp<'a, bool, bool>),
    Int(Cmp<'a, i64, i64>),
    IntFloat(Cmp<'a, i64, f64>),
    FloatInt(Cmp<'a, f64, i64>),
    Float(Cmp<'a, f64, f64>),
    Str(Cmp<'a, String, str>),
    IsNull(IsNull<'a>),
    Columns(CmpColumns<'a>),
}

impl<'a> LeafSpec<'a> {
    /// The leaf over `values` (one per column slot).
    fn bind(&self, values: &[&'a ColumnData]) -> Leaf<'a> {
        let typed = |slot: usize| &values[slot].0;
        match self {
            LeafSpec::Fixed(answer) => Leaf::Fixed(Fixed(*answer)),
            LeafSpec::Cmp { slot, keeps, lit } => {
                let (slot, keeps) = (*slot, *keeps);
                match (typed(slot), *lit) {
                    (ColumnVec::Boolean(v), Value::Boolean(lit)) => {
                        Leaf::Bool(Cmp::new(slot, v, lit, keeps))
                    }
                    (ColumnVec::Int64(v), Value::Int64(lit)) => {
                        Leaf::Int(Cmp::new(slot, v, lit, keeps))
                    }
                    (ColumnVec::Int64(v), Value::Float64(lit)) => {
                        Leaf::IntFloat(Cmp::new(slot, v, lit, keeps))
                    }
                    (ColumnVec::Float64(v), Value::Int64(lit)) => {
                        Leaf::FloatInt(Cmp::new(slot, v, lit, keeps))
                    }
                    (ColumnVec::Float64(v), Value::Float64(lit)) => {
                        Leaf::Float(Cmp::new(slot, v, lit, keeps))
                    }
                    (ColumnVec::Varchar(v), Value::Varchar(lit)) => {
                        Leaf::Str(Cmp::new(slot, v, lit.as_str(), keeps))
                    }
                    // A NULL literal, or one of another type class than
                    // the column: NULL on every row.
                    _ => Leaf::Fixed(Fixed(None)),
                }
            }
            LeafSpec::CmpColumns { left, keeps, right } => Leaf::Columns(CmpColumns {
                left: (*left, typed(*left)),
                right: (*right, typed(*right)),
                keeps: *keeps,
            }),
            LeafSpec::IsNull { slot, negated } => Leaf::IsNull(IsNull {
                slot: *slot,
                validity: each_column_type!(typed(*slot), v => v.parts().1),
                negated: *negated,
            }),
        }
    }
}

/// The same answer on every row.
struct Fixed(Option<bool>);

impl Fixed {
    #[inline]
    fn test(&self, _at: &impl Fn(usize) -> usize) -> Option<bool> {
        self.0
    }
}

/// `column <op> literal` over the column's native values.
struct Cmp<'a, T, L: ?Sized> {
    slot: usize,
    data: &'a [T],
    /// `None` when the column holds no NULL.
    validity: Option<&'a Bitmap>,
    lit: &'a L,
    keeps: Keeps,
}

impl<'a, T: Native + SqlOrd<L>, L: ?Sized> Cmp<'a, T, L> {
    fn new(slot: usize, col: &'a TypedVec<T>, lit: &'a L, keeps: Keeps) -> Cmp<'a, T, L> {
        let (data, validity) = col.parts();
        Cmp {
            slot,
            data,
            validity,
            lit,
            keeps,
        }
    }

    #[inline]
    fn test(&self, at: &impl Fn(usize) -> usize) -> Option<bool> {
        let i = at(self.slot);
        if self.validity.is_some_and(|valid| !valid.get(i)) {
            return None;
        }
        self.keeps.answer(self.data[i].sql_ord(self.lit))
    }
}

struct IsNull<'a> {
    slot: usize,
    /// `None` when the column holds no NULL.
    validity: Option<&'a Bitmap>,
    negated: bool,
}

impl IsNull<'_> {
    #[inline]
    fn test(&self, at: &impl Fn(usize) -> usize) -> Option<bool> {
        let null = self.validity.is_some_and(|valid| !valid.get(at(self.slot)));
        Some(null != self.negated)
    }
}

/// `column <op> column`: no literal to specialise on, so the pair of
/// types is looked at row by row.
struct CmpColumns<'a> {
    left: (usize, &'a ColumnVec),
    right: (usize, &'a ColumnVec),
    keeps: Keeps,
}

impl CmpColumns<'_> {
    fn test(&self, at: &impl Fn(usize) -> usize) -> Option<bool> {
        use ColumnVec::{Boolean, Float64, Int64, Varchar};
        let (i, j) = (at(self.left.0), at(self.right.0));
        let outcome = match (self.left.1, self.right.1) {
            (Boolean(a), Boolean(b)) => a.get(i)?.sql_ord(b.get(j)?),
            (Int64(a), Int64(b)) => a.get(i)?.sql_ord(b.get(j)?),
            (Int64(a), Float64(b)) => a.get(i)?.sql_ord(b.get(j)?),
            (Float64(a), Int64(b)) => a.get(i)?.sql_ord(b.get(j)?),
            (Float64(a), Float64(b)) => a.get(i)?.sql_ord(b.get(j)?),
            (Varchar(a), Varchar(b)) => a.get(i)?.sql_ord(b.get(j)?.as_str()),
            _ => 0,
        };
        self.keeps.answer(outcome)
    }
}

/// What the differential test turns and reads: which evaluator ran.
#[cfg(test)]
pub(crate) mod probe {
    use std::cell::Cell;

    thread_local! {
        /// Send every step of this thread's scans to the interpreter.
        pub(crate) static INTERPRET_ONLY: Cell<bool> = const { Cell::new(false) };
        /// Step applications on this thread, `(kernel, interpreter)`.
        pub(crate) static APPLIED: Cell<(u64, u64)> = const { Cell::new((0, 0)) };
    }

    pub(super) fn tally(kernel: bool) {
        let (k, i) = APPLIED.get();
        APPLIED.set((k + kernel as u64, i + !kernel as u64));
    }
}
