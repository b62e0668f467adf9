//! The node-side aggregate fold: one container's survivors into
//! per-group partial accumulators, a column at a time.
//!
//! Two steps per container. First every survivor gets a `u32` group
//! *slot*. A single key column is read as codes — a dictionary's codes
//! in place, an RLE run or a plain column's row through
//! [`EncodedColumn::locate`] — that a code → slot table maps to slots. A
//! dictionary's entries are looked up in the [`GroupedAccs`] first; when
//! one has no group yet, the survivors are walked in row order and a
//! key [`Value`] is built and the groups probed the first time a code
//! shows up, so groups keep their first-seen order. A survivor's slot is
//! then one table read, with no branch. Then one pass per aggregate call
//! walks `(slots, values, index)` with the call's state per slot, read
//! out of the [`Acc`]s before the pass and written back after it: what
//! is dispatched (the call, the column's type, its validity bitmap) is
//! matched once per container, never per survivor.
//!
//! `COUNT(*)` and a `SUM` over a BIGINT or FLOAT column run typed passes
//! into native per-slot accumulators that keep [`Acc::update`]'s
//! semantics bit for bit: a survivor adds to its group in survivor
//! order, an empty state takes its first input as-is (a `-0.0` keeps its
//! sign, a NaN its payload) and an integer sum wraps. Every other call
//! runs [`Acc::update`] itself per survivor. A `SUM` or `AVG` over a
//! BOOLEAN or VARCHAR column fails with the error the row fold raised,
//! at the first non-null survivor of any such call (call order breaks a
//! tie), before anything is folded.

use std::borrow::Cow;

use common::agg::{Acc, AggFunc, GroupedAccs};
use common::{Result, Value};

use crate::storage::batch::{each_column_type, ColumnVec, Native, TypedVec};
use crate::storage::encoding::{ColumnData, EncodedColumn};

/// One column's survivors: the values behind its encoding and an index
/// into them per survivor ([`EncodedColumn::locate`]).
type Located<'a> = (&'a ColumnData, Cow<'a, [u32]>);

/// Fold the survivors `sel` (ascending) of a container's `columns` into
/// `accs`: `funcs` are the calls with their input ordinals (`None` =
/// `COUNT(*)`), `group_by` the key ordinals, `needed` every ordinal
/// either reads (sorted, deduplicated). Adds one decoded value per
/// needed column per survivor to `decoded`.
pub(super) fn fold_container(
    accs: &mut GroupedAccs,
    funcs: &[(AggFunc, Option<usize>)],
    group_by: &[usize],
    needed: &[usize],
    columns: &[EncodedColumn],
    sel: &[u32],
    decoded: &mut u64,
) -> Result<()> {
    debug_assert!(
        funcs
            .iter()
            .all(|&(f, c)| c.is_some() || f == AggFunc::Count),
        "only COUNT has no input column in a validated request"
    );
    *decoded += (needed.len() * sel.len()) as u64;
    // A single key column kept as a dictionary, and read by no call, is
    // read through its codes in place: `locate` would only gather them
    // again.
    let in_place = match group_by {
        &[key] if funcs.iter().all(|&(_, c)| c != Some(key)) => match &columns[key] {
            EncodedColumn::Dictionary { dict, codes } => Some((key, dict, codes)),
            _ => None,
        },
        _ => None,
    };
    let located: Vec<(usize, Located<'_>)> = needed
        .iter()
        .filter(|&&ci| in_place.is_none_or(|(key, ..)| key != ci))
        .map(|&ci| (ci, columns[ci].locate(sel)))
        .collect();
    // Every ordinal read below but the in-place key is located.
    let column = |ci: usize| -> (&ColumnData, &[u32]) {
        let (_, (values, idx)) = &located[located.partition_point(|&(n, _)| n < ci)];
        (values, idx)
    };

    first_error(funcs, sel.len(), &column)?;
    let n = sel.len();
    let (slots, groups) = match (in_place, group_by) {
        (_, []) => (vec![0; n], vec![accs.group_index(&[])]),
        (Some((_, dict, codes)), _) => group_slots(
            accs,
            n,
            dict.len(),
            true,
            |k| codes[sel[k] as usize] as usize,
            |code| vec![dict.value(code)],
        ),
        (None, &[key]) => {
            let (values, idx) = column(key);
            group_slots(
                accs,
                n,
                values.len(),
                matches!(columns[key], EncodedColumn::Dictionary { .. }),
                |k| idx[k] as usize,
                |code| vec![values.value(code)],
            )
        }
        (None, _) => {
            let keys: Vec<(&ColumnData, &[u32])> = group_by.iter().map(|&ci| column(ci)).collect();
            group_slots(
                accs,
                n,
                n,
                false,
                |k| k,
                |k| {
                    keys.iter()
                        .map(|(values, idx)| values.value(idx[k] as usize))
                        .collect()
                },
            )
        }
    };
    for (call, &(func, col)) in funcs.iter().enumerate() {
        // Read each slot's state out of its group, fold, write it back.
        let mut states: Vec<Acc> = groups
            .iter()
            .map(|&g| std::mem::replace(&mut accs.group_accs(g)[call], Acc::Count(0)))
            .collect();
        let typed = match (func, col.map(column)) {
            (_, None) => {
                count_star(&slots, &mut states);
                true
            }
            (AggFunc::Sum, Some((ColumnData(ColumnVec::Int64(v)), idx))) => {
                sum(&slots, v, idx, &mut states)
            }
            (AggFunc::Sum, Some((ColumnData(ColumnVec::Float64(v)), idx))) => {
                sum(&slots, v, idx, &mut states)
            }
            _ => false,
        };
        if let (false, Some(ci)) = (typed, col) {
            // `first_error` has ruled out every failing input.
            let (values, idx) = column(ci);
            for (&s, &i) in slots.iter().zip(idx) {
                states[s as usize].update(&values.value(i as usize))?;
            }
        }
        for (&g, state) in groups.iter().zip(states) {
            accs.group_accs(g)[call] = state;
        }
    }
    Ok(())
}

/// The error the row fold raised first, if any: a `SUM` or `AVG` over a
/// BOOLEAN or VARCHAR column fails at its first non-null survivor; the
/// earliest survivor wins, then the earliest call.
fn first_error<'a>(
    funcs: &[(AggFunc, Option<usize>)],
    n: usize,
    column: &impl Fn(usize) -> (&'a ColumnData, &'a [u32]),
) -> Result<()> {
    let mut first: Option<(usize, Value)> = None;
    for &(func, col) in funcs {
        let (AggFunc::Sum | AggFunc::Avg, Some(ci)) = (func, col) else {
            continue;
        };
        let (values, idx) = column(ci);
        if !matches!(values.0, ColumnVec::Boolean(_) | ColumnVec::Varchar(_)) {
            continue;
        }
        let before = first.as_ref().map_or(n, |(k, _)| *k);
        let at = each_column_type!(&values.0, v => idx[..before]
            .iter()
            .position(|&i| v.get(i as usize).is_some()));
        if let Some(k) = at {
            first = Some((k, values.value(idx[k] as usize)));
        }
    }
    match first {
        // The value is a non-null BOOLEAN or VARCHAR, so this fails as
        // `Acc::update` did.
        Some((_, v)) => v.as_f64().map(|_| ()),
        None => Ok(()),
    }
}

/// Every survivor's group slot, and each slot's group index in `accs`.
/// `code(k)` is survivor `k`'s code, below `bound`: equal codes mean
/// `==` keys, and `key(code)` is the key of a code. A single key
/// column's code is its locate index, and sharing a slot by it is sound
/// only because the encodings group values by `Value`'s `==`: a NaN
/// never shares a dictionary code or an RLE run, so it still makes a
/// group of its own per row. Unequal codes may hold equal keys (two runs
/// of one value, two rows of a plain column); the probe of `accs` joins
/// them. Several key columns give each survivor a code of its own.
///
/// The codes of a `dictionary` are its entries, few and all known: each
/// is looked up without creating a group, and when every one has a
/// group already the table is complete before any survivor is read.
/// Otherwise the survivors are walked in row order and a code's group is
/// probed, and created if new, the first time it shows up, so groups
/// keep their first-seen order.
fn group_slots(
    accs: &mut GroupedAccs,
    n: usize,
    bound: usize,
    dictionary: bool,
    code: impl Fn(usize) -> usize,
    key: impl Fn(usize) -> Vec<Value>,
) -> (Vec<u32>, Vec<usize>) {
    let mut table = SlotTable::new(bound);
    let complete = dictionary
        && (0..bound).all(|c| {
            let group = accs.group_of(&key(c));
            if let Some(group) = group {
                table.assign(c, group);
            }
            group.is_some()
        });
    if !complete {
        for k in 0..n {
            let c = code(k);
            if table.of_code[c] == u32::MAX {
                table.assign(c, accs.group_index(&key(c)));
            }
        }
    }
    let slots = (0..n).map(|k| table.of_code[code(k)]).collect();
    (slots, table.groups)
}

/// Codes to slots, and slots to groups: a slot is numbered the first
/// time a code of its group is assigned.
struct SlotTable {
    /// Per code, its slot; `u32::MAX` while unassigned.
    of_code: Vec<u32>,
    /// Per group index in `accs`, its slot; `u32::MAX` while it has none.
    of_group: Vec<u32>,
    /// Per slot, its group index.
    groups: Vec<usize>,
}

impl SlotTable {
    fn new(codes: usize) -> SlotTable {
        SlotTable {
            of_code: vec![u32::MAX; codes],
            of_group: Vec::new(),
            groups: Vec::new(),
        }
    }

    /// Give `code` the slot of `group`.
    fn assign(&mut self, code: usize, group: usize) {
        if self.of_group.len() <= group {
            self.of_group.resize(group + 1, u32::MAX);
        }
        if self.of_group[group] == u32::MAX {
            self.of_group[group] = self.groups.len() as u32;
            self.groups.push(group);
        }
        self.of_code[code] = self.of_group[group];
    }
}

/// `COUNT(*)`: one per survivor.
fn count_star(slots: &[u32], accs: &mut [Acc]) {
    let mut counts = vec![0i64; accs.len()];
    slots.iter().for_each(|&s| counts[s as usize] += 1);
    for (acc, n) in accs.iter_mut().zip(counts) {
        if let Acc::Count(c) = acc {
            *c += n;
        }
    }
}

/// `SUM` over a numeric column: every survivor whose value at `idx` is
/// not NULL adds to its slot, in survivor order, into a native
/// accumulator per slot. `false`, with nothing folded, when a slot's
/// state is not a sum of the column's type — no scan of one table's
/// column makes one — and [`Acc::update`] must take the call.
fn sum<T: Summand>(slots: &[u32], v: &TypedVec<T>, idx: &[u32], accs: &mut [Acc]) -> bool {
    // `(sum, whether there is one)` per slot; an empty sum holds
    // `T::EMPTY`.
    let Some(mut sums) = accs.iter().map(T::load).collect::<Option<Vec<(T, bool)>>>() else {
        return false;
    };
    let (data, validity) = v.parts();
    let pairs = slots.iter().zip(idx);
    match validity {
        None => {
            for (&s, &i) in pairs {
                let (sum, some) = &mut sums[s as usize];
                *sum = T::add(*sum, data[i as usize], *some);
                *some = true;
            }
        }
        Some(bits) => {
            for (&s, &i) in pairs {
                let (sum, some) = &mut sums[s as usize];
                let valid = bits.get(i as usize);
                let next = T::add(*sum, data[i as usize], *some);
                *sum = if valid { next } else { *sum };
                *some |= valid;
            }
        }
    }
    for (acc, (sum, some)) in accs.iter_mut().zip(sums) {
        *acc = Acc::Sum(some.then(|| sum.into_value()));
    }
    true
}

/// A `SUM` input type with a native accumulator: [`Acc::Sum`] holds a
/// BIGINT while every input was one, a FLOAT after the first that was
/// not.
trait Summand: Native + Copy {
    /// What an empty sum holds: adding an input to it gives the input
    /// as it is, bit for bit, for every input but a NaN.
    const EMPTY: Self;

    /// A sum state as `(sum, whether there is one)`; `None` when the
    /// state holds the other type.
    fn load(acc: &Acc) -> Option<(Self, bool)> {
        match acc {
            Acc::Sum(None) => Some((Self::EMPTY, false)),
            Acc::Sum(Some(v)) => Self::of(v).map(|a| (a, true)),
            _ => None,
        }
    }

    fn of(v: &Value) -> Option<Self>;

    /// `sum` after the input `x`, `some` telling whether there was a
    /// sum: what [`Acc::update`] makes of it, bit for bit.
    fn add(sum: Self, x: Self, some: bool) -> Self;
}

impl Summand for i64 {
    const EMPTY: i64 = 0;

    fn of(v: &Value) -> Option<i64> {
        match v {
            Value::Int64(a) => Some(*a),
            _ => None,
        }
    }

    #[inline]
    fn add(sum: i64, x: i64, _some: bool) -> i64 {
        sum.wrapping_add(x)
    }
}

impl Summand for f64 {
    /// `-0.0 + x` is `x` for `x = 0.0` too, where `0.0 + x` would turn
    /// a `-0.0` into `0.0`.
    const EMPTY: f64 = -0.0;

    fn of(v: &Value) -> Option<f64> {
        match v {
            Value::Float64(a) => Some(*a),
            _ => None,
        }
    }

    /// One addition, unless the input is a NaN: that case is rare, and
    /// its test is off the chain of additions into one slot.
    #[inline]
    fn add(sum: f64, x: f64, some: bool) -> f64 {
        if x.is_nan() {
            add_nan(sum, x, some)
        } else {
            sum + x
        }
    }
}

/// [`f64`]'s `add` of a NaN input. A first input is taken as-is:
/// `-0.0 + x` would quiet a signalling NaN. A NaN sum stays that NaN,
/// quieted: that is what `acc + x` in [`Acc::update`] does on the
/// hardware when both are NaN (the first operand's NaN wins), stated
/// here because which operand the compiler puts first is not part of
/// the language. With one NaN operand, the sum is that NaN either way.
#[cold]
#[inline(never)]
fn add_nan(sum: f64, x: f64, some: bool) -> f64 {
    const QUIET: u64 = 1 << 51;
    match (some, sum.is_nan()) {
        (false, _) => x,
        (true, true) => f64::from_bits(sum.to_bits() | QUIET),
        (true, false) => sum + x,
    }
}
