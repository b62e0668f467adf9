//! The node-side aggregate fold: one container's survivors into
//! per-group partial accumulators, a column at a time.
//!
//! Two steps per container. First every survivor gets a `u32` group
//! *slot*: a single key column is read as codes (a dictionary code, an
//! RLE run, or a plain column's row), and a key [`Value`] is built and
//! the [`GroupedAccs`] probed only the first time a code shows up, in
//! row order, so groups keep their first-seen order. Then one pass per
//! aggregate call walks `(slots, values, index)` with the call's state
//! per slot, read out of the [`Acc`]s before the pass and written back
//! after it.
//!
//! `COUNT(*)` and a `SUM` over a BIGINT or FLOAT column run typed passes
//! that keep [`Acc::update`]'s semantics bit for bit: a survivor adds to
//! its group in survivor order, a first input is taken as-is (a `-0.0`
//! keeps its sign) and an integer sum wraps. Every other call runs
//! [`Acc::update`] itself per survivor. A `SUM` or `AVG` over a BOOLEAN
//! or VARCHAR column fails with the error the row fold raised, at the
//! first non-null survivor of any such call (call order breaks a tie),
//! before anything is folded.

use std::borrow::Cow;
use std::collections::HashMap;

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
    let located: Vec<(usize, Located<'_>)> = needed
        .iter()
        .map(|&ci| (ci, columns[ci].locate(sel)))
        .collect();
    *decoded += (located.len() * sel.len()) as u64;
    // `needed` holds every ordinal read below, so the lookup finds it.
    let column = |ci: usize| -> (&ColumnData, &[u32]) {
        let (_, (values, idx)) = &located[needed.partition_point(|&n| n < ci)];
        (values, idx)
    };

    first_error(funcs, sel.len(), &column)?;
    let keys: Vec<(&ColumnData, &[u32])> = group_by.iter().map(|&ci| column(ci)).collect();
    let (slots, groups) = group_slots(accs, &keys, sel.len());
    for (call, &(func, col)) in funcs.iter().enumerate() {
        // Read each slot's state out of its group, fold, write it back.
        let mut states: Vec<Acc> = groups
            .iter()
            .map(|&g| std::mem::replace(&mut accs.group_accs(g)[call], Acc::Count(0)))
            .collect();
        match (func, col.map(column)) {
            (AggFunc::Sum, Some((ColumnData(ColumnVec::Int64(v)), idx))) => {
                sum(&slots, v, idx, &mut states, Sum::add_i64)?
            }
            (AggFunc::Sum, Some((ColumnData(ColumnVec::Float64(v)), idx))) => {
                sum(&slots, v, idx, &mut states, Sum::add_f64)?
            }
            // `first_error` has ruled out every failing input.
            (_, Some((values, idx))) => {
                for (&s, &i) in slots.iter().zip(idx) {
                    states[s as usize].update(&values.value(i as usize))?;
                }
            }
            (_, None) => count_star(&slots, &mut states),
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
/// `keys` are the key columns' survivors.
fn group_slots(
    accs: &mut GroupedAccs,
    keys: &[(&ColumnData, &[u32])],
    n: usize,
) -> (Vec<u32>, Vec<usize>) {
    // A code per survivor: equal codes mean `==` keys. One key column's
    // code is its locate index, and memoising by it is sound only
    // because the encodings group values by `Value`'s `==`: a NaN never
    // shares a dictionary code or an RLE run, so it still makes a group
    // of its own per row. Unequal codes may hold equal keys (two runs of
    // one value, two rows of a plain column); the probe of `accs` joins
    // them. Several key columns probe once per survivor.
    let (codes, bound): (Cow<'_, [u32]>, usize) = match keys {
        [] => return (vec![0; n], vec![accs.group_index(&[])]),
        [(values, idx)] => (Cow::Borrowed(*idx), values.len()),
        _ => (Cow::Owned((0..n as u32).collect()), n),
    };
    let mut memo = vec![u32::MAX; bound];
    let mut slot_of: HashMap<usize, u32> = HashMap::new();
    let mut groups: Vec<usize> = Vec::new();
    let slots = codes
        .iter()
        .enumerate()
        .map(|(k, &code)| {
            let slot = &mut memo[code as usize];
            if *slot == u32::MAX {
                let key: Vec<Value> = keys
                    .iter()
                    .map(|(values, idx)| values.value(idx[k] as usize))
                    .collect();
                let group = accs.group_index(&key);
                *slot = *slot_of.entry(group).or_insert_with(|| {
                    groups.push(group);
                    groups.len() as u32 - 1
                });
            }
            *slot
        })
        .collect();
    (slots, groups)
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

/// `SUM` over a numeric column, `add` being the typed step: every
/// survivor whose value at `idx` is not NULL adds to its slot, in
/// survivor order.
fn sum<T: Native>(
    slots: &[u32],
    v: &TypedVec<T>,
    idx: &[u32],
    accs: &mut [Acc],
    add: fn(&mut Sum, &T),
) -> Result<()> {
    let mut sums = accs.iter().map(Sum::of).collect::<Result<Vec<Sum>>>()?;
    let (data, validity) = v.parts();
    let pairs = slots.iter().zip(idx);
    match validity {
        None => pairs.for_each(|(&s, &i)| add(&mut sums[s as usize], &data[i as usize])),
        Some(bits) => pairs
            .filter(|(_, &i)| bits.get(i as usize))
            .for_each(|(&s, &i)| add(&mut sums[s as usize], &data[i as usize])),
    }
    for (acc, sum) in accs.iter_mut().zip(sums) {
        *acc = Acc::Sum(sum.into_value());
    }
    Ok(())
}

/// A `SUM` state, typed: [`Acc::Sum`] holds no value, a BIGINT while
/// every input was one, a FLOAT after the first that was not.
#[derive(Clone, Copy)]
enum Sum {
    Empty,
    Int(i64),
    Float(f64),
}

impl Sum {
    fn of(acc: &Acc) -> Result<Sum> {
        Ok(match acc {
            Acc::Sum(Some(Value::Int64(a))) => Sum::Int(*a),
            // A SUM state is only ever a BIGINT or a FLOAT.
            Acc::Sum(Some(v)) => Sum::Float(v.as_f64()?),
            _ => Sum::Empty,
        })
    }

    fn into_value(self) -> Option<Value> {
        match self {
            Sum::Empty => None,
            Sum::Int(a) => Some(Value::Int64(a)),
            Sum::Float(a) => Some(Value::Float64(a)),
        }
    }

    #[inline]
    fn add_i64(&mut self, x: &i64) {
        *self = match *self {
            Sum::Empty => Sum::Int(*x),
            Sum::Int(a) => Sum::Int(a.wrapping_add(*x)),
            Sum::Float(a) => Sum::Float(a + *x as f64),
        };
    }

    #[inline]
    fn add_f64(&mut self, x: &f64) {
        *self = match *self {
            Sum::Empty => Sum::Float(*x),
            Sum::Int(a) => Sum::Float(a as f64 + *x),
            Sum::Float(a) => Sum::Float(a + *x),
        };
    }
}
