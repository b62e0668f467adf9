//! Model-based property testing of the MVCC store: a random sequence of
//! transactional operations is applied both to [`NodeTableStore`] and to
//! a trivial reference model; epoch-snapshot scans must agree at every
//! epoch, before and after tuple-mover moveouts.

use common::{row, Row};
use mppdb::storage::{ColumnData, NodeTableStore};
use proptest::prelude::*;

#[derive(Debug, Clone)]
enum Op {
    /// Insert `count` fresh rows and commit (direct = straight to ROS).
    InsertCommit { count: usize, direct: bool },
    /// Insert rows and abort.
    InsertAbort { count: usize },
    /// Delete every committed row whose id is ≡ residue (mod 3), commit.
    DeleteCommit { residue: i64 },
    /// Stage the same delete and abort it.
    DeleteAbort { residue: i64 },
    /// Run the tuple mover.
    Moveout,
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        (1usize..20, any::<bool>()).prop_map(|(count, direct)| Op::InsertCommit { count, direct }),
        (1usize..20).prop_map(|count| Op::InsertAbort { count }),
        (0i64..3).prop_map(|residue| Op::DeleteCommit { residue }),
        (0i64..3).prop_map(|residue| Op::DeleteAbort { residue }),
        Just(Op::Moveout),
    ]
}

/// Reference model: every committed row with its insert/delete epochs.
#[derive(Debug, Default)]
struct Model {
    rows: Vec<(i64, u64, Option<u64>)>, // (id, insert_epoch, delete_epoch)
}

impl Model {
    fn visible_ids(&self, epoch: u64) -> Vec<i64> {
        let mut ids: Vec<i64> = self
            .rows
            .iter()
            .filter(|(_, ins, del)| *ins <= epoch && del.is_none_or(|d| d > epoch))
            .map(|(id, _, _)| *id)
            .collect();
        ids.sort();
        ids
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    #[test]
    fn store_matches_reference_model(ops in proptest::collection::vec(arb_op(), 1..40)) {
        let mut store = NodeTableStore::new(1);
        let mut model = Model::default();
        let mut next_id = 0i64;
        let mut epoch = 0u64;

        for (txn, op) in (1u64..).zip(ops.iter()) {
            match op {
                Op::InsertCommit { count, direct } => {
                    let rows: Vec<(Row, u64)> = (0..*count)
                        .map(|_| {
                            let id = next_id;
                            next_id += 1;
                            (row![id], id as u64)
                        })
                        .collect();
                    let ids: Vec<i64> =
                        rows.iter().map(|(r, _)| r.get(0).as_i64().unwrap()).collect();
                    if *direct {
                        let rows = rows.into_iter().map(|(r, h)| (r.into_values(), h));
                        let (columns, hashes) = ColumnData::transpose(1, rows);
                        store.insert_pending_direct(columns, hashes, txn);
                    } else {
                        store.insert_pending(rows, txn);
                    }
                    epoch += 1;
                    store.commit(txn, epoch);
                    for id in ids {
                        model.rows.push((id, epoch, None));
                    }
                }
                Op::InsertAbort { count } => {
                    let rows: Vec<(Row, u64)> = (0..*count)
                        .map(|i| (row![-(i as i64) - 1], i as u64))
                        .collect();
                    store.insert_pending(rows, txn);
                    store.abort(txn);
                }
                Op::DeleteCommit { residue } | Op::DeleteAbort { residue } => {
                    let commit = matches!(op, Op::DeleteCommit { .. });
                    let visible = store.scan(epoch, None, None);
                    let locs: Vec<_> = visible
                        .iter()
                        .filter(|v| v.row.get(0).as_i64().unwrap().rem_euclid(3) == *residue)
                        .map(|v| v.loc)
                        .collect();
                    store.delete_pending(&locs, txn);
                    if commit {
                        epoch += 1;
                        store.commit(txn, epoch);
                        for (id, _, del) in model.rows.iter_mut() {
                            if del.is_none() && id.rem_euclid(3) == *residue {
                                *del = Some(epoch);
                            }
                        }
                    } else {
                        store.abort(txn);
                    }
                }
                Op::Moveout => {
                    store.moveout();
                }
            }

            // The store and the model agree at every epoch so far.
            for e in 0..=epoch {
                let mut ids: Vec<i64> = store
                    .scan(e, None, None)
                    .iter()
                    .map(|v| v.row.get(0).as_i64().unwrap())
                    .collect();
                ids.sort();
                prop_assert_eq!(ids, model.visible_ids(e), "epoch {} after {:?}", e, op);
            }
        }

        // A final moveout never changes any snapshot.
        let before: Vec<Vec<i64>> = (0..=epoch)
            .map(|e| {
                let mut ids: Vec<i64> = store
                    .scan(e, None, None)
                    .iter()
                    .map(|v| v.row.get(0).as_i64().unwrap())
                    .collect();
                ids.sort();
                ids
            })
            .collect();
        store.moveout();
        for (e, expected) in before.iter().enumerate() {
            let mut ids: Vec<i64> = store
                .scan(e as u64, None, None)
                .iter()
                .map(|v| v.row.get(0).as_i64().unwrap())
                .collect();
            ids.sort();
            prop_assert_eq!(&ids, expected, "moveout changed epoch {}", e);
        }
    }
}
