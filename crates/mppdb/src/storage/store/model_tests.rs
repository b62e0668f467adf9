//! The run-length [`Visibility`] against the per-row model it replaced.
//!
//! [`Model`] is a store's ROS as it was: two plain vectors per
//! container, one `CommitState` and one `DeleteState` per row, and the
//! routines that walked them (`commit`, `abort`, `hand_over`,
//! `flush_merge_run`, `remove_hash_range`, `export_rows` +
//! `import_rows_ros`) kept as they were. Every case drives a seeded
//! sequence of operations through a [`NodeTableStore`] and the model and
//! compares, after each one, every row's state, the visible positions at
//! every epoch and for every open transaction, and the pending count.

#![cfg(test)]

use common::row;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

use super::visibility::row_visible;
use super::*;

#[derive(Debug, Clone)]
struct ModelContainer {
    hashes: Vec<u64>,
    commits: Vec<CommitState>,
    deletes: Vec<DeleteState>,
}

impl ModelContainer {
    fn visible(&self, as_of: u64, my_txn: Option<u64>) -> Vec<usize> {
        (0..self.hashes.len())
            .filter(|&i| row_visible(self.commits[i], self.deletes[i], as_of, my_txn))
            .collect()
    }

    fn pending(&self) -> usize {
        let commits = self.commits.iter();
        let deletes = self.deletes.iter();
        commits
            .filter(|s| matches!(s, CommitState::Pending(_)))
            .count()
            + deletes
                .filter(|s| matches!(s, DeleteState::Pending(_)))
                .count()
    }

    fn fully_visible(&self, as_of: u64) -> bool {
        self.commits
            .iter()
            .all(|s| matches!(s, CommitState::Committed(e) if *e <= as_of))
            && self
                .deletes
                .iter()
                .all(|s| matches!(s, DeleteState::NotDeleted))
    }

    fn merge_eligible(&self) -> bool {
        self.commits
            .iter()
            .all(|s| matches!(s, CommitState::Committed(_)))
            && self
                .deletes
                .iter()
                .all(|s| !matches!(s, DeleteState::Pending(_)))
    }

    fn gather(&self, keep: &[usize]) -> ModelContainer {
        ModelContainer {
            hashes: keep.iter().map(|&i| self.hashes[i]).collect(),
            commits: keep.iter().map(|&i| self.commits[i]).collect(),
            deletes: keep.iter().map(|&i| self.deletes[i]).collect(),
        }
    }
}

#[derive(Debug, Default)]
struct Model {
    ros: Vec<ModelContainer>,
}

impl Model {
    fn stage(&mut self, hashes: Vec<u64>, txn: u64) {
        let n = hashes.len();
        self.ros.push(ModelContainer {
            hashes,
            commits: vec![CommitState::Pending(txn); n],
            deletes: vec![DeleteState::NotDeleted; n],
        });
    }

    fn commit(&mut self, txn: u64, epoch: u64) {
        for c in &mut self.ros {
            for s in &mut c.commits {
                if *s == CommitState::Pending(txn) {
                    *s = CommitState::Committed(epoch);
                }
            }
            for s in &mut c.deletes {
                if *s == DeleteState::Pending(txn) {
                    *s = DeleteState::Committed(epoch);
                }
            }
        }
    }

    fn abort(&mut self, txn: u64) {
        self.ros
            .retain(|c| c.commits.first() != Some(&CommitState::Pending(txn)));
        for c in &mut self.ros {
            for s in &mut c.deletes {
                if *s == DeleteState::Pending(txn) {
                    *s = DeleteState::NotDeleted;
                }
            }
        }
    }

    fn mergeout(&mut self, min_merge: usize) {
        fn flush(run: &mut Vec<ModelContainer>, out: &mut Vec<ModelContainer>, min_merge: usize) {
            if run.len() < min_merge {
                out.append(run);
                return;
            }
            let mut merged = ModelContainer {
                hashes: Vec::new(),
                commits: Vec::new(),
                deletes: Vec::new(),
            };
            for c in run.drain(..) {
                merged.hashes.extend(c.hashes);
                merged.commits.extend(c.commits);
                merged.deletes.extend(c.deletes);
            }
            out.push(merged);
        }
        let mut out = Vec::new();
        let mut run: Vec<ModelContainer> = Vec::new();
        let mut run_stratum = 0;
        for c in std::mem::take(&mut self.ros) {
            let eligible = c.merge_eligible();
            let s = NodeTableStore::stratum(c.hashes.len());
            if eligible && !run.is_empty() && s == run_stratum {
                run.push(c);
                continue;
            }
            flush(&mut run, &mut out, min_merge);
            if eligible {
                run_stratum = s;
                run.push(c);
            } else {
                out.push(c);
            }
        }
        flush(&mut run, &mut out, min_merge);
        self.ros = out;
    }

    fn remove_hash_range(&mut self, range: &HashRange) {
        for c in std::mem::take(&mut self.ros) {
            let keep: Vec<usize> = (0..c.hashes.len())
                .filter(|&i| !range.contains(c.hashes[i]))
                .collect();
            if keep.len() == c.hashes.len() {
                self.ros.push(c);
            } else if !keep.is_empty() {
                self.ros.push(c.gather(&keep));
            }
        }
    }

    fn hand_over_to_self(&mut self, as_of: u64, txn: u64) {
        let mut adopted = Vec::new();
        for c in &self.ros {
            let deletes: Vec<DeleteState> = (0..c.hashes.len())
                .map(|i| {
                    if row_visible(c.commits[i], c.deletes[i], as_of, Some(txn)) {
                        DeleteState::NotDeleted
                    } else {
                        DeleteState::Committed(0)
                    }
                })
                .collect();
            if deletes.contains(&DeleteState::NotDeleted) {
                adopted.push(ModelContainer {
                    hashes: c.hashes.clone(),
                    commits: vec![CommitState::Pending(txn); deletes.len()],
                    deletes,
                });
            }
        }
        self.ros.extend(adopted);
    }

    fn export_import_to_self(&mut self, range: &HashRange) {
        let mut landed = ModelContainer {
            hashes: Vec::new(),
            commits: Vec::new(),
            deletes: Vec::new(),
        };
        for c in &self.ros {
            for i in 0..c.hashes.len() {
                if range.contains(c.hashes[i]) {
                    landed.hashes.push(c.hashes[i]);
                    landed.commits.push(c.commits[i]);
                    landed.deletes.push(c.deletes[i]);
                }
            }
        }
        if !landed.hashes.is_empty() {
            self.ros.push(landed);
        }
    }
}

fn assert_same(store: &NodeTableStore, model: &Model, epoch: u64, open: &[u64], what: &str) {
    assert_eq!(store.ros.len(), model.ros.len(), "{what}: containers");
    for (at, (c, m)) in store.ros.iter().zip(&model.ros).enumerate() {
        let what = format!("{what}, container {at}");
        assert_eq!(c.payload.hashes, m.hashes, "{what}: rows");
        assert_eq!(c.visibility.len(), m.hashes.len(), "{what}: len");
        for i in 0..m.hashes.len() {
            assert_eq!(
                c.visibility.get(i),
                (m.commits[i], m.deletes[i]),
                "{what}: row {i}"
            );
        }
        assert_eq!(c.visibility.pending(), m.pending(), "{what}: pending count");
        assert_eq!(
            NodeTableStore::merge_eligible(c),
            m.merge_eligible(),
            "{what}: eligibility"
        );
        for as_of in 0..=epoch + 1 {
            assert_eq!(
                c.visibility.fully_visible(as_of),
                m.fully_visible(as_of),
                "{what}: fully visible at {as_of}"
            );
            for my_txn in open.iter().copied().map(Some).chain([None]) {
                let seen: Vec<usize> = c
                    .visibility
                    .visible_ranges(as_of, my_txn)
                    .flatten()
                    .collect();
                assert_eq!(
                    seen,
                    m.visible(as_of, my_txn),
                    "{what}: visible at {as_of} to {my_txn:?}"
                );
            }
        }
    }
}

fn random_range(rng: &mut StdRng) -> HashRange {
    let lo = rng.random_range(0..900u64);
    HashRange::new(lo, Some(lo + rng.random_range(1..300u64)))
}

fn run_case(seed: u64) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut store = NodeTableStore::new(1);
    let mut model = Model::default();
    let (mut epoch, mut next_txn, mut next_id) = (0u64, 1u64, 0i64);
    let mut open: Vec<u64> = Vec::new();
    for step in 0..rng.random_range(8..40usize) {
        let op = rng.random_range(0..100u32);
        // Most operations act for an open transaction; begin one when
        // there is none (and now and then when there is).
        if open.is_empty() || (open.len() < 3 && rng.random_bool(0.2)) {
            open.push(next_txn);
            next_txn += 1;
        }
        let txn = open[rng.random_range(0..open.len())];
        let what = match op {
            0..=24 => {
                let hashes: Vec<u64> = (0..rng.random_range(1..12usize))
                    .map(|_| rng.random_range(0..1000u64))
                    .collect();
                let rows = hashes
                    .iter()
                    .map(|&h| {
                        next_id += 1;
                        (row![next_id], h)
                    })
                    .collect();
                store.insert_pending_direct_rows(rows, txn);
                model.stage(hashes, txn);
                format!("stage by {txn}")
            }
            25..=49 => {
                // Delete some of what the transaction sees, at a snapshot
                // that may be older than an already committed delete.
                let as_of = rng.random_range(0..epoch + 1);
                let mut locs: Vec<(usize, usize)> = Vec::new();
                for (at, m) in model.ros.iter().enumerate() {
                    for i in m.visible(as_of, Some(txn)) {
                        if rng.random_bool(0.3) {
                            locs.push((at, i));
                        }
                    }
                }
                if rng.random_bool(0.5) {
                    // Not every caller reports in scan order.
                    for i in (1..locs.len()).rev() {
                        locs.swap(i, rng.random_range(0..i + 1));
                    }
                }
                let store_locs: Vec<RowLoc> = locs
                    .iter()
                    .map(|&(at, idx)| RowLoc::Ros {
                        container: store.ros[at].id,
                        idx,
                    })
                    .collect();
                store.delete_pending(&store_locs, txn);
                for (at, i) in locs {
                    model.ros[at].deletes[i] = DeleteState::Pending(txn);
                }
                format!("delete by {txn} at {as_of}")
            }
            50..=64 => {
                epoch += 1;
                store.commit(txn, epoch);
                model.commit(txn, epoch);
                open.retain(|t| *t != txn);
                format!("commit {txn} at {epoch}")
            }
            65..=72 => {
                store.abort(txn);
                model.abort(txn);
                open.retain(|t| *t != txn);
                format!("abort {txn}")
            }
            73..=82 => {
                let min_merge = rng.random_range(2..4usize);
                store.mergeout(min_merge);
                model.mergeout(min_merge);
                format!("mergeout {min_merge}")
            }
            83..=88 => {
                let range = random_range(&mut rng);
                store.remove_hash_range(&range);
                model.remove_hash_range(&range);
                "remove_hash_range".to_string()
            }
            89..=94 => {
                let as_of = rng.random_range(0..epoch + 1);
                let contents = store.hand_over(as_of, txn);
                store.adopt_pending(contents);
                model.hand_over_to_self(as_of, txn);
                format!("hand-over to {txn} at {as_of}")
            }
            _ => {
                let range = random_range(&mut rng);
                let exported = store.export_rows(Some(&range));
                store.import_rows_ros(exported);
                model.export_import_to_self(&range);
                "export + import".to_string()
            }
        };
        let what = format!("seed {seed}, step {step} ({what})");
        assert_same(&store, &model, epoch, &open, &what);
    }
}

fn run_cases(base: u64) {
    for case in 0..256 {
        run_case(base * 1_000 + case);
    }
}

#[test]
fn visibility_equals_the_per_row_model_256_cases() {
    run_cases(0);
}

/// `scripts/check.sh` runs this once with `--ignored`.
#[test]
#[ignore = "eight more seed sets of the property above; check.sh runs them"]
fn visibility_equals_the_per_row_model_eight_more_seed_sets() {
    for base in 1..=8 {
        run_cases(base);
    }
}

#[test]
fn commit_and_abort_read_only_the_container_with_pending_work() {
    let mut store = NodeTableStore::new(1);
    for i in 0..1_000i64 {
        store.insert_pending_direct_rows(vec![(row![i], i as u64)], 1);
    }
    assert_eq!(store.commit_ros(1, 1), 1_000);
    assert_eq!(store.commit_ros(1, 2), 0, "nothing pending: nothing read");

    store.insert_pending_direct_rows(vec![(row![-1i64], 5_000)], 2);
    assert_eq!(
        store.commit_ros(3, 2),
        1,
        "another txn's: read, not stamped"
    );
    assert!(store.scan(2, None, None).iter().all(|v| v.hash != 5_000));
    assert_eq!(store.commit_ros(2, 2), 1);
    assert_eq!(store.scan(2, None, None).len(), 1_001);

    store.insert_pending_direct_rows(vec![(row![-2i64], 5_001)], 4);
    assert_eq!(store.abort_ros(4), 1);
    assert_eq!(store.ros.len(), 1_001);
    assert_eq!(store.abort_ros(4), 0);

    // A staged delete makes exactly its container pending again.
    let loc = store.scan(2, None, None)[500].loc;
    store.delete_pending(&[loc], 5);
    assert_eq!(store.abort_ros(5), 1);
    assert_eq!(store.scan(2, Some(5), None).len(), 1_001);
}
