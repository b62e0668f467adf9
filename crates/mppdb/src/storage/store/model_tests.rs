//! The run-length [`Visibility`] against the per-row model it replaced.
//!
//! [`Model`] is a store as it was: two plain vectors per ROS container,
//! one `CommitState` and one `DeleteState` per row, a WOS that is one
//! list of such rows, and the routines that walked them (`commit`,
//! `hand_over`, `moveout`, `flush_merge_run`, `remove_hash_range`) kept
//! as they were, `abort` stated row by row rather than read off a
//! container's first row, and `export_range` + `adopt` stated as the
//! in-range rows of each ROS container landing as one container and
//! those of the WOS landing in the WOS. Every case drives a seeded
//! sequence of operations through a [`NodeTableStore`] and the model and
//! compares, after each one, every row's state, the visible positions at
//! every epoch and for every open transaction, the pending count, and
//! what a scan returns.

#![cfg(test)]

use common::row;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

use super::visibility::row_visible;
use super::*;

type RowStates = (u64, CommitState, DeleteState);

#[derive(Debug, Clone, Default)]
struct ModelContainer {
    hashes: Vec<u64>,
    commits: Vec<CommitState>,
    deletes: Vec<DeleteState>,
}

impl ModelContainer {
    fn staged(hashes: Vec<u64>, txn: u64) -> ModelContainer {
        let n = hashes.len();
        ModelContainer {
            hashes,
            commits: vec![CommitState::Pending(txn); n],
            deletes: vec![DeleteState::NotDeleted; n],
        }
    }

    fn rows(&self) -> impl Iterator<Item = RowStates> + '_ {
        (0..self.hashes.len()).map(|i| (self.hashes[i], self.commits[i], self.deletes[i]))
    }

    fn push(&mut self, (hash, commit, delete): RowStates) {
        self.hashes.push(hash);
        self.commits.push(commit);
        self.deletes.push(delete);
    }

    fn from_rows(rows: impl IntoIterator<Item = RowStates>) -> ModelContainer {
        let mut out = ModelContainer::default();
        for row in rows {
            out.push(row);
        }
        out
    }

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

    /// Stamp `txn`'s pending inserts and deletes with `epoch`.
    fn commit(&mut self, txn: u64, epoch: u64) {
        for s in &mut self.commits {
            if *s == CommitState::Pending(txn) {
                *s = CommitState::Committed(epoch);
            }
        }
        for s in &mut self.deletes {
            if *s == DeleteState::Pending(txn) {
                *s = DeleteState::Committed(epoch);
            }
        }
    }

    /// The rows `txn` sees at `as_of`, pending under it as an adopter
    /// holds them; every other row deleted before the first epoch.
    fn handed_to(&self, as_of: u64, txn: u64) -> ModelContainer {
        let deletes = (0..self.hashes.len())
            .map(|i| {
                if row_visible(self.commits[i], self.deletes[i], as_of, Some(txn)) {
                    DeleteState::NotDeleted
                } else {
                    DeleteState::Committed(0)
                }
            })
            .collect();
        ModelContainer {
            hashes: self.hashes.clone(),
            commits: vec![CommitState::Pending(txn); self.hashes.len()],
            deletes,
        }
    }
}

#[derive(Debug, Default)]
struct Model {
    ros: Vec<ModelContainer>,
    /// The WOS, one row after another.
    wos: ModelContainer,
}

impl Model {
    fn stage(&mut self, hashes: Vec<u64>, txn: u64) {
        self.ros.push(ModelContainer::staged(hashes, txn));
    }

    fn stage_wos(&mut self, hashes: Vec<u64>, txn: u64) {
        for row in ModelContainer::staged(hashes, txn).rows() {
            self.wos.push(row);
        }
    }

    fn commit(&mut self, txn: u64, epoch: u64) {
        for c in &mut self.ros {
            c.commit(txn, epoch);
        }
        self.wos.commit(txn, epoch);
    }

    /// A container the transaction staged whole goes; in any other, the
    /// rows it inserted become rows no snapshot sees, and the deletes it
    /// staged are forgotten. Its WOS rows go.
    fn abort(&mut self, txn: u64) {
        let pending = CommitState::Pending(txn);
        self.ros.retain(|c| c.commits.iter().any(|s| *s != pending));
        for c in &mut self.ros {
            for (commit, delete) in c.commits.iter_mut().zip(&mut c.deletes) {
                if *commit == pending {
                    *commit = CommitState::Committed(0);
                    *delete = DeleteState::Committed(0);
                } else if *delete == DeleteState::Pending(txn) {
                    *delete = DeleteState::NotDeleted;
                }
            }
        }
        let wos = std::mem::take(&mut self.wos);
        self.wos = ModelContainer::from_rows(wos.rows().filter(|r| r.1 != pending).map(
            |(hash, commit, delete)| match delete {
                DeleteState::Pending(t) if t == txn => (hash, commit, DeleteState::NotDeleted),
                _ => (hash, commit, delete),
            },
        ));
    }

    /// Committed WOS rows become one ROS container, in WOS order and with
    /// their states; pending ones stay.
    fn moveout(&mut self) {
        let wos = std::mem::take(&mut self.wos);
        let (moving, staying): (Vec<RowStates>, Vec<RowStates>) = wos
            .rows()
            .partition(|r| matches!(r.1, CommitState::Committed(_)));
        self.wos = ModelContainer::from_rows(staying);
        if !moving.is_empty() {
            self.ros.push(ModelContainer::from_rows(moving));
        }
    }

    fn mergeout(&mut self, min_merge: usize) {
        fn flush(run: &mut Vec<ModelContainer>, out: &mut Vec<ModelContainer>, min_merge: usize) {
            if run.len() < min_merge {
                out.append(run);
                return;
            }
            let merged = ModelContainer::from_rows(run.iter().flat_map(|c| c.rows()));
            run.clear();
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
        let wos = std::mem::take(&mut self.wos);
        self.wos = ModelContainer::from_rows(wos.rows().filter(|r| !range.contains(r.0)));
    }

    /// Each ROS container with a row `txn` sees is adopted whole; the
    /// WOS rows it sees are copied into the WOS, pending under it.
    fn hand_over_to_self(&mut self, as_of: u64, txn: u64) {
        let adopted: Vec<ModelContainer> = self
            .ros
            .iter()
            .map(|c| c.handed_to(as_of, txn))
            .filter(|c| c.deletes.contains(&DeleteState::NotDeleted))
            .collect();
        self.ros.extend(adopted);
        let seen = self.wos.handed_to(as_of, txn);
        for row in seen.rows() {
            if row.2 == DeleteState::NotDeleted {
                self.wos.push(row);
            }
        }
    }

    /// The rows whose hash `range` holds, with their states: each ROS
    /// container's as one container (none when it has none), the WOS's
    /// as the WOS.
    fn export(&self, range: Option<&HashRange>) -> Model {
        let in_range = |c: &ModelContainer| {
            ModelContainer::from_rows(c.rows().filter(|r| range.is_none_or(|g| g.contains(r.0))))
        };
        let ros = self.ros.iter().map(in_range);
        Model {
            ros: ros.filter(|c| !c.hashes.is_empty()).collect(),
            wos: in_range(&self.wos),
        }
    }

    fn export_import_to_self(&mut self, range: &HashRange) {
        let landed = self.export(Some(range));
        self.ros.extend(landed.ros);
        landed.wos.rows().for_each(|row| self.wos.push(row));
    }

    /// A store rebuilt by recovery: the export, landed alone.
    fn recovered(&self, range: Option<&HashRange>) -> Model {
        self.export(range)
    }

    /// Hashes a scan at `as_of` for `my_txn` returns, in scan order.
    fn scan(&self, as_of: u64, my_txn: Option<u64>) -> Vec<u64> {
        let all = self.ros.iter().chain([&self.wos]);
        all.flat_map(|c| c.visible(as_of, my_txn).into_iter().map(|i| c.hashes[i]))
            .collect()
    }
}

/// The zone index holds, entry for entry, what each ROS container's own
/// statistics say, and each entry's row count is its container's length
/// (which a skipped container's `rows_skipped` reads in its place).
fn assert_zones_match(store: &NodeTableStore, what: &str) {
    let zones: Vec<_> = store.zones.iter().collect();
    assert_eq!(zones.len(), store.ros.len(), "{what}: zone entries");
    for (at, (zone, c)) in zones.iter().zip(&store.ros).enumerate() {
        let what = format!("{what}, zone {at}");
        let stats = c.stats.as_ref().expect("a ROS container is sealed");
        assert_eq!(zone.row_count(), stats.row_count, "{what}: row count");
        assert_eq!(zone.row_count(), c.len() as u64, "{what}: length");
        // Through `Debug`, so that a lone NaN bound equals itself.
        for i in 0..=store.column_count {
            let (got, want) = (zone.column(i), stats.columns.get(i));
            assert_eq!(
                format!("{got:?}"),
                format!("{want:?}"),
                "{what}: column {i}"
            );
        }
    }
}

fn assert_same(store: &NodeTableStore, model: &Model, epoch: u64, open: &[u64], what: &str) {
    assert_zones_match(store, what);
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
    assert_eq!(
        store.wos_states(),
        model.wos.rows().collect::<Vec<_>>(),
        "{what}: WOS"
    );
    for as_of in 0..=epoch + 1 {
        for my_txn in open.iter().copied().map(Some).chain([None]) {
            let scanned: Vec<u64> = store
                .scan(as_of, my_txn, None)
                .iter()
                .map(|v| v.hash)
                .collect();
            assert_eq!(
                scanned,
                model.scan(as_of, my_txn),
                "{what}: scan at {as_of} for {my_txn:?}"
            );
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
        let op = rng.random_range(0..104u32);
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
                if rng.random_bool(0.5) {
                    store.insert_pending_direct_rows(rows, txn);
                    model.stage(hashes, txn);
                    format!("stage by {txn}")
                } else {
                    store.insert_pending(rows, txn);
                    model.stage_wos(hashes, txn);
                    format!("stage in the WOS by {txn}")
                }
            }
            25..=49 => {
                // Delete some of what the transaction sees, at a snapshot
                // that may be older than an already committed delete. The
                // store names rows by where its own scan found them; the
                // model's scan lists the same rows in the same order.
                let as_of = rng.random_range(0..epoch + 1);
                let found = store.scan(as_of, Some(txn), None);
                let mut places: Vec<(Option<usize>, usize)> = Vec::new();
                for (at, m) in model.ros.iter().enumerate() {
                    places.extend(
                        m.visible(as_of, Some(txn))
                            .into_iter()
                            .map(|i| (Some(at), i)),
                    );
                }
                places.extend(
                    model
                        .wos
                        .visible(as_of, Some(txn))
                        .into_iter()
                        .map(|i| (None, i)),
                );
                assert_eq!(found.len(), places.len(), "seed {seed}, step {step}");
                let mut picked: Vec<usize> =
                    (0..places.len()).filter(|_| rng.random_bool(0.3)).collect();
                if rng.random_bool(0.5) {
                    // Not every caller reports in scan order.
                    for i in (1..picked.len()).rev() {
                        picked.swap(i, rng.random_range(0..i + 1));
                    }
                }
                let locs: Vec<RowLoc> = picked.iter().map(|&k| found[k].loc).collect();
                store.delete_pending(&locs, txn);
                for k in picked {
                    let (at, i) = places[k];
                    let m = at.map_or(&mut model.wos, |at| &mut model.ros[at]);
                    m.deletes[i] = DeleteState::Pending(txn);
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
            73..=79 => {
                let min_merge = rng.random_range(2..4usize);
                store.mergeout(min_merge);
                model.mergeout(min_merge);
                format!("mergeout {min_merge}")
            }
            80..=85 => {
                store.moveout();
                model.moveout();
                "moveout".to_string()
            }
            86..=90 => {
                let range = random_range(&mut rng);
                store.remove_hash_range(&range);
                model.remove_hash_range(&range);
                "remove_hash_range".to_string()
            }
            91..=96 => {
                let as_of = rng.random_range(0..epoch + 1);
                let contents = store.hand_over(as_of, txn);
                store.adopt(contents);
                model.hand_over_to_self(as_of, txn);
                format!("hand-over to {txn} at {as_of}")
            }
            97..=100 => {
                let range = random_range(&mut rng);
                let exported = store.export_range(Some(&range));
                store.adopt(exported);
                model.export_import_to_self(&range);
                "export + adopt".to_string()
            }
            _ => {
                let range = rng.random_bool(0.5).then(|| random_range(&mut rng));
                let mut rebuilt = NodeTableStore::new(1);
                rebuilt.adopt(store.export_range(range.as_ref()));
                store = rebuilt;
                model = model.recovered(range.as_ref());
                "recovery".to_string()
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

/// Rows of all four types with NULLs, NaN and both zeros, for the zone
/// index property: statistics that differ from container to container.
fn typed_rows(rng: &mut StdRng) -> Vec<(Row, u64)> {
    let n = rng.random_range(1..20usize);
    (0..n)
        .map(|_| {
            let x = match rng.random_range(0..6) {
                0 => f64::NAN,
                1 => -0.0,
                k => k as f64 * 1.5,
            };
            let values = [
                Value::Int64(rng.random_range(-50..50)),
                Value::Float64(x),
                Value::Varchar(format!("v{}", rng.random_range(0..30))),
                Value::Boolean(rng.random_bool(0.5)),
            ];
            let values = values
                .into_iter()
                .map(|v| if rng.random_bool(0.2) { Value::Null } else { v });
            (Row::new(values.collect()), rng.random_range(0..1000u64))
        })
        .collect()
}

/// One seeded sequence of every operation that changes the ROS, with the
/// zone index checked against the containers after each.
fn zone_case(seed: u64) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut store = NodeTableStore::new(4);
    let (mut epoch, mut next_txn) = (0u64, 1u64);
    let mut open: Vec<u64> = Vec::new();
    for step in 0..rng.random_range(8..40usize) {
        if open.is_empty() || (open.len() < 3 && rng.random_bool(0.2)) {
            open.push(next_txn);
            next_txn += 1;
        }
        let txn = open[rng.random_range(0..open.len())];
        let what = match rng.random_range(0..10u32) {
            0 | 1 => {
                let rows = typed_rows(&mut rng);
                if rng.random_bool(0.5) {
                    store.insert_pending_direct_rows(rows, txn);
                    "DIRECT insert"
                } else {
                    store.insert_pending(rows, txn);
                    "WOS insert"
                }
            }
            2 => {
                epoch += 1;
                store.commit(txn, epoch);
                open.retain(|t| *t != txn);
                "commit"
            }
            3 => {
                store.abort(txn);
                open.retain(|t| *t != txn);
                "abort"
            }
            4 => {
                let found = store.scan(epoch, Some(txn), None);
                let locs: Vec<RowLoc> = found
                    .iter()
                    .filter(|_| rng.random_bool(0.3))
                    .map(|v| v.loc)
                    .collect();
                store.delete_pending(&locs, txn);
                "delete_pending"
            }
            5 => {
                store.moveout();
                "moveout"
            }
            6 => {
                store.mergeout(rng.random_range(2..4usize));
                "mergeout"
            }
            7 => {
                let contents = store.hand_over(rng.random_range(0..epoch + 1), txn);
                store.adopt(contents);
                "hand_over + adopt"
            }
            8 => {
                store.remove_hash_range(&random_range(&mut rng));
                "remove_hash_range"
            }
            _ => {
                let exported = store.export_range(Some(&random_range(&mut rng)));
                store.adopt(exported);
                "export + adopt"
            }
        };
        assert_zones_match(&store, &format!("seed {seed}, step {step} ({what})"));
    }
}

#[test]
fn the_zone_index_matches_every_container_256_cases() {
    for case in 0..256 {
        zone_case(case);
    }
}

/// `scripts/check.sh` runs this once with `--ignored`.
#[test]
#[ignore = "eight more seed sets of the property above; check.sh runs them"]
fn the_zone_index_matches_every_container_eight_more_seed_sets() {
    for base in 1..=8 {
        for case in 0..256 {
            zone_case(base * 1_000 + case);
        }
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
