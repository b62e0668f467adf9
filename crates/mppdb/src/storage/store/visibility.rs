//! Which rows of a container, open or sealed, a reader sees: commit and
//! delete states stored as what is actually there, not once per row.
//!
//! A container is created whole, so its commit states are one run until
//! a mergeout or moveout concatenates committed containers; deletes are
//! the exception, so none are stored until the first one and a
//! `DELETE FROM t` is one run.
//! The count of pending entries lets commit, abort and the mover pass
//! over a container with nothing in flight without reading it.
//!
//! The fields are private to this module: everything the store does to
//! a container's visibility goes through the methods below.

use std::ops::Range;

/// Commit state of a stored row.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CommitState {
    /// Written by a still-open transaction; visible only to it.
    Pending(u64),
    /// Committed at the given epoch.
    Committed(u64),
}

/// Delete state of a stored row.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(super) enum DeleteState {
    NotDeleted,
    /// Delete staged by an open transaction.
    Pending(u64),
    /// Delete committed at the given epoch.
    Committed(u64),
}

/// Delete state of a payload row the adopting table never held: deleted
/// before the first commit epoch, so invisible at every snapshot and to
/// every transaction.
const NEVER_VISIBLE: DeleteState = DeleteState::Committed(0);

fn inserted(commit: CommitState, as_of: u64, my_txn: Option<u64>) -> bool {
    match commit {
        CommitState::Committed(e) => e <= as_of,
        CommitState::Pending(t) => Some(t) == my_txn,
    }
}

fn hidden(delete: DeleteState, as_of: u64, my_txn: Option<u64>) -> bool {
    match delete {
        DeleteState::NotDeleted => false,
        // A delete staged by my own transaction hides the row from me;
        // one staged by another transaction is not yet real.
        DeleteState::Pending(t) => Some(t) == my_txn,
        DeleteState::Committed(e) => e <= as_of,
    }
}

pub(super) fn row_visible(
    commit: CommitState,
    delete: DeleteState,
    as_of: u64,
    my_txn: Option<u64>,
) -> bool {
    inserted(commit, as_of, my_txn) && !hidden(delete, as_of, my_txn)
}

/// Rows up to `end` (from where the previous run ends) sharing one
/// commit state.
#[derive(Debug, Clone, Copy)]
struct CommitRun {
    end: usize,
    state: CommitState,
}

/// Rows `[start, end)` sharing one delete state other than `NotDeleted`.
#[derive(Debug, Clone, Copy)]
struct DeleteRun {
    start: usize,
    end: usize,
    state: DeleteState,
}

/// The commit and delete state of every row of one container.
#[derive(Debug, Clone, Default)]
pub(super) struct Visibility {
    /// Ascending by `end`; the last run ends at the container's length.
    commits: Vec<CommitRun>,
    /// Ascending, disjoint; a row in no run is `NotDeleted`.
    deletes: Vec<DeleteRun>,
    /// Rows whose commit is `Pending` plus rows whose delete is.
    pending: usize,
}

impl Visibility {
    /// A container staged whole by `txn`.
    pub(super) fn staged(len: usize, txn: u64) -> Visibility {
        Visibility {
            commits: vec![CommitRun {
                end: len,
                state: CommitState::Pending(txn),
            }],
            deletes: Vec::new(),
            pending: len,
        }
    }

    /// The containers' states one after the other (mergeout).
    pub(super) fn concat<'a>(parts: impl IntoIterator<Item = &'a Visibility>) -> Visibility {
        let mut out = Visibility::default();
        for part in parts {
            let base = out.len();
            for run in &part.commits {
                out.push_commits(base + run.end, run.state);
            }
            for run in &part.deletes {
                out.push_deletes(base + run.start, base + run.end, run.state);
            }
        }
        out
    }

    /// Append the rows from the last commit run's end up to `end`, in
    /// `state`.
    fn push_commits(&mut self, end: usize, state: CommitState) {
        let start = self.len();
        if matches!(state, CommitState::Pending(_)) {
            self.pending += end - start;
        }
        match self.commits.last_mut() {
            Some(last) if last.state == state => last.end = end,
            _ => self.commits.push(CommitRun { end, state }),
        }
    }

    /// Append the delete state of rows `[start, end)`, which lie after
    /// every run already stored.
    fn push_deletes(&mut self, start: usize, end: usize, state: DeleteState) {
        if state == DeleteState::NotDeleted || start == end {
            return;
        }
        if matches!(state, DeleteState::Pending(_)) {
            self.pending += end - start;
        }
        match self.deletes.last_mut() {
            Some(last) if last.end == start && last.state == state => last.end = end,
            _ => self.deletes.push(DeleteRun { start, end, state }),
        }
    }

    pub(super) fn len(&self) -> usize {
        self.commits.last().map_or(0, |r| r.end)
    }

    #[cfg(test)]
    pub(super) fn pending(&self) -> usize {
        self.pending
    }

    /// Whether every insert of the container is committed.
    pub(super) fn committed(&self) -> bool {
        self.commits
            .iter()
            .all(|r| matches!(r.state, CommitState::Committed(_)))
    }

    /// Whether any insert or delete of the container is still pending.
    pub(super) fn has_pending(&self) -> bool {
        self.pending > 0
    }

    /// The delete run holding `idx`, or where one would be inserted.
    fn delete_run_at(&self, idx: usize) -> (usize, Option<DeleteRun>) {
        let at = self.deletes.partition_point(|r| r.end <= idx);
        let run = self.deletes.get(at).filter(|r| r.start <= idx);
        (at, run.copied())
    }

    pub(super) fn get(&self, idx: usize) -> (CommitState, DeleteState) {
        assert!(
            idx < self.len(),
            "row {idx} of a {}-row container",
            self.len()
        );
        let commit = self.commits[self.commits.partition_point(|r| r.end <= idx)].state;
        let delete = self
            .delete_run_at(idx)
            .1
            .map_or(DeleteState::NotDeleted, |r| r.state);
        (commit, delete)
    }

    /// Mark row `idx` deleted by the open transaction `txn`, whatever
    /// its delete state was.
    pub(super) fn stage_delete(&mut self, idx: usize, txn: u64) {
        assert!(
            idx < self.len(),
            "row {idx} of a {}-row container",
            self.len()
        );
        let state = DeleteState::Pending(txn);
        let (mut at, old) = self.delete_run_at(idx);
        if let Some(old) = old {
            if old.state == state {
                return;
            }
            // Cut `idx` out of the run that holds it.
            if matches!(old.state, DeleteState::Pending(_)) {
                self.pending -= 1;
            }
            let before = (old.start < idx).then_some(DeleteRun { end: idx, ..old });
            let after = (idx + 1 < old.end).then_some(DeleteRun {
                start: idx + 1,
                ..old
            });
            self.deletes
                .splice(at..=at, before.into_iter().chain(after));
            at += before.is_some() as usize;
        }
        self.pending += 1;
        // Deletes arrive in scan order, so the usual case extends the
        // run that ends here.
        match at.checked_sub(1).map(|p| &mut self.deletes[p]) {
            Some(prev) if prev.end == idx && prev.state == state => prev.end += 1,
            _ => self.deletes.insert(
                at,
                DeleteRun {
                    start: idx,
                    end: idx + 1,
                    state,
                },
            ),
        }
        self.check();
    }

    /// Stamp `txn`'s pending inserts and deletes with `epoch`.
    pub(super) fn commit(&mut self, txn: u64, epoch: u64) {
        let mut start = 0;
        for run in &mut self.commits {
            if run.state == CommitState::Pending(txn) {
                run.state = CommitState::Committed(epoch);
                self.pending -= run.end - start;
            }
            start = run.end;
        }
        for run in &mut self.deletes {
            if run.state == DeleteState::Pending(txn) {
                run.state = DeleteState::Committed(epoch);
                self.pending -= run.end - run.start;
            }
        }
        self.check();
    }

    /// Whether `txn` staged this container whole: every row is one run
    /// pending under it. A container with a pending insert always is:
    /// staging, a hand-over and an export each create one whole, and the
    /// mover only concatenates committed ones.
    pub(super) fn staged_by(&self, txn: u64) -> bool {
        matches!(self.commits.as_slice(), [run] if run.state == CommitState::Pending(txn))
    }

    /// Forget the deletes `txn` staged in a container it did not stage
    /// whole. It has no insert pending there (see
    /// [`Visibility::staged_by`]).
    pub(super) fn abort(&mut self, txn: u64) {
        debug_assert!(
            self.commits
                .iter()
                .all(|r| r.state != CommitState::Pending(txn)),
            "txn {txn} has an insert pending in a container it did not stage whole"
        );
        let pending = &mut self.pending;
        self.deletes.retain(|run| {
            let mine = run.state == DeleteState::Pending(txn);
            if mine {
                *pending -= run.end - run.start;
            }
            !mine
        });
        self.check();
    }

    /// True when every row is visible at `as_of` to any reader: all
    /// inserts committed at or before it and no delete even staged.
    pub(super) fn fully_visible(&self, as_of: u64) -> bool {
        self.deletes.is_empty()
            && self
                .commits
                .iter()
                .all(|r| matches!(r.state, CommitState::Committed(e) if e <= as_of))
    }

    /// The positions visible at `as_of` (plus `my_txn`'s own pending
    /// work), ascending, as maximal-per-run ranges: a container with one
    /// committed run and no delete yields `0..len` and no row of it is
    /// tested.
    pub(super) fn visible_ranges(
        &self,
        as_of: u64,
        my_txn: Option<u64>,
    ) -> impl Iterator<Item = Range<usize>> + '_ {
        let (mut pos, mut ci, mut di) = (0, 0, 0);
        std::iter::from_fn(move || loop {
            while self.commits.get(ci).is_some_and(|r| r.end <= pos) {
                ci += 1;
            }
            let commit = self.commits.get(ci)?;
            if !inserted(commit.state, as_of, my_txn) {
                pos = commit.end;
                continue;
            }
            while self.deletes.get(di).is_some_and(|r| r.end <= pos) {
                di += 1;
            }
            // The stretch from `pos` that shares one delete state.
            let (end, hides) = match self.deletes.get(di) {
                Some(d) if d.start <= pos => (d.end, hidden(d.state, as_of, my_txn)),
                Some(d) => (d.start, false),
                None => (commit.end, false),
            };
            let range = pos..end.min(commit.end);
            pos = range.end;
            if !hides {
                return Some(range);
            }
        })
    }

    /// The states of the rows at `keep` (ascending), for a container
    /// rebuilt from those rows, run-length encoded as they come.
    pub(super) fn gather(&self, keep: &[u32]) -> Visibility {
        if keep.len() == self.len() {
            return self.clone();
        }
        let mut out = Visibility::default();
        for &i in keep {
            let (commit, delete) = self.get(i as usize);
            let at = out.len();
            out.push_commits(at + 1, commit);
            out.push_deletes(at, at + 1, delete);
        }
        out
    }

    /// What a table adopting this container's payload under `txn` starts
    /// from: the rows `txn` sees at `as_of` pending under it, every
    /// other row [`NEVER_VISIBLE`]. `None` when it sees no row.
    pub(super) fn handed_to(&self, as_of: u64, txn: u64) -> Option<Visibility> {
        let mut visible = self.visible_ranges(as_of, Some(txn)).peekable();
        visible.peek()?;
        let mut out = Visibility::staged(self.len(), txn);
        let mut seen = 0;
        for range in visible {
            out.push_deletes(seen, range.start, NEVER_VISIBLE);
            seen = range.end;
        }
        out.push_deletes(seen, self.len(), NEVER_VISIBLE);
        Some(out)
    }

    /// The kept count must equal a recount (debug builds).
    fn check(&self) {
        debug_assert_eq!(self.pending, {
            let mut start = 0;
            let mut n = 0;
            for run in &self.commits {
                if matches!(run.state, CommitState::Pending(_)) {
                    n += run.end - start;
                }
                start = run.end;
            }
            n + self
                .deletes
                .iter()
                .filter(|r| matches!(r.state, DeleteState::Pending(_)))
                .map(|r| r.end - r.start)
                .sum::<usize>()
        });
    }
}
