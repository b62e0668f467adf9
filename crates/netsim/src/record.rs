//! Operation recorder.
//!
//! The engines and the connector log what *actually* moved during a
//! functional run — bytes and rows per transfer, classified by network
//! (database-internal shuffle vs external system boundary), plus labeled
//! units of CPU work. The benchmark harness converts the drained log
//! into a simulator [`crate::Workload`], scaling volumes up to the
//! paper's dataset sizes.
//!
//! Recording is always on but cheap: one mutex-guarded `Vec` push per
//! transfer or work item (transfers are whole-partition, not per-row).

use std::cell::RefCell;
use std::fmt;
use std::marker::PhantomData;
use std::sync::Arc;

use common::locks;
use parking_lot::Mutex;

/// Which network a transfer crossed (the paper's hardware puts database
/// internal traffic and Spark traffic on separate 1 GbE interfaces,
/// Sec. 4.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum NetClass {
    /// Shuffle between database nodes (the traffic V2S's locality-aware
    /// queries are designed to eliminate, Sec. 3.1.2).
    DbInternal,
    /// Traffic crossing the system boundary (database ↔ compute engine,
    /// or compute engine ↔ DFS).
    External,
}

/// An endpoint of a transfer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum NodeRef {
    /// Database cluster node by index.
    Db(usize),
    /// Compute (Spark-like) cluster node by index.
    Compute(usize),
    /// DFS cluster node by index (the separate HDFS cluster of Fig. 12).
    Dfs(usize),
    /// The driver / client process.
    Client,
}

impl fmt::Display for NodeRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NodeRef::Db(i) => write!(f, "db{i}"),
            NodeRef::Compute(i) => write!(f, "compute{i}"),
            NodeRef::Dfs(i) => write!(f, "dfs{i}"),
            NodeRef::Client => write!(f, "client"),
        }
    }
}

/// What happened.
#[derive(Debug, Clone, PartialEq)]
pub enum EventKind {
    /// Bytes moved from `src` to `dst`.
    Transfer {
        src: NodeRef,
        dst: NodeRef,
        class: NetClass,
        bytes: u64,
        rows: u64,
    },
    /// Labeled CPU work on a node (e.g. "avro_encode", "hash_eval",
    /// "copy_parse"); the harness maps labels to seconds-per-row/byte
    /// constants.
    Work {
        node: NodeRef,
        label: &'static str,
        rows: u64,
        bytes: u64,
    },
    /// A fixed-latency step (connection setup, commit, table DDL).
    Setup { node: NodeRef, label: &'static str },
}

/// One recorded event, attributed to a logical task.
#[derive(Debug, Clone, PartialEq)]
pub struct Event {
    /// Logical task (partition) index within the job, or `None` for
    /// driver-side work.
    pub task: Option<u64>,
    pub kind: EventKind,
}

/// A shared, thread-safe event log.
#[derive(Debug)]
pub struct Recorder {
    events: Mutex<Vec<Event>>,
}

thread_local! {
    /// The recorders muted on this thread, by address, once per live
    /// [`MuteGuard`].
    static MUTED: RefCell<Vec<usize>> = const { RefCell::new(Vec::new()) };
}

/// RAII guard muting a recorder on the thread that took it; recording
/// resumes on drop. Not `Send`: it unmutes the thread it muted.
pub struct MuteGuard<'a> {
    recorder: &'a Recorder,
    _thread: PhantomData<*const ()>,
}

impl Drop for MuteGuard<'_> {
    fn drop(&mut self) {
        let addr = self.recorder.addr();
        MUTED.with(|muted| {
            let mut muted = muted.borrow_mut();
            if let Some(i) = muted.iter().rposition(|&a| a == addr) {
                muted.swap_remove(i);
            }
        });
    }
}

impl Recorder {
    pub fn new() -> Arc<Recorder> {
        Arc::new(Recorder {
            events: Mutex::new(&locks::RECORDER_EVENTS, Vec::new()),
        })
    }

    fn addr(&self) -> usize {
        self as *const Recorder as usize
    }

    pub fn record(&self, task: Option<u64>, kind: EventKind) {
        let addr = self.addr();
        if MUTED.with(|muted| muted.borrow().contains(&addr)) {
            return;
        }
        self.events.lock().push(Event { task, kind });
    }

    /// Suppress what this thread records until the returned guard
    /// drops; other threads keep recording. Used where a substrate
    /// operation physically moves data that the modeled system would
    /// not (e.g. an atomic table rename realized as a row copy), and
    /// everything it records happens on the calling thread.
    pub fn mute(&self) -> MuteGuard<'_> {
        let addr = self.addr();
        MUTED.with(|muted| muted.borrow_mut().push(addr));
        MuteGuard {
            recorder: self,
            _thread: PhantomData,
        }
    }

    pub fn transfer(
        &self,
        task: Option<u64>,
        src: NodeRef,
        dst: NodeRef,
        class: NetClass,
        bytes: u64,
        rows: u64,
    ) {
        self.record(
            task,
            EventKind::Transfer {
                src,
                dst,
                class,
                bytes,
                rows,
            },
        );
    }

    pub fn work(
        &self,
        task: Option<u64>,
        node: NodeRef,
        label: &'static str,
        rows: u64,
        bytes: u64,
    ) {
        self.record(
            task,
            EventKind::Work {
                node,
                label,
                rows,
                bytes,
            },
        );
    }

    pub fn setup(&self, task: Option<u64>, node: NodeRef, label: &'static str) {
        self.record(task, EventKind::Setup { node, label });
    }

    /// Remove and return all events recorded so far.
    pub fn drain(&self) -> Vec<Event> {
        std::mem::take(&mut *self.events.lock())
    }

    /// Copy of the current log without draining it.
    pub fn snapshot(&self) -> Vec<Event> {
        self.events.lock().clone()
    }

    pub fn clear(&self) {
        self.events.lock().clear();
    }

    pub fn len(&self) -> usize {
        self.events.lock().len()
    }

    pub fn is_empty(&self) -> bool {
        self.events.lock().is_empty()
    }

    /// Total bytes transferred on the given network class.
    pub fn total_bytes(&self, class: NetClass) -> u64 {
        self.events
            .lock()
            .iter()
            .filter_map(|e| match &e.kind {
                EventKind::Transfer {
                    class: c, bytes, ..
                } if *c == class => Some(*bytes),
                _ => None,
            })
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_and_drain() {
        let rec = Recorder::new();
        rec.transfer(
            Some(0),
            NodeRef::Db(1),
            NodeRef::Compute(2),
            NetClass::External,
            1000,
            10,
        );
        rec.work(Some(0), NodeRef::Db(1), "hash_eval", 10, 0);
        rec.setup(None, NodeRef::Client, "connect");
        assert_eq!(rec.len(), 3);
        let events = rec.drain();
        assert_eq!(events.len(), 3);
        assert!(rec.is_empty());
        assert_eq!(events[0].task, Some(0));
    }

    #[test]
    fn total_bytes_filters_by_class() {
        let rec = Recorder::new();
        rec.transfer(
            None,
            NodeRef::Db(0),
            NodeRef::Db(1),
            NetClass::DbInternal,
            500,
            5,
        );
        rec.transfer(
            None,
            NodeRef::Db(0),
            NodeRef::Compute(0),
            NetClass::External,
            300,
            3,
        );
        rec.transfer(
            None,
            NodeRef::Db(1),
            NodeRef::Db(2),
            NetClass::DbInternal,
            200,
            2,
        );
        assert_eq!(rec.total_bytes(NetClass::DbInternal), 700);
        assert_eq!(rec.total_bytes(NetClass::External), 300);
    }

    #[test]
    fn a_mute_holds_on_its_own_thread_only() {
        let rec = Recorder::new();
        let other = Recorder::new();
        {
            let _outer = rec.mute();
            {
                let _inner = rec.mute();
                rec.setup(None, NodeRef::Client, "muted");
            }
            rec.setup(None, NodeRef::Client, "still muted");
            other.setup(None, NodeRef::Client, "another recorder");
            std::thread::scope(|s| {
                s.spawn(|| rec.setup(None, NodeRef::Client, "another thread"));
            });
        }
        rec.setup(None, NodeRef::Client, "unmuted");
        let labels = |r: &Recorder| -> Vec<&'static str> {
            r.drain()
                .into_iter()
                .map(|e| match e.kind {
                    EventKind::Setup { label, .. } => label,
                    kind => panic!("unexpected {kind:?}"),
                })
                .collect()
        };
        assert_eq!(labels(&rec), ["another thread", "unmuted"]);
        assert_eq!(labels(&other), ["another recorder"]);
    }

    #[test]
    fn concurrent_recording() {
        let rec = Recorder::new();
        std::thread::scope(|s| {
            for t in 0..8 {
                let rec = Arc::clone(&rec);
                s.spawn(move || {
                    for _ in 0..100 {
                        rec.work(Some(t), NodeRef::Compute(0), "w", 1, 1);
                    }
                });
            }
        });
        assert_eq!(rec.len(), 800);
    }
}
