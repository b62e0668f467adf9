//! Node-local storage: write-optimized buffer (WOS), read-optimized
//! encoded containers (ROS), delete vectors, the tuple mover, and
//! per-container statistics (zone maps, null counts, NDV sketches).

pub mod batch;
pub mod encoding;
pub mod mover;
mod predicate;
pub mod stats;
pub mod store;

pub use batch::{Bitmap, ColumnBatch, ColumnVec};
pub use encoding::ColumnData;
pub use mover::{MoverOp, MoverPassReport, MOVER_POOL};
pub use stats::{ColumnStats, ContainerStats};
pub use store::{
    AggScanOutput, BatchScan, CommitState, ContainerInfo, CountOutput, MergeOutcome,
    NodeTableStore, RowLoc, ScanCounters, ScanOutput, StorageStats, VisibleRow,
};
