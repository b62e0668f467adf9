//! Namenode + datanodes.

use std::collections::BTreeMap;
use std::fmt;
use std::sync::Arc;

use common::locks;
use netsim::record::{NetClass, NodeRef, Recorder};
use parking_lot::RwLock;

/// DFS configuration.
#[derive(Debug, Clone)]
pub struct DfsConfig {
    pub nodes: usize,
    /// Block size in bytes (the paper's default: 64 MB).
    pub block_size: usize,
    /// Replication factor (the paper's default: 3).
    pub replication: usize,
}

impl Default for DfsConfig {
    fn default() -> DfsConfig {
        DfsConfig {
            nodes: 4,
            block_size: 64 << 20,
            replication: 3,
        }
    }
}

/// DFS errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DfsError {
    NoSuchFile(String),
    FileExists(String),
    BlockOutOfRange { path: String, block: usize },
    Corrupt(String),
}

impl fmt::Display for DfsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DfsError::NoSuchFile(p) => write!(f, "no such file: {p}"),
            DfsError::FileExists(p) => write!(f, "file exists: {p}"),
            DfsError::BlockOutOfRange { path, block } => {
                write!(f, "block {block} out of range for {path}")
            }
            DfsError::Corrupt(msg) => write!(f, "corrupt file: {msg}"),
        }
    }
}

impl std::error::Error for DfsError {}

#[derive(Debug, Clone)]
struct BlockMeta {
    /// Datanode indices holding a replica; the first is primary.
    locations: Vec<usize>,
    len: usize,
}

#[derive(Debug, Default)]
struct NameNode {
    /// path → per-block metadata, in block order.
    files: BTreeMap<String, Vec<BlockMeta>>,
}

#[derive(Debug, Default)]
struct DataNode {
    /// (path, block index) → bytes.
    blocks: BTreeMap<(String, usize), Arc<Vec<u8>>>,
}

/// The DFS cluster.
pub struct DfsClusterSim {
    config: DfsConfig,
    namenode: RwLock<NameNode>,
    datanodes: Vec<RwLock<DataNode>>,
    recorder: Arc<Recorder>,
    /// Round-robin cursor for block placement.
    place_cursor: parking_lot::Mutex<usize>,
}

impl DfsClusterSim {
    pub fn new(config: DfsConfig) -> Arc<DfsClusterSim> {
        Self::with_recorder(config, Recorder::new())
    }

    /// Share a recorder with the compute engine so the benchmark
    /// harness sees one unified transfer log.
    pub fn with_recorder(config: DfsConfig, recorder: Arc<Recorder>) -> Arc<DfsClusterSim> {
        assert!(config.nodes > 0, "DFS needs at least one datanode");
        assert!(config.block_size > 0, "block size must be positive");
        let datanodes = (0..config.nodes)
            .map(|_| RwLock::new(&locks::DFSLITE_DATANODE, DataNode::default()))
            .collect();
        Arc::new(DfsClusterSim {
            config,
            namenode: RwLock::new(&locks::DFSLITE_NAMENODE, NameNode::default()),
            datanodes,
            recorder,
            place_cursor: parking_lot::Mutex::new(&locks::DFSLITE_PLACEMENT, 0),
        })
    }

    pub fn config(&self) -> &DfsConfig {
        &self.config
    }

    pub fn recorder(&self) -> &Arc<Recorder> {
        &self.recorder
    }

    /// Create a file from `writer`'s bytes. `writer` is the recorded
    /// source endpoint (e.g. a compute node writing a partition file).
    pub fn create(
        &self,
        path: &str,
        data: &[u8],
        writer: NodeRef,
        task: Option<u64>,
    ) -> Result<(), DfsError> {
        {
            let namenode = self.namenode.read();
            if namenode.files.contains_key(path) {
                return Err(DfsError::FileExists(path.to_string()));
            }
        }
        let replication = self.config.replication.min(self.config.nodes);
        let mut metas = Vec::new();
        let block_count = data.len().div_ceil(self.config.block_size).max(1);
        for b in 0..block_count {
            let lo = b * self.config.block_size;
            let hi = (lo + self.config.block_size).min(data.len());
            let bytes = Arc::new(data[lo..hi].to_vec());
            let primary = {
                let mut cursor = self.place_cursor.lock();
                let p = *cursor % self.config.nodes;
                *cursor += 1;
                p
            };
            let locations: Vec<usize> = (0..replication)
                .map(|r| (primary + r) % self.config.nodes)
                .collect();
            for (r, &node) in locations.iter().enumerate() {
                if r == 0 {
                    // The primary copy crosses the system boundary.
                    self.recorder.transfer(
                        task,
                        writer,
                        NodeRef::Dfs(node),
                        NetClass::External,
                        bytes.len() as u64,
                        0,
                    );
                } else {
                    // Replication hops ride the DFS cluster's internal
                    // network, pipelined from the primary.
                    self.recorder.transfer(
                        task,
                        NodeRef::Dfs(primary),
                        NodeRef::Dfs(node),
                        NetClass::DbInternal,
                        bytes.len() as u64,
                        0,
                    );
                }
                self.datanodes[node]
                    .write()
                    .blocks
                    .insert((path.to_string(), b), Arc::clone(&bytes));
            }
            metas.push(BlockMeta {
                locations,
                len: bytes.len(),
            });
        }
        self.namenode.write().files.insert(path.to_string(), metas);
        Ok(())
    }

    /// Number of blocks of a file (drives Spark's default partition
    /// count for DFS reads, Sec. 4.7.2).
    pub fn block_count(&self, path: &str) -> Result<usize, DfsError> {
        self.namenode
            .read()
            .files
            .get(path)
            .map(Vec::len)
            .ok_or_else(|| DfsError::NoSuchFile(path.to_string()))
    }

    /// Read one block, attributing the transfer to `reader`.
    pub fn read_block(
        &self,
        path: &str,
        block: usize,
        reader: NodeRef,
        task: Option<u64>,
    ) -> Result<Arc<Vec<u8>>, DfsError> {
        let meta = {
            let namenode = self.namenode.read();
            let blocks = namenode
                .files
                .get(path)
                .ok_or_else(|| DfsError::NoSuchFile(path.to_string()))?;
            blocks
                .get(block)
                .ok_or_else(|| DfsError::BlockOutOfRange {
                    path: path.to_string(),
                    block,
                })?
                .clone()
        };
        // Serve from the primary replica.
        let node = meta.locations[0];
        let bytes = self.datanodes[node]
            .read()
            .blocks
            .get(&(path.to_string(), block))
            .cloned()
            .ok_or_else(|| {
                DfsError::Corrupt(format!("{path} block {block} missing on node {node}"))
            })?;
        self.recorder.transfer(
            task,
            NodeRef::Dfs(node),
            reader,
            NetClass::External,
            meta.len as u64,
            0,
        );
        Ok(bytes)
    }

    /// Read a whole file.
    pub fn read(
        &self,
        path: &str,
        reader: NodeRef,
        task: Option<u64>,
    ) -> Result<Vec<u8>, DfsError> {
        let blocks = self.block_count(path)?;
        let mut out = Vec::new();
        for b in 0..blocks {
            out.extend_from_slice(&self.read_block(path, b, reader, task)?);
        }
        Ok(out)
    }

    pub fn exists(&self, path: &str) -> bool {
        self.namenode.read().files.contains_key(path)
    }

    pub fn delete(&self, path: &str) -> Result<(), DfsError> {
        let metas = self
            .namenode
            .write()
            .files
            .remove(path)
            .ok_or_else(|| DfsError::NoSuchFile(path.to_string()))?;
        for (b, meta) in metas.iter().enumerate() {
            for &node in &meta.locations {
                self.datanodes[node]
                    .write()
                    .blocks
                    .remove(&(path.to_string(), b));
            }
        }
        Ok(())
    }

    /// Paths under a prefix, sorted (used to enumerate part files).
    pub fn list(&self, prefix: &str) -> Vec<String> {
        self.namenode
            .read()
            .files
            .keys()
            .filter(|k| k.starts_with(prefix))
            .cloned()
            .collect()
    }

    pub fn file_len(&self, path: &str) -> Result<usize, DfsError> {
        self.namenode
            .read()
            .files
            .get(path)
            .map(|blocks| blocks.iter().map(|b| b.len).sum())
            .ok_or_else(|| DfsError::NoSuchFile(path.to_string()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_dfs() -> Arc<DfsClusterSim> {
        DfsClusterSim::new(DfsConfig {
            nodes: 4,
            block_size: 10,
            replication: 3,
        })
    }

    #[test]
    fn create_read_round_trip() {
        let dfs = small_dfs();
        let data: Vec<u8> = (0..35).collect();
        dfs.create("/d/f", &data, NodeRef::Client, None).unwrap();
        assert_eq!(dfs.block_count("/d/f").unwrap(), 4);
        assert_eq!(dfs.file_len("/d/f").unwrap(), 35);
        assert_eq!(dfs.read("/d/f", NodeRef::Client, None).unwrap(), data);
    }

    #[test]
    fn blocks_replicated_three_times() {
        let dfs = small_dfs();
        dfs.create("/f", &[1u8; 25], NodeRef::Client, None).unwrap();
        let held: usize = dfs.datanodes.iter().map(|dn| dn.read().blocks.len()).sum();
        assert_eq!(held, 3 * 3, "3 blocks × 3 replicas");
    }

    #[test]
    fn duplicate_create_rejected() {
        let dfs = small_dfs();
        dfs.create("/f", &[0u8; 5], NodeRef::Client, None).unwrap();
        assert_eq!(
            dfs.create("/f", &[0u8; 5], NodeRef::Client, None),
            Err(DfsError::FileExists("/f".into()))
        );
    }

    #[test]
    fn delete_removes_all_replicas() {
        let dfs = small_dfs();
        dfs.create("/f", &[0u8; 25], NodeRef::Client, None).unwrap();
        dfs.delete("/f").unwrap();
        assert!(!dfs.exists("/f"));
        let held: usize = dfs.datanodes.iter().map(|dn| dn.read().blocks.len()).sum();
        assert_eq!(held, 0);
        assert!(dfs.read("/f", NodeRef::Client, None).is_err());
    }

    #[test]
    fn list_by_prefix() {
        let dfs = small_dfs();
        dfs.create("/out/part-0", &[1], NodeRef::Client, None)
            .unwrap();
        dfs.create("/out/part-1", &[2], NodeRef::Client, None)
            .unwrap();
        dfs.create("/other", &[3], NodeRef::Client, None).unwrap();
        assert_eq!(dfs.list("/out/"), vec!["/out/part-0", "/out/part-1"]);
    }

    #[test]
    fn empty_file_has_one_block() {
        let dfs = small_dfs();
        dfs.create("/empty", &[], NodeRef::Client, None).unwrap();
        assert_eq!(dfs.block_count("/empty").unwrap(), 1);
        assert_eq!(
            dfs.read("/empty", NodeRef::Client, None).unwrap(),
            Vec::<u8>::new()
        );
    }

    #[test]
    fn transfers_recorded_per_replica_and_read() {
        let dfs = small_dfs();
        dfs.recorder().clear();
        dfs.create("/f", &[0u8; 20], NodeRef::Compute(1), None)
            .unwrap();
        // 2 blocks: 1 external ingest + 2 internal replication hops each.
        assert_eq!(dfs.recorder().len(), 6);
        assert_eq!(dfs.recorder().total_bytes(NetClass::External), 20);
        assert_eq!(dfs.recorder().total_bytes(NetClass::DbInternal), 40);
        dfs.read("/f", NodeRef::Compute(2), None).unwrap();
        assert_eq!(dfs.recorder().len(), 8);
        assert_eq!(dfs.recorder().total_bytes(NetClass::External), 40);
    }
}
// (extended tests)
#[cfg(test)]
mod placement_tests {
    use super::*;

    #[test]
    fn block_placement_round_robins_primaries() {
        let dfs = DfsClusterSim::new(DfsConfig {
            nodes: 4,
            block_size: 4,
            replication: 1,
        });
        dfs.create("/f", &[0u8; 16], NodeRef::Client, None).unwrap();
        // 4 blocks, replication 1: each datanode holds exactly one.
        let counts: Vec<usize> = dfs
            .datanodes
            .iter()
            .map(|dn| dn.read().blocks.len())
            .collect();
        assert_eq!(counts, vec![1, 1, 1, 1]);
    }

    #[test]
    fn replication_capped_at_node_count() {
        let dfs = DfsClusterSim::new(DfsConfig {
            nodes: 2,
            block_size: 64,
            replication: 3,
        });
        dfs.create("/f", &[1u8; 10], NodeRef::Client, None).unwrap();
        let held: usize = dfs.datanodes.iter().map(|dn| dn.read().blocks.len()).sum();
        assert_eq!(held, 2, "replication clamps to the node count");
    }

    #[test]
    fn read_block_out_of_range() {
        let dfs = DfsClusterSim::new(DfsConfig::default());
        dfs.create("/f", &[1u8; 10], NodeRef::Client, None).unwrap();
        assert!(matches!(
            dfs.read_block("/f", 5, NodeRef::Client, None),
            Err(DfsError::BlockOutOfRange { block: 5, .. })
        ));
        assert!(matches!(
            dfs.read_block("/nope", 0, NodeRef::Client, None),
            Err(DfsError::NoSuchFile(_))
        ));
    }
}
