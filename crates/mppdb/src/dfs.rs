//! The database's internal distributed file system.
//!
//! The paper stores deployed PMML models "in an internal distributed
//! file system (DFS) and hence ... accessible to the database query
//! engine and User-Defined Functions" (Sec. 3.3). This is that store: a
//! flat namespace of immutable blobs replicated cluster-wide (we keep
//! one logical copy; replication of catalog-scale metadata is not load-
//! bearing for the reproduction).

use std::collections::BTreeMap;
use std::sync::Arc;

use common::locks;
use parking_lot::RwLock;

use crate::error::{DbError, DbResult};

/// A cluster-internal blob store.
#[derive(Debug)]
pub struct Dfs {
    files: RwLock<BTreeMap<String, Arc<Vec<u8>>>>,
}

impl Default for Dfs {
    fn default() -> Dfs {
        Dfs {
            files: RwLock::new(&locks::DFS_FILES, BTreeMap::new()),
        }
    }
}

impl Dfs {
    pub fn new() -> Dfs {
        Dfs::default()
    }

    /// Write a file. Fails if the path exists unless `overwrite`.
    pub fn store(&self, path: &str, data: Vec<u8>, overwrite: bool) -> DbResult<()> {
        let mut files = self.files.write();
        if !overwrite && files.contains_key(path) {
            return Err(DbError::Dfs(format!("path already exists: {path}")));
        }
        files.insert(path.to_string(), Arc::new(data));
        Ok(())
    }

    pub fn read(&self, path: &str) -> DbResult<Arc<Vec<u8>>> {
        self.files
            .read()
            .get(path)
            .cloned()
            .ok_or_else(|| DbError::Dfs(format!("no such path: {path}")))
    }

    pub fn delete(&self, path: &str) -> DbResult<()> {
        self.files
            .write()
            .remove(path)
            .map(|_| ())
            .ok_or_else(|| DbError::Dfs(format!("no such path: {path}")))
    }

    pub fn exists(&self, path: &str) -> bool {
        self.files.read().contains_key(path)
    }

    /// Paths under a prefix, sorted.
    pub fn list(&self, prefix: &str) -> Vec<String> {
        self.files
            .read()
            .keys()
            .filter(|k| k.starts_with(prefix))
            .cloned()
            .collect()
    }

    pub fn size(&self, path: &str) -> DbResult<usize> {
        self.read(path).map(|d| d.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn store_read_delete() {
        let dfs = Dfs::new();
        dfs.store("/models/m1.pmml", vec![1, 2, 3], false).unwrap();
        assert_eq!(*dfs.read("/models/m1.pmml").unwrap(), vec![1, 2, 3]);
        assert_eq!(dfs.size("/models/m1.pmml").unwrap(), 3);
        assert!(dfs.exists("/models/m1.pmml"));
        dfs.delete("/models/m1.pmml").unwrap();
        assert!(!dfs.exists("/models/m1.pmml"));
        assert!(dfs.read("/models/m1.pmml").is_err());
    }

    #[test]
    fn overwrite_guard() {
        let dfs = Dfs::new();
        dfs.store("/a", vec![1], false).unwrap();
        assert!(dfs.store("/a", vec![2], false).is_err());
        dfs.store("/a", vec![2], true).unwrap();
        assert_eq!(*dfs.read("/a").unwrap(), vec![2]);
    }

    #[test]
    fn list_by_prefix_sorted() {
        let dfs = Dfs::new();
        dfs.store("/models/b", vec![], false).unwrap();
        dfs.store("/models/a", vec![], false).unwrap();
        dfs.store("/other/c", vec![], false).unwrap();
        assert_eq!(dfs.list("/models/"), vec!["/models/a", "/models/b"]);
    }
}
