//! The system catalog: table and view definitions, and the metadata
//! queries clients use to discover segmentation (paper Sec. 3.1.2: "this
//! information is stored in the Vertica system catalog and can be
//! queried").

use std::collections::HashMap;

use common::Schema;

use crate::error::{DbError, DbResult};
use crate::sql::ast::SelectStmt;

/// How a table's rows are placed across nodes.
#[derive(Debug, Clone, PartialEq)]
pub enum Segmentation {
    /// `SEGMENTED BY HASH(columns) ALL NODES`: rows hash onto the ring.
    ByHash(Vec<String>),
    /// `UNSEGMENTED ALL NODES`: the table is replicated on every node.
    Unsegmented,
}

/// A table definition.
#[derive(Debug, Clone, PartialEq)]
pub struct TableDef {
    pub name: String,
    pub schema: Schema,
    pub segmentation: Segmentation,
    /// Ordinals of the segmentation columns (empty when unsegmented).
    pub seg_columns: Vec<usize>,
    /// Temp tables are bookkeeping objects (e.g. S2V staging/status
    /// tables); they behave like tables, a rebalance migrating them with
    /// the rest, but are flagged in the catalog.
    pub is_temp: bool,
    /// Version of the segment map that was authoritative when the
    /// cluster created the table. While it is still the newest version
    /// and no rebalance is pending, every row of the table sits where
    /// an insert would place it now.
    pub map_version: u64,
}

impl TableDef {
    /// Build a definition, resolving segmentation column names. When
    /// `segmentation` is `ByHash` with an empty column list, all columns
    /// are used (the engine's default segmentation expression).
    pub fn new(
        name: impl Into<String>,
        schema: Schema,
        segmentation: Segmentation,
    ) -> DbResult<TableDef> {
        let name = normalize(&name.into());
        let (segmentation, seg_columns) = match segmentation {
            Segmentation::ByHash(cols) if cols.is_empty() => {
                let all: Vec<String> = schema.fields().iter().map(|f| f.name.clone()).collect();
                let idx = (0..schema.len()).collect();
                (Segmentation::ByHash(all), idx)
            }
            Segmentation::ByHash(cols) => {
                let idx = cols
                    .iter()
                    .map(|c| schema.index_of(c))
                    .collect::<Result<Vec<_>, _>>()?;
                (Segmentation::ByHash(cols), idx)
            }
            Segmentation::Unsegmented => (Segmentation::Unsegmented, Vec::new()),
        };
        Ok(TableDef {
            name,
            schema,
            segmentation,
            seg_columns,
            is_temp: false,
            map_version: 0,
        })
    }

    pub fn temp(mut self) -> TableDef {
        self.is_temp = true;
        self
    }

    pub fn is_segmented(&self) -> bool {
        matches!(self.segmentation, Segmentation::ByHash(_))
    }
}

/// A view: a named, stored SELECT.
#[derive(Debug, Clone, PartialEq)]
pub struct ViewDef {
    pub name: String,
    pub select: SelectStmt,
}

/// The catalog. Object names are case-insensitive (normalized to
/// lowercase).
#[derive(Debug, Default)]
pub struct Catalog {
    tables: HashMap<String, TableDef>,
    views: HashMap<String, ViewDef>,
}

pub(crate) fn normalize(name: &str) -> String {
    name.to_ascii_lowercase()
}

impl Catalog {
    pub fn new() -> Catalog {
        Catalog::default()
    }

    pub fn create_table(&mut self, def: TableDef) -> DbResult<()> {
        if self.tables.contains_key(&def.name) || self.views.contains_key(&def.name) {
            return Err(DbError::TableExists(def.name.clone()));
        }
        self.tables.insert(def.name.clone(), def);
        Ok(())
    }

    pub fn drop_table(&mut self, name: &str) -> DbResult<TableDef> {
        self.tables
            .remove(&normalize(name))
            .ok_or_else(|| DbError::UnknownTable(name.to_string()))
    }

    pub fn table(&self, name: &str) -> DbResult<&TableDef> {
        self.tables
            .get(&normalize(name))
            .ok_or_else(|| DbError::UnknownTable(name.to_string()))
    }

    pub fn has_table(&self, name: &str) -> bool {
        self.tables.contains_key(&normalize(name))
    }

    pub fn create_view(&mut self, name: impl Into<String>, select: SelectStmt) -> DbResult<()> {
        let name = normalize(&name.into());
        if self.tables.contains_key(&name) || self.views.contains_key(&name) {
            return Err(DbError::TableExists(name));
        }
        self.views.insert(name.clone(), ViewDef { name, select });
        Ok(())
    }

    pub fn drop_view(&mut self, name: &str) -> DbResult<ViewDef> {
        self.views
            .remove(&normalize(name))
            .ok_or_else(|| DbError::UnknownTable(name.to_string()))
    }

    pub fn view(&self, name: &str) -> Option<&ViewDef> {
        self.views.get(&normalize(name))
    }

    pub fn table_names(&self) -> Vec<String> {
        let mut names: Vec<String> = self.tables.keys().cloned().collect();
        names.sort();
        names
    }

    pub fn view_names(&self) -> Vec<String> {
        let mut names: Vec<String> = self.views.keys().cloned().collect();
        names.sort();
        names
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use common::DataType;

    fn schema() -> Schema {
        Schema::from_pairs(&[("id", DataType::Int64), ("x", DataType::Float64)])
    }

    #[test]
    fn default_segmentation_uses_all_columns() {
        let def = TableDef::new("T1", schema(), Segmentation::ByHash(vec![])).unwrap();
        assert_eq!(def.name, "t1");
        assert_eq!(def.seg_columns, vec![0, 1]);
    }

    #[test]
    fn explicit_segmentation_columns_resolved() {
        let def = TableDef::new("t", schema(), Segmentation::ByHash(vec!["x".into()])).unwrap();
        assert_eq!(def.seg_columns, vec![1]);
        assert!(TableDef::new("t", schema(), Segmentation::ByHash(vec!["nope".into()])).is_err());
    }

    #[test]
    fn unsegmented_has_no_seg_columns() {
        let def = TableDef::new("t", schema(), Segmentation::Unsegmented).unwrap();
        assert!(def.seg_columns.is_empty());
        assert!(!def.is_segmented());
    }

    #[test]
    fn catalog_create_lookup_drop_case_insensitive() {
        let mut cat = Catalog::new();
        let def = TableDef::new("Orders", schema(), Segmentation::ByHash(vec![])).unwrap();
        cat.create_table(def.clone()).unwrap();
        assert!(cat.table("ORDERS").is_ok());
        assert!(cat.has_table("orders"));
        assert_eq!(
            cat.create_table(def),
            Err(DbError::TableExists("orders".into()))
        );
        cat.drop_table("orders").unwrap();
        assert!(cat.table("orders").is_err());
    }

    #[test]
    fn view_name_conflicts_with_table() {
        let mut cat = Catalog::new();
        cat.create_table(TableDef::new("t", schema(), Segmentation::ByHash(vec![])).unwrap())
            .unwrap();
        let select = SelectStmt::simple_scan("t");
        assert!(cat.create_view("t", select.clone()).is_err());
        cat.create_view("v", select).unwrap();
        assert!(cat.view("V").is_some());
        assert_eq!(cat.view_names(), vec!["v"]);
        cat.drop_view("v").unwrap();
        assert!(cat.view("v").is_none());
    }
}
