//! SQL abstract syntax trees.

use common::{DataType, Value};

/// Binary operators at the SQL level (superset of the shared expression
/// operators; lowering maps them 1:1).
pub use common::expr::BinaryOp;

/// A SQL scalar expression.
#[derive(Debug, Clone, PartialEq)]
pub enum ExprAst {
    Column {
        qualifier: Option<String>,
        name: String,
    },
    Literal(Value),
    Binary {
        left: Box<ExprAst>,
        op: BinaryOp,
        right: Box<ExprAst>,
    },
    Not(Box<ExprAst>),
    Neg(Box<ExprAst>),
    IsNull(Box<ExprAst>),
    IsNotNull(Box<ExprAst>),
    Like {
        expr: Box<ExprAst>,
        pattern: String,
    },
    /// Function call: an aggregate (COUNT/SUM/AVG/MIN/MAX), or a scalar
    /// UDx, optionally with `USING PARAMETERS k='v', ...`.
    FuncCall {
        name: String,
        args: Vec<ExprAst>,
        parameters: Vec<(String, Value)>,
    },
    /// `*` — only valid inside `COUNT(*)` or as a bare select item.
    Star,
}

impl ExprAst {
    pub fn col(name: impl Into<String>) -> ExprAst {
        ExprAst::Column {
            qualifier: None,
            name: name.into(),
        }
    }

    pub fn lit(v: impl Into<Value>) -> ExprAst {
        ExprAst::Literal(v.into())
    }

    /// Whether this expression (recursively) contains an aggregate call.
    pub fn contains_aggregate(&self) -> bool {
        match self {
            ExprAst::FuncCall { name, args, .. } => {
                is_aggregate_name(name) || args.iter().any(|a| a.contains_aggregate())
            }
            ExprAst::Binary { left, right, .. } => {
                left.contains_aggregate() || right.contains_aggregate()
            }
            ExprAst::Not(e) | ExprAst::Neg(e) | ExprAst::IsNull(e) | ExprAst::IsNotNull(e) => {
                e.contains_aggregate()
            }
            ExprAst::Like { expr, .. } => expr.contains_aggregate(),
            _ => false,
        }
    }
}

/// Names treated as built-in aggregates by the executor.
pub fn is_aggregate_name(name: &str) -> bool {
    matches!(
        name.to_ascii_uppercase().as_str(),
        "COUNT" | "SUM" | "AVG" | "MIN" | "MAX"
    )
}

/// One item of a SELECT list.
#[derive(Debug, Clone, PartialEq)]
pub enum SelectItem {
    /// `*`
    Star,
    /// An expression with an optional alias.
    Expr {
        expr: ExprAst,
        alias: Option<String>,
    },
}

/// A table reference with an optional alias.
#[derive(Debug, Clone, PartialEq)]
pub struct TableRef {
    pub table: String,
    pub alias: Option<String>,
}

impl TableRef {
    /// The name a qualified column reaches the relation by: its alias,
    /// which hides the table name, else the table name.
    pub fn visible_name(&self) -> &str {
        self.alias.as_deref().unwrap_or(&self.table)
    }
}

/// An inner join.
#[derive(Debug, Clone, PartialEq)]
pub struct Join {
    pub table: TableRef,
    pub on: ExprAst,
}

/// One ORDER BY key: an output column name or 1-based position, with
/// direction.
#[derive(Debug, Clone, PartialEq)]
pub struct OrderKey {
    pub key: OrderTarget,
    pub descending: bool,
}

#[derive(Debug, Clone, PartialEq)]
pub enum OrderTarget {
    Column(String),
    Position(usize),
}

/// A SELECT statement.
#[derive(Debug, Clone, PartialEq)]
pub struct SelectStmt {
    pub items: Vec<SelectItem>,
    pub from: Option<TableRef>,
    pub joins: Vec<Join>,
    pub predicate: Option<ExprAst>,
    pub group_by: Vec<ExprAst>,
    pub order_by: Vec<OrderKey>,
    /// `AT EPOCH n` — pin the read to a specific epoch; `AT EPOCH
    /// LATEST` / absent reads the last committed epoch.
    pub at_epoch: Option<u64>,
    pub limit: Option<u64>,
}

impl SelectStmt {
    /// `SELECT * FROM table` — convenience for tests and view setup.
    pub fn simple_scan(table: impl Into<String>) -> SelectStmt {
        SelectStmt {
            items: vec![SelectItem::Star],
            from: Some(TableRef {
                table: table.into(),
                alias: None,
            }),
            joins: Vec::new(),
            predicate: None,
            group_by: Vec::new(),
            order_by: Vec::new(),
            at_epoch: None,
            limit: None,
        }
    }
}

/// Column definition in CREATE TABLE.
#[derive(Debug, Clone, PartialEq)]
pub struct ColumnDef {
    pub name: String,
    pub dtype: DataType,
    pub not_null: bool,
}

/// Segmentation clause of CREATE TABLE.
#[derive(Debug, Clone, PartialEq)]
pub enum SegmentationClause {
    /// Default: hash of all columns.
    Default,
    /// `SEGMENTED BY HASH(col, ...) ALL NODES`
    ByHash(Vec<String>),
    /// `UNSEGMENTED ALL NODES`
    Unsegmented,
}

/// A parsed SQL statement.
#[derive(Debug, Clone, PartialEq)]
pub enum Statement {
    CreateTable {
        name: String,
        columns: Vec<ColumnDef>,
        segmentation: SegmentationClause,
        if_not_exists: bool,
        temp: bool,
    },
    DropTable {
        name: String,
        if_exists: bool,
    },
    CreateView {
        name: String,
        select: SelectStmt,
    },
    DropView {
        name: String,
    },
    Insert {
        table: String,
        columns: Option<Vec<String>>,
        rows: Vec<Vec<ExprAst>>,
    },
    /// `INSERT INTO table SELECT ...`
    InsertSelect {
        table: String,
        select: SelectStmt,
    },
    Update {
        table: String,
        assignments: Vec<(String, ExprAst)>,
        predicate: Option<ExprAst>,
    },
    Delete {
        table: String,
        predicate: Option<ExprAst>,
    },
    Select(SelectStmt),
    /// `EXPLAIN SELECT ...` — describe the plan without executing it.
    Explain(SelectStmt),
    Begin,
    Commit,
    Rollback,
}
