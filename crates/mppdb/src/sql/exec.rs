//! SQL statement execution.

use std::sync::Arc;

use common::agg::{AggCall, AggFunc, AggRequest, GroupedAccs};
use common::expr::BinaryOp;
use common::{DataType, Expr, Field, Row, Schema, Value};
use netsim::record::NodeRef;

use crate::catalog::{Segmentation, TableDef};
use crate::cluster::{Cluster, OnPredicateError};
use crate::error::{DbError, DbResult};
use crate::query::{apply_spec_to_rows, QueryResult, QuerySpec};
use crate::session::Session;
use crate::sql::ast::{
    is_aggregate_name, ExprAst, OrderTarget, SegmentationClause, SelectItem, SelectStmt, Statement,
    TableRef,
};
use crate::udf::{ScalarUdf, UdfParams};

/// Result of executing one SQL statement.
#[derive(Debug, Clone)]
pub enum SqlResult {
    /// SELECT output.
    Rows(QueryResult),
    /// DML row count.
    Affected(u64),
    /// DDL / transaction control.
    Ok,
}

impl SqlResult {
    /// The rows of a SELECT result; errors for non-SELECT statements.
    pub fn rows(self) -> DbResult<QueryResult> {
        match self {
            SqlResult::Rows(r) => Ok(r),
            other => Err(DbError::Execution(format!(
                "statement did not produce rows: {other:?}"
            ))),
        }
    }

    pub fn affected(self) -> DbResult<u64> {
        match self {
            SqlResult::Affected(n) => Ok(n),
            SqlResult::Rows(r) => Ok(r.count),
            SqlResult::Ok => Ok(0),
        }
    }
}

/// Maximum view-in-view nesting.
const MAX_VIEW_DEPTH: usize = 16;

/// Describe a SELECT's plan (EXPLAIN) as one text row per plan line.
fn explain_select(session: &mut Session, select: &SelectStmt) -> DbResult<QueryResult> {
    let cluster = session.cluster();
    let epoch = session.resolve_epoch(select.at_epoch)?;
    let mut lines: Vec<String> = Vec::new();
    lines.push(format!("epoch: {epoch} (pinned snapshot)"));

    if let Some(from) = &select.from {
        let name = &from.table;
        if crate::system::scan_system_table(cluster, name).is_some() {
            lines.push(format!("scan: system table {name}"));
        } else if cluster.catalog.read().view(name).is_some() {
            lines.push(format!(
                "scan: view {name} (executed at epoch {epoch}; synthetic row ranges available)"
            ));
        } else {
            let def = cluster.table_def(name)?;
            if def.is_segmented() {
                let map = cluster.segment_map();
                lines.push(format!(
                    "scan: table {} over {} hash segments (map v{}, locality-aware node-local ranges)",
                    def.name,
                    map.segments().len(),
                    map.version()
                ));
                for (s, seg) in map.segments().iter().enumerate() {
                    lines.push(format!(
                        "  segment {s} on node {}: [{:016x}, {})",
                        seg.owner,
                        seg.range.start,
                        seg.range
                            .end
                            .map(|e| format!("{e:016x}"))
                            .unwrap_or_else(|| "2^64".into())
                    ));
                }
            } else {
                lines.push(format!(
                    "scan: unsegmented table {} (served from the session's local replica)",
                    def.name
                ));
            }
        }
    } else {
        lines.push("scan: none (constant select)".to_string());
    }

    for join in &select.joins {
        lines.push(format!(
            "join: {} ON {:?} (hash join on simple equality, else nested loop)",
            join.table.table, join.on
        ));
    }
    // What the executor itself will hand to storage, if anything.
    let pushed = lower_select(select).map(|lowered| lowered.spec);
    if let Some(pred) = &select.predicate {
        let pushed = pushed.as_ref().and_then(|spec| spec.predicate.as_ref());
        let relation = select.from.as_ref().map(TableRef::visible_name);
        match (pushed, lower(pred, relation)) {
            (Some(e), _) => lines.push(format!("filter: {} [pushed down to storage]", e.to_sql())),
            (None, Ok(e)) => lines.push(format!(
                "filter: {} [evaluated in the executor]",
                e.to_sql()
            )),
            (None, Err(_)) => {
                lines.push("filter: (contains functions; evaluated in the executor)".into())
            }
        }
    }
    if is_aggregating(select) {
        lines.push(format!(
            "aggregate: {} group key(s), {} output item(s){}",
            select.group_by.len(),
            select.items.len(),
            if pushed.is_some() {
                " [pushed down to storage]"
            } else {
                ""
            }
        ));
    } else if pushed.is_some() {
        lines.push("projection: [pushed down to storage]".to_string());
    } else {
        lines.push("projection: evaluated in the executor".to_string());
    }
    if !select.order_by.is_empty() {
        lines.push(format!("sort: {} key(s)", select.order_by.len()));
    }
    if let Some(limit) = select.limit {
        lines.push(format!("limit: {limit}"));
    }

    let schema = Schema::from_pairs(&[("plan", DataType::Varchar)]);
    let rows: Vec<Row> = lines
        .into_iter()
        .map(|l| Row::new(vec![Value::Varchar(l)]))
        .collect();
    Ok(QueryResult {
        count: rows.len() as u64,
        schema,
        rows,
        epoch,
        batch: None,
    })
}

pub(crate) fn execute_statement(session: &mut Session, stmt: Statement) -> DbResult<SqlResult> {
    match stmt {
        Statement::CreateTable {
            name,
            columns,
            segmentation,
            if_not_exists,
            temp,
        } => {
            if if_not_exists && session.cluster().has_table(&name) {
                return Ok(SqlResult::Ok);
            }
            let schema = Schema::new(
                columns
                    .into_iter()
                    .map(|c| Field {
                        name: c.name,
                        dtype: c.dtype,
                        nullable: !c.not_null,
                    })
                    .collect(),
            );
            let seg = match segmentation {
                SegmentationClause::Default => Segmentation::ByHash(vec![]),
                SegmentationClause::ByHash(cols) => Segmentation::ByHash(cols),
                SegmentationClause::Unsegmented => Segmentation::Unsegmented,
            };
            let mut def = TableDef::new(name, schema, seg)?;
            if temp {
                def = def.temp();
            }
            session.cluster().create_table(def)?;
            Ok(SqlResult::Ok)
        }
        Statement::DropTable { name, if_exists } => match session.cluster().drop_table(&name) {
            Ok(()) => Ok(SqlResult::Ok),
            Err(DbError::UnknownTable(_)) if if_exists => Ok(SqlResult::Ok),
            Err(e) => Err(e),
        },
        Statement::CreateView { name, select } => {
            session.cluster().create_view(&name, select)?;
            Ok(SqlResult::Ok)
        }
        Statement::DropView { name } => {
            session.cluster().drop_view(&name)?;
            Ok(SqlResult::Ok)
        }
        Statement::Insert {
            table,
            columns,
            rows,
        } => execute_insert(session, &table, columns, rows),
        Statement::InsertSelect { table, select } => {
            let def = session.cluster().table_def(&table)?;
            let result = execute_select(session, &select, 0)?;
            if !def.schema.compatible_with(&result.schema) {
                return Err(DbError::Execution(format!(
                    "INSERT SELECT: query schema {} incompatible with table {}",
                    result.schema, def.schema
                )));
            }
            let n = session.insert(&table, result.rows)?;
            Ok(SqlResult::Affected(n))
        }
        Statement::Update {
            table,
            assignments,
            predicate,
        } => execute_update(session, &table, assignments, predicate),
        Statement::Delete { table, predicate } => {
            let def = session.cluster().table_def(&table)?;
            let pred = predicate
                .map(|p| lower_scalar(&p).and_then(|e| e.bind(&def.schema).map_err(DbError::Data)))
                .transpose()?;
            let n = session.with_txn(|cluster, txn, _node, tag| {
                cluster.delete_where(txn, tag, &table, pred.as_ref())
            })?;
            Ok(SqlResult::Affected(n))
        }
        Statement::Select(select) => Ok(SqlResult::Rows(execute_select(session, &select, 0)?)),
        Statement::Explain(select) => Ok(SqlResult::Rows(explain_select(session, &select)?)),
        Statement::Begin => {
            session.begin()?;
            Ok(SqlResult::Ok)
        }
        Statement::Commit => {
            session.commit()?;
            Ok(SqlResult::Ok)
        }
        Statement::Rollback => {
            session.rollback()?;
            Ok(SqlResult::Ok)
        }
    }
}

fn execute_insert(
    session: &mut Session,
    table: &str,
    columns: Option<Vec<String>>,
    value_rows: Vec<Vec<ExprAst>>,
) -> DbResult<SqlResult> {
    let def = session.cluster().table_def(table)?;
    // Map provided columns to schema ordinals.
    let target_idx: Vec<usize> = match &columns {
        Some(cols) => cols
            .iter()
            .map(|c| def.schema.index_of(c))
            .collect::<Result<Vec<_>, _>>()
            .map_err(DbError::Data)?,
        None => (0..def.schema.len()).collect(),
    };
    let mut rows = Vec::with_capacity(value_rows.len());
    for exprs in value_rows {
        if exprs.len() != target_idx.len() {
            return Err(DbError::Execution(format!(
                "INSERT has {} values for {} columns",
                exprs.len(),
                target_idx.len()
            )));
        }
        let mut values = vec![Value::Null; def.schema.len()];
        for (expr, &idx) in exprs.iter().zip(&target_idx) {
            values[idx] = eval_const(session, expr)?;
        }
        rows.push(Row::new(values));
    }
    let n = session.insert(table, rows)?;
    Ok(SqlResult::Affected(n))
}

fn execute_update(
    session: &mut Session,
    table: &str,
    assignments: Vec<(String, ExprAst)>,
    predicate: Option<ExprAst>,
) -> DbResult<SqlResult> {
    let def = session.cluster().table_def(table)?;
    let pred = predicate
        .map(|p| lower_scalar(&p).and_then(|e| e.bind(&def.schema).map_err(DbError::Data)))
        .transpose()?;
    let assigns: Vec<(usize, Expr)> = assignments
        .iter()
        .map(|(col, e)| {
            let idx = def.schema.index_of(col).map_err(DbError::Data)?;
            let expr = lower_scalar(e)?.bind(&def.schema).map_err(DbError::Data)?;
            Ok((idx, expr))
        })
        .collect::<DbResult<Vec<_>>>()?;

    let n = session.with_txn(|cluster, txn, node, tag| {
        cluster.lock_table(txn, table, crate::txn::LockMode::Exclusive)?;
        // One pass finds the matched rows and where their copies are;
        // nothing is staged until every new row has been computed.
        let found = cluster.match_live(
            &def,
            cluster.current_epoch(),
            Some(txn.id),
            pred.as_ref(),
            OnPredicateError::Fail,
            true,
        )?;
        let mut updated: Vec<Row> = Vec::with_capacity(found.rows.len());
        for original in &found.rows {
            let mut values = original.values().to_vec();
            for (idx, expr) in &assigns {
                values[*idx] = expr.eval(original).map_err(DbError::Data)?;
            }
            updated.push(Row::new(values));
        }
        let deleted = cluster.stage_deletes(txn, tag, &def, &found);
        cluster.insert_rows(txn, node, tag, table, updated)?;
        Ok(deleted)
    })?;
    Ok(SqlResult::Affected(n))
}

// ----- SELECT ------------------------------------------------------

/// Column scope for name resolution over a (possibly joined) row: per
/// position, the [visible name](TableRef::visible_name) of the relation
/// that holds the column, and the column's field.
struct Scope {
    relations: Vec<String>,
    schema: Schema,
}

impl Scope {
    /// The scope of a select without FROM: no column resolves.
    fn empty() -> Scope {
        Scope::from_schema("", Schema::new(Vec::new()))
    }

    fn from_schema(relation: &str, schema: Schema) -> Scope {
        Scope {
            relations: vec![relation.to_string(); schema.len()],
            schema,
        }
    }

    fn extend(&mut self, other: Scope) {
        self.relations.extend(other.relations);
        let fields = [self.schema.fields(), other.schema.fields()].concat();
        self.schema = Schema::new(fields);
    }

    fn resolve(&self, qualifier: Option<&str>, name: &str) -> DbResult<usize> {
        if self.relations.is_empty() {
            return Err(DbError::Execution(
                "expression must be constant (no column references)".into(),
            ));
        }
        let matches: Vec<usize> = (0..self.relations.len())
            .filter(|&i| {
                self.schema.field(i).name.eq_ignore_ascii_case(name)
                    && qualifier.is_none_or(|q| self.relations[i].eq_ignore_ascii_case(q))
            })
            .collect();
        match matches.len() {
            0 => Err(DbError::Execution(format!(
                "unknown column {}{name}",
                qualifier.map(|q| format!("{q}.")).unwrap_or_default()
            ))),
            1 => Ok(matches[0]),
            _ => Err(DbError::Execution(format!(
                "ambiguous column reference {name}"
            ))),
        }
    }
}

pub(crate) fn execute_select(
    session: &mut Session,
    select: &SelectStmt,
    depth: usize,
) -> DbResult<QueryResult> {
    if depth > MAX_VIEW_DEPTH {
        return Err(DbError::Execution("view nesting too deep".into()));
    }
    let epoch = session.resolve_epoch(select.at_epoch)?;

    // SELECT without FROM: constant expressions over one row of no
    // columns.
    let Some(from) = &select.from else {
        if select.items.contains(&SelectItem::Star) {
            return Err(DbError::Execution("SELECT * requires FROM".into()));
        }
        let result = project_rows(
            session,
            &select.items,
            &Scope::empty(),
            vec![Row::default()],
            epoch,
        )?;
        return order_and_limit(result, select);
    };

    if let Some(lowered) = lower_select(select) {
        let result = session.query(&lowered.spec)?;
        let result = match &lowered.outputs {
            Some(outputs) => select_outputs(result, outputs),
            None => result,
        };
        return order_and_limit(result, select);
    }

    // General path: materialize the base relation(s).
    let (mut rows, mut scope) = load_relation(session, from, select.at_epoch, depth)?;
    for join in &select.joins {
        let (right_rows, right_scope) =
            load_relation(session, &join.table, select.at_epoch, depth)?;
        let left_width = scope.relations.len();
        scope.extend(right_scope);
        let on = bind(session, &join.on, &scope)?;
        rows = execute_join(session, rows, left_width, right_rows, &on)?;
    }

    // WHERE.
    if let Some(pred) = &select.predicate {
        let pred = bind(session, pred, &scope)?;
        let mut kept = Vec::with_capacity(rows.len());
        for row in rows {
            if matches!(pred.eval_row(session, &row)?, Value::Boolean(true)) {
                kept.push(row);
            }
        }
        rows = kept;
    }

    let result = if is_aggregating(select) {
        execute_aggregate(session, select, &scope, rows, epoch)?
    } else {
        project_rows(session, &select.items, &scope, rows, epoch)?
    };
    order_and_limit(result, select)
}

/// Whether a select groups or aggregates.
fn is_aggregating(select: &SelectStmt) -> bool {
    !select.group_by.is_empty()
        || select.items.iter().any(|i| match i {
            SelectItem::Expr { expr, .. } => expr.contains_aggregate(),
            SelectItem::Star => false,
        })
}

/// The select's ORDER BY, then its LIMIT, over its output rows.
fn order_and_limit(mut result: QueryResult, select: &SelectStmt) -> DbResult<QueryResult> {
    apply_order_by(&mut result, &select.order_by)?;
    if let Some(limit) = select.limit {
        result.rows.truncate(limit as usize);
        result.count = result.rows.len() as u64;
    }
    Ok(result)
}

/// Sort the output rows by the ORDER BY keys (output-column names or
/// 1-based positions): NULLs last in either direction, NaN after every
/// other number.
fn apply_order_by(
    result: &mut QueryResult,
    order_by: &[crate::sql::ast::OrderKey],
) -> DbResult<()> {
    if order_by.is_empty() {
        return Ok(());
    }
    let mut keys = Vec::with_capacity(order_by.len());
    for k in order_by {
        let idx = match &k.key {
            OrderTarget::Column(name) => result.schema.index_of(name).map_err(DbError::Data)?,
            OrderTarget::Position(p) => {
                if *p == 0 || *p > result.schema.len() {
                    return Err(DbError::Execution(format!(
                        "ORDER BY position {p} out of range"
                    )));
                }
                p - 1
            }
        };
        keys.push((idx, k.descending));
    }
    result.rows.sort_by(|a, b| {
        for &(idx, descending) in &keys {
            let (va, vb) = (a.get(idx), b.get(idx));
            // NULLs sort last in either direction.
            let ord = match (va.is_null(), vb.is_null()) {
                (true, true) => std::cmp::Ordering::Equal,
                (true, false) => std::cmp::Ordering::Greater,
                (false, true) => std::cmp::Ordering::Less,
                (false, false) => {
                    let cmp = order_cmp(va, vb);
                    if descending {
                        cmp.reverse()
                    } else {
                        cmp
                    }
                }
            };
            if ord != std::cmp::Ordering::Equal {
                return ord;
            }
        }
        std::cmp::Ordering::Equal
    });
    Ok(())
}

/// ORDER BY's order of two non-null values: `sql_cmp` where it orders
/// them; otherwise NaN after every number, and values of types that do
/// not compare by type. A sort needs a total order, which `sql_cmp`
/// alone is not.
fn order_cmp(a: &Value, b: &Value) -> std::cmp::Ordering {
    let rank = |v: &Value| match v {
        Value::Boolean(_) => 0,
        Value::Float64(f) if f.is_nan() => 2,
        Value::Int64(_) | Value::Float64(_) => 1,
        Value::Varchar(_) => 3,
        Value::Null => 4,
    };
    a.sql_cmp(b).unwrap_or_else(|| rank(a).cmp(&rank(b)))
}

/// What storage answers a select with, and how its answer becomes the
/// SQL output.
struct Lowered {
    spec: QuerySpec,
    /// For an aggregate: per select item, the column of storage's output
    /// it reads and its SQL name. `None` when storage's output already is
    /// the SQL output (a plain projection).
    outputs: Option<Vec<(usize, String)>>,
}

/// The one lowering seam, asked by both `execute_select` and EXPLAIN:
/// the [`QuerySpec`] storage answers a single-relation select with, or
/// `None` when the row executor must run it. The WHERE clause must
/// lower, and then
/// - a plain select lowers when it has no ORDER BY (which needs the
///   materialized output) and projects plain columns or `*`;
/// - an aggregating select lowers onto [`QuerySpec::aggregate`] when
///   every GROUP BY key is a plain column and every item is a key,
///   `COUNT(*)` or one of the five aggregates over a plain column. Its
///   ORDER BY and LIMIT apply to the finalized rows, so LIMIT goes into
///   the spec only without ORDER BY.
///
/// Joins, and expressions as keys, items or aggregate arguments, keep
/// the row executor.
fn lower_select(select: &SelectStmt) -> Option<Lowered> {
    let from = select.from.as_ref()?;
    if !select.joins.is_empty() {
        return None;
    }
    let relation = Some(from.visible_name());
    let column = |e: &ExprAst| match lower(e, relation) {
        Ok(Expr::Column(name)) => Some(name),
        _ => None,
    };
    let mut spec = QuerySpec::scan(&from.table);
    spec.as_of_epoch = select.at_epoch;
    if let Some(p) = &select.predicate {
        spec.predicate = Some(lower(p, relation).ok()?);
    }
    if select.order_by.is_empty() {
        spec.limit = select.limit;
    }
    let outputs = if is_aggregating(select) {
        let (request, items) = lower_aggregate(select, column)?;
        spec.aggregate = Some(request);
        Some(items)
    } else if select.order_by.is_empty() {
        spec.projection = match select.items.as_slice() {
            [SelectItem::Star] => None,
            items => Some(
                items
                    .iter()
                    .map(|item| match item {
                        SelectItem::Expr { expr, alias: None } => column(expr),
                        _ => None,
                    })
                    .collect::<Option<_>>()?,
            ),
        };
        None
    } else {
        return None;
    };
    Some(Lowered { spec, outputs })
}

/// An aggregating select's [`AggRequest`] and, per item, the request's
/// output column it reads (keys first, then calls) with its SQL name.
fn lower_aggregate(
    select: &SelectStmt,
    column: impl Fn(&ExprAst) -> Option<String>,
) -> Option<(AggRequest, Vec<(usize, String)>)> {
    let group_by: Vec<String> = select.group_by.iter().map(&column).collect::<Option<_>>()?;
    let mut calls = Vec::new();
    let mut outputs = Vec::with_capacity(select.items.len());
    for (i, item) in select.items.iter().enumerate() {
        let SelectItem::Expr { expr, alias } = item else {
            return None;
        };
        let at = if let ExprAst::FuncCall { name, args, .. } = expr {
            calls.push(match (agg_func(name)?, args.as_slice()) {
                (AggFunc::Count, [ExprAst::Star]) => AggCall::count_star(),
                (func, [arg]) => AggCall::new(func, column(arg)?),
                _ => return None,
            });
            group_by.len() + calls.len() - 1
        } else {
            select.group_by.iter().position(|g| g == expr)?
        };
        outputs.push((at, output_name(expr, alias.as_deref(), i)));
    }
    // A request needs a call; a select of keys alone still groups.
    if calls.is_empty() {
        calls.push(AggCall::count_star());
    }
    Some((AggRequest { group_by, calls }, outputs))
}

/// Storage's aggregate output as the SQL output: its columns in item
/// order under their SQL names, typed as storage declared them.
fn select_outputs(result: QueryResult, outputs: &[(usize, String)]) -> QueryResult {
    let idx: Vec<usize> = outputs.iter().map(|&(i, _)| i).collect();
    let fields = outputs
        .iter()
        .map(|(i, name)| Field {
            name: name.clone(),
            ..result.schema.field(*i).clone()
        })
        .collect();
    let rows = result
        .rows
        .into_iter()
        .map(|r| r.into_projected(&idx))
        .collect();
    QueryResult {
        schema: Schema::new(fields),
        rows,
        ..result
    }
}

/// Load a table or view as rows plus a resolution scope.
fn load_relation(
    session: &mut Session,
    relation: &TableRef,
    at_epoch: Option<u64>,
    depth: usize,
) -> DbResult<(Vec<Row>, Scope)> {
    let name = &relation.table;
    let view_select = session
        .cluster()
        .catalog
        .read()
        .view(name)
        .map(|v| v.select.clone());
    let r = match view_select {
        Some(mut vsel) => {
            if vsel.at_epoch.is_none() {
                vsel.at_epoch = at_epoch;
            }
            execute_select(session, &vsel, depth + 1)?
        }
        None => {
            let mut spec = QuerySpec::scan(name);
            spec.as_of_epoch = at_epoch;
            session.query(&spec)?
        }
    };
    Ok((
        r.rows,
        Scope::from_schema(relation.visible_name(), r.schema),
    ))
}

/// Inner join of `left`, whose rows are `left_width` wide, with `right`
/// on `on`, bound over both. A hash join when `on` is an equality of one
/// left and one right column; a nested loop otherwise.
fn execute_join(
    session: &Session,
    left: Vec<Row>,
    left_width: usize,
    right: Vec<Row>,
    on: &Bound,
) -> DbResult<Vec<Row>> {
    if let Expr::Binary {
        left: l,
        op: BinaryOp::Eq,
        right: r,
    } = &on.expr
    {
        if let (Expr::ColumnIdx(a), Expr::ColumnIdx(b)) = (l.as_ref(), r.as_ref()) {
            let (li, ri) = (*a.min(b), *a.max(b));
            if on.calls.is_empty() && li < left_width && ri >= left_width {
                return Ok(hash_join(left, li, right, ri - left_width));
            }
        }
    }
    let mut out = Vec::new();
    for l in &left {
        for r in &right {
            let row = Row::new([l.values(), r.values()].concat());
            if matches!(on.eval_row(session, &row)?, Value::Boolean(true)) {
                out.push(row);
            }
        }
    }
    Ok(out)
}

fn hash_join(left: Vec<Row>, li: usize, right: Vec<Row>, ri: usize) -> Vec<Row> {
    use std::collections::HashMap;
    let mut index: HashMap<JoinKey<'_>, Vec<&Row>> = HashMap::new();
    for r in &right {
        if let Some(key) = join_key(r.get(ri)) {
            index.entry(key).or_default().push(r);
        }
    }
    let mut out = Vec::new();
    for l in &left {
        let key = l.get(li);
        let Some(matches) = join_key(key).and_then(|k| index.get(&k)) else {
            continue;
        };
        for r in matches {
            // The bucket is coarser than `=`: check the pair itself.
            if key.sql_cmp(r.get(ri)) == Some(std::cmp::Ordering::Equal) {
                let mut values = l.values().to_vec();
                values.extend_from_slice(r.values());
                out.push(Row::new(values));
            }
        }
    }
    out
}

/// The hash bucket of a join key. Values equal under SQL `=` share a
/// bucket: a number goes by its `f64` (as `=` compares a BIGINT with a
/// FLOAT), and `-0.0` by `0.0`. Unequal values may share one too — two
/// BIGINTs above 2^53 can round to one `f64` — so a bucket only names
/// candidates.
#[derive(PartialEq, Eq, Hash)]
enum JoinKey<'a> {
    Number(u64),
    Boolean(bool),
    Varchar(&'a str),
}

/// `None` for a key `=` never holds for: NULL and NaN.
fn join_key(v: &Value) -> Option<JoinKey<'_>> {
    Some(match v {
        Value::Null => return None,
        Value::Boolean(b) => JoinKey::Boolean(*b),
        Value::Varchar(s) => JoinKey::Varchar(s),
        Value::Int64(_) | Value::Float64(_) => {
            let f = v.as_f64().ok()?;
            if f.is_nan() {
                return None;
            }
            JoinKey::Number(if f == 0.0 { 0.0f64 } else { f }.to_bits())
        }
    })
}

// ----- aggregation ---------------------------------------------------

/// An aggregating select the row executor runs: its keys and aggregate
/// arguments are expressions, evaluated per row and folded through the
/// [`GroupedAccs`] storage's aggregate scan folds into, so a select forms
/// the same groups with the same answers on either path.
fn execute_aggregate(
    session: &Session,
    select: &SelectStmt,
    scope: &Scope,
    rows: Vec<Row>,
    epoch: u64,
) -> DbResult<QueryResult> {
    let keys: Vec<Bound> = select
        .group_by
        .iter()
        .map(|e| bind(session, e, scope))
        .collect::<DbResult<_>>()?;
    // Per call, its function and bound argument (`None` for `COUNT(*)`);
    // per item, the column of the folded rows it reads (keys first, then
    // calls), its SQL name, and its type if binding knows it.
    let mut calls: Vec<(AggFunc, Option<Bound>)> = Vec::new();
    let mut outputs = Vec::with_capacity(select.items.len());
    for (i, item) in select.items.iter().enumerate() {
        let SelectItem::Expr { expr, alias } = item else {
            return Err(DbError::Execution(
                "SELECT * cannot be combined with GROUP BY".into(),
            ));
        };
        let call = match expr {
            ExprAst::FuncCall { name, args, .. } => agg_func(name).map(|f| (f, name, args)),
            _ => None,
        };
        let (at, dtype) = match (select.group_by.iter().position(|g| g == expr), call) {
            (Some(key), _) => (key, keys[key].dtype),
            (None, Some((func, name, args))) => {
                let arg = match (func, args.as_slice()) {
                    (AggFunc::Count, [ExprAst::Star]) => None,
                    (_, [arg]) => Some(bind(session, arg, scope)?),
                    _ => {
                        return Err(DbError::Execution(format!(
                            "{name} takes exactly one argument"
                        )))
                    }
                };
                let dtype = match func {
                    AggFunc::Count => Some(DataType::Int64),
                    AggFunc::Avg => Some(DataType::Float64),
                    AggFunc::Sum | AggFunc::Min | AggFunc::Max => {
                        arg.as_ref().and_then(|a| a.dtype)
                    }
                };
                calls.push((func, arg));
                (select.group_by.len() + calls.len() - 1, dtype)
            }
            (None, None) => {
                return Err(DbError::Execution(format!(
                    "select item must be a grouping expression or an aggregate: {expr:?}"
                )))
            }
        };
        outputs.push((at, output_name(expr, alias.as_deref(), i), dtype));
    }

    let mut accs = GroupedAccs::new(calls.iter().map(|(func, _)| *func).collect());
    let mut inputs = Vec::with_capacity(calls.len());
    for row in &rows {
        let key: Vec<Value> = keys
            .iter()
            .map(|k| k.eval_row(session, row))
            .collect::<DbResult<_>>()?;
        inputs.clear();
        for (_, arg) in &calls {
            inputs.push(match arg {
                Some(arg) => arg.eval_row(session, row)?,
                // COUNT(*) counts every row.
                None => Value::Int64(1),
            });
        }
        let group = accs.group_index(&key);
        for (acc, v) in accs.group_accs(group).iter_mut().zip(&inputs) {
            acc.update(v).map_err(DbError::Data)?;
        }
    }
    // A global aggregate over zero rows still yields one group.
    if select.group_by.is_empty() {
        accs.ensure_global_group();
    }
    let idx: Vec<usize> = outputs.iter().map(|&(at, ..)| at).collect();
    let out_rows: Vec<Row> = accs
        .finalize_rows()
        .into_iter()
        .map(|r| r.into_projected(&idx))
        .collect();
    let fields = outputs
        .into_iter()
        .enumerate()
        .map(|(i, (_, name, dtype))| {
            Field::new(name, dtype.unwrap_or_else(|| value_type(&out_rows, i)))
        })
        .collect();
    Ok(QueryResult {
        count: out_rows.len() as u64,
        schema: Schema::new(fields),
        rows: out_rows,
        epoch,
        batch: None,
    })
}

/// The aggregate a function name calls, if it names one.
fn agg_func(name: &str) -> Option<AggFunc> {
    Some(match name.to_ascii_uppercase().as_str() {
        "COUNT" => AggFunc::Count,
        "SUM" => AggFunc::Sum,
        "AVG" => AggFunc::Avg,
        "MIN" => AggFunc::Min,
        "MAX" => AggFunc::Max,
        _ => return None,
    })
}

// ----- projection ----------------------------------------------------

fn project_rows(
    session: &Session,
    items: &[SelectItem],
    scope: &Scope,
    rows: Vec<Row>,
    epoch: u64,
) -> DbResult<QueryResult> {
    let (schema, rows) = if let [SelectItem::Star] = items {
        (scope.schema.clone(), rows)
    } else {
        let mut names = Vec::with_capacity(items.len());
        let mut bound = Vec::with_capacity(items.len());
        for (i, item) in items.iter().enumerate() {
            let SelectItem::Expr { expr, alias } = item else {
                return Err(DbError::Execution(
                    "SELECT * cannot be mixed with expressions".into(),
                ));
            };
            names.push(output_name(expr, alias.as_deref(), i));
            bound.push(bind(session, expr, scope)?);
        }
        let rows = rows
            .iter()
            .map(|row| bound.iter().map(|b| b.eval_row(session, row)).collect())
            .collect::<DbResult<Vec<Row>>>()?;
        let fields = names
            .into_iter()
            .zip(&bound)
            .enumerate()
            .map(|(i, (name, b))| Field::new(name, b.dtype.unwrap_or_else(|| value_type(&rows, i))))
            .collect();
        (Schema::new(fields), rows)
    };
    Ok(QueryResult {
        count: rows.len() as u64,
        schema,
        rows,
        epoch,
        batch: None,
    })
}

// ----- binding -------------------------------------------------------

/// What the one walk from [`ExprAst`] to [`Expr`] turns a column leaf and
/// a function call into.
#[derive(Clone, Copy)]
enum Leaves<'a> {
    /// For a [`QuerySpec`], which binds by name: a column keeps its name
    /// if its qualifier, if it has one, is the relation's visible name
    /// (`None`: no qualifier is); a function call does not lower.
    Names(Option<&'a str>),
    /// For the row executor: a column resolves to its ordinal in the
    /// scope, and a function call to a UDF call.
    Scope(&'a Scope, &'a Cluster),
}

/// One walk over an [`ExprAst`]; `calls` collects the UDF calls it
/// reaches, post-order and left to right, as they are to be evaluated.
struct Binder<'a> {
    leaves: Leaves<'a>,
    calls: Vec<UdfCall>,
}

impl<'a> Binder<'a> {
    fn new(leaves: Leaves<'a>) -> Binder<'a> {
        let calls = Vec::new();
        Binder { leaves, calls }
    }

    fn walk(&mut self, ast: &ExprAst) -> DbResult<Expr> {
        Ok(match ast {
            ExprAst::Column { qualifier, name } => match (self.leaves, qualifier) {
                (Leaves::Scope(scope, _), _) => {
                    Expr::ColumnIdx(scope.resolve(qualifier.as_deref(), name)?)
                }
                (Leaves::Names(relation), Some(q))
                    if !relation.is_some_and(|r| r.eq_ignore_ascii_case(q)) =>
                {
                    return Err(DbError::Execution(format!(
                        "cannot lower qualified column {q}.{name}"
                    )))
                }
                (Leaves::Names(_), _) => Expr::Column(name.clone()),
            },
            ExprAst::Literal(v) => Expr::Literal(v.clone()),
            ExprAst::Binary { left, op, right } => Expr::Binary {
                left: Box::new(self.walk(left)?),
                op: *op,
                right: Box::new(self.walk(right)?),
            },
            ExprAst::Not(e) => Expr::Not(Box::new(self.walk(e)?)),
            ExprAst::Neg(e) => Expr::Neg(Box::new(self.walk(e)?)),
            ExprAst::IsNull(e) => Expr::IsNull(Box::new(self.walk(e)?)),
            ExprAst::IsNotNull(e) => Expr::IsNotNull(Box::new(self.walk(e)?)),
            ExprAst::Like { expr, pattern } => Expr::Like {
                expr: Box::new(self.walk(expr)?),
                pattern: pattern.clone(),
            },
            ExprAst::FuncCall {
                name,
                args,
                parameters,
            } => {
                let Leaves::Scope(scope, cluster) = self.leaves else {
                    return Err(DbError::Execution(format!(
                        "function {name} cannot be lowered to a storage predicate"
                    )));
                };
                if is_aggregate_name(name) {
                    return Err(DbError::Execution(format!(
                        "aggregate {name} not allowed here"
                    )));
                }
                let udf = cluster
                    .udf(name)
                    .ok_or_else(|| DbError::Udf(format!("unknown function: {name}")))?;
                let args = args.iter().map(|a| self.walk(a)).collect::<DbResult<_>>()?;
                self.calls.push(UdfCall {
                    udf,
                    params: UdfParams::new(parameters),
                    args,
                });
                Expr::ColumnIdx(scope.relations.len() + self.calls.len() - 1)
            }
            ExprAst::Star => return Err(DbError::Execution("* is not a scalar expression".into())),
        })
    }
}

/// Lower an AST expression for storage: a pure scalar over unqualified
/// columns, which keep their names.
pub(crate) fn lower_scalar(ast: &ExprAst) -> DbResult<Expr> {
    lower(ast, None)
}

/// Like [`lower_scalar`], and a column may be qualified by `relation`.
fn lower(ast: &ExprAst, relation: Option<&str>) -> DbResult<Expr> {
    Binder::new(Leaves::Names(relation)).walk(ast)
}

/// An expression bound to a scope for the row executor. `expr` reads the
/// row's columns by ordinal and, past them, column `width + k` for the
/// result of `calls[k]`, which [`Bound::eval_row`] computes first.
struct Bound {
    expr: Expr,
    width: usize,
    calls: Vec<UdfCall>,
    /// The type of every non-NULL value, when binding knows it: not for
    /// an expression that calls a UDF, nor for a bare NULL.
    dtype: Option<DataType>,
}

/// One scalar UDF call of a bound expression, its parameters built once.
struct UdfCall {
    udf: Arc<dyn ScalarUdf>,
    params: UdfParams,
    /// Over the row and the results of the calls before this one.
    args: Vec<Expr>,
}

/// Bind `ast` against `scope`: every column resolves, and every function
/// is found, before the first row.
fn bind(session: &Session, ast: &ExprAst, scope: &Scope) -> DbResult<Bound> {
    let mut binder = Binder::new(Leaves::Scope(scope, session.cluster()));
    let expr = binder.walk(ast)?;
    let dtype = match binder.calls.is_empty() {
        true => expr.result_type(&scope.schema).map_err(DbError::Data)?,
        false => None,
    };
    Ok(Bound {
        expr,
        width: scope.relations.len(),
        calls: binder.calls,
        dtype,
    })
}

impl Bound {
    fn eval_row(&self, session: &Session, row: &Row) -> DbResult<Value> {
        if self.calls.is_empty() {
            return self.expr.eval(row).map_err(DbError::Data);
        }
        let mut values = Vec::with_capacity(self.width + self.calls.len());
        values.extend_from_slice(row.values());
        values.resize(self.width + self.calls.len(), Value::Null);
        let mut scratch = Row::new(values);
        for (k, call) in self.calls.iter().enumerate() {
            let args: Vec<Value> = call
                .args
                .iter()
                .map(|a| a.eval(&scratch))
                .collect::<Result<_, _>>()
                .map_err(DbError::Data)?;
            let out = call.udf.eval(&args, &call.params)?;
            session.cluster().recorder().work(
                session.task_tag(),
                NodeRef::Db(session.node()),
                "udf_eval",
                1,
                0,
            );
            scratch.set(self.width + k, out);
        }
        self.expr.eval(&scratch).map_err(DbError::Data)
    }
}

/// Evaluate a constant expression: bound against a scope of no columns.
fn eval_const(session: &Session, expr: &ExprAst) -> DbResult<Value> {
    bind(session, expr, &Scope::empty())?.eval_row(session, &Row::default())
}

fn output_name(expr: &ExprAst, alias: Option<&str>, idx: usize) -> String {
    if let Some(a) = alias {
        return a.to_string();
    }
    match expr {
        ExprAst::Column { name, .. } => name.clone(),
        ExprAst::FuncCall { name, .. } => name.to_ascii_lowercase(),
        _ => format!("col{idx}"),
    }
}

/// The type of column `i`'s first non-NULL value, for an output whose
/// type binding does not know (VARCHAR if every value is NULL).
fn value_type(rows: &[Row], i: usize) -> DataType {
    rows.iter()
        .find_map(|r| r.get(i).data_type())
        .unwrap_or(DataType::Varchar)
}

/// Scan a view through the programmatic query API: execute the stored
/// select, then apply the spec's synthetic row range, filter,
/// projection, count, and limit (paper Sec. 3.1.1's view loading).
pub(crate) fn execute_view_scan(session: &mut Session, spec: &QuerySpec) -> DbResult<QueryResult> {
    if spec.hash_range.is_some() {
        return Err(DbError::Execution(format!(
            "hash ranges do not apply to view {}; use row ranges",
            spec.table
        )));
    }
    let select = session
        .cluster()
        .catalog
        .read()
        .view(&spec.table)
        .map(|v| v.select.clone())
        .ok_or_else(|| DbError::UnknownTable(spec.table.clone()))?;
    let mut vsel = select;
    if vsel.at_epoch.is_none() {
        vsel.at_epoch = spec.as_of_epoch;
    }
    let base = execute_select(session, &vsel, 1)?;
    apply_spec_to_rows(base.schema, base.rows, spec, base.epoch)
}
