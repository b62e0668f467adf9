//! SQL statement execution.

use common::agg::{AggCall, AggFunc, AggRequest, GroupedAccs};
use common::expr::BinaryOp;
use common::{DataType, Expr, Field, Row, Schema, Value};
use netsim::record::NodeRef;

use crate::catalog::{Segmentation, TableDef};
use crate::cluster::OnPredicateError;
use crate::error::{DbError, DbResult};
use crate::query::{apply_spec_to_rows, QueryResult, QuerySpec};
use crate::session::Session;
use crate::sql::ast::{
    is_aggregate_name, ExprAst, OrderTarget, SegmentationClause, SelectItem, SelectStmt, Statement,
};
use crate::udf::UdfParams;

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
        match (pushed, lower_scalar(pred)) {
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
            values[idx] = eval_const(expr)?;
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

/// Column scope for name resolution over a (possibly joined) row.
struct Scope {
    /// `(qualifier, column name, data type)` per position.
    cols: Vec<(Option<String>, String, DataType)>,
}

impl Scope {
    fn from_schema(alias: Option<&str>, schema: &Schema) -> Scope {
        Scope {
            cols: schema
                .fields()
                .iter()
                .map(|f| (alias.map(str::to_string), f.name.clone(), f.dtype))
                .collect(),
        }
    }

    fn extend(&mut self, other: Scope) {
        self.cols.extend(other.cols);
    }

    fn resolve(&self, qualifier: Option<&str>, name: &str) -> DbResult<usize> {
        let matches: Vec<usize> = self
            .cols
            .iter()
            .enumerate()
            .filter(|(_, (q, n, _))| {
                n.eq_ignore_ascii_case(name)
                    && match qualifier {
                        Some(want) => q
                            .as_deref()
                            .is_some_and(|have| have.eq_ignore_ascii_case(want)),
                        None => true,
                    }
            })
            .map(|(i, _)| i)
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

    // SELECT without FROM: constant expressions, one row.
    let Some(from) = &select.from else {
        let mut values = Vec::new();
        let mut names = Vec::new();
        for (i, item) in select.items.iter().enumerate() {
            let SelectItem::Expr { expr, alias } = item else {
                return Err(DbError::Execution("SELECT * requires FROM".into()));
            };
            values.push(eval_const(expr)?);
            names.push(output_name(expr, alias.as_deref(), i));
        }
        let schema = infer_schema(&names, std::slice::from_ref(&Row::new(values.clone())));
        return Ok(QueryResult {
            schema,
            rows: vec![Row::new(values)],
            count: 1,
            epoch,
            batch: None,
        });
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
    let (mut rows, mut scope) = load_relation(
        session,
        &from.table,
        from.alias.as_deref(),
        select.at_epoch,
        depth,
    )?;

    for join in &select.joins {
        let (right_rows, right_scope) = load_relation(
            session,
            &join.table.table,
            join.table.alias.as_deref(),
            select.at_epoch,
            depth,
        )?;
        rows = execute_join(session, rows, &scope, right_rows, &right_scope, &join.on)?;
        scope.extend(right_scope);
    }

    // WHERE.
    if let Some(pred) = &select.predicate {
        let mut kept = Vec::with_capacity(rows.len());
        for row in rows {
            if matches!(eval_ast(session, pred, &scope, &row)?, Value::Boolean(true)) {
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
    let (table, alias) = (from.table.as_str(), from.alias.as_deref());
    let column = |e: &ExprAst| match e {
        ExprAst::Column { qualifier, name }
            if qualifier
                .as_deref()
                .is_none_or(|q| Some(q) == alias || q.eq_ignore_ascii_case(table)) =>
        {
            Some(name.clone())
        }
        _ => None,
    };
    let mut spec = QuerySpec::scan(table);
    spec.as_of_epoch = select.at_epoch;
    if let Some(p) = &select.predicate {
        spec.predicate = Some(lower_scalar_qualified(p, alias).ok()?);
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
    name: &str,
    alias: Option<&str>,
    at_epoch: Option<u64>,
    depth: usize,
) -> DbResult<(Vec<Row>, Scope)> {
    let view_select = session
        .cluster()
        .catalog
        .read()
        .view(name)
        .map(|v| v.select.clone());
    if let Some(mut vsel) = view_select {
        if vsel.at_epoch.is_none() {
            vsel.at_epoch = at_epoch;
        }
        let r = execute_select(session, &vsel, depth + 1)?;
        let scope = Scope::from_schema(alias.or(Some(name)), &r.schema);
        return Ok((r.rows, scope));
    }
    let mut spec = QuerySpec::scan(name);
    spec.as_of_epoch = at_epoch;
    let r = session.query(&spec)?;
    let scope = Scope::from_schema(alias.or(Some(name)), &r.schema);
    Ok((r.rows, scope))
}

/// Inner join. Uses a hash join when the ON clause is a simple equality
/// of one left and one right column; falls back to a nested loop.
fn execute_join(
    session: &mut Session,
    left: Vec<Row>,
    left_scope: &Scope,
    right: Vec<Row>,
    right_scope: &Scope,
    on: &ExprAst,
) -> DbResult<Vec<Row>> {
    // Detect `l.col = r.col`.
    if let ExprAst::Binary {
        left: le,
        op: BinaryOp::Eq,
        right: re,
    } = on
    {
        if let (
            ExprAst::Column {
                qualifier: q1,
                name: n1,
            },
            ExprAst::Column {
                qualifier: q2,
                name: n2,
            },
        ) = (le.as_ref(), re.as_ref())
        {
            let l1 = left_scope.resolve(q1.as_deref(), n1);
            let r2 = right_scope.resolve(q2.as_deref(), n2);
            let (li, ri) = match (l1, r2) {
                (Ok(l), Ok(r)) => (Some(l), Some(r)),
                _ => {
                    // Try the swapped orientation.
                    match (
                        left_scope.resolve(q2.as_deref(), n2),
                        right_scope.resolve(q1.as_deref(), n1),
                    ) {
                        (Ok(l), Ok(r)) => (Some(l), Some(r)),
                        _ => (None, None),
                    }
                }
            };
            if let (Some(li), Some(ri)) = (li, ri) {
                return Ok(hash_join(left, li, right, ri));
            }
        }
    }

    // Nested loop with full ON evaluation.
    let mut combined_scope = Scope {
        cols: left_scope.cols.clone(),
    };
    combined_scope.extend(Scope {
        cols: right_scope.cols.clone(),
    });
    let mut out = Vec::new();
    for l in &left {
        for r in &right {
            let mut values = l.values().to_vec();
            values.extend_from_slice(r.values());
            let row = Row::new(values);
            if matches!(
                eval_ast(session, on, &combined_scope, &row)?,
                Value::Boolean(true)
            ) {
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
    session: &mut Session,
    select: &SelectStmt,
    scope: &Scope,
    rows: Vec<Row>,
    epoch: u64,
) -> DbResult<QueryResult> {
    // A plain column's type, which its key or aggregate output keeps.
    let declared = |e: &ExprAst| match e {
        ExprAst::Column { qualifier, name } => {
            let at = scope.resolve(qualifier.as_deref(), name).ok()?;
            Some(scope.cols[at].2)
        }
        _ => None,
    };
    // Per call, its function and argument (`None` for `COUNT(*)`); per
    // item, the column of the folded rows it reads (keys first, then
    // calls), its SQL name, and its declared type if it has one.
    let mut calls: Vec<(AggFunc, Option<&ExprAst>)> = Vec::new();
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
            (Some(key), _) => (key, declared(expr)),
            (None, Some((func, name, args))) => {
                let arg = match (func, args.as_slice()) {
                    (AggFunc::Count, [ExprAst::Star]) => None,
                    (_, [arg]) => Some(arg),
                    _ => {
                        return Err(DbError::Execution(format!(
                            "{name} takes exactly one argument"
                        )))
                    }
                };
                let dtype = match func {
                    AggFunc::Count => Some(DataType::Int64),
                    AggFunc::Avg => Some(DataType::Float64),
                    AggFunc::Sum | AggFunc::Min | AggFunc::Max => arg.and_then(declared),
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

    let mut accs = GroupedAccs::new(calls.iter().map(|&(func, _)| func).collect());
    let mut inputs = Vec::with_capacity(calls.len());
    for row in &rows {
        let key: Vec<Value> = select
            .group_by
            .iter()
            .map(|e| eval_ast(session, e, scope, row))
            .collect::<DbResult<_>>()?;
        inputs.clear();
        for (_, arg) in &calls {
            inputs.push(match arg {
                Some(arg) => eval_ast(session, arg, scope, row)?,
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
    // An expression's type is its values' (VARCHAR if all are NULL).
    let fields = outputs
        .into_iter()
        .enumerate()
        .map(|(i, (_, name, dtype))| {
            let inferred = || out_rows.iter().find_map(|r| r.get(i).data_type());
            Field::new(name, dtype.or_else(inferred).unwrap_or(DataType::Varchar))
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
    session: &mut Session,
    items: &[SelectItem],
    scope: &Scope,
    rows: Vec<Row>,
    epoch: u64,
) -> DbResult<QueryResult> {
    // Pure `SELECT *`.
    if items.len() == 1 && matches!(items[0], SelectItem::Star) {
        let schema = Schema::new(
            scope
                .cols
                .iter()
                .map(|(_, name, dtype)| Field::new(name.clone(), *dtype))
                .collect(),
        );
        return Ok(QueryResult {
            count: rows.len() as u64,
            schema,
            rows,
            epoch,
            batch: None,
        });
    }
    let mut names = Vec::new();
    let mut out_rows = Vec::with_capacity(rows.len());
    for (ri, row) in rows.iter().enumerate() {
        let mut values = Vec::with_capacity(items.len());
        for (i, item) in items.iter().enumerate() {
            match item {
                SelectItem::Star => {
                    if ri == 0 {
                        return Err(DbError::Execution(
                            "SELECT * cannot be mixed with expressions".into(),
                        ));
                    }
                    unreachable!()
                }
                SelectItem::Expr { expr, alias } => {
                    if ri == 0 {
                        names.push(output_name(expr, alias.as_deref(), i));
                    }
                    values.push(eval_ast(session, expr, scope, row)?);
                }
            }
        }
        out_rows.push(Row::new(values));
    }
    if rows.is_empty() {
        for (i, item) in items.iter().enumerate() {
            match item {
                SelectItem::Expr { expr, alias } => {
                    names.push(output_name(expr, alias.as_deref(), i))
                }
                SelectItem::Star => {
                    return Err(DbError::Execution(
                        "SELECT * cannot be mixed with expressions".into(),
                    ))
                }
            }
        }
    }
    let schema = infer_schema(&names, &out_rows);
    Ok(QueryResult {
        count: out_rows.len() as u64,
        schema,
        rows: out_rows,
        epoch,
        batch: None,
    })
}

// ----- expression evaluation ------------------------------------------

/// Lower an AST expression to a shared [`Expr`] (no UDFs, no
/// aggregates, no qualifiers). Errors when the expression isn't a pure
/// scalar over unqualified columns.
pub(crate) fn lower_scalar(ast: &ExprAst) -> DbResult<Expr> {
    lower_scalar_qualified(ast, None)
}

/// Like [`lower_scalar`] but strips a known table alias off qualified
/// column references.
fn lower_scalar_qualified(ast: &ExprAst, alias: Option<&str>) -> DbResult<Expr> {
    Ok(match ast {
        ExprAst::Column { qualifier, name } => match qualifier {
            None => Expr::Column(name.clone()),
            Some(q) if alias.is_some_and(|a| a.eq_ignore_ascii_case(q)) => {
                Expr::Column(name.clone())
            }
            Some(q) => {
                return Err(DbError::Execution(format!(
                    "cannot lower qualified column {q}.{name}"
                )))
            }
        },
        ExprAst::Literal(v) => Expr::Literal(v.clone()),
        ExprAst::Binary { left, op, right } => Expr::Binary {
            left: Box::new(lower_scalar_qualified(left, alias)?),
            op: *op,
            right: Box::new(lower_scalar_qualified(right, alias)?),
        },
        ExprAst::Not(e) => Expr::Not(Box::new(lower_scalar_qualified(e, alias)?)),
        ExprAst::Neg(e) => Expr::Neg(Box::new(lower_scalar_qualified(e, alias)?)),
        ExprAst::IsNull(e) => Expr::IsNull(Box::new(lower_scalar_qualified(e, alias)?)),
        ExprAst::IsNotNull(e) => Expr::IsNotNull(Box::new(lower_scalar_qualified(e, alias)?)),
        ExprAst::Like { expr, pattern } => Expr::Like {
            expr: Box::new(lower_scalar_qualified(expr, alias)?),
            pattern: pattern.clone(),
        },
        ExprAst::FuncCall { name, .. } => {
            return Err(DbError::Execution(format!(
                "function {name} cannot be lowered to a storage predicate"
            )))
        }
        ExprAst::Star => return Err(DbError::Execution("* is not a scalar expression".into())),
    })
}

/// Evaluate a constant expression (no column references).
fn eval_const(expr: &ExprAst) -> DbResult<Value> {
    let lowered = lower_scalar(expr)?;
    let empty_schema = Schema::new(vec![]);
    let bound = lowered.bind(&empty_schema).map_err(|_| {
        DbError::Execution("expression must be constant (no column references)".into())
    })?;
    bound.eval(&Row::new(vec![])).map_err(DbError::Data)
}

/// Evaluate an AST expression over a scoped row; handles UDF calls.
fn eval_ast(session: &mut Session, expr: &ExprAst, scope: &Scope, row: &Row) -> DbResult<Value> {
    match expr {
        ExprAst::Column { qualifier, name } => {
            let idx = scope.resolve(qualifier.as_deref(), name)?;
            Ok(row.get(idx).clone())
        }
        ExprAst::Literal(v) => Ok(v.clone()),
        ExprAst::Binary { left, op, right } => {
            // Reuse the shared evaluator by building a tiny bound tree.
            let l = eval_ast(session, left, scope, row)?;
            let r = eval_ast(session, right, scope, row)?;
            let e = Expr::Binary {
                left: Box::new(Expr::Literal(l)),
                op: *op,
                right: Box::new(Expr::Literal(r)),
            };
            e.eval(&Row::new(vec![])).map_err(DbError::Data)
        }
        ExprAst::Not(e) => {
            let v = eval_ast(session, e, scope, row)?;
            Expr::Not(Box::new(Expr::Literal(v)))
                .eval(&Row::new(vec![]))
                .map_err(DbError::Data)
        }
        ExprAst::Neg(e) => {
            let v = eval_ast(session, e, scope, row)?;
            Expr::Neg(Box::new(Expr::Literal(v)))
                .eval(&Row::new(vec![]))
                .map_err(DbError::Data)
        }
        ExprAst::IsNull(e) => Ok(Value::Boolean(eval_ast(session, e, scope, row)?.is_null())),
        ExprAst::IsNotNull(e) => Ok(Value::Boolean(!eval_ast(session, e, scope, row)?.is_null())),
        ExprAst::Like { expr, pattern } => {
            let v = eval_ast(session, expr, scope, row)?;
            Expr::Like {
                expr: Box::new(Expr::Literal(v)),
                pattern: pattern.clone(),
            }
            .eval(&Row::new(vec![]))
            .map_err(DbError::Data)
        }
        ExprAst::FuncCall {
            name,
            args,
            parameters,
        } => {
            if is_aggregate_name(name) {
                return Err(DbError::Execution(format!(
                    "aggregate {name} not allowed here"
                )));
            }
            let udf = session
                .cluster()
                .udf(name)
                .ok_or_else(|| DbError::Udf(format!("unknown function: {name}")))?;
            let arg_values: Vec<Value> = args
                .iter()
                .map(|a| eval_ast(session, a, scope, row))
                .collect::<DbResult<_>>()?;
            let params = UdfParams::new(parameters);
            let out = udf.eval(&arg_values, &params)?;
            session.cluster().recorder().work(
                session.task_tag(),
                NodeRef::Db(session.node()),
                "udf_eval",
                1,
                0,
            );
            Ok(out)
        }
        ExprAst::Star => Err(DbError::Execution("* is not a scalar expression".into())),
    }
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

/// Infer an output schema from names and the first rows' value types.
fn infer_schema(names: &[String], rows: &[Row]) -> Schema {
    let fields = names
        .iter()
        .enumerate()
        .map(|(i, name)| {
            let dtype = rows
                .iter()
                .find_map(|r| r.get(i).data_type())
                .unwrap_or(DataType::Varchar);
            Field::new(name.clone(), dtype)
        })
        .collect();
    Schema::new(fields)
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
