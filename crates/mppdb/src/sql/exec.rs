//! SQL statement execution.

use common::agg::{Acc, AggFunc};
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
    TableRef,
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

    let aggregating = !select.group_by.is_empty()
        || select.items.iter().any(|i| match i {
            SelectItem::Expr { expr, .. } => expr.contains_aggregate(),
            SelectItem::Star => false,
        });

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
    let pushed = select
        .from
        .as_ref()
        .and_then(|from| pushdown_spec(select, from, aggregating));
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
    if aggregating {
        lines.push(format!(
            "aggregate: {} group key(s), {} output item(s)",
            select.group_by.len(),
            select.items.len()
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

    let aggregating = !select.group_by.is_empty()
        || select.items.iter().any(|i| match i {
            SelectItem::Expr { expr, .. } => expr.contains_aggregate(),
            SelectItem::Star => false,
        });

    if let Some(spec) = pushdown_spec(select, from, aggregating) {
        return session.query(&spec);
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

    let mut result = if aggregating {
        execute_aggregate(session, select, &scope, rows, epoch)?
    } else {
        project_rows(session, &select.items, &scope, rows, epoch)?
    };

    apply_order_by(&mut result, &select.order_by)?;
    if let Some(limit) = select.limit {
        result.rows.truncate(limit as usize);
        result.count = result.rows.len() as u64;
    }
    Ok(result)
}

/// Sort the output rows by the ORDER BY keys (output-column names or
/// 1-based positions; SQL semantics: NULLs sort last ascending).
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
                    let cmp = va.sql_cmp(vb).unwrap_or(std::cmp::Ordering::Equal);
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

/// The scan a select is answered by when storage can answer it whole:
/// a single table, no aggregate, no ordering (ORDER BY needs the
/// materialized output), a plain column projection (or `*`) and a
/// lowerable predicate. `None` when the shape doesn't fit and the
/// general path must run.
fn pushdown_spec(select: &SelectStmt, from: &TableRef, aggregating: bool) -> Option<QuerySpec> {
    if !select.joins.is_empty() || aggregating || !select.order_by.is_empty() {
        return None;
    }
    let (table, alias) = (from.table.as_str(), from.alias.as_deref());
    let mut projection: Option<Vec<String>> = Some(Vec::new());
    for item in &select.items {
        match item {
            SelectItem::Star => {
                projection = None;
                if select.items.len() != 1 {
                    return None; // mixed * and expressions: general path
                }
                break;
            }
            SelectItem::Expr {
                expr: ExprAst::Column { qualifier, name },
                alias: item_alias,
            } if item_alias.is_none()
                && qualifier
                    .as_deref()
                    .is_none_or(|q| Some(q) == alias || q.eq_ignore_ascii_case(table)) =>
            {
                if let Some(p) = projection.as_mut() {
                    p.push(name.clone());
                }
            }
            _ => return None,
        }
    }

    let mut spec = QuerySpec::scan(table);
    spec.projection = projection;
    spec.as_of_epoch = select.at_epoch;
    spec.limit = select.limit;
    if let Some(p) = &select.predicate {
        spec.predicate = Some(lower_scalar_qualified(p, alias).ok()?);
    }
    Some(spec)
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
    let mut index: HashMap<String, Vec<&Row>> = HashMap::new();
    for r in &right {
        let key = r.get(ri);
        if key.is_null() {
            continue; // NULL never joins
        }
        index.entry(join_key(key)).or_default().push(r);
    }
    let mut out = Vec::new();
    for l in &left {
        let key = l.get(li);
        if key.is_null() {
            continue;
        }
        if let Some(matches) = index.get(&join_key(key)) {
            for r in matches {
                let mut values = l.values().to_vec();
                values.extend_from_slice(r.values());
                out.push(Row::new(values));
            }
        }
    }
    out
}

fn join_key(v: &Value) -> String {
    // Int64 and Float64 compare equal cross-type in SQL; normalize
    // integral values to one spelling.
    match v {
        Value::Int64(i) => format!("n:{}", *i as f64),
        Value::Float64(f) => format!("n:{f}"),
        Value::Boolean(b) => format!("b:{b}"),
        Value::Varchar(s) => format!("s:{s}"),
        Value::Null => unreachable!("nulls filtered before keying"),
    }
}

// ----- aggregation ---------------------------------------------------

fn execute_aggregate(
    session: &mut Session,
    select: &SelectStmt,
    scope: &Scope,
    rows: Vec<Row>,
    epoch: u64,
) -> DbResult<QueryResult> {
    use std::collections::HashMap;

    // Group rows.
    let mut groups: Vec<(Vec<Value>, Vec<Row>)> = Vec::new();
    let mut index: HashMap<String, usize> = HashMap::new();
    for row in rows {
        let key: Vec<Value> = select
            .group_by
            .iter()
            .map(|e| eval_ast(session, e, scope, &row))
            .collect::<DbResult<_>>()?;
        // Type and text of each value, the text length-prefixed so no
        // value's text can run into the next one's.
        let key_str = key
            .iter()
            .map(|v| {
                let text = v.to_string();
                format!("{}:{}:{text}", v.type_name(), text.len())
            })
            .collect::<String>();
        let slot = *index.entry(key_str).or_insert_with(|| {
            groups.push((key.clone(), Vec::new()));
            groups.len() - 1
        });
        groups[slot].1.push(row);
    }
    // A global aggregate over zero rows still yields one group.
    if groups.is_empty() && select.group_by.is_empty() {
        groups.push((Vec::new(), Vec::new()));
    }

    let mut names = Vec::new();
    let mut out_rows = Vec::new();
    for (key, group_rows) in &groups {
        let mut values = Vec::new();
        for (i, item) in select.items.iter().enumerate() {
            let SelectItem::Expr { expr, alias } = item else {
                return Err(DbError::Execution(
                    "SELECT * cannot be combined with GROUP BY".into(),
                ));
            };
            if out_rows.is_empty() {
                names.push(output_name(expr, alias.as_deref(), i));
            }
            values.push(eval_agg_item(
                session, expr, select, scope, key, group_rows,
            )?);
        }
        out_rows.push(Row::new(values));
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

fn eval_agg_item(
    session: &mut Session,
    expr: &ExprAst,
    select: &SelectStmt,
    scope: &Scope,
    key: &[Value],
    group_rows: &[Row],
) -> DbResult<Value> {
    // A grouping expression: return the key.
    if let Some(pos) = select.group_by.iter().position(|g| g == expr) {
        return Ok(key[pos].clone());
    }
    // An aggregate call.
    if let ExprAst::FuncCall { name, args, .. } = expr {
        if is_aggregate_name(name) {
            let func = match name.to_ascii_uppercase().as_str() {
                "COUNT" => AggFunc::Count,
                "SUM" => AggFunc::Sum,
                "AVG" => AggFunc::Avg,
                "MIN" => AggFunc::Min,
                "MAX" => AggFunc::Max,
                _ => unreachable!(),
            };
            let star = func == AggFunc::Count && matches!(args.as_slice(), [ExprAst::Star]);
            if args.len() != 1 {
                return Err(DbError::Execution(format!(
                    "{name} takes exactly one argument"
                )));
            }
            let arg = if star { None } else { args.first() };
            return compute_aggregate(session, func, arg, scope, group_rows);
        }
    }
    Err(DbError::Execution(format!(
        "select item must be a grouping expression or an aggregate: {expr:?}"
    )))
}

/// Fold one aggregate call over a group's rows through the shared
/// [`Acc`] — the accumulator the pushed-down plans use — so the same
/// aggregate cannot give different answers depending on where it ran.
/// `arg` is `None` for `COUNT(*)`.
fn compute_aggregate(
    session: &mut Session,
    func: AggFunc,
    arg: Option<&ExprAst>,
    scope: &Scope,
    rows: &[Row],
) -> DbResult<Value> {
    let mut acc = Acc::new(func);
    match arg {
        None => acc
            .update_repeated(&Value::Int64(1), rows.len() as u64)
            .map_err(DbError::Data)?,
        Some(arg) => {
            for row in rows {
                let v = eval_ast(session, arg, scope, row)?;
                acc.update(&v).map_err(DbError::Data)?;
            }
        }
    }
    Ok(acc.finalize())
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
