//! Scalar expressions and predicates.
//!
//! Expressions serve two masters: the SQL layer of the database evaluates
//! them during scans, and the compute engine's External Data Source API
//! pushes them down into the database (the paper's Sec. 3.1.1 "reducing
//! the amount of data in the pipeline"). NULL handling follows SQL
//! three-valued logic with Kleene AND/OR.

use std::cmp::Ordering;
use std::fmt;

use crate::error::{Error, Result};
use crate::row::Row;
use crate::schema::Schema;
use crate::value::{DataType, Value};

/// Binary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BinaryOp {
    Eq,
    NotEq,
    Lt,
    LtEq,
    Gt,
    GtEq,
    And,
    Or,
    Add,
    Sub,
    Mul,
    Div,
    Mod,
}

impl BinaryOp {
    fn sql_symbol(&self) -> &'static str {
        match self {
            BinaryOp::Eq => "=",
            BinaryOp::NotEq => "<>",
            BinaryOp::Lt => "<",
            BinaryOp::LtEq => "<=",
            BinaryOp::Gt => ">",
            BinaryOp::GtEq => ">=",
            BinaryOp::And => "AND",
            BinaryOp::Or => "OR",
            BinaryOp::Add => "+",
            BinaryOp::Sub => "-",
            BinaryOp::Mul => "*",
            BinaryOp::Div => "/",
            BinaryOp::Mod => "%",
        }
    }
}

/// A scalar expression tree.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    /// Column reference by name; resolved to an ordinal by [`Expr::bind`].
    Column(String),
    /// Column reference by ordinal (produced by binding).
    ColumnIdx(usize),
    Literal(Value),
    Binary {
        left: Box<Expr>,
        op: BinaryOp,
        right: Box<Expr>,
    },
    Not(Box<Expr>),
    Neg(Box<Expr>),
    IsNull(Box<Expr>),
    IsNotNull(Box<Expr>),
    /// SQL LIKE with `%` (any run) and `_` (any char) wildcards.
    Like {
        expr: Box<Expr>,
        pattern: String,
    },
}

impl Expr {
    pub fn col(name: impl Into<String>) -> Expr {
        Expr::Column(name.into())
    }

    pub fn lit(v: impl Into<Value>) -> Expr {
        Expr::Literal(v.into())
    }

    pub fn binary(left: Expr, op: BinaryOp, right: Expr) -> Expr {
        Expr::Binary {
            left: Box::new(left),
            op,
            right: Box::new(right),
        }
    }

    pub fn eq(self, rhs: Expr) -> Expr {
        Expr::binary(self, BinaryOp::Eq, rhs)
    }
    pub fn lt(self, rhs: Expr) -> Expr {
        Expr::binary(self, BinaryOp::Lt, rhs)
    }
    pub fn lt_eq(self, rhs: Expr) -> Expr {
        Expr::binary(self, BinaryOp::LtEq, rhs)
    }
    pub fn gt(self, rhs: Expr) -> Expr {
        Expr::binary(self, BinaryOp::Gt, rhs)
    }
    pub fn gt_eq(self, rhs: Expr) -> Expr {
        Expr::binary(self, BinaryOp::GtEq, rhs)
    }
    pub fn and(self, rhs: Expr) -> Expr {
        Expr::binary(self, BinaryOp::And, rhs)
    }
    pub fn or(self, rhs: Expr) -> Expr {
        Expr::binary(self, BinaryOp::Or, rhs)
    }

    /// Resolve all column names against `schema`, producing an expression
    /// that evaluates without per-row name lookups.
    pub fn bind(&self, schema: &Schema) -> Result<Expr> {
        Ok(match self {
            Expr::Column(name) => Expr::ColumnIdx(schema.index_of(name)?),
            Expr::ColumnIdx(i) => {
                if *i >= schema.len() {
                    return Err(Error::SchemaMismatch(format!(
                        "column ordinal {i} out of range for {schema}"
                    )));
                }
                Expr::ColumnIdx(*i)
            }
            Expr::Literal(v) => Expr::Literal(v.clone()),
            Expr::Binary { left, op, right } => Expr::Binary {
                left: Box::new(left.bind(schema)?),
                op: *op,
                right: Box::new(right.bind(schema)?),
            },
            Expr::Not(e) => Expr::Not(Box::new(e.bind(schema)?)),
            Expr::Neg(e) => Expr::Neg(Box::new(e.bind(schema)?)),
            Expr::IsNull(e) => Expr::IsNull(Box::new(e.bind(schema)?)),
            Expr::IsNotNull(e) => Expr::IsNotNull(Box::new(e.bind(schema)?)),
            Expr::Like { expr, pattern } => Expr::Like {
                expr: Box::new(expr.bind(schema)?),
                pattern: pattern.clone(),
            },
        })
    }

    /// Evaluate a bound expression against a row. Unbound column names
    /// are an error — call [`Expr::bind`] first.
    pub fn eval(&self, row: &Row) -> Result<Value> {
        match self {
            Expr::Column(name) => Err(Error::Eval(format!(
                "unbound column reference {name} (call bind first)"
            ))),
            Expr::ColumnIdx(i) => Ok(row.get(*i).clone()),
            Expr::Literal(v) => Ok(v.clone()),
            Expr::Binary { left, op, right } => {
                // Kleene AND/OR must not short-circuit on errors but may
                // resolve with one NULL side.
                if matches!(op, BinaryOp::And | BinaryOp::Or) {
                    return eval_logical(*op, left.eval(row)?, right.eval(row)?);
                }
                let l = left.eval(row)?;
                let r = right.eval(row)?;
                eval_binary(*op, l, r)
            }
            Expr::Not(e) => match e.eval(row)? {
                Value::Null => Ok(Value::Null),
                v => Ok(Value::Boolean(!v.as_bool()?)),
            },
            Expr::Neg(e) => match e.eval(row)? {
                Value::Null => Ok(Value::Null),
                Value::Int64(i) => Ok(Value::Int64(i.wrapping_neg())),
                Value::Float64(f) => Ok(Value::Float64(-f)),
                other => Err(Error::TypeMismatch {
                    expected: "numeric".into(),
                    found: other.type_name().into(),
                }),
            },
            Expr::IsNull(e) => Ok(Value::Boolean(e.eval(row)?.is_null())),
            Expr::IsNotNull(e) => Ok(Value::Boolean(!e.eval(row)?.is_null())),
            Expr::Like { expr, pattern } => match expr.eval(row)? {
                Value::Null => Ok(Value::Null),
                v => Ok(Value::Boolean(like_match(v.as_str()?, pattern))),
            },
        }
    }

    /// Evaluate as a filter predicate: only `TRUE` passes (NULL and FALSE
    /// are both rejected, as in SQL WHERE).
    pub fn matches(&self, row: &Row) -> Result<bool> {
        Ok(matches!(self.eval(row)?, Value::Boolean(true)))
    }

    /// Static result type of the expression under a schema, when known.
    pub fn result_type(&self, schema: &Schema) -> Result<Option<DataType>> {
        Ok(match self {
            Expr::Column(name) => Some(schema.field(schema.index_of(name)?).dtype),
            Expr::ColumnIdx(i) => Some(schema.field(*i).dtype),
            Expr::Literal(v) => v.data_type(),
            Expr::Binary { left, op, right } => match op {
                BinaryOp::Eq
                | BinaryOp::NotEq
                | BinaryOp::Lt
                | BinaryOp::LtEq
                | BinaryOp::Gt
                | BinaryOp::GtEq
                | BinaryOp::And
                | BinaryOp::Or => Some(DataType::Boolean),
                _ => {
                    let lt = left.result_type(schema)?;
                    let rt = right.result_type(schema)?;
                    match (lt, rt) {
                        (Some(DataType::Float64), _) | (_, Some(DataType::Float64)) => {
                            Some(DataType::Float64)
                        }
                        (Some(DataType::Int64), _) | (_, Some(DataType::Int64)) => {
                            // Division always yields a float, as in Vertica.
                            if matches!(op, BinaryOp::Div) {
                                Some(DataType::Float64)
                            } else {
                                Some(DataType::Int64)
                            }
                        }
                        _ => None,
                    }
                }
            },
            Expr::Not(_) | Expr::IsNull(_) | Expr::IsNotNull(_) | Expr::Like { .. } => {
                Some(DataType::Boolean)
            }
            Expr::Neg(e) => e.result_type(schema)?,
        })
    }

    /// Names of all columns referenced by this expression.
    pub fn referenced_columns(&self, out: &mut Vec<String>) {
        match self {
            Expr::Column(name) => {
                if !out.iter().any(|n| n.eq_ignore_ascii_case(name)) {
                    out.push(name.clone());
                }
            }
            Expr::ColumnIdx(_) | Expr::Literal(_) => {}
            Expr::Binary { left, right, .. } => {
                left.referenced_columns(out);
                right.referenced_columns(out);
            }
            Expr::Not(e) | Expr::Neg(e) | Expr::IsNull(e) | Expr::IsNotNull(e) => {
                e.referenced_columns(out)
            }
            Expr::Like { expr, .. } => expr.referenced_columns(out),
        }
    }

    /// Ordinals of all bound column references (`ColumnIdx`) in this
    /// expression. Unresolved `Column` names are ignored — bind first.
    /// The scan pipeline uses this to decode only referenced columns.
    pub fn referenced_indices(&self, out: &mut Vec<usize>) {
        match self {
            Expr::ColumnIdx(i) => {
                if !out.contains(i) {
                    out.push(*i);
                }
            }
            Expr::Column(_) | Expr::Literal(_) => {}
            Expr::Binary { left, right, .. } => {
                left.referenced_indices(out);
                right.referenced_indices(out);
            }
            Expr::Not(e) | Expr::Neg(e) | Expr::IsNull(e) | Expr::IsNotNull(e) => {
                e.referenced_indices(out)
            }
            Expr::Like { expr, .. } => expr.referenced_indices(out),
        }
    }

    /// Render the expression as a SQL fragment. Used by the connector to
    /// push filters down into database queries (paper Sec. 3.1.1).
    pub fn to_sql(&self) -> String {
        match self {
            Expr::Column(name) => quote_ident(name),
            Expr::ColumnIdx(i) => format!("${i}"),
            Expr::Literal(v) => literal_sql(v),
            Expr::Binary { left, op, right } => {
                format!("({} {} {})", left.to_sql(), op.sql_symbol(), right.to_sql())
            }
            Expr::Not(e) => format!("(NOT {})", e.to_sql()),
            Expr::Neg(e) => format!("(-{})", e.to_sql()),
            Expr::IsNull(e) => format!("({} IS NULL)", e.to_sql()),
            Expr::IsNotNull(e) => format!("({} IS NOT NULL)", e.to_sql()),
            Expr::Like { expr, pattern } => {
                format!("({} LIKE '{}')", expr.to_sql(), escape_sql_string(pattern))
            }
        }
    }
}

impl fmt::Display for Expr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_sql())
    }
}

fn quote_ident(name: &str) -> String {
    if name.chars().all(|c| c.is_ascii_alphanumeric() || c == '_')
        && !name.is_empty()
        && !name.chars().next().unwrap().is_ascii_digit()
    {
        name.to_string()
    } else {
        format!("\"{}\"", name.replace('"', "\"\""))
    }
}

fn escape_sql_string(s: &str) -> String {
    s.replace('\'', "''")
}

fn literal_sql(v: &Value) -> String {
    match v {
        Value::Null => "NULL".to_string(),
        Value::Boolean(b) => b.to_string().to_uppercase(),
        Value::Int64(i) => i.to_string(),
        Value::Float64(x) => {
            if x.fract() == 0.0 && x.is_finite() {
                format!("{x:.1}")
            } else {
                format!("{x}")
            }
        }
        Value::Varchar(s) => format!("'{}'", escape_sql_string(s)),
    }
}

fn eval_logical(op: BinaryOp, l: Value, r: Value) -> Result<Value> {
    let lb = match &l {
        Value::Null => None,
        v => Some(v.as_bool()?),
    };
    let rb = match &r {
        Value::Null => None,
        v => Some(v.as_bool()?),
    };
    let out = match op {
        BinaryOp::And => match (lb, rb) {
            (Some(false), _) | (_, Some(false)) => Some(false),
            (Some(true), Some(true)) => Some(true),
            _ => None,
        },
        BinaryOp::Or => match (lb, rb) {
            (Some(true), _) | (_, Some(true)) => Some(true),
            (Some(false), Some(false)) => Some(false),
            _ => None,
        },
        _ => unreachable!("eval_logical called with non-logical op"),
    };
    Ok(out.map(Value::Boolean).unwrap_or(Value::Null))
}

fn eval_binary(op: BinaryOp, l: Value, r: Value) -> Result<Value> {
    use BinaryOp::*;
    match op {
        Eq | NotEq | Lt | LtEq | Gt | GtEq => {
            let Some(ord) = l.sql_cmp(&r) else {
                return Ok(Value::Null);
            };
            let b = match op {
                Eq => ord == Ordering::Equal,
                NotEq => ord != Ordering::Equal,
                Lt => ord == Ordering::Less,
                LtEq => ord != Ordering::Greater,
                Gt => ord == Ordering::Greater,
                GtEq => ord != Ordering::Less,
                _ => unreachable!(),
            };
            Ok(Value::Boolean(b))
        }
        Add | Sub | Mul | Div | Mod => {
            if l.is_null() || r.is_null() {
                return Ok(Value::Null);
            }
            match (&l, &r) {
                (Value::Int64(a), Value::Int64(b)) => {
                    let a = *a;
                    let b = *b;
                    match op {
                        Add => Ok(Value::Int64(a.wrapping_add(b))),
                        Sub => Ok(Value::Int64(a.wrapping_sub(b))),
                        Mul => Ok(Value::Int64(a.wrapping_mul(b))),
                        Div => {
                            if b == 0 {
                                Err(Error::Eval("division by zero".into()))
                            } else {
                                Ok(Value::Float64(a as f64 / b as f64))
                            }
                        }
                        Mod => {
                            if b == 0 {
                                Err(Error::Eval("division by zero".into()))
                            } else {
                                // `i64::MIN % -1` is 0, not an overflow.
                                Ok(Value::Int64(a.wrapping_rem(b)))
                            }
                        }
                        _ => unreachable!(),
                    }
                }
                _ => {
                    let a = l.as_f64()?;
                    let b = r.as_f64()?;
                    let x = match op {
                        Add => a + b,
                        Sub => a - b,
                        Mul => a * b,
                        Div => {
                            if b == 0.0 {
                                return Err(Error::Eval("division by zero".into()));
                            }
                            a / b
                        }
                        Mod => {
                            if b == 0.0 {
                                return Err(Error::Eval("division by zero".into()));
                            }
                            a % b
                        }
                        _ => unreachable!(),
                    };
                    Ok(Value::Float64(x))
                }
            }
        }
        And | Or => unreachable!("handled by eval_logical"),
    }
}

/// SQL LIKE matcher: `%` matches any run (including empty), `_` matches a
/// single character. Comparison is byte-wise (ASCII semantics).
fn like_match(text: &str, pattern: &str) -> bool {
    fn rec(t: &[u8], p: &[u8]) -> bool {
        match p.first() {
            None => t.is_empty(),
            Some(b'%') => {
                // Collapse consecutive %.
                let p = &p[1..];
                (0..=t.len()).any(|i| rec(&t[i..], p))
            }
            Some(b'_') => !t.is_empty() && rec(&t[1..], &p[1..]),
            Some(&c) => t.first() == Some(&c) && rec(&t[1..], &p[1..]),
        }
    }
    rec(text.as_bytes(), pattern.as_bytes())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::row;

    fn schema() -> Schema {
        Schema::from_pairs(&[
            ("id", DataType::Int64),
            ("score", DataType::Float64),
            ("name", DataType::Varchar),
        ])
    }

    fn eval_on(e: Expr, r: &Row) -> Value {
        e.bind(&schema()).unwrap().eval(r).unwrap()
    }

    #[test]
    fn comparison_and_arithmetic() {
        let r = row![10i64, 2.5f64, "alice"];
        assert_eq!(
            eval_on(Expr::col("id").gt(Expr::lit(5i64)), &r),
            Value::Boolean(true)
        );
        assert_eq!(
            eval_on(
                Expr::binary(Expr::col("id"), BinaryOp::Add, Expr::col("score")),
                &r
            ),
            Value::Float64(12.5)
        );
        assert_eq!(
            eval_on(
                Expr::binary(Expr::lit(7i64), BinaryOp::Div, Expr::lit(2i64)),
                &r
            ),
            Value::Float64(3.5)
        );
    }

    #[test]
    fn kleene_logic_with_nulls() {
        let r = Row::new(vec![Value::Null, Value::Float64(1.0), Value::Null]);
        // NULL AND FALSE = FALSE
        let e = Expr::col("id")
            .gt(Expr::lit(0i64))
            .and(Expr::col("score").lt(Expr::lit(0i64)));
        assert_eq!(eval_on(e, &r), Value::Boolean(false));
        // NULL OR TRUE = TRUE
        let e = Expr::col("id")
            .gt(Expr::lit(0i64))
            .or(Expr::col("score").gt(Expr::lit(0i64)));
        assert_eq!(eval_on(e, &r), Value::Boolean(true));
        // NULL AND TRUE = NULL, and a NULL predicate does not match.
        let e = Expr::col("id")
            .gt(Expr::lit(0i64))
            .and(Expr::col("score").gt(Expr::lit(0i64)));
        let bound = e.bind(&schema()).unwrap();
        assert_eq!(bound.eval(&r).unwrap(), Value::Null);
        assert!(!bound.matches(&r).unwrap());
    }

    #[test]
    fn is_null_and_like() {
        let r = Row::new(vec![
            Value::Null,
            Value::Float64(0.0),
            Value::Varchar("alice".into()),
        ]);
        assert_eq!(
            eval_on(Expr::IsNull(Box::new(Expr::col("id"))), &r),
            Value::Boolean(true)
        );
        assert_eq!(
            eval_on(
                Expr::Like {
                    expr: Box::new(Expr::col("name")),
                    pattern: "al%e".into()
                },
                &r
            ),
            Value::Boolean(true)
        );
        assert_eq!(
            eval_on(
                Expr::Like {
                    expr: Box::new(Expr::col("name")),
                    pattern: "a_ice".into()
                },
                &r
            ),
            Value::Boolean(true)
        );
        assert_eq!(
            eval_on(
                Expr::Like {
                    expr: Box::new(Expr::col("name")),
                    pattern: "bob".into()
                },
                &r
            ),
            Value::Boolean(false)
        );
    }

    #[test]
    fn division_by_zero_is_an_error() {
        let r = row![0i64, 0.0f64, "x"];
        let e = Expr::binary(Expr::lit(1i64), BinaryOp::Div, Expr::col("id"));
        assert!(e.bind(&schema()).unwrap().eval(&r).is_err());
    }

    #[test]
    fn bind_rejects_unknown_columns_and_eval_rejects_unbound() {
        assert!(Expr::col("nope").bind(&schema()).is_err());
        assert!(Expr::col("id").eval(&row![1i64]).is_err());
    }

    #[test]
    fn to_sql_round_trippable_shapes() {
        let e = Expr::col("id")
            .gt_eq(Expr::lit(5i64))
            .and(Expr::col("name").eq(Expr::lit("o'brien")));
        assert_eq!(e.to_sql(), "((id >= 5) AND (name = 'o''brien'))");
    }

    #[test]
    fn referenced_columns_deduplicates() {
        let e = Expr::col("a")
            .gt(Expr::col("b"))
            .and(Expr::col("A").lt(Expr::lit(1i64)));
        let mut cols = Vec::new();
        e.referenced_columns(&mut cols);
        assert_eq!(cols, vec!["a".to_string(), "b".to_string()]);
    }

    /// SplitMix64 draws for the generated trees below.
    struct Draws(u64);

    impl Draws {
        fn below(&mut self, n: usize) -> usize {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            ((z ^ (z >> 31)) % n as u64) as usize
        }
    }

    const TYPES: [DataType; 4] = [
        DataType::Boolean,
        DataType::Int64,
        DataType::Float64,
        DataType::Varchar,
    ];

    /// A value of `dtype`, or NULL: the integer and float edges, zeros
    /// and small numbers most often.
    fn random_value(d: &mut Draws, dtype: DataType) -> Value {
        if d.below(6) == 0 {
            return Value::Null;
        }
        let small = d.below(7) as i64 - 3;
        match dtype {
            DataType::Boolean => Value::Boolean(small > 0),
            DataType::Int64 => Value::Int64([small, i64::MIN, i64::MAX, -1][d.below(4)]),
            DataType::Float64 => {
                let edges = [small as f64 / 2.0, -0.0, f64::NAN, f64::INFINITY, 1e300];
                Value::Float64(edges[d.below(edges.len())])
            }
            DataType::Varchar => Value::Varchar(["", "a", "ab"][d.below(3)].to_string()),
        }
    }

    /// A tree of depth at most `depth` over `schema`'s columns (bound) and
    /// literals of every type, through every operator.
    fn random_expr(d: &mut Draws, schema: &Schema, depth: u32) -> Expr {
        if depth == 0 || d.below(4) == 0 {
            let dtype = TYPES[d.below(4)];
            return match d.below(3) {
                0 => Expr::lit(random_value(d, dtype)),
                _ => Expr::ColumnIdx(d.below(schema.len())),
            };
        }
        use BinaryOp::*;
        let ops = [
            Eq, NotEq, Lt, LtEq, Gt, GtEq, And, Or, Add, Sub, Mul, Div, Mod,
        ];
        let (shape, op) = (d.below(7), ops[d.below(ops.len())]);
        let mut sub = || Box::new(random_expr(d, schema, depth - 1));
        match shape {
            0 => Expr::Not(sub()),
            1 => Expr::Neg(sub()),
            2 => Expr::IsNull(sub()),
            3 => Expr::IsNotNull(sub()),
            4 => Expr::Like {
                expr: sub(),
                pattern: "a%".into(),
            },
            _ => Expr::Binary {
                left: sub(),
                op,
                right: sub(),
            },
        }
    }

    /// Output schemas are declared from `result_type`: every non-NULL
    /// value an expression evaluates to must have the type it states,
    /// and a type it cannot state (`None`) has no non-NULL value.
    #[test]
    fn result_type_is_the_type_of_every_value() {
        let mut d = Draws(0x7E57);
        let (mut typed, mut failed) = (0, 0);
        for _ in 0..256 {
            let fields = (0..1 + d.below(4))
                .map(|i| crate::schema::Field::new(format!("c{i}"), TYPES[d.below(4)]))
                .collect();
            let schema = Schema::new(fields);
            for _ in 0..16 {
                let e = random_expr(&mut d, &schema, 3);
                let want = e.result_type(&schema).unwrap();
                for _ in 0..8 {
                    let row: Row = schema
                        .fields()
                        .iter()
                        .map(|f| random_value(&mut d, f.dtype))
                        .collect();
                    match e.eval(&row) {
                        Ok(v) if !v.is_null() => {
                            assert_eq!(v.data_type(), want, "{e} over {row:?}");
                            typed += 1;
                        }
                        Ok(_) => {}
                        Err(_) => failed += 1,
                    }
                }
            }
        }
        assert!(
            typed > 1_000 && failed > 1_000,
            "{typed} typed, {failed} failed"
        );
    }

    #[test]
    fn like_matcher_edge_cases() {
        assert!(like_match("", ""));
        assert!(like_match("", "%"));
        assert!(!like_match("", "_"));
        assert!(like_match("abc", "%%c"));
        assert!(like_match("abc", "a%"));
        assert!(!like_match("abc", "a"));
        assert!(like_match("a%c", "a%c")); // literal text containing %
    }
}
