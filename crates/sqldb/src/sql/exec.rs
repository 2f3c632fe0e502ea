//! SQL executor.
//!
//! Deliberately faithful to the paper's premise about 1999-era optimizers
//! (§2.3): *"optimizers in most database systems are not capable of
//! exploiting the commonality"* across the UNION arms of a CC-table query.
//! Each `UNION` arm here executes as its own full sequential scan and hash
//! aggregation — which is exactly what makes the SQL-based counting
//! baseline degrade in Figure 7, and what the middleware's single-scan
//! counting beats.

use super::ast::{BoolExpr, CmpOp, Projection, SelectArm, SelectQuery, Statement};
use super::parser::parse;
use super::result::{ResultSet, SqlValue};
use crate::database::Database;
use crate::error::{DbError, DbResult};
use crate::expr::Pred;
use crate::types::{Code, Schema};
use std::collections::HashMap;
use std::sync::Arc;

/// Result of executing one statement.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ExecOutcome {
    /// A query produced rows.
    Rows(ResultSet),
    /// `CREATE TABLE` succeeded (name echoed).
    TableCreated(String),
    /// `INSERT` stored this many rows.
    RowsInserted(u64),
    /// `DROP TABLE` succeeded (name echoed).
    TableDropped(String),
    /// `DELETE` removed this many rows.
    RowsDeleted(u64),
}

impl ExecOutcome {
    /// Unwrap a row-producing outcome.
    pub fn into_rows(self) -> DbResult<ResultSet> {
        match self {
            ExecOutcome::Rows(rs) => Ok(rs),
            other => Err(DbError::Unsupported(format!(
                "statement did not produce rows: {other:?}"
            ))),
        }
    }
}

/// Parse and execute one SQL statement against the database.
pub fn execute(db: &mut Database, sql: &str) -> DbResult<ExecOutcome> {
    let stmt = parse(sql)?;
    db.stats().add_statement();
    match stmt {
        Statement::Select(query) => execute_select(db, &query).map(ExecOutcome::Rows),
        Statement::CreateTable { name, columns } => {
            let schema = Schema::new(
                columns
                    .into_iter()
                    .map(|(n, c)| crate::types::ColumnMeta::new(n, c))
                    .collect(),
            );
            db.create_table(name.clone(), schema)?;
            Ok(ExecOutcome::TableCreated(name))
        }
        Statement::Insert { table, rows } => {
            let mut n = 0;
            for row in rows {
                db.insert(&table, &row)?;
                n += 1;
            }
            Ok(ExecOutcome::RowsInserted(n))
        }
        Statement::DropTable { name } => {
            db.drop_table(&name)?;
            Ok(ExecOutcome::TableDropped(name))
        }
        Statement::Delete {
            table,
            where_clause,
        } => {
            let pred = {
                let schema = db.table(&table)?.schema();
                match &where_clause {
                    Some(expr) => resolve_bool_expr(expr, schema)?,
                    None => Pred::True,
                }
            };
            // Through the catalog, not the table: a delete must reach the
            // delta log, the epoch and the TID sets like the API call's.
            let removed = db.delete_where(&table, &pred)?;
            Ok(ExecOutcome::RowsDeleted(removed))
        }
    }
}

/// Parse and execute a `;`-separated script of statements, stopping at the
/// first error. Returns one outcome per executed statement. Semicolons
/// inside string literals are respected.
pub fn execute_script(db: &mut Database, script: &str) -> DbResult<Vec<ExecOutcome>> {
    let mut outcomes = Vec::new();
    for stmt in split_statements(script) {
        if stmt.trim().is_empty() {
            continue;
        }
        outcomes.push(execute(db, stmt)?);
    }
    Ok(outcomes)
}

/// Split on top-level semicolons (quote-aware).
fn split_statements(script: &str) -> Vec<&str> {
    let mut parts = Vec::new();
    let bytes = script.as_bytes();
    let mut start = 0;
    let mut in_quotes = false;
    for (i, &b) in bytes.iter().enumerate() {
        match b {
            b'\'' => in_quotes = !in_quotes,
            b';' if !in_quotes => {
                parts.push(&script[start..i]);
                start = i + 1;
            }
            _ => {}
        }
    }
    parts.push(&script[start..]);
    parts
}

/// Execute a query (read-only; `&Database` suffices).
pub fn execute_select(db: &Database, query: &SelectQuery) -> DbResult<ResultSet> {
    let mut combined: Option<ResultSet> = None;
    for (arm_idx, arm) in query.arms.iter().enumerate() {
        let arm_result = execute_arm(db, arm)?;
        match &mut combined {
            None => combined = Some(arm_result),
            Some(acc) => {
                if acc.columns.len() != arm_result.columns.len() {
                    return Err(DbError::UnionSchemaMismatch { arm: arm_idx });
                }
                acc.rows.extend(arm_result.rows);
            }
        }
    }
    let mut rs = combined.ok_or_else(|| DbError::Unsupported("query with no arms".into()))?;
    if !query.order_by.is_empty() {
        apply_order_by(&mut rs, &query.order_by)?;
    }
    if let Some(limit) = query.limit {
        rs.rows.truncate(limit as usize);
    }
    Ok(rs)
}

/// Sort the combined result by the named output columns.
fn apply_order_by(rs: &mut ResultSet, keys: &[super::ast::OrderKey]) -> DbResult<()> {
    use std::cmp::Ordering;
    let resolved: Vec<(usize, bool)> = keys
        .iter()
        .map(|k| {
            rs.column_index(&k.column)
                .map(|i| (i, k.desc))
                .ok_or_else(|| DbError::UnknownColumn(k.column.clone()))
        })
        .collect::<DbResult<Vec<_>>>()?;
    let cmp_values = |a: &SqlValue, b: &SqlValue| -> Ordering {
        match (a, b) {
            (SqlValue::Int(x), SqlValue::Int(y)) => x.cmp(y),
            (SqlValue::Str(x), SqlValue::Str(y)) => x.cmp(y),
            (SqlValue::Int(_), SqlValue::Str(_)) => Ordering::Less,
            (SqlValue::Str(_), SqlValue::Int(_)) => Ordering::Greater,
        }
    };
    rs.rows.sort_by(|a, b| {
        for &(idx, desc) in &resolved {
            let ord = cmp_values(&a[idx], &b[idx]);
            let ord = if desc { ord.reverse() } else { ord };
            if ord != Ordering::Equal {
                return ord;
            }
        }
        Ordering::Equal
    });
    Ok(())
}

/// Resolve a named boolean expression against a schema into a [`Pred`].
pub fn resolve_bool_expr(expr: &BoolExpr, schema: &Schema) -> DbResult<Pred> {
    Ok(match expr {
        BoolExpr::Const(true) => Pred::True,
        BoolExpr::Const(false) => Pred::False,
        BoolExpr::Cmp { column, op, value } => {
            let col = schema.column_index(column)?;
            if *value > u64::from(u16::MAX) {
                // A comparison against an unrepresentable value can never
                // match an equality and always matches an inequality.
                return Ok(match op {
                    CmpOp::Eq => Pred::False,
                    CmpOp::NotEq => Pred::True,
                });
            }
            let value = *value as Code;
            match op {
                CmpOp::Eq => Pred::Eq { col, value },
                CmpOp::NotEq => Pred::NotEq { col, value },
            }
        }
        BoolExpr::And(terms) => Pred::and(
            terms
                .iter()
                .map(|t| resolve_bool_expr(t, schema))
                .collect::<DbResult<Vec<_>>>()?,
        ),
        BoolExpr::Or(terms) => Pred::or(
            terms
                .iter()
                .map(|t| resolve_bool_expr(t, schema))
                .collect::<DbResult<Vec<_>>>()?,
        ),
        BoolExpr::Not(inner) => negate(resolve_bool_expr(inner, schema)?),
    })
}

/// Push negation down to atoms (our `Pred` has no NOT node).
fn negate(p: Pred) -> Pred {
    match p {
        Pred::True => Pred::False,
        Pred::False => Pred::True,
        Pred::Eq { col, value } => Pred::NotEq { col, value },
        Pred::NotEq { col, value } => Pred::Eq { col, value },
        Pred::And(children) => Pred::or(children.into_iter().map(negate).collect()),
        Pred::Or(children) => Pred::and(children.into_iter().map(negate).collect()),
    }
}

fn execute_arm(db: &Database, arm: &SelectArm) -> DbResult<ResultSet> {
    let table = db.table(&arm.table)?;
    let schema = table.schema();
    let pred = match &arm.where_clause {
        Some(expr) => resolve_bool_expr(expr, schema)?,
        None => Pred::True,
    };
    // Each arm filters its scan a page at a time, as a cursor does.
    if arm.group_by.is_empty() {
        execute_plain(db, arm, &pred)
    } else {
        execute_grouped(db, arm, &pred)
    }
}

/// Plain SELECT (projection of matching rows, or a bare COUNT(*)).
fn execute_plain(db: &Database, arm: &SelectArm, filter: &Pred) -> DbResult<ResultSet> {
    let table = db.table(&arm.table)?;
    let schema = table.schema();
    let stats = Arc::clone(db.stats());

    // Bare aggregate: SELECT COUNT(*) FROM t [WHERE ...]
    if arm.projections.len() == 1 {
        if let Projection::CountStar { .. } = &arm.projections[0] {
            let mut count = 0;
            table.scan_selected(filter, &stats, |_, _, sel| count += sel.len() as u64);
            let mut rs = ResultSet::new(vec![arm.projections[0].output_name()]);
            rs.rows.push(vec![SqlValue::Int(count)]);
            return Ok(rs);
        }
    }

    // Column projections (wildcard expands to all columns).
    let mut cols: Vec<ProjectedCol> = Vec::new();
    let mut names: Vec<String> = Vec::new();
    for p in &arm.projections {
        match p {
            Projection::Wildcard => {
                for (i, c) in schema.columns().iter().enumerate() {
                    cols.push(ProjectedCol::Column(i));
                    names.push(c.name().to_string());
                }
            }
            Projection::Column { name, .. } => {
                cols.push(ProjectedCol::Column(schema.column_index(name)?));
                names.push(p.output_name());
            }
            Projection::StrLit { value, .. } => {
                cols.push(ProjectedCol::Str(value.clone()));
                names.push(p.output_name());
            }
            Projection::IntLit { value, .. } => {
                cols.push(ProjectedCol::Int(*value));
                names.push(p.output_name());
            }
            Projection::CountStar { .. } => {
                return Err(DbError::Unsupported(
                    "COUNT(*) mixed with plain projections requires GROUP BY".into(),
                ))
            }
        }
    }

    let mut rs = ResultSet::new(names);
    table.scan_matching(filter, &stats, |_, row| {
        rs.rows.push(
            cols.iter()
                .map(|c| match c {
                    ProjectedCol::Column(i) => SqlValue::Int(u64::from(row[*i])),
                    ProjectedCol::Str(s) => SqlValue::Str(s.clone()),
                    ProjectedCol::Int(v) => SqlValue::Int(*v),
                })
                .collect(),
        );
    });
    Ok(rs)
}

enum ProjectedCol {
    Column(usize),
    Str(String),
    Int(u64),
}

/// GROUP BY + COUNT(*) aggregation (one hash aggregation per arm).
fn execute_grouped(db: &Database, arm: &SelectArm, filter: &Pred) -> DbResult<ResultSet> {
    let table = db.table(&arm.table)?;
    let schema = table.schema();
    let stats = Arc::clone(db.stats());
    stats.add_group_by();

    let group_cols: Vec<usize> = arm
        .group_by
        .iter()
        .map(|name| schema.column_index(name))
        .collect::<DbResult<Vec<_>>>()?;

    // Validate projections: columns must be grouped; literals and COUNT(*)
    // are always fine.
    for p in &arm.projections {
        match p {
            Projection::Wildcard => return Err(DbError::Unsupported("`*` with GROUP BY".into())),
            Projection::Column { name, .. } => {
                let idx = schema.column_index(name)?;
                if !group_cols.contains(&idx) {
                    return Err(DbError::Unsupported(format!(
                        "column `{name}` must appear in GROUP BY"
                    )));
                }
            }
            _ => {}
        }
    }

    let mut groups: HashMap<Vec<Code>, u64> = HashMap::new();
    // One reusable key buffer: probe by slice (`Vec<Code>: Borrow<[Code]>`)
    // and clone only when a group is seen for the first time, so the hot
    // loop allocates once per distinct group rather than once per row.
    let mut key = Vec::with_capacity(group_cols.len());
    table.scan_matching(filter, &stats, |_, row| {
        key.clear();
        key.extend(group_cols.iter().map(|&c| row[c]));
        if let Some(n) = groups.get_mut(key.as_slice()) {
            *n += 1;
        } else {
            groups.insert(key.clone(), 1);
        }
    });

    let names: Vec<String> = arm
        .projections
        .iter()
        .map(Projection::output_name)
        .collect();
    let mut rs = ResultSet::new(names);
    for (group_key, count) in groups {
        let row: Vec<SqlValue> = arm
            .projections
            .iter()
            .map(|p| match p {
                Projection::Column { name, .. } => {
                    let idx = schema.column_index(name).expect("validated above");
                    let pos = group_cols
                        .iter()
                        .position(|&c| c == idx)
                        .expect("validated above");
                    SqlValue::Int(u64::from(group_key[pos]))
                }
                Projection::StrLit { value, .. } => SqlValue::Str(value.clone()),
                Projection::IntLit { value, .. } => SqlValue::Int(*value),
                Projection::CountStar { .. } => SqlValue::Int(count),
                Projection::Wildcard => unreachable!("validated above"),
            })
            .collect();
        rs.rows.push(row);
    }
    rs.sort();
    Ok(rs)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn db() -> Database {
        let mut db = Database::new();
        execute(
            &mut db,
            "CREATE TABLE t (a CARDINALITY 3, b CARDINALITY 2, class CARDINALITY 2)",
        )
        .unwrap();
        // rows: (a, b, class)
        for (a, b, c) in [
            (0, 0, 0),
            (0, 1, 0),
            (1, 0, 1),
            (1, 1, 1),
            (2, 0, 0),
            (2, 1, 1),
            (2, 0, 1),
        ] {
            execute(&mut db, &format!("INSERT INTO t VALUES ({a}, {b}, {c})")).unwrap();
        }
        db
    }

    #[test]
    fn select_star_where() {
        let mut d = db();
        let rs = execute(&mut d, "SELECT * FROM t WHERE a = 2")
            .unwrap()
            .into_rows()
            .unwrap();
        assert_eq!(rs.len(), 3);
        assert_eq!(rs.columns, vec!["a", "b", "class"]);
    }

    #[test]
    fn bare_count_star() {
        let mut d = db();
        let rs = execute(&mut d, "SELECT COUNT(*) FROM t WHERE class <> 0")
            .unwrap()
            .into_rows()
            .unwrap();
        assert_eq!(rs.rows[0][0], SqlValue::Int(4));
    }

    #[test]
    fn group_by_count_matches_hand_count() {
        let mut d = db();
        let rs = execute(
            &mut d,
            "SELECT a, class, COUNT(*) AS n FROM t GROUP BY a, class",
        )
        .unwrap()
        .into_rows()
        .unwrap();
        // groups: (0,0)=2 (1,1)=2 (2,0)=1 (2,1)=2
        assert_eq!(rs.len(), 4);
        let find = |a: u64, c: u64| {
            rs.rows
                .iter()
                .find(|r| r[0] == SqlValue::Int(a) && r[1] == SqlValue::Int(c))
                .map(|r| r[2].clone())
        };
        assert_eq!(find(0, 0), Some(SqlValue::Int(2)));
        assert_eq!(find(2, 1), Some(SqlValue::Int(2)));
        assert_eq!(find(1, 0), None);
    }

    #[test]
    fn paper_cc_union_query() {
        let mut d = db();
        let sql = "SELECT 'a' AS attr_name, a AS value, class, COUNT(*) \
                   FROM t WHERE b = 0 GROUP BY class, a \
                   UNION ALL \
                   SELECT 'b' AS attr_name, b AS value, class, COUNT(*) \
                   FROM t WHERE b = 0 GROUP BY class, b";
        let before = d.stats().snapshot();
        let rs = execute(&mut d, sql).unwrap().into_rows().unwrap();
        let delta = d.stats().snapshot() - before;
        assert_eq!(rs.columns, vec!["attr_name", "value", "class", "count(*)"]);
        // b=0 rows: (0,0,0),(1,0,1),(2,0,0),(2,0,1)
        // arm a: (a=0,c=0)=1 (1,1)=1 (2,0)=1 (2,1)=1 → 4 groups
        // arm b: (b=0,c=0)=2 (b=0,c=1)=2 → 2 groups
        assert_eq!(rs.len(), 6);
        assert_eq!(delta.seq_scans, 2, "each UNION arm pays its own scan");
        assert_eq!(delta.group_by_queries, 2);
    }

    #[test]
    fn union_arity_mismatch_rejected() {
        let mut d = db();
        let err = execute(&mut d, "SELECT a FROM t UNION ALL SELECT a, b FROM t");
        assert!(matches!(err, Err(DbError::UnionSchemaMismatch { arm: 1 })));
    }

    #[test]
    fn not_predicate_pushdown() {
        let mut d = db();
        let rs = execute(&mut d, "SELECT COUNT(*) FROM t WHERE NOT (a = 2 OR b = 1)")
            .unwrap()
            .into_rows()
            .unwrap();
        // NOT(a=2 OR b=1) = a<>2 AND b<>1 → rows (0,0,0),(1,0,1) → 2
        assert_eq!(rs.rows[0][0], SqlValue::Int(2));
    }

    #[test]
    fn out_of_range_literal_is_never_equal() {
        let mut d = db();
        let rs = execute(&mut d, "SELECT COUNT(*) FROM t WHERE a = 70000")
            .unwrap()
            .into_rows()
            .unwrap();
        assert_eq!(rs.rows[0][0], SqlValue::Int(0));
        let rs2 = execute(&mut d, "SELECT COUNT(*) FROM t WHERE a <> 70000")
            .unwrap()
            .into_rows()
            .unwrap();
        assert_eq!(rs2.rows[0][0], SqlValue::Int(7));
    }

    #[test]
    fn ungrouped_column_in_group_by_rejected() {
        let mut d = db();
        assert!(matches!(
            execute(&mut d, "SELECT b, COUNT(*) FROM t GROUP BY a"),
            Err(DbError::Unsupported(_))
        ));
        assert!(matches!(
            execute(&mut d, "SELECT *, COUNT(*) FROM t GROUP BY a"),
            Err(DbError::Unsupported(_))
        ));
    }

    #[test]
    fn unknown_table_and_column() {
        let mut d = db();
        assert!(matches!(
            execute(&mut d, "SELECT * FROM missing"),
            Err(DbError::UnknownTable(_))
        ));
        assert!(matches!(
            execute(&mut d, "SELECT zzz FROM t"),
            Err(DbError::UnknownColumn(_))
        ));
    }

    #[test]
    fn delete_where_removes_matches_and_compacts() {
        let mut d = db();
        let out = execute(&mut d, "DELETE FROM t WHERE a = 2").unwrap();
        assert_eq!(out, ExecOutcome::RowsDeleted(3));
        let rs = execute(&mut d, "SELECT COUNT(*) FROM t")
            .unwrap()
            .into_rows()
            .unwrap();
        assert_eq!(rs.rows[0][0], SqlValue::Int(4));
        // remaining rows all have a != 2 and scans still work
        let rs = execute(&mut d, "SELECT COUNT(*) FROM t WHERE a = 2")
            .unwrap()
            .into_rows()
            .unwrap();
        assert_eq!(rs.rows[0][0], SqlValue::Int(0));
        // unconditional delete empties the table
        let out = execute(&mut d, "DELETE FROM t").unwrap();
        assert_eq!(out, ExecOutcome::RowsDeleted(4));
        let rs = execute(&mut d, "SELECT COUNT(*) FROM t")
            .unwrap()
            .into_rows()
            .unwrap();
        assert_eq!(rs.rows[0][0], SqlValue::Int(0));
        // deleting from a missing table errors
        assert!(execute(&mut d, "DELETE FROM nope").is_err());
    }

    /// Regression: SQL `DELETE` used to reach the table behind the
    /// catalog's back — no `-row` events for an enabled delta log, no epoch
    /// bump, and TID sets left dangling over the compacted heap.
    #[test]
    fn sql_delete_is_the_api_delete_to_log_epoch_and_tid_sets() {
        let (mut by_sql, mut by_api) = (db(), db());
        let pred = Pred::Eq { col: 0, value: 2 };
        let mut tid_sets = Vec::new();
        for d in [&mut by_sql, &mut by_api] {
            d.enable_delta_log("t").unwrap();
            tid_sets.push(d.create_tid_set("t", &Pred::True).unwrap());
        }
        let epoch = by_sql.table_epoch("t");

        // A delete that matches nothing changes none of the three.
        let out = execute(&mut by_sql, "DELETE FROM t WHERE a = 2 AND a = 1").unwrap();
        assert_eq!(out, ExecOutcome::RowsDeleted(0));
        assert_eq!(by_sql.delta_log_len("t"), 0);
        assert_eq!(by_sql.table_epoch("t"), epoch);
        assert!(by_sql.tid_set(&tid_sets[0]).is_ok());

        let out = execute(&mut by_sql, "DELETE FROM t WHERE a = 2").unwrap();
        assert_eq!(out, ExecOutcome::RowsDeleted(3));
        assert_eq!(by_api.delete_where("t", &pred), Ok(3));
        assert_eq!(by_sql.table_epoch("t"), epoch + 1);
        assert_eq!(by_sql.table_epoch("t"), by_api.table_epoch("t"));
        assert!(by_sql.tid_set(&tid_sets[0]).is_err(), "TIDs renumbered");
        assert!(by_api.tid_set(&tid_sets[1]).is_err());
        let events = by_sql.take_deltas("t");
        assert_eq!(events, by_api.take_deltas("t"));
        let removed: Vec<&[Code]> = events.iter().map(|e| &e.row[..]).collect();
        assert_eq!(removed, [[2, 0, 0], [2, 1, 1], [2, 0, 1]], "scan order");
        assert!(events
            .iter()
            .all(|e| e.sign == crate::delta::DeltaSign::Delete));
    }

    #[test]
    fn scripts_execute_in_order_and_stop_on_error() {
        let mut d = Database::new();
        let outcomes = execute_script(
            &mut d,
            "CREATE TABLE s (x CARDINALITY 3, c CARDINALITY 2);
             INSERT INTO s VALUES (0,0), (1,1), (2,1);
             SELECT COUNT(*) FROM s WHERE c = 1;",
        )
        .unwrap();
        assert_eq!(outcomes.len(), 3);
        match &outcomes[2] {
            ExecOutcome::Rows(rs) => assert_eq!(rs.rows[0][0], SqlValue::Int(2)),
            other => panic!("{other:?}"),
        }
        // Error mid-script: earlier statements persist, later never run.
        let err = execute_script(
            &mut d,
            "INSERT INTO s VALUES (1,0); SELECT * FROM missing; DROP TABLE s;",
        );
        assert!(err.is_err());
        assert_eq!(d.table("s").unwrap().nrows(), 4, "first insert persisted");
    }

    #[test]
    fn script_split_respects_string_literals() {
        let mut d = Database::new();
        execute_script(&mut d, "CREATE TABLE q (x CARDINALITY 2)").unwrap();
        // a literal containing a semicolon must not split the statement
        let rs = execute(&mut d, "SELECT 'a;b' AS tag, COUNT(*) FROM q GROUP BY x");
        // (no rows since table empty, but it must parse as ONE statement)
        assert!(rs.is_ok());
        let outcomes =
            execute_script(&mut d, "SELECT 'x;y' AS t FROM q; INSERT INTO q VALUES (0)").unwrap();
        assert_eq!(outcomes.len(), 2);
    }

    #[test]
    fn order_by_and_limit() {
        let mut d = db();
        let rs = execute(
            &mut d,
            "SELECT a, b FROM t WHERE a <> 1 ORDER BY a DESC, b ASC",
        )
        .unwrap()
        .into_rows()
        .unwrap();
        // rows with a≠1: (0,0),(0,1),(2,0),(2,1),(2,0) → a desc, b asc
        let pairs: Vec<(u64, u64)> = rs
            .rows
            .iter()
            .map(|r| (r[0].as_int().unwrap(), r[1].as_int().unwrap()))
            .collect();
        assert_eq!(pairs, vec![(2, 0), (2, 0), (2, 1), (0, 0), (0, 1)]);

        let rs = execute(&mut d, "SELECT a FROM t ORDER BY a LIMIT 3")
            .unwrap()
            .into_rows()
            .unwrap();
        assert_eq!(rs.len(), 3);
        assert!(rs.rows.iter().all(|r| r[0].as_int().unwrap() <= 1));

        // LIMIT larger than the result is a no-op; LIMIT 0 empties it.
        let rs = execute(&mut d, "SELECT a FROM t LIMIT 100")
            .unwrap()
            .into_rows()
            .unwrap();
        assert_eq!(rs.len(), 7);
        let rs = execute(&mut d, "SELECT a FROM t LIMIT 0")
            .unwrap()
            .into_rows()
            .unwrap();
        assert!(rs.is_empty());
    }

    #[test]
    fn order_by_applies_after_union_and_aliases() {
        let mut d = db();
        let rs = execute(
            &mut d,
            "SELECT a AS v, COUNT(*) AS n FROM t GROUP BY a \
             UNION ALL SELECT b AS v, COUNT(*) AS n FROM t GROUP BY b \
             ORDER BY n DESC LIMIT 2",
        )
        .unwrap()
        .into_rows()
        .unwrap();
        assert_eq!(rs.len(), 2);
        let n0 = rs.rows[0][1].as_int().unwrap();
        let n1 = rs.rows[1][1].as_int().unwrap();
        assert!(n0 >= n1);
        assert_eq!(n0, 4, "b=0 appears 4 times");
    }

    #[test]
    fn order_by_unknown_column_errors() {
        let mut d = db();
        assert!(matches!(
            execute(&mut d, "SELECT a FROM t ORDER BY zzz"),
            Err(DbError::UnknownColumn(_))
        ));
    }

    #[test]
    fn ddl_via_sql() {
        let mut d = Database::new();
        assert_eq!(
            execute(&mut d, "CREATE TABLE x (c CARDINALITY 2)").unwrap(),
            ExecOutcome::TableCreated("x".into())
        );
        assert_eq!(
            execute(&mut d, "INSERT INTO x VALUES (0), (1), (1)").unwrap(),
            ExecOutcome::RowsInserted(3)
        );
        assert_eq!(
            execute(&mut d, "DROP TABLE x").unwrap(),
            ExecOutcome::TableDropped("x".into())
        );
        assert!(execute(&mut d, "SELECT * FROM x").is_err());
    }
}
