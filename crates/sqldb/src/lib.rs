//! # scaleclass-sqldb
//!
//! An embedded, page-based relational backend standing in for the
//! Microsoft SQL Server 7.0 instance used in *Scalable Classification over
//! SQL Databases* (Chaudhuri, Fayyad & Bernhardt, ICDE 1999).
//!
//! The crate provides every server-side capability the paper's middleware
//! exercises:
//!
//! * heap tables of fixed-width categorical rows on 8 KB pages
//!   ([`storage::Table`]),
//! * a SQL subset (SELECT / WHERE / GROUP BY / UNION ALL, plus DDL & DML)
//!   whose executor deliberately runs one scan per UNION arm, like the
//!   1999-era optimizers the paper measures against ([`sql`]),
//! * forward-only filtered server cursors over a **simulated wire** that
//!   charges marshalling and round-trip costs ([`cursor::ServerCursor`],
//!   [`wire`]),
//! * the auxiliary access paths of §4.3.3: temp-table copies, TID sets
//!   with random-access fetch, and keyset cursors with server-side
//!   residual filters ([`database::Database`], [`cursor::KeysetCursor`]),
//! * deterministic I/O statistics that make experiment *shapes*
//!   machine-checkable ([`stats::DbStats`]).
//!
//! ## Quick example
//!
//! ```
//! use scaleclass_sqldb::{Database, execute, Pred, Schema};
//!
//! let mut db = Database::new();
//! execute(&mut db, "CREATE TABLE d (a CARDINALITY 2, class CARDINALITY 2)").unwrap();
//! execute(&mut db, "INSERT INTO d VALUES (0,0), (0,1), (1,1)").unwrap();
//!
//! // The paper's CC-table query shape:
//! let rs = execute(&mut db,
//!     "SELECT 'a' AS attr_name, a AS value, class, COUNT(*) \
//!      FROM d GROUP BY class, a").unwrap().into_rows().unwrap();
//! assert_eq!(rs.len(), 3);
//!
//! // Or the middleware's preferred path: a filtered server cursor.
//! let mut cur = db.open_cursor("d", Pred::Eq { col: 1, value: 1 }, 1024).unwrap();
//! let mut rows = Vec::new();
//! assert_eq!(cur.fetch_all(&mut rows), 2);
//! ```

#![warn(missing_docs)]
#![deny(unsafe_code)]

pub mod csv;
pub mod cursor;
pub mod database;
pub mod delta;
pub mod error;
pub mod expr;
pub mod page;
pub mod persist;
pub mod sql;
pub mod stats;
pub mod storage;
pub mod types;
pub mod wire;

pub use csv::{export_csv, import_csv};
pub use cursor::{KeysetCursor, ServerCursor};
pub use database::{Database, TidSet};
pub use delta::{DeltaLog, DeltaSign, RowDelta};
pub use error::{DbError, DbResult};
pub use expr::{BlockRoute, ColumnView, PageFilter, Pred, PredSet};
pub use persist::{open_database, save_database};
pub use sql::{execute, execute_script, ExecOutcome, ResultSet, SqlValue};
pub use stats::{CostWeights, DbStats, StatsSnapshot};
pub use storage::Table;
pub use types::{Code, ColumnMeta, Schema, Tid, CODE_BYTES};
