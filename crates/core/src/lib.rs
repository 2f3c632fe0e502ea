//! # scaleclass — Scalable Classification over SQL Databases
//!
//! A faithful reproduction of the middleware of *Scalable Classification
//! over SQL Databases* (Chaudhuri, Fayyad & Bernhardt, ICDE 1999).
//!
//! The middleware sits between a classification client and a SQL backend
//! and exploits two observations:
//!
//! 1. decision-tree (and Naïve Bayes) construction touches the data only
//!    to build **CC tables** — counts of `(attribute, value, class)`
//!    co-occurrences per tree node ([`CountsTable`]);
//! 2. the CC tables of *many* active nodes can be built in **one scan**,
//!    and as the tree grows the relevant data shrinks monotonically, so it
//!    pays to **stage** it from the server to middleware files to
//!    middleware memory ([`staging`]).
//!
//! A client's [`Middleware`] — a [`Session`] — queues [`CcRequest`]s to a
//! rule-based [`scheduler`] and hands back [`FulfilledCc`] results,
//! synchronously via [`Session::process_next_batch`] or on a separate
//! thread via [`concurrent::spawn`].
//!
//! The backend connection is a shared read-only [`Backend`], so N
//! concurrent builds can share one substrate: a [`SessionPool`] serves
//! `config.sessions` clients over one backend while the [`BudgetArbiter`]
//! leases each live session a fair share of the single
//! `memory_budget_bytes`. [`Session::new`] builds a session with a backend
//! of its own (DESIGN.md §10).
//!
//! ## Quick example
//!
//! ```
//! use scaleclass::{Middleware, MiddlewareConfig, NodeId};
//! use scaleclass_sqldb::{Database, Schema};
//!
//! // A tiny table: predict `class` from `a`.
//! let mut db = Database::new();
//! db.create_table("d", Schema::from_pairs(&[("a", 4), ("class", 2)])).unwrap();
//! for i in 0..40u16 {
//!     db.insert("d", &[i % 4, u16::from(i % 4 >= 2)]).unwrap();
//! }
//!
//! let mut mw = Middleware::new(db, "d", "class", MiddlewareConfig::default()).unwrap();
//! let root = mw.root_request(NodeId(0));
//! mw.enqueue(root).unwrap();
//! let results = mw.process_next_batch().unwrap();
//! let cc = &results[0].cc;
//! assert_eq!(cc.total(), 40);
//! assert_eq!(cc.count(0, 3, 1), 10); // a=3 co-occurs with class=1 ten times
//! ```

#![warn(missing_docs)]
// One `unsafe` block, allowed on `staging::crc32_folded`: the call into the
// carry-less-multiply CRC after run-time CPU detection.
#![deny(unsafe_code)]

#[deny(
    clippy::cast_possible_truncation,
    clippy::cast_sign_loss,
    clippy::cast_possible_wrap
)]
pub mod catalog;
pub mod cc;
pub mod concurrent;
// The accounting modules (the files `scaleclass-analyze`'s accounting-arith
// rule covers) additionally deny clippy's narrowing-cast lints here rather
// than workspace-wide, where they would outlaw the legitimate casts in the
// encoder/tree crates. See DESIGN.md §9.
#[deny(
    clippy::cast_possible_truncation,
    clippy::cast_sign_loss,
    clippy::cast_possible_wrap
)]
pub mod config;
#[deny(
    clippy::cast_possible_truncation,
    clippy::cast_sign_loss,
    clippy::cast_possible_wrap
)]
pub mod delta;
pub mod error;
#[deny(
    clippy::cast_possible_truncation,
    clippy::cast_sign_loss,
    clippy::cast_possible_wrap
)]
pub mod estimator;
pub mod executor;
pub mod filter;
#[deny(
    clippy::cast_possible_truncation,
    clippy::cast_sign_loss,
    clippy::cast_possible_wrap
)]
pub mod metrics;
pub mod request;
#[deny(
    clippy::cast_possible_truncation,
    clippy::cast_sign_loss,
    clippy::cast_possible_wrap
)]
pub mod scheduler;
pub mod session;
mod siblings;
mod source;
pub mod sqlgen;
pub mod staging;

pub use catalog::StagingCatalog;
pub use cc::{ClassAxis, CountsTable, FulfilledCc, ValueRows, CC_ENTRY_BYTES};
pub use concurrent::SessionPool;
pub use config::{AuxMode, EstimatorKind, FileStagingPolicy, MiddlewareConfig};
pub use delta::{DeltaMap, LeafDelta};
pub use error::{MwError, MwResult};
pub use metrics::{ArbiterStats, CatalogStats, MiddlewareStats, ScanStats, WorkerScanStats};
pub use request::{CcRequest, DataLocation, Lineage, NodeId};
pub use scheduler::SampledLedger;
pub use session::{Backend, BudgetArbiter, Middleware, Session};
pub use staging::ExtentLayout;

#[cfg(test)]
#[path = "middleware_tests.rs"]
mod middleware;
