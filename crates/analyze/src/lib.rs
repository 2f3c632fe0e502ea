//! `scaleclass-analyze` — the workspace's in-repo invariant analyzer.
//!
//! The middleware owns its own cost accounting (DESIGN.md §2, paper §4.1.1),
//! so nothing in the database engine will catch an access path that dodges
//! the staging layer or a counter that silently overflows. This crate is the
//! enforcement layer: a dependency-free lexer ([`lexer`]), a guard-liveness
//! pass ([`guards`]), and nine named rules ([`rules`]) that walk every Rust
//! source in the workspace and report `file:line: [rule] message`
//! diagnostics — covering I/O containment, the heap's write path,
//! accounting arithmetic, hot-path panics, stats coverage, lock ordering,
//! guards across blocking calls, atomic memory orderings, and environment
//! reads in library code.
//!
//! Run it as `cargo run -p scaleclass-analyze -- --deny` (CI does). See
//! DESIGN.md §9 and §14 for the rule catalogue and the `analyze:allow`
//! policy.
#![warn(missing_docs)]
#![deny(unsafe_code)]

pub mod guards;
pub mod lexer;
pub mod rules;

pub use lexer::{lex, AllowDirective, Lexed, Tok, TokKind};
pub use rules::{
    analyze_workspace, check_source, Report, Violation, LOCK_ORDER, RULES, RULE_ACCOUNTING_ARITH,
    RULE_ALLOW_SYNTAX, RULE_ATOMIC_ORDERING, RULE_ENV_READ, RULE_GUARD_BLOCKING,
    RULE_HOT_PATH_PANIC, RULE_IO_BYPASS, RULE_LOCK_ORDER, RULE_PAGE_WRITE, RULE_STALE_ALLOW,
    RULE_STALE_LOCK_SITE, RULE_STALE_SCOPE, RULE_STATS_COVERAGE,
};
