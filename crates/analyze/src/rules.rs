//! The invariant rules enforced over the workspace.
//!
//! Nine named rules, each reported as `file:line: [rule] message`:
//!
//! - **io-bypass** — no direct `std::fs` / `std::net` / `File::open` outside
//!   `crates/sqldb` and `crates/core/src/staging.rs` (and the `benchmark/`
//!   harness): all I/O must go through the cost-accounted wire/staging layers.
//! - **page-write** — in `crates/sqldb/src`, `Page::push_row` and
//!   `Page::row_mut`, the heap's two ways of storing a code, are called
//!   only from `Table::insert_unchecked` and `Table::update_where_with`,
//!   the two places that fold what they store into the table's range
//!   certificate (`Table::col_max`): a third writer would let a scan
//!   trust a certificate its rows escape.
//! - **accounting-arith** — no bare `as` casts to integer types and no
//!   unchecked `+`/`-`/`*` in the accounting modules (`scheduler.rs`,
//!   `metrics.rs`, `estimator.rs`, `config.rs`, `catalog.rs`,
//!   `sample.rs`): the seed
//!   shipped a staging-cap overflow of exactly this class. The rule also
//!   runs *function-scoped* over the block-kernel offset arithmetic in
//!   `cc.rs` (`add_block`, the `add_rows` kernel, `block_growth_bound`) —
//!   hot-path files where only a few kernels carry accounting-sensitive
//!   index math.
//! - **hot-path-panic** — no `unwrap()`/`expect()`/`panic!`-family macros, and
//!   no slice indexing inside loop bodies, in the scan-path modules
//!   (`parallel.rs`, `cc.rs`, `executor.rs`, `session.rs`, `source.rs`),
//!   and *function-scoped* over the compiled predicates in
//!   `crates/sqldb/src/expr.rs` — the middleware's router (`route`,
//!   `for_each_match`, `walk`, `sub`, and the block router's
//!   `route_block`, `partition`, `filter`, `arena_split`, `position`,
//!   `ColumnView::get`, `BlockRoute::{mark_matched, matched}`) and the
//!   server's page filter (`PageFilter::{compile, select}`, `narrow`):
//!   the per-row and per-block loops of every scan on both sides of the
//!   wire — over the server's page scans, fetch loop, wire marshalling and page-at-a-time DML (`storage.rs`,
//!   `page.rs`, `cursor.rs`, `wire.rs`), and over the staged-file byte
//!   path in
//!   `crates/core/src/staging.rs` (the checksum's dispatch `crc32`,
//!   `crc32_folded`, and both kernels, `crc32_clmul` with `load16` and
//!   `fold16`, and `crc32_sliced`; `ExtentReader::{fetch, verify,
//!   decode_extent_columns}`, `FileWriter::{push, push_selected,
//!   flush_extent}`), where the bytes come from disk.
//! - **stats-coverage** — every field declared on the stats structs in
//!   `metrics.rs` must be written somewhere in `crates/core` non-test code and
//!   mentioned in at least one test.
//! - **lock-order** — guard-aware (see [`crate::guards`]): every lock
//!   acquisition made while another guard is live adds an edge to the
//!   cross-file lock graph over the concurrency modules (`session.rs`,
//!   `catalog.rs`, `parallel.rs`, `staging.rs`, `concurrent.rs`); any edge
//!   contradicting the canonical [`LOCK_ORDER`] manifest, any re-entrant
//!   acquisition, any cycle, and any `.lock()` the `LOCK_SITES` manifest
//!   cannot name is a violation.
//! - **guard-across-blocking** — no guard may be live across `send(` /
//!   `recv(` / `join()` / `wait*(` / `File::` / `read_to_end(` in the
//!   concurrency modules: a slow reader must never become a stalled
//!   arbiter.
//! - **atomic-ordering** — `Ordering::Relaxed` on the Σ-invariant cells
//!   (arbiter lease cells in `session.rs`/`catalog.rs`, catalog `charge`
//!   cells in `staging.rs`) is a violation unless an inventoried
//!   `analyze:allow` says why relaxed is sound.
//! - **env-read** — no `std::env::var`, `var_os`, `vars` or `vars_os` in
//!   non-test code under `crates/*/src` (binaries under `src/bin/` are
//!   exempt): a library's behaviour is the configuration its caller
//!   passes, never a variable the environment sets behind the caller's
//!   back.
//!
//! A violation is suppressed only by `// analyze:allow(<rule>): <reason>` on
//! the same line, or standing alone on the line(s) directly above. Directives
//! must name a real rule and carry a non-empty reason; the tool inventories
//! every directive it honours, and flags *stale* directives — well-formed
//! allows that no longer suppress anything — so the inventory cannot rot.
//! The lock manifest cannot rot either: in a tree that ships this file, a
//! `binds: false` row of `LOCK_SITES` whose method no `fn` defines is a
//! `stale-lock-site` violation, since the lock-order rule would silently
//! stop seeing the calls the row was written for; so is a fn name of
//! `ARITH_SCOPED` or `PANIC_SCOPED` that no `fn` of its file defines — a
//! `stale-scope` violation, since the rule would silently stop covering
//! the body the name was written for.

use std::collections::{BTreeMap, BTreeSet};
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use crate::guards::{scan_guards, GuardScan, LockEdge, LockSite};
use crate::lexer::{lex, AllowDirective, Lexed, TokKind};

/// Rule name: I/O outside the staging/wire layers.
pub const RULE_IO_BYPASS: &str = "io-bypass";
/// Rule name: a heap page written outside the certificate's two writers.
pub const RULE_PAGE_WRITE: &str = "page-write";
/// Rule name: unchecked arithmetic / bare casts in accounting modules.
pub const RULE_ACCOUNTING_ARITH: &str = "accounting-arith";
/// Rule name: panicking constructs on the scan path.
pub const RULE_HOT_PATH_PANIC: &str = "hot-path-panic";
/// Rule name: stats fields must be written and asserted.
pub const RULE_STATS_COVERAGE: &str = "stats-coverage";
/// Rule name: lock acquisitions must respect the `LOCK_ORDER` manifest.
pub const RULE_LOCK_ORDER: &str = "lock-order";
/// Rule name: no guard live across a blocking call shape.
pub const RULE_GUARD_BLOCKING: &str = "guard-across-blocking";
/// Rule name: no `Ordering::Relaxed` on Σ-invariant atomic cells.
pub const RULE_ATOMIC_ORDERING: &str = "atomic-ordering";
/// Rule name: library code reads no environment variable.
pub const RULE_ENV_READ: &str = "env-read";
/// Pseudo-rule for malformed `analyze:allow` directives (not suppressible).
pub const RULE_ALLOW_SYNTAX: &str = "allow-syntax";
/// Pseudo-rule for stale `analyze:allow` directives (not suppressible).
pub const RULE_STALE_ALLOW: &str = "stale-allow";
/// Pseudo-rule for a `binds: false` `LOCK_SITES` row whose method no `fn`
/// in the analysed tree defines (not suppressible).
pub const RULE_STALE_LOCK_SITE: &str = "stale-lock-site";
/// Pseudo-rule for an `ARITH_SCOPED` or `PANIC_SCOPED` fn name that no
/// `fn` of its file defines (not suppressible).
pub const RULE_STALE_SCOPE: &str = "stale-scope";

/// All suppressible rule names.
pub const RULES: [&str; 9] = [
    RULE_IO_BYPASS,
    RULE_PAGE_WRITE,
    RULE_ACCOUNTING_ARITH,
    RULE_HOT_PATH_PANIC,
    RULE_STATS_COVERAGE,
    RULE_LOCK_ORDER,
    RULE_GUARD_BLOCKING,
    RULE_ATOMIC_ORDERING,
    RULE_ENV_READ,
];

/// One reported finding.
#[derive(Debug, Clone)]
pub struct Violation {
    /// Workspace-relative path, `/`-separated.
    pub file: String,
    /// 1-based line number.
    pub line: u32,
    /// Rule that fired.
    pub rule: &'static str,
    /// Human-readable explanation.
    pub msg: String,
}

/// Result of analyzing one file or a whole workspace.
#[derive(Debug, Default)]
pub struct Report {
    /// Unsuppressed violations (sorted by file, then line).
    pub violations: Vec<Violation>,
    /// Violations silenced by a valid allow directive, with its reason.
    pub suppressed: Vec<(Violation, String)>,
    /// Every allow directive encountered, with its file.
    pub allows: Vec<(String, AllowDirective)>,
    /// Well-formed allow directives that suppressed nothing: the escape
    /// hatch outlived the violation it vetted and must be removed.
    pub stale: Vec<(String, AllowDirective)>,
}

impl Report {
    fn merge(&mut self, other: Report) {
        self.violations.extend(other.violations);
        self.suppressed.extend(other.suppressed);
        self.allows.extend(other.allows);
        self.stale.extend(other.stale);
    }

    fn sort(&mut self) {
        self.violations
            .sort_by(|a, b| (&a.file, a.line).cmp(&(&b.file, b.line)));
        self.suppressed
            .sort_by(|a, b| (&a.0.file, a.0.line).cmp(&(&b.0.file, b.0.line)));
        self.allows
            .sort_by(|a, b| (&a.0, a.1.line).cmp(&(&b.0, b.1.line)));
        self.stale
            .sort_by(|a, b| (&a.0, a.1.line).cmp(&(&b.0, b.1.line)));
    }
}

const INT_TYPES: [&str; 12] = [
    "u8", "u16", "u32", "u64", "u128", "usize", "i8", "i16", "i32", "i64", "i128", "isize",
];

/// Files subject to the accounting-arith rule.
const ARITH_FILES: [&str; 7] = [
    "crates/core/src/scheduler.rs",
    "crates/core/src/metrics.rs",
    "crates/core/src/estimator.rs",
    "crates/core/src/config.rs",
    "crates/core/src/catalog.rs",
    "crates/core/src/sample.rs",
    "crates/core/src/delta.rs",
];

/// Function-scoped accounting-arith extensions: `(file, fn names)`. For
/// these files the rule runs only inside the bodies of the named
/// functions — hot-path modules where the accounting-sensitive arithmetic
/// (block slot indexing, growth bounds) is confined to a few kernels and
/// whole-file coverage would drown the scan loops in directives.
const ARITH_SCOPED: [(&str, &[&str]); 1] = [(
    "crates/core/src/cc.rs",
    &["add_block", "add_rows", "block_growth_bound"],
)];

/// Function-scoped hot-path-panic extensions, as [`ARITH_SCOPED`]: the
/// compiled predicate router is the middleware's per-row (row path) and
/// per-block loop of every scan, the page filter the server's per-page
/// one, the server cursor's fetch loop and the wire's marshalling are the per-page and per-fetch loops
/// of every server scan — `DELETE` and `UPDATE` find their rows with that
/// same page filter and then compact or assign a run of rows at a time, so
/// the DML bodies and their page-run helpers are scoped with it — and the
/// extent reader and writer are the per-extent loop of every staged-file
/// scan, but all live in files whose other functions (AST construction,
/// rendering, one-off evaluation; bulk load, catalog and keyset
/// bookkeeping; staging bookkeeping) are not on any scan path. The client's half of Figure 3's synchronous loop is scoped
/// the same way: the candidate enumeration of `split.rs` runs ~100 times
/// per fulfilled node, beside bound formulas and public helpers that take
/// caller-shaped input. (Its other half, the value-row view it reads, is
/// in `cc.rs`, which [`PANIC_FILES`] covers whole.) The loop itself, the
/// one `drain` of `grow.rs` and the exact fulfilment it applies, is scoped
/// too: a fulfilment it cannot place is an `MwError`, never a panic.
const PANIC_SCOPED: [(&str, &[&str]); 9] = [
    (
        "crates/sqldb/src/expr.rs",
        &[
            "route",
            "for_each_match",
            "walk",
            "sub",
            // The block router: one partition per trie node per block.
            "route_block",
            "partition",
            "filter",
            "arena_split",
            "position",
            "get",
            // The union of a block's selections: what a hybrid split file
            // keeps.
            "mark_matched",
            "matched",
            // The server's page filter: its masks, compiled once per
            // cursor or statement, and a page narrowed a column at a time.
            "compile",
            "select",
            "narrow",
        ],
    ),
    // The server scan: a heap page filtered at a time …
    (
        "crates/sqldb/src/storage.rs",
        &[
            "page_run",
            "scan_selected",
            "scan_matching",
            "matching_tids",
            // The write path: the same page filter, then in-place
            // assignment or compaction a run of rows at a time.
            "delete_where_with",
            "update_where_with",
            "remove_rows",
            "pull_rows",
            // The load loop: every row appended folds into the certificate.
            "insert_unchecked",
        ],
    ),
    // … whose pages move and assign rows in place for DML …
    (
        "crates/sqldb/src/page.rs",
        &[
            "push_row",
            "row_mut",
            "pull_rows_within",
            "pull_rows_from",
            "truncate_rows",
        ],
    ),
    // … by a cursor that ships a fetch at a time …
    (
        "crates/sqldb/src/cursor.rs",
        &["next_run", "fetch", "fetch_all", "ship_tids"],
    ),
    // … marshalled and unmarshalled in bulk.
    (
        "crates/sqldb/src/wire.rs",
        &["encode", "push", "push_selected", "transmit"],
    ),
    // The staged-file byte path: the checksum's dispatch and both of its
    // kernels, the extent reader (bytes
    // that come from disk are `Corrupt`, never a panic) and the writer.
    (
        "crates/core/src/staging.rs",
        &[
            "crc32",
            "crc32_folded",
            "crc32_clmul",
            "load16",
            "fold16",
            "crc32_sliced",
            "fetch",
            "verify",
            "decode_extent_columns",
            "push",
            "push_selected",
            "flush_extent",
        ],
    ),
    // Client scoring: once per node, per attribute, per candidate.
    (
        "crates/dtree/src/split.rs",
        &[
            "rank_splits",
            "score_split",
            "binary",
            "multiway",
            "child",
            "score",
            "chi_row",
            "consider",
        ],
    ),
    // The client loop: every fulfilment of a build or maintenance round.
    ("crates/dtree/src/grow.rs", &["drain", "apply_exact"]),
    // Sibling plans: per class of every pinned child, when each batch's
    // scan certifies, where a panic kills the build.
    (
        "crates/core/src/siblings.rs",
        &[
            "plan",
            "pair",
            "lone",
            "side",
            "sources",
            "derive_whole",
            "child_classes",
            "stands",
        ],
    ),
];

/// The fn-name scope `scoped` gives `rel`, if any.
fn scope_for(
    scoped: &[(&str, &'static [&'static str])],
    rel: &str,
) -> Option<&'static [&'static str]> {
    scoped.iter().find(|(f, _)| *f == rel).map(|(_, fns)| *fns)
}

/// Files subject to the hot-path-panic rule.
const PANIC_FILES: [&str; 5] = [
    "crates/core/src/parallel.rs",
    "crates/core/src/cc.rs",
    "crates/core/src/executor.rs",
    "crates/core/src/session.rs",
    "crates/core/src/source.rs",
];

/// Files the guard-aware concurrency rules (lock-order,
/// guard-across-blocking) run over: every module that holds or acquires a
/// shared-state lock, and the two that hand work between threads and hold
/// none — `parallel.rs` (extent ranges to reader threads) and `concurrent.rs`
/// (requests and results over channels, blocking on `recv` and `join`) —
/// where a lock added must be ranked too.
const CONCURRENCY_FILES: [&str; 5] = [
    "crates/core/src/session.rs",
    "crates/core/src/catalog.rs",
    "crates/core/src/parallel.rs",
    "crates/core/src/staging.rs",
    "crates/core/src/concurrent.rs",
];

/// Canonical lock acquisition order, outermost first. An acquisition edge
/// `held → acquired` is legal only when `held` appears strictly before
/// `acquired` here.
///
/// Amendment process (DESIGN.md §14): adding a lock means (1) naming it
/// here at the position every existing nesting permits, (2) adding its
/// call shapes to `LOCK_SITES`, and (3) citing in the PR the code paths
/// that pin its position. Reordering existing entries requires auditing
/// every edge the analyzer reports with `--json` plus a TSan run.
pub const LOCK_ORDER: [&str; 3] = [
    // BudgetArbiter.inner (session.rs): leases are (re)balanced before any
    // session touches the database or its staged artifacts.
    "arbiter.inner",
    // StagingCatalog.inner (catalog.rs): probe/publish/detach decisions
    // precede database reads.
    "catalog.inner",
    // Backend.db RwLock (session.rs): held for the duration of server
    // scans, innermost of all.
    "backend.db",
];

/// Lexical call shapes that acquire the locks in [`LOCK_ORDER`].
///
/// `binds: true` rows return the guard (a `let` keeps it live); `binds:
/// false` rows are helpers that lock and unlock internally — they
/// contribute graph edges when called under a live guard but never extend
/// liveness. Receiver tails disambiguate without type information; two
/// types in one file must not share an unqualified helper name.
pub(crate) const LOCK_SITES: [LockSite; 23] = [
    // -- guard-returning acquisitions -----------------------------------
    LockSite {
        method: "lock",
        recv: Some("inner"),
        file: Some("crates/core/src/session.rs"),
        lock: "arbiter.inner",
        binds: true,
    },
    // BudgetArbiter::lock(&self) helper, internal callers.
    LockSite {
        method: "lock",
        recv: Some("self"),
        file: Some("crates/core/src/session.rs"),
        lock: "arbiter.inner",
        binds: true,
    },
    LockSite {
        method: "lock",
        recv: Some("inner"),
        file: Some("crates/core/src/catalog.rs"),
        lock: "catalog.inner",
        binds: true,
    },
    // StagingCatalog::lock(&self) helper, internal callers.
    LockSite {
        method: "lock",
        recv: Some("self"),
        file: Some("crates/core/src/catalog.rs"),
        lock: "catalog.inner",
        binds: true,
    },
    LockSite {
        method: "read",
        recv: Some("db"),
        file: None,
        lock: "backend.db",
        binds: true,
    },
    LockSite {
        method: "write",
        recv: Some("db"),
        file: None,
        lock: "backend.db",
        binds: true,
    },
    LockSite {
        method: "db_read",
        recv: None,
        file: None,
        lock: "backend.db",
        binds: true,
    },
    LockSite {
        method: "db_write",
        recv: None,
        file: None,
        lock: "backend.db",
        binds: true,
    },
    // Session::db / Backend::db guard passthroughs.
    LockSite {
        method: "db",
        recv: None,
        file: None,
        lock: "backend.db",
        binds: true,
    },
    // -- transient helpers (lock + unlock inside the call) --------------
    LockSite {
        method: "open",
        recv: Some("arbiter"),
        file: None,
        lock: "arbiter.inner",
        binds: false,
    },
    LockSite {
        method: "release",
        recv: Some("arbiter"),
        file: None,
        lock: "arbiter.inner",
        binds: false,
    },
    LockSite {
        method: "stats",
        recv: Some("arbiter"),
        file: None,
        lock: "arbiter.inner",
        binds: false,
    },
    LockSite {
        method: "live_sessions",
        recv: Some("arbiter"),
        file: None,
        lock: "arbiter.inner",
        binds: false,
    },
    LockSite {
        method: "assert_shadow_accounting",
        recv: Some("arbiter"),
        file: None,
        lock: "arbiter.inner",
        binds: false,
    },
    LockSite {
        method: "register_session",
        recv: Some("catalog"),
        file: None,
        lock: "catalog.inner",
        binds: false,
    },
    LockSite {
        method: "unregister_session",
        recv: Some("catalog"),
        file: None,
        lock: "catalog.inner",
        binds: false,
    },
    LockSite {
        method: "probe",
        recv: Some("catalog"),
        file: None,
        lock: "catalog.inner",
        binds: false,
    },
    LockSite {
        method: "publish",
        recv: Some("catalog"),
        file: None,
        lock: "catalog.inner",
        binds: false,
    },
    LockSite {
        method: "purge_stale",
        recv: Some("catalog"),
        file: None,
        lock: "catalog.inner",
        binds: false,
    },
    LockSite {
        method: "detach",
        recv: Some("catalog"),
        file: None,
        lock: "catalog.inner",
        binds: false,
    },
    LockSite {
        method: "share_of",
        recv: Some("catalog"),
        file: None,
        lock: "catalog.inner",
        binds: false,
    },
    LockSite {
        method: "stats",
        recv: Some("catalog"),
        file: None,
        lock: "catalog.inner",
        binds: false,
    },
    LockSite {
        method: "assert_shadow_accounting",
        recv: Some("catalog"),
        file: None,
        lock: "catalog.inner",
        binds: false,
    },
];

/// Files where *every* `Ordering::Relaxed` is a violation: their atomics
/// are the arbiter lease cells and catalog share cells backing the
/// Σ leases/charges ≤ budget invariants (Acquire/Release by design).
const ATOMIC_STRICT_FILES: [&str; 2] = ["crates/core/src/session.rs", "crates/core/src/catalog.rs"];

/// Field-scoped atomic-ordering extensions: `(file, receiver tails)`. In
/// these files only atomics on the named receivers are Σ-invariant cells
/// (staging's `charge` mirrors a catalog share cell); the uniquifier
/// counters stay exempt.
const ATOMIC_CELL_FIELDS: [(&str, &[&str]); 1] = [("crates/core/src/staging.rs", &["charge"])];

/// Stats structs whose fields the stats-coverage rule tracks.
const STATS_STRUCTS: [&str; 5] = [
    "MiddlewareStats",
    "WorkerScanStats",
    "ScanStats",
    "ArbiterStats",
    "CatalogStats",
];

/// Mutating methods that count as a "write" to a stats field.
const MUT_METHODS: [&str; 7] = [
    "push",
    "extend",
    "insert",
    "append",
    "clear",
    "resize",
    "resize_with",
];

fn is_test_path(rel: &str) -> bool {
    rel.split('/').any(|c| c == "tests" || c == "benches")
}

fn io_rule_applies(rel: &str) -> bool {
    // `benchmark/` is the measuring harness, not the measured system: it
    // writes reports and reads `/proc`, and none of that is middleware I/O
    // the cost model should see.
    !(rel.starts_with("crates/sqldb/")
        || rel == "crates/core/src/staging.rs"
        || rel.starts_with("crates/analyze/")
        || rel.starts_with("benchmark/"))
}

// ---------------------------------------------------------------------------
// Token-stream helpers
// ---------------------------------------------------------------------------

pub(crate) struct FileCtx<'a> {
    pub(crate) rel: &'a str,
    src: &'a str,
    pub(crate) lx: &'a Lexed,
    /// Per-token: true when the token is test-only code.
    pub(crate) test: Vec<bool>,
    /// Per-token: true when the token sits inside a loop body.
    in_loop: Vec<bool>,
}

impl<'a> FileCtx<'a> {
    fn new(rel: &'a str, src: &'a str, lx: &'a Lexed) -> Self {
        let test = if is_test_path(rel) {
            vec![true; lx.toks.len()]
        } else {
            test_mask(lx, src)
        };
        let in_loop = loop_mask(lx, src);
        FileCtx {
            rel,
            src,
            lx,
            test,
            in_loop,
        }
    }

    pub(crate) fn text(&self, i: usize) -> &'a str {
        let t = &self.lx.toks[i];
        &self.src[t.start..t.end]
    }

    pub(crate) fn is_punct(&self, i: usize, c: char) -> bool {
        i < self.lx.toks.len()
            && self.lx.toks[i].kind == TokKind::Punct
            && self.text(i).starts_with(c)
    }

    pub(crate) fn is_ident(&self, i: usize, s: &str) -> bool {
        i < self.lx.toks.len() && self.lx.toks[i].kind == TokKind::Ident && self.text(i) == s
    }

    /// `toks[i], toks[i+1]` form a `::` path separator.
    pub(crate) fn path_sep(&self, i: usize) -> bool {
        self.is_punct(i, ':') && self.is_punct(i + 1, ':')
    }

    pub(crate) fn line(&self, i: usize) -> u32 {
        self.lx.toks[i].line
    }
}

/// Index of the token matching `open` at `open_idx` (which must be `open`).
fn match_bracket(ctx: &FileCtx, open_idx: usize, open: char, close: char) -> usize {
    let n = ctx.lx.toks.len();
    let mut depth = 0i64;
    for j in open_idx..n {
        if ctx.is_punct(j, open) {
            depth += 1;
        } else if ctx.is_punct(j, close) {
            depth -= 1;
            if depth == 0 {
                return j;
            }
        }
    }
    n.saturating_sub(1)
}

/// Mark tokens inside `#[cfg(test)]` / `#[test]` items as test-only.
fn test_mask(lx: &Lexed, src: &str) -> Vec<bool> {
    // A light-weight ctx without recursion into masks.
    let tmp = FileCtx {
        rel: "",
        src,
        lx,
        test: Vec::new(),
        in_loop: Vec::new(),
    };
    let n = lx.toks.len();
    let mut mask = vec![false; n];
    let mut pending = false;
    let mut i = 0usize;
    while i < n {
        if tmp.is_punct(i, '#') && tmp.is_punct(i + 1, '[') {
            let close = match_bracket(&tmp, i + 1, '[', ']');
            let inner: Vec<&str> = ((i + 2)..close).map(|j| tmp.text(j)).collect();
            let cfg_test = inner.first() == Some(&"cfg") && inner.contains(&"test");
            let test_attr = inner.len() == 1 && inner[0] == "test";
            if cfg_test || test_attr {
                pending = true;
            }
            i = close + 1;
            continue;
        }
        if pending {
            let t = if lx.toks[i].kind == TokKind::Ident {
                tmp.text(i)
            } else {
                ""
            };
            match t {
                "mod" | "fn" | "impl" | "trait" => {
                    // Item with a braced body: mark through the matching `}`.
                    let mut j = i + 1;
                    while j < n && !tmp.is_punct(j, '{') && !tmp.is_punct(j, ';') {
                        j += 1;
                    }
                    if j < n && tmp.is_punct(j, '{') {
                        let close = match_bracket(&tmp, j, '{', '}');
                        for m in mask.iter_mut().take(close + 1).skip(i) {
                            *m = true;
                        }
                        pending = false;
                        // Re-scan the interior so nested items behave, marking
                        // is idempotent.
                        i = j + 1;
                        continue;
                    }
                    pending = false;
                }
                "use" | "const" | "static" | "type" => {
                    let mut j = i;
                    while j < n && !tmp.is_punct(j, ';') {
                        j += 1;
                    }
                    for m in mask.iter_mut().take(j.min(n - 1) + 1).skip(i) {
                        *m = true;
                    }
                    pending = false;
                    i = j + 1;
                    continue;
                }
                "pub" => {
                    // visibility qualifier between attr and item; keep pending.
                }
                _ => pending = false,
            }
        }
        i += 1;
    }
    mask
}

/// Mark tokens inside `for`/`while`/`loop` bodies.
fn loop_mask(lx: &Lexed, src: &str) -> Vec<bool> {
    let tmp = FileCtx {
        rel: "",
        src,
        lx,
        test: Vec::new(),
        in_loop: Vec::new(),
    };
    let n = lx.toks.len();
    let mut mask = vec![false; n];
    let mut depth = 0i64;
    let mut loop_starts: Vec<i64> = Vec::new();
    let mut pending = false;
    for (i, t) in lx.toks.iter().enumerate() {
        if t.kind == TokKind::Ident {
            let s = tmp.text(i);
            let prev_blocks_for = i > 0
                && (lx.toks[i - 1].kind == TokKind::Ident
                    || tmp.is_punct(i - 1, '>')
                    || tmp.is_punct(i - 1, ']'));
            let next_is_generics = tmp.is_punct(i + 1, '<');
            match s {
                // `impl Trait for Type` and `for<'a>` HRTBs are not loops.
                "for" if !prev_blocks_for && !next_is_generics => pending = true,
                "while" | "loop" => pending = true,
                _ => {}
            }
        } else if tmp.is_punct(i, '{') {
            depth += 1;
            if pending {
                loop_starts.push(depth);
                pending = false;
            }
        } else if tmp.is_punct(i, '}') {
            if loop_starts.last() == Some(&depth) {
                loop_starts.pop();
            }
            depth -= 1;
        }
        mask[i] = !loop_starts.is_empty();
    }
    mask
}

/// Mark tokens inside the braced bodies of the named functions (whatever
/// impl block they live in); the signature tokens stay unmarked.
fn fn_body_mask(ctx: &FileCtx, fns: &[&str]) -> Vec<bool> {
    let n = ctx.lx.toks.len();
    let mut mask = vec![false; n];
    let mut i = 0usize;
    while i < n {
        if ctx.is_ident(i, "fn")
            && i + 1 < n
            && ctx.lx.toks[i + 1].kind == TokKind::Ident
            && fns.contains(&ctx.text(i + 1))
        {
            let mut j = i + 2;
            while j < n && !ctx.is_punct(j, '{') && !ctx.is_punct(j, ';') {
                // The `;` of an array type in the signature (`&[u8; 16]`)
                // does not end the item.
                if ctx.is_punct(j, '[') {
                    j = match_bracket(ctx, j, '[', ']');
                }
                j += 1;
            }
            if j < n && ctx.is_punct(j, '{') {
                let close = match_bracket(ctx, j, '{', '}');
                for m in mask.iter_mut().take(close + 1).skip(j) {
                    *m = true;
                }
                i = j + 1;
                continue;
            }
        }
        i += 1;
    }
    mask
}

// ---------------------------------------------------------------------------
// Per-file rules
// ---------------------------------------------------------------------------

fn io_bypass(ctx: &FileCtx, out: &mut Vec<Violation>) {
    let n = ctx.lx.toks.len();
    for i in 0..n {
        if ctx.test[i] || ctx.lx.toks[i].kind != TokKind::Ident {
            continue;
        }
        let t = ctx.text(i);
        let mut hit: Option<String> = None;
        match t {
            "std" if ctx.path_sep(i + 1) => {
                let j = i + 3;
                if ctx.is_ident(j, "fs") || ctx.is_ident(j, "net") {
                    hit = Some(format!("direct `std::{}` access", ctx.text(j)));
                } else if ctx.is_punct(j, '{') {
                    // `use std::{fs, io}` grouped import.
                    let close = match_bracket(ctx, j, '{', '}');
                    for k in (j + 1)..close {
                        if ctx.is_ident(k, "fs") || ctx.is_ident(k, "net") {
                            hit = Some(format!("direct `std::{}` import", ctx.text(k)));
                            break;
                        }
                    }
                }
            }
            "File" if ctx.path_sep(i + 1) => {
                let j = i + 3;
                if ctx.is_ident(j, "open") || ctx.is_ident(j, "create") {
                    hit = Some(format!("`File::{}`", ctx.text(j)));
                }
            }
            "OpenOptions" | "TcpStream" | "TcpListener" | "UdpSocket" => {
                hit = Some(format!("`{t}`"));
            }
            _ => {}
        }
        if let Some(what) = hit {
            out.push(Violation {
                file: ctx.rel.to_string(),
                line: ctx.line(i),
                rule: RULE_IO_BYPASS,
                msg: format!(
                    "{what} bypasses the cost-accounted staging/wire layers \
                     (only crates/sqldb and crates/core/src/staging.rs may do raw I/O)"
                ),
            });
        }
    }
}

/// The `std::env` functions that read the process environment.
const ENV_READS: [&str; 4] = ["var", "var_os", "vars", "vars_os"];

/// Library code of a workspace crate: `crates/<name>/src/`, binaries
/// under `src/bin/` excepted.
fn env_rule_applies(rel: &str) -> bool {
    let mut parts = rel.split('/');
    parts.next() == Some("crates") && parts.nth(1) == Some("src") && !rel.contains("/src/bin/")
}

fn env_read(ctx: &FileCtx, out: &mut Vec<Violation>) {
    let n = ctx.lx.toks.len();
    for i in 0..n {
        if ctx.test[i] || !ctx.is_ident(i, "env") || !ctx.path_sep(i + 1) {
            continue;
        }
        // `env::var(..)`, `use std::env::var_os;`, or a grouped import.
        let j = i + 3;
        let mut names = if ctx.is_punct(j, '{') {
            (j + 1)..match_bracket(ctx, j, '{', '}')
        } else {
            j..j + 1
        };
        let Some(k) = names.find(|&k| {
            k < n && ctx.lx.toks[k].kind == TokKind::Ident && ENV_READS.contains(&ctx.text(k))
        }) else {
            continue;
        };
        out.push(Violation {
            file: ctx.rel.to_string(),
            line: ctx.line(k),
            rule: RULE_ENV_READ,
            msg: format!(
                "`std::env::{}` reads the process environment in library code; \
                 take the value from the caller's configuration (only binaries \
                 under src/bin/ may read the environment)",
                ctx.text(k)
            ),
        });
    }
}

/// The heap's code-storing calls, and the `Table` methods that may make
/// them (see `page-write` in the module docs).
const PAGE_WRITES: [&str; 2] = ["push_row", "row_mut"];
const PAGE_WRITERS: [&str; 2] = ["insert_unchecked", "update_where_with"];

fn page_write(ctx: &FileCtx, out: &mut Vec<Violation>) {
    let writers = fn_body_mask(ctx, &PAGE_WRITERS);
    for (i, &in_writer) in writers.iter().enumerate().skip(1) {
        let call = ctx.lx.toks[i].kind == TokKind::Ident
            && PAGE_WRITES.contains(&ctx.text(i))
            && ctx.is_punct(i + 1, '(')
            && (ctx.is_punct(i - 1, '.') || ctx.is_punct(i - 1, ':'));
        if call && !ctx.test[i] && !in_writer {
            out.push(Violation {
                file: ctx.rel.to_string(),
                line: ctx.line(i),
                rule: RULE_PAGE_WRITE,
                msg: format!(
                    "`{}` stores codes outside `Table::insert_unchecked` and \
                     `Table::update_where_with`, so `Table::col_max` would not \
                     cover them",
                    ctx.text(i)
                ),
            });
        }
    }
}

fn accounting_arith(ctx: &FileCtx, scope: Option<&[bool]>, out: &mut Vec<Violation>) {
    let n = ctx.lx.toks.len();
    for i in 0..n {
        if ctx.test[i] || scope.is_some_and(|m| !m[i]) {
            continue;
        }
        let tok = &ctx.lx.toks[i];
        if tok.kind == TokKind::Ident && ctx.text(i) == "as" {
            if i + 1 < n && ctx.lx.toks[i + 1].kind == TokKind::Ident {
                let ty = ctx.text(i + 1);
                if INT_TYPES.contains(&ty) {
                    out.push(Violation {
                        file: ctx.rel.to_string(),
                        line: ctx.line(i),
                        rule: RULE_ACCOUNTING_ARITH,
                        msg: format!(
                            "bare `as {ty}` cast in an accounting module; \
                             use `try_into`/`{ty}::from`/checked conversion"
                        ),
                    });
                }
            }
            continue;
        }
        if tok.kind != TokKind::Punct {
            continue;
        }
        let op = match ctx.text(i).chars().next() {
            Some(c @ ('+' | '-' | '*')) => c,
            _ => continue,
        };
        // `->` return-type arrow.
        if op == '-' && ctx.is_punct(i + 1, '>') {
            continue;
        }
        // Binary position: previous token must look like an operand end.
        let prev_ok = i > 0
            && (matches!(ctx.lx.toks[i - 1].kind, TokKind::Ident | TokKind::Number)
                || ctx.is_punct(i - 1, ')')
                || ctx.is_punct(i - 1, ']'));
        if !prev_ok {
            continue;
        }
        // Const-folded literal arithmetic (`64 * 1024`) is fine.
        let next = i + 1;
        if ctx.lx.toks[i - 1].kind == TokKind::Number
            && next < n
            && ctx.lx.toks[next].kind == TokKind::Number
        {
            continue;
        }
        // `impl Trait + 'a` style bounds.
        if op == '+' && next < n && ctx.lx.toks[next].kind == TokKind::Lifetime {
            continue;
        }
        let compound = ctx.is_punct(next, '=');
        let shown = if compound {
            format!("{op}=")
        } else {
            op.to_string()
        };
        out.push(Violation {
            file: ctx.rel.to_string(),
            line: ctx.line(i),
            rule: RULE_ACCOUNTING_ARITH,
            msg: format!(
                "unchecked `{shown}` in an accounting module; \
                 use `checked_*`/`saturating_*` arithmetic"
            ),
        });
    }
}

fn hot_path_panic(ctx: &FileCtx, scope: Option<&[bool]>, out: &mut Vec<Violation>) {
    let n = ctx.lx.toks.len();
    for i in 0..n {
        if ctx.test[i] || scope.is_some_and(|mask| !mask[i]) {
            continue;
        }
        let tok = &ctx.lx.toks[i];
        if tok.kind == TokKind::Ident {
            let t = ctx.text(i);
            let panics = match t {
                "unwrap" | "expect" => {
                    i > 0 && ctx.is_punct(i - 1, '.') && ctx.is_punct(i + 1, '(')
                }
                "panic" | "unreachable" | "todo" | "unimplemented" => ctx.is_punct(i + 1, '!'),
                _ => false,
            };
            if panics {
                let shown = if ctx.is_punct(i + 1, '!') {
                    format!("{t}!")
                } else {
                    format!(".{t}()")
                };
                out.push(Violation {
                    file: ctx.rel.to_string(),
                    line: ctx.line(i),
                    rule: RULE_HOT_PATH_PANIC,
                    msg: format!(
                        "`{shown}` on the scan path; propagate `MwError` \
                         (or annotate why it cannot fire)"
                    ),
                });
            }
            continue;
        }
        // Slice/array indexing inside a loop body: `expr[...]` postfix form.
        if ctx.is_punct(i, '[') && ctx.in_loop[i] {
            let postfix = i > 0
                && (ctx.lx.toks[i - 1].kind == TokKind::Ident
                    || ctx.is_punct(i - 1, ')')
                    || ctx.is_punct(i - 1, ']'));
            if postfix {
                out.push(Violation {
                    file: ctx.rel.to_string(),
                    line: ctx.line(i),
                    rule: RULE_HOT_PATH_PANIC,
                    msg: "slice index inside a scan loop can panic; \
                          use iterators/`get` (or annotate why it is in-bounds)"
                        .to_string(),
                });
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Concurrency rules: lock-order, guard-across-blocking, atomic-ordering
// ---------------------------------------------------------------------------

/// Run the guard pass over one concurrency file: blocking-shape and
/// unknown-lock findings go straight to `out`; acquisition edges are
/// returned for the (cross-file) lock-graph check.
fn guard_rules(ctx: &FileCtx, out: &mut Vec<Violation>) -> Vec<LockEdge> {
    let GuardScan {
        edges,
        blocking,
        unknown,
    } = scan_guards(ctx, &LOCK_SITES);
    for (line, recv) in unknown {
        out.push(Violation {
            file: ctx.rel.to_string(),
            line,
            rule: RULE_LOCK_ORDER,
            msg: format!(
                "`.lock()` on `{recv}` matches no LOCK_SITES row; name the \
                 lock in LOCK_SITES and LOCK_ORDER (crates/analyze/src/rules.rs, \
                 DESIGN.md §14) so it joins the acquisition order"
            ),
        });
    }
    for b in blocking {
        out.push(Violation {
            file: ctx.rel.to_string(),
            line: b.line,
            rule: RULE_GUARD_BLOCKING,
            msg: format!(
                "guard on `{}` (held since line {}) is live across blocking \
                 `{}`; drop the guard before blocking",
                b.guard_lock, b.guard_line, b.shape
            ),
        });
    }
    edges
}

/// Check the accumulated acquisition edges against [`LOCK_ORDER`]:
/// contradictions, re-entrant acquisitions, undeclared locks, and (should
/// the manifest ever stop being a total order) residual cycles.
fn check_lock_graph(edges: &[LockEdge], out: &mut Vec<Violation>) {
    let pos = |l: &str| LOCK_ORDER.iter().position(|&x| x == l);
    let mut flagged: BTreeSet<(&str, &str)> = BTreeSet::new();
    for e in edges {
        let msg = match (pos(e.held), pos(e.acquired)) {
            (Some(h), Some(a)) if h == a => Some(format!(
                "re-entrant acquisition of `{}` (guard held since line {}): \
                 self-deadlock on a non-reentrant lock",
                e.acquired, e.held_line
            )),
            (Some(h), Some(a)) if h > a => Some(format!(
                "acquiring `{}` while holding `{}` (guard bound line {}) \
                 contradicts LOCK_ORDER, which puts `{}` before `{}`",
                e.acquired, e.held, e.held_line, e.acquired, e.held
            )),
            (None, _) => Some(format!(
                "lock `{}` is acquired but missing from the LOCK_ORDER manifest",
                e.held
            )),
            (_, None) => Some(format!(
                "lock `{}` is acquired but missing from the LOCK_ORDER manifest",
                e.acquired
            )),
            _ => None,
        };
        if let Some(msg) = msg {
            flagged.insert((e.held, e.acquired));
            out.push(Violation {
                file: e.file.clone(),
                line: e.line,
                rule: RULE_LOCK_ORDER,
                msg,
            });
        }
    }
    // Cycle sweep over the remaining (order-respecting) edges. With
    // LOCK_ORDER a total order this finds nothing new — every cycle
    // contains a contradicting or re-entrant edge already flagged above —
    // but it keeps "fail on any cycle" true by construction rather than
    // by argument.
    let mut adj: BTreeMap<&str, Vec<&LockEdge>> = BTreeMap::new();
    for e in edges {
        if !flagged.contains(&(e.held, e.acquired)) {
            adj.entry(e.held).or_default().push(e);
        }
    }
    // 0 = unvisited, 1 = on the current path, 2 = done.
    let mut state: BTreeMap<&str, u8> = BTreeMap::new();
    fn dfs<'e>(
        node: &'e str,
        adj: &BTreeMap<&'e str, Vec<&'e LockEdge>>,
        state: &mut BTreeMap<&'e str, u8>,
        out: &mut Vec<Violation>,
    ) {
        state.insert(node, 1);
        for e in adj.get(node).map_or(&[][..], |v| &v[..]) {
            match state.get(e.acquired).copied().unwrap_or(0) {
                1 => out.push(Violation {
                    file: e.file.clone(),
                    line: e.line,
                    rule: RULE_LOCK_ORDER,
                    msg: format!(
                        "acquiring `{}` while holding `{}` closes a cycle in \
                         the lock-acquisition graph",
                        e.acquired, e.held
                    ),
                }),
                0 => dfs(e.acquired, adj, state, out),
                _ => {}
            }
        }
        state.insert(node, 2);
    }
    let nodes: Vec<&str> = adj.keys().copied().collect();
    for node in nodes {
        if state.get(node).copied().unwrap_or(0) == 0 {
            dfs(node, &adj, &mut state, out);
        }
    }
}

/// Flag `Ordering::Relaxed` on Σ-invariant atomic cells: everywhere in
/// the strict files, and on the named receiver fields elsewhere.
fn atomic_ordering(ctx: &FileCtx, out: &mut Vec<Violation>) {
    let strict = ATOMIC_STRICT_FILES.contains(&ctx.rel);
    let cells = ATOMIC_CELL_FIELDS
        .iter()
        .find(|(f, _)| *f == ctx.rel)
        .map(|(_, c)| *c);
    if !strict && cells.is_none() {
        return;
    }
    let n = ctx.lx.toks.len();
    for i in 0..n {
        if ctx.test[i]
            || !ctx.is_ident(i, "Ordering")
            || !ctx.path_sep(i + 1)
            || !ctx.is_ident(i + 3, "Relaxed")
        {
            continue;
        }
        let hit = if strict {
            true
        } else if let Some(cells) = cells {
            // Walk back to the enclosing call's `(`, balancing any nested
            // parens, then read `recv . method (`.
            let mut j = i as i64 - 1;
            let mut bal = 0i64;
            while j >= 0 {
                if ctx.is_punct(j as usize, ')') {
                    bal += 1;
                } else if ctx.is_punct(j as usize, '(') {
                    if bal == 0 {
                        break;
                    }
                    bal -= 1;
                }
                j -= 1;
            }
            let m = j - 1; // method ident before the call-open paren
            m >= 1
                && ctx.is_punct(m as usize - 1, '.')
                && m >= 2
                && ctx.lx.toks[m as usize - 2].kind == TokKind::Ident
                && cells.contains(&ctx.text(m as usize - 2))
        } else {
            false
        };
        if hit {
            out.push(Violation {
                file: ctx.rel.to_string(),
                line: ctx.line(i),
                rule: RULE_ATOMIC_ORDERING,
                msg: "`Ordering::Relaxed` on a Σ-invariant cell (lease/share \
                      accounting); use `Acquire`/`Release`, or annotate why \
                      relaxed cannot tear the invariant"
                    .to_string(),
            });
        }
    }
}

// ---------------------------------------------------------------------------
// stats-coverage (workspace-wide)
// ---------------------------------------------------------------------------

/// Accumulated evidence for the stats-coverage rule.
#[derive(Debug, Default)]
pub struct StatsScan {
    decls: Vec<(String, String, u32)>,
    writes: BTreeSet<String>,
    test_reads: BTreeSet<String>,
    /// Workspace-relative path of metrics.rs, once seen.
    metrics_rel: Option<String>,
}

fn collect_stats(ctx: &FileCtx, s: &mut StatsScan) {
    let n = ctx.lx.toks.len();
    let in_core_src = ctx.rel.starts_with("crates/core/src/");
    if ctx.rel == "crates/core/src/metrics.rs" {
        s.metrics_rel = Some(ctx.rel.to_string());
        // Field declarations: `pub struct <S> { pub <f>: ... }`.
        let mut i = 0usize;
        while i < n {
            if ctx.is_ident(i, "struct")
                && i + 1 < n
                && ctx.lx.toks[i + 1].kind == TokKind::Ident
                && STATS_STRUCTS.contains(&ctx.text(i + 1))
                && ctx.is_punct(i + 2, '{')
                && !ctx.test[i]
            {
                let sname = ctx.text(i + 1).to_string();
                let close = match_bracket(ctx, i + 2, '{', '}');
                let mut j = i + 3;
                while j < close {
                    if ctx.is_ident(j, "pub")
                        && j + 1 < close
                        && ctx.lx.toks[j + 1].kind == TokKind::Ident
                        && ctx.is_punct(j + 2, ':')
                        && !ctx.is_punct(j + 3, ':')
                    {
                        s.decls
                            .push((sname.clone(), ctx.text(j + 1).to_string(), ctx.line(j + 1)));
                        j += 3;
                        continue;
                    }
                    j += 1;
                }
                i = close + 1;
                continue;
            }
            i += 1;
        }
    }
    for i in 0..n {
        // Writes: non-test crates/core code.
        if in_core_src && !ctx.test[i] {
            if ctx.is_punct(i, '.')
                && i + 1 < n
                && ctx.lx.toks[i + 1].kind == TokKind::Ident
                && !ctx.is_punct(i.wrapping_sub(1), '.')
            {
                let f = ctx.text(i + 1);
                let j = i + 2;
                let assign = ctx.is_punct(j, '=') && !ctx.is_punct(j + 1, '=');
                let op_assign = (ctx.is_punct(j, '+')
                    || ctx.is_punct(j, '-')
                    || ctx.is_punct(j, '*')
                    || ctx.is_punct(j, '/'))
                    && ctx.is_punct(j + 1, '=');
                let mutation = ctx.is_punct(j, '.')
                    && j + 1 < n
                    && ctx.lx.toks[j + 1].kind == TokKind::Ident
                    && MUT_METHODS.contains(&ctx.text(j + 1))
                    && ctx.is_punct(j + 2, '(');
                if assign || op_assign || mutation {
                    s.writes.insert(f.to_string());
                }
            }
            // Struct-literal initialization counts as a write to every
            // explicitly named field. The struct *declaration* has the same
            // `Name { field: ... }` shape but declares rather than writes.
            if ctx.lx.toks[i].kind == TokKind::Ident
                && STATS_STRUCTS.contains(&ctx.text(i))
                && ctx.is_punct(i + 1, '{')
                && !(i > 0 && ctx.is_ident(i - 1, "struct"))
            {
                let close = match_bracket(ctx, i + 1, '{', '}');
                let mut depth = 0i64;
                for j in (i + 1)..close {
                    if ctx.is_punct(j, '{') {
                        depth += 1;
                    } else if ctx.is_punct(j, '}') {
                        depth -= 1;
                    } else if depth == 1
                        && ctx.lx.toks[j].kind == TokKind::Ident
                        && ctx.is_punct(j + 1, ':')
                        && !ctx.is_punct(j + 2, ':')
                        && !ctx.is_punct(j.wrapping_sub(1), ':')
                    {
                        s.writes.insert(ctx.text(j).to_string());
                    }
                }
            }
        }
        // Test mentions: any `.field` access inside test code.
        if ctx.test[i]
            && ctx.is_punct(i, '.')
            && i + 1 < n
            && ctx.lx.toks[i + 1].kind == TokKind::Ident
        {
            s.test_reads.insert(ctx.text(i + 1).to_string());
        }
    }
}

/// Raw stats-coverage violations, anchored at the field declarations in
/// metrics.rs; suppression happens through that file's normal allow pass.
fn stats_coverage(s: &StatsScan) -> Vec<Violation> {
    let mut raw = Vec::new();
    let Some(rel) = &s.metrics_rel else {
        return raw;
    };
    for (sname, field, line) in &s.decls {
        if !s.writes.contains(field) {
            raw.push(Violation {
                file: rel.clone(),
                line: *line,
                rule: RULE_STATS_COVERAGE,
                msg: format!(
                    "stats field `{sname}.{field}` is declared but never \
                     written in crates/core non-test code"
                ),
            });
        }
        if !s.test_reads.contains(field) {
            raw.push(Violation {
                file: rel.clone(),
                line: *line,
                rule: RULE_STATS_COVERAGE,
                msg: format!(
                    "stats field `{sname}.{field}` is never asserted/inspected \
                     in any test"
                ),
            });
        }
    }
    raw
}

// ---------------------------------------------------------------------------
// Suppression
// ---------------------------------------------------------------------------

/// Split raw violations into (kept, suppressed-with-reason) using the file's
/// allow directives, and record which directives (by index into `allows`)
/// actually suppressed something. A directive suppresses a violation of its
/// rule on its own line, or — when it stands alone — on the next code line
/// below any run of comment-only lines.
fn apply_allows(
    raw: Vec<Violation>,
    allows: &[AllowDirective],
    comment_lines: &[u32],
) -> (Vec<Violation>, Vec<(Violation, String)>, BTreeSet<usize>) {
    let comment_set: BTreeSet<u32> = comment_lines.iter().copied().collect();
    let mut kept = Vec::new();
    let mut suppressed = Vec::new();
    let mut used: BTreeSet<usize> = BTreeSet::new();
    'next: for v in raw {
        for (ai, a) in allows.iter().enumerate() {
            if a.rule != v.rule || a.reason.is_empty() {
                continue;
            }
            if a.line == v.line {
                used.insert(ai);
                suppressed.push((v, a.reason.clone()));
                continue 'next;
            }
            if a.standalone && a.line < v.line {
                // Every line strictly between the directive and the
                // violation must be comment-only.
                let covers = ((a.line + 1)..v.line).all(|l| comment_set.contains(&l))
                    && comment_set.contains(&a.line);
                if covers {
                    used.insert(ai);
                    suppressed.push((v, a.reason.clone()));
                    continue 'next;
                }
            }
        }
        kept.push(v);
    }
    (kept, suppressed, used)
}

/// Well-formed directives that suppressed nothing. Malformed ones are
/// excluded — they already fire `allow-syntax` and fixing the syntax may
/// make them suppress again.
fn stale_allows(
    rel: &str,
    allows: &[AllowDirective],
    used: &BTreeSet<usize>,
) -> Vec<(String, AllowDirective)> {
    allows
        .iter()
        .enumerate()
        .filter(|(i, a)| {
            !used.contains(i) && RULES.contains(&a.rule.as_str()) && !a.reason.is_empty()
        })
        .map(|(_, a)| (rel.to_string(), a.clone()))
        .collect()
}

/// Complain about malformed directives (unknown rule / missing reason).
fn check_allow_syntax(rel: &str, allows: &[AllowDirective], out: &mut Vec<Violation>) {
    for a in allows {
        if !RULES.contains(&a.rule.as_str()) {
            out.push(Violation {
                file: rel.to_string(),
                line: a.line,
                rule: RULE_ALLOW_SYNTAX,
                msg: format!(
                    "analyze:allow names unknown rule `{}` (known: {})",
                    a.rule,
                    RULES.join(", ")
                ),
            });
        } else if a.reason.is_empty() {
            out.push(Violation {
                file: rel.to_string(),
                line: a.line,
                rule: RULE_ALLOW_SYNTAX,
                msg: format!(
                    "analyze:allow({}) has no reason; write \
                     `// analyze:allow({}): <why this is sound>`",
                    a.rule, a.rule
                ),
            });
        }
    }
}

// ---------------------------------------------------------------------------
// Entry points
// ---------------------------------------------------------------------------

/// Run every per-file rule on `ctx`, pushing findings into `raw` and
/// returning the file's lock-acquisition edges for the workspace graph.
fn file_rules(ctx: &FileCtx, raw: &mut Vec<Violation>) -> Vec<LockEdge> {
    let rel = ctx.rel;
    if io_rule_applies(rel) {
        io_bypass(ctx, raw);
    }
    if rel.starts_with("crates/sqldb/src/") {
        page_write(ctx, raw);
    }
    if env_rule_applies(rel) {
        env_read(ctx, raw);
    }
    if ARITH_FILES.contains(&rel) {
        accounting_arith(ctx, None, raw);
    } else if let Some(fns) = scope_for(&ARITH_SCOPED, rel) {
        let mask = fn_body_mask(ctx, fns);
        accounting_arith(ctx, Some(&mask), raw);
    }
    if PANIC_FILES.contains(&rel) {
        hot_path_panic(ctx, None, raw);
    } else if let Some(fns) = scope_for(&PANIC_SCOPED, rel) {
        let mask = fn_body_mask(ctx, fns);
        hot_path_panic(ctx, Some(&mask), raw);
    }
    atomic_ordering(ctx, raw);
    if CONCURRENCY_FILES.contains(&rel) {
        guard_rules(ctx, raw)
    } else {
        Vec::new()
    }
}

/// Run the per-file rules on a single source text addressed as `rel`
/// (workspace-relative, `/`-separated), plus the lock-graph check over the
/// file's own acquisition edges. Used directly by fixture tests; the
/// workspace-wide rule (stats-coverage) needs `analyze_workspace`.
pub fn check_source(rel: &str, src: &str) -> Report {
    let lx = lex(src);
    let ctx = FileCtx::new(rel, src, &lx);
    let mut raw = Vec::new();
    let edges = file_rules(&ctx, &mut raw);
    check_lock_graph(&edges, &mut raw);
    let (mut kept, suppressed, used) = apply_allows(raw, &lx.allows, &lx.comment_only_lines);
    check_allow_syntax(rel, &lx.allows, &mut kept);
    let stale = stale_allows(rel, &lx.allows, &used);
    let mut report = Report {
        violations: kept,
        suppressed,
        allows: lx
            .allows
            .iter()
            .map(|a| (rel.to_string(), a.clone()))
            .collect(),
        stale,
    };
    report.sort();
    report
}

/// Directory names never descended into during the workspace walk.
/// Where the `LOCK_SITES` manifest lives: a tree that ships it has its
/// rows checked against the functions it defines.
const MANIFEST_FILE: &str = "crates/analyze/src/rules.rs";

/// Record the name of every non-test `fn` defined in the file.
fn defined_fns(ctx: &FileCtx, out: &mut BTreeSet<String>) {
    for i in 0..ctx.lx.toks.len().saturating_sub(1) {
        if !ctx.test[i] && ctx.is_ident(i, "fn") && ctx.lx.toks[i + 1].kind == TokKind::Ident {
            out.insert(ctx.text(i + 1).to_string());
        }
    }
}

/// The 1-based line of `manifest` holding the last of `needles`, each
/// looked for from the line of the one before it; 1 when one is missing.
fn manifest_line(manifest: &str, needles: &[String]) -> u32 {
    let mut at = 0;
    for needle in needles {
        match manifest
            .lines()
            .skip(at)
            .position(|l| l.contains(needle.as_str()))
        {
            Some(i) => at += i,
            None => return 1,
        }
    }
    u32::try_from(at + 1).unwrap_or(u32::MAX)
}

/// The `binds: false` rows of `LOCK_SITES` whose method no `fn` in
/// `defined` names: a rename left the row behind. Each is anchored at
/// the row's `method:` line of `manifest`, the shipped manifest's source.
fn stale_lock_sites(manifest: &str, defined: &BTreeSet<String>) -> Vec<Violation> {
    LOCK_SITES
        .iter()
        .filter(|site| !site.binds && !defined.contains(site.method))
        .map(|site| {
            let row = format!("method: \"{}\"", site.method);
            Violation {
                file: MANIFEST_FILE.to_string(),
                line: manifest_line(manifest, &[row]),
                rule: RULE_STALE_LOCK_SITE,
                msg: format!(
                    "LOCK_SITES row `{}` ({}) names no fn in this tree; \
                     rename it with its method or remove it",
                    site.method, site.lock
                ),
            }
        })
        .collect()
}

/// The fn names of [`ARITH_SCOPED`] and [`PANIC_SCOPED`] that no `fn` in
/// their file names, per file the tree has (`fns`: its non-test fns): a
/// rename left the name behind. Each is anchored at the name's line in
/// its scope's entry of `manifest`, the shipped manifest's source.
fn stale_scopes(manifest: &str, fns: &BTreeMap<String, BTreeSet<String>>) -> Vec<Violation> {
    let scopes = (ARITH_SCOPED.iter().map(|s| ("ARITH_SCOPED", s)))
        .chain(PANIC_SCOPED.iter().map(|s| ("PANIC_SCOPED", s)));
    let mut out = Vec::new();
    for (scope, &(file, names)) in scopes {
        let Some(defined) = fns.get(file) else {
            continue;
        };
        for name in names.iter().filter(|n| !defined.contains(**n)) {
            let needles = [
                format!("const {scope}"),
                format!("\"{file}\""),
                format!("\"{name}\""),
            ];
            out.push(Violation {
                file: MANIFEST_FILE.to_string(),
                line: manifest_line(manifest, &needles),
                rule: RULE_STALE_SCOPE,
                msg: format!(
                    "{scope} names `{name}` for {file}, which defines no such fn; \
                     rename it with its fn or remove it"
                ),
            });
        }
    }
    out
}

const SKIP_DIRS: [&str; 5] = ["target", "vendor", ".git", "fixtures", "node_modules"];

fn walk(root: &Path) -> io::Result<Vec<PathBuf>> {
    let mut out = Vec::new();
    let mut stack = vec![root.to_path_buf()];
    while let Some(dir) = stack.pop() {
        for entry in fs::read_dir(&dir)? {
            let entry = entry?;
            let path = entry.path();
            let name = entry.file_name();
            let name = name.to_string_lossy();
            if path.is_dir() {
                if !SKIP_DIRS.contains(&name.as_ref()) && !name.starts_with('.') {
                    stack.push(path);
                }
            } else if path.extension().is_some_and(|e| e == "rs") {
                out.push(path);
            }
        }
    }
    out.sort();
    Ok(out)
}

/// Analyze every Rust source under `root` (a workspace checkout) with every
/// rule, including the workspace-wide passes (lock graph, stats-coverage).
/// Workspace-wide findings are routed back to their anchor file
/// so that file's own `analyze:allow` directives can suppress them.
pub fn analyze_workspace(root: &Path) -> io::Result<Report> {
    struct FileRecord {
        rel: String,
        allows: Vec<AllowDirective>,
        comment_lines: Vec<u32>,
        raw: Vec<Violation>,
    }
    let mut records: Vec<FileRecord> = Vec::new();
    let mut stats = StatsScan::default();
    let mut edges: Vec<LockEdge> = Vec::new();
    let mut fns: BTreeMap<String, BTreeSet<String>> = BTreeMap::new();
    let mut manifest = None;
    for path in walk(root)? {
        let rel: String = path
            .strip_prefix(root)
            .unwrap_or(&path)
            .components()
            .map(|c| c.as_os_str().to_string_lossy().into_owned())
            .collect::<Vec<_>>()
            .join("/");
        let src = fs::read_to_string(&path)?;
        let lx = lex(&src);
        let ctx = FileCtx::new(&rel, &src, &lx);
        let mut raw = Vec::new();
        edges.extend(file_rules(&ctx, &mut raw));
        collect_stats(&ctx, &mut stats);
        defined_fns(&ctx, fns.entry(rel.clone()).or_default());
        if rel == MANIFEST_FILE {
            manifest = Some(src.clone());
        }
        records.push(FileRecord {
            rel,
            allows: lx.allows,
            comment_lines: lx.comment_only_lines,
            raw,
        });
    }
    // Workspace-wide rules, then route each finding to its anchor file.
    let mut global = Vec::new();
    check_lock_graph(&edges, &mut global);
    global.extend(stats_coverage(&stats));
    let index: BTreeMap<String, usize> = records
        .iter()
        .enumerate()
        .map(|(i, r)| (r.rel.clone(), i))
        .collect();
    let mut report = Report::default();
    for v in global {
        match index.get(v.file.as_str()).copied() {
            Some(i) => records[i].raw.push(v),
            None => report.violations.push(v),
        }
    }
    for rec in records {
        let (mut kept, suppressed, used) = apply_allows(rec.raw, &rec.allows, &rec.comment_lines);
        check_allow_syntax(&rec.rel, &rec.allows, &mut kept);
        let stale = stale_allows(&rec.rel, &rec.allows, &used);
        report.merge(Report {
            violations: kept,
            suppressed,
            allows: rec
                .allows
                .iter()
                .map(|a| (rec.rel.clone(), a.clone()))
                .collect(),
            stale,
        });
    }
    if let Some(manifest) = manifest {
        let defined: BTreeSet<String> = fns.values().flatten().cloned().collect();
        report
            .violations
            .extend(stale_lock_sites(&manifest, &defined));
        report.violations.extend(stale_scopes(&manifest, &fns));
    }
    report.sort();
    Ok(report)
}
