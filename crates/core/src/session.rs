//! Shared backend + per-session middleware state.
//!
//! The paper's Figure 3 middleware is a *service*: many classification
//! clients queue counts-table requests against one SQL backend. This module
//! holds both halves of that service:
//!
//! * [`Backend`] — the read-mostly substrate shared by every session: the
//!   [`Database`] (behind an `RwLock`; scans take read locks, the §4.3.3
//!   aux builders take short write locks), the table schema and
//!   cardinalities, the [`MiddlewareConfig`], and the [`BudgetArbiter`].
//! * [`Session`] — one client's private state: pending request queue,
//!   staging manager, auxiliary structures, stats, and its budget lease.
//!   [`Middleware`] is the paper's name for it; [`Session::new`] builds a
//!   session that owns its backend.
//! * [`BudgetArbiter`] — leases fair-share slices of the global
//!   `memory_budget_bytes` to live sessions, rebalancing on open/close. A
//!   lone session holds the whole budget.
//!
//! Shadow accounting (DESIGN.md §9.3) extends here: at every batch
//! checkpoint the arbiter asserts `Σ session leases ≤ global budget`, and
//! each session asserts its staged memory bytes against the lease it
//! scheduled under.
//!
//! Lock discipline: this module's locks (`arbiter.inner`, `backend.db`)
//! are ranked by the `LOCK_ORDER` manifest in
//! `crates/analyze/src/rules.rs` — the analyzer's `lock-order`,
//! `guard-across-blocking`, and `atomic-ordering` rules (DESIGN.md §14)
//! check every acquisition here, so keep new nestings consistent with
//! that order and keep lease-cell atomics at `Acquire`/`Release`.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError, RwLock, RwLockReadGuard, RwLockWriteGuard};
use std::time::Instant;

use crate::catalog::StagingCatalog;
use crate::cc::{CountsTable, FulfilledCc};
use crate::config::{AuxMode, MiddlewareConfig};
use crate::error::{MwError, MwResult};
use crate::executor::{BatchCounter, NodeCounter};
use crate::filter::union_filter;
use crate::metrics::{ArbiterStats, MiddlewareStats, ScanStats};
use crate::request::{CcRequest, DataLocation, Lineage, NodeId};
use crate::scheduler::{schedule, BatchPlan, SampledLedger};
use crate::siblings::Parents;
use crate::source::BlockSource;
use crate::sqlgen::cc_via_sql;
use crate::staging::{CodeWidth, MemRows, StagedRows, StagingManager};
use scaleclass_sqldb::stats::DbStats;
use scaleclass_sqldb::{
    Code, Database, KeysetCursor, Pred, PredSet, RowDelta, Schema, StatsSnapshot, CODE_BYTES,
};

// ---------------------------------------------------------------------------
// Budget arbitration
// ---------------------------------------------------------------------------

/// Leases fair-share slices of the global middleware memory budget to live
/// sessions. Every open session holds a lease handle (an `Arc<AtomicU64>`)
/// whose value is recomputed on each open and close, so closing a session
/// returns its slice to the survivors. Every byte is leased: the first
/// `budget % live_sessions` leases (in grant order) carry one extra byte,
/// so `Σ leases == budget` exactly whenever `live_sessions ≤ budget`. The
/// invariant `Σ leases ≤ budget` holds at all times and is asserted by
/// [`BudgetArbiter::assert_shadow_accounting`].
pub struct BudgetArbiter {
    budget: u64,
    inner: Mutex<ArbiterInner>,
}

struct ArbiterInner {
    /// Live leases: `(lease id, granted bytes)`.
    leases: Vec<(u64, Arc<AtomicU64>)>,
    next_id: u64,
    stats: ArbiterStats,
}

impl BudgetArbiter {
    /// An arbiter over `budget` bytes with no live sessions.
    pub fn new(budget: u64) -> Self {
        BudgetArbiter {
            budget,
            inner: Mutex::new(ArbiterInner {
                leases: Vec::new(),
                next_id: 0,
                stats: ArbiterStats::default(),
            }),
        }
    }

    /// The global budget being arbitrated.
    pub fn budget(&self) -> u64 {
        self.budget
    }

    /// Number of sessions currently holding a lease.
    pub fn live_sessions(&self) -> usize {
        self.lock().leases.len()
    }

    /// Snapshot of the arbiter's counters.
    pub fn stats(&self) -> ArbiterStats {
        self.lock().stats
    }

    fn lock(&self) -> MutexGuard<'_, ArbiterInner> {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Grant a fresh lease, shrinking everyone to the new fair share.
    fn open(&self) -> (u64, Arc<AtomicU64>) {
        let mut inner = self.lock();
        let id = inner.next_id;
        inner.next_id = inner.next_id.wrapping_add(1);
        let granted = Arc::new(AtomicU64::new(0));
        inner.leases.push((id, Arc::clone(&granted)));
        inner.stats.leases_granted = inner.stats.leases_granted.saturating_add(1);
        Self::rebalance(self.budget, &mut inner);
        (id, granted)
    }

    /// Reclaim a lease, growing the survivors back to fair share.
    fn release(&self, id: u64) {
        let mut inner = self.lock();
        inner.leases.retain(|(l, _)| *l != id);
        inner.stats.leases_reclaimed = inner.stats.leases_reclaimed.saturating_add(1);
        if !inner.leases.is_empty() {
            Self::rebalance(self.budget, &mut inner);
        }
    }

    fn rebalance(budget: u64, inner: &mut ArbiterInner) {
        let n = u64::try_from(inner.leases.len()).unwrap_or(u64::MAX);
        if n == 0 {
            return;
        }
        let share = budget / n;
        // Deterministic remainder distribution: the first `budget % n`
        // leases in grant order get one extra byte, so no bytes strand
        // (`Σ leases == budget` whenever `n ≤ budget`). A lease shrinking
        // below a session's already-staged bytes is reconciled by the
        // session itself at its next batch boundary (it evicts until its
        // staged bytes fit — see `Session::reconcile_lease`).
        let mut extra = budget % n;
        for (_, granted) in &inner.leases {
            let bonus = u64::from(extra > 0);
            extra = extra.saturating_sub(1);
            granted.store(share.saturating_add(bonus), Ordering::Release);
        }
        inner.stats.rebalances = inner.stats.rebalances.saturating_add(1);
    }

    /// Shadow accounting (DESIGN.md §9.3): the granted leases must never
    /// sum past the global budget. Unconditional assert; call sites gate on
    /// `cfg(debug_assertions)`.
    pub fn assert_shadow_accounting(&self) {
        let inner = self.lock();
        let total: u64 = inner
            .leases
            .iter()
            .map(|(_, g)| g.load(Ordering::Acquire))
            .sum();
        assert!(
            total <= self.budget,
            "session leases sum to {total} B, exceeding the global budget of {} B",
            self.budget
        );
    }
}

// ---------------------------------------------------------------------------
// Backend
// ---------------------------------------------------------------------------

/// The read-mostly substrate shared (via `Arc`) by every session mining one
/// table: the database, the schema-derived metadata, the configuration, and
/// the budget arbiter. Counting scans take read locks on the database;
/// catalog mutations (§4.3.3 aux structures) take short write locks.
pub struct Backend {
    db: RwLock<Database>,
    /// The server's shared statistics handle, cached so snapshots don't
    /// need a database lock.
    db_stats: Arc<DbStats>,
    table: String,
    /// Owned copy of the table schema (sessions hand out `&Schema` without
    /// holding a database lock).
    schema: Schema,
    class_col: u16,
    /// All non-class columns, the default attribute set of new sessions.
    default_attrs: Vec<u16>,
    nclasses: u64,
    /// Schema value cardinality per column — the exclusive code bounds the
    /// dense counting backend sizes its slot arrays by.
    col_cards: Vec<u64>,
    arity: usize,
    /// Rows in the mined table, refreshed under the db write lock after
    /// every mutation and read lock-free (Acquire pairs with the Release
    /// in [`Backend::refresh_table_rows`]).
    table_rows: AtomicU64,
    config: MiddlewareConfig,
    arbiter: BudgetArbiter,
    /// Cross-session shared staging catalog: the first session to stage a
    /// (path-predicate, mode) data set publishes it; later sessions attach
    /// copy-on-read instead of re-staging. Sessions join it only when
    /// `config.shared_staging` is on.
    catalog: Arc<StagingCatalog>,
}

impl Backend {
    /// Build the shared substrate over `table`, predicting `class_column`.
    /// Every other column is treated as a (categorical) input attribute.
    pub fn new(
        db: Database,
        table: impl Into<String>,
        class_column: &str,
        config: MiddlewareConfig,
    ) -> MwResult<Self> {
        let mut db = db;
        let table = table.into();
        let (schema, table_rows) = {
            let t = db.table(&table)?;
            (t.schema().clone(), t.nrows())
        };
        if config.deltas {
            db.enable_delta_log(&table)?;
        }
        let class_col = schema.column_index(class_column)? as u16;
        let default_attrs: Vec<u16> = (0..schema.arity() as u16)
            .filter(|&c| c != class_col)
            .collect();
        let nclasses = u64::from(schema.column(class_col as usize).cardinality());
        let col_cards: Vec<u64> = (0..schema.arity())
            .map(|c| u64::from(schema.column(c).cardinality()))
            .collect();
        let arity = schema.arity();
        let db_stats = Arc::clone(db.stats());
        let arbiter = BudgetArbiter::new(config.memory_budget_bytes);
        let catalog = Arc::new(StagingCatalog::new(config.staging_dir.as_deref()));
        Ok(Backend {
            db: RwLock::new(db),
            db_stats,
            table,
            schema,
            class_col,
            default_attrs,
            nclasses,
            col_cards,
            arity,
            table_rows: AtomicU64::new(table_rows),
            config,
            arbiter,
            catalog,
        })
    }

    /// The mined table's schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// The shared middleware configuration.
    pub fn config(&self) -> &MiddlewareConfig {
        &self.config
    }

    /// Class column index.
    pub fn class_col(&self) -> u16 {
        self.class_col
    }

    /// Rows in the mined table.
    pub fn table_rows(&self) -> u64 {
        self.table_rows.load(Ordering::Acquire)
    }

    /// The mined table's current mutation epoch (0 until a mutation lands).
    pub fn table_epoch(&self) -> u64 {
        self.db_read().table_epoch(&self.table)
    }

    /// The width a memory set of the mined table's rows stores its codes
    /// in, by the table's range certificate as it stands now
    /// ([`CodeWidth::holding`]).
    pub fn mem_width(&self) -> CodeWidth {
        let db = self.db_read();
        (db.table(&self.table)).map_or(CodeWidth::Two, |t| CodeWidth::holding(t.col_max()))
    }

    /// Insert one row into the mined table. The table's epoch advances and,
    /// with `config.deltas` on, a `+row` event joins the delta log.
    pub fn insert_row(&self, row: &[Code]) -> MwResult<()> {
        let mut db = self.db_write();
        db.insert(&self.table, row)?;
        self.refresh_table_rows(&db);
        Ok(())
    }

    /// Delete every mined-table row matching `pred`; returns rows removed.
    /// Removals advance the epoch and log `-row` events under
    /// `config.deltas`.
    pub fn delete_where(&self, pred: &Pred) -> MwResult<u64> {
        let mut db = self.db_write();
        let removed = db.delete_where(&self.table, pred)?;
        self.refresh_table_rows(&db);
        Ok(removed)
    }

    /// Apply `(column, value)` assignments to every mined-table row matching
    /// `pred`; returns rows changed. Changes advance the epoch and log
    /// `-old`/`+new` event pairs under `config.deltas`.
    pub fn update_where(&self, pred: &Pred, assignments: &[(usize, Code)]) -> MwResult<u64> {
        let mut db = self.db_write();
        let changed = db.update_where(&self.table, pred, assignments)?;
        self.refresh_table_rows(&db);
        Ok(changed)
    }

    /// Re-read the mined table's row count while a mutation's write guard
    /// is still held, publishing it for the lock-free readers.
    fn refresh_table_rows(&self, db: &Database) {
        if let Ok(t) = db.table(&self.table) {
            self.table_rows.store(t.nrows(), Ordering::Release);
        }
    }

    /// Schema value cardinality per column.
    pub fn col_cards(&self) -> &[u64] {
        &self.col_cards
    }

    /// The budget arbiter leasing slices of `memory_budget_bytes`.
    pub fn arbiter(&self) -> &BudgetArbiter {
        &self.arbiter
    }

    /// The cross-session shared staging catalog (empty and unused unless
    /// `config.shared_staging` is on).
    pub fn catalog(&self) -> &Arc<StagingCatalog> {
        &self.catalog
    }

    /// Snapshot of the backend server's statistics.
    pub fn db_stats(&self) -> StatsSnapshot {
        self.db_stats.snapshot()
    }

    /// Read access to the database (examples and evaluation).
    pub fn db(&self) -> RwLockReadGuard<'_, Database> {
        self.db_read()
    }

    /// Build the all-attribute root-node request every fresh session (and
    /// pool client) starts from.
    pub fn root_request(&self, root: NodeId) -> CcRequest {
        self.root_request_over(root, &self.default_attrs)
    }

    /// The root-node request over `attrs` (§3.1 step 1 of the client
    /// loop): exact row count from the table, parent cardinalities from the
    /// schema.
    fn root_request_over(&self, root: NodeId, attrs: &[u16]) -> CcRequest {
        CcRequest {
            lineage: Lineage::root(root),
            attrs: attrs.to_vec(),
            class_col: self.class_col,
            rows: self.table_rows(),
            parent_rows: self.table_rows(),
            parent_cards: attrs
                .iter()
                .map(|&a| u64::from(self.schema.column(a as usize).cardinality()))
                .collect(),
        }
    }

    fn db_read(&self) -> RwLockReadGuard<'_, Database> {
        self.db.read().unwrap_or_else(PoisonError::into_inner)
    }

    fn db_write(&self) -> RwLockWriteGuard<'_, Database> {
        self.db.write().unwrap_or_else(PoisonError::into_inner)
    }

    /// Tear down the substrate and recover the database.
    pub fn into_db(self) -> Database {
        self.db.into_inner().unwrap_or_else(PoisonError::into_inner)
    }
}

// ---------------------------------------------------------------------------
// Session
// ---------------------------------------------------------------------------

/// A server-side auxiliary structure (§4.3.3) built for a set of nodes.
enum AuxKind {
    /// (a) a temp table holding the relevant subset.
    Temp(String),
    /// (b) a TID set fetched through random access.
    TidSet(String),
    /// (c) a keyset cursor with stored-procedure residual filtering.
    Keyset(KeysetCursor),
}

struct AuxHandle {
    members: Vec<NodeId>,
    kind: AuxKind,
}

fn drop_aux_structure(db: &mut Database, kind: &AuxKind) {
    match kind {
        AuxKind::Temp(name) => {
            let _ = db.drop_table(name);
        }
        AuxKind::TidSet(name) => {
            let _ = db.drop_tid_set(name);
        }
        AuxKind::Keyset(_) => {}
    }
}

/// One client's middleware state: the pending request queue, the staging
/// manager, auxiliary structures, statistics, and a budget lease. All the
/// scheduling and scanning machinery of §4 executes here; the shared
/// substrate is reached through the session's [`Backend`] handle.
pub struct Session {
    backend: Arc<Backend>,
    lease_id: u64,
    /// This session's leased slice of the global budget, updated by the
    /// arbiter as sessions open and close. Read once per batch.
    lease: Arc<AtomicU64>,
    attrs: Vec<u16>,
    staging: StagingManager,
    pending: Vec<CcRequest>,
    stats: MiddlewareStats,
    scan_stats: ScanStats,
    aux: Vec<AuxHandle>,
    /// Exact parent tables a batch may derive a child's table from
    /// (`crate::siblings`, DESIGN.md §12b).
    parents: Parents,
}

/// The paper's name for one client's middleware (Figure 3): a [`Session`].
/// [`Session::new`] gives it a backend of its own, [`Session::open`] one
/// that other sessions share.
pub type Middleware = Session;

impl Session {
    /// Build a backend over `table`, predicting `class_column`, and open
    /// the one session on it, which leases the whole budget. Every other
    /// column is treated as a (categorical) input attribute.
    pub fn new(
        db: Database,
        table: impl Into<String>,
        class_column: &str,
        config: MiddlewareConfig,
    ) -> MwResult<Self> {
        Self::open(Arc::new(Backend::new(db, table, class_column, config)?))
    }

    /// Open a session over the shared backend, taking out a budget lease.
    pub fn open(backend: Arc<Backend>) -> MwResult<Self> {
        let (lease_id, lease) = backend.arbiter.open();
        let mut staging = match StagingManager::new(backend.config.staging_dir.clone()) {
            Ok(s) => s,
            Err(e) => {
                backend.arbiter.release(lease_id);
                return Err(e);
            }
        };
        staging.set_extent_rows(backend.config.stage_extent_rows);
        if backend.config.shared_staging {
            staging.attach_catalog(Arc::clone(&backend.catalog));
        }
        if backend.config.deltas {
            // Loaded tables open past epoch 0 (each load-time insert is a
            // mutation); start stamping at the current epoch so artifacts
            // staged before any *new* mutation survive the first drain.
            staging.seed_epoch(backend.table_epoch());
        }
        let attrs = backend.default_attrs.clone();
        Ok(Session {
            backend,
            lease_id,
            lease,
            attrs,
            staging,
            pending: Vec::new(),
            stats: MiddlewareStats::new(),
            scan_stats: ScanStats::default(),
            aux: Vec::new(),
            parents: Parents::default(),
        })
    }

    /// The shared backend substrate.
    pub fn backend(&self) -> &Arc<Backend> {
        &self.backend
    }

    /// The session's data schema.
    pub fn schema(&self) -> &Schema {
        &self.backend.schema
    }

    /// Input attribute columns of the session.
    pub fn attrs(&self) -> &[u16] {
        &self.attrs
    }

    /// The session's configuration (shared backend-wide).
    pub fn config(&self) -> &MiddlewareConfig {
        &self.backend.config
    }

    /// Class column index.
    pub fn class_col(&self) -> u16 {
        self.backend.class_col
    }

    /// Rows in the session table.
    pub fn table_rows(&self) -> u64 {
        self.backend.table_rows()
    }

    /// The mined table's current mutation epoch ([`Backend::table_epoch`]).
    pub fn table_epoch(&self) -> u64 {
        self.backend.table_epoch()
    }

    /// Insert one row into the mined table ([`Backend::insert_row`]).
    pub fn insert_row(&self, row: &[Code]) -> MwResult<()> {
        self.backend.insert_row(row)
    }

    /// Delete every mined-table row matching `pred`; returns rows removed
    /// ([`Backend::delete_where`]).
    pub fn delete_where(&self, pred: &Pred) -> MwResult<u64> {
        self.backend.delete_where(pred)
    }

    /// Apply `(column, value)` assignments to every mined-table row
    /// matching `pred`; returns rows changed ([`Backend::update_where`]).
    pub fn update_where(&self, pred: &Pred, assignments: &[(usize, Code)]) -> MwResult<u64> {
        self.backend.update_where(pred, assignments)
    }

    /// Middleware-side statistics for this session.
    pub fn stats(&self) -> &MiddlewareStats {
        &self.stats
    }

    /// Staged-file scan statistics (physical bytes read, rows and decode
    /// time, summed over the session's file scans).
    pub fn scan_stats(&self) -> &ScanStats {
        &self.scan_stats
    }

    /// Drain the mined table's signed row events for incremental model
    /// maintenance (DESIGN.md §15). Returns the events in sequence order
    /// together with the epoch of the drained state; every staged artifact
    /// and shared-catalog entry computed at an earlier epoch is invalidated
    /// before this returns, so no pre-mutation snapshot can serve a
    /// post-drain scan. Counts the events into `stats.deltas_applied`.
    pub fn drain_deltas(&mut self) -> (Vec<RowDelta>, u64) {
        let (events, epoch) = {
            // Scoped: `catalog.inner` ranks before `backend.db` in the lock
            // order (staging.rs module doc), so the write guard must drop
            // before `advance_epoch` reaches the shared catalog.
            let mut db = self.backend.db_write();
            let events = db.take_deltas(&self.backend.table);
            let epoch = db.table_epoch(&self.backend.table);
            (events, epoch)
        };
        self.staging.advance_epoch(epoch, &mut self.stats);
        let n = u64::try_from(events.len()).unwrap_or(u64::MAX);
        self.stats.deltas_applied = self.stats.deltas_applied.saturating_add(n);
        (events, epoch)
    }

    /// Record that the maintenance client re-split `n` tree nodes whose
    /// winner-vs-runner-up margin the accumulated deltas could have flipped
    /// (DESIGN.md §15).
    pub fn note_resplits(&mut self, n: u64) {
        self.stats.nodes_resplit = self.stats.nodes_resplit.saturating_add(n);
    }

    /// Snapshot of the backend server's statistics.
    pub fn db_stats(&self) -> StatsSnapshot {
        self.backend.db_stats()
    }

    /// Read access to the shared database.
    pub fn db(&self) -> RwLockReadGuard<'_, Database> {
        self.backend.db_read()
    }

    /// Bytes of middleware memory currently leased to this session.
    pub fn lease_bytes(&self) -> u64 {
        self.lease.load(Ordering::Acquire)
    }

    /// Bytes of middleware memory this session currently has staged —
    /// private memory sets plus its charged share of shared catalog
    /// entries (always ≤ the lease at batch boundaries).
    pub fn staged_mem_bytes(&self) -> u64 {
        self.staging.staged_mem_bytes()
    }

    /// The session's staged data sets, read-only: what the scans' tees
    /// wrote, for inspection ([`StagingManager::set`]).
    pub fn staging(&self) -> &StagingManager {
        &self.staging
    }

    /// Shadow accounting (DESIGN.md §9): assert the staging manager's
    /// incremental staged-byte counter matches a first-principles recount
    /// of its live memory sets, and that the arbiter's leases sum within
    /// the global budget. `process_next_batch` runs this (plus the
    /// per-batch [`BatchCounter`] check) automatically in debug builds;
    /// tests call it directly to checkpoint between batches.
    pub fn assert_shadow_accounting(&self) {
        self.staging.assert_shadow_accounting();
        self.backend.arbiter.assert_shadow_accounting();
    }

    /// Restrict the session's attribute set to a subset (e.g. a random
    /// subspace for ensemble members). Fails on unknown or class columns,
    /// or while requests are pending.
    pub fn restrict_attrs(&mut self, attrs: &[u16]) -> MwResult<()> {
        if self.has_pending() {
            return Err(MwError::BadRequest(
                "cannot restrict attributes with requests pending".into(),
            ));
        }
        if attrs.is_empty() {
            return Err(MwError::BadRequest("attribute subset is empty".into()));
        }
        for &a in attrs {
            if a as usize >= self.backend.arity || a == self.backend.class_col {
                return Err(MwError::BadRequest(format!(
                    "attribute column {a} invalid for this session"
                )));
            }
        }
        let mut subset = attrs.to_vec();
        subset.sort_unstable();
        subset.dedup();
        self.attrs = subset;
        Ok(())
    }

    /// Close the session: drop its auxiliary server structures, release its
    /// budget lease back to the arbiter, and return the backend handle.
    pub fn close(self) -> Arc<Backend> {
        let backend = Arc::clone(&self.backend);
        drop(self);
        backend
    }

    /// The bootstrap request for a tree root over the session's attribute
    /// set ([`Session::restrict_attrs`]).
    pub fn root_request(&self, root: NodeId) -> CcRequest {
        self.backend.root_request_over(root, &self.attrs)
    }

    /// Queue a counts-table request (client step 1 of Figure 3).
    pub fn enqueue(&mut self, req: CcRequest) -> MwResult<()> {
        if req.class_col != self.backend.class_col {
            return Err(MwError::BadRequest(format!(
                "request class column {} does not match session column {}",
                req.class_col, self.backend.class_col
            )));
        }
        if let Some(&bad) = req
            .attrs
            .iter()
            .find(|&&a| a as usize >= self.backend.arity || a == self.backend.class_col)
        {
            return Err(MwError::BadRequest(format!(
                "attribute column {bad} invalid for this session"
            )));
        }
        if req.attrs.len() != req.parent_cards.len() {
            return Err(MwError::BadRequest(
                "parent_cards must align with attrs".into(),
            ));
        }
        self.parents.enqueued(&req);
        self.pending.push(req);
        Ok(())
    }

    /// Outstanding requests.
    pub fn pending_len(&self) -> usize {
        self.pending.len()
    }

    /// Are any requests queued?
    pub fn has_pending(&self) -> bool {
        !self.pending.is_empty()
    }

    /// Service one scheduled batch: pick requests (Rules 1–3), scan once,
    /// stage data (Rules 4–6), and return the fulfilled counts tables.
    /// Returns an empty vector when no requests are pending. All budget
    /// decisions in the batch use this session's lease, snapshotted once at
    /// batch start so scheduling and counting agree.
    pub fn process_next_batch(&mut self) -> MwResult<Vec<FulfilledCc>> {
        self.flush_unreachable();

        // Adopt shared catalog entries other sessions already staged for
        // the nodes this batch will touch (no-op unless shared staging is
        // on). Runs before the lease reconcile so an attach that charges
        // more than the lease covers is immediately evicted back.
        let want_mem = self.backend.config.memory_caching;
        let want_files = self.backend.config.file_policy.enabled();
        self.staging
            .attach_from_catalog(&self.pending, want_mem, want_files);

        let lease_bytes = self.lease_bytes();
        self.reconcile_lease(lease_bytes);
        // A parent's table serves only while one of its children is still
        // pending, at the epoch it was counted at.
        let backend = &self.backend;
        self.parents.retain(&self.pending, || backend.table_epoch());
        #[cfg(debug_assertions)]
        let staged_before = self.staging.staged_mem_bytes();
        #[cfg(debug_assertions)]
        let charge_before = self.staging.shared_charge_bytes();
        // Rule 5 charges a memory set in the width the certificate allows
        // now; the scan's own certificate can only be wider.
        self.staging.set_mem_width(self.backend.mem_width());

        let Some(mut plan) = schedule(
            &mut self.pending,
            &self.staging,
            &self.backend.config,
            &self.backend.col_cards,
            self.backend.nclasses,
            self.backend.arity,
            lease_bytes,
            &SampledLedger,
        ) else {
            return Ok(Vec::new());
        };

        let mut batch = self.build_counters(&mut plan, lease_bytes)?;
        let started = Instant::now();
        self.scan(&plan, &mut batch)?;
        batch.derive(&mut self.stats)?;
        self.stats.scan_nanos += started.elapsed().as_nanos() as u64;
        // Shadow checkpoint (DESIGN.md §9): the batch's incremental CC and
        // tee-buffer accounting must match a first-principles recount
        // before eviction/commit decisions are applied from it.
        #[cfg(debug_assertions)]
        batch.assert_shadow_accounting();
        let out = self.finish_batch(batch, &plan)?;
        // And after commits/evictions: the staging manager's incremental
        // staged-byte counter must match its live memory sets, the leases
        // must sum within the global budget, and this session's staged
        // memory must fit the lease it scheduled under (a concurrent lease
        // shrink only narrows *future* batches, so pre-existing staged
        // bytes are grandfathered until the next eviction decision).
        #[cfg(debug_assertions)]
        {
            self.staging.assert_shadow_accounting();
            self.backend.arbiter.assert_shadow_accounting();
            let staged_after = self.staging.staged_mem_bytes();
            // Shared-catalog charges can grow mid-batch through no action
            // of this session (another session detaching re-splits entry
            // shares over the survivors); such growth is grandfathered
            // like a lease shrink — the *next* reconcile evicts it.
            let charge_growth = self
                .staging
                .shared_charge_bytes()
                .saturating_sub(charge_before);
            assert!(
                staged_after.saturating_sub(charge_growth) <= lease_bytes
                    || staged_after <= staged_before,
                "session staged {staged_after} B of memory against a lease of \
                 {lease_bytes} B (was {staged_before} B before the batch)"
            );
        }
        Ok(out)
    }

    /// Reclaim every staged data set and auxiliary structure no pending
    /// request descends from (§4.2.2: once a staged subtree is fully
    /// expanded its data is flushed). Runs before every batch; a client
    /// whose queue has drained calls it, since no batch follows to flush
    /// the last subtree's — a finished build then holds nothing.
    pub fn flush_unreachable(&mut self) {
        self.staging
            .evict_unreachable(&self.pending, &mut self.stats);
        self.evict_aux();
    }

    /// Close the gap the arbiter's rebalance leaves open: a session-count
    /// change can shrink this session's lease below bytes it already has
    /// staged in memory. Runs at every batch boundary, evicting staged
    /// memory sets (largest first — most bytes freed per eviction) until
    /// the staged total fits the current lease again.
    fn reconcile_lease(&mut self, lease_bytes: u64) {
        while self.staging.staged_mem_bytes() > lease_bytes {
            let Some(&(id, _)) = self.staging.evictable_mem_sets(None).last() else {
                break;
            };
            self.staging.evict_mem_set(id, &mut self.stats);
            self.stats.lease_shrink_evictions += 1;
        }
        debug_assert!(
            self.staging.staged_mem_bytes() <= lease_bytes
                || self.staging.evictable_mem_sets(None).is_empty(),
            "staged bytes exceed the lease with evictable sets remaining"
        );
    }

    /// Drain the queue completely, invoking `consume` for every fulfilled
    /// request; `consume` may enqueue follow-up requests through the
    /// returned list (the synchronous client loop of Figure 3). Once the
    /// queue drains, every staged set is flushed
    /// ([`Session::flush_unreachable`]).
    pub fn run_to_completion(
        &mut self,
        mut consume: impl FnMut(FulfilledCc) -> Vec<CcRequest>,
    ) -> MwResult<()> {
        while self.has_pending() {
            let fulfilled = self.process_next_batch()?;
            for f in fulfilled {
                for follow_up in consume(f) {
                    self.enqueue(follow_up)?;
                }
            }
        }
        self.flush_unreachable();
        Ok(())
    }

    // ------------------------------------------------------------------
    // Batch assembly and scanning
    // ------------------------------------------------------------------

    /// The batch's counting pass over `plan`, whose nodes it takes.
    fn build_counters(&mut self, plan: &mut BatchPlan, lease_bytes: u64) -> MwResult<BatchCounter> {
        let split = if plan.split_file {
            let members = plan.node_ids();
            let preds: Vec<Pred> = plan.nodes.iter().map(|n| n.req.pred().clone()).collect();
            Some(
                self.staging
                    .start_file(members, Pred::or(preds), self.backend.arity)?,
            )
        } else {
            None
        };
        let mut counters = Vec::with_capacity(plan.nodes.len());
        for sched in std::mem::take(&mut plan.nodes) {
            let mut counter = NodeCounter::new(sched.req);
            counter.bound = self.parents.take_bound(counter.req.node());
            if sched.dense {
                // Slot arrays are sized by *schema* cardinalities — the
                // true code bounds — never by the node-local distinct
                // counts in `parent_cards`, which child codes can exceed.
                let attr_cards: Vec<(u16, u64)> = counter
                    .req
                    .attrs
                    .iter()
                    .filter_map(|&a| {
                        self.backend
                            .col_cards
                            .get(usize::from(a))
                            .map(|&card| (a, card))
                    })
                    .collect();
                counter.cc = CountsTable::new_dense(&attr_cards, self.backend.nclasses);
            }
            if counter.cc.is_dense() {
                self.stats.dense_nodes += 1;
            } else {
                self.stats.sparse_nodes += 1;
            }
            if sched.stage_file {
                let pred = counter.req.pred().clone();
                counter.file_writer = Some(self.staging.start_file(
                    vec![counter.req.node()],
                    pred,
                    self.backend.arity,
                )?);
            }
            if sched.stage_mem {
                // Pre-size from the scheduler's relevant-data estimate so
                // concurrent tee writers don't reallocate mid-scan (capped:
                // the estimate is trusted for sizing, not for allocation).
                // The scan fixes the width from its certificate.
                let cap = sched.est_data_bytes.min(1 << 27) as usize;
                let width = self.staging.mem_width();
                counter.mem_buffer = Some(MemRows::with_capacity(width, cap));
            }
            counters.push(counter);
        }
        // A compacting batch routes the paths of the requests waiting on its
        // source after its nodes', to keep their rows too.
        let waiting = plan.compact_mem.iter().flatten().map(Lineage::pred);
        let router = PredSet::new(counters.iter().map(|n| n.req.pred()).chain(waiting));
        let mut batch = BatchCounter::with_router(
            counters,
            router,
            lease_bytes,
            self.staging.staged_mem_bytes(),
            self.backend.arity,
        );
        batch.split_writer = split;
        batch.kept = plan.compact_mem.is_some().then(Vec::new);
        let source_set = match plan.source {
            DataLocation::Memory(id) => Some(id),
            _ => None,
        };
        batch.evictable = self.staging.evictable_mem_sets(source_set);
        Ok(batch)
    }

    /// Count `plan`'s batch from the location it was scheduled on: certify
    /// the scan ([`Session::certify`]), then — unless the batch reads
    /// nothing — open the location as a [`BlockSource`], run the one scan
    /// loop over it on this thread, and charge the location's read
    /// counters.
    fn scan(&mut self, plan: &BatchPlan, batch: &mut BatchCounter) -> MwResult<()> {
        let arity = self.backend.arity;
        let block_rows = self.backend.config.scan_block_rows;
        let wire = plan.source == DataLocation::Server;
        let staged_rows = match plan.source {
            DataLocation::Memory(id) | DataLocation::File(id) => {
                let set = self.staging.set(id).ok_or_else(|| {
                    MwError::Internal(format!("scheduled staged set {id} missing"))
                })?;
                Some(set.nrows)
            }
            DataLocation::Server => None,
        };
        let aux = if wire && self.backend.config.aux_mode != AuxMode::Off {
            self.usable_aux(&batch.nodes, plan.frontier_rows)?
        } else {
            None
        };
        let backend = Arc::clone(&self.backend);
        let db = backend.db_read();
        // Staged rows are copies of table rows, and the table's range
        // certificate never falls: read now, it bounds them all. A server
        // scan reads under this guard, so the certificate and the row
        // count bound every row it ships — through an aux structure's
        // copies too — and the epoch is the one it reads at.
        let rows = match staged_rows {
            Some(rows) => rows,
            None => db.table(&backend.table)?.nrows(),
        };
        if !self.certify(batch, &db, rows, wire)? {
            // Nothing to read: a server scan's pushed-down filter is
            // empty, and every node's rows go unshipped.
            if wire {
                batch.pushdown();
            }
            return Ok(());
        }
        match plan.source {
            DataLocation::Memory(id) => {
                drop(db);
                self.stats.memory_scans += 1;
                let Some(StagedRows::Memory(rows)) = self.staging.set(id).map(|s| &s.rows) else {
                    return Err(MwError::Internal(format!(
                        "scheduled memory set {id} missing"
                    )));
                };
                let rows = Arc::clone(rows);
                let mut src = BlockSource::memory_set(&rows, arity, block_rows);
                drive(&mut src, batch, &mut self.stats)?;
                self.stats.memory_rows_read += src.rows_read;
            }
            DataLocation::File(id) => {
                drop(db);
                self.stats.file_scans += 1;
                let layout = self.staging.extent_layout(id)?.ok_or_else(|| {
                    MwError::Internal(format!("scheduled staged file {id} missing"))
                })?;
                let mut src = BlockSource::extents(&layout)?;
                drive(&mut src, batch, &mut self.stats)?;
                let read = src.rows_read;
                self.stats.file_rows_read += read;
                self.stats.file_bytes_read += read * (arity * CODE_BYTES) as u64;
                self.scan_stats.absorb(&src.io);
            }
            DataLocation::Server => {
                self.stats.server_scans += 1;
                self.scan_server(db, aux, batch)?;
            }
        }
        Ok(())
    }

    /// Start `batch`'s scan, before its first block, of at most `rows`
    /// rows, each a row of the table as `db` holds it or a copy of one: plan
    /// the batch's derivations against the table's range certificate and
    /// epoch ([`Parents::plan`]; `wire` when the rows come from the
    /// server), then certify the batch with the plans that stand
    /// ([`BatchCounter::certify`]). The one place a batch plans. Returns
    /// whether the scan reads its source.
    fn certify(
        &mut self,
        batch: &mut BatchCounter,
        db: &Database,
        rows: u64,
        wire: bool,
    ) -> MwResult<bool> {
        let table = &self.backend.table;
        let (certificate, epoch) = (db.table(table)?.col_max(), db.table_epoch(table));
        let stats = &mut self.stats;
        let plans = (self.parents).plan(&batch.nodes, certificate, epoch, wire, stats);
        Ok(batch.certify(certificate, rows, epoch, plans, stats))
    }

    /// The server leg of [`Session::scan`], under the read guard `db` its
    /// certificate was read under: a plain filtered cursor (the paper's
    /// recommended path) or a read through the §4.3.3 auxiliary structure
    /// `aux` when one applies. Every read pushes down the filter of the
    /// nodes whose rows the scan counts or stages
    /// ([`BatchCounter::pushdown`]), known once the scan is certified:
    /// under the guard, since that is the only read of the certificate
    /// that bounds every row it ships — through an aux structure's copies
    /// too.
    fn scan_server(
        &mut self,
        db: RwLockReadGuard<'_, Database>,
        aux: Option<usize>,
        batch: &mut BatchCounter,
    ) -> MwResult<()> {
        let arity = self.backend.arity;
        let block_rows = self.backend.config.scan_block_rows;
        let wire_rows = self.backend.config.wire_batch_rows;
        let table = &self.backend.table;
        if let Some(idx) = aux {
            let filter = batch.pushdown();
            self.stats.aux_scans += 1;
            let handle = self
                .aux
                .get(idx)
                .ok_or_else(|| MwError::Internal(format!("aux structure {idx} missing")))?;
            let mut flat: Vec<Code> = Vec::new();
            match &handle.kind {
                AuxKind::Temp(name) => {
                    let cursor = db.open_cursor(name, filter, wire_rows)?;
                    let mut src = BlockSource::table_cursor(cursor, block_rows);
                    return drive(&mut src, batch, &mut self.stats);
                }
                AuxKind::TidSet(name) => {
                    db.tid_scan(name, &filter, wire_rows, &mut flat)?;
                }
                AuxKind::Keyset(cursor) => {
                    cursor.scan_filtered(&db, &filter, &mut flat)?;
                }
            }
            // Materialised: the server's part is over before counting.
            drop(db);
            let mut src = BlockSource::flat(&flat, arity, block_rows);
            return drive(&mut src, batch, &mut self.stats);
        }

        // The filter-pushdown ablation ships everything and filters here.
        let pushed = if self.backend.config.push_filters {
            batch.pushdown()
        } else {
            Pred::True
        };
        let cursor = db.open_cursor(table, pushed, wire_rows)?;
        let mut src = BlockSource::table_cursor(cursor, block_rows);
        drive(&mut src, batch, &mut self.stats)
    }

    /// The §4.3.3 structure to scan the scheduled nodes through, if any:
    /// an existing one every node descends from, or a new one when the
    /// frontier's relevant fraction of the table is small enough.
    fn usable_aux(&mut self, nodes: &[NodeCounter], frontier_rows: u64) -> MwResult<Option<usize>> {
        let usable = self.aux.iter().position(|h| {
            nodes
                .iter()
                .all(|n| h.members.iter().any(|&m| n.req.lineage.contains(m)))
        });
        if usable.is_some() {
            return Ok(usable);
        }
        let table_rows = self.backend.table_rows();
        let fraction = if table_rows == 0 {
            1.0
        } else {
            frontier_rows as f64 / table_rows as f64
        };
        if fraction <= self.backend.config.aux_threshold {
            Ok(Some(self.build_aux(nodes)?))
        } else {
            Ok(None)
        }
    }

    /// Build the configured §4.3.3 structure for the scheduled nodes,
    /// recording the server cost of the build separately so experiments can
    /// report the "idealized" number that neglects it. It holds the rows of
    /// every node, derived ones included: their children read it later.
    fn build_aux(&mut self, nodes: &[NodeCounter]) -> MwResult<usize> {
        let members: Vec<NodeId> = nodes.iter().map(|n| n.req.node()).collect();
        let filter = &union_filter(&nodes.iter().map(|n| &n.req).collect::<Vec<_>>());
        let before = self.backend.db_stats.snapshot();
        let kind = match self.backend.config.aux_mode {
            AuxMode::TempTable => {
                let mut db = self.backend.db_write();
                AuxKind::Temp(db.copy_to_temp(&self.backend.table, filter)?)
            }
            AuxMode::TidJoin => {
                let mut db = self.backend.db_write();
                AuxKind::TidSet(db.create_tid_set(&self.backend.table, filter)?)
            }
            AuxMode::Keyset => {
                let db = self.backend.db_read();
                AuxKind::Keyset(db.open_keyset_cursor(&self.backend.table, filter)?)
            }
            AuxMode::Off => {
                return Err(MwError::Internal(
                    "build_aux called with AuxMode::Off".into(),
                ))
            }
        };
        let build_cost = self.backend.db_stats.snapshot() - before;
        self.stats.aux_builds += 1;
        self.stats.aux_build_cost = self.stats.aux_build_cost + build_cost;
        self.aux.push(AuxHandle { members, kind });
        Ok(self.aux.len() - 1)
    }

    fn evict_aux(&mut self) {
        if self.aux.is_empty() {
            return;
        }
        let pending = &self.pending;
        let mut keep = Vec::with_capacity(self.aux.len());
        let mut dead = Vec::new();
        for handle in self.aux.drain(..) {
            let reachable = handle
                .members
                .iter()
                .any(|&m| pending.iter().any(|r| r.lineage.contains(m)));
            if reachable {
                keep.push(handle);
            } else {
                dead.push(handle);
            }
        }
        if !dead.is_empty() {
            let mut db = self.backend.db_write();
            for handle in &dead {
                drop_aux_structure(&mut db, &handle.kind);
            }
        }
        self.aux = keep;
    }

    // ------------------------------------------------------------------
    // Batch completion
    // ------------------------------------------------------------------

    fn finish_batch(
        &mut self,
        batch: BatchCounter,
        plan: &BatchPlan,
    ) -> MwResult<Vec<FulfilledCc>> {
        let BatchCounter {
            nodes,
            split_writer,
            kept,
            evicted,
            epoch,
            ..
        } = batch;
        // Apply pressure evictions decided during the scan.
        for id in evicted {
            self.staging.evict_mem_set(id, &mut self.stats);
        }
        if let Some(w) = split_writer {
            self.staging.commit_file(w, &mut self.stats)?;
        }
        if let (Some(kept), Some(waiting), DataLocation::Memory(id)) =
            (kept, &plan.compact_mem, plan.source)
        {
            let nodes = nodes.iter().map(|n| &n.req.lineage);
            let members: Vec<&Lineage> = nodes.chain(waiting).collect();
            self.staging
                .compact_mem(id, &kept, &members, &mut self.stats)?;
        }
        let mut out = Vec::with_capacity(nodes.len());
        for counter in nodes {
            let NodeCounter {
                req,
                cc,
                fallback,
                file_writer,
                mem_buffer,
                ..
            } = counter;
            if let Some(w) = file_writer {
                self.staging.commit_file(w, &mut self.stats)?;
            }
            if let Some(buf) = mem_buffer {
                self.staging.commit_mem(
                    req.node(),
                    req.pred().clone(),
                    buf,
                    self.backend.arity,
                    &mut self.stats,
                );
            }
            let cc = Arc::new(if fallback {
                // §4.1.1 dynamic switch: fetch this node's counts through
                // per-attribute GROUP BY queries.
                let db = self.backend.db_read();
                cc_via_sql(
                    &db,
                    &self.backend.table,
                    req.pred(),
                    &req.attrs,
                    req.class_col,
                )?
            } else {
                cc
            });
            self.parents.fulfilled(&req, &cc, epoch);
            self.stats.requests_served += 1;
            out.push(FulfilledCc {
                node: req.node(),
                cc,
                source: plan.source,
                via_sql_fallback: fallback,
                sample: None,
            });
        }
        self.stats.rounds += 1;
        Ok(out)
    }

    // ------------------------------------------------------------------
    // Baselines (§2.3) — exposed for the experiments
    // ------------------------------------------------------------------

    /// Straightforward-SQL baseline: compute a node's counts table with the
    /// UNION-of-GROUP-BY query (one server scan per attribute).
    pub fn cc_via_sql_baseline(&self, req: &CcRequest) -> MwResult<CountsTable> {
        let db = self.backend.db_read();
        cc_via_sql(
            &db,
            &self.backend.table,
            req.pred(),
            &req.attrs,
            req.class_col,
        )
    }

    /// Full-extraction baseline: ship the entire table (or the subset
    /// matching `pred`) to the client through the wire, as a flat code
    /// vector. This is §2.3's "extract the data set and load it into the
    /// client" strategy.
    pub fn extract_all(&self, pred: Pred) -> MwResult<Vec<Code>> {
        let db = self.backend.db_read();
        let mut cursor = db.open_cursor(
            &self.backend.table,
            pred,
            self.backend.config.wire_batch_rows,
        )?;
        let mut out = Vec::new();
        cursor.fetch_all(&mut out);
        Ok(out)
    }
}

impl Drop for Session {
    fn drop(&mut self) {
        // Auxiliary server structures the session built (§4.3.3 temp
        // tables / TID sets) are dropped so no session state leaks into
        // the shared catalog; the budget lease returns to the arbiter.
        if !self.aux.is_empty() {
            let mut db = self.backend.db_write();
            for handle in self.aux.drain(..) {
                drop_aux_structure(&mut db, &handle.kind);
            }
        }
        self.backend.arbiter.release(self.lease_id);
    }
}

/// The one scan loop (§4.1.1): every block the source yields goes to the
/// batch, which counts it into all scheduled nodes at once, on this thread.
pub(crate) fn drive(
    source: &mut BlockSource<'_>,
    batch: &mut BatchCounter,
    stats: &mut MiddlewareStats,
) -> MwResult<()> {
    while let Some(block) = source.next_block()? {
        batch.process(&block, stats)?;
        stats.scan_blocks += 1;
    }
    stats.scan_rows += source.rows_read;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use scaleclass_sqldb::Schema as SqlSchema;

    fn backend(rows: u16, config: MiddlewareConfig) -> Arc<Backend> {
        let mut db = Database::new();
        db.create_table(
            "d",
            SqlSchema::from_pairs(&[("a", 4), ("b", 3), ("class", 2)]),
        )
        .unwrap();
        for i in 0..rows {
            let a = i % 4;
            let b = (i / 4) % 3;
            let c = u16::from(a >= 2);
            db.insert("d", &[a, b, c]).unwrap();
        }
        Arc::new(Backend::new(db, "d", "class", config).unwrap())
    }

    #[test]
    fn lone_session_leases_the_whole_budget() {
        let be = backend(8, MiddlewareConfig::default());
        let s = Session::open(Arc::clone(&be)).unwrap();
        assert_eq!(s.lease_bytes(), be.config().memory_budget_bytes);
        assert_eq!(be.arbiter().live_sessions(), 1);
        let stats = be.arbiter().stats();
        assert_eq!(stats.leases_granted, 1);
        assert_eq!(stats.leases_reclaimed, 0);
        assert_eq!(stats.rebalances, 1);
    }

    #[test]
    fn leases_split_fairly_and_reclaim_on_close() {
        let budget = 1 << 20;
        let cfg = MiddlewareConfig::builder()
            .memory_budget_bytes(budget)
            .build();
        let be = backend(8, cfg);
        let s1 = Session::open(Arc::clone(&be)).unwrap();
        let s2 = Session::open(Arc::clone(&be)).unwrap();
        let s3 = Session::open(Arc::clone(&be)).unwrap();
        // 2^20 % 3 == 1: the earliest-granted lease absorbs the remainder.
        assert_eq!(s1.lease_bytes(), budget / 3 + 1);
        assert_eq!(s2.lease_bytes(), budget / 3);
        assert_eq!(s3.lease_bytes(), budget / 3);
        be.arbiter().assert_shadow_accounting();

        drop(s2);
        assert_eq!(be.arbiter().live_sessions(), 2);
        assert_eq!(s1.lease_bytes(), budget / 2, "reclaimed share rebalanced");
        be.arbiter().assert_shadow_accounting();

        drop(s3);
        assert_eq!(s1.lease_bytes(), budget, "lone survivor holds everything");
        let stats = be.arbiter().stats();
        assert_eq!(stats.leases_granted, 3);
        assert_eq!(stats.leases_reclaimed, 2);
        assert_eq!(stats.rebalances, 5, "3 opens + 2 closes with survivors");
    }

    #[test]
    fn leases_never_sum_past_the_budget() {
        // A budget that doesn't divide evenly: the remainder is spread one
        // byte at a time over the earliest leases, so Σ == budget exactly.
        let cfg = MiddlewareConfig::builder()
            .memory_budget_bytes(1007)
            .build();
        let be = backend(8, cfg);
        let sessions: Vec<Session> = (0..3)
            .map(|_| Session::open(Arc::clone(&be)).unwrap())
            .collect();
        let total: u64 = sessions.iter().map(Session::lease_bytes).sum();
        assert_eq!(total, 1007, "no bytes strand");
        assert_eq!(sessions[0].lease_bytes(), 336);
        assert_eq!(sessions[1].lease_bytes(), 336);
        assert_eq!(sessions[2].lease_bytes(), 335);
        be.arbiter().assert_shadow_accounting();
    }

    #[test]
    fn lease_remainder_distribution_is_deterministic_and_fair() {
        for (budget, k) in [(10u64, 3usize), (1007, 5), (4096, 4), (2, 4), (0, 3)] {
            let cfg = MiddlewareConfig::builder()
                .memory_budget_bytes(budget)
                .build();
            let be = backend(8, cfg);
            let sessions: Vec<Session> = (0..k)
                .map(|_| Session::open(Arc::clone(&be)).unwrap())
                .collect();
            let leases: Vec<u64> = sessions.iter().map(Session::lease_bytes).collect();
            let total: u64 = leases.iter().sum();
            let kk = k as u64;
            assert_eq!(total, budget, "budget {budget} / {k}: every byte leased");
            let max = leases.iter().max().copied().unwrap_or(0);
            let min = leases.iter().min().copied().unwrap_or(0);
            assert!(
                max - min <= 1,
                "budget {budget} / {k}: fair to within a byte"
            );
            let rem = (budget % kk) as usize;
            for (i, &l) in leases.iter().enumerate() {
                let expect = budget / kk + u64::from(i < rem);
                assert_eq!(l, expect, "budget {budget} / {k}: lease {i}");
            }
            be.arbiter().assert_shadow_accounting();
        }
    }

    #[test]
    fn lease_shrink_triggers_eviction_at_the_next_batch() {
        // One session stages the whole table in memory, then a second
        // session opens and halves the lease below the staged bytes: the
        // first session's next batch must reconcile by evicting rather
        // than schedule over-lease. Geometry: staged M = 520 rows × 3 B =
        // 1560 B sits between budget/2 = 1500 (so the halved lease no
        // longer covers it) and 3/5 · budget = 1800 (so the lone session
        // could stage it in the first place).
        let rows = 520u16;
        let staged = u64::from(rows) * CodeWidth::One.row_bytes(3);
        let budget = 3000u64;
        assert!(budget / 2 < staged && staged <= budget * 3 / 5);
        let cfg = MiddlewareConfig::builder()
            .memory_budget_bytes(budget)
            .build();
        let be = backend(rows, cfg);
        let mut s1 = Session::open(Arc::clone(&be)).unwrap();
        let req = s1.root_request(NodeId(0));
        s1.enqueue(req).unwrap();
        s1.process_next_batch().unwrap();
        assert_eq!(s1.stats().memory_sets_created, 1);
        assert_eq!(s1.staged_mem_bytes(), staged);

        let _s2 = Session::open(Arc::clone(&be)).unwrap();
        assert!(
            s1.lease_bytes() < s1.staged_mem_bytes(),
            "the halved lease no longer covers the staged set"
        );

        // A follow-up batch reconciles before scheduling.
        let follow = CcRequest {
            lineage: Lineage::root(NodeId(0)).child(NodeId(1), Pred::Eq { col: 0, value: 0 }),
            attrs: vec![0, 1],
            class_col: 2,
            rows: u64::from(rows) / 4,
            parent_rows: u64::from(rows),
            parent_cards: vec![4, 3],
        };
        s1.enqueue(follow).unwrap();
        s1.process_next_batch().unwrap();
        assert!(s1.stats().lease_shrink_evictions >= 1);
        assert!(s1.staged_mem_bytes() <= s1.lease_bytes());
        s1.assert_shadow_accounting();
    }

    #[test]
    fn session_close_returns_backend_and_lease() {
        let be = backend(8, MiddlewareConfig::default());
        let s = Session::open(Arc::clone(&be)).unwrap();
        let returned = s.close();
        assert!(Arc::ptr_eq(&be, &returned));
        assert_eq!(be.arbiter().live_sessions(), 0);
        assert_eq!(be.arbiter().stats().leases_reclaimed, 1);
    }

    #[test]
    fn two_sessions_share_one_backend_catalog() {
        // Shared staging off: the point here is that *stats* are
        // per-session (each session scans the server itself), which the
        // catalog would turn into one scan plus a catalog hit.
        let be = backend(
            40,
            MiddlewareConfig::builder().shared_staging(false).build(),
        );
        let mut s1 = Session::open(Arc::clone(&be)).unwrap();
        let mut s2 = Session::open(Arc::clone(&be)).unwrap();
        let r1 = s1.root_request(NodeId(0));
        let r2 = s2.root_request(NodeId(0));
        s1.enqueue(r1).unwrap();
        s2.enqueue(r2).unwrap();
        let out1 = s1.process_next_batch().unwrap();
        let out2 = s2.process_next_batch().unwrap();
        assert_eq!(out1[0].cc.total(), 40);
        assert_eq!(out2[0].cc.total(), 40);
        // Stats are per-session, not global.
        assert_eq!(s1.stats().server_scans, 1);
        assert_eq!(s2.stats().server_scans, 1);
        s1.assert_shadow_accounting();
        s2.assert_shadow_accounting();
    }

    #[test]
    fn shared_staging_second_session_attaches_instead_of_rescanning() {
        let cfg = MiddlewareConfig::builder().shared_staging(true).build();
        let be = backend(40, cfg);
        let mut s1 = Session::open(Arc::clone(&be)).unwrap();
        let mut s2 = Session::open(Arc::clone(&be)).unwrap();

        // Session 1 pays for the root scan and publishes the staged set.
        let r1 = s1.root_request(NodeId(0));
        s1.enqueue(r1).unwrap();
        let out1 = s1.process_next_batch().unwrap();
        assert_eq!(out1[0].cc.total(), 40);
        assert_eq!(s1.stats().server_scans, 1);
        assert_eq!(be.catalog().stats().publishes, 1);

        // Session 2 attaches to the published set: a memory scan, no
        // server scan, and the data set is staged once across the backend.
        let r2 = s2.root_request(NodeId(0));
        s2.enqueue(r2).unwrap();
        let out2 = s2.process_next_batch().unwrap();
        assert_eq!(out2[0].cc.total(), 40);
        assert_eq!(s2.stats().server_scans, 0, "cache hit replaces the scan");
        assert_eq!(s2.stats().memory_scans, 1);
        assert_eq!(s2.stats().memory_sets_created, 0, "attached, not re-staged");
        assert!(be.catalog().stats().hits >= 1);

        // Each reader is charged an equal share and the charges sum within
        // the leased budget.
        let staged = 40 * CodeWidth::One.row_bytes(3);
        assert_eq!(s1.staged_mem_bytes(), staged / 2);
        assert_eq!(s2.staged_mem_bytes(), staged / 2);
        assert!(
            s1.staged_mem_bytes() <= s1.lease_bytes() && s2.staged_mem_bytes() <= s2.lease_bytes()
        );
        s1.assert_shadow_accounting();
        s2.assert_shadow_accounting();

        // The survivor absorbs the leaver's share; the last exit reclaims.
        drop(s1);
        assert_eq!(s2.staged_mem_bytes(), staged);
        s2.assert_shadow_accounting();
        drop(s2);
        assert_eq!(be.catalog().stats().reclaims, 1);
        assert_eq!(be.catalog().entry_count(), 0);
    }

    #[test]
    fn shared_staging_off_keeps_catalog_empty() {
        let be = backend(
            40,
            MiddlewareConfig::builder().shared_staging(false).build(),
        );
        let mut s = Session::open(Arc::clone(&be)).unwrap();
        let req = s.root_request(NodeId(0));
        s.enqueue(req).unwrap();
        s.process_next_batch().unwrap();
        assert!(s.stats().memory_sets_created >= 1, "set staged privately");
        assert_eq!(be.catalog().stats().publishes, 0);
        assert_eq!(be.catalog().entry_count(), 0);
    }

    #[test]
    fn shared_charge_counts_against_the_lease_reconcile() {
        // Same geometry as the lease-shrink test, but with shared staging:
        // the staged root set (1560 B) exceeds the halved lease (1500 B),
        // and with two readers each share is 780 B — so after session 2
        // attaches, *both* fit. The charge path must flow through
        // staged_mem_bytes for that to be what reconcile sees.
        let rows = 520u16;
        let staged = u64::from(rows) * CodeWidth::One.row_bytes(3);
        let budget = 3000u64;
        assert!(budget / 2 < staged && staged <= budget * 3 / 5);
        let cfg = MiddlewareConfig::builder()
            .memory_budget_bytes(budget)
            .shared_staging(true)
            .build();
        let be = backend(rows, cfg);
        let mut s1 = Session::open(Arc::clone(&be)).unwrap();
        let req = s1.root_request(NodeId(0));
        s1.enqueue(req).unwrap();
        s1.process_next_batch().unwrap();
        assert_eq!(s1.staged_mem_bytes(), staged, "sole reader pays all");

        let mut s2 = Session::open(Arc::clone(&be)).unwrap();
        assert!(s1.lease_bytes() < s1.staged_mem_bytes());

        // Session 2 attaches to the shared set: the charge splits, and
        // both sessions now fit their halved leases without any eviction.
        let r2 = s2.root_request(NodeId(0));
        s2.enqueue(r2).unwrap();
        s2.process_next_batch().unwrap();
        assert_eq!(s2.stats().server_scans, 0, "attached to the shared set");
        assert_eq!(s1.staged_mem_bytes(), staged / 2);
        assert_eq!(s2.staged_mem_bytes(), staged / 2);
        assert!(s1.staged_mem_bytes() <= s1.lease_bytes());
        assert_eq!(
            s2.stats().lease_shrink_evictions,
            0,
            "the split share fits — no eviction needed"
        );
        s1.assert_shadow_accounting();
        s2.assert_shadow_accounting();
    }

    #[test]
    fn dropped_session_reclaims_aux_structures_from_shared_catalog() {
        let cfg = MiddlewareConfig::builder()
            .memory_caching(false)
            .aux_mode(AuxMode::TempTable)
            .aux_threshold(1.0)
            .build();
        let be = backend(40, cfg);
        let mut s = Session::open(Arc::clone(&be)).unwrap();
        let req = s.root_request(NodeId(0));
        s.enqueue(req).unwrap();
        s.process_next_batch().unwrap();
        assert_eq!(s.stats().aux_builds, 1);
        drop(s);
        let db = be.db();
        let temps: Vec<&str> = db.table_names().filter(|n| n.starts_with('#')).collect();
        assert!(temps.is_empty(), "leaked temp tables: {temps:?}");
    }

    #[test]
    fn dml_passthroughs_advance_epoch_and_row_count() {
        let cfg = MiddlewareConfig::builder().deltas(true).build();
        let be = backend(12, cfg);
        // Load-time inserts are mutations too: the table opens past 0.
        let e0 = be.table_epoch();
        assert_eq!(e0, 12);
        assert_eq!(be.table_rows(), 12);

        be.insert_row(&[3, 1, 1]).unwrap();
        assert_eq!(be.table_epoch(), e0 + 1);
        assert_eq!(be.table_rows(), 13);

        let removed = be.delete_where(&Pred::Eq { col: 0, value: 0 }).unwrap();
        assert_eq!(removed, 3, "a=0 rows among the first 12");
        assert_eq!(be.table_epoch(), e0 + 2);
        assert_eq!(be.table_rows(), 10);

        let changed = be
            .update_where(&Pred::Eq { col: 0, value: 1 }, &[(1, 2)])
            .unwrap();
        assert!(changed > 0);
        assert_eq!(be.table_epoch(), e0 + 3);
        assert_eq!(be.table_rows(), 10, "updates keep the row count");

        // A no-op mutation leaves the epoch alone.
        let removed = be.delete_where(&Pred::Eq { col: 0, value: 0 }).unwrap();
        assert_eq!(removed, 0);
        assert_eq!(be.table_epoch(), e0 + 3);
    }

    #[test]
    fn drain_deltas_returns_events_and_invalidates_stale_staging() {
        let cfg = MiddlewareConfig::builder().deltas(true).build();
        let be = backend(24, cfg);
        let mut s = Session::open(Arc::clone(&be)).unwrap();
        let e0 = be.table_epoch();

        // Stage the whole table in memory at the open epoch.
        let req = s.root_request(NodeId(0));
        s.enqueue(req).unwrap();
        s.process_next_batch().unwrap();
        assert!(s.staged_mem_bytes() > 0, "root set cached at open epoch");

        // Draining before any new mutation is a no-op: the open epoch was
        // seeded, so nothing staged since open is spuriously invalidated.
        let (events, epoch) = s.drain_deltas();
        assert!(events.is_empty());
        assert_eq!(epoch, e0);
        assert!(s.staged_mem_bytes() > 0, "artifacts survive a no-op drain");
        assert_eq!(s.stats().epochs_invalidated, 0);

        be.insert_row(&[0, 0, 1]).unwrap();
        be.delete_where(&Pred::Eq { col: 0, value: 3 }).unwrap();
        let (events, epoch) = s.drain_deltas();
        assert_eq!(epoch, e0 + 2, "one insert + one delete batch");
        // +1 insert, −6 deletes (a=3 rows), in sequence order.
        assert_eq!(events.len(), 7);
        assert!(events.windows(2).all(|w| w[0].seq < w[1].seq));
        assert_eq!(events[0].sign, scaleclass_sqldb::DeltaSign::Insert);
        assert!(events[1..]
            .iter()
            .all(|e| e.sign == scaleclass_sqldb::DeltaSign::Delete));

        // Epoch-0 staged artifacts are gone; the stats counted everything.
        assert_eq!(s.staged_mem_bytes(), 0, "stale mem set invalidated");
        assert_eq!(s.stats().epochs_invalidated, 1);
        assert_eq!(s.stats().deltas_applied, 7);
        s.assert_shadow_accounting();

        // Draining again with no new mutations is a no-op.
        let (events, epoch) = s.drain_deltas();
        assert!(events.is_empty());
        assert_eq!(epoch, e0 + 2);
        assert_eq!(s.stats().epochs_invalidated, 1);

        // The next batch rescans the server and restages at the new epoch.
        let req = s.root_request(NodeId(1));
        s.enqueue(req).unwrap();
        let out = s.process_next_batch().unwrap();
        assert_eq!(out[0].cc.total(), 19, "24 + 1 − 6 rows");
        s.note_resplits(2);
        assert_eq!(s.stats().nodes_resplit, 2);
    }

    #[test]
    fn deltas_off_drains_nothing_and_keeps_staging() {
        let be = backend(24, MiddlewareConfig::builder().deltas(false).build());
        let mut s = Session::open(Arc::clone(&be)).unwrap();
        let req = s.root_request(NodeId(0));
        s.enqueue(req).unwrap();
        s.process_next_batch().unwrap();
        let staged = s.staged_mem_bytes();
        assert!(staged > 0);

        // With no delta log, mutations still bump the epoch, so a drain
        // must invalidate staged snapshots — it just has no events to hand
        // back (the from-scratch path).
        be.insert_row(&[0, 0, 1]).unwrap();
        let (events, epoch) = s.drain_deltas();
        assert!(events.is_empty(), "no log enabled → no events");
        assert_eq!(epoch, be.table_epoch());
        assert_eq!(s.staged_mem_bytes(), 0);
        assert_eq!(s.stats().deltas_applied, 0);
    }

    /// Every entry bound a build records is handed to the batch that
    /// schedules its node: none is left behind.
    #[test]
    fn a_build_leaves_no_entry_bound_behind() {
        let be = backend(24, MiddlewareConfig::default());
        let mut s = Session::open(be).unwrap();
        let root = s.root_request(NodeId(0));
        s.enqueue(root.clone()).unwrap();
        let out = s.process_next_batch().unwrap();
        for (id, edge) in [
            (1, Pred::Eq { col: 0, value: 0 }),
            (2, Pred::NotEq { col: 0, value: 0 }),
        ] {
            let child = CcRequest {
                lineage: root.lineage.child(NodeId(id), edge),
                parent_rows: out[0].cc.total(),
                ..root.clone()
            };
            s.enqueue(child).unwrap();
        }
        assert_eq!(s.parents.pending_bounds(), 2);
        s.run_to_completion(|_| Vec::new()).unwrap();
        assert_eq!(s.parents.pending_bounds(), 0);
    }

    /// A session over 80 rows whose root's exact scan staged them in
    /// memory, and the root's request.
    fn staged_root(config: MiddlewareConfig) -> (Session, CcRequest) {
        let mut s = Session::open(backend(80, config)).unwrap();
        let root = s.root_request(NodeId(0));
        s.enqueue(root.clone()).unwrap();
        s.process_next_batch().unwrap();
        assert_eq!(s.stats().memory_sets_created, 1);
        (s, root)
    }

    /// The root's child on `a = value`: 20 of its 80 rows.
    fn child_on_a(root: &CcRequest, value: u16) -> CcRequest {
        let edge = Pred::Eq { col: 0, value };
        CcRequest {
            lineage: root.lineage.child(NodeId(1 + u64::from(value)), edge),
            attrs: vec![1],
            parent_cards: vec![3],
            rows: 20,
            parent_rows: 80,
            ..root.clone()
        }
    }

    /// A memory set shrinks for the requests still waiting on it too: the
    /// first of two single-node batches moves the 40 rows both children
    /// hold to the front of the 80-row set, and the second reads only
    /// those, then keeps its own 20.
    #[test]
    fn a_set_shrinks_for_the_requests_waiting_on_it() {
        let cfg = MiddlewareConfig::builder().max_batch_nodes(Some(1)).build();
        let (mut s, root) = staged_root(cfg);
        let children = [child_on_a(&root, 0), child_on_a(&root, 1)];
        for child in &children {
            s.enqueue(child.clone()).unwrap();
        }
        let row_bytes = CodeWidth::One.row_bytes(3);
        let mut read = 0;
        for (batch, (compacted, staged)) in [(40, 40), (60, 20)].into_iter().enumerate() {
            let out = s.process_next_batch().unwrap();
            let scanned = s.stats().memory_rows_read - read;
            read = s.stats().memory_rows_read;
            assert_eq!(scanned, [80, 40][batch], "batch {batch} read the set");
            assert_eq!(s.stats().memory_rows_compacted, compacted, "batch {batch}");
            assert_eq!(s.staged_mem_bytes(), staged * row_bytes, "batch {batch}");
            // Each child counts what the server counts for it: the second
            // from the compacted rows alone.
            let want = s.cc_via_sql_baseline(&children[batch]).unwrap();
            assert_eq!(*out[0].cc, want, "batch {batch}");
        }
        assert_eq!(s.stats().memory_rows_read, 120);
        assert_eq!(s.stats().memory_scans, 2);
        s.assert_shadow_accounting();
    }

    /// Moving the kept rows must pay for itself on the next scan: a batch
    /// taking more than half of the set (60 of 80 rows) leaves it whole.
    #[test]
    fn a_batch_taking_over_half_the_set_leaves_it_whole() {
        let (mut s, root) = staged_root(MiddlewareConfig::default());
        for value in 0..3 {
            s.enqueue(child_on_a(&root, value)).unwrap();
        }
        let out = s.process_next_batch().unwrap();
        assert_eq!(out.len(), 3);
        assert_eq!(s.stats().memory_scans, 1);
        assert_eq!(s.stats().memory_rows_compacted, 0);
        assert_eq!(s.staged_mem_bytes(), 80 * CodeWidth::One.row_bytes(3));
    }

    /// A catalog entry is never rewritten: other sessions may read it.
    #[test]
    fn a_catalog_shared_set_is_never_compacted() {
        let cfg = MiddlewareConfig::builder().shared_staging(true).build();
        let (mut s, root) = staged_root(cfg);
        assert_eq!(s.backend.catalog().stats().publishes, 1);
        s.enqueue(child_on_a(&root, 0)).unwrap();
        s.process_next_batch().unwrap();
        assert_eq!(s.stats().memory_scans, 1);
        assert_eq!(s.stats().memory_rows_compacted, 0);
        assert_eq!(s.staged_mem_bytes(), 80 * CodeWidth::One.row_bytes(3));
    }
}
