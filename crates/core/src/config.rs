//! Middleware configuration.

use std::path::PathBuf;

/// How middleware *file* staging behaves — the four configurations of the
/// Figure 6 experiment (§5.2.2), plus off.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FileStagingPolicy {
    /// No file staging.
    Disabled,
    /// Configuration (1): a new middleware file (cache) is created for each
    /// active node of the tree.
    PerNode,
    /// Configuration (2): one staging file for the entire tree, repeatedly
    /// scanned, never split.
    Singleton,
    /// Configuration (3): one staging file, split when the fraction of the
    /// file's rows relevant to the nodes being processed drops below
    /// `split_threshold` (the paper uses 0.5).
    Hybrid {
        /// Split when the relevant fraction of the source file drops
        /// below this (the paper uses 0.5).
        split_threshold: f64,
    },
}

impl FileStagingPolicy {
    /// Is any form of file staging active?
    pub fn enabled(&self) -> bool {
        !matches!(self, FileStagingPolicy::Disabled)
    }
}

/// Which auxiliary server-side structure (§4.3.3) the middleware uses when
/// the relevant data set shrinks. `Off` is the paper's recommended setting;
/// the others exist to reproduce the §5.2.5 negative result.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AuxMode {
    /// Plain filtered sequential scans only.
    Off,
    /// (a) Copy the relevant subset into a server temp table.
    TempTable,
    /// (b) Copy TIDs and fetch through the TID set (index-join access).
    TidJoin,
    /// (c) Keyset cursor + stored-procedure residual filter.
    Keyset,
}

/// Which counts-table size estimator the scheduler uses (§4.2.1). The
/// paper adopts the independence estimate and mentions two pessimistic
/// upper bounds; `Pessimistic` is kept for the estimator ablation bench.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum EstimatorKind {
    /// `Est_cc(n) = (|n| / |p|) · Σ_j card(p, A_j)` — the paper's choice.
    #[default]
    Independence,
    /// The unscaled upper bound `Σ_j card(p, A_j)` (assume the child's
    /// counts table is as large as the parent's).
    Pessimistic,
}

/// Tuning knobs for the middleware. Build with [`MiddlewareConfig::builder`].
#[derive(Debug, Clone)]
pub struct MiddlewareConfig {
    /// Total middleware memory in bytes, shared by counts tables and
    /// memory-staged data (the x-axis of Figures 4–6).
    pub memory_budget_bytes: u64,
    /// File staging policy (Figure 6 configurations).
    pub file_policy: FileStagingPolicy,
    /// Stage data into middleware memory when budget allows ("Data
    /// Caching" in Figures 4, 5, 8).
    pub memory_caching: bool,
    /// Rows per simulated wire round trip on server cursors.
    pub wire_batch_rows: usize,
    /// Directory for staged files. `None` → a fresh directory under the
    /// system temp dir, removed when the middleware is dropped.
    pub staging_dir: Option<PathBuf>,
    /// Auxiliary server-side access structures (§4.3.3 experiment).
    pub aux_mode: AuxMode,
    /// Build an auxiliary structure only when the scheduled nodes' relevant
    /// fraction of the table is below this (the paper observes the technique
    /// only applies "when the relevant data set has shrunk to a small
    /// percentage of the given file (around 10%)").
    pub aux_threshold: f64,
    /// Ablation: cap the number of nodes per scheduled batch (`None` =
    /// budget-limited only, the paper's behaviour). `Some(1)` disables the
    /// single-scan batching entirely.
    pub max_batch_nodes: Option<usize>,
    /// Ablation: push the §4.3.1 union filter to the server (`true`, the
    /// paper's behaviour) or ship everything and filter in the middleware.
    pub push_filters: bool,
    /// Ablation: order eligible nodes by smallest estimated counts table
    /// (Rule 3, `true`) or FIFO.
    pub rule3_smallest_first: bool,
    /// Counts-table size estimator (§4.2.1).
    pub estimator: EstimatorKind,
    /// Ablation: admit batches by the raw estimator instead of the
    /// guaranteed upper bound. This is the paper's literal behaviour; at
    /// scaled-down budgets it triggers §4.1.1 fallback storms (see
    /// DESIGN.md §8) — measurable via `experiments ablate-admission`.
    pub admit_by_estimate: bool,
    /// Rows per block of a counting scan: where memory sets and wire
    /// fetches are cut for the block kernel. A staged file's blocks are
    /// its extents (`stage_extent_rows`).
    pub scan_block_rows: usize,
    /// Rows per extent in staged middleware files. Staged files are
    /// written as fixed-size extents (columnar blocks + CRC footer, see
    /// `crates/core/src/staging.rs`): an extent is the unit the CRC
    /// checks and the block a file scan counts. Smaller extents pay more
    /// header/footer overhead. Defaults to [`DEFAULT_EXTENT_ROWS`].
    pub stage_extent_rows: usize,
    /// Cap on the *physical* slot-array size (`Σ card × classes × 8`
    /// bytes, per node) below which a scheduled node's counts table uses
    /// the dense flat-array backend instead of the sparse BTreeMap; `0`
    /// disables dense counting entirely. Purely physical — the scheduler's
    /// budget accounting stays entry-modelled either way (DESIGN.md §8c).
    /// Defaults to [`DEFAULT_CC_DENSE_MAX_BYTES`]: the sparse backend is
    /// the spill target and the oracle the dense≡sparse suites pin through
    /// the builder, not a run-time mode.
    pub cc_dense_max_bytes: u64,
    /// Concurrent tree-build sessions the multi-client front-end
    /// ([`crate::concurrent::SessionPool`]) serves over one shared backend.
    /// Each live session leases a fair share (`memory_budget_bytes /
    /// sessions`, remainder spread one byte each over the earliest grants)
    /// from the [`crate::session::BudgetArbiter`]. `1` (the default) is
    /// the classic single-client middleware.
    pub sessions: usize,
    /// Share staged data sets across sessions through the backend's
    /// [`crate::catalog::StagingCatalog`]: the first session to stage a
    /// (node-path-predicate, mode) data set publishes it, later sessions
    /// attach copy-on-read instead of re-staging, and each live reader is
    /// charged an equal share of the entry's modelled bytes against its
    /// lease. Off by default — cross-session reuse makes per-session
    /// stats depend on sibling timing, so the deterministic bit-identity
    /// suites keep it off.
    pub shared_staging: bool,
    /// Incremental model maintenance over mutation deltas (DESIGN.md §15).
    /// When on, the session enables the server-side delta log for its
    /// table at open, staged artifacts and shared-catalog entries are
    /// stamped with the table epoch they were computed at (stale ones are
    /// invalidated rather than trusted), and `drain_deltas` becomes the
    /// hook the maintenance pass uses to pull signed row events. Off by
    /// default — and bit-identical to a build without the feature: no log
    /// is enabled, every epoch stays 0, and no maintenance path runs.
    pub deltas: bool,
}

/// Default rows per staged-file extent (≈ 400 KB of payload at the
/// experiments' 26-column arity): big enough to amortize the 16-byte
/// extent overhead, small enough that one CRC-checked extent is a block
/// the file scan counts in cache.
pub const DEFAULT_EXTENT_ROWS: usize = 8192;

/// Hard cap on extent size: the format stores row counts as `u32` and the
/// writer buffers one extent in memory.
const MAX_EXTENT_ROWS: usize = 1 << 20;

/// Default dense counts-table cap: 4 MiB of slots per node. The
/// experiments' widest node (26 columns × card ≈ 4 × 10 classes) needs
/// ~8 KB, so realistic nodes densify while genuinely high-cardinality
/// geometries stay sparse.
pub const DEFAULT_CC_DENSE_MAX_BYTES: u64 = 4 << 20;

impl Default for MiddlewareConfig {
    fn default() -> Self {
        MiddlewareConfig {
            memory_budget_bytes: 64 * 1024 * 1024,
            file_policy: FileStagingPolicy::Disabled,
            memory_caching: true,
            wire_batch_rows: scaleclass_sqldb::wire::DEFAULT_BATCH_ROWS,
            staging_dir: None,
            aux_mode: AuxMode::Off,
            aux_threshold: 0.10,
            max_batch_nodes: None,
            push_filters: true,
            rule3_smallest_first: true,
            estimator: EstimatorKind::default(),
            admit_by_estimate: false,
            scan_block_rows: 4096,
            stage_extent_rows: DEFAULT_EXTENT_ROWS,
            cc_dense_max_bytes: DEFAULT_CC_DENSE_MAX_BYTES,
            sessions: 1,
            shared_staging: false,
            deltas: false,
        }
    }
}

impl MiddlewareConfig {
    /// Start building a configuration from the defaults.
    pub fn builder() -> MiddlewareConfigBuilder {
        MiddlewareConfigBuilder {
            config: MiddlewareConfig::default(),
        }
    }
}

/// Builder for [`MiddlewareConfig`].
#[derive(Debug, Clone)]
pub struct MiddlewareConfigBuilder {
    config: MiddlewareConfig,
}

impl MiddlewareConfigBuilder {
    /// Middleware memory budget in bytes.
    pub fn memory_budget_bytes(mut self, bytes: u64) -> Self {
        self.config.memory_budget_bytes = bytes;
        self
    }

    /// Middleware memory budget in megabytes (the unit the figures use).
    #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
    pub fn memory_budget_mb(self, mb: f64) -> Self {
        // Float→int `as` saturates (and maps NaN to 0) since Rust 1.45, so a
        // nonsensical argument degrades to an empty/unbounded budget rather
        // than wrapping.
        // analyze:allow(accounting-arith): f64 MB → u64 bytes needs a float
        // product and a saturating `as` cast; there is no checked_* for f64.
        let bytes = (mb * 1024.0 * 1024.0) as u64;
        self.memory_budget_bytes(bytes)
    }

    /// File staging policy (Figure 6 configurations).
    pub fn file_policy(mut self, policy: FileStagingPolicy) -> Self {
        self.config.file_policy = policy;
        self
    }

    /// Enable/disable staging data into middleware memory.
    pub fn memory_caching(mut self, on: bool) -> Self {
        self.config.memory_caching = on;
        self
    }

    /// Rows per simulated wire round trip (min 1).
    pub fn wire_batch_rows(mut self, rows: usize) -> Self {
        self.config.wire_batch_rows = rows.max(1);
        self
    }

    /// Directory for staged files (kept on disk; our files are still
    /// removed on drop).
    pub fn staging_dir(mut self, dir: impl Into<PathBuf>) -> Self {
        self.config.staging_dir = Some(dir.into());
        self
    }

    /// Auxiliary server-structure mode (§4.3.3 experiment).
    pub fn aux_mode(mut self, mode: AuxMode) -> Self {
        self.config.aux_mode = mode;
        self
    }

    /// Relevant-fraction threshold below which aux structures are
    /// built (clamped to `[0, 1]`).
    pub fn aux_threshold(mut self, threshold: f64) -> Self {
        self.config.aux_threshold = threshold.clamp(0.0, 1.0);
        self
    }

    /// Ablation: cap nodes per scheduled batch.
    pub fn max_batch_nodes(mut self, cap: Option<usize>) -> Self {
        self.config.max_batch_nodes = cap.map(|c| c.max(1));
        self
    }

    /// Ablation: push the §4.3.1 union filter to the server.
    pub fn push_filters(mut self, on: bool) -> Self {
        self.config.push_filters = on;
        self
    }

    /// Ablation: Rule 3 smallest-CC-first ordering vs FIFO.
    pub fn rule3_smallest_first(mut self, on: bool) -> Self {
        self.config.rule3_smallest_first = on;
        self
    }

    /// Counts-table estimator used for Rule 3 ordering.
    pub fn estimator(mut self, kind: EstimatorKind) -> Self {
        self.config.estimator = kind;
        self
    }

    /// Ablation: admit by raw Est_cc instead of the hard bound.
    pub fn admit_by_estimate(mut self, on: bool) -> Self {
        self.config.admit_by_estimate = on;
        self
    }

    /// Retired with the sharded extent readers (DESIGN.md §8a): every
    /// scan counts on the session thread, and this sets nothing. Only
    /// `benchmark/` still calls it, with `1`; ROADMAP item 1(g) removes
    /// that call, after which a change that touches only `crates/` deletes
    /// the method.
    ///
    /// # Panics
    ///
    /// On any `workers` but `1`, so a caller that still asks for readers
    /// fails loudly instead of getting a serial scan.
    pub fn scan_workers(self, workers: usize) -> Self {
        assert!(
            workers == 1,
            "sharded extent readers were removed; only 1 is accepted, got {workers}"
        );
        self
    }

    /// Rows per block of every counting scan (min 1).
    pub fn scan_block_rows(mut self, rows: usize) -> Self {
        self.config.scan_block_rows = rows.max(1);
        self
    }

    /// Rows per staged-file extent (clamped to `1 ..= 2^20`).
    pub fn stage_extent_rows(mut self, rows: usize) -> Self {
        self.config.stage_extent_rows = rows.clamp(1, MAX_EXTENT_ROWS);
        self
    }

    /// Physical-size cap for the dense counts backend (`0` = sparse only).
    pub fn cc_dense_max_bytes(mut self, bytes: u64) -> Self {
        self.config.cc_dense_max_bytes = bytes;
        self
    }

    /// Concurrent sessions served by the pool front-end (min 1).
    pub fn sessions(mut self, n: usize) -> Self {
        self.config.sessions = n.max(1);
        self
    }

    /// Share staged data sets across sessions via the backend catalog.
    pub fn shared_staging(mut self, on: bool) -> Self {
        self.config.shared_staging = on;
        self
    }

    /// Retired with the row-at-a-time counting path (DESIGN.md §12): every
    /// block is counted through the kernel, or, when it misses its gate,
    /// row by row through the exact one-row step, and this sets nothing. Only
    /// `benchmark/` still calls it, with `true`; ROADMAP item 1(g) removes
    /// that call, after which a change that touches only `crates/` deletes
    /// the method.
    ///
    /// # Panics
    ///
    /// On `false`, so a caller that still asks for the row path fails
    /// loudly instead of getting the kernel.
    pub fn batch_kernel(self, on: bool) -> Self {
        assert!(
            on,
            "the row-at-a-time counting path was removed; only true is accepted"
        );
        self
    }

    /// Retired with sampled counting (DESIGN.md §13): every build counts
    /// exactly, and this sets nothing. Only `benchmark/` still calls it,
    /// with `0.0`; ROADMAP item 1(g) removes that call, after which a change
    /// that touches only `crates/` deletes the method.
    ///
    /// # Panics
    ///
    /// On any `fraction` but `0.0`, so a caller that still asks for a
    /// sample fails loudly instead of getting an exact build.
    pub fn sampled_counting(self, fraction: f64) -> Self {
        assert!(
            fraction == 0.0,
            "sampled counting was removed; only 0.0 is accepted, got {fraction}"
        );
        self
    }

    /// Incremental maintenance over mutation deltas (epoch stamping +
    /// delta log + `drain_deltas` hook).
    pub fn deltas(mut self, on: bool) -> Self {
        self.config.deltas = on;
        self
    }

    /// Finish building.
    pub fn build(self) -> MiddlewareConfig {
        self.config
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every field of the default, named by destructuring so a new field
    /// cannot join the config without a pinned default here.
    #[test]
    fn defaults_are_sane() {
        let MiddlewareConfig {
            memory_budget_bytes,
            file_policy,
            memory_caching,
            wire_batch_rows,
            staging_dir,
            aux_mode,
            aux_threshold,
            max_batch_nodes,
            push_filters,
            rule3_smallest_first,
            estimator,
            admit_by_estimate,
            scan_block_rows,
            stage_extent_rows,
            cc_dense_max_bytes,
            sessions,
            shared_staging,
            deltas,
        } = MiddlewareConfig::default();
        assert_eq!(memory_budget_bytes, 64 << 20);
        assert_eq!(file_policy, FileStagingPolicy::Disabled);
        assert!(memory_caching);
        assert_eq!(wire_batch_rows, scaleclass_sqldb::wire::DEFAULT_BATCH_ROWS);
        assert_eq!(staging_dir, None);
        assert_eq!(aux_mode, AuxMode::Off);
        assert_eq!(aux_threshold, 0.10);
        assert_eq!(max_batch_nodes, None);
        assert!(push_filters);
        assert!(rule3_smallest_first);
        assert_eq!(estimator, EstimatorKind::Independence);
        assert!(!admit_by_estimate);
        assert_eq!(scan_block_rows, 4096);
        assert_eq!(stage_extent_rows, DEFAULT_EXTENT_ROWS);
        assert_eq!(cc_dense_max_bytes, DEFAULT_CC_DENSE_MAX_BYTES);
        assert_eq!(sessions, 1);
        assert!(!shared_staging);
        assert!(!deltas);
    }

    #[test]
    fn builder_sets_fields() {
        let c = MiddlewareConfig::builder()
            .memory_budget_mb(5.0)
            .file_policy(FileStagingPolicy::Hybrid {
                split_threshold: 0.5,
            })
            .memory_caching(false)
            .wire_batch_rows(0)
            .aux_mode(AuxMode::Keyset)
            .aux_threshold(2.0)
            .build();
        assert_eq!(c.memory_budget_bytes, 5 * 1024 * 1024);
        assert!(c.file_policy.enabled());
        assert!(!c.memory_caching);
        assert_eq!(c.wire_batch_rows, 1, "clamped to at least one row");
        assert_eq!(c.aux_threshold, 1.0, "clamped to [0,1]");
    }

    #[test]
    fn scan_block_rows_knob_is_clamped() {
        let c = MiddlewareConfig::builder().scan_block_rows(0).build();
        assert_eq!(c.scan_block_rows, 1);
        let c = MiddlewareConfig::builder().scan_block_rows(1024).build();
        assert_eq!(c.scan_block_rows, 1024);
    }

    #[test]
    fn scan_workers_one_sets_nothing() {
        let c = MiddlewareConfig::builder().scan_workers(1).build();
        assert_eq!(
            format!("{c:?}"),
            format!("{:?}", MiddlewareConfig::default()),
            "every field stays at its default"
        );
    }

    #[test]
    #[should_panic(expected = "sharded extent readers were removed")]
    fn scan_workers_refuses_readers() {
        let _ = MiddlewareConfig::builder().scan_workers(2);
    }

    #[test]
    fn extent_rows_knob_is_clamped() {
        assert_eq!(
            MiddlewareConfig::builder()
                .stage_extent_rows(0)
                .build()
                .stage_extent_rows,
            1
        );
        assert_eq!(
            MiddlewareConfig::builder()
                .stage_extent_rows(usize::MAX)
                .build()
                .stage_extent_rows,
            MAX_EXTENT_ROWS
        );
        assert_eq!(
            MiddlewareConfig::builder()
                .stage_extent_rows(100)
                .build()
                .stage_extent_rows,
            100
        );
    }

    #[test]
    fn dense_cap_knob() {
        let c = MiddlewareConfig::builder().cc_dense_max_bytes(0).build();
        assert_eq!(c.cc_dense_max_bytes, 0, "explicit zero disables dense");
        let c = MiddlewareConfig::builder()
            .cc_dense_max_bytes(1 << 16)
            .build();
        assert_eq!(c.cc_dense_max_bytes, 1 << 16);
    }

    #[test]
    fn sessions_knob_is_clamped() {
        let c = MiddlewareConfig::builder().sessions(0).build();
        assert_eq!(c.sessions, 1, "zero sessions means single-client");
        let c = MiddlewareConfig::builder().sessions(4).build();
        assert_eq!(c.sessions, 4);
    }

    #[test]
    fn shared_staging_knob() {
        let c = MiddlewareConfig::builder().shared_staging(true).build();
        assert!(c.shared_staging);
        let c = MiddlewareConfig::builder().shared_staging(false).build();
        assert!(!c.shared_staging, "builder can force it off");
    }

    #[test]
    fn batch_kernel_knob() {
        let c = MiddlewareConfig::builder().batch_kernel(true).build();
        assert_eq!(
            format!("{c:?}"),
            format!("{:?}", MiddlewareConfig::default()),
            "every field stays at its default"
        );
    }

    #[test]
    #[should_panic(expected = "row-at-a-time counting path was removed")]
    fn batch_kernel_refuses_the_row_path() {
        let _ = MiddlewareConfig::builder().batch_kernel(false);
    }

    #[test]
    fn sampled_counting_zero_sets_nothing() {
        let c = MiddlewareConfig::builder().sampled_counting(0.0).build();
        assert_eq!(
            format!("{c:?}"),
            format!("{:?}", MiddlewareConfig::default()),
            "every field stays at its default"
        );
    }

    #[test]
    #[should_panic(expected = "sampled counting was removed")]
    fn sampled_counting_refuses_a_sample() {
        let _ = MiddlewareConfig::builder().sampled_counting(0.1);
    }

    #[test]
    fn deltas_knob() {
        let c = MiddlewareConfig::builder().deltas(true).build();
        assert!(c.deltas);
        let c = MiddlewareConfig::builder().deltas(false).build();
        assert!(!c.deltas, "builder can force the from-scratch-only path");
    }

    #[test]
    fn policy_enabled_matrix() {
        assert!(!FileStagingPolicy::Disabled.enabled());
        assert!(FileStagingPolicy::PerNode.enabled());
        assert!(FileStagingPolicy::Singleton.enabled());
        assert!(FileStagingPolicy::Hybrid {
            split_threshold: 0.5
        }
        .enabled());
    }
}
