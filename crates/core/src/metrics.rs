//! Middleware-side metrics.
//!
//! Complements [`scaleclass_sqldb::DbStats`] (server-side work) with
//! counters for everything that happens inside the middleware: staging
//! traffic, scan mix, scheduling rounds, fallbacks. Together they make the
//! shape of every figure assertable.

/// Counters accumulated by one middleware instance. Plain `u64`s — the
/// middleware is single-writer; the concurrent front-end snapshots through
/// the middleware thread.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MiddlewareStats {
    /// Scheduling rounds executed (one per `process_next_batch`).
    pub rounds: u64,
    /// Requests fulfilled.
    pub requests_served: u64,
    /// Batches that scanned the database server. A batch that reads
    /// nothing (`unread_batches`) opens no cursor and is not one.
    pub server_scans: u64,
    /// Batches that scanned a middleware staging file; an unread batch
    /// scheduled on one reads none of it and is not one.
    pub file_scans: u64,
    /// Batches that scanned a memory-staged data set; an unread batch
    /// scheduled on one reads none of it and is not one.
    pub memory_scans: u64,
    /// Batches whose plans settle every node from the parents' tables
    /// without a row (DESIGN.md §12b "A batch that reads nothing"): each
    /// opened no source — no cursor, memory set or staged file, no extent
    /// reader — and is counted in none of `server_scans`, `file_scans`,
    /// `memory_scans` or `sharded_file_scans`. Deterministic for a given
    /// client, as `sliced_nodes` is.
    pub unread_batches: u64,
    /// Rows read from staging files.
    pub file_rows_read: u64,
    /// Bytes read from staging files.
    pub file_bytes_read: u64,
    /// Rows written to staging files.
    pub file_rows_written: u64,
    /// Bytes written to staging files (row payload only — `rows × row
    /// width` — so the figure stays comparable across file formats).
    pub file_bytes_written: u64,
    /// Physical bytes written to staging files, including the extent
    /// format's file header and per-extent header/CRC-footer overhead.
    pub file_bytes_physical_written: u64,
    /// Staging files created.
    pub files_created: u64,
    /// Staging files deleted.
    pub files_deleted: u64,
    /// Rows scanned from memory-staged data.
    pub memory_rows_read: u64,
    /// Memory data sets created.
    pub memory_sets_created: u64,
    /// Memory data sets evicted.
    pub memory_sets_evicted: u64,
    /// Memory sets sacrificed mid-scan to make room for counts tables.
    pub pressure_evictions: u64,
    /// Memory sets evicted at a batch boundary because a session-count
    /// change (or a shared-staging attach) left more bytes staged than the
    /// session's current lease.
    pub lease_shrink_evictions: u64,
    /// Rows copied into new middleware memory sets.
    pub memory_rows_staged: u64,
    /// Rows a memory set kept when a scan compacted it in place to the
    /// rows its batch took (`StagingManager::compact_mem`): each moves
    /// once inside the set's buffer.
    pub memory_rows_compacted: u64,
    /// Nodes that hit the §4.1.1 dynamic switch to SQL-based counting.
    pub sql_fallbacks: u64,
    /// Auxiliary structures built (§4.3.3).
    pub aux_builds: u64,
    /// Scans serviced through an auxiliary structure.
    pub aux_scans: u64,
    /// Peak of (live CC bytes + memory-staged bytes) observed.
    pub peak_memory_bytes: u64,
    /// Staged-file scans served by sharded extent readers, each reader
    /// thread reading and decoding its own extent range: the exact file
    /// scans whose budget proof held under `scan_workers > 1`. The only
    /// scans that run on more than one thread.
    pub sharded_file_scans: u64,
    /// Rows fed through counting scans (serial or sharded).
    pub scan_rows: u64,
    /// Source blocks counting scans read — wire fetches and memory sets
    /// cut at `scan_block_rows`, staged-file extents — whichever path
    /// (the serial loop or sharded readers) counts their rows.
    pub scan_blocks: u64,
    /// Wall-clock nanoseconds spent inside counting scans. Timing, not a
    /// logical counter: it varies run to run and must be excluded from
    /// determinism comparisons (rows/sec = `scan_rows` / `scan_nanos`).
    pub scan_nanos: u64,
    /// Most rows any single extent reader counted in one sharded file scan
    /// (maximum over scans) — `scan_rows / (readers × this)` approximates
    /// reader occupancy. Serial scans leave this 0.
    pub scan_worker_rows_max: u64,
    /// Scheduled nodes counted on the dense flat-array backend.
    pub dense_nodes: u64,
    /// Scheduled nodes counted on the sparse BTreeMap backend.
    pub sparse_nodes: u64,
    /// Wall-clock nanoseconds sharded extent readers spent inside the
    /// row-counting kernel (per-block counting loops — excludes extent
    /// read/decode). Serial scans leave this 0; use `scan_nanos` for
    /// whole-scan throughput. Timing — excluded from determinism
    /// comparisons like `scan_nanos`.
    pub kernel_nanos: u64,
    /// Selections counted through the block kernel: one per (node, block)
    /// pair whose selection the route-then-count pass counted. A derived
    /// node (`derived_nodes`) is counted in no block, so contributes none.
    /// Pipeline-shape counter: varies with worker count and block size, so
    /// determinism comparisons exclude it alongside `scan_blocks`.
    pub blocks_counted: u64,
    /// Rows the batched kernel re-routed through the exact per-row path —
    /// either a whole block whose growth bound could not clear the memory
    /// budget, or one selecting rows for a dense node whose layout the
    /// scan's range certificate escapes. Pipeline-shape counter, excluded
    /// like `blocks_counted`.
    pub block_fallback_rows: u64,
    /// Nanoseconds the block pass spent validating a block before counting
    /// it: the sum of its selections' growth bounds, read against each
    /// node's `CountsTable::covers` of the scan's range certificate, which
    /// the scan settles once when it certifies.
    /// Timing — excluded from determinism comparisons like `kernel_nanos`.
    pub kernel_validate_nanos: u64,
    /// Nanoseconds the block kernel spent counting selections: reading the
    /// selected codes in place (which an untimed gather did before PR 21)
    /// and incrementing — dense slots and class tally, or sparse run
    /// detection — plus the time spent deriving tables (`derived_nodes`).
    /// Timing — excluded from determinism comparisons like `kernel_nanos`.
    pub kernel_accumulate_nanos: u64,
    /// Nodes whose counts table a batch derived after its scan, as its
    /// parent's exact table minus the counted sibling's (DESIGN.md §12b),
    /// instead of counting it. Deterministic for a given client: a client
    /// whose child lineages are not extended from the parent's record
    /// derives nothing.
    pub derived_nodes: u64,
    /// Rows whose counting derivation skipped: the totals of the derived
    /// tables. Each would have cost one increment per attribute.
    pub derived_rows: u64,
    /// Rows the server never shipped because only a derived node wanted
    /// them: the totals of the derived tables whose nodes a server scan
    /// left out of its pushed-down filter (no tee read their rows), or
    /// whose server batch read nothing (`unread_batches`). Part of
    /// `derived_rows`; a staged source or the `push_filters(false)`
    /// ablation still reads them in a batch that reads, so there it adds
    /// nothing.
    pub derived_rows_unshipped: u64,
    /// Planned derivations the scan refused — its budget proof failed, the
    /// table's epoch moved, or a layout did not cover its range
    /// certificate — and counted instead.
    pub derivations_refused: u64,
    /// Nodes a batch counted only in the classes their complement in the
    /// parent holds, then completed from the parent's exact table in every
    /// other class (DESIGN.md §12b). Deterministic for a given client, as
    /// `derived_nodes` is.
    pub sliced_nodes: u64,
    /// Rows the server never shipped because they lie in a class a sliced
    /// node copies from its parent: the copied rows of the sliced nodes a
    /// server scan's pushed-down filter cut to the classes they count (no
    /// tee read their rows), every class of them in a server batch that
    /// read nothing. With `derived_rows_unshipped`, exactly the rows a
    /// client that never derives nor slices ships more (with filters
    /// pushed down).
    pub sliced_rows_unshipped: u64,
    /// Pinned parents whose two children — a binary split's — the session
    /// scheduled in different batches, so neither could be derived from the
    /// other.
    pub split_pairs: u64,
    /// Server statistics attributable to building auxiliary structures
    /// (so experiments can report the "idealized" §5.2.5 number that
    /// neglects index build cost).
    pub aux_build_cost: scaleclass_sqldb::StatsSnapshot,
    /// Nodes whose counts were served from a block-level sample
    /// (DESIGN.md §13). Exact-mode runs leave this 0.
    pub sampled_nodes: u64,
    /// Sampled nodes the client escalated back to an exact scan because
    /// the winning split's confidence interval overlapped the runner-up's.
    pub escalated_nodes: u64,
    /// Rows actually scanned by sampled batches (the admitted blocks).
    pub sampled_rows_scanned: u64,
    /// Rows sampled batches *skipped* relative to an exact scan of the
    /// same source — the headline saving the mode exists for.
    pub exact_rows_saved: u64,
    /// Signed row events drained from the server delta log and applied by
    /// the incremental-maintenance path (DESIGN.md §15). From-scratch
    /// builds leave this 0.
    pub deltas_applied: u64,
    /// Tree nodes whose subtree was re-split during maintenance because
    /// the accumulated delta magnitude could have flipped the node's
    /// winner-vs-runner-up margin (or the delta stream demanded it: an
    /// unroutable value, an emptied child, a purity/row-floor change).
    pub nodes_resplit: u64,
    /// Staged artifacts and shared-catalog entries invalidated because
    /// their stamped epoch no longer matched the table's (DESIGN.md §15's
    /// epoch rule: staged row sets are snapshots; any mutation stales
    /// them).
    pub epochs_invalidated: u64,
}

impl MiddlewareStats {
    /// All-zero counters.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record a memory high-water observation.
    pub fn observe_memory(&mut self, bytes: u64) {
        self.peak_memory_bytes = self.peak_memory_bytes.max(bytes);
    }

    /// A scalar "simulated middleware cost" under the default (modern)
    /// weights: staging-file rows are cheaper than wire rows, memory rows
    /// cheapest, and every file creation pays a fixed metadata/seek
    /// overhead (the "price paid for unnecessarily partitioning the file"
    /// of §4.3.2 — without it, the file-per-node configuration of Figure 6
    /// would look free).
    pub fn simulated_cost(&self) -> u64 {
        self.simulated_cost_with(&scaleclass_sqldb::stats::CostWeights::modern())
    }

    /// Simulated middleware cost under explicit weights (see
    /// [`scaleclass_sqldb::stats::CostWeights`]).
    pub fn simulated_cost_with(&self, w: &scaleclass_sqldb::stats::CostWeights) -> u64 {
        self.file_rows_read
            .saturating_mul(w.file_row_read)
            .saturating_add(self.file_rows_written.saturating_mul(w.file_row_written))
            .saturating_add(self.memory_rows_read.saturating_mul(w.mem_row))
            .saturating_add(self.memory_rows_staged.saturating_mul(w.mem_row))
            .saturating_add(self.memory_rows_compacted.saturating_mul(w.mem_row))
            .saturating_add(self.files_created.saturating_mul(w.file_created))
    }
}

/// Counters kept by the [`crate::catalog::StagingCatalog`] that shares
/// staged data sets across sessions. Logical counters only — entry sizes,
/// reader counts, and per-session charges are readable from the catalog
/// itself and recounted by its shadow accounting.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CatalogStats {
    /// Data sets published into the catalog (first session to stage a
    /// signature pays for the build and registers it here).
    pub publishes: u64,
    /// Cache hits: probes or publish races that attached to an entry some
    /// other build already paid for.
    pub hits: u64,
    /// Entries reclaimed after their last reader detached.
    pub reclaims: u64,
}

/// Counters kept by the [`crate::session::BudgetArbiter`] that leases
/// slices of the global `memory_budget_bytes` to live sessions. Logical
/// counters only — lease *sizes* are readable from the lease handles and
/// asserted directly by shadow accounting.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ArbiterStats {
    /// Leases granted to opening sessions.
    pub leases_granted: u64,
    /// Leases reclaimed from closing sessions.
    pub leases_reclaimed: u64,
    /// Fair-share recomputations (one per grant and one per reclaim while
    /// any session remains live).
    pub rebalances: u64,
}

/// I/O + decode counters for one scan worker over staged extent files.
///
/// Unlike [`MiddlewareStats`] these are *physical* numbers: `read_bytes`
/// includes extent headers and CRC footers, and `decode_ns` is wall-clock
/// time spent verifying each extent's framing and checksum and decoding
/// its payload into one code vector per column (file I/O excluded).
/// Timing fields must be excluded from determinism comparisons.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WorkerScanStats {
    /// Physical bytes this worker read from the staging file.
    pub read_bytes: u64,
    /// Nanoseconds spent verifying extents and decoding them into columns.
    pub decode_ns: u64,
    /// Rows this worker decoded.
    pub rows: u64,
    /// Extents this worker decoded.
    pub extents: u64,
}

/// Per-worker staged-file scan statistics, accumulated by worker index
/// across every extent-format file scan of a middleware session. Serial
/// extent scans contribute a single worker entry (index 0); sharded scans
/// contribute one entry per reader thread. Kept separate from
/// [`MiddlewareStats`] so that struct stays `Copy` for cheap snapshots.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ScanStats {
    /// Accumulated counters, indexed by scan-worker id.
    pub workers: Vec<WorkerScanStats>,
}

impl ScanStats {
    /// Fold one scan's per-worker counters into the running totals.
    pub fn absorb(&mut self, per_worker: &[WorkerScanStats]) {
        if self.workers.len() < per_worker.len() {
            self.workers
                .resize(per_worker.len(), WorkerScanStats::default());
        }
        for (acc, w) in self.workers.iter_mut().zip(per_worker) {
            acc.read_bytes = acc.read_bytes.saturating_add(w.read_bytes);
            acc.decode_ns = acc.decode_ns.saturating_add(w.decode_ns);
            acc.rows = acc.rows.saturating_add(w.rows);
            acc.extents = acc.extents.saturating_add(w.extents);
        }
    }

    /// Total physical bytes read across all workers.
    pub fn total_read_bytes(&self) -> u64 {
        self.workers.iter().map(|w| w.read_bytes).sum()
    }

    /// Total rows decoded across all workers.
    pub fn total_rows(&self) -> u64 {
        self.workers.iter().map(|w| w.rows).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scan_stats_absorb_accumulates_by_worker_index() {
        let mut s = ScanStats::default();
        s.absorb(&[WorkerScanStats {
            read_bytes: 100,
            decode_ns: 5,
            rows: 10,
            extents: 1,
        }]);
        s.absorb(&[
            WorkerScanStats {
                read_bytes: 50,
                decode_ns: 1,
                rows: 5,
                extents: 1,
            },
            WorkerScanStats {
                read_bytes: 70,
                decode_ns: 2,
                rows: 7,
                extents: 2,
            },
        ]);
        assert_eq!(s.workers.len(), 2);
        assert_eq!(s.workers[0].read_bytes, 150);
        assert_eq!(
            s.workers[0].decode_ns, 6,
            "decode time accumulates per worker"
        );
        assert_eq!(s.workers[1].rows, 7);
        assert_eq!(s.total_read_bytes(), 220);
        assert_eq!(s.total_rows(), 22);
    }

    #[test]
    fn peak_memory_is_monotone() {
        let mut s = MiddlewareStats::new();
        s.observe_memory(100);
        s.observe_memory(40);
        assert_eq!(s.peak_memory_bytes, 100);
        s.observe_memory(250);
        assert_eq!(s.peak_memory_bytes, 250);
    }

    #[test]
    fn cost_prefers_memory_over_file() {
        let file = MiddlewareStats {
            file_rows_read: 100,
            ..Default::default()
        };
        let memory = MiddlewareStats {
            memory_rows_read: 100,
            ..Default::default()
        };
        assert!(file.simulated_cost() > memory.simulated_cost());
    }
}
