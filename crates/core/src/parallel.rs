//! Parallel counting pipeline for the execution module (§4.1.1 at scale).
//!
//! The serial [`BatchCounter`] routes every source row to its scheduled
//! node and counts it on the thread that owns the scan. Once routing is a
//! compiled walk (`scaleclass_sqldb::PredSet`) that single counting thread
//! is dominated by CC-table insertion, which is embarrassingly parallel
//! because counting is additive.
//!
//! [`ParallelScan`] splits a counting pass into three roles:
//!
//! * **Producer (the scan thread).** The session's one scan loop reads
//!   blocks from whatever source the batch was scheduled on (server
//!   cursor, extent file, memory set) and pushes them — row-major, or a
//!   decoded extent still in columns — into `RowSink::process_block`. The
//!   coordinator tees their rows where staging demands, re-packs them
//!   (transposing an extent on the way) into fixed-size row-major blocks
//!   ([`crate::config::MiddlewareConfig::scan_block_rows`]) and sends
//!   those through a *bounded* channel, so a fast producer cannot outrun
//!   slow workers by more than a few blocks (backpressure, not unbounded
//!   buffering).
//! * **Workers.** `scan_workers` threads pull blocks and count them into
//!   *private* per-node [`CountsTable`] shards — no locks on the hot path —
//!   through the same route-then-count pass as the serial counter
//!   (`executor::BlockPass`, over the batch's one shared router), falling
//!   back to rows under the same conditions. CC memory is reserved against
//!   a shared atomic so the middleware budget stays a global invariant
//!   (see below).
//! * **Merge.** After the producer finishes, shards are combined in
//!   worker-index order via [`CountsTable::merge`]. Counting is additive,
//!   so the merged tables are exactly what one serial pass over the same
//!   rows builds, regardless of how blocks were interleaved.
//!
//! ## Sharded extent readers (no producer at all)
//!
//! For batches sourced from an extent-format staging file
//! ([`crate::staging::ExtentLayout`]) the producer thread and the
//! producer→worker channel hop disappear entirely:
//! [`ParallelScan::scan_extent_file`] spawns `scan_workers` *reader*
//! threads, each owning a disjoint contiguous extent range. Every reader
//! seeks straight to its extents (offsets are computable because all
//! extents but the last are full-sized), verifies + decodes them locally,
//! and feeds the rows into its own counting shard — I/O, decode, and
//! counting all scale together. Merge order is keyed by the extent ranges:
//! readers are joined in range order, which is worker-index order, so the
//! shard merge is exactly as deterministic as the channel pipeline's, and
//! counting additivity makes the result bit-identical to a serial scan.
//! Extents decode straight into per-reader column buffers, and each is one
//! column-major block of the route-then-count pass; the reader's tees are
//! served from the pass's selection vectors (row by row only for a block
//! that took the row path).
//! Memory-staging tees are sharded the same way — each reader buffers the
//! matching rows of *its* range, and the buffers are concatenated in range
//! order, reproducing the serial staging byte order exactly. *File* tees
//! shard too: each reader spills its range's matching rows into a private
//! [`TeeSpool`] file, and [`ParallelScan::finish`] replays the spools in
//! range order through the node's real [`crate::staging::FileWriter`] —
//! range order is file order, so the staged file is byte-identical to the
//! serial tee's.
//!
//! ## What stays on the coordinator
//!
//! In the channel pipeline, staging tees (per-node file writers, memory
//! buffers, and the hybrid split file) remain on the producer thread:
//! files must be written in source row order to be byte-identical to the
//! serial path, and a single writer needs no synchronisation. The
//! coordinator routes a row (once, through the shared router) only when
//! the batch stages at all. Only batches writing the hybrid *split* file
//! keep using the channel pipeline ([`ParallelScan::can_shard`]): the
//! split file interleaves every scheduled node's rows, so slicing it per
//! reader would buy nothing over the single producer stream.
//!
//! ## Shard-aware budget enforcement
//!
//! Workers reserve every new CC entry — on the block path, the block's
//! whole growth bound up front, the surplus released after counting —
//! against a shared `AtomicU64`. When
//! the global reservation (plus staged bytes and staging buffers) exceeds
//! the budget, the worker first claims pressure evictions from the shared
//! evictable pool — sacrificing cached data sets exactly like the serial
//! path, at entry granularity — and only then flips the node's shared
//! fallback flag. Every worker observing the flag drops its shard for
//! that node and releases the bytes (self-cleanup); the middleware later
//! serves the node through the §4.1.1 SQL fallback, which is exact.
//!
//! Because shards are private, the same `(attr, value, class)` entry can
//! be reserved once per worker, so the parallel reservation is an *upper
//! bound* on the serial footprint: under pressure the parallel path may
//! fall back (or evict) slightly earlier than the serial path would.
//! Results stay exact either way — fallback counts come from the server —
//! and with any slack in the budget the two paths are bit-identical, which
//! is what the property suite pins down.
//!
//! Lock discipline: the eviction-pool locks (`scan.evictable`,
//! `scan.evicted`) are the innermost ranks of the `LOCK_ORDER` manifest
//! in `crates/analyze/src/rules.rs`; `relieve_pressure` nests them in
//! exactly that order and the analyzer (DESIGN.md §14) holds it there.
//! The `Relaxed` scan counters in this file are deliberately exempt from
//! the `atomic-ordering` rule: workers are join-synchronized before any
//! cell is read for a decision.

use crate::cc::{CountsTable, CC_ENTRY_BYTES};
use crate::config::MiddlewareConfig;
use crate::error::{MwError, MwResult};
use crate::executor::{
    BatchCounter, Block, BlockPass, ColBlock, CountSlots, KernelTally, RowBlock,
};
use crate::metrics::{MiddlewareStats, WorkerScanStats};
use crate::staging::{ExtentLayout, ExtentReader, TeeSpool, FILE_HEADER_BYTES};
use crossbeam_channel::{bounded, Receiver, Sender};
use scaleclass_sqldb::types::{Code, CODE_BYTES};
use scaleclass_sqldb::PredSet;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Instant;

/// Everything a worker needs to count for one node (read-only).
struct NodeSpec {
    attrs: Vec<u16>,
    class_col: u16,
    /// Empty table carrying the node's counting backend: workers mint
    /// their private shards via [`CountsTable::fresh_like`], so a dense
    /// node gets dense shards (sharing one layout `Arc`) and the final
    /// merge takes the vector-add fast path.
    proto: CountsTable,
}

/// State shared between the coordinator and the counting workers.
struct Shared {
    specs: Vec<NodeSpec>,
    /// The nodes' path predicates compiled for routing (the batch's own
    /// router): predicate `i` is node `i`'s.
    router: Arc<PredSet>,
    arity: usize,
    /// The scan's range certificate, set before any worker starts
    /// ([`ParallelScan::certify`]); each worker's block pass checks its
    /// nodes' layouts against it.
    certificate: Vec<Code>,
    /// Count whole blocks through the route-then-count pass when the
    /// shard-level growth bound clears the budget (see
    /// `ShardState::count_block`); off pins the row path.
    batch_kernel: bool,
    /// Total middleware memory budget in bytes.
    budget: u64,
    /// Bytes pinned by previously staged data (shrinks under eviction).
    base_mem_bytes: AtomicU64,
    /// Global CC-byte reservation across all worker shards.
    cc_reserved: AtomicU64,
    /// Bytes buffered by the coordinator's memory-staging tees.
    buffer_bytes: AtomicU64,
    /// Per-node §4.1.1 fallback flags.
    fallback: Vec<AtomicBool>,
    /// Per-node "memory-staging tee cancelled" flags: in sharded-reader
    /// mode any reader that overflows the budget cancels the node's tee
    /// for everyone (staging is best-effort; counting is not).
    tee_cancel: Vec<AtomicBool>,
    /// Memory sets that may be sacrificed under counting pressure
    /// (`(id, bytes)`, popped from the end — the serial order).
    evictable: Mutex<Vec<(u64, u64)>>,
    /// Sets sacrificed during this scan.
    evicted: Mutex<Vec<u64>>,
}

impl Shared {
    /// Modelled memory in use right now (upper bound, see module docs).
    fn memory_in_use(&self) -> u64 {
        self.base_mem_bytes.load(Ordering::Relaxed)
            + self.cc_reserved.load(Ordering::Relaxed)
            + self.buffer_bytes.load(Ordering::Relaxed)
    }

    /// Evict cached sets until the reservation fits the budget again.
    /// Returns false when the pool runs dry while still over budget —
    /// the caller must fall back.
    fn relieve_pressure(&self) -> bool {
        // A poisoned lock means another worker panicked mid-scan; the pool
        // itself is a Vec whose pop/push are atomic with respect to panics,
        // so recover the guard and keep accounting rather than compounding
        // the panic on every surviving worker.
        let mut evictable = self
            .evictable
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        let mut evicted = self
            .evicted
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        loop {
            if self.memory_in_use() <= self.budget {
                return true;
            }
            let Some((id, bytes)) = evictable.pop() else {
                return false;
            };
            // `bytes` is part of `base`, so this cannot underflow.
            self.base_mem_bytes.fetch_sub(bytes, Ordering::Relaxed);
            evicted.push(id);
        }
    }
}

/// What one worker hands back when the channel closes.
struct WorkerResult {
    shards: Vec<CountsTable>,
    rows: u64,
    /// Wall-clock ns this worker spent inside its row-counting loops.
    kernel_ns: u64,
    /// What the batched kernel did on this worker's blocks.
    tally: KernelTally,
}

/// One worker's private counting state — shared by the channel workers and
/// the sharded extent readers, so both paths apply the identical budget,
/// eviction, and fallback protocol per row and per block.
struct ShardState {
    shards: Vec<CountsTable>,
    /// Nodes whose fallback flag this worker has already honoured.
    dropped: Vec<bool>,
    rows: u64,
    kernel_ns: u64,
    /// The nodes the last row fed to [`ShardState::count_row`] satisfied.
    matched: Vec<usize>,
    /// Reusable selection/tally scratch of the block pass.
    pass: BlockPass,
    tally: KernelTally,
}

/// A worker's shards as the block pass counts into them.
struct ShardSlots<'a> {
    specs: &'a [NodeSpec],
    shards: &'a mut [CountsTable],
    dropped: &'a [bool],
}

impl CountSlots for ShardSlots<'_> {
    fn slot(&mut self, idx: usize) -> Option<(&mut CountsTable, &[u16], u16)> {
        if *self.dropped.get(idx)? {
            return None;
        }
        let spec = self.specs.get(idx)?;
        Some((self.shards.get_mut(idx)?, &spec.attrs, spec.class_col))
    }
}

/// Honour the §4.1.1 fallback flag of node `idx` (this worker's own or
/// another's): release and drop this worker's shard once. Returns true
/// when the node is out of play for this worker.
fn honour_fallback(
    shards: &mut [CountsTable],
    dropped: &mut [bool],
    idx: usize,
    shared: &Shared,
) -> bool {
    if !shared.fallback[idx].load(Ordering::Relaxed) {
        return false;
    }
    if !dropped[idx] {
        // Self-cleanup: another worker tripped the switch; release this
        // shard's bytes.
        shared
            .cc_reserved
            .fetch_sub(shards[idx].memory_bytes(), Ordering::Relaxed);
        shards[idx] = CountsTable::new();
        dropped[idx] = true;
    }
    true
}

impl ShardState {
    fn new(shared: &Shared) -> Self {
        let specs = &shared.specs;
        let mut pass = BlockPass::default();
        pass.certify(&shared.certificate);
        ShardState {
            shards: specs.iter().map(|s| s.proto.fresh_like()).collect(),
            dropped: vec![false; specs.len()],
            rows: 0,
            kernel_ns: 0,
            matched: Vec::with_capacity(8),
            pass,
            tally: KernelTally::default(),
        }
    }

    /// Count one row into every node it satisfies (left in `matched`,
    /// ascending, for the caller's tees).
    #[inline]
    fn count_row(&mut self, row: &[Code], shared: &Shared) {
        self.rows += 1;
        let mut matched = std::mem::take(&mut self.matched);
        shared.router.route(row, &mut matched);
        for &idx in &matched {
            if honour_fallback(&mut self.shards, &mut self.dropped, idx, shared) {
                continue;
            }
            // analyze:allow(hot-path-panic): the router reports positions
            // in `shared.specs`, and fallback/shards/dropped are parallel
            // vectors of the same length by construction.
            let (spec, fallback) = (&shared.specs[idx], &shared.fallback[idx]);
            // analyze:allow(hot-path-panic): same parallel-vector bound.
            let shard = &mut self.shards[idx];
            let before = shard.entries();
            shard.add_row(row, &spec.attrs, spec.class_col);
            let grew = (shard.entries() - before) as u64 * CC_ENTRY_BYTES;
            if grew == 0 {
                continue;
            }
            shared.cc_reserved.fetch_add(grew, Ordering::Relaxed);
            if shared.memory_in_use() <= shared.budget {
                continue;
            }
            // Counting pressure: cached data first, then the switch.
            if !shared.relieve_pressure() {
                fallback.store(true, Ordering::Relaxed);
                shared
                    .cc_reserved
                    .fetch_sub(shard.memory_bytes(), Ordering::Relaxed);
                *shard = CountsTable::new();
                // analyze:allow(hot-path-panic): same parallel-vector bound.
                self.dropped[idx] = true;
            }
        }
        self.matched = matched;
    }

    /// Route-then-count one block, if its growth bound clears the budget.
    /// The bound — counting growth plus the rows `tees` would buffer —
    /// is *reserved* before counting (so concurrent workers' gates
    /// serialize through the shared cells) and the counting surplus
    /// released after; a block counted here can therefore never cross the
    /// budget, which is what makes it bit-identical to the per-row
    /// checkpoint path. Returns false — with nothing counted and nothing
    /// reserved — when the gate fails or the block holds a code outside a
    /// dense shard's layout; the caller must then feed the block through
    /// [`ShardState::count_row`]. On true the caller serves `tees` from
    /// `self.pass` ([`tee_block`]): each tee's `reserved` says how many
    /// bytes of its selection were charged to `buffer_bytes`.
    fn count_block(&mut self, block: &impl Block, shared: &Shared, tees: &mut [ReaderTee]) -> bool {
        self.pass.route(&shared.router, block, false);
        for (idx, _) in self.pass.selections() {
            honour_fallback(&mut self.shards, &mut self.dropped, idx, shared);
        }
        let mut slots = ShardSlots {
            specs: &shared.specs,
            shards: &mut self.shards,
            dropped: &self.dropped,
        };
        let Some(cc_bound) = self.pass.cc_bound(&mut slots, &mut self.tally) else {
            return false;
        };
        let row_bytes = (shared.arity * CODE_BYTES) as u64;
        let mut tee_bound = 0u64;
        for tee in tees.iter_mut() {
            let live = tee.mem && !tee.cancelled(shared);
            tee.reserved = if live {
                self.pass.selected(tee.node).len() as u64 * row_bytes
            } else {
                0
            };
            tee_bound += tee.reserved;
        }
        shared.cc_reserved.fetch_add(cc_bound, Ordering::Relaxed);
        shared.buffer_bytes.fetch_add(tee_bound, Ordering::Relaxed);
        if shared.memory_in_use() > shared.budget {
            shared.cc_reserved.fetch_sub(cc_bound, Ordering::Relaxed);
            shared.buffer_bytes.fetch_sub(tee_bound, Ordering::Relaxed);
            return false;
        }
        self.rows += block.nrows() as u64;
        let grew = self.pass.count(block, &mut slots, &mut self.tally);
        // Keep only what actually grew; the gate reservation guaranteed
        // `grew <= cc_bound`, so this cannot underflow the global.
        shared
            .cc_reserved
            .fetch_sub(cc_bound - grew, Ordering::Relaxed);
        true
    }

    fn into_result(self) -> WorkerResult {
        WorkerResult {
            shards: self.shards,
            rows: self.rows,
            kernel_ns: self.kernel_ns,
            tally: self.tally,
        }
    }
}

fn worker_loop(rx: Receiver<Vec<Code>>, shared: Arc<Shared>) -> WorkerResult {
    let mut state = ShardState::new(&shared);
    let arity = shared.arity;
    // Channel workers never tee: the coordinator does, in source order.
    let no_tees: &mut [ReaderTee] = &mut [];
    for block in rx.iter() {
        let t0 = Instant::now();
        let flat = block.as_slice();
        if !(shared.batch_kernel && state.count_block(&RowBlock { flat, arity }, &shared, no_tees))
        {
            if shared.batch_kernel {
                state.tally.block_fallback_rows += (flat.len() / arity) as u64;
            }
            for row in flat.chunks_exact(arity) {
                state.count_row(row, &shared);
            }
        }
        state.kernel_ns += t0.elapsed().as_nanos() as u64;
    }
    state.into_result()
}

/// One sharded reader's private view of a staging tee: the batch-node
/// index, whether the node tees to memory, this reader's range-local
/// memory buffer, and its private file spool (when the node tees to a
/// staged file).
struct ReaderTee {
    /// Index into the batch's node list (== `Shared` vectors).
    node: usize,
    /// Does this node tee to a memory buffer?
    mem: bool,
    /// Range-local memory-tee rows, concatenated in range order later.
    buf: Vec<Code>,
    /// Range-local file-tee spill, replayed in range order later.
    spool: Option<TeeSpool>,
    /// Bytes of the block being counted that [`ShardState::count_block`]
    /// charged to `buffer_bytes` for this tee (0: not buffering).
    reserved: u64,
}

impl ReaderTee {
    /// Has some reader cancelled this node's memory tee? Releases this
    /// reader's buffered rows the first time it sees the flag. (File
    /// spools are unaffected: they cost disk, not budget.)
    fn cancelled(&mut self, shared: &Shared) -> bool {
        // Tee node indices were minted by the coordinator over these same
        // vectors.
        let cancelled = shared.tee_cancel[self.node].load(Ordering::Relaxed);
        if cancelled && !self.buf.is_empty() {
            shared
                .buffer_bytes
                .fetch_sub((self.buf.len() * CODE_BYTES) as u64, Ordering::Relaxed);
            self.buf = Vec::new();
        }
        cancelled
    }
}

/// Serve a reader's tees for a block [`ShardState::count_block`] counted,
/// from the same selection vectors and in row order.
fn tee_block(pass: &BlockPass, block: &mut impl Block, tees: &mut [ReaderTee]) -> MwResult<()> {
    for tee in tees {
        let sel = Some(pass.selected(tee.node));
        if let Some(spool) = tee.spool.as_mut() {
            block.for_each_row(sel, |row| spool.push(row))?;
        }
        if tee.reserved > 0 {
            let buf = &mut tee.buf;
            block.for_each_row(sel, |row| {
                buf.extend_from_slice(row);
                Ok(())
            })?;
        }
    }
    Ok(())
}

/// Serve a reader's tees for one row of a block that took the row path;
/// `matched` is what [`ShardState::count_row`] routed the row to.
fn tee_row(
    row: &[Code],
    matched: &[usize],
    tees: &mut [ReaderTee],
    shared: &Shared,
) -> MwResult<()> {
    let row_bytes = (shared.arity * CODE_BYTES) as u64;
    for tee in tees {
        let cancelled = tee.cancelled(shared);
        if !matched.contains(&tee.node) {
            continue;
        }
        if let Some(spool) = tee.spool.as_mut() {
            spool.push(row)?;
        }
        if tee.mem && !cancelled {
            tee.buf.extend_from_slice(row);
            shared.buffer_bytes.fetch_add(row_bytes, Ordering::Relaxed);
            if shared.memory_in_use() > shared.budget {
                // Staging is best-effort: cancel this node's memory
                // tee everywhere rather than evicting counts.
                // analyze:allow(hot-path-panic): tee node indices were
                // minted by the coordinator over this same vector.
                shared.tee_cancel[tee.node].store(true, Ordering::Relaxed);
                tee.cancelled(shared);
            }
        }
    }
    Ok(())
}

/// What one sharded extent reader hands back.
struct ShardReaderResult {
    result: WorkerResult,
    io: WorkerScanStats,
    /// This reader's tee contributions, aligned with the coordinator's
    /// tee-node list.
    tees: Vec<ReaderTee>,
}

/// Reader-thread body for the sharded file scan: verify + decode the
/// extents of `range` locally, straight into per-reader column buffers
/// (reused across extents), count each as one block into a private shard,
/// buffer memory-tee rows for range-order concatenation, and spool
/// file-tee rows for range-order replay.
fn shard_reader_loop(
    layout: ExtentLayout,
    range: std::ops::Range<u64>,
    shared: Arc<Shared>,
    mut tees: Vec<ReaderTee>,
) -> MwResult<ShardReaderResult> {
    let mut reader = ExtentReader::open(&layout)?;
    let mut state = ShardState::new(&shared);
    let mut io = WorkerScanStats::default();
    let mut cols: Vec<Vec<Code>> = Vec::new();
    let mut row: Vec<Code> = Vec::with_capacity(shared.arity);
    for k in range {
        let nrows = reader.decode_extent_columns(k, &mut cols, &mut io)?;
        let t0 = Instant::now();
        let mut block = ColBlock {
            cols: &cols,
            nrows,
            row: &mut row,
        };
        if shared.batch_kernel && state.count_block(&block, &shared, &mut tees) {
            tee_block(&state.pass, &mut block, &mut tees)?;
        } else {
            if shared.batch_kernel {
                state.tally.block_fallback_rows += nrows as u64;
            }
            block.for_each_row(None, |row| {
                state.count_row(row, &shared);
                tee_row(row, &state.matched, &mut tees, &shared)
            })?;
        }
        state.kernel_ns += t0.elapsed().as_nanos() as u64;
    }
    Ok(ShardReaderResult {
        result: state.into_result(),
        io,
        tees,
    })
}

/// The spawned channel pipeline: a bounded block channel plus its worker
/// threads. Spawned lazily on the first block so a batch that goes down
/// the sharded-reader path never pays for idle channel workers.
struct Pipeline {
    tx: Sender<Vec<Code>>,
    workers: Vec<JoinHandle<WorkerResult>>,
}

/// Everything a sharded file scan produced, staged for the deterministic
/// merge in [`ParallelScan::finish`].
struct ShardOutcome {
    /// Per-reader results in extent-range (== worker-index) order.
    results: Vec<WorkerResult>,
    /// Per tee node: the readers' buffered rows and file spools, both in
    /// range order.
    tees: Vec<(usize, Vec<Vec<Code>>, Vec<TeeSpool>)>,
}

/// Coordinator state for one parallel counting pass. Owns the
/// [`BatchCounter`] (for its staging tees and final accounting) while the
/// workers own the counting.
pub struct ParallelScan {
    batch: BatchCounter,
    shared: Arc<Shared>,
    /// Requested worker count (threads spawn lazily).
    workers_target: usize,
    pipeline: Option<Pipeline>,
    sharded: Option<ShardOutcome>,
    /// Block under construction (flat codes).
    block: Vec<Code>,
    block_codes: usize,
    /// Indices of nodes with a staging tee (file and/or memory).
    tee_nodes: Vec<usize>,
    /// Reusable route output of the coordinator's tees.
    matched: Vec<usize>,
    rows_sent: u64,
    started: Instant,
}

impl ParallelScan {
    /// Prepare a parallel pass with `workers` counting threads. Threads
    /// are not spawned until rows arrive: the channel pipeline spins up on
    /// the first full block, and [`ParallelScan::scan_extent_file`] spawns
    /// reader threads instead, never the channel.
    pub fn new(mut batch: BatchCounter, workers: usize, block_rows: usize) -> Self {
        let specs = batch
            .nodes
            .iter()
            .map(|n| NodeSpec {
                attrs: n.req.attrs.clone(),
                class_col: n.req.class_col,
                proto: n.cc.fresh_like(),
            })
            .collect();
        let fallback = batch.nodes.iter().map(|_| AtomicBool::new(false)).collect();
        let tee_cancel = batch.nodes.iter().map(|_| AtomicBool::new(false)).collect();
        let shared = Arc::new(Shared {
            specs,
            router: Arc::clone(&batch.router),
            arity: batch.arity,
            certificate: Vec::new(),
            batch_kernel: batch.batch_kernel,
            budget: batch.budget,
            base_mem_bytes: AtomicU64::new(batch.base_mem_bytes),
            cc_reserved: AtomicU64::new(0),
            buffer_bytes: AtomicU64::new(0),
            fallback,
            tee_cancel,
            evictable: Mutex::new(std::mem::take(&mut batch.evictable)),
            evicted: Mutex::new(Vec::new()),
        });
        let tee_nodes = batch
            .nodes
            .iter()
            .enumerate()
            .filter(|(_, n)| n.file_writer.is_some() || n.mem_buffer.is_some())
            .map(|(i, _)| i)
            .collect();
        let block_codes = block_rows.max(1) * batch.arity;
        ParallelScan {
            batch,
            shared,
            workers_target: workers.max(1),
            pipeline: None,
            sharded: None,
            block: Vec::with_capacity(block_codes),
            block_codes,
            tee_nodes,
            matched: Vec::new(),
            rows_sent: 0,
            started: Instant::now(),
        }
    }

    /// Start the scan: every code it reads lies at or under `certificate`,
    /// per column. Called before the first block, while no worker shares
    /// the state; a worker already running would keep counting against
    /// the certificate it started with (none: its dense nodes take the
    /// row path).
    pub(crate) fn certify(&mut self, certificate: &[Code]) {
        match Arc::get_mut(&mut self.shared) {
            Some(shared) => shared.certificate = certificate.to_vec(),
            None => debug_assert!(false, "certified after the workers started"),
        }
    }

    fn spawn_pipeline(shared: &Arc<Shared>, workers: usize) -> Pipeline {
        // Two blocks of headroom per worker: enough to keep everyone busy,
        // small enough that backpressure kicks in within milliseconds.
        let (tx, rx) = bounded(workers * 2);
        let workers = (0..workers)
            .map(|_| {
                let rx = rx.clone();
                let shared = Arc::clone(shared);
                std::thread::spawn(move || worker_loop(rx, shared))
            })
            .collect();
        Pipeline { tx, workers }
    }

    /// Can this batch be served by sharded extent readers? Memory tees
    /// shard cleanly (per-range buffers concatenate in range order) and so
    /// do file tees (per-reader spools replay in range order); only the
    /// hybrid *split* file keeps the channel pipeline — it interleaves all
    /// scheduled nodes' rows, so it gains nothing from sharding.
    pub fn can_shard(&self) -> bool {
        self.pipeline.is_none()
            && self.sharded.is_none()
            && self.rows_sent == 0
            && self.batch.split_writer.is_none()
    }

    /// Scan an extent-format staging file with per-worker reader threads:
    /// each owns a disjoint contiguous extent range, decodes locally, and
    /// counts into its own shard — no producer thread, no channel hop.
    /// Returns per-reader I/O counters (range order); the counting results
    /// are merged by [`ParallelScan::finish`] exactly like channel shards.
    pub fn scan_extent_file(&mut self, layout: &ExtentLayout) -> MwResult<Vec<WorkerScanStats>> {
        debug_assert!(self.can_shard());
        let extents = layout.extents;
        let n = self.workers_target.min(extents.max(1) as usize).max(1);
        let base = extents / n as u64;
        let rem = (extents % n as u64) as usize;
        // Per tee node: memory-tee flag and (for file tees) the directory
        // the staged file is being written in — where spools go too, named
        // with the writer's manager prefix so a drop-time sweep of a
        // shared staging dir reclaims any spool this scan leaks.
        type TeeInfo = (usize, bool, Option<(std::path::PathBuf, String)>);
        let tee_info: Vec<TeeInfo> = self
            .tee_nodes
            .iter()
            .map(|&i| {
                let node = &self.batch.nodes[i];
                (
                    i,
                    node.mem_buffer.is_some(),
                    node.file_writer
                        .as_ref()
                        .map(|w| (w.dir().to_path_buf(), w.spool_prefix().to_string())),
                )
            })
            .collect();
        // Create every reader's spools before spawning anything, so a
        // filesystem failure aborts cleanly with no threads in flight.
        let arity = self.shared.arity;
        let mut reader_tees: Vec<Vec<ReaderTee>> = Vec::with_capacity(n);
        for _ in 0..n {
            let tees = tee_info
                .iter()
                .map(|(node, mem, spool_dir)| {
                    Ok(ReaderTee {
                        node: *node,
                        mem: *mem,
                        reserved: 0,
                        buf: Vec::new(),
                        spool: spool_dir
                            .as_ref()
                            .map(|(d, p)| TeeSpool::create(d, p, arity))
                            .transpose()?,
                    })
                })
                .collect::<MwResult<Vec<ReaderTee>>>()?;
            reader_tees.push(tees);
        }
        let mut handles = Vec::with_capacity(n);
        let mut start = 0u64;
        for (w, tees) in reader_tees.into_iter().enumerate() {
            let len = base + u64::from(w < rem);
            let range = start..start + len;
            start += len;
            let layout = layout.clone();
            let shared = Arc::clone(&self.shared);
            handles.push(std::thread::spawn(move || {
                shard_reader_loop(layout, range, shared, tees)
            }));
        }
        let mut io = Vec::with_capacity(n);
        let mut results = Vec::with_capacity(n);
        let mut tee_cols: Vec<Vec<Vec<Code>>> = self.tee_nodes.iter().map(|_| Vec::new()).collect();
        let mut spool_cols: Vec<Vec<TeeSpool>> =
            self.tee_nodes.iter().map(|_| Vec::new()).collect();
        let mut first_err: Option<MwError> = None;
        // Join every reader (even after an error — no detached threads
        // holding the file), keep the first failure.
        for h in handles {
            match h.join() {
                Err(_) => {
                    if first_err.is_none() {
                        first_err = Some(MwError::Internal("extent reader panicked".into()));
                    }
                }
                Ok(Err(e)) => {
                    if first_err.is_none() {
                        first_err = Some(e);
                    }
                }
                Ok(Ok(r)) => {
                    io.push(r.io);
                    results.push(r.result);
                    for ((bufs, spools), tee) in
                        tee_cols.iter_mut().zip(&mut spool_cols).zip(r.tees)
                    {
                        bufs.push(tee.buf);
                        if let Some(s) = tee.spool {
                            spools.push(s);
                        }
                    }
                }
            }
        }
        if let Some(e) = first_err {
            return Err(e);
        }
        // The 16-byte file header was read once (layout detection); charge
        // it to reader 0 so per-worker bytes sum to the file size.
        match io.first_mut() {
            Some(w0) => w0.read_bytes += FILE_HEADER_BYTES,
            None => io.push(WorkerScanStats {
                read_bytes: FILE_HEADER_BYTES,
                ..WorkerScanStats::default()
            }),
        }
        self.rows_sent += results.iter().map(|r| r.rows).sum::<u64>();
        self.sharded = Some(ShardOutcome {
            results,
            tees: self
                .tee_nodes
                .iter()
                .copied()
                .zip(tee_cols.into_iter().zip(spool_cols))
                .map(|(i, (bufs, spools))| (i, bufs, spools))
                .collect(),
        });
        Ok(io)
    }

    /// Feed one source block, in whichever layout: tee each row where
    /// staging demands, and re-pack the rows — a column-major block is
    /// transposed on the way — into row-major `scan_block_rows` blocks for
    /// the workers (blocking when the pipeline is full). Source blocks need
    /// not match the pipeline's block size — a wire fetch or an extent is
    /// whatever size its source made it.
    pub(crate) fn process_block(&mut self, block: &mut impl Block) -> MwResult<()> {
        self.rows_sent += block.nrows() as u64;
        let teeing = self.batch.split_writer.is_some() || !self.tee_nodes.is_empty();
        block.for_each_row(None, |row| {
            if teeing {
                self.tee(row)?;
            }
            self.block.extend_from_slice(row);
            if self.block.len() >= self.block_codes {
                self.flush_block()?;
            }
            Ok(())
        })
    }

    /// Staging tees — single-writer, source row order, exactly the serial
    /// path's file contents and memory buffers: the row is routed once and
    /// handed to the tees of the nodes it satisfies (and, satisfying any,
    /// to the split file).
    fn tee(&mut self, row: &[Code]) -> MwResult<()> {
        let mut matched = std::mem::take(&mut self.matched);
        self.shared.router.route(row, &mut matched);
        if !matched.is_empty() {
            if let Some(w) = self.batch.split_writer.as_mut() {
                w.push(row)?;
            }
        }
        let row_bytes = (self.shared.arity * CODE_BYTES) as u64;
        for &i in &matched {
            // analyze:allow(hot-path-panic): the router was compiled from
            // this batch's nodes, one predicate each, in order.
            let node = &mut self.batch.nodes[i];
            if let Some(w) = node.file_writer.as_mut() {
                w.push(row)?;
            }
            if let Some(buf) = node.mem_buffer.as_mut() {
                buf.extend_from_slice(row);
                self.shared
                    .buffer_bytes
                    .fetch_add(row_bytes, Ordering::Relaxed);
                if self.shared.memory_in_use() > self.shared.budget {
                    // Staging is best-effort: cancel this node's memory
                    // staging rather than evicting counts.
                    let bytes = node
                        .mem_buffer
                        .take()
                        .map_or(0, |b| (b.len() * CODE_BYTES) as u64);
                    self.shared.buffer_bytes.fetch_sub(bytes, Ordering::Relaxed);
                }
            }
        }
        self.matched = matched;
        Ok(())
    }

    fn flush_block(&mut self) -> MwResult<()> {
        if self.block.is_empty() {
            return Ok(());
        }
        let block = std::mem::replace(&mut self.block, Vec::with_capacity(self.block_codes));
        let workers = self.workers_target;
        let shared = &self.shared;
        self.pipeline
            .get_or_insert_with(|| Self::spawn_pipeline(shared, workers))
            .tx
            .send(block)
            .map_err(|_| MwError::Internal("scan worker pool disconnected".into()))
    }

    /// Close the pass: drain the last block, join whichever workers ran
    /// (channel or sharded readers), merge their shards deterministically,
    /// and restore the serial memory model on the returned
    /// [`BatchCounter`].
    pub fn finish(mut self, stats: &mut MiddlewareStats) -> MwResult<BatchCounter> {
        self.flush_block()?;
        let mut results = Vec::new();
        if let Some(pipe) = self.pipeline.take() {
            drop(pipe.tx); // disconnect → workers drain and exit
            for handle in pipe.workers {
                let r = handle
                    .join()
                    .map_err(|_| MwError::Internal("scan worker panicked".into()))?;
                results.push(r);
            }
        }
        let sharded_tees = self.sharded.take().map(|outcome| {
            // Reader shards joined in extent-range order slot in exactly
            // like channel workers; the merge below stays index-ordered.
            results.extend(outcome.results);
            outcome.tees
        });
        if let Some(tees) = sharded_tees {
            for (i, bufs, spools) in tees {
                // analyze:allow(hot-path-panic): sharded tee indices address
                // this batch's nodes; tee_cancel is the parallel flag vector.
                let node = &mut self.batch.nodes[i];
                // File tee: replay the per-range spools in range order
                // through the node's real writer. Range order is file
                // order, and the staged file is a pure function of the
                // pushed row sequence, so the bytes equal the serial tee's.
                if let Some(w) = node.file_writer.as_mut() {
                    for spool in spools {
                        spool.drain_into(w)?;
                    }
                }
                if node.mem_buffer.is_none() {
                    continue; // file-only tee, nothing buffered
                }
                // analyze:allow(hot-path-panic): same in-bounds tee index.
                if self.shared.tee_cancel[i].load(Ordering::Relaxed) {
                    // Some reader overflowed the budget mid-scan; release
                    // whatever buffers survived and drop the tee, exactly
                    // the serial path's best-effort cancellation.
                    let bytes: u64 = bufs.iter().map(|b| (b.len() * CODE_BYTES) as u64).sum();
                    self.shared.buffer_bytes.fetch_sub(bytes, Ordering::Relaxed);
                    node.mem_buffer = None;
                } else {
                    // Concatenating per-range buffers in range order is the
                    // file order, i.e. the exact bytes the serial tee
                    // would have buffered.
                    let mut merged = Vec::with_capacity(bufs.iter().map(Vec::len).sum());
                    for b in bufs {
                        merged.extend_from_slice(&b);
                    }
                    node.mem_buffer = Some(merged);
                }
            }
        }
        let mut worker_rows_max = 0u64;
        let mut kernel_ns = 0u64;
        for r in &results {
            worker_rows_max = worker_rows_max.max(r.rows);
            kernel_ns += r.kernel_ns;
            r.tally.add_to(stats);
        }
        // Deterministic merge, worker-index order. Counting is additive,
        // so the result is independent of how blocks were interleaved.
        for (i, node) in self.batch.nodes.iter_mut().enumerate() {
            // analyze:allow(hot-path-panic): fallback has one flag per batch
            // node; i enumerates those nodes.
            if self.shared.fallback[i].load(Ordering::Relaxed) {
                node.cc = CountsTable::new();
                node.fallback = true;
                stats.sql_fallbacks += 1;
                continue;
            }
            for r in &mut results {
                // analyze:allow(hot-path-panic): every worker built one
                // shard per batch node.
                node.cc.merge(std::mem::take(&mut r.shards[i]));
            }
        }
        // Fold the shared accounting back into the batch: exact CC bytes
        // from the merged tables (the shard reservation was an upper
        // bound), eviction decisions, and the tee buffers.
        // Poisoning here means a worker panicked; the join loop above has
        // already surfaced that as an error, so recover the guard and keep
        // whatever eviction decisions completed.
        let evicted: Vec<u64> = self
            .shared
            .evicted
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .drain(..)
            .collect();
        stats.pressure_evictions += evicted.len() as u64;
        self.batch.evicted.extend(evicted);
        self.batch.base_mem_bytes = self.shared.base_mem_bytes.load(Ordering::Relaxed);
        self.batch.cc_bytes = self.batch.nodes.iter().map(|n| n.cc.memory_bytes()).sum();
        self.batch.buffer_bytes = self.shared.buffer_bytes.load(Ordering::Relaxed);
        // Shadow checkpoint (DESIGN.md §9): the dense occupancy counters
        // just went through per-worker adds and a slot-wise merge, and
        // buffer_bytes through concurrent tee add/cancel traffic — recount
        // both from the merged state before the scheduler trusts them.
        #[cfg(debug_assertions)]
        self.batch.assert_shadow_accounting();
        stats.observe_memory(self.batch.memory_in_use());
        stats.parallel_scans += 1;
        stats.scan_rows += self.rows_sent;
        stats.scan_worker_rows_max = stats.scan_worker_rows_max.max(worker_rows_max);
        stats.scan_nanos += self.started.elapsed().as_nanos() as u64;
        stats.kernel_nanos += kernel_ns;
        Ok(self.batch)
    }
}

// No Drop impl needed for the error path: dropping a `ParallelScan` drops
// its `Sender`, the disconnect wakes every worker out of `recv`, and the
// detached join handles let the threads exit on their own.

/// A counting pass behind a uniform block interface: the exact serial
/// [`BatchCounter`] when `scan_workers == 1`, the block pipeline
/// otherwise. The scan loop pushes blocks and never knows which one runs.
// One RowSink exists per scheduling round, held in a single stack frame
// for the whole scan — the Serial/Parallel size gap costs nothing, and
// boxing the serial BatchCounter would tax the default path instead.
#[allow(clippy::large_enum_variant)]
pub enum RowSink {
    /// Single-threaded counting (the seed behaviour, bit-exact).
    Serial {
        /// The counting state.
        batch: BatchCounter,
        /// Rows fed so far.
        rows: u64,
        /// Scan start, for `scan_nanos`.
        started: Instant,
    },
    /// Producer/worker block pipeline.
    Parallel(Box<ParallelScan>),
}

impl RowSink {
    /// Wrap a batch in the counting mode the configuration asks for.
    pub fn new(batch: BatchCounter, config: &MiddlewareConfig) -> Self {
        if config.scan_workers > 1 {
            RowSink::Parallel(Box::new(ParallelScan::new(
                batch,
                config.scan_workers,
                config.scan_block_rows,
            )))
        } else {
            RowSink::Serial {
                batch,
                rows: 0,
                started: Instant::now(),
            }
        }
    }

    /// The scheduled nodes (read access for filter/aux construction).
    pub fn nodes(&self) -> &[crate::executor::NodeCounter] {
        match self {
            RowSink::Serial { batch, .. } => &batch.nodes,
            RowSink::Parallel(scan) => &scan.batch.nodes,
        }
    }

    /// Start the scan with the source table's range certificate — an
    /// upper bound, per column, on every code it will read — before the
    /// first block.
    pub(crate) fn certify(&mut self, certificate: &[Code]) {
        match self {
            RowSink::Serial { batch, .. } => batch.certify(certificate),
            RowSink::Parallel(scan) => scan.certify(certificate),
        }
    }

    /// Feed a block, in whichever layout its source has, through the
    /// counting pass. Serial mode hands the whole block to the batched
    /// kernel; parallel mode tees and re-packs it for the workers.
    pub(crate) fn process_block(
        &mut self,
        block: &mut impl Block,
        stats: &mut MiddlewareStats,
    ) -> MwResult<()> {
        match self {
            RowSink::Serial { batch, rows, .. } => {
                *rows += block.nrows() as u64;
                batch.process(block, stats)
            }
            RowSink::Parallel(scan) => scan.process_block(block),
        }
    }

    /// Serve an extent-format staging file with sharded reader threads, if
    /// this pass is parallel and the batch's tees allow it. Returns the
    /// per-reader I/O counters on success, `None` when the caller should
    /// fall back to feeding blocks through `RowSink::process_block`.
    pub fn try_scan_extents(
        &mut self,
        layout: &ExtentLayout,
    ) -> MwResult<Option<Vec<WorkerScanStats>>> {
        match self {
            RowSink::Parallel(scan) if scan.can_shard() => Ok(Some(scan.scan_extent_file(layout)?)),
            _ => Ok(None),
        }
    }

    /// Finish the pass and recover the batch for completion bookkeeping.
    pub fn finish(self, stats: &mut MiddlewareStats) -> MwResult<BatchCounter> {
        match self {
            RowSink::Serial {
                batch,
                rows,
                started,
            } => {
                stats.scan_rows += rows;
                stats.scan_nanos += started.elapsed().as_nanos() as u64;
                Ok(batch)
            }
            RowSink::Parallel(scan) => scan.finish(stats),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::executor::NodeCounter;
    use crate::request::{CcRequest, Lineage, NodeId};
    use scaleclass_sqldb::Pred;

    const ARITY: usize = 3; // attrs 0,1 + class 2

    fn request(node: u64, pred: Pred) -> CcRequest {
        CcRequest {
            lineage: Lineage::root(NodeId(0)).child(NodeId(node), pred),
            attrs: vec![0, 1],
            class_col: 2,
            rows: 100,
            parent_rows: 200,
            parent_cards: vec![4, 4],
        }
    }

    fn root_request() -> CcRequest {
        CcRequest {
            lineage: Lineage::root(NodeId(0)),
            attrs: vec![0, 1],
            class_col: 2,
            rows: 100,
            parent_rows: 100,
            parent_cards: vec![4, 4],
        }
    }

    /// Deterministic pseudo-random rows (same generator style as the
    /// executor's consumers; keeps `rand` out of the unit tests).
    fn rows(n: usize, seed: u64) -> Vec<[Code; 3]> {
        let mut state = seed.max(1);
        (0..n)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                [
                    (state % 4) as Code,
                    ((state >> 8) % 4) as Code,
                    ((state >> 16) % 2) as Code,
                ]
            })
            .collect()
    }

    /// The rows as flat row-major codes.
    fn flat(data: &[[Code; 3]]) -> Vec<Code> {
        data.iter().flatten().copied().collect()
    }

    /// Feed the rows to the channel pipeline as one row-major block.
    fn feed(scan: &mut ParallelScan, data: &[[Code; 3]]) {
        let flat = flat(data);
        let mut block = RowBlock {
            flat: &flat,
            arity: ARITY,
        };
        scan.process_block(&mut block).unwrap();
    }

    fn nodes() -> Vec<NodeCounter> {
        vec![
            NodeCounter::new(root_request()),
            NodeCounter::new(request(1, Pred::Eq { col: 0, value: 0 })),
            NodeCounter::new(request(2, Pred::Eq { col: 0, value: 1 })),
            NodeCounter::new(request(3, Pred::NotEq { col: 1, value: 3 })),
        ]
    }

    fn run(workers: usize, block_rows: usize, data: &[[Code; 3]]) -> BatchCounter {
        let batch = BatchCounter::new(nodes(), u64::MAX, 0, ARITY);
        let mut stats = MiddlewareStats::new();
        if workers == 1 {
            let mut batch = batch;
            for r in data {
                batch.process_row(r, &mut stats).unwrap();
            }
            batch
        } else {
            let mut scan = ParallelScan::new(batch, workers, block_rows);
            feed(&mut scan, data);
            scan.finish(&mut stats).unwrap()
        }
    }

    #[test]
    fn parallel_counts_equal_serial() {
        let data = rows(3000, 7);
        let serial = run(1, 0, &data);
        for &(workers, block) in &[(2usize, 64usize), (3, 17), (4, 1), (4, 4096)] {
            let par = run(workers, block, &data);
            for (s, p) in serial.nodes.iter().zip(&par.nodes) {
                assert_eq!(s.cc, p.cc, "{workers} workers, block {block}");
                assert_eq!(s.cc.total(), p.cc.total());
            }
        }
    }

    /// The same batch with every node on the dense backend (both attrs
    /// card 4, two classes — matches the `rows()` generator's code ranges).
    fn dense_nodes() -> Vec<NodeCounter> {
        nodes()
            .into_iter()
            .map(|mut n| {
                n.cc = CountsTable::new_dense(&[(0, 4), (1, 4)], 2);
                assert!(n.cc.is_dense());
                n
            })
            .collect()
    }

    #[test]
    fn dense_shards_merge_to_the_serial_sparse_result() {
        let data = rows(2000, 17);
        let serial_sparse = run(1, 0, &data);
        for &(workers, block) in &[(2usize, 64usize), (4, 17)] {
            let batch = BatchCounter::new(dense_nodes(), u64::MAX, 0, ARITY);
            let mut scan = ParallelScan::new(batch, workers, block);
            feed(&mut scan, &data);
            let mut st = MiddlewareStats::new();
            let par = scan.finish(&mut st).unwrap();
            assert!(st.kernel_nanos > 0, "workers recorded kernel time");
            for (s, p) in serial_sparse.nodes.iter().zip(&par.nodes) {
                assert!(p.cc.is_dense(), "merge stayed on the dense fast path");
                assert_eq!(s.cc, p.cc, "{workers} workers, block {block}");
            }
        }
        // Sharded extent readers mint dense shards through the same
        // prototype and merge to the identical table.
        let (_staging, layout) = staged_layout(&data, 37);
        let batch = BatchCounter::new(dense_nodes(), u64::MAX, 0, ARITY);
        let mut scan = ParallelScan::new(batch, 4, 64);
        assert!(scan.can_shard());
        scan.scan_extent_file(&layout).unwrap();
        let mut st = MiddlewareStats::new();
        let par = scan.finish(&mut st).unwrap();
        for (s, p) in serial_sparse.nodes.iter().zip(&par.nodes) {
            assert!(p.cc.is_dense());
            assert_eq!(s.cc, p.cc, "sharded dense readers");
        }
    }

    #[test]
    fn pipeline_handles_empty_and_tiny_inputs() {
        let empty = run(4, 8, &[]);
        assert!(empty.nodes.iter().all(|n| n.cc.is_empty()));
        let one = run(4, 8, &rows(1, 3));
        assert_eq!(one.nodes[0].cc.total(), 1, "root sees the single row");
    }

    #[test]
    fn stats_record_pipeline_shape() {
        let data = rows(100, 5);
        let batch = BatchCounter::new(nodes(), u64::MAX, 0, ARITY);
        let mut stats = MiddlewareStats::new();
        let mut scan = ParallelScan::new(batch, 2, 30);
        feed(&mut scan, &data);
        scan.finish(&mut stats).unwrap();
        assert_eq!(stats.parallel_scans, 1);
        assert_eq!(stats.scan_rows, 100);
        assert!(
            stats.scan_worker_rows_max >= 50,
            "someone did half the work"
        );
        assert!(stats.scan_worker_rows_max <= 100);
    }

    #[test]
    fn tiny_budget_triggers_fallback_not_wrong_counts() {
        // Budget fits a handful of entries; the wide root must fall back,
        // and fallback nodes end with an empty (to-be-SQL-filled) table.
        let data = rows(500, 11);
        let batch = BatchCounter::new(vec![NodeCounter::new(root_request())], 96, 0, ARITY);
        let mut stats = MiddlewareStats::new();
        let mut scan = ParallelScan::new(batch, 3, 16);
        feed(&mut scan, &data);
        let batch = scan.finish(&mut stats).unwrap();
        assert!(batch.nodes[0].fallback);
        assert_eq!(stats.sql_fallbacks, 1);
        assert!(batch.nodes[0].cc.is_empty(), "partial shards dropped");
    }

    #[test]
    fn pressure_evicts_cached_sets_before_falling_back() {
        let data = rows(200, 23);
        // Base memory nearly fills the budget, but the evictable pool can
        // release enough to count without any fallback.
        let budget = 64 * CC_ENTRY_BYTES;
        let mut batch = BatchCounter::new(
            vec![NodeCounter::new(root_request())],
            budget,
            budget - 48,
            ARITY,
        );
        batch.evictable = vec![(7, budget / 2), (9, budget / 4)];
        let mut stats = MiddlewareStats::new();
        let mut scan = ParallelScan::new(batch, 2, 32);
        feed(&mut scan, &data);
        let batch = scan.finish(&mut stats).unwrap();
        assert!(!batch.nodes[0].fallback, "evictions freed enough room");
        assert!(stats.pressure_evictions >= 1);
        assert!(batch.evicted.contains(&9), "popped from the end first");
        assert_eq!(batch.nodes[0].cc.total(), 200);
    }

    /// Stage `data` into an extent-format file with `extent_rows` per
    /// extent; returns the manager (keeps the temp dir alive) and layout.
    fn staged_layout(
        data: &[[Code; 3]],
        extent_rows: usize,
    ) -> (crate::staging::StagingManager, crate::staging::ExtentLayout) {
        use crate::request::NodeId;
        let mut staging = crate::staging::StagingManager::new(None).unwrap();
        staging.set_extent_rows(extent_rows);
        let mut stats = MiddlewareStats::new();
        let mut w = staging
            .start_file(vec![NodeId(0)], Pred::True, ARITY)
            .unwrap();
        for r in data {
            w.push(r).unwrap();
        }
        let id = staging.commit_file(w, &mut stats).unwrap();
        let layout = staging.extent_layout(id).unwrap().expect("extent format");
        (staging, layout)
    }

    #[test]
    fn sharded_extent_scan_matches_serial_counts() {
        let data = rows(1000, 13);
        let serial = run(1, 0, &data);
        // 37 rows per extent deliberately doesn't divide 1000.
        let (_staging, layout) = staged_layout(&data, 37);
        for workers in [2usize, 3, 5, 8] {
            let batch = BatchCounter::new(nodes(), u64::MAX, 0, ARITY);
            let mut scan = ParallelScan::new(batch, workers, 64);
            assert!(scan.can_shard());
            let io = scan.scan_extent_file(&layout).unwrap();
            assert!(io.len() > 1, "{workers} workers actually sharded");
            let disk = std::fs::metadata(&layout.path).unwrap().len();
            assert_eq!(
                io.iter().map(|w| w.read_bytes).sum::<u64>(),
                disk,
                "per-reader bytes sum to the file size"
            );
            assert_eq!(io.iter().map(|w| w.rows).sum::<u64>(), 1000);
            let mut st = MiddlewareStats::new();
            let par = scan.finish(&mut st).unwrap();
            assert_eq!(st.scan_rows, 1000);
            for (s, p) in serial.nodes.iter().zip(&par.nodes) {
                assert_eq!(s.cc, p.cc, "{workers} sharded readers");
            }
        }
    }

    #[test]
    fn sharded_mem_tee_reproduces_serial_byte_order() {
        let data = rows(500, 41);
        let (_staging, layout) = staged_layout(&data, 19);
        let mut ns = nodes();
        ns[1].mem_buffer = Some(Vec::new()); // tee node 1 (a == 0)
        let batch = BatchCounter::new(ns, u64::MAX, 0, ARITY);
        let mut scan = ParallelScan::new(batch, 4, 64);
        assert!(scan.can_shard(), "memory tees shard fine");
        scan.scan_extent_file(&layout).unwrap();
        let mut st = MiddlewareStats::new();
        let batch = scan.finish(&mut st).unwrap();
        let expected: Vec<Code> = data
            .iter()
            .filter(|r| r[0] == 0)
            .flat_map(|r| r.iter().copied())
            .collect();
        assert_eq!(
            batch.nodes[1].mem_buffer.as_deref(),
            Some(expected.as_slice()),
            "range-order concatenation is file order"
        );
        assert_eq!(batch.buffer_bytes, (expected.len() * CODE_BYTES) as u64);
    }

    #[test]
    fn split_file_keeps_the_channel_pipeline_but_file_tees_shard() {
        use crate::request::NodeId;
        let mut staging = crate::staging::StagingManager::new(None).unwrap();
        let mut ns = nodes();
        ns[1].file_writer = Some(
            staging
                .start_file(vec![NodeId(1)], Pred::Eq { col: 0, value: 0 }, ARITY)
                .unwrap(),
        );
        let batch = BatchCounter::new(ns, u64::MAX, 0, ARITY);
        let scan = ParallelScan::new(batch, 4, 64);
        assert!(scan.can_shard(), "file tees shard via per-reader spools");

        let mut batch = scan.batch;
        batch.split_writer = Some(
            staging
                .start_file(vec![NodeId(9)], Pred::True, ARITY)
                .unwrap(),
        );
        let scan = ParallelScan::new(batch, 4, 64);
        assert!(
            !scan.can_shard(),
            "the hybrid split file still needs the single producer stream"
        );
    }

    /// Bit-identity of a sharded *file* tee: replaying per-reader spools in
    /// range order through the real writer must produce the exact staged
    /// file the serial tee writes — and the same counts.
    #[test]
    fn sharded_file_tee_reproduces_serial_file_bytes() {
        use crate::request::NodeId;
        let data = rows(600, 43);
        // 19 rows per source extent, 23 per tee extent: neither divides the
        // other or the row count, so every boundary case is exercised.
        let (_src, layout) = staged_layout(&data, 19);
        let tee_pred = Pred::Eq { col: 0, value: 0 };

        let staged_file_bytes = |batch: BatchCounter,
                                 staging: &mut crate::staging::StagingManager|
         -> (Vec<u8>, CountsTable) {
            let mut batch = batch;
            let mut stats = MiddlewareStats::new();
            let w = batch.nodes[1].file_writer.take().unwrap();
            let id = staging.commit_file(w, &mut stats).unwrap();
            let path = staging.extent_layout(id).unwrap().unwrap().path;
            (std::fs::read(path).unwrap(), batch.nodes[1].cc.clone())
        };

        // Serial reference.
        let mut serial_staging = crate::staging::StagingManager::new(None).unwrap();
        serial_staging.set_extent_rows(23);
        let mut ns = nodes();
        ns[1].file_writer = Some(
            serial_staging
                .start_file(vec![NodeId(1)], tee_pred.clone(), ARITY)
                .unwrap(),
        );
        let mut serial_batch = BatchCounter::new(ns, u64::MAX, 0, ARITY);
        let mut stats = MiddlewareStats::new();
        for r in &data {
            serial_batch.process_row(r, &mut stats).unwrap();
        }
        let (serial_bytes, serial_cc) = staged_file_bytes(serial_batch, &mut serial_staging);

        // Sharded readers with per-reader spools.
        for workers in [2usize, 4, 7] {
            let mut staging = crate::staging::StagingManager::new(None).unwrap();
            staging.set_extent_rows(23);
            let mut ns = nodes();
            ns[1].file_writer = Some(
                staging
                    .start_file(vec![NodeId(1)], tee_pred.clone(), ARITY)
                    .unwrap(),
            );
            let batch = BatchCounter::new(ns, u64::MAX, 0, ARITY);
            let mut scan = ParallelScan::new(batch, workers, 64);
            assert!(scan.can_shard());
            scan.scan_extent_file(&layout).unwrap();
            let mut st = MiddlewareStats::new();
            let batch = scan.finish(&mut st).unwrap();
            let (sharded_bytes, sharded_cc) = staged_file_bytes(batch, &mut staging);
            assert_eq!(
                serial_bytes, sharded_bytes,
                "{workers} readers: staged file is byte-identical"
            );
            assert_eq!(serial_cc, sharded_cc, "{workers} readers: counts agree");
        }
    }

    /// The batched kernel and the row path must merge to identical tables
    /// on both parallel feeds (channel workers and sharded extent
    /// readers), and the block counters must reflect which kernel ran.
    #[test]
    fn batched_kernel_matches_row_kernel_on_both_parallel_paths() {
        let data = rows(1200, 53);
        let serial = run(1, 0, &data);
        let (_staging, layout) = staged_layout(&data, 37);
        for kernel_on in [true, false] {
            // Channel pipeline.
            let mut batch = BatchCounter::new(nodes(), u64::MAX, 0, ARITY);
            batch.batch_kernel = kernel_on;
            let mut scan = ParallelScan::new(batch, 3, 64);
            feed(&mut scan, &data);
            let mut st = MiddlewareStats::new();
            let par = scan.finish(&mut st).unwrap();
            for (s, p) in serial.nodes.iter().zip(&par.nodes) {
                assert_eq!(s.cc, p.cc, "channel, kernel_on={kernel_on}");
            }
            if kernel_on {
                assert!(st.blocks_counted > 0, "channel blocks used the kernel");
            } else {
                assert_eq!(st.blocks_counted, 0, "kernel off: no block counting");
                assert_eq!(st.block_fallback_rows, 0, "kernel off: no fallback");
            }

            // Sharded extent readers.
            let mut batch = BatchCounter::new(nodes(), u64::MAX, 0, ARITY);
            batch.batch_kernel = kernel_on;
            let mut scan = ParallelScan::new(batch, 4, 64);
            assert!(scan.can_shard());
            scan.scan_extent_file(&layout).unwrap();
            let mut st = MiddlewareStats::new();
            let par = scan.finish(&mut st).unwrap();
            for (s, p) in serial.nodes.iter().zip(&par.nodes) {
                assert_eq!(s.cc, p.cc, "sharded, kernel_on={kernel_on}");
            }
            if kernel_on {
                assert!(st.blocks_counted > 0, "sharded readers used the kernel");
            } else {
                assert_eq!(st.blocks_counted, 0);
            }
        }
    }

    /// A budget that fits the real table but never the per-block growth
    /// bound makes every reservation gate fail: blocks take the exact row
    /// path (recorded in `block_fallback_rows`) and counts are untouched.
    #[test]
    fn reservation_gate_falls_back_to_rows_without_changing_counts() {
        let data = rows(400, 59);
        let mut serial =
            BatchCounter::new(vec![NodeCounter::new(root_request())], u64::MAX, 0, ARITY);
        let mut stats = MiddlewareStats::new();
        for r in &data {
            serial.process_row(r, &mut stats).unwrap();
        }
        // Root table tops out at 16 entries (768 B) but a 64-row block
        // reserves 64 * 2 * CC_ENTRY_BYTES = 6144 B — the gate always
        // loses, the row path never does.
        let budget = 2048;
        let batch = BatchCounter::new(vec![NodeCounter::new(root_request())], budget, 0, ARITY);
        let mut scan = ParallelScan::new(batch, 2, 64);
        feed(&mut scan, &data);
        let mut st = MiddlewareStats::new();
        let par = scan.finish(&mut st).unwrap();
        assert!(!par.nodes[0].fallback, "row path fits the budget fine");
        assert_eq!(serial.nodes[0].cc, par.nodes[0].cc);
        assert_eq!(st.blocks_counted, 0, "no block cleared the gate");
        assert_eq!(st.block_fallback_rows, 400, "every row was gated back");
    }

    #[test]
    fn row_sink_modes_agree() {
        let data = rows(400, 31);
        let cfg_serial = MiddlewareConfig::builder().scan_workers(1).build();
        let cfg_par = MiddlewareConfig::builder()
            .scan_workers(4)
            .scan_block_rows(64)
            .build();
        let mut out = Vec::new();
        for cfg in [&cfg_serial, &cfg_par] {
            let mut stats = MiddlewareStats::new();
            let mut sink = RowSink::new(BatchCounter::new(nodes(), u64::MAX, 0, ARITY), cfg);
            assert_eq!(sink.nodes().len(), 4);
            // Source blocks of 150 rows: neither sink's own granularity.
            for flat in flat(&data).chunks(150 * ARITY) {
                let mut block = RowBlock { flat, arity: ARITY };
                sink.process_block(&mut block, &mut stats).unwrap();
            }
            let batch = sink.finish(&mut stats).unwrap();
            assert_eq!(stats.scan_rows, 400);
            out.push(batch);
        }
        for (s, p) in out[0].nodes.iter().zip(&out[1].nodes) {
            assert_eq!(s.cc, p.cc);
        }
    }
}
