//! Parallel counting for the execution module (§4.1.1 at scale).
//!
//! The serial [`BatchCounter`] routes every source row to its scheduled
//! node and counts it on the thread that owns the scan. Counting is
//! additive, so a scan can be split: workers — each a copy of the serial
//! counter (`BatchCounter::worker`), fed through the same
//! `BatchCounter::process` — count disjoint parts of the source into
//! private tables, and the tables merged in worker order
//! ([`CountsTable::merge`](crate::cc::CountsTable::merge)) are the ones
//! one serial pass over the same rows builds.
//!
//! ## Only a scan that cannot reach the budget
//!
//! The §4.1.1 budget protocol — evict cached sets, then switch a node to
//! SQL; cancel a memory tee that no longer fits — fires at a row, and
//! which row depends on everything counted before it. Workers deciding it
//! each against the others' progress would make it depend on thread
//! timing, so they never decide it. `RowSink::certify` builds a
//! `ParallelScan` only when `BatchCounter::cannot_reach_budget`
//! proves, from the scan's range certificate and row count, that no row
//! of it can fire any of those events. Then the serial scan fires none
//! either and peaks at its final state; the workers count under no budget
//! and their merge is that final state, observed once. Every other scan
//! counts serially, through the one protocol in `executor.rs`. So counts,
//! fallback flags and every logical stat are those of `scan_workers = 1`,
//! at any budget. The same proof is what lets a batch take a node's classes
//! from its parent's table and its sibling's instead of counting them
//! (`crate::siblings`): every worker carries the node's plan and counts only
//! the classes it counts, and `RowSink::finish` completes the merged tables.
//!
//! ## Two ways to feed the workers
//!
//! * **Channel.** The session's one scan loop reads blocks from whatever
//!   source the batch was scheduled on (server cursor, extent file, memory
//!   set) and pushes them into `RowSink::process_block`. The coordinator
//!   routes each source block once and tees its selections where staging
//!   demands, through the serial block path's own tee (`BatchCounter::tee`)
//!   — in source order, so files are byte-identical to the serial path's,
//!   and from one writer, which needs no synchronisation — then re-packs
//!   the rows (transposing an extent on the way) into row-major blocks of
//!   [`MiddlewareConfig::scan_block_rows`] and sends those through a
//!   *bounded* channel, so a fast producer cannot outrun slow workers by
//!   more than a few blocks. Channel workers have no tees.
//! * **Sharded extent readers.** A batch sourced from an extent-format
//!   staging file ([`ExtentLayout`]) is read by `scan_workers` reader
//!   threads, each owning a disjoint contiguous extent range: it seeks
//!   straight to its extents (offsets are computable because all but the
//!   last are full-sized), verifies and decodes them into its own column
//!   buffers and counts each as one column-major block — I/O, decode and
//!   counting scale together, with no producer and no channel hop. A
//!   reader's memory tee is its node's range-local `mem_buffer`, its file
//!   tees — each node's file and the hybrid split file — private spools
//!   (`crate::staging::FileWriter::spool`); readers are joined in range
//!   order, which is file order, and the buffers concatenated and the
//!   spools appended in that order reproduce the serial tee's bytes
//!   exactly.

use crate::config::MiddlewareConfig;
use crate::error::{MwError, MwResult};
use crate::executor::{BatchCounter, Block, ColBlock, NodeCounter, RowBlock};
use crate::metrics::{MiddlewareStats, WorkerScanStats};
use crate::siblings::Plan;
use crate::staging::{ExtentLayout, ExtentReader, FileWriter, FILE_HEADER_BYTES};
use crossbeam_channel::{bounded, Receiver, Sender};
use scaleclass_sqldb::types::{Code, CODE_BYTES};
use scaleclass_sqldb::Pred;
use std::thread::JoinHandle;
use std::time::Instant;

/// One worker of a parallel scan: a copy of the serial counter, and what
/// it did — its block-kernel counters and timers, `scan_rows` for the rows
/// it counted and `kernel_nanos` for the time it spent counting them.
struct Worker {
    counter: BatchCounter,
    stats: MiddlewareStats,
}

impl Worker {
    fn new(counter: BatchCounter) -> Self {
        Worker {
            counter,
            stats: MiddlewareStats::new(),
        }
    }

    /// Count one block through the serial counter's own path.
    fn count(&mut self, block: &mut impl Block) -> MwResult<()> {
        let t0 = Instant::now();
        self.stats.scan_rows += block.nrows() as u64;
        let counted = self.counter.process(block, &mut self.stats);
        self.stats.kernel_nanos += t0.elapsed().as_nanos() as u64;
        counted
    }
}

/// Channel-worker body: count every block the coordinator sends.
fn count_channel(rx: Receiver<Vec<Code>>, mut worker: Worker) -> MwResult<Worker> {
    let arity = worker.counter.arity;
    for flat in rx.iter() {
        worker.count(&mut RowBlock { flat: &flat, arity })?;
    }
    Ok(worker)
}

/// Reader-thread body for the sharded file scan: verify and decode the
/// extents of `range` into column buffers reused across extents, and count
/// each as one block.
fn read_extents(
    layout: ExtentLayout,
    range: std::ops::Range<u64>,
    mut worker: Worker,
) -> MwResult<(Worker, WorkerScanStats)> {
    let mut reader = ExtentReader::open(&layout)?;
    let mut io = WorkerScanStats::default();
    let (mut cols, mut row) = (Vec::new(), Vec::new());
    for k in range {
        let nrows = reader.decode_extent_columns(k, &mut cols, &mut io)?;
        worker.count(&mut ColBlock {
            cols: &cols,
            nrows,
            row: &mut row,
        })?;
    }
    Ok((worker, io))
}

/// The spawned channel pipeline: a bounded block channel plus its worker
/// threads. Spawned lazily on the first block so a batch that goes down
/// the sharded-reader path never pays for idle channel workers.
struct Pipeline {
    tx: Sender<Vec<Code>>,
    workers: Vec<JoinHandle<MwResult<Worker>>>,
}

impl Pipeline {
    fn spawn(batch: &BatchCounter, workers: usize) -> Self {
        // Two blocks of headroom per worker: enough to keep everyone busy,
        // small enough that backpressure kicks in within milliseconds.
        let (tx, rx) = bounded(workers * 2);
        let workers = (0..workers)
            .map(|_| {
                let (rx, worker) = (rx.clone(), Worker::new(batch.worker()));
                std::thread::spawn(move || count_channel(rx, worker))
            })
            .collect();
        Pipeline { tx, workers }
    }
}

/// A parallel counting pass over a batch `RowSink::certify` proved
/// cannot reach its budget — the only place one is built. The batch itself
/// stays with the sink, which hands it in for the tees and the merge.
pub(crate) struct ParallelScan {
    /// Worker threads to run.
    workers: usize,
    /// Does the batch tee at all (a file or memory tee, the split file, or
    /// the kept rows of a compaction)?
    teeing: bool,
    pipeline: Option<Pipeline>,
    /// Workers that have finished: the sharded readers, in range order.
    done: Vec<Worker>,
    /// Block under construction (flat codes).
    block: Vec<Code>,
    block_codes: usize,
}

impl ParallelScan {
    /// A pass of `workers` threads over `batch`, re-packing channel blocks
    /// of `block_rows` rows. Threads are not spawned until rows arrive:
    /// the channel pipeline spins up on the first full block, and
    /// `ParallelScan::scan_extent_file` spawns reader threads instead.
    fn new(batch: &BatchCounter, workers: usize, block_rows: usize) -> Self {
        let teeing = batch.split_writer.is_some()
            || batch.kept.is_some()
            || (batch.nodes.iter()).any(|n| n.file_writer.is_some() || n.mem_buffer.is_some());
        let block_codes = block_rows.max(1) * batch.arity;
        ParallelScan {
            workers,
            teeing,
            pipeline: None,
            done: Vec::new(),
            block: Vec::with_capacity(block_codes),
            block_codes,
        }
    }

    /// Scan an extent-format staging file with per-worker reader threads:
    /// each owns a disjoint contiguous extent range, decodes locally, and
    /// counts into its own copy of `batch` — no producer thread, no
    /// channel hop. Returns per-reader I/O counters (range order); the
    /// counts are merged by `ParallelScan::finish`.
    fn scan_extent_file(
        &mut self,
        batch: &BatchCounter,
        layout: &ExtentLayout,
    ) -> MwResult<Vec<WorkerScanStats>> {
        let extents = layout.extents;
        let n = self.workers.min(extents.max(1) as usize).max(1);
        let base = extents / n as u64;
        let rem = (extents % n as u64) as usize;
        // Every reader's tees — range-local memory buffers, file spools
        // beside the staged files — exist before any thread runs, so a
        // filesystem failure aborts cleanly with no thread in flight.
        let spool = |w: &Option<FileWriter>| w.as_ref().map(FileWriter::spool).transpose();
        let mut readers = Vec::with_capacity(n);
        for _ in 0..n {
            let mut counter = batch.worker();
            for (node, mine) in batch.nodes.iter().zip(&mut counter.nodes) {
                mine.mem_buffer = node.mem_buffer.as_ref().map(|_| Vec::new());
                mine.file_writer = spool(&node.file_writer)?;
            }
            counter.split_writer = spool(&batch.split_writer)?;
            readers.push(Worker::new(counter));
        }
        let mut start = 0u64;
        let handles: Vec<_> = (readers.into_iter().enumerate())
            .map(|(w, worker)| {
                let len = base + u64::from(w < rem);
                let range = start..start + len;
                start += len;
                let layout = layout.clone();
                std::thread::spawn(move || read_extents(layout, range, worker))
            })
            .collect();
        let mut io = Vec::with_capacity(n);
        let mut first_err: Option<MwError> = None;
        // Join every reader (even after an error — no detached threads
        // holding the file), keep the first failure.
        for h in handles {
            let joined = h
                .join()
                .unwrap_or_else(|_| Err(MwError::Internal("extent reader panicked".into())));
            match joined {
                Ok((worker, reader_io)) => {
                    io.push(reader_io);
                    self.done.push(worker);
                }
                Err(e) => {
                    first_err.get_or_insert(e);
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
        Ok(io)
    }

    /// Feed one source block, in whichever layout: tee its selections
    /// where staging demands (`BatchCounter::tee`; the proof left the
    /// buffers room for every row), and re-pack the rows — a column-major
    /// block is transposed on the way — into row-major `scan_block_rows`
    /// blocks for the workers (blocking when the pipeline is full). Source
    /// blocks need not match the pipeline's block size — a wire fetch or
    /// an extent is whatever size its source made it.
    fn process_block(&mut self, batch: &mut BatchCounter, block: &mut impl Block) -> MwResult<()> {
        if self.teeing {
            batch.route(block);
            batch.tee(block)?;
        }
        block.for_each_row(None, |row| {
            self.block.extend_from_slice(row);
            if self.block.len() >= self.block_codes {
                self.flush_block(batch)?;
            }
            Ok(())
        })
    }

    fn flush_block(&mut self, batch: &BatchCounter) -> MwResult<()> {
        if self.block.is_empty() {
            return Ok(());
        }
        let block = std::mem::replace(&mut self.block, Vec::with_capacity(self.block_codes));
        let workers = self.workers;
        self.pipeline
            .get_or_insert_with(|| Pipeline::spawn(batch, workers))
            .tx
            .send(block)
            .map_err(|_| MwError::Internal("scan worker pool disconnected".into()))
    }

    /// Close the pass: drain the last block, join whichever workers ran
    /// (channel or sharded readers), and fold them into `batch` in worker
    /// order — tables merged, memory-tee buffers concatenated, file spools
    /// appended, block counters added to `stats` — then observe memory
    /// once: the proof made the merged state the scan's peak.
    fn finish(mut self, batch: &mut BatchCounter, stats: &mut MiddlewareStats) -> MwResult<()> {
        self.flush_block(batch)?;
        let mut workers = std::mem::take(&mut self.done);
        if let Some(pipe) = self.pipeline.take() {
            drop(pipe.tx); // disconnect → workers drain and exit
            let joined: Vec<_> = pipe.workers.into_iter().map(JoinHandle::join).collect();
            for worker in joined {
                workers
                    .push(worker.map_err(|_| MwError::Internal("scan worker panicked".into()))??);
            }
        }
        let mut worker_rows_max = 0u64;
        for Worker { counter, stats: w } in workers {
            stats.blocks_counted += w.blocks_counted;
            stats.block_fallback_rows += w.block_fallback_rows;
            stats.kernel_validate_nanos += w.kernel_validate_nanos;
            stats.kernel_accumulate_nanos += w.kernel_accumulate_nanos;
            stats.kernel_nanos += w.kernel_nanos;
            worker_rows_max = worker_rows_max.max(w.scan_rows);
            for (node, part) in batch.nodes.iter_mut().zip(counter.nodes) {
                node.cc.merge(part.cc);
                if let (Some(buf), Some(rows)) = (node.mem_buffer.as_mut(), part.mem_buffer) {
                    buf.extend_from_slice(&rows);
                    batch.buffer_bytes += (rows.len() * CODE_BYTES) as u64;
                }
                if let (Some(w), Some(spool)) = (node.file_writer.as_mut(), part.file_writer) {
                    w.append(spool)?;
                }
            }
            if let (Some(w), Some(spool)) = (batch.split_writer.as_mut(), counter.split_writer) {
                w.append(spool)?;
            }
        }
        batch.cc_bytes = batch.nodes.iter().map(|n| n.cc.memory_bytes()).sum();
        debug_assert!(
            batch.memory_in_use() <= batch.budget,
            "a parallel scan the proof cleared reached the budget"
        );
        stats.observe_memory(batch.memory_in_use());
        stats.parallel_scans += 1;
        stats.scan_worker_rows_max = stats.scan_worker_rows_max.max(worker_rows_max);
        Ok(())
    }
}

// No Drop impl needed for the error path: dropping a `ParallelScan` drops
// its `Sender`, the disconnect wakes every worker out of `recv`, and the
// detached join handles let the threads exit on their own.

/// A batch's counting pass behind one block interface: the serial
/// [`BatchCounter`], or — once `RowSink::certify` has proved the scan
/// cannot reach the budget and the configuration allows more than one
/// thread — a `ParallelScan` of copies of it. The scan loop pushes
/// blocks and never knows which one runs.
pub struct RowSink {
    batch: BatchCounter,
    /// Threads the configuration allows a scan (`scan_workers`).
    workers: usize,
    /// Rows per channel block (`scan_block_rows`).
    block_rows: usize,
    parallel: Option<ParallelScan>,
    /// Rows fed so far.
    rows: u64,
    /// Scan start, for `scan_nanos`.
    started: Instant,
}

impl RowSink {
    /// Wrap a batch for a scan the configuration may run on
    /// `scan_workers` threads. It counts serially unless
    /// `RowSink::certify` proves the scan cannot reach the budget.
    pub fn new(batch: BatchCounter, config: &MiddlewareConfig) -> Self {
        RowSink {
            batch,
            workers: config.scan_workers,
            block_rows: config.scan_block_rows,
            parallel: None,
            rows: 0,
            started: Instant::now(),
        }
    }

    /// The scheduled nodes (read access for aux construction).
    pub fn nodes(&self) -> &[NodeCounter] {
        &self.batch.nodes
    }

    /// The filter a server scan pushes down: the paths of the nodes whose
    /// rows it counts or stages (`BatchCounter::pushdown`). Only after
    /// `RowSink::certify`, which attaches the plans it depends on.
    pub(crate) fn pushdown(&mut self) -> Pred {
        debug_assert_eq!(self.rows, 0, "pushed down after the first block");
        self.batch.pushdown()
    }

    /// Start the scan, before the first block: it reads at most `rows`
    /// rows of a source table at mutation `epoch`, and every code of them
    /// lies at or under `certificate`, per column (the table's range
    /// certificate). `plans` are the batch's derivations, per node, that
    /// this scan can keep (`crate::siblings::Parents::plan`). When some
    /// plan is made or more than one worker is configured, the scan tries
    /// to prove it fires no budget event
    /// (`BatchCounter::cannot_reach_budget`). Proved, the nodes take their
    /// plans, and the scan runs in parallel if more than one worker is
    /// configured; otherwise it counts serially, every node in every
    /// class, and each plan that takes classes from a sibling counts into
    /// `stats.derivations_refused`. Returns whether the scan must read its
    /// source: not when the plans settle every node without a row
    /// (`BatchCounter::reads_nothing`), which counts into
    /// `stats.unread_batches` and starts no worker.
    pub(crate) fn certify(
        &mut self,
        certificate: &[Code],
        rows: u64,
        epoch: u64,
        plans: Vec<Option<Plan>>,
        stats: &mut MiddlewareStats,
    ) -> bool {
        debug_assert_eq!(self.rows, 0, "certified after the first block");
        let batch = &mut self.batch;
        batch.certify(certificate);
        batch.epoch = epoch;
        let planned = plans.iter().any(Option::is_some);
        let proved = (self.workers > 1 || planned) && batch.cannot_reach_budget(rows);
        if proved {
            for (node, plan) in batch.nodes.iter_mut().zip(plans) {
                node.plan = plan;
            }
        } else {
            let derived = plans.iter().flatten().filter(|p| p.sibling.is_some());
            stats.derivations_refused += derived.count() as u64;
        }
        if batch.reads_nothing() {
            stats.unread_batches += 1;
            return false;
        }
        if proved && self.workers > 1 {
            let scan = ParallelScan::new(&self.batch, self.workers, self.block_rows);
            self.parallel = Some(scan);
        }
        true
    }

    /// Feed a block, in whichever layout its source has, through the
    /// counting pass: the serial counter takes it whole; a parallel pass
    /// tees and re-packs it for its workers.
    pub(crate) fn process_block(
        &mut self,
        block: &mut impl Block,
        stats: &mut MiddlewareStats,
    ) -> MwResult<()> {
        self.rows += block.nrows() as u64;
        match self.parallel.as_mut() {
            Some(scan) => scan.process_block(&mut self.batch, block),
            None => self.batch.process(block, stats),
        }
    }

    /// Serve an extent-format staging file with sharded reader threads, if
    /// this pass is parallel and nothing has been fed yet. Returns the
    /// per-reader I/O counters on success, `None` when the caller should
    /// feed blocks through `RowSink::process_block` instead.
    pub fn try_scan_extents(
        &mut self,
        layout: &ExtentLayout,
    ) -> MwResult<Option<Vec<WorkerScanStats>>> {
        match self.parallel.as_mut() {
            Some(scan) if self.rows == 0 => {
                let io = scan.scan_extent_file(&self.batch, layout)?;
                self.rows += layout.nrows;
                Ok(Some(io))
            }
            _ => Ok(None),
        }
    }

    /// Finish the pass — join and merge a parallel one, then derive the
    /// tables the batch planned to derive (`BatchCounter::derive`) — and
    /// recover the batch for completion bookkeeping.
    pub fn finish(self, stats: &mut MiddlewareStats) -> MwResult<BatchCounter> {
        let RowSink {
            mut batch,
            parallel,
            rows,
            started,
            ..
        } = self;
        if let Some(scan) = parallel {
            scan.finish(&mut batch, stats)?;
        }
        batch.derive(stats)?;
        batch.debug_assert_parent_bounds();
        stats.scan_rows += rows;
        stats.scan_nanos += started.elapsed().as_nanos() as u64;
        Ok(batch)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cc::{ClassSource, CountsTable, CC_ENTRY_BYTES};
    use crate::request::{CcRequest, Lineage, NodeId};
    use crate::siblings::Parents;
    use scaleclass_sqldb::Pred;
    use std::sync::Arc;

    const ARITY: usize = 3; // attrs 0,1 + class 2

    /// The range certificate of every row `rows()` draws.
    const CERT: [Code; ARITY] = [3, 3, 1];

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

    /// A sink over `batch` allowed `workers` threads and channel blocks of
    /// `block_rows`, certified for a scan of `nrows` rows of `rows()`.
    fn certified(batch: BatchCounter, workers: usize, block_rows: usize, nrows: usize) -> RowSink {
        let config = MiddlewareConfig::builder()
            .scan_workers(workers)
            .scan_block_rows(block_rows)
            .build();
        let mut sink = RowSink::new(batch, &config);
        sink.certify(
            &CERT,
            nrows as u64,
            0,
            Vec::new(),
            &mut MiddlewareStats::new(),
        );
        sink
    }

    /// Feed the rows to the sink as one row-major block.
    fn feed(sink: &mut RowSink, data: &[[Code; 3]], stats: &mut MiddlewareStats) {
        let flat = flat(data);
        let mut block = RowBlock {
            flat: &flat,
            arity: ARITY,
        };
        sink.process_block(&mut block, stats).unwrap();
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
            let mut sink = certified(batch, workers, block_rows, data.len());
            feed(&mut sink, data, &mut stats);
            let batch = sink.finish(&mut stats).unwrap();
            assert_eq!(stats.parallel_scans, 1);
            batch
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

    /// A compacting batch keeps the same rows, in source order, whether it
    /// counts serially or on the channel pipeline's workers, which never
    /// see the list: the coordinator records it as it tees each block.
    #[test]
    fn a_compaction_keeps_the_same_rows_on_any_worker_count() {
        let data = rows(3000, 7);
        let kept = |workers: usize, block_rows: usize| {
            let mut batch = BatchCounter::new(nodes().split_off(1), u64::MAX, 0, ARITY);
            batch.kept = Some(Vec::new());
            let mut stats = MiddlewareStats::new();
            let mut sink = certified(batch, workers, block_rows, data.len());
            for part in data.chunks(500) {
                feed(&mut sink, part, &mut stats);
            }
            let batch = sink.finish(&mut stats).unwrap();
            assert_eq!(stats.parallel_scans, u64::from(workers > 1));
            batch.kept.unwrap()
        };
        let expected: Vec<u32> = (0..)
            .zip(&data)
            .filter(|(_, r)| r[0] <= 1 || r[1] != 3)
            .map(|(i, _)| i)
            .collect();
        assert!(expected.len() < data.len());
        assert_eq!(kept(1, 64), expected);
        for (workers, block_rows) in [(2, 64), (3, 17), (4, 1), (4, 4096)] {
            assert_eq!(kept(workers, block_rows), expected, "{workers} workers");
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
            let mut st = MiddlewareStats::new();
            let mut sink = certified(batch, workers, block, data.len());
            feed(&mut sink, &data, &mut st);
            let par = sink.finish(&mut st).unwrap();
            assert!(st.kernel_nanos > 0, "workers recorded kernel time");
            for (s, p) in serial_sparse.nodes.iter().zip(&par.nodes) {
                assert!(p.cc.is_dense(), "merge stayed on the dense fast path");
                assert_eq!(s.cc, p.cc, "{workers} workers, block {block}");
            }
        }
        // Sharded extent readers mint dense tables through the same
        // workers and merge to the identical table.
        let (_staging, layout) = staged_layout(&data, 37);
        let batch = BatchCounter::new(dense_nodes(), u64::MAX, 0, ARITY);
        let mut sink = certified(batch, 4, 64, data.len());
        assert!(sink.try_scan_extents(&layout).unwrap().is_some());
        let mut st = MiddlewareStats::new();
        let par = sink.finish(&mut st).unwrap();
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
        let mut sink = certified(batch, 2, 30, data.len());
        feed(&mut sink, &data, &mut stats);
        sink.finish(&mut stats).unwrap();
        assert_eq!(stats.parallel_scans, 1);
        assert_eq!(stats.scan_rows, 100);
        assert!(
            stats.scan_worker_rows_max >= 50,
            "someone did half the work"
        );
        assert!(stats.scan_worker_rows_max <= 100);
    }

    /// Feed `data` to a `BatchCounter` on its own and to a sink allowed
    /// `workers` threads, each over a fresh `batch()`; returns both
    /// counters and both stats, the sink's second.
    fn alone_and_sunk(
        batch: impl Fn() -> BatchCounter,
        workers: usize,
        data: &[[Code; 3]],
    ) -> [(BatchCounter, MiddlewareStats); 2] {
        let mut alone = batch();
        let mut alone_stats = MiddlewareStats::new();
        alone.certify(&CERT);
        let flat = flat(data);
        let mut block = RowBlock {
            flat: &flat,
            arity: ARITY,
        };
        alone.process(&mut block, &mut alone_stats).unwrap();
        let mut stats = MiddlewareStats::new();
        let mut sunk = certified(batch(), workers, 16, data.len());
        feed(&mut sunk, data, &mut stats);
        let sunk = sunk.finish(&mut stats).unwrap();
        [(alone, alone_stats), (sunk, stats)]
    }

    /// A budget the proof declines counts serially, through the one
    /// protocol: the wide root falls back where `BatchCounter` alone falls
    /// back, and no scan runs in parallel. A budget the proof clears —
    /// here exactly the root's most entries — runs in parallel.
    #[test]
    fn tiny_budget_triggers_fallback_not_wrong_counts() {
        let data = rows(500, 11);
        let root = |budget| {
            move || BatchCounter::new(vec![NodeCounter::new(root_request())], budget, 0, ARITY)
        };
        let [(alone, alone_stats), (sunk, stats)] = alone_and_sunk(root(96), 3, &data);
        assert!(sunk.nodes[0].fallback);
        assert_eq!(sunk.nodes[0].fallback, alone.nodes[0].fallback);
        assert_eq!(stats.sql_fallbacks, 1);
        assert_eq!(stats.sql_fallbacks, alone_stats.sql_fallbacks);
        assert!(sunk.nodes[0].cc.is_empty(), "partial table dropped");
        assert_eq!(stats.parallel_scans, 0, "the proof declined the batch");

        // 2 attributes x 4 values x 2 classes: 16 entries at most.
        let [(alone, _), (sunk, stats)] = alone_and_sunk(root(16 * CC_ENTRY_BYTES), 3, &data);
        assert_eq!(stats.parallel_scans, 1, "the proof cleared the batch");
        assert!(!sunk.nodes[0].fallback);
        assert_eq!(sunk.nodes[0].cc, alone.nodes[0].cc);
        assert_eq!(stats.peak_memory_bytes, 16 * CC_ENTRY_BYTES);
    }

    /// Under pressure a declined batch evicts exactly what `BatchCounter`
    /// alone evicts, in its order, before any fallback.
    #[test]
    fn pressure_evicts_cached_sets_before_falling_back() {
        let data = rows(200, 23);
        // Base memory nearly fills the budget, but the evictable pool can
        // release enough to count without any fallback.
        let budget = 64 * CC_ENTRY_BYTES;
        let batch = || {
            let root = vec![NodeCounter::new(root_request())];
            let mut batch = BatchCounter::new(root, budget, budget - 48, ARITY);
            batch.evictable = vec![(7, budget / 2), (9, budget / 4)];
            batch
        };
        let [(alone, alone_stats), (sunk, stats)] = alone_and_sunk(batch, 2, &data);
        assert_eq!(stats.parallel_scans, 0, "the proof declined the batch");
        assert!(!sunk.nodes[0].fallback, "evictions freed enough room");
        assert_eq!(sunk.evicted, [9], "popped from the end first");
        assert_eq!(sunk.evicted, alone.evicted);
        assert_eq!(stats.pressure_evictions, alone_stats.pressure_evictions);
        assert_eq!(stats.sql_fallbacks, alone_stats.sql_fallbacks);
        assert_eq!(sunk.nodes[0].cc.total(), 200);
        assert_eq!(sunk.nodes[0].cc, alone.nodes[0].cc);
    }

    /// A memory tee counts against the proof: a budget that holds the
    /// root's table but not the rows it stages counts serially, where the
    /// tee is cancelled exactly where `BatchCounter` alone cancels it.
    #[test]
    fn a_memory_tee_the_budget_cannot_hold_counts_serially() {
        let data = rows(500, 29);
        let budget = 16 * CC_ENTRY_BYTES + 100 * (ARITY * CODE_BYTES) as u64;
        let root = || {
            let mut node = NodeCounter::new(root_request());
            node.mem_buffer = Some(Vec::new());
            BatchCounter::new(vec![node], budget, 0, ARITY)
        };
        let [(alone, alone_stats), (sunk, stats)] = alone_and_sunk(root, 2, &data);
        assert_eq!(stats.parallel_scans, 0, "the proof counted the tee");
        assert!(alone.nodes[0].mem_buffer.is_none(), "the tee was cancelled");
        assert_eq!(sunk.nodes[0].mem_buffer, alone.nodes[0].mem_buffer);
        assert_eq!(sunk.buffer_bytes, alone.buffer_bytes);
        assert_eq!(sunk.nodes[0].cc, alone.nodes[0].cc);
        assert_eq!(stats.peak_memory_bytes, alone_stats.peak_memory_bytes);
    }

    /// Stage `data` into an extent-format file with `extent_rows` per
    /// extent; returns the manager (keeps the temp dir alive) and layout.
    fn staged_layout(
        data: &[[Code; 3]],
        extent_rows: usize,
    ) -> (crate::staging::StagingManager, crate::staging::ExtentLayout) {
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
            let mut sink = certified(batch, workers, 64, data.len());
            let io = sink.try_scan_extents(&layout).unwrap().unwrap();
            assert!(io.len() > 1, "{workers} workers actually sharded");
            let disk = std::fs::metadata(&layout.path).unwrap().len();
            assert_eq!(
                io.iter().map(|w| w.read_bytes).sum::<u64>(),
                disk,
                "per-reader bytes sum to the file size"
            );
            assert_eq!(io.iter().map(|w| w.rows).sum::<u64>(), 1000);
            let mut st = MiddlewareStats::new();
            let par = sink.finish(&mut st).unwrap();
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
        let mut sink = certified(batch, 4, 64, data.len());
        let sharded = sink.try_scan_extents(&layout).unwrap();
        assert!(sharded.is_some(), "memory tees shard fine");
        let mut st = MiddlewareStats::new();
        let batch = sink.finish(&mut st).unwrap();
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
        batch.assert_shadow_accounting();
    }

    /// Bit-identity of the hybrid split file: sharded readers spool the rows
    /// any node takes and append the spools in range order, the channel
    /// coordinator tees each source block's selections — either way the
    /// staged split file is the one the serial tee writes, beside a node
    /// file tee, with the same counts.
    #[test]
    fn sharded_split_file_reproduces_serial_file_bytes() {
        let data = rows(300, 47);
        let (_src, layout) = staged_layout(&data, 19);
        // The split and node files of a batch with no root: rows with
        // `a >= 2` and `b == 3` satisfy no node, so the split file skips them.
        let teeing_batch = |staging: &mut crate::staging::StagingManager| {
            staging.set_extent_rows(23);
            let mut ns = nodes();
            ns.remove(0);
            ns[0].file_writer = Some(
                staging
                    .start_file(vec![NodeId(1)], Pred::Eq { col: 0, value: 0 }, ARITY)
                    .unwrap(),
            );
            let mut batch = BatchCounter::new(ns, u64::MAX, 0, ARITY);
            batch.split_writer = Some(
                staging
                    .start_file(vec![NodeId(9)], Pred::True, ARITY)
                    .unwrap(),
            );
            batch
        };
        let staged = |mut batch: BatchCounter, staging: &mut crate::staging::StagingManager| {
            let mut stats = MiddlewareStats::new();
            let mut bytes = |w: FileWriter| {
                let id = staging.commit_file(w, &mut stats).unwrap();
                std::fs::read(staging.extent_layout(id).unwrap().unwrap().path).unwrap()
            };
            let node_file = bytes(batch.nodes[0].file_writer.take().unwrap());
            let split_file = bytes(batch.split_writer.take().unwrap());
            let counts: Vec<CountsTable> = batch.nodes.iter().map(|n| n.cc.clone()).collect();
            (node_file, split_file, counts)
        };

        let mut serial_staging = crate::staging::StagingManager::new(None).unwrap();
        let mut serial = teeing_batch(&mut serial_staging);
        let mut stats = MiddlewareStats::new();
        for r in &data {
            serial.process_row(r, &mut stats).unwrap();
        }
        let expected = staged(serial, &mut serial_staging);
        let skipped = data.iter().filter(|r| r[0] >= 2 && r[1] == 3).count();
        assert!(skipped > 0, "some rows stay out of the split file");

        for (workers, sharded) in [(2usize, true), (4, true), (7, true), (3, false)] {
            let mut staging = crate::staging::StagingManager::new(None).unwrap();
            let batch = teeing_batch(&mut staging);
            let mut sink = certified(batch, workers, 64, data.len());
            let mut st = MiddlewareStats::new();
            if sharded {
                assert!(sink.try_scan_extents(&layout).unwrap().is_some());
            } else {
                feed(&mut sink, &data, &mut st);
            }
            let batch = sink.finish(&mut st).unwrap();
            assert_eq!(st.parallel_scans, 1);
            assert_eq!(
                staged(batch, &mut staging),
                expected,
                "{workers} workers, sharded {sharded}: node file, split file and counts"
            );
        }
    }

    /// Bit-identity of a sharded *file* tee: appending per-reader spools in
    /// range order to the real writer must produce the exact staged file
    /// the serial tee writes — and the same counts.
    #[test]
    fn sharded_file_tee_reproduces_serial_file_bytes() {
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
            let mut sink = certified(batch, workers, 64, data.len());
            assert!(sink.try_scan_extents(&layout).unwrap().is_some());
            let mut st = MiddlewareStats::new();
            let batch = sink.finish(&mut st).unwrap();
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
            let mut st = MiddlewareStats::new();
            let mut sink = certified(batch, 3, 64, data.len());
            feed(&mut sink, &data, &mut st);
            let par = sink.finish(&mut st).unwrap();
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
            let mut sink = certified(batch, 4, 64, data.len());
            assert!(sink.try_scan_extents(&layout).unwrap().is_some());
            let mut st = MiddlewareStats::new();
            let par = sink.finish(&mut st).unwrap();
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

    /// The proof bounds the whole scan by what its tables can hold, the
    /// serial block gate each block by what its rows could add: a budget
    /// that fits the root's table but never a block's growth bound sends
    /// every serial block down the row path, and runs in parallel through
    /// the kernel — with the same counts and peak.
    #[test]
    fn a_budget_the_block_gate_refuses_still_runs_in_parallel() {
        let data = rows(400, 59);
        // The root table tops out at 16 entries (768 B), but a 16-row block
        // is bounded at 16 * 2 * CC_ENTRY_BYTES = 1536 B.
        let root = || BatchCounter::new(vec![NodeCounter::new(root_request())], 1024, 0, ARITY);
        let [(alone, alone_stats), (sunk, stats)] = alone_and_sunk(root, 2, &data);
        assert_eq!(alone_stats.blocks_counted, 0, "the gate refused the block");
        assert_eq!(alone_stats.block_fallback_rows, 400);
        assert_eq!(stats.parallel_scans, 1, "the proof cleared the batch");
        assert!(stats.blocks_counted > 0);
        assert_eq!(stats.block_fallback_rows, 0);
        assert!(!sunk.nodes[0].fallback);
        assert_eq!(sunk.nodes[0].cc, alone.nodes[0].cc);
        assert_eq!(stats.peak_memory_bytes, alone_stats.peak_memory_bytes);
    }

    /// The root's children on `a = 1` (over `b` alone, the split attribute
    /// pinned) and `a ≠ 1` (over both), dense, extended from `root`.
    fn children(root: &CcRequest) -> Vec<NodeCounter> {
        let child = |id: u64, pred: Pred, attrs: Vec<u16>| {
            let cards: Vec<(u16, u64)> = attrs.iter().map(|&a| (a, 4)).collect();
            let mut node = NodeCounter::new(CcRequest {
                lineage: root.lineage.child(NodeId(id), pred),
                attrs,
                ..root_request()
            });
            node.cc = CountsTable::new_dense(&cards, 2);
            node
        };
        let eq = child(1, Pred::Eq { col: 0, value: 1 }, vec![1]);
        let neq = child(2, Pred::NotEq { col: 0, value: 1 }, vec![0, 1]);
        vec![eq, neq]
    }

    /// The session's record of `root`'s exact table `parent`, counted at
    /// epoch 0, with `nodes`, its children, enqueued under it: each big
    /// enough to pin the table.
    fn remembered(root: &CcRequest, parent: &Arc<CountsTable>, nodes: &[NodeCounter]) -> Parents {
        let mut parents = Parents::default();
        parents.fulfilled(root, parent, 0);
        for node in nodes {
            parents.enqueued(&node.req);
        }
        parents
    }

    /// Certify `sink` for an exact scan of `rows` rows of `rows()` at
    /// `epoch`, with the plans `parents` makes for it. Planned as for a
    /// scan that reads no row over the wire, a pair chooses its sides by
    /// rows alone, whatever tees. Returns whether the scan must read.
    fn certify(
        sink: &mut RowSink,
        parents: &mut Parents,
        rows: usize,
        epoch: u64,
        stats: &mut MiddlewareStats,
    ) -> bool {
        let plans = parents.plan(sink.nodes(), &CERT, epoch, true, false, stats);
        sink.certify(&CERT, rows as u64, epoch, plans, stats)
    }

    /// Count `data` through a sink over `nodes` allowed `workers` threads,
    /// certified at `epoch` with the plans `parents` makes, under `budget`.
    fn sunk(
        parents: &mut Parents,
        nodes: Vec<NodeCounter>,
        workers: usize,
        budget: u64,
        epoch: u64,
        data: &[[Code; 3]],
    ) -> (BatchCounter, MiddlewareStats) {
        let config = MiddlewareConfig::builder()
            .scan_workers(workers)
            .scan_block_rows(16)
            .build();
        let mut sink = RowSink::new(BatchCounter::new(nodes, budget, 0, ARITY), &config);
        let mut stats = MiddlewareStats::new();
        certify(&mut sink, parents, data.len(), epoch, &mut stats);
        feed(&mut sink, data, &mut stats);
        let batch = sink.finish(&mut stats).unwrap();
        batch.assert_shadow_accounting();
        (batch, stats)
    }

    /// A planned node is derived after the scan — on one worker or four —
    /// into the table counting it builds, and leaves the batch in the
    /// state, and at the peak, counting it leaves; a scan whose budget
    /// proof fails, or whose table moved on since the parent was counted,
    /// counts it instead. The plan is the pair's of a staged scan: the `=`
    /// child, with fewer rows, counts every class, and the `≠` child is
    /// derived whole from it.
    #[test]
    fn a_planned_sibling_is_derived_under_the_proof_and_counted_without() {
        let data = rows(700, 61);
        let mut root = CountsTable::new_dense(&[(0, 4), (1, 4)], 2);
        for r in &data {
            root.add_row(r, &[0, 1], 2);
        }
        let parent = Arc::new(root);
        let req = root_request();
        let none = &mut Parents::default();
        let (counted, counted_stats) = sunk(none, children(&req), 1, u64::MAX, 0, &data);
        // Counted, the batch ends at `most`. The proof bounds each table by
        // its every slot — 8 and 16 — the `a ≠ 1` child's empty `a = 1`
        // ones included: a budget of `most` fails it, one of 24 entries
        // clears it.
        let most = counted.memory_in_use();
        for (workers, budget, epoch, derives) in [
            (1, u64::MAX, 0, true),
            (4, u64::MAX, 0, true),
            (1, 24 * CC_ENTRY_BYTES, 0, true),
            (1, most, 0, false),
            (4, u64::MAX, 1, false),
        ] {
            let what = format!("{workers} workers, budget {budget}, epoch {epoch}");
            let nodes = children(&req);
            let mut parents = remembered(&req, &parent, &nodes);
            let (batch, stats) = sunk(&mut parents, nodes, workers, budget, epoch, &data);
            for (c, b) in counted.nodes.iter().zip(&batch.nodes) {
                assert_eq!(b.cc, c.cc, "{what}");
                assert!(b.cc.is_dense() && b.plan.is_none() && !b.fallback, "{what}");
            }
            assert_eq!(batch.memory_in_use(), most, "{what}");
            assert_eq!(
                stats.peak_memory_bytes, counted_stats.peak_memory_bytes,
                "{what}"
            );
            assert_eq!(stats.derived_nodes, u64::from(derives), "{what}");
            let derived_rows = if derives {
                batch.nodes[1].cc.total()
            } else {
                0
            };
            assert_eq!(stats.derived_rows, derived_rows, "{what}");
            assert_eq!(stats.derivations_refused, u64::from(!derives), "{what}");
            assert_eq!(stats.parallel_scans, u64::from(workers > 1), "{what}");
        }
        assert_eq!(Arc::strong_count(&parent), 1, "no plan outlives its batch");
    }

    /// A pair whose children hold disjoint classes — every `a = 1` row is
    /// class 1, every other row class 0 — counts no class on either side:
    /// its certified scan reads nothing, on one worker or four, starts no
    /// worker, and finishing it without a block builds the tables, and
    /// reaches the peak, counting every row does. A node that tees into a
    /// memory set still needs its rows, so that batch reads them.
    #[test]
    fn a_batch_its_plans_settle_reads_nothing() {
        let data: Vec<[Code; 3]> = (rows(700, 73).into_iter())
            .map(|[a, b, _]| [a, b, u16::from(a == 1)])
            .collect();
        let mut root = CountsTable::new_dense(&[(0, 4), (1, 4)], 2);
        for r in &data {
            root.add_row(r, &[0, 1], 2);
        }
        let parent = Arc::new(root);
        let req = root_request();
        let none = &mut Parents::default();
        let (counted, counted_stats) = sunk(none, children(&req), 1, u64::MAX, 0, &data);
        for (workers, tee) in [(1, false), (4, false), (4, true)] {
            let what = format!("{workers} workers, tee {tee}");
            let mut nodes = children(&req);
            if tee {
                nodes[1].mem_buffer = Some(Vec::new());
            }
            let mut parents = remembered(&req, &parent, &nodes);
            let config = MiddlewareConfig::builder().scan_workers(workers).build();
            let batch = BatchCounter::new(nodes, u64::MAX, 0, ARITY);
            let mut sink = RowSink::new(batch, &config);
            let mut stats = MiddlewareStats::new();
            let reads = certify(&mut sink, &mut parents, data.len(), 0, &mut stats);
            assert_eq!(reads, tee, "{what}");
            if reads {
                feed(&mut sink, &data, &mut stats);
            }
            let batch = sink.finish(&mut stats).unwrap();
            for (c, b) in counted.nodes.iter().zip(&batch.nodes) {
                assert_eq!(b.cc, c.cc, "{what}");
            }
            // The `=` child copies its class from the parent, the `≠` child
            // is derived whole from it.
            let settled = (stats.derived_nodes, stats.sliced_nodes);
            assert_eq!(settled, (1, 1), "{what}");
            assert_eq!(stats.unread_batches, u64::from(!reads), "{what}");
            assert_eq!(stats.parallel_scans, u64::from(reads), "{what}");
            assert_eq!(stats.scan_rows, if reads { 700 } else { 0 }, "{what}");
            if !tee {
                let peak = counted_stats.peak_memory_bytes;
                assert_eq!(stats.peak_memory_bytes, peak, "{what}");
            }
        }
    }

    /// A scan carries no plan it cannot keep, and counts the refusal: not
    /// when its budget proof fails, when the table moved on since the
    /// parent was counted, or when its certificate escapes the parent's
    /// layout — here a parent counted over three values of `b`, which the
    /// certificate's four exceed. Each time the `≠` child, planned to be
    /// derived whole, is counted in every class.
    #[test]
    fn a_refused_plan_never_reaches_the_scan() {
        let data: Vec<[Code; 3]> = (rows(700, 71).into_iter())
            .map(|[a, b, k]| [a, b.min(2), k])
            .collect();
        let req = root_request();
        let (counted, _) = sunk(
            &mut Parents::default(),
            children(&req),
            1,
            u64::MAX,
            0,
            &data,
        );
        let most = counted.memory_in_use();
        for (why, budget, epoch, b_values) in [
            ("the proof fails", most, 0, 4),
            ("the epoch moved", u64::MAX, 1, 4),
            ("the certificate escapes the parent", u64::MAX, 0, 3),
        ] {
            let mut root = CountsTable::new_dense(&[(0, 4), (1, b_values)], 2);
            for r in &data {
                root.add_row(r, &[0, 1], 2);
            }
            let parent = Arc::new(root);
            let nodes = children(&req);
            let mut parents = remembered(&req, &parent, &nodes);
            let mut sink = RowSink::new(
                BatchCounter::new(nodes, budget, 0, ARITY),
                &MiddlewareConfig::default(),
            );
            let mut stats = MiddlewareStats::new();
            certify(&mut sink, &mut parents, data.len(), epoch, &mut stats);
            assert!(sink.nodes().iter().all(|n| n.plan.is_none()), "{why}");
            assert_eq!(stats.derivations_refused, 1, "{why}");
            feed(&mut sink, &data, &mut stats);
            let batch = sink.finish(&mut stats).unwrap();
            for (c, b) in counted.nodes.iter().zip(&batch.nodes) {
                assert_eq!(b.cc, c.cc, "{why}");
            }
            assert_eq!((stats.derived_nodes, stats.sliced_nodes), (0, 0), "{why}");
        }
    }

    /// A child whose complement holds class 0 only — every `a = 0` row is
    /// class 0 — is counted only in class 0 under the proof, on one worker
    /// or four: the pushed-down filter ships just those rows, the class-1
    /// slots are copied from the parent after the scan, and the table is
    /// the one counting every row builds. A node that tees into a memory
    /// set is still sliced, but shipped whole: its set gets every row. A
    /// scan whose proof fails, or whose table moved on since the parent was
    /// counted, slices nothing: it ships and counts every row of the node.
    #[test]
    fn a_slice_stands_under_the_proof_and_ships_only_the_classes_it_counts() {
        let data: Vec<[Code; 3]> = (rows(700, 67).into_iter())
            .map(|[a, b, k]| [a, b, if a == 0 { 0 } else { k }])
            .collect();
        let mut root = CountsTable::new_dense(&[(0, 4), (1, 4)], 2);
        for r in &data {
            root.add_row(r, &[0, 1], 2);
        }
        let parent = Arc::new(root);
        let req = root_request();
        let node = || {
            let mut node = NodeCounter::new(CcRequest {
                lineage: req
                    .lineage
                    .child(NodeId(2), Pred::NotEq { col: 0, value: 0 }),
                ..root_request()
            });
            node.cc = CountsTable::new_dense(&[(0, 4), (1, 4)], 2);
            node
        };
        let mine: Vec<[Code; 3]> = data.iter().filter(|r| r[0] != 0).copied().collect();
        let class_rows = |k| mine.iter().filter(|r| r[2] == k).count() as u64;
        let none = &mut Parents::default();
        let (counted, _) = sunk(none, vec![node()], 1, u64::MAX, 0, &mine);
        let most = counted.memory_in_use();
        for (workers, budget, epoch, slices, tees) in [
            (1, u64::MAX, 0, true, false),
            (4, u64::MAX, 0, true, false),
            (4, u64::MAX, 0, true, true),
            (1, most, 0, false, false),
            (4, u64::MAX, 1, false, false),
        ] {
            let what = format!("{workers} workers, budget {budget}, epoch {epoch}, tee {tees}");
            let mut sliced = node();
            if tees {
                sliced.mem_buffer = Some(Vec::new());
            }
            let mut parents = remembered(&req, &parent, std::slice::from_ref(&sliced));
            let config = MiddlewareConfig::builder()
                .scan_workers(workers)
                .scan_block_rows(16)
                .build();
            let batch = BatchCounter::new(vec![sliced], budget, 0, ARITY);
            let mut sink = RowSink::new(batch, &config);
            let mut stats = MiddlewareStats::new();
            certify(&mut sink, &mut parents, data.len(), epoch, &mut stats);
            if let Some(plan) = &sink.nodes()[0].plan {
                assert_eq!(plan.sources, [ClassSource::Counted, ClassSource::Parent]);
                assert_eq!(plan.rows, [class_rows(0), class_rows(1)]);
            }
            let filter = sink.pushdown();
            let shipped: Vec<[Code; 3]> = data
                .iter()
                .filter(|r| filter.eval(&r[..]))
                .copied()
                .collect();
            feed(&mut sink, &shipped, &mut stats);
            let batch = sink.finish(&mut stats).unwrap();
            batch.assert_shadow_accounting();
            assert_eq!(batch.nodes[0].cc, counted.nodes[0].cc, "{what}");
            if let Some(buf) = &batch.nodes[0].mem_buffer {
                assert_eq!(
                    buf.len(),
                    mine.len() * ARITY,
                    "{what}: the tee got every row"
                );
            } else {
                assert_eq!(batch.memory_in_use(), most, "{what}");
            }
            let unshipped = if slices && !tees { class_rows(1) } else { 0 };
            assert!(class_rows(0) > 0 && class_rows(1) > 0);
            assert_eq!(
                shipped.len() as u64 + unshipped,
                mine.len() as u64,
                "{what}"
            );
            assert_eq!(stats.sliced_nodes, u64::from(slices), "{what}");
            assert_eq!(stats.sliced_rows_unshipped, unshipped, "{what}");
        }
        assert_eq!(Arc::strong_count(&parent), 1, "no slice outlives its batch");
    }

    /// A server scan pushes down the paths of the nodes it counts or
    /// stages: a derived node's only when it tees — into its memory set,
    /// its staged file or the batch's split file. Fed just the rows the
    /// filter passes, the batch still derives the table counting reads,
    /// and charges it to `derived_rows_unshipped` exactly when it left the
    /// node out. The pair is planned by rows, whatever tees (`certify`):
    /// the `≠` child is derived whole from the `=` child.
    #[test]
    fn a_derived_node_is_shipped_only_when_it_tees() {
        let data = rows(700, 61);
        let mut root = CountsTable::new_dense(&[(0, 4), (1, 4)], 2);
        for r in &data {
            root.add_row(r, &[0, 1], 2);
        }
        let parent = Arc::new(root);
        let req = root_request();
        let none = &mut Parents::default();
        let (counted, _) = sunk(none, children(&req), 1, u64::MAX, 0, &data);
        let mut staging = crate::staging::StagingManager::new(None).unwrap();
        for tee in ["none", "memory", "file", "split"] {
            let mut nodes = children(&req);
            let mut parents = remembered(&req, &parent, &nodes);
            match tee {
                "memory" => nodes[1].mem_buffer = Some(Vec::new()),
                "file" => {
                    let pred = nodes[1].req.pred().clone();
                    let writer = staging.start_file(vec![NodeId(2)], pred, ARITY);
                    nodes[1].file_writer = Some(writer.unwrap());
                }
                _ => {}
            }
            let mut batch = BatchCounter::new(nodes, u64::MAX, 0, ARITY);
            if tee == "split" {
                let writer = staging.start_file(vec![NodeId(1), NodeId(2)], Pred::True, ARITY);
                batch.split_writer = Some(writer.unwrap());
            }
            let mut sink = RowSink::new(batch, &MiddlewareConfig::default());
            let mut stats = MiddlewareStats::new();
            certify(&mut sink, &mut parents, data.len(), 0, &mut stats);
            assert!(sink.nodes()[0].needs_rows(), "{tee}: the counted sibling");
            let tees_itself = tee == "memory" || tee == "file";
            assert_eq!(sink.nodes()[1].needs_rows(), tees_itself, "{tee}");
            let filter = sink.pushdown();
            let shipped: Vec<[Code; 3]> = data
                .iter()
                .filter(|r| filter.eval(&r[..]))
                .copied()
                .collect();
            feed(&mut sink, &shipped, &mut stats);
            let batch = sink.finish(&mut stats).unwrap();
            for (c, b) in counted.nodes.iter().zip(&batch.nodes) {
                assert_eq!(b.cc, c.cc, "{tee}");
            }
            let derived = batch.nodes[1].cc.total();
            assert_eq!(stats.derived_rows, derived, "{tee}");
            let unshipped = if tee == "none" { derived } else { 0 };
            assert_eq!(stats.derived_rows_unshipped, unshipped, "{tee}");
            assert_eq!(stats.scan_rows + unshipped, data.len() as u64, "{tee}");
            if let Some(buf) = &batch.nodes[1].mem_buffer {
                assert_eq!(
                    buf.len() as u64,
                    derived * ARITY as u64,
                    "the tee got every row"
                );
            }
        }
    }

    #[test]
    fn row_sink_modes_agree() {
        let data = rows(400, 31);
        let mut out = Vec::new();
        for workers in [1usize, 4] {
            let mut stats = MiddlewareStats::new();
            let batch = BatchCounter::new(nodes(), u64::MAX, 0, ARITY);
            let mut sink = certified(batch, workers, 64, data.len());
            assert_eq!(sink.nodes().len(), 4);
            // Source blocks of 150 rows: neither sink's own granularity.
            for flat in flat(&data).chunks(150 * ARITY) {
                let mut block = RowBlock { flat, arity: ARITY };
                sink.process_block(&mut block, &mut stats).unwrap();
            }
            let batch = sink.finish(&mut stats).unwrap();
            assert_eq!(stats.scan_rows, 400);
            assert_eq!(stats.parallel_scans, u64::from(workers > 1));
            out.push(batch);
        }
        for (s, p) in out[0].nodes.iter().zip(&out[1].nodes) {
            assert_eq!(s.cc, p.cc);
        }
    }
}
