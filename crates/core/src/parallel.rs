//! Sharded extent readers: the one parallel scan (§4.1.1 at scale).
//!
//! The serial [`BatchCounter`] routes every source row to its scheduled
//! node and counts it on the session thread. Counting is additive, so a
//! scan can be split: readers — each a copy of the serial counter
//! (`BatchCounter::worker`), fed through the same
//! `BatchCounter::process` — count disjoint parts of the source into
//! private tables, and the tables merged in reader order
//! ([`CountsTable::merge`](crate::cc::CountsTable::merge)) are the ones
//! one serial pass over the same rows builds.
//!
//! ## Only a staged-file scan that cannot reach the budget
//!
//! The §4.1.1 budget protocol — evict cached sets, then switch a node to
//! SQL; cancel a memory tee that no longer fits — fires at a row, and
//! which row depends on everything counted before it. Readers deciding it
//! each against the others' progress would make it depend on thread
//! timing, so they never decide it. `BatchCounter::certify` shards a scan
//! only when it is a scan of an extent-format staging file
//! ([`ExtentLayout`]) under `scan_workers > 1`, and
//! `BatchCounter::cannot_reach_budget` proves, from the scan's range
//! certificate and row count, that no row of it can fire any of those
//! events; the session then reads it on sharded readers if the file has
//! more than one extent to share out (`shards`). Then the serial scan
//! fires none either and peaks at its final state; the readers count
//! under no budget and their merge is that final state, observed once.
//! Every other scan — server, memory set, auxiliary structure —
//! counts on the session thread, through the one protocol in
//! `executor.rs`. So counts, fallback flags and every logical
//! stat are those of `scan_workers = 1`, at any budget. The same proof is
//! what lets a batch take a node's classes from its parent's table and its
//! sibling's instead of counting them (`crate::siblings`): every reader
//! carries the node's plan and counts only the classes it counts, and
//! `BatchCounter::derive` completes the merged tables.
//!
//! ## The readers
//!
//! `scan_extents` runs `scan_workers` reader threads, each owning a
//! disjoint contiguous extent range: it seeks straight to its extents
//! (offsets are computable because all but the last are full-sized),
//! verifies and decodes them into its own column buffers and counts each
//! as one column-major block — I/O, decode and counting scale together,
//! with no producer and no channel hop. A reader's memory tee is its
//! node's range-local `mem_buffer`, its file tees — each node's file and
//! the hybrid split file — private spools
//! (`crate::staging::FileWriter::spool`); readers are joined in range
//! order, which is file order, and the buffers concatenated and the
//! spools appended in that order reproduce the serial tee's bytes
//! exactly. Every reader is joined before `scan_extents` returns, so no
//! scan thread outlives its scan.

use crate::error::{MwError, MwResult};
use crate::executor::{BatchCounter, Block, ColBlock};
use crate::metrics::{MiddlewareStats, WorkerScanStats};
use crate::staging::{ExtentLayout, ExtentReader, FileWriter, MemRows, FILE_HEADER_BYTES};
use std::ops::Range;
use std::time::Instant;

/// One sharded reader: a copy of the serial counter, and what it did — its
/// block-kernel counters and timers, `scan_rows` for the rows it counted
/// and `kernel_nanos` for the time it spent counting them.
struct Reader {
    counter: BatchCounter,
    stats: MiddlewareStats,
}

impl Reader {
    /// Count one block through the serial counter's own path.
    fn count(&mut self, block: &mut impl Block) -> MwResult<()> {
        let t0 = Instant::now();
        self.stats.scan_rows += block.nrows() as u64;
        let counted = self.counter.process(block, &mut self.stats);
        self.stats.kernel_nanos += t0.elapsed().as_nanos() as u64;
        counted
    }
}

/// Reader-thread body: verify and decode the extents of `range` into column
/// buffers reused across extents, and count each as one block.
fn read_extents(
    layout: &ExtentLayout,
    range: Range<u64>,
    mut reader: Reader,
) -> MwResult<(Reader, WorkerScanStats)> {
    let mut file = ExtentReader::open(layout)?;
    let mut io = WorkerScanStats::default();
    let (mut cols, mut row) = (Vec::new(), Vec::new());
    for k in range {
        let nrows = file.decode_extent_columns(k, &mut cols, &mut io)?;
        reader.count(&mut ColBlock {
            cols: &cols,
            nrows,
            row: &mut row,
        })?;
    }
    Ok((reader, io))
}

/// May a scan of the extent-format staging file `layout` shard on
/// `workers` readers? Only when there are two readers and two extents to
/// share out: a file of one extent, or none, is read on the session
/// thread.
pub(crate) fn shards(layout: &ExtentLayout, workers: usize) -> bool {
    workers > 1 && layout.extents > 1
}

/// Count `batch` over the extent-format staging file `layout` on up to
/// `workers` reader threads, one disjoint contiguous extent range each —
/// a scan `BatchCounter::certify` returned `Scan::Sharded` for, over a
/// file [`shards`] allows. Joins every reader, then folds them into
/// `batch` in range order — tables merged, memory-tee buffers
/// concatenated, file spools appended, block counters added to `stats` —
/// and observes memory once: the proof made the merged state the scan's
/// peak. Returns the per-reader I/O counters, range order.
pub(crate) fn scan_extents(
    batch: &mut BatchCounter,
    layout: &ExtentLayout,
    workers: usize,
    stats: &mut MiddlewareStats,
) -> MwResult<Vec<WorkerScanStats>> {
    let extents = layout.extents;
    let n = workers.min(extents.max(1) as usize).max(1);
    let (base, rem) = (extents / n as u64, extents % n as u64);
    // Every reader's tees — range-local memory buffers, file spools beside
    // the staged files — exist before any thread runs, so a filesystem
    // failure aborts cleanly with no thread in flight.
    let spool = |w: &Option<FileWriter>| w.as_ref().map(FileWriter::spool).transpose();
    let mut readers = Vec::with_capacity(n);
    let mut start = 0u64;
    for w in 0..n as u64 {
        let mut counter = batch.worker();
        for (node, mine) in batch.nodes.iter().zip(&mut counter.nodes) {
            mine.mem_buffer = (node.mem_buffer.as_ref()).map(|b| MemRows::new(b.width()));
            mine.file_writer = spool(&node.file_writer)?;
        }
        counter.split_writer = spool(&batch.split_writer)?;
        let len = base + u64::from(w < rem);
        let reader = Reader {
            counter,
            stats: MiddlewareStats::new(),
        };
        readers.push((start..start + len, reader));
        start += len;
    }
    let joined: Vec<MwResult<(Reader, WorkerScanStats)>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (readers.into_iter())
            .map(|(range, reader)| scope.spawn(move || read_extents(layout, range, reader)))
            .collect();
        let panicked = || Err(MwError::Internal("extent reader panicked".into()));
        (handles.into_iter())
            .map(|h| h.join().unwrap_or_else(|_| panicked()))
            .collect()
    });
    // The first failure, in range order, once every reader is joined.
    let joined = joined.into_iter().collect::<MwResult<Vec<_>>>()?;
    let mut io = Vec::with_capacity(n);
    let mut rows_max = 0u64;
    for (Reader { counter, stats: r }, reader_io) in joined {
        io.push(reader_io);
        stats.blocks_counted += r.blocks_counted;
        stats.block_fallback_rows += r.block_fallback_rows;
        stats.kernel_validate_nanos += r.kernel_validate_nanos;
        stats.kernel_accumulate_nanos += r.kernel_accumulate_nanos;
        stats.kernel_nanos += r.kernel_nanos;
        stats.scan_rows += r.scan_rows;
        rows_max = rows_max.max(r.scan_rows);
        for (node, part) in batch.nodes.iter_mut().zip(counter.nodes) {
            node.cc.merge(part.cc);
            if let (Some(buf), Some(rows)) = (node.mem_buffer.as_mut(), part.mem_buffer) {
                buf.append(&rows);
                batch.buffer_bytes += rows.len_bytes() as u64;
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
        "a sharded scan the proof cleared reached the budget"
    );
    stats.observe_memory(batch.memory_in_use());
    stats.sharded_file_scans += 1;
    stats.scan_blocks += extents;
    stats.scan_worker_rows_max = stats.scan_worker_rows_max.max(rows_max);
    // The 16-byte file header was read once (layout detection); charge it
    // to reader 0 so per-reader bytes sum to the file size.
    if let Some(r0) = io.first_mut() {
        r0.read_bytes += FILE_HEADER_BYTES;
    }
    Ok(io)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cc::{ClassSource, CountsTable, CC_ENTRY_BYTES};
    use crate::executor::{NodeCounter, RowBlock, Scan};
    use crate::request::{CcRequest, Lineage, NodeId};
    use crate::session::drive;
    use crate::siblings::Parents;
    use crate::source::BlockSource;
    use crate::staging::{CodeWidth, StagingManager};
    use scaleclass_sqldb::types::Code;
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

    /// Stage `data` into an extent-format file with `extent_rows` per
    /// extent; returns the manager (keeps the temp dir alive) and layout.
    fn staged_layout(data: &[[Code; 3]], extent_rows: usize) -> (StagingManager, ExtentLayout) {
        let mut staging = StagingManager::new(None).unwrap();
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

    /// Certify `batch` for a scan at `epoch` of a staged file of
    /// `rows` rows of `rows()`, which may shard on `workers > 1` readers,
    /// with the plans `parents` makes for it — planned as for a scan that
    /// reads no row over the wire, a pair choosing its sides by rows alone,
    /// whatever tees. Returns how the scan reads.
    fn certify(
        batch: &mut BatchCounter,
        parents: &mut Parents,
        rows: usize,
        workers: usize,
        epoch: u64,
        stats: &mut MiddlewareStats,
    ) -> Scan {
        let plans = parents.plan(&batch.nodes, &CERT, epoch, false, stats);
        batch.certify(&CERT, rows as u64, epoch, plans, workers > 1, stats)
    }

    /// Read the staged file `layout` into the certified `batch` the way a
    /// session does: nothing when it is unread, on `workers` sharded
    /// readers when it shards and has extents to share out, through the
    /// serial scan loop otherwise — then complete the planned tables.
    fn read(
        batch: &mut BatchCounter,
        how: Scan,
        layout: &ExtentLayout,
        workers: usize,
        stats: &mut MiddlewareStats,
    ) {
        match how {
            Scan::Unread => {}
            Scan::Sharded if shards(layout, workers) => {
                scan_extents(batch, layout, workers, stats).unwrap();
            }
            Scan::Sharded | Scan::Serial => {
                let mut src = BlockSource::extents(layout).unwrap();
                drive(&mut src, batch, stats).unwrap();
            }
        }
        batch.derive(stats).unwrap();
    }

    /// Read `data` into the certified `batch` as a serial server scan does,
    /// in row-major blocks of 16 rows, then complete the planned tables.
    fn read_rows(batch: &mut BatchCounter, data: &[[Code; 3]], stats: &mut MiddlewareStats) {
        let flat = flat(data);
        drive(&mut BlockSource::flat(&flat, ARITY, 16), batch, stats).unwrap();
        batch.derive(stats).unwrap();
    }

    /// Count `data`, staged with `extent_rows` per extent, into `batch` on
    /// `workers` readers, with no plans. Returns how the scan read.
    fn scan(
        batch: &mut BatchCounter,
        data: &[[Code; 3]],
        extent_rows: usize,
        workers: usize,
        stats: &mut MiddlewareStats,
    ) -> Scan {
        let (_staging, layout) = staged_layout(data, extent_rows);
        let none = &mut Parents::default();
        let how = certify(batch, none, data.len(), workers, 0, stats);
        read(batch, how, &layout, workers, stats);
        how
    }

    fn nodes() -> Vec<NodeCounter> {
        vec![
            NodeCounter::new(root_request()),
            NodeCounter::new(request(1, Pred::Eq { col: 0, value: 0 })),
            NodeCounter::new(request(2, Pred::Eq { col: 0, value: 1 })),
            NodeCounter::new(request(3, Pred::NotEq { col: 1, value: 3 })),
        ]
    }

    /// `nodes()` counting `data` a row at a time on one worker, or on
    /// `workers` sharded readers of a file of `extent_rows` extents.
    fn run(workers: usize, extent_rows: usize, data: &[[Code; 3]]) -> BatchCounter {
        let mut batch = BatchCounter::new(nodes(), u64::MAX, 0, ARITY);
        let mut stats = MiddlewareStats::new();
        if workers == 1 {
            for r in data {
                batch.process_row(r, &mut stats).unwrap();
            }
        } else {
            let how = scan(&mut batch, data, extent_rows, workers, &mut stats);
            assert_eq!(how, Scan::Sharded);
            let sharded = data.len() > extent_rows;
            assert_eq!(
                stats.sharded_file_scans,
                u64::from(sharded),
                "{} rows",
                data.len()
            );
        }
        batch
    }

    #[test]
    fn parallel_counts_equal_serial() {
        let data = rows(3000, 7);
        let serial = run(1, 0, &data);
        for &(workers, extent) in &[(2usize, 64usize), (3, 17), (4, 1), (4, 4096)] {
            let par = run(workers, extent, &data);
            for (s, p) in serial.nodes.iter().zip(&par.nodes) {
                assert_eq!(s.cc, p.cc, "{workers} workers, extent {extent}");
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

    /// Sharded extent readers mint dense tables through the same counter
    /// and merge to the table a serial sparse count builds.
    #[test]
    fn dense_shards_merge_to_the_serial_sparse_result() {
        let data = rows(2000, 17);
        let serial_sparse = run(1, 0, &data);
        for &(workers, extent) in &[(2usize, 64usize), (4, 17), (4, 37)] {
            let mut par = BatchCounter::new(dense_nodes(), u64::MAX, 0, ARITY);
            let mut st = MiddlewareStats::new();
            assert_eq!(
                scan(&mut par, &data, extent, workers, &mut st),
                Scan::Sharded
            );
            assert!(st.kernel_nanos > 0, "readers recorded kernel time");
            for (s, p) in serial_sparse.nodes.iter().zip(&par.nodes) {
                assert!(p.cc.is_dense(), "merge stayed on the dense fast path");
                assert_eq!(s.cc, p.cc, "{workers} readers, extent {extent}");
            }
        }
    }

    /// A file of no extent or of one has nothing to share out: it is read
    /// on the session thread, and no reader is spawned.
    #[test]
    fn pipeline_handles_empty_and_tiny_inputs() {
        for data in [vec![], rows(1, 3), rows(8, 3)] {
            let mut batch = BatchCounter::new(nodes(), u64::MAX, 0, ARITY);
            let mut stats = MiddlewareStats::new();
            scan(&mut batch, &data, 8, 4, &mut stats);
            assert_eq!(stats.sharded_file_scans, 0, "{} rows", data.len());
            assert_eq!(stats.scan_worker_rows_max, 0, "{} rows", data.len());
            assert_eq!(batch.nodes[0].cc.total(), data.len() as u64);
        }
        let nine = run(4, 8, &rows(9, 3));
        assert_eq!(nine.nodes[0].cc.total(), 9, "two extents shard");
    }

    /// Two readers over ten extents count five each.
    #[test]
    fn stats_record_pipeline_shape() {
        let data = rows(100, 5);
        let mut batch = BatchCounter::new(nodes(), u64::MAX, 0, ARITY);
        let mut stats = MiddlewareStats::new();
        scan(&mut batch, &data, 10, 2, &mut stats);
        assert_eq!(stats.sharded_file_scans, 1);
        assert_eq!(stats.scan_rows, 100);
        assert_eq!(stats.scan_blocks, 10, "one block per extent");
        assert!(
            stats.scan_worker_rows_max >= 50,
            "someone did half the work"
        );
        assert!(stats.scan_worker_rows_max <= 100);
    }

    /// Feed `data` to a `BatchCounter` on its own, as one row-major block,
    /// and scan it from a staged file on `workers` readers, each over a
    /// fresh `batch()`; returns both counters and both stats, the scan's
    /// second.
    fn alone_and_scanned(
        batch: impl Fn() -> BatchCounter,
        workers: usize,
        data: &[[Code; 3]],
    ) -> [(BatchCounter, MiddlewareStats); 2] {
        let mut alone = batch();
        let mut alone_stats = MiddlewareStats::new();
        alone.set_certificate(&CERT);
        let flat = flat(data);
        let mut block = RowBlock {
            flat: &flat,
            arity: ARITY,
        };
        alone.process(&mut block, &mut alone_stats).unwrap();
        let mut stats = MiddlewareStats::new();
        let mut scanned = batch();
        scan(&mut scanned, data, 37, workers, &mut stats);
        [(alone, alone_stats), (scanned, stats)]
    }

    /// A budget the proof declines counts serially, through the one
    /// protocol: the wide root falls back where `BatchCounter` alone falls
    /// back, and no scan shards. A budget the proof clears — here exactly
    /// the root's most entries — shards.
    #[test]
    fn tiny_budget_triggers_fallback_not_wrong_counts() {
        let data = rows(500, 11);
        let root = |budget| {
            move || BatchCounter::new(vec![NodeCounter::new(root_request())], budget, 0, ARITY)
        };
        let [(alone, alone_stats), (sunk, stats)] = alone_and_scanned(root(96), 3, &data);
        assert!(sunk.nodes[0].fallback);
        assert_eq!(sunk.nodes[0].fallback, alone.nodes[0].fallback);
        assert_eq!(stats.sql_fallbacks, 1);
        assert_eq!(stats.sql_fallbacks, alone_stats.sql_fallbacks);
        assert!(sunk.nodes[0].cc.is_empty(), "partial table dropped");
        assert_eq!(stats.sharded_file_scans, 0, "the proof declined the batch");

        // 2 attributes x 4 values x 2 classes: 16 entries at most.
        let [(alone, _), (sunk, stats)] = alone_and_scanned(root(16 * CC_ENTRY_BYTES), 3, &data);
        assert_eq!(stats.sharded_file_scans, 1, "the proof cleared the batch");
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
        let [(alone, alone_stats), (sunk, stats)] = alone_and_scanned(batch, 2, &data);
        assert_eq!(stats.sharded_file_scans, 0, "the proof declined the batch");
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
        let budget = 16 * CC_ENTRY_BYTES + 100 * CodeWidth::One.row_bytes(ARITY);
        let root = || {
            let mut node = NodeCounter::new(root_request());
            node.mem_buffer = Some(MemRows::new(CodeWidth::One));
            BatchCounter::new(vec![node], budget, 0, ARITY)
        };
        let [(alone, alone_stats), (sunk, stats)] = alone_and_scanned(root, 2, &data);
        assert_eq!(stats.sharded_file_scans, 0, "the proof counted the tee");
        assert!(alone.nodes[0].mem_buffer.is_none(), "the tee was cancelled");
        assert_eq!(sunk.nodes[0].mem_buffer, alone.nodes[0].mem_buffer);
        assert_eq!(sunk.buffer_bytes, alone.buffer_bytes);
        assert_eq!(sunk.nodes[0].cc, alone.nodes[0].cc);
        assert_eq!(stats.peak_memory_bytes, alone_stats.peak_memory_bytes);
    }

    /// Certify `batch` for an unplanned scan of `rows` staged rows
    /// that may shard on `workers` readers: the proof clears it.
    fn certify_sharded(batch: &mut BatchCounter, rows: usize, workers: usize) {
        let mut stats = MiddlewareStats::new();
        let how = certify(batch, &mut Parents::default(), rows, workers, 0, &mut stats);
        assert_eq!(how, Scan::Sharded, "{workers} workers");
    }

    #[test]
    fn sharded_extent_scan_matches_serial_counts() {
        let data = rows(1000, 13);
        let serial = run(1, 0, &data);
        // 37 rows per extent deliberately doesn't divide 1000.
        let (_staging, layout) = staged_layout(&data, 37);
        for workers in [2usize, 3, 5, 8] {
            let mut batch = BatchCounter::new(nodes(), u64::MAX, 0, ARITY);
            certify_sharded(&mut batch, data.len(), workers);
            let mut st = MiddlewareStats::new();
            let io = scan_extents(&mut batch, &layout, workers, &mut st).unwrap();
            assert!(io.len() > 1, "{workers} workers actually sharded");
            let disk = std::fs::metadata(&layout.path).unwrap().len();
            assert_eq!(
                io.iter().map(|w| w.read_bytes).sum::<u64>(),
                disk,
                "per-reader bytes sum to the file size"
            );
            assert_eq!(io.iter().map(|w| w.rows).sum::<u64>(), 1000);
            assert_eq!(st.scan_rows, 1000);
            for (s, p) in serial.nodes.iter().zip(&batch.nodes) {
                assert_eq!(s.cc, p.cc, "{workers} sharded readers");
            }
        }
    }

    #[test]
    fn sharded_mem_tee_reproduces_serial_byte_order() {
        let data = rows(500, 41);
        let (_staging, layout) = staged_layout(&data, 19);
        let mut ns = nodes();
        ns[1].mem_buffer = Some(MemRows::new(CodeWidth::One)); // tee node 1 (a == 0)
        let mut batch = BatchCounter::new(ns, u64::MAX, 0, ARITY);
        certify_sharded(&mut batch, data.len(), 4);
        let mut st = MiddlewareStats::new();
        scan_extents(&mut batch, &layout, 4, &mut st).unwrap();
        let expected: Vec<Code> = data
            .iter()
            .filter(|r| r[0] == 0)
            .flat_map(|r| r.iter().copied())
            .collect();
        assert_eq!(
            batch.nodes[1].mem_buffer.as_ref().map(MemRows::to_codes),
            Some(expected.clone()),
            "range-order concatenation is file order"
        );
        assert_eq!(batch.buffer_bytes, expected.len() as u64, "one byte a code");
        batch.assert_shadow_accounting();
    }

    /// Bit-identity of the hybrid split file: sharded readers spool the rows
    /// any node takes and append the spools in range order, so the staged
    /// split file is the one the serial tee writes, beside a node file tee,
    /// with the same counts.
    #[test]
    fn sharded_split_file_reproduces_serial_file_bytes() {
        let data = rows(300, 47);
        let (_src, layout) = staged_layout(&data, 19);
        // The split and node files of a batch with no root: rows with
        // `a >= 2` and `b == 3` satisfy no node, so the split file skips them.
        let teeing_batch = |staging: &mut StagingManager| {
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
        let staged = |mut batch: BatchCounter, staging: &mut StagingManager| {
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

        let mut serial_staging = StagingManager::new(None).unwrap();
        let mut serial = teeing_batch(&mut serial_staging);
        let mut stats = MiddlewareStats::new();
        for r in &data {
            serial.process_row(r, &mut stats).unwrap();
        }
        let expected = staged(serial, &mut serial_staging);
        let skipped = data.iter().filter(|r| r[0] >= 2 && r[1] == 3).count();
        assert!(skipped > 0, "some rows stay out of the split file");

        for workers in [2usize, 4, 7] {
            let mut staging = StagingManager::new(None).unwrap();
            let mut batch = teeing_batch(&mut staging);
            certify_sharded(&mut batch, data.len(), workers);
            let mut st = MiddlewareStats::new();
            scan_extents(&mut batch, &layout, workers, &mut st).unwrap();
            assert_eq!(st.sharded_file_scans, 1);
            assert_eq!(
                staged(batch, &mut staging),
                expected,
                "{workers} workers: node file, split file and counts"
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

        let staged_file_bytes =
            |batch: BatchCounter, staging: &mut StagingManager| -> (Vec<u8>, CountsTable) {
                let mut batch = batch;
                let mut stats = MiddlewareStats::new();
                let w = batch.nodes[1].file_writer.take().unwrap();
                let id = staging.commit_file(w, &mut stats).unwrap();
                let path = staging.extent_layout(id).unwrap().unwrap().path;
                (std::fs::read(path).unwrap(), batch.nodes[1].cc.clone())
            };
        let teeing_batch = |staging: &mut StagingManager| {
            staging.set_extent_rows(23);
            let mut ns = nodes();
            ns[1].file_writer = Some(
                staging
                    .start_file(vec![NodeId(1)], tee_pred.clone(), ARITY)
                    .unwrap(),
            );
            BatchCounter::new(ns, u64::MAX, 0, ARITY)
        };

        // Serial reference.
        let mut serial_staging = StagingManager::new(None).unwrap();
        let mut serial_batch = teeing_batch(&mut serial_staging);
        let mut stats = MiddlewareStats::new();
        for r in &data {
            serial_batch.process_row(r, &mut stats).unwrap();
        }
        let (serial_bytes, serial_cc) = staged_file_bytes(serial_batch, &mut serial_staging);

        // Sharded readers with per-reader spools.
        for workers in [2usize, 4, 7] {
            let mut staging = StagingManager::new(None).unwrap();
            let mut batch = teeing_batch(&mut staging);
            certify_sharded(&mut batch, data.len(), workers);
            let mut st = MiddlewareStats::new();
            scan_extents(&mut batch, &layout, workers, &mut st).unwrap();
            let (sharded_bytes, sharded_cc) = staged_file_bytes(batch, &mut staging);
            assert_eq!(
                serial_bytes, sharded_bytes,
                "{workers} readers: staged file is byte-identical"
            );
            assert_eq!(serial_cc, sharded_cc, "{workers} readers: counts agree");
        }
    }

    /// The batched kernel and the row path must build identical tables on
    /// both paths a staged file is read by — the serial scan loop and
    /// sharded extent readers — and the block counters must reflect which
    /// kernel ran.
    #[test]
    fn batched_kernel_matches_row_kernel_on_both_parallel_paths() {
        let data = rows(1200, 53);
        let serial = run(1, 0, &data);
        for kernel_on in [true, false] {
            for (workers, path) in [(1, Scan::Serial), (4, Scan::Sharded)] {
                let what = format!("{path:?}, kernel_on={kernel_on}");
                let mut batch = BatchCounter::new(nodes(), u64::MAX, 0, ARITY);
                batch.batch_kernel = kernel_on;
                let mut st = MiddlewareStats::new();
                assert_eq!(scan(&mut batch, &data, 37, workers, &mut st), path);
                for (s, p) in serial.nodes.iter().zip(&batch.nodes) {
                    assert_eq!(s.cc, p.cc, "{what}");
                }
                if kernel_on {
                    assert!(st.blocks_counted > 0, "{what}: blocks used the kernel");
                } else {
                    assert_eq!(st.blocks_counted, 0, "{what}: no block counting");
                    assert_eq!(st.block_fallback_rows, 0, "{what}: no fallback");
                }
            }
        }
    }

    /// The proof bounds the whole scan by what its tables can hold, the
    /// serial block gate each block by what its rows could add: a budget
    /// that fits the root's table but never a block's growth bound sends
    /// every serial block down the row path, and shards through the
    /// kernel — with the same counts and peak.
    #[test]
    fn a_budget_the_block_gate_refuses_still_runs_in_parallel() {
        let data = rows(400, 59);
        // The root table tops out at 16 entries (768 B), but a 37-row
        // extent is bounded at 37 * 2 * CC_ENTRY_BYTES = 3552 B, and the
        // 400-row block alone counts at 400 * 2 * CC_ENTRY_BYTES.
        let root = || BatchCounter::new(vec![NodeCounter::new(root_request())], 1024, 0, ARITY);
        let [(alone, alone_stats), (sunk, stats)] = alone_and_scanned(root, 2, &data);
        assert_eq!(alone_stats.blocks_counted, 0, "the gate refused the block");
        assert_eq!(alone_stats.block_fallback_rows, 400);
        assert_eq!(stats.sharded_file_scans, 1, "the proof cleared the batch");
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

    /// Count `data`, staged, through a batch over `nodes` on `workers`
    /// readers, certified at `epoch` with the plans `parents` makes, under
    /// `budget`.
    fn sunk(
        parents: &mut Parents,
        nodes: Vec<NodeCounter>,
        workers: usize,
        budget: u64,
        epoch: u64,
        data: &[[Code; 3]],
    ) -> (BatchCounter, MiddlewareStats) {
        let (_staging, layout) = staged_layout(data, 16);
        let mut batch = BatchCounter::new(nodes, budget, 0, ARITY);
        let mut stats = MiddlewareStats::new();
        let how = certify(&mut batch, parents, data.len(), workers, epoch, &mut stats);
        read(&mut batch, how, &layout, workers, &mut stats);
        batch.assert_shadow_accounting();
        (batch, stats)
    }

    /// A planned node is derived after the scan — serial or on four
    /// sharded readers — into the table counting it builds, and leaves the
    /// batch in the state, and at the peak, counting it leaves; a scan
    /// whose budget proof fails, or whose table moved on since the parent
    /// was counted, counts it instead. The plan is the pair's of a staged
    /// scan: the `=` child, with fewer rows, counts every class, and the
    /// `≠` child is derived whole from it.
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
            assert_eq!(stats.sharded_file_scans, u64::from(workers > 1), "{what}");
        }
        assert_eq!(Arc::strong_count(&parent), 1, "no plan outlives its batch");
    }

    /// A pair whose children hold disjoint classes — every `a = 1` row is
    /// class 1, every other row class 0 — counts no class on either side:
    /// its certified scan reads nothing, on one worker or four, starts no
    /// reader, and completing it without a block builds the tables, and
    /// reaches the peak, counting every row does. A node that tees into a
    /// memory set still needs its rows, so that batch reads them.
    #[test]
    fn a_batch_its_plans_settle_reads_nothing() {
        let data: Vec<[Code; 3]> = (rows(700, 73).into_iter())
            .map(|[a, b, _]| [a, b, u16::from(a == 1)])
            .collect();
        let (_staging, layout) = staged_layout(&data, 16);
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
                nodes[1].mem_buffer = Some(MemRows::new(CodeWidth::One));
            }
            let mut parents = remembered(&req, &parent, &nodes);
            let mut batch = BatchCounter::new(nodes, u64::MAX, 0, ARITY);
            let mut stats = MiddlewareStats::new();
            let how = certify(&mut batch, &mut parents, data.len(), workers, 0, &mut stats);
            let reads = how != Scan::Unread;
            assert_eq!(reads, tee, "{what}");
            read(&mut batch, how, &layout, workers, &mut stats);
            for (c, b) in counted.nodes.iter().zip(&batch.nodes) {
                assert_eq!(b.cc, c.cc, "{what}");
            }
            // The `=` child copies its class from the parent, the `≠` child
            // is derived whole from it.
            let settled = (stats.derived_nodes, stats.sliced_nodes);
            assert_eq!(settled, (1, 1), "{what}");
            assert_eq!(stats.unread_batches, u64::from(!reads), "{what}");
            assert_eq!(stats.sharded_file_scans, u64::from(reads), "{what}");
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
        let (_staging, layout) = staged_layout(&data, 16);
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
            let mut batch = BatchCounter::new(nodes, budget, 0, ARITY);
            let mut stats = MiddlewareStats::new();
            let how = certify(&mut batch, &mut parents, data.len(), 1, epoch, &mut stats);
            assert!(batch.nodes.iter().all(|n| n.plan.is_none()), "{why}");
            assert_eq!(stats.derivations_refused, 1, "{why}");
            read(&mut batch, how, &layout, 1, &mut stats);
            for (c, b) in counted.nodes.iter().zip(&batch.nodes) {
                assert_eq!(b.cc, c.cc, "{why}");
            }
            assert_eq!((stats.derived_nodes, stats.sliced_nodes), (0, 0), "{why}");
        }
    }

    /// A child whose complement holds class 0 only — every `a = 0` row is
    /// class 0 — is counted only in class 0 under the proof, and its
    /// class-1 slots are copied from the parent after the scan, into the
    /// table counting every row builds: on a server scan, whose
    /// pushed-down filter ships just the class-0 rows, and on a staged
    /// file read by four sharded readers, which hand every row in. A node
    /// that tees into a memory set is still sliced, but shipped whole: its
    /// set gets every row. A scan whose proof fails, or whose table moved
    /// on since the parent was counted, slices nothing: it ships and counts
    /// every row of the node.
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
        let (_staging, layout) = staged_layout(&mine, 16);
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
                sliced.mem_buffer = Some(MemRows::new(CodeWidth::One));
            }
            let mut parents = remembered(&req, &parent, std::slice::from_ref(&sliced));
            let mut batch = BatchCounter::new(vec![sliced], budget, 0, ARITY);
            let (mut stats, rows) = (MiddlewareStats::new(), data.len());
            let how = certify(&mut batch, &mut parents, rows, workers, epoch, &mut stats);
            if let Some(plan) = &batch.nodes[0].plan {
                assert_eq!(plan.sources, [ClassSource::Counted, ClassSource::Parent]);
                assert_eq!(plan.rows, [class_rows(0), class_rows(1)]);
            }
            let server = workers == 1;
            let read_rows_of = if server {
                let filter = batch.pushdown();
                let shipped: Vec<[Code; 3]> = data
                    .iter()
                    .filter(|r| filter.eval(&r[..]))
                    .copied()
                    .collect();
                read_rows(&mut batch, &shipped, &mut stats);
                shipped.len() as u64
            } else {
                assert_eq!(how, Scan::Sharded, "{what}");
                read(&mut batch, how, &layout, workers, &mut stats);
                mine.len() as u64
            };
            batch.assert_shadow_accounting();
            assert_eq!(batch.nodes[0].cc, counted.nodes[0].cc, "{what}");
            if let Some(buf) = &batch.nodes[0].mem_buffer {
                assert_eq!(
                    buf.codes(),
                    mine.len() * ARITY,
                    "{what}: the tee got every row"
                );
            } else {
                assert_eq!(batch.memory_in_use(), most, "{what}");
            }
            let unshipped = if slices && !tees && server {
                class_rows(1)
            } else {
                0
            };
            assert!(class_rows(0) > 0 && class_rows(1) > 0);
            assert_eq!(read_rows_of + unshipped, mine.len() as u64, "{what}");
            assert_eq!(stats.scan_rows, read_rows_of, "{what}");
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
        let mut staging = StagingManager::new(None).unwrap();
        for tee in ["none", "memory", "file", "split"] {
            let mut nodes = children(&req);
            let mut parents = remembered(&req, &parent, &nodes);
            match tee {
                "memory" => nodes[1].mem_buffer = Some(MemRows::new(CodeWidth::One)),
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
            let mut stats = MiddlewareStats::new();
            certify(&mut batch, &mut parents, data.len(), 1, 0, &mut stats);
            assert!(batch.nodes[0].needs_rows(), "{tee}: the counted sibling");
            let tees_itself = tee == "memory" || tee == "file";
            assert_eq!(batch.nodes[1].needs_rows(), tees_itself, "{tee}");
            let filter = batch.pushdown();
            let shipped: Vec<[Code; 3]> = data
                .iter()
                .filter(|r| filter.eval(&r[..]))
                .copied()
                .collect();
            read_rows(&mut batch, &shipped, &mut stats);
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
                    buf.codes() as u64,
                    derived * ARITY as u64,
                    "the tee got every row"
                );
            }
        }
    }
}
