//! The execution module's counting core (§4.1.1).
//!
//! Given the scheduler's batch plan, [`BatchCounter`] consumes one stream
//! of row-major blocks (whatever the source) and simultaneously:
//!
//! * updates the counts table of every scheduled node whose predicate the
//!   row satisfies,
//! * tees matching rows into per-node staging destinations (middleware
//!   file and/or memory buffers) and into the hybrid split file,
//! * enforces the middleware memory budget at runtime: when a new counts
//!   entry cannot be accommodated, that node *dynamically switches to the
//!   SQL-based implementation* — its partial table is dropped and its
//!   counts are later fetched lazily via per-attribute GROUP BY queries
//!   (handled by the middleware after the scan).
//!
//! A block whose worst-case growth clears the budget and that no tee needs
//! row by row is counted whole through the batched kernel
//! (`count_block_into`, shared with the parallel shards); any other
//! block takes [`BatchCounter::process_row`] per row, with identical
//! results (DESIGN.md §12).

use crate::cc::{BlockOutcome, CountsTable, CC_ENTRY_BYTES};
use crate::error::MwResult;
use crate::metrics::MiddlewareStats;
use crate::request::CcRequest;
use crate::staging::FileWriter;
use scaleclass_sqldb::types::{Code, CODE_BYTES};
use scaleclass_sqldb::Pred;
use std::collections::HashMap;

/// Counting state for one scheduled node during a scan.
pub struct NodeCounter {
    /// The request being served.
    pub req: CcRequest,
    /// The counts accumulated so far.
    pub cc: CountsTable,
    /// Set when the §4.1.1 runtime fallback fired for this node.
    pub fallback: bool,
    /// Staging tee: middleware file.
    pub file_writer: Option<FileWriter>,
    /// Staging tee: middleware memory buffer (flat codes).
    pub mem_buffer: Option<Vec<Code>>,
}

impl NodeCounter {
    /// Fresh counting state for one request.
    pub fn new(req: CcRequest) -> Self {
        NodeCounter {
            req,
            cc: CountsTable::new(),
            fallback: false,
            file_writer: None,
            mem_buffer: None,
        }
    }
}

/// One batch's counting pass.
pub struct BatchCounter {
    /// Counting state per scheduled node.
    pub nodes: Vec<NodeCounter>,
    /// Hybrid split output: rows matching *any* scheduled node.
    pub split_writer: Option<FileWriter>,
    /// Previously staged memory sets that may be evicted under counting
    /// pressure (`(id, bytes)`, consumed in order). Counting memory always
    /// outranks cached data: an evicted set costs one extra scan later, a
    /// fallback costs one SQL query per attribute now.
    pub evictable: Vec<(u64, u64)>,
    /// Memory-set ids sacrificed during this scan (the middleware deletes
    /// them when the batch completes).
    pub evicted: Vec<u64>,
    /// Total middleware memory budget in bytes.
    pub(crate) budget: u64,
    /// Memory already pinned by previously staged data sets.
    pub(crate) base_mem_bytes: u64,
    /// Live counts-table bytes across all nodes in this batch.
    pub(crate) cc_bytes: u64,
    /// Bytes accumulated in memory-staging buffers this batch.
    pub(crate) buffer_bytes: u64,
    pub(crate) arity: usize,
    /// Candidate prefilter shared with the parallel workers.
    dispatch: Dispatch,
    /// Reusable per-row scratch for dispatch candidates — hoisted out of
    /// `process_row` so the hot loop never allocates.
    scratch: Vec<usize>,
    /// Count whole blocks through `CountsTable::add_block` when possible
    /// (`MiddlewareConfig::batch_kernel`); off pins the row path.
    pub(crate) batch_kernel: bool,
    /// Reusable column scratch: one `Vec` per source column, refilled by
    /// the block transpose and reused across blocks.
    col_scratch: Vec<Vec<Code>>,
    /// Reusable selection/gather scratch of the per-node block routine.
    block_scratch: BlockScratch,
}

/// Candidate prefilter over a batch's predicates: nodes whose path
/// predicate contains an `Eq` conjunct are bucketed by their *deepest*
/// such atom `(col, value)` — a necessary condition for the full
/// predicate, and (being the node's own or nearest Eq edge) the most
/// selective one. A row only fully evaluates the nodes in its matching
/// buckets plus the few nodes with no Eq conjunct at all. This turns the
/// per-row cost from O(batch size) to O(matching nodes), which is what
/// makes full-scale (multi-MB) scans tractable. Built once per scan and
/// read-only afterwards, so the serial counter and every parallel worker
/// can share the same structure.
pub(crate) struct Dispatch {
    /// `(col, value)` buckets of node indices.
    map: HashMap<(usize, Code), Vec<usize>>,
    /// Distinct columns appearing as dispatch keys.
    cols: Vec<usize>,
    /// Nodes with no Eq conjunct (root, pure-NotEq paths): always checked.
    unkeyed: Vec<usize>,
}

impl Dispatch {
    /// Build the prefilter for an ordered list of node predicates.
    pub(crate) fn new<'a>(preds: impl Iterator<Item = &'a Pred>) -> Self {
        let mut map: HashMap<(usize, Code), Vec<usize>> = HashMap::new();
        let mut unkeyed = Vec::new();
        for (i, pred) in preds.enumerate() {
            match deepest_eq_atom(pred) {
                Some(key) => map.entry(key).or_default().push(i),
                None => unkeyed.push(i),
            }
        }
        let mut cols: Vec<usize> = map.keys().map(|&(c, _)| c).collect();
        cols.sort_unstable();
        cols.dedup();
        Dispatch { map, cols, unkeyed }
    }

    /// Collect into `out` the node indices whose predicate might match
    /// `row` (a superset of the true matches).
    pub(crate) fn candidates(&self, row: &[Code], out: &mut Vec<usize>) {
        out.clear();
        out.extend_from_slice(&self.unkeyed);
        for &col in &self.cols {
            // A dispatch column beyond this row's arity cannot match any
            // predicate, so an out-of-range lookup just yields no candidates.
            let Some(&value) = row.get(col) else { continue };
            if let Some(idxs) = self.map.get(&(col, value)) {
                out.extend_from_slice(idxs);
            }
        }
    }
}

/// The deepest `Eq` conjunct of a path predicate, if any.
fn deepest_eq_atom(pred: &Pred) -> Option<(usize, Code)> {
    match pred {
        Pred::Eq { col, value } => Some((*col, *value)),
        Pred::And(children) => children.iter().rev().find_map(deepest_eq_atom),
        _ => None,
    }
}

/// Columnar twin of [`Pred::eval`]: evaluate a predicate against row `r`
/// of a column-major block. Mirrors `eval` exactly, including the panic
/// on a column index past the block's arity (predicates are built against
/// the scanned schema, so the columns are structurally present).
fn pred_eval_cols(pred: &Pred, cols: &[Vec<Code>], r: usize) -> bool {
    match pred {
        Pred::True => true,
        Pred::False => false,
        Pred::Eq { col, value } => cols[*col][r] == *value,
        Pred::NotEq { col, value } => cols[*col][r] != *value,
        Pred::And(children) => children.iter().all(|p| pred_eval_cols(p, cols, r)),
        Pred::Or(children) => children.iter().any(|p| pred_eval_cols(p, cols, r)),
    }
}

/// Transpose a row-major block into one `Vec` per column (`cols` is
/// resized to the arity and refilled, so it can be reused across blocks).
/// Returns the block's row count.
pub(crate) fn transpose_block(flat: &[Code], arity: usize, cols: &mut Vec<Vec<Code>>) -> usize {
    cols.resize_with(arity, Vec::new);
    for (c, col) in cols.iter_mut().enumerate() {
        col.clear();
        col.extend(flat.iter().skip(c).step_by(arity).copied());
    }
    flat.len() / arity
}

/// What the batched kernel did over some run of blocks and nodes. The
/// serial counter adds it to the stats after every block; each parallel
/// worker carries one to the merge.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct KernelTally {
    blocks_counted: u64,
    pub(crate) block_fallback_rows: u64,
    validate_nanos: u64,
    accumulate_nanos: u64,
}

impl KernelTally {
    fn record(&mut self, outcome: BlockOutcome) {
        if outcome.fallback_rows == 0 {
            self.blocks_counted += 1;
        } else {
            self.block_fallback_rows += outcome.fallback_rows;
        }
        self.validate_nanos += outcome.validate_nanos;
        self.accumulate_nanos += outcome.accumulate_nanos;
    }

    /// Fold the tally into the middleware's block-kernel counters.
    pub(crate) fn add_to(&self, stats: &mut MiddlewareStats) {
        stats.blocks_counted += self.blocks_counted;
        stats.block_fallback_rows += self.block_fallback_rows;
        stats.kernel_validate_nanos += self.validate_nanos;
        stats.kernel_accumulate_nanos += self.accumulate_nanos;
    }
}

/// Reusable scratch of [`count_block_into`].
#[derive(Default)]
pub(crate) struct BlockScratch {
    /// Row indices of the block that satisfy the node's predicate.
    sel: Vec<u32>,
    /// The selected rows of the columns the kernel reads.
    gather: Vec<Vec<Code>>,
}

/// Count the rows of the column block `cols` that satisfy `pred` into
/// `cc` through the batched kernel, and return the modelled bytes `cc`
/// grew by. An unselective node (the root) counts the columns
/// as they are; a selective one builds a selection vector, then gathers
/// only the columns the kernel reads (attrs + class). The serial counter
/// and the parallel shards both count through here; the budget protocol
/// around the call is theirs.
pub(crate) fn count_block_into(
    cc: &mut CountsTable,
    pred: &Pred,
    attrs: &[u16],
    class_col: u16,
    cols: &[Vec<Code>],
    scratch: &mut BlockScratch,
    tally: &mut KernelTally,
) -> u64 {
    let before = cc.entries();
    let outcome = if matches!(pred, Pred::True) {
        let refs: Vec<&[Code]> = cols.iter().map(Vec::as_slice).collect();
        cc.add_block(&refs, class_col, attrs)
    } else {
        let nrows = cols.first().map_or(0, Vec::len);
        scratch.sel.clear();
        scratch
            .sel
            .extend((0..nrows as u32).filter(|&r| pred_eval_cols(pred, cols, r as usize)));
        if scratch.sel.is_empty() {
            return 0;
        }
        scratch.gather.resize_with(cols.len(), Vec::new);
        for &c in attrs.iter().chain(std::iter::once(&class_col)) {
            // analyze:allow(hot-path-panic): attrs and class_col index the
            // scanned schema's columns by construction.
            let src = &cols[usize::from(c)];
            let dst = &mut scratch.gather[usize::from(c)]; // analyze:allow(hot-path-panic): gather was resized to the arity above
            dst.clear();
            // analyze:allow(hot-path-panic): sel rows were minted over
            // this block, so every index is < nrows.
            dst.extend(scratch.sel.iter().map(|&r| src[r as usize]));
        }
        let refs: Vec<&[Code]> = scratch.gather.iter().map(Vec::as_slice).collect();
        cc.add_block(&refs, class_col, attrs)
    };
    tally.record(outcome);
    (cc.entries() - before) as u64 * CC_ENTRY_BYTES
}

impl BatchCounter {
    /// A counting pass over `nodes` against the given budget; `base_mem_bytes`
    /// is memory already pinned by staged data.
    pub fn new(nodes: Vec<NodeCounter>, budget: u64, base_mem_bytes: u64, arity: usize) -> Self {
        let dispatch = Dispatch::new(nodes.iter().map(|n| n.req.pred()));
        BatchCounter {
            nodes,
            split_writer: None,
            evictable: Vec::new(),
            evicted: Vec::new(),
            budget,
            base_mem_bytes,
            cc_bytes: 0,
            buffer_bytes: 0,
            arity,
            dispatch,
            scratch: Vec::with_capacity(8),
            batch_kernel: true,
            col_scratch: Vec::new(),
            block_scratch: BlockScratch::default(),
        }
    }

    /// Current modelled middleware memory use.
    pub fn memory_in_use(&self) -> u64 {
        self.base_mem_bytes + self.cc_bytes + self.buffer_bytes
    }

    /// Shadow accounting (DESIGN.md §9): recompute this batch's CC and
    /// staging-buffer bytes from first principles and assert they equal
    /// the incrementally maintained counters the budget machinery ran on.
    /// The asserts are unconditional — call sites gate on
    /// `cfg(debug_assertions)` so release scans pay nothing, while a
    /// release caller that opts in still gets a real check.
    pub fn assert_shadow_accounting(&self) {
        let shadow_cc: u64 = self.nodes.iter().map(|n| n.cc.shadow_memory_bytes()).sum();
        assert_eq!(
            shadow_cc, self.cc_bytes,
            "incremental cc_bytes drifted from a first-principles recount \
             of the batch's counts tables"
        );
        let shadow_buf: u64 = self
            .nodes
            .iter()
            .filter_map(|n| n.mem_buffer.as_ref())
            .map(|b| (b.len() * CODE_BYTES) as u64)
            .sum();
        assert_eq!(
            shadow_buf, self.buffer_bytes,
            "incremental buffer_bytes drifted from the bytes actually held \
             in memory-staging tees"
        );
    }

    /// Feed one row through every scheduled node.
    pub fn process_row(&mut self, row: &[Code], stats: &mut MiddlewareStats) -> MwResult<()> {
        debug_assert_eq!(row.len(), self.arity);
        let row_bytes = (self.arity * CODE_BYTES) as u64;
        let budget = self.budget;
        let mut base = self.base_mem_bytes;
        let mut cc_bytes = self.cc_bytes;
        let mut buffer_bytes = self.buffer_bytes;
        let mut any_matched = false;

        // Candidate nodes: the buckets keyed by this row's values on the
        // dispatch columns, plus the nodes with no Eq conjunct.
        let mut candidates = std::mem::take(&mut self.scratch);
        self.dispatch.candidates(row, &mut candidates);

        for &idx in &candidates {
            // analyze:allow(hot-path-panic): Dispatch mints candidate indices
            // from these same `nodes`, so they are structurally in-bounds.
            let node = &mut self.nodes[idx];
            if !node.req.pred().eval(row) {
                continue;
            }
            any_matched = true;

            // Counting (unless this node already fell back to SQL).
            if !node.fallback {
                let before = node.cc.entries();
                node.cc.add_row(row, &node.req.attrs, node.req.class_col);
                let grew = (node.cc.entries() - before) as u64 * CC_ENTRY_BYTES;
                cc_bytes += grew;
                if grew > 0 && base + cc_bytes + buffer_bytes > budget {
                    // Counting pressure: sacrifice cached data sets first —
                    // an evicted set costs one extra scan later, a fallback
                    // costs a SQL query per attribute now.
                    while base + cc_bytes + buffer_bytes > budget {
                        let Some((id, bytes)) = self.evictable.pop() else {
                            break;
                        };
                        base = base.saturating_sub(bytes);
                        self.evicted.push(id);
                        stats.pressure_evictions += 1;
                    }
                }
                if grew > 0 && base + cc_bytes + buffer_bytes > budget {
                    // §4.1.1: no new entries can be accommodated — switch
                    // this node to the SQL-based implementation.
                    cc_bytes -= node.cc.memory_bytes();
                    node.cc = CountsTable::new();
                    node.fallback = true;
                    stats.sql_fallbacks += 1;
                }
            }

            // Staging tees.
            if let Some(w) = node.file_writer.as_mut() {
                w.push(row)?;
            }
            if let Some(buf) = node.mem_buffer.as_mut() {
                buf.extend_from_slice(row);
                buffer_bytes += row_bytes;
                if base + cc_bytes + buffer_bytes > budget {
                    // Staging is best-effort: cancel this node's memory
                    // staging rather than evicting counts.
                    buffer_bytes -= node
                        .mem_buffer
                        .take()
                        .map_or(0, |b| (b.len() * CODE_BYTES) as u64);
                }
            }
        }
        self.scratch = candidates;
        self.cc_bytes = cc_bytes;
        self.buffer_bytes = buffer_bytes;
        self.base_mem_bytes = base;

        if any_matched {
            if let Some(w) = self.split_writer.as_mut() {
                w.push(row)?;
            }
        }
        stats.observe_memory(self.memory_in_use());
        Ok(())
    }

    /// Any staging tee active? Tees are row-ordered side effects, so a
    /// batch with tees keeps the exact per-row path.
    fn has_tees(&self) -> bool {
        self.split_writer.is_some()
            || self
                .nodes
                .iter()
                .any(|n| n.file_writer.is_some() || n.mem_buffer.is_some())
    }

    /// Sum over live nodes of the worst-case modelled growth from counting
    /// a `rows`-row block. When current use plus this bound clears the
    /// budget, no eviction or §4.1.1 fallback can fire anywhere inside the
    /// block — in either the block or the row path — so block counting is
    /// bit-identical by construction.
    fn block_growth_bound(&self, rows: u64) -> u64 {
        self.nodes
            .iter()
            .filter(|n| !n.fallback)
            .map(|n| n.cc.block_growth_bound(rows, n.req.attrs.len()))
            .fold(0u64, u64::saturating_add)
    }

    /// Feed a row-major block of rows through every scheduled node,
    /// counting whole column blocks when the batched kernel can engage.
    /// Falls back to [`BatchCounter::process_row`] per row — with
    /// identical results — when the kernel is disabled, a staging tee is
    /// active, or the block's growth bound cannot clear the budget.
    pub fn process_block(&mut self, flat: &[Code], stats: &mut MiddlewareStats) -> MwResult<()> {
        let arity = self.arity;
        debug_assert_eq!(flat.len() % arity, 0);
        let nrows = flat.len() / arity;
        if nrows == 0 {
            return Ok(());
        }
        if !self.batch_kernel {
            for row in flat.chunks_exact(arity) {
                self.process_row(row, stats)?;
            }
            return Ok(());
        }
        let bound = self.block_growth_bound(nrows as u64);
        if self.has_tees() || self.memory_in_use().saturating_add(bound) > self.budget {
            stats.block_fallback_rows += nrows as u64;
            for row in flat.chunks_exact(arity) {
                self.process_row(row, stats)?;
            }
            return Ok(());
        }
        // Transpose once into the reusable column scratch; every node's
        // kernel call reads these same columns.
        transpose_block(flat, arity, &mut self.col_scratch);
        let mut tally = KernelTally::default();
        for node in self.nodes.iter_mut().filter(|n| !n.fallback) {
            self.cc_bytes += count_block_into(
                &mut node.cc,
                node.req.pred(),
                &node.req.attrs,
                node.req.class_col,
                &self.col_scratch,
                &mut self.block_scratch,
                &mut tally,
            );
        }
        tally.add_to(stats);
        debug_assert!(
            self.memory_in_use() <= self.budget,
            "block kernel engaged without clearing its growth bound"
        );
        stats.observe_memory(self.memory_in_use());
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::{Lineage, NodeId};
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

    #[test]
    fn counts_multiple_nodes_in_one_pass() {
        let a = NodeCounter::new(request(1, Pred::Eq { col: 0, value: 0 }));
        let b = NodeCounter::new(request(2, Pred::Eq { col: 0, value: 1 }));
        let mut batch = BatchCounter::new(vec![a, b], u64::MAX, 0, ARITY);
        let mut stats = MiddlewareStats::new();
        let rows: &[[Code; 3]] = &[[0, 0, 0], [0, 1, 1], [1, 0, 0], [1, 1, 0], [2, 0, 1]];
        for r in rows {
            batch.process_row(r, &mut stats).unwrap();
        }
        assert_eq!(batch.nodes[0].cc.total(), 2, "node a=0 saw two rows");
        assert_eq!(batch.nodes[1].cc.total(), 2, "node a=1 saw two rows");
        assert_eq!(batch.nodes[0].cc.count(1, 1, 1), 1);
        assert!(!batch.nodes[0].fallback && !batch.nodes[1].fallback);
        assert_eq!(stats.sql_fallbacks, 0);
    }

    #[test]
    fn overlapping_predicates_count_into_both() {
        let a = NodeCounter::new(root_request());
        let b = NodeCounter::new(request(2, Pred::NotEq { col: 0, value: 9 }));
        let mut batch = BatchCounter::new(vec![a, b], u64::MAX, 0, ARITY);
        let mut stats = MiddlewareStats::new();
        batch.process_row(&[1, 1, 0], &mut stats).unwrap();
        assert_eq!(batch.nodes[0].cc.total(), 1);
        assert_eq!(batch.nodes[1].cc.total(), 1);
    }

    #[test]
    fn budget_overflow_triggers_sql_fallback_for_offending_node() {
        // Budget: room for ~2 entries; each distinct (attr,value,class)
        // costs CC_ENTRY_BYTES and every row creates 2 entries at first.
        let budget = 3 * CC_ENTRY_BYTES;
        let node = NodeCounter::new(root_request());
        let mut batch = BatchCounter::new(vec![node], budget, 0, ARITY);
        let mut stats = MiddlewareStats::new();
        batch.process_row(&[0, 0, 0], &mut stats).unwrap(); // 2 entries
        assert!(!batch.nodes[0].fallback);
        batch.process_row(&[1, 1, 1], &mut stats).unwrap(); // 4 entries → over
        assert!(batch.nodes[0].fallback);
        assert_eq!(stats.sql_fallbacks, 1);
        assert_eq!(batch.nodes[0].cc.entries(), 0, "partial table dropped");
        assert_eq!(batch.memory_in_use(), 0, "bytes released");

        // Later rows are ignored for counting (SQL will provide them).
        batch.process_row(&[2, 0, 0], &mut stats).unwrap();
        assert_eq!(batch.nodes[0].cc.entries(), 0);
        assert_eq!(stats.sql_fallbacks, 1, "fallback fires once");
    }

    #[test]
    fn other_nodes_keep_counting_after_one_falls_back() {
        // Room for six entries: the wide node alone needs six and the
        // narrow one two, so exactly one of them hits the ceiling —
        // which one depends on evaluation order (an implementation detail
        // of the dispatch prefilter); the other keeps exact counts.
        let budget = 6 * CC_ENTRY_BYTES;
        let narrow = NodeCounter::new(request(2, Pred::Eq { col: 0, value: 0 }));
        let wide = NodeCounter::new(root_request()); // sees everything
        let mut batch = BatchCounter::new(vec![narrow, wide], budget, 0, ARITY);
        let mut stats = MiddlewareStats::new();
        for r in [[0u16, 0, 0], [1, 1, 1], [0, 0, 0], [2, 1, 0]] {
            batch.process_row(&r, &mut stats).unwrap();
        }
        assert_eq!(stats.sql_fallbacks, 1, "exactly one node overflows");
        let survivor_total: u64 = batch
            .nodes
            .iter()
            .filter(|n| !n.fallback)
            .map(|n| n.cc.total())
            .sum();
        // survivor counted all of its matching rows (narrow: 2; wide: 4)
        let narrow_survived = !batch.nodes[0].fallback;
        assert_eq!(survivor_total, if narrow_survived { 2 } else { 4 });
    }

    #[test]
    fn dispatch_prefilter_covers_all_predicate_shapes() {
        // One node per shape: root (True), pure NotEq path, Eq path, deep
        // And path ending in NotEq — all must count exactly right.
        let mk = |pred: Pred| NodeCounter::new(request(9, pred));
        let nodes = vec![
            NodeCounter::new(root_request()),
            mk(Pred::NotEq { col: 0, value: 0 }),
            mk(Pred::Eq { col: 0, value: 1 }),
            mk(Pred::and(vec![
                Pred::Eq { col: 0, value: 1 },
                Pred::NotEq { col: 1, value: 0 },
            ])),
        ];
        let mut batch = BatchCounter::new(nodes, u64::MAX, 0, ARITY);
        let mut stats = MiddlewareStats::new();
        let rows: &[[Code; 3]] = &[[0, 0, 0], [1, 0, 1], [1, 1, 0], [2, 1, 1]];
        for r in rows {
            batch.process_row(r, &mut stats).unwrap();
        }
        assert_eq!(batch.nodes[0].cc.total(), 4, "root sees everything");
        assert_eq!(batch.nodes[1].cc.total(), 3, "a<>0");
        assert_eq!(batch.nodes[2].cc.total(), 2, "a=1");
        assert_eq!(batch.nodes[3].cc.total(), 1, "a=1 AND b<>0");
    }

    #[test]
    fn memory_staging_buffer_cancelled_on_overflow() {
        // Budget allows the CC entries (a repeated row creates exactly two:
        // one per attribute) plus two buffered rows, not three.
        let budget = 2 * CC_ENTRY_BYTES + 2 * (ARITY * CODE_BYTES) as u64;
        let mut node = NodeCounter::new(root_request());
        node.mem_buffer = Some(Vec::new());
        let mut batch = BatchCounter::new(vec![node], budget, 0, ARITY);
        let mut stats = MiddlewareStats::new();
        batch.process_row(&[0, 0, 0], &mut stats).unwrap();
        batch.process_row(&[0, 0, 0], &mut stats).unwrap();
        assert!(batch.nodes[0].mem_buffer.is_some());
        batch.process_row(&[0, 0, 0], &mut stats).unwrap();
        assert!(
            batch.nodes[0].mem_buffer.is_none(),
            "buffer dropped, counting unaffected"
        );
        assert!(!batch.nodes[0].fallback);
        assert_eq!(batch.nodes[0].cc.total(), 3);
    }

    #[test]
    fn base_memory_counts_against_budget() {
        let budget = 10 * CC_ENTRY_BYTES;
        let node = NodeCounter::new(root_request());
        // Previously staged data pins most of the budget.
        let mut batch = BatchCounter::new(vec![node], budget, 9 * CC_ENTRY_BYTES, ARITY);
        let mut stats = MiddlewareStats::new();
        batch.process_row(&[0, 0, 0], &mut stats).unwrap();
        assert!(batch.nodes[0].fallback, "2 new entries exceed the slack");
    }

    #[test]
    fn peak_memory_is_observed() {
        let node = NodeCounter::new(root_request());
        let mut batch = BatchCounter::new(vec![node], u64::MAX, 0, ARITY);
        let mut stats = MiddlewareStats::new();
        batch.process_row(&[0, 0, 0], &mut stats).unwrap();
        assert_eq!(stats.peak_memory_bytes, 2 * CC_ENTRY_BYTES);
    }

    const BLOCK_ROWS: &[[Code; 3]] = &[
        [0, 0, 0],
        [1, 0, 1],
        [1, 1, 0],
        [2, 1, 1],
        [0, 2, 0],
        [1, 0, 0],
    ];

    fn block_nodes() -> Vec<NodeCounter> {
        vec![
            NodeCounter::new(root_request()),
            NodeCounter::new(request(1, Pred::Eq { col: 0, value: 1 })),
            NodeCounter::new(request(2, Pred::NotEq { col: 1, value: 0 })),
        ]
    }

    #[test]
    fn process_block_matches_process_row() {
        let flat: Vec<Code> = BLOCK_ROWS.iter().flatten().copied().collect();
        let mut rowwise = BatchCounter::new(block_nodes(), u64::MAX, 0, ARITY);
        let mut s1 = MiddlewareStats::new();
        for r in BLOCK_ROWS {
            rowwise.process_row(r, &mut s1).unwrap();
        }
        let mut blocked = BatchCounter::new(block_nodes(), u64::MAX, 0, ARITY);
        let mut s2 = MiddlewareStats::new();
        blocked.process_block(&flat, &mut s2).unwrap();
        assert!(s2.blocks_counted > 0, "kernel engaged");
        assert_eq!(s2.block_fallback_rows, 0);
        for (a, b) in rowwise.nodes.iter().zip(&blocked.nodes) {
            assert_eq!(a.cc, b.cc);
            assert_eq!(a.cc.total(), b.cc.total());
        }
        assert_eq!(rowwise.memory_in_use(), blocked.memory_in_use());
        blocked.assert_shadow_accounting();
        // Kernel off: same counts, no block counters touched.
        let mut off = BatchCounter::new(block_nodes(), u64::MAX, 0, ARITY);
        off.batch_kernel = false;
        let mut s3 = MiddlewareStats::new();
        off.process_block(&flat, &mut s3).unwrap();
        assert_eq!(s3.blocks_counted, 0);
        for (a, b) in rowwise.nodes.iter().zip(&off.nodes) {
            assert_eq!(a.cc, b.cc);
        }
    }

    #[test]
    fn process_block_with_tees_keeps_the_row_path() {
        let flat: Vec<Code> = BLOCK_ROWS.iter().flatten().copied().collect();
        let mut nodes = block_nodes();
        nodes[1].mem_buffer = Some(Vec::new());
        let mut batch = BatchCounter::new(nodes, u64::MAX, 0, ARITY);
        let mut stats = MiddlewareStats::new();
        batch.process_block(&flat, &mut stats).unwrap();
        assert_eq!(stats.blocks_counted, 0, "tee forces the row path");
        assert_eq!(stats.block_fallback_rows, BLOCK_ROWS.len() as u64);
        // Tee contents match a pure row-path run.
        let buf = batch.nodes[1].mem_buffer.as_ref().unwrap();
        assert_eq!(buf.len(), 3 * ARITY, "three a=1 rows teed in order");
        assert_eq!(&buf[0..3], &[1, 0, 1]);
        batch.assert_shadow_accounting();
    }

    #[test]
    fn process_block_tight_budget_falls_back_and_matches() {
        // Budget small enough that the growth bound cannot clear it, so
        // the whole block must reroute through the exact per-row path —
        // including its §4.1.1 fallback decisions.
        let flat: Vec<Code> = BLOCK_ROWS.iter().flatten().copied().collect();
        let budget = 5 * CC_ENTRY_BYTES;
        let mut rowwise = BatchCounter::new(block_nodes(), budget, 0, ARITY);
        let mut s1 = MiddlewareStats::new();
        for r in BLOCK_ROWS {
            rowwise.process_row(r, &mut s1).unwrap();
        }
        let mut blocked = BatchCounter::new(block_nodes(), budget, 0, ARITY);
        let mut s2 = MiddlewareStats::new();
        blocked.process_block(&flat, &mut s2).unwrap();
        assert_eq!(s2.blocks_counted, 0);
        assert_eq!(s2.block_fallback_rows, BLOCK_ROWS.len() as u64);
        assert_eq!(s1.sql_fallbacks, s2.sql_fallbacks);
        for (a, b) in rowwise.nodes.iter().zip(&blocked.nodes) {
            assert_eq!(a.cc, b.cc);
            assert_eq!(a.fallback, b.fallback);
        }
        assert_eq!(rowwise.memory_in_use(), blocked.memory_in_use());
    }
}
