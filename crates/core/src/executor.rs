//! The execution module's counting core (§4.1.1).
//!
//! Given the scheduler's batch plan, [`BatchCounter`] consumes one stream
//! of blocks — row-major or column-major, as the source lays them out —
//! and simultaneously:
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
//! **Route once, count in blocks.** The scheduled nodes' predicates are
//! paths of one partial tree, so finding a row's node is classifying the
//! row with that tree: the batch compiles them once into a
//! [`PredSet`] router. A block is served in two passes (`BlockPass`): the
//! first routes the *block*
//! ([`PredSet::route_block`]) — one partition of a selection vector per
//! trie node the block's rows reach, however many nodes are scheduled —
//! into per-node *selection vectors*, ranges of one reused arena; the
//! second, per node with a non-empty selection, counts the selected rows
//! through the block kernel, which reads their codes where they lie in the
//! block. The staging tees are served from the same selection vectors,
//! in row order: a file tee gathers each column of the selection straight
//! into the extent it is writing (`FileWriter::push_selected`), a memory
//! tee appends rows. Only where a single row is the unit — the row-path
//! fallback below — does a row walk the router on its own.
//!
//! The block path engages when `memory_in_use + Σ bound_n ≤ budget`,
//! where `bound_n` is the worst the node's selection can add to modelled
//! memory ([`CountsTable::block_growth_bound`] over its selected rows,
//! plus the selected rows themselves for a memory tee). Under that gate no
//! eviction, §4.1.1 fallback or tee cancellation can fire anywhere inside
//! the block on *either* path, and modelled memory only grows, so counting
//! node by node instead of row by row ends in the identical state and
//! observing memory once per block sees the per-row maximum. The bound's
//! free-slot cap assumes no spill, i.e. no code outside a dense table's
//! layout: the scan proves that once per node, against the source table's
//! range certificate (`Table::col_max`, which bounds every copy of its
//! rows), not per block. A block that does not clear the gate, or selects
//! rows for a node whose layout the certificate escapes, takes
//! [`BatchCounter::process_row`] per row, as does every block when the
//! kernel is switched off — with identical results (DESIGN.md §12).
//!
//! When predicates overlap (never within one tree frontier) a row counts
//! into every node it satisfies, in ascending node order.
//!
//! **This is the only budget protocol.** The one parallel scan, sharded
//! extent readers over a staged file (`crate::parallel`), does not run a
//! second one: it runs only over a batch `BatchCounter::cannot_reach_budget`
//! clears — a batch whose whole scan, whatever its rows, fires no
//! eviction, fallback or tee cancellation here — and each of its readers
//! is a `BatchCounter::worker` fed through `BatchCounter::process`. Every
//! other batch counts on the session thread, through the protocol above.
//!
//! **Planned nodes.** A node the batch plans to serve from its parent's
//! table (`crate::siblings::Plan`, DESIGN.md §12b) is routed and teed like
//! any other, but the kernel and the row path count only its rows of the
//! classes the plan counts; `BatchCounter::derive` takes every other class
//! after the scan — from the parent's table less the sibling's, which
//! counted it, or from the parent's alone. A node counting none of the
//! classes it holds is derived whole: the scan skips it, and it is
//! completed like every other planned node. The batch plans once, when
//! its scan certifies (`crate::siblings::Parents::plan`), and a node
//! carries its plan into the scan only when `BatchCounter::certify` proves
//! the scan cannot reach the budget
//! (`BatchCounter::cannot_reach_budget`): there no budget event can fire
//! and modelled memory only grows, and each partial table is a subset of
//! the one counting builds, so charging the entries once at the end and
//! observing memory then reaches the state, and the peak, counting every
//! class would have. A server scan ships only the counted classes of a
//! planned node unless it tees (`BatchCounter::pushdown`) — none of a node
//! derived whole; a staged source still hands them in, and they stop at
//! the router or the class filter.
//!
//! **Parent bounds.** The proof charges each node the fewest entries any
//! bound it holds allows: the schema's, its rows', and — for a child of a
//! parent the session counted exactly, at the scan's epoch — its parent
//! bound (`NodeCounter::bound`, `crate::siblings`), since a child's table
//! holds only entries its parent's holds, and per attribute no more than
//! it has rows. So batches built to bind the budget still prove, and
//! their derivations stand; debug builds check every final table against
//! its bound (`BatchCounter::debug_assert_parent_bounds`).

use crate::cc::{ClassSource, CountsTable, KernelScratch, CC_ENTRY_BYTES};
use crate::error::{MwError, MwResult};
use crate::metrics::MiddlewareStats;
use crate::request::CcRequest;
use crate::siblings::{EntryBound, Plan};
use crate::staging::{CodeWidth, FileWriter, MemRows};
use scaleclass_sqldb::types::Code;
use scaleclass_sqldb::{BlockRoute, ColumnView, Pred, PredSet};
use std::sync::Arc;
use std::time::Instant;

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
    /// Staging tee: middleware memory buffer, each code in the width the
    /// scan's certificate fixes before its first row
    /// (`BatchCounter::set_certificate`).
    pub mem_buffer: Option<MemRows>,
    /// Set while the scan counts this node only in some classes — in none
    /// it holds when it is derived whole — and takes the others from its
    /// parent's table and its sibling's after the scan (module docs).
    pub(crate) plan: Option<Plan>,
    /// The filter the scan pushed down (`BatchCounter::pushdown`) left out
    /// every row of it the scan does not count: its rows in every class
    /// its plan does not count.
    pub(crate) unshipped: bool,
    /// The most entries its table can hold, by its parent's exact table
    /// (`crate::siblings`); [`BatchCounter::cannot_reach_budget`] charges
    /// it when the scan runs at the parent's epoch.
    pub(crate) bound: Option<EntryBound>,
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
            plan: None,
            unshipped: false,
            bound: None,
        }
    }

    /// Does the scan count this node? Not once it fell back to SQL, nor
    /// while its table is to be derived whole.
    fn counts(&self) -> bool {
        !self.fallback && !(self.plan.as_ref()).is_some_and(Plan::derives_whole)
    }

    /// Does the scan count `row` for this node? Not unless it counts the
    /// node, and the node's plan, if any, counts the row's class.
    fn counts_row(&self, row: &[Code]) -> bool {
        let class = row.get(usize::from(self.req.class_col));
        self.counts() && (self.plan.as_ref()).is_none_or(|p| class.is_none_or(|&k| p.counts(k)))
    }

    /// Complete the node's table, counted in the classes `plan` counts,
    /// from its parent's and its `sibling`'s (`CountsTable::complete`).
    /// Debug builds check that the scan counted no row of a class the plan
    /// does not count, and that the node ends with the rows per class its
    /// parent's table gives. Returns the rows added.
    fn complete(&mut self, plan: &Plan, sibling: Option<&CountsTable>) -> MwResult<u64> {
        if self.fallback {
            return Err(MwError::Internal("a planned node fell back to SQL".into()));
        }
        let node = self.req.node();
        debug_assert!(
            self.cc.class_distribution().all(|(k, _)| plan.counts(k)),
            "node {node:?} counted a row of a class its plan takes elsewhere"
        );
        let sibling = sibling.zip(plan.sibling.map(|(_, edge)| edge));
        let added = self.cc.complete(&plan.parent, sibling, &plan.sources)?;
        debug_assert!(
            self.cc.class_distribution().eq(plan.distribution()),
            "node {node:?} completed to other class totals than its parent's table gives"
        );
        Ok(added)
    }

    /// Does the scan tee this node's rows into a staged file or memory set?
    pub(crate) fn tees(&self) -> bool {
        self.file_writer.is_some() || self.mem_buffer.is_some()
    }

    /// Does the scan need every row of this node? Unless it has a plan and
    /// does not tee: then no count and no staged copy reads the rows of the
    /// classes the plan does not count.
    pub(crate) fn needs_rows(&self) -> bool {
        self.plan.is_none() || self.tees()
    }

    /// Does the scan need no row of this node? When it has a plan counting
    /// none of the classes it holds, does not tee, and did not fall back to
    /// SQL: its parent's table, and its sibling's, settle it.
    fn needs_no_row(&self) -> bool {
        let counts_none = |p: &Plan| p.classes().next().is_none();
        !self.tees() && !self.fallback && self.plan.as_ref().is_some_and(counts_none)
    }
}

/// One batch's counting pass.
pub struct BatchCounter {
    /// Counting state per scheduled node.
    pub nodes: Vec<NodeCounter>,
    /// Hybrid split output: rows matching *any* scheduled node.
    pub split_writer: Option<FileWriter>,
    /// The memory-tier twin of the split file, when the batch compacts its
    /// memory source (`BatchPlan::compact_mem`): the source offsets of the
    /// rows matching any predicate of the router — a scheduled node's or a
    /// waiting request's — in source order. Scan scratch, like the
    /// router's arena — 4 B a kept row, not charged to the budget.
    pub kept: Option<Vec<u32>>,
    /// Source offset of the next row the scan feeds, advanced while `kept`
    /// records.
    next_row: u32,
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
    /// The nodes' path predicates, compiled once; predicate `i` is node
    /// `i`'s. A compacting batch appends the paths of the requests waiting
    /// on its source, which the scan routes only to keep their rows: it
    /// neither counts nor tees them. Read-only, so the sharded readers
    /// share it.
    pub(crate) router: Arc<PredSet>,
    /// Reusable per-row route output — hoisted out of `process_row` so
    /// the hot loop never allocates.
    matched: Vec<usize>,
    /// Count whole blocks through the route-then-count pass when possible
    /// (`MiddlewareConfig::batch_kernel`); off pins the row path.
    pub(crate) batch_kernel: bool,
    /// Reusable selection/tally scratch of the block pass.
    pass: BlockPass,
    /// The source table's mutation epoch when the scan was certified.
    pub(crate) epoch: u64,
}

/// How a certified scan reads its source ([`BatchCounter::certify`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Scan {
    /// Not at all: the plans settle every node without a row.
    Unread,
    /// Block by block, on the session thread (`BatchCounter::process`).
    Serial,
    /// On sharded extent readers (`crate::parallel::scan_extents`).
    Sharded,
}

/// A block of rows in either layout the scan paths produce, as the
/// route-then-count pass reads it.
pub(crate) trait Block {
    /// Rows in the block.
    fn nrows(&self) -> usize;
    /// Column `col` of the block, as the router and the kernel read it.
    /// Panics on a column past the arity.
    fn column(&self, col: usize) -> ColumnView<'_>;
    /// Append column `col` of the selected rows to `out` — for the file
    /// tee, which copies the selection into the extent it is writing.
    fn gather(&self, col: usize, sel: &[u32], out: &mut Vec<Code>) {
        let codes = self.column(col);
        // Selections are minted over this block's rows.
        out.extend(sel.iter().map(|&r| codes.get(r)));
    }
    /// Hand each selected row — every row for `None` — to `f`, rows
    /// ascending: the one place a block is taken apart into rows, for the
    /// row-major tees and for a block that must take the row path.
    fn for_each_row(
        &mut self,
        sel: Option<&[u32]>,
        f: impl FnMut(&[Code]) -> MwResult<()>,
    ) -> MwResult<()>;
}

/// A row-major block: a run of a memory set or of a wire fetch.
pub(crate) struct RowBlock<'a> {
    pub(crate) flat: &'a [Code],
    pub(crate) arity: usize,
}

impl Block for RowBlock<'_> {
    fn nrows(&self) -> usize {
        self.flat.len() / self.arity
    }

    fn column(&self, col: usize) -> ColumnView<'_> {
        ColumnView::row_major(self.flat, self.arity, col)
    }

    fn for_each_row(
        &mut self,
        sel: Option<&[u32]>,
        mut f: impl FnMut(&[Code]) -> MwResult<()>,
    ) -> MwResult<()> {
        match sel {
            // Selections ascend, so a full one is the block itself.
            Some(sel) if sel.len() != self.nrows() => {
                for &r in sel {
                    let start = r as usize * self.arity;
                    // analyze:allow(hot-path-panic): selections are minted
                    // over this block's rows.
                    f(&self.flat[start..start + self.arity])?;
                }
                Ok(())
            }
            _ => self.flat.chunks_exact(self.arity).try_for_each(f),
        }
    }
}

/// A column-major block: one decoded extent of a staged file.
pub(crate) struct ColBlock<'a> {
    pub(crate) cols: &'a [Vec<Code>],
    pub(crate) nrows: usize,
    /// Scratch the rows are assembled in, owned by whoever decodes the
    /// extents so that it outlives them all.
    pub(crate) row: &'a mut Vec<Code>,
}

impl Block for ColBlock<'_> {
    fn nrows(&self) -> usize {
        self.nrows
    }

    fn column(&self, col: usize) -> ColumnView<'_> {
        ColumnView {
            codes: &self.cols[col],
            stride: 1,
        }
    }

    fn for_each_row(
        &mut self,
        sel: Option<&[u32]>,
        mut f: impl FnMut(&[Code]) -> MwResult<()>,
    ) -> MwResult<()> {
        let (cols, row) = (self.cols, &mut *self.row);
        // Every decoded column holds `nrows` codes, and selections are
        // minted over this block's rows.
        let mut assemble = |r: usize| {
            row.clear();
            row.extend(cols.iter().map(|c| c[r]));
            f(row)
        };
        match sel {
            Some(sel) if sel.len() != self.nrows => {
                sel.iter().try_for_each(|&r| assemble(r as usize))
            }
            _ => (0..self.nrows).try_for_each(assemble),
        }
    }
}

/// What the block pass did over one block; the counter adds it to the
/// stats after every block.
#[derive(Debug, Clone, Copy, Default)]
struct KernelTally {
    blocks_counted: u64,
    block_fallback_rows: u64,
    validate_nanos: u64,
    accumulate_nanos: u64,
}

impl KernelTally {
    /// Fold the tally into the middleware's block-kernel counters.
    fn add_to(&self, stats: &mut MiddlewareStats) {
        stats.blocks_counted += self.blocks_counted;
        stats.block_fallback_rows += self.block_fallback_rows;
        stats.kernel_validate_nanos += self.validate_nanos;
        stats.kernel_accumulate_nanos += self.accumulate_nanos;
    }
}

fn nanos_since(t0: Instant) -> u64 {
    u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// Node `idx`'s counts table with the attribute columns and class column
/// it counts, and its plan; `None` when the scan does not count the node.
fn slot(
    nodes: &mut [NodeCounter],
    idx: usize,
) -> Option<(&mut CountsTable, &[u16], u16, Option<&Plan>)> {
    let node = nodes.get_mut(idx)?;
    let attrs = node.req.attrs.as_slice();
    (node.counts()).then_some((&mut node.cc, attrs, node.req.class_col, node.plan.as_ref()))
}

/// Node `idx` to write and node `other` to read; `None` unless both
/// exist and differ.
fn node_and(
    nodes: &mut [NodeCounter],
    idx: usize,
    other: usize,
) -> Option<(&mut NodeCounter, &NodeCounter)> {
    if idx < other {
        let (low, high) = nodes.split_at_mut_checked(other)?;
        Some((low.get_mut(idx)?, high.first()?))
    } else {
        let (low, high) = nodes.split_at_mut_checked(idx)?;
        Some((high.first_mut()?, low.get(other)?))
    }
}

/// The route-then-count pass over one block, and its reusable scratch;
/// the budget protocol between [`BlockPass::cc_bound`] and
/// [`BlockPass::count`] is [`BatchCounter`]'s.
#[derive(Default)]
struct BlockPass {
    /// Per node some row of the block satisfies: those rows, ascending —
    /// and, when asked, the rows some node took.
    routed: BlockRoute,
    /// The scan's range certificate ([`BatchCounter::certify`]): per
    /// column, an upper bound on every code of every block of the scan.
    /// Empty until certified, which covers no dense node.
    certificate: Vec<Code>,
    /// Per node: does its table cover the certificate
    /// ([`CountsTable::covers`])? Settled once, when the scan certifies;
    /// a dense node it does not cover sends every block selecting its rows
    /// down the row path.
    covered: Vec<bool>,
    /// The kernel's scratch.
    kernel: KernelScratch,
    /// A planned node's selection cut down to the classes it counts.
    sliced: Vec<u32>,
}

impl BlockPass {
    /// First pass: route `block` once, into per-node selection vectors
    /// (and, with `mark_any`, the rows some node took).
    fn route(&mut self, router: &PredSet, block: &impl Block, mark_any: bool) {
        // The certificate is trusted in release builds; here every block
        // proves it.
        #[cfg(debug_assertions)]
        for (col, &cap) in self.certificate.iter().enumerate() {
            let codes = block.column(col);
            let max = (0..block.nrows() as u32).map(|r| codes.get(r)).max();
            assert!(
                max.is_none_or(|max| max <= cap),
                "a code of column {col} ({max:?}) above the scan's certificate ({cap})"
            );
        }
        router.route_block(block.nrows(), |col| block.column(col), &mut self.routed);
        if mark_any {
            self.routed.mark_matched();
        }
    }

    /// Nodes the last routed block selected rows for, ascending, each
    /// with those rows.
    fn selections(&self) -> impl Iterator<Item = (usize, &[u32])> {
        self.routed.selections()
    }

    /// The rows of the last routed block that some node selected.
    fn any(&self) -> &[u32] {
        self.routed.matched()
    }

    /// The most counting the routed block can add to modelled memory:
    /// `Σ` over the touched nodes still counting of
    /// [`CountsTable::block_growth_bound`] of their selected rows. `None`
    /// when some such node's table is not `covered`: a code of the scan
    /// may then fall outside its dense layout, the free-slot cap of the
    /// bound is void, and the block must take the row path whole, where
    /// the spill fires at the row it always did.
    fn cc_bound(&self, nodes: &mut [NodeCounter], tally: &mut KernelTally) -> Option<u64> {
        if self.selections().next().is_none() {
            return Some(0);
        }
        let t0 = Instant::now();
        let mut bound = Some(0u64);
        for (idx, sel) in self.routed.selections() {
            let Some((cc, attrs, _, _)) = slot(nodes, idx) else {
                continue;
            };
            if !self.covered.get(idx).is_some_and(|&covered| covered) {
                bound = None;
                break;
            }
            let rows = sel.len() as u64;
            bound = bound.map(|b| b.saturating_add(cc.block_growth_bound(rows, attrs.len())));
        }
        tally.validate_nanos += nanos_since(t0);
        bound
    }

    /// Second pass: per touched node still counting, count its selected
    /// rows — a planned node's in the classes it counts — through the block
    /// kernel, in place. Returns the modelled bytes the tables grew by — at
    /// most the [`BlockPass::cc_bound`] the caller gated on.
    fn count(
        &mut self,
        block: &impl Block,
        nodes: &mut [NodeCounter],
        tally: &mut KernelTally,
    ) -> u64 {
        let t0 = Instant::now();
        let mut grew = 0u64;
        let BlockPass {
            routed,
            kernel,
            sliced,
            ..
        } = self;
        for (idx, sel) in routed.selections() {
            if let Some((cc, attrs, class_col, plan)) = slot(nodes, idx) {
                let sel = match plan {
                    Some(plan) => {
                        let class = block.column(usize::from(class_col));
                        sliced.clear();
                        sliced.extend(sel.iter().filter(|&&r| plan.counts(class.get(r))));
                        sliced.as_slice()
                    }
                    None => sel,
                };
                if sel.is_empty() {
                    continue;
                }
                let before = cc.entries();
                let rows = sel.iter().copied();
                cc.add_rows(rows, |c| block.column(c), attrs, class_col, kernel);
                grew += (cc.entries() - before) as u64 * CC_ENTRY_BYTES;
                tally.blocks_counted += 1;
            }
        }
        tally.accumulate_nanos += nanos_since(t0);
        grew
    }
}

impl BatchCounter {
    /// A counting pass over `nodes` against the given budget; `base_mem_bytes`
    /// is memory already pinned by staged data.
    pub fn new(nodes: Vec<NodeCounter>, budget: u64, base_mem_bytes: u64, arity: usize) -> Self {
        let router = Arc::new(PredSet::new(nodes.iter().map(|n| n.req.pred())));
        Self::with_router(nodes, router, budget, base_mem_bytes, arity)
    }

    /// [`BatchCounter::new`] over a router already compiled from `nodes`'
    /// paths, in order, and possibly more after them (`BatchCounter::kept`).
    pub(crate) fn with_router(
        nodes: Vec<NodeCounter>,
        router: Arc<PredSet>,
        budget: u64,
        base_mem_bytes: u64,
        arity: usize,
    ) -> Self {
        let mut batch = BatchCounter {
            nodes,
            split_writer: None,
            kept: None,
            next_row: 0,
            evictable: Vec::new(),
            evicted: Vec::new(),
            budget,
            base_mem_bytes,
            cc_bytes: 0,
            buffer_bytes: 0,
            arity,
            router,
            matched: Vec::with_capacity(8),
            batch_kernel: true,
            pass: BlockPass::default(),
            epoch: 0,
        };
        // Until certified, the empty certificate covers the sparse tables.
        batch.settle_coverage();
        batch
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
            .map(|b| b.len_bytes() as u64)
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
        let budget = self.budget;
        let mut base = self.base_mem_bytes;
        let mut cc_bytes = self.cc_bytes;
        let mut buffer_bytes = self.buffer_bytes;

        // Exactly the nodes whose predicate the row satisfies, ascending.
        let mut matched = std::mem::take(&mut self.matched);
        self.router.route(row, &mut matched);

        for &idx in &matched {
            // Predicate `i` is node `i`'s; one past the nodes only keeps
            // its rows.
            let Some(node) = self.nodes.get_mut(idx) else {
                break;
            };

            // Counting (unless this node fell back to SQL, is derived, or
            // copies the row's class from its parent).
            if node.counts_row(row) {
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
                buf.push(row);
                buffer_bytes += buf.width().row_bytes(self.arity);
                if base + cc_bytes + buffer_bytes > budget {
                    // Staging is best-effort: cancel this node's memory
                    // staging rather than evicting counts.
                    buffer_bytes -= node.mem_buffer.take().map_or(0, |b| b.len_bytes() as u64);
                }
            }
        }
        let any_matched = !matched.is_empty();
        self.matched = matched;
        self.cc_bytes = cc_bytes;
        self.buffer_bytes = buffer_bytes;
        self.base_mem_bytes = base;

        if any_matched {
            if let Some(w) = self.split_writer.as_mut() {
                w.push(row)?;
            }
        }
        if let Some(kept) = self.kept.as_mut() {
            if any_matched {
                kept.push(self.next_row);
            }
            self.next_row += 1;
        }
        stats.observe_memory(self.memory_in_use());
        Ok(())
    }

    /// Feed a row-major block of rows through every scheduled node
    /// (`BatchCounter::process` over that layout). A block handed in from
    /// outside a scan has no table to certify it, so its own column maxima
    /// are its certificate; its memory tees keep the width they were made
    /// with, which must hold every code they are handed.
    pub fn process_block(&mut self, flat: &[Code], stats: &mut MiddlewareStats) -> MwResult<()> {
        let arity = self.arity;
        debug_assert_eq!(flat.len() % arity, 0);
        let certificate = &mut self.pass.certificate;
        certificate.clear();
        certificate.resize(arity, 0);
        for row in flat.chunks_exact(arity) {
            for (max, &code) in certificate.iter_mut().zip(row) {
                *max = (*max).max(code);
            }
        }
        self.settle_coverage();
        self.process(&mut RowBlock { flat, arity }, stats)
    }

    /// Start the batch's scan, before its first block: it reads at most
    /// `rows` rows of a source table at mutation `epoch`, and every code of
    /// them lies at or under `certificate`, per column. `plans` are the
    /// batch's derivations, per node, that this scan can keep
    /// (`crate::siblings::Parents::plan`). When some plan is made, or the
    /// scan may `shard` — an exact staged-file scan under
    /// `scan_workers > 1` — the scan tries to prove it fires no budget
    /// event ([`BatchCounter::cannot_reach_budget`]). Proved, the nodes
    /// take their plans; otherwise they count every class, and each plan
    /// that takes classes from a sibling counts into
    /// `stats.derivations_refused`. Returns how to read the source:
    /// [`Scan::Unread`] when the plans settle every node without a row
    /// ([`BatchCounter::reads_nothing`], counted into
    /// `stats.unread_batches`), [`Scan::Sharded`] when the proof holds for
    /// a scan that may shard, [`Scan::Serial`] otherwise.
    pub(crate) fn certify(
        &mut self,
        certificate: &[Code],
        rows: u64,
        epoch: u64,
        plans: Vec<Option<Plan>>,
        shard: bool,
        stats: &mut MiddlewareStats,
    ) -> Scan {
        self.set_certificate(certificate);
        self.epoch = epoch;
        let planned = plans.iter().any(Option::is_some);
        let proved = (shard || planned) && self.cannot_reach_budget(rows);
        if proved {
            for (node, plan) in self.nodes.iter_mut().zip(plans) {
                node.plan = plan;
            }
        } else {
            let derived = plans.iter().flatten().filter(|p| p.sibling.is_some());
            stats.derivations_refused += derived.count() as u64;
        }
        if self.reads_nothing() {
            self.kept = None;
            stats.unread_batches += 1;
            Scan::Unread
        } else if proved && shard {
            Scan::Sharded
        } else {
            Scan::Serial
        }
    }

    /// Take `certificate` as the scan's: every code it reads lies at or
    /// under it, per column — the source table's `col_max`, which bounds
    /// every copy of its rows too. Settles each node's coverage, and fixes
    /// the width of each memory tee, before its first row: the narrowest
    /// that holds the certificate ([`CodeWidth::holding`]).
    pub(crate) fn set_certificate(&mut self, certificate: &[Code]) {
        self.pass.certificate.clear();
        self.pass.certificate.extend_from_slice(certificate);
        self.settle_coverage();
        let width = CodeWidth::holding(certificate);
        for buf in self.nodes.iter_mut().filter_map(|n| n.mem_buffer.as_mut()) {
            buf.set_width(width);
        }
    }

    /// Decide, per node, whether its table covers the certificate
    /// (`BlockPass::covered`), once for the scan: a covered dense table
    /// cannot spill, so the answer holds until the next certificate.
    fn settle_coverage(&mut self) {
        let pass = &mut self.pass;
        pass.covered.clear();
        for n in &self.nodes {
            let covered =
                n.cc.covers(&pass.certificate, &n.req.attrs, n.req.class_col);
            pass.covered.push(covered);
        }
    }

    /// Can the certified scan, of at most `rows` rows, provably not reach
    /// the budget? That is, is
    ///
    /// `memory_in_use + Σ_n min(E_n, rows·|attrs_n|, B_n)·CC_ENTRY_BYTES
    ///  + Σ_{n with a memory tee} rows·arity·width ≤ budget`,
    ///
    /// where `E_n = Σ_{a ∈ attrs_n}(cert[a] + 1) · (cert[class_n] + 1)` is
    /// the most `(attr, value, class)` entries node `n`'s table can hold —
    /// dense, spilled or sparse — when every code is at or under the
    /// certificate, and `B_n` the bound its parent's exact table sets
    /// ([`EntryBound`]): `Σ_a min(nonzero_parent(a), rows_n)`, charged only
    /// when the scan runs at the epoch the parent was counted at, where the
    /// node's rows are a subset of the parent's. File tees and the split
    /// file cost disk, not budget. When it holds, no row of the scan fires
    /// an eviction, a §4.1.1 fallback or a tee cancellation, whatever the
    /// order or split of its blocks, and modelled memory only grows: its
    /// final state is its peak. False before a certificate is set.
    pub(crate) fn cannot_reach_budget(&self, rows: u64) -> bool {
        let cert = &self.pass.certificate;
        let card = |col: u16| cert.get(usize::from(col)).map(|&max| u64::from(max) + 1);
        let mut need = self.memory_in_use();
        for node in &self.nodes {
            let attrs = &node.req.attrs;
            let (Some(values), Some(classes)) = (
                attrs.iter().map(|&a| card(a)).sum::<Option<u64>>(),
                card(node.req.class_col),
            ) else {
                return false;
            };
            let by_rows = rows.saturating_mul(attrs.len() as u64);
            let by_parent = self.parent_bound(node).unwrap_or(u64::MAX);
            let entries = values.saturating_mul(classes).min(by_rows).min(by_parent);
            need = need.saturating_add(entries.saturating_mul(CC_ENTRY_BYTES));
            if let Some(buf) = &node.mem_buffer {
                let row_bytes = buf.width().row_bytes(self.arity);
                need = need.saturating_add(rows.saturating_mul(row_bytes));
            }
        }
        need <= self.budget
    }

    /// Does the certified batch need no row of its source? When no node
    /// needs one ([`NodeCounter::needs_no_row`]) and the batch writes no
    /// split file, which takes every row some node selects. Such a batch
    /// only completes its tables ([`BatchCounter::derive`]): its plans
    /// stand at their parents' epoch, where a node holds no row of a class
    /// its parent's table gives it none of, so a scan would count nothing.
    /// A compaction it was scheduled for is dropped, not read for: the set
    /// stays whole for its next reader, which may compact it.
    fn reads_nothing(&self) -> bool {
        self.split_writer.is_none() && self.nodes.iter().all(NodeCounter::needs_no_row)
    }

    /// `node`'s parent bound, if it was recorded at the scan's epoch.
    fn parent_bound(&self, node: &NodeCounter) -> Option<u64> {
        (node.bound)
            .filter(|b| b.epoch == self.epoch)
            .map(|b| b.entries)
    }

    /// Debug builds: every table the batch ends with — a planned one once
    /// completed — holds at most the entries its parent bound allows
    /// ([`BatchCounter::parent_bound`]).
    fn debug_assert_parent_bounds(&self) {
        if cfg!(debug_assertions) {
            for node in &self.nodes {
                let bound = self.parent_bound(node).unwrap_or(u64::MAX);
                debug_assert!(
                    node.cc.entries() as u64 <= bound,
                    "node {:?} holds {} entries over its parent bound {bound}",
                    node.req.node(),
                    node.cc.entries()
                );
            }
        }
    }

    /// The filter a server scan pushes down once it is certified, its
    /// nodes carrying the plans it keeps (§4.3.1, `crate::filter`): the
    /// union of the paths of the nodes, each cut down to the classes the
    /// scan counts unless it needs every row
    /// ([`NodeCounter::needs_rows`]) — a node derived whole left out —
    /// and of every node whole when the batch writes a split file, which
    /// takes each row some node selects. A cut node is one disjunct per
    /// counted class, the path ANDed with `class = k`: a plain conjunction
    /// the server's router compiles, and the router's `PredSet` shares the
    /// path prefix they have in common. The nodes cut are marked
    /// `unshipped`, for [`BatchCounter::derive`] to count the rows the wire
    /// never carried.
    pub(crate) fn pushdown(&mut self) -> Pred {
        let split = self.split_writer.is_some();
        let mut shipped = Vec::with_capacity(self.nodes.len());
        for node in &mut self.nodes {
            node.unshipped = !split && !node.needs_rows();
            let path = node.req.pred();
            let col = usize::from(node.req.class_col);
            match (&node.plan, node.unshipped) {
                (Some(plan), true) => shipped.extend(
                    (plan.classes())
                        .map(|value| Pred::and(vec![path.clone(), Pred::Eq { col, value }])),
                ),
                _ => shipped.push(path.clone()),
            }
        }
        Pred::or(shipped)
    }

    /// Complete every planned node's table after the scan and any sharded
    /// merge, from its parent's table less its sibling's in the classes the
    /// sibling counted and from its parent's in the classes it copies
    /// (`CountsTable::complete`) — a node derived whole too, which reads
    /// its sibling only where the sibling counts, so the order is free.
    /// Charge the entries to modelled memory and observe it once — the
    /// proof the plans stand under makes that the scan's peak. Debug builds
    /// then check every table against its parent bound.
    ///
    /// # Errors
    ///
    /// [`MwError::Internal`] when a table does not complete: the parent's
    /// table was not that parent's, or a sibling fell back.
    pub(crate) fn derive(&mut self, stats: &mut MiddlewareStats) -> MwResult<()> {
        let plans: Vec<(usize, Plan)> = (self.nodes.iter_mut().enumerate())
            .filter_map(|(idx, node)| Some((idx, node.plan.take()?)))
            .collect();
        if plans.is_empty() {
            self.debug_assert_parent_bounds();
            return Ok(());
        }
        let t0 = Instant::now();
        let lost = || MwError::Internal("a planned node lost its sibling".into());
        let fell_back =
            || MwError::Internal("the sibling of a derived node fell back to SQL".into());
        for (idx, plan) in plans {
            let (node, sibling) = match plan.sibling {
                Some((s, _)) => {
                    let (node, sibling) = node_and(&mut self.nodes, idx, s).ok_or_else(lost)?;
                    if sibling.fallback {
                        return Err(fell_back());
                    }
                    (node, Some(&sibling.cc))
                }
                None => (self.nodes.get_mut(idx).ok_or_else(lost)?, None),
            };
            let before = node.cc.memory_bytes();
            node.complete(&plan, sibling)?;
            self.cc_bytes += node.cc.memory_bytes() - before;
            let from_sibling = plan.rows_from(ClassSource::Sibling);
            let from_parent = plan.rows_from(ClassSource::Parent);
            if plan.sibling.is_some() {
                stats.derived_nodes += 1;
                stats.derived_rows += from_sibling;
            }
            if plan.sources.contains(&ClassSource::Parent) {
                stats.sliced_nodes += 1;
            }
            if node.unshipped {
                stats.derived_rows_unshipped += from_sibling;
                stats.sliced_rows_unshipped += from_parent;
            }
        }
        debug_assert!(
            self.memory_in_use() <= self.budget,
            "completed tables took a scan the proof cleared past the budget"
        );
        stats.observe_memory(self.memory_in_use());
        stats.kernel_accumulate_nanos += nanos_since(t0);
        self.debug_assert_parent_bounds();
        Ok(())
    }

    /// A counter for one sharded reader of this batch's scan: the same
    /// requests, router, certificate and kernel switch, empty tables of
    /// the same backends, no tees, no budget and nothing to evict. Sound
    /// only over a scan `BatchCounter::cannot_reach_budget` cleared:
    /// there this batch fires nothing either, and counting is additive,
    /// so the workers' tables merged are the tables it would count.
    pub(crate) fn worker(&self) -> BatchCounter {
        let nodes = self
            .nodes
            .iter()
            .map(|n| NodeCounter {
                cc: n.cc.fresh_like(),
                plan: n.plan.clone(),
                ..NodeCounter::new(n.req.clone())
            })
            .collect();
        let router = Arc::clone(&self.router);
        let mut worker = Self::with_router(nodes, router, u64::MAX, 0, self.arity);
        worker.batch_kernel = self.batch_kernel;
        worker.set_certificate(&self.pass.certificate);
        worker
    }

    /// Feed a block, in whichever layout its source has, through every
    /// scheduled node: route-then-count when the block clears its gate
    /// (module docs), [`BatchCounter::process_row`] per row — with
    /// identical results — when it does not or the kernel is disabled.
    pub(crate) fn process(
        &mut self,
        block: &mut impl Block,
        stats: &mut MiddlewareStats,
    ) -> MwResult<()> {
        let nrows = block.nrows();
        if nrows == 0 {
            return Ok(());
        }
        if self.batch_kernel {
            let mut tally = KernelTally::default();
            let counted = self.count_block(block, &mut tally)?;
            if !counted {
                tally.block_fallback_rows += nrows as u64;
            }
            tally.add_to(stats);
            if counted {
                // Modelled memory only grows inside a block that cleared
                // its gate, so this is the per-row maximum.
                stats.observe_memory(self.memory_in_use());
                return Ok(());
            }
        }
        block.for_each_row(None, |row| self.process_row(row, stats))
    }

    /// The block path: route, gate, count, tee. `Ok(false)` — with
    /// nothing counted, teed or charged — when the block must take the
    /// row path instead.
    fn count_block(&mut self, block: &mut impl Block, tally: &mut KernelTally) -> MwResult<bool> {
        // The rows some node took, too, when a split file or a compaction
        // reads them.
        let mark_any = self.split_writer.is_some() || self.kept.is_some();
        self.pass.route(&self.router, block, mark_any);
        let Some(cc_bound) = self.pass.cc_bound(&mut self.nodes, tally) else {
            return Ok(false);
        };
        // A memory tee grows by exactly the rows it is handed, in its width.
        let arity = self.arity;
        let tee_bound: u64 = (self.pass.selections())
            .filter_map(|(idx, sel)| {
                let buf = self.nodes.get(idx)?.mem_buffer.as_ref()?;
                Some(sel.len() as u64 * buf.width().row_bytes(arity))
            })
            .sum();
        if self
            .memory_in_use()
            .saturating_add(cc_bound)
            .saturating_add(tee_bound)
            > self.budget
        {
            return Ok(false);
        }
        self.cc_bytes += self.pass.count(block, &mut self.nodes, tally);
        self.tee(block)?;
        debug_assert!(
            self.memory_in_use() <= self.budget,
            "block pass engaged without clearing its growth bound"
        );
        Ok(true)
    }

    /// Serve the staging tees from the last routed block's selections, in
    /// row order: a file tee takes its node's selection column by column,
    /// a memory buffer row by row, the split file every row some node took,
    /// and the kept rows of a compaction their source offsets.
    fn tee(&mut self, block: &mut impl Block) -> MwResult<()> {
        for (idx, sel) in self.pass.selections() {
            // Predicate `i` is node `i`'s.
            let Some(node) = self.nodes.get_mut(idx) else {
                continue;
            };
            if let Some(w) = node.file_writer.as_mut() {
                w.push_selected(block, sel)?;
            }
            if let Some(buf) = node.mem_buffer.as_mut() {
                block.for_each_row(Some(sel), |row| {
                    buf.push(row);
                    Ok(())
                })?;
                self.buffer_bytes += sel.len() as u64 * buf.width().row_bytes(self.arity);
            }
        }
        if let Some(w) = self.split_writer.as_mut() {
            w.push_selected(block, self.pass.any())?;
        }
        if let Some(kept) = self.kept.as_mut() {
            let at = self.next_row;
            kept.extend(self.pass.any().iter().map(|&r| at + r));
            self.next_row += block.nrows() as u32;
        }
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
        // narrow one two, so exactly one of them hits the ceiling — which
        // one depends on the order a row visits overlapping nodes
        // (ascending node index); the other keeps exact counts.
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
    fn router_covers_all_predicate_shapes() {
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
        // one per attribute) plus two buffered rows in the tee's width, not
        // three.
        for width in [CodeWidth::One, CodeWidth::Two] {
            let budget = 2 * CC_ENTRY_BYTES + 2 * width.row_bytes(ARITY);
            let mut node = NodeCounter::new(root_request());
            node.mem_buffer = Some(MemRows::new(width));
            let mut batch = BatchCounter::new(vec![node], budget, 0, ARITY);
            let mut stats = MiddlewareStats::new();
            batch.process_row(&[0, 0, 0], &mut stats).unwrap();
            batch.process_row(&[0, 0, 0], &mut stats).unwrap();
            assert!(batch.nodes[0].mem_buffer.is_some());
            assert_eq!(batch.memory_in_use(), budget, "{width:?}");
            batch.assert_shadow_accounting();
            batch.process_row(&[0, 0, 0], &mut stats).unwrap();
            assert!(
                batch.nodes[0].mem_buffer.is_none(),
                "buffer dropped, counting unaffected"
            );
            assert!(!batch.nodes[0].fallback);
            assert_eq!(batch.nodes[0].cc.total(), 3);
        }
    }

    /// A certified scan fixes its memory tees' width from the certificate
    /// before the first row: one byte a code while every column is bounded
    /// by 255, two otherwise; the proof and the tee charge rows in that
    /// width.
    #[test]
    fn a_certified_tee_takes_the_width_of_its_certificate() {
        for (b_max, width) in [(3, CodeWidth::One), (300, CodeWidth::Two)] {
            let mut node = NodeCounter::new(root_request());
            node.mem_buffer = Some(MemRows::new(CodeWidth::Two));
            let mut batch = BatchCounter::new(vec![node], u64::MAX, 0, ARITY);
            batch.set_certificate(&[3, b_max, 1]);
            let teed = |b: &BatchCounter| b.nodes[0].mem_buffer.as_ref().map(MemRows::width);
            assert_eq!(teed(&batch), Some(width));
            // The proof charges 100 rows' entries — the fewer of the
            // certificate's and two a row — and the rows in the tee's
            // width, to the byte.
            let entries = ((4 + u64::from(b_max) + 1) * 2).min(2 * 100);
            batch.budget = entries * CC_ENTRY_BYTES + 100 * width.row_bytes(ARITY);
            assert!(batch.cannot_reach_budget(100), "{width:?}");
            batch.budget -= 1;
            assert!(!batch.cannot_reach_budget(100), "{width:?}");
            batch.budget = u64::MAX;
            let flat = [2, b_max, 1, 0, 0, 0];
            batch
                .process(
                    &mut RowBlock {
                        flat: &flat,
                        arity: ARITY,
                    },
                    &mut MiddlewareStats::new(),
                )
                .unwrap();
            batch.assert_shadow_accounting();
            let codes = batch.nodes[0].mem_buffer.as_ref().map(MemRows::to_codes);
            assert_eq!(codes.as_deref(), Some(&flat[..]));
            assert_eq!(batch.buffer_bytes, 2 * width.row_bytes(ARITY));
        }
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

    /// Everything a tee'd batch wrote: the memory buffer of node 1, the
    /// staged file of node 2 and the split file, as bytes.
    fn tee_outputs(
        mut batch: BatchCounter,
        staging: &mut crate::staging::StagingManager,
    ) -> (Vec<Code>, Vec<u8>, Vec<u8>) {
        let mut stats = MiddlewareStats::new();
        let mut file_bytes = |w: FileWriter| {
            let id = staging.commit_file(w, &mut stats).unwrap();
            std::fs::read(staging.extent_layout(id).unwrap().unwrap().path).unwrap()
        };
        let node_file = file_bytes(batch.nodes[2].file_writer.take().unwrap());
        let split_file = file_bytes(batch.split_writer.take().unwrap());
        (
            batch.nodes[1].mem_buffer.take().unwrap().to_codes(),
            node_file,
            split_file,
        )
    }

    #[test]
    fn process_block_serves_tees_from_the_selections() {
        use crate::request::NodeId;
        let flat: Vec<Code> = BLOCK_ROWS.iter().flatten().copied().collect();
        let run = |kernel: bool| {
            let mut staging = crate::staging::StagingManager::new(None).unwrap();
            staging.set_extent_rows(2);
            let mut nodes = block_nodes();
            nodes.remove(0); // no root: the split file must skip [0, 0, 0]
            nodes.push(NodeCounter::new(request(3, Pred::Eq { col: 0, value: 2 })));
            nodes[1].mem_buffer = Some(MemRows::new(CodeWidth::One));
            let pred = nodes[2].req.pred().clone();
            nodes[2].file_writer = Some(staging.start_file(vec![NodeId(3)], pred, ARITY).unwrap());
            let mut batch = BatchCounter::new(nodes, u64::MAX, 0, ARITY);
            batch.split_writer = Some(
                staging
                    .start_file(vec![NodeId(9)], Pred::True, ARITY)
                    .unwrap(),
            );
            batch.batch_kernel = kernel;
            batch.kept = Some(Vec::new());
            let mut stats = MiddlewareStats::new();
            // Two blocks, so tees append across block boundaries.
            for block in flat.chunks(4 * ARITY) {
                batch.process_block(block, &mut stats).unwrap();
            }
            batch.assert_shadow_accounting();
            let counts: Vec<CountsTable> = batch.nodes.iter().map(|n| n.cc.clone()).collect();
            let memory = batch.memory_in_use();
            let kept = batch.kept.take();
            (
                counts,
                memory,
                kept,
                tee_outputs(batch, &mut staging),
                stats,
            )
        };
        let (row_counts, row_memory, row_kept, row_tees, row_stats) = run(false);
        let (counts, memory, kept, tees, stats) = run(true);
        assert_eq!(row_stats.blocks_counted, 0);
        assert!(
            stats.blocks_counted > 0,
            "tees no longer force the row path"
        );
        assert_eq!(stats.block_fallback_rows, 0);
        assert_eq!(counts, row_counts);
        assert_eq!(memory, row_memory);
        assert_eq!(stats.peak_memory_bytes, row_stats.peak_memory_bytes);
        assert_eq!(tees, row_tees, "memory buffer, node file and split file");
        // A compaction keeps the split file's rows, by source offset.
        assert_eq!(kept, row_kept);
        assert_eq!(kept, Some(vec![1, 2, 3, 4, 5]));
        // Rows 2 and 3 satisfy two nodes each: counted into both (seven
        // counts over five matching rows), written to the split file once.
        assert_eq!(counts.iter().map(CountsTable::total).sum::<u64>(), 7);
        // b <> 0: rows 2, 3 and 4, in row order.
        assert_eq!(tees.0, [1, 1, 0, 2, 1, 1, 0, 2, 0]);
    }

    /// A path routed past the nodes — a request waiting on a compacting
    /// batch's source — keeps its rows and is neither counted nor teed, on
    /// the row path and the block path alike.
    #[test]
    fn a_waiting_path_keeps_its_rows_uncounted() {
        let flat: Vec<Code> = BLOCK_ROWS.iter().flatten().copied().collect();
        let run = |kernel: bool| {
            let mut node = NodeCounter::new(request(1, Pred::Eq { col: 0, value: 1 }));
            node.mem_buffer = Some(MemRows::new(CodeWidth::One));
            let waiting = Pred::Eq { col: 0, value: 0 };
            let router = PredSet::new([node.req.pred(), &waiting]);
            let mut batch =
                BatchCounter::with_router(vec![node], Arc::new(router), u64::MAX, 0, ARITY);
            batch.batch_kernel = kernel;
            batch.kept = Some(Vec::new());
            let mut stats = MiddlewareStats::new();
            for block in flat.chunks(4 * ARITY) {
                batch.process_block(block, &mut stats).unwrap();
            }
            batch.assert_shadow_accounting();
            let node = batch.nodes.pop().unwrap();
            (node.cc, node.mem_buffer, batch.kept)
        };
        let block = run(true);
        assert_eq!(block, run(false));
        let (cc, teed, kept) = block;
        assert_eq!(cc.total(), 3, "only the node's rows are counted");
        assert_eq!(
            teed.map(|t| t.codes()),
            Some(3 * ARITY),
            "only its rows are teed"
        );
        assert_eq!(kept, Some(vec![0, 1, 2, 4, 5]), "both paths' rows are kept");
    }

    /// A row two overlapping nodes both take is counted into both and
    /// named once, in place, in the split selection.
    #[test]
    fn overlapping_nodes_share_a_row_once_in_the_split_selection() {
        let flat: Vec<Code> = BLOCK_ROWS.iter().flatten().copied().collect();
        let block = RowBlock {
            flat: &flat,
            arity: ARITY,
        };
        // a = 1 takes rows 1, 2, 5; b <> 0 takes rows 2, 3, 4.
        let preds = [
            Pred::Eq { col: 0, value: 1 },
            Pred::NotEq { col: 1, value: 0 },
        ];
        let mut pass = BlockPass::default();
        pass.route(&PredSet::new(&preds), &block, true);
        let selections: Vec<_> = pass.selections().collect();
        assert_eq!(
            selections,
            [(0, &[1u32, 2, 5][..]), (1, &[2u32, 3, 4][..])],
            "ascending nodes, ascending rows"
        );
        assert_eq!(pass.any(), [1, 2, 3, 4, 5], "row 2 once, row 0 never");
        pass.route(&PredSet::new(&preds), &block, false);
        assert!(pass.any().is_empty(), "only marked when asked");

        let mut batch = BatchCounter::new(
            preds
                .iter()
                .map(|p| NodeCounter::new(request(1, p.clone())))
                .collect(),
            u64::MAX,
            0,
            ARITY,
        );
        let mut stats = MiddlewareStats::new();
        batch.process_block(&flat, &mut stats).unwrap();
        assert_eq!(stats.block_fallback_rows, 0);
        assert_eq!(batch.nodes[0].cc.total(), 3);
        assert_eq!(batch.nodes[1].cc.total(), 3);
    }

    /// The kernel reads a selection where it lies in either layout: a
    /// decoded extent (column-major) counts what the same rows packed
    /// row-major count, and what the row path counts, on both backends,
    /// for selections that are empty, one row, every row, the first and
    /// last rows, or scattered. Column 3 is the selector.
    #[test]
    fn kernel_counts_a_selection_in_place_in_either_layout() {
        let masks: [fn(u16) -> bool; 5] = [
            |_| false,
            |r| r == 17,
            |_| true,
            |r| r == 0 || r == 39,
            |r| r % 7 == 2 || r % 5 == 0,
        ];
        for (mask, dense) in masks.iter().flat_map(|m| [(m, false), (m, true)]) {
            let rows: Vec<[Code; 4]> = (0..40u16)
                .map(|r| [r % 4, (r * 7 / 3) % 4, (r / 3) % 2, u16::from(mask(r))])
                .collect();
            let flat: Vec<Code> = rows.iter().flatten().copied().collect();
            let cols: Vec<Vec<Code>> = (0..4)
                .map(|c| rows.iter().map(|row| row[c]).collect())
                .collect();
            let nodes = || {
                let preds = [
                    Pred::Eq { col: 3, value: 1 },
                    Pred::NotEq { col: 3, value: 1 },
                ];
                let mut nodes: Vec<NodeCounter> = (1..)
                    .zip(preds)
                    .map(|(id, pred)| NodeCounter::new(request(id, pred)))
                    .collect();
                for node in nodes.iter_mut().filter(|_| dense) {
                    node.cc = CountsTable::new_dense(&[(0, 4), (1, 4)], 2);
                }
                BatchCounter::new(nodes, u64::MAX, 0, 4)
            };
            let mut rowwise = nodes();
            let mut row_major = nodes();
            let mut col_major = nodes();
            let mut stats = [(); 3].map(|()| MiddlewareStats::new());
            for row in &rows {
                rowwise.process_row(row, &mut stats[0]).unwrap();
            }
            row_major.process_block(&flat, &mut stats[1]).unwrap();
            let (cols, nrows, row) = (&cols[..], rows.len(), &mut Vec::new());
            col_major.set_certificate(&[3, 3, 1, 1]);
            col_major
                .process(&mut ColBlock { cols, nrows, row }, &mut stats[2])
                .unwrap();
            let selected = rows.iter().filter(|row| row[3] == 1).count();
            let touched = 1 + u64::from(selected != 0 && selected != rows.len());
            for s in &stats[1..] {
                assert_eq!(s.block_fallback_rows, 0);
                assert_eq!(s.blocks_counted, touched);
            }
            for batch in [&row_major, &col_major] {
                for (a, b) in rowwise.nodes.iter().zip(&batch.nodes) {
                    assert_eq!(a.cc, b.cc);
                    assert_eq!(a.cc.entries(), b.cc.entries());
                    assert_eq!(b.cc.is_dense(), dense);
                }
                batch.assert_shadow_accounting();
            }
            assert_eq!(rowwise.nodes[0].cc.total(), selected as u64);
        }
    }

    /// A predicate column past the arity panics on the block path exactly
    /// when some row reaches that test, as on the row path — in either
    /// layout.
    #[test]
    fn block_path_panics_on_a_past_arity_column_iff_a_row_reaches_it() {
        let panics = |rows: &[[Code; 3]], columnar: bool| {
            let guarded = Pred::And(vec![
                Pred::Eq { col: 0, value: 1 },
                Pred::Eq { col: 9, value: 0 },
            ]);
            let nodes = vec![
                NodeCounter::new(request(1, guarded)),
                NodeCounter::new(root_request()),
            ];
            let mut batch = BatchCounter::new(nodes, u64::MAX, 0, ARITY);
            let flat: Vec<Code> = rows.iter().flatten().copied().collect();
            let cols: Vec<Vec<Code>> = (0..ARITY)
                .map(|c| rows.iter().map(|row| row[c]).collect())
                .collect();
            let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                let mut stats = MiddlewareStats::new();
                if columnar {
                    let (cols, nrows, row) = (&cols[..], rows.len(), &mut Vec::new());
                    batch.process(&mut ColBlock { cols, nrows, row }, &mut stats)
                } else {
                    batch.process_block(&flat, &mut stats)
                }
                .unwrap();
                assert_eq!(stats.block_fallback_rows, 0, "the block path ran");
                assert_eq!(batch.nodes[1].cc.total(), rows.len() as u64);
            }));
            outcome.is_err()
        };
        for columnar in [false, true] {
            assert!(!panics(&[[0, 0, 0], [2, 1, 1]], columnar), "guarded");
            assert!(panics(&[[0, 0, 0], [1, 1, 1]], columnar), "reached");
        }
    }

    /// The pass's scratch is reused block after block, and routing costs
    /// what the rows reach: a wide frontier over a short block does not
    /// visit the frontier.
    #[test]
    fn block_pass_scratch_is_reused_not_regrown() {
        // The leaves of a binary tree 12 levels deep, one column a level.
        let depth = 12;
        let leaves: Vec<Pred> = (0..3000u32)
            .map(|leaf| {
                let edge = |col: usize| match leaf >> col & 1 {
                    0 => Pred::Eq { col, value: 0 },
                    _ => Pred::NotEq { col, value: 0 },
                };
                Pred::And((0..depth).map(edge).collect())
            })
            .collect();
        let router = PredSet::new(&leaves);
        let mut rng = 0x2545_f491_4f6c_dd1du64;
        let mut draw = || {
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            (rng >> 40) as Code & 1
        };
        let mut block =
            |nrows: usize| -> Vec<Code> { (0..nrows * depth).map(|_| draw()).collect() };
        let mut pass = BlockPass::default();
        let full = block(4096);
        let route = |pass: &mut BlockPass, flat: &[Code]| {
            let block = RowBlock { flat, arity: depth };
            pass.route(&router, &block, true);
            let routed: usize = pass.selections().map(|(_, sel)| sel.len()).sum();
            assert_eq!(routed, pass.any().len(), "a frontier is disjoint");
        };
        route(&mut pass, &full);
        let capacity = pass.routed.capacity();
        for nrows in (1..=1000).map(|i| 1 + (i * 37) % 4096) {
            let flat = block(nrows);
            route(&mut pass, &flat);
        }
        route(&mut pass, &full);
        assert_eq!(
            pass.routed.capacity(),
            capacity,
            "no block after the first full one grew the scratch"
        );
        // 64 rows reach at most 64 leaves: what a fresh scratch grows to
        // is bounded by the rows and the depth, not by the 3 000 leaves.
        let mut short = BlockPass::default();
        route(&mut short, &block(64));
        assert!(short.selections().count() <= 64);
        assert!(
            short.routed.capacity() <= 4 * 64 * (2 * depth + 2),
            "scratch of {} slots for a 64-row block",
            short.routed.capacity()
        );
    }

    /// The free-slot cap of the growth bound holds only while no code
    /// spills a dense table: a block with a code outside the layout must
    /// take the row path *whole* even under a budget the capped bound
    /// clears, so the spill — and the §4.1.1 fallback its out-of-layout
    /// entries bring on — fires at the row it does row by row.
    #[test]
    fn out_of_range_block_takes_the_row_path_whole() {
        // 2 attrs x 2 values x 2 classes = 8 slots.
        let dense_root = || {
            let mut node = NodeCounter::new(root_request());
            node.cc = CountsTable::new_dense(&[(0, 2), (1, 2)], 2);
            assert!(node.cc.is_dense());
            vec![node]
        };
        // Room for ten entries: the capped bound (8 free slots) clears it,
        // rows x attrs (8 x 2 = 16 entries) does not.
        let budget = 10 * CC_ENTRY_BYTES;
        let in_range: &[[Code; 3]] = &[[0, 0, 0], [1, 1, 1], [0, 1, 1], [1, 0, 0]];
        let spilling: &[[Code; 3]] = &[
            [0, 0, 0],
            [1, 1, 1],
            [5, 0, 0], // spills; entries 3 and 4 …
            [6, 1, 1], // … 5 and 6 …
            [7, 0, 1], // … 7 and 8 …
            [8, 1, 0], // … 9 and 10 …
            [9, 0, 0], // … and 11: over budget, the node falls back here
            [1, 0, 0],
        ];
        for (rows, expect_fallback) in [(in_range, false), (spilling, true)] {
            let mut rowwise = BatchCounter::new(dense_root(), budget, 0, ARITY);
            let mut s1 = MiddlewareStats::new();
            for r in rows {
                rowwise.process_row(r, &mut s1).unwrap();
            }
            assert_eq!(rowwise.nodes[0].fallback, expect_fallback);
            let mut blocked = BatchCounter::new(dense_root(), budget, 0, ARITY);
            let mut s2 = MiddlewareStats::new();
            let flat: Vec<Code> = rows.iter().flatten().copied().collect();
            blocked.process_block(&flat, &mut s2).unwrap();
            if expect_fallback {
                assert_eq!(s2.blocks_counted, 0, "the range check refused the block");
                assert_eq!(s2.block_fallback_rows, rows.len() as u64);
            } else {
                assert_eq!(s2.blocks_counted, 1, "the capped bound let the block in");
                assert_eq!(s2.block_fallback_rows, 0);
            }
            assert_eq!(blocked.nodes[0].fallback, rowwise.nodes[0].fallback);
            assert_eq!(blocked.nodes[0].cc, rowwise.nodes[0].cc);
            assert_eq!(s2.sql_fallbacks, s1.sql_fallbacks);
            assert_eq!(blocked.memory_in_use(), rowwise.memory_in_use());
            // The peak is reached on the row before the fallback fires.
            assert_eq!(s2.peak_memory_bytes, s1.peak_memory_bytes);
        }
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

    /// The root's children `a = 1` (over `b`) and `a ≠ 1` (over both) of
    /// `ROOT_ROWS`, dense, each bounded by `parent` at `bound_epoch`; and
    /// their plans: the second derived from `parent`.
    fn bounded_children(
        parent: &Arc<CountsTable>,
        bound_epoch: u64,
    ) -> (Vec<NodeCounter>, Vec<Option<Plan>>) {
        let child = |id: u64, pred: Pred, attrs: Vec<u16>, entries: u64| {
            let cards: Vec<(u16, u64)> = attrs.iter().map(|&a| (a, 4)).collect();
            let mut node = NodeCounter::new(CcRequest {
                attrs,
                ..request(id, pred)
            });
            node.cc = CountsTable::new_dense(&cards, 2);
            node.bound = Some(EntryBound {
                entries,
                epoch: bound_epoch,
            });
            node
        };
        // The root holds five entries in `a` and three in `b`; two rows
        // have `a = 1`, four `a ≠ 1`.
        let eq = child(1, Pred::Eq { col: 0, value: 1 }, vec![1], 2);
        let neq = child(2, Pred::NotEq { col: 0, value: 1 }, vec![0, 1], 4 + 3);
        let plan = Plan {
            parent: Arc::clone(parent),
            sources: vec![ClassSource::Sibling; 2],
            rows: vec![3, 1],
            sibling: Some((
                0,
                crate::cc::SiblingEdge {
                    col: 0,
                    value: 1,
                    eq: true,
                },
            )),
        };
        (vec![eq, neq], vec![None, Some(plan)])
    }

    const ROOT_ROWS: [[Code; 3]; 6] = [
        [0, 0, 0],
        [0, 1, 1],
        [1, 0, 0],
        [1, 1, 1],
        [2, 0, 0],
        [2, 1, 0],
    ];

    /// The schema bounds the two children by 8 + 16 entries, their rows by
    /// 6 + 12, their parent's exact table by 2 + 7: a budget of 9 entries
    /// fails the first two and clears the third, so the planned derivation
    /// stands and the batch ends within it — as long as the bounds were
    /// recorded at the scan's epoch. Recorded at another, they are ignored
    /// and the batch counts every node.
    #[test]
    fn a_parent_bound_at_the_scans_epoch_proves_what_the_schema_bound_refuses() {
        let mut root = CountsTable::new_dense(&[(0, 4), (1, 4)], 2);
        for r in &ROOT_ROWS {
            root.add_row(r, &[0, 1], 2);
        }
        let parent = Arc::new(root);
        let budget = 9 * CC_ENTRY_BYTES;
        for (bound_epoch, derives) in [(3, true), (2, false)] {
            let (nodes, plans) = bounded_children(&parent, bound_epoch);
            let mut batch = BatchCounter::new(nodes, budget, 0, ARITY);
            batch.set_certificate(&[3, 3, 1]);
            batch.epoch = 3;
            let proved = batch.cannot_reach_budget(ROOT_ROWS.len() as u64);
            assert_eq!(proved, derives, "bound at epoch {bound_epoch}");
            let (batch, stats) = certified(batch, 3, plans);
            assert_eq!(batch.nodes[1].plan.is_some(), derives);
            let (batch, stats) = finished(batch, stats, &ROOT_ROWS);
            assert_eq!(stats.derived_nodes, u64::from(derives));
            assert_eq!(stats.derivations_refused, u64::from(!derives));
            assert_eq!(stats.sql_fallbacks, 0);
            assert_eq!(
                batch.nodes[0].cc.entries() + batch.nodes[1].cc.entries(),
                2 + 6
            );
            assert!(batch.memory_in_use() <= budget);
        }
    }

    /// The root's rows, `[a, b, class]`, in which every `a = 1` row is of
    /// class 0 and every other row of class 1: a class-disjoint split.
    const DISJOINT_ROWS: [[Code; 3]; 6] = [
        [1, 0, 0],
        [1, 1, 0],
        [0, 0, 1],
        [0, 1, 1],
        [2, 2, 1],
        [2, 3, 1],
    ];

    /// `batch`, certified with `plans` for a serial scan at `epoch` of six
    /// rows under `[3, 3, 1]`, and the stats it counts into.
    fn certified(
        mut batch: BatchCounter,
        epoch: u64,
        plans: Vec<Option<Plan>>,
    ) -> (BatchCounter, MiddlewareStats) {
        let mut stats = MiddlewareStats::new();
        let rows = ROOT_ROWS.len() as u64;
        batch.certify(&[3, 3, 1], rows, epoch, plans, false, &mut stats);
        (batch, stats)
    }

    /// Feed `rows` through `batch` a row at a time, then complete its
    /// planned tables — which checks its parent bounds — and return the
    /// batch and the stats.
    fn finished(
        mut batch: BatchCounter,
        mut stats: MiddlewareStats,
        rows: &[[Code; 3]],
    ) -> (BatchCounter, MiddlewareStats) {
        for r in rows {
            let mut block = RowBlock {
                flat: r,
                arity: ARITY,
            };
            batch.process(&mut block, &mut stats).unwrap();
        }
        batch.derive(&mut stats).unwrap();
        (batch, stats)
    }

    /// A dense table over `attrs` (each card 4, two classes) counting the
    /// rows of `rows` that `pred` selects.
    fn counted(attrs: &[u16], pred: &Pred, rows: &[[Code; 3]]) -> CountsTable {
        let cards: Vec<(u16, u64)> = attrs.iter().map(|&a| (a, 4)).collect();
        let mut cc = CountsTable::new_dense(&cards, 2);
        for row in rows.iter().filter(|r| pred.eval(&r[..])) {
            cc.add_row(row, attrs, 2);
        }
        cc
    }

    /// The root's children `a = 1` (over `b`) and `a ≠ 1` (over both),
    /// dense, and their plans from `parent` by `sources` (`=` first), each
    /// taking its `Sibling` classes from the other; at positions `[0, 1]`,
    /// or `[1, 0]` when `swapped`.
    fn planned_pair(
        parent: &Arc<CountsTable>,
        sources: [Vec<ClassSource>; 2],
        swapped: bool,
    ) -> (Vec<NodeCounter>, Vec<Option<Plan>>) {
        let [with, all] = parent.class_split(0, 1).unwrap();
        let without: Vec<u64> = all.iter().zip(&with).map(|(n, m)| n - m).collect();
        let at = |i: usize| if swapped { 1 - i } else { i };
        let children = [
            (1, Pred::Eq { col: 0, value: 1 }, vec![1], with),
            (2, Pred::NotEq { col: 0, value: 1 }, vec![0, 1], without),
        ];
        let (mut nodes, mut plans): (Vec<NodeCounter>, Vec<Option<Plan>>) =
            (children.into_iter().zip(sources).enumerate())
                .map(|(i, ((id, pred, attrs, rows), sources))| {
                    let cards: Vec<(u16, u64)> = attrs.iter().map(|&a| (a, 4)).collect();
                    let mut node = NodeCounter::new(CcRequest {
                        attrs,
                        ..request(id, pred)
                    });
                    node.cc = CountsTable::new_dense(&cards, 2);
                    let edge = crate::cc::SiblingEdge {
                        col: 0,
                        value: 1,
                        eq: i == 1,
                    };
                    let derived = sources.contains(&ClassSource::Sibling);
                    let plan = Plan {
                        parent: Arc::clone(parent),
                        sources,
                        rows,
                        sibling: derived.then_some((at(1 - i), edge)),
                    };
                    (node, Some(plan))
                })
                .unzip();
        if swapped {
            nodes.reverse();
            plans.reverse();
        }
        (nodes, plans)
    }

    /// A pair completes to the tables counting builds, with the same stats,
    /// whichever of its sides comes first. A class-disjoint pair — the `≠`
    /// child derived whole, the class only it holds taken from its sibling,
    /// and the `=` child sliced — reads one derived node of all the `≠`
    /// child's rows and one sliced node; a mixed pair, one class counted on
    /// each side, two derived nodes.
    #[test]
    fn a_pair_completes_alike_in_either_order() {
        use ClassSource::{Counted, Parent, Sibling};
        let cases = [
            (
                DISJOINT_ROWS,
                [vec![Parent, Counted], vec![Counted, Sibling]],
                [1, 4, 1],
            ),
            (
                ROOT_ROWS,
                [vec![Counted, Sibling], vec![Sibling, Counted]],
                [2, 1 + 3, 0],
            ),
        ];
        for (rows, sources, [nodes, derived_rows, sliced]) in cases {
            let mut root = CountsTable::new_dense(&[(0, 4), (1, 4)], 2);
            for r in &rows {
                root.add_row(r, &[0, 1], 2);
            }
            let parent = Arc::new(root);
            let mut orders = Vec::new();
            for swapped in [false, true] {
                let what = format!("{sources:?}, swapped {swapped}");
                let (pair, plans) = planned_pair(&parent, sources.clone(), swapped);
                let batch = BatchCounter::new(pair, u64::MAX, 0, ARITY);
                let (batch, stats) = certified(batch, 0, plans);
                let (batch, stats) = finished(batch, stats, &rows);
                batch.assert_shadow_accounting();
                let read = [stats.derived_nodes, stats.derived_rows, stats.sliced_nodes];
                assert_eq!(read, [nodes, derived_rows, sliced], "{what}");
                assert_eq!(stats.derivations_refused, 0, "{what}");
                let mut tables: Vec<CountsTable> = batch.nodes.into_iter().map(|n| n.cc).collect();
                if swapped {
                    tables.reverse();
                }
                let eq = counted(&[1], &Pred::Eq { col: 0, value: 1 }, &rows);
                let neq = counted(&[0, 1], &Pred::NotEq { col: 0, value: 1 }, &rows);
                assert_eq!(tables, [eq, neq], "{what}");
                orders.push((tables, read, stats.peak_memory_bytes));
            }
            assert_eq!(orders[0], orders[1]);
        }
    }
}
