//! Allocation counts of the block pass: once its scratch has grown to a
//! block and each node has seen every class, `BatchCounter::process_block`
//! allocates nothing — no copy of the selection, no class total, nothing
//! per block and nothing per selection — whether one node or sixteen take
//! the rows. And a request's lineage costs what one node costs, at any
//! depth. Counts, not clocks: the tests read no wall time.
//!
//! Its own test binary, because the counting allocator is process-wide.
//! The two forwarding methods below are this crate's only `unsafe` (the
//! same allocator is in `crates/dtree/tests/alloc.rs` and
//! `crates/sqldb/tests/alloc.rs`).

use scaleclass::executor::{BatchCounter, NodeCounter};
use scaleclass::{CcRequest, CountsTable, Lineage, MiddlewareStats, NodeId};
use scaleclass_sqldb::{Code, Pred};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    /// Allocations made by this thread (the test harness runs each test on
    /// its own thread, so tests do not see each other's).
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

struct Counting;

// SAFETY: both methods forward their arguments unchanged to `System`, so
// `GlobalAlloc`'s contract holds because `System` upholds it. The counter
// is a `const`-initialised thread-local `Cell` of a plain integer: reading
// and writing it allocates nothing, and `try_with` declines (rather than
// panics) once the thread's locals are being torn down.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
        // SAFETY: the caller's `layout` is passed through as received.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System.alloc` above with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Run `f`, returning its result and the allocations it made (a `realloc`
/// counts: its default goes through `alloc`).
fn counted<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = ALLOCATIONS.with(Cell::get);
    let out = f();
    (out, ALLOCATIONS.with(Cell::get) - before)
}

const ATTRS: u16 = 25;
/// Values per attribute; attribute 0 is the frontier's split column.
const VALUES: u16 = 16;
const CLASSES: u16 = 10;
const ROWS: u16 = 1024;

/// Block `seed`: row `r` takes value `r % 16` on attribute 0, so each of
/// sixteen children of the root gets 64 rows, and its classes cycle
/// through all ten.
fn block(seed: u16) -> Vec<Code> {
    let mut flat = Vec::new();
    for r in 0..ROWS {
        flat.push(r % VALUES);
        flat.extend((1..ATTRS).map(|a| (r / (1 + a % 7) + a + seed) % VALUES));
        flat.push((r / VALUES + seed) % CLASSES);
    }
    flat
}

/// A batch of `n_nodes` dense nodes: the root alone, or the sixteen
/// children `a0 = v`.
fn batch(n_nodes: u16) -> BatchCounter {
    let layout: Vec<(u16, u64)> = (0..ATTRS).map(|a| (a, u64::from(VALUES))).collect();
    let preds: Vec<Lineage> = if n_nodes == 1 {
        vec![Lineage::root(NodeId(0))]
    } else {
        (0..n_nodes)
            .map(|v| {
                let edge = Pred::Eq { col: 0, value: v };
                Lineage::root(NodeId(0)).child(NodeId(1 + u64::from(v)), edge)
            })
            .collect()
    };
    let nodes = preds
        .into_iter()
        .map(|lineage| {
            let mut node = NodeCounter::new(CcRequest {
                lineage,
                attrs: (0..ATTRS).collect(),
                class_col: ATTRS,
                rows: 0,
                parent_rows: 0,
                parent_cards: vec![],
            });
            node.cc = CountsTable::new_dense(&layout, u64::from(CLASSES));
            node
        })
        .collect();
    BatchCounter::new(nodes, u64::MAX, 0, usize::from(ATTRS) + 1)
}

#[test]
fn process_block_allocates_nothing_after_warm_up() {
    let blocks: Vec<Vec<Code>> = (1..=20).map(block).collect();
    for n_nodes in [1u16, 16] {
        let mut batch = batch(n_nodes);
        let mut stats = MiddlewareStats::new();
        batch.process_block(&block(0), &mut stats).unwrap();
        assert!(batch.nodes.iter().all(|n| n.cc.distinct_classes() == 10));
        let ((), allocations) = counted(|| {
            for flat in &blocks {
                batch.process_block(flat, &mut stats).unwrap();
            }
        });
        assert_eq!(stats.block_fallback_rows, 0, "every block took the kernel");
        assert_eq!(stats.blocks_counted, 21 * u64::from(n_nodes));
        assert!(batch.nodes.iter().all(|n| n.cc.is_dense()));
        assert_eq!(allocations, 0, "{n_nodes} nodes, 20 blocks");
        let total: u64 = batch.nodes.iter().map(|n| n.cc.total()).sum();
        assert_eq!(total, 21 * u64::from(ROWS));
    }
}

/// A lineage of `depth` edges below the root, one `=` edge a level.
fn lineage(depth: u16) -> Lineage {
    (0..depth).fold(Lineage::root(NodeId(0)), |l, d| {
        l.child(NodeId(1 + u64::from(d)), Pred::Eq { col: 0, value: d })
    })
}

/// A child lineage is one record linked to its parent's: it costs the same
/// few allocations at depth 2 as at depth 40 (the record, and its path
/// predicate's terms — built once and normalised), and a clone costs none.
#[test]
fn lineage_child_costs_the_same_at_any_depth_and_clone_costs_nothing() {
    let cost_at = |depth: u16| {
        let parent = lineage(depth - 1);
        let edge = Pred::NotEq { col: 1, value: 0 };
        let (child, allocations) = counted(|| parent.child(NodeId(9_999), edge));
        assert_eq!(child.depth(), usize::from(depth));
        allocations
    };
    let (shallow, deep) = (cost_at(2), cost_at(40));
    assert_eq!(shallow, deep, "depth 2 vs depth 40");
    assert!(deep <= 3, "{deep} allocations for one child");
    let deep = lineage(40);
    let (copy, allocations) = counted(|| deep.clone());
    assert_eq!(allocations, 0);
    assert_eq!(copy, deep);
}

/// Dropping a chain frees it a record at a time: 100 000 levels build and
/// drop on a test thread's stack.
#[test]
fn a_very_deep_lineage_drops_without_overflowing_the_stack() {
    let mut l = Lineage::root(NodeId(0));
    for d in 1..=100_000u64 {
        l = l.child(NodeId(d), Pred::True);
    }
    assert_eq!(l.depth(), 100_000);
    let branch = l.child(NodeId(0), Pred::True);
    drop(l);
    assert_eq!(
        branch.depth(),
        100_001,
        "a shared chain outlives one holder"
    );
    drop(branch);
}
