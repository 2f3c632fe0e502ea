//! Allocation counts of the client's per-node work: `decide` allocates a
//! small constant per node — nothing per attribute or per candidate — and
//! `derive_children` only the vectors it returns. Counts, not clocks: the
//! test reads no wall time.
//!
//! Its own test binary, because the counting allocator is process-wide.
//! The two forwarding methods below are this crate's only `unsafe` (the
//! workspace's other pair is the same allocator in
//! `crates/sqldb/tests/alloc.rs`).

use scaleclass::CountsTable;
use scaleclass_dtree::{decide, derive_children, Decision, GrowConfig, Split};
use scaleclass_sqldb::Code;
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

const VALUES: u16 = 4;
const CLASSES: u16 = 10;

/// A dense table over `n_attrs` attributes × 4 values × 10 classes (the
/// last attribute shows only two of its values), and the attribute list
/// it was counted over.
fn dense_table(n_attrs: u16) -> (CountsTable, Vec<u16>) {
    let attrs: Vec<u16> = (0..n_attrs).collect();
    let layout: Vec<(u16, u64)> = attrs.iter().map(|&a| (a, u64::from(VALUES))).collect();
    let mut cc = CountsTable::new_dense(&layout, u64::from(CLASSES));
    let mut row: Vec<Code> = vec![0; usize::from(n_attrs) + 1];
    for i in 0..400u16 {
        for (a, cell) in row.iter_mut().enumerate() {
            *cell = (i / (1 + a as u16 % 7) + a as u16) % VALUES;
        }
        row[usize::from(n_attrs) - 1] %= 2;
        // Attribute 0 predicts the class imperfectly: a split is worth it.
        row[usize::from(n_attrs)] = (row[0] * 2 + i % 3 + i / 100) % CLASSES;
        cc.add_row(&row, &attrs, n_attrs);
    }
    assert!(cc.is_dense());
    (cc, attrs)
}

#[test]
fn decide_allocates_a_constant_per_node() {
    let config = GrowConfig::default();
    let mut counts = Vec::new();
    for n_attrs in [5u16, 25] {
        let (cc, attrs) = dense_table(n_attrs);
        let (decision, allocations) = counted(|| decide(&cc, &attrs, 0, &config));
        assert!(matches!(decision, Decision::Split(_)), "{decision:?}");
        counts.push(allocations);
    }
    // 5 attributes score 18 candidates, 25 score 98: the same count means
    // none per attribute and none per candidate.
    assert_eq!(counts[0], counts[1], "allocations grew with the table");
    assert_eq!(counts[0], 2, "the parent row and the scratch row");
}

#[test]
fn derive_children_allocates_only_what_it_returns() {
    let (cc, attrs) = dense_table(25);
    let Decision::Split(split) = decide(&cc, &attrs, 0, &GrowConfig::default()) else {
        panic!("the table admits a split");
    };
    // The winner keeps its attribute on the `≠` branch (four values); a
    // split on the two-valued attribute drops it from both.
    let two_valued = Split::Binary { attr: 24, value: 0 };
    for split in [split, two_valued] {
        let (specs, allocations) = counted(|| derive_children(&cc, &split, &attrs));
        assert_eq!(specs.len(), 2);
        assert_eq!(
            specs[1].attrs.len(),
            if split.attr() == 24 { 24 } else { 25 }
        );
        // The `Vec` of specs, and each child's class counts, attributes
        // and cards: one allocation apiece, and nothing else.
        assert_eq!(allocations, 1 + 2 * 3, "{split:?}");
    }
}
