//! Allocation counts of DML: `Table::update_where` and
//! `Table::delete_where` allocate a small constant per statement (the
//! compiled filter, the router's scratch, the list of matched rows) —
//! nothing per page and nothing per row, and no page at all. Counts, not
//! clocks: the test reads no wall time.
//!
//! Its own test binary, because the counting allocator is process-wide.
//! The two forwarding methods below are the crate's only `unsafe` (the
//! workspace's other pair is the same allocator in
//! `crates/dtree/tests/alloc.rs`).

use scaleclass_sqldb::page::Page;
use scaleclass_sqldb::{Code, DbStats, Pred, Schema, Table};
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

const ARITY: usize = 8;
/// Rows of each table that hold `MARK` in column 0: the statement's matches.
const MARKED: usize = 6;
const MARK: Code = 9;

/// `npages` full pages of rows with `MARKED` marked ones spread evenly
/// over them, the first row and the last included.
fn table(npages: usize) -> Table {
    let nrows = npages * Page::capacity_rows(ARITY);
    let cols: Vec<(String, u16)> = (0..ARITY).map(|c| (format!("c{c}"), 10)).collect();
    let cols: Vec<(&str, u16)> = cols.iter().map(|(n, c)| (n.as_str(), *c)).collect();
    let mut t = Table::new(Schema::from_pairs(&cols));
    let step = (nrows - 1) / (MARKED - 1);
    for i in 0..nrows {
        let mut row = [(i % 7) as Code; ARITY];
        if i % step == 0 && i / step < MARKED {
            row[0] = MARK;
        }
        t.insert(&row).unwrap();
    }
    assert_eq!(t.npages(), npages as u64);
    t
}

#[test]
fn dml_allocates_per_statement_not_per_page_or_row() {
    let marked = Pred::Eq {
        col: 0,
        value: MARK,
    };
    let stats = DbStats::new();
    let mut counts = Vec::new();
    for npages in [1, 10] {
        let mut t = table(npages);
        let nrows = t.nrows();
        let (changed, update) = counted(|| t.update_where(&marked, &[(1, 8)], &stats).unwrap());
        assert_eq!(changed, MARKED as u64);
        let (removed, delete) = counted(|| t.delete_where(&marked, &stats));
        assert_eq!(removed, MARKED as u64);
        assert_eq!(t.nrows(), nrows - MARKED as u64);
        assert_eq!(t.npages(), npages as u64, "six rows short of full pages");
        counts.push((update, delete));
    }
    // Ten pages and ten times the rows cost what one page costs.
    assert_eq!(counts[0], counts[1], "allocations grew with the table");
    // (Some twenty: compiling the filter, the router's scratch, the list
    // of matches growing to six.)
    let (update, delete) = counts[0];
    assert!(update <= 32 && delete <= 32, "{counts:?}");
}
