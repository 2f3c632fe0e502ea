//! Server-side cursors.
//!
//! [`ServerCursor`] is the forward-only filtered cursor the middleware uses
//! for its scan-based counting: the server evaluates the pushed-down filter
//! expression and ships only matching rows over the simulated wire (§4.3.1).
//! Every cursor compiles its filter once, when it opens, into a
//! [`PredSet`] (an `Or` of paths becomes the set of its disjuncts) and asks
//! `matches_any` of each row; what is scanned, shipped and charged is what
//! interpreting the filter row by row would scan, ship and charge.
//!
//! [`KeysetCursor`] is access path (c) of §4.3.3: a snapshot of qualifying
//! TIDs taken at open time, over which later scans can run with an extra
//! *residual* filter applied server-side before shipping ("a stored
//! procedure that applies the filters on the results obtained by the cursor
//! before the results are returned").
//!
//! [`BlockCursor`] is the server half of the middleware's sampled counting
//! mode: a filtered cursor restricted to caller-supplied TID ranges — the
//! `TABLESAMPLE SYSTEM` analogue, where the client names which physical
//! blocks to read and the server never touches the rest of the heap. Rows
//! outside the ranges cost nothing; that skipped I/O is the entire point
//! of the sampled access path.

use crate::database::Database;
use crate::error::DbResult;
use crate::expr::{Pred, PredSet};
use crate::page::Page;
use crate::stats::DbStats;
use crate::storage::{ScanIter, Table};
use crate::types::{Code, Tid};
use crate::wire::{WireBatch, DEFAULT_BATCH_ROWS};

/// Forward-only cursor with server-side filtering and batched wire fetches.
pub struct ServerCursor<'a> {
    iter: ScanIter<'a>,
    filter: PredSet,
    arity: usize,
    batch_rows: usize,
    batch: WireBatch,
    stats: &'a DbStats,
    exhausted: bool,
}

impl<'a> ServerCursor<'a> {
    pub(crate) fn new(table: &'a Table, pred: Pred, batch_rows: usize, stats: &'a DbStats) -> Self {
        ServerCursor {
            iter: table.scan(stats),
            filter: PredSet::from_filter(&pred),
            arity: table.schema().arity(),
            batch_rows: batch_rows.max(1),
            batch: WireBatch::new(),
            stats,
            exhausted: false,
        }
    }

    /// Number of codes per row in fetched data.
    pub fn arity(&self) -> usize {
        self.arity
    }

    /// Fetch the next batch of matching rows, appending their codes (flat)
    /// to `out`. Returns the number of rows fetched; `0` means end of scan.
    pub fn fetch(&mut self, out: &mut Vec<Code>) -> usize {
        if self.exhausted {
            return 0;
        }
        debug_assert!(self.batch.is_empty());
        while self.batch.rows() < self.batch_rows {
            match self.iter.next() {
                Some((_, row)) => {
                    if self.filter.matches_any(row) {
                        self.batch.push(row);
                    }
                }
                None => {
                    self.exhausted = true;
                    break;
                }
            }
        }
        self.batch.transmit(self.arity, self.stats, out)
    }

    /// Drain the whole cursor into a flat vector. Returns total rows.
    pub fn fetch_all(&mut self, out: &mut Vec<Code>) -> usize {
        let mut total = 0;
        loop {
            let n = self.fetch(out);
            if n == 0 {
                return total;
            }
            total += n;
        }
    }
}

/// A snapshot of qualifying TIDs with server-side residual filtering on
/// re-scan. TIDs are kept sorted so a keyset scan touches each page once —
/// the "idealized" access the §5.2.5 experiment grants this technique.
pub struct KeysetCursor {
    table: String,
    tids: Vec<Tid>,
    arity: usize,
}

impl KeysetCursor {
    pub(crate) fn open(db: &Database, table: &str, pred: &Pred) -> DbResult<Self> {
        let t = db.table(table)?;
        let stats = db.stats();
        stats.add_keyset_open();
        let filter = PredSet::from_filter(pred);
        let tids: Vec<Tid> = t
            .scan(stats)
            .filter(|(_, row)| filter.matches_any(row))
            .map(|(tid, _)| tid)
            .collect();
        Ok(KeysetCursor {
            table: table.to_string(),
            tids,
            arity: t.schema().arity(),
        })
    }

    /// Rows in the keyset.
    pub fn len(&self) -> usize {
        self.tids.len()
    }

    /// Is the keyset empty?
    pub fn is_empty(&self) -> bool {
        self.tids.is_empty()
    }

    /// Codes per row in fetched data.
    pub fn arity(&self) -> usize {
        self.arity
    }

    /// Scan the keyset, applying `residual` at the server before shipping.
    /// Appends matching rows (flat) to `out`; returns the match count.
    ///
    /// Charges one page read per distinct page in the keyset and one scanned
    /// row per keyset entry; only residual matches pay wire costs.
    pub fn scan_filtered(
        &self,
        db: &Database,
        residual: &Pred,
        out: &mut Vec<Code>,
    ) -> DbResult<usize> {
        let table = db.table(&self.table)?;
        let stats = db.stats();
        let per_page = Page::capacity_rows(self.arity) as u64;
        let residual = PredSet::from_filter(residual);
        let mut batch = WireBatch::new();
        let mut last_page = u64::MAX;
        let mut shipped = 0;
        for &tid in &self.tids {
            let page = tid.0 / per_page;
            if page != last_page {
                stats.add_pages_read(1);
                last_page = page;
            }
            stats.add_rows_scanned(1);
            let row = table.row_by_tid_unaccounted(tid)?;
            if residual.matches_any(row) {
                batch.push(row);
                if batch.rows() >= DEFAULT_BATCH_ROWS {
                    shipped += batch.transmit(self.arity, stats, out);
                }
            }
        }
        shipped += batch.transmit(self.arity, stats, out);
        Ok(shipped)
    }
}

/// Forward-only filtered cursor over caller-supplied TID ranges (the
/// `TABLESAMPLE SYSTEM` analogue used by the middleware's sampled counting
/// mode). Ranges are half-open `[start, end)` row-identifier intervals and
/// must be sorted and disjoint so the scan touches each page at most once,
/// exactly like the keyset cursor's idealized access.
///
/// Charges one page read per distinct page entered and one scanned row per
/// row *inside* the ranges; rows outside the sample are never read and
/// never charged — the server-side saving the sampled access path exists
/// to harvest.
pub struct BlockCursor<'a> {
    table: &'a Table,
    filter: PredSet,
    arity: usize,
    batch_rows: usize,
    batch: WireBatch,
    stats: &'a DbStats,
    /// Sorted, disjoint half-open `[start, end)` TID ranges to scan.
    ranges: Vec<(u64, u64)>,
    /// Index of the range currently being scanned.
    range_idx: usize,
    /// Next TID to read within the current range.
    next_tid: u64,
    /// Last page charged (page-granular accounting, like the keyset scan).
    last_page: u64,
    exhausted: bool,
}

impl<'a> BlockCursor<'a> {
    pub(crate) fn new(
        table: &'a Table,
        pred: Pred,
        batch_rows: usize,
        mut ranges: Vec<(u64, u64)>,
        stats: &'a DbStats,
    ) -> Self {
        ranges.sort_unstable();
        ranges.retain(|&(start, end)| start < end);
        let nrows = table.nrows();
        for r in &mut ranges {
            r.1 = r.1.min(nrows);
        }
        ranges.retain(|&(start, end)| start < end);
        stats.add_seq_scan();
        let next_tid = ranges.first().map_or(0, |&(start, _)| start);
        BlockCursor {
            table,
            filter: PredSet::from_filter(&pred),
            arity: table.schema().arity(),
            batch_rows: batch_rows.max(1),
            batch: WireBatch::new(),
            stats,
            exhausted: ranges.is_empty(),
            ranges,
            range_idx: 0,
            next_tid,
            last_page: u64::MAX,
        }
    }

    /// Number of codes per row in fetched data.
    pub fn arity(&self) -> usize {
        self.arity
    }

    /// Total rows covered by the (clamped) ranges — the rows the cursor
    /// will scan, independent of how many match the filter.
    pub fn covered_rows(&self) -> u64 {
        self.ranges
            .iter()
            .fold(0u64, |a, &(s, e)| a.saturating_add(e - s))
    }

    /// Pull the next in-range TID, or `None` when the ranges are drained.
    fn next_in_range(&mut self) -> Option<Tid> {
        loop {
            let &(_, end) = self.ranges.get(self.range_idx)?;
            if self.next_tid < end {
                let tid = Tid(self.next_tid);
                self.next_tid += 1;
                return Some(tid);
            }
            self.range_idx += 1;
            if let Some(&(start, _)) = self.ranges.get(self.range_idx) {
                self.next_tid = start;
            }
        }
    }

    /// Fetch the next batch of matching rows, appending their codes (flat)
    /// to `out`. Returns the rows fetched; `0` means end of scan.
    pub fn fetch(&mut self, out: &mut Vec<Code>) -> DbResult<usize> {
        if self.exhausted {
            return Ok(0);
        }
        debug_assert!(self.batch.is_empty());
        let per_page = Page::capacity_rows(self.arity) as u64;
        while self.batch.rows() < self.batch_rows {
            match self.next_in_range() {
                Some(tid) => {
                    let page = tid.0 / per_page;
                    if page != self.last_page {
                        self.stats.add_pages_read(1);
                        self.last_page = page;
                    }
                    self.stats.add_rows_scanned(1);
                    let row = self.table.row_by_tid_unaccounted(tid)?;
                    if self.filter.matches_any(row) {
                        self.batch.push(row);
                    }
                }
                None => {
                    self.exhausted = true;
                    break;
                }
            }
        }
        Ok(self.batch.transmit(self.arity, self.stats, out))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::Schema;

    fn db() -> Database {
        let mut db = Database::new();
        db.create_table("t", Schema::from_pairs(&[("a", 4), ("class", 2)]))
            .unwrap();
        for i in 0..1000u16 {
            db.insert("t", &[i % 4, (i / 4) % 2]).unwrap();
        }
        db
    }

    #[test]
    fn server_cursor_filters_and_batches() {
        let db = db();
        let mut cur = db
            .open_cursor("t", Pred::Eq { col: 0, value: 3 }, 100)
            .unwrap();
        let mut out = Vec::new();
        let mut batches = 0;
        loop {
            let n = cur.fetch(&mut out);
            if n == 0 {
                break;
            }
            assert!(n <= 100);
            batches += 1;
        }
        assert_eq!(out.len() / 2, 250);
        assert_eq!(batches, 3, "250 matches / 100-row batches");
        assert!(out.chunks(2).all(|r| r[0] == 3));
        let snap = db.stats().snapshot();
        assert_eq!(snap.rows_scanned, 1000, "server scans everything");
        assert_eq!(snap.rows_shipped, 250, "wire only carries matches");
    }

    #[test]
    fn fetch_after_exhaustion_returns_zero() {
        let db = db();
        let mut cur = db.open_cursor("t", Pred::False, 64).unwrap();
        let mut out = Vec::new();
        assert_eq!(cur.fetch(&mut out), 0);
        assert_eq!(cur.fetch(&mut out), 0);
        assert!(out.is_empty());
    }

    #[test]
    fn fetch_all_drains() {
        let db = db();
        let mut cur = db.open_cursor("t", Pred::True, 128).unwrap();
        let mut out = Vec::new();
        assert_eq!(cur.fetch_all(&mut out), 1000);
        assert_eq!(out.len(), 2000);
    }

    #[test]
    fn keyset_cursor_residual_filter() {
        let db = db();
        let keyset = db
            .open_keyset_cursor("t", &Pred::Eq { col: 0, value: 1 })
            .unwrap();
        assert_eq!(keyset.len(), 250);

        let before = db.stats().snapshot();
        let mut out = Vec::new();
        let n = keyset
            .scan_filtered(&db, &Pred::Eq { col: 1, value: 0 }, &mut out)
            .unwrap();
        let delta = db.stats().snapshot() - before;
        assert_eq!(n, 125);
        assert_eq!(delta.rows_scanned, 250, "reads whole keyset");
        assert_eq!(delta.rows_shipped, 125, "ships only residual matches");
        assert!(out.chunks(2).all(|r| r[0] == 1 && r[1] == 0));
    }

    #[test]
    fn block_cursor_reads_only_the_ranges() {
        // Multi-page table: 10 000 arity-2 rows span five 2048-row pages.
        let mut db = Database::new();
        db.create_table("big", Schema::from_pairs(&[("a", 4), ("class", 2)]))
            .unwrap();
        for i in 0..10_000u32 {
            db.insert("big", &[(i % 4) as u16, (i % 2) as u16]).unwrap();
        }
        let npages = db.table("big").unwrap().npages();
        assert!(npages >= 5, "fixture must span several pages");

        let before = db.stats().snapshot();
        // Two ranges inside pages 0 and 2 — pages 1, 3, 4 stay untouched.
        let mut cur = db
            .open_block_cursor("big", Pred::True, 512, vec![(0, 1000), (4200, 5000)])
            .unwrap();
        assert_eq!(cur.covered_rows(), 1800);
        let mut out = Vec::new();
        let mut total = 0;
        loop {
            let n = cur.fetch(&mut out).unwrap();
            if n == 0 {
                break;
            }
            total += n;
        }
        let delta = db.stats().snapshot() - before;
        assert_eq!(total, 1800);
        assert_eq!(delta.rows_scanned, 1800, "out-of-range rows cost nothing");
        assert_eq!(delta.pages_read, 2, "only the pages under the ranges");
        assert_eq!(delta.rows_shipped, 1800);
    }

    #[test]
    fn block_cursor_applies_filter_and_clamps_ranges() {
        let db = db();
        // Unsorted, overlapping-with-end, and past-the-end ranges: the
        // cursor sorts and clamps. a==3 matches every 4th row.
        let mut cur = db
            .open_block_cursor(
                "t",
                Pred::Eq { col: 0, value: 3 },
                64,
                vec![(800, 2000), (0, 400)],
            )
            .unwrap();
        assert_eq!(cur.covered_rows(), 600);
        let mut out = Vec::new();
        let mut total = 0;
        loop {
            let n = cur.fetch(&mut out).unwrap();
            if n == 0 {
                break;
            }
            total += n;
        }
        assert_eq!(total, 150, "a quarter of the 600 covered rows match");
        assert!(out.chunks(2).all(|r| r[0] == 3));
    }

    #[test]
    fn block_cursor_empty_ranges_fetch_zero() {
        let db = db();
        let mut cur = db.open_block_cursor("t", Pred::True, 64, vec![]).unwrap();
        let mut out = Vec::new();
        assert_eq!(cur.fetch(&mut out).unwrap(), 0);
        assert_eq!(cur.fetch(&mut out).unwrap(), 0);
        let mut degenerate = db
            .open_block_cursor("t", Pred::True, 64, vec![(50, 50), (9999, 10_000)])
            .unwrap();
        assert_eq!(degenerate.covered_rows(), 0);
        assert_eq!(degenerate.fetch(&mut out).unwrap(), 0);
        assert!(out.is_empty());
    }

    #[test]
    fn block_cursor_full_range_matches_server_cursor() {
        let db1 = db();
        let mut server_out = Vec::new();
        db1.open_cursor("t", Pred::Eq { col: 1, value: 1 }, 100)
            .unwrap()
            .fetch_all(&mut server_out);

        let db2 = db();
        let nrows = db2.table("t").unwrap().nrows();
        let mut block_out = Vec::new();
        let mut cur = db2
            .open_block_cursor("t", Pred::Eq { col: 1, value: 1 }, 100, vec![(0, nrows)])
            .unwrap();
        loop {
            if cur.fetch(&mut block_out).unwrap() == 0 {
                break;
            }
        }
        assert_eq!(server_out, block_out, "full-range block scan ≡ seq scan");
    }

    #[test]
    fn keyset_scan_touches_each_page_once() {
        let db = db();
        let keyset = db.open_keyset_cursor("t", &Pred::True).unwrap();
        let before = db.stats().snapshot();
        let mut out = Vec::new();
        keyset.scan_filtered(&db, &Pred::True, &mut out).unwrap();
        let delta = db.stats().snapshot() - before;
        assert_eq!(
            delta.pages_read,
            db.table("t").unwrap().npages(),
            "sorted keyset ⇒ sequential page access"
        );
    }
}
