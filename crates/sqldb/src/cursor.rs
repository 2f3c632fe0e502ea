//! Server-side cursors.
//!
//! [`ServerCursor`] is the forward-only filtered cursor the middleware uses
//! for its scan-based counting: the server evaluates the pushed-down filter
//! expression and ships only matching rows over the simulated wire (§4.3.1).
//! Every cursor compiles its filter once, when it opens, into a
//! [`PageFilter`] over the table's range certificate (one bit per
//! disjunct of an `Or` of paths, per tested column and value) and filters
//! a heap page at a time: the page's rows, read in place, are narrowed a
//! column at a time to those some disjunct matches, and that ascending
//! selection is what the page ships, marshalled a fetch at a time. What
//! is scanned, shipped and charged is what interpreting the filter row by
//! row would scan, ship and charge, *at every fetch boundary*: a page is
//! charged when the scan enters it, and a fetch charges the rows it read —
//! through the row that filled its batch, no further — so a cursor dropped
//! between two fetches has charged exactly the rows a row-at-a-time cursor
//! would have read.
//! The unshipped tail of a page's selection waits for the next fetch.
//!
//! [`KeysetCursor`] is access path (c) of §4.3.3: a snapshot of qualifying
//! TIDs taken at open time, over which later scans can run with an extra
//! *residual* filter applied server-side before shipping ("a stored
//! procedure that applies the filters on the results obtained by the cursor
//! before the results are returned") — the same compiled filter, one row
//! at a time.

use crate::database::Database;
use crate::error::{DbError, DbResult};
use crate::expr::{PageFilter, Pred};
use crate::page::Page;
use crate::stats::DbStats;
use crate::storage::Table;
use crate::types::{Code, Tid};
use crate::wire::{WireBatch, DEFAULT_BATCH_ROWS};

/// Forward-only cursor with server-side filtering and batched wire fetches:
/// a scan of the whole table, one page run (the part of the table on one
/// heap page) at a time.
pub struct ServerCursor<'a> {
    table: &'a Table,
    filter: PageFilter,
    arity: usize,
    batch_rows: usize,
    batch: WireBatch,
    stats: &'a DbStats,
    /// Rows of the table when the cursor opened: the scan ends there.
    end: u64,
    /// Next TID to read: every row before it is charged.
    next_tid: u64,
    /// Last page charged.
    last_page: u64,
    /// The page run being shipped — its packed rows and its first TID —
    /// whose selection is `sel`, `shipped` rows of it sent.
    run: &'a [Code],
    run_start: u64,
    sel: Vec<u32>,
    shipped: usize,
}

impl<'a> ServerCursor<'a> {
    pub(crate) fn new(table: &'a Table, pred: Pred, batch_rows: usize, stats: &'a DbStats) -> Self {
        stats.add_seq_scan();
        ServerCursor {
            table,
            filter: PageFilter::compile(&pred, table.col_max()),
            arity: table.schema().arity(),
            batch_rows: batch_rows.max(1),
            batch: WireBatch::new(),
            stats,
            end: table.nrows(),
            next_tid: 0,
            last_page: u64::MAX,
            run: &[],
            run_start: 0,
            sel: Vec::new(),
            shipped: 0,
        }
    }

    /// Number of codes per row in fetched data.
    pub fn arity(&self) -> usize {
        self.arity
    }

    /// Enter the next page run: charge its page unless the scan is on it
    /// already, and filter it whole. `false` at the end.
    fn next_run(&mut self) -> bool {
        let Some((page, rows)) = self.table.page_run(self.next_tid, self.end) else {
            return false;
        };
        if page != self.last_page {
            self.stats.add_pages_read(1);
            self.last_page = page;
        }
        self.filter.select(rows, &mut self.sel);
        self.run = rows;
        self.run_start = self.next_tid;
        self.shipped = 0;
        true
    }

    /// Fetch the next batch of matching rows, appending their codes (flat)
    /// to `out`. Returns the number of rows fetched; `0` means end of scan.
    pub fn fetch(&mut self, out: &mut Vec<Code>) -> usize {
        debug_assert!(self.batch.is_empty());
        loop {
            let room = self.batch_rows - self.batch.rows();
            let unshipped = self.sel.get(self.shipped..).unwrap_or(&[]);
            let take = unshipped.get(..room).unwrap_or(unshipped);
            self.batch.push_selected(self.run, self.arity, take);
            self.shipped += take.len();
            // The scan has read through the row that filled the batch, or
            // — its selection drained — to the end of the run.
            let full = take.len() == room;
            let read_to = match take.last() {
                Some(&last) if full => self.run_start + u64::from(last) + 1,
                _ => self.run_start + (self.run.len() / self.arity) as u64,
            };
            self.stats.add_rows_scanned(read_to - self.next_tid);
            self.next_tid = read_to;
            if full || !self.next_run() {
                break;
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

/// The TID-at-a-time scan behind [`KeysetCursor::scan_filtered`] and
/// [`Database::tid_scan`]: read the rows of `table` at `tids` (ascending,
/// as the scans that mint TID lists leave them), one run of TIDs on the
/// same page at a time — `charge_run(n)` charges reading a run of `n` —
/// and ship those that satisfy `residual` in `batch_rows` batches,
/// appending them (flat) to `out`. Returns the rows shipped.
pub(crate) fn ship_tids(
    table: &Table,
    tids: &[Tid],
    residual: &Pred,
    batch_rows: usize,
    stats: &DbStats,
    charge_run: impl Fn(u64),
    out: &mut Vec<Code>,
) -> DbResult<usize> {
    let arity = table.schema().arity();
    let per_page = Page::capacity_rows(arity) as u64;
    let mut residual = PageFilter::compile(residual, table.col_max());
    let batch_rows = batch_rows.max(1);
    let mut batch = WireBatch::new();
    let mut sel: Vec<u32> = Vec::new();
    let mut row_sel = Vec::new();
    let mut shipped = 0;
    let mut rest = tids;
    while let Some(first) = rest.first() {
        let page_idx = first.0 / per_page;
        let on_page = rest.iter().take_while(|t| t.0 / per_page == page_idx);
        let (run, later) = rest.split_at(on_page.count());
        rest = later;
        let page = usize::try_from(page_idx)
            .ok()
            .and_then(|idx| table.pages().get(idx))
            .ok_or(DbError::CursorClosed)?;
        charge_run(run.len() as u64);
        sel.clear();
        for tid in run {
            let r = (tid.0 % per_page) as usize;
            if r >= page.nrows() {
                return Err(DbError::CursorClosed);
            }
            residual.select(page.row(r), &mut row_sel);
            if !row_sel.is_empty() {
                sel.push(r as u32);
            }
        }
        let mut unshipped = sel.as_slice();
        while !unshipped.is_empty() {
            let room = batch_rows - batch.rows();
            let (take, tail) = unshipped.split_at(room.min(unshipped.len()));
            batch.push_selected(page.raw(), arity, take);
            unshipped = tail;
            if batch.rows() == batch_rows {
                shipped += batch.transmit(arity, stats, out);
            }
        }
    }
    Ok(shipped + batch.transmit(arity, stats, out))
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
        Ok(KeysetCursor {
            table: table.to_string(),
            tids: t.matching_tids(pred, stats),
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
        let charge_run = |tids: u64| {
            stats.add_pages_read(1);
            stats.add_rows_scanned(tids);
        };
        ship_tids(
            table,
            &self.tids,
            residual,
            DEFAULT_BATCH_ROWS,
            stats,
            charge_run,
            out,
        )
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

    /// The page is filtered whole, but a fetch charges only the rows it
    /// read: through the one that filled its batch.
    #[test]
    fn a_fetch_charges_through_the_row_that_filled_it() {
        let db = db();
        let mut cur = db
            .open_cursor("t", Pred::Eq { col: 0, value: 3 }, 100)
            .unwrap();
        let mut out = Vec::new();
        // Rows 3, 7, … match: the hundredth is row 399.
        assert_eq!(cur.fetch(&mut out), 100);
        let snap = db.stats().snapshot();
        assert_eq!((snap.pages_read, snap.rows_scanned), (1, 400));
        assert_eq!(cur.fetch(&mut out), 100);
        assert_eq!(db.stats().snapshot().rows_scanned, 800);
        // The last match is the table's last row: nothing is left to read.
        assert_eq!(cur.fetch(&mut out), 50);
        assert_eq!(db.stats().snapshot().rows_scanned, 1000);
        assert_eq!(cur.fetch(&mut out), 0);
        let snap = db.stats().snapshot();
        assert_eq!((snap.pages_read, snap.rows_scanned), (1, 1000));
        assert_eq!((snap.rows_shipped, snap.wire_round_trips), (250, 3));
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
