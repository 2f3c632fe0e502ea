//! Heap tables: pages of fixed-width coded rows.
//!
//! Every filtered scan of a table — the SQL executor's, DML's, the
//! §4.3.3 structures' and a keyset's snapshot — compiles its predicate
//! once into a [`PageFilter`] over the table's range certificate and
//! filters a heap page at a time (`Table::scan_selected`), the rows read
//! in place.

use crate::error::{DbError, DbResult};
use crate::expr::{PageFilter, Pred};
use crate::page::Page;
use crate::stats::DbStats;
use crate::types::{Code, Schema, Tid};

/// A heap table: a schema plus a sequence of pages.
#[derive(Debug, Clone)]
pub struct Table {
    schema: Schema,
    pages: Vec<Page>,
    nrows: u64,
    /// The range certificate ([`Table::col_max`]).
    col_max: Vec<Code>,
}

impl Table {
    /// An empty table with the given schema.
    pub fn new(schema: Schema) -> Self {
        Table {
            col_max: vec![0; schema.arity()],
            schema,
            pages: Vec::new(),
            nrows: 0,
        }
    }

    /// The table's range certificate: per column, the largest code it has
    /// ever stored — every row appended, every code an update assigned.
    /// Deletes never lower it, so it is an upper bound, not a statistic:
    /// it bounds every row the table holds now *and* every copy of its
    /// rows taken at any earlier time (a temp table, a TID or keyset
    /// result, a middleware's staged set). Codes past a column's
    /// cardinality, which [`Table::insert_unchecked`] stores as given,
    /// raise it like any other.
    pub fn col_max(&self) -> &[Code] {
        &self.col_max
    }

    /// The table's schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Number of stored rows.
    pub fn nrows(&self) -> u64 {
        self.nrows
    }

    /// Number of heap pages.
    pub fn npages(&self) -> u64 {
        self.pages.len() as u64
    }

    /// Approximate on-disk size in bytes (pages are the unit of I/O).
    pub fn size_bytes(&self) -> u64 {
        self.npages() * crate::page::PAGE_SIZE as u64
    }

    /// Append one validated row.
    pub fn insert(&mut self, row: &[Code]) -> DbResult<()> {
        self.schema.check_row(row)?;
        self.insert_unchecked(row);
        Ok(())
    }

    /// Append one row without range validation: the bulk-load fast path,
    /// which [`Table::insert`], CSV and persist load and the generators all
    /// end in. Codes are stored as given and folded into
    /// [`Table::col_max`]. Panics on a row that is not `arity` codes wide,
    /// before the heap or the certificate is touched ([`Page::push_row`]).
    pub fn insert_unchecked(&mut self, row: &[Code]) {
        if self.pages.last_mut().is_none_or(|p| !p.push_row(row)) {
            let mut page = Page::new(self.schema.arity());
            let ok = page.push_row(row);
            debug_assert!(ok, "fresh page must accept a row");
            self.pages.push(page);
        }
        for (max, &code) in self.col_max.iter_mut().zip(row) {
            *max = (*max).max(code);
        }
        self.nrows += 1;
    }

    /// Bulk-load rows, validating each.
    pub fn load<'a>(&mut self, rows: impl IntoIterator<Item = &'a [Code]>) -> DbResult<u64> {
        let mut n = 0;
        for row in rows {
            self.insert(row)?;
            n += 1;
        }
        Ok(n)
    }

    /// Delete all rows matching `pred`, compacting the heap (TIDs of
    /// surviving rows change — the paper's middleware never relies on TID
    /// stability across DML, and neither may callers). Returns rows removed.
    ///
    /// **Written:** nothing before the first match. From there the
    /// surviving rows are pulled forward, a run between two matches at a
    /// time, into the page buffers the table already has; the last page is
    /// truncated and emptied trailing pages are dropped. No page is
    /// allocated, surviving rows keep scan order, and every page but the
    /// last stays full — `npages == ceil(nrows / per_page)`, which
    /// [`Table::fetch_by_tid`] and the page-at-a-time scans index by.
    ///
    /// **Charged:** one sequential scan of the table as it was (every page
    /// read, every row examined) plus a page write for every page of the
    /// table as it is afterwards — what rewriting the whole heap would
    /// cost, however few pages the statement touched. The charge is the
    /// simulated server's cost model and part of the `sim_cost` contract;
    /// what the statement takes in wall time is not.
    pub fn delete_where(&mut self, pred: &Pred, stats: &DbStats) -> u64 {
        self.delete_where_with(pred, stats, |_| {})
    }

    /// [`Table::delete_where`] with an observer: `on_delete` sees each
    /// removed row (in scan order) during the read-only filter pass, before
    /// any row of the heap moves. The hook is how [`crate::Database`]
    /// captures delete events for an enabled [`crate::delta::DeltaLog`]
    /// without a second scan.
    pub fn delete_where_with(
        &mut self,
        pred: &Pred,
        stats: &DbStats,
        mut on_delete: impl FnMut(&[Code]),
    ) -> u64 {
        let mut doomed = Vec::new();
        self.scan_matching(pred, stats, |tid, row| {
            on_delete(row);
            doomed.push(tid);
        });
        self.remove_rows(&doomed);
        stats.add_pages_written(self.npages());
        doomed.len() as u64
    }

    /// Remove the rows at `doomed` — TIDs of this table, ascending — by
    /// pulling each run of survivors between two of them forward over the
    /// gap the removed rows leave, then cutting the heap to its new length.
    fn remove_rows(&mut self, doomed: &[u64]) {
        let Some(&first) = doomed.first() else { return };
        let run_ends = doomed.iter().skip(1).copied().chain([self.nrows]);
        let mut write = first;
        for (&gone, run_end) in doomed.iter().zip(run_ends) {
            write = self.pull_rows(write, gone + 1, run_end);
        }
        let per_page = Page::capacity_rows(self.schema.arity()) as u64;
        self.nrows = write;
        let npages = write.div_ceil(per_page);
        self.pages.truncate(npages as usize);
        if let Some(last) = self.pages.last_mut() {
            last.truncate_rows((write - (npages - 1) * per_page) as usize);
        }
    }

    /// Copy rows `[from, end)` to positions `to..` (`to <= from`), as many
    /// at a time as lie on one page on both sides. Returns the position
    /// after the last row written.
    fn pull_rows(&mut self, mut to: u64, mut from: u64, end: u64) -> u64 {
        let per_page = Page::capacity_rows(self.schema.arity());
        let place = |tid: u64| {
            (
                (tid / per_page as u64) as usize,
                (tid % per_page as u64) as usize,
            )
        };
        while from < end {
            let ((to_page, to_slot), (from_page, from_slot)) = (place(to), place(from));
            let n = (per_page - to_slot.max(from_slot)).min((end - from) as usize);
            let (head, tail) = self.pages.split_at_mut(from_page);
            // analyze:allow(hot-path-panic): `from < end <= nrows`, so the
            // page it is on exists.
            let src = &mut tail[0];
            match head.get_mut(to_page) {
                Some(dst) => dst.pull_rows_from(to_slot, src, from_slot, n),
                // `to` is on the page `from` is on.
                None => src.pull_rows_within(to_slot, from_slot, n),
            }
            to += n as u64;
            from += n as u64;
        }
        to
    }

    /// Update all rows matching `pred`: each `(column, value)` assignment is
    /// applied to every match. Assignments are validated against the schema
    /// up front; on error the table and `stats` are untouched. Returns rows
    /// changed — matches whose assignments were all already in place do not
    /// count.
    ///
    /// **Written:** the assigned columns of the changed rows, in place.
    /// Nothing moves: row count, row order and TIDs survive (callers must
    /// still not rely on the last — see [`Table::delete_where`]).
    ///
    /// **Charged:** as [`Table::delete_where`] — a full sequential scan
    /// plus a page write for every page of the table, the cost of a heap
    /// rewrite in the simulated server's model, whichever pages held a
    /// changed row.
    pub fn update_where(
        &mut self,
        pred: &Pred,
        assignments: &[(usize, Code)],
        stats: &DbStats,
    ) -> DbResult<u64> {
        self.update_where_with(pred, assignments, stats, |_, _| {})
    }

    /// [`Table::update_where`] with an observer: `on_change` sees each
    /// `(old, new)` image pair (in scan order) for rows the update actually
    /// changes, during the read-only filter pass, before any is assigned.
    /// The hook is how [`crate::Database`] logs an UPDATE as a delete of the
    /// old image plus an insert of the new one.
    pub fn update_where_with(
        &mut self,
        pred: &Pred,
        assignments: &[(usize, Code)],
        stats: &DbStats,
        mut on_change: impl FnMut(&[Code], &[Code]),
    ) -> DbResult<u64> {
        for &(col, value) in assignments {
            let meta = self
                .schema
                .columns()
                .get(col)
                .ok_or_else(|| DbError::UnknownColumn(format!("#{col}")))?;
            if value >= meta.cardinality() {
                return Err(DbError::ValueOutOfRange {
                    column: meta.name().to_string(),
                    value,
                    cardinality: meta.cardinality(),
                });
            }
        }
        let arity = self.schema.arity();
        let mut changed = Vec::new();
        let mut new_row: Vec<Code> = Vec::with_capacity(arity);
        self.scan_matching(pred, stats, |tid, row| {
            // Every assigned column was checked against the schema above.
            if assignments.iter().all(|&(col, value)| row[col] == value) {
                return;
            }
            new_row.clear();
            new_row.extend_from_slice(row);
            for &(col, value) in assignments {
                // analyze:allow(hot-path-panic): `col` is a schema column,
                // validated above, and `new_row` a whole row.
                new_row[col] = value;
            }
            // (Two assignments to one column may still cancel out.)
            if new_row[..] != *row {
                on_change(row, &new_row);
                changed.push(tid);
            }
        });
        if !changed.is_empty() {
            // The assigned codes are now stored: the certificate covers them.
            for &(col, value) in assignments {
                if let Some(max) = self.col_max.get_mut(col) {
                    *max = (*max).max(value);
                }
            }
        }
        let per_page = Page::capacity_rows(arity) as u64;
        for &tid in &changed {
            // analyze:allow(hot-path-panic): the scan above minted `tid`
            // over these pages.
            let page = &mut self.pages[(tid / per_page) as usize];
            let row = page.row_mut((tid % per_page) as usize);
            for &(col, value) in assignments {
                // analyze:allow(hot-path-panic): `col` is a schema column,
                // validated above, and `row` a whole row.
                row[col] = value;
            }
        }
        stats.add_pages_written(self.npages());
        Ok(changed.len() as u64)
    }

    /// Fetch a single row by TID. Charges one page read (random access).
    pub fn fetch_by_tid(&self, tid: Tid, stats: &DbStats) -> DbResult<&[Code]> {
        let arity = self.schema.arity();
        let per_page = Page::capacity_rows(arity) as u64;
        let page_idx = (tid.0 / per_page) as usize;
        let row_idx = (tid.0 % per_page) as usize;
        let page = self
            .pages
            .get(page_idx)
            .ok_or(DbError::CursorClosed)
            .and_then(|p| {
                if row_idx < p.nrows() {
                    Ok(p)
                } else {
                    Err(DbError::CursorClosed)
                }
            })?;
        stats.add_pages_read(1);
        stats.add_tid_fetches(1);
        Ok(page.row(row_idx))
    }

    /// The rows of `[start, end)` that lie on the page holding row `start`
    /// — the next step of a scan that filters a page at a time: the page's
    /// index and those rows, packed, without charging I/O (the caller
    /// accounts for the page and the rows it reads). `None` when `start`
    /// is past the table or the range is empty.
    pub(crate) fn page_run(&self, start: u64, end: u64) -> Option<(u64, &[Code])> {
        let arity = self.schema.arity();
        let per_page = Page::capacity_rows(arity) as u64;
        let page_idx = start / per_page;
        let page = self.pages.get(page_idx as usize)?;
        let page_start = page_idx * per_page;
        let last = end.min(page_start + page.nrows() as u64);
        let on_page = |tid: u64| (tid - page_start) as usize * arity;
        let rows = page.raw().get(on_page(start)..on_page(last.max(start)))?;
        (!rows.is_empty()).then_some((page_idx, rows))
    }

    /// A filtered sequential scan, a page at a time: `on_page` sees, for
    /// each page in turn, the TID of its first row, its packed rows and
    /// which of them `filter` selects, ascending. Charges what draining
    /// [`Table::scan`] charges: the scan, each page, every row.
    pub(crate) fn scan_selected(
        &self,
        filter: &Pred,
        stats: &DbStats,
        mut on_page: impl FnMut(u64, &[Code], &[u32]),
    ) {
        stats.add_seq_scan();
        let mut filter = PageFilter::compile(filter, &self.col_max);
        let mut sel = Vec::new();
        let mut first_tid = 0;
        for page in &self.pages {
            stats.add_pages_read(1);
            stats.add_rows_scanned(page.nrows() as u64);
            filter.select(page.raw(), &mut sel);
            on_page(first_tid, page.raw(), &sel);
            first_tid += page.nrows() as u64;
        }
    }

    /// [`Table::scan_selected`], a selected row at a time: `on_row` sees
    /// the TID and the codes of each row `filter` selects, in scan order.
    pub(crate) fn scan_matching(
        &self,
        filter: &Pred,
        stats: &DbStats,
        mut on_row: impl FnMut(u64, &[Code]),
    ) {
        let arity = self.schema.arity();
        self.scan_selected(filter, stats, |first_tid, rows, sel| {
            for &r in sel {
                let start = r as usize * arity;
                // analyze:allow(hot-path-panic): selections are minted over
                // the page's rows.
                on_row(first_tid + u64::from(r), &rows[start..start + arity]);
            }
        });
    }

    /// The TIDs of the rows `filter` selects, ascending, by a filtered
    /// sequential scan ([`Table::scan_selected`] says what it charges).
    pub(crate) fn matching_tids(&self, filter: &Pred, stats: &DbStats) -> Vec<Tid> {
        let mut tids = Vec::new();
        self.scan_selected(filter, stats, |first_tid, _, sel| {
            tids.extend(sel.iter().map(|&r| Tid(first_tid + u64::from(r))));
        });
        tids
    }

    /// Sequential scan charging page reads and scanned rows to `stats`, a
    /// row at a time. No access path of the crate walks it any more — the
    /// cursors, the SQL executor and DML all filter a page at a time
    /// (`Table::scan_selected`); it stays as the row-at-a-time oracle
    /// that `tests/props.rs` holds those page paths to, row for row and
    /// charge for charge.
    pub fn scan<'a>(&'a self, stats: &'a DbStats) -> ScanIter<'a> {
        stats.add_seq_scan();
        ScanIter {
            table: self,
            stats,
            page_idx: 0,
            row_idx: 0,
            tid: 0,
            page_charged: false,
        }
    }

    /// Iterate rows without touching statistics. For server-internal use
    /// (e.g. validation, tests); real access paths must use [`Table::scan`].
    pub fn rows_unaccounted(&self) -> impl Iterator<Item = &[Code]> + '_ {
        self.pages.iter().flat_map(|p| p.rows())
    }

    /// Raw page access (spooling helpers).
    pub fn pages(&self) -> &[Page] {
        &self.pages
    }
}

/// Sequential-scan iterator that charges I/O as it advances: one page read
/// per page entered, one scanned row per row yielded.
pub struct ScanIter<'a> {
    table: &'a Table,
    stats: &'a DbStats,
    page_idx: usize,
    row_idx: usize,
    tid: u64,
    page_charged: bool,
}

impl<'a> Iterator for ScanIter<'a> {
    type Item = (Tid, &'a [Code]);

    fn next(&mut self) -> Option<Self::Item> {
        loop {
            let page = self.table.pages.get(self.page_idx)?;
            if !self.page_charged {
                self.stats.add_pages_read(1);
                self.page_charged = true;
            }
            if self.row_idx < page.nrows() {
                let row = page.row(self.row_idx);
                self.row_idx += 1;
                let tid = Tid(self.tid);
                self.tid += 1;
                self.stats.add_rows_scanned(1);
                return Some((tid, row));
            }
            self.page_idx += 1;
            self.row_idx = 0;
            self.page_charged = false;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_table() -> Table {
        let mut t = Table::new(Schema::from_pairs(&[("a", 10), ("class", 3)]));
        for i in 0..10u16 {
            t.insert(&[i % 10, i % 3]).unwrap();
        }
        t
    }

    #[test]
    fn insert_and_count() {
        let t = small_table();
        assert_eq!(t.nrows(), 10);
        assert_eq!(t.npages(), 1);
    }

    #[test]
    fn insert_rejects_bad_rows() {
        let mut t = Table::new(Schema::from_pairs(&[("a", 2)]));
        assert!(matches!(
            t.insert(&[5]),
            Err(DbError::ValueOutOfRange { .. })
        ));
        assert!(matches!(
            t.insert(&[0, 0]),
            Err(DbError::ArityMismatch { .. })
        ));
        assert_eq!(t.nrows(), 0);
    }

    #[test]
    #[should_panic(expected = "ragged row: 3 codes for a page of arity 2")]
    fn insert_unchecked_refuses_a_ragged_row() {
        small_table().insert_unchecked(&[1, 2, 9]);
    }

    #[test]
    fn a_refused_ragged_row_touches_neither_heap_nor_certificate() {
        let mut t = small_table();
        let before = (t.nrows(), t.col_max().to_vec());
        let refused = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            t.insert_unchecked(&[1, 2, 9]);
        }));
        assert!(refused.is_err());
        assert_eq!((t.nrows(), t.col_max().to_vec()), before);
        // The next row lands whole, where it belongs.
        t.insert_unchecked(&[4, 1]);
        assert_eq!(t.rows_unaccounted().nth(10), Some(&[4, 1][..]));
    }

    #[test]
    fn scan_visits_all_rows_in_order_and_charges_stats() {
        let t = small_table();
        let stats = DbStats::new();
        let rows: Vec<Vec<Code>> = t.scan(&stats).map(|(_, r)| r.to_vec()).collect();
        assert_eq!(rows.len(), 10);
        assert_eq!(rows[3], vec![3, 0]);
        let snap = stats.snapshot();
        assert_eq!(snap.rows_scanned, 10);
        assert_eq!(snap.pages_read, 1);
        assert_eq!(snap.seq_scans, 1);
    }

    #[test]
    fn multi_page_tables_charge_per_page() {
        // arity 2 → 2048 rows per page; 5000 rows → 3 pages.
        let mut t = Table::new(Schema::from_pairs(&[("a", 100), ("class", 2)]));
        for i in 0..5000u32 {
            t.insert(&[(i % 100) as Code, (i % 2) as Code]).unwrap();
        }
        assert_eq!(t.npages(), 3);
        let stats = DbStats::new();
        assert_eq!(t.scan(&stats).count(), 5000);
        assert_eq!(stats.snapshot().pages_read, 3);
    }

    #[test]
    fn tids_are_stable_for_fetch() {
        let t = small_table();
        let stats = DbStats::new();
        let pairs: Vec<(Tid, Vec<Code>)> =
            t.scan(&stats).map(|(tid, r)| (tid, r.to_vec())).collect();
        for (tid, row) in &pairs {
            let fetched = t.fetch_by_tid(*tid, &stats).unwrap();
            assert_eq!(fetched, &row[..]);
        }
        // each fetch is a random page read
        assert_eq!(stats.snapshot().tid_fetches, 10);
    }

    #[test]
    fn fetch_by_tid_out_of_range_errors() {
        let t = small_table();
        let stats = DbStats::new();
        assert!(t.fetch_by_tid(Tid(10_000), &stats).is_err());
    }

    #[test]
    fn size_bytes_is_page_multiple() {
        let t = small_table();
        assert_eq!(t.size_bytes(), 8192);
    }

    #[test]
    fn delete_where_with_observes_removed_rows() {
        let mut t = small_table();
        let stats = DbStats::new();
        let mut seen = Vec::new();
        let removed = t.delete_where_with(&Pred::Eq { col: 1, value: 0 }, &stats, |row| {
            seen.push(row.to_vec())
        });
        assert_eq!(removed as usize, seen.len());
        assert!(seen.iter().all(|r| r[1] == 0));
        assert_eq!(t.nrows() + removed, 10);
    }

    #[test]
    fn update_where_rewrites_matches_and_charges() {
        let mut t = small_table();
        let stats = DbStats::new();
        let mut pairs = Vec::new();
        let changed = t
            .update_where_with(
                &Pred::Eq { col: 0, value: 3 },
                &[(1, 2)],
                &stats,
                |old, new| pairs.push((old.to_vec(), new.to_vec())),
            )
            .unwrap();
        // small_table: row i = [i%10, i%3]; only row 3 = [3, 0] matches a=3.
        assert_eq!(changed, 1);
        assert_eq!(pairs, vec![(vec![3, 0], vec![3, 2])]);
        assert_eq!(t.nrows(), 10, "updates never change the row count");
        let snap = stats.snapshot();
        assert_eq!(snap.rows_scanned, 10, "update pays a full scan");
        assert!(snap.pages_written >= 1, "rewritten heap pays page writes");
        let rows: Vec<Vec<Code>> = t.rows_unaccounted().map(|r| r.to_vec()).collect();
        assert_eq!(rows[3], vec![3, 2]);
        assert_eq!(rows[4], vec![4, 1], "non-matches untouched");
    }

    #[test]
    fn update_where_counts_only_real_changes() {
        let mut t = small_table();
        let stats = DbStats::new();
        // Row 0 = [0, 0]: assigning class=0 changes nothing.
        let changed = t
            .update_where(&Pred::Eq { col: 0, value: 0 }, &[(1, 0)], &stats)
            .unwrap();
        assert_eq!(changed, 0);
    }

    #[test]
    fn update_where_validates_assignments_without_mutating() {
        let mut t = small_table();
        let stats = DbStats::new();
        let before: Vec<Vec<Code>> = t.rows_unaccounted().map(|r| r.to_vec()).collect();
        assert!(matches!(
            t.update_where(&Pred::True, &[(1, 99)], &stats),
            Err(DbError::ValueOutOfRange { .. })
        ));
        assert!(matches!(
            t.update_where(&Pred::True, &[(7, 0)], &stats),
            Err(DbError::UnknownColumn(_))
        ));
        let after: Vec<Vec<Code>> = t.rows_unaccounted().map(|r| r.to_vec()).collect();
        assert_eq!(before, after, "failed validation leaves the heap alone");
    }
}
