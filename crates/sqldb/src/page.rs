//! Heap pages.
//!
//! Tables are stored as a sequence of fixed-size pages of packed fixed-width
//! rows. The page is the unit of I/O accounting: a sequential scan charges
//! one logical page read per page it touches, which is what makes the
//! server-scan cost in the experiments proportional to *table* size rather
//! than *result* size (the asymmetry the paper's staging exploits).

use crate::types::{Code, CODE_BYTES};

/// Page size in bytes. 8 KB, matching SQL Server 7.0's page size.
pub const PAGE_SIZE: usize = 8192;

/// Number of codes a page can hold.
pub const PAGE_CODES: usize = PAGE_SIZE / CODE_BYTES;

/// A fixed-size page of packed rows, each `arity` codes wide.
#[derive(Debug, Clone)]
pub struct Page {
    /// Packed row data; `nrows * arity` codes are valid.
    data: Vec<Code>,
    arity: usize,
    nrows: usize,
}

impl Page {
    /// An empty page for rows of the given arity.
    pub fn new(arity: usize) -> Self {
        assert!(arity > 0 && arity <= PAGE_CODES, "row too wide for a page");
        Page {
            data: Vec::with_capacity(Self::capacity_rows(arity) * arity),
            arity,
            nrows: 0,
        }
    }

    /// Rows of width `arity` that fit on one page.
    pub fn capacity_rows(arity: usize) -> usize {
        PAGE_CODES / arity
    }

    /// Append a row. Returns `false` (without modifying the page) when full.
    /// Panics, before anything is stored, on a row that is not `arity`
    /// codes wide: appended whole, it would shift every later row.
    pub fn push_row(&mut self, row: &[Code]) -> bool {
        assert!(
            row.len() == self.arity,
            "ragged row: {} codes for a page of arity {}",
            row.len(),
            self.arity
        );
        if self.nrows >= Self::capacity_rows(self.arity) {
            return false;
        }
        self.data.extend_from_slice(row);
        self.nrows += 1;
        true
    }

    /// Rows stored on the page.
    pub fn nrows(&self) -> usize {
        self.nrows
    }

    /// Is the page empty?
    pub fn is_empty(&self) -> bool {
        self.nrows == 0
    }

    /// Row `i` as a code slice.
    pub fn row(&self, i: usize) -> &[Code] {
        let start = i * self.arity;
        &self.data[start..start + self.arity]
    }

    /// Iterate over all rows on the page.
    pub fn rows(&self) -> impl Iterator<Item = &[Code]> + '_ {
        self.data.chunks_exact(self.arity)
    }

    /// Raw packed codes (used by spooling and the simulated wire).
    pub fn raw(&self) -> &[Code] {
        &self.data
    }

    /// Row `i`, to assign to in place (`UPDATE`).
    pub(crate) fn row_mut(&mut self, i: usize) -> &mut [Code] {
        let start = i * self.arity;
        &mut self.data[start..start + self.arity]
    }

    /// Overwrite the `n` rows from slot `to` with the `n` rows from slot
    /// `from` of this page — one compaction step of `DELETE`, which pulls
    /// surviving rows forward (`to <= from`; the ranges may overlap).
    pub(crate) fn pull_rows_within(&mut self, to: usize, from: usize, n: usize) {
        let a = self.arity;
        self.data.copy_within(from * a..(from + n) * a, to * a);
    }

    /// Overwrite the `n` rows from slot `to` with the `n` rows from slot
    /// `from` of `src`, a later page of the same table.
    pub(crate) fn pull_rows_from(&mut self, to: usize, src: &Page, from: usize, n: usize) {
        let a = self.arity;
        self.data[to * a..(to + n) * a].copy_from_slice(&src.data[from * a..(from + n) * a]);
    }

    /// Drop the rows from slot `nrows` on (the buffer keeps its capacity).
    pub(crate) fn truncate_rows(&mut self, nrows: usize) {
        debug_assert!(nrows <= self.nrows);
        self.data.truncate(nrows * self.arity);
        self.nrows = nrows;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn capacity_depends_on_arity() {
        assert_eq!(Page::capacity_rows(1), 4096);
        assert_eq!(Page::capacity_rows(4), 1024);
        assert_eq!(Page::capacity_rows(100), 40);
    }

    #[test]
    fn push_until_full() {
        let mut p = Page::new(2);
        let cap = Page::capacity_rows(2);
        for i in 0..cap {
            assert!(p.push_row(&[i as Code, 1]));
        }
        assert!(!p.push_row(&[0, 0]), "page must reject overflow");
        assert_eq!(p.nrows(), cap);
        assert_eq!(p.row(5), &[5, 1]);
    }

    #[test]
    fn rows_iterates_in_insert_order() {
        let mut p = Page::new(3);
        p.push_row(&[1, 2, 3]);
        p.push_row(&[4, 5, 6]);
        let rows: Vec<_> = p.rows().collect();
        assert_eq!(rows, vec![&[1, 2, 3][..], &[4, 5, 6][..]]);
    }

    #[test]
    #[should_panic(expected = "ragged row: 3 codes for a page of arity 2")]
    fn push_row_refuses_a_ragged_row() {
        Page::new(2).push_row(&[1, 2, 3]);
    }

    #[test]
    fn empty_page() {
        let p = Page::new(7);
        assert!(p.is_empty());
        assert_eq!(p.rows().count(), 0);
    }
}
