//! Fixture: hot-path-panic and page-write violations in DML lookalikes.

impl Table {
    /// Bulk load is on no scan path, but its page write skips the certificate.
    pub fn load(&mut self, rows: &[Vec<Code>]) {
        for row in rows {
            self.pages[0].push_row(&row[..]).then_some(()).unwrap();
        }
    }

    /// Assign in place, trusting every TID and every column.
    pub fn update_where_with(&mut self, changed: &[u64], assignments: &[(usize, Code)]) {
        for &tid in changed {
            let page = &mut self.pages[(tid / 512) as usize];
            for &(col, value) in assignments {
                page.row_mut(0)[col] = value;
            }
        }
    }

    /// Compact, trusting that both pages exist.
    fn pull_rows(&mut self, to: u64, from: u64) -> u64 {
        let (head, tail) = self.pages.split_at_mut((from / 512) as usize);
        let src = tail.first_mut().expect("source page");
        to
    }

    /// Overwrite a stored code behind the certificate's back.
    pub fn poke(&mut self, tid: u64, col: usize, value: Code) {
        self.pages[0].row_mut(tid as usize)[col] = value;
    }
}
