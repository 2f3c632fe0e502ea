//! Fixture: the block kernel's slot arithmetic without its directives.

impl DenseCounts {
    /// Count a selection in place, unvetted.
    fn add_rows(&mut self, rows: &[u32], col: ColumnView, base: u32, nc: u32) {
        for &r in rows {
            let slot = base + u32::from(col.get(r)) * nc;
            if let Some(s) = self.slots.get_mut(slot as usize) {
                *s = s.saturating_add(1);
            }
        }
    }
}
