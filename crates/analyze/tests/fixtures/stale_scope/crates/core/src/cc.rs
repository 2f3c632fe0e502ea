//! Every kernel the accounting scope names but `block_growth_bound`,
//! renamed away.
pub struct CountsTable;

impl CountsTable {
    pub fn add_block(&mut self) {}
    pub fn add_rows(&mut self) {}
    pub fn growth_bound(&self) {}
}
