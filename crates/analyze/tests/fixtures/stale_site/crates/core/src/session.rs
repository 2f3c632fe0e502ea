//! Every transient arbiter helper the manifest names.
pub struct BudgetArbiter;

impl BudgetArbiter {
    pub fn open(&self) {}
    pub fn release(&self) {}
    pub fn stats(&self) {}
    pub fn live_sessions(&self) {}
    pub fn assert_shadow_accounting(&self) {}
}
