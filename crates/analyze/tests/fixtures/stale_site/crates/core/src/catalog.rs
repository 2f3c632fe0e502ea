//! Every transient catalog helper the manifest names but `publish`,
//! renamed away; a test-only `publish` does not keep its row alive.
pub struct StagingCatalog;

impl StagingCatalog {
    pub fn register_session(&self) {}
    pub fn unregister_session(&self) {}
    pub fn probe(&self) {}
    pub fn publish_everywhere(&self) {}
    pub fn purge_stale(&self) {}
    pub fn detach(&self) {}
    pub fn share_of(&self) {}
}

#[cfg(test)]
mod tests {
    fn publish() {}
}
