//! A lock manifest shipped with the tree: its rows are checked against
//! the functions the tree defines.
pub const LOCK_SITES: [LockSite; 2] = [
    LockSite { method: "probe" },
    LockSite { method: "publish" },
];

pub struct LockSite {
    pub method: &'static str,
}
