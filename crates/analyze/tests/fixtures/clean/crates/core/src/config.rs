//! Fixture: configuration defaults are constants — nothing here reads the
//! process environment.

/// The demo pool size.
pub const DEMO_POOL: usize = 4;
