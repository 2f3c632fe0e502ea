//! Fixture: library code reading the process environment.

/// Read the phantom knob.
pub fn phantom() -> Option<String> {
    std::env::var("SCALECLASS_PHANTOM").ok()
}
