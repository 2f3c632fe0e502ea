//! Scope manifests shipped with the tree: each fn name is checked against
//! the functions its file defines.
const ARITH_SCOPED: [(&str, &[&str]); 1] = [(
    "crates/core/src/cc.rs",
    &["add_block", "add_rows", "block_growth_bound"],
)];

const PANIC_SCOPED: [(&str, &[&str]); 1] = [
    ("crates/dtree/src/grow.rs", &["drain", "apply_exact"]),
];
