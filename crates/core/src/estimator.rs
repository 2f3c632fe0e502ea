//! Size estimators (§4.2.1).
//!
//! The middleware needs two sizes per active node before it has touched the
//! node's data:
//!
//! * **Data size** `|n_i|` — known *exactly* from the parent's CC table
//!   (the partition `A = v` / `A = other` sizes are sums of parent counts).
//!   The client computes it when it creates the request; this module only
//!   converts it to bytes.
//! * **Counts-table size** — only estimable. The paper rejects the two
//!   pessimistic upper bounds (`|CC(p)| − 1` and `|CC(p)| − card(p, A_j)`)
//!   in favour of the independence estimate
//!   `Est_cc(n_i) = (|n_i| / |p_i|) · Σ_j card(p_i, A_j)`,
//!   which is conservative with memory and whose inputs (`card(p_i, A_j)`)
//!   are known exactly, so estimation error does not propagate.

use crate::cc::CC_ENTRY_BYTES;
use crate::request::CcRequest;
use crate::staging::CodeWidth;

/// Lossless `usize → u64` for collection lengths (accounting-arith: no bare
/// `as` casts in this module; lengths cannot exceed `u64::MAX`).
fn len_u64(n: usize) -> u64 {
    u64::try_from(n).unwrap_or(u64::MAX)
}

/// The paper's independence estimate of a node's counts-table entry count:
/// `(rows / parent_rows) · Σ_j card(parent, A_j)`, clamped to at least one
/// entry per attribute (a non-empty node sees ≥1 value per attribute) and
/// to the parent's total (a child cannot have more distinct
/// attribute-values than its parent).
pub fn est_cc_entries(req: &CcRequest) -> u64 {
    let parent_sum: u64 = req.parent_cards.iter().sum();
    if req.parent_rows == 0 || req.rows == 0 {
        return len_u64(req.attrs.len());
    }
    // Exact integer ceiling of `(rows / parent_rows) · parent_sum`; the old
    // f64 round-trip agreed below 2^53 but was a needless precision cliff in
    // an accounting module.
    let num = u128::from(req.rows).saturating_mul(u128::from(parent_sum));
    let est = u64::try_from(num.div_ceil(u128::from(req.parent_rows))).unwrap_or(u64::MAX);
    est.clamp(len_u64(req.attrs.len()), parent_sum)
}

/// A *guaranteed* upper bound on a node's counts-table entries:
/// `min(Σ_j card(p, A_j) × classes, rows × |attrs|)` — every entry is a
/// distinct `(attr, value, class)` triple, each row contributes at most one
/// entry per attribute, and a child never sees more attribute values than
/// its parent. The scheduler admits batches against this bound so the
/// §4.1.1 runtime fallback fires only in the degenerate
/// single-node-over-budget case (at the paper's memory scales — megabytes
/// against kilobyte counts tables — Est_cc admission virtually never
/// overflows; at our scaled-down budgets it does constantly, so admission
/// needs the hard bound to reproduce the paper's figure shapes; see
/// DESIGN.md).
pub fn est_cc_bytes_upper(req: &CcRequest, nclasses: u64) -> u64 {
    let by_cards: u64 = req
        .parent_cards
        .iter()
        .sum::<u64>()
        .saturating_mul(nclasses.max(1));
    let by_rows: u64 = req.rows.saturating_mul(len_u64(req.attrs.len()));
    by_cards
        .min(by_rows)
        .max(len_u64(req.attrs.len()))
        .saturating_mul(CC_ENTRY_BYTES)
}

/// Entry-count estimate under a selectable estimator (§4.2.1 /
/// [`crate::config::EstimatorKind`]).
pub fn est_cc_entries_kind(req: &CcRequest, kind: crate::config::EstimatorKind) -> u64 {
    match kind {
        crate::config::EstimatorKind::Independence => est_cc_entries(req),
        crate::config::EstimatorKind::Pessimistic => req
            .parent_cards
            .iter()
            .sum::<u64>()
            .max(len_u64(req.attrs.len())),
    }
}

/// Estimated counts-table footprint in bytes under a selectable estimator.
pub fn est_cc_bytes_kind(
    req: &CcRequest,
    nclasses: u64,
    kind: crate::config::EstimatorKind,
) -> u64 {
    est_cc_entries_kind(req, kind)
        .saturating_mul(nclasses.max(1))
        .saturating_mul(CC_ENTRY_BYTES)
}

/// Estimated counts-table footprint in bytes. Each attribute-value can
/// co-occur with every class present, so the entry estimate scales by the
/// class count (the paper's formula omits this constant factor; we keep it
/// because our budget is in bytes).
pub fn est_cc_bytes(req: &CcRequest, nclasses: u64) -> u64 {
    est_cc_entries(req)
        .saturating_mul(nclasses.max(1))
        .saturating_mul(CC_ENTRY_BYTES)
}

/// Exact size of a node's data staged in memory, in bytes: `rows × arity
/// × width`, each code stored in `width` bytes.
pub fn data_bytes(rows: u64, arity: usize, width: CodeWidth) -> u64 {
    let row_width = len_u64(arity).saturating_mul(len_u64(width.bytes()));
    rows.saturating_mul(row_width)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::{Lineage, NodeId};
    use scaleclass_sqldb::Pred;

    fn req(rows: u64, parent_rows: u64, parent_cards: Vec<u64>) -> CcRequest {
        let attrs: Vec<u16> = (0..u16::try_from(parent_cards.len()).unwrap()).collect();
        CcRequest {
            lineage: Lineage::root(NodeId(0)).child(NodeId(1), Pred::Eq { col: 0, value: 0 }),
            attrs,
            class_col: 99,
            rows,
            parent_rows,
            parent_cards,
        }
    }

    #[test]
    fn estimate_scales_with_data_fraction() {
        // parent: 1000 rows, cards [4, 4, 2] → Σ = 10
        let half = req(500, 1000, vec![4, 4, 2]);
        assert_eq!(est_cc_entries(&half), 5);
        let all = req(1000, 1000, vec![4, 4, 2]);
        assert_eq!(est_cc_entries(&all), 10);
    }

    #[test]
    fn estimate_clamps_to_attr_floor_and_parent_ceiling() {
        // Tiny fraction: at least one entry per attribute.
        let tiny = req(1, 1_000_000, vec![4, 4, 2]);
        assert_eq!(est_cc_entries(&tiny), 3);
        // Degenerate: child claims more rows than parent (cannot happen in
        // a correct client, but the estimator must stay bounded).
        let weird = req(5000, 1000, vec![4, 4, 2]);
        assert_eq!(est_cc_entries(&weird), 10);
    }

    #[test]
    fn empty_nodes_estimate_one_entry_per_attr() {
        assert_eq!(est_cc_entries(&req(0, 1000, vec![4, 4])), 2);
        assert_eq!(est_cc_entries(&req(10, 0, vec![4, 4])), 2);
    }

    #[test]
    fn bytes_scale_with_classes() {
        let r = req(500, 1000, vec![4, 4, 2]);
        assert_eq!(est_cc_bytes(&r, 10), 5 * 10 * CC_ENTRY_BYTES);
        assert_eq!(est_cc_bytes(&r, 0), 5 * CC_ENTRY_BYTES, "class floor of 1");
    }

    #[test]
    fn data_bytes_is_rows_times_width() {
        assert_eq!(data_bytes(100, 26, CodeWidth::One), 100 * 26);
        assert_eq!(data_bytes(100, 26, CodeWidth::Two), 100 * 52);
        assert_eq!(data_bytes(0, 26, CodeWidth::Two), 0);
    }

    #[test]
    fn independence_estimate_is_below_pessimistic_bounds_typically() {
        // parent CC has 10 attr-values × (say) all classes; est for a 25%
        // child is far below |CC(p)|-1.
        let r = req(250, 1000, vec![4, 4, 2]);
        let est = est_cc_entries(&r);
        assert!(est < 10 * 10 - 1);
    }
}
