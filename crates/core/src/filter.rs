//! Server filter generation (§4.3.1).
//!
//! "To ensure that each record fetched from the server to the middleware
//! contributes to one or more of the counts, we generate a filter
//! expression to be used in the select query … Given nodes n_1 … n_k we
//! generate the filter expression (S_1 ∨ … ∨ S_k)." This avoids tagging
//! records with node membership (as SLIQ/SPRINT do) and therefore avoids
//! any writes to the data table.
//!
//! A batch that derives a node's table from its parent's and its counted
//! sibling's (DESIGN.md §12b) counts none of that node's rows, so a
//! server scan keeps the quote true by leaving such a node's `S_i` out of
//! the union — unless a staging tee still wants its rows
//! (`BatchCounter::pushdown`, the one place that decides). A node counted
//! only in the classes its sibling shares (DESIGN.md §12b) keeps its `S_i`
//! cut to those classes there, under the same condition. A §4.3.3
//! auxiliary structure is still built from every node's whole path: the
//! derived and sliced nodes' children read it later.

use crate::request::CcRequest;
use scaleclass_sqldb::Pred;

/// The union filter for a batch of scheduled requests.
pub fn union_filter(requests: &[&CcRequest]) -> Pred {
    Pred::or(requests.iter().map(|r| r.pred().clone()).collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::{Lineage, NodeId};

    fn request_with(pred_edges: &[(usize, u16)]) -> CcRequest {
        let mut lineage = Lineage::root(NodeId(0));
        for (i, (col, value)) in pred_edges.iter().enumerate() {
            lineage = lineage.child(
                NodeId(i as u64 + 1),
                Pred::Eq {
                    col: *col,
                    value: *value,
                },
            );
        }
        CcRequest {
            lineage,
            attrs: vec![0, 1],
            class_col: 2,
            rows: 10,
            parent_rows: 20,
            parent_cards: vec![2, 2],
        }
    }

    #[test]
    fn union_of_paths() {
        let a = request_with(&[(0, 1)]);
        let b = request_with(&[(0, 2), (1, 0)]);
        let f = union_filter(&[&a, &b]);
        // rows matching either path pass
        assert!(f.eval(&[1, 9, 0]));
        assert!(f.eval(&[2, 0, 0]));
        assert!(!f.eval(&[2, 1, 0]));
        assert!(!f.eval(&[3, 0, 0]));
    }

    #[test]
    fn union_of_root_is_true() {
        let root = request_with(&[]);
        assert_eq!(union_filter(&[&root]), Pred::True);
    }

    #[test]
    fn empty_union_is_false() {
        assert_eq!(union_filter(&[]), Pred::False);
    }
}
