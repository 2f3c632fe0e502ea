//! The traditional in-memory classification client.
//!
//! This is both (a) the client whose scoring logic plugs into the
//! middleware (§3.1 adapts exactly this kind of implementation) and (b)
//! the §2.3 baseline "generate a SQL query to extract data needed for all
//! nodes": ship the whole table to the client once, then compute every
//! node's counts locally. It shares [`decide`]/[`derive_children`] with the
//! middleware-driven grower, so — given the same data and configuration —
//! both produce structurally identical trees (asserted by integration
//! tests).

use crate::grow::{decide, derive_children, immediate_leaf, Decision, GrowConfig};
use crate::tree::{DecisionTree, NodeState, TreeNode};
use scaleclass::CountsTable;
use scaleclass_sqldb::Code;

/// Grow a decision tree entirely in client memory from flat row data
/// (`rows.len()` must be a multiple of `arity`).
pub fn grow_in_memory(
    rows: &[Code],
    arity: usize,
    class_col: u16,
    attrs: &[u16],
    config: &GrowConfig,
) -> DecisionTree {
    assert!(
        arity > 0 && rows.len().is_multiple_of(arity),
        "flat rows misaligned"
    );
    let nrows = rows.len() / arity;
    let row = |i: usize| &rows[i * arity..(i + 1) * arity];

    let mut tree = DecisionTree::new();
    let root = tree.push(TreeNode {
        id: 0,
        parent: None,
        edge: None,
        depth: 0,
        state: NodeState::Active,
        class_counts: Vec::new(),
        rows: nrows as u64,
        children: Vec::new(),
        source: None,
    });

    // Work stack: (arena index, row indices, attributes).
    let mut stack: Vec<(usize, Vec<u32>, Vec<u16>)> =
        vec![(root, (0..nrows as u32).collect(), attrs.to_vec())];

    while let Some((idx, subset, node_attrs)) = stack.pop() {
        let depth = tree.node(idx).depth;
        let mut cc = CountsTable::new();
        for &i in &subset {
            cc.add_row(row(i as usize), &node_attrs, class_col);
        }
        {
            let node = tree.node_mut(idx);
            node.class_counts = cc.class_distribution().collect();
            node.rows = cc.total();
        }
        match decide(&cc, &node_attrs, depth, config) {
            Decision::Leaf { class } => {
                tree.node_mut(idx).state = NodeState::Leaf { class };
            }
            Decision::Split(split) => {
                let specs = derive_children(&cc, &split, &node_attrs);
                tree.node_mut(idx).state = NodeState::Partitioned { split };
                for spec in specs {
                    let leaf_now = immediate_leaf(&spec, depth + 1, config);
                    let state = if leaf_now {
                        NodeState::Leaf {
                            class: spec.majority_class(),
                        }
                    } else {
                        NodeState::Active
                    };
                    let child_idx = tree.push(TreeNode {
                        id: 0,
                        parent: Some(idx),
                        edge: Some(spec.edge),
                        depth: depth + 1,
                        state,
                        class_counts: spec.class_counts.clone(),
                        rows: spec.rows,
                        children: Vec::new(),
                        source: None,
                    });
                    if !leaf_now {
                        let child_subset: Vec<u32> = subset
                            .iter()
                            .copied()
                            .filter(|&i| spec.edge_pred.eval(row(i as usize)))
                            .collect();
                        debug_assert_eq!(child_subset.len() as u64, spec.rows);
                        stack.push((child_idx, child_subset, spec.attrs));
                    }
                }
            }
        }
    }
    tree
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::split::SplitKind;

    /// flat rows (a, b, class) with class = a AND b. (XOR is the classic
    /// greedy-entropy blind spot — with perfectly balanced data no single
    /// attribute has positive gain, so a greedy grower correctly refuses to
    /// split. AND is learnable greedily.)
    fn and_rows(copies: usize) -> Vec<Code> {
        let mut rows = Vec::new();
        for _ in 0..copies {
            for a in 0..2u16 {
                for b in 0..2u16 {
                    rows.extend_from_slice(&[a, b, a & b]);
                }
            }
        }
        rows
    }

    #[test]
    fn learns_and() {
        let rows = and_rows(8);
        let tree = grow_in_memory(&rows, 3, 2, &[0, 1], &GrowConfig::default());
        for a in 0..2u16 {
            for b in 0..2u16 {
                assert_eq!(tree.classify(&[a, b, 0]), a & b);
            }
        }
        // AND needs depth ≥ 2 (one attribute is never enough).
        assert!(tree.depth().unwrap() >= 2);
    }

    #[test]
    fn multiway_variant_learns_too() {
        let cfg = GrowConfig {
            split_kind: SplitKind::Multiway,
            ..GrowConfig::default()
        };
        let rows = and_rows(4);
        let tree = grow_in_memory(&rows, 3, 2, &[0, 1], &cfg);
        for a in 0..2u16 {
            for b in 0..2u16 {
                assert_eq!(tree.classify(&[a, b, 0]), a & b);
            }
        }
    }

    #[test]
    fn balanced_xor_is_the_greedy_blind_spot() {
        // Documents the known limitation: with perfectly balanced XOR no
        // attribute has positive gain, so the greedy grower yields a leaf.
        let mut rows = Vec::new();
        for _ in 0..8 {
            for a in 0..2u16 {
                for b in 0..2u16 {
                    rows.extend_from_slice(&[a, b, a ^ b]);
                }
            }
        }
        let tree = grow_in_memory(&rows, 3, 2, &[0, 1], &GrowConfig::default());
        assert_eq!(tree.len(), 1);
    }

    #[test]
    fn pure_data_is_a_single_leaf() {
        let rows: Vec<Code> = (0..30).flat_map(|i| [i % 5, 1u16]).collect();
        let tree = grow_in_memory(&rows, 2, 1, &[0], &GrowConfig::default());
        assert_eq!(tree.len(), 1);
        assert_eq!(tree.classify(&[3, 0]), 1);
    }

    #[test]
    fn empty_data_is_a_single_default_leaf() {
        let tree = grow_in_memory(&[], 3, 2, &[0, 1], &GrowConfig::default());
        assert_eq!(tree.len(), 1);
        assert!(tree.root().unwrap().is_leaf());
    }

    #[test]
    #[should_panic(expected = "misaligned")]
    fn misaligned_rows_panic() {
        grow_in_memory(&[1, 2, 3, 4], 3, 2, &[0], &GrowConfig::default());
    }
}
