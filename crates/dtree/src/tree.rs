//! Decision-tree structure.
//!
//! An arena of nodes mirroring the paper's node states (§2.1): a node is
//! *partitioned* once its children exist, a *leaf* once a termination
//! criterion fired, and *active* while it still awaits its counts table.
//! Each node carries the data-location tag of Figure 1 (S/I/L) reported by
//! the middleware when its counts were built.

use crate::split::Split;
use scaleclass::DataLocation;
use scaleclass_sqldb::{Code, Pred};
use std::fmt;

/// Node state (§2.1).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NodeState {
    /// Awaiting sufficient statistics.
    Active,
    /// Terminal; predicts `class`.
    Leaf {
        /// Predicted class code.
        class: Code,
    },
    /// Split applied; children created.
    Partitioned {
        /// The chosen split.
        split: Split,
    },
}

/// The edge by which a node was reached from its parent.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Edge {
    /// `attr = value` branch.
    Eq {
        /// Split attribute column.
        attr: u16,
        /// Split value.
        value: Code,
    },
    /// `attr <> value` ("other") branch.
    NotEq {
        /// Split attribute column.
        attr: u16,
        /// Split value.
        value: Code,
    },
}

impl Edge {
    /// The edge's predicate in backend column terms.
    pub(crate) fn pred(self) -> Pred {
        match self {
            Edge::Eq { attr, value } => Pred::Eq {
                col: attr as usize,
                value,
            },
            Edge::NotEq { attr, value } => Pred::NotEq {
                col: attr as usize,
                value,
            },
        }
    }
}

impl fmt::Display for Edge {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Edge::Eq { attr, value } => write!(f, "A{attr}={value}"),
            Edge::NotEq { attr, value } => write!(f, "A{attr}≠{value}"),
        }
    }
}

/// One tree node.
#[derive(Debug, Clone)]
pub struct TreeNode {
    /// Index in the arena (also the middleware `NodeId` payload).
    pub id: usize,
    /// Parent arena index (`None` at the root).
    pub parent: Option<usize>,
    /// Edge taken from the parent (`None` at the root).
    pub edge: Option<Edge>,
    /// Depth from the root (root = 0).
    pub depth: usize,
    /// Current node state.
    pub state: NodeState,
    /// `(class, rows)` at this node.
    pub class_counts: Vec<(Code, u64)>,
    /// Rows reaching this node.
    pub rows: u64,
    /// Children indices (empty unless partitioned).
    pub children: Vec<usize>,
    /// Where the middleware read this node's data (Figure 1 tag); `None`
    /// for leaves whose distribution came from the parent's CC table.
    pub source: Option<DataLocation>,
}

impl TreeNode {
    /// Majority class at this node (`0` for an empty node).
    pub fn majority_class(&self) -> Code {
        self.class_counts
            .iter()
            .max_by_key(|&&(_, n)| n)
            .map(|&(c, _)| c)
            .unwrap_or(0)
    }

    /// Is this node a leaf?
    pub fn is_leaf(&self) -> bool {
        matches!(self.state, NodeState::Leaf { .. })
    }
}

/// A grown decision tree.
#[derive(Debug, Clone, Default)]
pub struct DecisionTree {
    nodes: Vec<TreeNode>,
}

impl DecisionTree {
    /// An empty tree.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add a node, returning its arena index.
    pub fn push(&mut self, mut node: TreeNode) -> usize {
        let id = self.nodes.len();
        node.id = id;
        if let Some(p) = node.parent {
            self.nodes[p].children.push(id);
        }
        self.nodes.push(node);
        id
    }

    /// Node by arena index.
    pub fn node(&self, id: usize) -> &TreeNode {
        &self.nodes[id]
    }

    /// Node by arena index, mutably.
    pub fn node_mut(&mut self, id: usize) -> &mut TreeNode {
        &mut self.nodes[id]
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Is the tree empty?
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// All nodes, in arena order.
    pub fn nodes(&self) -> &[TreeNode] {
        &self.nodes
    }

    /// The root node, if any.
    pub fn root(&self) -> Option<&TreeNode> {
        self.nodes.first()
    }

    /// Iterator over leaf nodes.
    pub fn leaves(&self) -> impl Iterator<Item = &TreeNode> {
        self.nodes.iter().filter(|n| n.is_leaf())
    }

    /// Maximum depth over all nodes (root = 0). `None` on an empty tree.
    pub fn depth(&self) -> Option<usize> {
        self.nodes.iter().map(|n| n.depth).max()
    }

    /// Classify one row by walking root → leaf. At a partitioned node with
    /// an unseen multiway value, fall back to the node's majority class.
    pub fn classify(&self, row: &[Code]) -> Code {
        let Some(mut node) = self.root() else {
            return 0;
        };
        loop {
            match &node.state {
                NodeState::Leaf { class } => return *class,
                NodeState::Active => return node.majority_class(),
                NodeState::Partitioned { split } => {
                    let next = match split {
                        Split::Binary { attr, value } => {
                            if row[*attr as usize] == *value {
                                node.children.first()
                            } else {
                                node.children.get(1)
                            }
                        }
                        Split::Multiway { attr, values } => values
                            .iter()
                            .position(|&v| v == row[*attr as usize])
                            .and_then(|i| node.children.get(i)),
                    };
                    match next {
                        Some(&c) => node = &self.nodes[c],
                        None => return node.majority_class(),
                    }
                }
            }
        }
    }

    /// Class-probability estimate for a row: walk to the deciding node and
    /// return its training class distribution, Laplace-smoothed over the
    /// classes observed at the root (`(class, probability)` pairs,
    /// ascending by class code). Empty for an empty tree.
    pub fn classify_proba(&self, row: &[Code]) -> Vec<(Code, f64)> {
        let Some(root) = self.root() else {
            return Vec::new();
        };
        let domain: Vec<Code> = root.class_counts.iter().map(|&(c, _)| c).collect();
        // Walk like `classify`, but stop at the node whose distribution
        // decides (leaf, active, or missing branch).
        let mut node = root;
        let deciding = loop {
            match &node.state {
                NodeState::Leaf { .. } | NodeState::Active => break node,
                NodeState::Partitioned { split } => {
                    let next = match split {
                        Split::Binary { attr, value } => {
                            if row[*attr as usize] == *value {
                                node.children.first()
                            } else {
                                node.children.get(1)
                            }
                        }
                        Split::Multiway { attr, values } => values
                            .iter()
                            .position(|&v| v == row[*attr as usize])
                            .and_then(|i| node.children.get(i)),
                    };
                    match next {
                        Some(&c) => node = &self.nodes[c],
                        None => break node,
                    }
                }
            }
        };
        let total: u64 = deciding.class_counts.iter().map(|&(_, n)| n).sum();
        let k = domain.len() as f64;
        domain
            .iter()
            .map(|&c| {
                let n = deciding
                    .class_counts
                    .iter()
                    .find(|&&(cc, _)| cc == c)
                    .map(|&(_, n)| n)
                    .unwrap_or(0);
                (c, (n as f64 + 1.0) / (total as f64 + k))
            })
            .collect()
    }

    /// Count of nodes whose counts came from each data-location class:
    /// `(server, file, memory)` — the S/I/L mix of Figure 1.
    pub fn source_mix(&self) -> (usize, usize, usize) {
        let mut mix = (0, 0, 0);
        for n in &self.nodes {
            match n.source {
                Some(DataLocation::Server) => mix.0 += 1,
                Some(DataLocation::File(_)) => mix.1 += 1,
                Some(DataLocation::Memory(_)) => mix.2 += 1,
                None => {}
            }
        }
        mix
    }

    /// Export the tree as Graphviz DOT (render with `dot -Tsvg`).
    /// Internal nodes show the split; leaves show the predicted class and
    /// row count; edges carry their branch labels.
    pub fn to_dot(&self, name: &str) -> String {
        let mut out = format!("digraph {name} {{\n");
        out.push_str("  node [fontname=\"monospace\"];\n");
        for n in &self.nodes {
            let label = match &n.state {
                NodeState::Leaf { class } => {
                    format!("class {class}\\n{} rows", n.rows)
                }
                NodeState::Partitioned { split } => match split {
                    Split::Binary { attr, value } => format!("A{attr} = {value}?"),
                    Split::Multiway { attr, .. } => format!("A{attr}"),
                },
                NodeState::Active => "active".to_string(),
            };
            let shape = if n.is_leaf() { "box" } else { "ellipse" };
            out.push_str(&format!(
                "  n{} [label=\"{label}\", shape={shape}];\n",
                n.id
            ));
            if let (Some(parent), Some(edge)) = (n.parent, n.edge) {
                let edge_label = match edge {
                    Edge::Eq { value, .. } => format!("= {value}"),
                    Edge::NotEq { value, .. } => format!("≠ {value}"),
                };
                out.push_str(&format!(
                    "  n{parent} -> n{} [label=\"{edge_label}\"];\n",
                    n.id
                ));
            }
        }
        out.push_str("}\n");
        out
    }

    /// Render an ASCII view of the first `max_nodes` nodes (pre-order).
    pub fn render(&self, max_nodes: usize) -> String {
        let mut out = String::new();
        let mut emitted = 0;
        let mut stack = vec![(0usize, 0usize)];
        if self.is_empty() {
            return "(empty tree)".into();
        }
        while let Some((id, indent)) = stack.pop() {
            if emitted >= max_nodes {
                out.push_str("…\n");
                break;
            }
            let n = &self.nodes[id];
            let tag = n
                .source
                .map(|s| format!("{}-", s.tag()))
                .unwrap_or_default();
            let edge = n.edge.map(|e| format!("[{e}] ")).unwrap_or_default();
            let desc = match &n.state {
                NodeState::Leaf { class } => format!("leaf class={class}"),
                NodeState::Active => "active".to_string(),
                NodeState::Partitioned { split } => match split {
                    Split::Binary { attr, value } => format!("split A{attr}={value}?"),
                    Split::Multiway { attr, .. } => format!("split on A{attr}"),
                },
            };
            out.push_str(&format!(
                "{}{edge}{tag}{} ({} rows)\n",
                "  ".repeat(indent),
                desc,
                n.rows
            ));
            emitted += 1;
            for &c in n.children.iter().rev() {
                stack.push((c, indent + 1));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// root splits binary on A0=1; left leaf class 1, right leaf class 0.
    fn small_tree() -> DecisionTree {
        let mut t = DecisionTree::new();
        t.push(TreeNode {
            id: 0,
            parent: None,
            edge: None,
            depth: 0,
            state: NodeState::Partitioned {
                split: Split::Binary { attr: 0, value: 1 },
            },
            class_counts: vec![(0, 6), (1, 4)],
            rows: 10,
            children: vec![],
            source: Some(DataLocation::Server),
        });
        t.push(TreeNode {
            id: 0,
            parent: Some(0),
            edge: Some(Edge::Eq { attr: 0, value: 1 }),
            depth: 1,
            state: NodeState::Leaf { class: 1 },
            class_counts: vec![(1, 4)],
            rows: 4,
            children: vec![],
            source: None,
        });
        t.push(TreeNode {
            id: 0,
            parent: Some(0),
            edge: Some(Edge::NotEq { attr: 0, value: 1 }),
            depth: 1,
            state: NodeState::Leaf { class: 0 },
            class_counts: vec![(0, 6)],
            rows: 6,
            children: vec![],
            source: Some(DataLocation::Memory(1)),
        });
        t
    }

    #[test]
    fn arena_wiring() {
        let t = small_tree();
        assert_eq!(t.len(), 3);
        assert_eq!(t.root().unwrap().children, vec![1, 2]);
        assert_eq!(t.node(1).parent, Some(0));
        assert_eq!(t.depth(), Some(1));
        assert_eq!(t.leaves().count(), 2);
    }

    #[test]
    fn classification_walks_binary_splits() {
        let t = small_tree();
        assert_eq!(t.classify(&[1, 9]), 1);
        assert_eq!(t.classify(&[0, 9]), 0);
        assert_eq!(t.classify(&[3, 9]), 0);
    }

    #[test]
    fn multiway_classification_with_unseen_value_falls_back() {
        let mut t = DecisionTree::new();
        t.push(TreeNode {
            id: 0,
            parent: None,
            edge: None,
            depth: 0,
            state: NodeState::Partitioned {
                split: Split::Multiway {
                    attr: 0,
                    values: vec![0, 1],
                },
            },
            class_counts: vec![(0, 1), (1, 5)],
            rows: 6,
            children: vec![],
            source: None,
        });
        for (v, class) in [(0u16, 0u16), (1, 1)] {
            t.push(TreeNode {
                id: 0,
                parent: Some(0),
                edge: Some(Edge::Eq { attr: 0, value: v }),
                depth: 1,
                state: NodeState::Leaf { class },
                class_counts: vec![(class, 3)],
                rows: 3,
                children: vec![],
                source: None,
            });
        }
        assert_eq!(t.classify(&[0]), 0);
        assert_eq!(t.classify(&[1]), 1);
        assert_eq!(t.classify(&[7]), 1, "unseen value → majority class");
    }

    #[test]
    fn empty_tree_classifies_to_zero() {
        assert_eq!(DecisionTree::new().classify(&[1, 2, 3]), 0);
        assert_eq!(DecisionTree::new().render(10), "(empty tree)");
    }

    #[test]
    fn source_mix_counts_tags() {
        let t = small_tree();
        assert_eq!(t.source_mix(), (1, 0, 1));
    }

    #[test]
    fn probability_estimates_sum_to_one_and_track_leaves() {
        let t = small_tree();
        let p = t.classify_proba(&[1, 0]);
        let total: f64 = p.iter().map(|&(_, x)| x).sum();
        assert!((total - 1.0).abs() < 1e-12);
        // leaf with pure class 1 (4 rows): P(1) = 5/6 under Laplace
        let p1 = p.iter().find(|&&(c, _)| c == 1).unwrap().1;
        assert!((p1 - 5.0 / 6.0).abs() < 1e-12);
        // argmax of proba agrees with classify
        let best = p
            .iter()
            .max_by(|a, b| a.1.partial_cmp(&b.1).unwrap())
            .unwrap()
            .0;
        assert_eq!(best, t.classify(&[1, 0]));
        assert!(DecisionTree::new().classify_proba(&[0]).is_empty());
    }

    #[test]
    fn dot_export_is_well_formed() {
        let dot = small_tree().to_dot("t");
        assert!(dot.starts_with("digraph t {"));
        assert!(dot.trim_end().ends_with('}'));
        assert_eq!(dot.matches("->").count(), 2, "two edges for two children");
        assert!(dot.contains("A0 = 1?"));
        assert!(dot.contains("class 1"));
        assert!(dot.contains("shape=box"), "leaves are boxes");
        assert!(dot.contains("[label=\"= 1\"]"));
        assert!(dot.contains("≠ 1"));
        // empty tree still yields a valid digraph
        let empty = DecisionTree::new().to_dot("e");
        assert!(empty.contains("digraph e {"));
    }

    #[test]
    fn render_shows_structure() {
        let s = small_tree().render(10);
        assert!(s.contains("split A0=1?"));
        assert!(s.contains("leaf class=1"));
        assert!(s.contains("S-"), "source tag rendered");
        assert!(s.contains("[A0=1]"), "edge label rendered");
        let truncated = small_tree().render(1);
        assert!(truncated.contains('…'));
    }
}
