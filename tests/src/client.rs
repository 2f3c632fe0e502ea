//! A client that grows a tree through a [`Middleware`] batch by batch,
//! extending each child's lineage from its parent's — as
//! `grow_with_middleware` does — or rebuilding it from fresh records. A
//! rebuilt lineage is never the child of its parent's record
//! (`Lineage::is_parent_of`), so that client neither derives a sibling nor
//! slices a child (DESIGN.md §12b): it counts every class of every node,
//! as the paper's middleware does, and is the reference for both.

use scaleclass::{CcRequest, CountsTable, Lineage, Middleware, MiddlewareStats, MwResult, NodeId};
use scaleclass_dtree::grow::immediate_leaf;
use scaleclass_dtree::{
    decide, derive_children, Decision, DecisionTree, GrowConfig, NodeState, TreeNode,
};
use scaleclass_sqldb::Pred;
use std::collections::{BTreeMap, HashMap};

/// One fulfilled node as the client read it.
#[derive(Debug, PartialEq)]
pub struct Counted {
    /// The node's counts table.
    pub cc: CountsTable,
    /// Was it counted densely?
    pub dense: bool,
    /// The node's path.
    pub pred: Pred,
    /// The attributes it was decided over.
    pub attrs: Vec<u16>,
    /// Fulfilled after the build's mutation, if it had one.
    pub after_mutation: bool,
}

/// What one build left behind.
pub struct Build {
    /// The grown tree.
    pub tree: DecisionTree,
    /// Every fulfilled node, by id.
    pub counted: BTreeMap<u64, Counted>,
    /// The middleware's counters after the build.
    pub stats: MiddlewareStats,
    /// The middleware's counters before the build and after each batch.
    pub batches: Vec<MiddlewareStats>,
    /// Rows the server shipped during the build.
    pub shipped: u64,
    /// Sequential scans the server ran during the build.
    pub scans: u64,
}

/// A requested node: its lineage, the edges from the root down to it, and
/// the attributes it is decided over.
struct Open {
    lineage: Lineage,
    path: Vec<(NodeId, Pred)>,
    attrs: Vec<u16>,
}

/// A lineage through `path` made of fresh records.
fn rebuilt(path: &[(NodeId, Pred)]) -> Lineage {
    (path.iter()).fold(Lineage::root(NodeId(0)), |l, (id, edge)| {
        l.child(*id, edge.clone())
    })
}

/// Grow a tree through `mw` with children extended from their parent's
/// lineage (`linked`) or from a rebuilt one. `between` runs once,
/// after the root's batch and before its children's.
pub fn grow(
    mw: &mut Middleware,
    linked: bool,
    mut between: impl FnMut(&mut Middleware),
) -> MwResult<Build> {
    let config = GrowConfig::default();
    let server = mw.db_stats();
    let class_col = mw.class_col();
    let root = mw.root_request(NodeId(0));
    let mut tree = DecisionTree::new();
    tree.push(TreeNode {
        id: 0,
        parent: None,
        edge: None,
        depth: 0,
        state: NodeState::Active,
        class_counts: Vec::new(),
        rows: root.rows,
        children: Vec::new(),
        source: None,
    });
    let (lineage, attrs) = (root.lineage.clone(), root.attrs.clone());
    let mut open = HashMap::from([(
        0,
        Open {
            lineage,
            path: Vec::new(),
            attrs,
        },
    )]);
    mw.enqueue(root)?;
    let mut counted = BTreeMap::new();
    let mut batches = vec![*mw.stats()];
    let mut mutated = false;
    while mw.has_pending() {
        let batch = mw.process_next_batch()?;
        batches.push(*mw.stats());
        let after_mutation = mutated;
        if !mutated {
            between(mw);
            mutated = true;
        }
        for f in batch {
            let idx = f.node.0 as usize;
            let Open {
                lineage,
                path,
                attrs,
            } = open.remove(&idx).expect("requested");
            let depth = tree.node(idx).depth;
            let node = tree.node_mut(idx);
            node.class_counts = f.cc.class_distribution().collect();
            node.rows = f.cc.total();
            let decision = decide(&f.cc, &attrs, depth, &config);
            let specs = match &decision {
                Decision::Leaf { .. } => Vec::new(),
                Decision::Split(split) => derive_children(&f.cc, split, &attrs),
            };
            tree.node_mut(idx).state = match decision {
                Decision::Leaf { class } => NodeState::Leaf { class },
                Decision::Split(split) => NodeState::Partitioned { split },
            };
            for spec in specs {
                let leaf = immediate_leaf(&spec, depth + 1, &config);
                let state = match leaf {
                    true => NodeState::Leaf {
                        class: spec.majority_class(),
                    },
                    false => NodeState::Active,
                };
                let child = tree.push(TreeNode {
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
                if leaf {
                    continue;
                }
                let id = NodeId(child as u64);
                let edge = spec.edge_pred.clone();
                let lineage = match linked {
                    true => lineage.child(id, edge.clone()),
                    false => rebuilt(&path).child(id, edge.clone()),
                };
                let mut path = path.clone();
                path.push((id, edge));
                mw.enqueue(CcRequest {
                    lineage: lineage.clone(),
                    attrs: spec.attrs.clone(),
                    class_col,
                    rows: spec.rows,
                    parent_rows: f.cc.total(),
                    parent_cards: spec.parent_cards,
                })?;
                open.insert(
                    child,
                    Open {
                        lineage,
                        path,
                        attrs: spec.attrs,
                    },
                );
            }
            let counts = Counted {
                cc: (*f.cc).clone(),
                dense: f.cc.is_dense(),
                pred: lineage.pred().clone(),
                attrs,
                after_mutation,
            };
            counted.insert(f.node.0, counts);
        }
    }
    // As the library's loop does: the drained queue flushes the last
    // subtree's staged sets.
    mw.flush_unreachable();
    let server = mw.db_stats() - server;
    Ok(Build {
        tree,
        counted,
        stats: *mw.stats(),
        batches,
        shipped: server.rows_shipped,
        scans: server.seq_scans,
    })
}
