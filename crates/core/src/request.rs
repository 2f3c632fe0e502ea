//! Client requests and node lineage.
//!
//! The client's only interface to the data (Figure 3): it queues one
//! [`CcRequest`] per active tree node and later consumes fulfilled counts
//! tables. A request carries everything the middleware's estimator needs
//! (§4.2.1) — the node's data size (read off the parent's CC table: exact
//! under exact counts, scaled up under sampled ones) and the parent-level
//! attribute cardinalities — plus the node's [`Lineage`] so the scheduler
//! can find staged data of ancestors.
//!
//! **Lineages are shared, not copied.** A node's data is a view over its
//! parent's, and its lineage has that shape: a reference-counted record
//! (node id, full path predicate, depth) linked to its parent's record, up
//! to the root. [`Lineage::child`] builds one record — its path predicate
//! once, O(depth) — and links it to the parent's, so a child costs the
//! same allocations at any depth and a `clone` costs a reference count.
//! Records never change once built, so every request of a frontier, every
//! staged set and the client's open-node map share one copy of each
//! ancestor. A record lives as long as the deepest lineage through it;
//! dropping the last holder of a chain frees the records no other lineage
//! reaches one link at a time, never recursively, so a chain of any depth
//! drops without growing the stack.

use scaleclass_sqldb::Pred;
use std::fmt;
use std::sync::Arc;

/// Identifier of a client tree node. Allocation is the client's business;
/// the middleware treats these as opaque.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub u64);

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// Where a node's relevant data currently lives — the `S` / `I` / `L`
/// prefixes of Figure 1.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DataLocation {
    /// Must be scanned at the database server.
    Server,
    /// Staged in a middleware file (identified by staging-manager id).
    File(u64),
    /// Staged in middleware memory (identified by staging-manager id).
    Memory(u64),
}

impl DataLocation {
    /// The paper's one-letter tag (Figure 1).
    pub fn tag(&self) -> char {
        match self {
            DataLocation::Server => 'S',
            DataLocation::File(_) => 'I',
            DataLocation::Memory(_) => 'L',
        }
    }

    /// Rule 1 priority: higher is scheduled first
    /// (In-Memory Scan > Middleware File Scan > Server Scan).
    pub fn priority(&self) -> u8 {
        match self {
            DataLocation::Memory(_) => 2,
            DataLocation::File(_) => 1,
            DataLocation::Server => 0,
        }
    }
}

impl fmt::Display for DataLocation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DataLocation::Server => write!(f, "S"),
            DataLocation::File(id) => write!(f, "I({id})"),
            DataLocation::Memory(id) => write!(f, "L({id})"),
        }
    }
}

/// The chain of ancestors from the root down to (and including) a node,
/// each with its *full path predicate* (the conjunction of edge predicates
/// from the root, §4.3.1), shared with every other lineage through the
/// same ancestors (module docs).
#[derive(Clone)]
pub struct Lineage {
    link: Arc<Link>,
}

/// One node's record in a lineage chain.
struct Link {
    node: NodeId,
    /// The node's full path predicate.
    pred: Pred,
    depth: usize,
    parent: Option<Arc<Link>>,
}

impl Drop for Link {
    /// Free the ancestors this record was the last holder of one at a
    /// time, instead of recursing through the chain.
    fn drop(&mut self) {
        let mut parent = self.parent.take();
        while let Some(link) = parent {
            parent = Arc::into_inner(link).and_then(|mut sole| sole.parent.take());
        }
    }
}

/// The conjunction of a parent's path predicate and an edge: `Pred::and`
/// of the parent's terms, cloned straight into one vector, and the edge —
/// the same allocations at any depth.
fn conjoin(parent: &Pred, edge: Pred) -> Pred {
    let head = match parent {
        Pred::True => &[],
        Pred::And(terms) => terms.as_slice(),
        term => std::slice::from_ref(term),
    };
    let mut terms = Vec::with_capacity(head.len() + 1);
    terms.extend_from_slice(head);
    terms.push(edge);
    Pred::and(terms)
}

impl Lineage {
    /// Lineage of a root node (predicate `TRUE`).
    pub fn root(node: NodeId) -> Self {
        Lineage {
            link: Arc::new(Link {
                node,
                pred: Pred::True,
                depth: 0,
                parent: None,
            }),
        }
    }

    /// Extend with a child: the child's path predicate is this node's
    /// predicate AND the edge predicate.
    pub fn child(&self, node: NodeId, edge: Pred) -> Self {
        Lineage {
            link: Arc::new(Link {
                node,
                pred: conjoin(self.pred(), edge),
                depth: self.depth() + 1,
                parent: Some(Arc::clone(&self.link)),
            }),
        }
    }

    /// The node itself.
    pub fn node(&self) -> NodeId {
        self.link.node
    }

    /// The node's full path predicate.
    pub fn pred(&self) -> &Pred {
        &self.link.pred
    }

    /// Depth (root = 0).
    pub fn depth(&self) -> usize {
        self.link.depth
    }

    /// The parent's node id; `None` for a root.
    pub fn parent(&self) -> Option<NodeId> {
        self.link.parent.as_ref().map(|parent| parent.node)
    }

    /// Was `child` extended from this very lineage — the record
    /// [`Lineage::child`] linked it to, not merely one with the same node
    /// id and predicate?
    pub fn is_parent_of(&self, child: &Lineage) -> bool {
        (child.link.parent.as_ref()).is_some_and(|parent| Arc::ptr_eq(parent, &self.link))
    }

    /// The edge predicate [`Lineage::child`] conjoined to the parent's
    /// path predicate, when it added exactly one term. `None` for a root
    /// and for an edge that added no term (`TRUE`) or several.
    pub fn edge(&self) -> Option<&Pred> {
        let parent = self.link.parent.as_deref()?;
        let terms = |pred: &Pred| match pred {
            Pred::True => 0,
            Pred::And(terms) => terms.len(),
            _ => 1,
        };
        if terms(&self.link.pred) != terms(&parent.pred) + 1 {
            return None;
        }
        match &self.link.pred {
            Pred::And(terms) => terms.last(),
            edge => Some(edge),
        }
    }

    /// Does this lineage pass through `ancestor` (inclusive of self)?
    pub fn contains(&self, ancestor: NodeId) -> bool {
        self.entries().any(|(id, _)| id == ancestor)
    }

    /// The node and its ancestors, from the node up to the root: `(id,
    /// path predicate)` pairs.
    pub fn entries(&self) -> impl Iterator<Item = (NodeId, &Pred)> {
        self.links().map(|link| (link.node, &link.pred))
    }

    /// The records of [`Lineage::entries`].
    fn links(&self) -> impl Iterator<Item = &Link> {
        std::iter::successors(Some(&*self.link), |link| link.parent.as_deref())
    }

    /// Path predicate of a specific ancestor, if on this lineage.
    pub fn pred_of(&self, ancestor: NodeId) -> Option<&Pred> {
        self.entries()
            .find(|&(id, _)| id == ancestor)
            .map(|(_, p)| p)
    }

    /// The deepest node present in *all* of the given lineages (their least
    /// common ancestor): the deepest depth at which, and at every depth
    /// above which, they all name the same node. `None` when the slice is
    /// empty or they disagree on the root.
    pub fn common_ancestor(lineages: &[&Lineage]) -> Option<NodeId> {
        let depth = lineages.iter().map(|l| l.depth()).min()?;
        // Every lineage's record at the shallowest depth, then up in step.
        let mut links: Vec<&Link> = lineages
            .iter()
            .filter_map(|l| l.links().nth(l.depth() - depth))
            .collect();
        let mut lca = None;
        loop {
            let node = links.first()?.node;
            lca = links
                .iter()
                .all(|l| l.node == node)
                .then(|| lca.unwrap_or(node));
            for link in &mut links {
                match link.parent.as_deref() {
                    Some(parent) => *link = parent,
                    None => return lca,
                }
            }
        }
    }
}

impl PartialEq for Lineage {
    /// Node for node and predicate for predicate, along the whole chain.
    fn eq(&self, other: &Self) -> bool {
        self.entries().eq(other.entries())
    }
}

impl Eq for Lineage {}

impl fmt::Debug for Lineage {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Lineage")
            .field("node", &self.node())
            .field("depth", &self.depth())
            .field("pred", self.pred())
            .finish()
    }
}

/// A request for the counts table of one active node.
#[derive(Debug, Clone)]
pub struct CcRequest {
    /// The node's ancestry and path predicate.
    pub lineage: Lineage,
    /// Attribute columns still present at this node (class column excluded).
    pub attrs: Vec<u16>,
    /// Class column index.
    pub class_col: u16,
    /// Rows at this node as the client read them off the parent's CC table
    /// (§4.2.1 — "hence memory load requirements are known"): exact under
    /// an exact parent, a scaled estimate after a sampled accept (the
    /// client scales the sample's counts up by its fraction). The
    /// scheduler sizes batches by it; nothing that must be exact reads it.
    pub rows: u64,
    /// Rows at the parent, on the same terms as `rows`.
    pub parent_rows: u64,
    /// `card(p_i, A_j)` for each entry of `attrs`: the number of distinct
    /// values of the attribute observed at the parent.
    pub parent_cards: Vec<u64>,
}

impl CcRequest {
    /// The node this request is for.
    pub fn node(&self) -> NodeId {
        self.lineage.node()
    }

    /// The node's path predicate (the request's WHERE clause).
    pub fn pred(&self) -> &Pred {
        self.lineage.pred()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn eq(col: usize, value: u16) -> Pred {
        Pred::Eq { col, value }
    }

    #[test]
    fn lineage_accumulates_conjunction() {
        let root = Lineage::root(NodeId(0));
        assert_eq!(root.pred(), &Pred::True);
        assert_eq!(root.depth(), 0);
        let child = root.child(NodeId(1), eq(0, 2));
        assert_eq!(child.pred(), &eq(0, 2));
        let grand = child.child(NodeId(2), eq(1, 0));
        assert_eq!(grand.depth(), 2);
        match grand.pred() {
            Pred::And(terms) => assert_eq!(terms.len(), 2),
            other => panic!("expected conjunction, got {other}"),
        }
        assert!(grand.contains(NodeId(0)));
        assert!(grand.contains(NodeId(2)));
        assert!(!grand.contains(NodeId(7)));
    }

    #[test]
    fn pred_of_finds_ancestor_predicates() {
        let l = Lineage::root(NodeId(0))
            .child(NodeId(1), eq(0, 1))
            .child(NodeId(2), eq(1, 1));
        assert_eq!(l.pred_of(NodeId(0)), Some(&Pred::True));
        assert_eq!(l.pred_of(NodeId(1)), Some(&eq(0, 1)));
        assert!(l.pred_of(NodeId(9)).is_none());
    }

    /// Parenthood is record identity: a lineage rebuilt from fresh records
    /// names the same nodes and predicates and is still no child of the
    /// original.
    #[test]
    fn is_parent_of_compares_records_not_ids() {
        let root = Lineage::root(NodeId(0));
        let a = root.child(NodeId(1), eq(0, 2));
        let a1 = a.child(NodeId(3), Pred::NotEq { col: 1, value: 0 });
        assert!(root.is_parent_of(&a) && a.is_parent_of(&a1));
        assert!(!root.is_parent_of(&a1), "a grandchild");
        assert!(!a.is_parent_of(&root) && !a.is_parent_of(&a));
        let rebuilt = Lineage::root(NodeId(0)).child(NodeId(1), eq(0, 2));
        assert_eq!(rebuilt, a, "same nodes, same predicates");
        assert!(!root.is_parent_of(&rebuilt));
        assert_eq!(a1.parent(), Some(NodeId(1)));
        assert_eq!(root.parent(), None);
    }

    #[test]
    fn edge_is_the_one_term_a_child_added() {
        let root = Lineage::root(NodeId(0));
        assert_eq!(root.edge(), None);
        let a = root.child(NodeId(1), eq(0, 2));
        assert_eq!(a.edge(), Some(&eq(0, 2)));
        let ne = Pred::NotEq { col: 1, value: 0 };
        let a1 = a.child(NodeId(2), ne.clone());
        assert_eq!(a1.edge(), Some(&ne));
        assert_eq!(a1.child(NodeId(3), eq(2, 1)).edge(), Some(&eq(2, 1)));
        assert_eq!(a1.child(NodeId(4), Pred::True).edge(), None, "no term");
        let two = Pred::And(vec![eq(2, 1), eq(3, 1)]);
        assert_eq!(a1.child(NodeId(5), two).edge(), None, "two terms");
        assert_eq!(a1.child(NodeId(6), Pred::False).edge(), None);
    }

    #[test]
    fn common_ancestor_of_siblings_is_parent() {
        let root = Lineage::root(NodeId(0));
        let a = root.child(NodeId(1), eq(0, 0));
        let b = root.child(NodeId(2), eq(0, 1));
        let a1 = a.child(NodeId(3), eq(1, 0));
        assert_eq!(Lineage::common_ancestor(&[&a, &b]), Some(NodeId(0)));
        assert_eq!(Lineage::common_ancestor(&[&a, &a1]), Some(NodeId(1)));
        assert_eq!(Lineage::common_ancestor(&[&a1]), Some(NodeId(3)));
        assert_eq!(Lineage::common_ancestor(&[]), None);
    }

    #[test]
    fn location_tags_and_priority() {
        assert_eq!(DataLocation::Server.tag(), 'S');
        assert_eq!(DataLocation::File(3).tag(), 'I');
        assert_eq!(DataLocation::Memory(1).tag(), 'L');
        assert!(DataLocation::Memory(0).priority() > DataLocation::File(0).priority());
        assert!(DataLocation::File(0).priority() > DataLocation::Server.priority());
        assert_eq!(DataLocation::File(3).to_string(), "I(3)");
    }
}
