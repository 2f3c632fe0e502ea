//! Count one sibling, derive the other (DESIGN.md §12b).
//!
//! A counts table is additive over any partition of a node's rows, and the
//! children `A = v` and `A ≠ v` of a binary split partition their parent's.
//! So when one batch schedules both, the scan counts the child with fewer
//! rows and derives the other after it as `parent − sibling`
//! ([`CountsTable::derive`]) — provided the session still holds the
//! parent's exact table. This module is how it holds one, and no longer
//! than it can serve:
//!
//! * After every batch the session remembers each exact, dense fulfilment
//!   by a `Weak` handle on the table it hands the client
//!   ([`Parents::fulfilled`]): nothing is kept alive on its account.
//! * When the client enqueues a child of such a node — a lineage extended
//!   from that very record ([`Lineage::is_parent_of`]), never one that only
//!   names the same node — the handle becomes a *pin* if counting the child
//!   costs at least the one pass over the parent's table deriving does:
//!   `rows × |attrs| ≥ slots`, `rows` read off the parent's table
//!   ([`Parents::enqueued`]). Small deep nodes are never pinned.
//! * At each batch boundary every pin whose two children are not both
//!   pending goes, all of them when the table's epoch has moved, and every
//!   record the last batch left unpinned ([`Parents::retain`]).
//! * A batch that schedules both children of a pin, exactly, plans the
//!   larger one's derivation when it can be derived ([`Parents::plan`]);
//!   the scan keeps the plan only where `RowSink::certify` proves it sound.
//!
//! The same records sharpen that proof. A child's rows are a subset of its
//! parent's, so its table holds only entries the parent's holds, and per
//! attribute no more than it has rows: when a child of a remembered node is
//! enqueued, it gets the [`EntryBound`] `Σ_a min(nonzero_parent(a), rows)`,
//! stamped with the parent's epoch, which the batch that schedules it
//! takes ([`Parents::take_bound`]) for `BatchCounter::cannot_reach_budget`.

use crate::cc::{CountsTable, SiblingEdge};
use crate::request::{CcRequest, Lineage, NodeId};
use crate::scheduler::ScheduledNode;
use scaleclass_sqldb::Pred;
use std::collections::{HashMap, HashSet};
use std::sync::{Arc, Weak};

/// A node its batch derives after the scan instead of counting it.
#[derive(Debug, Clone)]
pub(crate) struct Derivation {
    /// The parent's exact table.
    pub(crate) parent: Arc<CountsTable>,
    /// The counted sibling's index in the batch.
    pub(crate) sibling: usize,
    /// Where the sibling sits in the parent's split.
    pub(crate) edge: SiblingEdge,
    /// The table's epoch when the parent was counted.
    pub(crate) epoch: u64,
}

/// The most entries a child's table can hold, by its parent's exact table
/// (module docs) — sound only while the source table is at `epoch`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct EntryBound {
    /// `Σ_{a ∈ attrs} min(nonzero_parent(a), rows_child)`.
    pub(crate) entries: u64,
    /// The table's epoch when the parent was counted.
    pub(crate) epoch: u64,
}

/// The session's exact parent tables, by node, and the entry bounds of
/// their pending children (module docs).
#[derive(Default)]
pub(crate) struct Parents {
    by_node: HashMap<NodeId, Parent>,
    bounds: HashMap<NodeId, EntryBound>,
}

/// One exact, dense fulfilment.
struct Parent {
    lineage: Lineage,
    table: Weak<CountsTable>,
    /// The table itself, once a child's counting costs a pass over it.
    pin: Option<Arc<CountsTable>>,
    /// The table's epoch when the node was counted.
    epoch: u64,
    /// The children enqueued under it.
    children: Vec<NodeId>,
    /// The table's non-zero entries per attribute
    /// ([`CountsTable::entries_by_attr`]), once a child asked.
    entries: Option<Vec<(u16, u64)>>,
}

impl Parents {
    /// Remember an exact fulfilment of `req`, counted at `epoch`, if its
    /// table is dense over strictly ascending attributes.
    pub(crate) fn fulfilled(&mut self, req: &CcRequest, table: &Arc<CountsTable>, epoch: u64) {
        if table.is_dense() && ascending(&req.attrs) {
            let parent = Parent {
                lineage: req.lineage.clone(),
                table: Arc::downgrade(table),
                pin: None,
                epoch,
                children: Vec::new(),
                entries: None,
            };
            self.by_node.insert(req.node(), parent);
        }
    }

    /// Note an enqueued request: if it is a child of a remembered node
    /// whose table is still held, record it there with its entry bound, and
    /// pin the node's table when counting the child costs at least a pass
    /// over it.
    pub(crate) fn enqueued(&mut self, req: &CcRequest) {
        let Some(parent) = self.parent_of(&req.lineage) else {
            return;
        };
        parent.children.push(req.node());
        let Some(table) = parent.table.upgrade() else {
            return;
        };
        let with =
            |col: usize, value| u16::try_from(col).map_or(0, |c| table.rows_with_value(c, value));
        let rows = match req.lineage.edge() {
            Some(&Pred::Eq { col, value }) => with(col, value),
            Some(&Pred::NotEq { col, value }) => table.total().saturating_sub(with(col, value)),
            _ => return,
        };
        let entries = parent
            .entries
            .get_or_insert_with(|| table.entries_by_attr());
        let in_parent = |attr: &u16| {
            let i = entries.binary_search_by_key(attr, |&(a, _)| a).ok();
            i.and_then(|i| entries.get(i))
                .map_or(rows, |&(_, n)| n.min(rows))
        };
        let bound = EntryBound {
            entries: req.attrs.iter().map(in_parent).sum(),
            epoch: parent.epoch,
        };
        let attrs = u64::try_from(req.attrs.len()).unwrap_or(u64::MAX);
        if parent.pin.is_none() && rows.saturating_mul(attrs) >= table.dense_slots() {
            parent.pin = Some(table);
        }
        self.bounds.insert(req.node(), bound);
    }

    /// The entry bound recorded for `node`, handed to the batch that
    /// schedules it.
    pub(crate) fn take_bound(&mut self, node: NodeId) -> Option<EntryBound> {
        self.bounds.remove(&node)
    }

    /// Entry bounds recorded and not yet handed to a batch.
    #[cfg(test)]
    pub(crate) fn pending_bounds(&self) -> usize {
        self.bounds.len()
    }

    /// The record `child` was extended from, if remembered.
    fn parent_of(&mut self, child: &Lineage) -> Option<&mut Parent> {
        let parent = self.by_node.get_mut(&child.parent()?)?;
        parent.lineage.is_parent_of(child).then_some(parent)
    }

    /// A batch boundary: keep only the pins both of whose children are
    /// pending, and the bounds of pending children, counted at the table's
    /// current `epoch` (read only when some pin or bound is left to check).
    pub(crate) fn retain(&mut self, pending: &[CcRequest], epoch: impl FnOnce() -> u64) {
        if self.bounds.is_empty() && !self.by_node.values().any(|p| p.pin.is_some()) {
            self.by_node.clear();
            return;
        }
        let epoch = epoch();
        let pending: HashSet<NodeId> = pending.iter().map(CcRequest::node).collect();
        self.by_node.retain(|_, p| {
            let both =
                matches!(p.children[..], [a, b] if pending.contains(&a) && pending.contains(&b));
            p.pin.is_some() && p.epoch == epoch && both
        });
        (self.bounds).retain(|node, b| b.epoch == epoch && pending.contains(node));
    }

    /// Plan a batch's derivations: per scheduled node, in plan order, how
    /// the batch derives it — `None` to count it. Only an `exact` batch
    /// derives, and only the larger child of a pinned node both of whose
    /// children it scheduled (`pair`). Every remembered node with a child
    /// in the batch is forgotten: once one child is scanned, the table can
    /// serve neither.
    pub(crate) fn plan(&mut self, nodes: &[ScheduledNode], exact: bool) -> Vec<Option<Derivation>> {
        let mut plans = vec![None; nodes.len()];
        if self.by_node.is_empty() {
            return plans;
        }
        let mut scheduled: HashMap<NodeId, Vec<usize>> = HashMap::new();
        for (i, node) in nodes.iter().enumerate() {
            let lineage = &node.req.lineage;
            let remembered = |id: &NodeId| {
                (self.by_node.get(id)).is_some_and(|p| p.lineage.is_parent_of(lineage))
            };
            if let Some(parent) = lineage.parent().filter(remembered) {
                scheduled.entry(parent).or_default().push(i);
            }
        }
        for (parent, children) in scheduled {
            let Some(Parent {
                pin: Some(table),
                epoch,
                ..
            }) = self.by_node.remove(&parent)
            else {
                continue;
            };
            let (true, &[a, b]) = (exact, children.as_slice()) else {
                continue;
            };
            if let Some((derived, plan)) = pair(table, epoch, nodes, a, b) {
                if let Some(slot) = plans.get_mut(derived) {
                    *slot = Some(plan);
                }
            }
        }
        plans
    }
}

/// The derivation of one of two scheduled children of the node `table`
/// counted, at positions `a` and `b` of `nodes`, with the position of the
/// child it derives. The two must sit on the edges `A = v` and `A ≠ v`;
/// the one with more rows by the parent's table is derived from the other,
/// provided both count densely over strictly ascending attributes, the
/// parent's table tracks every attribute of the derived child, and the
/// sibling every one of them but — when the sibling is the `=` child — `A`.
fn pair(
    table: Arc<CountsTable>,
    epoch: u64,
    nodes: &[ScheduledNode],
    a: usize,
    b: usize,
) -> Option<(usize, Derivation)> {
    let split = |i: usize| match *nodes.get(i)?.req.lineage.edge()? {
        Pred::Eq { col, value } => Some((col, value, true)),
        Pred::NotEq { col, value } => Some((col, value, false)),
        _ => None,
    };
    let (col, value, a_eq) = split(a)?;
    if split(b)? != (col, value, !a_eq) {
        return None;
    }
    let col = u16::try_from(col).ok()?;
    let eq_rows = table.rows_with_value(col, value);
    let (eq, neq) = if a_eq { (a, b) } else { (b, a) };
    let (derived, sibling, sibling_eq) = if eq_rows > table.total().saturating_sub(eq_rows) {
        (eq, neq, false)
    } else {
        (neq, eq, true)
    };
    let (d, s) = (nodes.get(derived)?, nodes.get(sibling)?);
    let sibling_tracks = |attr: &u16| s.req.attrs.contains(attr) || (sibling_eq && *attr == col);
    let derivable = d.dense
        && s.dense
        && ascending(&d.req.attrs)
        && ascending(&s.req.attrs)
        && table.tracks(&d.req.attrs)
        && d.req.attrs.iter().all(sibling_tracks);
    let edge = SiblingEdge {
        col,
        value,
        eq: sibling_eq,
    };
    derivable.then(|| {
        let plan = Derivation {
            parent: table,
            sibling,
            edge,
            epoch,
        };
        (derived, plan)
    })
}

/// Strictly ascending — so no attribute is counted twice.
fn ascending(attrs: &[u16]) -> bool {
    attrs.windows(2).all(|w| w[0] < w[1])
}

#[cfg(test)]
mod tests {
    use super::*;
    use scaleclass_sqldb::Code;

    /// The root's rows, `[a, b, class]`: its table holds five entries in
    /// `a` and three in `b`; two rows have `a = 1`, four `a ≠ 1`.
    const ROWS: [[Code; 3]; 6] = [
        [0, 0, 0],
        [0, 1, 1],
        [1, 0, 0],
        [1, 1, 1],
        [2, 0, 0],
        [2, 1, 0],
    ];

    fn request(lineage: Lineage, attrs: Vec<u16>) -> CcRequest {
        let parent_cards = vec![4; attrs.len()];
        CcRequest {
            lineage,
            attrs,
            class_col: 2,
            rows: 0,
            parent_rows: 0,
            parent_cards,
        }
    }

    /// The root's exact table, remembered at epoch 7, and its children
    /// `a = 1` (node 1, over `b`) and `a ≠ 1` (node 2, over both) enqueued
    /// under it, with a node 3 on `a = 2` whose lineage only names the
    /// root. The table is returned so that the caller still holds it.
    fn enqueued() -> (Parents, Arc<CountsTable>, [CcRequest; 3]) {
        let root = request(Lineage::root(NodeId(0)), vec![0, 1]);
        let mut table = CountsTable::new_dense(&[(0, 4), (1, 4)], 2);
        for row in &ROWS {
            table.add_row(row, &[0, 1], 2);
        }
        let table = Arc::new(table);
        let mut parents = Parents::default();
        parents.fulfilled(&root, &table, 7);
        let child = |id, edge| root.lineage.child(NodeId(id), edge);
        let eq = request(child(1, Pred::Eq { col: 0, value: 1 }), vec![1]);
        let neq = request(child(2, Pred::NotEq { col: 0, value: 1 }), vec![0, 1]);
        let stranger = Lineage::root(NodeId(0)).child(NodeId(3), Pred::Eq { col: 0, value: 2 });
        let stranger = request(stranger, vec![0, 1]);
        for req in [&eq, &neq, &stranger] {
            parents.enqueued(req);
        }
        (parents, table, [eq, neq, stranger])
    }

    /// Per attribute, a child holds at most the entries its parent holds
    /// there and one per row: `a = 1` min(3, 2) in `b`; `a ≠ 1` min(5, 4)
    /// in `a` and min(3, 4) in `b`. A node its lineage does not extend from
    /// the parent's record gets no bound.
    #[test]
    fn a_child_is_bounded_by_its_parents_entries_and_its_rows() {
        let (mut parents, _table, _) = enqueued();
        assert_eq!(parents.pending_bounds(), 2);
        let bound = |entries| Some(EntryBound { entries, epoch: 7 });
        assert_eq!(parents.take_bound(NodeId(1)), bound(2));
        assert_eq!(parents.take_bound(NodeId(2)), bound(4 + 3));
        assert_eq!(parents.take_bound(NodeId(3)), None);
        assert_eq!(parents.pending_bounds(), 0);
    }

    /// A batch boundary keeps the bounds of pending nodes at the epoch
    /// their parent was counted at, and drops the rest.
    #[test]
    fn a_batch_boundary_drops_the_bounds_of_nodes_not_pending_or_past_their_epoch() {
        for (pending, epoch, kept) in [
            (&[0, 1][..], 7, [true, true]),
            (&[1], 7, [false, true]),
            (&[0, 1], 8, [false, false]),
        ] {
            let (mut parents, _table, reqs) = enqueued();
            let pending: Vec<CcRequest> = pending.iter().map(|&i| reqs[i].clone()).collect();
            parents.retain(&pending, || epoch);
            for (id, kept) in [1, 2].into_iter().zip(kept) {
                let what = format!("node {id}, epoch {epoch}");
                assert_eq!(parents.take_bound(NodeId(id)).is_some(), kept, "{what}");
            }
        }
    }
}
