//! Count one sibling, derive the other — and count a child only in the
//! classes its sibling shares (DESIGN.md §12b).
//!
//! A counts table is additive over any partition of a node's rows, and the
//! children `A = v` and `A ≠ v` of a binary split partition their parent's.
//! So when one batch schedules both, the scan counts one and derives the
//! other after it as `parent − sibling` ([`CountsTable::derive`]) —
//! provided the session still holds the parent's exact table. The same
//! table settles most of the counted child too: in a class its complement
//! (the rest of the parent's rows) holds no row of, every row of the parent
//! is the child's, so there the child's table *is* the parent's. The scan
//! counts such a child only in the classes its complement holds, and
//! [`CountsTable::complete`] copies the others from the parent after it.
//! This module is how the session holds the parent's table, and no longer
//! than it can serve:
//!
//! * After every batch the session remembers each exact, dense fulfilment
//!   by a `Weak` handle on the table it hands the client
//!   ([`Parents::fulfilled`]): nothing is kept alive on its account.
//! * When the client enqueues a child of such a node — a lineage extended
//!   from that very record ([`Lineage::is_parent_of`]), never one that only
//!   names the same node — the handle becomes a *pin* if counting the child
//!   costs at least the one pass over the parent's table deriving or
//!   completing does: `rows × |attrs| ≥ slots`, `rows` read off the
//!   parent's table ([`Parents::enqueued`]). Small deep nodes are never
//!   pinned.
//! * At each batch boundary every pin none of whose children is pending
//!   goes, all of them when the table's epoch has moved, and every record
//!   the last batch left unpinned ([`Parents::retain`]).
//! * An exact batch plans, for every scheduled child of a pin, how the
//!   parent's table serves it ([`Parents::plan`]): when it schedules both
//!   children of a binary split, it derives one from the other; every
//!   child it counts, it slices to the classes its complement holds — the
//!   sibling's, whether or not the client requested the sibling. The scan
//!   keeps each plan only where `RowSink::certify` proves it sound.
//!
//! The same records sharpen that proof. A child's rows are a subset of its
//! parent's, so its table holds only entries the parent's holds, and per
//! attribute no more than it has rows: when a child of a remembered node is
//! enqueued, it gets the [`EntryBound`] `Σ_a min(nonzero_parent(a), rows)`,
//! stamped with the parent's epoch, which the batch that schedules it
//! takes ([`Parents::take_bound`]) for `BatchCounter::cannot_reach_budget`.

use crate::cc::{CountsTable, SiblingEdge};
use crate::metrics::MiddlewareStats;
use crate::request::{CcRequest, Lineage, NodeId};
use crate::scheduler::ScheduledNode;
use scaleclass_sqldb::{Code, Pred};
use std::collections::{HashMap, HashSet};
use std::sync::{Arc, Weak};

/// How a batch serves one scheduled node from its parent's table; the
/// default counts it whole.
#[derive(Debug, Clone, Default)]
pub(crate) struct Plan {
    /// Derive its table after the scan instead of counting it.
    pub(crate) derive: Option<Derivation>,
    /// Count it in some classes only.
    pub(crate) slice: Option<Slice>,
}

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

/// A node its batch counts only in the classes its complement holds,
/// copying the others from its parent's table after the scan
/// ([`CountsTable::complete`]).
#[derive(Debug, Clone)]
pub(crate) struct Slice {
    /// The parent's exact table.
    pub(crate) parent: Arc<CountsTable>,
    /// Per class code: does the scan count it? Those the complement holds.
    pub(crate) counted: Vec<bool>,
    /// The node's rows per class code, read off the parent's table.
    pub(crate) rows: Vec<u64>,
    /// The table's epoch when the parent was counted.
    pub(crate) epoch: u64,
}

impl Slice {
    /// Does the scan count a row of `class`? A class past the parent's
    /// class axis is counted.
    pub(crate) fn counts(&self, class: Code) -> bool {
        self.counted
            .get(usize::from(class))
            .copied()
            .unwrap_or(true)
    }

    /// The node's rows per class, by the parent's table: `(class, rows)`
    /// for each class it holds, ascending.
    pub(crate) fn distribution(&self) -> impl Iterator<Item = (Code, u64)> + '_ {
        (0..=Code::MAX)
            .zip(self.rows.iter().copied())
            .filter(|&(_, n)| n > 0)
    }

    /// The node's classes the scan counts, ascending.
    pub(crate) fn classes(&self) -> impl Iterator<Item = Code> + '_ {
        (self.distribution())
            .map(|(class, _)| class)
            .filter(|&class| self.counts(class))
    }

    /// The node's rows in the classes the scan copies.
    #[cfg(test)]
    pub(crate) fn copied_rows(&self) -> u64 {
        (self.distribution())
            .filter(|&(class, _)| !self.counts(class))
            .map(|(_, n)| n)
            .sum()
    }
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
    /// Is one of them on a `≠` edge — are they a binary split's?
    binary: bool,
    /// Has a batch scheduled one of them yet?
    served: bool,
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
                binary: false,
                served: false,
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
        parent.binary |= matches!(req.lineage.edge(), Some(Pred::NotEq { .. }));
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

    /// A batch boundary: keep only the pins some child of which is
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
            let some = p.children.iter().any(|c| pending.contains(c));
            p.pin.is_some() && p.epoch == epoch && some
        });
        (self.bounds).retain(|node, b| b.epoch == epoch && pending.contains(node));
    }

    /// Plan a batch: per scheduled node, in plan order, how the parent's
    /// table serves it. Only an `exact` batch plans anything, and only for
    /// the children of a pin; a sampled one forgets the pins of the nodes
    /// it schedules. When it scheduled both children of a binary
    /// split, one is derived from the other when it can be ([`pair`]); every
    /// other child of a pin gets a [`Slice`] when its complement lacks one
    /// of its classes. The first batch that schedules only one of a binary
    /// split's two children counts the pair into `stats.split_pairs`.
    pub(crate) fn plan(
        &mut self,
        nodes: &[ScheduledNode],
        exact: bool,
        stats: &mut MiddlewareStats,
    ) -> Vec<Plan> {
        let mut plans = vec![Plan::default(); nodes.len()];
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
                children: enqueued,
                binary,
                served,
                ..
            }) = self.by_node.get_mut(&parent)
            else {
                continue;
            };
            let first = !std::mem::replace(served, true);
            if first && *binary && enqueued.len() == 2 && children.len() == 1 {
                stats.split_pairs += 1;
            }
            if !exact {
                // A sampled count its client escalates comes back later;
                // the table serves none of these children then either.
                self.by_node.remove(&parent);
                continue;
            }
            let derived = match children[..] {
                [a, b] => pair(table, *epoch, nodes, a, b),
                _ => None,
            };
            for &i in &children {
                let (Some(plan), Some(node)) = (plans.get_mut(i), nodes.get(i)) else {
                    continue;
                };
                match &derived {
                    Some((d, derivation)) if *d == i => plan.derive = Some(derivation.clone()),
                    _ => plan.slice = slice(table, *epoch, node),
                }
            }
        }
        plans
    }
}

/// A scheduled child's split edge: `(col, value, eq)`.
fn edge(node: &ScheduledNode) -> Option<(u16, Code, bool)> {
    let (col, value, eq) = match *node.req.lineage.edge()? {
        Pred::Eq { col, value } => (col, value, true),
        Pred::NotEq { col, value } => (col, value, false),
        _ => return None,
    };
    Some((u16::try_from(col).ok()?, value, eq))
}

/// The child `node` of the node `table` counted, per class code, by the
/// parent's table: its rows, and its complement's.
fn child_classes(table: &CountsTable, node: &ScheduledNode) -> Option<[Vec<u64>; 2]> {
    let (col, value, eq) = edge(node)?;
    let [with, all] = table.class_split(col, value)?;
    let without: Vec<u64> = all
        .iter()
        .zip(&with)
        .map(|(n, m)| n.saturating_sub(*m))
        .collect();
    Some(if eq { [with, without] } else { [without, with] })
}

/// The slice of `node`, a scheduled child of the node `table` counted: the
/// classes its complement holds. `None` unless the complement lacks a class
/// the child has, and the child counts densely over strictly ascending
/// attributes the parent's table tracks.
fn slice(table: &Arc<CountsTable>, epoch: u64, node: &ScheduledNode) -> Option<Slice> {
    let [rows, complement] = child_classes(table, node)?;
    let counted: Vec<bool> = complement.iter().map(|&n| n > 0).collect();
    let copies = rows.iter().zip(&counted).any(|(&n, &c)| n > 0 && !c);
    let eligible = node.dense && ascending(&node.req.attrs) && table.tracks(&node.req.attrs);
    (copies && eligible).then(|| Slice {
        parent: Arc::clone(table),
        counted,
        rows,
        epoch,
    })
}

/// The derivation of one of two scheduled children of the node `table`
/// counted, at positions `a` and `b` of `nodes`, with the position of the
/// child it derives. The two must sit on the edges `A = v` and `A ≠ v`.
/// The counted one is the one with fewer rows in the classes both hold —
/// the rows it ships once sliced to the classes its sibling holds — the
/// `=` child on a tie; the other is derived from it, provided both count
/// densely over strictly ascending attributes, the parent's table tracks
/// every attribute of the derived child, and the sibling every one of them
/// but — when the sibling is the `=` child — `A`.
fn pair(
    table: &Arc<CountsTable>,
    epoch: u64,
    nodes: &[ScheduledNode],
    a: usize,
    b: usize,
) -> Option<(usize, Derivation)> {
    let (col, value, a_eq) = edge(nodes.get(a)?)?;
    if edge(nodes.get(b)?)? != (col, value, !a_eq) {
        return None;
    }
    let (eq, neq) = if a_eq { (a, b) } else { (b, a) };
    let [eq_rows, neq_rows] = child_classes(table, nodes.get(eq)?)?;
    let shared = |x: &[u64], y: &[u64]| -> u64 {
        x.iter()
            .zip(y)
            .filter(|&(_, &m)| m > 0)
            .map(|(&n, _)| n)
            .sum()
    };
    let (derived, sibling, sibling_eq) =
        if shared(&eq_rows, &neq_rows) > shared(&neq_rows, &eq_rows) {
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
            parent: Arc::clone(table),
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

    /// The root of four copies of `[a, b, class]` rows in which every
    /// `a = 1` row is class 0, remembered at epoch 7, and its children
    /// `a = 1` (node 1) and `a ≠ 1` (node 2, which holds both classes),
    /// both over `a` and `b`, as the scheduler hands them out.
    fn pure_sibling() -> (Parents, Arc<CountsTable>, [ScheduledNode; 2]) {
        let rows = [
            [0, 0, 0],
            [0, 1, 1],
            [1, 0, 0],
            [1, 1, 0],
            [2, 0, 1],
            [2, 1, 1],
        ];
        let root = request(Lineage::root(NodeId(0)), vec![0, 1]);
        let mut table = CountsTable::new_dense(&[(0, 4), (1, 4)], 2);
        for row in rows.iter().cycle().take(4 * rows.len()) {
            table.add_row(row, &[0, 1], 2);
        }
        let table = Arc::new(table);
        let mut parents = Parents::default();
        parents.fulfilled(&root, &table, 7);
        let child = |id, edge| ScheduledNode {
            req: request(root.lineage.child(NodeId(id), edge), vec![0, 1]),
            est_cc_bytes: 0,
            est_data_bytes: 0,
            stage_file: false,
            stage_mem: false,
            dense: true,
        };
        let eq = child(1, Pred::Eq { col: 0, value: 1 });
        let neq = child(2, Pred::NotEq { col: 0, value: 1 });
        (parents, table, [eq, neq])
    }

    /// A lone child — its pure sibling never requested — is sliced to the
    /// sibling's class by a pin that outlives no pending child: kept while
    /// the child is pending, at the pin's epoch, and only for an exact
    /// batch. The `=` child, whose complement holds both classes, is
    /// counted whole.
    #[test]
    fn a_pin_slices_a_lone_child_to_its_siblings_classes() {
        for (pending, epoch, exact, slices) in [
            (true, 7, true, true),
            (true, 7, false, false),
            (true, 8, true, false),
            (false, 7, true, false),
        ] {
            let what = format!("pending {pending}, epoch {epoch}, exact {exact}");
            let (mut parents, _table, [_, neq]) = pure_sibling();
            parents.enqueued(&neq.req);
            let queue = if pending {
                vec![neq.req.clone()]
            } else {
                Vec::new()
            };
            parents.retain(&queue, || epoch);
            let mut stats = MiddlewareStats::new();
            let plans = parents.plan(std::slice::from_ref(&neq), exact, &mut stats);
            assert!(plans[0].derive.is_none(), "{what}");
            let slice = plans[0].slice.as_ref();
            assert_eq!(slice.is_some(), slices, "{what}");
            if let Some(slice) = slice {
                assert_eq!(slice.counted, [true, false], "{what}");
                assert_eq!(slice.rows, [4, 12], "{what}");
                assert_eq!(slice.copied_rows(), 12, "{what}");
                assert_eq!(slice.classes().collect::<Vec<_>>(), [0], "{what}");
            }
            assert_eq!(stats.split_pairs, 0, "{what}");
        }
    }

    /// Both children scheduled together: the one with fewer rows in the
    /// classes both hold is counted — `a ≠ 1`, 4 class-0 rows, though it
    /// has 16, against `a = 1`'s 8 — and sliced, the other derived.
    /// Scheduled one batch apart, the pin serves each in turn, slices the
    /// child whose complement lacks one of its classes, and counts the pair
    /// split once.
    #[test]
    fn a_pin_serves_both_children_together_or_apart() {
        let (mut parents, _table, nodes) = pure_sibling();
        for node in &nodes {
            parents.enqueued(&node.req);
        }
        let mut stats = MiddlewareStats::new();
        let plans = parents.plan(&nodes, true, &mut stats);
        let derived = plans[0].derive.as_ref().expect("a = 1 derived");
        assert_eq!((derived.sibling, derived.edge.eq), (1, false));
        assert!(plans[0].slice.is_none() && plans[1].derive.is_none());
        let slice = plans[1].slice.as_ref().expect("a ≠ 1 sliced");
        assert_eq!(
            (slice.counted.clone(), slice.rows.clone()),
            (vec![true, false], vec![4, 12])
        );
        assert_eq!(stats.split_pairs, 0);

        let (mut parents, _table, [eq, neq]) = pure_sibling();
        parents.enqueued(&eq.req);
        parents.enqueued(&neq.req);
        let queue = [eq.req.clone(), neq.req.clone()];
        parents.retain(&queue, || 7);
        let first = parents.plan(std::slice::from_ref(&eq), true, &mut stats);
        assert!(first[0].slice.is_none() && first[0].derive.is_none());
        assert_eq!(stats.split_pairs, 1);
        parents.retain(&queue[1..], || 7);
        let second = parents.plan(std::slice::from_ref(&neq), true, &mut stats);
        assert_eq!(
            second[0].slice.as_ref().map(|s| s.rows.clone()),
            Some(vec![4, 12])
        );
        assert_eq!(stats.split_pairs, 1, "a pair is split once");
        parents.retain(&[], || 7);
        assert!(
            parents.plan(std::slice::from_ref(&neq), true, &mut stats)[0]
                .slice
                .is_none()
        );
    }
}
