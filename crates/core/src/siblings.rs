//! Count each class of a sibling pair on one side, derive it on the other
//! — and count a child only in the classes its sibling shares (DESIGN.md
//! §12b).
//!
//! A counts table is additive over any partition of a node's rows, and the
//! children `A = v` and `A ≠ v` of a binary split partition their parent's
//! — class by class too. So when one batch schedules both, the scan counts
//! each class they share on one side and takes it on the other as
//! `parent − sibling` after the scan, provided the session still holds the
//! parent's exact table ([`CountsTable::complete`]). The same table
//! settles the classes only one child holds: there every row of the parent
//! is that child's, so its table *is* the parent's, and
//! [`CountsTable::complete`] copies it after the scan — unless the child
//! counts none of its classes: then it is derived whole, each class it
//! holds taken from its sibling, which in a class the sibling lacks is the
//! parent's. This module is how the session holds the parent's table, and
//! no longer than it can serve:
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
//! * When its scan certifies, a batch plans, for every scheduled
//!   child of a pin, how the parent's table serves it, class by class
//!   ([`Parents::plan`]): when it schedules both children of a binary
//!   split, a server scan counts each class they share on the side that
//!   ships fewer of its rows, and every other batch on one side
//!   throughout; every other child it slices to the classes its complement
//!   holds — the sibling's, whether or not the client requested the
//!   sibling: it is a side whose sibling the batch did not schedule. A
//!   plan is made only where the scan can keep it — at the parent's epoch,
//!   its certificate inside every layout the plan reads or counts into —
//!   and kept only where `BatchCounter::certify` proves the scan cannot reach
//!   the budget.
//!
//! The same records sharpen that proof. A child's rows are a subset of its
//! parent's, so its table holds only entries the parent's holds, and per
//! attribute no more than it has rows: when a child of a remembered node is
//! enqueued, it gets the [`EntryBound`] `Σ_a min(nonzero_parent(a), rows)`,
//! stamped with the parent's epoch, which the batch that schedules it
//! takes ([`Parents::take_bound`]) for `BatchCounter::cannot_reach_budget`.

use crate::cc::{ClassSource, CountsTable, SiblingEdge};
use crate::executor::NodeCounter;
use crate::metrics::MiddlewareStats;
use crate::request::{CcRequest, Lineage, NodeId};
use scaleclass_sqldb::{Code, Pred};
use std::cmp::Ordering;
use std::collections::{HashMap, HashSet};
use std::sync::{Arc, Weak};

/// How a batch serves one scheduled node from its parent's table, class by
/// class: each class is counted by the scan, taken from the parent's table
/// less the counted sibling's, or copied from the parent's table
/// ([`CountsTable::complete`]). A node that takes classes from a sibling
/// and counts none it holds is derived whole: the scan skips it. A node
/// without a plan is counted in every class.
#[derive(Debug, Clone)]
pub(crate) struct Plan {
    /// The parent's exact table.
    pub(crate) parent: Arc<CountsTable>,
    /// Per class code, where the node's counts in it come from.
    pub(crate) sources: Vec<ClassSource>,
    /// The node's rows per class code, read off the parent's table.
    pub(crate) rows: Vec<u64>,
    /// The sibling it takes [`ClassSource::Sibling`] classes from: its
    /// index in the batch, and where it sits in the parent's split.
    pub(crate) sibling: Option<(usize, SiblingEdge)>,
}

impl Plan {
    /// Where the node's counts in `class` come from. A class past the
    /// parent's class axis is counted.
    fn source(&self, class: Code) -> ClassSource {
        (self.sources.get(usize::from(class)).copied()).unwrap_or(ClassSource::Counted)
    }

    /// Does the scan count a row of `class`?
    pub(crate) fn counts(&self, class: Code) -> bool {
        self.source(class) == ClassSource::Counted
    }

    /// Is the node derived whole from its sibling — no class it holds
    /// counted?
    pub(crate) fn derives_whole(&self) -> bool {
        self.sibling.is_some() && self.classes().next().is_none()
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

    /// The node's rows in the classes it takes from `source`.
    pub(crate) fn rows_from(&self, source: ClassSource) -> u64 {
        (self.distribution())
            .filter(|&(class, _)| self.source(class) == source)
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

    /// Plan a batch where its scan certifies: per node of `nodes`, in
    /// batch order, how the parent's table serves it, only for the
    /// children of a pin. When a batch scheduled both
    /// children of a binary split, it serves each class of theirs from one
    /// side when it can ([`pair`]; `wire`: the batch's rows come over the
    /// wire from the server); every other child of a pin is a side whose
    /// sibling the batch did not schedule, sliced when its complement lacks
    /// one of its classes ([`lone`]). A plan is returned only where the
    /// scan can keep it: the source table is still at the `epoch` the
    /// parent was counted at, and the scan's range `certificate` lies
    /// inside every layout the plan reads or counts into ([`stands`]);
    /// every other plan that takes classes from a sibling counts into
    /// `stats.derivations_refused`. The first batch that schedules only one
    /// of a binary split's two children counts the pair into
    /// `stats.split_pairs`.
    pub(crate) fn plan(
        &mut self,
        nodes: &[NodeCounter],
        certificate: &[Code],
        epoch: u64,
        wire: bool,
        stats: &mut MiddlewareStats,
    ) -> Vec<Option<Plan>> {
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
                epoch: counted,
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
            let paired = match *children.as_slice() {
                [a, b] => pair(table, nodes, [a, b], wire),
                _ => None,
            };
            let planned = paired.map_or_else(
                || {
                    let own = |&i: &usize| (i, nodes.get(i).and_then(|n| lone(table, n)));
                    children.iter().map(own).collect()
                },
                Vec::from,
            );
            let at_epoch = *counted == epoch;
            for (i, plan) in planned.into_iter().filter_map(|(i, plan)| Some((i, plan?))) {
                if !at_epoch || !stands(&plan, nodes, i, certificate) {
                    stats.derivations_refused += u64::from(plan.sibling.is_some());
                } else if let Some(slot) = plans.get_mut(i) {
                    *slot = Some(plan);
                }
            }
        }
        plans
    }
}

/// A scheduled child's split edge: `(col, value, eq)`.
fn edge(node: &NodeCounter) -> Option<(u16, Code, bool)> {
    let (col, value, eq) = match *node.req.lineage.edge()? {
        Pred::Eq { col, value } => (col, value, true),
        Pred::NotEq { col, value } => (col, value, false),
        _ => return None,
    };
    Some((u16::try_from(col).ok()?, value, eq))
}

/// The child `node` of the node `table` counted, per class code, by the
/// parent's table: its rows, and its complement's.
fn child_classes(table: &CountsTable, node: &NodeCounter) -> Option<[Vec<u64>; 2]> {
    let (col, value, eq) = edge(node)?;
    let [with, all] = table.class_split(col, value)?;
    let without: Vec<u64> = all
        .iter()
        .zip(&with)
        .map(|(n, m)| n.saturating_sub(*m))
        .collect();
    Some(if eq { [with, without] } else { [without, with] })
}

/// Per class code, where a child whose rows per class are `rows` and its
/// complement's `others` takes its counts from: a class it holds and the
/// complement lacks is copied from the parent; one both hold is counted
/// where `counts` says so, else taken from the sibling; one it lacks is
/// counted (there is nothing to count).
fn sources(rows: &[u64], others: &[u64], counts: impl Fn(usize) -> bool) -> Vec<ClassSource> {
    let other = |k: usize| others.get(k).copied().unwrap_or(0);
    (rows.iter().enumerate())
        .map(|(k, &n)| match (n, other(k)) {
            (0, _) => ClassSource::Counted,
            (_, 0) => ClassSource::Parent,
            _ if counts(k) => ClassSource::Counted,
            _ => ClassSource::Sibling,
        })
        .collect()
}

/// The plan of `node`, a scheduled child of the node `table` counted, as a
/// side whose sibling the batch did not schedule ([`side`]): sliced, the
/// classes its complement holds counted and the others copied.
fn lone(table: &Arc<CountsTable>, node: &NodeCounter) -> Option<Plan> {
    let [rows, complement] = child_classes(table, node)?;
    let sources = sources(&rows, &complement, |_| true);
    side(table, node, sources, rows, None)
}

/// Derive a side of a pair, whose rows per class code are `rows`, whole
/// when it counts none of the classes it holds: it takes each of them from
/// its sibling — in a class the sibling lacks, that is the parent's — and
/// each class it lacks stays counted, with no rows. So it reads its
/// sibling's table only where the sibling counts: in whichever order the
/// two are completed, it reads the same. Returns whether it did.
fn derive_whole(sources: &mut [ClassSource], rows: &[u64]) -> bool {
    let whole = (sources.iter().zip(rows)).all(|(&s, &n)| n == 0 || s != ClassSource::Counted);
    if whole {
        for (s, _) in (sources.iter_mut().zip(rows)).filter(|&(_, &n)| n > 0) {
            *s = ClassSource::Sibling;
        }
    }
    whole
}

/// The plan of `node`, a scheduled child of the node `table` counted, that
/// takes its classes by `sources` and holds `rows` per class code; its
/// [`ClassSource::Sibling`] classes come from `sibling`: the sibling's
/// position in the batch, and its edge. `None` when it counts every class,
/// or takes none from a sibling and does not count densely over strictly
/// ascending attributes the parent's table tracks.
fn side(
    table: &Arc<CountsTable>,
    node: &NodeCounter,
    sources: Vec<ClassSource>,
    rows: Vec<u64>,
    sibling: Option<(usize, SiblingEdge)>,
) -> Option<Plan> {
    let derived = sources.contains(&ClassSource::Sibling);
    let attrs = &node.req.attrs;
    let eligible = derived || node.cc.is_dense() && ascending(attrs) && table.tracks(attrs);
    let planned = sources.iter().any(|&s| s != ClassSource::Counted);
    (eligible && planned).then(|| Plan {
        parent: Arc::clone(table),
        sources,
        rows,
        sibling: sibling.filter(|_| derived),
    })
}

/// The plans of two scheduled children of the node `table` counted, at
/// positions `a` and `b` of `nodes`, each with its position; `None` unless
/// the two sit on the edges `A = v` and `A ≠ v` and one can be derived
/// from the other — it counts densely over strictly ascending attributes
/// the parent's table tracks, and the sibling, counting densely over
/// strictly ascending attributes, tracks every one of them but — when the
/// sibling is the `=` child — `A`.
///
/// The pair's side is the child with fewer rows in the classes both hold,
/// the `=` child on a tie. When each child can be derived from the other,
/// every class both hold is counted on the side that ships fewer of its
/// rows over the wire, and taken from it on the other: a side ships none
/// when the batch does not read the server (`wire`) or the side ships
/// whole anyway, teeing into a memory set or a file; where both ship as
/// many, on the pair's side. Otherwise the pair's side counts every class
/// both hold, when the other can be derived from it. Each side copies the
/// classes only it holds from the parent's table, and a side left counting
/// no row is derived whole from the other ([`derive_whole`]).
fn pair(
    table: &Arc<CountsTable>,
    nodes: &[NodeCounter],
    [a, b]: [usize; 2],
    wire: bool,
) -> Option<[(usize, Option<Plan>); 2]> {
    let (col, value, a_eq) = edge(nodes.get(a)?)?;
    if edge(nodes.get(b)?)? != (col, value, !a_eq) {
        return None;
    }
    let (eq, neq) = if a_eq { (a, b) } else { (b, a) };
    let (e, n) = (nodes.get(eq)?, nodes.get(neq)?);
    let [eq_rows, neq_rows] = child_classes(table, e)?;
    let derivable = |d: &NodeCounter, s: &NodeCounter, sibling_eq: bool| {
        let sibling_tracks =
            |attr: &u16| s.req.attrs.contains(attr) || (sibling_eq && *attr == col);
        d.cc.is_dense()
            && s.cc.is_dense()
            && ascending(&d.req.attrs)
            && ascending(&s.req.attrs)
            && table.tracks(&d.req.attrs)
            && d.req.attrs.iter().all(sibling_tracks)
    };
    let shared = |x: &[u64], y: &[u64]| -> u64 {
        (x.iter().zip(y))
            .filter(|&(_, &m)| m > 0)
            .map(|(&n, _)| n)
            .sum()
    };
    let eq_side = shared(&eq_rows, &neq_rows) <= shared(&neq_rows, &eq_rows);
    let mixes = derivable(n, e, true) && derivable(e, n, false);
    let (derived, sibling) = if eq_side { (n, e) } else { (e, n) };
    if !mixes && !derivable(derived, sibling, eq_side) {
        return None;
    }
    let shipped = |node: &NodeCounter, rows: u64| if wire && !node.tees() { rows } else { 0 };
    // Per class both hold: does the `=` child count it?
    let eq_counts: Vec<bool> = (eq_rows.iter().zip(&neq_rows))
        .map(|(&x, &y)| match shipped(e, x).cmp(&shipped(n, y)) {
            Ordering::Less if mixes => true,
            Ordering::Greater if mixes => false,
            _ => eq_side,
        })
        .collect();
    let eq_counts = |k: usize| eq_counts.get(k).copied().unwrap_or(true);
    let mut eq_sources = sources(&eq_rows, &neq_rows, eq_counts);
    let mut neq_sources = sources(&neq_rows, &eq_rows, |k| !eq_counts(k));
    if !derive_whole(&mut neq_sources, &neq_rows) {
        derive_whole(&mut eq_sources, &eq_rows);
    }
    let planned = |node, sources, rows, sibling, eq| {
        let edge = SiblingEdge { col, value, eq };
        side(table, node, sources, rows, Some((sibling, edge)))
    };
    Some([
        (eq, planned(e, eq_sources, eq_rows, neq, false)),
        (neq, planned(n, neq_sources, neq_rows, eq, true)),
    ])
}

/// Can the scan keep `plan`, node `i`'s of `nodes`, when every code it
/// reads lies at or under `certificate`? Only when the certificate lies
/// inside the layouts of the parent's table and of every table the scan
/// counts for the node — its own, unless it is derived whole, and its
/// sibling's, if it takes classes from it — so that each stays dense:
/// [`CountsTable::complete`] reads them slot by slot. Every node a batch
/// plans, and every sibling a plan names, counts densely ([`side`],
/// [`pair`]).
fn stands(plan: &Plan, nodes: &[NodeCounter], i: usize, certificate: &[Code]) -> bool {
    let covers = |table: &CountsTable, node: &NodeCounter| {
        table.covers(certificate, &node.req.attrs, node.req.class_col)
    };
    let sibling = |&(s, _): &(usize, SiblingEdge)| nodes.get(s).is_some_and(|s| covers(&s.cc, s));
    nodes.get(i).is_some_and(|node| {
        covers(&plan.parent, node)
            && (plan.derives_whole() || covers(&node.cc, node))
            && plan.sibling.as_ref().is_none_or(sibling)
    })
}

/// Strictly ascending — so no attribute is counted twice.
fn ascending(attrs: &[u16]) -> bool {
    attrs.windows(2).all(|w| w[0] < w[1])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::staging::{CodeWidth, MemRows};
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

    /// The range certificate of a scan of the fixtures' rows: four values
    /// of `a` and of `b`, and two classes — four in [`pair_of`]'s.
    const CERT: [Code; 3] = [3, 3, 1];
    const CERT4: [Code; 3] = [3, 3, 3];

    /// The root of `rows`, `[a, b, class]` with `nclasses` classes,
    /// remembered at epoch 7, and its children `a = 1` (node 1, over
    /// `attrs[0]`) and `a ≠ 1` (node 2, over `attrs[1]`), as the batch
    /// builds them: dense, four values per attribute.
    fn scheduled_pair(
        rows: &[[Code; 3]],
        nclasses: u64,
        attrs: [&[u16]; 2],
    ) -> (Parents, Arc<CountsTable>, [NodeCounter; 2]) {
        let root = request(Lineage::root(NodeId(0)), vec![0, 1]);
        let mut table = CountsTable::new_dense(&[(0, 4), (1, 4)], nclasses);
        for row in rows {
            table.add_row(row, &[0, 1], 2);
        }
        let table = Arc::new(table);
        let mut parents = Parents::default();
        parents.fulfilled(&root, &table, 7);
        let child = |id, edge, attrs: &[u16]| {
            let cards: Vec<(u16, u64)> = attrs.iter().map(|&a| (a, 4)).collect();
            let mut node = NodeCounter::new(request(
                root.lineage.child(NodeId(id), edge),
                attrs.to_vec(),
            ));
            node.cc = CountsTable::new_dense(&cards, nclasses);
            node
        };
        let eq = child(1, Pred::Eq { col: 0, value: 1 }, attrs[0]);
        let neq = child(2, Pred::NotEq { col: 0, value: 1 }, attrs[1]);
        (parents, table, [eq, neq])
    }

    /// The root of four copies of `[a, b, class]` rows in which every
    /// `a = 1` row is class 0, and its children `a = 1` (node 1) and
    /// `a ≠ 1` (node 2, which holds both classes), both over `a` and `b`.
    fn pure_sibling() -> (Parents, Arc<CountsTable>, [NodeCounter; 2]) {
        let rows = [
            [0, 0, 0],
            [0, 1, 1],
            [1, 0, 0],
            [1, 1, 0],
            [2, 0, 1],
            [2, 1, 1],
        ];
        let rows: Vec<[Code; 3]> = rows.iter().cycle().take(4 * rows.len()).copied().collect();
        scheduled_pair(&rows, 2, [&[0, 1], &[0, 1]])
    }

    /// Both children of a root with four classes, `eq[k]` rows of class
    /// `k` with `a = 1` and `neq[k]` with `a` 0 or 2, enqueued — their
    /// rows enough to pin the root — and scheduled together.
    fn pair_of(
        eq: [usize; 4],
        neq: [usize; 4],
        attrs: [&[u16]; 2],
    ) -> (Parents, Arc<CountsTable>, [NodeCounter; 2]) {
        let mut rows = Vec::new();
        for (k, (&e, &n)) in (0..).zip(eq.iter().zip(&neq)) {
            rows.extend((0..e).map(|i| [1, (i % 4) as Code, k]));
            rows.extend((0..n).map(|i| [2 * (i % 2) as Code, (i % 4) as Code, k]));
        }
        let (mut parents, table, nodes) = scheduled_pair(&rows, 4, attrs);
        for node in &nodes {
            parents.enqueued(&node.req);
        }
        (parents, table, nodes)
    }

    /// A staged-file tee of `node`'s rows.
    fn file_tee(
        staging: &mut crate::staging::StagingManager,
        node: &NodeCounter,
    ) -> crate::staging::FileWriter {
        let members = vec![node.req.node()];
        staging
            .start_file(members, node.req.pred().clone(), 3)
            .unwrap()
    }

    /// The `a = 1` child holds 8, 20 and 12 rows of classes 0–2, the
    /// `a ≠ 1` child 24, 4, 12 and 8 of classes 0–3.
    const EQ_ROWS: [usize; 4] = [8, 20, 12, 0];
    const NEQ_ROWS: [usize; 4] = [24, 4, 12, 8];

    use ClassSource::{Counted, Parent, Sibling};

    /// A plan's sources, and its sibling's position and edge.
    type Shape = (Vec<ClassSource>, Option<(usize, bool)>);

    /// The shape of a plan, `None` for a node counted whole.
    fn shape(plan: &Option<Plan>) -> Option<Shape> {
        let plan = plan.as_ref()?;
        Some((plan.sources.clone(), plan.sibling.map(|(s, e)| (s, e.eq))))
    }

    /// In a server scan each class both children hold is counted on the
    /// side with fewer rows in it — class 0 on `=`, class 1 on `≠` — and
    /// taken from the sibling on the other; the class only the `≠` child
    /// holds is copied from the parent. A class both hold as many rows of,
    /// class 2, is counted on the pair's side: the `=` child at 40 shared
    /// rows against 40, the `≠` child once the `=` child has 48. Each side
    /// reads its rows per class off the parent's table.
    #[test]
    fn each_shared_class_is_counted_on_its_smaller_side_the_eq_side_on_a_tie() {
        let (mut parents, _table, nodes) = pair_of(EQ_ROWS, NEQ_ROWS, [&[1], &[0, 1]]);
        let mut stats = MiddlewareStats::new();
        let plans = parents.plan(&nodes, &CERT4, 7, true, &mut stats);
        let eq = (vec![Counted, Sibling, Counted, Counted], Some((1, false)));
        let neq = (vec![Sibling, Counted, Sibling, Parent], Some((0, true)));
        assert_eq!(shape(&plans[0]), Some(eq));
        assert_eq!(shape(&plans[1]), Some(neq));
        let [e, n] = [0, 1].map(|i| plans[i].as_ref().unwrap());
        assert_eq!(
            (e.rows.clone(), n.rows.clone()),
            (vec![8, 20, 12, 0], vec![24, 4, 12, 8])
        );
        assert!(!e.derives_whole() && !n.derives_whole());
        assert_eq!(e.classes().collect::<Vec<_>>(), [0, 2]);
        assert_eq!(n.classes().collect::<Vec<_>>(), [1]);
        assert_eq!((e.rows_from(Sibling), e.rows_from(Parent)), (20, 0));
        assert_eq!((n.rows_from(Sibling), n.rows_from(Parent)), (36, 8));
        assert_eq!(stats.split_pairs, 0);

        let (mut parents, _table, nodes) = pair_of([8, 28, 12, 0], NEQ_ROWS, [&[1], &[0, 1]]);
        let plans = parents.plan(&nodes, &CERT4, 7, true, &mut stats);
        let eq = (vec![Counted, Sibling, Sibling, Counted], Some((1, false)));
        let neq = (vec![Sibling, Counted, Counted, Parent], Some((0, true)));
        assert_eq!(shape(&plans[0]), Some(eq));
        assert_eq!(shape(&plans[1]), Some(neq));
    }

    /// A side that tees — into a memory set or a file — ships its rows
    /// whole anyway, so a server scan counts it in every class both hold,
    /// and its sibling, left counting no row, is derived whole from it.
    #[test]
    fn a_teeing_side_is_counted_in_every_shared_class_and_its_sibling_derived() {
        let mut staging = crate::staging::StagingManager::new(None).unwrap();
        for (side, tee) in [(0, "memory"), (0, "file"), (1, "memory"), (1, "file")] {
            let what = format!("side {side} tees into a {tee}");
            let (mut parents, _table, mut nodes) = pair_of(EQ_ROWS, NEQ_ROWS, [&[1], &[0, 1]]);
            let node = &mut nodes[side];
            match tee {
                "memory" => node.mem_buffer = Some(MemRows::new(CodeWidth::One)),
                _ => node.file_writer = Some(file_tee(&mut staging, node)),
            }
            let plans = parents.plan(&nodes, &CERT4, 7, true, &mut MiddlewareStats::new());
            let (derived, counted) = (1 - side, side);
            let plan = plans[derived].as_ref().expect("derived");
            assert!(plan.derives_whole(), "{what}");
            assert_eq!(plan.sibling.map(|(s, _)| s), Some(counted), "{what}");
            let copies = [vec![Counted; 4], vec![Counted, Counted, Counted, Parent]];
            let expected = (side == 1).then(|| (copies[side].clone(), None));
            assert_eq!(shape(&plans[counted]), expected, "{what}");
        }
    }

    /// A batch that reads a staged copy — one that writes a split file
    /// reads a staged file — ships no row over the wire, tee or no tee: the
    /// pair's side, chosen by its rows in the classes both hold, counts
    /// every one of them, and the other side is derived whole.
    #[test]
    fn a_split_file_batch_chooses_by_rows() {
        let mut staging = crate::staging::StagingManager::new(None).unwrap();
        for (eq_rows, eq_side) in [(EQ_ROWS, true), ([8, 28, 12, 0], false)] {
            for tee in [None, Some(0), Some(1)] {
                let what = format!("= side {eq_side}, tee {tee:?}");
                let (mut parents, _table, mut nodes) = pair_of(eq_rows, NEQ_ROWS, [&[1], &[0, 1]]);
                if let Some(side) = tee {
                    nodes[side].file_writer = Some(file_tee(&mut staging, &nodes[side]));
                }
                let stats = &mut MiddlewareStats::new();
                let plans = parents.plan(&nodes, &CERT4, 7, false, stats);
                let (counted, derived) = if eq_side { (0, 1) } else { (1, 0) };
                let plan = plans[derived].as_ref().expect("derived");
                assert!(plan.derives_whole(), "{what}");
                assert_eq!(plan.sibling.map(|(s, _)| s), Some(counted), "{what}");
                let copies = (!eq_side).then(|| (vec![Counted, Counted, Counted, Parent], None));
                assert_eq!(shape(&plans[counted]), copies, "{what}");
            }
        }
    }

    /// A side that counts no row is derived whole: it takes every class it
    /// holds from its sibling — one only it holds too, where that is the
    /// parent's — and counts every class it lacks, of which it has no row.
    /// The `≠` child, its sibling counting every class both hold, takes
    /// class 3, which the `=` child lacks, from it; the `=` child, with
    /// more rows in the shared classes, leaves class 3 counted.
    #[test]
    fn a_side_counting_no_row_takes_every_class_it_holds_from_its_sibling() {
        let (mut parents, _table, nodes) = pair_of(EQ_ROWS, NEQ_ROWS, [&[1], &[0, 1]]);
        let plans = parents.plan(&nodes, &CERT4, 7, false, &mut MiddlewareStats::new());
        assert!(
            plans[0].is_none(),
            "the = child counts every class it holds"
        );
        assert_eq!(shape(&plans[1]), Some((vec![Sibling; 4], Some((0, true)))));
        let neq = plans[1].as_ref().expect("≠ derived whole");
        assert!(neq.derives_whole());
        assert_eq!((neq.rows_from(Sibling), neq.rows_from(Parent)), (48, 0));

        let (mut parents, _table, nodes) = pair_of([8, 28, 12, 0], NEQ_ROWS, [&[1], &[0, 1]]);
        let plans = parents.plan(&nodes, &CERT4, 7, false, &mut MiddlewareStats::new());
        let eq = (vec![Sibling, Sibling, Sibling, Counted], Some((1, false)));
        assert_eq!(shape(&plans[0]), Some(eq));
        let sliced = (vec![Counted, Counted, Counted, Parent], None);
        assert_eq!(shape(&plans[1]), Some(sliced));
        let eq = plans[0].as_ref().expect("= derived whole");
        assert!(eq.derives_whole());
        assert_eq!(eq.classes().count(), 0);
        assert_eq!((eq.rows_from(Sibling), eq.rows_from(Parent)), (48, 0));
    }

    /// Children that share no class: neither counts a row the other holds,
    /// so the `≠` child is derived whole — each class it holds taken from
    /// a sibling that holds none of it — and the `=` child is sliced, all
    /// its classes copied from the parent: one derived node of all the `≠`
    /// child's rows and one sliced node.
    #[test]
    fn a_class_disjoint_pair_derives_one_side_whole_and_slices_the_other() {
        for wire in [true, false] {
            let what = format!("wire {wire}");
            let (mut parents, _table, nodes) =
                pair_of([8, 20, 0, 0], [0, 0, 12, 8], [&[1], &[0, 1]]);
            let plans = parents.plan(&nodes, &CERT4, 7, wire, &mut MiddlewareStats::new());
            let sliced = (vec![Parent, Parent, Counted, Counted], None);
            assert_eq!(shape(&plans[0]), Some(sliced), "{what}");
            let whole = (vec![Counted, Counted, Sibling, Sibling], Some((0, true)));
            assert_eq!(shape(&plans[1]), Some(whole), "{what}");
            let [e, n] = [0, 1].map(|i| plans[i].as_ref().unwrap());
            assert!(n.derives_whole() && !e.derives_whole(), "{what}");
            assert_eq!(
                (n.rows_from(Sibling), n.rows_from(Parent)),
                (20, 0),
                "{what}"
            );
            assert_eq!(
                (e.rows_from(Sibling), e.rows_from(Parent)),
                (0, 28),
                "{what}"
            );
        }
    }

    /// When only the `≠` child — over `b` alone — can be derived from the
    /// `=` child, over both, and not the other way, the pair keeps one side
    /// throughout: the child with fewer rows in the classes both hold — the
    /// `=` child on a tie, 40 against 40 — counts them all, the other is
    /// derived whole. When that rule names the `=` child to derive, which
    /// cannot be, neither is derived: each is sliced on its own.
    #[test]
    fn a_pair_derivable_one_way_only_keeps_todays_plan() {
        let (mut parents, _table, nodes) = pair_of(EQ_ROWS, NEQ_ROWS, [&[0, 1], &[1]]);
        let plans = parents.plan(&nodes, &CERT4, 7, true, &mut MiddlewareStats::new());
        assert!(plans[0].is_none(), "the = child copies no class");
        let derived = plans[1].as_ref().expect("≠ derived");
        assert!(derived.derives_whole());
        assert_eq!(shape(&plans[1]).and_then(|s| s.1), Some((0, true)));

        let (mut parents, _table, nodes) = pair_of([8, 20, 16, 0], NEQ_ROWS, [&[0, 1], &[1]]);
        let plans = parents.plan(&nodes, &CERT4, 7, true, &mut MiddlewareStats::new());
        assert!(plans[0].is_none());
        let sliced = (vec![Counted, Counted, Counted, Parent], None);
        assert_eq!(shape(&plans[1]), Some(sliced));
    }

    /// A lone child — its pure sibling never requested — is sliced to the
    /// sibling's class by a pin that outlives no pending child: kept while
    /// the child is pending, and at the pin's epoch. The `=` child, whose complement holds both classes, is
    /// counted whole.
    #[test]
    fn a_pin_slices_a_lone_child_to_its_siblings_classes() {
        for (pending, epoch, slices) in [(true, 7, true), (true, 8, false), (false, 7, false)] {
            let what = format!("pending {pending}, epoch {epoch}");
            let (mut parents, _table, [_, neq]) = pure_sibling();
            parents.enqueued(&neq.req);
            let queue = if pending {
                vec![neq.req.clone()]
            } else {
                Vec::new()
            };
            parents.retain(&queue, || epoch);
            let mut stats = MiddlewareStats::new();
            let neq = std::slice::from_ref(&neq);
            let plans = parents.plan(neq, &CERT, epoch, true, &mut stats);
            let plan = plans[0].as_ref();
            assert!(plan.is_none_or(|p| p.sibling.is_none()), "{what}");
            assert_eq!(plan.is_some(), slices, "{what}");
            if let Some(plan) = plan {
                assert_eq!(plan.sources, [Counted, Parent], "{what}");
                assert_eq!(plan.rows, [4, 12], "{what}");
                assert_eq!(plan.rows_from(Parent), 12, "{what}");
                assert_eq!(plan.classes().collect::<Vec<_>>(), [0], "{what}");
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
        let plans = parents.plan(&nodes, &CERT, 7, true, &mut stats);
        let derived = plans[0].as_ref().expect("a = 1 derived");
        assert!(derived.derives_whole());
        assert_eq!(shape(&plans[0]).and_then(|s| s.1), Some((1, false)));
        let slice = plans[1].as_ref().expect("a ≠ 1 sliced");
        assert!(slice.sibling.is_none());
        assert_eq!(
            (slice.sources.clone(), slice.rows.clone()),
            (vec![Counted, Parent], vec![4, 12])
        );
        assert_eq!(stats.split_pairs, 0);

        let (mut parents, _table, [eq, neq]) = pure_sibling();
        parents.enqueued(&eq.req);
        parents.enqueued(&neq.req);
        let queue = [eq.req.clone(), neq.req.clone()];
        parents.retain(&queue, || 7);
        let first = parents.plan(std::slice::from_ref(&eq), &CERT, 7, true, &mut stats);
        assert!(first[0].is_none());
        assert_eq!(stats.split_pairs, 1);
        parents.retain(&queue[1..], || 7);
        let neq = std::slice::from_ref(&neq);
        let second = parents.plan(neq, &CERT, 7, true, &mut stats);
        assert_eq!(
            second[0].as_ref().map(|s| s.rows.clone()),
            Some(vec![4, 12])
        );
        assert_eq!(stats.split_pairs, 1, "a pair is split once");
        parents.retain(&[], || 7);
        assert!(parents.plan(neq, &CERT, 7, true, &mut stats)[0].is_none());
    }
}
