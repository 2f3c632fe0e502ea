//! Algorithm Grow (§2.1), driven by middleware CC tables.
//!
//! The client maintains the tree and the scoring; the middleware decides
//! which active nodes are serviced next (§3.1: "the client no longer
//! decides which nodes in the decision tree should be expanded next").
//! The client partitions fulfilled nodes in whatever order the counts
//! arrive — which, per the paper, does not affect the tree produced.
//!
//! The node-level decision logic ([`decide`], [`derive_children`]) is
//! shared with the in-memory baseline client so both provably grow the
//! *same* tree from the same data.
//!
//! Figure 3's loop is synchronous — the middleware idles while the client
//! turns a fulfilled table into a split — so a fulfilment is read where
//! the counting kernel left it (`split.rs`, DESIGN.md §12a) and each thing
//! is taken once: per node, one enumeration of the candidates yields the
//! verdict and, for a maintainable grow, the winner/runner-up margins;
//! `card(n, A_j)` is counted once per attribute and shared by the
//! children; per child, the class counts, edge predicate and cards are
//! built once and moved into the tree and the request.
//!
//! One loop runs every build in this crate. `GrowState` owns a build in
//! progress — the open record of each outstanding request, the retained
//! tables of a maintainable build, and the request, accept and escalation
//! tallies — and is the only code that queues a request
//! (`GrowState::request`) or takes a batch (`GrowState::drain`). A build
//! is the root request plus `drain`; a maintenance round (`maintain.rs`)
//! requests its re-grows the same way and drains them through the same
//! loop, escalating every sampled fulfilment instead of judging it. Every
//! entry point refuses a session that already holds requests.

use crate::maintain::RetainedNode;
use crate::split::{best_two_splits, rank_splits, score_half_width, Scorer, Split, SplitKind};
use crate::tree::{DecisionTree, Edge, NodeState, TreeNode};
use scaleclass::{CcRequest, CountsTable, Lineage, Middleware, MwError, MwResult, NodeId};
use scaleclass_sqldb::{Code, Pred};
use std::collections::HashMap;
use std::sync::Arc;

/// Tree-growing configuration.
#[derive(Debug, Clone)]
pub struct GrowConfig {
    /// Selection measure.
    pub scorer: Scorer,
    /// Candidate split shape.
    pub split_kind: SplitKind,
    /// Stop expanding below this depth (root = 0). `None` = unbounded —
    /// the paper grows full trees.
    pub max_depth: Option<usize>,
    /// Nodes with fewer rows become leaves.
    pub min_rows: u64,
}

impl Default for GrowConfig {
    fn default() -> Self {
        GrowConfig {
            scorer: Scorer::Entropy,
            split_kind: SplitKind::Binary,
            max_depth: None,
            min_rows: 1,
        }
    }
}

/// What to do with a node, given its counts table.
#[derive(Debug, Clone, PartialEq)]
pub enum Decision {
    /// Terminate: predict `class`.
    Leaf {
        /// Majority class at the node.
        class: Code,
    },
    /// Partition on this split.
    Split(Split),
}

/// Decide a node's fate from its CC table (termination criteria of §2.1:
/// purity, exhausted attributes, no non-degenerate split, plus the
/// practical min-rows / max-depth bounds).
pub fn decide(cc: &CountsTable, attrs: &[u16], depth: usize, config: &GrowConfig) -> Decision {
    decide_with_margins(cc, attrs, depth, config).0
}

/// [`decide`], plus the `(winner, runner-up)` scores [`best_two_splits`]
/// reports on the same table — the margins incremental maintenance keeps
/// for a partitioned node — out of the one enumeration that decided it.
/// A node that terminates before any split is scored has none.
pub(crate) fn decide_with_margins(
    cc: &CountsTable,
    attrs: &[u16],
    depth: usize,
    config: &GrowConfig,
) -> (Decision, (Option<f64>, Option<f64>)) {
    let majority = cc.majority_class().map(|(c, _)| c).unwrap_or(0);
    let leaf = Decision::Leaf { class: majority };
    let depth_capped = config.max_depth.is_some_and(|d| depth >= d);
    if cc.distinct_classes() <= 1
        || cc.total() < config.min_rows
        || depth_capped
        || attrs.is_empty()
    {
        return (leaf, (None, None));
    }
    let ranking = rank_splits(cc, attrs, config.split_kind, config.scorer);
    let margins = ranking.margins();
    match ranking.best {
        Some(scored) if scored.score > 1e-12 => (Decision::Split(scored.split), margins),
        _ => (leaf, margins),
    }
}

/// Everything needed to create one child of a split, computed *exactly*
/// from the parent's CC table (§4.2.1).
#[derive(Debug, Clone)]
pub struct ChildSpec {
    /// The edge from the parent.
    pub edge: Edge,
    /// The edge predicate in backend column terms.
    pub edge_pred: Pred,
    /// Exact rows flowing to this child.
    pub rows: u64,
    /// Exact class distribution at this child.
    pub class_counts: Vec<(Code, u64)>,
    /// Attributes still informative at the child.
    pub attrs: Vec<u16>,
    /// `card(parent, A_j)` aligned with `attrs` (estimator input).
    pub parent_cards: Vec<u64>,
}

impl ChildSpec {
    /// The class a leaf at this child predicts: the majority class, the
    /// highest class code among equals, 0 for an empty child.
    pub fn majority_class(&self) -> Code {
        self.class_counts
            .iter()
            .max_by_key(|&&(_, n)| n)
            .map_or(0, |&(c, _)| c)
    }

    /// The child reached by `attr = value`.
    fn eq(
        attr: u16,
        value: Code,
        class_counts: Vec<(Code, u64)>,
        (attrs, parent_cards): (Vec<u16>, Vec<u64>),
    ) -> ChildSpec {
        let edge = Edge::Eq { attr, value };
        ChildSpec {
            edge,
            edge_pred: edge.pred(),
            rows: class_counts.iter().map(|&(_, n)| n).sum(),
            class_counts,
            attrs,
            parent_cards,
        }
    }
}

/// Derive the children of `split` from the parent's CC table: a child's
/// class counts are its value's row of the split attribute
/// ([`CountsTable::value_rows`]), and `card(n, A_j)` is counted once per
/// attribute of the node.
pub fn derive_children(cc: &CountsTable, split: &Split, attrs: &[u16]) -> Vec<ChildSpec> {
    let attr = split.attr();
    let cards: Vec<u64> = attrs
        .iter()
        .map(|&a| cc.distinct_values(a).max(1))
        .collect();
    // `A = v` pins the attribute → drop it. `A ≠ v` leaves it with card−1
    // values → drop only if that is a single value.
    let mut kept = (attrs.to_vec(), cards);
    let mut pinned = kept.clone();
    if let Some(i) = attrs.iter().position(|&a| a == attr) {
        pinned.0.remove(i);
        pinned.1.remove(i);
        if kept.1[i] <= 2 {
            kept.0.remove(i);
            kept.1.remove(i);
        }
    }

    let axis = cc.class_axis();
    let mut gather = Vec::new();
    // Class counts of `attr = value`; none when the value is absent.
    let mut counts_of = |value: Code| {
        let mut rows = cc.value_rows(attr, &axis, &mut gather);
        while let Some((v, row)) = rows.next_row() {
            if v == value {
                // Sized exactly: the tree keeps this vector.
                let mut counts = Vec::with_capacity(row.iter().filter(|&&n| n > 0).count());
                counts.extend(
                    axis.classes()
                        .zip(row.iter().copied())
                        .filter(|&(_, n)| n > 0),
                );
                return counts;
            }
        }
        Vec::new()
    };
    match split {
        &Split::Binary { value, .. } => {
            let eq = ChildSpec::eq(attr, value, counts_of(value), pinned);
            let mut neq_counts: Vec<(Code, u64)> = cc.class_distribution().collect();
            for (c, n) in &mut neq_counts {
                let eq_n = eq.class_counts.iter().find(|&&(ec, _)| ec == *c);
                *n -= eq_n.map_or(0, |&(_, n)| n);
            }
            neq_counts.retain(|&(_, n)| n > 0);
            let edge = Edge::NotEq { attr, value };
            let neq = ChildSpec {
                edge,
                edge_pred: edge.pred(),
                rows: cc.total() - eq.rows,
                class_counts: neq_counts,
                attrs: kept.0,
                parent_cards: kept.1,
            };
            vec![eq, neq]
        }
        Split::Multiway { values, .. } => values
            .iter()
            .map(|&v| ChildSpec::eq(attr, v, counts_of(v), pinned.clone()))
            .collect(),
    }
}

/// Outcome of judging a *sampled* CC table (DESIGN.md §13).
#[derive(Debug, Clone, PartialEq)]
pub enum SampledDecision {
    /// The winning split's confidence interval cleared zero and separated
    /// from the runner-up: partition on it without an exact scan.
    Split(Split),
    /// The sample could not settle the node — would-be leaf, unbounded
    /// measure, or overlapping intervals. Rescan exactly.
    Escalate,
}

/// Scale a block-sampled count up by the sampling fraction (rounded) —
/// the approximate sizes fed back to the scheduler's cost model through
/// child requests. Degenerate fractions return the count unchanged.
pub fn scale_sampled(count: u64, fraction: f64) -> u64 {
    if !(fraction > 0.0 && fraction < 1.0) {
        return count;
    }
    (count as f64 / fraction).round() as u64
}

/// Judge a node from block-sampled counts: accept the best split only when
/// its normal-approximation confidence interval (±[`score_half_width`])
/// both clears zero and separates from the runner-up's by the full two
/// half-widths. Everything else — including every would-be *leaf*
/// decision, whose class distribution becomes output and so must come from
/// exact counts — escalates to an exact rescan.
pub fn decide_sampled(
    cc: &CountsTable,
    attrs: &[u16],
    depth: usize,
    config: &GrowConfig,
    fraction: f64,
) -> SampledDecision {
    let scaled_rows = scale_sampled(cc.total(), fraction);
    let depth_capped = config.max_depth.is_some_and(|d| depth >= d);
    if cc.distinct_classes() <= 1
        || scaled_rows < config.min_rows
        || depth_capped
        || attrs.is_empty()
    {
        return SampledDecision::Escalate;
    }
    let nclasses = cc.distinct_classes() as u64;
    let Some(hw) = score_half_width(config.scorer, nclasses, cc.total()) else {
        return SampledDecision::Escalate;
    };
    let Some((best, runner)) = best_two_splits(cc, attrs, config.split_kind, config.scorer) else {
        return SampledDecision::Escalate;
    };
    let clears_zero = best.score - hw > 1e-12;
    let separated = runner.is_none_or(|r| best.score - r >= 2.0 * hw);
    if clears_zero && separated {
        SampledDecision::Split(best.split)
    } else {
        SampledDecision::Escalate
    }
}

/// Would a child with this spec terminate immediately? If so, its class
/// distribution is already known from the parent's CC table and no counts
/// request is needed.
pub fn immediate_leaf(spec: &ChildSpec, depth: usize, config: &GrowConfig) -> bool {
    let classes_present = spec.class_counts.iter().filter(|&&(_, n)| n > 0).count();
    classes_present <= 1
        || spec.rows < config.min_rows
        || config.max_depth.is_some_and(|d| depth >= d)
        || spec.attrs.is_empty()
}

/// Outcome of a middleware-driven grow.
#[derive(Debug)]
pub struct GrowOutcome {
    /// The grown tree.
    pub tree: DecisionTree,
    /// Counts requests issued to the middleware (escalation rescans
    /// included).
    pub requests_issued: u64,
    /// Sampled fulfilments whose split the confidence interval accepted.
    pub sampled_accepts: u64,
    /// Sampled fulfilments escalated to an exact rescan (§13).
    pub escalations: u64,
}

/// Refuse to start on a session that already holds requests: their
/// fulfilments would reach a loop that never asked for them.
pub(crate) fn ensure_idle(mw: &Middleware) -> MwResult<()> {
    if mw.has_pending() {
        return Err(MwError::BadRequest(
            "the session already holds pending requests".into(),
        ));
    }
    Ok(())
}

/// A build in progress, from its first request until its frontier
/// settles: the open record (lineage and attribute set) of every
/// outstanding request, the retained map of a maintainable build, and the
/// tallies its outcome reports. A build and a maintenance round
/// (`maintain.rs`) send every request through [`GrowState::request`] and
/// take every fulfilment through [`GrowState::drain`].
pub(crate) struct GrowState<'a> {
    config: &'a GrowConfig,
    /// Judge a sampled fulfilment with [`decide_sampled`] (a build), or
    /// escalate it unread (maintenance never accepts sampled counts).
    judge_samples: bool,
    open: HashMap<usize, (Lineage, Vec<u16>)>,
    /// Each exactly counted node's table and margins, for maintenance.
    pub(crate) retained: Option<HashMap<usize, RetainedNode>>,
    /// Counts requests issued, escalation rescans included.
    pub(crate) requests_issued: u64,
    pub(crate) sampled_accepts: u64,
    pub(crate) escalations: u64,
}

impl<'a> GrowState<'a> {
    /// A build with nothing requested yet; `judge_samples` is false for a
    /// maintenance round.
    pub(crate) fn new(
        config: &'a GrowConfig,
        retained: Option<HashMap<usize, RetainedNode>>,
        judge_samples: bool,
    ) -> Self {
        GrowState {
            config,
            judge_samples,
            open: HashMap::new(),
            retained,
            requests_issued: 0,
            sampled_accepts: 0,
            escalations: 0,
        }
    }

    /// The retained map, which a maintenance round always holds.
    pub(crate) fn retained_mut(&mut self) -> &mut HashMap<usize, RetainedNode> {
        self.retained.get_or_insert_with(HashMap::new)
    }

    /// Queue `req` and keep its lineage and attributes for the
    /// fulfilment.
    pub(crate) fn request(&mut self, mw: &mut Middleware, req: CcRequest) -> MwResult<()> {
        let open = (req.lineage.clone(), req.attrs.clone());
        let idx = req.node().0 as usize;
        mw.enqueue(req)?;
        self.open.insert(idx, open);
        self.requests_issued += 1;
        Ok(())
    }

    /// Figure 3's loop: take fulfilled batches until no request is left,
    /// deciding each node and requesting its children; then flush the
    /// staged data no request can reach any more
    /// ([`Middleware::flush_unreachable`]), the last subtree's included.
    pub(crate) fn drain(&mut self, mw: &mut Middleware, tree: &mut DecisionTree) -> MwResult<()> {
        while mw.has_pending() {
            for f in mw.process_next_batch()? {
                let idx = f.node.0 as usize;
                let Some((lineage, attrs)) = self.open.remove(&idx) else {
                    return Err(MwError::Internal(format!(
                        "node {idx} was fulfilled but never requested"
                    )));
                };
                let Some(tag) = f.sample else {
                    tree.node_mut(idx).source = Some(f.source);
                    self.apply_exact(mw, tree, idx, &f.cc, &lineage, &attrs)?;
                    continue;
                };
                // Sampled fulfilment (DESIGN.md §13): accept the split only
                // if the confidence intervals settle it.
                let verdict = if self.judge_samples {
                    let depth = tree.node(idx).depth;
                    decide_sampled(&f.cc, &attrs, depth, self.config, tag.fraction)
                } else {
                    SampledDecision::Escalate
                };
                let SampledDecision::Split(split) = verdict else {
                    // Requeue through the session so the sampled CC bytes
                    // release *before* the exact scan is scheduled
                    // (double-count guard); the node is decided when those
                    // counts arrive.
                    self.open.insert(idx, (lineage, attrs));
                    let escalated = mw.escalate(f.node);
                    debug_assert!(escalated, "sampled fulfilment must be outstanding");
                    self.escalations += 1;
                    self.requests_issued += 1;
                    continue;
                };
                mw.accept_sampled(f.node);
                self.sampled_accepts += 1;
                let scale = |n: u64| scale_sampled(n, tag.fraction);
                let specs = derive_children(&f.cc, &split, &attrs);
                let node = tree.node_mut(idx);
                node.class_counts =
                    f.cc.class_distribution()
                        .map(|(c, n)| (c, scale(n)))
                        .collect();
                node.rows = scale(f.cc.total());
                node.source = Some(f.source);
                node.state = NodeState::Partitioned { split };
                self.spawn_children(mw, tree, idx, &lineage, specs, Some(tag.fraction))?;
            }
        }
        mw.flush_unreachable();
        Ok(())
    }

    /// Apply one node's *exact* counts table: record its distribution,
    /// decide leaf-vs-split, create its children, and — in a maintainable
    /// build — retain the table plus the winner/runner-up margins for
    /// incremental maintenance (DESIGN.md §15), taken from the same
    /// enumeration as the decision.
    pub(crate) fn apply_exact(
        &mut self,
        mw: &mut Middleware,
        tree: &mut DecisionTree,
        idx: usize,
        cc: &Arc<CountsTable>,
        lineage: &Lineage,
        attrs: &[u16],
    ) -> MwResult<()> {
        let node = tree.node_mut(idx);
        node.class_counts = cc.class_distribution().collect();
        node.rows = cc.total();
        let (decision, (best_score, runner_score)) =
            decide_with_margins(cc, attrs, node.depth, self.config);
        if let Some(retained) = &mut self.retained {
            let cc = Arc::clone(cc);
            let attrs = attrs.to_vec();
            retained.insert(
                idx,
                RetainedNode {
                    cc,
                    attrs,
                    best_score,
                    runner_score,
                },
            );
        }
        match decision {
            Decision::Leaf { class } => tree.node_mut(idx).state = NodeState::Leaf { class },
            Decision::Split(split) => {
                let specs = derive_children(cc, &split, attrs);
                tree.node_mut(idx).state = NodeState::Partitioned { split };
                self.spawn_children(mw, tree, idx, lineage, specs, None)?;
            }
        }
        Ok(())
    }

    /// Create the children `specs` describes under the partitioned node
    /// `idx` and request counts for those that do not settle on the spot.
    /// Counts read off a sample of `fraction` are scaled up by it in the
    /// tree and in the requests; a child of a sampled node is never an
    /// immediate leaf, since a leaf's class distribution is tree output and
    /// sampled purity proves nothing about the blocks the scan skipped.
    fn spawn_children(
        &mut self,
        mw: &mut Middleware,
        tree: &mut DecisionTree,
        idx: usize,
        lineage: &Lineage,
        specs: Vec<ChildSpec>,
        fraction: Option<f64>,
    ) -> MwResult<()> {
        let (depth, parent_rows) = (tree.node(idx).depth + 1, tree.node(idx).rows);
        let scale = |n: u64| fraction.map_or(n, |f| scale_sampled(n, f));
        let class_col = mw.class_col();
        for mut spec in specs {
            let leaf_now = fraction.is_none() && immediate_leaf(&spec, depth, self.config);
            let rows = scale(spec.rows);
            for (_, n) in &mut spec.class_counts {
                *n = scale(*n);
            }
            let child_idx = tree.push(TreeNode {
                id: 0,
                parent: Some(idx),
                edge: Some(spec.edge),
                depth,
                state: if leaf_now {
                    NodeState::Leaf {
                        class: spec.majority_class(),
                    }
                } else {
                    NodeState::Active
                },
                class_counts: spec.class_counts,
                rows,
                children: Vec::new(),
                source: None,
            });
            if !leaf_now {
                let lineage = lineage.child(NodeId(child_idx as u64), spec.edge_pred);
                let req = CcRequest {
                    lineage,
                    attrs: spec.attrs,
                    class_col,
                    rows,
                    parent_rows,
                    parent_cards: spec.parent_cards,
                };
                self.request(mw, req)?;
            }
        }
        Ok(())
    }
}

/// Grow a full decision tree through the middleware (the synchronous
/// client loop of Figure 3).
pub fn grow_with_middleware(mw: &mut Middleware, config: &GrowConfig) -> MwResult<GrowOutcome> {
    grow_inner(mw, config, None).map(|(out, _)| out)
}

/// A build: the root request, then [`GrowState::drain`]. `retained` is
/// the map a maintainable build fills, handed back beside the outcome.
pub(crate) fn grow_inner(
    mw: &mut Middleware,
    config: &GrowConfig,
    retained: Option<HashMap<usize, RetainedNode>>,
) -> MwResult<(GrowOutcome, Option<HashMap<usize, RetainedNode>>)> {
    ensure_idle(mw)?;
    let mut tree = DecisionTree::new();
    let root = tree.push(TreeNode {
        id: 0,
        parent: None,
        edge: None,
        depth: 0,
        state: NodeState::Active,
        class_counts: Vec::new(),
        rows: mw.table_rows(),
        children: Vec::new(),
        source: None,
    });
    let mut state = GrowState::new(config, retained, true);
    let req = mw.root_request(NodeId(root as u64));
    state.request(mw, req)?;
    state.drain(mw, &mut tree)?;
    let outcome = GrowOutcome {
        tree,
        requests_issued: state.requests_issued,
        sampled_accepts: state.sampled_accepts,
        escalations: state.escalations,
    };
    Ok((outcome, state.retained))
}

#[cfg(test)]
mod tests {
    use super::*;
    use scaleclass::MiddlewareConfig;
    use scaleclass_sqldb::{Database, Schema};

    /// class = (a AND b) over binary attrs with a noise attribute.
    fn and_db(copies: u16) -> Database {
        let mut db = Database::new();
        db.create_table(
            "d",
            Schema::from_pairs(&[("a", 2), ("b", 2), ("noise", 3), ("class", 2)]),
        )
        .unwrap();
        for i in 0..copies {
            for a in 0..2u16 {
                for b in 0..2u16 {
                    db.insert("d", &[a, b, i % 3, a & b]).unwrap();
                }
            }
        }
        db
    }

    fn grow(db: Database, config: &GrowConfig) -> GrowOutcome {
        let mut mw = Middleware::new(db, "d", "class", MiddlewareConfig::default()).unwrap();
        grow_with_middleware(&mut mw, config).unwrap()
    }

    #[test]
    fn learns_the_and_function() {
        let out = grow(and_db(10), &GrowConfig::default());
        let tree = &out.tree;
        assert!(tree.len() >= 3);
        for a in 0..2u16 {
            for b in 0..2u16 {
                assert_eq!(tree.classify(&[a, b, 0, 0]), a & b, "({a},{b})");
            }
        }
        // Noise attribute never chosen for a split.
        for n in tree.nodes() {
            if let NodeState::Partitioned { split } = &n.state {
                assert_ne!(split.attr(), 2, "noise attribute used in a split");
            }
        }
    }

    #[test]
    fn multiway_growth_also_learns() {
        let cfg = GrowConfig {
            split_kind: SplitKind::Multiway,
            ..GrowConfig::default()
        };
        let out = grow(and_db(5), &cfg);
        for a in 0..2u16 {
            for b in 0..2u16 {
                assert_eq!(out.tree.classify(&[a, b, 1, 0]), a & b);
            }
        }
    }

    #[test]
    fn max_depth_zero_yields_single_leaf() {
        let cfg = GrowConfig {
            max_depth: Some(0),
            ..GrowConfig::default()
        };
        let out = grow(and_db(5), &cfg);
        assert_eq!(out.tree.len(), 1);
        assert!(out.tree.root().unwrap().is_leaf());
        assert_eq!(out.requests_issued, 1);
    }

    #[test]
    fn pure_children_become_leaves_without_requests() {
        // class == a exactly: after the root split both children are pure →
        // only the root request is ever issued.
        let mut db = Database::new();
        db.create_table("d", Schema::from_pairs(&[("a", 2), ("class", 2)]))
            .unwrap();
        for i in 0..20u16 {
            db.insert("d", &[i % 2, i % 2]).unwrap();
        }
        let mut mw = Middleware::new(db, "d", "class", MiddlewareConfig::default()).unwrap();
        let out = grow_with_middleware(&mut mw, &GrowConfig::default()).unwrap();
        assert_eq!(out.requests_issued, 1);
        assert_eq!(out.tree.len(), 3);
        assert_eq!(out.tree.leaves().count(), 2);
        assert_eq!(mw.stats().requests_served, 1);
    }

    #[test]
    fn min_rows_prunes_small_nodes() {
        let cfg = GrowConfig {
            min_rows: 1000,
            ..GrowConfig::default()
        };
        let out = grow(and_db(10), &cfg); // 40 rows total
                                          // root itself has < 1000 rows → leaf immediately
        assert_eq!(out.tree.len(), 1);
    }

    /// `CcRequest::rows` is what the client reads off the parent's table:
    /// after a sampled accept, the sample's count scaled up by its fraction
    /// — here 16 for children that hold 24 rows each — not the rows the
    /// child holds.
    #[test]
    fn sampled_children_request_scaled_rows() {
        let mut mw =
            Middleware::new(and_db(12), "d", "class", MiddlewareConfig::default()).unwrap();
        // A third of the table (its noise-0 rows) read as a 50 % sample.
        let mut sample = CountsTable::new();
        for a in 0..2u16 {
            for b in 0..2u16 {
                for _ in 0..4 {
                    sample.add_row(&[a, b, 0, a & b], &[0, 1, 2], 3);
                }
            }
        }
        let mut tree = DecisionTree::new();
        let root = tree.push(TreeNode {
            id: 0,
            parent: None,
            edge: None,
            depth: 0,
            state: NodeState::Active,
            class_counts: Vec::new(),
            // The sample's 16 rows scaled up, as `drain` records them.
            rows: 32,
            children: Vec::new(),
            source: None,
        });
        let specs = derive_children(&sample, &Split::Binary { attr: 0, value: 1 }, &[0, 1, 2]);
        let lineage = Lineage::root(NodeId(root as u64));
        let config = GrowConfig::default();
        let mut state = GrowState::new(&config, None, true);
        state
            .spawn_children(&mut mw, &mut tree, root, &lineage, specs, Some(0.5))
            .unwrap();
        assert_eq!(state.requests_issued, 2);
        // Each request carried the rows the tree records for its child.
        let children = tree.node(root).children.clone();
        let requested: Vec<u64> = children.iter().map(|&c| tree.node(c).rows).collect();
        assert_eq!(requested, [16, 16]);
        let fulfilled = mw.process_next_batch().unwrap();
        let exact: Vec<u64> = fulfilled.iter().map(|f| f.cc.total()).collect();
        assert_eq!(exact, [24, 24]);
    }

    /// A session that already holds a request is refused before anything
    /// is queued or scanned: the request's fulfilment would reach a loop
    /// that never asked for it.
    #[test]
    fn a_session_holding_requests_is_refused() {
        let mut mw = Middleware::new(and_db(4), "d", "class", MiddlewareConfig::default()).unwrap();
        let req = mw.root_request(NodeId(99));
        mw.enqueue(req).unwrap();
        let before = *mw.stats();
        let err = grow_with_middleware(&mut mw, &GrowConfig::default()).unwrap_err();
        assert!(matches!(err, MwError::BadRequest(_)), "{err}");
        assert_eq!(mw.pending_len(), 1);
        assert_eq!(*mw.stats(), before);
    }

    /// A fulfilment with no open record is an internal error, not a panic.
    #[test]
    fn a_fulfilment_nobody_requested_is_an_internal_error() {
        let mut mw = Middleware::new(and_db(4), "d", "class", MiddlewareConfig::default()).unwrap();
        let req = mw.root_request(NodeId(0));
        mw.enqueue(req).unwrap();
        let mut tree = DecisionTree::new();
        tree.push(TreeNode {
            id: 0,
            parent: None,
            edge: None,
            depth: 0,
            state: NodeState::Active,
            class_counts: Vec::new(),
            rows: mw.table_rows(),
            children: Vec::new(),
            source: None,
        });
        let config = GrowConfig::default();
        let err = GrowState::new(&config, None, true)
            .drain(&mut mw, &mut tree)
            .unwrap_err();
        assert!(matches!(err, MwError::Internal(_)), "{err}");
    }

    #[test]
    fn decide_handles_empty_cc() {
        let cc = CountsTable::new();
        assert_eq!(
            decide(&cc, &[0], 0, &GrowConfig::default()),
            Decision::Leaf { class: 0 }
        );
    }

    #[test]
    fn derive_children_binary_partitions_counts_exactly() {
        let mut cc = CountsTable::new();
        // (a, b, class): a has 3 values
        for r in [
            [0u16, 0, 0],
            [0, 1, 0],
            [1, 0, 1],
            [1, 1, 1],
            [2, 0, 0],
            [2, 1, 1],
        ] {
            cc.add_row(&r, &[0, 1], 2);
        }
        let specs = derive_children(&cc, &Split::Binary { attr: 0, value: 1 }, &[0, 1]);
        assert_eq!(specs.len(), 2);
        let eq = &specs[0];
        assert_eq!(eq.rows, 2);
        assert_eq!(eq.class_counts, vec![(1, 2)]);
        assert_eq!(eq.attrs, vec![1], "split attr dropped on = branch");
        let neq = &specs[1];
        assert_eq!(neq.rows, 4);
        assert_eq!(neq.class_counts, vec![(0, 3), (1, 1)]);
        assert_eq!(
            neq.attrs,
            vec![0, 1],
            "three values at node → ≠ branch keeps the attribute"
        );
        assert_eq!(neq.parent_cards, vec![3, 2]);
        // rows conserve
        assert_eq!(eq.rows + neq.rows, cc.total());
    }

    #[test]
    fn derive_children_binary_drops_attr_when_two_values() {
        let mut cc = CountsTable::new();
        for r in [[0u16, 0, 0], [1, 0, 1], [1, 1, 1]] {
            cc.add_row(&r, &[0, 1], 2);
        }
        let specs = derive_children(&cc, &Split::Binary { attr: 0, value: 0 }, &[0, 1]);
        assert_eq!(specs[1].attrs, vec![1], "two values → ≠ branch drops attr");
    }

    #[test]
    fn derive_children_multiway_covers_all_values() {
        let mut cc = CountsTable::new();
        for r in [[0u16, 0, 0], [1, 0, 1], [2, 0, 0], [2, 1, 1]] {
            cc.add_row(&r, &[0, 1], 2);
        }
        let specs = derive_children(
            &cc,
            &Split::Multiway {
                attr: 0,
                values: vec![0, 1, 2],
            },
            &[0, 1],
        );
        assert_eq!(specs.len(), 3);
        let total: u64 = specs.iter().map(|s| s.rows).sum();
        assert_eq!(total, cc.total());
        assert!(specs.iter().all(|s| s.attrs == vec![1]));
    }
}
