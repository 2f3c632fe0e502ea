//! Incremental model maintenance over mutation deltas (DESIGN.md §15).
//!
//! A from-scratch build scans the whole table once per tree level; this
//! module keeps an already-grown tree *split-identical* to that rebuild as
//! the base table churns, at a cost proportional to the churn. The
//! architecture follows Koc & Ré ("Incrementally Maintaining
//! Classification using an RDBMS", PAPERS.md): CC tables are pure sums,
//! so a mutation stream applies to them as signed `add_row`s.
//!
//! The cycle per maintenance round:
//!
//! 1. **Drain** the table's sequenced delta log through the session
//!    ([`scaleclass::Session::drain_deltas`]), which also invalidates every
//!    staged artifact and shared-catalog entry from earlier epochs.
//! 2. **Route** each signed event down the current tree to the leaf its
//!    row reaches, batching the images per leaf in a
//!    [`scaleclass::DeltaMap`] held against the session's budget lease
//!    (the map is applied and drained early whenever its modelled bytes
//!    would crowd the lease).
//! 3. **Apply** each leaf's batch to the retained CC table of every node
//!    on its root path — counts are sums, so the patched tables equal
//!    what a from-scratch rescan at the new epoch would count.
//! 4. **Re-decide** only where the deltas could matter: a node whose
//!    winner-vs-runner-up margin exceeds twice the conservative
//!    [`delta_score_bound`] keeps its split without re-scoring; everything
//!    else is re-decided *exactly* from its patched CC (still no server
//!    scan). Only nodes whose decision actually changed — or whose
//!    structure a patched CC can no longer describe (a multiway value set
//!    that changed, an emptied child, a child attribute set that shifted,
//!    an unroutable value, a rejected DELETE) — re-grow their subtree
//!    through the middleware, which is the only place the server is
//!    touched, and only under the re-grown subtree's predicates. A re-grow
//!    is a build's own request path and loop (`GrowState::request` and
//!    `GrowState::drain` in `grow.rs`), told to escalate every sampled
//!    fulfilment rather than judge it; its lineage is rebuilt from the
//!    tree's edges.
//!
//! Leaves never re-grown are just patched: class counts, rows, and the
//! majority class are updated in place from the parent's patched CC (for
//! immediate leaves) or the leaf's own (for scanned leaves).

use crate::grow::{
    decide, decide_with_margins, derive_children, ensure_idle, grow_inner, immediate_leaf,
    Decision, GrowConfig, GrowState,
};
use crate::split::{delta_score_bound, Split};
use crate::tree::{DecisionTree, NodeState};
use scaleclass::{
    CcRequest, CountsTable, DeltaMap, Lineage, Middleware, MwError, MwResult, NodeId,
};
use std::collections::{HashMap, HashSet};
use std::sync::Arc;

/// Client-side per-node state retained by a maintainable grow: the exact
/// CC table the node was decided from, the attribute set it was scored
/// over, and the winner/runner-up scores behind the margin trigger.
#[derive(Debug, Clone)]
pub struct RetainedNode {
    /// The exact counts table the node's decision came from — the
    /// fulfilment's own, shared, not a copy — patched in place as deltas
    /// arrive (copied first only if someone else still holds it).
    pub cc: Arc<CountsTable>,
    /// Attribute columns the node was scored over.
    pub attrs: Vec<u16>,
    /// The winning split's score (`None` when no non-degenerate candidate
    /// existed — the node decided leaf).
    pub best_score: Option<f64>,
    /// Best score among candidates inducing a different partition
    /// (`None` when the winner was the only candidate).
    pub runner_score: Option<f64>,
}

/// A grown tree plus the retained per-node state that lets [`maintain`]
/// keep it split-identical to a from-scratch rebuild under churn.
pub struct MaintainableTree {
    /// The current tree. Re-grown subtrees leave their replaced nodes in
    /// the arena as unreachable garbage; every root walk ignores them.
    pub tree: DecisionTree,
    retained: HashMap<usize, RetainedNode>,
    config: GrowConfig,
}

impl MaintainableTree {
    /// The grow configuration the tree is maintained under.
    pub fn config(&self) -> &GrowConfig {
        &self.config
    }

    /// Number of nodes with retained CC tables.
    pub fn retained_nodes(&self) -> usize {
        self.retained.len()
    }

    /// Client-side bytes modelled by the retained CC tables.
    pub fn retained_bytes(&self) -> u64 {
        self.retained
            .values()
            .fold(0u64, |acc, r| acc.saturating_add(r.cc.memory_bytes()))
    }
}

/// Grow a tree through the middleware exactly like
/// [`crate::grow::grow_with_middleware`], additionally retaining each
/// node's CC table and margins so the result can be maintained
/// incrementally. Sampled-accepted nodes retain nothing (their counts are
/// estimates); maintenance re-grows them on first touch, so exact
/// counting (`sampled_counting` off) is the economical mode here.
pub fn grow_maintainable(mw: &mut Middleware, config: &GrowConfig) -> MwResult<MaintainableTree> {
    let (out, retained) = grow_inner(mw, config, Some(HashMap::new()))?;
    Ok(MaintainableTree {
        tree: out.tree,
        retained: retained.unwrap_or_default(),
        config: config.clone(),
    })
}

/// What one [`maintain`] round did.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct MaintainOutcome {
    /// Signed row events drained and routed.
    pub events_routed: u64,
    /// Nodes whose subtree was re-grown (decision changed, or the
    /// structure could not be patched).
    pub nodes_resplit: u64,
    /// Leaves patched in place (class counts / majority updated, no
    /// scan).
    pub leaf_patches: u64,
    /// Internal nodes whose margin exceeded the delta bound, skipping
    /// even the exact client-side re-score.
    pub margin_skips: u64,
    /// Counts requests issued to the middleware by re-grows.
    pub requests_issued: u64,
}

/// One maintenance round: drain the delta log, patch retained CC tables,
/// and re-grow exactly the subtrees whose decisions the deltas could have
/// flipped. After it returns, `model.tree` is split-identical to a
/// from-scratch rebuild at the drained epoch (the equivalence property
/// suite pins this across backends, staging modes, and worker counts).
/// A session that already holds requests is refused before the delta log
/// is drained; after any other error `model` is left partly maintained
/// and should be grown anew.
pub fn maintain(mw: &mut Middleware, model: &mut MaintainableTree) -> MwResult<MaintainOutcome> {
    ensure_idle(mw)?;
    let mut out = MaintainOutcome::default();
    let (events, _epoch) = mw.drain_deltas();
    if events.is_empty() {
        return Ok(out);
    }
    let MaintainableTree {
        tree,
        retained,
        config,
    } = model;
    let class_col = mw.class_col();
    let arity = mw.schema().arity();

    // Route + apply (steps 2–3). The map is bounded by the slack the
    // session lease leaves over its staged bytes; routing a churn bigger
    // than that just applies and drains the buckets in several waves.
    let lease_slack = mw
        .lease_bytes()
        .saturating_sub(mw.staged_mem_bytes())
        .max(1);
    let mut map = DeltaMap::new(arity);
    // |Δ| routed through each node (leaf buckets plus every ancestor).
    let mut touched: HashMap<usize, u64> = HashMap::new();
    // Partitioned nodes a row could not be routed past (a multiway value
    // unseen when the split was chosen): their value set changed, re-grow.
    let mut stuck: HashSet<usize> = HashSet::new();
    // Nodes where a DELETE failed to validate against the retained CC —
    // the retained state cannot be trusted; re-grow from a fresh scan.
    let mut corrupt: HashSet<usize> = HashSet::new();
    for ev in &events {
        out.events_routed += 1;
        let mut idx = 0usize;
        let bucket = loop {
            *touched.entry(idx).or_insert(0) += 1;
            let node = tree.node(idx);
            match &node.state {
                NodeState::Leaf { .. } | NodeState::Active => break idx,
                NodeState::Partitioned { split } => {
                    let next = match split {
                        Split::Binary { attr, value } => {
                            if ev.row[*attr as usize] == *value {
                                node.children.first()
                            } else {
                                node.children.get(1)
                            }
                        }
                        Split::Multiway { attr, values } => values
                            .iter()
                            .position(|&v| v == ev.row[*attr as usize])
                            .and_then(|i| node.children.get(i)),
                    };
                    match next {
                        Some(&c) => idx = c,
                        None => {
                            stuck.insert(idx);
                            break idx;
                        }
                    }
                }
            }
        };
        map.record(NodeId(bucket as u64), ev.sign, &ev.row)?;
        if map.modelled_bytes() >= lease_slack {
            apply_map(&mut map, tree, retained, class_col, &mut corrupt);
        }
    }
    apply_map(&mut map, tree, retained, class_col, &mut corrupt);
    #[cfg(debug_assertions)]
    map.assert_shadow_accounting();

    // Re-decide (step 4): walk touched nodes top-down; untouched subtrees
    // hold exactly the rows they held before, so their decisions stand.
    // The re-grows' requests then run through the grow loop, which
    // escalates every sampled fulfilment: maintenance decisions must come
    // from exact counts.
    let mut state = GrowState::new(config, Some(std::mem::take(retained)), false);
    let mut stack = vec![0usize];
    while let Some(idx) = stack.pop() {
        let Some(&magnitude) = touched.get(&idx) else {
            continue;
        };
        let Some(entry) = state
            .retained_mut()
            .get(&idx)
            .filter(|_| !corrupt.contains(&idx))
        else {
            // A DELETE failed to validate against the retained CC, or the
            // node was touched but never scanned: a sampled-accepted node
            // (no exact CC to patch) — or an immediate leaf whose parent
            // was somehow not visited, which the top-down walk precludes.
            // Re-grow from a fresh scan, sized from the tree and schema.
            let attrs = match state.retained_mut().get(&idx) {
                Some(r) => r.attrs.clone(),
                None => mw.attrs().to_vec(),
            };
            let node = tree.node(idx);
            let rows = node.rows;
            let parent_rows = node.parent.map_or(mw.table_rows(), |p| tree.node(p).rows);
            let schema = mw.schema();
            let cards = attrs
                .iter()
                .map(|&a| u64::from(schema.column(a as usize).cardinality()))
                .collect();
            regrow_via_request(
                mw,
                tree,
                &mut state,
                idx,
                attrs,
                rows,
                parent_rows,
                cards,
                &mut out,
            )?;
            continue;
        };
        if tree.node(idx).is_leaf() {
            // A scanned leaf: re-decide exactly from the patched CC.
            match decide(&entry.cc, &entry.attrs, tree.node(idx).depth, config) {
                Decision::Leaf { class } => {
                    let node = tree.node_mut(idx);
                    node.state = NodeState::Leaf { class };
                    node.class_counts = entry.cc.class_distribution().collect();
                    node.rows = entry.cc.total();
                    out.leaf_patches += 1;
                }
                Decision::Split(_) => regrow_from_cc(mw, tree, &mut state, idx, &mut out)?,
            }
            continue;
        }
        if stuck.contains(&idx) {
            regrow_from_cc(mw, tree, &mut state, idx, &mut out)?;
            continue;
        }
        let split = match &tree.node(idx).state {
            NodeState::Partitioned { split } => split.clone(),
            // Active cannot appear outside the grow loop; a leaf was handled.
            _ => continue,
        };
        // Margin trigger: skip even the client-side re-score when the
        // stored winner-vs-runner-up margin (and the winner's clearance
        // over the leaf threshold) exceeds what `magnitude` events could
        // have moved any score.
        let nclasses = entry.cc.distinct_classes() as u64;
        let bound = delta_score_bound(config.scorer, nclasses, entry.cc.total(), magnitude);
        let margin_safe = match (bound, entry.best_score) {
            (Some(b), Some(best)) => {
                let runner_clear = entry.runner_score.is_none_or(|r| best - r > 2.0 * b);
                let leaf_clear = best - b > 1e-12;
                let still_multi = entry.cc.distinct_classes() > 1
                    && entry.cc.total() >= config.min_rows
                    && !entry.attrs.is_empty();
                runner_clear && leaf_clear && still_multi
            }
            _ => false,
        };
        if margin_safe {
            out.margin_skips += 1;
            // The stored margins are now stale by up to `bound`; shrink
            // them so successive skips stay conservative.
            if let (Some(b), Some(entry)) = (bound, state.retained_mut().get_mut(&idx)) {
                if let Some(best) = entry.best_score.as_mut() {
                    *best -= b;
                }
                if let Some(runner) = entry.runner_score.as_mut() {
                    *runner += b;
                }
            }
        } else {
            // Exact re-decide from the patched CC (no scan); the same
            // enumeration yields the margins to store if the split holds.
            let (decision, (best_score, runner_score)) =
                decide_with_margins(&entry.cc, &entry.attrs, tree.node(idx).depth, config);
            if !matches!(&decision, Decision::Split(s) if *s == split) {
                regrow_from_cc(mw, tree, &mut state, idx, &mut out)?;
                continue;
            }
            // Split kept: refresh the stored margins from the patched CC
            // so future rounds start tight.
            if let Some(e) = state.retained_mut().get_mut(&idx) {
                e.best_score = best_score;
                e.runner_score = runner_score;
            }
        }
        // The split survives. Check that the patched CC still induces the
        // same children structurally, patch immediate-leaf children, and
        // descend into touched subtrees.
        let entry = state
            .retained_mut()
            .get(&idx)
            .expect("entry survives margin path");
        let specs = derive_children(&entry.cc, &split, &entry.attrs);
        let children = tree.node(idx).children.clone();
        if specs.len() != children.len() || specs.iter().any(|s| s.rows == 0) {
            // An emptied child: from scratch this split is degenerate (or
            // a multiway arm vanished) and a different decision wins.
            regrow_from_cc(mw, tree, &mut state, idx, &mut out)?;
            continue;
        }
        let parent_total = entry.cc.total();
        let node = tree.node_mut(idx);
        node.class_counts = entry.cc.class_distribution().collect();
        node.rows = parent_total;
        for (spec, child) in specs.into_iter().zip(children) {
            let child_touched = touched.contains_key(&child);
            let regrow = match state.retained_mut().get(&child) {
                // The child's informative attribute set shifted (e.g. the
                // ≠-branch kept/dropped the split attribute as its
                // cardinality crossed 2): every decision beneath it was
                // scored over the wrong columns. Rescan.
                Some(r) => r.attrs != spec.attrs,
                // An immediate leaf whose patched distribution no longer
                // terminates needs its own counts and decision.
                None => child_touched && !immediate_leaf(&spec, tree.node(child).depth, config),
            };
            if regrow {
                regrow_via_request(
                    mw,
                    tree,
                    &mut state,
                    child,
                    spec.attrs,
                    spec.rows,
                    parent_total,
                    spec.parent_cards,
                    &mut out,
                )?;
            } else if child_touched && !state.retained_mut().contains_key(&child) {
                let node = tree.node_mut(child);
                node.state = NodeState::Leaf {
                    class: spec.majority_class(),
                };
                node.class_counts = spec.class_counts;
                node.rows = spec.rows;
                out.leaf_patches += 1;
            } else if child_touched {
                stack.push(child);
            }
        }
    }
    state.drain(mw, tree)?;
    out.requests_issued = state.requests_issued;
    *retained = state.retained.unwrap_or_default();
    mw.note_resplits(out.nodes_resplit);
    Ok(out)
}

/// Apply and drain every bucket: each leaf batch patches the retained CC
/// of every node on its root path (inserts first, so a same-round
/// insert+delete of one image nets out without a transient underflow).
fn apply_map(
    map: &mut DeltaMap,
    tree: &DecisionTree,
    retained: &mut HashMap<usize, RetainedNode>,
    class_col: u16,
    corrupt: &mut HashSet<usize>,
) {
    for (leaf, delta) in map.drain() {
        let mut path = Vec::new();
        let mut at = Some(leaf.0 as usize);
        while let Some(i) = at {
            path.push(i);
            at = tree.node(i).parent;
        }
        for &i in &path {
            let Some(RetainedNode { cc, attrs, .. }) = retained.get_mut(&i) else {
                continue;
            };
            let cc = Arc::make_mut(cc);
            for row in delta.inserted_rows() {
                cc.add_row(row, attrs, class_col);
            }
            for row in delta.deleted_rows() {
                if !cc.remove_row(row, attrs, class_col) {
                    corrupt.insert(i);
                }
            }
        }
    }
}

/// Reset `idx` for a re-grow: take its retained entry, drop those of the
/// nodes beneath it and cut them loose (the replaced arena nodes become
/// unreachable garbage), count the resplit, and rebuild its lineage.
fn reset(
    tree: &mut DecisionTree,
    state: &mut GrowState,
    idx: usize,
    out: &mut MaintainOutcome,
) -> (Option<RetainedNode>, Lineage) {
    let retained = state.retained_mut();
    let entry = retained.remove(&idx);
    let mut stack = std::mem::take(&mut tree.node_mut(idx).children);
    while let Some(i) = stack.pop() {
        retained.remove(&i);
        stack.extend(tree.node(i).children.iter().copied());
    }
    out.nodes_resplit += 1;
    (entry, lineage_of(tree, idx))
}

/// Reconstruct the lineage of `idx` from its root path (each edge carries
/// its backend predicate).
fn lineage_of(tree: &DecisionTree, idx: usize) -> Lineage {
    let mut path = Vec::new();
    let mut at = Some(idx);
    while let Some(i) = at {
        path.push(i);
        at = tree.node(i).parent;
    }
    path.reverse();
    let mut lineage = Lineage::root(NodeId(path[0] as u64));
    for &i in &path[1..] {
        let edge = tree.node(i).edge.expect("non-root node has an edge");
        lineage = lineage.child(NodeId(i as u64), edge.pred());
    }
    lineage
}

/// Re-grow the subtree under `idx` from its *patched* CC table: no scan
/// for `idx` itself — its decision comes straight from the patched
/// counts — but children that need their own counts are requested.
fn regrow_from_cc(
    mw: &mut Middleware,
    tree: &mut DecisionTree,
    state: &mut GrowState,
    idx: usize,
    out: &mut MaintainOutcome,
) -> MwResult<()> {
    let (entry, lineage) = reset(tree, state, idx, out);
    let entry = entry.ok_or_else(|| {
        MwError::Internal(format!("node {idx} re-grows from a CC it does not retain"))
    })?;
    state.apply_exact(mw, tree, idx, &entry.cc, &lineage, &entry.attrs)
}

/// Re-grow `idx` through a fresh counts request (its retained state is
/// unusable or absent): mark it active and request `attrs`, sized as its
/// caller reads `rows`, `parent_rows` and `parent_cards`.
#[allow(clippy::too_many_arguments)] // the request's fields, as each path reads them
fn regrow_via_request(
    mw: &mut Middleware,
    tree: &mut DecisionTree,
    state: &mut GrowState,
    idx: usize,
    attrs: Vec<u16>,
    rows: u64,
    parent_rows: u64,
    parent_cards: Vec<u64>,
    out: &mut MaintainOutcome,
) -> MwResult<()> {
    let (_, lineage) = reset(tree, state, idx, out);
    tree.node_mut(idx).state = NodeState::Active;
    let class_col = mw.class_col();
    let req = CcRequest {
        lineage,
        attrs,
        class_col,
        rows,
        parent_rows,
        parent_cards,
    };
    state.request(mw, req)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::trees_same_splits;
    use crate::grow::grow_with_middleware;
    use scaleclass::MiddlewareConfig;
    use scaleclass_sqldb::{Database, Pred, Schema};

    const COLS: [(&str, u16); 4] = [("a", 3), ("b", 2), ("noise", 3), ("class", 2)];

    fn db_from_rows(rows: &[[u16; 4]]) -> Database {
        let mut db = Database::new();
        db.create_table("d", Schema::from_pairs(&COLS)).unwrap();
        for r in rows {
            db.insert("d", r).unwrap();
        }
        db
    }

    fn seed_rows(copies: u16) -> Vec<[u16; 4]> {
        // class = (a == 1) XOR b, with a three-valued noise column.
        let mut rows = Vec::new();
        for i in 0..copies {
            for a in 0..3u16 {
                for b in 0..2u16 {
                    let class = (u16::from(a == 1)) ^ b;
                    rows.push([a, b, i % 3, class]);
                }
            }
        }
        rows
    }

    fn maintained_mw(rows: &[[u16; 4]]) -> Middleware {
        let config = MiddlewareConfig::builder().deltas(true).build();
        Middleware::new(db_from_rows(rows), "d", "class", config).unwrap()
    }

    /// Grow a fresh tree over `rows` and assert it is split-identical to
    /// the maintained tree.
    fn assert_matches_rebuild(model: &MaintainableTree, rows: &[[u16; 4]]) {
        let mut mw = Middleware::new(
            db_from_rows(rows),
            "d",
            "class",
            MiddlewareConfig::default(),
        )
        .unwrap();
        let fresh = grow_with_middleware(&mut mw, model.config()).unwrap();
        assert!(
            trees_same_splits(&model.tree, &fresh.tree),
            "maintained tree diverged from a from-scratch rebuild"
        );
    }

    #[test]
    fn grow_maintainable_matches_plain_grow_and_retains() {
        let rows = seed_rows(4);
        let mut mw = maintained_mw(&rows);
        let model = grow_maintainable(&mut mw, &GrowConfig::default()).unwrap();
        assert_matches_rebuild(&model, &rows);
        // Every non-immediate node retains a CC table; at minimum the root.
        assert!(model.retained_nodes() >= 1);
        assert!(model.retained_bytes() > 0);
    }

    #[test]
    fn retained_margins_are_best_two_splits_to_the_bit() {
        // The grower takes a node's margins from the enumeration that
        // decided it; the margin trigger must see exactly what a separate
        // `best_two_splits` over the retained table reports.
        use crate::split::{best_two_splits, Scorer, SplitKind};
        for (scorer, split_kind) in [
            (Scorer::Entropy, SplitKind::Binary),
            (Scorer::Gini, SplitKind::Binary),
            (Scorer::Entropy, SplitKind::Multiway),
        ] {
            let config = GrowConfig {
                scorer,
                split_kind,
                ..GrowConfig::default()
            };
            let mut mw = maintained_mw(&seed_rows(5));
            let model = grow_maintainable(&mut mw, &config).unwrap();
            let mut partitioned = 0;
            for (idx, node) in model.tree.nodes().iter().enumerate() {
                if !matches!(node.state, NodeState::Partitioned { .. }) {
                    continue;
                }
                partitioned += 1;
                let r = &model.retained[&idx];
                let (best, runner) = best_two_splits(&r.cc, &r.attrs, split_kind, scorer)
                    .expect("a partitioned node has a winner");
                assert_eq!(r.best_score.map(f64::to_bits), Some(best.score.to_bits()));
                assert_eq!(r.runner_score.map(f64::to_bits), runner.map(f64::to_bits));
            }
            assert!(partitioned >= 2, "{scorer:?}/{split_kind:?}");
        }
    }

    #[test]
    fn maintain_without_mutations_is_a_noop() {
        let rows = seed_rows(4);
        let mut mw = maintained_mw(&rows);
        let mut model = grow_maintainable(&mut mw, &GrowConfig::default()).unwrap();
        let before = model.tree.len();
        let out = maintain(&mut mw, &mut model).unwrap();
        assert_eq!(out, MaintainOutcome::default());
        assert_eq!(model.tree.len(), before);
    }

    /// `grow_maintainable` and `maintain` refuse a session that already
    /// holds a request, `maintain` before it drains the delta log.
    #[test]
    fn a_session_holding_requests_is_refused() {
        let rows = seed_rows(4);
        let mut mw = maintained_mw(&rows);
        let mut model = grow_maintainable(&mut mw, &GrowConfig::default()).unwrap();
        mw.insert_row(&[0, 0, 0, 0]).unwrap();
        let req = mw.root_request(NodeId(99));
        mw.enqueue(req).unwrap();
        let before = *mw.stats();
        let err = grow_maintainable(&mut mw, &GrowConfig::default()).err();
        assert!(matches!(err, Some(MwError::BadRequest(_))), "{err:?}");
        assert_eq!(mw.pending_len(), 1);
        assert_eq!(*mw.stats(), before);
        let err = maintain(&mut mw, &mut model).unwrap_err();
        assert!(matches!(err, MwError::BadRequest(_)), "{err}");
        assert_eq!(mw.pending_len(), 1);
        assert_eq!(*mw.stats(), before, "the delta log was not drained");
    }

    #[test]
    fn inserts_patch_to_rebuild_equivalence() {
        let mut rows = seed_rows(4);
        let mut mw = maintained_mw(&rows);
        let mut model = grow_maintainable(&mut mw, &GrowConfig::default()).unwrap();
        for r in [[0u16, 0, 0, 0], [1, 1, 2, 1], [2, 1, 1, 1]] {
            mw.insert_row(&r).unwrap();
            rows.push(r);
        }
        let out = maintain(&mut mw, &mut model).unwrap();
        assert_eq!(out.events_routed, 3);
        assert_matches_rebuild(&model, &rows);
    }

    #[test]
    fn deletes_patch_to_rebuild_equivalence() {
        let mut rows = seed_rows(4);
        let mut mw = maintained_mw(&rows);
        let mut model = grow_maintainable(&mut mw, &GrowConfig::default()).unwrap();
        let pred = Pred::And(vec![
            Pred::Eq { col: 0, value: 2 },
            Pred::Eq { col: 2, value: 0 },
        ]);
        let removed = mw.delete_where(&pred).unwrap();
        assert!(removed > 0);
        rows.retain(|r| !(r[0] == 2 && r[2] == 0));
        let out = maintain(&mut mw, &mut model).unwrap();
        assert_eq!(out.events_routed, removed);
        assert_matches_rebuild(&model, &rows);
    }

    #[test]
    fn updates_patch_to_rebuild_equivalence() {
        let mut rows = seed_rows(4);
        let mut mw = maintained_mw(&rows);
        let mut model = grow_maintainable(&mut mw, &GrowConfig::default()).unwrap();
        // Flip the class of every (a=0, b=0) row: the rebuilt tree must
        // re-decide the affected branch.
        let pred = Pred::And(vec![
            Pred::Eq { col: 0, value: 0 },
            Pred::Eq { col: 1, value: 0 },
        ]);
        let changed = mw.update_where(&pred, &[(3, 1)]).unwrap();
        assert!(changed > 0);
        for r in rows.iter_mut() {
            if r[0] == 0 && r[1] == 0 {
                r[3] = 1;
            }
        }
        let out = maintain(&mut mw, &mut model).unwrap();
        // An update logs a delete + an insert per row.
        assert_eq!(out.events_routed, changed * 2);
        assert_matches_rebuild(&model, &rows);
    }

    #[test]
    fn small_churn_margin_skips_the_root() {
        // class == (a == 1): a 240-row table where the root split's margin
        // dwarfs what one inserted row can move.
        let mut rows = Vec::new();
        for i in 0..40u16 {
            for a in 0..3u16 {
                rows.push([a, i % 2, i % 3, u16::from(a == 1)]);
            }
        }
        let mut mw = maintained_mw(&rows);
        let mut model = grow_maintainable(&mut mw, &GrowConfig::default()).unwrap();
        let noise = [1u16, 0, 0, 0];
        mw.insert_row(&noise).unwrap();
        rows.push(noise);
        let out = maintain(&mut mw, &mut model).unwrap();
        assert!(out.margin_skips >= 1, "root margin should skip re-scoring");
        assert_matches_rebuild(&model, &rows);
    }

    #[test]
    fn churn_bigger_than_margin_resplits() {
        // Start with class == (a == 1); delete every a=1 row and insert
        // rows where class == b instead. The a-split becomes worthless and
        // the rebuilt concept is b — the root must re-split.
        let mut rows = Vec::new();
        for i in 0..12u16 {
            for a in 0..3u16 {
                for b in 0..2u16 {
                    rows.push([a, b, i % 3, u16::from(a == 1)]);
                }
            }
        }
        let mut mw = maintained_mw(&rows);
        let mut model = grow_maintainable(&mut mw, &GrowConfig::default()).unwrap();
        let removed = mw.delete_where(&Pred::Eq { col: 0, value: 1 }).unwrap();
        assert!(removed > 0);
        rows.retain(|r| r[0] != 1);
        for i in 0..12u16 {
            for a in [0u16, 2] {
                let r = [a, 1, i % 3, 1];
                mw.insert_row(&r).unwrap();
                rows.push(r);
            }
        }
        let out = maintain(&mut mw, &mut model).unwrap();
        assert!(out.nodes_resplit >= 1, "concept flip must re-split");
        assert_matches_rebuild(&model, &rows);
        // The new root split is on b, not a.
        match &model.tree.root().unwrap().state {
            NodeState::Partitioned { split } => assert_eq!(split.attr(), 1),
            other => panic!("root should have re-split, got {other:?}"),
        }
    }

    #[test]
    fn multiway_maintenance_handles_new_and_vanished_values() {
        let cfg = GrowConfig {
            split_kind: crate::split::SplitKind::Multiway,
            ..GrowConfig::default()
        };
        let mut rows = seed_rows(4);
        let mut mw = maintained_mw(&rows);
        let mut model = grow_maintainable(&mut mw, &cfg).unwrap();
        // Remove every a=2 row (a value arm vanishes) …
        mw.delete_where(&Pred::Eq { col: 0, value: 2 }).unwrap();
        rows.retain(|r| r[0] != 2);
        let out = maintain(&mut mw, &mut model).unwrap();
        assert!(out.events_routed > 0);
        assert_matches_rebuild(&model, &rows);
        // … then bring it back (an unrouteable value re-appears).
        for b in 0..2u16 {
            for n in 0..3u16 {
                let r = [2u16, b, n, b];
                mw.insert_row(&r).unwrap();
                rows.push(r);
            }
        }
        maintain(&mut mw, &mut model).unwrap();
        assert_matches_rebuild(&model, &rows);
    }

    #[test]
    fn repeated_rounds_stay_equivalent() {
        let mut rows = seed_rows(3);
        let mut mw = maintained_mw(&rows);
        let mut model = grow_maintainable(&mut mw, &GrowConfig::default()).unwrap();
        for round in 0..5u16 {
            let r = [round % 3, round % 2, round % 3, (round % 2) ^ 1];
            mw.insert_row(&r).unwrap();
            rows.push(r);
            if round % 2 == 0 {
                let pred = Pred::And(vec![
                    Pred::Eq {
                        col: 0,
                        value: round % 3,
                    },
                    Pred::Eq {
                        col: 2,
                        value: round % 3,
                    },
                ]);
                let victims: Vec<[u16; 4]> = rows
                    .iter()
                    .filter(|r| r[0] == round % 3 && r[2] == round % 3)
                    .copied()
                    .collect();
                let removed = mw.delete_where(&pred).unwrap();
                assert_eq!(removed as usize, victims.len());
                rows.retain(|r| !(r[0] == round % 3 && r[2] == round % 3));
            }
            maintain(&mut mw, &mut model).unwrap();
            assert_matches_rebuild(&model, &rows);
        }
    }
}
