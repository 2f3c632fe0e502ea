//! Span recording and the build drivers.
//!
//! [`build`] is the one entry point for a complete model build. With the
//! tracer disabled it goes through the public client API exactly as a user
//! would (`grow_with_middleware`, or `grow_maintainable` + `maintain`
//! rounds). With the tracer enabled it drives the same build from the
//! harness's own copy of the grow loop and records a span around every
//! call into a layer; spans live in memory until the run ends. Inside
//! `process_next_batch` — one opaque call from here — time is split
//! afterwards with the counters the middleware already exports.

use crate::json::Json;
use crate::workloads::Mutation;
use scaleclass::{CcRequest, CountsTable, Lineage, Middleware, MwResult, NodeId};
use scaleclass_dtree::grow::{immediate_leaf, ChildSpec};
use scaleclass_dtree::{
    decide, derive_children, grow_maintainable, grow_with_middleware, maintain, Decision,
    DecisionTree, GrowConfig, NodeState, Split, TreeNode,
};
use std::collections::HashMap;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer boundary crossed, e.g. `mw.batch`.
    pub name: &'static str,
    /// Nanoseconds from the tracer's origin.
    pub start_ns: u64,
    /// Nanoseconds from the tracer's origin.
    pub end_ns: u64,
    /// The span that was open when this one started.
    pub parent: Option<usize>,
    /// Build (rep index) the span belongs to.
    pub build: u32,
}

impl Span {
    /// Duration in seconds.
    pub fn secs(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e9
    }
}

/// In-memory span recorder. Disabled, `enter`/`exit` are a branch each.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    build: u32,
    open: Vec<usize>,
    /// Every span recorded so far; a span's index is its id.
    pub spans: Vec<Span>,
}

impl Tracer {
    /// A recorder that records nothing.
    pub fn disabled() -> Self {
        Tracer {
            enabled: false,
            origin: Instant::now(),
            build: 0,
            open: Vec::new(),
            spans: Vec::new(),
        }
    }

    /// A recorder tagging its spans with build id `build`.
    pub fn enabled(build: u32) -> Self {
        Tracer {
            enabled: true,
            build,
            ..Tracer::disabled()
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Open a span under the currently open one; returns its id.
    pub fn enter(&mut self, name: &'static str) -> usize {
        if !self.enabled {
            return 0;
        }
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            build: self.build,
        });
        self.open.push(id);
        id
    }

    /// Close span `id` (must be the innermost open span).
    pub fn exit(&mut self, id: usize) {
        if !self.enabled {
            return;
        }
        let top = self.open.pop();
        debug_assert_eq!(top, Some(id), "spans must nest");
        self.spans[id].end_ns = self.now_ns();
    }

    /// Durations in seconds of every span called `name`, in start order.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::secs)
            .collect()
    }

    /// Total seconds spent in spans called `name`.
    pub fn total(&self, name: &str) -> f64 {
        // `+ 0.0`: an empty f64 sum is -0.0, which prints as "-0".
        self.durations(name).iter().sum::<f64>() + 0.0
    }

    /// Span `id`'s duration minus the part its direct children cover.
    pub fn self_secs(&self, id: usize) -> f64 {
        let children: f64 = self
            .spans
            .iter()
            .filter(|s| s.parent == Some(id))
            .map(Span::secs)
            .sum();
        self.spans[id].secs() - children
    }

    /// The trace as JSON: `{"workload", "spans": [{id, name, start_ns,
    /// end_ns, parent, build}]}`.
    pub fn to_json(&self, workload: &str) -> Json {
        let spans = self
            .spans
            .iter()
            .enumerate()
            .map(|(id, s)| {
                Json::obj([
                    ("id", Json::from(id as u64)),
                    ("name", Json::str(s.name)),
                    ("start_ns", Json::from(s.start_ns)),
                    ("end_ns", Json::from(s.end_ns)),
                    (
                        "parent",
                        s.parent.map_or(Json::Null, |p| Json::from(p as u64)),
                    ),
                    ("build", Json::from(u64::from(s.build))),
                ])
            })
            .collect();
        Json::obj([
            ("workload", Json::str(workload)),
            ("spans", Json::Arr(spans)),
        ])
    }
}

/// What one complete build produced.
#[derive(Debug)]
pub struct Built {
    /// The finished model.
    pub tree: DecisionTree,
    /// Mutation statements executed (0 without churn).
    pub statements: u64,
    /// `maintain` rounds executed (0 without churn).
    pub maintain_rounds: u64,
    /// Traced non-churn builds only: the widest pending request queue any
    /// scheduling round faced (input of `probe.scheduler.schedule_us`).
    pub widest_queue: Vec<CcRequest>,
}

/// Run one complete build of the workload on `mw`: a full tree, then — if
/// `script` is non-empty — every mutate/maintain round. The whole build is
/// one `build` span.
pub fn build(
    mw: &mut Middleware,
    script: &[Vec<Mutation>],
    config: &GrowConfig,
    tr: &mut Tracer,
) -> MwResult<Built> {
    let span = tr.enter("build");
    let built = if !script.is_empty() {
        churn_build(mw, script, config, tr)
    } else if tr.enabled {
        traced_grow(mw, config, tr)
    } else {
        grow_with_middleware(mw, config).map(|out| Built {
            tree: out.tree,
            statements: 0,
            maintain_rounds: 0,
            widest_queue: Vec::new(),
        })
    };
    tr.exit(span);
    built
}

/// Maintainable build plus the scripted rounds. `grow_maintainable` and
/// `maintain` are single public calls, so the trace sees them as one span
/// each and attributes their inside from counters only.
fn churn_build(
    mw: &mut Middleware,
    script: &[Vec<Mutation>],
    config: &GrowConfig,
    tr: &mut Tracer,
) -> MwResult<Built> {
    let class_col = usize::from(mw.class_col());
    let span = tr.enter("maintain.grow");
    let mut model = grow_maintainable(mw, config)?;
    tr.exit(span);
    let mut statements = 0u64;
    for round in script {
        let span = tr.enter("maintain.mutate");
        for m in round {
            match m {
                Mutation::Insert(row) => mw.insert_row(row)?,
                Mutation::Delete(pred) => {
                    mw.delete_where(pred)?;
                }
                Mutation::Update(pred, class) => {
                    mw.update_where(pred, &[(class_col, *class)])?;
                }
            }
        }
        statements += round.len() as u64;
        tr.exit(span);
        let span = tr.enter("maintain.maintain");
        maintain(mw, &mut model)?;
        tr.exit(span);
    }
    Ok(Built {
        tree: model.tree,
        statements,
        maintain_rounds: script.len() as u64,
        widest_queue: Vec::new(),
    })
}

/// A fresh tree holding only an active root over `rows` rows.
fn new_tree(rows: u64) -> DecisionTree {
    let mut tree = DecisionTree::new();
    tree.push(TreeNode {
        id: 0,
        parent: None,
        edge: None,
        depth: 0,
        state: NodeState::Active,
        class_counts: Vec::new(),
        rows,
        children: Vec::new(),
        source: None,
    });
    tree
}

/// Record node `idx`'s exact counts and decide its fate: returns the split
/// to partition on, or `None` after marking the node a leaf.
fn decide_node(
    tree: &mut DecisionTree,
    idx: usize,
    cc: &CountsTable,
    attrs: &[u16],
    config: &GrowConfig,
) -> Option<Split> {
    let depth = tree.node(idx).depth;
    let node = tree.node_mut(idx);
    node.class_counts = cc.class_distribution().collect();
    node.rows = cc.total();
    match decide(cc, attrs, depth, config) {
        Decision::Leaf { class } => {
            node.state = NodeState::Leaf { class };
            None
        }
        Decision::Split(split) => Some(split),
    }
}

/// Partition node `idx` on `split`: push its children (immediate leaves
/// settled from the parent's counts) and return the ones that still need
/// their own counts table, as `(arena index, spec)`.
fn split_node(
    tree: &mut DecisionTree,
    idx: usize,
    cc: &CountsTable,
    split: Split,
    attrs: &[u16],
    config: &GrowConfig,
) -> Vec<(usize, ChildSpec)> {
    let depth = tree.node(idx).depth + 1;
    let specs = derive_children(cc, &split, attrs);
    tree.node_mut(idx).state = NodeState::Partitioned { split };
    let mut open = Vec::new();
    for spec in specs {
        let leaf_now = immediate_leaf(&spec, depth, config);
        let state = if leaf_now {
            let class = spec
                .class_counts
                .iter()
                .max_by_key(|&&(_, n)| n)
                .map_or(0, |&(c, _)| c);
            NodeState::Leaf { class }
        } else {
            NodeState::Active
        };
        let child = tree.push(TreeNode {
            id: 0,
            parent: Some(idx),
            edge: Some(spec.edge),
            depth,
            state,
            class_counts: spec.class_counts.clone(),
            rows: spec.rows,
            children: Vec::new(),
            source: None,
        });
        if !leaf_now {
            open.push((child, spec));
        }
    }
    open
}

/// The harness's copy of `dtree::grow_with_middleware` (exact counting
/// only), one span per layer call.
fn traced_grow(mw: &mut Middleware, config: &GrowConfig, tr: &mut Tracer) -> MwResult<Built> {
    let mut tree = new_tree(mw.table_rows());
    // Outstanding requests: what each fulfilment will be decided with.
    let mut open: HashMap<u64, (Lineage, Vec<u16>)> = HashMap::new();
    // Every request with the round it was queued before, and the round
    // that fulfilled each node: enough to rebuild any round's queue later
    // without copying queues while the clock runs.
    let mut issued: Vec<(u32, CcRequest)> = Vec::new();
    let mut fulfilled_in: HashMap<u64, u32> = HashMap::new();

    let root = mw.root_request(NodeId(0));
    open.insert(0, (root.lineage.clone(), root.attrs.clone()));
    issued.push((0, root.clone()));
    let span = tr.enter("mw.enqueue");
    mw.enqueue(root)?;
    tr.exit(span);

    let mut round = 0u32;
    while mw.has_pending() {
        let span = tr.enter("mw.batch");
        let fulfilled = mw.process_next_batch()?;
        tr.exit(span);
        for f in fulfilled {
            assert!(f.sample.is_none(), "workloads count exactly");
            let idx = f.node.0 as usize;
            let span = tr.enter("client.decide");
            let (lineage, attrs) = open
                .remove(&f.node.0)
                .expect("fulfilled node was requested");
            fulfilled_in.insert(f.node.0, round);
            let split = decide_node(&mut tree, idx, &f.cc, &attrs, config);
            tr.exit(span);
            let Some(split) = split else { continue };

            let span = tr.enter("client.derive");
            let children = split_node(&mut tree, idx, &f.cc, split, &attrs, config);
            tr.exit(span);

            let span = tr.enter("mw.enqueue");
            for (child, spec) in children {
                let child_lineage = lineage.child(NodeId(child as u64), spec.edge_pred);
                let req = CcRequest {
                    lineage: child_lineage.clone(),
                    attrs: spec.attrs.clone(),
                    class_col: mw.class_col(),
                    rows: spec.rows,
                    parent_rows: f.cc.total(),
                    parent_cards: spec.parent_cards,
                };
                open.insert(child as u64, (child_lineage, spec.attrs));
                issued.push((round + 1, req.clone()));
                mw.enqueue(req)?;
            }
            tr.exit(span);
        }
        round += 1;
    }

    // Round r faced every request queued before it and not yet fulfilled.
    let pending_at =
        |r: u32, (queued, req): &(u32, CcRequest)| *queued <= r && fulfilled_in[&req.node().0] >= r;
    let queue_at = |r: u32| issued.iter().filter(move |q| pending_at(r, q));
    let widest = (0..round).max_by_key(|&r| queue_at(r).count()).unwrap_or(0);
    Ok(Built {
        tree,
        statements: 0,
        maintain_rounds: 0,
        widest_queue: queue_at(widest).map(|(_, req)| req.clone()).collect(),
    })
}
