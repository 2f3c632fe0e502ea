//! # scaleclass-bench
//!
//! Shared harness for regenerating every figure of the ICDE'99 evaluation
//! (§5). The binary `experiments` prints one TSV block per figure. Timed,
//! repeatable performance measurement is `benchmark/`'s job, not this
//! crate's.
//!
//! Absolute 1999 wall-clock seconds are not reproducible; each run reports
//! **wall seconds** on the host *and* a deterministic **simulated cost**
//! combining server I/O (pages, wire rows, round trips) with middleware
//! I/O (staging file and memory traffic). The figures' *shapes* — who
//! wins, where curves flatten, where crossovers fall — are asserted on the
//! simulated cost by the integration tests.

#![warn(missing_docs)]
#![deny(unsafe_code)]

pub mod report;
pub mod workloads;

use scaleclass::{Middleware, MiddlewareConfig, MiddlewareStats};
use scaleclass_dtree::{grow_with_middleware, GrowConfig, GrowOutcome};
use scaleclass_sqldb::{Database, StatsSnapshot};
use std::time::Instant;

/// Everything one tree-growth run produces.
#[derive(Debug, Clone)]
pub struct RunMetrics {
    /// Host wall-clock seconds for the growth loop.
    pub wall_secs: f64,
    /// Server-side work during the run.
    pub server: StatsSnapshot,
    /// Middleware-side work during the run.
    pub middleware: MiddlewareStats,
    /// Nodes in the grown tree.
    pub tree_nodes: usize,
    /// Tree depth (root = 0).
    pub tree_depth: usize,
    /// Leaves in the grown tree.
    pub tree_leaves: usize,
    /// Counts requests issued by the client.
    pub requests: u64,
}

impl RunMetrics {
    /// The headline scalar: simulated server cost + simulated middleware
    /// cost. Deterministic for a given workload/configuration.
    pub fn simulated_cost(&self) -> u64 {
        self.server.simulated_cost() + self.middleware.simulated_cost()
    }

    /// The same scalar under explicit cost weights (e.g.
    /// [`scaleclass_sqldb::CostWeights::lan1999`] to reproduce the paper's
    /// I/O ratios).
    pub fn simulated_cost_with(&self, w: &scaleclass_sqldb::CostWeights) -> u64 {
        self.server.simulated_cost_with(w) + self.middleware.simulated_cost_with(w)
    }

    /// Simulated cost with auxiliary-structure build cost removed — the
    /// "idealized" accounting of §5.2.5 ("we simulate an idealized
    /// situation on the server by neglecting the cost of creating index
    /// structures").
    pub fn simulated_cost_idealized(&self) -> u64 {
        let build = self.middleware.aux_build_cost.simulated_cost();
        self.simulated_cost().saturating_sub(build)
    }
}

/// Grow a full tree over `db.table` through a middleware with the given
/// configuration, measuring everything.
pub fn run_tree_growth(
    db: Database,
    table: &str,
    class_column: &str,
    mw_config: MiddlewareConfig,
    grow_config: &GrowConfig,
) -> RunMetrics {
    let mut mw = Middleware::new(db, table, class_column, mw_config).expect("session setup");
    let before = mw.db_stats();
    let start = Instant::now();
    let GrowOutcome {
        tree,
        requests_issued,
    } = grow_with_middleware(&mut mw, grow_config).expect("tree growth");
    let wall_secs = start.elapsed().as_secs_f64();
    RunMetrics {
        wall_secs,
        server: mw.db_stats() - before,
        middleware: *mw.stats(),
        tree_nodes: tree.len(),
        tree_depth: tree.depth().unwrap_or(0),
        tree_leaves: tree.leaves().count(),
        requests: requests_issued,
    }
}

/// The §2.3 straightforward-SQL baseline: grow the same tree, but compute
/// every node's counts table with the UNION-of-GROUP-BY query (one server
/// scan per attribute per node; no batching, no staging).
pub fn run_tree_growth_via_sql(
    db: Database,
    table: &str,
    class_column: &str,
    grow_config: &GrowConfig,
) -> RunMetrics {
    use scaleclass_dtree::{decide, derive_children, grow::immediate_leaf, Decision};

    let mw = Middleware::new(db, table, class_column, MiddlewareConfig::default())
        .expect("session setup");
    let before = mw.db_stats();
    let start = Instant::now();

    let mut queue = vec![mw.root_request(scaleclass::NodeId(0))];
    let mut next_id = 1u64;
    let mut requests = 0u64;
    let mut nodes = 0usize;
    let mut leaves = 0usize;
    let mut max_depth = 0usize;

    while let Some(req) = queue.pop() {
        requests += 1;
        nodes += 1;
        let depth = req.lineage.depth();
        max_depth = max_depth.max(depth);
        let cc = mw.cc_via_sql_baseline(&req).expect("SQL counting");
        match decide(&cc, &req.attrs, depth, grow_config) {
            Decision::Leaf { .. } => leaves += 1,
            Decision::Split(split) => {
                for spec in derive_children(&cc, &split, &req.attrs) {
                    if immediate_leaf(&spec, depth + 1, grow_config) {
                        // Counted here; never enters the queue.
                        nodes += 1;
                        leaves += 1;
                        max_depth = max_depth.max(depth + 1);
                        continue;
                    }
                    // Counted when popped from the queue.
                    let lineage = req
                        .lineage
                        .child(scaleclass::NodeId(next_id), spec.edge_pred.clone());
                    next_id += 1;
                    queue.push(scaleclass::CcRequest {
                        lineage,
                        attrs: spec.attrs,
                        class_col: mw.class_col(),
                        rows: spec.rows,
                        parent_rows: cc.total(),
                        parent_cards: spec.parent_cards,
                    });
                }
            }
        }
    }

    RunMetrics {
        wall_secs: start.elapsed().as_secs_f64(),
        server: mw.db_stats() - before,
        middleware: *mw.stats(),
        tree_nodes: nodes,
        tree_depth: max_depth,
        tree_leaves: leaves,
        requests,
    }
}

/// The §2.3 full-extraction baseline: ship the entire table to the client
/// over the wire, then grow the tree in client memory.
pub fn run_extract_and_grow(
    db: Database,
    table: &str,
    class_column: &str,
    grow_config: &GrowConfig,
) -> RunMetrics {
    let mw = Middleware::new(db, table, class_column, MiddlewareConfig::default())
        .expect("session setup");
    let before = mw.db_stats();
    let start = Instant::now();
    let flat = mw
        .extract_all(scaleclass_sqldb::Pred::True)
        .expect("extraction");
    let arity = mw.schema().arity();
    let attrs: Vec<u16> = mw.attrs().to_vec();
    let tree = scaleclass_dtree::grow_in_memory(&flat, arity, mw.class_col(), &attrs, grow_config);
    // Charge the client's local counting honestly: every node whose counts
    // were computed from raw rows (the root plus all partitioned nodes —
    // immediate leaves inherit counts from their parent's table) touched
    // its subset once.
    let mut middleware = *mw.stats();
    middleware.memory_rows_read = tree
        .nodes()
        .iter()
        .filter(|n| n.id == 0 || !n.children.is_empty())
        .map(|n| n.rows)
        .sum();
    RunMetrics {
        wall_secs: start.elapsed().as_secs_f64(),
        server: mw.db_stats() - before,
        middleware,
        tree_nodes: tree.len(),
        tree_depth: tree.depth().unwrap_or(0),
        tree_leaves: tree.leaves().count(),
        requests: 1,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::fig4_workload;
    use scaleclass_dtree::GrowConfig;

    #[test]
    fn run_produces_consistent_metrics() {
        let db = fig4_workload(20, 30.0).into_db("d");
        let m = run_tree_growth(
            db,
            "d",
            "class",
            MiddlewareConfig::default(),
            &GrowConfig::default(),
        );
        assert!(m.tree_nodes >= 1);
        assert!(m.tree_leaves >= 1);
        assert!(m.requests >= 1);
        assert!(m.server.seq_scans >= 1);
        assert!(m.simulated_cost() > 0);
        assert!(m.simulated_cost_idealized() <= m.simulated_cost());
    }

    #[test]
    fn simulated_cost_is_deterministic() {
        let run = || {
            let db = fig4_workload(20, 30.0).into_db("d");
            run_tree_growth(
                db,
                "d",
                "class",
                MiddlewareConfig::default(),
                &GrowConfig::default(),
            )
            .simulated_cost()
        };
        assert_eq!(run(), run());
    }
}
