//! The priority-based scheduler (§4.2).
//!
//! Each scheduling round turns the head of the request queue into a
//! [`BatchPlan`]: one data source plus the set of nodes whose counts tables
//! a single scan of that source will build, annotated with staging
//! directives. The paper's rules, implemented literally:
//!
//! * **Rule 1** — In-Memory Scan > Middleware File Scan > Server Scan.
//! * **Rule 2** — nodes scheduled together must share the same in-memory
//!   data set or the same middleware file. (Server scans batch freely: one
//!   table scan serves any mix of nodes.)
//! * **Rule 3** — among eligible nodes, smallest estimated counts table
//!   first, admitted while the estimates fit the counting budget.
//! * **Rule 4** — only scheduled nodes qualify for staging.
//! * **Rule 5** — stage largest data sets first, while they fit.
//! * **Rule 6** — server → file precedes file → memory: when file staging
//!   is enabled, data coming from the server is staged to file this round;
//!   memory staging happens on a later (file-sourced) round. With file
//!   staging disabled, server → memory staging is direct.

use crate::config::{FileStagingPolicy, MiddlewareConfig};
use crate::estimator::{data_bytes, est_cc_bytes_kind, est_cc_bytes_upper};
use crate::request::{CcRequest, DataLocation, Lineage, NodeId};
use crate::staging::{StagingManager, Tier};

/// One scheduled node within a batch.
#[derive(Debug)]
pub struct ScheduledNode {
    /// The request to serve.
    pub req: CcRequest,
    /// Estimated counts-table footprint (Est_cc, §4.2.1) in bytes.
    pub est_cc_bytes: u64,
    /// Estimated relevant-data footprint staged in memory (`rows × arity ×
    /// width`, [`StagingManager::mem_width`]) in bytes — lets the executor
    /// pre-size staging buffers instead of growing them row by row.
    pub est_data_bytes: u64,
    /// Write this node's rows to a new middleware file during the scan.
    pub stage_file: bool,
    /// Buffer this node's rows into middleware memory during the scan.
    pub stage_mem: bool,
    /// Build this node's counts table on the dense flat-array backend:
    /// the *schema* cardinalities of its attributes bound the slot array
    /// under `cc_dense_max_bytes`. Physical-layout choice only — budget
    /// admission above stays entry-modelled either way.
    pub dense: bool,
}

/// A planned batch: one source, several nodes.
#[derive(Debug)]
pub struct BatchPlan {
    /// Where the batch's rows come from.
    pub source: DataLocation,
    /// The scheduled nodes (Rule 3 order).
    pub nodes: Vec<ScheduledNode>,
    /// Hybrid-policy split (§4.3.2): while scanning the source file, also
    /// write one new smaller file holding the union of the scheduled
    /// nodes' rows, replacing their claim on the big file.
    pub split_file: bool,
    /// The memory-tier twin of `split_file`: `Some(waiting)` when the set
    /// shrinks in place (`compacts`) to the rows the batch's nodes and the
    /// requests still queued on its private memory source take, the
    /// lineages of the latter being `waiting`. The scan records those rows
    /// and the set is handed to the nodes and the waiting requests
    /// together (`StagingManager::compact_mem`).
    pub compact_mem: Option<Vec<Lineage>>,
    /// Rows the whole frontier reads: the scheduled nodes' and those of
    /// the requests still queued. Staging (Rule 5) and the §4.3.3
    /// threshold are judged on it, not on this batch alone — the paper
    /// observes the techniques only apply once the active data set has
    /// genuinely shrunk.
    pub frontier_rows: u64,
}

impl BatchPlan {
    /// Total rows the scheduled nodes will read (relevant data).
    pub fn relevant_rows(&self) -> u64 {
        self.nodes.iter().map(|n| n.req.rows).sum()
    }

    /// Node ids in the batch.
    pub fn node_ids(&self) -> Vec<NodeId> {
        self.nodes.iter().map(|n| n.req.node()).collect()
    }

    /// Least common ancestor of the scheduled nodes.
    pub fn common_ancestor(&self) -> Option<NodeId> {
        let lineages: Vec<&Lineage> = self.nodes.iter().map(|n| &n.req.lineage).collect();
        Lineage::common_ancestor(&lineages)
    }
}

/// Retired with sampled counting (DESIGN.md §13): it holds nothing and
/// [`schedule`] ignores it. Only `benchmark/`'s scheduler probe still
/// passes one; ROADMAP item 1(g) removes that call, after which a change that
/// touches only `crates/` deletes the name and the parameter.
#[derive(Debug, Default, Clone, Copy)]
pub struct SampledLedger;

/// Produce the next batch plan, removing the scheduled requests from
/// `pending`. Returns `None` when the queue is empty.
///
/// `nclasses` is the cardinality of the class column; `arity` the table
/// row width in columns, each staged in memory in `staging`'s
/// [`StagingManager::mem_width`]; `col_cards` the *schema* value cardinality of
/// each table column (the exclusive code bound the dense counting backend
/// sizes its slot arrays by — node-local distinct counts like
/// `parent_cards` underestimate code ranges and must not be used here).
///
/// `lease_bytes` is the memory budget this scheduling round runs under —
/// the calling session's lease from the
/// [`crate::session::BudgetArbiter`], not the global
/// `config.memory_budget_bytes` (a lone session's lease *is* the whole
/// budget, so single-session behaviour is unchanged).
///
/// The last parameter is unused: see [`SampledLedger`].
#[allow(clippy::too_many_arguments)]
pub fn schedule(
    pending: &mut Vec<CcRequest>,
    staging: &StagingManager,
    config: &MiddlewareConfig,
    col_cards: &[u64],
    nclasses: u64,
    arity: usize,
    lease_bytes: u64,
    _: &SampledLedger,
) -> Option<BatchPlan> {
    if pending.is_empty() {
        return None;
    }

    // Resolve each pending request's best source.
    let locations: Vec<DataLocation> = pending
        .iter()
        .map(|r| staging.best_location(&r.lineage))
        .collect();

    // Rule 1: pick the highest-priority location class present; the group
    // anchor is the *earliest queued* request of that class (FIFO fairness
    // between equal-priority datasets).
    let best_priority = locations
        .iter()
        .map(DataLocation::priority)
        .max()
        .expect("pending non-empty");
    let anchor = locations
        .iter()
        .position(|l| l.priority() == best_priority)
        .expect("a request has the best priority");
    let source = locations[anchor];

    // Rule 2: the group is every pending request resolving to the same
    // dataset (same id); for the server, every server-bound request. Each
    // comes with its Est_cc (§4.2.1), computed once.
    let est_of = |req: &CcRequest| est_cc_bytes_kind(req, nclasses, config.estimator);
    let mut group: Vec<(usize, u64)> = (locations.iter().enumerate())
        .filter(|(_, l)| **l == source)
        .map(|(i, _)| (i, est_of(&pending[i])))
        .collect();

    // Rule 3: smallest estimated counts table first (the FIFO alternative
    // exists only for the ablation bench).
    if config.rule3_smallest_first {
        group.sort_by_key(|&(_, est)| est);
    }

    // Admit while the *hard* counts-table bounds fit the counting budget
    // (total budget minus memory already pinned by staged data —
    // `staged_mem_bytes` folds in this session's per-reader share of any
    // shared-catalog entries it reads, so cache hits shrink admission
    // exactly like privately staged sets); the selectable Est_cc drives
    // ordering, the guaranteed bound drives admission (see
    // `est_cc_bytes_upper`). Always admit at least one — the §4.1.1
    // runtime fallback handles that degenerate case.
    //
    // Admission reasons about whole-table bounds only. The batched kernel
    // (DESIGN.md §12) moves the *runtime* budget checkpoint from row to
    // block granularity, but its per-block growth bound is reserved before
    // any block is counted, so nothing scheduled here can overshoot the
    // lease mid-block; dense eligibility below is likewise untouched.
    let cc_budget = lease_bytes.saturating_sub(staging.staged_mem_bytes());
    let cap = config.max_batch_nodes.unwrap_or(usize::MAX);
    let mut admitted: Vec<(usize, u64)> = Vec::new();
    let mut cc_reserved = 0u64;
    for &(i, est) in &group {
        if admitted.len() >= cap {
            break;
        }
        let bound = if config.admit_by_estimate {
            est
        } else {
            est_cc_bytes_upper(&pending[i], nclasses)
        };
        if admitted.is_empty() || cc_reserved.saturating_add(bound) <= cc_budget {
            cc_reserved = cc_reserved.saturating_add(bound);
            admitted.push((i, est));
        }
    }

    // Extract admitted requests from the queue (preserving queue order of
    // the remainder).
    let mut take: Vec<Option<u64>> = vec![None; pending.len()];
    for &(i, est) in &admitted {
        take[i] = Some(est);
    }
    let mut scheduled: Vec<ScheduledNode> = Vec::with_capacity(admitted.len());
    let mut rest: Vec<CcRequest> = Vec::with_capacity(pending.len().saturating_sub(admitted.len()));
    for (req, take) in pending.drain(..).zip(take) {
        if let Some(est) = take {
            let est_data = data_bytes(req.rows, arity, staging.mem_width());
            let dense = dense_eligible(&req, col_cards, config.cc_dense_max_bytes, nclasses);
            scheduled.push(ScheduledNode {
                req,
                est_cc_bytes: est,
                est_data_bytes: est_data,
                stage_file: false,
                stage_mem: false,
                dense,
            });
        } else {
            rest.push(req);
        }
    }
    *pending = rest;
    // Keep Rule 3 order (smallest CC first) in the plan.
    scheduled.sort_by_key(|n| n.est_cc_bytes);
    let frontier_rows = (scheduled.iter().map(|n| n.req.rows))
        .chain(pending.iter().map(|r| r.rows))
        .sum();

    let mut plan = BatchPlan {
        source,
        nodes: scheduled,
        split_file: false,
        compact_mem: None,
        frontier_rows,
    };
    decide_staging(&mut plan, staging, config, cc_reserved, arity, lease_bytes);
    plan.compact_mem = compacts(&plan, staging, pending);
    Some(plan)
}

/// Does this request's slot-array geometry fit under the dense cap? A
/// column missing from `col_cards` (defensive — callers pass the full
/// schema) counts as unbounded and disqualifies the node.
fn dense_eligible(req: &CcRequest, col_cards: &[u64], cap: u64, nclasses: u64) -> bool {
    if cap == 0 || req.attrs.is_empty() {
        return false;
    }
    let cards = req
        .attrs
        .iter()
        .map(|&a| col_cards.get(usize::from(a)).copied().unwrap_or(u64::MAX));
    let bytes = crate::cc::dense_physical_bytes(cards, nclasses);
    bytes > 0 && bytes <= cap
}

/// Apply Rules 4–6 plus the file-policy specifics to the plan.
/// `lease_bytes` bounds both the staging headroom and the 3/5 staged cap,
/// so a session can never stage past its arbitrated slice.
fn decide_staging(
    plan: &mut BatchPlan,
    staging: &StagingManager,
    config: &MiddlewareConfig,
    cc_reserved: u64,
    arity: usize,
    lease_bytes: u64,
) {
    let from_server = plan.source == DataLocation::Server;

    // --- File staging (Rule 6: server→file first). -----------------------
    match config.file_policy {
        FileStagingPolicy::Disabled => {}
        FileStagingPolicy::PerNode => {
            // Configuration (1): every active node gets its own cache file
            // (unless one already exists for exactly this node).
            for node in &mut plan.nodes {
                let is_mem_source = matches!(plan.source, DataLocation::Memory(_));
                if !is_mem_source && !staging.holds(node.req.node(), Tier::File) {
                    node.stage_file = true;
                }
            }
        }
        FileStagingPolicy::Singleton | FileStagingPolicy::Hybrid { .. } => {
            // Configurations (2)/(3): a single staging file for the whole
            // tree, created on the first server scan. Rule 5: the largest
            // node (in practice the root) is the one staged.
            if from_server && staging.count(Tier::File) == 0 {
                if let Some(largest) = plan.nodes.iter_mut().max_by_key(|n| n.req.rows) {
                    largest.stage_file = true;
                }
            }
            // Configuration (3) additionally splits when the scheduled
            // nodes need less than `split_threshold` of the source file.
            if let FileStagingPolicy::Hybrid { split_threshold } = config.file_policy {
                if let DataLocation::File(id) = plan.source {
                    if let Some(file) = staging.set(id) {
                        let relevant = plan.relevant_rows() as f64;
                        if file.nrows > 0 && relevant / file.nrows as f64 > 0.0 {
                            plan.split_file = relevant / file.nrows as f64 <= split_threshold;
                        }
                    }
                }
            }
        }
    }

    // --- Memory staging (Rules 4–6). --------------------------------------
    if !config.memory_caching {
        return;
    }
    // Rule 6: with file staging enabled, server-sourced rounds stage to
    // file only; memory staging waits for a file-sourced round.
    if config.file_policy.enabled() && from_server {
        return;
    }
    // Data already in middleware memory (an ancestor's set) is never
    // re-staged: scanning it is already the cheapest access, and copying
    // subsets would duplicate rows against the budget. The set shrinks in
    // place instead, to the rows its frontier still needs (`compacts`).
    if matches!(plan.source, DataLocation::Memory(_)) {
        return;
    }
    // Staging never crowds out counting: (a) the batch's hard counts-table
    // reservation is honoured, and (b) staged data in total stays below
    // 3/5 of the budget unless the *whole* remaining frontier fits (a
    // staged set covering every pending byte ends all rescans, which is
    // worth the squeeze). Staging is a pure optimization — losing a
    // staging opportunity costs one extra scan; losing counting memory
    // costs per-attribute SQL queries.
    let headroom = lease_bytes
        .saturating_sub(staging.staged_mem_bytes())
        .saturating_sub(cc_reserved);
    // 3/5 of the budget, computed in u128 so "unbounded" budgets near
    // u64::MAX don't wrap `budget * 3` into a garbage cap.
    let staged_cap =
        u64::try_from(u128::from(lease_bytes).saturating_mul(3) / 5).unwrap_or(u64::MAX);
    let cap_slack = staged_cap.saturating_sub(staging.staged_mem_bytes());
    // Staging may use the budget aggressively only when all the data the
    // whole frontier will touch fits.
    let width = staging.mem_width();
    let full_fit = data_bytes(plan.frontier_rows, arity, width) <= headroom;
    let mut remaining = if full_fit {
        headroom
    } else {
        headroom.min(cap_slack)
    };
    // Rule 5: largest data sets first.
    let mut order: Vec<usize> = (0..plan.nodes.len()).collect();
    order.sort_by_key(|&i| std::cmp::Reverse(plan.nodes[i].req.rows));
    for i in order {
        let node = &mut plan.nodes[i];
        // Data already fully contained in some ancestor's memory set is
        // never duplicated.
        if staging.mem_covers(&node.req.lineage) {
            continue;
        }
        let bytes = data_bytes(node.req.rows, arity, width);
        if bytes <= remaining {
            node.stage_mem = true;
            remaining = remaining.saturating_sub(bytes);
        }
    }
}

/// Should this batch compact its memory source in place, and for
/// which requests left waiting on it? Only a private set (a catalog entry
/// is never rewritten), keeping the rows of the batch's nodes and of every
/// request in `pending` that descends from a member of the set (the
/// waiting requests, whose lineages it returns), and only when the move
/// pays for itself on the next scan: moving the `r` kept rows costs `r`
/// memory rows, and the next scan of the set — a waiting request's, or a
/// child's of the batch — reads `n − r` fewer, so `2r ≤ n`.
fn compacts(
    plan: &BatchPlan,
    staging: &StagingManager,
    pending: &[CcRequest],
) -> Option<Vec<Lineage>> {
    let DataLocation::Memory(id) = plan.source else {
        return None;
    };
    let set = staging.set(id)?;
    let waiting: Vec<&CcRequest> = (pending.iter())
        .filter(|r| set.members.iter().any(|&m| r.lineage.contains(m)))
        .collect();
    let kept = (waiting.iter().map(|r| r.rows)).fold(plan.relevant_rows(), u64::saturating_add);
    let pays = kept.saturating_mul(2) <= set.nrows;
    (set.shared.is_none() && u32::try_from(set.nrows).is_ok() && pays)
        .then(|| waiting.iter().map(|r| r.lineage.clone()).collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::estimator::est_cc_bytes;
    use crate::metrics::MiddlewareStats;
    use crate::staging::{CodeWidth, MemRows};
    use scaleclass_sqldb::Pred;

    const ARITY: usize = 4; // 3 attrs + class
    const NCLASSES: u64 = 2;
    /// Schema cardinalities per column (3 attrs of card 4, class of 2).
    const CARDS: [u64; 4] = [4, 4, 4, NCLASSES];

    fn req(id: u64, rows: u64, lineage: Lineage) -> CcRequest {
        let _ = id;
        CcRequest {
            lineage,
            attrs: vec![0, 1, 2],
            class_col: 3,
            rows,
            parent_rows: 1000,
            parent_cards: vec![4, 4, 4],
        }
    }

    fn root_req(rows: u64) -> CcRequest {
        let mut r = req(0, rows, Lineage::root(NodeId(0)));
        r.parent_rows = rows;
        r
    }

    fn child_lineage(child: u64, value: u16) -> Lineage {
        Lineage::root(NodeId(0)).child(NodeId(child), Pred::Eq { col: 0, value })
    }

    fn config(budget: u64) -> MiddlewareConfig {
        MiddlewareConfig::builder()
            .memory_budget_bytes(budget)
            .memory_caching(false)
            .build()
    }

    #[test]
    fn empty_queue_yields_no_plan() {
        let staging = StagingManager::new(None).unwrap();
        let mut q = Vec::new();
        assert!(schedule(
            &mut q,
            &staging,
            &config(1 << 20),
            &CARDS,
            NCLASSES,
            ARITY,
            1 << 20,
            &SampledLedger
        )
        .is_none());
    }

    #[test]
    fn server_batch_takes_all_requests_when_budget_allows() {
        let staging = StagingManager::new(None).unwrap();
        let mut q = vec![
            req(1, 100, child_lineage(1, 0)),
            req(2, 300, child_lineage(2, 1)),
            req(3, 200, child_lineage(3, 2)),
        ];
        let plan = schedule(
            &mut q,
            &staging,
            &config(1 << 20),
            &CARDS,
            NCLASSES,
            ARITY,
            1 << 20,
            &SampledLedger,
        )
        .unwrap();
        assert_eq!(plan.source, DataLocation::Server);
        assert_eq!(plan.nodes.len(), 3);
        assert!(q.is_empty());
        // Rule 3: ordered by estimated CC size ascending = by rows here.
        let rows: Vec<u64> = plan.nodes.iter().map(|n| n.req.rows).collect();
        assert_eq!(rows, vec![100, 200, 300]);
    }

    #[test]
    fn tight_budget_admits_smallest_first_and_leaves_rest_queued() {
        let staging = StagingManager::new(None).unwrap();
        let mut q = vec![
            req(1, 1000, child_lineage(1, 0)),
            req(2, 10, child_lineage(2, 1)),
            req(3, 500, child_lineage(3, 2)),
        ];
        // Budget fits roughly one small estimate only.
        let small_budget = est_cc_bytes(&q[1], NCLASSES) + 1;
        let plan = schedule(
            &mut q,
            &staging,
            &config(small_budget),
            &CARDS,
            NCLASSES,
            ARITY,
            small_budget,
            &SampledLedger,
        )
        .unwrap();
        assert_eq!(plan.nodes.len(), 1);
        assert_eq!(plan.nodes[0].req.rows, 10, "Rule 3: smallest CC first");
        assert_eq!(q.len(), 2, "others remain queued");
    }

    #[test]
    fn always_admits_at_least_one() {
        let staging = StagingManager::new(None).unwrap();
        let mut q = vec![req(1, 1_000_000, child_lineage(1, 0))];
        let plan = schedule(
            &mut q,
            &staging,
            &config(1),
            &CARDS,
            NCLASSES,
            ARITY,
            1,
            &SampledLedger,
        )
        .unwrap();
        assert_eq!(plan.nodes.len(), 1);
    }

    #[test]
    fn rule1_memory_group_beats_file_and_server() {
        let mut staging = StagingManager::new(None).unwrap();
        let mut stats = MiddlewareStats::new();
        // Node 1's data in memory; node 2's in a file; node 3 on server.
        staging.commit_mem(
            NodeId(1),
            Pred::Eq { col: 0, value: 0 },
            MemRows::from_codes(CodeWidth::Two, &[0; ARITY * 10]),
            ARITY,
            &mut stats,
        );
        let mut w = staging
            .start_file(vec![NodeId(2)], Pred::Eq { col: 0, value: 1 }, ARITY)
            .unwrap();
        w.push(&[1, 0, 0, 0]).unwrap();
        staging.commit_file(w, &mut stats).unwrap();

        let mut q = vec![
            req(3, 50, child_lineage(3, 2)),
            req(2, 50, child_lineage(2, 1)),
            req(1, 50, child_lineage(1, 0)),
        ];
        let plan = schedule(
            &mut q,
            &staging,
            &config(1 << 20),
            &CARDS,
            NCLASSES,
            ARITY,
            1 << 20,
            &SampledLedger,
        )
        .unwrap();
        assert!(matches!(plan.source, DataLocation::Memory(_)));
        assert_eq!(plan.nodes.len(), 1);
        assert_eq!(plan.nodes[0].req.node(), NodeId(1));

        // Next round: file group.
        let plan2 = schedule(
            &mut q,
            &staging,
            &config(1 << 20),
            &CARDS,
            NCLASSES,
            ARITY,
            1 << 20,
            &SampledLedger,
        )
        .unwrap();
        assert!(matches!(plan2.source, DataLocation::File(_)));
        assert_eq!(plan2.nodes[0].req.node(), NodeId(2));

        // Finally the server scan.
        let plan3 = schedule(
            &mut q,
            &staging,
            &config(1 << 20),
            &CARDS,
            NCLASSES,
            ARITY,
            1 << 20,
            &SampledLedger,
        )
        .unwrap();
        assert_eq!(plan3.source, DataLocation::Server);
        assert!(q.is_empty());
    }

    #[test]
    fn rule2_only_same_dataset_nodes_scheduled_together() {
        let mut staging = StagingManager::new(None).unwrap();
        let mut stats = MiddlewareStats::new();
        // Two distinct memory sets.
        staging.commit_mem(
            NodeId(1),
            Pred::Eq { col: 0, value: 0 },
            MemRows::from_codes(CodeWidth::Two, &[0; ARITY * 4]),
            ARITY,
            &mut stats,
        );
        staging.commit_mem(
            NodeId(2),
            Pred::Eq { col: 0, value: 1 },
            MemRows::from_codes(CodeWidth::Two, &[0; ARITY * 4]),
            ARITY,
            &mut stats,
        );
        // Two children under node 1, one under node 2.
        let l1 = child_lineage(1, 0);
        let l2 = child_lineage(2, 1);
        let mut q = vec![
            req(11, 10, l1.child(NodeId(11), Pred::Eq { col: 1, value: 0 })),
            req(21, 10, l2.child(NodeId(21), Pred::Eq { col: 1, value: 0 })),
            req(12, 10, l1.child(NodeId(12), Pred::Eq { col: 1, value: 1 })),
        ];
        let plan = schedule(
            &mut q,
            &staging,
            &config(1 << 20),
            &CARDS,
            NCLASSES,
            ARITY,
            1 << 20,
            &SampledLedger,
        )
        .unwrap();
        let ids = plan.node_ids();
        assert_eq!(ids.len(), 2);
        assert!(ids.contains(&NodeId(11)) && ids.contains(&NodeId(12)));
        assert_eq!(q.len(), 1, "node under the other memory set waits");
    }

    #[test]
    fn per_node_policy_stages_every_scheduled_node() {
        let staging = StagingManager::new(None).unwrap();
        let cfg = MiddlewareConfig::builder()
            .memory_budget_bytes(1 << 20)
            .memory_caching(false)
            .file_policy(FileStagingPolicy::PerNode)
            .build();
        let mut q = vec![
            req(1, 100, child_lineage(1, 0)),
            req(2, 100, child_lineage(2, 1)),
        ];
        let plan = schedule(
            &mut q,
            &staging,
            &cfg,
            &CARDS,
            NCLASSES,
            ARITY,
            cfg.memory_budget_bytes,
            &SampledLedger,
        )
        .unwrap();
        assert!(plan.nodes.iter().all(|n| n.stage_file));
    }

    #[test]
    fn singleton_policy_stages_only_largest_and_only_once() {
        let mut staging = StagingManager::new(None).unwrap();
        let cfg = MiddlewareConfig::builder()
            .memory_budget_bytes(1 << 20)
            .memory_caching(false)
            .file_policy(FileStagingPolicy::Singleton)
            .build();
        let mut q = vec![
            req(1, 100, child_lineage(1, 0)),
            req(2, 900, child_lineage(2, 1)),
        ];
        let plan = schedule(
            &mut q,
            &staging,
            &cfg,
            &CARDS,
            NCLASSES,
            ARITY,
            cfg.memory_budget_bytes,
            &SampledLedger,
        )
        .unwrap();
        let staged: Vec<_> = plan.nodes.iter().filter(|n| n.stage_file).collect();
        assert_eq!(staged.len(), 1);
        assert_eq!(staged[0].req.rows, 900, "Rule 5: largest first");

        // Once a file exists, no more singleton staging.
        let mut stats = MiddlewareStats::new();
        let mut w = staging
            .start_file(vec![NodeId(2)], Pred::Eq { col: 0, value: 1 }, ARITY)
            .unwrap();
        w.push(&[1, 0, 0, 0]).unwrap();
        staging.commit_file(w, &mut stats).unwrap();
        let mut q2 = vec![req(3, 50, child_lineage(3, 2))];
        let plan2 = schedule(
            &mut q2,
            &staging,
            &cfg,
            &CARDS,
            NCLASSES,
            ARITY,
            cfg.memory_budget_bytes,
            &SampledLedger,
        )
        .unwrap();
        assert!(plan2.nodes.iter().all(|n| !n.stage_file));
    }

    #[test]
    fn hybrid_split_triggers_below_threshold() {
        let mut staging = StagingManager::new(None).unwrap();
        let mut stats = MiddlewareStats::new();
        let mut w = staging
            .start_file(vec![NodeId(0)], Pred::True, ARITY)
            .unwrap();
        for i in 0..100u16 {
            w.push(&[i % 4, 0, 0, 0]).unwrap();
        }
        staging.commit_file(w, &mut stats).unwrap();
        let cfg = MiddlewareConfig::builder()
            .memory_budget_bytes(1 << 20)
            .memory_caching(false)
            .file_policy(FileStagingPolicy::Hybrid {
                split_threshold: 0.5,
            })
            .build();
        // Scheduled nodes cover 30 of 100 file rows → split.
        let mut q = vec![req(1, 30, child_lineage(1, 0))];
        let plan = schedule(
            &mut q,
            &staging,
            &cfg,
            &CARDS,
            NCLASSES,
            ARITY,
            cfg.memory_budget_bytes,
            &SampledLedger,
        )
        .unwrap();
        assert!(matches!(plan.source, DataLocation::File(_)));
        assert!(plan.split_file);

        // 80 of 100 → no split.
        let mut q2 = vec![req(2, 80, child_lineage(2, 1))];
        let plan2 = schedule(
            &mut q2,
            &staging,
            &cfg,
            &CARDS,
            NCLASSES,
            ARITY,
            cfg.memory_budget_bytes,
            &SampledLedger,
        )
        .unwrap();
        assert!(!plan2.split_file);
    }

    #[test]
    fn memory_staging_respects_budget_and_rule5() {
        let mut staging = StagingManager::new(None).unwrap();
        let width = CodeWidth::One;
        staging.set_mem_width(width);
        // Budget: doubled CC reservation + room for exactly the bigger
        // node's data in the staged width (the scheduler double-reserves
        // counting memory before staging).
        let big = req(1, 100, child_lineage(1, 0));
        let small = req(2, 40, child_lineage(2, 1));
        let cc = est_cc_bytes(&big, NCLASSES) + est_cc_bytes(&small, NCLASSES);
        let budget = 2 * cc + data_bytes(100, ARITY, width) + data_bytes(40, ARITY, width) / 2;
        let cfg = MiddlewareConfig::builder()
            .memory_budget_bytes(budget)
            .memory_caching(true)
            .build();
        let mut q = vec![big, small];
        let plan = schedule(
            &mut q,
            &staging,
            &cfg,
            &CARDS,
            NCLASSES,
            ARITY,
            cfg.memory_budget_bytes,
            &SampledLedger,
        )
        .unwrap();
        let staged: Vec<u64> = plan
            .nodes
            .iter()
            .filter(|n| n.stage_mem)
            .map(|n| n.req.rows)
            .collect();
        assert_eq!(staged, vec![100], "largest staged, smaller no longer fits");
    }

    #[test]
    fn rule6_no_direct_server_to_memory_when_file_staging_enabled() {
        let staging = StagingManager::new(None).unwrap();
        let cfg = MiddlewareConfig::builder()
            .memory_budget_bytes(1 << 30)
            .memory_caching(true)
            .file_policy(FileStagingPolicy::Singleton)
            .build();
        let mut q = vec![root_req(1000)];
        let plan = schedule(
            &mut q,
            &staging,
            &cfg,
            &CARDS,
            NCLASSES,
            ARITY,
            cfg.memory_budget_bytes,
            &SampledLedger,
        )
        .unwrap();
        assert!(plan.nodes.iter().all(|n| !n.stage_mem));
        assert!(plan.nodes.iter().any(|n| n.stage_file));
    }

    #[test]
    fn direct_server_to_memory_when_file_staging_disabled() {
        let staging = StagingManager::new(None).unwrap();
        let cfg = MiddlewareConfig::builder()
            .memory_budget_bytes(1 << 30)
            .memory_caching(true)
            .build();
        let mut q = vec![root_req(1000)];
        let plan = schedule(
            &mut q,
            &staging,
            &cfg,
            &CARDS,
            NCLASSES,
            ARITY,
            cfg.memory_budget_bytes,
            &SampledLedger,
        )
        .unwrap();
        assert!(plan.nodes[0].stage_mem);
    }

    #[test]
    fn dense_eligibility_follows_schema_cards_and_cap() {
        let staging = StagingManager::new(None).unwrap();
        // An ample cap: the 3-attr × card-4 × 2-class geometry (192 bytes
        // of slots) densifies.
        let ample = MiddlewareConfig::builder()
            .memory_budget_bytes(1 << 20)
            .memory_caching(false)
            .cc_dense_max_bytes(crate::config::DEFAULT_CC_DENSE_MAX_BYTES)
            .build();
        let mut q = vec![req(1, 100, child_lineage(1, 0))];
        let plan = schedule(
            &mut q,
            &staging,
            &ample,
            &CARDS,
            NCLASSES,
            ARITY,
            ample.memory_budget_bytes,
            &SampledLedger,
        )
        .unwrap();
        assert!(plan.nodes[0].dense);

        // Cap 0 disables the dense backend outright.
        let cfg = MiddlewareConfig::builder()
            .memory_budget_bytes(1 << 20)
            .memory_caching(false)
            .cc_dense_max_bytes(0)
            .build();
        let mut q = vec![req(1, 100, child_lineage(1, 0))];
        let plan = schedule(
            &mut q,
            &staging,
            &cfg,
            &CARDS,
            NCLASSES,
            ARITY,
            cfg.memory_budget_bytes,
            &SampledLedger,
        )
        .unwrap();
        assert!(!plan.nodes[0].dense);

        // A cap below the slot-array size keeps the node sparse.
        let cfg = MiddlewareConfig::builder()
            .memory_budget_bytes(1 << 20)
            .memory_caching(false)
            .cc_dense_max_bytes(100)
            .build();
        let mut q = vec![req(1, 100, child_lineage(1, 0))];
        let plan = schedule(
            &mut q,
            &staging,
            &cfg,
            &CARDS,
            NCLASSES,
            ARITY,
            cfg.memory_budget_bytes,
            &SampledLedger,
        )
        .unwrap();
        assert!(!plan.nodes[0].dense, "3×4×2×8 = 192 bytes > 100-byte cap");

        // A huge schema cardinality disqualifies even under an ample cap.
        let wild = [u64::MAX, 4, 4, NCLASSES];
        let mut q = vec![req(1, 100, child_lineage(1, 0))];
        let plan = schedule(
            &mut q,
            &staging,
            &ample,
            &wild,
            NCLASSES,
            ARITY,
            ample.memory_budget_bytes,
            &SampledLedger,
        )
        .unwrap();
        assert!(!plan.nodes[0].dense);
    }

    #[test]
    fn shared_catalog_charge_shrinks_cc_admission() {
        // A session that merely *attached* a shared-catalog entry — it
        // staged nothing privately — still pays its per-reader share
        // against the counting budget: the charge flows through
        // `staged_mem_bytes` into the admission arithmetic above.
        let catalog = std::sync::Arc::new(crate::catalog::StagingCatalog::new(None));
        let mut stats = MiddlewareStats::new();
        let mut publisher = StagingManager::new(None).unwrap();
        let mut reader = StagingManager::new(None).unwrap();
        publisher.attach_catalog(std::sync::Arc::clone(&catalog));
        reader.attach_catalog(std::sync::Arc::clone(&catalog));

        // Publisher stages the root set: 100 rows × 4 cols × 2 bytes =
        // 800 bytes. The reader attaches; each side is charged 400.
        publisher.commit_mem(
            NodeId(0),
            Pred::True,
            MemRows::from_codes(CodeWidth::Two, &[0; ARITY * 100]),
            ARITY,
            &mut stats,
        );
        reader.attach_from_catalog(&[root_req(100)], true, false);
        assert_eq!(reader.shared_charge_bytes(), 400);

        let a = req(1, 60, child_lineage(1, 0));
        let b = req(2, 60, child_lineage(2, 1));
        let upper = est_cc_bytes_upper(&a, NCLASSES);
        // Room for both hard bounds on an uncharged manager, but not once
        // the 400-byte shared share is pinned (200 of slack < 400).
        let budget = 2 * upper + 200;

        let uncharged = StagingManager::new(None).unwrap();
        let mut q = vec![a.clone(), b.clone()];
        let plan = schedule(
            &mut q,
            &uncharged,
            &config(budget),
            &CARDS,
            NCLASSES,
            ARITY,
            budget,
            &SampledLedger,
        )
        .unwrap();
        assert_eq!(plan.nodes.len(), 2, "both fit without the shared charge");

        let mut q = vec![a, b];
        let plan = schedule(
            &mut q,
            &reader,
            &config(budget),
            &CARDS,
            NCLASSES,
            ARITY,
            budget,
            &SampledLedger,
        )
        .unwrap();
        assert_eq!(
            plan.nodes.len(),
            1,
            "the shared share pins 400 bytes of the lease"
        );
        assert_eq!(q.len(), 1, "the other child stays queued");
    }

    #[test]
    fn unbounded_budget_does_not_wrap_staging_cap() {
        // Budgets above u64::MAX / 3 used to wrap in `budget * 3 / 5`:
        // overflow panic in debug builds, a garbage (possibly zero) staged
        // cap in release. An effectively unbounded budget must behave like
        // one — everything admitted, everything staged.
        let staging = StagingManager::new(None).unwrap();
        for budget in [u64::MAX, u64::MAX / 3 + 1] {
            let cfg = MiddlewareConfig::builder()
                .memory_budget_bytes(budget)
                .memory_caching(true)
                .build();
            let mut q = vec![
                req(1, 100, child_lineage(1, 0)),
                req(2, 300, child_lineage(2, 1)),
                root_req(1000),
            ];
            let plan = schedule(
                &mut q,
                &staging,
                &cfg,
                &CARDS,
                NCLASSES,
                ARITY,
                cfg.memory_budget_bytes,
                &SampledLedger,
            )
            .unwrap();
            assert_eq!(plan.nodes.len(), 3);
            assert!(q.is_empty());
            assert!(
                plan.nodes.iter().all(|n| n.stage_mem),
                "budget {budget}: every node fits an unbounded budget"
            );
        }
    }
}
