//! Property tests for the middleware's estimators, scheduler, and
//! counting engine.

use proptest::prelude::*;
use scaleclass::estimator::{est_cc_bytes_upper, est_cc_entries};
use scaleclass::executor::{BatchCounter, NodeCounter};
use scaleclass::scheduler::{schedule, SampledLedger};
use scaleclass::staging::{CodeWidth, FileWriter, MemRows, StagingManager};
use scaleclass::{
    Backend, CcRequest, CountsTable, DataLocation, FileStagingPolicy, Lineage, Middleware,
    MiddlewareConfig, MiddlewareStats, NodeId, Session, SessionPool, CC_ENTRY_BYTES,
};
use scaleclass_sqldb::{Code, ColumnView, Database, Pred, Schema, CODE_BYTES};
use std::sync::Arc;

/// Arbitrary flat data over a fixed 3-attr + class schema.
fn rows_strategy() -> impl Strategy<Value = Vec<[Code; 4]>> {
    prop::collection::vec(
        (0u16..4, 0u16..3, 0u16..5, 0u16..2).prop_map(|(a, b, c, k)| [a, b, c, k]),
        1..200,
    )
}

fn schema() -> Schema {
    Schema::from_pairs(&[("a", 4), ("b", 3), ("c", 5), ("class", 2)])
}

fn request_for(rows: &[[Code; 4]], node: u64, pred: Pred) -> CcRequest {
    let matching = rows.iter().filter(|r| pred.eval(&r[..])).count() as u64;
    CcRequest {
        lineage: Lineage::root(NodeId(0)).child(NodeId(node), pred),
        attrs: vec![0, 1, 2],
        class_col: 3,
        rows: matching,
        parent_rows: rows.len() as u64,
        parent_cards: vec![4, 3, 5],
    }
}

/// The canonical two-level request stream every driver in this file
/// issues: the root fans out to four children on `a`, child 1 fans out to
/// three grandchildren on `b`. The grandchildren rounds exercise scans
/// whose source is a staged data set (memory or file) rather than the
/// server.
fn follow_ups(data: &[[Code; 4]], node: NodeId) -> Vec<CcRequest> {
    if node == NodeId(0) {
        (0..4u16)
            .map(|v| request_for(data, 1 + u64::from(v), Pred::Eq { col: 0, value: v }))
            .collect()
    } else if node == NodeId(1) {
        let parent = Lineage::root(NodeId(0)).child(NodeId(1), Pred::Eq { col: 0, value: 0 });
        (0..3u16)
            .map(|w| {
                let lineage =
                    parent.child(NodeId(10 + u64::from(w)), Pred::Eq { col: 1, value: w });
                let matching = data.iter().filter(|r| lineage.pred().eval(&r[..])).count() as u64;
                CcRequest {
                    lineage,
                    attrs: vec![0, 1, 2],
                    class_col: 3,
                    rows: matching,
                    parent_rows: data.len() as u64,
                    parent_cards: vec![4, 3, 5],
                }
            })
            .collect()
    } else {
        vec![]
    }
}

fn load_db(rows: &[[Code; 4]]) -> Database {
    let mut db = Database::new();
    db.create_table("d", schema()).unwrap();
    for r in rows {
        db.insert("d", &r[..]).unwrap();
    }
    db
}

/// Counts tables (+ fallback flag) keyed by node id, as produced by one
/// run of the canonical two-level request stream.
type NodeCounts = std::collections::BTreeMap<u64, (CountsTable, bool)>;

/// Drive the two-level tree through a single serial middleware, returning
/// every node's counts table (+ fallback flag) keyed by node id, and the
/// final middleware stats.
fn drive(rows: &[[Code; 4]], cfg: MiddlewareConfig) -> (NodeCounts, MiddlewareStats) {
    let mut mw = Middleware::new(load_db(rows), "d", "class", cfg).unwrap();
    mw.enqueue(mw.root_request(NodeId(0))).unwrap();
    let mut out = std::collections::BTreeMap::new();
    let data = rows.to_vec();
    mw.run_to_completion(|f| {
        let follow = follow_ups(&data, f.node);
        out.insert(f.node.0, ((*f.cc).clone(), f.via_sql_fallback));
        follow
    })
    .unwrap();
    let stats = *mw.stats();
    (out, stats)
}

/// Drive the same two-level request stream through K concurrent
/// [`Session`]s over **one** shared [`Backend`], one OS thread per
/// session. Every lease is taken before any thread runs and none is
/// released until every thread has finished, so each session schedules
/// under the stable fair share `budget / K` for its whole life; each
/// thread runs
/// its session's batches synchronously, so batching is deterministic and
/// the stats are comparable bit-for-bit with a serial run. Returns each
/// session's counts and stats, session order.
fn drive_sessions(rows: &[[Code; 4]], cfg: MiddlewareConfig) -> Vec<(NodeCounts, MiddlewareStats)> {
    let k = cfg.sessions;
    let backend = Arc::new(Backend::new(load_db(rows), "d", "class", cfg).unwrap());
    let sessions: Vec<Session> = (0..k)
        .map(|_| Session::open(Arc::clone(&backend)).unwrap())
        .collect();
    assert_eq!(backend.arbiter().live_sessions(), k);
    std::thread::scope(|scope| {
        let handles: Vec<_> = sessions
            .into_iter()
            .map(|mut sess| {
                scope.spawn(move || {
                    sess.enqueue(sess.root_request(NodeId(0))).unwrap();
                    let mut out = std::collections::BTreeMap::new();
                    let data = rows.to_vec();
                    sess.run_to_completion(|f| {
                        let follow = follow_ups(&data, f.node);
                        out.insert(f.node.0, ((*f.cc).clone(), f.via_sql_fallback));
                        follow
                    })
                    .unwrap();
                    let stats = *sess.stats();
                    // Hand the session back instead of dropping it here: a
                    // drop would reclaim this thread's lease and *grow* the
                    // survivors' fair shares mid-run, making their later
                    // rounds batch under more than `budget / K`.
                    (out, stats, sess)
                })
            })
            .collect();
        // Join *everything* before dropping any session: the iterator chain
        // is lazy, so a fused `join` + `drop` would release thread 0's
        // lease while threads 1..K are still running.
        let done: Vec<_> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        done.into_iter()
            .map(|(out, stats, sess)| {
                drop(sess);
                (out, stats)
            })
            .collect()
    })
}

/// Drive the same two-level request stream through **every** session of a
/// [`SessionPool`] concurrently (all `cfg.sessions` leases are live for
/// the pool's whole life, so each session schedules under the fair share
/// `budget / K`). Returns each session's counts and stats, session order.
/// Unlike [`drive_sessions`], batching here depends on channel timing —
/// results are exact, but round/scan counters are not deterministic.
fn drive_pool(rows: &[[Code; 4]], cfg: MiddlewareConfig) -> Vec<(NodeCounts, MiddlewareStats)> {
    let k = cfg.sessions;
    let pool = SessionPool::new(load_db(rows), "d", "class", cfg).unwrap();
    assert_eq!(pool.session_count(), k);
    let root = pool.backend().root_request(NodeId(0));
    let mut outs = vec![std::collections::BTreeMap::new(); k];
    let mut outstanding = vec![0usize; k];
    for (i, n) in outstanding.iter_mut().enumerate() {
        pool.enqueue(i, root.clone()).unwrap();
        *n = 1;
    }
    let data = rows.to_vec();
    // Round-robin client: collect one fulfilled batch per session with
    // work in flight, issuing the identical follow-up stream everywhere.
    while outstanding.iter().any(|&n| n > 0) {
        for i in 0..k {
            if outstanding[i] == 0 {
                continue;
            }
            let batch = pool.wait_results(i).unwrap().unwrap();
            for f in batch {
                outstanding[i] -= 1;
                for req in follow_ups(&data, f.node) {
                    pool.enqueue(i, req).unwrap();
                    outstanding[i] += 1;
                }
                outs[i].insert(f.node.0, ((*f.cc).clone(), f.via_sql_fallback));
            }
        }
    }
    let (_db, stats) = pool.shutdown().unwrap();
    outs.into_iter()
        .zip(stats.into_iter().map(|(s, _scan)| s))
        .collect()
}

proptest! {
    /// SAFETY PROPERTY: the admission bound really bounds the counts
    /// table a node can ever produce.
    #[test]
    fn upper_bound_dominates_actual_cc(rows in rows_strategy(), value in 0u16..4) {
        let pred = Pred::Eq { col: 0, value };
        let req = request_for(&rows, 1, pred.clone());
        let mut cc = CountsTable::new();
        for r in &rows {
            if pred.eval(&r[..]) {
                cc.add_row(&r[..], &req.attrs, req.class_col);
            }
        }
        prop_assert!(
            cc.memory_bytes() <= est_cc_bytes_upper(&req, 2),
            "actual {} > bound {}",
            cc.memory_bytes(),
            est_cc_bytes_upper(&req, 2)
        );
    }

    /// The paper's Est_cc never exceeds the parent-card sum and never
    /// drops below one entry per attribute.
    #[test]
    fn est_cc_stays_in_declared_range(
        rows in 0u64..10_000,
        parent in 1u64..10_000,
        cards in prop::collection::vec(1u64..64, 1..10),
    ) {
        let attrs: Vec<u16> = (0..cards.len() as u16).collect();
        let req = CcRequest {
            lineage: Lineage::root(NodeId(0)),
            attrs: attrs.clone(),
            class_col: 99,
            rows,
            parent_rows: parent,
            parent_cards: cards.clone(),
        };
        let est = est_cc_entries(&req);
        prop_assert!(est >= attrs.len() as u64);
        prop_assert!(est <= cards.iter().sum::<u64>().max(attrs.len() as u64));
    }

    /// The scheduler conserves requests: every pending request either
    /// appears in the plan or stays queued, exactly once.
    #[test]
    fn scheduler_conserves_requests(
        rows in rows_strategy(),
        budget in 512u64..100_000,
        n_requests in 1usize..12,
    ) {
        let staging = StagingManager::new(None).unwrap();
        let config = MiddlewareConfig::builder()
            .memory_budget_bytes(budget)
            .memory_caching(false)
            .build();
        let mut pending: Vec<CcRequest> = (0..n_requests)
            .map(|i| request_for(&rows, i as u64 + 1, Pred::Eq { col: 0, value: (i % 4) as u16 }))
            .collect();
        let original: Vec<NodeId> = pending.iter().map(|r| r.node()).collect();
        let plan = schedule(&mut pending, &staging, &config, &[4, 3, 5, 2], 2, 4, budget, &SampledLedger).unwrap();

        let mut seen: Vec<NodeId> = plan.node_ids();
        seen.extend(pending.iter().map(|r| r.node()));
        seen.sort();
        let mut expected = original.clone();
        expected.sort();
        prop_assert_eq!(seen, expected);
        prop_assert!(!plan.nodes.is_empty(), "at least one node admitted");
        prop_assert_eq!(plan.source, DataLocation::Server);
    }

    /// Hard-bound admission honours the budget beyond the first node.
    #[test]
    fn scheduler_admission_respects_budget(
        rows in rows_strategy(),
        budget in 512u64..20_000,
    ) {
        let staging = StagingManager::new(None).unwrap();
        let config = MiddlewareConfig::builder()
            .memory_budget_bytes(budget)
            .memory_caching(false)
            .build();
        let mut pending: Vec<CcRequest> = (0..8)
            .map(|i| request_for(&rows, i + 1, Pred::Eq { col: 0, value: (i % 4) as u16 }))
            .collect();
        let bounds: std::collections::HashMap<NodeId, u64> = pending
            .iter()
            .map(|r| (r.node(), est_cc_bytes_upper(r, 2)))
            .collect();
        let plan = schedule(&mut pending, &staging, &config, &[4, 3, 5, 2], 2, 4, budget, &SampledLedger).unwrap();
        let reserved: u64 = plan.node_ids().iter().map(|id| bounds[id]).sum();
        let first = bounds[&plan.node_ids()[0]];
        prop_assert!(
            reserved <= budget.max(first),
            "reserved {reserved} over budget {budget}"
        );
    }

    /// End-to-end: whatever the (tiny, arbitrary) budget, the middleware
    /// answers the root request with exactly the brute-force counts.
    #[test]
    fn root_counts_correct_under_any_budget(
        rows in rows_strategy(),
        budget in 64u64..50_000,
    ) {
        let mut db = Database::new();
        db.create_table("d", schema()).unwrap();
        for r in &rows {
            db.insert("d", &r[..]).unwrap();
        }
        let cfg = MiddlewareConfig::builder()
            .memory_budget_bytes(budget)
            .memory_caching(true)
            .build();
        let mut mw = Middleware::new(db, "d", "class", cfg).unwrap();
        mw.enqueue(mw.root_request(NodeId(0))).unwrap();
        let got = mw.process_next_batch().unwrap().pop().unwrap().cc;

        let mut expected = CountsTable::new();
        for r in &rows {
            expected.add_row(&r[..], &[0, 1, 2], 3);
        }
        prop_assert_eq!(&*got, &expected);
    }

    /// CountsTable bookkeeping invariants under arbitrary row streams.
    #[test]
    fn counts_table_invariants(rows in rows_strategy()) {
        let mut cc = CountsTable::new();
        for r in &rows {
            cc.add_row(&r[..], &[0, 1, 2], 3);
        }
        prop_assert_eq!(cc.total(), rows.len() as u64);
        // per-attribute vectors each sum to the total
        for attr in [0u16, 1, 2] {
            let sum: u64 = cc.attr_vector(attr).map(|(_, _, n)| n).sum();
            prop_assert_eq!(sum, cc.total());
            // splitting on any value partitions the rows
            for value in 0..5u16 {
                prop_assert_eq!(
                    cc.rows_with_value(attr, value) + cc.rows_without_value(attr, value),
                    cc.total()
                );
            }
        }
        // class distribution sums to total
        let class_sum: u64 = cc.class_distribution().map(|(_, n)| n).sum();
        prop_assert_eq!(class_sum, cc.total());
        prop_assert_eq!(cc.memory_bytes(), cc.entries() as u64 * CC_ENTRY_BYTES);
    }

    /// Staging bookkeeping: best_location always returns a dataset one of
    /// whose members lies on the lineage.
    #[test]
    fn best_location_is_reachable(
        stage_at in prop::collection::vec(0u64..4, 0..4),
        depth in 1usize..5,
    ) {
        let mut staging = StagingManager::new(None).unwrap();
        let mut stats = MiddlewareStats::new();
        // lineage 0 → 1 → 2 → 3 → 4
        let mut lineage = Lineage::root(NodeId(0));
        for d in 0..depth {
            lineage = lineage.child(NodeId(d as u64 + 1), Pred::Eq { col: 0, value: d as u16 });
        }
        for &node in &stage_at {
            staging.commit_mem(NodeId(node), Pred::True, MemRows::from_codes(CodeWidth::One, &[0; 8]), 4, &mut stats);
        }
        match staging.best_location(&lineage) {
            DataLocation::Memory(id) => {
                let owner = staging.set(id).unwrap().members[0];
                prop_assert!(lineage.contains(owner));
            }
            DataLocation::Server => {
                // correct only if no staged set lies on the lineage
                for &node in &stage_at {
                    prop_assert!(
                        !lineage.contains(NodeId(node)) || node as usize > depth
                    );
                }
            }
            DataLocation::File(_) => prop_assert!(false, "no files staged"),
        }
    }
}

/// Project the logical (deterministic) counters out of a stats record:
/// everything except pipeline-shape counters (`scan_blocks`,
/// `blocks_counted`, and `block_fallback_rows` legitimately differ
/// between extent sizes and between the batched kernel and the row
/// path) and wall-clock timing (`scan_nanos`, `kernel_validate_nanos`,
/// `kernel_accumulate_nanos`).
fn logical(s: &MiddlewareStats) -> MiddlewareStats {
    MiddlewareStats {
        scan_blocks: 0,
        scan_nanos: 0,
        blocks_counted: 0,
        block_fallback_rows: 0,
        kernel_validate_nanos: 0,
        kernel_accumulate_nanos: 0,
        ..*s
    }
}

/// `logical`, additionally blind to which counting backend ran
/// (`dense_nodes`/`sparse_nodes` legitimately differ between a dense-capped
/// and a sparse-pinned run; everything else must not).
fn backend_agnostic(s: &MiddlewareStats) -> MiddlewareStats {
    MiddlewareStats {
        dense_nodes: 0,
        sparse_nodes: 0,
        ..logical(s)
    }
}

/// `logical`, blind to the staged files' extent framing
/// (`file_bytes_physical_written`), which the extent size sets.
fn unframed(s: &MiddlewareStats) -> MiddlewareStats {
    MiddlewareStats {
        file_bytes_physical_written: 0,
        ..logical(s)
    }
}

fn file_variant() -> scaleclass::config::MiddlewareConfigBuilder {
    MiddlewareConfig::builder()
        .file_policy(FileStagingPolicy::Singleton)
        .memory_caching(false)
}

proptest! {
    /// SATELLITE PROPERTY: a singleton-staged build reads its file extent
    /// by extent through the one scan loop, and the extent size moves
    /// nothing but the blocks: for extent sizes chosen so the last extent
    /// is partial (they don't divide the row count evenly), every node's
    /// counts table, fallback flag and logical stats equal a build at
    /// 8192 rows per extent — all but `file_bytes_physical_written`, which
    /// counts each extent's framing. Run both with memory caching off
    /// (pure file scans) and on (the file scan also feeds the memory tee).
    #[test]
    fn file_scan_bit_identical_at_any_extent_size(
        rows in rows_strategy(),
        extent_rows in prop::sample::select(vec![3usize, 7, 13, 31, 61]),
    ) {
        for caching in [false, true] {
            let build = |extent_rows: usize| {
                MiddlewareConfig::builder()
                    .file_policy(FileStagingPolicy::Singleton)
                    .memory_caching(caching)
                    .stage_extent_rows(extent_rows)
                    .build()
            };
            let (whole_cc, whole_stats) = drive(&rows, build(8192));
            let (cut_cc, cut_stats) = drive(&rows, build(extent_rows));
            prop_assert_eq!(
                &cut_cc,
                &whole_cc,
                "counts diverged: extent_rows {}, caching {}",
                extent_rows,
                caching
            );
            prop_assert_eq!(
                unframed(&cut_stats),
                unframed(&whole_stats),
                "logical stats diverged: extent_rows {}, caching {}",
                extent_rows,
                caching
            );
        }
    }

    /// `MiddlewareStats` internal-consistency invariants hold on the
    /// memory-staging path and on the singleton-file path, whose file
    /// holds more than one extent of 7 rows once the table outgrows one.
    #[test]
    fn middleware_stats_consistent_across_worker_counts(rows in rows_strategy()) {
        let arity_bytes = (4 * CODE_BYTES) as u64;

        // Default config: children are mem-covered by the root's staged
        // set, so exactly the root's rows are staged into memory.
        let s = drive(&rows, MiddlewareConfig::default()).1;
        prop_assert_eq!(s.memory_rows_staged, rows.len() as u64);
        prop_assert!(s.peak_memory_bytes >= s.memory_rows_staged * arity_bytes);
        prop_assert_eq!(s.file_bytes_written, s.file_rows_written * arity_bytes);
        prop_assert!(s.scan_rows >= rows.len() as u64);

        // Singleton-file staging: every root row lands in the staging file.
        let s = drive(&rows, file_variant().stage_extent_rows(7).build()).1;
        prop_assert_eq!(s.file_rows_written, rows.len() as u64);
        prop_assert_eq!(s.file_bytes_written, s.file_rows_written * arity_bytes);
    }
}

proptest! {
    /// TENTPOLE PROPERTY: the dense flat-array counting backend is
    /// bit-identical to the sparse BTreeMap backend — every node's counts
    /// table, fallback flag, and all logical stats except the
    /// backend-mix counters themselves — on both the memory-staging and
    /// singleton-file paths. The builder's cap is the only thing that selects a backend
    /// for a whole run, so each side pins its own.
    #[test]
    fn dense_backend_bit_identical_to_sparse(rows in rows_strategy()) {
        for build in [MiddlewareConfig::builder, file_variant] {
            let dense_cfg = build()
                .scan_block_rows(7)
                .cc_dense_max_bytes(1 << 20)
                .build();
            let sparse_cfg = build()
                .scan_block_rows(7)
                .cc_dense_max_bytes(0)
                .build();
            let (dense_cc, dense_stats) = drive(&rows, dense_cfg);
            let (sparse_cc, sparse_stats) = drive(&rows, sparse_cfg);
            prop_assert_eq!(&dense_cc, &sparse_cc, "counts diverged");
            prop_assert_eq!(
                backend_agnostic(&dense_stats),
                backend_agnostic(&sparse_stats),
                "logical stats diverged"
            );
            // The runs must actually have exercised different backends.
            prop_assert!(dense_stats.dense_nodes > 0, "dense run never went dense");
            prop_assert_eq!(dense_stats.sparse_nodes, 0);
            prop_assert_eq!(sparse_stats.dense_nodes, 0, "cap 0 must pin sparse");
        }
    }

    /// TENTPOLE PROPERTY: because dense nodes model memory per *occupied
    /// entry* (not per allocated slot), the §4.1.1 budget machinery fires
    /// at exactly the same rows on either backend — under arbitrarily
    /// tight budgets both runs report identical `sql_fallbacks` and
    /// `pressure_evictions`, and every node carries the same fallback
    /// flag.
    #[test]
    fn dense_budget_fallback_fires_identically_to_sparse(
        rows in rows_strategy(),
        budget in 64u64..5_000,
    ) {
        let cfg = |cap: u64| {
            MiddlewareConfig::builder()
                .memory_budget_bytes(budget)
                .cc_dense_max_bytes(cap)
                .build()
        };
        let (dense_cc, dense_stats) = drive(&rows, cfg(1 << 20));
        let (sparse_cc, sparse_stats) = drive(&rows, cfg(0));
        for (node, (_, dense_fb)) in &dense_cc {
            prop_assert_eq!(
                *dense_fb, sparse_cc[node].1,
                "fallback flag diverged on node {} at budget {}", node, budget
            );
        }
        prop_assert_eq!(dense_stats.sql_fallbacks, sparse_stats.sql_fallbacks);
        prop_assert_eq!(dense_stats.pressure_evictions, sparse_stats.pressure_evictions);
        prop_assert_eq!(&dense_cc, &sparse_cc);
        prop_assert_eq!(
            backend_agnostic(&dense_stats),
            backend_agnostic(&sparse_stats)
        );
    }

    /// Shadow-accounting property (DESIGN.md §9): under arbitrarily tight
    /// budgets — where pressure evictions, §4.1.1 fallbacks, and tee
    /// cancellations all fire — the incrementally maintained memory
    /// counters never drift from a first-principles recount, on either
    /// counting backend and on both the memory- and file-staging paths.
    /// `drive` runs `process_next_batch` via `run_to_completion`, whose
    /// debug-build checkpoints assert batch CC/buffer bytes and staged
    /// bytes after every batch; the explicit end-of-run call here guards
    /// against the checkpoints being compiled out of the test profile. A
    /// release build has no checkpoints to sweep, so it compiles no test.
    #[cfg(debug_assertions)]
    #[test]
    fn shadow_accounting_holds_under_tight_budgets(
        rows in rows_strategy(),
        budget in 64u64..5_000,
    ) {
        for dense_cap in [0u64, 1 << 20] {
            for build in [MiddlewareConfig::builder, file_variant] {
                let cfg = build()
                    .memory_budget_bytes(budget)
                    .cc_dense_max_bytes(dense_cap)
                    .build();
                let mut db = Database::new();
                db.create_table("d", schema()).unwrap();
                for r in &rows {
                    db.insert("d", &r[..]).unwrap();
                }
                let mut mw = Middleware::new(db, "d", "class", cfg).unwrap();
                mw.enqueue(mw.root_request(NodeId(0))).unwrap();
                let data = rows.clone();
                let mut served = 0u64;
                mw.run_to_completion(|f| {
                    served += 1;
                    if f.node == NodeId(0) {
                        (0..4u16)
                            .map(|v| {
                                request_for(&data, 1 + u64::from(v), Pred::Eq { col: 0, value: v })
                            })
                            .collect()
                    } else {
                        vec![]
                    }
                })
                .unwrap();
                mw.assert_shadow_accounting();
                prop_assert_eq!(served, 5, "root + four children served");
            }
        }
    }

    /// TENTPOLE PROPERTY: the batched block-counting kernel is
    /// bit-identical to row-at-a-time counting — the same build at one row
    /// per scan block and per staged extent, where every row is its own
    /// block — in every node's counts table, fallback flag, and all
    /// logical stats, across sparse and dense backends, memory- and
    /// file-staged scans, and extent sizes {1, 7, default}. Block counters
    /// are pipeline-shape, so only `logical` projections are compared, and
    /// blind to the extent framing the extent size sets. Every cell must
    /// reach the kernel — the serial file cell included, whose extents go
    /// through the same block path as every other source. Mid-block
    /// out-of-range fallback can't arise through a validated schema and
    /// is pinned down by the cc/executor unit tests instead.
    #[test]
    fn batched_kernel_bit_identical_to_row_path(
        rows in rows_strategy(),
        extent_rows in prop::sample::select(vec![1usize, 7, 8192]),
        dense_cap in prop::sample::select(vec![0u64, 1 << 20]),
    ) {
        for (mem_path, build) in [
            (true, MiddlewareConfig::builder as fn() -> scaleclass::config::MiddlewareConfigBuilder),
            (false, file_variant),
        ] {
            let cfg = |block_rows: usize, extent_rows: usize| {
                build()
                    .scan_block_rows(block_rows)
                    .stage_extent_rows(extent_rows)
                    .cc_dense_max_bytes(dense_cap)
                    .build()
            };
            let (on_cc, on_stats) = drive(&rows, cfg(7, extent_rows));
            let (off_cc, off_stats) = drive(&rows, cfg(1, 1));
            prop_assert_eq!(
                &on_cc,
                &off_cc,
                "counts diverged: extent_rows {}, dense_cap {}, mem {}",
                extent_rows,
                dense_cap,
                mem_path
            );
            prop_assert_eq!(
                unframed(&on_stats),
                unframed(&off_stats),
                "logical stats diverged: extent_rows {}, dense_cap {}, mem {}",
                extent_rows,
                dense_cap,
                mem_path
            );
            // The child and grandchild rounds scan staged data (memory
            // sets, or the never-split singleton file) with no tee
            // attached: blocks must have actually gone through the kernel,
            // whatever the source.
            prop_assert!(
                on_stats.blocks_counted > 0,
                "kernel on but no block was batch-counted (mem {})",
                mem_path
            );
        }
    }

    /// TENTPOLE PROPERTY: under arbitrarily tight budgets — where the
    /// per-block growth-bound gate loses, every row of the block takes the
    /// exact one-row step, and the §4.1.1 machinery (pressure evictions,
    /// spill-to-sparse, SQL fallback) fires — the batched kernel still
    /// reports the exact counts, fallback flags, `sql_fallbacks`, and
    /// `pressure_evictions` of the same build at one row per block and per
    /// extent, on both counting backends and staging paths.
    #[test]
    fn batched_kernel_identical_under_tight_budgets(
        rows in rows_strategy(),
        budget in 64u64..5_000,
        dense_cap in prop::sample::select(vec![0u64, 1 << 20]),
    ) {
        for build in [MiddlewareConfig::builder, file_variant] {
            let (on_cc, on_stats) = drive(
                &rows,
                build().memory_budget_bytes(budget).cc_dense_max_bytes(dense_cap).build(),
            );
            let (off_cc, off_stats) = drive(
                &rows,
                build()
                    .memory_budget_bytes(budget)
                    .cc_dense_max_bytes(dense_cap)
                    .scan_block_rows(1)
                    .stage_extent_rows(1)
                    .build(),
            );
            prop_assert_eq!(
                &on_cc,
                &off_cc,
                "counts diverged at budget {} (dense_cap {})",
                budget,
                dense_cap
            );
            prop_assert_eq!(on_stats.sql_fallbacks, off_stats.sql_fallbacks);
            prop_assert_eq!(on_stats.pressure_evictions, off_stats.pressure_evictions);
            prop_assert_eq!(
                unframed(&on_stats),
                unframed(&off_stats),
                "logical stats diverged at budget {} (dense_cap {})",
                budget,
                dense_cap
            );
        }
    }

    /// Raw kernel property: a dense table fed an arbitrary row stream is
    /// indistinguishable from a sparse one through every accessor —
    /// entry iteration order, per-attribute vectors, point counts,
    /// modelled memory. So it stays when codes past the layout spill it
    /// mid-stream, when counted rows are removed again (a row never
    /// counted is refused and leaves both tables as they were), and when a
    /// sparse table is loaded into a dense one entry by entry, as a SQL
    /// fallback's aggregates are.
    #[test]
    fn dense_counts_table_matches_sparse_exactly(
        rows in rows_strategy(),
        escapes in prop::collection::vec((0usize..200, 0usize..4, 0u16..2), 0..3),
        removed in prop::collection::vec(any::<bool>(), 200),
    ) {
        let cards = [(0u16, 4u64), (1, 3), (2, 5)];
        let mut sparse = CountsTable::new();
        let mut dense = CountsTable::new_dense(&cards, 2);
        prop_assert!(dense.is_dense());
        for r in &rows {
            sparse.add_row(&r[..], &[0, 1, 2], 3);
            dense.add_row(&r[..], &[0, 1, 2], 3);
        }
        prop_assert_eq!(&dense, &sparse);
        prop_assert_eq!(
            dense.iter().collect::<Vec<_>>(),
            sparse.iter().collect::<Vec<_>>(),
            "entry iteration order diverged"
        );
        for attr in [0u16, 1, 2] {
            prop_assert_eq!(
                dense.attr_vector(attr).collect::<Vec<_>>(),
                sparse.attr_vector(attr).collect::<Vec<_>>(),
                "attr_vector order diverged on attr {}", attr
            );
        }
        prop_assert_eq!(dense.entries(), sparse.entries());
        prop_assert_eq!(dense.memory_bytes(), sparse.memory_bytes());

        same_counts(&dense, &sparse)?;

        // A sparse table loaded into a dense one: an entry-by-entry bump.
        let mut bumped = loaded(&cards, &sparse);
        prop_assert!(bumped.is_dense());
        prop_assert_eq!(&bumped, &sparse);
        prop_assert_eq!(bumped.entries(), sparse.entries());

        // Codes at or one past a column's card (the class's included)
        // spill the dense table at the first row holding one.
        let bounds = [4u16, 3, 5, 2];
        let mut mixed = rows.clone();
        for &(at, col, past) in &escapes {
            let n = mixed.len();
            mixed[at % n][col] = bounds[col] + past;
        }
        let fits = |r: &[Code; 4]| r.iter().zip(bounds).all(|(&c, b)| c < b);
        let mut sparse = CountsTable::new();
        let mut dense = CountsTable::new_dense(&cards, 2);
        for r in &mixed {
            sparse.add_row(&r[..], &[0, 1, 2], 3);
            dense.add_row(&r[..], &[0, 1, 2], 3);
        }
        prop_assert_eq!(dense.is_dense(), mixed.iter().all(fits));
        prop_assert_eq!(&dense, &sparse);
        same_counts(&dense, &sparse)?;
        bumped = loaded(&cards, &sparse);
        prop_assert_eq!(bumped.is_dense(), mixed.iter().all(fits));
        prop_assert_eq!(&bumped, &sparse);

        // Remove a drawn subset of the counted rows from both tables.
        let mut kept = Vec::new();
        for (r, &gone) in mixed.iter().zip(&removed) {
            if gone {
                prop_assert!(dense.remove_row(&r[..], &[0, 1, 2], 3));
                prop_assert!(sparse.remove_row(&r[..], &[0, 1, 2], 3));
            } else {
                kept.push(*r);
            }
        }
        prop_assert_eq!(&dense, &sparse);
        prop_assert_eq!(dense.entries(), sparse.entries());
        prop_assert_eq!(dense.total(), kept.len() as u64);
        same_counts(&dense, &sparse)?;

        // Rows never counted, refused by both, leaving each as it was: a
        // kept row's first two codes (or zeros) and a code of `c` no row
        // holds; and, if there is one, a row inside the layout whose class
        // and first two entries are counted but whose third is not.
        let mut stranger = kept.first().copied().unwrap_or([0; 4]);
        stranger[2] = 9;
        let mut inside = (0..4u16).flat_map(|a| {
            (0..3u16).flat_map(move |b| {
                (0..5u16).flat_map(move |c| (0..2).map(move |k| [a, b, c, k]))
            })
        });
        let seen = |r: [Code; 4], attr: u16| sparse.count(attr, r[usize::from(attr)], r[3]) > 0;
        let unseen = inside.find(|&r| seen(r, 0) && seen(r, 1) && !seen(r, 2));
        let (dense_was, sparse_was) = (dense.clone(), sparse.clone());
        for r in std::iter::once(stranger).chain(unseen) {
            prop_assert!(!dense.remove_row(&r[..], &[0, 1, 2], 3));
            prop_assert!(!sparse.remove_row(&r[..], &[0, 1, 2], 3));
            prop_assert_eq!(&dense, &dense_was);
            prop_assert_eq!(&sparse, &sparse_was);
            prop_assert_eq!(dense.entries(), dense_was.entries());
            prop_assert_eq!(dense.is_dense(), dense_was.is_dense());
        }
    }
}

/// A dense table over `cards` (two classes) loaded with `table`'s
/// entries as aggregates, its totals taken from its first attribute.
fn loaded(cards: &[(u16, u64)], table: &CountsTable) -> CountsTable {
    let mut loaded = CountsTable::new_dense(cards, 2);
    for ((attr, value, class), n) in table.iter() {
        loaded.add_aggregate(attr, value, class, n);
    }
    loaded.set_totals_from_attr(0);
    loaded
}

/// `count` agrees between two tables over every key of the
/// [`dense_counts_table_matches_sparse_exactly`] layout (attributes 0–2
/// at cards 4, 3, 5 over two classes), one past each bound, and the
/// untracked class column.
fn same_counts(a: &CountsTable, b: &CountsTable) -> Result<(), proptest::TestCaseError> {
    for (attr, card) in [(0u16, 4u16), (1, 3), (2, 5), (3, 2)] {
        for value in 0..=card {
            for class in 0..=2 {
                prop_assert_eq!(
                    a.count(attr, value, class),
                    b.count(attr, value, class),
                    "count({}, {}, {}) diverged",
                    attr,
                    value,
                    class
                );
            }
        }
    }
    Ok(())
}

/// Run the sessions-vs-serial bit-identity check once: K concurrent
/// sessions over one shared backend under global budget `B` must each
/// behave exactly like an isolated serial middleware budgeted the
/// arbiter's fair share `floor(B / K)` — same counts tables, same
/// fallback flags, same logical stats — and the per-session stats
/// therefore sum to K times the serial run's (the old single-session
/// global counters decompose exactly into the per-session ones).
fn assert_sessions_match_serial(
    rows: &[[Code; 4]],
    k: usize,
    budget: u64,
    dense_cap: u64,
) -> Result<(), proptest::TestCaseError> {
    for build in [MiddlewareConfig::builder, file_variant] {
        let pool_cfg = build()
            .memory_budget_bytes(budget)
            .cc_dense_max_bytes(dense_cap)
            .sessions(k)
            .build();
        let serial_cfg = build()
            .memory_budget_bytes(budget / k as u64)
            .cc_dense_max_bytes(dense_cap)
            .build();
        let (serial_cc, serial_stats) = drive(rows, serial_cfg);
        let sessions = drive_sessions(rows, pool_cfg);
        prop_assert_eq!(sessions.len(), k);
        let mut sum_served = 0u64;
        let mut sum_scan_rows = 0u64;
        let mut sum_staged = 0u64;
        let mut sum_file_rows = 0u64;
        let mut sum_fallbacks = 0u64;
        for (cc, stats) in &sessions {
            prop_assert_eq!(
                cc,
                &serial_cc,
                "counts diverged from the serial fair-share run (K={}, budget {})",
                k,
                budget
            );
            prop_assert_eq!(
                logical(stats),
                logical(&serial_stats),
                "per-session stats diverged (K={}, budget {})",
                k,
                budget
            );
            sum_served += stats.requests_served;
            sum_scan_rows += stats.scan_rows;
            sum_staged += stats.memory_rows_staged;
            sum_file_rows += stats.file_rows_written;
            sum_fallbacks += stats.sql_fallbacks;
        }
        let k64 = k as u64;
        prop_assert_eq!(sum_served, serial_stats.requests_served * k64);
        prop_assert_eq!(sum_scan_rows, serial_stats.scan_rows * k64);
        prop_assert_eq!(sum_staged, serial_stats.memory_rows_staged * k64);
        prop_assert_eq!(sum_file_rows, serial_stats.file_rows_written * k64);
        prop_assert_eq!(sum_fallbacks, serial_stats.sql_fallbacks * k64);
    }
    Ok(())
}

proptest! {
    /// TENTPOLE PROPERTY: K concurrent sessions (K ∈ {2, 4}) sharing one
    /// backend and one arbitrated budget are bit-identical to K isolated
    /// serial runs at the fair-share budget — across sparse/dense counting
    /// backends, memory- and file-staging, and budgets tight enough to
    /// force evictions and §4.1.1 fallbacks. Debug shadow accounting
    /// (staged bytes ≤ lease, Σ leases ≤ budget) runs at every batch
    /// checkpoint inside these drives.
    #[test]
    fn concurrent_sessions_bit_identical_to_serial(
        rows in rows_strategy(),
        k in prop::sample::select(vec![2usize, 4]),
        budget in 4_096u64..60_000,
        dense_cap in prop::sample::select(vec![0u64, 1 << 20]),
    ) {
        // Mask the low bits so `budget / k` is exact for both K values:
        // the arbiter hands the `budget % K` remainder out one byte per
        // lease, and those +1-byte leases have no serial counterpart.
        assert_sessions_match_serial(&rows, k, budget & !3, dense_cap)?;
    }

    /// The asynchronous [`SessionPool`] front-end serves every session the
    /// exact counts of the deterministic drives. Channel timing makes its
    /// *batching* nondeterministic (a session may wake before the whole
    /// frontier is queued), so round/scan counters are not compared here —
    /// only results and the batching-independent served count.
    #[test]
    fn session_pool_counts_are_exact(
        rows in rows_strategy(),
        k in prop::sample::select(vec![2usize, 4]),
    ) {
        let (serial_cc, serial_stats) = drive(
            &rows,
            MiddlewareConfig::builder()
                .memory_budget_bytes((1 << 20) / k as u64)
                .build(),
        );
        let sessions = drive_pool(
            &rows,
            MiddlewareConfig::builder()
                .memory_budget_bytes(1 << 20)
                .sessions(k)
                .build(),
        );
        prop_assert_eq!(sessions.len(), k);
        for (cc, stats) in &sessions {
            prop_assert_eq!(cc, &serial_cc, "pool session counts diverged (K={})", k);
            prop_assert_eq!(stats.requests_served, serial_stats.requests_served);
        }
    }
}

/// Run the mid-stage-drop check once. K sessions share one backend and
/// one explicit staging directory; the victim session processes its root
/// batch (staging the root data set to memory or file), enqueues the
/// child round, and is dropped with that work still pending. One survivor
/// has served its own root batch by then, so under shared staging it
/// holds a reader share of the victim's published entry when the victim
/// detaches. Asserts: every survivor's lease grows after the drop, the
/// survivors' counts tables are bit-identical to a serial run, the shared
/// catalog drains to zero entries once every session closes, and no files
/// — private, partial, or shared — are left in the staging directory.
fn assert_drop_mid_stage_is_clean(
    rows: &[[Code; 4]],
    k: usize,
    budget: u64,
    dense_cap: u64,
    shared: bool,
) -> Result<(), proptest::TestCaseError> {
    static DIR_SEQ: std::sync::atomic::AtomicUsize = std::sync::atomic::AtomicUsize::new(0);
    // Fallback flags depend on the lease, and survivors finish under a
    // *grown* lease (≈ budget / (K-1)) that matches no single serial
    // budget — so compare the budget-independent counts tables only.
    fn counts_only(cc: &NodeCounts) -> std::collections::BTreeMap<u64, CountsTable> {
        cc.iter().map(|(n, (t, _))| (*n, t.clone())).collect()
    }
    for build in [MiddlewareConfig::builder, file_variant] {
        let dir = std::env::temp_dir().join(format!(
            "scaleclass-drop-prop-{}-{}",
            std::process::id(),
            DIR_SEQ.fetch_add(1, std::sync::atomic::Ordering::Relaxed)
        ));
        std::fs::create_dir_all(&dir).unwrap();
        let cfg = build()
            .memory_budget_bytes(budget)
            .cc_dense_max_bytes(dense_cap)
            .sessions(k)
            .shared_staging(shared)
            .staging_dir(&dir)
            .build();
        let (serial_cc, _) = drive(rows, build().cc_dense_max_bytes(dense_cap).build());
        let expected = counts_only(&serial_cc);

        let backend = Arc::new(Backend::new(load_db(rows), "d", "class", cfg).unwrap());
        let mut sessions: Vec<Session> = (0..k)
            .map(|_| Session::open(Arc::clone(&backend)).unwrap())
            .collect();
        let mut victim = sessions.pop().unwrap();
        let data = rows.to_vec();

        // The victim stages its root set and leaves the child round
        // pending — dead mid-lifecycle, staged data and queue non-empty.
        victim.enqueue(victim.root_request(NodeId(0))).unwrap();
        for f in victim.process_next_batch().unwrap() {
            for req in follow_ups(&data, f.node) {
                victim.enqueue(req).unwrap();
            }
        }
        let mut outs: Vec<NodeCounts> = (0..sessions.len()).map(|_| NodeCounts::new()).collect();
        {
            let first = &mut sessions[0];
            first.enqueue(first.root_request(NodeId(0))).unwrap();
            for f in first.process_next_batch().unwrap() {
                for req in follow_ups(&data, f.node) {
                    first.enqueue(req).unwrap();
                }
                outs[0].insert(f.node.0, ((*f.cc).clone(), f.via_sql_fallback));
            }
        }

        let leases_before: Vec<u64> = sessions.iter().map(Session::lease_bytes).collect();
        drop(victim);
        for (s, &before) in sessions.iter().zip(&leases_before) {
            prop_assert!(
                s.lease_bytes() > before,
                "survivor lease {} did not grow past {} after the drop (K={}, shared={})",
                s.lease_bytes(),
                before,
                k,
                shared
            );
        }

        for (i, (sess, out)) in sessions.iter_mut().zip(outs.iter_mut()).enumerate() {
            if i != 0 {
                sess.enqueue(sess.root_request(NodeId(0))).unwrap();
            }
            sess.run_to_completion(|f| {
                let follow = follow_ups(&data, f.node);
                out.insert(f.node.0, ((*f.cc).clone(), f.via_sql_fallback));
                follow
            })
            .unwrap();
            sess.assert_shadow_accounting();
        }
        for out in &outs {
            prop_assert_eq!(
                &counts_only(out),
                &expected,
                "survivor counts diverged (K={}, shared={})",
                k,
                shared
            );
        }

        drop(sessions);
        prop_assert_eq!(
            backend.catalog().entry_count(),
            0,
            "shared entries leaked past the last reader"
        );
        drop(backend);
        let leftover: Vec<String> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .collect();
        prop_assert!(
            leftover.is_empty(),
            "orphan staging files after every session closed: {:?}",
            leftover
        );
        std::fs::remove_dir_all(&dir).ok();
    }
    Ok(())
}

proptest! {
    /// SATELLITE PROPERTY: a session dying mid-stage — staged data held,
    /// child requests queued — never strands resources. Survivors inherit
    /// its lease share, its private and shared staged data are released
    /// (shared entries only once the last reader detaches), the staging
    /// directory ends empty, and the survivors' counts stay bit-identical
    /// to a serial run. Exercised over K ∈ {2, 4}, memory- and file-
    /// staging, sparse and dense counting, shared staging off and on.
    #[test]
    fn dropped_session_mid_stage_leaves_no_orphans(
        rows in rows_strategy(),
        k in prop::sample::select(vec![2usize, 4]),
        budget in 4_096u64..60_000,
        dense_cap in prop::sample::select(vec![0u64, 1 << 20]),
        shared in any::<bool>(),
    ) {
        assert_drop_mid_stage_is_clean(&rows, k, budget & !3, dense_cap, shared)?;
    }
}

/// The counting path the in-place block kernel replaced (PR 21), kept as
/// the reference: `BlockPass::count` gathered the attribute and class
/// columns of a node's selected rows back to back (`Block::gather`), and
/// `CountsTable::add_gathered` counted the runs. The bodies are the old
/// ones verbatim; only their writes go through the public table API —
/// `add_aggregate` for a slot or map entry, `add_class_aggregate` for a
/// class total and the row total.
mod gathered_reference {
    use scaleclass::CountsTable;
    use scaleclass_sqldb::{Code, ColumnView};

    /// Count the rows `sel` of the block whose column `c` is `column(c)`.
    pub fn count<'b>(
        cc: &mut CountsTable,
        column: impl Fn(usize) -> ColumnView<'b>,
        sel: &[u32],
        attrs: &[u16],
        class_col: u16,
    ) {
        let mut gathered = Vec::new();
        for &col in attrs.iter().chain(std::iter::once(&class_col)) {
            gather(&column, usize::from(col), sel, &mut gathered);
        }
        add_gathered(cc, attrs, &gathered, sel.len());
    }

    fn gather<'b>(
        column: &impl Fn(usize) -> ColumnView<'b>,
        col: usize,
        sel: &[u32],
        out: &mut Vec<Code>,
    ) {
        let codes = column(col);
        // Selections are minted over this block's rows.
        out.extend(sel.iter().map(|&r| codes.get(r)));
    }

    fn add_gathered(cc: &mut CountsTable, attrs: &[u16], gathered: &[Code], n: usize) {
        debug_assert_eq!(
            gathered.len(),
            attrs.len().saturating_add(1).saturating_mul(n)
        );
        if n == 0 {
            return;
        }
        let mut runs = gathered.chunks_exact(n);
        let class = runs.next_back().unwrap_or(&[]);
        for (&attr, col) in attrs.iter().zip(runs) {
            accumulate_col(cc, attr, col, class);
        }
        add_class_totals(cc, class);
    }

    fn accumulate_col(cc: &mut CountsTable, attr: u16, col: &[Code], class: &[Code]) {
        let mut run_key: Option<(Code, Code)> = None;
        let mut run = 0u64;
        for (&v, &k) in col.iter().zip(class.iter()) {
            if run_key == Some((v, k)) {
                run = run.saturating_add(1);
            } else {
                if let Some((pv, pk)) = run_key {
                    cc.add_aggregate(attr, pv, pk, run);
                }
                run_key = Some((v, k));
                run = 1;
            }
        }
        if let Some((pv, pk)) = run_key {
            cc.add_aggregate(attr, pv, pk, run);
        }
    }

    fn add_class_totals(cc: &mut CountsTable, class: &[Code]) {
        let mut run_class: Option<Code> = None;
        let mut run = 0u64;
        for &k in class {
            if run_class == Some(k) {
                run = run.saturating_add(1);
            } else {
                if let Some(pk) = run_class {
                    cc.add_class_aggregate(pk, run);
                }
                run_class = Some(k);
                run = 1;
            }
        }
        if let Some(pk) = run_class {
            cc.add_class_aggregate(pk, run);
        }
    }
}

/// The counting path the block path replaced, kept as the reference: one
/// row at a time, every node whose path `Pred::eval` accepts the row, in
/// ascending node order — no trie, no kernel, no gate. Per node it counts
/// the row (`CountsTable::add_row`, which spills a dense table the row
/// escapes); if the table grew past the budget it evicts cached sets, last
/// first, then falls back to SQL, dropping the table; it tees the row into
/// the node's staged file and memory set, and cancels the set once it
/// overflows. A row some node took then goes to the split file and, by its
/// offset in the stream, to the kept rows. Then it observes memory. Nodes
/// carry no plan here.
mod row_reference {
    use scaleclass::executor::NodeCounter;
    use scaleclass::staging::FileWriter;
    use scaleclass::{CountsTable, MiddlewareStats, CC_ENTRY_BYTES};
    use scaleclass_sqldb::Code;

    pub struct RowCounter {
        pub nodes: Vec<NodeCounter>,
        pub evicted: Vec<u64>,
        pub split_writer: Option<FileWriter>,
        pub kept: Option<Vec<u32>>,
        next_row: u32,
        budget: u64,
        base: u64,
        evictable: Vec<(u64, u64)>,
        cc_bytes: u64,
        buffer_bytes: u64,
    }

    impl RowCounter {
        pub fn new(
            nodes: Vec<NodeCounter>,
            budget: u64,
            base: u64,
            evictable: Vec<(u64, u64)>,
        ) -> Self {
            RowCounter {
                nodes,
                evicted: Vec::new(),
                split_writer: None,
                kept: None,
                next_row: 0,
                budget,
                base,
                evictable,
                cc_bytes: 0,
                buffer_bytes: 0,
            }
        }

        pub fn memory_in_use(&self) -> u64 {
            self.base + self.cc_bytes + self.buffer_bytes
        }

        fn over(&self) -> bool {
            self.memory_in_use() > self.budget
        }

        pub fn process_row(&mut self, row: &[Code], stats: &mut MiddlewareStats) {
            let mut any = false;
            for idx in 0..self.nodes.len() {
                if !self.nodes[idx].req.pred().eval(row) {
                    continue;
                }
                any = true;
                let node = &mut self.nodes[idx];
                let mut grew = 0;
                if !node.fallback {
                    let before = node.cc.entries();
                    node.cc.add_row(row, &node.req.attrs, node.req.class_col);
                    grew = (node.cc.entries() - before) as u64 * CC_ENTRY_BYTES;
                    self.cc_bytes += grew;
                }
                while grew > 0 && self.over() {
                    let Some((id, bytes)) = self.evictable.pop() else {
                        break;
                    };
                    self.base -= bytes;
                    self.evicted.push(id);
                    stats.pressure_evictions += 1;
                }
                if grew > 0 && self.over() {
                    let node = &mut self.nodes[idx];
                    self.cc_bytes -= node.cc.memory_bytes();
                    node.cc = CountsTable::new();
                    node.fallback = true;
                    stats.sql_fallbacks += 1;
                }
                if let Some(w) = self.nodes[idx].file_writer.as_mut() {
                    w.push(row).unwrap();
                }
                if let Some(buf) = self.nodes[idx].mem_buffer.as_mut() {
                    buf.push(row);
                    self.buffer_bytes += buf.width().row_bytes(row.len());
                    if self.over() {
                        let cancelled = self.nodes[idx].mem_buffer.take();
                        self.buffer_bytes -= cancelled.map_or(0, |b| b.len_bytes() as u64);
                    }
                }
            }
            if any {
                if let Some(w) = self.split_writer.as_mut() {
                    w.push(row).unwrap();
                }
                if let Some(kept) = self.kept.as_mut() {
                    kept.push(self.next_row);
                }
            }
            self.next_row += 1;
            stats.observe_memory(self.memory_in_use());
        }
    }
}

/// One generated block for the kernel properties: `nrows` rows of
/// `n_attrs` attribute columns, a class column and a selector column at
/// generated positions (neither necessarily last), and the attributes a
/// node counts — a subset of the attribute columns, in generated order.
struct KernelCase {
    arity: usize,
    flat: Vec<Code>,
    class_col: u16,
    sel_col: usize,
    attrs: Vec<u16>,
    /// `(attribute column, cardinality)` of every attribute column: the
    /// dense layout, a superset of `attrs`.
    cards: Vec<(u16, u64)>,
    n_classes: u64,
}

/// Which rows the selector column marks.
#[derive(Debug, Clone, Copy)]
enum SelKind {
    Empty,
    OneRow,
    Full,
    FirstAndLast,
    Sparse,
}

impl KernelCase {
    fn generate(n_classes: u64, n_attrs: usize, nrows: usize, kind: SelKind, seed: u64) -> Self {
        let mut state = seed | 1;
        let mut next = move |bound: usize| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state % bound as u64) as usize
        };
        let arity = n_attrs + 2;
        let class_col = next(arity);
        let sel_col = (class_col + 1 + next(arity - 1)) % arity;
        let attr_cols: Vec<usize> = (0..arity)
            .filter(|&c| c != class_col && c != sel_col)
            .collect();
        let cards: Vec<(u16, u64)> = attr_cols
            .iter()
            .map(|&c| (c as u16, 1 + next(5) as u64))
            .collect();
        let mut order = attr_cols.clone();
        for i in (1..order.len()).rev() {
            order.swap(i, next(i + 1));
        }
        let attrs: Vec<u16> = order[..1 + next(n_attrs)]
            .iter()
            .map(|&c| c as u16)
            .collect();
        let one = next(nrows.max(1));
        let mut flat = vec![0; nrows * arity];
        for (r, row) in flat.chunks_exact_mut(arity).enumerate() {
            for &(c, card) in &cards {
                row[usize::from(c)] = next(card as usize) as Code;
            }
            row[class_col] = next(n_classes as usize) as Code;
            row[sel_col] = Code::from(match kind {
                SelKind::Empty => false,
                SelKind::OneRow => r == one,
                SelKind::Full => true,
                SelKind::FirstAndLast => r == 0 || r + 1 == nrows,
                SelKind::Sparse => next(4) == 0,
            });
        }
        KernelCase {
            arity,
            flat,
            class_col: class_col as u16,
            sel_col,
            attrs,
            cards,
            n_classes,
        }
    }

    /// An empty table on the chosen backend.
    fn table(&self, dense: bool) -> CountsTable {
        if dense {
            let cc = CountsTable::new_dense(&self.cards, self.n_classes);
            assert!(cc.is_dense());
            cc
        } else {
            CountsTable::new()
        }
    }

    /// The rows whose selector holds `mark`.
    fn selection(&self, mark: Code) -> Vec<u32> {
        let rows = self.flat.chunks_exact(self.arity);
        (0u32..)
            .zip(rows)
            .filter(|(_, row)| row[self.sel_col] == mark)
            .map(|(r, _)| r)
            .collect()
    }

    /// Two nodes over the block: the rows the selector marks 1, and the
    /// complement. Each counts `attrs` against the class column.
    fn nodes(&self, dense: bool) -> Vec<NodeCounter> {
        (0..2u16)
            .map(|mark| {
                let pred = Pred::Eq {
                    col: self.sel_col,
                    value: 1 - mark,
                };
                let mut node = NodeCounter::new(CcRequest {
                    lineage: Lineage::root(NodeId(0)).child(NodeId(1 + u64::from(mark)), pred),
                    attrs: self.attrs.clone(),
                    class_col: self.class_col,
                    rows: 0,
                    parent_rows: 0,
                    parent_cards: vec![],
                });
                node.cc = self.table(dense);
                node
            })
            .collect()
    }
}

/// Two tables are the same through every accessor the scheduler and the
/// client read, and neither carries a zero-count class.
fn assert_same_table(a: &CountsTable, b: &CountsTable) -> Result<(), proptest::TestCaseError> {
    prop_assert_eq!(a, b);
    prop_assert_eq!(a.iter().collect::<Vec<_>>(), b.iter().collect::<Vec<_>>());
    prop_assert_eq!(a.entries(), b.entries());
    prop_assert_eq!(a.memory_bytes(), b.memory_bytes());
    prop_assert_eq!(a.shadow_memory_bytes(), b.shadow_memory_bytes());
    prop_assert_eq!(a.memory_bytes(), a.shadow_memory_bytes());
    prop_assert_eq!(a.total(), b.total());
    prop_assert_eq!(
        a.class_distribution().collect::<Vec<_>>(),
        b.class_distribution().collect::<Vec<_>>()
    );
    prop_assert_eq!(a.distinct_classes(), b.distinct_classes());
    prop_assert_eq!(a.is_dense(), b.is_dense());
    for cc in [a, b] {
        prop_assert!(
            cc.class_distribution().all(|(_, n)| n > 0),
            "a zero-count class was inserted"
        );
    }
    Ok(())
}

fn sel_kind() -> impl Strategy<Value = SelKind> {
    prop::sample::select(vec![
        SelKind::Empty,
        SelKind::OneRow,
        SelKind::Full,
        SelKind::FirstAndLast,
        SelKind::Sparse,
    ])
}

proptest! {
    /// TENTPOLE PROPERTY (PR 21): the block kernel, reading a node's
    /// selected rows in place, builds the table the gather path it
    /// replaced built (`gathered_reference`) and the table one `add_row`
    /// per selected row builds — every accessor, both backends, class
    /// cardinalities 1 to 300, 1 to 65 attributes, attributes a subset of
    /// the layout in any order, a class column anywhere. The row-major
    /// layout is a wire fetch or memory set through
    /// `BatchCounter::process_block` (two nodes, the selection and its
    /// complement); the column-major one is the public `add_block` over a
    /// block that holds exactly the selection. The reference reads either
    /// layout alike.
    #[test]
    fn block_kernel_matches_the_gather_reference_and_the_row_path(
        n_classes in prop::sample::select(vec![1u64, 2, 10, 64, 65, 300]),
        n_attrs in prop::sample::select(vec![1usize, 25, 64, 65]),
        nrows in 0usize..48,
        kind in sel_kind(),
        dense in any::<bool>(),
        seed in any::<u64>(),
    ) {
        let case = KernelCase::generate(n_classes, n_attrs, nrows, kind, seed);
        let (attrs, class_col, arity) = (&case.attrs, case.class_col, case.arity);
        let mut batch = BatchCounter::new(case.nodes(dense), u64::MAX, 0, arity);
        let mut stats = MiddlewareStats::new();
        batch.process_block(&case.flat, &mut stats).unwrap();
        let selections = [case.selection(1), case.selection(0)];
        prop_assert_eq!(stats.block_fallback_rows, 0);
        prop_assert_eq!(
            stats.blocks_counted,
            selections.iter().filter(|s| !s.is_empty()).count() as u64
        );
        batch.assert_shadow_accounting();

        let cols: Vec<Vec<Code>> = (0..arity)
            .map(|c| case.flat.iter().skip(c).step_by(arity).copied().collect())
            .collect();
        for (node, sel) in batch.nodes.iter().zip(&selections) {
            let mut row_major = case.table(dense);
            gathered_reference::count(
                &mut row_major,
                |c| ColumnView::row_major(&case.flat, arity, c),
                sel,
                attrs,
                class_col,
            );
            let mut col_major = case.table(dense);
            gathered_reference::count(
                &mut col_major,
                |c| ColumnView { codes: &cols[c], stride: 1 },
                sel,
                attrs,
                class_col,
            );
            let mut rowwise = case.table(dense);
            for &r in sel {
                let start = r as usize * arity;
                rowwise.add_row(&case.flat[start..start + arity], attrs, class_col);
            }
            assert_same_table(&node.cc, &row_major)?;
            assert_same_table(&col_major, &row_major)?;
            assert_same_table(&rowwise, &row_major)?;

            // Column-major, every row: a block of exactly the selection.
            let picked: Vec<Vec<Code>> = cols
                .iter()
                .map(|col| sel.iter().map(|&r| col[r as usize]).collect())
                .collect();
            let refs: Vec<&[Code]> = picked.iter().map(Vec::as_slice).collect();
            let mut block = case.table(dense);
            block.add_block(&refs, class_col, attrs);
            assert_same_table(&block, &row_major)?;
        }
    }

    /// Under budgets tight enough that the gate refuses blocks and the
    /// §4.1.1 machinery fires, the kernel's `BatchCounter` ends where the
    /// per-row reference (`row_reference`) ends — tables, fallback flags,
    /// modelled memory, every logical stat including the `observe_memory`
    /// peak, the staged file of the second node, the split file and the
    /// kept rows — over a stream of three blocks, with or without a memory
    /// tee on the first node, a file tee on the second, a split file, kept
    /// rows and cached sets to evict.
    #[test]
    fn block_kernel_matches_the_row_path_under_tight_budgets(
        n_classes in prop::sample::select(vec![1u64, 2, 10, 65]),
        n_attrs in prop::sample::select(vec![1usize, 25]),
        nrows in 1usize..48,
        kind in sel_kind(),
        dense in any::<bool>(),
        seed in any::<u64>(),
        budget in 64u64..5_000,
        tee in any::<bool>(),
        file_tee in any::<bool>(),
        split in any::<bool>(),
        keep in any::<bool>(),
        cached in prop::collection::vec(1u64..1_000, 0..3),
    ) {
        let case = KernelCase::generate(n_classes, n_attrs, nrows, kind, seed);
        let arity = case.arity;
        let mut staging = [(); 2].map(|()| {
            let mut staging = StagingManager::new(None).unwrap();
            staging.set_extent_rows(5);
            staging
        });
        let file = |s: &mut StagingManager, node: u64| {
            s.start_file(vec![NodeId(node)], Pred::True, arity).unwrap()
        };
        let nodes = |s: &mut StagingManager| {
            let mut nodes = case.nodes(dense);
            if tee {
                nodes[0].mem_buffer = Some(MemRows::new(CodeWidth::Two));
            }
            nodes[1].file_writer = file_tee.then(|| file(s, 2));
            nodes
        };
        let evictable: Vec<(u64, u64)> = (0..).zip(cached).collect();
        let base: u64 = evictable.iter().map(|&(_, bytes)| bytes).sum();
        let [at_block, at_row] = &mut staging;
        let mut blocked = BatchCounter::new(nodes(at_block), budget, base, arity);
        blocked.evictable = evictable.clone();
        blocked.split_writer = split.then(|| file(at_block, 9));
        blocked.kept = keep.then(Vec::new);
        let reference = nodes(at_row);
        let mut rowwise = row_reference::RowCounter::new(reference, budget, base, evictable);
        rowwise.split_writer = split.then(|| file(at_row, 9));
        rowwise.kept = keep.then(Vec::new);
        let (mut s_block, mut s_row) = (MiddlewareStats::new(), MiddlewareStats::new());
        for block in case.flat.chunks(arity * nrows.div_ceil(3)) {
            blocked.process_block(block, &mut s_block).unwrap();
            for row in block.chunks_exact(arity) {
                rowwise.process_row(row, &mut s_row);
            }
        }
        prop_assert_eq!(logical(&s_block), logical(&s_row));
        prop_assert_eq!(s_block.peak_memory_bytes, s_row.peak_memory_bytes);
        prop_assert_eq!(blocked.memory_in_use(), rowwise.memory_in_use());
        for (a, b) in blocked.nodes.iter().zip(&rowwise.nodes) {
            prop_assert_eq!(a.fallback, b.fallback);
            assert_same_table(&a.cc, &b.cc)?;
        }
        blocked.assert_shadow_accounting();
        prop_assert_eq!(&blocked.kept, &rowwise.kept);
        // Every staged file, byte for byte.
        let commit = |s: &mut StagingManager, w: Option<FileWriter>| {
            let id = s.commit_file(w?, &mut MiddlewareStats::new()).unwrap();
            Some(std::fs::read(s.extent_layout(id).unwrap()?.path).unwrap())
        };
        prop_assert_eq!(
            commit(at_block, blocked.nodes[1].file_writer.take()),
            commit(at_row, rowwise.nodes[1].file_writer.take())
        );
        prop_assert_eq!(
            commit(at_block, blocked.split_writer.take()),
            commit(at_row, rowwise.split_writer.take())
        );
    }
}

/// The lineage a request carried before lineages shared their ancestors,
/// kept as the reference: every `(node, full path predicate)` pair from
/// the root down, each child a copy of its parent's whole vector plus one
/// entry. The bodies are the old ones.
mod vec_lineage {
    use scaleclass::{DataLocation, NodeId};
    use scaleclass_sqldb::Pred;
    use std::collections::BTreeMap;

    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct VecLineage {
        pub entries: Vec<(NodeId, Pred)>,
    }

    impl VecLineage {
        pub fn root(node: NodeId) -> Self {
            VecLineage {
                entries: vec![(node, Pred::True)],
            }
        }

        pub fn child(&self, node: NodeId, edge: Pred) -> Self {
            let pred = Pred::and(vec![self.pred().clone(), edge]);
            let mut entries = self.entries.clone();
            entries.push((node, pred));
            VecLineage { entries }
        }

        pub fn node(&self) -> NodeId {
            self.entries.last().expect("lineage never empty").0
        }

        pub fn pred(&self) -> &Pred {
            &self.entries.last().expect("lineage never empty").1
        }

        pub fn depth(&self) -> usize {
            self.entries.len() - 1
        }

        pub fn contains(&self, ancestor: NodeId) -> bool {
            self.entries.iter().any(|(id, _)| *id == ancestor)
        }

        pub fn pred_of(&self, ancestor: NodeId) -> Option<&Pred> {
            self.entries
                .iter()
                .find(|(id, _)| *id == ancestor)
                .map(|(_, p)| p)
        }

        pub fn common_ancestor(lineages: &[&VecLineage]) -> Option<NodeId> {
            let first = lineages.first()?;
            let mut lca = None;
            for (depth, (id, _)) in first.entries.iter().enumerate() {
                if lineages
                    .iter()
                    .all(|l| l.entries.get(depth).map(|(i, _)| i) == Some(id))
                {
                    lca = Some(*id);
                } else {
                    break;
                }
            }
            lca
        }

        /// `StagingManager::best_location` over these entries, root first
        /// and the first of equals kept, given which node owns which
        /// memory set and staged file: `node → (id, rows)`.
        pub fn best_location(
            &self,
            mem_of: &BTreeMap<NodeId, (u64, u64)>,
            file_of: &BTreeMap<NodeId, (u64, u64)>,
        ) -> DataLocation {
            let mut best: Option<(u64, u8, DataLocation)> = None;
            let mut consider = |rows: u64, prio: u8, loc: DataLocation| {
                let better = match &best {
                    None => true,
                    Some((brows, bprio, _)) => {
                        (rows, std::cmp::Reverse(prio)) < (*brows, std::cmp::Reverse(*bprio))
                    }
                };
                if better {
                    best = Some((rows, prio, loc));
                }
            };
            for (node, _) in &self.entries {
                if let Some(&(id, rows)) = mem_of.get(node) {
                    consider(rows, 2, DataLocation::Memory(id));
                }
                if let Some(&(id, rows)) = file_of.get(node) {
                    consider(rows, 1, DataLocation::File(id));
                }
            }
            best.map(|(_, _, loc)| loc).unwrap_or(DataLocation::Server)
        }
    }
}

use vec_lineage::VecLineage;

/// A random forest of `nodes` nodes grown one child at a time under a
/// drawn parent, each node's lineage built both ways. Node ids count from
/// 0 in each of the two trees, so ids repeat across trees (never along one
/// lineage, as a client allocates them); edges are `=`, `<>`, a two-atom
/// conjunction, and now and then `TRUE` or `FALSE`.
fn lineage_forest(seed: u64, nodes: usize) -> Vec<(Lineage, VecLineage)> {
    let mut state = seed | 1;
    let mut draw = |bound: usize| {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        (state % bound as u64) as usize
    };
    let mut forest = vec![
        (Lineage::root(NodeId(0)), VecLineage::root(NodeId(0))),
        (Lineage::root(NodeId(0)), VecLineage::root(NodeId(0))),
    ];
    // Which tree each entry of `forest` is in, and each tree's next id.
    let mut tree_of = vec![0usize, 1];
    let mut next_id = [1u64, 1];
    for _ in 0..nodes {
        let parent = draw(forest.len());
        let tree = tree_of[parent];
        tree_of.push(tree);
        let (col, value) = (draw(4), draw(3) as Code);
        let edge = match draw(12) {
            0 => Pred::True,
            1 => Pred::False,
            2 | 3 => Pred::And(vec![
                Pred::Eq { col, value },
                Pred::NotEq {
                    col: (col + 1) % 4,
                    value,
                },
            ]),
            4..=7 => Pred::NotEq { col, value },
            _ => Pred::Eq { col, value },
        };
        let id = NodeId(next_id[tree]);
        next_id[tree] += 1;
        let (chain, reference) = &forest[parent];
        let child = (chain.child(id, edge.clone()), reference.child(id, edge));
        forest.push(child);
    }
    forest
}

/// Every accessor of a shared lineage against the vector one.
fn assert_same_lineage(
    chain: &Lineage,
    reference: &VecLineage,
) -> Result<(), proptest::TestCaseError> {
    prop_assert_eq!(chain.node(), reference.node());
    prop_assert_eq!(chain.pred(), reference.pred());
    prop_assert_eq!(chain.depth(), reference.depth());
    let mut up: Vec<(NodeId, Pred)> = chain.entries().map(|(id, p)| (id, p.clone())).collect();
    up.reverse();
    prop_assert_eq!(&up, &reference.entries, "entries, node up to root");
    for id in (0..reference.entries.len() as u64 + 2).map(NodeId) {
        prop_assert_eq!(chain.contains(id), reference.contains(id));
        prop_assert_eq!(chain.pred_of(id), reference.pred_of(id));
    }
    Ok(())
}

proptest! {
    /// A lineage that links to its parent is the lineage that copied every
    /// ancestor's path: over random forests, the same node, path predicate,
    /// depth, ancestors (node up to root), membership and ancestor
    /// predicates; the same least common ancestor of any group of
    /// lineages, trees sharing node ids included; and `==` where the
    /// vectors are equal, clones included.
    #[test]
    fn shared_lineage_is_the_copied_lineage(
        seed in any::<u64>(),
        nodes in 0usize..60,
        groups in prop::collection::vec(prop::collection::vec(any::<usize>(), 1..5), 1..8),
    ) {
        let forest = lineage_forest(seed, nodes);
        for (chain, reference) in &forest {
            assert_same_lineage(chain, reference)?;
            assert_same_lineage(&chain.clone(), reference)?;
            prop_assert_eq!(&chain.clone(), chain);
        }
        // The two roots are equal without sharing a record; a node of one
        // tree and one of the other may name the same ids with other paths.
        for a in &forest {
            for b in &forest {
                prop_assert_eq!(a.0 == b.0, a.1 == b.1, "{:?} vs {:?}", a.1, b.1);
            }
        }
        for group in &groups {
            let picked: Vec<&(Lineage, VecLineage)> =
                group.iter().map(|i| &forest[i % forest.len()]).collect();
            let chains: Vec<&Lineage> = picked.iter().map(|p| &p.0).collect();
            let references: Vec<&VecLineage> = picked.iter().map(|p| &p.1).collect();
            prop_assert_eq!(
                Lineage::common_ancestor(&chains),
                VecLineage::common_ancestor(&references)
            );
        }
        prop_assert_eq!(Lineage::common_ancestor(&[]), None);
    }

    /// `StagingManager::best_location` walks a shared lineage from the
    /// node up; it picks what the root-first walk over the vector picked:
    /// fewest rows, memory over a file of equal rows, and between equals
    /// the ancestor nearest the root — over memory sets and staged files
    /// committed on random nodes of a random lineage with row counts drawn
    /// from a few values, so ties are common.
    #[test]
    fn best_location_over_a_shared_lineage_breaks_ties_as_before(
        seed in any::<u64>(),
        nodes in 0usize..30,
        staged in prop::collection::vec((any::<usize>(), any::<bool>(), 1u64..4), 0..8),
        leaf in any::<usize>(),
    ) {
        let forest = lineage_forest(seed, nodes);
        let (chain, reference) = &forest[leaf % forest.len()];
        let mut staging = StagingManager::new(None).unwrap();
        let mut stats = MiddlewareStats::new();
        let mut mem_of = std::collections::BTreeMap::new();
        let mut file_of = std::collections::BTreeMap::new();
        for (at, in_memory, rows) in &staged {
            let (node, _) = &reference.entries[at % reference.entries.len()];
            let row = [0 as Code; 2];
            if *in_memory {
                let flat = row.repeat(*rows as usize);
                let flat = MemRows::from_codes(CodeWidth::One, &flat);
                let id = staging.commit_mem(*node, Pred::True, flat, 2, &mut stats);
                mem_of.insert(*node, (id, *rows));
            } else {
                let mut w = staging.start_file(vec![*node], Pred::True, 2).unwrap();
                for _ in 0..*rows {
                    w.push(&row).unwrap();
                }
                let id = staging.commit_file(w, &mut stats).unwrap();
                file_of.insert(*node, (id, *rows));
            }
        }
        prop_assert_eq!(staging.best_location(chain), reference.best_location(&mem_of, &file_of));
    }
}
