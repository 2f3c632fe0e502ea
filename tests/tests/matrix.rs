//! The configuration matrix against one oracle. Every case draws a small
//! random table and a point of [`config_matrix`], runs `sessions`
//! concurrent tree builds over one backend, and must:
//!
//! * finish with no panic and no `MwError`;
//! * grow in every session whose counts all came exact — sampling off, or
//!   every sampled node escalated — the tree `grow_in_memory` grows from
//!   the same rows;
//! * pass the shadow accounting, hand every lease back to the arbiter and
//!   leave no file behind in the staging or the catalog directory;
//! * with deltas on, maintain one mutation into a tree split-identical to
//!   a from-scratch rebuild, as exact counts allow;
//! * show in its stats that each path its axes select ran.
//!
//! A table's delta log has one consumer — `take_deltas` drains it for
//! whichever session asks first — so K sessions maintaining one backend is
//! unsupported: with deltas on, session 0 maintains and the others stay
//! open beside it.

use proptest::prelude::*;
use scaleclass::{Backend, FileStagingPolicy, Middleware, MiddlewareConfig, MwResult};
use scaleclass_dtree::{
    grow_in_memory, grow_maintainable, maintain, trees_same_splits, trees_structurally_equal,
    GrowConfig, MaintainableTree,
};
use scaleclass_sqldb::Code;
use scaleclass_tests::{config_matrix, mutate, schema_for, small_table, AMPLE_BUDGET};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// A fresh directory for one case's staged files.
fn staging_dir() -> std::path::PathBuf {
    static SEQ: AtomicUsize = AtomicUsize::new(0);
    let dir = std::env::temp_dir().join(format!(
        "scaleclass-matrix-{}-{}",
        std::process::id(),
        SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn files_in(dir: &std::path::Path) -> Vec<String> {
    std::fs::read_dir(dir).map_or_else(
        |_| Vec::new(),
        |entries| {
            entries
                .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
                .collect()
        },
    )
}

/// One case: build, check against the oracle, maintain, clean up.
fn check(
    cards: &[u16],
    mut rows: Vec<Code>,
    mut cfg: MiddlewareConfig,
    mutation: u8,
) -> Result<(), proptest::TestCaseError> {
    let arity = cards.len();
    let class_col = (arity - 1) as u16;
    let attrs: Vec<u16> = (0..class_col).collect();
    let grow = GrowConfig::default();
    let oracle = |rows: &[Code]| grow_in_memory(rows, arity, class_col, &attrs, &grow);
    let exact = cfg.sampled_fraction == 0.0;
    let ample = cfg.memory_budget_bytes == AMPLE_BUDGET;
    let staging = cfg.memory_caching || cfg.file_policy != FileStagingPolicy::Disabled;
    let k = cfg.sessions;

    let dir = staging_dir();
    cfg.staging_dir = Some(dir.clone());
    let db = scaleclass_datagen::into_database(schema_for(cards), &rows, "d");
    let backend = Arc::new(Backend::new(db, "d", "class", cfg.clone()).expect("backend"));
    let catalog_dir = backend.catalog().dir().to_path_buf();

    // Every lease is taken before any build runs, so each session builds
    // under the fair share `budget / K` throughout.
    let sessions: Vec<Middleware> = (0..k)
        .map(|_| Middleware::open(Arc::clone(&backend)))
        .collect::<MwResult<_>>()
        .expect("open sessions");
    let mut built: Vec<(Middleware, MaintainableTree)> = std::thread::scope(|scope| {
        let builds: Vec<_> = sessions
            .into_iter()
            .map(|mut mw| {
                let grow = &grow;
                scope.spawn(move || {
                    let model = grow_maintainable(&mut mw, grow);
                    (mw, model)
                })
            })
            .collect();
        builds
            .into_iter()
            .map(|build| {
                let (mw, model) = build.join().expect("build thread");
                (mw, model.expect("build"))
            })
            .collect()
    });

    // A sampled node either stands on accepted sample counts or escalates
    // to an exact rescan: with none accepted, every count is exact.
    let counted_exactly = |mw: &Middleware| mw.stats().sampled_nodes == mw.stats().escalated_nodes;
    let expected = oracle(&rows);
    for (i, (mw, model)) in built.iter().enumerate() {
        mw.assert_shadow_accounting();
        prop_assert_eq!(
            mw.staged_mem_bytes(),
            0,
            "a finished build holds no memory set"
        );
        if counted_exactly(mw) {
            prop_assert!(
                trees_structurally_equal(&model.tree, &expected),
                "session {} of {} grew {} nodes, the oracle {}",
                i,
                k,
                model.tree.len(),
                expected.len()
            );
        }
    }
    // Each path shows up where its axis asks for it and nothing keeps it
    // from running: only an exact session's staged-file scans may shard,
    // only over a file of more than one extent — the root's, which the
    // first staged-file scan reads, when the table outgrows an extent — a
    // tight budget may leave no batch provably under it, and the catalog
    // publishes only what exact sessions stage.
    let sum = |f: fn(&Middleware) -> u64| built.iter().map(|(mw, _)| f(mw)).sum::<u64>();
    let file_scans = sum(|mw| mw.stats().file_scans);
    let extents = rows.len() / arity > cfg.stage_extent_rows;
    if cfg.scan_workers > 1 && ample && exact && file_scans > 0 && extents {
        let sharded = sum(|mw| mw.stats().sharded_file_scans);
        prop_assert!(sharded > 0, "no sharded file scan");
    }
    if !exact {
        prop_assert!(sum(|mw| mw.stats().sampled_nodes) > 0, "no sampled node");
    }
    if cfg.shared_staging && k == 4 && staging && exact && ample {
        prop_assert!(backend.catalog().stats().publishes > 0, "nothing published");
    }

    if cfg.deltas {
        let (mw, model) = &mut built[0];
        mutate(mw, &mut rows, arity, cards[arity - 1], mutation);
        maintain(mw, model).expect("maintain");
        mw.assert_shadow_accounting();
        prop_assert!(mw.stats().deltas_applied > 0, "no delta applied");
        if counted_exactly(mw) {
            let rebuilt = oracle(&rows);
            prop_assert!(
                trees_same_splits(&model.tree, &rebuilt),
                "maintained {} nodes, the rebuild {}",
                model.tree.len(),
                rebuilt.len()
            );
        }
    }

    drop(built);
    let arbiter = backend.arbiter();
    prop_assert_eq!(arbiter.live_sessions(), 0);
    let leases = arbiter.stats();
    prop_assert_eq!(
        (leases.leases_granted, leases.leases_reclaimed),
        (k as u64, k as u64)
    );
    prop_assert_eq!(backend.catalog().entry_count(), 0);
    drop(backend);
    let left: Vec<String> = files_in(&dir)
        .into_iter()
        .chain(files_in(&catalog_dir))
        .collect();
    prop_assert!(left.is_empty(), "files left behind: {:?}", left);
    std::fs::remove_dir_all(&dir).ok();
    Ok(())
}

proptest! {
    /// Every point of the configuration matrix grows the oracle's tree,
    /// keeps its accounting, cleans up, and runs the paths it selects.
    #[test]
    fn every_configuration_grows_the_oracle_tree(
        (cards, rows) in small_table(),
        cfg in config_matrix(),
        mutation in 0u8..3,
    ) {
        check(&cards, rows, cfg, mutation)?;
    }
}
