//! One staged copy served to K sessions (DESIGN.md §11).
//!
//! Sessions arrive staggered, the realistic shape for a shared cache:
//! session 0 opens alone (its lease is the whole budget), answers the
//! root counting request once — staging the table and, with the catalog
//! on, publishing the staged set — and only then do sessions 1..K open.
//! The post-arrival fair share `budget / K` is deliberately too small to
//! stage the table privately, so a later session either attaches to the
//! published copy (a memory scan, charged `bytes / readers` against its
//! lease) or rescans the server every round. The drive is single-threaded
//! round-robin, so every counter is exact.

use scaleclass::staging::CodeWidth;
use scaleclass::{Backend, CatalogStats, FileStagingPolicy, MiddlewareConfig, NodeId, Session};
use scaleclass_tests::{load, small_tree_workload};
use std::sync::Arc;

const K: usize = 4;
const ROUNDS: u64 = 4;

/// Enqueue the root counting request and serve it to completion.
fn serve_root(sess: &mut Session, nrows: u64) {
    let root = sess.root_request(NodeId(0));
    sess.enqueue(root).unwrap();
    let out = sess.process_next_batch().unwrap();
    assert_eq!(out.len(), 1);
    assert_eq!(out[0].cc.total(), nrows);
}

/// K staggered sessions × [`ROUNDS`] root requests each. Returns
/// Σ `server_scans`, Σ `memory_scans` and the catalog's counters.
fn drive(shared: bool) -> (u64, u64, CatalogStats) {
    let (schema, rows, _) = small_tree_workload();
    // ~2.2x the table as a memory set stores it, one byte a code (every
    // column has few values): a lone session stages it comfortably, but
    // the post-arrival fair share budget/4 cannot — exactly the squeeze
    // the shared catalog exists to relieve.
    let budget = (rows.len() * CodeWidth::One.bytes()) as u64 * 11 / 5;
    let cfg = MiddlewareConfig::builder()
        .memory_budget_bytes(budget)
        .sessions(K)
        .shared_staging(shared)
        .build();
    let backend = Arc::new(Backend::new(load(&schema, &rows), "d", "class", cfg).unwrap());
    let nrows = backend.table_rows();

    // Session 0 opens alone and pays for the staging build; the rest
    // arrive after the table is staged.
    let mut sessions = Vec::with_capacity(K);
    for _ in 0..K {
        let mut sess = Session::open(Arc::clone(&backend)).unwrap();
        serve_root(&mut sess, nrows);
        sessions.push(sess);
    }
    for _ in 1..ROUNDS {
        for sess in sessions.iter_mut() {
            serve_root(sess, nrows);
        }
    }

    let mut charged = 0u64;
    for sess in &sessions {
        sess.assert_shadow_accounting();
        assert_eq!(sess.stats().requests_served, ROUNDS);
        assert!(sess.staged_mem_bytes() <= sess.lease_bytes());
        charged += sess.staged_mem_bytes();
    }
    assert!(
        charged <= budget,
        "session charges {charged} oversubscribe budget {budget}"
    );
    if !shared {
        assert_eq!(backend.catalog().entry_count(), 0);
    }
    let sum = |f: fn(&Session) -> u64| sessions.iter().map(f).sum::<u64>();
    (
        sum(|s| s.stats().server_scans),
        sum(|s| s.stats().memory_scans),
        backend.catalog().stats(),
    )
}

#[test]
fn catalog_off_every_squeezed_session_rescans_the_server_every_round() {
    let (server, memory, catalog) = drive(false);
    assert_eq!(server, K as u64 * ROUNDS, "16 reads, 16 server scans");
    assert_eq!(memory, 0, "the lone private copy is evicted on arrival");
    assert_eq!((catalog.publishes, catalog.hits), (0, 0));
}

#[test]
fn catalog_on_the_table_is_staged_once_for_all_sessions() {
    let (server, memory, catalog) = drive(true);
    assert_eq!(server, 1, "only the publisher touches the server");
    assert_eq!(memory, K as u64 * ROUNDS - 1, "every other read is a hit");
    assert_eq!(catalog.publishes, 1, "the table is staged exactly once");
    assert_eq!(catalog.hits as usize, K - 1, "every later session hits");
}

/// With a staging directory set, the catalog's directory lives under it,
/// so a session's finished file moves into the catalog by a rename within
/// one filesystem; the backend's drop removes it again.
#[test]
fn the_catalog_directory_lives_under_the_staging_dir() {
    let (schema, rows, _) = small_tree_workload();
    let dir = std::env::temp_dir().join(format!("scaleclass-catalog-home-{}", std::process::id()));
    let cfg = MiddlewareConfig::builder()
        .staging_dir(&dir)
        .shared_staging(true)
        .file_policy(FileStagingPolicy::PerNode)
        .memory_caching(false)
        .build();
    let backend = Arc::new(Backend::new(load(&schema, &rows), "d", "class", cfg).unwrap());
    let catalog_dir = backend.catalog().dir().to_path_buf();
    assert!(
        catalog_dir.starts_with(&dir),
        "{catalog_dir:?} is not under {dir:?}"
    );

    let mut sess = Session::open(Arc::clone(&backend)).unwrap();
    serve_root(&mut sess, backend.table_rows());
    assert_eq!(backend.catalog().stats().publishes, 1);
    let published = std::fs::read_dir(&catalog_dir).unwrap().count();
    assert_eq!(published, 1, "the staged file lives in the catalog dir");

    drop(sess);
    drop(backend);
    assert!(!catalog_dir.exists(), "the catalog's drop removes its dir");
    assert_eq!(std::fs::read_dir(&dir).unwrap().count(), 0);
    std::fs::remove_dir(&dir).unwrap();
}
