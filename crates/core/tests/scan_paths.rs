//! The one scan loop, observed through the public API: what a session
//! reports must not depend on which path — serial counter, channel
//! pipeline, sharded extent readers — carried the blocks from a source to
//! the counts tables, and a damaged source is an error on all of them.

use scaleclass::config::MiddlewareConfigBuilder;
use scaleclass::{
    Backend, BlockSampler, CcRequest, FileStagingPolicy, Lineage, MiddlewareConfig,
    MiddlewareStats, MwError, NodeId, ScanStats, Session,
};
use scaleclass_sqldb::{Database, Pred, Schema, CODE_BYTES};
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// A session over `rows` rows of `(a ∈ 0..4, b ∈ 0..3, class = a ≥ 2)`.
fn session(rows: u16, config: MiddlewareConfig) -> Session {
    let mut db = Database::new();
    db.create_table("d", Schema::from_pairs(&[("a", 4), ("b", 3), ("class", 2)]))
        .unwrap();
    for i in 0..rows {
        let a = i % 4;
        db.insert("d", &[a, (i / 4) % 3, u16::from(a >= 2)])
            .unwrap();
    }
    Session::open(Arc::new(Backend::new(db, "d", "class", config).unwrap())).unwrap()
}

/// Serve the root (staging its data wherever the config says), then queue
/// the root's four children on `a` — the round that scans staged data.
fn serve_root_and_queue_children(s: &mut Session, rows: u16) {
    let req = s.root_request(NodeId(0));
    s.enqueue(req).unwrap();
    s.process_next_batch().unwrap();
    for v in 0..4u16 {
        s.enqueue(CcRequest {
            lineage: Lineage::root(NodeId(0))
                .child(NodeId(1 + u64::from(v)), Pred::Eq { col: 0, value: v }),
            attrs: vec![0, 1],
            class_col: 2,
            rows: u64::from(rows) / 4,
            parent_rows: u64::from(rows),
            parent_cards: vec![4, 3],
        })
        .unwrap();
    }
}

/// Every knob the environment could move is pinned: 8-row blocks and
/// extents, no shared catalog, exact counting.
fn pinned(workers: usize) -> MiddlewareConfigBuilder {
    MiddlewareConfig::builder()
        .shared_staging(false)
        .sampled_counting(0.0)
        .stage_extent_rows(8)
        .scan_block_rows(8)
        .scan_workers(workers)
}

/// The root's data staged as one never-split extent file in `dir`.
fn singleton_file(workers: usize, dir: &Path) -> MiddlewareConfig {
    pinned(workers)
        .file_policy(FileStagingPolicy::Singleton)
        .memory_caching(false)
        .staging_dir(dir.to_path_buf())
        .build()
}

fn scratch_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("scaleclass-{name}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Satellite regression: a staged file cut inside its 16-byte header, or
/// with a flipped magic byte, used to be taken for the headerless legacy
/// format. It is `Corrupt`, on the serial loop and on sharded readers.
#[test]
fn damaged_staged_file_header_is_corrupt_on_every_scan_path() {
    for workers in [1usize, 4] {
        for damage in [Some(0usize), Some(8), Some(15), None] {
            let dir = scratch_dir(&format!("damage-{workers}-{damage:?}"));
            let mut s = session(40, singleton_file(workers, &dir));
            serve_root_and_queue_children(&mut s, 40);
            let staged: Vec<PathBuf> = std::fs::read_dir(&dir)
                .unwrap()
                .map(|e| e.unwrap().path())
                .collect();
            assert_eq!(staged.len(), 1, "the root batch staged one file");
            let mut bytes = std::fs::read(&staged[0]).unwrap();
            match damage {
                Some(len) => bytes.truncate(len),
                None => bytes[0] ^= 0x20,
            }
            std::fs::write(&staged[0], &bytes).unwrap();

            let before = *s.stats();
            match s.process_next_batch() {
                Err(MwError::Corrupt(msg)) => {
                    assert!(
                        msg.contains("header"),
                        "{workers} workers, {damage:?}: {msg}"
                    )
                }
                other => panic!("{workers} workers, {damage:?}: got {other:?}"),
            }
            assert_eq!(s.stats().file_rows_read, 0, "no row was served");
            assert_eq!(s.stats().scan_rows, before.scan_rows, "no row was counted");
            assert_eq!(s.stats().requests_served, before.requests_served);
            drop(s);
            std::fs::remove_dir_all(&dir).unwrap();
        }
    }
}

/// Satellite regression: `scan_blocks` counts the blocks the scan loop read
/// from its source (it used to stay 0 on every serial scan), so all three
/// paths report one number for one source — and one full read of a file.
#[test]
fn scan_blocks_and_reader_stats_agree_across_scan_paths() {
    let run = |config: MiddlewareConfig| -> (MiddlewareStats, ScanStats) {
        let mut s = session(40, config);
        serve_root_and_queue_children(&mut s, 40);
        let out = s.process_next_batch().unwrap();
        assert_eq!(out.iter().map(|f| f.cc.total()).sum::<u64>(), 40);
        (*s.stats(), s.scan_stats().clone())
    };
    let (serial, _) = run(pinned(1).build());
    let (channel, _) = run(pinned(4).build());
    assert_eq!(serial.memory_scans, 1);
    assert_eq!(
        serial.scan_blocks, 10,
        "40 server rows + 40 memory rows / 8"
    );
    assert_eq!(channel.scan_blocks, serial.scan_blocks);
    assert!(channel.parallel_scans > 0);

    let dir = scratch_dir("scan-blocks");
    let (serial, serial_io) = run(singleton_file(1, &dir));
    let (sharded, sharded_io) = run(singleton_file(4, &dir));
    assert_eq!(serial.file_scans, 1);
    assert_eq!(serial.scan_blocks, 10, "40 server rows / 8 + 5 extents");
    assert_eq!(sharded.scan_blocks, serial.scan_blocks);
    assert_eq!(sharded.sharded_file_scans, 1);
    assert!(
        serial.blocks_counted > 0,
        "serial file scans reach the kernel"
    );
    // The header, 5 extents of framing, 40 rows of 3 codes.
    let file_bytes = 16 + 5 * 16 + 40 * (3 * CODE_BYTES) as u64;
    for io in [&serial_io, &sharded_io] {
        assert_eq!(io.total_read_bytes(), file_bytes);
        assert_eq!(io.total_rows(), 40);
        assert_eq!(io.workers.iter().map(|w| w.extents).sum::<u64>(), 5);
    }
    assert_eq!(serial_io.workers.len(), 1, "the serial loop is reader 0");
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Admission of a sampled *server* scan stays pushed into the server: it
/// scans and ships the admitted block ranges and nothing else, at any
/// worker count, and the two sampling counters partition the table.
#[test]
fn sampled_server_scan_ships_only_the_admitted_ranges() {
    let sampler = BlockSampler::new(0.5);
    let covered: u64 = (0..400u64 / 8).filter(|&b| sampler.admits(b)).count() as u64 * 8;
    assert!(0 < covered && covered < 400);
    for workers in [1usize, 2, 4] {
        let config = pinned(workers)
            .memory_caching(false)
            .sampled_counting(0.5)
            .sampled_min_rows(0)
            .build();
        let mut s = session(400, config);
        let req = s.root_request(NodeId(0));
        s.enqueue(req).unwrap();
        let before = s.db_stats();
        let out = s.process_next_batch().unwrap();
        let cost = s.db_stats() - before;
        assert!(out[0].sample.is_some(), "the root was served from a sample");
        // The root's filter is `True`: every row of an admitted block
        // ships, and no other row is even scanned.
        assert_eq!((cost.rows_scanned, cost.rows_shipped), (covered, covered));
        assert_eq!(out[0].cc.total(), covered);
        assert_eq!(s.stats().sampled_rows_scanned, covered, "{workers} workers");
        assert_eq!(s.stats().exact_rows_saved, 400 - covered);
    }
}
