//! The one scan loop, observed through the public API: what a session
//! reports must not depend on which path — the serial loop on the session
//! thread, or sharded extent readers of a staged file — carried the blocks
//! from a source to the counts tables, and a damaged source is an error on
//! both of them.

use scaleclass::config::MiddlewareConfigBuilder;
use scaleclass::staging::StagedRows;
use scaleclass::{
    Backend, BlockSampler, CcRequest, CountsTable, FileStagingPolicy, Lineage, MiddlewareConfig,
    MiddlewareStats, MwError, NodeId, ScanStats, Session,
};
use scaleclass_sqldb::{Code, Database, Pred, Schema, CODE_BYTES};
use std::collections::BTreeMap;
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
    queue_children(s, rows);
}

/// Queue the root's four children on `a`.
fn queue_children(s: &mut Session, rows: u16) {
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

/// 8-row blocks and extents, on `workers` workers.
fn pinned(workers: usize) -> MiddlewareConfigBuilder {
    MiddlewareConfig::builder()
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

/// A server scan and a memory-set scan count on the session thread at any
/// `scan_workers`: four workers leave every counter but the four timing
/// ones where one worker leaves it — the block counters included — start
/// no extent reader, and build the same tables.
#[test]
fn server_and_memory_scans_start_no_thread() {
    let run = |workers: usize| {
        let mut s = session(40, pinned(workers).build());
        let root = s.root_request(NodeId(0));
        s.enqueue(root).unwrap();
        let mut tables = BTreeMap::new();
        for f in s.process_next_batch().unwrap() {
            tables.insert(f.node.0, (*f.cc).clone());
        }
        queue_children(&mut s, 40);
        for f in s.process_next_batch().unwrap() {
            tables.insert(f.node.0, (*f.cc).clone());
        }
        (*s.stats(), tables)
    };
    let untimed = |s: MiddlewareStats| MiddlewareStats {
        scan_nanos: 0,
        kernel_nanos: 0,
        kernel_validate_nanos: 0,
        kernel_accumulate_nanos: 0,
        ..s
    };
    let (serial, serial_tables) = run(1);
    let (four, four_tables) = run(4);
    assert_eq!((serial.server_scans, serial.memory_scans), (1, 1));
    assert_eq!(serial_tables.len(), 5, "the root and its four children");
    assert_eq!(untimed(four), untimed(serial));
    assert_eq!(four.blocks_counted, serial.blocks_counted);
    assert_eq!(four.scan_worker_rows_max, 0, "no reader counted a row");
    assert_eq!(four.sharded_file_scans, 0);
    assert_eq!(four_tables, serial_tables);
}

/// Satellite regression: `scan_blocks` counts the blocks the scan loop read
/// from its source (it used to stay 0 on every serial scan), so both paths
/// report one number for one source — and one full read of a file.
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
    assert_eq!(serial.memory_scans, 1);
    assert_eq!(
        serial.scan_blocks, 10,
        "40 server rows + 40 memory rows / 8"
    );

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

/// What one three-level build left behind: every node's counts, every
/// data set a tee wrote (memory-set rows, and the member count and bytes
/// of each staged file — a split file has several members — by staging
/// id, captured after the round that committed them), and the session's
/// counters and staged-file reader counters.
struct BuildOutcome {
    counts: BTreeMap<u64, CountsTable>,
    mem_sets: BTreeMap<u64, Vec<Code>>,
    files: BTreeMap<u64, (usize, Vec<u8>)>,
    stats: MiddlewareStats,
    scan: ScanStats,
}

/// Rows of the table [`three_level_build`] mines.
const ROWS: u64 = 30_000;

/// Grow three levels over [`ROWS`] generated rows of six 4-valued attributes
/// and a class — every node splits four ways on the attribute of its
/// depth, so the rounds carry 1, 4, 16 and 64 nodes — the way a client
/// does: each child's request is derived from its parent's counts table.
/// `extra`, unless empty, is one more row stored as given, however far
/// past its columns' cardinalities.
fn three_level_build(config: MiddlewareConfig, extra: &[Code]) -> BuildOutcome {
    const ATTRS: u16 = 6;
    let mut cols: Vec<(String, u16)> = (0..ATTRS).map(|a| (format!("a{a}"), 4)).collect();
    cols.push(("class".into(), 3));
    let pairs: Vec<(&str, u16)> = cols.iter().map(|(n, c)| (n.as_str(), *c)).collect();
    let mut db = Database::new();
    db.create_table("d", Schema::from_pairs(&pairs)).unwrap();
    let mut state = 0x2545_f491_4f6c_dd1du64;
    for _ in 0..ROWS {
        let row: Vec<Code> = pairs
            .iter()
            .map(|&(_, card)| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                (state % u64::from(card)) as Code
            })
            .collect();
        db.insert("d", &row).unwrap();
    }
    if !extra.is_empty() {
        db.table_mut("d").unwrap().insert_unchecked(extra);
    }
    let mut s = Session::open(Arc::new(Backend::new(db, "d", "class", config).unwrap())).unwrap();

    let root = s.root_request(NodeId(0));
    let mut open: BTreeMap<u64, CcRequest> = BTreeMap::from([(0, root.clone())]);
    s.enqueue(root).unwrap();
    let mut out = BuildOutcome {
        counts: BTreeMap::new(),
        mem_sets: BTreeMap::new(),
        files: BTreeMap::new(),
        stats: MiddlewareStats::new(),
        scan: ScanStats::default(),
    };
    let mut next_id = 1u64;
    while s.has_pending() {
        let fulfilled = s.process_next_batch().unwrap();
        for id in 0..256 {
            let Some(set) = s.staging().set(id) else {
                continue;
            };
            match &set.rows {
                StagedRows::Memory(rows) => {
                    out.mem_sets.entry(id).or_insert_with(|| rows.to_codes());
                }
                StagedRows::File(path) => {
                    let bytes = || (set.members.len(), std::fs::read(path).unwrap());
                    out.files.entry(id).or_insert_with(bytes);
                }
            }
        }
        for f in fulfilled {
            let req = open.remove(&f.node.0).unwrap();
            let depth = req.lineage.depth() as u16;
            if depth < 3 {
                let attrs: Vec<u16> = req.attrs.iter().copied().filter(|&a| a != depth).collect();
                for value in 0..4 {
                    let child = CcRequest {
                        lineage: req.lineage.child(
                            NodeId(next_id),
                            Pred::Eq {
                                col: usize::from(depth),
                                value,
                            },
                        ),
                        parent_cards: attrs.iter().map(|&a| f.cc.distinct_values(a)).collect(),
                        attrs: attrs.clone(),
                        class_col: req.class_col,
                        rows: f.cc.rows_with_value(depth, value),
                        parent_rows: f.cc.total(),
                    };
                    open.insert(next_id, child.clone());
                    s.enqueue(child).unwrap();
                    next_id += 1;
                }
            }
            out.counts.insert(f.node.0, (*f.cc).clone());
        }
    }
    out.stats = *s.stats();
    out.scan = s.scan_stats().clone();
    out
}

/// Regression: the block kernel shipped in PR 7 and ran on fewer than a
/// fifth of the rows until PR 14 — a tee, or a growth bound charging every
/// node for every row of the block, sent the rest down the row path — and
/// no test could tell. On a build shaped like the benchmark's `staged-mem`
/// (memory staging, budget 3 x data) and one shaped like `staged-file`
/// (hybrid split files, file tees), serial and on four workers: no block
/// falls back to rows, and everything the tees wrote is byte-identical to
/// what the row path writes.
///
/// The `staged-file` shape runs at 1, 7, 512 and 8192 rows per extent
/// (blocks stay 512 rows): an extent stays in columns from the file to the
/// kernel and from the kernel's selections to the files its tees write, on
/// the serial loop and on sharded readers — batches that write a hybrid
/// split file included, whose readers spool it. All of them must read the
/// same bytes of the same files.
#[test]
fn the_block_kernel_engages_and_serves_the_tees() {
    let row_bytes = 7 * CODE_BYTES as u64;
    let data_bytes = ROWS * row_bytes;
    let dir = scratch_dir("kernel-engages");
    let shapes: [(&str, MiddlewareConfigBuilder, &[usize]); 2] = [
        (
            "staged-mem",
            MiddlewareConfig::builder()
                .memory_budget_bytes(3 * data_bytes)
                .memory_caching(true)
                .file_policy(FileStagingPolicy::Disabled),
            &[512],
        ),
        (
            "staged-file",
            MiddlewareConfig::builder()
                .memory_budget_bytes(data_bytes / 8)
                .memory_caching(false)
                .file_policy(FileStagingPolicy::Hybrid {
                    split_threshold: 0.5,
                })
                .staging_dir(dir.clone()),
            &[1, 7, 512, 8192],
        ),
    ];
    for (shape, builder, extent_sizes) in shapes {
        for &extent_rows in extent_sizes {
            let run = |workers: usize, kernel: bool| {
                let config = builder
                    .clone()
                    .cc_dense_max_bytes(scaleclass::config::DEFAULT_CC_DENSE_MAX_BYTES)
                    .stage_extent_rows(extent_rows)
                    .scan_block_rows(512)
                    .scan_workers(workers)
                    .batch_kernel(kernel)
                    .build();
                three_level_build(config, &[])
            };
            let shape = format!("{shape} at {extent_rows} rows per extent");
            let reference = run(1, false);
            assert_eq!(reference.counts.len(), 85, "{shape}: 1 + 4 + 16 + 64 nodes");
            assert_eq!(reference.stats.blocks_counted, 0, "{shape}: kernel off");
            assert_eq!(
                reference.stats.server_scans, 1,
                "{shape}: staged after the root"
            );
            if shape.starts_with("staged-mem") {
                assert!(!reference.mem_sets.is_empty() && reference.files.is_empty());
                assert!(reference.stats.memory_scans > 0);
            } else {
                assert!(reference.mem_sets.is_empty() && reference.files.len() > 1);
                assert!(reference.stats.file_scans > 0);
                let split_files = reference.files.values().filter(|(members, _)| *members > 1);
                assert!(split_files.count() > 0, "{shape}: a hybrid split file");
            }
            assert_eq!(reference.stats.sql_fallbacks, 0, "{shape}: the budget fits");
            // Each file scan read its whole file: a header, each extent's
            // framing, every row.
            let io = &reference.scan;
            let extents: u64 = io.workers.iter().map(|w| w.extents).sum();
            assert_eq!(io.total_rows(), reference.stats.file_rows_read, "{shape}");
            assert_eq!(
                io.total_read_bytes(),
                16 * reference.stats.file_scans + 16 * extents + io.total_rows() * row_bytes,
                "{shape}: bytes read = sizes of the files scanned"
            );
            for workers in [1usize, 4] {
                let on = run(workers, true);
                let what = format!("{shape}, {workers} worker(s)");
                assert!(on.stats.blocks_counted > 0, "{what}: the kernel ran");
                assert_eq!(on.stats.block_fallback_rows, 0, "{what}: on every row");
                assert_eq!(on.stats.sql_fallbacks, 0, "{what}");
                if workers == 4 && !shape.starts_with("staged-mem") {
                    // The budget clears every file batch's proof
                    // (DESIGN.md §8a), tight as it is.
                    let sharded = on.stats.sharded_file_scans;
                    assert!(sharded > 0, "{what}: sharded readers ran");
                    assert_eq!(
                        on.stats.file_scans, sharded,
                        "{what}: split-file batches shard too"
                    );
                }
                assert_eq!(on.counts, reference.counts, "{what}: counts");
                assert_eq!(on.mem_sets, reference.mem_sets, "{what}: memory-set rows");
                assert_eq!(on.files, reference.files, "{what}: staged-file bytes");
                assert_eq!(on.stats.scan_rows, reference.stats.scan_rows, "{what}");
                assert_eq!(on.stats.file_scans, reference.stats.file_scans, "{what}");
                let on_extents: u64 = on.scan.workers.iter().map(|w| w.extents).sum();
                assert_eq!(
                    (on.scan.total_read_bytes(), on.scan.total_rows(), on_extents),
                    (io.total_read_bytes(), io.total_rows(), extents),
                    "{what}: reader bytes, rows, extents"
                );
            }
        }
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

/// A table may hold a code past its column's cardinality —
/// `insert_unchecked` stores one as given — and still counts exactly. The
/// table's range certificate then escapes the dense layout of every node
/// that counts that column, and their blocks take the row path, where the
/// spill fires at the row it always did; nodes that no longer count the
/// column stay on the kernel. With the kernel on and off, every node's
/// counts (so any tree a client grows from them), the §4.1.1 fallbacks and
/// the peak of modelled memory are the same; on an in-range table no
/// block falls back at all.
#[test]
fn an_out_of_layout_code_sends_only_the_nodes_it_escapes_down_the_row_path() {
    let row_bytes = 7 * CODE_BYTES as u64;
    let run = |kernel: bool, extra: &[Code]| {
        let config = pinned(1)
            .memory_budget_bytes(3 * (ROWS + 1) * row_bytes)
            .memory_caching(true)
            .file_policy(FileStagingPolicy::Disabled)
            .cc_dense_max_bytes(scaleclass::config::DEFAULT_CC_DENSE_MAX_BYTES)
            .scan_block_rows(512)
            .batch_kernel(kernel)
            .build();
        three_level_build(config, extra)
    };
    // `a0 = 4` is past a0's cardinality: only the root counts a0, since
    // every child splits it away.
    for extra in [&[][..], &[4, 0, 0, 0, 0, 0, 0]] {
        let (off, on) = (run(false, extra), run(true, extra));
        assert_eq!(on.counts.len(), 85);
        assert_eq!(on.counts, off.counts);
        assert_eq!(on.stats.sql_fallbacks, off.stats.sql_fallbacks);
        assert_eq!(on.stats.peak_memory_bytes, off.stats.peak_memory_bytes);
        assert_eq!(on.stats.dense_nodes, 85, "every node counts densely");
        assert!(
            on.stats.blocks_counted > 0,
            "the children's scans ran the kernel"
        );
        if extra.is_empty() {
            assert_eq!(on.stats.block_fallback_rows, 0);
        } else {
            assert_eq!(on.counts[&0].count(0, 4, 0), 1, "the root counted the code");
            assert_eq!(
                on.stats.block_fallback_rows,
                ROWS + 1,
                "every block of the root's scan, and no other"
            );
        }
    }
}

/// One flipped payload bit in a *middle* extent of the staged file the
/// serial loop is scanning: the scan stops there with `Corrupt`. The
/// extents before it were counted as they came; of the damaged one nothing
/// is — no block reached the sink, and the split file the batch was teeing
/// into is gone with its uncommitted writer.
#[test]
fn crc_damage_mid_file_stops_the_serial_scan_at_that_extent() {
    for damaged in [false, true] {
        let dir = scratch_dir(&format!("mid-crc-{damaged}"));
        let config = pinned(1)
            .file_policy(FileStagingPolicy::Hybrid {
                split_threshold: 0.5,
            })
            .memory_caching(false)
            .staging_dir(dir.clone())
            .build();
        let mut s = session(40, config);
        let root = s.root_request(NodeId(0));
        s.enqueue(root).unwrap();
        s.process_next_batch().unwrap();
        // One child, a quarter of the file: the hybrid policy splits.
        s.enqueue(CcRequest {
            lineage: Lineage::root(NodeId(0)).child(NodeId(1), Pred::Eq { col: 0, value: 0 }),
            attrs: vec![0, 1],
            class_col: 2,
            rows: 10,
            parent_rows: 40,
            parent_cards: vec![4, 3],
        })
        .unwrap();
        let files = || -> Vec<PathBuf> {
            let mut files: Vec<PathBuf> = std::fs::read_dir(&dir)
                .unwrap()
                .map(|e| e.unwrap().path())
                .collect();
            files.sort();
            files
        };
        let staged = files();
        assert_eq!(staged.len(), 1, "the root batch staged one file");
        let before = *s.stats();
        if !damaged {
            // The undamaged round, for what the damaged one must not do.
            s.process_next_batch().unwrap();
            assert_eq!(s.stats().scan_blocks, before.scan_blocks + 5);
            assert_eq!(s.stats().files_created, before.files_created + 1);
            assert_eq!(files().len(), 2, "a split file was teed");
        } else {
            // 8 rows of 3 codes per extent: extent 2 of 5 starts here.
            let extent = 16 + 2 * (16 + 8 * 3 * CODE_BYTES);
            let mut bytes = std::fs::read(&staged[0]).unwrap();
            bytes[extent + 8 + 11] ^= 0x04;
            std::fs::write(&staged[0], &bytes).unwrap();
            match s.process_next_batch() {
                Err(MwError::Corrupt(msg)) => {
                    assert!(msg.contains("extent 2") && msg.contains("CRC"), "{msg}")
                }
                other => panic!("got {other:?}"),
            }
            assert_eq!(
                s.stats().scan_blocks,
                before.scan_blocks + 2,
                "extents 0 and 1 reached the sink, extent 2 did not"
            );
            assert_eq!(s.stats().requests_served, before.requests_served);
            assert_eq!(s.stats().files_created, before.files_created);
            assert_eq!(files(), staged, "the partial split file was removed");
        }
        drop(s);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
