//! The one scan loop, observed through the public API: it carries every
//! source's blocks to the counts tables on the session thread, reports
//! what it read, and a damaged source is an error.

use scaleclass::config::MiddlewareConfigBuilder;
use scaleclass::staging::{ExtentReader, StagedRows};
use scaleclass::{
    Backend, CcRequest, CountsTable, FileStagingPolicy, Lineage, MiddlewareConfig, MiddlewareStats,
    MwError, NodeId, ScanStats, Session, WorkerScanStats,
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

/// 8-row blocks and extents.
fn pinned() -> MiddlewareConfigBuilder {
    MiddlewareConfig::builder()
        .stage_extent_rows(8)
        .scan_block_rows(8)
}

/// The root's data staged as one never-split extent file in `dir`.
fn singleton_file(dir: &Path) -> MiddlewareConfig {
    pinned()
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
/// format. It is `Corrupt`; so is a file stamped with version 2, whose
/// extents stored their payloads column by column, so that no such file
/// is ever read as rows.
#[test]
fn damaged_staged_file_header_is_corrupt_on_every_scan_path() {
    type Damage = fn(&mut Vec<u8>);
    let damages: [(&str, Damage, &str); 5] = [
        ("cut at 0 bytes", |b| b.truncate(0), "header"),
        ("cut at 8 bytes", |b| b.truncate(8), "header"),
        ("cut at 15 bytes", |b| b.truncate(15), "header"),
        ("a flipped magic byte", |b| b[0] ^= 0x20, "header"),
        (
            "version 2",
            |b| b[4..8].copy_from_slice(&2u32.to_le_bytes()),
            "unsupported extent format version 2",
        ),
    ];
    for (damage, damage_with, says) in damages {
        let dir = scratch_dir(&format!("damage-{}", damage.replace(' ', "-")));
        let mut s = session(40, singleton_file(&dir));
        serve_root_and_queue_children(&mut s, 40);
        let staged: Vec<PathBuf> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().path())
            .collect();
        assert_eq!(staged.len(), 1, "the root batch staged one file");
        let mut bytes = std::fs::read(&staged[0]).unwrap();
        damage_with(&mut bytes);
        std::fs::write(&staged[0], &bytes).unwrap();

        let before = *s.stats();
        match s.process_next_batch() {
            Err(MwError::Corrupt(msg)) => assert!(msg.contains(says), "{damage}: {msg}"),
            other => panic!("{damage}: got {other:?}"),
        }
        assert_eq!(s.stats().file_rows_read, 0, "no row was served");
        assert_eq!(s.stats().scan_rows, before.scan_rows, "no row was counted");
        assert_eq!(s.stats().requests_served, before.requests_served);
        drop(s);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

/// Satellite regression: `scan_blocks` counts the blocks the scan loop read
/// from its source (it used to stay 0 on every serial scan), and the
/// reader stats one full read of a file.
#[test]
fn scan_blocks_and_reader_stats_agree_across_scan_paths() {
    let run = |config: MiddlewareConfig| -> (MiddlewareStats, ScanStats) {
        let mut s = session(40, config);
        serve_root_and_queue_children(&mut s, 40);
        let out = s.process_next_batch().unwrap();
        assert_eq!(out.iter().map(|f| f.cc.total()).sum::<u64>(), 40);
        (*s.stats(), s.scan_stats().clone())
    };
    let (serial, _) = run(pinned().build());
    assert_eq!(serial.memory_scans, 1);
    assert_eq!(
        serial.scan_blocks, 10,
        "40 server rows + 40 memory rows / 8"
    );

    let dir = scratch_dir("scan-blocks");
    let (serial, serial_io) = run(singleton_file(&dir));
    assert_eq!(serial.file_scans, 1);
    assert_eq!(serial.scan_blocks, 10, "40 server rows / 8 + 5 extents");
    assert!(
        serial.blocks_counted > 0,
        "serial file scans reach the kernel"
    );
    // The header, 5 extents of framing, 40 rows of 3 codes.
    let file_bytes = 16 + 5 * 16 + 40 * (3 * CODE_BYTES) as u64;
    assert_eq!(serial_io.total_read_bytes(), file_bytes);
    assert_eq!(serial_io.total_rows(), 40);
    assert_eq!(serial_io.workers.iter().map(|w| w.extents).sum::<u64>(), 5);
    assert_eq!(serial_io.workers.len(), 1, "the serial loop is reader 0");
    std::fs::remove_dir_all(&dir).unwrap();
}

/// What one three-level build left behind: every node's counts, every
/// data set a tee wrote (memory-set rows, and the member count and bytes
/// of each staged file — a split file has several members — by staging
/// id, captured after the round that committed them), and the session's
/// counters and staged-file reader counters.
struct BuildOutcome {
    /// The table's rows, row-major, in table order.
    table: Vec<Code>,
    counts: BTreeMap<u64, CountsTable>,
    mem_sets: BTreeMap<u64, Vec<Code>>,
    /// Per staged file: its members, their predicate, and its rows, decoded.
    files: BTreeMap<u64, (usize, Pred, Vec<Code>)>,
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
    let mut table = Vec::new();
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
        table.extend(row);
    }
    if !extra.is_empty() {
        db.table_mut("d").unwrap().insert_unchecked(extra);
        table.extend(extra);
    }
    let mut s = Session::open(Arc::new(Backend::new(db, "d", "class", config).unwrap())).unwrap();

    let root = s.root_request(NodeId(0));
    let mut open: BTreeMap<u64, CcRequest> = BTreeMap::from([(0, root.clone())]);
    s.enqueue(root).unwrap();
    let mut out = BuildOutcome {
        table,
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
                StagedRows::File(_) => {
                    let decoded = || {
                        let layout = s.staging().extent_layout(id).unwrap().unwrap();
                        let mut reader = ExtentReader::open(&layout).unwrap();
                        let (mut rows, mut codes) = (Vec::new(), Vec::new());
                        let mut io = WorkerScanStats::default();
                        for k in 0..layout.extents {
                            reader.decode_extent(k, &mut rows, &mut io).unwrap();
                            codes.extend_from_slice(&rows);
                        }
                        (set.members.len(), set.pred.clone(), codes)
                    };
                    out.files.entry(id).or_insert_with(decoded);
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
/// (hybrid split files, file tees): no row takes the exact one-row step,
/// and the build counts, stages and reads what the same build at one row
/// per block and per extent does, where every row is its own block. Every
/// staged file holds the table's rows its members' paths select, in table
/// order.
///
/// The `staged-file` shape runs at 1, 7, 512 and 8192 rows per extent
/// (blocks stay 512 rows): an extent stays in columns from the file to the
/// kernel and from the kernel's selections to the files its tees write —
/// batches that write a hybrid split file included. Each reads its files
/// whole: a header, each extent's framing, every row.
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
            let run = |block_rows: usize, extent_rows: usize| {
                let config = builder
                    .clone()
                    .cc_dense_max_bytes(scaleclass::config::DEFAULT_CC_DENSE_MAX_BYTES)
                    .stage_extent_rows(extent_rows)
                    .scan_block_rows(block_rows)
                    .build();
                three_level_build(config, &[])
            };
            let shape = format!("{shape} at {extent_rows} rows per extent");
            let reference = run(1, 1);
            assert_eq!(reference.counts.len(), 85, "{shape}: 1 + 4 + 16 + 64 nodes");
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
                let split_files = reference
                    .files
                    .values()
                    .filter(|(members, ..)| *members > 1);
                assert!(split_files.count() > 0, "{shape}: a hybrid split file");
            }
            assert_eq!(reference.stats.sql_fallbacks, 0, "{shape}: the budget fits");
            let on = run(512, extent_rows);
            assert!(on.stats.blocks_counted > 0, "{shape}: the kernel ran");
            assert_eq!(on.stats.block_fallback_rows, 0, "{shape}: on every row");
            assert_eq!(on.stats.sql_fallbacks, 0, "{shape}");
            assert_eq!(on.counts, reference.counts, "{shape}: counts");
            assert_eq!(on.mem_sets, reference.mem_sets, "{shape}: memory-set rows");
            assert_eq!(on.files, reference.files, "{shape}: staged-file rows");
            for (id, (_, pred, rows)) in &on.files {
                let selected = on.table.chunks_exact(7).filter(|row| pred.eval(row));
                let expect: Vec<Code> = selected.flatten().copied().collect();
                assert_eq!(rows, &expect, "{shape}: file {id} holds its paths' rows");
            }
            assert_eq!(on.stats.scan_rows, reference.stats.scan_rows, "{shape}");
            assert_eq!(on.stats.file_scans, reference.stats.file_scans, "{shape}");
            // Each file scan read its whole file: a header, each extent's
            // framing, every row.
            let io = &on.scan;
            let extents: u64 = io.workers.iter().map(|w| w.extents).sum();
            assert_eq!(io.total_rows(), on.stats.file_rows_read, "{shape}");
            assert_eq!(io.total_rows(), reference.scan.total_rows(), "{shape}");
            assert_eq!(
                io.total_read_bytes(),
                16 * on.stats.file_scans + 16 * extents + io.total_rows() * row_bytes,
                "{shape}: bytes read = sizes of the files scanned"
            );
        }
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

/// A table may hold a code past its column's cardinality —
/// `insert_unchecked` stores one as given — and still counts exactly. The
/// table's range certificate then escapes the dense layout of every node
/// that counts that column, and every block selecting their rows takes
/// the exact one-row step, where the spill fires at the row it always did;
/// nodes that no longer count the column stay on the kernel. Against the same build at one row
/// per block, every node's counts (so any tree a client grows from them),
/// the §4.1.1 fallbacks and the peak of modelled memory are the same; on
/// an in-range table no row takes the step at all.
#[test]
fn an_out_of_layout_code_sends_only_the_nodes_it_escapes_down_the_row_path() {
    let row_bytes = 7 * CODE_BYTES as u64;
    let run = |block_rows: usize, extra: &[Code]| {
        let config = pinned()
            .memory_budget_bytes(3 * (ROWS + 1) * row_bytes)
            .memory_caching(true)
            .file_policy(FileStagingPolicy::Disabled)
            .cc_dense_max_bytes(scaleclass::config::DEFAULT_CC_DENSE_MAX_BYTES)
            .scan_block_rows(block_rows)
            .build();
        three_level_build(config, extra)
    };
    // `a0 = 4` is past a0's cardinality: only the root counts a0, since
    // every child splits it away.
    for extra in [&[][..], &[4, 0, 0, 0, 0, 0, 0]] {
        let (off, on) = (run(1, extra), run(512, extra));
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
                "every row of the root's scan, and no other"
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
        let config = pinned()
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
