//! Isolated layer probes: one public function of one layer, timed alone on
//! a prefix of the workload's own table for at least 0.3 s. They say what a
//! layer can do when nothing else is in the way; the traced ledger says
//! what it did inside a build. Traced runs only.

use crate::run::Options;
use crate::workloads::{Table, Workload, CLASS_COLUMN, TABLE};
use scaleclass::executor::{BatchCounter, NodeCounter};
use scaleclass::scheduler::schedule;
use scaleclass::staging::{ExtentReader, StagingManager};
use scaleclass::{
    CcRequest, CountsTable, Lineage, Middleware, MiddlewareStats, NodeId, SampledLedger,
    WorkerScanStats,
};
use scaleclass_dtree::{decide, GrowConfig};
use scaleclass_sqldb::{Code, Pred, Schema};
use std::hint::black_box;
use std::time::Instant;

/// Rows of the table's prefix the probes run on.
const PROBE_ROWS: usize = 100_000;
/// Rows per block, the middleware's default `scan_block_rows`.
const BLOCK_ROWS: usize = 4096;
/// Duplicates inserted, then deleted, per `probe.sqldb.mutate` call.
const MUTATE_COPIES: usize = 64;

/// Call `f(setup())` until `min_secs` of `f` alone have been timed; `f`
/// returns the work it did. Returns work per second.
fn rate<T>(min_secs: f64, mut setup: impl FnMut() -> T, mut f: impl FnMut(T) -> f64) -> f64 {
    let (mut spent, mut work) = (0.0, 0.0);
    loop {
        let input = setup();
        let start = Instant::now();
        work += f(input);
        spent += start.elapsed().as_secs_f64();
        if spent >= min_secs {
            return work / spent.max(1e-9);
        }
    }
}

/// `(attr column, schema cardinality)` for a dense counts table.
fn attr_cards(schema: &Schema, attrs: &[u16]) -> Vec<(u16, u64)> {
    attrs
        .iter()
        .map(|&a| (a, u64::from(schema.column(usize::from(a)).cardinality())))
        .collect()
}

/// Run every probe; returns `(metric name, value)` pairs.
pub fn run_all(
    w: &Workload,
    table: &Table,
    widest_queue: &[CcRequest],
    opts: &Options,
) -> Vec<(&'static str, f64)> {
    let min_secs = if opts.smoke { 0.0 } else { 0.3 };
    let arity = table.arity();
    let class_col = (arity - 1) as u16;
    let nrows = table.nrows().min(PROBE_ROWS);
    let flat = &table.rows[..nrows * arity];
    let rows_f = nrows as f64;
    let attrs: Vec<u16> = (0..class_col).collect();
    let cards = attr_cards(&table.schema, &attrs);
    let n_classes = u64::from(table.schema.column(arity - 1).cardinality());
    let staging_dir = opts.out_dir.join("staging");
    let config = w.config(
        (flat.len() * scaleclass_sqldb::CODE_BYTES) as u64,
        &staging_dir,
    );

    // Column-major copy, cut into blocks, for the kernel probes.
    let cols: Vec<Vec<Code>> = (0..arity)
        .map(|c| flat.iter().skip(c).step_by(arity).copied().collect())
        .collect();
    let blocks: Vec<Vec<&[Code]>> = (0..nrows)
        .step_by(BLOCK_ROWS)
        .map(|lo| {
            let hi = (lo + BLOCK_ROWS).min(nrows);
            cols.iter().map(|c| &c[lo..hi]).collect()
        })
        .collect();
    let count_blocks = |mut cc: CountsTable| {
        for block in &blocks {
            black_box(cc.add_block(block, class_col, &attrs));
        }
        rows_f
    };
    let dense = || CountsTable::new_dense(&cards, n_classes);

    let mut out = Vec::new();

    // cc
    out.push((
        "probe.cc.add_block_rows_per_s",
        rate(min_secs, dense, count_blocks),
    ));
    out.push((
        "probe.cc.add_block_sparse_rows_per_s",
        rate(min_secs, CountsTable::new, count_blocks),
    ));
    out.push((
        "probe.cc.add_row_rows_per_s",
        rate(min_secs, dense, |mut cc| {
            for row in flat.chunks_exact(arity) {
                cc.add_row(row, &attrs, class_col);
            }
            black_box(cc.total()) as f64
        }),
    ));
    let mut root_cc = dense();
    for block in &blocks {
        root_cc.add_block(block, class_col, &attrs);
    }
    out.push((
        "probe.cc.remove_row_rows_per_s",
        rate(
            min_secs,
            || root_cc.clone(),
            |mut cc| {
                for row in flat.chunks_exact(arity) {
                    assert!(cc.remove_row(row, &attrs, class_col), "row was counted");
                }
                rows_f
            },
        ),
    ));

    // client
    let grow = GrowConfig::default();
    let decides_per_s = rate(
        min_secs,
        || (),
        |()| {
            black_box(decide(black_box(&root_cc), &attrs, 0, &grow));
            1.0
        },
    );
    out.push(("probe.split.decide_us", 1e6 / decides_per_s));

    // sqldb, through a middleware over the prefix table
    let db = scaleclass_datagen::into_database(table.schema.clone(), flat, TABLE);
    let mw = Middleware::new(db, TABLE, CLASS_COLUMN, config.clone()).expect("probe middleware");
    let root = mw.root_request(NodeId(0));
    let mut fetched: Vec<Code> = Vec::with_capacity(flat.len());
    out.push((
        "probe.sqldb.cursor_rows_per_s",
        rate(
            min_secs,
            || (),
            |()| {
                fetched.clear();
                let db = mw.db();
                let mut cursor = db
                    .open_cursor(TABLE, Pred::True, config.wire_batch_rows)
                    .expect("open cursor");
                cursor.fetch_all(&mut fetched) as f64
            },
        ),
    ));
    out.push((
        "probe.sqldb.groupby_rows_per_s",
        rate(
            min_secs,
            || (),
            |()| black_box(mw.cc_via_sql_baseline(&root).expect("SQL counting")).total() as f64,
        ),
    ));
    let mut next_row = 0usize;
    out.push((
        "probe.sqldb.mutate_rows_per_s",
        rate(
            min_secs,
            || {
                next_row = (next_row + 1) % nrows;
                &flat[next_row * arity..(next_row + 1) * arity]
            },
            |row| {
                for _ in 0..MUTATE_COPIES {
                    mw.insert_row(row).expect("insert");
                }
                let same_row = Pred::And(
                    row.iter()
                        .enumerate()
                        .map(|(col, &value)| Pred::Eq { col, value })
                        .collect(),
                );
                let removed = mw.delete_where(&same_row).expect("delete");
                (MUTATE_COPIES as u64 + removed) as f64
            },
        ),
    ));

    // scheduler: the widest queue a traced round faced (the root alone
    // where the build ran inside library calls)
    let staging = StagingManager::new(Some(staging_dir.clone())).expect("staging manager");
    let col_cards: Vec<u64> = (0..arity)
        .map(|c| u64::from(table.schema.column(c).cardinality()))
        .collect();
    let ledger = SampledLedger::default();
    let queue = if widest_queue.is_empty() {
        std::slice::from_ref(&root)
    } else {
        widest_queue
    };
    let schedules_per_s = rate(
        min_secs,
        || queue.to_vec(),
        |mut pending| {
            black_box(schedule(
                &mut pending,
                &staging,
                &config,
                &col_cards,
                n_classes,
                arity,
                config.memory_budget_bytes,
                &ledger,
            ));
            1.0
        },
    );
    out.push(("probe.scheduler.schedule_us", 1e6 / schedules_per_s));
    drop(staging);

    // executor: 16 dense node counters (the grandchildren of the root
    // under its first two attributes), one table pass in blocks
    let sixteen = || {
        let mut nodes = Vec::new();
        let child_attrs: Vec<u16> = attrs[2..].to_vec();
        for v in 0..cards[0].1 as Code {
            for w in 0..cards[1].1 as Code {
                let id = NodeId(1 + nodes.len() as u64);
                let lineage = Lineage::root(NodeId(0)).child(
                    id,
                    Pred::And(vec![
                        Pred::Eq { col: 0, value: v },
                        Pred::Eq { col: 1, value: w },
                    ]),
                );
                let mut counter = NodeCounter::new(CcRequest {
                    lineage,
                    attrs: child_attrs.clone(),
                    class_col,
                    rows: 0,
                    parent_rows: nrows as u64,
                    parent_cards: vec![4; child_attrs.len()],
                });
                counter.cc = CountsTable::new_dense(&cards[2..], n_classes);
                nodes.push(counter);
            }
        }
        BatchCounter::new(nodes, u64::MAX, 0, arity)
    };
    let mut stats = MiddlewareStats::new();
    out.push((
        "probe.executor.block_rows_per_s",
        rate(min_secs, sixteen, |mut batch| {
            for block in flat.chunks(BLOCK_ROWS * arity) {
                batch.process_block(block, &mut stats).expect("count block");
            }
            rows_f
        }),
    ));

    // staging: write the prefix as one extent file, read it back by columns
    let mut staging = StagingManager::new(Some(staging_dir)).expect("staging manager");
    let mut stats = MiddlewareStats::new();
    let mut file_id = 0;
    out.push((
        "probe.staging.write_rows_per_s",
        rate(
            min_secs,
            || (),
            |()| {
                let mut writer = staging
                    .start_file(vec![NodeId(0)], Pred::True, arity)
                    .expect("start staged file");
                for row in flat.chunks_exact(arity) {
                    writer.push(row).expect("stage row");
                }
                file_id = staging
                    .commit_file(writer, &mut stats)
                    .expect("commit staged file");
                rows_f
            },
        ),
    ));
    out.push((
        "probe.staging.bytes_per_row",
        stats.file_bytes_physical_written as f64 / stats.file_rows_written.max(1) as f64,
    ));
    let layout = staging
        .extent_layout(file_id)
        .expect("staged file layout")
        .expect("extent format");
    let mut decoded: Vec<Vec<Code>> = Vec::new();
    let mut scan = WorkerScanStats::default();
    out.push((
        "probe.staging.read_rows_per_s",
        rate(
            min_secs,
            || ExtentReader::open(&layout).expect("open staged file"),
            |mut reader| {
                let mut rows = 0usize;
                for k in 0..layout.extents {
                    rows += reader
                        .decode_extent_columns(k, &mut decoded, &mut scan)
                        .expect("decode extent");
                }
                rows as f64
            },
        ),
    ));
    out
}
