//! Shared fixtures for the cross-crate integration tests.

pub mod client;

use proptest::prelude::*;
use scaleclass::config::DEFAULT_CC_DENSE_MAX_BYTES;
use scaleclass::{CountsTable, FileStagingPolicy, Middleware, MiddlewareConfig};
use scaleclass_datagen::{census, random_tree, CensusParams, RandomTreeParams};
use scaleclass_sqldb::{Code, ColumnMeta, Database, Pred, Schema};

/// A small random-tree workload (deterministic).
pub fn small_tree_workload() -> (Schema, Vec<Code>, u16) {
    let d = random_tree::generate(&RandomTreeParams {
        leaves: 30,
        attributes: 8,
        mean_values: 4.0,
        values_stddev: 0.0,
        classes: 4,
        cases_per_leaf: 40.0,
        ..RandomTreeParams::default()
    });
    (d.schema.clone(), d.rows.clone(), d.class_col)
}

/// A small census-like workload (deterministic).
pub fn small_census_workload() -> (Schema, Vec<Code>, u16) {
    let d = census::generate(&CensusParams {
        rows: 4_000,
        seed: 42,
    });
    (d.schema.clone(), d.rows.clone(), d.class_col)
}

/// Deterministic Fisher–Yates over whole rows (splitmix64-driven).
///
/// The random-tree generator emits rows leaf region by leaf region, so
/// scan *blocks* of the loaded table are leaf clusters — a block-level
/// sample of such a table sees a handful of whole regions and nothing
/// else. Shuffling restores the unclustered layout the block-sampling
/// estimator (DESIGN.md §13) assumes, the same caveat `TABLESAMPLE
/// SYSTEM` carries on physically clustered tables.
fn shuffle_rows(rows: &mut [Code], arity: usize, seed: u64) {
    let n = rows.len() / arity;
    let mut state = seed;
    let mut next = || {
        state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    };
    for i in (1..n).rev() {
        let j = (next() % (i as u64 + 1)) as usize;
        if i != j {
            for c in 0..arity {
                rows.swap(i * arity + c, j * arity + c);
            }
        }
    }
}

/// A fat-margin workload for sampled counting: a complete depth-5 binary
/// generating tree over 25 binary attributes, one *distinct* class per
/// leaf (so no internal node of the true tree is ever pure and every
/// level's split margin stays fat), rows shuffled so block samples are
/// unbiased.
pub fn fat_margin_workload(cases_per_leaf: usize) -> (Schema, Vec<Code>, u16) {
    let mut d = random_tree::generate(&RandomTreeParams {
        leaves: 32,
        attributes: 25,
        mean_values: 2.0,
        values_stddev: 0.0,
        classes: 32,
        skew: 0.0,
        complete_splits: true,
        cases_per_leaf: cases_per_leaf as f64,
        cases_stddev: 0.0,
        // Seed 55 is margin-audited (`sampled.rs`): at every node big
        // enough to be sampled, the winner's exact score clears the
        // runner-up by well more than the 10%-sample confidence band.
        // Most seeds fail this — whenever the generator hands both
        // children of a node the same split attribute, that attribute
        // already bisects the node's classes perfectly and ties the
        // winner at margin zero, forcing an escalation no sample size can
        // avoid.
        seed: 55,
    });
    let arity = d.schema.arity();
    // The generator draws leaf classes at random, which lets sibling
    // leaves collide and turn their parent pure. Rows are emitted leaf
    // by leaf with exact per-leaf counts (stddev 0), so segment i of
    // `cases_per_leaf` rows IS leaf i: relabel each segment with its leaf
    // index for a bijective leaf→class map.
    assert_eq!(
        d.rows.len() / arity,
        d.generating_leaves * cases_per_leaf,
        "leaf segments must be exact for the relabel to be valid"
    );
    for (i, row) in d.rows.chunks_exact_mut(arity).enumerate() {
        row[arity - 1] = (i / cases_per_leaf) as Code;
    }
    shuffle_rows(&mut d.rows, arity, 0x5ca1_ec1a_0055_aa33);
    (d.schema, d.rows, d.class_col)
}

/// Load flat rows into a fresh database under table name `d`.
pub fn load(schema: &Schema, rows: &[Code]) -> Database {
    scaleclass_datagen::into_database(schema.clone(), rows, "d")
}

/// The schema of a table whose columns have cardinalities `cards`: the
/// attributes `a0`, `a1`, …, then — the last entry — `class`.
pub fn schema_for(cards: &[u16]) -> Schema {
    let class = cards.len() - 1;
    Schema::new(
        (cards.iter().enumerate())
            .map(|(i, &card)| match i == class {
                true => ColumnMeta::new("class", card),
                false => ColumnMeta::new(format!("a{i}"), card),
            })
            .collect(),
    )
}

/// The counts over `attrs` of the rows of `flat` (class column last) that
/// satisfy `pred`, one `add_row` at a time: the oracle of a node's table.
pub fn brute_force_cc(flat: &[Code], arity: usize, pred: &Pred, attrs: &[u16]) -> CountsTable {
    let mut cc = CountsTable::new();
    for row in flat.chunks_exact(arity) {
        if pred.eval(row) {
            cc.add_row(row, attrs, (arity - 1) as u16);
        }
    }
    cc
}

/// A small table: attribute cardinalities then the class cardinality, and
/// flat rows whose class follows `a0 + a1` except on one row in four, so
/// trees grow a few levels deep with noise below. Half the tables give
/// their last attribute 300 values and spread its few drawn values over
/// them (`0, 99, 198, 297` for four), so their codes pass 255 and their
/// memory sets store two bytes a code (DESIGN.md §8), while their counts
/// tables hold as many entries as the narrow draw's.
pub fn small_table() -> impl Strategy<Value = (Vec<u16>, Vec<Code>)> {
    const WIDE: u16 = 300;
    (
        prop::collection::vec(2u16..=4, 3..=4),
        2u16..=3,
        40usize..=160,
        any::<bool>(),
    )
        .prop_flat_map(|(mut cards, classes, nrows, wide)| {
            let last = cards.len() - 1;
            let spread = if wide {
                (WIDE - 1) / (cards[last] - 1)
            } else {
                1
            };
            cards.push(classes);
            let codes: Vec<_> = cards.iter().map(|&card| 0..card).collect();
            let row = (codes, 0u8..4).prop_map(move |(mut row, noise)| {
                row[last] *= spread;
                if noise != 0 {
                    let class = row.len() - 1;
                    row[class] = (row[0] + row[1]) % classes;
                }
                row
            });
            if wide {
                cards[last] = WIDE;
            }
            (Just(cards), prop::collection::vec(row, nrows))
        })
        .prop_map(|(cards, rows)| (cards, rows.concat()))
}

/// A small table whose class is its first attribute `a0`, beside one or
/// two noise attributes: a split on `a0` isolates a pure class, so the
/// other child holds no class its complement holds, and its parent's
/// table settles it (DESIGN.md §12b). Cardinalities as [`small_table`]'s.
pub fn class_isolating_table() -> impl Strategy<Value = (Vec<u16>, Vec<Code>)> {
    (
        2u16..=4,
        prop::collection::vec(2u16..=4, 1..=2),
        40usize..=160,
    )
        .prop_flat_map(|(classes, noise, nrows)| {
            let attrs: Vec<u16> = std::iter::once(classes).chain(noise).collect();
            let codes: Vec<_> = attrs.iter().map(|&card| 0..card).collect();
            let row = codes.prop_map(|mut row| {
                row.push(row[0]);
                row
            });
            let cards = [attrs, vec![classes]].concat();
            (Just(cards), prop::collection::vec(row, nrows))
        })
        .prop_map(|(cards, rows)| (cards, rows.concat()))
}

/// The one mutation a delta case applies, to the table through `mw` and
/// to the flat `rows` alike. Each kind logs at least one event: it
/// inserts a copy of row 0 with its class moved on, deletes every row
/// sharing row 0's `a0`, or moves those rows' class on.
pub fn mutate(mw: &Middleware, rows: &mut Vec<Code>, arity: usize, nclasses: u16, kind: u8) {
    let class = arity - 1;
    let (a0, moved) = (rows[0], (rows[class] + 1) % nclasses);
    let pred = Pred::Eq { col: 0, value: a0 };
    match kind {
        0 => {
            let mut row = rows[..arity].to_vec();
            row[class] = moved;
            mw.insert_row(&row).expect("insert");
            rows.extend_from_slice(&row);
        }
        1 => {
            mw.delete_where(&pred).expect("delete");
            *rows = (rows.chunks_exact(arity))
                .filter(|row| row[0] != a0)
                .flatten()
                .copied()
                .collect();
        }
        _ => {
            mw.update_where(&pred, &[(class, moved)]).expect("update");
            for row in rows.chunks_exact_mut(arity).filter(|row| row[0] == a0) {
                row[class] = moved;
            }
        }
    }
}

/// The budget of an ample [`config_matrix`] case: the default, which every
/// batch of the matrix's small tables fits many times over, per session.
pub const AMPLE_BUDGET: u64 = 64 << 20;

/// One generated point of the middleware's configuration space, for
/// every suite to draw from instead of hand-listing sweeps. The axes are
/// the knobs a path hangs on, drawn independently, so a case may combine
/// what no hand-written sweep pins together (sampled × deltas × shared
/// catalog × tight budget):
///
/// * scan workers {1, 2, 4, 8}, and {1, 4} sessions over one backend;
/// * shared staging, deltas and memory caching, each on or off;
/// * exact counting, or a 10 % block sample open to every node;
/// * file staging off, per-node, singleton or hybrid;
/// * extent rows {1, 7, 8192}, scan blocks of {7, 4096} rows (seven
///   makes a small table many blocks, for a sample to admit some and skip
///   others), dense cap {0, default};
/// * a budget from 256 B to 512 KiB, or [`AMPLE_BUDGET`] half the time;
/// * batches of any size, or of at most one or two nodes, so that a level
///   takes several batches over one staged set and a set compacts while
///   requests still wait on it.
pub fn config_matrix() -> impl Strategy<Value = MiddlewareConfig> {
    let file_policies = vec![
        FileStagingPolicy::Disabled,
        FileStagingPolicy::PerNode,
        FileStagingPolicy::Singleton,
        FileStagingPolicy::Hybrid {
            split_threshold: 0.5,
        },
    ];
    let paths = (
        prop::sample::select(vec![1usize, 2, 4, 8]),
        prop::sample::select(vec![1usize, 4]),
        any::<bool>(),
        any::<bool>(),
        any::<bool>(),
        any::<bool>(),
    );
    let layout = (
        prop::sample::select(file_policies),
        prop::sample::select(vec![1usize, 7, 8192]),
        prop::sample::select(vec![7usize, 4096]),
        prop::sample::select(vec![0, DEFAULT_CC_DENSE_MAX_BYTES]),
        any::<bool>(),
        (8u32..=18).prop_flat_map(|e| (1u64 << e)..(2u64 << e)),
    );
    let batch_nodes = prop::sample::select(vec![None, Some(1), Some(2)]);
    (paths, layout, batch_nodes).prop_map(
        |(
            (workers, sessions, shared, sampled, deltas, caching),
            (file_policy, extent_rows, block_rows, dense_cap, ample, tight),
            batch_nodes,
        )| {
            let mut b = MiddlewareConfig::builder()
                .scan_workers(workers)
                .sessions(sessions)
                .shared_staging(shared)
                .deltas(deltas)
                .memory_caching(caching)
                .file_policy(file_policy)
                .stage_extent_rows(extent_rows)
                .scan_block_rows(block_rows)
                .cc_dense_max_bytes(dense_cap)
                .max_batch_nodes(batch_nodes)
                .memory_budget_bytes(if ample { AMPLE_BUDGET } else { tight });
            if sampled {
                b = b.sampled_counting(0.1).sampled_min_rows(0);
            }
            b.build()
        },
    )
}
