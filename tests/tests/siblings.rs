//! Counting one sibling and deriving the other, and counting a child only
//! in the classes its sibling shares (DESIGN.md §12b), need no switch to
//! turn them off: a client that rebuilds each child's lineage from fresh
//! records — the same nodes and predicates, so `Lineage::is_parent_of`
//! never holds — never derives nor slices, and is the reference. A client
//! that extends each child from its parent's lineage, as
//! `grow_with_middleware` does, must read the same table for every node,
//! grow the same tree and leave the same logical counters behind, at every
//! point of the configuration matrix — and it must actually derive and
//! slice. Three differences are allowed. The rows a server scan does not
//! ship because only a derived node wanted them, or because a sliced node
//! copies their class from its parent: exactly `derived_rows_unshipped +
//! sliced_rows_unshipped` fewer rows scanned, and as many fewer shipped.
//! The batches whose parents' tables settle every node read nothing
//! (`unread_batches`): each scans no source, where the reference's same
//! batch scans one, and compacts no memory set the reference's compacts,
//! so the linked client moves at most the memory rows the reference does,
//! and its later scans of such a set read what the set then holds. And the
//! staged-file scans that shard: a child's parent bound sharpens the
//! budget proof, so the linked client proves at least the batches the
//! reference does.

use proptest::prelude::*;
use proptest::TestCaseError;
use scaleclass::{
    AuxMode, Backend, CcRequest, CountsTable, FileStagingPolicy, Middleware, MiddlewareConfig,
    MiddlewareStats, MwResult, NodeId,
};
use scaleclass_dtree::{trees_structurally_equal, NodeState, Split};
use scaleclass_sqldb::{Code, Pred};
use scaleclass_tests::client::{grow, Build};
use scaleclass_tests::{
    brute_force_cc, class_isolating_table, config_matrix, mutate, schema_for, small_table,
    AMPLE_BUDGET,
};
use std::cell::Cell;
use std::sync::Arc;

/// The counters derivation and slicing may move: which path counted a
/// block, wall time, their own counters, the rows and blocks a server scan
/// read — fewer by the rows it did not ship ([`derivation_ships_less`]) —
/// the sources a batch that reads nothing does not scan, the staged rows
/// it does not read and the memory rows it does not compact
/// ([`unread_batches_read_nothing`]), and which
/// staged-file scans ran on sharded readers: a child's parent bound
/// sharpens the budget proof, so a linked client proves every batch a
/// rebuilt one does, and more ([`linked_proves_more`]).
fn logical(s: &MiddlewareStats) -> MiddlewareStats {
    MiddlewareStats {
        server_scans: 0,
        memory_scans: 0,
        file_scans: 0,
        unread_batches: 0,
        memory_rows_read: 0,
        memory_rows_compacted: 0,
        file_rows_read: 0,
        file_bytes_read: 0,
        aux_scans: 0,
        scan_nanos: 0,
        scan_worker_rows_max: 0,
        kernel_nanos: 0,
        blocks_counted: 0,
        block_fallback_rows: 0,
        kernel_validate_nanos: 0,
        kernel_accumulate_nanos: 0,
        derived_nodes: 0,
        derived_rows: 0,
        derived_rows_unshipped: 0,
        derivations_refused: 0,
        sliced_nodes: 0,
        sliced_rows_unshipped: 0,
        split_pairs: 0,
        scan_rows: 0,
        scan_blocks: 0,
        sharded_file_scans: 0,
        ..*s
    }
}

/// A batch the rebuilt client proves, the linked one proves too: a
/// staged-file batch read-shards unless it reads nothing and starts no
/// reader — so at least as many scans do, less the unread batches; on one
/// worker no scan does either way.
fn linked_proves_more(
    linked: &MiddlewareStats,
    rebuilt: &MiddlewareStats,
    workers: usize,
) -> Result<(), TestCaseError> {
    let (l, r) = (linked.sharded_file_scans, rebuilt.sharded_file_scans);
    let unread = linked.unread_batches;
    prop_assert!(l + unread >= r, "linked {} + {} < rebuilt {}", l, unread, r);
    if workers == 1 {
        prop_assert_eq!(l, r);
    }
    Ok(())
}

/// The counters a batch's scan of its source moves: the scans, per
/// source, the rows and bytes read from a staged one, and the server
/// scans read through a §4.3.3 structure.
fn reads(s: &MiddlewareStats) -> [u64; 7] {
    [
        s.server_scans,
        s.memory_scans,
        s.file_scans,
        s.memory_rows_read,
        s.file_rows_read,
        s.file_bytes_read,
        s.aux_scans,
    ]
}

/// Batch by batch — both clients schedule the same batches — a batch the
/// linked build left unread (`unread_batches`) scanned no source and read
/// no row, where the reference's same batch scanned its source once; it
/// compacted no memory set either, so the linked build moves at most the
/// memory rows the reference does, and as many while both left as many
/// batches unread. Every other batch scanned and read exactly what the
/// reference's did, but for the rows of a memory set the two builds had
/// compacted differently before it. Returns the staged rows the reference
/// read in the batches the linked build left unread, and the memory rows
/// the linked build read past the reference in the others (negative where
/// it read fewer).
fn unread_batches_read_nothing(
    linked: &Build,
    rebuilt: &Build,
) -> Result<(u64, i64), TestCaseError> {
    prop_assert_eq!(linked.batches.len(), rebuilt.batches.len());
    let delta = |w: &[MiddlewareStats]| {
        let (before, after) = (reads(&w[0]), reads(&w[1]));
        let moved: [u64; 7] = std::array::from_fn(|i| after[i] - before[i]);
        (moved, w[1].unread_batches - w[0].unread_batches)
    };
    let (mut unread_rows, mut past) = (0, 0);
    let batches = linked.batches.windows(2).zip(rebuilt.batches.windows(2));
    for (i, (l, r)) in batches.enumerate() {
        let compacted = |w: &[MiddlewareStats]| w[1].memory_rows_compacted;
        prop_assert!(compacted(l) <= compacted(r), "batch {}: moved more rows", i);
        if l[1].unread_batches == r[1].unread_batches {
            prop_assert_eq!(compacted(l), compacted(r), "batch {}", i);
        }
        let alike = l[0].memory_rows_compacted == r[0].memory_rows_compacted;
        let ((mut l, unread), (mut r, none)) = (delta(l), delta(r));
        prop_assert_eq!(
            none,
            0,
            "batch {}: the rebuilt client left a batch unread",
            i
        );
        match unread {
            0 => {
                if !alike {
                    // `reads`' memory rows: the set each build's last
                    // compaction left.
                    past += l[3] as i64 - r[3] as i64;
                    (l[3], r[3]) = (0, 0);
                }
                prop_assert_eq!(l, r, "batch {}", i)
            }
            1 => {
                prop_assert_eq!(l, [0; 7], "batch {}: an unread batch read", i);
                prop_assert_eq!(r[0] + r[1] + r[2], 1, "batch {}", i);
                unread_rows += r[3] + r[4];
            }
            _ => prop_assert!(false, "batch {}: {} unread batches in one", i, unread),
        }
    }
    Ok((unread_rows, past))
}

/// The rows the linked build did not read are the rows only its derived
/// nodes wanted, the rows of the classes its sliced nodes copied, and the
/// staged rows of its unread batches (`unread_rows`): the server shipped
/// exactly `derived_rows_unshipped + sliced_rows_unshipped` fewer rows than
/// the reference's — an unread server batch ships none of its nodes' rows,
/// all of which count there — and the scans read `unread_rows` fewer again,
/// and `past` more memory rows, from sets compacted differently.
fn derivation_ships_less(
    linked: &Build,
    rebuilt: &Build,
    unread_rows: u64,
    past: i64,
) -> Result<(), TestCaseError> {
    let stats = &linked.stats;
    prop_assert!(stats.derived_rows_unshipped <= stats.derived_rows);
    prop_assert!(stats.sliced_rows_unshipped == 0 || stats.sliced_nodes > 0);
    let unshipped = stats.derived_rows_unshipped + stats.sliced_rows_unshipped;
    prop_assert_eq!(
        (stats.scan_rows + unshipped + unread_rows) as i64,
        rebuilt.stats.scan_rows as i64 + past
    );
    prop_assert_eq!(rebuilt.shipped.checked_sub(linked.shipped), Some(unshipped));
    Ok(())
}

/// Build `rows` under `cfg` twice, once per client, over `cfg.sessions`
/// sessions of one backend each — one after another, so every counter is
/// deterministic. With deltas on only session 0 builds, and `mutation`
/// lands between its root's batch and its children's (`mutate`, then a
/// drain, as maintenance would). Returns the linked builds.
fn linked_and_rebuilt(
    cards: &[u16],
    rows: &[Code],
    cfg: &MiddlewareConfig,
    mutation: u8,
) -> Result<Vec<Build>, TestCaseError> {
    Ok(linked_and_rebuilt_pairs(cards, rows, cfg, mutation)?.0)
}

/// [`linked_and_rebuilt`], returning the rebuilt builds too.
fn linked_and_rebuilt_pairs(
    cards: &[u16],
    rows: &[Code],
    cfg: &MiddlewareConfig,
    mutation: u8,
) -> Result<(Vec<Build>, Vec<Build>), TestCaseError> {
    let arity = cards.len();
    let nclasses = cards[arity - 1];
    let builders = if cfg.deltas { 1 } else { cfg.sessions };
    let mut runs: Vec<(Vec<Build>, Vec<Code>)> = Vec::new();
    for linked in [true, false] {
        let db = scaleclass_datagen::into_database(schema_for(cards), rows, "d");
        let backend = Arc::new(Backend::new(db, "d", "class", cfg.clone()).expect("backend"));
        let mut sessions: Vec<Middleware> = (0..cfg.sessions)
            .map(|_| Middleware::open(Arc::clone(&backend)))
            .collect::<MwResult<_>>()
            .expect("open sessions");
        let mut data = rows.to_vec();
        let mut builds = Vec::new();
        for mw in sessions.iter_mut().take(builders) {
            let between = |mw: &mut Middleware| {
                if cfg.deltas {
                    mutate(mw, &mut data, arity, nclasses, mutation);
                    mw.drain_deltas();
                }
            };
            let build = grow(mw, linked, between).expect("build");
            mw.assert_shadow_accounting();
            builds.push(build);
        }
        runs.push((builds, data));
    }
    let (rebuilt, _) = runs.pop().expect("two runs");
    let (linked, data) = runs.pop().expect("two runs");
    for (i, (l, r)) in linked.iter().zip(&rebuilt).enumerate() {
        prop_assert_eq!(
            (
                r.stats.derived_nodes,
                r.stats.sliced_nodes,
                r.stats.split_pairs
            ),
            (0, 0, 0),
            "session {}: rebuilt lineages derived, sliced or pinned",
            i
        );
        prop_assert!(l.counted == r.counted, "session {}: node tables differ", i);
        prop_assert!(
            trees_structurally_equal(&l.tree, &r.tree),
            "session {}: trees differ",
            i
        );
        prop_assert_eq!(logical(&l.stats), logical(&r.stats), "session {}", i);
        linked_proves_more(&l.stats, &r.stats, cfg.scan_workers)?;
        prop_assert!(l.stats.derived_rows >= l.stats.derived_nodes);
        let (unread_rows, past) = unread_batches_read_nothing(l, r)?;
        derivation_ships_less(l, r, unread_rows, past)?;
        for (node, c) in l
            .counted
            .iter()
            .filter(|(_, c)| c.after_mutation && cfg.deltas)
        {
            let brute = brute_force_cc(&data, arity, &c.pred, &c.attrs);
            prop_assert!(
                c.cc == brute,
                "node {} does not count the mutated table",
                node
            );
        }
    }
    Ok((linked, rebuilt))
}

/// Over the configuration matrix — workers, sessions, shared catalog,
/// sampling, deltas (with a mutation between a parent's scan and its
/// children's), extents, block rows, dense cap, file policy, caching,
/// budget — over small noisy tables and tables whose class is their first
/// attribute, the linked client reads every node's table the reference
/// does and grows its tree, with its logical counters; and across the
/// cases it derives, slices, compacts a memory set and leaves a batch
/// unread.
#[test]
fn linked_and_rebuilt_lineages_agree_over_the_matrix() {
    let derived = Cell::new(0u64);
    let sliced = Cell::new(0u64);
    let compacted = Cell::new(0u64);
    let unread = Cell::new(0u64);
    let tables = (any::<bool>(), small_table(), class_isolating_table());
    let strategy = (tables, config_matrix(), 0u8..3);
    proptest::run_cases(
        &ProptestConfig::default(),
        "linked_and_rebuilt_lineages_agree_over_the_matrix",
        |rng| {
            let ((isolating, small, isolated), cfg, mutation) = strategy.generate(rng);
            let (cards, rows) = if isolating { isolated } else { small };
            let builds = linked_and_rebuilt(&cards, &rows, &cfg, mutation).map_err(|e| {
                TestCaseError(format!(
                    "{e}\n  inputs: {cards:?} {rows:?} {cfg:?} {mutation}"
                ))
            })?;
            derived.set(derived.get() + builds.iter().map(|b| b.stats.derived_nodes).sum::<u64>());
            sliced.set(sliced.get() + builds.iter().map(|b| b.stats.sliced_nodes).sum::<u64>());
            let kept = builds.iter().map(|b| b.stats.memory_rows_compacted);
            compacted.set(compacted.get() + kept.sum::<u64>());
            unread.set(unread.get() + builds.iter().map(|b| b.stats.unread_batches).sum::<u64>());
            Ok(())
        },
    );
    assert!(derived.get() > 0, "no configuration derived a table");
    assert!(sliced.get() > 0, "no configuration sliced a table");
    assert!(
        compacted.get() > 0,
        "no configuration compacted a memory set"
    );
    assert!(unread.get() > 0, "no configuration left a batch unread");
}

/// A memory set shrinks with its frontier (DESIGN.md §8) where a batch
/// holds all the work left on it, and the scans after it read only the
/// rows their nodes took. The tables and the tree stay the reference's,
/// and one worker and four keep the same rows: a memory scan counts on
/// the session thread at any worker count.
#[test]
fn a_compacted_memory_set_serves_the_reference_tables() {
    let (cards, rows) = shaped_table();
    let table_rows = (rows.len() / cards.len()) as u64;
    let mut logical_at = Vec::new();
    for workers in [1, 4] {
        let cfg = MiddlewareConfig::builder().scan_workers(workers).build();
        let stats = linked_and_rebuilt(&cards, &rows, &cfg, 0).expect("agree")[0].stats;
        assert!(stats.memory_rows_compacted > 0, "{workers} workers");
        assert!(
            stats.memory_rows_read < stats.memory_scans * table_rows,
            "{workers} workers: every scan read the whole table"
        );
        assert_eq!(
            stats.scan_worker_rows_max, 0,
            "{workers} workers: a reader ran"
        );
        logical_at.push(logical(&stats));
    }
    assert_eq!(logical_at[0], logical_at[1]);
}

/// A table whose tree exercises every shape derivation meets: rows of four
/// attributes — `a0` three-valued and mostly 0, `a1` two-valued, `a2`
/// four-valued, `a3` noise — and three classes.
fn shaped_table() -> (Vec<u16>, Vec<Code>) {
    let cards = vec![3, 2, 4, 3, 3];
    let mut rows = Vec::new();
    for copy in 0..6u16 {
        for a0 in 0..3u16 {
            for a1 in 0..2u16 {
                for a2 in 0..4u16 {
                    for a3 in 0..3u16 {
                        if a0 != 0 && copy % 3 != 0 {
                            continue;
                        }
                        let class = match (a0, a1) {
                            (0, 0) => a2 % 3,
                            (0, _) => u16::from(a2 == 3),
                            (1, _) => 2 - u16::from(a2 == 0),
                            _ => (a1 + a3 + copy) % 3,
                        };
                        rows.extend_from_slice(&[a0, a1, a2, a3, class]);
                    }
                }
            }
        }
    }
    (cards, rows)
}

/// A table whose class is `a0`: four classes, two noise attributes that
/// carry nothing about the class, and 400 rows. Every split isolates one
/// pure class, a leaf the client never requests, so the other child holds
/// no class its complement holds: its parent's table settles it.
fn isolating_table() -> (Vec<u16>, Vec<Code>) {
    let cards = vec![4, 3, 5, 4];
    let rows = (0..400u16)
        .flat_map(|i| [i % 4, i / 4 % 3, i / 12 % 5, i % 4])
        .collect();
    (cards, rows)
}

/// On a table whose every split isolates a pure class, the parent's table
/// settles each requested child, and a batch of such children that tees
/// nothing and splits no file reads nothing (DESIGN.md §12b), on one
/// worker and two:
///
/// * unstaged, the linked client scans the server once where the rebuilt
///   reference scans it three times;
/// * over the root's memory set, it reads none of its rows where the
///   reference reads 800, and moves none of the 200 the reference's last
///   level compacts the set to: an unread batch drops its compaction;
/// * with a file per node, the first level tees a file and a memory set,
///   and the last reads none of that set's 300 rows;
/// * with hybrid files and no memory caching, the first level reads none
///   of the root's file, and the last reads it and splits it;
/// * with a temp table built for the root, only the root reads through
///   it, where the reference reads through it three times.
///
/// An unread batch starts no extent reader. The tables and the tree are the
/// reference's throughout.
#[test]
fn a_batch_the_parents_table_settles_reads_nothing() {
    let (cards, rows) = isolating_table();
    for workers in [1, 2] {
        // Extents of 16 rows, so that every staged file has several to
        // share out among readers.
        let base = MiddlewareConfig::builder()
            .scan_workers(workers)
            .stage_extent_rows(16);
        let hybrid = FileStagingPolicy::Hybrid {
            split_threshold: 0.5,
        };
        // Unread batches; memory rows read, file rows, server scans (an
        // aux structure's build is one), reads through an aux structure and
        // memory rows compacted, each (linked, rebuilt).
        let configs = [
            (
                "unstaged",
                base.clone().memory_caching(false),
                2,
                [(0, 0), (0, 0), (1, 3), (0, 0), (0, 0)],
            ),
            (
                "memory",
                base.clone(),
                2,
                [(0, 800), (0, 0), (1, 1), (0, 0), (0, 200)],
            ),
            (
                "per node",
                base.clone().file_policy(FileStagingPolicy::PerNode),
                1,
                [(0, 300), (400, 400), (1, 1), (0, 0), (0, 0)],
            ),
            (
                "hybrid",
                base.clone().memory_caching(false).file_policy(hybrid),
                1,
                [(0, 0), (400, 800), (1, 1), (0, 0), (0, 0)],
            ),
            (
                "aux",
                base.memory_caching(false)
                    .aux_mode(AuxMode::TempTable)
                    .aux_threshold(1.0),
                2,
                [(0, 0), (0, 0), (2, 4), (1, 3), (0, 0)],
            ),
        ];
        for (what, cfg, unread, expected) in configs {
            let what = format!("{what}, {workers} workers");
            let (linked, rebuilt) =
                linked_and_rebuilt_pairs(&cards, &rows, &cfg.build(), 0).expect(&what);
            let (linked, rebuilt) = (&linked[0], &rebuilt[0]);
            assert_eq!(linked.tree.len(), 7, "{what}: three splits, four leaves");
            assert_eq!(linked.counted.len(), 3, "{what}: three requests");
            assert_eq!(
                linked.stats.sliced_nodes, 2,
                "{what}: both children settled"
            );
            let (l, r) = (&linked.stats, &rebuilt.stats);
            assert_eq!(l.unread_batches, unread, "{what}");
            let read = [
                (l.memory_rows_read, r.memory_rows_read),
                (l.file_rows_read, r.file_rows_read),
                (linked.scans, rebuilt.scans),
                (l.aux_scans, r.aux_scans),
                (l.memory_rows_compacted, r.memory_rows_compacted),
            ];
            assert_eq!(read, expected, "{what}");
            // Every batch is proved, and a staged-file batch read-shards on
            // two workers.
            let sharded = |s: &MiddlewareStats| u64::from(workers > 1) * s.file_scans;
            assert_eq!(r.sharded_file_scans, sharded(r), "{what}");
            assert_eq!(l.sharded_file_scans, sharded(l), "{what}");
        }
    }
}

/// A child's rows in the classes its sibling holds too: the rows it ships
/// when counted sliced to its sibling's classes.
fn shared_rows(child: &CountsTable, sibling: &CountsTable) -> u64 {
    let theirs: Vec<Code> = sibling.class_distribution().map(|(k, _)| k).collect();
    (child.class_distribution())
        .filter(|(k, _)| theirs.contains(k))
        .map(|(_, n)| n)
        .sum()
}

/// What derivation must do on a build: every binary split both of whose
/// children the client requested derives the child with more rows in the
/// classes both hold — the `≠` child on a tie — provided counting one of
/// them costs at least a pass over the parent's table (the pin rule).
/// Returns the derived nodes and rows, and the shapes met: the derived
/// child `=`, the derived child `≠`, a two-valued split attribute, and the
/// deepest level derived.
fn expected_derivations(build: &Build, cards: &[u16]) -> ((u64, u64), [bool; 3], usize) {
    let nclasses = u64::from(cards[cards.len() - 1]);
    let (mut nodes, mut rows, mut shapes, mut deepest) = (0, 0, [false; 3], 0);
    for (idx, node) in build.tree.nodes().iter().enumerate() {
        let NodeState::Partitioned {
            split: Split::Binary { attr, .. },
        } = &node.state
        else {
            continue;
        };
        let (Some(parent), [eq, neq]) = (build.counted.get(&(idx as u64)), &node.children[..])
        else {
            continue;
        };
        let (Some(e), Some(n)) = (
            build.counted.get(&(*eq as u64)),
            build.counted.get(&(*neq as u64)),
        ) else {
            continue;
        };
        let slots: u64 = parent
            .attrs
            .iter()
            .map(|&a| u64::from(cards[usize::from(a)]) * nclasses)
            .sum();
        let pinned = [e, n]
            .iter()
            .any(|c| c.cc.total() * c.attrs.len() as u64 >= slots);
        if !pinned {
            continue;
        }
        let derives_eq = shared_rows(&e.cc, &n.cc) > shared_rows(&n.cc, &e.cc);
        nodes += 1;
        rows += if derives_eq {
            e.cc.total()
        } else {
            n.cc.total()
        };
        shapes[usize::from(!derives_eq)] = true;
        shapes[2] |= parent.cc.distinct_values(*attr) == 2;
        deepest = deepest.max(node.depth + 1);
    }
    ((nodes, rows), shapes, deepest)
}

/// On a table built for it, the linked client derives exactly the children
/// the rule names — the derived child `=` and `≠`, across a two-valued
/// split attribute the `≠` child drops, three levels down — on one worker
/// and on four, and the rebuilt reference reads the same tables.
#[test]
fn every_binary_split_derives_the_child_with_more_shared_rows() {
    let (cards, rows) = shaped_table();
    for workers in [1, 4] {
        let cfg = MiddlewareConfig::builder().scan_workers(workers).build();
        let linked = linked_and_rebuilt(&cards, &rows, &cfg, 0).expect("agree");
        let build = &linked[0];
        let (expected, shapes, deepest) = expected_derivations(build, &cards);
        assert_eq!(
            shapes, [true; 3],
            "{workers} workers: = derived, ≠ derived, two-valued"
        );
        assert!(
            deepest >= 3,
            "{workers} workers: derived at depth {deepest}"
        );
        let stats = &build.stats;
        assert_eq!(
            (stats.derived_nodes, stats.derived_rows),
            expected,
            "{workers} workers"
        );
        assert!(
            build.counted.values().all(|c| c.dense),
            "derived tables are dense"
        );
    }
}

/// With nothing staged every level is a server scan and no derived node
/// tees, so the server ships none of the rows only a derived node wants —
/// on one worker or four. The filter-pushdown ablation ships everything,
/// and derives as much.
#[test]
fn a_server_scan_ships_no_row_only_a_derived_node_wants() {
    let (cards, rows) = shaped_table();
    for workers in [1, 4] {
        let unstaged = MiddlewareConfig::builder()
            .memory_caching(false)
            .file_policy(FileStagingPolicy::Disabled)
            .scan_workers(workers);
        let linked = linked_and_rebuilt(&cards, &rows, &unstaged.clone().build(), 0);
        let stats = linked.expect("agree")[0].stats;
        assert!(stats.derived_rows > 0, "{workers} workers");
        assert_eq!(
            stats.derived_rows_unshipped, stats.derived_rows,
            "{workers} workers"
        );

        let ablation = unstaged.push_filters(false).build();
        let linked = linked_and_rebuilt(&cards, &rows, &ablation, 0);
        let ablated = linked.expect("agree")[0].stats;
        assert_eq!(
            ablated.derived_rows, stats.derived_rows,
            "{workers} workers"
        );
        assert_eq!(ablated.derived_rows_unshipped, 0, "{workers} workers");
    }
}

/// Rows of `rows` (flat, `arity` wide) on `pred`, per class code.
fn class_rows(rows: &[Code], arity: usize, nclasses: u16, pred: &Pred) -> Vec<u64> {
    let mut per_class = vec![0; usize::from(nclasses)];
    for row in rows.chunks_exact(arity).filter(|r| pred.eval(r)) {
        per_class[usize::from(row[arity - 1])] += 1;
    }
    per_class
}

/// With nothing staged every level is one server scan, and both children
/// of each pinned split count each class they share on the side holding
/// fewer of its rows: the server ships the root's rows and, per pair,
/// `Σ_k min(A_k, B_k)` of the children's rows per class `A_k`, `B_k`,
/// counted from the raw rows — on one worker or four. A child whose
/// parent is pinned but whose sibling is a leaf ships its rows in the
/// classes the sibling holds; an unpinned one ships every row. Some pair
/// counts on both sides, and every table is the one brute force counts.
#[test]
fn a_pair_ships_each_class_from_its_smaller_side() {
    let (cards, rows) = shaped_table();
    let arity = cards.len();
    let nclasses = cards[arity - 1];
    for workers in [1, 4] {
        let what = format!("{workers} workers");
        let cfg = MiddlewareConfig::builder()
            .memory_caching(false)
            .file_policy(FileStagingPolicy::Disabled)
            .scan_workers(workers)
            .build();
        let linked = linked_and_rebuilt(&cards, &rows, &cfg, 0).expect(&what);
        let build = &linked[0];
        assert_eq!(
            build.stats.split_pairs, 0,
            "{what}: every pair in one batch"
        );
        let per_class = |pred: &Pred| class_rows(&rows, arity, nclasses, pred);
        let (mut expected, mut pairs) = ((rows.len() / arity) as u64, 0);
        for (idx, node) in build.tree.nodes().iter().enumerate() {
            let (Some(c), Some(p)) = (build.counted.get(&(idx as u64)), node.parent) else {
                continue;
            };
            let parent = &build.counted[&(p as u64)];
            let siblings = &build.tree.node(p).children;
            let slots: u64 = (parent.attrs.iter())
                .map(|&a| u64::from(cards[usize::from(a)]) * u64::from(nclasses))
                .sum();
            let counted = siblings
                .iter()
                .filter_map(|s| build.counted.get(&(*s as u64)));
            let pinned = counted
                .clone()
                .any(|s| s.cc.total() * s.attrs.len() as u64 >= slots);
            let own = per_class(&c.pred);
            let sibling = siblings.iter().find(|&&s| s != idx);
            let shipped: u64 = match sibling.and_then(|s| build.counted.get(&(*s as u64))) {
                _ if !pinned => own.iter().sum(),
                // A pair ships once, counted at its first child.
                Some(_) if siblings[0] != idx => 0,
                Some(s) => {
                    pairs += 1;
                    let theirs = per_class(&s.pred);
                    own.iter().zip(&theirs).map(|(a, b)| *a.min(b)).sum()
                }
                None => {
                    let all = per_class(&parent.pred);
                    let complement = all.iter().zip(&own).map(|(n, m)| n - m);
                    (own.iter().zip(complement))
                        .filter(|&(_, c)| c > 0)
                        .map(|(a, _)| a)
                        .sum()
                }
            };
            expected += shipped;
        }
        assert!(pairs > 0, "{what}: no pair");
        assert!(
            build.stats.derived_nodes > pairs,
            "{what}: no pair counted on both sides"
        );
        assert_eq!(build.shipped, expected, "{what}");
        for (id, c) in &build.counted {
            let brute = brute_force_cc(&rows, arity, &c.pred, &c.attrs);
            assert!(c.cc == brute, "{what}: node {id}");
        }
    }
}

/// A §4.3.3 auxiliary structure is built from the rows of every scheduled
/// node, derived ones included — their children read it later — while
/// each read through it ships only the rows the scan counts. Whichever
/// level first falls under the threshold builds it, in every mode, and
/// the tables and the tree are the reference's.
#[test]
fn an_aux_structure_keeps_the_rows_of_derived_nodes() {
    let (cards, rows) = shaped_table();
    let mut unshipped = 0;
    for mode in [AuxMode::TempTable, AuxMode::TidJoin, AuxMode::Keyset] {
        for threshold in [1.0, 0.75, 0.5, 0.25] {
            let cfg = MiddlewareConfig::builder()
                .memory_caching(false)
                .aux_mode(mode)
                .aux_threshold(threshold)
                .build();
            let what = format!("{mode:?} at {threshold}");
            let linked = linked_and_rebuilt(&cards, &rows, &cfg, 0).expect(&what);
            let stats = &linked[0].stats;
            assert!(stats.aux_scans > 0 && stats.derived_nodes > 0, "{what}");
            unshipped += stats.derived_rows_unshipped;
        }
    }
    assert!(
        unshipped > 0,
        "no read through a structure left a derived node out"
    );
}

/// Sampled batches never derive nor slice, and neither does a batch whose
/// scan the budget proof refuses.
#[test]
fn sampled_batches_and_refused_proofs_count_every_node() {
    let (cards, rows) = shaped_table();
    let sampled = MiddlewareConfig::builder()
        .sampled_counting(0.5)
        .sampled_min_rows(0)
        .build();
    let linked = linked_and_rebuilt(&cards, &rows, &sampled, 0).expect("agree");
    assert!(linked[0].stats.sampled_nodes > 0);
    assert_eq!(linked[0].stats.derived_nodes, 0, "a sampled batch derived");
    assert_eq!(linked[0].stats.sliced_nodes, 0, "a sampled batch sliced");

    // Every level is one scan, from the server, a memory set or a staged
    // file, as many at 5 KiB as with room to spare; but there the proof,
    // which charges each memory tee its rows, refuses the staged-file
    // batch, which then counts on the session thread — every node
    // included — where with room to spare it read-shards.
    let budget = |bytes| {
        MiddlewareConfig::builder()
            .file_policy(FileStagingPolicy::PerNode)
            .memory_budget_bytes(bytes)
            .scan_workers(2)
            .stage_extent_rows(16)
            .build()
    };
    let ample = &linked_and_rebuilt(&cards, &rows, &budget(AMPLE_BUDGET), 0).expect("agree");
    let tight = &linked_and_rebuilt(&cards, &rows, &budget(5120), 0).expect("agree");
    let (ample, tight) = (&ample[0].stats, &tight[0].stats);
    let scans = |s: &MiddlewareStats| s.server_scans + s.memory_scans + s.file_scans;
    assert_eq!(ample.sql_fallbacks + tight.sql_fallbacks, 0);
    assert_eq!(scans(tight), scans(ample), "as many batches");
    assert_eq!(ample.derivations_refused, 0, "every proof held");
    assert!(ample.file_scans > 0);
    assert_eq!(ample.sharded_file_scans, ample.file_scans);
    assert!(
        tight.sharded_file_scans < ample.sharded_file_scans,
        "some proof failed"
    );
    let refused = ample.sharded_file_scans - tight.sharded_file_scans;
    assert!(tight.derived_nodes > 0, "the proofs that held derived");
    assert!(
        tight.derived_nodes + refused <= ample.derived_nodes,
        "a batch whose proof failed derived"
    );
    assert!(tight.derivations_refused > 0);
    assert_eq!(
        tight.derived_nodes + tight.derivations_refused,
        ample.derived_nodes,
        "every plan derived or was refused"
    );
    assert!(tight.sliced_nodes > 0, "the proofs that held sliced");
    assert!(
        tight.sliced_nodes <= ample.sliced_nodes,
        "a batch whose proof failed sliced"
    );
}

/// At 4 KiB, with every level one server scan, the schema's bound on each
/// table fails the budget proof of batches the parent's exact table proves
/// (DESIGN.md §8a): every planned derivation stands, as with room to
/// spare, and the server ships exactly the rows only derived nodes wanted
/// fewer than the rebuilt reference (`derivation_ships_less`).
#[test]
fn the_parent_bound_proves_what_the_schema_bound_refuses() {
    let (cards, rows) = shaped_table();
    let budget = |bytes| {
        MiddlewareConfig::builder()
            .memory_caching(false)
            .memory_budget_bytes(bytes)
            .scan_workers(2)
            .build()
    };
    let ample = &linked_and_rebuilt(&cards, &rows, &budget(AMPLE_BUDGET), 0).expect("agree");
    let tight = &linked_and_rebuilt(&cards, &rows, &budget(4096), 0).expect("agree");
    let (ample, tight) = (&ample[0].stats, &tight[0].stats);
    assert_eq!(tight.sql_fallbacks, 0);
    assert_eq!(tight.server_scans, ample.server_scans, "as many batches");
    assert_eq!(
        tight.derivations_refused, 0,
        "a planned derivation was refused"
    );
    assert_eq!(tight.derived_nodes, ample.derived_nodes);
    assert!(tight.derived_rows_unshipped > 0);
    assert_eq!(tight.derived_rows_unshipped, ample.derived_rows_unshipped);
}

/// With deltas on, a mutation between the root's scan and its children's
/// moves the table's epoch: the root's pin is dropped, the children count
/// the mutated table (as brute force does), and the levels below derive
/// again from tables counted at the new epoch.
#[test]
fn a_mutation_between_parent_and_children_drops_the_pins() {
    let (cards, rows) = shaped_table();
    let cfg = MiddlewareConfig::builder().deltas(true).build();
    for mutation in 0..3 {
        let linked = linked_and_rebuilt(&cards, &rows, &cfg, mutation).expect("agree");
        let build = &linked[0];
        let (expected, ..) = expected_derivations(build, &cards);
        assert!(
            build.stats.derived_nodes > 0,
            "mutation {mutation}: derives again below"
        );
        assert!(
            build.stats.derived_nodes < expected.0,
            "mutation {mutation}: the root's children were derived across the mutation"
        );
    }
}

/// A lone child — its sibling a pure leaf the client never requests — is
/// counted only in the sibling's class, and every other class is copied
/// from the parent's table: on the shaped table, `a0 = 0` splits on
/// `a2 = 0`, a pure class-0 leaf, and the server ships exactly the rows of
/// `a0 = 0 ∧ a2 ≠ 0` in class 0 (brute force), while the child reads the
/// table counting all of its rows builds.
#[test]
fn a_lone_child_ships_only_its_rows_in_its_pure_siblings_class() {
    let (cards, rows) = shaped_table();
    let arity = cards.len();
    let class_col = u16::try_from(arity - 1).unwrap();
    for workers in [1, 4] {
        let cfg = MiddlewareConfig::builder()
            .memory_caching(false)
            .file_policy(FileStagingPolicy::Disabled)
            .scan_workers(workers)
            .build();
        let db = scaleclass_datagen::into_database(schema_for(&cards), &rows, "d");
        let mut mw = Middleware::new(db, "d", "class", cfg).expect("middleware");
        let child = |parent: &CcRequest, id, edge: Pred, attrs: Vec<u16>| CcRequest {
            lineage: parent.lineage.child(NodeId(id), edge),
            parent_cards: attrs
                .iter()
                .map(|&a| u64::from(cards[usize::from(a)]))
                .collect(),
            attrs,
            class_col,
            rows: 0,
            parent_rows: 0,
        };
        let root = mw.root_request(NodeId(0));
        let a0 = child(&root, 1, Pred::Eq { col: 0, value: 0 }, vec![1, 2, 3]);
        let lone = child(&a0, 2, Pred::NotEq { col: 2, value: 0 }, vec![1, 2, 3]);
        // Each batch serves one request; the client holds every table it
        // was handed, as it does while it decides.
        let mut held = Vec::new();
        let mut shipped = Vec::new();
        for req in [root, a0, lone.clone()] {
            mw.enqueue(req).expect("enqueue");
            let before = mw.db_stats().rows_shipped;
            held.extend(mw.process_next_batch().expect("batch"));
            shipped.push(mw.db_stats().rows_shipped - before);
        }
        let what = format!("{workers} workers");
        let in_class_0 = Pred::and(vec![
            lone.pred().clone(),
            Pred::Eq {
                col: arity - 1,
                value: 0,
            },
        ]);
        let brute_shipped = rows
            .chunks_exact(arity)
            .filter(|r| in_class_0.eval(r))
            .count();
        let brute_rows = rows
            .chunks_exact(arity)
            .filter(|r| lone.pred().eval(r))
            .count();
        assert_eq!(
            shipped,
            [rows.len() / arity, 144, brute_shipped].map(|n| n as u64),
            "{what}"
        );
        let table = &held.last().expect("the lone child").cc;
        let brute = brute_force_cc(&rows, arity, lone.pred(), &lone.attrs);
        assert!(**table == brute, "{what}: the lone child's table");
        let stats = mw.stats();
        assert_eq!(stats.sliced_nodes, 1, "{what}");
        assert_eq!(
            stats.sliced_rows_unshipped,
            (brute_rows - brute_shipped) as u64,
            "{what}"
        );
        assert_eq!((stats.derived_nodes, stats.split_pairs), (0, 0), "{what}");
    }
}
