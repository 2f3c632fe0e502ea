//! Property tests for the backend substrate: total functions on
//! arbitrary input, storage round trips, and executor self-consistency.

use proptest::prelude::*;
use scaleclass_sqldb::sql::parse;
use scaleclass_sqldb::wire::WireBatch;
use scaleclass_sqldb::{
    execute, BlockRoute, Code, ColumnView, Database, DbStats, Pred, PredSet, Schema, Table,
};
use std::ops::ControlFlow;

/// Columns of the router fixtures, and the codes their rows and
/// predicates draw from: a consecutive run, and two outliers that make a
/// node's equal-branch values too sparse to pad (the router then searches).
const ARITY: usize = 5;
const VALUES: [Code; 6] = [0, 1, 2, 3, 17, 40];
/// Exclusive bound of [`VALUES`].
const CARD: u16 = 41;

/// splitmix64, so one drawn seed expands into a whole predicate family.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, bound: usize) -> usize {
        (self.next() % bound as u64) as usize
    }
}

/// Grow a random tree below the node whose path predicate is `path`,
/// pushing path predicates into `out`: every leaf's, and some inner
/// nodes' too (a parent beside its descendants overlaps them). A child's
/// path is `Pred::and(parent path, edge)`, as `Lineage::child` builds it.
fn grow_paths(rng: &mut Rng, path: &Pred, depth: usize, out: &mut Vec<Pred>) {
    if depth == 4 || rng.below(4) == 0 {
        out.push(path.clone());
        return;
    }
    if rng.below(5) == 0 {
        out.push(path.clone());
    }
    let col = rng.below(ARITY);
    let child = |edge: Pred| Pred::and(vec![path.clone(), edge]);
    if rng.below(2) == 0 {
        // Binary split: `col = v` and its complement branch.
        let value = VALUES[rng.below(VALUES.len())];
        grow_paths(rng, &child(Pred::Eq { col, value }), depth + 1, out);
        grow_paths(rng, &child(Pred::NotEq { col, value }), depth + 1, out);
    } else {
        // Multiway split: one branch per value, some pruned away.
        for value in VALUES {
            if rng.below(4) != 0 {
                grow_paths(rng, &child(Pred::Eq { col, value }), depth + 1, out);
            }
        }
    }
}

/// A predicate list the way a scan compiles one: the paths of a random
/// tree (binary and multiway splits, a forest when `trees > 1`), plus the
/// shapes the trie does not take — `True`, `False`, an `Or`, a nested
/// `And`, duplicates, and a conjunction whose second atom names a column
/// past the arity but is never reached — in a drawn order.
fn predicate_family(seed: u64) -> Vec<Pred> {
    let mut rng = Rng(seed);
    let mut preds = Vec::new();
    for _ in 0..1 + rng.below(2) {
        grow_paths(&mut rng, &Pred::True, 0, &mut preds);
    }
    // (Every branch of a multiway root may have been pruned away.)
    let pick = |rng: &mut Rng, preds: &[Pred]| {
        let drawn = preds.get(rng.below(preds.len().max(1)));
        drawn.cloned().unwrap_or(Pred::True)
    };
    for _ in 0..rng.below(4) {
        let extra = match rng.below(6) {
            0 => Pred::True,
            1 => Pred::False,
            2 => Pred::Or(vec![pick(&mut rng, &preds), pick(&mut rng, &preds)]),
            3 => Pred::And(vec![
                Pred::And(vec![pick(&mut rng, &preds)]),
                Pred::NotEq {
                    col: rng.below(ARITY),
                    value: VALUES[rng.below(VALUES.len())],
                },
            ]),
            4 => pick(&mut rng, &preds),
            _ => Pred::And(vec![
                Pred::Eq {
                    col: rng.below(ARITY),
                    value: CARD, // no row holds it, so the next atom never runs
                },
                Pred::Eq {
                    col: ARITY + 3,
                    value: 0,
                },
            ]),
        };
        preds.push(extra);
    }
    for i in (1..preds.len()).rev() {
        preds.swap(i, rng.below(i + 1));
    }
    preds
}

/// [`predicate_family`] and, always, the shapes the block router takes
/// apart edge by edge: a multiway split over a gapped value set (padded
/// when the gaps are few, searched when they are many), a node testing two
/// columns (unrelated predicates below one path), several `<>` edges on
/// one column, an `Or` and a `False`.
fn irregular_family(seed: u64) -> Vec<Pred> {
    let mut rng = Rng(seed ^ 0x5eed);
    let mut preds = predicate_family(seed);
    let base = preds
        .get(rng.below(preds.len().max(1)))
        .cloned()
        .unwrap_or(Pred::True);
    let under = |edges: Vec<Pred>| Pred::and([vec![base.clone()], edges].concat());
    let (a, b) = (rng.below(ARITY), rng.below(ARITY));
    for value in [0, 2, 3, 17, 40] {
        if rng.below(3) != 0 {
            preds.push(under(vec![Pred::Eq { col: a, value }]));
        }
    }
    for value in [1, 3, 40] {
        preds.push(under(vec![Pred::NotEq { col: b, value }]));
    }
    preds.push(under(vec![
        Pred::NotEq { col: a, value: 17 },
        Pred::Eq { col: b, value: 1 },
    ]));
    preds.push(Pred::Or(vec![under(vec![]), Pred::Eq { col: a, value: 2 }]));
    preds.push(Pred::False);
    for i in (1..preds.len()).rev() {
        preds.swap(i, rng.below(i + 1));
    }
    preds
}

fn random_rows(seed: u64, n: usize) -> Vec<Vec<Code>> {
    let mut rng = Rng(seed ^ 0xa5a5_a5a5);
    (0..n)
        .map(|_| {
            (0..ARITY)
                .map(|_| VALUES[rng.below(VALUES.len())])
                .collect()
        })
        .collect()
}

proptest! {
    /// The SQL front end is total: arbitrary input may fail to parse but
    /// must never panic.
    #[test]
    fn parser_never_panics(input in ".{0,200}") {
        let _ = parse(&input);
    }

    /// … including inputs built from SQL-ish fragments, which reach deeper
    /// parser states.
    #[test]
    fn parser_never_panics_on_sqlish(
        parts in prop::collection::vec(
            prop::sample::select(vec![
                "SELECT", "FROM", "WHERE", "GROUP", "BY", "UNION", "ALL",
                "COUNT", "(", ")", "*", ",", "=", "<>", "AND", "OR", "NOT",
                "AS", "t", "a1", "class", "42", "'x'", ";",
            ]),
            0..25,
        )
    ) {
        let input = parts.join(" ");
        let _ = parse(&input);
    }

    /// Wire marshalling round-trips arbitrary row batches exactly.
    #[test]
    fn wire_round_trips(
        rows in prop::collection::vec(
            prop::collection::vec(any::<Code>(), 3),
            0..50,
        )
    ) {
        let stats = DbStats::new();
        let mut batch = WireBatch::new();
        for r in &rows {
            batch.push(r);
        }
        let mut out = Vec::new();
        let shipped = batch.transmit(3, &stats, &mut out);
        prop_assert_eq!(shipped, rows.len());
        let flat: Vec<Code> = rows.into_iter().flatten().collect();
        prop_assert_eq!(out, flat);
    }

    /// Tables preserve insertion order across any page count, and every
    /// TID fetched individually matches the scanned row.
    #[test]
    fn table_scan_round_trips(
        rows in prop::collection::vec(
            (0u16..8, 0u16..4, 0u16..3),
            1..300,
        )
    ) {
        let mut t = Table::new(Schema::from_pairs(&[("a", 8), ("b", 4), ("c", 3)]));
        for &(a, b, c) in &rows {
            t.insert(&[a, b, c]).unwrap();
        }
        let stats = DbStats::new();
        let scanned: Vec<(scaleclass_sqldb::Tid, Vec<Code>)> =
            t.scan(&stats).map(|(tid, r)| (tid, r.to_vec())).collect();
        prop_assert_eq!(scanned.len(), rows.len());
        for (i, ((tid, row), &(a, b, c))) in scanned.iter().zip(&rows).enumerate() {
            prop_assert_eq!(row.clone(), vec![a, b, c], "row {}", i);
            let fetched = t.fetch_by_tid(*tid, &stats).unwrap();
            prop_assert_eq!(fetched, &row[..]);
        }
    }

    /// GROUP BY counts always sum to the WHERE-filtered row count.
    #[test]
    fn group_by_counts_sum_to_total(
        rows in prop::collection::vec((0u16..4, 0u16..3), 1..120,),
        filter_value in 0u16..4,
    ) {
        let mut db = Database::new();
        db.create_table("t", Schema::from_pairs(&[("a", 4), ("c", 3)])).unwrap();
        for &(a, c) in &rows {
            db.insert("t", &[a, c]).unwrap();
        }
        let sql = format!(
            "SELECT c, COUNT(*) AS n FROM t WHERE a <> {filter_value} GROUP BY c"
        );
        let rs = execute(&mut db, &sql).unwrap().into_rows().unwrap();
        let total: u64 = rs.rows.iter().map(|r| r[1].as_int().unwrap()).sum();
        let expected = rows.iter().filter(|&&(a, _)| a != filter_value).count() as u64;
        prop_assert_eq!(total, expected);
    }

    /// Predicate combinators have their boolean semantics.
    #[test]
    fn pred_combinators_are_boolean(
        row in prop::collection::vec(0u16..5, 4),
        atoms in prop::collection::vec((0usize..4, 0u16..5, any::<bool>()), 0..5),
    ) {
        let preds: Vec<Pred> = atoms
            .iter()
            .map(|&(col, value, eq)| if eq {
                Pred::Eq { col, value }
            } else {
                Pred::NotEq { col, value }
            })
            .collect();
        let conj = Pred::and(preds.clone());
        let disj = Pred::or(preds.clone());
        prop_assert_eq!(conj.eval(&row), preds.iter().all(|p| p.eval(&row)));
        prop_assert_eq!(disj.eval(&row), preds.iter().any(|p| p.eval(&row)));
    }

    /// Filtered cursors ship exactly the matching rows, in order.
    #[test]
    fn cursor_matches_manual_filter(
        rows in prop::collection::vec((0u16..4, 0u16..2), 0..200),
        value in 0u16..4,
        batch in 1usize..64,
    ) {
        let mut db = Database::new();
        db.create_table("t", Schema::from_pairs(&[("a", 4), ("c", 2)])).unwrap();
        for &(a, c) in &rows {
            db.insert("t", &[a, c]).unwrap();
        }
        let mut cur = db.open_cursor("t", Pred::Eq { col: 0, value }, batch).unwrap();
        let mut flat = Vec::new();
        let n = cur.fetch_all(&mut flat);
        let expected: Vec<Code> = rows
            .iter()
            .filter(|&&(a, _)| a == value)
            .flat_map(|&(a, c)| [a, c])
            .collect();
        prop_assert_eq!(n, expected.len() / 2);
        prop_assert_eq!(flat, expected);
    }

    /// CSV import/export round-trips arbitrary label tables.
    #[test]
    fn csv_round_trips(
        labels in prop::collection::vec("[a-z]{1,6}", 1..4),
        rows in prop::collection::vec(prop::collection::vec(0usize..3, 2), 0..30),
    ) {
        // Build a CSV from a fixed header and label-indexed cells.
        let mut csv = String::from("col_x,col_y\n");
        for row in &rows {
            let cells: Vec<&str> = row
                .iter()
                .map(|&i| labels[i % labels.len()].as_str())
                .collect();
            csv.push_str(&cells.join(","));
            csv.push('\n');
        }
        let table = scaleclass_sqldb::import_csv(std::io::Cursor::new(csv.clone())).unwrap();
        prop_assert_eq!(table.nrows() as usize, rows.len());
        let mut out = Vec::new();
        scaleclass_sqldb::export_csv(&table, &mut out).unwrap();
        prop_assert_eq!(String::from_utf8(out).unwrap(), csv);
    }

    /// The compiled router is the interpreter: over generated predicate
    /// families and rows, `route` returns exactly `{i | preds[i].eval(row)}`
    /// in ascending order and `matches_any` is `Pred::or(preds).eval`, over
    /// row-major and over column access alike.
    #[test]
    fn router_equals_interpreter(seed in any::<u64>(), nrows in 1usize..40) {
        let preds = predicate_family(seed);
        let rows = random_rows(seed, nrows);
        let cols: Vec<Vec<Code>> = (0..ARITY)
            .map(|c| rows.iter().map(|row| row[c]).collect())
            .collect();
        let set = PredSet::new(&preds);
        prop_assert_eq!(set.len(), preds.len());
        let disjunction = Pred::or(preds.clone());
        let mut routed = Vec::new();
        for (r, row) in rows.iter().enumerate() {
            let expect: Vec<usize> = (0..preds.len()).filter(|&i| preds[i].eval(row)).collect();
            set.route(row, &mut routed);
            prop_assert_eq!(&routed, &expect, "row-major, row {:?}", row);
            let mut by_column = Vec::new();
            let _ = set.for_each_match(&|c| cols[c][r], &mut |i| {
                by_column.push(i);
                ControlFlow::Continue(())
            });
            by_column.sort_unstable();
            prop_assert_eq!(&by_column, &expect, "column access, row {:?}", row);
            prop_assert_eq!(set.matches_any(row), disjunction.eval(row));
            prop_assert_eq!(set.matches_any(row), !expect.is_empty());
        }
    }

    /// The block router is the per-row router, block at a time: each
    /// predicate's selection is `{r | route(row r) ∋ i}` ascending, their
    /// union is `{r | matches_any(row r)}`, a predicate no row satisfies
    /// is not reported, and the scratch is reusable — over row-major and
    /// over column access alike.
    #[test]
    fn block_router_equals_row_router(seed in any::<u64>(), nrows in 1usize..200) {
        let preds = irregular_family(seed);
        let rows = random_rows(seed, nrows);
        let flat: Vec<Code> = rows.iter().flatten().copied().collect();
        let cols: Vec<Vec<Code>> = (0..ARITY)
            .map(|c| rows.iter().map(|row| row[c]).collect())
            .collect();
        let set = PredSet::new(&preds);

        let mut expect = vec![Vec::new(); preds.len()];
        let mut routed = Vec::new();
        for (r, row) in rows.iter().enumerate() {
            set.route(row, &mut routed);
            for &i in &routed {
                expect[i].push(r as u32);
            }
            prop_assert_eq!(set.matches_any(row), !routed.is_empty());
        }
        let expect: Vec<(usize, &[u32])> = expect
            .iter()
            .enumerate()
            .filter(|(_, sel)| !sel.is_empty())
            .map(|(i, sel)| (i, sel.as_slice()))
            .collect();
        let any: std::collections::BTreeSet<u32> =
            expect.iter().flat_map(|(_, sel)| sel.iter().copied()).collect();
        let matched = (0..nrows as u32).filter(|&r| set.matches_any(&rows[r as usize]));
        prop_assert!(any.iter().copied().eq(matched));

        // One scratch over both layouts, then over a shorter block: what
        // an earlier block left in it must not show.
        let mut route = BlockRoute::default();
        let row_major = |col: usize| {
            assert!(col < ARITY);
            ColumnView { codes: &flat[col..], stride: ARITY }
        };
        set.route_block(nrows, row_major, &mut route);
        prop_assert_eq!(route.selections().collect::<Vec<_>>(), expect.clone(), "row-major");
        set.route_block(nrows, |col| ColumnView { codes: &cols[col], stride: 1 }, &mut route);
        prop_assert_eq!(route.selections().collect::<Vec<_>>(), expect.clone(), "column access");
        for (i, sel) in &expect {
            prop_assert_eq!(route.selected(*i), *sel);
        }
        prop_assert_eq!(route.selected(preds.len()), &[] as &[u32]);

        let half = nrows / 2;
        let cut: Vec<(usize, Vec<u32>)> = expect
            .iter()
            .map(|(i, sel)| (*i, sel.iter().copied().filter(|&r| (r as usize) < half).collect()))
            .filter(|(_, sel): &(usize, Vec<u32>)| !sel.is_empty())
            .collect();
        set.route_block(half, row_major, &mut route);
        let got: Vec<(usize, Vec<u32>)> =
            route.selections().map(|(i, sel)| (i, sel.to_vec())).collect();
        prop_assert_eq!(got, cut, "a shorter block through the same scratch");
    }

    /// A cursor over a compiled filter is the cursor over the interpreted
    /// one: the same rows shipped in the same order, and the same rows
    /// scanned, pages read, round trips and bytes charged.
    #[test]
    fn compiled_cursor_filters_cost_what_the_interpreted_filter_costs(
        seed in any::<u64>(),
        nrows in 0usize..3000,
        batch in 1usize..200,
    ) {
        let filter = Pred::or(predicate_family(seed));
        let rows = random_rows(seed, nrows);
        let schema = || {
            let cols = ["a", "b", "c", "d", "e"].map(|name| (name, CARD));
            Schema::from_pairs(&cols)
        };
        let mut db = Database::new();
        db.create_table("t", schema()).unwrap();
        let mut reference = Table::new(schema());
        for row in &rows {
            db.insert("t", row).unwrap();
            reference.insert(row).unwrap();
        }

        // The interpreted reference: `ServerCursor::fetch` with `Pred::eval`.
        let ref_stats = DbStats::new();
        let mut expect = Vec::new();
        let mut wire = WireBatch::new();
        for (_, row) in reference.scan(&ref_stats) {
            if filter.eval(row) {
                wire.push(row);
                if wire.rows() == batch {
                    wire.transmit(ARITY, &ref_stats, &mut expect);
                }
            }
        }
        wire.transmit(ARITY, &ref_stats, &mut expect);

        let before = db.stats().snapshot();
        let mut shipped = Vec::new();
        db.open_cursor("t", filter.clone(), batch).unwrap().fetch_all(&mut shipped);
        let cost = db.stats().snapshot() - before;
        prop_assert_eq!(&shipped, &expect);
        prop_assert_eq!(cost, ref_stats.snapshot());

        // The block cursor over the whole table, the keyset cursor and the
        // §4.3.3 structures filter through the same compiled set.
        let mut ranged = Vec::new();
        let mut cursor = db
            .open_block_cursor("t", filter.clone(), batch, vec![(0, nrows as u64)])
            .unwrap();
        while cursor.fetch(&mut ranged).unwrap() > 0 {}
        prop_assert_eq!(&ranged, &expect);
        let keyset = db.open_keyset_cursor("t", &filter).unwrap();
        prop_assert_eq!(keyset.len() * ARITY, expect.len());
        let mut residual = Vec::new();
        keyset.scan_filtered(&db, &filter, &mut residual).unwrap();
        prop_assert_eq!(&residual, &expect);
        let tids = db.create_tid_set("t", &filter).unwrap();
        let mut fetched = Vec::new();
        db.tid_scan(&tids, &filter, &mut fetched).unwrap();
        prop_assert_eq!(&fetched, &expect);
        let temp = db.copy_to_temp("t", &filter).unwrap();
        let copied: Vec<Code> = db.table(&temp).unwrap().rows_unaccounted().flatten().copied().collect();
        prop_assert_eq!(&copied, &expect);
    }
}

/// A column index past the row's arity behaves as under `Pred::eval`: no
/// panic while an earlier atom of the same conjunction fails …
#[test]
fn router_never_reaches_a_guarded_out_of_range_column() {
    let guarded = Pred::And(vec![
        Pred::Eq { col: 0, value: 1 },
        Pred::Eq { col: 9, value: 0 },
    ]);
    let set = PredSet::new([&guarded, &Pred::True]);
    let mut out = Vec::new();
    set.route(&[0, 0], &mut out);
    assert_eq!(out, vec![1]);
    assert!(!guarded.eval(&[0, 0]));
}

/// … and the same index-out-of-bounds panic once the walk reaches it.
#[test]
#[should_panic(expected = "index out of bounds")]
fn router_panics_on_a_reached_out_of_range_column() {
    let reached = Pred::And(vec![
        Pred::Eq { col: 0, value: 1 },
        Pred::Eq { col: 9, value: 0 },
    ]);
    PredSet::new([&reached]).route(&[1, 0], &mut Vec::new());
}
