//! Property tests for the backend substrate: total functions on
//! arbitrary input, storage round trips, and executor self-consistency.

use proptest::prelude::*;
use scaleclass_sqldb::page::Page;
use scaleclass_sqldb::sql::parse;
use scaleclass_sqldb::wire::WireBatch;
use scaleclass_sqldb::{
    execute, open_database, save_database, BlockRoute, Code, ColumnView, Database, DbError,
    DbResult, DbStats, DeltaLog, DeltaSign, PageFilter, Pred, PredSet, Schema, StatsSnapshot,
    Table, Tid,
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

/// The disjuncts of a pushed-down filter, for the page filter: a
/// [`predicate_family`] or an [`irregular_family`]; the paths of enough
/// trees to fill more than one or more than two 64-disjunct mask words;
/// conjunctions of `<>` atoms only; an empty list; or `False` alone —
/// and then a few of: `=` and `<>` values past every stored code, atoms
/// repeated (or contradicting each other) on one column, a nested `Or`,
/// and a column past the arity behind an atom no row passes.
fn filter_family(seed: u64) -> Vec<Pred> {
    let mut rng = Rng(seed ^ 0xf17e);
    let atom = |rng: &mut Rng, eq: bool| {
        let (col, value) = (rng.below(ARITY), VALUES[rng.below(VALUES.len())]);
        if eq {
            Pred::Eq { col, value }
        } else {
            Pred::NotEq { col, value }
        }
    };
    let mut preds = match rng.below(6) {
        0 => predicate_family(seed),
        1 => irregular_family(seed),
        2 => {
            // No `True`: a disjunct that admits every row needs no word.
            let words = 1 + rng.below(2);
            let mut paths = Vec::new();
            while paths.len() <= 64 * words {
                grow_paths(&mut rng, &Pred::True, 0, &mut paths);
                paths.retain(|p| *p != Pred::True);
            }
            paths
        }
        3 => (0..1 + rng.below(70))
            .map(|_| {
                Pred::And(
                    (0..1 + rng.below(3))
                        .map(|_| atom(&mut rng, false))
                        .collect(),
                )
            })
            .collect(),
        4 => Vec::new(),
        _ => vec![Pred::False; 1 + rng.below(3)],
    };
    for _ in 0..rng.below(4) {
        let col = rng.below(ARITY);
        let past = CARD + rng.below(3) as Code;
        let (v, w) = (
            VALUES[rng.below(VALUES.len())],
            VALUES[rng.below(VALUES.len())],
        );
        let extra = match rng.below(6) {
            0 => Pred::And(vec![atom(&mut rng, true), Pred::Eq { col, value: past }]),
            1 => Pred::NotEq { col, value: past },
            2 => Pred::And(vec![Pred::Eq { col, value: v }, Pred::Eq { col, value: w }]),
            3 => Pred::And(vec![
                Pred::NotEq { col, value: v },
                Pred::Eq { col, value: w },
                Pred::NotEq { col, value: v },
            ]),
            4 => Pred::Or(vec![
                atom(&mut rng, true),
                Pred::And(vec![atom(&mut rng, true), atom(&mut rng, false)]),
            ]),
            _ => Pred::And(vec![
                Pred::Eq { col, value: CARD },
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
    /// in ascending order, and some predicate exactly when
    /// `Pred::or(preds).eval` holds, over row-major and over column access
    /// alike.
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
            prop_assert_eq!(!routed.is_empty(), disjunction.eval(row));
        }
    }

    /// The block router is the per-row router, block at a time: each
    /// predicate's selection is `{r | route(row r) ∋ i}` ascending, their
    /// union — `matched`, once marked — is `{r | Pred::or(preds).eval(row r)}`
    /// ascending with a row several predicates select named once, a
    /// predicate no row satisfies is not reported, and the scratch is
    /// reusable — over row-major and over column access alike.
    #[test]
    fn block_router_equals_row_router(seed in any::<u64>(), nrows in 1usize..200) {
        let preds = irregular_family(seed);
        let rows = random_rows(seed, nrows);
        let flat: Vec<Code> = rows.iter().flatten().copied().collect();
        let cols: Vec<Vec<Code>> = (0..ARITY)
            .map(|c| rows.iter().map(|row| row[c]).collect())
            .collect();
        let set = PredSet::new(&preds);
        let disjunction = Pred::or(preds.clone());

        let mut expect = vec![Vec::new(); preds.len()];
        let mut routed = Vec::new();
        for (r, row) in rows.iter().enumerate() {
            set.route(row, &mut routed);
            for &i in &routed {
                expect[i].push(r as u32);
            }
            prop_assert_eq!(disjunction.eval(row), !routed.is_empty());
        }
        let expect: Vec<(usize, &[u32])> = expect
            .iter()
            .enumerate()
            .filter(|(_, sel)| !sel.is_empty())
            .map(|(i, sel)| (i, sel.as_slice()))
            .collect();
        let any: std::collections::BTreeSet<u32> =
            expect.iter().flat_map(|(_, sel)| sel.iter().copied()).collect();
        let matched: Vec<u32> =
            (0..nrows as u32).filter(|&r| disjunction.eval(&rows[r as usize])).collect();
        prop_assert!(any.iter().copied().eq(matched.iter().copied()));

        // One scratch over both layouts, then over a shorter block: what
        // an earlier block left in it must not show.
        let mut route = BlockRoute::default();
        let row_major = |col: usize| ColumnView::row_major(&flat, ARITY, col);
        set.route_block(nrows, row_major, &mut route);
        prop_assert_eq!(route.selections().collect::<Vec<_>>(), expect.clone(), "row-major");
        prop_assert_eq!(route.matched(), &[] as &[u32], "only marked when asked");
        route.mark_matched();
        prop_assert_eq!(route.matched(), &matched[..], "row-major");
        prop_assert_eq!(route.selections().collect::<Vec<_>>(), expect.clone(), "marking keeps them");
        set.route_block(nrows, |col| ColumnView { codes: &cols[col], stride: 1 }, &mut route);
        prop_assert_eq!(route.selections().collect::<Vec<_>>(), expect.clone(), "column access");
        prop_assert_eq!(route.matched(), &[] as &[u32], "a new block forgets the last union");
        route.mark_matched();
        prop_assert_eq!(route.matched(), &matched[..], "column access");
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
        route.mark_matched();
        let cut_matched: Vec<u32> =
            matched.iter().copied().filter(|&r| (r as usize) < half).collect();
        prop_assert_eq!(route.matched(), &cut_matched[..]);
    }

    /// The page filter is the interpreter: over generated filters, rows
    /// and range certificates (each column's stored maximum, or more), it
    /// selects exactly `{r | Pred::or(preds).eval(row r)}` ascending —
    /// the filter pushed down collapsed or as the uncollapsed `Or` of
    /// `preds` — on a page, on a shorter page through the same scratch,
    /// and one row at a time.
    #[test]
    fn page_filter_equals_interpreter(seed in any::<u64>(), nrows in 0usize..300) {
        let mut rng = Rng(seed ^ 0xce27);
        let preds = filter_family(seed);
        let rows = random_rows(seed, nrows);
        let flat: Vec<Code> = rows.concat();
        let col_max: Vec<Code> = (0..ARITY)
            .map(|c| {
                let stored = rows.iter().map(|row| row[c]).max().unwrap_or(0);
                stored + rng.below(2) as Code * 9
            })
            .collect();
        let disjunction = Pred::or(preds.clone());
        let expect: Vec<u32> =
            (0..nrows as u32).filter(|&r| disjunction.eval(&rows[r as usize])).collect();
        let half = nrows / 2;
        let half_expect: Vec<u32> = expect.iter().copied().filter(|&r| (r as usize) < half).collect();
        for filter in [disjunction.clone(), Pred::Or(preds.clone())] {
            let mut page = PageFilter::compile(&filter, &col_max);
            let mut sel = vec![7, 3];
            page.select(&flat, &mut sel);
            prop_assert_eq!(&sel, &expect, "{}", filter);
            page.select(&flat[..half * ARITY], &mut sel);
            prop_assert_eq!(&sel, &half_expect, "a shorter page, {}", filter);
            for (r, row) in (0..).zip(&rows) {
                page.select(row, &mut sel);
                prop_assert_eq!(sel.is_empty(), expect.binary_search(&r).is_err());
            }
        }
    }

    /// A cursor that filters a page at a time and ships a fetch at a time
    /// is the row-at-a-time cursor over the interpreted filter: the same
    /// rows shipped in the same order, and the same rows scanned, pages
    /// read, round trips and bytes charged — after *every* fetch, so a
    /// cursor dropped mid-scan has charged what the per-row one would
    /// have — over random arities, tables from empty to several pages
    /// with a ragged last one, batches smaller than, equal to and larger
    /// than a page, and (the block cursor) unsorted TID ranges that start
    /// and stop mid-page and run past the end of the table.
    #[test]
    fn page_at_a_time_cursors_cost_what_a_row_at_a_time_cursor_costs(
        seed in any::<u64>(),
        nrows in 0usize..3000,
    ) {
        let mut rng = Rng(seed ^ 0xc0ffee);
        let arity = ARITY + rng.below(4);
        let per_page = Page::capacity_rows(arity);
        let batch = match rng.below(4) {
            0 => 1,
            1 => 2 + rng.below(per_page - 2),
            2 => per_page,
            _ => per_page + 1 + rng.below(2 * per_page),
        };
        // The whole frontier, one member of it (`True`, `False`, an `Or`,
        // a path, a nested `And`), or the uncollapsed `Or` of all of them,
        // overlapping paths and generic shapes included.
        let family = predicate_family(seed);
        let filter = match rng.below(3) {
            0 => Pred::or(family),
            1 => family.get(rng.below(family.len().max(1))).cloned().unwrap_or(Pred::True),
            _ => Pred::Or(family),
        };
        let rows: Vec<Vec<Code>> = random_rows(seed, nrows)
            .into_iter()
            .map(|mut row| {
                row.extend((ARITY..arity).map(|_| VALUES[rng.below(VALUES.len())]));
                row
            })
            .collect();
        let schema = || {
            let names: Vec<String> = (0..arity).map(|c| format!("c{c}")).collect();
            let cols: Vec<(&str, u16)> = names.iter().map(|name| (name.as_str(), CARD)).collect();
            Schema::from_pairs(&cols)
        };
        let mut db = Database::new();
        db.create_table("t", schema()).unwrap();
        let mut reference = Table::new(schema());
        for row in &rows {
            db.insert("t", row).unwrap();
            reference.insert(row).unwrap();
        }
        prop_assert_eq!(reference.npages() as usize, nrows.div_ceil(per_page));

        // The interpreted reference for the whole scan: the old
        // `ServerCursor::fetch` loop, with `Pred::eval`.
        let ref_stats = DbStats::new();
        let mut expect = Vec::new();
        let mut wire = WireBatch::new();
        for (_, row) in reference.scan(&ref_stats) {
            if filter.eval(row) {
                wire.push(row);
                if wire.rows() == batch {
                    wire.transmit(arity, &ref_stats, &mut expect);
                }
            }
        }
        wire.transmit(arity, &ref_stats, &mut expect);

        // Fetch by fetch — and twice past the end — against the
        // row-at-a-time cursor; what the cursor shipped in all.
        let in_step = |fetch: &mut dyn FnMut(&mut Vec<Code>) -> usize,
                       by_row: &mut RowAtATime,
                       before: StatsSnapshot| {
            let (mut shipped, mut ref_shipped) = (Vec::new(), Vec::new());
            let mut ended = 0;
            while ended < 2 {
                let n = fetch(&mut shipped);
                prop_assert_eq!(n, by_row.fetch(&mut ref_shipped));
                prop_assert_eq!(&shipped, &ref_shipped);
                prop_assert_eq!(db.stats().snapshot() - before, by_row.stats.snapshot());
                ended += usize::from(n == 0);
            }
            Ok(shipped)
        };
        let mut by_row = RowAtATime::open(&rows, &filter, batch, vec![(0, u64::MAX)]);
        let before = db.stats().snapshot();
        let mut cursor = db.open_cursor("t", filter.clone(), batch).unwrap();
        let shipped = in_step(&mut |out| cursor.fetch(out), &mut by_row, before)?;
        prop_assert_eq!(&shipped, &expect);
        prop_assert_eq!(db.stats().snapshot() - before, ref_stats.snapshot());

        // The block cursor: disjoint ranges between drawn cut points, in a
        // drawn order, some empty, some past the end of the table.
        let mut cuts: Vec<u64> =
            (0..2 * rng.below(5)).map(|_| rng.below(nrows + per_page) as u64).collect();
        cuts.sort_unstable();
        let mut ranges: Vec<(u64, u64)> = cuts.chunks_exact(2).map(|c| (c[0], c[1])).collect();
        for i in (1..ranges.len()).rev() {
            ranges.swap(i, rng.below(i + 1));
        }
        let mut by_row = RowAtATime::open(&rows, &filter, batch, ranges.clone());
        let before = db.stats().snapshot();
        let mut cursor = db.open_block_cursor("t", filter.clone(), batch, ranges).unwrap();
        prop_assert_eq!(cursor.covered_rows(), by_row.tids.len() as u64);
        in_step(&mut |out| cursor.fetch(out).unwrap(), &mut by_row, before)?;

        // The keyset cursor and the §4.3.3 structures filter through the
        // same compiled set, and ship through the same wire.
        let keyset = db.open_keyset_cursor("t", &filter).unwrap();
        prop_assert_eq!(keyset.len() * arity, expect.len());
        let mut residual = Vec::new();
        keyset.scan_filtered(&db, &filter, &mut residual).unwrap();
        prop_assert_eq!(&residual, &expect);
        let tids = db.create_tid_set("t", &filter).unwrap();
        let before = db.stats().snapshot();
        let mut fetched = Vec::new();
        db.tid_scan(&tids, &filter, batch, &mut fetched).unwrap();
        let cost = db.stats().snapshot() - before;
        prop_assert_eq!(&fetched, &expect);
        let wire = ref_stats.snapshot();
        prop_assert_eq!(
            (cost.rows_shipped, cost.bytes_shipped, cost.wire_round_trips),
            (wire.rows_shipped, wire.bytes_shipped, wire.wire_round_trips),
            "a TID join pays the wire a cursor pays"
        );
        let temp = db.copy_to_temp("t", &filter).unwrap();
        let copied: Vec<Code> = db.table(&temp).unwrap().rows_unaccounted().flatten().copied().collect();
        prop_assert_eq!(&copied, &expect);
    }
}

/// The cursor the server had before it filtered a page at a time, as the
/// reference: it reads the rows of its (sorted, clamped) TID ranges one at
/// a time, charges a page when it enters one and a row as it reads it,
/// asks `Pred::eval` of the row, and stops reading the moment its batch is
/// full.
struct RowAtATime<'a> {
    rows: &'a [Vec<Code>],
    filter: &'a Pred,
    batch: usize,
    /// The TIDs still to read.
    tids: std::vec::IntoIter<u64>,
    last_page: u64,
    stats: DbStats,
}

impl<'a> RowAtATime<'a> {
    fn open(
        rows: &'a [Vec<Code>],
        filter: &'a Pred,
        batch: usize,
        mut ranges: Vec<(u64, u64)>,
    ) -> Self {
        ranges.sort_unstable();
        let tids: Vec<u64> = ranges
            .into_iter()
            .flat_map(|(start, end)| start..end.min(rows.len() as u64))
            .collect();
        let stats = DbStats::new();
        stats.add_seq_scan();
        RowAtATime {
            rows,
            filter,
            batch,
            tids: tids.into_iter(),
            last_page: u64::MAX,
            stats,
        }
    }

    fn fetch(&mut self, out: &mut Vec<Code>) -> usize {
        let arity = self.rows.first().map_or(1, Vec::len);
        let per_page = Page::capacity_rows(arity) as u64;
        let mut wire = WireBatch::new();
        while wire.rows() < self.batch {
            let Some(tid) = self.tids.next() else { break };
            if tid / per_page != self.last_page {
                self.stats.add_pages_read(1);
                self.last_page = tid / per_page;
            }
            self.stats.add_rows_scanned(1);
            let row = &self.rows[tid as usize];
            if self.filter.eval(row) {
                wire.push(row);
            }
        }
        wire.transmit(arity, &self.stats, out)
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

/// Cardinalities of the certificate fixture's columns.
const CERT_CARDS: [u16; 3] = [4, 3, 2];

/// The largest code each column of `table` holds now (0 when empty).
fn stored_max(table: &Table) -> Vec<Code> {
    let mut max = vec![0; table.schema().arity()];
    for row in table.rows_unaccounted() {
        for (m, &code) in max.iter_mut().zip(row) {
            *m = (*m).max(code);
        }
    }
    max
}

proptest! {
    /// The range certificate is sound under every way a table stores or
    /// copies codes: over a random stream of validated inserts, unchecked
    /// inserts (codes at or past the cardinality included), updates,
    /// deletes, temp-table copies and save/load round trips, `col_max` is
    /// at least every stored code, never falls, bounds every copy, and is
    /// the true maximum while no row was deleted or overwritten.
    #[test]
    fn col_max_bounds_every_stored_code(seed in any::<u64>(), steps in 1usize..40) {
        let mut rng = Rng(seed ^ 0xce27);
        let path = std::env::temp_dir()
            .join(format!("scaleclass-cert-{}-{seed:x}.db", std::process::id()));
        let mut db = Database::new();
        db.create_table("t", Schema::from_pairs(&[("a", 4), ("b", 3), ("class", 2)]))
            .unwrap();
        let (mut exact, mut last) = (true, vec![0; CERT_CARDS.len()]);
        for _ in 0..steps {
            let col = rng.below(CERT_CARDS.len());
            let pred = Pred::Eq { col, value: rng.below(4) as Code };
            let cert = db.table("t").unwrap().col_max().to_vec();
            match rng.below(8) {
                0 | 1 => {
                    let row: Vec<Code> =
                        CERT_CARDS.iter().map(|&c| rng.below(c.into()) as Code).collect();
                    db.insert("t", &row).unwrap();
                }
                2 => {
                    let row: Vec<Code> =
                        CERT_CARDS.iter().map(|&c| rng.below(usize::from(c) + 3) as Code).collect();
                    db.table_mut("t").unwrap().insert_unchecked(&row);
                }
                3 => {
                    let value = rng.below(CERT_CARDS[col].into()) as Code;
                    exact &= db.update_where("t", &pred, &[(col, value)]).unwrap() == 0;
                }
                4 => exact &= db.delete_where("t", &pred).unwrap() == 0,
                5 => {
                    let temp = db.copy_to_temp("t", &pred).unwrap();
                    let copy = db.table(&temp).unwrap();
                    prop_assert_eq!(copy.col_max(), &stored_max(copy)[..]);
                    prop_assert!(copy.col_max().iter().zip(&cert).all(|(c, t)| c <= t));
                    db.drop_table(&temp).unwrap();
                }
                _ => {
                    // A reload is a fresh table: its certificate is the
                    // true maximum again, under the original's.
                    save_database(&db, &path).unwrap();
                    let loaded = open_database(&path);
                    std::fs::remove_file(&path).unwrap();
                    let stored = stored_max(db.table("t").unwrap());
                    let in_layout = stored.iter().zip(CERT_CARDS).all(|(&m, c)| m < c);
                    prop_assert_eq!(loaded.is_ok(), in_layout, "load validates every code");
                    if let Ok(loaded) = loaded {
                        let reloaded = loaded.table("t").unwrap().col_max();
                        prop_assert!(reloaded.iter().zip(&cert).all(|(r, c)| r <= c));
                        db = loaded;
                        (exact, last) = (true, vec![0; CERT_CARDS.len()]);
                    }
                }
            }
            let t = db.table("t").unwrap();
            let (cert, max) = (t.col_max(), stored_max(t));
            prop_assert!(cert.iter().zip(&max).all(|(c, m)| c >= m), "{:?} < {:?}", cert, max);
            prop_assert!(cert.iter().zip(&last).all(|(c, l)| c >= l), "never falls");
            if exact {
                prop_assert_eq!(cert, &max[..]);
            }
            last = cert.to_vec();
        }
    }
}

/// `Table::delete_where_with` as it was while DML rewrote the heap a row at
/// a time — the reference the page-at-a-time statement is held to: one
/// `ScanIter` step and one `Pred::eval` per row, every surviving row pushed
/// into a second heap.
fn delete_row_at_a_time(
    table: &mut Table,
    pred: &Pred,
    stats: &DbStats,
    mut on_delete: impl FnMut(&[Code]),
) -> u64 {
    let mut kept = Table::new(table.schema().clone());
    let mut removed = 0;
    for (_, row) in table.scan(stats) {
        if pred.eval(row) {
            removed += 1;
            on_delete(row);
        } else {
            kept.insert_unchecked(row);
        }
    }
    stats.add_pages_written(kept.npages());
    *table = kept;
    removed
}

/// `Table::update_where_with` as it was, likewise.
fn update_row_at_a_time(
    table: &mut Table,
    pred: &Pred,
    assignments: &[(usize, Code)],
    stats: &DbStats,
    mut on_change: impl FnMut(&[Code], &[Code]),
) -> DbResult<u64> {
    for &(col, value) in assignments {
        let meta = table
            .schema()
            .columns()
            .get(col)
            .ok_or_else(|| DbError::UnknownColumn(format!("#{col}")))?;
        if value >= meta.cardinality() {
            return Err(DbError::ValueOutOfRange {
                column: meta.name().to_string(),
                value,
                cardinality: meta.cardinality(),
            });
        }
    }
    let mut rewritten = Table::new(table.schema().clone());
    let mut changed = 0;
    let mut new_row: Vec<Code> = Vec::with_capacity(table.schema().arity());
    for (_, row) in table.scan(stats) {
        if pred.eval(row) {
            new_row.clear();
            new_row.extend_from_slice(row);
            for &(col, value) in assignments {
                new_row[col] = value;
            }
            if new_row[..] != *row {
                changed += 1;
                on_change(row, &new_row);
            }
            rewritten.insert_unchecked(&new_row);
        } else {
            rewritten.insert_unchecked(row);
        }
    }
    stats.add_pages_written(rewritten.npages());
    *table = rewritten;
    Ok(changed)
}

/// Data codes of the DML fixtures are `0..DML_MARK`; `DML_MARK` is the one
/// code rows hold only where a case planted it.
const DML_MARK: Code = 4;
const DML_CARD: u16 = 5;

#[derive(Debug, Clone, Copy)]
enum Dml {
    Delete,
    Update,
}

/// One drawn table and the statement to run over it.
struct DmlCase {
    table: Table,
    pred: Pred,
    assignments: Vec<(usize, Code)>,
}

/// A table of arity 1–40 (a page holds 4096 rows or 102) over zero to five
/// pages with the last one absent, a single row, full or ragged; a
/// predicate that is `True`, `False`, a conjunction, an `Or` the router
/// takes apart or one it hands to its interpreter list — or that picks out
/// planted rows: none, the first, the last, a whole page, every row, a
/// sprinkle; and one or two assignments, as likely as not to the column
/// the predicate reads and sometimes to values already in place.
fn dml_case(seed: u64) -> DmlCase {
    let mut rng = Rng(seed ^ 0xd311_e7e5);
    let arity = 1 + rng.below(40);
    let per_page = Page::capacity_rows(arity);
    let tail = match rng.below(4) {
        0 => 0,
        1 => 1,
        2 => per_page,
        _ => 1 + rng.below(per_page - 1),
    };
    let nrows = rng.below(5) * per_page + tail;
    let mut rows: Vec<Vec<Code>> = (0..nrows)
        .map(|_| (0..arity).map(|_| rng.below(4) as Code).collect())
        .collect();

    let atom = |rng: &mut Rng| {
        let (col, value) = (rng.below(arity), rng.below(4) as Code);
        if rng.below(3) == 0 {
            Pred::NotEq { col, value }
        } else {
            Pred::Eq { col, value }
        }
    };
    let conjunction =
        |rng: &mut Rng| Pred::And((0..1 + rng.below(2)).map(|_| atom(&mut *rng)).collect());
    let mark_col = rng.below(arity);
    let marked = Pred::Eq {
        col: mark_col,
        value: DML_MARK,
    };
    let planted: Vec<usize> = match rng.below(12) {
        0 => vec![],
        1 => vec![0],
        2 => vec![nrows.saturating_sub(1)],
        3 => {
            let page = rng.below(nrows.div_ceil(per_page).max(1));
            (page * per_page..(page + 1) * per_page).collect()
        }
        4 => (0..nrows).collect(),
        5 => (0..nrows).filter(|_| rng.below(50) == 0).collect(),
        _ => vec![],
    };
    let pred = match rng.below(12) {
        0..=5 => match rng.below(3) {
            0 => marked,
            1 => Pred::Or(vec![Pred::False, marked]),
            _ => Pred::And(vec![Pred::And(vec![marked]), Pred::True]),
        },
        6 => Pred::True,
        7 => Pred::False,
        8 => atom(&mut rng),
        9 => conjunction(&mut rng),
        10 => Pred::Or(vec![conjunction(&mut rng), conjunction(&mut rng)]),
        _ => Pred::Or(vec![
            conjunction(&mut rng),
            Pred::And(vec![Pred::Or(vec![atom(&mut rng), conjunction(&mut rng)])]),
        ]),
    };
    for &r in &planted {
        if let Some(row) = rows.get_mut(r) {
            row[mark_col] = DML_MARK;
        }
    }
    let assignments = (0..1 + rng.below(2))
        .map(|_| {
            let col = if rng.below(2) == 0 {
                mark_col
            } else {
                rng.below(arity)
            };
            (col, rng.below(usize::from(DML_CARD)) as Code)
        })
        .collect();

    let names: Vec<String> = (0..arity).map(|c| format!("c{c}")).collect();
    let cols: Vec<(&str, u16)> = names.iter().map(|n| (n.as_str(), DML_CARD)).collect();
    let mut table = Table::new(Schema::from_pairs(&cols));
    table.load(rows.iter().map(Vec::as_slice)).unwrap();
    DmlCase {
        table,
        pred,
        assignments,
    }
}

/// Run one statement over `table` — through `Table`'s page-at-a-time DML,
/// or through the row-at-a-time reference. What it returned, the images
/// its observer saw in the order it saw them (an update's old image, then
/// its new one), and what it charged.
fn run_dml(
    by_page: bool,
    dml: Dml,
    table: &mut Table,
    case: &DmlCase,
) -> (u64, Vec<Vec<Code>>, StatsSnapshot) {
    let stats = DbStats::new();
    let mut seen: Vec<Vec<Code>> = Vec::new();
    let (pred, set) = (&case.pred, &case.assignments[..]);
    let n = match (dml, by_page) {
        (Dml::Delete, true) => table.delete_where_with(pred, &stats, |row| seen.push(row.to_vec())),
        (Dml::Delete, false) => {
            delete_row_at_a_time(table, pred, &stats, |row| seen.push(row.to_vec()))
        }
        (Dml::Update, true) => table
            .update_where_with(pred, set, &stats, |old, new| {
                seen.extend([old.to_vec(), new.to_vec()])
            })
            .unwrap(),
        (Dml::Update, false) => update_row_at_a_time(table, pred, set, &stats, |old, new| {
            seen.extend([old.to_vec(), new.to_vec()])
        })
        .unwrap(),
    };
    (n, seen, stats.snapshot())
}

fn flat_rows(table: &Table) -> Vec<Code> {
    table.rows_unaccounted().flatten().copied().collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    /// `DELETE` and `UPDATE` that filter a page at a time and compact or
    /// assign in place are the statements that rewrote the heap a row at a
    /// time: the same rows left in the same order, the same images shown
    /// to the observer in the same order, the same count returned and the
    /// same charge — and a heap every page of which but the last is full,
    /// so that TIDs, inserts and a save/load round trip find the rows
    /// where the reference's fresh heap has them.
    #[test]
    fn page_at_a_time_dml_is_the_row_at_a_time_rewrite(seed in any::<u64>()) {
        let case = dml_case(seed);
        let arity = case.table.schema().arity();
        let per_page = Page::capacity_rows(arity) as u64;
        let path = std::env::temp_dir()
            .join(format!("scaleclass-props-{}-{seed:x}.db", std::process::id()));

        for dml in [Dml::Delete, Dml::Update] {
            let (mut table, mut reference) = (case.table.clone(), case.table.clone());
            let got = run_dml(true, dml, &mut table, &case);
            let expect = run_dml(false, dml, &mut reference, &case);
            prop_assert_eq!(&got, &expect, "{:?} where {:?}", dml, &case.pred);
            let (n, seen, _) = expect;

            // The heap: rows, shape, TIDs, and where the next insert lands.
            let stats = DbStats::new();
            for grown in [false, true] {
                if grown {
                    let row = vec![DML_MARK; arity];
                    table.insert(&row).unwrap();
                    reference.insert(&row).unwrap();
                    let tail = table.fetch_by_tid(Tid(table.nrows() - 1), &stats);
                    prop_assert_eq!(tail, Ok(&row[..]), "an insert lands at the tail");
                }
                prop_assert_eq!(flat_rows(&table), flat_rows(&reference));
                prop_assert_eq!(table.nrows(), reference.nrows());
                prop_assert_eq!(table.npages(), table.nrows().div_ceil(per_page));
                prop_assert_eq!(table.npages(), reference.npages());
                prop_assert_eq!(table.pages().len() as u64, table.npages());
                prop_assert!(table.pages().iter().all(|page| !page.is_empty()));
                let mut scanned = 0;
                for (tid, row) in table.scan(&stats) {
                    prop_assert_eq!(tid, Tid(scanned));
                    prop_assert_eq!(table.fetch_by_tid(tid, &stats), Ok(row));
                    scanned += 1;
                }
                prop_assert_eq!(scanned, table.nrows());
                prop_assert!(table.fetch_by_tid(Tid(scanned), &stats).is_err());
            }

            // Through the catalog: the delta log, the epoch and the TID
            // sets follow what the reference's observer saw, and the
            // table a snapshot reloads is the reference's.
            let mut db = Database::new();
            db.register_table("t", case.table.clone()).unwrap();
            db.enable_delta_log("t").unwrap();
            let tids = db.create_tid_set("t", &Pred::True).unwrap();
            let mut log = DeltaLog::new();
            let done = match dml {
                Dml::Delete => {
                    seen.iter().for_each(|row| log.record(DeltaSign::Delete, row));
                    db.delete_where("t", &case.pred)
                }
                Dml::Update => {
                    for pair in seen.chunks_exact(2) {
                        log.record(DeltaSign::Delete, &pair[0]);
                        log.record(DeltaSign::Insert, &pair[1]);
                    }
                    db.update_where("t", &case.pred, &case.assignments)
                }
            };
            prop_assert_eq!(done, Ok(n));
            prop_assert_eq!(db.take_deltas("t"), log.take());
            prop_assert_eq!(db.table_epoch("t"), u64::from(n > 0));
            prop_assert_eq!(db.tid_set(&tids).is_err(), n > 0);
            save_database(&db, &path).unwrap();
            let loaded = open_database(&path);
            std::fs::remove_file(&path).unwrap();
            let loaded = loaded.unwrap();
            reference = case.table.clone();
            run_dml(false, dml, &mut reference, &case);
            let reloaded = loaded.table("t").unwrap();
            prop_assert_eq!(flat_rows(reloaded), flat_rows(&reference));
            prop_assert_eq!(reloaded.npages(), reference.npages());
        }

        // A rejected assignment leaves the table and the counters alone.
        let mut table = case.table.clone();
        let stats = DbStats::new();
        let bad_value = table.update_where(&case.pred, &[(0, 0), (arity - 1, DML_CARD)], &stats);
        prop_assert!(matches!(bad_value, Err(DbError::ValueOutOfRange { .. })));
        let bad_column = table.update_where(&case.pred, &[(arity, 0)], &stats);
        prop_assert!(matches!(bad_column, Err(DbError::UnknownColumn(_))));
        prop_assert_eq!(flat_rows(&table), flat_rows(&case.table));
        prop_assert_eq!(stats.snapshot(), StatsSnapshot::default());
    }
}
