//! Property-based tests over the full stack: random small data sets and
//! predicates, cross-checked between the scan-counting path, the SQL
//! executor, and the in-memory reference.

use proptest::prelude::*;
use scaleclass::sqlgen::{cc_query_sql, cc_via_sql};
use scaleclass::{CountsTable, Middleware, MiddlewareConfig, NodeId};
use scaleclass_dtree::{
    grow_in_memory, grow_with_middleware, trees_structurally_equal, GrowConfig,
};
use scaleclass_sqldb::{execute, Code, Database, Pred};
use scaleclass_tests::{brute_force_cc, schema_for};

/// A random small categorical data set: 2–4 attributes (cardinality 2–4),
/// a class column (cardinality 2–3), and up to 120 rows.
fn dataset() -> impl Strategy<Value = (Vec<u16>, Vec<Code>)> {
    // cards: per-attribute cardinalities, last entry is the class.
    (
        prop::collection::vec(2u16..=4, 2..=4),
        2u16..=3,
        1usize..=120,
    )
        .prop_flat_map(|(attr_cards, class_card, nrows)| {
            let mut cards = attr_cards;
            cards.push(class_card);
            let arity = cards.len();
            let row = cards.iter().map(|&c| 0u16..c).collect::<Vec<_>>();
            (
                Just(cards),
                prop::collection::vec(row, nrows).prop_map(move |rows| {
                    let mut flat = Vec::with_capacity(rows.len() * arity);
                    for r in rows {
                        flat.extend(r);
                    }
                    flat
                }),
            )
        })
}

fn db_for(cards: &[u16], flat: &[Code]) -> Database {
    scaleclass_datagen::into_database(schema_for(cards), flat, "d")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The SQL executor's UNION-of-GROUP-BY counting agrees with brute
    /// force on arbitrary data and predicates.
    #[test]
    fn sql_counting_matches_brute_force(
        (cards, flat) in dataset(),
        seed in any::<u64>(),
    ) {
        let arity = cards.len();
        let pred = {
            // derive a deterministic predicate from the seed
            let col = (seed as usize) % (arity - 1);
            let value = ((seed >> 8) as u16) % cards[col];
            if seed & 1 == 0 { Pred::Eq { col, value } } else { Pred::NotEq { col, value } }
        };
        let attrs: Vec<u16> = (0..(arity - 1) as u16).collect();
        let db = db_for(&cards, &flat);
        let via_sql = cc_via_sql(&db, "d", &pred, &attrs, (arity - 1) as u16).unwrap();
        let brute = brute_force_cc(&flat, arity, &pred, &attrs);
        prop_assert_eq!(via_sql, brute);
    }

    /// The middleware's scan counting agrees with brute force at the root.
    #[test]
    fn middleware_root_counts_match_brute_force((cards, flat) in dataset()) {
        let arity = cards.len();
        let attrs: Vec<u16> = (0..(arity - 1) as u16).collect();
        let db = db_for(&cards, &flat);
        let mut mw = Middleware::new(db, "d", "class", MiddlewareConfig::default()).unwrap();
        mw.enqueue(mw.root_request(NodeId(0))).unwrap();
        let got = mw.process_next_batch().unwrap().pop().unwrap().cc;
        let brute = brute_force_cc(&flat, arity, &Pred::True, &attrs);
        prop_assert_eq!(&*got, &brute);
    }

    /// Middleware-grown and in-memory-grown trees are identical on random
    /// data, even under a stressy configuration.
    #[test]
    fn trees_are_invariant_to_middleware((cards, flat) in dataset()) {
        let arity = cards.len();
        let attrs: Vec<u16> = (0..(arity - 1) as u16).collect();
        let grow = GrowConfig::default();
        let reference = grow_in_memory(&flat, arity, (arity - 1) as u16, &attrs, &grow);

        let cfg = MiddlewareConfig::builder()
            .memory_budget_bytes(2 * 1024)
            .memory_caching(true)
            .build();
        let db = db_for(&cards, &flat);
        let mut mw = Middleware::new(db, "d", "class", cfg).unwrap();
        let tree = grow_with_middleware(&mut mw, &grow).unwrap().tree;
        prop_assert!(trees_structurally_equal(&tree, &reference));
    }

    /// The generated CC SQL text parses and executes to the same counts the
    /// AST path produces (lexer/parser/executor round trip).
    #[test]
    fn cc_sql_text_round_trips((cards, flat) in dataset()) {
        let arity = cards.len();
        let attrs: Vec<u16> = (0..(arity - 1) as u16).collect();
        let mut db = db_for(&cards, &flat);
        let schema = db.table("d").unwrap().schema().clone();
        let pred = Pred::NotEq { col: 0, value: 0 };
        let sql = cc_query_sql("d", &schema, &pred, &attrs, (arity - 1) as u16);
        let mut rs = execute(&mut db, &sql).unwrap().into_rows().unwrap();
        rs.sort();

        // Rebuild a counts table from the result set and compare.
        let mut from_text = CountsTable::new();
        for row in &rs.rows {
            let attr_name = row[0].as_str().unwrap();
            let attr = schema.column_index(attr_name).unwrap() as u16;
            let value = row[1].as_int().unwrap() as Code;
            let class = row[2].as_int().unwrap() as Code;
            let n = row[3].as_int().unwrap();
            from_text.add_aggregate(attr, value, class, n);
        }
        if let Some(&first) = attrs.first() {
            from_text.set_totals_from_attr(first);
        }
        let brute = brute_force_cc(&flat, arity, &pred, &attrs);
        prop_assert_eq!(from_text, brute);
    }

    /// Predicate evaluation agrees with the SQL WHERE path: COUNT(*) via
    /// SQL equals a brute-force eval count.
    #[test]
    fn predicate_eval_matches_sql_where(
        (cards, flat) in dataset().prop_flat_map(|(cards, flat)| {
            (Just(cards), Just(flat))
        }),
        atoms in prop::collection::vec((0usize..3, any::<bool>(), any::<u16>()), 0..=3),
    ) {
        let arity = cards.len();
        let pred = Pred::and(
            atoms
                .into_iter()
                .map(|(col, eq, v)| {
                    let col = col % (arity - 1);
                    let value = v % cards[col];
                    if eq { Pred::Eq { col, value } } else { Pred::NotEq { col, value } }
                })
                .collect(),
        );
        let mut db = db_for(&cards, &flat);
        let schema = db.table("d").unwrap().schema().clone();
        let sql = format!("SELECT COUNT(*) FROM d WHERE {}", pred.to_sql(&schema));
        let rs = execute(&mut db, &sql).unwrap().into_rows().unwrap();
        let via_sql = rs.rows[0][0].as_int().unwrap();
        let brute = flat.chunks_exact(arity).filter(|r| pred.eval(r)).count() as u64;
        prop_assert_eq!(via_sql, brute);
    }
}
