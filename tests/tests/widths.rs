//! A memory set stores each code in the width the table's range
//! certificate allows (DESIGN.md §8): one byte while every column is
//! bounded by 255, two little-endian otherwise. Whichever width a set
//! takes, what a build counts from it is what the server counts, and the
//! budget is charged what the set holds.

use scaleclass::staging::{CodeWidth, StagedRows};
use scaleclass::{
    CcRequest, DataLocation, FileStagingPolicy, Lineage, Middleware, MiddlewareConfig, NodeId,
};
use scaleclass_dtree::{grow_with_middleware, trees_structurally_equal, GrowConfig};
use scaleclass_sqldb::{Code, Pred};
use scaleclass_tests::{brute_force_cc, client, load, schema_for, AMPLE_BUDGET};

/// Cardinalities of [`table`]'s columns: `a0`, `a1`, `a2`, then the class.
const CARDS: [u16; 4] = [4, 300, 3, 2];

/// `rows` rows over [`CARDS`] whose class follows `a0 + a2` but on one row
/// in five, `a1` drawn over all 300 values; with `past`, one more row whose
/// `a2` holds code 65 535, stored as given.
fn table(rows: usize, past: bool) -> Vec<Code> {
    let mut state = 0x9e37_79b9_7f4a_7c15u64;
    let mut draw = |card: u16| {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        (state % u64::from(card)) as Code
    };
    let mut flat = Vec::with_capacity((rows + 1) * CARDS.len());
    for _ in 0..rows {
        let (a0, a1, a2) = (draw(CARDS[0]), draw(CARDS[1]), draw(CARDS[2]));
        let class = match draw(5) {
            0 => draw(CARDS[3]),
            _ => (a0 + a2) % CARDS[3],
        };
        flat.extend([a0, a1, a2, class]);
    }
    if past {
        flat.extend([1, 299, Code::MAX, 0]);
    }
    flat
}

/// A session over `flat`, caching on or off, files off, ample budget.
fn session(flat: &[Code], caching: bool) -> Middleware {
    let cfg = MiddlewareConfig::builder()
        .memory_budget_bytes(AMPLE_BUDGET)
        .memory_caching(caching)
        .file_policy(FileStagingPolicy::Disabled)
        .build();
    Middleware::new(load(&schema_for(&CARDS), flat), "d", "class", cfg).unwrap()
}

/// The memory set `lineage`'s requests read now: its id, width and bytes.
fn memory_set(mw: &Middleware, lineage: &Lineage) -> (u64, CodeWidth, u64) {
    let DataLocation::Memory(id) = mw.staging().best_location(lineage) else {
        panic!("no memory set holds {lineage:?}");
    };
    let set = mw.staging().set(id).unwrap();
    let StagedRows::Memory(rows) = &set.rows else {
        panic!("set {id} is a file");
    };
    assert_eq!(
        set.bytes(),
        rows.len_bytes() as u64,
        "charged what it holds"
    );
    (id, rows.width(), set.bytes())
}

/// A request for the rows `pred` selects under `parent`, over every
/// attribute.
fn child(parent: &Lineage, id: u64, pred: Pred, rows: u64) -> CcRequest {
    CcRequest {
        lineage: parent.child(NodeId(id), pred),
        attrs: vec![0, 1, 2],
        class_col: 3,
        rows,
        parent_rows: rows,
        parent_cards: CARDS[..3].iter().map(|&c| u64::from(c)).collect(),
    }
}

/// A table with a 300-valued column, and one holding code 65 535: its
/// root's set stores two bytes a code and is charged for them, and the
/// build's tables and tree are those of the server-scan reference.
#[test]
fn two_byte_sets_count_what_the_server_counts() {
    for past in [false, true] {
        let flat = table(2_000, past);
        let nrows = (flat.len() / CARDS.len()) as u64;

        let mut mw = session(&flat, true);
        let root = mw.root_request(NodeId(0));
        let lineage = root.lineage.clone();
        mw.enqueue(root).unwrap();
        mw.process_next_batch().unwrap();
        let (_, width, bytes) = memory_set(&mw, &lineage);
        assert_eq!(width, CodeWidth::Two, "past {past}");
        assert_eq!(bytes, nrows * 4 * 2, "past {past}");
        assert_eq!(mw.staged_mem_bytes(), bytes);
        mw.assert_shadow_accounting();

        let cached = client::grow(&mut session(&flat, true), true, |_| ()).unwrap();
        let server = client::grow(&mut session(&flat, false), true, |_| ()).unwrap();
        assert!(
            cached.stats.memory_scans > 0,
            "past {past}: the sets were read"
        );
        assert_eq!(server.stats.memory_scans, 0);
        assert!(
            trees_structurally_equal(&cached.tree, &server.tree),
            "past {past}"
        );
        assert_eq!(cached.counted, server.counted, "past {past}");
        for (id, c) in &cached.counted {
            let brute = brute_force_cc(&flat, CARDS.len(), &c.pred, &c.attrs);
            assert!(c.cc == brute, "past {past}: node {id}");
        }
    }
}

/// An insert that raises the certificate past 255 between batches: the
/// set staged before it keeps its one byte a code and scans as it did,
/// and the next set staged is two bytes wide.
#[test]
fn a_widening_insert_leaves_one_byte_sets_scanning_and_widens_the_next() {
    // Every stored `a1` is under 256 until the insert.
    let mut flat = table(1_000, false);
    for row in flat.chunks_exact_mut(CARDS.len()) {
        row[1] %= 256;
    }
    let mut mw = session(&flat, true);
    let root = mw.root_request(NodeId(0));
    let lineage = root.lineage.clone();
    mw.enqueue(root).unwrap();
    mw.process_next_batch().unwrap();
    let (old, width, bytes) = memory_set(&mw, &lineage);
    assert_eq!(width, CodeWidth::One);
    assert_eq!(bytes, 1_000 * 4);

    let wide = [2, 299, 1, 1];
    mw.insert_row(&wide).unwrap();
    assert_eq!(mw.backend().mem_width(), CodeWidth::Two);

    // The root's children read the one-byte set, staged before the insert,
    // and count the rows it holds.
    for v in 0..4 {
        let pred = Pred::Eq { col: 0, value: v };
        mw.enqueue(child(&lineage, 1 + u64::from(v), pred, 250))
            .unwrap();
    }
    let children = mw.process_next_batch().unwrap();
    assert_eq!(children.len(), 4);
    for f in &children {
        assert_eq!(f.source, DataLocation::Memory(old));
        let pred = Pred::Eq {
            col: 0,
            value: (f.node.0 - 1) as Code,
        };
        assert!(*f.cc == brute_force_cc(&flat, CARDS.len(), &pred, &[0, 1, 2]));
    }
    mw.assert_shadow_accounting();

    // A fresh root, read from the server: the old set is flushed, and the
    // one staged now takes two bytes a code, the inserted row included.
    flat.extend(wide);
    let fresh = mw.root_request(NodeId(100));
    let fresh_lineage = fresh.lineage.clone();
    mw.enqueue(fresh).unwrap();
    let out = mw.process_next_batch().unwrap();
    assert_eq!(out[0].source, DataLocation::Server);
    assert!(*out[0].cc == brute_force_cc(&flat, CARDS.len(), &Pred::True, &[0, 1, 2]));
    assert!(mw.staging().set(old).is_none(), "the old set was flushed");
    let (new, width, bytes) = memory_set(&mw, &fresh_lineage);
    assert_ne!(new, old);
    assert_eq!((width, bytes), (CodeWidth::Two, 1_001 * 4 * 2));
    assert_eq!(mw.staged_mem_bytes(), bytes);
    mw.assert_shadow_accounting();
}

/// §4.2.2: once a staged subtree is expanded its data is flushed — the
/// last one's too, though no batch follows it. A finished build holds no
/// memory set: every set it created, it evicted.
#[test]
fn a_finished_build_holds_no_memory_set() {
    let flat = table(2_000, false);
    let mut mw = session(&flat, true);
    grow_with_middleware(&mut mw, &GrowConfig::default()).unwrap();
    let stats = mw.stats();
    assert!(stats.memory_sets_created > 0);
    assert_eq!(mw.staged_mem_bytes(), 0);
    assert_eq!(stats.memory_sets_evicted, stats.memory_sets_created);
    assert_eq!(mw.staging().count(scaleclass::staging::Tier::Memory), 0);
}
