//! Property tests for the classification clients: measure bounds, split
//! conservation, growth sanity, pruning, rules, and discretization.

use proptest::prelude::*;
use scaleclass::CountsTable;
use scaleclass_dtree::split::{best_two_splits, score_split, ScoredSplit, Split};
use scaleclass_dtree::{
    best_split, decide, entropy, extract_rules, gini, grow_in_memory, load_tree, mdl_cut_points,
    prune_pessimistic, rules::RuleList, save_tree, tree_accuracy, Discretizer, GrowConfig, Scorer,
    SplitKind,
};
use scaleclass_sqldb::Code;

/// The reference scorer: `split.rs` as it stood before scoring moved onto
/// the counts table's value rows (PR 19), verbatim — one `score_split` per
/// candidate, each re-collecting the class distribution and the children's
/// class counts out of the table. The live scorer must reproduce its
/// scores bit for bit (`f64::to_bits`), ties and all.
mod reference {
    use super::{Code, CountsTable, ScoredSplit, Scorer, Split, SplitKind};

    fn entropy(counts: impl IntoIterator<Item = u64>) -> f64 {
        let counts: Vec<u64> = counts.into_iter().filter(|&c| c > 0).collect();
        let total: u64 = counts.iter().sum();
        if total == 0 {
            return 0.0;
        }
        let total = total as f64;
        counts
            .iter()
            .map(|&c| {
                let p = c as f64 / total;
                -p * p.log2()
            })
            .sum()
    }

    fn gini(counts: impl IntoIterator<Item = u64>) -> f64 {
        let counts: Vec<u64> = counts.into_iter().collect();
        let total: u64 = counts.iter().sum();
        if total == 0 {
            return 0.0;
        }
        let total = total as f64;
        1.0 - counts
            .iter()
            .map(|&c| {
                let p = c as f64 / total;
                p * p
            })
            .sum::<f64>()
    }

    fn impurity(scorer: Scorer, counts: &[u64]) -> f64 {
        match scorer {
            Scorer::Entropy | Scorer::GainRatio => entropy(counts.iter().copied()),
            Scorer::Gini => gini(counts.iter().copied()),
            Scorer::ChiSquare => 0.0, // chi-square is not impurity-based
        }
    }

    fn chi_square(children: &[Vec<u64>]) -> f64 {
        let nclasses = children.first().map_or(0, Vec::len);
        let total: u64 = children.iter().flatten().sum();
        if total == 0 || nclasses == 0 {
            return 0.0;
        }
        let class_totals: Vec<u64> = (0..nclasses)
            .map(|c| children.iter().map(|row| row[c]).sum())
            .collect();
        let mut chi2 = 0.0;
        for row in children {
            let row_total: u64 = row.iter().sum();
            for (c, &observed) in row.iter().enumerate() {
                let expected = row_total as f64 * class_totals[c] as f64 / total as f64;
                if expected > 0.0 {
                    let d = observed as f64 - expected;
                    chi2 += d * d / expected;
                }
            }
        }
        chi2
    }

    /// Class-count vectors of the children a split induces, derived purely from
    /// the CC table. Classes are aligned with `cc.class_distribution()` order.
    fn children_class_counts(cc: &CountsTable, split: &Split) -> Vec<Vec<u64>> {
        let classes: Vec<(Code, u64)> = cc.class_distribution().collect();
        let class_pos = |c: Code| classes.iter().position(|&(cc_, _)| cc_ == c);
        match split {
            Split::Binary { attr, value } => {
                let mut left = vec![0u64; classes.len()];
                for (v, class, n) in cc.attr_vector(*attr) {
                    if v == *value {
                        if let Some(i) = class_pos(class) {
                            left[i] += n;
                        }
                    }
                }
                let right: Vec<u64> = classes
                    .iter()
                    .enumerate()
                    .map(|(i, &(_, total))| total - left[i])
                    .collect();
                vec![left, right]
            }
            Split::Multiway { attr, values } => {
                let mut children = vec![vec![0u64; classes.len()]; values.len()];
                for (v, class, n) in cc.attr_vector(*attr) {
                    if let (Some(ci), Some(pos)) =
                        (values.iter().position(|&x| x == v), class_pos(class))
                    {
                        children[ci][pos] += n;
                    }
                }
                children
            }
        }
    }

    /// Score one candidate split against a node's CC table. Returns `None`
    /// when the split is degenerate (an empty child).
    pub fn score_split(cc: &CountsTable, split: &Split, scorer: Scorer) -> Option<ScoredSplit> {
        let total = cc.total();
        if total == 0 {
            return None;
        }
        let parent_counts: Vec<u64> = cc.class_distribution().map(|(_, n)| n).collect();
        let children = children_class_counts(cc, split);
        let child_totals: Vec<u64> = children.iter().map(|c| c.iter().sum()).collect();
        if child_totals.contains(&0) {
            return None;
        }
        let parent_impurity = impurity(scorer, &parent_counts);
        let weighted: f64 = children
            .iter()
            .zip(&child_totals)
            .map(|(counts, &t)| (t as f64 / total as f64) * impurity(scorer, counts))
            .sum();
        let gain = parent_impurity - weighted;
        let score = match scorer {
            Scorer::Entropy | Scorer::Gini => gain,
            Scorer::GainRatio => {
                let split_info = entropy(child_totals.iter().copied());
                if split_info <= f64::EPSILON {
                    return None;
                }
                gain / split_info
            }
            Scorer::ChiSquare => chi_square(&children),
        };
        Some(ScoredSplit {
            split: split.clone(),
            score,
        })
    }

    fn present_values(cc: &CountsTable, attr: u16) -> Vec<Code> {
        let mut vs: Vec<Code> = cc.attr_vector(attr).map(|(v, _, _)| v).collect();
        vs.dedup();
        vs
    }

    /// The candidates `best_split` scored, in its order; `dedup_mirrors`
    /// gives `best_two_splits`' list instead.
    fn candidates(
        cc: &CountsTable,
        attrs: &[u16],
        kind: SplitKind,
        dedup_mirrors: bool,
    ) -> Vec<Split> {
        let mut out = Vec::new();
        for &attr in attrs {
            let values = present_values(cc, attr);
            if values.len() < 2 {
                continue; // single-valued attribute cannot split
            }
            match kind {
                SplitKind::Binary => {
                    // Two values → mirror partitions; enumerate one.
                    let distinct = if dedup_mirrors && values.len() == 2 {
                        &values[..1]
                    } else {
                        &values[..]
                    };
                    out.extend(distinct.iter().map(|&value| Split::Binary { attr, value }));
                }
                SplitKind::Multiway => out.push(Split::Multiway { attr, values }),
            }
        }
        out
    }

    pub fn best_split(
        cc: &CountsTable,
        attrs: &[u16],
        kind: SplitKind,
        scorer: Scorer,
    ) -> Option<ScoredSplit> {
        let mut best: Option<ScoredSplit> = None;
        for split in candidates(cc, attrs, kind, false) {
            let Some(cand) = score_split(cc, &split, scorer) else {
                continue;
            };
            let better = match &best {
                None => true,
                Some(b) => cand.score > b.score + 1e-12,
            };
            if better {
                best = Some(cand);
            }
        }
        best
    }

    pub fn best_two_splits(
        cc: &CountsTable,
        attrs: &[u16],
        kind: SplitKind,
        scorer: Scorer,
    ) -> Option<(ScoredSplit, Option<f64>)> {
        let mut best: Option<ScoredSplit> = None;
        let mut runner: Option<f64> = None;
        for split in candidates(cc, attrs, kind, true) {
            let Some(cand) = score_split(cc, &split, scorer) else {
                continue;
            };
            let better = match &best {
                None => true,
                Some(b) => cand.score > b.score + 1e-12,
            };
            if better {
                if let Some(b) = best.take() {
                    runner = Some(runner.map_or(b.score, |r: f64| r.max(b.score)));
                }
                best = Some(cand);
            } else {
                runner = Some(runner.map_or(cand.score, |r: f64| r.max(cand.score)));
            }
        }
        best.map(|b| (b, runner))
    }
}

fn rows_strategy() -> impl Strategy<Value = Vec<Code>> {
    prop::collection::vec((0u16..4, 0u16..3, 0u16..2), 1..150)
        .prop_map(|rows| rows.into_iter().flat_map(|(a, b, c)| [a, b, c]).collect())
}

const ARITY: usize = 3;
const CLASS: u16 = 2;
const ATTRS: [u16; 2] = [0, 1];

fn cc_of(flat: &[Code]) -> CountsTable {
    let mut cc = CountsTable::new();
    for row in flat.chunks_exact(ARITY) {
        cc.add_row(row, &ATTRS, CLASS);
    }
    cc
}

const SCORERS: [Scorer; 4] = [
    Scorer::Entropy,
    Scorer::Gini,
    Scorer::GainRatio,
    Scorer::ChiSquare,
];
const KINDS: [SplitKind; 2] = [SplitKind::Binary, SplitKind::Multiway];

/// A random node: per-attribute cardinalities (1–6, so single- and
/// two-valued attributes occur), a class count (1–5) and its rows, each
/// `[attr values.., class]`. Few rows over many cells leave classes and
/// values absent.
fn node_strategy() -> impl Strategy<Value = (Vec<u16>, u16, Vec<Vec<Code>>)> {
    (prop::collection::vec(1u16..=6, 1..=6), 1u16..=5).prop_flat_map(|(cards, n_classes)| {
        let row: Vec<std::ops::Range<u16>> = cards
            .iter()
            .map(|&card| 0..card)
            .chain(std::iter::once(0..n_classes))
            .collect();
        let rows = prop::collection::vec(row, 1..60);
        (Just(cards), Just(n_classes), rows)
    })
}

/// The same rows counted five ways: sparse; dense; dense with two phantom
/// rows of an extra class counted and removed again (a class total back at
/// zero, its slots zero); dense over a layout one value short on
/// attribute 0 (spills to sparse mid-build when that value occurs); and
/// sparse with the same phantom rows.
fn tables_of(cards: &[u16], n_classes: u16, rows: &[Vec<Code>]) -> Vec<CountsTable> {
    let attrs: Vec<u16> = (0..cards.len() as u16).collect();
    let class_col = cards.len() as u16;
    let layout = |shrink: u64| -> Vec<(u16, u64)> {
        attrs
            .iter()
            .map(|&a| {
                let card = u64::from(cards[a as usize]) + 1;
                (a, if a == 0 { card - shrink } else { card })
            })
            .collect()
    };
    let fill = |mut cc: CountsTable, phantoms: bool| {
        let mut phantom = rows[0].clone();
        phantom[class_col as usize] = n_classes;
        for row in rows.iter().chain(
            phantoms
                .then_some([&phantom, &phantom])
                .into_iter()
                .flatten(),
        ) {
            cc.add_row(row, &attrs, class_col);
        }
        for _ in 0..2 * usize::from(phantoms) {
            assert!(cc.remove_row(&phantom, &attrs, class_col));
        }
        cc
    };
    let classes = u64::from(n_classes) + 2;
    let dense = fill(CountsTable::new_dense(&layout(0), classes), false);
    assert!(dense.is_dense());
    vec![
        fill(CountsTable::new(), false),
        dense,
        fill(CountsTable::new_dense(&layout(0), classes), true),
        fill(CountsTable::new_dense(&layout(2), classes), false),
        fill(CountsTable::new(), true),
    ]
}

fn bits(s: &Option<ScoredSplit>) -> Option<(Split, u64)> {
    s.as_ref().map(|s| (s.split.clone(), s.score.to_bits()))
}

proptest! {
    /// The bit-identity contract of `split.rs`: on sparse, dense, spilled
    /// and delete-patched twins of a random table, every candidate's
    /// score, `best_split` and `best_two_splits` equal the reference
    /// scorer's down to the last bit, and `decide` cannot tell the twins
    /// apart.
    #[test]
    fn scoring_is_bit_identical_to_the_reference((cards, n_classes, rows) in node_strategy()) {
        let tables = tables_of(&cards, n_classes, &rows);
        // Attribute 40 is in no layout and no row: it has no counts.
        let attrs: Vec<u16> = (0..cards.len() as u16).chain([40]).collect();
        for (t, cc) in tables.iter().enumerate() {
            prop_assert_eq!(cc, &tables[0], "table {} is not its sparse twin", t);
            for scorer in SCORERS {
                for &attr in &attrs {
                    let card = cards.get(attr as usize).copied().unwrap_or(1);
                    // Every value of the domain, and one outside it.
                    for value in 0..=card {
                        let split = Split::Binary { attr, value };
                        prop_assert_eq!(
                            bits(&score_split(cc, &split, scorer)),
                            bits(&reference::score_split(cc, &split, scorer)),
                            "table {} {:?} {:?}", t, scorer, split
                        );
                    }
                    let mut values: Vec<Code> = cc.attr_vector(attr).map(|(v, _, _)| v).collect();
                    values.dedup();
                    for extra in [None, Some(card)] {
                        // All present values; then one absent value too.
                        values.extend(extra);
                        let split = Split::Multiway { attr, values: values.clone() };
                        prop_assert_eq!(
                            bits(&score_split(cc, &split, scorer)),
                            bits(&reference::score_split(cc, &split, scorer)),
                            "table {} {:?} {:?}", t, scorer, split
                        );
                    }
                }
                for kind in KINDS {
                    prop_assert_eq!(
                        bits(&best_split(cc, &attrs, kind, scorer)),
                        bits(&reference::best_split(cc, &attrs, kind, scorer)),
                        "table {} best_split {:?}/{:?}", t, scorer, kind
                    );
                    let two = best_two_splits(cc, &attrs, kind, scorer);
                    let expect = reference::best_two_splits(cc, &attrs, kind, scorer);
                    prop_assert_eq!(
                        two.map(|(best, runner)| (bits(&Some(best)), runner.map(f64::to_bits))),
                        expect.map(|(best, runner)| (bits(&Some(best)), runner.map(f64::to_bits))),
                        "table {} best_two_splits {:?}/{:?}", t, scorer, kind
                    );
                    let config = GrowConfig { scorer, split_kind: kind, ..GrowConfig::default() };
                    prop_assert_eq!(
                        decide(cc, &attrs, 0, &config),
                        decide(&tables[0], &attrs, 0, &config),
                        "table {} decide {:?}/{:?}", t, scorer, kind
                    );
                }
            }
        }
    }
}

proptest! {
    /// Entropy and Gini stay within their theoretical bounds and are
    /// permutation invariant.
    #[test]
    fn impurity_bounds(counts in prop::collection::vec(0u64..1000, 1..8)) {
        let k = counts.iter().filter(|&&c| c > 0).count().max(1) as f64;
        let h = entropy(counts.iter().copied());
        let g = gini(counts.iter().copied());
        prop_assert!(h >= -1e-12 && h <= k.log2() + 1e-9, "entropy {h} vs k {k}");
        prop_assert!(g >= -1e-12 && g <= 1.0 - 1.0 / k + 1e-9, "gini {g}");
        let mut shuffled = counts.clone();
        shuffled.reverse();
        prop_assert!((entropy(shuffled.iter().copied()) - h).abs() < 1e-12);
    }

    /// Any best split has non-negative gain bounded by the parent
    /// impurity, for every scorer and split kind.
    #[test]
    fn best_split_gain_is_bounded(flat in rows_strategy()) {
        let cc = cc_of(&flat);
        let parent_h = entropy(cc.class_distribution().map(|(_, n)| n));
        for scorer in [Scorer::Entropy, Scorer::Gini, Scorer::GainRatio] {
            for kind in [SplitKind::Binary, SplitKind::Multiway] {
                if let Some(s) = best_split(&cc, &ATTRS, kind, scorer) {
                    prop_assert!(s.score >= -1e-12, "{scorer:?}/{kind:?}: {}", s.score);
                    if scorer == Scorer::Entropy {
                        prop_assert!(s.score <= parent_h + 1e-9);
                    }
                }
            }
        }
    }

    /// Grown trees classify at least as well as the majority baseline on
    /// their own training data, and never worse than chance.
    #[test]
    fn training_accuracy_beats_majority(flat in rows_strategy()) {
        let tree = grow_in_memory(&flat, ARITY, CLASS, &ATTRS, &GrowConfig::default());
        let acc = tree_accuracy(&tree, &flat, ARITY, CLASS);
        let n = (flat.len() / ARITY) as f64;
        let majority = {
            let ones = flat.chunks_exact(ARITY).filter(|r| r[2] == 1).count() as f64;
            ones.max(n - ones) / n
        };
        prop_assert!(acc + 1e-12 >= majority, "acc {acc} < majority {majority}");
    }

    /// Pruning never enlarges the tree, never leaves orphans, and never
    /// changes the root's majority prediction.
    #[test]
    fn pruning_invariants(flat in rows_strategy()) {
        let tree = grow_in_memory(&flat, ARITY, CLASS, &ATTRS, &GrowConfig::default());
        let pruned = prune_pessimistic(&tree);
        prop_assert!(pruned.len() <= tree.len());
        prop_assert!(!pruned.is_empty());
        for n in pruned.nodes() {
            if let Some(p) = n.parent {
                prop_assert!(pruned.node(p).children.contains(&n.id));
            }
            for &c in &n.children {
                prop_assert_eq!(pruned.node(c).parent, Some(n.id));
            }
        }
        prop_assert_eq!(
            pruned.root().unwrap().majority_class(),
            tree.root().unwrap().majority_class()
        );
    }

    /// The extracted rule list classifies exactly like the tree, over the
    /// whole input domain (not just training rows).
    #[test]
    fn rules_equal_tree_classification(flat in rows_strategy()) {
        let tree = grow_in_memory(&flat, ARITY, CLASS, &ATTRS, &GrowConfig::default());
        let rules: RuleList = extract_rules(&tree);
        for a in 0..4u16 {
            for b in 0..3u16 {
                let row = [a, b, 0];
                prop_assert_eq!(rules.classify(&row), tree.classify(&row));
            }
        }
        // rule supports partition the training data
        let total: u64 = rules.rules.iter().map(|r| r.support).sum();
        prop_assert_eq!(total, (flat.len() / ARITY) as u64);
    }

    /// Serialized models round-trip exactly for arbitrary grown trees.
    #[test]
    fn model_io_round_trips(flat in rows_strategy()) {
        use scaleclass_dtree::trees_structurally_equal;
        let tree = grow_in_memory(&flat, ARITY, CLASS, &ATTRS, &GrowConfig::default());
        let mut buf = Vec::new();
        save_tree(&tree, &mut buf).unwrap();
        let loaded = load_tree(&buf[..]).unwrap();
        prop_assert!(trees_structurally_equal(&tree, &loaded));
        for a in 0..4u16 {
            for b in 0..3u16 {
                prop_assert_eq!(tree.classify(&[a, b, 0]), loaded.classify(&[a, b, 0]));
            }
        }
    }

    /// MDL cut points always lie strictly inside the observed value range
    /// and are strictly increasing.
    #[test]
    fn mdl_cuts_well_formed(
        pairs in prop::collection::vec((-100.0f64..100.0, 0u16..3), 2..120)
    ) {
        let values: Vec<f64> = pairs.iter().map(|&(v, _)| v).collect();
        let classes: Vec<Code> = pairs.iter().map(|&(_, c)| c).collect();
        let cuts = mdl_cut_points(&values, &classes);
        let lo = values.iter().cloned().fold(f64::INFINITY, f64::min);
        let hi = values.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        for w in cuts.windows(2) {
            prop_assert!(w[0] < w[1], "cuts not increasing: {cuts:?}");
        }
        for &c in &cuts {
            prop_assert!(c > lo && c < hi, "cut {c} outside ({lo}, {hi})");
        }
    }

    /// The fitted discretizer produces codes within its declared
    /// cardinalities for any row in (or out of) the training range.
    #[test]
    fn discretizer_codes_in_range(
        rows in prop::collection::vec((-50.0f64..50.0, -50.0f64..50.0, 0u16..2), 4..80),
        probe in (-200.0f64..200.0, -200.0f64..200.0),
    ) {
        let flat: Vec<f64> = rows.iter().flat_map(|&(x, y, _)| [x, y]).collect();
        let classes: Vec<Code> = rows.iter().map(|&(_, _, c)| c).collect();
        let disc = Discretizer::fit_mdl(&flat, 2, &classes, 5);
        let cards = disc.cardinalities();
        let coded = disc.transform_row(&[probe.0, probe.1]);
        for (code, card) in coded.iter().zip(&cards) {
            prop_assert!(code < card, "code {code} exceeds cardinality {card}");
        }
    }
}
