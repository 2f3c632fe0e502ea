//! Split scoring from CC tables.
//!
//! Everything here consumes only a [`CountsTable`] — never data rows —
//! which is the paper's Observation 1 in action. Supported measures: the
//! entropy/information-gain measure of ID3/CART used in the paper's
//! experiments (§3.1), plus Gini (CART) and gain ratio (C4.5), which the
//! paper notes its scheme supports equally.
//!
//! A CC table *is* the contingency table a split measure is defined on, so
//! candidates are scored where the counting kernel left the counts
//! (DESIGN.md §12a): [`CountsTable::value_rows`] hands out each value's
//! class counts as one row over a fixed class axis, and one enumeration,
//! `rank_splits`, serves [`best_split`], [`best_two_splits`] and the
//! grower's decisions. It takes the class axis, the parent row, its
//! impurity and two scratch rows once per node; the present-value count
//! and one walk of the rows once per attribute; and per candidate only
//! `left = row`, `right = parent − row` and two child impurities —
//! allocating nothing, and building a [`Split`] only for a candidate that
//! takes the lead.
//!
//! **Bit-identity.** The winner is picked with a `1e-12` tie-break, so a
//! score that moves in its last bit can flip a tie, change the tree and
//! with it every I/O counter downstream. Scores therefore keep one
//! operation order: classes ascending, zero counts skipped where
//! [`entropy`] skips them, children in `[=, ≠]` / ascending-value order,
//! `(t/total)·impurity` summed in that order, then `parent − weighted`;
//! candidates rank over attributes in slice order, values ascending.
//! `tests/props.rs` keeps the scorer this replaced as the reference and
//! demands `f64::to_bits` equality with it.

use scaleclass::{ClassAxis, CountsTable, ValueRows};
use scaleclass_sqldb::Code;

/// Impurity / selection measure.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Scorer {
    /// Information gain over entropy (ID3; the paper's experiments).
    #[default]
    Entropy,
    /// Gini index reduction (CART).
    Gini,
    /// Gain ratio (C4.5): information gain normalized by split information.
    GainRatio,
    /// Chi-square statistic of the (child × class) contingency table
    /// (CHAID-style). Scores are not comparable across measures, only
    /// within one grow.
    ChiSquare,
}

/// Candidate split shapes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SplitKind {
    /// Binary partitions `A = v` vs `A = other` (what the paper grows:
    /// "only binary trees were grown from the data").
    #[default]
    Binary,
    /// One child per observed value of the attribute.
    Multiway,
}

/// A concrete chosen split.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Split {
    /// Children: `attr = value` and `attr <> value`.
    Binary {
        /// Split attribute column.
        attr: u16,
        /// Split value.
        value: Code,
    },
    /// One child per listed (observed) value.
    Multiway {
        /// Split attribute column.
        attr: u16,
        /// Observed values, ascending (one child each).
        values: Vec<Code>,
    },
}

impl Split {
    /// The attribute this split tests.
    pub fn attr(&self) -> u16 {
        match self {
            Split::Binary { attr, .. } | Split::Multiway { attr, .. } => *attr,
        }
    }
}

/// One class's term of [`entropy`].
fn entropy_term(count: u64, total: f64) -> f64 {
    let p = count as f64 / total;
    -p * p.log2()
}

/// Entropy of a class-count distribution, in bits.
pub fn entropy(counts: impl IntoIterator<Item = u64, IntoIter: Clone>) -> f64 {
    let counts = counts.into_iter().filter(|&c| c > 0);
    let total: u64 = counts.clone().sum();
    if total == 0 {
        return 0.0;
    }
    let total = total as f64;
    counts.map(|c| entropy_term(c, total)).sum()
}

/// Gini impurity of a class-count distribution.
pub fn gini(counts: impl IntoIterator<Item = u64, IntoIter: Clone>) -> f64 {
    let counts = counts.into_iter();
    let total: u64 = counts.clone().sum();
    if total == 0 {
        return 0.0;
    }
    let total = total as f64;
    1.0 - counts
        .map(|c| {
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

/// Pearson chi-square statistic of a children × classes contingency table.
/// Zero when children and classes are independent; grows with association.
pub fn chi_square(children: &[Vec<u64>]) -> f64 {
    let nclasses = children.first().map_or(0, Vec::len);
    let total: u64 = children.iter().flatten().sum();
    if total == 0 || nclasses == 0 {
        return 0.0;
    }
    let class_totals: Vec<u64> = (0..nclasses)
        .map(|c| children.iter().map(|row| row[c]).sum())
        .collect();
    children
        .iter()
        .fold(0.0, |chi2, row| chi_row(chi2, row, &class_totals, total))
}

/// Add one child row's cells to a running chi-square statistic.
fn chi_row(mut chi2: f64, row: &[u64], class_totals: &[u64], total: u64) -> f64 {
    let row_total: u64 = row.iter().sum();
    for (&observed, &class_total) in row.iter().zip(class_totals) {
        let expected = row_total as f64 * class_total as f64 / total as f64;
        if expected > 0.0 {
            let d = observed as f64 - expected;
            chi2 += d * d / expected;
        }
    }
    chi2
}

/// A scored candidate split.
#[derive(Debug, Clone, PartialEq)]
pub struct ScoredSplit {
    /// The candidate split.
    pub split: Split,
    /// The selection score (higher is better).
    pub score: f64,
}

/// What scoring takes once per node: the class axis and the parent row
/// over it, with its impurity. Every attribute's rows partition the node
/// (a data row has one value per attribute), so a binary candidate's other
/// child is `parent − row` and a multiway candidate's children sum to the
/// parent.
struct Parent {
    scorer: Scorer,
    axis: ClassAxis,
    /// Rows per class over the axis.
    counts: Vec<u64>,
    /// `Σ counts`: rows at the node, the denominator of every weight.
    total: u64,
    impurity: f64,
}

/// The running score of one candidate, fed its children in order.
struct Tally {
    /// `Σ (t/total)·impurity(child)`.
    weighted: f64,
    /// Entropy of the child sizes (gain ratio's divisor).
    split_info: f64,
    chi2: f64,
}

impl Parent {
    /// `None` for an empty node, which admits no split.
    fn new(cc: &CountsTable, scorer: Scorer) -> Option<Parent> {
        let axis = cc.class_axis();
        let counts = cc.class_row(&axis);
        let total: u64 = counts.iter().sum();
        let impurity = impurity(scorer, &counts);
        (total > 0).then_some(Parent {
            scorer,
            axis,
            counts,
            total,
            impurity,
        })
    }

    /// A candidate with no child yet. The two sums start where
    /// `Iterator::sum::<f64>()` does (`-0.0` on current toolchains), so
    /// feeding children one by one equals `.sum()` over them down to the
    /// sign of a zero.
    fn tally(&self) -> Tally {
        let zero: f64 = std::iter::empty::<f64>().sum();
        Tally {
            weighted: zero,
            split_info: zero,
            chi2: 0.0,
        }
    }

    /// Add one child to a candidate's tally; `None` when it is empty.
    fn child(&self, tally: &mut Tally, row: &[u64]) -> Option<()> {
        let rows: u64 = row.iter().sum();
        if rows == 0 {
            return None;
        }
        if self.scorer == Scorer::ChiSquare {
            tally.chi2 = chi_row(tally.chi2, row, &self.counts, self.total);
            return Some(());
        }
        tally.weighted += (rows as f64 / self.total as f64) * impurity(self.scorer, row);
        if self.scorer == Scorer::GainRatio {
            tally.split_info += entropy_term(rows, self.total as f64);
        }
        Some(())
    }

    /// The score of a candidate whose children are all in; `None` when
    /// gain ratio has no split information to divide by.
    fn score(&self, tally: Tally) -> Option<f64> {
        let gain = self.impurity - tally.weighted;
        match self.scorer {
            Scorer::Entropy | Scorer::Gini => Some(gain),
            Scorer::GainRatio if tally.split_info <= f64::EPSILON => None,
            Scorer::GainRatio => Some(gain / tally.split_info),
            Scorer::ChiSquare => Some(tally.chi2),
        }
    }

    /// Score `A = v | A ≠ v` from `v`'s row; `right` takes `parent − left`.
    fn binary(&self, left: &[u64], right: &mut [u64]) -> Option<f64> {
        for ((r, &all), &l) in right.iter_mut().zip(&self.counts).zip(left) {
            *r = all - l;
        }
        let mut tally = self.tally();
        self.child(&mut tally, left)?;
        self.child(&mut tally, right)?;
        self.score(tally)
    }

    /// Score one child per row of `rows`: an attribute's every value.
    fn multiway(&self, mut rows: ValueRows<'_>) -> Option<f64> {
        let mut tally = self.tally();
        while let Some((_, row)) = rows.next_row() {
            self.child(&mut tally, row)?;
        }
        self.score(tally)
    }
}

/// The values of `attr` present at the node, ascending.
fn present_values(cc: &CountsTable, attr: u16) -> Vec<Code> {
    let mut values: Vec<Code> = cc.attr_vector(attr).map(|(v, _, _)| v).collect();
    values.dedup();
    values
}

/// What one enumeration of a node's candidates yields: [`best_split`]'s
/// winner, and [`best_two_splits`]' winner and runner-up.
#[derive(Debug, Default)]
pub(crate) struct Ranking {
    /// The winner over every candidate.
    pub(crate) best: Option<ScoredSplit>,
    /// The winner with mirror partitions left out.
    top: Option<ScoredSplit>,
    /// Best score among the candidates `top` beat or tied.
    runner: Option<f64>,
}

impl Ranking {
    /// Rank one more candidate; `split` builds it if it takes a lead —
    /// only on a strictly higher score, so the earlier attribute and the
    /// lower value keep a tie. A `mirror` (the higher value of a two-valued
    /// attribute's binary pair, see [`best_two_splits`]) competes for
    /// `best` only.
    fn consider(&mut self, score: f64, mirror: bool, split: impl Fn() -> Split) {
        let beats = |b: &Option<ScoredSplit>| b.as_ref().is_none_or(|b| score > b.score + 1e-12);
        let scored = || ScoredSplit {
            split: split(),
            score,
        };
        if beats(&self.best) {
            self.best = Some(scored());
        }
        if mirror {
            return;
        }
        let beaten = if beats(&self.top) {
            self.top.replace(scored()).map(|b| b.score)
        } else {
            Some(score)
        };
        if let Some(b) = beaten {
            self.runner = Some(self.runner.map_or(b, |r| r.max(b)));
        }
    }

    /// [`best_two_splits`]' winner and runner-up scores: the margins
    /// incremental maintenance retains.
    pub(crate) fn margins(&self) -> (Option<f64>, Option<f64>) {
        (self.top.as_ref().map(|t| t.score), self.runner)
    }
}

/// Score every candidate split of `kind` over `attrs`, once, and rank
/// them: the one enumeration behind [`best_split`], [`best_two_splits`]
/// and the grower's decisions.
pub(crate) fn rank_splits(
    cc: &CountsTable,
    attrs: &[u16],
    kind: SplitKind,
    scorer: Scorer,
) -> Ranking {
    let mut ranking = Ranking::default();
    let Some(parent) = Parent::new(cc, scorer) else {
        return ranking;
    };
    let (mut right, mut gather) = (vec![0; parent.counts.len()], Vec::new());
    for &attr in attrs {
        let present = cc.distinct_values(attr);
        if present < 2 {
            continue; // single-valued attribute cannot split
        }
        let mut rows = cc.value_rows(attr, &parent.axis, &mut gather);
        if kind == SplitKind::Multiway {
            if let Some(score) = parent.multiway(rows) {
                let values = || present_values(cc, attr);
                ranking.consider(score, false, || Split::Multiway {
                    attr,
                    values: values(),
                });
            }
            continue;
        }
        let mut seen = 0;
        while let Some((value, left)) = rows.next_row() {
            seen += 1;
            if let Some(score) = parent.binary(left, &mut right) {
                let mirror = present == 2 && seen == 2;
                ranking.consider(score, mirror, || Split::Binary { attr, value });
            }
        }
    }
    ranking
}

/// Score one candidate split against a node's CC table. Returns `None`
/// when the split is degenerate (an empty child) — as a multiway split is
/// that does not list exactly the values present, ascending.
pub fn score_split(cc: &CountsTable, split: &Split, scorer: Scorer) -> Option<ScoredSplit> {
    let parent = Parent::new(cc, scorer)?;
    let mut gather = Vec::new();
    let mut rows = cc.value_rows(split.attr(), &parent.axis, &mut gather);
    let score = match split {
        Split::Binary { value, .. } => loop {
            let (v, left) = rows.next_row()?;
            if v == *value {
                break parent.binary(left, &mut vec![0; left.len()])?;
            }
        },
        Split::Multiway { attr, values } if *values == present_values(cc, *attr) => {
            parent.multiway(rows)?
        }
        Split::Multiway { .. } => return None,
    };
    let split = split.clone();
    Some(ScoredSplit { split, score })
}

/// Enumerate and score every candidate split of the given kind over
/// `attrs`, returning the best (deterministic tie-break: higher score, then
/// lower attribute index, then lower value). `None` when no attribute
/// admits a non-degenerate split.
pub fn best_split(
    cc: &CountsTable,
    attrs: &[u16],
    kind: SplitKind,
    scorer: Scorer,
) -> Option<ScoredSplit> {
    rank_splits(cc, attrs, kind, scorer).best
}

/// Z-value for the sampled-split confidence intervals (DESIGN.md §13):
/// ±3σ ≈ 99.7% two-sided coverage, deliberately conservative so accepted
/// sampled splits virtually always match the exact-scan choice — the
/// escape hatch (escalation) absorbs the ambiguous cases instead.
pub const SAMPLE_Z: f64 = 3.0;

/// Normal-approximation half-width of a split score's confidence interval
/// when the score was computed from `sampled_rows` block-sampled rows:
/// `Z · R / (2√n)`, with `R` the score's range — 1 for Gini, `log2(k)`
/// for entropy gain over `k` classes. Returns `None` for measures with no
/// usable bound (gain ratio's normalisation and chi-square's unbounded
/// statistic), which callers must treat as "cannot accept — escalate".
pub fn score_half_width(scorer: Scorer, nclasses: u64, sampled_rows: u64) -> Option<f64> {
    if sampled_rows == 0 {
        return None;
    }
    let range = match scorer {
        Scorer::Gini => 1.0,
        Scorer::Entropy => (nclasses.max(2) as f64).log2(),
        Scorer::GainRatio | Scorer::ChiSquare => return None,
    };
    Some(SAMPLE_Z * range / (2.0 * (sampled_rows as f64).sqrt()))
}

/// Conservative bound on how far any candidate split's score over a node
/// holding `rows` rows (post-delta) can have moved after `magnitude`
/// signed row events were applied to it (DESIGN.md §15).
///
/// For the impurity-gain measures, swapping one row moves any class
/// frequency by at most `1/n`, and both the parent impurity and every
/// child's weighted impurity are `(R + log₂ n)/n`-Lipschitz in the counts
/// (`R` the impurity range: 1 for Gini, `log₂ k` for entropy), so `m`
/// events move a gain by at most `2·m/n·(R + log₂ n)`. The same bound
/// covers splits that only became candidates through the deltas (a value
/// with `≤ m` rows separates at most that much gain). Returns `None` —
/// callers must re-decide exactly — for gain ratio (normalisation
/// unbounded as split-info → 0), for chi-square (the statistic scales
/// with `n`, not a frequency), and whenever the churn reaches half the
/// node (`2m ≥ n`), where the frequency-perturbation argument collapses.
pub fn delta_score_bound(scorer: Scorer, nclasses: u64, rows: u64, magnitude: u64) -> Option<f64> {
    if magnitude == 0 {
        return Some(0.0);
    }
    if rows == 0 || magnitude.saturating_mul(2) >= rows {
        return None;
    }
    let range = match scorer {
        Scorer::Gini => 1.0,
        Scorer::Entropy => (nclasses.max(2) as f64).log2(),
        Scorer::GainRatio | Scorer::ChiSquare => return None,
    };
    let n = rows as f64;
    let m = magnitude as f64;
    Some(2.0 * m / n * (range + n.max(2.0).log2()))
}

/// Like [`best_split`], but also report the runner-up's score — the best
/// score among candidates that induce a *different partition* than the
/// winner. `None` as the second element means the winner was the only
/// non-degenerate candidate. The winner is selected with exactly
/// [`best_split`]'s tie-break, so the two functions always agree on it.
///
/// Mirror dedup: a binary split on a two-valued attribute produces the
/// same partition from either value (`A = v` vs `A = w` swaps children),
/// so only the lower value is ranked — otherwise every two-valued
/// winner would "tie" its own mirror and the confidence separation of
/// [`score_half_width`] could never succeed.
pub fn best_two_splits(
    cc: &CountsTable,
    attrs: &[u16],
    kind: SplitKind,
    scorer: Scorer,
) -> Option<(ScoredSplit, Option<f64>)> {
    let ranking = rank_splits(cc, attrs, kind, scorer);
    ranking.top.map(|top| (top, ranking.runner))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cc_from(rows: &[[Code; 3]]) -> CountsTable {
        let mut cc = CountsTable::new();
        for r in rows {
            cc.add_row(r, &[0, 1], 2);
        }
        cc
    }

    #[test]
    fn entropy_basics() {
        assert_eq!(entropy([0, 0]), 0.0);
        assert_eq!(entropy([10]), 0.0);
        assert!((entropy([5, 5]) - 1.0).abs() < 1e-12);
        assert!((entropy([1, 1, 1, 1]) - 2.0).abs() < 1e-12);
        // skewed is less than uniform
        assert!(entropy([9, 1]) < 1.0);
    }

    #[test]
    fn gini_basics() {
        assert_eq!(gini([10]), 0.0);
        assert!((gini([5, 5]) - 0.5).abs() < 1e-12);
        assert!(gini([9, 1]) < 0.5);
        assert_eq!(gini(std::iter::empty()), 0.0);
    }

    #[test]
    fn perfect_attribute_gets_full_gain() {
        // attr 0 determines class perfectly; attr 1 is noise.
        let cc = cc_from(&[[0, 0, 0], [0, 1, 0], [1, 0, 1], [1, 1, 1]]);
        let s = best_split(&cc, &[0, 1], SplitKind::Binary, Scorer::Entropy).unwrap();
        assert_eq!(s.split.attr(), 0);
        assert!((s.score - 1.0).abs() < 1e-9, "full bit of gain");
    }

    #[test]
    fn noise_attribute_scores_zero() {
        let cc = cc_from(&[[0, 0, 0], [1, 0, 1], [0, 1, 0], [1, 1, 1]]);
        let s = score_split(&cc, &Split::Binary { attr: 1, value: 0 }, Scorer::Entropy).unwrap();
        assert!(s.score.abs() < 1e-9);
    }

    #[test]
    fn degenerate_split_rejected() {
        let cc = cc_from(&[[0, 0, 0], [0, 1, 1]]);
        // attr 0 only has value 0 → binary split on it has an empty child.
        assert!(score_split(&cc, &Split::Binary { attr: 0, value: 0 }, Scorer::Entropy).is_none());
        // and best_split skips single-valued attributes entirely
        let s = best_split(&cc, &[0], SplitKind::Binary, Scorer::Entropy);
        assert!(s.is_none());
    }

    #[test]
    fn multiway_split_scores_each_value_child() {
        // attr 0 ∈ {0,1,2} determines class ∈ {0,1,0}.
        let cc = cc_from(&[[0, 0, 0], [1, 0, 1], [2, 0, 0], [0, 1, 0], [1, 1, 1]]);
        let s = best_split(&cc, &[0, 1], SplitKind::Multiway, Scorer::Entropy).unwrap();
        match &s.split {
            Split::Multiway { attr, values } => {
                assert_eq!(*attr, 0);
                assert_eq!(values, &vec![0, 1, 2]);
            }
            other => panic!("expected multiway, got {other:?}"),
        }
        // Perfect separation → gain = parent entropy.
        let parent_h = entropy([3u64, 2]);
        assert!((s.score - parent_h).abs() < 1e-9);
    }

    #[test]
    fn gain_ratio_penalizes_high_arity() {
        // attr 0: 4 distinct values each appearing once (id-like);
        // attr 1: binary, splits classes 2-2 imperfectly but cheaply.
        let cc = cc_from(&[[0, 0, 0], [1, 0, 0], [2, 1, 1], [3, 1, 1]]);
        let gain_best = best_split(&cc, &[0, 1], SplitKind::Multiway, Scorer::Entropy).unwrap();
        let ratio_best = best_split(&cc, &[0, 1], SplitKind::Multiway, Scorer::GainRatio).unwrap();
        // Plain gain is indifferent or favors the id attribute; the ratio
        // must favor attr 1 (split info 1 bit vs 2 bits).
        assert_eq!(ratio_best.split.attr(), 1);
        assert!(ratio_best.score >= gain_best.score / 2.0 - 1e-12);
    }

    #[test]
    fn gini_and_entropy_agree_on_perfect_splits() {
        let cc = cc_from(&[[0, 0, 0], [0, 1, 0], [1, 0, 1], [1, 1, 1]]);
        let e = best_split(&cc, &[0, 1], SplitKind::Binary, Scorer::Entropy).unwrap();
        let g = best_split(&cc, &[0, 1], SplitKind::Binary, Scorer::Gini).unwrap();
        assert_eq!(e.split, g.split);
    }

    #[test]
    fn deterministic_tie_break_prefers_first_attr() {
        // attrs 0 and 1 are identical copies.
        let cc = cc_from(&[[0, 0, 0], [1, 1, 1], [0, 0, 0], [1, 1, 1]]);
        let s = best_split(&cc, &[0, 1], SplitKind::Binary, Scorer::Entropy).unwrap();
        assert_eq!(s.split.attr(), 0);
        match s.split {
            Split::Binary { value, .. } => assert_eq!(value, 0, "lowest value wins ties"),
            _ => unreachable!(),
        }
    }

    #[test]
    fn chi_square_zero_under_independence() {
        // identical class mix in both children → no association
        let children = vec![vec![10u64, 20], vec![5, 10]];
        assert!(chi_square(&children).abs() < 1e-9);
        // empty table
        assert_eq!(chi_square(&[]), 0.0);
        assert_eq!(chi_square(&[vec![0, 0]]), 0.0);
    }

    #[test]
    fn chi_square_grows_with_association() {
        let perfect = vec![vec![30u64, 0], vec![0, 30]];
        let partial = vec![vec![20u64, 10], vec![10, 20]];
        assert!(chi_square(&perfect) > chi_square(&partial));
        assert!(
            (chi_square(&perfect) - 60.0).abs() < 1e-9,
            "n for perfect 2x2"
        );
    }

    #[test]
    fn chi_square_scorer_picks_the_informative_attribute() {
        let cc = cc_from(&[[0, 0, 0], [0, 1, 0], [1, 0, 1], [1, 1, 1]]);
        let s = best_split(&cc, &[0, 1], SplitKind::Binary, Scorer::ChiSquare).unwrap();
        assert_eq!(s.split.attr(), 0);
        assert!(s.score > 0.0);
    }

    #[test]
    fn empty_cc_yields_no_split() {
        let cc = CountsTable::new();
        assert!(best_split(&cc, &[0, 1], SplitKind::Binary, Scorer::Entropy).is_none());
    }

    #[test]
    fn half_width_shrinks_with_sample_size() {
        let hw_small = score_half_width(Scorer::Gini, 2, 100).unwrap();
        let hw_large = score_half_width(Scorer::Gini, 2, 10_000).unwrap();
        assert!(hw_large < hw_small);
        assert!((hw_small / hw_large - 10.0).abs() < 1e-9, "1/√n scaling");
        // Gini range is 1: hw = 3 / (2·√100) = 0.15.
        assert!((hw_small - 0.15).abs() < 1e-12);
        // Entropy range grows with the class count.
        let e2 = score_half_width(Scorer::Entropy, 2, 100).unwrap();
        let e8 = score_half_width(Scorer::Entropy, 8, 100).unwrap();
        assert!((e8 / e2 - 3.0).abs() < 1e-9, "log2(8)/log2(2)");
    }

    #[test]
    fn half_width_unavailable_for_unbounded_measures() {
        assert!(score_half_width(Scorer::GainRatio, 2, 100).is_none());
        assert!(score_half_width(Scorer::ChiSquare, 2, 100).is_none());
        assert!(score_half_width(Scorer::Gini, 2, 0).is_none());
    }

    #[test]
    fn best_two_agrees_with_best_split_and_reports_runner() {
        let cc = cc_from(&[[0, 0, 0], [0, 1, 0], [1, 0, 1], [1, 1, 1]]);
        let solo = best_split(&cc, &[0, 1], SplitKind::Binary, Scorer::Entropy).unwrap();
        let (best, runner) = best_two_splits(&cc, &[0, 1], SplitKind::Binary, Scorer::Entropy)
            .expect("non-degenerate candidates exist");
        assert_eq!(best, solo, "winner identical to best_split");
        let runner = runner.expect("attr 1 also admits splits");
        assert!(runner <= best.score);
        // attr 0 is perfect (gain 1), attr 1 is noise (gain 0): separated.
        assert!(best.score - runner > 0.9);
    }

    #[test]
    fn best_two_runner_none_with_single_candidate() {
        // One binary attribute, two values → candidates v=0 and v=1 both
        // exist (same partition, same score) so the runner ties the best;
        // restrict to a genuinely single-candidate table instead.
        let mut cc = CountsTable::new();
        for r in [[0u16, 0, 0], [1, 0, 1]] {
            cc.add_row(&r, &[0], 2);
        }
        let (best, runner) =
            best_two_splits(&cc, &[0], SplitKind::Multiway, Scorer::Entropy).unwrap();
        assert!(best.score > 0.0);
        assert!(runner.is_none(), "multiway on one attr = one candidate");
    }

    #[test]
    fn best_two_twin_attributes_tie() {
        // attrs 0 and 1 are identical copies: the runner-up must tie the
        // winner, so no confidence interval can separate them.
        let cc = cc_from(&[[0, 0, 0], [1, 1, 1], [0, 0, 0], [1, 1, 1]]);
        let (best, runner) =
            best_two_splits(&cc, &[0, 1], SplitKind::Binary, Scorer::Entropy).unwrap();
        let runner = runner.unwrap();
        assert!((best.score - runner).abs() < 1e-9);
    }
}
