//! Discretization of numeric attributes.
//!
//! The paper assumes "all attributes are categorical or have been
//! discretized (see \[CFB97\] for how numeric-valued attributes are
//! treated)" and cites Fayyad & Irani's entropy-based method [FI92b,
//! FI93]. This module supplies that missing pipeline step:
//!
//! * [`equal_width`] and [`equal_frequency`] — the simple unsupervised
//!   binnings;
//! * [`mdl_cut_points`] — Fayyad–Irani supervised discretization:
//!   recursively pick the boundary minimizing class entropy, accepting a
//!   cut only when the information gain passes the Minimum Description
//!   Length criterion.
//!
//! All functions return ascending cut points; [`apply_cuts`] maps raw
//! values to codes (`0..=cuts.len()`).

use crate::split::entropy;
use scaleclass_sqldb::Code;

/// Equal-width cut points over the observed range. Returns `bins - 1`
/// cuts (or none if the data is constant or empty).
pub fn equal_width(values: &[f64], bins: u16) -> Vec<f64> {
    if values.is_empty() || bins < 2 {
        return Vec::new();
    }
    let (mut lo, mut hi) = (f64::INFINITY, f64::NEG_INFINITY);
    for &v in values {
        lo = lo.min(v);
        hi = hi.max(v);
    }
    if hi <= lo {
        return Vec::new();
    }
    let width = (hi - lo) / f64::from(bins);
    (1..bins).map(|i| lo + width * f64::from(i)).collect()
}

/// Equal-frequency cut points: each bin receives roughly `n / bins`
/// values. Duplicate boundaries are collapsed.
pub fn equal_frequency(values: &[f64], bins: u16) -> Vec<f64> {
    if values.is_empty() || bins < 2 {
        return Vec::new();
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite values"));
    let n = sorted.len();
    let mut cuts = Vec::new();
    for i in 1..bins {
        let idx = (n * i as usize) / bins as usize;
        if idx == 0 || idx >= n {
            continue;
        }
        // Cut between distinct neighbours so bins are well-defined.
        let cut = (sorted[idx - 1] + sorted[idx]) / 2.0;
        if sorted[idx] > sorted[idx - 1] && cuts.last().is_none_or(|&c| cut > c) {
            cuts.push(cut);
        }
    }
    cuts
}

/// Fayyad–Irani MDL discretization: supervised cut points for `values`
/// labelled with `classes`. Deterministic; `values.len() == classes.len()`.
pub fn mdl_cut_points(values: &[f64], classes: &[Code]) -> Vec<f64> {
    assert_eq!(values.len(), classes.len(), "values/classes misaligned");
    let mut pairs: Vec<(f64, Code)> = values
        .iter()
        .copied()
        .zip(classes.iter().copied())
        .collect();
    pairs.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("finite values"));
    let mut cuts = Vec::new();
    recurse(&pairs, &mut cuts);
    cuts.sort_by(|a, b| a.partial_cmp(b).expect("finite cuts"));
    cuts
}

fn class_counts(pairs: &[(f64, Code)]) -> Vec<u64> {
    let mut counts = std::collections::BTreeMap::new();
    for &(_, c) in pairs {
        *counts.entry(c).or_insert(0u64) += 1;
    }
    counts.into_values().collect()
}

fn distinct_classes(pairs: &[(f64, Code)]) -> u64 {
    let mut seen = std::collections::BTreeSet::new();
    for &(_, c) in pairs {
        seen.insert(c);
    }
    seen.len() as u64
}

fn recurse(pairs: &[(f64, Code)], cuts: &mut Vec<f64>) {
    let n = pairs.len();
    if n < 2 {
        return;
    }
    let parent_counts = class_counts(pairs);
    if parent_counts.len() < 2 {
        return; // pure — nothing to gain
    }
    let parent_entropy = entropy(parent_counts.iter().copied());

    // Candidate boundaries: midpoints between adjacent distinct values
    // (Fayyad's result: optimal cuts lie on class-boundary points, but
    // evaluating all value boundaries is simpler and equally correct).
    let mut best: Option<(usize, f64, f64, f64)> = None; // (idx, cut, info, gain)
    let mut left_counts: std::collections::BTreeMap<Code, u64> = std::collections::BTreeMap::new();
    for i in 1..n {
        *left_counts.entry(pairs[i - 1].1).or_insert(0) += 1;
        if pairs[i].0 <= pairs[i - 1].0 {
            continue; // not a boundary between distinct values
        }
        let left: Vec<u64> = left_counts.values().copied().collect();
        let right = class_counts(&pairs[i..]);
        let (nl, nr) = (i as f64, (n - i) as f64);
        let info = (nl / n as f64) * entropy(left.iter().copied())
            + (nr / n as f64) * entropy(right.iter().copied());
        let gain = parent_entropy - info;
        if best.is_none_or(|(_, _, _, g)| gain > g + 1e-12) {
            let cut = (pairs[i - 1].0 + pairs[i].0) / 2.0;
            best = Some((i, cut, info, gain));
        }
    }
    let Some((idx, cut, _info, gain)) = best else {
        return;
    };

    // MDL acceptance criterion (Fayyad & Irani 1993):
    //   gain > log2(n-1)/n + Δ/n
    //   Δ = log2(3^k - 2) - [k·E(S) - k1·E(S1) - k2·E(S2)]
    let k = distinct_classes(pairs) as f64;
    let (s1, s2) = pairs.split_at(idx);
    let k1 = distinct_classes(s1) as f64;
    let k2 = distinct_classes(s2) as f64;
    let e = parent_entropy;
    let e1 = entropy(class_counts(s1));
    let e2 = entropy(class_counts(s2));
    let delta = (3f64.powf(k) - 2.0).log2() - (k * e - k1 * e1 - k2 * e2);
    let threshold = ((n as f64 - 1.0).log2() + delta) / n as f64;
    if gain <= threshold {
        return; // cut not worth its description length
    }
    cuts.push(cut);
    recurse(s1, cuts);
    recurse(s2, cuts);
}

/// Map a raw value to its bin code given ascending cut points.
pub fn apply_cuts(value: f64, cuts: &[f64]) -> Code {
    cuts.partition_point(|&c| value >= c) as Code
}

/// A fitted per-column discretizer for a whole numeric data set.
#[derive(Debug, Clone)]
pub struct Discretizer {
    /// Ascending cut points per column.
    pub cuts: Vec<Vec<f64>>,
}

impl Discretizer {
    /// Fit MDL cuts per column of a row-major numeric matrix. Columns
    /// where MDL finds no informative cut fall back to equal-width binning
    /// with `fallback_bins` (so no column degenerates to a single value).
    pub fn fit_mdl(rows: &[f64], ncols: usize, classes: &[Code], fallback_bins: u16) -> Self {
        assert!(ncols > 0 && rows.len().is_multiple_of(ncols));
        assert_eq!(rows.len() / ncols, classes.len());
        let cuts = (0..ncols)
            .map(|c| {
                let col: Vec<f64> = rows.chunks_exact(ncols).map(|r| r[c]).collect();
                let mdl = mdl_cut_points(&col, classes);
                if mdl.is_empty() {
                    equal_width(&col, fallback_bins)
                } else {
                    mdl
                }
            })
            .collect();
        Discretizer { cuts }
    }

    /// Codes for one numeric row.
    pub fn transform_row(&self, row: &[f64]) -> Vec<Code> {
        assert_eq!(row.len(), self.cuts.len());
        row.iter()
            .zip(&self.cuts)
            .map(|(&v, cuts)| apply_cuts(v, cuts))
            .collect()
    }

    /// Cardinality of each produced column.
    pub fn cardinalities(&self) -> Vec<u16> {
        self.cuts.iter().map(|c| c.len() as u16 + 1).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn equal_width_basics() {
        let cuts = equal_width(&[0.0, 10.0], 5);
        assert_eq!(cuts, vec![2.0, 4.0, 6.0, 8.0]);
        assert!(equal_width(&[], 5).is_empty());
        assert!(equal_width(&[3.0, 3.0], 5).is_empty(), "constant column");
        assert!(equal_width(&[0.0, 1.0], 1).is_empty());
    }

    #[test]
    fn equal_frequency_splits_mass() {
        let values: Vec<f64> = (0..100).map(f64::from).collect();
        let cuts = equal_frequency(&values, 4);
        assert_eq!(cuts.len(), 3);
        let counts: Vec<usize> = (0..4)
            .map(|bin| {
                values
                    .iter()
                    .filter(|&&v| apply_cuts(v, &cuts) == bin)
                    .count()
            })
            .collect();
        assert!(counts.iter().all(|&c| c == 25), "{counts:?}");
        // heavy duplicates collapse cuts rather than fabricate them
        let dup = vec![1.0; 50];
        assert!(equal_frequency(&dup, 4).is_empty());
    }

    #[test]
    fn apply_cuts_maps_ranges() {
        let cuts = vec![1.0, 2.0];
        assert_eq!(apply_cuts(0.5, &cuts), 0);
        assert_eq!(apply_cuts(1.0, &cuts), 1, "cut value goes right");
        assert_eq!(apply_cuts(1.5, &cuts), 1);
        assert_eq!(apply_cuts(99.0, &cuts), 2);
        assert_eq!(apply_cuts(5.0, &[]), 0);
    }

    #[test]
    fn mdl_finds_the_obvious_boundary() {
        // class 0 below 5, class 1 above — one clean cut.
        let values: Vec<f64> = (0..40).map(|i| f64::from(i) / 4.0).collect();
        let classes: Vec<Code> = values.iter().map(|&v| u16::from(v >= 5.0)).collect();
        let cuts = mdl_cut_points(&values, &classes);
        assert_eq!(cuts.len(), 1, "{cuts:?}");
        assert!((cuts[0] - 4.875).abs() < 0.2, "cut near 5, got {}", cuts[0]);
    }

    #[test]
    fn mdl_finds_two_boundaries() {
        // classes 0 | 1 | 0 in thirds.
        let values: Vec<f64> = (0..90).map(f64::from).collect();
        let classes: Vec<Code> = values
            .iter()
            .map(|&v| u16::from((30.0..60.0).contains(&v)))
            .collect();
        let cuts = mdl_cut_points(&values, &classes);
        assert_eq!(cuts.len(), 2, "{cuts:?}");
        assert!(cuts[0] > 25.0 && cuts[0] < 35.0);
        assert!(cuts[1] > 55.0 && cuts[1] < 65.0);
    }

    #[test]
    fn mdl_rejects_noise() {
        // Class independent of the value: MDL must refuse to cut.
        let values: Vec<f64> = (0..200).map(f64::from).collect();
        let classes: Vec<Code> = (0..200).map(|i| (i % 2) as Code).collect();
        let cuts = mdl_cut_points(&values, &classes);
        assert!(cuts.is_empty(), "{cuts:?}");
    }

    #[test]
    fn mdl_on_pure_or_tiny_input() {
        assert!(mdl_cut_points(&[1.0, 2.0, 3.0], &[1, 1, 1]).is_empty());
        assert!(mdl_cut_points(&[1.0], &[0]).is_empty());
        assert!(mdl_cut_points(&[], &[]).is_empty());
    }

    #[test]
    fn discretizer_end_to_end() {
        // Two numeric columns; only the first is informative.
        let mut rows = Vec::new();
        let mut classes = Vec::new();
        for i in 0..60 {
            let x = f64::from(i);
            rows.extend_from_slice(&[x, (i % 7) as f64]);
            classes.push(u16::from(x >= 30.0));
        }
        let disc = Discretizer::fit_mdl(&rows, 2, &classes, 4);
        assert_eq!(disc.cuts[0].len(), 1, "MDL cut on informative column");
        assert_eq!(disc.cuts[1].len(), 3, "fallback equal-width on noise");
        assert_eq!(disc.cardinalities(), vec![2, 4]);
        let coded = disc.transform_row(&[45.0, 3.0]);
        assert_eq!(coded[0], 1);
    }

    #[test]
    #[should_panic(expected = "misaligned")]
    fn misaligned_inputs_panic() {
        mdl_cut_points(&[1.0, 2.0], &[0]);
    }
}
