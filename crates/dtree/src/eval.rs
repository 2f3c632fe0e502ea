//! Model evaluation: accuracy, confusion matrices, structural tree
//! comparison.

use crate::tree::{DecisionTree, NodeState};
use scaleclass_sqldb::Code;

/// A square confusion matrix over class codes `0..n`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConfusionMatrix {
    n: usize,
    /// `cells[actual][predicted]`.
    cells: Vec<Vec<u64>>,
}

impl ConfusionMatrix {
    /// A zeroed `nclasses × nclasses` matrix.
    pub fn new(nclasses: usize) -> Self {
        ConfusionMatrix {
            n: nclasses,
            cells: vec![vec![0; nclasses]; nclasses],
        }
    }

    /// Record one (actual, predicted) observation; out-of-range class
    /// codes are ignored.
    pub fn record(&mut self, actual: Code, predicted: Code) {
        let (a, p) = (actual as usize, predicted as usize);
        if a < self.n && p < self.n {
            self.cells[a][p] += 1;
        }
    }

    /// The cell for (actual, predicted).
    pub fn count(&self, actual: Code, predicted: Code) -> u64 {
        self.cells[actual as usize][predicted as usize]
    }

    /// Total recorded observations.
    pub fn total(&self) -> u64 {
        self.cells.iter().flatten().sum()
    }

    /// Diagonal sum (correct predictions).
    pub fn correct(&self) -> u64 {
        (0..self.n).map(|i| self.cells[i][i]).sum()
    }

    /// Fraction correct (0 when empty).
    pub fn accuracy(&self) -> f64 {
        let t = self.total();
        if t == 0 {
            0.0
        } else {
            self.correct() as f64 / t as f64
        }
    }

    /// Render a compact table (rows = actual, columns = predicted).
    pub fn render(&self) -> String {
        let mut out = String::from("actual\\pred");
        for p in 0..self.n {
            out.push_str(&format!("\t{p}"));
        }
        out.push('\n');
        for (a, row) in self.cells.iter().enumerate() {
            out.push_str(&a.to_string());
            for &c in row {
                out.push_str(&format!("\t{c}"));
            }
            out.push('\n');
        }
        out
    }
}

/// Evaluate a classifier function over flat rows; returns the confusion
/// matrix.
pub fn evaluate(
    classify: impl Fn(&[Code]) -> Code,
    rows: &[Code],
    arity: usize,
    class_col: u16,
    nclasses: usize,
) -> ConfusionMatrix {
    assert!(arity > 0 && rows.len().is_multiple_of(arity));
    let mut cm = ConfusionMatrix::new(nclasses);
    for row in rows.chunks_exact(arity) {
        cm.record(row[class_col as usize], classify(row));
    }
    cm
}

/// Accuracy of a decision tree on flat rows.
pub fn tree_accuracy(tree: &DecisionTree, rows: &[Code], arity: usize, class_col: u16) -> f64 {
    if rows.is_empty() {
        return 0.0;
    }
    let correct = rows
        .chunks_exact(arity)
        .filter(|row| tree.classify(row) == row[class_col as usize])
        .count();
    correct as f64 / (rows.len() / arity) as f64
}

/// Mean-decrease-in-impurity feature importance from a grown tree: for
/// every internal node, the split's weighted impurity decrease (entropy,
/// computed from the stored class counts) is credited to its attribute;
/// scores are normalized to sum to 1. Returns `(attr, importance)` pairs,
/// descending. Attributes never split on are absent.
pub fn feature_importance(tree: &DecisionTree) -> Vec<(u16, f64)> {
    use crate::split::entropy;
    let mut scores: std::collections::BTreeMap<u16, f64> = std::collections::BTreeMap::new();
    let total = tree.root().map_or(0, |r| r.rows) as f64;
    if total == 0.0 {
        return Vec::new();
    }
    for n in tree.nodes() {
        let NodeState::Partitioned { split } = &n.state else {
            continue;
        };
        let parent_h = entropy(n.class_counts.iter().map(|&(_, k)| k));
        let mut weighted = 0.0;
        for &c in &n.children {
            let child = tree.node(c);
            let h = entropy(child.class_counts.iter().map(|&(_, k)| k));
            weighted += (child.rows as f64 / n.rows.max(1) as f64) * h;
        }
        let gain = (parent_h - weighted).max(0.0);
        *scores.entry(split.attr()).or_insert(0.0) += (n.rows as f64 / total) * gain;
    }
    let sum: f64 = scores.values().sum();
    let mut out: Vec<(u16, f64)> = scores
        .into_iter()
        .map(|(a, s)| (a, if sum > 0.0 { s / sum } else { 0.0 }))
        .collect();
    out.sort_by(|a, b| b.1.partial_cmp(&a.1).expect("finite").then(a.0.cmp(&b.0)));
    out
}

/// K-fold cross-validation of an arbitrary train/classify procedure over
/// flat rows. Folds are assigned round-robin (deterministic). Returns the
/// per-fold test accuracies.
///
/// `train` receives the training rows (flat) and returns a classifier.
pub fn cross_validate<C>(
    rows: &[Code],
    arity: usize,
    class_col: u16,
    folds: usize,
    mut train: impl FnMut(&[Code]) -> C,
) -> Vec<f64>
where
    C: Fn(&[Code]) -> Code,
{
    assert!(arity > 0 && rows.len().is_multiple_of(arity));
    assert!(folds >= 2, "need at least two folds");
    let nrows = rows.len() / arity;
    let mut accuracies = Vec::with_capacity(folds);
    for fold in 0..folds {
        let mut train_rows = Vec::new();
        let mut test_rows = Vec::new();
        for (i, row) in rows.chunks_exact(arity).enumerate() {
            if i % folds == fold {
                test_rows.extend_from_slice(row);
            } else {
                train_rows.extend_from_slice(row);
            }
        }
        if test_rows.is_empty() {
            continue;
        }
        let classifier = train(&train_rows);
        let correct = test_rows
            .chunks_exact(arity)
            .filter(|r| classifier(r) == r[class_col as usize])
            .count();
        accuracies.push(correct as f64 / (test_rows.len() / arity) as f64);
    }
    let _ = nrows;
    accuracies
}

/// Structural equality of two trees: same splits, same class counts, same
/// leaf labels, children compared pairwise — ignoring arena numbering and
/// data-source tags. Used to prove the middleware-driven client grows the
/// exact tree the in-memory client does.
pub fn trees_structurally_equal(a: &DecisionTree, b: &DecisionTree) -> bool {
    fn eq(a: &DecisionTree, ai: usize, b: &DecisionTree, bi: usize) -> bool {
        let (na, nb) = (a.node(ai), b.node(bi));
        if na.rows != nb.rows
            || na.class_counts != nb.class_counts
            || na.edge != nb.edge
            || na.children.len() != nb.children.len()
        {
            return false;
        }
        let states_match = match (&na.state, &nb.state) {
            (NodeState::Leaf { class: ca }, NodeState::Leaf { class: cb }) => ca == cb,
            (NodeState::Partitioned { split: sa }, NodeState::Partitioned { split: sb }) => {
                sa == sb
            }
            (NodeState::Active, NodeState::Active) => true,
            _ => false,
        };
        states_match
            && na
                .children
                .iter()
                .zip(&nb.children)
                .all(|(&ca, &cb)| eq(a, ca, b, cb))
    }
    match (a.is_empty(), b.is_empty()) {
        (true, true) => true,
        (false, false) => eq(a, 0, b, 0),
        _ => false,
    }
}

/// Split-level structural equality: same shape, same edge predicates,
/// same splits at internal nodes, and fully identical leaves (class,
/// rows, class counts) — but blind to the `rows`/`class_counts`
/// metadata of *internal* nodes. This is the right notion of "identical
/// tree" for sampled counting (DESIGN.md §13): internal nodes reached
/// through an accepted sampled split carry scaled row estimates, while
/// every decision the tree encodes — splits, shape, leaf distributions —
/// is still produced from exact counts.
pub fn trees_same_splits(a: &DecisionTree, b: &DecisionTree) -> bool {
    fn eq(a: &DecisionTree, ai: usize, b: &DecisionTree, bi: usize) -> bool {
        let (na, nb) = (a.node(ai), b.node(bi));
        if na.edge != nb.edge || na.children.len() != nb.children.len() {
            return false;
        }
        let states_match = match (&na.state, &nb.state) {
            (NodeState::Leaf { class: ca }, NodeState::Leaf { class: cb }) => {
                ca == cb && na.rows == nb.rows && na.class_counts == nb.class_counts
            }
            (NodeState::Partitioned { split: sa }, NodeState::Partitioned { split: sb }) => {
                sa == sb
            }
            (NodeState::Active, NodeState::Active) => true,
            _ => false,
        };
        states_match
            && na
                .children
                .iter()
                .zip(&nb.children)
                .all(|(&ca, &cb)| eq(a, ca, b, cb))
    }
    match (a.is_empty(), b.is_empty()) {
        (true, true) => true,
        (false, false) => eq(a, 0, b, 0),
        _ => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grow::GrowConfig;
    use crate::inmemory::grow_in_memory;

    #[test]
    fn confusion_matrix_accounting() {
        let mut cm = ConfusionMatrix::new(2);
        cm.record(0, 0);
        cm.record(0, 1);
        cm.record(1, 1);
        cm.record(1, 1);
        assert_eq!(cm.total(), 4);
        assert_eq!(cm.correct(), 3);
        assert!((cm.accuracy() - 0.75).abs() < 1e-12);
        assert_eq!(cm.count(0, 1), 1);
        let rendered = cm.render();
        assert!(rendered.contains("actual"));
    }

    #[test]
    fn out_of_range_classes_ignored() {
        let mut cm = ConfusionMatrix::new(2);
        cm.record(5, 0);
        assert_eq!(cm.total(), 0);
        assert_eq!(cm.accuracy(), 0.0);
    }

    #[test]
    fn evaluate_against_constant_classifier() {
        let rows: Vec<Code> = vec![0, 0, 1, 0, 0, 1]; // (a, class) pairs x3
        let cm = evaluate(|_| 0, &rows, 2, 1, 2);
        assert_eq!(cm.total(), 3);
        assert_eq!(cm.correct(), 2, "classes are 0, 0, 1; constant-0 gets two");
    }

    #[test]
    fn tree_accuracy_on_learnable_data() {
        let mut rows: Vec<Code> = Vec::new();
        for i in 0..40u16 {
            rows.extend_from_slice(&[i % 2, i % 2]);
        }
        let tree = grow_in_memory(&rows, 2, 1, &[0], &GrowConfig::default());
        assert_eq!(tree_accuracy(&tree, &rows, 2, 1), 1.0);
        assert_eq!(tree_accuracy(&tree, &[], 2, 1), 0.0);
    }

    #[test]
    fn feature_importance_ranks_the_signal_attribute_first() {
        // class == a; b is noise.
        let mut rows: Vec<Code> = Vec::new();
        for i in 0..120u16 {
            rows.extend_from_slice(&[i % 2, (i / 7) % 3, i % 2]);
        }
        let tree = grow_in_memory(&rows, 3, 2, &[0, 1], &GrowConfig::default());
        let imp = feature_importance(&tree);
        assert_eq!(imp[0].0, 0, "attribute 0 carries all the signal");
        assert!(imp[0].1 > 0.99, "{imp:?}");
        let total: f64 = imp.iter().map(|&(_, s)| s).sum();
        assert!((total - 1.0).abs() < 1e-9);
    }

    #[test]
    fn feature_importance_of_leafless_tree_is_empty() {
        let rows: Vec<Code> = (0..20).flat_map(|i| [i % 4, 1]).collect();
        let tree = grow_in_memory(&rows, 2, 1, &[0], &GrowConfig::default());
        assert!(feature_importance(&tree).is_empty(), "pure data, no splits");
        assert!(feature_importance(&DecisionTree::new()).is_empty());
    }

    #[test]
    fn cross_validation_on_learnable_data() {
        // class == a exactly: every fold should be perfect.
        let mut rows: Vec<Code> = Vec::new();
        for i in 0..60u16 {
            rows.extend_from_slice(&[i % 3, i % 3]);
        }
        let accs = cross_validate(&rows, 2, 1, 5, |train| {
            let tree = grow_in_memory(train, 2, 1, &[0], &GrowConfig::default());
            move |row: &[Code]| tree.classify(row)
        });
        assert_eq!(accs.len(), 5);
        assert!(accs.iter().all(|&a| (a - 1.0).abs() < 1e-12), "{accs:?}");
    }

    #[test]
    fn cross_validation_fold_sizes() {
        // 10 rows, 3 folds → folds of 4/3/3 test rows; accuracy defined.
        let rows: Vec<Code> = (0..10u16).flat_map(|i| [i % 2, 0]).collect();
        let accs = cross_validate(&rows, 2, 1, 3, |_| |_: &[Code]| 0);
        assert_eq!(accs.len(), 3);
        assert!(accs.iter().all(|&a| (a - 1.0).abs() < 1e-12));
    }

    #[test]
    #[should_panic(expected = "two folds")]
    fn cross_validation_rejects_single_fold() {
        cross_validate(&[0, 0], 2, 1, 1, |_| |_: &[Code]| 0);
    }

    #[test]
    fn structural_equality_detects_differences() {
        let mut rows: Vec<Code> = Vec::new();
        for i in 0..40u16 {
            rows.extend_from_slice(&[i % 2, (i / 2) % 2, (i % 2) & ((i / 2) % 2)]);
        }
        let a = grow_in_memory(&rows, 3, 2, &[0, 1], &GrowConfig::default());
        let b = grow_in_memory(&rows, 3, 2, &[0, 1], &GrowConfig::default());
        assert!(trees_structurally_equal(&a, &b));

        let shallow = grow_in_memory(
            &rows,
            3,
            2,
            &[0, 1],
            &GrowConfig {
                max_depth: Some(1),
                ..GrowConfig::default()
            },
        );
        assert!(!trees_structurally_equal(&a, &shallow));
        assert!(trees_structurally_equal(
            &DecisionTree::new(),
            &DecisionTree::new()
        ));
        assert!(!trees_structurally_equal(&a, &DecisionTree::new()));
    }
}
