//! # scaleclass-dtree
//!
//! Classification clients for the scaleclass middleware: the decision-tree
//! client of the paper's experiments (Algorithm Grow with ID3/C4.5/CART/
//! CHAID selection measures, §2.1/§3.1), a Naïve Bayes client and a
//! random-subspace forest (§1: other sufficient-statistics-driven
//! classifiers plug in), a traditional in-memory client used as the §2.3
//! full-extraction baseline, pessimistic pruning and decision-rule
//! extraction (the paper's noted easy extensions), Fayyad–Irani MDL
//! discretization for numeric attributes, tree model persistence and
//! Graphviz export, and evaluation utilities (confusion matrices, k-fold
//! cross-validation, structural tree equality).
//!
//! ```
//! use scaleclass::{Middleware, MiddlewareConfig};
//! use scaleclass_dtree::{grow_with_middleware, GrowConfig};
//! use scaleclass_sqldb::{Database, Schema};
//!
//! let mut db = Database::new();
//! db.create_table("d", Schema::from_pairs(&[("a", 2), ("b", 2), ("class", 2)])).unwrap();
//! for i in 0..32u16 {
//!     let (a, b) = (i % 2, (i / 2) % 2);
//!     db.insert("d", &[a, b, a & b]).unwrap();
//! }
//! let mut mw = Middleware::new(db, "d", "class", MiddlewareConfig::default()).unwrap();
//! let out = grow_with_middleware(&mut mw, &GrowConfig::default()).unwrap();
//! assert_eq!(out.tree.classify(&[1, 1, 0]), 1);
//! assert_eq!(out.tree.classify(&[1, 0, 0]), 0);
//! ```

#![warn(missing_docs)]
#![deny(unsafe_code)]

pub mod discretize;
pub mod eval;
pub mod forest;
pub mod grow;
pub mod inmemory;
pub mod maintain;
pub mod model_io;
pub mod naive_bayes;
pub mod prune;
pub mod rules;
pub mod split;
pub mod tree;

pub use discretize::{mdl_cut_points, Discretizer};
pub use eval::{
    cross_validate, evaluate, feature_importance, tree_accuracy, trees_same_splits,
    trees_structurally_equal, ConfusionMatrix,
};
pub use forest::{grow_forest_with_middleware, Forest, ForestConfig};
pub use grow::{decide, derive_children, grow_with_middleware, Decision, GrowConfig, GrowOutcome};
pub use inmemory::grow_in_memory;
pub use maintain::{grow_maintainable, maintain, MaintainOutcome, MaintainableTree, RetainedNode};
pub use model_io::{load_tree, save_tree, ModelFormatError};
pub use naive_bayes::NaiveBayes;
pub use prune::prune_pessimistic;
pub use rules::{extract_rules, Rule, RuleList};
pub use split::{best_split, chi_square, entropy, gini, Scorer, Split, SplitKind};
pub use tree::{DecisionTree, Edge, NodeState, TreeNode};
