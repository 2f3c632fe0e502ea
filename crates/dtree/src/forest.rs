//! Random-subspace forests over the middleware.
//!
//! The paper's architecture serves any classifier driven by sufficient
//! statistics (§1). A *random-subspace* ensemble (Ho 1998) is exactly
//! that: each member tree is grown on a random subset of the attributes,
//! which needs nothing beyond ordinary CC tables — unlike bootstrap
//! bagging, which would require row-level sampling the middleware never
//! exposes. Every member is grown through the middleware (one session per
//! tree, so staging state never leaks between members), and prediction is
//! a majority vote.

use crate::grow::{grow_with_middleware, GrowConfig};
use crate::tree::DecisionTree;
use scaleclass::{Middleware, MwError, MwResult};
use scaleclass_sqldb::Code;

/// A trained random-subspace forest.
#[derive(Debug, Clone, Default)]
pub struct Forest {
    /// The member trees (each grown on its own attribute subset).
    pub trees: Vec<DecisionTree>,
    /// Distinct class codes seen across members (vote tally domain).
    classes: Vec<Code>,
}

impl Forest {
    /// Number of member trees.
    pub fn len(&self) -> usize {
        self.trees.len()
    }

    /// Is the forest empty?
    pub fn is_empty(&self) -> bool {
        self.trees.is_empty()
    }

    /// Majority vote over the members (ties break to the lower class code;
    /// an empty forest predicts class 0).
    pub fn classify(&self, row: &[Code]) -> Code {
        let mut votes: Vec<(Code, usize)> = self.classes.iter().map(|&c| (c, 0)).collect();
        for tree in &self.trees {
            let c = tree.classify(row);
            if let Some(slot) = votes.iter_mut().find(|(vc, _)| *vc == c) {
                slot.1 += 1;
            }
        }
        votes
            .iter()
            .max_by(|a, b| a.1.cmp(&b.1).then(b.0.cmp(&a.0)))
            .map(|&(c, _)| c)
            .unwrap_or(0)
    }
}

/// Forest-growing configuration.
#[derive(Debug, Clone)]
pub struct ForestConfig {
    /// Member trees to grow.
    pub trees: usize,
    /// Attributes sampled per member (`None` = ⌈m/2⌉, Ho's random-subspace
    /// default; the ⌈√m⌉ convention belongs to per-*split* sampling and
    /// leaves √m-sized subspaces too likely to miss every informative
    /// attribute).
    pub attrs_per_tree: Option<usize>,
    /// Per-member tree-growing configuration.
    pub grow: GrowConfig,
    /// Subspace-sampling seed (deterministic forests).
    pub seed: u64,
}

impl Default for ForestConfig {
    fn default() -> Self {
        ForestConfig {
            trees: 9,
            attrs_per_tree: None,
            grow: GrowConfig::default(),
            seed: 42,
        }
    }
}

/// A minimal xorshift PRNG — enough for attribute sampling and no heavier
/// than the job needs (keeps `rand` out of this crate's dependencies).
struct XorShift(u64);

impl XorShift {
    fn new(seed: u64) -> Self {
        XorShift(seed.max(1))
    }

    fn next_u64(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// Grow a random-subspace forest through the middleware. The middleware is
/// closed and re-opened on its backend per member (one session each, fresh
/// staging); the final middleware is returned alongside the forest so
/// callers can read cumulative backend statistics.
pub fn grow_forest_with_middleware(
    mut mw: Middleware,
    config: &ForestConfig,
) -> MwResult<(Forest, Middleware)> {
    if config.trees == 0 {
        return Err(MwError::BadRequest(
            "a forest needs at least one tree".into(),
        ));
    }
    let all_attrs: Vec<u16> = mw.attrs().to_vec();
    let m = all_attrs.len();
    let k = config.attrs_per_tree.unwrap_or(m.div_ceil(2)).clamp(1, m);

    let mut rng = XorShift::new(config.seed);
    let mut forest = Forest::default();
    let mut classes = std::collections::BTreeSet::new();

    for _ in 0..config.trees {
        // Sample k distinct attributes (partial Fisher–Yates).
        let mut pool = all_attrs.clone();
        let mut subset = Vec::with_capacity(k);
        for _ in 0..k {
            let i = rng.below(pool.len());
            subset.push(pool.swap_remove(i));
        }
        subset.sort_unstable();

        // Grow one member restricted to the subset: re-open the session
        // (fresh staging, no node-id collisions) with only these attributes.
        mw = Middleware::open(mw.close())?;
        mw.restrict_attrs(&subset)?;
        let out = grow_with_middleware(&mut mw, &config.grow)?;
        for n in out.tree.nodes() {
            for &(c, _) in &n.class_counts {
                classes.insert(c);
            }
        }
        forest.trees.push(out.tree);
    }
    forest.classes = classes.into_iter().collect();
    Ok((forest, mw))
}

#[cfg(test)]
mod tests {
    use super::*;
    use scaleclass::MiddlewareConfig;
    use scaleclass_sqldb::{Database, Schema};

    /// class = majority of three informative binary attrs; plus noise.
    fn db(rows: u16) -> Database {
        let mut db = Database::new();
        db.create_table(
            "d",
            Schema::from_pairs(&[
                ("a", 2),
                ("b", 2),
                ("c", 2),
                ("n1", 4),
                ("n2", 4),
                ("class", 2),
            ]),
        )
        .unwrap();
        for i in 0..rows {
            let (a, b, c) = (i % 2, (i / 2) % 2, (i / 4) % 2);
            let class = u16::from(a + b + c >= 2);
            db.insert("d", &[a, b, c, i % 4, (i / 3) % 4, class])
                .unwrap();
        }
        db
    }

    fn forest(cfg: &ForestConfig) -> Forest {
        let mw = Middleware::new(db(160), "d", "class", MiddlewareConfig::default()).unwrap();
        grow_forest_with_middleware(mw, cfg).unwrap().0
    }

    #[test]
    fn forest_learns_majority_function() {
        let f = forest(&ForestConfig {
            trees: 15,
            attrs_per_tree: Some(3),
            ..ForestConfig::default()
        });
        assert_eq!(f.len(), 15);
        let mut correct = 0;
        for i in 0..8u16 {
            let (a, b, c) = (i % 2, (i / 2) % 2, (i / 4) % 2);
            let expected = u16::from(a + b + c >= 2);
            if f.classify(&[a, b, c, 0, 0, 0]) == expected {
                correct += 1;
            }
        }
        assert!(
            correct >= 7,
            "forest got {correct}/8 on the majority function"
        );
    }

    #[test]
    fn forest_is_deterministic_for_a_seed() {
        let cfg = ForestConfig {
            trees: 5,
            ..ForestConfig::default()
        };
        let a = forest(&cfg);
        let b = forest(&cfg);
        for (ta, tb) in a.trees.iter().zip(&b.trees) {
            assert!(crate::eval::trees_structurally_equal(ta, tb));
        }
        // A different seed yields a different forest (almost surely).
        let c = forest(&ForestConfig { seed: 7, ..cfg });
        let all_equal = a
            .trees
            .iter()
            .zip(&c.trees)
            .all(|(x, y)| crate::eval::trees_structurally_equal(x, y));
        assert!(!all_equal);
    }

    #[test]
    fn members_use_only_their_subspace() {
        let f = forest(&ForestConfig {
            trees: 6,
            attrs_per_tree: Some(2),
            ..ForestConfig::default()
        });
        for tree in &f.trees {
            let mut used = std::collections::BTreeSet::new();
            for n in tree.nodes() {
                if let crate::tree::NodeState::Partitioned { split } = &n.state {
                    used.insert(split.attr());
                }
            }
            assert!(used.len() <= 2, "member used {used:?}");
        }
    }

    #[test]
    fn zero_trees_rejected_and_empty_forest_defaults() {
        let mw = Middleware::new(db(16), "d", "class", MiddlewareConfig::default()).unwrap();
        let err = grow_forest_with_middleware(
            mw,
            &ForestConfig {
                trees: 0,
                ..ForestConfig::default()
            },
        );
        assert!(err.is_err());
        assert_eq!(Forest::default().classify(&[0, 0, 0, 0, 0, 0]), 0);
    }
}
