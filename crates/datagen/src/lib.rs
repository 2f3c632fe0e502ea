//! # scaleclass-datagen
//!
//! Workload generators for the ICDE'99 evaluation (§5.1):
//!
//! * [`random_tree`] — data from random generating trees, with the paper's
//!   knobs (leaves, skewness, attributes, values/attr ± σ, classes,
//!   cases/leaf ± σ, complete splits);
//! * [`gaussians`] — discretized mixtures of Gaussians in up to 100
//!   dimensions, with projection/class-restriction helpers;
//! * [`census`] — a synthetic census-like stand-in for the paper's U.S.
//!   Census extract (see the substitution note in DESIGN.md).
//!
//! All generators are deterministic given a seed.

#![warn(missing_docs)]
#![deny(unsafe_code)]

pub mod census;
pub mod gaussians;
pub mod normal;
pub mod random_tree;

pub use census::{CensusData, CensusParams, CENSUS_CLASS_COL};
pub use gaussians::{GaussianData, GaussianParams};
pub use random_tree::{GeneratedData, RandomTreeParams};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use scaleclass_sqldb::Code;

/// Split flat rows into (train, test) by a Bernoulli per row.
pub fn train_test_split(
    rows: &[Code],
    arity: usize,
    test_fraction: f64,
    seed: u64,
) -> (Vec<Code>, Vec<Code>) {
    assert!(arity > 0 && rows.len().is_multiple_of(arity));
    let mut rng = StdRng::seed_from_u64(seed);
    let mut train = Vec::new();
    let mut test = Vec::new();
    for row in rows.chunks_exact(arity) {
        if rng.gen::<f64>() < test_fraction {
            test.extend_from_slice(row);
        } else {
            train.extend_from_slice(row);
        }
    }
    (train, test)
}

/// Load flat rows into a named table of a fresh [`scaleclass_sqldb::Database`].
pub fn into_database(
    schema: scaleclass_sqldb::Schema,
    rows: &[Code],
    table: &str,
) -> scaleclass_sqldb::Database {
    let arity = schema.arity();
    let mut t = scaleclass_sqldb::Table::new(schema);
    for row in rows.chunks_exact(arity) {
        t.insert_unchecked(row);
    }
    let mut db = scaleclass_sqldb::Database::new();
    db.register_table(table, t).expect("fresh database");
    db
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn split_partitions_rows() {
        let rows: Vec<Code> = (0..300u16).collect(); // 100 rows of arity 3
        let (train, test) = train_test_split(&rows, 3, 0.3, 1);
        assert_eq!(train.len() + test.len(), rows.len());
        assert_eq!(train.len() % 3, 0);
        assert_eq!(test.len() % 3, 0);
        let test_rows = test.len() / 3;
        assert!(
            (15..=45).contains(&test_rows),
            "≈30% expected, got {test_rows}"
        );
        // deterministic
        let (train2, _) = train_test_split(&rows, 3, 0.3, 1);
        assert_eq!(train, train2);
    }

    #[test]
    fn split_extremes() {
        let rows: Vec<Code> = (0..30u16).collect();
        let (train, test) = train_test_split(&rows, 3, 0.0, 1);
        assert_eq!(train.len(), 30);
        assert!(test.is_empty());
        let (train, test) = train_test_split(&rows, 3, 1.1, 1);
        assert!(train.is_empty());
        assert_eq!(test.len(), 30);
    }

    #[test]
    fn into_database_loads_rows() {
        let schema = scaleclass_sqldb::Schema::from_pairs(&[("a", 4), ("class", 2)]);
        let rows: Vec<Code> = vec![0, 0, 1, 1, 2, 0];
        let db = into_database(schema, &rows, "d");
        assert_eq!(db.table("d").unwrap().nrows(), 3);
    }
}
