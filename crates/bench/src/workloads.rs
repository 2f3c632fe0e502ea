//! The exact workloads of §5.1, parameterized to run at paper scale
//! (`--full`) or at a scaled-down default that preserves every shape.

use scaleclass_datagen::{census, gaussians, random_tree};
use scaleclass_sqldb::Database;

/// A generated workload ready to load into a backend.
#[derive(Debug, Clone)]
pub struct Workload {
    /// Table schema.
    pub schema: scaleclass_sqldb::Schema,
    /// Flat rows.
    pub rows: Vec<scaleclass_sqldb::Code>,
    /// Name of the class column.
    pub class_column: String,
    /// Human-readable description for banners.
    pub description: String,
}

impl Workload {
    /// Number of rows.
    pub fn nrows(&self) -> usize {
        self.rows.len() / self.schema.arity()
    }

    /// Stored size in bytes (rows × row width).
    pub fn data_bytes(&self) -> u64 {
        (self.rows.len() * scaleclass_sqldb::types::CODE_BYTES) as u64
    }

    /// Stored size in MB.
    pub fn data_mb(&self) -> f64 {
        self.data_bytes() as f64 / (1024.0 * 1024.0)
    }

    /// Load into a fresh backend under the given table name.
    pub fn into_db(self, table: &str) -> Database {
        scaleclass_datagen::into_database(self.schema, &self.rows, table)
    }
}

fn from_generated(d: random_tree::GeneratedData, description: String) -> Workload {
    Workload {
        schema: d.schema,
        rows: d.rows,
        class_column: "class".into(),
        description,
    }
}

/// §5.2.1 / Figure 4 data: default settings of §5.1.3 (25 attributes,
/// ~4 values each, 10 classes, complete splits, no case-count variance),
/// `leaves` leaves × `cases_per_leaf` cases.
pub fn fig4_workload(leaves: usize, cases_per_leaf: f64) -> Workload {
    let d = random_tree::generate(&random_tree::RandomTreeParams {
        leaves,
        attributes: 25,
        mean_values: 4.0,
        values_stddev: 4.0,
        classes: 10,
        skew: 0.0,
        complete_splits: true,
        cases_per_leaf,
        cases_stddev: 0.0,
        seed: 42,
    });
    let desc = format!(
        "random-tree: {} leaves x {:.0} cases/leaf, 25 attrs, 10 classes",
        d.generating_leaves, cases_per_leaf
    );
    from_generated(d, desc)
}

/// Figure 7 data: binary attributes, 200 leaves, fixed case count.
pub fn fig7_workload(attributes: usize, leaves: usize, cases_per_leaf: f64) -> Workload {
    let d = random_tree::generate(&random_tree::RandomTreeParams {
        leaves,
        attributes,
        mean_values: 2.0,
        values_stddev: 0.0,
        classes: 10,
        skew: 0.0,
        complete_splits: true,
        cases_per_leaf,
        cases_stddev: 0.0,
        seed: 42,
    });
    let desc = format!("random-tree: {attributes} binary attrs, {leaves} leaves");
    from_generated(d, desc)
}

/// Figure 8a data: a long lop-sided tree, values-per-attribute swept.
pub fn fig8a_workload(values_per_attr: f64, leaves: usize, cases_per_leaf: f64) -> Workload {
    let d = random_tree::generate(&random_tree::RandomTreeParams {
        leaves,
        attributes: 25,
        mean_values: values_per_attr,
        values_stddev: 0.0,
        classes: 10,
        skew: 1.0, // lop-sided
        complete_splits: false,
        cases_per_leaf,
        cases_stddev: 0.0,
        seed: 42,
    });
    let desc = format!("lop-sided random-tree: {values_per_attr:.0} values/attr, {leaves} leaves");
    from_generated(d, desc)
}

/// Figure 8b data: leaves swept at (roughly) fixed data size.
pub fn fig8b_workload(leaves: usize, total_rows: usize) -> Workload {
    let cases = (total_rows as f64 / leaves as f64).max(1.0);
    let d = random_tree::generate(&random_tree::RandomTreeParams {
        leaves,
        attributes: 25,
        mean_values: 4.0,
        values_stddev: 0.0,
        classes: 10,
        skew: 0.0,
        complete_splits: true,
        cases_per_leaf: cases,
        cases_stddev: 0.0,
        seed: 42,
    });
    let desc = format!("random-tree: {leaves} leaves at ~{total_rows} rows");
    from_generated(d, desc)
}

/// Census-like workload (Figures 6 and the §5.2.5 experiment).
pub fn census_workload(rows: usize) -> Workload {
    let d = census::generate(&census::CensusParams { rows, seed: 42 });
    Workload {
        schema: d.schema,
        rows: d.rows,
        class_column: "income".into(),
        description: format!("census-like: {rows} rows"),
    }
}

/// Gaussian-mixture workload (§5.1.2).
pub fn gaussian_workload(dims: usize, classes: u16, samples_per_class: usize) -> Workload {
    let d = gaussians::generate(&gaussians::GaussianParams {
        dims,
        classes,
        samples_per_class,
        bins: 10,
        seed: 42,
    });
    Workload {
        schema: d.schema,
        rows: d.rows,
        class_column: "class".into(),
        description: format!("gaussians: {dims}d, {classes} classes, {samples_per_class}/class"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig4_matches_default_settings() {
        let w = fig4_workload(20, 50.0);
        assert_eq!(w.schema.arity(), 26);
        assert!(w.nrows() >= 20 * 50);
        assert!(w.data_mb() > 0.0);
    }

    #[test]
    fn fig7_uses_binary_attributes() {
        let w = fig7_workload(12, 20, 25.0);
        for i in 0..12 {
            assert_eq!(w.schema.column(i).cardinality(), 2);
        }
    }

    #[test]
    fn fig8b_total_rows_roughly_constant() {
        let a = fig8b_workload(20, 4000);
        let b = fig8b_workload(80, 4000);
        let ratio = a.nrows() as f64 / b.nrows() as f64;
        assert!(
            (0.5..2.0).contains(&ratio),
            "row counts {} vs {}",
            a.nrows(),
            b.nrows()
        );
    }

    #[test]
    fn census_class_column_is_income() {
        let w = census_workload(500);
        assert_eq!(w.class_column, "income");
        let db = w.into_db("census");
        assert_eq!(db.table("census").unwrap().nrows(), 500);
    }

    #[test]
    fn gaussian_workload_loads() {
        let w = gaussian_workload(5, 3, 50);
        assert_eq!(w.nrows(), 150);
        assert_eq!(w.schema.arity(), 6);
    }
}
