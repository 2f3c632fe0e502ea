//! TSV reporting for experiment output.
//!
//! Each figure prints a header block and aligned TSV rows so output can be
//! piped straight into a plotting tool or diffed across runs.

use crate::RunMetrics;

/// A simple column-oriented TSV table builder.
#[derive(Debug, Default)]
pub struct TsvTable {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl TsvTable {
    /// A table with the given header.
    pub fn new(columns: &[&str]) -> Self {
        TsvTable {
            header: columns.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Append one row (must match the header width).
    pub fn row(&mut self, cells: Vec<String>) {
        debug_assert_eq!(cells.len(), self.header.len());
        self.rows.push(cells);
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Is the table empty?
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Render header + rows as TSV text.
    pub fn render(&self) -> String {
        let mut out = self.header.join("\t");
        out.push('\n');
        for row in &self.rows {
            out.push_str(&row.join("\t"));
            out.push('\n');
        }
        out
    }
}

/// Standard metric cells appended to every experiment row:
/// simulated cost, wall seconds, server scans, rows shipped, file/memory
/// traffic, tree size.
pub fn metric_cells(m: &RunMetrics) -> Vec<String> {
    vec![
        m.simulated_cost().to_string(),
        format!("{:.3}", m.wall_secs),
        m.server.seq_scans.to_string(),
        m.server.rows_shipped.to_string(),
        m.middleware.file_rows_read.to_string(),
        m.middleware.memory_rows_read.to_string(),
        m.tree_nodes.to_string(),
    ]
}

/// The header names matching [`metric_cells`].
pub const METRIC_HEADER: [&str; 7] = [
    "sim_cost",
    "wall_s",
    "server_scans",
    "rows_shipped",
    "file_rows",
    "mem_rows",
    "tree_nodes",
];

/// Print a figure banner.
pub fn banner(title: &str, detail: &str) {
    println!("\n=== {title} ===");
    if !detail.is_empty() {
        println!("# {detail}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tsv_renders_header_and_rows() {
        let mut t = TsvTable::new(&["x", "y"]);
        t.row(vec!["1".into(), "2".into()]);
        t.row(vec!["3".into(), "4".into()]);
        let s = t.render();
        assert_eq!(s, "x\ty\n1\t2\n3\t4\n");
        assert_eq!(t.len(), 2);
        assert!(!t.is_empty());
    }

    #[test]
    fn metric_cells_align_with_header() {
        let m = RunMetrics {
            wall_secs: 0.5,
            server: Default::default(),
            middleware: Default::default(),
            tree_nodes: 7,
            tree_depth: 2,
            tree_leaves: 4,
            requests: 3,
            sampled_accepts: 0,
            escalations: 0,
        };
        assert_eq!(metric_cells(&m).len(), METRIC_HEADER.len());
    }
}
