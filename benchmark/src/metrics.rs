//! The metric registry: every name the benchmark may print, with its unit,
//! direction and — for end-to-end metrics — the regression bound. The root
//! `BENCHMARK.json` repeats names, units, directions and bounds for the
//! driver; `tests/smoke.rs` holds the two in agreement. What `BENCHMARK.json`
//! has no key for (which end-to-end metric a layer metric should move, and
//! on which workload) lives here and is copied into every report.

/// One end-to-end metric: what a user of a tree build sees. All are
/// lower-is-better.
#[derive(Debug)]
pub struct EndToEnd {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Share of the parent's median by which the metric may worsen.
    pub bound: f64,
    /// A count the program makes that must repeat exactly: identical
    /// across reps, seeds and runs of the same code. `--compare` and
    /// `--selfcheck` compare these with `==`, not with `bound`.
    pub exact: bool,
}

/// The eight end-to-end metrics, the same on every workload.
///
/// The three timings are the fastest of the run's timed reps
/// (`run::Stat::fastest`) and carry 0.25, the widest bound the driver
/// takes: the reference host is shared, and neighbours slow memory-bound
/// code down for minutes at a time (README, "Noise of the host"), which
/// no statistic inside a 25 s run removes. The exact counts carry a token
/// 0.001 in `BENCHMARK.json` only because the driver wants each spread
/// strictly below a third of its bound, which 0 cannot satisfy.
pub const END_TO_END: [EndToEnd; 8] = [
    // Generate rows + load table + open Middleware (incl. staging dir),
    // once per rep.
    EndToEnd {
        name: "setup_s",
        unit: "s",
        bound: 0.25,
        exact: false,
    },
    // Wall time, first enqueue to finished model (churn: initial build +
    // all mutate/maintain rounds).
    EndToEnd {
        name: "build_s",
        unit: "s",
        // Besides the host: builds of the *same* source in different
        // directories, differing only in link layout, ran rescan-server
        // 15 % apart (README, "Layout sensitivity"), and every later
        // change relinks.
        bound: 0.25,
        exact: false,
    },
    // Process user+sys CPU over the build interval.
    EndToEnd {
        name: "build_cpu_s",
        unit: "s",
        // Follows `build_s`: one thread, so CPU is wall.
        bound: 0.25,
        exact: false,
    },
    // StatsSnapshot.rows_shipped delta: the server/wire load the paper
    // minimises.
    EndToEnd {
        name: "server_rows_shipped",
        unit: "rows",
        bound: 0.001,
        exact: true,
    },
    // StatsSnapshot.seq_scans delta.
    EndToEnd {
        name: "server_scans",
        unit: "scans",
        bound: 0.001,
        exact: true,
    },
    // Server + middleware simulated_cost(): the y-axis of Figures 4-8.
    EndToEnd {
        name: "sim_cost",
        unit: "cost",
        bound: 0.001,
        exact: true,
    },
    // MiddlewareStats.peak_memory_bytes: modelled memory against the budget.
    EndToEnd {
        name: "peak_model_bytes",
        unit: "B",
        bound: 0.001,
        exact: true,
    },
    // VmHWM over the build interval only: the allocator's free memory is
    // returned and the mark reset after set-up, read after the build;
    // median over reps. The loaded table plus what the build adds to it.
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MiB",
        bound: 0.10,
        exact: false,
    },
];

/// One per-layer metric of the traced pass.
#[derive(Debug)]
pub struct PerLayer {
    /// Metric name, `<layer>.<what>`; `probe.*` are isolated timings of
    /// one public function on the workload's own table.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// `"lower"` or `"higher"`.
    pub better: &'static str,
    /// The end-to-end metric(s) a change to this layer metric should move.
    pub moves: &'static str,
    /// The workload(s) where that movement should show.
    pub on: &'static str,
}

const fn layer(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    moves: &'static str,
    on: &'static str,
) -> PerLayer {
    PerLayer {
        name,
        unit,
        better,
        moves,
        on,
    }
}

/// Interaction rule for reading the table below: every workload runs one
/// thread, so a faster layer saves at most its traced share of `build_s`
/// (its span self time, or its counter-derived share of `mw.batch_s`).
#[rustfmt::skip] // one metric per line keeps this readable as the table it is
pub const PER_LAYER: [PerLayer; 57] = [
    // client (dtree::grow, split)
    layer("client.decide_s", "s", "lower", "build_s", "wide-frontier"),
    layer("client.derive_s", "s", "lower", "build_s", "wide-frontier"),
    layer("probe.split.decide_us", "us", "lower", "build_s", "wide-frontier"),
    // middleware / session
    layer("mw.enqueue_s", "s", "lower", "build_s", "wide-frontier"),
    layer("mw.batch_s", "s", "lower", "build_s", "all"),
    layer("mw.batch_ms_p50", "ms", "lower", "build_s", "all"),
    layer("mw.batch_ms_max", "ms", "lower", "build_s", "all"),
    layer("mw.rounds", "count", "lower", "build_s,server_scans", "all"),
    layer("mw.root_batch_s", "s", "lower", "build_s", "all"),
    layer("mw.other_s", "s", "lower", "build_s", "wide-frontier"),
    // scheduler, estimator
    layer("scheduler.nodes_per_round", "nodes", "higher", "build_s,server_scans", "wide-frontier,rescan-server"),
    layer("scheduler.sql_fallbacks", "count", "lower", "server_scans,sim_cost", "rescan-server"),
    layer("probe.scheduler.schedule_us", "us", "lower", "build_s", "wide-frontier"),
    // sqldb (cursor, wire, storage)
    layer("sqldb.rows_scanned", "rows", "lower", "build_s,sim_cost", "rescan-server,churn-maintain"),
    layer("sqldb.round_trips", "count", "lower", "build_s,sim_cost", "rescan-server"),
    layer("sqldb.pages_read", "pages", "lower", "sim_cost", "rescan-server,churn-maintain"),
    layer("sqldb.statements", "count", "lower", "build_s", "churn-maintain"),
    layer("probe.sqldb.cursor_rows_per_s", "rows/s", "higher", "build_s", "rescan-server"),
    layer("probe.sqldb.groupby_rows_per_s", "rows/s", "higher", "build_s", "rescan-server"),
    layer("probe.sqldb.mutate_rows_per_s", "rows/s", "higher", "build_s", "churn-maintain"),
    // scan pipeline (session scans, executor)
    layer("scan.scan_s", "s", "lower", "build_s,build_cpu_s", "rescan-server,staged-file,staged-mem"),
    layer("scan.rows", "rows", "lower", "build_s", "rescan-server,staged-file,staged-mem"),
    layer("scan.rows_per_s", "rows/s", "higher", "build_s", "rescan-server,staged-file,staged-mem"),
    layer("scan.blocks", "count", "lower", "build_s", "staged-mem"),
    layer("probe.executor.block_rows_per_s", "rows/s", "higher", "build_s,build_cpu_s", "staged-mem,rescan-server"),
    // staging
    layer("staging.decode_s", "s", "lower", "build_s", "staged-file"),
    layer("staging.read_bytes", "B", "lower", "build_s", "staged-file"),
    layer("staging.file_bytes_written", "B", "lower", "build_s,sim_cost", "staged-file"),
    layer("staging.file_rows_read", "rows", "lower", "build_s,sim_cost", "staged-file"),
    layer("staging.mem_rows_staged", "rows", "lower", "sim_cost,peak_model_bytes", "staged-mem"),
    layer("staging.mem_rows_read", "rows", "lower", "build_s,sim_cost", "staged-mem"),
    layer("staging.files_created", "count", "lower", "sim_cost", "staged-file"),
    layer("staging.mem_evictions", "count", "lower", "server_scans", "staged-mem"),
    layer("probe.staging.write_rows_per_s", "rows/s", "higher", "build_s", "staged-file"),
    layer("probe.staging.read_rows_per_s", "rows/s", "higher", "build_s", "staged-file"),
    layer("probe.staging.bytes_per_row", "B", "lower", "build_s", "staged-file"),
    // cc
    layer("cc.validate_s", "s", "lower", "build_s", "staged-mem"),
    layer("cc.accumulate_s", "s", "lower", "build_s", "staged-mem"),
    layer("cc.blocks", "count", "lower", "build_s", "staged-mem"),
    layer("cc.block_fallback_rows", "rows", "lower", "build_s", "staged-file,rescan-server"),
    layer("cc.dense_nodes", "count", "higher", "build_s,peak_rss_mb", "staged-mem"),
    layer("cc.sparse_nodes", "count", "lower", "build_s,peak_rss_mb", "staged-mem"),
    layer("probe.cc.add_block_rows_per_s", "rows/s", "higher", "build_s", "staged-mem"),
    layer("probe.cc.add_block_sparse_rows_per_s", "rows/s", "higher", "build_s", "staged-mem"),
    layer("probe.cc.add_row_rows_per_s", "rows/s", "higher", "build_s", "staged-file,churn-maintain"),
    layer("probe.cc.remove_row_rows_per_s", "rows/s", "higher", "build_s", "churn-maintain"),
    // delta, dtree::maintain
    layer("delta.applied", "events", "lower", "build_s", "churn-maintain"),
    layer("delta.epochs_invalidated", "count", "lower", "server_rows_shipped", "churn-maintain"),
    layer("maintain.nodes_resplit", "nodes", "lower", "build_s,server_rows_shipped", "churn-maintain"),
    layer("maintain.mutate_s", "s", "lower", "build_s", "churn-maintain"),
    layer("maintain.maintain_s", "s", "lower", "build_s", "churn-maintain"),
    layer("maintain.grow_s", "s", "lower", "build_s", "churn-maintain"),
    // harness
    layer("trace.build_s", "s", "lower", "-", "all"),
    layer("trace.unattributed_frac", "ratio", "lower", "-", "all"),
    layer("trace.overhead_frac", "ratio", "lower", "-", "all"),
    layer("tree.nodes", "nodes", "lower", "-", "all"),
    layer("tree.requests", "count", "lower", "build_s", "all"),
];

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn names_are_unique_and_well_formed() {
        let names: Vec<&str> = END_TO_END
            .iter()
            .map(|m| m.name)
            .chain(PER_LAYER.iter().map(|m| m.name))
            .collect();
        let unique: HashSet<&str> = names.iter().copied().collect();
        assert_eq!(unique.len(), names.len(), "duplicate metric name");
        for n in names {
            assert!(n.len() <= 64 && n.starts_with(|c: char| c.is_ascii_alphanumeric()));
            assert!(n
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
        }
    }
}
