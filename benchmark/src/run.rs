//! One run: a workload's reps, its correctness gate and its metrics.
//!
//! A rep generates and loads a fresh table, opens a fresh `Middleware` and
//! executes one complete build. An untraced run is 1 warm-up +
//! [`TIMED_REPS`] timed reps and yields the end-to-end metrics: every timing
//! is that of the fastest timed rep ([`Stat::fastest`] says why), resident
//! memory the median. A traced run is warm-up + one timed reference rep +
//! one traced rep and yields the per-layer ledger plus the isolated probes.
//! The work is fixed: nothing here loops until a clock runs out.

use crate::host::{cpu_seconds, peak_rss_mib, reset_peak_rss};
use crate::metrics::{END_TO_END, PER_LAYER};
use crate::probes;
use crate::trace::{build, Tracer};
use crate::workloads::{churn_script, Mutation, Workload, CLASS_COLUMN, TABLE};
use scaleclass::{CcRequest, Middleware, MiddlewareStats, ScanStats};
use scaleclass_dtree::{
    grow_in_memory, trees_same_splits, trees_structurally_equal, DecisionTree, GrowConfig,
};
use scaleclass_sqldb::{Pred, StatsSnapshot};
use std::collections::HashMap;
use std::path::PathBuf;
use std::time::Instant;

/// Timed reps of an untraced run. A constant, so that every statistic is
/// over the same number of builds on every commit. Many builds of about a
/// second rather than a few long ones: the shared host slows down in bursts
/// of 5-15 s (memory-bound code by up to 3x, these builds by up to 45 %),
/// and the shorter the rep, the likelier that one falls between two bursts.
pub const TIMED_REPS: usize = 16;

/// How to run.
#[derive(Debug, Clone)]
pub struct Options {
    /// Draws the row order of every table.
    pub seed: u64,
    /// Tiny tables, no warm-up, one timed rep.
    pub smoke: bool,
    /// Where staging files and traces go (`benchmark/out`).
    pub out_dir: PathBuf,
}

/// One metric over the timed reps: the reported value, how far the samples
/// corroborate it, and the samples' quartiles.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Stat {
    /// The reported value: `min` or `median`, by constructor.
    pub value: f64,
    /// How loosely the samples stand behind `value`, as a share of it; a
    /// comparison is unresolved when this exceeds the metric's bound.
    pub spread: f64,
    /// Smallest sample.
    pub min: f64,
    /// First quartile (Python `statistics.quantiles(n=4)` method).
    pub q1: f64,
    /// Median.
    pub median: f64,
    /// Third quartile.
    pub q3: f64,
    /// Samples.
    pub n: usize,
}

impl Stat {
    fn new(samples: &[f64], fastest: bool) -> Stat {
        let mut x = samples.to_vec();
        x.sort_by(f64::total_cmp);
        let [q1, median, q3] = quartiles(&x);
        let (value, width) = if fastest {
            (x[0], q1 - x[0])
        } else {
            (median, q3 - q1)
        };
        Stat {
            value,
            spread: if value == 0.0 { 0.0 } else { width / value },
            min: x[0],
            q1,
            median,
            q3,
            n: x.len(),
        }
    }

    /// A timing of fixed work: the fastest of `samples` (non-empty). What
    /// the shared host adds to a rep is never negative and comes in bursts,
    /// so the fastest rep is the one least disturbed, and it repeats between
    /// runs where the median follows however many reps a burst covered.
    /// `spread` is how far the fastest quarter of the reps lies above it.
    pub fn fastest(samples: &[f64]) -> Stat {
        Stat::new(samples, true)
    }

    /// A quantity without one-sided noise: the median of `samples`
    /// (non-empty); `spread` is the interquartile range.
    pub fn median_of(samples: &[f64]) -> Stat {
        Stat::new(samples, false)
    }
}

/// Quartile cut points of sorted `x`, by the exclusive method Python's
/// `statistics.quantiles(x, n=4)` defaults to (the driver's yardstick).
pub fn quartiles(x: &[f64]) -> [f64; 3] {
    let len = x.len();
    if len == 1 {
        return [x[0]; 3];
    }
    let m = len + 1;
    [1usize, 2, 3].map(|i| {
        let j = (i * m / 4).clamp(1, len - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (x[j - 1] * (4.0 - delta) + x[j] * delta) / 4.0
    })
}

/// Everything one workload's run reports.
#[derive(Debug, Clone)]
pub struct WorkloadReport {
    /// Workload name.
    pub name: &'static str,
    /// Rows in the generated table.
    pub rows: u64,
    /// Timed reps behind each end-to-end value.
    pub reps: usize,
    /// Operations attempted over all reps: CC requests fulfilled, mutation
    /// statements, maintain rounds.
    pub attempted: u64,
    /// Operations of reps whose tree was wrong or whose counters drifted.
    pub failed: u64,
    /// Which counter drifted or which tree mismatched, if any.
    pub faults: Vec<String>,
    /// Nodes of the finished tree.
    pub tree_nodes: u64,
    /// Its depth.
    pub tree_depth: u64,
    /// End-to-end metrics in registry order (empty for a traced run).
    pub end_to_end: Vec<(&'static str, Stat)>,
    /// Per-layer metrics in registry order (empty for an untraced run).
    pub per_layer: Vec<(&'static str, f64)>,
}

impl WorkloadReport {
    /// Did every operation of every rep succeed?
    pub fn correct(&self) -> bool {
        self.failed == 0
    }
}

/// What one rep measured.
struct Rep {
    setup_s: f64,
    build_s: f64,
    build_cpu_s: f64,
    /// `VmHWM` after the build, reset after set-up.
    peak_rss_mib: f64,
    server: StatsSnapshot,
    mw: MiddlewareStats,
    scan: ScanStats,
    /// Mutation statements + maintain rounds executed.
    churn_ops: u64,
    /// See [`crate::trace::Built::widest_queue`].
    widest_queue: Vec<CcRequest>,
    /// `(nodes, depth)` of the tree.
    shape: (u64, u64),
    /// Is the tree structurally equal to the first rep's?
    same_tree: bool,
    tracer: Tracer,
}

impl Rep {
    /// The counts that must be identical on every rep of a run.
    fn exact_counts(&self) -> [(&'static str, u64); 6] {
        [
            ("server_rows_shipped", self.server.rows_shipped),
            ("server_scans", self.server.seq_scans),
            (
                "sim_cost",
                self.server.simulated_cost() + self.mw.simulated_cost(),
            ),
            ("peak_model_bytes", self.mw.peak_memory_bytes),
            ("tree_nodes", self.shape.0),
            ("tree_depth", self.shape.1),
        ]
    }

    fn ops(&self) -> u64 {
        self.mw.requests_served + self.churn_ops
    }
}

/// Generate and load a fresh table and open a fresh middleware over it.
fn set_up(w: &Workload, opts: &Options) -> Middleware {
    let table = w.generate_table(opts.seed, opts.smoke);
    let config = w.config(table.data_bytes(), &opts.out_dir.join("staging"));
    let db = scaleclass_datagen::into_database(table.schema, &table.rows, TABLE);
    Middleware::new(db, TABLE, CLASS_COLUMN, config).expect("open middleware")
}

/// Set up, then run one build.
/// The tree goes to `first_tree` if that is empty and is compared with it
/// and dropped otherwise: trees kept per rep would sit in every later
/// build's resident size. The middleware is handed back so the last rep's
/// table can feed the oracle.
fn one_rep(
    w: &Workload,
    opts: &Options,
    script: &[Vec<Mutation>],
    mut tracer: Tracer,
    first_tree: &mut Option<DecisionTree>,
) -> (Rep, Middleware) {
    let start = Instant::now();
    let mut mw = set_up(w, opts);
    let setup_s = start.elapsed().as_secs_f64();

    // From here the loaded table is the only copy in memory, and the
    // high-water mark counts what the build adds to it.
    reset_peak_rss();
    let before = mw.db_stats();
    let cpu_before = cpu_seconds();
    let start = Instant::now();
    let built = build(&mut mw, script, &GrowConfig::default(), &mut tracer).expect("build");
    let build_s = start.elapsed().as_secs_f64();
    let build_cpu_s = cpu_seconds() - cpu_before;
    let peak_rss_mib = peak_rss_mib();

    let shape = shape(&built.tree);
    let same_tree = match first_tree {
        Some(first) => trees_structurally_equal(&built.tree, first),
        None => {
            *first_tree = Some(built.tree);
            true
        }
    };
    let rep = Rep {
        setup_s,
        build_s,
        build_cpu_s,
        peak_rss_mib,
        server: mw.db_stats() - before,
        mw: *mw.stats(),
        scan: mw.scan_stats().clone(),
        churn_ops: built.statements + built.maintain_rounds,
        widest_queue: built.widest_queue,
        shape,
        same_tree,
        tracer,
    };
    (rep, mw)
}

/// `(nodes, depth)` of the tree reachable from the root. Maintained trees
/// keep replaced subtrees in the arena as garbage, so `tree.len()` is not
/// the node count.
fn shape(tree: &DecisionTree) -> (u64, u64) {
    let (mut nodes, mut depth) = (0u64, 0u64);
    let mut stack = vec![0usize];
    while let Some(i) = stack.pop() {
        let n = tree.node(i);
        nodes += 1;
        depth = depth.max(n.depth as u64);
        stack.extend(&n.children);
    }
    (nodes, depth)
}

/// Run `w`: untraced (end-to-end metrics) or traced (per-layer metrics).
pub fn run(w: &'static Workload, opts: &Options, traced: bool) -> WorkloadReport {
    let base = w.generate_base(opts.smoke);
    let script = w.churn.map_or(Vec::new(), |c| churn_script(&c, &base));
    let rows = base.nrows() as u64;
    drop(base);
    let warmups = usize::from(!opts.smoke);
    let timed = if traced || opts.smoke { 1 } else { TIMED_REPS };
    let total = warmups + timed + usize::from(traced);
    let mut reps: Vec<Rep> = Vec::with_capacity(total);
    let mut last_mw = None;
    let mut first_tree = None;
    for i in 0..total {
        // The previous rep's table must be gone before the next is built.
        drop(last_mw.take());
        let tracer = if traced && i + 1 == total {
            Tracer::enabled(i as u32)
        } else {
            Tracer::disabled()
        };
        let (rep, mw) = one_rep(w, opts, &script, tracer, &mut first_tree);
        reps.push(rep);
        last_mw = Some(mw);
    }

    // Correctness gate. The oracle, `dtree::grow_in_memory`, grows the last
    // rep's table (after its mutations, for churn) from raw rows; the first
    // rep's tree must equal it, and every other rep must have produced the
    // first rep's tree and the last rep's exact counts.
    let last_mw = last_mw.expect("at least one rep");
    let final_rows = last_mw.extract_all(Pred::True).expect("extract table");
    let start = Instant::now();
    let expected = grow_in_memory(
        &final_rows,
        last_mw.schema().arity(),
        last_mw.class_col(),
        last_mw.attrs(),
        &GrowConfig::default(),
    );
    println!(
        "oracle: dtree::grow_in_memory took {:.2} s, outside every timed interval",
        start.elapsed().as_secs_f64()
    );
    drop(final_rows);
    drop(last_mw);

    let mut faults = Vec::new();
    let mut failed = 0u64;
    let last = reps.last().expect("at least one rep");
    // A maintained tree's internal nodes carry patched, not rescanned,
    // counts; split-level identity is what `maintain` guarantees.
    let first_tree = first_tree.expect("at least one rep");
    let oracle_ok = if w.churn.is_some() {
        trees_same_splits(&first_tree, &expected)
    } else {
        trees_structurally_equal(&first_tree, &expected)
    };
    if !oracle_ok {
        faults.push("tree differs from the in-memory oracle".to_string());
    }
    for (i, rep) in reps.iter().enumerate() {
        let mut bad = !oracle_ok;
        if !rep.same_tree {
            faults.push(format!("rep {i}: tree differs from the first rep's"));
            bad = true;
        }
        for ((name, got), (_, want)) in rep.exact_counts().iter().zip(last.exact_counts()) {
            if *got != want {
                faults.push(format!("rep {i}: {name} drifted: {got} vs {want}"));
                bad = true;
            }
        }
        if bad {
            failed += rep.ops();
        }
    }

    let timed_reps = &reps[warmups..warmups + timed];
    let samples = |f: &dyn Fn(&Rep) -> f64| timed_reps.iter().map(f).collect::<Vec<_>>();
    let mut report = WorkloadReport {
        name: w.name,
        rows,
        reps: timed,
        attempted: reps.iter().map(Rep::ops).sum(),
        failed,
        faults,
        tree_nodes: last.shape.0,
        tree_depth: last.shape.1,
        end_to_end: Vec::new(),
        per_layer: Vec::new(),
    };

    if traced {
        let reference_build_s = Stat::fastest(&samples(&|r| r.build_s)).value;
        let trace_path = opts.out_dir.join(format!("trace-{}.json", w.name));
        std::fs::write(&trace_path, last.tracer.to_json(w.name).to_string()).expect("write trace");
        let table = w.generate_table(opts.seed, opts.smoke);
        let probed = probes::run_all(w, &table, &last.widest_queue, opts);
        report.per_layer = layer_metrics(last, reference_build_s, probed);
    } else {
        let exact: HashMap<&str, u64> = last.exact_counts().into_iter().collect();
        report.end_to_end = END_TO_END
            .iter()
            .map(|m| {
                let stat = match m.name {
                    "setup_s" => Stat::fastest(&samples(&|r| r.setup_s)),
                    "build_s" => Stat::fastest(&samples(&|r| r.build_s)),
                    "build_cpu_s" => Stat::fastest(&samples(&|r| r.build_cpu_s)),
                    "peak_rss_mb" => Stat::median_of(&samples(&|r| r.peak_rss_mib)),
                    count => Stat::median_of(&[exact[count] as f64]),
                };
                (m.name, stat)
            })
            .collect();
    }
    report
}

/// The per-layer ledger of the traced rep, in registry order.
fn layer_metrics(
    rep: &Rep,
    reference_build_s: f64,
    probed: Vec<(&'static str, f64)>,
) -> Vec<(&'static str, f64)> {
    let tr = &rep.tracer;
    let (s, db) = (&rep.mw, &rep.server);
    let secs = |nanos: u64| nanos as f64 / 1e9;
    let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };

    let mut batches_ms: Vec<f64> = tr.durations("mw.batch").iter().map(|d| d * 1e3).collect();
    let root_batch_s = batches_ms.first().map_or(0.0, |ms| ms / 1e3);
    batches_ms.sort_by(f64::total_cmp);
    let batch_s = tr.total("mw.batch");
    let scan_s = secs(s.scan_nanos);
    // Span 0 is the `build` span: its self time is build wall that no
    // layer span covers.
    let build_s = tr.spans[0].secs();

    let mut values: HashMap<&'static str, f64> = probed.into_iter().collect();
    values.extend([
        ("client.decide_s", tr.total("client.decide")),
        ("client.derive_s", tr.total("client.derive")),
        ("mw.enqueue_s", tr.total("mw.enqueue")),
        ("mw.batch_s", batch_s),
        (
            "mw.batch_ms_p50",
            batches_ms.get(batches_ms.len() / 2).copied().unwrap_or(0.0),
        ),
        ("mw.batch_ms_max", batches_ms.last().copied().unwrap_or(0.0)),
        ("mw.rounds", s.rounds as f64),
        ("mw.root_batch_s", root_batch_s),
        // Churn builds see no batch spans (library calls); clamp, don't go negative.
        ("mw.other_s", (batch_s - scan_s).max(0.0)),
        (
            "scheduler.nodes_per_round",
            ratio(s.requests_served as f64, s.rounds as f64),
        ),
        ("scheduler.sql_fallbacks", s.sql_fallbacks as f64),
        ("sqldb.rows_scanned", db.rows_scanned as f64),
        ("sqldb.round_trips", db.wire_round_trips as f64),
        ("sqldb.pages_read", db.pages_read as f64),
        ("sqldb.statements", db.statements as f64),
        ("scan.scan_s", scan_s),
        ("scan.rows", s.scan_rows as f64),
        ("scan.rows_per_s", ratio(s.scan_rows as f64, scan_s)),
        ("scan.blocks", s.scan_blocks as f64),
        (
            "staging.decode_s",
            secs(rep.scan.workers.iter().map(|w| w.decode_ns).sum()),
        ),
        ("staging.read_bytes", rep.scan.total_read_bytes() as f64),
        ("staging.file_bytes_written", s.file_bytes_written as f64),
        ("staging.file_rows_read", s.file_rows_read as f64),
        ("staging.mem_rows_staged", s.memory_rows_staged as f64),
        ("staging.mem_rows_read", s.memory_rows_read as f64),
        ("staging.files_created", s.files_created as f64),
        (
            "staging.mem_evictions",
            (s.memory_sets_evicted + s.pressure_evictions) as f64,
        ),
        ("cc.validate_s", secs(s.kernel_validate_nanos)),
        ("cc.accumulate_s", secs(s.kernel_accumulate_nanos)),
        ("cc.blocks", s.blocks_counted as f64),
        ("cc.block_fallback_rows", s.block_fallback_rows as f64),
        ("cc.dense_nodes", s.dense_nodes as f64),
        ("cc.sparse_nodes", s.sparse_nodes as f64),
        ("delta.applied", s.deltas_applied as f64),
        ("delta.epochs_invalidated", s.epochs_invalidated as f64),
        ("maintain.nodes_resplit", s.nodes_resplit as f64),
        ("maintain.mutate_s", tr.total("maintain.mutate")),
        ("maintain.maintain_s", tr.total("maintain.maintain")),
        ("maintain.grow_s", tr.total("maintain.grow")),
        ("trace.build_s", build_s),
        ("trace.unattributed_frac", ratio(tr.self_secs(0), build_s)),
        (
            "trace.overhead_frac",
            ratio(rep.build_s, reference_build_s) - 1.0,
        ),
        ("tree.nodes", rep.shape.0 as f64),
        ("tree.requests", s.requests_served as f64),
    ]);
    PER_LAYER
        .iter()
        .map(|m| {
            let v = values
                .get(m.name)
                .unwrap_or_else(|| panic!("no value computed for per-layer metric {}", m.name));
            (m.name, *v)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1, 2, 4, 7, 11], n=4) == [1.5, 4.0, 9.0]
        assert_eq!(quartiles(&[1.0, 2.0, 4.0, 7.0, 11.0]), [1.5, 4.0, 9.0]);
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), [2.75, 5.5, 8.25]);
        assert_eq!(quartiles(&[3.0]), [3.0; 3]);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), [0.75, 1.5, 2.25]);
    }
}
