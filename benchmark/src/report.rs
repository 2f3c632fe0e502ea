//! Printing, the JSON report, and comparing two reports.

use crate::host::{git_json, host_json};
use crate::json::Json;
use crate::metrics::{EndToEnd, END_TO_END, PER_LAYER};
use crate::run::{Options, Stat, WorkloadReport};
use std::path::Path;

fn stat_json(stat: &Stat, unit: &str) -> Json {
    Json::obj([
        ("value", Json::from(stat.value)),
        ("unit", Json::str(unit)),
        ("spread", Json::from(stat.spread)),
        ("min", Json::from(stat.min)),
        ("q1", Json::from(stat.q1)),
        ("median", Json::from(stat.median)),
        ("q3", Json::from(stat.q3)),
        ("n", Json::from(stat.n as u64)),
    ])
}

fn unit_of(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .map(|m| (m.name, m.unit))
        .chain(PER_LAYER.iter().map(|m| (m.name, m.unit)))
        .find(|(n, _)| *n == name)
        .map_or("", |(_, u)| u)
}

/// `{"value", "unit"}`: how the driver wants each metric.
fn value_json(name: &str, value: f64) -> Json {
    Json::obj([
        ("value", Json::from(value)),
        ("unit", Json::str(unit_of(name))),
    ])
}

/// The one-line result the driver reads: `correct`, `attempted`, `failed`
/// and the run's metrics as `{name: {value, unit}}`.
pub fn driver_line(r: &WorkloadReport) -> Json {
    let metrics = r
        .end_to_end
        .iter()
        .map(|(name, stat)| (*name, value_json(name, stat.value)))
        .chain(
            r.per_layer
                .iter()
                .map(|(name, v)| (*name, value_json(name, *v))),
        );
    Json::obj([
        ("correct", Json::from(r.correct())),
        ("attempted", Json::from(r.attempted)),
        ("failed", Json::from(r.failed)),
        ("metrics", Json::obj(metrics)),
    ])
}

/// One workload of the suite report (what a `--report FILE` run writes).
pub fn workload_json(r: &WorkloadReport) -> Json {
    Json::obj([
        ("name", Json::str(r.name)),
        ("status", Json::str("ok")),
        ("rows", Json::from(r.rows)),
        ("reps", Json::from(r.reps as u64)),
        ("correct", Json::from(r.correct())),
        ("attempted", Json::from(r.attempted)),
        ("failed", Json::from(r.failed)),
        (
            "faults",
            Json::Arr(r.faults.iter().map(Json::str).collect()),
        ),
        ("tree_nodes", Json::from(r.tree_nodes)),
        ("tree_depth", Json::from(r.tree_depth)),
        (
            "end_to_end",
            Json::obj(
                r.end_to_end
                    .iter()
                    .map(|(name, stat)| (*name, stat_json(stat, unit_of(name)))),
            ),
        ),
        (
            "per_layer",
            // With what each layer metric should move, and where: the
            // record `BENCHMARK.json` has no key for travels with results.
            Json::obj(r.per_layer.iter().zip(&PER_LAYER).map(|((name, v), m)| {
                (
                    *name,
                    Json::obj([
                        ("value", Json::from(*v)),
                        ("unit", Json::str(m.unit)),
                        ("moves", Json::str(m.moves)),
                        ("on", Json::str(m.on)),
                    ]),
                )
            })),
        ),
    ])
}

/// The full report of a suite run: host, commit, settings, workloads.
/// `claim` is always null — this benchmark is the ruler, it claims no gain.
pub fn suite_json(workloads: Vec<Json>, opts: &Options, repo: &Path) -> Json {
    Json::obj([
        ("benchmark", Json::str("scaleclass tree-build")),
        ("claim", Json::Null),
        ("host", host_json()),
        ("git", git_json(repo)),
        ("seed", Json::from(opts.seed)),
        ("smoke", Json::from(opts.smoke)),
        ("workloads", Json::Arr(workloads)),
    ])
}

/// Print one workload's metrics, one per line, by name with unit.
pub fn print_workload(r: &WorkloadReport) {
    println!(
        "\n== {}: {} rows, tree {} nodes / depth {}, {} timed rep(s), {} ops attempted, {} failed ==",
        r.name, r.rows, r.tree_nodes, r.tree_depth, r.reps, r.attempted, r.failed
    );
    for fault in &r.faults {
        println!("  FAULT: {fault}");
    }
    if !r.end_to_end.is_empty() {
        println!(
            "  {:<22} {:>16} {:<6} {:>14} {:>14} {:>14} {:>14} {:>3} {:>6}",
            "end-to-end", "value", "unit", "min", "q1", "median", "q3", "n", "bound"
        );
    }
    for ((name, s), m) in r.end_to_end.iter().zip(&END_TO_END) {
        let bound = if m.exact {
            "exact".to_string()
        } else {
            format!("{:.2}", m.bound)
        };
        println!(
            "  {:<22} {:>16.6} {:<6} {:>14.6} {:>14.6} {:>14.6} {:>14.6} {:>3} {:>6}",
            name, s.value, m.unit, s.min, s.q1, s.median, s.q3, s.n, bound
        );
    }
    if !r.per_layer.is_empty() {
        let build_s = r
            .per_layer
            .iter()
            .find(|(n, _)| *n == "trace.build_s")
            .map_or(0.0, |(_, v)| *v);
        println!(
            "  {:<38} {:>18} {:<7} {:>9}",
            "per-layer (traced build)", "value", "unit", "of build"
        );
        for ((name, v), m) in r.per_layer.iter().zip(&PER_LAYER) {
            // A share of the traced build only means something for times
            // measured inside it.
            let share = if m.unit == "s" && build_s > 0.0 {
                format!("{:>8.1}%", 100.0 * v / build_s)
            } else {
                String::new()
            };
            println!("  {:<38} {:>18.6} {:<7} {}", name, v, m.unit, share);
        }
    }
}

/// How a changed metric compares with the parent's.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Better by more than the bound (or a smaller exact count).
    Better,
    /// Within the bound (or the same exact count).
    Same,
    /// Worse by more than the bound (or a larger exact count).
    Worse,
    /// Run-to-run spread wider than the bound: cannot tell.
    Unresolved,
}

/// One workload x end-to-end metric row of a comparison.
#[derive(Debug)]
pub struct CompareRow {
    /// Workload name.
    pub workload: String,
    /// The metric compared.
    pub metric: &'static EndToEnd,
    /// Parent's value.
    pub base: f64,
    /// Change's value.
    pub new: f64,
    /// Wider of the two sides' [`Stat::spread`].
    pub spread: f64,
    /// The verdict.
    pub verdict: Verdict,
}

impl CompareRow {
    /// `new / base` (1 when both are 0).
    pub fn ratio(&self) -> f64 {
        if self.base == 0.0 {
            if self.new == 0.0 {
                1.0
            } else {
                f64::INFINITY
            }
        } else {
            self.new / self.base
        }
    }

    /// Did the metric move by more than its bound, in either direction (any
    /// change at all, for an exact count)? What `--selfcheck` fails on.
    pub fn differs(&self) -> bool {
        matches!(self.verdict, Verdict::Better | Verdict::Worse)
            || (self.verdict == Verdict::Unresolved
                && (self.ratio() - 1.0).abs() > self.metric.bound)
    }
}

/// Operations failed, compared like an exact count: a report with more
/// failures than its base is worse, whatever its timings say.
static FAILED_OPS: EndToEnd = EndToEnd {
    name: "failed",
    unit: "ops",
    bound: 0.0,
    exact: true,
};

fn exact_verdict(base: f64, new: f64) -> Verdict {
    match new.total_cmp(&base) {
        std::cmp::Ordering::Less => Verdict::Better,
        std::cmp::Ordering::Equal => Verdict::Same,
        std::cmp::Ordering::Greater => Verdict::Worse,
    }
}

/// Compare two suite reports: per workload of the base, one row for the
/// failed operations and one per end-to-end metric. A workload the new
/// report lacks is an error. All metrics are lower-is-better.
pub fn compare(base: &Json, new: &Json) -> Result<Vec<CompareRow>, String> {
    let workloads = |j: &Json| -> Result<Vec<Json>, String> {
        j.get("workloads")
            .and_then(Json::as_arr)
            .map(<[Json]>::to_vec)
            .ok_or_else(|| "report has no `workloads` array".to_string())
    };
    let new_workloads = workloads(new)?;
    let mut rows = Vec::new();
    for b in workloads(base)? {
        let name = b.get("name").and_then(Json::as_str).unwrap_or("?");
        let Some(n) = new_workloads
            .iter()
            .find(|n| n.get("name").and_then(Json::as_str) == Some(name))
        else {
            return Err(format!("{name}: in the base report, not in the new one"));
        };
        let failed = |side: &Json| {
            side.get("failed")
                .and_then(Json::as_f64)
                .ok_or_else(|| format!("{name}: no `failed` count"))
        };
        let (base_failed, new_failed) = (failed(&b)?, failed(n)?);
        rows.push(CompareRow {
            workload: name.to_string(),
            metric: &FAILED_OPS,
            base: base_failed,
            new: new_failed,
            spread: 0.0,
            verdict: exact_verdict(base_failed, new_failed),
        });
        for metric in &END_TO_END {
            let field = |side: &Json, key: &str| {
                side.get("end_to_end")
                    .and_then(|e| e.get(metric.name))
                    .and_then(|m| m.get(key))
                    .and_then(Json::as_f64)
                    .ok_or_else(|| format!("{name}: no {}.{key}", metric.name))
            };
            let (base_v, new_v) = (field(&b, "value")?, field(n, "value")?);
            let spread = field(&b, "spread")?.max(field(n, "spread")?);
            let verdict = if metric.exact {
                exact_verdict(base_v, new_v)
            } else if spread > metric.bound {
                Verdict::Unresolved
            } else if new_v > base_v * (1.0 + metric.bound) {
                Verdict::Worse
            } else if new_v < base_v * (1.0 - metric.bound) {
                Verdict::Better
            } else {
                Verdict::Same
            };
            rows.push(CompareRow {
                workload: name.to_string(),
                metric,
                base: base_v,
                new: new_v,
                spread,
                verdict,
            });
        }
    }
    Ok(rows)
}

/// Print comparison rows; every ratio is given with its base.
pub fn print_compare(rows: &[CompareRow]) {
    println!(
        "{:<16} {:<20} {:>16} {:>16} {:>22} {:>8} {:>7}  verdict",
        "workload", "metric", "base", "new", "new/base (of base)", "spread", "bound"
    );
    for r in rows {
        let bound = if r.metric.exact {
            "exact".to_string()
        } else {
            format!("{:.2}", r.metric.bound)
        };
        println!(
            "{:<16} {:<20} {:>16.6} {:>16.6} {:>9.4} of {:<10.4} {:>7.1}% {:>7}  {}",
            r.workload,
            r.metric.name,
            r.base,
            r.new,
            r.ratio(),
            r.base,
            100.0 * r.spread,
            bound,
            match r.verdict {
                Verdict::Better => "better",
                Verdict::Same => "same",
                Verdict::Worse => "worse",
                Verdict::Unresolved => "unresolved",
            }
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A one-workload report whose `build_s` reps took `build_s`.
    fn report(build_s: &[f64], scans: f64, failed: u64) -> Json {
        let stat = |samples: &[f64], unit| stat_json(&Stat::fastest(samples), unit);
        let end_to_end = END_TO_END.iter().map(|m| {
            let s = match m.name {
                "build_s" => stat(build_s, "s"),
                "server_scans" => stat(&[scans], "scans"),
                _ => stat(&[1.0], m.unit),
            };
            (m.name, s)
        });
        Json::obj([(
            "workloads",
            Json::Arr(vec![Json::obj([
                ("name", Json::str("w")),
                ("failed", Json::from(failed)),
                ("end_to_end", Json::obj(end_to_end)),
            ])]),
        )])
    }

    fn verdict(rows: &[CompareRow], metric: &str) -> Verdict {
        rows.iter()
            .find(|r| r.metric.name == metric)
            .unwrap()
            .verdict
    }

    #[test]
    fn verdicts_follow_bound_spread_and_exactness() {
        // Cases are placed relative to build_s's bound, whatever it is.
        let b = END_TO_END
            .iter()
            .find(|m| m.name == "build_s")
            .unwrap()
            .bound;
        let tight = |fastest: f64| [fastest, fastest + 0.005, fastest + 0.01, fastest + 0.1];
        let base = report(&tight(1.0), 18.0, 0);

        let rows = compare(&base, &report(&tight(1.0 + 2.0 * b), 19.0, 0)).unwrap();
        assert_eq!(verdict(&rows, "build_s"), Verdict::Worse);
        assert_eq!(verdict(&rows, "server_scans"), Verdict::Worse, "+1");
        assert_eq!(verdict(&rows, "setup_s"), Verdict::Same);
        assert!(rows.iter().any(CompareRow::differs));

        let rows = compare(&base, &report(&tight(1.0 - 2.0 * b), 17.0, 0)).unwrap();
        assert_eq!(verdict(&rows, "build_s"), Verdict::Better);
        assert_eq!(verdict(&rows, "server_scans"), Verdict::Better);

        // Half a bound apart, but no other rep within two bounds of the
        // fastest: nothing corroborates it.
        let slow = 1.0 + 9.0 * b;
        let noisy = [1.0 + b / 2.0, slow, slow, slow];
        let rows = compare(&base, &report(&noisy, 18.0, 0)).unwrap();
        assert_eq!(verdict(&rows, "build_s"), Verdict::Unresolved);
        assert!(!rows.iter().any(CompareRow::differs));

        let rows = compare(&base, &base).unwrap();
        assert!(rows.iter().all(|r| r.verdict == Verdict::Same));

        // Identical metrics, but operations failed: worse, and it differs.
        let rows = compare(&base, &report(&tight(1.0), 18.0, 3)).unwrap();
        assert_eq!(verdict(&rows, "failed"), Verdict::Worse);
        assert!(rows.iter().any(CompareRow::differs));

        // A workload that vanished is an error, not a shorter table.
        let empty = Json::obj([("workloads", Json::Arr(Vec::new()))]);
        assert!(compare(&base, &empty).unwrap_err().contains("w:"));
        assert!(compare(&empty, &base).unwrap().is_empty());
    }
}
