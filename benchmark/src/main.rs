//! Command line of the benchmark. See `usage()`.

use scaleclass_benchmark::host;
use scaleclass_benchmark::json::Json;
use scaleclass_benchmark::report::{
    compare, driver_line, print_compare, print_workload, suite_json, workload_json, Verdict,
};
use scaleclass_benchmark::run::{run, Options};
use scaleclass_benchmark::workloads::{Workload, WORKLOADS};
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

/// Seed used when `--seed` is absent.
const DEFAULT_SEED: u64 = 1;

fn usage() -> ExitCode {
    eprintln!(
        "usage: scaleclass-benchmark MODE [--seed N] [--smoke] [--out-dir DIR]\n\
         `--seconds S` is accepted for the driver and ignored: the work is fixed.\n\
         modes:\n  \
           --workload NAME --trace 0|1|both [--report FILE]\n  \
                                      one run; the last stdout line is the driver's JSON\n  \
           --all [--out FILE]         every workload, untraced then traced; writes the suite report\n  \
           --selfcheck                A/A: the suite twice in ABBA order; exit 1 if a metric differs\n  \
                                      by more than its bound\n  \
           --compare BASE.json NEW.json\n  \
                                      verdict per workload x end-to-end metric; exit 1 if any is\n  \
                                      worse, a workload is missing or more operations failed\n\
         workloads: {}",
        WORKLOADS.map(|w| w.name).join(", ")
    );
    ExitCode::from(2)
}

fn load(path: &Path) -> Result<Json, String> {
    std::fs::read_to_string(path)
        .map_err(|e| e.to_string())
        .and_then(|text| Json::parse(&text))
        .map_err(|e| format!("{}: {e}", path.display()))
}

/// Run one workload in a child process of this same binary and return the
/// workload report it wrote. A process per run is what the driver does, and
/// it is what keeps `peak_rss_mb` (a process-wide high-water mark) and the
/// allocator's state from leaking between workloads.
fn run_child(w: &Workload, trace: &str, opts: &Options) -> Result<Json, String> {
    let report = opts.out_dir.join(format!("report-{}.json", w.name));
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut child = Command::new(exe);
    child
        .args(["--workload", w.name, "--trace", trace])
        .args(["--seed", &opts.seed.to_string()])
        .arg("--out-dir")
        .arg(&opts.out_dir)
        .arg("--report")
        .arg(&report);
    if opts.smoke {
        child.arg("--smoke");
    }
    let status = child.status().map_err(|e| e.to_string())?;
    if !status.success() {
        return Err(format!("{} run failed: {status}", w.name));
    }
    load(&report)
}

fn all_correct(workloads: &[Json]) -> bool {
    workloads
        .iter()
        .all(|w| w.get("correct") == Some(&Json::Bool(true)))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let flag = |name: &str| args.iter().any(|a| a == name);
    let values = |name: &str, n: usize| -> Option<&[String]> {
        let at = args.iter().position(|a| a == name)?;
        args.get(at + 1..at + 1 + n)
    };
    let value = |name: &str| values(name, 1).map(|v| v[0].as_str());

    let manifest_dir = Path::new(env!("CARGO_MANIFEST_DIR"));
    let repo = manifest_dir.parent().unwrap_or(manifest_dir);
    let smoke = flag("--smoke");
    let seed = match value("--seed").map(str::parse::<u64>) {
        None => DEFAULT_SEED,
        Some(Ok(s)) => s,
        Some(Err(_)) => return usage(),
    };
    let opts = Options {
        seed,
        smoke,
        out_dir: value("--out-dir").map_or_else(|| manifest_dir.join("out"), PathBuf::from),
    };
    if let Err(e) = std::fs::create_dir_all(&opts.out_dir) {
        eprintln!("cannot create {}: {e}", opts.out_dir.display());
        return ExitCode::FAILURE;
    }
    let fail = |e: String| {
        eprintln!("{e}");
        ExitCode::FAILURE
    };

    if let Some(files) = values("--compare", 2) {
        let rows = load(Path::new(&files[0]))
            .and_then(|base| load(Path::new(&files[1])).and_then(|new| compare(&base, &new)));
        return match rows {
            Ok(rows) => {
                print_compare(&rows);
                let worse = rows.iter().filter(|r| r.verdict == Verdict::Worse).count();
                println!("\ncompare: {worse} of {} rows worse", rows.len());
                if worse == 0 {
                    ExitCode::SUCCESS
                } else {
                    ExitCode::FAILURE
                }
            }
            Err(e) => fail(e),
        };
    }

    if let Some(name) = value("--workload") {
        let (Some(w), Some(trace)) = (Workload::find(name), value("--trace")) else {
            return usage();
        };
        println!(
            "scaleclass tree-build benchmark: seed {}{}, nproc {}, cpu \"{}\"",
            opts.seed,
            if smoke { " (smoke)" } else { "" },
            host::nproc(),
            host::cpu_model()
        );
        let report = match trace {
            "0" => run(w, &opts, false),
            "1" => run(w, &opts, true),
            // End-to-end metrics first, from a process the traced pass
            // has not touched yet; then the ledger.
            "both" => {
                let mut report = run(w, &opts, false);
                let traced = run(w, &opts, true);
                report.per_layer = traced.per_layer;
                report.attempted += traced.attempted;
                report.failed += traced.failed;
                report.faults.extend(traced.faults);
                report
            }
            _ => return usage(),
        };
        print_workload(&report);
        if let Some(path) = value("--report") {
            if let Err(e) = std::fs::write(path, workload_json(&report).to_string()) {
                return fail(format!("cannot write {path}: {e}"));
            }
        }
        // `both` is this harness's own mode (one child of `--all`); its
        // result is the report file, not a driver line.
        if trace != "both" {
            println!("{}", driver_line(&report));
        }
        return ExitCode::SUCCESS;
    }

    if flag("--all") {
        let workloads: Result<Vec<Json>, String> = WORKLOADS
            .iter()
            .map(|w| run_child(w, "both", &opts))
            .collect();
        let workloads = match workloads {
            Ok(w) => w,
            Err(e) => return fail(e),
        };
        let correct = all_correct(&workloads);
        let out = value("--out").map_or_else(|| opts.out_dir.join("report.json"), PathBuf::from);
        if let Err(e) = std::fs::write(&out, suite_json(workloads, &opts, repo).to_string()) {
            return fail(format!("cannot write {}: {e}", out.display()));
        }
        println!("\nreport: {}", out.display());
        return if correct {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        };
    }

    if flag("--selfcheck") {
        // ABBA: the second pass runs the workloads in reverse, so slow
        // drift of the host does not line up with workload order.
        let pass = |order: &mut dyn Iterator<Item = &Workload>| -> Result<Vec<Json>, String> {
            order.map(|w| run_child(w, "0", &opts)).collect()
        };
        let passes = pass(&mut WORKLOADS.iter())
            .and_then(|first| pass(&mut WORKLOADS.iter().rev()).map(|second| (first, second)));
        let (first, second) = match passes {
            Ok(p) => p,
            Err(e) => return fail(e),
        };
        let correct = all_correct(&first) && all_correct(&second);
        let rows = compare(
            &suite_json(first, &opts, repo),
            &suite_json(second, &opts, repo),
        )
        .expect("own reports compare");
        println!();
        print_compare(&rows);
        let differing = rows.iter().filter(|r| r.differs()).count();
        println!(
            "\nselfcheck: {differing} of {} metric rows differ by more than their bound{}",
            rows.len(),
            if correct { "" } else { "; a run was INCORRECT" }
        );
        return if differing == 0 && correct {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        };
    }

    usage()
}
