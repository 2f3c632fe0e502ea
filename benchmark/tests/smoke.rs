//! End-to-end checks of the harness itself, on `--smoke` tables: the names
//! it emits are exactly the ones `BENCHMARK.json` declares, its counts
//! repeat (across runs *and* seeds), its traces are well formed, and the
//! driver protocol holds.

use scaleclass_benchmark::json::Json;
use scaleclass_benchmark::metrics::{END_TO_END, PER_LAYER};
use scaleclass_benchmark::workloads::WORKLOADS;
use std::path::{Path, PathBuf};
use std::process::Command;

const BIN: &str = env!("CARGO_BIN_EXE_scaleclass-benchmark");

/// A scratch directory under `benchmark/out/` (git-ignored), one per use so
/// tests running in parallel never share trace or report files.
fn out_dir(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("out")
        .join(format!("test-{name}"))
}

/// Run the benchmark binary; returns its stdout. Panics unless it exits 0.
fn bench(args: &[&str], out: &Path) -> String {
    let output = Command::new(BIN)
        .args(args)
        .arg("--out-dir")
        .arg(out)
        .output()
        .expect("spawn benchmark");
    assert!(
        output.status.success(),
        "{args:?} failed:\n{}",
        String::from_utf8_lossy(&output.stderr)
    );
    String::from_utf8(output.stdout).expect("utf-8 stdout")
}

fn load(path: &Path) -> Json {
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
    Json::parse(&text).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

fn names(obj: &Json) -> Vec<&str> {
    obj.as_obj()
        .expect("object")
        .iter()
        .map(|(k, _)| k.as_str())
        .collect()
}

fn text<'a>(obj: &'a Json, key: &str) -> &'a str {
    obj.get(key)
        .and_then(Json::as_str)
        .unwrap_or_else(|| panic!("no string `{key}`"))
}

fn number(obj: &Json, key: &str) -> f64 {
    obj.get(key)
        .and_then(Json::as_f64)
        .unwrap_or_else(|| panic!("no number `{key}`"))
}

/// Units of metrics that are counts the program makes, not timings.
fn is_count(unit: &str) -> bool {
    matches!(
        unit,
        "count" | "rows" | "nodes" | "pages" | "B" | "events" | "scans" | "cost"
    )
}

#[test]
fn benchmark_json_agrees_with_the_registry() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).parent().unwrap();
    let doc = load(&root.join("BENCHMARK.json"));
    assert_eq!(
        names(&doc),
        [
            "command",
            "paths",
            "run_seconds",
            "workloads",
            "end_to_end",
            "per_layer"
        ]
    );
    assert_eq!(number(&doc, "run_seconds"), 18.0);
    let paths = doc.get("paths").and_then(Json::as_arr).unwrap();
    assert_eq!(paths, [Json::str("benchmark")]);
    let command = doc.get("command").and_then(Json::as_arr).unwrap();
    assert!(command.contains(&Json::str("benchmark/Cargo.toml")));

    let workloads = doc.get("workloads").and_then(Json::as_arr).unwrap();
    assert_eq!(workloads.len(), WORKLOADS.len());
    for (declared, w) in workloads.iter().zip(&WORKLOADS) {
        assert_eq!(names(declared), ["name", "why"]);
        assert_eq!(text(declared, "name"), w.name);
        assert_eq!(text(declared, "why"), w.why);
        assert!(w.why.len() <= 200 && !w.why.contains('\n'));
    }

    let end_to_end = doc.get("end_to_end").and_then(Json::as_arr).unwrap();
    assert_eq!(end_to_end.len(), END_TO_END.len());
    for (declared, m) in end_to_end.iter().zip(&END_TO_END) {
        assert_eq!(names(declared), ["name", "unit", "better", "bound"]);
        assert_eq!(text(declared, "name"), m.name);
        assert_eq!(text(declared, "unit"), m.unit);
        assert_eq!(text(declared, "better"), "lower");
        assert_eq!(number(declared, "bound"), m.bound);
        assert!(m.bound > 0.0 && m.bound <= 0.25);
    }
    let setup = &END_TO_END[0];
    assert_eq!((setup.name, setup.unit), ("setup_s", "s"));
    assert!(
        END_TO_END.iter().all(|m| m.bound <= setup.bound),
        "setup_s has the largest bound"
    );

    let per_layer = doc.get("per_layer").and_then(Json::as_arr).unwrap();
    assert_eq!(per_layer.len(), PER_LAYER.len());
    for (declared, m) in per_layer.iter().zip(&PER_LAYER) {
        assert_eq!(names(declared), ["name", "unit", "better"]);
        assert_eq!(text(declared, "name"), m.name);
        assert_eq!(text(declared, "unit"), m.unit);
        assert_eq!(text(declared, "better"), m.better);
        assert!(matches!(m.better, "lower" | "higher"));
    }
}

#[test]
fn smoke_suite_emits_declared_names_and_repeats_its_counts() {
    // Two different seeds on purpose: the seed draws row order only, so
    // every count must still agree.
    let reports: Vec<Json> = [("a", "1"), ("b", "2")]
        .iter()
        .map(|(tag, seed)| {
            let out = out_dir(&format!("suite-{tag}"));
            let stdout = bench(&["--all", "--smoke", "--seed", seed], &out);
            for m in END_TO_END
                .iter()
                .map(|m| m.name)
                .chain(PER_LAYER.iter().map(|m| m.name))
            {
                assert!(stdout.contains(m), "{m} not printed by name");
            }
            load(&out.join("report.json"))
        })
        .collect();

    assert_eq!(
        reports[0].get("claim"),
        Some(&Json::Null),
        "the ruler claims no gain"
    );
    let host = reports[0].get("host").unwrap();
    assert!(number(host, "nproc") >= 1.0);
    assert!(!text(host, "cpu_model").is_empty());
    assert!(reports[0].get("git").and_then(|g| g.get("dirty")).is_some());

    let workloads = |r: &Json| r.get("workloads").and_then(Json::as_arr).unwrap().to_vec();
    let (first, second) = (workloads(&reports[0]), workloads(&reports[1]));
    let declared: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
    assert_eq!(
        first.iter().map(|w| text(w, "name")).collect::<Vec<_>>(),
        declared
    );

    for (a, b) in first.iter().zip(&second) {
        let name = text(a, "name");
        assert_eq!(a.get("correct"), Some(&Json::Bool(true)), "{name}");
        assert!(number(a, "attempted") >= 1.0 && number(a, "failed") == 0.0);
        assert!(number(a, "rows") > 0.0 && number(a, "reps") == 1.0);

        let (e2e_a, e2e_b) = (a.get("end_to_end").unwrap(), b.get("end_to_end").unwrap());
        assert_eq!(names(e2e_a), END_TO_END.map(|m| m.name), "{name}");
        for m in &END_TO_END {
            let (va, vb) = (e2e_a.get(m.name).unwrap(), e2e_b.get(m.name).unwrap());
            assert_eq!(text(va, "unit"), m.unit);
            // CPU time ticks at 10 ms; a smoke build can finish inside one.
            if m.name != "build_cpu_s" {
                assert!(
                    number(va, "value") > 0.0,
                    "{name}: {} must never be 0",
                    m.name
                );
            }
            if m.exact {
                assert_eq!(
                    number(va, "value"),
                    number(vb, "value"),
                    "{name}: {}",
                    m.name
                );
            }
        }

        let (layers_a, layers_b) = (a.get("per_layer").unwrap(), b.get("per_layer").unwrap());
        assert_eq!(names(layers_a), PER_LAYER.map(|m| m.name), "{name}");
        for m in &PER_LAYER {
            let (va, vb) = (layers_a.get(m.name).unwrap(), layers_b.get(m.name).unwrap());
            assert!(number(va, "value").is_finite());
            if is_count(m.unit) && !m.name.starts_with("probe.") {
                assert_eq!(
                    number(va, "value"),
                    number(vb, "value"),
                    "{name}: {}",
                    m.name
                );
            }
        }
        assert!(number(layers_a.get("trace.unattributed_frac").unwrap(), "value") < 0.5);
    }

    // `--compare`: a report against itself is all `same` (exit 0); a new
    // report that lost a workload is refused.
    let report_a = out_dir("suite-a").join("report.json");
    let compared = bench(
        &[
            "--compare",
            report_a.to_str().unwrap(),
            report_a.to_str().unwrap(),
        ],
        &out_dir("compare"),
    );
    let verdicts = compared.lines().filter(|l| l.ends_with("  same")).count();
    assert_eq!(verdicts, WORKLOADS.len() * (1 + END_TO_END.len()));
    let trailer = format!("compare: 0 of {verdicts} rows worse");
    assert!(compared.contains(&trailer), "{compared}");
    let shorter = out_dir("compare").join("shorter.json");
    let lost_one = Json::obj([("workloads", Json::Arr(first[1..].to_vec()))]);
    std::fs::write(&shorter, lost_one.to_string()).unwrap();
    let refused = Command::new(BIN)
        .args(["--compare", report_a.to_str().unwrap()])
        .arg(&shorter)
        .arg("--out-dir")
        .arg(out_dir("compare"))
        .output()
        .expect("spawn benchmark");
    assert!(!refused.status.success(), "a vanished workload must fail");
    assert!(String::from_utf8_lossy(&refused.stderr).contains(WORKLOADS[0].name));

    // Traces: well-formed JSON, every parent exists and encloses its child.
    for w in &WORKLOADS {
        let trace = load(&out_dir("suite-a").join(format!("trace-{}.json", w.name)));
        assert_eq!(text(&trace, "workload"), w.name);
        let spans = trace.get("spans").and_then(Json::as_arr).unwrap();
        assert_eq!(text(&spans[0], "name"), "build");
        assert_eq!(spans[0].get("parent"), Some(&Json::Null));
        for (i, s) in spans.iter().enumerate() {
            assert_eq!(number(s, "id"), i as f64);
            assert!(number(s, "start_ns") <= number(s, "end_ns"));
            assert_eq!(
                number(s, "build"),
                number(&spans[0], "build"),
                "one build, one id"
            );
            if i > 0 {
                let parent = &spans[number(s, "parent") as usize];
                assert!(
                    number(parent, "id") < i as f64,
                    "{}: parent precedes child",
                    w.name
                );
                assert!(number(parent, "start_ns") <= number(s, "start_ns"));
                assert!(number(s, "end_ns") <= number(parent, "end_ns"));
            }
        }
    }
}

#[test]
fn driver_protocol_holds_for_both_trace_settings() {
    let out = out_dir("driver");
    for (trace, expected) in [
        ("0", END_TO_END.map(|m| (m.name, m.unit)).to_vec()),
        ("1", PER_LAYER.map(|m| (m.name, m.unit)).to_vec()),
    ] {
        let stdout = bench(
            &[
                "--workload",
                "staged-file",
                "--seed",
                "7",
                "--seconds",
                "1",
                "--trace",
                trace,
                "--smoke",
            ],
            &out,
        );
        let line =
            Json::parse(stdout.trim_end().lines().last().unwrap()).expect("last line is JSON");
        assert_eq!(names(&line), ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(line.get("correct"), Some(&Json::Bool(true)));
        assert!(number(&line, "attempted") >= 1.0 && number(&line, "attempted").fract() == 0.0);
        assert_eq!(number(&line, "failed"), 0.0);
        let metrics = line.get("metrics").unwrap();
        assert_eq!(
            names(metrics),
            expected.iter().map(|(n, _)| *n).collect::<Vec<_>>()
        );
        for (name, unit) in expected {
            let m = metrics.get(name).unwrap();
            assert_eq!(names(m), ["value", "unit"]);
            assert_eq!(text(m, "unit"), unit);
            assert!(number(m, "value").is_finite());
            assert!(name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
        }
    }
}

#[test]
fn unknown_workload_and_bad_arguments_are_refused() {
    let refused = |args: &[&str]| {
        let out = Command::new(BIN)
            .args(args)
            .output()
            .expect("spawn benchmark");
        assert!(!out.status.success(), "{args:?} should be refused");
        assert!(out.stdout.is_empty(), "{args:?} printed a result");
    };
    refused(&[]);
    refused(&["--workload", "no-such", "--trace", "0", "--smoke"]);
    refused(&["--workload", "staged-mem", "--smoke"]);
    refused(&["--all", "--seed", "x", "--smoke"]);
}
