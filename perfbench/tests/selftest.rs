//! Self-test: every workload at tiny size, untraced and traced. Checks that
//! every metric `BENCHMARK.json` names is emitted with its unit, that every
//! operation reproduced its golden digest (`failed` and `op_fail_ratio` are
//! 0), and that the traced run attributes its wall time to layer spans.

use std::path::{Path, PathBuf};
use std::process::Command;

use px_util::json::{parse, Json};

/// Lowest `trace.attributed_share` accepted: the spans wrap every call into
/// the workspace, so only the benchmark's own digest checks and bookkeeping
/// between calls go unattributed.
const MIN_ATTRIBUTED_SHARE: f64 = 0.8;

fn number(j: &Json) -> f64 {
    match j {
        Json::Float(f) => *f,
        Json::Int(i) => *i as f64,
        Json::UInt(u) => *u as f64,
        other => panic!("not a number: {other:?}"),
    }
}

fn items(j: &Json) -> &[Json] {
    match j {
        Json::Arr(v) => v,
        other => panic!("not an array: {other:?}"),
    }
}

fn manifest_dir() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

/// `(name, unit)` of every metric in `BENCHMARK.json`'s `section`.
fn declared(section: &str) -> Vec<(String, String)> {
    let text = std::fs::read_to_string(manifest_dir().join("../BENCHMARK.json"))
        .expect("BENCHMARK.json sits at the repository root");
    let doc = parse(&text).expect("BENCHMARK.json is JSON");
    items(doc.get(section).expect("section present"))
        .iter()
        .map(|m| {
            let field = |k: &str| m.get(k).and_then(Json::as_str).expect(k).to_owned();
            (field("name"), field("unit"))
        })
        .collect()
}

/// Runs the benchmark binary and parses its result line.
fn run(workload: &str, trace: bool) -> Json {
    let scratch: PathBuf = Path::new(env!("CARGO_TARGET_TMPDIR"))
        .join(format!("selftest-{workload}-{}", u8::from(trace)));
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--workload", workload, "--seed", "7", "--seconds", "1"])
        .args(["--trace", if trace { "1" } else { "0" }, "--size", "tiny"])
        .arg("--scratch")
        .arg(&scratch)
        .output()
        .expect("the benchmark binary runs");
    assert!(out.status.success(), "{workload}: exit {}", out.status);
    assert!(
        !scratch.exists(),
        "{workload}: scratch directory left behind"
    );
    let stdout = String::from_utf8(out.stdout).expect("UTF-8 output");
    let last = stdout.lines().last().expect("a result line");
    parse(last).unwrap_or_else(|e| panic!("{workload}: result line {last:?}: {e:?}"))
}

fn check(workload: &str) {
    for (trace, section) in [(false, "end_to_end"), (true, "per_layer")] {
        let r = run(workload, trace);
        assert_eq!(
            r.get("correct").and_then(Json::as_bool),
            Some(true),
            "{workload}"
        );
        assert_eq!(
            r.get("failed").and_then(Json::as_u64),
            Some(0),
            "{workload}"
        );
        assert!(r.get("attempted").and_then(Json::as_u64).unwrap_or(0) > 0);
        let metrics = r.get("metrics").expect("metrics object");
        let Json::Obj(emitted) = metrics else {
            panic!("metrics is an object")
        };
        let want = declared(section);
        assert_eq!(
            emitted.len(),
            want.len(),
            "{workload}: exactly the {section} metrics"
        );
        for (name, unit) in &want {
            let m = metrics
                .get(name)
                .unwrap_or_else(|| panic!("{workload}: {name} missing"));
            assert_eq!(
                m.get("unit").and_then(Json::as_str),
                Some(unit.as_str()),
                "{name}"
            );
            let value = number(m.get("value").expect("value"));
            assert!(value.is_finite(), "{workload}: {name} = {value}");
            if !trace {
                assert!(value > 0.0, "{workload}: end-to-end {name} is never 0");
            }
        }
        if trace {
            let value =
                |name: &str| number(metrics.get(name).and_then(|m| m.get("value")).unwrap());
            assert_eq!(value("op_fail_ratio"), 0.0, "{workload}");
            let share = value("trace.attributed_share");
            assert!(
                (MIN_ATTRIBUTED_SHARE..=1.0).contains(&share),
                "{workload}: trace.attributed_share {share}"
            );
        }
    }
}

#[test]
fn nt_heavy() {
    check("nt-heavy");
}

#[test]
fn paper_apps() {
    check("paper-apps");
}

#[test]
fn zoo_campaign() {
    check("zoo-campaign");
}

#[test]
fn rejects_an_unknown_workload() {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args([
            "--workload",
            "nope",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0",
        ])
        .output()
        .expect("the benchmark binary runs");
    assert!(!out.status.success());
    assert!(out.stdout.is_empty(), "no result line on a usage error");
}
