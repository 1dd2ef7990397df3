//! `bench_report` and `table5_fixing` read all of their arguments before
//! any experiment runs: `--help` is a request, answered on stdout with
//! exit 0, and a mistyped flag fails at once with exit 2 and the usage on
//! stderr instead of running (or silently skipping) an experiment.

use std::process::{Command, Output};

fn bin(exe: &str, args: &[&str]) -> Output {
    Command::new(exe).args(args).output().expect("spawn")
}

const BINS: [(&str, &str); 2] = [
    ("bench_report", env!("CARGO_BIN_EXE_bench_report")),
    ("table5_fixing", env!("CARGO_BIN_EXE_table5_fixing")),
];

#[test]
fn help_prints_the_usage_on_stdout_and_runs_nothing() {
    for (name, exe) in BINS {
        for flag in ["--help", "-h"] {
            let out = bin(exe, &[flag]);
            assert_eq!(out.status.code(), Some(0), "{name} {flag}");
            let usage = String::from_utf8_lossy(&out.stdout);
            assert!(usage.starts_with(&format!("usage: {name}")), "{usage}");
            assert!(!usage.contains("Table 5"), "no experiment may run: {usage}");
            assert!(out.stderr.is_empty(), "{name} {flag}");
        }
    }
}

#[test]
fn an_unknown_argument_exits_2_before_any_experiment_runs() {
    for (name, exe) in BINS {
        // `--strategy` is the near miss of table5_fixing's `--strategies`.
        let out = bin(exe, &["--strategy"]);
        assert_eq!(out.status.code(), Some(2), "{name}");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(
            err.contains("--strategy") && err.contains(&format!("usage: {name}")),
            "{err}"
        );
        assert!(out.stdout.is_empty(), "{name}: no experiment may run");
    }
}
