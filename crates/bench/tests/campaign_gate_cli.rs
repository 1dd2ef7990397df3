//! `campaign_gate` reads all of its arguments before any gate leg runs:
//! `--help` is a request, answered on stdout with exit 0, and a mistyped
//! flag fails at once with exit 2 instead of running a multi-second gate.

use std::process::Command;

fn campaign_gate(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_campaign_gate"))
        .args(args)
        .output()
        .expect("spawn campaign_gate")
}

#[test]
fn help_prints_the_usage_on_stdout_and_runs_nothing() {
    for flag in ["--help", "-h"] {
        let out = campaign_gate(&["--check", flag]);
        assert_eq!(out.status.code(), Some(0), "{flag}");
        let usage = String::from_utf8_lossy(&out.stdout);
        assert!(usage.starts_with("usage: campaign_gate"), "{usage}");
        assert!(
            !usage.contains("campaign gate:"),
            "no gate leg may run: {usage}"
        );
        assert!(out.stderr.is_empty(), "{flag}");
    }
}

#[test]
fn an_unknown_argument_exits_2_before_any_gate_leg_runs() {
    let out = campaign_gate(&["--check", "--chek"]);
    assert_eq!(out.status.code(), Some(2));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(
        err.contains("--chek") && err.contains("usage: campaign_gate"),
        "{err}"
    );
    assert!(out.stdout.is_empty(), "no gate leg may run");
}
