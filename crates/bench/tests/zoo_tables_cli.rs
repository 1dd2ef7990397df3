//! The `zoo_tables` gate reads all of its arguments before it runs the
//! roster: a mistyped flag must fail at once, not run a roster that
//! checks nothing and exit 0.

use std::process::Command;

fn zoo_tables(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_zoo_tables"))
        .args(args)
        .output()
        .expect("spawn zoo_tables")
}

#[test]
fn an_unknown_argument_exits_2_before_the_roster_runs() {
    let out = zoo_tables(&["--quick", "--chek"]);
    assert_eq!(out.status.code(), Some(2));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(
        err.contains("--chek") && err.contains("usage: zoo_tables"),
        "{err}"
    );
    assert!(out.stdout.is_empty(), "the roster must not run");
}

#[test]
fn help_prints_the_usage_and_runs_nothing() {
    for flag in ["--help", "-h"] {
        let out = zoo_tables(&[flag, "--quick"]);
        assert_eq!(out.status.code(), Some(0));
        let usage = String::from_utf8_lossy(&out.stdout);
        assert!(usage.starts_with("usage: zoo_tables"), "{usage}");
        assert!(
            !usage.contains("E15: zoo-scale"),
            "the roster must not run: {usage}"
        );
    }
}
