//! Golden test for `pxc analyze --json`: the emitted JSON is a stable,
//! deterministic interface (scripts parse it), so its exact bytes are
//! pinned against a committed fixture — and re-verified to be identical
//! across process invocations for several bundled workloads — and a
//! reader that hangs up early must end the command quietly.

use std::process::{Command, Stdio};

fn pxc(args: &[&str]) -> (String, bool) {
    let out = Command::new(env!("CARGO_BIN_EXE_pxc"))
        .args(args)
        .output()
        .expect("spawn pxc");
    (
        String::from_utf8(out.stdout).expect("utf-8 stdout"),
        out.status.success(),
    )
}

#[test]
fn analyze_json_matches_the_committed_golden() {
    // Integration tests run with the crate root as cwd, so this relative
    // path resolves and is embedded verbatim in the "program" field.
    let fixture = "tests/golden/analyze_sample.pxs";
    let (stdout, ok) = pxc(&["analyze", fixture, "--json"]);
    assert!(ok, "pxc analyze failed:\n{stdout}");
    let golden = include_str!("golden/analyze_sample.json");
    assert_eq!(
        stdout, golden,
        "pxc analyze --json drifted from the golden file; if the change is \
         intentional, regenerate tests/golden/analyze_sample.json"
    );
    // The fixture must exercise every diagnostic surface the golden pins.
    for needle in [
        "\"feasible\":[false,true]",
        "dead-check",
        "const-addr-out-of-bounds",
        "unreachable-code",
        // Prime-path section: feasibility-honest counts, a stable digest and
        // at least one statically-infeasible path excluded from the
        // denominator.
        "\"prime_paths\":{",
        "\"paths_total\":3",
        "\"paths_feasible\":2",
        "\"truncated\":false",
        "\"feasible\":false",
    ] {
        assert!(golden.contains(needle), "golden lost coverage of {needle}");
    }
}

#[test]
fn path_cover_json_is_deterministic() {
    let fixture = "tests/golden/analyze_sample.pxs";
    let (first, ok1) = pxc(&["analyze", fixture, "--path-cover", "--json"]);
    let (second, ok2) = pxc(&["analyze", fixture, "--path-cover", "--json"]);
    assert!(ok1 && ok2, "pxc analyze --path-cover failed:\n{first}");
    assert_eq!(first, second, "--path-cover must be deterministic");
    assert!(first.contains("\"cover\":{"), "{first}");
    assert!(first.contains("\"picks\":["), "{first}");
}

#[test]
fn analyze_json_is_byte_identical_across_invocations() {
    for workload in ["bc", "schedule", "print_tokens"] {
        let (first, ok1) = pxc(&["analyze", workload, "--json"]);
        let (second, ok2) = pxc(&["analyze", workload, "--json"]);
        assert!(ok1 && ok2, "pxc analyze {workload} failed");
        assert!(!first.is_empty(), "{workload}: empty analysis");
        assert_eq!(
            first, second,
            "{workload}: analyze --json must be deterministic across runs"
        );
    }
}

#[test]
fn closed_stdout_ends_analyze_quietly() {
    // The reader hangs up before pxc writes its first byte, so the write
    // meets a closed pipe whatever the output's size: pxc must end
    // without a panic (Rust's runtime ignores SIGPIPE, so `println!`
    // would panic with "failed printing to stdout: Broken pipe").
    let mut child = Command::new(env!("CARGO_BIN_EXE_pxc"))
        .args(["analyze", "bc", "--json"])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn pxc");
    drop(child.stdout.take());
    let out = child.wait_with_output().expect("pxc ends");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!stderr.contains("panicked"), "pxc panicked:\n{stderr}");
    assert_ne!(out.status.code(), Some(101), "panic exit status");
}
