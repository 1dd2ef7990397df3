//! End-to-end tests of `pxc`'s fault-injection and validation flags,
//! driving the real binary (no network, no external crates).

use std::process::Command;

fn pxc(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_pxc"))
        .args(args)
        .output()
        .expect("pxc runs")
}

fn stderr_of(out: &std::process::Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

#[test]
fn bad_fault_mix_is_a_usage_error_with_the_offending_spec() {
    let out = pxc(&["run", "nowhere.pxs", "--fault-mix", "gremlins"]);
    assert_eq!(out.status.code(), Some(2), "usage errors exit 2");
    let err = stderr_of(&out);
    assert!(
        err.contains("--fault-mix") && err.contains("gremlins"),
        "stderr names the flag and the bad value: {err}"
    );
}

#[test]
fn bad_seed_is_a_usage_error_naming_the_flag() {
    let out = pxc(&["run", "nowhere.pxs", "--seed", "tuesday"]);
    assert_eq!(out.status.code(), Some(2));
    let err = stderr_of(&out);
    assert!(
        err.contains("--seed") && err.contains("tuesday"),
        "stderr names the flag and the bad value: {err}"
    );
}

#[test]
fn zero_fault_rate_is_rejected() {
    let out = pxc(&["run", "nowhere.pxs", "--fault-rate", "0"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(stderr_of(&out).contains("--fault-rate"));
}

/// A program with an NT-heavy branch: its not-taken edge is never taken on
/// the committed path, so every spawn explores it.
const NT_HEAVY: &str = r"
    .code
    main:
        li r1, 1
        li r4, 30
    loop:
        bne r1, zero, ok
        addi r8, r8, 1
    ok:
        subi r4, r4, 1
        bgt r4, zero, loop
        li r2, 0
        exit
";

/// Writes [`NT_HEAVY`] to `name` in a directory of this process's own, so
/// concurrent runs of the suite never share files, and returns its path.
fn write_program(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("pxc-fault-flags-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(name);
    std::fs::write(&path, NT_HEAVY).unwrap();
    path
}

/// Runs `pxc <cmd>` on a fresh copy of [`NT_HEAVY`] under a crash-heavy
/// fault plan.
fn faulted(cmd: &str, extra: &[&str]) -> std::process::Output {
    let path = write_program(&format!("{cmd}.pxs"));
    let mut args = vec![
        cmd,
        path.to_str().unwrap(),
        "--fault-seed",
        "7",
        "--fault-mix",
        "crash=2,bitflip",
        "--fault-rate",
        "2",
    ];
    args.extend_from_slice(extra);
    let out = pxc(&args);
    std::fs::remove_file(&path).unwrap();
    out
}

/// The count on the `faults:` summary line of a faulted run's stdout.
fn injected(stdout: &str) -> u64 {
    let line = stdout
        .lines()
        .find(|l| l.starts_with("faults:"))
        .unwrap_or_else(|| panic!("fault summary line present: {stdout}"));
    let count = line["faults:".len()..].split_whitespace().next();
    count
        .and_then(|n| n.parse().ok())
        .unwrap_or_else(|| panic!("summary line starts with a count: {line}"))
}

#[test]
fn injected_run_still_exits_cleanly() {
    // Injection lands in the NT-paths, the committed run is unaffected, and
    // pxc reports how many faults it injected.
    let out = faulted("run", &["--threshold", "1"]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "faulted NT-paths must not affect the committed exit\nstdout: {stdout}\nstderr: {}",
        stderr_of(&out)
    );
    assert!(
        stdout.contains("injected into NT-paths"),
        "fault summary line present: {stdout}"
    );
    assert!(injected(&stdout) > 0, "the plan fired: {stdout}");
}

#[test]
fn injected_baseline_run_reports_its_faults() {
    // The baseline has no sandbox: faults land on the taken path and may
    // crash the program, but never the simulator.
    let out = faulted("base", &[]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        matches!(out.status.code(), Some(0 | 1)),
        "a crashed program is not a usage error\nstdout: {stdout}\nstderr: {}",
        stderr_of(&out)
    );
    let exit = stdout.lines().find(|l| l.starts_with("exit:"));
    assert!(
        exit.is_some_and(|l| !l.contains("EngineFault")),
        "exit line present and not an engine fault: {stdout}"
    );
    assert!(injected(&stdout) > 0, "the plan fired: {stdout}");
}
