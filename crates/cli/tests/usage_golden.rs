//! Golden test for `pxc help`: the usage text is rendered from the flag
//! table, so its exact bytes are pinned against a committed fixture, and
//! every way of asking for it prints the same text and exits 0.

use std::process::Command;

#[test]
fn every_help_request_prints_the_golden_usage() {
    let golden = include_str!("golden/usage.txt");
    for args in [
        &["help"][..],
        &["--help"],
        &["run", "x.pxc", "--help"],
        &["campaign", "--cases", "fault:1:4", "-h"],
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_pxc"))
            .args(args)
            .output()
            .expect("spawn pxc");
        assert_eq!(out.status.code(), Some(0), "pxc {args:?}");
        assert_eq!(
            String::from_utf8(out.stdout).expect("utf-8 stdout"),
            golden,
            "pxc {args:?} drifted from tests/golden/usage.txt; if the change \
             is intentional, regenerate it with `pxc help`"
        );
    }
}
