//! Runs the E16 campaign crash-safety gate: a ~512-case manifest with
//! injected panicking/runaway cases, killed mid-flight and resumed, which
//! must reproduce the uninterrupted run's aggregate digest byte-for-byte
//! with zero lost cases and a quarantine matching chaos ground truth.
//!
//! ```text
//! campaign_gate [--manifest SPEC] [--kill-after N] [--json] [--check]
//! ```
//!
//! `--check` exits non-zero unless every acceptance criterion holds — the
//! form scripts/verify.sh and CI run. On the default manifest that includes
//! the aggregate digest matching the pinned `GATE_DIGEST`.

use px_bench::experiments::campaign::{
    campaign_gate_with, GATE_DIGEST, GATE_KILL_AFTER, GATE_MANIFEST,
};

fn usage() -> ! {
    eprintln!(
        "usage: campaign_gate [--manifest SPEC] [--kill-after N] [--json] [--check]\n\
         \n\
         --manifest SPEC  campaign manifest (default {GATE_MANIFEST})\n\
         --kill-after N   kill the crash leg after N cases (default {GATE_KILL_AFTER})\n\
         --json           print the gate report as JSON\n\
         --check          exit non-zero unless the gate passes"
    );
    std::process::exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut manifest = GATE_MANIFEST.to_owned();
    let mut kill_after = GATE_KILL_AFTER;
    let mut json = false;
    let mut check = false;

    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--manifest" => {
                let Some(spec) = args.get(i + 1) else {
                    eprintln!("error: --manifest requires a value");
                    usage();
                };
                manifest = spec.clone();
                i += 2;
            }
            "--kill-after" => {
                let Some(raw) = args.get(i + 1) else {
                    eprintln!("error: --kill-after requires a value");
                    usage();
                };
                kill_after = match raw.parse() {
                    Ok(n) if n > 0 => n,
                    _ => {
                        eprintln!("error: --kill-after expects a positive integer, got {raw:?}");
                        usage();
                    }
                };
                i += 2;
            }
            "--json" => {
                json = true;
                i += 1;
            }
            "--check" => {
                check = true;
                i += 1;
            }
            "--help" | "-h" => usage(),
            other => {
                eprintln!("error: unknown argument {other:?}");
                usage();
            }
        }
    }

    let report = campaign_gate_with(&manifest, kill_after);
    if json {
        println!("{}", report.to_json().dump());
    } else {
        println!(
            "campaign gate: {} cases over `{}`, killed after {kill_after}",
            report.total, report.manifest
        );
        println!(
            "  digest straight={:016x} resumed={:016x} ({})",
            report.digest_straight,
            report.digest_resumed,
            if report.digest_straight == report.digest_resumed {
                "identical"
            } else {
                "MISMATCH"
            }
        );
        println!(
            "  resume: {} from journal + {} run = {} (lost {})",
            report.resumed_from_journal,
            report.resumed_ran,
            report.resumed_from_journal + report.resumed_ran,
            report
                .total
                .saturating_sub(report.resumed_from_journal + report.resumed_ran)
        );
        println!(
            "  quarantined {} (chaos mismatches {}), violations {}, torn tail {}",
            report.quarantined, report.chaos_mismatches, report.violated, report.torn_tail_seen
        );
    }
    // The pin holds only for the default manifest.
    let drifted = manifest == GATE_MANIFEST && report.digest_straight != GATE_DIGEST;
    if drifted {
        eprintln!(
            "  pinned digest drifted: {GATE_DIGEST:016x} -> {:016x}",
            report.digest_straight
        );
    }
    let passed = report.passed() && !drifted;
    if !json {
        println!("  gate: {}", if passed { "PASS" } else { "FAIL" });
    }
    if check && !passed {
        std::process::exit(1);
    }
}
