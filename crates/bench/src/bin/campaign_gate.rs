//! Runs the E16/E17 campaign gate: the zoo roster's prime-path sets
//! enumerated twice under a hard wall-time budget, then both pinned
//! manifests straight through on 1 worker, killed mid-flight and resumed on
//! 4 workers, and re-folded forward and in reverse. Every digest must match
//! its pin, every case must be accounted for exactly once, and the
//! quarantine must match the chaos ground truth.
//!
//! ```text
//! campaign_gate [--json] [--check]
//! ```
//!
//! `--check` exits non-zero unless every acceptance criterion holds — the
//! form scripts/verify.sh and CI run.

use std::process::ExitCode;

use px_bench::experiments::campaign::{campaign_gate, ENUM_BUDGET_MS};

const USAGE: &str = "usage: campaign_gate [--json] [--check]\n\
                     \n\
                     --json   print the gate report as JSON\n\
                     --check  exit non-zero unless the gate passes";

fn main() -> ExitCode {
    let [json, check] = px_bench::read_flags(USAGE, ["--json", "--check"]);

    let report = campaign_gate();
    if json {
        println!("{}", report.to_json().dump());
    } else {
        println!(
            "campaign gate: {} roster families enumerated twice in {} ms \
             (budget {ENUM_BUDGET_MS} ms, {}; {} truncated)",
            report.families,
            report.enum_ms,
            if report.enum_deterministic {
                "byte-identical"
            } else {
                "NONDETERMINISTIC"
            },
            report.truncated_families
        );
        for m in &report.manifests {
            println!(
                "  `{}`: {} cases, timeout {}, killed after {}",
                m.manifest, m.total, m.timeout, m.kill_after
            );
            println!(
                "    digest straight={:016x} resumed={:016x} ({}), refolds {}",
                m.digest_straight,
                m.digest_resumed,
                if m.digest_straight == m.digest_resumed {
                    "identical"
                } else {
                    "MISMATCH"
                },
                if m.refolds_agree { "agree" } else { "DISAGREE" }
            );
            println!(
                "    resume: {} from journal + {} run = {} (lost {}), torn tail {}",
                m.resumed_from_journal,
                m.resumed_ran,
                m.resumed_from_journal + m.resumed_ran,
                m.total
                    .saturating_sub(m.resumed_from_journal + m.resumed_ran),
                m.torn_tail_seen
            );
            println!(
                "    quarantined {} (truth mismatches {}), violations {}, \
                 prime shards {} keys / {} paths covered",
                m.quarantined, m.quarantine_mismatches, m.violated, m.prime_keys, m.prime_covered
            );
        }
    }
    for (m, pinned) in report.drifts() {
        eprintln!(
            "  pinned digest drifted on `{}`: {pinned:016x} -> {:016x}",
            m.manifest, m.digest_straight
        );
    }
    let passed = report.passed();
    if !json {
        println!("  gate: {}", if passed { "PASS" } else { "FAIL" });
    }
    if check && !passed {
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
