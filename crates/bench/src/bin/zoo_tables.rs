//! E15 — regenerates the Table 4/5 shape over the generated workload zoo:
//! per-family feasible-edge coverage uplift, detection counts on three
//! engines, NT-only false positives and detection latency.
//!
//! ```text
//! zoo_tables [--quick] [--json] [--check]
//! ```
//!
//! `--quick` runs the reduced CI roster (two structure seeds per shape),
//! `--json` emits the deterministic report object, `--check` exits non-zero
//! unless the E15 acceptance criteria hold (≥25 families, ≥4 shapes, ≥6
//! classes at full scale; every expected bug detected on some engine; no
//! NT-only false positives).

use std::process::ExitCode;

use px_bench::experiments::zoo::zoo_report;
use px_bench::fmt::render_table;
use px_util::ToJson;

const USAGE: &str = "usage: zoo_tables [--quick] [--json] [--check]";

fn main() -> ExitCode {
    let [quick, json, check] = px_bench::read_flags(USAGE, ["--quick", "--json", "--check"]);

    let report = zoo_report(quick);

    if json {
        println!("{}", report.to_json().dump());
    } else {
        let cells: Vec<Vec<String>> = report
            .rows
            .iter()
            .map(|r| {
                vec![
                    r.spec.clone(),
                    r.tool.clone(),
                    format!("{}/{}", r.taken_covered, r.feasible_edges),
                    format!("{}/{}", r.total_covered, r.feasible_edges),
                    format!("{:+.1}pp", r.uplift_points()),
                    r.tested.to_string(),
                    r.baseline_tp.to_string(),
                    r.standard_tp.to_string(),
                    r.cmp_tp.to_string(),
                    r.false_positives.to_string(),
                    r.first_tp_cycle
                        .map_or_else(|| "-".to_owned(), |c| c.to_string()),
                ]
            })
            .collect();
        println!("E15: zoo-scale bug detection and coverage uplift\n");
        println!(
            "{}",
            render_table(
                &[
                    "Family",
                    "Tool",
                    "Taken/Feas",
                    "Px/Feas",
                    "Uplift",
                    "Tested",
                    "Base",
                    "Std",
                    "CMP",
                    "NT-FP",
                    "1st TP cycle"
                ],
                &cells
            )
        );
        let (expected, detected) = report.detection_totals();
        println!(
            "{} families, {} shapes, {} bug classes; {} of {} expected bugs \
             detected on at least one engine",
            report.families,
            report.shapes().len(),
            report.classes().len(),
            detected,
            expected,
        );
        println!("(paper Table 4, at 4x the program count: 38 bugs over 7 applications)");
    }

    if check {
        let (expected, detected) = report.detection_totals();
        let fp: usize = report.rows.iter().map(|r| r.false_positives).sum();
        let ok_scale = quick
            || (report.families >= 25 && report.shapes().len() >= 4 && report.classes().len() >= 6);
        let ok = ok_scale && detected == expected && fp == 0;
        if !ok {
            eprintln!(
                "zoo_tables --check FAILED: families={} shapes={} classes={} \
                 detected={detected}/{expected} nt_fps={fp}",
                report.families,
                report.shapes().len(),
                report.classes().len(),
            );
            return ExitCode::FAILURE;
        }
        eprintln!("zoo_tables --check OK");
    }
    ExitCode::SUCCESS
}
