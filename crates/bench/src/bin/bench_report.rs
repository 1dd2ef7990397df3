//! Runs the engine × workload matrix (experiments E13 and E18) and emits
//! the `BENCH_throughput.json` report: exit, simulated instructions and
//! cycles, NT-paths and digest per row, plus the replay-cache counters and
//! the cache on/off identity of every standard and CMP row.
//!
//! ```text
//! bench_report [--json] [--out PATH] [--verify PATH]
//! bench_report --profile [--out PATH]
//! ```
//!
//! `--verify PATH` is the CI gate: the fresh report must equal `PATH` byte
//! for byte, and every row that differs is named. A report whose replay
//! cache drifted or missed its `nt-heavy` hit-rate floor is never written
//! and always fails. Host timing is `perfbench/`'s job, not this binary's.

use px_bench::experiments::perf::{profile_report, throughput_report, MIN_NT_HEAVY_HIT_RATE};
use px_bench::fmt::render_table;
use px_util::ToJson;

const USAGE: &str = "usage: bench_report [--json] [--out PATH] [--verify PATH]\n\
     \x20      bench_report --profile [--out PATH]\n\
     \n\
     --json         print the report as JSON to stdout\n\
     --out PATH     write the report to PATH\n\
     --verify PATH  gate: require PATH to equal this run's report byte for byte\n\
     --profile      emit the CMP engine's micro-op histogram (deterministic JSON)";

/// A usage error: the usage on stderr, exit 2.
fn usage() -> ! {
    eprintln!("{USAGE}");
    std::process::exit(2);
}

fn write(path: &str, text: &str) {
    if let Err(e) = std::fs::write(path, text) {
        eprintln!("error: cannot write {path}: {e}");
        std::process::exit(1);
    }
    eprintln!("wrote {path}");
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut json = false;
    let mut profile = false;
    let mut out: Option<String> = None;
    let mut verify: Option<String> = None;

    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--json" => json = true,
            "--profile" => profile = true,
            flag @ ("--out" | "--verify") => {
                let Some(path) = args.get(i + 1) else {
                    eprintln!("error: {flag} requires a value");
                    usage();
                };
                if flag == "--out" {
                    out = Some(path.clone());
                } else {
                    verify = Some(path.clone());
                }
                i += 1;
            }
            "--help" | "-h" => {
                println!("{USAGE}");
                return;
            }
            other => {
                eprintln!("error: unknown argument {other:?}");
                usage();
            }
        }
        i += 1;
    }

    if profile {
        if json || verify.is_some() {
            eprintln!("error: --profile takes only --out");
            usage();
        }
        let dumped = profile_report().dump();
        println!("{dumped}");
        if let Some(path) = &out {
            write(path, &format!("{dumped}\n"));
        }
        return;
    }

    let report = throughput_report();
    let text = report.render();

    if json {
        print!("{text}");
    } else {
        let rows: Vec<Vec<String>> = report
            .rows
            .iter()
            .map(|r| {
                let (hit_rate, identical) = r.memo.as_ref().map_or_else(
                    || ("-".to_owned(), "-".to_owned()),
                    |m| {
                        (
                            format!("{:.2}%", m.counters.hit_rate() * 100.0),
                            if m.identical { "yes" } else { "DRIFTED" }.to_owned(),
                        )
                    },
                );
                vec![
                    r.engine.clone(),
                    r.workload.clone(),
                    r.exit.clone(),
                    r.instructions.to_string(),
                    r.sim_cycles.to_string(),
                    r.nt_paths.to_string(),
                    hit_rate,
                    identical,
                    r.digest.clone(),
                ]
            })
            .collect();
        print!(
            "{}",
            render_table(
                &[
                    "engine",
                    "workload",
                    "exit",
                    "sim-instr",
                    "sim-cycles",
                    "nt-paths",
                    "memo-hit-rate",
                    "memo-identical",
                    "digest",
                ],
                &rows,
            )
        );
        println!("arch digest: {}", report.arch_digest);
    }

    let failures = report.failures();
    if !failures.is_empty() {
        for r in failures {
            eprintln!(
                "FAILED: {}/{} breaks the replay-cache contract (cache-off digest \
                 identical, nt-heavy hit rate >= {MIN_NT_HEAVY_HIT_RATE})",
                r.engine, r.workload
            );
        }
        std::process::exit(1);
    }

    if let Some(path) = &verify {
        let committed = match std::fs::read_to_string(path) {
            Ok(text) => text,
            Err(e) => {
                eprintln!("verify FAILED: cannot read {path}: {e}");
                std::process::exit(1);
            }
        };
        if committed != text {
            for r in &report.rows {
                if !committed.contains(&r.to_json().dump()) {
                    eprintln!(
                        "verify FAILED: row {}/{} differs from {path}",
                        r.engine, r.workload
                    );
                }
            }
            eprintln!(
                "verify FAILED: {path} is not byte-identical to this run's report; \
                 regenerate with `bench_report --out {path}` if the change is intended"
            );
            std::process::exit(1);
        }
        println!("verify OK: {path} matches this run byte for byte");
    }

    if let Some(path) = &out {
        write(path, &text);
    }
}
