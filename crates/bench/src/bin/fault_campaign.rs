//! Runs a deterministic fault-injection campaign (experiment E12) and
//! reports whether the sandbox contained every case.
//!
//! ```text
//! fault_campaign [--seed N] [--cases N] [--fault-mix SPEC] [--case N] [--json]
//!                [--case-timeout N] [--max-quarantine N]
//! ```
//!
//! `--fault-mix` takes a comma-separated weight spec such as
//! `bitflip,crash=3,vtag` (unlisted kinds get weight 0; bare names get
//! weight 1). `--case N` replays a single case of the campaign — use the
//! coordinates printed for a violating case. Exits non-zero if any case
//! violates containment.
//!
//! `--case-timeout N` runs the campaign under the crash-safe runner's
//! per-case instruction watchdog (timed-out cases are quarantined, not
//! fatal) and `--max-quarantine N` aborts once more than N cases are
//! quarantined; either flag switches to the guarded summary format, so the
//! classic (golden-pinned) JSON is untouched when neither is passed.

use px_campaign::fault::{run_campaign, run_campaign_guarded, run_case};
use px_campaign::{CaseOutcome, Watchdog};
use px_mach::FaultMix;
use px_util::ToJson;

fn usage() -> ! {
    eprintln!(
        "usage: fault_campaign [--seed N] [--cases N] [--fault-mix SPEC] [--case N] [--json]\n\
         \t\t      [--case-timeout N] [--max-quarantine N]\n\
         \n\
         --seed N           campaign seed (u64, default 1)\n\
         --cases N          number of cases (1..=65536, default 256)\n\
         --fault-mix SPEC   comma-separated kind weights, e.g. bitflip,crash=3\n\
         --case N           replay a single case of this campaign\n\
         --case-timeout N   per-case instruction watchdog (guarded mode)\n\
         --max-quarantine N abort once more than N cases are quarantined\n\
         --json             print the summary as JSON"
    );
    std::process::exit(2);
}

fn parse_u64(flag: &str, value: Option<&String>) -> u64 {
    let Some(raw) = value else {
        eprintln!("error: {flag} requires a value");
        usage();
    };
    match raw.parse::<u64>() {
        Ok(n) => n,
        Err(_) => {
            eprintln!("error: {flag} expects an unsigned integer, got {raw:?}");
            usage();
        }
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut seed = 1u64;
    let mut cases = 256u64;
    let mut mix = FaultMix::uniform();
    let mut replay: Option<u64> = None;
    let mut case_timeout: Option<u64> = None;
    let mut max_quarantine: Option<u64> = None;
    let mut json = false;

    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--seed" => {
                seed = parse_u64("--seed", args.get(i + 1));
                i += 2;
            }
            "--cases" => {
                cases = parse_u64("--cases", args.get(i + 1));
                if cases == 0 || cases > 65_536 {
                    eprintln!("error: --cases must be in 1..=65536, got {cases}");
                    usage();
                }
                i += 2;
            }
            "--fault-mix" => {
                let Some(spec) = args.get(i + 1) else {
                    eprintln!("error: --fault-mix requires a value");
                    usage();
                };
                mix = match FaultMix::parse(spec) {
                    Ok(m) => m,
                    Err(e) => {
                        eprintln!("error: bad --fault-mix: {e}");
                        usage();
                    }
                };
                i += 2;
            }
            "--case" => {
                replay = Some(parse_u64("--case", args.get(i + 1)));
                i += 2;
            }
            "--case-timeout" => {
                let t = parse_u64("--case-timeout", args.get(i + 1));
                if t == 0 {
                    eprintln!("error: --case-timeout must be positive");
                    usage();
                }
                case_timeout = Some(t);
                i += 2;
            }
            "--max-quarantine" => {
                max_quarantine = Some(parse_u64("--max-quarantine", args.get(i + 1)));
                i += 2;
            }
            "--json" => {
                json = true;
                i += 1;
            }
            "--help" | "-h" => usage(),
            other => {
                eprintln!("error: unknown argument {other:?}");
                usage();
            }
        }
    }

    if let Some(id) = replay {
        let case = run_case(seed, id, &mix);
        println!("{}", case.to_json().dump());
        if !case.violations.is_empty() {
            std::process::exit(1);
        }
        return;
    }

    // Either guard flag switches to the watchdog-guarded runner and its own
    // summary format; the classic path (and its golden-pinned JSON) is only
    // taken when neither is present.
    if case_timeout.is_some() || max_quarantine.is_some() {
        let wd = case_timeout.map_or_else(Watchdog::default_budget, |timeout| Watchdog { timeout });
        let summary = run_campaign_guarded(seed, cases, &mix, &wd, max_quarantine);
        if json {
            println!("{}", summary.to_json().dump());
        } else {
            println!(
                "guarded fault campaign: seed={} cases={} ran={} mix={} timeout={}",
                summary.seed, summary.cases, summary.ran, summary.mix, summary.timeout
            );
            println!(
                "  done {}  timed-out {}  panicked {}  violated {}{}",
                summary.of(CaseOutcome::Done),
                summary.of(CaseOutcome::TimedOut),
                summary.of(CaseOutcome::Panicked),
                summary.of(CaseOutcome::Violated),
                if summary.aborted {
                    "  (aborted: quarantine limit)"
                } else {
                    ""
                }
            );
            for (class, n) in &summary.exits {
                println!("  exit {class}: {n}");
            }
            for case in &summary.quarantined {
                println!(
                    "  QUARANTINED case {} [{}] exit={} (replay: fault_campaign --seed {} \
                     --case {}){}",
                    case.id,
                    case.outcome.name(),
                    case.exit,
                    seed,
                    case.id,
                    if case.detail.is_empty() {
                        String::new()
                    } else {
                        format!(" — {}", case.detail)
                    }
                );
            }
        }
        if summary.of(CaseOutcome::Violated) > 0 || summary.aborted {
            std::process::exit(1);
        }
        return;
    }

    let summary = run_campaign(seed, cases, &mix);
    if json {
        println!("{}", summary.to_json().dump());
    } else {
        println!(
            "fault campaign: seed={} cases={} mix={}",
            summary.seed, summary.cases, summary.mix
        );
        println!(
            "  faults injected: {}  contained: {}/{}",
            summary.faults_injected, summary.contained, summary.cases
        );
        for (class, n) in &summary.exits {
            println!("  exit {class}: {n}");
        }
        for case in &summary.violating {
            println!(
                "  VIOLATION case {} engine={} program={} fault_seed={} (replay: \
                 fault_campaign --seed {} --case {})",
                case.id, case.engine, case.program, case.fault_seed, summary.seed, case.id
            );
            for v in &case.violations {
                println!("    {v}");
            }
        }
        if summary.all_contained() {
            println!("  sandbox contained every case");
        }
    }
    if !summary.all_contained() {
        std::process::exit(1);
    }
}
