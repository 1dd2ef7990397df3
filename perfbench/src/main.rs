//! `perfbench` — the PathExpander workspace's end-to-end and per-layer
//! benchmark. See `README.md` next to this crate for the workloads, the
//! metrics and the protocol.
//!
//! ```text
//! perfbench --workload <nt-heavy|paper-apps|zoo-campaign> --seed <n>
//!           --seconds <s> --trace <0|1> [--threads <k>] [--size full|tiny]
//!           [--scratch <dir>]
//! ```
//!
//! The last line of standard output is one JSON object: `correct`,
//! `attempted`, `failed` and `metrics` — the end-to-end metrics with
//! `--trace 0`, the per-layer metrics with `--trace 1`.

mod engine;
mod nt_heavy;
mod paper_apps;
mod stats;
mod zoo_campaign;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use stats::{median, peak_rss_mb, result_line, Spans, Tally, Values};

/// The workloads, by name.
const WORKLOADS: [&str; 3] = ["nt-heavy", "paper-apps", "zoo-campaign"];

/// End-to-end metrics (`--trace 0`): name and unit.
const END_TO_END: [(&str, &str); 7] = [
    ("sim_mips", "MIPS"),
    ("op_ms_p50", "ms"),
    ("op_ms_p90", "ms"),
    ("cases_per_s", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("edge_coverage_pct", "%"),
];

/// Per-layer metrics (`--trace 1`): name and unit. A layer that does no
/// work on a workload reports 0.
const PER_LAYER: [(&str, &str); 55] = [
    ("isa.assemble_ms", "ms"),
    ("lang.compile_ms", "ms"),
    ("workloads.generate_ms", "ms"),
    ("isa.decode_ms", "ms"),
    ("analyze.analysis_ms", "ms"),
    ("analyze.prime_paths_ms", "ms"),
    ("analyze.paths", "count"),
    ("analyze.truncated", "count"),
    ("mach.baseline_ns_per_instr", "ns"),
    ("core.standard_ns_per_instr", "ns"),
    ("core.cmp_ns_per_instr", "ns"),
    ("core.taken_instr", "count"),
    ("core.nt_instr", "count"),
    ("core.sim_cycles", "count"),
    ("core.spawns", "count"),
    ("core.skipped_hot", "count"),
    ("core.skipped_checker", "count"),
    ("core.skipped_static", "count"),
    ("core.skipped_outstanding", "count"),
    ("core.spawn_admit_ratio", "ratio"),
    ("core.nt_paths", "count"),
    ("core.nt_mean_len", "count"),
    ("core.stop.max-length", "count"),
    ("core.stop.crash", "count"),
    ("core.stop.unsafe", "count"),
    ("core.stop.program-end", "count"),
    ("core.stop.sandbox-overflow", "count"),
    ("core.stop.forced-commit", "count"),
    ("core.stop.cut-short", "count"),
    ("core.stop.watchdog", "count"),
    ("mach.sandbox.nt_writes", "count"),
    ("mach.memo.hits", "count"),
    ("mach.memo.misses", "count"),
    ("mach.memo.invalidations", "count"),
    ("mach.memo.stores", "count"),
    ("mach.memo.evictions", "count"),
    ("mach.memo.bypasses", "count"),
    ("mach.memo.skips", "count"),
    ("mach.memo.hit_ratio", "ratio"),
    ("mach.memo.saved_ms", "ms"),
    ("mach.coverage.taken_edges", "count"),
    ("mach.coverage.total_edges", "count"),
    ("mach.paths.covered", "count"),
    ("mach.paths.trail_ms", "ms"),
    ("campaign.run_case_ms", "ms"),
    ("campaign.encode_ms", "ms"),
    ("campaign.append_ms", "ms"),
    ("campaign.ckpt_ms", "ms"),
    ("campaign.absorb_ms", "ms"),
    ("campaign.steals", "count"),
    ("trace.attributed_share", "ratio"),
    ("trace.overhead_pct", "%"),
    ("sim_overhead_pct", "%"),
    ("bugs_detected", "count"),
    ("op_fail_ratio", "ratio"),
];

/// General inputs per paper-apps program at full size: enough that the
/// latency quantiles do not hang on the sizes of one or two inputs of the
/// longest-running programs (gzip and vpr).
const PAPER_INPUTS: usize = 6;

/// Set-up repetitions behind `setup_s` on `nt-heavy` (about 0.1 s each)
/// and `paper-apps` (about 3.5 s each).
const NT_HEAVY_SETUPS: usize = 15;
const PAPER_APPS_SETUPS: usize = 4;

/// The parsed command line.
pub struct Config {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Worker threads for the campaign (engine runs are single-threaded).
    pub threads: usize,
    pub nproc: usize,
    /// Smallest inputs, for the self-test.
    pub tiny: bool,
    /// Where campaign journals are written (removed after each pass).
    pub scratch: PathBuf,
    /// Child mode of `zoo-campaign`: one cold pass, then exit.
    pub cold_pass: bool,
}

impl Config {
    fn parse(args: &[String]) -> Result<Config, String> {
        let nproc = std::thread::available_parallelism().map_or(1, usize::from);
        let mut cfg = Config {
            workload: String::new(),
            seed: 1,
            seconds: 10.0,
            trace: false,
            threads: nproc,
            nproc,
            tiny: false,
            scratch: PathBuf::from(".bench_build/perfbench-scratch"),
            cold_pass: false,
        };
        let mut it = args.iter();
        while let Some(flag) = it.next() {
            if flag == "--cold-pass" {
                cfg.cold_pass = true;
                continue;
            }
            let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
            let num = |what: &str| -> Result<u64, String> {
                value
                    .parse::<u64>()
                    .map_err(|_| format!("{what} must be a whole number, not {value:?}"))
            };
            match flag.as_str() {
                "--workload" => cfg.workload.clone_from(value),
                "--seed" => cfg.seed = num("--seed")?,
                "--seconds" => cfg.seconds = num("--seconds")?.max(1) as f64,
                "--trace" => cfg.trace = num("--trace")? != 0,
                "--threads" => cfg.threads = (num("--threads")? as usize).clamp(1, nproc),
                "--size" => match value.as_str() {
                    "full" => cfg.tiny = false,
                    "tiny" => cfg.tiny = true,
                    _ => return Err(format!("--size is full or tiny, not {value:?}")),
                },
                "--scratch" => cfg.scratch = PathBuf::from(value),
                _ => return Err(format!("unknown argument {flag:?}")),
            }
        }
        if !WORKLOADS.contains(&cfg.workload.as_str()) {
            return Err(format!(
                "--workload must be one of {WORKLOADS:?}, not {:?}",
                cfg.workload
            ));
        }
        Ok(cfg)
    }

    /// The arguments of a `zoo-campaign` cold-pass child.
    fn child_args(&self) -> Vec<String> {
        [
            "--cold-pass",
            "--workload",
            "zoo-campaign",
            "--seed",
            &self.seed.to_string(),
            "--threads",
            &self.threads.to_string(),
            "--size",
            if self.tiny { "tiny" } else { "full" },
            "--scratch",
            &self.scratch.display().to_string(),
        ]
        .map(str::to_owned)
        .to_vec()
    }
}

/// Runs an engine workload: set-up, then the untraced measurement or the
/// traced run. Untraced, the set-up is repeated `setups` times, spread over
/// the timed window so its median sees the same host conditions as the
/// timed passes, and every repetition must pin the same goldens. Returns
/// the number of passes.
fn engine_workload(
    cfg: &Config,
    setups: usize,
    setup: impl Fn(&mut Spans, &mut Tally) -> engine::Bench,
    tally: &mut Tally,
    v: &mut Values,
) -> usize {
    let timed_setup = |spans: &mut Spans, tally: &mut Tally| {
        let start = Instant::now();
        let bench = setup(spans, tally);
        (start.elapsed().as_secs_f64(), bench)
    };
    let mut spans = Spans::default();
    let (first, mut bench) = timed_setup(&mut spans, tally);
    eprintln!(
        "perfbench: {} programs, {} operations ({} timed)",
        bench.subjects.len(),
        bench.ops.len(),
        bench.ops.iter().filter(|o| o.timed).count()
    );
    if cfg.trace {
        spans.put_setup(v);
        return bench.trace(cfg.seconds, cfg.seed, tally, v);
    }
    let mut times = vec![first];
    let mut fastest = engine::Fastest::new(&bench, cfg.seed);
    for k in 0..setups {
        if k > 0 {
            let (secs, again) = timed_setup(&mut Spans::default(), tally);
            tally.check(again.golden == bench.golden, || {
                "set-up repetitions pinned different goldens".to_owned()
            });
            times.push(secs);
            bench = again;
        }
        fastest.absorb_golden(&bench);
        fastest.run(&bench, cfg.seconds / setups as f64, tally);
    }
    eprintln!("perfbench: set-up s {times:.3?}");
    v.insert("setup_s", median(&times));
    v.insert("edge_coverage_pct", bench.paper.edge_coverage_pct);
    fastest.report(&bench, v)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cfg = match Config::parse(&args) {
        Ok(cfg) => cfg,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1> \
                 [--threads <k>] [--size full|tiny] [--scratch <dir>]",
                WORKLOADS.join("|")
            );
            return ExitCode::from(2);
        }
    };
    if cfg.cold_pass {
        return match zoo_campaign::cold_child(&cfg) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("perfbench: {e}");
                ExitCode::FAILURE
            }
        };
    }

    let (mut tally, mut v) = (Tally::default(), Values::new());
    let inputs = if cfg.tiny { 1 } else { PAPER_INPUTS };
    let passes = match cfg.workload.as_str() {
        "nt-heavy" => engine_workload(&cfg, NT_HEAVY_SETUPS, nt_heavy::setup, &mut tally, &mut v),
        "paper-apps" => engine_workload(
            &cfg,
            PAPER_APPS_SETUPS,
            |spans, tally| paper_apps::setup(cfg.seed, inputs, spans, tally),
            &mut tally,
            &mut v,
        ),
        _ => zoo_campaign::run(&cfg, &mut tally, &mut v),
    };
    v.insert("peak_rss_mb", peak_rss_mb());
    v.insert(
        "op_fail_ratio",
        stats::ratio(tally.failed as f64, tally.attempted as f64),
    );

    let table: &[(&'static str, &'static str)] = if cfg.trace { &PER_LAYER } else { &END_TO_END };
    println!(
        "perfbench: workload {} seed {} threads {} (nproc {}) size {} trace {} passes {} \
         operations {} failed {}",
        cfg.workload,
        cfg.seed,
        cfg.threads,
        cfg.nproc,
        if cfg.tiny { "tiny" } else { "full" },
        u8::from(cfg.trace),
        passes,
        tally.attempted,
        tally.failed
    );
    for &(name, unit) in table {
        println!(
            "  {name:<28} {:>16.4} {unit}",
            v.get(name).copied().unwrap_or(0.0)
        );
    }
    println!("{}", result_line(&tally, table, &v));
    ExitCode::SUCCESS
}
