//! `zoo-campaign`: `px_campaign::run` over the E15 zoo roster followed by
//! seeded fault-injection cases (`<roster>+fault:<seed>:<n>`), with
//! `workers = --threads`. Journals and quarantine files go to a fresh
//! scratch directory per pass, removed when the pass ends.
//!
//! Set-up is the first, cold pass: it fills px-campaign's process-wide
//! compile, decode and prime-path caches, which every `pxc campaign`
//! invocation pays. It is measured in this process and in fresh child
//! processes (the caches cannot be emptied in-process), and the median is
//! reported. The timed passes are warm.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::sync::Arc;
use std::time::Instant;

use pathexpander::{
    plan_paths, run_standard_decoded, run_standard_memo, standard_memo_table, PxConfig, PxRunResult,
};
use px_analyze::Analysis;
use px_campaign::journal::{self, Journal, JournalMeta};
use px_campaign::runner::ZOO_BUDGET;
use px_campaign::{
    run_only, Aggregate, CampaignConfig, CampaignReport, CaseOutcome, Manifest, Watchdog,
};
use px_detect::Tool;
use px_isa::{DecodedProgram, Program};
use px_mach::{IoState, MachConfig, PathPlan};
use px_util::{hex64, MemoCounters};
use px_workloads::zoo;

use crate::engine::LayerCounters;
use crate::stats::{hd_quantile, median, quantile, ratio, Spans, Tally, Values};
use crate::Config;

/// Fault-injection cases appended to the roster (full size).
const FAULT_CASES: u64 = 256;

/// Cold passes behind `setup_s`: this process's plus fresh children.
const COLD_PASSES: usize = 3;

/// Warm `px_campaign::run` passes per sequential drive in the timed window.
/// A pass keeps both workers busy for about 0.3 s, so a short steal of
/// either core shows in it; `cases_per_s` takes the fastest pass, which
/// needs many passes to be steady. A drive takes each case's latency, and
/// needs fewer.
const WARM_PASSES_PER_DRIVE: usize = 3;

/// Checkpoint cadence of the stage-by-stage drive (the campaign default).
const CHECKPOINT_EVERY: u64 = 64;

/// The committed aggregate digest of the roster alone, at any worker
/// count: `zoo-roster` at full size, `zoo-roster:quick` (E17) when tiny.
fn roster_golden(tiny: bool) -> u64 {
    if tiny {
        0x82e8_4b6c_5307_29ac
    } else {
        0x92d1_7f03_288e_9958
    }
}

/// The campaign manifest for `cfg`.
fn manifest(cfg: &Config) -> Manifest {
    let (roster, faults) = if cfg.tiny {
        ("zoo-roster:quick", 16)
    } else {
        ("zoo-roster", FAULT_CASES)
    };
    Manifest::parse(&format!("{roster}+fault:{}:{faults}", cfg.seed))
        .expect("the benchmark's manifest spec parses")
}

/// The (roster family, tool) of roster case `id`, as px-campaign's runner
/// resolves it.
fn roster_case(tiny: bool, id: u64) -> (usize, Tool) {
    let tools = Tool::ALL.len() as u64;
    let family = if tiny { id } else { id / tools };
    (family as usize, Tool::ALL[(id % tools) as usize])
}

/// Fresh scratch directories under the benchmark's scratch root, one per
/// pass; the whole tree is removed on drop.
struct Scratch {
    root: PathBuf,
    next: u64,
}

impl Scratch {
    fn new(base: &Path) -> Scratch {
        Scratch {
            root: base.join(format!("zoo-{}", std::process::id())),
            next: 0,
        }
    }

    fn fresh(&mut self) -> PathBuf {
        let dir = self.root.join(self.next.to_string());
        self.next += 1;
        std::fs::create_dir_all(&dir).expect("the scratch directory can be created");
        dir
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.root);
        if let Some(parent) = self.root.parent() {
            // Only removes the shared root if no other run is using it.
            let _ = std::fs::remove_dir(parent);
        }
    }
}

/// The workload's state: manifest, pinned digests and scratch space.
struct Zoo {
    manifest: Manifest,
    tiny: bool,
    threads: usize,
    roster_cases: u64,
    scratch: Scratch,
    /// Aggregate digest of the whole manifest, pinned by the cold pass.
    pinned: u64,
}

impl Zoo {
    fn new(cfg: &Config) -> Zoo {
        let manifest = manifest(cfg);
        Zoo {
            roster_cases: manifest.gens[0].count(),
            manifest,
            tiny: cfg.tiny,
            threads: cfg.threads,
            scratch: Scratch::new(&cfg.scratch),
            pinned: 0,
        }
    }

    /// One `px_campaign::run` pass in a fresh directory. With `roster`, the
    /// journal's roster records are re-folded into their own aggregate
    /// before the directory is removed.
    fn pass(&mut self, roster: bool) -> Result<(f64, CampaignReport, Option<Aggregate>), String> {
        let dir = self.scratch.fresh();
        let path = dir.join("journal.ndjson");
        let mut cfg = CampaignConfig::new(self.manifest.clone(), path.clone());
        cfg.workers = self.threads;
        cfg.resume = false;
        let start = Instant::now();
        let report = px_campaign::run(&cfg);
        let secs = start.elapsed().as_secs_f64();
        let folded = if roster && report.is_ok() {
            Some(self.fold_roster(&path))
        } else {
            None
        };
        let _ = std::fs::remove_dir_all(&dir);
        let report = report.map_err(|e| e.to_string())?;
        Ok((secs, report, folded.transpose()?))
    }

    fn fold_roster(&self, journal_path: &Path) -> Result<Aggregate, String> {
        let state = journal::load(journal_path).map_err(|e| e.to_string())?;
        let mut agg = Aggregate::default();
        for rec in state.records.iter().filter(|r| r.id < self.roster_cases) {
            agg.absorb(rec).map_err(|e| e.to_string())?;
        }
        Ok(agg)
    }

    /// Counts a pass's cases: quarantined cases, an incomplete pass or an
    /// aggregate that misses `pinned` are failures.
    fn check(&self, tally: &mut Tally, report: &CampaignReport, pinned: Option<u64>) {
        let bad_digest = pinned.is_some_and(|d| d != report.digest());
        let incomplete = !report.complete() || report.interrupted;
        let failed = report.quarantined.len() as u64
            + u64::from(bad_digest || incomplete) * report.total.max(1);
        tally.count(report.total, failed, || {
            format!(
                "campaign pass: {} quarantined, complete {}, digest {} (pinned {})",
                report.quarantined.len(),
                report.complete(),
                hex64(report.digest()),
                pinned.map_or_else(|| "-".to_owned(), hex64)
            )
        });
    }

    /// The cold pass in this process: pins the aggregate digest and checks
    /// the roster's share against its committed golden.
    fn cold(&mut self, tally: &mut Tally) -> Option<(f64, Aggregate)> {
        match self.pass(true) {
            Ok((secs, report, Some(roster))) => {
                self.check(tally, &report, None);
                self.pinned = report.digest();
                let golden = roster_golden(self.tiny);
                tally.check(roster.digest() == golden, || {
                    format!(
                        "roster aggregate {} does not match the committed {}",
                        hex64(roster.digest()),
                        hex64(golden)
                    )
                });
                Some((secs, roster))
            }
            Ok((_, _, None)) => unreachable!("a roster pass folds the roster"),
            Err(e) => {
                tally.check(false, || format!("cold campaign pass: {e}"));
                None
            }
        }
    }

    /// Regenerates and compiles every roster case's program the way the
    /// campaign runner does, and (with `plans`) enumerates its prime paths.
    fn replica(&self, plans: bool, spans: &mut Spans, tally: &mut Tally) -> Vec<Case> {
        let roster = zoo::roster();
        let budget = Watchdog::default_budget().clamp(ZOO_BUDGET);
        let mut cases = Vec::new();
        for id in 0..self.roster_cases {
            let (family, tool) = roster_case(self.tiny, id);
            let spec = &roster[family];
            let w = spans.time("workloads.generate", || zoo::generate(spec));
            let compiled = match spans.time("lang.compile", || w.compile_for(tool)) {
                Ok(c) => c,
                Err(e) => {
                    tally.check(false, || {
                        format!("{spec}/{} does not compile: {e}", tool.name())
                    });
                    continue;
                }
            };
            let program = compiled.program;
            let dp = spans.time("isa.decode", || DecodedProgram::decode(&program));
            let analysis = spans.time("analyze.analysis", || Analysis::of(&program));
            let (mut paths, mut truncated) = (0, false);
            let plan: Option<Arc<PathPlan>> = if plans {
                spans.time("analyze.prime_paths", || {
                    let set = analysis.prime_paths(&program);
                    paths = set.len() as u64;
                    truncated = set.truncated();
                    plan_paths(&set).ok().map(Arc::new)
                })
            } else {
                None
            };
            let px = PxConfig::default()
                .with_max_nt_path_len(w.max_nt_path_len)
                .with_max_instructions(budget);
            cases.push(Case {
                key: format!("{spec}/{}", tool.name()),
                feasible: analysis.feasible_edges().to_vec(),
                feasible_count: analysis.feasible_edge_count(),
                input: w.general_input(1),
                px: [
                    px.clone().with_path_plan(plan.clone()),
                    px.clone(),
                    px.with_path_plan(plan).with_nt_memo(false),
                ],
                program,
                dp,
                paths,
                truncated,
            });
        }
        cases
    }

    /// Drives every case through the campaign's per-stage public calls on
    /// one fresh thread (so its thread-local replay caches start empty):
    /// run, encode, append, absorb, and an fsynced checkpoint every
    /// [`CHECKPOINT_EVERY`] records. The aggregate must equal the pinned
    /// one. Returns the wall seconds and each case's run seconds.
    fn drive(&mut self, spans: Option<&mut Spans>, tally: &mut Tally) -> (f64, Vec<f64>) {
        let dir = self.scratch.fresh();
        let (manifest, pinned) = (&self.manifest, self.pinned);
        let (secs, case_secs, result) = std::thread::scope(|s| {
            s.spawn(|| drive_stages(manifest, &dir.join("journal.ndjson"), spans))
                .join()
                .expect("the stage drive does not panic")
        });
        let _ = std::fs::remove_dir_all(&dir);
        match result {
            Ok((agg, quarantined)) => tally.count(
                agg.total,
                quarantined + u64::from(agg.digest() != pinned),
                || {
                    format!(
                        "stage drive: {quarantined} quarantined, aggregate {} (pinned {})",
                        hex64(agg.digest()),
                        hex64(pinned)
                    )
                },
            ),
            Err(e) => tally.check(false, || format!("stage drive: {e}")),
        }
        (secs, case_secs)
    }
}

/// A roster case rebuilt outside the campaign.
struct Case {
    key: String,
    program: Program,
    dp: DecodedProgram,
    feasible: Vec<[bool; 2]>,
    feasible_count: u32,
    input: Vec<u8>,
    /// `[with plan, without plan, with plan and replay cache off]`.
    px: [PxConfig; 3],
    paths: u64,
    truncated: bool,
}

impl Case {
    /// Runs the case as the campaign does (standard engine, input seed 1)
    /// under config `leg`, with a fresh replay-cache table.
    fn run(&self, leg: usize) -> (PxRunResult, MemoCounters) {
        let (mach, px) = (MachConfig::single_core(), &self.px[leg]);
        let io = IoState::new(self.input.clone(), 1);
        if px.nt_memo {
            let mut table = standard_memo_table(&self.program, &mach, px);
            let r = run_standard_memo(&self.program, &self.dp, &mach, px, io, &mut table);
            let evictions = table.evictions();
            (
                r,
                MemoCounters {
                    evictions,
                    ..table.counters
                },
            )
        } else {
            let r = run_standard_decoded(&self.program, &self.dp, &mach, px, io);
            (r, MemoCounters::default())
        }
    }
}

fn timed<R>(spans: &mut Option<&mut Spans>, name: &'static str, f: impl FnOnce() -> R) -> R {
    match spans {
        Some(s) => s.time(name, f),
        None => f(),
    }
}

/// The body of [`Zoo::drive`]: wall seconds, each case's run seconds, and
/// the aggregate with the count of quarantined cases.
fn drive_stages(
    manifest: &Manifest,
    path: &Path,
    mut spans: Option<&mut Spans>,
) -> (f64, Vec<f64>, Result<(Aggregate, u64), String>) {
    let start = Instant::now();
    let wd = Watchdog::default_budget();
    let mut case_secs = Vec::new();
    let result = (|| {
        let total = manifest.total();
        let meta = JournalMeta {
            manifest: manifest.to_string(),
            timeout: wd.timeout,
            total,
        };
        let err = |e: px_campaign::CampaignError| e.to_string();
        let mut journal = Journal::create(path, &meta).map_err(err)?;
        let mut agg = Aggregate::default();
        let mut quarantined = 0;
        for id in 0..total {
            let t = Instant::now();
            let rec = timed(&mut spans, "campaign.run_case", || {
                run_only(manifest, wd.timeout, id)
            });
            case_secs.push(t.elapsed().as_secs_f64());
            quarantined += u64::from(rec.outcome != CaseOutcome::Done);
            std::hint::black_box(timed(&mut spans, "campaign.encode", || rec.to_line()));
            timed(&mut spans, "campaign.append", || journal.case(&rec)).map_err(err)?;
            timed(&mut spans, "campaign.absorb", || agg.absorb(&rec)).map_err(err)?;
            if (id + 1) % CHECKPOINT_EVERY == 0 || id + 1 == total {
                timed(&mut spans, "campaign.ckpt", || {
                    journal.ckpt(agg.total, &agg)
                })
                .map_err(err)?;
            }
        }
        Ok((agg, quarantined))
    })();
    (start.elapsed().as_secs_f64(), case_secs, result)
}

/// Child-process mode: one cold pass, printed as `cold-pass <seconds>
/// <aggregate digest>`.
pub fn cold_child(cfg: &Config) -> Result<(), String> {
    let mut z = Zoo::new(cfg);
    let (secs, report, _) = z.pass(false)?;
    if !report.complete() || !report.quarantined.is_empty() {
        return Err("cold pass did not complete cleanly".to_owned());
    }
    println!("cold-pass {secs} {}", hex64(report.digest()));
    Ok(())
}

/// Runs a cold pass in a fresh child process; `(seconds, digest)`.
fn child_cold_pass(cfg: &Config) -> Result<(f64, String), String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let out = Command::new(exe)
        .args(cfg.child_args())
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot start the cold-pass child: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let line = stdout.lines().last().unwrap_or_default();
    match line.split_whitespace().collect::<Vec<_>>()[..] {
        ["cold-pass", secs, digest] if out.status.success() => Ok((
            secs.parse()
                .map_err(|_| format!("bad child output {line:?}"))?,
            digest.to_owned(),
        )),
        _ => Err(format!("cold-pass child failed ({}): {line:?}", out.status)),
    }
}

/// Runs the workload; returns the number of timed passes.
pub fn run(cfg: &Config, tally: &mut Tally, v: &mut Values) -> usize {
    let mut z = Zoo::new(cfg);
    eprintln!(
        "perfbench: zoo-campaign manifest {} ({} cases, {} workers)",
        z.manifest,
        z.manifest.total(),
        z.threads
    );
    let Some((cold_secs, roster)) = z.cold(tally) else {
        return 0;
    };
    eprintln!(
        "perfbench: peak RSS after the cold pass {:.1} MB",
        crate::stats::peak_rss_mb()
    );
    if cfg.trace {
        trace(&mut z, cfg, tally, v, &roster)
    } else {
        measure(&mut z, cfg, tally, v, cold_secs, &roster)
    }
}

fn measure(
    z: &mut Zoo,
    cfg: &Config,
    tally: &mut Tally,
    v: &mut Values,
    cold_secs: f64,
    roster: &Aggregate,
) -> usize {
    // The child cold passes are spread over the warm window, so the median
    // cold pass sees the same host conditions as the warm passes.
    let mut cold = vec![cold_secs];
    let mut pass_secs = Vec::new();
    let mut case_best = vec![f64::INFINITY; z.manifest.total() as usize];
    for k in 0..COLD_PASSES {
        if k > 0 {
            match child_cold_pass(cfg) {
                Ok((secs, digest)) => {
                    tally.check(digest == hex64(z.pinned), || {
                        format!(
                            "cold-pass child digest {digest} (pinned {})",
                            hex64(z.pinned)
                        )
                    });
                    cold.push(secs);
                }
                Err(e) => tally.check(false, || e),
            }
        }
        let start = Instant::now();
        loop {
            for _ in 0..WARM_PASSES_PER_DRIVE {
                match z.pass(false) {
                    Ok((secs, report, _)) => {
                        z.check(tally, &report, Some(z.pinned));
                        pass_secs.push(secs);
                    }
                    Err(e) => tally.check(false, || format!("warm campaign pass: {e}")),
                }
            }
            for (best, secs) in case_best.iter_mut().zip(z.drive(None, tally).1) {
                *best = best.min(secs);
            }
            if start.elapsed().as_secs_f64() >= cfg.seconds / COLD_PASSES as f64 {
                break;
            }
        }
    }
    let total = z.manifest.total() as f64;
    let pass_ms: Vec<f64> = pass_secs.iter().map(|s| s * 1e3).collect();
    eprintln!(
        "perfbench: cold passes s {cold:.3?}; warm passes {}  ms min {:.1}  p25 {:.1}  median {:.1}  p75 {:.1}  p90 {:.1}",
        pass_ms.len(),
        quantile(&pass_ms, 0.0),
        quantile(&pass_ms, 0.25),
        quantile(&pass_ms, 0.5),
        quantile(&pass_ms, 0.75),
        quantile(&pass_ms, 0.9),
    );
    // Throughput is taken at the fastest pass and each case's latency at its
    // fastest sequential run: contention on a shared host only ever adds
    // time.
    let fastest = quantile(&pass_secs, 0.0);
    let case_ms: Vec<f64> = case_best.iter().map(|s| s * 1e3).collect();
    v.insert("setup_s", median(&cold));
    v.insert("op_ms_p50", hd_quantile(&case_ms, 0.5));
    v.insert("op_ms_p90", hd_quantile(&case_ms, 0.9));
    v.insert("cases_per_s", total / fastest);

    // Bookkeeping outside the timed window: the campaign reports no
    // instruction counts or feasible-edge denominators, so the roster cases
    // are rebuilt and re-run through the public API to obtain them.
    let cases = z.replica(false, &mut Spans::default(), tally);
    let (mut instructions, mut spawns, mut covered, mut feasible) = (0u64, 0u64, 0u64, 0u64);
    for c in &cases {
        let (r, _) = c.run(1);
        instructions += r.stats.taken_instructions + r.stats.nt_instructions;
        spawns += r.stats.spawns;
        feasible += u64::from(c.feasible_count);
        if let Some(cov) = roster.coverage.get(&c.key) {
            covered += u64::from(cov.covered_feasible_edges(&c.program, &c.feasible));
        }
    }
    tally.check(spawns == roster.nt_paths, || {
        format!(
            "re-run roster spawns {spawns} differ from the campaign's {}",
            roster.nt_paths
        )
    });
    let roster_secs: f64 = case_best[..z.roster_cases as usize].iter().sum();
    v.insert("sim_mips", ratio(instructions as f64, roster_secs) / 1e6);
    v.insert(
        "edge_coverage_pct",
        100.0 * ratio(covered as f64, feasible as f64),
    );
    pass_secs.len()
}

fn trace(
    z: &mut Zoo,
    cfg: &Config,
    tally: &mut Tally,
    v: &mut Values,
    roster: &Aggregate,
) -> usize {
    let mut setup = Spans::default();
    let cases = z.replica(true, &mut setup, tally);
    setup.put_setup(v);
    v.insert("analyze.paths", cases.iter().map(|c| c.paths as f64).sum());
    v.insert(
        "analyze.truncated",
        cases.iter().filter(|c| c.truncated).count() as f64,
    );
    v.insert("bugs_detected", roster.detections as f64);

    let mut counters = LayerCounters::default();
    let (mut plain, mut traced, mut shares, mut stage_spans) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let (mut ns, mut trail, mut saved, mut steals) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let start = Instant::now();
    while traced.is_empty() || start.elapsed().as_secs_f64() < cfg.seconds {
        plain.push(z.drive(None, tally).0);
        let mut spans = Spans::default();
        let (wall, _) = z.drive(Some(&mut spans), tally);
        traced.push(wall);
        shares.push(ratio(spans.total_ms(), wall * 1e3));
        stage_spans.push(spans);

        // The replica legs: plan and replay cache on (as the campaign
        // runs), plan off, replay cache off.
        let mut secs = [0.0f64; 3];
        let mut instructions = 0u64;
        for c in &cases {
            let mut digests = [0u64; 3];
            for leg in 0..3 {
                let t = Instant::now();
                let run = catch_unwind(AssertUnwindSafe(|| c.run(leg)));
                secs[leg] += t.elapsed().as_secs_f64();
                let Ok((r, memo)) = run else {
                    tally.check(false, || format!("{} leg {leg} panicked", c.key));
                    continue;
                };
                digests[leg] = r.taken_path_digest(&c.program) ^ r.cycles.rotate_left(17);
                if leg == 0 {
                    instructions += r.stats.taken_instructions + r.stats.nt_instructions;
                    if plain.len() == 1 {
                        counters.absorb(&r, &memo, &c.program);
                    }
                }
            }
            tally.check(digests.iter().all(|&d| d == digests[0]), || {
                format!("{}: plan or replay cache changed the run", c.key)
            });
        }
        ns.push(ratio(secs[0] * 1e9, instructions as f64));
        trail.push((secs[0] - secs[1]) * 1e3);
        saved.push((secs[2] - secs[0]) * 1e3);

        match z.pass(false) {
            Ok((_, report, _)) => {
                z.check(tally, &report, Some(z.pinned));
                steals.push(report.steals as f64);
            }
            Err(e) => tally.check(false, || format!("warm campaign pass: {e}")),
        }
    }
    for (span, metric) in [
        ("campaign.run_case", "campaign.run_case_ms"),
        ("campaign.encode", "campaign.encode_ms"),
        ("campaign.append", "campaign.append_ms"),
        ("campaign.ckpt", "campaign.ckpt_ms"),
        ("campaign.absorb", "campaign.absorb_ms"),
    ] {
        let per_pass: Vec<f64> = stage_spans.iter().map(|s| s.ms(span)).collect();
        v.insert(metric, median(&per_pass));
    }
    counters.put(v);
    v.insert("campaign.steals", median(&steals));
    v.insert("core.standard_ns_per_instr", median(&ns));
    v.insert("mach.paths.trail_ms", median(&trail));
    v.insert("mach.memo.saved_ms", median(&saved));
    v.insert("trace.attributed_share", median(&shares));
    v.insert(
        "trace.overhead_pct",
        (ratio(median(&traced), median(&plain)) - 1.0) * 100.0,
    );
    traced.len()
}
