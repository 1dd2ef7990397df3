//! The **fault-injection campaign** (robustness experiment E12): prove that
//! the sandbox contains everything.
//!
//! Each case draws a program, an engine (baseline / standard / CMP /
//! feasibility), a machine + PathExpander configuration and a seeded
//! [`FaultPlan`] from one campaign seed, runs it, and — for the PathExpander
//! engines — diffs the committed state against a plain, un-faulted baseline
//! with [`pathexpander::check_containment`]. The paper's §4.2(2)/§4.3
//! guarantee under test: whatever happens inside an NT-path (bit flips,
//! forced exceptions, runaway loops, vtag corruption, monitor pressure,
//! I/O errors), the committed run is bit-identical to one without
//! PathExpander, and no engine ever panics.
//!
//! Every case is replayable: the summary records the per-case fault seed,
//! and [`run_case`] regenerates case `i` of campaign seed `s` exactly.
//!
//! This module lives in `px-campaign` (it moved here from the bench
//! harness) so the crash-safe campaign runner, the `fault_campaign` binary
//! and `pxc campaign` all share one implementation; `px_bench::experiments::
//! fault` re-exports it, so existing import paths keep working. The
//! watchdog-guarded entry points ([`run_case_guarded`],
//! [`run_campaign_guarded`]) wrap the same case logic — the RNG draw stream
//! is untouched by the budget parameter, so the classic summary stays
//! byte-identical to its pinned golden.

use std::panic::{catch_unwind, AssertUnwindSafe};

use pathexpander::{differential_run, measure_latency, PxConfig};
use px_isa::asm::assemble;
use px_isa::Program;
use px_mach::{run_baseline_with, CacheConfig, FaultMix, FaultPlan, IoState, MachConfig, RunExit};
use px_util::{Json, Rng, SplitMix64, ToJson};

use crate::outcome::CaseOutcome;
use crate::watchdog::Watchdog;

/// Instruction budget per campaign case — small enough that 256 cases stay
/// in test-suite time, large enough that NT-paths spawn and faults land.
pub const CASE_BUDGET: u64 = 60_000;

/// The four engines every campaign exercises.
pub const ENGINES: [&str; 4] = ["baseline", "standard", "cmp", "feasibility"];

/// A small pool of assembly templates, each exercising a different corner of
/// the sandbox: NT-edge bugs, NT stores that must roll back, I/O on both
/// paths, runaway NT loops, and store sweeps that pressure the L1.
const PROGRAMS: [(&str, &str, &[u8]); 5] = [
    (
        "nt-bug",
        r"
        .code
        main:
            li r1, 1
            bne r1, zero, ok
            li r3, 0
            assert r3, #77
            li r6, 80
        ntspin:
            subi r6, r6, 1
            bgt r6, zero, ntspin
            jmp ok
        ok:
            li r4, 60
        loop:
            subi r4, r4, 1
            bgt r4, zero, loop
            li r2, 0
            exit
        ",
        b"",
    ),
    (
        "nt-store",
        r"
        .data
        g: .word 7
        h: .word 13
        .code
        main:
            li r1, 1
            bne r1, zero, ok
            la r5, g
            li r6, 999
            sw r6, 0(r5)
            sw r6, 4(r5)
            jmp ok
        ok:
            li r4, 40
        loop:
            subi r4, r4, 1
            bgt r4, zero, loop
            la r5, g
            lw r2, 0(r5)
            printi
            lw r2, 4(r5)
            printi
            li r2, 0
            exit
        ",
        b"",
    ),
    (
        "io-echo",
        r"
        .code
        main:
            li r4, 3
        loop:
            readi
            mv r2, r1
            blt r2, zero, neg
            printi
            jmp next
        neg:
            li r2, 45
            putc
        next:
            subi r4, r4, 1
            bgt r4, zero, loop
            li r2, 0
            exit
        ",
        b"5 -3 11",
    ),
    (
        "nt-runaway",
        r"
        .code
        main:
            li r1, 1
            bne r1, zero, ok
        spin:
            addi r8, r8, 1
            jmp spin
        ok:
            li r4, 50
        loop:
            subi r4, r4, 1
            bgt r4, zero, loop
            li r2, 0
            exit
        ",
        b"",
    ),
    (
        "mem-walk",
        r"
        .data
        base: .word 0
        .code
        main:
            li r1, 1
            la r9, base
            li r4, 90
        loop:
            bne r1, zero, work
            sw r4, 64(r9)
            sw r4, 96(r9)
        work:
            sw r4, 0(r9)
            addi r9, r9, 4
            subi r4, r4, 1
            bgt r4, zero, loop
            li r2, 0
            exit
        ",
        b"",
    ),
];

/// The outcome of one campaign case.
#[derive(Debug, Clone)]
pub struct FaultCase {
    /// Case index within the campaign.
    pub id: u64,
    /// Engine exercised.
    pub engine: String,
    /// Program template name.
    pub program: String,
    /// The fault plan's seed — replays this case's injection stream.
    pub fault_seed: u64,
    /// Injection period (one fault roughly every `period` steps).
    pub period: u32,
    /// Exit class of the run (`exited` / `crashed` / `budget` /
    /// `engine-fault`).
    pub exit: String,
    /// Faults the plan delivered.
    pub faults: u64,
    /// NT-paths completed (0 for baseline).
    pub nt_paths: u64,
    /// Containment violations (empty for baseline / feasibility cases,
    /// which only assert panic-freedom).
    pub violations: Vec<String>,
}

impl ToJson for FaultCase {
    fn to_json(&self) -> Json {
        Json::obj([
            ("id", self.id.to_json()),
            ("engine", self.engine.to_json()),
            ("program", self.program.to_json()),
            ("fault_seed", self.fault_seed.to_json()),
            ("period", self.period.to_json()),
            ("exit", self.exit.to_json()),
            ("faults", self.faults.to_json()),
            ("nt_paths", self.nt_paths.to_json()),
            ("violations", self.violations.to_json()),
        ])
    }
}

/// Aggregate result of a campaign.
#[derive(Debug, Clone)]
pub struct CampaignSummary {
    /// Campaign seed.
    pub seed: u64,
    /// Cases run.
    pub cases: u64,
    /// The fault mix, in its canonical spec form.
    pub mix: String,
    /// Total faults injected across all cases.
    pub faults_injected: u64,
    /// Cases whose containment check passed (or that only assert
    /// panic-freedom and returned).
    pub contained: u64,
    /// `(exit class, count)` histogram across cases.
    pub exits: Vec<(String, u64)>,
    /// Cases that violated containment, with full replay coordinates.
    pub violating: Vec<FaultCase>,
}

impl CampaignSummary {
    /// Whether the sandbox contained every case.
    #[must_use]
    pub fn all_contained(&self) -> bool {
        self.violating.is_empty()
    }
}

impl ToJson for CampaignSummary {
    fn to_json(&self) -> Json {
        Json::obj([
            ("seed", self.seed.to_json()),
            ("cases", self.cases.to_json()),
            ("mix", self.mix.to_json()),
            ("faults_injected", self.faults_injected.to_json()),
            ("contained", self.contained.to_json()),
            (
                "exits",
                Json::Arr(
                    self.exits
                        .iter()
                        .map(|(class, n)| {
                            Json::obj([("class", class.to_json()), ("n", n.to_json())])
                        })
                        .collect(),
                ),
            ),
            (
                "violating",
                Json::Arr(self.violating.iter().map(ToJson::to_json).collect()),
            ),
        ])
    }
}

fn assemble_template(idx: usize) -> (&'static str, Program, IoState) {
    let (name, src, input) = PROGRAMS[idx % PROGRAMS.len()];
    let program = assemble(src).unwrap_or_else(|e| panic!("campaign template {name}: {e}"));
    (name, program, IoState::new(input.to_vec(), 0xC0FFEE))
}

/// Draws the per-case machine configuration: mostly the paper's Table 2,
/// sometimes a 2-line L1 (sandbox-overflow pressure) or an extra-small BTB
/// (counter-eviction pressure).
fn draw_mach(rng: &mut SplitMix64, cores: usize) -> MachConfig {
    let mut mach = if cores >= 2 {
        MachConfig::default()
    } else {
        MachConfig::single_core()
    };
    if rng.chance(1, 3) {
        mach.l1 = CacheConfig {
            size_bytes: 64,
            assoc: 2,
            line_bytes: 32,
            hit_cycles: 3,
        };
    }
    if rng.chance(1, 4) {
        mach.btb_entries = 64;
        mach.btb_assoc = 2;
    }
    mach
}

fn draw_px(rng: &mut SplitMix64) -> PxConfig {
    let mut px = PxConfig::default()
        .with_max_instructions(CASE_BUDGET)
        .with_max_nt_path_len(*rng.choose(&[50u32, 200, 1000]))
        .with_counter_threshold(*rng.choose(&[1u8, 5]))
        .with_nt_watchdog(*rng.choose(&[64u64, 1_000_000]));
    if rng.chance(1, 3) {
        px = px.with_os_sandbox(true);
    }
    if rng.chance(1, 4) {
        px = px.with_random_factor(Some(8));
    }
    px
}

/// Runs case `id` of the campaign with `seed` and `mix` — exactly what
/// [`run_campaign`] runs, exposed so a violating case can be replayed alone.
#[must_use]
pub fn run_case(seed: u64, id: u64, mix: &FaultMix) -> FaultCase {
    run_case_budget(seed, id, mix, CASE_BUDGET)
}

/// [`run_case`] with an explicit instruction budget (the campaign runner's
/// watchdog clamp). The budget does **not** enter the per-case RNG draw
/// stream: a case run under `budget == CASE_BUDGET` is bit-identical to the
/// historical [`run_case`], which the pinned campaign golden relies on.
#[must_use]
pub fn run_case_budget(seed: u64, id: u64, mix: &FaultMix, budget: u64) -> FaultCase {
    let mut rng = SplitMix64::new(seed ^ id.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    let fault_seed = rng.next_u64();
    let period = rng.range_u64(2, 9) as u32;
    let engine = ENGINES[(id % 4) as usize];
    let (program_name, program, io) = assemble_template(rng.next_u64() as usize);
    let mut plan = FaultPlan::new(fault_seed, *mix, period);

    let (exit, faults, nt_paths, violations) = match engine {
        "baseline" => {
            // Faults are architectural here — the program may crash or
            // diverge; the property under test is that the *simulator*
            // never panics and never reports an engine fault.
            let mach = draw_mach(&mut rng, 1);
            let r = run_baseline_with(&program, &mach, io, budget, Some(&mut plan), None);
            let violations = match r.exit {
                RunExit::EngineFault(e) => vec![format!("baseline engine fault: {e}")],
                _ => Vec::new(),
            };
            (r.exit.class().to_owned(), plan.stats.total(), 0, violations)
        }
        "feasibility" => {
            let mach = draw_mach(&mut rng, 1);
            let profile = measure_latency(&program, &mach, io, 200, budget, Some(&mut plan));
            (
                "exited".to_owned(),
                plan.stats.total(),
                profile.spawned as u64,
                Vec::new(),
            )
        }
        name => {
            let px = if name == "cmp" {
                draw_px(&mut rng).cmp()
            } else {
                draw_px(&mut rng)
            }
            .with_max_instructions(budget);
            let mach = draw_mach(&mut rng, if name == "cmp" { 4 } else { 1 });
            let (result, report) = differential_run(&program, &mach, &px, io, Some(&mut plan));
            (
                result.exit.class().to_owned(),
                result.stats.faults_injected,
                result.stats.paths.len() as u64,
                report.violations.iter().map(ToString::to_string).collect(),
            )
        }
    };

    FaultCase {
        id,
        engine: engine.to_owned(),
        program: program_name.to_owned(),
        fault_seed,
        period,
        exit,
        faults,
        nt_paths,
        violations,
    }
}

/// Runs a whole campaign: `cases` cases derived from `seed`, injecting
/// faults drawn from `mix`.
///
/// Cases are seeded independently (each derives its own RNG from
/// `seed ^ id`), so they run on the [`px_util::par_map`] worker pool;
/// aggregation walks the results in case-id order, keeping the summary —
/// and its JSON — byte-identical to a sequential run.
#[must_use]
pub fn run_campaign(seed: u64, cases: u64, mix: &FaultMix) -> CampaignSummary {
    let ids: Vec<u64> = (0..cases).collect();
    let results = px_util::par_map(&ids, |&id| run_case(seed, id, mix));

    let mut faults_injected = 0;
    let mut contained = 0;
    let mut exits: Vec<(String, u64)> = Vec::new();
    let mut violating = Vec::new();
    for case in results {
        faults_injected += case.faults;
        if case.violations.is_empty() {
            contained += 1;
        }
        match exits.iter_mut().find(|(class, _)| *class == case.exit) {
            Some((_, n)) => *n += 1,
            None => exits.push((case.exit.clone(), 1)),
        }
        if !case.violations.is_empty() {
            violating.push(case);
        }
    }
    exits.sort();
    CampaignSummary {
        seed,
        cases,
        mix: mix.to_string(),
        faults_injected,
        contained,
        exits,
        violating,
    }
}

/// One case of a watchdog-guarded campaign: the classic [`FaultCase`] (when
/// its closure returned) plus the campaign-runner outcome classification.
#[derive(Debug, Clone)]
pub struct GuardedCase {
    /// Case index within the campaign.
    pub id: u64,
    /// How the case ended.
    pub outcome: CaseOutcome,
    /// Exit class (`-` when the case panicked before producing a run).
    pub exit: String,
    /// Panic message / violation list rendering (empty for clean cases).
    pub detail: String,
}

impl ToJson for GuardedCase {
    fn to_json(&self) -> Json {
        Json::obj([
            ("id", self.id.to_json()),
            ("outcome", self.outcome.name().to_json()),
            ("exit", self.exit.to_json()),
            ("detail", self.detail.to_json()),
        ])
    }
}

/// Aggregate result of a watchdog-guarded campaign — what `fault_campaign
/// --case-timeout/--max-quarantine` prints. A separate type from
/// [`CampaignSummary`] so the classic JSON (and its golden) is untouched.
#[derive(Debug, Clone)]
pub struct GuardedSummary {
    /// Campaign seed.
    pub seed: u64,
    /// Cases in the campaign.
    pub cases: u64,
    /// Cases actually run (smaller than `cases` after a quarantine abort).
    pub ran: u64,
    /// The fault mix, in its canonical spec form.
    pub mix: String,
    /// Watchdog timeout (instructions).
    pub timeout: u64,
    /// Total faults injected across run cases.
    pub faults_injected: u64,
    /// Count per outcome, [`CaseOutcome::ALL`] order.
    pub outcomes: [u64; 4],
    /// `(exit class, count)` histogram across run cases.
    pub exits: Vec<(String, u64)>,
    /// Every quarantined case, with replay coordinates.
    pub quarantined: Vec<GuardedCase>,
    /// Whether the `--max-quarantine` limit aborted the campaign.
    pub aborted: bool,
}

impl GuardedSummary {
    /// Count for one outcome.
    #[must_use]
    pub fn of(&self, outcome: CaseOutcome) -> u64 {
        let slot = CaseOutcome::ALL
            .iter()
            .position(|o| *o == outcome)
            .expect("every outcome is in ALL");
        self.outcomes[slot]
    }
}

impl ToJson for GuardedSummary {
    fn to_json(&self) -> Json {
        Json::obj([
            ("schema", "px-campaign/guarded-fault-v1".to_json()),
            ("seed", self.seed.to_json()),
            ("cases", self.cases.to_json()),
            ("ran", self.ran.to_json()),
            ("mix", self.mix.to_json()),
            ("timeout", self.timeout.to_json()),
            ("faults_injected", self.faults_injected.to_json()),
            ("done", self.of(CaseOutcome::Done).to_json()),
            ("panicked", self.of(CaseOutcome::Panicked).to_json()),
            ("timed_out", self.of(CaseOutcome::TimedOut).to_json()),
            ("violated", self.of(CaseOutcome::Violated).to_json()),
            (
                "exits",
                Json::Arr(
                    self.exits
                        .iter()
                        .map(|(class, n)| {
                            Json::obj([("class", class.to_json()), ("n", n.to_json())])
                        })
                        .collect(),
                ),
            ),
            (
                "quarantined",
                Json::Arr(self.quarantined.iter().map(ToJson::to_json).collect()),
            ),
            ("aborted", self.aborted.to_json()),
        ])
    }
}

/// Runs one campaign case under a watchdog with panic containment and
/// classifies its outcome. The [`FaultCase`] is `None` only for
/// [`CaseOutcome::Panicked`].
#[must_use]
pub fn run_case_guarded(
    seed: u64,
    id: u64,
    mix: &FaultMix,
    wd: &Watchdog,
) -> (Option<FaultCase>, GuardedCase) {
    let budget = wd.clamp(CASE_BUDGET);
    match catch_unwind(AssertUnwindSafe(|| run_case_budget(seed, id, mix, budget))) {
        Ok(case) => {
            let (outcome, detail) = if !case.violations.is_empty() {
                (CaseOutcome::Violated, case.violations.join("; "))
            } else if wd.tripped(CASE_BUDGET, &case.exit) {
                (CaseOutcome::TimedOut, String::new())
            } else {
                (CaseOutcome::Done, String::new())
            };
            let exit = case.exit.clone();
            (
                Some(case),
                GuardedCase {
                    id,
                    outcome,
                    exit,
                    detail,
                },
            )
        }
        Err(payload) => (
            None,
            GuardedCase {
                id,
                outcome: CaseOutcome::Panicked,
                exit: "-".to_owned(),
                detail: px_util::panic_message(payload.as_ref()),
            },
        ),
    }
}

/// Runs a watchdog-guarded campaign: every case under [`run_case_guarded`],
/// aggregated in case-id order; when `max_quarantine` is exceeded the
/// campaign aborts deterministically at that case.
#[must_use]
pub fn run_campaign_guarded(
    seed: u64,
    cases: u64,
    mix: &FaultMix,
    wd: &Watchdog,
    max_quarantine: Option<u64>,
) -> GuardedSummary {
    let ids: Vec<u64> = (0..cases).collect();
    let results = px_util::par_map(&ids, |&id| run_case_guarded(seed, id, mix, wd));

    let mut summary = GuardedSummary {
        seed,
        cases,
        ran: 0,
        mix: mix.to_string(),
        timeout: wd.timeout,
        faults_injected: 0,
        outcomes: [0; 4],
        exits: Vec::new(),
        quarantined: Vec::new(),
        aborted: false,
    };
    for (case, guarded) in results {
        if max_quarantine.is_some_and(|limit| summary.quarantined.len() as u64 > limit) {
            summary.aborted = true;
            break;
        }
        summary.ran += 1;
        let slot = CaseOutcome::ALL
            .iter()
            .position(|o| *o == guarded.outcome)
            .expect("every outcome is in ALL");
        summary.outcomes[slot] += 1;
        if let Some(case) = &case {
            summary.faults_injected += case.faults;
            match summary
                .exits
                .iter_mut()
                .find(|(class, _)| *class == case.exit)
            {
                Some((_, n)) => *n += 1,
                None => summary.exits.push((case.exit.clone(), 1)),
            }
        }
        if guarded.outcome.quarantines() {
            summary.quarantined.push(guarded);
        }
    }
    summary.exits.sort();
    summary
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_campaign_is_contained_and_deterministic() {
        let mix = FaultMix::uniform();
        let a = run_campaign(7, 16, &mix);
        assert!(a.all_contained(), "violations: {:?}", a.violating);
        assert_eq!(a.contained, 16);
        assert!(a.faults_injected > 0, "the mix must actually fire");
        let b = run_campaign(7, 16, &mix);
        assert_eq!(a.to_json().dump(), b.to_json().dump());
    }

    #[test]
    fn case_replay_matches_campaign() {
        let mix = FaultMix::parse("bitflip,crash=2,runaway").unwrap();
        let from_campaign = run_campaign(11, 8, &mix);
        let replayed = run_case(11, 5, &mix);
        assert_eq!(from_campaign.cases, 8);
        // Replaying case 5 alone reproduces its coordinates exactly.
        let direct = run_case(11, 5, &mix);
        assert_eq!(replayed.fault_seed, direct.fault_seed);
        assert_eq!(replayed.exit, direct.exit);
        assert_eq!(replayed.faults, direct.faults);
    }

    #[test]
    fn all_four_engines_appear() {
        let mix = FaultMix::uniform();
        let mut seen: Vec<String> = (0..4).map(|id| run_case(3, id, &mix).engine).collect();
        seen.sort();
        let mut want: Vec<String> = ENGINES.iter().map(|s| (*s).to_owned()).collect();
        want.sort();
        assert_eq!(seen, want);
    }

    #[test]
    fn default_budget_matches_the_classic_case() {
        let mix = FaultMix::uniform();
        for id in 0..4 {
            let classic = run_case(21, id, &mix);
            let budgeted = run_case_budget(21, id, &mix, CASE_BUDGET);
            assert_eq!(classic.to_json().dump(), budgeted.to_json().dump());
        }
    }

    #[test]
    fn tight_watchdog_times_cases_out() {
        let mix = FaultMix::uniform();
        let wd = Watchdog { timeout: 500 };
        let summary = run_campaign_guarded(7, 16, &mix, &wd, None);
        assert_eq!(summary.ran, 16);
        assert!(
            summary.of(CaseOutcome::TimedOut) > 0,
            "a 500-instruction watchdog must trip: {summary:?}"
        );
        assert_eq!(summary.of(CaseOutcome::Panicked), 0);
        assert_eq!(summary.of(CaseOutcome::Violated), 0);
        // Guarded campaigns are deterministic too.
        let again = run_campaign_guarded(7, 16, &mix, &wd, None);
        assert_eq!(summary.to_json().dump(), again.to_json().dump());
    }

    #[test]
    fn generous_watchdog_changes_nothing() {
        let mix = FaultMix::uniform();
        let wd = Watchdog::default_budget();
        let summary = run_campaign_guarded(9, 8, &mix, &wd, None);
        assert_eq!(summary.of(CaseOutcome::Done), 8);
        assert_eq!(summary.quarantined.len(), 0);
        let classic = run_campaign(9, 8, &mix);
        assert_eq!(summary.faults_injected, classic.faults_injected);
    }
}
