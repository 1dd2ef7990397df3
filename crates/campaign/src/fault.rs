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
//! This module holds only the per-case function, [`run_case`]. Campaigns
//! run through the one driver, [`crate::run`] (`pxc campaign --cases
//! fault:<seed>:<n>[:<mix>]`): manifest entry `fault:<seed>:<n>` maps case
//! `i` to `run_case(seed, i, mix, budget)`, and the runner classifies its
//! outcome, journals it and folds it into the aggregate. Every case is
//! replayable alone (`pxc campaign --cases … --only <id>`), because each
//! derives its own RNG from `seed` and its index.

use std::sync::OnceLock;

use pathexpander::{differential_run, measure_latency, PxConfig};
use px_isa::asm::assemble;
use px_isa::Program;
use px_mach::{run_baseline_with, CacheConfig, FaultMix, FaultPlan, IoState, MachConfig, RunExit};
use px_util::{Rng, SplitMix64};

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

/// Template `idx` (modulo the pool): its name, its program — assembled
/// once per process, on first use — and a fresh I/O state.
fn template(idx: usize) -> (&'static str, &'static Program, IoState) {
    static ASSEMBLED: OnceLock<Vec<Program>> = OnceLock::new();
    let programs = ASSEMBLED.get_or_init(|| {
        PROGRAMS
            .iter()
            .map(|(name, src, _)| {
                assemble(src).unwrap_or_else(|e| panic!("campaign template {name}: {e}"))
            })
            .collect()
    });
    let i = idx % PROGRAMS.len();
    let (name, _, input) = PROGRAMS[i];
    (name, &programs[i], IoState::new(input.to_vec(), 0xC0FFEE))
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
    let len = *rng.choose(&[50u32, 200, 1000]);
    let threshold = *rng.choose(&[1u8, 5]);
    // One case in two caps the length at 64, below every paper value. The
    // cap is its own draw, after the threshold: the pinned fault-campaign
    // digests depend on this draw order.
    let cap = *rng.choose(&[64u32, 1_000_000]);
    let mut px = PxConfig::default()
        .with_max_instructions(CASE_BUDGET)
        .with_max_nt_path_len(len.min(cap))
        .with_counter_threshold(threshold);
    if rng.chance(1, 3) {
        px = px.with_os_sandbox(true);
    }
    if rng.chance(1, 4) {
        px = px.with_random_factor(Some(8));
    }
    px
}

/// Runs case `id` of the fault campaign with `seed` and `mix` under an
/// instruction `budget` ([`CASE_BUDGET`], or less when the campaign
/// watchdog clamps it). The budget does **not** enter the per-case RNG draw
/// stream: the program, engine, configuration and fault plan a case draws
/// are the same under every budget, so a watchdog never changes *which*
/// case runs, only how far it gets.
#[must_use]
pub fn run_case(seed: u64, id: u64, mix: &FaultMix, budget: u64) -> FaultCase {
    let mut rng = SplitMix64::new(seed ^ id.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    let fault_seed = rng.next_u64();
    let period = rng.range_u64(2, 9) as u32;
    let engine = ENGINES[(id % 4) as usize];
    let (program_name, program, io) = template(rng.next_u64() as usize);
    let mut plan = FaultPlan::new(fault_seed, *mix, period);

    let (exit, faults, nt_paths, violations) = match engine {
        "baseline" => {
            // Faults are architectural here — the program may crash or
            // diverge; the property under test is that the *simulator*
            // never panics and never reports an engine fault.
            let mach = draw_mach(&mut rng, 1);
            let r = run_baseline_with(program, &mach, io, budget, Some(&mut plan), None);
            let violations = match r.exit {
                RunExit::EngineFault(e) => vec![format!("baseline engine fault: {e}")],
                _ => Vec::new(),
            };
            (r.exit.class().to_owned(), plan.stats.total(), 0, violations)
        }
        "feasibility" => {
            let mach = draw_mach(&mut rng, 1);
            let profile = measure_latency(program, &mach, io, 200, budget, Some(&mut plan));
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
            let (result, report) = differential_run(program, &mach, &px, io, Some(&mut plan));
            (
                result.exit.class().to_owned(),
                plan.stats.total(),
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::watchdog::Watchdog;
    use crate::{run_only, CaseOutcome, Manifest};

    #[test]
    fn small_campaign_is_contained_and_deterministic() {
        let m = Manifest::parse("fault:7:16").unwrap();
        let run = || -> Vec<_> {
            (0..16)
                .map(|id| run_only(&m, Watchdog::DEFAULT_TIMEOUT, id))
                .collect()
        };
        let a = run();
        assert!(
            a.iter().all(|r| r.outcome == CaseOutcome::Done),
            "every case contained: {a:?}"
        );
        assert!(a.iter().any(|r| r.faults > 0), "the mix must actually fire");
        assert_eq!(a, run());
    }

    #[test]
    fn case_replay_matches_campaign() {
        let mix = FaultMix::parse("bitflip,crash=2,runaway").unwrap();
        let m = Manifest::parse(&format!("fault:11:8:{mix}")).unwrap();
        // The runner's record of case 5 is exactly the per-case function's
        // run at the unclamped budget.
        let rec = run_only(&m, Watchdog::DEFAULT_TIMEOUT, 5);
        let direct = run_case(11, 5, &mix, CASE_BUDGET);
        assert_eq!(rec.case, format!("fault:11:8:{mix}#5"));
        assert_eq!(rec.exit, direct.exit);
        assert_eq!(rec.faults, direct.faults);
        assert_eq!(rec.nt_paths, direct.nt_paths);
    }

    #[test]
    fn all_four_engines_appear() {
        let mix = FaultMix::uniform();
        let mut seen: Vec<String> = (0..4)
            .map(|id| run_case(3, id, &mix, CASE_BUDGET).engine)
            .collect();
        seen.sort();
        let mut want: Vec<String> = ENGINES.iter().map(|s| (*s).to_owned()).collect();
        want.sort();
        assert_eq!(seen, want);
    }

    #[test]
    fn budget_never_enters_the_draw_stream() {
        let mix = FaultMix::uniform();
        for id in 0..4 {
            let full = run_case(21, id, &mix, CASE_BUDGET);
            let clamped = run_case(21, id, &mix, 500);
            assert_eq!(full.engine, clamped.engine);
            assert_eq!(full.program, clamped.program);
            assert_eq!(full.fault_seed, clamped.fault_seed);
            assert_eq!(full.period, clamped.period);
        }
    }
}
