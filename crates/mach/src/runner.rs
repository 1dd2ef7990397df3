//! The baseline runner: a monitored run *without* PathExpander.
//!
//! This is the paper's "Baseline" column — the program executes once on one
//! core with full timing, coverage tracking and checker monitoring, but no
//! NT-path exploration: the [`TakenPath`] alone.

use px_isa::{DecodedProgram, Program};

use crate::config::MachConfig;
use crate::core::CoreState;
use crate::coverage::Coverage;
use crate::fault::{FaultPlan, SimError, MAX_MEM_BYTES};
use crate::io::IoState;
use crate::memory::{CrashKind, Memory};
use crate::monitor::MonitorArea;
use crate::paths::{PathCoverage, PathPlan};
use crate::taken::{Halt, TakenPath};

/// How a run ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunExit {
    /// Clean `exit` system call with this code.
    Exited(i32),
    /// The taken path crashed.
    Crashed(CrashKind),
    /// The instruction budget was exhausted.
    BudgetExhausted,
    /// The *simulator* (not the simulated program) rejected the run: bad
    /// configuration, malformed program, or a broken engine invariant.
    EngineFault(SimError),
}

impl RunExit {
    /// Whether the program exited cleanly with code 0.
    #[must_use]
    pub fn is_success(&self) -> bool {
        matches!(self, RunExit::Exited(0))
    }

    /// A short class name for histograms and JSON summaries.
    #[must_use]
    pub fn class(&self) -> &'static str {
        match self {
            RunExit::Exited(_) => "exited",
            RunExit::Crashed(_) => "crashed",
            RunExit::BudgetExhausted => "budget",
            RunExit::EngineFault(_) => "engine-fault",
        }
    }

    /// The bytes run digests hash for this exit. They spell what the
    /// derived `Debug` printed when digests were first pinned, but are
    /// written out here, so renaming a variant or a field of `RunExit`,
    /// [`CrashKind`] or [`SimError`] cannot move a digest.
    #[must_use]
    pub fn digest_bytes(&self) -> Vec<u8> {
        match self {
            RunExit::Exited(code) => format!("Exited({code})"),
            RunExit::Crashed(kind) => format!("Crashed({})", crash_text(*kind)),
            RunExit::BudgetExhausted => "BudgetExhausted".to_owned(),
            RunExit::EngineFault(e) => format!("EngineFault({})", sim_error_text(*e)),
        }
        .into_bytes()
    }
}

/// [`RunExit::digest_bytes`] of a crash payload.
fn crash_text(kind: CrashKind) -> String {
    match kind {
        CrashKind::NullDeref { addr } => format!("NullDeref {{ addr: {addr} }}"),
        CrashKind::OutOfBounds { addr } => format!("OutOfBounds {{ addr: {addr} }}"),
        CrashKind::DivByZero => "DivByZero".to_owned(),
        CrashKind::BadPc { pc } => format!("BadPc {{ pc: {pc} }}"),
    }
}

/// [`RunExit::digest_bytes`] of an engine-fault payload. Messages are
/// quoted and escaped as string literals.
fn sim_error_text(e: SimError) -> String {
    match e {
        SimError::NoCores => "NoCores".to_owned(),
        SimError::NeedsTwoCores => "NeedsTwoCores".to_owned(),
        SimError::BadCacheGeometry(m) => format!("BadCacheGeometry({m:?})"),
        SimError::BadBtbGeometry(m) => format!("BadBtbGeometry({m:?})"),
        SimError::ProgramTooLarge { mem_size } => {
            format!("ProgramTooLarge {{ mem_size: {mem_size} }}")
        }
        SimError::BlobOutOfBounds { addr, len } => {
            format!("BlobOutOfBounds {{ addr: {addr}, len: {len} }}")
        }
        SimError::CoverageSizeMismatch { left, right } => {
            format!("CoverageSizeMismatch {{ left: {left}, right: {right} }}")
        }
        SimError::PathSetMismatch { left, right } => {
            format!("PathSetMismatch {{ left: {left}, right: {right} }}")
        }
        SimError::NonZeroPadding { last } => format!("NonZeroPadding {{ last: {last} }}"),
        SimError::EmptyPrimePath { path } => format!("EmptyPrimePath {{ path: {path} }}"),
        SimError::PrimePathBlockOutOfRange {
            path,
            block,
            n_blocks,
        } => format!(
            "PrimePathBlockOutOfRange {{ path: {path}, block: {block}, n_blocks: {n_blocks} }}"
        ),
        SimError::DuplicatePrimePath { first, second } => {
            format!("DuplicatePrimePath {{ first: {first}, second: {second} }}")
        }
        SimError::Invariant(m) => format!("Invariant({m:?})"),
    }
}

/// Result of a baseline run.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// How the run ended.
    pub exit: RunExit,
    /// Instructions retired.
    pub instructions: u64,
    /// Simulated cycles.
    pub cycles: u64,
    /// Taken-path branch coverage.
    pub coverage: Coverage,
    /// Checker records (the monitor memory area).
    pub monitor: MonitorArea,
    /// Final I/O state (program output, remaining input).
    pub io: IoState,
    /// Final memory (for test inspection).
    pub memory: Memory,
    /// Final core state (registers and pc) — the committed register file
    /// the containment checker compares against PathExpander runs.
    pub core: CoreState,
    /// Prime-path coverage, when [`run_baseline_with`] was given a plan.
    pub path_coverage: Option<PathCoverage>,
}

/// Runs `program` to completion (or `max_instructions`) without PathExpander.
///
/// The run uses core 0 of `cfg`, warms nothing, and is fully deterministic
/// given the input bytes and seed in `io`.
#[must_use]
pub fn run_baseline(
    program: &Program,
    cfg: &MachConfig,
    io: IoState,
    max_instructions: u64,
) -> RunResult {
    run_baseline_with(program, cfg, io, max_instructions, None, None)
}

/// Validates `cfg` and loads `program` into a fresh memory image: the
/// load policy the baseline and both PathExpander engines share. A bad
/// configuration, a program larger than [`MAX_MEM_BYTES`], or a data blob
/// outside memory is a typed [`SimError`], never a panic.
///
/// # Errors
///
/// Returns the first problem found, in that order.
pub fn load_program(program: &Program, cfg: &MachConfig) -> Result<Memory, SimError> {
    cfg.validate()?;
    if program.mem_size > MAX_MEM_BYTES {
        return Err(SimError::ProgramTooLarge {
            mem_size: program.mem_size,
        });
    }
    let mut memory = Memory::new(cfg.mem_size.max(program.mem_size));
    for item in &program.data {
        memory.try_load_blob(item.addr, &item.bytes)?;
    }
    Ok(memory)
}

/// [`run_baseline`] with an optional fault plan and an optional prime-path
/// plan: a [`TakenPath`] whose branch hook never stops it. The fault plan
/// is consulted before every instruction, so nothing is batched under one.
///
/// Baseline has no sandbox, so injected core-level faults are
/// *architectural* — they corrupt the run exactly as a real fault would;
/// deferred (cache-level) faults are PathExpander-specific and are ignored
/// here. Configuration and program problems surface as
/// [`RunExit::EngineFault`].
///
/// With a [`PathPlan`], the result carries a [`PathCoverage`] of the prime
/// paths the taken path traversed. Tracking is purely observational — the
/// architectural run (exit, coverage, cycles, digests) is byte-identical
/// with or without a plan.
#[must_use]
pub fn run_baseline_with(
    program: &Program,
    cfg: &MachConfig,
    io: IoState,
    max_instructions: u64,
    fault: Option<&mut FaultPlan>,
    plan: Option<&PathPlan>,
) -> RunResult {
    let dp = DecodedProgram::decode(program);
    let mut taken = match TakenPath::new(program, &dp, cfg, io, max_instructions, fault, plan) {
        Ok(taken) => taken,
        Err((e, io)) => {
            return RunResult {
                exit: RunExit::EngineFault(e),
                instructions: 0,
                cycles: 0,
                coverage: Coverage::for_program(program),
                monitor: MonitorArea::new(),
                io,
                memory: Memory::new(0),
                core: CoreState::default(),
                path_coverage: None,
            }
        }
    };
    let mut cycles = 0;
    let Halt::Exit(exit) = taken.follow(&mut cycles, |_, _, _| false) else {
        unreachable!("the baseline's hook never stops the taken path")
    };
    RunResult {
        exit,
        instructions: taken.instructions,
        cycles,
        coverage: taken.coverage,
        monitor: taken.monitor,
        io: taken.io,
        memory: taken.memory,
        core: taken.core,
        path_coverage: taken.tracking.map(|t| t.cov),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::monitor::PathKind;
    use px_isa::asm::assemble;

    #[test]
    fn exit_digest_bytes_spell_the_debug_text() {
        let crashes = [
            CrashKind::NullDeref { addr: 0 },
            CrashKind::OutOfBounds { addr: u32::MAX },
            CrashKind::DivByZero,
            CrashKind::BadPc { pc: 17 },
        ];
        let faults = [
            SimError::NoCores,
            SimError::NeedsTwoCores,
            SimError::BadCacheGeometry("line size must be a power of two"),
            SimError::BadBtbGeometry("a \"quoted\" \\ message\n"),
            SimError::ProgramTooLarge { mem_size: 1 << 30 },
            SimError::BlobOutOfBounds {
                addr: 0x1000,
                len: 8,
            },
            SimError::CoverageSizeMismatch {
                left: 3,
                right: usize::MAX,
            },
            SimError::PathSetMismatch {
                left: 0,
                right: u64::MAX,
            },
            SimError::NonZeroPadding { last: 0xFF },
            SimError::EmptyPrimePath { path: 2 },
            SimError::PrimePathBlockOutOfRange {
                path: 1,
                block: 9,
                n_blocks: 4,
            },
            SimError::DuplicatePrimePath {
                first: 5,
                second: 6,
            },
            SimError::Invariant("unicode \u{e9} and tab\t"),
        ];
        let exits = [
            RunExit::Exited(0),
            RunExit::Exited(-7),
            RunExit::Exited(i32::MIN),
            RunExit::BudgetExhausted,
        ]
        .into_iter()
        .chain(crashes.map(RunExit::Crashed))
        .chain(faults.map(RunExit::EngineFault));
        for exit in exits {
            assert_eq!(
                String::from_utf8(exit.digest_bytes()).unwrap(),
                format!("{exit:?}")
            );
        }
    }

    #[test]
    fn baseline_runs_to_exit_with_coverage() {
        let program = assemble(
            r"
            .code
            main:
                li r1, 3
            loop:
                subi r1, r1, 1
                bgt r1, zero, loop
                li r2, 0
                exit
            ",
        )
        .unwrap();
        let r = run_baseline(
            &program,
            &MachConfig::single_core(),
            IoState::default(),
            1_000,
        );
        assert_eq!(r.exit, RunExit::Exited(0));
        // Loop branch: taken twice, not-taken once => both edges covered.
        assert_eq!(r.coverage.covered_edges(&program), 2);
        assert!((r.coverage.branch_coverage(&program) - 1.0).abs() < 1e-12);
        assert!(
            r.cycles > r.instructions,
            "memoryless ALU still costs >= 1 cycle each"
        );
    }

    #[test]
    fn baseline_reports_crash() {
        let program = assemble(".code\nmain:\n  lw r1, 0(zero)\n").unwrap();
        let r = run_baseline(
            &program,
            &MachConfig::single_core(),
            IoState::default(),
            100,
        );
        assert!(matches!(
            r.exit,
            RunExit::Crashed(CrashKind::NullDeref { .. })
        ));
    }

    #[test]
    fn baseline_respects_budget() {
        let program = assemble(".code\nmain:\n  jmp main\n").unwrap();
        let r = run_baseline(&program, &MachConfig::single_core(), IoState::default(), 50);
        assert_eq!(r.exit, RunExit::BudgetExhausted);
        assert_eq!(r.instructions, 50);
    }

    #[test]
    fn baseline_collects_monitor_records() {
        let program = assemble(
            r"
            .code
            main:
                li r1, 0
                assert r1, #4
                exit
            ",
        )
        .unwrap();
        let r = run_baseline(
            &program,
            &MachConfig::single_core(),
            IoState::default(),
            100,
        );
        assert_eq!(r.monitor.len(), 1);
        assert_eq!(r.monitor.records()[0].site, 4);
        assert_eq!(r.monitor.records()[0].path, PathKind::Taken);
    }

    #[test]
    fn bad_config_is_an_engine_fault_not_a_panic() {
        let program = assemble(".code\nmain:\n  exit\n").unwrap();
        let mut cfg = MachConfig::single_core();
        cfg.cores = 0;
        let r = run_baseline(&program, &cfg, IoState::default(), 100);
        assert_eq!(
            r.exit,
            RunExit::EngineFault(crate::fault::SimError::NoCores)
        );
        assert_eq!(r.exit.class(), "engine-fault");
    }

    #[test]
    fn malformed_program_is_an_engine_fault() {
        // Data item far beyond the data memory: a malformed (or garbage)
        // program must be rejected, not panic the loader.
        let mut program = assemble(".code\nmain:\n  exit\n").unwrap();
        program.data.push(px_isa::DataItem {
            addr: u32::MAX - 2,
            bytes: vec![1, 2, 3, 4],
        });
        let r = run_baseline(
            &program,
            &MachConfig::single_core(),
            IoState::default(),
            100,
        );
        assert!(matches!(
            r.exit,
            RunExit::EngineFault(crate::fault::SimError::BlobOutOfBounds { .. })
        ));

        let mut program = assemble(".code\nmain:\n  exit\n").unwrap();
        program.mem_size = u32::MAX;
        let r = run_baseline(
            &program,
            &MachConfig::single_core(),
            IoState::default(),
            100,
        );
        assert!(matches!(
            r.exit,
            RunExit::EngineFault(crate::fault::SimError::ProgramTooLarge { .. })
        ));
    }

    #[test]
    fn injected_faults_never_panic_the_baseline() {
        use crate::fault::FaultPlan;
        let program = assemble(
            r"
            .code
            main:
                li r1, 50
            loop:
                subi r1, r1, 1
                sw r1, 0x40(zero)
                bgt r1, zero, loop
                exit
            ",
        )
        .unwrap();
        // Note 0x40(zero) is in the guard page: the program crashes on its
        // own; with aggressive injection it may crash differently or exit.
        for seed in 0..20 {
            let mut plan = FaultPlan::uniform(seed, 2);
            let r = run_baseline_with(
                &program,
                &MachConfig::single_core(),
                IoState::default(),
                10_000,
                Some(&mut plan),
                None,
            );
            assert!(
                !matches!(r.exit, RunExit::EngineFault(_)),
                "architectural faults only: {:?}",
                r.exit
            );
        }
    }

    #[test]
    fn io_flows_through() {
        let program = assemble(
            r"
            .code
            main:
                readi
                mv r2, r1
                addi r2, r2, 1
                printi
                li r2, 0
                exit
            ",
        )
        .unwrap();
        let io = IoState::new(b"41".to_vec(), 1);
        let r = run_baseline(&program, &MachConfig::single_core(), io, 100);
        assert_eq!(r.io.output_string(), "42");
    }
}
