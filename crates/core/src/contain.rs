//! The **differential containment checker** — the proof obligation behind
//! the paper's sandbox design (§4.2(2), §4.3).
//!
//! PathExpander's whole value proposition rests on one invariant: NT-path
//! execution is *invisible* to the committed run. Whatever happens inside an
//! NT-path — crashes, wild stores, injected bit flips, runaway loops — the
//! taken path must finish with exactly the state a plain monitored run
//! (no PathExpander) would have produced, while checker records made before
//! any squash survive in the monitor area.
//!
//! [`check_containment`] diffs a PathExpander run against a baseline run of
//! the same program and input:
//!
//! * exit status, program output, committed data memory and the final
//!   register file must be identical (skipped when either run was truncated
//!   by the instruction budget — the two budgets measure different work);
//! * the PathExpander run's *taken-path* monitor records must reproduce the
//!   baseline's records (NT records are extra signal, never replacement);
//! * taken-path coverage must equal baseline coverage — squashed NT-paths
//!   must never leak edges into the taken-path count — and total coverage
//!   must be a superset of it.

use px_isa::Program;
use px_mach::{
    run_baseline, FaultPlan, IoState, MachConfig, MonitorRecord, RecordKind, RunExit, RunResult,
};

use crate::config::PxConfig;
use crate::stats::PxRunResult;

/// One way a PathExpander run diverged from its baseline.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Violation {
    /// The runs ended differently.
    ExitDiffers { base: RunExit, px: RunExit },
    /// Program output differs (NT-path I/O leaked, or taken output lost).
    OutputDiffers { base_len: usize, px_len: usize },
    /// A committed memory byte differs.
    MemoryDiffers { addr: u32, base: u8, px: u8 },
    /// The committed memory images have different sizes.
    MemorySizeDiffers { base: u32, px: u32 },
    /// The final architectural register file differs.
    RegistersDiffer,
    /// A baseline taken-path monitor record is missing or altered in the
    /// PathExpander run (index into the baseline's record list).
    MonitorRecordLost { index: usize },
    /// Taken-path coverage differs from the baseline's coverage: a squashed
    /// NT-path leaked (or dropped) a taken edge.
    TakenCoverageDiffers,
    /// Total coverage is not a superset of taken coverage.
    CoverageNotSuperset,
}

impl Violation {
    /// Short class name for histograms.
    #[must_use]
    pub fn class(&self) -> &'static str {
        match self {
            Violation::ExitDiffers { .. } => "exit",
            Violation::OutputDiffers { .. } => "output",
            Violation::MemoryDiffers { .. } => "memory",
            Violation::MemorySizeDiffers { .. } => "memory-size",
            Violation::RegistersDiffer => "registers",
            Violation::MonitorRecordLost { .. } => "monitor",
            Violation::TakenCoverageDiffers => "taken-coverage",
            Violation::CoverageNotSuperset => "coverage-superset",
        }
    }
}

impl core::fmt::Display for Violation {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            Violation::ExitDiffers { base, px } => {
                write!(f, "exit differs: baseline {base:?}, pathexpander {px:?}")
            }
            Violation::OutputDiffers { base_len, px_len } => write!(
                f,
                "program output differs: baseline {base_len} bytes, pathexpander {px_len} bytes"
            ),
            Violation::MemoryDiffers { addr, base, px } => write!(
                f,
                "committed memory differs at {addr:#x}: baseline {base:#04x}, pathexpander {px:#04x}"
            ),
            Violation::MemorySizeDiffers { base, px } => {
                write!(f, "memory size differs: baseline {base}, pathexpander {px}")
            }
            Violation::RegistersDiffer => write!(f, "final register file differs"),
            Violation::MonitorRecordLost { index } => {
                write!(f, "baseline monitor record #{index} lost or altered")
            }
            Violation::TakenCoverageDiffers => {
                write!(f, "taken-path coverage differs from baseline coverage")
            }
            Violation::CoverageNotSuperset => {
                write!(f, "total coverage is not a superset of taken coverage")
            }
        }
    }
}

/// Outcome of one containment comparison.
#[derive(Debug, Clone, Default)]
pub struct ContainmentReport {
    /// Everything that diverged; empty means the sandbox contained the run.
    pub violations: Vec<Violation>,
    /// Whether state comparisons were skipped because a run hit its
    /// instruction budget (the budgets count different work, so the runs
    /// legitimately stop at different architectural points).
    pub budget_truncated: bool,
}

impl ContainmentReport {
    /// Whether the sandbox contained everything.
    #[must_use]
    pub fn is_contained(&self) -> bool {
        self.violations.is_empty()
    }
}

/// The projection of a monitor record the checker compares: timing (`cycle`)
/// legitimately differs between the runs, identity must not.
fn record_key(r: &MonitorRecord) -> (RecordKind, u32, u32) {
    (r.kind, r.site, r.pc)
}

/// Diffs a PathExpander run against the baseline run it must be
/// indistinguishable from.
#[must_use]
pub fn check_containment(
    program: &Program,
    base: &RunResult,
    px: &PxRunResult,
) -> ContainmentReport {
    let mut report = ContainmentReport::default();
    let truncated = base.exit == RunExit::BudgetExhausted || px.exit == RunExit::BudgetExhausted;
    report.budget_truncated = truncated;

    if !truncated {
        if base.exit != px.exit {
            report.violations.push(Violation::ExitDiffers {
                base: base.exit,
                px: px.exit,
            });
        }
        if base.io.output() != px.io.output() {
            report.violations.push(Violation::OutputDiffers {
                base_len: base.io.output().len(),
                px_len: px.io.output().len(),
            });
        }
        if base.memory.size() != px.memory.size() {
            report.violations.push(Violation::MemorySizeDiffers {
                base: base.memory.size(),
                px: px.memory.size(),
            });
        } else if let Some(addr) = base.memory.first_difference(&px.memory) {
            report.violations.push(Violation::MemoryDiffers {
                addr,
                base: base.memory.byte(addr),
                px: px.memory.byte(addr),
            });
        }
        if base.core != px.core {
            report.violations.push(Violation::RegistersDiffer);
        }
        if base.coverage != px.taken_coverage {
            report.violations.push(Violation::TakenCoverageDiffers);
        }
    }

    // Taken-path monitor records: the PathExpander run's must reproduce the
    // baseline's in order. Under truncation the PathExpander run may have
    // stopped earlier, so a *prefix* suffices; otherwise they must match
    // exactly.
    let base_taken: Vec<_> = base.monitor.records().iter().map(record_key).collect();
    let px_taken: Vec<_> = px
        .monitor
        .records()
        .iter()
        .filter(|r| !r.path.is_nt())
        .map(record_key)
        .collect();
    if truncated {
        if px_taken.len() > base_taken.len() || px_taken[..] != base_taken[..px_taken.len()] {
            let index = base_taken
                .iter()
                .zip(&px_taken)
                .position(|(a, b)| a != b)
                .unwrap_or(base_taken.len().min(px_taken.len()));
            report
                .violations
                .push(Violation::MonitorRecordLost { index });
        }
    } else if base_taken != px_taken {
        let index = base_taken
            .iter()
            .zip(&px_taken)
            .position(|(a, b)| a != b)
            .unwrap_or(base_taken.len().min(px_taken.len()));
        report
            .violations
            .push(Violation::MonitorRecordLost { index });
    }

    // Total coverage must contain everything the taken path covered.
    let superset = (0..program.code.len() as u32).all(|pc| {
        px_isa::Edge::ALL
            .into_iter()
            .all(|e| !px.taken_coverage.covered(pc, e) || px.total_coverage.covered(pc, e))
    });
    if !superset {
        report.violations.push(Violation::CoverageNotSuperset);
    }

    report
}

/// Runs `program` under PathExpander (dispatching on `px.mode`) with an
/// optional fault plan, re-runs it as a plain baseline *without* the plan,
/// and diffs the two: the sandbox must hide even injected faults
/// from the committed state.
#[must_use]
pub fn differential_run(
    program: &Program,
    mach: &MachConfig,
    px: &PxConfig,
    io: IoState,
    fault: Option<&mut FaultPlan>,
) -> (PxRunResult, ContainmentReport) {
    let result = crate::run_with(program, mach, px, io.clone(), fault);
    // An engine-level rejection (bad config / malformed program) has no
    // architectural state to compare; it is contained by definition as long
    // as the baseline rejects it too. `NeedsTwoCores` is a CMP-only
    // precondition the baseline does not share, so it is exempt.
    if let RunExit::EngineFault(e) = result.exit {
        let mut report = ContainmentReport::default();
        if e != px_mach::SimError::NeedsTwoCores {
            let base = run_baseline(program, mach, io, px.max_instructions);
            if !matches!(base.exit, RunExit::EngineFault(_)) {
                report.violations.push(Violation::ExitDiffers {
                    base: base.exit,
                    px: result.exit,
                });
            }
        }
        return (result, report);
    }
    let base = run_baseline(program, mach, io, px.max_instructions);
    let report = check_containment(program, &base, &result);
    (result, report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use px_isa::asm::assemble;
    use px_isa::Width;
    use px_mach::{FaultMix, FaultPlan, MemView as _};

    const NT_HEAVY: &str = r"
        .data
        g: .word 7
        .code
        main:
            li r1, 1
            bne r1, zero, ok
            la r5, g
            li r6, 999
            sw r6, 0(r5)
            li r3, 0
            assert r3, #9
            jmp ok
        ok:
            li r4, 40
        loop:
            subi r4, r4, 1
            bgt r4, zero, loop
            la r5, g
            lw r2, 0(r5)
            printi
            li r2, 0
            exit
        ";

    #[test]
    fn clean_run_is_contained() {
        let program = assemble(NT_HEAVY).unwrap();
        let (result, report) = differential_run(
            &program,
            &MachConfig::single_core(),
            &PxConfig::default(),
            IoState::default(),
            None,
        );
        assert!(result.exit.is_success());
        assert!(report.is_contained(), "violations: {:?}", report.violations);
        assert!(result.stats.spawns > 0, "the NT edge must actually spawn");
    }

    #[test]
    fn faulted_runs_stay_contained_in_both_engines() {
        let program = assemble(NT_HEAVY).unwrap();
        for seed in 0..10u64 {
            let mut plan = FaultPlan::new(seed, FaultMix::uniform(), 3);
            let (_, report) = differential_run(
                &program,
                &MachConfig::single_core(),
                &PxConfig::default(),
                IoState::default(),
                Some(&mut plan),
            );
            assert!(
                report.is_contained(),
                "standard seed {seed}: {:?} (injected {})",
                report.violations,
                plan.stats.total()
            );
            let mut plan = FaultPlan::new(seed, FaultMix::uniform(), 3);
            let (_, report) = differential_run(
                &program,
                &MachConfig::default(),
                &PxConfig::default().cmp(),
                IoState::default(),
                Some(&mut plan),
            );
            assert!(
                report.is_contained(),
                "cmp seed {seed}: {:?}",
                report.violations
            );
        }
    }

    /// The memory violation a byte-by-byte scan of both whole images
    /// reports.
    fn full_scan(base: &px_mach::Memory, px: &px_mach::Memory) -> Option<Violation> {
        let addr = (0..base.size()).find(|&a| base.byte(a) != px.byte(a))?;
        Some(Violation::MemoryDiffers {
            addr,
            base: base.byte(addr),
            px: px.byte(addr),
        })
    }

    #[test]
    fn a_leak_is_detected() {
        // Sanity-check the checker itself: tamper with a contained result
        // and every comparison must fire.
        let program = assemble(NT_HEAVY).unwrap();
        let base = run_baseline(
            &program,
            &MachConfig::single_core(),
            IoState::default(),
            1_000_000,
        );
        let run = || {
            crate::run(
                &program,
                &MachConfig::single_core(),
                &PxConfig::default(),
                IoState::default(),
            )
        };
        let mut px = run();
        px.memory.set_byte(0x2000, 0xAB);
        px.io.put_char(b'!');
        px.core.regs.set(px_isa::Reg::A1, -123);
        let report = check_containment(&program, &base, &px);
        let classes: Vec<_> = report.violations.iter().map(Violation::class).collect();
        assert!(classes.contains(&"memory"), "{classes:?}");
        assert!(classes.contains(&"output"), "{classes:?}");
        assert!(classes.contains(&"registers"), "{classes:?}");

        // Memory leaks only the PathExpander image wrote: a word that
        // straddles two pages neither run touched, its bytes on the lower
        // page equal to the baseline's so the first difference lies on the
        // upper one; and a byte on a page only the PathExpander image wrote.
        // Each reports the first address and bytes a full scan finds.
        type Leak = fn(&mut px_mach::Memory);
        let leaks: [(Leak, u32, u8); 2] = [
            (
                |m| m.store(0x8_0000 - 2, 0x5A00_0000, Width::Word).unwrap(),
                0x8_0001,
                0x5A,
            ),
            (|m| m.set_byte(0x9_0123, 0xC3), 0x9_0123, 0xC3),
        ];
        for (leak, addr, byte) in leaks {
            let mut px = run();
            leak(&mut px.memory);
            let report = check_containment(&program, &base, &px);
            let want = Violation::MemoryDiffers {
                addr,
                base: 0,
                px: byte,
            };
            assert_eq!(full_scan(&base.memory, &px.memory), Some(want.clone()));
            assert_eq!(report.violations, [want]);
        }
    }

    #[test]
    fn lost_monitor_record_is_detected() {
        let src = r"
            .code
            main:
                li r1, 0
                assert r1, #4
                li r2, 0
                exit
            ";
        let program = assemble(src).unwrap();
        let base = run_baseline(
            &program,
            &MachConfig::single_core(),
            IoState::default(),
            1_000,
        );
        assert_eq!(base.monitor.len(), 1);
        let mut px = crate::run(
            &program,
            &MachConfig::single_core(),
            &PxConfig::default(),
            IoState::default(),
        );
        // Pretend the record vanished by replacing the area with an empty one.
        px.monitor = px_mach::MonitorArea::new();
        let report = check_containment(&program, &base, &px);
        assert!(report
            .violations
            .iter()
            .any(|v| matches!(v, Violation::MonitorRecordLost { index: 0 })));
    }
}
