//! # pathexpander — architectural support for increasing the path coverage
//! of dynamic bug detection
//!
//! A full reimplementation of **PathExpander** (Lu, Zhou, Liu, Zhou,
//! Torrellas — MICRO 2006) over the `px-mach` machine model. PathExpander
//! lets dynamic bug-detection tools observe *non-taken paths*: as the
//! monitored program runs, selected non-taken branch edges are executed in a
//! hardware sandbox, so bugs on paths the test input never reaches are still
//! exposed to the checker.
//!
//! Two engines implement the paper's two options, picked by
//! [`PxConfig::mode`]:
//!
//! * [`Mode::Standard`] — the standard configuration (Figure 4(a)):
//!   checkpoint, run the NT-path inline on the same core, roll back.
//! * [`Mode::Cmp`] — the CMP optimization (Figure 4(b)): NT-paths run
//!   concurrently on idle cores with TLS-style tree data dependences and
//!   commit/squash tokens, hiding nearly all of the overhead.
//!
//! [`run`] (and [`run_with`], which takes a fault injector) runs either
//! engine. Callers that run one program many times decode it once and call
//! an engine's `_decoded` or `_memo` entry point. The [`feasibility`]
//! module reproduces the §3.2 Crash-/Unsafe-Latency analysis (Figure 3).
//!
//! ## Example
//!
//! A bug on a never-taken edge is invisible to a plain monitored run but is
//! caught by PathExpander:
//!
//! ```
//! use pathexpander::{run, PxConfig};
//! use px_isa::asm::assemble;
//! use px_mach::{IoState, MachConfig};
//!
//! let program = assemble(
//!     r"
//!     .code
//!     main:
//!         li r1, 1
//!         bne r1, zero, ok   ; with this input, never falls through
//!         li r3, 0
//!         assert r3, #7      ; the hidden bug
//!         jmp ok
//!     ok:
//!         li r2, 0
//!         exit
//!     ",
//! )?;
//! // Baseline monitored run: the assertion never executes.
//! let base = px_mach::run_baseline(&program, &MachConfig::single_core(),
//!                                  IoState::default(), 10_000);
//! assert!(base.monitor.is_empty());
//! // PathExpander: the NT-path exposes it.
//! let px = run(&program, &MachConfig::single_core(),
//!              &PxConfig::default(), IoState::default());
//! assert_eq!(px.monitor.nt_records().count(), 1);
//! # Ok::<(), px_isa::asm::AsmError>(())
//! ```

pub mod cmp;
pub mod config;
pub mod contain;
pub mod feasibility;
mod nt;
pub mod standard;
pub mod stats;

pub use cmp::{cmp_memo_table, run_cmp_decoded, run_cmp_memo, run_cmp_profiled};
pub use config::{Mode, PxConfig};
pub use contain::{check_containment, differential_run, ContainmentReport, Violation};
pub use feasibility::{measure_latency, profile_from_stats, LatencyProfile};
pub use nt::FAULT_WATCH_TAG;
pub use standard::{run_standard_decoded, run_standard_memo, standard_memo_table};
pub use stats::{NtPathRecord, NtStop, PxRunResult, PxStats};

// The NT-path memo table a caller can share across runs of one program.
pub use px_mach::MemoTable;

use px_analyze::PrimePathSet;
use px_isa::{DecodedProgram, Program};
use px_mach::{FaultPlan, IoState, MachConfig, PathPlan, SimError, UopProfile};

/// Converts an enumerated [`PrimePathSet`] into the plain-data
/// [`PathPlan`] the engines consume (px-mach sits below px-analyze, so
/// the conversion lives here). Attach the plan with
/// [`PxConfig::with_path_plan`]. Only feasible paths enter the matcher's
/// automaton: covered ⊆ feasible holds by construction.
///
/// # Errors
///
/// Returns a typed [`SimError`] when a feasible path is empty, names a
/// block the program lacks, or repeats another's block sequence
/// (matching would be ambiguous).
pub fn plan_paths(set: &PrimePathSet) -> Result<PathPlan, SimError> {
    PathPlan::new(
        set.digest(),
        set.block_starts().to_vec(),
        set.len() as u32,
        set.feasible_count() as u32,
        set.paths()
            .iter()
            .enumerate()
            .filter(|(_, p)| p.feasible)
            .map(|(i, p)| (p.blocks.as_slice(), i as u32)),
    )
}

/// Runs `program` under PathExpander, dispatching on `px.mode`.
#[must_use]
pub fn run(program: &Program, mach: &MachConfig, px: &PxConfig, io: IoState) -> PxRunResult {
    run_with(program, mach, px, io, None)
}

/// [`run`] with an optional fault plan.
///
/// The plan is consulted only while an NT-path is stepping, so every
/// injected fault lands inside a sandbox: the committed memory, register
/// file and I/O must still match a plain baseline run (the containment
/// property [`check_containment`] verifies). Bad configurations and
/// malformed programs surface as [`px_mach::RunExit::EngineFault`] instead
/// of panicking.
#[must_use]
pub fn run_with(
    program: &Program,
    mach: &MachConfig,
    px: &PxConfig,
    io: IoState,
    fault: Option<&mut FaultPlan>,
) -> PxRunResult {
    let dp = DecodedProgram::decode(program);
    match px.mode {
        Mode::Standard => standard::run_standard_inner(program, &dp, mach, px, io, fault, None),
        Mode::Cmp => {
            let profile = &mut UopProfile::default();
            cmp::run_cmp_inner::<false>(program, &dp, mach, px, io, fault, None, profile)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use px_isa::asm::assemble;

    #[test]
    fn run_dispatches_on_mode() {
        let program = assemble(
            r"
            .code
            main:
                li r4, 10
            loop:
                subi r4, r4, 1
                bgt r4, zero, loop
                li r4, 40           ; a tail long enough for every NT-path to finish
            tail:
                subi r4, r4, 1
                bgt r4, zero, tail
                li r2, 0
                exit
            ",
        )
        .unwrap();
        let dp = DecodedProgram::decode(&program);
        let mach = MachConfig::default();
        let standard = PxConfig::default();
        let cmp = PxConfig::default().cmp();
        let pinned_std = run_standard_decoded(&program, &dp, &mach, &standard, IoState::default());
        let pinned_cmp = run_cmp_decoded(&program, &dp, &mach, &cmp, IoState::default());
        // Routing is only observable if the two engines can be told apart.
        assert_ne!(pinned_std.cycles, pinned_cmp.cycles);
        assert_eq!(pinned_std.stats.spawns, pinned_cmp.stats.spawns);
        for (px, pinned) in [(&standard, &pinned_std), (&cmp, &pinned_cmp)] {
            let r = run(&program, &mach, px, IoState::default());
            assert!(r.exit.is_success());
            assert_eq!(r.exit, pinned.exit, "{:?}", px.mode);
            assert_eq!(r.cycles, pinned.cycles, "{:?}", px.mode);
            assert_eq!(
                r.taken_path_digest(&program),
                pinned.taken_path_digest(&program),
                "{:?}",
                px.mode
            );
            assert_eq!(r.stats.spawns, pinned.stats.spawns, "{:?}", px.mode);
        }
    }

    #[test]
    fn malformed_programs_fault_alike_on_every_engine() {
        let exit_only = assemble(".code\nmain:\n  exit\n").unwrap();
        let mut blob_past_end = exit_only.clone();
        blob_past_end.data.push(px_isa::DataItem {
            addr: u32::MAX - 2,
            bytes: vec![1, 2, 3, 4],
        });
        let mut too_large = exit_only;
        too_large.mem_size = px_mach::MAX_MEM_BYTES + 1;
        let mach = MachConfig {
            cores: 2,
            ..MachConfig::default()
        };
        for (name, program, expected) in [
            (
                "blob past the end of memory",
                blob_past_end,
                SimError::BlobOutOfBounds {
                    addr: u32::MAX - 2,
                    len: 4,
                },
            ),
            (
                "mem_size over MAX_MEM_BYTES",
                too_large,
                SimError::ProgramTooLarge {
                    mem_size: px_mach::MAX_MEM_BYTES + 1,
                },
            ),
        ] {
            let expected = px_mach::RunExit::EngineFault(expected);
            let base = px_mach::run_baseline(&program, &mach, IoState::default(), 100);
            assert_eq!(base.exit, expected, "baseline: {name}");
            for px in [PxConfig::default(), PxConfig::default().cmp()] {
                let r = run(&program, &mach, &px, IoState::default());
                assert_eq!(r.exit, expected, "{:?}: {name}", px.mode);
            }
        }
    }

    #[test]
    fn path_plan_is_observational_and_reports_coverage() {
        let program = assemble(
            r"
            .code
            main:
                readi
                beq r1, zero, left
                li r2, 1
                jmp join
            left:
                li r2, 2
            join:
                li r4, 3
            loop:
                subi r4, r4, 1
                bgt r4, zero, loop
                exit
            ",
        )
        .unwrap();
        let set = px_analyze::Analysis::of(&program).prime_paths(&program);
        assert!(set.feasible_count() > 0);
        let plan = std::sync::Arc::new(plan_paths(&set).unwrap());
        for (mach, px) in [
            (MachConfig::single_core(), PxConfig::default()),
            (MachConfig::default(), PxConfig::default().cmp()),
        ] {
            let plain = run(&program, &mach, &px, IoState::default());
            let traced = run(
                &program,
                &mach,
                &px.clone().with_path_plan(Some(plan.clone())),
                IoState::default(),
            );
            // Observational: the architectural run is unchanged.
            assert_eq!(
                plain.taken_path_digest(&program),
                traced.taken_path_digest(&program)
            );
            assert_eq!(plain.cycles, traced.cycles);
            assert!(plain.path_coverage.is_none());
            let cov = traced.path_coverage.expect("plan attached");
            assert_eq!(cov.feasible_total() as usize, set.feasible_count());
            assert!(
                cov.covered_count() > 0,
                "a completed run traverses at least one prime path"
            );
        }
    }

    /// An NT-path that `unwatch`es a committed range and `watch`es a new one
    /// changes only its own view of the watch table: its own store still
    /// hits its own registration, and the taken path afterwards hits the
    /// committed range and not the NT-path's. Checked on both engines with
    /// the replay cache off and on (replayed paths file the recorded hits).
    #[test]
    fn nt_watch_registrations_stay_on_their_path() {
        let program = assemble(
            r"
            .data
            committed: .space 8
            fresh: .space 8
            .code
            main:
                la r5, committed
                la r7, fresh
                li r6, 4
                watch r5, r6, #3
                li r4, 4
            loop:
                bne r6, zero, body  ; always taken: the fall-through is the NT-path
                unwatch #3
                watch r7, r6, #5
                sw r6, 0(r7)        ; NT-path: hits its own tag 5
                sw r6, 0(r5)        ; NT-path: no hit, tag 3 is gone here
                li r2, 0
                exit
            body:
                sw r6, 0(r5)        ; taken path: hits the committed tag 3
                sw r6, 0(r7)        ; taken path: no hit, tag 5 never committed
                subi r4, r4, 1
                bgt r4, zero, loop
                li r4, 40           ; a tail long enough for every NT-path to finish
            tail:
                subi r4, r4, 1
                bgt r4, zero, tail
                li r2, 0
                exit
            ",
        )
        .unwrap();
        let dp = DecodedProgram::decode(&program);
        // The watch tags hit on the taken path, or on NT-paths spawned at
        // the `bne` (pc 5) or at any other branch.
        let watch_hits = |r: &PxRunResult, path: Option<bool>| -> Vec<u32> {
            r.monitor
                .records()
                .iter()
                .filter(|rec| match rec.path {
                    px_mach::PathKind::Taken => path.is_none(),
                    px_mach::PathKind::NtPath { spawn_pc } => path == Some(spawn_pc == 5),
                })
                .map(|rec| rec.site)
                .collect()
        };
        for (mach, px) in [
            (MachConfig::single_core(), PxConfig::default()),
            (MachConfig::default(), PxConfig::default().cmp()),
        ] {
            let px = px.with_counter_threshold(16);
            let off = run(
                &program,
                &mach,
                &px.clone().with_nt_memo(false),
                IoState::default(),
            );
            let mut table = match px.mode {
                Mode::Standard => standard_memo_table(&program, &mach, &px),
                Mode::Cmp => cmp_memo_table(&program, &mach, &px),
            };
            let on = match px.mode {
                Mode::Standard => {
                    run_standard_memo(&program, &dp, &mach, &px, IoState::default(), &mut table)
                }
                Mode::Cmp => {
                    run_cmp_memo(&program, &dp, &mach, &px, IoState::default(), &mut table)
                }
            };
            for r in [&off, &on] {
                assert_eq!(r.exit, px_mach::RunExit::Exited(0), "{:?}", px.mode);
                assert_eq!(watch_hits(r, None), [3; 4], "{:?}: taken hits", px.mode);
                let spawns_into_nt_body = r.stats.paths.iter().filter(|p| p.spawn_pc == 5).count();
                assert!(spawns_into_nt_body > 1, "{:?}", px.mode);
                assert_eq!(
                    watch_hits(r, Some(true)),
                    vec![5; spawns_into_nt_body],
                    "{:?}: NT hits after the unwatch",
                    px.mode
                );
                // The loop exit's NT-path re-enters the loop body, where
                // the committed range is still watched.
                let others = watch_hits(r, Some(false));
                assert!(
                    !others.is_empty() && others.iter().all(|&t| t == 3),
                    "{:?}: {others:?}",
                    px.mode
                );
            }
            assert!(
                table.counters.hits > 0,
                "{:?}: {:?}",
                px.mode,
                table.counters
            );
            assert_eq!(on.monitor.records(), off.monitor.records(), "{:?}", px.mode);
        }
    }
}
