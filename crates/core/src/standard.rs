//! The PathExpander **standard configuration** (paper §4.2, Figure 4(a)).
//!
//! One core runs the program. When a branch resolves and the *non-taken*
//! edge's exercise counter is below `NTPathCounterThreshold`, the engine:
//!
//! 1. bumps the non-taken edge's counter (counters are updated "during
//!    taken-path execution and at the entry of an NT-Path", §4.2(1)),
//! 2. copies the registers and program counter into an NT-path (the
//!    paper's checkpoint: the taken core itself is never touched, so there
//!    is nothing to restore),
//! 3. sets the path's NT-entry predicate (so the compiler's variable-fixing
//!    instructions at the edge head execute) and points its PC at the
//!    non-taken target,
//! 4. runs the NT-path with memory writes sandboxed in L1 (volatile tag) and
//!    system calls suppressed,
//! 5. on termination — `MaxNTPathLength`, crash, unsafe event, program end,
//!    or sandbox overflow — gang-invalidates the volatile lines, discards the
//!    path and resumes the taken path where the branch left it.
//!
//! Checker records produced on the NT-path go to the monitor memory area and
//! survive the squash. The excursion itself is shared with the CMP engine
//! (DESIGN.md §14); this module keeps the modal taken/NT loops and the
//! standard conventions.

use px_isa::{DecodedProgram, Program};
use px_mach::{FaultPlan, Halt, IoState, MachConfig, MemoTable, RunExit};

use crate::config::PxConfig;
use crate::nt::{self, Excursion, Grant, OneStep, Path, Run};
use crate::stats::{NtStop, PxRunResult};

/// Volatile tag used for NT-path lines in the standard configuration — the
/// paper's single-bit Vtag.
const NT_VTAG: u8 = 1;

/// Engine tag folded into the memo fingerprint (the CMP engine uses its
/// own, so tables are never shared across engine families).
const MEMO_TAG_STANDARD: u8 = 0;

/// Runs `program` under the standard PathExpander configuration with a
/// caller-supplied [`DecodedProgram`], so repeated runs of the same program
/// (campaigns, benchmarks) decode once. `dp` must be
/// `DecodedProgram::decode(program)` — checked in debug builds.
///
/// `px.mode` is ignored — this function *is* the standard engine;
/// [`crate::run`] picks the engine from the mode.
#[must_use]
pub fn run_standard_decoded(
    program: &Program,
    dp: &DecodedProgram,
    mach: &MachConfig,
    px: &PxConfig,
    io: IoState,
) -> PxRunResult {
    run_standard_inner(program, dp, mach, px, io, None, None)
}

/// [`run_standard_decoded`] with a caller-held NT-path memo table, so
/// repeated runs of the same program replay each other's NT paths. The table must come from [`standard_memo_table`] for
/// the same program and configuration — a mismatched fingerprint makes the
/// run ignore the table.
#[must_use]
pub fn run_standard_memo(
    program: &Program,
    dp: &DecodedProgram,
    mach: &MachConfig,
    px: &PxConfig,
    io: IoState,
    memo: &mut MemoTable,
) -> PxRunResult {
    run_standard_inner(program, dp, mach, px, io, None, Some(memo))
}

/// An empty memo table bound to this program + configuration, for
/// [`run_standard_memo`].
#[must_use]
pub fn standard_memo_table(program: &Program, mach: &MachConfig, px: &PxConfig) -> MemoTable {
    nt::memo_table(program, mach, px, MEMO_TAG_STANDARD)
}

/// The standard engine. An optional fault plan is consulted only while an
/// NT-path is stepping, so every injected fault lands inside the sandbox:
/// the committed memory, register file and I/O must still match a plain
/// baseline run (the containment property
/// [`crate::contain::check_containment`] verifies). Bad configurations and
/// malformed programs surface as [`RunExit::EngineFault`] instead of
/// panicking.
pub(crate) fn run_standard_inner(
    program: &Program,
    dp: &DecodedProgram,
    mach: &MachConfig,
    px: &PxConfig,
    io: IoState,
    fault: Option<&mut FaultPlan>,
    memo: Option<&mut MemoTable>,
) -> PxRunResult {
    let mut run = match Run::new(program, dp, mach, px, io, fault, memo, MEMO_TAG_STANDARD) {
        Ok(run) => run,
        Err(failed) => return *failed,
    };
    // The one NT-path, re-armed at every spawn.
    let mut path = Path::default();
    let mut cycles: u64 = 0;

    // The run alternates between two modal loops — the taken path, which
    // the spawn hook stops at an admitted branch, and the NT-path — instead
    // of re-deciding the mode on every instruction. Each hoists everything
    // its mode never needs (the taken loop has no sandbox, overflow or
    // length checks; the NT loop never touches the taken core), which is
    // worth a double-digit percentage of the simulation's wall time. The
    // taken path never sees the fault plan: it is the reference the
    // containment checker diffs against.
    let exit = 'run: loop {
        let spawn = run.taken.follow(&mut cycles, |taken, clock, br| {
            run.sel
                .branch(&mut run.stats, taken.retired, br, false, clock)
        });
        let br = match spawn {
            Halt::Branch(br) => br,
            Halt::Exit(exit) => break 'run exit,
        };
        run.spawn(&mut path, br.pc, br.other_target());
        run.taken.enter();

        // ---- NT-path mode: one excursion per spawned path. ----
        let stop = loop {
            if run.taken.instructions >= px.max_instructions {
                // A budget hit mid-NT-path must not leave speculative
                // state behind: squash so the committed state is the
                // same one a shorter, NT-free run would have reached.
                break NtStop::RunCutShort;
            }
            let stop = match run.advance(&mut path, &mut cycles, u64::MAX) {
                Grant::Ran { stop, .. } => stop,
                Grant::One(step) => one(&mut run, &mut path.ex, &mut cycles, step),
            };
            if let Some(stop) = stop {
                break stop;
            }
        };

        // Squash: the charged penalty and volatile-line invalidation.
        cycles += u64::from(mach.squash_cycles);
        run.end(&mut path, stop, Some((0, NT_VTAG)));
        if stop == NtStop::RunCutShort {
            break 'run RunExit::BudgetExhausted;
        }
    };
    run.finish(exit, cycles)
}

/// Applies one non-simple NT step, interpreted or replayed, under the
/// standard conventions: a deferred fault is stamped with the clock plus
/// the step's base cost, the step's cycles reach the single clock before
/// its monitor records are stamped, and a step that stops the path on its
/// own event does not count toward `executed`.
#[inline(always)]
fn one(run: &mut Run<'_>, ex: &mut Excursion, cycles: &mut u64, step: OneStep) -> Option<NtStop> {
    if let Some(deferred) = step.deferred {
        run.apply_deferred(ex, deferred, 0, NT_VTAG, *cycles + u64::from(step.base));
    }
    let (cost, overflow) = run.nt_access(0, NT_VTAG, step.access);
    *cycles += u64::from(step.base) + u64::from(cost);
    run.stats.nt_instructions += 1;
    let event = run.effects(ex, step.note, step.next_pc, *cycles);
    if event.is_none() {
        ex.executed += 1;
    }
    nt::stop(run.px, event, overflow, ex.executed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::nt::catch_up_counter_resets;
    use px_isa::asm::assemble;
    use px_mach::{CrashKind, PathKind, SimError};

    fn run(src: &str, px: &PxConfig) -> PxRunResult {
        let program = assemble(src).unwrap();
        crate::run(&program, &MachConfig::single_core(), px, IoState::default())
    }

    /// A branch with one direction never exercised by the input, plus a loop
    /// whose exit edge spawns a few NT-paths.
    const HIDDEN_BUG: &str = r"
        .code
        main:
            li r1, 1          ; condition variable: always 1
            beq r1, zero, ok  ; never taken with this input
            jmp ok
            nop
        ok:
            li r4, 5
        loop:
            subi r4, r4, 1
            bgt r4, zero, loop
            li r2, 0
            exit
        ";

    #[test]
    fn spawns_nt_paths_and_terminates_cleanly() {
        let px = PxConfig::default().with_max_nt_path_len(50);
        let r = run(HIDDEN_BUG, &px);
        assert_eq!(r.exit, RunExit::Exited(0));
        assert!(r.stats.spawns >= 1, "at least the beq edge spawns");
        assert_eq!(r.stats.paths.len(), r.stats.spawns as usize);
        // Taken path and total coverage differ.
        let p = assemble(HIDDEN_BUG).unwrap();
        assert!(
            r.total_coverage.covered_edges(&p) > r.taken_coverage.covered_edges(&p),
            "NT-paths added coverage"
        );
    }

    #[test]
    fn nt_path_detects_bug_on_non_taken_edge() {
        // Bug: assertion failure reachable only when the branch goes the
        // never-taken way.
        let src = r"
            .code
            main:
                li r1, 1
                bne r1, zero, ok   ; always taken; fall-through is buggy
                li r3, 0
                assert r3, #77     ; the hidden bug
                jmp ok
            ok:
                li r2, 0
                exit
            ";
        let base = run(src, &PxConfig::default());
        assert_eq!(base.monitor.nt_records().count(), 1, "bug found on NT-path");
        let rec = base.monitor.nt_records().next().unwrap();
        assert_eq!(rec.site, 77);
        assert_eq!(rec.path, PathKind::NtPath { spawn_pc: 1 });
        // And the taken path itself never reports it.
        assert_eq!(
            base.monitor
                .records()
                .iter()
                .filter(|r| !r.path.is_nt())
                .count(),
            0
        );
    }

    #[test]
    fn nt_crash_is_contained() {
        // The non-taken edge dereferences null: the NT-path crashes, the
        // program still exits 0.
        let src = r"
            .code
            main:
                li r1, 1
                bne r1, zero, ok
                lw r5, 0(zero)     ; NT-path crashes here
                jmp ok
            ok:
                li r2, 0
                exit
            ";
        let r = run(src, &PxConfig::default());
        assert_eq!(r.exit, RunExit::Exited(0));
        assert_eq!(r.stats.stops_of("crash"), 1);
    }

    #[test]
    fn nt_unsafe_event_stops_the_path_without_side_effects() {
        let src = r"
            .code
            main:
                li r1, 1
                bne r1, zero, ok
                li r2, 88          ; 'X'
                putc               ; unsafe in NT-path
                jmp ok
            ok:
                li r2, 0
                exit
            ";
        let r = run(src, &PxConfig::default());
        assert_eq!(r.exit, RunExit::Exited(0));
        assert_eq!(r.stats.stops_of("unsafe"), 1);
        assert!(r.io.output().is_empty(), "the putc never happened");
    }

    #[test]
    fn nt_writes_roll_back() {
        let src = r"
            .data
            g: .word 7
            .code
            main:
                li r1, 1
                bne r1, zero, ok
                la r5, g
                li r6, 999
                sw r6, 0(r5)       ; sandboxed write
                jmp ok
            ok:
                la r5, g
                lw r2, 0(r5)
                printi             ; prints committed value
                li r2, 0
                exit
            ";
        let r = run(src, &PxConfig::default());
        assert_eq!(r.io.output_string(), "7", "NT store must not leak");
    }

    #[test]
    fn max_length_bounds_nt_paths() {
        // Non-taken edge leads into an infinite loop.
        let src = r"
            .code
            main:
                li r1, 1
                bne r1, zero, ok
            spin:
                jmp spin
            ok:
                li r2, 0
                exit
            ";
        let px = PxConfig::default().with_max_nt_path_len(30);
        let r = run(src, &px);
        assert_eq!(r.exit, RunExit::Exited(0));
        assert_eq!(r.stats.stops_of("max-length"), 1);
        let path = &r.stats.paths[0];
        assert_eq!(path.executed, 30);
    }

    #[test]
    fn counter_threshold_limits_spawns_per_edge() {
        // The loop branch's exit edge is non-taken for 9 iterations; with
        // threshold 5 only 5 NT-paths spawn from it.
        let src = r"
            .code
            main:
                li r4, 10
            loop:
                subi r4, r4, 1
                bgt r4, zero, loop
                li r2, 0
                exit
            ";
        let px = PxConfig::default().with_counter_threshold(5);
        let r = run(src, &px);
        // Spawns: 5 from the loop-exit edge (plus 1 from the final
        // not-taken iteration whose other edge is `taken`... that edge was
        // exercised 9 times, so it is hot). Exactly 5.
        assert_eq!(r.stats.spawns, 5);
        assert!(r.stats.skipped_hot >= 4);
    }

    #[test]
    fn static_nt_filter_vetoes_doomed_spawns_without_perturbing_the_run() {
        // The non-taken edge of the guard branch funnels straight into an
        // exit syscall: every NT-path spawned there dies within 2
        // instructions. The static filter (threshold 10) proves that and
        // vetoes the spawn; everything the taken path does is unchanged.
        let src = r"
            .code
            main:
                li r4, 6
            loop:
                subi r4, r4, 1
                bgt r4, zero, loop ; non-taken edge falls into the exit
                li r2, 0
                exit
            ";
        let base = run(src, &PxConfig::default());
        let filtered = run(src, &PxConfig::default().with_static_nt_filter(Some(10)));
        assert!(base.stats.spawns > 0, "baseline must spawn NT-paths");
        assert_eq!(filtered.stats.spawns, 0, "every spawn here is doomed");
        assert_eq!(filtered.stats.skipped_static, base.stats.spawns);
        assert_eq!(base.stats.skipped_static, 0, "off by default");
        // The taken path is untouched by the veto.
        assert_eq!(filtered.exit, base.exit);
        assert_eq!(filtered.io.output_string(), base.io.output_string());
        assert_eq!(
            filtered.taken_coverage, base.taken_coverage,
            "taken-path coverage identical with and without the filter"
        );
    }

    #[test]
    fn fixes_execute_only_with_apply_fixes() {
        // The non-taken edge asserts on the condition variable; the
        // predicated fix at the edge head repairs it.
        let src = r"
            .code
            main:
                li r1, 5
                bne r1, zero, ok   ; non-taken edge semantically needs r1 == 0
                pli r1, 0          ; compiler's fix: set r1 = 0 (boundary)
                seq r3, r1, zero   ; r3 = (r1 == 0)
                assert r3, #50     ; false positive unless fixed
                jmp ok
            ok:
                li r2, 0
                exit
            ";
        let fixed = run(src, &PxConfig::default().with_fixes(true));
        assert_eq!(fixed.monitor.len(), 0, "fix removes the false positive");
        let unfixed = run(src, &PxConfig::default().with_fixes(false));
        assert_eq!(unfixed.monitor.len(), 1, "without fixing the check fires");
    }

    #[test]
    fn taken_path_crash_still_faults() {
        let src = ".code\nmain:\n  lw r1, 0(zero)\n";
        let r = run(src, &PxConfig::default());
        assert!(matches!(
            r.exit,
            RunExit::Crashed(CrashKind::NullDeref { .. })
        ));
    }

    #[test]
    fn counter_reset_reenables_spawning() {
        // Two passes over the same branch; with a tiny reset interval the
        // edge counter clears between them.
        let src = r"
            .code
            main:
                li r7, 2           ; outer passes
            outer:
                li r4, 8
            loop:
                subi r4, r4, 1
                bgt r4, zero, loop
                subi r7, r7, 1
                bgt r7, zero, outer
                li r2, 0
                exit
            ";
        let no_reset = run(
            src,
            &PxConfig::default()
                .with_counter_threshold(1)
                .with_counter_reset_interval(u64::MAX),
        );
        let with_reset = run(
            src,
            &PxConfig::default()
                .with_counter_threshold(1)
                .with_counter_reset_interval(20),
        );
        assert!(with_reset.stats.counter_resets > 0);
        assert!(
            with_reset.stats.spawns > no_reset.stats.spawns,
            "resets re-enable exploration: {} vs {}",
            with_reset.stats.spawns,
            no_reset.stats.spawns
        );
    }

    #[test]
    fn os_sandbox_extension_lets_nt_paths_run_past_syscalls() {
        // §3.2 future work: with OS support, the putc is executed against a
        // disposable I/O snapshot instead of stopping the path, and the
        // output still never leaks.
        let src = r"
            .code
            main:
                li r1, 1
                bne r1, zero, ok
                li r2, 88
                putc                ; sandboxed under the extension
                li r3, 0
                assert r3, #66      ; bug past the unsafe event
                jmp ok
            ok:
                li r2, 0
                exit
            ";
        let plain = run(src, &PxConfig::default());
        assert_eq!(plain.stats.stops_of("unsafe"), 1);
        assert_eq!(plain.monitor.len(), 0, "bug unreachable without OS support");

        let os = run(src, &PxConfig::default().with_os_sandbox(true));
        assert_eq!(os.stats.stops_of("unsafe"), 0);
        assert_eq!(os.stats.nt_syscalls_sandboxed, 1);
        assert_eq!(os.monitor.len(), 1, "the path now reaches the bug");
        assert!(os.io.output().is_empty(), "sandboxed putc must not leak");
        assert_eq!(os.exit, RunExit::Exited(0));
    }

    #[test]
    fn random_factor_spawns_from_hot_edges() {
        // A loop branch whose exit edge saturates the threshold: with the
        // §7.1(2) random factor, occasional extra spawns still happen.
        let src = r"
            .code
            main:
                li r4, 400
            loop:
                subi r4, r4, 1
                bgt r4, zero, loop
                li r2, 0
                exit
            ";
        let plain = run(src, &PxConfig::default().with_counter_threshold(1));
        let random = run(
            src,
            &PxConfig::default()
                .with_counter_threshold(1)
                .with_random_factor(Some(16)),
        );
        assert_eq!(plain.stats.random_spawns, 0);
        assert!(random.stats.random_spawns > 0, "hot edges re-explored");
        assert!(random.stats.spawns > plain.stats.spawns);
        // Determinism.
        let again = run(
            src,
            &PxConfig::default()
                .with_counter_threshold(1)
                .with_random_factor(Some(16)),
        );
        assert_eq!(again.stats.random_spawns, random.stats.random_spawns);
    }

    #[test]
    fn max_length_cuts_a_runaway_nt_loop() {
        // The non-taken edge leads into an infinite loop, which
        // MaxNTPathLength must cut on its exact instruction.
        let src = r"
            .code
            main:
                li r1, 1
                bne r1, zero, ok
            spin:
                jmp spin
            ok:
                li r2, 0
                exit
            ";
        let px = PxConfig::default().with_max_nt_path_len(25);
        let r = run(src, &px);
        assert_eq!(r.exit, RunExit::Exited(0));
        assert_eq!(r.stats.paths.len(), 1);
        assert_eq!(r.stats.stops_of("max-length"), 1);
        assert_eq!(r.stats.paths[0].executed, 25);
    }

    #[test]
    fn budget_hit_mid_nt_path_squashes_cleanly() {
        // The budget lands while an NT-path is live: the path must be cut
        // short and the committed io/registers must reflect only taken work.
        let src = r"
            .code
            main:
                li r1, 1
                bne r1, zero, ok
            spin:
                jmp spin
            ok:
                li r2, 0
                exit
            ";
        let px = PxConfig::default()
            .with_max_nt_path_len(100_000)
            .with_max_instructions(20);
        let r = run(src, &px);
        assert_eq!(r.exit, RunExit::BudgetExhausted);
        assert_eq!(r.stats.stops_of("cut-short"), 1);
        assert!(r.io.output().is_empty());
    }

    #[test]
    fn bad_config_and_malformed_program_are_engine_faults() {
        let program = assemble(HIDDEN_BUG).unwrap();
        let mut mach = MachConfig::single_core();
        mach.l1.assoc = 0;
        let r = crate::run(&program, &mach, &PxConfig::default(), IoState::default());
        assert_eq!(r.exit.class(), "engine-fault");

        let mut garbage = assemble(HIDDEN_BUG).unwrap();
        garbage.data.push(px_isa::DataItem {
            addr: u32::MAX - 1,
            bytes: vec![0xAA; 8],
        });
        let r = crate::run(
            &garbage,
            &MachConfig::single_core(),
            &PxConfig::default(),
            IoState::default(),
        );
        assert!(matches!(
            r.exit,
            RunExit::EngineFault(SimError::BlobOutOfBounds { .. })
        ));

        let mut huge = assemble(HIDDEN_BUG).unwrap();
        huge.mem_size = u32::MAX;
        let r = crate::run(
            &huge,
            &MachConfig::single_core(),
            &PxConfig::default(),
            IoState::default(),
        );
        assert!(matches!(
            r.exit,
            RunExit::EngineFault(SimError::ProgramTooLarge { .. })
        ));
    }

    #[test]
    fn injected_faults_are_counted_and_contained() {
        use px_mach::{FaultMix, FaultPlan};
        let clean = run(HIDDEN_BUG, &PxConfig::default());
        let mut injected = 0;
        for seed in [1u64, 7, 42] {
            let program = assemble(HIDDEN_BUG).unwrap();
            let mut plan = FaultPlan::new(seed, FaultMix::uniform(), 2);
            let r = crate::run_with(
                &program,
                &MachConfig::single_core(),
                &PxConfig::default(),
                IoState::default(),
                Some(&mut plan),
            );
            assert_eq!(r.exit, clean.exit, "taken path unaffected (seed {seed})");
            assert_eq!(r.io.output(), clean.io.output());
            injected += plan.stats.total();
        }
        assert!(injected > 0, "the plan is consulted on NT-path steps");
    }

    #[test]
    fn counter_reset_catch_up_matches_the_naive_loop() {
        // The closed form must agree with the per-instruction protocol for
        // every (start, interval, length) — including interval 0 and starts
        // at or past the interval.
        for interval in [0u64, 1, 2, 3, 5, 64, 1000] {
            for start in [0u64, 1, 2, 3, 4, 63, 64, 65, 999, 1000, 1001] {
                for n in [0u64, 1, 2, 3, 5, 63, 64, 65, 127, 128, 129, 5000] {
                    let mut naive_tsr = start;
                    let mut naive_resets = 0u64;
                    for _ in 0..n {
                        if naive_tsr >= interval {
                            naive_resets += 1;
                            naive_tsr = 0;
                        }
                        naive_tsr += 1;
                    }
                    let mut tsr = start;
                    let resets = catch_up_counter_resets(&mut tsr, interval, n);
                    assert_eq!(
                        (resets, tsr),
                        (naive_resets, naive_tsr),
                        "interval={interval} start={start} n={n}"
                    );
                }
            }
        }
    }

    #[test]
    fn decoded_entry_point_is_identical() {
        let program = assemble(HIDDEN_BUG).unwrap();
        let dp = px_isa::DecodedProgram::decode(&program);
        let px = PxConfig::default().with_max_nt_path_len(50);
        let plain = crate::run(
            &program,
            &MachConfig::single_core(),
            &px,
            IoState::default(),
        );
        let decoded = run_standard_decoded(
            &program,
            &dp,
            &MachConfig::single_core(),
            &px,
            IoState::default(),
        );
        assert_eq!(decoded.exit, plain.exit);
        assert_eq!(decoded.cycles, plain.cycles);
        assert_eq!(decoded.stats.spawns, plain.stats.spawns);
        assert_eq!(decoded.io.output(), plain.io.output());
    }

    #[test]
    fn explore_nt_from_nt_widens_coverage() {
        // Inside the NT region there is a second branch whose non-taken edge
        // is otherwise never explored (NT-paths follow actual conditions).
        let src = r"
            .code
            main:
                li r1, 1
                bne r1, zero, ok   ; spawn point
                ; --- NT region ---
                li r5, 1
                bne r5, zero, sub_ok  ; inner branch: always taken inside NT
                nop                   ; inner non-taken edge
            sub_ok:
                jmp ok
            ok:
                li r2, 0
                exit
            ";
        let p = assemble(src).unwrap();
        let plain = run(src, &PxConfig::default());
        let ablate = run(src, &PxConfig::default().with_explore_nt_from_nt(true));
        assert!(ablate.total_coverage.covered_edges(&p) > plain.total_coverage.covered_edges(&p));
    }
}
