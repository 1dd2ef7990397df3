//! Cross-validates px-analyze against the dynamic engines.
//!
//! Two properties over randomly generated forward-only programs:
//!
//! 1. **Soundness of infeasibility**: no branch edge that constant
//!    propagation marks statically infeasible is ever covered by the
//!    *taken* path of a dynamic run. (NT-paths are excluded on purpose:
//!    PathExpander exists to force not-taken edges, including refuted
//!    ones — that is the tool working, not the analysis failing.)
//! 2. **Filter transparency**: enabling `static_nt_filter` never breaks
//!    containment (the committed run stays bit-identical to a plain
//!    baseline) and never changes taken-path coverage.
//!
//! Forward-only control flow (branches and jumps only target higher pcs)
//! guarantees every generated program terminates, so no case depends on
//! the instruction budget.

use pathexpander::{differential_run, Mode, PxConfig};
use px_analyze::Analysis;
use px_isa::{
    AluOp, BranchCond, CheckKind, Edge, Instruction, Program, ProgramBuilder, Reg, SyscallCode,
    Width, DATA_BASE,
};
use px_mach::IoState;
use px_util::{Rng, Xoshiro256};

/// Generates a terminating program with `n` instructions: random ALU work,
/// in-bounds memory traffic, input syscalls (so some branches stay
/// undecidable), checks, and forward-only branches/jumps ending in `exit`.
fn random_forward_program(rng: &mut Xoshiro256, n: u32) -> Program {
    let mut b = ProgramBuilder::new();
    let reg = |rng: &mut Xoshiro256| Reg::new(2 + (rng.next_u64() % 8) as u8);
    let alu_op = |rng: &mut Xoshiro256| {
        [
            AluOp::Add,
            AluOp::Sub,
            AluOp::Mul,
            AluOp::And,
            AluOp::Or,
            AluOp::Xor,
            AluOp::Slt,
            AluOp::Seq,
        ][(rng.next_u64() % 8) as usize]
    };
    let cond = |rng: &mut Xoshiro256| {
        [
            BranchCond::Eq,
            BranchCond::Ne,
            BranchCond::Lt,
            BranchCond::Ge,
            BranchCond::Le,
            BranchCond::Gt,
        ][(rng.next_u64() % 6) as usize]
    };
    for pc in 0..n - 1 {
        let insn = match rng.next_u64() % 12 {
            0..=2 => Instruction::AluI {
                op: alu_op(rng),
                rd: reg(rng),
                rs1: reg(rng),
                imm: (rng.next_u64() % 17) as i32 - 8,
            },
            3..=4 => Instruction::Alu {
                op: alu_op(rng),
                rd: reg(rng),
                rs1: reg(rng),
                rs2: reg(rng),
            },
            5 => Instruction::Load {
                width: Width::Word,
                rd: reg(rng),
                base: Reg::ZERO,
                offset: (DATA_BASE + 4 * (rng.next_u64() % 16) as u32) as i32,
            },
            6 => Instruction::Store {
                width: Width::Word,
                rs: reg(rng),
                base: Reg::ZERO,
                offset: (DATA_BASE + 4 * (rng.next_u64() % 16) as u32) as i32,
            },
            // Forward branch: target strictly beyond pc, at most the exit.
            7..=9 => Instruction::Branch {
                cond: cond(rng),
                rs1: reg(rng),
                rs2: reg(rng),
                target: pc + 1 + rng.next_u64() as u32 % (n - pc - 1),
            },
            10 => Instruction::Syscall {
                code: [
                    SyscallCode::Rand,
                    SyscallCode::ReadInt,
                    SyscallCode::PrintInt,
                ][(rng.next_u64() % 3) as usize],
            },
            _ => Instruction::Check {
                kind: CheckKind::Assertion,
                cond: reg(rng),
                site: pc,
            },
        };
        b.push(insn, pc + 1);
    }
    b.push(
        Instruction::Syscall {
            code: SyscallCode::Exit,
        },
        n,
    );
    b.finish()
}

fn io(seed: u64) -> IoState {
    // A short numeric line so ReadInt has something to parse.
    IoState::new(format!("{}\n", seed % 97).into_bytes(), seed)
}

fn config(mode: Mode) -> PxConfig {
    let px = PxConfig::default().with_max_instructions(500_000);
    match mode {
        Mode::Standard => px,
        Mode::Cmp => px.cmp(),
    }
}

#[test]
fn infeasible_edges_are_never_taken_dynamically() {
    let mut rng = Xoshiro256::seeded(0xA11A_57A7);
    for case in 0..150u64 {
        let n = 8 + (rng.next_u64() % 48) as u32;
        let program = random_forward_program(&mut rng, n);
        let analysis = Analysis::of(&program);
        let (r, report) = differential_run(
            &program,
            &Mode::Standard.machine(),
            &config(Mode::Standard),
            io(case),
            None,
        );
        assert!(
            report.is_contained(),
            "case {case}: generated program must be contained: {:?}",
            report.violations
        );
        for pc in 0..program.code.len() as u32 {
            for edge in Edge::ALL {
                if r.taken_coverage.covered(pc, edge) {
                    assert!(
                        analysis.edge_feasible(pc, edge),
                        "case {case}: taken path covered pc {pc} {} but the \
                         analysis calls it infeasible\n{}",
                        edge.name(),
                        program.disassemble()
                    );
                }
            }
        }
    }
}

#[test]
fn static_filter_preserves_containment_and_taken_coverage() {
    let mut rng = Xoshiro256::seeded(0xF117_E500);
    for case in 0..60u64 {
        let n = 8 + (rng.next_u64() % 48) as u32;
        let program = random_forward_program(&mut rng, n);
        for mode in [Mode::Standard, Mode::Cmp] {
            let (plain, _) =
                differential_run(&program, &mode.machine(), &config(mode), io(case), None);
            for k in [1u32, 4, 16] {
                let px = config(mode).with_static_nt_filter(Some(k));
                let (filtered, report) =
                    differential_run(&program, &mode.machine(), &px, io(case), None);
                assert!(
                    report.is_contained(),
                    "case {case} k={k} {mode:?}: filter broke containment: {:?}",
                    report.violations
                );
                assert_eq!(
                    filtered.taken_coverage, plain.taken_coverage,
                    "case {case} k={k} {mode:?}: the filter must not touch the taken path"
                );
                assert_eq!(
                    filtered.exit, plain.exit,
                    "case {case} k={k} {mode:?}: exit status unchanged"
                );
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Zoo cross-validation: the same two directions of trust, but over the
// generated workload zoo instead of random instruction soup — real
// structured control flow with known bug sites.
// ---------------------------------------------------------------------------

/// One zoo family per shape, compiled for every tool it supports.
fn zoo_compiled() -> Vec<(String, px_workloads::Workload)> {
    [
        "zoo:state-machine:1",
        "zoo:parser:3:n1",
        "zoo:interpreter:2",
        "zoo:recursive:6:lean",
    ]
    .iter()
    .map(|s| ((*s).to_owned(), px_workloads::by_name(s).expect("zoo spec")))
    .collect()
}

#[test]
fn zoo_infeasible_edges_are_never_taken_dynamically() {
    // The synthesizer must not emit programs whose dynamic taken path
    // contradicts the static analysis; together with the feasible-edge
    // coverage denominators in E15 this keeps "coverage uplift" honest.
    for (spec, w) in zoo_compiled() {
        for &tool in &w.tools {
            let compiled = w.compile_for(tool).unwrap();
            let analysis = Analysis::of(&compiled.program);
            let (r, report) = differential_run(
                &compiled.program,
                &Mode::Standard.machine(),
                &w.px_config(),
                IoState::new(w.general_input(42), 42),
                None,
            );
            assert!(
                report.is_contained(),
                "{spec}/{}: zoo program must be contained: {:?}",
                tool.name(),
                report.violations
            );
            for pc in 0..compiled.program.code.len() as u32 {
                for edge in Edge::ALL {
                    if r.taken_coverage.covered(pc, edge) {
                        assert!(
                            analysis.edge_feasible(pc, edge),
                            "{spec}/{}: taken path covered pc {pc} {} but the \
                             analysis calls it infeasible",
                            tool.name(),
                            edge.name(),
                        );
                    }
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Prime-path cross-validation: the statically enumerated `PrimePathSet`
// against the runtime matcher, in both directions of trust.
// ---------------------------------------------------------------------------

/// Every enumerated path, driven block by block through a fresh
/// `PathTrail`, must credit exactly one thing: a feasible path its own
/// index and nothing else (prime paths form an antichain under
/// "contiguous subpath", so no other path can occur inside it — this pins
/// the automaton's terminals to the *right* indices), an infeasible path
/// nothing at all, which is what makes covered ⊆ feasible hold by
/// construction.
fn assert_lookup_unambiguous(spec: &str, set: &px_analyze::PrimePathSet) {
    let plan = pathexpander::plan_paths(set).expect("plan from enumeration");
    for (idx, path) in set.paths().iter().enumerate() {
        let mut cov = plan.new_coverage();
        let mut trail = px_mach::PathTrail::default();
        for &b in &path.blocks {
            trail.enter_block(&plan, &mut cov, b);
        }
        let credited: Vec<u32> = (0..plan.n_paths).filter(|&i| cov.is_covered(i)).collect();
        if path.feasible {
            assert_eq!(
                credited,
                [idx as u32],
                "{spec}: feasible path {idx} credits other paths than itself"
            );
        } else {
            assert_eq!(
                credited, [0u32; 0],
                "{spec}: infeasible path {idx} is matchable at runtime"
            );
        }
    }
}

/// Runs `program` with `plan` attached and checks the feasibility-honesty
/// direction: no path the analysis marks infeasible is ever credited.
fn assert_covered_is_feasible(
    spec: &str,
    set: &px_analyze::PrimePathSet,
    cov: &px_mach::PathCoverage,
) {
    assert_eq!(cov.set_digest(), set.digest(), "{spec}: shard identity");
    assert_eq!(
        u64::from(cov.feasible_total()),
        set.feasible_count() as u64,
        "{spec}: shard denominator"
    );
    for (idx, &covered) in cov.covered().iter().enumerate() {
        if covered {
            assert!(
                set.paths()[idx].feasible,
                "{spec}: statically-infeasible prime path {idx} marked covered"
            );
        }
    }
}

#[test]
fn prime_path_matching_is_unambiguous_and_feasibility_honest() {
    let mut rng = Xoshiro256::seeded(0x9111_BEEF);
    for case in 0..60u64 {
        let n = 8 + (rng.next_u64() % 48) as u32;
        let program = random_forward_program(&mut rng, n);
        let spec = format!("random case {case}");
        let set = Analysis::of(&program).prime_paths(&program);
        assert_lookup_unambiguous(&spec, &set);
        let plan = std::sync::Arc::new(pathexpander::plan_paths(&set).unwrap());
        for mode in [Mode::Standard, Mode::Cmp] {
            let px = config(mode).with_path_plan(Some(plan.clone()));
            let (r, report) = differential_run(&program, &mode.machine(), &px, io(case), None);
            assert!(report.is_contained(), "{spec} {mode:?}: contained");
            let cov = r.path_coverage.as_ref().expect("plan attached");
            assert_covered_is_feasible(&format!("{spec} {mode:?}"), &set, cov);
        }
    }
}

#[test]
fn baseline_prime_coverage_is_a_subset_of_px_coverage() {
    // The PathExpander run's taken path is bit-identical to a plain
    // monitored run (transparency), so every prime path the baseline
    // matcher credits must also be credited by the PX run — NT-paths only
    // ever add coverage.
    let mut rng = Xoshiro256::seeded(0x5_0B5E7);
    for case in 0..40u64 {
        let n = 8 + (rng.next_u64() % 48) as u32;
        let program = random_forward_program(&mut rng, n);
        let set = Analysis::of(&program).prime_paths(&program);
        let plan = std::sync::Arc::new(pathexpander::plan_paths(&set).unwrap());
        let base = px_mach::run_baseline_with(
            &program,
            &Mode::Standard.machine(),
            io(case),
            500_000,
            None,
            Some(&plan),
        );
        let px = config(Mode::Standard).with_path_plan(Some(plan.clone()));
        let (r, _) = differential_run(&program, &Mode::Standard.machine(), &px, io(case), None);
        let base_cov = base.path_coverage.as_ref().expect("baseline shard");
        let px_cov = r.path_coverage.as_ref().expect("px shard");
        for (idx, &b) in base_cov.covered().iter().enumerate() {
            assert!(
                !b || px_cov.is_covered(idx as u32),
                "case {case}: baseline covered path {idx} but the PX run did not"
            );
        }
    }
}

#[test]
fn zoo_prime_paths_are_unambiguous_and_feasibility_honest() {
    let mut covered_total = 0u64;
    for (spec, w) in zoo_compiled() {
        for &tool in &w.tools {
            let compiled = w.compile_for(tool).unwrap();
            let set = Analysis::of(&compiled.program).prime_paths(&compiled.program);
            let label = format!("{spec}/{}", tool.name());
            assert_lookup_unambiguous(&label, &set);
            let plan = std::sync::Arc::new(pathexpander::plan_paths(&set).unwrap());
            let px = w.px_config().with_path_plan(Some(plan.clone()));
            let (r, report) = differential_run(
                &compiled.program,
                &Mode::Standard.machine(),
                &px,
                IoState::new(w.general_input(42), 42),
                None,
            );
            assert!(report.is_contained(), "{label}: contained");
            let cov = r.path_coverage.as_ref().expect("plan attached");
            assert_covered_is_feasible(&label, &set, cov);
            covered_total += u64::from(cov.covered_count());
        }
    }
    // Loop-heavy families can legitimately cover zero prime paths for one
    // input (their simple paths are truncated away), but across the zoo
    // sample the matcher must credit something or it is dead code.
    assert!(covered_total > 0, "no zoo run covered any prime path");
}

#[test]
fn zoo_bug_markers_sit_in_feasible_code() {
    // Ground truth sanity: every injected bug line must be statically
    // reachable — a bug in code the analysis proves dead could never be
    // detected and would poison the expected/detected bookkeeping.
    for (spec, w) in zoo_compiled() {
        for &tool in &w.tools {
            let compiled = w.compile_for(tool).unwrap();
            let analysis = Analysis::of(&compiled.program);
            for bug in &w.bugs {
                let line = w.marker_line(&bug.marker);
                let pcs: Vec<u32> = (0..compiled.program.code.len() as u32)
                    .filter(|&pc| compiled.program.source_line(pc) == line)
                    .collect();
                assert!(
                    !pcs.is_empty(),
                    "{spec}/{}: bug {} line {line} compiled to no instructions",
                    tool.name(),
                    bug.id
                );
                assert!(
                    pcs.iter().any(|&pc| analysis.constprop().reachable(pc)),
                    "{spec}/{}: bug {} line {line} is statically unreachable",
                    tool.name(),
                    bug.id
                );
            }
        }
    }
}
