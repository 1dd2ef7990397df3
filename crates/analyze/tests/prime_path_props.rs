//! Property tests for prime-path enumeration.
//!
//! Four kinds of trust, on the in-tree `px_util` property harness:
//!
//! * **Determinism** — enumerating the same program twice (at default and
//!   at tight limits) yields byte-identical JSON renderings and equal
//!   digests: the denominator every report divides by is a pure function
//!   of the program bytes.
//! * **Robustness** — programs assembled from arbitrary instruction
//!   soup, including branches and jumps whose targets fall outside the
//!   code (mutated/truncated streams), never panic the enumerator, and
//!   every structural invariant of the resulting [`PrimePathSet`] holds.
//! * **Truncation** — a run cut short by its caps keeps only contiguous
//!   subpaths of what the unbounded run keeps.
//! * **Reference agreement** — under every cap, alone or at its default,
//!   the enumerator keeps exactly the block sequences and sets exactly
//!   the truncation flag of the plain one-vector-per-path worklist in
//!   `reference/`, on soup programs and on every zoo-roster compile.

mod reference;

use px_analyze::{Analysis, PathLimits, PrimePathSet};
use px_detect::Tool;
use px_isa::{AluOp, BranchCond, Instruction, Program, ProgramBuilder, Reg, SyscallCode};
use px_util::prop::{any_u32, vec_of};
use px_util::px_prop;
use px_workloads::zoo;

/// Builds one instruction from two raw words. Control-flow targets are
/// drawn from `0..n + 8`, so backward branches (loops), self-branches and
/// out-of-range targets all occur — the mutated-stream space.
fn insn_from(sel: u32, raw: u32, pc: u32, n: u32) -> Instruction {
    // The last slot is an `exit` most of the time so many generated
    // programs terminate, without forcing it (truncated streams may not).
    if pc + 1 == n && !pc.is_multiple_of(3) {
        return Instruction::Syscall {
            code: SyscallCode::Exit,
        };
    }
    let reg = |r: u32| Reg::new(2 + (r % 8) as u8);
    let target = raw % (n + 8);
    match sel % 8 {
        0 | 1 => Instruction::AluI {
            op: [AluOp::Add, AluOp::Sub, AluOp::Xor, AluOp::Slt][(raw % 4) as usize],
            rd: reg(raw),
            rs1: reg(raw >> 8),
            imm: (raw % 17) as i32 - 8,
        },
        2 => Instruction::Alu {
            op: [AluOp::And, AluOp::Or, AluOp::Mul, AluOp::Seq][(raw % 4) as usize],
            rd: reg(raw),
            rs1: reg(raw >> 8),
            rs2: reg(raw >> 16),
        },
        3..=5 => Instruction::Branch {
            cond: [
                BranchCond::Eq,
                BranchCond::Ne,
                BranchCond::Lt,
                BranchCond::Ge,
                BranchCond::Le,
                BranchCond::Gt,
            ][(raw % 6) as usize],
            rs1: reg(raw),
            rs2: reg(raw >> 8),
            target,
        },
        6 => Instruction::Jump { target },
        _ => {
            if raw.is_multiple_of(3) {
                Instruction::Syscall {
                    code: SyscallCode::ReadInt,
                }
            } else {
                Instruction::Nop
            }
        }
    }
}

fn build(words: &[(u32, u32)]) -> Program {
    let n = words.len() as u32;
    let mut b = ProgramBuilder::new();
    for (pc, &(sel, raw)) in words.iter().enumerate() {
        b.push(insn_from(sel, raw, pc as u32, n), pc as u32 + 1);
    }
    b.finish()
}

/// The structural invariants every enumeration must satisfy, panic-free.
fn check_invariants(set: &PrimePathSet) {
    assert!(set.feasible_count() <= set.len());
    assert_eq!(
        set.feasible_count(),
        set.paths().iter().filter(|p| p.feasible).count()
    );
    assert_eq!(
        set.max_len(),
        set.paths()
            .iter()
            .map(|p| p.blocks.len())
            .max()
            .unwrap_or(0)
    );
    assert!(
        set.block_starts().windows(2).all(|w| w[0] < w[1]),
        "block starts must be strictly ascending"
    );
    assert_eq!(set.block_path_counts().len(), set.block_starts().len());
    for p in set.paths() {
        assert!(!p.blocks.is_empty(), "prime paths are non-empty");
        // Simple path: interior blocks never repeat (a cycle repeats only
        // its endpoints).
        let interior = if p.blocks.len() > 1 && p.blocks.first() == p.blocks.last() {
            &p.blocks[..p.blocks.len() - 1]
        } else {
            &p.blocks[..]
        };
        let mut seen = interior.to_vec();
        seen.sort_unstable();
        seen.dedup();
        assert_eq!(seen.len(), interior.len(), "prime paths are simple");
        for &b in &p.blocks {
            assert!(
                (b as usize) < set.block_starts().len(),
                "path block out of range"
            );
        }
    }
    // Paths are in stable lexicographic order (the determinism anchor).
    assert!(set.paths().windows(2).all(|w| w[0].blocks < w[1].blocks));
}

/// Asserts that `enumerate_with` agrees with the reference under `limits`.
fn assert_matches_reference(program: &Program, analysis: &Analysis, limits: &PathLimits) {
    let set = PrimePathSet::enumerate_with(program, analysis, limits);
    let got: Vec<&[u32]> = set.paths().iter().map(|p| p.blocks.as_slice()).collect();
    let (want, truncated) = reference::enumerate(program, analysis, limits);
    assert_eq!(got, want, "block sequences under {limits:?}");
    assert_eq!(
        set.truncated(),
        truncated,
        "truncation flag under {limits:?}"
    );
}

#[test]
fn every_roster_compile_matches_the_reference() {
    let limits = PathLimits::default();
    for spec in zoo::roster() {
        let workload = zoo::generate(&spec);
        for tool in Tool::ALL {
            let program = workload
                .compile_for(tool)
                .unwrap_or_else(|e| panic!("{spec} ({}): {e}", tool.name()))
                .program;
            assert_matches_reference(&program, &Analysis::of(&program), &limits);
        }
    }
}

px_prop! {
    fn enumeration_is_byte_deterministic(
        words in vec_of((any_u32(), any_u32()), 4..48),
    ) {
        let program = build(&words);
        let analysis = Analysis::of(&program);
        let a = PrimePathSet::enumerate(&program, &analysis);
        let b = PrimePathSet::enumerate(&program, &analysis);
        assert_eq!(a.to_json().dump(), b.to_json().dump());
        assert_eq!(a.digest(), b.digest());
        // A fresh analysis of the same bytes agrees too.
        let c = PrimePathSet::enumerate(&program, &Analysis::of(&program));
        assert_eq!(a.to_json().dump(), c.to_json().dump());
    }

    fn mutated_streams_never_panic_and_keep_invariants(
        words in vec_of((any_u32(), any_u32()), 1..64),
        cut in any_u32(),
    ) {
        // The full stream, and a truncated prefix of it (branch targets
        // now dangle past the end), both enumerate without panicking.
        let full = build(&words);
        let keep = 1 + (cut as usize) % words.len();
        let truncated = build(&words[..keep]);
        for program in [&full, &truncated] {
            let analysis = Analysis::of(program);
            let set = PrimePathSet::enumerate(program, &analysis);
            check_invariants(&set);
            let _ = set.to_json().dump();
            let _ = set.path_cover(program, &vec![false; set.len()]);
        }
    }

    fn tight_limits_truncate_deterministically(
        words in vec_of((any_u32(), any_u32()), 8..48),
    ) {
        let program = build(&words);
        let analysis = Analysis::of(&program);
        let limits = PathLimits { max_paths: 4, max_candidates: 8, max_work: 64 };
        let a = PrimePathSet::enumerate_with(&program, &analysis, &limits);
        let b = PrimePathSet::enumerate_with(&program, &analysis, &limits);
        assert_eq!(a.to_json().dump(), b.to_json().dump());
        assert!(a.len() <= limits.max_paths);
        check_invariants(&a);
        // A truncated set is no subset of the unbounded one (it can keep
        // paths the full run drops as non-prime), but at these caps it
        // never keeps more paths than the unbounded enumeration.
        let unbounded = PrimePathSet::enumerate(&program, &analysis);
        assert!(a.len() <= unbounded.len());
    }

    fn truncated_paths_are_subpaths_of_the_full_set(
        words in vec_of((any_u32(), any_u32()), 1..64),
        max_work in 1u64..200,
    ) {
        let program = build(&words);
        let analysis = Analysis::of(&program);
        let full = PrimePathSet::enumerate(&program, &analysis);
        if full.truncated() {
            return;
        }
        let limits = PathLimits { max_work, ..PathLimits::default() };
        let cut = PrimePathSet::enumerate_with(&program, &analysis, &limits);
        for p in cut.paths() {
            assert!(
                full.paths()
                    .iter()
                    .any(|f| f.blocks.windows(p.blocks.len()).any(|w| w == p.blocks)),
                "max_work {max_work}: {:?} is no subpath of a full-set path",
                p.blocks
            );
        }
    }

    fn enumerator_matches_the_reference_under_each_cap(
        words in vec_of((any_u32(), any_u32()), 1..64),
        max_work in 0u64..300,
        max_candidates in 0usize..48,
        max_paths in 0usize..24,
    ) {
        let program = build(&words);
        let analysis = Analysis::of(&program);
        let full = PathLimits::default();
        for limits in [
            full,
            PathLimits { max_work: 0, ..full },
            PathLimits { max_work, ..full },
            PathLimits { max_candidates, ..full },
            PathLimits { max_paths, ..full },
            PathLimits { max_paths, max_candidates, max_work },
        ] {
            assert_matches_reference(&program, &analysis, &limits);
        }
    }
}
