//! Profile-guided fix refitting — the paper's §4.4 "value-invariants
//! inference" direction (it cites DIDUCE): instead of pinning a condition
//! variable to the bare comparison boundary, pick a satisfying value that
//! also lies inside the variable's *observed, outcome-conditioned* value
//! range.
//!
//! The win: a guard that is looser than the data it protects. For
//! `if (slot < 64) { table[slot] = ...; }` with `int table[16]`, the
//! boundary fix `slot = 63` sends the NT-path out of bounds — a false
//! positive — while a profiled fix (observed `slot ∈ [0, 15]` whenever the
//! guard held) picks 15 and stays clean.
//!
//! Usage: compile once, run [`collect_branch_profile`] on a general input,
//! then [`refit_fixes`] patches the predicated fix instructions in place.

use std::collections::HashMap;

use px_isa::{DecodedProgram, Instruction, Program};
use px_mach::{IoState, MachConfig, TakenPath};

use crate::ast::BinOp;
use crate::codegen::{boundary_delta, satisfying_direction, CompiledProgram, OperandSide};

/// Observed `(min, max)` for both operands of a branch.
pub type OperandRanges = ((i32, i32), (i32, i32));

/// What a profiling run learned about one branch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BranchObservation {
    /// Ranges over every execution of the branch.
    pub any: OperandRanges,
    /// Ranges over executions where the branch was taken, if any.
    pub taken: Option<OperandRanges>,
    /// Ranges over executions where the branch fell through, if any.
    pub not_taken: Option<OperandRanges>,
}

/// The whole profile: branch instruction index → observation.
pub type BranchRanges = HashMap<u32, BranchObservation>;

fn widen(r: &mut OperandRanges, a: i32, b: i32) {
    r.0 .0 = r.0 .0.min(a);
    r.0 .1 = r.0 .1.max(a);
    r.1 .0 = r.1 .0.min(b);
    r.1 .1 = r.1 .1.max(b);
}

/// Runs `program` once (no PathExpander) and records per-branch,
/// per-outcome operand value ranges: a baseline [`TakenPath`] whose branch
/// hook widens the ranges and never stops it.
///
/// The profiling input should be a *general* input — the point is to learn
/// normal value ranges, exactly like the invariant-inference tools the
/// paper cites. A program the machine cannot load yields an empty profile.
///
/// The run charges the cache model like the baseline does, so the `time`
/// system call reads simulated cycles. No bundled workload or zoo program
/// calls it, so their profiles do not depend on the cache model.
#[must_use]
pub fn collect_branch_profile(
    program: &Program,
    mach: &MachConfig,
    io: IoState,
    max_instructions: u64,
) -> BranchRanges {
    let dp = DecodedProgram::decode(program);
    let mut ranges = BranchRanges::new();
    let Ok(mut taken) = TakenPath::new(program, &dp, mach, io, max_instructions, None, None) else {
        return ranges;
    };
    taken.follow(&mut 0, |_, _, br| {
        let (a, b) = br.operands;
        let fresh = ((a, a), (b, b));
        let obs = ranges.entry(br.pc).or_insert(BranchObservation {
            any: fresh,
            taken: None,
            not_taken: None,
        });
        let side = if br.taken {
            &mut obs.taken
        } else {
            &mut obs.not_taken
        };
        widen(&mut obs.any, a, b);
        widen(side.get_or_insert(fresh), a, b);
        false
    });
    ranges
}

/// Rewrites the compiled program's refittable fix instructions using the
/// observed value ranges. Returns how many fix values changed.
///
/// For each site the pass prefers the range observed *when execution
/// actually went the fixed edge's way* (those values satisfied the condition
/// by construction); if that edge was never taken in the profile, it falls
/// back to clamping the boundary into the overall observed range. Pointer
/// fixes and equality fixes are never touched.
pub fn refit_fixes(compiled: &mut CompiledProgram, ranges: &BranchRanges) -> u32 {
    let mut patched = 0;
    for site in &compiled.fix_sites {
        let Some(obs) = ranges.get(&site.branch_pc) else {
            continue;
        };
        let pick = |r: OperandRanges| match site.side {
            OperandSide::Lhs => r.0,
            OperandSide::Rhs => r.1,
        };
        let outcome = if site.taken_when {
            obs.taken
        } else {
            obs.not_taken
        };
        let value = match outcome {
            // Values observed on this very edge satisfy the condition; take
            // the one nearest the boundary.
            Some(r) => {
                let (lo, hi) = pick(r);
                match satisfying_direction(site.op, site.want) {
                    d if d > 0 => Some(lo),
                    _ => Some(hi),
                }
                .filter(|_| !matches!((site.op, site.want), (BinOp::Eq, true) | (BinOp::Ne, false)))
            }
            // Edge never taken: clamp the boundary into the overall range.
            None => {
                let (lo, hi) = pick(obs.any);
                profiled_value(site.op, site.want, site.literal, lo, hi)
            }
        };
        let Some(value) = value else { continue };
        let insn = compiled.program.code[site.fix_pc as usize];
        let Instruction::PMovI { rd, imm } = insn else {
            debug_assert!(false, "fix site {site:?} does not point at a PMovI");
            continue;
        };
        if imm != value {
            compiled.program.code[site.fix_pc as usize] = Instruction::PMovI { rd, imm: value };
            patched += 1;
        }
    }
    patched
}

/// Picks the value closest to the comparison boundary that satisfies
/// `var OP literal == want` **and** lies within the observed `[lo, hi]`
/// range. `None` when the condition admits exactly one value or no observed
/// value satisfies it (the boundary default stands).
#[must_use]
pub fn profiled_value(op: BinOp, want: bool, literal: i32, lo: i32, hi: i32) -> Option<i32> {
    // Equality-style fixes admit a single value; the profile cannot help.
    if matches!((op, want), (BinOp::Eq, true) | (BinOp::Ne, false)) {
        return None;
    }
    let boundary = literal.checked_add(boundary_delta(op, want)?)?;
    let dir = satisfying_direction(op, want);
    if dir > 0 {
        let v = boundary.max(lo);
        (v <= hi).then_some(v)
    } else {
        let v = boundary.min(hi);
        (v >= lo).then_some(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{compile, CompileOptions};

    #[test]
    fn profiled_value_clamps_into_the_observed_range() {
        // x < 100, want true, observed x in [0, 15] -> 15 (not 99).
        assert_eq!(profiled_value(BinOp::Lt, true, 100, 0, 15), Some(15));
        // Observed range already contains the boundary -> boundary.
        assert_eq!(profiled_value(BinOp::Lt, true, 100, 0, 500), Some(99));
        // No observed value satisfies -> None (keep the boundary default).
        assert_eq!(profiled_value(BinOp::Lt, true, 100, 200, 300), None);
        // x > 10, want true, observed [0, 50] -> 11.
        assert_eq!(profiled_value(BinOp::Gt, true, 10, 0, 50), Some(11));
        // x > 10, want false (x <= 10), observed [3, 8] -> 8.
        assert_eq!(profiled_value(BinOp::Gt, false, 10, 3, 8), Some(8));
        // Equality fixes are never refitted.
        assert_eq!(profiled_value(BinOp::Eq, true, 7, 0, 100), None);
        assert_eq!(profiled_value(BinOp::Ne, false, 7, 0, 100), None);
        // x != 7 want true, observed [0, 3]: boundary 8 > hi -> None.
        assert_eq!(profiled_value(BinOp::Ne, true, 7, 0, 3), None);
    }

    #[test]
    fn profile_records_outcome_conditioned_ranges() {
        let compiled = compile(
            "int main() {
                int i;
                for (i = 0; i < 20; i = i + 1) {
                    int v = i * 7 % 30;
                    if (v < 10) { putchar('a' + v); }
                }
                return 0;
            }",
            &CompileOptions::default(),
        )
        .unwrap();
        let ranges = collect_branch_profile(
            &compiled.program,
            &MachConfig::single_core(),
            IoState::default(),
            1_000_000,
        );
        // Find the `v < 10` branch: a site comparing against literal 10.
        let site = compiled
            .fix_sites
            .iter()
            .find(|s| s.literal == 10)
            .expect("v < 10 site");
        let obs = ranges[&site.branch_pc];
        let taken = obs.taken.expect("v < 10 held sometimes");
        let not_taken = obs.not_taken.expect("and failed sometimes");
        // Values on the satisfying side are all < 10; on the other, >= 10.
        assert!(taken.0 .1 < 10, "taken-side max {:?}", taken.0);
        assert!(not_taken.0 .0 >= 10, "fall-side min {:?}", not_taken.0);
        assert_eq!(obs.any.0 .0, taken.0 .0.min(not_taken.0 .0));
    }

    #[test]
    fn fix_sites_are_recorded_and_point_at_pmovi() {
        let compiled = compile(
            "int main() {
                int x = readint();
                int y = 0;
                if (x < 100) { y = 1; }
                if (x > 7) { y = 2; }
                if (x == 3) { y = 3; }
                while (y < 10) { y = y + 1; }
                return 0;
            }",
            &CompileOptions::default(),
        )
        .unwrap();
        assert!(
            compiled.fix_sites.len() >= 6,
            "two sites per branch with integer-literal comparisons, got {}",
            compiled.fix_sites.len()
        );
        for site in &compiled.fix_sites {
            assert!(matches!(
                compiled.program.code[site.fix_pc as usize],
                Instruction::PMovI { .. }
            ));
            assert!(matches!(
                compiled.program.code[site.branch_pc as usize],
                Instruction::Branch { .. }
            ));
        }
        // Each branch with fixes has one taken-edge and one fall-edge site.
        for site in &compiled.fix_sites {
            let sibling = compiled
                .fix_sites
                .iter()
                .find(|s| s.branch_pc == site.branch_pc && s.taken_when != site.taken_when);
            assert!(sibling.is_some(), "both edges carry fixes: {site:?}");
        }
    }

    #[test]
    fn refit_uses_the_satisfying_outcome_range() {
        // `slot < 64` guards a 16-element table; slot is in [0, 15] when the
        // guard holds and in [100, 115] otherwise. The boundary fix (63)
        // would overrun; the refit picks the observed satisfying maximum.
        let mut compiled = compile(
            "int table[16];
             int main() {
                int i;
                for (i = 0; i < 40; i = i + 1) {
                    int slot = i % 16;
                    if (i % 8 == 7) { slot = 100 + slot; }
                    if (slot < 64) {
                        table[slot] = table[slot] + 1;
                    }
                }
                return 0;
             }",
            &CompileOptions::ccured(),
        )
        .unwrap();
        let site = compiled
            .fix_sites
            .iter()
            .find(|s| s.literal == 64 && s.want)
            .expect("slot < 64 true-edge site")
            .clone();
        let Instruction::PMovI { imm, .. } = compiled.program.code[site.fix_pc as usize] else {
            panic!("not a PMovI");
        };
        assert_eq!(imm, 63, "boundary value before refitting");

        let profile = collect_branch_profile(
            &compiled.program,
            &MachConfig::single_core(),
            IoState::default(),
            1_000_000,
        );
        let patched = refit_fixes(&mut compiled, &profile);
        assert!(patched >= 1);
        let Instruction::PMovI { imm, .. } = compiled.program.code[site.fix_pc as usize] else {
            panic!("not a PMovI");
        };
        // slot == 15 occurs only when i % 8 == 7 (i = 15, 31), which takes
        // the other edge — so the satisfying-outcome maximum is 14.
        assert_eq!(imm, 14, "refit to the satisfying-outcome maximum");

        // Idempotent under the same profile.
        assert_eq!(refit_fixes(&mut compiled, &profile), 0);
    }
}
