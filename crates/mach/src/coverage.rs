//! Branch-edge coverage tracking — the paper's evaluation metric (§2, §6.3).

use px_isa::{Edge, Program};

use crate::bits;
use crate::fault::SimError;

/// Tracks which static branch edges have been executed.
///
/// One instance typically tracks the taken path, another the NT-paths; their
/// union ([`Coverage::merge`]) is "PathExpander coverage". Cumulative
/// coverage over a test suite is the merge across inputs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Coverage {
    /// `edges[pc][0]` = taken edge seen, `edges[pc][1]` = not-taken edge seen.
    edges: Vec<[bool; 2]>,
}

impl Coverage {
    /// Creates a tracker for a program with `code_len` instructions.
    #[must_use]
    pub fn new(code_len: usize) -> Coverage {
        Coverage {
            edges: vec![[false; 2]; code_len],
        }
    }

    /// Creates a tracker sized for `program`.
    #[must_use]
    pub fn for_program(program: &Program) -> Coverage {
        Coverage::new(program.code.len())
    }

    /// Records execution of one edge of the branch at `pc`.
    #[inline]
    pub fn record(&mut self, pc: u32, edge: Edge) {
        if let Some(e) = self.edges.get_mut(pc as usize) {
            e[edge.slot()] = true;
        }
    }

    /// Whether a specific edge has been covered.
    #[must_use]
    pub fn covered(&self, pc: u32, edge: Edge) -> bool {
        self.edges.get(pc as usize).is_some_and(|e| e[edge.slot()])
    }

    /// Number of covered edges outside checker regions.
    #[must_use]
    pub fn covered_edges(&self, program: &Program) -> u32 {
        self.edges
            .iter()
            .enumerate()
            .filter(|&(pc, _)| !program.in_checker_region(pc as u32))
            .map(|(_, e)| u32::from(e[0]) + u32::from(e[1]))
            .sum()
    }

    /// Branch coverage in `[0, 1]`: covered edges / static edges
    /// (checker regions excluded from both). Returns 1.0 for programs with
    /// no branches.
    #[must_use]
    pub fn branch_coverage(&self, program: &Program) -> f64 {
        let total = program.static_edge_count();
        if total == 0 {
            return 1.0;
        }
        f64::from(self.covered_edges(program)) / f64::from(total)
    }

    /// Merges another tracker into this one (union of covered edges).
    ///
    /// # Errors
    ///
    /// Returns [`SimError::CoverageSizeMismatch`] — leaving `self`
    /// untouched — if the trackers were built for different code sizes.
    pub fn merge(&mut self, other: &Coverage) -> Result<(), SimError> {
        bits::union(self.edges.as_flattened_mut(), other.edges.as_flattened(), 2)
    }

    /// Number of covered edges outside checker regions that are also in
    /// `feasible` — the numerator of [`Coverage::branch_coverage_feasible`].
    ///
    /// `feasible[pc]` is the `[taken, not_taken]` mask from static analysis
    /// (px-analyze `feasible_edges`); indexes beyond its length count as
    /// infeasible. The intersection matters because NT-path spawns *force*
    /// execution down statically-refuted edges, so covered ⊄ feasible.
    #[must_use]
    pub fn covered_feasible_edges(&self, program: &Program, feasible: &[[bool; 2]]) -> u32 {
        self.edges
            .iter()
            .enumerate()
            .filter(|&(pc, _)| !program.in_checker_region(pc as u32))
            .map(|(pc, e)| {
                let f = feasible.get(pc).copied().unwrap_or([false; 2]);
                u32::from(e[0] && f[0]) + u32::from(e[1] && f[1])
            })
            .sum()
    }

    /// Branch coverage over the *feasible* denominator: covered∩feasible
    /// edges divided by feasible edges (checker regions excluded from
    /// both). This is the honest version of [`Coverage::branch_coverage`]
    /// — edges no input can ever take no longer depress the ratio. Returns
    /// 1.0 when no feasible edges exist.
    #[must_use]
    pub fn branch_coverage_feasible(&self, program: &Program, feasible: &[[bool; 2]]) -> f64 {
        let total: u32 = feasible
            .iter()
            .enumerate()
            .filter(|&(pc, _)| pc < self.edges.len() && !program.in_checker_region(pc as u32))
            .map(|(_, f)| u32::from(f[0]) + u32::from(f[1]))
            .sum();
        if total == 0 {
            return 1.0;
        }
        f64::from(self.covered_feasible_edges(program, feasible)) / f64::from(total)
    }

    /// Renders a branch-coverage-annotated disassembly: each conditional
    /// branch is prefixed with the state of its two edges —
    /// `T` covered by the taken path (present in `taken`), `N` covered only
    /// by NT-paths (present in `total` but not `taken`), `.` uncovered.
    /// The first mark is the branch's taken edge, the second its
    /// fall-through edge.
    #[must_use]
    pub fn annotated_listing(program: &Program, taken: &Coverage, total: &Coverage) -> String {
        Coverage::annotated_listing_feasible(program, taken, total, None)
    }

    /// Like [`Coverage::annotated_listing`], but when a static feasibility
    /// mask is supplied, an uncovered edge that analysis proved infeasible
    /// is marked `-` instead of `.` — "not covered, and no input ever
    /// will". Covered-but-infeasible edges keep their `T`/`N` mark: an `N`
    /// on an infeasible edge is an NT-path doing exactly what the paper
    /// built it for.
    #[must_use]
    pub fn annotated_listing_feasible(
        program: &Program,
        taken: &Coverage,
        total: &Coverage,
        feasible: Option<&[[bool; 2]]>,
    ) -> String {
        use core::fmt::Write as _;
        let mark = |pc: u32, edge: Edge| -> char {
            if taken.covered(pc, edge) {
                'T'
            } else if total.covered(pc, edge) {
                'N'
            } else if feasible.is_some_and(|f| !f.get(pc as usize).is_some_and(|e| e[edge.slot()]))
            {
                '-'
            } else {
                '.'
            }
        };
        let mut out = String::new();
        for (pc, insn) in program.code.iter().enumerate() {
            let pc = pc as u32;
            let prefix = if matches!(insn, px_isa::Instruction::Branch { .. }) {
                format!("[{}{}]", mark(pc, Edge::Taken), mark(pc, Edge::NotTaken))
            } else {
                "    ".to_owned()
            };
            let _ = writeln!(out, "{prefix} {pc:>6}: {insn}");
        }
        out
    }

    /// FNV-1a-64 digest of the covered-edge bitmap (checker regions
    /// excluded, so instrumentation differences between tools do not leak
    /// into otherwise-identical coverage). Chainable: pass a previous
    /// digest as `seed`, or 0 to start fresh.
    #[must_use]
    pub fn digest(&self, program: &Program, seed: u64) -> u64 {
        let mut h = seed;
        for (pc, e) in self.edges.iter().enumerate() {
            if program.in_checker_region(pc as u32) {
                continue;
            }
            let bits = u8::from(e[0]) | (u8::from(e[1]) << 1);
            h = px_util::fnv1a64(h, &[bits]);
        }
        h
    }

    /// Packs the edge bitmap into bytes — 2 bits per instruction (bit
    /// `2·pc` = taken seen, bit `2·pc + 1` = not-taken seen), low bits
    /// first: `PathCoverage`'s layout over the flattened pairs. The
    /// campaign journal stores coverage shards in this form so a resumed
    /// run can rebuild and [`Coverage::merge`] them exactly;
    /// [`Coverage::unpack_bits`] is the inverse.
    #[must_use]
    pub fn pack_bits(&self) -> Vec<u8> {
        bits::pack(self.edges.as_flattened())
    }

    /// Rebuilds a tracker from [`Coverage::pack_bits`] output.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::CoverageSizeMismatch`] when `bytes` is not the
    /// packed size for `code_len` (a corrupt or foreign shard), and
    /// [`SimError::NonZeroPadding`] when the last byte sets bits past
    /// `code_len`: only the canonical encoding decodes, so
    /// `pack_bits(unpack_bits(b)) == b`.
    pub fn unpack_bits(code_len: usize, bytes: &[u8]) -> Result<Coverage, SimError> {
        let mut cov = Coverage::new(code_len);
        bits::unpack(cov.edges.as_flattened_mut(), 2, bytes)?;
        Ok(cov)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use px_isa::asm::assemble;

    fn two_branch_program() -> Program {
        assemble(
            r"
            .code
            main:
                beq r1, zero, a
            a:  bne r2, zero, b
            b:  exit
            ",
        )
        .unwrap()
    }

    #[test]
    fn coverage_counts_edges() {
        let p = two_branch_program();
        assert_eq!(p.static_edge_count(), 4);
        let mut c = Coverage::for_program(&p);
        assert_eq!(c.branch_coverage(&p), 0.0);
        c.record(0, Edge::Taken);
        assert!((c.branch_coverage(&p) - 0.25).abs() < 1e-12);
        c.record(0, Edge::Taken); // idempotent
        assert!((c.branch_coverage(&p) - 0.25).abs() < 1e-12);
        c.record(1, Edge::NotTaken);
        assert_eq!(c.covered_edges(&p), 2);
        assert!(c.covered(0, Edge::Taken));
        assert!(!c.covered(0, Edge::NotTaken));
    }

    #[test]
    fn merge_and_newly_covered() {
        let p = two_branch_program();
        let mut taken = Coverage::for_program(&p);
        taken.record(0, Edge::Taken);
        let mut nt = Coverage::for_program(&p);
        nt.record(0, Edge::Taken);
        nt.record(0, Edge::NotTaken);
        nt.record(1, Edge::Taken);
        let mut merged = taken.clone();
        merged.merge(&nt).unwrap();
        assert_eq!(merged.covered_edges(&p), 3);
        // The NT tracker's two edges beyond the taken path are the gain.
        assert_eq!(merged.covered_edges(&p) - taken.covered_edges(&p), 2);
        assert!(merged.covered(0, Edge::NotTaken) && merged.covered(1, Edge::Taken));
    }

    #[test]
    fn merge_size_mismatch_is_a_typed_error() {
        let mut a = Coverage::new(3);
        let b = Coverage::new(5);
        let before = a.clone();
        assert_eq!(
            a.merge(&b),
            Err(crate::fault::SimError::CoverageSizeMismatch { left: 3, right: 5 })
        );
        assert_eq!(a, before, "failed merge must not mutate");
    }

    #[test]
    fn feasible_coverage_uses_the_honest_denominator() {
        let p = two_branch_program();
        // Static analysis says branch 0's taken edge is infeasible:
        // 3 feasible edges out of 4 static ones.
        let feasible = vec![[false, true], [true, true], [false, false]];
        let mut c = Coverage::for_program(&p);
        c.record(0, Edge::NotTaken);
        c.record(1, Edge::Taken);
        // Plain coverage: 2/4. Feasible coverage: 2/3.
        assert!((c.branch_coverage(&p) - 0.5).abs() < 1e-12);
        assert!((c.branch_coverage_feasible(&p, &feasible) - 2.0 / 3.0).abs() < 1e-12);
        // An NT-forced cover of the infeasible edge raises the plain
        // numerator but not the feasible one.
        c.record(0, Edge::Taken);
        assert_eq!(c.covered_edges(&p), 3);
        assert_eq!(c.covered_feasible_edges(&p, &feasible), 2);
        assert!((c.branch_coverage_feasible(&p, &feasible) - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn feasibility_marks_uncoverable_edges_in_the_listing() {
        let p = two_branch_program();
        let taken = Coverage::for_program(&p);
        let mut total = taken.clone();
        total.record(0, Edge::Taken);
        let feasible = vec![[true, false], [false, true], [false, false]];
        let listing = Coverage::annotated_listing_feasible(&p, &taken, &total, Some(&feasible));
        let lines: Vec<&str> = listing.lines().collect();
        // Branch 0: taken edge covered by NT, not-taken uncovered+infeasible.
        assert!(lines[0].starts_with("[N-]"), "got {}", lines[0]);
        // Branch 1: taken uncovered+infeasible, not-taken uncovered+feasible.
        assert!(lines[1].starts_with("[-.]"), "got {}", lines[1]);
    }

    #[test]
    fn annotated_listing_marks_edges() {
        let p = two_branch_program();
        let mut taken = Coverage::for_program(&p);
        taken.record(0, Edge::Taken);
        let mut total = taken.clone();
        total.record(0, Edge::NotTaken);
        total.record(1, Edge::Taken);
        let listing = Coverage::annotated_listing(&p, &taken, &total);
        let lines: Vec<&str> = listing.lines().collect();
        assert!(
            lines[0].starts_with("[TN]"),
            "taken + NT edges: {}",
            lines[0]
        );
        assert!(lines[1].starts_with("[N.]"), "NT + uncovered: {}", lines[1]);
        assert!(
            lines[2].starts_with("    "),
            "non-branch unmarked: {}",
            lines[2]
        );
    }

    #[test]
    fn pack_bits_round_trips_and_rejects_bad_sizes() {
        for code_len in [0usize, 1, 3, 4, 5, 9, 257] {
            let mut c = Coverage::new(code_len);
            // A deterministic sprinkle across both slots.
            for pc in 0..code_len {
                if pc % 3 == 0 {
                    c.record(pc as u32, Edge::Taken);
                }
                if pc % 5 == 0 {
                    c.record(pc as u32, Edge::NotTaken);
                }
            }
            let packed = c.pack_bits();
            assert_eq!(packed.len(), code_len.div_ceil(4));
            let back = Coverage::unpack_bits(code_len, &packed).unwrap();
            assert_eq!(back, c, "code_len {code_len} round-trips");
        }
        assert!(matches!(
            Coverage::unpack_bits(8, &[0u8; 3]),
            Err(crate::fault::SimError::CoverageSizeMismatch { .. })
        ));
    }

    #[test]
    fn unpack_is_canonical_every_byte_string_round_trips_or_fails() {
        for code_len in [1usize, 2, 3, 4, 5, 7] {
            let len = code_len.div_ceil(4);
            for last in 0..=u8::MAX {
                let mut bytes = vec![0b1001_0110; len];
                bytes[len - 1] = last;
                match Coverage::unpack_bits(code_len, &bytes) {
                    Ok(c) => assert_eq!(c.pack_bits(), bytes, "code_len {code_len}"),
                    Err(e) => assert_eq!(e, crate::fault::SimError::NonZeroPadding { last }),
                }
            }
        }
    }

    #[test]
    fn packed_shards_merge_like_live_trackers() {
        let p = two_branch_program();
        let mut a = Coverage::for_program(&p);
        a.record(0, Edge::Taken);
        let mut b = Coverage::for_program(&p);
        b.record(1, Edge::NotTaken);
        // Ship both through the packed form, then merge the shards.
        let mut merged = Coverage::unpack_bits(p.code.len(), &a.pack_bits()).unwrap();
        merged
            .merge(&Coverage::unpack_bits(p.code.len(), &b.pack_bits()).unwrap())
            .unwrap();
        let mut live = a.clone();
        live.merge(&b).unwrap();
        assert_eq!(merged, live);
    }

    #[test]
    fn no_branch_program_is_fully_covered() {
        let p = assemble(".code\nmain: exit\n").unwrap();
        let c = Coverage::for_program(&p);
        assert_eq!(c.branch_coverage(&p), 1.0);
    }
}
