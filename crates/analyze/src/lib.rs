//! # px-analyze — static CFG analysis of PXVM-32 programs
//!
//! PathExpander's coverage and safety metrics are *dynamic*: branch-edge
//! coverage divides by every static edge (paper §2, §6.3), and the
//! Unsafe-Latency of an NT-path (§3.2, Figure 3) is only known after the
//! path has run into its terminating unsafe event. This crate computes the
//! static counterparts once, ahead of execution:
//!
//! * [`cfg::Cfg`] — an instruction-level control-flow graph with basic
//!   blocks, call/ret edges under the return discipline, fallthrough-off-end
//!   exit edges, reachability and dominators;
//! * [`constprop::ConstProp`] — sparse conditional constant propagation
//!   marking statically-infeasible branch edges and unreachable code;
//! * [`safety::Safety`] — per-instruction/per-edge shortest and must-reach
//!   distances to unsafe events (syscalls, watch ops, monitor probes), the
//!   static mirror of §3.2's Unsafe-Latency;
//! * [`lint::lint`] — a guest-program diagnostic pass built on the above.
//!
//! [`Analysis::of`] bundles the pipeline. Consumers:
//!
//! * `pxc analyze` renders the diagnostics (human and `--json`);
//! * `Coverage::branch_coverage_feasible` (px-mach) divides covered edges
//!   by the *feasible* denominator from [`Analysis::feasible_edges`];
//! * `PxConfig::static_nt_filter` (px-core) vetoes NT-path spawns whose
//!   must-reach unsafe distance is below a threshold, via
//!   [`Analysis::veto_mask`].
//!
//! The feasibility mask is sound for **committed (taken-path) execution
//! only**: an NT-path spawn forcibly drives execution down the edge the
//! branch condition just refuted, so PathExpander can — by design — cover
//! statically-infeasible edges. That is exactly why the feasible-coverage
//! metric intersects its numerator with the feasible set instead of
//! asserting the two never meet.

pub mod cfg;
pub mod constprop;
pub mod lint;
pub mod paths;
pub mod safety;

pub use cfg::{Block, Cfg, EXIT};
pub use constprop::{ConstProp, RegState, Value};
pub use lint::{lint, Diagnostic, LintKind};
pub use paths::{CoverPick, PathCover, PathLimits, PrimePath, PrimePathSet};
pub use safety::Safety;

use px_isa::{Edge, Instruction, Program};

/// The full static-analysis pipeline over one program: CFG construction,
/// constant propagation, NT-safety classification and lint, computed once
/// and queried many times.
#[derive(Debug, Clone)]
pub struct Analysis {
    cfg: Cfg,
    constprop: ConstProp,
    safety: Safety,
    diagnostics: Vec<Diagnostic>,
    feasible: Vec<[bool; 2]>,
    feasible_edge_count: u32,
}

impl Analysis {
    /// Analyzes `program`.
    #[must_use]
    pub fn of(program: &Program) -> Analysis {
        let cfg = Cfg::build(program);
        let constprop = ConstProp::run(program, &cfg);
        let safety = Safety::of(program, &cfg, &constprop);
        let diagnostics = lint(program, &cfg, &constprop);
        let feasible = constprop.feasible_edges();
        let feasible_edge_count = feasible
            .iter()
            .map(|e| u32::from(e[0]) + u32::from(e[1]))
            .sum();
        Analysis {
            cfg,
            constprop,
            safety,
            diagnostics,
            feasible,
            feasible_edge_count,
        }
    }

    /// The structural control-flow graph.
    #[must_use]
    pub fn cfg(&self) -> &Cfg {
        &self.cfg
    }

    /// The constant-propagation result.
    #[must_use]
    pub fn constprop(&self) -> &ConstProp {
        &self.constprop
    }

    /// The NT-safety classification.
    #[must_use]
    pub fn safety(&self) -> &Safety {
        &self.safety
    }

    /// Lint findings, sorted by `(pc, kind)`.
    #[must_use]
    pub fn diagnostics(&self) -> &[Diagnostic] {
        &self.diagnostics
    }

    /// Per-instruction `[taken, not_taken]` feasibility, aligned with the
    /// dynamic `Coverage` tracker's slot layout. Non-branches are
    /// `[false, false]`.
    #[must_use]
    pub fn feasible_edges(&self) -> &[[bool; 2]] {
        &self.feasible
    }

    /// Number of feasible branch edges — the honest coverage denominator
    /// (`Program::static_edge_count` counts all of them, feasible or not).
    #[must_use]
    pub fn feasible_edge_count(&self) -> u32 {
        self.feasible_edge_count
    }

    /// Whether the given edge of the branch at `pc` is statically feasible.
    #[must_use]
    pub fn edge_feasible(&self, pc: u32, edge: Edge) -> bool {
        self.constprop.edge_feasible(pc, edge)
    }

    /// Shortest static distance from the given branch edge to an unsafe
    /// event — the lower bound on an NT-path's Unsafe-Latency (§3.2).
    #[must_use]
    pub fn edge_unsafe_distance(&self, program: &Program, pc: u32, edge: Edge) -> Option<u32> {
        self.safety.edge_unsafe_distance(program, pc, edge)
    }

    /// Spawn-veto mask for `PxConfig::static_nt_filter` with threshold `k`:
    /// `mask[pc][edge.slot()]` is `true` when an NT-path entered over that
    /// edge is guaranteed to hit an unsafe event within fewer than `k`
    /// instructions.
    #[must_use]
    pub fn veto_mask(&self, program: &Program, k: u32) -> Vec<[bool; 2]> {
        self.safety.veto_mask(program, k)
    }

    /// Enumerates the program's prime paths under the default
    /// [`PathLimits`]. Not cached on the `Analysis` — only the coverage
    /// surfaces pay for enumeration; spawn-veto users don't.
    #[must_use]
    pub fn prime_paths(&self, program: &Program) -> PrimePathSet {
        PrimePathSet::enumerate(program, self)
    }

    /// Count of branches whose outcome constant propagation fully decided
    /// (exactly one feasible edge).
    #[must_use]
    pub fn decided_branch_count(&self, program: &Program) -> u32 {
        program
            .code
            .iter()
            .enumerate()
            .filter(|&(pc, insn)| {
                matches!(insn, Instruction::Branch { .. })
                    && self.constprop.reachable(pc as u32)
                    && self
                        .feasible
                        .get(pc)
                        .is_some_and(|e| u32::from(e[0]) + u32::from(e[1]) == 1)
            })
            .count() as u32
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use px_isa::asm::assemble;

    #[test]
    fn facade_agrees_with_components() {
        let p = assemble(
            r"
            .code
            main:
                li r2, 1              ; 0
                beq r2, zero, dead    ; 1: infeasible taken edge
                readi                 ; 2
                beq r1, zero, out     ; 3: both edges feasible
                nop                   ; 4
            out:
                exit                  ; 5
            dead:
                exit                  ; 6
            ",
        )
        .unwrap();
        let a = Analysis::of(&p);
        // Four static edges (two branches), three feasible.
        assert_eq!(p.static_edge_count(), 4);
        assert_eq!(a.feasible_edge_count(), 3);
        assert_eq!(a.decided_branch_count(&p), 1);
        assert!(!a.edge_feasible(1, Edge::Taken));
        assert!(a.edge_feasible(1, Edge::NotTaken));
        // The dead arm generates an unreachable-code diagnostic.
        assert!(a
            .diagnostics()
            .iter()
            .any(|d| d.kind == LintKind::UnreachableCode && d.pc == 6));
        // Safety: the not-taken edge of branch 3 runs one nop then exits.
        assert_eq!(a.edge_unsafe_distance(&p, 3, Edge::NotTaken), Some(1));
        // Veto mask with a large threshold vetoes everything that must
        // terminate; the infeasible branch's edges still get classified.
        let mask = a.veto_mask(&p, 1000);
        assert!(mask[3][Edge::NotTaken.slot()]);
    }
}
