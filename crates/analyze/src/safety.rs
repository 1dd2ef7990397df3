//! Static NT-safety classification.
//!
//! The paper's §3.2 *Unsafe-Latency* metric measures, dynamically, how many
//! instructions an NT-path executes before it hits an unsafe event (a system
//! call or a monitor-visible operation) and has to terminate. This module
//! computes the same quantity statically: for every instruction, the length
//! of the *shortest* CFG path from it to an unsafe instruction, and from
//! that a per-edge bound on how long an NT-path entered over that edge can
//! possibly survive.
//!
//! Unsafe instructions are:
//!
//! * every `Syscall` — NT-paths must not make their effects visible (§3.2;
//!   the engines either terminate or sandbox on these);
//! * `SetWatch` / `ClearWatch` — they mutate the bug monitor's watch table,
//!   which is architectural state shared with the taken path;
//! * `Check` probes — they report to the monitor when they fire. A check
//!   whose condition register is a *constant non-zero* value at every
//!   reaching path can never fire, so it is excluded (and separately
//!   flagged by the lint pass as a dead probe).
//!
//! Distances are shortest paths, i.e. an *optimistic lower bound* on the
//! dynamic Unsafe-Latency: if `edge_unsafe_distance` says 3, the NT-path
//! might still survive longer (by branching away), but if every outgoing
//! path funnels into an unsafe event the bound is tight. The spawn veto in
//! the engines (`PxConfig::static_nt_filter`) uses the *must* variant —
//! [`Safety::edge_unsafe_ceiling`] — which is `Some(d)` only when **every**
//! path from the edge reaches an unsafe event within `d` instructions, so a
//! veto never suppresses an NT-path that could have run usefully long.

use px_isa::{Edge, Instruction, Program};

use crate::cfg::{Cfg, EXIT};
use crate::constprop::ConstProp;

/// Per-instruction and per-edge unsafe-distance classification.
#[derive(Debug, Clone)]
pub struct Safety {
    unsafe_here: Vec<bool>,
    /// Shortest distance (in instructions about to execute, self included)
    /// from each pc to an unsafe instruction; `None` = no unsafe event
    /// reachable.
    min_dist: Vec<Option<u32>>,
    /// Longest-path bound: `Some(d)` iff *every* CFG path from this pc
    /// reaches an unsafe instruction within `d` instructions. `None` when
    /// some path escapes to exit or loops unsafely-free.
    max_dist: Vec<Option<u32>>,
}

/// Whether `insn` is an unsafe event for NT-paths. `check_can_fire` lets
/// the caller exclude probes proven dead by constant propagation.
fn is_unsafe(insn: Instruction, check_can_fire: bool) -> bool {
    match insn {
        Instruction::Syscall { .. }
        | Instruction::SetWatch { .. }
        | Instruction::ClearWatch { .. } => true,
        Instruction::Check { .. } => check_can_fire,
        _ => false,
    }
}

impl Safety {
    /// Classifies `program` given its CFG and constant-propagation result.
    #[must_use]
    pub fn of(program: &Program, cfg: &Cfg, cp: &ConstProp) -> Safety {
        let n = program.code.len();
        let mut unsafe_here = vec![false; n];
        for (pc, &insn) in program.code.iter().enumerate() {
            let can_fire = if let Instruction::Check { cond, .. } = insn {
                // Fires when the condition register is zero; a constant
                // non-zero condition at every reaching path is a dead probe.
                match cp.state(pc as u32).map(|s| s.get(cond).as_const()) {
                    // Constant condition: fires exactly when it is zero.
                    Some(Some(c)) => c == 0,
                    // Unknown condition, or unreachable per constprop (an
                    // NT-path may still get there): conservatively can fire.
                    Some(None) | None => true,
                }
            } else {
                true
            };
            unsafe_here[pc] = is_unsafe(insn, can_fire);
        }

        // -- Shortest distance: multi-source BFS over reversed edges. ------
        let mut min_dist: Vec<Option<u32>> = vec![None; n];
        let mut queue = std::collections::VecDeque::new();
        for pc in 0..n {
            if unsafe_here[pc] {
                min_dist[pc] = Some(0);
                queue.push_back(pc as u32);
            }
        }
        while let Some(pc) = queue.pop_front() {
            let d = min_dist[pc as usize].expect("queued pc has a distance");
            for &p in cfg.preds(pc) {
                if min_dist[p as usize].is_none() {
                    min_dist[p as usize] = Some(d + 1);
                    queue.push_back(p);
                }
            }
        }

        // -- Must-reach ceiling: greatest fixpoint over the reversed graph.
        //
        // ceiling(pc) = 0                      if pc is unsafe
        //             = 1 + max over succs     if every successor has a
        //                                      ceiling (EXIT never does)
        //             = None                   otherwise
        //
        // Iterate to a fixpoint from the optimistic assumption `None`; each
        // pc's value only ever moves from None to Some once all successors
        // resolve, and cycles without an unsafe member correctly stay None.
        let mut max_dist: Vec<Option<u32>> = vec![None; n];
        let mut changed = true;
        while changed {
            changed = false;
            for pc in (0..n).rev() {
                if max_dist[pc].is_some() {
                    continue;
                }
                let v = if unsafe_here[pc] {
                    Some(0)
                } else {
                    let succs = cfg.succs(pc as u32);
                    if succs.is_empty() || succs.contains(&EXIT) {
                        None
                    } else {
                        succs
                            .iter()
                            .map(|&s| max_dist[s as usize])
                            .try_fold(0u32, |acc, d| d.map(|d| acc.max(d + 1)))
                    }
                };
                if v.is_some() {
                    max_dist[pc] = v;
                    changed = true;
                }
            }
        }

        Safety {
            unsafe_here,
            min_dist,
            max_dist,
        }
    }

    /// Whether the instruction at `pc` is itself an unsafe event.
    #[must_use]
    pub fn is_unsafe_at(&self, pc: u32) -> bool {
        self.unsafe_here.get(pc as usize).copied().unwrap_or(false)
    }

    /// Shortest distance from `pc` (inclusive) to an unsafe instruction.
    #[must_use]
    pub fn unsafe_distance(&self, pc: u32) -> Option<u32> {
        self.min_dist.get(pc as usize).copied().flatten()
    }

    /// Shortest distance to an unsafe event for an NT-path entered over the
    /// given edge of the branch at `pc` — the static analogue of the
    /// paper's per-path Unsafe-Latency lower bound.
    #[must_use]
    pub fn edge_unsafe_distance(&self, program: &Program, pc: u32, edge: Edge) -> Option<u32> {
        self.edge_target(program, pc, edge)
            .and_then(|t| self.unsafe_distance(t))
    }

    /// Must-reach ceiling for an NT-path entered over the given edge:
    /// `Some(d)` iff **every** path from the edge target hits an unsafe
    /// event within `d` instructions. This is the sound basis for vetoing
    /// spawns — such a path cannot possibly survive longer than `d`.
    #[must_use]
    pub fn edge_unsafe_ceiling(&self, program: &Program, pc: u32, edge: Edge) -> Option<u32> {
        self.edge_target(program, pc, edge)
            .and_then(|t| self.max_dist.get(t as usize).copied().flatten())
    }

    fn edge_target(&self, program: &Program, pc: u32, edge: Edge) -> Option<u32> {
        let Some(Instruction::Branch { target, .. }) = program.fetch(pc) else {
            return None;
        };
        let t = match edge {
            Edge::Taken => target,
            Edge::NotTaken => pc + 1,
        };
        program.valid_pc(t).then_some(t)
    }

    /// Builds the per-edge spawn-veto mask for `PxConfig::static_nt_filter`
    /// with threshold `k`: entry `[pc][edge]` is `true` when an NT-path
    /// entered over that edge is *guaranteed* to terminate within fewer
    /// than `k` instructions (must-reach ceiling `< k`), so spawning it
    /// buys no coverage the taken path cannot.
    #[must_use]
    pub fn veto_mask(&self, program: &Program, k: u32) -> Vec<[bool; 2]> {
        let n = program.code.len();
        let mut mask = vec![[false; 2]; n];
        for pc in 0..n as u32 {
            if !matches!(program.fetch(pc), Some(Instruction::Branch { .. })) {
                continue;
            }
            for edge in Edge::ALL {
                mask[pc as usize][edge.slot()] = self
                    .edge_unsafe_ceiling(program, pc, edge)
                    .is_some_and(|d| d < k);
            }
        }
        mask
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use px_isa::asm::assemble;

    fn safety(src: &str) -> (Program, Safety) {
        let p = assemble(src).unwrap();
        let cfg = Cfg::build(&p);
        let cp = ConstProp::run(&p, &cfg);
        let s = Safety::of(&p, &cfg, &cp);
        (p, s)
    }

    #[test]
    fn syscalls_are_unsafe_at_distance_zero() {
        let (_, s) = safety(
            r"
            .code
            main:
                nop      ; 0
                nop      ; 1
                exit     ; 2
            ",
        );
        assert!(!s.is_unsafe_at(0));
        assert!(s.is_unsafe_at(2));
        assert_eq!(s.unsafe_distance(2), Some(0));
        assert_eq!(s.unsafe_distance(1), Some(1));
        assert_eq!(s.unsafe_distance(0), Some(2));
    }

    #[test]
    fn edge_distance_mirrors_unsafe_latency() {
        let (p, s) = safety(
            r"
            .code
            main:
                readi                 ; 0
                beq r1, zero, fast    ; 1
                nop                   ; 2
                nop                   ; 3
                exit                  ; 4
            fast:
                exit                  ; 5
            ",
        );
        // Taken edge lands directly on an exit syscall: distance 0.
        assert_eq!(s.edge_unsafe_distance(&p, 1, Edge::Taken), Some(0));
        // Not-taken edge runs two nops first.
        assert_eq!(s.edge_unsafe_distance(&p, 1, Edge::NotTaken), Some(2));
    }

    #[test]
    fn must_ceiling_is_none_when_a_path_escapes() {
        let (p, s) = safety(
            r"
            .code
            main:
                readi                 ; 0
                beq r1, zero, sys     ; 1
            spin:
                jmp spin              ; 2: unsafe-free infinite loop
            sys:
                exit                  ; 3
            ",
        );
        // The not-taken edge leads to the safe infinite loop: min distance
        // is None and so is the ceiling — never veto.
        assert_eq!(s.edge_unsafe_distance(&p, 1, Edge::NotTaken), None);
        assert_eq!(s.edge_unsafe_ceiling(&p, 1, Edge::NotTaken), None);
        // The taken edge must hit the syscall immediately.
        assert_eq!(s.edge_unsafe_ceiling(&p, 1, Edge::Taken), Some(0));
    }

    #[test]
    fn ceiling_takes_the_longest_path_unlike_min() {
        let (p, s) = safety(
            r"
            .code
            main:
                readi                 ; 0
                beq r1, zero, a       ; 1
                nop                   ; 2
                nop                   ; 3
                nop                   ; 4
            a:
                exit                  ; 5
            ",
        );
        // From pc 2 both paths reach the exit; min is 3, ceiling is 3 too
        // (straight line). From the branch's taken edge min = ceiling = 0.
        assert_eq!(s.edge_unsafe_distance(&p, 1, Edge::NotTaken), Some(3));
        assert_eq!(s.edge_unsafe_ceiling(&p, 1, Edge::NotTaken), Some(3));
        // veto_mask with k=4 vetoes both edges; with k=1 only the taken one.
        let m4 = s.veto_mask(&p, 4);
        assert_eq!(m4[1], [true, true]);
        let m1 = s.veto_mask(&p, 1);
        assert!(m1[1][Edge::Taken.slot()]);
        assert!(!m1[1][Edge::NotTaken.slot()]);
    }

    #[test]
    fn watch_ops_are_unsafe() {
        let (_, s) = safety(
            r"
            .code
            main:
                watch r2, r3, #4      ; 0
                nop                   ; 1
                unwatch #4            ; 2
                exit                  ; 3
            ",
        );
        assert!(s.is_unsafe_at(0));
        assert!(s.is_unsafe_at(2));
        assert_eq!(s.unsafe_distance(1), Some(1));
    }
}
