//! Reachability-aware sparse constant propagation.
//!
//! A worklist pass over the instruction-level CFG that tracks a three-point
//! constant lattice per register (`Top` = not yet reached, `Const(v)`,
//! `Bottom` = any value) and marks which CFG edges are *executable*. Branch
//! edges whose condition is decidable from the lattice (both operands
//! constant, or the two operands are the same register) are left
//! non-executable on the impossible side — those are the
//! **statically-infeasible** edges that the honest coverage denominator
//! excludes.
//!
//! Soundness is with respect to *committed* (taken-path) execution:
//!
//! * the entry register file is architecturally defined — every register is
//!   zero except `sp`/`fp`, which depend on the machine's memory size and
//!   start at `Bottom`;
//! * loads and input system calls produce `Bottom`;
//! * the predicated variable-fixing instructions are NOPs on the taken path
//!   (the NT-entry predicate is never set there), so they do not transfer;
//! * constant null-guard violations and constant division by zero crash, so
//!   their fall-through successors are not executable;
//! * writes to `zero` are discarded, exactly as the register file does.
//!
//! NT-paths deliberately violate this model — a spawn *forces* the edge the
//! condition just refuted — which is why PathExpander can cover infeasible
//! edges and why the feasible-coverage metric intersects the numerator with
//! the feasible set.

use px_isa::{Edge, Instruction, Program, Reg, SyscallCode, DATA_BASE};

use crate::cfg::{Cfg, EXIT};

/// One register's lattice value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Value {
    /// Unreached / no information yet (the lattice top).
    Top,
    /// Always this constant when the instruction executes.
    Const(i32),
    /// May be anything (the lattice bottom).
    Bottom,
}

impl Value {
    /// Lattice meet.
    #[must_use]
    pub fn meet(self, other: Value) -> Value {
        match (self, other) {
            (Value::Top, x) | (x, Value::Top) => x,
            (Value::Const(a), Value::Const(b)) if a == b => Value::Const(a),
            _ => Value::Bottom,
        }
    }

    /// The constant, if this value is one.
    #[must_use]
    pub fn as_const(self) -> Option<i32> {
        match self {
            Value::Const(v) => Some(v),
            _ => None,
        }
    }
}

/// The register file lattice at one program point.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RegState([Value; Reg::COUNT]);

impl RegState {
    /// The architectural entry state: all registers zero, `sp`/`fp`
    /// machine-dependent.
    fn at_entry() -> RegState {
        let mut s = RegState([Value::Const(0); Reg::COUNT]);
        s.0[Reg::SP.index()] = Value::Bottom;
        s.0[Reg::FP.index()] = Value::Bottom;
        s
    }

    /// Reads a register (`zero` always reads `Const(0)`).
    #[must_use]
    pub fn get(&self, r: Reg) -> Value {
        if r.is_zero() {
            Value::Const(0)
        } else {
            self.0[r.index()]
        }
    }

    fn set(&mut self, r: Reg, v: Value) {
        if !r.is_zero() {
            self.0[r.index()] = v;
        }
    }

    fn meet_with(&mut self, other: &RegState) -> bool {
        let mut changed = false;
        for i in 0..Reg::COUNT {
            let m = self.0[i].meet(other.0[i]);
            if m != self.0[i] {
                self.0[i] = m;
                changed = true;
            }
        }
        changed
    }
}

/// Result of the constant-propagation pass.
#[derive(Debug, Clone)]
pub struct ConstProp {
    /// In-state (lattice before execution) per reachable instruction;
    /// `None` for instructions the pass proved unreachable.
    states: Vec<Option<RegState>>,
    /// Per-branch executability of the `[taken, not_taken]` edges. Both
    /// `false` for non-branches and unreachable branches.
    branch_executable: Vec<[bool; 2]>,
}

/// Evaluates a branch condition whose outcome is statically decidable:
/// both operands constant, or literally the same register (`x ? x`).
fn decide_branch(cond: px_isa::BranchCond, rs1: Reg, rs2: Reg, a: Value, b: Value) -> Option<bool> {
    if let (Some(a), Some(b)) = (a.as_const(), b.as_const()) {
        return Some(cond.eval(a, b));
    }
    if rs1 == rs2 {
        // cond(x, x) is the same for every x.
        return Some(cond.eval(0, 0));
    }
    None
}

/// Whether a constant address hits the architectural null guard
/// (`[0, DATA_BASE)` always crashes, independent of machine configuration).
fn null_guarded(addr: u32) -> bool {
    addr < DATA_BASE
}

impl ConstProp {
    /// Runs the pass over `program` using the structural `cfg`.
    #[must_use]
    pub fn run(program: &Program, cfg: &Cfg) -> ConstProp {
        let n = program.code.len();
        let mut states: Vec<Option<RegState>> = vec![None; n];
        let mut branch_executable = vec![[false; 2]; n];
        if n == 0 || !program.valid_pc(program.entry) {
            return ConstProp {
                states,
                branch_executable,
            };
        }

        let mut work: Vec<u32> = Vec::new();
        states[program.entry as usize] = Some(RegState::at_entry());
        work.push(program.entry);

        // Merge `out` into `to`'s in-state, queueing `to` on change.
        let flow =
            |states: &mut Vec<Option<RegState>>, work: &mut Vec<u32>, to: u32, out: &RegState| {
                if to == EXIT {
                    return;
                }
                match &mut states[to as usize] {
                    Some(s) => {
                        if s.meet_with(out) {
                            work.push(to);
                        }
                    }
                    None => {
                        states[to as usize] = Some(*out);
                        work.push(to);
                    }
                }
            };

        while let Some(pc) = work.pop() {
            let Some(insn) = program.fetch(pc) else {
                continue;
            };
            let in_state = states[pc as usize].expect("queued pc has a state");
            let mut out = in_state;
            // Successor set: by default the structural successors; refined
            // below for decidable branches, constant crashes, and rets.
            match insn {
                Instruction::Alu { op, rd, rs1, rs2 } => {
                    let v = match (in_state.get(rs1), in_state.get(rs2)) {
                        (Value::Const(a), Value::Const(b)) => match op.eval(a, b) {
                            Some(v) => Value::Const(v),
                            // Constant division by zero: the instruction
                            // always crashes, nothing flows out.
                            None => continue,
                        },
                        _ => Value::Bottom,
                    };
                    out.set(rd, v);
                    flow(&mut states, &mut work, cfg.succs(pc)[0], &out);
                }
                Instruction::AluI { op, rd, rs1, imm } => {
                    let v = match in_state.get(rs1) {
                        Value::Const(a) => match op.eval(a, imm) {
                            Some(v) => Value::Const(v),
                            None => continue,
                        },
                        _ => Value::Bottom,
                    };
                    out.set(rd, v);
                    flow(&mut states, &mut work, cfg.succs(pc)[0], &out);
                }
                Instruction::Load {
                    rd, base, offset, ..
                } => {
                    if let Value::Const(b) = in_state.get(base) {
                        let addr = (b as u32).wrapping_add(offset as u32);
                        if null_guarded(addr) {
                            // Always a null-deref crash.
                            continue;
                        }
                    }
                    out.set(rd, Value::Bottom);
                    flow(&mut states, &mut work, cfg.succs(pc)[0], &out);
                }
                Instruction::Store { base, offset, .. } => {
                    if let Value::Const(b) = in_state.get(base) {
                        let addr = (b as u32).wrapping_add(offset as u32);
                        if null_guarded(addr) {
                            continue;
                        }
                    }
                    flow(&mut states, &mut work, cfg.succs(pc)[0], &out);
                }
                Instruction::Branch { cond, rs1, rs2, .. } => {
                    let a = in_state.get(rs1);
                    let b = in_state.get(rs2);
                    let succs = cfg.succs(pc);
                    match decide_branch(cond, rs1, rs2, a, b) {
                        Some(taken) => {
                            let e = Edge::from_taken(taken);
                            branch_executable[pc as usize][e.slot()] = true;
                            // A decidedly-taken branch to an invalid target
                            // crashes; the not-taken edge executes even when
                            // `pc + 1` is off the end (the crash comes on
                            // the *next* fetch).
                            flow(&mut states, &mut work, succs[e.slot()], &out);
                        }
                        None => {
                            for e in Edge::ALL {
                                branch_executable[pc as usize][e.slot()] = true;
                                flow(&mut states, &mut work, succs[e.slot()], &out);
                            }
                        }
                    }
                }
                Instruction::Jump { .. } => {
                    flow(&mut states, &mut work, cfg.succs(pc)[0], &out);
                }
                Instruction::Call { .. } => {
                    out.set(Reg::RA, Value::Const(pc as i32 + 1));
                    flow(&mut states, &mut work, cfg.succs(pc)[0], &out);
                }
                Instruction::Ret => {
                    match in_state.get(Reg::RA) {
                        Value::Const(t) => {
                            let t = t as u32;
                            if program.valid_pc(t) {
                                flow(&mut states, &mut work, t, &out);
                            }
                            // Invalid constant target: always a BadPc crash.
                        }
                        _ => {
                            for &s in cfg.succs(pc) {
                                flow(&mut states, &mut work, s, &out);
                            }
                        }
                    }
                }
                Instruction::Syscall { code } => match code {
                    SyscallCode::Exit => {}
                    SyscallCode::GetChar
                    | SyscallCode::ReadInt
                    | SyscallCode::Rand
                    | SyscallCode::Time => {
                        out.set(Reg::RV, Value::Bottom);
                        flow(&mut states, &mut work, cfg.succs(pc)[0], &out);
                    }
                    SyscallCode::PutChar | SyscallCode::PrintInt => {
                        flow(&mut states, &mut work, cfg.succs(pc)[0], &out);
                    }
                },
                // NOPs on the taken path: the NT-entry predicate is never
                // set outside an NT-path, so the fixing instructions do not
                // change committed state.
                Instruction::PMovI { .. }
                | Instruction::PMov { .. }
                | Instruction::PAluI { .. }
                | Instruction::PStore { .. }
                | Instruction::Check { .. }
                | Instruction::SetWatch { .. }
                | Instruction::ClearWatch { .. }
                | Instruction::Nop => {
                    flow(&mut states, &mut work, cfg.succs(pc)[0], &out);
                }
            }
        }

        ConstProp {
            states,
            branch_executable,
        }
    }

    /// The in-state of the instruction at `pc`; `None` if the pass proved
    /// it unreachable.
    #[must_use]
    pub fn state(&self, pc: u32) -> Option<&RegState> {
        self.states.get(pc as usize).and_then(Option::as_ref)
    }

    /// Whether the pass reached the instruction at `pc`.
    #[must_use]
    pub fn reachable(&self, pc: u32) -> bool {
        self.state(pc).is_some()
    }

    /// Whether an edge of the branch at `pc` is executable (feasible).
    /// Always `false` for non-branches and unreachable branches.
    #[must_use]
    pub fn edge_feasible(&self, pc: u32, edge: Edge) -> bool {
        self.branch_executable
            .get(pc as usize)
            .is_some_and(|e| e[edge.slot()])
    }

    /// Per-instruction `[taken, not_taken]` feasibility mask, aligned with
    /// the dynamic coverage tracker's layout.
    #[must_use]
    pub fn feasible_edges(&self) -> Vec<[bool; 2]> {
        self.branch_executable.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use px_isa::asm::assemble;

    fn analyze(src: &str) -> (Program, Cfg, ConstProp) {
        let p = assemble(src).unwrap();
        let c = Cfg::build(&p);
        let cp = ConstProp::run(&p, &c);
        (p, c, cp)
    }

    #[test]
    fn constant_branch_has_one_feasible_edge() {
        let (_, _, cp) = analyze(
            r"
            .code
            main:
                li r1, 1              ; 0
                beq r1, zero, dead    ; 1: never taken
                jmp out               ; 2
            dead:
                nop                   ; 3
            out:
                exit                  ; 4
            ",
        );
        assert!(!cp.edge_feasible(1, Edge::Taken));
        assert!(cp.edge_feasible(1, Edge::NotTaken));
        assert!(!cp.reachable(3), "the dead arm is unreachable");
        assert!(cp.reachable(4));
    }

    #[test]
    fn same_register_comparisons_decide_without_constants() {
        let (_, _, cp) = analyze(
            r"
            .code
            main:
                readi                 ; 0: r1 = input (Bottom)
                beq r1, r1, t         ; 1: always taken
            t:
                bne r1, r1, u         ; 2: never taken
                exit                  ; 3
            u:
                exit                  ; 4
            ",
        );
        assert!(cp.edge_feasible(1, Edge::Taken));
        assert!(!cp.edge_feasible(1, Edge::NotTaken));
        assert!(!cp.edge_feasible(2, Edge::Taken));
        assert!(cp.edge_feasible(2, Edge::NotTaken));
    }

    #[test]
    fn input_dependent_branches_keep_both_edges() {
        let (_, _, cp) = analyze(
            r"
            .code
            main:
                readi                 ; 0
                beq r1, zero, z       ; 1
                exit                  ; 2
            z:
                exit                  ; 3
            ",
        );
        assert!(cp.edge_feasible(1, Edge::Taken));
        assert!(cp.edge_feasible(1, Edge::NotTaken));
    }

    #[test]
    fn join_meets_to_bottom() {
        let (_, _, cp) = analyze(
            r"
            .code
            main:
                readi                 ; 0
                beq r1, zero, b       ; 1
                li r2, 1              ; 2
                jmp j                 ; 3
            b:
                li r2, 2              ; 4
            j:
                beq r2, zero, dead    ; 5: r2 is 1 or 2, never 0... but the
                exit                  ; 6    lattice only knows Bottom
            dead:
                exit                  ; 7
            ",
        );
        // r2 meets 1 ∧ 2 = Bottom at the join: the pass cannot refute the
        // edge (a range analysis could; the constant lattice stays sound by
        // keeping it feasible).
        assert!(cp.edge_feasible(5, Edge::Taken));
        assert!(cp.edge_feasible(5, Edge::NotTaken));
        assert_eq!(cp.state(5).unwrap().get(px_isa::Reg::RV), Value::Bottom);
    }

    #[test]
    fn constant_null_deref_blocks_flow() {
        let (_, _, cp) = analyze(
            r"
            .code
            main:
                lw r1, 0(zero)        ; 0: constant null deref, always crashes
                exit                  ; 1
            ",
        );
        assert!(cp.reachable(0));
        assert!(!cp.reachable(1), "nothing flows past a certain crash");
    }

    #[test]
    fn constant_division_by_zero_blocks_flow() {
        let (_, _, cp) = analyze(
            r"
            .code
            main:
                li r1, 4              ; 0
                divi r2, r1, 0        ; 1: always crashes
                exit                  ; 2
            ",
        );
        assert!(!cp.reachable(2));
    }

    #[test]
    fn call_sets_constant_ra_and_ret_returns() {
        let (_, _, cp) = analyze(
            r"
            .code
            main:
                call f                ; 0
                li r2, 0              ; 1
                exit                  ; 2
            f:
                li r1, 9              ; 3
                ret                   ; 4
            ",
        );
        assert!(cp.reachable(3));
        assert_eq!(cp.state(4).unwrap().get(Reg::RA), Value::Const(1));
        assert!(cp.reachable(1), "ret flows back to the return site");
    }

    #[test]
    fn loop_counter_meets_to_bottom_and_loop_edges_stay_feasible() {
        let (_, _, cp) = analyze(
            r"
            .code
            main:
                li r4, 10             ; 0
            loop:
                subi r4, r4, 1        ; 1
                bgt r4, zero, loop    ; 2
                exit                  ; 3
            ",
        );
        assert!(cp.edge_feasible(2, Edge::Taken));
        assert!(cp.edge_feasible(2, Edge::NotTaken));
    }
}
