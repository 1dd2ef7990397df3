//! Control-flow graph construction over [`px_isa::Program`].
//!
//! The graph is built at *instruction* granularity — PXVM-32 targets are
//! absolute instruction indices, so every instruction is a node and basic
//! blocks are derived on top. Edges model architectural (taken-path)
//! execution:
//!
//! * `Branch` has two out-edges — the taken target and the fall-through
//!   (`pc + 1`). A fall-through off the end of the code is kept as an edge to
//!   the [`EXIT`] pseudo-node: the next fetch crashes with `BadPc`, which
//!   terminates the path without executing anything further.
//! * `Jump`/`Call` transfer to their target; an invalid target crashes the
//!   transfer itself, so it gets an [`EXIT`] edge.
//! * `Ret` follows `ra`. With call discipline (`ra` written only by `call`)
//!   its possible successors are the return sites of every `call`; if any
//!   other instruction can write `ra`, the set widens to every valid pc
//!   (a sound over-approximation for register-computed returns).
//! * `exit` system calls, and instructions whose only continuation would
//!   fall off the end of the code, edge to [`EXIT`].

use px_isa::{Instruction, Program, Reg};

/// Pseudo-node for "execution leaves the program": the `exit` system call,
/// a crash, or falling off the end of the code.
pub const EXIT: u32 = u32::MAX;

/// A basic block: a maximal straight-line run of instructions.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Block {
    /// First instruction index.
    pub start: u32,
    /// One past the last instruction index.
    pub end: u32,
}

impl Block {
    /// Instruction indices of the block.
    pub fn pcs(&self) -> impl Iterator<Item = u32> {
        self.start..self.end
    }
}

/// The instruction-level CFG plus its derived basic-block structure.
#[derive(Debug, Clone)]
pub struct Cfg {
    /// Per-instruction successors ([`EXIT`] for leaving the program).
    succs: Vec<Vec<u32>>,
    /// Per-instruction predecessors (inverse of `succs`, `EXIT` omitted).
    preds: Vec<Vec<u32>>,
    /// Basic blocks, ordered by start pc.
    blocks: Vec<Block>,
    /// Instruction index → block index.
    block_of: Vec<u32>,
    /// Whether any instruction other than `call` may write `ra` (breaks
    /// call discipline; `ret` successors widen to every valid pc).
    ra_discipline_broken: bool,
}

/// Destination register of an instruction, if it writes one.
pub(crate) fn written_reg(insn: &Instruction) -> Option<Reg> {
    match *insn {
        Instruction::Alu { rd, .. }
        | Instruction::AluI { rd, .. }
        | Instruction::Load { rd, .. }
        | Instruction::PMovI { rd, .. }
        | Instruction::PMov { rd, .. }
        | Instruction::PAluI { rd, .. } => Some(rd),
        // `call` writes `ra` by definition; syscalls write `rv`.
        Instruction::Call { .. } => None,
        Instruction::Syscall { .. } => Some(Reg::RV),
        _ => None,
    }
}

impl Cfg {
    /// Builds the CFG of `program`.
    #[must_use]
    pub fn build(program: &Program) -> Cfg {
        let n = program.code.len();
        let ra_discipline_broken = program.code.iter().any(|i| written_reg(i) == Some(Reg::RA));
        // Return sites of every call (the call-discipline `ret` targets).
        let ret_sites: Vec<u32> = program
            .code
            .iter()
            .enumerate()
            .filter(|(_, i)| matches!(i, Instruction::Call { .. }))
            .map(|(pc, _)| pc as u32 + 1)
            .filter(|&pc| program.valid_pc(pc))
            .collect();

        let mut succs: Vec<Vec<u32>> = Vec::with_capacity(n);
        for (pc, insn) in program.code.iter().enumerate() {
            let pc = pc as u32;
            let fall = || {
                if program.valid_pc(pc + 1) {
                    pc + 1
                } else {
                    EXIT
                }
            };
            let target_or_exit = |t: u32| if program.valid_pc(t) { t } else { EXIT };
            let s = match *insn {
                Instruction::Branch { target, .. } => {
                    // Slot order: taken first, then fall-through.
                    vec![target_or_exit(target), fall()]
                }
                Instruction::Jump { target } | Instruction::Call { target } => {
                    vec![target_or_exit(target)]
                }
                Instruction::Ret => {
                    if ra_discipline_broken {
                        (0..n as u32).collect()
                    } else if ret_sites.is_empty() {
                        vec![EXIT]
                    } else {
                        ret_sites.clone()
                    }
                }
                Instruction::Syscall {
                    code: px_isa::SyscallCode::Exit,
                } => vec![EXIT],
                _ => vec![fall()],
            };
            succs.push(s);
        }

        let mut preds: Vec<Vec<u32>> = vec![Vec::new(); n];
        for (pc, ss) in succs.iter().enumerate() {
            for &s in ss {
                if s != EXIT {
                    preds[s as usize].push(pc as u32);
                }
            }
        }

        // Leaders: entry, every transfer target, every instruction after a
        // control transfer, and every instruction with more than one
        // predecessor (a join point).
        let mut leader = vec![false; n];
        if !program.code.is_empty() {
            leader[program.entry.min(n as u32 - 1) as usize] = true;
            leader[0] = true;
        }
        for (pc, insn) in program.code.iter().enumerate() {
            if insn.is_control_transfer() && pc + 1 < n {
                leader[pc + 1] = true;
            }
            for &s in &succs[pc] {
                if s != EXIT && (insn.is_control_transfer() || preds[s as usize].len() > 1) {
                    leader[s as usize] = true;
                }
            }
        }

        let mut blocks = Vec::new();
        let mut block_of = vec![0u32; n];
        let mut start = 0usize;
        for pc in 0..n {
            if pc > start && leader[pc] {
                blocks.push(Block {
                    start: start as u32,
                    end: pc as u32,
                });
                start = pc;
            }
            block_of[pc] = blocks.len() as u32;
        }
        if n > 0 {
            blocks.push(Block {
                start: start as u32,
                end: n as u32,
            });
        }

        Cfg {
            succs,
            preds,
            blocks,
            block_of,
            ra_discipline_broken,
        }
    }

    /// Successors of the instruction at `pc` ([`EXIT`] = leaves the program).
    #[must_use]
    pub fn succs(&self, pc: u32) -> &[u32] {
        &self.succs[pc as usize]
    }

    /// Predecessors of the instruction at `pc`.
    #[must_use]
    pub fn preds(&self, pc: u32) -> &[u32] {
        &self.preds[pc as usize]
    }

    /// The basic blocks, ordered by start pc.
    #[must_use]
    pub fn blocks(&self) -> &[Block] {
        &self.blocks
    }

    /// Block index of the instruction at `pc`.
    #[must_use]
    pub fn block_of(&self, pc: u32) -> u32 {
        self.block_of[pc as usize]
    }

    /// Whether `ra` can be written by anything other than `call`.
    #[must_use]
    pub fn ra_discipline_broken(&self) -> bool {
        self.ra_discipline_broken
    }

    /// Instructions reachable from `entry` along structural edges.
    #[must_use]
    pub fn reachable(&self, entry: u32) -> Vec<bool> {
        let n = self.succs.len();
        let mut seen = vec![false; n];
        let mut work = Vec::new();
        if (entry as usize) < n {
            seen[entry as usize] = true;
            work.push(entry);
        }
        while let Some(pc) = work.pop() {
            for &s in &self.succs[pc as usize] {
                if s != EXIT && !seen[s as usize] {
                    seen[s as usize] = true;
                    work.push(s);
                }
            }
        }
        seen
    }

    /// Immediate dominators of the basic blocks, computed over the blocks
    /// reachable from the block containing `entry` (the iterative
    /// Cooper–Harvey–Kennedy algorithm). `idom[b] == None` for the entry
    /// block and for unreachable blocks; the entry block dominates itself.
    #[must_use]
    pub fn dominators(&self, entry: u32) -> Vec<Option<u32>> {
        let nb = self.blocks.len();
        if nb == 0 {
            return Vec::new();
        }
        if entry as usize >= self.block_of.len() {
            return vec![None; nb];
        }
        let entry_block = self.block_of(entry) as usize;

        // Block-level successor sets.
        let mut bsuccs: Vec<Vec<u32>> = vec![Vec::new(); nb];
        for (b, block) in self.blocks.iter().enumerate() {
            let last = block.end - 1;
            for &s in &self.succs[last as usize] {
                if s != EXIT {
                    let sb = self.block_of(s);
                    if !bsuccs[b].contains(&sb) {
                        bsuccs[b].push(sb);
                    }
                }
            }
        }
        let mut bpreds: Vec<Vec<u32>> = vec![Vec::new(); nb];
        for (b, ss) in bsuccs.iter().enumerate() {
            for &s in ss {
                bpreds[s as usize].push(b as u32);
            }
        }

        // Reverse post-order from the entry block.
        let mut order = Vec::with_capacity(nb);
        let mut state = vec![0u8; nb]; // 0 = unseen, 1 = on stack, 2 = done
        let mut stack = vec![(entry_block, 0usize)];
        state[entry_block] = 1;
        while let Some(&mut (b, ref mut i)) = stack.last_mut() {
            if *i < bsuccs[b].len() {
                let s = bsuccs[b][*i] as usize;
                *i += 1;
                if state[s] == 0 {
                    state[s] = 1;
                    stack.push((s, 0));
                }
            } else {
                state[b] = 2;
                order.push(b);
                stack.pop();
            }
        }
        order.reverse();
        let mut rpo_index = vec![usize::MAX; nb];
        for (i, &b) in order.iter().enumerate() {
            rpo_index[b] = i;
        }

        let mut idom: Vec<Option<u32>> = vec![None; nb];
        idom[entry_block] = Some(entry_block as u32);
        let intersect = |idom: &[Option<u32>], a: u32, b: u32| -> u32 {
            let (mut a, mut b) = (a as usize, b as usize);
            while a != b {
                while rpo_index[a] > rpo_index[b] {
                    a = idom[a].expect("processed block has an idom") as usize;
                }
                while rpo_index[b] > rpo_index[a] {
                    b = idom[b].expect("processed block has an idom") as usize;
                }
            }
            a as u32
        };
        let mut changed = true;
        while changed {
            changed = false;
            for &b in &order {
                if b == entry_block {
                    continue;
                }
                let mut new_idom: Option<u32> = None;
                for &p in &bpreds[b] {
                    if idom[p as usize].is_none() {
                        continue;
                    }
                    new_idom = Some(match new_idom {
                        None => p,
                        Some(cur) => intersect(&idom, cur, p),
                    });
                }
                if new_idom.is_some() && idom[b] != new_idom {
                    idom[b] = new_idom;
                    changed = true;
                }
            }
        }
        // Self-idom is only meaningful for the entry block; report it as
        // having no *proper* immediate dominator.
        idom[entry_block] = None;
        idom
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use px_isa::asm::assemble;

    fn cfg_of(src: &str) -> (Program, Cfg) {
        let p = assemble(src).unwrap();
        let c = Cfg::build(&p);
        (p, c)
    }

    #[test]
    fn straight_line_is_one_block() {
        let (_, c) = cfg_of(".code\nmain:\n  li r1, 1\n  addi r1, r1, 1\n  exit\n");
        assert_eq!(c.blocks().len(), 1);
        assert_eq!(c.succs(2), &[EXIT], "exit syscall leaves the program");
    }

    #[test]
    fn branch_splits_blocks_and_orders_edges() {
        // 0: beq -> (taken @2, fall-through 1)
        let (_, c) = cfg_of(".code\nmain:\n  beq r1, zero, t\n  nop\nt:  exit\n");
        assert_eq!(c.succs(0), &[2, 1], "taken edge first, then fall-through");
        assert_eq!(c.blocks().len(), 3);
        assert_eq!(c.preds(2), &[0, 1]);
    }

    #[test]
    fn call_ret_edges_follow_call_discipline() {
        let (_, c) = cfg_of(
            r"
            .code
            main:
                call f
                exit
            f:
                ret
            ",
        );
        assert!(!c.ra_discipline_broken());
        assert_eq!(c.succs(0), &[2], "call edges to its target");
        assert_eq!(c.succs(2), &[1], "ret edges to the call's return site");
    }

    #[test]
    fn ra_write_breaks_discipline() {
        let (p, c) = cfg_of(".code\nmain:\n  addi ra, zero, 0\n  ret\n");
        assert!(c.ra_discipline_broken());
        assert_eq!(c.succs(1).len(), p.code.len(), "ret may go anywhere");
    }

    #[test]
    fn fallthrough_off_end_is_an_exit_edge() {
        // The branch at the last instruction: its not-taken edge falls off
        // the end of the code (next fetch crashes).
        let (_, c) = cfg_of(".code\nmain:\n  beq r1, zero, main\n");
        assert_eq!(c.succs(0), &[0, EXIT]);
    }

    #[test]
    fn reachability_skips_dead_code() {
        let (p, c) = cfg_of(
            r"
            .code
            main:
                jmp over
                li r1, 1      ; dead
                li r1, 2      ; dead
            over:
                exit
            ",
        );
        let r = c.reachable(p.entry);
        assert!(r[0] && r[3]);
        assert!(!r[1] && !r[2]);
    }

    #[test]
    fn diamond_dominators() {
        let (p, c) = cfg_of(
            r"
            .code
            main:
                beq r1, zero, right   ; 0
                nop                   ; 1 left
                jmp join              ; 2
            right:
                nop                   ; 3 right
            join:
                exit                  ; 4
            ",
        );
        let idom = c.dominators(p.entry);
        let b = |pc: u32| c.block_of(pc) as usize;
        let entry = c.block_of(0);
        assert_eq!(idom[b(0)], None, "entry has no proper idom");
        assert_eq!(idom[b(1)], Some(entry));
        assert_eq!(idom[b(3)], Some(entry));
        assert_eq!(
            idom[b(4)],
            Some(entry),
            "join is dominated by the branch, not by either arm"
        );
    }
}
