use core::fmt;

use crate::reg::Reg;

/// Memory access width.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Width {
    /// One byte.
    Byte,
    /// Four bytes, little endian.
    Word,
}

impl Width {
    /// Access size in bytes.
    #[must_use]
    pub fn bytes(self) -> u32 {
        match self {
            Width::Byte => 1,
            Width::Word => 4,
        }
    }
}

/// Arithmetic / logical operations for [`Instruction::Alu`] and friends.
///
/// Comparison operations (`Slt`, `Sle`, `Seq`, `Sne`, `Sltu`) write `0` or `1`
/// to the destination.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AluOp {
    Add,
    Sub,
    Mul,
    /// Signed division. Division by zero is an architectural *crash*
    /// (terminates an NT-path, faults the taken path).
    Div,
    /// Signed remainder; remainder by zero crashes like [`AluOp::Div`].
    Rem,
    And,
    Or,
    Xor,
    /// Logical shift left (shift amount masked to 5 bits).
    Shl,
    /// Logical shift right.
    Shr,
    /// Arithmetic shift right.
    Sar,
    /// Set if less-than, signed.
    Slt,
    /// Set if less-than, unsigned.
    Sltu,
    /// Set if less-or-equal, signed.
    Sle,
    /// Set if equal.
    Seq,
    /// Set if not equal.
    Sne,
}

impl AluOp {
    pub(crate) const ALL: [AluOp; 16] = [
        AluOp::Add,
        AluOp::Sub,
        AluOp::Mul,
        AluOp::Div,
        AluOp::Rem,
        AluOp::And,
        AluOp::Or,
        AluOp::Xor,
        AluOp::Shl,
        AluOp::Shr,
        AluOp::Sar,
        AluOp::Slt,
        AluOp::Sltu,
        AluOp::Sle,
        AluOp::Seq,
        AluOp::Sne,
    ];

    /// Mnemonic used by the assembler/disassembler.
    #[must_use]
    pub fn mnemonic(self) -> &'static str {
        match self {
            AluOp::Add => "add",
            AluOp::Sub => "sub",
            AluOp::Mul => "mul",
            AluOp::Div => "div",
            AluOp::Rem => "rem",
            AluOp::And => "and",
            AluOp::Or => "or",
            AluOp::Xor => "xor",
            AluOp::Shl => "shl",
            AluOp::Shr => "shr",
            AluOp::Sar => "sar",
            AluOp::Slt => "slt",
            AluOp::Sltu => "sltu",
            AluOp::Sle => "sle",
            AluOp::Seq => "seq",
            AluOp::Sne => "sne",
        }
    }

    /// Evaluates the operation on two values.
    ///
    /// Returns `None` for division or remainder by zero (an architectural
    /// crash at the machine level). All other operations are total; `Add`,
    /// `Sub` and `Mul` wrap on overflow, and `i32::MIN / -1` wraps as well.
    #[must_use]
    pub fn eval(self, a: i32, b: i32) -> Option<i32> {
        Some(match self {
            AluOp::Add => a.wrapping_add(b),
            AluOp::Sub => a.wrapping_sub(b),
            AluOp::Mul => a.wrapping_mul(b),
            AluOp::Div => {
                if b == 0 {
                    return None;
                }
                a.wrapping_div(b)
            }
            AluOp::Rem => {
                if b == 0 {
                    return None;
                }
                a.wrapping_rem(b)
            }
            AluOp::And => a & b,
            AluOp::Or => a | b,
            AluOp::Xor => a ^ b,
            AluOp::Shl => ((a as u32) << (b as u32 & 31)) as i32,
            AluOp::Shr => ((a as u32) >> (b as u32 & 31)) as i32,
            AluOp::Sar => a >> (b as u32 & 31),
            AluOp::Slt => i32::from(a < b),
            AluOp::Sltu => i32::from((a as u32) < (b as u32)),
            AluOp::Sle => i32::from(a <= b),
            AluOp::Seq => i32::from(a == b),
            AluOp::Sne => i32::from(a != b),
        })
    }
}

/// Condition of a conditional branch.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BranchCond {
    Eq,
    Ne,
    /// Signed less-than.
    Lt,
    /// Signed greater-or-equal.
    Ge,
    /// Signed less-or-equal.
    Le,
    /// Signed greater-than.
    Gt,
}

impl BranchCond {
    pub(crate) const ALL: [BranchCond; 6] = [
        BranchCond::Eq,
        BranchCond::Ne,
        BranchCond::Lt,
        BranchCond::Ge,
        BranchCond::Le,
        BranchCond::Gt,
    ];

    /// Mnemonic suffix (`beq`, `bne`, ...).
    #[must_use]
    pub fn mnemonic(self) -> &'static str {
        match self {
            BranchCond::Eq => "beq",
            BranchCond::Ne => "bne",
            BranchCond::Lt => "blt",
            BranchCond::Ge => "bge",
            BranchCond::Le => "ble",
            BranchCond::Gt => "bgt",
        }
    }

    /// Evaluates the condition.
    #[must_use]
    pub fn eval(self, a: i32, b: i32) -> bool {
        match self {
            BranchCond::Eq => a == b,
            BranchCond::Ne => a != b,
            BranchCond::Lt => a < b,
            BranchCond::Ge => a >= b,
            BranchCond::Le => a <= b,
            BranchCond::Gt => a > b,
        }
    }

    /// The negated condition, such that
    /// `self.eval(a, b) == !self.negate().eval(a, b)`.
    #[must_use]
    pub fn negate(self) -> BranchCond {
        match self {
            BranchCond::Eq => BranchCond::Ne,
            BranchCond::Ne => BranchCond::Eq,
            BranchCond::Lt => BranchCond::Ge,
            BranchCond::Ge => BranchCond::Lt,
            BranchCond::Le => BranchCond::Gt,
            BranchCond::Gt => BranchCond::Le,
        }
    }
}

/// One of a conditional branch's two edges.
///
/// The discriminant is the edge's slot in every `[taken, not_taken]` pair
/// of the workspace — BTB exercise counters, coverage bitmaps and static
/// feasibility masks all index by [`Edge::slot`], and edges order by it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Edge {
    /// The branch condition held and control went to the target.
    Taken = 0,
    /// The condition failed and control fell through to `pc + 1`.
    NotTaken = 1,
}

impl Edge {
    /// Both edges, in slot order.
    pub const ALL: [Edge; 2] = [Edge::Taken, Edge::NotTaken];

    /// The edge's slot in `[taken, not_taken]` pairs.
    #[must_use]
    #[inline]
    pub fn slot(self) -> usize {
        self as usize
    }

    /// Short lowercase name used in reports.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Edge::Taken => "taken",
            Edge::NotTaken => "not-taken",
        }
    }

    /// The edge a dynamic branch outcome followed.
    #[must_use]
    #[inline]
    pub fn from_taken(taken: bool) -> Edge {
        if taken {
            Edge::Taken
        } else {
            Edge::NotTaken
        }
    }

    /// The other edge of the same branch.
    #[must_use]
    #[inline]
    pub fn other(self) -> Edge {
        match self {
            Edge::Taken => Edge::NotTaken,
            Edge::NotTaken => Edge::Taken,
        }
    }
}

/// System calls. Every system call is an *unsafe event* for an NT-path
/// (paper §4.2): the sandbox cannot contain its side effects, so the NT-path
/// is squashed when it reaches one.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SyscallCode {
    /// Terminate the program. Argument in `A0` is the exit code.
    Exit,
    /// Write the low byte of `A0` to the output stream.
    PutChar,
    /// Read a byte from the input stream into `RV` (-1 on EOF).
    GetChar,
    /// Write the decimal representation of `A0` to the output stream.
    PrintInt,
    /// Read a whitespace-delimited decimal integer into `RV` (-1 on EOF).
    ReadInt,
    /// Pseudo-random 31-bit non-negative integer into `RV` (deterministic,
    /// machine-seeded).
    Rand,
    /// Current simulated cycle count (low 31 bits) into `RV`.
    Time,
}

impl SyscallCode {
    pub(crate) const ALL: [SyscallCode; 7] = [
        SyscallCode::Exit,
        SyscallCode::PutChar,
        SyscallCode::GetChar,
        SyscallCode::PrintInt,
        SyscallCode::ReadInt,
        SyscallCode::Rand,
        SyscallCode::Time,
    ];

    /// Mnemonic used by the assembler.
    #[must_use]
    pub fn mnemonic(self) -> &'static str {
        match self {
            SyscallCode::Exit => "exit",
            SyscallCode::PutChar => "putc",
            SyscallCode::GetChar => "getc",
            SyscallCode::PrintInt => "printi",
            SyscallCode::ReadInt => "readi",
            SyscallCode::Rand => "rand",
            SyscallCode::Time => "time",
        }
    }
}

/// What kind of dynamic checker emitted a [`Instruction::Check`].
///
/// The machine routes failed checks to the monitor memory area so they
/// survive NT-path squashes (paper §4.1); the `px-detect` crate turns them
/// into classified bug reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CheckKind {
    /// A programmer-written assertion (the paper's third detection method).
    Assertion,
    /// A CCured-style array bounds check.
    CcuredBound,
    /// A CCured-style null / wild pointer check.
    CcuredNull,
}

impl CheckKind {
    pub(crate) const ALL: [CheckKind; 3] = [
        CheckKind::Assertion,
        CheckKind::CcuredBound,
        CheckKind::CcuredNull,
    ];

    /// Mnemonic used by the assembler.
    #[must_use]
    pub fn mnemonic(self) -> &'static str {
        match self {
            CheckKind::Assertion => "assert",
            CheckKind::CcuredBound => "bound",
            CheckKind::CcuredNull => "nullchk",
        }
    }
}

/// A PXVM-32 instruction.
///
/// The program counter is an index into [`crate::Program::code`]; branch and
/// call targets are absolute instruction indices (the assembler resolves
/// labels).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Instruction {
    /// `rd = rs1 <op> rs2`
    Alu {
        op: AluOp,
        rd: Reg,
        rs1: Reg,
        rs2: Reg,
    },
    /// `rd = rs1 <op> imm`
    AluI {
        op: AluOp,
        rd: Reg,
        rs1: Reg,
        imm: i32,
    },
    /// `rd = mem[rs(base) + offset]`
    Load {
        width: Width,
        rd: Reg,
        base: Reg,
        offset: i32,
    },
    /// `mem[rs(base) + offset] = rs`
    Store {
        width: Width,
        rs: Reg,
        base: Reg,
        offset: i32,
    },
    /// Conditional branch: if `cond(rs1, rs2)`, `pc = target`, else fall
    /// through. This is the instruction the BTB exercise counters and the
    /// PathExpander NT-path selector observe.
    Branch {
        cond: BranchCond,
        rs1: Reg,
        rs2: Reg,
        target: u32,
    },
    /// Unconditional jump to an instruction index.
    Jump { target: u32 },
    /// `ra = pc + 1; pc = target`
    Call { target: u32 },
    /// `pc = ra`
    Ret,
    /// System call (always an unsafe event inside an NT-path).
    Syscall { code: SyscallCode },
    /// Dynamic-checker probe: if the value of `cond` is zero, a bug report
    /// with site identifier `site` is written to the monitor memory area.
    /// Execution continues either way.
    Check {
        kind: CheckKind,
        cond: Reg,
        site: u32,
    },
    /// iWatcher-style: watch `len` bytes at address `base`+`A1`... registers a
    /// watch range `[rs(base), rs(base)+rs(len))` tagged `tag`.
    SetWatch { base: Reg, len: Reg, tag: u32 },
    /// Removes all watch ranges with tag `tag`.
    ClearWatch { tag: u32 },
    /// Predicated `rd = imm`: executes only while the NT-entry predicate is
    /// set; a NOP otherwise (paper §4.4 variable fixing).
    PMovI { rd: Reg, imm: i32 },
    /// Predicated `rd = rs`.
    PMov { rd: Reg, rs: Reg },
    /// Predicated `rd = rs1 <op> imm` (for boundary fixes such as `x = y-1`).
    PAluI {
        op: AluOp,
        rd: Reg,
        rs1: Reg,
        imm: i32,
    },
    /// Predicated store, for fixing condition variables that live in memory.
    PStore {
        width: Width,
        rs: Reg,
        base: Reg,
        offset: i32,
    },
    /// No operation.
    Nop,
}

impl Instruction {
    /// Whether this is a control-transfer instruction. Executing any of these
    /// clears the NT-entry predicate, bounding the variable-fixing window to
    /// the entry basic block of an NT-path (design decision D1).
    #[must_use]
    pub fn is_control_transfer(&self) -> bool {
        matches!(
            self,
            Instruction::Branch { .. }
                | Instruction::Jump { .. }
                | Instruction::Call { .. }
                | Instruction::Ret
        )
    }

    /// Whether this is one of the predicated variable-fixing instructions.
    #[must_use]
    pub fn is_predicated(&self) -> bool {
        matches!(
            self,
            Instruction::PMovI { .. }
                | Instruction::PMov { .. }
                | Instruction::PAluI { .. }
                | Instruction::PStore { .. }
        )
    }
}

impl fmt::Display for Instruction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            Instruction::Alu { op, rd, rs1, rs2 } => {
                write!(f, "{} {rd}, {rs1}, {rs2}", op.mnemonic())
            }
            Instruction::AluI { op, rd, rs1, imm } => {
                write!(f, "{}i {rd}, {rs1}, {imm}", op.mnemonic())
            }
            Instruction::Load {
                width: Width::Word,
                rd,
                base,
                offset,
            } => {
                write!(f, "lw {rd}, {offset}({base})")
            }
            Instruction::Load {
                width: Width::Byte,
                rd,
                base,
                offset,
            } => {
                write!(f, "lb {rd}, {offset}({base})")
            }
            Instruction::Store {
                width: Width::Word,
                rs,
                base,
                offset,
            } => {
                write!(f, "sw {rs}, {offset}({base})")
            }
            Instruction::Store {
                width: Width::Byte,
                rs,
                base,
                offset,
            } => {
                write!(f, "sb {rs}, {offset}({base})")
            }
            Instruction::Branch {
                cond,
                rs1,
                rs2,
                target,
            } => {
                write!(f, "{} {rs1}, {rs2}, @{target}", cond.mnemonic())
            }
            Instruction::Jump { target } => write!(f, "jmp @{target}"),
            Instruction::Call { target } => write!(f, "call @{target}"),
            Instruction::Ret => write!(f, "ret"),
            Instruction::Syscall { code } => write!(f, "{}", code.mnemonic()),
            Instruction::Check { kind, cond, site } => {
                write!(f, "{} {cond}, #{site}", kind.mnemonic())
            }
            Instruction::SetWatch { base, len, tag } => {
                write!(f, "watch {base}, {len}, #{tag}")
            }
            Instruction::ClearWatch { tag } => write!(f, "unwatch #{tag}"),
            Instruction::PMovI { rd, imm } => write!(f, "pli {rd}, {imm}"),
            Instruction::PMov { rd, rs } => write!(f, "pmov {rd}, {rs}"),
            Instruction::PAluI { op, rd, rs1, imm } => {
                write!(f, "p{}i {rd}, {rs1}, {imm}", op.mnemonic())
            }
            Instruction::PStore {
                width: Width::Word,
                rs,
                base,
                offset,
            } => {
                write!(f, "psw {rs}, {offset}({base})")
            }
            Instruction::PStore {
                width: Width::Byte,
                rs,
                base,
                offset,
            } => {
                write!(f, "psb {rs}, {offset}({base})")
            }
            Instruction::Nop => write!(f, "nop"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alu_eval_matches_semantics() {
        assert_eq!(AluOp::Add.eval(2, 3), Some(5));
        assert_eq!(AluOp::Add.eval(i32::MAX, 1), Some(i32::MIN));
        assert_eq!(AluOp::Sub.eval(2, 3), Some(-1));
        assert_eq!(AluOp::Mul.eval(-4, 3), Some(-12));
        assert_eq!(AluOp::Div.eval(7, 2), Some(3));
        assert_eq!(AluOp::Div.eval(7, 0), None);
        assert_eq!(AluOp::Rem.eval(7, 0), None);
        assert_eq!(AluOp::Div.eval(i32::MIN, -1), Some(i32::MIN));
        assert_eq!(AluOp::Shl.eval(1, 33), Some(2), "shift masked to 5 bits");
        assert_eq!(AluOp::Shr.eval(-1, 28), Some(0xF));
        assert_eq!(AluOp::Sar.eval(-8, 2), Some(-2));
        assert_eq!(AluOp::Slt.eval(-1, 0), Some(1));
        assert_eq!(AluOp::Sltu.eval(-1, 0), Some(0), "unsigned compare");
        assert_eq!(AluOp::Sle.eval(3, 3), Some(1));
        assert_eq!(AluOp::Seq.eval(3, 4), Some(0));
        assert_eq!(AluOp::Sne.eval(3, 4), Some(1));
    }

    #[test]
    fn branch_negation_is_involutive_and_correct() {
        for cond in BranchCond::ALL {
            assert_eq!(cond.negate().negate(), cond);
            for (a, b) in [(0, 0), (1, 2), (2, 1), (-5, 5), (i32::MIN, i32::MAX)] {
                assert_eq!(cond.eval(a, b), !cond.negate().eval(a, b));
            }
        }
    }

    #[test]
    fn control_transfer_classification() {
        assert!(Instruction::Ret.is_control_transfer());
        assert!(Instruction::Jump { target: 0 }.is_control_transfer());
        assert!(!Instruction::Nop.is_control_transfer());
        assert!(!Instruction::Syscall {
            code: SyscallCode::Exit
        }
        .is_control_transfer());
        assert!(Instruction::PMovI {
            rd: Reg::RV,
            imm: 3
        }
        .is_predicated());
        assert!(!Instruction::Nop.is_predicated());
    }

    #[test]
    fn display_is_stable() {
        let i = Instruction::Branch {
            cond: BranchCond::Lt,
            rs1: Reg::new(4),
            rs2: Reg::ZERO,
            target: 17,
        };
        assert_eq!(i.to_string(), "blt r4, zero, @17");
        let l = Instruction::Load {
            width: Width::Word,
            rd: Reg::RV,
            base: Reg::SP,
            offset: -8,
        };
        assert_eq!(l.to_string(), "lw r1, -8(sp)");
    }
}
