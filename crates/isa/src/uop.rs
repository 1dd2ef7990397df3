//! Pre-decoded micro-ops: the flat dispatch format the engine hot loops run.
//!
//! [`Instruction`] is the architectural format — compact, encodable, and
//! matched by a 17-arm interpreter. A [`DecodedProgram`] is built **once per
//! program** and resolves everything that interpreter re-derives on every
//! step:
//!
//! * ALU operation, branch condition, access width and syscall selectors are
//!   pre-split into distinct [`UopKind`]s, so dispatch is a single jump on a
//!   dense `u8` instead of nested matches;
//! * jump / call / branch targets are validated at decode time
//!   ([`UopKind::JumpBad`], [`UopKind::CallBad`], [`MicroOp::BR_BAD_TARGET`])
//!   — the hot path never re-checks a statically valid target;
//! * each branch carries its checker-region membership
//!   ([`MicroOp::BR_IN_CHECKER`]), replacing a per-branch linear scan of
//!   `Program::checker_regions`;
//! * [`DecodedProgram::simple_run`] gives, per pc, the length of the maximal
//!   run of *simple* micro-ops (straight-line register arithmetic that can
//!   neither crash, trap, touch memory, nor observe the cycle counter), so
//!   engines can retire whole runs in a tight batch loop and charge their
//!   cycles in one add; [`DecodedProgram::wide_run`] gives the same for
//!   runs that may also hold plain loads and stores, which the taken path
//!   batches when nothing can observe its accesses.
//!
//! The representation is proven faithful two ways: [`DecodedProgram::reencode`]
//! reconstructs the original instruction stream exactly (property-tested),
//! and the `px-mach` differential suite locks the micro-op interpreter to the
//! step-by-step one on random programs.

use crate::insn::{AluOp, BranchCond, CheckKind, Instruction, SyscallCode, Width};
use crate::program::Program;
use crate::reg::Reg;

/// Number of micro-op kinds (the size of a dispatch or cost table).
pub const UOP_KIND_COUNT: usize = 63;

/// The micro-op opcode: every selector an [`Instruction`] carries as data is
/// pre-split into its own kind, so one dense jump dispatches the whole ISA.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum UopKind {
    Nop = 0,
    // ALU register-register, one kind per operation.
    AddRR,
    SubRR,
    MulRR,
    DivRR,
    RemRR,
    AndRR,
    OrRR,
    XorRR,
    ShlRR,
    ShrRR,
    SarRR,
    SltRR,
    SltuRR,
    SleRR,
    SeqRR,
    SneRR,
    // ALU register-immediate.
    AddRI,
    SubRI,
    MulRI,
    DivRI,
    RemRI,
    AndRI,
    OrRI,
    XorRI,
    ShlRI,
    ShrRI,
    SarRI,
    SltRI,
    SltuRI,
    SleRI,
    SeqRI,
    SneRI,
    // Memory, width pre-selected.
    LoadByte,
    LoadWord,
    StoreByte,
    StoreWord,
    // Conditional branches, condition pre-selected; the taken target is
    // validated at decode time (see [`MicroOp::BR_BAD_TARGET`]).
    BranchEq,
    BranchNe,
    BranchLt,
    BranchGe,
    BranchLe,
    BranchGt,
    // Unconditional control; `*Bad` variants carry a statically invalid
    // target and crash when executed.
    Jump,
    JumpBad,
    Call,
    CallBad,
    Ret,
    // System calls, selector pre-split.
    SysExit,
    SysPutChar,
    SysGetChar,
    SysPrintInt,
    SysReadInt,
    SysRand,
    SysTime,
    // Checker / watchpoint / predicated-fix instructions.
    Check,
    SetWatch,
    ClearWatch,
    PMovI,
    PMov,
    PAluI,
    PStoreByte,
    PStoreWord,
}

const ALU_RR_BASE: u8 = UopKind::AddRR as u8;
const ALU_RI_BASE: u8 = UopKind::AddRI as u8;
const BRANCH_BASE: u8 = UopKind::BranchEq as u8;
const SYS_BASE: u8 = UopKind::SysExit as u8;

impl UopKind {
    /// Every kind, in discriminant order (profile tables index by this).
    pub const ALL: [UopKind; UOP_KIND_COUNT] = {
        let mut all = [UopKind::Nop; UOP_KIND_COUNT];
        let mut i = 0;
        while i < UOP_KIND_COUNT {
            // SAFETY-free transmute stand-in: discriminants are dense 0..63
            // by construction; `from_index` round-trips below in tests.
            all[i] = UopKind::from_index(i as u8);
            i += 1;
        }
        all
    };

    /// The kind with discriminant `i` (kinds are dense in `0..UOP_KIND_COUNT`).
    ///
    /// # Panics
    ///
    /// Panics when `i >= UOP_KIND_COUNT`.
    #[must_use]
    pub const fn from_index(i: u8) -> UopKind {
        assert!((i as usize) < UOP_KIND_COUNT);
        // A dense #[repr(u8)] enum: the discriminant *is* the index.
        unsafe { core::mem::transmute::<u8, UopKind>(i) }
    }

    /// Stable lowercase name, for profiles and reports.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            UopKind::Nop => "nop",
            UopKind::AddRR => "add.rr",
            UopKind::SubRR => "sub.rr",
            UopKind::MulRR => "mul.rr",
            UopKind::DivRR => "div.rr",
            UopKind::RemRR => "rem.rr",
            UopKind::AndRR => "and.rr",
            UopKind::OrRR => "or.rr",
            UopKind::XorRR => "xor.rr",
            UopKind::ShlRR => "shl.rr",
            UopKind::ShrRR => "shr.rr",
            UopKind::SarRR => "sar.rr",
            UopKind::SltRR => "slt.rr",
            UopKind::SltuRR => "sltu.rr",
            UopKind::SleRR => "sle.rr",
            UopKind::SeqRR => "seq.rr",
            UopKind::SneRR => "sne.rr",
            UopKind::AddRI => "add.ri",
            UopKind::SubRI => "sub.ri",
            UopKind::MulRI => "mul.ri",
            UopKind::DivRI => "div.ri",
            UopKind::RemRI => "rem.ri",
            UopKind::AndRI => "and.ri",
            UopKind::OrRI => "or.ri",
            UopKind::XorRI => "xor.ri",
            UopKind::ShlRI => "shl.ri",
            UopKind::ShrRI => "shr.ri",
            UopKind::SarRI => "sar.ri",
            UopKind::SltRI => "slt.ri",
            UopKind::SltuRI => "sltu.ri",
            UopKind::SleRI => "sle.ri",
            UopKind::SeqRI => "seq.ri",
            UopKind::SneRI => "sne.ri",
            UopKind::LoadByte => "load.b",
            UopKind::LoadWord => "load.w",
            UopKind::StoreByte => "store.b",
            UopKind::StoreWord => "store.w",
            UopKind::BranchEq => "br.eq",
            UopKind::BranchNe => "br.ne",
            UopKind::BranchLt => "br.lt",
            UopKind::BranchGe => "br.ge",
            UopKind::BranchLe => "br.le",
            UopKind::BranchGt => "br.gt",
            UopKind::Jump => "jump",
            UopKind::JumpBad => "jump.bad",
            UopKind::Call => "call",
            UopKind::CallBad => "call.bad",
            UopKind::Ret => "ret",
            UopKind::SysExit => "sys.exit",
            UopKind::SysPutChar => "sys.putc",
            UopKind::SysGetChar => "sys.getc",
            UopKind::SysPrintInt => "sys.printi",
            UopKind::SysReadInt => "sys.readi",
            UopKind::SysRand => "sys.rand",
            UopKind::SysTime => "sys.time",
            UopKind::Check => "check",
            UopKind::SetWatch => "watch.set",
            UopKind::ClearWatch => "watch.clear",
            UopKind::PMovI => "p.movi",
            UopKind::PMov => "p.mov",
            UopKind::PAluI => "p.alui",
            UopKind::PStoreByte => "p.store.b",
            UopKind::PStoreWord => "p.store.w",
        }
    }

    /// The pre-selected ALU operation of an `*RR` / `*RI` kind (or of a
    /// [`UopKind::PAluI`] selector byte via [`MicroOp::palu_op`]).
    #[must_use]
    pub fn alu_op(self) -> Option<AluOp> {
        let d = self as u8;
        if (ALU_RR_BASE..ALU_RR_BASE + 16).contains(&d) {
            Some(AluOp::ALL[(d - ALU_RR_BASE) as usize])
        } else if (ALU_RI_BASE..ALU_RI_BASE + 16).contains(&d) {
            Some(AluOp::ALL[(d - ALU_RI_BASE) as usize])
        } else {
            None
        }
    }

    /// The pre-selected condition of a `Branch*` kind.
    #[must_use]
    pub fn branch_cond(self) -> Option<BranchCond> {
        let d = self as u8;
        if (BRANCH_BASE..BRANCH_BASE + 6).contains(&d) {
            Some(BranchCond::ALL[(d - BRANCH_BASE) as usize])
        } else {
            None
        }
    }

    /// The pre-selected code of a `Sys*` kind.
    #[must_use]
    pub fn syscall_code(self) -> Option<SyscallCode> {
        let d = self as u8;
        if (SYS_BASE..SYS_BASE + 7).contains(&d) {
            Some(SyscallCode::ALL[(d - SYS_BASE) as usize])
        } else {
            None
        }
    }

    /// Whether this is a conditional branch kind.
    #[must_use]
    pub fn is_branch(self) -> bool {
        let d = self as u8;
        (BRANCH_BASE..BRANCH_BASE + 6).contains(&d)
    }

    /// Whether this is a register-register ALU kind.
    #[must_use]
    pub fn is_alu_rr(self) -> bool {
        let d = self as u8;
        (ALU_RR_BASE..ALU_RR_BASE + 16).contains(&d)
    }
}

/// One pre-decoded micro-op: a dense kind plus resolved operand fields.
/// 12 bytes, like the binary instruction encoding — one cache line holds
/// five.
///
/// Field meaning by kind (unused fields are zero):
///
/// | kind            | `a`        | `b`    | `c`      | `imm`    | `ext`   |
/// |-----------------|------------|--------|----------|----------|---------|
/// | `*RR`           | rd         | rs1    | rs2      |          |         |
/// | `*RI`           | rd         | rs1    |          | imm      |         |
/// | `Load*`         | rd         | base   |          | offset   |         |
/// | `Store*`/`PStore*` | rs      | base   |          | offset   |         |
/// | `Branch*`       | flags      | rs1    | rs2      |          | target  |
/// | `Jump*`/`Call*` |            |        |          |          | target  |
/// | `Check`         | kind code  | cond   |          |          | site    |
/// | `SetWatch`      | base       | len    |          |          | tag     |
/// | `ClearWatch`    |            |        |          |          | tag     |
/// | `PMovI`         | rd         |        |          | imm      |         |
/// | `PMov`          | rd         | rs     |          |          |         |
/// | `PAluI`         | rd         | rs1    | op code  | imm      |         |
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MicroOp {
    /// Dispatch kind.
    pub kind: UopKind,
    /// First operand byte (see the table above).
    pub a: u8,
    /// Second operand byte.
    pub b: u8,
    /// Third operand byte.
    pub c: u8,
    /// Immediate / offset operand.
    pub imm: i32,
    /// Wide unsigned operand (target / site / tag).
    pub ext: u32,
}

impl MicroOp {
    /// `Branch*` flag bit: the branch sits inside a checker region, so
    /// PathExpander must never spawn an NT-path from it (paper §6.2).
    pub const BR_IN_CHECKER: u8 = 1;
    /// `Branch*` flag bit: the taken target is statically invalid — taking
    /// the branch crashes with `BadPc`.
    pub const BR_BAD_TARGET: u8 = 2;

    /// The pre-selected ALU operation of a [`UopKind::PAluI`] micro-op.
    #[must_use]
    pub fn palu_op(&self) -> AluOp {
        debug_assert_eq!(self.kind, UopKind::PAluI);
        AluOp::ALL[(self.c & 15) as usize]
    }

    /// The check kind of a [`UopKind::Check`] micro-op.
    #[must_use]
    pub fn check_kind(&self) -> CheckKind {
        debug_assert_eq!(self.kind, UopKind::Check);
        CheckKind::ALL[(self.a % 3) as usize]
    }

    /// Whether this micro-op is *simple*: straight-line register arithmetic
    /// that cannot crash, trap, transfer control, touch memory, raise an
    /// event, change the fix predicate, or charge a state-dependent cost.
    /// Runs of simple micro-ops are batchable: executing them one-by-one and
    /// as a block is observationally identical (same registers, same total
    /// base cost, no intermediate observation points).
    #[must_use]
    pub fn is_simple(&self) -> bool {
        match self.kind {
            UopKind::Nop | UopKind::PMovI | UopKind::PMov => true,
            // Register-register ALU: total except division by a runtime zero.
            UopKind::DivRR | UopKind::RemRR => false,
            k if k.alu_op().is_some() => {
                // Register-immediate division crashes only when the
                // *immediate* is zero — statically known.
                !matches!(k, UopKind::DivRI | UopKind::RemRI) || self.imm != 0
            }
            // Predicated ALU charges `alu` when the predicate is clear but
            // the op's own cost when set: only cost-invariant ops batch.
            // (Div/Rem are excluded by cost alone, before any crash concern.)
            UopKind::PAluI => !matches!(self.palu_op(), AluOp::Mul | AluOp::Div | AluOp::Rem),
            _ => false,
        }
    }

    /// Whether this micro-op is a plain load or store (`LoadByte`,
    /// `LoadWord`, `StoreByte`, `StoreWord`): straight-line, with no event
    /// but a watch hit or a crash on a bad address. A *wide* run holds
    /// simple and plain-access micro-ops.
    fn is_plain_access(&self) -> bool {
        matches!(
            self.kind,
            UopKind::LoadByte | UopKind::LoadWord | UopKind::StoreByte | UopKind::StoreWord
        )
    }

    /// Reconstructs the architectural instruction this micro-op was decoded
    /// from. Exact: `DecodedProgram::decode(p).reencode() == p.code`.
    #[must_use]
    pub fn reencode(&self) -> Instruction {
        let rd = Reg::new(self.a);
        let rs1 = Reg::new(self.b);
        let rs2 = Reg::new(self.c);
        if let Some(op) = self.kind.alu_op() {
            let d = self.kind as u8;
            return if d < ALU_RI_BASE {
                Instruction::Alu { op, rd, rs1, rs2 }
            } else {
                Instruction::AluI {
                    op,
                    rd,
                    rs1,
                    imm: self.imm,
                }
            };
        }
        if let Some(cond) = self.kind.branch_cond() {
            return Instruction::Branch {
                cond,
                rs1,
                rs2: Reg::new(self.c),
                target: self.ext,
            };
        }
        if let Some(code) = self.kind.syscall_code() {
            return Instruction::Syscall { code };
        }
        match self.kind {
            UopKind::Nop => Instruction::Nop,
            UopKind::LoadByte | UopKind::LoadWord => Instruction::Load {
                width: if self.kind == UopKind::LoadByte {
                    Width::Byte
                } else {
                    Width::Word
                },
                rd,
                base: rs1,
                offset: self.imm,
            },
            UopKind::StoreByte | UopKind::StoreWord => Instruction::Store {
                width: if self.kind == UopKind::StoreByte {
                    Width::Byte
                } else {
                    Width::Word
                },
                rs: rd,
                base: rs1,
                offset: self.imm,
            },
            UopKind::Jump | UopKind::JumpBad => Instruction::Jump { target: self.ext },
            UopKind::Call | UopKind::CallBad => Instruction::Call { target: self.ext },
            UopKind::Ret => Instruction::Ret,
            UopKind::Check => Instruction::Check {
                kind: self.check_kind(),
                cond: rs1,
                site: self.ext,
            },
            UopKind::SetWatch => Instruction::SetWatch {
                base: rd,
                len: rs1,
                tag: self.ext,
            },
            UopKind::ClearWatch => Instruction::ClearWatch { tag: self.ext },
            UopKind::PMovI => Instruction::PMovI { rd, imm: self.imm },
            UopKind::PMov => Instruction::PMov { rd, rs: rs1 },
            UopKind::PAluI => Instruction::PAluI {
                op: self.palu_op(),
                rd,
                rs1,
                imm: self.imm,
            },
            UopKind::PStoreByte | UopKind::PStoreWord => Instruction::PStore {
                width: if self.kind == UopKind::PStoreByte {
                    Width::Byte
                } else {
                    Width::Word
                },
                rs: rd,
                base: rs1,
                offset: self.imm,
            },
            // ALU / branch / syscall kinds returned above.
            _ => unreachable!("kind {:?} handled above", self.kind),
        }
    }
}

fn alu_rr_kind(op: AluOp) -> UopKind {
    let idx = AluOp::ALL.iter().position(|&o| o == op).expect("in ALL");
    UopKind::from_index(ALU_RR_BASE + idx as u8)
}

fn alu_ri_kind(op: AluOp) -> UopKind {
    let idx = AluOp::ALL.iter().position(|&o| o == op).expect("in ALL");
    UopKind::from_index(ALU_RI_BASE + idx as u8)
}

fn branch_kind(cond: BranchCond) -> UopKind {
    let idx = BranchCond::ALL
        .iter()
        .position(|&c| c == cond)
        .expect("in ALL");
    UopKind::from_index(BRANCH_BASE + idx as u8)
}

fn syscall_kind(code: SyscallCode) -> UopKind {
    let idx = SyscallCode::ALL
        .iter()
        .position(|&c| c == code)
        .expect("in ALL");
    UopKind::from_index(SYS_BASE + idx as u8)
}

fn check_code(kind: CheckKind) -> u8 {
    CheckKind::ALL.iter().position(|&k| k == kind).expect("ALL") as u8
}

fn palu_code(op: AluOp) -> u8 {
    AluOp::ALL.iter().position(|&o| o == op).expect("in ALL") as u8
}

fn uop_of(program: &Program, pc: u32, insn: Instruction) -> MicroOp {
    let mut u = MicroOp {
        kind: UopKind::Nop,
        a: 0,
        b: 0,
        c: 0,
        imm: 0,
        ext: 0,
    };
    match insn {
        Instruction::Nop => {}
        Instruction::Alu { op, rd, rs1, rs2 } => {
            u.kind = alu_rr_kind(op);
            u.a = rd.raw();
            u.b = rs1.raw();
            u.c = rs2.raw();
        }
        Instruction::AluI { op, rd, rs1, imm } => {
            u.kind = alu_ri_kind(op);
            u.a = rd.raw();
            u.b = rs1.raw();
            u.imm = imm;
        }
        Instruction::Load {
            width,
            rd,
            base,
            offset,
        } => {
            u.kind = match width {
                Width::Byte => UopKind::LoadByte,
                Width::Word => UopKind::LoadWord,
            };
            u.a = rd.raw();
            u.b = base.raw();
            u.imm = offset;
        }
        Instruction::Store {
            width,
            rs,
            base,
            offset,
        } => {
            u.kind = match width {
                Width::Byte => UopKind::StoreByte,
                Width::Word => UopKind::StoreWord,
            };
            u.a = rs.raw();
            u.b = base.raw();
            u.imm = offset;
        }
        Instruction::Branch {
            cond,
            rs1,
            rs2,
            target,
        } => {
            u.kind = branch_kind(cond);
            u.b = rs1.raw();
            u.c = rs2.raw();
            u.ext = target;
            if program.in_checker_region(pc) {
                u.a |= MicroOp::BR_IN_CHECKER;
            }
            if !program.valid_pc(target) {
                u.a |= MicroOp::BR_BAD_TARGET;
            }
        }
        Instruction::Jump { target } => {
            u.kind = if program.valid_pc(target) {
                UopKind::Jump
            } else {
                UopKind::JumpBad
            };
            u.ext = target;
        }
        Instruction::Call { target } => {
            u.kind = if program.valid_pc(target) {
                UopKind::Call
            } else {
                UopKind::CallBad
            };
            u.ext = target;
        }
        Instruction::Ret => u.kind = UopKind::Ret,
        Instruction::Syscall { code } => u.kind = syscall_kind(code),
        Instruction::Check { kind, cond, site } => {
            u.kind = UopKind::Check;
            u.a = check_code(kind);
            u.b = cond.raw();
            u.ext = site;
        }
        Instruction::SetWatch { base, len, tag } => {
            u.kind = UopKind::SetWatch;
            u.a = base.raw();
            u.b = len.raw();
            u.ext = tag;
        }
        Instruction::ClearWatch { tag } => {
            u.kind = UopKind::ClearWatch;
            u.ext = tag;
        }
        Instruction::PMovI { rd, imm } => {
            u.kind = UopKind::PMovI;
            u.a = rd.raw();
            u.imm = imm;
        }
        Instruction::PMov { rd, rs } => {
            u.kind = UopKind::PMov;
            u.a = rd.raw();
            u.b = rs.raw();
        }
        Instruction::PAluI { op, rd, rs1, imm } => {
            u.kind = UopKind::PAluI;
            u.a = rd.raw();
            u.b = rs1.raw();
            u.c = palu_code(op);
            u.imm = imm;
        }
        Instruction::PStore {
            width,
            rs,
            base,
            offset,
        } => {
            u.kind = match width {
                Width::Byte => UopKind::PStoreByte,
                Width::Word => UopKind::PStoreWord,
            };
            u.a = rs.raw();
            u.b = base.raw();
            u.imm = offset;
        }
    }
    u
}

/// A program decoded once into the flat micro-op array the engines dispatch
/// on. Parallel to `Program::code`: the program counter indexes both.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DecodedProgram {
    ops: Vec<MicroOp>,
    /// `run_len[pc]`: the lengths of the maximal simple run and the maximal
    /// wide run starting at `pc` (0 when `ops[pc]` itself does not qualify).
    /// One table, so both lengths of a pc share a cache line.
    run_len: Vec<RunLen>,
}

/// The batchable run lengths at one pc (see [`DecodedProgram`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct RunLen {
    simple: u32,
    wide: u32,
}

impl DecodedProgram {
    /// Decodes `program` into micro-ops: selectors pre-split, targets
    /// pre-validated, checker-region membership pre-computed, batchable
    /// run lengths measured.
    #[must_use]
    pub fn decode(program: &Program) -> DecodedProgram {
        let ops: Vec<MicroOp> = program
            .code
            .iter()
            .enumerate()
            .map(|(pc, &insn)| uop_of(program, pc as u32, insn))
            .collect();
        let mut run_len = vec![RunLen::default(); ops.len()];
        let mut run = RunLen::default();
        for (i, op) in ops.iter().enumerate().rev() {
            let simple = op.is_simple();
            run.simple = if simple { run.simple + 1 } else { 0 };
            run.wide = if simple || op.is_plain_access() {
                run.wide + 1
            } else {
                0
            };
            run_len[i] = run;
        }
        DecodedProgram { ops, run_len }
    }

    /// This decode with every run length zero, so no driver batches and
    /// every micro-op is stepped. Batching is invisible to the simulated
    /// machine, so a run on it is the reference a test holds a run on the
    /// decode itself against.
    #[must_use]
    pub fn without_runs(mut self) -> DecodedProgram {
        self.run_len.fill(RunLen::default());
        self
    }

    /// Number of micro-ops (equals `Program::code.len()`).
    #[must_use]
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// Whether the program has no instructions.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// The whole micro-op array.
    #[must_use]
    pub fn ops(&self) -> &[MicroOp] {
        &self.ops
    }

    /// The micro-op at `pc`, if in range.
    #[must_use]
    #[inline]
    pub fn op(&self, pc: u32) -> Option<&MicroOp> {
        self.ops.get(pc as usize)
    }

    /// Length of the maximal batchable run starting at `pc` (0 when the
    /// micro-op at `pc` is not simple or `pc` is out of range).
    #[must_use]
    #[inline]
    pub fn simple_run(&self, pc: u32) -> u32 {
        self.run_len.get(pc as usize).map_or(0, |r| r.simple)
    }

    /// Length of the maximal *wide* run starting at `pc`: simple micro-ops
    /// and plain loads and stores (0 when the micro-op at `pc` is neither
    /// or `pc` is out of range). Never shorter than [`simple_run`](Self::simple_run).
    #[must_use]
    #[inline]
    pub fn wide_run(&self, pc: u32) -> u32 {
        self.run_len.get(pc as usize).map_or(0, |r| r.wide)
    }

    /// Reconstructs the original instruction stream — the round-trip proof
    /// that decoding lost nothing.
    #[must_use]
    pub fn reencode(&self) -> Vec<Instruction> {
        self.ops.iter().map(MicroOp::reencode).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::asm::assemble;
    use crate::program::ProgramBuilder;

    #[test]
    fn kinds_are_dense_and_named() {
        for (i, &k) in UopKind::ALL.iter().enumerate() {
            assert_eq!(k as usize, i);
            assert_eq!(UopKind::from_index(i as u8), k);
            assert!(!k.name().is_empty());
        }
        // Names are unique (profile rows must not alias).
        let mut names: Vec<&str> = UopKind::ALL.iter().map(|k| k.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), UOP_KIND_COUNT);
    }

    #[test]
    fn selectors_pre_split_exactly() {
        assert_eq!(UopKind::MulRR.alu_op(), Some(AluOp::Mul));
        assert_eq!(UopKind::SneRI.alu_op(), Some(AluOp::Sne));
        assert_eq!(UopKind::BranchGt.branch_cond(), Some(BranchCond::Gt));
        assert_eq!(UopKind::SysTime.syscall_code(), Some(SyscallCode::Time));
        assert_eq!(UopKind::Check.alu_op(), None);
        assert_eq!(UopKind::Nop.branch_cond(), None);
        assert!(UopKind::BranchEq.is_branch());
        assert!(!UopKind::Jump.is_branch());
    }

    #[test]
    fn decode_resolves_targets_and_checker_flags() {
        let mut b = ProgramBuilder::new();
        // 0: branch with valid target inside a checker region
        b.push(
            Instruction::Branch {
                cond: BranchCond::Ne,
                rs1: Reg::new(1),
                rs2: Reg::ZERO,
                target: 2,
            },
            1,
        );
        // 1: branch with invalid target
        b.push(
            Instruction::Branch {
                cond: BranchCond::Eq,
                rs1: Reg::ZERO,
                rs2: Reg::ZERO,
                target: 99,
            },
            2,
        );
        // 2: valid jump, 3: invalid jump, 4: invalid call
        b.push(Instruction::Jump { target: 0 }, 3);
        b.push(Instruction::Jump { target: 1000 }, 4);
        b.push(Instruction::Call { target: 1000 }, 5);
        b.add_checker_region(0, 1);
        let p = b.finish();
        let dp = DecodedProgram::decode(&p);
        assert_eq!(dp.len(), 5);
        let br0 = dp.op(0).unwrap();
        assert_eq!(br0.kind, UopKind::BranchNe);
        assert_eq!(br0.a, MicroOp::BR_IN_CHECKER);
        assert_eq!(br0.ext, 2);
        let br1 = dp.op(1).unwrap();
        assert_eq!(br1.a, MicroOp::BR_BAD_TARGET);
        assert_eq!(dp.op(2).unwrap().kind, UopKind::Jump);
        assert_eq!(dp.op(3).unwrap().kind, UopKind::JumpBad);
        assert_eq!(dp.op(4).unwrap().kind, UopKind::CallBad);
        assert_eq!(dp.reencode(), p.code, "flags are metadata, not semantics");
    }

    #[test]
    fn simple_runs_measure_batchable_stretches() {
        let p = assemble(
            r"
            .code
            main:
                li r1, 7
                addi r2, r1, 1
                mul r3, r1, r2
                divi r4, r3, 2
                div r5, r3, r1
                nop
                exit
            ",
        )
        .unwrap();
        let dp = DecodedProgram::decode(&p);
        // li/addi/mul/divi are simple (divi has a nonzero immediate); the
        // register-register div can crash, breaking the run; nop restarts it.
        assert_eq!(dp.simple_run(0), 4);
        assert_eq!(dp.simple_run(1), 3);
        assert_eq!(dp.simple_run(4), 0, "div.rr can crash");
        assert_eq!(dp.simple_run(5), 1, "nop before exit");
        assert_eq!(dp.simple_run(6), 0, "exit traps");
        assert_eq!(dp.simple_run(99), 0, "out of range");
    }

    #[test]
    fn divide_by_zero_immediates_are_not_simple() {
        let p = assemble(".code\nmain:\n  divi r1, r2, 0\n  remi r1, r2, 3\n  exit\n").unwrap();
        let dp = DecodedProgram::decode(&p);
        assert_eq!(dp.simple_run(0), 0, "divi #0 always crashes");
        assert_eq!(dp.simple_run(1), 1, "remi #3 cannot");
    }

    #[test]
    fn predicated_fix_ops_batch_only_when_cost_invariant() {
        let p = assemble(
            r"
            .code
            main:
                pli r1, 3
                pmov r2, r1
                paddi r3, r2, 1
                pmuli r4, r3, 2
                exit
            ",
        )
        .unwrap();
        let dp = DecodedProgram::decode(&p);
        assert_eq!(dp.simple_run(0), 3, "pli/pmov/paddi batch");
        assert_eq!(dp.simple_run(3), 0, "pmuli cost depends on the predicate");
    }

    #[test]
    fn wide_runs_take_plain_loads_and_stores() {
        let p = assemble(
            r"
            .code
            main:
                li r1, 7
                lw r2, 0x2000(r1)
                sb r2, 0x2004(r1)
                addi r2, r2, 1
                psw r2, 0(sp)
                lb r3, 0(sp)
                beq r3, zero, main
                exit
            ",
        )
        .unwrap();
        let dp = DecodedProgram::decode(&p);
        assert_eq!((dp.simple_run(0), dp.wide_run(0)), (1, 4));
        assert_eq!((dp.simple_run(1), dp.wide_run(1)), (0, 3), "lw starts one");
        assert_eq!((dp.simple_run(3), dp.wide_run(3)), (1, 1));
        assert_eq!(dp.wide_run(4), 0, "a predicated store is not plain");
        assert_eq!(dp.wide_run(5), 1, "lb before a branch");
        assert_eq!(dp.wide_run(6), 0, "branches end runs");
        assert_eq!(dp.wide_run(99), 0, "out of range");
    }

    #[test]
    fn reencode_round_trips_an_assembled_program() {
        let p = assemble(
            r"
            .code
            main:
                li r4, 10
                watch r4, r4, #3
            loop:
                subi r4, r4, 1
                lb r5, 0x2000(r4)
                sb r5, 0x3000(r4)
                assert r5, #9
                bgt r4, zero, loop
                unwatch #3
                call f
                li r2, 0
                exit
            f:
                pli r1, 1
                psw r1, 0(sp)
                ret
            ",
        )
        .unwrap();
        let dp = DecodedProgram::decode(&p);
        assert_eq!(dp.reencode(), p.code);
    }
}
