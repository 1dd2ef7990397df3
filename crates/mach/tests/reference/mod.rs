//! The byte-decode reference interpreter: the independent oracle the
//! micro-op interpreter (`px_mach::step_uop`) is checked against.
//!
//! It fetches and matches the architectural [`Instruction`] enum on every
//! step instead of dispatching a pre-decoded micro-op, so the two share no
//! decoding or dispatch code. Only the test suites use it; the simulator
//! ships `step_uop` alone. [`baseline`] drives it as a whole baseline run.

pub mod baseline;

use px_isa::{Instruction, Program, Reg, SyscallCode, Width, DATA_BASE};
use px_mach::{
    Branch, CoreState, CostModel, CrashKind, DataAccess, FaultAction, MemView, Step, StepEnv,
    StepEvent,
};

/// Executes one instruction of `core` against `mem`, re-deriving it from
/// the architectural [`Instruction`] on every step.
///
/// On [`StepEvent::Crash`] and [`StepEvent::UnsafeEvent`] the core state is
/// left unchanged (the caller squashes or faults); on every other event the
/// core has advanced.
pub fn step<M: MemView + ?Sized>(
    program: &Program,
    core: &mut CoreState,
    mem: &mut M,
    env: &mut StepEnv<'_>,
) -> Step {
    let pc = core.pc;
    let Some(insn) = program.fetch(pc) else {
        return Step {
            event: StepEvent::Crash {
                kind: CrashKind::BadPc { pc },
                pc,
            },
            base_cost: env.costs.control,
            access: None,
            deferred: None,
        };
    };

    // Fault injection: core-level faults apply right here (against whatever
    // MemView this step runs on — an NT-path's faults land in its sandbox);
    // cache-level faults are handed back to the engine via `deferred`.
    let mut deferred: Option<FaultAction> = None;
    let mut redirect: Option<u32> = None;
    if let Some(plan) = env.fault.as_mut() {
        if let Some(action) = plan.before_step() {
            match action {
                FaultAction::ForceCrash { kind } => {
                    return Step {
                        event: StepEvent::Crash { kind, pc },
                        base_cost: env.costs.control,
                        access: None,
                        deferred: None,
                    };
                }
                FaultAction::FlipMemBit { entropy, bit } => {
                    flip_mem_bit(program, mem, entropy, bit);
                }
                FaultAction::RedirectBack { max_back } => redirect = Some(max_back),
                // When system calls are suppressed the step's IoState is the
                // caller's *real* I/O that the path can never observe —
                // failing it would leak the fault past a squash. Only paths
                // that can actually read input (taken path, or an NT-path
                // with an OS-sandbox scratch snapshot) take the error.
                FaultAction::FailInput => {
                    if !env.suppress_syscalls {
                        env.io.fail_input();
                    }
                }
                other => deferred = Some(other),
            }
        }
    }

    // Control transfers clear the NT-entry predicate (design decision D1):
    // the variable-fixing window is the NT-path's entry basic block.
    let mut next_pred = core.pred && !insn.is_control_transfer();
    let costs = env.costs;
    let mut base_cost = costs.alu;
    let mut access = None;
    let mut event = StepEvent::None;
    let mut next_pc = pc.wrapping_add(1);

    macro_rules! crash {
        ($kind:expr) => {
            return Step {
                event: StepEvent::Crash { kind: $kind, pc },
                base_cost,
                access: None,
                deferred,
            }
        };
    }

    match insn {
        Instruction::Nop => {}
        Instruction::Alu { op, rd, rs1, rs2 } => {
            base_cost = alu_cost(op, costs);
            let a = core.regs.get(rs1);
            let b = core.regs.get(rs2);
            match op.eval(a, b) {
                Some(v) => core.regs.set(rd, v),
                None => crash!(CrashKind::DivByZero),
            }
        }
        Instruction::AluI { op, rd, rs1, imm } => {
            base_cost = alu_cost(op, costs);
            let a = core.regs.get(rs1);
            match op.eval(a, imm) {
                Some(v) => core.regs.set(rd, v),
                None => crash!(CrashKind::DivByZero),
            }
        }
        Instruction::Load {
            width,
            rd,
            base,
            offset,
        } => {
            let addr = (core.regs.get(base) as u32).wrapping_add(offset as u32);
            match mem.load(addr, width) {
                Ok(v) => {
                    core.regs.set(rd, v);
                    access = Some(DataAccess { addr, write: false });
                    if let Some(tag) = env.watches.hit(addr, width.bytes()) {
                        base_cost += costs.watch_hit;
                        event = StepEvent::WatchHit {
                            tag,
                            addr,
                            is_write: false,
                            pc,
                        };
                    }
                }
                Err(kind) => crash!(kind),
            }
        }
        Instruction::Store {
            width,
            rs,
            base,
            offset,
        } => {
            let addr = (core.regs.get(base) as u32).wrapping_add(offset as u32);
            match mem.store(addr, core.regs.get(rs), width) {
                Ok(()) => {
                    access = Some(DataAccess { addr, write: true });
                    if let Some(tag) = env.watches.hit(addr, width.bytes()) {
                        base_cost += costs.watch_hit;
                        event = StepEvent::WatchHit {
                            tag,
                            addr,
                            is_write: true,
                            pc,
                        };
                    }
                }
                Err(kind) => crash!(kind),
            }
        }
        Instruction::Branch {
            cond,
            rs1,
            rs2,
            target,
        } => {
            base_cost = costs.control;
            let a = core.regs.get(rs1);
            let b = core.regs.get(rs2);
            let taken = cond.eval(a, b);
            let not_taken_target = pc + 1;
            if taken {
                if !program.valid_pc(target) {
                    crash!(CrashKind::BadPc { pc: target });
                }
                next_pc = target;
            }
            event = StepEvent::Branch(Branch {
                pc,
                taken,
                taken_target: target,
                not_taken_target,
                operands: (a, b),
            });
        }
        Instruction::Jump { target } => {
            base_cost = costs.control;
            if !program.valid_pc(target) {
                crash!(CrashKind::BadPc { pc: target });
            }
            next_pc = target;
        }
        Instruction::Call { target } => {
            base_cost = costs.control;
            if !program.valid_pc(target) {
                crash!(CrashKind::BadPc { pc: target });
            }
            core.regs.set(Reg::RA, (pc + 1) as i32);
            next_pc = target;
        }
        Instruction::Ret => {
            base_cost = costs.control;
            let target = core.regs.get(Reg::RA) as u32;
            if !program.valid_pc(target) {
                crash!(CrashKind::BadPc { pc: target });
            }
            next_pc = target;
        }
        Instruction::Syscall { code } => {
            if env.suppress_syscalls {
                return Step {
                    event: StepEvent::UnsafeEvent { code },
                    base_cost: costs.control,
                    access: None,
                    deferred,
                };
            }
            base_cost = costs.syscall;
            match code {
                SyscallCode::Exit => {
                    return Step {
                        event: StepEvent::Exit {
                            code: core.regs.get(Reg::A0),
                        },
                        base_cost,
                        access: None,
                        deferred,
                    };
                }
                SyscallCode::PutChar => env.io.put_char(core.regs.get(Reg::A0) as u8),
                SyscallCode::GetChar => {
                    let v = env.io.get_char();
                    core.regs.set(Reg::RV, v);
                }
                SyscallCode::PrintInt => env.io.print_int(core.regs.get(Reg::A0)),
                SyscallCode::ReadInt => {
                    let v = env.io.read_int();
                    core.regs.set(Reg::RV, v);
                }
                SyscallCode::Rand => {
                    let v = env.io.rand();
                    core.regs.set(Reg::RV, v);
                }
                SyscallCode::Time => {
                    core.regs
                        .set(Reg::RV, (env.now_cycles & 0x7FFF_FFFF) as i32);
                }
            }
            event = StepEvent::Syscall { code };
        }
        Instruction::Check { kind, cond, site } => {
            base_cost = costs.check;
            if core.regs.get(cond) == 0 {
                event = StepEvent::CheckFailed { kind, site, pc };
            }
        }
        Instruction::SetWatch { base, len, tag } => {
            base_cost = costs.watch_op;
            let lo = core.regs.get(base) as u32;
            let len = core.regs.get(len).max(0) as u32;
            env.watches.set(lo, len, tag);
        }
        Instruction::ClearWatch { tag } => {
            base_cost = costs.watch_op;
            env.watches.clear(tag);
        }
        Instruction::PMovI { rd, imm } => {
            if core.pred {
                core.regs.set(rd, imm);
            }
        }
        Instruction::PMov { rd, rs } => {
            if core.pred {
                let v = core.regs.get(rs);
                core.regs.set(rd, v);
            }
        }
        Instruction::PAluI { op, rd, rs1, imm } => {
            if core.pred {
                base_cost = alu_cost(op, costs);
                let a = core.regs.get(rs1);
                match op.eval(a, imm) {
                    Some(v) => core.regs.set(rd, v),
                    None => crash!(CrashKind::DivByZero),
                }
            }
        }
        Instruction::PStore {
            width,
            rs,
            base,
            offset,
        } => {
            if core.pred {
                let addr = (core.regs.get(base) as u32).wrapping_add(offset as u32);
                match mem.store(addr, core.regs.get(rs), width) {
                    Ok(()) => access = Some(DataAccess { addr, write: true }),
                    Err(kind) => crash!(kind),
                }
            }
        }
    }

    core.pc = next_pc;
    // Re-read predicate decision: a control transfer clears it *after* the
    // instruction executes.
    if insn.is_control_transfer() {
        next_pred = false;
    }
    core.pred = next_pred;

    // A runaway fault drags the pc backwards *after* the instruction
    // executed normally: every index at or below the current (valid) pc is
    // itself valid, so the redirect always forms a loop rather than a crash.
    if let Some(max_back) = redirect {
        core.pc = pc.saturating_sub(max_back);
    }

    Step {
        event,
        base_cost,
        access,
        deferred,
    }
}

/// Applies a bit-flip fault to the data segment visible through `mem`: the
/// entropy picks an address inside `[DATA_BASE, mem_size)`; an address the
/// program cannot reach is skipped.
fn flip_mem_bit<M: MemView + ?Sized>(program: &Program, mem: &mut M, entropy: u64, bit: u8) {
    let span = u64::from(program.mem_size.max(DATA_BASE + 1) - DATA_BASE);
    let addr = DATA_BASE + (entropy % span) as u32;
    if let Ok(v) = mem.load(addr, Width::Byte) {
        let _ = mem.store(addr, v ^ (1 << (bit & 7)), Width::Byte);
    }
}

fn alu_cost(op: px_isa::AluOp, costs: &CostModel) -> u32 {
    use px_isa::AluOp;
    match op {
        AluOp::Mul => costs.mul,
        AluOp::Div | AluOp::Rem => costs.div,
        _ => costs.alu,
    }
}
