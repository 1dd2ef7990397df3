//! Micro-op execution: the simulator's instruction interpreter.
//!
//! [`step_uop`] executes one architectural step of one core: it dispatches
//! a pre-decoded [`MicroOp`] through a table of monomorphized handler
//! functions indexed by [`UopKind`]. Each handler is specialized to one
//! kind: its ALU operation, branch condition, access width and base cost
//! are compile-time constants, and statically validated control targets
//! skip their range checks entirely (`UopKind::Jump` vs `UopKind::JumpBad`).
//! The baseline runner, both PathExpander engines and the profiling run of
//! fix refitting all step through it.
//!
//! [`run_simple`] is the batch fast path: it retires a run of *simple*
//! micro-ops (see [`MicroOp::is_simple`]) in one tight loop, summing their
//! base costs from a [`uop_cost_table`]. Simple runs raise no events, touch
//! no memory, cannot crash and never read the cycle counter, so batching is
//! observationally identical to stepping.
//!
//! `tests/uop_differential.rs` holds an independent byte-decode reference
//! interpreter and checks that this module agrees with it on every program,
//! including invalid ones, and that batching equals stepping.

use px_isa::{
    AluOp, BranchCond, DecodedProgram, MicroOp, Program, Reg, SyscallCode, UopKind, Width,
    DATA_BASE, UOP_KIND_COUNT,
};

use crate::config::CostModel;
use crate::core::CoreState;
use crate::exec::{DataAccess, Step, StepEnv, StepEvent};
use crate::fault::FaultAction;
use crate::memory::{CrashKind, MemView};

/// One micro-op handler: executes the op against the core/memory/environment
/// and returns the step result. `deferred` is threaded through so crash
/// results still carry cache-level faults back to the engine.
pub type UopHandler<M> = fn(
    &DecodedProgram,
    MicroOp,
    u32,
    &mut CoreState,
    &mut M,
    &mut StepEnv<'_, '_>,
    Option<FaultAction>,
) -> Step;

#[inline]
fn advance(core: &mut CoreState, pc: u32) {
    core.pc = pc.wrapping_add(1);
}

#[inline]
fn plain(base_cost: u32, deferred: Option<FaultAction>) -> Step {
    Step {
        event: StepEvent::None,
        base_cost,
        access: None,
        deferred,
    }
}

#[inline]
fn crash(kind: CrashKind, pc: u32, base_cost: u32, deferred: Option<FaultAction>) -> Step {
    Step {
        event: StepEvent::Crash { kind, pc },
        base_cost,
        access: None,
        deferred,
    }
}

fn h_nop<M: MemView + ?Sized>(
    _dp: &DecodedProgram,
    _u: MicroOp,
    pc: u32,
    core: &mut CoreState,
    _mem: &mut M,
    env: &mut StepEnv<'_, '_>,
    deferred: Option<FaultAction>,
) -> Step {
    advance(core, pc);
    plain(env.costs.alu, deferred)
}

/// Total (never-crashing) register-register ALU handler.
macro_rules! alu_rr_total {
    ($name:ident, $op:ident, $cost:ident) => {
        fn $name<M: MemView + ?Sized>(
            _dp: &DecodedProgram,
            u: MicroOp,
            pc: u32,
            core: &mut CoreState,
            _mem: &mut M,
            env: &mut StepEnv<'_, '_>,
            deferred: Option<FaultAction>,
        ) -> Step {
            let a = core.regs.get(Reg::new(u.b));
            let b = core.regs.get(Reg::new(u.c));
            let Some(v) = AluOp::$op.eval(a, b) else {
                unreachable!("{:?} is total", AluOp::$op)
            };
            core.regs.set(Reg::new(u.a), v);
            advance(core, pc);
            plain(env.costs.$cost, deferred)
        }
    };
}

/// Register-register divide/remainder: crashes on a runtime zero divisor.
macro_rules! alu_rr_div {
    ($name:ident, $op:ident) => {
        fn $name<M: MemView + ?Sized>(
            _dp: &DecodedProgram,
            u: MicroOp,
            pc: u32,
            core: &mut CoreState,
            _mem: &mut M,
            env: &mut StepEnv<'_, '_>,
            deferred: Option<FaultAction>,
        ) -> Step {
            let a = core.regs.get(Reg::new(u.b));
            let b = core.regs.get(Reg::new(u.c));
            match AluOp::$op.eval(a, b) {
                Some(v) => {
                    core.regs.set(Reg::new(u.a), v);
                    advance(core, pc);
                    plain(env.costs.div, deferred)
                }
                None => crash(CrashKind::DivByZero, pc, env.costs.div, deferred),
            }
        }
    };
}

/// Total register-immediate ALU handler.
macro_rules! alu_ri_total {
    ($name:ident, $op:ident, $cost:ident) => {
        fn $name<M: MemView + ?Sized>(
            _dp: &DecodedProgram,
            u: MicroOp,
            pc: u32,
            core: &mut CoreState,
            _mem: &mut M,
            env: &mut StepEnv<'_, '_>,
            deferred: Option<FaultAction>,
        ) -> Step {
            let a = core.regs.get(Reg::new(u.b));
            let Some(v) = AluOp::$op.eval(a, u.imm) else {
                unreachable!("{:?} is total", AluOp::$op)
            };
            core.regs.set(Reg::new(u.a), v);
            advance(core, pc);
            plain(env.costs.$cost, deferred)
        }
    };
}

/// Register-immediate divide/remainder: crashes iff the immediate is zero
/// (statically known, but the handler still checks — `DecodedProgram` marks
/// such ops non-simple rather than unrepresentable).
macro_rules! alu_ri_div {
    ($name:ident, $op:ident) => {
        fn $name<M: MemView + ?Sized>(
            _dp: &DecodedProgram,
            u: MicroOp,
            pc: u32,
            core: &mut CoreState,
            _mem: &mut M,
            env: &mut StepEnv<'_, '_>,
            deferred: Option<FaultAction>,
        ) -> Step {
            let a = core.regs.get(Reg::new(u.b));
            match AluOp::$op.eval(a, u.imm) {
                Some(v) => {
                    core.regs.set(Reg::new(u.a), v);
                    advance(core, pc);
                    plain(env.costs.div, deferred)
                }
                None => crash(CrashKind::DivByZero, pc, env.costs.div, deferred),
            }
        }
    };
}

alu_rr_total!(h_add_rr, Add, alu);
alu_rr_total!(h_sub_rr, Sub, alu);
alu_rr_total!(h_mul_rr, Mul, mul);
alu_rr_div!(h_div_rr, Div);
alu_rr_div!(h_rem_rr, Rem);
alu_rr_total!(h_and_rr, And, alu);
alu_rr_total!(h_or_rr, Or, alu);
alu_rr_total!(h_xor_rr, Xor, alu);
alu_rr_total!(h_shl_rr, Shl, alu);
alu_rr_total!(h_shr_rr, Shr, alu);
alu_rr_total!(h_sar_rr, Sar, alu);
alu_rr_total!(h_slt_rr, Slt, alu);
alu_rr_total!(h_sltu_rr, Sltu, alu);
alu_rr_total!(h_sle_rr, Sle, alu);
alu_rr_total!(h_seq_rr, Seq, alu);
alu_rr_total!(h_sne_rr, Sne, alu);

alu_ri_total!(h_add_ri, Add, alu);
alu_ri_total!(h_sub_ri, Sub, alu);
alu_ri_total!(h_mul_ri, Mul, mul);
alu_ri_div!(h_div_ri, Div);
alu_ri_div!(h_rem_ri, Rem);
alu_ri_total!(h_and_ri, And, alu);
alu_ri_total!(h_or_ri, Or, alu);
alu_ri_total!(h_xor_ri, Xor, alu);
alu_ri_total!(h_shl_ri, Shl, alu);
alu_ri_total!(h_shr_ri, Shr, alu);
alu_ri_total!(h_sar_ri, Sar, alu);
alu_ri_total!(h_slt_ri, Slt, alu);
alu_ri_total!(h_sltu_ri, Sltu, alu);
alu_ri_total!(h_sle_ri, Sle, alu);
alu_ri_total!(h_seq_ri, Seq, alu);
alu_ri_total!(h_sne_ri, Sne, alu);

/// Load handler, width pre-selected.
macro_rules! load_handler {
    ($name:ident, $width:ident) => {
        fn $name<M: MemView + ?Sized>(
            _dp: &DecodedProgram,
            u: MicroOp,
            pc: u32,
            core: &mut CoreState,
            mem: &mut M,
            env: &mut StepEnv<'_, '_>,
            deferred: Option<FaultAction>,
        ) -> Step {
            let addr = (core.regs.get(Reg::new(u.b)) as u32).wrapping_add(u.imm as u32);
            match mem.load(addr, Width::$width) {
                Ok(v) => {
                    core.regs.set(Reg::new(u.a), v);
                    let mut base_cost = env.costs.alu;
                    let mut event = StepEvent::None;
                    if let Some(tag) = env.watches.hit(addr, Width::$width.bytes()) {
                        base_cost += env.costs.watch_hit;
                        event = StepEvent::WatchHit {
                            tag,
                            addr,
                            is_write: false,
                            pc,
                        };
                    }
                    advance(core, pc);
                    Step {
                        event,
                        base_cost,
                        access: Some(DataAccess { addr, write: false }),
                        deferred,
                    }
                }
                Err(kind) => crash(kind, pc, env.costs.alu, deferred),
            }
        }
    };
}

/// Store handler, width pre-selected.
macro_rules! store_handler {
    ($name:ident, $width:ident) => {
        fn $name<M: MemView + ?Sized>(
            _dp: &DecodedProgram,
            u: MicroOp,
            pc: u32,
            core: &mut CoreState,
            mem: &mut M,
            env: &mut StepEnv<'_, '_>,
            deferred: Option<FaultAction>,
        ) -> Step {
            let addr = (core.regs.get(Reg::new(u.b)) as u32).wrapping_add(u.imm as u32);
            match mem.store(addr, core.regs.get(Reg::new(u.a)), Width::$width) {
                Ok(()) => {
                    let mut base_cost = env.costs.alu;
                    let mut event = StepEvent::None;
                    if let Some(tag) = env.watches.hit(addr, Width::$width.bytes()) {
                        base_cost += env.costs.watch_hit;
                        event = StepEvent::WatchHit {
                            tag,
                            addr,
                            is_write: true,
                            pc,
                        };
                    }
                    advance(core, pc);
                    Step {
                        event,
                        base_cost,
                        access: Some(DataAccess { addr, write: true }),
                        deferred,
                    }
                }
                Err(kind) => crash(kind, pc, env.costs.alu, deferred),
            }
        }
    };
}

load_handler!(h_load_byte, Byte);
load_handler!(h_load_word, Word);
store_handler!(h_store_byte, Byte);
store_handler!(h_store_word, Word);

/// Conditional branch handler, condition pre-selected. The taken target was
/// validated at decode time: only micro-ops carrying [`MicroOp::BR_BAD_TARGET`]
/// pay a range check, and then only to crash.
macro_rules! branch_handler {
    ($name:ident, $cond:ident) => {
        fn $name<M: MemView + ?Sized>(
            _dp: &DecodedProgram,
            u: MicroOp,
            pc: u32,
            core: &mut CoreState,
            _mem: &mut M,
            env: &mut StepEnv<'_, '_>,
            deferred: Option<FaultAction>,
        ) -> Step {
            let a = core.regs.get(Reg::new(u.b));
            let b = core.regs.get(Reg::new(u.c));
            let taken = BranchCond::$cond.eval(a, b);
            let not_taken_target = pc + 1;
            if taken {
                if u.a & MicroOp::BR_BAD_TARGET != 0 {
                    return crash(
                        CrashKind::BadPc { pc: u.ext },
                        pc,
                        env.costs.control,
                        deferred,
                    );
                }
                core.pc = u.ext;
            } else {
                core.pc = not_taken_target;
            }
            core.pred = false;
            Step {
                event: StepEvent::Branch {
                    pc,
                    taken,
                    taken_target: u.ext,
                    not_taken_target,
                    operands: (a, b),
                },
                base_cost: env.costs.control,
                access: None,
                deferred,
            }
        }
    };
}

branch_handler!(h_branch_eq, Eq);
branch_handler!(h_branch_ne, Ne);
branch_handler!(h_branch_lt, Lt);
branch_handler!(h_branch_ge, Ge);
branch_handler!(h_branch_le, Le);
branch_handler!(h_branch_gt, Gt);

fn h_jump<M: MemView + ?Sized>(
    _dp: &DecodedProgram,
    u: MicroOp,
    _pc: u32,
    core: &mut CoreState,
    _mem: &mut M,
    env: &mut StepEnv<'_, '_>,
    deferred: Option<FaultAction>,
) -> Step {
    core.pc = u.ext;
    core.pred = false;
    plain(env.costs.control, deferred)
}

fn h_jump_bad<M: MemView + ?Sized>(
    _dp: &DecodedProgram,
    u: MicroOp,
    pc: u32,
    _core: &mut CoreState,
    _mem: &mut M,
    env: &mut StepEnv<'_, '_>,
    deferred: Option<FaultAction>,
) -> Step {
    crash(
        CrashKind::BadPc { pc: u.ext },
        pc,
        env.costs.control,
        deferred,
    )
}

fn h_call<M: MemView + ?Sized>(
    _dp: &DecodedProgram,
    u: MicroOp,
    pc: u32,
    core: &mut CoreState,
    _mem: &mut M,
    env: &mut StepEnv<'_, '_>,
    deferred: Option<FaultAction>,
) -> Step {
    core.regs.set(Reg::RA, (pc + 1) as i32);
    core.pc = u.ext;
    core.pred = false;
    plain(env.costs.control, deferred)
}

fn h_call_bad<M: MemView + ?Sized>(
    _dp: &DecodedProgram,
    u: MicroOp,
    pc: u32,
    _core: &mut CoreState,
    _mem: &mut M,
    env: &mut StepEnv<'_, '_>,
    deferred: Option<FaultAction>,
) -> Step {
    // The target check precedes the RA write in the reference interpreter:
    // a bad call leaves the register file untouched.
    crash(
        CrashKind::BadPc { pc: u.ext },
        pc,
        env.costs.control,
        deferred,
    )
}

fn h_ret<M: MemView + ?Sized>(
    dp: &DecodedProgram,
    _u: MicroOp,
    pc: u32,
    core: &mut CoreState,
    _mem: &mut M,
    env: &mut StepEnv<'_, '_>,
    deferred: Option<FaultAction>,
) -> Step {
    let target = core.regs.get(Reg::RA) as u32;
    if (target as usize) >= dp.len() {
        return crash(
            CrashKind::BadPc { pc: target },
            pc,
            env.costs.control,
            deferred,
        );
    }
    core.pc = target;
    core.pred = false;
    plain(env.costs.control, deferred)
}

fn h_sys_exit<M: MemView + ?Sized>(
    _dp: &DecodedProgram,
    _u: MicroOp,
    _pc: u32,
    core: &mut CoreState,
    _mem: &mut M,
    env: &mut StepEnv<'_, '_>,
    deferred: Option<FaultAction>,
) -> Step {
    if env.suppress_syscalls {
        return Step {
            event: StepEvent::UnsafeEvent {
                code: SyscallCode::Exit,
            },
            base_cost: env.costs.control,
            access: None,
            deferred,
        };
    }
    Step {
        event: StepEvent::Exit {
            code: core.regs.get(Reg::A0),
        },
        base_cost: env.costs.syscall,
        access: None,
        deferred,
    }
}

/// Non-exit system call handler, code pre-selected. Suppression (NT-path
/// execution) reports the unsafe event with the core untouched.
macro_rules! sys_handler {
    ($name:ident, $code:ident, |$core:ident, $env:ident| $body:expr) => {
        fn $name<M: MemView + ?Sized>(
            _dp: &DecodedProgram,
            _u: MicroOp,
            pc: u32,
            core: &mut CoreState,
            _mem: &mut M,
            env: &mut StepEnv<'_, '_>,
            deferred: Option<FaultAction>,
        ) -> Step {
            if env.suppress_syscalls {
                return Step {
                    event: StepEvent::UnsafeEvent {
                        code: SyscallCode::$code,
                    },
                    base_cost: env.costs.control,
                    access: None,
                    deferred,
                };
            }
            {
                let $core = &mut *core;
                let $env = &mut *env;
                $body;
            }
            advance(core, pc);
            Step {
                event: StepEvent::Syscall {
                    code: SyscallCode::$code,
                },
                base_cost: env.costs.syscall,
                access: None,
                deferred,
            }
        }
    };
}

sys_handler!(h_sys_putc, PutChar, |core, env| env
    .io
    .put_char(core.regs.get(Reg::A0) as u8));
sys_handler!(h_sys_getc, GetChar, |core, env| {
    let v = env.io.get_char();
    core.regs.set(Reg::RV, v);
});
sys_handler!(h_sys_printi, PrintInt, |core, env| env
    .io
    .print_int(core.regs.get(Reg::A0)));
sys_handler!(h_sys_readi, ReadInt, |core, env| {
    let v = env.io.read_int();
    core.regs.set(Reg::RV, v);
});
sys_handler!(h_sys_rand, Rand, |core, env| {
    let v = env.io.rand();
    core.regs.set(Reg::RV, v);
});
sys_handler!(h_sys_time, Time, |core, env| {
    core.regs
        .set(Reg::RV, (env.now_cycles & 0x7FFF_FFFF) as i32);
});

fn h_check<M: MemView + ?Sized>(
    _dp: &DecodedProgram,
    u: MicroOp,
    pc: u32,
    core: &mut CoreState,
    _mem: &mut M,
    env: &mut StepEnv<'_, '_>,
    deferred: Option<FaultAction>,
) -> Step {
    let event = if core.regs.get(Reg::new(u.b)) == 0 {
        StepEvent::CheckFailed {
            kind: u.check_kind(),
            site: u.ext,
            pc,
        }
    } else {
        StepEvent::None
    };
    advance(core, pc);
    Step {
        event,
        base_cost: env.costs.check,
        access: None,
        deferred,
    }
}

fn h_set_watch<M: MemView + ?Sized>(
    _dp: &DecodedProgram,
    u: MicroOp,
    pc: u32,
    core: &mut CoreState,
    _mem: &mut M,
    env: &mut StepEnv<'_, '_>,
    deferred: Option<FaultAction>,
) -> Step {
    let lo = core.regs.get(Reg::new(u.a)) as u32;
    let len = core.regs.get(Reg::new(u.b)).max(0) as u32;
    env.watches.set(lo, len, u.ext);
    advance(core, pc);
    plain(env.costs.watch_op, deferred)
}

fn h_clear_watch<M: MemView + ?Sized>(
    _dp: &DecodedProgram,
    u: MicroOp,
    pc: u32,
    core: &mut CoreState,
    _mem: &mut M,
    env: &mut StepEnv<'_, '_>,
    deferred: Option<FaultAction>,
) -> Step {
    env.watches.clear(u.ext);
    advance(core, pc);
    plain(env.costs.watch_op, deferred)
}

fn h_pmovi<M: MemView + ?Sized>(
    _dp: &DecodedProgram,
    u: MicroOp,
    pc: u32,
    core: &mut CoreState,
    _mem: &mut M,
    env: &mut StepEnv<'_, '_>,
    deferred: Option<FaultAction>,
) -> Step {
    if core.pred {
        core.regs.set(Reg::new(u.a), u.imm);
    }
    advance(core, pc);
    plain(env.costs.alu, deferred)
}

fn h_pmov<M: MemView + ?Sized>(
    _dp: &DecodedProgram,
    u: MicroOp,
    pc: u32,
    core: &mut CoreState,
    _mem: &mut M,
    env: &mut StepEnv<'_, '_>,
    deferred: Option<FaultAction>,
) -> Step {
    if core.pred {
        let v = core.regs.get(Reg::new(u.b));
        core.regs.set(Reg::new(u.a), v);
    }
    advance(core, pc);
    plain(env.costs.alu, deferred)
}

fn h_palui<M: MemView + ?Sized>(
    _dp: &DecodedProgram,
    u: MicroOp,
    pc: u32,
    core: &mut CoreState,
    _mem: &mut M,
    env: &mut StepEnv<'_, '_>,
    deferred: Option<FaultAction>,
) -> Step {
    if !core.pred {
        advance(core, pc);
        return plain(env.costs.alu, deferred);
    }
    let op = u.palu_op();
    let base_cost = alu_cost(op, env.costs);
    let a = core.regs.get(Reg::new(u.b));
    match op.eval(a, u.imm) {
        Some(v) => {
            core.regs.set(Reg::new(u.a), v);
            advance(core, pc);
            plain(base_cost, deferred)
        }
        None => crash(CrashKind::DivByZero, pc, base_cost, deferred),
    }
}

/// Predicated store handler, width pre-selected.
macro_rules! pstore_handler {
    ($name:ident, $width:ident) => {
        fn $name<M: MemView + ?Sized>(
            _dp: &DecodedProgram,
            u: MicroOp,
            pc: u32,
            core: &mut CoreState,
            mem: &mut M,
            env: &mut StepEnv<'_, '_>,
            deferred: Option<FaultAction>,
        ) -> Step {
            if !core.pred {
                advance(core, pc);
                return plain(env.costs.alu, deferred);
            }
            let addr = (core.regs.get(Reg::new(u.b)) as u32).wrapping_add(u.imm as u32);
            match mem.store(addr, core.regs.get(Reg::new(u.a)), Width::$width) {
                Ok(()) => {
                    advance(core, pc);
                    Step {
                        event: StepEvent::None,
                        base_cost: env.costs.alu,
                        access: Some(DataAccess { addr, write: true }),
                        deferred,
                    }
                }
                Err(kind) => crash(kind, pc, env.costs.alu, deferred),
            }
        }
    };
}

pstore_handler!(h_pstore_byte, Byte);
pstore_handler!(h_pstore_word, Word);

/// The per-memory-view handler dispatch, selected by [`UopKind`].
///
/// Written as an exhaustive `match` rather than a `[UopHandler<M>; 63]`
/// associated const on purpose: naming a const array in an index expression
/// materializes the whole table onto the stack (a ~500-byte memcpy per
/// dispatch), and the array cannot be promoted to a `'static` behind a
/// reference because `M` — the sandbox views — carries borrow lifetimes.
/// LLVM lowers this match to a `.rodata` lookup table per monomorphization,
/// which is exactly the jump table the design calls for.
#[inline]
fn handler_for<M: MemView + ?Sized>(kind: UopKind) -> UopHandler<M> {
    match kind {
        UopKind::Nop => h_nop::<M>,
        UopKind::AddRR => h_add_rr::<M>,
        UopKind::SubRR => h_sub_rr::<M>,
        UopKind::MulRR => h_mul_rr::<M>,
        UopKind::DivRR => h_div_rr::<M>,
        UopKind::RemRR => h_rem_rr::<M>,
        UopKind::AndRR => h_and_rr::<M>,
        UopKind::OrRR => h_or_rr::<M>,
        UopKind::XorRR => h_xor_rr::<M>,
        UopKind::ShlRR => h_shl_rr::<M>,
        UopKind::ShrRR => h_shr_rr::<M>,
        UopKind::SarRR => h_sar_rr::<M>,
        UopKind::SltRR => h_slt_rr::<M>,
        UopKind::SltuRR => h_sltu_rr::<M>,
        UopKind::SleRR => h_sle_rr::<M>,
        UopKind::SeqRR => h_seq_rr::<M>,
        UopKind::SneRR => h_sne_rr::<M>,
        UopKind::AddRI => h_add_ri::<M>,
        UopKind::SubRI => h_sub_ri::<M>,
        UopKind::MulRI => h_mul_ri::<M>,
        UopKind::DivRI => h_div_ri::<M>,
        UopKind::RemRI => h_rem_ri::<M>,
        UopKind::AndRI => h_and_ri::<M>,
        UopKind::OrRI => h_or_ri::<M>,
        UopKind::XorRI => h_xor_ri::<M>,
        UopKind::ShlRI => h_shl_ri::<M>,
        UopKind::ShrRI => h_shr_ri::<M>,
        UopKind::SarRI => h_sar_ri::<M>,
        UopKind::SltRI => h_slt_ri::<M>,
        UopKind::SltuRI => h_sltu_ri::<M>,
        UopKind::SleRI => h_sle_ri::<M>,
        UopKind::SeqRI => h_seq_ri::<M>,
        UopKind::SneRI => h_sne_ri::<M>,
        UopKind::LoadByte => h_load_byte::<M>,
        UopKind::LoadWord => h_load_word::<M>,
        UopKind::StoreByte => h_store_byte::<M>,
        UopKind::StoreWord => h_store_word::<M>,
        UopKind::BranchEq => h_branch_eq::<M>,
        UopKind::BranchNe => h_branch_ne::<M>,
        UopKind::BranchLt => h_branch_lt::<M>,
        UopKind::BranchGe => h_branch_ge::<M>,
        UopKind::BranchLe => h_branch_le::<M>,
        UopKind::BranchGt => h_branch_gt::<M>,
        UopKind::Jump => h_jump::<M>,
        UopKind::JumpBad => h_jump_bad::<M>,
        UopKind::Call => h_call::<M>,
        UopKind::CallBad => h_call_bad::<M>,
        UopKind::Ret => h_ret::<M>,
        UopKind::SysExit => h_sys_exit::<M>,
        UopKind::SysPutChar => h_sys_putc::<M>,
        UopKind::SysGetChar => h_sys_getc::<M>,
        UopKind::SysPrintInt => h_sys_printi::<M>,
        UopKind::SysReadInt => h_sys_readi::<M>,
        UopKind::SysRand => h_sys_rand::<M>,
        UopKind::SysTime => h_sys_time::<M>,
        UopKind::Check => h_check::<M>,
        UopKind::SetWatch => h_set_watch::<M>,
        UopKind::ClearWatch => h_clear_watch::<M>,
        UopKind::PMovI => h_pmovi::<M>,
        UopKind::PMov => h_pmov::<M>,
        UopKind::PAluI => h_palui::<M>,
        UopKind::PStoreByte => h_pstore_byte::<M>,
        UopKind::PStoreWord => h_pstore_word::<M>,
    }
}

/// Executes one micro-op of `core` against `mem`. `program` is only
/// consulted by injected memory faults (for the data-segment span); all
/// hot-path information comes from `dp`.
///
/// On [`StepEvent::Crash`] and [`StepEvent::UnsafeEvent`] the core state is
/// left unchanged (the caller squashes or faults); on every other event the
/// core has advanced.
///
/// Equivalence contract (enforced by `tests/uop_differential.rs`): for every
/// program and every `(core, mem, env)` state, `step_uop` and the reference
/// interpreter there return identical [`Step`]s and leave identical machine
/// states.
#[inline]
pub fn step_uop<M: MemView + ?Sized>(
    program: &Program,
    dp: &DecodedProgram,
    core: &mut CoreState,
    mem: &mut M,
    env: &mut StepEnv<'_, '_>,
) -> Step {
    let pc = core.pc;
    let Some(&uop) = dp.op(pc) else {
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

    // Fault-injection prologue — identical protocol to the reference
    // interpreter.
    let mut deferred: Option<FaultAction> = None;
    let mut redirect: Option<u32> = None;
    if let Some(hook) = env.fault.as_mut() {
        if let Some(action) = hook.before_step(pc) {
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
                FaultAction::FailInput => {
                    if !env.suppress_syscalls {
                        env.io.fail_input();
                    }
                }
                other => deferred = Some(other),
            }
        }
    }

    let step = handler_for::<M>(uop.kind)(dp, uop, pc, core, mem, env, deferred);

    // A runaway redirect drags the pc backwards only when the instruction
    // completed (crash / unsafe-event / exit leave the core untouched).
    if let Some(max_back) = redirect {
        if !matches!(
            step.event,
            StepEvent::Crash { .. } | StepEvent::UnsafeEvent { .. } | StepEvent::Exit { .. }
        ) {
            core.pc = pc.saturating_sub(max_back);
        }
    }

    step
}

/// Applies a bit-flip fault to the data segment visible through `mem`. The
/// entropy is reduced to an address inside `[DATA_BASE, mem_size)`;
/// addresses the program cannot itself reach are silently skipped, so a
/// flip is never an engine error.
fn flip_mem_bit<M: MemView + ?Sized>(program: &Program, mem: &mut M, entropy: u64, bit: u8) {
    let span = u64::from(program.mem_size.max(DATA_BASE + 1) - DATA_BASE);
    let addr = DATA_BASE + (entropy % span) as u32;
    if let Ok(v) = mem.load(addr, Width::Byte) {
        let _ = mem.store(addr, v ^ (1 << (bit & 7)), Width::Byte);
    }
}

fn alu_cost(op: AluOp, costs: &CostModel) -> u32 {
    match op {
        AluOp::Mul => costs.mul,
        AluOp::Div | AluOp::Rem => costs.div,
        _ => costs.alu,
    }
}

/// Builds the per-kind base-cost table for a cost model. Entries for
/// non-simple kinds are the kind's *static* base cost (the batch fast path
/// only reads simple entries; profiles use real charged costs).
#[must_use]
pub fn uop_cost_table(costs: &CostModel) -> [u32; UOP_KIND_COUNT] {
    let mut table = [costs.alu; UOP_KIND_COUNT];
    for (i, &kind) in UopKind::ALL.iter().enumerate() {
        table[i] = if let Some(op) = kind.alu_op() {
            alu_cost(op, costs)
        } else if kind.is_branch() {
            costs.control
        } else if kind.syscall_code().is_some() {
            costs.syscall
        } else {
            match kind {
                UopKind::Jump
                | UopKind::JumpBad
                | UopKind::Call
                | UopKind::CallBad
                | UopKind::Ret => costs.control,
                UopKind::Check => costs.check,
                UopKind::SetWatch | UopKind::ClearWatch => costs.watch_op,
                // Nop, loads/stores (base), predicated fixes.
                _ => costs.alu,
            }
        };
    }
    table
}

/// Retires `n` micro-ops of a *simple run* starting at `core.pc` in one
/// batch, returning the summed base cost. The caller must ensure
/// `n <= dp.simple_run(core.pc)` (checked in debug builds); simple runs
/// raise no events, touch no memory, cannot crash, never consult the fault
/// hook and leave the predicate unchanged, so this is observationally
/// identical to `n` calls of [`step_uop`] with no fault hook installed.
#[inline]
pub fn run_simple(
    dp: &DecodedProgram,
    core: &mut CoreState,
    n: u32,
    cost_table: &[u32; UOP_KIND_COUNT],
) -> u64 {
    debug_assert!(n <= dp.simple_run(core.pc), "batch exceeds the simple run");
    let start = core.pc as usize;
    let mut cost = 0u64;
    for u in &dp.ops()[start..start + n as usize] {
        cost += u64::from(cost_table[u.kind as usize]);
        match u.kind {
            UopKind::Nop => {}
            UopKind::PMovI => {
                if core.pred {
                    core.regs.set(Reg::new(u.a), u.imm);
                }
            }
            UopKind::PMov => {
                if core.pred {
                    let v = core.regs.get(Reg::new(u.b));
                    core.regs.set(Reg::new(u.a), v);
                }
            }
            UopKind::PAluI => {
                if core.pred {
                    let a = core.regs.get(Reg::new(u.b));
                    let v = u.palu_op().eval(a, u.imm).expect("simple PAluI is total");
                    core.regs.set(Reg::new(u.a), v);
                }
            }
            kind => {
                let op = kind.alu_op().expect("simple run holds only ALU/fix ops");
                let a = core.regs.get(Reg::new(u.b));
                let b = if kind.is_alu_rr() {
                    core.regs.get(Reg::new(u.c))
                } else {
                    u.imm
                };
                let v = op.eval(a, b).expect("simple ALU op is total here");
                core.regs.set(Reg::new(u.a), v);
            }
        }
    }
    core.pc += n;
    cost
}

/// How many leading micro-ops of the simple run at `pc` a core can retire
/// consecutively under a min-ready-time scheduler: the first step has
/// already been granted by the scheduler, and each *subsequent* step is
/// dispatched only while the core's clock (starting at `start`, advanced by
/// each op's table cost) is still at or below `deadline` — the inclusive
/// bound past which some other core would win the selection scan. Returns
/// at least 1 when `max_n >= 1`; the caller must ensure
/// `max_n <= dp.simple_run(pc)`.
#[must_use]
pub fn simple_steps_until(
    dp: &DecodedProgram,
    pc: u32,
    max_n: u32,
    cost_table: &[u32; UOP_KIND_COUNT],
    start: u64,
    deadline: u64,
) -> u32 {
    debug_assert!(max_n <= dp.simple_run(pc), "cap exceeds the simple run");
    // No competing core: every step is granted, so skip the cost walk.
    if deadline == u64::MAX {
        return max_n;
    }
    let ops = dp.ops();
    let mut clock = start;
    let mut n: u32 = 0;
    while n < max_n {
        if n > 0 && clock > deadline {
            break;
        }
        clock += u64::from(cost_table[ops[pc as usize + n as usize].kind as usize]);
        n += 1;
    }
    n
}

/// [`simple_steps_until`] without a core: grants the same step count *and*
/// returns the summed table cost of the granted ops, without retiring them.
/// NT-path replay uses this to re-charge a memoized batch's cycles under the
/// live scheduler state, byte-identically to a real [`run_simple`] of the
/// same grant.
#[must_use]
pub fn simple_cost_until(
    dp: &DecodedProgram,
    pc: u32,
    max_n: u32,
    cost_table: &[u32; UOP_KIND_COUNT],
    start: u64,
    deadline: u64,
) -> (u32, u64) {
    debug_assert!(max_n <= dp.simple_run(pc), "cap exceeds the simple run");
    let ops = dp.ops();
    let mut clock = start;
    let mut n: u32 = 0;
    while n < max_n {
        if n > 0 && clock > deadline {
            break;
        }
        clock += u64::from(cost_table[ops[pc as usize + n as usize].kind as usize]);
        n += 1;
    }
    (n, clock - start)
}

/// Per-handler execution histogram: retired micro-op counts and charged base
/// cycles, indexed by [`UopKind`] discriminant. Deterministic — it counts
/// simulated work, not wall time.
#[derive(Debug, Clone)]
pub struct UopProfile {
    /// Micro-ops retired per kind.
    pub count: [u64; UOP_KIND_COUNT],
    /// Base cycles charged per kind.
    pub cycles: [u64; UOP_KIND_COUNT],
}

impl Default for UopProfile {
    fn default() -> UopProfile {
        UopProfile {
            count: [0; UOP_KIND_COUNT],
            cycles: [0; UOP_KIND_COUNT],
        }
    }
}

impl UopProfile {
    /// Records one retired micro-op.
    #[inline]
    pub fn record(&mut self, kind: UopKind, base_cost: u32) {
        self.count[kind as usize] += 1;
        self.cycles[kind as usize] += u64::from(base_cost);
    }

    /// Records a batched simple run (costs from a [`uop_cost_table`]).
    pub fn record_batch(
        &mut self,
        dp: &DecodedProgram,
        start: u32,
        n: u32,
        cost_table: &[u32; UOP_KIND_COUNT],
    ) {
        let start = start as usize;
        for u in &dp.ops()[start..start + n as usize] {
            self.record(u.kind, cost_table[u.kind as usize]);
        }
    }

    /// Total retired micro-ops.
    #[must_use]
    pub fn total_count(&self) -> u64 {
        self.count.iter().sum()
    }

    /// Total charged base cycles.
    #[must_use]
    pub fn total_cycles(&self) -> u64 {
        self.cycles.iter().sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn profile_records_counts_and_cycles() {
        let mut p = UopProfile::default();
        p.record(UopKind::MulRR, 3);
        p.record(UopKind::MulRR, 3);
        p.record(UopKind::BranchEq, 1);
        assert_eq!(p.count[UopKind::MulRR as usize], 2);
        assert_eq!(p.cycles[UopKind::MulRR as usize], 6);
        assert_eq!(p.total_count(), 3);
        assert_eq!(p.total_cycles(), 7);
    }

    #[test]
    fn cost_table_matches_reference_costs() {
        let costs = CostModel::default();
        let t = uop_cost_table(&costs);
        assert_eq!(t[UopKind::AddRR as usize], costs.alu);
        assert_eq!(t[UopKind::MulRI as usize], costs.mul);
        assert_eq!(t[UopKind::DivRR as usize], costs.div);
        assert_eq!(t[UopKind::BranchGt as usize], costs.control);
        assert_eq!(t[UopKind::Ret as usize], costs.control);
        assert_eq!(t[UopKind::SysRand as usize], costs.syscall);
        assert_eq!(t[UopKind::Check as usize], costs.check);
        assert_eq!(t[UopKind::SetWatch as usize], costs.watch_op);
        assert_eq!(t[UopKind::PMovI as usize], costs.alu);
    }
}
