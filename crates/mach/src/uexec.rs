//! Micro-op execution: the simulator's instruction interpreter.
//!
//! [`step_uop`] executes one architectural step of one core: after the
//! fault-injection prologue it dispatches a pre-decoded [`MicroOp`] through
//! one `match` on its [`UopKind`]. Each arm names its ALU operation, branch
//! condition, access width or system call as a literal and calls a small
//! always-inlined helper per family, so every arm is specialized to its
//! kind; statically validated control targets skip their range checks
//! entirely (`UopKind::Jump` vs `UopKind::JumpBad`). The baseline runner,
//! both PathExpander engines and the profiling run of fix refitting all step
//! through it.
//!
//! [`run_simple`] is the batch fast path: it retires a run of *simple*
//! micro-ops (see [`MicroOp::is_simple`]) in one tight loop through the same
//! ALU and predicated-fix helpers, summing their base costs from a
//! [`uop_cost_table`]. Simple runs raise no events, touch no memory, cannot
//! crash and never read the cycle counter, so batching is observationally
//! identical to stepping. NT-paths batch them.
//!
//! The committed path widens the batch ([`crate::TakenPath::batch`]): a
//! *wide* run (see [`DecodedProgram::wide_run`]) also holds plain loads and
//! stores, which the batch performs on the committed image through
//! `plain_access` and charges to core 0's caches in program order. It
//! stops before an access that would crash or that the watch table reports,
//! so [`step_uop`] takes that op and raises its event. NT-paths batch
//! simple runs only: the replay cache records and replays those alone.
//!
//! `tests/uop_differential.rs` holds an independent byte-decode reference
//! interpreter and checks that this module agrees with it on every program,
//! including invalid ones and under injected faults, and that batching
//! equals stepping.

use px_isa::{
    AluOp, BranchCond, DecodedProgram, MicroOp, Program, Reg, SyscallCode, UopKind, Width,
    DATA_BASE, UOP_KIND_COUNT,
};

use crate::config::CostModel;
use crate::core::CoreState;
use crate::exec::{Branch, DataAccess, Step, StepEnv, StepEvent};
use crate::fault::FaultAction;
use crate::memory::{CrashKind, MemView, Memory};
use crate::watch::WatchTable;

use self::Rhs::{Imm, Rs2};

#[inline(always)]
fn step(event: StepEvent, base_cost: u32, access: Option<DataAccess>) -> Step {
    Step {
        event,
        base_cost,
        access,
        deferred: None,
    }
}

#[inline(always)]
fn plain(base_cost: u32) -> Step {
    step(StepEvent::None, base_cost, None)
}

#[inline(always)]
fn crash(kind: CrashKind, pc: u32, base_cost: u32) -> Step {
    step(StepEvent::Crash { kind, pc }, base_cost, None)
}

#[inline(always)]
fn advance(core: &mut CoreState, pc: u32) {
    core.pc = pc.wrapping_add(1);
}

/// Ends a register-only step: the core advances, or — when the op divided
/// by zero (`ok == false`) — the step crashes with the core untouched.
#[inline(always)]
fn retire(ok: bool, core: &mut CoreState, pc: u32, base_cost: u32) -> Step {
    if ok {
        advance(core, pc);
        plain(base_cost)
    } else {
        crash(CrashKind::DivByZero, pc, base_cost)
    }
}

/// The second ALU operand: register `rs2` (`*RR` kinds) or the immediate
/// (`*RI` kinds and `PAluI`).
#[derive(Clone, Copy)]
enum Rhs {
    Rs2,
    Imm,
}

/// `rd := op(rs1, rhs)`. Returns `false`, leaving `rd` untouched, on a zero
/// divisor — the only `None` of [`AluOp::eval`], so for every other `op`
/// the check folds away.
#[inline(always)]
fn alu(core: &mut CoreState, u: MicroOp, op: AluOp, rhs: Rhs) -> bool {
    let a = core.regs.get(Reg::new(u.b));
    let b = match rhs {
        Rs2 => core.regs.get(Reg::new(u.c)),
        Imm => u.imm,
    };
    let Some(v) = op.eval(a, b) else {
        return false;
    };
    core.regs.set(Reg::new(u.a), v);
    true
}

/// The predicated register fixes (`PMovI`, `PMov`, `PAluI`): each writes its
/// register only while the fix predicate is set. Returns `false` only when
/// a `PAluI` divides by zero, with the register file untouched.
#[inline(always)]
fn pfix(core: &mut CoreState, u: MicroOp) -> bool {
    if !core.pred {
        return true;
    }
    match u.kind {
        UopKind::PMovI => core.regs.set(Reg::new(u.a), u.imm),
        UopKind::PMov => core.regs.set(Reg::new(u.a), core.regs.get(Reg::new(u.b))),
        UopKind::PAluI => return alu(core, u, u.palu_op(), Imm),
        kind => unreachable!("{kind:?} is not a predicated fix"),
    }
    true
}

#[inline(always)]
fn effective_addr(core: &CoreState, u: MicroOp) -> u32 {
    (core.regs.get(Reg::new(u.b)) as u32).wrapping_add(u.imm as u32)
}

/// A load (`rd := mem[rs1 + imm]`) or, when `write`, a store
/// (`mem[rs1 + imm] := rs`) of `width`, reporting a hit on a watched range.
#[inline(always)]
fn access<M: MemView + ?Sized>(
    width: Width,
    write: bool,
    u: MicroOp,
    pc: u32,
    core: &mut CoreState,
    mem: &mut M,
    env: &mut StepEnv<'_>,
) -> Step {
    let addr = effective_addr(core, u);
    let done = if write {
        mem.store(addr, core.regs.get(Reg::new(u.a)), width)
    } else {
        mem.load(addr, width)
            .map(|v| core.regs.set(Reg::new(u.a), v))
    };
    if let Err(kind) = done {
        return crash(kind, pc, env.costs.alu);
    }
    let mut base_cost = env.costs.alu;
    let mut event = StepEvent::None;
    if let Some(tag) = env.watches.hit(addr, width.bytes()) {
        base_cost += env.costs.watch_hit;
        event = StepEvent::WatchHit {
            tag,
            addr,
            is_write: write,
            pc,
        };
    }
    advance(core, pc);
    step(event, base_cost, Some(DataAccess { addr, write }))
}

/// A predicated store: a store of `width` while the fix predicate is set
/// (watch ranges are not consulted), a no-op otherwise.
#[inline(always)]
fn pstore<M: MemView + ?Sized>(
    width: Width,
    u: MicroOp,
    pc: u32,
    core: &mut CoreState,
    mem: &mut M,
    costs: &CostModel,
) -> Step {
    if !core.pred {
        advance(core, pc);
        return plain(costs.alu);
    }
    let addr = effective_addr(core, u);
    if let Err(kind) = mem.store(addr, core.regs.get(Reg::new(u.a)), width) {
        return crash(kind, pc, costs.alu);
    }
    advance(core, pc);
    step(
        StepEvent::None,
        costs.alu,
        Some(DataAccess { addr, write: true }),
    )
}

/// A conditional branch on `cond`. The taken target was validated at
/// decode time: only micro-ops carrying [`MicroOp::BR_BAD_TARGET`] pay a
/// range check, and then only to crash.
#[inline(always)]
fn branch(cond: BranchCond, u: MicroOp, pc: u32, core: &mut CoreState, costs: &CostModel) -> Step {
    let operands = (core.regs.get(Reg::new(u.b)), core.regs.get(Reg::new(u.c)));
    let taken = cond.eval(operands.0, operands.1);
    if taken && u.a & MicroOp::BR_BAD_TARGET != 0 {
        return crash(CrashKind::BadPc { pc: u.ext }, pc, costs.control);
    }
    let not_taken_target = pc + 1;
    core.pc = if taken { u.ext } else { not_taken_target };
    core.pred = false;
    let event = StepEvent::Branch(Branch {
        pc,
        taken,
        taken_target: u.ext,
        not_taken_target,
        operands,
    });
    step(event, costs.control, None)
}

/// System call `code`. Suppression (NT-path execution) reports the unsafe
/// event with the core untouched; `exit` reports the exit code and leaves
/// the core where it is.
#[inline(always)]
fn syscall(code: SyscallCode, pc: u32, core: &mut CoreState, env: &mut StepEnv<'_>) -> Step {
    if env.suppress_syscalls {
        return step(StepEvent::UnsafeEvent { code }, env.costs.control, None);
    }
    let a0 = core.regs.get(Reg::A0);
    match code {
        SyscallCode::Exit => {
            return step(StepEvent::Exit { code: a0 }, env.costs.syscall, None);
        }
        SyscallCode::PutChar => env.io.put_char(a0 as u8),
        SyscallCode::PrintInt => env.io.print_int(a0),
        SyscallCode::GetChar => core.regs.set(Reg::RV, env.io.get_char()),
        SyscallCode::ReadInt => core.regs.set(Reg::RV, env.io.read_int()),
        SyscallCode::Rand => core.regs.set(Reg::RV, env.io.rand()),
        SyscallCode::Time => core
            .regs
            .set(Reg::RV, (env.now_cycles & 0x7FFF_FFFF) as i32),
    }
    advance(core, pc);
    step(StepEvent::Syscall { code }, env.costs.syscall, None)
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
/// program, every `(core, mem, env)` state and every fault-plan decision,
/// `step_uop` and the reference interpreter there return identical
/// [`Step`]s and leave identical machine states.
#[inline]
pub fn step_uop<M: MemView + ?Sized>(
    program: &Program,
    dp: &DecodedProgram,
    core: &mut CoreState,
    mem: &mut M,
    env: &mut StepEnv<'_>,
) -> Step {
    let costs = env.costs;
    let pc = core.pc;
    let Some(&u) = dp.op(pc) else {
        return crash(CrashKind::BadPc { pc }, pc, costs.control);
    };

    // Fault-injection prologue — identical protocol to the reference
    // interpreter.
    let mut deferred: Option<FaultAction> = None;
    let mut redirect: Option<u32> = None;
    if let Some(plan) = env.fault.as_mut() {
        if let Some(action) = plan.before_step() {
            match action {
                FaultAction::ForceCrash { kind } => return crash(kind, pc, costs.control),
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

    // A dense match on the kind lowers to one indexed jump; no arm may
    // `return`, so every step carries the deferred fault and the redirect.
    let mut out = match u.kind {
        UopKind::Nop => retire(true, core, pc, costs.alu),
        UopKind::AddRR => retire(alu(core, u, AluOp::Add, Rs2), core, pc, costs.alu),
        UopKind::SubRR => retire(alu(core, u, AluOp::Sub, Rs2), core, pc, costs.alu),
        UopKind::MulRR => retire(alu(core, u, AluOp::Mul, Rs2), core, pc, costs.mul),
        UopKind::DivRR => retire(alu(core, u, AluOp::Div, Rs2), core, pc, costs.div),
        UopKind::RemRR => retire(alu(core, u, AluOp::Rem, Rs2), core, pc, costs.div),
        UopKind::AndRR => retire(alu(core, u, AluOp::And, Rs2), core, pc, costs.alu),
        UopKind::OrRR => retire(alu(core, u, AluOp::Or, Rs2), core, pc, costs.alu),
        UopKind::XorRR => retire(alu(core, u, AluOp::Xor, Rs2), core, pc, costs.alu),
        UopKind::ShlRR => retire(alu(core, u, AluOp::Shl, Rs2), core, pc, costs.alu),
        UopKind::ShrRR => retire(alu(core, u, AluOp::Shr, Rs2), core, pc, costs.alu),
        UopKind::SarRR => retire(alu(core, u, AluOp::Sar, Rs2), core, pc, costs.alu),
        UopKind::SltRR => retire(alu(core, u, AluOp::Slt, Rs2), core, pc, costs.alu),
        UopKind::SltuRR => retire(alu(core, u, AluOp::Sltu, Rs2), core, pc, costs.alu),
        UopKind::SleRR => retire(alu(core, u, AluOp::Sle, Rs2), core, pc, costs.alu),
        UopKind::SeqRR => retire(alu(core, u, AluOp::Seq, Rs2), core, pc, costs.alu),
        UopKind::SneRR => retire(alu(core, u, AluOp::Sne, Rs2), core, pc, costs.alu),
        UopKind::AddRI => retire(alu(core, u, AluOp::Add, Imm), core, pc, costs.alu),
        UopKind::SubRI => retire(alu(core, u, AluOp::Sub, Imm), core, pc, costs.alu),
        UopKind::MulRI => retire(alu(core, u, AluOp::Mul, Imm), core, pc, costs.mul),
        UopKind::DivRI => retire(alu(core, u, AluOp::Div, Imm), core, pc, costs.div),
        UopKind::RemRI => retire(alu(core, u, AluOp::Rem, Imm), core, pc, costs.div),
        UopKind::AndRI => retire(alu(core, u, AluOp::And, Imm), core, pc, costs.alu),
        UopKind::OrRI => retire(alu(core, u, AluOp::Or, Imm), core, pc, costs.alu),
        UopKind::XorRI => retire(alu(core, u, AluOp::Xor, Imm), core, pc, costs.alu),
        UopKind::ShlRI => retire(alu(core, u, AluOp::Shl, Imm), core, pc, costs.alu),
        UopKind::ShrRI => retire(alu(core, u, AluOp::Shr, Imm), core, pc, costs.alu),
        UopKind::SarRI => retire(alu(core, u, AluOp::Sar, Imm), core, pc, costs.alu),
        UopKind::SltRI => retire(alu(core, u, AluOp::Slt, Imm), core, pc, costs.alu),
        UopKind::SltuRI => retire(alu(core, u, AluOp::Sltu, Imm), core, pc, costs.alu),
        UopKind::SleRI => retire(alu(core, u, AluOp::Sle, Imm), core, pc, costs.alu),
        UopKind::SeqRI => retire(alu(core, u, AluOp::Seq, Imm), core, pc, costs.alu),
        UopKind::SneRI => retire(alu(core, u, AluOp::Sne, Imm), core, pc, costs.alu),
        UopKind::LoadByte => access(Width::Byte, false, u, pc, core, mem, env),
        UopKind::LoadWord => access(Width::Word, false, u, pc, core, mem, env),
        UopKind::StoreByte => access(Width::Byte, true, u, pc, core, mem, env),
        UopKind::StoreWord => access(Width::Word, true, u, pc, core, mem, env),
        UopKind::BranchEq => branch(BranchCond::Eq, u, pc, core, costs),
        UopKind::BranchNe => branch(BranchCond::Ne, u, pc, core, costs),
        UopKind::BranchLt => branch(BranchCond::Lt, u, pc, core, costs),
        UopKind::BranchGe => branch(BranchCond::Ge, u, pc, core, costs),
        UopKind::BranchLe => branch(BranchCond::Le, u, pc, core, costs),
        UopKind::BranchGt => branch(BranchCond::Gt, u, pc, core, costs),
        UopKind::Jump => {
            core.pc = u.ext;
            core.pred = false;
            plain(costs.control)
        }
        UopKind::Call => {
            core.regs.set(Reg::RA, (pc + 1) as i32);
            core.pc = u.ext;
            core.pred = false;
            plain(costs.control)
        }
        // The target check precedes the RA write in the reference
        // interpreter: a bad call leaves the register file untouched.
        UopKind::JumpBad | UopKind::CallBad => {
            crash(CrashKind::BadPc { pc: u.ext }, pc, costs.control)
        }
        UopKind::Ret => {
            let target = core.regs.get(Reg::RA) as u32;
            if (target as usize) < dp.len() {
                core.pc = target;
                core.pred = false;
                plain(costs.control)
            } else {
                crash(CrashKind::BadPc { pc: target }, pc, costs.control)
            }
        }
        UopKind::SysExit => syscall(SyscallCode::Exit, pc, core, env),
        UopKind::SysPutChar => syscall(SyscallCode::PutChar, pc, core, env),
        UopKind::SysGetChar => syscall(SyscallCode::GetChar, pc, core, env),
        UopKind::SysPrintInt => syscall(SyscallCode::PrintInt, pc, core, env),
        UopKind::SysReadInt => syscall(SyscallCode::ReadInt, pc, core, env),
        UopKind::SysRand => syscall(SyscallCode::Rand, pc, core, env),
        UopKind::SysTime => syscall(SyscallCode::Time, pc, core, env),
        UopKind::Check => {
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
            step(event, costs.check, None)
        }
        UopKind::SetWatch => {
            let lo = core.regs.get(Reg::new(u.a)) as u32;
            let len = core.regs.get(Reg::new(u.b)).max(0) as u32;
            env.watches.set(lo, len, u.ext);
            retire(true, core, pc, costs.watch_op)
        }
        UopKind::ClearWatch => {
            env.watches.clear(u.ext);
            retire(true, core, pc, costs.watch_op)
        }
        UopKind::PMovI | UopKind::PMov => retire(pfix(core, u), core, pc, costs.alu),
        UopKind::PAluI => {
            let base_cost = if core.pred {
                alu_cost(u.palu_op(), costs)
            } else {
                costs.alu
            };
            retire(pfix(core, u), core, pc, base_cost)
        }
        UopKind::PStoreByte => pstore(Width::Byte, u, pc, core, mem, costs),
        UopKind::PStoreWord => pstore(Width::Word, u, pc, core, mem, costs),
    };
    out.deferred = deferred;

    // A runaway redirect drags the pc backwards only when the instruction
    // completed (crash / unsafe-event / exit leave the core untouched).
    if let Some(max_back) = redirect {
        if !out.event.is_terminal() {
            core.pc = pc.saturating_sub(max_back);
        }
    }
    out
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

#[inline]
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
/// plan and leave the predicate unchanged, so this is observationally
/// identical to `n` calls of [`step_uop`] with no fault plan installed.
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
    for &u in &dp.ops()[start..start + n as usize] {
        cost += u64::from(cost_table[u.kind as usize]);
        simple(core, u);
    }
    core.pc += n;
    cost
}

/// Executes one simple micro-op (see [`MicroOp::is_simple`]).
#[inline(always)]
pub(crate) fn simple(core: &mut CoreState, u: MicroOp) {
    let total = match u.kind {
        UopKind::Nop => true,
        UopKind::PMovI | UopKind::PMov | UopKind::PAluI => pfix(core, u),
        kind => {
            let op = kind.alu_op().expect("simple run holds only ALU/fix ops");
            alu(core, u, op, if kind.is_alu_rr() { Rs2 } else { Imm })
        }
    };
    assert!(total, "simple ops never divide by zero");
}

/// The width and direction of a plain load or store (the memory ops of a
/// wide run, see [`DecodedProgram::wide_run`]); `None` for any other kind.
#[inline(always)]
pub(crate) fn plain_access_kind(kind: UopKind) -> Option<(Width, bool)> {
    match kind {
        UopKind::LoadByte => Some((Width::Byte, false)),
        UopKind::LoadWord => Some((Width::Word, false)),
        UopKind::StoreByte => Some((Width::Byte, true)),
        UopKind::StoreWord => Some((Width::Word, true)),
        _ => None,
    }
}

/// A plain load or store of `width` on the committed image, as a batch
/// retires it: a store first shows `store` the image it overwrites.
/// Returns the address, or `None`, with nothing changed, when `watches`
/// report the access or it would crash: then only a step can take it.
#[inline(always)]
pub(crate) fn plain_access<S: FnMut(&Memory, u32, Width)>(
    width: Width,
    write: bool,
    u: MicroOp,
    core: &mut CoreState,
    memory: &mut Memory,
    watches: &WatchTable,
    store: &mut S,
) -> Option<u32> {
    let addr = effective_addr(core, u);
    if watches.hit(addr, width.bytes()).is_some() {
        return None;
    }
    let done = if write {
        memory.check(addr, width.bytes()).and_then(|()| {
            store(memory, addr, width);
            memory.store(addr, core.regs.get(Reg::new(u.a)), width)
        })
    } else {
        memory
            .load(addr, width)
            .map(|v| core.regs.set(Reg::new(u.a), v))
    };
    done.ok().map(|()| addr)
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
    simple_cost_until(dp, pc, max_n, cost_table, start, deadline).0
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

    /// Records a batch of `n` micro-ops from `start` — an NT-path's simple
    /// run or a taken path's wide run — at their [`uop_cost_table`] costs.
    /// Those are the base costs a step charges them: a batch holds no
    /// watched access, so no load or store in it pays `watch_hit`.
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
