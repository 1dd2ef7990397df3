//! The interface of one architectural step: what a step reads
//! ([`StepEnv`]) and what it reports ([`Step`], [`StepEvent`],
//! [`DataAccess`]). The interpreter itself is [`crate::uexec::step_uop`].
//!
//! A step is *pure* with respect to timing — it reports the instruction's
//! base cost and any data access, and the caller charges the memory
//! hierarchy. There are two callers. The committed path is one
//! [`crate::taken::TakenPath`] for every driver: the baseline runner, the
//! standard engine, the branch profiler and the CMP primary, which hands
//! it a copy-on-write store hook and the segment tag. It steps through
//! [`crate::taken::TakenPath::step`], charges core 0's lines under the
//! driver's store tag, files monitor records at the taken clock and sees a
//! fault plan only on the baseline. An NT-path is stepped by the
//! engines' shared excursion (`pathexpander`'s `nt` module), where the
//! conventions that stay per engine live: which clock stamps a record or a
//! deferred fault, and whether a stopping step counts toward the path's
//! length.

use px_isa::{CheckKind, SyscallCode};

use crate::config::CostModel;
use crate::fault::{FaultAction, FaultPlan};
use crate::io::IoState;
use crate::memory::CrashKind;
use crate::watch::WatchTable;

/// A data-memory access performed by a step, for cache timing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DataAccess {
    /// Byte address of the first accessed byte.
    pub addr: u32,
    /// Whether the access wrote memory.
    pub write: bool,
}

/// A conditional branch a step resolved. `operands` are the compared
/// values — the raw material for value-profile collection (profile-guided
/// fix refitting).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Branch {
    /// The branch's own index.
    pub pc: u32,
    /// Whether the branch went to `taken_target`.
    pub taken: bool,
    /// Where the taken edge leads.
    pub taken_target: u32,
    /// Where the fall-through edge leads.
    pub not_taken_target: u32,
    /// The compared values.
    pub operands: (i32, i32),
}

impl Branch {
    /// Where the edge the branch did *not* follow leads: an NT-path's entry.
    #[must_use]
    pub fn other_target(&self) -> u32 {
        if self.taken {
            self.not_taken_target
        } else {
            self.taken_target
        }
    }
}

/// What a step observed, beyond plain register updates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StepEvent {
    /// Nothing notable.
    None,
    /// A conditional branch resolved.
    Branch(Branch),
    /// A system call executed (taken path).
    Syscall { code: SyscallCode },
    /// A system call was *suppressed* because the step ran in an NT-path
    /// sandbox: the paper's unsafe event. The core state is unchanged and
    /// the program counter still points at the system call.
    UnsafeEvent { code: SyscallCode },
    /// A `check` probe failed (its condition was zero).
    CheckFailed { kind: CheckKind, site: u32, pc: u32 },
    /// A load/store touched a watched range.
    WatchHit {
        tag: u32,
        addr: u32,
        is_write: bool,
        pc: u32,
    },
    /// The program exited via the `exit` system call.
    Exit { code: i32 },
    /// The step crashed; the core state is unchanged.
    Crash { kind: CrashKind, pc: u32 },
}

impl StepEvent {
    /// Whether this event ends the current path (exit or crash) or, inside
    /// an NT-path, forces termination (unsafe event).
    #[must_use]
    pub fn is_terminal(&self) -> bool {
        matches!(
            self,
            StepEvent::Exit { .. } | StepEvent::Crash { .. } | StepEvent::UnsafeEvent { .. }
        )
    }
}

/// Result of one architectural step.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Step {
    /// The event observed, if any.
    pub event: StepEvent,
    /// Cycles charged before memory-hierarchy latency.
    pub base_cost: u32,
    /// The data access to run through the caches, if any.
    pub access: Option<DataAccess>,
    /// An injected fault the *caller* must apply (cache-level faults the
    /// interpreter cannot reach — see [`FaultAction::is_deferred`]).
    pub deferred: Option<FaultAction>,
}

/// Mutable environment a step executes in.
pub struct StepEnv<'a> {
    /// Program I/O and entropy.
    pub io: &'a mut IoState,
    /// Active watch ranges.
    pub watches: &'a mut WatchTable,
    /// When true (NT-path execution), system calls are suppressed and
    /// reported as [`StepEvent::UnsafeEvent`].
    pub suppress_syscalls: bool,
    /// Current simulated cycle (for the `time` system call).
    pub now_cycles: u64,
    /// Instruction cost model.
    pub costs: &'a CostModel,
    /// Optional fault plan, consulted once per step before the micro-op
    /// executes. `None` (the production configuration) costs one branch
    /// per step.
    pub fault: Option<&'a mut FaultPlan>,
}

impl core::fmt::Debug for StepEnv<'_> {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("StepEnv")
            .field("io", &self.io)
            .field("watches", &self.watches)
            .field("suppress_syscalls", &self.suppress_syscalls)
            .field("now_cycles", &self.now_cycles)
            .field("costs", &self.costs)
            .field("fault", &self.fault.is_some())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::CostModel;
    use crate::core::CoreState;
    use crate::io::IoState;
    use crate::memory::{MemView, Memory};
    use crate::uexec::step_uop;
    use crate::watch::WatchTable;
    use px_isa::{asm::assemble, DecodedProgram, Reg, SyscallCode, Width, DATA_BASE};

    fn run_snippet(src: &str, input: &[u8]) -> (CoreState, Memory, IoState, StepEvent) {
        let program = assemble(src).unwrap();
        let dp = DecodedProgram::decode(&program);
        let mut mem = Memory::new(px_isa::DEFAULT_MEM_SIZE);
        for item in &program.data {
            mem.try_load_blob(item.addr, &item.bytes).unwrap();
        }
        let mut core = CoreState::at_entry(program.entry, mem.size());
        let mut io = IoState::new(input.to_vec(), 7);
        let mut watches = WatchTable::new();
        let costs = CostModel::default();
        for _ in 0..100_000 {
            let mut env = StepEnv {
                io: &mut io,
                watches: &mut watches,
                suppress_syscalls: false,
                now_cycles: 0,
                costs: &costs,
                fault: None,
            };
            let s = step_uop(&program, &dp, &mut core, &mut mem, &mut env);
            match s.event {
                StepEvent::Exit { .. } | StepEvent::Crash { .. } => {
                    return (core, mem, io, s.event)
                }
                _ => {}
            }
        }
        panic!("snippet did not terminate");
    }

    #[test]
    fn arithmetic_loop_computes_sum() {
        let (_, _, io, event) = run_snippet(
            r"
            .code
            main:
                li r1, 0      ; sum
                li r2, 1      ; i
            loop:
                add r1, r1, r2
                addi r2, r2, 1
                ble r2, r3, loop ; r3 == 0, so falls through first time? no: set below
                li r3, 10
                ble r2, r3, loop
                mv r2, r1
                printi
                exit
            ",
            b"",
        );
        assert!(matches!(event, StepEvent::Exit { .. }));
        assert_eq!(io.output_string(), "55");
    }

    #[test]
    fn call_and_ret_follow_ra() {
        let (_, _, io, _) = run_snippet(
            r"
            .code
            main:
                call f
                mv r2, r1
                printi
                exit
            f:
                li r1, 9
                ret
            ",
            b"",
        );
        assert_eq!(io.output_string(), "9");
    }

    #[test]
    fn loads_stores_and_data_segment() {
        let (_, mem, io, _) = run_snippet(
            r"
            .data
            v: .word 5
            .code
            main:
                la r2, v
                lw r1, 0(r2)
                addi r1, r1, 1
                sw r1, 0(r2)
                mv r2, r1
                printi
                exit
            ",
            b"",
        );
        assert_eq!(io.output_string(), "6");
        let mut m = mem;
        assert_eq!(m.load(DATA_BASE, Width::Word).unwrap(), 6);
    }

    #[test]
    fn div_by_zero_crashes() {
        let (_, _, _, event) = run_snippet(
            ".code\nmain:\n  li r1, 4\n  li r2, 0\n  div r3, r1, r2\n  exit\n",
            b"",
        );
        assert!(matches!(
            event,
            StepEvent::Crash {
                kind: CrashKind::DivByZero,
                pc: 2
            }
        ));
    }

    #[test]
    fn null_deref_crashes() {
        let (_, _, _, event) = run_snippet(".code\nmain:\n  lw r1, 0(zero)\n  exit\n", b"");
        assert!(matches!(
            event,
            StepEvent::Crash {
                kind: CrashKind::NullDeref { addr: 0 },
                ..
            }
        ));
    }

    #[test]
    fn predicate_gates_fix_instructions_and_clears_on_control() {
        let program = assemble(
            r"
            .code
            main:
                pli r1, 42
                jmp next
            next:
                pli r2, 99
                exit
            ",
        )
        .unwrap();
        let dp = DecodedProgram::decode(&program);
        let mut mem = Memory::new(px_isa::DEFAULT_MEM_SIZE);
        let mut core = CoreState::at_entry(0, mem.size());
        core.pred = true; // as if spawned as NT-path
        let mut io = IoState::default();
        let mut watches = WatchTable::new();
        let costs = CostModel::default();
        for _ in 0..4 {
            let mut env = StepEnv {
                io: &mut io,
                watches: &mut watches,
                suppress_syscalls: true,
                now_cycles: 0,
                costs: &costs,
                fault: None,
            };
            let s = step_uop(&program, &dp, &mut core, &mut mem, &mut env);
            if s.event.is_terminal() {
                break;
            }
        }
        assert_eq!(core.regs.get(Reg::RV), 42, "fix executed at NT entry");
        assert_eq!(
            core.regs.get(Reg::A0),
            0,
            "fix after control transfer is a NOP"
        );
        assert!(!core.pred);
    }

    #[test]
    fn suppressed_syscall_reports_unsafe_event_without_side_effects() {
        let program = assemble(".code\nmain:\n  li r2, 65\n  putc\n  exit\n").unwrap();
        let dp = DecodedProgram::decode(&program);
        let mut mem = Memory::new(px_isa::DEFAULT_MEM_SIZE);
        let mut core = CoreState::at_entry(0, mem.size());
        let mut io = IoState::default();
        let mut watches = WatchTable::new();
        let costs = CostModel::default();
        let mut env = StepEnv {
            io: &mut io,
            watches: &mut watches,
            suppress_syscalls: true,
            now_cycles: 0,
            costs: &costs,
            fault: None,
        };
        let s1 = step_uop(&program, &dp, &mut core, &mut mem, &mut env);
        assert!(matches!(s1.event, StepEvent::None));
        let mut env = StepEnv {
            io: &mut io,
            watches: &mut watches,
            suppress_syscalls: true,
            now_cycles: 0,
            costs: &costs,
            fault: None,
        };
        let s2 = step_uop(&program, &dp, &mut core, &mut mem, &mut env);
        assert!(matches!(
            s2.event,
            StepEvent::UnsafeEvent {
                code: SyscallCode::PutChar
            }
        ));
        assert_eq!(core.pc, 1, "pc still at the system call");
        assert!(io.output().is_empty(), "no side effect leaked");
    }

    #[test]
    fn check_fires_only_on_zero() {
        let (_, _, _, event) =
            run_snippet(".code\nmain:\n  li r1, 1\n  assert r1, #3\n  exit\n", b"");
        assert!(matches!(event, StepEvent::Exit { .. }));

        let program = assemble(".code\nmain:\n  assert r1, #3\n  exit\n").unwrap();
        let dp = DecodedProgram::decode(&program);
        let mut mem = Memory::new(px_isa::DEFAULT_MEM_SIZE);
        let mut core = CoreState::at_entry(0, mem.size());
        let mut io = IoState::default();
        let mut watches = WatchTable::new();
        let costs = CostModel::default();
        let mut env = StepEnv {
            io: &mut io,
            watches: &mut watches,
            suppress_syscalls: false,
            now_cycles: 0,
            costs: &costs,
            fault: None,
        };
        let s = step_uop(&program, &dp, &mut core, &mut mem, &mut env);
        assert!(matches!(
            s.event,
            StepEvent::CheckFailed {
                kind: CheckKind::Assertion,
                site: 3,
                pc: 0
            }
        ));
        assert_eq!(core.pc, 1, "execution continues after a failed check");
    }

    #[test]
    fn watch_hit_reported_on_store() {
        let program = assemble(
            r"
            .code
            main:
                li r4, 0x2000
                li r5, 8
                watch r4, r5, #9
                sw r1, 0(r4)
                exit
            ",
        )
        .unwrap();
        let dp = DecodedProgram::decode(&program);
        let mut mem = Memory::new(px_isa::DEFAULT_MEM_SIZE);
        let mut core = CoreState::at_entry(0, mem.size());
        let mut io = IoState::default();
        let mut watches = WatchTable::new();
        let costs = CostModel::default();
        let mut hit = None;
        for _ in 0..5 {
            let mut env = StepEnv {
                io: &mut io,
                watches: &mut watches,
                suppress_syscalls: false,
                now_cycles: 0,
                costs: &costs,
                fault: None,
            };
            let s = step_uop(&program, &dp, &mut core, &mut mem, &mut env);
            if let StepEvent::WatchHit {
                tag,
                addr,
                is_write,
                ..
            } = s.event
            {
                hit = Some((tag, addr, is_write));
            }
            if s.event.is_terminal() {
                break;
            }
        }
        assert_eq!(hit, Some((9, 0x2000, true)));
    }

    #[test]
    fn branch_event_reports_both_targets() {
        let program = assemble(".code\nmain:\n  beq zero, zero, t\n  nop\nt:  exit\n").unwrap();
        let dp = DecodedProgram::decode(&program);
        let mut mem = Memory::new(px_isa::DEFAULT_MEM_SIZE);
        let mut core = CoreState::at_entry(0, mem.size());
        let mut io = IoState::default();
        let mut watches = WatchTable::new();
        let costs = CostModel::default();
        let mut env = StepEnv {
            io: &mut io,
            watches: &mut watches,
            suppress_syscalls: false,
            now_cycles: 0,
            costs: &costs,
            fault: None,
        };
        let s = step_uop(&program, &dp, &mut core, &mut mem, &mut env);
        assert_eq!(
            s.event,
            StepEvent::Branch(Branch {
                pc: 0,
                taken: true,
                taken_target: 2,
                not_taken_target: 1,
                operands: (0, 0),
            })
        );
        assert_eq!(core.pc, 2);
    }
}
