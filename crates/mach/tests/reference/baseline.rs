//! The reference baseline run: a loop of its own over the byte-decode
//! reference interpreter, one instruction at a time (no batching, so a
//! fault plan sees every instruction), with its own cache charging,
//! coverage, monitor filing and exit mapping. `px_mach::run_baseline_with`,
//! which runs the shared `TakenPath`, is checked against code it shares
//! nothing with but the cache model and the loader.

use px_isa::{Edge, Program};
use px_mach::{
    load_program, CoreState, Coverage, FaultPlan, Hierarchy, IoState, MachConfig, MemoNote, Memory,
    MonitorArea, PathKind, RunExit, RunResult, SimError, StepEnv, StepEvent, WatchTable, COMMITTED,
};

use super::step;

/// Runs `program` to its end or `max_instructions` on core 0 of `cfg`,
/// consulting `fault` before every instruction; deferred (cache-level)
/// faults are ignored, as on the baseline.
pub fn run(
    program: &Program,
    cfg: &MachConfig,
    mut io: IoState,
    max_instructions: u64,
    mut fault: Option<&mut FaultPlan>,
) -> RunResult {
    let mut memory = match load_program(program, cfg) {
        Ok(memory) => memory,
        Err(e) => {
            return RunResult {
                exit: RunExit::EngineFault(e),
                instructions: 0,
                cycles: 0,
                coverage: Coverage::for_program(program),
                monitor: MonitorArea::new(),
                io,
                memory: Memory::new(0),
                core: CoreState::default(),
                path_coverage: None,
            }
        }
    };
    let mut core = CoreState::at_entry(program.entry, memory.size());
    let mut caches = Hierarchy::new(cfg);
    let mut watches = WatchTable::new();
    let mut coverage = Coverage::for_program(program);
    let mut monitor = MonitorArea::new();
    let mut cycles: u64 = 0;
    let mut instructions: u64 = 0;
    let exit = loop {
        if instructions >= max_instructions {
            break RunExit::BudgetExhausted;
        }
        let mut env = StepEnv {
            io: &mut io,
            watches: &mut watches,
            suppress_syscalls: false,
            now_cycles: cycles,
            costs: &cfg.costs,
            fault: fault.as_deref_mut(),
        };
        let s = step(program, &mut core, &mut memory, &mut env);
        instructions += 1;
        cycles += u64::from(s.base_cost);
        if let Some(access) = s.access {
            let a = caches.access(0, access.addr, access.write, COMMITTED);
            cycles += u64::from(a.cycles);
        }
        match s.event {
            StepEvent::Branch(br) => coverage.record(br.pc, Edge::from_taken(br.taken)),
            StepEvent::CheckFailed { .. } | StepEvent::WatchHit { .. } => {
                monitor.file(MemoNote::of(&s.event), cycles, PathKind::Taken);
            }
            StepEvent::Exit { code } => break RunExit::Exited(code),
            StepEvent::Crash { kind, .. } => break RunExit::Crashed(kind),
            StepEvent::Syscall { .. } | StepEvent::None => {}
            StepEvent::UnsafeEvent { .. } => {
                break RunExit::EngineFault(SimError::Invariant(
                    "baseline never suppresses system calls",
                ));
            }
        }
    };
    RunResult {
        exit,
        instructions,
        cycles,
        coverage,
        monitor,
        io,
        memory,
        core,
        path_coverage: None,
    }
}
