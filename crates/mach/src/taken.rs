//! The committed (taken) path: the one machine the baseline runner, both
//! PathExpander engines and the branch profiler step.
//!
//! In the paper's standard configuration (§4.2, Figure 4(a)) the taken path
//! runs exactly as on the baseline processor; PathExpander only adds a
//! spawn decision at each conditional branch. [`TakenPath`] is that
//! processor: the loaded memory image, the core, the cache hierarchy, the
//! watch table, the taken branch coverage, the monitor area and the
//! prime-path trail, with the per-step bookkeeping every caller shares.
//!
//! A caller either hands [`TakenPath::follow`] a branch hook (the baseline
//! never stops, the standard engine stops to spawn an NT-path, the profiler
//! widens operand ranges), or — the CMP primary, whose steps interleave with
//! other cores' and store through a copy-on-write view — retires
//! [`TakenPath::batch`]es, interprets the rest itself and settles each step
//! with [`TakenPath::settle`] and [`TakenPath::enter`].
//!
//! [`TakenPath::wide_batch`] also retires plain loads and stores in its
//! batches, when no fault plan is installed and the watch table is empty:
//! then no access can raise an event, so a batch is observationally one
//! step per op. `follow` always takes it; the CMP primary takes it while no
//! NT-path is live, when its stores need no copy-on-write and its clock no
//! deadline.

use px_isa::{DecodedProgram, Edge, Program, UOP_KIND_COUNT};

use crate::cache::{Hierarchy, COMMITTED};
use crate::config::{CostModel, MachConfig};
use crate::core::CoreState;
use crate::coverage::Coverage;
use crate::exec::{Branch, StepEnv, StepEvent};
use crate::fault::{FaultPlan, SimError};
use crate::io::IoState;
use crate::memo::MemoNote;
use crate::memory::Memory;
use crate::monitor::{MonitorArea, PathKind};
use crate::paths::{PathCoverage, PathPlan, PathTrail};
use crate::runner::{load_program, RunExit};
use crate::uexec::{retire_wide, run_simple, simple_steps_until, step_uop, uop_cost_table};
use crate::watch::WatchTable;

/// Why the taken path handed control back to its caller.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Halt {
    /// A conditional branch resolved. Its coverage is recorded; the block it
    /// leads to is not yet entered (see [`TakenPath::enter`]).
    Branch(Branch),
    /// The run ended.
    Exit(RunExit),
}

/// Prime-path tracking (opt-in, purely observational): the plan, the
/// coverage every trail records into, and the taken path's own trail. An
/// NT-path forks its trail from `trail` at its spawn branch.
#[derive(Debug)]
pub struct Tracking<'a> {
    /// The prime paths matched.
    pub plan: &'a PathPlan,
    /// Paths covered by the taken path and every NT-path.
    pub cov: PathCoverage,
    /// The taken path's position in the matcher.
    pub trail: PathTrail,
}

/// The committed path of one run (see the module documentation).
#[derive(Debug)]
pub struct TakenPath<'a> {
    program: &'a Program,
    dp: &'a DecodedProgram,
    costs: &'a CostModel,
    /// Base cycles per micro-op kind, for batched simple runs.
    pub cost_table: [u32; UOP_KIND_COUNT],
    /// The committed registers and pc.
    pub core: CoreState,
    /// The committed memory image.
    pub memory: Memory,
    /// Program I/O.
    pub io: IoState,
    /// Every core's caches; the taken path runs on core 0.
    pub caches: Hierarchy,
    /// The committed watch table.
    pub watches: WatchTable,
    /// Taken-path branch coverage.
    pub coverage: Coverage,
    /// Checker records of the taken path (and, in the engines, NT-paths).
    pub monitor: MonitorArea,
    /// Prime-path tracking, when the run was given a plan.
    pub tracking: Option<Tracking<'a>>,
    /// Consulted before every taken step, which then never batches. Only
    /// the baseline installs one: an engine's taken path is the reference
    /// its containment check diffs against.
    fault: Option<&'a mut FaultPlan>,
    /// The instruction budget.
    budget: u64,
    /// Instructions retired against `budget`: the taken path's, plus every
    /// NT step an engine counts here.
    pub instructions: u64,
    /// Instructions the taken path itself retired.
    pub retired: u64,
    /// Of `retired`, those retired in batches rather than stepped.
    pub batched: u64,
}

impl<'a> TakenPath<'a> {
    /// Validates `cfg`, loads `program` and places the core at its entry.
    /// `dp` must be `DecodedProgram::decode(program)`.
    ///
    /// # Errors
    ///
    /// A [`load_program`] error, handed back with the unused `io`.
    pub fn new(
        program: &'a Program,
        dp: &'a DecodedProgram,
        cfg: &'a MachConfig,
        io: IoState,
        budget: u64,
        fault: Option<&'a mut FaultPlan>,
        plan: Option<&'a PathPlan>,
    ) -> Result<TakenPath<'a>, (SimError, IoState)> {
        debug_assert_eq!(dp.len(), program.code.len(), "another program's decode");
        let memory = match load_program(program, cfg) {
            Ok(memory) => memory,
            Err(e) => return Err((e, io)),
        };
        let tracking = plan.map(|plan| {
            let mut t = Tracking {
                plan,
                cov: plan.new_coverage(),
                trail: PathTrail::default(),
            };
            t.trail.enter_pc(plan, &mut t.cov, program.entry);
            t
        });
        Ok(TakenPath {
            program,
            dp,
            costs: &cfg.costs,
            cost_table: uop_cost_table(&cfg.costs),
            core: CoreState::at_entry(program.entry, memory.size()),
            memory,
            io,
            caches: Hierarchy::new(cfg),
            watches: WatchTable::new(),
            coverage: Coverage::for_program(program),
            monitor: MonitorArea::new(),
            tracking,
            fault,
            budget,
            instructions: 0,
            retired: 0,
            batched: 0,
        })
    }

    /// Retires the simple run at the pc in one batch, charging `clock`, and
    /// returns its length: 0 when the pc starts no simple run, under a fault
    /// plan, or at the budget. The batch stops at the budget and at
    /// `deadline`, the last clock at which the core still holds the schedule
    /// (`u64::MAX` when nothing competes for it).
    #[inline(always)]
    pub fn batch(&mut self, clock: &mut u64, deadline: u64) -> u32 {
        let pc = self.core.pc;
        let run = self.dp.simple_run(pc);
        if run == 0 || self.fault.is_some() {
            return 0;
        }
        let n = simple_steps_until(
            self.dp,
            pc,
            self.cap(run),
            &self.cost_table,
            *clock,
            deadline,
        );
        *clock += run_simple(self.dp, &mut self.core, n, &self.cost_table);
        self.batched_from(pc, n);
        n
    }

    /// [`batch`](Self::batch) with no deadline, widened to the wide run at
    /// the pc (see [`DecodedProgram::wide_run`]) when the watch table is
    /// empty: plain loads and stores retire in the batch too, each access
    /// charged to core 0's committed lines in program order. The batch
    /// stops before an access that would crash, which the caller then
    /// steps. Under a fault plan this returns 0 at once; with watches set
    /// it is `batch(clock, u64::MAX)`.
    #[inline(always)]
    pub fn wide_batch(&mut self, clock: &mut u64) -> u32 {
        if self.fault.is_some() {
            return 0;
        }
        if !self.watches.is_empty() {
            return self.batch(clock, u64::MAX);
        }
        let pc = self.core.pc;
        let run = self.dp.wide_run(pc);
        if run == 0 {
            return 0;
        }
        let cap = self.cap(run);
        let (n, cost) = retire_wide(
            self.dp,
            &mut self.core,
            cap,
            &self.cost_table,
            &mut self.memory,
            &mut self.caches,
        );
        *clock += cost;
        self.batched_from(pc, n);
        n
    }

    /// `run` cut at the instruction budget.
    #[inline(always)]
    fn cap(&self, run: u32) -> u32 {
        u64::from(run).min(self.budget.saturating_sub(self.instructions)) as u32
    }

    /// Counts a batch of `n` ops from `pc` and walks the trail over them.
    #[inline(always)]
    fn batched_from(&mut self, pc: u32, n: u32) {
        self.instructions += u64::from(n);
        self.retired += u64::from(n);
        self.batched += u64::from(n);
        if let Some(t) = &mut self.tracking {
            t.trail.enter_range(t.plan, &mut t.cov, pc, n);
        }
    }

    /// The bookkeeping of one interpreted taken step whose `event` left
    /// the clock at `clock`: counts the instruction, records a branch's
    /// coverage, files a monitor record stamped `clock`, and maps an exit or
    /// crash to its [`RunExit`]. `None` means the caller goes on with
    /// [`enter`](Self::enter).
    #[inline(always)]
    pub fn settle(&mut self, event: StepEvent, clock: u64) -> Option<Halt> {
        self.instructions += 1;
        self.retired += 1;
        let exit = match event {
            StepEvent::Branch(br) => {
                self.coverage.record(br.pc, Edge::from_taken(br.taken));
                return Some(Halt::Branch(br));
            }
            StepEvent::CheckFailed { .. } | StepEvent::WatchHit { .. } => {
                self.monitor
                    .file(MemoNote::of(&event), clock, PathKind::Taken);
                return None;
            }
            StepEvent::Syscall { .. } | StepEvent::None => return None,
            StepEvent::Exit { code } => RunExit::Exited(code),
            StepEvent::Crash { kind, .. } => RunExit::Crashed(kind),
            StepEvent::UnsafeEvent { .. } => RunExit::EngineFault(SimError::Invariant(
                "the taken path never suppresses system calls",
            )),
        };
        Some(Halt::Exit(exit))
    }

    /// Control arrived at the core's pc: advances the prime-path trail.
    #[inline(always)]
    pub fn enter(&mut self) {
        if let Some(t) = &mut self.tracking {
            t.trail.enter_pc(t.plan, &mut t.cov, self.core.pc);
        }
    }

    /// Runs the taken path until the run ends or `hook` asks to stop at a
    /// resolved branch. Wide runs are batched
    /// ([`wide_batch`](Self::wide_batch)); every other micro-op is
    /// interpreted, its base cost and its access to core 0's committed
    /// lines charged to `clock`, and settled. A deferred (cache-level) fault
    /// is PathExpander-specific and ignored here. The hook sees the path,
    /// the clock (to charge a spawn) and the branch. At a stop the branch's
    /// successor block is not yet entered, so the caller can fork the trail
    /// there; it calls [`enter`](Self::enter) before following again.
    #[inline(always)]
    pub fn follow<H>(&mut self, clock: &mut u64, mut hook: H) -> Halt
    where
        H: FnMut(&Self, &mut u64, &Branch) -> bool,
    {
        loop {
            if self.instructions >= self.budget {
                return Halt::Exit(RunExit::BudgetExhausted);
            }
            if self.wide_batch(clock) > 0 {
                continue;
            }
            let s = {
                let mut env = StepEnv {
                    io: &mut self.io,
                    watches: &mut self.watches,
                    suppress_syscalls: false,
                    now_cycles: *clock,
                    costs: self.costs,
                    fault: self.fault.as_deref_mut(),
                };
                let (program, dp) = (self.program, self.dp);
                step_uop(program, dp, &mut self.core, &mut self.memory, &mut env)
            };
            *clock += u64::from(s.base_cost);
            if let Some(a) = s.access {
                *clock += u64::from(self.caches.access(0, a.addr, a.write, COMMITTED).cycles);
            }
            match self.settle(s.event, *clock) {
                Some(Halt::Branch(br)) if hook(self, clock, &br) => return Halt::Branch(br),
                Some(Halt::Branch(_)) | None => {}
                Some(exit) => return exit,
            }
            self.enter();
        }
    }
}
