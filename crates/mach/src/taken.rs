//! The committed (taken) path: the one machine the baseline runner, both
//! PathExpander engines and the branch profiler step.
//!
//! In the paper's standard configuration (§4.2, Figure 4(a)) the taken path
//! runs exactly as on the baseline processor; PathExpander only adds a
//! spawn decision at each conditional branch, and the CMP option (§4.3)
//! adds segment-tagged stores and forced commits. [`TakenPath`] is that
//! processor: the loaded memory image, the core, the cache hierarchy, the
//! watch table, the taken branch coverage, the monitor area and the
//! prime-path trail, with the per-step bookkeeping every caller shares.
//!
//! The committed path advances two ways. [`TakenPath::batch`] retires the
//! wide run at the pc (register-only ops and plain loads and stores) in one
//! loop, and [`TakenPath::step`] interprets one micro-op; the caller then
//! settles it with [`TakenPath::settle`] and [`TakenPath::enter`]. Both
//! charge core 0's caches under the caller's store tag and show each store
//! to the caller's hook before it lands. A batch stops before any access
//! that could raise an event (a crash or a watch hit) and right after one
//! that displaced a volatile line, so it is observationally one step per
//! op.
//!
//! A caller either hands [`TakenPath::follow`] a branch hook (the baseline
//! never stops, the standard engine stops to spawn an NT-path, the profiler
//! widens operand ranges), which batches and steps on committed lines with
//! no hook and no deadline, or — the CMP primary, whose steps interleave
//! with other cores' — calls `batch` and `step` itself: with its
//! copy-on-write preserve sweep as the store hook, the segment tag while
//! NT-paths are live, and the schedule's deadline.

use px_isa::{DecodedProgram, Edge, Program, Width, UOP_KIND_COUNT};

use crate::cache::{Access, Hierarchy, COMMITTED};
use crate::config::{CostModel, MachConfig};
use crate::core::CoreState;
use crate::coverage::Coverage;
use crate::exec::{Branch, StepEnv, StepEvent};
use crate::fault::{FaultPlan, SimError};
use crate::io::IoState;
use crate::memo::MemoNote;
use crate::memory::{CrashKind, MemView, Memory};
use crate::monitor::{MonitorArea, PathKind};
use crate::paths::{PathCoverage, PathPlan, PathTrail};
use crate::runner::{load_program, RunExit};
use crate::uexec::{plain_access, plain_access_kind, simple, step_uop, uop_cost_table};
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
    /// Base cycles per micro-op kind, for batched runs.
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

    /// Retires the wide run at the pc (see [`DecodedProgram::wide_run`]) in
    /// one batch, charging `clock`, and returns its length with the volatile
    /// tag of a line one of its accesses displaced from core 0's L1. Each
    /// load and store is charged to core 0 in program order, a store's line
    /// tagged `vtag`; `store` sees the committed image just before each
    /// store lands, as [`step`](Self::step) shows it. The batch stops at the
    /// budget; at `deadline`, the last clock at which the core still holds
    /// the schedule (`u64::MAX` when nothing competes for it), by the grant
    /// rule of [`crate::simple_steps_until`] with access cycles counted;
    /// before an access that would crash or that the watch table reports;
    /// and after an access that displaced a volatile line. Under a fault
    /// plan it returns 0 at once. The ops it stops before are the caller's
    /// to step; stopping is all it does at an eviction.
    #[inline(always)]
    pub fn batch<S>(
        &mut self,
        clock: &mut u64,
        deadline: u64,
        vtag: u8,
        mut store: S,
    ) -> (u32, Option<u8>)
    where
        S: FnMut(&Memory, u32, Width),
    {
        let pc = self.core.pc;
        let run = self.dp.wide_run(pc);
        if run == 0 || self.fault.is_some() {
            return (0, None);
        }
        let dp = self.dp;
        let mut now = *clock;
        let mut n = 0u32;
        let mut evicted = None;
        for &u in &dp.ops()[pc as usize..(pc + self.cap(run)) as usize] {
            if n > 0 && now > deadline {
                break;
            }
            let cost = u64::from(self.cost_table[u.kind as usize]);
            if let Some((width, write)) = plain_access_kind(u.kind) {
                let Some(addr) = plain_access(
                    width,
                    write,
                    u,
                    &mut self.core,
                    &mut self.memory,
                    &self.watches,
                    &mut store,
                ) else {
                    break;
                };
                let a = self.caches.access(0, addr, write, vtag);
                now += cost + u64::from(a.cycles);
                n += 1;
                if a.volatile_evicted.is_some() {
                    evicted = a.volatile_evicted;
                    break;
                }
            } else {
                simple(&mut self.core, u);
                now += cost;
                n += 1;
            }
        }
        *clock = now;
        self.core.pc = pc + n;
        self.batched_from(pc, n);
        (n, evicted)
    }

    /// Interprets the micro-op at the pc, charging `clock` its base cost
    /// and its access to core 0, a store's line tagged `vtag`. `store` sees
    /// the committed image just before a store lands (a crashing store
    /// lands nothing). Returns the step's event, its base cost and the
    /// cache's answer, for the caller to act on before it calls
    /// [`settle`](Self::settle). A deferred (cache-level) fault is
    /// PathExpander-specific and ignored here.
    #[inline(always)]
    pub fn step<S>(
        &mut self,
        clock: &mut u64,
        vtag: u8,
        store: S,
    ) -> (StepEvent, u32, Option<Access>)
    where
        S: FnMut(&Memory, u32, Width),
    {
        let s = {
            let mut env = StepEnv {
                io: &mut self.io,
                watches: &mut self.watches,
                suppress_syscalls: false,
                now_cycles: *clock,
                costs: self.costs,
                fault: self.fault.as_deref_mut(),
            };
            let mut view = Hooked {
                memory: &mut self.memory,
                store,
            };
            step_uop(self.program, self.dp, &mut self.core, &mut view, &mut env)
        };
        *clock += u64::from(s.base_cost);
        let access = s.access.map(|a| {
            let a = self.caches.access(0, a.addr, a.write, vtag);
            *clock += u64::from(a.cycles);
            a
        });
        (s.event, s.base_cost, access)
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
    /// resolved branch: [`batch`](Self::batch)es with no deadline, and a
    /// [`step`](Self::step) and [`settle`](Self::settle) for every other
    /// micro-op, all on committed lines. The hook sees the path, the clock
    /// (to charge a spawn) and the branch. At a stop the branch's successor
    /// block is not yet entered, so the caller can fork the trail there; it
    /// calls [`enter`](Self::enter) before following again.
    #[inline(always)]
    pub fn follow<H>(&mut self, clock: &mut u64, mut hook: H) -> Halt
    where
        H: FnMut(&Self, &mut u64, &Branch) -> bool,
    {
        loop {
            if self.instructions >= self.budget {
                return Halt::Exit(RunExit::BudgetExhausted);
            }
            if self.batch(clock, u64::MAX, COMMITTED, |_, _, _| {}).0 > 0 {
                continue;
            }
            let (event, _, _) = self.step(clock, COMMITTED, |_, _, _| {});
            match self.settle(event, *clock) {
                Some(Halt::Branch(br)) if hook(self, clock, &br) => return Halt::Branch(br),
                Some(Halt::Branch(_)) | None => {}
                Some(exit) => return exit,
            }
            self.enter();
        }
    }
}

/// The committed image as [`TakenPath::step`] stores through it: a store
/// that will land first shows the caller's hook the image it overwrites.
struct Hooked<'m, S> {
    memory: &'m mut Memory,
    store: S,
}

impl<S: FnMut(&Memory, u32, Width)> MemView for Hooked<'_, S> {
    #[inline(always)]
    fn load(&mut self, addr: u32, width: Width) -> Result<i32, CrashKind> {
        self.memory.load(addr, width)
    }

    #[inline(always)]
    fn store(&mut self, addr: u32, value: i32, width: Width) -> Result<(), CrashKind> {
        self.memory.check(addr, width.bytes())?;
        (self.store)(self.memory, addr, width);
        self.memory.store(addr, value, width)
    }
}
