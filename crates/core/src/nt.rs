//! The NT-path excursion both engines share.
//!
//! The standard configuration (§4.2) runs an NT-path inline on the one
//! core; the CMP optimisation (§4.3) runs it on an idle core. The lifecycle
//! is the same — exercise-counter selection, sandboxed execution, stop on
//! MaxNTPathLength, crash, unsafe event or overflow, squash — and this
//! module owns every part of it the engines do identically: run set-up and
//! result assembly ([`Run`], around the committed path every caller shares,
//! [`TakenPath`]), the spawn decision ([`Selection`]), the NT-path itself
//! ([`Path`]: its copy of the spawning core's registers, its sandbox, watch
//! table and I/O), the memo probe / record / store glue, a step's
//! interpretation, injected cache- and monitor-level faults, sandboxed cache
//! traffic and coverage/monitor effects, stop precedence, and memo replay
//! ([`Run::advance`]).
//!
//! §4.2's checkpoint-and-rollback and §4.3's register copy onto an idle
//! core come to the same thing here: a path runs on its own copy of the
//! core state, so its squash restores nothing, and its watch registrations
//! and I/O die with it.
//!
//! Helpers take values — a core index, a volatile tag, the clock to charge
//! or stamp, a scheduling deadline — never an engine identity. The
//! conventions in which the engines differ stay in the engines (DESIGN.md
//! §14): which clock stamps an NT monitor record or a deferred fault,
//! whether a step that stops the path on its own event counts toward
//! `executed`, and where squash cycles are charged.
//!
//! The per-step helpers are `#[inline(always)]`: left to the inliner,
//! `advance` stayed out of line and the standard engine's replay loop ran
//! about 1.5x slower per instruction on `nt-heavy`.

use std::sync::Arc;

use px_isa::{DecodedProgram, Edge, MicroOp, Program};
use px_mach::{
    memo_fingerprint, run_simple, simple_cost_until, simple_steps_until, step_uop, Branch, Btb,
    CoreState, Coverage, FaultAction, FaultPlan, IoState, MachConfig, MemoEntry, MemoNote,
    MemoProbe, MemoRecorder, MemoStep, MemoTable, Memory, MonitorArea, PathKind, PathTrail,
    RunExit, Sandbox, SandboxView, SimError, Step, StepEnv, StepEvent, TakenPath, WatchTable,
    COMMITTED,
};

use crate::config::PxConfig;
use crate::stats::{NtPathRecord, NtStop, PxRunResult, PxStats};

/// Watch tag used for synthetic monitor-pressure records, far outside the
/// range any real watchpoint uses, so tests and the containment checker can
/// tell injected records from organic ones.
pub const FAULT_WATCH_TAG: u32 = 0xFA01_7FA0;

/// The result of a run that could not start.
pub(crate) fn engine_fault(program: &Program, e: SimError, io: IoState) -> PxRunResult {
    PxRunResult {
        exit: RunExit::EngineFault(e),
        cycles: 0,
        taken_coverage: Coverage::for_program(program),
        total_coverage: Coverage::for_program(program),
        monitor: MonitorArea::new(),
        io,
        memory: Memory::new(0),
        core: CoreState::default(),
        stats: PxStats::default(),
        path_coverage: None,
    }
}

/// An empty memo table bound to `program` + configuration under an
/// engine's memo tag (the engines count `executed` differently on
/// event-terminated steps, so their bundles must never mix).
pub(crate) fn memo_table(
    program: &Program,
    mach: &MachConfig,
    px: &PxConfig,
    tag: u8,
) -> MemoTable {
    MemoTable::new(fingerprint(program, mach, px, tag))
}

fn fingerprint(program: &Program, mach: &MachConfig, px: &PxConfig, tag: u8) -> u64 {
    memo_fingerprint(
        &program.code,
        px.max_nt_path_len,
        px.apply_fixes,
        &mach.costs,
        tag,
    )
}

/// The run's memo table: none, one owned by the run, or the caller's.
enum Memo<'a> {
    Off,
    Own(MemoTable),
    Shared(&'a mut MemoTable),
}

impl Memo<'_> {
    fn table(&mut self) -> Option<&mut MemoTable> {
        match self {
            Memo::Off => None,
            Memo::Own(t) => Some(t),
            Memo::Shared(t) => Some(t),
        }
    }
}

/// Everything a run owns apart from the engine's cores and schedule.
pub(crate) struct Run<'a> {
    program: &'a Program,
    pub dp: &'a DecodedProgram,
    pub mach: &'a MachConfig,
    pub px: &'a PxConfig,
    /// The committed path. Its instruction count is the budget every path
    /// retires against, and its monitor area and prime-path coverage
    /// collect NT-path records too.
    pub taken: TakenPath<'a>,
    pub sel: Selection<'a>,
    pub stats: PxStats,
    /// Consulted on interpreted NT-path steps only.
    fault: Option<&'a mut FaultPlan>,
    memo: Memo<'a>,
}

/// The spawn decision's state (§4.2(1)): the BTB's exercise counters and
/// their periodic reset, the NT coverage, the static veto mask and the
/// random factor's generator. It lives apart from the [`TakenPath`] so a
/// branch hook can borrow it while the taken path runs.
pub(crate) struct Selection<'a> {
    px: &'a PxConfig,
    dp: &'a DecodedProgram,
    spawn_cycles: u64,
    btb: Btb,
    nt_cov: Coverage,
    /// Static NT-spawn veto mask, precomputed once per run (the analysis
    /// is pure; `None` keeps the paper's dynamic-only selection).
    static_veto: Option<Vec<[bool; 2]>>,
    /// Deterministic source for the §7.1(2) random spawn factor.
    spawn_rng: u64,
    /// Taken instructions since the last counter reset, as of `synced`
    /// retired taken instructions.
    since_reset: u64,
    synced: u64,
}

/// One NT-path's lifecycle state.
#[derive(Default)]
pub(crate) struct Excursion {
    pub spawn_pc: u32,
    pub executed: u32,
    /// Memo recorder (live paths under an active memo only).
    rec: Option<MemoRecorder>,
    trail: Option<PathTrail>,
}

/// A memo hit's position in its recorded bundle: the next step, plus how
/// far into the current batched run earlier grants already got.
pub(crate) struct Replay {
    entry: Arc<MemoEntry>,
    step: usize,
    run_off: u32,
}

/// One NT-path: its own copy of the spawning core's registers and pc, its
/// sandbox, its copy of the watch table and its I/O, plus the lifecycle
/// state and, for a memo hit, the replay cursor. An engine keeps paths
/// for reuse: [`Run::spawn`] re-arms one, [`Run::end`] squashes it.
#[derive(Default)]
pub(crate) struct Path {
    pub state: CoreState,
    pub sandbox: Sandbox,
    /// The path's view of the watch table, copied at spawn: watch hits
    /// fire on NT-paths exactly as on the taken path (iWatcher's whole
    /// mechanism), but registrations made inside the path die with it.
    watches: WatchTable,
    /// §3.2 OS-sandbox extension: the path's disposable I/O snapshot.
    /// Without it every system call is suppressed and the I/O is unused.
    io: IoState,
    pub ex: Excursion,
    /// Memo replay cursor: when set, the path replays its recorded bundle
    /// and its core state, sandbox, watch table and I/O go unused.
    pub replay: Option<Replay>,
}

/// One non-simple NT step, interpreted or replayed, for the engine to
/// apply.
pub(crate) struct OneStep {
    pub base: u32,
    pub next_pc: u32,
    pub access: Option<(u32, bool)>,
    pub note: MemoNote,
    /// An injected cache- or monitor-level fault the engine applies before
    /// the step's access, with the pc it is filed at: where the step left
    /// the path, before any NT-from-NT redirect (interpreted steps only).
    pub deferred: Option<(FaultAction, u32)>,
}

/// One grant of [`Run::advance`].
pub(crate) enum Grant {
    /// A batch of `n` simple micro-ops from `pc` retired, perhaps stopping
    /// the path.
    Ran {
        pc: u32,
        n: u32,
        stop: Option<NtStop>,
    },
    /// A non-simple step for the engine to apply.
    One(OneStep),
}

impl<'a> Run<'a> {
    /// Validates the configuration, loads the program and picks the memo
    /// table: the caller's when its fingerprint matches, a fresh one when
    /// the caller brings none. A mismatched table would replay another
    /// program's bundles, so the run ignores it.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn new(
        program: &'a Program,
        dp: &'a DecodedProgram,
        mach: &'a MachConfig,
        px: &'a PxConfig,
        io: IoState,
        fault: Option<&'a mut FaultPlan>,
        memo: Option<&'a mut MemoTable>,
        memo_tag: u8,
    ) -> Result<Run<'a>, Box<PxRunResult>> {
        let plan = px.path_plan.as_deref();
        let taken = match TakenPath::new(program, dp, mach, io, px.max_instructions, None, plan) {
            Ok(taken) => taken,
            Err((e, io)) => return Err(Box::new(engine_fault(program, e, io))),
        };
        // NT-path memoization: only when every NT path is a pure function
        // of its read set — no fault plan (faults key off absolute
        // instruction counts), no OS-sandboxed syscalls (they mutate a
        // scratch I/O state), no NT-from-NT exploration (it reads the BTB
        // mid-path).
        let memo =
            if px.nt_memo && fault.is_none() && !px.os_sandbox_unsafe && !px.explore_nt_from_nt {
                let fp = fingerprint(program, mach, px, memo_tag);
                match memo {
                    Some(t) if t.fingerprint() == fp => Memo::Shared(t),
                    Some(_) => Memo::Off,
                    None => Memo::Own(MemoTable::new(fp)),
                }
            } else {
                Memo::Off
            };
        Ok(Run {
            program,
            dp,
            mach,
            px,
            taken,
            sel: Selection {
                px,
                dp,
                spawn_cycles: u64::from(mach.spawn_cycles),
                btb: Btb::new(mach.btb_entries, mach.btb_assoc),
                nt_cov: Coverage::for_program(program),
                static_veto: px
                    .static_nt_filter
                    .map(|k| px_analyze::Analysis::of(program).veto_mask(program, k)),
                spawn_rng: 0x9E37_79B9_7F4A_7C15 ^ (program.code.len() as u64 + 1),
                since_reset: 0,
                synced: 0,
            },
            stats: PxStats::default(),
            fault,
            memo,
        })
    }

    /// Assembles the run's result.
    pub(crate) fn finish(mut self, exit: RunExit, cycles: u64) -> PxRunResult {
        self.sel.sync(&mut self.stats, self.taken.retired);
        self.stats.taken_instructions = self.taken.retired;
        self.stats.taken_batched = self.taken.batched;
        let taken = self.taken;
        let mut total_coverage = taken.coverage.clone();
        let exit = match total_coverage.merge(&self.sel.nt_cov) {
            Ok(()) => exit,
            Err(e) => RunExit::EngineFault(e),
        };
        PxRunResult {
            exit,
            cycles,
            taken_coverage: taken.coverage,
            total_coverage,
            monitor: taken.monitor,
            io: taken.io,
            memory: taken.memory,
            core: taken.core,
            stats: self.stats,
            path_coverage: taken.tracking.map(|t| t.cov),
        }
    }

    /// Arms `p` as an admitted NT-path from the taken path's branch at `pc`
    /// toward `target`. A memo hit sets the replay cursor; otherwise
    /// (arming a recorder when the key is unknown) the path copies the
    /// taken core with its pc redirected to `target` and the NT-entry
    /// predicate set, clears its sandbox, copies the watch table, and under
    /// the OS-sandbox extension snapshots the I/O. The path's trail forks
    /// from the taken trail *at the branch*, before either successor block
    /// is entered.
    pub(crate) fn spawn(&mut self, p: &mut Path, pc: u32, target: u32) {
        let taken = &mut self.taken;
        let trail = taken.tracking.as_mut().map(|t| {
            let mut trail = t.trail;
            trail.enter_pc(t.plan, &mut t.cov, target);
            trail
        });
        p.ex = Excursion {
            spawn_pc: pc,
            executed: 0,
            rec: None,
            trail,
        };
        if let Some(t) = self.memo.table() {
            match t.probe(pc, target, &taken.watches, &taken.core.regs, &taken.memory) {
                MemoProbe::Hit(entry) => {
                    p.replay = Some(Replay {
                        entry,
                        step: 0,
                        run_off: 0,
                    });
                    return;
                }
                MemoProbe::Record => {
                    p.ex.rec = Some(MemoRecorder::new(
                        pc,
                        target,
                        &taken.watches,
                        self.px.apply_fixes,
                    ));
                }
                MemoProbe::Skip => {}
            }
        }
        p.state = CoreState {
            pc: target,
            pred: self.px.apply_fixes,
            ..taken.core
        };
        p.sandbox.clear();
        p.watches.copy_from(&taken.watches);
        if self.px.os_sandbox_unsafe {
            p.io.clone_from(&taken.io);
        }
    }

    /// Advances NT-path `p` by one grant, charging `clock`. A replaying
    /// path takes its cursor's next step: a recorded batch is re-chunked
    /// against the live caps and `deadline` exactly as the live path would
    /// have been, a recorded single step goes back to the engine. A live
    /// path batches a simple run when it can (never under a fault plan,
    /// which must see every instruction) and otherwise interprets one
    /// micro-op against its own state, sandbox, watch table and I/O, with
    /// system calls suppressed unless the OS-sandbox extension is on.
    /// `deadline` is the last clock at which the path's core still holds
    /// the schedule; `u64::MAX` when nothing competes for it.
    #[inline(always)]
    pub(crate) fn advance(&mut self, p: &mut Path, clock: &mut u64, deadline: u64) -> Grant {
        if let Some(r) = p.replay.as_mut() {
            match r.entry.steps.get(r.step).copied() {
                Some(MemoStep::Run { pc, n: total }) => {
                    let pc = pc + r.run_off;
                    let max_n = grant(
                        self.px,
                        self.taken.instructions,
                        p.ex.executed,
                        total - r.run_off,
                    );
                    let table = &self.taken.cost_table;
                    let (n, cost) = simple_cost_until(self.dp, pc, max_n, table, *clock, deadline);
                    *clock += cost;
                    r.run_off += n;
                    if r.run_off == total {
                        r.step += 1;
                        r.run_off = 0;
                    }
                    let stop = self.ran(&mut p.ex, pc, n);
                    return Grant::Ran { pc, n, stop };
                }
                Some(MemoStep::One {
                    base,
                    next_pc,
                    access,
                    note,
                }) => {
                    r.step += 1;
                    self.taken.instructions += 1;
                    return Grant::One(OneStep {
                        base,
                        next_pc,
                        access,
                        note,
                        deferred: None,
                    });
                }
                None => {
                    // Unreachable: every stored bundle ends on a stop, and
                    // the caps that could pre-empt it are part of the
                    // fingerprint. A defensive stop keeps a logic error
                    // from wedging the engine.
                    debug_assert!(false, "recorded bundles end on a stop");
                    let stop = Some(r.entry.stop);
                    return Grant::Ran { pc: 0, n: 0, stop };
                }
            }
        }
        let state = &mut p.state;
        if self.fault.is_none() {
            let pc = state.pc;
            let max_n = grant(
                self.px,
                self.taken.instructions,
                p.ex.executed,
                self.dp.simple_run(pc),
            );
            if max_n > 0 {
                let table = &self.taken.cost_table;
                let n = simple_steps_until(self.dp, pc, max_n, table, *clock, deadline);
                if let Some(r) = p.ex.rec.as_mut() {
                    r.note_run(self.dp, pc, n, &state.regs);
                }
                *clock += run_simple(self.dp, state, n, table);
                let stop = self.ran(&mut p.ex, pc, n);
                return Grant::Ran { pc, n, stop };
            }
        }
        self.taken.instructions += 1;
        // The memo's pre-step live-ins: an unwritten register still holds
        // its spawn value, so the current file supplies exact live-ins;
        // loads record the committed bytes they are about to read (none if
        // the access will crash).
        if let (Some(r), Some(u)) = (p.ex.rec.as_mut(), self.dp.op(state.pc)) {
            r.note_uop(u, &state.regs, &p.sandbox, &self.taken.memory);
        }
        let s = {
            let mut env = StepEnv {
                io: &mut p.io,
                watches: &mut p.watches,
                suppress_syscalls: !self.px.os_sandbox_unsafe,
                now_cycles: *clock,
                costs: &self.mach.costs,
                fault: self.fault.as_deref_mut(),
            };
            let mut view = SandboxView::new(&self.taken.memory, &mut p.sandbox);
            step_uop(self.program, self.dp, state, &mut view, &mut env)
        };
        let filed_at = state.pc;
        let (access, note) = self.interpreted(&mut p.ex, &s, &mut state.pc);
        Grant::One(OneStep {
            base: s.base_cost,
            next_pc: state.pc,
            access,
            note,
            deferred: s.deferred.map(|action| (action, filed_at)),
        })
    }

    /// Bookkeeping for `n` simple micro-ops NT-path `ex` retired from `pc`.
    #[inline(always)]
    fn ran(&mut self, ex: &mut Excursion, pc: u32, n: u32) -> Option<NtStop> {
        if let (Some(t), Some(trail)) = (&mut self.taken.tracking, &mut ex.trail) {
            trail.enter_range(t.plan, &mut t.cov, pc, n);
        }
        self.taken.instructions += u64::from(n);
        self.stats.nt_instructions += u64::from(n);
        ex.executed += n;
        stop(self.px, None, false, ex.executed)
    }

    /// The bookkeeping of one interpreted NT step: ablation D2's
    /// NT-from-NT redirect of `pc` (force a never-exercised non-taken edge
    /// from inside the path), the sandboxed-syscall count, and the memo
    /// recording. Returns the step's access and note for the engine to
    /// apply.
    #[inline(always)]
    fn interpreted(
        &mut self,
        ex: &mut Excursion,
        s: &Step,
        pc: &mut u32,
    ) -> (Option<(u32, bool)>, MemoNote) {
        match s.event {
            StepEvent::Branch(br) if self.px.explore_nt_from_nt => {
                let sel = &mut self.sel;
                sel.sync(&mut self.stats, self.taken.retired);
                let other = Edge::from_taken(br.taken).other();
                if sel.btb.edge_count(br.pc, other) < self.px.counter_threshold
                    && !sel.in_checker(br.pc)
                    && !sel.vetoed(br.pc, other)
                {
                    sel.btb.exercise(br.pc, other);
                    sel.nt_cov.record(br.pc, other);
                    *pc = br.other_target();
                }
            }
            StepEvent::Syscall { .. } => self.stats.nt_syscalls_sandboxed += 1,
            _ => {}
        }
        let access = s.access.map(|a| (a.addr, a.write));
        let note = MemoNote::of(&s.event);
        if let Some(r) = ex.rec.as_mut() {
            r.push_one(s.base_cost, *pc, access, note);
        }
        (access, note)
    }

    /// Applies NT-path `ex`'s injected cache- or monitor-level fault
    /// `(action, pc)`, filing monitor records at `pc` stamped `stamp`.
    /// `core` is the core whose L1 hosts the path's sandbox and `vtag` the
    /// path's volatile tag, so injected lines are swept up by the path's own
    /// gang-invalidation: the fault can degrade the path (early overflow,
    /// timing noise, monitor pressure) but never the committed state.
    pub(crate) fn apply_deferred(
        &mut self,
        ex: &Excursion,
        (action, pc): (FaultAction, u32),
        core: usize,
        vtag: u8,
        stamp: u64,
    ) {
        match action {
            FaultAction::FlipL1Vtag { entropy } => {
                self.taken.caches.inject_vtag_flip(core, entropy, vtag);
            }
            FaultAction::ExhaustVolatileSet { entropy } => {
                self.taken.caches.inject_volatile_fill(core, entropy, vtag);
            }
            FaultAction::MonitorPressure { records } => {
                let path = PathKind::NtPath {
                    spawn_pc: ex.spawn_pc,
                };
                for i in 0..records {
                    let note = MemoNote::Watch {
                        tag: FAULT_WATCH_TAG,
                        addr: u32::from(i),
                        is_write: true,
                        pc,
                    };
                    self.taken.monitor.file(note, stamp, path);
                }
            }
            // Core-level faults were already applied inside `step_uop`.
            FaultAction::FlipMemBit { .. }
            | FaultAction::ForceCrash { .. }
            | FaultAction::RedirectBack { .. }
            | FaultAction::FailInput => {}
        }
    }

    /// An NT-path's data access on `core`: writes go to the sandbox under
    /// `vtag`, reads to committed lines. Returns the cycles and whether one
    /// of the path's volatile lines was displaced (sandbox overflow).
    #[inline(always)]
    pub(crate) fn nt_access(
        &mut self,
        core: usize,
        vtag: u8,
        access: Option<(u32, bool)>,
    ) -> (u32, bool) {
        let Some((addr, write)) = access else {
            return (0, false);
        };
        if write {
            self.stats.nt_writes += 1;
        }
        let vtag_or_committed = if write { vtag } else { COMMITTED };
        let a = self
            .taken
            .caches
            .access(core, addr, write, vtag_or_committed);
        (a.cycles, a.volatile_evicted == Some(vtag))
    }

    /// Files a step's coverage and monitor effects for NT-path `ex`,
    /// stamping monitor records at `stamp`, and enters the path's trail at
    /// `next_pc` unless the step stopped the path on its own event (crash,
    /// unsafe event, program end). Returns that event stop.
    #[inline(always)]
    pub(crate) fn effects(
        &mut self,
        ex: &mut Excursion,
        note: MemoNote,
        next_pc: u32,
        stamp: u64,
    ) -> Option<NtStop> {
        match note {
            MemoNote::None => {}
            MemoNote::Branch { pc, taken } => {
                self.stats.dyn_branches += 1;
                self.sel.nt_cov.record(pc, Edge::from_taken(taken));
            }
            MemoNote::Check { .. } | MemoNote::Watch { .. } => {
                let path = PathKind::NtPath {
                    spawn_pc: ex.spawn_pc,
                };
                self.taken.monitor.file(note, stamp, path);
            }
            MemoNote::Stop(stop) => return Some(stop),
        }
        if let (Some(t), Some(trail)) = (&mut self.taken.tracking, &mut ex.trail) {
            trail.enter_pc(t.plan, &mut t.cov, next_pc);
        }
        None
    }

    /// Squashes NT-path `p` with `stop`: gang-invalidates its volatile
    /// lines on `core` (a `(core, vtag)` pair; `None` for a path that never
    /// got a core), stores its recorded bundle or charges a bypass, and
    /// logs the path.
    pub(crate) fn end(&mut self, p: &mut Path, stop: NtStop, core: Option<(usize, u8)>) {
        if let Some((c, vtag)) = core {
            self.taken.caches.squash_path(c, vtag);
        }
        if let (Some(rec), Some(t)) = (p.ex.rec.take(), self.memo.table()) {
            t.finish(rec, stop);
        }
        p.replay = None;
        self.stats.paths.push(NtPathRecord {
            spawn_pc: p.ex.spawn_pc,
            executed: p.ex.executed,
            stop,
        });
    }
}

impl Selection<'_> {
    /// Applies the exercise-counter resets (one per CounterResetInterval
    /// taken-path instructions, §4.2(1)) that fell due by `retired` taken
    /// instructions, in closed form. Counters are read only at branches, so
    /// catching up there is the per-instruction protocol exactly.
    pub(crate) fn sync(&mut self, stats: &mut PxStats, retired: u64) {
        let n = retired - self.synced;
        self.synced = retired;
        let resets =
            catch_up_counter_resets(&mut self.since_reset, self.px.counter_reset_interval, n);
        if resets > 0 {
            self.btb.reset_counters();
            stats.counter_resets += resets;
        }
    }

    /// The taken path's branch `br`, resolved after `retired` taken
    /// instructions: exercises its edge, then decides whether an NT-path
    /// spawns down the other one, charging the spawn to `clock`. `full`
    /// says no further NT-path fits.
    #[inline(always)]
    pub(crate) fn branch(
        &mut self,
        stats: &mut PxStats,
        retired: u64,
        br: &Branch,
        full: bool,
        clock: &mut u64,
    ) -> bool {
        self.sync(stats, retired);
        stats.dyn_branches += 1;
        let edge = Edge::from_taken(br.taken);
        self.btb.exercise(br.pc, edge);
        let spawn = self.admit(stats, br.pc, edge.other(), full);
        if spawn {
            *clock += self.spawn_cycles;
        }
        spawn
    }

    fn in_checker(&self, pc: u32) -> bool {
        self.dp
            .op(pc)
            .is_some_and(|u| u.a & MicroOp::BR_IN_CHECKER != 0)
    }

    fn vetoed(&self, pc: u32, edge: Edge) -> bool {
        self.static_veto
            .as_ref()
            .is_some_and(|m| m.get(pc as usize).is_some_and(|e| e[edge.slot()]))
    }

    /// The spawn decision for edge `nt_edge` of the branch at `pc`. Vetoes
    /// apply in order: checker code, the static filter, a hot exercise
    /// counter (unless the §7.1(2) random factor re-admits it), then no room
    /// for another path. An admitted spawn bumps the edge's counter at NT
    /// entry (§4.2(1)) and covers the edge.
    fn admit(&mut self, stats: &mut PxStats, pc: u32, nt_edge: Edge, full: bool) -> bool {
        let hot = self.btb.edge_count(pc, nt_edge) >= self.px.counter_threshold;
        let random_admit = hot
            && self.px.random_factor.is_some_and(|n| {
                self.spawn_rng ^= self.spawn_rng << 13;
                self.spawn_rng ^= self.spawn_rng >> 7;
                self.spawn_rng ^= self.spawn_rng << 17;
                self.spawn_rng.is_multiple_of(u64::from(n))
            });
        if self.in_checker(pc) {
            stats.skipped_checker += 1;
        } else if self.vetoed(pc, nt_edge) {
            stats.skipped_static += 1;
        } else if hot && !random_admit {
            stats.skipped_hot += 1;
        } else if full {
            stats.skipped_outstanding += 1;
        } else {
            if random_admit {
                stats.random_spawns += 1;
            }
            self.btb.exercise(pc, nt_edge);
            self.nt_cov.record(pc, nt_edge);
            stats.spawns += 1;
            return true;
        }
        false
    }
}

/// How many micro-ops of a `run`-long simple run an NT-path that has
/// executed `executed` may batch: the cap keeps the instruction budget and
/// the MaxNTPathLength stop on their exact instruction.
#[inline]
pub(crate) fn grant(px: &PxConfig, instructions: u64, executed: u32, run: u32) -> u32 {
    u64::from(run)
        .min(px.max_instructions.saturating_sub(instructions))
        .min(u64::from(px.max_nt_path_len.saturating_sub(executed))) as u32
}

/// Why an NT-path stops after a step, in precedence order: the step's own
/// `event` stop, sandbox overflow, MaxNTPathLength. The length cap also
/// bounds the runaway loops that injected redirect faults create, so the
/// taken path always regains the core.
#[inline]
pub(crate) fn stop(
    px: &PxConfig,
    event: Option<NtStop>,
    overflow: bool,
    executed: u32,
) -> Option<NtStop> {
    if event.is_some() {
        event
    } else if overflow {
        Some(NtStop::SandboxOverflow)
    } else if executed >= px.max_nt_path_len {
        Some(NtStop::MaxLength)
    } else {
        None
    }
}

/// Advances the taken-path counter-reset protocol by `n` instructions in
/// closed form, returning how many resets fired. Exactly equivalent to `n`
/// iterations of the per-instruction protocol:
///
/// ```text
/// if tsr >= interval { reset; tsr = 0 }
/// <execute instruction>
/// tsr += 1
/// ```
pub(crate) fn catch_up_counter_resets(tsr: &mut u64, interval: u64, n: u64) -> u64 {
    if n == 0 {
        return 0;
    }
    if interval == 0 {
        *tsr = 1;
        return n;
    }
    if *tsr < interval {
        // The first reset completes on iteration `gap + 1` (1-based); `gap`
        // may be `u64::MAX` (interval `u64::MAX`, counter 0), so compare
        // against it rather than materializing `gap + 1`.
        let gap = interval - *tsr;
        if n <= gap {
            *tsr += n;
            return 0;
        }
        let rest = n - gap - 1;
        *tsr = (rest % interval) + 1;
        1 + rest / interval
    } else {
        let rest = n - 1;
        *tsr = (rest % interval) + 1;
        1 + rest / interval
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn caps(budget: u64, max_len: u32) -> PxConfig {
        PxConfig::default()
            .with_max_instructions(budget)
            .with_max_nt_path_len(max_len)
    }

    #[test]
    fn stop_precedence_when_several_fire_on_one_step() {
        // MaxNTPathLength reached at 10 executed.
        let px = caps(1000, 10);
        let event = Some(NtStop::ProgramEnd);
        assert_eq!(stop(&px, event, true, 10), event, "event over overflow");
        assert_eq!(
            stop(&px, None, true, 10),
            Some(NtStop::SandboxOverflow),
            "overflow over max length"
        );
        assert_eq!(stop(&px, None, false, 10), Some(NtStop::MaxLength));
        assert_eq!(stop(&px, None, false, 9), None);
    }

    #[test]
    fn batch_grant_never_crosses_a_cap() {
        for (budget, max_len) in [(0, 5), (7, 9), (1000, 5), (1000, 64)] {
            let px = caps(budget, max_len);
            for instructions in [0, budget / 2, budget] {
                for executed in 0..max_len {
                    for run in [0, 1, 3, 64] {
                        let n = grant(&px, instructions, executed, run);
                        assert!(n <= run);
                        assert!(instructions + u64::from(n) <= budget);
                        assert!(executed + n <= max_len);
                        // The grant is the largest that fits: it stops at
                        // the run's end or exactly on a cap, where the cap's
                        // stop (or the budget) then fires.
                        let capped = instructions + u64::from(n) == budget
                            || stop(&px, None, false, executed + n).is_some();
                        assert!(n == run || capped, "{budget} {max_len} {executed}");
                    }
                }
            }
        }
    }
}
