//! The PathExpander **CMP optimization** (paper §4.3, Figure 4(b)).
//!
//! The taken path runs on the primary core; each spawned NT-path is copied
//! (register context) onto an idle core and executes concurrently, sandboxed
//! in that core's L1 under its own 8-bit path ID. When no core is idle the
//! NT-path is queued in a free thread context; spawning stops entirely at
//! `MaxNumNTPaths` outstanding paths.
//!
//! Data dependences follow the tree of Figure 6(c): an NT-path reads the
//! memory image from its spawn point — realized with a copy-on-write
//! snapshot fed by the primary core's later stores — and its own writes stay
//! in its sandbox.
//!
//! Commit/squash tokens are modeled through the cache version tags: primary
//! stores issued while any NT-path is live are tagged with a speculative
//! *segment* tag; if such a line is displaced from the primary L1 the segment
//! is forced to commit, which squashes the oldest live NT-path (its
//! squash-token is claimed early, paper §4.3), and the segment's lines are
//! lazily retagged as committed.
//!
//! The primary core runs the committed path exactly as the baseline does:
//! it drives the one [`px_mach::TakenPath`] through its `batch` and `step`,
//! adding only what §4.3 adds — a store hook that feeds the copy-on-write
//! snapshots, the segment tag while any NT-path is live, the schedule's
//! deadline, and the forced commit when a segment line is displaced.
//!
//! The run's cost is the primary core's finish time: NT-path work overlaps
//! with it, so the overhead the paper reports (< 9.9%) is spawn costs plus
//! cache interference.

use px_isa::{DecodedProgram, Program, Width};
use px_mach::{
    FaultPlan, Halt, IoState, MachConfig, MemoTable, Memory, RunExit, SimError, UopProfile,
    COMMITTED,
};

use crate::config::PxConfig;
use crate::nt::{self, Grant, OneStep, Path, Run};
use crate::stats::{NtStop, PxRunResult};

/// Version tag for the primary core's speculative taken-path segment lines.
const SEGMENT_VTAG: u8 = 255;

/// Engine tag folded into the memo fingerprint (the standard engine uses
/// tag 0): the two engines count `executed` differently on terminal steps,
/// so their bundles must never mix.
const MEMO_TAG_CMP: u8 = 1;

/// A live or queued NT-path: the shared [`Path`] plus its place in the
/// schedule.
struct NtPath {
    id: u8,
    core: Option<usize>,
    /// Monotonic spawn order, used to pick the "oldest" for forced commits.
    seq: u64,
    path: Path,
}

/// The CMP schedule: the path table, which cores host which paths, and
/// the per-core clocks.
struct Cores {
    paths: Vec<NtPath>,
    /// `(path index, core)` for every path currently ON a core, sorted by
    /// path index: the per-instruction min-ready scan walks these few
    /// entries in the path table's order (the tie-break order) instead of
    /// striding over up to `max_outstanding` full `NtPath` structs, most of
    /// them queued and irrelevant to the scan. A core other than the
    /// primary (core 0) is idle exactly when no entry names it.
    hosted: Vec<(usize, usize)>,
    /// Per-core ready times (discrete event clock); index 0 = primary.
    ready: Vec<u64>,
    /// Squashed paths, recycled by the next spawns (their sandboxes and
    /// watch tables keep their allocations).
    pool: Vec<Path>,
    next_id: u8,
    next_seq: u64,
    /// Counts spawns; versions the copy-on-write memo (see [`preserve`]).
    spawn_epoch: u64,
}

/// One slot of the copy-on-write memo (see [`preserve`]).
#[derive(Clone, Copy)]
struct CowEntry {
    addr: u32,
    bytes: u8,
    epoch: u64,
}

/// Direct-mapped slots in the copy-on-write memo.
const COW_SLOTS: usize = 64;

/// The primary core's store hook: preserves the bytes a store of `width`
/// at `addr` is about to overwrite in `memory` into every live NT-path's
/// snapshot (the copy-on-write realization of the tree data dependence).
///
/// The memo skips the sweep entirely for a store that already swept the
/// same address and width with no spawn in between (`epoch` counts spawns):
/// `preserve` keeps only the earliest value per byte, so re-sweeping the
/// same path set is a no-op — and path *removals* cannot invalidate a
/// covered entry. Exact, not heuristic.
fn preserve(
    live: &mut [NtPath],
    cow_memo: &mut [CowEntry; COW_SLOTS],
    epoch: u64,
    memory: &Memory,
    addr: u32,
    width: Width,
) {
    let slot = ((addr >> 2) as usize) % COW_SLOTS;
    let e = cow_memo[slot];
    if e.addr == addr && u32::from(e.bytes) == width.bytes() && e.epoch == epoch {
        return;
    }
    let n = width.bytes() as usize;
    let mut old = [0u8; 4];
    for (i, b) in old.iter_mut().enumerate().take(n) {
        *b = memory.byte(addr + i as u32);
    }
    for p in live.iter_mut() {
        // Replaying paths never read their sandbox (their reads were
        // validated at spawn), so the preserve sweep skips them.
        if p.path.replay.is_none() {
            p.path.sandbox.preserve_span(addr, &old[..n]);
        }
    }
    cow_memo[slot] = CowEntry {
        addr,
        bytes: width.bytes() as u8,
        epoch,
    };
}

/// Runs `program` under the CMP-optimized PathExpander against a
/// pre-decoded program (see [`DecodedProgram::decode`]); `dp` must be the
/// decode of `program`. Decoding once matters when one program is run many
/// times (fault campaigns, zoo rosters).
///
/// A machine with fewer than 2 cores (the CMP option needs at least one idle
/// core), a bad geometry, or a malformed program surfaces as
/// [`RunExit::EngineFault`]. `px.mode` is ignored — this function *is* the
/// CMP engine; [`crate::run`] picks the engine from the mode.
#[must_use]
pub fn run_cmp_decoded(
    program: &Program,
    dp: &DecodedProgram,
    mach: &MachConfig,
    px: &PxConfig,
    io: IoState,
) -> PxRunResult {
    let profile = &mut UopProfile::default();
    run_cmp_inner::<false>(program, dp, mach, px, io, None, None, profile)
}

/// [`run_cmp_decoded`] with a caller-held NT-path memo table, so repeated
/// runs of one program replay each other's NT paths (see
/// [`crate::standard::run_standard_memo`]). The table must come from
/// [`cmp_memo_table`] for the same program + configuration, or it is
/// ignored.
#[must_use]
pub fn run_cmp_memo(
    program: &Program,
    dp: &DecodedProgram,
    mach: &MachConfig,
    px: &PxConfig,
    io: IoState,
    memo: &mut MemoTable,
) -> PxRunResult {
    let profile = &mut UopProfile::default();
    run_cmp_inner::<false>(program, dp, mach, px, io, None, Some(memo), profile)
}

/// An empty memo table bound to this program + configuration, for
/// [`run_cmp_memo`].
#[must_use]
pub fn cmp_memo_table(program: &Program, mach: &MachConfig, px: &PxConfig) -> MemoTable {
    nt::memo_table(program, mach, px, MEMO_TAG_CMP)
}

/// The CMP engine plus a per-handler micro-op histogram (counts and charged
/// base cycles per [`px_isa::UopKind`]), for `bench_report --profile`. The
/// run itself is architecturally identical to [`run_cmp_decoded`]: the
/// profile observes simulated work and feeds nothing back.
#[must_use]
pub fn run_cmp_profiled(
    program: &Program,
    mach: &MachConfig,
    px: &PxConfig,
    io: IoState,
) -> (PxRunResult, UopProfile) {
    let dp = DecodedProgram::decode(program);
    let mut profile = UopProfile::default();
    // Memo replay skips the interpreter, so the histogram would under-count.
    let px = &px.clone().with_nt_memo(false);
    let result = run_cmp_inner::<true>(program, &dp, mach, px, io, None, None, &mut profile);
    (result, profile)
}

/// The CMP engine. An optional fault plan is consulted only for NT-path
/// steps, so every fault lands in some path's sandbox and the primary
/// core's committed state stays bit-identical to a plain baseline.
#[allow(clippy::too_many_arguments)]
pub(crate) fn run_cmp_inner<const PROFILE: bool>(
    program: &Program,
    dp: &DecodedProgram,
    mach: &MachConfig,
    px: &PxConfig,
    io: IoState,
    fault: Option<&mut FaultPlan>,
    memo: Option<&mut MemoTable>,
    profile: &mut UopProfile,
) -> PxRunResult {
    if mach.cores < 2 {
        return nt::engine_fault(program, SimError::NeedsTwoCores, io);
    }
    let mut run = match Run::new(program, dp, mach, px, io, fault, memo, MEMO_TAG_CMP) {
        Ok(run) => run,
        Err(failed) => return *failed,
    };
    // Whether any primary L1 line may carry `SEGMENT_VTAG`: set on tagged
    // stores, cleared by every `commit_path(0, SEGMENT_VTAG)`. Skipping the
    // commit scan while clean is exact — committing a clean cache retags
    // nothing — and avoids a full L1 walk after every primary step.
    let mut segment_dirty = false;
    let mut cores = Cores {
        paths: Vec::new(),
        hosted: Vec::new(),
        ready: vec![0; mach.cores],
        pool: Vec::new(),
        next_id: 1,
        next_seq: 0,
        spawn_epoch: 1,
    };
    let mut cow_memo = [CowEntry {
        addr: 0,
        bytes: 0,
        epoch: 0,
    }; COW_SLOTS];
    let mut primary_done: Option<RunExit> = None;

    let exit = loop {
        if run.taken.instructions >= px.max_instructions && primary_done.is_none() {
            primary_done = Some(RunExit::BudgetExhausted);
        }
        if let Some(exit) = primary_done {
            // Program over: cut the surviving NT-paths short.
            for p in cores.paths.drain(..) {
                finish(&mut run, &mut cores.pool, p, NtStop::RunCutShort);
            }
            break exit;
        }

        // Pick the lowest-ready-time active core (primary is always active),
        // remembering which path it hosts — one scan serves both decisions.
        let ready = &cores.ready;
        let mut who: usize = 0;
        let mut who_path: Option<usize> = None;
        let mut best = ready[0];
        for &(i, c) in &cores.hosted {
            if ready[c] < best {
                best = ready[c];
                who = c;
                who_path = Some(i);
            }
        }

        let Some(idx) = who_path else {
            // ---- Primary core: keep stepping while it keeps winning ----
            //
            // The primary wins the scan at ties, so it holds the slot while
            // `ready[0]` stays at or below every hosted core's ready time.
            // That bound is a constant for as long as no other core advances
            // and the hosted set stays put, so the inner loop retires
            // instruction after instruction against a fixed `deadline`
            // instead of re-entering the scheduler per instruction — an
            // identity transformation of the min-ready schedule. Any
            // structural event (spawn, forced commit) edits the hosted set
            // and breaks back out to a fresh scan.
            let mut deadline = u64::MAX;
            for &(_, c) in &cores.hosted {
                deadline = deadline.min(ready[c]);
            }
            loop {
                // The primary runs the committed path exactly as the
                // baseline does, batching wide runs and stepping the rest,
                // with three additions. Its stores preserve the bytes they
                // overwrite into every live NT-path's snapshot and, while
                // any NT-path is live, tag their lines as speculative
                // segment data (they still need their sibling's squash
                // token). A batch ends at `deadline`, covering only steps
                // the scheduler would have granted the primary anyway. And
                // displacing a segment line forces a commit. While a commit
                // left pending by the last NT-path's death is due, the
                // primary steps: the commit lands after the step's own
                // access, where a batch would have to land it before.
                let pc0 = run.taken.core.pc;
                let pending = segment_dirty && cores.paths.is_empty();
                let vtag = if cores.paths.is_empty() {
                    COMMITTED
                } else {
                    SEGMENT_VTAG
                };
                let mut store = |memory: &Memory, addr: u32, width: Width| {
                    if !cores.paths.is_empty() {
                        segment_dirty = true;
                        let epoch = cores.spawn_epoch;
                        preserve(&mut cores.paths, &mut cow_memo, epoch, memory, addr, width);
                    }
                };
                let clock = &mut cores.ready[0];
                let (n, evicted) = if pending {
                    (0, None)
                } else {
                    run.taken.batch(clock, deadline, vtag, &mut store)
                };
                let (event, evicted) = if n > 0 {
                    if PROFILE {
                        profile.record_batch(dp, pc0, n, &run.taken.cost_table);
                    }
                    (None, evicted)
                } else {
                    let (event, base, access) = run.taken.step(clock, vtag, &mut store);
                    if PROFILE {
                        if let Some(u) = dp.op(pc0) {
                            profile.record(u.kind, base);
                        }
                    }
                    (Some(event), access.and_then(|a| a.volatile_evicted))
                };

                // Set when this step edits the hosted set (spawn, forced
                // commit): the inner loop's deadline is stale then.
                let mut structural = false;
                if evicted == Some(SEGMENT_VTAG) {
                    // Forced commit: squash the oldest live NT-path, commit
                    // the segment's lines.
                    structural = true;
                    if let Some(idx) = oldest_live(&cores.paths) {
                        cores.retire(&mut run, idx, NtStop::ForcedCommit);
                    }
                    run.taken.caches.commit_path(0, SEGMENT_VTAG);
                    segment_dirty = false;
                }

                if let Some(event) = event {
                    match run.taken.settle(event, cores.ready[0]) {
                        None => run.taken.enter(),
                        Some(Halt::Branch(br)) => {
                            let full = cores.paths.len() as u32 >= px.max_outstanding;
                            let clock = &mut cores.ready[0];
                            if run
                                .sel
                                .branch(&mut run.stats, run.taken.retired, &br, full, clock)
                            {
                                structural = true;
                                cores.admit(&mut run, br.pc, br.other_target());
                            }
                            run.taken.enter();
                        }
                        Some(Halt::Exit(exit)) => primary_done = Some(exit),
                    }
                }

                // When the last NT-path died earlier, the segment lines are
                // no longer speculative. The scan runs only when segment
                // lines can exist at all.
                if segment_dirty && cores.paths.is_empty() {
                    run.taken.caches.commit_path(0, SEGMENT_VTAG);
                    segment_dirty = false;
                }
                if structural
                    || primary_done.is_some()
                    || run.taken.instructions >= px.max_instructions
                    || cores.ready[0] > deadline
                {
                    break;
                }
            }
            continue;
        };

        // ---- NT-path on core `who`: keep stepping while it wins ----
        //
        // Selection tie-breaking is scan order (primary, then paths in table
        // order): to keep winning, this core must stay strictly below
        // everything scanned before it and at-or-below everything scanned
        // after. That bound is a constant while only this core advances, so
        // — exactly like the primary arm — the inner loop retires
        // instructions against a fixed `deadline` and breaks out on the
        // path's death (which edits the hosted set) or on losing the slot.
        // A replaying path takes the same grants: cache accesses, caps and
        // overflow are recomputed against live state in the recorded order,
        // so every cycle lands where a real simulation would put it.
        let mut before = ready[0];
        let mut after = u64::MAX;
        for &(j, c) in &cores.hosted {
            if j < idx {
                before = before.min(ready[c]);
            } else if j > idx {
                after = after.min(ready[c]);
            }
        }
        let deadline = before.saturating_sub(1).min(after);
        loop {
            let p = &mut cores.paths[idx];
            let clock = &mut cores.ready[who];
            let pc0 = p.path.state.pc;
            let stop = match run.advance(&mut p.path, clock, deadline) {
                Grant::Ran { pc, n, stop } => {
                    if PROFILE {
                        profile.record_batch(dp, pc, n, &run.taken.cost_table);
                    }
                    stop
                }
                Grant::One(step) => {
                    // Profiled runs have the replay cache off, so every
                    // step here was interpreted from `pc0`.
                    if PROFILE {
                        if let Some(u) = dp.op(pc0) {
                            profile.record(u.kind, step.base);
                        }
                    }
                    one(&mut run, p, who, clock, step)
                }
            };
            if let Some(stop) = stop {
                cores.ready[who] += u64::from(mach.squash_cycles);
                cores.retire(&mut run, idx, stop);
                break;
            }
            if run.taken.instructions >= px.max_instructions || cores.ready[who] > deadline {
                break;
            }
        }
    };
    run.finish(exit, cores.ready[0])
}

/// Applies one non-simple NT step of path `p` on core `core`, interpreted
/// or replayed, under the CMP conventions: a deferred fault and the step's
/// monitor records carry the NT core's pre-step clock, and every step
/// counts toward `executed`, including one that stops the path on its own
/// event.
#[inline(always)]
fn one(
    run: &mut Run<'_>,
    p: &mut NtPath,
    core: usize,
    clock: &mut u64,
    step: OneStep,
) -> Option<NtStop> {
    let ex = &mut p.path.ex;
    if let Some(deferred) = step.deferred {
        run.apply_deferred(ex, deferred, core, p.id, *clock);
    }
    let (cost, overflow) = run.nt_access(core, p.id, step.access);
    let event = run.effects(ex, step.note, step.next_pc, *clock);
    *clock += u64::from(step.base) + u64::from(cost);
    run.stats.nt_instructions += 1;
    ex.executed += 1;
    nt::stop(run.px, event, overflow, ex.executed)
}

impl Cores {
    /// Admits a new NT-path: arms a pooled path (or a fresh one) from the
    /// primary, allocates an id, and hosts the path on an idle core if any.
    /// Kept out of the hot primary-step loop (`#[inline(never)]`) so its
    /// considerable frame — the register copy, pool bookkeeping — does not
    /// inflate the loop's register pressure; spawns are rare relative to
    /// steps.
    #[inline(never)]
    fn admit(&mut self, run: &mut Run<'_>, pc: u32, target: u32) {
        let mut path = self.pool.pop().unwrap_or_default();
        run.spawn(&mut path, pc, target);
        let id = self.next_id;
        self.next_id = if id >= SEGMENT_VTAG - 1 { 1 } else { id + 1 };
        let hosted = &self.hosted;
        let core = (1..self.ready.len()).find(|&c| hosted.iter().all(|&(_, h)| h != c));
        if let Some(c) = core {
            // The register copy lands when the primary issued it; the idle
            // core can start then.
            self.ready[c] = self.ready[c].max(self.ready[0]);
            // Appending the highest path index keeps `hosted` sorted.
            self.hosted.push((self.paths.len(), c));
        }
        self.paths.push(NtPath {
            id,
            core,
            seq: self.next_seq,
            path,
        });
        self.next_seq += 1;
        self.spawn_epoch += 1;
    }

    /// Squashes path `idx` with `stop` and hands its core, if any, to the
    /// oldest queued path.
    fn retire(&mut self, run: &mut Run<'_>, idx: usize, stop: NtStop) {
        let last = self.paths.len() - 1;
        let p = self.paths.swap_remove(idx);
        // Drop the removed path's entry and re-point the entry of the path
        // that moved from `last` into the hole, restoring path-index order.
        self.hosted.retain(|&(i, _)| i != idx);
        if idx != last {
            for e in &mut self.hosted {
                if e.0 == last {
                    e.0 = idx;
                }
            }
            self.hosted.sort_unstable();
        }
        let core = p.core;
        finish(run, &mut self.pool, p, stop);
        let Some(c) = core else {
            return;
        };
        let queued = self
            .paths
            .iter()
            .enumerate()
            .filter(|(_, p)| p.core.is_none())
            .min_by_key(|(_, p)| p.seq)
            .map(|(i, _)| i);
        if let Some(i) = queued {
            self.paths[i].core = Some(c);
            // Register copy onto the freed core.
            self.ready[c] += u64::from(run.mach.spawn_cycles);
            self.hosted.push((i, c));
            self.hosted.sort_unstable();
        }
    }
}

/// Ends path `p` and returns it to the spawn pool (a live spawn stales its
/// sandbox's pages with the O(1) `clear`).
fn finish(run: &mut Run<'_>, pool: &mut Vec<Path>, mut p: NtPath, stop: NtStop) {
    run.end(&mut p.path, stop, p.core.map(|c| (c, p.id)));
    pool.push(p.path);
}

fn oldest_live(paths: &[NtPath]) -> Option<usize> {
    paths
        .iter()
        .enumerate()
        .filter(|(_, p)| p.core.is_some())
        .min_by_key(|(_, p)| p.seq)
        .map(|(i, _)| i)
}

#[cfg(test)]
mod tests {
    use super::*;
    use px_isa::asm::assemble;

    fn run(src: &str, px: &PxConfig) -> PxRunResult {
        let program = assemble(src).unwrap();
        crate::run(&program, &MachConfig::default(), px, IoState::default())
    }

    const HIDDEN_BUG: &str = r"
        .code
        main:
            li r1, 1
            bne r1, zero, ok
            li r3, 0
            assert r3, #77
            li r6, 500
        ntspin:
            subi r6, r6, 1
            bgt r6, zero, ntspin
            jmp ok
        ok:
            li r4, 200
        loop:
            subi r4, r4, 1
            bgt r4, zero, loop
            li r2, 0
            exit
        ";

    #[test]
    fn cmp_detects_nt_bug_concurrently() {
        let r = run(HIDDEN_BUG, &PxConfig::default().cmp());
        assert_eq!(r.exit, RunExit::Exited(0));
        assert!(r.monitor.nt_records().any(|rec| rec.site == 77));
    }

    #[test]
    fn cmp_overhead_is_small_compared_to_standard() {
        let program = assemble(HIDDEN_BUG).unwrap();
        let base = px_mach::run_baseline(
            &program,
            &MachConfig::default(),
            IoState::default(),
            1_000_000,
        );
        let std_r = crate::run(
            &program,
            &MachConfig::single_core(),
            &PxConfig::default(),
            IoState::default(),
        );
        let cmp_r = run(HIDDEN_BUG, &PxConfig::default().cmp());
        // NT work overlaps in CMP: primary finish time must beat the
        // standard configuration's serial execution.
        assert!(cmp_r.cycles < std_r.cycles);
        // And it should be close to baseline (well under 2x here).
        assert!(cmp_r.cycles < base.cycles * 2);
    }

    #[test]
    fn cmp_sandboxes_roll_back() {
        let src = r"
            .data
            g: .word 7
            .code
            main:
                li r1, 1
                bne r1, zero, ok
                la r5, g
                li r6, 999
                sw r6, 0(r5)
                jmp ok
            ok:
                li r4, 50
            loop:
                subi r4, r4, 1
                bgt r4, zero, loop
                la r5, g
                lw r2, 0(r5)
                printi
                li r2, 0
                exit
            ";
        let r = run(src, &PxConfig::default().cmp());
        assert_eq!(r.io.output_string(), "7");
    }

    #[test]
    fn nt_path_reads_spawn_time_memory_not_later_taken_path_writes() {
        // The NT-path spins a little, then reads `g`. Meanwhile the taken
        // path overwrites `g`. The NT-path must still see the spawn-time
        // value (tree data dependence) and reports it via an assert site.
        let src = r"
            .data
            g: .word 7
            .code
            main:
                li r1, 1
                bne r1, zero, ok
                ; --- NT path: delay, then check g is still 7 ---
                li r6, 30
            ntspin:
                subi r6, r6, 1
                bgt r6, zero, ntspin
                la r5, g
                lw r7, 0(r5)
                seq r8, r7, zero    ; r8 = (g == 0)?  we assert g != 0 stayed 7
                li r9, 7
                seq r8, r7, r9      ; r8 = (g == 7)
                assert r8, #55      ; fails if NT saw the taken path's write
                jmp ok
            ok:
                la r5, g
                sw zero, 0(r5)      ; taken path clobbers g immediately
                li r4, 400
            loop:
                subi r4, r4, 1
                bgt r4, zero, loop
                li r2, 0
                exit
            ";
        let r = run(src, &PxConfig::default().cmp());
        assert_eq!(r.exit, RunExit::Exited(0));
        let nt_failures: Vec<_> = r.monitor.nt_records().collect();
        assert!(
            nt_failures.is_empty(),
            "NT-path must see spawn-time memory, got {nt_failures:?}"
        );
    }

    #[test]
    fn max_outstanding_limits_concurrency() {
        // A loop whose never-taken edge leads into a long spin: spawned
        // NT-paths occupy idle cores for MaxNTPathLength instructions.
        let src = r"
            .code
            main:
                li r4, 40
                li r9, -1000
            loop:
                subi r4, r4, 1
                blt r4, r9, spin    ; never taken: NT-paths go spin
                bgt r4, zero, loop
                li r2, 0
                exit
            spin:
                addi r8, r8, 1
                jmp spin
            ";
        let px = PxConfig::default()
            .cmp()
            .with_counter_threshold(15)
            .with_max_outstanding(2)
            .with_max_nt_path_len(10_000);
        let r = run(src, &px);
        assert!(r.stats.skipped_outstanding > 0, "outstanding cap must bite");
        assert!(r.stats.spawns >= 2);
    }

    #[test]
    fn forced_commit_squashes_the_oldest_path() {
        // A tiny primary L1 (2 lines) forces dirty-line displacement while
        // NT-paths are live, exercising the commit-token path of §4.3.
        let src = r"
            .code
            main:
                li r1, 1
                li r9, 0x2000
                li r10, 0x3000
                li r4, 120
            loop:
                bne r1, zero, work   ; spawn edge: NT spins below
                jmp work
            work:
                sw r4, 0(r9)         ; primary dirty lines in two sets
                sw r4, 0(r10)
                addi r9, r9, 32
                addi r10, r10, 32
                subi r4, r4, 1
                bgt r4, zero, loop
                li r2, 0
                exit
            ";
        let program = px_isa::asm::assemble(src).unwrap();
        let mach = MachConfig {
            l1: px_mach::CacheConfig {
                size_bytes: 64,
                assoc: 2,
                line_bytes: 32,
                hit_cycles: 3,
            },
            ..MachConfig::default()
        };
        let px = PxConfig::default()
            .cmp()
            .with_max_nt_path_len(5_000)
            .with_counter_threshold(15);
        let r = crate::run(&program, &mach, &px, IoState::default());
        assert!(r.exit.is_success());
        assert!(
            r.stats.stops_of("forced-commit") > 0,
            "dirty displacement must force commits: {:?}",
            r.stats.paths.iter().map(|p| p.stop).collect::<Vec<_>>()
        );
    }

    #[test]
    fn queued_paths_start_when_cores_free() {
        // More simultaneous spawn demand than idle cores: queued NT-paths
        // must still execute (spawns == completed paths).
        let src = r"
            .code
            main:
                li r4, 30
                li r9, -1
            loop:
                subi r4, r4, 1
                blt r4, r9, s1      ; never taken: spawn long NT
                blt r4, r9, s2      ; never taken: spawn long NT
                blt r4, r9, s3      ; never taken: spawn long NT
                bgt r4, zero, loop
                li r2, 0
                exit
            s1: jmp s1
            s2: jmp s2
            s3: jmp s3
            ";
        let program = px_isa::asm::assemble(src).unwrap();
        let px = PxConfig::default()
            .cmp()
            .with_max_nt_path_len(400)
            .with_counter_threshold(3)
            .with_max_outstanding(8);
        let r = crate::run(&program, &MachConfig::default(), &px, IoState::default());
        assert!(r.exit.is_success());
        assert_eq!(
            r.stats.paths.len() as u64,
            r.stats.spawns,
            "every spawned path completes or is cut short"
        );
        assert!(r.stats.spawns >= 6, "all three edges spawn repeatedly");
    }

    #[test]
    fn os_sandbox_works_in_cmp_mode() {
        let src = r"
            .code
            main:
                li r1, 1
                bne r1, zero, ok
                li r2, 88
                putc
                li r3, 0
                assert r3, #12
                jmp ok
            ok:
                li r4, 300
            loop:
                subi r4, r4, 1
                bgt r4, zero, loop
                li r2, 0
                exit
            ";
        let program = px_isa::asm::assemble(src).unwrap();
        let plain = crate::run(
            &program,
            &MachConfig::default(),
            &PxConfig::default().cmp(),
            IoState::default(),
        );
        assert_eq!(plain.monitor.len(), 0);
        let os = crate::run(
            &program,
            &MachConfig::default(),
            &PxConfig::default().cmp().with_os_sandbox(true),
            IoState::default(),
        );
        assert!(
            !os.monitor.is_empty(),
            "the bug past the syscall is reached"
        );
        assert!(os.io.output().is_empty(), "sandboxed putc must not leak");
        assert!(os.stats.nt_syscalls_sandboxed >= 1);
    }

    #[test]
    fn one_core_machine_is_an_engine_fault_not_a_panic() {
        let program = assemble(HIDDEN_BUG).unwrap();
        let r = crate::run(
            &program,
            &MachConfig::single_core(),
            &PxConfig::default().cmp(),
            IoState::default(),
        );
        assert_eq!(r.exit, RunExit::EngineFault(SimError::NeedsTwoCores));
    }

    #[test]
    fn cmp_max_length_cuts_runaway_paths() {
        let src = r"
            .code
            main:
                li r1, 1
                bne r1, zero, ok
            spin:
                jmp spin
            ok:
                li r4, 500
            loop:
                subi r4, r4, 1
                bgt r4, zero, loop
                li r2, 0
                exit
            ";
        let px = PxConfig::default().cmp().with_max_nt_path_len(40);
        let r = run(src, &px);
        assert_eq!(r.exit, RunExit::Exited(0));
        let spin = r.stats.paths.iter().find(|p| p.spawn_pc == 1).unwrap();
        assert_eq!((spin.stop, spin.executed), (NtStop::MaxLength, 40));
    }

    #[test]
    fn cmp_injected_faults_never_panic_or_leak() {
        use px_mach::{FaultMix, FaultPlan};
        let program = assemble(HIDDEN_BUG).unwrap();
        let clean = run(HIDDEN_BUG, &PxConfig::default().cmp());
        for seed in 0..8u64 {
            let mut plan = FaultPlan::new(seed, FaultMix::uniform(), 2);
            let r = crate::run_with(
                &program,
                &MachConfig::default(),
                &PxConfig::default().cmp(),
                IoState::default(),
                Some(&mut plan),
            );
            assert_eq!(r.exit, clean.exit, "seed {seed}");
            assert_eq!(r.io.output(), clean.io.output(), "seed {seed}");
        }
    }

    #[test]
    fn deterministic_across_runs() {
        let a = run(HIDDEN_BUG, &PxConfig::default().cmp());
        let b = run(HIDDEN_BUG, &PxConfig::default().cmp());
        assert_eq!(a.cycles, b.cycles);
        assert_eq!(a.stats.spawns, b.stats.spawns);
        assert_eq!(a.monitor.len(), b.monitor.len());
    }
}
