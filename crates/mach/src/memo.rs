//! NT-path memoization: a read-set-keyed replay cache for not-taken paths.
//!
//! NT paths are squashed, sandboxed excursions: nothing they do survives
//! except their *reports* (coverage deltas, monitor records, stats and
//! timing charges). That makes an NT path's entire observable effect a pure
//! function of its live-in state — the registers and committed memory bytes
//! it reads plus the watch table at spawn. This module records that live-in
//! read set alongside a step-exact effect bundle the first time a path runs;
//! later spawns at the same (spawn pc, NT target) whose live-ins still match
//! *replay* the bundle instead of re-simulating, step for step. A key
//! records once: while one path records it, concurrent spawns at the key
//! simulate without a recorder; the first probe whose live-ins fail its
//! entry's validation marks the key dead, and a dead key is never recorded
//! again ([`MemoTable`]).
//!
//! Replay is *simulation-timing identical*: the engines re-issue every cache
//! access of the recorded path in the same global order (so cycle charges,
//! sandbox-overflow squashes and cross-path cache interference are
//! recomputed live, never trusted from the recording) and re-apply every
//! budget and length cap against their live counters. What replay skips
//! is the interpreter itself — operand reads, ALU work, sandbox writes,
//! watch lookups — which is where the wall-clock time goes. Every
//! architectural digest (taken-path, coverage, timing, campaign aggregate)
//! is byte-identical with the cache on or off;
//! `bench_report --verify BENCH_throughput.json` enforces this
//! differentially in CI.
//!
//! Cache state is deliberately **not** part of the validated read set:
//! NT-path loads read committed memory (or their own sandbox writes, which
//! are not live-ins), so cache contents affect only timing, and timing is
//! recomputed. Paths are *not* memoized when a fault injector is attached
//! (injected faults are keyed to absolute instruction counts, not path
//! state), when the OS-sandbox extension lets syscalls mutate I/O state, or
//! when NT-from-NT exploration reads the BTB mid-path.

use std::collections::hash_map::Entry;
use std::collections::{HashMap, HashSet};
use std::sync::Arc;

use px_isa::{
    encode_program, CheckKind, DecodedProgram, Instruction, MicroOp, Reg, SyscallCode, UopKind,
};
use px_util::memo::MemoCounters;

use crate::config::CostModel;
use crate::core::Regs;
use crate::exec::{Branch, StepEvent};
use crate::memory::{CrashKind, Memory, Sandbox};
use crate::watch::{WatchRange, WatchTable};

/// Hard cap on recorded steps per entry; longer paths are not memoized.
/// Bounds both recording overhead and per-entry memory (a step is ~16
/// bytes). Batched simple regions count as one step, so real paths rarely
/// come close.
pub const MEMO_MAX_STEPS: usize = 4096;

/// Read-set size cap for recording: paths that read more than this many
/// distinct memory bytes are not memoized (probing such a set would cost
/// more than re-simulating the path). Not part of the memo fingerprint.
pub const MEMO_MAX_READS: usize = 1024;

/// Why an NT-path terminated (paper §4.2(3), plus the implicit sandbox
/// capacity limit of buffering in L1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum NtStop {
    /// Executed `MaxNTPathLength` instructions.
    MaxLength,
    /// Crashed (exception swallowed, not delivered to the OS).
    Crash(CrashKind),
    /// Reached an unsafe event — a system call the sandbox cannot contain.
    Unsafe(SyscallCode),
    /// Reached the program's `exit` call.
    ProgramEnd,
    /// A volatile line was displaced from L1: the sandbox overflowed.
    SandboxOverflow,
    /// CMP option only: squashed early because its sibling taken-path
    /// segment was forced to commit (dirty-line displacement, paper §4.3).
    ForcedCommit,
    /// Still running when the program (or its budget) finished.
    RunCutShort,
    /// Produced by nothing: NT-paths end at one length cap,
    /// MaxNTPathLength ([`NtStop::MaxLength`]). The variant stays so that
    /// callers naming its `"watchdog"` histogram class keep compiling.
    Watchdog,
}

impl NtStop {
    /// Coarse class used in histograms.
    #[must_use]
    pub fn class(&self) -> &'static str {
        match self {
            NtStop::MaxLength => "max-length",
            NtStop::Crash(_) => "crash",
            NtStop::Unsafe(_) => "unsafe",
            NtStop::ProgramEnd => "program-end",
            NtStop::SandboxOverflow => "sandbox-overflow",
            NtStop::ForcedCommit => "forced-commit",
            NtStop::RunCutShort => "cut-short",
            NtStop::Watchdog => "watchdog",
        }
    }

    /// Whether a path ending this way may be memoized: the stop must be a
    /// pure function of the path itself. Sandbox overflow, forced commit
    /// and cut-short depend on live machine state (cache contents, the
    /// sibling schedule, the run budget), so paths ending that way are
    /// never stored, and replay recomputes those stops live.
    #[must_use]
    pub fn memoizable(self) -> bool {
        match self {
            NtStop::MaxLength
            | NtStop::Watchdog
            | NtStop::Crash(_)
            | NtStop::Unsafe(_)
            | NtStop::ProgramEnd => true,
            NtStop::SandboxOverflow | NtStop::ForcedCommit | NtStop::RunCutShort => false,
        }
    }
}

/// A coverage/monitor side effect of one recorded step.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MemoNote {
    /// No side effect beyond execution itself.
    None,
    /// A conditional branch retired on the NT path: NT coverage records the
    /// followed edge and the dynamic-branch counter ticks.
    Branch {
        /// Branch pc.
        pc: u32,
        /// Whether the branch was taken (selects the recorded edge).
        taken: bool,
    },
    /// A `Check` tripped: a monitor record is filed.
    Check {
        /// Checker kind.
        kind: CheckKind,
        /// Static site id.
        site: u32,
        /// Faulting pc.
        pc: u32,
    },
    /// A watched range was touched: a monitor record is filed.
    Watch {
        /// Watchpoint tag.
        tag: u32,
        /// Accessed address.
        addr: u32,
        /// Whether the access was a write.
        is_write: bool,
        /// Accessing pc.
        pc: u32,
    },
    /// The path terminated on this step with a stop reason the step
    /// itself decides (always a [memoizable](NtStop::memoizable) one). A
    /// stop step files no trail entry and does not count toward the
    /// path-length caps (matching the live engines, which break before
    /// either).
    Stop(NtStop),
}

impl MemoNote {
    /// The recorded form of an NT-path step's event. A suppressed `exit`
    /// and a reached program end both stop the path as `ProgramEnd`.
    #[must_use]
    #[inline]
    pub fn of(event: &StepEvent) -> MemoNote {
        match *event {
            StepEvent::Branch(Branch { pc, taken, .. }) => MemoNote::Branch { pc, taken },
            StepEvent::CheckFailed { kind, site, pc } => MemoNote::Check { kind, site, pc },
            StepEvent::WatchHit {
                tag,
                addr,
                is_write,
                pc,
            } => MemoNote::Watch {
                tag,
                addr,
                is_write,
                pc,
            },
            StepEvent::UnsafeEvent {
                code: SyscallCode::Exit,
            }
            | StepEvent::Exit { .. } => MemoNote::Stop(NtStop::ProgramEnd),
            StepEvent::UnsafeEvent { code } => MemoNote::Stop(NtStop::Unsafe(code)),
            StepEvent::Crash { kind, .. } => MemoNote::Stop(NtStop::Crash(kind)),
            StepEvent::Syscall { .. } | StepEvent::None => MemoNote::None,
        }
    }
}

/// One recorded step of an NT path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MemoStep {
    /// A batched run of `n` simple micro-ops starting at `pc`. Costs are
    /// *not* recorded: replay re-walks the static cost table so the grant
    /// can be re-chunked against the live budget and length caps without
    /// drift. Simple ops touch neither memory nor the monitor.
    Run {
        /// First pc of the region.
        pc: u32,
        /// Micro-ops in the region.
        n: u32,
    },
    /// One non-simple micro-op.
    One {
        /// Base (non-memory) cycle cost charged by the interpreter,
        /// including any watch-hit surcharge.
        base: u32,
        /// Next pc after the step (drives the prime-path trail).
        next_pc: u32,
        /// Data access to re-issue against the live cache hierarchy.
        access: Option<(u32, bool)>,
        /// Coverage/monitor side effect.
        note: MemoNote,
    },
}

/// A memoized NT path: the validated live-in read set plus the step-exact
/// effect bundle.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MemoEntry {
    /// Branch the path was spawned from.
    pub spawn_pc: u32,
    /// First pc of the NT path.
    pub target: u32,
    /// Watch table at spawn (multiset of ranges; order is not
    /// architectural — see [`WatchTable::ranges`]).
    pub watch: Vec<WatchRange>,
    /// Registers read before being written, with the value observed.
    pub reg_reads: Vec<(u8, i32)>,
    /// Committed memory bytes read before being written, with the value
    /// observed.
    pub mem_reads: Vec<(u32, u8)>,
    /// The step-exact effect bundle.
    pub steps: Vec<MemoStep>,
    /// Stop reason as recorded (always [memoizable](NtStop::memoizable)).
    pub stop: NtStop,
}

/// Records one NT path's read set and effect bundle as it executes.
///
/// Register reads are noted *pre-step* (a register not yet written by the
/// path still holds its spawn value, so the current value is the live-in;
/// first-read-wins). Memory reads are noted per byte, skipping bytes the
/// path itself wrote. The recorder aborts — and the path is simply not
/// memoized — when the read set or step list exceeds its caps.
#[derive(Debug)]
pub struct MemoRecorder {
    spawn_pc: u32,
    target: u32,
    watch: Vec<WatchRange>,
    pred: bool,
    read_mask: u32,
    written_mask: u32,
    reg_reads: Vec<(u8, i32)>,
    mem_reads: Vec<(u32, u8)>,
    mem_seen: HashSet<u32>,
    steps: Vec<MemoStep>,
    aborted: bool,
}

fn in_kind_range(k: UopKind, lo: UopKind, hi: UopKind) -> bool {
    (lo as u8..=hi as u8).contains(&(k as u8))
}

impl MemoRecorder {
    /// Start recording a path spawned at `spawn_pc` toward `target`, with
    /// the given watch table and initial NT predicate.
    #[must_use]
    pub fn new(spawn_pc: u32, target: u32, watches: &WatchTable, pred: bool) -> MemoRecorder {
        MemoRecorder {
            spawn_pc,
            target,
            watch: watches.ranges().to_vec(),
            pred,
            read_mask: 0,
            written_mask: 0,
            reg_reads: Vec::new(),
            mem_reads: Vec::new(),
            mem_seen: HashSet::new(),
            steps: Vec::new(),
            aborted: false,
        }
    }

    fn read_reg(&mut self, idx: u8, regs: &Regs) {
        // r0 is hardwired zero — never a live-in.
        if idx == 0 {
            return;
        }
        let bit = 1u32 << idx;
        if (self.read_mask | self.written_mask) & bit != 0 {
            return;
        }
        self.read_mask |= bit;
        self.reg_reads.push((idx, regs.get(Reg::new(idx))));
    }

    fn write_reg(&mut self, idx: u8) {
        if idx != 0 {
            self.written_mask |= 1u32 << idx;
        }
    }

    fn read_mem(&mut self, addr: u32, len: u32, sandbox: &Sandbox, memory: &Memory) {
        for b in addr..addr.saturating_add(len) {
            // Bytes the path already wrote are reads of its own sandbox,
            // not live-ins.
            if sandbox.written_byte(b).is_some() {
                continue;
            }
            if !self.mem_seen.insert(b) {
                continue;
            }
            // Under CMP copy-on-write the spawn-time value may survive only
            // in the snapshot layer; the standard engine never snapshots.
            let v = sandbox.snapshot_byte(b).unwrap_or_else(|| memory.byte(b));
            self.mem_reads.push((b, v));
        }
        if self.mem_reads.len() > MEMO_MAX_READS {
            self.aborted = true;
        }
    }

    /// Notes the register reads and writes of a kind that only computes
    /// registers: `Nop`, the ALU kinds and the predicated register fixes
    /// (squashed ones touch no architectural state). Returns `false`,
    /// noting nothing, for any other kind.
    fn note_reg_op(&mut self, u: &MicroOp, regs: &Regs) -> bool {
        let k = u.kind;
        match k {
            UopKind::Nop => {}
            UopKind::PMovI | UopKind::PMov | UopKind::PAluI if !self.pred => {}
            UopKind::PMovI => self.write_reg(u.a),
            UopKind::PMov | UopKind::PAluI => {
                self.read_reg(u.b, regs);
                self.write_reg(u.a);
            }
            _ if in_kind_range(k, UopKind::AddRR, UopKind::SneRR) => {
                self.read_reg(u.b, regs);
                self.read_reg(u.c, regs);
                self.write_reg(u.a);
            }
            _ if in_kind_range(k, UopKind::AddRI, UopKind::SneRI) => {
                self.read_reg(u.b, regs);
                self.write_reg(u.a);
            }
            _ => return false,
        }
        true
    }

    /// Note the register reads/writes of one micro-op *before* it executes,
    /// and for loads that will succeed, the memory bytes it will read.
    pub fn note_uop(&mut self, u: &MicroOp, regs: &Regs, sandbox: &Sandbox, memory: &Memory) {
        if self.aborted {
            return;
        }
        if self.note_reg_op(u, regs) {
            return;
        }
        let k = u.kind;
        match k {
            UopKind::ClearWatch | UopKind::Jump | UopKind::JumpBad => {}
            UopKind::LoadByte | UopKind::LoadWord => {
                self.read_reg(u.b, regs);
                let addr = (regs.get(Reg::new(u.b)) as u32).wrapping_add(u.imm as u32);
                let len = if k == UopKind::LoadByte { 1 } else { 4 };
                if memory.check(addr, len).is_ok() {
                    self.read_mem(addr, len, sandbox, memory);
                    self.write_reg(u.a);
                }
                // A crashing load writes nothing and terminates the path.
            }
            UopKind::StoreByte | UopKind::StoreWord => {
                self.read_reg(u.a, regs);
                self.read_reg(u.b, regs);
            }
            UopKind::PStoreByte | UopKind::PStoreWord if self.pred => {
                self.read_reg(u.a, regs);
                self.read_reg(u.b, regs);
            }
            UopKind::PStoreByte | UopKind::PStoreWord => {}
            UopKind::Call => {
                self.write_reg(Reg::RA.index() as u8);
                self.pred = false;
            }
            UopKind::CallBad => {}
            UopKind::Ret => {
                self.read_reg(Reg::RA.index() as u8, regs);
                self.pred = false;
            }
            UopKind::Check => self.read_reg(u.b, regs),
            UopKind::SetWatch => {
                self.read_reg(u.a, regs);
                self.read_reg(u.b, regs);
            }
            _ if in_kind_range(k, UopKind::BranchEq, UopKind::BranchGt) => {
                self.read_reg(u.b, regs);
                self.read_reg(u.c, regs);
                self.pred = false;
            }
            // Suppressed system calls touch no architectural state.
            _ => {}
        }
    }

    /// Note a batched run of `n` simple ops starting at `pc`, using the
    /// *pre-batch* register file. Walks the ops in order so first-read-wins
    /// masks stay exact.
    pub fn note_run(&mut self, dp: &DecodedProgram, pc: u32, n: u32, regs: &Regs) {
        if self.aborted {
            return;
        }
        let ops = dp.ops();
        for i in 0..n {
            let u = &ops[(pc + i) as usize];
            debug_assert!(u.is_simple(), "batched region must be simple");
            let noted = self.note_reg_op(u, regs);
            debug_assert!(noted, "non-simple kind in simple region");
        }
        // Why pre-batch regs are correct for every op in the walk: a
        // register is recorded only if neither read nor written yet, and an
        // unwritten register still holds its spawn value — which equals its
        // pre-batch value.
        if let Some(MemoStep::Run { pc: p0, n: n0 }) = self.steps.last_mut() {
            if *p0 + *n0 == pc {
                *n0 += n;
                return;
            }
        }
        self.push_step(MemoStep::Run { pc, n });
    }

    /// Append one non-simple step's effect record.
    pub fn push_one(
        &mut self,
        base: u32,
        next_pc: u32,
        access: Option<(u32, bool)>,
        note: MemoNote,
    ) {
        if self.aborted {
            return;
        }
        self.push_step(MemoStep::One {
            base,
            next_pc,
            access,
            note,
        });
    }

    fn push_step(&mut self, step: MemoStep) {
        if self.steps.len() >= MEMO_MAX_STEPS {
            self.aborted = true;
            return;
        }
        self.steps.push(step);
    }

    /// Finish recording a path that ended with `stop`. Returns `None` —
    /// nothing to store — if the recorder aborted over a cap or the stop
    /// is not [memoizable](NtStop::memoizable).
    fn finish(self, stop: NtStop) -> Option<MemoEntry> {
        if self.aborted || !stop.memoizable() {
            return None;
        }
        Some(MemoEntry {
            spawn_pc: self.spawn_pc,
            target: self.target,
            watch: self.watch,
            reg_reads: self.reg_reads,
            mem_reads: self.mem_reads,
            steps: self.steps,
            stop,
        })
    }
}

/// Multiset equality of watch-range sets. A taken-path `unwatch` followed by
/// a re-`watch` of the same range leaves the same set in another order, and
/// order is not architectural (hits report the minimum overlapping tag), so
/// validation must ignore it.
fn watch_multiset_eq(recorded: &[WatchRange], live: &[WatchRange]) -> bool {
    if recorded.len() != live.len() {
        return false;
    }
    recorded.iter().all(|r| {
        let want = recorded.iter().filter(|x| *x == r).count();
        live.iter().filter(|x| *x == r).count() == want
    })
}

/// What a [`MemoTable::probe`] tells the spawning engine to do.
#[derive(Debug)]
pub enum MemoProbe {
    /// The key's entry validated against the live state: replay it.
    Hit(Arc<MemoEntry>),
    /// The key is unknown: simulate the path and record it.
    Record,
    /// The key is dead or being recorded: simulate the path without
    /// recording it.
    Skip,
}

/// What a [`MemoTable`] knows about one key.
#[derive(Debug)]
enum KeyState {
    /// A live path holds the key's recorder.
    Recording,
    /// The stored entry.
    Live(Arc<MemoEntry>),
    /// The entry once failed validation.
    Dead,
}

/// The per-run (or, via the campaign runner, per-program) NT-path replay
/// cache: a map from (spawn pc, NT target) to that key's state.
///
/// One rule decides what is recorded: a key keeps the first entry stored
/// for it, and the first probe whose live state fails that entry's
/// validation marks the key dead. A dead key is never recorded again in
/// this table. The exercise counters (paper §4.2(1)) allow an edge only a
/// few spawns per reset interval, so a key whose live-ins differ once is
/// not worth another recording. While one path records a key, concurrent
/// spawns at it (CMP) simulate without a recorder.
///
/// The table has no capacity limit: paths spawn only from taken-path
/// branches, so a program has at most two keys per static conditional
/// branch, and each entry is capped by [`MEMO_MAX_STEPS`] and
/// [`MEMO_MAX_READS`]. A run that panics partway through a path can leave
/// its key recording; that key is then never recorded in this table.
#[derive(Debug)]
pub struct MemoTable {
    map: HashMap<u64, KeyState>,
    fingerprint: u64,
    /// Probe/store accounting (not part of `PxStats`, so memoization never
    /// perturbs architectural statistics).
    pub counters: MemoCounters,
}

impl MemoTable {
    /// Create an empty table bound to a configuration fingerprint.
    #[must_use]
    pub fn new(fingerprint: u64) -> MemoTable {
        MemoTable {
            map: HashMap::new(),
            fingerprint,
            counters: MemoCounters::default(),
        }
    }

    /// The fingerprint this table is bound to. Engines refuse tables whose
    /// fingerprint does not match their program + configuration.
    #[must_use]
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint
    }

    /// Always 0, like `counters.evictions`: the table evicts nothing. Kept
    /// only because the benchmark harness reports it.
    #[must_use]
    pub fn evictions(&self) -> u64 {
        self.counters.evictions
    }

    fn key(spawn_pc: u32, target: u32) -> u64 {
        (u64::from(spawn_pc) << 32) | u64::from(target)
    }

    /// Probe the key (spawn pc, target). Its entry hits when the watch
    /// table multiset is equal and every recorded register and memory
    /// live-in matches the live machine state. An unknown key is a miss
    /// and asks for a recording, after which the key is recording until
    /// [`finish`](MemoTable::finish). A recording key is a miss and a
    /// declined recording (a skip). An entry that fails validation marks
    /// the key dead, and a dead key counts an invalidation and a skip.
    /// Whether a spawn is recorded never changes what the simulation
    /// computes.
    pub fn probe(
        &mut self,
        spawn_pc: u32,
        target: u32,
        watches: &WatchTable,
        regs: &Regs,
        memory: &Memory,
    ) -> MemoProbe {
        let state = match self.map.entry(Self::key(spawn_pc, target)) {
            Entry::Vacant(v) => {
                v.insert(KeyState::Recording);
                self.counters.misses += 1;
                return MemoProbe::Record;
            }
            Entry::Occupied(o) => o.into_mut(),
        };
        match state {
            KeyState::Recording => {
                self.counters.misses += 1;
                self.counters.skips += 1;
                return MemoProbe::Skip;
            }
            KeyState::Live(e) => {
                if watch_multiset_eq(&e.watch, watches.ranges())
                    && e.reg_reads
                        .iter()
                        .all(|&(r, want)| regs.get(Reg::new(r)) == want)
                    && e.mem_reads.iter().all(|&(a, want)| memory.byte(a) == want)
                {
                    self.counters.hits += 1;
                    return MemoProbe::Hit(Arc::clone(e));
                }
                *state = KeyState::Dead;
            }
            KeyState::Dead => {}
        }
        self.counters.invalidations += 1;
        self.counters.skips += 1;
        MemoProbe::Skip
    }

    /// Ends the recording `rec` of a path that stopped with `stop`: its
    /// key becomes live with the recorded entry, or, when the recorder
    /// aborted over a cap or the stop is not
    /// [memoizable](NtStop::memoizable), the key is forgotten and the
    /// recording counts as a bypass.
    pub fn finish(&mut self, rec: MemoRecorder, stop: NtStop) {
        let key = Self::key(rec.spawn_pc, rec.target);
        match rec.finish(stop) {
            Some(entry) => {
                self.counters.stores += 1;
                self.map.insert(key, KeyState::Live(Arc::new(entry)));
            }
            None => {
                self.counters.bypasses += 1;
                self.map.remove(&key);
            }
        }
    }
}

/// Fingerprint binding a memo table to everything that shapes recorded
/// bundles: the program text (step pcs and base costs), MaxNTPathLength (it
/// decides where recorded paths end), the NT-entry predicate, the cost model
/// (base costs are baked into recorded steps) and the engine family.
///
/// Program *data* and the path plan are deliberately excluded: data live-ins
/// are validated per probe, and trails are replayed live against whatever
/// plan the run carries.
#[must_use]
pub fn memo_fingerprint(
    code: &[Instruction],
    max_nt_path_len: u32,
    apply_fixes: bool,
    costs: &CostModel,
    engine_tag: u8,
) -> u64 {
    let mut h = px_util::fnv1a64(0x4d45_4d4f, &encode_program(code));
    h = px_util::fnv1a64(h, &max_nt_path_len.to_le_bytes());
    h = px_util::fnv1a64(h, &[u8::from(apply_fixes), engine_tag]);
    px_util::fnv1a64(h, format!("{costs:?}").as_bytes())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::MachConfig;

    /// A finished recording at key (`spawn_pc`, 9) with the given live-ins.
    fn recording(
        spawn_pc: u32,
        reg_reads: Vec<(u8, i32)>,
        mem_reads: Vec<(u32, u8)>,
    ) -> MemoRecorder {
        let mut r = MemoRecorder::new(spawn_pc, 9, &WatchTable::default(), false);
        r.reg_reads = reg_reads;
        r.mem_reads = mem_reads;
        r.steps.push(MemoStep::Run { pc: 9, n: 3 });
        r
    }

    fn probe(t: &mut MemoTable, spawn_pc: u32, regs: &Regs) -> MemoProbe {
        t.probe(
            spawn_pc,
            9,
            &WatchTable::default(),
            regs,
            &Memory::new(8192),
        )
    }

    fn hits(t: &mut MemoTable, watches: &WatchTable, regs: &Regs, mem: &Memory) -> bool {
        matches!(t.probe(4, 9, watches, regs, mem), MemoProbe::Hit(_))
    }

    fn counts(t: &MemoTable) -> [u64; 6] {
        let c = t.counters;
        [
            c.hits,
            c.misses,
            c.invalidations,
            c.skips,
            c.stores,
            c.bypasses,
        ]
    }

    #[test]
    fn probe_validates_reg_and_mem_live_ins() {
        let watches = WatchTable::default();
        let mut regs = Regs::default();
        let mut mem = Memory::new(8192);
        regs.set(Reg::new(5), 77);
        mem.set_byte(4096, 9);
        let table = || {
            let mut t = MemoTable::new(1);
            t.finish(
                recording(4, vec![(5, 77)], vec![(4096, 9)]),
                NtStop::MaxLength,
            );
            t
        };
        let mut t = table();
        assert!(hits(&mut t, &watches, &regs, &mem));
        assert_eq!(t.counters.hits, 1);

        regs.set(Reg::new(5), 78);
        assert!(!hits(&mut table(), &watches, &regs, &mem));

        regs.set(Reg::new(5), 77);
        mem.set_byte(4096, 10);
        assert!(!hits(&mut t, &watches, &regs, &mem));
        assert_eq!(t.counters.invalidations, 1);

        // Unknown key: a miss, not an invalidation.
        assert!(matches!(
            t.probe(4, 10, &watches, &regs, &mem),
            MemoProbe::Record
        ));
        assert_eq!(t.counters.misses, 1);
        assert_eq!(t.counters.invalidations, 1);
    }

    #[test]
    fn probe_validates_watch_multiset_ignoring_order() {
        let mut watches = WatchTable::default();
        watches.set(100, 4, 1);
        watches.set(200, 4, 2);
        let mut r = recording(4, Vec::new(), Vec::new());
        // Record the ranges in the opposite order.
        r.watch = watches.ranges().to_vec();
        r.watch.reverse();
        let mut t = MemoTable::new(1);
        t.finish(r, NtStop::MaxLength);
        let regs = Regs::default();
        let mem = Memory::new(8192);
        assert!(hits(&mut t, &watches, &regs, &mem));

        watches.set(300, 4, 3);
        assert!(
            !hits(&mut t, &watches, &regs, &mem),
            "extra live range must invalidate"
        );
    }

    #[test]
    fn the_program_bounds_the_table_and_nothing_is_evicted() {
        // More distinct keys than any fixed-capacity table this cache has
        // had (512 slots): every one is kept.
        let mut t = MemoTable::new(1);
        let regs = Regs::default();
        for spawn_pc in 0..576 {
            assert!(matches!(probe(&mut t, spawn_pc, &regs), MemoProbe::Record));
            t.finish(
                recording(spawn_pc, Vec::new(), Vec::new()),
                NtStop::MaxLength,
            );
        }
        for spawn_pc in 0..576 {
            assert!(
                matches!(probe(&mut t, spawn_pc, &regs), MemoProbe::Hit(_)),
                "key {spawn_pc} was lost"
            );
        }
        assert_eq!(counts(&t), [576, 576, 0, 0, 576, 0]);
        assert_eq!((t.counters.evictions, t.evictions()), (0, 0));
    }

    #[test]
    fn a_key_is_never_rerecorded_after_its_first_failed_validation() {
        let mut t = MemoTable::new(1);
        let mut regs = Regs::default();
        // An unknown key asks for a recording.
        assert!(matches!(probe(&mut t, 4, &regs), MemoProbe::Record));
        t.finish(recording(4, vec![(5, 0)], Vec::new()), NtStop::MaxLength);
        assert!(matches!(probe(&mut t, 4, &regs), MemoProbe::Hit(_)));
        // The first failed validation kills the key: from then on every
        // probe is an invalidation and a declined recording, even with
        // the recorded live-ins back in place.
        regs.set(Reg::new(5), 1);
        assert!(matches!(probe(&mut t, 4, &regs), MemoProbe::Skip));
        regs.set(Reg::new(5), 0);
        assert!(matches!(probe(&mut t, 4, &regs), MemoProbe::Skip));
        assert_eq!(counts(&t), [1, 1, 2, 2, 1, 0]);
    }

    #[test]
    fn a_recording_key_is_skipped_and_an_unstored_recording_is_forgotten() {
        let mut t = MemoTable::new(1);
        let regs = Regs::default();
        assert!(matches!(probe(&mut t, 4, &regs), MemoProbe::Record));
        // A concurrent spawn at a key being recorded simulates unrecorded:
        // a miss and a skip.
        assert!(matches!(probe(&mut t, 4, &regs), MemoProbe::Skip));
        assert_eq!(counts(&t), [0, 2, 0, 1, 0, 0]);
        // A recording that cannot be stored is a bypass, and its key is
        // unknown again: the next spawn records it.
        t.finish(recording(4, Vec::new(), Vec::new()), NtStop::ForcedCommit);
        assert!(matches!(probe(&mut t, 4, &regs), MemoProbe::Record));
        t.finish(recording(4, Vec::new(), Vec::new()), NtStop::MaxLength);
        assert!(matches!(probe(&mut t, 4, &regs), MemoProbe::Hit(_)));
        assert_eq!(counts(&t), [1, 3, 0, 1, 1, 1]);
    }

    #[test]
    fn recorder_first_read_wins_and_skips_written() {
        let mut regs = Regs::default();
        regs.set(Reg::new(3), 30);
        regs.set(Reg::new(4), 40);
        let watches = WatchTable::default();
        let mut r = MemoRecorder::new(0, 1, &watches, false);
        // First op reads r3, r4 and writes r3; the second re-reads r3.
        let program = px_isa::asm::assemble(".code\nmain:\n  add r3, r3, r4\n  add r5, r3, r4\n")
            .expect("assembles");
        let dp = DecodedProgram::decode(&program);
        r.note_run(&dp, 0, 2, &regs);
        let e = r.finish(NtStop::MaxLength).expect("recorder live");
        // r3 and r4 recorded once each with pre-batch values; the second
        // op's r3 read is of a written register, not a live-in.
        assert_eq!(e.reg_reads, vec![(3, 30), (4, 40)]);
        assert_eq!(e.steps, vec![MemoStep::Run { pc: 0, n: 2 }]);
    }

    #[test]
    fn stops_that_depend_on_live_state_are_never_stored() {
        let watches = WatchTable::default();
        let record = |stop| MemoRecorder::new(0, 1, &watches, false).finish(stop);
        for stop in [
            NtStop::SandboxOverflow,
            NtStop::ForcedCommit,
            NtStop::RunCutShort,
        ] {
            assert!(!stop.memoizable() && record(stop).is_none(), "{stop:?}");
        }
        for stop in [
            NtStop::MaxLength,
            NtStop::Watchdog,
            NtStop::Crash(CrashKind::DivByZero),
            NtStop::Unsafe(SyscallCode::PutChar),
            NtStop::ProgramEnd,
        ] {
            assert_eq!(record(stop).map(|e| e.stop), Some(stop));
        }
    }

    #[test]
    fn recorder_skips_self_written_bytes_and_caps_reads() {
        let watches = WatchTable::default();
        let mem = Memory::new(8192);
        let mut sandbox = Sandbox::default();
        sandbox.write_byte(4098, 7);
        let mut r = MemoRecorder::new(0, 1, &watches, false);
        r.read_mem(4096, 4, &sandbox, &mem);
        let e = r.finish(NtStop::MaxLength).expect("under the cap");
        assert_eq!(
            e.mem_reads,
            vec![(4096, 0), (4097, 0), (4099, 0)],
            "self-written byte excluded"
        );

        // One byte of each span is self-written, so the first span reads
        // exactly the cap and the second one byte over it.
        let cap = MEMO_MAX_READS as u32;
        let mut r = MemoRecorder::new(0, 1, &watches, false);
        r.read_mem(4096, cap + 1, &sandbox, &mem);
        assert!(!r.aborted, "at the read cap is not over it");
        let mut r = MemoRecorder::new(0, 1, &watches, false);
        r.read_mem(4096, cap + 2, &sandbox, &mem);
        assert!(r.aborted, "over the read cap must abort");
        assert!(r.finish(NtStop::MaxLength).is_none());
    }

    #[test]
    fn run_steps_merge_only_when_contiguous() {
        let watches = WatchTable::default();
        let regs = Regs::default();
        let program = px_isa::asm::assemble(&format!(".code\nmain:\n{}", "  nop\n".repeat(10)))
            .expect("assembles");
        let dp = DecodedProgram::decode(&program);
        let mut r = MemoRecorder::new(0, 1, &watches, false);
        r.note_run(&dp, 0, 3, &regs);
        r.note_run(&dp, 3, 2, &regs);
        r.push_one(1, 9, None, MemoNote::None);
        r.note_run(&dp, 0, 2, &regs);
        let e = r.finish(NtStop::MaxLength).expect("live");
        assert_eq!(
            e.steps,
            vec![
                MemoStep::Run { pc: 0, n: 5 },
                MemoStep::One {
                    base: 1,
                    next_pc: 9,
                    access: None,
                    note: MemoNote::None
                },
                MemoStep::Run { pc: 0, n: 2 },
            ]
        );
    }

    #[test]
    fn fingerprint_tracks_config() {
        let code = vec![Instruction::Nop; 4];
        let costs = MachConfig::default().costs;
        let base = memo_fingerprint(&code, 1000, true, &costs, 0);
        assert_eq!(base, memo_fingerprint(&code, 1000, true, &costs, 0));
        assert_ne!(base, memo_fingerprint(&code, 999, true, &costs, 0));
        assert_ne!(base, memo_fingerprint(&code, 1000, false, &costs, 0));
        assert_ne!(base, memo_fingerprint(&code, 1000, true, &costs, 1));
        let mut other = costs;
        other.div += 1;
        assert_ne!(base, memo_fingerprint(&code, 1000, true, &other, 0));
    }
}
