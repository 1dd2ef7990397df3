//! Monitored engine runs, shared by the `nt-heavy` and `paper-apps`
//! workloads.
//!
//! A [`Subject`] is one compiled program; an [`Op`] is one engine × subject
//! × input call — one monitored run, the way `pxc run` performs it (fresh
//! replay-cache table per run). [`Bench::new`] runs every op once in set-up
//! and pins its architectural digest; every later run of the op must
//! reproduce it. Timed passes visit the ops in a seeded shuffled order so no
//! engine always runs in the same cache/thermal position.

use std::collections::{BTreeMap, BTreeSet};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

use pathexpander::{
    cmp_memo_table, run_cmp_decoded, run_cmp_memo, run_standard_decoded, run_standard_memo,
    standard_memo_table, NtStop, PxConfig, PxRunResult,
};
use px_analyze::Analysis;
use px_detect::{classify, report, Tool};
use px_isa::{DecodedProgram, SyscallCode};
use px_mach::{run_baseline, Coverage, CrashKind, IoState, MachConfig, RunResult};
use px_util::{fnv1a64, MemoCounters, Rng, SplitMix64};
use px_workloads::CompiledProgram;

use crate::stats::{hd_quantile, median, quantile, ratio, Spans, Tally, Values};

/// The three monitored-run engines.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Engine {
    /// `px_mach::run_baseline`: taken path only, no NT work.
    Baseline,
    /// `pathexpander::run_standard*`: NT-paths inline on one core.
    Standard,
    /// `pathexpander::run_cmp*`: NT-paths on idle cores.
    Cmp,
}

impl Engine {
    /// Every engine, in reporting order.
    pub const ALL: [Engine; 3] = [Engine::Baseline, Engine::Standard, Engine::Cmp];

    /// The engine's name in messages.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Engine::Baseline => "baseline",
            Engine::Standard => "standard",
            Engine::Cmp => "cmp",
        }
    }

    /// Position in [`Engine::ALL`].
    #[must_use]
    pub fn index(self) -> usize {
        self as usize
    }

    /// The span a run of this engine is recorded under.
    fn span(self) -> &'static str {
        match self {
            Engine::Baseline => "mach.baseline",
            Engine::Standard => "core.standard",
            Engine::Cmp => "core.cmp",
        }
    }
}

/// The eight NT-path stop classes with their metric names. The names are
/// checked against `NtStop::class` when the counters are read.
pub const STOPS: [(NtStop, &str); 8] = [
    (NtStop::MaxLength, "core.stop.max-length"),
    (NtStop::Crash(CrashKind::DivByZero), "core.stop.crash"),
    (NtStop::Unsafe(SyscallCode::PutChar), "core.stop.unsafe"),
    (NtStop::ProgramEnd, "core.stop.program-end"),
    (NtStop::SandboxOverflow, "core.stop.sandbox-overflow"),
    (NtStop::ForcedCommit, "core.stop.forced-commit"),
    (NtStop::RunCutShort, "core.stop.cut-short"),
    (NtStop::Watchdog, "core.stop.watchdog"),
];

/// One compiled program with everything its runs need.
pub struct Subject {
    /// `program/tool` label.
    pub name: String,
    pub compiled: CompiledProgram,
    pub dp: DecodedProgram,
    /// Statically feasible branch edges (px-analyze).
    pub feasible: Vec<[bool; 2]>,
    pub feasible_count: u32,
    /// The detection tool the program was compiled for, with its seeded-bug
    /// lines (`None` for hand-assembled programs).
    pub tool: Option<Tool>,
    pub bug_lines: Vec<u32>,
    /// Standard-mode and CMP-mode configs, replay cache on and off.
    px_standard: [PxConfig; 2],
    px_cmp: [PxConfig; 2],
}

impl Subject {
    /// Decodes and analyses `compiled` (recorded under the `isa.decode` and
    /// `analyze.analysis` spans). `px` is the standard-mode configuration;
    /// its `max_instructions` is also the baseline budget.
    #[must_use]
    pub fn new(
        name: String,
        compiled: CompiledProgram,
        tool: Option<Tool>,
        bug_lines: Vec<u32>,
        px: &PxConfig,
        spans: &mut Spans,
    ) -> Subject {
        let dp = spans.time("isa.decode", || DecodedProgram::decode(&compiled.program));
        let analysis = spans.time("analyze.analysis", || Analysis::of(&compiled.program));
        let on = px.clone().with_nt_memo(true);
        let off = px.clone().with_nt_memo(false);
        Subject {
            name,
            feasible: analysis.feasible_edges().to_vec(),
            feasible_count: analysis.feasible_edge_count(),
            compiled,
            dp,
            tool,
            bug_lines,
            px_cmp: [on.clone().cmp(), off.clone().cmp()],
            px_standard: [on, off],
        }
    }
}

/// One monitored run: an engine on a subject with one input.
pub struct Op {
    pub subject: usize,
    pub engine: Engine,
    /// Index of the input among the subject's inputs.
    pub input_id: usize,
    pub input: Vec<u8>,
    pub io_seed: u64,
    /// Part of the timed operation set; untimed ops run in set-up and in the
    /// traced run only.
    pub timed: bool,
}

/// The result of one run.
pub enum Run {
    Base(Box<RunResult>),
    /// A PathExpander run with its replay-cache counters (`evictions` counts
    /// slot and variant evictions).
    Px(Box<PxRunResult>, MemoCounters),
}

impl Run {
    /// Simulated instructions, taken plus NT.
    #[must_use]
    pub fn instructions(&self) -> u64 {
        match self {
            Run::Base(r) => r.instructions,
            Run::Px(r, _) => r.stats.taken_instructions + r.stats.nt_instructions,
        }
    }

    /// Simulated cycles on the primary core.
    #[must_use]
    pub fn cycles(&self) -> u64 {
        match self {
            Run::Base(r) => r.cycles,
            Run::Px(r, _) => r.cycles,
        }
    }

    /// How the taken path ended.
    #[must_use]
    pub fn exit_class(&self) -> &'static str {
        match self {
            Run::Base(r) => r.exit.class(),
            Run::Px(r, _) => r.exit.class(),
        }
    }

    /// The architectural digest `BENCH_throughput.json` records for a row:
    /// exit class, instructions, cycles, NT-paths, monitor records, spawns,
    /// covered edges and program output.
    #[must_use]
    pub fn arch_digest(&self, s: &Subject) -> u64 {
        let p = &s.compiled.program;
        let (exit, fields, output) = match self {
            Run::Base(r) => (
                r.exit.class(),
                [
                    r.instructions,
                    r.cycles,
                    0,
                    0,
                    0,
                    u64::from(r.coverage.covered_edges(p)),
                ],
                r.io.output(),
            ),
            Run::Px(r, _) => (
                r.exit.class(),
                [
                    self.instructions(),
                    r.cycles,
                    r.stats.paths.len() as u64,
                    r.monitor.len() as u64,
                    r.stats.spawns,
                    u64::from(r.total_coverage.covered_edges(p)),
                ],
                r.io.output(),
            ),
        };
        let mut h = fnv1a64(0, exit.as_bytes());
        for n in fields {
            h = fnv1a64(h, &n.to_le_bytes());
        }
        fnv1a64(h, output)
    }

    /// Digest of the committed taken path (exit, output, taken coverage) —
    /// equal across engines for one input whenever every engine exits.
    #[must_use]
    pub fn taken_digest(&self, s: &Subject) -> u64 {
        let p = &s.compiled.program;
        match self {
            Run::Base(r) => {
                let h = fnv1a64(0, format!("{:?}", r.exit).as_bytes());
                r.coverage.digest(p, fnv1a64(h, r.io.output()))
            }
            Run::Px(r, _) => r.taken_path_digest(p),
        }
    }
}

/// Runs `op` as `pxc run` would: a fresh replay-cache table per run (or
/// none, with `memo` off).
#[must_use]
pub fn execute(s: &Subject, op: &Op, memo: bool) -> Run {
    let program = &s.compiled.program;
    let io = IoState::new(op.input.clone(), op.io_seed);
    let leg = usize::from(!memo);
    let with_table = |r: PxRunResult, c: MemoCounters, evictions: u64| {
        Run::Px(Box::new(r), MemoCounters { evictions, ..c })
    };
    match op.engine {
        Engine::Baseline => Run::Base(Box::new(run_baseline(
            program,
            &MachConfig::single_core(),
            io,
            s.px_standard[0].max_instructions,
        ))),
        Engine::Standard => {
            let (mach, px) = (MachConfig::single_core(), &s.px_standard[leg]);
            if memo {
                let mut table = standard_memo_table(program, &mach, px);
                let r = run_standard_memo(program, &s.dp, &mach, px, io, &mut table);
                with_table(r, table.counters, table.evictions())
            } else {
                let r = run_standard_decoded(program, &s.dp, &mach, px, io);
                with_table(r, MemoCounters::default(), 0)
            }
        }
        Engine::Cmp => {
            let (mach, px) = (MachConfig::default(), &s.px_cmp[leg]);
            if memo {
                let mut table = cmp_memo_table(program, &mach, px);
                let r = run_cmp_memo(program, &s.dp, &mach, px, io, &mut table);
                with_table(r, table.counters, table.evictions())
            } else {
                let r = run_cmp_decoded(program, &s.dp, &mach, px, io);
                with_table(r, MemoCounters::default(), 0)
            }
        }
    }
}

/// Counters of the workspace's layers, summed over the PathExpander runs of
/// one pass (read from `PxStats`, the memo table and the coverage maps).
#[derive(Debug, Default)]
pub struct LayerCounters {
    pub taken_instr: u64,
    pub nt_instr: u64,
    pub sim_cycles: u64,
    pub spawns: u64,
    pub skipped_hot: u64,
    pub skipped_checker: u64,
    pub skipped_static: u64,
    pub skipped_outstanding: u64,
    pub nt_paths: u64,
    pub nt_executed: u64,
    pub stops: [u64; 8],
    pub nt_writes: u64,
    pub memo: MemoCounters,
    pub taken_edges: u64,
    pub total_edges: u64,
    pub paths_covered: u64,
}

impl LayerCounters {
    /// Adds one PathExpander run.
    pub fn absorb(&mut self, r: &PxRunResult, memo: &MemoCounters, program: &px_isa::Program) {
        let s = &r.stats;
        self.taken_instr += s.taken_instructions;
        self.nt_instr += s.nt_instructions;
        self.sim_cycles += r.cycles;
        self.spawns += s.spawns;
        self.skipped_hot += s.skipped_hot;
        self.skipped_checker += s.skipped_checker;
        self.skipped_static += s.skipped_static;
        self.skipped_outstanding += s.skipped_outstanding;
        self.nt_paths += s.paths.len() as u64;
        self.nt_writes += s.nt_writes;
        for p in &s.paths {
            self.nt_executed += u64::from(p.executed);
            if let Some(i) = STOPS.iter().position(|(k, _)| k.class() == p.stop.class()) {
                self.stops[i] += 1;
            }
        }
        self.memo.merge(memo);
        self.taken_edges += u64::from(r.taken_coverage.covered_edges(program));
        self.total_edges += u64::from(r.total_coverage.covered_edges(program));
        self.paths_covered += r
            .path_coverage
            .as_ref()
            .map_or(0, |c| u64::from(c.covered_count()));
    }

    /// Writes the `core.*`, `mach.sandbox.*`, `mach.memo.*` counters and the
    /// coverage counters into `v`.
    pub fn put(&self, v: &mut Values) {
        let m = &self.memo;
        let attempts = self.spawns
            + self.skipped_hot
            + self.skipped_checker
            + self.skipped_static
            + self.skipped_outstanding;
        for (name, value) in [
            ("core.taken_instr", self.taken_instr as f64),
            ("core.nt_instr", self.nt_instr as f64),
            ("core.sim_cycles", self.sim_cycles as f64),
            ("core.spawns", self.spawns as f64),
            ("core.skipped_hot", self.skipped_hot as f64),
            ("core.skipped_checker", self.skipped_checker as f64),
            ("core.skipped_static", self.skipped_static as f64),
            ("core.skipped_outstanding", self.skipped_outstanding as f64),
            (
                "core.spawn_admit_ratio",
                ratio(self.spawns as f64, attempts as f64),
            ),
            ("core.nt_paths", self.nt_paths as f64),
            (
                "core.nt_mean_len",
                ratio(self.nt_executed as f64, self.nt_paths as f64),
            ),
            ("mach.sandbox.nt_writes", self.nt_writes as f64),
            ("mach.memo.hits", m.hits as f64),
            ("mach.memo.misses", m.misses as f64),
            ("mach.memo.invalidations", m.invalidations as f64),
            ("mach.memo.stores", m.stores as f64),
            ("mach.memo.evictions", m.evictions as f64),
            ("mach.memo.bypasses", m.bypasses as f64),
            ("mach.memo.skips", m.skips as f64),
            ("mach.memo.hit_ratio", m.hit_rate()),
            ("mach.coverage.taken_edges", self.taken_edges as f64),
            ("mach.coverage.total_edges", self.total_edges as f64),
            ("mach.paths.covered", self.paths_covered as f64),
        ] {
            v.insert(name, value);
        }
        for (i, (_, name)) in STOPS.iter().enumerate() {
            v.insert(name, self.stops[i] as f64);
        }
    }
}

/// The paper's deterministic outputs over the golden runs.
#[derive(Debug, Default)]
pub struct PaperOutputs {
    /// Covered taken-plus-NT edges over statically feasible edges, in
    /// percent, unioned over every PathExpander run of each subject.
    pub edge_coverage_pct: f64,
    /// Mean simulated-cycle overhead of the CMP option over the baseline,
    /// in percent, over every (subject, input) with both runs (E8).
    pub sim_overhead_pct: f64,
    /// Distinct seeded-bug lines detected by a PathExpander run (Table 4).
    pub bugs_detected: u64,
}

/// The subjects and ops of an engine workload, with their pinned goldens.
pub struct Bench {
    pub subjects: Vec<Subject>,
    pub ops: Vec<Op>,
    /// Architectural digest of every op, pinned in set-up.
    pub golden: Vec<u64>,
    /// Host seconds of every op's golden run.
    pub golden_secs: Vec<f64>,
    /// Counters of one pass over every op (replay cache on).
    pub counters: LayerCounters,
    pub paper: PaperOutputs,
}

/// One run of `op` with panic containment; `None` if the run panicked.
fn contained(s: &Subject, op: &Op, memo: bool) -> Option<Run> {
    catch_unwind(AssertUnwindSafe(|| execute(s, op, memo))).ok()
}

impl Bench {
    /// Runs every op once (the golden runs), pins the digests, checks them
    /// against `expect` where it names a committed digest, checks that the
    /// engines agree on the taken path of every input all of them finish,
    /// and reads the paper's outputs and the layer counters.
    pub fn new(
        subjects: Vec<Subject>,
        ops: Vec<Op>,
        expect: impl Fn(&Op) -> Option<u64>,
        tally: &mut Tally,
    ) -> Bench {
        let mut golden = Vec::with_capacity(ops.len());
        let mut golden_secs = Vec::with_capacity(ops.len());
        let mut counters = LayerCounters::default();
        let mut union: Vec<Option<Coverage>> = subjects.iter().map(|_| None).collect();
        let mut bugs: BTreeSet<(usize, u32)> = BTreeSet::new();
        let mut cycles: BTreeMap<(usize, usize), [Option<u64>; 3]> = BTreeMap::new();
        let mut taken: BTreeMap<(usize, usize), Vec<(&'static str, u64)>> = BTreeMap::new();
        for op in &ops {
            let s = &subjects[op.subject];
            let t = Instant::now();
            let run = contained(s, op, true);
            golden_secs.push(t.elapsed().as_secs_f64());
            let Some(run) = run else {
                tally.check(false, || {
                    format!("{} on {} panicked", op.engine.name(), s.name)
                });
                golden.push(0);
                continue;
            };
            let digest = run.arch_digest(s);
            let want = expect(op);
            tally.check(
                run.exit_class() != "engine-fault" && want.is_none_or(|w| w == digest),
                || {
                    format!(
                        "golden {} on {}: exit {}, digest {digest:016x}, expected {want:016x?}",
                        op.engine.name(),
                        s.name,
                        run.exit_class()
                    )
                },
            );
            golden.push(digest);
            let key = (op.subject, op.input_id);
            cycles.entry(key).or_default()[op.engine.index()] = Some(run.cycles());
            taken
                .entry(key)
                .or_default()
                .push((run.exit_class(), run.taken_digest(s)));
            if let Run::Px(r, memo) = &run {
                counters.absorb(r, memo, &s.compiled.program);
                match &mut union[op.subject] {
                    Some(u) => {
                        let merged = u.merge(&r.total_coverage);
                        tally.check(merged.is_ok(), || format!("coverage merge on {}", s.name));
                    }
                    slot @ None => *slot = Some(r.total_coverage.clone()),
                }
                if let Some(tool) = s.tool {
                    let dets = report(&s.compiled, &r.monitor, tool);
                    for line in classify(&dets, &s.bug_lines, false).true_positive_lines {
                        bugs.insert((op.subject, line));
                    }
                }
            }
        }
        for ((subject, input), runs) in &taken {
            if runs.len() > 1 && runs.iter().all(|(exit, _)| *exit == "exited") {
                tally.check(runs.iter().all(|r| r.1 == runs[0].1), || {
                    format!(
                        "engines disagree on the taken path of {} input {input}",
                        subjects[*subject].name
                    )
                });
            }
        }
        let (mut covered, mut feasible) = (0u64, 0u64);
        for (s, u) in subjects.iter().zip(&union) {
            if let Some(u) = u {
                covered += u64::from(u.covered_feasible_edges(&s.compiled.program, &s.feasible));
                feasible += u64::from(s.feasible_count);
            }
        }
        let overheads: Vec<f64> = cycles
            .values()
            .filter_map(
                |c| match (c[Engine::Baseline.index()], c[Engine::Cmp.index()]) {
                    (Some(b), Some(x)) => Some((x as f64 / b.max(1) as f64 - 1.0).max(0.0) * 100.0),
                    _ => None,
                },
            )
            .collect();
        let paper = PaperOutputs {
            edge_coverage_pct: 100.0 * ratio(covered as f64, feasible as f64),
            sim_overhead_pct: ratio(overheads.iter().sum(), overheads.len() as f64),
            bugs_detected: bugs.len() as u64,
        };
        Bench {
            subjects,
            ops,
            golden,
            golden_secs,
            counters,
            paper,
        }
    }

    /// One pass over the ops — the timed ones, or all with `all` — in a
    /// seeded shuffled order. Every run's digest is checked against its
    /// golden; with `spans`, each run is recorded under its engine's span.
    fn pass(
        &self,
        rng: &mut SplitMix64,
        all: bool,
        memo: bool,
        mut spans: Option<&mut Spans>,
        tally: &mut Tally,
    ) -> Pass {
        let mut order: Vec<usize> = (0..self.ops.len())
            .filter(|&i| all || self.ops[i].timed)
            .collect();
        for i in (1..order.len()).rev() {
            let j = rng.below(i as u64 + 1) as usize;
            order.swap(i, j);
        }
        let start = Instant::now();
        let mut runs = Vec::with_capacity(order.len());
        for i in order {
            let (op, s) = (&self.ops[i], &self.subjects[self.ops[i].subject]);
            let t = Instant::now();
            let run = contained(s, op, memo);
            let dt = t.elapsed();
            if let Some(sp) = spans.as_deref_mut() {
                sp.add(op.engine.span(), dt);
            }
            let digest = run.as_ref().map(|r| r.arch_digest(s));
            tally.check(digest == Some(self.golden[i]), || {
                format!(
                    "{} on {} (memo {memo}): digest {digest:016x?}, golden {:016x}",
                    op.engine.name(),
                    s.name,
                    self.golden[i]
                )
            });
            runs.push(Timed {
                op: i,
                engine: op.engine,
                secs: dt.as_secs_f64(),
                instructions: run.as_ref().map_or(0, Run::instructions),
            });
        }
        Pass {
            wall: start.elapsed().as_secs_f64(),
            runs,
        }
    }

    /// The traced run: alternates an untraced pass, a traced pass and a
    /// replay-cache-off pass over every op until `seconds` have elapsed (at
    /// least one round), and writes the per-layer metrics into `v`.
    pub fn trace(&self, seconds: f64, seed: u64, tally: &mut Tally, v: &mut Values) -> usize {
        let mut rng = SplitMix64::new(seed ^ 0x7472_6163);
        let start = Instant::now();
        let (mut plain, mut traced, mut shares, mut saved) =
            (Vec::new(), Vec::new(), Vec::new(), Vec::new());
        let mut per_engine = [(0.0f64, 0u64); 3];
        while traced.is_empty() || start.elapsed().as_secs_f64() < seconds {
            plain.push(self.pass(&mut rng, true, true, None, tally).wall);
            let mut spans = Spans::default();
            let on = self.pass(&mut rng, true, true, Some(&mut spans), tally);
            traced.push(on.wall);
            shares.push(ratio(spans.total_ms(), on.wall * 1e3));
            for r in &on.runs {
                per_engine[r.engine.index()].0 += r.secs;
                per_engine[r.engine.index()].1 += r.instructions;
            }
            let off = self.pass(&mut rng, true, false, None, tally);
            let px_secs = |p: &Pass| -> f64 {
                p.runs
                    .iter()
                    .filter(|r| r.engine != Engine::Baseline)
                    .map(|r| r.secs)
                    .sum()
            };
            saved.push((px_secs(&off) - px_secs(&on)) * 1e3);
        }
        let ns = |e: Engine| {
            let (secs, instructions) = per_engine[e.index()];
            ratio(secs * 1e9, instructions as f64)
        };
        v.insert("mach.baseline_ns_per_instr", ns(Engine::Baseline));
        v.insert("core.standard_ns_per_instr", ns(Engine::Standard));
        v.insert("core.cmp_ns_per_instr", ns(Engine::Cmp));
        v.insert("mach.memo.saved_ms", median(&saved));
        v.insert("trace.attributed_share", median(&shares));
        v.insert(
            "trace.overhead_pct",
            (ratio(median(&traced), median(&plain)) - 1.0) * 100.0,
        );
        self.counters.put(v);
        v.insert("sim_overhead_pct", self.paper.sim_overhead_pct);
        v.insert("bugs_detected", self.paper.bugs_detected as f64);
        traced.len()
    }
}

/// The untraced measurement: the fastest time of every op over the timed
/// passes and the golden runs so far. Contention on a shared host only ever adds time, so an
/// op's fastest repetition is what the simulator itself costs.
pub struct Fastest {
    rng: SplitMix64,
    best: Vec<f64>,
    instructions: Vec<u64>,
    /// Every sample, per engine, for the protocol report.
    samples: [Vec<f64>; 3],
    passes: usize,
}

impl Fastest {
    #[must_use]
    pub fn new(bench: &Bench, seed: u64) -> Fastest {
        Fastest {
            rng: SplitMix64::new(seed ^ 0x7061_7373),
            best: vec![f64::INFINITY; bench.ops.len()],
            instructions: vec![0; bench.ops.len()],
            samples: Default::default(),
            passes: 0,
        }
    }

    /// Counts a set-up's golden runs as repetitions: they run the same ops
    /// the same way, and spread over the window with the set-ups, they add
    /// samples from other moments of the host.
    pub fn absorb_golden(&mut self, bench: &Bench) {
        for (best, &secs) in self.best.iter_mut().zip(&bench.golden_secs) {
            *best = best.min(secs);
        }
    }

    /// Timed passes over `bench`'s timed ops until `seconds` have elapsed
    /// (at least one).
    pub fn run(&mut self, bench: &Bench, seconds: f64, tally: &mut Tally) {
        let start = Instant::now();
        loop {
            for r in bench.pass(&mut self.rng, false, true, None, tally).runs {
                self.best[r.op] = self.best[r.op].min(r.secs);
                self.instructions[r.op] = r.instructions;
                self.samples[r.engine.index()].push(r.secs * 1e3);
            }
            self.passes += 1;
            if start.elapsed().as_secs_f64() >= seconds {
                return;
            }
        }
    }

    /// Writes the end-to-end throughput and latency metrics; returns the
    /// number of passes.
    pub fn report(&self, bench: &Bench, v: &mut Values) -> usize {
        let timed: Vec<usize> = (0..bench.ops.len())
            .filter(|&i| bench.ops[i].timed)
            .collect();
        let busy: f64 = timed.iter().map(|&i| self.best[i]).sum();
        let best_ms: Vec<f64> = timed.iter().map(|&i| self.best[i] * 1e3).collect();
        let simulated: u64 = timed.iter().map(|&i| self.instructions[i]).sum();
        v.insert("sim_mips", ratio(simulated as f64, busy) / 1e6);
        v.insert("cases_per_s", ratio(timed.len() as f64, busy));
        v.insert("op_ms_p50", hd_quantile(&best_ms, 0.5));
        v.insert("op_ms_p90", hd_quantile(&best_ms, 0.9));
        eprintln!(
            "perfbench: {} passes over {} timed runs; fastest-of-passes sum {:.1} ms",
            self.passes,
            timed.len(),
            busy * 1e3
        );
        for e in Engine::ALL {
            let s = &self.samples[e.index()];
            if !s.is_empty() {
                eprintln!(
                    "perfbench: {:<8} samples {:>5}  ms min {:.3}  p25 {:.3}  median {:.3}  p75 {:.3}  p90 {:.3}",
                    e.name(),
                    s.len(),
                    quantile(s, 0.0),
                    quantile(s, 0.25),
                    quantile(s, 0.5),
                    quantile(s, 0.75),
                    quantile(s, 0.9),
                );
            }
        }
        self.passes
    }
}

/// Timings of one pass: its wall seconds and every run in it.
struct Pass {
    wall: f64,
    runs: Vec<Timed>,
}

/// One timed run: the op, its host seconds and simulated instructions.
struct Timed {
    op: usize,
    engine: Engine,
    secs: f64,
    instructions: u64,
}
