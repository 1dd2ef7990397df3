//! The engine × workload matrix behind `BENCH_throughput.json`
//! (experiments E13 and E18): what each engine computes on fixed hot-loop
//! workloads, and proof that the NT-path replay cache never changes it.
//!
//! Every field is architectural — exit, simulated instruction and cycle
//! counts, NT-paths, a determinism digest, replay-cache counters — so the
//! report is byte-deterministic and `bench_report --verify` compares it
//! byte for byte. How fast the host computes it is `perfbench/`'s job.
//!
//! The standard and CMP rows run twice: with an explicit replay-cache
//! table (the row's numbers and counters) and with the cache off. The two
//! digests must be identical, and `nt-heavy` must replay at least
//! [`MIN_NT_HEAVY_HIT_RATE`] of its probes on each engine — a differential
//! that passes because the cache never fired proves nothing.
//!
//! The workloads are deliberately hot-loop shaped: `nt-heavy` keeps an
//! NT-path live most of the time and hammers the sandbox with loads and
//! stores (the paged-sandbox fast path), `taken-stride` sweeps committed
//! memory with no NT work at all (the `Memory`/`Cache` fast path).

use pathexpander::{
    cmp_memo_table, run_cmp_decoded, run_cmp_memo, run_cmp_profiled, run_standard_decoded,
    run_standard_memo, standard_memo_table, PxConfig, PxRunResult,
};
use px_detect::Tool;
use px_isa::asm::assemble;
use px_isa::{DecodedProgram, Program, UopKind};
use px_mach::{run_baseline, IoState, MachConfig, RunExit};
use px_util::{fnv1a64, Json, MemoCounters, ToJson};
use px_workloads::zoo::{self, ZooSpec};

/// Schema tag of `BENCH_throughput.json`. Bump on any shape change.
pub const SCHEMA: &str = "px-bench/throughput-v2";

/// Instruction budget per run.
pub const RUN_BUDGET: u64 = 1_500_000;

/// Minimum replay-cache hit rate the report demands on `nt-heavy` per
/// engine. The workload re-spawns one cold edge with a constant-register
/// live-in set, so nearly every spawn after the first must replay; in
/// practice both engines sit above 0.99, and anything under this floor
/// means the read-set validation or the fingerprint went wrong.
pub const MIN_NT_HEAVY_HIT_RATE: f64 = 0.90;

/// An NT-path-dominated workload: a spawn edge that stays cold (tiny
/// counter-reset interval), whose NT-path runs a long store/load sweep
/// inside the sandbox. The body is self-contained — it ends at an `exit`
/// instead of falling through into the live outer loop — so the excursion
/// terminates inside the sandbox and its live-ins are loop-invariant
/// (`r1`, `r9`), the shape the paper's premise describes: thousands of
/// near-identical squashed excursions. (Before the NT-path replay cache
/// the body leaked into the outer loop and ran to `MaxNTPathLength`
/// reading the live loop counter; the digests of this file changed when
/// the body was sealed, and `BENCH_throughput.json` was regenerated.)
const NT_HEAVY: &str = r"
    .data
    buf: .word 0
    .code
    main:
        li r1, 1
        la r9, buf
        li r4, 200000
    loop:
        bne r1, zero, cont
        ; --- NT-path body: sandboxed store/load sweep, never live ---
        li r6, 96
        mv r10, r9
    ntw:
        sw r6, 0(r10)
        lw r7, 0(r10)
        sb r6, 2(r10)
        addi r10, r10, 4
        subi r6, r6, 1
        bgt r6, zero, ntw
        li r2, 0
        exit
    cont:
        subi r4, r4, 1
        bgt r4, zero, loop
        li r2, 0
        exit
    ";

/// A taken-path-only workload: a committed-memory stride sweep, no NT
/// spawns (the branch has only one cold edge, exhausted immediately).
const TAKEN_STRIDE: &str = r"
    .data
    buf: .word 0
    .code
    main:
        la r9, buf
        li r4, 150000
        mv r10, r9
        addi r8, r9, 16384
    loop:
        sw r4, 0(r10)
        lw r7, 0(r10)
        addi r10, r10, 4
        blt r10, r8, nowrap
        mv r10, r9
    nowrap:
        subi r4, r4, 1
        bgt r4, zero, loop
        li r2, 0
        exit
    ";

/// The engines of the matrix, in row order.
pub const ENGINES: [&str; 3] = ["baseline", "standard", "cmp"];

/// The workloads measured, in row order.
pub const WORKLOADS: [(&str, &str); 2] = [("nt-heavy", NT_HEAVY), ("taken-stride", TAKEN_STRIDE)];

/// Generated-zoo workloads measured alongside the asm hot loops. Their
/// profile is distinct from both: a dispatch loop with frequent short
/// NT-paths that stop at the next `readint` (unsafe event) — syscall-bounded
/// NT work rather than sandbox-bounded. The op stream is long enough that
/// every engine runs to `RUN_BUDGET`.
pub const ZOO_WORKLOADS: [&str; 2] = ["zoo:interpreter:1", "zoo:state-machine:1"];

/// Common-op count of the zoo perf input stream (budget-saturating).
const ZOO_PERF_OPS: u32 = 60_000;

/// Replay-cache differential of a standard or CMP row.
#[derive(Debug, Clone)]
pub struct MemoDiff {
    /// Counters of the run with an explicit replay-cache table.
    pub counters: MemoCounters,
    /// Whether the run with the cache off produced the same digest — the
    /// replay cache's contract.
    pub identical: bool,
}

/// One engine × workload row.
#[derive(Debug, Clone)]
pub struct ThroughputRow {
    pub engine: String,
    pub workload: String,
    /// Exit class of the run.
    pub exit: String,
    /// Simulated instructions executed (taken + NT).
    pub instructions: u64,
    /// Simulated cycles of the run.
    pub sim_cycles: u64,
    /// NT-paths completed (0 for baseline).
    pub nt_paths: u64,
    /// FNV-1a-64 digest of the run's architectural results.
    pub digest: String,
    /// `None` for baseline, which has no replay cache.
    pub memo: Option<MemoDiff>,
}

impl ToJson for ThroughputRow {
    fn to_json(&self) -> Json {
        let mut fields = vec![
            ("engine", self.engine.to_json()),
            ("workload", self.workload.to_json()),
            ("exit", self.exit.to_json()),
            ("instructions", self.instructions.to_json()),
            ("sim_cycles", self.sim_cycles.to_json()),
            ("nt_paths", self.nt_paths.to_json()),
            ("digest", self.digest.to_json()),
        ];
        if let Some(m) = &self.memo {
            let c = &m.counters;
            fields.push((
                "memo",
                Json::obj([
                    ("hits", c.hits.to_json()),
                    ("misses", c.misses.to_json()),
                    ("invalidations", c.invalidations.to_json()),
                    ("stores", c.stores.to_json()),
                    ("evictions", c.evictions.to_json()),
                    ("bypasses", c.bypasses.to_json()),
                    ("skips", c.skips.to_json()),
                    (
                        "hit_rate",
                        Json::Float((c.hit_rate() * 10_000.0).round() / 10_000.0),
                    ),
                    ("identical", m.identical.to_json()),
                ]),
            ));
        }
        Json::obj(fields)
    }
}

/// The full report emitted as `BENCH_throughput.json`.
#[derive(Debug, Clone)]
pub struct ThroughputReport {
    pub rows: Vec<ThroughputRow>,
    /// Digest over every row's architectural digest.
    pub arch_digest: String,
}

impl ThroughputReport {
    /// The rows that break the replay-cache contract: a memo row whose
    /// cache-off digest drifted, or an `nt-heavy` row that hit under
    /// [`MIN_NT_HEAVY_HIT_RATE`].
    #[must_use]
    pub fn failures(&self) -> Vec<&ThroughputRow> {
        self.rows
            .iter()
            .filter(|r| {
                r.memo.as_ref().is_some_and(|m| {
                    !m.identical
                        || (r.workload == "nt-heavy"
                            && m.counters.hit_rate() < MIN_NT_HEAVY_HIT_RATE)
                })
            })
            .collect()
    }

    /// Every memo row identical and the cache demonstrably engaged.
    #[must_use]
    pub fn passed(&self) -> bool {
        self.failures().is_empty()
    }

    /// The report exactly as `BENCH_throughput.json` holds it.
    #[must_use]
    pub fn render(&self) -> String {
        format!("{}\n", self.to_json().dump())
    }
}

impl ToJson for ThroughputReport {
    fn to_json(&self) -> Json {
        Json::obj([
            ("schema", SCHEMA.to_json()),
            ("budget", RUN_BUDGET.to_json()),
            (
                "rows",
                Json::Arr(self.rows.iter().map(ToJson::to_json).collect()),
            ),
            ("arch_digest", self.arch_digest.to_json()),
        ])
    }
}

/// Architectural summary of one run — everything the digest covers.
struct ArchResult {
    exit: String,
    instructions: u64,
    sim_cycles: u64,
    nt_paths: u64,
    io_output: Vec<u8>,
    monitor_len: usize,
    spawns: u64,
    covered_edges: u32,
}

impl ArchResult {
    fn digest(&self) -> String {
        let mut h = fnv1a64(0, self.exit.as_bytes());
        for n in [
            self.instructions,
            self.sim_cycles,
            self.nt_paths,
            self.monitor_len as u64,
            self.spawns,
            u64::from(self.covered_edges),
        ] {
            h = fnv1a64(h, &n.to_le_bytes());
        }
        format!("{:016x}", fnv1a64(h, &self.io_output))
    }

    fn from_px(program: &Program, r: &PxRunResult) -> ArchResult {
        ArchResult {
            exit: r.exit.class().to_owned(),
            instructions: r.stats.taken_instructions + r.stats.nt_instructions,
            sim_cycles: r.cycles,
            nt_paths: r.stats.paths.len() as u64,
            io_output: r.io.output().to_vec(),
            monitor_len: r.monitor.len(),
            spawns: r.stats.spawns,
            covered_edges: r.total_coverage.covered_edges(program),
        }
    }
}

fn px_config() -> PxConfig {
    PxConfig::default()
        .with_max_instructions(RUN_BUDGET)
        .with_counter_threshold(1)
        .with_counter_reset_interval(64)
        .with_max_nt_path_len(2_000)
}

/// Builds `(program, input stream)` for a zoo workload.
fn zoo_program(spec_str: &str) -> (Program, Vec<u8>) {
    let spec = ZooSpec::parse(spec_str).unwrap_or_else(|e| panic!("perf zoo spec {spec_str}: {e}"));
    let w = zoo::generate(&spec);
    let compiled = w
        .compile_for(Tool::Assertions)
        .unwrap_or_else(|e| panic!("perf zoo workload {spec_str}: {e}"));
    (
        compiled.program,
        zoo::input_bytes_n(&spec, 0xC0FFEE, ZOO_PERF_OPS),
    )
}

/// Every workload of the matrix as `(name, program, input)`, in row order.
fn workloads() -> Vec<(&'static str, Program, Vec<u8>)> {
    let asm = WORKLOADS.into_iter().map(|(name, src)| {
        let program = assemble(src).unwrap_or_else(|e| panic!("perf workload {name}: {e}"));
        (name, program, Vec::new())
    });
    let zoo = ZOO_WORKLOADS.into_iter().map(|spec| {
        let (program, input) = zoo_program(spec);
        (spec, program, input)
    });
    asm.chain(zoo).collect()
}

/// Runs one engine on one workload. The standard and CMP engines run with
/// an explicit replay-cache table and again with the cache off.
fn measure(engine: &str, workload: &str, program: &Program, input: &[u8]) -> ThroughputRow {
    let io = || IoState::new(input.to_vec(), 0xC0FFEE);
    let (arch, memo) = match engine {
        "baseline" => {
            let r = run_baseline(program, &MachConfig::single_core(), io(), RUN_BUDGET);
            let arch = ArchResult {
                exit: match r.exit {
                    RunExit::Exited(_) => "exited".to_owned(),
                    other => other.class().to_owned(),
                },
                instructions: r.instructions,
                sim_cycles: r.cycles,
                nt_paths: 0,
                io_output: r.io.output().to_vec(),
                monitor_len: 0,
                spawns: 0,
                covered_edges: r.coverage.covered_edges(program),
            };
            (arch, None)
        }
        "standard" | "cmp" => {
            let dp = DecodedProgram::decode(program);
            let (on, off, counters) = if engine == "standard" {
                let mach = MachConfig::single_core();
                let px = px_config();
                let mut table = standard_memo_table(program, &mach, &px);
                let on = run_standard_memo(program, &dp, &mach, &px, io(), &mut table);
                let px = px.with_nt_memo(false);
                let off = run_standard_decoded(program, &dp, &mach, &px, io());
                (on, off, table.counters)
            } else {
                let mach = MachConfig::default();
                let px = px_config().cmp();
                let mut table = cmp_memo_table(program, &mach, &px);
                let on = run_cmp_memo(program, &dp, &mach, &px, io(), &mut table);
                let px = px.with_nt_memo(false);
                let off = run_cmp_decoded(program, &dp, &mach, &px, io());
                (on, off, table.counters)
            };
            let arch = ArchResult::from_px(program, &on);
            let identical = arch.digest() == ArchResult::from_px(program, &off).digest();
            (
                arch,
                Some(MemoDiff {
                    counters,
                    identical,
                }),
            )
        }
        other => panic!("unknown engine {other:?}"),
    };
    ThroughputRow {
        engine: engine.to_owned(),
        workload: workload.to_owned(),
        digest: arch.digest(),
        exit: arch.exit,
        instructions: arch.instructions,
        sim_cycles: arch.sim_cycles,
        nt_paths: arch.nt_paths,
        memo,
    }
}

/// Schema tag of the `--profile` histogram (`bench_report --profile`).
/// Bump on any shape change.
pub const PROFILE_SCHEMA: &str = "px-bench/uop-profile-v1";

/// Per-handler micro-op histogram of the CMP engine across the workload
/// matrix. Entirely architectural — retired counts and charged base cycles
/// per [`UopKind`], no wall clock — so the emitted JSON is byte-deterministic
/// run to run and safe to diff in CI.
///
/// Only the CMP engine has a profiled entry point ([`run_cmp_profiled`]
/// threads a `PROFILE` const through the dispatch loops so the unprofiled
/// build pays nothing).
#[must_use]
pub fn profile_report() -> Json {
    let mut rows: Vec<Json> = Vec::new();
    let mut h = 0u64;
    for (name, program, input) in workloads() {
        let io = IoState::new(input, 0xC0FFEE);
        let (r, prof) = run_cmp_profiled(&program, &MachConfig::default(), &px_config().cmp(), io);
        let digest = ArchResult::from_px(&program, &r).digest();
        let handlers: Vec<Json> = UopKind::ALL
            .iter()
            .filter(|&&k| prof.count[k as usize] > 0)
            .map(|&k| {
                Json::obj([
                    ("uop", k.name().to_json()),
                    ("count", prof.count[k as usize].to_json()),
                    ("cycles", prof.cycles[k as usize].to_json()),
                ])
            })
            .collect();
        h = fnv1a64(h, digest.as_bytes());
        for (c, y) in prof.count.iter().zip(&prof.cycles) {
            h = fnv1a64(fnv1a64(h, &c.to_le_bytes()), &y.to_le_bytes());
        }
        rows.push(Json::obj([
            ("workload", name.to_json()),
            ("digest", digest.to_json()),
            ("uops_retired", prof.total_count().to_json()),
            ("base_cycles", prof.total_cycles().to_json()),
            ("handlers", Json::Arr(handlers)),
        ]));
    }
    Json::obj([
        ("schema", PROFILE_SCHEMA.to_json()),
        ("engine", "cmp".to_json()),
        ("budget", RUN_BUDGET.to_json()),
        ("workloads", Json::Arr(rows)),
        ("profile_digest", format!("{h:016x}").to_json()),
    ])
}

/// Runs the full matrix: every workload × [`ENGINES`].
#[must_use]
pub fn throughput_report() -> ThroughputReport {
    let mut rows = Vec::new();
    for (name, program, input) in workloads() {
        for engine in ENGINES {
            rows.push(measure(engine, name, &program, &input));
        }
    }
    let mut h = 0u64;
    for row in &rows {
        h = fnv1a64(h, row.digest.as_bytes());
    }
    ThroughputReport {
        rows,
        arch_digest: format!("{h:016x}"),
    }
}

/// The committed report the matrix must reproduce byte for byte.
#[cfg(test)]
pub(crate) const COMMITTED: &str = include_str!("../../../../BENCH_throughput.json");

/// The matrix, simulated once per test binary and shared by every test that
/// inspects it (it is the slowest thing in px-bench's unit tests).
#[cfg(test)]
pub(crate) fn matrix() -> &'static ThroughputReport {
    static MATRIX: std::sync::OnceLock<ThroughputReport> = std::sync::OnceLock::new();
    MATRIX.get_or_init(throughput_report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pathexpander::run;

    #[test]
    fn digests_are_deterministic_and_mode_independent() {
        let program = assemble(NT_HEAVY).unwrap();
        let a = measure("standard", "nt-heavy", &program, &[]);
        let b = measure("standard", "nt-heavy", &program, &[]);
        assert_eq!(a.digest, b.digest);
        assert!(a.instructions > 0);
        assert!(a.nt_paths > 0, "nt-heavy must actually spawn NT-paths");
    }

    /// The CMP profile counts every micro-op the run retires, whether the
    /// primary batched it or stepped it and whether an NT-path did.
    #[test]
    fn the_cmp_profile_counts_every_retired_micro_op() {
        let nt_heavy = (
            "nt-heavy",
            assemble(NT_HEAVY).unwrap(),
            Vec::new(),
            px_config().cmp(),
        );
        let paper =
            [("bc", Tool::Iwatcher), ("print_tokens2", Tool::Ccured)].map(|(name, tool)| {
                let w = px_workloads::by_name(name).unwrap();
                let program = w.compile_for(tool).unwrap().program;
                (name, program, w.general_input(1), w.px_config().cmp())
            });
        for (name, program, input, px) in std::iter::once(nt_heavy).chain(paper) {
            let io = IoState::new(input, 1);
            let (r, prof) = run_cmp_profiled(&program, &MachConfig::default(), &px, io);
            assert!(r.stats.spawns > 0, "{name}: NT-paths must spawn");
            assert_eq!(
                prof.total_count(),
                r.stats.taken_instructions + r.stats.nt_instructions,
                "{name}: profiled micro-ops"
            );
        }
    }

    #[test]
    fn nt_heavy_spends_most_instructions_in_nt_paths() {
        let program = assemble(NT_HEAVY).unwrap();
        let r = run(
            &program,
            &MachConfig::single_core(),
            &px_config(),
            IoState::new(Vec::new(), 0xC0FFEE),
        );
        assert!(
            r.stats.nt_instructions > r.stats.taken_instructions,
            "NT work must dominate: nt={} taken={}",
            r.stats.nt_instructions,
            r.stats.taken_instructions
        );
        assert!(
            r.stats.nt_writes > 10_000,
            "sandbox sees heavy write traffic"
        );
    }

    #[test]
    fn profile_report_is_deterministic_and_consistent() {
        let a = profile_report().dump();
        let b = profile_report().dump();
        assert_eq!(a, b, "profile JSON must be byte-deterministic");
        assert!(a.starts_with(&format!(r#"{{"schema":"{PROFILE_SCHEMA}""#)));
        // Branch handlers must appear on nt-heavy (a branch-driven loop).
        assert!(a.contains(r#""uop":"br.gt""#));
        assert!(a.contains(r#""profile_digest":""#));
    }

    #[test]
    fn report_json_has_schema_and_digest() {
        let report = matrix();
        assert_eq!(
            report.render(),
            COMMITTED,
            "the matrix no longer reproduces the committed BENCH_throughput.json"
        );
        let dumped = report.to_json().dump();
        assert!(dumped.starts_with(&format!(r#"{{"schema":"{SCHEMA}""#)));
        assert!(dumped.contains(r#""arch_digest":""#));
        assert_eq!(
            report.rows.len(),
            ENGINES.len() * (WORKLOADS.len() + ZOO_WORKLOADS.len())
        );
    }

    #[test]
    fn every_engine_produces_a_row_with_nonzero_work() {
        let report = matrix();
        let workloads = WORKLOADS.iter().map(|(w, _)| *w).chain(ZOO_WORKLOADS);
        for workload in workloads {
            for engine in ENGINES {
                let row = report
                    .rows
                    .iter()
                    .find(|r| r.engine == engine && r.workload == workload)
                    .unwrap_or_else(|| panic!("no {engine}/{workload} row"));
                assert!(row.instructions > 0, "{engine}/{workload} did no work");
                assert_eq!(
                    row.memo.is_some(),
                    engine != "baseline",
                    "{engine}/{workload}: only baseline lacks replay-cache counters"
                );
            }
        }
    }

    #[test]
    fn memo_never_moves_a_row_digest() {
        // The replay-cache contract at the bench layer: every memo row's
        // digest is identical with the cache on and off.
        for r in &matrix().rows {
            if let Some(m) = &r.memo {
                assert!(
                    m.identical,
                    "{}/{}: cache-off digest drifted",
                    r.engine, r.workload
                );
            }
        }
    }
}
