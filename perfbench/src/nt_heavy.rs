//! `nt-heavy`: experiment E13's NT-path-dominated program through the
//! standard and CMP engines at the E13 configuration.
//!
//! The program takes no input, so `--seed` only shuffles the run order.
//! Its runs must reproduce the digests committed in
//! `BENCH_throughput.json`. The baseline run is not timed; it runs in
//! set-up (for the CMP overhead) and in the traced run (for the baseline
//! runner's cost per instruction).

use pathexpander::PxConfig;
use px_isa::asm::assemble;
use px_workloads::CompiledProgram;

use crate::engine::{Bench, Engine, Op, Subject};
use crate::stats::{Spans, Tally};

/// The E13 `NT_HEAVY` program: a spawn edge kept cold by a tiny counter
/// reset interval, whose NT-path runs a sealed store/load sweep inside the
/// sandbox and exits there, so its live-ins are loop-invariant.
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

/// The E13 instruction budget per run.
const RUN_BUDGET: u64 = 1_500_000;

/// The committed `BENCH_throughput.json` row digests of `nt-heavy`, in
/// [`Engine::ALL`] order (baseline, standard, CMP).
const COMMITTED: [u64; 3] = [
    0xd105_dd3b_9464_8b08,
    0xe288_60fa_a74e_2678,
    0x0f4a_ea2c_ff82_a659,
];

/// Assembles, decodes and analyses the program, and runs the goldens.
pub fn setup(spans: &mut Spans, tally: &mut Tally) -> Bench {
    let program = spans
        .time("isa.assemble", || assemble(NT_HEAVY))
        .expect("the NT_HEAVY source assembles");
    let px = PxConfig::default()
        .with_max_instructions(RUN_BUDGET)
        .with_counter_threshold(1)
        .with_counter_reset_interval(64)
        .with_max_nt_path_len(2_000);
    let compiled = CompiledProgram {
        program,
        sites: Vec::new(),
        watches: Vec::new(),
        fix_sites: Vec::new(),
    };
    let subject = Subject::new(
        "nt-heavy".to_owned(),
        compiled,
        None,
        Vec::new(),
        &px,
        spans,
    );
    let ops = Engine::ALL
        .into_iter()
        .map(|engine| Op {
            subject: 0,
            engine,
            input_id: 0,
            input: Vec::new(),
            io_seed: 0xC0FFEE,
            timed: engine != Engine::Baseline,
        })
        .collect();
    Bench::new(
        vec![subject],
        ops,
        |op| Some(COMMITTED[op.engine.index()]),
        tally,
    )
}
