//! Differential property suite: the pre-decoded micro-op interpreter is
//! architecturally identical to the byte-decode reference interpreter.
//!
//! Three layers of lock:
//!
//! * **step level** — [`step_uop`] against the reference [`step`] (in
//!   `tests/reference/`, outside the release build), in lockstep on
//!   hand-written programs covering every instruction family and on random
//!   byte-soup programs (every instruction family,
//!   mostly-invalid targets, random checker regions), asserting identical
//!   [`Step`]s, register files and I/O after every instruction and
//!   identical memory at the end — also under identically seeded fault
//!   plans, which drive every fault kind through both interpreters'
//!   injection prologue, with and without suppressed system calls;
//! * **stream level** — the same lockstep on programs reconstructed from
//!   *mutated* and *truncated* encoded streams (the PR-4 robustness
//!   surface): whenever `decode_program` accepts the bytes, the decoded
//!   program must execute identically under both interpreters;
//! * **run level** — `run_baseline_with` against the reference baseline
//!   run (`tests/reference/baseline.rs`, the runner's own loop over the
//!   reference interpreter) on byte soup, plainly and under identically
//!   seeded fault plans: exit, instruction count, cycles, coverage,
//!   monitor records, I/O, registers and memory;
//! * **engine level** — all three engines (baseline, standard, CMP)
//!   produce bit-identical architectural results on a program
//!   and on its encode→decode round-trip, and the `*_decoded` entry
//!   points match the decode-per-run `pathexpander::run`, across spawn
//!   thresholds K∈{1,4,16}.
//!
//! Runs on the in-tree `px_util` property harness (`px_prop!`).

mod reference;

use pathexpander::{run, run_cmp_decoded, run_standard_decoded, PxConfig, PxRunResult};
use px_isa::{
    asm::assemble, decode_program, encode_program, AluOp, BranchCond, CheckKind, DecodedProgram,
    Instruction, Program, Reg, SyscallCode, Width,
};
use px_mach::{
    run_baseline, run_baseline_with, run_simple, step_uop, uop_cost_table, CoreState, CostModel,
    FaultMix, FaultPlan, IoState, MachConfig, Memory, StepEnv, StepEvent, WatchTable,
};
use px_util::prop::{
    any_bool, any_i32, any_u32, any_u64, any_u8, just, vec_of, BoxedStrategy, Strategy,
};
use px_util::{px_oneof, px_prop};
use reference::step;

fn arb_reg() -> impl Strategy<Value = Reg> {
    (0u8..32).prop_map(Reg::new)
}

fn arb_width() -> BoxedStrategy<Width> {
    px_oneof![just(Width::Byte), just(Width::Word)].boxed()
}

fn arb_alu_op() -> BoxedStrategy<AluOp> {
    px_oneof![
        just(AluOp::Add),
        just(AluOp::Sub),
        just(AluOp::Mul),
        just(AluOp::Div),
        just(AluOp::Rem),
        just(AluOp::And),
        just(AluOp::Or),
        just(AluOp::Xor),
        just(AluOp::Shl),
        just(AluOp::Shr),
        just(AluOp::Sar),
        just(AluOp::Slt),
        just(AluOp::Sltu),
        just(AluOp::Sle),
        just(AluOp::Seq),
        just(AluOp::Sne),
    ]
    .boxed()
}

fn arb_cond() -> BoxedStrategy<BranchCond> {
    px_oneof![
        just(BranchCond::Eq),
        just(BranchCond::Ne),
        just(BranchCond::Lt),
        just(BranchCond::Ge),
        just(BranchCond::Le),
        just(BranchCond::Gt),
    ]
    .boxed()
}

fn arb_syscall() -> BoxedStrategy<SyscallCode> {
    px_oneof![
        just(SyscallCode::Exit),
        just(SyscallCode::PutChar),
        just(SyscallCode::GetChar),
        just(SyscallCode::PrintInt),
        just(SyscallCode::ReadInt),
        just(SyscallCode::Rand),
        just(SyscallCode::Time),
    ]
    .boxed()
}

/// Control-flow targets biased toward the plausible range so byte-soup
/// programs actually run a few branches before dying, with a tail of fully
/// random (almost always invalid) targets to exercise the `JumpBad` /
/// `BR_BAD_TARGET` decode paths.
fn arb_target() -> BoxedStrategy<u32> {
    px_oneof![(0u32..48).boxed(), any_u32().boxed()].boxed()
}

/// Small offsets keep a useful share of memory accesses in bounds.
fn arb_offset() -> BoxedStrategy<i32> {
    px_oneof![(-64i32..256).boxed(), any_i32().boxed()].boxed()
}

fn arb_instruction() -> BoxedStrategy<Instruction> {
    px_oneof![
        just(Instruction::Nop),
        just(Instruction::Ret),
        (arb_alu_op(), arb_reg(), arb_reg(), arb_reg())
            .prop_map(|(op, rd, rs1, rs2)| Instruction::Alu { op, rd, rs1, rs2 }),
        (arb_alu_op(), arb_reg(), arb_reg(), any_i32())
            .prop_map(|(op, rd, rs1, imm)| Instruction::AluI { op, rd, rs1, imm }),
        (arb_width(), arb_reg(), arb_reg(), arb_offset()).prop_map(|(width, rd, base, offset)| {
            Instruction::Load {
                width,
                rd,
                base,
                offset,
            }
        }),
        (arb_width(), arb_reg(), arb_reg(), arb_offset()).prop_map(|(width, rs, base, offset)| {
            Instruction::Store {
                width,
                rs,
                base,
                offset,
            }
        }),
        (arb_cond(), arb_reg(), arb_reg(), arb_target()).prop_map(|(cond, rs1, rs2, target)| {
            Instruction::Branch {
                cond,
                rs1,
                rs2,
                target,
            }
        }),
        arb_target().prop_map(|target| Instruction::Jump { target }),
        arb_target().prop_map(|target| Instruction::Call { target }),
        arb_syscall().prop_map(|code| Instruction::Syscall { code }),
        (arb_reg(), any_u32()).prop_map(|(cond, site)| Instruction::Check {
            kind: CheckKind::Assertion,
            cond,
            site
        }),
        (arb_reg(), arb_reg(), any_u32()).prop_map(|(base, len, tag)| Instruction::SetWatch {
            base,
            len,
            tag
        }),
        any_u32().prop_map(|tag| Instruction::ClearWatch { tag }),
        (arb_reg(), any_i32()).prop_map(|(rd, imm)| Instruction::PMovI { rd, imm }),
        (arb_reg(), arb_reg()).prop_map(|(rd, rs)| Instruction::PMov { rd, rs }),
        (arb_alu_op(), arb_reg(), arb_reg(), any_i32())
            .prop_map(|(op, rd, rs1, imm)| Instruction::PAluI { op, rd, rs1, imm }),
        (arb_width(), arb_reg(), arb_reg(), arb_offset()).prop_map(|(width, rs, base, offset)| {
            Instruction::PStore {
                width,
                rs,
                base,
                offset,
            }
        }),
    ]
    .boxed()
}

/// A byte-soup [`Program`]: random code, no data, a random checker region.
fn soup_program(code: Vec<Instruction>, checker: Option<(u32, u32)>) -> Program {
    let len = code.len() as u32;
    Program {
        code,
        entry: 0,
        checker_regions: checker
            .map(|(a, b)| {
                let a = a % len.max(1);
                (a, (a + 1 + b % 8).min(len))
            })
            .into_iter()
            .collect(),
        mem_size: 4096,
        ..Program::default()
    }
}

/// Steps `program` under the reference interpreter and the micro-op
/// interpreter in lockstep, asserting identical [`Step`]s, register files
/// and I/O after every instruction and identical memory and input-fault
/// state at the end. With
/// `faults`, each interpreter consults its own copy of the plan, so both see
/// the same injection sequence. Bounded, since byte-soup programs can loop
/// forever; returns whether the program ended within `steps`.
/// A cost model whose classes are pairwise distinct, so a step charged to
/// the wrong class shows up as a cost mismatch (in the default model `alu`
/// and `control` are both 1).
fn distinct_costs() -> CostModel {
    CostModel {
        alu: 1,
        mul: 3,
        div: 12,
        control: 2,
        syscall: 50,
        check: 5,
        watch_op: 7,
        watch_hit: 20,
    }
}

fn lockstep(
    program: &Program,
    input: &[u8],
    steps: u64,
    suppress: bool,
    faults: Option<FaultPlan>,
) -> bool {
    let dp = DecodedProgram::decode(program);
    let costs = distinct_costs();

    let mut mem_a = Memory::new(program.mem_size);
    for item in &program.data {
        mem_a.try_load_blob(item.addr, &item.bytes).unwrap();
    }
    let mut mem_b = mem_a.clone();
    let mut core_a = CoreState::at_entry(program.entry, mem_a.size());
    core_a.pred = true;
    let mut core_b = core_a;
    let mut io_a = IoState::new(input.to_vec(), 7);
    let mut io_b = IoState::new(input.to_vec(), 7);
    let mut w_a = WatchTable::new();
    let mut w_b = WatchTable::new();
    let mut plan_a = faults.clone();
    let mut plan_b = faults;

    let mut ended = false;
    for step_no in 0..steps {
        let mut env_a = StepEnv {
            io: &mut io_a,
            watches: &mut w_a,
            suppress_syscalls: suppress,
            now_cycles: step_no,
            costs: &costs,
            fault: plan_a.as_mut(),
        };
        let a = step(program, &mut core_a, &mut mem_a, &mut env_a);
        let mut env_b = StepEnv {
            io: &mut io_b,
            watches: &mut w_b,
            suppress_syscalls: suppress,
            now_cycles: step_no,
            costs: &costs,
            fault: plan_b.as_mut(),
        };
        let b = step_uop(program, &dp, &mut core_b, &mut mem_b, &mut env_b);
        assert_eq!(a, b, "step {step_no} diverged");
        assert_eq!(core_a, core_b, "core state diverged at step {step_no}");
        assert_eq!(
            io_a.output(),
            io_b.output(),
            "io diverged at step {step_no}"
        );
        if a.event.is_terminal() {
            ended = true;
            break;
        }
    }
    assert!(mem_a == mem_b, "memory diverged");
    assert_eq!(
        io_a.input_failed(),
        io_b.input_failed(),
        "input fault diverged"
    );
    ended
}

/// Runs `program` through `run_baseline_with` and the reference baseline
/// run, each with its own copy of `faults`, and asserts that they agree on
/// every field: exit, instruction count, cycles, coverage, monitor records,
/// I/O, registers and memory.
fn baselines_agree(program: &Program, input: &[u8], faults: Option<FaultPlan>) {
    let cfg = MachConfig {
        costs: distinct_costs(),
        ..MachConfig::single_core()
    };
    let io = || IoState::new(input.to_vec(), 7);
    let (mut plan_a, mut plan_b) = (faults.clone(), faults);
    let a = reference::baseline::run(program, &cfg, io(), 2_000, plan_a.as_mut());
    let b = run_baseline_with(program, &cfg, io(), 2_000, plan_b.as_mut(), None);
    assert_eq!(a.exit, b.exit, "exit");
    assert_eq!(a.instructions, b.instructions, "instructions");
    assert_eq!(a.cycles, b.cycles, "cycles");
    assert_eq!(a.coverage, b.coverage, "coverage");
    assert_eq!(a.monitor.records(), b.monitor.records(), "monitor records");
    assert_eq!(a.io.output(), b.io.output(), "output");
    assert_eq!(a.io.input_failed(), b.io.input_failed(), "input fault");
    assert_eq!(a.core, b.core, "registers");
    assert!(a.memory == b.memory, "memory");
}

/// Architectural summary of a PathExpander run — every field two identical
/// runs must agree on.
fn arch(program: &Program, r: &PxRunResult) -> (String, u64, u64, u64, u64, Vec<u8>, usize, u32) {
    (
        r.exit.class().to_owned(),
        r.stats.taken_instructions + r.stats.nt_instructions,
        r.cycles,
        r.stats.spawns,
        r.stats.paths.len() as u64,
        r.io.output().to_vec(),
        r.monitor.len(),
        r.total_coverage.covered_edges(program),
    )
}

/// Engine instruction budget — small, because byte-soup loops are common.
const ENGINE_BUDGET: u64 = 20_000;

fn engine_px(k: u8) -> PxConfig {
    PxConfig::default()
        .with_max_instructions(ENGINE_BUDGET)
        .with_counter_threshold(k)
        .with_counter_reset_interval(256)
        .with_max_nt_path_len(500)
}

/// Runs all three engines on `program` and `round` (its encode→decode
/// round-trip) at spawn threshold `k`, asserting bit-identical architectural
/// results — and that the `*_decoded` entry points match the decode-per-run
/// ones on both.
fn engines_agree(program: &Program, round: &Program, input: &[u8], k: u8) {
    let px = engine_px(k);
    let io = || IoState::new(input.to_vec(), 0xD1FF);

    let a = run_baseline(program, &MachConfig::single_core(), io(), ENGINE_BUDGET);
    let b = run_baseline(round, &MachConfig::single_core(), io(), ENGINE_BUDGET);
    assert_eq!(a.exit, b.exit, "baseline exit (K={k})");
    assert_eq!(a.instructions, b.instructions, "baseline instrs (K={k})");
    assert_eq!(a.cycles, b.cycles, "baseline cycles (K={k})");
    assert_eq!(a.io.output(), b.io.output(), "baseline io (K={k})");

    let dp = DecodedProgram::decode(program);
    let dr = DecodedProgram::decode(round);

    let s = run(program, &MachConfig::single_core(), &px, io());
    for (name, other) in [
        (
            "decoded",
            run_standard_decoded(program, &dp, &MachConfig::single_core(), &px, io()),
        ),
        (
            "round-trip",
            run_standard_decoded(round, &dr, &MachConfig::single_core(), &px, io()),
        ),
    ] {
        assert_eq!(
            arch(program, &s),
            arch(round, &other),
            "standard vs {name} (K={k})"
        );
    }

    let cpx = px.clone().cmp();
    let c = run(program, &MachConfig::default(), &cpx, io());
    for (name, other) in [
        (
            "decoded",
            run_cmp_decoded(program, &dp, &MachConfig::default(), &cpx, io()),
        ),
        (
            "round-trip",
            run_cmp_decoded(round, &dr, &MachConfig::default(), &cpx, io()),
        ),
    ] {
        assert_eq!(
            arch(program, &c),
            arch(round, &other),
            "cmp vs {name} (K={k})"
        );
    }
}

px_prop! {
    fn step_uop_matches_reference_on_byte_soup(
        code in vec_of(arb_instruction(), 1..48),
        input in vec_of(any_u8(), 0..8),
        checker in px_oneof![
            just(None),
            (any_u32(), any_u32()).prop_map(Some).boxed()
        ],
    ) {
        lockstep(&soup_program(code, checker), &input, 2_000, false, None);
    }

    fn step_uop_matches_reference_under_faults(
        code in vec_of(arb_instruction(), 1..48),
        input in vec_of(any_u8(), 0..8),
        checker in px_oneof![
            just(None),
            (any_u32(), any_u32()).prop_map(Some).boxed()
        ],
        fault in (any_u64(), 2u32..9, any_bool()),
    ) {
        let (seed, period, suppress) = fault;
        // Every fault kind through the prologue: forced crashes, bit flips
        // (a data page, so they land), runaway redirects, failed input and
        // the deferred cache-level actions, with and without suppression.
        let mut program = soup_program(code, checker);
        program.mem_size = 2 * px_isa::DATA_BASE;
        let plan = FaultPlan::new(seed, FaultMix::uniform(), period);
        lockstep(&program, &input, 2_000, suppress, Some(plan));
    }

    fn baseline_matches_reference_run_on_byte_soup(
        code in vec_of(arb_instruction(), 1..48),
        input in vec_of(any_u8(), 0..8),
        checker in px_oneof![
            just(None),
            (any_u32(), any_u32()).prop_map(Some).boxed()
        ],
    ) {
        baselines_agree(&soup_program(code, checker), &input, None);
    }

    fn baseline_matches_reference_run_under_faults(
        code in vec_of(arb_instruction(), 1..48),
        input in vec_of(any_u8(), 0..8),
        fault in (any_u64(), 2u32..9),
    ) {
        let (seed, period) = fault;
        let mut program = soup_program(code, None);
        program.mem_size = 2 * px_isa::DATA_BASE;
        let plan = FaultPlan::new(seed, FaultMix::uniform(), period);
        baselines_agree(&program, &input, Some(plan));
    }

    fn decoded_program_reencodes_exactly(code in vec_of(arb_instruction(), 0..48)) {
        let program = soup_program(code, None);
        let dp = DecodedProgram::decode(&program);
        assert_eq!(dp.reencode(), program.code, "micro-ops must carry the full ISA");
    }

    fn mutated_streams_execute_identically(
        code in vec_of(arb_instruction(), 1..32),
        pos in any_u32(),
        bit in (0u8..8),
        input in vec_of(any_u8(), 0..8),
    ) {
        // Flip one bit in a valid encoded stream. When the mutation still
        // decodes, the mutated program must execute identically under both
        // interpreters — decode-time resolution cannot diverge from
        // fetch-time re-derivation on any acceptable stream.
        let mut bytes = encode_program(&code);
        let pos = pos as usize % bytes.len();
        bytes[pos] ^= 1 << bit;
        if let Ok(mutated) = decode_program(&bytes) {
            lockstep(&soup_program(mutated, None), &input, 1_000, false, None);
        }
    }

    fn truncated_streams_execute_identically(
        code in vec_of(arb_instruction(), 1..32),
        cut in any_u32(),
        input in vec_of(any_u8(), 0..8),
    ) {
        // A whole-instruction prefix is a valid shorter program; programs
        // that run off its end must fall off identically (BadPc crash) in
        // both interpreters.
        let bytes = encode_program(&code);
        let cut = (cut as usize % bytes.len()) / px_isa::ENCODED_LEN * px_isa::ENCODED_LEN;
        let prefix = decode_program(&bytes[..cut]).unwrap();
        if !prefix.is_empty() {
            lockstep(&soup_program(prefix, None), &input, 1_000, false, None);
        }
    }
}

px_prop! {
    cases = 24;
    fn engines_match_on_round_tripped_soup(
        code in vec_of(arb_instruction(), 1..32),
        input in vec_of(any_u8(), 0..8),
    ) {
        let program = soup_program(code, None);
        let round_code = decode_program(&encode_program(&program.code)).unwrap();
        let mut round = program.clone();
        round.code = round_code;
        for k in [1u8, 4, 16] {
            engines_agree(&program, &round, &input, k);
        }
    }
}

/// [`lockstep`] on an assembled program that must run to its end.
fn lockstep_source(src: &str, input: &[u8], suppress: bool) {
    let program = assemble(src).unwrap();
    assert!(
        lockstep(&program, input, 10_000, suppress, None),
        "program did not terminate"
    );
}

#[test]
fn lockstep_covers_every_instruction_family() {
    lockstep_source(
        r"
        .data
        buf: .space 64
        .code
        main:
            pli r1, 5            ; predicated fixes at entry
            pmov r2, r1
            paddi r3, r2, 2
            la r4, buf
            psw r3, 0(r4)
            li r5, 10
            watch r4, r5, #3
        loop:
            lw r6, 0(r4)         ; watch hit
            addi r6, r6, 1
            sw r6, 0(r4)
            muli r7, r6, 3
            div r8, r7, r6
            remi r9, r7, 5
            slt r10, r9, r7
            assert r10, #1
            subi r5, r5, 1
            bgt r5, zero, loop
            unwatch #3
            call leaf
            sb r6, 1(r4)
            lb r11, 1(r4)
            mv r2, r11
            printi
            rand
            time
            exit
        leaf:
            xor r12, r7, r9
            shli r12, r12, 2
            sar r12, r12, r10
            ret
        ",
        b"",
        false,
    );
}

#[test]
fn lockstep_suppressed_syscall_and_crashes() {
    // Suppressed path: the putc becomes an unsafe event.
    lockstep_source(".code\nmain:\n  li r2, 65\n  putc\n  exit\n", b"", true);
    // Crash paths: div-by-zero, bad load, bad jump, bad branch target,
    // bad ret, immediate div-by-zero.
    for src in [
        ".code\nmain:\n  li r1, 4\n  li r2, 0\n  div r3, r1, r2\n  exit\n",
        ".code\nmain:\n  lw r1, 0(zero)\n  exit\n",
        ".code\nmain:\n  jmp @99\n  exit\n",
        ".code\nmain:\n  beq zero, zero, @99\n  exit\n",
        ".code\nmain:\n  li r31, 1000\n  ret\n  exit\n",
        ".code\nmain:\n  divi r1, r2, 0\n  exit\n",
        ".code\nmain:\n  call @77\n  exit\n",
    ] {
        lockstep_source(src, b"", false);
    }
}

#[test]
fn lockstep_io_paths() {
    lockstep_source(
        ".code\nmain:\n  getc\n  mv r2, r1\n  putc\n  readi\n  mv r2, r1\n  printi\n  exit\n",
        b"A42 ",
        false,
    );
}

#[test]
fn batch_equals_stepping() {
    let program = assemble(
        r"
        .code
        main:
            li r1, 7
            addi r2, r1, 3
            mul r3, r2, r1
            divi r4, r3, 2
            xori r5, r4, 0x55
            slti r6, r5, 100
            pli r7, 9
            exit
        ",
    )
    .unwrap();
    let dp = DecodedProgram::decode(&program);
    let costs = distinct_costs();
    let table = uop_cost_table(&costs);
    let n = dp.simple_run(0);
    assert_eq!(n, 7, "everything before exit batches");

    // Reference: step one by one.
    let mut mem = Memory::new(program.mem_size);
    let mut core_ref = CoreState::at_entry(0, mem.size());
    core_ref.pred = true;
    let mut io = IoState::default();
    let mut watches = WatchTable::new();
    let mut ref_cost = 0u64;
    for _ in 0..n {
        let mut env = StepEnv {
            io: &mut io,
            watches: &mut watches,
            suppress_syscalls: false,
            now_cycles: 0,
            costs: &costs,
            fault: None,
        };
        let s = step(&program, &mut core_ref, &mut mem, &mut env);
        assert!(matches!(s.event, StepEvent::None));
        assert!(s.access.is_none());
        ref_cost += u64::from(s.base_cost);
    }

    // Batch: one call.
    let mut core_batch = CoreState::at_entry(0, mem.size());
    core_batch.pred = true;
    let batch_cost = run_simple(&dp, &mut core_batch, n, &table);
    assert_eq!(batch_cost, ref_cost);
    assert_eq!(core_batch, core_ref);
}
