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
//!   monitor records, I/O, registers and memory, and the recycled images
//!   must come back zeroed;
//! * **engine level** — all three engines (baseline, standard, CMP)
//!   produce bit-identical architectural results on a program
//!   and on its encode→decode round-trip, and the `*_decoded` entry
//!   points match the decode-per-run `pathexpander::run`, across spawn
//!   thresholds K∈{1,4,16}.
//!
//! Byte soup mostly crashes within a few instructions: its image ends at
//! `DATA_BASE` or its registers start near zero, so nearly every access
//! faults. The *loop soup* ([`arb_loop_program`]) runs the step, run and
//! engine levels on counted loops over a data segment instead: base
//! pointers into it, a body of ALU ops, loads, stores, pointer bumps, watch
//! ops, predicated fixes and forward branches, and a backward branch. Most
//! of its accesses succeed, so the taken path's wide batches (loads and
//! stores retired in one batch) meet long runs, in-bounds, crashing,
//! page-straddling and watched accesses, fault plans and L1s of four and
//! two lines. Both engines must match the reference baseline run exactly
//! when no NT-path spawns and on committed state when they do, must match
//! themselves stepping every micro-op and themselves with a watch that
//! nothing hits, with NT-paths spawning around all three. One layer down,
//! `a_batch_is_its_steps_on_loop_soup` holds one [`TakenPath::batch`]
//! against the steps its rules allow, with volatile lines, watch ranges, a
//! deadline, a store tag and a store hook drawn per case.
//!
//! Runs on the in-tree `px_util` property harness (`px_prop!`).

mod reference;

use pathexpander::{run, run_cmp_decoded, run_standard_decoded, PxConfig, PxRunResult};
use px_isa::{
    asm::assemble, decode_program, encode_program, AluOp, BranchCond, CheckKind, DataItem,
    DecodedProgram, Instruction, Program, Reg, SyscallCode, UopKind, Width, DATA_BASE,
};
use px_mach::{
    run_baseline, run_baseline_with, run_simple, step_uop, uop_cost_table, CoreState, CostModel,
    FaultMix, FaultPlan, Halt, IoState, MachConfig, Memory, PathPlan, StepEnv, StepEvent,
    TakenPath, WatchTable, COMMITTED,
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

/// Loop-soup registers: r1–r15 take ALU and load results, r16–r19 point
/// into the data segment, r20 holds a watch length and r21 counts the
/// loop's iterations down.
const DATA_REGS: core::ops::Range<u8> = 1..16;
const FIRST_BASE: u8 = 16;
const LEN_REG: u8 = 20;
const COUNT_REG: u8 = 21;

fn arb_data_reg() -> impl Strategy<Value = Reg> {
    DATA_REGS.prop_map(Reg::new)
}

fn arb_base_reg() -> impl Strategy<Value = Reg> {
    (FIRST_BASE..FIRST_BASE + 4).prop_map(Reg::new)
}

fn arb_src_reg() -> impl Strategy<Value = Reg> {
    (0..COUNT_REG + 1).prop_map(Reg::new)
}

/// Offsets within a few cache lines of the base, and about one in forty
/// wild, so that access crashes.
fn arb_loop_offset() -> impl Strategy<Value = i32> {
    (any_u8(), -8i32..72, any_i32())
        .prop_map(|(pick, near, wild)| if pick < 6 { wild } else { near })
}

/// One op of a loop body: ALU, loads and stores through the base pointers
/// (weighted up), pointer bumps, watch ops, predicated fixes and a forward
/// branch whose target field holds a skip distance until
/// [`loop_program`] places it.
fn arb_loop_op() -> BoxedStrategy<Instruction> {
    let load = || {
        (
            arb_width(),
            arb_data_reg(),
            arb_base_reg(),
            arb_loop_offset(),
        )
            .prop_map(|(width, rd, base, offset)| Instruction::Load {
                width,
                rd,
                base,
                offset,
            })
    };
    let store = || {
        (
            arb_width(),
            arb_src_reg(),
            arb_base_reg(),
            arb_loop_offset(),
        )
            .prop_map(|(width, rs, base, offset)| Instruction::Store {
                width,
                rs,
                base,
                offset,
            })
    };
    px_oneof![
        (arb_alu_op(), arb_data_reg(), arb_src_reg(), arb_src_reg())
            .prop_map(|(op, rd, rs1, rs2)| Instruction::Alu { op, rd, rs1, rs2 }),
        (arb_alu_op(), arb_data_reg(), arb_src_reg(), -64i32..64)
            .prop_map(|(op, rd, rs1, imm)| Instruction::AluI { op, rd, rs1, imm }),
        load(),
        load(),
        load(),
        store(),
        store(),
        store(),
        (arb_base_reg(), -16i32..48).prop_map(|(base, imm)| Instruction::AluI {
            op: AluOp::Add,
            rd: base,
            rs1: base,
            imm,
        }),
        (arb_base_reg(), 0u32..4).prop_map(|(base, tag)| Instruction::SetWatch {
            base,
            len: Reg::new(LEN_REG),
            tag,
        }),
        (0u32..4).prop_map(|tag| Instruction::ClearWatch { tag }),
        (arb_data_reg(), any_i32()).prop_map(|(rd, imm)| Instruction::PMovI { rd, imm }),
        (arb_data_reg(), arb_src_reg()).prop_map(|(rd, rs)| Instruction::PMov { rd, rs }),
        (arb_alu_op(), arb_data_reg(), arb_src_reg(), -64i32..64)
            .prop_map(|(op, rd, rs1, imm)| Instruction::PAluI { op, rd, rs1, imm }),
        (
            arb_width(),
            arb_src_reg(),
            arb_base_reg(),
            arb_loop_offset()
        )
            .prop_map(|(width, rs, base, offset)| Instruction::PStore {
                width,
                rs,
                base,
                offset,
            }),
        (arb_cond(), arb_src_reg(), arb_src_reg(), 0u32..4).prop_map(|(cond, rs1, rs2, skip)| {
            Instruction::Branch {
                cond,
                rs1,
                rs2,
                target: skip,
            }
        }),
    ]
    .boxed()
}

/// Where a loop-soup base pointer starts, as an offset from `DATA_BASE`:
/// inside the data blob, or astride the boundary of the next 4 KiB page,
/// so that word accesses straddle two pages.
fn arb_base_start() -> BoxedStrategy<u32> {
    px_oneof![
        (0u32..512).boxed(),
        (DATA_BASE - 16..DATA_BASE + 16).boxed()
    ]
    .boxed()
}

/// `rd := imm`.
fn li(rd: u8, imm: u32) -> Instruction {
    Instruction::AluI {
        op: AluOp::Add,
        rd: Reg::new(rd),
        rs1: Reg::ZERO,
        imm: imm as i32,
    }
}

/// The pc of the loop soup's `nop` before the loop (see
/// [`wide_and_register_only_batches_agree`]).
const SENTINEL_PC: usize = 6;

/// A loop-soup [`Program`]: a data segment at `DATA_BASE`, base pointers
/// set into it and a `nop`, then `body` run `iters` times by a counted
/// backward branch before `exit`. Each body branch skips forward by its
/// target field, at most to the loop's decrement. The image ends two pages
/// past the data segment's start, so a drifting pointer can run out of it.
fn loop_program(
    bases: (u32, u32, u32, u32),
    (watch_len, iters): (u32, u32),
    body: Vec<Instruction>,
    data: Vec<u8>,
) -> Program {
    let mut code = vec![
        li(FIRST_BASE, DATA_BASE + bases.0),
        li(FIRST_BASE + 1, DATA_BASE + bases.1),
        li(FIRST_BASE + 2, DATA_BASE + bases.2),
        li(FIRST_BASE + 3, DATA_BASE + bases.3),
        li(LEN_REG, watch_len),
        li(COUNT_REG, iters),
        Instruction::Nop,
    ];
    let top = code.len() as u32;
    let decrement = top + body.len() as u32;
    for (pc, op) in (top..).zip(body) {
        code.push(match op {
            Instruction::Branch {
                cond,
                rs1,
                rs2,
                target,
            } => Instruction::Branch {
                cond,
                rs1,
                rs2,
                target: (pc + 1 + target).min(decrement),
            },
            op => op,
        });
    }
    let count = Reg::new(COUNT_REG);
    code.extend([
        Instruction::AluI {
            op: AluOp::Sub,
            rd: count,
            rs1: count,
            imm: 1,
        },
        Instruction::Branch {
            cond: BranchCond::Gt,
            rs1: count,
            rs2: Reg::ZERO,
            target: top,
        },
        Instruction::Syscall {
            code: SyscallCode::Exit,
        },
    ]);
    Program {
        code,
        entry: 0,
        data: vec![DataItem {
            addr: DATA_BASE,
            bytes: data,
        }],
        mem_size: 3 * DATA_BASE,
        ..Program::default()
    }
}

fn arb_loop_program() -> impl Strategy<Value = Program> {
    (
        (
            arb_base_start(),
            arb_base_start(),
            arb_base_start(),
            arb_base_start(),
        ),
        (1u32..64, 1u32..96),
        vec_of(arb_loop_op(), 1..24),
        vec_of(any_u8(), 0..256),
    )
        .prop_map(|(bases, counts, body, data)| loop_program(bases, counts, body, data))
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

/// The baseline machine of the run-level properties: one core, the
/// [`distinct_costs`] model.
fn soup_cfg() -> MachConfig {
    MachConfig {
        costs: distinct_costs(),
        ..MachConfig::single_core()
    }
}

/// [`soup_cfg`] with a four-line L1 and a 32-line L2, so a loop's accesses
/// evict each other and charge differently in a different order.
fn tiny_cache_cfg() -> MachConfig {
    let mut cfg = soup_cfg();
    cfg.l1.size_bytes = 4 * cfg.l1.line_bytes;
    cfg.l1.assoc = 2;
    cfg.l2.size_bytes = 32 * cfg.l2.line_bytes;
    cfg.l2.assoc = 2;
    cfg
}

/// Runs `program` through `run_baseline_with` and the reference baseline
/// run on `cfg`, each with its own copy of `faults`, and asserts that they
/// agree on every field: exit, instruction count, cycles, coverage, monitor
/// records, I/O, registers and memory. Then both images are dropped, and
/// the buffers they leave for the next images of their size must read
/// zero: a page written but not marked written would keep its bytes.
fn baselines_agree(program: &Program, input: &[u8], faults: Option<FaultPlan>, cfg: &MachConfig) {
    let io = || IoState::new(input.to_vec(), 7);
    let (mut plan_a, mut plan_b) = (faults.clone(), faults);
    let a = reference::baseline::run(program, cfg, io(), 2_000, plan_a.as_mut());
    let b = run_baseline_with(program, cfg, io(), 2_000, plan_b.as_mut(), None);
    assert_eq!(a.exit, b.exit, "exit");
    assert_eq!(a.instructions, b.instructions, "instructions");
    assert_eq!(a.cycles, b.cycles, "cycles");
    assert_eq!(a.coverage, b.coverage, "coverage");
    assert_eq!(a.monitor.records(), b.monitor.records(), "monitor records");
    assert_eq!(a.io.output(), b.io.output(), "output");
    assert_eq!(a.io.input_failed(), b.io.input_failed(), "input fault");
    assert_eq!(a.core, b.core, "registers");
    assert!(a.memory == b.memory, "memory");
    let size = b.memory.size();
    drop((a, b));
    let fresh = [Memory::new(size), Memory::new(size)];
    for m in &fresh {
        assert!(
            m.slice(0, size).iter().all(|&byte| byte == 0),
            "a recycled image kept bytes of an unmarked page"
        );
    }
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
        baselines_agree(&soup_program(code, checker), &input, None, &soup_cfg());
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
        baselines_agree(&program, &input, Some(plan), &soup_cfg());
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

/// Runs both engines on `program` at spawn threshold 0, where no NT-path
/// ever spawns, and asserts each equals the reference baseline run on the
/// same machine in every field: the CMP primary then retires the whole run
/// through its wide batches. At threshold 1, where NT-paths spawn and the
/// CMP primary interleaves with them, each engine's committed state must
/// still match the reference run's (the containment check).
fn engines_follow_the_reference(program: &Program, input: &[u8]) {
    let io = || IoState::new(input.to_vec(), 0xD1FF);
    for mut mach in [tiny_cache_cfg(), soup_cfg()] {
        mach.cores = 4;
        let reference = reference::baseline::run(program, &mach, io(), 2_000, None);
        for k in [0u8, 1] {
            let px = engine_px(k).with_max_instructions(2_000);
            for (name, r) in [
                ("standard", run(program, &mach, &px, io())),
                ("cmp", run(program, &mach, &px.clone().cmp(), io())),
            ] {
                let report = pathexpander::check_containment(program, &reference, &r);
                assert!(report.is_contained(), "{name} (K={k}): {report:?}");
                if k > 0 {
                    continue;
                }
                assert_eq!(r.stats.spawns, 0, "{name}: threshold 0 spawns nothing");
                assert_eq!(r.exit, reference.exit, "{name} exit");
                assert_eq!(
                    r.stats.taken_instructions, reference.instructions,
                    "{name} instructions"
                );
                assert_eq!(r.cycles, reference.cycles, "{name} cycles");
                assert_eq!(r.taken_coverage, reference.coverage, "{name} coverage");
                assert_eq!(
                    r.monitor.records(),
                    reference.monitor.records(),
                    "{name} monitor records"
                );
                assert_eq!(r.core, reference.core, "{name} registers");
                assert!(r.memory == reference.memory, "{name} memory");
            }
        }
    }
}

/// Runs both engines at spawn thresholds 1 and 4 on `program` and on a
/// copy whose `nop` at [`SENTINEL_PC`] is a watch on the null guard page,
/// which no access that succeeds can hit. Every batch and step of the copy
/// then looks its accesses up in a watch table that is not empty and never
/// answers, NT-paths spawning around both, so the copy checks that a watch
/// lookup changes nothing but the watch op's own cost: it costs `watch_op`
/// where the `nop` cost `alu`, and the prologue has no branch, so every
/// clock of the copy runs exactly that far ahead (the CMP schedule shifts
/// as a whole); everything else must be equal. (The name dates from when a
/// watch table kept the taken path's batches register-only.) Both run on
/// [`tiny_cache_cfg`] and on a two-line direct-mapped L1, where nearly
/// every access evicts a line, so a batch soon after an NT-path's death
/// meets the lines its stores tagged.
fn wide_and_register_only_batches_agree(program: &Program, input: &[u8]) {
    assert_eq!(program.code[SENTINEL_PC], Instruction::Nop);
    let mut narrow = program.clone();
    narrow.code[SENTINEL_PC] = Instruction::SetWatch {
        base: Reg::ZERO,
        len: Reg::new(LEN_REG),
        tag: u32::MAX,
    };
    let tiny = MachConfig {
        cores: 4,
        ..tiny_cache_cfg()
    };
    let mut two_lines = tiny.clone();
    two_lines.l1.size_bytes = 2 * two_lines.l1.line_bytes;
    two_lines.l1.assoc = 1;
    let io = || IoState::new(input.to_vec(), 0xD1FF);
    let records = |r: &PxRunResult, by: u64| -> Vec<_> {
        r.monitor
            .records()
            .iter()
            .map(|m| (m.kind, m.site, m.pc, m.path, m.cycle - by))
            .collect()
    };
    for (mach, k) in [(&tiny, 1u8), (&tiny, 4), (&two_lines, 1), (&two_lines, 4)] {
        let shift = u64::from(mach.costs.watch_op - mach.costs.alu);
        let px = engine_px(k);
        for (name, px) in [("standard", px.clone()), ("cmp", px.cmp())] {
            let wide = run(program, mach, &px, io());
            let simple = run(&narrow, mach, &px, io());
            let what = format!("{name} (K={k}, L1 {} B)", mach.l1.size_bytes);
            assert_eq!(wide.exit, simple.exit, "{what} exit");
            assert_eq!(wide.cycles + shift, simple.cycles, "{what} cycles");
            assert_eq!(records(&wide, 0), records(&simple, shift), "{what} records");
            assert_eq!(wide.stats.paths, simple.stats.paths, "{what} NT-paths");
            assert_eq!(
                (wide.stats.taken_instructions, wide.stats.nt_instructions),
                (
                    simple.stats.taken_instructions,
                    simple.stats.nt_instructions
                ),
                "{what} instructions"
            );
            // Only the `nop` the watch replaced leaves the batches.
            assert_eq!(
                wide.stats.taken_batched,
                simple.stats.taken_batched + 1,
                "{what} batched"
            );
            assert_eq!(
                wide.total_coverage, simple.total_coverage,
                "{what} coverage"
            );
            assert_eq!(wide.core, simple.core, "{what} registers");
            assert!(wide.memory == simple.memory, "{what} memory");
        }
    }
}

/// A prime-path plan on `program` whose every pc starts a block and whose
/// paths are all runs of two and three consecutive blocks, so a trail
/// moves at every op a batch retires.
fn every_pc_plan(program: &Program) -> PathPlan {
    let len = program.code.len() as u32;
    let blocks: Vec<Vec<u32>> = (2..=3)
        .flat_map(|k| (0..len.saturating_sub(k - 1)).map(move |b| (b..b + k).collect()))
        .collect();
    let n = blocks.len() as u32;
    PathPlan::new(
        0x5EED,
        (0..len).collect(),
        n,
        n,
        blocks.iter().map(Vec::as_slice).zip(0..),
    )
    .unwrap()
}

/// Steps `t` once with no store hook on committed lines and settles the
/// step; `false` once the run has ended.
fn step_committed(t: &mut TakenPath<'_>, clock: &mut u64) -> bool {
    let (event, _, _) = t.step(clock, COMMITTED, |_, _, _| {});
    match t.settle(event, *clock) {
        Some(Halt::Exit(_)) => false,
        _ => {
            t.enter();
            true
        }
    }
}

/// What one side of [`a_batch_is_its_steps`] logs from its store hook:
/// each store's address, width and the bytes it is about to overwrite.
type StoreLog = Vec<(u32, u32, Vec<u8>)>;

/// A store hook that appends to `log`.
fn logger(log: &mut StoreLog) -> impl FnMut(&Memory, u32, Width) + '_ {
    |m: &Memory, addr: u32, width: Width| {
        log.push((addr, width.bytes(), m.slice(addr, width.bytes()).to_vec()));
    }
}

/// Two taken paths on `program` step identically for `pre` steps. Then
/// each core 0 gets the same lines tagged 255 (`lines`, offsets from
/// `DATA_BASE`) and the same watch ranges (`watches`: offset, length, tag),
/// and one takes a [`TakenPath::batch`] while the other steps where the
/// batch rules say a batch may go: within the wide run at the pc and the
/// budget, the first op always and each later one while the clock is at
/// or below the deadline, no access that would crash or that the watch
/// table reports, and nothing after an access that displaced a volatile
/// line. Both store under `vtag` with a hook that logs each store. They
/// must agree on the count and the eviction reported, the core, memory,
/// clock, store log, counters, coverage, monitor records and prime-path
/// trail, and on every later cache answer.
#[allow(clippy::too_many_arguments)]
fn a_batch_is_its_steps(
    program: &Program,
    mach: &MachConfig,
    input: &[u8],
    pre: u32,
    budget: u64,
    lines: &[i32],
    watches: &[(i32, u32, u32)],
    slack: Option<u64>,
    vtag: u8,
) {
    let dp = DecodedProgram::decode(program);
    let plan = every_pc_plan(program);
    let new = || {
        let io = IoState::new(input.to_vec(), 0xD1FF);
        TakenPath::new(program, &dp, mach, io, budget, None, Some(&plan)).unwrap()
    };
    let (mut a, mut b) = (new(), new());
    let (mut clock_a, mut clock_b) = (0u64, 0u64);
    for _ in 0..pre {
        if a.instructions >= budget || !step_committed(&mut a, &mut clock_a) {
            return;
        }
        assert!(step_committed(&mut b, &mut clock_b));
    }
    let at = |off: i32| DATA_BASE.wrapping_add_signed(off);
    for t in [&mut a, &mut b] {
        for &off in lines {
            t.caches.access(0, at(off), true, 255);
        }
        for &(off, len, tag) in watches {
            t.watches.set(at(off), len, tag);
        }
    }
    let deadline = slack.map_or(u64::MAX, |s| clock_a + s);
    let (mut log_a, mut log_b) = (StoreLog::new(), StoreLog::new());
    let pc = a.core.pc;
    let (n, evicted) = a.batch(&mut clock_a, deadline, vtag, logger(&mut log_a));

    let run = dp.wide_run(pc);
    let (mut steps, mut stepped_evicted) = (0u32, None);
    while steps < run && b.instructions < budget && (steps == 0 || clock_b <= deadline) {
        let u = *dp.op(b.core.pc).unwrap();
        let width = match u.kind {
            UopKind::LoadByte | UopKind::StoreByte => Some(Width::Byte),
            UopKind::LoadWord | UopKind::StoreWord => Some(Width::Word),
            _ => None,
        };
        if let Some(width) = width {
            let addr = (b.core.regs.get(Reg::new(u.b)) as u32).wrapping_add(u.imm as u32);
            if b.memory.check(addr, width.bytes()).is_err()
                || b.watches.hit(addr, width.bytes()).is_some()
            {
                break;
            }
        }
        let (event, _, access) = b.step(&mut clock_b, vtag, logger(&mut log_b));
        assert_eq!(event, StepEvent::None, "a wide-run op raised an event");
        assert_eq!(b.settle(event, clock_b), None);
        b.enter();
        steps += 1;
        stepped_evicted = access.and_then(|x| x.volatile_evicted);
        if stepped_evicted.is_some() {
            break;
        }
    }

    assert_eq!((n, evicted), (steps, stepped_evicted), "count and eviction");
    assert_eq!(a.core, b.core, "core");
    assert!(a.memory == b.memory, "memory");
    assert_eq!(clock_a, clock_b, "clock");
    assert_eq!(log_a, log_b, "store hook log");
    assert_eq!(
        (a.instructions, a.retired, a.batched),
        (b.instructions, b.retired, b.batched + u64::from(n)),
        "counters"
    );
    assert_eq!(a.coverage, b.coverage, "coverage");
    assert_eq!(a.monitor.records(), b.monitor.records(), "monitor records");
    let trail = |t: &TakenPath<'_>| t.tracking.as_ref().map(|k| (k.trail, k.cov.clone()));
    assert_eq!(trail(&a), trail(&b), "prime-path trail");
    assert_eq!(
        a.caches.volatile_lines(0),
        b.caches.volatile_lines(0),
        "volatile lines"
    );
    for off in (-64..704).step_by(8) {
        assert_eq!(
            a.caches.access(0, at(off), false, COMMITTED),
            b.caches.access(0, at(off), false, COMMITTED),
            "a later read at DATA_BASE{off:+}"
        );
    }
}

/// Runs both engines at spawn thresholds 1 and 4 on `program` twice: on
/// its decode and on the same decode with every run length zero
/// ([`DecodedProgram::without_runs`]), where the taken path and every
/// NT-path step each micro-op. Batching is invisible to the simulated
/// machine, so the two runs must agree on every field: the CMP primary's
/// batches under the schedule's deadline, its segment-tagged stores and
/// forced commits, and the step it takes while a segment commit is
/// pending, against one step at a time. Both run on [`tiny_cache_cfg`] and
/// on a two-line direct-mapped L1, where nearly every access evicts a line.
fn batching_is_invisible_to_the_engines(program: &Program, input: &[u8]) {
    let dp = DecodedProgram::decode(program);
    let stepped = dp.clone().without_runs();
    let tiny = MachConfig {
        cores: 4,
        ..tiny_cache_cfg()
    };
    let mut two_lines = tiny.clone();
    two_lines.l1.size_bytes = 2 * two_lines.l1.line_bytes;
    two_lines.l1.assoc = 1;
    let io = || IoState::new(input.to_vec(), 0xD1FF);
    for (mach, k) in [(&tiny, 1u8), (&tiny, 4), (&two_lines, 1), (&two_lines, 4)] {
        let px = engine_px(k);
        let cpx = px.clone().cmp();
        for (name, batched, one_by_one) in [
            (
                "standard",
                run_standard_decoded(program, &dp, mach, &px, io()),
                run_standard_decoded(program, &stepped, mach, &px, io()),
            ),
            (
                "cmp",
                run_cmp_decoded(program, &dp, mach, &cpx, io()),
                run_cmp_decoded(program, &stepped, mach, &cpx, io()),
            ),
        ] {
            let what = format!("{name} (K={k}, L1 {} B)", mach.l1.size_bytes);
            assert_eq!(one_by_one.stats.taken_batched, 0, "{what} stepped only");
            assert_eq!(batched.exit, one_by_one.exit, "{what} exit");
            assert_eq!(batched.cycles, one_by_one.cycles, "{what} cycles");
            assert_eq!(
                batched.monitor.records(),
                one_by_one.monitor.records(),
                "{what} records"
            );
            assert_eq!(
                batched.stats.paths, one_by_one.stats.paths,
                "{what} NT-paths"
            );
            assert_eq!(
                (
                    batched.stats.taken_instructions,
                    batched.stats.nt_instructions
                ),
                (
                    one_by_one.stats.taken_instructions,
                    one_by_one.stats.nt_instructions
                ),
                "{what} instructions"
            );
            assert_eq!(
                batched.total_coverage, one_by_one.total_coverage,
                "{what} coverage"
            );
            assert_eq!(batched.core, one_by_one.core, "{what} registers");
            assert!(batched.memory == one_by_one.memory, "{what} memory");
            assert_eq!(batched.io.output(), one_by_one.io.output(), "{what} output");
        }
    }
}

px_prop! {
    fn step_uop_matches_reference_on_loop_soup(
        program in arb_loop_program(),
        input in vec_of(any_u8(), 0..8),
    ) {
        lockstep(&program, &input, 2_000, false, None);
    }

    fn baseline_matches_reference_run_on_loop_soup(
        program in arb_loop_program(),
        input in vec_of(any_u8(), 0..8),
    ) {
        baselines_agree(&program, &input, None, &soup_cfg());
        baselines_agree(&program, &input, None, &tiny_cache_cfg());
    }

    fn baseline_matches_reference_run_on_loop_soup_under_faults(
        program in arb_loop_program(),
        input in vec_of(any_u8(), 0..8),
        fault in (any_u64(), 2u32..9),
    ) {
        let (seed, period) = fault;
        let plan = FaultPlan::new(seed, FaultMix::uniform(), period);
        baselines_agree(&program, &input, Some(plan), &tiny_cache_cfg());
    }

    fn engines_follow_the_reference_on_loop_soup(
        program in arb_loop_program(),
        input in vec_of(any_u8(), 0..8),
    ) {
        engines_follow_the_reference(&program, &input);
    }

    fn a_batch_is_its_steps_on_loop_soup(
        program in arb_loop_program(),
        input in vec_of(any_u8(), 0..8),
        point in (0u32..400, 0u64..64, any_bool()),
        marks in (
            vec_of(-64i32..640, 0..6),
            vec_of((-64i32..640, 1u32..16, 0u32..4), 0..3),
        ),
        grant in (
            px_oneof![just(None), (0u64..48).prop_map(Some).boxed()],
            any_bool(),
        ),
    ) {
        let (pre, budget_slack, two_lines) = point;
        let (slack, segment) = grant;
        let (lines, watches) = marks;
        let mut mach = tiny_cache_cfg();
        if two_lines {
            mach.l1.size_bytes = 2 * mach.l1.line_bytes;
            mach.l1.assoc = 1;
        }
        let vtag = if segment { 255 } else { COMMITTED };
        let budget = u64::from(pre) + budget_slack;
        a_batch_is_its_steps(
            &program, &mach, &input, pre, budget, &lines, &watches, slack, vtag,
        );
    }

    fn engines_batch_as_they_step_on_loop_soup(
        program in arb_loop_program(),
        input in vec_of(any_u8(), 0..8),
    ) {
        batching_is_invisible_to_the_engines(&program, &input);
    }

    fn wide_batches_match_register_only_ones_on_loop_soup(
        program in arb_loop_program(),
        input in vec_of(any_u8(), 0..8),
    ) {
        wide_and_register_only_batches_agree(&program, &input);
    }
}

px_prop! {
    cases = 24;
    fn engines_match_on_round_tripped_loop_soup(
        program in arb_loop_program(),
        input in vec_of(any_u8(), 0..8),
    ) {
        let mut round = program.clone();
        round.code = decode_program(&encode_program(&program.code)).unwrap();
        for k in [1u8, 4, 16] {
            engines_agree(&program, &round, &input, k);
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
fn a_batched_store_straddling_two_pages_marks_both() {
    // `li`, `li`, `sw` form one wide batch; the word lands on the last two
    // bytes of one 4 KiB page and the first two of the next, which nothing
    // else writes. Unmarked, those two bytes would outlive the image.
    let program = assemble(
        r"
        .code
        main:
            li r1, 8190
            li r2, -1
            sw r2, 0(r1)
            exit
        ",
    )
    .unwrap();
    assert_eq!(DecodedProgram::decode(&program).wide_run(0), 3);
    baselines_agree(&program, b"", None, &soup_cfg());
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
