//! Differential suite for NT-path memoization: a run with the replay cache
//! enabled must be **byte-identical** to the same run with it disabled —
//! every exit, cycle count, coverage bitmap, monitor record, committed
//! memory byte, register, statistic and prime-path count. Memoization is a
//! simulator-performance lever, never an architectural one.
//!
//! Random byte-soup programs exercise the ugly corners (crashing loads,
//! invalid targets, suppressed syscalls, watchpoints); directed nt-heavy
//! programs pin down that the cache actually *hits* while staying
//! identical; fault-injection runs pin down the bypass (faults on NT steps
//! must not be served from memo entries).

use pathexpander::{
    cmp_memo_table, plan_paths, run, run_cmp_memo, run_standard_memo, run_with,
    standard_memo_table, PxConfig, PxRunResult,
};
use px_isa::{
    AluOp, BranchCond, CheckKind, DecodedProgram, Instruction, Program, Reg, SyscallCode, Width,
};
use px_mach::{FaultPlan, IoState, MachConfig};
use px_util::prop::{any_i32, any_u32, any_u8, just, vec_of, BoxedStrategy, Strategy};
use px_util::{fnv1a64, px_oneof, px_prop};

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
        just(AluOp::Shl),
        just(AluOp::Slt),
        just(AluOp::Xor),
    ]
    .boxed()
}

fn arb_cond() -> BoxedStrategy<BranchCond> {
    px_oneof![
        just(BranchCond::Eq),
        just(BranchCond::Ne),
        just(BranchCond::Lt),
        just(BranchCond::Gt),
    ]
    .boxed()
}

fn arb_offset() -> impl Strategy<Value = i32> {
    (0u32..8192).prop_map(|v| v as i32 - 64)
}

fn arb_target() -> impl Strategy<Value = u32> {
    any_u32().prop_map(|t| t % 64)
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
        (any_u8().prop_map(|c| c % 4)).prop_map(|c| {
            Instruction::Syscall {
                code: [
                    SyscallCode::PutChar,
                    SyscallCode::GetChar,
                    SyscallCode::Rand,
                    SyscallCode::Exit,
                ][c as usize],
            }
        }),
        (arb_reg(), any_u32()).prop_map(|(cond, site)| Instruction::Check {
            kind: CheckKind::Assertion,
            cond,
            site
        }),
        (arb_reg(), arb_reg(), any_u32()).prop_map(|(base, len, tag)| Instruction::SetWatch {
            base,
            len,
            tag: tag % 8
        }),
    ]
    .boxed()
}

fn soup_program(code: Vec<Instruction>) -> Program {
    Program {
        code,
        entry: 0,
        mem_size: 4096,
        ..Program::default()
    }
}

/// Full-fidelity digest of a run: *everything* in the result, not just the
/// architectural subset the engines' cross-engine gates compare. Two runs
/// with equal digests are observably the same run.
fn full_digest(program: &Program, r: &PxRunResult) -> u64 {
    let mut h = fnv1a64(
        0,
        format!("{:?} {} {:?} {:?}", r.exit, r.cycles, r.core, r.stats).as_bytes(),
    );
    h = fnv1a64(h, r.io.output());
    h = fnv1a64(h, format!("{:?}", r.monitor.records()).as_bytes());
    for a in 0..r.memory.size() {
        h = fnv1a64(h, &[r.memory.byte(a)]);
    }
    h = r.taken_coverage.digest(program, h);
    h = r.total_coverage.digest(program, h);
    if let Some(pc) = &r.path_coverage {
        h = pc.digest(h);
    }
    h
}

const BUDGET: u64 = 20_000;

fn px_at(k: u8, memo: bool) -> PxConfig {
    PxConfig::default()
        .with_max_instructions(BUDGET)
        .with_counter_threshold(k)
        .with_counter_reset_interval(256)
        .with_max_nt_path_len(500)
        .with_nt_memo(memo)
}

fn assert_memo_identical(program: &Program, input: &[u8], k: u8) {
    let io = || IoState::new(input.to_vec(), 0xD1FF);
    let on = run(program, &MachConfig::single_core(), &px_at(k, true), io());
    let off = run(program, &MachConfig::single_core(), &px_at(k, false), io());
    assert_eq!(
        full_digest(program, &on),
        full_digest(program, &off),
        "standard memo on/off diverged (K={k}): {:?} vs {:?}",
        (&on.exit, on.cycles, &on.stats),
        (&off.exit, off.cycles, &off.stats),
    );

    let c_on = run(program, &MachConfig::default(), &px_at(k, true).cmp(), io());
    let c_off = run(
        program,
        &MachConfig::default(),
        &px_at(k, false).cmp(),
        io(),
    );
    assert_eq!(
        full_digest(program, &c_on),
        full_digest(program, &c_off),
        "cmp memo on/off diverged (K={k}): {:?} vs {:?}",
        (&c_on.exit, c_on.cycles, &c_on.stats),
        (&c_off.exit, c_off.cycles, &c_off.stats),
    );

    // Two runs against one shared table: the second starts from whatever
    // key states the first left (live, dead, or forgotten because the run
    // ended while its recording path was still running).
    let dp = DecodedProgram::decode(program);
    let mach = MachConfig::default();
    let px = px_at(k, true).cmp();
    let mut table = cmp_memo_table(program, &mach, &px);
    for pass in 0..2 {
        let shared = run_cmp_memo(program, &dp, &mach, &px, io(), &mut table);
        assert_eq!(
            full_digest(program, &shared),
            full_digest(program, &c_off),
            "cmp shared-table pass {pass} diverged from memo off (K={k}): {:?}",
            table.counters,
        );
    }
}

px_prop! {
    cases = 48;

    fn memo_identity_on_byte_soup(
        code in vec_of(arb_instruction(), 1..48),
        input in vec_of(any_u8(), 0..8),
        k in px_oneof![just(1u8), just(4), just(16)],
    ) {
        assert_memo_identical(&soup_program(code), &input, k);
    }

    fn memo_identity_under_fault_injection(
        code in vec_of(arb_instruction(), 1..32),
        seed in any_u32(),
    ) {
        // With a fault plan attached, memoization is structurally bypassed:
        // both runs simulate every NT step for real and stay identical.
        let program = soup_program(code);
        let io = || IoState::new(Vec::new(), 0xD1FF);
        let mut fa = FaultPlan::uniform(u64::from(seed), 3);
        let mut fb = FaultPlan::uniform(u64::from(seed), 3);
        let on = run_with(
            &program,
            &MachConfig::single_core(),
            &px_at(4, true),
            io(),
            Some(&mut fa),
        );
        let off = run_with(
            &program,
            &MachConfig::single_core(),
            &px_at(4, false),
            io(),
            Some(&mut fb),
        );
        assert_eq!(
            full_digest(&program, &on),
            full_digest(&program, &off),
            "fault-injected runs must bypass the memo identically"
        );
    }
}

/// An nt-heavy loop: every iteration re-spawns the same never-taken edge
/// into a cold store/load body whose only live-in is the constant `r9`,
/// which is exactly the shape the memo accelerates.
const NT_HEAVY: &str = r"
    .data
    buf: .space 8
    .code
main:
    li   r1, 64          ; outer iterations
    la   r9, buf         ; buffer
outer:
    beq  r1, r9, heavy   ; never taken: r1 stays far below r9
    subi r1, r1, 1
    bgt  r1, zero, outer
    li   r2, 0
    exit
heavy:
    sw   r9, 0(r9)
    lw   r10, 0(r9)
    sb   r10, 4(r9)
    addi r10, r10, 1
    jmp  heavy
";

/// A cold edge into a ~600-instruction sandboxed sweep that the taken
/// path re-arms every few iterations, so under CMP a spawn often finds an
/// earlier path at the same key still running.
const NT_OVERLAP: &str = r"
    .data
    buf: .word 0
    .code
main:
    li   r1, 1
    la   r9, buf
    li   r4, 2000
loop:
    bne  r1, zero, cont  ; always taken: the fall-through is the cold edge
    li   r6, 96
    mv   r10, r9
sweep:
    sw   r6, 0(r10)
    lw   r7, 0(r10)
    sb   r6, 2(r10)
    addi r10, r10, 4
    subi r6, r6, 1
    bgt  r6, zero, sweep
    li   r2, 0
    exit
cont:
    subi r4, r4, 1
    bgt  r4, zero, loop
    li   r2, 0
    exit
";

/// Every NT-path of an `NT_HEAVY` run runs the store/load body: none
/// crashes, and some get past the first instruction.
fn assert_paths_run_the_body(r: &PxRunResult) {
    assert_eq!(r.stats.stops_of("crash"), 0, "{:?}", r.stats.paths);
    assert!(
        r.stats.paths.iter().any(|p| p.executed > 1),
        "{:?}",
        r.stats.paths
    );
}

#[test]
fn nt_heavy_identical_with_hits_and_path_plan() {
    let program = px_isa::asm::assemble(NT_HEAVY).expect("assembles");
    let set = px_analyze::Analysis::of(&program).prime_paths(&program);
    let plan = std::sync::Arc::new(plan_paths(&set).expect("unique digests"));
    for k in [1u8, 4, 16] {
        let px = px_at(k, true).with_path_plan(Some(plan.clone()));
        let on = run(
            &program,
            &MachConfig::single_core(),
            &px,
            IoState::default(),
        );
        let off = run(
            &program,
            &MachConfig::single_core(),
            &px.clone().with_nt_memo(false),
            IoState::default(),
        );
        assert_eq!(
            full_digest(&program, &on),
            full_digest(&program, &off),
            "nt-heavy memo on/off diverged (K={k})"
        );
        assert_paths_run_the_body(&on);
        let c_on = run(
            &program,
            &MachConfig::default(),
            &px.clone().cmp(),
            IoState::default(),
        );
        let c_off = run(
            &program,
            &MachConfig::default(),
            &px.clone().cmp().with_nt_memo(false),
            IoState::default(),
        );
        assert_eq!(
            full_digest(&program, &c_on),
            full_digest(&program, &c_off),
            "nt-heavy cmp memo on/off diverged (K={k})"
        );
        assert_paths_run_the_body(&c_on);
    }
}

#[test]
fn explicit_table_hits_and_reuses_across_runs() {
    let program = px_isa::asm::assemble(NT_HEAVY).expect("assembles");
    let dp = DecodedProgram::decode(&program);
    let mach = MachConfig::single_core();
    let px = px_at(64, true);
    let mut table = standard_memo_table(&program, &mach, &px);
    let first = run_standard_memo(&program, &dp, &mach, &px, IoState::default(), &mut table);
    let hits_after_first = table.counters.hits;
    assert!(first.stats.spawns > 4, "nt-heavy must spawn");
    assert_paths_run_the_body(&first);
    assert!(
        hits_after_first > 0,
        "repeated spawns of the same body must hit: {:?}",
        table.counters
    );
    assert!(table.counters.stores > 0);

    // A second run against the same table starts hot: at least as many hits
    // per spawn, and the result is still byte-identical to a memo-off run.
    let second = run_standard_memo(&program, &dp, &mach, &px, IoState::default(), &mut table);
    let plain = run(
        &program,
        &mach,
        &px.clone().with_nt_memo(false),
        IoState::default(),
    );
    assert!(table.counters.hits > hits_after_first);
    assert_eq!(
        full_digest(&program, &second),
        full_digest(&program, &plain)
    );
    assert_eq!(full_digest(&program, &first), full_digest(&program, &plain));
}

#[test]
fn cmp_explicit_table_hits_and_stays_identical() {
    let program = px_isa::asm::assemble(NT_HEAVY).expect("assembles");
    let dp = DecodedProgram::decode(&program);
    let mach = MachConfig::default();
    let px = px_at(64, true).cmp();
    let mut table = cmp_memo_table(&program, &mach, &px);
    let first = run_cmp_memo(&program, &dp, &mach, &px, IoState::default(), &mut table);
    assert!(first.stats.spawns > 4, "nt-heavy must spawn");
    assert_paths_run_the_body(&first);
    assert!(
        table.counters.hits > 0,
        "repeated spawns of the same body must hit: {:?}",
        table.counters
    );
    assert!(table.counters.stores > 0);
    let hits_after_first = table.counters.hits;

    let second = run_cmp_memo(&program, &dp, &mach, &px, IoState::default(), &mut table);
    let plain = run(
        &program,
        &mach,
        &px.clone().with_nt_memo(false),
        IoState::default(),
    );
    assert!(table.counters.hits > hits_after_first);
    assert_eq!(
        full_digest(&program, &second),
        full_digest(&program, &plain)
    );
    assert_eq!(full_digest(&program, &first), full_digest(&program, &plain));

    // Concurrent paths at one key record it once: every miss is a stored
    // recording or a spawn that simulated unrecorded while another path
    // recorded its key, and no recording is thrown away.
    let program = px_isa::asm::assemble(NT_OVERLAP).expect("assembles");
    let dp = DecodedProgram::decode(&program);
    let mut table = cmp_memo_table(&program, &mach, &px);
    let r = run_cmp_memo(&program, &dp, &mach, &px, IoState::default(), &mut table);
    let plain = run(
        &program,
        &mach,
        &px.clone().with_nt_memo(false),
        IoState::default(),
    );
    assert_eq!(full_digest(&program, &r), full_digest(&program, &plain));
    let c = table.counters;
    assert_eq!(c.bypasses, 0, "{c:?}");
    assert_eq!(c.misses, c.stores + c.skips - c.invalidations, "{c:?}");
    assert!(
        c.skips > c.invalidations,
        "paths must overlap at a key: {c:?}"
    );
}

/// A table whose fingerprint does not match the run (another engine's
/// table, or another program's) is ignored: it is never probed, filled or
/// charged, and the run equals a memo-off run.
#[test]
fn mismatched_tables_are_ignored() {
    let program = px_isa::asm::assemble(NT_HEAVY).expect("assembles");
    let dp = DecodedProgram::decode(&program);

    let mach = MachConfig::default();
    let px = px_at(64, true).cmp();
    let mut table = standard_memo_table(&program, &mach, &px);
    let r = run_cmp_memo(&program, &dp, &mach, &px, IoState::default(), &mut table);
    let off = run(
        &program,
        &mach,
        &px.clone().with_nt_memo(false),
        IoState::default(),
    );
    assert_eq!(
        table.counters,
        Default::default(),
        "standard table in a CMP run"
    );
    assert_eq!(full_digest(&program, &r), full_digest(&program, &off));
    assert_paths_run_the_body(&r);

    let other = soup_program(vec![Instruction::Nop; 3]);
    let mach = MachConfig::single_core();
    let px = px_at(64, true);
    let mut table = standard_memo_table(&other, &mach, &px);
    let r = run_standard_memo(&program, &dp, &mach, &px, IoState::default(), &mut table);
    let off = run(
        &program,
        &mach,
        &px.clone().with_nt_memo(false),
        IoState::default(),
    );
    assert_eq!(
        table.counters,
        Default::default(),
        "another program's table"
    );
    assert_eq!(full_digest(&program, &r), full_digest(&program, &off));
}
