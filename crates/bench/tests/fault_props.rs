//! Property tests on the fault-injection campaign: for any seed and mix,
//! every engine survives injection without a panic, the sandbox contains
//! every PathExpander case, and campaigns replay byte-identically. Every
//! campaign runs through the one driver, [`px_campaign::run`].
//!
//! Runs on the in-tree `px_util` property harness (`px_prop!`).

mod common;

use common::campaign;
use px_campaign::fault::{self, ENGINES};
use px_campaign::{run_only, CaseOutcome, Manifest, Watchdog};
use px_isa::asm::assemble;
use px_mach::{FaultKind, FaultMix, FaultPlan, IoState, MachConfig, RunExit, FAULT_KINDS};
use px_util::prop::{vec_of, Strategy};
use px_util::px_prop;

fn arb_kind() -> impl Strategy<Value = usize> + Clone + 'static {
    0usize..FAULT_KINDS.len()
}

px_prop! {
    cases = 12;
    fn any_seed_any_mix_is_contained(
        seed in 0u64..1_000_000,
        kind in arb_kind(),
    ) {
        // A focused mix stresses one fault kind at a time; every case of a
        // small campaign must be `Done`, which is stricter than "no
        // violation": it also rules out panics and watchdog trips.
        let mix = FaultMix::only(FAULT_KINDS[kind]);
        let (agg, quarantined) = campaign(&format!("fault:{seed}:8:{mix}"), "contained");
        assert_eq!(
            agg.of(CaseOutcome::Done),
            8,
            "seed {seed} kind {:?}: {quarantined:?}",
            FAULT_KINDS[kind],
        );
    }
}

px_prop! {
    cases = 8;
    fn campaigns_replay_byte_identically(seed in 0u64..u64::MAX) {
        let mix = FaultMix::uniform();
        let spec = format!("fault:{seed}:6:{mix}");
        let (a, _) = campaign(&spec, "replay-a");
        let (b, _) = campaign(&spec, "replay-b");
        assert_eq!(a.digest(), b.digest(), "campaign for seed {seed} is not replayable");
    }
}

px_prop! {
    cases = 16;
    fn every_case_is_individually_replayable(
        seed in 0u64..u64::MAX,
        id in 0u64..64,
    ) {
        let m = Manifest::parse(&format!("fault:{seed}:64")).unwrap();
        let a = run_only(&m, Watchdog::DEFAULT_TIMEOUT, id);
        let b = run_only(&m, Watchdog::DEFAULT_TIMEOUT, id);
        assert_eq!(a, b, "case {id} of seed {seed} is not replayable");
        let case = fault::run_case(seed, id, &FaultMix::uniform(), fault::CASE_BUDGET);
        assert_eq!(case.engine, ENGINES[(id % 4) as usize]);
    }
}

px_prop! {
    cases = 24;
    fn garbage_programs_never_panic_any_engine(
        bytes in vec_of(0u32..256, 8..200),
        seed in 0u64..u64::MAX,
    ) {
        // Decode random byte soup into whatever instructions fall out
        // (wild branch targets, loads at unmapped addresses, stray
        // predicated ops) and run it through the baseline interpreter under
        // fault injection: the only acceptable outcomes are a clean exit,
        // an architectural crash, a budget stop, or a typed engine fault —
        // never a panic.
        let raw: Vec<u8> = bytes.iter().map(|&b| b as u8).collect();
        let mut code = Vec::new();
        for chunk in raw.chunks_exact(px_isa::ENCODED_LEN) {
            let arr: [u8; px_isa::ENCODED_LEN] = chunk.try_into().unwrap();
            if let Ok(insn) = px_isa::decode(&arr) {
                code.push(insn);
            }
        }
        let mut program = assemble(".code\nmain: nop\nexit\n").unwrap();
        program.code.splice(0..0, code);
        let mach = MachConfig::single_core();
        let mut plan = FaultPlan::uniform(seed, 2);
        let io = IoState::new(Vec::new(), seed);
        let r = px_mach::run_baseline_with(&program, &mach, io, 5_000, Some(&mut plan), None);
        match r.exit {
            RunExit::Exited(_)
            | RunExit::Crashed(_)
            | RunExit::BudgetExhausted
            | RunExit::EngineFault(_) => {}
        }
    }
}

px_prop! {
    cases = 6;
    fn crash_only_mix_still_commits_clean_state(seed in 0u64..u64::MAX) {
        // Forced crashes inside NT-paths are the harshest containment test:
        // the committed run must still match the fault-free baseline.
        let mix = FaultMix::only(FaultKind::Crash);
        let (agg, quarantined) = campaign(&format!("fault:{seed}:8:{mix}"), "crash-only");
        assert_eq!(agg.of(CaseOutcome::Violated), 0, "{quarantined:?}");
    }
}
