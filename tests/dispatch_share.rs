//! Deterministic dispatch counter: the share of taken-path instructions
//! retired in batches rather than stepped one at a time through the
//! interpreter.
//!
//! A batch retires a run of straight-line micro-ops in one tight loop; a
//! stepped instruction pays a full `step_uop` dispatch. The share is a pure
//! function of the program, its input and the batching rules, so a change
//! that quietly sends more instructions down the stepped path fails here,
//! where timing noise would hide it. Each floor sits just under the share
//! measured when it was set; raise it when batching widens.

use pathexpander::run_standard_decoded;
use px_isa::DecodedProgram;
use px_mach::{Halt, IoState, MachConfig, TakenPath};

/// (workload, baseline floor, standard-engine floor), input seed 1, each
/// workload built for its primary tool. Measured shares: bc 0.6874,
/// print_tokens2 0.6561, 164.gzip 0.6604 on both (0.4068, 0.4036 and
/// 0.3322 while only register-only runs were batched).
const FLOORS: &[(&str, f64, f64)] = &[
    ("bc", 0.68, 0.68),
    ("print_tokens2", 0.65, 0.65),
    ("164.gzip", 0.66, 0.66),
];

const SEED: u64 = 1;

#[test]
fn batched_shares_stay_above_their_floors() {
    for &(name, base_floor, std_floor) in FLOORS {
        let w = px_workloads::by_name(name).expect("known workload");
        let compiled = w.compile_for(w.tools[0]).expect("compiles");
        let program = &compiled.program;
        let dp = DecodedProgram::decode(program);
        let mach = MachConfig::single_core();
        let io = || IoState::new(w.general_input(SEED), SEED);

        // The baseline: the taken path with a hook that never stops it.
        let mut taken =
            TakenPath::new(program, &dp, &mach, io(), 50_000_000, None, None).expect("loads");
        let halt = taken.follow(&mut 0, |_, _, _| false);
        assert!(matches!(halt, Halt::Exit(_)), "{name}: {halt:?}");
        let base = taken.batched as f64 / taken.retired as f64;

        let r = run_standard_decoded(program, &dp, &mach, &w.px_config(), io());
        let std = r.stats.taken_batched as f64 / r.stats.taken_instructions as f64;

        println!(
            "{name}: batched share baseline {base:.4} ({} of {}), standard {std:.4} ({} of {})",
            taken.batched, taken.retired, r.stats.taken_batched, r.stats.taken_instructions
        );
        assert!(
            base >= base_floor,
            "{name}: baseline batched share {base:.4} fell below its floor {base_floor}"
        );
        assert!(
            std >= std_floor,
            "{name}: standard batched share {std:.4} fell below its floor {std_floor}"
        );
    }
}
