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

use pathexpander::{run_cmp_decoded, run_standard_decoded};
use px_detect::Tool;
use px_isa::DecodedProgram;
use px_mach::{Halt, IoState, MachConfig, TakenPath};

/// (workload, build, baseline floor, standard-engine floor, CMP floor),
/// input seed 1; `None` is the workload's primary tool. The baseline and
/// the standard engine run one core, the CMP engine the default machine.
/// Measured shares, before → after the CMP primary and watched taken paths
/// joined the wide batches (the baseline and standard shares agree):
///
/// | workload      | build    | baseline, standard | CMP             |
/// |---------------|----------|--------------------|-----------------|
/// | bc            | primary  | 0.6874 → 0.6874    | 0.4918 → 0.6874 |
/// | print_tokens2 | primary  | 0.6561 → 0.6561    | 0.6066 → 0.6558 |
/// | 164.gzip      | primary  | 0.6604 → 0.6604    | 0.6535 → 0.6604 |
/// | bc            | iWatcher | 0.4002 → 0.7009    | 0.4002 → 0.7008 |
/// | 099.go        | iWatcher | 0.4639 → 0.7721    | 0.4639 → 0.7721 |
/// | man           | iWatcher | 0.4052 → 0.7001    | 0.4052 → 0.7001 |
/// | print_tokens2 | iWatcher | 0.4004 → 0.6614    | 0.4004 → 0.6610 |
const FLOORS: &[(&str, Option<Tool>, f64, f64, f64)] = &[
    ("bc", None, 0.68, 0.68, 0.68),
    ("print_tokens2", None, 0.65, 0.65, 0.65),
    ("164.gzip", None, 0.66, 0.66, 0.66),
    ("bc", Some(Tool::Iwatcher), 0.70, 0.70, 0.70),
    ("099.go", Some(Tool::Iwatcher), 0.77, 0.77, 0.77),
    ("man", Some(Tool::Iwatcher), 0.70, 0.70, 0.70),
    ("print_tokens2", Some(Tool::Iwatcher), 0.66, 0.66, 0.66),
];

const SEED: u64 = 1;

#[test]
fn batched_shares_stay_above_their_floors() {
    for &(name, tool, base_floor, std_floor, cmp_floor) in FLOORS {
        let w = px_workloads::by_name(name).expect("known workload");
        let tool = tool.unwrap_or(w.tools[0]);
        let compiled = w.compile_for(tool).expect("compiles");
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

        let share = |r: pathexpander::PxRunResult| {
            (
                r.stats.taken_batched as f64 / r.stats.taken_instructions as f64,
                r.stats.taken_batched,
                r.stats.taken_instructions,
            )
        };
        let (std, std_batched, std_retired) = share(run_standard_decoded(
            program,
            &dp,
            &mach,
            &w.px_config(),
            io(),
        ));
        let cmp_px = w.px_config().cmp();
        let (cmp, cmp_batched, cmp_retired) = share(run_cmp_decoded(
            program,
            &dp,
            &MachConfig::default(),
            &cmp_px,
            io(),
        ));

        let what = format!("{name} ({tool:?})");
        println!(
            "{what}: batched share baseline {base:.4} ({} of {}), standard {std:.4} \
             ({std_batched} of {std_retired}), cmp {cmp:.4} ({cmp_batched} of {cmp_retired})",
            taken.batched, taken.retired
        );
        assert!(
            base >= base_floor,
            "{what}: baseline batched share {base:.4} fell below its floor {base_floor}"
        );
        assert!(
            std >= std_floor,
            "{what}: standard batched share {std:.4} fell below its floor {std_floor}"
        );
        assert!(
            cmp >= cmp_floor,
            "{what}: CMP batched share {cmp:.4} fell below its floor {cmp_floor}"
        );
    }
}
