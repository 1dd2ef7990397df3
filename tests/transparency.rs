//! The central architectural invariant: PathExpander is **transparent** to
//! the monitored program. Whatever combination of engines and options
//! explores the non-taken paths, the taken path's output, exit status and
//! final behaviour must be bit-identical to a plain run — NT-path side
//! effects never leak (paper §3.1: "silently, without side effects").

use pathexpander::{run, PxConfig, PxRunResult};
use px_mach::{run_baseline, IoState, MachConfig, RunExit, RunResult};

const BUDGET: u64 = 30_000_000;

fn signature(exit: RunExit, out: &str) -> String {
    format!("{exit:?}|{out}")
}

#[test]
fn every_engine_and_option_is_transparent_on_every_workload() {
    for w in px_workloads::all() {
        for &tool in &w.tools {
            let compiled = w.compile_for(tool).expect("compiles");
            for seed in [3u64, 99] {
                let io = || IoState::new(w.general_input(seed), seed);
                let base =
                    run_baseline(&compiled.program, &MachConfig::single_core(), io(), BUDGET);
                let expected = signature(base.exit, &base.io.output_string());

                let configs: Vec<(&str, PxConfig)> = vec![
                    ("standard", w.px_config()),
                    ("standard-unfixed", w.px_config().with_fixes(false)),
                    ("standard-os-sandbox", w.px_config().with_os_sandbox(true)),
                    (
                        "standard-explore-nt",
                        w.px_config().with_explore_nt_from_nt(true),
                    ),
                    (
                        // Rare enough that the extra NT work stays far below
                        // the instruction budget even on the hottest loops.
                        "standard-random-factor",
                        w.px_config().with_random_factor(Some(256)),
                    ),
                    (
                        "standard-tiny-sandbox-pressure",
                        w.px_config().with_max_nt_path_len(5000),
                    ),
                ];
                for (label, cfg) in configs {
                    let r = run(
                        &compiled.program,
                        &MachConfig::single_core(),
                        &cfg.clone().with_max_instructions(BUDGET),
                        io(),
                    );
                    assert_eq!(
                        signature(r.exit, &r.io.output_string()),
                        expected,
                        "{} ({}) seed {seed}: `{label}` leaked NT-path effects",
                        w.name,
                        tool.name(),
                    );
                }

                let cmp_r = run(
                    &compiled.program,
                    &MachConfig::default(),
                    &w.px_config().cmp().with_max_instructions(BUDGET),
                    io(),
                );
                assert_eq!(
                    signature(cmp_r.exit, &cmp_r.io.output_string()),
                    expected,
                    "{} ({}) seed {seed}: the CMP option leaked NT-path effects",
                    w.name,
                    tool.name(),
                );
            }
        }
    }
}

#[test]
fn runs_are_bit_deterministic() {
    for w in px_workloads::buggy().into_iter().take(3) {
        let tool = w.tools[0];
        let compiled = w.compile_for(tool).expect("compiles");
        let io = || IoState::new(w.general_input(5), 5);
        let once = run(
            &compiled.program,
            &MachConfig::single_core(),
            &w.px_config(),
            io(),
        );
        let twice = run(
            &compiled.program,
            &MachConfig::single_core(),
            &w.px_config(),
            io(),
        );
        assert_eq!(once.cycles, twice.cycles, "{}", w.name);
        assert_eq!(once.stats.spawns, twice.stats.spawns, "{}", w.name);
        assert_eq!(once.monitor.len(), twice.monitor.len(), "{}", w.name);
        assert_eq!(
            once.total_coverage, twice.total_coverage,
            "{}: coverage must be reproducible",
            w.name
        );
    }
}

#[test]
fn taken_coverage_equals_baseline_coverage() {
    // The coverage PathExpander attributes to the taken path must be exactly
    // what the baseline run covers — NT-exploration must not perturb it.
    for w in px_workloads::buggy() {
        let tool = w.tools[0];
        let compiled = w.compile_for(tool).expect("compiles");
        let io = || IoState::new(w.general_input(11), 11);
        let base = run_baseline(&compiled.program, &MachConfig::single_core(), io(), BUDGET);
        let px = run(
            &compiled.program,
            &MachConfig::single_core(),
            &w.px_config(),
            io(),
        );
        assert_eq!(
            base.coverage.covered_edges(&compiled.program),
            px.taken_coverage.covered_edges(&compiled.program),
            "{}: taken-path coverage drifted",
            w.name
        );
    }
}

/// Asserts that spawn-free engine run `r` is baseline run `base` on the
/// same machine, field by field, cycles and memory included.
fn assert_is_the_baseline(r: &PxRunResult, base: &RunResult, at: &str) {
    assert_eq!(r.stats.spawns, 0, "{at}: spawned");
    assert_eq!(r.exit, base.exit, "{at}: exit");
    assert_eq!(format!("{:?}", r.io), format!("{:?}", base.io), "{at}: I/O");
    assert_eq!(r.taken_coverage, base.coverage, "{at}: taken coverage");
    assert_eq!(r.total_coverage, base.coverage, "{at}: total coverage");
    assert_eq!(
        r.monitor.records(),
        base.monitor.records(),
        "{at}: monitor records"
    );
    assert_eq!(r.core, base.core, "{at}: register file");
    assert!(r.memory == base.memory, "{at}: memory");
    assert_eq!(r.cycles, base.cycles, "{at}: cycles");
    assert_eq!(
        r.stats.taken_instructions, base.instructions,
        "{at}: taken instructions"
    );
    assert_eq!(r.stats.nt_instructions, 0, "{at}: NT instructions");
}

#[test]
fn spawn_free_standard_run_is_the_baseline() {
    // With every exercise counter hot from the start (threshold 0, no
    // random factor) no NT-path is ever spawned, so the standard engine on
    // one core and the CMP engine on the default CMP must each be the
    // baseline machine they run on, down to the simulated cycle and the
    // final memory image.
    for w in px_workloads::all() {
        for &tool in &w.tools {
            let compiled = w.compile_for(tool).expect("compiles");
            for seed in [3u64, 99] {
                let io = || IoState::new(w.general_input(seed), seed);
                let cfg = w
                    .px_config()
                    .with_counter_threshold(0)
                    .with_max_instructions(BUDGET);
                for (engine, mach, px) in [
                    ("standard", MachConfig::single_core(), cfg.clone()),
                    ("cmp", MachConfig::default(), cfg.clone().cmp()),
                ] {
                    let base = run_baseline(&compiled.program, &mach, io(), BUDGET);
                    let r = run(&compiled.program, &mach, &px, io());
                    let at = format!("{engine}: {} ({}) seed {seed}", w.name, tool.name());
                    assert_is_the_baseline(&r, &base, &at);
                }
            }
        }
    }
}
