//! The standard configuration and the CMP option must agree on what they
//! detect: the CMP optimization changes *when* NT-paths run, not what they
//! find (paper §7: "results of different PathExpander implementations are
//! similar").

use pathexpander::run;
use px_detect::{classify, report};
use px_mach::{IoState, MachConfig};

#[test]
fn cmp_and_standard_find_the_same_workload_bugs() {
    // Our kernels spawn far more densely (per instruction) than the paper's
    // full applications, so the default MaxNumNTPaths=32 queue saturates and
    // legitimately skips some spawns in CMP mode. With an ample cap the two
    // engines must agree exactly; with the default cap CMP can only find a
    // subset.
    for w in px_workloads::buggy() {
        let tool = w.tools[0];
        let compiled = w.compile_for(tool).unwrap();
        let io = || IoState::new(w.general_input(12345), 12345);
        let std_r = run(
            &compiled.program,
            &MachConfig::single_core(),
            &w.px_config(),
            io(),
        );
        let lines = w.bug_lines_for(tool);
        let std_tp =
            classify(&report(&compiled, &std_r.monitor, tool), &lines, false).true_positives();

        let ample = run(
            &compiled.program,
            &MachConfig::default(),
            &w.px_config().cmp().with_max_outstanding(512),
            io(),
        );
        let ample_tp =
            classify(&report(&compiled, &ample.monitor, tool), &lines, false).true_positives();
        assert_eq!(
            std_tp, ample_tp,
            "{}: engines agree with an ample queue",
            w.name
        );

        let capped = run(
            &compiled.program,
            &MachConfig::default(),
            &w.px_config().cmp(),
            io(),
        );
        let capped_tp =
            classify(&report(&compiled, &capped.monitor, tool), &lines, false).true_positives();
        assert!(
            capped_tp <= std_tp,
            "{}: the outstanding cap can only lose detections",
            w.name
        );
    }
}

/// A cross-shape sample of the generated zoo — small enough for tier-1,
/// wide enough to hit every shape and both deep-loop variants.
fn zoo_sample() -> Vec<px_workloads::Workload> {
    [
        "zoo:state-machine:3",
        "zoo:parser:2:n1",
        "zoo:interpreter:5:n3",
        "zoo:recursive:4",
    ]
    .iter()
    .map(|s| px_workloads::by_name(s).expect("zoo spec parses"))
    .collect()
}

#[test]
fn zoo_engines_agree_on_taken_path_digests() {
    // The generated programs exercise the engines differently from the
    // hand-written workloads (dense dispatch chains, syscall-bounded
    // NT-paths), but the transparency contract is the same: the committed
    // (taken-path) results must be identical under standard and
    // CMP-with-ample-queue.
    for w in zoo_sample() {
        for &tool in &w.tools {
            let compiled = w.compile_for(tool).unwrap();
            let io = || IoState::new(w.general_input(12345), 12345);
            let std_r = run(
                &compiled.program,
                &MachConfig::single_core(),
                &w.px_config(),
                io(),
            );
            let cmp_r = run(
                &compiled.program,
                &MachConfig::default(),
                &w.px_config().cmp().with_max_outstanding(512),
                io(),
            );
            assert_eq!(
                std_r.taken_path_digest(&compiled.program),
                cmp_r.taken_path_digest(&compiled.program),
                "{}/{}: standard and CMP taken-path digests",
                w.name,
                tool.name()
            );
        }
    }
}

#[test]
fn zoo_nt_faults_stay_contained() {
    // Seed-1 uniform fault mix injected into NT-paths only: the committed
    // run must be bit-identical to a fault-free one (paper §3.3 isolation).
    use px_mach::{FaultMix, FaultPlan};

    for w in zoo_sample() {
        let tool = w.tools[0];
        let compiled = w.compile_for(tool).unwrap();
        let io = IoState::new(w.general_input(999), 999);
        let mut plan = FaultPlan::new(1, FaultMix::uniform(), 4);
        let (_, report) = pathexpander::differential_run(
            &compiled.program,
            &MachConfig::single_core(),
            &w.px_config(),
            io,
            Some(&mut plan),
        );
        assert!(
            plan.stats.total() > 0,
            "{}: the campaign must actually fire",
            w.name
        );
        assert!(
            report.is_contained(),
            "{}: NT faults leaked into committed state: {:?}",
            w.name,
            report.violations
        );
    }
}
