//! Property tests for the zoo synthesizer's determinism contract: a
//! `ZooSpec` is the *complete* description of a generated program, so equal
//! specs must yield byte-identical artifacts at every pipeline stage and
//! distinct structure seeds must yield genuinely different programs.

use std::panic::{catch_unwind, AssertUnwindSafe};

use pathexpander::run;
use px_mach::{IoState, MachConfig};
use px_util::prop::{run_prop, PropConfig};
use px_util::px_prop;
use px_workloads::zoo::{self, BugMix, ZooShape, ZooSpec};

fn spec_of(shape_i: u32, seed: u64, size: u32, mix_i: u32) -> ZooSpec {
    let mut spec = ZooSpec::new(
        ZooShape::ALL[shape_i as usize % ZooShape::ALL.len()],
        1 + seed,
    );
    spec.size = 1 + size % 4;
    spec.mix = BugMix::ALL[mix_i as usize % BugMix::ALL.len()];
    spec
}

px_prop! {
    cases = 24;
    /// Same spec → byte-identical source, compiled code stream, and input.
    fn same_spec_is_byte_identical(
        shape_i in 0u32..4,
        seed in 0u64..1_000_000,
        size in 0u32..4,
        mix_i in 0u32..4,
    ) {
        let spec = spec_of(shape_i, seed, size, mix_i);
        let (a, b) = (zoo::generate(&spec), zoo::generate(&spec));
        assert_eq!(a.source, b.source, "{spec}: source must be deterministic");
        assert_eq!(a.bugs.len(), b.bugs.len(), "{spec}");
        let tool = a.tools[0];
        let (ca, cb) = (a.compile_for(tool).unwrap(), b.compile_for(tool).unwrap());
        assert_eq!(ca.program.code, cb.program.code, "{spec}: compiled stream");
        assert_eq!(
            zoo::input_bytes(&spec, 7),
            zoo::input_bytes(&spec, 7),
            "{spec}: input stream"
        );
        // The round trip through the spec grammar is lossless.
        assert_eq!(ZooSpec::parse(&spec.to_string()), Ok(spec.clone()), "{spec}");
    }
}

px_prop! {
    cases = 8;
    /// Distinct structure seeds → distinct programs with distinct dynamic
    /// behaviour (taken-path digests of a standard-engine run differ).
    fn distinct_seeds_are_distinct(
        shape_i in 0u32..4,
        seed in 0u64..10_000,
    ) {
        let a = spec_of(shape_i, seed, 1, 0);
        let b = spec_of(shape_i, seed + 1, 1, 0);
        let (wa, wb) = (zoo::generate(&a), zoo::generate(&b));
        assert_ne!(wa.source, wb.source, "{a} vs {b}: sources must differ");

        let run = |w: &px_workloads::Workload| {
            let compiled = w.compile_for(w.tools[0]).unwrap();
            let io = IoState::new(w.general_input(11), 11);
            run(
                &compiled.program,
                &MachConfig::single_core(),
                &w.px_config(),
                io,
            )
            .taken_path_digest(&compiled.program)
        };
        assert_ne!(run(&wa), run(&wb), "{a} vs {b}: taken-path digests");
    }
}

/// The prop harness shrinks a failing zoo property back to the smallest
/// spec that still violates it, and says so in the failure report — that is
/// the knob that keeps generated-program counterexamples readable.
#[test]
fn failing_zoo_property_shrinks_to_minimal_spec() {
    let cfg = PropConfig {
        cases: 16,
        seed: 0xDEAD_BEEF,
    };
    let err = catch_unwind(AssertUnwindSafe(|| {
        run_prop(
            "zoo_loc_is_tiny",
            &cfg,
            &(0u32..4, 0u64..10_000),
            |(shape_i, seed)| {
                let w = zoo::generate(&spec_of(shape_i, seed, 1, 0));
                // Deliberately false: every generated family is larger than
                // 10 lines, so the harness must fail and shrink.
                assert!(w.loc() < 10, "loc={}", w.loc());
            },
        );
    }))
    .expect_err("the seeded property must fail");
    let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
    assert!(
        msg.contains("minimal failing input (size 0): (0, 0)"),
        "shrinker must reach the minimal spec parameters: {msg}"
    );
    assert!(msg.contains("replay with PX_PROP_SEED="), "{msg}");
}
