//! Golden regression test for the fault-injection campaign: the canonical
//! `fault_campaign --seed 1 --cases 256 --json` output is pinned
//! byte-for-byte. The campaign folds every layer of the simulator — engines,
//! caches, sandboxes, the fault planner and the parallel sweep driver — so
//! this one string catches any accidental behavioural drift from a
//! performance change (the paged sandbox, the flattened cache, the pooled
//! `par_map` all landed under this gate).
//!
//! If this test fails after an *intended* architectural change, regenerate
//! the golden string with:
//!
//! ```text
//! cargo run --release -q -p px-bench --bin fault_campaign -- \
//!     --seed 1 --cases 256 --json
//! ```

use px_campaign::fault::run_campaign;
use px_mach::FaultMix;
use px_util::ToJson;

const GOLDEN_SEED1_CASES256: &str = r#"{"seed":1,"cases":256,"mix":"bitflip=1,crash=1,runaway=1,vtag=1,overflow=1,monitor=1,io=1","faults_injected":2992,"contained":256,"exits":[{"class":"crashed","n":56},{"class":"exited","n":200}],"violating":[]}"#;

#[test]
fn campaign_seed1_cases256_is_byte_identical_to_golden() {
    let summary = run_campaign(1, 256, &FaultMix::uniform());
    assert_eq!(
        summary.to_json().dump(),
        GOLDEN_SEED1_CASES256,
        "fault campaign output drifted from the pinned golden run"
    );
}

#[test]
fn campaign_is_deterministic_across_repeats() {
    let a = run_campaign(7, 32, &FaultMix::uniform()).to_json().dump();
    let b = run_campaign(7, 32, &FaultMix::uniform()).to_json().dump();
    assert_eq!(a, b);
}
