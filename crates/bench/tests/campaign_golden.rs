//! Golden regression test for the fault-injection campaign (E12): manifest
//! `fault:1:256` run through the campaign driver, [`px_campaign::run`], is
//! pinned by its aggregate — the case counts, the exit histogram and the
//! aggregate digest, which folds every case record. The campaign exercises
//! every layer of the simulator — engines, caches, sandboxes, the fault
//! planner and the job pool — so this one digest catches any
//! accidental behavioural drift from a performance change.
//!
//! If this test fails after an *intended* architectural change, regenerate
//! the pinned values with:
//!
//! ```text
//! cargo run --release -q -p px-cli --bin pxc -- campaign \
//!     --cases fault:1:256 --no-resume --journal /tmp/e12.ndjson --json
//! ```

mod common;

use common::campaign;
use px_campaign::CaseOutcome;

const GOLDEN_FAULTS: u64 = 2992;
const GOLDEN_EXITS: [(&str, u64); 2] = [("crashed", 56), ("exited", 200)];
const GOLDEN_DIGEST: u64 = 0x2aac_22e4_26a1_1ffe;

#[test]
fn campaign_seed1_cases256_is_byte_identical_to_golden() {
    let (agg, _) = campaign("fault:1:256", "golden-seed1");
    assert_eq!(agg.total, 256);
    assert_eq!(agg.faults, GOLDEN_FAULTS);
    assert_eq!(agg.of(CaseOutcome::Done), 256);
    assert_eq!(agg.of(CaseOutcome::Violated), 0);
    let exits: Vec<(&str, u64)> = agg.exits.iter().map(|(c, n)| (c.as_str(), *n)).collect();
    assert_eq!(exits, GOLDEN_EXITS);
    assert_eq!(
        agg.digest(),
        GOLDEN_DIGEST,
        "fault campaign aggregate drifted from the pinned golden run: {}",
        agg.to_json().dump()
    );
}

#[test]
fn campaign_is_deterministic_across_repeats() {
    let (a, _) = campaign("fault:7:32", "golden-repeat-a");
    let (b, _) = campaign("fault:7:32", "golden-repeat-b");
    assert_eq!(a.digest(), b.digest());
}
