//! Crash-safety acceptance tests: kill a campaign at seeded points, resume
//! it, and demand the resumed aggregate digest be byte-identical to an
//! uninterrupted run's — with zero lost cases and a quarantine that matches
//! the chaos generator's ground truth.

use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};

use px_campaign::runner::chaos_truth;
use px_campaign::{run, run_with_shutdown, CampaignConfig, CampaignError, CaseOutcome, Manifest};
use px_util::{Rng, SplitMix64};

/// The test campaign: hostile chaos cases plus real fault-injection cases,
/// under a watchdog tight enough to keep runaways cheap.
const MANIFEST: &str = "chaos:3:40+fault:5:12";
const TIMEOUT: u64 = 10_000;

fn cfg(name: &str) -> CampaignConfig {
    let journal =
        std::env::temp_dir().join(format!("px-campaign-{}-{name}.ndjson", std::process::id()));
    let _ = std::fs::remove_file(&journal);
    let mut c = CampaignConfig::new(Manifest::parse(MANIFEST).unwrap(), journal);
    c.timeout = TIMEOUT;
    c.workers = 2;
    c.checkpoint_every = 8;
    c
}

fn cleanup(c: &CampaignConfig) {
    let _ = std::fs::remove_file(&c.journal);
    let mut q = c.journal.as_os_str().to_owned();
    q.push(".quarantine");
    let _ = std::fs::remove_file(PathBuf::from(q));
}

fn uninterrupted_digest() -> u64 {
    let c = cfg("straight");
    let report = run(&c).unwrap();
    assert!(report.complete());
    let digest = report.digest();
    cleanup(&c);
    digest
}

#[test]
fn killed_campaigns_resume_to_an_identical_digest() {
    let want = uninterrupted_digest();
    let total = Manifest::parse(MANIFEST).unwrap().total();

    // Seeded random kill points, including a checkpoint boundary (8).
    let mut rng = SplitMix64::new(0xDEAD_BEEF);
    let mut kills: Vec<u64> = (0..3).map(|_| rng.range_u64(1, total - 1)).collect();
    kills.push(8);
    for (i, kill) in kills.into_iter().enumerate() {
        let mut c = cfg(&format!("kill{i}"));
        c.kill_after = Some(kill);
        let partial = run(&c).unwrap();
        assert!(partial.interrupted, "kill_after {kill} must interrupt");
        assert!(!partial.complete());
        assert_eq!(partial.ran, kill);

        // Resume with a clean config: same campaign, no kill.
        c.kill_after = None;
        let resumed = run(&c).unwrap();
        assert!(resumed.complete(), "resume finishes the manifest");
        assert_eq!(resumed.resumed + resumed.ran, total, "zero lost cases");
        assert!(resumed.resumed >= kill, "journal kept the pre-kill work");
        assert_eq!(
            resumed.digest(),
            want,
            "kill at {kill} + resume must reproduce the uninterrupted digest"
        );
        cleanup(&c);
    }
}

#[test]
fn shutdown_flag_drains_gracefully_and_resumes() {
    let want = uninterrupted_digest();
    let c = cfg("sigint");
    // The flag is already high: every worker stops after the case it is
    // on, the run writes a final checkpoint, and stays resumable.
    let flag = AtomicBool::new(true);
    let partial = run_with_shutdown(&c, &flag).unwrap();
    assert!(partial.interrupted);
    assert!(!partial.complete());
    assert!(
        partial.ran <= c.workers as u64,
        "a drain runs at most one case per worker, ran {}",
        partial.ran
    );

    let state = px_campaign::journal::load(&c.journal).unwrap();
    assert!(!state.torn, "graceful shutdown leaves no torn tail");
    assert!(state.checkpoints > 0, "graceful shutdown checkpoints");

    flag.store(false, Ordering::SeqCst);
    let resumed = run_with_shutdown(&c, &flag).unwrap();
    assert!(resumed.complete());
    assert_eq!(resumed.digest(), want);
    cleanup(&c);
}

#[test]
fn quarantine_matches_chaos_ground_truth() {
    let c = cfg("truth");
    let report = run(&c).unwrap();
    assert!(report.complete());

    let truth = chaos_truth(3, 40);
    let want_panicked = truth
        .iter()
        .filter(|o| **o == CaseOutcome::Panicked)
        .count() as u64;
    let want_timed_out = truth
        .iter()
        .filter(|o| **o == CaseOutcome::TimedOut)
        .count() as u64;
    assert!(
        want_panicked > 0 && want_timed_out > 0,
        "chaos mix is hostile"
    );
    assert_eq!(report.aggregate.of(CaseOutcome::Panicked), want_panicked);
    // Fault cases under a 10k watchdog may time out too; chaos provides the
    // floor, and every chaos runaway must be quarantined.
    assert!(report.aggregate.of(CaseOutcome::TimedOut) >= want_timed_out);
    for (local, want) in truth.iter().enumerate() {
        let rec = report.quarantined.iter().find(|r| r.id == local as u64);
        match want {
            CaseOutcome::Done => assert!(rec.is_none(), "chaos case {local} is clean"),
            other => {
                let rec = rec.unwrap_or_else(|| panic!("chaos case {local} must be quarantined"));
                assert_eq!(rec.outcome, *other, "chaos case {local}");
            }
        }
    }

    // The quarantine file exists, one line per quarantined case, each with
    // a replay command that regenerates the same record.
    let mut qpath = c.journal.as_os_str().to_owned();
    qpath.push(".quarantine");
    let text = std::fs::read_to_string(PathBuf::from(&qpath)).unwrap();
    assert_eq!(text.lines().count(), report.quarantined.len());
    assert!(text.contains("pxc campaign --cases"));

    // Replay one quarantined case by id: same outcome.
    let first = &report.quarantined[0];
    let replayed = px_campaign::run_only(&c.manifest, TIMEOUT, first.id);
    assert_eq!(replayed.outcome, first.outcome);
    assert_eq!(replayed.case, first.case);
    cleanup(&c);
}

#[test]
fn foreign_journals_are_rejected() {
    let c = cfg("mismatch");
    run(&c).unwrap();
    let mut other = c.clone();
    other.timeout = TIMEOUT * 2;
    let err = run(&other).unwrap_err();
    assert!(matches!(err, CampaignError::Mismatch(_)), "{err}");
    cleanup(&c);
}

#[test]
fn quarantine_limit_aborts_resumably() {
    let mut c = cfg("limit");
    c.max_quarantine = Some(2);
    let partial = run(&c).unwrap();
    assert!(partial.quarantine_limit_hit);
    assert!(partial.interrupted);
    assert!(!partial.complete());

    // Raising the limit and resuming still completes to the right digest.
    c.max_quarantine = None;
    let resumed = run(&c).unwrap();
    assert!(resumed.complete());
    assert_eq!(resumed.digest(), uninterrupted_digest());
    cleanup(&c);
}
