//! **E16 — the campaign crash-safety gate** (robustness; not from the
//! paper).
//!
//! A reduced-scale end-to-end proof that the crash-safe campaign runner
//! keeps its three promises under hostile load:
//!
//! 1. **Nothing is lost, nothing is double-counted.** A ~512-case manifest
//!    mixing deliberately panicking and runaway `chaos` cases with real
//!    fault-injection and zoo cases is run once straight through, and once
//!    killed mid-flight (simulated SIGKILL: journal writes stop dead,
//!    leaving a torn tail) and resumed. Both journals must fold to the
//!    **byte-identical aggregate digest**, and the resumed run must account
//!    for every case exactly once.
//! 2. **Quarantine matches ground truth.** Every chaos case the generator
//!    *says* will panic or run away must appear in quarantine with exactly
//!    that outcome; every clean one must not.
//! 3. **The sandbox holds.** Zero containment violations anywhere.
//!
//! `campaign_gate` is the library entry; the `campaign_gate` binary wires
//! it to `--check` for scripts/verify.sh and CI.

use std::path::PathBuf;

use px_campaign::runner::chaos_truth;
use px_campaign::{run, CampaignConfig, CaseOutcome, Manifest};
use px_util::{hex64, Json, ToJson};

/// The gate manifest: 400 chaos + 64 fault + 2×24 zoo = 512 cases.
pub const GATE_MANIFEST: &str = "chaos:11:400+fault:1:64+zoo:parser:3*8+zoo:recursive:4*8";

/// The aggregate digest [`GATE_MANIFEST`] folds to. `campaign_gate --check`
/// on the default manifest fails when a run drifts from it and prints
/// old → new; only an intended architectural change may move it, and
/// CHANGES.md then records both values.
pub const GATE_DIGEST: u64 = 0x87b6_9969_cb2d_4f09;

/// Gate watchdog: above the fault cases' 60k native budget (so they keep
/// their historical behaviour) and cheap enough that 100 runaway chaos
/// cases cost ~10M simulated instructions.
pub const GATE_TIMEOUT: u64 = 100_000;

/// Where the campaign is killed on the crash leg (past several checkpoint
/// boundaries, mid-manifest).
pub const GATE_KILL_AFTER: u64 = 257;

/// What E16 measured.
#[derive(Debug, Clone)]
pub struct CampaignGateReport {
    /// The manifest exercised.
    pub manifest: String,
    /// Total cases.
    pub total: u64,
    /// Aggregate digest of the uninterrupted run.
    pub digest_straight: u64,
    /// Aggregate digest after kill + resume.
    pub digest_resumed: u64,
    /// Cases recovered from the journal on resume.
    pub resumed_from_journal: u64,
    /// Cases the resume leg ran itself.
    pub resumed_ran: u64,
    /// Quarantined cases (kill+resume leg).
    pub quarantined: u64,
    /// Chaos cases whose outcome disagreed with [`chaos_truth`].
    pub chaos_mismatches: u64,
    /// Containment violations anywhere.
    pub violated: u64,
    /// Whether the killed journal really had a torn tail to recover from.
    pub torn_tail_seen: bool,
}

impl CampaignGateReport {
    /// The acceptance criteria, as one predicate.
    #[must_use]
    pub fn passed(&self) -> bool {
        self.digest_straight == self.digest_resumed
            && self.resumed_from_journal + self.resumed_ran == self.total
            && self.chaos_mismatches == 0
            && self.violated == 0
    }

    /// The report as canonical JSON.
    #[must_use]
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("schema", "px-bench/campaign-gate-v2".to_json()),
            ("manifest", self.manifest.to_json()),
            ("total", self.total.to_json()),
            ("digest_straight", Json::Str(hex64(self.digest_straight))),
            ("digest_resumed", Json::Str(hex64(self.digest_resumed))),
            ("resumed_from_journal", self.resumed_from_journal.to_json()),
            ("resumed_ran", self.resumed_ran.to_json()),
            ("quarantined", self.quarantined.to_json()),
            ("chaos_mismatches", self.chaos_mismatches.to_json()),
            ("violated", self.violated.to_json()),
            ("torn_tail_seen", self.torn_tail_seen.to_json()),
            ("passed", self.passed().to_json()),
        ])
    }
}

fn gate_config(manifest: &Manifest, journal: PathBuf) -> CampaignConfig {
    let mut cfg = CampaignConfig::new(manifest.clone(), journal);
    cfg.timeout = GATE_TIMEOUT;
    cfg.workers = 4;
    cfg.checkpoint_every = 64;
    cfg
}

/// Runs the E16 gate on `manifest_spec` with a kill at `kill_after`.
/// Journals live under the system temp directory, namespaced by pid, and
/// are removed on success.
///
/// # Panics
///
/// On journal I/O or corruption errors (the gate is a test harness; its
/// own failures should be loud).
#[must_use]
pub fn campaign_gate_with(manifest_spec: &str, kill_after: u64) -> CampaignGateReport {
    let manifest = Manifest::parse(manifest_spec).unwrap_or_else(|e| panic!("gate manifest: {e}"));
    let total = manifest.total();
    let tmp = std::env::temp_dir();
    let pid = std::process::id();
    let straight_path = tmp.join(format!("px-gate-{pid}-straight.ndjson"));
    let crash_path = tmp.join(format!("px-gate-{pid}-crash.ndjson"));
    for p in [&straight_path, &crash_path] {
        let _ = std::fs::remove_file(p);
        let mut q = p.as_os_str().to_owned();
        q.push(".quarantine");
        let _ = std::fs::remove_file(PathBuf::from(q));
    }

    // Leg 1: straight through.
    let straight = run(&gate_config(&manifest, straight_path.clone()))
        .unwrap_or_else(|e| panic!("straight leg: {e}"));
    assert!(straight.complete(), "straight leg must finish");

    // Leg 2: kill mid-flight (torn tail), then resume.
    let mut crash_cfg = gate_config(&manifest, crash_path.clone());
    crash_cfg.kill_after = Some(kill_after);
    let killed = run(&crash_cfg).unwrap_or_else(|e| panic!("kill leg: {e}"));
    assert!(killed.interrupted, "the kill leg must stop early");
    let torn_tail_seen = px_campaign::journal::load(&crash_path)
        .map(|s| s.torn)
        .unwrap_or(false);
    crash_cfg.kill_after = None;
    let resumed = run(&crash_cfg).unwrap_or_else(|e| panic!("resume leg: {e}"));

    // Quarantine vs chaos ground truth (chaos ids lead the manifest).
    let (chaos_seed, chaos_n) = match manifest.gens.first() {
        Some(px_campaign::CaseGen::Chaos { seed, n }) => (*seed, *n),
        _ => panic!("gate manifests start with a chaos generator"),
    };
    let truth = chaos_truth(chaos_seed, chaos_n);
    let mut chaos_mismatches = 0u64;
    for (local, want) in truth.iter().enumerate() {
        let got = resumed
            .quarantined
            .iter()
            .find(|r| r.id == local as u64)
            .map(|r| r.outcome)
            .unwrap_or(CaseOutcome::Done);
        if got != *want {
            chaos_mismatches += 1;
        }
    }

    let report = CampaignGateReport {
        manifest: manifest.to_string(),
        total,
        digest_straight: straight.digest(),
        digest_resumed: resumed.digest(),
        resumed_from_journal: resumed.resumed,
        resumed_ran: resumed.ran,
        quarantined: resumed.quarantined.len() as u64,
        chaos_mismatches,
        violated: resumed.aggregate.of(CaseOutcome::Violated)
            + straight.aggregate.of(CaseOutcome::Violated),
        torn_tail_seen,
    };
    if report.passed() {
        for p in [&straight_path, &crash_path] {
            let _ = std::fs::remove_file(p);
            let mut q = p.as_os_str().to_owned();
            q.push(".quarantine");
            let _ = std::fs::remove_file(PathBuf::from(q));
        }
    }
    report
}

/// The standard E16 gate: [`GATE_MANIFEST`] killed at [`GATE_KILL_AFTER`].
#[must_use]
pub fn campaign_gate() -> CampaignGateReport {
    campaign_gate_with(GATE_MANIFEST, GATE_KILL_AFTER)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reduced_gate_passes() {
        // A miniature of the CI gate, sized for the test suite.
        let report = campaign_gate_with("chaos:11:48+fault:1:8", 17);
        assert!(report.passed(), "gate failed: {}", report.to_json().dump());
        assert!(report.quarantined > 0, "chaos must quarantine something");
        assert_eq!(report.resumed_from_journal + report.resumed_ran, 56);
    }
}
