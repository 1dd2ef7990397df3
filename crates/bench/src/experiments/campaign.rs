//! **E16/E17 — the campaign gate** (robustness and metric integrity; not
//! from the paper).
//!
//! One harness proves, at campaign scale, that the crash-safe campaign
//! runner loses nothing and that the prime-path coverage metric survives
//! its machinery. It runs both pinned manifests ([`GATE_PINS`]):
//!
//! - **E16**: 400 `chaos` cases (deliberately panicking, runaway and clean)
//!   mixed with real fault-injection and zoo cases, 512 in all.
//! - **E17**: `zoo-roster:quick`, every quick-roster family, whose records
//!   carry per-case prime-path shards.
//!
//! Every manifest runs the same legs:
//!
//! 1. straight through on 1 worker;
//! 2. on 4 workers, killed after ⌊n/2⌋+1 journal appends (a simulated
//!    SIGKILL: journal writes stop dead, leaving a torn tail), then resumed
//!    on 4 workers;
//! 3. the straight journal re-folded forward and in reverse.
//!
//! and must pass the same checks: the straight, resumed and re-folded
//! aggregate digests are byte-identical (and equal the pin), the resume
//! accounts for every case exactly once, the killed journal really had a
//! torn tail, no case was `Violated`, both quarantines equal the chaos
//! generators' ground truth ([`chaos_truth`]) exactly, and a manifest with
//! zoo cases merges nonzero prime-path shards.
//!
//! Once per gate, every zoo roster family's [`px_analyze::PrimePathSet`] is
//! enumerated twice: the JSON renderings must be byte-identical and the
//! sweep must finish within [`ENUM_BUDGET_MS`].
//!
//! [`campaign_gate`] is the library entry; the `campaign_gate` binary wires
//! it to `--check` for scripts/verify.sh and CI.

use std::collections::{BTreeMap, BTreeSet};
use std::time::Instant;

use px_analyze::Analysis;
use px_campaign::runner::chaos_truth;
use px_campaign::{
    journal, run, Aggregate, CampaignConfig, CaseGen, CaseOutcome, CaseRecord, Manifest, Watchdog,
};
use px_detect::Tool;
use px_util::{fnv1a64, hex64, Json, ToJson};
use px_workloads::zoo;

/// A gate manifest with the watchdog timeout it runs under (it enters the
/// zoo records through the clamp of `ZOO_BUDGET`) and the aggregate digest
/// it folds to.
#[derive(Debug, Clone, Copy)]
pub struct Pin {
    /// The manifest spec.
    pub manifest: &'static str,
    /// Per-case watchdog timeout, in instructions.
    pub timeout: u64,
    /// The pinned aggregate digest.
    pub digest: u64,
}

/// The pinned manifests, E16 then E17. `campaign_gate --check` fails when a
/// run drifts from a pin and prints old → new; only an intended change may
/// move one, and CHANGES.md then records both values. ROADMAP item 1
/// (prime paths over per-function graphs) moves E17's once, on purpose.
pub const GATE_PINS: [Pin; 2] = [
    // 400 chaos + 64 fault + 2×24 zoo = 512 cases. The timeout is above
    // the fault cases' 60k native budget (so they keep their historical
    // behaviour) and cheap enough that 100 runaway chaos cases cost ~10M
    // simulated instructions.
    Pin {
        manifest: "chaos:11:400+fault:1:64+zoo:parser:3*8+zoo:recursive:4*8",
        timeout: 100_000,
        digest: 0x87b6_9969_cb2d_4f09,
    },
    Pin {
        manifest: "zoo-roster:quick",
        timeout: Watchdog::DEFAULT_TIMEOUT,
        digest: 0x82e8_4b6c_5307_29ac,
    },
];

/// Hard wall-time budget for enumerating the whole roster **twice**, in
/// milliseconds. `PathLimits` caps per-program work, so the sweep cost is
/// linear in roster size; this bound is generous for release builds and is
/// the gate's defence against an accidentally exponential enumerator.
pub const ENUM_BUDGET_MS: u64 = 5_000;

/// What one manifest's legs measured.
#[derive(Debug, Clone)]
pub struct ManifestReport {
    /// The manifest exercised.
    pub manifest: String,
    /// Per-case watchdog timeout.
    pub timeout: u64,
    /// Total cases.
    pub total: u64,
    /// Journal appends after which the crash leg was killed.
    pub kill_after: u64,
    /// Aggregate digest of the 1-worker straight run.
    pub digest_straight: u64,
    /// Aggregate digest after the 4-worker kill and resume.
    pub digest_resumed: u64,
    /// Re-folding the straight journal forward and in reverse reproduced
    /// `digest_straight`.
    pub refolds_agree: bool,
    /// Cases recovered from the journal on resume.
    pub resumed_from_journal: u64,
    /// Cases the resume leg ran itself.
    pub resumed_ran: u64,
    /// The killed journal really had a torn tail to recover from.
    pub torn_tail_seen: bool,
    /// `Violated` outcomes over both runs.
    pub violated: u64,
    /// Quarantined cases after the resume.
    pub quarantined: u64,
    /// Case ids whose quarantine entry disagreed with the chaos ground
    /// truth, summed over both runs.
    pub quarantine_mismatches: u64,
    /// The manifest has zoo cases, so its aggregate must carry prime shards.
    pub zoo: bool,
    /// Distinct program keys carrying merged prime-path shards.
    pub prime_keys: u64,
    /// Prime paths covered, summed over merged shards.
    pub prime_covered: u64,
}

impl ManifestReport {
    /// The per-manifest acceptance criteria, as one predicate (the pin is
    /// checked by [`CampaignGateReport::passed`]).
    #[must_use]
    pub fn passed(&self) -> bool {
        self.digest_straight == self.digest_resumed
            && self.refolds_agree
            && self.resumed_from_journal + self.resumed_ran == self.total
            && self.torn_tail_seen
            && self.violated == 0
            && self.quarantine_mismatches == 0
            && (!self.zoo || (self.prime_keys > 0 && self.prime_covered > 0))
    }

    /// The report as canonical JSON.
    #[must_use]
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("manifest", self.manifest.to_json()),
            ("timeout", self.timeout.to_json()),
            ("total", self.total.to_json()),
            ("kill_after", self.kill_after.to_json()),
            ("digest_straight", Json::Str(hex64(self.digest_straight))),
            ("digest_resumed", Json::Str(hex64(self.digest_resumed))),
            ("refolds_agree", self.refolds_agree.to_json()),
            ("resumed_from_journal", self.resumed_from_journal.to_json()),
            ("resumed_ran", self.resumed_ran.to_json()),
            ("torn_tail_seen", self.torn_tail_seen.to_json()),
            ("violated", self.violated.to_json()),
            ("quarantined", self.quarantined.to_json()),
            (
                "quarantine_mismatches",
                self.quarantine_mismatches.to_json(),
            ),
            ("prime_keys", self.prime_keys.to_json()),
            ("prime_covered", self.prime_covered.to_json()),
            ("passed", self.passed().to_json()),
        ])
    }
}

/// What the whole gate measured.
#[derive(Debug, Clone)]
pub struct CampaignGateReport {
    /// Roster families enumerated.
    pub families: u64,
    /// Wall time of the double enumeration sweep, in milliseconds.
    pub enum_ms: u64,
    /// Both enumeration sweeps rendered byte-identical JSON per family.
    pub enum_deterministic: bool,
    /// Families whose enumeration hit a cap (informational).
    pub truncated_families: u64,
    /// One report per [`GATE_PINS`] entry, in order.
    pub manifests: Vec<ManifestReport>,
}

impl CampaignGateReport {
    /// The manifests whose digest moved off its pin, with the pinned value.
    pub fn drifts(&self) -> impl Iterator<Item = (&ManifestReport, u64)> {
        self.manifests
            .iter()
            .zip(GATE_PINS)
            .filter(|(m, pin)| m.digest_straight != pin.digest)
            .map(|(m, pin)| (m, pin.digest))
    }

    /// The acceptance criteria, as one predicate.
    #[must_use]
    pub fn passed(&self) -> bool {
        self.enum_deterministic
            && self.enum_ms <= ENUM_BUDGET_MS
            && self.manifests.iter().all(ManifestReport::passed)
            && self.drifts().next().is_none()
    }

    /// The report as canonical JSON.
    #[must_use]
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("schema", "px-bench/campaign-gate-v3".to_json()),
            ("families", self.families.to_json()),
            ("enum_ms", self.enum_ms.to_json()),
            ("enum_budget_ms", ENUM_BUDGET_MS.to_json()),
            ("enum_deterministic", self.enum_deterministic.to_json()),
            ("truncated_families", self.truncated_families.to_json()),
            (
                "manifests",
                Json::Arr(self.manifests.iter().map(ManifestReport::to_json).collect()),
            ),
            ("passed", self.passed().to_json()),
        ])
    }
}

/// One enumeration sweep over the roster: per-family `PrimePathSet` JSON
/// (the determinism witness) plus the truncation count.
fn enumerate_roster() -> (Vec<String>, u64) {
    let mut renders = Vec::new();
    let mut truncated = 0u64;
    for spec in zoo::roster() {
        let w = zoo::generate(&spec);
        let compiled = w
            .compile_for(Tool::ALL[0])
            .unwrap_or_else(|e| panic!("{spec}: {e}"));
        let set = Analysis::of(&compiled.program).prime_paths(&compiled.program);
        truncated += u64::from(set.truncated());
        renders.push(set.to_json().dump());
    }
    (renders, truncated)
}

/// The quarantine `manifest` must produce: every quarantining case of its
/// chaos generators, by global id.
fn expected_quarantine(manifest: &Manifest) -> BTreeMap<u64, CaseOutcome> {
    let mut want = BTreeMap::new();
    let mut base = 0;
    for gen in &manifest.gens {
        if let CaseGen::Chaos { seed, n } = *gen {
            for (local, outcome) in (0..).zip(chaos_truth(seed, n)) {
                if outcome.quarantines() {
                    want.insert(base + local, outcome);
                }
            }
        }
        base += gen.count();
    }
    want
}

/// Case ids on which the quarantine `got` and the ground truth `want`
/// disagree.
fn quarantine_mismatches(want: &BTreeMap<u64, CaseOutcome>, got: &[CaseRecord]) -> u64 {
    let got: BTreeMap<u64, CaseOutcome> = got.iter().map(|r| (r.id, r.outcome)).collect();
    let ids: BTreeSet<&u64> = want.keys().chain(got.keys()).collect();
    ids.into_iter()
        .filter(|id| want.get(id) != got.get(id))
        .count() as u64
}

/// The aggregate digest of `records` folded in the given order.
fn refold<'a>(records: impl Iterator<Item = &'a CaseRecord>) -> u64 {
    let mut aggregate = Aggregate::default();
    for r in records {
        aggregate
            .absorb(r)
            .unwrap_or_else(|e| panic!("re-fold: {e}"));
    }
    aggregate.digest()
}

fn remove_journals(cfgs: [&CampaignConfig; 2]) {
    for cfg in cfgs {
        let _ = std::fs::remove_file(&cfg.journal);
        let _ = std::fs::remove_file(cfg.quarantine_path());
    }
}

/// Runs the three legs on `spec` under `timeout`. Journals live under the
/// system temp directory, namespaced by pid and manifest, and are removed
/// on success.
///
/// # Panics
///
/// On manifest, campaign or journal errors (the gate is a test harness;
/// its own failures should be loud).
#[must_use]
pub fn run_manifest(spec: &str, timeout: u64) -> ManifestReport {
    let manifest = Manifest::parse(spec).unwrap_or_else(|e| panic!("gate manifest: {e}"));
    let total = manifest.total();
    let kill_after = total / 2 + 1;
    let stem = format!(
        "px-gate-{}-{:016x}",
        std::process::id(),
        fnv1a64(0, spec.as_bytes())
    );
    let config = |leg: &str, workers: usize| {
        let path = std::env::temp_dir().join(format!("{stem}-{leg}.ndjson"));
        let mut cfg = CampaignConfig::new(manifest.clone(), path);
        cfg.timeout = timeout;
        cfg.workers = workers;
        cfg
    };
    let straight_cfg = config("straight", 1);
    let mut crash_cfg = config("crash", 4);
    remove_journals([&straight_cfg, &crash_cfg]);

    // Leg 1: straight through on one worker.
    let straight = run(&straight_cfg).unwrap_or_else(|e| panic!("straight leg: {e}"));
    assert!(straight.complete(), "straight leg must finish");

    // Leg 2: kill mid-flight (torn tail), then resume.
    crash_cfg.kill_after = Some(kill_after);
    let killed = run(&crash_cfg).unwrap_or_else(|e| panic!("kill leg: {e}"));
    assert!(killed.interrupted, "the kill leg must stop early");
    let torn_tail_seen = journal::load(&crash_cfg.journal).is_ok_and(|s| s.torn);
    crash_cfg.kill_after = None;
    let resumed = run(&crash_cfg).unwrap_or_else(|e| panic!("resume leg: {e}"));

    // Leg 3: re-fold the straight journal forward and in reverse.
    let records = journal::load(&straight_cfg.journal)
        .unwrap_or_else(|e| panic!("straight journal: {e}"))
        .records;
    let digest_straight = straight.digest();
    let refolds_agree = refold(records.iter()) == digest_straight
        && refold(records.iter().rev()) == digest_straight;

    let want = expected_quarantine(&manifest);
    let report = ManifestReport {
        manifest: manifest.to_string(),
        timeout,
        total,
        kill_after,
        digest_straight,
        digest_resumed: resumed.digest(),
        refolds_agree,
        resumed_from_journal: resumed.resumed,
        resumed_ran: resumed.ran,
        torn_tail_seen,
        violated: straight.aggregate.of(CaseOutcome::Violated)
            + resumed.aggregate.of(CaseOutcome::Violated),
        quarantined: resumed.quarantined.len() as u64,
        quarantine_mismatches: quarantine_mismatches(&want, &straight.quarantined)
            + quarantine_mismatches(&want, &resumed.quarantined),
        zoo: manifest
            .gens
            .iter()
            .any(|g| matches!(g, CaseGen::Zoo { .. } | CaseGen::ZooRoster { .. })),
        prime_keys: straight.aggregate.prime.len() as u64,
        prime_covered: straight
            .aggregate
            .prime
            .values()
            .map(|c| u64::from(c.covered_count()))
            .sum(),
    };
    if report.passed() {
        remove_journals([&straight_cfg, &crash_cfg]);
    }
    report
}

/// The whole gate: the roster enumeration sweep, then every [`GATE_PINS`]
/// manifest through [`run_manifest`].
#[must_use]
pub fn campaign_gate() -> CampaignGateReport {
    let t0 = Instant::now();
    let (first, truncated_families) = enumerate_roster();
    let (second, _) = enumerate_roster();
    let enum_ms = u64::try_from(t0.elapsed().as_millis()).unwrap_or(u64::MAX);
    CampaignGateReport {
        families: first.len() as u64,
        enum_ms,
        enum_deterministic: first == second,
        truncated_families,
        manifests: GATE_PINS
            .iter()
            .map(|pin| run_manifest(pin.manifest, pin.timeout))
            .collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // The gate's legs at test scale, one reduced manifest per pin.

    #[test]
    fn reduced_chaos_gate_passes() {
        let report = run_manifest("chaos:11:48+fault:1:8", GATE_PINS[0].timeout);
        assert!(report.passed(), "gate failed: {}", report.to_json().dump());
        assert!(report.quarantined > 0, "chaos must quarantine something");
        assert_eq!(report.resumed_from_journal + report.resumed_ran, 56);
    }

    #[test]
    fn reduced_zoo_gate_passes() {
        let report = run_manifest(
            "zoo:parser:3*2+zoo:recursive:4*2",
            Watchdog::DEFAULT_TIMEOUT,
        );
        assert!(report.passed(), "gate failed: {}", report.to_json().dump());
        assert!(report.prime_keys >= 2, "both families carry shards");
        assert_eq!(report.quarantined, 0);
        // The gate's enumeration sweep, without its release-build budget.
        assert_eq!(enumerate_roster(), enumerate_roster());
    }
}
