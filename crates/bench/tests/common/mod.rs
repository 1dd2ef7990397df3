//! Shared helper for the fault-campaign integration tests.

use px_campaign::{run, Aggregate, CampaignConfig, CaseRecord, Manifest};

/// Runs `manifest` to completion through the campaign driver under the
/// default watchdog, in a journal under the temp directory that is removed
/// again afterwards. `name` keeps concurrent tests' journals apart.
///
/// # Panics
///
/// On a journal error or an incomplete campaign.
pub fn campaign(manifest: &str, name: &str) -> (Aggregate, Vec<CaseRecord>) {
    let journal =
        std::env::temp_dir().join(format!("px-bench-{}-{name}.ndjson", std::process::id()));
    let mut cfg = CampaignConfig::new(Manifest::parse(manifest).unwrap(), journal);
    cfg.resume = false;
    let report = run(&cfg);
    let _ = std::fs::remove_file(&cfg.journal);
    let _ = std::fs::remove_file(cfg.quarantine_path());
    let report = report.unwrap_or_else(|e| panic!("{manifest}: {e}"));
    assert!(report.complete(), "{manifest} ran to completion");
    (report.aggregate, report.quarantined)
}
