//! `pxc campaign` — the crash-safe campaign runner as a CLI verb.
//!
//! Drives [`px_campaign`] over a deterministic case manifest: pooled
//! workers, per-case instruction watchdogs, panic quarantine, an
//! append-only NDJSON journal with checkpoints, and SIGINT drain. A killed
//! or interrupted campaign resumes from its journal with a byte-identical
//! aggregate digest.
//!
//! `--only <id>` replays a single case inline with the same containment —
//! the exact command the quarantine file emits next to each entry.

use std::path::PathBuf;
use std::process::ExitCode;

use px_campaign::{
    run_only, run_with_shutdown, CampaignConfig, CampaignReport, CaseOutcome, Manifest,
};

use crate::options::CampaignOpts;

/// Runs `pxc campaign`.
///
/// # Errors
///
/// Reports bad manifest specs, journal I/O failures, journal corruption,
/// and journals belonging to a different campaign.
pub fn campaign(o: &CampaignOpts) -> Result<ExitCode, String> {
    let manifest = Manifest::parse(&o.cases).map_err(|e| format!("--cases: {e}"))?;
    if let Some(id) = o.only {
        return replay(&manifest, o, id);
    }

    let mut cfg = CampaignConfig::new(manifest, PathBuf::from(&o.journal));
    cfg.timeout = o.timeout;
    cfg.workers = o.workers;
    cfg.max_quarantine = o.max_quarantine;
    cfg.resume = !o.no_resume;
    let shutdown = px_campaign::signal::install();
    let report = run_with_shutdown(&cfg, shutdown).map_err(|e| e.to_string())?;

    if o.json {
        println!("{}", report.to_json().dump());
    } else {
        print_human(&cfg, &report, o);
    }
    Ok(if report.complete() && !report.quarantine_limit_hit {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// `--only <id>`: one case, inline, no journal. Exits non-zero unless the
/// case completed cleanly, so replays of quarantined cases "fail" visibly.
fn replay(manifest: &Manifest, o: &CampaignOpts, id: u64) -> Result<ExitCode, String> {
    let total = manifest.total();
    if id >= total {
        return Err(format!(
            "--only {id} is out of range: manifest `{manifest}` has {total} case(s)"
        ));
    }
    let rec = run_only(manifest, o.timeout, id);
    if o.json {
        println!("{}", rec.to_line());
    } else {
        println!("case {}  ({})", rec.id, rec.case);
        println!("  outcome: {}  exit: {}", rec.outcome.name(), rec.exit);
        if !rec.detail.is_empty() {
            println!("  detail:  {}", rec.detail);
        }
    }
    Ok(if rec.outcome == CaseOutcome::Done {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn print_human(cfg: &CampaignConfig, r: &CampaignReport, o: &CampaignOpts) {
    let state = if r.complete() {
        "complete"
    } else if r.quarantine_limit_hit {
        "ABORTED (quarantine limit)"
    } else if r.interrupted {
        "interrupted (journal is resumable)"
    } else {
        "incomplete"
    };
    println!("campaign `{}`: {}", r.manifest, state);
    println!(
        "  cases:      {}/{} journaled ({} resumed, {} run now)",
        r.aggregate.total, r.total, r.resumed, r.ran
    );
    let [done, panicked, timed_out, violated] = r.aggregate.outcomes;
    println!(
        "  outcomes:   {done} done, {panicked} panicked, {timed_out} timed out, \
         {violated} violated"
    );
    println!(
        "  aggregate:  {} faults, {} NT-paths, {} detections, {} edges covered, \
         digest {:016x}",
        r.aggregate.faults,
        r.aggregate.nt_paths,
        r.aggregate.detections,
        r.aggregate.covered_edges,
        r.digest()
    );
    println!("  journal:    {}", cfg.journal.display());
    if r.quarantined.is_empty() {
        println!("  quarantine: empty");
    } else {
        println!(
            "  quarantine: {} case(s) -> {}",
            r.quarantined.len(),
            cfg.quarantine_path().display()
        );
        for rec in &r.quarantined {
            println!(
                "    #{} {} [{}] replay: pxc campaign --cases {} --timeout {} --only {}",
                rec.id,
                rec.case,
                rec.outcome.name(),
                r.manifest,
                o.timeout,
                rec.id
            );
        }
    }
}
