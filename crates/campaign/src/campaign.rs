//! The campaign driver: pooled execution + journal + quarantine.
//!
//! [`run`] hands the manifest's pending cases (everything minus what a
//! resumed journal already holds) to [`px_util::run_pool`]'s workers one
//! at a time, runs every case through [`run_only`]'s `catch_unwind` so
//! panicking and runaway cases become quarantine records instead of a dead
//! campaign, streams each finished [`CaseRecord`] through the bounded
//! result channel onto the caller's thread — the only thread that touches
//! the journal — and folds them into the commutative [`Aggregate`]. Every
//! `checkpoint_every` records it appends an fsynced checkpoint; a SIGINT
//! (or any trip of the shutdown flag) drains in-flight cases, writes a
//! final checkpoint and exits resumable.
//!
//! Crash recovery is tested in-process: `kill_after` simulates a SIGKILL by
//! ceasing all journal writes mid-run (leaving a deliberately torn tail),
//! and the resume path must then reproduce an uninterrupted run's aggregate
//! digest byte-for-byte.

use std::cell::Cell;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Once;

use px_util::{hex64, Json, ToJson};

use crate::journal::{self, Journal, JournalMeta};
use crate::manifest::Manifest;
use crate::outcome::{Aggregate, CaseRecord};
use crate::runner;
use crate::watchdog::Watchdog;
use crate::CampaignError;

/// Everything a campaign invocation needs.
#[derive(Debug, Clone)]
pub struct CampaignConfig {
    /// The case space.
    pub manifest: Manifest,
    /// Journal path (created, or resumed when it exists).
    pub journal: PathBuf,
    /// Worker threads (0 = one per available core).
    pub workers: usize,
    /// Per-case watchdog timeout, in instructions.
    pub timeout: u64,
    /// Checkpoint cadence, in case records.
    pub checkpoint_every: u64,
    /// Stop once more than this many cases are quarantined.
    pub max_quarantine: Option<u64>,
    /// Resume from an existing journal instead of failing on one.
    pub resume: bool,
    /// Crash simulation: cease journal writes after this many appends this
    /// invocation (tearing the next record), as if the process were killed.
    pub kill_after: Option<u64>,
}

impl CampaignConfig {
    /// A config with defaults for everything but the manifest and journal.
    #[must_use]
    pub fn new(manifest: Manifest, journal: PathBuf) -> CampaignConfig {
        CampaignConfig {
            manifest,
            journal,
            workers: 0,
            timeout: Watchdog::DEFAULT_TIMEOUT,
            checkpoint_every: 64,
            max_quarantine: None,
            resume: true,
            kill_after: None,
        }
    }

    /// The quarantine NDJSON path: `<journal>.quarantine`.
    #[must_use]
    pub fn quarantine_path(&self) -> PathBuf {
        let mut s = self.journal.as_os_str().to_owned();
        s.push(".quarantine");
        PathBuf::from(s)
    }
}

/// What one invocation of [`run`] did.
#[derive(Debug)]
pub struct CampaignReport {
    /// Canonical manifest spec.
    pub manifest: String,
    /// Total cases in the manifest.
    pub total: u64,
    /// Cases recovered from the resumed journal.
    pub resumed: u64,
    /// Cases run by this invocation.
    pub ran: u64,
    /// Always 0: the pool no longer steals work. Kept only because
    /// perfbench's zoo-campaign trace still reads it.
    pub steals: u64,
    /// The run stopped early (SIGINT, `kill_after`, or quarantine limit).
    pub interrupted: bool,
    /// The quarantine limit specifically tripped.
    pub quarantine_limit_hit: bool,
    /// The commutative fold over *all* journal records (resumed + new).
    pub aggregate: Aggregate,
    /// Every quarantined record (resumed + new), in case-id order.
    pub quarantined: Vec<CaseRecord>,
}

impl CampaignReport {
    /// Whether every manifest case is in the journal.
    #[must_use]
    pub fn complete(&self) -> bool {
        self.aggregate.total == self.total
    }

    /// The aggregate digest (see [`Aggregate::digest`]).
    #[must_use]
    pub fn digest(&self) -> u64 {
        self.aggregate.digest()
    }

    /// The report as canonical JSON.
    #[must_use]
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("schema", "px-campaign/report-v2".to_json()),
            ("manifest", self.manifest.to_json()),
            ("total", self.total.to_json()),
            ("resumed", self.resumed.to_json()),
            ("ran", self.ran.to_json()),
            ("interrupted", self.interrupted.to_json()),
            ("quarantine_limit_hit", self.quarantine_limit_hit.to_json()),
            ("complete", self.complete().to_json()),
            ("digest", Json::Str(hex64(self.digest()))),
            ("aggregate", self.aggregate.to_json()),
        ])
    }
}

thread_local! {
    static QUIET: Cell<bool> = const { Cell::new(false) };
}

/// Runs `f` with the process panic hook silenced on this thread — expected
/// chaos-case panics should not spray backtraces over campaign output. The
/// hook chains to the previous one for every *other* thread, so genuine
/// bugs elsewhere still report normally.
pub fn quiet_panics<R>(f: impl FnOnce() -> R) -> R {
    static HOOK: Once = Once::new();
    HOOK.call_once(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if !QUIET.with(Cell::get) {
                prev(info);
            }
        }));
    });
    QUIET.with(|q| q.set(true));
    let r = f();
    QUIET.with(|q| q.set(false));
    r
}

/// Runs (or resumes) a campaign, stopping early only on an internal
/// trigger (`kill_after`, quarantine limit).
///
/// # Errors
///
/// Journal I/O failures, journal corruption, or a journal belonging to a
/// different campaign.
pub fn run(cfg: &CampaignConfig) -> Result<CampaignReport, CampaignError> {
    run_with_shutdown(cfg, &AtomicBool::new(false))
}

/// [`run`] with an external shutdown flag (SIGINT wiring): when it goes
/// high, in-flight cases drain, a final checkpoint lands, and the journal
/// is left resumable.
///
/// # Errors
///
/// As [`run`].
pub fn run_with_shutdown(
    cfg: &CampaignConfig,
    shutdown: &AtomicBool,
) -> Result<CampaignReport, CampaignError> {
    let total = cfg.manifest.total();
    let meta = JournalMeta {
        manifest: cfg.manifest.to_string(),
        timeout: cfg.timeout,
        total,
    };

    // Open the journal: resume when the file exists and belongs to this
    // campaign, create otherwise.
    let (mut journal, mut aggregate, mut records, done) = if cfg.resume && cfg.journal.exists() {
        let state = journal::load(&cfg.journal)?;
        if state.meta != meta {
            return Err(CampaignError::Mismatch(format!(
                "journal {} belongs to campaign `{}` (timeout {}), not `{}` (timeout {})",
                cfg.journal.display(),
                state.meta.manifest,
                state.meta.timeout,
                meta.manifest,
                meta.timeout,
            )));
        }
        let j = Journal::resume(&cfg.journal, state.valid_len)?;
        (j, state.aggregate, state.records, state.done)
    } else {
        let j = Journal::create(&cfg.journal, &meta)?;
        (
            j,
            Aggregate::default(),
            Vec::new(),
            std::collections::BTreeSet::new(),
        )
    };
    let resumed = records.len() as u64;

    let pending: Vec<u64> = (0..total).filter(|id| !done.contains(id)).collect();
    let stop = AtomicBool::new(false);
    let mut quarantine_count = records.iter().filter(|r| r.outcome.quarantines()).count() as u64;
    // The workers raise `stop` themselves, on the shutdown flag and past the
    // quarantine limit, so a drain does not wait for the sink's thread to be
    // scheduled: a drained run finishes at most one case per worker. The
    // sink still decides what the report says.
    let quarantined = AtomicU64::new(quarantine_count);
    let work = |i: usize| {
        if shutdown.load(Ordering::SeqCst) {
            stop.store(true, Ordering::SeqCst);
        }
        let rec = run_only(&cfg.manifest, cfg.timeout, pending[i]);
        if rec.outcome.quarantines() {
            let count = quarantined.fetch_add(1, Ordering::SeqCst) + 1;
            if cfg.max_quarantine.is_some_and(|limit| count > limit) {
                stop.store(true, Ordering::SeqCst);
            }
        }
        rec
    };

    let mut ran = 0u64;
    let mut since_ckpt = 0u64;
    let mut killed = false;
    let mut torn_written = false;
    let mut quarantine_limit_hit = false;
    let mut sink_err: Option<CampaignError> = None;
    let pool_run = px_util::run_pool(pending.len(), cfg.workers, &stop, work, |_, rec| {
        if sink_err.is_some() {
            return;
        }
        if shutdown.load(Ordering::SeqCst) {
            stop.store(true, Ordering::SeqCst);
        }
        if killed {
            // Simulated SIGKILL: the first in-flight record lands torn,
            // everything after is lost — exactly what a dead process leaves.
            if !torn_written {
                torn_written = true;
                let _ = journal.tear(&rec);
            }
            return;
        }
        let step = (|| -> Result<(), CampaignError> {
            journal.case(&rec)?;
            aggregate.absorb(&rec)?;
            if rec.outcome.quarantines() {
                quarantine_count += 1;
            }
            records.push(rec);
            ran += 1;
            since_ckpt += 1;
            if since_ckpt >= cfg.checkpoint_every {
                journal.ckpt(aggregate.total, &aggregate)?;
                since_ckpt = 0;
            }
            Ok(())
        })();
        if let Err(e) = step {
            sink_err = Some(e);
            stop.store(true, Ordering::SeqCst);
            return;
        }
        if cfg.kill_after.is_some_and(|k| ran >= k) {
            killed = true;
            stop.store(true, Ordering::SeqCst);
        }
        if cfg
            .max_quarantine
            .is_some_and(|limit| quarantine_count > limit)
        {
            quarantine_limit_hit = true;
            stop.store(true, Ordering::SeqCst);
        }
    });
    if let Some(e) = sink_err {
        return Err(e);
    }

    let interrupted = pool_run.stopped || killed || quarantine_limit_hit;
    if !killed {
        // Graceful paths (completion, SIGINT drain, quarantine abort) land
        // a final checkpoint and the quarantine file; the simulated-kill
        // path must leave neither — that is the crash being simulated.
        if since_ckpt > 0 || ran == 0 {
            journal.ckpt(aggregate.total, &aggregate)?;
        }
        write_quarantine(cfg, &records)?;
    }

    records.sort_by_key(|r| r.id);
    let quarantined = records
        .iter()
        .filter(|r| r.outcome.quarantines())
        .cloned()
        .collect();
    Ok(CampaignReport {
        manifest: meta.manifest,
        total,
        resumed,
        ran,
        steals: 0,
        interrupted,
        quarantine_limit_hit,
        aggregate,
        quarantined,
    })
}

fn write_quarantine(cfg: &CampaignConfig, records: &[CaseRecord]) -> Result<(), CampaignError> {
    let path = cfg.quarantine_path();
    let mut out = String::new();
    let mut quarantined: Vec<&CaseRecord> =
        records.iter().filter(|r| r.outcome.quarantines()).collect();
    quarantined.sort_by_key(|r| r.id);
    for rec in quarantined {
        out.push_str(
            &Json::obj([
                ("id", rec.id.to_json()),
                ("case", rec.case.to_json()),
                ("outcome", rec.outcome.name().to_json()),
                ("exit", rec.exit.to_json()),
                ("detail", rec.detail.to_json()),
                (
                    "replay",
                    format!(
                        "pxc campaign --cases {} --timeout {} --only {}",
                        cfg.manifest, cfg.timeout, rec.id
                    )
                    .to_json(),
                ),
            ])
            .dump(),
        );
        out.push('\n');
    }
    std::fs::write(&path, out).map_err(|e| CampaignError::Io {
        path,
        err: e.to_string(),
    })
}

/// Runs one case by global id under panic containment: the campaign's
/// per-case wrapper, and the quarantine file's `replay` command.
#[must_use]
pub fn run_only(manifest: &Manifest, timeout: u64, id: u64) -> CaseRecord {
    let wd = Watchdog { timeout };
    quiet_panics(|| {
        catch_unwind(AssertUnwindSafe(|| runner::run_case(manifest, &wd, id))).unwrap_or_else(
            |payload| {
                CaseRecord::panicked(
                    id,
                    manifest.label(id),
                    px_util::panic_message(payload.as_ref()),
                )
            },
        )
    })
}
