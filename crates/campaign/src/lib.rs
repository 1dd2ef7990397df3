//! # px-campaign — the crash-safe campaign runner
//!
//! Everything upstream of this crate computes *one* thing deterministically:
//! a fault case, a zoo run, a throughput point. This crate turns millions of
//! those into a service that survives its own workload (DESIGN.md §11):
//!
//! * **[`manifest`]** — a deterministic, addressable case-id space built
//!   from generators (`fault:…`, `zoo:…`, `zoo-roster`, `chaos:…`), so case
//!   `id` means the same case in every run, shard and resume.
//! * **[`runner`]** — the pure per-case function `(manifest, watchdog, id)
//!   → CaseRecord`, plus the adversarial `chaos` generator with known
//!   ground truth.
//! * **[`watchdog`]** — per-case *instruction* budgets (deterministic, not
//!   wall-clock), distinguishing watchdog trips from native budget exits.
//! * **[`outcome`]** — typed [`CaseOutcome`]s, self-digesting journal
//!   records, and the commutative [`Aggregate`] whose digest is
//!   byte-identical regardless of completion order or kill/resume.
//! * **[`journal`]** — the append-only NDJSON source of truth: meta line,
//!   case records, fsynced checkpoints; torn tails truncated, anything
//!   else corrupt loudly.
//! * **[`campaign`]** — the driver: self-scheduling pool, `catch_unwind`
//!   containment, quarantine file with replay commands, SIGINT drain,
//!   checkpoint cadence, and an in-process crash simulator (`kill_after`)
//!   the resume tests are built on.
//! * **[`fault`]** — experiment E12's per-case fault-injection function;
//!   fault campaigns are `fault:…` manifests run by [`run`] like any other.
//! * **[`signal`]** — a zero-dependency SIGINT binding (first hit drains,
//!   second kills).

pub mod campaign;
pub mod fault;
pub mod journal;
pub mod manifest;
pub mod outcome;
pub mod runner;
pub mod signal;
pub mod watchdog;

pub use campaign::{
    quiet_panics, run, run_only, run_with_shutdown, CampaignConfig, CampaignReport,
};
pub use manifest::{CaseGen, Manifest};
pub use outcome::{Aggregate, CaseOutcome, CaseRecord};
pub use watchdog::Watchdog;

/// Why a campaign could not run (cases failing is *not* an error — that is
/// what quarantine is for; this type is for the service's own failures).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CampaignError {
    /// A journal/quarantine file operation failed.
    Io {
        /// The file involved.
        path: std::path::PathBuf,
        /// The OS error.
        err: String,
    },
    /// The journal is damaged somewhere other than a torn tail.
    Corrupt {
        /// 1-based journal line (or record id, for aggregate-level faults).
        line: u64,
        /// What was wrong.
        why: String,
    },
    /// The journal belongs to a different campaign (manifest or timeout).
    Mismatch(String),
}

impl std::fmt::Display for CampaignError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CampaignError::Io { path, err } => write!(f, "{}: {err}", path.display()),
            CampaignError::Corrupt { line, why } => {
                write!(f, "journal corrupt at line {line}: {why}")
            }
            CampaignError::Mismatch(why) => write!(f, "campaign mismatch: {why}"),
        }
    }
}

impl std::error::Error for CampaignError {}
