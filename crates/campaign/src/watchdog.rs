//! The per-case instruction-budget watchdog.
//!
//! A campaign must outlive runaway cases, and it must stay deterministic —
//! so the watchdog is an *instruction* budget, not a wall-clock timer: the
//! simulated engines are all budget-bounded, and a case that would spin
//! forever instead returns `RunExit::BudgetExhausted` after exactly
//! `timeout` instructions on every machine, every run.
//!
//! The subtlety is telling a watchdog trip apart from a case whose *own*
//! budget ran out: the watchdog [`clamp`](Watchdog::clamp)s the case's
//! native budget, and a budget-class exit counts as
//! [`tripped`](Watchdog::tripped) only when the clamp actually lowered it.
//! A fault-campaign case with a 60 000-instruction native budget under a
//! 2 M watchdog keeps its historical behaviour bit-for-bit.

/// An instruction-budget watchdog: `pxc campaign --timeout` and
/// [`CampaignConfig::timeout`](crate::CampaignConfig::timeout).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Watchdog {
    /// Maximum instructions a single case may retire.
    pub timeout: u64,
}

impl Watchdog {
    /// Default per-case budget: generous for every real workload, small
    /// enough that a runaway case costs milliseconds.
    pub const DEFAULT_TIMEOUT: u64 = 2_000_000;

    /// A watchdog with the default timeout.
    #[must_use]
    pub fn default_budget() -> Watchdog {
        Watchdog {
            timeout: Self::DEFAULT_TIMEOUT,
        }
    }

    /// The instruction budget a case with `native` budget actually gets.
    #[must_use]
    pub fn clamp(&self, native: u64) -> u64 {
        native.min(self.timeout)
    }

    /// Whether a run that ended with `exit_class` under the clamped budget
    /// was stopped by the *watchdog* (as opposed to its own native budget).
    #[must_use]
    pub fn tripped(&self, native: u64, exit_class: &str) -> bool {
        exit_class == "budget" && self.timeout < native
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clamp_only_lowers() {
        let wd = Watchdog { timeout: 100 };
        assert_eq!(wd.clamp(60), 60);
        assert_eq!(wd.clamp(100), 100);
        assert_eq!(wd.clamp(5_000), 100);
    }

    #[test]
    fn tripped_distinguishes_native_budget_exits() {
        let wd = Watchdog { timeout: 100 };
        // Native budget below the watchdog: a budget exit is the case's own.
        assert!(!wd.tripped(60, "budget"));
        // Native budget above: the watchdog cut it short.
        assert!(wd.tripped(5_000, "budget"));
        // Non-budget exits never trip.
        assert!(!wd.tripped(5_000, "exited"));
        assert!(!wd.tripped(5_000, "crashed"));
    }
}
