//! Run statistics and results shared by the standard and CMP engines.

use px_isa::Program;
pub use px_mach::NtStop;
use px_mach::{CoreState, Coverage, IoState, Memory, MonitorArea, PathCoverage, RunExit};

/// One completed NT-path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NtPathRecord {
    /// The branch the path was spawned from.
    pub spawn_pc: u32,
    /// Instructions the path executed before stopping.
    pub executed: u32,
    /// Why it stopped.
    pub stop: NtStop,
}

/// Aggregate statistics of a PathExpander run.
#[derive(Debug, Clone, Default)]
pub struct PxStats {
    /// NT-paths spawned.
    pub spawns: u64,
    /// Spawns skipped because the edge's exercise counter was at or above the
    /// threshold.
    pub skipped_hot: u64,
    /// Spawns skipped because the branch lies in tagged checker code.
    pub skipped_checker: u64,
    /// Spawns skipped because `MaxNumNTPaths` NT-paths were outstanding
    /// (CMP option).
    pub skipped_outstanding: u64,
    /// Spawns vetoed by the static NT-safety filter
    /// (`PxConfig::static_nt_filter`): the edge is guaranteed to hit an
    /// unsafe event within the threshold.
    pub skipped_static: u64,
    /// Instructions retired on the taken path.
    pub taken_instructions: u64,
    /// Of `taken_instructions`, those retired in batches rather than
    /// stepped one at a time (a deterministic dispatch counter).
    pub taken_batched: u64,
    /// Instructions retired on NT-paths.
    pub nt_instructions: u64,
    /// Dynamic conditional branches, taken path and NT-paths combined (the
    /// software implementation instruments every one of these).
    pub dyn_branches: u64,
    /// Memory writes performed inside NT-paths (the software implementation
    /// logs the old value of each for its restore-log).
    pub nt_writes: u64,
    /// Exercise-counter reset events.
    pub counter_resets: u64,
    /// Spawns admitted by the random factor despite a hot exercise counter
    /// (the §7.1(2) extension).
    pub random_spawns: u64,
    /// System calls executed inside NT-paths under the §3.2 OS-sandbox
    /// extension (they would otherwise have been unsafe-event stops).
    pub nt_syscalls_sandboxed: u64,
    /// Every completed NT-path, in completion order.
    pub paths: Vec<NtPathRecord>,
}

impl PxStats {
    /// Number of completed NT-paths that stopped for the given class.
    #[must_use]
    pub fn stops_of(&self, class: &str) -> usize {
        self.paths
            .iter()
            .filter(|p| p.stop.class() == class)
            .count()
    }
}

/// Result of a PathExpander-monitored run.
#[derive(Debug, Clone)]
pub struct PxRunResult {
    /// How the taken path ended.
    pub exit: RunExit,
    /// Cycles on the primary core — the run's wall-clock in simulated time.
    pub cycles: u64,
    /// Taken-path-only branch coverage (= what the baseline would cover).
    pub taken_coverage: Coverage,
    /// Combined taken + NT-path coverage (PathExpander's coverage).
    pub total_coverage: Coverage,
    /// Checker records from both taken and NT-paths (the monitor memory
    /// area).
    pub monitor: MonitorArea,
    /// Final I/O of the taken path.
    pub io: IoState,
    /// Final committed data memory of the taken path — what the containment
    /// checker diffs against a plain baseline run.
    pub memory: Memory,
    /// Final committed register file of the taken path.
    pub core: CoreState,
    /// Aggregate statistics.
    pub stats: PxStats,
    /// Prime-path coverage over taken *and* NT block traces, when the run
    /// was configured with `PxConfig::path_plan`.
    pub path_coverage: Option<PathCoverage>,
}

impl PxRunResult {
    /// FNV-1a-64 digest of the run's *taken-path* architectural results:
    /// exact exit status, committed program output, and the taken-coverage
    /// bitmap. Cycles and NT-path bookkeeping are deliberately excluded —
    /// NT scheduling (standard vs CMP vs software, spawn vetoes) changes
    /// timing and exploration, never the committed path, so two engines
    /// that agree architecturally produce the same digest.
    #[must_use]
    pub fn taken_path_digest(&self, program: &Program) -> u64 {
        let mut h = px_util::fnv1a64(0, &self.exit.digest_bytes());
        h = px_util::fnv1a64(h, self.io.output());
        self.taken_coverage.digest(program, h)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::feasibility::profile_from_stats;
    use px_isa::SyscallCode;
    use px_mach::CrashKind;

    fn rec(executed: u32, stop: NtStop) -> NtPathRecord {
        NtPathRecord {
            spawn_pc: 0,
            executed,
            stop,
        }
    }

    #[test]
    fn cdf_counts_only_selected_classes() {
        let s = PxStats {
            paths: vec![
                rec(10, NtStop::Crash(CrashKind::DivByZero)),
                rec(500, NtStop::Unsafe(SyscallCode::PutChar)),
                rec(1000, NtStop::MaxLength),
                rec(999, NtStop::MaxLength),
            ],
            ..PxStats::default()
        };
        let profile = profile_from_stats(&s, 1000);
        assert_eq!(profile.crash_cdf(1000), 0.25);
        assert_eq!(profile.stopped_cdf(1000), 0.5);
        assert_eq!(profile.crash_cdf(11), 0.25);
        assert_eq!(profile.crash_cdf(10), 0.0);
        assert_eq!(s.stops_of("max-length"), 2);
    }

    #[test]
    fn empty_stats_cdf_is_zero() {
        let profile = profile_from_stats(&PxStats::default(), 1000);
        assert_eq!(profile.crash_cdf(1000), 0.0);
    }
}
