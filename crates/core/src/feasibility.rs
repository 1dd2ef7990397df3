//! The paper's §3.2 feasibility analysis: Crash-Latency and Unsafe-Latency
//! measurement (Figure 3).
//!
//! "In each experiment, we spawn an NT-Path at every non-taken branch edge
//! with zero exercise count and execute it until it either (1) crashes,
//! (2) reaches an unsafe event, (3) reaches the end of the program, or
//! (4) has executed a maximum threshold of instructions (1000). NT-Paths are
//! executed without applying any variable-fixing techniques."

use px_isa::Program;
use px_mach::{FaultPlan, IoState, MachConfig};

use crate::config::PxConfig;
use crate::run_with;
use crate::stats::{NtStop, PxStats};

/// Result of the feasibility measurement for one application.
#[derive(Debug, Clone)]
pub struct LatencyProfile {
    /// NT-paths spawned.
    pub spawned: usize,
    /// (instructions executed, stop reason) per NT-path.
    pub latencies: Vec<(u32, NtStop)>,
    /// The maximum-length threshold used.
    pub threshold: u32,
}

impl LatencyProfile {
    /// Fraction of NT-paths that *crashed* before executing `n` instructions
    /// — a point on the paper's Crash-Latency CDF.
    #[must_use]
    pub fn crash_cdf(&self, n: u32) -> f64 {
        self.cdf(n, |s| matches!(s, NtStop::Crash(_)))
    }

    /// Fraction of NT-paths that hit an *unsafe event* before `n`
    /// instructions — a point on the Unsafe-Latency CDF.
    #[must_use]
    pub fn unsafe_cdf(&self, n: u32) -> f64 {
        self.cdf(n, |s| matches!(s, NtStop::Unsafe(_)))
    }

    /// Fraction of NT-paths stopped by *either* cause before `n`
    /// instructions (the "Stopped NT-Path Ratio" axis of Figure 3).
    #[must_use]
    pub fn stopped_cdf(&self, n: u32) -> f64 {
        self.cdf(n, |s| matches!(s, NtStop::Crash(_) | NtStop::Unsafe(_)))
    }

    /// Fraction of NT-paths that survived to the full threshold (executed at
    /// least `threshold` instructions or reached the end of the program) —
    /// the paper's "65–99% of the NT-Paths can execute at least 1000
    /// instructions" headline.
    #[must_use]
    pub fn survived_ratio(&self) -> f64 {
        if self.latencies.is_empty() {
            return 1.0;
        }
        let survived = self
            .latencies
            .iter()
            .filter(|(n, stop)| *n >= self.threshold || matches!(stop, NtStop::ProgramEnd))
            .count();
        survived as f64 / self.latencies.len() as f64
    }

    fn cdf(&self, n: u32, pred: impl Fn(&NtStop) -> bool) -> f64 {
        if self.latencies.is_empty() {
            return 0.0;
        }
        let stopped = self
            .latencies
            .iter()
            .filter(|(executed, stop)| *executed < n && pred(stop))
            .count();
        stopped as f64 / self.latencies.len() as f64
    }
}

/// Runs the Figure 3 feasibility experiment: spawn at every zero-count
/// non-taken edge, no variable fixing, `threshold`-instruction NT-paths, on
/// the standard engine.
///
/// An optional fault plan shows how the latency shapes shift when
/// NT-paths are bombarded with injected faults (they must shift toward
/// *earlier* stops, never corrupt the profile).
#[must_use]
pub fn measure_latency(
    program: &Program,
    mach: &MachConfig,
    io: IoState,
    threshold: u32,
    max_instructions: u64,
    fault: Option<&mut FaultPlan>,
) -> LatencyProfile {
    let px = PxConfig::default()
        .with_counter_threshold(1)
        .with_max_nt_path_len(threshold)
        .with_fixes(false)
        .with_counter_reset_interval(u64::MAX)
        .with_max_instructions(max_instructions);
    let result = run_with(program, mach, &px, io, fault);
    profile_from_stats(&result.stats, threshold)
}

/// Builds a [`LatencyProfile`] from any run's statistics.
#[must_use]
pub fn profile_from_stats(stats: &PxStats, threshold: u32) -> LatencyProfile {
    LatencyProfile {
        spawned: stats.paths.len(),
        latencies: stats.paths.iter().map(|p| (p.executed, p.stop)).collect(),
        threshold,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use px_isa::asm::assemble;
    use px_mach::CrashKind;

    #[test]
    fn cdf_shapes_are_monotone_and_bounded() {
        let profile = LatencyProfile {
            spawned: 4,
            latencies: vec![
                (10, NtStop::Crash(CrashKind::DivByZero)),
                (100, NtStop::Unsafe(px_isa::SyscallCode::PutChar)),
                (1000, NtStop::MaxLength),
                (1000, NtStop::MaxLength),
            ],
            threshold: 1000,
        };
        assert_eq!(profile.crash_cdf(5), 0.0);
        assert_eq!(profile.crash_cdf(11), 0.25);
        assert_eq!(profile.unsafe_cdf(101), 0.25);
        assert_eq!(profile.stopped_cdf(2000), 0.5);
        assert!(profile.crash_cdf(500) <= profile.crash_cdf(1000));
        assert_eq!(profile.survived_ratio(), 0.5);
    }

    #[test]
    fn compute_heavy_program_mostly_survives() {
        // Pure computation, no I/O inside loops: NT-paths should survive
        // (the paper's go-like shape).
        let src = r"
            .code
            main:
                li r4, 60
                li r5, 0
            loop:
                subi r4, r4, 1
                addi r5, r5, 3
                blt r5, zero, never   ; never taken
                bgt r4, zero, loop
                li r2, 0
                exit
            never:
                addi r6, r6, 1
                jmp loop
            ";
        let program = assemble(src).unwrap();
        let p = measure_latency(
            &program,
            &MachConfig::single_core(),
            IoState::default(),
            50,
            1_000_000,
            None,
        );
        assert!(p.spawned > 0);
        assert!(
            p.survived_ratio() > 0.6,
            "compute-only NT-paths should survive: {:?}",
            p.survived_ratio()
        );
    }

    #[test]
    fn io_heavy_program_stops_on_unsafe_events() {
        // putc inside the non-taken region: NT-paths die on unsafe events
        // (the paper's gzip-like shape).
        let src = r"
            .code
            main:
                li r4, 30
            loop:
                subi r4, r4, 1
                beq r4, r9, never   ; r9 = 0 only at the end... taken once
                bgt r4, zero, loop
                li r2, 0
                exit
            never:
                li r2, 65
                putc
                jmp loop
            ";
        let program = assemble(src).unwrap();
        let p = measure_latency(
            &program,
            &MachConfig::single_core(),
            IoState::default(),
            1000,
            1_000_000,
            None,
        );
        assert!(p.spawned > 0);
        assert!(p.unsafe_cdf(1000) > 0.0, "some NT-paths must hit putc");
    }
}
