//! Figure 3: Crash-Latency and Unsafe-Latency cumulative distributions
//! (paper §3.2) for 099.go, 164.gzip and 175.vpr.

use pathexpander::measure_latency;
use px_detect::Tool;
use px_workloads::by_name;

use super::{io_for, BUDGET, SEED};

/// The instruction counts at which the CDFs are sampled.
pub const LATENCY_POINTS: [u32; 8] = [5, 10, 25, 50, 100, 250, 500, 1000];

/// One application's Figure 3 panel.
#[derive(Debug, Clone)]
pub struct Fig3Panel {
    /// Application name.
    pub app: String,
    /// NT-paths spawned.
    pub spawned: usize,
    /// `(instructions, crash CDF, unsafe CDF, stopped CDF)` samples.
    pub points: Vec<(u32, f64, f64, f64)>,
    /// Fraction of NT-paths that executed the full 1000 instructions (or
    /// reached the end of the program).
    pub survived: f64,
}

/// Inputs aggregated per application (the paper runs the full SPEC inputs;
/// our kernels are smaller, so several random inputs give the CDFs a
/// comparable NT-path sample).
pub const FIG3_INPUTS: u64 = 10;

/// Regenerates Figure 3: spawn an NT-path at every zero-count non-taken
/// edge, no variable fixing, 1000-instruction threshold; aggregated over
/// [`FIG3_INPUTS`] inputs per application.
#[must_use]
pub fn fig3() -> Vec<Fig3Panel> {
    ["099.go", "164.gzip", "175.vpr"]
        .iter()
        .map(|name| {
            let w = by_name(name).expect("known workload");
            // Figure 3 measures the raw program (no checker instrumentation):
            // the assertion build carries no CCured/iWatcher code.
            let compiled = w
                .compile_for(Tool::Assertions)
                .unwrap_or_else(|_| w.compile_for(w.tools[0]).expect("compiles"));
            let mut profile: Option<pathexpander::LatencyProfile> = None;
            for seed in 0..FIG3_INPUTS {
                let p = measure_latency(
                    &compiled.program,
                    &px_mach::MachConfig::single_core(),
                    io_for(&w, SEED + seed),
                    1000,
                    BUDGET,
                    None,
                );
                match profile.as_mut() {
                    None => profile = Some(p),
                    Some(acc) => {
                        acc.spawned += p.spawned;
                        acc.latencies.extend(p.latencies);
                    }
                }
            }
            let profile = profile.expect("at least one input");
            Fig3Panel {
                app: w.name.to_owned(),
                spawned: profile.spawned,
                points: LATENCY_POINTS
                    .iter()
                    .map(|&n| {
                        (
                            n,
                            profile.crash_cdf(n),
                            profile.unsafe_cdf(n),
                            profile.stopped_cdf(n),
                        )
                    })
                    .collect(),
                survived: profile.survived_ratio(),
            }
        })
        .collect()
}
