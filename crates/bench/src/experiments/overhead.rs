//! The execution-overhead experiments (E8: standard vs CMP, E9: hardware
//! vs software implementation).
//!
//! Both render the same rows: E9's hardware columns are E8's standard and
//! CMP overheads, and its software column prices E8's standard run with the
//! instrumentation cost model below.

use pathexpander::{run, PxConfig, PxStats};
use px_isa::Program;
use px_mach::{run_baseline, IoState, MachConfig};
use px_util::par_map;
use px_workloads::{all, Workload};

use super::{compile, io_for, primary_tool, BUDGET, SEED};

// Cost model of the paper's pure-software PathExpander (§5), in native-host
// cycles. The paper built it on PIN: every branch is instrumented to keep
// exercise counts in a hash table, an NT-path spawn saves processor state
// through the instrumentation API, every NT-path write is logged into a
// restore-log, and termination is watched by yet more instrumentation. Its
// exploration is exactly the hardware standard configuration's (§7: the
// functional results of both implementations are the same), so only its
// cost is modelled. The constants sit at the heavy end of the era's
// Purify/Valgrind-class tools (10–100×, §1.2).

/// Native cycles per instruction of the uninstrumented program.
const NATIVE_CPI: f64 = 1.2;
/// Instrumentation dilation of every executed instruction (taken path and
/// NT-paths): termination monitoring and dispatch.
const DILATION: f64 = 35.0;
/// Per dynamic branch: exercise-history hash lookup and spawn decision.
const BRANCH_ANALYSIS_CYCLES: f64 = 120.0;
/// Per NT-path write: old-value logging into the restore-log.
const WRITE_LOG_CYCLES: f64 = 60.0;
/// Per spawn: processor-state checkpoint through the instrumentation API.
const SPAWN_CYCLES: f64 = 8_000.0;
/// Per logged write at rollback: restore-log replay.
const RESTORE_WRITE_CYCLES: f64 = 40.0;
/// Per rollback: register-state restore and resume.
const ROLLBACK_BASE_CYCLES: f64 = 1_500.0;

/// Overhead (slowdown − 1) of the software implementation, priced from the
/// statistics of the hardware standard run it would explore identically.
fn software_overhead(s: &PxStats) -> f64 {
    let native_cycles = (s.taken_instructions as f64 * NATIVE_CPI).max(1.0);
    let executed = (s.taken_instructions + s.nt_instructions) as f64;
    let rollbacks = s.paths.len() as f64;
    let soft_cycles = executed * NATIVE_CPI * DILATION
        + s.dyn_branches as f64 * BRANCH_ANALYSIS_CYCLES
        + s.nt_writes as f64 * WRITE_LOG_CYCLES
        + s.spawns as f64 * SPAWN_CYCLES
        + s.nt_writes as f64 * RESTORE_WRITE_CYCLES
        + rollbacks * ROLLBACK_BASE_CYCLES;
    soft_cycles / native_cycles - 1.0
}

/// One application's overhead numbers.
#[derive(Debug, Clone)]
pub struct OverheadRow {
    /// Application name.
    pub app: String,
    /// Baseline (no PathExpander) cycles.
    pub baseline_cycles: u64,
    /// Standard-configuration overhead, as a fraction.
    pub standard: f64,
    /// CMP-option overhead, as a fraction.
    pub cmp: f64,
    /// Software (PIN-style) implementation overhead, as a fraction.
    pub software: f64,
    /// NT-paths explored in the standard run (the paper's "hundreds to
    /// thousands of new paths per run").
    pub nt_paths: u64,
}

impl OverheadRow {
    /// log10 of software overhead over CMP-option overhead — the paper's
    /// "3–4 orders of magnitude". CMP overheads below 1% are clamped to 1%
    /// so that the ratio is not dominated by a near-zero denominator (the
    /// paper's smallest per-application CMP overheads are about a percent).
    #[must_use]
    pub fn orders_vs_cmp(&self) -> f64 {
        (self.software / self.cmp.max(0.01)).log10()
    }
}

/// Measures PathExpander execution overhead on every workload.
#[must_use]
pub fn overhead() -> Vec<OverheadRow> {
    par_map(&all(), overhead_row)
}

fn overhead_row(w: &Workload) -> OverheadRow {
    let compiled = compile(w, primary_tool(w));
    let px = w.px_config().with_max_instructions(BUDGET);
    measure(&w.name, &compiled.program, &px, || io_for(w, SEED))
}

/// E8's three runs of one program — baseline, standard and CMP, each on the
/// machine its mode runs on — and the software cost of the standard run.
fn measure(app: &str, program: &Program, px: &PxConfig, io: impl Fn() -> IoState) -> OverheadRow {
    let base = run_baseline(
        program,
        &MachConfig::single_core(),
        io(),
        px.max_instructions,
    );
    let std_run = run(program, &px.mode.machine(), px, io());
    let cmp_px = px.clone().cmp();
    let cmp_run = run(program, &cmp_px.mode.machine(), &cmp_px, io());
    let b = base.cycles.max(1) as f64;
    OverheadRow {
        app: app.to_owned(),
        baseline_cycles: base.cycles,
        standard: (std_run.cycles as f64 / b - 1.0).max(0.0),
        cmp: (cmp_run.cycles as f64 / b - 1.0).max(0.0),
        software: software_overhead(&std_run.stats),
        nt_paths: std_run.stats.spawns,
    }
}

/// Average overheads (standard, CMP) over rows.
#[must_use]
pub fn overhead_averages(rows: &[OverheadRow]) -> (f64, f64) {
    let n = rows.len() as f64;
    (
        rows.iter().map(|r| r.standard).sum::<f64>() / n,
        rows.iter().map(|r| r.cmp).sum::<f64>() / n,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use px_lang::{compile, CompileOptions};

    fn kernel() -> Program {
        compile(
            "
            int work[16];
            int main() {
                int i;
                int acc = 0;
                for (i = 0; i < 400; i = i + 1) {
                    int slot = i % 16;
                    work[slot] = work[slot] + i;
                    if (work[slot] > 100000) { acc = acc + 1; }
                    if (slot == 13) { acc = acc + work[slot] % 7; }
                }
                printint(acc);
                return 0;
            }
            ",
            &CompileOptions::ccured(),
        )
        .unwrap()
        .program
    }

    #[test]
    fn cost_model_components_add_up() {
        let px = PxConfig::default();
        let s = run(&kernel(), &px.mode.machine(), &px, IoState::default()).stats;
        let soft_cycles = (s.taken_instructions + s.nt_instructions) as f64 * NATIVE_CPI * DILATION
            + s.dyn_branches as f64 * BRANCH_ANALYSIS_CYCLES
            + s.nt_writes as f64 * (WRITE_LOG_CYCLES + RESTORE_WRITE_CYCLES)
            + s.spawns as f64 * SPAWN_CYCLES
            + s.paths.len() as f64 * ROLLBACK_BASE_CYCLES;
        let native_cycles = s.taken_instructions as f64 * NATIVE_CPI;
        let software = software_overhead(&s);
        assert!((software - (soft_cycles / native_cycles - 1.0)).abs() < 1e-9);
        assert!(software > 0.0);
    }

    #[test]
    fn software_overhead_is_orders_of_magnitude_above_hardware() {
        let row = measure("kernel", &kernel(), &PxConfig::default(), IoState::default);
        assert!(
            row.software > 20.0,
            "software slowdown must be severe: {}",
            row.software
        );
        assert!(
            row.software > row.standard * 50.0,
            "software ≫ hardware standard ({} vs {})",
            row.software,
            row.standard
        );
        assert!(
            row.orders_vs_cmp() >= 2.0,
            "≥2 orders vs CMP on this kernel (3–4 on the full apps): {}",
            row.orders_vs_cmp()
        );
    }
}
