//! # px-soft — the pure-software PathExpander (paper §5)
//!
//! The paper implemented PathExpander a second time with no hardware
//! support, on top of the PIN dynamic binary instrumentation tool, to
//! quantify the value of the hardware: **every branch** is instrumented to
//! maintain exercise counts in a hash table, NT-path spawning saves the
//! processor state through the instrumentation API, **every memory write**
//! during an NT-path is logged into a restore-log, and termination
//! conditions are watched by yet more instrumentation. The result was 3–4
//! orders of magnitude more overhead than the hardware design (abstract,
//! §7).
//!
//! This crate reproduces that comparison. Functionally, the software
//! implementation executes *exactly* the same NT-path exploration as the
//! hardware standard configuration (it reuses the same engine — §7 notes
//! the functional results of both implementations are the same). What
//! differs is **cost**: instead of the Table 2 machine model, a calibrated
//! instrumentation-cost model charges each dynamic event what a PIN-style
//! tool pays for it on a native host.
//!
//! The default constants ([`SoftConfig::default`]) are calibrated against
//! the era's published numbers: tools in the Purify/Valgrind class cost
//! 10–100× (paper §1.2); the software PathExpander instruments every
//! instruction (termination monitoring), every branch (exercise hash) and
//! every NT write (restore-log), putting it at the heavy end on top of the
//! serialized NT-path work.

use pathexpander::{run, Mode, PxConfig, PxRunResult};
use px_isa::Program;
use px_mach::{IoState, MachConfig};

/// Cost model of the PIN-style software implementation, in native-host
/// cycles.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SoftConfig {
    /// Native cycles per instruction of the uninstrumented program.
    pub native_cpi: f64,
    /// Instrumentation dilation: every executed instruction (taken path and
    /// NT-paths) costs this many times its native cost, covering the
    /// always-on analysis code (termination monitoring, dispatch).
    pub dilation: f64,
    /// Extra cycles per dynamic branch: exercise-history hash-table lookup
    /// and the spawn decision.
    pub branch_analysis_cycles: f64,
    /// Extra cycles per NT-path memory write: old-value logging into the
    /// restore-log.
    pub write_log_cycles: f64,
    /// Cycles to spawn an NT-path: processor-state checkpoint through the
    /// instrumentation API plus redirect.
    pub spawn_cycles: f64,
    /// Cycles per logged write at rollback (restore-log replay).
    pub restore_write_cycles: f64,
    /// Fixed cycles per rollback: register-state restore and resume.
    pub rollback_base_cycles: f64,
}

impl Default for SoftConfig {
    fn default() -> SoftConfig {
        SoftConfig {
            native_cpi: 1.2,
            dilation: 35.0,
            branch_analysis_cycles: 120.0,
            write_log_cycles: 60.0,
            spawn_cycles: 8_000.0,
            restore_write_cycles: 40.0,
            rollback_base_cycles: 1_500.0,
        }
    }
}

/// Result of a software-PathExpander run: the functional outcome plus the
/// modeled native-host cost.
#[derive(Debug, Clone)]
pub struct SoftResult {
    /// The functional run (detections, coverage, NT-path statistics) —
    /// identical to the hardware standard configuration's.
    pub run: PxRunResult,
    /// Modeled cycles of the *uninstrumented* program on the native host.
    pub native_cycles: f64,
    /// Modeled cycles of the instrumented, NT-exploring run.
    pub soft_cycles: f64,
}

impl SoftResult {
    /// Slowdown of the software implementation over native execution.
    #[must_use]
    pub fn slowdown(&self) -> f64 {
        self.soft_cycles / self.native_cycles
    }

    /// Overhead (slowdown − 1); the quantity compared against the hardware
    /// implementation's overhead.
    #[must_use]
    pub fn overhead(&self) -> f64 {
        self.slowdown() - 1.0
    }
}

/// Runs the software PathExpander: same exploration as the hardware
/// standard configuration, costed with the instrumentation model.
/// `px.mode` is ignored — the software implementation is always the
/// standard configuration.
#[must_use]
pub fn run_soft(program: &Program, px: &PxConfig, soft: &SoftConfig, io: IoState) -> SoftResult {
    // The functional engine is shared with the hardware implementation; the
    // Table 2 machine parameters only matter for *its* cycle counts, which
    // are discarded here in favour of the instrumentation cost model.
    let mach = MachConfig::single_core();
    let px = PxConfig {
        mode: Mode::Standard,
        ..px.clone()
    };
    let run = run(program, &mach, &px, io);
    let s = &run.stats;

    let native_cycles = s.taken_instructions as f64 * soft.native_cpi;
    let executed = (s.taken_instructions + s.nt_instructions) as f64;
    let rollbacks = s.paths.len() as f64;
    let soft_cycles = executed * soft.native_cpi * soft.dilation
        + s.dyn_branches as f64 * soft.branch_analysis_cycles
        + s.nt_writes as f64 * soft.write_log_cycles
        + s.spawns as f64 * soft.spawn_cycles
        + s.nt_writes as f64 * soft.restore_write_cycles
        + rollbacks * soft.rollback_base_cycles;

    SoftResult {
        run,
        native_cycles: native_cycles.max(1.0),
        soft_cycles,
    }
}

/// The headline §7 comparison for one program: hardware overhead (standard
/// and CMP options, Table 2 machine) versus software overhead.
#[derive(Debug, Clone, Copy)]
pub struct HwSwComparison {
    /// Hardware standard-configuration overhead (fraction, e.g. 0.35).
    pub hw_standard_overhead: f64,
    /// Hardware CMP-option overhead.
    pub hw_cmp_overhead: f64,
    /// Software implementation overhead.
    pub soft_overhead: f64,
}

impl HwSwComparison {
    /// log10 of software overhead over CMP-option overhead — the paper's
    /// "3–4 orders of magnitude". Measured CMP overheads below 1% are
    /// clamped to 1% so that the ratio is not dominated by a near-zero
    /// denominator (the paper's smallest per-application CMP overheads are
    /// about a percent).
    #[must_use]
    pub fn orders_vs_cmp(&self) -> f64 {
        (self.soft_overhead / self.hw_cmp_overhead.max(0.01)).log10()
    }
}

/// Runs all three implementations on one program and input.
#[must_use]
pub fn compare_hw_sw(
    program: &Program,
    mach: &MachConfig,
    px: &PxConfig,
    soft: &SoftConfig,
    io: &IoState,
) -> HwSwComparison {
    let baseline = px_mach::run_baseline(program, mach, io.clone(), px.max_instructions);
    let hw_std = run(
        program,
        &MachConfig {
            cores: 1,
            ..mach.clone()
        },
        &PxConfig {
            mode: Mode::Standard,
            ..px.clone()
        },
        io.clone(),
    );
    let hw_cmp = run(program, mach, &px.clone().cmp(), io.clone());
    let sw = run_soft(program, px, soft, io.clone());
    let base = baseline.cycles.max(1) as f64;
    HwSwComparison {
        hw_standard_overhead: (hw_std.cycles as f64 / base - 1.0).max(0.0),
        hw_cmp_overhead: (hw_cmp.cycles as f64 / base - 1.0).max(0.0),
        soft_overhead: sw.overhead(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use px_lang::{compile, CompileOptions};

    fn sample() -> px_lang::CompiledProgram {
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
    }

    #[test]
    fn software_run_is_functionally_identical_to_hardware() {
        let compiled = sample();
        let px = PxConfig::default();
        let hw = run(
            &compiled.program,
            &MachConfig::single_core(),
            &px,
            IoState::default(),
        );
        let sw = run_soft(
            &compiled.program,
            &px,
            &SoftConfig::default(),
            IoState::default(),
        );
        assert_eq!(sw.run.io.output_string(), hw.io.output_string());
        assert_eq!(sw.run.stats.spawns, hw.stats.spawns);
        assert_eq!(sw.run.monitor.len(), hw.monitor.len());
    }

    #[test]
    fn software_overhead_is_orders_of_magnitude_above_hardware() {
        let compiled = sample();
        let px = PxConfig::default();
        let cmp = compare_hw_sw(
            &compiled.program,
            &MachConfig::default(),
            &px,
            &SoftConfig::default(),
            &IoState::default(),
        );
        assert!(
            cmp.soft_overhead > 20.0,
            "software slowdown must be severe: {}",
            cmp.soft_overhead
        );
        assert!(
            cmp.soft_overhead > cmp.hw_standard_overhead * 50.0,
            "software ≫ hardware standard ({} vs {})",
            cmp.soft_overhead,
            cmp.hw_standard_overhead
        );
        assert!(
            cmp.orders_vs_cmp() >= 2.0,
            "≥2 orders vs CMP on this kernel (3–4 on the full apps): {}",
            cmp.orders_vs_cmp()
        );
    }

    #[test]
    fn cost_model_components_add_up() {
        let soft = SoftConfig::default();
        let compiled = sample();
        let sw = run_soft(
            &compiled.program,
            &PxConfig::default(),
            &soft,
            IoState::default(),
        );
        let s = &sw.run.stats;
        let expected =
            (s.taken_instructions + s.nt_instructions) as f64 * soft.native_cpi * soft.dilation
                + s.dyn_branches as f64 * soft.branch_analysis_cycles
                + s.nt_writes as f64 * (soft.write_log_cycles + soft.restore_write_cycles)
                + s.spawns as f64 * soft.spawn_cycles
                + s.paths.len() as f64 * soft.rollback_base_cycles;
        assert!((sw.soft_cycles - expected).abs() < 1e-6);
        assert!(sw.slowdown() > 1.0);
        assert!(sw.overhead() > 0.0);
    }
}
