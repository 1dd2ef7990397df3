//! Ablations of the design decisions the paper itself evaluated.

use px_detect::Tool;
use px_mach::{CacheConfig, MachConfig};
use px_workloads::by_name;

use super::{compile, io_for, run_px, BUDGET, SEED};

/// Result of the §4.2(3) ablation: exploring non-taken edges from inside
/// NT-paths.
#[derive(Debug, Clone)]
pub struct NtFromNtResult {
    /// Application (the paper used 164.gzip).
    pub app: String,
    /// Branch coverage without the ablation.
    pub coverage_off: f64,
    /// Branch coverage with NT-from-NT exploration.
    pub coverage_on: f64,
    /// Fraction of NT-paths crashing before 1000 instructions, ablation off.
    pub crash_ratio_off: f64,
    /// Same, ablation on (the paper saw 5% → 16%).
    pub crash_ratio_on: f64,
}

/// Reproduces the paper's experiment: following non-taken edges from
/// NT-paths buys a little coverage but sharply worsens state consistency.
///
/// The paper ran this on gzip; our gzip kernel is integer-index-only, so
/// forced wrong-side execution rarely produces an architecturally *wild*
/// access. `man` carries the pointer guards (`xref != 0`) whose forced
/// traversal is exactly the crash mechanism the paper observed, so the
/// ablation runs there (substitution documented in DESIGN.md).
#[must_use]
pub fn ablation_nt_from_nt() -> NtFromNtResult {
    let w = by_name("man").expect("man exists");
    let compiled = compile(&w, Tool::Ccured);
    let mut coverage = [0.0f64; 2];
    let mut crash = [0.0f64; 2];
    for (i, explore) in [false, true].into_iter().enumerate() {
        let r = run_px(&w, &compiled, SEED, |c| {
            c.with_explore_nt_from_nt(explore).with_fixes(false)
        });
        coverage[i] = r.total_coverage.branch_coverage(&compiled.program);
        let profile = pathexpander::profile_from_stats(&r.stats, w.max_nt_path_len);
        crash[i] = profile.crash_cdf(1000);
    }
    NtFromNtResult {
        app: w.name.to_owned(),
        coverage_off: coverage[0],
        coverage_on: coverage[1],
        crash_ratio_off: crash[0],
        crash_ratio_on: crash[1],
    }
}

/// One point of the sandbox-capacity ablation (§4.2(2)): the paper buffers
/// NT-path state in the L1 cache rather than a store buffer because the
/// cache "can buffer more updates, allowing NT-Paths to execute for longer".
#[derive(Debug, Clone)]
pub struct SandboxPoint {
    /// Sandbox capacity in bytes (the L1 size used).
    pub capacity_bytes: u32,
    /// Fraction of NT-paths cut short by sandbox overflow.
    pub overflow_ratio: f64,
    /// Mean NT-path length in instructions.
    pub mean_length: f64,
    /// PathExpander branch coverage at this capacity.
    pub coverage: f64,
}

/// Sweeps the sandbox capacity from store-buffer-sized (256 B) up to the
/// paper's 16 KB L1, on 099.go with a long NT-path budget (its influence
/// sweeps write dozens of cache lines, so small sandboxes truncate paths).
#[must_use]
pub fn ablation_sandbox() -> Vec<SandboxPoint> {
    let w = by_name("099.go").expect("go exists");
    let compiled = compile(&w, Tool::Ccured);
    [256u32, 1024, 4096, 16 * 1024]
        .iter()
        .map(|&bytes| {
            let mach = MachConfig {
                cores: 1,
                l1: CacheConfig {
                    size_bytes: bytes,
                    assoc: 4,
                    line_bytes: 32,
                    hit_cycles: 3,
                },
                ..MachConfig::default()
            };
            let px = w
                .px_config()
                .with_max_nt_path_len(10_000)
                .with_max_instructions(BUDGET);
            let r = pathexpander::run(&compiled.program, &mach, &px, io_for(&w, SEED));
            let total_paths = r.stats.paths.len().max(1);
            let overflows = r.stats.stops_of("sandbox-overflow");
            let mean_length = r
                .stats
                .paths
                .iter()
                .map(|p| f64::from(p.executed))
                .sum::<f64>()
                / total_paths as f64;
            SandboxPoint {
                capacity_bytes: bytes,
                overflow_ratio: overflows as f64 / total_paths as f64,
                mean_length,
                coverage: r.total_coverage.branch_coverage(&compiled.program),
            }
        })
        .collect()
}

/// Fix-strategy ablation (design decision D4): no fixing vs boundary fixing
/// vs random-satisfying fixing, measured as NT-only false positives on the
/// `bc` workload.
#[derive(Debug, Clone)]
pub struct FixStrategyResult {
    /// Strategy label.
    pub strategy: String,
    /// NT-only false positives.
    pub false_positives: usize,
    /// Seeded bugs detected.
    pub bugs: usize,
}

/// Runs the fix-strategy ablation.
#[must_use]
pub fn ablation_fix_strategy() -> Vec<FixStrategyResult> {
    use px_detect::{classify, report};
    use px_lang::{CompileOptions, FixStrategy};

    let w = by_name("bc").expect("bc exists");
    let tool = Tool::Ccured;
    let bug_lines = w.bug_lines_for(tool);
    let mut results = Vec::new();

    // (label, compile options, engine applies fixes)
    let boundary = tool.compile_options();
    let random = CompileOptions {
        fix_strategy: FixStrategy::RandomSatisfying { seed: 7 },
        ..tool.compile_options()
    };
    let cases: [(&str, &CompileOptions, bool); 4] = [
        ("none", &boundary, false),
        ("boundary", &boundary, true),
        ("random-satisfying", &random, true),
        ("profiled", &boundary, true),
    ];
    for (label, opts, fixes) in cases {
        let mut compiled = px_lang::compile(&w.source, opts).expect("compiles");
        if label == "profiled" {
            let profile = px_lang::refit::collect_branch_profile(
                &compiled.program,
                &MachConfig::single_core(),
                io_for(&w, SEED),
                BUDGET,
            );
            let _ = px_lang::refit_fixes(&mut compiled, &profile);
        }
        let px = w
            .px_config()
            .with_fixes(fixes)
            .with_max_instructions(BUDGET);
        let r = pathexpander::run(
            &compiled.program,
            &MachConfig::single_core(),
            &px,
            io_for(&w, SEED),
        );
        let dets = report(&compiled, &r.monitor, tool);
        let c = classify(&dets, &bug_lines, true);
        results.push(FixStrategyResult {
            strategy: label.to_owned(),
            false_positives: c.false_positives(),
            bugs: c.true_positives(),
        });
    }
    results
}

/// Results of the two forward-looking extensions the paper sketches.
#[derive(Debug, Clone)]
pub struct ExtensionResults {
    /// Per-app NT-path survival (to 1000 instructions) without OS support.
    pub survival_plain: Vec<(String, f64)>,
    /// Survival with the §3.2 OS-sandbox extension (paper projection: >90%).
    pub survival_os: Vec<(String, f64)>,
    /// Whether bc's hot-entry bug (bc-2) is detected at the default
    /// threshold without the random factor.
    pub bc2_plain: bool,
    /// Whether it is detected with the §7.1(2) random spawn factor.
    pub bc2_random: bool,
}

/// Measures the §3.2 OS-sandbox and §7.1(2) random-factor extensions.
#[must_use]
pub fn extensions() -> ExtensionResults {
    use px_detect::report;

    let mut survival_plain = Vec::new();
    let mut survival_os = Vec::new();
    for name in ["099.go", "164.gzip", "175.vpr"] {
        let w = by_name(name).expect("known workload");
        let compiled = compile(&w, Tool::Assertions);
        for (os, out) in [(false, &mut survival_plain), (true, &mut survival_os)] {
            let mut survived_sum = 0.0;
            let inputs = 10u64;
            for seed in 0..inputs {
                let px = w
                    .px_config()
                    .with_counter_threshold(1)
                    .with_fixes(false)
                    .with_os_sandbox(os)
                    .with_counter_reset_interval(u64::MAX)
                    .with_max_instructions(BUDGET);
                let r = pathexpander::run(
                    &compiled.program,
                    &MachConfig::single_core(),
                    &px,
                    io_for(&w, SEED + seed),
                );
                let profile = pathexpander::profile_from_stats(&r.stats, 1000);
                survived_sum += profile.survived_ratio();
            }
            out.push((w.name.to_owned(), survived_sum / inputs as f64));
        }
    }

    let w = by_name("bc").expect("bc exists");
    let compiled = compile(&w, Tool::Ccured);
    let bug_line = w.marker_line("/*BUG:bc-2*/");
    let detected = |random: Option<u32>| {
        let r = run_px(&w, &compiled, SEED, |c| c.with_random_factor(random));
        report(&compiled, &r.monitor, Tool::Ccured)
            .iter()
            .any(|d| d.line == bug_line && d.on_nt_path)
    };
    ExtensionResults {
        survival_plain,
        survival_os,
        bc2_plain: detected(None),
        bc2_random: detected(Some(8)),
    }
}
