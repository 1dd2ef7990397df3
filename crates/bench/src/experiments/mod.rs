//! The experiments, one submodule per paper artifact.

pub mod ablations;
pub mod campaign;
pub mod coverage;
pub mod fig3;
mod memo;
pub mod overhead;
pub mod perf;
pub mod sensitivity;
pub mod static_filter;
pub mod tables;
pub mod zoo;

pub use ablations::{ablation_nt_from_nt, ablation_sandbox};
pub use campaign::{campaign_gate, CampaignGateReport};
pub use coverage::coverage;
pub use fig3::fig3;
pub use overhead::overhead;
pub use perf::{throughput_report, ThroughputReport, ThroughputRow};
pub use sensitivity::sensitivity;
pub use static_filter::{static_filter, static_filter_summary, StaticFilterRow};
pub use tables::{table3, table4, table5};
pub use zoo::{zoo_report, ZooReport, ZooRow};

use pathexpander::{PxConfig, PxRunResult};
use px_detect::Tool;
use px_lang::CompiledProgram;
use px_mach::IoState;
use px_workloads::Workload;

/// The fixed seed used throughout the evaluation (all experiments are
/// deterministic).
pub const SEED: u64 = 12345;

/// Instruction safety valve for every run.
pub const BUDGET: u64 = 50_000_000;

pub(crate) fn io_for(w: &Workload, seed: u64) -> IoState {
    IoState::new(w.general_input(seed), seed)
}

pub(crate) fn compile(w: &Workload, tool: Tool) -> CompiledProgram {
    w.compile_for(tool)
        .unwrap_or_else(|e| panic!("{} ({}): {e}", w.name, tool.name()))
}

/// Runs a workload under the standard configuration with its paper config.
pub(crate) fn run_px(
    w: &Workload,
    compiled: &CompiledProgram,
    seed: u64,
    tweak: impl FnOnce(PxConfig) -> PxConfig,
) -> PxRunResult {
    let px = tweak(w.px_config().with_max_instructions(BUDGET));
    pathexpander::run(&compiled.program, &px.mode.machine(), &px, io_for(w, seed))
}

/// The tool a workload's overhead/latency runs use (its first listed tool).
pub(crate) fn primary_tool(w: &Workload) -> Tool {
    w.tools[0]
}
