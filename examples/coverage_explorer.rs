//! Coverage explorer: watch branch coverage and NT-path behaviour change as
//! PathExpander's knobs move.
//!
//! Run with: `cargo run --release --example coverage_explorer [app]`
//! (default app: 099.go)

use pathexpander::run;
use px_mach::{IoState, MachConfig};

fn main() {
    let app = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "099.go".to_owned());
    let Some(workload) = px_workloads::by_name(&app) else {
        eprintln!("unknown workload `{app}`; try one of:");
        for w in px_workloads::all() {
            eprintln!("  {}", w.name);
        }
        std::process::exit(1);
    };
    let tool = workload.tools[0];
    let compiled = workload.compile_for(tool).expect("compiles");
    let edges = compiled.program.static_edge_count();
    println!(
        "{}: {} instructions, {} branch edges, checked by {}",
        workload.name,
        compiled.program.code.len(),
        edges,
        tool.name()
    );

    println!("\nMaxNTPathLength sweep (threshold = 5):");
    println!(
        "{:>10} {:>10} {:>10} {:>12} {:>22}",
        "length", "coverage", "spawns", "NT insns", "stop breakdown"
    );
    for len in [10u32, 50, 100, 500, 1000, 5000] {
        let r = run(
            &compiled.program,
            &MachConfig::single_core(),
            &workload.px_config().with_max_nt_path_len(len),
            IoState::new(workload.general_input(7), 7),
        );
        let stops = format!(
            "len:{} crash:{} unsafe:{} end:{}",
            r.stats.stops_of("max-length"),
            r.stats.stops_of("crash"),
            r.stats.stops_of("unsafe"),
            r.stats.stops_of("program-end"),
        );
        println!(
            "{:>10} {:>9.1}% {:>10} {:>12} {:>22}",
            len,
            r.total_coverage.branch_coverage(&compiled.program) * 100.0,
            r.stats.spawns,
            r.stats.nt_instructions,
            stops
        );
    }

    println!(
        "\nNTPathCounterThreshold sweep (length = {}):",
        workload.max_nt_path_len
    );
    for threshold in [1u8, 2, 5, 10, 15] {
        let r = run(
            &compiled.program,
            &MachConfig::single_core(),
            &workload.px_config().with_counter_threshold(threshold),
            IoState::new(workload.general_input(7), 7),
        );
        println!(
            "  threshold {:>2}: coverage {:>5.1}%  spawns {:>5}  skipped-hot {:>6}",
            threshold,
            r.total_coverage.branch_coverage(&compiled.program) * 100.0,
            r.stats.spawns,
            r.stats.skipped_hot
        );
    }

    println!("\nOS-sandbox extension (paper §3.2):");
    for os in [false, true] {
        let r = run(
            &compiled.program,
            &MachConfig::single_core(),
            &workload.px_config().with_os_sandbox(os),
            IoState::new(workload.general_input(7), 7),
        );
        println!(
            "  os_sandbox={os}: unsafe stops {:>4}, sandboxed syscalls {:>5}, coverage {:>5.1}%",
            r.stats.stops_of("unsafe"),
            r.stats.nt_syscalls_sandboxed,
            r.total_coverage.branch_coverage(&compiled.program) * 100.0
        );
    }
}
