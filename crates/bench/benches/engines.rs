//! Benches of the PathExpander engines themselves (on the in-tree
//! `px_util::bench` harness): the cost of a
//! monitored run under the standard configuration, the CMP option, the
//! feasibility harness and the software implementation — the code every
//! experiment in the harness spends its time in.

use pathexpander::{measure_latency, run, PxConfig};
use px_detect::Tool;
use px_mach::{IoState, MachConfig};
use px_util::bench::Bench;
use px_util::px_bench_main;

fn io(w: &px_workloads::Workload) -> IoState {
    IoState::new(w.general_input(1), 1)
}

fn engines(c: &mut Bench) {
    let w = px_workloads::by_name("print_tokens2").expect("pt2");
    let compiled = w.compile_for(Tool::Ccured).expect("compiles");
    let px = w.px_config();
    let mut group = c.benchmark_group("engines");
    group.sample_size(20);
    group.bench_function("standard_pt2", |b| {
        b.iter(|| run(&compiled.program, &MachConfig::single_core(), &px, io(&w)));
    });
    let cmp_cfg = px.clone().cmp();
    group.bench_function("cmp_pt2", |b| {
        b.iter(|| run(&compiled.program, &MachConfig::default(), &cmp_cfg, io(&w)));
    });
    group.bench_function("feasibility_pt2", |b| {
        b.iter(|| {
            measure_latency(
                &compiled.program,
                &MachConfig::single_core(),
                io(&w),
                1000,
                50_000_000,
                None,
            )
        });
    });
    group.bench_function("software_pt2", |b| {
        let soft = px_soft::SoftConfig::default();
        b.iter(|| px_soft::run_soft(&compiled.program, &px, &soft, io(&w)));
    });
    group.finish();
}

fn spawn_heavy(c: &mut Bench) {
    // A spawn-heavy configuration stresses checkpoint/rollback.
    let w = px_workloads::by_name("099.go").expect("go");
    let compiled = w.compile_for(Tool::Ccured).expect("compiles");
    let px = PxConfig::default().with_counter_threshold(15);
    let mut group = c.benchmark_group("engines");
    group.sample_size(10);
    group.bench_function("standard_go_threshold15", |b| {
        b.iter(|| run(&compiled.program, &MachConfig::single_core(), &px, io(&w)));
    });
    group.finish();
}

px_bench_main!(engines, spawn_heavy);
