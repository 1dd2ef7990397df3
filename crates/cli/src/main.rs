//! `pxc` — compile and run PXC (or PXVM assembly) programs under
//! PathExpander from the command line.
//!
//! ```text
//! pxc run   prog.pxc [options]     compile + run with PathExpander
//! pxc base  prog.pxc [options]     compile + plain monitored run
//! pxc build prog.pxc [options]     compile only; print stats / disassembly
//! pxc bench <workload> [options]   run a bundled workload by name
//! pxc list                         list bundled workloads
//! ```
//!
//! See `pxc help` for the full option list.

use std::process::ExitCode;

use pathexpander::PxConfig;
use px_detect::Tool;
use px_lang::CompiledProgram;
use px_mach::{IoState, MachConfig};

mod analyze;
mod campaign;
mod options;
mod report;
mod zoo;

use options::{Action, Options, ZooCmd};

fn main() -> ExitCode {
    default_sigpipe();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match Options::parse(&args) {
        Ok(opts) => opts,
        Err(msg) => {
            eprintln!("pxc: {msg}");
            eprintln!("{}", options::usage());
            return ExitCode::from(2);
        }
    };
    match run(&opts) {
        Ok(code) => code,
        Err(msg) => {
            eprintln!("pxc: {msg}");
            ExitCode::FAILURE
        }
    }
}

/// Restores the default `SIGPIPE` action, which the Rust runtime sets to
/// "ignore": a reader that hangs up early (`pxc analyze bc --json | head`)
/// then ends pxc quietly, as it ends `cat`, instead of making `println!`
/// panic with "failed printing to stdout". The raw `signal(2)` binding is
/// declared here because the workspace is zero-dependency by policy.
fn default_sigpipe() {
    #[cfg(unix)]
    {
        const SIGPIPE: i32 = 13;
        const SIG_DFL: usize = 0;
        extern "C" {
            fn signal(signum: i32, handler: usize) -> usize;
        }
        // SAFETY: the declaration matches `signal(2)` (an `int` and a
        // pointer-sized handler), and `SIG_DFL` installs no handler code:
        // the call only resets `SIGPIPE`, which nothing else in pxc sets.
        unsafe {
            signal(SIGPIPE, SIG_DFL);
        }
    }
}

fn run(opts: &Options) -> Result<ExitCode, String> {
    match &opts.action {
        Action::Help => {
            println!("{}", options::usage());
            Ok(ExitCode::SUCCESS)
        }
        Action::List => {
            println!("bundled workloads:");
            for w in px_workloads::all() {
                let bugs = w.bugs.len();
                let tools: Vec<&str> = w.tools.iter().map(|t| t.name()).collect();
                println!(
                    "  {:16} {:4} LOC, {} seeded bug(s), tools: {}",
                    w.name,
                    w.loc(),
                    bugs,
                    tools.join("/")
                );
            }
            Ok(ExitCode::SUCCESS)
        }
        Action::Build(path) => {
            let compiled = load(path, opts)?;
            println!(
                "{}: {} instructions, {} static branches ({} edges), {} check sites, {} watch tags",
                path,
                compiled.program.code.len(),
                compiled.program.static_branch_count(),
                compiled.program.static_edge_count(),
                compiled.sites.len(),
                compiled.watches.len()
            );
            if opts.disasm {
                println!("\n{}", compiled.program.disassemble());
            }
            Ok(ExitCode::SUCCESS)
        }
        Action::Run(path) | Action::Base(path) => {
            let mut compiled = load(path, opts)?;
            let io = opts.io()?;
            if opts.refit {
                refit(&mut compiled, io.clone(), opts);
            }
            let with_px = matches!(opts.action, Action::Run(_));
            execute(&compiled, io, opts, with_px)
        }
        Action::Analyze(target) => {
            // A workload name resolves through the bundle; anything else is
            // loaded (and compiled, for `.pxc`) like `run` would.
            let compiled = if let Some(workload) = px_workloads::by_name(target) {
                let tool = opts.tool.unwrap_or(workload.tools[0]);
                workload
                    .compile_for(tool)
                    .map_err(|e| format!("compile error: {e}"))?
            } else {
                load(target, opts)?
            };
            let analysis = px_analyze::Analysis::of(&compiled.program);
            if opts.path_cover {
                let text =
                    analyze::render_path_cover(target, &compiled.program, &analysis, opts.json);
                if opts.json {
                    println!("{text}");
                } else {
                    print!("{text}");
                }
            } else if opts.json {
                println!(
                    "{}",
                    analyze::render_json(target, &compiled.program, &analysis)
                );
            } else {
                print!(
                    "{}",
                    analyze::render_human(target, &compiled.program, &analysis)
                );
            }
            Ok(ExitCode::SUCCESS)
        }
        Action::Zoo(cmd) => {
            let text = match cmd {
                ZooCmd::List => zoo::list(opts.json),
                ZooCmd::Generate(spec) => zoo::generate(spec, opts.json)?,
                ZooCmd::Run(spec) => zoo::run(spec, opts)?,
            };
            print!("{text}");
            if !text.ends_with('\n') {
                println!();
            }
            Ok(ExitCode::SUCCESS)
        }
        Action::Campaign(c) => campaign::campaign(c),
        Action::Bench(name) => {
            let workload = px_workloads::by_name(name)
                .ok_or_else(|| format!("unknown workload `{name}` (try `pxc list`)"))?;
            let tool = opts.tool.unwrap_or(workload.tools[0]);
            let compiled = workload
                .compile_for(tool)
                .map_err(|e| format!("compile error: {e}"))?;
            let io = IoState::new(workload.general_input(opts.seed), opts.seed);
            let mut opts = opts.clone();
            // Pin the resolved tool so `execute` reports with the same tool
            // the workload was compiled for (not the Assertions default).
            opts.tool = Some(tool);
            if opts.px.max_nt_path_len == PxConfig::default().max_nt_path_len {
                opts.px.max_nt_path_len = workload.max_nt_path_len;
            }
            opts.bug_lines = workload.bug_lines_for(tool);
            let mut compiled = compiled;
            if opts.refit {
                refit(&mut compiled, io.clone(), &opts);
            }
            execute(&compiled, io, &opts, true)
        }
    }
}

fn load(path: &str, opts: &Options) -> Result<CompiledProgram, String> {
    let source = std::fs::read_to_string(path).map_err(|e| format!("cannot read `{path}`: {e}"))?;
    if path.ends_with(".pxs") || path.ends_with(".s") {
        let program = px_isa::asm::assemble(&source).map_err(|e| format!("assembly error: {e}"))?;
        return Ok(CompiledProgram {
            program,
            sites: Vec::new(),
            watches: Vec::new(),
            fix_sites: Vec::new(),
        });
    }
    let tool = opts.tool.unwrap_or(Tool::Assertions);
    px_lang::compile(&source, &tool.compile_options()).map_err(|e| format!("compile error: {e}"))
}

fn execute(
    compiled: &CompiledProgram,
    io: IoState,
    opts: &Options,
    with_px: bool,
) -> Result<ExitCode, String> {
    let tool = opts.tool.unwrap_or(Tool::Assertions);
    let mut plan = opts.fault_plan();
    // Prime-path coverage rides along on every run: enumerate once (capped,
    // deterministic), match block traces, report covered/feasible.
    let prime_set = px_analyze::Analysis::of(&compiled.program).prime_paths(&compiled.program);
    let path_plan = pathexpander::plan_paths(&prime_set)
        .ok()
        .map(std::sync::Arc::new);
    if !with_px {
        let r = px_mach::run_baseline_with(
            &compiled.program,
            &MachConfig::single_core(),
            io,
            opts.px.max_instructions,
            plan.as_mut(),
            path_plan.as_deref(),
        );
        report::print_baseline(compiled, &r, tool, opts);
        if let Some(plan) = &plan {
            println!("faults:       {} injected", plan.stats.total());
        }
        return Ok(exit_code(matches!(r.exit, px_mach::RunExit::Exited(0))));
    }
    let mach = opts.px.mode.machine();
    let px = opts.px.clone().with_path_plan(path_plan);
    let r = pathexpander::run_with(&compiled.program, &mach, &px, io, plan.as_mut());
    report::print_px(compiled, &r, tool, opts);
    if let Some(plan) = &plan {
        println!(
            "faults:       {} injected into NT-paths (committed state unaffected)",
            plan.stats.total()
        );
    }
    Ok(exit_code(matches!(r.exit, px_mach::RunExit::Exited(0))))
}

fn refit(compiled: &mut CompiledProgram, io: IoState, opts: &Options) {
    let profile = px_lang::refit::collect_branch_profile(
        &compiled.program,
        &MachConfig::single_core(),
        io,
        opts.px.max_instructions,
    );
    let patched = px_lang::refit_fixes(compiled, &profile);
    println!("refit:        {patched} fix value(s) moved into observed ranges");
}

fn exit_code(ok: bool) -> ExitCode {
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
