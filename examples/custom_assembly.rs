//! Driving PathExpander from hand-written PXVM-32 assembly — the ISA-level
//! API, without the PXC compiler. Shows checkpoint/rollback, the monitor
//! memory area, predicated fix instructions and the disassembler.
//!
//! Run with: `cargo run --release --example custom_assembly`

use pathexpander::{run, PxConfig};
use px_isa::asm::assemble;
use px_mach::{IoState, MachConfig};

const PROGRAM: &str = r"
    ; A tiny service loop. The error handler (non-taken with this input)
    ; contains an assertion bug, and a predicated fix instruction at its
    ; head repairs the condition variable for NT-path execution.
    .data
    counter: .word 0
    .code
    main:
        li   r10, 25            ; requests to serve
    serve:
        la   r2, counter
        lw   r3, 0(r2)
        addi r3, r3, 1
        sw   r3, 0(r2)

        ; error path: only taken when r10 goes negative (never here)
        blt  r10, zero, error
        jmp  next
    error:
        pli  r10, -1            ; compiler-style fix: pin r10 to the boundary
        li   r5, 0
        assert r5, #99          ; the hidden bug
        jmp  next
    next:
        subi r10, r10, 1
        bgt  r10, zero, serve
        la   r2, counter
        lw   r2, 0(r2)
        printi
        li   r2, 0
        exit
";

fn main() {
    let program = assemble(PROGRAM).expect("assembles");
    println!("disassembly:\n{}", program.disassemble());

    let result = run(
        &program,
        &MachConfig::single_core(),
        // Threshold 1: explore each never-exercised edge exactly once.
        &PxConfig::default()
            .with_max_nt_path_len(50)
            .with_counter_threshold(1),
        IoState::default(),
    );

    println!("taken-path output: {:?}", result.io.output_string());
    println!("exit: {:?}", result.exit);
    println!(
        "NT-paths: {} spawned, {} instructions explored",
        result.stats.spawns, result.stats.nt_instructions
    );
    for record in result.monitor.records() {
        println!(
            "monitor record: site #{} at pc {} ({:?}) — survived the squash",
            record.site, record.pc, record.path
        );
    }
    assert_eq!(
        result.monitor.nt_records().count(),
        1,
        "the error-path assertion fires exactly once, on an NT-path"
    );
    println!("\nthe bug on the never-taken error path was caught without ever taking it.");
}
