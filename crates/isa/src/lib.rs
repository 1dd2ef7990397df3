//! # px-isa — the PXVM-32 instruction set
//!
//! PXVM-32 is a small 32-bit RISC instruction set designed for the
//! PathExpander reproduction. It plays the role that MIPS played for the
//! paper's SESC-derived simulator: a fixed-width, easily decoded ISA that the
//! `px-lang` compiler targets and the `px-mach` machine executes.
//!
//! The ISA contains everything PathExpander's hardware design needs:
//!
//! * ordinary ALU / load / store / branch / call instructions,
//! * **predicated variable-fixing instructions** ([`Instruction::PMovI`],
//!   [`Instruction::PMov`], [`Instruction::PAluI`], [`Instruction::PStore`])
//!   that execute only at the entrance of a non-taken path (paper §4.4),
//! * **checker instructions** ([`Instruction::Check`]) used by the CCured- and
//!   assertion-style detectors: their reports go to the monitor memory area
//!   and survive NT-path squashes (paper §6.2),
//! * **watchpoint instructions** ([`Instruction::SetWatch`],
//!   [`Instruction::ClearWatch`]) used by the iWatcher-style detector,
//! * system calls, which are the "unsafe events" that terminate an NT-path
//!   (paper §4.2).
//!
//! Instructions are identified by instruction index (the program counter is an
//! index into [`Program::code`]), and a binary 12-byte encoding with an exact
//! round-trip ([`encode`]/[`decode`]) is provided so the machine can model a
//! real instruction memory. A textual assembler ([`asm::assemble`]) and
//! disassembler ([`core::fmt::Display`] on [`Instruction`]) round out the
//! toolchain.
//!
//! ## Example
//!
//! ```
//! use px_isa::asm;
//!
//! let program = asm::assemble(
//!     r#"
//!     .code
//!     main:
//!         li   r1, 7
//!         li   r2, 35
//!         add  r1, r1, r2
//!         exit
//!     "#,
//! )?;
//! assert_eq!(program.code.len(), 4);
//! assert_eq!(program.entry, 0);
//! # Ok::<(), px_isa::asm::AsmError>(())
//! ```

pub mod asm;
mod encode;
mod insn;
mod program;
mod reg;
pub mod uop;

pub use encode::{
    decode, decode_program, encode, encode_program, DecodeError, ProgramDecodeError, ENCODED_LEN,
};
pub use insn::{AluOp, BranchCond, CheckKind, Edge, Instruction, SyscallCode, Width};
pub use program::{
    DataItem, Program, ProgramBuilder, SourceLoc, SymbolTable, DATA_BASE, DEFAULT_MEM_SIZE,
    NULL_GUARD_END,
};
pub use reg::Reg;
pub use uop::{DecodedProgram, MicroOp, UopKind, UOP_KIND_COUNT};
