//! Architectural per-core state.

use px_isa::Reg;

/// The architectural register file. Writes to register 0 are ignored.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Regs([i32; Reg::COUNT]);

impl Default for Regs {
    fn default() -> Regs {
        Regs([0; Reg::COUNT])
    }
}

impl Regs {
    /// Reads a register (register 0 always reads 0).
    #[must_use]
    #[inline]
    pub fn get(&self, r: Reg) -> i32 {
        self.0[r.index()]
    }

    /// Writes a register; writes to register 0 are discarded.
    #[inline]
    pub fn set(&mut self, r: Reg, value: i32) {
        if !r.is_zero() {
            self.0[r.index()] = value;
        }
    }
}

/// One core's architectural state: registers, program counter, and the
/// NT-entry predicate that gates the variable-fixing instructions
/// (paper §4.4(3)).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CoreState {
    /// Register file.
    pub regs: Regs,
    /// Program counter (instruction index).
    pub pc: u32,
    /// NT-entry predicate: set when an NT-path is spawned onto this core,
    /// cleared by the first control-transfer instruction.
    pub pred: bool,
}

impl CoreState {
    /// Creates a core ready to run from `entry` with the stack pointer at the
    /// top of a `mem_size`-byte memory.
    #[must_use]
    pub fn at_entry(entry: u32, mem_size: u32) -> CoreState {
        let mut core = CoreState {
            pc: entry,
            ..CoreState::default()
        };
        core.regs.set(Reg::SP, mem_size as i32);
        core.regs.set(Reg::FP, mem_size as i32);
        core
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn register_zero_is_hardwired() {
        let mut regs = Regs::default();
        regs.set(Reg::ZERO, 42);
        assert_eq!(regs.get(Reg::ZERO), 0);
        regs.set(Reg::RV, 42);
        assert_eq!(regs.get(Reg::RV), 42);
    }
}
