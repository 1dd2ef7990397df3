//! Fault injection and typed engine errors.
//!
//! PathExpander's central claim is *containment*: an NT-path may crash, run
//! away, or exhaust its sandbox, yet committed architectural state must be
//! identical to a run that never spawned it (paper §§3–4). This module
//! provides the machinery to drive the engines into those corners on
//! purpose and at scale:
//!
//! * [`FaultPlan`] — a seeded, replayable injector threaded through
//!   [`crate::uexec::step_uop`], which consults it once per interpreted
//!   step. Given the same seed, mix and rate it injects the identical
//!   fault sequence, so any containment violation found by a campaign
//!   replays deterministically. Runs pass `None` in production and a plan
//!   during fault campaigns.
//! * [`SimError`] — the typed error that replaces engine panics. Invalid
//!   configurations and malformed programs surface as
//!   `RunExit::EngineFault` instead of aborting a sweep.
//!
//! Faults come in two delivery flavours. *Core-level* faults (forced
//! crashes, data-memory bit flips, runaway redirects, I/O errors) are
//! applied inside `step_uop` itself, against whatever
//! [`crate::memory::MemView`] the step executes on — so an NT-path's bit
//! flips land in its sandbox and are squashed with it. *Cache-level* faults
//! (L1 vtag flips, volatile-way exhaustion, monitor pressure) cannot be
//! applied by `step_uop`, which never touches the timing caches; they are
//! returned to the engine as the step's `deferred` action, and the engine
//! applies them to its [`crate::cache::Hierarchy`] / monitor area.

use px_util::{Rng, Xoshiro256};

use crate::memory::CrashKind;

/// Hard ceiling on simulated data-memory size (256 MiB). Programs (or
/// garbage bytes parsed as programs) demanding more are rejected with
/// [`SimError::ProgramTooLarge`] instead of aborting the host on a huge
/// allocation.
pub const MAX_MEM_BYTES: u32 = 1 << 28;

/// A typed simulator error: a condition that previously panicked.
///
/// These are *engine* faults — bad configuration, malformed programs,
/// broken internal invariants — as opposed to architectural crashes
/// ([`CrashKind`]), which are simulated program behaviour.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SimError {
    /// A machine configuration with zero cores.
    NoCores,
    /// The CMP option needs at least one primary and one NT core.
    NeedsTwoCores,
    /// Inconsistent cache geometry (the message names the violated rule).
    BadCacheGeometry(&'static str),
    /// Inconsistent BTB geometry.
    BadBtbGeometry(&'static str),
    /// The program demands more than [`MAX_MEM_BYTES`] of data memory.
    ProgramTooLarge { mem_size: u32 },
    /// A data item does not fit in the program's data memory.
    BlobOutOfBounds { addr: u32, len: u32 },
    /// Two coverage trackers built for different code sizes were merged.
    CoverageSizeMismatch { left: usize, right: usize },
    /// Two prime-path coverage shards from different enumerations (their
    /// set digests differ) were merged.
    PathSetMismatch { left: u64, right: u64 },
    /// A packed coverage shard sets padding bits in its last byte; a
    /// canonical writer leaves them zero, so the encoding is corrupt.
    NonZeroPadding { last: u8 },
    /// A path plan was handed an empty prime path (`path` is its index).
    EmptyPrimePath { path: u32 },
    /// A prime path names a block the program does not have.
    PrimePathBlockOutOfRange {
        path: u32,
        block: u32,
        n_blocks: u32,
    },
    /// Two feasible prime paths share one block sequence, so runtime
    /// matching could not tell them apart.
    DuplicatePrimePath { first: u32, second: u32 },
    /// An internal invariant did not hold (the message names it).
    Invariant(&'static str),
}

impl core::fmt::Display for SimError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            SimError::NoCores => write!(f, "machine configuration has zero cores"),
            SimError::NeedsTwoCores => write!(f, "CMP option needs at least 2 cores"),
            SimError::BadCacheGeometry(m) => write!(f, "bad cache geometry: {m}"),
            SimError::BadBtbGeometry(m) => write!(f, "bad BTB geometry: {m}"),
            SimError::ProgramTooLarge { mem_size } => {
                write!(f, "program demands {mem_size} bytes of data memory")
            }
            SimError::BlobOutOfBounds { addr, len } => {
                write!(f, "data item of {len} bytes at {addr:#x} does not fit")
            }
            SimError::CoverageSizeMismatch { left, right } => {
                write!(f, "coverage size mismatch: {left} vs {right} instructions")
            }
            SimError::PathSetMismatch { left, right } => {
                write!(
                    f,
                    "prime-path shard mismatch: set {left:016x} vs {right:016x}"
                )
            }
            SimError::NonZeroPadding { last } => {
                write!(
                    f,
                    "coverage shard padding bits set in last byte {last:#04x}"
                )
            }
            SimError::EmptyPrimePath { path } => write!(f, "prime path {path} is empty"),
            SimError::PrimePathBlockOutOfRange {
                path,
                block,
                n_blocks,
            } => write!(
                f,
                "prime path {path} names block {block} of a {n_blocks}-block program"
            ),
            SimError::DuplicatePrimePath { first, second } => {
                write!(
                    f,
                    "prime paths {first} and {second} share one block sequence"
                )
            }
            SimError::Invariant(m) => write!(f, "engine invariant violated: {m}"),
        }
    }
}

impl std::error::Error for SimError {}

/// The categories of injectable faults, in the order used by
/// [`FaultMix::weights`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultKind {
    /// Flip one bit of data memory (lands in the sandbox on NT-paths).
    BitFlip,
    /// Force an architectural crash of a chosen [`CrashKind`].
    Crash,
    /// Redirect the pc backwards, forcing a runaway loop that must hit
    /// the `MaxNTPathLength` bound.
    Runaway,
    /// Flip the vtag of a random valid L1 line.
    VtagFlip,
    /// Mark an entire L1 set volatile, exhausting the sandbox's ways.
    VolatileExhaust,
    /// Push synthetic records into the monitor memory area.
    MonitorPressure,
    /// Fail the program's input stream (reads return end-of-input).
    IoError,
}

/// All fault kinds, indexable by [`FaultKind::index`].
pub const FAULT_KINDS: [FaultKind; 7] = [
    FaultKind::BitFlip,
    FaultKind::Crash,
    FaultKind::Runaway,
    FaultKind::VtagFlip,
    FaultKind::VolatileExhaust,
    FaultKind::MonitorPressure,
    FaultKind::IoError,
];

impl FaultKind {
    /// Position in [`FAULT_KINDS`] and [`FaultMix::weights`].
    #[must_use]
    pub fn index(self) -> usize {
        match self {
            FaultKind::BitFlip => 0,
            FaultKind::Crash => 1,
            FaultKind::Runaway => 2,
            FaultKind::VtagFlip => 3,
            FaultKind::VolatileExhaust => 4,
            FaultKind::MonitorPressure => 5,
            FaultKind::IoError => 6,
        }
    }

    /// The name used in `--fault-mix` specs and JSON summaries.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            FaultKind::BitFlip => "bitflip",
            FaultKind::Crash => "crash",
            FaultKind::Runaway => "runaway",
            FaultKind::VtagFlip => "vtag",
            FaultKind::VolatileExhaust => "overflow",
            FaultKind::MonitorPressure => "monitor",
            FaultKind::IoError => "io",
        }
    }
}

/// One concrete injected fault. `entropy` fields are resolved against the
/// live structures at the point of application (e.g. reduced modulo the
/// data span or the set count), so a plan does not need to know geometry.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultAction {
    /// Flip bit `bit & 7` of a data byte chosen by `entropy`.
    FlipMemBit { entropy: u64, bit: u8 },
    /// Crash the current step with the given kind.
    ForceCrash { kind: CrashKind },
    /// After the instruction executes, pull the pc back up to `max_back`
    /// instructions (clamped to the current pc), creating a loop.
    RedirectBack { max_back: u32 },
    /// Retag a valid L1 line (chosen by `entropy`) with the running path's
    /// vtag. Deferred: applied by the engine to its hierarchy.
    FlipL1Vtag { entropy: u64 },
    /// Mark every line of an L1 set (chosen by `entropy`) volatile with the
    /// running path's vtag. Deferred: applied by the engine.
    ExhaustVolatileSet { entropy: u64 },
    /// Push `records` synthetic watch records into the monitor area.
    /// Deferred: applied by the engine.
    MonitorPressure { records: u8 },
    /// Fail the input stream from now on.
    FailInput,
}

impl FaultAction {
    /// The category this action belongs to.
    #[must_use]
    pub fn kind(self) -> FaultKind {
        match self {
            FaultAction::FlipMemBit { .. } => FaultKind::BitFlip,
            FaultAction::ForceCrash { .. } => FaultKind::Crash,
            FaultAction::RedirectBack { .. } => FaultKind::Runaway,
            FaultAction::FlipL1Vtag { .. } => FaultKind::VtagFlip,
            FaultAction::ExhaustVolatileSet { .. } => FaultKind::VolatileExhaust,
            FaultAction::MonitorPressure { .. } => FaultKind::MonitorPressure,
            FaultAction::FailInput => FaultKind::IoError,
        }
    }

    /// Whether the engine (not `step_uop`) must apply this action.
    #[must_use]
    pub fn is_deferred(self) -> bool {
        matches!(
            self,
            FaultAction::FlipL1Vtag { .. }
                | FaultAction::ExhaustVolatileSet { .. }
                | FaultAction::MonitorPressure { .. }
        )
    }
}

/// Relative weights for each [`FaultKind`] when a [`FaultPlan`] draws the
/// kind of an injected fault. A zero weight disables the kind.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultMix {
    /// Weight per kind, indexed by [`FaultKind::index`].
    pub weights: [u32; FAULT_KINDS.len()],
}

impl Default for FaultMix {
    fn default() -> FaultMix {
        FaultMix::uniform()
    }
}

impl FaultMix {
    /// Every kind equally likely.
    #[must_use]
    pub fn uniform() -> FaultMix {
        FaultMix {
            weights: [1; FAULT_KINDS.len()],
        }
    }

    /// Only the given kind.
    #[must_use]
    pub fn only(kind: FaultKind) -> FaultMix {
        let mut weights = [0; FAULT_KINDS.len()];
        weights[kind.index()] = 1;
        FaultMix { weights }
    }

    /// Parses a `--fault-mix` spec: comma-separated `name=weight` pairs,
    /// e.g. `"bitflip=2,crash=1,runaway=1"`. Kinds not named get weight 0;
    /// the bare word `"all"` (or an empty spec) means uniform.
    ///
    /// # Errors
    ///
    /// Returns a message naming the offending entry and listing the valid
    /// kind names.
    pub fn parse(spec: &str) -> Result<FaultMix, String> {
        let spec = spec.trim();
        if spec.is_empty() || spec == "all" {
            return Ok(FaultMix::uniform());
        }
        let mut weights = [0u32; FAULT_KINDS.len()];
        for entry in spec.split(',') {
            let entry = entry.trim();
            let (name, weight) = match entry.split_once('=') {
                Some((n, w)) => {
                    let w: u32 = w.trim().parse().map_err(|_| {
                        format!("invalid weight in fault-mix entry {entry:?}: expected a non-negative integer")
                    })?;
                    (n.trim(), w)
                }
                None => (entry, 1),
            };
            let kind = FAULT_KINDS
                .iter()
                .find(|k| k.name() == name)
                .ok_or_else(|| {
                    let names: Vec<&str> = FAULT_KINDS.iter().map(|k| k.name()).collect();
                    format!(
                        "unknown fault kind {name:?} in fault-mix; valid kinds: {}",
                        names.join(", ")
                    )
                })?;
            weights[kind.index()] = weight;
        }
        if weights.iter().all(|&w| w == 0) {
            return Err("fault-mix disables every fault kind (all weights zero)".to_owned());
        }
        Ok(FaultMix { weights })
    }

    fn total(&self) -> u64 {
        self.weights.iter().map(|&w| u64::from(w)).sum()
    }

    fn draw(&self, rng: &mut Xoshiro256) -> FaultKind {
        let total = self.total().max(1);
        let mut roll = rng.below(total);
        for (i, &w) in self.weights.iter().enumerate() {
            let w = u64::from(w);
            if roll < w {
                return FAULT_KINDS[i];
            }
            roll -= w;
        }
        FaultKind::BitFlip
    }
}

impl core::fmt::Display for FaultMix {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        let mut first = true;
        for (i, &w) in self.weights.iter().enumerate() {
            if w == 0 {
                continue;
            }
            if !first {
                write!(f, ",")?;
            }
            write!(f, "{}={w}", FAULT_KINDS[i].name())?;
            first = false;
        }
        if first {
            write!(f, "none")?;
        }
        Ok(())
    }
}

/// Per-kind injection counters of a [`FaultPlan`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultStats {
    /// Faults injected, indexed by [`FaultKind::index`].
    pub by_kind: [u64; FAULT_KINDS.len()],
}

impl FaultStats {
    /// Total injected faults across all kinds.
    #[must_use]
    pub fn total(&self) -> u64 {
        self.by_kind.iter().sum()
    }
}

/// A seeded, replayable fault injector: at each step it fires with
/// probability `1/period`, drawing the fault kind from a [`FaultMix`] and
/// the fault parameters from the same PRNG stream. Identical
/// `(seed, mix, period)` produce the identical injection sequence.
#[derive(Debug, Clone)]
pub struct FaultPlan {
    rng: Xoshiro256,
    mix: FaultMix,
    period: u32,
    /// Faults injected so far, by kind: the count runs and campaigns report.
    pub stats: FaultStats,
}

impl FaultPlan {
    /// Creates a plan firing on average once every `period` steps.
    #[must_use]
    pub fn new(seed: u64, mix: FaultMix, period: u32) -> FaultPlan {
        FaultPlan {
            rng: Xoshiro256::seeded(seed),
            mix,
            period: period.max(1),
            stats: FaultStats::default(),
        }
    }

    /// A uniform-mix plan firing once every `period` steps.
    #[must_use]
    pub fn uniform(seed: u64, period: u32) -> FaultPlan {
        FaultPlan::new(seed, FaultMix::uniform(), period)
    }

    fn action_for(&mut self, kind: FaultKind) -> FaultAction {
        match kind {
            FaultKind::BitFlip => FaultAction::FlipMemBit {
                entropy: self.rng.next_u64(),
                bit: (self.rng.next_u64() & 7) as u8,
            },
            FaultKind::Crash => {
                let kind = match self.rng.below(4) {
                    0 => CrashKind::NullDeref {
                        addr: (self.rng.next_u64() % u64::from(px_isa::NULL_GUARD_END)) as u32,
                    },
                    1 => CrashKind::OutOfBounds {
                        addr: u32::MAX - (self.rng.next_u64() & 0xFFFF) as u32,
                    },
                    2 => CrashKind::DivByZero,
                    _ => CrashKind::BadPc {
                        pc: u32::MAX - (self.rng.next_u64() & 0xFFFF) as u32,
                    },
                };
                FaultAction::ForceCrash { kind }
            }
            FaultKind::Runaway => FaultAction::RedirectBack {
                max_back: 1 + (self.rng.next_u64() & 15) as u32,
            },
            FaultKind::VtagFlip => FaultAction::FlipL1Vtag {
                entropy: self.rng.next_u64(),
            },
            FaultKind::VolatileExhaust => FaultAction::ExhaustVolatileSet {
                entropy: self.rng.next_u64(),
            },
            FaultKind::MonitorPressure => FaultAction::MonitorPressure {
                records: 1 + (self.rng.next_u64() & 7) as u8,
            },
            FaultKind::IoError => FaultAction::FailInput,
        }
    }

    /// Decides whether to inject a fault into the step about to execute:
    /// called once per interpreted instruction, and `Some` injects that
    /// fault. The decision depends only on the plan's own stream, so a
    /// replay with the same plan sees the same sequence.
    pub fn before_step(&mut self) -> Option<FaultAction> {
        if !self.rng.chance(1, u64::from(self.period)) {
            return None;
        }
        let kind = self.mix.draw(&mut self.rng);
        self.stats.by_kind[kind.index()] += 1;
        Some(self.action_for(kind))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plan_is_replayable() {
        let mut a = FaultPlan::uniform(42, 3);
        let mut b = FaultPlan::uniform(42, 3);
        for _ in 0..2000 {
            assert_eq!(a.before_step(), b.before_step());
        }
        assert_eq!(a.stats, b.stats);
        assert!(a.stats.total() > 0, "a 1-in-3 plan fires within 2000 steps");
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = FaultPlan::uniform(1, 2);
        let mut b = FaultPlan::uniform(2, 2);
        let same = (0..500).all(|_| a.before_step() == b.before_step());
        assert!(!same);
    }

    #[test]
    fn mix_parse_round_trips_and_restricts_kinds() {
        let mix = FaultMix::parse("bitflip=2,crash=1").unwrap();
        assert_eq!(mix.weights[FaultKind::BitFlip.index()], 2);
        assert_eq!(mix.weights[FaultKind::Crash.index()], 1);
        assert_eq!(mix.weights[FaultKind::Runaway.index()], 0);
        let mut plan = FaultPlan::new(7, mix, 1);
        for _ in 0..500 {
            if let Some(action) = plan.before_step() {
                assert!(matches!(
                    action.kind(),
                    FaultKind::BitFlip | FaultKind::Crash
                ));
            }
        }
        assert_eq!(FaultMix::parse(&mix.to_string()).unwrap(), mix);
    }

    #[test]
    fn mix_parse_rejects_bad_specs() {
        assert!(FaultMix::parse("nosuchkind=1")
            .unwrap_err()
            .contains("nosuchkind"));
        assert!(FaultMix::parse("crash=abc").unwrap_err().contains("weight"));
        assert!(FaultMix::parse("crash=0").unwrap_err().contains("zero"));
        assert_eq!(FaultMix::parse("all").unwrap(), FaultMix::uniform());
        assert_eq!(FaultMix::parse("").unwrap(), FaultMix::uniform());
    }

    #[test]
    fn bare_names_default_to_weight_one() {
        let mix = FaultMix::parse("crash,io").unwrap();
        assert_eq!(mix.weights[FaultKind::Crash.index()], 1);
        assert_eq!(mix.weights[FaultKind::IoError.index()], 1);
        assert_eq!(mix.total(), 2);
    }

    #[test]
    fn sim_error_displays() {
        assert!(SimError::NoCores.to_string().contains("zero cores"));
        assert!(SimError::BadCacheGeometry("x").to_string().contains("x"));
        assert!(SimError::ProgramTooLarge { mem_size: 9 }
            .to_string()
            .contains('9'));
    }
}
