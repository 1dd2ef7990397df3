//! # The workload zoo — a seeded, deterministic program synthesizer
//!
//! The paper evaluates PathExpander on seven buggy applications. That is
//! enough to reproduce Table 4, but far too few programs to characterise
//! *when* NT-path exploration helps. The zoo scales the benchmark suite two
//! orders of magnitude: a [`ZooSpec`] names a generated program — a shape
//! family, a structure seed, a size tier and a bug mix — and [`generate`]
//! renders it into an ordinary [`Workload`], so every engine, detection
//! tool, fault plan and `pxc analyze` pass works on zoo programs unchanged.
//!
//! ## Shapes
//!
//! Four program families, chosen to span the structural space of the
//! paper's Table 3 programs (§6.1):
//!
//! * `state-machine` — a transition ring with per-state visit counters.
//! * `parser` — a token-stream validator with a value stack and depth
//!   tracking (error paths, the Siemens texture).
//! * `interpreter` — a register VM dispatch loop (the bc texture).
//! * `recursive` — an array-encoded binary search tree with recursive
//!   insert/find/sum (deep call paths, the go texture).
//!
//! ## Bug taxonomy
//!
//! Each generated bug is an instance of a [`px_detect::BugClass`] — the
//! paper's memory-bug kinds extended with Rudra-style classes
//! (panic-safety, unchecked-index, lifetime-confusion analogues). Bugs live
//! in rare-opcode arms the general input never takes, so the baseline
//! misses all of them; *cold* placements sit within `MaxNTPathLength` of
//! the spawn edge (`expected_detected`), *deep* placements hide behind a
//! scan loop that exhausts the NT budget first (guaranteed escapes,
//! §7.1(4)).
//!
//! ## Determinism
//!
//! `spec → source text` is a pure function; the general input stream is a
//! pure function of `(spec, run seed)`. Two invocations anywhere produce
//! byte-identical programs and inputs — the property suite pins this.

mod gen;

use px_detect::Tool;

use crate::input::InputGen;
use crate::{BugSpec, EscapeClass, Family, InputSource, Workload};

/// `MaxNTPathLength` for zoo programs: long enough to reach every cold
/// bug from its spawn edge, short enough that the deep placements' 90-
/// iteration scan loops exhaust it (the guaranteed-escape construction).
pub const MAX_NT_PATH_LEN: u32 = 250;

/// Default size tier (omitted from canonical spec strings).
pub const DEFAULT_SIZE: u32 = 2;

/// A generated program family.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ZooShape {
    /// Transition ring with visit counters.
    StateMachine,
    /// Token-stream validator with a value stack.
    Parser,
    /// Register-VM dispatch loop.
    Interpreter,
    /// Array-encoded BST with recursive traversals.
    Recursive,
}

impl ZooShape {
    /// Every shape, in canonical order.
    pub const ALL: [ZooShape; 4] = [
        ZooShape::StateMachine,
        ZooShape::Parser,
        ZooShape::Interpreter,
        ZooShape::Recursive,
    ];

    /// Canonical name as spelled in spec strings.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            ZooShape::StateMachine => "state-machine",
            ZooShape::Parser => "parser",
            ZooShape::Interpreter => "interpreter",
            ZooShape::Recursive => "recursive",
        }
    }

    /// Parses a canonical shape name.
    #[must_use]
    pub fn parse(name: &str) -> Option<ZooShape> {
        ZooShape::ALL.into_iter().find(|s| s.name() == name)
    }
}

/// Which bugs a generated program carries.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BugMix {
    /// All six classes cold, plus two deep (guaranteed-escape) placements.
    Full,
    /// All six classes, cold placements only.
    Cold,
    /// Three classes (buffer-overflow, off-by-one, state-desync), cold.
    Lean,
    /// No injected bugs.
    None,
}

impl BugMix {
    /// Every mix, in canonical order.
    pub const ALL: [BugMix; 4] = [BugMix::Full, BugMix::Cold, BugMix::Lean, BugMix::None];

    /// Canonical name as spelled in spec strings.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            BugMix::Full => "full",
            BugMix::Cold => "cold",
            BugMix::Lean => "lean",
            BugMix::None => "none",
        }
    }

    /// Parses a canonical mix name.
    #[must_use]
    pub fn parse(name: &str) -> Option<BugMix> {
        BugMix::ALL.into_iter().find(|m| m.name() == name)
    }

    /// The `(class, deep)` plan this mix injects, in id order.
    #[must_use]
    pub fn classes(self) -> Vec<(px_detect::BugClass, bool)> {
        use px_detect::BugClass as C;
        match self {
            BugMix::Full => vec![
                (C::BufferOverflow, false),
                (C::UncheckedIndex, false),
                (C::OffByOne, false),
                (C::LifetimeConfusion, false),
                (C::PanicSafety, false),
                (C::StateDesync, false),
                (C::BufferOverflow, true),
                (C::StateDesync, true),
            ],
            BugMix::Cold => vec![
                (C::BufferOverflow, false),
                (C::UncheckedIndex, false),
                (C::OffByOne, false),
                (C::LifetimeConfusion, false),
                (C::PanicSafety, false),
                (C::StateDesync, false),
            ],
            BugMix::Lean => vec![
                (C::BufferOverflow, false),
                (C::OffByOne, false),
                (C::StateDesync, false),
            ],
            BugMix::None => vec![],
        }
    }
}

/// Full name of one generated program.
///
/// Canonical string form: `zoo:<shape>:<seed>[:n<size>][:<mix>]`, where the
/// size part is omitted at [`DEFAULT_SIZE`] and the mix part at
/// [`BugMix::Full`] — so `zoo:parser:3` ≡ `zoo:parser:3:n2:full`.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct ZooSpec {
    /// Program family.
    pub shape: ZooShape,
    /// Structure seed: decides opcode assignment and helper constants.
    pub seed: u64,
    /// Size tier 1..=4: scales the common-handler count and input length.
    pub size: u32,
    /// Injected bug plan.
    pub mix: BugMix,
}

impl ZooSpec {
    /// A spec with default size and mix.
    #[must_use]
    pub fn new(shape: ZooShape, seed: u64) -> ZooSpec {
        ZooSpec {
            shape,
            seed,
            size: DEFAULT_SIZE,
            mix: BugMix::Full,
        }
    }

    /// Parses a spec string (see the type docs for the grammar).
    ///
    /// # Errors
    ///
    /// Returns a human-readable message on malformed input.
    pub fn parse(s: &str) -> Result<ZooSpec, String> {
        let rest = s
            .strip_prefix("zoo:")
            .ok_or_else(|| format!("`{s}`: zoo specs start with `zoo:`"))?;
        let mut parts = rest.split(':');
        let shape_name = parts.next().unwrap_or("");
        let shape = ZooShape::parse(shape_name).ok_or_else(|| {
            format!(
                "`{shape_name}`: unknown shape (expected one of {})",
                ZooShape::ALL.map(ZooShape::name).join(", ")
            )
        })?;
        let seed_part = parts
            .next()
            .ok_or_else(|| format!("`{s}`: missing seed (zoo:<shape>:<seed>)"))?;
        let seed: u64 = seed_part
            .parse()
            .map_err(|_| format!("`{seed_part}`: seed must be a non-negative integer"))?;
        let mut spec = ZooSpec::new(shape, seed);
        for part in parts {
            // Mix names are checked first: `none` also starts with `n`.
            if let Some(mix) = BugMix::parse(part) {
                spec.mix = mix;
            } else if let Some(n) = part.strip_prefix('n') {
                let size: u32 = n
                    .parse()
                    .map_err(|_| format!("`{part}`: size must be n1..n4"))?;
                if !(1..=4).contains(&size) {
                    return Err(format!("`{part}`: size must be n1..n4"));
                }
                spec.size = size;
            } else {
                return Err(format!(
                    "`{part}`: expected a size (n1..n4) or a bug mix ({})",
                    BugMix::ALL.map(BugMix::name).join(", ")
                ));
            }
        }
        Ok(spec)
    }
}

impl std::fmt::Display for ZooSpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "zoo:{}:{}", self.shape.name(), self.seed)?;
        if self.size != DEFAULT_SIZE {
            write!(f, ":n{}", self.size)?;
        }
        if self.mix != BugMix::Full {
            write!(f, ":{}", self.mix.name())?;
        }
        Ok(())
    }
}

/// Renders a spec into an ordinary [`Workload`].
#[must_use]
pub fn generate(spec: &ZooSpec) -> Workload {
    let (source, zbugs) = gen::emit(spec);
    let bugs = zbugs
        .iter()
        .map(|zb| BugSpec {
            id: zb.id.clone(),
            tool: zb.class.tool(),
            marker: format!("/*ZBUG:{}*/", zb.id),
            escape: if zb.deep {
                EscapeClass::NeedsSpecialInput
            } else {
                EscapeClass::Helped
            },
            description: if zb.deep {
                format!(
                    "{} behind a scan loop that exhausts MaxNTPathLength — \
                     guaranteed escape",
                    zb.class.name()
                )
            } else {
                format!("{} in a cold rare-opcode arm", zb.class.name())
            },
        })
        .collect();
    Workload {
        name: spec.to_string(),
        source,
        family: Family::Zoo,
        tools: Tool::ALL.to_vec(),
        bugs,
        max_nt_path_len: MAX_NT_PATH_LEN,
        input: InputSource::Zoo(spec.clone()),
    }
}

/// The taxonomy class a zoo bug id encodes (`"bo-cold"` → buffer overflow).
#[must_use]
pub fn bug_class_of(id: &str) -> Option<px_detect::BugClass> {
    use px_detect::BugClass as C;
    Some(match id.split('-').next().unwrap_or("") {
        "bo" => C::BufferOverflow,
        "ui" => C::UncheckedIndex,
        "obo" => C::OffByOne,
        "lc" => C::LifetimeConfusion,
        "ps" => C::PanicSafety,
        "sd" => C::StateDesync,
        _ => return None,
    })
}

/// The general input stream for a spec: common opcodes only (the rare,
/// bug-hosting opcodes never occur), so every injected bug is baseline-
/// invisible. A pure function of `(spec, seed)`.
#[must_use]
pub fn input_bytes(spec: &ZooSpec, seed: u64) -> Vec<u8> {
    let salt = px_util::fnv1a64(0, spec.to_string().as_bytes());
    let mut g = InputGen::new(seed ^ salt);
    let n_ops = g.range(40 + 20 * spec.size, 70 + 20 * spec.size);
    emit_ops(&mut g, n_ops)
}

/// Like [`input_bytes`] but with an explicit op count instead of the
/// size-derived range — the throughput benchmark uses this to build op
/// streams long enough to saturate a fixed instruction budget while keeping
/// the same opcode distribution (common ops only).
#[must_use]
pub fn input_bytes_n(spec: &ZooSpec, seed: u64, n_ops: u32) -> Vec<u8> {
    let salt = px_util::fnv1a64(0, spec.to_string().as_bytes());
    let mut g = InputGen::new(seed ^ salt);
    emit_ops(&mut g, n_ops)
}

fn emit_ops(g: &mut InputGen, n_ops: u32) -> Vec<u8> {
    let mut out = Vec::new();
    for _ in 0..n_ops {
        let op = g.below(6);
        let arg = g.below(800);
        let v = op + 16 * arg;
        out.extend_from_slice(v.to_string().as_bytes());
        out.push(b' ');
    }
    out.extend_from_slice(b"-1\n");
    out
}

/// The E15 roster: every shape × structure seeds 1..=7, sizes cycling
/// through the tiers, mostly full bug mixes with one lean and one cold
/// spec per shape — 28 generated families covering all four shapes and
/// all six bug classes.
#[must_use]
pub fn roster() -> Vec<ZooSpec> {
    let mut specs = Vec::new();
    for shape in ZooShape::ALL {
        for seed in 1..=7u64 {
            let mut spec = ZooSpec::new(shape, seed);
            spec.size = 1 + (seed % 3) as u32;
            spec.mix = match seed {
                6 => BugMix::Lean,
                7 => BugMix::Cold,
                _ => BugMix::Full,
            };
            specs.push(spec);
        }
    }
    specs
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spec_string_round_trips() {
        for s in [
            "zoo:parser:3",
            "zoo:state-machine:12:n3",
            "zoo:interpreter:5:lean",
            "zoo:recursive:9:n1:none",
        ] {
            let spec = ZooSpec::parse(s).unwrap();
            assert_eq!(spec.to_string(), s, "canonical form round-trips");
        }
        // Non-canonical spellings normalise.
        let spec = ZooSpec::parse("zoo:parser:3:n2:full").unwrap();
        assert_eq!(spec.to_string(), "zoo:parser:3");
    }

    #[test]
    fn bad_specs_are_rejected() {
        for s in [
            "zoo:",
            "zoo:parser",
            "zoo:parser:x",
            "zoo:quux:1",
            "zoo:parser:1:n9",
            "zoo:parser:1:bogus",
            "parser:1",
        ] {
            assert!(ZooSpec::parse(s).is_err(), "`{s}` should be rejected");
        }
    }

    #[test]
    fn roster_meets_the_e15_floor() {
        let specs = roster();
        assert!(specs.len() >= 25, "E15 needs at least 25 families");
        let shapes: std::collections::HashSet<&str> =
            specs.iter().map(|s| s.shape.name()).collect();
        assert_eq!(shapes.len(), 4, "all four shapes present");
        let classes: std::collections::HashSet<&str> = specs
            .iter()
            .flat_map(|s| s.mix.classes())
            .map(|(c, _)| c.name())
            .collect();
        assert_eq!(classes.len(), 6, "all six bug classes present");
    }

    #[test]
    fn generated_workloads_compile_for_every_tool() {
        for spec in [
            ZooSpec::parse("zoo:state-machine:1").unwrap(),
            ZooSpec::parse("zoo:parser:2:n3").unwrap(),
            ZooSpec::parse("zoo:interpreter:3:lean").unwrap(),
            ZooSpec::parse("zoo:recursive:4:n1:cold").unwrap(),
            ZooSpec::parse("zoo:recursive:5:none").unwrap(),
        ] {
            let w = generate(&spec);
            assert_eq!(w.name, spec.to_string());
            for &tool in &w.tools {
                w.compile_for(tool)
                    .unwrap_or_else(|e| panic!("{} ({}): {e}", w.name, tool.name()));
            }
            for b in &w.bugs {
                assert!(w.marker_line(&b.marker) > 0);
            }
        }
    }

    #[test]
    fn inputs_avoid_rare_opcodes() {
        let spec = ZooSpec::new(ZooShape::Parser, 1);
        let bytes = input_bytes(&spec, 7);
        let text = String::from_utf8(bytes).unwrap();
        for tok in text.split_whitespace() {
            let v: i64 = tok.parse().unwrap();
            if v >= 0 {
                assert!(v % 16 < 6, "general input uses common opcodes only");
            }
        }
    }
}
