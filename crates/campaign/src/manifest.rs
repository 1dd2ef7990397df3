//! The campaign manifest: a deterministic, addressable case-id space.
//!
//! A [`Manifest`] is an ordered list of [`CaseGen`] generators; the global
//! case-id space is their concatenation, so case `id` means the same case
//! in every run, every shard and every resume — the property the whole
//! checkpoint/resume design rests on. Manifests round-trip through a
//! canonical spec string (`gen+gen+...`), which is what `pxc campaign
//! --cases` parses and what the journal's meta record pins.

use px_detect::Tool;
use px_mach::FaultMix;
use px_workloads::zoo::{self, ZooSpec};

/// One case generator.
#[derive(Debug, Clone, PartialEq)]
pub enum CaseGen {
    /// `fault:<seed>:<n>[:<mix>]` — `n` fault-injection cases (experiment
    /// E12's machinery) under campaign seed `seed`.
    Fault {
        /// Campaign seed.
        seed: u64,
        /// Number of cases.
        n: u64,
        /// Fault mix (canonical spec form, e.g. `bitflip,crash=2`).
        mix: FaultMix,
    },
    /// `zoo:<spec>[*K]` — one generated program run under `K` input seeds
    /// for each of the three detection tools (`K * 3` cases).
    Zoo {
        /// The generated program.
        spec: ZooSpec,
        /// Input seeds exercised (1..=K).
        seeds: u64,
    },
    /// `zoo-roster[:quick]` — the whole E15 roster. Full form runs every
    /// `(family, tool)` pair; `quick` runs one (cycling) tool per family.
    ZooRoster {
        /// One case per family instead of one per `(family, tool)`.
        quick: bool,
    },
    /// `chaos:<seed>:<n>` — adversarial scheduler food: a seeded mixture of
    /// well-behaved, panicking and runaway cases with known ground truth
    /// ([`crate::runner::chaos_truth`]). Exists to prove the campaign
    /// survives hostile cases; the CI gate feeds on it.
    Chaos {
        /// Chaos seed.
        seed: u64,
        /// Number of cases.
        n: u64,
    },
}

impl CaseGen {
    /// Parses one generator spec.
    ///
    /// # Errors
    ///
    /// Returns a human-readable message on malformed input.
    pub fn parse(s: &str) -> Result<CaseGen, String> {
        if let Some(rest) = s.strip_prefix("fault:") {
            let parts: Vec<&str> = rest.splitn(3, ':').collect();
            if parts.len() < 2 {
                return Err(format!("`{s}`: expected fault:<seed>:<n>[:<mix>]"));
            }
            let seed = parse_u64(parts[0], "fault seed")?;
            let n = parse_count(parts[1], "fault case count")?;
            let mix = match parts.get(2) {
                Some(m) => FaultMix::parse(m).map_err(|e| format!("`{s}`: {e}"))?,
                None => FaultMix::uniform(),
            };
            return Ok(CaseGen::Fault { seed, n, mix });
        }
        if let Some(rest) = s.strip_prefix("chaos:") {
            let parts: Vec<&str> = rest.split(':').collect();
            if parts.len() != 2 {
                return Err(format!("`{s}`: expected chaos:<seed>:<n>"));
            }
            return Ok(CaseGen::Chaos {
                seed: parse_u64(parts[0], "chaos seed")?,
                n: parse_count(parts[1], "chaos case count")?,
            });
        }
        if s == "zoo-roster" {
            return Ok(CaseGen::ZooRoster { quick: false });
        }
        if s == "zoo-roster:quick" {
            return Ok(CaseGen::ZooRoster { quick: true });
        }
        if s.starts_with("zoo:") {
            let (spec_str, seeds) = match s.rsplit_once('*') {
                Some((head, k)) => (head, parse_count(k, "zoo seed count")?),
                None => (s, 1),
            };
            if seeds.checked_mul(Tool::ALL.len() as u64).is_none() {
                return Err(format!(
                    "`{s}`: zoo seed count {seeds} overflows the case count"
                ));
            }
            let spec = ZooSpec::parse(spec_str)?;
            return Ok(CaseGen::Zoo { spec, seeds });
        }
        Err(format!(
            "`{s}`: unknown case generator (expected fault:…, zoo:…, zoo-roster or chaos:…)"
        ))
    }

    /// Number of cases this generator contributes.
    #[must_use]
    pub fn count(&self) -> u64 {
        match self {
            CaseGen::Fault { n, .. } | CaseGen::Chaos { n, .. } => *n,
            CaseGen::Zoo { seeds, .. } => seeds * Tool::ALL.len() as u64,
            CaseGen::ZooRoster { quick } => {
                let families = zoo::roster().len() as u64;
                if *quick {
                    families
                } else {
                    families * Tool::ALL.len() as u64
                }
            }
        }
    }
}

impl std::fmt::Display for CaseGen {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CaseGen::Fault { seed, n, mix } => {
                write!(f, "fault:{seed}:{n}")?;
                let spec = mix.to_string();
                if spec != FaultMix::uniform().to_string() {
                    write!(f, ":{spec}")?;
                }
                Ok(())
            }
            CaseGen::Zoo { spec, seeds } => {
                write!(f, "{spec}")?;
                if *seeds != 1 {
                    write!(f, "*{seeds}")?;
                }
                Ok(())
            }
            CaseGen::ZooRoster { quick } => {
                write!(f, "zoo-roster{}", if *quick { ":quick" } else { "" })
            }
            CaseGen::Chaos { seed, n } => write!(f, "chaos:{seed}:{n}"),
        }
    }
}

/// An ordered list of generators defining the global case-id space.
#[derive(Debug, Clone, PartialEq)]
pub struct Manifest {
    /// The generators, in id order.
    pub gens: Vec<CaseGen>,
}

impl Manifest {
    /// Parses a `gen+gen+...` manifest spec. Every generator contributes at
    /// least one case, and the total must fit in a `u64`, so case ids,
    /// [`total`](Manifest::total) and [`locate`](Manifest::locate) never
    /// overflow.
    ///
    /// # Errors
    ///
    /// Returns a human-readable message naming the offending generator.
    pub fn parse(s: &str) -> Result<Manifest, String> {
        if s.trim().is_empty() {
            return Err("empty manifest".to_owned());
        }
        let gens = s
            .split('+')
            .map(CaseGen::parse)
            .collect::<Result<Vec<_>, _>>()?;
        gens.iter()
            .try_fold(0u64, |total, gen| total.checked_add(gen.count()))
            .ok_or_else(|| format!("`{s}`: total case count overflows a u64"))?;
        Ok(Manifest { gens })
    }

    /// Total cases across all generators.
    #[must_use]
    pub fn total(&self) -> u64 {
        self.gens.iter().map(CaseGen::count).sum()
    }

    /// Resolves a global case id to `(generator, local index)`.
    #[must_use]
    pub fn locate(&self, id: u64) -> Option<(&CaseGen, u64)> {
        let mut base = 0;
        for gen in &self.gens {
            let n = gen.count();
            if id < base + n {
                return Some((gen, id - base));
            }
            base += n;
        }
        None
    }

    /// The canonical case label `<gen>#<local>` for a global id.
    #[must_use]
    pub fn label(&self, id: u64) -> String {
        match self.locate(id) {
            Some((gen, local)) => format!("{gen}#{local}"),
            None => format!("?#{id}"),
        }
    }
}

impl std::fmt::Display for Manifest {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        for (i, gen) in self.gens.iter().enumerate() {
            if i > 0 {
                write!(f, "+")?;
            }
            write!(f, "{gen}")?;
        }
        Ok(())
    }
}

fn parse_u64(s: &str, what: &str) -> Result<u64, String> {
    s.parse()
        .map_err(|_| format!("`{s}`: {what} must be a non-negative integer"))
}

/// A case count: like [`parse_u64`], but zero is rejected — a generator
/// that contributes no cases is a typo, not a campaign.
fn parse_count(s: &str, what: &str) -> Result<u64, String> {
    match parse_u64(s, what)? {
        0 => Err(format!("`{s}`: {what} must be at least 1")),
        n => Ok(n),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn manifest_specs_round_trip() {
        for s in [
            "fault:1:256",
            "fault:7:64:bitflip=1,crash=2,runaway=1",
            "zoo:parser:3",
            "zoo:state-machine:12:n3*4",
            "zoo-roster",
            "zoo-roster:quick",
            "chaos:9:128",
            "fault:1:32+chaos:2:16+zoo:parser:3*2",
        ] {
            let m = Manifest::parse(s).unwrap();
            assert_eq!(m.to_string(), s, "canonical form round-trips");
        }
    }

    #[test]
    fn bad_specs_are_rejected() {
        for s in [
            "",
            "fault:1",
            "fault:x:2",
            "chaos:1",
            "zoo:parser:3*0",
            "zoo:quux:1",
            "wedge:1:2",
            "fault:1:2+",
            "fault:1:0",
            "chaos:1:0",
            "fault:1:18446744073709551615+chaos:1:2",
            "zoo:parser:3*6148914691236517206",
        ] {
            assert!(Manifest::parse(s).is_err(), "`{s}` should be rejected");
        }
    }

    #[test]
    fn counts_and_locate_agree() {
        let m = Manifest::parse("fault:1:4+chaos:2:3+zoo:parser:3*2").unwrap();
        assert_eq!(m.total(), 4 + 3 + 6);
        let (gen, local) = m.locate(0).unwrap();
        assert!(matches!(gen, CaseGen::Fault { .. }));
        assert_eq!(local, 0);
        let (gen, local) = m.locate(5).unwrap();
        assert!(matches!(gen, CaseGen::Chaos { .. }));
        assert_eq!(local, 1);
        let (gen, local) = m.locate(7).unwrap();
        assert!(matches!(gen, CaseGen::Zoo { .. }));
        assert_eq!(local, 0);
        assert_eq!(m.locate(13), None);
        assert_eq!(m.label(5), "chaos:2:3#1");
        assert_eq!(m.label(99), "?#99");
    }

    #[test]
    fn roster_counts_match_the_zoo() {
        let families = zoo::roster().len() as u64;
        assert_eq!(
            CaseGen::ZooRoster { quick: false }.count(),
            families * Tool::ALL.len() as u64
        );
        assert_eq!(CaseGen::ZooRoster { quick: true }.count(), families);
    }
}
