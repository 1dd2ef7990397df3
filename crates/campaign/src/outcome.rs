//! Typed per-case outcomes, journal case records, and the order-insensitive
//! campaign aggregate.
//!
//! A campaign's headline guarantee is that *every case is accounted for*:
//! each one ends in exactly one [`CaseOutcome`], is written to the journal
//! as a [`CaseRecord`], and folds into the [`Aggregate`] through commutative
//! operations only (counts, XOR/sum of per-case digests, bitmap-union
//! coverage merges) — so the final [`Aggregate::digest`] is byte-identical
//! no matter how the pool's workers interleaved the cases, and a
//! killed-and-resumed run reproduces an uninterrupted run's digest exactly.

use std::collections::BTreeMap;

use px_mach::{Coverage, PathCoverage};
use px_util::{fnv1a64, from_hex, hex64, to_hex, Json, ToJson};

use crate::CampaignError;

/// How one campaign case ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CaseOutcome {
    /// The case ran to completion (its run may still have crashed the
    /// *simulated* program — that is a normal result, not a failure).
    Done,
    /// The case's closure panicked; the panic was contained and the case
    /// quarantined.
    Panicked,
    /// The instruction-budget watchdog cut the case short; quarantined.
    TimedOut,
    /// The differential containment check failed; quarantined.
    Violated,
}

impl CaseOutcome {
    /// Every outcome, in canonical order.
    pub const ALL: [CaseOutcome; 4] = [
        CaseOutcome::Done,
        CaseOutcome::Panicked,
        CaseOutcome::TimedOut,
        CaseOutcome::Violated,
    ];

    /// Canonical name as spelled in journal records.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            CaseOutcome::Done => "done",
            CaseOutcome::Panicked => "panicked",
            CaseOutcome::TimedOut => "timed-out",
            CaseOutcome::Violated => "violated",
        }
    }

    /// Parses a canonical outcome name.
    #[must_use]
    pub fn parse(name: &str) -> Option<CaseOutcome> {
        CaseOutcome::ALL.into_iter().find(|o| o.name() == name)
    }

    /// Whether this outcome sends the case to quarantine.
    #[must_use]
    pub fn quarantines(self) -> bool {
        !matches!(self, CaseOutcome::Done)
    }
}

/// One case's journal record. Every field is a pure function of
/// `(manifest, case id, case timeout)` — no timestamps, no machine state —
/// so records are byte-identical across runs, workers and resumes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CaseRecord {
    /// Global case index within the manifest.
    pub id: u64,
    /// The case's coordinates: `<generator>#<local index>`.
    pub case: String,
    /// How the case ended.
    pub outcome: CaseOutcome,
    /// Exit class of the simulated run (`-` when the case never ran one).
    pub exit: String,
    /// Faults the case's plan injected (fault cases).
    pub faults: u64,
    /// NT-paths completed.
    pub nt_paths: u64,
    /// True-positive bug detections (zoo cases).
    pub detections: u64,
    /// Branch edges covered (zoo cases).
    pub covered_edges: u64,
    /// Key of the coverage shard this case contributes to (empty = none).
    pub program_key: String,
    /// Code length the shard's bitmap was built for (0 = none).
    pub code_len: u64,
    /// Packed coverage bitmap ([`Coverage::pack_bits`]; empty = none).
    pub cov_bits: Vec<u8>,
    /// Prime-path set digest the case's path shard was matched against
    /// (0 = the case carries no prime-path shard). The shard keys are
    /// emitted in the journal only when a shard is present, so records
    /// without one are byte-identical to the pre-prime-path format.
    pub path_set: u64,
    /// Feasible prime paths in the set (the shard's denominator).
    pub path_feasible: u64,
    /// Total enumerated prime paths (the shard bitmap's width).
    pub path_n: u64,
    /// Packed prime-path covered bitmap ([`PathCoverage::pack_bits`]).
    pub path_bits: Vec<u8>,
    /// Panic message / violation summary / empty.
    pub detail: String,
}

impl CaseRecord {
    /// A record of case `id` (`case`) that ended with `outcome` and `exit`,
    /// every count zero and every key, bitmap and detail empty: a case
    /// fills in the fields it measured with struct-update syntax.
    #[must_use]
    pub fn blank(id: u64, case: String, outcome: CaseOutcome, exit: String) -> CaseRecord {
        CaseRecord {
            id,
            case,
            outcome,
            exit,
            faults: 0,
            nt_paths: 0,
            detections: 0,
            covered_edges: 0,
            program_key: String::new(),
            code_len: 0,
            cov_bits: Vec::new(),
            path_set: 0,
            path_feasible: 0,
            path_n: 0,
            path_bits: Vec::new(),
            detail: String::new(),
        }
    }

    /// A record for a case whose closure panicked.
    #[must_use]
    pub fn panicked(id: u64, case: String, message: String) -> CaseRecord {
        CaseRecord {
            detail: message,
            ..CaseRecord::blank(id, case, CaseOutcome::Panicked, "-".to_owned())
        }
    }

    fn body_json(&self) -> Json {
        let mut pairs = vec![
            ("t".to_owned(), "case".to_json()),
            ("id".to_owned(), self.id.to_json()),
            ("case".to_owned(), self.case.to_json()),
            ("outcome".to_owned(), self.outcome.name().to_json()),
            ("exit".to_owned(), self.exit.to_json()),
            ("faults".to_owned(), self.faults.to_json()),
            ("nt_paths".to_owned(), self.nt_paths.to_json()),
            ("detections".to_owned(), self.detections.to_json()),
            ("covered_edges".to_owned(), self.covered_edges.to_json()),
            ("program_key".to_owned(), self.program_key.to_json()),
            ("code_len".to_owned(), self.code_len.to_json()),
            ("cov".to_owned(), Json::Str(to_hex(&self.cov_bits))),
        ];
        if self.path_set != 0 {
            pairs.push(("path_set".to_owned(), Json::Str(hex64(self.path_set))));
            pairs.push(("path_feasible".to_owned(), self.path_feasible.to_json()));
            pairs.push(("path_n".to_owned(), self.path_n.to_json()));
            pairs.push(("path_bits".to_owned(), Json::Str(to_hex(&self.path_bits))));
        }
        pairs.push(("detail".to_owned(), self.detail.to_json()));
        Json::Obj(pairs)
    }

    /// The record's FNV-1a-64 digest — the unit every aggregate digest is
    /// built from, and the per-record integrity check on resume.
    #[must_use]
    pub fn digest(&self) -> u64 {
        fnv1a64(0, self.body_json().dump().as_bytes())
    }

    /// The journal line for this record (no trailing newline).
    #[must_use]
    pub fn to_line(&self) -> String {
        let Json::Obj(mut pairs) = self.body_json() else {
            unreachable!("body_json builds an object")
        };
        pairs.push(("digest".to_owned(), Json::Str(hex64(self.digest()))));
        Json::Obj(pairs).dump()
    }

    /// Parses a journal case record and verifies its stored digest.
    ///
    /// # Errors
    ///
    /// A human-readable description of the missing field, bad value or
    /// digest mismatch (the caller attaches the line number).
    pub fn from_json(v: &Json) -> Result<CaseRecord, String> {
        let field_u64 = |k: &str| -> Result<u64, String> { req(v, k)?.as_u64().ok_or(bad(k)) };
        let field_str = |k: &str| -> Result<String, String> {
            Ok(req(v, k)?.as_str().ok_or_else(|| bad(k))?.to_owned())
        };
        let outcome_name = field_str("outcome")?;
        // Prime-path shard keys are optional: absent in records written
        // before the metric existed and in cases that carry no shard.
        let (path_set, path_feasible, path_n, path_bits) = if v.get("path_set").is_some() {
            (
                u64::from_str_radix(&field_str("path_set")?, 16).map_err(|_| bad("path_set"))?,
                field_u64("path_feasible")?,
                field_u64("path_n")?,
                from_hex(&field_str("path_bits")?).ok_or(bad("path_bits"))?,
            )
        } else {
            (0, 0, 0, Vec::new())
        };
        let rec = CaseRecord {
            id: field_u64("id")?,
            case: field_str("case")?,
            outcome: CaseOutcome::parse(&outcome_name)
                .ok_or_else(|| format!("unknown outcome `{outcome_name}`"))?,
            exit: field_str("exit")?,
            faults: field_u64("faults")?,
            nt_paths: field_u64("nt_paths")?,
            detections: field_u64("detections")?,
            covered_edges: field_u64("covered_edges")?,
            program_key: field_str("program_key")?,
            code_len: field_u64("code_len")?,
            cov_bits: from_hex(&field_str("cov")?).ok_or(bad("cov"))?,
            path_set,
            path_feasible,
            path_n,
            path_bits,
            detail: field_str("detail")?,
        };
        let stored = field_str("digest")?;
        if hex64(rec.digest()) != stored {
            return Err(format!(
                "case {} record digest mismatch (stored {stored}, computed {})",
                rec.id,
                hex64(rec.digest())
            ));
        }
        Ok(rec)
    }
}

fn req<'a>(v: &'a Json, key: &str) -> Result<&'a Json, String> {
    v.get(key).ok_or_else(|| format!("missing field `{key}`"))
}

fn bad(key: &str) -> String {
    format!("bad value for field `{key}`")
}

/// The campaign aggregate: pure commutative folds over case records.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Aggregate {
    /// Cases absorbed.
    pub total: u64,
    /// Count per [`CaseOutcome`] (indexed in `CaseOutcome::ALL` order).
    pub outcomes: [u64; 4],
    /// Total faults injected.
    pub faults: u64,
    /// Total NT-paths completed.
    pub nt_paths: u64,
    /// Total true-positive detections.
    pub detections: u64,
    /// Total covered edges (sum over cases, pre-merge).
    pub covered_edges: u64,
    /// `(exit class, count)` histogram.
    pub exits: BTreeMap<String, u64>,
    /// XOR of per-case digests (order-insensitive identity check).
    pub case_xor: u64,
    /// Wrapping sum of per-case digests (catches XOR-cancelling pairs).
    pub case_sum: u64,
    /// Merged coverage shards, keyed by program (`Coverage::merge` union).
    pub coverage: BTreeMap<String, Coverage>,
    /// Merged prime-path shards, keyed by program
    /// ([`PathCoverage::merge`] union; digest-checked).
    pub prime: BTreeMap<String, PathCoverage>,
}

impl Aggregate {
    /// Folds one case record in. Commutative: any absorption order yields
    /// the same aggregate.
    ///
    /// # Errors
    ///
    /// [`CampaignError::Corrupt`] when a coverage shard does not unpack or
    /// does not merge (foreign `code_len` under a known key).
    pub fn absorb(&mut self, rec: &CaseRecord) -> Result<(), CampaignError> {
        self.total += 1;
        let slot = CaseOutcome::ALL
            .iter()
            .position(|o| *o == rec.outcome)
            .expect("every outcome is in ALL");
        self.outcomes[slot] += 1;
        self.faults += rec.faults;
        self.nt_paths += rec.nt_paths;
        self.detections += rec.detections;
        self.covered_edges += rec.covered_edges;
        *self.exits.entry(rec.exit.clone()).or_insert(0) += 1;
        let d = rec.digest();
        self.case_xor ^= d;
        self.case_sum = self.case_sum.wrapping_add(d);
        if !rec.program_key.is_empty() {
            let corrupt = |e: px_mach::SimError| CampaignError::Corrupt {
                line: rec.id,
                why: format!("case {} coverage shard: {e}", rec.id),
            };
            let shard =
                Coverage::unpack_bits(rec.code_len as usize, &rec.cov_bits).map_err(corrupt)?;
            match self.coverage.get_mut(&rec.program_key) {
                Some(merged) => merged.merge(&shard).map_err(corrupt)?,
                None => {
                    self.coverage.insert(rec.program_key.clone(), shard);
                }
            }
        }
        if rec.path_set != 0 && !rec.program_key.is_empty() {
            let corrupt = |e: px_mach::SimError| CampaignError::Corrupt {
                line: rec.id,
                why: format!("case {} prime-path shard: {e}", rec.id),
            };
            let shard = PathCoverage::unpack_bits(
                rec.path_set,
                u32::try_from(rec.path_feasible).map_err(|_| CampaignError::Corrupt {
                    line: rec.id,
                    why: format!("case {} prime-path shard: path_feasible overflow", rec.id),
                })?,
                u32::try_from(rec.path_n).map_err(|_| CampaignError::Corrupt {
                    line: rec.id,
                    why: format!("case {} prime-path shard: path_n overflow", rec.id),
                })?,
                &rec.path_bits,
            )
            .map_err(corrupt)?;
            match self.prime.get_mut(&rec.program_key) {
                // A shard enumerated from a different prime-path set under
                // the same key surfaces as the typed PathSetMismatch here.
                Some(merged) => merged.merge(&shard).map_err(corrupt)?,
                None => {
                    self.prime.insert(rec.program_key.clone(), shard);
                }
            }
        }
        Ok(())
    }

    /// Cases in quarantine (every non-`Done` outcome).
    #[must_use]
    pub fn quarantined(&self) -> u64 {
        self.outcomes[1] + self.outcomes[2] + self.outcomes[3]
    }

    /// Count for one outcome.
    #[must_use]
    pub fn of(&self, outcome: CaseOutcome) -> u64 {
        let slot = CaseOutcome::ALL
            .iter()
            .position(|o| *o == outcome)
            .expect("every outcome is in ALL");
        self.outcomes[slot]
    }

    /// The canonical JSON the digest is computed over: counts, sorted
    /// histograms, commutative digest accumulators, and per-program merged
    /// coverage digests.
    #[must_use]
    pub fn to_json(&self) -> Json {
        let mut json = Json::obj([
            ("schema", "px-campaign/aggregate-v1".to_json()),
            ("total", self.total.to_json()),
            ("done", self.of(CaseOutcome::Done).to_json()),
            ("panicked", self.of(CaseOutcome::Panicked).to_json()),
            ("timed_out", self.of(CaseOutcome::TimedOut).to_json()),
            ("violated", self.of(CaseOutcome::Violated).to_json()),
            ("quarantined", self.quarantined().to_json()),
            ("faults", self.faults.to_json()),
            ("nt_paths", self.nt_paths.to_json()),
            ("detections", self.detections.to_json()),
            ("covered_edges", self.covered_edges.to_json()),
            (
                "exits",
                Json::Arr(
                    self.exits
                        .iter()
                        .map(|(class, n)| {
                            Json::obj([("class", class.to_json()), ("n", n.to_json())])
                        })
                        .collect(),
                ),
            ),
            ("case_xor", Json::Str(hex64(self.case_xor))),
            ("case_sum", Json::Str(hex64(self.case_sum))),
            (
                "coverage",
                Json::Arr(
                    self.coverage
                        .iter()
                        .map(|(key, cov)| {
                            Json::obj([
                                ("key", key.to_json()),
                                ("digest", Json::Str(hex64(fnv1a64(0, &cov.pack_bits())))),
                            ])
                        })
                        .collect(),
                ),
            ),
        ]);
        // The prime-path section is appended only when at least one shard
        // was absorbed, so aggregates of prime-path-free campaigns (and
        // their pinned digests) are byte-identical to the older format.
        if !self.prime.is_empty() {
            let rows = self
                .prime
                .iter()
                .map(|(key, cov)| {
                    Json::obj([
                        ("key", key.to_json()),
                        ("covered", Json::UInt(u64::from(cov.covered_count()))),
                        ("feasible", Json::UInt(u64::from(cov.feasible_total()))),
                        ("set", Json::Str(hex64(cov.set_digest()))),
                        ("digest", Json::Str(hex64(cov.digest(0)))),
                    ])
                })
                .collect();
            if let Json::Obj(pairs) = &mut json {
                pairs.push(("prime".to_owned(), Json::Arr(rows)));
            }
        }
        json
    }

    /// The aggregate digest — the single number two runs of the same
    /// manifest must agree on byte-for-byte.
    #[must_use]
    pub fn digest(&self) -> u64 {
        fnv1a64(0, self.to_json().dump().as_bytes())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(id: u64, outcome: CaseOutcome) -> CaseRecord {
        CaseRecord {
            id,
            case: format!("chaos:1:8#{id}"),
            outcome,
            exit: if outcome == CaseOutcome::Done {
                "exited".to_owned()
            } else {
                "-".to_owned()
            },
            faults: id,
            nt_paths: 2,
            detections: 0,
            covered_edges: 0,
            program_key: String::new(),
            code_len: 0,
            cov_bits: Vec::new(),
            path_set: 0,
            path_feasible: 0,
            path_n: 0,
            path_bits: Vec::new(),
            detail: String::new(),
        }
    }

    fn prime_record(id: u64, set: u64, bits: u8) -> CaseRecord {
        let mut rec = record(id, CaseOutcome::Done);
        rec.program_key = "zoo:parser:1/ccured".to_owned();
        rec.code_len = 8;
        rec.cov_bits = Coverage::new(8).pack_bits();
        rec.path_set = set;
        rec.path_feasible = 5;
        rec.path_n = 6;
        rec.path_bits = vec![bits];
        rec
    }

    #[test]
    fn record_lines_round_trip_with_digest() {
        let rec = record(7, CaseOutcome::TimedOut);
        let line = rec.to_line();
        let v = px_util::json::parse(&line).unwrap();
        let back = CaseRecord::from_json(&v).unwrap();
        assert_eq!(back, rec);
    }

    #[test]
    fn tampered_records_fail_the_digest_check() {
        let line = record(7, CaseOutcome::Done).to_line();
        let tampered = line.replace("\"faults\":7", "\"faults\":8");
        assert_ne!(line, tampered);
        let v = px_util::json::parse(&tampered).unwrap();
        let err = CaseRecord::from_json(&v).unwrap_err();
        assert!(err.contains("digest mismatch"), "{err}");
    }

    #[test]
    fn aggregate_is_order_insensitive() {
        let recs: Vec<CaseRecord> = (0..16)
            .map(|i| record(i, CaseOutcome::ALL[(i % 4) as usize]))
            .collect();
        let mut forward = Aggregate::default();
        for r in &recs {
            forward.absorb(r).unwrap();
        }
        let mut backward = Aggregate::default();
        for r in recs.iter().rev() {
            backward.absorb(r).unwrap();
        }
        assert_eq!(forward, backward);
        assert_eq!(forward.digest(), backward.digest());
        assert_eq!(forward.quarantined(), 12);
        assert_eq!(forward.of(CaseOutcome::Done), 4);
    }

    #[test]
    fn coverage_shards_merge_by_program_key() {
        let mut a = record(0, CaseOutcome::Done);
        a.program_key = "zoo:parser:1/ccured".to_owned();
        a.code_len = 8;
        let mut cov_a = Coverage::new(8);
        cov_a.record(0, px_isa::Edge::Taken);
        a.cov_bits = cov_a.pack_bits();

        let mut b = record(1, CaseOutcome::Done);
        b.program_key = a.program_key.clone();
        b.code_len = 8;
        let mut cov_b = Coverage::new(8);
        cov_b.record(3, px_isa::Edge::NotTaken);
        b.cov_bits = cov_b.pack_bits();

        let mut agg = Aggregate::default();
        agg.absorb(&a).unwrap();
        agg.absorb(&b).unwrap();
        let merged = &agg.coverage["zoo:parser:1/ccured"];
        let mut want = cov_a.clone();
        want.merge(&cov_b).unwrap();
        assert_eq!(*merged, want);

        // A shard with a foreign code_len under the same key is corrupt.
        let mut c = record(2, CaseOutcome::Done);
        c.program_key = a.program_key.clone();
        c.code_len = 4;
        c.cov_bits = Coverage::new(4).pack_bits();
        assert!(matches!(agg.absorb(&c), Err(CampaignError::Corrupt { .. })));
    }

    #[test]
    fn prime_shard_keys_round_trip_and_stay_absent_without_a_shard() {
        // Shard-free records must serialize without the prime-path keys so
        // their journal lines (and digests) match the pre-prime-path format.
        let plain = record(3, CaseOutcome::Done);
        assert!(!plain.to_line().contains("path_set"));

        let rec = prime_record(4, 0xfeed_beef, 0b0010_0101);
        let line = rec.to_line();
        assert!(line.contains("\"path_set\":"));
        let v = px_util::json::parse(&line).unwrap();
        assert_eq!(CaseRecord::from_json(&v).unwrap(), rec);
    }

    #[test]
    fn prime_shards_merge_by_program_key() {
        let a = prime_record(0, 0xabcd, 0b0000_0011);
        let b = prime_record(1, 0xabcd, 0b0010_0000);
        let mut agg = Aggregate::default();
        agg.absorb(&a).unwrap();
        agg.absorb(&b).unwrap();
        let merged = &agg.prime["zoo:parser:1/ccured"];
        assert_eq!(merged.covered_count(), 3);
        assert_eq!(merged.feasible_total(), 5);
        assert_eq!(merged.set_digest(), 0xabcd);
        let json = agg.to_json().dump();
        assert!(json.contains("\"prime\":["), "{json}");

        // A shard enumerated from a different prime-path set under the same
        // key must be rejected, not silently unioned.
        let c = prime_record(2, 0xdcba, 0b0000_0001);
        let err = agg.absorb(&c).unwrap_err();
        assert!(matches!(err, CampaignError::Corrupt { .. }));
        assert!(err.to_string().contains("prime-path"), "{err}");
    }

    #[test]
    fn prime_free_aggregates_omit_the_prime_section() {
        let mut agg = Aggregate::default();
        agg.absorb(&record(0, CaseOutcome::Done)).unwrap();
        assert!(!agg.to_json().dump().contains("\"prime\""));
    }

    #[test]
    fn outcome_names_round_trip() {
        for o in CaseOutcome::ALL {
            assert_eq!(CaseOutcome::parse(o.name()), Some(o));
        }
        assert_eq!(CaseOutcome::parse("wedged"), None);
        assert!(CaseOutcome::Panicked.quarantines());
        assert!(!CaseOutcome::Done.quarantines());
    }
}
