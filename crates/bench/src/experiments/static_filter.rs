//! Experiment E14 (extension): the static NT-spawn filter.
//!
//! Runs every buggy application twice — paper configuration, then the same
//! configuration with `PxConfig::static_nt_filter` set — and reports the
//! spawn reduction next to a digest of each run's *committed* results. The
//! filter only vetoes NT-paths that px-analyze proves must hit an unsafe
//! event within the threshold, so the taken-path digests must be identical:
//! that equality is the row-level correctness gate (asserted by the
//! paper-claims suite), and the vetoed spawns are pure savings.

use pathexpander::PxRunResult;
use px_analyze::Analysis;
use px_isa::Edge;
use px_util::{par_map, Json, ToJson};
use px_workloads::buggy;

use super::{compile, primary_tool, run_px, SEED};

/// Default veto threshold: an NT-path certain to die within 10 instructions
/// cannot reach any coverage the taken path will not reach on its own
/// fall-through.
pub const DEFAULT_THRESHOLD: u32 = 10;

/// One application's filtered-vs-unfiltered comparison.
#[derive(Debug, Clone)]
pub struct StaticFilterRow {
    /// Application name.
    pub app: String,
    /// Veto threshold (instructions).
    pub threshold: u32,
    /// NT-paths spawned without / with the filter.
    pub spawns_base: u64,
    pub spawns_filtered: u64,
    /// Spawns the filter vetoed.
    pub vetoed: u64,
    /// NT instructions executed without / with the filter.
    pub nt_instructions_base: u64,
    pub nt_instructions_filtered: u64,
    /// Total (taken + NT) branch coverage without / with the filter.
    pub coverage_base: f64,
    pub coverage_filtered: f64,
    /// FNV-1a-64 digest of the committed results (exit, output,
    /// taken-path coverage) without / with the filter. Equal by
    /// construction: the filter never touches the taken path.
    pub taken_digest_base: String,
    pub taken_digest_filtered: String,
}

impl ToJson for StaticFilterRow {
    fn to_json(&self) -> Json {
        Json::obj([
            ("app", self.app.to_json()),
            ("threshold", Json::UInt(u64::from(self.threshold))),
            ("spawns_base", self.spawns_base.to_json()),
            ("spawns_filtered", self.spawns_filtered.to_json()),
            ("vetoed", self.vetoed.to_json()),
            ("nt_instructions_base", self.nt_instructions_base.to_json()),
            (
                "nt_instructions_filtered",
                self.nt_instructions_filtered.to_json(),
            ),
            ("coverage_base", self.coverage_base.to_json()),
            ("coverage_filtered", self.coverage_filtered.to_json()),
            ("taken_digest_base", self.taken_digest_base.to_json()),
            (
                "taken_digest_filtered",
                self.taken_digest_filtered.to_json(),
            ),
        ])
    }
}

/// Digest of a run's committed (taken-path) results: exit status, program
/// output, and the taken-path coverage bitmap. Cycles and NT statistics are
/// deliberately excluded — those are what the filter is allowed to change.
fn taken_digest(r: &PxRunResult, code_len: usize) -> u64 {
    let mut h = px_util::fnv1a64(0, &r.exit.digest_bytes());
    h = px_util::fnv1a64(h, r.io.output());
    for pc in 0..code_len as u32 {
        let bits = u8::from(r.taken_coverage.covered(pc, Edge::Taken))
            | (u8::from(r.taken_coverage.covered(pc, Edge::NotTaken)) << 1);
        h = px_util::fnv1a64(h, &[bits]);
    }
    h
}

/// Runs the comparison at `threshold` over the buggy applications.
#[must_use]
pub fn static_filter(threshold: u32) -> Vec<StaticFilterRow> {
    par_map(&buggy(), |w| {
        let tool = primary_tool(w);
        let compiled = compile(w, tool);
        let analysis = Analysis::of(&compiled.program);
        let feasible = analysis.feasible_edges();
        let base = run_px(w, &compiled, SEED, |c| c);
        let filtered = run_px(w, &compiled, SEED, |c| {
            c.with_static_nt_filter(Some(threshold))
        });
        let code_len = compiled.program.code.len();
        StaticFilterRow {
            app: w.name.to_owned(),
            threshold,
            spawns_base: base.stats.spawns,
            spawns_filtered: filtered.stats.spawns,
            vetoed: filtered.stats.skipped_static,
            nt_instructions_base: base.stats.nt_instructions,
            nt_instructions_filtered: filtered.stats.nt_instructions,
            coverage_base: base
                .total_coverage
                .branch_coverage_feasible(&compiled.program, feasible),
            coverage_filtered: filtered
                .total_coverage
                .branch_coverage_feasible(&compiled.program, feasible),
            taken_digest_base: format!("{:016x}", taken_digest(&base, code_len)),
            taken_digest_filtered: format!("{:016x}", taken_digest(&filtered, code_len)),
        }
    })
}

/// Summary: total spawns without/with the filter and whether every row's
/// taken digests match.
#[must_use]
pub fn static_filter_summary(rows: &[StaticFilterRow]) -> (u64, u64, bool) {
    let base: u64 = rows.iter().map(|r| r.spawns_base).sum();
    let filtered: u64 = rows.iter().map(|r| r.spawns_filtered).sum();
    let digests_match = rows
        .iter()
        .all(|r| r.taken_digest_base == r.taken_digest_filtered);
    (base, filtered, digests_match)
}
