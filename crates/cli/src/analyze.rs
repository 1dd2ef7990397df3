//! `pxc analyze` — render px-analyze results for a program or workload.
//!
//! Human output summarises the CFG, feasibility, NT-safety and lint
//! findings; `--json` emits one canonical object (px-util's deterministic
//! emitter: insertion-ordered keys, byte-identical across runs) so the
//! golden test in `tests/analyze_golden.rs` can gate the format.

use px_analyze::{Analysis, PrimePathSet};
use px_isa::{Edge, Instruction, Program};
use px_util::Json;

/// Per-branch summary row used by both renderers.
struct BranchRow {
    pc: u32,
    line: u32,
    feasible: [bool; 2],
    /// Shortest static distance to an unsafe event per edge.
    unsafe_dist: [Option<u32>; 2],
}

fn branch_rows(program: &Program, analysis: &Analysis) -> Vec<BranchRow> {
    program
        .code
        .iter()
        .enumerate()
        .filter(|(_, insn)| matches!(insn, Instruction::Branch { .. }))
        .map(|(pc, _)| {
            let pc = pc as u32;
            let per_edge = |edge: Edge| {
                (
                    analysis.edge_feasible(pc, edge),
                    analysis.edge_unsafe_distance(program, pc, edge),
                )
            };
            let (ft, dt) = per_edge(Edge::Taken);
            let (fn_, dn) = per_edge(Edge::NotTaken);
            BranchRow {
                pc,
                line: program.source_line(pc),
                feasible: [ft, fn_],
                unsafe_dist: [dt, dn],
            }
        })
        .collect()
}

/// Renders the analysis as deterministic JSON.
#[must_use]
pub fn render_json(name: &str, program: &Program, analysis: &Analysis) -> String {
    let opt_u32 = |v: Option<u32>| v.map_or(Json::Null, |d| Json::UInt(u64::from(d)));
    let branches: Vec<Json> = branch_rows(program, analysis)
        .into_iter()
        .map(|row| {
            Json::obj([
                ("pc", Json::UInt(u64::from(row.pc))),
                ("line", Json::UInt(u64::from(row.line))),
                (
                    "feasible",
                    Json::Arr(vec![
                        Json::Bool(row.feasible[0]),
                        Json::Bool(row.feasible[1]),
                    ]),
                ),
                (
                    "unsafe_distance",
                    Json::Arr(vec![
                        opt_u32(row.unsafe_dist[0]),
                        opt_u32(row.unsafe_dist[1]),
                    ]),
                ),
            ])
        })
        .collect();
    let diagnostics: Vec<Json> = analysis
        .diagnostics()
        .iter()
        .map(|d| {
            Json::obj([
                ("kind", Json::Str(d.kind.name().to_owned())),
                ("pc", Json::UInt(u64::from(d.pc))),
                ("line", Json::UInt(u64::from(d.line))),
                ("message", Json::Str(d.message.clone())),
            ])
        })
        .collect();
    Json::obj([
        ("program", Json::Str(name.to_owned())),
        ("instructions", Json::UInt(program.code.len() as u64)),
        ("blocks", Json::UInt(analysis.cfg().blocks().len() as u64)),
        (
            "static_edges",
            Json::UInt(u64::from(program.static_edge_count())),
        ),
        (
            "feasible_edges",
            Json::UInt(u64::from(analysis.feasible_edge_count())),
        ),
        (
            "decided_branches",
            Json::UInt(u64::from(analysis.decided_branch_count(program))),
        ),
        ("prime_paths", analysis.prime_paths(program).to_json()),
        ("branches", Json::Arr(branches)),
        ("diagnostics", Json::Arr(diagnostics)),
    ])
    .dump()
}

/// Renders the Empc-style path-cover plan: the greedy minimal set of branch
/// edges whose exercise would cover every still-uncovered feasible prime
/// path. From static analysis alone nothing is covered yet, so the plan
/// targets the full feasible set.
#[must_use]
pub fn render_path_cover(name: &str, program: &Program, analysis: &Analysis, json: bool) -> String {
    let set = analysis.prime_paths(program);
    let covered = vec![false; set.len()];
    let cover = set.path_cover(program, &covered);
    if json {
        return Json::obj([
            ("program", Json::Str(name.to_owned())),
            ("paths_total", Json::UInt(set.len() as u64)),
            ("paths_feasible", Json::UInt(set.feasible_count() as u64)),
            ("truncated", Json::Bool(set.truncated())),
            ("cover", cover.to_json()),
        ])
        .dump();
    }
    render_path_cover_human(name, &set, &cover)
}

fn render_path_cover_human(
    name: &str,
    set: &PrimePathSet,
    cover: &px_analyze::PathCover,
) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{name}: {} prime paths, {} feasible{}",
        set.len(),
        set.feasible_count(),
        if set.truncated() {
            " (enumeration truncated)"
        } else {
            ""
        }
    );
    let _ = writeln!(
        out,
        "path cover:   {} edge pick(s), {} residual straight-line path(s)",
        cover.picks.len(),
        cover.residual.len()
    );
    for p in &cover.picks {
        let _ = writeln!(
            out,
            "  pc {:>5} {:<9} covers {} path(s)",
            p.pc,
            p.edge.name(),
            p.paths.len()
        );
    }
    out
}

/// Renders the analysis for humans.
#[must_use]
pub fn render_human(name: &str, program: &Program, analysis: &Analysis) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{name}: {} instructions, {} basic blocks",
        program.code.len(),
        analysis.cfg().blocks().len()
    );
    let _ = writeln!(
        out,
        "edges:        {} static, {} feasible ({} branch outcomes decided statically)",
        program.static_edge_count(),
        analysis.feasible_edge_count(),
        analysis.decided_branch_count(program)
    );
    let pp = analysis.prime_paths(program);
    let _ = writeln!(
        out,
        "prime paths:  {} enumerated, {} feasible, max length {}{}",
        pp.len(),
        pp.feasible_count(),
        pp.max_len(),
        if pp.truncated() {
            " (truncated at cap)"
        } else {
            ""
        }
    );
    let rows = branch_rows(program, analysis);
    let _ = writeln!(
        out,
        "branches:     pc  line  [taken not-taken]  unsafe-distance"
    );
    for row in &rows {
        let feas = |f: bool| if f { "feasible" } else { "infeasible" };
        let dist = |d: Option<u32>| d.map_or_else(|| "-".to_owned(), |d| d.to_string());
        let _ = writeln!(
            out,
            "  {:>6} {:>5}  [{} {}]  [{} {}]",
            row.pc,
            row.line,
            feas(row.feasible[0]),
            feas(row.feasible[1]),
            dist(row.unsafe_dist[0]),
            dist(row.unsafe_dist[1]),
        );
    }
    let diags = analysis.diagnostics();
    if diags.is_empty() {
        let _ = writeln!(out, "lint:         clean");
    } else {
        let _ = writeln!(out, "lint:         {} finding(s)", diags.len());
        for d in diags {
            let _ = writeln!(
                out,
                "  {}: pc {} (line {}): {}",
                d.kind.name(),
                d.pc,
                d.line,
                d.message
            );
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use px_isa::asm::assemble;

    fn sample() -> Program {
        assemble(
            r"
            .code
            main:
                li r2, 1              ; 0
                beq r2, zero, dead    ; 1
                readi                 ; 2
                beq r1, zero, out     ; 3
                nop                   ; 4
            out:
                exit                  ; 5
            dead:
                exit                  ; 6
            ",
        )
        .unwrap()
    }

    #[test]
    fn json_is_deterministic_and_structured() {
        let p = sample();
        let a1 = Analysis::of(&p);
        let a2 = Analysis::of(&p);
        let j1 = render_json("sample", &p, &a1);
        let j2 = render_json("sample", &p, &a2);
        assert_eq!(j1, j2, "byte-identical across runs");
        assert!(j1.contains("\"feasible_edges\":3"), "{j1}");
        assert!(j1.contains("\"static_edges\":4"), "{j1}");
        assert!(j1.contains("unreachable-code"), "{j1}");
    }

    #[test]
    fn human_output_summarises() {
        let p = sample();
        let a = Analysis::of(&p);
        let h = render_human("sample", &p, &a);
        assert!(h.contains("4 static, 3 feasible"), "{h}");
        assert!(h.contains("unreachable-code"), "{h}");
    }
}
