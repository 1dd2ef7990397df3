//! `pxc zoo` — list, generate and run programs from the generated workload
//! zoo.
//!
//! All three subcommands share the determinism contract of the rest of the
//! CLI: `--json` output is rendered with px-util's insertion-ordered
//! emitter and contains only simulated (machine-independent) quantities, so
//! two invocations with the same arguments are byte-identical — the golden
//! test in `tests/zoo_golden.rs` pins the `generate` format.

use pathexpander::Mode;
use px_analyze::Analysis;
use px_detect::{classify, first_true_positive_cycle, report, Tool};
use px_mach::{run_baseline, IoState, MachConfig};
use px_util::Json;
use px_workloads::zoo::{self, ZooSpec};
use px_workloads::Workload;

use crate::options::Options;

/// Renders `pxc zoo list`.
#[must_use]
pub fn list(json: bool) -> String {
    let specs = zoo::roster();
    if json {
        let rows: Vec<Json> = specs
            .iter()
            .map(|spec| {
                let w = zoo::generate(spec);
                Json::obj([
                    ("spec", Json::Str(spec.to_string())),
                    ("shape", Json::Str(spec.shape.name().to_owned())),
                    ("seed", Json::UInt(spec.seed)),
                    ("size", Json::UInt(u64::from(spec.size))),
                    ("mix", Json::Str(spec.mix.name().to_owned())),
                    ("loc", Json::UInt(w.loc() as u64)),
                    ("bugs", Json::UInt(w.bugs.len() as u64)),
                    (
                        "expected_detected",
                        Json::UInt(
                            w.bugs
                                .iter()
                                .filter(|b| b.escape.expected_detected())
                                .count() as u64,
                        ),
                    ),
                ])
            })
            .collect();
        Json::obj([
            ("schema", Json::Str("pxc/zoo-list-v1".to_owned())),
            ("families", Json::Arr(rows)),
        ])
        .dump()
    } else {
        let mut out = String::new();
        out.push_str("generated zoo roster (E15):\n");
        for spec in &specs {
            let w = zoo::generate(spec);
            out.push_str(&format!(
                "  {:28} {:4} LOC, {} bug(s), {} expected detected\n",
                spec.to_string(),
                w.loc(),
                w.bugs.len(),
                w.bugs
                    .iter()
                    .filter(|b| b.escape.expected_detected())
                    .count()
            ));
        }
        out.push_str(&format!("{} families\n", specs.len()));
        out
    }
}

/// Bug manifest rows shared by `generate` and `run` JSON.
fn bug_rows(w: &Workload) -> Vec<Json> {
    w.bugs
        .iter()
        .map(|b| {
            let class = zoo::bug_class_of(&b.id).map_or("?", |c| c.name());
            Json::obj([
                ("id", Json::Str(b.id.clone())),
                ("class", Json::Str(class.to_owned())),
                ("tool", Json::Str(b.tool.name().to_owned())),
                ("line", Json::UInt(u64::from(w.marker_line(&b.marker)))),
                (
                    "expected_detected",
                    Json::Bool(b.escape.expected_detected()),
                ),
                ("description", Json::Str(b.description.clone())),
            ])
        })
        .collect()
}

/// Renders `pxc zoo generate <spec>`.
///
/// # Errors
///
/// Reports malformed specs.
pub fn generate(spec_str: &str, json: bool) -> Result<String, String> {
    let spec = ZooSpec::parse(spec_str)?;
    let w = zoo::generate(&spec);
    if json {
        Ok(Json::obj([
            ("schema", Json::Str("pxc/zoo-generate-v1".to_owned())),
            ("spec", Json::Str(spec.to_string())),
            ("shape", Json::Str(spec.shape.name().to_owned())),
            ("seed", Json::UInt(spec.seed)),
            ("size", Json::UInt(u64::from(spec.size))),
            ("mix", Json::Str(spec.mix.name().to_owned())),
            ("loc", Json::UInt(w.loc() as u64)),
            ("max_nt_path_len", Json::UInt(u64::from(w.max_nt_path_len))),
            ("bugs", Json::Arr(bug_rows(&w))),
            ("source", Json::Str(w.source.clone())),
        ])
        .dump())
    } else {
        let mut out = String::new();
        out.push_str(&w.source);
        out.push_str(&format!(
            "\n/* {} — {} LOC, {} injected bug(s):\n",
            w.name,
            w.loc(),
            w.bugs.len()
        ));
        for b in &w.bugs {
            out.push_str(&format!(
                " *   {:8} line {:3} [{}] {} — {}\n",
                b.id,
                w.marker_line(&b.marker),
                b.tool.name(),
                if b.escape.expected_detected() {
                    "expect detect"
                } else {
                    "expect escape"
                },
                b.description
            ));
        }
        out.push_str(" */\n");
        Ok(out)
    }
}

/// Runs one generated program for every tool and renders the result.
///
/// # Errors
///
/// Reports malformed specs (compiles cannot fail for generated programs).
pub fn run(spec_str: &str, opts: &Options) -> Result<String, String> {
    let spec = ZooSpec::parse(spec_str)?;
    let w = zoo::generate(&spec);
    let mut px = opts.px.clone();
    if px.max_nt_path_len == pathexpander::PxConfig::default().max_nt_path_len {
        px.max_nt_path_len = w.max_nt_path_len;
    }
    let mach = px.mode.machine();
    let engine = match px.mode {
        Mode::Standard => "standard",
        Mode::Cmp => "cmp",
    };
    let input = w.general_input(opts.seed);

    let tools: Vec<Tool> = match opts.tool {
        Some(t) => vec![t],
        None => Tool::ALL.to_vec(),
    };
    let mut tool_rows = Vec::new();
    let mut human = String::new();
    human.push_str(&format!(
        "zoo run {} — engine {engine}, seed {}, {} LOC, {} bug(s)\n",
        w.name,
        opts.seed,
        w.loc(),
        w.bugs.len()
    ));
    for tool in tools {
        let compiled = w
            .compile_for(tool)
            .map_err(|e| format!("compile error: {e}"))?;
        let analysis = Analysis::of(&compiled.program);
        let feasible = analysis.feasible_edge_count();
        let io = IoState::new(input.clone(), opts.seed);
        let base = run_baseline(
            &compiled.program,
            &MachConfig::single_core(),
            io.clone(),
            px.max_instructions,
        );
        let r = pathexpander::run_with(&compiled.program, &mach, &px, io, None);

        // Classify against the union of all bug lines: an off-by-one bug
        // line also trips CCured's bounds check, and crediting it as a true
        // positive under either tool matches how the paper counts bugs.
        let all_lines: Vec<u32> = w.bugs.iter().map(|b| w.marker_line(&b.marker)).collect();
        let dets = report(&compiled, &r.monitor, tool);
        let base_dets = report(&compiled, &base.monitor, tool);
        let c = classify(&dets, &all_lines, false);
        let base_c = classify(&base_dets, &all_lines, false);
        let latency = first_true_positive_cycle(&compiled, &r.monitor, tool, &all_lines);

        let bug_rows: Vec<Json> = w
            .bugs
            .iter()
            .filter(|b| b.tool == tool)
            .map(|b| {
                let line = w.marker_line(&b.marker);
                let detected = c.true_positive_lines.contains(&line);
                Json::obj([
                    ("id", Json::Str(b.id.clone())),
                    ("line", Json::UInt(u64::from(line))),
                    (
                        "expected_detected",
                        Json::Bool(b.escape.expected_detected()),
                    ),
                    ("detected", Json::Bool(detected)),
                ])
            })
            .collect();
        human.push_str(&format!(
            "  [{}] taken {}/{} feasible edges, px {}/{}; \
             base TPs {}, px TPs {}, FPs {}, spawns {}{}\n",
            tool.name(),
            r.taken_coverage
                .covered_feasible_edges(&compiled.program, analysis.feasible_edges()),
            feasible,
            r.total_coverage
                .covered_feasible_edges(&compiled.program, analysis.feasible_edges()),
            feasible,
            base_c.true_positive_lines.len(),
            c.true_positive_lines.len(),
            c.false_positive_lines.len(),
            r.stats.spawns,
            latency.map_or(String::new(), |c| format!(", first TP @cycle {c}")),
        ));
        for b in w.bugs.iter().filter(|b| b.tool == tool) {
            let line = w.marker_line(&b.marker);
            let detected = c.true_positive_lines.contains(&line);
            human.push_str(&format!(
                "      {:8} line {:3} expected={} detected={}\n",
                b.id,
                line,
                b.escape.expected_detected(),
                detected
            ));
        }
        tool_rows.push(Json::obj([
            ("tool", Json::Str(tool.name().to_owned())),
            ("exit", Json::Str(format!("{:?}", r.exit))),
            ("cycles", Json::UInt(r.cycles)),
            ("spawns", Json::UInt(r.stats.spawns)),
            ("feasible_edges", Json::UInt(u64::from(feasible))),
            (
                "taken_feasible_covered",
                Json::UInt(u64::from(r.taken_coverage.covered_feasible_edges(
                    &compiled.program,
                    analysis.feasible_edges(),
                ))),
            ),
            (
                "total_feasible_covered",
                Json::UInt(u64::from(r.total_coverage.covered_feasible_edges(
                    &compiled.program,
                    analysis.feasible_edges(),
                ))),
            ),
            (
                "baseline_true_positives",
                Json::UInt(base_c.true_positive_lines.len() as u64),
            ),
            (
                "true_positives",
                Json::UInt(c.true_positive_lines.len() as u64),
            ),
            (
                "false_positives",
                Json::UInt(c.false_positive_lines.len() as u64),
            ),
            ("first_tp_cycle", latency.map_or(Json::Null, Json::UInt)),
            ("bugs", Json::Arr(bug_rows)),
        ]));
    }
    if opts.json {
        Ok(Json::obj([
            ("schema", Json::Str("pxc/zoo-run-v1".to_owned())),
            ("spec", Json::Str(spec.to_string())),
            ("engine", Json::Str(engine.to_owned())),
            ("seed", Json::UInt(opts.seed)),
            ("tools", Json::Arr(tool_rows)),
        ])
        .dump())
    } else {
        Ok(human)
    }
}
