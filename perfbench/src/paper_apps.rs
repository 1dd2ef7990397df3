//! `paper-apps`: the ten `px_workloads::all()` programs (seven Table-3
//! applications and three SPEC kernels), each compiled for each of its
//! tools and run by the baseline, standard and CMP engines under its paper
//! configuration, over general inputs drawn from `--seed`.

use px_util::{Rng, SplitMix64};

use crate::engine::{Bench, Engine, Op, Subject};
use crate::stats::{Spans, Tally};

/// Instruction safety valve per run — the evaluation harness's budget; no
/// paper application comes near it.
const BUDGET: u64 = 50_000_000;

/// Generates and compiles every program for its tools, decodes and
/// analyses it, and runs the goldens over `inputs` general inputs per
/// program. Every compiled program draws its own input seeds from `seed`,
/// so a program compiled for two tools runs on twice as many distinct
/// inputs, and the run lengths of one `--seed` rest on more draws.
pub fn setup(seed: u64, inputs: usize, spans: &mut Spans, tally: &mut Tally) -> Bench {
    let workloads = spans.time("workloads.generate", px_workloads::all);
    let mut rng = SplitMix64::new(seed);
    let (mut subjects, mut ops) = (Vec::new(), Vec::new());
    for w in &workloads {
        for &tool in &w.tools {
            let seeds: Vec<u64> = (0..inputs).map(|_| rng.next_u64() >> 24).collect();
            let name = format!("{}/{}", w.name, tool.name());
            let compiled = match spans.time("lang.compile", || w.compile_for(tool)) {
                Ok(c) => c,
                Err(e) => {
                    tally.check(false, || format!("{name} does not compile: {e}"));
                    continue;
                }
            };
            let px = w.px_config().with_max_instructions(BUDGET);
            let bug_lines = w.bug_lines_for(tool);
            let subject = subjects.len();
            subjects.push(Subject::new(
                name,
                compiled,
                Some(tool),
                bug_lines,
                &px,
                spans,
            ));
            for (input_id, &s) in seeds.iter().enumerate() {
                let input = w.general_input(s);
                for engine in Engine::ALL {
                    ops.push(Op {
                        subject,
                        engine,
                        input_id,
                        input: input.clone(),
                        io_seed: s,
                        timed: true,
                    });
                }
            }
        }
    }
    Bench::new(subjects, ops, |_| None, tally)
}
