//! Regenerates the consistency-fixing results (paper Table 5). With
//! `--strategies`, also runs the fix-strategy ablation (design decision D4).
//!
//! ```text
//! table5_fixing [--strategies]
//! ```

use px_bench::experiments::ablations::ablation_fix_strategy;
use px_bench::experiments::tables::{table5, table5_averages};
use px_bench::fmt::render_table;

const USAGE: &str = "usage: table5_fixing [--strategies]\n\
     \n\
     --strategies  also run the fix-strategy ablation (bc, CCured)";

fn main() {
    let [strategies] = px_bench::read_flags(USAGE, ["--strategies"]);

    let rows = table5();
    let cells: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.tool.clone(),
                r.app.clone(),
                r.fp_before.to_string(),
                r.fp_after.to_string(),
                r.bugs_before.to_string(),
                r.bugs_after.to_string(),
            ]
        })
        .collect();
    println!("Table 5: False-positive pruning by key variable value fix\n");
    println!(
        "{}",
        render_table(
            &[
                "Method",
                "Application",
                "FP before",
                "FP after",
                "Bugs before",
                "Bugs after"
            ],
            &cells
        )
    );
    let (before, after) = table5_averages(&rows);
    println!("Average false positives: {before:.1} -> {after:.1} (paper: 13 -> 4)");

    if strategies {
        println!("\nFix-strategy ablation (bc, CCured):");
        let cells: Vec<Vec<String>> = ablation_fix_strategy()
            .iter()
            .map(|r| {
                vec![
                    r.strategy.clone(),
                    r.false_positives.to_string(),
                    r.bugs.to_string(),
                ]
            })
            .collect();
        println!(
            "{}",
            render_table(&["Strategy", "NT false positives", "Bugs found"], &cells)
        );
    }
}
