//! Regenerates the hardware-vs-software implementation comparison
//! (experiment E9, the paper's "3-4 orders of magnitude") from E8's
//! overhead rows.

use px_bench::fmt::{pct, render_table};

fn main() {
    let rows = px_bench::overhead();
    let cells: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.app.clone(),
                pct(r.standard),
                pct(r.cmp),
                format!("{:.0}x", r.software + 1.0),
                format!("{:.1}", r.orders_vs_cmp()),
            ]
        })
        .collect();
    println!("Hardware vs software PathExpander implementation\n");
    println!(
        "{}",
        render_table(
            &[
                "Application",
                "HW standard",
                "HW CMP",
                "SW slowdown",
                "Orders vs CMP"
            ],
            &cells
        )
    );
    let avg: f64 = rows.iter().map(|r| r.orders_vs_cmp()).sum::<f64>() / rows.len() as f64;
    println!("Average separation: {avg:.1} orders of magnitude (paper: 3-4)");
}
