//! Pins the paper's headline claims: every table and figure regenerated by
//! the harness must land in the band the paper reports (shape, not absolute
//! cycle counts — see DESIGN.md).

use px_bench::experiments::ablations::{
    ablation_fix_strategy, ablation_nt_from_nt, ablation_sandbox, extensions,
};
use px_bench::experiments::coverage::{
    coverage_averages, coverage_cumulative, cumulative_improvement,
};
use px_bench::experiments::overhead::overhead_averages;
use px_bench::experiments::tables::{table4, table4_totals, table5, table5_averages};

#[test]
fn table4_headline_38_0_21() {
    let rows = table4();
    let (tested, baseline, px) = table4_totals(&rows);
    assert_eq!(tested, 38, "Table 3/4: 38 tested bugs");
    assert_eq!(baseline, 0, "baseline detects none with general inputs");
    assert_eq!(px, 21, "PathExpander detects 21 of 38");
    // Spot rows quoted in the paper's text.
    let pt = rows
        .iter()
        .find(|r| r.tool == "Assertions" && r.app == "print_tokens")
        .expect("print_tokens row");
    assert_eq!((pt.tested, pt.pathexpander), (7, 5), "Pt: 5 of 7");
    for tool in ["CCured", "iWatcher"] {
        let bc = rows
            .iter()
            .find(|r| r.tool == tool && r.app == "bc")
            .expect("bc row");
        assert_eq!((bc.tested, bc.pathexpander), (2, 1), "bc: 1 of 2 per tool");
    }
}

#[test]
fn table5_false_positives_13_to_4_and_man_after_fixing() {
    let rows = table5();
    let (before, after) = table5_averages(&rows);
    assert!(
        (9.0..=17.0).contains(&before),
        "average FPs before fixing ≈ 13 (paper), got {before:.1}"
    );
    assert!(
        (2.0..=6.0).contains(&after),
        "average FPs after fixing ≈ 4 (paper), got {after:.1}"
    );
    assert!(
        before > after * 2.0,
        "fixing must prune most false positives"
    );
    for row in rows.iter().filter(|r| r.app == "man") {
        assert_eq!(
            (row.bugs_before, row.bugs_after),
            (0, 1),
            "man's bug is detected only after consistency fixing ({})",
            row.tool
        );
    }
}

#[test]
fn single_input_coverage_40_to_65() {
    let rows = px_bench::coverage();
    let (base, px) = coverage_averages(&rows);
    assert!(
        (0.30..=0.50).contains(&base),
        "baseline coverage ≈ 40% (paper), got {:.1}%",
        base * 100.0
    );
    assert!(
        (0.55..=0.75).contains(&px),
        "PathExpander coverage ≈ 65% (paper), got {:.1}%",
        px * 100.0
    );
    for r in &rows {
        assert!(
            r.pathexpander > r.baseline + 0.10,
            "{}: +10 points at least",
            r.app
        );
    }
}

#[test]
fn cumulative_coverage_improvement_around_19_points() {
    let rows = coverage_cumulative(20);
    let delta = cumulative_improvement(&rows);
    assert!(
        (0.12..=0.35).contains(&delta),
        "cumulative improvement ≈ +19 points (paper), got +{:.1}",
        delta * 100.0
    );
}

#[test]
fn cmp_overhead_below_9_9_percent() {
    let rows = px_bench::overhead();
    for r in &rows {
        assert!(
            r.cmp < 0.099,
            "{}: CMP overhead must stay below the paper's 9.9% bound, got {:.1}%",
            r.app,
            r.cmp * 100.0
        );
        assert!(
            r.standard >= r.cmp,
            "{}: the standard configuration cannot beat the CMP option",
            r.app
        );
    }
    let (std_avg, cmp_avg) = overhead_averages(&rows);
    assert!(
        cmp_avg < 0.05,
        "average CMP overhead is small: {:.2}%",
        cmp_avg * 100.0
    );
    assert!(
        std_avg > cmp_avg * 5.0,
        "CMP hides most of the standard overhead"
    );
    // "hundreds to thousands of new paths in each run" (paper §1.4(5)).
    assert!(
        rows.iter().all(|r| r.nt_paths >= 70),
        "plenty of NT-paths per run"
    );
}

#[test]
fn software_implementation_3_to_4_orders_worse() {
    let rows = px_bench::overhead();
    let avg: f64 = rows.iter().map(|r| r.orders_vs_cmp()).sum::<f64>() / rows.len() as f64;
    assert!(
        (2.5..=5.0).contains(&avg),
        "software vs CMP hardware ≈ 3-4 orders of magnitude (paper), got {avg:.1}"
    );
    for r in &rows {
        assert!(
            r.software > 20.0,
            "{}: the software implementation is crushingly slow ({}x)",
            r.app,
            r.software + 1.0
        );
    }
}

#[test]
fn fig3_most_nt_paths_survive_1000_instructions() {
    let panels = px_bench::fig3();
    for p in &panels {
        assert!(
            (0.55..=1.0).contains(&p.survived),
            "{}: 65-99% of NT-paths survive to 1000 instructions (paper), got {:.1}%",
            p.app,
            p.survived * 100.0
        );
        // CDFs must be monotone.
        for w in p.points.windows(2) {
            assert!(w[0].1 <= w[1].1, "{}: crash CDF monotone", p.app);
            assert!(w[0].2 <= w[1].2, "{}: unsafe CDF monotone", p.app);
        }
        assert!(p.spawned >= 100, "{}: enough NT-path samples", p.app);
    }
    let go = panels.iter().find(|p| p.app == "099.go").expect("go panel");
    let gzip = panels
        .iter()
        .find(|p| p.app == "164.gzip")
        .expect("gzip panel");
    let vpr = panels
        .iter()
        .find(|p| p.app == "175.vpr")
        .expect("vpr panel");
    assert!(
        go.survived > gzip.survived && go.survived > vpr.survived,
        "go (pure compute) survives best, like the paper's Figure 3(a)"
    );
    // gzip and vpr stop early mostly on unsafe events, not crashes.
    for p in [gzip, vpr] {
        let (_, crash, unsafe_cdf, _) = p.points[p.points.len() - 1];
        assert!(
            unsafe_cdf > crash,
            "{}: unsafe events dominate early stops (paper Figure 3(b,c))",
            p.app
        );
    }
}

#[test]
fn sensitivity_sweeps_follow_expected_shapes() {
    let points = px_bench::sensitivity();
    for app in px_bench::experiments::sensitivity::SWEEP_APPS {
        // Longer NT-paths: overhead grows monotonically, coverage never drops.
        let lens: Vec<_> = points
            .iter()
            .filter(|p| p.app == app && p.param == "max_nt_path_len")
            .collect();
        for w in lens.windows(2) {
            assert!(
                w[0].overhead <= w[1].overhead + 1e-9,
                "{app}: overhead grows with length"
            );
            assert!(
                w[0].coverage <= w[1].coverage + 1e-9,
                "{app}: coverage grows with length"
            );
        }
        // Higher threshold: more spawns, more overhead.
        let thr: Vec<_> = points
            .iter()
            .filter(|p| p.app == app && p.param == "counter_threshold")
            .collect();
        for w in thr.windows(2) {
            assert!(
                w[0].spawns <= w[1].spawns,
                "{app}: spawns grow with threshold"
            );
        }
    }
}

#[test]
fn ablation_nt_from_nt_worsens_crashes() {
    let r = ablation_nt_from_nt();
    assert!(
        r.crash_ratio_on > r.crash_ratio_off * 2.0,
        "forced non-taken edges from NT-paths sharply raise the crash ratio \
         (paper: 5% -> 16%), got {:.1}% -> {:.1}%",
        r.crash_ratio_off * 100.0,
        r.crash_ratio_on * 100.0
    );
    assert!(r.coverage_on >= r.coverage_off, "it does buy some coverage");
}

#[test]
fn ablation_sandbox_small_capacity_truncates_paths() {
    let points = ablation_sandbox();
    let small = &points[0];
    let large = points.last().expect("nonempty");
    assert!(small.capacity_bytes < large.capacity_bytes);
    assert!(
        small.overflow_ratio > 0.5,
        "a store-buffer-sized sandbox truncates most long NT-paths, got {:.1}%",
        small.overflow_ratio * 100.0
    );
    assert!(
        large.overflow_ratio < 0.05,
        "the paper's 16KB L1 rarely overflows"
    );
    assert!(
        small.mean_length < large.mean_length,
        "truncation shortens paths"
    );
}

#[test]
fn ablation_fix_strategies_agree_on_pruning() {
    let rows = ablation_fix_strategy();
    let none = rows
        .iter()
        .find(|r| r.strategy == "none")
        .expect("none row");
    let boundary = rows
        .iter()
        .find(|r| r.strategy == "boundary")
        .expect("boundary row");
    let random = rows
        .iter()
        .find(|r| r.strategy == "random-satisfying")
        .expect("random row");
    assert!(
        none.false_positives > boundary.false_positives,
        "fixing prunes FPs"
    );
    assert!(
        none.false_positives > random.false_positives,
        "any satisfying fix prunes FPs relative to no fixing"
    );
    // Note: random-satisfying values can land *fewer* false positives than
    // the boundary (they sit deeper inside the satisfying half-space, away
    // from off-by-constant residual sites) — the trade-off is that boundary
    // values best expose boundary-condition bugs, which is why the paper
    // picks them. Both must keep detecting the seeded bug:
    assert!(
        boundary.bugs >= none.bugs,
        "fixing never loses detections here"
    );
    assert_eq!(
        boundary.bugs, random.bugs,
        "both strategies find the seeded bug"
    );
    let profiled = rows
        .iter()
        .find(|r| r.strategy == "profiled")
        .expect("profiled row");
    assert!(
        profiled.false_positives <= boundary.false_positives,
        "profile-guided refitting never adds false positives"
    );
    assert_eq!(
        profiled.bugs, boundary.bugs,
        "refitting keeps the detection"
    );
}

#[test]
fn extensions_match_paper_projections() {
    let r = extensions();
    for (app, s) in &r.survival_os {
        assert!(
            *s > 0.90,
            "{app}: with OS sandboxing >90% of NT-paths survive (paper §3.2), got {:.1}%",
            s * 100.0
        );
    }
    for ((app, plain), (_, os)) in r.survival_plain.iter().zip(&r.survival_os) {
        assert!(os > plain, "{app}: OS sandboxing can only help");
    }
    assert!(!r.bc2_plain, "the hot-entry bug escapes by default");
    assert!(r.bc2_random, "the random factor exposes it (paper §7.1(2))");
}

#[test]
fn static_filter_saves_spawns_without_touching_the_taken_path() {
    use px_bench::experiments::static_filter::{static_filter, static_filter_summary};
    let rows = static_filter(10);
    let (base, filtered, digests_match) = static_filter_summary(&rows);
    assert!(
        digests_match,
        "the veto only suppresses NT spawns; committed results must be bit-identical"
    );
    assert!(
        filtered < base,
        "the must-die-within-K veto saves spawns somewhere ({base} -> {filtered})"
    );
    for r in &rows {
        assert!(
            r.spawns_filtered <= r.spawns_base,
            "{}: filtering never adds spawns",
            r.app
        );
        assert!(
            r.nt_instructions_filtered <= r.nt_instructions_base,
            "{}: filtering never adds NT work",
            r.app
        );
    }
}
