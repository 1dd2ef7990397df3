//! End-to-end test of profile-guided fix refitting — the §4.4
//! "value-invariants inference" extension.
//!
//! The scenario the paper motivates: a guard *looser* than the data it
//! protects. Boundary fixing pins the condition variable to the guard's
//! boundary (`slot = 63` for `slot < 64`), which overruns the 16-element
//! table it guards — a false positive no boundary fix can avoid. A
//! profiling run learns that whenever the guard actually held, `slot` was
//! at most 15; refitting moves the fix value there.

use pathexpander::{run, PxConfig};
use px_detect::{classify, report, Tool};
use px_lang::refit::collect_branch_profile;
use px_lang::{compile, refit_fixes, CompileOptions};
use px_mach::{IoState, MachConfig};

/// The guard `slot < 64` is usually false (slot ∈ [100, 115]) and
/// occasionally true (slot ∈ [0, 15]); the table has 16 entries. A separate
/// genuinely-buggy path (behind `cmd == 9`, never true) must still be
/// caught after refitting.
const LOOSE_GUARD: &str = "
int table[16];
int hits = 0;
int main() {
    int n = readint();
    int i;
    for (i = 0; i < 40; i = i + 1) {
        int slot = 100 + (n + i) % 16;
        if (i % 8 == 7) { slot = (n + i) % 16; }
        int cmd = n % 8;
        if (slot < 64) {
            table[slot] = table[slot] + 1;
            hits = hits + 1;
        }
        if (cmd == 9) {
            int k;
            for (k = 0; k <= 16; k = k + 1) {
                table[k] = 0; /*SEEDED*/
            }
        }
    }
    printint(hits);
    return 0;
}
";

fn bug_line(src: &str) -> u32 {
    src.lines().position(|l| l.contains("/*SEEDED*/")).unwrap() as u32 + 1
}

#[test]
fn refitting_removes_the_loose_guard_false_positive() {
    let src = LOOSE_GUARD;
    let opts = CompileOptions::ccured();
    let input = || IoState::new(b"5".to_vec(), 5);
    let bug = bug_line(src);
    let px_cfg = PxConfig::default().with_max_instructions(20_000_000);

    // 1. Boundary fixing: NT-paths into the cold `slot < 64` edge run with
    //    slot pinned to 63 and overrun the 16-entry table.
    let compiled = compile(src, &opts).unwrap();
    let result = run(
        &compiled.program,
        &MachConfig::single_core(),
        &px_cfg,
        input(),
    );
    let dets = report(&compiled, &result.monitor, Tool::Ccured);
    let before = classify(&dets, &[bug], true);
    assert_eq!(
        before.true_positives(),
        1,
        "the seeded bug is found with boundary fixing"
    );
    assert!(
        before.false_positives() >= 1,
        "boundary fixing leaves the loose-guard false positive: {dets:?}"
    );

    // 2. Profile on the same general input, refit, re-run.
    let mut refitted = compile(src, &opts).unwrap();
    let profile = collect_branch_profile(
        &refitted.program,
        &MachConfig::single_core(),
        input(),
        10_000_000,
    );
    let patched = refit_fixes(&mut refitted, &profile);
    assert!(patched > 0, "some fix values moved into observed ranges");

    let result = run(
        &refitted.program,
        &MachConfig::single_core(),
        &px_cfg,
        input(),
    );
    let dets = report(&refitted, &result.monitor, Tool::Ccured);
    let after = classify(&dets, &[bug], true);
    assert_eq!(
        after.true_positives(),
        1,
        "the seeded bug survives refitting"
    );
    assert!(
        after.false_positives() < before.false_positives(),
        "refitting prunes the loose-guard false positive ({} -> {})",
        before.false_positives(),
        after.false_positives()
    );

    // 3. Transparency: refitted programs behave identically when run
    //    normally (fixes are NOPs off the NT-path).
    let base_a = px_mach::run_baseline(
        &compiled.program,
        &MachConfig::single_core(),
        input(),
        20_000_000,
    );
    let base_b = px_mach::run_baseline(
        &refitted.program,
        &MachConfig::single_core(),
        input(),
        20_000_000,
    );
    assert_eq!(base_a.io.output_string(), base_b.io.output_string());
    assert_eq!(base_a.exit, base_b.exit);
}

#[test]
fn profile_and_refit_work_on_the_real_workloads() {
    // Refitting every workload must never lose a seeded-bug detection, and
    // must never increase NT-only false positives.
    for w in px_workloads::buggy() {
        let tool = w.tools[0];
        let io = || IoState::new(w.general_input(31), 31);
        let px_cfg = w.px_config().with_max_instructions(20_000_000);

        let plain = w.compile_for(tool).unwrap();
        let result = run(&plain.program, &MachConfig::single_core(), &px_cfg, io());
        let dets = report(&plain, &result.monitor, tool);
        let plain_c = classify(&dets, &w.bug_lines_for(tool), true);

        let mut refitted = w.compile_for(tool).unwrap();
        let profile = collect_branch_profile(
            &refitted.program,
            &MachConfig::single_core(),
            io(),
            20_000_000,
        );
        let _ = refit_fixes(&mut refitted, &profile);
        let result = run(&refitted.program, &MachConfig::single_core(), &px_cfg, io());
        let dets = report(&refitted, &result.monitor, tool);
        let refit_c = classify(&dets, &w.bug_lines_for(tool), true);

        assert!(
            refit_c.true_positives() >= plain_c.true_positives(),
            "{} ({}): refitting must not lose detections ({} -> {})",
            w.name,
            tool.name(),
            plain_c.true_positives(),
            refit_c.true_positives()
        );
        assert!(
            refit_c.false_positives() <= plain_c.false_positives(),
            "{} ({}): refitting must not add false positives ({} -> {})",
            w.name,
            tool.name(),
            plain_c.false_positives(),
            refit_c.false_positives()
        );
    }
}
