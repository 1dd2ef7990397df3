//! End-to-end §4.4 tests: compiled PXC programs under PathExpander, showing
//! (a) hidden bugs on non-taken paths are detected, (b) boundary fixing
//! removes false positives, and (c) blank data structures let NT-paths cross
//! null-pointer branches to reach real bugs — the `man` scenario of Table 5.

use pathexpander::{run, PxConfig};
use px_isa::CheckKind;
use px_lang::{compile, CompileOptions};
use px_mach::{IoState, MachConfig, RecordKind, RunExit};

fn ccured(src: &str) -> px_lang::CompiledProgram {
    compile(src, &CompileOptions::ccured()).expect("compile")
}

fn bound_failures(monitor: &px_mach::MonitorArea, nt_only: bool) -> Vec<u32> {
    monitor
        .records()
        .iter()
        .filter(|r| !nt_only || r.path.is_nt())
        .filter(|r| matches!(r.kind, RecordKind::Check(CheckKind::CcuredBound)))
        .map(|r| r.site)
        .collect()
}

/// `if (i < 4) a[i] = 1;` with i = 100: the then-edge is never taken. An
/// NT-path into it with the *unfixed* i=100 trips the bounds check (a false
/// positive); fixing i to the boundary value 3 keeps the access in bounds.
const FALSE_POSITIVE_SITE: &str = "
int a[4];
int main() {
    int i = readint();
    int steps;
    for (steps = 0; steps < 20; steps = steps + 1) {
        if (i < 4) {
            a[i] = 1;
        }
        i = i + 1;
    }
    return 0;
}
";

#[test]
fn boundary_fixing_prunes_false_positives() {
    let compiled = ccured(FALSE_POSITIVE_SITE);
    let mach = MachConfig::single_core();
    let io = || IoState::new(b"100".to_vec(), 1);

    let unfixed = run(
        &compiled.program,
        &mach,
        &PxConfig::default().with_fixes(false),
        io(),
    );
    assert_eq!(unfixed.exit, RunExit::Exited(0));
    let fp_before = bound_failures(&unfixed.monitor, true);
    assert!(
        !fp_before.is_empty(),
        "without fixing, the NT-path writes a[100] and trips the check"
    );

    let fixed = run(
        &compiled.program,
        &mach,
        &PxConfig::default().with_fixes(true),
        io(),
    );
    assert_eq!(fixed.exit, RunExit::Exited(0));
    let fp_after = bound_failures(&fixed.monitor, true);
    assert!(
        fp_after.is_empty(),
        "boundary fix i=3 keeps the NT access in bounds, got {fp_after:?}"
    );
}

/// The paper's Figure 1 shape: a real overflow guarded by a branch that the
/// general input never takes. Baseline misses it; PathExpander finds it.
const HIDDEN_OVERFLOW: &str = "
int buf[8];
int main() {
    int mode = readint();
    int i;
    for (i = 0; i < 30; i = i + 1) {
        if (mode == 77) {
            int k;
            for (k = 0; k <= 8; k = k + 1) {
                buf[k] = k;
            }
        }
    }
    return 0;
}
";

#[test]
fn hidden_overflow_found_only_with_pathexpander() {
    let compiled = ccured(HIDDEN_OVERFLOW);
    let mach = MachConfig::single_core();

    let baseline = px_mach::run_baseline(
        &compiled.program,
        &mach,
        IoState::new(b"1".to_vec(), 1),
        1_000_000,
    );
    assert!(
        bound_failures(&baseline.monitor, false).is_empty(),
        "baseline never executes the buggy path"
    );

    let px = run(
        &compiled.program,
        &mach,
        &PxConfig::default(),
        IoState::new(b"1".to_vec(), 1),
    );
    let found = bound_failures(&px.monitor, true);
    assert!(
        !found.is_empty(),
        "PathExpander exposes the buf[8] overflow"
    );
    // The reported site is the buggy line's bounds check.
    let site = compiled
        .sites
        .iter()
        .find(|s| found.contains(&s.id))
        .expect("site info");
    assert_eq!(site.kind, CheckKind::CcuredBound);
}

#[test]
fn hidden_overflow_found_by_cmp_option_too() {
    let compiled = ccured(HIDDEN_OVERFLOW);
    let px = run(
        &compiled.program,
        &MachConfig::default(),
        &PxConfig::default().cmp(),
        IoState::new(b"1".to_vec(), 1),
    );
    assert!(!bound_failures(&px.monitor, true).is_empty());
}

/// The `man` scenario (§7.2): the buggy code sits behind `if (p != 0)`, and
/// p is null in the monitored run. Without pointer fixing the NT-path
/// crashes on `p->len` before reaching the overflow; with the blank data
/// structure it survives and the real bug is detected.
const NULL_GUARDED_BUG: &str = "
struct Item { int len; int weight; };
int buf[4];
int main() {
    struct Item* p = 0;
    int rounds = readint();
    int i;
    for (i = 0; i < rounds; i = i + 1) {
        if (p != 0) {
            int n = p->len;
            int k;
            for (k = 0; k <= 4; k = k + 1) {
                buf[k] = n + k;
            }
        }
    }
    return 0;
}
";

#[test]
fn blank_structure_lets_nt_path_reach_the_bug() {
    let compiled = ccured(NULL_GUARDED_BUG);
    let mach = MachConfig::single_core();
    let io = || IoState::new(b"10".to_vec(), 1);

    let unfixed = run(
        &compiled.program,
        &mach,
        &PxConfig::default().with_fixes(false),
        io(),
    );
    assert!(
        bound_failures(&unfixed.monitor, true).is_empty(),
        "without fixing, the NT-path crashes on the null deref first"
    );
    assert!(unfixed.stats.stops_of("crash") > 0, "the NT-path did crash");

    let fixed = run(
        &compiled.program,
        &mach,
        &PxConfig::default().with_fixes(true),
        io(),
    );
    assert!(
        !bound_failures(&fixed.monitor, true).is_empty(),
        "with the blank structure, the NT-path reaches and reports the overflow"
    );
}

#[test]
fn coverage_improves_on_compiled_programs() {
    let compiled = ccured(HIDDEN_OVERFLOW);
    let mach = MachConfig::single_core();
    let px = run(
        &compiled.program,
        &mach,
        &PxConfig::default(),
        IoState::new(b"1".to_vec(), 1),
    );
    let taken = px.taken_coverage.branch_coverage(&compiled.program);
    let total = px.total_coverage.branch_coverage(&compiled.program);
    assert!(
        total > taken,
        "NT-paths must add branch coverage ({taken} vs {total})"
    );
}
