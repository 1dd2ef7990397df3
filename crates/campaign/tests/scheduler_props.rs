//! Scheduler-determinism properties: whatever the worker count or (seeded)
//! kill point, the same manifest produces the same set of case
//! records — identical NDJSON modulo ordering — and the same merged
//! coverage/aggregate digest.

use px_campaign::{run, CampaignConfig, Manifest};
use px_util::px_prop;

fn journal_case_lines(cfg: &CampaignConfig) -> Vec<String> {
    let text = std::fs::read_to_string(&cfg.journal).unwrap();
    let mut lines: Vec<String> = text
        .lines()
        .filter(|l| l.contains("\"t\":\"case\""))
        .map(str::to_owned)
        .collect();
    lines.sort();
    lines
}

fn cfg_for(name: &str, manifest: &str, workers: usize) -> CampaignConfig {
    let journal =
        std::env::temp_dir().join(format!("px-sched-{}-{name}.ndjson", std::process::id()));
    let _ = std::fs::remove_file(&journal);
    let mut c = CampaignConfig::new(Manifest::parse(manifest).unwrap(), journal);
    c.timeout = 10_000;
    c.workers = workers;
    c.checkpoint_every = 7;
    c
}

fn cleanup(c: &CampaignConfig) {
    let _ = std::fs::remove_file(&c.journal);
    let mut q = c.journal.as_os_str().to_owned();
    q.push(".quarantine");
    let _ = std::fs::remove_file(std::path::PathBuf::from(q));
}

px_prop! {
    cases = 8;

    fn same_manifest_same_records_any_schedule(
        workers in 1u32..5,
        chaos_seed in 1u64..50,
    ) {
        let manifest = format!("chaos:{chaos_seed}:12+fault:2:6");
        let a = cfg_for(&format!("a{workers}-{chaos_seed}"), &manifest, 1);
        let b = cfg_for(&format!("b{workers}-{chaos_seed}"), &manifest, workers as usize);
        let ra = run(&a).unwrap();
        let rb = run(&b).unwrap();
        assert!(ra.complete() && rb.complete());
        // Same NDJSON case records, modulo completion order.
        assert_eq!(journal_case_lines(&a), journal_case_lines(&b));
        // Same aggregate (and thus merged-coverage) digest.
        assert_eq!(ra.digest(), rb.digest());
        cleanup(&a);
        cleanup(&b);
    }

    fn kill_points_never_change_the_final_digest(
        kill in 1u64..17,
        workers in 1u32..4,
    ) {
        let manifest = "chaos:9:18";
        let straight = cfg_for(&format!("s{kill}-{workers}"), manifest, 2);
        let want = run(&straight).unwrap();
        assert!(want.complete());

        let mut c = cfg_for(&format!("k{kill}-{workers}"), manifest, workers as usize);
        c.kill_after = Some(kill);
        let partial = run(&c).unwrap();
        assert!(partial.interrupted);
        c.kill_after = None;
        let resumed = run(&c).unwrap();
        assert!(resumed.complete());
        assert_eq!(resumed.digest(), want.digest());
        assert_eq!(resumed.resumed + resumed.ran, 18);
        cleanup(&straight);
        cleanup(&c);
    }
}

/// Zoo campaigns merge coverage shards identically across schedules (the
/// costly case — full program runs — so it sits outside the property loop).
#[test]
fn zoo_coverage_merges_identically_across_schedules() {
    let manifest = "zoo:parser:3*2+zoo:state-machine:1";
    let a = cfg_for("zoo-seq", manifest, 1);
    let b = cfg_for("zoo-par", manifest, 3);
    let ra = run(&a).unwrap();
    let rb = run(&b).unwrap();
    assert!(ra.complete() && rb.complete());
    assert!(
        !ra.aggregate.coverage.is_empty(),
        "zoo cases shard coverage"
    );
    assert_eq!(
        ra.aggregate.coverage.keys().collect::<Vec<_>>(),
        rb.aggregate.coverage.keys().collect::<Vec<_>>()
    );
    assert_eq!(ra.digest(), rb.digest());
    assert_eq!(journal_case_lines(&a), journal_case_lines(&b));
    cleanup(&a);
    cleanup(&b);
}
