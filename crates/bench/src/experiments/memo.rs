//! Replay-cache checks over the standard and CMP rows of the throughput
//! matrix (experiment E18). The matrix itself lives in [`super::perf`].

#[cfg(test)]
mod tests {
    use crate::experiments::perf::{matrix, COMMITTED, MIN_NT_HEAVY_HIT_RATE};
    use px_util::ToJson;

    #[test]
    fn memo_gate_passes_and_is_deterministic() {
        let report = matrix();
        assert!(
            report.passed(),
            "digests must be identical and nt-heavy must replay: {:?}",
            report
                .failures()
                .iter()
                .map(|r| format!("{}/{}", r.engine, r.workload))
                .collect::<Vec<_>>()
        );
        for r in report.rows.iter().filter(|r| r.workload == "nt-heavy") {
            if let Some(m) = &r.memo {
                assert!(
                    m.counters.hit_rate() >= MIN_NT_HEAVY_HIT_RATE,
                    "{}/nt-heavy hit rate {}",
                    r.engine,
                    m.counters.hit_rate()
                );
            }
        }
        // Determinism across runs: every memo row, counters included, is
        // byte-identical to the row in the committed file, which an earlier
        // process produced.
        for r in report.rows.iter().filter(|r| r.memo.is_some()) {
            let row = r.to_json().dump();
            assert!(
                COMMITTED.contains(&row),
                "{}/{} differs from the committed row: {row}",
                r.engine,
                r.workload
            );
        }
    }

    #[test]
    fn every_row_actually_probes_the_cache() {
        for r in matrix().rows.iter() {
            let Some(m) = &r.memo else { continue };
            let c = &m.counters;
            assert!(
                r.nt_paths > 0,
                "{}/{} must spawn NT-paths",
                r.engine,
                r.workload
            );
            assert!(
                c.hits + c.misses + c.invalidations + c.bypasses > 0,
                "{}/{} never touched the cache",
                r.engine,
                r.workload
            );
        }
    }
}
