//! Hit/miss counters for the NT-path replay cache.
//!
//! The cache itself (`px_mach::memo::MemoTable`) keeps one state per
//! (spawn pc, NT target) key in a plain hash map; the program bounds it, so
//! it has no capacity limit and evicts nothing. Its counters live here so
//! the layers that report them import no machine types.

/// Hit/miss/store accounting for a memo cache.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MemoCounters {
    /// Probes that found a valid entry and replayed it.
    pub hits: u64,
    /// Probes that found no entry under the key: the key was unknown (the
    /// probe asks for a recording) or a live path is recording it.
    pub misses: u64,
    /// Probes that found the key's entry failing validation against the
    /// live machine state, or the key already dead from such a failure.
    pub invalidations: u64,
    /// Entries stored.
    pub stores: u64,
    /// Always 0: the table evicts nothing. Kept only because the
    /// benchmark harness reports it.
    pub evictions: u64,
    /// Finished recordings that were not stored: the recorder aborted over
    /// a cap, or the path stopped in a way that is not memoizable.
    pub bypasses: u64,
    /// Recordings declined: the key is dead (its entry once failed
    /// validation, and a dead key is never recorded again), or another
    /// live path is already recording it.
    pub skips: u64,
}

impl MemoCounters {
    /// Fraction of probes that hit, in `[0, 1]`. Zero when nothing probed.
    #[must_use]
    pub fn hit_rate(&self) -> f64 {
        let probes = self.hits + self.misses + self.invalidations;
        if probes == 0 {
            return 0.0;
        }
        self.hits as f64 / probes as f64
    }

    /// Accumulate another counter set into this one.
    pub fn merge(&mut self, other: &MemoCounters) {
        self.hits += other.hits;
        self.misses += other.misses;
        self.invalidations += other.invalidations;
        self.stores += other.stores;
        self.evictions += other.evictions;
        self.bypasses += other.bypasses;
        self.skips += other.skips;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_merge_and_hit_rate() {
        let mut a = MemoCounters {
            hits: 3,
            misses: 1,
            invalidations: 0,
            stores: 1,
            evictions: 0,
            bypasses: 2,
            skips: 5,
        };
        let b = MemoCounters {
            hits: 1,
            misses: 2,
            invalidations: 1,
            stores: 3,
            evictions: 1,
            bypasses: 0,
            skips: 1,
        };
        a.merge(&b);
        assert_eq!(a.hits, 4);
        assert_eq!(a.misses, 3);
        assert_eq!(a.invalidations, 1);
        assert_eq!(a.stores, 4);
        assert_eq!(a.evictions, 1);
        assert_eq!(a.bypasses, 2);
        assert_eq!(a.skips, 6);
        assert!((a.hit_rate() - 0.5).abs() < 1e-12);
        assert_eq!(MemoCounters::default().hit_rate(), 0.0);
    }
}
