//! Fixed-capacity seeded-hash memo map and hit/miss counters.
//!
//! The NT-path replay cache (`px_mach::memo`) needs a bounded associative
//! store with deterministic behavior: no rehashing, no unbounded growth, and
//! an eviction policy that is a pure function of the insertion/lookup history
//! so memoized runs stay reproducible. [`FixedMap`] is that store: an
//! open-addressed table with a power-of-two capacity, a seeded 64-bit hash
//! mix, a short linear probe window, and least-used eviction inside the
//! window when it is full.

/// Probe window of a [`FixedMap`]: a key may live in any of this many slots
/// starting at its home slot.
pub const PROBE_WINDOW: usize = 8;

/// Hit/miss/store accounting for a memo cache.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MemoCounters {
    /// Probes that found a valid entry and replayed it.
    pub hits: u64,
    /// Probes that found no entry under the key.
    pub misses: u64,
    /// Probes that found the key's entry failing validation against the
    /// live machine state, or the key already dead from such a failure.
    pub invalidations: u64,
    /// Entries stored.
    pub stores: u64,
    /// Slots displaced to make room for another key.
    pub evictions: u64,
    /// Finished recordings that were not stored (recorder aborted over a
    /// cap, non-memoizable stop reason, or the key stored meanwhile by a
    /// concurrent path).
    pub bypasses: u64,
    /// Recordings declined because the key is dead: its entry once failed
    /// validation, and a dead key is never recorded again.
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

#[derive(Debug, Clone)]
struct Slot<V> {
    key: u64,
    uses: u64,
    value: V,
}

/// Fixed-capacity open-addressed map with seeded hashing and least-used
/// eviction within a short probe window.
///
/// Capacity is rounded up to a power of two and never changes; inserting
/// into a full window displaces the least-used slot (ties broken by lowest
/// slot index, deterministically). Lookups bump a per-slot use counter so
/// frequently replayed entries survive pressure.
#[derive(Debug, Clone)]
pub struct FixedMap<V> {
    slots: Vec<Option<Slot<V>>>,
    mask: u64,
    seed: u64,
    len: usize,
}

impl<V> FixedMap<V> {
    /// Create a map with at least `capacity` slots (rounded up to a power of
    /// two, minimum one probe window).
    #[must_use]
    pub fn new(capacity: usize, seed: u64) -> FixedMap<V> {
        let cap = capacity.next_power_of_two().max(PROBE_WINDOW);
        FixedMap {
            slots: (0..cap).map(|_| None).collect(),
            mask: (cap - 1) as u64,
            seed,
            len: 0,
        }
    }

    /// Number of occupied slots.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no slot is occupied.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Total slot count.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    fn home(&self, key: u64) -> usize {
        // 64-bit finalizer mix over the seeded key: probes of nearby keys
        // (spawn pcs differ by a few words) spread across the table.
        let mut h = key ^ self.seed;
        h ^= h >> 33;
        h = h.wrapping_mul(0xFF51_AFD7_ED55_8CCD);
        h ^= h >> 33;
        h = h.wrapping_mul(0xC4CE_B9FE_1A85_EC53);
        h ^= h >> 33;
        (h & self.mask) as usize
    }

    /// Look up `key`, bumping its use counter on success.
    pub fn get_mut(&mut self, key: u64) -> Option<&mut V> {
        let home = self.home(key);
        for i in 0..PROBE_WINDOW {
            let idx = (home + i) & self.mask as usize;
            if let Some(s) = &self.slots[idx] {
                if s.key == key {
                    let s = self.slots[idx].as_mut().expect("slot just matched");
                    s.uses += 1;
                    return Some(&mut s.value);
                }
            }
        }
        None
    }

    /// Insert `value` under `key`. Replaces an existing entry for the same
    /// key; otherwise takes the first empty slot in the window, or displaces
    /// the least-used slot. Returns whether another key's entry was
    /// displaced, so the owner can count evictions.
    pub fn insert(&mut self, key: u64, value: V) -> bool {
        let home = self.home(key);
        let mut empty: Option<usize> = None;
        let mut victim = home;
        let mut victim_uses = u64::MAX;
        for i in 0..PROBE_WINDOW {
            let idx = (home + i) & self.mask as usize;
            match &self.slots[idx] {
                Some(s) if s.key == key => {
                    let s = self.slots[idx].as_mut().expect("slot just matched");
                    s.value = value;
                    s.uses += 1;
                    return false;
                }
                Some(s) => {
                    if s.uses < victim_uses {
                        victim_uses = s.uses;
                        victim = idx;
                    }
                }
                None => {
                    if empty.is_none() {
                        empty = Some(idx);
                    }
                }
            }
        }
        let (idx, evicted) = match empty {
            Some(idx) => {
                self.len += 1;
                (idx, false)
            }
            None => (victim, true),
        };
        self.slots[idx] = Some(Slot {
            key,
            uses: 0,
            value,
        });
        evicted
    }

    /// Drop every entry, keeping capacity.
    pub fn clear(&mut self) {
        for s in &mut self.slots {
            *s = None;
        }
        self.len = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_then_get() {
        let mut m: FixedMap<u32> = FixedMap::new(16, 7);
        assert!(m.is_empty());
        m.insert(1, 10);
        m.insert(2, 20);
        assert_eq!(m.len(), 2);
        assert_eq!(m.get_mut(1).copied(), Some(10));
        assert_eq!(m.get_mut(2).copied(), Some(20));
        assert_eq!(m.get_mut(3).copied(), None);
    }

    #[test]
    fn insert_same_key_replaces() {
        let mut m: FixedMap<u32> = FixedMap::new(16, 7);
        assert!(!m.insert(5, 1));
        assert!(!m.insert(5, 2), "replacing a key evicts nothing");
        assert_eq!(m.len(), 1);
        assert_eq!(m.get_mut(5).copied(), Some(2));
    }

    #[test]
    fn full_window_evicts_least_used() {
        // Capacity equal to the probe window forces every key into the same
        // circular window, so window pressure is easy to stage.
        let mut m: FixedMap<u64> = FixedMap::new(PROBE_WINDOW, 99);
        for k in 0..PROBE_WINDOW as u64 {
            assert!(!m.insert(k, k));
        }
        assert_eq!(m.len(), PROBE_WINDOW);
        // Touch every key except 3 so key 3 is the least-used victim.
        for k in 0..PROBE_WINDOW as u64 {
            if k != 3 {
                assert!(m.get_mut(k).is_some());
            }
        }
        assert!(m.insert(1000, 1000), "a full window displaces an entry");
        assert_eq!(m.get_mut(1000).copied(), Some(1000));
        assert_eq!(m.get_mut(3), None, "least-used entry was displaced");
        for k in 0..PROBE_WINDOW as u64 {
            if k != 3 {
                assert_eq!(m.get_mut(k).copied(), Some(k));
            }
        }
    }

    #[test]
    fn deterministic_across_clones_of_history() {
        let run = |seed: u64| {
            let mut m: FixedMap<u64> = FixedMap::new(32, seed);
            let mut evictions = 0;
            for k in 0..100 {
                evictions += u64::from(m.insert(k * 3, k));
                m.get_mut(k);
            }
            let mut alive: Vec<u64> = (0..100).filter(|k| m.get_mut(k * 3).is_some()).collect();
            alive.sort_unstable();
            (alive, evictions)
        };
        assert_eq!(run(42), run(42), "same seed, same history, same survivors");
    }

    #[test]
    fn clear_keeps_capacity() {
        let mut m: FixedMap<u8> = FixedMap::new(16, 1);
        m.insert(1, 1);
        m.clear();
        assert!(m.is_empty());
        assert_eq!(m.capacity(), 16);
        assert_eq!(m.get_mut(1), None);
    }

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
