//! The branch target buffer, extended with PathExpander's per-edge exercise
//! counters (paper §4.1: "extending the BTB with 2 four-bit exercise
//! counters, one for each edge").

use core::cell::RefCell;

use px_isa::Edge;

use crate::fault::SimError;
use crate::shelf::{mark, Shelf};

thread_local! {
    static FREE: RefCell<Vec<Vec<BtbEntry>>> = const { RefCell::new(Vec::new()) };
}

/// Entry arrays of dropped BTBs, zeroed, waiting for a [`Btb::try_new`] of
/// the same length: one array of at most the paper's 2048 entries (48 KiB).
static ENTRIES: Shelf<BtbEntry> = Shelf::new(&FREE, 1, 2048);

#[derive(Debug, Clone, Copy, Default)]
struct BtbEntry {
    tag: u32,
    valid: bool,
    lru: u64,
    counters: [u8; 2],
    /// Reset epoch the counters belong to; counters from an older epoch
    /// read as zero (see [`Btb::reset_counters`]).
    epoch: u64,
}

/// Saturation limit of the 4-bit exercise counters.
pub const COUNTER_MAX: u8 = 15;

/// A set-associative BTB holding 4-bit exercise counters per branch edge.
///
/// A BTB miss reads as count zero (paper §4.2(1)), and allocating a new entry
/// may displace another branch's counters — an intentional source of
/// imprecision the paper inherits from using the BTB as storage.
///
/// Entries live in one flat stride-indexed vector (`set × assoc + way`).
/// The periodic `CounterResetInterval` reset is O(1): it bumps a reset
/// epoch instead of walking every entry, and counters stamped with an older
/// epoch read as zero. With the paper's interval of tens of instructions a
/// physical walk of all 2048 entries would dominate taken-path simulation
/// cost.
///
/// Like a [`crate::Cache`], a BTB costs what a run touches: an entry is
/// written only in a set marked first (on allocation), and a dropped BTB
/// zeroes only its marked sets before its array goes to a per-thread
/// shelf, where the next [`Btb::try_new`] of that size finds it.
#[derive(Debug, Clone)]
pub struct Btb {
    entries: Vec<BtbEntry>,
    /// Bit `s % 64` of word `s / 64` set ⇔ set `s` may hold an entry that
    /// is not `BtbEntry::default()`.
    touched: Vec<u64>,
    assoc: usize,
    set_bits: u32,
    clock: u64,
    /// Current counter-reset epoch.
    epoch: u64,
}

impl Btb {
    /// Creates a BTB with `entries` total entries and `assoc` ways.
    ///
    /// # Panics
    ///
    /// Panics unless `entries / assoc` is a nonzero power of two (use
    /// [`Btb::try_new`] for untrusted configurations).
    #[must_use]
    pub fn new(entries: u32, assoc: u32) -> Btb {
        Btb::try_new(entries, assoc).expect("BTB sets must be a power of two")
    }

    /// Creates a BTB, rejecting inconsistent geometry without panicking,
    /// and reusing a dropped BTB's entry array of that size when this
    /// thread holds one.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::BadBtbGeometry`] unless `entries / assoc` is a
    /// nonzero power of two.
    pub fn try_new(entries: u32, assoc: u32) -> Result<Btb, SimError> {
        if assoc == 0 {
            return Err(SimError::BadBtbGeometry("associativity must be at least 1"));
        }
        let sets = entries / assoc;
        if sets == 0 || !sets.is_power_of_two() {
            return Err(SimError::BadBtbGeometry(
                "sets must be a nonzero power of two",
            ));
        }
        let len = (sets * assoc) as usize;
        Ok(Btb {
            entries: ENTRIES
                .take(len)
                .unwrap_or_else(|| vec![BtbEntry::default(); len]),
            touched: vec![0; (sets as usize).div_ceil(64)],
            assoc: assoc as usize,
            set_bits: sets.trailing_zeros(),
            clock: 0,
            epoch: 0,
        })
    }

    #[inline]
    fn index(&self, pc: u32) -> (usize, u32) {
        let mask = (1u32 << self.set_bits) - 1;
        ((pc & mask) as usize, pc >> self.set_bits)
    }

    /// The exercise count of `edge` at branch `pc`; a miss reads as zero,
    /// and so does an entry whose counters predate the current reset epoch.
    #[must_use]
    #[inline]
    pub fn edge_count(&self, pc: u32, edge: Edge) -> u8 {
        let (set, tag) = self.index(pc);
        let base = set * self.assoc;
        self.entries[base..base + self.assoc]
            .iter()
            .find(|e| e.valid && e.tag == tag)
            .map_or(0, |e| {
                if e.epoch == self.epoch {
                    e.counters[edge.slot()]
                } else {
                    0
                }
            })
    }

    /// Records one execution of `edge` at branch `pc`, allocating (and
    /// possibly evicting) a BTB entry. Counters saturate at [`COUNTER_MAX`].
    #[inline]
    pub fn exercise(&mut self, pc: u32, edge: Edge) {
        self.clock += 1;
        let clock = self.clock;
        let epoch = self.epoch;
        let (set_idx, tag) = self.index(pc);
        let base = set_idx * self.assoc;
        let set = &mut self.entries[base..base + self.assoc];
        if let Some(e) = set.iter_mut().find(|e| e.valid && e.tag == tag) {
            e.lru = clock;
            if e.epoch != epoch {
                // First touch since the last reset: the stale counters
                // read as zero, so materialize that before incrementing.
                e.counters = [0, 0];
                e.epoch = epoch;
            }
            let c = &mut e.counters[edge.slot()];
            *c = (*c + 1).min(COUNTER_MAX);
            return;
        }
        let Some(victim) = set
            .iter()
            .enumerate()
            .min_by_key(|(_, e)| if e.valid { e.lru } else { 0 })
            .map(|(i, _)| i)
        else {
            return;
        };
        let mut entry = BtbEntry {
            tag,
            valid: true,
            lru: clock,
            counters: [0, 0],
            epoch,
        };
        entry.counters[edge.slot()] = 1;
        mark(&mut self.touched, set_idx);
        set[victim] = entry;
    }

    /// Clears all exercise counters (the paper's periodic
    /// `CounterResetInterval` reset supporting long-running programs).
    ///
    /// O(1): bumps the reset epoch; stale-epoch counters read as zero.
    /// Entry tags and LRU state survive, exactly as the physical walk this
    /// replaced preserved them.
    pub fn reset_counters(&mut self) {
        self.epoch += 1;
    }
}

impl Drop for Btb {
    /// Zeroes the marked sets and parks the entry array on this thread's
    /// shelf, unless the shelf has no room for it (or is already torn down
    /// at thread exit).
    fn drop(&mut self) {
        ENTRIES.park(&mut self.entries, &self.touched, self.assoc);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use px_util::{Rng as _, Xoshiro256};

    #[test]
    fn miss_reads_zero_and_counts_saturate() {
        let mut btb = Btb::new(16, 2);
        assert_eq!(btb.edge_count(100, Edge::Taken), 0);
        for _ in 0..20 {
            btb.exercise(100, Edge::Taken);
        }
        assert_eq!(btb.edge_count(100, Edge::Taken), COUNTER_MAX);
        assert_eq!(btb.edge_count(100, Edge::NotTaken), 0);
    }

    #[test]
    fn edges_counted_independently() {
        let mut btb = Btb::new(16, 2);
        btb.exercise(5, Edge::Taken);
        btb.exercise(5, Edge::NotTaken);
        btb.exercise(5, Edge::NotTaken);
        assert_eq!(btb.edge_count(5, Edge::Taken), 1);
        assert_eq!(btb.edge_count(5, Edge::NotTaken), 2);
    }

    #[test]
    fn conflict_eviction_loses_counts() {
        let mut btb = Btb::new(2, 1); // 2 sets, direct mapped
        btb.exercise(0, Edge::Taken);
        // pc=2 maps to the same set (2 & 1 == 0) and evicts pc=0.
        btb.exercise(2, Edge::Taken);
        assert_eq!(
            btb.edge_count(0, Edge::Taken),
            0,
            "evicted entry reads as zero"
        );
        assert_eq!(btb.edge_count(2, Edge::Taken), 1);
    }

    #[test]
    fn reset_clears_counters() {
        let mut btb = Btb::new(16, 2);
        btb.exercise(7, Edge::Taken);
        btb.reset_counters();
        assert_eq!(btb.edge_count(7, Edge::Taken), 0);
    }

    #[test]
    fn try_new_rejects_bad_geometry() {
        assert!(matches!(
            Btb::try_new(24, 2),
            Err(SimError::BadBtbGeometry(_))
        ));
        assert!(matches!(
            Btb::try_new(8, 0),
            Err(SimError::BadBtbGeometry(_))
        ));
        assert!(Btb::try_new(16, 2).is_ok());
    }

    #[test]
    fn edge_other_flips() {
        assert_eq!(Edge::Taken.other(), Edge::NotTaken);
        assert_eq!(Edge::from_taken(true), Edge::Taken);
        assert_eq!(Edge::from_taken(false), Edge::NotTaken);
    }

    #[test]
    fn the_table2_array_survives_a_small_btb() {
        // A quarter of the fault campaign's cases draw a 64-entry BTB: it
        // must not push the 2048-entry array off the shelf.
        ENTRIES.clear();
        let big = Btb::new(2048, 2).entries.as_ptr();
        for (entries, assoc) in [(64, 2), (2048, 2), (64, 2), (2048, 2)] {
            let btb = Btb::new(entries, assoc);
            assert_eq!(btb.entries.as_ptr() == big, entries == 2048);
        }
    }

    /// Runs `n` seeded exercises, counter resets and count reads on `btb`
    /// and returns every count read, then the count of both edges at every
    /// pc the sequence could touch.
    fn drive(btb: &mut Btb, seed: u64, n: usize) -> Vec<u8> {
        let mut rng = Xoshiro256::seeded(seed);
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            let pc = rng.below(512) as u32;
            let edge = Edge::from_taken(rng.next_bool());
            match rng.below(8) {
                0..=4 => btb.exercise(pc, edge),
                5 => btb.reset_counters(),
                _ => out.push(btb.edge_count(pc, edge)),
            }
        }
        for pc in 0..512 {
            out.extend([Edge::Taken, Edge::NotTaken].map(|e| btb.edge_count(pc, e)));
        }
        out
    }

    px_util::px_prop! {
        /// A BTB built from the array a dropped one parked reads exactly
        /// the counts of one built on a fresh thread, whose shelf is
        /// empty, over the paper's 2048 entries, the fault campaign's 64
        /// and random small geometries. The array must really be the
        /// dropped one, so the property cannot pass by allocating fresh.
        fn a_recycled_btb_reads_like_a_fresh_one(
            seed in px_util::prop::any_u64(),
            first in 0usize..400,
            second in 0usize..400,
        ) {
            let mut rng = Xoshiro256::seeded(seed);
            let (entries, assoc) = match rng.below(3) {
                0 => (2048, 2),
                1 => (64, 2),
                _ => {
                    let assoc = 1 << rng.below(3);
                    (assoc << rng.below(9), assoc)
                }
            };
            ENTRIES.clear();
            let mut used = Btb::new(entries, assoc);
            drive(&mut used, seed ^ 1, first);
            let parked = used.entries.as_ptr();
            drop(used);
            let mut recycled = Btb::new(entries, assoc);
            assert_eq!(recycled.entries.as_ptr(), parked, "the entry array was reused");
            let got = drive(&mut recycled, seed ^ 2, second);
            let want = std::thread::spawn(move || {
                drive(&mut Btb::new(entries, assoc), seed ^ 2, second)
            })
            .join()
            .expect("the fresh twin runs");
            assert_eq!(got, want);
        }
    }
}
