//! The branch target buffer, extended with PathExpander's per-edge exercise
//! counters (paper §4.1: "extending the BTB with 2 four-bit exercise
//! counters, one for each edge").

use px_isa::Edge;

use crate::fault::SimError;

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
#[derive(Debug, Clone)]
pub struct Btb {
    entries: Vec<BtbEntry>,
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

    /// Creates a BTB, rejecting inconsistent geometry without panicking.
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
        Ok(Btb {
            entries: vec![BtbEntry::default(); (sets * assoc) as usize],
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
        let (set, tag) = self.index(pc);
        let base = set * self.assoc;
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

#[cfg(test)]
mod tests {
    use super::*;

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
}
