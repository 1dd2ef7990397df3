//! iWatcher-style hardware watch ranges.
//!
//! Programs (via the `px-lang` iWatcher pass) register address ranges to
//! monitor; the machine reports any load/store that touches one. The table
//! keeps an undo log so that watch registrations performed inside an NT-path
//! can be rolled back at squash time, like every other side effect.

/// A monitored address range.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WatchRange {
    /// First watched byte.
    pub lo: u32,
    /// One past the last watched byte.
    pub hi: u32,
    /// Program-chosen tag, reported on hits (the detector maps it back to an
    /// object / bug site).
    pub tag: u32,
}

#[derive(Debug, Clone)]
enum WatchOp {
    Added(WatchRange),
    Removed(Vec<WatchRange>),
}

/// The watch-range table.
#[derive(Debug, Clone, Default)]
pub struct WatchTable {
    ranges: Vec<WatchRange>,
    log: Vec<WatchOp>,
    logging: bool,
}

impl WatchTable {
    /// Creates an empty table.
    #[must_use]
    pub fn new() -> WatchTable {
        WatchTable::default()
    }

    /// Makes `self` an exact copy of `other`, reusing `self`'s existing
    /// allocations — the pooled form of `other.clone()` for engines that
    /// recycle scratch tables across NT-path spawns.
    pub fn copy_from(&mut self, other: &WatchTable) {
        self.ranges.clear();
        self.ranges.extend_from_slice(&other.ranges);
        self.log.clear();
        self.log.extend_from_slice(&other.log);
        self.logging = other.logging;
    }

    /// Number of active ranges.
    #[must_use]
    pub fn len(&self) -> usize {
        self.ranges.len()
    }

    /// Whether no ranges are active.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.ranges.is_empty()
    }

    /// The live ranges, in insertion order. Order is not architectural
    /// ([`WatchTable::rollback`] restores the *set*, not the order; hits
    /// report the minimum overlapping tag) — consumers comparing tables
    /// must compare multisets.
    #[must_use]
    pub fn ranges(&self) -> &[WatchRange] {
        &self.ranges
    }

    /// Starts logging operations so they can be undone with
    /// [`WatchTable::rollback`] (entering an NT-path).
    pub fn begin_log(&mut self) {
        debug_assert!(self.log.is_empty(), "nested watch logs are not supported");
        self.logging = true;
    }

    /// Undoes every operation since [`WatchTable::begin_log`] and stops
    /// logging (NT-path squash).
    pub fn rollback(&mut self) {
        while let Some(op) = self.log.pop() {
            match op {
                WatchOp::Added(r) => {
                    if let Some(pos) = self.ranges.iter().rposition(|x| *x == r) {
                        self.ranges.remove(pos);
                    }
                }
                WatchOp::Removed(mut rs) => self.ranges.append(&mut rs),
            }
        }
        self.logging = false;
    }

    /// Registers a watch on `[lo, lo+len)` with the given tag.
    pub fn set(&mut self, lo: u32, len: u32, tag: u32) {
        if len == 0 {
            return;
        }
        let range = WatchRange {
            lo,
            hi: lo.saturating_add(len),
            tag,
        };
        self.ranges.push(range);
        if self.logging {
            self.log.push(WatchOp::Added(range));
        }
    }

    /// Removes all ranges with `tag`.
    pub fn clear(&mut self, tag: u32) {
        let mut removed = Vec::new();
        self.ranges.retain(|r| {
            if r.tag == tag {
                removed.push(*r);
                false
            } else {
                true
            }
        });
        if self.logging && !removed.is_empty() {
            self.log.push(WatchOp::Removed(removed));
        }
    }

    /// Returns the tag of a range overlapping `[addr, addr+len)`, if any.
    /// When several ranges overlap the access, the smallest tag is reported,
    /// so the answer is independent of registration order (and therefore
    /// stable across NT-path rollbacks, which restore the set of ranges but
    /// not their order).
    #[must_use]
    #[inline]
    pub fn hit(&self, addr: u32, len: u32) -> Option<u32> {
        let end = addr.saturating_add(len);
        self.ranges
            .iter()
            .filter(|r| addr < r.hi && r.lo < end)
            .map(|r| r.tag)
            .min()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hit_detects_overlap_only() {
        let mut w = WatchTable::new();
        w.set(100, 10, 7);
        assert_eq!(w.hit(99, 1), None);
        assert_eq!(w.hit(99, 2), Some(7), "straddles the start");
        assert_eq!(w.hit(105, 4), Some(7));
        assert_eq!(w.hit(109, 1), Some(7), "last byte");
        assert_eq!(w.hit(110, 4), None, "one past the end");
    }

    #[test]
    fn zero_length_watch_ignored() {
        let mut w = WatchTable::new();
        w.set(100, 0, 7);
        assert!(w.is_empty());
    }

    #[test]
    fn clear_removes_all_with_tag() {
        let mut w = WatchTable::new();
        w.set(0x100, 4, 1);
        w.set(0x200, 4, 1);
        w.set(0x300, 4, 2);
        w.clear(1);
        assert_eq!(w.len(), 1);
        assert_eq!(w.hit(0x100, 4), None);
        assert_eq!(w.hit(0x300, 1), Some(2));
    }

    #[test]
    fn rollback_undoes_nt_path_changes() {
        let mut w = WatchTable::new();
        w.set(0x100, 4, 1);
        w.begin_log();
        w.set(0x200, 4, 2); // added inside NT-path
        w.clear(1); // removed inside NT-path
        assert_eq!(w.hit(0x100, 1), None);
        assert_eq!(w.hit(0x200, 1), Some(2));
        w.rollback();
        assert_eq!(w.hit(0x100, 1), Some(1), "removed range restored");
        assert_eq!(w.hit(0x200, 1), None, "added range dropped");
        assert_eq!(w.len(), 1);
    }
}
