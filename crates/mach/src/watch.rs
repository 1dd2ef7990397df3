//! iWatcher-style hardware watch ranges.
//!
//! Programs (via the `px-lang` iWatcher pass) register address ranges to
//! monitor; the machine reports any load/store that touches one. An NT-path
//! runs against its own copy of the table ([`WatchTable::copy_from`]), so
//! registrations it makes are discarded with it at squash time, like every
//! other side effect.

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

/// The watch-range table.
#[derive(Debug, Clone, Default)]
pub struct WatchTable {
    ranges: Vec<WatchRange>,
}

impl WatchTable {
    /// Creates an empty table.
    #[must_use]
    pub fn new() -> WatchTable {
        WatchTable::default()
    }

    /// Makes `self` an exact copy of `other`, reusing `self`'s existing
    /// allocation — the pooled form of `other.clone()` for engines that
    /// recycle NT-paths across spawns.
    pub fn copy_from(&mut self, other: &WatchTable) {
        self.ranges.clear();
        self.ranges.extend_from_slice(&other.ranges);
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

    /// The live ranges, in insertion order. Order is not architectural:
    /// hits report the minimum overlapping tag, and an `unwatch` followed
    /// by a re-`watch` of the same range moves it to the end — consumers
    /// comparing tables must compare multisets.
    #[must_use]
    pub fn ranges(&self) -> &[WatchRange] {
        &self.ranges
    }

    /// Registers a watch on `[lo, lo+len)` with the given tag.
    pub fn set(&mut self, lo: u32, len: u32, tag: u32) {
        if len == 0 {
            return;
        }
        self.ranges.push(WatchRange {
            lo,
            hi: lo.saturating_add(len),
            tag,
        });
    }

    /// Removes all ranges with `tag`.
    pub fn clear(&mut self, tag: u32) {
        self.ranges.retain(|r| r.tag != tag);
    }

    /// Returns the tag of a range overlapping `[addr, addr+len)`, if any.
    /// When several ranges overlap the access, the smallest tag is reported,
    /// so the answer is independent of registration order.
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
}
