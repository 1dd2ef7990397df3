//! Timing caches with PathExpander's volatile tags.
//!
//! The caches are *tag-only* models: functional data lives in
//! [`crate::memory::Memory`] and the per-path sandboxes; the caches determine
//! access latency and, crucially, the **sandbox capacity constraint** — an
//! NT-path whose volatile line would be displaced from L1 must terminate
//! (standard configuration) or be squashed (CMP option), because the L1 is
//! the only place its speculative data may live (paper §4.2(2)).
//!
//! Each L1 line carries a version tag (`vtag`): `0` means committed data; a
//! non-zero value is the path ID of the NT-path (or, in the CMP option, the
//! speculative taken-path segment) that wrote it. This models both the 1-bit
//! Vtag of the standard configuration and the 8-bit version tag of the CMP
//! option with one mechanism.

use core::cell::RefCell;

use crate::config::{CacheConfig, MachConfig};
use crate::shelf::{mark, Shelf};

/// Volatile tag value for committed (non-speculative) data.
pub const COMMITTED: u8 = 0;

#[derive(Debug, Clone, Copy, Default)]
struct Line {
    tag: u32,
    valid: bool,
    dirty: bool,
    vtag: u8,
    lru: u64,
}

/// Lines of the paper's Table 2 hierarchy: four 16 KiB L1s and a 1 MiB
/// L2, all of 32 B lines.
const TABLE2_LINES: usize = 4 * 512 + 32 * 1024;

thread_local! {
    static FREE: RefCell<Vec<Vec<Line>>> = const { RefCell::new(Vec::new()) };
}

/// Line arrays of dropped caches, zeroed, waiting for a [`Cache::new`] of
/// the same length: at most one Table 2 hierarchy's five (544 KiB). A
/// hierarchy drops its L1s before its L2, and the shelf drops smaller
/// arrays to make room, so whatever L1s a run parked, the L2 it drops last
/// stays.
static LINES: Shelf<Line> = Shelf::new(&FREE, 5, TABLE2_LINES);

/// What one cache-level lookup did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Lookup {
    Hit,
    /// Miss; a volatile line with this vtag was displaced to make room.
    MissEvictedVolatile(u8),
    /// Miss; the victim was clean/invalid or a committed dirty line
    /// (write-back charged by the caller).
    Miss {
        dirty_writeback: bool,
    },
}

/// A set-associative, write-back, tag-only cache.
///
/// Lines live in one flat, stride-indexed vector (`set × assoc + way`)
/// instead of a vector-of-vectors: one contiguous allocation, no
/// double-indirection on the per-access lookup, and the set shift is
/// precomputed once in [`Cache::new`].
///
/// A cache costs what a run touches, not what it could address: every
/// line a run writes sits in a set it marked first (on a fill or a
/// poisoned set), so a dropped cache zeroes only its marked sets before its
/// array goes to a per-thread shelf, where the next [`Cache::new`] of that
/// size finds it.
#[derive(Debug, Clone)]
pub struct Cache {
    cfg: CacheConfig,
    lines: Vec<Line>,
    /// Bit `s % 64` of word `s / 64` set ⇔ set `s` may hold a line that is
    /// not `Line::default()`.
    touched: Vec<u64>,
    assoc: usize,
    line_shift: u32,
    set_mask: u32,
    set_shift: u32,
    clock: u64,
    /// Indices of lines that turned volatile since the last gang
    /// invalidation — the squash's worklist. May hold stale entries (lines
    /// that were since retagged or evicted); gang invalidation re-checks
    /// each. Every currently volatile line is in here at least once, so a
    /// squash visits O(touched) lines instead of the whole cache.
    volatile_idx: Vec<u32>,
    /// MRU hint: the block id (`addr >> line_shift`) the last hit or fill
    /// resolved, `u64::MAX` when unset. Consecutive accesses to the same
    /// line — the dominant pattern of a strided sweep — skip the set scan.
    /// Tags are unique among a set's valid lines, so the hint line is
    /// exactly the line the scan would find; any operation that invalidates
    /// lines outside [`Cache::access`] clears the hint.
    mru_block: u64,
    mru_idx: u32,
}

impl Cache {
    /// Creates an empty cache with the given geometry, reusing a dropped
    /// cache's line array of that size when this thread holds one.
    #[must_use]
    pub fn new(cfg: CacheConfig) -> Cache {
        let sets = cfg.sets().max(1);
        let assoc = cfg.assoc as usize;
        let len = sets as usize * assoc;
        Cache {
            cfg,
            lines: LINES
                .take(len)
                .unwrap_or_else(|| vec![Line::default(); len]),
            touched: vec![0; (sets as usize).div_ceil(64)],
            assoc,
            line_shift: cfg.line_bytes.max(1).trailing_zeros(),
            set_mask: sets - 1,
            set_shift: sets.trailing_zeros(),
            clock: 0,
            volatile_idx: Vec::new(),
            mru_block: u64::MAX,
            mru_idx: 0,
        }
    }

    #[inline]
    fn index(&self, addr: u32) -> (usize, u32) {
        let line_addr = addr >> self.line_shift;
        (
            (line_addr & self.set_mask) as usize,
            line_addr >> self.set_shift,
        )
    }

    /// Accesses `addr`; on a write, the line's vtag becomes `vtag`.
    #[inline]
    pub fn access(&mut self, addr: u32, write: bool, vtag: u8) -> Lookup {
        self.clock += 1;
        let block = u64::from(addr >> self.line_shift);
        if block == self.mru_block {
            // Same line as the previous hit/fill: skip the set scan. The
            // bookkeeping below is byte-for-byte the scan's hit path.
            let idx = self.mru_idx as usize;
            let line = &mut self.lines[idx];
            debug_assert!(line.valid);
            line.lru = self.clock;
            if write {
                line.dirty = true;
                let was_committed = line.vtag == COMMITTED;
                line.vtag = vtag;
                if vtag != COMMITTED && was_committed {
                    self.volatile_idx.push(idx as u32);
                }
            }
            return Lookup::Hit;
        }
        let (set_idx, tag) = self.index(addr);
        let base = set_idx * self.assoc;
        let set = &mut self.lines[base..base + self.assoc];

        if let Some(way) = set.iter().position(|l| l.valid && l.tag == tag) {
            let line = &mut set[way];
            line.lru = self.clock;
            if write {
                line.dirty = true;
                let was_committed = line.vtag == COMMITTED;
                line.vtag = vtag;
                if vtag != COMMITTED && was_committed {
                    self.volatile_idx.push((base + way) as u32);
                }
            }
            self.mru_block = block;
            self.mru_idx = (base + way) as u32;
            return Lookup::Hit;
        }

        // A zero-way set (degenerate geometry that bypassed validation) can
        // hold nothing: every access is an uncached miss, never a panic.
        if set.is_empty() {
            return Lookup::Miss {
                dirty_writeback: false,
            };
        }

        // Miss: pick a victim. Prefer invalid, then LRU non-volatile, then
        // LRU volatile (which kills the owning path).
        let victim = {
            let mut best: Option<(usize, u64, bool)> = None; // (way, lru, volatile)
            for (way, line) in set.iter().enumerate() {
                if !line.valid {
                    best = Some((way, 0, false));
                    break;
                }
                let volatile = line.vtag != COMMITTED;
                let candidate = (way, line.lru, volatile);
                best = Some(match best {
                    None => candidate,
                    Some(cur) => {
                        // Prefer non-volatile; among equals, prefer older.
                        let better = match (cur.2, volatile) {
                            (true, false) => true,
                            (false, true) => false,
                            _ => line.lru < cur.1,
                        };
                        if better {
                            candidate
                        } else {
                            cur
                        }
                    }
                });
            }
            // The set is non-empty (guarded above), so a victim exists.
            best.map_or(0, |(way, _, _)| way)
        };

        mark(&mut self.touched, set_idx);
        let evicted = set[victim];
        set[victim] = Line {
            tag,
            valid: true,
            dirty: write,
            vtag: if write { vtag } else { COMMITTED },
            lru: self.clock,
        };
        if write && vtag != COMMITTED {
            self.volatile_idx.push((base + victim) as u32);
        }
        self.mru_block = block;
        self.mru_idx = (base + victim) as u32;
        if evicted.valid && evicted.vtag != COMMITTED {
            Lookup::MissEvictedVolatile(evicted.vtag)
        } else {
            Lookup::Miss {
                dirty_writeback: evicted.valid && evicted.dirty,
            }
        }
    }

    /// Invalidates every line tagged `vtag` and returns how many there were
    /// (PathExpander's gang invalidation on squash).
    ///
    /// Walks the volatile worklist rather than the whole cache: a squash
    /// costs O(lines the path actually touched). Entries for other vtags
    /// (CMP's concurrent paths) are kept; stale entries are dropped.
    pub fn gang_invalidate(&mut self, vtag: u8) -> u32 {
        debug_assert_ne!(vtag, COMMITTED, "cannot gang-invalidate committed data");
        self.mru_block = u64::MAX;
        let mut n = 0;
        let mut kept = 0;
        for i in 0..self.volatile_idx.len() {
            let idx = self.volatile_idx[i] as usize;
            let line = &mut self.lines[idx];
            if line.valid && line.vtag == vtag {
                line.valid = false;
                line.dirty = false;
                line.vtag = COMMITTED;
                n += 1;
            } else if line.valid && line.vtag != COMMITTED {
                self.volatile_idx[kept] = idx as u32;
                kept += 1;
            }
        }
        self.volatile_idx.truncate(kept);
        n
    }

    /// Lazily commits every line tagged `vtag` by retagging it as committed
    /// data (the CMP option's lazy commit, paper §4.3).
    pub fn commit_vtag(&mut self, vtag: u8) -> u32 {
        debug_assert_ne!(vtag, COMMITTED);
        let mut n = 0;
        for line in &mut self.lines {
            if line.valid && line.vtag == vtag {
                line.vtag = COMMITTED;
                n += 1;
            }
        }
        n
    }

    /// Number of currently volatile lines (any non-zero vtag).
    #[must_use]
    pub fn volatile_lines(&self) -> u32 {
        self.lines
            .iter()
            .filter(|l| l.valid && l.vtag != COMMITTED)
            .count() as u32
    }

    /// The cache's geometry.
    #[must_use]
    pub fn config(&self) -> CacheConfig {
        self.cfg
    }

    /// Fault injection: retags one valid line (chosen by `entropy`) with
    /// `vtag`. Returns whether a line was retagged (a fully invalid cache
    /// has nothing to corrupt).
    pub fn flip_vtag(&mut self, entropy: u64, vtag: u8) -> bool {
        self.mru_block = u64::MAX;
        let valid: u64 = self.lines.iter().filter(|l| l.valid).count() as u64;
        if valid == 0 {
            return false;
        }
        let mut target = entropy % valid;
        for (idx, line) in self.lines.iter_mut().enumerate() {
            if line.valid {
                if target == 0 {
                    line.vtag = vtag;
                    line.dirty = line.dirty || vtag != COMMITTED;
                    if vtag != COMMITTED {
                        self.volatile_idx.push(idx as u32);
                    }
                    return true;
                }
                target -= 1;
            }
        }
        false
    }

    /// Fault injection: marks every line of one set (chosen by `entropy`)
    /// as a valid, dirty, volatile line owned by `vtag` — the next miss in
    /// that set is forced to displace a volatile line, exhausting the
    /// owning path's sandbox capacity. Returns the number of lines marked.
    pub fn poison_set_volatile(&mut self, entropy: u64, vtag: u8) -> u32 {
        if self.assoc == 0 || vtag == COMMITTED {
            return 0;
        }
        self.mru_block = u64::MAX;
        let set_idx = (entropy % (u64::from(self.set_mask) + 1)) as usize;
        let clock = self.clock;
        let base = set_idx * self.assoc;
        mark(&mut self.touched, set_idx);
        let mut n = 0;
        for (way, line) in self.lines[base..base + self.assoc].iter_mut().enumerate() {
            line.valid = true;
            line.dirty = true;
            line.vtag = vtag;
            line.lru = clock;
            self.volatile_idx.push((base + way) as u32);
            n += 1;
        }
        n
    }
}

impl Drop for Cache {
    /// Zeroes the marked sets and parks the line array on this thread's
    /// shelf, unless the shelf has no room for it (or is already torn down
    /// at thread exit).
    fn drop(&mut self) {
        LINES.park(&mut self.lines, &self.touched, self.assoc);
    }
}

/// Result of a full-hierarchy access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Access {
    /// Latency charged for the access.
    pub cycles: u32,
    /// A volatile L1 line owned by this path ID was displaced: the owning
    /// NT-path (or speculative segment) can no longer be contained and must
    /// be squashed.
    pub volatile_evicted: Option<u8>,
}

/// Per-core L1s over a shared L2, with flat memory behind.
#[derive(Debug, Clone)]
pub struct Hierarchy {
    l1: Vec<Cache>,
    l2: Cache,
    mem_cycles: u32,
}

impl Hierarchy {
    /// Builds the hierarchy described by `cfg`.
    ///
    /// # Panics
    ///
    /// Panics on inconsistent cache geometry (check untrusted
    /// configurations with [`MachConfig::validate`] first).
    #[must_use]
    pub fn new(cfg: &MachConfig) -> Hierarchy {
        Hierarchy {
            l1: (0..cfg.cores).map(|_| Cache::new(cfg.l1)).collect(),
            l2: Cache::new(cfg.l2),
            mem_cycles: cfg.mem_cycles,
        }
    }

    /// Number of per-core L1 caches.
    #[must_use]
    pub fn cores(&self) -> usize {
        self.l1.len()
    }

    /// Performs a data access from `core`, tagging written lines with
    /// `vtag`. An out-of-range core is charged main-memory latency and
    /// touches no cache state (defensive: engines validate core counts up
    /// front, so this is unreachable from validated configurations).
    #[inline]
    pub fn access(&mut self, core: usize, addr: u32, write: bool, vtag: u8) -> Access {
        let Some(l1) = self.l1.get_mut(core) else {
            return Access {
                cycles: self.mem_cycles,
                volatile_evicted: None,
            };
        };
        let l1_hit_cycles = l1.config().hit_cycles;
        match l1.access(addr, write, vtag) {
            Lookup::Hit => Access {
                cycles: l1_hit_cycles,
                volatile_evicted: None,
            },
            Lookup::MissEvictedVolatile(owner) => Access {
                cycles: l1_hit_cycles + self.l2_fill(addr),
                volatile_evicted: Some(owner),
            },
            Lookup::Miss { dirty_writeback } => {
                let mut cycles = l1_hit_cycles + self.l2_fill(addr);
                if dirty_writeback {
                    cycles += self.l2.config().hit_cycles;
                }
                Access {
                    cycles,
                    volatile_evicted: None,
                }
            }
        }
    }

    fn l2_fill(&mut self, addr: u32) -> u32 {
        match self.l2.access(addr, false, COMMITTED) {
            Lookup::Hit => self.l2.config().hit_cycles,
            _ => self.l2.config().hit_cycles + self.mem_cycles,
        }
    }

    /// Gang-invalidates all of `core`'s L1 lines tagged `vtag`; returns the
    /// number of lines dropped. Out-of-range cores drop nothing.
    pub fn squash_path(&mut self, core: usize, vtag: u8) -> u32 {
        self.l1.get_mut(core).map_or(0, |c| c.gang_invalidate(vtag))
    }

    /// Commits all of `core`'s L1 lines tagged `vtag`. Out-of-range cores
    /// commit nothing.
    pub fn commit_path(&mut self, core: usize, vtag: u8) -> u32 {
        self.l1.get_mut(core).map_or(0, |c| c.commit_vtag(vtag))
    }

    /// Volatile line count in one core's L1 (0 for out-of-range cores).
    #[must_use]
    pub fn volatile_lines(&self, core: usize) -> u32 {
        self.l1.get(core).map_or(0, Cache::volatile_lines)
    }

    /// Fault injection: retags one valid line of `core`'s L1 with `vtag`
    /// (see [`Cache::flip_vtag`]).
    pub fn inject_vtag_flip(&mut self, core: usize, entropy: u64, vtag: u8) -> bool {
        self.l1
            .get_mut(core)
            .is_some_and(|c| c.flip_vtag(entropy, vtag))
    }

    /// Fault injection: marks a whole L1 set of `core` volatile with `vtag`
    /// (see [`Cache::poison_set_volatile`]).
    pub fn inject_volatile_fill(&mut self, core: usize, entropy: u64, vtag: u8) -> u32 {
        self.l1
            .get_mut(core)
            .map_or(0, |c| c.poison_set_volatile(entropy, vtag))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::SimError;
    use px_util::{Rng as _, Xoshiro256};

    fn small_cache() -> Cache {
        // 4 lines of 32B, 2-way => 2 sets.
        Cache::new(CacheConfig {
            size_bytes: 128,
            assoc: 2,
            line_bytes: 32,
            hit_cycles: 3,
        })
    }

    #[test]
    fn hit_after_fill() {
        let mut c = small_cache();
        assert_eq!(
            c.access(0x1000, false, COMMITTED),
            Lookup::Miss {
                dirty_writeback: false
            }
        );
        assert_eq!(c.access(0x1000, false, COMMITTED), Lookup::Hit);
        assert_eq!(c.access(0x101F, false, COMMITTED), Lookup::Hit, "same line");
        assert!(
            matches!(c.access(0x1020, false, COMMITTED), Lookup::Miss { .. }),
            "next line"
        );
    }

    #[test]
    fn lru_eviction_and_dirty_writeback() {
        let mut c = small_cache();
        // Three lines mapping to set 0 (stride = 2 sets * 32B = 64B).
        let a = 0x1000;
        let b = 0x1040;
        let d = 0x1080;
        assert!(matches!(
            c.access(a, true, COMMITTED),
            Lookup::Miss {
                dirty_writeback: false
            }
        ));
        assert!(matches!(c.access(b, false, COMMITTED), Lookup::Miss { .. }));
        // `a` is LRU victim and dirty.
        assert_eq!(
            c.access(d, false, COMMITTED),
            Lookup::Miss {
                dirty_writeback: true
            }
        );
    }

    #[test]
    fn volatile_lines_preferred_as_survivors() {
        let mut c = small_cache();
        let a = 0x1000;
        let b = 0x1040;
        let d = 0x1080;
        c.access(a, true, 5); // volatile, older
        c.access(b, false, COMMITTED); // committed, newer
                                       // Victim should be the committed line even though the volatile one is older.
        assert_eq!(
            c.access(d, false, COMMITTED),
            Lookup::Miss {
                dirty_writeback: false
            }
        );
        assert_eq!(c.volatile_lines(), 1);
    }

    #[test]
    fn all_volatile_set_kills_a_path() {
        let mut c = small_cache();
        c.access(0x1000, true, 5);
        c.access(0x1040, true, 6);
        // Set 0 is now entirely volatile; a third line must displace one.
        match c.access(0x1080, false, COMMITTED) {
            Lookup::MissEvictedVolatile(owner) => assert_eq!(owner, 5, "LRU volatile dies"),
            other => panic!("expected volatile eviction, got {other:?}"),
        }
    }

    #[test]
    fn gang_invalidate_and_commit() {
        let mut c = small_cache();
        c.access(0x1000, true, 5);
        c.access(0x1020, true, 5);
        c.access(0x1040, true, 7);
        assert_eq!(c.volatile_lines(), 3);
        assert_eq!(c.gang_invalidate(5), 2);
        assert_eq!(c.volatile_lines(), 1);
        assert_eq!(c.commit_vtag(7), 1);
        assert_eq!(c.volatile_lines(), 0);
        // Committed line still resident.
        assert_eq!(c.access(0x1040, false, COMMITTED), Lookup::Hit);
        // Invalidated lines are gone.
        assert!(matches!(
            c.access(0x1000, false, COMMITTED),
            Lookup::Miss { .. }
        ));
    }

    #[test]
    fn hierarchy_latencies_follow_table2() {
        let cfg = MachConfig::default();
        let mut h = Hierarchy::new(&cfg);
        // Cold: L1 miss + L2 miss + memory.
        let first = h.access(0, 0x2000, false, COMMITTED);
        assert_eq!(first.cycles, 3 + 10 + 200);
        // Warm L1.
        let second = h.access(0, 0x2000, false, COMMITTED);
        assert_eq!(second.cycles, 3);
        // Another core: misses its own L1, hits shared L2.
        let third = h.access(1, 0x2000, false, COMMITTED);
        assert_eq!(third.cycles, 3 + 10);
    }

    #[test]
    fn squash_path_drops_only_that_core() {
        let cfg = MachConfig::default();
        let mut h = Hierarchy::new(&cfg);
        h.access(0, 0x3000, true, 9);
        h.access(1, 0x3000, true, 9);
        assert_eq!(h.squash_path(0, 9), 1);
        assert_eq!(h.volatile_lines(0), 0);
        assert_eq!(h.volatile_lines(1), 1);
    }

    #[test]
    fn out_of_range_core_never_panics() {
        let cfg = MachConfig::single_core();
        let mut h = Hierarchy::new(&cfg);
        let a = h.access(7, 0x3000, true, 1);
        assert_eq!(a.cycles, cfg.mem_cycles);
        assert_eq!(h.squash_path(7, 1), 0);
        assert_eq!(h.commit_path(7, 1), 0);
        assert_eq!(h.volatile_lines(7), 0);
        assert!(!h.inject_vtag_flip(7, 0, 1));
        assert_eq!(h.inject_volatile_fill(7, 0, 1), 0);
    }

    #[test]
    fn validate_rejects_bad_hierarchy_geometry() {
        let mut cfg = MachConfig::default();
        cfg.l1.line_bytes = 24;
        assert!(matches!(cfg.validate(), Err(SimError::BadCacheGeometry(_))));
        let cfg = MachConfig {
            cores: 0,
            ..MachConfig::default()
        };
        assert_eq!(cfg.validate().unwrap_err(), SimError::NoCores);
        assert!(MachConfig::default().validate().is_ok());
    }

    #[test]
    fn poison_set_forces_volatile_eviction() {
        let mut c = small_cache();
        assert_eq!(c.poison_set_volatile(0, 5), 2, "2-way set fully marked");
        // Set 0 is now entirely volatile with vtag 5: a miss there must
        // displace one of the poisoned lines.
        assert!(matches!(
            c.access(0x1000, false, COMMITTED),
            Lookup::MissEvictedVolatile(5) | Lookup::Hit
        ));
        assert_eq!(
            c.poison_set_volatile(0, COMMITTED),
            0,
            "committed is not a path"
        );
    }

    #[test]
    fn flip_vtag_retags_exactly_one_line() {
        let mut c = small_cache();
        assert!(!c.flip_vtag(3, 9), "empty cache has nothing to corrupt");
        c.access(0x1000, false, COMMITTED);
        c.access(0x1040, false, COMMITTED);
        assert!(c.flip_vtag(1, 9));
        assert_eq!(c.volatile_lines(), 1);
    }

    #[test]
    fn the_shelf_holds_one_table2_hierarchy() {
        let cfg = MachConfig::default();
        let lines = cfg.cores * cfg.l1.lines() as usize + cfg.l2.lines() as usize;
        assert_eq!(lines, TABLE2_LINES);
    }

    /// The line arrays of `h`, L1s then the L2.
    fn arrays(h: &Hierarchy) -> Vec<*const Line> {
        let l1s = h.l1.iter().map(|c| c.lines.as_ptr());
        l1s.chain([h.l2.lines.as_ptr()]).collect()
    }

    #[test]
    fn the_l2_array_survives_every_fault_mix_draw() {
        // The campaign's fault cases build 1- and 4-core hierarchies, a
        // third of them over 2-line L1s, in any order: after a thread's
        // first, every one gets the L2 array back, whatever L1s came
        // before it.
        LINES.clear();
        let tiny = CacheConfig {
            size_bytes: 64,
            assoc: 2,
            line_bytes: 32,
            hit_cycles: 3,
        };
        let mut l2 = None;
        for draw in [0, 3, 1, 2, 2, 0, 3, 3, 1, 0] {
            let mut cfg = if draw & 1 == 0 {
                MachConfig::default()
            } else {
                MachConfig::single_core()
            };
            if draw & 2 != 0 {
                cfg.l1 = tiny;
            }
            let mut h = Hierarchy::new(&cfg);
            h.access(0, 0x4000, true, 1);
            let got = h.l2.lines.as_ptr();
            assert_eq!(*l2.get_or_insert(got), got, "draw {draw}");
        }
    }

    /// One answer of a [`drive`] sequence.
    #[derive(Debug, PartialEq)]
    enum Answer {
        Access(Access),
        Count(u32),
        Flag(bool),
    }

    /// A machine whose hierarchy fits the shelf: 1–4 cores, each L1 the
    /// Table 2 one, the fault campaign's 2-line one or a random small one,
    /// over the Table 2 L2 or a random small one.
    fn random_machine(rng: &mut Xoshiro256) -> MachConfig {
        fn random(rng: &mut Xoshiro256, max_sets: u64, hit_cycles: u32) -> CacheConfig {
            let line_bytes = 16 << rng.below(3);
            let assoc = 1 << rng.below(4);
            let sets = 1 << rng.below(max_sets.ilog2() as u64 + 1);
            CacheConfig {
                size_bytes: line_bytes * assoc * sets,
                assoc,
                line_bytes,
                hit_cycles,
            }
        }
        let table2 = MachConfig::default();
        let l1 = match rng.below(3) {
            0 => table2.l1,
            1 => CacheConfig {
                size_bytes: 64,
                assoc: 2,
                line_bytes: 32,
                hit_cycles: 3,
            },
            _ => random(rng, 64, 3),
        };
        let l2 = if rng.next_bool() {
            table2.l2
        } else {
            random(rng, 512, 10)
        };
        MachConfig {
            cores: 1 + rng.below(4) as usize,
            l1,
            l2,
            ..table2
        }
    }

    /// Runs `n` seeded operations on `h` — reads, writes under random
    /// vtags, squashes, commits, vtag flips and poisoned sets, on every
    /// core and one past the last — and returns every answer, then each
    /// core's volatile line count.
    fn drive(h: &mut Hierarchy, seed: u64, n: usize) -> Vec<Answer> {
        let mut rng = Xoshiro256::seeded(seed);
        let cores = h.cores() as u64;
        let mut out = Vec::with_capacity(n + h.cores());
        for _ in 0..n {
            let core = rng.below(cores + 1) as usize;
            let vtag = 1 + rng.below(4) as u8;
            out.push(match rng.below(12) {
                // Sixteen 8 KiB windows 128 KiB apart: every geometry,
                // the Table 2 L2 included, sees hits, fills and evictions.
                0..=5 => {
                    let addr = ((rng.below(16) as u32) << 17) | rng.below(1 << 13) as u32;
                    let write = rng.next_bool();
                    let vtag = if rng.chance(1, 3) { COMMITTED } else { vtag };
                    Answer::Access(h.access(core, addr, write, vtag))
                }
                6 => Answer::Count(h.squash_path(core, vtag)),
                7 => Answer::Count(h.commit_path(core, vtag)),
                8 => Answer::Flag(h.inject_vtag_flip(core, rng.next_u64(), vtag)),
                9 => Answer::Count(h.inject_volatile_fill(core, rng.next_u64(), vtag)),
                _ => Answer::Count(h.volatile_lines(core)),
            });
        }
        out.extend((0..h.cores()).map(|c| Answer::Count(h.volatile_lines(c))));
        out
    }

    px_util::px_prop! {
        /// A hierarchy built from arrays a dropped one parked answers
        /// exactly like one built on a fresh thread, whose shelf is empty:
        /// every access latency and volatile eviction, squash, commit,
        /// flip, poisoned set and volatile line count. The arrays must
        /// really be the dropped ones, so the property cannot pass by
        /// allocating fresh.
        fn a_recycled_hierarchy_answers_like_a_fresh_one(
            seed in px_util::prop::any_u64(),
            first in 0usize..400,
            second in 0usize..400,
        ) {
            let cfg = random_machine(&mut Xoshiro256::seeded(seed));
            LINES.clear();
            let mut used = Hierarchy::new(&cfg);
            drive(&mut used, seed ^ 1, first);
            let mut parked = arrays(&used);
            drop(used);
            let mut recycled = Hierarchy::new(&cfg);
            let mut reused = arrays(&recycled);
            parked.sort();
            reused.sort();
            assert_eq!(reused, parked, "every line array was reused");
            let got = drive(&mut recycled, seed ^ 2, second);
            let want = std::thread::spawn(move || {
                drive(&mut Hierarchy::new(&cfg), seed ^ 2, second)
            })
            .join()
            .expect("the fresh twin runs");
            assert_eq!(got, want);
        }
    }
}
