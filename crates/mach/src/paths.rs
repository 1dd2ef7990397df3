//! Runtime prime-path matching — the dynamic half of path coverage.
//!
//! px-analyze enumerates a program's prime paths statically
//! (`PrimePathSet`); this module recognises them as they execute. The
//! layering rule keeps px-mach below px-analyze, so everything here is
//! plain data handed down by px-core:
//!
//! * [`PathPlan`] — the immutable lookup side: a dense per-pc block rank
//!   (pc → block index) and an Aho–Corasick automaton over the
//!   block sequences of the *feasible* enumerated paths only. Covered ⊆
//!   feasible holds by construction — an NT-path can physically traverse
//!   a statically-infeasible path, but it can never be *counted*,
//!   mirroring `Coverage::branch_coverage_feasible`.
//! * [`PathTrail`] — one automaton state for one execution path: the
//!   longest suffix of the blocks entered since the trail began that is a
//!   prefix of some feasible path. Entering a block follows one goto (or
//!   a few fail links) and credits every feasible path that ends there,
//!   so the trail credits exactly the feasible paths occurring as
//!   contiguous block subsequences of its stream. The state is a `u32`:
//!   forking a trail at an NT spawn is a copy and squashing it is a reset
//!   to the root, both O(1).
//! * [`PathCoverage`] — the mergeable covered-path bitmap, shard-shippable
//!   exactly like `Coverage` (`pack_bits`/`unpack_bits`, commutative
//!   [`PathCoverage::merge`]) but keyed by the enumeration digest:
//!   merging shards from different programs or different enumerations is
//!   a typed [`SimError::PathSetMismatch`], never a silent union.
//!
//! "Entering" a block means control *arrived* at its first instruction —
//! the budget may expire before that instruction retires, which is
//! deterministic and documented (DESIGN.md §12). All tracking is
//! observational: engines consult the plan only to update a
//! [`PathCoverage`], so taken-path and timing digests are byte-identical
//! with or without a plan.

use px_util::fnv1a64;

use crate::bits;
use crate::fault::SimError;

/// The automaton's root state: no block of any feasible path matched yet.
const ROOT: u32 = 0;
/// "No path" in [`PathPlan::terminal`] and [`PathPlan::output`].
const NONE: u32 = u32::MAX;

/// The immutable matcher input: everything the engines need to map a
/// stream of pcs onto enumerated prime paths. Built by px-core from a
/// `PrimePathSet` (px-mach cannot see that type). The automaton's trie
/// is numbered breadth-first, so each node's children are one run of ids
/// sorted by block and `label` itself is the child table. The lookups
/// the engines make at run time are O(1) but one: a pc maps to a block
/// through `rank`, the root steps through `root_row`, and entering the
/// block after a node's own (`label[v] + 1`, the next instruction on
/// compiled code, where every instruction is a block) is one load of
/// `next_seq`. Only entering any other block from inside a match walks
/// fail links.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PathPlan {
    /// Digest of the full enumeration (paths + feasibility + truncation):
    /// the shard-identity key for [`PathCoverage::merge`].
    pub set_digest: u64,
    /// Total enumerated prime paths (feasible and infeasible).
    pub n_paths: u32,
    /// Statically-feasible prime paths — the coverage denominator.
    pub feasible_total: u32,
    /// Per pc up to the last block start: how many blocks start at or
    /// before it. A pc past the table has rank `n_blocks`. Block `i`
    /// starts where the rank steps up to `i + 1`.
    rank: Vec<u32>,
    /// Per node: the block on the trie edge into it (0 for the root).
    label: Vec<u32>,
    /// Per node, plus a sentinel: its children are ids
    /// `first_child[v]..first_child[v + 1]`.
    first_child: Vec<u32>,
    /// Per block: the root's child for it, or [`ROOT`].
    root_row: Vec<u32>,
    /// Per node: the node of its longest proper suffix in the trie.
    fail: Vec<u32>,
    /// Per node `v`: `step(v, label[v] + 1)`, the state after entering
    /// the block that follows `v`'s own ([`ROOT`] where no block does).
    /// Unread for the root, whose transitions are `root_row`.
    next_seq: Vec<u32>,
    /// Per node: the index of the path ending there, or [`NONE`].
    terminal: Vec<u32>,
    /// Per node: the nearest node on its fail chain, itself included,
    /// where a path ends (the dictionary link), or [`NONE`]: entering a
    /// node with no path to credit costs one load.
    output: Vec<u32>,
}

impl PathPlan {
    /// Builds a plan from enumeration output. `feasible` yields
    /// `(path blocks, path index)` for the feasible paths only. The build
    /// costs O(total path length) when the paths arrive in lexicographic
    /// order, as enumeration emits them.
    ///
    /// # Errors
    ///
    /// Returns a typed [`SimError`] when `block_starts` is not strictly
    /// ascending, a path is empty ([`SimError::EmptyPrimePath`]) or names
    /// a block outside the program ([`SimError::PrimePathBlockOutOfRange`]),
    /// two feasible paths share a block sequence
    /// ([`SimError::DuplicatePrimePath`]: matching would be ambiguous), or
    /// `feasible_total` disagrees with the paths given.
    pub fn new<'p>(
        set_digest: u64,
        block_starts: Vec<u32>,
        n_paths: u32,
        feasible_total: u32,
        feasible: impl IntoIterator<Item = (&'p [u32], u32)>,
    ) -> Result<PathPlan, SimError> {
        if !block_starts.windows(2).all(|w| w[0] < w[1]) {
            return Err(SimError::Invariant("path plan block starts not ascending"));
        }
        let n_blocks = block_starts.len();
        let mut paths: Vec<(&[u32], u32)> = feasible.into_iter().collect();
        if paths.len() as u32 != feasible_total {
            return Err(SimError::Invariant(
                "path plan feasible count disagrees with its paths",
            ));
        }
        if let Some(&(_, path)) = paths.iter().find(|p| p.0.is_empty()) {
            return Err(SimError::EmptyPrimePath { path });
        }
        // A no-op pass over already-sorted input.
        paths.sort_by(|a, b| a.0.cmp(b.0));

        // The trie, one depth at a time. At depth d the paths longer than
        // d are visited in sorted order, so paths sharing their first
        // d + 1 blocks arrive back to back: each opens a node unless the
        // last node opened has the same parent and block. Parents are
        // visited in id order, so each node's children get consecutive
        // ids in ascending block order.
        let mut label = vec![0u32];
        let mut terminal = vec![NONE];
        let mut child_count = vec![0u32];
        let mut last_parent = NONE;
        let mut at = vec![ROOT; paths.len()];
        let mut live: Vec<usize> = (0..paths.len()).collect();
        let mut depth = 0;
        while !live.is_empty() {
            for &i in &live {
                let (blocks, path) = paths[i];
                let block = blocks[depth];
                if block as usize >= n_blocks {
                    return Err(SimError::PrimePathBlockOutOfRange {
                        path,
                        block,
                        n_blocks: n_blocks as u32,
                    });
                }
                if last_parent != at[i] || label.last() != Some(&block) {
                    last_parent = at[i];
                    child_count[at[i] as usize] += 1;
                    label.push(block);
                    terminal.push(NONE);
                    child_count.push(0);
                }
                at[i] = label.len() as u32 - 1;
                if blocks.len() == depth + 1 {
                    let t = &mut terminal[at[i] as usize];
                    if *t != NONE {
                        let (first, second) = (path.min(*t), path.max(*t));
                        return Err(SimError::DuplicatePrimePath { first, second });
                    }
                    *t = path;
                }
            }
            depth += 1;
            live.retain(|&i| paths[i].0.len() > depth);
        }
        let n_nodes = label.len();
        // Children counts become offsets: the root's children start at 1.
        let mut first_child = child_count;
        let mut next = 1;
        for c in &mut first_child {
            (*c, next) = (next, next + *c);
        }
        first_child.push(next);
        let mut root_row = vec![ROOT; n_blocks];
        for c in first_child[0]..first_child[1] {
            root_row[label[c as usize] as usize] = c;
        }
        // The pcs before start `i` have rank `i`; the start itself `i + 1`.
        let mut rank = Vec::with_capacity(block_starts.last().map_or(0, |&s| s as usize + 1));
        for (i, &s) in block_starts.iter().enumerate() {
            rank.resize(s as usize, i as u32);
            rank.push(i as u32 + 1);
        }

        let mut plan = PathPlan {
            set_digest,
            n_paths,
            feasible_total,
            rank,
            label,
            first_child,
            root_row,
            fail: vec![ROOT; n_nodes],
            next_seq: Vec::new(),
            terminal,
            output: vec![NONE; n_nodes],
        };
        // Fail and dictionary links in id (breadth-first) order: a node's
        // fail target is shallower, so its own links are already final.
        // The root's children keep the root as their fail target.
        for v in 1..n_nodes {
            let v = v as u32;
            for c in plan.children(v) {
                plan.fail[c as usize] = plan.step(plan.fail[v as usize], plan.label[c as usize]);
            }
            let f = plan.fail[v as usize] as usize;
            plan.output[v as usize] = if plan.terminal[v as usize] == NONE {
                plan.output[f]
            } else {
                v
            };
        }
        // The fall-through step reads the final fail links.
        plan.next_seq = (0..n_nodes)
            .map(|v| {
                let next = plan.label[v] + 1;
                if (next as usize) < n_blocks {
                    plan.step(v as u32, next)
                } else {
                    ROOT
                }
            })
            .collect();
        Ok(plan)
    }

    /// Number of basic blocks.
    #[must_use]
    pub fn n_blocks(&self) -> usize {
        self.root_row.len()
    }

    /// How many blocks start at or before `pc`.
    #[inline]
    fn rank(&self, pc: u64) -> usize {
        usize::try_from(pc)
            .ok()
            .and_then(|i| self.rank.get(i))
            .map_or(self.n_blocks(), |&r| r as usize)
    }

    /// Block index of `pc` if `pc` is a block's first instruction.
    #[must_use]
    #[inline]
    pub fn block_at(&self, pc: u32) -> Option<u32> {
        let r = *self.rank.get(pc as usize)?;
        let below = pc.checked_sub(1).map_or(0, |p| self.rank[p as usize]);
        (r > below).then(|| r - 1)
    }

    /// Indices of the blocks whose first instruction lies in
    /// `(pc0, pc0 + n]` — exactly the blocks a straight-line batch of `n`
    /// instructions starting at `pc0` enters.
    #[must_use]
    #[inline]
    pub fn blocks_in_range(&self, pc0: u32, n: u32) -> std::ops::Range<usize> {
        self.rank(u64::from(pc0))..self.rank(u64::from(pc0) + u64::from(n))
    }

    /// A fresh, empty coverage tracker for this plan.
    #[must_use]
    pub fn new_coverage(&self) -> PathCoverage {
        PathCoverage {
            set_digest: self.set_digest,
            feasible_total: self.feasible_total,
            covered: vec![false; self.n_paths as usize],
        }
    }

    /// Node ids of `v`'s children.
    fn children(&self, v: u32) -> std::ops::Range<u32> {
        self.first_child[v as usize]..self.first_child[v as usize + 1]
    }

    /// The automaton transition: the state after entering `block` from
    /// state `v`. `block` must be below [`PathPlan::n_blocks`]. Out of
    /// line: the engines' hot loops inline [`PathTrail::enter_block`], which
    /// takes this walk only when neither the root row nor the fall-through
    /// step applies.
    #[inline(never)]
    fn step(&self, mut v: u32, block: u32) -> u32 {
        loop {
            if v == ROOT {
                return self.root_row[block as usize];
            }
            let kids = self.children(v);
            let row = &self.label[kids.start as usize..kids.end as usize];
            if let Ok(i) = row.binary_search(&block) {
                return kids.start + i as u32;
            }
            v = self.fail[v as usize];
        }
    }

    /// Credits every feasible path ending at state `v` to `cov`. Out of
    /// line: few block entries end a path.
    #[cold]
    #[inline(never)]
    fn credit(&self, cov: &mut PathCoverage, v: u32) {
        let mut v = self.output[v as usize];
        while v != NONE {
            cov.record(self.terminal[v as usize]);
            v = self.output[self.fail[v as usize] as usize];
        }
    }
}

/// Matcher state for one execution path (the taken path, or one NT-path):
/// a state of its plan's automaton, meaningful only with that plan.
/// `PathTrail::default()` is the root, with no partial match: a new trail,
/// or one squashed by assigning it. An NT-path spawn copies the taken
/// trail, so prime paths spanning the divergence point still match.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PathTrail {
    /// Automaton state; the derived default `0` is [`ROOT`].
    state: u32,
}

impl PathTrail {
    /// Records that control arrived at block `block`, crediting every
    /// feasible path that ends here to `cov`. A block outside the plan's
    /// universe is ignored.
    #[inline]
    pub fn enter_block(&mut self, plan: &PathPlan, cov: &mut PathCoverage, block: u32) {
        if block as usize >= plan.n_blocks() {
            return;
        }
        let s = self.state as usize;
        self.state = if self.state == ROOT {
            plan.root_row[block as usize]
        } else if block == plan.label[s] + 1 {
            plan.next_seq[s]
        } else {
            plan.step(self.state, block)
        };
        // The root ends no path: most entries on a truncated plan stay
        // there and need no further load.
        if self.state != ROOT && plan.output[self.state as usize] != NONE {
            plan.credit(cov, self.state);
        }
    }

    /// Records arrival at `pc` if `pc` starts a block.
    pub fn enter_pc(&mut self, plan: &PathPlan, cov: &mut PathCoverage, pc: u32) {
        if let Some(b) = plan.block_at(pc) {
            self.enter_block(plan, cov, b);
        }
    }

    /// Records every block a straight-line batch of `n` instructions from
    /// `pc0` enters (starts in `(pc0, pc0 + n]`; `pc0` itself was entered
    /// when control arrived there).
    pub fn enter_range(&mut self, plan: &PathPlan, cov: &mut PathCoverage, pc0: u32, n: u32) {
        for i in plan.blocks_in_range(pc0, n) {
            self.enter_block(plan, cov, i as u32);
        }
    }
}

/// Covered-prime-path bitmap, indexed like the enumeration and keyed by
/// its digest. The mergeable/shippable shard type mirroring `Coverage`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PathCoverage {
    set_digest: u64,
    feasible_total: u32,
    covered: Vec<bool>,
}

impl PathCoverage {
    /// Marks enumerated path `idx` covered.
    pub fn record(&mut self, idx: u32) {
        if let Some(c) = self.covered.get_mut(idx as usize) {
            *c = true;
        }
    }

    /// Whether enumerated path `idx` is covered.
    #[must_use]
    pub fn is_covered(&self, idx: u32) -> bool {
        self.covered.get(idx as usize).copied().unwrap_or(false)
    }

    /// The covered bitmap, indexed by enumerated path.
    #[must_use]
    pub fn covered(&self) -> &[bool] {
        &self.covered
    }

    /// Total enumerated paths the tracker is sized for (the bitmap width,
    /// needed alongside [`PathCoverage::pack_bits`] to round-trip a shard).
    #[must_use]
    pub fn n_paths(&self) -> u32 {
        self.covered.len() as u32
    }

    /// Number of covered paths. Matching credits feasible paths only, so
    /// this is also the feasible-covered numerator.
    #[must_use]
    pub fn covered_count(&self) -> u32 {
        self.covered.iter().map(|&c| u32::from(c)).sum()
    }

    /// The feasible denominator the tracker was built against.
    #[must_use]
    pub fn feasible_total(&self) -> u32 {
        self.feasible_total
    }

    /// The enumeration digest the tracker was built against.
    #[must_use]
    pub fn set_digest(&self) -> u64 {
        self.set_digest
    }

    /// Prime-path coverage in `[0, 1]`: covered / feasible. Returns 1.0
    /// when no feasible path exists.
    #[must_use]
    pub fn ratio(&self) -> f64 {
        if self.feasible_total == 0 {
            return 1.0;
        }
        f64::from(self.covered_count()) / f64::from(self.feasible_total)
    }

    /// Merges another tracker into this one (union of covered paths).
    ///
    /// # Errors
    ///
    /// Returns [`SimError::PathSetMismatch`] — leaving `self` untouched —
    /// when the shards come from different enumerations (different
    /// programs, limits or analyzer versions), and
    /// [`SimError::CoverageSizeMismatch`] when a same-digest shard has an
    /// impossible length (a corrupt shard).
    pub fn merge(&mut self, other: &PathCoverage) -> Result<(), SimError> {
        if self.set_digest != other.set_digest {
            return Err(SimError::PathSetMismatch {
                left: self.set_digest,
                right: other.set_digest,
            });
        }
        bits::union(&mut self.covered, &other.covered, 1)
    }

    /// Packs the covered bitmap into bytes, one bit per path (low bits
    /// first) — the campaign journal's shard form.
    #[must_use]
    pub fn pack_bits(&self) -> Vec<u8> {
        bits::pack(&self.covered)
    }

    /// Rebuilds a tracker from [`PathCoverage::pack_bits`] output plus the
    /// shard's identity.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::CoverageSizeMismatch`] when `bytes` is not the
    /// packed size for `n_paths`, and [`SimError::NonZeroPadding`] when
    /// the last byte sets bits past `n_paths`: only the canonical
    /// encoding decodes, so `pack_bits(unpack_bits(b)) == b`.
    pub fn unpack_bits(
        set_digest: u64,
        feasible_total: u32,
        n_paths: u32,
        bytes: &[u8],
    ) -> Result<PathCoverage, SimError> {
        let mut covered = vec![false; n_paths as usize];
        bits::unpack(&mut covered, 1, bytes)?;
        Ok(PathCoverage {
            set_digest,
            feasible_total,
            covered,
        })
    }

    /// FNV-1a-64 digest of the shard (identity + bitmap). Chainable:
    /// pass a previous digest as `seed`, or 0 to start fresh.
    #[must_use]
    pub fn digest(&self, seed: u64) -> u64 {
        let mut h = fnv1a64(seed, &self.set_digest.to_le_bytes());
        h = fnv1a64(h, &self.feasible_total.to_le_bytes());
        h = fnv1a64(h, &self.pack_bits());
        h
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use px_util::{Rng as _, Xoshiro256};

    /// A plan over a hand-made block graph (one instruction per block,
    /// starts `0..n_blocks`): path `i` is `paths[i]`, feasible when
    /// `feasible[i]`.
    fn plan_with(n_blocks: usize, paths: &[Vec<u32>], feasible: &[bool]) -> PathPlan {
        plan_on((0..n_blocks as u32).collect(), paths, feasible)
    }

    /// [`plan_with`] over the given block starts.
    fn plan_on(starts: Vec<u32>, paths: &[Vec<u32>], feasible: &[bool]) -> PathPlan {
        PathPlan::new(
            0x5678,
            starts,
            paths.len() as u32,
            feasible.iter().filter(|&&f| f).count() as u32,
            paths
                .iter()
                .zip(feasible)
                .enumerate()
                .filter(|(_, (_, &f))| f)
                .map(|(i, (p, _))| (p.as_slice(), i as u32)),
        )
        .unwrap()
    }

    /// [`plan_with`] with every path feasible.
    fn plan_of(n_blocks: usize, paths: &[&[u32]]) -> PathPlan {
        let owned: Vec<Vec<u32>> = paths.iter().map(|p| p.to_vec()).collect();
        plan_with(n_blocks, &owned, &vec![true; paths.len()])
    }

    /// Brute-force oracle: which paths occur as contiguous subsequences
    /// of `trace`?
    fn oracle(paths: &[Vec<u32>], trace: &[u32]) -> Vec<bool> {
        paths
            .iter()
            .map(|p| !p.is_empty() && trace.windows(p.len()).any(|w| w == p.as_slice()))
            .collect()
    }

    /// Linear-scan reference for [`PathPlan::block_at`].
    fn scan_block_at(starts: &[u32], pc: u32) -> Option<u32> {
        starts.iter().position(|&s| s == pc).map(|i| i as u32)
    }

    /// Linear-scan reference for [`PathPlan::blocks_in_range`]: the blocks
    /// starting in `(pc0, pc0 + n]`.
    fn scan_range(starts: &[u32], pc0: u32, n: u32) -> Vec<u32> {
        let (lo, hi) = (u64::from(pc0), u64::from(pc0) + u64::from(n));
        (0..starts.len() as u32)
            .filter(|&i| (lo + 1..=hi).contains(&u64::from(starts[i as usize])))
            .collect()
    }

    /// Every prime path of the block graph `succs` by brute force: all
    /// maximal simple paths and simple cycles (a cycle repeats its first
    /// block), minus those that are contiguous subpaths of another.
    fn prime_paths(succs: &[Vec<u32>]) -> Vec<Vec<u32>> {
        let mut candidates: Vec<Vec<u32>> = Vec::new();
        let mut work: Vec<Vec<u32>> = (0..succs.len() as u32).map(|b| vec![b]).collect();
        while let Some(p) = work.pop() {
            let last = *p.last().unwrap() as usize;
            let mut extended = false;
            for &s in &succs[last] {
                if s == p[0] {
                    let mut c = p.clone();
                    c.push(s);
                    candidates.push(c);
                    extended = true;
                } else if !p.contains(&s) {
                    let mut q = p.clone();
                    q.push(s);
                    work.push(q);
                    extended = true;
                }
            }
            if !extended {
                candidates.push(p);
            }
        }
        candidates.sort_by(|a, b| b.len().cmp(&a.len()).then_with(|| a.cmp(b)));
        let mut kept: Vec<Vec<u32>> = Vec::new();
        for c in candidates {
            if !kept
                .iter()
                .any(|k| k.windows(c.len()).any(|w| w == c.as_slice()))
            {
                kept.push(c);
            }
        }
        kept.sort();
        kept
    }

    /// A random block graph on `n` blocks: ~40% edge density, self-loops
    /// allowed, every block with at least one successor.
    fn random_graph(rng: &mut Xoshiro256, n: usize) -> Vec<Vec<u32>> {
        (0..n)
            .map(|b| {
                let mut s: Vec<u32> = (0..n as u32).filter(|_| rng.chance(4, 10)).collect();
                if s.is_empty() {
                    s.push((b as u32 + 1) % n as u32);
                }
                s
            })
            .collect()
    }

    /// One execution path under test: the trail, the blocks it entered
    /// since its last reset or fork (inherited blocks included), and the
    /// block it sits at.
    struct Walker {
        trail: PathTrail,
        seen: Vec<u32>,
        at: u32,
    }

    impl Walker {
        fn enter(&mut self, plan: &PathPlan, cov: &mut PathCoverage, block: u32) {
            self.trail.enter_block(plan, cov, block);
            self.seen.push(block);
            self.at = block;
        }
    }

    px_util::px_prop! {
        /// The automaton credits exactly what the brute-force oracle
        /// finds in every stream, across the NT lifecycle: walkers step
        /// along graph edges, squash (reset to the root), and spawn (a copy
        /// that diverges from its parent at the next block). Half the cases
        /// use the graph's prime paths with a random infeasible subset
        /// (an antichain, as enumeration yields); the other half use
        /// arbitrary short block strings in arbitrary order, so paths nest
        /// and the dictionary links carry the credit.
        fn matcher_agrees_with_brute_force_on_random_walks(
            n in 1usize..7,
            seed in px_util::prop::any_u64(),
            primes in px_util::prop::any_bool(),
            events in 0usize..400,
        ) {
            // Event kinds come from the seeded stream rather than a sized
            // strategy, so spawns and squashes occur at every size and
            // shrinking cuts the graph and the event count.
            let mut rng = Xoshiro256::seeded(seed);
            let succs = random_graph(&mut rng, n);
            let paths: Vec<Vec<u32>> = if primes {
                prime_paths(&succs)
            } else {
                // Unsorted, so the plan's own sort is exercised too.
                let mut p: Vec<Vec<u32>> = Vec::new();
                for _ in 0..1 + rng.below(12) {
                    let q = (0..1 + rng.below(4)).map(|_| rng.below(n as u64) as u32).collect();
                    if !p.contains(&q) {
                        p.push(q);
                    }
                }
                p
            };
            let feasible: Vec<bool> = paths.iter().map(|_| rng.chance(3, 4)).collect();
            let plan = plan_with(n, &paths, &feasible);
            let mut cov = plan.new_coverage();
            let mut want = vec![false; paths.len()];
            let settle = |seen: &[u32], want: &mut Vec<bool>| {
                for (w, o) in want.iter_mut().zip(oracle(&paths, seen)) {
                    *w |= o;
                }
            };

            let mut walkers = vec![Walker {
                trail: PathTrail::default(),
                seen: Vec::new(),
                at: 0,
            }];
            walkers[0].enter(&plan, &mut cov, 0);
            for _ in 0..events {
                let (kind, pick) = (rng.below(10), rng.next_u32());
                let w = pick as usize % walkers.len();
                let next = |at: u32, salt: u32| {
                    let s = &succs[at as usize];
                    s[(pick >> 8).wrapping_add(salt) as usize % s.len()]
                };
                match kind {
                    0..=5 => {
                        let b = next(walkers[w].at, 0);
                        walkers[w].enter(&plan, &mut cov, b);
                    }
                    6 => {
                        settle(&walkers[w].seen, &mut want);
                        walkers[w].trail = PathTrail::default();
                        walkers[w].seen.clear();
                    }
                    7 | 8 if walkers.len() < 4 => {
                        let parent = &walkers[w];
                        let mut child = Walker {
                            trail: parent.trail,
                            seen: parent.seen.clone(),
                            at: parent.at,
                        };
                        let (to_child, to_parent) = (next(parent.at, 1), next(parent.at, 0));
                        child.enter(&plan, &mut cov, to_child);
                        walkers[w].enter(&plan, &mut cov, to_parent);
                        walkers.push(child);
                    }
                    _ if walkers.len() > 1 => {
                        let gone = walkers.swap_remove(w);
                        settle(&gone.seen, &mut want);
                    }
                    _ => {}
                }
            }
            for w in &walkers {
                settle(&w.seen, &mut want);
            }
            for (i, p) in paths.iter().enumerate() {
                assert_eq!(
                    cov.is_covered(i as u32),
                    want[i] && feasible[i],
                    "path {i} {p:?} (feasible {}) over graph {succs:?}",
                    feasible[i],
                );
            }
        }

        /// The pc lookups on sparse block starts (gaps between starts, the
        /// first past pc 0), as the engines drive them: jumps through
        /// `enter_pc` and straight-line batches through `enter_range` that
        /// cross no start, one or several, and run past the last. After
        /// every event the trail equals a second trail fed block by block
        /// from a linear scan of the starts, and the coverage equals the
        /// brute-force oracle over the scanned block stream. Paths favour
        /// consecutive blocks, the fall-through step's case.
        fn pc_walks_on_sparse_starts_agree_with_a_linear_scan(
            n in 1usize..7,
            seed in px_util::prop::any_u64(),
            events in 0usize..400,
        ) {
            let mut rng = Xoshiro256::seeded(seed);
            let mut starts = Vec::with_capacity(n);
            let mut pc = 0u32;
            for _ in 0..n {
                pc += 1 + rng.below(4) as u32;
                starts.push(pc);
            }
            let last = pc;
            let mut paths: Vec<Vec<u32>> = Vec::new();
            for _ in 0..1 + rng.below(12) {
                let mut b = rng.below(n as u64) as u32;
                let mut q = vec![b];
                for _ in 0..rng.below(4) {
                    b = if rng.chance(1, 2) && (b as usize) + 1 < n {
                        b + 1
                    } else {
                        rng.below(n as u64) as u32
                    };
                    q.push(b);
                }
                if !paths.contains(&q) {
                    paths.push(q);
                }
            }
            let feasible: Vec<bool> = paths.iter().map(|_| rng.chance(3, 4)).collect();
            let plan = plan_on(starts.clone(), &paths, &feasible);
            let (mut cov, mut ref_cov) = (plan.new_coverage(), plan.new_coverage());
            let (mut trail, mut reference) = (PathTrail::default(), PathTrail::default());
            let mut seen: Vec<u32> = Vec::new();
            let mut want = vec![false; paths.len()];
            let settle = |seen: &[u32], want: &mut Vec<bool>| {
                for (w, o) in want.iter_mut().zip(oracle(&paths, seen)) {
                    *w |= o;
                }
            };
            let mut at = 0u32;
            for e in 0..events {
                let entered = match rng.below(8) {
                    0 | 1 => {
                        at = rng.below(u64::from(last) + 4) as u32;
                        trail.enter_pc(&plan, &mut cov, at);
                        scan_block_at(&starts, at).into_iter().collect()
                    }
                    2..=6 => {
                        let len = rng.below(13) as u32;
                        trail.enter_range(&plan, &mut cov, at, len);
                        let blocks = scan_range(&starts, at, len);
                        at += len;
                        blocks
                    }
                    _ => {
                        settle(&seen, &mut want);
                        seen.clear();
                        (trail, reference) = (PathTrail::default(), PathTrail::default());
                        Vec::new()
                    }
                };
                for b in entered {
                    reference.enter_block(&plan, &mut ref_cov, b);
                    seen.push(b);
                }
                assert_eq!(trail, reference, "event {e} at pc {at}, starts {starts:?}");
            }
            settle(&seen, &mut want);
            for (i, p) in paths.iter().enumerate() {
                assert_eq!(
                    cov.is_covered(i as u32),
                    want[i] && feasible[i],
                    "path {i} {p:?} (feasible {}) over starts {starts:?}",
                    feasible[i],
                );
            }
            assert_eq!(cov, ref_cov);
        }
    }

    #[test]
    fn pc_lookups_match_a_linear_scan() {
        let cases: [&[u32]; 6] = [
            &[],
            &[0],
            &[3],
            &[0, 1, 2],
            &[2, 3, 7, 8, 12],
            &[1, 5, 6, 20],
        ];
        for starts in cases {
            let plan = plan_on(starts.to_vec(), &[], &[]);
            let last = starts.last().copied().unwrap_or(0);
            // `pc0 + n` past `u32::MAX` is computed without wrapping.
            let lens = (0..=5).chain([u32::MAX - 1, u32::MAX]);
            for pc in 0..=last + 3 {
                assert_eq!(
                    plan.block_at(pc),
                    scan_block_at(starts, pc),
                    "{starts:?} pc {pc}"
                );
                for n in lens.clone() {
                    let got: Vec<u32> = plan.blocks_in_range(pc, n).map(|i| i as u32).collect();
                    assert_eq!(got, scan_range(starts, pc, n), "{starts:?} pc {pc} n {n}");
                }
            }
            let end = starts.len();
            for pc in [u32::MAX - 5, u32::MAX - 1, u32::MAX] {
                assert_eq!(plan.block_at(pc), None);
                for n in lens.clone() {
                    assert_eq!(
                        plan.blocks_in_range(pc, n),
                        end..end,
                        "{starts:?} pc {pc} n {n}"
                    );
                }
            }
        }
    }

    #[test]
    fn long_self_loop_with_many_forks_credits_exactly_the_oracle() {
        // A million trips round a self-loop keep the trail one `u32`;
        // every 100th trip forks an NT trail that diverges to block 1
        // and then block 2. Paths span at most three blocks, so each
        // fork's new matches lie in its parent's last two blocks plus its
        // own two.
        let paths: Vec<Vec<u32>> = vec![vec![0, 0], vec![0, 1, 2], vec![1, 0], vec![2, 2]];
        let plan = plan_with(3, &paths, &[true; 4]);
        assert_eq!(std::mem::size_of::<PathTrail>(), 4);
        let mut cov = plan.new_coverage();
        let mut want = vec![false; paths.len()];
        let mut taken = PathTrail::default();
        let mut forks = 0;
        for i in 0..1_000_000u32 {
            taken.enter_block(&plan, &mut cov, 0);
            if i % 100 == 99 {
                let mut nt = taken;
                nt.enter_block(&plan, &mut cov, 1);
                nt.enter_block(&plan, &mut cov, 2);
                for (w, o) in want.iter_mut().zip(oracle(&paths, &[0, 0, 1, 2])) {
                    *w |= o;
                }
                forks += 1;
            }
        }
        for (w, o) in want.iter_mut().zip(oracle(&paths, &[0, 0])) {
            *w |= o;
        }
        assert_eq!(forks, 10_000);
        assert_eq!(cov.covered(), want.as_slice());
        assert_eq!(want, [true, true, false, false]);
    }

    #[test]
    fn reset_squashes_windows_but_not_coverage() {
        let plan = plan_of(3, &[&[0, 1, 2]]);
        let mut cov = plan.new_coverage();
        let mut trail = PathTrail::default();
        trail.enter_block(&plan, &mut cov, 0);
        trail.enter_block(&plan, &mut cov, 1);
        trail = PathTrail::default();
        trail.enter_block(&plan, &mut cov, 2);
        assert!(!cov.is_covered(0), "squash broke the match");
        trail.enter_block(&plan, &mut cov, 0);
        trail.enter_block(&plan, &mut cov, 1);
        trail.enter_block(&plan, &mut cov, 2);
        assert!(cov.is_covered(0), "full pass after reset matches");
    }

    #[test]
    fn copy_from_lets_spawned_trails_match_across_the_divergence() {
        let plan = plan_of(4, &[&[0, 1, 2], &[0, 1, 3]]);
        let mut cov = plan.new_coverage();
        let mut taken = PathTrail::default();
        taken.enter_block(&plan, &mut cov, 0);
        taken.enter_block(&plan, &mut cov, 1);
        // Spawn: NT inherits [0,1] then diverges to 3; taken goes to 2.
        let mut nt = taken;
        nt.enter_block(&plan, &mut cov, 3);
        taken.enter_block(&plan, &mut cov, 2);
        assert!(cov.is_covered(0), "taken side [0,1,2]");
        assert!(cov.is_covered(1), "NT side [0,1,3] spans the spawn");
    }

    #[test]
    fn merge_rejects_foreign_shards_and_unions_matching_ones() {
        let plan = plan_of(2, &[&[0, 1]]);
        let mut a = plan.new_coverage();
        a.record(0);
        let mut other = PathCoverage::unpack_bits(0x9999, 1, 1, &[0]).unwrap();
        let before = a.clone();
        assert_eq!(
            a.merge(&other),
            Err(SimError::PathSetMismatch {
                left: plan.set_digest,
                right: 0x9999
            })
        );
        assert_eq!(a, before, "failed merge must not mutate");
        other = plan.new_coverage();
        assert!(a.merge(&other).is_ok());
        assert_eq!(a.covered_count(), 1);
    }

    #[test]
    fn pack_bits_round_trips() {
        for n in [0u32, 1, 7, 8, 9, 64, 65] {
            let mut cov = PathCoverage {
                set_digest: 7,
                feasible_total: n,
                covered: vec![false; n as usize],
            };
            for i in (0..n).step_by(3) {
                cov.record(i);
            }
            let packed = cov.pack_bits();
            assert_eq!(packed.len(), (n as usize).div_ceil(8));
            let back = PathCoverage::unpack_bits(7, n, n, &packed).unwrap();
            assert_eq!(back, cov);
        }
        assert!(matches!(
            PathCoverage::unpack_bits(7, 4, 4, &[0, 0]),
            Err(SimError::CoverageSizeMismatch { .. })
        ));
    }

    #[test]
    fn unpack_is_canonical_every_byte_string_round_trips_or_fails() {
        for n in [1u32, 3, 7, 8, 9, 13] {
            let len = (n as usize).div_ceil(8);
            for last in 0..=u8::MAX {
                let mut bytes = vec![0b1001_0110; len];
                bytes[len - 1] = last;
                match PathCoverage::unpack_bits(7, n, n, &bytes) {
                    Ok(cov) => assert_eq!(cov.pack_bits(), bytes, "n {n}"),
                    Err(e) => assert_eq!(e, SimError::NonZeroPadding { last }),
                }
            }
        }
    }

    #[test]
    fn plan_rejects_malformed_paths_with_typed_errors() {
        let new = |paths: &[(&[u32], u32)]| {
            PathPlan::new(
                2,
                vec![0, 1, 2],
                4,
                paths.len() as u32,
                paths.iter().copied(),
            )
        };
        assert_eq!(
            new(&[(&[0, 1], 0), (&[], 3)]),
            Err(SimError::EmptyPrimePath { path: 3 })
        );
        assert_eq!(
            new(&[(&[0, 1], 0), (&[2, 3, 0], 1)]),
            Err(SimError::PrimePathBlockOutOfRange {
                path: 1,
                block: 3,
                n_blocks: 3
            })
        );
        assert_eq!(
            new(&[(&[0, 1], 2), (&[1, 2], 1), (&[0, 1], 0)]),
            Err(SimError::DuplicatePrimePath {
                first: 0,
                second: 2
            })
        );
        assert!(new(&[(&[0, 1], 0), (&[1, 2], 1)]).is_ok());
        let r = PathPlan::new(2, vec![1, 0], 0, 0, []);
        assert_eq!(
            r,
            Err(SimError::Invariant("path plan block starts not ascending"))
        );
    }

    #[test]
    fn ratio_handles_empty_denominators() {
        let plan = plan_of(1, &[]);
        let cov = plan.new_coverage();
        assert_eq!(cov.ratio(), 1.0);
        assert_eq!(cov.covered_count(), 0);
    }
}
