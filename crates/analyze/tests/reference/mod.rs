//! The reference prime-path enumerator: one `Vec` per worklist entry, a
//! `VecDeque` FIFO and a linear `contains` test per extension — slow and
//! memory-hungry, but plain enough to read against the definition. Built
//! only from the public `Cfg`/`Analysis` API; `PrimePathSet::enumerate_with`
//! must agree with it on every program and every [`PathLimits`].

use std::collections::VecDeque;

use px_analyze::{Analysis, PathLimits, EXIT};
use px_isa::Program;

/// The kept prime paths (block sequences, lexicographic) and whether any
/// cap fired.
pub fn enumerate(
    program: &Program,
    analysis: &Analysis,
    limits: &PathLimits,
) -> (Vec<Vec<u32>>, bool) {
    let cfg = analysis.cfg();
    let blocks = cfg.blocks();
    let nb = blocks.len();

    let mut bsuccs: Vec<Vec<u32>> = vec![Vec::new(); nb];
    for (b, block) in blocks.iter().enumerate() {
        for &s in cfg.succs(block.end - 1) {
            if s != EXIT {
                let sb = cfg.block_of(s);
                if !bsuccs[b].contains(&sb) {
                    bsuccs[b].push(sb);
                }
            }
        }
    }
    let reach_insn = cfg.reachable(program.entry);

    // Every queued path is its own heap vector; the budget is spent one
    // pop at a time.
    let mut work: VecDeque<Vec<u32>> = blocks
        .iter()
        .zip(0u32..)
        .filter(|(bl, _)| reach_insn.get(bl.start as usize).copied().unwrap_or(false))
        .map(|(_, b)| vec![b])
        .collect();
    let mut candidates: Vec<Vec<u32>> = Vec::new();
    let mut truncated = false;
    let mut budget = limits.max_work;
    while let Some(p) = work.pop_front() {
        if budget == 0 || candidates.len() >= limits.max_candidates {
            truncated = true;
            break;
        }
        budget -= 1;
        let last = p[p.len() - 1];
        let mut extended = false;
        for &s in &bsuccs[last as usize] {
            if s == p[0] {
                let mut cyc = p.clone();
                cyc.push(s);
                candidates.push(cyc);
                extended = true;
            } else if !p.contains(&s) {
                let mut q = p.clone();
                q.push(s);
                work.push_back(q);
                extended = true;
            }
        }
        if !extended {
            candidates.push(p);
        }
    }

    // Maximality, longest first; a kept path subsuming a candidate holds
    // the candidate's first block, so only those are scanned.
    candidates.sort_by(|a, b| b.len().cmp(&a.len()).then_with(|| a.cmp(b)));
    let mut kept: Vec<Vec<u32>> = Vec::new();
    let mut by_block: Vec<Vec<usize>> = vec![Vec::new(); nb];
    for c in candidates {
        let subsumed = by_block[c[0] as usize].iter().any(|&k| {
            let k = &kept[k];
            k.len() >= c.len() && k.windows(c.len()).any(|w| w == c.as_slice())
        });
        if subsumed {
            continue;
        }
        let interior = if c.len() > 1 && c[0] == c[c.len() - 1] {
            &c[..c.len() - 1]
        } else {
            &c[..]
        };
        for &b in interior {
            by_block[b as usize].push(kept.len());
        }
        kept.push(c);
    }
    kept.sort();
    if kept.len() > limits.max_paths {
        kept.truncate(limits.max_paths);
        truncated = true;
    }
    (kept, truncated)
}
