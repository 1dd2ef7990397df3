//! Differential property suite for the paged sandbox: the generation-stamped
//! shadow-page implementation in `px_mach::Sandbox` must behave exactly like
//! the obvious `HashMap`-based model it replaced, under arbitrary interleaved
//! traces of stores (both widths, any alignment), loads, copy-on-write
//! `preserve` calls and `clear`s — including reuse across clears, which is
//! where a stale-generation bug would hide.

use std::collections::HashMap;

use px_isa::{Width, DATA_BASE};
use px_mach::{MemView, Memory, Sandbox, SandboxView};
use px_util::prop::{any_i32, vec_of, Strategy};
use px_util::px_prop;

const MEM_SIZE: u32 = DATA_BASE + 3 * 4096;

/// The reference model: exactly the pre-rewrite representation — a byte map
/// of NT writes over a byte map of spawn-time snapshots, latest write wins,
/// first `preserve` wins.
#[derive(Default)]
struct RefSandbox {
    writes: HashMap<u32, u8>,
    snap: HashMap<u32, u8>,
}

impl RefSandbox {
    fn store(&mut self, addr: u32, value: i32, width: Width) {
        for (i, b) in value.to_le_bytes()[..width.bytes() as usize]
            .iter()
            .enumerate()
        {
            self.writes.insert(addr + i as u32, *b);
        }
    }

    fn load(&self, mem: &Memory, addr: u32, width: Width) -> i32 {
        let mut bytes = [0u8; 4];
        for (i, slot) in bytes[..width.bytes() as usize].iter_mut().enumerate() {
            let a = addr + i as u32;
            *slot = self
                .writes
                .get(&a)
                .or_else(|| self.snap.get(&a))
                .copied()
                .unwrap_or_else(|| mem.byte(a));
        }
        match width {
            Width::Byte => i32::from(bytes[0]),
            Width::Word => i32::from_le_bytes(bytes),
        }
    }

    fn preserve(&mut self, addr: u32, old: u8) {
        self.snap.entry(addr).or_insert(old);
    }

    fn clear(&mut self) {
        self.writes.clear();
        self.snap.clear();
    }
}

/// One step of a random trace.
#[derive(Debug, Clone)]
enum Op {
    Store { addr: u32, value: i32, word: bool },
    Load { addr: u32, word: bool },
    Preserve { addr: u32 },
    Clear,
}

fn arb_addr() -> impl Strategy<Value = u32> + Clone + 'static {
    // Deliberately unaligned and spanning page boundaries: the span store
    // fast path and the word load fast path both have a "crosses a 64-bit
    // mask word / page edge" slow branch that must agree with the model.
    DATA_BASE..(MEM_SIZE - 4)
}

fn arb_op() -> impl Strategy<Value = Op> + 'static {
    (arb_addr(), any_i32(), 0u8..8).prop_map(|(addr, value, kind)| match kind {
        0..=2 => Op::Store {
            addr,
            value,
            word: true,
        },
        3 => Op::Store {
            addr,
            value,
            word: false,
        },
        4 | 5 => Op::Load {
            addr,
            word: kind == 4,
        },
        6 => Op::Preserve { addr },
        _ => Op::Clear,
    })
}

fn width(word: bool) -> Width {
    if word {
        Width::Word
    } else {
        Width::Byte
    }
}

px_prop! {
    fn paged_sandbox_matches_hashmap_reference(
        seed_writes in vec_of((arb_addr(), any_i32()), 0..8),
        trace in vec_of(arb_op(), 1..120),
    ) {
        let mut mem = Memory::new(MEM_SIZE);
        for &(a, v) in &seed_writes {
            mem.store(a, v, Width::Word).unwrap();
        }
        let mut sb = Sandbox::new();
        let mut model = RefSandbox::default();

        for op in &trace {
            match *op {
                Op::Store { addr, value, word } => {
                    let w = width(word);
                    SandboxView::new(&mem, &mut sb).store(addr, value, w).unwrap();
                    model.store(addr, value, w);
                }
                Op::Load { addr, word } => {
                    let w = width(word);
                    let got = SandboxView::new(&mem, &mut sb).load(addr, w).unwrap();
                    assert_eq!(got, model.load(&mem, addr, w), "load {addr:#x} {w:?}");
                }
                Op::Preserve { addr } => {
                    let old = mem.byte(addr);
                    sb.preserve(addr, old);
                    model.preserve(addr, old);
                }
                Op::Clear => {
                    sb.clear();
                    model.clear();
                }
            }
            // Presence bits against the model: every 64-byte mask word the
            // op touched, or the whole range after a clear.
            let swept = match *op {
                Op::Store { addr, .. } | Op::Load { addr, .. } | Op::Preserve { addr } => {
                    (addr & !63)..((addr + 4 + 63) & !63).min(MEM_SIZE)
                }
                Op::Clear => DATA_BASE..MEM_SIZE,
            };
            for a in swept {
                assert_eq!(
                    sb.written_byte(a).is_some(),
                    model.writes.contains_key(&a),
                    "written {a:#x} after {op:?}"
                );
            }
        }

        // Sweep every byte both ways at the end of the trace: per-byte
        // queries and word loads at all four alignments must agree.
        for a in DATA_BASE..(MEM_SIZE - 4) {
            assert_eq!(sb.written_byte(a), model.writes.get(&a).copied(), "written {a:#x}");
            assert_eq!(sb.snapshot_byte(a), model.snap.get(&a).copied(), "snap {a:#x}");
            let got = SandboxView::new(&mem, &mut sb).load(a, Width::Word).unwrap();
            assert_eq!(got, model.load(&mem, a, Width::Word), "final word {a:#x}");
        }
    }

    fn clear_is_generation_fresh_even_with_reused_pages(
        addr in arb_addr(),
        rounds in vec_of((any_i32(), any_i32()), 1..10),
    ) {
        // Reusing a page across clears must never leak a previous round's
        // writes or snapshots: the generation stamp makes old state stale
        // without zeroing, and this is the property that pins it.
        let mut mem = Memory::new(MEM_SIZE);
        let mut sb = Sandbox::new();
        for &(v, old) in &rounds {
            sb.preserve(addr, old as u8);
            SandboxView::new(&mem, &mut sb).store(addr, v, Width::Word).unwrap();
            assert_eq!(
                SandboxView::new(&mem, &mut sb).load(addr, Width::Word).unwrap(),
                v
            );
            sb.clear();
            for a in DATA_BASE..MEM_SIZE {
                assert_eq!(sb.written_byte(a), None, "written {a:#x} after clear");
            }
            assert_eq!(sb.snapshot_byte(addr), None);
            assert_eq!(
                SandboxView::new(&mem, &mut sb).load(addr, Width::Word).unwrap(),
                mem.load(addr, Width::Word).unwrap()
            );
        }
    }
}
