//! Property tests on the machine substrate: the sandbox is an exact overlay,
//! gang invalidation removes exactly the volatile lines, the BTB counters
//! never exceed saturation, and coverage merging is a lattice join.
//!
//! Runs on the in-tree `px_util` property harness (`px_prop!`).

use px_isa::{Edge, Width, DATA_BASE};
use px_mach::{
    Btb, Cache, CacheConfig, Coverage, Hierarchy, MachConfig, MemView, Memory, Sandbox,
    SandboxView, COMMITTED,
};
use px_util::prop::{any_bool, any_i32, vec_of, Strategy};
use px_util::px_prop;

const MEM_SIZE: u32 = DATA_BASE + 4096;

fn arb_addr() -> impl Strategy<Value = u32> + Clone + 'static {
    DATA_BASE..(MEM_SIZE - 4)
}

px_prop! {
    fn sandbox_reads_equal_writes_and_rollback_restores(
        committed_writes in vec_of((arb_addr(), any_i32()), 0..20),
        nt_writes in vec_of((arb_addr(), any_i32()), 0..20),
        probes in vec_of(arb_addr(), 1..16),
    ) {
        use std::collections::HashMap;
        let mut mem = Memory::new(MEM_SIZE);
        for &(a, v) in &committed_writes {
            mem.store(a, v, Width::Word).unwrap();
        }
        let snapshot = mem.clone();

        // Byte-level oracle of the NT overlay.
        let mut oracle: HashMap<u32, u8> = HashMap::new();
        let mut sb = Sandbox::new();
        {
            let mut view = SandboxView::new(&mem, &mut sb);
            for &(a, v) in &nt_writes {
                view.store(a, v, Width::Word).unwrap();
                for (i, byte) in v.to_le_bytes().into_iter().enumerate() {
                    oracle.insert(a + i as u32, byte);
                }
            }
            for &p in &probes {
                let expected = oracle.get(&p).copied().unwrap_or_else(|| snapshot.byte(p));
                assert_eq!(
                    view.load(p, Width::Byte).unwrap(),
                    i32::from(expected),
                    "probe at {p:#x}"
                );
            }
        }
        // Rollback: committed memory is untouched by any NT write.
        sb.clear();
        assert_eq!(mem, snapshot);
        for a in DATA_BASE..MEM_SIZE {
            assert_eq!(sb.written_byte(a), None, "written {a:#x} after rollback");
        }
    }

    fn snapshot_preserves_spawn_time_view(
        addr in arb_addr(),
        before in any_i32(),
        after in any_i32(),
    ) {
        let mut mem = Memory::new(MEM_SIZE);
        mem.store(addr, before, Width::Word).unwrap();
        let mut sb = Sandbox::new();
        // Taken path overwrites after the NT-path spawned.
        for i in 0..4 {
            sb.preserve(addr + i, mem.byte(addr + i));
        }
        mem.store(addr, after, Width::Word).unwrap();
        let mut view = SandboxView::new(&mem, &mut sb);
        assert_eq!(view.load(addr, Width::Word).unwrap(), before);
    }

    fn gang_invalidate_removes_exactly_the_tagged_lines(
        ops in vec_of((0u32..1u32 << 16, any_bool(), 0u8..4), 1..200),
        victim_tag in 1u8..4,
    ) {
        let mut cache = Cache::new(CacheConfig {
            size_bytes: 2048,
            assoc: 4,
            line_bytes: 32,
            hit_cycles: 1,
        });
        for &(addr, write, tag) in &ops {
            let _ = cache.access(addr, write, tag);
        }
        let before = cache.volatile_lines();
        let dropped = cache.gang_invalidate(victim_tag);
        let after = cache.volatile_lines();
        assert_eq!(before - after, dropped);
        // A second invalidation finds nothing.
        assert_eq!(cache.gang_invalidate(victim_tag), 0);
    }

    // The L1 Vtag squash invariant (paper §4.2(2)/§6.2): squashing an
    // NT-path gang-invalidates *every* line carrying its volatile tag,
    // while committed lines — in particular the monitor memory area, which
    // checker stores always write with the committed tag — survive and
    // still hit.
    fn squash_invalidates_all_volatile_lines_and_monitor_lines_survive(
        monitor_lines in vec_of(0u32..8, 1..8),
        nt_ops in vec_of((0u32..8, 1u8..4), 0..24),
    ) {
        let cfg = CacheConfig { size_bytes: 4096, assoc: 4, line_bytes: 32, hit_cycles: 1 };
        let line = cfg.line_bytes;
        let mut cache = Cache::new(cfg);
        // The "monitor area": committed writes, one distinct cache set per
        // index (sets 0..8) so capacity eviction cannot disturb the
        // invariant under test.
        for &i in &monitor_lines {
            cache.access(i * line, true, COMMITTED);
        }
        // NT-path writes land in disjoint sets (8..16), so they never evict
        // the monitor lines.
        for &(i, tag) in &nt_ops {
            cache.access((i + 8) * line, true, tag);
        }
        // Squash every live path: afterwards no volatile line may remain.
        for tag in 1u8..4 {
            cache.gang_invalidate(tag);
        }
        assert_eq!(cache.volatile_lines(), 0, "squash must drop every volatile line");
        // Monitor-area lines survived the squash and still hit.
        for &i in &monitor_lines {
            assert_eq!(
                cache.access(i * line, false, COMMITTED),
                px_mach::Lookup::Hit,
                "monitor line {i} was lost by an NT-path squash"
            );
        }
    }

    fn btb_counters_saturate_and_reset(
        pcs in vec_of((0u32..512, any_bool()), 0..400),
    ) {
        let mut btb = Btb::new(256, 2);
        for &(pc, taken) in &pcs {
            btb.exercise(pc, Edge::from_taken(taken));
        }
        for &(pc, taken) in &pcs {
            assert!(btb.edge_count(pc, Edge::from_taken(taken)) <= px_mach::COUNTER_MAX);
        }
        btb.reset_counters();
        for &(pc, taken) in &pcs {
            assert_eq!(btb.edge_count(pc, Edge::from_taken(taken)), 0);
        }
    }

    fn coverage_merge_is_monotone_and_idempotent(
        a in vec_of((0u32..64, any_bool()), 0..64),
        b in vec_of((0u32..64, any_bool()), 0..64),
    ) {
        let mut ca = Coverage::new(64);
        for &(pc, t) in &a {
            ca.record(pc, Edge::from_taken(t));
        }
        let mut cb = Coverage::new(64);
        for &(pc, t) in &b {
            cb.record(pc, Edge::from_taken(t));
        }
        let mut merged = ca.clone();
        merged.merge(&cb).unwrap();
        // Everything in either input is in the merge.
        for &(pc, t) in a.iter().chain(&b) {
            assert!(merged.covered(pc, Edge::from_taken(t)));
        }
        // Idempotent.
        let mut twice = merged.clone();
        twice.merge(&cb).unwrap();
        twice.merge(&ca).unwrap();
        assert_eq!(&twice, &merged);
    }

    fn hierarchy_latency_is_within_physical_bounds(
        ops in vec_of((0u32..1u32 << 20, any_bool()), 1..300),
    ) {
        let cfg = MachConfig::default();
        let mut h = Hierarchy::new(&cfg);
        let min = cfg.l1.hit_cycles;
        let max = cfg.l1.hit_cycles + cfg.l2.hit_cycles * 2 + cfg.mem_cycles;
        for &(addr, write) in &ops {
            let a = h.access(0, addr, write, COMMITTED);
            assert!(a.cycles >= min && a.cycles <= max, "latency {} out of [{min},{max}]", a.cycles);
        }
    }
}
