//! Shared fault-injection plumbing for the PathExpander engines.
//!
//! Both engines accept an optional [`FaultHook`] and consult it only while an
//! NT-path is stepping — faults land *inside* the sandbox, so the containment
//! checker ([`crate::contain`]) can compare the committed state against a
//! plain, un-faulted baseline run. Core-level faults are applied by
//! [`px_mach::step_uop`] itself; cache-level faults come back via
//! [`Step::deferred`](px_mach::Step) and are applied here.

use px_mach::{FaultAction, FaultHook, Hierarchy, MemoNote, MonitorArea, PathKind};

/// Watch tag used for synthetic monitor-pressure records, far outside the
/// range any real watchpoint uses, so tests and the containment checker can
/// tell injected records from organic ones.
pub const FAULT_WATCH_TAG: u32 = 0xFA01_7FA0;

/// Wraps a caller-provided hook and counts how many faults it delivered, so
/// the engines can report `PxStats::faults_injected` without the hook trait
/// having to expose statistics.
pub(crate) struct CountingHook<'a> {
    pub inner: &'a mut dyn FaultHook,
    pub fired: u64,
}

impl FaultHook for CountingHook<'_> {
    fn before_step(&mut self, pc: u32) -> Option<FaultAction> {
        let action = self.inner.before_step(pc);
        if action.is_some() {
            self.fired += 1;
        }
        action
    }
}

/// Applies a deferred (cache- or monitor-level) fault on behalf of an engine.
///
/// `core` is the core whose L1 hosts the NT-path's sandbox and `vtag` the
/// path's volatile tag, so injected lines are swept up by the path's own
/// gang-invalidation — the injection can degrade the path (early overflow,
/// timing noise, monitor pressure) but never the committed state.
#[allow(clippy::too_many_arguments)] // mirrors the hardware interface: one port per signal
pub(crate) fn apply_deferred(
    action: FaultAction,
    caches: &mut Hierarchy,
    core: usize,
    vtag: u8,
    monitor: &mut MonitorArea,
    cycle: u64,
    path: PathKind,
    pc: u32,
) {
    match action {
        FaultAction::FlipL1Vtag { entropy } => {
            caches.inject_vtag_flip(core, entropy, vtag);
        }
        FaultAction::ExhaustVolatileSet { entropy } => {
            caches.inject_volatile_fill(core, entropy, vtag);
        }
        FaultAction::MonitorPressure { records } => {
            for i in 0..records {
                let note = MemoNote::Watch {
                    tag: FAULT_WATCH_TAG,
                    addr: u32::from(i),
                    is_write: true,
                    pc,
                };
                monitor.file(note, cycle, path);
            }
        }
        // Core-level faults were already applied inside `step_uop`.
        FaultAction::FlipMemBit { .. }
        | FaultAction::ForceCrash { .. }
        | FaultAction::RedirectBack { .. }
        | FaultAction::FailInput => {}
    }
}
