//! The monitor memory area (paper §4.1): a special region, exempt from the
//! sandbox, where dynamic-checker results are stored so they survive NT-path
//! squashes. We model it as a typed record buffer rather than raw bytes — the
//! contents are exactly what a checker would serialize there.

use px_isa::CheckKind;

use crate::memo::MemoNote;

/// Where a record was produced.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PathKind {
    /// The ordinary (taken) execution path.
    Taken,
    /// A non-taken path; `spawn_pc` is the branch it was spawned from.
    NtPath { spawn_pc: u32 },
}

impl PathKind {
    /// Whether the record came from an NT-path.
    #[must_use]
    pub fn is_nt(&self) -> bool {
        matches!(self, PathKind::NtPath { .. })
    }
}

/// The payload of a monitor record.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RecordKind {
    /// A failed `check` probe (assertion / CCured check).
    Check(CheckKind),
    /// A watchpoint hit (iWatcher).
    Watch { tag: u32, addr: u32, is_write: bool },
}

/// One entry in the monitor memory area.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct MonitorRecord {
    /// The checker event.
    pub kind: RecordKind,
    /// Static site identifier: the `check` site for checks, the watch tag for
    /// watch hits.
    pub site: u32,
    /// Instruction index where the event occurred.
    pub pc: u32,
    /// Simulated cycle of the event.
    pub cycle: u64,
    /// Taken path or NT-path provenance.
    pub path: PathKind,
}

/// The monitor memory area itself.
#[derive(Debug, Clone, Default)]
pub struct MonitorArea {
    records: Vec<MonitorRecord>,
}

impl MonitorArea {
    /// Creates an empty area.
    #[must_use]
    pub fn new() -> MonitorArea {
        MonitorArea::default()
    }

    /// Appends a record. Records are never rolled back — that is the point
    /// of the monitor memory area.
    pub fn push(&mut self, record: MonitorRecord) {
        self.records.push(record);
    }

    /// Files the record a checker or watch note produces, stamped at
    /// `cycle` with provenance `path`; any other note files nothing. The
    /// one note-to-record mapping for the baseline runner, both
    /// PathExpander engines (live or replayed) and injected monitor
    /// pressure.
    #[inline]
    pub fn file(&mut self, note: MemoNote, cycle: u64, path: PathKind) {
        let (kind, site, pc) = match note {
            MemoNote::Check { kind, site, pc } => (RecordKind::Check(kind), site, pc),
            MemoNote::Watch {
                tag,
                addr,
                is_write,
                pc,
            } => (
                RecordKind::Watch {
                    tag,
                    addr,
                    is_write,
                },
                tag,
                pc,
            ),
            _ => return,
        };
        self.push(MonitorRecord {
            kind,
            site,
            pc,
            cycle,
            path,
        });
    }

    /// All records, in program order.
    #[must_use]
    pub fn records(&self) -> &[MonitorRecord] {
        &self.records
    }

    /// Number of records.
    #[must_use]
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Whether the area is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Records produced on NT-paths only.
    pub fn nt_records(&self) -> impl Iterator<Item = &MonitorRecord> {
        self.records.iter().filter(|r| r.path.is_nt())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_survive_and_filter_by_path() {
        let mut area = MonitorArea::new();
        area.push(MonitorRecord {
            kind: RecordKind::Check(CheckKind::Assertion),
            site: 1,
            pc: 10,
            cycle: 100,
            path: PathKind::Taken,
        });
        area.push(MonitorRecord {
            kind: RecordKind::Watch {
                tag: 5,
                addr: 0x2000,
                is_write: true,
            },
            site: 5,
            pc: 20,
            cycle: 200,
            path: PathKind::NtPath { spawn_pc: 7 },
        });
        assert_eq!(area.len(), 2);
        assert_eq!(area.nt_records().count(), 1);
        assert!(area.records()[1].path.is_nt());
        assert!(!area.is_empty());
    }
}
