//! Interned identifiers for the parse/classify hot path.
//!
//! Two small tables keep the per-line work allocation-free and
//! comparison-cheap:
//!
//! - [`TagId`]: the closed set of subsystem tags that can appear inside
//!   `[tag:severity]`, and the one table of each tag's text and
//!   severity ([`crate::LogEvent::tag`] and [`crate::LogEvent::severity`]
//!   read it through [`crate::LogEvent::tag_id`]). The parser resolves
//!   the tag text to a `TagId` once; every later decision (severity
//!   check, event-layout dispatch) is an integer compare instead of a
//!   string compare.
//! - [`HostInterner`]: maps [`SystemId`]s to dense `u32` bucket indices in
//!   first-appearance order. [`crate::classify_parallel`] buckets every
//!   line by emitting host; the interner answers that lookup from a flat
//!   vector (hosts are dense fleet indices) instead of hashing each id,
//!   with a one-entry cache for the run-of-same-host pattern shard-ordered
//!   corpora exhibit.

use ssfa_model::SystemId;

use crate::event::Severity;

/// Interned subsystem tag: one variant per tag string the support-log
/// format defines. `repr(u8)` so classifier dispatch is a jump table.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[repr(u8)]
pub enum TagId {
    /// `fci.device.timeout`
    FciDeviceTimeout,
    /// `fci.adapter.reset`
    FciAdapterReset,
    /// `scsi.cmd.abortedByHost`
    ScsiCmdAborted,
    /// `scsi.cmd.selectionTimeout`
    ScsiSelectionTimeout,
    /// `scsi.cmd.noMorePaths`
    ScsiNoMorePaths,
    /// `scsi.path.failover`
    ScsiPathFailover,
    /// `disk.ioMediumError`
    DiskMediumError,
    /// `scsi.cmd.protocolViolation`
    ScsiProtocolViolation,
    /// `scsi.cmd.slowResponse`
    ScsiSlowResponse,
    /// `raid.config.filesystem.disk.missing`
    RaidDiskMissing,
    /// `raid.config.filesystem.disk.failed`
    RaidDiskFailed,
    /// `raid.config.filesystem.disk.protocolError`
    RaidProtocolError,
    /// `raid.config.filesystem.disk.slow`
    RaidDiskSlow,
    /// `cfg.system`
    CfgSystem,
    /// `cfg.shelf`
    CfgShelf,
    /// `cfg.raidgroup`
    CfgRaidGroup,
    /// `cfg.disk.install`
    CfgDiskInstall,
    /// `cfg.disk.remove`
    CfgDiskRemove,
}

/// Every tag, for exhaustive table tests.
pub const ALL_TAGS: [TagId; 18] = [
    TagId::FciDeviceTimeout,
    TagId::FciAdapterReset,
    TagId::ScsiCmdAborted,
    TagId::ScsiSelectionTimeout,
    TagId::ScsiNoMorePaths,
    TagId::ScsiPathFailover,
    TagId::DiskMediumError,
    TagId::ScsiProtocolViolation,
    TagId::ScsiSlowResponse,
    TagId::RaidDiskMissing,
    TagId::RaidDiskFailed,
    TagId::RaidProtocolError,
    TagId::RaidDiskSlow,
    TagId::CfgSystem,
    TagId::CfgShelf,
    TagId::CfgRaidGroup,
    TagId::CfgDiskInstall,
    TagId::CfgDiskRemove,
];

impl TagId {
    /// Resolves tag text to its interned id. Returns `None` for unknown
    /// tags, whose lines [`crate::LogLineRef::parse`] rejects.
    pub fn lookup(tag: &str) -> Option<TagId> {
        Some(match tag {
            "fci.device.timeout" => TagId::FciDeviceTimeout,
            "fci.adapter.reset" => TagId::FciAdapterReset,
            "scsi.cmd.abortedByHost" => TagId::ScsiCmdAborted,
            "scsi.cmd.selectionTimeout" => TagId::ScsiSelectionTimeout,
            "scsi.cmd.noMorePaths" => TagId::ScsiNoMorePaths,
            "scsi.path.failover" => TagId::ScsiPathFailover,
            "disk.ioMediumError" => TagId::DiskMediumError,
            "scsi.cmd.protocolViolation" => TagId::ScsiProtocolViolation,
            "scsi.cmd.slowResponse" => TagId::ScsiSlowResponse,
            "raid.config.filesystem.disk.missing" => TagId::RaidDiskMissing,
            "raid.config.filesystem.disk.failed" => TagId::RaidDiskFailed,
            "raid.config.filesystem.disk.protocolError" => TagId::RaidProtocolError,
            "raid.config.filesystem.disk.slow" => TagId::RaidDiskSlow,
            "cfg.system" => TagId::CfgSystem,
            "cfg.shelf" => TagId::CfgShelf,
            "cfg.raidgroup" => TagId::CfgRaidGroup,
            "cfg.disk.install" => TagId::CfgDiskInstall,
            "cfg.disk.remove" => TagId::CfgDiskRemove,
            _ => return None,
        })
    }

    /// The tag text this id interns.
    pub fn as_str(self) -> &'static str {
        match self {
            TagId::FciDeviceTimeout => "fci.device.timeout",
            TagId::FciAdapterReset => "fci.adapter.reset",
            TagId::ScsiCmdAborted => "scsi.cmd.abortedByHost",
            TagId::ScsiSelectionTimeout => "scsi.cmd.selectionTimeout",
            TagId::ScsiNoMorePaths => "scsi.cmd.noMorePaths",
            TagId::ScsiPathFailover => "scsi.path.failover",
            TagId::DiskMediumError => "disk.ioMediumError",
            TagId::ScsiProtocolViolation => "scsi.cmd.protocolViolation",
            TagId::ScsiSlowResponse => "scsi.cmd.slowResponse",
            TagId::RaidDiskMissing => "raid.config.filesystem.disk.missing",
            TagId::RaidDiskFailed => "raid.config.filesystem.disk.failed",
            TagId::RaidProtocolError => "raid.config.filesystem.disk.protocolError",
            TagId::RaidDiskSlow => "raid.config.filesystem.disk.slow",
            TagId::CfgSystem => "cfg.system",
            TagId::CfgShelf => "cfg.shelf",
            TagId::CfgRaidGroup => "cfg.raidgroup",
            TagId::CfgDiskInstall => "cfg.disk.install",
            TagId::CfgDiskRemove => "cfg.disk.remove",
        }
    }

    /// The fixed severity every line carrying this tag renders with
    /// (severity is a function of the tag alone);
    /// [`crate::LogEvent::severity`] reads it from here.
    pub fn severity(self) -> Severity {
        match self {
            TagId::FciDeviceTimeout
            | TagId::ScsiCmdAborted
            | TagId::ScsiSelectionTimeout
            | TagId::ScsiNoMorePaths
            | TagId::ScsiProtocolViolation
            | TagId::RaidDiskFailed
            | TagId::RaidProtocolError => Severity::Error,
            TagId::DiskMediumError | TagId::ScsiSlowResponse | TagId::RaidDiskSlow => {
                Severity::Warning
            }
            _ => Severity::Info,
        }
    }
}

/// Hosts with ids below this are interned through the flat dense table;
/// anything larger (possible only in hand-crafted or corrupt corpora —
/// fleet ids are dense) falls back to the ordered map so a hostile id
/// cannot force a multi-gigabyte table.
const DENSE_HOST_CAP: usize = 1 << 20;

/// Sentinel for "host not yet interned" in the dense table.
const UNASSIGNED: u32 = u32::MAX;

/// Dense `SystemId -> u32` interner assigning bucket indices in
/// first-appearance order — the hashed `HashMap<SystemId, usize>` lookup
/// [`crate::classify_parallel`] used to pay per line, replaced by a
/// vector index plus a one-entry last-host cache.
#[derive(Debug, Default)]
pub struct HostInterner {
    dense: Vec<u32>,
    sparse: std::collections::BTreeMap<u32, u32>,
    len: u32,
    last: Option<(u32, u32)>,
}

impl HostInterner {
    /// An empty interner.
    pub fn new() -> HostInterner {
        HostInterner::default()
    }

    /// Number of distinct hosts interned so far.
    pub fn len(&self) -> usize {
        self.len as usize
    }

    /// Whether no host has been interned yet.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Returns `host`'s dense index, assigning the next free one
    /// (`self.len() - 1` after the call) on first appearance.
    pub fn intern(&mut self, host: SystemId) -> u32 {
        if let Some((last_host, last_id)) = self.last {
            if last_host == host.0 {
                return last_id;
            }
        }
        let id = if (host.0 as usize) < DENSE_HOST_CAP {
            let slot = host.0 as usize;
            if slot >= self.dense.len() {
                self.dense.resize(slot + 1, UNASSIGNED);
            }
            if self.dense[slot] == UNASSIGNED {
                self.dense[slot] = self.len;
                self.len += 1;
            }
            self.dense[slot]
        } else {
            let next = self.len;
            let id = *self.sparse.entry(host.0).or_insert(next);
            if id == next {
                self.len += 1;
            }
            id
        };
        self.last = Some((host.0, id));
        id
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tag_strings_round_trip_through_the_intern_table() {
        for tag in ALL_TAGS {
            assert_eq!(TagId::lookup(tag.as_str()), Some(tag));
        }
        assert_eq!(TagId::lookup("raid.config.filesystem.disk.unknown"), None);
        assert_eq!(TagId::lookup(""), None);
    }

    #[test]
    fn interner_assigns_dense_ids_in_first_appearance_order() {
        let mut interner = HostInterner::new();
        assert!(interner.is_empty());
        assert_eq!(interner.intern(SystemId(7)), 0);
        assert_eq!(interner.intern(SystemId(7)), 0); // cached
        assert_eq!(interner.intern(SystemId(2)), 1);
        assert_eq!(interner.intern(SystemId(7)), 0); // back via dense table
        assert_eq!(interner.intern(SystemId(2)), 1);
        assert_eq!(interner.len(), 2);
    }

    #[test]
    fn interner_survives_hostile_host_ids_without_a_huge_table() {
        let mut interner = HostInterner::new();
        assert_eq!(interner.intern(SystemId(u32::MAX - 1)), 0);
        assert_eq!(interner.intern(SystemId(0)), 1);
        assert_eq!(interner.intern(SystemId(u32::MAX - 1)), 0);
        assert_eq!(interner.len(), 2);
        assert!(interner.dense.len() <= 1);
    }
}
