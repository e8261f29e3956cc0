//! The owned, `String`-allocating log-line parser, kept as an independent
//! reference implementation of the support-log grammar.
//!
//! The library parses through [`ssfa_logs::LogLineRef::parse`] only. This
//! parser is a separate restatement of the same grammar — `HashMap` kv
//! scans, `str` splits, the civil-calendar timestamp decode — so that
//! `parser_equivalence.rs` can check the production parser's exact
//! accept/reject decisions against code that shares none of its fast
//! paths.

use std::collections::HashMap;

use ssfa_logs::{LogEvent, LogLine, Severity};
use ssfa_model::{
    CivilDateTime, DeviceAddr, DiskModelId, LayoutPolicy, LoopId, PathConfig, RaidGroupId,
    RaidType, ShelfId, ShelfModel, SlotAddr, SystemClass, SystemId,
};

/// Parses one rendered line. Returns `None` for malformed lines.
pub fn parse_line(line: &str) -> Option<LogLine> {
    let line = line.trim_end();
    let (host_tok, rest) = line.split_once(' ')?;
    let host = SystemId(host_tok.strip_prefix("sys-")?.parse().ok()?);
    // Timestamp: "Sun Jul 23 05:43:36 PDT 2006" = 6 whitespace-separated
    // tokens, but the day-of-month may be space-padded.
    let rest = rest.trim_start();
    let bracket = rest.find('[')?;
    let ts_text = rest[..bracket].trim();
    let at = CivilDateTime::parse_log_timestamp(ts_text)?.to_sim_time()?;
    let rest = &rest[bracket + 1..];
    let close = rest.find("]: ")?;
    let (tag, severity_tag) = rest[..close].rsplit_once(':')?;
    let severity = match severity_tag {
        "info" => Severity::Info,
        "warning" => Severity::Warning,
        "error" => Severity::Error,
        _ => return None,
    };
    let message = &rest[close + 3..];
    let event = parse_event(tag, message)?;
    if event.severity() != severity {
        return None;
    }
    Some(LogLine { host, at, event })
}

/// Parses a message back into an event, given the subsystem tag.
///
/// Returns `None` when the tag is unknown or the message does not match
/// the tag's layout.
fn parse_event(tag: &str, message: &str) -> Option<LogEvent> {
    fn device_after(msg: &str, prefix: &str) -> Option<DeviceAddr> {
        let rest = msg.strip_prefix(prefix)?;
        let end = rest.find([':', ' '])?;
        rest[..end].parse().ok()
    }
    fn device_and_serial(msg: &str) -> Option<(DeviceAddr, String)> {
        let rest = msg.strip_prefix("File system Disk ")?;
        let sp = rest.find(' ')?;
        let device: DeviceAddr = rest[..sp].parse().ok()?;
        let open = rest.find('[')?;
        let close = rest.find(']')?;
        if close <= open + 1 {
            return None;
        }
        Some((device, rest[open + 1..close].to_owned()))
    }
    fn kv(msg: &str) -> HashMap<&str, &str> {
        msg.split_whitespace()
            .filter_map(|t| t.split_once('='))
            .collect()
    }

    match tag {
        "fci.device.timeout" => {
            let idx = message.rfind(" on device ")?;
            let device: DeviceAddr = message[idx + 11..].trim().parse().ok()?;
            Some(LogEvent::FciDeviceTimeout { device })
        }
        "fci.adapter.reset" => {
            let rest = message.strip_prefix("Resetting Fibre Channel adapter ")?;
            let adapter: u8 = rest.trim_end_matches('.').parse().ok()?;
            Some(LogEvent::FciAdapterReset { adapter })
        }
        "scsi.cmd.abortedByHost" => Some(LogEvent::ScsiCmdAborted {
            device: device_after(message, "Device ")?,
        }),
        "scsi.cmd.selectionTimeout" => Some(LogEvent::ScsiSelectionTimeout {
            device: device_after(message, "Device ")?,
        }),
        "scsi.cmd.noMorePaths" => Some(LogEvent::ScsiNoMorePaths {
            device: device_after(message, "Device ")?,
        }),
        "scsi.path.failover" => Some(LogEvent::ScsiPathFailover {
            device: device_after(message, "Device ")?,
        }),
        "disk.ioMediumError" => {
            let device = device_after(message, "Device ")?;
            let idx = message.find("sector ")?;
            let rest = &message[idx + 7..];
            let end = rest.find('.')?;
            let sector: u64 = rest[..end].parse().ok()?;
            Some(LogEvent::DiskMediumError { device, sector })
        }
        "scsi.cmd.protocolViolation" => Some(LogEvent::ScsiProtocolViolation {
            device: device_after(message, "Device ")?,
        }),
        "scsi.cmd.slowResponse" => {
            let device = device_after(message, "Device ")?;
            let open = message.find('(')?;
            let end = message.find(" ms)")?;
            let latency_ms: u32 = message[open + 1..end].parse().ok()?;
            Some(LogEvent::ScsiSlowResponse { device, latency_ms })
        }
        "raid.config.filesystem.disk.missing" => {
            let (device, serial) = device_and_serial(message)?;
            Some(LogEvent::RaidDiskMissing { device, serial })
        }
        "raid.config.filesystem.disk.failed" => {
            let (device, serial) = device_and_serial(message)?;
            Some(LogEvent::RaidDiskFailed { device, serial })
        }
        "raid.config.filesystem.disk.protocolError" => {
            let (device, serial) = device_and_serial(message)?;
            Some(LogEvent::RaidProtocolError { device, serial })
        }
        "raid.config.filesystem.disk.slow" => {
            let (device, serial) = device_and_serial(message)?;
            Some(LogEvent::RaidDiskSlow { device, serial })
        }
        "cfg.system" => {
            let kv = kv(message);
            Some(LogEvent::CfgSystem {
                class: SystemClass::from_tag(kv.get("class")?)?,
                disk_model: DiskModelId::parse(kv.get("disk_model")?)?,
                shelf_model: ShelfModel::from_letter(kv.get("shelf_model")?.chars().next()?)?,
                paths: match *kv.get("paths")? {
                    "1" => PathConfig::SinglePath,
                    "2" => PathConfig::DualPath,
                    _ => return None,
                },
                layout: match *kv.get("layout")? {
                    "span-shelves" => LayoutPolicy::SpanShelves,
                    "same-shelf" => LayoutPolicy::SameShelf,
                    _ => return None,
                },
            })
        }
        "cfg.shelf" => {
            let kv = kv(message);
            Some(LogEvent::CfgShelf {
                shelf: ShelfId(kv.get("shelf")?.parse().ok()?),
                model: ShelfModel::from_letter(kv.get("model")?.chars().next()?)?,
                fc_loop: LoopId(kv.get("loop")?.parse().ok()?),
                adapter: kv.get("adapter")?.parse().ok()?,
                position: kv.get("position")?.parse().ok()?,
                bays: kv.get("bays")?.parse().ok()?,
            })
        }
        "cfg.raidgroup" => {
            let kv = kv(message);
            let slots = kv
                .get("slots")?
                .split(',')
                .map(|pair| {
                    let (shelf, bay) = pair.split_once(':')?;
                    Some(SlotAddr {
                        shelf: ShelfId(shelf.parse().ok()?),
                        bay: bay.parse().ok()?,
                    })
                })
                .collect::<Option<Vec<_>>>()?;
            Some(LogEvent::CfgRaidGroup {
                rg: RaidGroupId(kv.get("rg")?.parse().ok()?),
                raid_type: match *kv.get("type")? {
                    "RAID4" => RaidType::Raid4,
                    "RAID6" => RaidType::Raid6,
                    _ => return None,
                },
                slots,
            })
        }
        "cfg.disk.install" => {
            let kv = kv(message);
            Some(LogEvent::CfgDiskInstall {
                serial: (*kv.get("serial")?).to_owned(),
                model: DiskModelId::parse(kv.get("model")?)?,
                slot: SlotAddr {
                    shelf: ShelfId(kv.get("shelf")?.parse().ok()?),
                    bay: kv.get("bay")?.parse().ok()?,
                },
                device: kv.get("device")?.parse().ok()?,
            })
        }
        "cfg.disk.remove" => {
            let kv = kv(message);
            Some(LogEvent::CfgDiskRemove {
                serial: (*kv.get("serial")?).to_owned(),
                reason: (*kv.get("reason")?).to_owned(),
            })
        }
        _ => None,
    }
}
