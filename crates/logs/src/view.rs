//! Borrowed, zero-allocation views of log lines.
//!
//! [`LogLineRef::parse`] is the crate's one log-line parser; the owned
//! [`LogLine::parse`](crate::LogLine::parse) is `LogLineRef::parse`
//! followed by [`LogLineRef::to_owned`]. [`LogLineRef`] is the borrowed
//! twin of [`LogLine`]: every variable-width field (`serial`, `reason`,
//! the raid-group member list) is a slice borrowed from the input text
//! instead of an owned `String`. A chunk worker can therefore parse and
//! classify a whole rendered shard without allocating per line — the
//! classifier consumes the view and only the handful of state-changing
//! records (installs, topology) ever reach owned storage.
//!
//! The grammar is checked against an independent owned reference parser
//! kept in the crate's tests: `crates/logs/tests/parser_equivalence.rs`
//! fuzzes both over well-formed, malformed, truncated, and UTF-8-boundary
//! inputs and requires exact accept/reject agreement.

use ssfa_model::{
    DeviceAddr, DiskModelId, LayoutPolicy, LoopId, PathConfig, RaidGroupId, RaidType, ShelfId,
    ShelfModel, SimTime, SlotAddr, SystemClass, SystemId,
};

use crate::event::{LogEvent, LogLine, Severity};
use crate::intern::TagId;

/// A raid-group member list that is either still rendered text
/// (validated during parse, iterated lazily) or a borrowed slice of an
/// owned event's slots. Either way iteration yields [`SlotAddr`]s
/// without allocating.
#[derive(Debug, Clone, Copy)]
pub enum SlotsRef<'a> {
    /// Validated `shelf:bay,shelf:bay,...` text borrowed from the line.
    Text(&'a str),
    /// Slots borrowed from an owned [`LogEvent::CfgRaidGroup`].
    Slice(&'a [SlotAddr]),
}

impl<'a> SlotsRef<'a> {
    /// Validates and wraps a rendered member list. Applies exactly the
    /// reference parser's grammar: comma-separated `shelf:bay` pairs, every
    /// pair must split on `:` with a `u32` shelf and `u8` bay — so an
    /// empty list (or any bad pair) rejects, as it does there.
    fn parse(text: &'a str) -> Option<SlotsRef<'a>> {
        // Byte-level restatement of the grammar above. `,` and `:` are
        // ASCII so byte splits land on the same boundaries as str splits,
        // and `valid_uint` accepts exactly the strings `u32`/`u8` `parse`
        // does (one optional `+`, then digits, within range).
        for pair in text.as_bytes().split(|&b| b == b',') {
            let colon = pair.iter().position(|&b| b == b':')?;
            if !valid_uint(&pair[..colon], u32::MAX as u64) || !valid_uint(&pair[colon + 1..], 255)
            {
                return None;
            }
        }
        Some(SlotsRef::Text(text))
    }

    /// Iterates the member slots. Infallible: text variants were fully
    /// validated at parse time.
    pub fn iter(&self) -> SlotsIter<'a> {
        match self {
            SlotsRef::Text(text) => SlotsIter::Text(text.split(',')),
            SlotsRef::Slice(slots) => SlotsIter::Slice(slots.iter()),
        }
    }

    /// Collects the members into an owned vector (the only allocation a
    /// raid-group record costs, and only when the classifier keeps it).
    // lint: alloc-ok the promotion boundary for kept raid-group records
    pub fn to_vec(&self) -> Vec<SlotAddr> {
        self.iter().collect()
    }
}

/// Iterator over a [`SlotsRef`]'s members.
#[derive(Debug)]
pub enum SlotsIter<'a> {
    /// Lazily re-parsing validated text.
    Text(std::str::Split<'a, char>),
    /// Walking a borrowed slice.
    Slice(std::slice::Iter<'a, SlotAddr>),
}

impl Iterator for SlotsIter<'_> {
    type Item = SlotAddr;

    fn next(&mut self) -> Option<SlotAddr> {
        match self {
            SlotsIter::Text(split) => {
                let pair = split.next()?;
                let (shelf, bay) = pair.split_once(':').expect("validated by SlotsRef::parse");
                Some(SlotAddr {
                    shelf: ShelfId(shelf.parse().expect("validated by SlotsRef::parse")),
                    bay: bay.parse().expect("validated by SlotsRef::parse"),
                })
            }
            SlotsIter::Slice(iter) => iter.next().copied(),
        }
    }
}

/// Borrowed twin of [`LogEvent`]: identical variants and fixed-width
/// fields, with `&str` slices where the owned event holds `String`s.
#[derive(Debug, Clone, Copy)]
pub enum EventRef<'a> {
    /// See [`LogEvent::FciDeviceTimeout`].
    FciDeviceTimeout {
        /// The unresponsive device.
        device: DeviceAddr,
    },
    /// See [`LogEvent::FciAdapterReset`].
    FciAdapterReset {
        /// The adapter being reset.
        adapter: u8,
    },
    /// See [`LogEvent::ScsiCmdAborted`].
    ScsiCmdAborted {
        /// The device whose command was aborted.
        device: DeviceAddr,
    },
    /// See [`LogEvent::ScsiSelectionTimeout`].
    ScsiSelectionTimeout {
        /// The silent target.
        device: DeviceAddr,
    },
    /// See [`LogEvent::ScsiNoMorePaths`].
    ScsiNoMorePaths {
        /// The unreachable device.
        device: DeviceAddr,
    },
    /// See [`LogEvent::ScsiPathFailover`].
    ScsiPathFailover {
        /// The device whose primary path failed.
        device: DeviceAddr,
    },
    /// See [`LogEvent::DiskMediumError`].
    DiskMediumError {
        /// The disk reporting the error.
        device: DeviceAddr,
        /// The broken sector's LBA.
        sector: u64,
    },
    /// See [`LogEvent::ScsiProtocolViolation`].
    ScsiProtocolViolation {
        /// The misbehaving device.
        device: DeviceAddr,
    },
    /// See [`LogEvent::ScsiSlowResponse`].
    ScsiSlowResponse {
        /// The slow device.
        device: DeviceAddr,
        /// Observed completion latency in milliseconds.
        latency_ms: u32,
    },
    /// See [`LogEvent::RaidDiskMissing`].
    RaidDiskMissing {
        /// The missing disk's address.
        device: DeviceAddr,
        /// The missing disk's serial number, borrowed from the line.
        serial: &'a str,
    },
    /// See [`LogEvent::RaidDiskFailed`].
    RaidDiskFailed {
        /// The failed disk's address.
        device: DeviceAddr,
        /// The failed disk's serial number, borrowed from the line.
        serial: &'a str,
    },
    /// See [`LogEvent::RaidProtocolError`].
    RaidProtocolError {
        /// The affected disk's address.
        device: DeviceAddr,
        /// The affected disk's serial number, borrowed from the line.
        serial: &'a str,
    },
    /// See [`LogEvent::RaidDiskSlow`].
    RaidDiskSlow {
        /// The slow disk's address.
        device: DeviceAddr,
        /// The slow disk's serial number, borrowed from the line.
        serial: &'a str,
    },
    /// See [`LogEvent::CfgSystem`].
    CfgSystem {
        /// Capability class.
        class: SystemClass,
        /// Disk model populated throughout the system.
        disk_model: DiskModelId,
        /// Shelf enclosure model in use.
        shelf_model: ShelfModel,
        /// Single or dual FC paths.
        paths: PathConfig,
        /// RAID layout policy.
        layout: LayoutPolicy,
    },
    /// See [`LogEvent::CfgShelf`].
    CfgShelf {
        /// Fleet-unique shelf id.
        shelf: ShelfId,
        /// Enclosure model.
        model: ShelfModel,
        /// FC loop the shelf is chained on.
        fc_loop: LoopId,
        /// Host adapter number.
        adapter: u8,
        /// Position on the loop.
        position: u8,
        /// Populated bays.
        bays: u8,
    },
    /// See [`LogEvent::CfgRaidGroup`].
    CfgRaidGroup {
        /// Fleet-unique RAID group id.
        rg: RaidGroupId,
        /// RAID level.
        raid_type: RaidType,
        /// Member slots (borrowed; iterate without allocating).
        slots: SlotsRef<'a>,
    },
    /// See [`LogEvent::CfgDiskInstall`].
    CfgDiskInstall {
        /// Serial of the installed disk, borrowed from the line.
        serial: &'a str,
        /// Product model.
        model: DiskModelId,
        /// Slot occupied.
        slot: SlotAddr,
        /// Device address of the slot.
        device: DeviceAddr,
    },
    /// See [`LogEvent::CfgDiskRemove`].
    CfgDiskRemove {
        /// Serial of the removed disk, borrowed from the line.
        serial: &'a str,
        /// `failed` or `study_end`, borrowed from the line.
        reason: &'a str,
    },
}

/// Positional fast path for the renderer's canonical `k=v` message
/// layout: the given keys in exactly this order, single-space separated,
/// no other whitespace anywhere, no trailing tokens. `None` means "not
/// canonical", at which point the caller falls back to [`kv_scan`] — so
/// this only ever accepts messages where both readings agree, and the
/// last value being space-free means trailing duplicates (which last-wins
/// scanning would resolve differently) always take the fallback.
// lint: fast-path(kv_scan)
fn canonical_kv<'a, const N: usize>(msg: &'a str, keys: [&str; N]) -> Option<[Option<&'a str>; N]> {
    if msg
        .bytes()
        .any(|b| b >= 0x80 || (b != b' ' && ascii_space(b)))
    {
        return None;
    }
    let mut out = [None; N];
    let mut rest = msg;
    for (i, key) in keys.iter().enumerate() {
        rest = rest.strip_prefix(key)?.strip_prefix('=')?;
        if i + 1 == N {
            if rest.contains(' ') {
                return None;
            }
            out[i] = Some(rest);
        } else {
            let (value, next) = rest.split_once(' ')?;
            out[i] = Some(value);
            rest = next;
        }
    }
    Some(out)
}

/// Last-wins scan for `key=value` whitespace-separated tokens.
///
/// Equivalent to the reference parser's `HashMap` collect for any fixed key
/// set: collecting into a map lets later duplicates overwrite earlier
/// ones, so per key the map holds the *last* occurrence — which is what
/// this scan keeps — and unknown keys are ignored by both.
fn kv_scan<'a, const N: usize>(msg: &'a str, keys: [&str; N]) -> [Option<&'a str>; N] {
    if let Some(out) = canonical_kv(msg, keys) {
        return out;
    }
    if !msg.is_ascii() {
        return kv_scan_unicode(msg, keys);
    }
    // Byte-level tokenizer; for pure-ASCII input the `ascii_space` set is
    // exactly the sub-0x80 slice of `char::is_whitespace`, so token
    // boundaries match `split_whitespace` and the first `=` within a token
    // matches `split_once('=')`.
    let bytes = msg.as_bytes();
    let mut out = [None; N];
    let mut i = 0;
    while i < bytes.len() {
        while i < bytes.len() && ascii_space(bytes[i]) {
            i += 1;
        }
        let start = i;
        let mut eq = usize::MAX;
        while i < bytes.len() && !ascii_space(bytes[i]) {
            if eq == usize::MAX && bytes[i] == b'=' {
                eq = i;
            }
            i += 1;
        }
        if eq != usize::MAX {
            let key = &msg[start..eq];
            let value = &msg[eq + 1..i];
            for (k, want) in keys.iter().enumerate() {
                if key == *want {
                    out[k] = Some(value);
                    break;
                }
            }
        }
    }
    out
}

/// Fallback for messages containing non-ASCII bytes, where whitespace
/// splitting must honor Unicode whitespace exactly as the reference parser's
/// `split_whitespace` does.
fn kv_scan_unicode<'a, const N: usize>(msg: &'a str, keys: [&str; N]) -> [Option<&'a str>; N] {
    let mut out = [None; N];
    for token in msg.split_whitespace() {
        if let Some((key, value)) = token.split_once('=') {
            for (i, want) in keys.iter().enumerate() {
                if key == *want {
                    out[i] = Some(value);
                    break;
                }
            }
        }
    }
    out
}

/// ASCII bytes `char::is_whitespace` treats as whitespace (the only ones
/// below 0x80): tab, LF, VT, FF, CR, space.
#[inline]
fn ascii_space(c: u8) -> bool {
    matches!(c, b'\t' | b'\n' | 0x0b | 0x0c | b'\r' | b' ')
}

/// Fused byte-level fast path for the renderer's canonical
/// `cfg.disk.install` message (`serial=S model=F-N shelf=D bay=D
/// device=A.T`, plain digits, single spaces). `cfg.disk.install` is by
/// far the most common line in a rendered corpus, so this is the hottest
/// arm of [`EventRef::parse`]. Any deviation — exotic whitespace, signs,
/// overflow, trailing tokens — returns `None` and the caller re-reads the
/// message through [`kv_scan`], so this path only ever accepts inputs
/// where both readings agree.
// lint: fast-path(kv_scan)
fn parse_disk_install_fast(msg: &str) -> Option<EventRef<'_>> {
    let b = msg.as_bytes();
    let rest = b.strip_prefix(b"serial=")?;
    // Serial token: printable ASCII up to a single `' '`. Anything else
    // (other whitespace, 0x80+) bails so tokenization stays byte-for-byte
    // with `split_whitespace`.
    let mut n = 0;
    while n < rest.len() && rest[n] != b' ' {
        if rest[n] >= 0x80 || ascii_space(rest[n]) {
            return None;
        }
        n += 1;
    }
    let serial = &msg[7..7 + n];
    let b = rest[n..].strip_prefix(b" model=")?;
    let (family, b) = match b {
        [f @ b'A'..=b'Z', b'-', rest @ ..] => (*f as char, rest),
        _ => return None,
    };
    let (cap, b) = strip_u8(b)?;
    let b = b.strip_prefix(b" shelf=")?;
    let (shelf, b) = strip_u16(b)?;
    let b = b.strip_prefix(b" bay=")?;
    let (bay, b) = strip_u8(b)?;
    let b = b.strip_prefix(b" device=")?;
    let (adapter, b) = strip_u8(b)?;
    let b = b.strip_prefix(b".")?;
    let (target, b) = strip_u8(b)?;
    if !b.is_empty() || cap == 0 {
        return None;
    }
    Some(EventRef::CfgDiskInstall {
        serial,
        model: DiskModelId::new(family, cap),
        slot: SlotAddr {
            shelf: ShelfId(shelf.into()),
            bay,
        },
        device: DeviceAddr::new(adapter, target),
    })
}

/// Accepts exactly the strings `u32::from_str`-family parsers do for an
/// unsigned integer bounded by `max`: one optional `+`, then one or more
/// digits (leading zeros fine), value in range. `max` must be at most
/// `u32::MAX` so the running value cannot overflow `u64`.
fn valid_uint(b: &[u8], max: u64) -> bool {
    let digits = match b.first() {
        Some(b'+') => &b[1..],
        _ => b,
    };
    if digits.is_empty() {
        return false;
    }
    let mut v: u64 = 0;
    for &c in digits {
        if !c.is_ascii_digit() {
            return false;
        }
        v = v * 10 + (c - b'0') as u64;
        if v > max {
            return false;
        }
    }
    true
}

/// Strips a leading plain-digit `u8` (no sign), bailing on overflow so
/// the fallback parser makes the accept/reject call.
#[inline]
fn strip_u8(b: &[u8]) -> Option<(u8, &[u8])> {
    let (v, rest) = strip_u16(b)?;
    (v <= u8::MAX as u16).then_some((v as u8, rest))
}

/// Strips a leading plain-digit `u32` (no sign), bailing on overflow.
#[inline]
fn strip_u32(b: &[u8]) -> Option<(u32, &[u8])> {
    let mut v: u64 = 0;
    let mut i = 0;
    while i < b.len() && b[i].is_ascii_digit() {
        v = v * 10 + (b[i] - b'0') as u64;
        if v > u32::MAX as u64 {
            return None;
        }
        i += 1;
    }
    if i == 0 {
        return None;
    }
    Some((v as u32, &b[i..]))
}

/// Strips a leading plain-digit `u16` (no sign), bailing on overflow.
#[inline]
fn strip_u16(b: &[u8]) -> Option<(u16, &[u8])> {
    let mut v: u32 = 0;
    let mut i = 0;
    while i < b.len() && b[i].is_ascii_digit() {
        v = v * 10 + (b[i] - b'0') as u32;
        if v > u16::MAX as u32 {
            return None;
        }
        i += 1;
    }
    if i == 0 {
        return None;
    }
    Some((v as u16, &b[i..]))
}

fn device_after(msg: &str, prefix: &str) -> Option<DeviceAddr> {
    let rest = msg.strip_prefix(prefix)?;
    let end = rest.find([':', ' '])?;
    rest[..end].parse().ok()
}

fn device_and_serial(msg: &str) -> Option<(DeviceAddr, &str)> {
    let rest = msg.strip_prefix("File system Disk ")?;
    let sp = rest.find(' ')?;
    let device: DeviceAddr = rest[..sp].parse().ok()?;
    let open = rest.find('[')?;
    let close = rest.find(']')?;
    if close <= open + 1 {
        return None;
    }
    Some((device, &rest[open + 1..close]))
}

impl<'a> EventRef<'a> {
    /// Parses a message into a borrowed event, given the interned tag.
    /// Returns `None` when the message does not match the tag's layout.
    pub fn parse(tag: TagId, message: &'a str) -> Option<EventRef<'a>> {
        match tag {
            TagId::FciDeviceTimeout => {
                let idx = message.rfind(" on device ")?;
                let device: DeviceAddr = message[idx + 11..].trim().parse().ok()?;
                Some(EventRef::FciDeviceTimeout { device })
            }
            TagId::FciAdapterReset => {
                let rest = message.strip_prefix("Resetting Fibre Channel adapter ")?;
                let adapter: u8 = rest.trim_end_matches('.').parse().ok()?;
                Some(EventRef::FciAdapterReset { adapter })
            }
            TagId::ScsiCmdAborted => Some(EventRef::ScsiCmdAborted {
                device: device_after(message, "Device ")?,
            }),
            TagId::ScsiSelectionTimeout => Some(EventRef::ScsiSelectionTimeout {
                device: device_after(message, "Device ")?,
            }),
            TagId::ScsiNoMorePaths => Some(EventRef::ScsiNoMorePaths {
                device: device_after(message, "Device ")?,
            }),
            TagId::ScsiPathFailover => Some(EventRef::ScsiPathFailover {
                device: device_after(message, "Device ")?,
            }),
            TagId::DiskMediumError => {
                let device = device_after(message, "Device ")?;
                let idx = message.find("sector ")?;
                let rest = &message[idx + 7..];
                let end = rest.find('.')?;
                let sector: u64 = rest[..end].parse().ok()?;
                Some(EventRef::DiskMediumError { device, sector })
            }
            TagId::ScsiProtocolViolation => Some(EventRef::ScsiProtocolViolation {
                device: device_after(message, "Device ")?,
            }),
            TagId::ScsiSlowResponse => {
                let device = device_after(message, "Device ")?;
                let open = message.find('(')?;
                let end = message.find(" ms)")?;
                let latency_ms: u32 = message[open + 1..end].parse().ok()?;
                Some(EventRef::ScsiSlowResponse { device, latency_ms })
            }
            TagId::RaidDiskMissing => {
                let (device, serial) = device_and_serial(message)?;
                Some(EventRef::RaidDiskMissing { device, serial })
            }
            TagId::RaidDiskFailed => {
                let (device, serial) = device_and_serial(message)?;
                Some(EventRef::RaidDiskFailed { device, serial })
            }
            TagId::RaidProtocolError => {
                let (device, serial) = device_and_serial(message)?;
                Some(EventRef::RaidProtocolError { device, serial })
            }
            TagId::RaidDiskSlow => {
                let (device, serial) = device_and_serial(message)?;
                Some(EventRef::RaidDiskSlow { device, serial })
            }
            TagId::CfgSystem => {
                let [class, disk_model, shelf_model, paths, layout] = kv_scan(
                    message,
                    ["class", "disk_model", "shelf_model", "paths", "layout"],
                );
                Some(EventRef::CfgSystem {
                    class: SystemClass::from_tag(class?)?,
                    disk_model: DiskModelId::parse(disk_model?)?,
                    shelf_model: ShelfModel::from_letter(shelf_model?.chars().next()?)?,
                    paths: match paths? {
                        "1" => PathConfig::SinglePath,
                        "2" => PathConfig::DualPath,
                        _ => return None,
                    },
                    layout: match layout? {
                        "span-shelves" => LayoutPolicy::SpanShelves,
                        "same-shelf" => LayoutPolicy::SameShelf,
                        _ => return None,
                    },
                })
            }
            TagId::CfgShelf => {
                let [shelf, model, fc_loop, adapter, position, bays] = kv_scan(
                    message,
                    ["shelf", "model", "loop", "adapter", "position", "bays"],
                );
                Some(EventRef::CfgShelf {
                    shelf: ShelfId(shelf?.parse().ok()?),
                    model: ShelfModel::from_letter(model?.chars().next()?)?,
                    fc_loop: LoopId(fc_loop?.parse().ok()?),
                    adapter: adapter?.parse().ok()?,
                    position: position?.parse().ok()?,
                    bays: bays?.parse().ok()?,
                })
            }
            TagId::CfgRaidGroup => {
                let [rg, raid_type, slots] = kv_scan(message, ["rg", "type", "slots"]);
                Some(EventRef::CfgRaidGroup {
                    rg: RaidGroupId(rg?.parse().ok()?),
                    raid_type: match raid_type? {
                        "RAID4" => RaidType::Raid4,
                        "RAID6" => RaidType::Raid6,
                        _ => return None,
                    },
                    slots: SlotsRef::parse(slots?)?,
                })
            }
            TagId::CfgDiskInstall => {
                if let Some(ev) = parse_disk_install_fast(message) {
                    return Some(ev);
                }
                let [serial, model, shelf, bay, device] =
                    kv_scan(message, ["serial", "model", "shelf", "bay", "device"]);
                Some(EventRef::CfgDiskInstall {
                    serial: serial?,
                    model: DiskModelId::parse(model?)?,
                    slot: SlotAddr {
                        shelf: ShelfId(shelf?.parse().ok()?),
                        bay: bay?.parse().ok()?,
                    },
                    device: device?.parse().ok()?,
                })
            }
            TagId::CfgDiskRemove => {
                let [serial, reason] = kv_scan(message, ["serial", "reason"]);
                Some(EventRef::CfgDiskRemove {
                    serial: serial?,
                    reason: reason?,
                })
            }
        }
    }

    /// Converts the view into an owned [`LogEvent`], allocating only the
    /// fields the owned representation must hold.
    // lint: alloc-ok the view->owned promotion for state-changing records
    pub fn to_owned(&self) -> LogEvent {
        match *self {
            EventRef::FciDeviceTimeout { device } => LogEvent::FciDeviceTimeout { device },
            EventRef::FciAdapterReset { adapter } => LogEvent::FciAdapterReset { adapter },
            EventRef::ScsiCmdAborted { device } => LogEvent::ScsiCmdAborted { device },
            EventRef::ScsiSelectionTimeout { device } => LogEvent::ScsiSelectionTimeout { device },
            EventRef::ScsiNoMorePaths { device } => LogEvent::ScsiNoMorePaths { device },
            EventRef::ScsiPathFailover { device } => LogEvent::ScsiPathFailover { device },
            EventRef::DiskMediumError { device, sector } => {
                LogEvent::DiskMediumError { device, sector }
            }
            EventRef::ScsiProtocolViolation { device } => {
                LogEvent::ScsiProtocolViolation { device }
            }
            EventRef::ScsiSlowResponse { device, latency_ms } => {
                LogEvent::ScsiSlowResponse { device, latency_ms }
            }
            EventRef::RaidDiskMissing { device, serial } => LogEvent::RaidDiskMissing {
                device,
                serial: serial.to_owned(),
            },
            EventRef::RaidDiskFailed { device, serial } => LogEvent::RaidDiskFailed {
                device,
                serial: serial.to_owned(),
            },
            EventRef::RaidProtocolError { device, serial } => LogEvent::RaidProtocolError {
                device,
                serial: serial.to_owned(),
            },
            EventRef::RaidDiskSlow { device, serial } => LogEvent::RaidDiskSlow {
                device,
                serial: serial.to_owned(),
            },
            EventRef::CfgSystem {
                class,
                disk_model,
                shelf_model,
                paths,
                layout,
            } => LogEvent::CfgSystem {
                class,
                disk_model,
                shelf_model,
                paths,
                layout,
            },
            EventRef::CfgShelf {
                shelf,
                model,
                fc_loop,
                adapter,
                position,
                bays,
            } => LogEvent::CfgShelf {
                shelf,
                model,
                fc_loop,
                adapter,
                position,
                bays,
            },
            EventRef::CfgRaidGroup {
                rg,
                raid_type,
                slots,
            } => LogEvent::CfgRaidGroup {
                rg,
                raid_type,
                slots: slots.to_vec(),
            },
            EventRef::CfgDiskInstall {
                serial,
                model,
                slot,
                device,
            } => LogEvent::CfgDiskInstall {
                serial: serial.to_owned(),
                model,
                slot,
                device,
            },
            EventRef::CfgDiskRemove { serial, reason } => LogEvent::CfgDiskRemove {
                serial: serial.to_owned(),
                reason: reason.to_owned(),
            },
        }
    }

    /// Borrows a view from an owned event (the owned feed path delegates
    /// through this, so both paths share one classifier implementation).
    pub fn from_owned(event: &'a LogEvent) -> EventRef<'a> {
        match event {
            LogEvent::FciDeviceTimeout { device } => EventRef::FciDeviceTimeout { device: *device },
            LogEvent::FciAdapterReset { adapter } => {
                EventRef::FciAdapterReset { adapter: *adapter }
            }
            LogEvent::ScsiCmdAborted { device } => EventRef::ScsiCmdAborted { device: *device },
            LogEvent::ScsiSelectionTimeout { device } => {
                EventRef::ScsiSelectionTimeout { device: *device }
            }
            LogEvent::ScsiNoMorePaths { device } => EventRef::ScsiNoMorePaths { device: *device },
            LogEvent::ScsiPathFailover { device } => EventRef::ScsiPathFailover { device: *device },
            LogEvent::DiskMediumError { device, sector } => EventRef::DiskMediumError {
                device: *device,
                sector: *sector,
            },
            LogEvent::ScsiProtocolViolation { device } => {
                EventRef::ScsiProtocolViolation { device: *device }
            }
            LogEvent::ScsiSlowResponse { device, latency_ms } => EventRef::ScsiSlowResponse {
                device: *device,
                latency_ms: *latency_ms,
            },
            LogEvent::RaidDiskMissing { device, serial } => EventRef::RaidDiskMissing {
                device: *device,
                serial,
            },
            LogEvent::RaidDiskFailed { device, serial } => EventRef::RaidDiskFailed {
                device: *device,
                serial,
            },
            LogEvent::RaidProtocolError { device, serial } => EventRef::RaidProtocolError {
                device: *device,
                serial,
            },
            LogEvent::RaidDiskSlow { device, serial } => EventRef::RaidDiskSlow {
                device: *device,
                serial,
            },
            LogEvent::CfgSystem {
                class,
                disk_model,
                shelf_model,
                paths,
                layout,
            } => EventRef::CfgSystem {
                class: *class,
                disk_model: *disk_model,
                shelf_model: *shelf_model,
                paths: *paths,
                layout: *layout,
            },
            LogEvent::CfgShelf {
                shelf,
                model,
                fc_loop,
                adapter,
                position,
                bays,
            } => EventRef::CfgShelf {
                shelf: *shelf,
                model: *model,
                fc_loop: *fc_loop,
                adapter: *adapter,
                position: *position,
                bays: *bays,
            },
            LogEvent::CfgRaidGroup {
                rg,
                raid_type,
                slots,
            } => EventRef::CfgRaidGroup {
                rg: *rg,
                raid_type: *raid_type,
                slots: SlotsRef::Slice(slots),
            },
            LogEvent::CfgDiskInstall {
                serial,
                model,
                slot,
                device,
            } => EventRef::CfgDiskInstall {
                serial,
                model: *model,
                slot: *slot,
                device: *device,
            },
            LogEvent::CfgDiskRemove { serial, reason } => {
                EventRef::CfgDiskRemove { serial, reason }
            }
        }
    }

    /// The interned tag for this event's variant.
    pub fn tag(&self) -> TagId {
        match self {
            EventRef::FciDeviceTimeout { .. } => TagId::FciDeviceTimeout,
            EventRef::FciAdapterReset { .. } => TagId::FciAdapterReset,
            EventRef::ScsiCmdAborted { .. } => TagId::ScsiCmdAborted,
            EventRef::ScsiSelectionTimeout { .. } => TagId::ScsiSelectionTimeout,
            EventRef::ScsiNoMorePaths { .. } => TagId::ScsiNoMorePaths,
            EventRef::ScsiPathFailover { .. } => TagId::ScsiPathFailover,
            EventRef::DiskMediumError { .. } => TagId::DiskMediumError,
            EventRef::ScsiProtocolViolation { .. } => TagId::ScsiProtocolViolation,
            EventRef::ScsiSlowResponse { .. } => TagId::ScsiSlowResponse,
            EventRef::RaidDiskMissing { .. } => TagId::RaidDiskMissing,
            EventRef::RaidDiskFailed { .. } => TagId::RaidDiskFailed,
            EventRef::RaidProtocolError { .. } => TagId::RaidProtocolError,
            EventRef::RaidDiskSlow { .. } => TagId::RaidDiskSlow,
            EventRef::CfgSystem { .. } => TagId::CfgSystem,
            EventRef::CfgShelf { .. } => TagId::CfgShelf,
            EventRef::CfgRaidGroup { .. } => TagId::CfgRaidGroup,
            EventRef::CfgDiskInstall { .. } => TagId::CfgDiskInstall,
            EventRef::CfgDiskRemove { .. } => TagId::CfgDiskRemove,
        }
    }
}

/// Borrowed twin of [`LogLine`]: one parsed line whose event borrows
/// from the input text. The lifetime ties the view to the chunk buffer
/// (or mmap'd segment) it was parsed from.
#[derive(Debug, Clone, Copy)]
pub struct LogLineRef<'a> {
    /// The storage system that emitted the line.
    pub host: SystemId,
    /// When the line was emitted.
    pub at: SimTime,
    /// The interned subsystem tag.
    pub tag: TagId,
    /// The typed event, borrowing its strings from the line.
    pub event: EventRef<'a>,
}

impl<'a> LogLineRef<'a> {
    /// Parses one rendered line without allocating.
    ///
    /// Returns `None` for malformed lines: an unknown tag, a message that
    /// does not match its tag's layout, or a severity other than the
    /// tag's fixed [`TagId::severity`].
    pub fn parse(line: &'a str) -> Option<LogLineRef<'a>> {
        if let Some(view) = Self::parse_canonical(line) {
            return Some(view);
        }
        let line = line.trim_end();
        let (host_tok, rest) = line.split_once(' ')?;
        let host = SystemId(host_tok.strip_prefix("sys-")?.parse().ok()?);
        let rest = rest.trim_start();
        let bracket = rest.find('[')?;
        let ts_text = rest[..bracket].trim();
        let at = SimTime::parse_log_timestamp(ts_text)?;
        let rest = &rest[bracket + 1..];
        let close = rest.find("]: ")?;
        let (tag_text, severity_tag) = rest[..close].rsplit_once(':')?;
        let severity = Severity::from_tag(severity_tag)?;
        let message = &rest[close + 3..];
        let tag = TagId::lookup(tag_text)?;
        let event = EventRef::parse(tag, message)?;
        if tag.severity() != severity {
            return None;
        }
        Some(LogLineRef {
            host,
            at,
            tag,
            event,
        })
    }

    /// Single-byte-walk fast path for the renderer's exact line layout:
    /// `sys-D Www Mmm dd HH:MM:SS TZm yyyy [tag:sev]: msg` with single
    /// separators and nothing trailing. Any deviation — extra spaces,
    /// trailing whitespace, a non-ASCII byte anywhere it would change
    /// tokenization — returns `None` so the general path above (the
    /// proven equivalent of the reference parser) makes the call.
    // lint: fast-path(LogLineRef::parse)
    fn parse_canonical(line: &'a str) -> Option<LogLineRef<'a>> {
        let b = line.as_bytes();
        // `trim_end` must be an identity: last byte ASCII and non-space.
        // (Unicode whitespace ends in a 0x80+ byte, so this check covers
        // multi-byte trailers too.)
        let &last = b.last()?;
        if last >= 0x80 || ascii_space(last) {
            return None;
        }
        let rest = b.strip_prefix(b"sys-")?;
        let (host, rest) = strip_u32(rest)?;
        let rest = rest.strip_prefix(b" ")?;
        // The timestamp region is exactly 28 canonical bytes followed by
        // ` [`; `SimTime::parse_log_timestamp` re-checks the layout and
        // bails (to the general path) on anything non-canonical. The `[`
        // scan keeps the general parser's bracket search honest: its
        // `find('[')` must land on byte 29, not inside a free-content
        // weekday/timezone token.
        if rest.len() < 30 || rest[28] != b' ' || rest[29] != b'[' || rest[..28].contains(&b'[') {
            return None;
        }
        let ts = std::str::from_utf8(&rest[..28]).ok()?;
        let at = SimTime::parse_log_timestamp(ts)?;
        let offset = line.len() - rest.len() + 30;
        let rest = &line[offset..];
        // First `]` must begin the `]: ` separator, and the bracket body
        // must hold exactly one `:` — the general parser splits on the
        // *last* colon, which only coincides with this reading in the
        // canonical single-colon case.
        let close = rest.find(']')?;
        let inside = &rest[..close];
        if !rest[close..].starts_with("]: ") {
            return None;
        }
        let colon = inside.find(':')?;
        let (tag_text, severity_tag) = (&inside[..colon], &inside[colon + 1..]);
        if severity_tag.contains(':') {
            return None;
        }
        let severity = Severity::from_tag(severity_tag)?;
        let message = &rest[close + 3..];
        let tag = TagId::lookup(tag_text)?;
        let event = EventRef::parse(tag, message)?;
        if tag.severity() != severity {
            return None;
        }
        Some(LogLineRef {
            host: SystemId(host),
            at,
            tag,
            event,
        })
    }

    /// Converts the view into an owned [`LogLine`].
    // lint: alloc-ok delegates to EventRef::to_owned at the same boundary
    pub fn to_owned(&self) -> LogLine {
        LogLine {
            host: self.host,
            at: self.at,
            event: self.event.to_owned(),
        }
    }

    /// Borrows a view from an owned line.
    pub fn from_owned(line: &'a LogLine) -> LogLineRef<'a> {
        LogLineRef {
            host: line.host,
            at: line.at,
            tag: line.event.tag_id(),
            event: EventRef::from_owned(&line.event),
        }
    }
}
