//! Differential fuzzing of the production parser against the owned
//! reference parser.
//!
//! [`LogLineRef::parse`] is the library's one log-line parser: a
//! byte-oriented parser with a fixed-layout canonical fast path
//! (`parse_canonical`, fused timestamp decode, fused `cfg.disk.install`
//! decode) that bails to a general token path on any deviation.
//! `support::parse_line` is the original `String`-allocating parser,
//! kept here as the reference. The contract is *exact* accept/reject
//! equivalence: for every input — well-formed, near-miss, mutated,
//! truncated, or adversarial — both parsers must agree on `Some`/`None`,
//! and on accept the borrowed view's `to_owned()` must equal the owned
//! parse. Each generator below aims at a seam where the fast path could
//! plausibly diverge: signed/padded numerals, duplicate keys, extra
//! whitespace, multi-colon tags, brackets inside free-content timestamp
//! tokens, non-ASCII bytes, and single-character edits of valid lines.

mod support;

use proptest::prelude::*;

use ssfa_logs::intern::ALL_TAGS;
use ssfa_logs::{EventRef, LogLine, LogLineRef};
use ssfa_model::{CivilDateTime, SimTime};

fn assert_equivalent(line: &str) -> Result<(), TestCaseError> {
    let owned = support::parse_line(line);
    let view = LogLineRef::parse(line);
    if let Some(v) = &view {
        prop_assert_eq!(
            v.tag,
            v.event.tag(),
            "interned tag disagrees with the event on {:?}",
            line
        );
    }
    let viewed = view.map(|v| v.to_owned());
    prop_assert_eq!(
        &viewed,
        &owned,
        "parser divergence on {:?}: ref={:?} owned={:?}",
        line,
        viewed,
        owned
    );
    Ok(())
}

/// One rendered line per event shape, covering every tag the interner
/// knows — the mutation generators below edit these.
fn rendered_lines() -> Vec<String> {
    use ssfa_logs::LogEvent;
    use ssfa_model::{
        DeviceAddr, DiskInstanceId, DiskModelId, LayoutPolicy, LoopId, PathConfig, RaidGroupId,
        RaidType, ShelfId, ShelfModel, SimTime, SlotAddr, SystemClass, SystemId,
    };
    let d = DeviceAddr::new(8, 24);
    let serial = DiskInstanceId(12_345).serial();
    let events = vec![
        LogEvent::FciDeviceTimeout { device: d },
        LogEvent::FciAdapterReset { adapter: 8 },
        LogEvent::ScsiCmdAborted { device: d },
        LogEvent::ScsiSelectionTimeout { device: d },
        LogEvent::ScsiNoMorePaths { device: d },
        LogEvent::ScsiPathFailover { device: d },
        LogEvent::ScsiProtocolViolation { device: d },
        LogEvent::ScsiSlowResponse {
            device: d,
            latency_ms: 30_000,
        },
        LogEvent::DiskMediumError {
            device: d,
            sector: 123_456_789,
        },
        LogEvent::RaidDiskFailed {
            device: d,
            serial: serial.clone(),
        },
        LogEvent::RaidDiskMissing {
            device: d,
            serial: serial.clone(),
        },
        LogEvent::RaidProtocolError {
            device: d,
            serial: serial.clone(),
        },
        LogEvent::RaidDiskSlow {
            device: d,
            serial: serial.clone(),
        },
        LogEvent::CfgSystem {
            class: SystemClass::LowEnd,
            disk_model: DiskModelId::new('A', 1),
            shelf_model: ShelfModel::A,
            paths: PathConfig::DualPath,
            layout: LayoutPolicy::SpanShelves,
        },
        LogEvent::CfgShelf {
            shelf: ShelfId(3),
            model: ShelfModel::B,
            fc_loop: LoopId(1),
            adapter: 2,
            position: 1,
            bays: 14,
        },
        LogEvent::CfgRaidGroup {
            rg: RaidGroupId(5),
            raid_type: RaidType::Raid4,
            slots: vec![
                SlotAddr {
                    shelf: ShelfId(0),
                    bay: 1,
                },
                SlotAddr {
                    shelf: ShelfId(3),
                    bay: 13,
                },
            ],
        },
        LogEvent::CfgDiskInstall {
            serial: serial.clone(),
            model: DiskModelId::new('B', 2),
            slot: SlotAddr {
                shelf: ShelfId(3),
                bay: 7,
            },
            device: d,
        },
        LogEvent::CfgDiskRemove {
            serial,
            reason: "failed".to_owned(),
        },
    ];
    events
        .into_iter()
        .map(|event| LogLine::new(SystemId(17), SimTime::from_secs(79_876_543), event).to_string())
        .collect()
}

/// Hand-picked near-misses both parsers must reject: unknown tags,
/// severity mismatch, truncated payload, malformed raid-group members.
const REJECTED_LINES: [&str; 8] = [
    "",
    "garbage line",
    "sys-x Sun Jul 23 05:43:36 PDT 2006 [a:info]: b",
    "sys-1 Sun Jul 23 05:43:36 PDT 2006 [unknown.tag:error]: whatever",
    // Severity mismatch.
    "sys-1 Sun Jul 23 05:43:36 PDT 2006 [fci.device.timeout:info]: \
     Adapter 8 encountered a device timeout on device 8.24",
    // Truncated payload.
    "sys-1 Sun Jul 23 05:43:36 PDT 2006 [raid.config.filesystem.disk.missing:info]: \
     File system Disk 8.24 S/N [",
    // Raid group with a malformed member pair.
    "sys-1 Sun Jul 23 05:43:36 PDT 2006 [cfg.raidgroup:info]: \
     rg=55 type=RAID6 slots=1:0,borked",
    // Empty member list.
    "sys-1 Sun Jul 23 05:43:36 PDT 2006 [cfg.raidgroup:info]: rg=55 type=RAID6 slots=",
];

/// A duplicated kv key: both parsers keep the last occurrence.
const DUPLICATE_KEY_LINE: &str = "sys-1 Sun Jul 23 05:43:36 PDT 2006 [cfg.disk.remove:info]: \
                                  serial=3ELAAAAAAAA reason=study_end reason=failed";

proptest! {
    /// Arbitrary unicode soup: both parsers agree (almost always on
    /// rejection).
    #[test]
    fn arbitrary_input_parses_identically(line in ".{0,200}") {
        assert_equivalent(&line)?;
    }

    /// Near-miss lines with the right skeleton but fuzzed fields — the
    /// canonical fast path must bail to the same verdict the owned
    /// parser reaches.
    #[test]
    fn near_miss_lines_parse_identically(
        host in "[0-9+ ]{0,12}",
        ts in "[A-Za-z0-9 :+\\[\\]]{0,40}",
        tag in "[a-z.:]{0,24}",
        sev in "[a-z:]{0,10}",
        payload in "[a-z0-9=. \\-]{0,80}",
    ) {
        assert_equivalent(&format!("sys-{host} {ts} [{tag}:{sev}]: {payload}"))?;
        for line in REJECTED_LINES {
            prop_assert!(support::parse_line(line).is_none(), "reference accepted: {:?}", line);
            assert_equivalent(line)?;
        }
        assert_equivalent(DUPLICATE_KEY_LINE)?;
        match LogLineRef::parse(DUPLICATE_KEY_LINE).map(|v| v.event) {
            Some(EventRef::CfgDiskRemove { reason, .. }) => prop_assert_eq!(reason, "failed"),
            other => prop_assert!(false, "wrong parse: {:?}", other),
        }
    }

    /// Every rendered event shape round-trips through BOTH parsers to the
    /// same accepted line (equivalence on the accept side, not just
    /// shared rejection).
    #[test]
    fn rendered_lines_are_accepted_identically(extra_ws in 0usize..4, trailing in "[ \t]{0,3}") {
        let mut tags = Vec::new();
        for line in rendered_lines() {
            let Some(owned) = support::parse_line(&line) else {
                return Err(TestCaseError::fail(format!("rendered line must parse: {line}")));
            };
            tags.push(owned.event.tag_id());
            // The owned feed path borrows through `from_owned`.
            prop_assert_eq!(LogLineRef::from_owned(&owned).to_owned(), owned);
            assert_equivalent(&line)?;
            // trim_end equivalence: trailing ASCII whitespace is cosmetic.
            assert_equivalent(&format!("{line}{trailing}"))?;
            // Extra interior spaces leave the general token path valid for
            // the timestamp but break fixed offsets — the fast path must
            // bail, not reject.
            let spaced = line.replacen(' ', &" ".repeat(1 + extra_ws), 3);
            assert_equivalent(&spaced)?;
        }
        tags.sort();
        prop_assert_eq!(tags, ALL_TAGS.to_vec(), "rendered_lines must cover every tag once");
    }

    /// Single-character deletion at every position of every rendered
    /// shape: the classic fast-path hazard (shifts every fixed offset).
    #[test]
    fn single_character_deletion_parses_identically(idx in 0usize..200) {
        for line in rendered_lines() {
            if idx < line.len() && line.is_char_boundary(idx) && line.is_char_boundary(idx + 1) {
                let mutated = format!("{}{}", &line[..idx], &line[idx + 1..]);
                assert_equivalent(&mutated)?;
            }
        }
    }

    /// Truncation at every char boundary — including mid-message and
    /// mid-timestamp prefixes of the canonical layout.
    #[test]
    fn prefix_truncation_parses_identically(idx in 0usize..200) {
        for line in rendered_lines() {
            if idx < line.len() && line.is_char_boundary(idx) {
                assert_equivalent(&line[..idx])?;
            }
        }
    }

    /// Single-byte substitution across the whole line, drawn from the
    /// characters that gate fast-path branches: signs, separators,
    /// brackets, NUL, a non-ASCII char, and unicode whitespace.
    #[test]
    fn single_character_substitution_parses_identically(
        idx in 0usize..200,
        pick in 0usize..12,
    ) {
        let repl = ['+', '-', ' ', ':', '[', ']', '=', '0', '\u{0}', '\u{e9}', '\u{a0}', '\u{2028}'][pick];
        for line in rendered_lines() {
            if idx < line.len() && line.is_char_boundary(idx) && line.is_char_boundary(idx + 1) {
                let mutated = format!("{}{repl}{}", &line[..idx], &line[idx + 1..]);
                assert_equivalent(&mutated)?;
            }
        }
    }

    /// The `cfg.disk.install` fused decoder versus the generic kv path:
    /// signed numerals (std `parse` accepts a leading `+`, byte folds
    /// must bail to it), overflowed fields, duplicate keys (last wins),
    /// reordered keys, and junk tails.
    #[test]
    fn disk_install_payload_variants_parse_identically(
        serial in "[A-Z0-9+]{0,12}",
        family in "[A-Za-z+]{0,2}",
        cap in 0u64..400,
        shelf in 0u64..80_000,
        bay in 0u64..300,
        adapter in 0u64..300,
        target in 0u64..300,
        plus_mask in 0u8..32,
        variant in 0u8..6,
    ) {
        let p = |bit: u8| if plus_mask & (1 << bit) != 0 { "+" } else { "" };
        let base = format!(
            "serial={serial} model={family}-{}{cap} shelf={}{shelf} bay={}{bay} device={}{adapter}.{}{target}",
            p(0), p(1), p(2), p(3), p(4),
        );
        let msg = match variant {
            0 => base,
            1 => format!("{base} shelf=9"),              // duplicate key, last wins
            2 => format!("{base} trailing junk"),        // junk tail
            3 => format!("bay={bay} {base}"),            // reordered/duplicated head
            4 => base.replace(' ', "  "),                // double separators
            5 => format!("{base}\u{a0}"),                // non-ASCII whitespace tail
            _ => unreachable!(),
        };
        assert_equivalent(&format!(
            "sys-17 Thu Jul 13 12:22:23 PDT 2006 [cfg.disk.install:info]: {msg}"
        ))?;
    }

    /// The fused timestamp decode versus the civil-calendar oracle:
    /// `SimTime::parse_log_timestamp` must accept/reject exactly like
    /// `CivilDateTime::parse_log_timestamp(..).to_sim_time()` on both
    /// arbitrary text and structured near-canonical layouts (free-content
    /// weekday/zone tokens, space- or zero-padded days, out-of-range
    /// fields, pre-epoch years).
    #[test]
    fn fused_timestamp_matches_the_civil_oracle(
        arbitrary in "[A-Za-z0-9 :+\\-]{0,40}",
        wd in "[A-Za-z\\[]{1,4}",
        mon in "[A-Z][a-z]{2}",
        day in 0u32..40,
        hour in 0u32..30,
        minute in 0u32..70,
        second in 0u32..70,
        zone in "[A-Z]{2,4}",
        year in 1900u32..2200,
        pad in 0u8..2,
    ) {
        for ts in [
            arbitrary,
            if pad == 0 {
                format!("{wd} {mon} {day:2} {hour:02}:{minute:02}:{second:02} {zone} {year}")
            } else {
                format!("{wd} {mon} {day:02} {hour:02}:{minute:02}:{second:02} {zone} {year}")
            },
        ] {
            let fused = SimTime::parse_log_timestamp(&ts);
            let oracle = CivilDateTime::parse_log_timestamp(&ts).and_then(|c| c.to_sim_time());
            prop_assert_eq!(fused, oracle, "timestamp divergence on {:?}", ts);
        }
    }
}
