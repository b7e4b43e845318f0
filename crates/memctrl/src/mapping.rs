//! Physical-address → DRAM-coordinate mapping.
//!
//! One [`AddressMap`] serves the two layouts [`MappingKind`] names:
//!
//! * [`MappingKind::Mop`] — Minimalist Open-Page (the paper's Table 3
//!   policy): a run of four consecutive cache lines stays in the same row to
//!   retain some spatial locality, while the next bits interleave across
//!   bank groups, banks and ranks for parallelism.
//! * [`MappingKind::BankStriped`] — consecutive cache lines are striped
//!   across banks, so the cache lines of a single 4 KB page land in many
//!   banks and a single DRAM row holds lines from many different pages.
//!   This is the mapping property the activation-count covert channel and
//!   the AES side channel rely on (two processes sharing one physical DRAM
//!   row).
//!
//! Both are one layout of the within-channel cache-line index, low → high:
//! `[column-low, bank-group, bank, rank, column-high, row]`.  They differ
//! only in how many column bits sit below the bank bits: MOP two,
//! bank-striped none.
//!
//! # Channel bits
//!
//! When the organisation has more than one channel, the `log2(channels)`
//! bits right above the cache-line byte offset select the channel, so
//! consecutive cache lines rotate across channels; the rest of the line
//! index is the within-channel layout above.  With one channel the channel
//! field is zero bits wide.
//!
//! Every layout is bijective on the cache-line index; property tests verify
//! the round trip over channel and rank counts, and a unit test pins the
//! exact decode of fixed addresses for every layout.

use dram_sim::org::{DramAddress, DramOrganization};
use serde::{Deserialize, Serialize};

/// Selector for the provided mapping layouts.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize, Default)]
pub enum MappingKind {
    /// Minimalist Open-Page.
    #[default]
    Mop,
    /// Cache lines striped across banks.
    BankStriped,
}

/// Column bits of a MOP run: four consecutive cache lines share a row.
const MOP_RUN_BITS: u32 = 2;

/// A physical→DRAM address translation for one organisation.
///
/// Immutable configuration, cheap to copy: every consumer (controllers, the
/// subsystem's channel router, attacker traces and agents) builds its own
/// with [`AddressMap::new`] and holds it by value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AddressMap {
    org: DramOrganization,
    /// Field widths of the within-channel line index, low → high:
    /// `[column-low, bank-group, bank, rank, column-high, row]`.
    widths: [u32; 6],
}

impl AddressMap {
    /// Builds the `kind` layout for `org`.
    ///
    /// # Panics
    ///
    /// Panics if the organisation is not power-of-two sized.
    #[must_use]
    pub fn new(kind: MappingKind, org: DramOrganization) -> Self {
        assert!(org.is_valid(), "organisation must be power-of-two sized");
        let column = log2(org.columns_per_row);
        let column_low = match kind {
            MappingKind::Mop => MOP_RUN_BITS.min(column),
            MappingKind::BankStriped => 0,
        };
        Self {
            org,
            widths: [
                column_low,
                log2(org.bank_groups),
                log2(org.banks_per_group),
                log2(org.ranks),
                column - column_low,
                log2(org.rows_per_bank),
            ],
        }
    }

    /// Decodes a physical byte address into DRAM coordinates, channel
    /// included.
    #[must_use]
    pub fn decode(&self, physical_address: u64) -> DramAddress {
        let line = self.line(physical_address);
        let f = extract_fields(line >> log2(self.org.channels), &self.widths);
        DramAddress {
            channel: self.channel_of(line),
            rank: f[3],
            bank_group: f[1],
            bank: f[2],
            row: f[5],
            column: f[0] | (f[4] << self.widths[0]),
        }
    }

    /// Decodes only the channel of a physical byte address: a shift and a
    /// mask, for routers on the per-request hot path.
    #[must_use]
    pub fn decode_channel(&self, physical_address: u64) -> u32 {
        self.channel_of(self.line(physical_address))
    }

    /// Re-encodes DRAM coordinates into the physical byte address of the
    /// start of that cache line (inverse of [`AddressMap::decode`]).
    #[must_use]
    pub fn encode(&self, address: &DramAddress) -> u64 {
        debug_assert!(
            address.channel < self.org.channels,
            "channel {} out of range",
            address.channel
        );
        let column_low = self.widths[0];
        let inner = pack_fields(
            &[
                address.column & ((1 << column_low) - 1),
                address.bank_group,
                address.bank,
                address.rank,
                address.column >> column_low,
                address.row,
            ],
            &self.widths,
        );
        let line = (inner << log2(self.org.channels)) | u64::from(address.channel);
        line * u64::from(self.org.column_bytes)
    }

    /// The organisation this map was built for.
    #[must_use]
    pub fn organization(&self) -> &DramOrganization {
        &self.org
    }

    /// Reduces a physical byte address to a cache-line index within the
    /// whole (all-channel) subsystem capacity.
    fn line(&self, physical_address: u64) -> u64 {
        (physical_address / u64::from(self.org.column_bytes))
            % (self.org.capacity_bytes() / u64::from(self.org.column_bytes))
    }

    /// The channel bits of a subsystem cache-line index.
    fn channel_of(&self, line: u64) -> u32 {
        (line & u64::from(self.org.channels - 1)) as u32
    }
}

fn log2(value: u32) -> u32 {
    debug_assert!(value.is_power_of_two());
    value.trailing_zeros()
}

/// Splits a line index into fields of the given widths (low to high), on
/// the stack: decode sits on the per-request hot path of every controller.
fn extract_fields<const N: usize>(mut index: u64, widths: &[u32; N]) -> [u32; N] {
    let mut out = [0u32; N];
    for (slot, &w) in out.iter_mut().zip(widths) {
        let mask = (1u64 << w) - 1;
        *slot = (index & mask) as u32;
        index >>= w;
    }
    out
}

/// Inverse of [`extract_fields`].
fn pack_fields<const N: usize>(fields: &[u32; N], widths: &[u32; N]) -> u64 {
    let mut out = 0u64;
    let mut shift = 0u32;
    for (&f, &w) in fields.iter().zip(widths) {
        debug_assert!(u64::from(f) < (1u64 << w));
        out |= u64::from(f) << shift;
        shift += w;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn org() -> DramOrganization {
        DramOrganization::ddr5_32gb_quad_rank()
    }

    const KINDS: [MappingKind; 2] = [MappingKind::Mop, MappingKind::BankStriped];

    #[test]
    fn mop_keeps_short_runs_in_one_row() {
        let m = AddressMap::new(MappingKind::Mop, org());
        let base = 0x4000_0000u64;
        let first = m.decode(base);
        for i in 1..4u64 {
            let next = m.decode(base + i * 64);
            assert!(first.same_row(&next), "line {i} left the row under MOP");
        }
        // The 5th line moves to another bank group (run length 4).
        let fifth = m.decode(base + 4 * 64);
        assert!(!first.same_bank(&fifth));
    }

    #[test]
    fn bank_striped_spreads_consecutive_lines_across_banks() {
        let m = AddressMap::new(MappingKind::BankStriped, org());
        let base = 0x1234_5000u64 & !63;
        let a = m.decode(base);
        let b = m.decode(base + 64);
        assert!(
            !a.same_bank(&b),
            "consecutive lines must land in different banks"
        );
    }

    #[test]
    fn bank_striped_rows_hold_many_pages() {
        // Two addresses 2 MB apart (different 4 KB pages) can share a row:
        // find the encode of the same (bank, row) with different columns.
        let m = AddressMap::new(MappingKind::BankStriped, org());
        let row_addr = DramAddress {
            channel: 0,
            rank: 0,
            bank_group: 0,
            bank: 0,
            row: 42,
            column: 0,
        };
        let other_col = DramAddress {
            column: 17,
            ..row_addr
        };
        let pa0 = m.encode(&row_addr);
        let pa1 = m.encode(&other_col);
        // Different 4 KB pages...
        assert_ne!(pa0 >> 12, pa1 >> 12);
        // ...but the same DRAM row.
        assert!(m.decode(pa0).same_row(&m.decode(pa1)));
    }

    #[test]
    fn mop_round_trips() {
        let m = AddressMap::new(MappingKind::Mop, org());
        for pa in [
            0u64,
            64,
            4096,
            1 << 20,
            (1 << 30) + 64 * 7,
            (1 << 36) + 4096 * 3,
        ] {
            let decoded = m.decode(pa);
            assert_eq!(m.encode(&decoded), pa, "MOP round trip failed for {pa:#x}");
        }
    }

    #[test]
    fn all_mappings_decode_within_bounds() {
        let o = org();
        for kind in KINDS {
            let m = AddressMap::new(kind, o);
            for pa in [0u64, 64, 1 << 21, (1 << 33) + 128, o.capacity_bytes() - 64] {
                let d = m.decode(pa);
                assert!(d.rank < o.ranks);
                assert!(d.bank_group < o.bank_groups);
                assert!(d.bank < o.banks_per_group);
                assert!(d.row < o.rows_per_bank);
                assert!(d.column < o.columns_per_row);
            }
        }
    }

    #[test]
    #[should_panic(expected = "power-of-two")]
    fn invalid_organisation_is_rejected() {
        let mut o = DramOrganization::tiny_for_tests();
        o.columns_per_row = 3;
        let _ = AddressMap::new(MappingKind::Mop, o);
    }

    #[test]
    fn cache_line_interleave_rotates_consecutive_lines_across_channels() {
        let o = org().with_channels(4);
        for kind in KINDS {
            let m = AddressMap::new(kind, o);
            let channels: Vec<u32> = (0..8u64).map(|i| m.decode(i * 64).channel).collect();
            assert_eq!(
                channels,
                vec![0, 1, 2, 3, 0, 1, 2, 3],
                "{kind:?} must rotate channels per cache line"
            );
        }
    }

    #[test]
    fn single_channel_decode_is_unchanged_by_the_channel_field() {
        // A 1-channel organisation must decode exactly as before the
        // multi-channel refactor.
        let m = AddressMap::new(MappingKind::Mop, org());
        for pa in [0u64, 64, 4096, 1 << 20, (1 << 30) + 64 * 7] {
            let d = m.decode(pa);
            assert_eq!(d.channel, 0);
            assert_eq!(m.encode(&d), pa);
        }
    }

    #[test]
    fn decode_channel_agrees_with_the_full_decode() {
        for channels in [1u32, 2, 4] {
            let o = org().with_channels(channels);
            for kind in KINDS {
                let m = AddressMap::new(kind, o);
                for pa in [0u64, 64, 8192, 1 << 21, (1 << 34) + 192] {
                    assert_eq!(
                        m.decode_channel(pa),
                        m.decode(pa).channel,
                        "{kind:?}/{channels}ch at {pa:#x}"
                    );
                }
            }
        }
    }

    #[test]
    fn multi_channel_decode_stays_within_bounds() {
        let o = org().with_channels(2);
        for kind in KINDS {
            let m = AddressMap::new(kind, o);
            for pa in [0u64, 64, 1 << 21, (1 << 34) + 128, o.capacity_bytes() - 64] {
                let d = m.decode(pa);
                assert!(d.channel < o.channels);
                assert!(d.rank < o.ranks);
                assert!(d.bank_group < o.bank_groups);
                assert!(d.bank < o.banks_per_group);
                assert!(d.row < o.rows_per_bank);
                assert!(d.column < o.columns_per_row);
            }
        }
    }

    /// The exact decode of fixed addresses under every layout × channels
    /// {1, 2, 4} × ranks {4 (the organisation's own), 2}, as
    /// `[channel, rank, bank group, bank, row, column]`, and `encode`
    /// inverting each.  The values were produced by the per-layout mapping
    /// types this map replaced (cache-line channel bits, mid-order rank
    /// bits), so any change to a layout fails here first.
    #[test]
    fn decodes_match_the_pinned_layouts() {
        use MappingKind::{BankStriped, Mop};
        const PINNED: &[(MappingKind, u32, u32, u64, [u32; 6])] = &[
            (Mop, 1, 4, 0x0, [0, 0, 0, 0, 0, 0]),
            (Mop, 1, 4, 0xc0, [0, 0, 0, 0, 0, 3]),
            (Mop, 1, 4, 0x140, [0, 0, 1, 0, 0, 1]),
            (Mop, 1, 4, 0x12345640, [0, 2, 6, 2, 291, 33]),
            (Mop, 1, 4, 0x400001c0, [0, 0, 1, 0, 1024, 3]),
            (Mop, 1, 4, 0x8000030c0, [0, 1, 0, 2, 32768, 3]),
            (Mop, 1, 4, 0xfffffffc0, [0, 3, 7, 3, 65535, 127]),
            (Mop, 1, 2, 0x0, [0, 0, 0, 0, 0, 0]),
            (Mop, 1, 2, 0xc0, [0, 0, 0, 0, 0, 3]),
            (Mop, 1, 2, 0x140, [0, 0, 1, 0, 0, 1]),
            (Mop, 1, 2, 0x12345640, [0, 0, 6, 2, 582, 69]),
            (Mop, 1, 2, 0x400001c0, [0, 0, 1, 0, 2048, 3]),
            (Mop, 1, 2, 0x8000030c0, [0, 1, 0, 2, 65536, 3]),
            (Mop, 1, 2, 0xfffffffc0, [0, 1, 7, 3, 131071, 127]),
            (Mop, 2, 4, 0x0, [0, 0, 0, 0, 0, 0]),
            (Mop, 2, 4, 0xc0, [1, 0, 0, 0, 0, 1]),
            (Mop, 2, 4, 0x140, [1, 0, 0, 0, 0, 2]),
            (Mop, 2, 4, 0x12345640, [1, 1, 3, 1, 145, 80]),
            (Mop, 2, 4, 0x400001c0, [1, 0, 0, 0, 512, 3]),
            (Mop, 2, 4, 0x8000030c0, [1, 0, 0, 3, 16384, 1]),
            (Mop, 2, 4, 0xfffffffc0, [1, 3, 7, 3, 32767, 127]),
            (Mop, 2, 2, 0x0, [0, 0, 0, 0, 0, 0]),
            (Mop, 2, 2, 0xc0, [1, 0, 0, 0, 0, 1]),
            (Mop, 2, 2, 0x140, [1, 0, 0, 0, 0, 2]),
            (Mop, 2, 2, 0x12345640, [1, 1, 3, 1, 291, 32]),
            (Mop, 2, 2, 0x400001c0, [1, 0, 0, 0, 1024, 3]),
            (Mop, 2, 2, 0x8000030c0, [1, 0, 0, 3, 32768, 1]),
            (Mop, 2, 2, 0xfffffffc0, [1, 1, 7, 3, 65535, 127]),
            (Mop, 4, 4, 0x0, [0, 0, 0, 0, 0, 0]),
            (Mop, 4, 4, 0xc0, [3, 0, 0, 0, 0, 0]),
            (Mop, 4, 4, 0x140, [1, 0, 0, 0, 0, 1]),
            (Mop, 4, 4, 0x12345640, [1, 0, 5, 2, 72, 106]),
            (Mop, 4, 4, 0x400001c0, [3, 0, 0, 0, 256, 1]),
            (Mop, 4, 4, 0x8000030c0, [3, 0, 4, 1, 8192, 0]),
            (Mop, 4, 4, 0xfffffffc0, [3, 3, 7, 3, 16383, 127]),
            (Mop, 4, 2, 0x0, [0, 0, 0, 0, 0, 0]),
            (Mop, 4, 2, 0xc0, [3, 0, 0, 0, 0, 0]),
            (Mop, 4, 2, 0x140, [1, 0, 0, 0, 0, 1]),
            (Mop, 4, 2, 0x12345640, [1, 0, 5, 2, 145, 82]),
            (Mop, 4, 2, 0x400001c0, [3, 0, 0, 0, 512, 1]),
            (Mop, 4, 2, 0x8000030c0, [3, 0, 4, 1, 16384, 0]),
            (Mop, 4, 2, 0xfffffffc0, [3, 1, 7, 3, 32767, 127]),
            (BankStriped, 1, 4, 0x0, [0, 0, 0, 0, 0, 0]),
            (BankStriped, 1, 4, 0xc0, [0, 0, 3, 0, 0, 0]),
            (BankStriped, 1, 4, 0x140, [0, 0, 5, 0, 0, 0]),
            (BankStriped, 1, 4, 0x12345640, [0, 2, 1, 3, 291, 34]),
            (BankStriped, 1, 4, 0x400001c0, [0, 0, 7, 0, 1024, 0]),
            (BankStriped, 1, 4, 0x8000030c0, [0, 2, 3, 0, 32768, 1]),
            (BankStriped, 1, 4, 0xfffffffc0, [0, 3, 7, 3, 65535, 127]),
            (BankStriped, 1, 2, 0x0, [0, 0, 0, 0, 0, 0]),
            (BankStriped, 1, 2, 0xc0, [0, 0, 3, 0, 0, 0]),
            (BankStriped, 1, 2, 0x140, [0, 0, 5, 0, 0, 0]),
            (BankStriped, 1, 2, 0x12345640, [0, 0, 1, 3, 582, 69]),
            (BankStriped, 1, 2, 0x400001c0, [0, 0, 7, 0, 2048, 0]),
            (BankStriped, 1, 2, 0x8000030c0, [0, 0, 3, 0, 65536, 3]),
            (BankStriped, 1, 2, 0xfffffffc0, [0, 1, 7, 3, 131071, 127]),
            (BankStriped, 2, 4, 0x0, [0, 0, 0, 0, 0, 0]),
            (BankStriped, 2, 4, 0xc0, [1, 0, 1, 0, 0, 0]),
            (BankStriped, 2, 4, 0x140, [1, 0, 2, 0, 0, 0]),
            (BankStriped, 2, 4, 0x12345640, [1, 1, 4, 1, 145, 81]),
            (BankStriped, 2, 4, 0x400001c0, [1, 0, 3, 0, 512, 0]),
            (BankStriped, 2, 4, 0x8000030c0, [1, 3, 1, 0, 16384, 0]),
            (BankStriped, 2, 4, 0xfffffffc0, [1, 3, 7, 3, 32767, 127]),
            (BankStriped, 2, 2, 0x0, [0, 0, 0, 0, 0, 0]),
            (BankStriped, 2, 2, 0xc0, [1, 0, 1, 0, 0, 0]),
            (BankStriped, 2, 2, 0x140, [1, 0, 2, 0, 0, 0]),
            (BankStriped, 2, 2, 0x12345640, [1, 1, 4, 1, 291, 34]),
            (BankStriped, 2, 2, 0x400001c0, [1, 0, 3, 0, 1024, 0]),
            (BankStriped, 2, 2, 0x8000030c0, [1, 1, 1, 0, 32768, 1]),
            (BankStriped, 2, 2, 0xfffffffc0, [1, 1, 7, 3, 65535, 127]),
            (BankStriped, 4, 4, 0x0, [0, 0, 0, 0, 0, 0]),
            (BankStriped, 4, 4, 0xc0, [3, 0, 0, 0, 0, 0]),
            (BankStriped, 4, 4, 0x140, [1, 0, 1, 0, 0, 0]),
            (BankStriped, 4, 4, 0x12345640, [1, 2, 6, 2, 72, 104]),
            (BankStriped, 4, 4, 0x400001c0, [3, 0, 1, 0, 256, 0]),
            (BankStriped, 4, 4, 0x8000030c0, [3, 1, 0, 2, 8192, 0]),
            (BankStriped, 4, 4, 0xfffffffc0, [3, 3, 7, 3, 16383, 127]),
            (BankStriped, 4, 2, 0x0, [0, 0, 0, 0, 0, 0]),
            (BankStriped, 4, 2, 0xc0, [3, 0, 0, 0, 0, 0]),
            (BankStriped, 4, 2, 0x140, [1, 0, 1, 0, 0, 0]),
            (BankStriped, 4, 2, 0x12345640, [1, 0, 6, 2, 145, 81]),
            (BankStriped, 4, 2, 0x400001c0, [3, 0, 1, 0, 512, 0]),
            (BankStriped, 4, 2, 0x8000030c0, [3, 1, 0, 2, 16384, 0]),
            (BankStriped, 4, 2, 0xfffffffc0, [3, 1, 7, 3, 32767, 127]),
        ];
        assert_eq!(PINNED.len(), 2 * 3 * 2 * 7);
        for &(kind, channels, ranks, pa, [channel, rank, bank_group, bank, row, column]) in PINNED {
            let m = AddressMap::new(kind, org().with_channels(channels).with_ranks(ranks));
            let expected = DramAddress {
                channel,
                rank,
                bank_group,
                bank,
                row,
                column,
            };
            let what = format!("{kind:?}, {channels}ch, {ranks} ranks, {pa:#x}");
            assert_eq!(m.decode(pa), expected, "{what}");
            assert_eq!(m.decode_channel(pa), channel, "{what}");
            assert_eq!(m.encode(&expected), pa, "{what}");
        }
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    fn org() -> DramOrganization {
        DramOrganization::ddr5_32gb_quad_rank()
    }

    const KINDS: [MappingKind; 2] = [MappingKind::Mop, MappingKind::BankStriped];

    proptest! {
        #[test]
        fn mop_bijective(line in 0u64..(1u64 << 31)) {
            let m = AddressMap::new(MappingKind::Mop, org());
            let pa = line * 64;
            let decoded = m.decode(pa);
            prop_assert_eq!(m.encode(&decoded), pa);
        }

        #[test]
        fn bank_striped_bijective(line in 0u64..(1u64 << 31)) {
            let m = AddressMap::new(MappingKind::BankStriped, org());
            let pa = line * 64;
            let decoded = m.decode(pa);
            prop_assert_eq!(m.encode(&decoded), pa);
        }

        /// Distinct physical lines decode to distinct DRAM coordinates.
        #[test]
        fn decode_is_injective(a in 0u64..(1u64 << 28), b in 0u64..(1u64 << 28)) {
            prop_assume!(a != b);
            let m = AddressMap::new(MappingKind::Mop, org());
            prop_assert_ne!(m.decode(a * 64), m.decode(b * 64));
        }

        /// Every layout × channel count round-trips including the channel
        /// bits.
        #[test]
        fn multi_channel_bijective(
            line in 0u64..(1u64 << 31),
            channels in 1u32..4u32,
            kind_index in 0..KINDS.len(),
        ) {
            let o = org().with_channels(1 << channels);
            let m = AddressMap::new(KINDS[kind_index], o);
            let pa = line * 64;
            let decoded = m.decode(pa);
            prop_assert!(decoded.channel < o.channels);
            prop_assert_eq!(m.encode(&decoded), pa);
        }

        /// The channel bits really partition the line space: distinct lines
        /// that decode to the same channel stay distinct within the channel.
        #[test]
        fn multi_channel_decode_is_injective(
            a in 0u64..(1u64 << 26),
            b in 0u64..(1u64 << 26),
        ) {
            prop_assume!(a != b);
            let m = AddressMap::new(MappingKind::BankStriped, org().with_channels(4));
            prop_assert_ne!(m.decode(a * 64), m.decode(b * 64));
        }

        /// Ranks {1,2} × every layout × channels {1,2,4}: decoded
        /// coordinates stay in bounds and encode/decode is the identity.
        #[test]
        fn rank_aware_bijective(
            line in 0u64..(1u64 << 31),
            channels_log2 in 0u32..3,
            ranks_log2 in 0u32..2,
            kind_index in 0..KINDS.len(),
        ) {
            let o = org()
                .with_channels(1 << channels_log2)
                .with_ranks(1 << ranks_log2);
            let m = AddressMap::new(KINDS[kind_index], o);
            // Keep the probe inside the (rank-dependent) capacity so the
            // round trip is exact rather than modulo-wrapped.
            let lines = o.capacity_bytes() / u64::from(o.column_bytes);
            let pa = (line % lines) * u64::from(o.column_bytes);
            let d = m.decode(pa);
            prop_assert!(d.channel < o.channels);
            prop_assert!(d.rank < o.ranks);
            prop_assert!(d.bank_group < o.bank_groups);
            prop_assert!(d.bank < o.banks_per_group);
            prop_assert!(d.row < o.rows_per_bank);
            prop_assert!(d.column < o.columns_per_row);
            prop_assert_eq!(m.encode(&d), pa);
        }

        /// Rank bits really partition the line space: distinct lines stay
        /// distinct after decode.
        #[test]
        fn rank_aware_decode_is_injective(
            a in 0u64..(1u64 << 26),
            b in 0u64..(1u64 << 26),
        ) {
            prop_assume!(a != b);
            let m = AddressMap::new(MappingKind::Mop, org().with_ranks(2));
            prop_assert_ne!(m.decode(a * 64), m.decode(b * 64));
        }
    }
}
