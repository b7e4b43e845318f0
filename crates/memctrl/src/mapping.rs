//! Physical-address → DRAM-coordinate mapping policies.
//!
//! Three mappings are provided:
//!
//! * [`MopMapping`] — Minimalist Open-Page (the paper's Table 3 policy): a
//!   small run of consecutive cache lines stays in the same row to retain
//!   some spatial locality, while higher-order bits interleave across bank
//!   groups, banks and ranks for parallelism.
//! * [`BankStripedMapping`] — consecutive cache lines are striped across
//!   banks, so the cache lines of a single 4 KB page land in many banks and a
//!   single DRAM row holds lines from many different pages.  This is the
//!   mapping property the activation-count covert channel and the AES side
//!   channel rely on (two processes sharing one physical DRAM row).
//! * [`RowInterleavedMapping`] — a simple row:bank:column layout used as a
//!   baseline in tests.
//!
//! All mappings are bijective on the cache-line index; property tests verify
//! the round trip (including the channel bits in multi-channel
//! organisations).
//!
//! # Channel bits
//!
//! When the organisation has more than one channel, every mapping carves
//! `log2(channels)` bits out of the cache-line index *before* applying its
//! per-channel layout.  Where those bits sit is the
//! [`ChannelInterleave`] granularity:
//!
//! * [`ChannelInterleave::CacheLine`] — the bits right above the cache-line
//!   byte offset: consecutive cache lines rotate across channels (maximum
//!   channel-level parallelism for streaming traffic).
//! * [`ChannelInterleave::Row`] — the bits right above one row's worth of
//!   physical address space: consecutive row-sized blocks rotate across
//!   channels (a streaming access burst stays on one channel's open row).
//!
//! With one channel the channel field is zero bits wide and every mapping
//! decodes bit-identically to the pre-multi-channel layout.

use dram_sim::org::{DramAddress, DramOrganization};
use serde::{Deserialize, Serialize};

/// A physical→DRAM address translation policy.
pub trait AddressMapping: std::fmt::Debug + Send + Sync {
    /// Deep-copies the mapping behind its trait object.  Mappings are
    /// immutable configuration, so the copy exists purely to make the
    /// controller clonable (a forked simulation deep-copies it).
    fn clone_box(&self) -> Box<dyn AddressMapping>;

    /// Decodes a physical byte address into DRAM coordinates (including the
    /// channel in multi-channel organisations).
    fn decode(&self, physical_address: u64) -> DramAddress;

    /// Decodes only the channel of a physical byte address.  Routers on the
    /// per-request hot path use this instead of a full [`AddressMapping::decode`];
    /// the provided implementations reduce it to a shift-and-mask.
    fn decode_channel(&self, physical_address: u64) -> u32 {
        self.decode(physical_address).channel
    }

    /// Re-encodes DRAM coordinates into the physical byte address of the
    /// start of that cache line (inverse of [`AddressMapping::decode`]).
    fn encode(&self, address: &DramAddress) -> u64;

    /// The organisation this mapping was built for.
    fn organization(&self) -> &DramOrganization;
}

/// Which physical-address bits select the channel in multi-channel
/// organisations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize, Default)]
pub enum ChannelInterleave {
    /// Channel bits right above the cache-line offset: consecutive cache
    /// lines rotate across channels.
    #[default]
    CacheLine,
    /// Channel bits right above a row-sized block: consecutive rows' worth
    /// of physical addresses rotate across channels.
    Row,
}

impl ChannelInterleave {
    /// Stable CLI / config spelling.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            ChannelInterleave::CacheLine => "cache-line",
            ChannelInterleave::Row => "row",
        }
    }

    /// Parses a CLI spelling (`"cache-line"` / `"row"`).
    #[must_use]
    pub fn parse(text: &str) -> Option<Self> {
        match text {
            "cache-line" | "cacheline" | "line" => Some(ChannelInterleave::CacheLine),
            "row" => Some(ChannelInterleave::Row),
            _ => None,
        }
    }

    /// Bit offset of the channel field within the cache-line index.
    fn line_bit_offset(self, org: &DramOrganization) -> u32 {
        match self {
            ChannelInterleave::CacheLine => 0,
            ChannelInterleave::Row => log2(org.columns_per_row),
        }
    }
}

/// Where the rank bits sit inside each mapping's within-channel layout.
///
/// * [`RankInterleave::Interleaved`] (default) keeps the rank bits in each
///   mapping's native mid-order slot — bit-identical to the layouts before
///   the knob existed, so every existing golden and cache key is preserved.
/// * [`RankInterleave::Consolidated`] moves the rank bits to the most
///   significant position: each rank owns one contiguous half (quarter, …)
///   of the channel's address space, so streaming traffic stays on one
///   rank and rank-level parallelism comes only from explicit placement.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize, Default)]
pub enum RankInterleave {
    /// Rank bits in the mapping's native mid-order position (the seed
    /// layout).
    #[default]
    Interleaved,
    /// Rank bits most-significant: contiguous per-rank address regions.
    Consolidated,
}

impl RankInterleave {
    /// Stable CLI / config spelling.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            RankInterleave::Interleaved => "interleaved",
            RankInterleave::Consolidated => "consolidated",
        }
    }

    /// Parses a CLI spelling (`"interleaved"` / `"consolidated"`).
    #[must_use]
    pub fn parse(text: &str) -> Option<Self> {
        match text {
            "interleaved" => Some(RankInterleave::Interleaved),
            "consolidated" => Some(RankInterleave::Consolidated),
            _ => None,
        }
    }
}

/// Selector for the provided mapping policies.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize, Default)]
pub enum MappingKind {
    /// Minimalist Open-Page.
    #[default]
    Mop,
    /// Cache lines striped across banks.
    BankStriped,
    /// Row-interleaved baseline.
    RowInterleaved,
}

impl MappingKind {
    /// Instantiates the mapping for `org` with the default (cache-line)
    /// channel interleave.
    #[must_use]
    pub fn instantiate(self, org: DramOrganization) -> Box<dyn AddressMapping> {
        self.instantiate_with(org, ChannelInterleave::default())
    }

    /// Instantiates the mapping for `org` with an explicit channel-interleave
    /// granularity.
    #[must_use]
    pub fn instantiate_with(
        self,
        org: DramOrganization,
        interleave: ChannelInterleave,
    ) -> Box<dyn AddressMapping> {
        self.instantiate_full(org, interleave, RankInterleave::default())
    }

    /// Instantiates the mapping for `org` with explicit channel- and
    /// rank-interleave granularities.
    #[must_use]
    pub fn instantiate_full(
        self,
        org: DramOrganization,
        interleave: ChannelInterleave,
        rank_interleave: RankInterleave,
    ) -> Box<dyn AddressMapping> {
        match self {
            MappingKind::Mop => Box::new(
                MopMapping::new(org)
                    .with_interleave(interleave)
                    .with_rank_interleave(rank_interleave),
            ),
            MappingKind::BankStriped => Box::new(
                BankStripedMapping::new(org)
                    .with_interleave(interleave)
                    .with_rank_interleave(rank_interleave),
            ),
            MappingKind::RowInterleaved => Box::new(
                RowInterleavedMapping::new(org)
                    .with_interleave(interleave)
                    .with_rank_interleave(rank_interleave),
            ),
        }
    }
}

fn log2(value: u32) -> u32 {
    debug_assert!(value.is_power_of_two());
    value.trailing_zeros()
}

/// Splits a cache-line index into fields of the given widths (low to high).
///
/// Monomorphised over the field count so the result lives on the stack:
/// decode/encode sit on the per-request hot path of every controller and
/// must not allocate.
///
/// `pub` but hidden: not API — exported only so the criterion harness
/// benches the shipped kernel rather than a copy that could drift.
#[doc(hidden)]
pub fn extract_fields<const N: usize>(mut index: u64, widths: &[u32; N]) -> [u32; N] {
    let mut out = [0u32; N];
    for (slot, &w) in out.iter_mut().zip(widths) {
        let mask = (1u64 << w) - 1;
        *slot = (index & mask) as u32;
        index >>= w;
    }
    out
}

/// Inverse of [`extract_fields`]; `pub` but hidden for the same reason.
#[doc(hidden)]
pub fn pack_fields<const N: usize>(fields: &[u32; N], widths: &[u32; N]) -> u64 {
    let mut out = 0u64;
    let mut shift = 0u32;
    for (&f, &w) in fields.iter().zip(widths) {
        debug_assert!(u64::from(f) < (1u64 << w));
        out |= u64::from(f) << shift;
        shift += w;
    }
    out
}

/// Reduces a physical byte address to a cache-line index within the whole
/// (all-channel) subsystem capacity.
fn subsystem_line(org: &DramOrganization, physical_address: u64) -> u64 {
    (physical_address / u64::from(org.column_bytes))
        % (org.capacity_bytes() / u64::from(org.column_bytes))
}

/// Extracts the channel bits from a subsystem cache-line index, returning
/// `(channel, within-channel line index)`.  Zero-width (single-channel)
/// splits are the identity.
fn split_channel(line: u64, org: &DramOrganization, interleave: ChannelInterleave) -> (u32, u64) {
    let width = log2(org.channels);
    if width == 0 {
        return (0, line);
    }
    let offset = interleave.line_bit_offset(org);
    let low = line & ((1u64 << offset) - 1);
    let channel = ((line >> offset) & ((1u64 << width) - 1)) as u32;
    let high = line >> (offset + width);
    (channel, low | (high << offset))
}

/// Channel bits of a physical address, without the full field extraction —
/// the shared fast path behind every mapping's
/// [`AddressMapping::decode_channel`].
fn channel_of(org: &DramOrganization, interleave: ChannelInterleave, physical_address: u64) -> u32 {
    if org.channels == 1 {
        return 0;
    }
    split_channel(subsystem_line(org, physical_address), org, interleave).0
}

/// Inverse of [`split_channel`]: re-inserts the channel bits into a
/// within-channel line index.
fn join_channel(
    channel: u32,
    inner: u64,
    org: &DramOrganization,
    interleave: ChannelInterleave,
) -> u64 {
    let width = log2(org.channels);
    if width == 0 {
        return inner;
    }
    debug_assert!(channel < org.channels, "channel {channel} out of range");
    let offset = interleave.line_bit_offset(org);
    let low = inner & ((1u64 << offset) - 1);
    let high = inner >> offset;
    low | (u64::from(channel) << offset) | (high << (offset + width))
}

/// Minimalist Open-Page mapping.
///
/// Cache-line index bit layout (low → high):
/// `[column_low (mop run)] [bank group] [bank] [rank] [column_high] [row]`.
/// A run of `mop_run` consecutive lines shares the row (open-page locality),
/// while the next bits spread accesses across bank groups/banks/ranks.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct MopMapping {
    org: DramOrganization,
    mop_run: u32,
    interleave: ChannelInterleave,
    rank_interleave: RankInterleave,
}

impl MopMapping {
    /// Creates the mapping with the default run length of 4 cache lines.
    ///
    /// # Panics
    ///
    /// Panics if the organisation is not power-of-two sized.
    #[must_use]
    pub fn new(org: DramOrganization) -> Self {
        assert!(org.is_valid(), "organisation must be power-of-two sized");
        let mop_run = 4.min(org.columns_per_row);
        Self {
            org,
            mop_run,
            interleave: ChannelInterleave::default(),
            rank_interleave: RankInterleave::default(),
        }
    }

    /// Replaces the channel-interleave granularity (builder-style).
    #[must_use]
    pub fn with_interleave(mut self, interleave: ChannelInterleave) -> Self {
        self.interleave = interleave;
        self
    }

    /// Replaces the rank-interleave position (builder-style).
    #[must_use]
    pub fn with_rank_interleave(mut self, rank_interleave: RankInterleave) -> Self {
        self.rank_interleave = rank_interleave;
        self
    }

    /// Field widths low → high.  Interleaved:
    /// `[col_low, bg, bank, rank, col_high, row]`; consolidated moves the
    /// rank width to the top: `[col_low, bg, bank, col_high, row, rank]`.
    fn widths(&self) -> [u32; 6] {
        let col_low = log2(self.mop_run);
        let col_high = log2(self.org.columns_per_row) - col_low;
        let bg = log2(self.org.bank_groups);
        let bank = log2(self.org.banks_per_group);
        let rank = log2(self.org.ranks);
        let row = log2(self.org.rows_per_bank);
        match self.rank_interleave {
            RankInterleave::Interleaved => [col_low, bg, bank, rank, col_high, row],
            RankInterleave::Consolidated => [col_low, bg, bank, col_high, row, rank],
        }
    }
}

impl Clone for Box<dyn AddressMapping> {
    fn clone(&self) -> Self {
        self.clone_box()
    }
}

impl AddressMapping for MopMapping {
    fn clone_box(&self) -> Box<dyn AddressMapping> {
        Box::new(self.clone())
    }

    fn decode(&self, physical_address: u64) -> DramAddress {
        let line = subsystem_line(&self.org, physical_address);
        let (channel, inner) = split_channel(line, &self.org, self.interleave);
        let widths = self.widths();
        let f = extract_fields(inner, &widths);
        let (rank, col_high, row) = match self.rank_interleave {
            RankInterleave::Interleaved => (f[3], f[4], f[5]),
            RankInterleave::Consolidated => (f[5], f[3], f[4]),
        };
        let column = f[0] | (col_high << log2(self.mop_run));
        DramAddress {
            channel,
            rank,
            bank_group: f[1],
            bank: f[2],
            row,
            column,
        }
    }

    fn decode_channel(&self, physical_address: u64) -> u32 {
        channel_of(&self.org, self.interleave, physical_address)
    }

    fn encode(&self, address: &DramAddress) -> u64 {
        let widths = self.widths();
        let col_low_bits = log2(self.mop_run);
        let col_low = address.column & (self.mop_run - 1);
        let col_high = address.column >> col_low_bits;
        let fields = match self.rank_interleave {
            RankInterleave::Interleaved => [
                col_low,
                address.bank_group,
                address.bank,
                address.rank,
                col_high,
                address.row,
            ],
            RankInterleave::Consolidated => [
                col_low,
                address.bank_group,
                address.bank,
                col_high,
                address.row,
                address.rank,
            ],
        };
        let inner = pack_fields(&fields, &widths);
        join_channel(address.channel, inner, &self.org, self.interleave)
            * u64::from(self.org.column_bytes)
    }

    fn organization(&self) -> &DramOrganization {
        &self.org
    }
}

/// Bank-striped mapping: consecutive cache lines rotate across bank groups,
/// banks and ranks before advancing the column.
///
/// Under this mapping a 4 KB page (64 cache lines) spreads over up to 64
/// banks while each DRAM row holds cache lines belonging to many distinct
/// pages — the exact condition the paper exploits for row sharing between
/// victim and attacker.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct BankStripedMapping {
    org: DramOrganization,
    interleave: ChannelInterleave,
    rank_interleave: RankInterleave,
}

impl BankStripedMapping {
    /// Creates the mapping.
    ///
    /// # Panics
    ///
    /// Panics if the organisation is not power-of-two sized.
    #[must_use]
    pub fn new(org: DramOrganization) -> Self {
        assert!(org.is_valid(), "organisation must be power-of-two sized");
        Self {
            org,
            interleave: ChannelInterleave::default(),
            rank_interleave: RankInterleave::default(),
        }
    }

    /// Replaces the channel-interleave granularity (builder-style).
    #[must_use]
    pub fn with_interleave(mut self, interleave: ChannelInterleave) -> Self {
        self.interleave = interleave;
        self
    }

    /// Replaces the rank-interleave position (builder-style).
    #[must_use]
    pub fn with_rank_interleave(mut self, rank_interleave: RankInterleave) -> Self {
        self.rank_interleave = rank_interleave;
        self
    }

    /// Interleaved: `[bg, bank, rank, col, row]`; consolidated:
    /// `[bg, bank, col, row, rank]`.
    fn widths(&self) -> [u32; 5] {
        let bg = log2(self.org.bank_groups);
        let bank = log2(self.org.banks_per_group);
        let rank = log2(self.org.ranks);
        let col = log2(self.org.columns_per_row);
        let row = log2(self.org.rows_per_bank);
        match self.rank_interleave {
            RankInterleave::Interleaved => [bg, bank, rank, col, row],
            RankInterleave::Consolidated => [bg, bank, col, row, rank],
        }
    }
}

impl AddressMapping for BankStripedMapping {
    fn clone_box(&self) -> Box<dyn AddressMapping> {
        Box::new(self.clone())
    }

    fn decode(&self, physical_address: u64) -> DramAddress {
        let line = subsystem_line(&self.org, physical_address);
        let (channel, inner) = split_channel(line, &self.org, self.interleave);
        let f = extract_fields(inner, &self.widths());
        let (rank, column, row) = match self.rank_interleave {
            RankInterleave::Interleaved => (f[2], f[3], f[4]),
            RankInterleave::Consolidated => (f[4], f[2], f[3]),
        };
        DramAddress {
            channel,
            bank_group: f[0],
            bank: f[1],
            rank,
            column,
            row,
        }
    }

    fn decode_channel(&self, physical_address: u64) -> u32 {
        channel_of(&self.org, self.interleave, physical_address)
    }

    fn encode(&self, address: &DramAddress) -> u64 {
        let fields = match self.rank_interleave {
            RankInterleave::Interleaved => [
                address.bank_group,
                address.bank,
                address.rank,
                address.column,
                address.row,
            ],
            RankInterleave::Consolidated => [
                address.bank_group,
                address.bank,
                address.column,
                address.row,
                address.rank,
            ],
        };
        let inner = pack_fields(&fields, &self.widths());
        join_channel(address.channel, inner, &self.org, self.interleave)
            * u64::from(self.org.column_bytes)
    }

    fn organization(&self) -> &DramOrganization {
        &self.org
    }
}

/// Simple row:rank:bank-group:bank:column layout (highest bits select the
/// row). Used as a test baseline; exhibits poor bank parallelism.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct RowInterleavedMapping {
    org: DramOrganization,
    interleave: ChannelInterleave,
    rank_interleave: RankInterleave,
}

impl RowInterleavedMapping {
    /// Creates the mapping.
    ///
    /// # Panics
    ///
    /// Panics if the organisation is not power-of-two sized.
    #[must_use]
    pub fn new(org: DramOrganization) -> Self {
        assert!(org.is_valid(), "organisation must be power-of-two sized");
        Self {
            org,
            interleave: ChannelInterleave::default(),
            rank_interleave: RankInterleave::default(),
        }
    }

    /// Replaces the channel-interleave granularity (builder-style).
    #[must_use]
    pub fn with_interleave(mut self, interleave: ChannelInterleave) -> Self {
        self.interleave = interleave;
        self
    }

    /// Replaces the rank-interleave position (builder-style).
    #[must_use]
    pub fn with_rank_interleave(mut self, rank_interleave: RankInterleave) -> Self {
        self.rank_interleave = rank_interleave;
        self
    }

    /// Interleaved: `[col, bank, bg, rank, row]`; consolidated:
    /// `[col, bank, bg, row, rank]`.
    fn widths(&self) -> [u32; 5] {
        let col = log2(self.org.columns_per_row);
        let bank = log2(self.org.banks_per_group);
        let bg = log2(self.org.bank_groups);
        let rank = log2(self.org.ranks);
        let row = log2(self.org.rows_per_bank);
        match self.rank_interleave {
            RankInterleave::Interleaved => [col, bank, bg, rank, row],
            RankInterleave::Consolidated => [col, bank, bg, row, rank],
        }
    }
}

impl AddressMapping for RowInterleavedMapping {
    fn clone_box(&self) -> Box<dyn AddressMapping> {
        Box::new(self.clone())
    }

    fn decode(&self, physical_address: u64) -> DramAddress {
        let line = subsystem_line(&self.org, physical_address);
        let (channel, inner) = split_channel(line, &self.org, self.interleave);
        let f = extract_fields(inner, &self.widths());
        let (rank, row) = match self.rank_interleave {
            RankInterleave::Interleaved => (f[3], f[4]),
            RankInterleave::Consolidated => (f[4], f[3]),
        };
        DramAddress {
            channel,
            column: f[0],
            bank: f[1],
            bank_group: f[2],
            rank,
            row,
        }
    }

    fn decode_channel(&self, physical_address: u64) -> u32 {
        channel_of(&self.org, self.interleave, physical_address)
    }

    fn encode(&self, address: &DramAddress) -> u64 {
        let fields = match self.rank_interleave {
            RankInterleave::Interleaved => [
                address.column,
                address.bank,
                address.bank_group,
                address.rank,
                address.row,
            ],
            RankInterleave::Consolidated => [
                address.column,
                address.bank,
                address.bank_group,
                address.row,
                address.rank,
            ],
        };
        let inner = pack_fields(&fields, &self.widths());
        join_channel(address.channel, inner, &self.org, self.interleave)
            * u64::from(self.org.column_bytes)
    }

    fn organization(&self) -> &DramOrganization {
        &self.org
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn org() -> DramOrganization {
        DramOrganization::ddr5_32gb_quad_rank()
    }

    #[test]
    fn mop_keeps_short_runs_in_one_row() {
        let m = MopMapping::new(org());
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
        let m = BankStripedMapping::new(org());
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
        let m = BankStripedMapping::new(org());
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
        let m = MopMapping::new(org());
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
        for kind in [
            MappingKind::Mop,
            MappingKind::BankStriped,
            MappingKind::RowInterleaved,
        ] {
            let m = kind.instantiate(o);
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
    fn row_interleaved_keeps_whole_row_contiguous() {
        let m = RowInterleavedMapping::new(org());
        let base = 0u64;
        let first = m.decode(base);
        for i in 1..u64::from(org().columns_per_row) {
            let next = m.decode(base + i * 64);
            assert!(first.same_row(&next));
        }
    }

    #[test]
    #[should_panic(expected = "power-of-two")]
    fn invalid_organisation_is_rejected() {
        let mut o = DramOrganization::tiny_for_tests();
        o.columns_per_row = 3;
        let _ = MopMapping::new(o);
    }

    #[test]
    fn cache_line_interleave_rotates_consecutive_lines_across_channels() {
        let o = org().with_channels(4);
        for kind in [
            MappingKind::Mop,
            MappingKind::BankStriped,
            MappingKind::RowInterleaved,
        ] {
            let m = kind.instantiate_with(o, ChannelInterleave::CacheLine);
            let channels: Vec<u32> = (0..8u64).map(|i| m.decode(i * 64).channel).collect();
            assert_eq!(
                channels,
                vec![0, 1, 2, 3, 0, 1, 2, 3],
                "{kind:?} must rotate channels per cache line"
            );
        }
    }

    #[test]
    fn row_interleave_keeps_a_row_block_on_one_channel() {
        let o = org().with_channels(4);
        let row_bytes = o.row_bytes();
        for kind in [
            MappingKind::Mop,
            MappingKind::BankStriped,
            MappingKind::RowInterleaved,
        ] {
            let m = kind.instantiate_with(o, ChannelInterleave::Row);
            // Every cache line of the first row-sized block shares channel 0;
            // the next block moves to channel 1.
            for i in 0..(row_bytes / 64) {
                assert_eq!(m.decode(i * 64).channel, 0, "{kind:?} line {i}");
            }
            assert_eq!(m.decode(row_bytes).channel, 1, "{kind:?} next block");
        }
    }

    #[test]
    fn single_channel_decode_is_unchanged_by_the_channel_field() {
        // A 1-channel organisation must decode exactly as before the
        // multi-channel refactor regardless of the interleave knob.
        for interleave in [ChannelInterleave::CacheLine, ChannelInterleave::Row] {
            let m = MopMapping::new(org()).with_interleave(interleave);
            for pa in [0u64, 64, 4096, 1 << 20, (1 << 30) + 64 * 7] {
                let d = m.decode(pa);
                assert_eq!(d.channel, 0);
                assert_eq!(m.encode(&d), pa);
            }
        }
    }

    #[test]
    fn decode_channel_agrees_with_the_full_decode() {
        for channels in [1u32, 2, 4] {
            let o = org().with_channels(channels);
            for kind in [
                MappingKind::Mop,
                MappingKind::BankStriped,
                MappingKind::RowInterleaved,
            ] {
                for interleave in [ChannelInterleave::CacheLine, ChannelInterleave::Row] {
                    let m = kind.instantiate_with(o, interleave);
                    for pa in [0u64, 64, 8192, 1 << 21, (1 << 34) + 192] {
                        assert_eq!(
                            m.decode_channel(pa),
                            m.decode(pa).channel,
                            "{kind:?}/{interleave:?}/{channels}ch at {pa:#x}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn interleave_labels_round_trip() {
        for interleave in [ChannelInterleave::CacheLine, ChannelInterleave::Row] {
            assert_eq!(
                ChannelInterleave::parse(interleave.label()),
                Some(interleave)
            );
        }
        assert_eq!(ChannelInterleave::parse("diagonal"), None);
    }

    #[test]
    fn rank_interleave_labels_round_trip() {
        for interleave in [RankInterleave::Interleaved, RankInterleave::Consolidated] {
            assert_eq!(RankInterleave::parse(interleave.label()), Some(interleave));
        }
        assert_eq!(RankInterleave::parse("diagonal"), None);
        assert_eq!(RankInterleave::default(), RankInterleave::Interleaved);
    }

    #[test]
    fn consolidated_rank_bits_partition_the_address_space() {
        // With rank bits most-significant, each rank owns one contiguous
        // half of a 2-rank channel's address space.
        let o = org().with_ranks(2);
        let lines = o.capacity_bytes() / u64::from(o.column_bytes);
        for kind in [
            MappingKind::Mop,
            MappingKind::BankStriped,
            MappingKind::RowInterleaved,
        ] {
            let m = kind.instantiate_full(
                o,
                ChannelInterleave::CacheLine,
                RankInterleave::Consolidated,
            );
            for probe in [0, 64, lines / 4] {
                assert_eq!(m.decode(probe * 64).rank, 0, "{kind:?} low half");
                assert_eq!(
                    m.decode((lines / 2 + probe) * 64).rank,
                    1,
                    "{kind:?} high half"
                );
            }
        }
    }

    #[test]
    fn default_rank_interleave_matches_the_seed_layout() {
        // `instantiate_with` (no rank knob) and `instantiate_full` with the
        // default must decode identically — the bit-identity the goldens pin.
        let o = org();
        for kind in [
            MappingKind::Mop,
            MappingKind::BankStriped,
            MappingKind::RowInterleaved,
        ] {
            let seed = kind.instantiate_with(o, ChannelInterleave::CacheLine);
            let full =
                kind.instantiate_full(o, ChannelInterleave::CacheLine, RankInterleave::Interleaved);
            for pa in [0u64, 64, 4096, 1 << 20, (1 << 30) + 64 * 7] {
                assert_eq!(seed.decode(pa), full.decode(pa), "{kind:?} at {pa:#x}");
            }
        }
    }

    #[test]
    fn multi_channel_decode_stays_within_bounds() {
        let o = org().with_channels(2);
        for kind in [
            MappingKind::Mop,
            MappingKind::BankStriped,
            MappingKind::RowInterleaved,
        ] {
            let m = kind.instantiate(o);
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
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    fn org() -> DramOrganization {
        DramOrganization::ddr5_32gb_quad_rank()
    }

    proptest! {
        #[test]
        fn mop_bijective(line in 0u64..(1u64 << 31)) {
            let m = MopMapping::new(org());
            let pa = line * 64;
            let decoded = m.decode(pa);
            prop_assert_eq!(m.encode(&decoded), pa);
        }

        #[test]
        fn bank_striped_bijective(line in 0u64..(1u64 << 31)) {
            let m = BankStripedMapping::new(org());
            let pa = line * 64;
            let decoded = m.decode(pa);
            prop_assert_eq!(m.encode(&decoded), pa);
        }

        #[test]
        fn row_interleaved_bijective(line in 0u64..(1u64 << 31)) {
            let m = RowInterleavedMapping::new(org());
            let pa = line * 64;
            let decoded = m.decode(pa);
            prop_assert_eq!(m.encode(&decoded), pa);
        }

        /// Distinct physical lines decode to distinct DRAM coordinates.
        #[test]
        fn decode_is_injective(a in 0u64..(1u64 << 28), b in 0u64..(1u64 << 28)) {
            prop_assume!(a != b);
            let m = MopMapping::new(org());
            prop_assert_ne!(m.decode(a * 64), m.decode(b * 64));
        }

        /// Every mapping × interleave × channel count round-trips including
        /// the channel bits.
        #[test]
        fn multi_channel_bijective(
            line in 0u64..(1u64 << 31),
            channels in 1u32..4u32,
            kind_index in 0usize..3,
            row_interleave in 0u32..2,
        ) {
            let o = org().with_channels(1 << channels);
            let kind = [
                MappingKind::Mop,
                MappingKind::BankStriped,
                MappingKind::RowInterleaved,
            ][kind_index];
            let interleave = if row_interleave == 1 {
                ChannelInterleave::Row
            } else {
                ChannelInterleave::CacheLine
            };
            let m = kind.instantiate_with(o, interleave);
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
            let o = org().with_channels(4);
            let m = BankStripedMapping::new(o).with_interleave(ChannelInterleave::Row);
            prop_assert_ne!(m.decode(a * 64), m.decode(b * 64));
        }

        /// Ranks {1,2} × every mapping × both channel interleaves × both
        /// rank interleaves × channels {1,2,4}: decoded coordinates stay in
        /// bounds and encode/decode is the identity.
        #[test]
        fn rank_aware_bijective(
            line in 0u64..(1u64 << 31),
            channels_log2 in 0u32..3,
            ranks_log2 in 0u32..2,
            kind_index in 0usize..3,
            channel_interleave in 0u32..2,
            rank_interleave in 0u32..2,
        ) {
            let o = org()
                .with_channels(1 << channels_log2)
                .with_ranks(1 << ranks_log2);
            let kind = [
                MappingKind::Mop,
                MappingKind::BankStriped,
                MappingKind::RowInterleaved,
            ][kind_index];
            let ci = if channel_interleave == 1 {
                ChannelInterleave::Row
            } else {
                ChannelInterleave::CacheLine
            };
            let ri = if rank_interleave == 1 {
                RankInterleave::Consolidated
            } else {
                RankInterleave::Interleaved
            };
            let m = kind.instantiate_full(o, ci, ri);
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

        /// Rank bits really partition the line space under both rank
        /// interleaves: distinct lines stay distinct after decode.
        #[test]
        fn rank_aware_decode_is_injective(
            a in 0u64..(1u64 << 26),
            b in 0u64..(1u64 << 26),
            rank_interleave in 0u32..2,
        ) {
            prop_assume!(a != b);
            let o = org().with_ranks(2);
            let ri = if rank_interleave == 1 {
                RankInterleave::Consolidated
            } else {
                RankInterleave::Interleaved
            };
            let m = MappingKind::Mop.instantiate_full(o, ChannelInterleave::CacheLine, ri);
            prop_assert_ne!(m.decode(a * 64), m.decode(b * 64));
        }
    }
}
