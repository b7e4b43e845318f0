//! Set-associative caches with write-back/write-allocate behaviour.
//!
//! The replacement policies provided are LRU and SRRIP (the paper's LLC
//! policy).  The caches are functional/tag-only: they decide hit vs miss and
//! which dirty victim to write back; data values are never modelled.
//!
//! A [`Cache`] keeps its tags, replacement metadata and dirty bits in three
//! flat set-major arrays, and finds an address's set and tag with a shift
//! and a mask; an empty way stores the tag 0, because ways store the line
//! number plus one (see [`Cache`]).

use serde::{Deserialize, Serialize};

/// Replacement policy of a cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ReplacementPolicy {
    /// Least-recently-used.
    Lru,
    /// Static Re-Reference Interval Prediction (2-bit RRPV).
    Srrip,
}

/// Geometry and behaviour of one cache level.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct CacheConfig {
    /// Total capacity in bytes.
    pub size_bytes: u64,
    /// Associativity.
    pub ways: u32,
    /// Cache-line size in bytes.
    pub line_bytes: u32,
    /// Hit latency in cycles.
    pub hit_latency: u32,
    /// Replacement policy.
    pub replacement: ReplacementPolicy,
}

impl CacheConfig {
    /// Number of sets implied by the geometry.
    #[must_use]
    pub fn sets(&self) -> u64 {
        self.size_bytes / (u64::from(self.ways) * u64::from(self.line_bytes))
    }
}

/// Result of a cache access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessOutcome {
    /// The line was present.
    Hit,
    /// The line was absent and has been filled; if a dirty victim was evicted
    /// its line address is reported so the caller can write it back.
    Miss {
        /// Dirty victim line address (already aligned), if any.
        writeback: Option<u64>,
    },
}

impl AccessOutcome {
    /// `true` for hits.
    #[must_use]
    pub fn is_hit(&self) -> bool {
        matches!(self, AccessOutcome::Hit)
    }
}

/// Stored tag of an empty way.  Ways hold the line number plus one, so no
/// real line maps to it.
const EMPTY: u64 = 0;

/// One cache level.
///
/// The state is three flat, set-major arrays of `sets × ways` entries; way
/// `w` of set `s` lives at index `s * ways + w`.  `tags` holds the line
/// number (address shifted right by the line size) plus one, with 0 marking
/// an empty way, so the arrays start as zeroed allocations and a way search
/// reads `tags` alone.  `meta` holds the LRU stamp or the RRPV, depending on
/// the policy (never read for an empty way), and `dirty` the dirty bit (an
/// empty way is never dirty).  The set of an address is its line number
/// masked by `sets - 1`, with shift and mask fixed in [`Cache::new`].
#[derive(Debug, Clone)]
pub struct Cache {
    config: CacheConfig,
    line_shift: u32,
    set_mask: u64,
    tags: Box<[u64]>,
    meta: Box<[u32]>,
    dirty: Box<[bool]>,
    lru_clock: u32,
    hits: u64,
    misses: u64,
}

const SRRIP_MAX: u32 = 3;
const SRRIP_INSERT: u32 = 2;

impl Cache {
    /// Creates an empty cache.
    ///
    /// # Panics
    ///
    /// Panics when the geometry does not describe at least one set, when the
    /// line size / set count are not powers of two, or when lines are a
    /// single byte (the stored tag, line number plus one, must not wrap).
    #[must_use]
    pub fn new(config: CacheConfig) -> Self {
        let sets = config.sets();
        assert!(sets >= 1, "cache must have at least one set");
        assert!(
            config.line_bytes.is_power_of_two(),
            "line size must be a power of two"
        );
        assert!(config.line_bytes >= 2, "line size must be at least 2 bytes");
        assert!(sets.is_power_of_two(), "set count must be a power of two");
        let slots = (sets * u64::from(config.ways)) as usize;
        Self {
            config,
            line_shift: config.line_bytes.trailing_zeros(),
            set_mask: sets - 1,
            tags: vec![EMPTY; slots].into_boxed_slice(),
            meta: vec![0; slots].into_boxed_slice(),
            dirty: vec![false; slots].into_boxed_slice(),
            lru_clock: 0,
            hits: 0,
            misses: 0,
        }
    }

    /// The cache configuration.
    #[must_use]
    pub fn config(&self) -> &CacheConfig {
        &self.config
    }

    /// Hit count since construction.
    #[must_use]
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Miss count since construction.
    #[must_use]
    pub fn misses(&self) -> u64 {
        self.misses
    }

    fn ways(&self) -> usize {
        self.config.ways as usize
    }

    /// The first slot of `address`'s set and its stored tag.
    fn locate(&self, address: u64) -> (usize, u64) {
        let line = address >> self.line_shift;
        ((line & self.set_mask) as usize * self.ways(), line + 1)
    }

    /// The slot holding `tag` in the set starting at `base`, if any.
    fn find(&self, base: usize, tag: u64) -> Option<usize> {
        self.tags[base..base + self.ways()]
            .iter()
            .position(|&t| t == tag)
            .map(|way| base + way)
    }

    /// Line-aligned address of a stored tag.
    fn line_address(&self, tag: u64) -> u64 {
        (tag - 1) << self.line_shift
    }

    /// Looks up `address` without changing any state.
    #[must_use]
    pub fn probe(&self, address: u64) -> bool {
        let (base, tag) = self.locate(address);
        self.find(base, tag).is_some()
    }

    /// Accesses `address`; on a miss the line is filled (write-allocate) and
    /// the evicted dirty victim, if any, is returned for write-back.
    pub fn access(&mut self, address: u64, is_write: bool) -> AccessOutcome {
        self.lru_clock = self.lru_clock.wrapping_add(1);
        let (base, tag) = self.locate(address);
        if let Some(slot) = self.find(base, tag) {
            self.dirty[slot] |= is_write;
            self.meta[slot] = match self.config.replacement {
                ReplacementPolicy::Lru => self.lru_clock,
                ReplacementPolicy::Srrip => 0,
            };
            self.hits += 1;
            return AccessOutcome::Hit;
        }
        self.misses += 1;
        AccessOutcome::Miss {
            writeback: self.insert(base, tag, is_write),
        }
    }

    /// Stores `tag` over the victim way of the set starting at `base` and
    /// returns the victim's line address when it was dirty.
    fn insert(&mut self, base: usize, tag: u64, dirty: bool) -> Option<u64> {
        let slot = base + self.pick_victim(base);
        let writeback = self.dirty[slot].then(|| self.line_address(self.tags[slot]));
        self.tags[slot] = tag;
        self.dirty[slot] = dirty;
        self.meta[slot] = match self.config.replacement {
            ReplacementPolicy::Lru => self.lru_clock,
            ReplacementPolicy::Srrip => SRRIP_INSERT,
        };
        writeback
    }

    /// The victim way of the set starting at `base`: the first empty way,
    /// else the first least-recent (LRU) or first most-distant (SRRIP) line.
    fn pick_victim(&mut self, base: usize) -> usize {
        let set = base..base + self.ways();
        if let Some(way) = self.tags[set.clone()].iter().position(|&t| t == EMPTY) {
            return way;
        }
        let meta = &mut self.meta[set];
        match self.config.replacement {
            ReplacementPolicy::Lru => meta
                .iter()
                .enumerate()
                .min_by_key(|&(_, &stamp)| stamp)
                .map_or(0, |(way, _)| way),
            ReplacementPolicy::Srrip => {
                // Age every RRPV until one line reaches the maximum, in one
                // step: the first line holding the set's highest RRPV gets
                // there first, and no RRPV passes the maximum on the way.
                let highest = meta.iter().copied().max().unwrap_or(SRRIP_MAX);
                let way = meta.iter().position(|&rrpv| rrpv == highest).unwrap_or(0);
                let age = SRRIP_MAX.saturating_sub(highest);
                for rrpv in meta.iter_mut() {
                    *rrpv += age;
                }
                way
            }
        }
    }

    /// Invalidates the line containing `address` (clflush).  Returns the
    /// dirty line address if a write-back is required.
    pub fn invalidate(&mut self, address: u64) -> Option<u64> {
        let (base, tag) = self.locate(address);
        let slot = self.find(base, tag)?;
        self.tags[slot] = EMPTY;
        std::mem::take(&mut self.dirty[slot]).then(|| self.line_address(tag))
    }

    /// Fills `address` without counting a demand access (prefetch fill).
    /// Returns the dirty victim, if any.
    pub fn fill(&mut self, address: u64) -> Option<u64> {
        let (base, tag) = self.locate(address);
        if self.find(base, tag).is_some() {
            return None;
        }
        self.insert(base, tag, false)
    }
}

/// The cache as it was before the flat layout: one `Vec` of lines per set,
/// divisions to find set and tag.  Kept verbatim as the oracle that
/// `proptests::flat_cache_matches_reference_*` race [`Cache`] against.
#[cfg(test)]
mod reference {
    use super::{AccessOutcome, CacheConfig, ReplacementPolicy};

    #[derive(Debug, Clone, Copy, Default)]
    struct Line {
        tag: u64,
        valid: bool,
        dirty: bool,
        /// LRU stamp or RRPV value depending on the policy.
        meta: u32,
    }

    /// One cache level.
    #[derive(Debug, Clone)]
    pub struct Cache {
        config: CacheConfig,
        sets: Vec<Vec<Line>>,
        lru_clock: u32,
        hits: u64,
        misses: u64,
    }

    const SRRIP_MAX: u32 = 3;
    const SRRIP_INSERT: u32 = 2;

    impl Cache {
        /// Creates an empty cache.
        ///
        /// # Panics
        ///
        /// Panics when the geometry does not describe at least one set, or when
        /// the line size / set count are not powers of two.
        #[must_use]
        pub fn new(config: CacheConfig) -> Self {
            let sets = config.sets();
            assert!(sets >= 1, "cache must have at least one set");
            assert!(
                config.line_bytes.is_power_of_two(),
                "line size must be a power of two"
            );
            assert!(sets.is_power_of_two(), "set count must be a power of two");
            Self {
                config,
                sets: vec![vec![Line::default(); config.ways as usize]; sets as usize],
                lru_clock: 0,
                hits: 0,
                misses: 0,
            }
        }

        /// The cache configuration.
        #[must_use]
        pub fn config(&self) -> &CacheConfig {
            &self.config
        }

        /// Hit count since construction.
        #[must_use]
        pub fn hits(&self) -> u64 {
            self.hits
        }

        /// Miss count since construction.
        #[must_use]
        pub fn misses(&self) -> u64 {
            self.misses
        }

        fn set_and_tag(&self, address: u64) -> (usize, u64) {
            let line = address / u64::from(self.config.line_bytes);
            let set = (line % self.config.sets()) as usize;
            let tag = line / self.config.sets();
            (set, tag)
        }

        /// Line-aligned address reconstructed from a set index and tag.
        fn line_address(&self, set: usize, tag: u64) -> u64 {
            (tag * self.config.sets() + set as u64) * u64::from(self.config.line_bytes)
        }

        /// Looks up `address` without changing any state.
        #[must_use]
        pub fn probe(&self, address: u64) -> bool {
            let (set, tag) = self.set_and_tag(address);
            self.sets[set].iter().any(|l| l.valid && l.tag == tag)
        }

        /// Accesses `address`; on a miss the line is filled (write-allocate) and
        /// the evicted dirty victim, if any, is returned for write-back.
        pub fn access(&mut self, address: u64, is_write: bool) -> AccessOutcome {
            self.lru_clock = self.lru_clock.wrapping_add(1);
            let (set, tag) = self.set_and_tag(address);
            let policy = self.config.replacement;
            let lru_clock = self.lru_clock;
            let set_lines = &mut self.sets[set];

            if let Some(line) = set_lines.iter_mut().find(|l| l.valid && l.tag == tag) {
                line.dirty |= is_write;
                match policy {
                    ReplacementPolicy::Lru => line.meta = lru_clock,
                    ReplacementPolicy::Srrip => line.meta = 0,
                }
                self.hits += 1;
                return AccessOutcome::Hit;
            }

            self.misses += 1;
            let victim_index = Self::pick_victim(set_lines, policy);
            let victim = set_lines[victim_index];
            let writeback = if victim.valid && victim.dirty {
                Some(self.line_address(set, victim.tag))
            } else {
                None
            };
            let insert_meta = match policy {
                ReplacementPolicy::Lru => lru_clock,
                ReplacementPolicy::Srrip => SRRIP_INSERT,
            };
            self.sets[set][victim_index] = Line {
                tag,
                valid: true,
                dirty: is_write,
                meta: insert_meta,
            };
            AccessOutcome::Miss { writeback }
        }

        fn pick_victim(lines: &mut [Line], policy: ReplacementPolicy) -> usize {
            if let Some(idx) = lines.iter().position(|l| !l.valid) {
                return idx;
            }
            match policy {
                ReplacementPolicy::Lru => lines
                    .iter()
                    .enumerate()
                    .min_by_key(|(_, l)| l.meta)
                    .map(|(i, _)| i)
                    .unwrap_or(0),
                ReplacementPolicy::Srrip => {
                    // Age RRPVs until one line reaches the maximum, then evict it.
                    loop {
                        if let Some(idx) = lines.iter().position(|l| l.meta >= SRRIP_MAX) {
                            return idx;
                        }
                        for l in lines.iter_mut() {
                            l.meta = (l.meta + 1).min(SRRIP_MAX);
                        }
                    }
                }
            }
        }

        /// Invalidates the line containing `address` (clflush).  Returns the
        /// dirty line address if a write-back is required.
        pub fn invalidate(&mut self, address: u64) -> Option<u64> {
            let (set, tag) = self.set_and_tag(address);
            let line_addr = self.line_address(set, tag);
            for line in &mut self.sets[set] {
                if line.valid && line.tag == tag {
                    let was_dirty = line.dirty;
                    *line = Line::default();
                    return was_dirty.then_some(line_addr);
                }
            }
            None
        }

        /// Fills `address` without counting a demand access (prefetch fill).
        /// Returns the dirty victim, if any.
        pub fn fill(&mut self, address: u64) -> Option<u64> {
            let (set, tag) = self.set_and_tag(address);
            if self.sets[set].iter().any(|l| l.valid && l.tag == tag) {
                return None;
            }
            let policy = self.config.replacement;
            let lru_clock = self.lru_clock;
            let victim_index = Self::pick_victim(&mut self.sets[set], policy);
            let victim = self.sets[set][victim_index];
            let writeback = if victim.valid && victim.dirty {
                Some(self.line_address(set, victim.tag))
            } else {
                None
            };
            self.sets[set][victim_index] = Line {
                tag,
                valid: true,
                dirty: false,
                meta: match policy {
                    ReplacementPolicy::Lru => lru_clock,
                    ReplacementPolicy::Srrip => SRRIP_INSERT,
                },
            };
            writeback
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_cache(policy: ReplacementPolicy) -> Cache {
        Cache::new(CacheConfig {
            size_bytes: 1024, // 4 sets x 4 ways x 64 B
            ways: 4,
            line_bytes: 64,
            hit_latency: 2,
            replacement: policy,
        })
    }

    #[test]
    fn geometry_is_derived_correctly() {
        let c = small_cache(ReplacementPolicy::Lru);
        assert_eq!(c.config().sets(), 4);
    }

    #[test]
    fn first_access_misses_then_hits() {
        let mut c = small_cache(ReplacementPolicy::Lru);
        assert!(!c.access(0x1000, false).is_hit());
        assert!(c.access(0x1000, false).is_hit());
        assert!(
            c.access(0x1004, false).is_hit(),
            "same line, different offset"
        );
        assert_eq!(c.hits(), 2);
        assert_eq!(c.misses(), 1);
    }

    #[test]
    fn lru_evicts_least_recent() {
        let mut c = small_cache(ReplacementPolicy::Lru);
        // Four distinct tags in set 0 (addresses differ by sets*line = 256).
        for i in 0..4u64 {
            c.access(i * 256, false);
        }
        // Touch the first line so the second becomes LRU.
        c.access(0, false);
        // A fifth line evicts address 256.
        c.access(4 * 256, false);
        assert!(c.probe(0));
        assert!(!c.probe(256));
    }

    #[test]
    fn dirty_victims_are_reported_for_writeback() {
        let mut c = small_cache(ReplacementPolicy::Lru);
        c.access(0, true); // dirty
        for i in 1..4u64 {
            c.access(i * 256, false);
        }
        let outcome = c.access(4 * 256, false);
        match outcome {
            AccessOutcome::Miss {
                writeback: Some(addr),
            } => assert_eq!(addr, 0),
            other => panic!("expected a write-back of line 0, got {other:?}"),
        }
    }

    #[test]
    fn invalidate_removes_line_and_reports_dirtiness() {
        let mut c = small_cache(ReplacementPolicy::Lru);
        c.access(0x1000, true);
        assert_eq!(c.invalidate(0x1000), Some(0x1000));
        assert!(!c.probe(0x1000));
        // Invalidate of a clean or absent line returns None.
        c.access(0x2000, false);
        assert_eq!(c.invalidate(0x2000), None);
        assert_eq!(c.invalidate(0x3000), None);
    }

    #[test]
    fn srrip_eventually_evicts_and_keeps_reused_lines() {
        let mut c = small_cache(ReplacementPolicy::Srrip);
        for i in 0..4u64 {
            c.access(i * 256, false);
        }
        // Re-reference line 0 so its RRPV drops to 0.
        c.access(0, false);
        c.access(4 * 256, false);
        assert!(c.probe(0), "recently re-referenced line must survive");
        assert_eq!(c.misses(), 5);
    }

    #[test]
    fn fill_does_not_count_as_demand_access() {
        let mut c = small_cache(ReplacementPolicy::Lru);
        c.fill(0x4000);
        assert_eq!(c.misses(), 0);
        assert!(c.probe(0x4000));
        assert!(c.access(0x4000, false).is_hit());
    }

    /// A missed `access` has already inserted the line, so a `fill` of the
    /// same address right after it is a no-op: it returns no victim and
    /// leaves every later outcome as it would have been.  The core model
    /// relies on this and never fills after a demand miss.
    #[test]
    fn missed_access_leaves_nothing_for_fill() {
        for policy in [ReplacementPolicy::Lru, ReplacementPolicy::Srrip] {
            let mut c = small_cache(policy);
            for i in 0..4u64 {
                c.access(i * 256, i % 2 == 0);
            }
            assert!(!c.access(4 * 256, true).is_hit());
            let mut filled = c.clone();
            assert_eq!(filled.fill(4 * 256), None);
            for i in 0..40u64 {
                let addr = (i * 7 % 9) * 256 + (i % 3) * 64;
                match i % 4 {
                    0 => assert_eq!(filled.fill(addr), c.fill(addr)),
                    1 => assert_eq!(filled.invalidate(addr), c.invalidate(addr)),
                    _ => assert_eq!(filled.access(addr, i % 3 == 0), c.access(addr, i % 3 == 0)),
                }
                assert_eq!(filled.probe(addr), c.probe(addr));
            }
            assert_eq!((filled.hits(), filled.misses()), (c.hits(), c.misses()));
        }
    }

    #[test]
    #[should_panic(expected = "at least one set")]
    fn zero_set_geometry_is_rejected() {
        let _ = Cache::new(CacheConfig {
            size_bytes: 64,
            ways: 4,
            line_bytes: 64,
            hit_latency: 1,
            replacement: ReplacementPolicy::Lru,
        });
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use crate::config::CpuConfig;
    use proptest::collection;
    use proptest::prelude::*;
    use std::ops::Range;

    /// One operation: kind, tag index, set index, address region, offset.
    type Op = (u8, u64, u64, u8, u64);
    type OpStrategy = (Range<u8>, Range<u64>, Range<u64>, Range<u8>, Range<u64>);

    fn ops() -> collection::VecStrategy<OpStrategy> {
        collection::vec((0u8..8, 0u64..24, 0u64..4, 0u8..3, 0u64..64), 1..1500)
    }

    fn tiny(replacement: ReplacementPolicy) -> CacheConfig {
        CacheConfig {
            size_bytes: 1024,
            ways: 4,
            line_bytes: 64,
            hit_latency: 1,
            replacement,
        }
    }

    /// Drives the flat cache and the reference model with `ops`.  Addresses
    /// fall into four sets and 24 tags per set, so every set fills and
    /// evicts, counted up from 0 or down from `u64::MAX`.
    fn race_reference(config: CacheConfig, ops: &[Op]) {
        let mut flat = Cache::new(config);
        let mut oracle = reference::Cache::new(config);
        let (sets, line) = (oracle.config().sets(), u64::from(config.line_bytes));
        for (step, &(kind, tag, set, region, offset)) in ops.iter().enumerate() {
            let span = (tag * sets + set % sets) * line + offset % line;
            let address = if region == 0 { u64::MAX - span } else { span };
            match kind {
                0..=3 => {
                    let is_write = kind == 3;
                    let got = flat.access(address, is_write);
                    let want = oracle.access(address, is_write);
                    assert_eq!(got, want, "step {step}: access {address:#x}");
                }
                4 => assert_eq!(
                    flat.fill(address),
                    oracle.fill(address),
                    "step {step}: fill"
                ),
                5 => assert_eq!(
                    flat.invalidate(address),
                    oracle.invalidate(address),
                    "step {step}: invalidate"
                ),
                _ => {}
            }
            assert_eq!(
                flat.probe(address),
                oracle.probe(address),
                "step {step}: probe"
            );
            assert_eq!(
                (flat.hits(), flat.misses()),
                (oracle.hits(), oracle.misses()),
                "step {step}: counts"
            );
        }
    }

    proptest! {
        /// After accessing an address it is always present until evicted by
        /// at least `ways` distinct conflicting lines.
        #[test]
        fn recently_accessed_lines_are_present(addresses in proptest::collection::vec(0u64..(1 << 20), 1..200)) {
            let mut c = Cache::new(CacheConfig {
                size_bytes: 8 * 1024,
                ways: 8,
                line_bytes: 64,
                hit_latency: 1,
                replacement: ReplacementPolicy::Lru,
            });
            for addr in addresses {
                c.access(addr, false);
                prop_assert!(c.probe(addr));
            }
        }

        /// The flat cache and the reference model give the same outcome,
        /// write-back, probe answer and hit/miss counts after every
        /// operation, on the tiny 4-set x 4-way LRU cache.
        #[test]
        fn flat_cache_matches_reference_tiny_lru(ops in ops()) {
            race_reference(tiny(ReplacementPolicy::Lru), &ops);
        }

        /// As above, on the paper L1D: 64 sets x 12 ways (not a power of
        /// two), LRU.
        #[test]
        fn flat_cache_matches_reference_paper_l1d(ops in ops()) {
            race_reference(CpuConfig::paper_default().l1d, &ops);
        }

        /// As above, on the tiny cache under SRRIP.
        #[test]
        fn flat_cache_matches_reference_tiny_srrip(ops in ops()) {
            race_reference(tiny(ReplacementPolicy::Srrip), &ops);
        }

        /// As above, on a 16-way SRRIP cache with the paper LLC's ways.
        #[test]
        fn flat_cache_matches_reference_16way_srrip(ops in ops()) {
            race_reference(
                CacheConfig {
                    size_bytes: 8 * 16 * 64,
                    ways: 16,
                    line_bytes: 64,
                    hit_latency: 1,
                    replacement: ReplacementPolicy::Srrip,
                },
                &ops,
            );
        }

        /// Hit + miss counts equal total accesses.
        #[test]
        fn hit_miss_accounting(addresses in proptest::collection::vec(0u64..(1 << 16), 1..300)) {
            let mut c = Cache::new(CacheConfig {
                size_bytes: 4 * 1024,
                ways: 4,
                line_bytes: 64,
                hit_latency: 1,
                replacement: ReplacementPolicy::Srrip,
            });
            let n = addresses.len() as u64;
            for addr in addresses {
                c.access(addr, false);
            }
            prop_assert_eq!(c.hits() + c.misses(), n);
        }
    }
}
