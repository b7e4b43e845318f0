//! Parameterised synthetic workload generator.
//!
//! A [`SyntheticWorkload`] is defined by its memory intensity (memory
//! operations per kilo-instruction), its access pattern and footprint, and
//! its store fraction.  Calling [`SyntheticWorkload::generate`] turns it into
//! a [`Trace`] consumable by the core model.

use cpu_sim::trace::{Trace, TraceOp};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

use crate::attack::{cycle_slot, strided_slots};

/// Cache-line size every generated address is aligned to.
const LINE_BYTES: u64 = 64;

/// High-level access-pattern selector for a workload.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum AccessPattern {
    /// Sequential streaming over a large footprint (row-buffer friendly but
    /// cache-hostile).
    Streaming,
    /// Uniformly random accesses over a large footprint (row-buffer hostile
    /// and cache hostile).
    RandomLarge,
    /// Accesses confined to a small hot set that fits in the caches.
    CacheResident,
    /// Strided accesses that skip across DRAM rows.
    RowStrided,
}

impl AccessPattern {
    /// Every pattern, in declaration order.
    pub const ALL: [AccessPattern; 4] = [
        AccessPattern::Streaming,
        AccessPattern::RandomLarge,
        AccessPattern::CacheResident,
        AccessPattern::RowStrided,
    ];

    /// The pattern's stable name: its spelling in scenario JSON and so in
    /// every cache key.
    #[must_use]
    pub fn slug(self) -> &'static str {
        match self {
            AccessPattern::Streaming => "streaming",
            AccessPattern::RandomLarge => "randomlarge",
            AccessPattern::CacheResident => "cacheresident",
            AccessPattern::RowStrided => "rowstrided",
        }
    }

    /// Parses a [`AccessPattern::slug`] back to its pattern.
    #[must_use]
    pub fn from_slug(slug: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|pattern| pattern.slug() == slug)
    }
}

/// A parameterised synthetic workload.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SyntheticWorkload {
    /// Workload name (used for reporting).
    pub name: String,
    /// Memory operations per 1000 instructions.
    pub mem_ops_per_kilo_instr: u32,
    /// Fraction of memory operations that are stores, in `[0, 1]`.
    pub store_fraction: f64,
    /// Access pattern.
    pub pattern: AccessPattern,
    /// Footprint in bytes for the large-footprint patterns.
    pub footprint_bytes: u64,
    /// Base physical address of the workload's region (keeps workloads on
    /// different cores in disjoint regions).
    pub base_address: u64,
}

impl SyntheticWorkload {
    /// Creates a workload with the given name and intensity, using defaults
    /// for the remaining fields (random pattern over 64 MB).
    #[must_use]
    pub fn new(
        name: impl Into<String>,
        mem_ops_per_kilo_instr: u32,
        pattern: AccessPattern,
    ) -> Self {
        Self {
            name: name.into(),
            mem_ops_per_kilo_instr,
            store_fraction: 0.25,
            pattern,
            footprint_bytes: 64 << 20,
            base_address: 0x1_0000_0000,
        }
    }

    /// Sets the base address of the workload's memory region.
    #[must_use]
    pub fn with_base_address(mut self, base: u64) -> Self {
        self.base_address = base;
        self
    }

    /// Sets the footprint.
    #[must_use]
    pub fn with_footprint(mut self, bytes: u64) -> Self {
        self.footprint_bytes = bytes;
        self
    }

    /// Sets the store fraction.
    #[must_use]
    pub fn with_store_fraction(mut self, fraction: f64) -> Self {
        self.store_fraction = fraction.clamp(0.0, 1.0);
        self
    }

    /// The `(stride, slots)` the pattern's addresses step over: every
    /// address is `base_address + slot * stride`, slot in `0..slots`.
    fn slot_layout(&self) -> (u64, u64) {
        match self.pattern {
            AccessPattern::Streaming | AccessPattern::RandomLarge => {
                (LINE_BYTES, strided_slots(self.footprint_bytes, LINE_BYTES))
            }
            // 64 hot lines (4 KB): comfortably inside even the L1D.
            AccessPattern::CacheResident => (LINE_BYTES, 64),
            // 8 KB stride: every access lands in a different DRAM row under
            // row-interleaved layouts.
            AccessPattern::RowStrided => {
                let stride = 8 * 1024;
                (stride, strided_slots(self.footprint_bytes, stride))
            }
        }
    }

    /// Generates a trace containing approximately `instructions` retired
    /// instructions.
    ///
    /// `Streaming`, `CacheResident` and `RowStrided` cycle through their
    /// slots in order, wrapping at the footprint; `RandomLarge` draws each
    /// slot uniformly from its own `seed`-seeded RNG.  Each memory operation
    /// draws its address before its load/store coin, which comes from a
    /// second RNG seeded with `seed ^ 0x9E37_79B9_7F4A_7C15`.  Addresses are
    /// line-aligned even when `base_address` is not.
    #[must_use]
    pub fn generate(&self, instructions: u64, seed: u64) -> Trace {
        let mut ops = Vec::new();
        let mut rng = StdRng::seed_from_u64(seed ^ 0x9E37_79B9_7F4A_7C15);
        let (stride, slots) = self.slot_layout();
        let mut random_slots =
            (self.pattern == AccessPattern::RandomLarge).then(|| StdRng::seed_from_u64(seed));
        let mut position: u64 = 0;
        let mem_per_kilo = u64::from(self.mem_ops_per_kilo_instr.max(1));
        // Compute-instruction gap between consecutive memory operations.
        let gap = (1000 / mem_per_kilo).max(1) as u32;
        let mut emitted: u64 = 0;
        while emitted < instructions {
            if gap > 1 {
                ops.push(TraceOp::Compute(gap - 1));
                emitted += u64::from(gap - 1);
            }
            let slot = match random_slots.as_mut() {
                Some(random) => random.gen_range(0..slots),
                None => cycle_slot(position, slots),
            };
            position += 1;
            let addr = (self.base_address + slot * stride) & !(LINE_BYTES - 1);
            if rng.gen_bool(self.store_fraction) {
                ops.push(TraceOp::Store(addr));
            } else {
                ops.push(TraceOp::Load(addr));
            }
            emitted += 1;
        }
        Trace::new(self.name.clone(), ops)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The first `n` addresses of `w`'s trace: at 1000 memory operations per
    /// kilo-instruction there is no compute gap, so every op is an access.
    fn addresses(w: &SyntheticWorkload, n: u64, seed: u64) -> Vec<u64> {
        let w = SyntheticWorkload {
            mem_ops_per_kilo_instr: 1000,
            ..w.clone()
        };
        let trace = w.generate(n, seed);
        let addrs: Vec<u64> = trace.ops().iter().filter_map(TraceOp::address).collect();
        assert_eq!(addrs.len() as u64, n);
        addrs
    }

    #[test]
    fn streaming_wraps_at_footprint() {
        let w = SyntheticWorkload::new("stream", 1, AccessPattern::Streaming)
            .with_base_address(0x1000)
            .with_footprint(256);
        assert_eq!(
            addresses(&w, 6, 0),
            vec![0x1000, 0x1040, 0x1080, 0x10C0, 0x1000, 0x1040]
        );
    }

    #[test]
    fn strided_steps_by_its_stride() {
        let w = SyntheticWorkload::new("strided", 1, AccessPattern::RowStrided)
            .with_base_address(0)
            .with_footprint(32 << 10);
        assert_eq!(addresses(&w, 5, 0), vec![0, 8192, 16384, 24576, 0]);
    }

    #[test]
    fn cache_resident_cycles_over_64_lines() {
        let w = SyntheticWorkload::new("hot", 1, AccessPattern::CacheResident)
            .with_base_address(0x4000);
        let addrs = addresses(&w, 130, 0);
        for (i, addr) in addrs.iter().enumerate() {
            assert_eq!(*addr, 0x4000 + (i as u64 % 64) * 64);
        }
    }

    #[test]
    fn random_is_seeded_in_bounds_and_line_aligned() {
        let w = SyntheticWorkload::new("random", 1, AccessPattern::RandomLarge)
            .with_base_address(0x8000)
            .with_footprint(1 << 20);
        let a = addresses(&w, 100, 7);
        assert_eq!(a, addresses(&w, 100, 7), "same seed, same stream");
        assert_ne!(a, addresses(&w, 100, 8), "another seed, another stream");
        for addr in a {
            assert!((0x8000..0x8000 + (1 << 20)).contains(&addr));
            assert_eq!(addr % 64, 0);
        }
    }

    #[test]
    fn misaligned_base_comes_out_aligned() {
        for pattern in AccessPattern::ALL {
            let w = SyntheticWorkload::new("misaligned", 1, pattern)
                .with_base_address(0x1001)
                .with_footprint(1 << 20);
            for addr in addresses(&w, 200, 3) {
                assert_eq!(addr % 64, 0, "{pattern:?}: {addr:#x}");
            }
        }
    }

    #[test]
    fn slugs_parse_back() {
        for pattern in AccessPattern::ALL {
            assert_eq!(AccessPattern::from_slug(pattern.slug()), Some(pattern));
        }
        assert_eq!(AccessPattern::from_slug("Streaming"), None);
    }

    #[test]
    fn generated_trace_has_requested_intensity() {
        let w = SyntheticWorkload::new("hot", 100, AccessPattern::RandomLarge);
        let trace = w.generate(10_000, 1);
        let instr = trace.instructions_per_pass();
        let mem = trace.memory_ops_per_pass();
        let mpki = mem as f64 * 1000.0 / instr as f64;
        assert!(
            (80.0..120.0).contains(&mpki),
            "memory ops per kilo-instr = {mpki}"
        );
    }

    #[test]
    fn low_intensity_workloads_have_sparse_memory_ops() {
        let w = SyntheticWorkload::new("cold", 1, AccessPattern::CacheResident);
        let trace = w.generate(50_000, 2);
        let mpki =
            trace.memory_ops_per_pass() as f64 * 1000.0 / trace.instructions_per_pass() as f64;
        assert!(mpki <= 1.5, "memory ops per kilo-instr = {mpki}");
    }

    #[test]
    fn store_fraction_is_respected_approximately() {
        let w = SyntheticWorkload::new("stores", 200, AccessPattern::Streaming)
            .with_store_fraction(0.5);
        let trace = w.generate(20_000, 3);
        let stores = trace
            .ops()
            .iter()
            .filter(|op| matches!(op, TraceOp::Store(_)))
            .count() as f64;
        let mems = trace.memory_ops_per_pass() as f64;
        let frac = stores / mems;
        assert!((0.4..0.6).contains(&frac), "store fraction = {frac}");
    }

    #[test]
    fn generation_is_deterministic_per_seed() {
        let w = SyntheticWorkload::new("det", 50, AccessPattern::RandomLarge);
        assert_eq!(w.generate(5_000, 9), w.generate(5_000, 9));
        assert_ne!(w.generate(5_000, 9), w.generate(5_000, 10));
    }

    #[test]
    fn cache_resident_pattern_touches_few_lines() {
        let w = SyntheticWorkload::new("resident", 100, AccessPattern::CacheResident)
            .with_store_fraction(0.0);
        let trace = w.generate(20_000, 4);
        let mut lines = std::collections::HashSet::new();
        for op in trace.ops() {
            if let Some(addr) = op.address() {
                lines.insert(addr / 64);
            }
        }
        assert!(lines.len() <= 64);
    }

    #[test]
    fn footprint_and_base_are_respected() {
        let w = SyntheticWorkload::new("bounded", 100, AccessPattern::Streaming)
            .with_base_address(0x2_0000_0000)
            .with_footprint(1 << 20);
        let trace = w.generate(10_000, 5);
        for op in trace.ops() {
            if let Some(addr) = op.address() {
                assert!(addr >= 0x2_0000_0000);
                assert!(addr < 0x2_0000_0000 + (1 << 20));
            }
        }
    }
}
