//! Low-level address-pattern iterators used by the workload generators.
//!
//! All patterns produce cache-line-aligned physical addresses inside a
//! contiguous region `[base, base + footprint)`.  The slot-cycling
//! arithmetic is shared with the adversarial patterns and owned by
//! [`crate::attack`] ([`attack::cycle_slot`] / [`attack::strided_slots`]);
//! this module only maps slots to physical byte addresses.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

use crate::attack;

/// Cache-line size assumed by all patterns.
pub const LINE_BYTES: u64 = 64;

/// A deterministic stream of cache-line addresses.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub enum AddressPattern {
    /// Sequential lines, wrapping at the end of the footprint.
    Streaming {
        /// First byte of the region.
        base: u64,
        /// Region size in bytes.
        footprint: u64,
    },
    /// Fixed-stride lines (stride expressed in bytes), wrapping at the end.
    Strided {
        /// First byte of the region.
        base: u64,
        /// Region size in bytes.
        footprint: u64,
        /// Stride between consecutive accesses, in bytes.
        stride: u64,
    },
    /// Uniformly random lines over the footprint.
    Random {
        /// First byte of the region.
        base: u64,
        /// Region size in bytes.
        footprint: u64,
        /// RNG seed for reproducibility.
        seed: u64,
    },
    /// A small hot set of lines accessed round-robin (high cache locality).
    HotSet {
        /// First byte of the region.
        base: u64,
        /// Number of distinct hot lines.
        lines: u64,
    },
}

impl AddressPattern {
    /// Creates the stream of the pattern's addresses.
    #[must_use]
    pub fn stream(&self) -> AddressStream {
        let rng = match self {
            AddressPattern::Random { seed, .. } => Some(StdRng::seed_from_u64(*seed)),
            _ => None,
        };
        AddressStream {
            pattern: self.clone(),
            position: 0,
            rng,
        }
    }

    /// The number of distinct address slots the pattern cycles over (the
    /// stride between slots is [`LINE_BYTES`] except for `Strided`, where it
    /// is the configured stride).
    #[must_use]
    pub fn distinct_slots(&self) -> u64 {
        match self {
            AddressPattern::Streaming { footprint, .. }
            | AddressPattern::Random { footprint, .. } => {
                attack::line_slots(*footprint, LINE_BYTES)
            }
            AddressPattern::Strided {
                footprint, stride, ..
            } => attack::strided_slots(*footprint, (*stride).max(LINE_BYTES)),
            AddressPattern::HotSet { lines, .. } => (*lines).max(1),
        }
    }
}

/// Infinite stream over an [`AddressPattern`]'s cache-line addresses.
#[derive(Debug, Clone)]
pub struct AddressStream {
    pattern: AddressPattern,
    position: u64,
    rng: Option<StdRng>,
}

impl AddressStream {
    /// Next cache-line-aligned address (infinite stream).
    pub fn next_address(&mut self) -> u64 {
        let addr = match &self.pattern {
            AddressPattern::Streaming { base, .. } | AddressPattern::HotSet { base, .. } => {
                base + attack::cycle_slot(self.position, self.pattern.distinct_slots()) * LINE_BYTES
            }
            AddressPattern::Strided { base, stride, .. } => {
                base + attack::cycle_slot(self.position, self.pattern.distinct_slots())
                    * (*stride).max(LINE_BYTES)
            }
            AddressPattern::Random { base, .. } => {
                let slots = self.pattern.distinct_slots();
                let rng = self.rng.as_mut().expect("random pattern carries an RNG");
                base + rng.gen_range(0..slots) * LINE_BYTES
            }
        };
        self.position += 1;
        addr & !(LINE_BYTES - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn streaming_wraps_at_footprint() {
        let p = AddressPattern::Streaming {
            base: 0x1000,
            footprint: 256,
        };
        let mut it = p.stream();
        let addrs: Vec<u64> = (0..6).map(|_| it.next_address()).collect();
        assert_eq!(addrs, vec![0x1000, 0x1040, 0x1080, 0x10C0, 0x1000, 0x1040]);
        assert_eq!(p.distinct_slots(), 4);
    }

    #[test]
    fn strided_respects_stride() {
        let p = AddressPattern::Strided {
            base: 0,
            footprint: 4096,
            stride: 1024,
        };
        let mut it = p.stream();
        assert_eq!(it.next_address(), 0);
        assert_eq!(it.next_address(), 1024);
        assert_eq!(it.next_address(), 2048);
        assert_eq!(p.distinct_slots(), 4);
    }

    #[test]
    fn random_is_reproducible_and_in_bounds() {
        let p = AddressPattern::Random {
            base: 0x8000,
            footprint: 1 << 20,
            seed: 7,
        };
        let a: Vec<u64> = {
            let mut it = p.stream();
            (0..100).map(|_| it.next_address()).collect()
        };
        let b: Vec<u64> = {
            let mut it = p.stream();
            (0..100).map(|_| it.next_address()).collect()
        };
        assert_eq!(a, b, "same seed must reproduce the same stream");
        for addr in a {
            assert!((0x8000..0x8000 + (1 << 20)).contains(&addr));
            assert_eq!(addr % LINE_BYTES, 0);
        }
    }

    #[test]
    fn hot_set_cycles_over_small_working_set() {
        let p = AddressPattern::HotSet { base: 0, lines: 3 };
        let mut it = p.stream();
        let addrs: Vec<u64> = (0..6).map(|_| it.next_address()).collect();
        assert_eq!(addrs, vec![0, 64, 128, 0, 64, 128]);
    }

    #[test]
    fn addresses_are_always_line_aligned() {
        let p = AddressPattern::Streaming {
            base: 0x1001, // deliberately misaligned base
            footprint: 4096,
        };
        let mut it = p.stream();
        for _ in 0..50 {
            assert_eq!(it.next_address() % LINE_BYTES, 0);
        }
    }

    #[test]
    fn stream_clone_replays_the_original_tail() {
        // The random stream carries an RNG; a clone taken mid-stream must
        // carry it too, so the clone replays the original's exact tail.
        let p = AddressPattern::Random {
            base: 0x8000,
            footprint: 1 << 20,
            seed: 7,
        };
        let mut stream = p.stream();
        for _ in 0..37 {
            stream.next_address();
        }
        let mut clone = stream.clone();
        let tail: Vec<u64> = (0..50).map(|_| stream.next_address()).collect();
        let replay: Vec<u64> = (0..50).map(|_| clone.next_address()).collect();
        assert_eq!(tail, replay);
    }
}
