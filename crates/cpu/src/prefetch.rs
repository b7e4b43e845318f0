//! IP-stride prefetcher (the paper's L1D prefetcher).
//!
//! The prefetcher tracks the last address and the last observed stride of a
//! load instruction pointer.  When two consecutive accesses exhibit the same
//! stride, it predicts the next address and asks the hierarchy to prefetch
//! it.  Our traces do not carry real instruction pointers, so every load of
//! a core counts as one synthetic IP (the core id), and each core's
//! prefetcher holds exactly one stride entry.

/// Stride prefetcher for one synthetic instruction pointer.
#[derive(Debug, Clone, Copy, Default)]
pub struct StridePrefetcher {
    last_address: u64,
    last_stride: i64,
    confidence: u8,
    /// Prefetches generated (statistics).
    issued: u64,
}

impl StridePrefetcher {
    /// Observes a demand load to `address`; returns an address to prefetch
    /// when the stride is confident.
    pub fn observe(&mut self, address: u64) -> Option<u64> {
        if self.last_address == 0 {
            self.last_address = address;
            return None;
        }
        let stride = address as i64 - self.last_address as i64;
        let confident = stride != 0 && stride == self.last_stride;
        self.confidence = if confident {
            self.confidence.saturating_add(1)
        } else {
            0
        };
        self.last_stride = stride;
        self.last_address = address;
        if self.confidence >= 1 {
            let predicted = address.wrapping_add_signed(stride);
            self.issued += 1;
            Some(predicted)
        } else {
            None
        }
    }

    /// Number of prefetches issued so far.
    #[must_use]
    pub fn issued(&self) -> u64 {
        self.issued
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constant_stride_is_detected_after_two_observations() {
        let mut p = StridePrefetcher::default();
        assert_eq!(p.observe(0x1000), None);
        assert_eq!(p.observe(0x1040), None); // first stride observed
        assert_eq!(p.observe(0x1080), Some(0x10C0));
        assert_eq!(p.observe(0x10C0), Some(0x1100));
        assert_eq!(p.issued(), 2);
    }

    #[test]
    fn irregular_accesses_do_not_prefetch() {
        let mut p = StridePrefetcher::default();
        p.observe(0x1000);
        p.observe(0x5000);
        assert_eq!(p.observe(0x2000), None);
        assert_eq!(p.observe(0x9000), None);
        assert_eq!(p.issued(), 0);
    }

    #[test]
    fn negative_strides_are_supported() {
        let mut p = StridePrefetcher::default();
        p.observe(0x4000);
        p.observe(0x3FC0);
        assert_eq!(p.observe(0x3F80), Some(0x3F40));
    }
}
