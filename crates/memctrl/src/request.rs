//! Memory requests and their completion records.

use prac_core::timing::ticks_to_ns;
use serde::{Deserialize, Serialize};

/// Whether a request reads or writes its cache line.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum RequestKind {
    /// Demand read (load miss or fetch).
    Read,
    /// Writeback / store.
    Write,
}

/// A request presented to the memory controller.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct MemoryRequest {
    /// Caller-assigned identifier, echoed back on completion.
    pub id: u64,
    /// Physical address of the cache line.
    pub physical_address: u64,
    /// Read or write.
    pub kind: RequestKind,
    /// Core (or agent) that produced the request.
    pub core: u32,
    /// Tick at which the request arrived at the controller.
    pub arrival_tick: u64,
}

impl MemoryRequest {
    /// Convenience constructor for a read request.
    #[must_use]
    pub fn read(id: u64, physical_address: u64, core: u32, arrival_tick: u64) -> Self {
        Self {
            id,
            physical_address,
            kind: RequestKind::Read,
            core,
            arrival_tick,
        }
    }

    /// Convenience constructor for a write request.
    #[must_use]
    pub fn write(id: u64, physical_address: u64, core: u32, arrival_tick: u64) -> Self {
        Self {
            id,
            physical_address,
            kind: RequestKind::Write,
            core,
            arrival_tick,
        }
    }
}

/// Completion record returned by the controller when a request finishes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct CompletedRequest {
    /// Identifier of the completed request.
    pub id: u64,
    /// Core that issued it.
    pub core: u32,
    /// Read or write.
    pub kind: RequestKind,
    /// Arrival tick at the controller.
    pub arrival_tick: u64,
    /// Tick at which data returned (read) or the write was accepted.
    pub completion_tick: u64,
}

impl CompletedRequest {
    /// End-to-end controller latency in ticks.
    #[must_use]
    pub fn latency_ticks(&self) -> u64 {
        self.completion_tick.saturating_sub(self.arrival_tick)
    }

    /// End-to-end latency in nanoseconds.
    #[must_use]
    pub fn latency_ns(&self) -> f64 {
        ticks_to_ns(self.latency_ticks())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_set_kind() {
        let r = MemoryRequest::read(1, 0x1000, 0, 5);
        assert_eq!(r.kind, RequestKind::Read);
        let w = MemoryRequest::write(2, 0x2000, 1, 6);
        assert_eq!(w.kind, RequestKind::Write);
        assert_eq!(w.core, 1);
    }

    #[test]
    fn latency_is_completion_minus_arrival() {
        let c = CompletedRequest {
            id: 1,
            core: 0,
            kind: RequestKind::Read,
            arrival_tick: 100,
            completion_tick: 500,
        };
        assert_eq!(c.latency_ticks(), 400);
        assert!((c.latency_ns() - 100.0).abs() < 1e-9);
    }

    #[test]
    fn latency_saturates_on_inverted_times() {
        let c = CompletedRequest {
            id: 1,
            core: 0,
            kind: RequestKind::Read,
            arrival_tick: 500,
            completion_tick: 100,
        };
        assert_eq!(c.latency_ticks(), 0);
    }
}
