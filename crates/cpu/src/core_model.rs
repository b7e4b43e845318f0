//! The ROB-limited, trace-driven core model.
//!
//! Each cycle the core:
//!
//! 1. retires up to `retire_width` completed instructions from the ROB head
//!    (in order; an incomplete load at the head stalls retirement),
//! 2. issues up to `issue_width` new instructions from its trace into the
//!    ROB, as long as ROB entries and MSHRs are available.
//!
//! Loads probe the L1D and L2 (private, owned by the core); on a private-cache
//! miss the access is forwarded to the shared LLC and — if that also misses —
//! to DRAM through the [`MemoryPort`] supplied by the caller each cycle.
//! Stores are modelled as write-allocate cache updates that retire
//! immediately (a perfect store buffer).  `clflush` invalidates the line in
//! every level the core can see.

use serde::{Deserialize, Serialize};
use std::collections::VecDeque;

use crate::cache::Cache;
use crate::config::CpuConfig;
use crate::prefetch::StridePrefetcher;
use crate::stats::CoreStats;
use crate::trace::{Trace, TraceOp};

/// A memory request the core wants to send to the DRAM subsystem.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct CoreMemoryRequest {
    /// Core-local request identifier (echoed back on completion).
    pub id: u64,
    /// Physical address of the cache line.
    pub address: u64,
    /// `true` for write-backs, `false` for demand/prefetch reads.
    pub is_write: bool,
    /// `true` when the request is a prefetch (does not block retirement).
    pub is_prefetch: bool,
}

/// The interface through which a core reaches the shared LLC and DRAM.
///
/// Implemented by the system simulator; a simple fixed-latency implementation
/// is provided for unit tests.
pub trait MemoryPort {
    /// Accesses the shared LLC for `address`.  Returns `Some(latency)` on an
    /// LLC hit and `None` on a miss (in which case the core will emit a
    /// [`CoreMemoryRequest`] for DRAM).
    fn llc_access(&mut self, core: u32, address: u64, is_write: bool) -> Option<u32>;

    /// Invalidates `address` in the shared LLC (clflush propagation).
    fn llc_invalidate(&mut self, address: u64);

    /// `true` when the DRAM subsystem can accept another request this cycle.
    fn can_send(&self) -> bool;

    /// Sends a request towards DRAM.
    fn send(&mut self, core: u32, request: CoreMemoryRequest);
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum RobEntryState {
    /// Completes at the contained cycle.
    ReadyAt(u64),
    /// Waiting for a DRAM completion with the contained request id.
    WaitingForMemory(u64),
}

#[derive(Debug, Clone, Copy)]
struct RobEntry {
    state: RobEntryState,
    /// Retired-instruction credit this entry carries (compute bundles > 1).
    instructions: u32,
}

/// A single trace-driven core.
#[derive(Debug, Clone)]
pub struct Core {
    id: u32,
    config: CpuConfig,
    l1d: Cache,
    l2: Cache,
    rob: VecDeque<RobEntry>,
    trace: Trace,
    trace_index: usize,
    prefetcher: Option<StridePrefetcher>,
    next_request_id: u64,
    outstanding_misses: u32,
    stats: CoreStats,
    instruction_limit: u64,
}

impl Core {
    /// Creates a core that will replay `trace` until `instruction_limit`
    /// instructions have retired.
    #[must_use]
    pub fn new(id: u32, config: CpuConfig, trace: Trace, instruction_limit: u64) -> Self {
        let l1d = Cache::new(config.l1d);
        let l2 = Cache::new(config.l2);
        let prefetcher = config.stride_prefetcher.then(StridePrefetcher::default);
        Self {
            id,
            config,
            l1d,
            l2,
            rob: VecDeque::new(),
            trace,
            trace_index: 0,
            prefetcher,
            next_request_id: 0,
            outstanding_misses: 0,
            stats: CoreStats::default(),
            instruction_limit,
        }
    }

    /// The core identifier.
    #[must_use]
    pub fn id(&self) -> u32 {
        self.id
    }

    /// Statistics accumulated so far.
    #[must_use]
    pub fn stats(&self) -> &CoreStats {
        &self.stats
    }

    /// `true` once the core has retired its instruction budget.
    #[must_use]
    pub fn is_finished(&self) -> bool {
        self.stats.instructions >= self.instruction_limit
    }

    /// Notifies the core that the DRAM request with `request_id` completed.
    pub fn on_memory_completion(&mut self, request_id: u64) {
        let mut matched = false;
        for entry in &mut self.rob {
            if entry.state == RobEntryState::WaitingForMemory(request_id) {
                entry.state = RobEntryState::ReadyAt(0);
                matched = true;
                break;
            }
        }
        if matched || self.outstanding_misses > 0 {
            self.outstanding_misses = self.outstanding_misses.saturating_sub(1);
        }
    }

    /// Earliest tick strictly after `now` at which this core can make
    /// forward progress *without* an external memory completion, or `None`
    /// when only a completion (or nothing at all) can unblock it.
    ///
    /// Used by the event-driven engine to skip cycles in which
    /// [`Core::tick`] would be a no-op.  The contract is conservative in the
    /// safe direction: whenever a tick could retire or issue anything, the
    /// returned wake-up is at or before that tick.  The three progress
    /// sources are:
    ///
    /// * retirement — the ROB head becomes retirable at its ready tick;
    /// * issue — the next trace op can enter the ROB on a fresh cycle, i.e.
    ///   it is a compute/flush op, a memory op that hits the private caches,
    ///   or a memory op with an MSHR available (a fresh cycle always starts
    ///   with DRAM-queue slots, so `can_send` is not a next-cycle blocker);
    /// * nothing, when the head waits on DRAM and issue is MSHR/miss-bound.
    #[must_use]
    pub fn next_event_at(&self, now: u64) -> Option<u64> {
        if self.is_finished() {
            return None;
        }
        let mut wake: Option<u64> = None;
        if let Some(entry) = self.rob.front() {
            if let RobEntryState::ReadyAt(t) = entry.state {
                wake = Some(t.max(now + 1));
            }
        }
        if self.rob.len() < self.config.rob_entries as usize && !self.trace.is_empty() {
            let op = self.trace.ops()[self.trace_index];
            let issuable = match op {
                TraceOp::Compute(_) | TraceOp::Flush(_) => true,
                TraceOp::Load(addr) | TraceOp::Store(addr) => {
                    self.outstanding_misses < self.config.mshrs_per_core
                        || self.l1d.probe(addr)
                        || self.l2.probe(addr)
                }
            };
            if issuable {
                wake = Some(now + 1);
            }
        }
        wake
    }

    /// Accounts `cycles` stalled cycles the event-driven engine skipped:
    /// ticks in which [`Core::tick`] would only have incremented the cycle
    /// counter.  Keeps IPC bit-identical between the two engines.
    pub fn credit_stalled_cycles(&mut self, cycles: u64) {
        if !self.is_finished() {
            self.stats.cycles += cycles;
        }
    }

    fn next_trace_op(&mut self) -> Option<TraceOp> {
        if self.trace.is_empty() {
            return None;
        }
        let op = self.trace.ops()[self.trace_index];
        self.trace_index = (self.trace_index + 1) % self.trace.ops().len();
        Some(op)
    }

    /// Advances the core by one cycle.  DRAM-bound requests are pushed into
    /// `port`; completions must be delivered via
    /// [`Core::on_memory_completion`] by the caller.
    pub fn tick(&mut self, now: u64, port: &mut dyn MemoryPort) {
        if self.is_finished() {
            return;
        }
        self.stats.cycles += 1;
        self.retire(now);
        self.issue(now, port);
    }

    fn retire(&mut self, now: u64) {
        for _ in 0..self.config.retire_width {
            match self.rob.front() {
                Some(entry) => match entry.state {
                    RobEntryState::ReadyAt(t) if t <= now => {
                        self.stats.instructions += u64::from(entry.instructions);
                        self.rob.pop_front();
                    }
                    _ => break,
                },
                None => break,
            }
        }
    }

    fn issue(&mut self, now: u64, port: &mut dyn MemoryPort) {
        for _ in 0..self.config.issue_width {
            if self.rob.len() >= self.config.rob_entries as usize {
                break;
            }
            let Some(op) = self.peek_issuable_op(port) else {
                break;
            };
            match op {
                TraceOp::Compute(n) => {
                    self.rob.push_back(RobEntry {
                        state: RobEntryState::ReadyAt(now + 1),
                        instructions: n.max(1),
                    });
                }
                TraceOp::Store(addr) => {
                    self.access_for_write(addr, port);
                    self.rob.push_back(RobEntry {
                        state: RobEntryState::ReadyAt(now + 1),
                        instructions: 1,
                    });
                }
                TraceOp::Flush(addr) => {
                    self.flush_line(addr, port);
                    self.rob.push_back(RobEntry {
                        state: RobEntryState::ReadyAt(now + 1),
                        instructions: 1,
                    });
                }
                TraceOp::Load(addr) => {
                    let state = self.access_for_read(addr, now, port);
                    self.rob.push_back(RobEntry {
                        state,
                        instructions: 1,
                    });
                }
            }
        }
    }

    /// Fetches the next op, deferring loads that cannot currently allocate an
    /// MSHR or reach a busy DRAM queue (returns `None` to stall issue).
    fn peek_issuable_op(&mut self, port: &mut dyn MemoryPort) -> Option<TraceOp> {
        if self.trace.is_empty() {
            return None;
        }
        let op = self.trace.ops()[self.trace_index];
        if matches!(op, TraceOp::Load(_) | TraceOp::Store(_)) {
            let mshr_full = self.outstanding_misses >= self.config.mshrs_per_core;
            if mshr_full || !port.can_send() {
                // Only stall when the access would actually miss the private
                // caches; hits can always proceed.
                if let Some(addr) = op.address() {
                    if !self.l1d.probe(addr) && !self.l2.probe(addr) {
                        return None;
                    }
                }
            }
        }
        self.next_trace_op()
    }

    fn send_writeback(&mut self, address: u64, port: &mut dyn MemoryPort) {
        if port.can_send() {
            let id = self.alloc_request_id();
            port.send(
                self.id,
                CoreMemoryRequest {
                    id,
                    address,
                    is_write: true,
                    is_prefetch: false,
                },
            );
        }
        // When the DRAM queue is saturated the write-back is dropped; data
        // correctness is not modelled, and the lost bandwidth is negligible.
    }

    fn alloc_request_id(&mut self) -> u64 {
        let id = self.next_request_id;
        self.next_request_id += 1;
        id
    }

    fn access_for_read(&mut self, addr: u64, now: u64, port: &mut dyn MemoryPort) -> RobEntryState {
        // Stride prefetcher observes the demand stream at the L1D. Traces do
        // not carry real instruction pointers, so all loads of a core share
        // one stride entry: regular streams still expose a constant stride
        // while irregular streams train nothing.
        let prefetch_target = self.prefetcher.as_mut().and_then(|p| p.observe(addr));

        // A missed `Cache::access` has already allocated the line, so each
        // level that missed holds it once the lookup ends.
        let state = if self.l1d.access(addr, false).is_hit() {
            self.stats.cache_hits += 1;
            RobEntryState::ReadyAt(now + u64::from(self.config.l1d.hit_latency))
        } else if self.l2.access(addr, false).is_hit() {
            self.stats.cache_hits += 1;
            RobEntryState::ReadyAt(now + u64::from(self.config.l2.hit_latency))
        } else if let Some(latency) = port.llc_access(self.id, addr, false) {
            self.stats.cache_hits += 1;
            RobEntryState::ReadyAt(now + u64::from(latency))
        } else {
            // Full miss: goes to DRAM.
            self.stats.llc_misses += 1;
            self.outstanding_misses += 1;
            let id = self.alloc_request_id();
            port.send(
                self.id,
                CoreMemoryRequest {
                    id,
                    address: addr,
                    is_write: false,
                    is_prefetch: false,
                },
            );
            RobEntryState::WaitingForMemory(id)
        };

        if let Some(target) = prefetch_target {
            self.prefetch(target, port);
        }
        state
    }

    fn access_for_write(&mut self, addr: u64, port: &mut dyn MemoryPort) {
        // Write-allocate at every level that misses (each missed access
        // allocates the line): the store itself retires immediately; the
        // line travels up the hierarchy in the background.
        if self.l1d.access(addr, true).is_hit() || self.l2.access(addr, true).is_hit() {
            return;
        }
        let _ = port.llc_access(self.id, addr, true);
    }

    fn flush_line(&mut self, addr: u64, port: &mut dyn MemoryPort) {
        self.stats.flushes += 1;
        if let Some(dirty) = self.l1d.invalidate(addr) {
            self.send_writeback(dirty, port);
        }
        if let Some(dirty) = self.l2.invalidate(addr) {
            self.send_writeback(dirty, port);
        }
        port.llc_invalidate(addr);
    }

    fn prefetch(&mut self, addr: u64, port: &mut dyn MemoryPort) {
        if self.l1d.probe(addr) || self.l2.probe(addr) {
            return;
        }
        // Prefetch into the L2 via the LLC; if it misses everywhere, send a
        // non-blocking DRAM read.
        if port.llc_access(self.id, addr, false).is_some() {
            self.l2.fill(addr);
            self.stats.prefetches += 1;
            return;
        }
        if port.can_send() && self.outstanding_misses < self.config.mshrs_per_core {
            self.stats.prefetches += 1;
            let id = self.alloc_request_id();
            self.outstanding_misses += 1;
            self.l2.fill(addr);
            port.send(
                self.id,
                CoreMemoryRequest {
                    id,
                    address: addr,
                    is_write: false,
                    is_prefetch: true,
                },
            );
        }
    }
}

/// A fixed-latency [`MemoryPort`] for unit tests: every LLC access hits with
/// the configured latency unless the address is in the `dram_only` range, in
/// which case requests are captured for inspection.
#[derive(Debug, Default)]
pub struct TestPort {
    /// LLC hit latency reported to the core.
    pub llc_latency: u32,
    /// Addresses at or above this value always miss the LLC.
    pub dram_threshold: u64,
    /// Captured DRAM requests.
    pub sent: Vec<(u32, CoreMemoryRequest)>,
    /// Invalidate calls observed.
    pub invalidated: Vec<u64>,
    /// When false, `can_send` reports a full DRAM queue.
    pub accepting: bool,
}

impl TestPort {
    /// Creates a port that hits the LLC below `dram_threshold`.
    #[must_use]
    pub fn new(dram_threshold: u64) -> Self {
        Self {
            llc_latency: 20,
            dram_threshold,
            sent: Vec::new(),
            invalidated: Vec::new(),
            accepting: true,
        }
    }
}

impl MemoryPort for TestPort {
    fn llc_access(&mut self, _core: u32, address: u64, _is_write: bool) -> Option<u32> {
        (address < self.dram_threshold).then_some(self.llc_latency)
    }

    fn llc_invalidate(&mut self, address: u64) {
        self.invalidated.push(address);
    }

    fn can_send(&self) -> bool {
        self.accepting
    }

    fn send(&mut self, core: u32, request: CoreMemoryRequest) {
        self.sent.push((core, request));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn compute_only_trace(n: usize) -> Trace {
        Trace::new("compute", vec![TraceOp::Compute(1); n])
    }

    #[test]
    fn compute_trace_retires_at_full_width() {
        let cfg = CpuConfig::tiny_for_tests();
        let mut core = Core::new(0, cfg, compute_only_trace(64), 1_000);
        let mut port = TestPort::new(u64::MAX);
        for now in 0..400 {
            core.tick(now, &mut port);
            if core.is_finished() {
                break;
            }
        }
        assert!(core.is_finished());
        // IPC should approach the retire width (4) for pure compute.
        assert!(core.stats().ipc() > 2.0, "IPC = {}", core.stats().ipc());
        assert!(port.sent.is_empty());
    }

    #[test]
    fn llc_hits_do_not_reach_dram() {
        let cfg = CpuConfig::tiny_for_tests();
        let trace = Trace::new("loads", vec![TraceOp::Load(0x10_0000), TraceOp::Compute(4)]);
        let mut core = Core::new(0, cfg, trace, 200);
        let mut port = TestPort::new(u64::MAX); // everything hits the LLC
        for now in 0..2_000 {
            core.tick(now, &mut port);
            if core.is_finished() {
                break;
            }
        }
        assert!(core.is_finished());
        let demand_reads: Vec<_> = port.sent.iter().filter(|(_, r)| !r.is_write).collect();
        assert!(demand_reads.is_empty());
        assert_eq!(core.stats().llc_misses, 0);
    }

    #[test]
    fn llc_misses_emit_dram_requests_and_block_until_completion() {
        let cfg = CpuConfig::tiny_for_tests();
        let trace = Trace::new("miss", vec![TraceOp::Load(0x900_0000)]);
        let mut core = Core::new(0, cfg, trace, 10);
        let mut port = TestPort::new(0); // everything misses the LLC
        core.tick(0, &mut port);
        assert_eq!(port.sent.len(), 1);
        let (_, req) = port.sent[0];
        assert!(!req.is_write);
        // Without a completion the load never retires.
        for now in 1..100 {
            core.tick(now, &mut port);
        }
        assert_eq!(core.stats().instructions, 0);
        core.on_memory_completion(req.id);
        for now in 100..110 {
            core.tick(now, &mut port);
        }
        assert!(core.stats().instructions >= 1);
    }

    #[test]
    fn repeated_loads_hit_the_private_caches() {
        let cfg = CpuConfig::tiny_for_tests();
        let trace = Trace::new("hot", vec![TraceOp::Load(0x900_0000), TraceOp::Compute(1)]);
        let mut core = Core::new(0, cfg, trace, 100);
        let mut port = TestPort::new(0);
        // Drive with immediate completions.
        for now in 0..5_000 {
            core.tick(now, &mut port);
            let pending: Vec<u64> = port.sent.drain(..).map(|(_, r)| r.id).collect();
            for id in pending {
                core.on_memory_completion(id);
            }
            if core.is_finished() {
                break;
            }
        }
        assert!(core.is_finished());
        // Only the first access misses; the rest hit the L1D.
        assert_eq!(core.stats().llc_misses, 1);
        assert!(core.stats().cache_hits > 10);
    }

    #[test]
    fn flush_invalidates_all_levels_and_forces_a_new_miss() {
        let cfg = CpuConfig::tiny_for_tests();
        let trace = Trace::new(
            "flush",
            vec![TraceOp::Load(0x900_0000), TraceOp::Flush(0x900_0000)],
        );
        let mut core = Core::new(0, cfg, trace, 40);
        let mut port = TestPort::new(0);
        for now in 0..20_000 {
            core.tick(now, &mut port);
            let pending: Vec<u64> = port.sent.drain(..).map(|(_, r)| r.id).collect();
            for id in pending {
                core.on_memory_completion(id);
            }
            if core.is_finished() {
                break;
            }
        }
        assert!(core.is_finished());
        // Every load misses because the flush wipes the line each iteration.
        assert!(
            core.stats().llc_misses >= 10,
            "flushes must force repeated DRAM misses, got {}",
            core.stats().llc_misses
        );
        assert!(core.stats().flushes >= 10);
        assert!(!port.invalidated.is_empty());
    }

    #[test]
    fn mshr_limit_stalls_issue() {
        let mut cfg = CpuConfig::tiny_for_tests();
        cfg.mshrs_per_core = 2;
        // Loads to distinct lines so each one needs an MSHR.
        let ops: Vec<TraceOp> = (0..16)
            .map(|i| TraceOp::Load(0x900_0000 + i * 64))
            .collect();
        let mut core = Core::new(0, cfg, Trace::new("burst", ops), 1_000);
        let mut port = TestPort::new(0);
        // Never complete anything: at most 2 requests may be outstanding.
        for now in 0..200 {
            core.tick(now, &mut port);
        }
        assert_eq!(port.sent.iter().filter(|(_, r)| !r.is_write).count(), 2);
    }

    #[test]
    fn stride_prefetcher_issues_prefetch_requests() {
        let mut cfg = CpuConfig::tiny_for_tests();
        cfg.stride_prefetcher = true;
        cfg.mshrs_per_core = 16;
        let ops: Vec<TraceOp> = (0..32)
            .flat_map(|i| [TraceOp::Load(0x900_0000 + i * 64), TraceOp::Compute(8)])
            .collect();
        let mut core = Core::new(0, cfg, Trace::new("stream", ops), 2_000);
        let mut port = TestPort::new(0);
        for now in 0..20_000 {
            core.tick(now, &mut port);
            let pending: Vec<u64> = port.sent.drain(..).map(|(_, r)| r.id).collect();
            for id in pending {
                core.on_memory_completion(id);
            }
            if core.is_finished() {
                break;
            }
        }
        assert!(core.stats().prefetches > 0);
    }
}
