//! The multi-core cluster: private cores plus the shared last-level cache.
//!
//! [`CpuCluster`] owns every core and the shared LLC and exposes a single
//! `tick` that the system simulator drives.  DRAM traffic is returned to the
//! caller as a list of [`CoreMemoryRequest`]s tagged with the issuing core;
//! completions are delivered back per core.

use serde::{Deserialize, Serialize};

use crate::cache::Cache;
use crate::config::CpuConfig;
use crate::core_model::{Core, CoreMemoryRequest, MemoryPort};
use crate::stats::CoreStats;
use crate::trace::Trace;

/// DRAM-bound traffic produced by one cluster tick.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ClusterOutput {
    /// Requests to forward to the memory controller, tagged with the core id.
    pub requests: Vec<(u32, CoreMemoryRequest)>,
}

/// Shared-LLC port handed to each core during its tick.
#[derive(Debug)]
struct SharedPort<'a> {
    llc: &'a mut Cache,
    llc_latency: u32,
    requests: &'a mut Vec<(u32, CoreMemoryRequest)>,
    dram_slots_left: usize,
    writebacks: Vec<u64>,
}

impl MemoryPort for SharedPort<'_> {
    fn llc_access(&mut self, _core: u32, address: u64, is_write: bool) -> Option<u32> {
        if self.llc.access(address, is_write).is_hit() {
            Some(self.llc_latency)
        } else {
            None
        }
    }

    fn llc_invalidate(&mut self, address: u64) {
        if let Some(dirty) = self.llc.invalidate(address) {
            self.writebacks.push(dirty);
        }
    }

    fn can_send(&self) -> bool {
        self.dram_slots_left > 0
    }

    fn send(&mut self, core: u32, request: CoreMemoryRequest) {
        if self.dram_slots_left > 0 {
            self.dram_slots_left -= 1;
            self.requests.push((core, request));
        }
    }
}

/// A cluster of trace-driven cores sharing an LLC.
#[derive(Debug, Clone)]
pub struct CpuCluster {
    config: CpuConfig,
    cores: Vec<Core>,
    llc: Cache,
    /// Maximum DRAM requests accepted from the whole cluster per cycle.
    dram_requests_per_cycle: usize,
    /// Write-back identifier space distinct from core-generated ids.
    next_writeback_id: u64,
    /// Per-core wake-up cache: the tick [`Core::next_event_at`] last
    /// returned, [`NEVER`] for `None`, or [`STALE`] once the core's tick or
    /// a memory completion may have moved it.
    wakes: Vec<u64>,
    /// Core ticks actually run (telemetry only, never part of results).
    core_ticks: u64,
}

/// Wake-up cache entry of a core that must be ticked (and asked again).
/// Every tick is `>= STALE`, so a stale core is always due.
const STALE: u64 = 0;
/// Wake-up cache entry of a core that only a memory completion can unblock.
const NEVER: u64 = u64::MAX;

impl CpuCluster {
    /// Creates a cluster running `traces[i]` on core `i` until each core has
    /// retired `instruction_limit` instructions.
    ///
    /// # Panics
    ///
    /// Panics when the number of traces does not match `config.cores`.
    #[must_use]
    pub fn new(config: CpuConfig, traces: Vec<Trace>, instruction_limit: u64) -> Self {
        assert_eq!(
            traces.len(),
            config.cores as usize,
            "one trace per core is required"
        );
        let cores = traces
            .into_iter()
            .enumerate()
            .map(|(i, trace)| Core::new(i as u32, config.clone(), trace, instruction_limit))
            .collect();
        let llc = Cache::new(config.llc);
        Self {
            cores,
            llc,
            dram_requests_per_cycle: 4,
            wakes: vec![STALE; config.cores as usize],
            config,
            next_writeback_id: 1 << 48,
            core_ticks: 0,
        }
    }

    /// The cluster configuration.
    #[must_use]
    pub fn config(&self) -> &CpuConfig {
        &self.config
    }

    /// Per-core statistics.
    #[must_use]
    pub fn core_stats(&self) -> Vec<CoreStats> {
        self.cores.iter().map(|c| *c.stats()).collect()
    }

    /// `true` when every core has retired its instruction budget.
    #[must_use]
    pub fn all_finished(&self) -> bool {
        self.cores.iter().all(Core::is_finished)
    }

    /// `true` when the given core has finished.
    #[must_use]
    pub fn core_finished(&self, core: u32) -> bool {
        self.cores[core as usize].is_finished()
    }

    /// Number of core ticks run so far: one per unfinished core that
    /// [`CpuCluster::tick`] actually ticked, rather than credited with a
    /// stalled cycle.  Telemetry only; it never affects results.
    #[must_use]
    pub fn core_ticks(&self) -> u64 {
        self.core_ticks
    }

    /// Delivers a DRAM completion to the owning core.
    pub fn on_memory_completion(&mut self, core: u32, request_id: u64) {
        if request_id >= (1 << 48) {
            return; // write-back: no one is waiting
        }
        if let Some(target) = self.cores.get_mut(core as usize) {
            target.on_memory_completion(request_id);
            self.wakes[core as usize] = STALE;
        }
    }

    /// Earliest tick strictly after `now` at which any core can make forward
    /// progress without an external memory completion (see
    /// [`Core::next_event_at`]); `None` when every unfinished core is
    /// blocked on DRAM.
    ///
    /// Only cores whose cached wake-up is stale — ticked, or handed a
    /// completion, since they were last asked — are asked again.  A cached
    /// wake-up stays exact: the core's state has not changed since, and the
    /// cached tick lies after every tick visited in between.
    pub fn next_event_at(&mut self, now: u64) -> Option<u64> {
        let mut earliest = NEVER;
        for (core, wake) in self.cores.iter().zip(&mut self.wakes) {
            if *wake == STALE {
                *wake = core.next_event_at(now).unwrap_or(NEVER);
            }
            earliest = earliest.min(*wake);
        }
        (earliest != NEVER).then_some(earliest)
    }

    /// Accounts `cycles` skipped stalled cycles to every unfinished core
    /// (the event-driven engine's replacement for ticking through them).
    pub fn credit_stalled_cycles(&mut self, cycles: u64) {
        for core in &mut self.cores {
            core.credit_stalled_cycles(cycles);
        }
    }

    /// Advances every unfinished core by one cycle and returns the DRAM
    /// traffic generated.
    ///
    /// A core whose wake-up from [`CpuCluster::next_event_at`] lies after
    /// `now` is not ticked: its tick would only count a stalled cycle, so it
    /// is credited that cycle instead.  A cluster that is never asked for
    /// wake-ups (the tick engine's) keeps every entry stale and so ticks
    /// every unfinished core on every call.
    pub fn tick(&mut self, now: u64) -> ClusterOutput {
        let mut requests = Vec::new();
        let mut pending_writebacks = Vec::new();
        for (core, wake) in self.cores.iter_mut().zip(&mut self.wakes) {
            if core.is_finished() {
                continue;
            }
            if *wake > now {
                core.credit_stalled_cycles(1);
                continue;
            }
            *wake = STALE;
            self.core_ticks += 1;
            let mut port = SharedPort {
                llc: &mut self.llc,
                llc_latency: self.config.llc.hit_latency,
                requests: &mut requests,
                dram_slots_left: self.dram_requests_per_cycle,
                writebacks: Vec::new(),
            };
            core.tick(now, &mut port);
            pending_writebacks.extend(port.writebacks);
        }
        for addr in pending_writebacks {
            let id = self.next_writeback_id;
            self.next_writeback_id += 1;
            requests.push((
                u32::MAX,
                CoreMemoryRequest {
                    id,
                    address: addr,
                    is_write: true,
                    is_prefetch: false,
                },
            ));
        }
        ClusterOutput { requests }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::TraceOp;

    fn streaming_trace(base: u64, lines: u64) -> Trace {
        let ops = (0..lines)
            .flat_map(|i| [TraceOp::Load(base + i * 64), TraceOp::Compute(4)])
            .collect();
        Trace::new("stream", ops)
    }

    #[test]
    #[should_panic(expected = "one trace per core")]
    fn trace_count_must_match_cores() {
        let cfg = CpuConfig::tiny_for_tests();
        let _ = CpuCluster::new(cfg, vec![Trace::new("only-one", vec![])], 100);
    }

    #[test]
    fn cluster_produces_dram_traffic_for_streaming_workloads() {
        let cfg = CpuConfig::tiny_for_tests();
        let traces = vec![
            streaming_trace(0x1000_0000, 512),
            streaming_trace(0x2000_0000, 512),
        ];
        let mut cluster = CpuCluster::new(cfg, traces, 2_000);
        let mut total_requests = 0usize;
        for now in 0..50_000 {
            let out = cluster.tick(now);
            for (core, req) in &out.requests {
                total_requests += 1;
                // Complete immediately to keep cores moving.
                cluster.on_memory_completion(*core, req.id);
            }
            if cluster.all_finished() {
                break;
            }
        }
        assert!(
            cluster.all_finished(),
            "cores should finish with instant memory"
        );
        assert!(total_requests > 50, "streaming workloads must reach DRAM");
    }

    #[test]
    fn cores_share_the_llc() {
        let cfg = CpuConfig::tiny_for_tests();
        // Core 1 repeatedly loads the same small set of lines that core 0
        // already streamed through the LLC: after warm-up it should hit.
        let shared_base = 0x3000_0000u64;
        let traces = vec![
            streaming_trace(shared_base, 8),
            streaming_trace(shared_base, 8),
        ];
        let mut cluster = CpuCluster::new(cfg, traces, 600);
        let mut dram_reads = 0usize;
        for now in 0..200_000 {
            let out = cluster.tick(now);
            for (core, req) in &out.requests {
                if !req.is_write {
                    dram_reads += 1;
                }
                cluster.on_memory_completion(*core, req.id);
            }
            if cluster.all_finished() {
                break;
            }
        }
        assert!(cluster.all_finished());
        // 8 distinct lines; both cores together should miss far fewer than
        // 2 * total accesses thanks to the shared LLC and private caches.
        assert!(
            dram_reads < 64,
            "expected heavy reuse, got {dram_reads} DRAM reads"
        );
    }

    #[test]
    fn stats_report_per_core_progress() {
        let cfg = CpuConfig::tiny_for_tests();
        let traces = vec![
            Trace::new("c0", vec![TraceOp::Compute(8)]),
            Trace::new("c1", vec![TraceOp::Compute(8)]),
        ];
        let mut cluster = CpuCluster::new(cfg, traces, 400);
        for now in 0..1_000 {
            let _ = cluster.tick(now);
            if cluster.all_finished() {
                break;
            }
        }
        let stats = cluster.core_stats();
        assert_eq!(stats.len(), 2);
        for s in stats {
            assert!(s.instructions >= 400);
            assert!(s.ipc() > 0.0);
        }
        assert!(cluster.core_finished(0));
        assert!(cluster.core_finished(1));
    }
}
