//! The full-system simulation: CPU cluster ⇄ memory subsystem ⇄ PRAC DRAM.
//!
//! [`SystemSimulation`] owns the wiring and the per-tick step; *which*
//! ticks are visited is up to the configured [`EngineKind`] — the legacy
//! tick engine that walks every DRAM clock, or the event-driven engine that
//! jumps between component wake-ups.  Both produce bit-identical
//! [`SystemResult`]s.
//!
//! The memory side is a [`MemorySubsystem`]: one controller (and device, and
//! mitigation engine) per channel of the configured
//! [`dram_sim::org::DramOrganization`].  CPU requests fan out to channels by
//! their decoded channel bits and completions merge back into the shared
//! in-flight map; with one channel the wiring is bit-identical to the
//! original single-controller system.

use cpu_sim::cluster::CpuCluster;
use cpu_sim::config::CpuConfig;
use cpu_sim::core_model::CoreMemoryRequest;
use cpu_sim::stats::CoreStats;
use cpu_sim::trace::Trace;
use dram_sim::device::DramDeviceConfig;
use dram_sim::stats::DramStats;
use memctrl::controller::ControllerConfig;
use memctrl::request::{CompletedRequest, MemoryRequest, RequestKind};
use memctrl::rfm::RfmKind;
use memctrl::stats::ControllerStats;
use serde::{Deserialize, Serialize};

use crate::event::{EngineKind, EventWheel};
use crate::snapshot::{PausedSimulation, PrefixOutcome};
use crate::subsystem::{ChannelStats, MemorySubsystem};

/// Wheel slot for the CPU cluster's next wake-up.
const SLOT_CLUSTER: usize = 0;
/// Wheel slot for pending backlog forwarding (always `now + 1` when armed).
const SLOT_FORWARDING: usize = 1;
/// First per-channel wheel slot; channel `ch` lives at `CHANNEL_SLOT_BASE + ch`.
const CHANNEL_SLOT_BASE: usize = 2;

/// Configuration of one full-system run.
#[derive(Debug, Clone, PartialEq)]
pub struct SystemConfig {
    /// CPU and cache-hierarchy configuration.
    pub cpu: CpuConfig,
    /// DRAM device configuration (organisation, timing, PRAC).
    pub device: DramDeviceConfig,
    /// Memory-controller configuration.
    pub controller: ControllerConfig,
    /// Instructions each core must retire before the run ends.
    pub instructions_per_core: u64,
    /// Hard cap on simulated ticks (safety net against livelock).
    pub max_ticks: u64,
    /// Which engine visits the ticks (results are engine-independent).
    pub engine: EngineKind,
}

impl SystemConfig {
    /// Paper-like defaults with a reduced instruction budget suitable for
    /// laptop-scale runs (the paper simulates 200 M instructions per core on
    /// a cluster; relative results stabilise far earlier for synthetic
    /// workloads).
    #[must_use]
    pub fn paper_default(instructions_per_core: u64) -> Self {
        Self::paper_default_with_channels(instructions_per_core, 1)
    }

    /// [`SystemConfig::paper_default`] with an explicit channel count.
    ///
    /// The `max_ticks` livelock cap budgets **one** channel's bandwidth as
    /// the worst case: extra channels only add bandwidth, so a multi-channel
    /// run can legitimately retire instructions *faster* and never needs a
    /// larger cap — and the cap deliberately does **not** scale down with
    /// the channel count either (a run that momentarily serialises on one
    /// hot channel must not be truncated early just because other channels
    /// are idle).
    #[must_use]
    pub fn paper_default_with_channels(instructions_per_core: u64, channels: u32) -> Self {
        let mut device = DramDeviceConfig::paper_default();
        device.organization = device.organization.with_channels(channels);
        Self {
            cpu: CpuConfig::paper_default(),
            device,
            controller: ControllerConfig::default(),
            instructions_per_core,
            max_ticks: instructions_per_core.saturating_mul(400).max(10_000_000),
            engine: EngineKind::default(),
        }
    }

    /// The configured channel count.
    #[must_use]
    pub fn channels(&self) -> u32 {
        self.device.organization.channels.max(1)
    }
}

/// Result of one full-system run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SystemResult {
    /// Per-core statistics (IPC, misses, …).
    pub core_stats: Vec<CoreStats>,
    /// Memory-controller statistics summed across every channel (equal to
    /// the single controller's statistics in one-channel systems).
    pub controller_stats: ControllerStats,
    /// DRAM device statistics summed across every channel.
    pub dram_stats: DramStats,
    /// Per-channel statistics blocks, in channel order (one entry for
    /// single-channel systems).
    pub channel_stats: Vec<ChannelStats>,
    /// Chronological `(tick, kind)` log of the RFMs the controllers issued,
    /// merged across channels (ties break by channel index; recording stops
    /// after the first ~1 M per channel, later RFMs are only counted).
    /// Lets the differential test harness assert that the two engines issue
    /// every ABO/ACB/TB RFM at the exact same cycle, and attack analyses
    /// inspect RFM timing.
    pub rfm_log: Vec<(u64, RfmKind)>,
    /// Number of ticks the run took (time for the slowest core to finish).
    pub elapsed_ticks: u64,
    /// Whether every core finished within the tick budget.
    pub completed: bool,
}

impl SystemResult {
    /// Sum of per-core IPCs — for homogeneous workload mixes this ratio
    /// between two configurations equals the weighted-speedup ratio.
    #[must_use]
    pub fn total_ipc(&self) -> f64 {
        self.core_stats.iter().map(CoreStats::ipc).sum()
    }

    /// Execution time in nanoseconds.
    #[must_use]
    pub fn execution_time_ns(&self) -> f64 {
        self.elapsed_ticks as f64 * 0.25
    }

    /// Average misses-per-kilo-instruction across cores.
    #[must_use]
    pub fn average_mpki(&self) -> f64 {
        if self.core_stats.is_empty() {
            return 0.0;
        }
        self.core_stats
            .iter()
            .map(CoreStats::misses_per_kilo_instruction)
            .sum::<f64>()
            / self.core_stats.len() as f64
    }
}

/// A backlog entry: a core's request waiting for queue space on its channel
/// (decoded once, on arrival).
#[derive(Debug, Clone)]
pub(crate) struct BacklogEntry {
    core: u32,
    request: CoreMemoryRequest,
    channel: u32,
}

/// Scratch the engine loops reuse across [`SystemSimulation::step`] calls.
struct StepScratch {
    /// Which channels the step polls.  `step` only ever sets flags (fan-out
    /// marks the target channel due); the engine loop clears them.
    due: Vec<bool>,
    /// Each polled channel's wake-up after its poll.
    wakes: Vec<Option<u64>>,
    /// Completion buffer, drained before `step` returns.
    completions: Vec<CompletedRequest>,
}

impl StepScratch {
    /// Scratch for `channels` channels, every channel due.
    fn new(channels: usize) -> Self {
        Self {
            due: vec![true; channels],
            wakes: vec![None; channels],
            completions: Vec::new(),
        }
    }
}

/// Process-wide count of [`SystemSimulation`] instances ever constructed.
static SIMULATIONS_BUILT: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);

/// How many [`SystemSimulation`] instances this process has constructed so
/// far.  A cache/store *hit* path must answer without simulating, which
/// tests assert by sampling this counter around the lookup: if it moved, a
/// simulation was built.
#[must_use]
pub fn simulations_built() -> u64 {
    SIMULATIONS_BUILT.load(std::sync::atomic::Ordering::Relaxed)
}

/// A full-system simulation instance.
///
/// Cloning deep-copies the complete system state (cores, caches,
/// controllers, devices, mitigation engines) — this is the fork primitive
/// of the pause/fork layer ([`crate::snapshot`]).  A clone does
/// **not** count as a newly *built* simulation for
/// [`simulations_built`]: that counter exists to prove cache hits avoid
/// simulating, and a fork copies a prefix that was already simulated.
/// Campaigns never fork; tests and the benchmark's traced pass do.
#[derive(Debug, Clone)]
pub struct SystemSimulation {
    cluster: CpuCluster,
    memory: MemorySubsystem,
    instructions_per_core: u64,
    max_ticks: u64,
    engine: EngineKind,
    /// Maps an in-flight controller request id to (core, core-local id).
    /// Controller ids are globally unique, so a flat Vec-backed map keyed by
    /// id modulo capacity would risk collisions; a HashMap stays simple and
    /// is far from the critical path.
    inflight: std::collections::HashMap<u64, (u32, u64)>,
    next_controller_id: u64,
    /// Steps settled so far (telemetry only, never part of results).
    visited_steps: u64,
}

impl SystemSimulation {
    /// Builds a simulation running one trace per core.
    ///
    /// # Panics
    ///
    /// Panics when the number of traces does not match the configured core
    /// count (propagated from [`CpuCluster::new`]).
    #[must_use]
    pub fn new(config: SystemConfig, traces: Vec<Trace>) -> Self {
        SIMULATIONS_BUILT.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let cluster = CpuCluster::new(config.cpu.clone(), traces, config.instructions_per_core);
        let memory = MemorySubsystem::new(config.device.clone(), config.controller.clone());
        Self {
            cluster,
            memory,
            instructions_per_core: config.instructions_per_core,
            max_ticks: config.max_ticks,
            engine: config.engine,
            inflight: std::collections::HashMap::new(),
            next_controller_id: 0,
            visited_steps: 0,
        }
    }

    /// The instruction budget per core.
    #[must_use]
    pub fn instructions_per_core(&self) -> u64 {
        self.instructions_per_core
    }

    /// The CPU cluster (read-only).
    #[must_use]
    pub fn cluster(&self) -> &CpuCluster {
        &self.cluster
    }

    /// Number of steps settled so far: every tick under the tick engine,
    /// only the ticks it jumps to under the event engine.  Telemetry only:
    /// it is not part of [`SystemResult`] and never affects results.
    #[must_use]
    pub fn visited_steps(&self) -> u64 {
        self.visited_steps
    }

    /// The memory subsystem (read-only).
    #[must_use]
    pub fn memory(&self) -> &MemorySubsystem {
        &self.memory
    }

    /// The memory subsystem (mutable) — only the pause/fork layer
    /// needs this, to refit the mitigation configuration at a fork point.
    pub(crate) fn memory_mut(&mut self) -> &mut MemorySubsystem {
        &mut self.memory
    }

    /// The engine the configuration selected.
    #[must_use]
    pub fn engine(&self) -> EngineKind {
        self.engine
    }

    /// Runs the simulation to completion (or the tick cap) with the engine
    /// selected in the configuration and returns the collected statistics.
    pub fn run(self) -> SystemResult {
        self.run_from(0, Vec::new(), None)
            .expect_finished("run without a pause bound")
    }

    /// The configured engine's main loop from a resume point (`now`, with
    /// its un-forwarded `backlog`) to completion, the tick cap or the
    /// optional pause bound — the one entry point behind [`Self::run`],
    /// [`Self::run_until`] and [`PausedSimulation::resume`].
    pub(crate) fn run_from(
        self,
        now: u64,
        backlog: Vec<BacklogEntry>,
        pause_at: Option<u64>,
    ) -> PrefixOutcome {
        match self.engine {
            EngineKind::Tick => self.run_ticked_from(now, backlog, pause_at),
            EngineKind::Event => self.run_event_from(now, backlog, pause_at),
        }
    }

    /// Settles one tick: CPU cluster first, then request fan-out to the
    /// per-channel controllers, then the memory subsystem with completion
    /// routing.  Both engines drive this exact function — the tick engine
    /// for every tick, the event engine only for ticks in which something
    /// can happen.
    ///
    /// `tick_cluster` is false when no core can act this tick (the event
    /// engine's cluster slot did not fire): each unfinished core is then
    /// credited the stalled cycle its tick would have counted, and nothing
    /// else happens on the CPU side.  `scratch.due` selects which channels
    /// are polled.  Polling a channel ahead of its wake-up is a pure no-op
    /// (the engine purity contract), so the tick engine passes an all-true
    /// mask while the event engine narrows it to the channels whose wheel
    /// slot fired — the results are bit-identical either way.  Fanning a
    /// request out to a channel marks it due: the enqueue mutates that
    /// controller, so its previously armed wake-up no longer covers it.
    /// Each polled channel's next wake-up lands in `scratch.wakes`.
    ///
    /// Returns whether a read completion was delivered to a core (which
    /// moves that core's wake-up).
    fn step(
        &mut self,
        now: u64,
        tick_cluster: bool,
        backlog: &mut Vec<BacklogEntry>,
        scratch: &mut StepScratch,
    ) -> bool {
        self.visited_steps += 1;
        // 1. CPU side: collect new DRAM-bound requests, routing each to its
        //    channel once on arrival.
        if tick_cluster {
            let output = self.cluster.tick(now);
            backlog.extend(output.requests.into_iter().map(|(core, request)| {
                let channel = self.memory.route(request.address);
                BacklogEntry {
                    core,
                    request,
                    channel,
                }
            }));
        } else {
            self.cluster.credit_stalled_cycles(1);
        }

        // 2. Fan out as many backlog requests as their channels accept.  A
        //    full channel never blocks requests bound for other channels.
        //    The scan order (front to back, with `swap_remove` compaction)
        //    reproduces the single-controller forwarding order exactly when
        //    there is one channel, which keeps request ids — and therefore
        //    whole runs — bit-identical to the pre-subsystem wiring.
        let mut index = 0;
        while index < backlog.len() {
            if !self.memory.can_accept(backlog[index].channel) {
                index += 1;
                continue;
            }
            let entry = backlog.swap_remove(index);
            let id = self.next_controller_id;
            self.next_controller_id += 1;
            let request = if entry.request.is_write {
                MemoryRequest::write(id, entry.request.address, entry.core, now)
            } else {
                MemoryRequest::read(id, entry.request.address, entry.core, now)
            };
            let accepted = self.memory.enqueue(entry.channel, request);
            debug_assert!(accepted);
            scratch.due[entry.channel as usize] = true;
            if !entry.request.is_write && entry.core != u32::MAX {
                self.inflight.insert(id, (entry.core, entry.request.id));
            }
        }

        // 3. Memory side: poll the due channels and merge the per-channel
        //    completions back into the in-flight map.
        self.memory.tick_due(
            now,
            &scratch.due,
            &mut scratch.completions,
            &mut scratch.wakes,
        );
        let mut delivered = false;
        for completion in scratch.completions.drain(..) {
            if completion.kind == RequestKind::Read {
                if let Some((core, core_req_id)) = self.inflight.remove(&completion.id) {
                    self.cluster.on_memory_completion(core, core_req_id);
                    delivered = true;
                }
            }
        }
        delivered
    }

    /// Collects the final statistics after the last settled tick.
    fn finish(self, elapsed_ticks: u64) -> SystemResult {
        SystemResult {
            core_stats: self.cluster.core_stats(),
            controller_stats: self.memory.aggregated_controller_stats(),
            dram_stats: self.memory.aggregated_dram_stats(),
            channel_stats: self.memory.channel_stats(),
            rfm_log: self.memory.merged_rfm_log(),
            elapsed_ticks,
            completed: self.cluster.all_finished(),
        }
    }

    /// The legacy main loop: one tick per iteration, from a resume point
    /// to an optional pause bound.
    ///
    /// Processes ticks `[now, min(pause_at, max_ticks))` — pausing at `P`
    /// leaves the system in exactly the state an uninterrupted run has
    /// after settling ticks `[0, P)`, so resuming from the returned
    /// [`PausedSimulation`] replays the cold run bit for bit.
    fn run_ticked_from(
        mut self,
        mut now: u64,
        mut backlog: Vec<BacklogEntry>,
        pause_at: Option<u64>,
    ) -> PrefixOutcome {
        let bound = pause_at.unwrap_or(self.max_ticks).min(self.max_ticks);
        // The tick engine visits every tick, so every channel is due every
        // tick (`step` only ever sets flags, never clears them), and it never
        // asks the cluster for wake-ups, so `CpuCluster::tick` ticks every
        // unfinished core every cycle: this loop is the ungated oracle.
        let mut scratch = StepScratch::new(self.memory.channels() as usize);
        while now < bound && !self.cluster.all_finished() {
            self.step(now, true, &mut backlog, &mut scratch);
            now += 1;
        }
        if now < self.max_ticks && !self.cluster.all_finished() {
            // Only the pause bound stopped the loop.
            return PrefixOutcome::Paused(PausedSimulation::new(self, now, backlog));
        }
        PrefixOutcome::Finished(self.finish(now))
    }

    /// The event-driven main loop: settle a tick, re-arm the wake-ups of the
    /// components it touched, jump to the earliest one — from a resume
    /// point to an optional pause bound.
    ///
    /// Skipped ticks are exactly the ticks the tick engine would process as
    /// no-ops, except that each of them would have aged every unfinished
    /// core by one cycle — which [`CpuCluster::credit_stalled_cycles`]
    /// accounts for in bulk, keeping the per-core cycle counts (and thus
    /// IPC, slowdown and energy inputs) bit-identical.
    ///
    /// Each visited tick polls only the channels whose wheel slot fired
    /// there (plus those a request was fanned out to), and ticks the CPU
    /// cluster only when its own slot fired; otherwise every unfinished core
    /// is credited one stalled cycle.  Within a cluster tick, only the cores
    /// whose own wake-up is due run (see [`CpuCluster::tick`]).
    ///
    /// Pausing at `P` stops *before* settling tick `P`, crediting only the
    /// skipped ticks strictly below it; the resumed run then visits `P`
    /// itself.  When the cold run would have skipped `P` as a no-op, the
    /// resumed visit is a pure no-op too (the engine purity contract) and
    /// ages each unfinished core by the same one cycle the cold run
    /// credited in bulk — so cycle counts stay bit-identical either way.
    ///
    /// The event wheel is always rebuilt from component wake-ups on the
    /// first iteration, so a resumed run starts with a fresh wheel rather
    /// than a captured one (the wheel is derived state).  The same holds
    /// for the due flags: the first step after a start or resume ticks the
    /// cluster and polls every channel, which over-polls harmlessly
    /// (polling ahead of a wake-up is a no-op) and converges to the exact
    /// fired set after one jump.
    fn run_event_from(
        mut self,
        mut now: u64,
        mut backlog: Vec<BacklogEntry>,
        pause_at: Option<u64>,
    ) -> PrefixOutcome {
        let channels = self.memory.channels() as usize;
        let mut wheel = EventWheel::with_slots(CHANNEL_SLOT_BASE + channels);
        let mut scratch = StepScratch::new(channels);
        let mut cluster_due = true;
        if now >= self.max_ticks || self.cluster.all_finished() {
            return PrefixOutcome::Finished(self.finish(now));
        }
        if let Some(pause) = pause_at {
            if now >= pause.min(self.max_ticks) {
                return PrefixOutcome::Paused(PausedSimulation::new(self, now, backlog));
            }
        }
        loop {
            // Invariant: now < max_ticks and at least one core is unfinished,
            // mirroring the tick engine's loop condition.
            let delivered = self.step(now, cluster_due, &mut backlog, &mut scratch);
            if self.cluster.all_finished() {
                now += 1;
                break;
            }
            // A cluster that was neither ticked nor handed a completion did
            // not change, so its armed wake-up is still exact.
            if cluster_due || delivered {
                wheel.reregister_slot(SLOT_CLUSTER, self.cluster.next_event_at(now));
            }
            // Each channel keeps its own wheel slot.  A channel that was
            // not polled this tick did not change state, so its armed
            // wake-up is still exact — only due channels need re-arming,
            // with the wake-up their poll returned.
            for (channel, is_due) in scratch.due.iter().enumerate() {
                if *is_due {
                    wheel.reregister_slot(CHANNEL_SLOT_BASE + channel, scratch.wakes[channel]);
                }
            }
            // Forwarding is pending when any backlog entry's own channel has
            // queue space (a full channel must not mask another channel's
            // waiting request).
            let forwarding = backlog
                .iter()
                .any(|entry| self.memory.can_accept(entry.channel))
                .then_some(now + 1);
            wheel.reregister_slot(SLOT_FORWARDING, forwarding);
            // No wake-up means the system is dead in the water (e.g. every
            // core waits on a completion that can never come); the tick
            // engine would spin to the cap, so jump there directly.
            let next = wheel
                .next_after(now)
                .unwrap_or(self.max_ticks)
                .min(self.max_ticks);
            // Clamp the jump to the pause bound: skipped ticks up to the
            // bound are credited exactly as the cold run credits them, and
            // the bound tick itself is left for the resumed run to settle.
            let next = match pause_at {
                Some(pause) if pause < self.max_ticks => next.min(pause),
                _ => next,
            };
            self.cluster.credit_stalled_cycles(next - now - 1);
            if pause_at == Some(next) && next < self.max_ticks {
                return PrefixOutcome::Paused(PausedSimulation::new(self, next, backlog));
            }
            if next >= self.max_ticks {
                now = self.max_ticks;
                break;
            }
            // The jump lands on `next`: tick the cluster and poll exactly
            // the channels whose slot is armed there.  (A forwarding wake-up
            // does not by itself make a channel due — fan-out marks the
            // target channel due inside `step` when a request actually
            // lands.)
            cluster_due = wheel.armed_at(SLOT_CLUSTER) == Some(next);
            for (channel, is_due) in scratch.due.iter_mut().enumerate() {
                *is_due = wheel.armed_at(CHANNEL_SLOT_BASE + channel) == Some(next);
            }
            now = next;
        }
        PrefixOutcome::Finished(self.finish(now))
    }

    /// Runs the simulation with its configured engine until it either
    /// completes or reaches `pause_at`, whichever comes first.
    ///
    /// A paused simulation has settled exactly the ticks `[0, pause_at)`;
    /// [`PausedSimulation::resume`] continues from there and produces a
    /// result bit-identical to an uninterrupted [`SystemSimulation::run`].
    pub fn run_until(self, pause_at: u64) -> PrefixOutcome {
        self.run_from(0, Vec::new(), Some(pause_at))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cpu_sim::trace::TraceOp;
    use prac_core::config::PracConfig;

    fn tiny_system(instr: u64, traces: Vec<Trace>) -> SystemSimulation {
        tiny_system_on(EngineKind::default(), instr, traces)
    }

    fn tiny_system_on(engine: EngineKind, instr: u64, traces: Vec<Trace>) -> SystemSimulation {
        let cores = traces.len() as u32;
        let mut cpu = CpuConfig::tiny_for_tests();
        cpu.cores = cores;
        let prac = PracConfig::builder().rowhammer_threshold(1024).build();
        let device = DramDeviceConfig {
            organization: dram_sim::org::DramOrganization::ddr5_32gb_quad_rank(),
            timing: dram_sim::timing::DramTimingParams::ddr5_8000b(),
            prac,
            queue_kind: prac_core::queue::QueueKind::SingleEntryFrequency,
            tref_every_n_refreshes: None,
        };
        let config = SystemConfig {
            cpu,
            device,
            controller: ControllerConfig::default(),
            instructions_per_core: instr,
            max_ticks: 50_000_000,
            engine,
        };
        SystemSimulation::new(config, traces)
    }

    fn memory_trace(base: u64, lines: u64) -> Trace {
        let ops = (0..lines)
            .flat_map(|i| [TraceOp::Load(base + i * 64), TraceOp::Compute(9)])
            .collect();
        Trace::new("mem", ops)
    }

    #[test]
    fn compute_only_system_finishes_quickly() {
        let traces = vec![
            Trace::new("c0", vec![TraceOp::Compute(16)]),
            Trace::new("c1", vec![TraceOp::Compute(16)]),
        ];
        let result = tiny_system(2_000, traces).run();
        assert!(result.completed);
        assert!(result.total_ipc() > 2.0);
        assert_eq!(result.controller_stats.reads_completed, 0);
    }

    #[test]
    fn memory_bound_system_reaches_dram_and_finishes() {
        let traces = vec![
            memory_trace(0x1_0000_0000, 4096),
            memory_trace(0x2_0000_0000, 4096),
        ];
        let result = tiny_system(5_000, traces).run();
        assert!(result.completed, "run hit the tick cap: {result:?}");
        assert!(result.controller_stats.reads_completed > 100);
        assert!(result.dram_stats.activations > 50);
        assert!(result.average_mpki() > 1.0);
        assert!(result.execution_time_ns() > 0.0);
    }

    #[test]
    fn refreshes_are_issued_during_long_runs() {
        let traces = vec![
            memory_trace(0x1_0000_0000, 8192),
            memory_trace(0x2_0000_0000, 8192),
        ];
        let result = tiny_system(20_000, traces).run();
        assert!(result.completed);
        // Runs longer than tREFI (15.6 K ticks) must contain refreshes.
        if result.elapsed_ticks > 20_000 {
            assert!(result.controller_stats.refreshes_issued > 0);
        }
    }

    #[test]
    fn engines_agree_on_a_memory_bound_system() {
        let traces = || {
            vec![
                memory_trace(0x1_0000_0000, 2048),
                memory_trace(0x2_0000_0000, 2048),
            ]
        };
        let ticked = tiny_system_on(EngineKind::Tick, 3_000, traces()).run();
        let evented = tiny_system_on(EngineKind::Event, 3_000, traces()).run();
        assert_eq!(ticked, evented, "engines must be cycle-exact");
        assert!(ticked.completed);
        assert!(!ticked.rfm_log.is_empty() || ticked.controller_stats.total_rfms() == 0);
    }

    /// The event engine ticks only the cores that are due, and the
    /// controller rescans its FR-FCFS choice only after an enqueue, an
    /// accepted DRAM command or a completion; the tick engine ticks every
    /// core on every cycle.  Both still agree bit for bit.
    #[test]
    fn event_engine_skips_idle_cores_and_repeat_scans() {
        let traces = || {
            (1..=4u64)
                .map(|core| memory_trace(core << 32, 2048))
                .collect::<Vec<_>>()
        };
        let ticked = tiny_system_on(EngineKind::Tick, 3_000, traces()).run();
        assert!(ticked.completed);
        // Pause both runs on their last tick to read the counters, then
        // finish them.
        let last = ticked.elapsed_ticks - 1;
        let counters = |engine| {
            let paused = tiny_system_on(engine, 3_000, traces())
                .run_until(last)
                .paused()
                .expect("the run is still going on its last tick");
            let sim = paused.simulation();
            let cycles: u64 = sim.cluster().core_stats().iter().map(|s| s.cycles).sum();
            let controller = sim.memory().controller(0);
            let stats = controller.stats();
            let completions = stats.reads_completed + stats.writes_completed;
            let enqueues = completions + controller.pending_requests() as u64;
            let commands = controller.device().stats().total_commands();
            let counts = (
                sim.visited_steps(),
                sim.cluster().core_ticks(),
                cycles,
                controller.polls(),
                controller.demand_scans(),
                1 + commands + enqueues + completions,
            );
            (counts, paused.resume())
        };

        let ((steps, core_ticks, cycles, _, _, _), result) = counters(EngineKind::Tick);
        assert_eq!(result, ticked);
        assert_eq!(steps, last);
        assert_eq!(
            core_ticks, cycles,
            "the tick engine ticks every core every cycle"
        );

        let ((steps, core_ticks, cycles, polls, scans, state_changes), result) =
            counters(EngineKind::Event);
        assert_eq!(result, ticked, "engines must be cycle-exact");
        assert!(steps < last);
        assert!(
            core_ticks < 4 * steps,
            "{core_ticks} core ticks over {steps} visited steps"
        );
        assert!(core_ticks < cycles);
        // One scan at most per change of what the choice depends on.
        assert!(polls > 0, "the controller was never polled");
        assert!(
            scans <= state_changes,
            "{scans} scans over {polls} polls but only {state_changes} state changes"
        );
    }

    #[test]
    fn max_ticks_cap_does_not_scale_down_with_channels() {
        // The livelock cap budgets one channel's bandwidth; a 4-channel
        // system retires instructions at least as fast, so the cap must be
        // exactly the single-channel cap — never smaller.
        for instr in [1_000u64, 1_000_000] {
            let one = SystemConfig::paper_default_with_channels(instr, 1);
            let four = SystemConfig::paper_default_with_channels(instr, 4);
            assert_eq!(one.max_ticks, four.max_ticks);
            assert_eq!(one.channels(), 1);
            assert_eq!(four.channels(), 4);
            assert_eq!(four.device.organization.channels, 4);
        }
        // And the plain constructor is the 1-channel case.
        assert_eq!(
            SystemConfig::paper_default(5_000).max_ticks,
            SystemConfig::paper_default_with_channels(5_000, 4).max_ticks
        );
    }

    fn tiny_multi_channel_system(
        channels: u32,
        instr: u64,
        traces: Vec<Trace>,
    ) -> SystemSimulation {
        let mut sim_config = {
            let cores = traces.len() as u32;
            let mut cpu = CpuConfig::tiny_for_tests();
            cpu.cores = cores;
            let prac = PracConfig::builder().rowhammer_threshold(1024).build();
            let device = DramDeviceConfig {
                organization: dram_sim::org::DramOrganization::ddr5_32gb_quad_rank()
                    .with_channels(channels),
                timing: dram_sim::timing::DramTimingParams::ddr5_8000b(),
                prac,
                queue_kind: prac_core::queue::QueueKind::SingleEntryFrequency,
                tref_every_n_refreshes: None,
            };
            SystemConfig {
                cpu,
                device,
                controller: ControllerConfig::default(),
                instructions_per_core: instr,
                max_ticks: 50_000_000,
                engine: EngineKind::default(),
            }
        };
        sim_config.cpu.cores = traces.len() as u32;
        SystemSimulation::new(sim_config, traces)
    }

    #[test]
    fn multi_channel_system_completes_with_per_channel_stats() {
        let traces = vec![
            memory_trace(0x1_0000_0000, 4096),
            memory_trace(0x2_0000_0000, 4096),
        ];
        let result = tiny_multi_channel_system(4, 5_000, traces).run();
        assert!(result.completed, "run hit the tick cap: {result:?}");
        assert_eq!(result.channel_stats.len(), 4);
        // The aggregate equals the sum of the per-channel blocks.
        let reads: u64 = result
            .channel_stats
            .iter()
            .map(|c| c.controller.reads_completed)
            .sum();
        assert_eq!(reads, result.controller_stats.reads_completed);
        let activations: u64 = result
            .channel_stats
            .iter()
            .map(|c| c.dram.activations)
            .sum();
        assert_eq!(activations, result.dram_stats.activations);
        // With cache-line interleave, a streaming workload exercises more
        // than one channel.
        let busy_channels = result
            .channel_stats
            .iter()
            .filter(|c| c.controller.reads_completed > 0)
            .count();
        assert!(busy_channels > 1, "traffic never spread across channels");
    }

    /// Streaming-load system with the paper's CPU (deep MSHRs) so DRAM
    /// bandwidth, not dependent-load latency, is the bottleneck.
    fn streaming_system(
        channels: u32,
        interleave: memctrl::mapping::ChannelInterleave,
    ) -> SystemSimulation {
        let traces: Vec<Trace> = [0x1_0000_0000u64, 0x2_0000_0000]
            .into_iter()
            .map(|base| {
                let ops = (0..4096u64).map(|i| TraceOp::Load(base + i * 64)).collect();
                Trace::new("stream", ops)
            })
            .collect();
        let mut cpu = CpuConfig::paper_default();
        cpu.cores = 2;
        let prac = PracConfig::builder().rowhammer_threshold(1024).build();
        let device = DramDeviceConfig {
            organization: dram_sim::org::DramOrganization::ddr5_32gb_quad_rank()
                .with_channels(channels),
            timing: dram_sim::timing::DramTimingParams::ddr5_8000b(),
            prac,
            queue_kind: prac_core::queue::QueueKind::SingleEntryFrequency,
            tref_every_n_refreshes: None,
        };
        let config = SystemConfig {
            cpu,
            device,
            controller: ControllerConfig {
                channel_interleave: interleave,
                ..ControllerConfig::default()
            },
            instructions_per_core: 4_000,
            max_ticks: 50_000_000,
            engine: EngineKind::default(),
        };
        SystemSimulation::new(config, traces)
    }

    #[test]
    fn extra_channels_speed_up_bandwidth_bound_runs() {
        use memctrl::mapping::ChannelInterleave;
        // Row-granularity interleave preserves each stream's row locality
        // per channel, so bandwidth-bound runs speed up monotonically with
        // the channel count.  (Cache-line interleave can interact with the
        // stride prefetcher and is exercised by the scaling campaign
        // instead.)
        let mut previous = u64::MAX;
        for channels in [1u32, 2, 4] {
            let result = streaming_system(channels, ChannelInterleave::Row).run();
            assert!(result.completed, "ch={channels} hit the tick cap");
            assert!(
                result.elapsed_ticks < previous,
                "{channels} channels ({} ticks) should beat the previous \
                 config ({previous} ticks) on streaming traffic",
                result.elapsed_ticks
            );
            previous = result.elapsed_ticks;
        }
        // Cache-line interleave also beats the single channel at 2 channels.
        let one = streaming_system(1, ChannelInterleave::CacheLine).run();
        let two = streaming_system(2, ChannelInterleave::CacheLine).run();
        assert!(two.elapsed_ticks < one.elapsed_ticks);
    }

    #[test]
    fn total_ipc_sums_cores() {
        let traces = vec![
            Trace::new("c0", vec![TraceOp::Compute(4)]),
            Trace::new("c1", vec![TraceOp::Compute(4)]),
        ];
        let result = tiny_system(1_000, traces).run();
        let manual: f64 = result.core_stats.iter().map(|s| s.ipc()).sum();
        assert!((result.total_ipc() - manual).abs() < 1e-12);
    }
}
