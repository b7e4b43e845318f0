//! Pause and fork: pause a simulation mid-run, fork the complete system
//! state, and resume each fork independently.
//!
//! Cells of a paper-scale campaign that differ only in the mitigation knobs
//! share a mitigation-free prefix, and this module can simulate that prefix
//! once and fork it per cell:
//!
//! ```text
//!   SystemSimulation::run_until(P) ──▶ PrefixOutcome::Paused(prefix)
//!        │ fork()        │ fork()
//!        ▼               ▼
//!   refit_mitigation   refit_mitigation
//!        │ resume()      │ resume()
//!        ▼               ▼
//!   SystemResult      SystemResult        (bit-identical to cold runs)
//! ```
//!
//! # Correctness model
//!
//! A [`PausedSimulation`] at tick `P` holds exactly the state an
//! uninterrupted run has after settling ticks `[0, P)` — both engines pause
//! on that boundary ([`SystemSimulation::run_until`]), so `resume()` replays
//! the cold run bit for bit (`tests/fork_equivalence.rs` pins this across
//! the full mitigation × attack registries).
//!
//! Refitting the mitigation configuration at the fork point is additionally
//! conditioned on the prefix being *mitigation-free* so far
//! ([`PausedSimulation::is_mitigation_free`]): every built-in engine derives
//! its schedule from absolute deadlines anchored at tick 0, so a freshly
//! built engine at `P` equals a cold engine that has idled through `[0, P)`
//! — but only while no RFM, Alert or counter reset has fired yet.  A caller
//! computes the static per-policy divergence horizon ([`fork_horizon`]) and
//! backs it with this runtime guard, falling back to a cold run on
//! violation.
//!
//! # Who forks
//!
//! The campaign executor does not: at paper scale the shared prefix is
//! 1–3% of the simulated cycles, and the fork costs more wall time than
//! the cycles it skips (see the README's grouped-execution section).
//! `campaign::exec::execute_perf_group` shares traces and the baseline leg
//! instead and runs every protected leg cold.  This layer stays, guarded by
//! `tests/fork_equivalence.rs`, because the benchmark's traced pass
//! re-drives it.

use dram_sim::device::DramDeviceConfig;
use prac_core::config::{MitigationPolicy, PracConfig};

use crate::system::{BacklogEntry, SystemResult, SystemSimulation};

/// The earliest tick at which a cold run under `device`'s mitigation
/// configuration could diverge from a cold run of the same system with
/// mitigation disabled — i.e. how far a shared mitigation-free prefix may
/// safely extend before forking into this configuration.
///
/// The bound is conservative (never late): each term is the soonest the
/// policy could take its *first* visible action, assuming every activation
/// lands back-to-back at the tRC floor.
///
/// * Alert Back-Off (every non-disabled policy): a row counter reaches
///   `NBO` no earlier than `(NBO - 1) x tRC`.
/// * ACB-RFM: a bank reaches the Bank-Activation threshold no earlier than
///   `(BAT - 1) x tRC`.
/// * TPRAC: the first TB-RFM deadline is one TB-Window from tick 0, and
///   the first Targeted Refresh lands at the `n`-th REF (`n x tREFI`).
/// * PRFM: the first periodic RFM is due `every_trefi x tREFI` from tick 0.
/// * PARA: every activation may draw an RFM, so the horizon is zero (such
///   cells must run cold).
///
/// Every horizon is additionally capped at `tREFW`, where the per-row
/// counter-reset schedules of different configurations first disagree.
#[must_use]
pub fn fork_horizon(device: &DramDeviceConfig) -> u64 {
    let t = &device.timing;
    let prac = &device.prac;
    let acts = |count: u32| u64::from(count.saturating_sub(1)).saturating_mul(t.t_rc);
    let alert = acts(prac.back_off_threshold);
    let policy_horizon = match &prac.policy {
        MitigationPolicy::Disabled => u64::MAX,
        MitigationPolicy::AboOnly => alert,
        MitigationPolicy::AboPlusAcbRfm => alert.min(acts(prac.bank_activation_threshold)),
        MitigationPolicy::Tprac(tprac) => {
            let tref = match device.tref_every_n_refreshes {
                Some(n) if n > 0 => u64::from(n).saturating_mul(t.t_refi),
                _ => u64::MAX,
            };
            alert.min(tprac.tb_window_ticks).min(tref)
        }
        MitigationPolicy::PeriodicRfm { every_trefi } => {
            alert.min(u64::from((*every_trefi).max(1)).saturating_mul(t.t_refi))
        }
        MitigationPolicy::Para { .. } => 0,
    };
    policy_horizon.min(t.t_refw)
}

/// What [`SystemSimulation::run_until`] produced: either the run ended
/// (completion or tick cap) before the pause bound, or it paused there.
#[derive(Debug)]
pub enum PrefixOutcome {
    /// The run finished before reaching the pause bound.
    Finished(SystemResult),
    /// The run paused at the bound with its full state captured.
    Paused(PausedSimulation),
}

impl PrefixOutcome {
    /// Unwraps the finished result.
    ///
    /// # Panics
    ///
    /// Panics when the run paused instead — used by the unbounded run paths
    /// (`pause_at: None`), which can never pause.
    #[must_use]
    pub fn expect_finished(self, context: &str) -> SystemResult {
        match self {
            PrefixOutcome::Finished(result) => result,
            PrefixOutcome::Paused(paused) => {
                panic!(
                    "{context}: run unexpectedly paused at tick {}",
                    paused.now()
                )
            }
        }
    }

    /// The paused simulation, if the run paused.
    #[must_use]
    pub fn paused(self) -> Option<PausedSimulation> {
        match self {
            PrefixOutcome::Finished(_) => None,
            PrefixOutcome::Paused(paused) => Some(paused),
        }
    }
}

/// A simulation paused at a tick boundary: the complete system state plus
/// the bits of engine-loop state (current tick, un-forwarded request
/// backlog) needed to continue exactly where the run left off.
///
/// The event wheel (including its per-channel slots) and the per-channel
/// due mask are *not* captured: both are derived state that the event
/// engine's main loop rebuilds on its first iteration — the resumed run
/// starts with every channel due, which over-polls harmlessly and
/// converges to the exact fired set after one jump.
///
/// Cloning ([`PausedSimulation::fork`]) deep-copies everything, so one
/// captured prefix can seed arbitrarily many divergent continuations.
#[derive(Debug, Clone)]
pub struct PausedSimulation {
    sim: SystemSimulation,
    now: u64,
    backlog: Vec<BacklogEntry>,
}

impl PausedSimulation {
    pub(crate) fn new(sim: SystemSimulation, now: u64, backlog: Vec<BacklogEntry>) -> Self {
        Self { sim, now, backlog }
    }

    /// The tick the simulation paused at: ticks `[0, now)` are settled.
    #[must_use]
    pub fn now(&self) -> u64 {
        self.now
    }

    /// The paused system state (read-only).
    #[must_use]
    pub fn simulation(&self) -> &SystemSimulation {
        &self.sim
    }

    /// Deep-copies the paused state — the fork primitive.  The original
    /// stays paused and can keep seeding further forks.
    #[must_use]
    pub fn fork(&self) -> Self {
        self.clone()
    }

    /// `true` while no mitigation action has fired anywhere in the system:
    /// no RFM of any kind, no Alert assertion, no PRAC counter reset.
    ///
    /// This is the runtime guard behind
    /// [`PausedSimulation::refit_mitigation`]: a mitigation-free prefix is
    /// policy-independent by construction, so re-deriving the
    /// policy-dependent components from a different configuration cannot
    /// diverge from that configuration's cold run.
    #[must_use]
    pub fn is_mitigation_free(&self) -> bool {
        let controller = self.sim.memory().aggregated_controller_stats();
        let dram = self.sim.memory().aggregated_dram_stats();
        controller.total_rfms() == 0
            && dram.alerts_asserted == 0
            && dram.counter_resets == 0
            && dram.rows_mitigated_by_tref == 0
    }

    /// Re-targets the fork at a different mitigation configuration: the
    /// per-channel engines, ABO responders and device-side PRAC parameters
    /// are rebuilt from `prac` exactly as a cold
    /// [`crate::subsystem::MemorySubsystem::new`] derives them, while all
    /// accumulated state (pipelines, caches, queues, bank counters) carries
    /// over.
    ///
    /// # Panics
    ///
    /// Panics when the prefix is not mitigation-free
    /// ([`PausedSimulation::is_mitigation_free`]) — the caller must check
    /// first and fall back to a cold run.
    pub fn refit_mitigation(&mut self, prac: &PracConfig, tref_every_n_refreshes: Option<u32>) {
        assert!(
            self.is_mitigation_free(),
            "refusing to refit a prefix that already mitigated (fork would \
             diverge from a cold run)"
        );
        self.sim
            .memory_mut()
            .refit_mitigation(prac, tref_every_n_refreshes);
    }

    /// Resumes the paused run to completion (or the tick cap) with the
    /// simulation's configured engine, returning a result bit-identical to
    /// the uninterrupted run.
    #[must_use]
    pub fn resume(self) -> SystemResult {
        self.sim
            .run_from(self.now, self.backlog, None)
            .expect_finished("resume without a pause bound")
    }
}

#[cfg(test)]
mod tests {
    use cpu_sim::config::CpuConfig;
    use cpu_sim::trace::{Trace, TraceOp};
    use dram_sim::device::DramDeviceConfig;
    use memctrl::controller::ControllerConfig;
    use prac_core::config::{MitigationPolicy, PracConfig};

    use crate::event::EngineKind;
    use crate::system::{SystemConfig, SystemSimulation};

    fn memory_trace(base: u64, lines: u64) -> Trace {
        let ops = (0..lines)
            .flat_map(|i| [TraceOp::Load(base + i * 64), TraceOp::Compute(9)])
            .collect();
        Trace::new("mem", ops)
    }

    fn tiny_system(engine: EngineKind, prac: PracConfig) -> SystemSimulation {
        let traces = vec![
            memory_trace(0x1_0000_0000, 2048),
            memory_trace(0x2_0000_0000, 2048),
        ];
        let mut cpu = CpuConfig::tiny_for_tests();
        cpu.cores = traces.len() as u32;
        let device = DramDeviceConfig {
            organization: dram_sim::org::DramOrganization::ddr5_32gb_quad_rank(),
            timing: dram_sim::timing::DramTimingParams::ddr5_8000b(),
            prac,
            tref_every_n_refreshes: None,
        };
        let config = SystemConfig {
            cpu,
            device,
            controller: ControllerConfig::default(),
            instructions_per_core: 3_000,
            max_ticks: 50_000_000,
            engine,
        };
        SystemSimulation::new(config, traces)
    }

    fn benign_prac() -> PracConfig {
        PracConfig::builder().rowhammer_threshold(1024).build()
    }

    #[test]
    fn pause_resume_is_bit_identical_on_both_engines() {
        for engine in [EngineKind::Tick, EngineKind::Event] {
            let cold = tiny_system(engine, benign_prac()).run();
            assert!(cold.completed);
            let late = cold.elapsed_ticks.saturating_sub(2).max(1);
            for pause in [1, 137, 10_000, late] {
                let paused = tiny_system(engine, benign_prac())
                    .run_until(pause)
                    .paused()
                    .unwrap_or_else(|| panic!("{engine:?} finished before tick {pause}"));
                assert!(paused.now() <= pause);
                let warm = paused.resume();
                assert_eq!(cold, warm, "{engine:?} diverged after pausing at {pause}");
            }
        }
    }

    #[test]
    fn forks_of_one_prefix_are_independent_and_identical() {
        let cold = tiny_system(EngineKind::Event, benign_prac()).run();
        let paused = tiny_system(EngineKind::Event, benign_prac())
            .run_until(cold.elapsed_ticks / 2)
            .paused()
            .expect("run outlives its own midpoint");
        let a = paused.fork().resume();
        let b = paused.fork().resume();
        assert_eq!(a, cold);
        assert_eq!(b, cold);
    }

    #[test]
    fn pause_past_the_end_just_finishes() {
        let outcome = tiny_system(EngineKind::Event, benign_prac()).run_until(u64::MAX - 1);
        let result = outcome.expect_finished("run ends before u64::MAX");
        assert!(result.completed);
    }

    #[test]
    fn refit_from_disabled_prefix_matches_cold_protected_run() {
        // The campaign fork path: simulate the prefix under the
        // mitigation-free baseline, refit each fork to its protected
        // configuration, and require bit-identity with the cold run.
        let disabled = PracConfig::builder()
            .rowhammer_threshold(1024)
            .policy(MitigationPolicy::Disabled)
            .build();
        let protected = benign_prac();
        assert_ne!(disabled.policy, protected.policy);
        for engine in [EngineKind::Tick, EngineKind::Event] {
            let cold = tiny_system(engine, protected.clone()).run();
            let paused = tiny_system(engine, disabled.clone())
                .run_until(5_000)
                .paused()
                .expect("outlives tick 5000");
            assert!(paused.is_mitigation_free());
            let mut fork = paused.fork();
            fork.refit_mitigation(&protected, None);
            assert_eq!(fork.resume(), cold, "{engine:?} refit diverged");
        }
    }
}
