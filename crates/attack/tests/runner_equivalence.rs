//! Differential suite: the event-driven [`MultiAgentRunner`] against a
//! per-tick oracle.
//!
//! The oracle is the runner's former loop: on *every* tick it lets each idle
//! agent enqueue, then ticks the controller.  The event-driven runner only
//! skips ticks that loop spends as no-ops, so the two must agree exactly:
//! every recorded access's issue and completion tick, the stop tick, the
//! controller and DRAM statistics, the RFM log and the distilled
//! [`AdversaryOutcome`].
//!
//! The full attack × mitigation × NRH × seed sweep is `#[ignore]`d for debug
//! runs; CI runs it in release mode:
//!
//! ```text
//! cargo test --release -p pracleak --test runner_equivalence -- --include-ignored
//! ```

use dram_sim::stats::DramStats;
use memctrl::controller::MemoryController;
use memctrl::mapping::AddressMap;
use memctrl::request::MemoryRequest;
use memctrl::rfm::RfmKind;
use memctrl::stats::ControllerStats;
use prac_core::config::MitigationPolicy;
use prac_core::timing::DramTimingSummary;
use prac_core::tprac::TrefRate;
use pracleak::agents::{AgentAction, MemoryAgent, RecordedAccess};
use pracleak::covert::ActivitySender;
use pracleak::{run_adversary, AdversaryOutcome, AttackSetup, MultiAgentRunner};
use pracleak::{PatternAgent, SerializedAccessAgent};
use system_sim::experiment::{mitigation_registry, MitigationSetup};
use workloads::attack::{attack_registry, AttackKind};

/// Ticks an attack cell may spend per access (the `attacks` campaign's cap).
const TICKS_PER_ACCESS: u64 = 4_000;

/// The per-tick runner loop the event-driven runner replaced.
struct TickOracle {
    controller: MemoryController,
    now: u64,
    next_request_id: u64,
}

impl TickOracle {
    fn new(controller: MemoryController) -> Self {
        Self {
            controller,
            now: 0,
            next_request_id: 0,
        }
    }

    fn run(&mut self, agents: &mut [&mut dyn MemoryAgent], max_ticks: u64) -> u64 {
        let deadline = self.now + max_ticks;
        let mut outstanding: Vec<Option<(u64, u64)>> = vec![None; agents.len()];
        while self.now < deadline {
            if agents.iter().all(|a| a.is_done()) && outstanding.iter().all(Option::is_none) {
                break;
            }
            for (idx, agent) in agents.iter_mut().enumerate() {
                if outstanding[idx].is_some() || agent.is_done() {
                    continue;
                }
                if !self.controller.can_accept() {
                    break;
                }
                if let AgentAction::Access(address) = agent.next_action(self.now) {
                    let id = self.next_request_id;
                    self.next_request_id += 1;
                    assert!(self
                        .controller
                        .enqueue(MemoryRequest::read(id, address, idx as u32, self.now)));
                    outstanding[idx] = Some((self.now, address));
                }
            }
            for completion in self.controller.tick(self.now) {
                let idx = completion.core as usize;
                if let Some((issue_tick, address)) = outstanding[idx].take() {
                    agents[idx].on_completion(RecordedAccess {
                        issue_tick,
                        completion_tick: completion.completion_tick,
                        address,
                    });
                }
            }
            self.now += 1;
        }
        self.now
    }
}

/// Forwards to an agent (its `wake_at` included) and logs every completed
/// access, so agents that keep no history can be compared access by access.
#[derive(Debug)]
struct Recorder<A> {
    inner: A,
    log: Vec<RecordedAccess>,
}

impl<A> Recorder<A> {
    fn new(inner: A) -> Self {
        Self {
            inner,
            log: Vec::new(),
        }
    }
}

impl<A: MemoryAgent> MemoryAgent for Recorder<A> {
    fn next_action(&mut self, now: u64) -> AgentAction {
        self.inner.next_action(now)
    }

    fn on_completion(&mut self, access: RecordedAccess) {
        self.log.push(access);
        self.inner.on_completion(access);
    }

    fn is_done(&self) -> bool {
        self.inner.is_done()
    }

    fn wake_at(&self, now: u64) -> u64 {
        self.inner.wake_at(now)
    }
}

/// Everything a run leaves behind in the controller, plus its stop tick.
#[derive(Debug, PartialEq)]
struct Observed {
    stopped_at: u64,
    controller: ControllerStats,
    dram: DramStats,
    rfm_log: Vec<(u64, RfmKind)>,
}

fn observe(controller: &MemoryController, stopped_at: u64) -> Observed {
    Observed {
        stopped_at,
        controller: *controller.stats(),
        dram: *controller.device().stats(),
        rfm_log: controller.rfm_log().to_vec(),
    }
}

/// The two runners over clones of one controller.
struct Race {
    event: MultiAgentRunner,
    oracle: TickOracle,
}

impl Race {
    fn new(controller: MemoryController) -> Self {
        Self {
            event: MultiAgentRunner::new(controller.clone()),
            oracle: TickOracle::new(controller),
        }
    }

    /// Runs `event_agents` on the event-driven runner and `oracle_agents`
    /// (identical copies) on the oracle, and requires identical results.
    fn run(
        &mut self,
        event_agents: &mut [&mut dyn MemoryAgent],
        oracle_agents: &mut [&mut dyn MemoryAgent],
        max_ticks: u64,
        context: &str,
    ) -> Observed {
        let event_stop = self.event.run(event_agents, max_ticks);
        let oracle_stop = self.oracle.run(oracle_agents, max_ticks);
        let event = observe(self.event.controller(), event_stop);
        assert_eq!(
            event,
            observe(&self.oracle.controller, oracle_stop),
            "{context}"
        );
        event
    }
}

/// The agent `run_adversary` builds for one cell.
fn pattern_agent(
    attack: &AttackKind,
    controller: &MemoryController,
    accesses: u64,
    seed: u64,
) -> Recorder<PatternAgent> {
    let org = controller.device().config().organization;
    let t_refi = controller.device().config().timing.t_refi;
    Recorder::new(PatternAgent::new(
        attack.stream(&org, t_refi, seed),
        AddressMap::new(controller.config().mapping, org),
        accesses,
    ))
}

/// The outcome `run_adversary` distils from a finished run.
fn outcome(agent: &PatternAgent, observed: &Observed, accesses: u64) -> AdversaryOutcome {
    AdversaryOutcome {
        accesses_completed: agent.completed(),
        elapsed_ticks: observed.stopped_at,
        max_row_activations: observed.dram.max_row_counter,
        aggressor_rows: agent.aggressor_rows(),
        aggressor_coverage: agent.aggressor_coverage(),
        rfms_triggered: observed.controller.total_rfms(),
        abo_events: observed.dram.alerts_asserted,
        activations: observed.dram.activations,
        completed: agent.completed() == accesses,
    }
}

/// Races one attack cell and checks `run_adversary` reports the same
/// outcome.
fn race_attack(attack: &AttackKind, setup: &AttackSetup, accesses: u64, seed: u64, label: &str) {
    let context = format!("{label} / {} / seed {seed}", attack.slug());
    let max_ticks = accesses * TICKS_PER_ACCESS;
    let controller = setup.build_controller();
    let mut event_agent = pattern_agent(attack, &controller, accesses, seed);
    let mut oracle_agent = pattern_agent(attack, &controller, accesses, seed);
    let observed = Race::new(controller).run(
        &mut [&mut event_agent],
        &mut [&mut oracle_agent],
        max_ticks,
        &context,
    );
    assert_eq!(event_agent.log, oracle_agent.log, "{context}");
    let event_outcome = outcome(&event_agent.inner, &observed, accesses);
    assert_eq!(
        event_outcome,
        outcome(&oracle_agent.inner, &observed, accesses),
        "{context}"
    );
    assert_eq!(
        run_adversary(attack, setup, accesses, max_ticks, seed),
        event_outcome,
        "{context}: run_adversary"
    );
}

/// The defended set-up the `attacks` campaign builds for a registry entry;
/// `None` when the setup cannot be configured at `nrh`.
fn campaign_setup(setup: &MitigationSetup, nrh: u32) -> Option<AttackSetup> {
    let resolved = setup.resolve(nrh, &DramTimingSummary::ddr5_8000b()).ok()?;
    Some(
        AttackSetup::new(nrh)
            .with_policy(resolved.policy)
            .with_counter_reset(resolved.counter_reset)
            .with_tref_every(resolved.tref_every_n_refreshes)
            .with_refresh(true),
    )
}

/// The set-ups raced at `nrh`: the covert drivers' default (ABO only,
/// refresh off, so no refresh wake-up can mask a late agent wake-up)
/// followed by each given mitigation as the `attacks` campaign configures
/// it.
fn setups(nrh: u32, mitigations: &[MitigationSetup]) -> Vec<(String, AttackSetup)> {
    let mut setups = vec![("default".to_string(), AttackSetup::new(nrh))];
    for mitigation in mitigations {
        if let Some(setup) = campaign_setup(mitigation, nrh) {
            setups.push((format!("{} @ NRH {nrh}", mitigation.slug()), setup));
        }
    }
    setups
}

/// The tier-1 slice: every registered pattern under the default set-up and
/// TPRAC at NRH 256, on a short budget.
#[test]
fn runners_agree_on_every_pattern_under_default_and_tprac() {
    let tprac = MitigationSetup::Tprac {
        tref_rate: TrefRate::None,
        counter_reset: true,
    };
    for (label, setup) in setups(256, &[tprac]) {
        for kind in attack_registry() {
            race_attack(&kind, &setup, 400, 0, &label);
        }
    }
}

/// The full sweep: every registered pattern × every registered mitigation
/// (plus the default set-up) × NRH {256, 1024} × two seeds, on the
/// `attacks` campaign's budgets.
#[test]
#[ignore = "heavy sweep; run in release via the CI runner-equivalence step"]
fn runners_agree_across_attack_and_mitigation_registries() {
    let mitigations = mitigation_registry();
    for nrh in [256, 1024] {
        for (label, setup) in setups(nrh, &mitigations) {
            for kind in attack_registry() {
                let accesses = kind.accesses_to_breach(nrh) * 5 / 4;
                for seed in [0, 7] {
                    race_attack(&kind, &setup, accesses, seed, &label);
                }
            }
        }
    }
}

fn spy_and_trojan(
    controller: &MemoryController,
    setup: &AttackSetup,
) -> [SerializedAccessAgent; 2] {
    let spy_rows = (0..8).map(|r| setup.row_address(controller, 2, 500 + r, 0));
    let trojan_row = setup.row_address(controller, 0, 99, 0);
    [
        SerializedAccessAgent::new(spy_rows.collect(), 300).with_think_time(450),
        SerializedAccessAgent::new(vec![trojan_row], 200).starting_at(20_000),
    ]
}

/// Two agents in different banks, one with think time and one starting
/// late, under ABO at a low threshold: the trojan's Alerts stall the spy.
#[test]
fn runners_agree_with_two_agents_in_different_banks() {
    let setup = AttackSetup::new(64);
    let controller = setup.build_controller();
    let [mut spy, mut trojan] = spy_and_trojan(&controller, &setup);
    let [mut spy_copy, mut trojan_copy] = spy_and_trojan(&controller, &setup);
    let observed = Race::new(controller).run(
        &mut [&mut spy, &mut trojan],
        &mut [&mut spy_copy, &mut trojan_copy],
        10_000_000,
        "spy + trojan",
    );
    assert!(spy.is_done() && trojan.is_done());
    assert!(observed.controller.abo_rfms > 0, "{observed:?}");
    assert_eq!(spy.history, spy_copy.history);
    assert_eq!(trojan.history, trojan_copy.history);
    assert!(trojan.history[0].issue_tick >= 20_000);
}

/// A `max_ticks` cut-off in the middle of a flight, then a second run on
/// the same runner (the covert driver's two-phase shape): the dropped
/// in-flight access and the resumed clock must match too.
#[test]
fn runners_agree_across_a_mid_flight_cutoff_and_a_resumed_run() {
    let setup = AttackSetup::new(256).with_policy(MitigationPolicy::PeriodicRfm { every_trefi: 1 });
    let controller = setup.build_controller();
    let rows = vec![
        setup.row_address(&controller, 1, 7, 0),
        setup.row_address(&controller, 1, 9, 0),
    ];
    let agent = || SerializedAccessAgent::new(rows.clone(), 400).with_think_time(123);

    // Find a tick strictly inside some access's flight.
    let mut probe = agent();
    MultiAgentRunner::new(controller.clone()).run(&mut [&mut probe], 10_000_000);
    let flight = probe.history[150];
    let cutoff = (flight.issue_tick + flight.completion_tick) / 2;
    assert!(flight.issue_tick < cutoff && cutoff < flight.completion_tick);

    let mut race = Race::new(controller);
    let (mut event_agent, mut oracle_agent) = (agent(), agent());
    let cut = race.run(
        &mut [&mut event_agent],
        &mut [&mut oracle_agent],
        cutoff,
        "cut-off run",
    );
    assert_eq!(cut.stopped_at, cutoff);
    assert_eq!(event_agent.history, oracle_agent.history);
    assert_eq!(event_agent.history.len(), 150);

    let late = || agent().starting_at(cutoff + 5_000);
    let (mut event_next, mut oracle_next) = (late(), late());
    race.run(
        &mut [&mut event_agent, &mut event_next],
        &mut [&mut oracle_agent, &mut oracle_next],
        10_000_000,
        "resumed run",
    );
    assert_eq!(event_agent.history, oracle_agent.history);
    assert_eq!(event_next.history, oracle_next.history);
    assert!(event_agent.is_done() && event_next.is_done());
}

/// The activity covert channel's shape: a sender hammering in its '1'
/// windows and sleeping through its '0' windows, next to a receiver timing
/// its own accesses in another bank.  Alone, a sender whose last window is
/// silent finishes without a completion, so the run must stop on the tick
/// after its last window, as the per-tick loop does.
#[test]
fn runners_agree_on_the_activity_covert_channel() {
    let nbo = 64;
    let window_ticks = 40_000;
    let bits = vec![true, false, false, true, true, false];
    let setup = AttackSetup::new(nbo);
    let controller = setup.build_controller();
    let sender_row = setup.row_address(&controller, 0, 99, 0);
    let receiver_rows: Vec<u64> = (0..16)
        .map(|r| setup.row_address(&controller, 2, 5_000 + r, 0))
        .collect();
    let sender = || ActivitySender::new(sender_row, bits.clone(), nbo, window_ticks);
    let receiver = || SerializedAccessAgent::new(receiver_rows.clone(), u64::MAX);
    let budget = window_ticks * (bits.len() as u64 + 1);

    let (mut event_sender, mut oracle_sender) = (sender(), sender());
    let (mut event_receiver, mut oracle_receiver) = (receiver(), receiver());
    let observed = Race::new(controller.clone()).run(
        &mut [&mut event_sender, &mut event_receiver],
        &mut [&mut oracle_sender, &mut oracle_receiver],
        budget,
        "sender + receiver",
    );
    assert!(observed.controller.abo_rfms > 0, "{observed:?}");
    assert_eq!(event_receiver.history, oracle_receiver.history);

    let (mut event_sender, mut oracle_sender) = (sender(), sender());
    let alone = Race::new(controller).run(
        &mut [&mut event_sender],
        &mut [&mut oracle_sender],
        budget,
        "sender alone",
    );
    assert!(event_sender.is_done());
    assert_eq!(alone.stopped_at, window_ticks * bits.len() as u64 + 1);
}

/// The skip counter: double-sided hammering under TPRAC spends ~290 ticks
/// per access, almost all of them idle.  A runner that silently fell back
/// to per-tick stepping would visit every one of them.
#[test]
fn event_runner_visits_under_a_tenth_of_the_ticks() {
    let tprac = MitigationSetup::Tprac {
        tref_rate: TrefRate::None,
        counter_reset: true,
    };
    let setup = campaign_setup(&tprac, 1024).expect("configurable at NRH 1024");
    let accesses = 2_000;
    let controller = setup.build_controller();
    let mut agent = pattern_agent(&AttackKind::DoubleSided, &controller, accesses, 0);
    let mut runner = MultiAgentRunner::new(controller);
    let elapsed_ticks = runner.run(&mut [&mut agent], accesses * TICKS_PER_ACCESS);
    assert_eq!(agent.inner.completed(), accesses);
    assert!(runner.controller().stats().tb_rfms > 0);
    assert!(
        runner.visited_ticks() * 10 < elapsed_ticks,
        "visited {} of {elapsed_ticks} ticks",
        runner.visited_ticks()
    );
}
