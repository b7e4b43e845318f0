//! Memory agents and the event-driven multi-agent runner.
//!
//! The PRACLeak experiments follow Ramulator2's trace mode: each actor
//! (victim, attacker, trojan, spy) is a stream of *dependent* memory accesses
//! — the next access is only issued once the previous one has completed, so
//! every access's latency is directly observable by the actor, exactly the
//! measurement a real attacker makes with a timed pointer chase.
//!
//! [`MultiAgentRunner`] multiplexes several agents onto one
//! [`MemoryController`].  On each tick it visits, it lets every idle agent
//! enqueue its next access, polls the controller, and routes completions
//! (with their latencies) back to the owning agent.  It does not visit every
//! tick: after a tick that delivered no completion it jumps straight to the
//! earliest of the wake-up [`MemoryController::poll`] returned, each idle
//! agent's [`MemoryAgent::wake_at`] and the run's deadline.  A tick that
//! delivered a completion is always followed by a visit to the next tick,
//! so the owning agent can issue again.
//!
//! The skipped ticks are exactly those a per-tick loop would spend as pure
//! no-ops, so every issue tick, completion tick, statistic and RFM log entry
//! is bit-identical to stepping one tick at a time
//! (`tests/runner_equivalence.rs` races the two).  That rests on the two
//! wake-up contracts: the controller's (see
//! [`MemoryController::next_event_at`], the oracle for `poll`'s wake-up)
//! and the agents'.  An agent's `wake_at(now)` must never return a tick at
//! or before `now`, and never a tick later than the first one at which its
//! `next_action` would issue, finish, or change any state.  Waking early is
//! always safe.

use memctrl::controller::MemoryController;
use memctrl::mapping::AddressMap;
use memctrl::request::MemoryRequest;
use prac_core::timing::ticks_to_ns;
use serde::{Deserialize, Serialize};
use workloads::attack::{AttackAccess, AttackStream};

/// Identifier of an agent within a [`MultiAgentRunner`].
pub type AgentId = u32;

/// One recorded access of an agent.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct RecordedAccess {
    /// Tick at which the access was enqueued.
    pub issue_tick: u64,
    /// Tick at which the data returned.
    pub completion_tick: u64,
    /// Physical address accessed.
    pub address: u64,
}

impl RecordedAccess {
    /// Observed latency in ticks.
    #[must_use]
    pub fn latency_ticks(&self) -> u64 {
        self.completion_tick.saturating_sub(self.issue_tick)
    }

    /// Observed latency in nanoseconds.
    #[must_use]
    pub fn latency_ns(&self) -> f64 {
        ticks_to_ns(self.latency_ticks())
    }
}

/// What an agent wants to do when asked for its next access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AgentAction {
    /// Issue a read to the given physical address.
    Access(u64),
    /// Do nothing this tick (the agent is waiting for a point in time).
    Idle,
    /// The agent has finished its script.
    Done,
}

/// An actor issuing serialized (dependent) memory accesses.
pub trait MemoryAgent: std::fmt::Debug {
    /// Called whenever the agent has no outstanding access.
    fn next_action(&mut self, now: u64) -> AgentAction;

    /// Called when the agent's outstanding access completes.
    fn on_completion(&mut self, access: RecordedAccess);

    /// `true` once the agent has nothing further to do.  May only change
    /// inside [`MemoryAgent::next_action`] or
    /// [`MemoryAgent::on_completion`].
    fn is_done(&self) -> bool;

    /// Earliest tick after `now` at which [`MemoryAgent::next_action`]
    /// could do anything but return [`AgentAction::Idle`] with no side
    /// effect.  Asked only while the agent is idle (not done, no access
    /// outstanding).  It must be greater than `now` and never later than
    /// that first tick; waking early is harmless.  The default, `now + 1`,
    /// asks the agent on every tick.
    fn wake_at(&self, now: u64) -> u64 {
        now + 1
    }
}

/// A scripted agent that walks a fixed address list (optionally in a loop),
/// recording the latency of every access.
#[derive(Debug, Clone)]
pub struct SerializedAccessAgent {
    addresses: Vec<u64>,
    position: usize,
    remaining_accesses: u64,
    /// Delay (in ticks) inserted between a completion and the next issue.
    think_time: u64,
    earliest_next_issue: u64,
    /// Recorded accesses, in completion order.
    pub history: Vec<RecordedAccess>,
}

impl SerializedAccessAgent {
    /// Creates an agent that performs `total_accesses` accesses round-robin
    /// over `addresses`.
    #[must_use]
    pub fn new(addresses: Vec<u64>, total_accesses: u64) -> Self {
        Self {
            addresses,
            position: 0,
            remaining_accesses: total_accesses,
            think_time: 0,
            earliest_next_issue: 0,
            history: Vec::new(),
        }
    }

    /// Adds a fixed think time between consecutive accesses.
    #[must_use]
    pub fn with_think_time(mut self, ticks: u64) -> Self {
        self.think_time = ticks;
        self
    }

    /// Delays the agent's first access until `tick`.
    #[must_use]
    pub fn starting_at(mut self, tick: u64) -> Self {
        self.earliest_next_issue = tick;
        self
    }

    /// Latencies (in nanoseconds) of all completed accesses, in order.
    #[must_use]
    pub fn latencies_ns(&self) -> Vec<f64> {
        self.history
            .iter()
            .map(RecordedAccess::latency_ns)
            .collect()
    }
}

impl MemoryAgent for SerializedAccessAgent {
    fn next_action(&mut self, now: u64) -> AgentAction {
        if self.remaining_accesses == 0 || self.addresses.is_empty() {
            return AgentAction::Done;
        }
        if now < self.earliest_next_issue {
            return AgentAction::Idle;
        }
        let addr = self.addresses[self.position % self.addresses.len()];
        self.position += 1;
        self.remaining_accesses -= 1;
        AgentAction::Access(addr)
    }

    fn on_completion(&mut self, access: RecordedAccess) {
        self.earliest_next_issue = access.completion_tick + self.think_time;
        self.history.push(access);
    }

    fn is_done(&self) -> bool {
        self.remaining_accesses == 0
    }

    /// Think time and [`SerializedAccessAgent::starting_at`] gate the next
    /// issue at `earliest_next_issue`.
    fn wake_at(&self, now: u64) -> u64 {
        self.earliest_next_issue.max(now + 1)
    }
}

/// A memory agent driving an [`AttackStream`]: the bridge between the
/// declarative adversary in `workloads::attack` and the serialized access
/// model of the [`MultiAgentRunner`].  The stream emits DRAM coordinates;
/// the agent encodes them through the experiment's address mapping,
/// honours the stream's burst gating ([`AttackAccess::not_before`]), and
/// marks which hot rows were actually reached so harnesses can report
/// aggressor coverage.
#[derive(Debug)]
pub struct PatternAgent {
    stream: AttackStream,
    mapping: AddressMap,
    remaining_accesses: u64,
    /// An access pulled from the stream but gated into the future.
    pending: Option<AttackAccess>,
    completed: u64,
    /// One flag per hot row of the stream: reached by an aggressor access.
    touched: Vec<bool>,
}

impl PatternAgent {
    /// Creates an agent performing `total_accesses` accesses of `stream`,
    /// encoded through `mapping`.
    #[must_use]
    pub fn new(stream: AttackStream, mapping: AddressMap, total_accesses: u64) -> Self {
        let touched = vec![false; stream.hot_rows().len()];
        Self {
            stream,
            mapping,
            remaining_accesses: total_accesses,
            pending: None,
            completed: 0,
            touched,
        }
    }

    /// Accesses completed so far.
    #[must_use]
    pub fn completed(&self) -> u64 {
        self.completed
    }

    /// Number of aggressor rows the stream declares.
    #[must_use]
    pub fn aggressor_rows(&self) -> usize {
        self.touched.len()
    }

    /// Fraction of the stream's aggressor rows the agent has issued at
    /// least one access to (`0.0` for a stream with no hot rows).
    #[must_use]
    pub fn aggressor_coverage(&self) -> f64 {
        if self.touched.is_empty() {
            return 0.0;
        }
        let touched = self.touched.iter().filter(|&&hit| hit).count();
        touched as f64 / self.touched.len() as f64
    }
}

impl MemoryAgent for PatternAgent {
    fn next_action(&mut self, now: u64) -> AgentAction {
        if self.remaining_accesses == 0 {
            return AgentAction::Done;
        }
        let access = match self.pending.take() {
            Some(access) => access,
            None => self.stream.next_access(now),
        };
        if access.not_before > now {
            self.pending = Some(access);
            return AgentAction::Idle;
        }
        self.remaining_accesses -= 1;
        if let Some(index) = access.hot_row {
            self.touched[index] = true;
        }
        AgentAction::Access(self.mapping.encode(&access.address))
    }

    fn on_completion(&mut self, _access: RecordedAccess) {
        self.completed += 1;
    }

    fn is_done(&self) -> bool {
        self.remaining_accesses == 0
    }

    /// A gated access waits for its `not_before`; otherwise the stream is
    /// asked on the next tick.
    fn wake_at(&self, now: u64) -> u64 {
        self.pending
            .map_or(now + 1, |access| access.not_before.max(now + 1))
    }
}

#[derive(Debug, Clone, Copy)]
struct Outstanding {
    agent: AgentId,
    issue_tick: u64,
    address: u64,
}

/// Runs several agents against one memory controller, visiting only the
/// ticks on which something can happen (see the module docs).
#[derive(Debug)]
pub struct MultiAgentRunner {
    controller: MemoryController,
    now: u64,
    next_request_id: u64,
    visited_ticks: u64,
}

impl MultiAgentRunner {
    /// Wraps a controller, starting the shared clock at tick 0.
    #[must_use]
    pub fn new(controller: MemoryController) -> Self {
        Self {
            controller,
            now: 0,
            next_request_id: 0,
            visited_ticks: 0,
        }
    }

    /// The wrapped controller (read-only).
    #[must_use]
    pub fn controller(&self) -> &MemoryController {
        &self.controller
    }

    /// The current simulation tick.
    #[must_use]
    pub fn now(&self) -> u64 {
        self.now
    }

    /// Ticks the runner has visited so far, over all its runs.  Every other
    /// tick up to [`MultiAgentRunner::now`] was skipped as a no-op.
    #[must_use]
    pub fn visited_ticks(&self) -> u64 {
        self.visited_ticks
    }

    /// Runs until every agent reports done (or `max_ticks` elapse).  Returns
    /// the tick at which the run stopped.
    pub fn run(&mut self, agents: &mut [&mut dyn MemoryAgent], max_ticks: u64) -> u64 {
        let deadline = self.now + max_ticks;
        let mut outstanding: Vec<Option<Outstanding>> = vec![None; agents.len()];
        let mut completions = Vec::new();
        while self.now < deadline {
            if agents.iter().all(|a| a.is_done()) && outstanding.iter().all(Option::is_none) {
                break;
            }
            // Let every idle agent enqueue its next access.
            for (idx, agent) in agents.iter_mut().enumerate() {
                if outstanding[idx].is_some() || agent.is_done() {
                    continue;
                }
                if !self.controller.can_accept() {
                    break;
                }
                match agent.next_action(self.now) {
                    AgentAction::Access(address) => {
                        let id = self.next_request_id;
                        self.next_request_id += 1;
                        let accepted = self
                            .controller
                            .enqueue(MemoryRequest::read(id, address, idx as u32, self.now));
                        debug_assert!(accepted, "queue admission was checked above");
                        outstanding[idx] = Some(Outstanding {
                            agent: idx as AgentId,
                            issue_tick: self.now,
                            address,
                        });
                    }
                    AgentAction::Idle | AgentAction::Done => {}
                }
            }
            // Advance the controller one tick and deliver completions.
            completions.clear();
            let controller_wake = self.controller.poll(self.now, &mut completions);
            for completion in &completions {
                let agent_idx = completion.core as usize;
                if let Some(Some(out)) = outstanding.get(agent_idx) {
                    let record = RecordedAccess {
                        issue_tick: out.issue_tick,
                        completion_tick: completion.completion_tick,
                        address: out.address,
                    };
                    debug_assert_eq!(out.agent as usize, agent_idx);
                    agents[agent_idx].on_completion(record);
                    outstanding[agent_idx] = None;
                }
            }
            self.visited_ticks += 1;
            self.now = if completions.is_empty() {
                self.next_visit(agents, &outstanding, controller_wake)
                    .min(deadline)
            } else {
                self.now + 1
            };
        }
        self.now
    }

    /// The next tick after `now` that needs a visit: the earliest of the
    /// controller's wake-up (as its poll at `now` returned it) and every idle
    /// agent's, or `now + 1` once the run is finished so the loop can stop
    /// where a per-tick loop would.
    fn next_visit(
        &self,
        agents: &[&mut dyn MemoryAgent],
        outstanding: &[Option<Outstanding>],
        controller_wake: Option<u64>,
    ) -> u64 {
        let mut wake = controller_wake.unwrap_or(u64::MAX);
        let mut finished = true;
        for (agent, out) in agents.iter().zip(outstanding) {
            if out.is_some() {
                finished = false;
            } else if !agent.is_done() {
                finished = false;
                wake = wake.min(agent.wake_at(self.now));
            }
        }
        if finished {
            self.now + 1
        } else {
            wake
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dram_sim::device::DramDeviceConfig;
    use memctrl::controller::{ControllerConfig, PagePolicy};
    use prac_core::config::PracConfig;

    fn controller(nbo: u32) -> MemoryController {
        let prac = PracConfig::builder()
            .rowhammer_threshold(nbo)
            .back_off_threshold(nbo)
            .build();
        let device = DramDeviceConfig::tiny_for_tests(prac);
        let config = ControllerConfig {
            page_policy: PagePolicy::Closed,
            refresh_enabled: false,
            ..ControllerConfig::default()
        };
        MemoryController::new(device, config)
    }

    fn address_of(ctrl: &MemoryController, bank_group: u32, row: u32, col: u32) -> u64 {
        let org = ctrl.device().config().organization;
        ctrl.encode_address(&dram_sim::org::DramAddress::new(
            &org, 0, bank_group, 0, row, col,
        ))
    }

    #[test]
    fn single_agent_completes_all_accesses() {
        let ctrl = controller(1024);
        let addr = address_of(&ctrl, 0, 3, 0);
        let mut agent = SerializedAccessAgent::new(vec![addr], 10);
        let mut runner = MultiAgentRunner::new(ctrl);
        runner.run(&mut [&mut agent], 1_000_000);
        assert!(agent.is_done());
        assert_eq!(agent.history.len(), 10);
        for access in &agent.history {
            assert!(access.latency_ticks() > 0);
            assert_eq!(access.address, addr);
        }
    }

    #[test]
    fn accesses_are_serialized_per_agent() {
        let ctrl = controller(1024);
        let addr = address_of(&ctrl, 0, 3, 0);
        let mut agent = SerializedAccessAgent::new(vec![addr], 5);
        let mut runner = MultiAgentRunner::new(ctrl);
        runner.run(&mut [&mut agent], 1_000_000);
        for pair in agent.history.windows(2) {
            assert!(
                pair[1].issue_tick >= pair[0].completion_tick,
                "next access must only issue after the previous completes"
            );
        }
    }

    #[test]
    fn think_time_spaces_accesses() {
        let ctrl = controller(1024);
        let addr = address_of(&ctrl, 0, 3, 0);
        let mut agent = SerializedAccessAgent::new(vec![addr], 4).with_think_time(1_000);
        let mut runner = MultiAgentRunner::new(ctrl);
        runner.run(&mut [&mut agent], 1_000_000);
        for pair in agent.history.windows(2) {
            assert!(pair[1].issue_tick >= pair[0].completion_tick + 1_000);
        }
    }

    #[test]
    fn two_agents_in_different_banks_both_make_progress() {
        let ctrl = controller(1024);
        let a0 = address_of(&ctrl, 0, 1, 0);
        let a1 = address_of(&ctrl, 1, 1, 0);
        let mut spy = SerializedAccessAgent::new(vec![a0], 50);
        let mut trojan = SerializedAccessAgent::new(vec![a1], 50);
        let mut runner = MultiAgentRunner::new(ctrl);
        runner.run(&mut [&mut spy, &mut trojan], 5_000_000);
        assert!(spy.is_done());
        assert!(trojan.is_done());
        assert_eq!(spy.history.len(), 50);
        assert_eq!(trojan.history.len(), 50);
    }

    #[test]
    fn closed_page_policy_makes_every_access_an_activation() {
        let ctrl = controller(4096);
        let addr = address_of(&ctrl, 0, 5, 0);
        let mut agent = SerializedAccessAgent::new(vec![addr], 20);
        let mut runner = MultiAgentRunner::new(ctrl);
        runner.run(&mut [&mut agent], 1_000_000);
        // Under the closed-page policy each serialized access re-activates
        // the row, so the PRAC counter tracks the access count.
        let decoded = runner.controller().decode_address(addr);
        let org = runner.controller().device().config().organization;
        let bank = runner.controller().device().bank(decoded.flat_bank(&org));
        assert_eq!(bank.counter(decoded.row), 20);
    }

    #[test]
    fn runner_respects_max_ticks() {
        let ctrl = controller(1024);
        let addr = address_of(&ctrl, 0, 3, 0);
        let mut agent = SerializedAccessAgent::new(vec![addr], u64::MAX);
        let mut runner = MultiAgentRunner::new(ctrl);
        let stopped_at = runner.run(&mut [&mut agent], 10_000);
        assert!(stopped_at <= 10_000);
        assert!(!agent.is_done());
        assert!(!agent.history.is_empty());
    }

    #[test]
    fn starting_at_delays_first_access() {
        let ctrl = controller(1024);
        let addr = address_of(&ctrl, 0, 3, 0);
        let mut agent = SerializedAccessAgent::new(vec![addr], 1).starting_at(5_000);
        let mut runner = MultiAgentRunner::new(ctrl);
        runner.run(&mut [&mut agent], 100_000);
        assert_eq!(agent.history.len(), 1);
        assert!(agent.history[0].issue_tick >= 5_000);
    }
}
