//! Adversarial experiment driver: runs a registered attack pattern against
//! a mitigated PRAC memory system and reports security metrics.
//!
//! This is the execution layer behind the `attacks` campaign: one
//! [`run_adversary`] call drives a [`workloads::attack::AttackStream`]
//! through a [`crate::agents::PatternAgent`] on the
//! [`crate::agents::MultiAgentRunner`] (serialized dependent accesses, the
//! flush+access attacker model every experiment in this crate uses) and
//! distils the run into an [`AdversaryOutcome`].  The runner visits only
//! the ticks on which the controller or the agent can act: the wake-up the
//! controller's `poll` returns, the agent's `wake_at` (a burst-gated pattern
//! sleeps until its `not_before`), and the tick after each completion.  The
//! outcome is bit-identical to stepping every tick.
//!
//! The headline question each run answers is the paper's: *did any row's
//! PRAC activation counter reach the RowHammer threshold before a
//! mitigation reset it?*  [`AdversaryOutcome::max_row_activations`] holds
//! the observed peak; comparing it against `NRH` (and against a
//! no-mitigation baseline run of the same pattern, for the slowdown the
//! defense imposes on the attacker) is the per-cell security metric set.

use memctrl::mapping::AddressMap;
use workloads::attack::AttackKind;

use crate::agents::{MultiAgentRunner, PatternAgent};
use crate::setup::AttackSetup;

/// Security metrics of one adversarial run.
#[derive(Debug, Clone, PartialEq)]
pub struct AdversaryOutcome {
    /// Accesses the attacker completed within the tick budget.
    pub accesses_completed: u64,
    /// Tick at which the run stopped.
    pub elapsed_ticks: u64,
    /// Peak per-row PRAC counter observed at activate time — the value to
    /// compare against the RowHammer threshold.
    pub max_row_activations: u32,
    /// Aggressor rows the pattern declares.
    pub aggressor_rows: usize,
    /// Fraction of declared aggressor rows the attacker issued at least one
    /// access to.
    pub aggressor_coverage: f64,
    /// RFMs of any kind the controller issued during the run.
    pub rfms_triggered: u64,
    /// Alert Back-Off events the device asserted.
    pub abo_events: u64,
    /// Total row activations the attack caused.
    pub activations: u64,
    /// Whether every access of the attacker's budget *completed* (reached
    /// DRAM and returned) within `max_ticks` — an access still in flight
    /// when the deadline hits counts as truncation.
    pub completed: bool,
}

impl AdversaryOutcome {
    /// `true` when some row's activation counter reached `nrh` before any
    /// mitigation reset it — i.e. the defense failed to protect the
    /// threshold against this pattern.
    #[must_use]
    pub fn breached(&self, nrh: u32) -> bool {
        self.max_row_activations >= nrh
    }

    /// Attacker throughput in completed accesses per kilo-tick (for
    /// slowdown comparisons between mitigated and baseline runs).
    #[must_use]
    pub fn accesses_per_kilotick(&self) -> f64 {
        if self.elapsed_ticks == 0 {
            return 0.0;
        }
        self.accesses_completed as f64 * 1000.0 / self.elapsed_ticks as f64
    }
}

/// Runs `attack` for `accesses` serialized accesses (or until `max_ticks`)
/// against the memory system described by `setup`.  `seed` is mixed into
/// the kind's own filler seed (see [`AttackKind::stream`]), so sweeps can
/// draw independent filler streams per cell.
#[must_use]
pub fn run_adversary(
    attack: &AttackKind,
    setup: &AttackSetup,
    accesses: u64,
    max_ticks: u64,
    seed: u64,
) -> AdversaryOutcome {
    let controller = setup.build_controller();
    let org = controller.device().config().organization;
    let t_refi = controller.device().config().timing.t_refi;
    let stream = attack.stream(&org, t_refi, seed);
    let mapping = AddressMap::new(controller.config().mapping, org);
    let mut agent = PatternAgent::new(stream, mapping, accesses);
    let mut runner = MultiAgentRunner::new(controller);
    let elapsed_ticks = runner.run(&mut [&mut agent], max_ticks);
    let controller_stats = *runner.controller().stats();
    let dram_stats = *runner.controller().device().stats();
    AdversaryOutcome {
        accesses_completed: agent.completed(),
        elapsed_ticks,
        max_row_activations: dram_stats.max_row_counter,
        aggressor_rows: agent.aggressor_rows(),
        aggressor_coverage: agent.aggressor_coverage(),
        rfms_triggered: controller_stats.total_rfms(),
        abo_events: dram_stats.alerts_asserted,
        activations: dram_stats.activations,
        // is_done() is true once everything is *issued*; only a matching
        // completion count proves the run was not cut off mid-flight.
        completed: agent.completed() == accesses,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use prac_core::config::MitigationPolicy;
    use prac_core::security::CounterResetPolicy;
    use prac_core::timing::DramTimingSummary;
    use prac_core::tprac::TpracConfig;
    use workloads::attack::attack_registry;

    const MAX_TICKS: u64 = 30_000_000;

    fn undefended(nbo: u32) -> AttackSetup {
        AttackSetup::new(nbo).with_policy(MitigationPolicy::Disabled)
    }

    #[test]
    fn single_sided_breaches_an_undefended_device() {
        let outcome = run_adversary(
            &AttackKind::SingleSided,
            &undefended(256),
            600,
            MAX_TICKS,
            0,
        );
        assert!(outcome.completed);
        assert_eq!(outcome.aggressor_rows, 1);
        assert!((outcome.aggressor_coverage - 1.0).abs() < 1e-12);
        // Closed-page policy: every serialized access is an activation, and
        // nothing ever resets the counter.
        assert!(outcome.breached(256), "{outcome:?}");
        assert_eq!(outcome.rfms_triggered, 0);
        assert_eq!(outcome.abo_events, 0);
    }

    #[test]
    fn abo_caps_the_counter_near_the_threshold() {
        let outcome = run_adversary(
            &AttackKind::SingleSided,
            &AttackSetup::new(256),
            2_000,
            MAX_TICKS,
            0,
        );
        assert!(outcome.completed);
        assert!(outcome.abo_events > 0, "{outcome:?}");
        assert!(outcome.rfms_triggered > 0);
        // The reactive ABO fires *at* the threshold, so the peak observed
        // counter reaches NBO but cannot meaningfully exceed it.
        assert!(outcome.max_row_activations >= 256, "{outcome:?}");
        assert!(outcome.max_row_activations < 300, "{outcome:?}");
    }

    #[test]
    fn tprac_defends_and_slows_the_attacker() {
        let nbo = 512;
        let timing = DramTimingSummary::ddr5_8000b();
        let tprac =
            TpracConfig::solve_for_threshold(nbo, &timing, CounterResetPolicy::ResetEveryTrefw)
                .expect("solvable");
        let defended = AttackSetup::new(nbo).with_policy(MitigationPolicy::Tprac(tprac));
        let mitigated = run_adversary(&AttackKind::DoubleSided, &defended, 2_000, MAX_TICKS, 0);
        let baseline = run_adversary(
            &AttackKind::DoubleSided,
            &undefended(nbo),
            2_000,
            MAX_TICKS,
            0,
        );
        assert!(mitigated.completed && baseline.completed);
        assert!(
            !mitigated.breached(nbo),
            "TPRAC must keep every counter below NBO: {mitigated:?}"
        );
        assert!(baseline.breached(nbo));
        assert!(mitigated.rfms_triggered > 0);
        // TB-RFMs block the channel, so the mitigated attacker is slower.
        assert!(mitigated.elapsed_ticks > baseline.elapsed_ticks);
    }

    #[test]
    fn every_registered_attack_runs_against_the_default_setup() {
        for kind in attack_registry() {
            let outcome = run_adversary(&kind, &AttackSetup::new(1024), 300, MAX_TICKS, 7);
            assert!(outcome.completed, "{}: {outcome:?}", kind.slug());
            assert_eq!(outcome.accesses_completed, 300, "{}", kind.slug());
            assert!(outcome.activations > 0, "{}", kind.slug());
            assert!(
                outcome.aggressor_coverage > 0.0,
                "{}: no aggressor touched",
                kind.slug()
            );
        }
    }

    #[test]
    fn breach_budgets_are_sufficient_for_every_pattern() {
        // `AttackKind::accesses_to_breach` promises that its budget drives
        // some row past NRH on an undefended device — the property the
        // `attacks` campaign relies on to make `nrh_breached` meaningful.
        let nrh = 256;
        for kind in attack_registry() {
            let budget = kind.accesses_to_breach(nrh);
            let outcome = run_adversary(&kind, &undefended(nrh), budget, MAX_TICKS, 0);
            assert!(outcome.completed, "{}: {outcome:?}", kind.slug());
            assert!(
                outcome.breached(nrh),
                "{}: budget {budget} failed to breach NRH {nrh}: {outcome:?}",
                kind.slug()
            );
        }
    }

    #[test]
    fn adversary_runs_are_deterministic() {
        let run = || {
            run_adversary(
                &AttackKind::DecoyBlast { decoys: 4, seed: 9 },
                &AttackSetup::new(512),
                500,
                MAX_TICKS,
                3,
            )
        };
        assert_eq!(run(), run());
    }
}
