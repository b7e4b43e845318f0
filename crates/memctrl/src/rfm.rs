//! RFM plumbing shared by every mitigation policy.
//!
//! * [`AboResponder`] — reacts to the DRAM's Alert signal: after allowing up
//!   to `ABOACT` further activations (bounded by tABOACT), it issues the PRAC
//!   level's worth of RFMab commands (1, 2 or 4).  These are the activity-
//!   dependent **ABO-RFMs** PRACLeak exploits.  The responder is controller
//!   infrastructure (the JEDEC protocol applies under every policy that
//!   keeps ABO armed), which is why it lives here rather than in
//!   [`crate::mitigation::Mitigation`].
//! * Proactive RFMs (**ACB-RFMs**, TPRAC's **TB-RFMs**, periodic **PRFM**
//!   and probabilistic **PARA** RFMs) are requested by the controller's
//!   [`crate::mitigation::Mitigation`].
//! * [`RfmKind`] labels every issued RFM so the statistics can distinguish
//!   the sources (and the attacks can check which kind they observed).

use prac_core::config::PracConfig;
use serde::{Deserialize, Serialize};

/// Why an RFM All-Bank command was issued.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum RfmKind {
    /// Triggered by the Alert Back-Off protocol (activity dependent).
    AboRfm,
    /// Proactive Activation-Based RFM triggered by the Bank-Activation
    /// threshold (activity dependent).
    AcbRfm,
    /// TPRAC Timing-Based RFM (activity independent).
    TbRfm,
    /// Periodic RFM on a fixed tREFI cadence (activity independent).
    PeriodicRfm,
    /// PARA-style probabilistic per-activation RFM (activity dependent).
    ParaRfm,
}

impl RfmKind {
    /// `true` for RFMs whose timing depends on memory activity (the
    /// exploitable ones).
    #[must_use]
    pub fn is_activity_dependent(self) -> bool {
        matches!(self, RfmKind::AboRfm | RfmKind::AcbRfm | RfmKind::ParaRfm)
    }
}

/// State machine responding to the DRAM's Alert signal.
///
/// The ABO window is timed, not counted: after an Alert the first RFM waits
/// `tABOACT` (the `t_abo_act_ticks` given to [`AboResponder::new`]; 180 ns
/// in DDR5-8000B), and the controller keeps serving requests meanwhile.
/// How far a hammered row can overshoot the Back-Off threshold is therefore
/// bounded by the ACTs that fit in that window (tRC-spaced on one bank),
/// not by a fixed ACT budget.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct AboResponder {
    /// RFMs issued per Alert (the PRAC level).
    rfms_per_alert: u32,
    /// Delay between observing Alert and the first RFM (tABOACT budget).
    response_delay_ticks: u64,
    /// RFMab commands still owed for the current Alert.
    pending_rfms: u32,
    /// Tick at which the next owed RFM may be issued.
    next_rfm_at: u64,
    /// Total ABO events handled.
    alerts_handled: u64,
}

impl AboResponder {
    /// Creates a responder from the PRAC configuration and the tABOACT bound
    /// (in ticks).
    #[must_use]
    pub fn new(prac: &PracConfig, t_abo_act_ticks: u64) -> Self {
        Self {
            rfms_per_alert: prac.rfms_per_alert(),
            response_delay_ticks: t_abo_act_ticks,
            pending_rfms: 0,
            next_rfm_at: 0,
            alerts_handled: 0,
        }
    }

    /// Notifies the responder that the Alert signal is asserted at `now`.
    /// Has no effect if a response is already in flight.
    pub fn on_alert(&mut self, now: u64) {
        if self.pending_rfms == 0 {
            self.pending_rfms = self.rfms_per_alert;
            self.next_rfm_at = now + self.response_delay_ticks;
            self.alerts_handled += 1;
        }
    }

    /// Returns `true` when an RFM should be issued at `now`; the caller must
    /// then call [`AboResponder::rfm_issued`] with the tick at which the next
    /// RFM becomes possible (end of the current RFM's blocking period).
    #[must_use]
    pub fn wants_rfm(&self, now: u64) -> bool {
        self.pending_rfms > 0 && now >= self.next_rfm_at
    }

    /// Records that one of the owed RFMs was issued; `next_possible` is the
    /// earliest tick a subsequent RFM may start (typically the end of the
    /// current blocking period).
    pub fn rfm_issued(&mut self, next_possible: u64) {
        debug_assert!(self.pending_rfms > 0);
        self.pending_rfms -= 1;
        self.next_rfm_at = next_possible;
    }

    /// RFMs still owed for the current Alert.
    #[must_use]
    pub fn pending(&self) -> u32 {
        self.pending_rfms
    }

    /// Earliest tick at which the next owed RFM may be issued (meaningful
    /// only while [`AboResponder::pending`] is non-zero).  Used by the
    /// event-driven engine to schedule the responder's next wake-up.
    #[must_use]
    pub fn next_rfm_at(&self) -> u64 {
        self.next_rfm_at
    }

    /// Number of distinct Alert events responded to.
    #[must_use]
    pub fn alerts_handled(&self) -> u64 {
        self.alerts_handled
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use prac_core::config::{PracConfig, PracLevel};

    #[test]
    fn rfm_kind_activity_dependence() {
        assert!(RfmKind::AboRfm.is_activity_dependent());
        assert!(RfmKind::AcbRfm.is_activity_dependent());
        assert!(RfmKind::ParaRfm.is_activity_dependent());
        assert!(!RfmKind::TbRfm.is_activity_dependent());
        assert!(!RfmKind::PeriodicRfm.is_activity_dependent());
    }

    #[test]
    fn abo_responder_owes_prac_level_rfms() {
        for (level, expected) in [
            (PracLevel::One, 1),
            (PracLevel::Two, 2),
            (PracLevel::Four, 4),
        ] {
            let prac = PracConfig::builder().prac_level(level).build();
            let mut r = AboResponder::new(&prac, 720);
            r.on_alert(1000);
            assert_eq!(r.pending(), expected);
            assert_eq!(r.alerts_handled(), 1);
        }
    }

    #[test]
    fn abo_responder_waits_for_taboact() {
        let prac = PracConfig::paper_default();
        let mut r = AboResponder::new(&prac, 720);
        r.on_alert(1000);
        assert!(!r.wants_rfm(1000));
        assert!(!r.wants_rfm(1719));
        assert!(r.wants_rfm(1720));
    }

    #[test]
    fn abo_responder_spaces_multiple_rfms() {
        let prac = PracConfig::builder().prac_level(PracLevel::Two).build();
        let mut r = AboResponder::new(&prac, 0);
        r.on_alert(0);
        assert!(r.wants_rfm(0));
        r.rfm_issued(1400); // first RFM blocks until tick 1400
        assert!(!r.wants_rfm(100));
        assert!(r.wants_rfm(1400));
        r.rfm_issued(2800);
        assert_eq!(r.pending(), 0);
        assert!(!r.wants_rfm(10_000));
    }

    #[test]
    fn abo_responder_ignores_realert_while_pending() {
        let prac = PracConfig::builder().prac_level(PracLevel::Four).build();
        let mut r = AboResponder::new(&prac, 0);
        r.on_alert(0);
        r.on_alert(10);
        assert_eq!(r.pending(), 4);
        assert_eq!(r.alerts_handled(), 1);
    }
}
