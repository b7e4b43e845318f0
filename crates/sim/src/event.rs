//! The event-driven simulation engine and its event wheel.
//!
//! The legacy [`EngineKind::Tick`] engine advances the whole system one DRAM
//! clock per iteration, even when every core is stalled on memory and every
//! bank is waiting out a timing constraint.  The [`EngineKind::Event`]
//! engine eliminates those dead cycles: after settling a tick it asks each
//! component for the next tick at which it could possibly act — the CPU
//! cluster reports the earliest retire/issue opportunity, each channel's
//! memory controller the earliest completion, refresh, RFM-engine or
//! demand-scheduling opportunity — and registers those wake-ups with a
//! slab-backed [`EventWheel`], then jumps straight to the earliest one.
//!
//! Wake-ups are keyed by **(tick, source slot)**, with one slot per channel
//! controller: a 4-channel wheel holds the cluster, the forwarding glue and
//! four independent channel streams, so the engine polls only the channels
//! whose wake-up equals the tick it jumped to instead of all of them, and
//! ticks the cluster only when its own slot fired (see
//! `SystemSimulation::run_event_from`).  A channel's wake-up comes back from
//! the same call that ticks it (`MemoryController::poll`), and the cluster
//! keeps one wake-up per core, re-asking only the cores it ticked or handed
//! a completion.
//!
//! # Cycle-exactness
//!
//! Both engines drive the *same* per-tick step function, so the event engine
//! is not an approximation: it merely skips ticks that the tick engine would
//! process as pure no-ops.  Three properties make that safe, and each is
//! guarded by the differential test suite (`tests/engine_equivalence.rs`):
//!
//! 1. **No hidden per-tick mutation.**  A tick in which no command issues,
//!    no request completes, and no core retires or issues leaves every
//!    component bit-identical (the FR-FCFS scheduler's hit-streak update is
//!    committed only when the device accepts a command for exactly this
//!    reason).
//! 2. **Complete wake-up sets.**  `Core::next_event_at` and
//!    `MemoryController::next_event_at` return a tick at or before the first
//!    tick with an effect.  Waking early is harmless (the extra tick is a
//!    no-op); waking late would diverge.
//! 3. **Explicit stall accounting.**  The only thing a skipped tick would
//!    have changed is each unfinished core's cycle counter; the engine
//!    credits those cycles in bulk, keeping IPC bit-identical.

use serde::{Deserialize, Serialize};

/// A monotonic slab-backed event wheel holding one pending wake-up per
/// slot.
///
/// The slab is the single source of truth: re-registering a slot
/// overwrites it in place, and [`EventWheel::next_after`] answers with a
/// branch-predictable linear min-scan over it.  The engine's wheel holds
/// two fixed slots plus one per channel controller, so the scan stays a
/// handful of entries and never pays heap churn on re-registration.
///
/// Time never moves backwards: the wheel panics in debug builds if a
/// wake-up is registered at or before the last tick it handed out.
///
/// The wheel is *derived* state: a resumed or forked run rebuilds its
/// wheel from component wake-ups on the first loop iteration, so carrying
/// one across a fork is never required for correctness.
#[derive(Debug, Clone)]
pub struct EventWheel {
    /// The slab: current wake-up per slot (`None` when disarmed).
    slots: Vec<Option<u64>>,
    /// The last tick returned by [`EventWheel::next_after`].
    horizon: u64,
}

impl EventWheel {
    /// Creates an empty wheel at tick 0 with `slots` slots, addressed via
    /// [`EventWheel::reregister_slot`].
    #[must_use]
    pub fn with_slots(slots: usize) -> Self {
        Self {
            slots: vec![None; slots],
            horizon: 0,
        }
    }

    /// Registers (or replaces) the wake-up of slot `slot`; `None` disarms
    /// it.
    ///
    /// # Panics
    ///
    /// Panics when `slot` is out of range, and in debug builds when `tick`
    /// is at or before the wheel's horizon.
    pub fn reregister_slot(&mut self, slot: usize, tick: Option<u64>) {
        if let Some(tick) = tick {
            debug_assert!(
                tick > self.horizon,
                "wake-up for slot {slot} at {tick} is not after the horizon {}",
                self.horizon
            );
        }
        self.slots[slot] = tick;
    }

    /// Returns the earliest armed wake-up strictly after `now`, or `None`
    /// when every slot is disarmed.  Advances the wheel's horizon.
    pub fn next_after(&mut self, now: u64) -> Option<u64> {
        let mut min: Option<u64> = None;
        for &tick in self.slots.iter().flatten() {
            if tick > now && min.is_none_or(|m| tick < m) {
                min = Some(tick);
            }
        }
        if let Some(tick) = min {
            self.horizon = tick;
        }
        min
    }

    /// The tick slot `slot` is currently armed at, or `None` when the slot
    /// is disarmed.  The engine uses this to decide which channels a jump
    /// lands on: a channel is polled exactly when its slot is armed at the
    /// tick the wheel handed out.
    ///
    /// # Panics
    ///
    /// Panics when `slot` is out of range.
    #[must_use]
    pub fn armed_at(&self, slot: usize) -> Option<u64> {
        self.slots[slot]
    }

    /// Number of wake-ups currently armed.
    #[must_use]
    pub fn armed_count(&self) -> usize {
        self.slots.iter().filter(|s| s.is_some()).count()
    }
}

/// Which engine a [`crate::system::SystemConfig`] selects.
///
/// Both engines execute the identical per-tick step; they differ only in
/// which ticks they bother to visit.  That is what makes them safe to swap
/// behind a configuration flag and to diff against each other.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize, Default)]
pub enum EngineKind {
    /// The legacy per-tick main loop: one DRAM clock per iteration.
    Tick,
    /// The event-driven engine (default): jumps straight to the earliest
    /// pending wake-up, with bit-identical results and fewer visited ticks.
    #[default]
    Event,
}

impl EngineKind {
    /// Parses a CLI spelling (`"tick"` / `"event"`).
    #[must_use]
    pub fn parse(text: &str) -> Option<Self> {
        match text {
            "tick" => Some(EngineKind::Tick),
            "event" => Some(EngineKind::Event),
            _ => None,
        }
    }

    /// The CLI spelling of this kind.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            EngineKind::Tick => "tick",
            EngineKind::Event => "event",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wheel_returns_earliest_armed_wakeup() {
        let mut wheel = EventWheel::with_slots(3);
        wheel.reregister_slot(0, Some(50));
        wheel.reregister_slot(1, Some(20));
        wheel.reregister_slot(2, None);
        assert_eq!(wheel.armed_count(), 2);
        assert_eq!(wheel.next_after(0), Some(20));
    }

    #[test]
    fn reregistration_replaces_previous_wakeup() {
        let mut wheel = EventWheel::with_slots(3);
        wheel.reregister_slot(1, Some(20));
        wheel.reregister_slot(1, Some(400));
        assert_eq!(wheel.next_after(0), Some(400), "stale entry must be gone");
        wheel.reregister_slot(1, None);
        assert_eq!(wheel.next_after(400), None);
    }

    #[test]
    fn entries_at_or_before_now_are_consumed() {
        let mut wheel = EventWheel::with_slots(3);
        wheel.reregister_slot(0, Some(10));
        wheel.reregister_slot(1, Some(30));
        assert_eq!(wheel.next_after(10), Some(30));
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "not after the horizon")]
    fn wheel_rejects_wakeups_behind_the_horizon() {
        let mut wheel = EventWheel::with_slots(3);
        wheel.reregister_slot(0, Some(100));
        assert_eq!(wheel.next_after(0), Some(100));
        wheel.reregister_slot(1, Some(99));
    }

    #[test]
    fn generic_slot_wheel_tracks_disarm_and_minimum() {
        let mut wheel = EventWheel::with_slots(32);
        for slot in 0..32 {
            wheel.reregister_slot(slot, Some(100 + slot as u64));
        }
        assert_eq!(wheel.next_after(0), Some(100));
        wheel.reregister_slot(0, None);
        assert_eq!(wheel.next_after(100), Some(101));
        wheel.reregister_slot(1, Some(500));
        assert_eq!(wheel.next_after(101), Some(102));
        assert_eq!(wheel.armed_count(), 31);
    }

    #[test]
    fn engine_kind_round_trips_through_labels() {
        for kind in [EngineKind::Tick, EngineKind::Event] {
            assert_eq!(EngineKind::parse(kind.label()), Some(kind));
        }
        assert_eq!(EngineKind::parse("warp"), None);
        assert_eq!(EngineKind::default(), EngineKind::Event);
    }
}
