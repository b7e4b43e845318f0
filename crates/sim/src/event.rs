//! The event-driven simulation engine and its event wheel.
//!
//! The legacy [`TickEngine`] advances the whole system one DRAM clock per
//! iteration, even when every core is stalled on memory and every bank is
//! waiting out a timing constraint.  The [`EventEngine`] eliminates those
//! dead cycles: after settling a tick it asks each component for the next
//! tick at which it could possibly act — the CPU cluster reports the
//! earliest retire/issue opportunity, each channel's memory controller the
//! earliest completion, refresh, RFM-engine or demand-scheduling
//! opportunity — and registers those wake-ups with a slab-backed
//! [`EventWheel`], then jumps straight to the earliest one.
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
use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::system::{SystemResult, SystemSimulation};

/// Who registered a wake-up with a default-shaped ([`EventWheel::new`])
/// wheel.
///
/// The engine's own wheel is built with [`EventWheel::with_slots`] and
/// addresses slots directly (fixed cluster/forwarding slots followed by one
/// slot per channel controller); this enum remains the addressing scheme
/// for three-slot wheels in tests and benches.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventSource {
    /// The CPU cluster (earliest retire or issue opportunity).
    Cluster = 0,
    /// A memory controller (completions, refresh, RFM engines, demand).
    Controller = 1,
    /// The system glue: backlog requests waiting for controller queue space.
    Forwarding = 2,
}

/// Number of distinct [`EventSource`]s.
const SOURCES: usize = 3;

/// Slot counts up to this many are served by a direct linear min-scan over
/// the slab, with no heap index at all.  The engine's three sources fit
/// comfortably; a scan over a handful of slots beats paying heap churn on
/// every re-registration.
const LINEAR_SLOTS_MAX: usize = 8;

/// One wake-up slot in the wheel's slab: the armed tick (if any) and the
/// generation that invalidates older heap-index entries.
#[derive(Debug, Clone, Copy, Default)]
struct WheelSlot {
    armed_at: Option<u64>,
    generation: u64,
}

/// A monotonic slab-backed event wheel holding one pending wake-up per
/// source.
///
/// The slab (`slots`) is the single source of truth: re-registering a source
/// overwrites its slot in place.  Small wheels (up to `LINEAR_SLOTS_MAX` (8)
/// slots — including the engine's three [`EventSource`]s) answer
/// [`EventWheel::next_after`] with a branch-predictable linear min-scan and
/// never touch a heap.  Larger wheels (built with [`EventWheel::with_slots`])
/// keep a lazy binary-heap *index* over the slab: stale entries are
/// invalidated by the per-slot generation and discarded on pop, and a
/// compaction pass rebuilds the heap from the slab whenever the stale
/// backlog exceeds [`EventWheel::occupancy_bound`], so occupancy stays
/// bounded by the live slot count regardless of re-registration pattern.
///
/// Time never moves backwards: the wheel panics in debug builds if a
/// wake-up is registered at or before the last tick it handed out.
///
/// The wheel is `Clone` for the checkpoint/fork contract, but note that it
/// is *derived* state: a forked run rebuilds its wheel from component
/// wake-ups on the first loop iteration, so carrying one across a fork is
/// never required for correctness.
#[derive(Debug, Clone)]
pub struct EventWheel {
    /// The slab: current wake-up per slot (the truth).
    slots: Vec<WheelSlot>,
    /// Lazy min-heap index of `(tick, slot, generation)` entries; empty and
    /// unused when the slot count is within [`LINEAR_SLOTS_MAX`].
    heap: BinaryHeap<Reverse<(u64, u32, u64)>>,
    /// The last tick returned by [`EventWheel::next_after`].
    horizon: u64,
}

impl Default for EventWheel {
    fn default() -> Self {
        Self::new()
    }
}

impl EventWheel {
    /// Creates an empty wheel at tick 0 with one slot per [`EventSource`].
    #[must_use]
    pub fn new() -> Self {
        Self::with_slots(SOURCES)
    }

    /// Creates an empty wheel at tick 0 with `slots` generic slots,
    /// addressed via [`EventWheel::reregister_slot`].
    #[must_use]
    pub fn with_slots(slots: usize) -> Self {
        Self {
            slots: vec![WheelSlot::default(); slots],
            heap: BinaryHeap::new(),
            horizon: 0,
        }
    }

    /// Number of slots (live components) the wheel tracks.
    #[must_use]
    pub fn slot_count(&self) -> usize {
        self.slots.len()
    }

    /// Registers (or replaces) the wake-up of `source`; `None` disarms it.
    pub fn reregister(&mut self, source: EventSource, tick: Option<u64>) {
        self.reregister_slot(source as usize, tick);
    }

    /// Registers (or replaces) the wake-up of slot `slot`; `None` disarms
    /// it.
    ///
    /// # Panics
    ///
    /// Panics when `slot` is out of range, and in debug builds when `tick`
    /// is at or before the wheel's horizon.
    pub fn reregister_slot(&mut self, slot: usize, tick: Option<u64>) {
        let entry = &mut self.slots[slot];
        entry.generation += 1;
        entry.armed_at = tick;
        if let Some(tick) = tick {
            debug_assert!(
                tick > self.horizon,
                "wake-up for slot {slot} at {tick} is not after the horizon {}",
                self.horizon
            );
            if self.slots.len() > LINEAR_SLOTS_MAX {
                let generation = self.slots[slot].generation;
                self.heap.push(Reverse((
                    tick,
                    u32::try_from(slot).expect("slot count fits in u32"),
                    generation,
                )));
                self.maybe_compact();
            }
        }
    }

    /// Returns the earliest armed wake-up strictly after `now`, or `None`
    /// when every source is disarmed.  Advances the wheel's horizon.
    pub fn next_after(&mut self, now: u64) -> Option<u64> {
        if self.slots.len() <= LINEAR_SLOTS_MAX {
            // Slab scan: no heap, no pops, no stale entries to launder.
            let mut min: Option<u64> = None;
            for slot in &self.slots {
                if let Some(tick) = slot.armed_at {
                    if tick > now && min.is_none_or(|m| tick < m) {
                        min = Some(tick);
                    }
                }
            }
            if let Some(tick) = min {
                self.horizon = tick;
            }
            return min;
        }
        while let Some(Reverse((tick, slot, generation))) = self.heap.peek().copied() {
            let entry = self.slots[slot as usize];
            if generation != entry.generation || entry.armed_at.is_none() || tick <= now {
                self.heap.pop();
                continue;
            }
            self.horizon = tick;
            return Some(tick);
        }
        None
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
        self.slots[slot].armed_at
    }

    /// Number of live (non-stale) wake-ups currently armed.
    #[must_use]
    pub fn armed_count(&self) -> usize {
        self.slots.iter().filter(|s| s.armed_at.is_some()).count()
    }

    /// Number of entries resident in the wheel's heap index (live + stale).
    ///
    /// Always 0 for linear-scan wheels; for heap-indexed wheels this is the
    /// quantity the compaction guard keeps below
    /// [`EventWheel::occupancy_bound`].
    #[must_use]
    pub fn occupancy(&self) -> usize {
        self.heap.len()
    }

    /// Upper bound the compaction guard enforces on
    /// [`EventWheel::occupancy`]: re-registration patterns that bury stale
    /// entries under live ones (the unbounded-growth failure mode of pure
    /// lazy deletion) trigger a rebuild of the heap from the slab once the
    /// index exceeds twice the slot count (plus slack for tiny wheels).
    #[must_use]
    pub fn occupancy_bound(&self) -> usize {
        2 * self.slots.len() + 8
    }

    /// Rebuilds the heap index from the slab when lazily-deleted entries
    /// have accumulated past [`EventWheel::occupancy_bound`].
    fn maybe_compact(&mut self) {
        if self.heap.len() <= self.occupancy_bound() {
            return;
        }
        self.heap.clear();
        for (slot, entry) in self.slots.iter().enumerate() {
            if let Some(tick) = entry.armed_at {
                self.heap
                    .push(Reverse((tick, slot as u32, entry.generation)));
            }
        }
    }
}

/// A strategy for driving a [`SystemSimulation`] to completion.
///
/// Both implementations execute the identical per-tick step; they differ
/// only in which ticks they bother to visit.  That is what makes them safe
/// to swap behind a configuration flag and to diff against each other.
pub trait SimulationEngine: std::fmt::Debug {
    /// Short engine name (`"tick"` / `"event"`), used in logs and the CLI.
    fn name(&self) -> &'static str;

    /// Consumes the simulation and runs it to completion (or the tick cap).
    fn run(&self, sim: SystemSimulation) -> SystemResult;
}

/// The legacy engine: one DRAM clock per loop iteration.
#[derive(Debug, Default, Clone, Copy)]
pub struct TickEngine;

impl SimulationEngine for TickEngine {
    fn name(&self) -> &'static str {
        "tick"
    }

    fn run(&self, sim: SystemSimulation) -> SystemResult {
        sim.run_ticked()
    }
}

/// The event-driven engine: jumps straight to the earliest pending event.
#[derive(Debug, Default, Clone, Copy)]
pub struct EventEngine;

impl SimulationEngine for EventEngine {
    fn name(&self) -> &'static str {
        "event"
    }

    fn run(&self, sim: SystemSimulation) -> SystemResult {
        sim.run_event_driven()
    }
}

/// Which engine a [`crate::system::SystemConfig`] selects.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize, Default)]
pub enum EngineKind {
    /// The legacy per-tick main loop.
    Tick,
    /// The event-driven engine (default; bit-identical results, fewer
    /// visited ticks).
    #[default]
    Event,
}

impl EngineKind {
    /// The engine implementation this kind selects.
    #[must_use]
    pub fn instance(self) -> &'static dyn SimulationEngine {
        match self {
            EngineKind::Tick => &TickEngine,
            EngineKind::Event => &EventEngine,
        }
    }

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
        self.instance().name()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wheel_returns_earliest_armed_wakeup() {
        let mut wheel = EventWheel::new();
        wheel.reregister(EventSource::Cluster, Some(50));
        wheel.reregister(EventSource::Controller, Some(20));
        wheel.reregister(EventSource::Forwarding, None);
        assert_eq!(wheel.armed_count(), 2);
        assert_eq!(wheel.next_after(0), Some(20));
    }

    #[test]
    fn reregistration_replaces_previous_wakeup() {
        let mut wheel = EventWheel::new();
        wheel.reregister(EventSource::Controller, Some(20));
        wheel.reregister(EventSource::Controller, Some(400));
        assert_eq!(wheel.next_after(0), Some(400), "stale entry must be gone");
        wheel.reregister(EventSource::Controller, None);
        assert_eq!(wheel.next_after(400), None);
    }

    #[test]
    fn entries_at_or_before_now_are_consumed() {
        let mut wheel = EventWheel::new();
        wheel.reregister(EventSource::Cluster, Some(10));
        wheel.reregister(EventSource::Controller, Some(30));
        assert_eq!(wheel.next_after(10), Some(30));
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "not after the horizon")]
    fn wheel_rejects_wakeups_behind_the_horizon() {
        let mut wheel = EventWheel::new();
        wheel.reregister(EventSource::Cluster, Some(100));
        assert_eq!(wheel.next_after(0), Some(100));
        wheel.reregister(EventSource::Controller, Some(99));
    }

    #[test]
    fn engine_wheel_never_builds_a_heap_index() {
        // The three-source wheel the engines use runs in linear-scan mode:
        // re-registration churn must leave no resident heap entries at all.
        let mut wheel = EventWheel::new();
        for t in 0..10_000u64 {
            wheel.reregister(EventSource::Cluster, Some(t + 1));
            wheel.reregister(EventSource::Controller, Some(t + 2));
            wheel.reregister(EventSource::Forwarding, Some(t + 3));
            assert_eq!(wheel.next_after(t), Some(t + 1));
        }
        assert_eq!(wheel.occupancy(), 0);
    }

    #[test]
    fn heap_occupancy_stays_bounded_under_reregistration_churn() {
        // Pure lazy deletion grows without bound when a slot is repeatedly
        // re-registered to an *earlier* tick than a previous registration:
        // the stale later entry stays buried below the live minimum and is
        // never popped.  The compaction guard must keep the index bounded
        // relative to the live slot count on exactly that pattern.
        let slots = 64;
        let mut wheel = EventWheel::with_slots(slots);
        let mut now = 0;
        for round in 0..10_000u64 {
            let base = (round + 1) * 1_000;
            // First a far wake-up, then a near correction: the far entry
            // goes stale and would accumulate forever without compaction.
            for slot in 0..slots {
                wheel.reregister_slot(slot, Some(base + 900 + slot as u64));
                wheel.reregister_slot(slot, Some(base + 1 + slot as u64));
            }
            assert!(
                wheel.occupancy() <= wheel.occupancy_bound(),
                "round {round}: occupancy {} exceeds bound {}",
                wheel.occupancy(),
                wheel.occupancy_bound()
            );
            assert_eq!(wheel.next_after(now), Some(base + 1));
            now = base + 1;
        }
        assert_eq!(wheel.armed_count(), slots);
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
