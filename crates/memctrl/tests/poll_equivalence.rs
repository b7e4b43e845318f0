//! Differential suite: the fused [`MemoryController::poll`] against
//! [`MemoryController::tick_into`] followed by
//! [`MemoryController::next_event_at`].
//!
//! `poll` reads a cached FR-FCFS choice (picked from the controller's
//! incremental FR-FCFS index) for both its tick and its wake-up, and skips
//! the completion walk until an in-flight request is due.  The oracle keeps
//! none of that: `tick_into` drops the cache before it ticks, and
//! `next_event_at` scans the queue afresh with
//! `FrFcfsScheduler::choose_from`.  So the two must be indistinguishable.
//! Two races check that under every arm of `MitigationPolicy` (and the
//! closed-page policy), for hammering, mixed, bursty and sparse traffic:
//!
//! * **lock-step** — a controller and its clone see the same requests on
//!   every tick; one is polled, the other ticked and then asked for its
//!   wake-up.  Completions and wake-ups must agree on every tick.
//! * **skipping** — the polled controller visits only the ticks its wake-ups
//!   and the request arrivals name, plus the next tick while requests wait
//!   and its queue has room; the other is ticked on every cycle.
//!   Completions, controller and DRAM statistics and RFM logs must agree.
//!
//! The full device × setup × traffic × seed sweep is `#[ignore]`d for debug
//! runs; CI runs it in release mode:
//!
//! ```text
//! cargo test --release -p memctrl --test poll_equivalence -- --include-ignored
//! ```

use std::collections::VecDeque;

use dram_sim::device::DramDeviceConfig;
use dram_sim::org::DramAddress;
use memctrl::controller::{ControllerConfig, MemoryController, PagePolicy};
use memctrl::request::{CompletedRequest, MemoryRequest};
use memctrl::scheduler::QUEUE_CAPACITY;
use prac_core::config::{MitigationPolicy, PracConfig};
use prac_core::timing::DramTimingSummary;
use prac_core::tprac::TpracConfig;

/// A controller set-up under test: a label, the policy and the page
/// policy.
struct Setup {
    label: &'static str,
    policy: MitigationPolicy,
    closed_page: bool,
}

fn setups() -> Vec<Setup> {
    let timing = DramTimingSummary::ddr5_8000b();
    let setup = |label, policy| Setup {
        label,
        policy,
        closed_page: false,
    };
    vec![
        setup("default", MitigationPolicy::AboOnly),
        setup("abo+acb", MitigationPolicy::AboPlusAcbRfm),
        setup(
            "tprac",
            MitigationPolicy::Tprac(TpracConfig::with_window_trefi(0.25, &timing)),
        ),
        setup("para", MitigationPolicy::Para { one_in: 4, seed: 3 }),
        setup("prfm", MitigationPolicy::PeriodicRfm { every_trefi: 2 }),
        setup("disabled", MitigationPolicy::Disabled),
        Setup {
            closed_page: true,
            ..setup("closed-page", MitigationPolicy::AboOnly)
        },
    ]
}

/// The request stream a race feeds both controllers.
#[derive(Debug, Clone, Copy)]
enum Traffic {
    /// Alternating rows of one bank (one activation per access), with an
    /// occasional access to a second bank.
    Hammer,
    /// Reads and writes over every bank with some row locality.
    Mixed,
    /// [`Traffic::Mixed`] addresses arriving 1–4 at a tick, as the CPU
    /// cluster fans them out: one request per 100 ticks of the run, all
    /// arriving at its start.  The queue fills and stays full while the
    /// backlog lasts; then, under most setups, it drains.  A request keeps
    /// the tick it arrived at while it waits in the backlog, so its group
    /// still ties when it enters the full queue at a freed position, and
    /// completions renumber tied requests.
    Burst,
    /// [`Traffic::Mixed`] addresses, one every 1–400 ticks: the queue is
    /// mostly empty, so the skipping race skips most ticks.
    Sparse,
}

/// A small deterministic generator (xorshift64*).
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 >> 12;
        self.0 ^= self.0 << 25;
        self.0 ^= self.0 >> 27;
        self.0.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    fn below(&mut self, bound: u64) -> u64 {
        self.next() % bound
    }
}

/// A request that arrives at `tick`: `(tick, physical address, is_write)`.
type Arrival = (u64, u64, bool);

fn controller(device: &DramDeviceConfig, setup: &Setup, nbo: u32) -> MemoryController {
    let prac = PracConfig::builder()
        .rowhammer_threshold(nbo)
        .back_off_threshold(nbo)
        .bank_activation_threshold(nbo / 4)
        .policy(setup.policy.clone())
        .build();
    let config = ControllerConfig {
        page_policy: if setup.closed_page {
            PagePolicy::Closed
        } else {
            PagePolicy::Open
        },
        ..ControllerConfig::default()
    };
    MemoryController::new(
        DramDeviceConfig {
            prac,
            ..device.clone()
        },
        config,
    )
}

/// Arrivals over `[0, ticks)`, a group every 1–`gap` ticks; see
/// [`Traffic`] for the group sizes.
fn arrivals(ctrl: &MemoryController, traffic: Traffic, seed: u64, ticks: u64) -> Vec<Arrival> {
    let org = ctrl.device().config().organization;
    let mut rng = Rng(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1);
    let address = |rank, bank_group, bank, row, column| {
        ctrl.encode_address(&DramAddress::new(&org, rank, bank_group, bank, row, column))
    };
    let mut out = Vec::new();
    let mut now = 0;
    let mut last = (0, 0, 0, 0);
    let (gap, budget) = match traffic {
        Traffic::Hammer => (6, usize::MAX),
        Traffic::Mixed => (12, usize::MAX),
        Traffic::Burst => (4, (ticks / 100) as usize),
        Traffic::Sparse => (400, usize::MAX),
    };
    while now < ticks && out.len() < budget {
        let group = match traffic {
            Traffic::Burst => 1 + rng.below(4),
            Traffic::Hammer | Traffic::Mixed | Traffic::Sparse => 1,
        };
        for _ in 0..group {
            let arrival = match traffic {
                Traffic::Hammer if rng.below(8) == 0 => (address(0, 1, 0, 5, 0), false),
                Traffic::Hammer => (address(0, 0, 0, (out.len() % 2) as u32 + 1, 0), false),
                Traffic::Mixed | Traffic::Burst | Traffic::Sparse => {
                    if rng.below(10) >= 6 {
                        last = (
                            rng.below(u64::from(org.ranks)) as u32,
                            rng.below(u64::from(org.bank_groups)) as u32,
                            rng.below(u64::from(org.banks_per_group)) as u32,
                            rng.below(u64::from(org.rows_per_bank.min(32))) as u32,
                        );
                    }
                    let column = rng.below(u64::from(org.columns_per_row)) as u32;
                    let (rank, bank_group, bank, row) = last;
                    (
                        address(rank, bank_group, bank, row, column),
                        rng.below(10) < 3,
                    )
                }
            };
            out.push((now, arrival.0, arrival.1));
        }
        now += 1 + rng.below(gap);
    }
    out
}

/// Requests that arrived but have not been accepted yet, in order.
struct Backlog {
    arrivals: VecDeque<Arrival>,
    waiting: VecDeque<Arrival>,
    next_id: u64,
    /// Stamp each request with the tick it arrived at rather than the tick
    /// the controller accepted it ([`Traffic::Burst`]).
    keep_arrival_ticks: bool,
}

impl Backlog {
    fn new(arrivals: &[Arrival], traffic: Traffic) -> Self {
        Self {
            arrivals: arrivals.iter().copied().collect(),
            waiting: VecDeque::new(),
            next_id: 0,
            keep_arrival_ticks: matches!(traffic, Traffic::Burst),
        }
    }

    /// Moves everything that arrived by `now` into the waiting line, then
    /// enqueues from its head while the controller accepts.
    fn feed(&mut self, ctrl: &mut MemoryController, now: u64) {
        while self
            .arrivals
            .front()
            .is_some_and(|&(tick, _, _)| tick <= now)
        {
            self.waiting.extend(self.arrivals.pop_front());
        }
        while ctrl.can_accept() {
            let Some((tick, address, is_write)) = self.waiting.pop_front() else {
                break;
            };
            let id = self.next_id;
            self.next_id += 1;
            let stamp = if self.keep_arrival_ticks { tick } else { now };
            let request = if is_write {
                MemoryRequest::write(id, address, 0, stamp)
            } else {
                MemoryRequest::read(id, address, 0, stamp)
            };
            assert!(ctrl.enqueue(request));
        }
    }

    /// The next tick the backlog needs a visit at: `now + 1` while requests
    /// wait and the controller has room for one, else the next arrival.  A
    /// full queue frees a slot only at a completion, which the controller's
    /// own wake-up names, so waiting requests need no visit of their own
    /// until then (the simulation engine's forwarding slot arms only for
    /// channels with space, too).
    fn next_visit(&self, ctrl: &MemoryController, now: u64) -> Option<u64> {
        if self.waiting.is_empty() || !ctrl.can_accept() {
            self.arrivals.front().map(|&(tick, _, _)| tick)
        } else {
            Some(now + 1)
        }
    }
}

/// Asserts that two controllers reached identical observable states.
fn assert_same_state(label: &str, polled: &MemoryController, ticked: &MemoryController) {
    assert_eq!(polled.stats(), ticked.stats(), "{label}: controller stats");
    assert_eq!(
        polled.device().stats(),
        ticked.device().stats(),
        "{label}: DRAM stats"
    );
    assert_eq!(polled.rfm_log(), ticked.rfm_log(), "{label}: RFM log");
    assert_eq!(
        polled.pending_requests(),
        ticked.pending_requests(),
        "{label}: queue depth"
    );
}

/// Polls one controller and ticks a clone in lock-step over `[0, ticks)`,
/// comparing completions and wake-ups on every tick.  Returns the polled
/// controller and the number of ticks it was polled with a full queue.
fn race_lock_step(
    label: &str,
    ctrl: MemoryController,
    traffic: Traffic,
    arrivals: &[Arrival],
    ticks: u64,
) -> (MemoryController, u64) {
    let mut polled = ctrl;
    let mut ticked = polled.clone();
    let (mut polled_feed, mut ticked_feed) = (
        Backlog::new(arrivals, traffic),
        Backlog::new(arrivals, traffic),
    );
    let (mut polled_done, mut ticked_done) = (Vec::new(), Vec::new());
    let mut full_ticks = 0;
    for now in 0..ticks {
        polled_feed.feed(&mut polled, now);
        ticked_feed.feed(&mut ticked, now);
        full_ticks += u64::from(polled.pending_requests() == QUEUE_CAPACITY);
        let wake = polled.poll(now, &mut polled_done);
        ticked.tick_into(now, &mut ticked_done);
        assert_eq!(
            wake,
            ticked.next_event_at(now),
            "{label}: wake-up at tick {now}"
        );
        assert_eq!(
            polled_done, ticked_done,
            "{label}: completions at tick {now}"
        );
    }
    assert_same_state(label, &polled, &ticked);
    (polled, full_ticks)
}

/// Drives the polled controller only at the ticks its wake-ups and the
/// arrivals name, and a clone on every tick, over `[0, ticks)`.  Returns the
/// polled controller's completions and the number of ticks it visited.
fn race_skipping(
    label: &str,
    ctrl: MemoryController,
    traffic: Traffic,
    arrivals: &[Arrival],
    ticks: u64,
) -> (Vec<CompletedRequest>, u64) {
    let mut polled = ctrl;
    let mut ticked = polled.clone();
    let (mut polled_feed, mut ticked_feed) = (
        Backlog::new(arrivals, traffic),
        Backlog::new(arrivals, traffic),
    );
    let (mut polled_done, mut ticked_done) = (Vec::new(), Vec::new());
    for now in 0..ticks {
        ticked_feed.feed(&mut ticked, now);
        ticked.tick_into(now, &mut ticked_done);
    }
    let mut visited = 0;
    let mut now = 0;
    while now < ticks {
        polled_feed.feed(&mut polled, now);
        let wake = polled.poll(now, &mut polled_done);
        visited += 1;
        now = [wake, polled_feed.next_visit(&polled, now)]
            .into_iter()
            .flatten()
            .min()
            .map_or(ticks, |next| next.min(ticks));
    }
    assert_eq!(polled_done, ticked_done, "{label}: completions");
    assert_same_state(label, &polled, &ticked);
    (polled_done, visited)
}

/// Runs both races for every set-up on one device, traffic pattern and
/// seed, and checks each race did real work.
fn sweep(device: &DramDeviceConfig, nbo: u32, traffic: Traffic, seed: u64, ticks: u64) {
    for setup in setups() {
        let label = format!("{} / {traffic:?} / NBO {nbo} / seed {seed}", setup.label);
        let ctrl = controller(device, &setup, nbo);
        let arrivals = arrivals(&ctrl, traffic, seed, ticks);
        let (polled, full_ticks) = race_lock_step(&label, ctrl.clone(), traffic, &arrivals, ticks);
        assert!(
            polled.stats().reads_completed > 20,
            "{label}: too little traffic completed: {:?}",
            polled.stats()
        );
        // The cached choice is rescanned at most once per change of what it
        // depends on: an enqueue, an accepted command or a completion.
        let stats = polled.stats();
        let completions = stats.reads_completed + stats.writes_completed;
        let enqueues = completions + polled.pending_requests() as u64;
        let commands = polled.device().stats().total_commands();
        assert!(
            polled.demand_scans() <= 1 + commands + enqueues + completions,
            "{label}: {} scans",
            polled.demand_scans()
        );
        match traffic {
            // Only the explicit no-mitigation baseline, with ABO off, stays
            // silent under hammering.
            Traffic::Hammer => assert_eq!(
                polled.stats().total_rfms() > 0,
                setup.policy.uses_abo(),
                "{label}: {:?}",
                polled.stats()
            ),
            Traffic::Burst => assert!(
                full_ticks > ticks / 8,
                "{label}: the queue was full on only {full_ticks} of {ticks} ticks"
            ),
            Traffic::Mixed | Traffic::Sparse => {}
        }
        let (completed, visited) = race_skipping(&label, ctrl, traffic, &arrivals, ticks);
        assert!(!completed.is_empty(), "{label}");
        assert!(
            visited < ticks,
            "{label}: the poll-driven run skipped nothing"
        );
        if let Traffic::Sparse = traffic {
            assert!(
                visited * 2 < ticks,
                "{label}: light load, yet {visited} of {ticks} ticks visited"
            );
        }
    }
}

#[test]
fn poll_matches_tick_then_next_event_at_on_a_small_device() {
    let device = DramDeviceConfig::tiny_for_tests(PracConfig::paper_default());
    for traffic in [
        Traffic::Hammer,
        Traffic::Mixed,
        Traffic::Burst,
        Traffic::Sparse,
    ] {
        sweep(&device, 16, traffic, 1, 12_000);
    }
}

#[test]
#[ignore = "full sweep; run in release mode with --include-ignored"]
fn poll_matches_tick_then_next_event_at_full_sweep() {
    let devices = [
        DramDeviceConfig::tiny_for_tests(PracConfig::paper_default()),
        DramDeviceConfig::paper_default(),
    ];
    for device in &devices {
        for nbo in [16, 64] {
            for traffic in [
                Traffic::Hammer,
                Traffic::Mixed,
                Traffic::Burst,
                Traffic::Sparse,
            ] {
                for seed in [0, 7] {
                    sweep(device, nbo, traffic, seed, 60_000);
                }
            }
        }
    }
}
