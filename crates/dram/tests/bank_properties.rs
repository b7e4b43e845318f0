//! Property tests for the per-bank DRAM state machine.
//!
//! Random command sequences — activates, precharges, reads and writes at
//! randomly spaced ticks — are replayed against one bank, held as the device
//! holds it (slot 0 of a one-entry [`BankTimingTable`] plus its
//! [`BankMeta`]), while a shadow model records when each successful command
//! happened.  The properties:
//!
//! 1. **Timing ordering is never violated.**  Whenever the bank *accepts* a
//!    command, the mandated gap to the commands that precede it has elapsed:
//!    tRCD between ACT and a column access, tRAS between ACT and PRE, tRP
//!    between PRE and the next ACT, tRC between ACTs, tCCD between column
//!    accesses, and write recovery (tCL + tBL + tWR) between a write and
//!    the precharge.
//! 2. **Rejections name the future.**  A `TooEarly` rejection always carries
//!    a `ready_at` strictly after the attempted tick.
//! 3. **The next-transition bound moves forward.**  Immediately after the
//!    bank accepts a command at tick `t`, `next_transition_at()` is strictly
//!    greater than `t` — the event-driven engine relies on this to sleep
//!    without re-polling.
//!
//! 4. **The ACB maximum is exact.**  The device's running maximum of the
//!    per-bank activations since the last RFM equals the walk over every
//!    bank after any ACT/PRE/RFMab/REF sequence, with TREF on and off.
//! 5. **The single-entry queue drains a maximal row.**  Each drain of a
//!    bank's mitigation queue returns a row carrying the largest counter
//!    value any activation reached since the previous drain, and that row's
//!    counter reads 0 afterwards.
//!
//! The proptest shim replays a fixed number of deterministically seeded
//! cases, so failures reproduce bit-for-bit across runs and machines.

use dram_sim::bank::{BankMeta, BankTimingTable};
use dram_sim::command::{DramCommand, IssueError};
use dram_sim::device::{DramDevice, DramDeviceConfig};
use dram_sim::org::DramAddress;
use dram_sim::timing::DramTimingParams;
use prac_core::config::PracConfig;
use proptest::collection;
use proptest::prelude::*;

/// Shadow record of the last accepted command of each class.
#[derive(Debug, Default, Clone, Copy)]
struct Shadow {
    last_act: Option<u64>,
    last_precharge: Option<u64>,
    last_column: Option<u64>,
    last_write: Option<u64>,
}

/// One randomised step: command selector, target row, tick delta.
type Step = (u8, u32, u64);

/// One idle, precharged bank: the timing table's only slot (index 0) plus
/// its cold state.
fn bank() -> (BankTimingTable, BankMeta) {
    (BankTimingTable::new(1), BankMeta::default())
}

/// Activates `row` as the device does: timing first, then the PRAC side.
fn activate(
    table: &mut BankTimingTable,
    meta: &mut BankMeta,
    row: u32,
    now: u64,
    timing: &DramTimingParams,
) -> Result<u32, IssueError> {
    table.activate(0, row, now, timing)?;
    Ok(meta.note_activation(row))
}

fn drive(timing: &DramTimingParams, steps: &[Step]) {
    let (mut table, mut meta) = bank();
    let mut shadow = Shadow::default();
    let mut now = 0u64;
    for &(cmd, row, delta) in steps {
        now += delta;
        let before_open = table.open_row(0);
        match cmd % 4 {
            0 => match activate(&mut table, &mut meta, row, now, timing) {
                Ok(_) => {
                    assert_eq!(before_open, None, "ACT accepted while a row was open");
                    if let Some(act) = shadow.last_act {
                        assert!(now >= act + timing.t_rc, "tRC violated: {act} -> {now}");
                    }
                    if let Some(pre) = shadow.last_precharge {
                        assert!(now >= pre + timing.t_rp, "tRP violated: {pre} -> {now}");
                    }
                    shadow.last_act = Some(now);
                    assert!(table.next_transition_at(0) > now);
                }
                Err(IssueError::TooEarly { ready_at }) => {
                    assert!(ready_at > now, "TooEarly must name a future tick");
                }
                Err(IssueError::IllegalState { .. }) => {
                    assert!(before_open.is_some(), "ACT is only illegal on an open bank");
                }
            },
            1 => match table.precharge(0, now, timing) {
                Ok(()) => {
                    if before_open.is_some() {
                        let act = shadow.last_act.expect("open row implies an ACT");
                        assert!(now >= act + timing.t_ras, "tRAS violated: {act} -> {now}");
                        if let Some(write) = shadow.last_write {
                            let recovery = timing.t_cl + timing.t_bl + timing.t_wr;
                            assert!(
                                now >= write + recovery,
                                "write recovery violated: {write} -> {now}"
                            );
                        }
                        shadow.last_precharge = Some(now);
                        shadow.last_column = None;
                        shadow.last_write = None;
                        assert!(table.next_transition_at(0) > now);
                    }
                    assert_eq!(table.open_row(0), None);
                }
                Err(IssueError::TooEarly { ready_at }) => assert!(ready_at > now),
                Err(IssueError::IllegalState { reason }) => {
                    panic!("precharge must never be an illegal state: {reason}")
                }
            },
            col => {
                let result = if col == 2 {
                    table.read(0, row, now, timing)
                } else {
                    table.write(0, row, now, timing)
                };
                match result {
                    Ok(done) => {
                        assert_eq!(before_open, Some(row), "column access to a closed row");
                        let act = shadow.last_act.expect("open row implies an ACT");
                        assert!(now >= act + timing.t_rcd, "tRCD violated: {act} -> {now}");
                        if let Some(column) = shadow.last_column {
                            assert!(now >= column + timing.t_ccd, "tCCD violated");
                        }
                        assert!(done > now, "data/write-accept time must be in the future");
                        shadow.last_column = Some(now);
                        if col != 2 {
                            shadow.last_write = Some(now);
                        }
                        assert!(table.next_transition_at(0) > now);
                    }
                    Err(IssueError::TooEarly { ready_at }) => assert!(ready_at > now),
                    Err(IssueError::IllegalState { .. }) => {
                        assert_ne!(
                            before_open,
                            Some(row),
                            "column access to the open row must not be an illegal state"
                        );
                    }
                }
            }
        }
    }
}

/// One randomised subsystem step: channel selector, command selector, bank
/// selector, row, tick delta.
type DeviceStep = (u8, u8, u8, u32, u64);

/// Replays a random command stream against one [`DramDevice`] per channel
/// (the subsystem shape: a device models exactly one channel) and checks the
/// struct-of-arrays layout's device-wide invariants at every step:
///
/// * **The min-reduce is honest.**  `next_bank_transition_at()` equals the
///   fold of `next_transition_at` over every per-bank view — the branchless
///   reduction can never disagree with the per-bank state it summarises.
/// * **The bound is monotone.**  Accepted commands only push per-bank
///   windows into the future and rejected commands mutate nothing, so the
///   device-wide bound never moves backwards as the stream advances.
/// * **Ordering survives the layout.**  Whenever a bank accepts an ACT, the
///   tRC/tRP gaps to that same bank's previous ACT/PRE have elapsed, and
///   accepted column accesses respect tRCD — indexed per (channel, bank) so
///   cross-bank SoA indexing errors cannot hide.
fn drive_devices(channels: u32, steps: &[DeviceStep]) {
    let config = DramDeviceConfig::tiny_for_tests(PracConfig::paper_default());
    let org = config.organization;
    let timing = config.timing;
    let mut devices: Vec<DramDevice> = (0..channels)
        .map(|_| DramDevice::new(config.clone()))
        .collect();
    let banks = org.total_banks();
    let mut last_act = vec![None::<u64>; (channels * banks) as usize];
    let mut last_pre = vec![None::<u64>; (channels * banks) as usize];
    let mut now = 0u64;
    for &(chan_sel, cmd_sel, bank_sel, row, delta) in steps {
        now += delta;
        let channel = u32::from(chan_sel) % channels;
        let device = &mut devices[channel as usize];
        let flat = u32::from(bank_sel) % banks;
        let addr = DramAddress::new(
            &org,
            flat / org.banks_per_rank(),
            (flat / org.banks_per_group) % org.bank_groups,
            flat % org.banks_per_group,
            row % org.rows_per_bank,
            0,
        )
        .with_channel(channel);
        let before = device.next_bank_transition_at();
        let command = match cmd_sel % 4 {
            0 => DramCommand::Activate(addr),
            1 => DramCommand::Precharge(addr),
            2 => DramCommand::Read(addr),
            _ => DramCommand::Write(addr),
        };
        let shadow = (channel * banks + flat) as usize;
        let was_open = device.bank(flat).open_row().is_some();
        match device.issue(command, now) {
            Ok(_) => match cmd_sel % 4 {
                0 => {
                    if let Some(act) = last_act[shadow] {
                        assert!(now >= act + timing.t_rc, "tRC violated: {act} -> {now}");
                    }
                    if let Some(pre) = last_pre[shadow] {
                        assert!(now >= pre + timing.t_rp, "tRP violated: {pre} -> {now}");
                    }
                    last_act[shadow] = Some(now);
                }
                // A precharge of an already-closed bank is an accepted
                // no-op: it pushes no window, so the shadow ignores it.
                1 if was_open => {
                    if let Some(act) = last_act[shadow] {
                        assert!(now >= act + timing.t_ras, "tRAS violated: {act} -> {now}");
                    }
                    last_pre[shadow] = Some(now);
                }
                1 => {}
                _ => {
                    let act = last_act[shadow].expect("column access implies an ACT");
                    assert!(now >= act + timing.t_rcd, "tRCD violated: {act} -> {now}");
                }
            },
            Err(IssueError::TooEarly { ready_at }) => {
                assert!(ready_at > now, "TooEarly must name a future tick");
            }
            Err(IssueError::IllegalState { .. }) => {}
        }
        let folded = (0..banks)
            .map(|index| device.bank(index).next_transition_at())
            .min()
            .expect("a device has at least one bank");
        assert_eq!(
            device.next_bank_transition_at(),
            folded,
            "min-reduce disagrees with the per-bank fold on channel {channel}"
        );
        assert!(
            device.next_bank_transition_at() >= before,
            "device-wide bound moved backwards on channel {channel}"
        );
    }
}

/// Replays a random command stream against one 2-rank, tFAW-enabled device
/// and checks the rank-aware invariants at every step:
///
/// * **The per-rank tFAW window is never exceeded.**  A shadow log of every
///   accepted ACT's (rank, tick) proves that no half-open window
///   `(now - tFAW, now]` ever holds more than four ACTs to one rank — the
///   rolling-window restatement of the four-ACT ring the device maintains.
/// * **The rank lane agrees with the per-bank fold.**  For each rank,
///   `next_rank_transition_at(rank)` equals the min-fold of
///   `next_transition_at` over exactly that rank's banks, and the
///   device-wide `next_bank_transition_at()` equals the min across the two
///   rank lanes — so the packed subrange reduction can neither leak a bank
///   into the wrong rank nor disagree with the full reduce.
fn drive_two_rank_device(t_faw: u64, steps: &[DeviceStep]) {
    let mut config = DramDeviceConfig::tiny_for_tests(PracConfig::paper_default());
    config.organization = config.organization.with_ranks(2);
    config.timing.t_faw = t_faw;
    let org = config.organization;
    let mut device = DramDevice::new(config);
    let banks = org.total_banks();
    let banks_per_rank = org.banks_per_rank();
    let mut act_log: Vec<(u32, u64)> = Vec::new();
    let mut now = 0u64;
    for &(_, cmd_sel, bank_sel, row, delta) in steps {
        now += delta;
        let flat = u32::from(bank_sel) % banks;
        let rank = flat / banks_per_rank;
        let addr = DramAddress::new(
            &org,
            rank,
            (flat / org.banks_per_group) % org.bank_groups,
            flat % org.banks_per_group,
            row % org.rows_per_bank,
            0,
        );
        let command = match cmd_sel % 4 {
            0 => DramCommand::Activate(addr),
            1 => DramCommand::Precharge(addr),
            2 => DramCommand::Read(addr),
            _ => DramCommand::Write(addr),
        };
        let accepted_act =
            matches!(command, DramCommand::Activate(_)) && device.issue(command, now).is_ok();
        if accepted_act {
            act_log.push((rank, now));
            let in_window = act_log
                .iter()
                .filter(|&&(r, tick)| r == rank && tick + t_faw > now)
                .count();
            assert!(
                in_window <= 4,
                "tFAW exceeded: {in_window} ACTs to rank {rank} within {t_faw} ticks of {now}"
            );
        }
        for lane in 0..org.ranks {
            let start = lane * banks_per_rank;
            let folded = (start..start + banks_per_rank)
                .map(|index| device.bank(index).next_transition_at())
                .min()
                .expect("a rank has at least one bank");
            assert_eq!(
                device.next_rank_transition_at(lane),
                folded,
                "rank lane {lane} disagrees with its per-bank fold"
            );
        }
        assert_eq!(
            device.next_bank_transition_at(),
            (0..org.ranks)
                .map(|lane| device.next_rank_transition_at(lane))
                .min()
                .expect("a device has at least one rank"),
            "device-wide bound disagrees with the min across rank lanes"
        );
    }
}

/// Replays a random ACT/PRE/RFMab/REF stream against one device and checks
/// after every step that the device's running
/// `max_activations_since_rfm()` equals the walk over its banks.  With TREF
/// on, every second refresh clears every bank's count as an RFM does.
fn drive_activation_maximum(tref_every_n_refreshes: Option<u32>, steps: &[DeviceStep]) {
    let mut config = DramDeviceConfig::tiny_for_tests(PracConfig::paper_default());
    config.tref_every_n_refreshes = tref_every_n_refreshes;
    let org = config.organization;
    let mut device = DramDevice::new(config);
    let banks = org.total_banks();
    let mut now = 0u64;
    for &(_, cmd_sel, bank_sel, row, delta) in steps {
        now += delta;
        let flat = u32::from(bank_sel) % banks;
        let addr = DramAddress::new(
            &org,
            flat / org.banks_per_rank(),
            (flat / org.banks_per_group) % org.bank_groups,
            flat % org.banks_per_group,
            row % org.rows_per_bank,
            0,
        );
        let command = match cmd_sel % 8 {
            0..=3 => DramCommand::Activate(addr),
            4 | 5 => DramCommand::Precharge(addr),
            6 => DramCommand::RfmAllBank,
            _ => DramCommand::Refresh,
        };
        let _ = device.issue(command, now);
        let walked = (0..banks)
            .map(|bank| device.bank(bank).activations_since_rfm())
            .max()
            .expect("a device has at least one bank");
        assert_eq!(
            device.max_activations_since_rfm(),
            walked,
            "running maximum disagrees with the bank walk after {command:?} at {now}"
        );
    }
}

/// Replays random activations, drains (an RFM or TREF reaching the bank)
/// and tREFW counter resets against one bank's cold state, checking every
/// drain against the largest counter value seen since the previous one.
fn drive_queue(steps: &[(u8, u32)]) {
    let mut meta = BankMeta::default();
    // Largest value `note_activation` returned since the last drain/reset.
    let mut best = 0u32;
    for &(op, row) in steps {
        match op % 8 {
            0..=5 => best = best.max(meta.note_activation(row)),
            6 => {
                let head = meta.queue_head();
                let carried = head.map(|row| meta.counter(row));
                let drained = meta.mitigate_queue_head();
                assert_eq!(drained, head, "a drain takes the queue head");
                if let Some(row) = drained {
                    assert_eq!(carried, Some(best), "row {row} is not maximal");
                    assert_eq!(meta.counter(row), 0, "row {row} kept its counter");
                }
                assert_eq!(meta.queue_head(), None, "a drain empties the queue");
                best = 0;
            }
            _ => {
                meta.reset_counters();
                assert_eq!(meta.queue_head(), None, "a reset empties the queue");
                best = 0;
            }
        }
        // Between drains the tracked row is one whose counter reached the
        // largest value seen, and it is still at that value.
        let tracked = meta.queue_head().map(|row| meta.counter(row));
        assert_eq!(
            tracked,
            (best > 0).then_some(best),
            "tracked entry after {op}/{row}"
        );
    }
}

proptest! {
    #[test]
    fn single_entry_tracks_a_maximal_row(
        steps in collection::vec((0u8..8, 0u32..64), 1..300),
    ) {
        drive_queue(&steps);
    }

    #[test]
    fn activation_maximum_matches_the_bank_walk(
        steps in collection::vec((0u8..1, 0u8..8, 0u8..8, 0u32..64, 0u64..200), 1..300),
    ) {
        for tref in [None, Some(2)] {
            drive_activation_maximum(tref, &steps);
        }
    }

    #[test]
    fn device_min_reduce_and_ordering_hold_across_channel_counts(
        steps in collection::vec((0u8..8, 0u8..4, 0u8..8, 0u32..64, 0u64..120), 1..200),
    ) {
        for channels in [1u32, 2, 4] {
            drive_devices(channels, &steps);
        }
    }

    #[test]
    fn two_rank_device_honours_tfaw_and_the_rank_lanes(
        t_faw in 1u64..600,
        steps in collection::vec((0u8..1, 0u8..4, 0u8..8, 0u32..64, 0u64..120), 1..200),
    ) {
        drive_two_rank_device(t_faw, &steps);
    }

    #[test]
    fn random_sequences_respect_timing_under_paper_parameters(
        steps in collection::vec((0u8..4, 0u32..8, 0u64..600), 1..250),
    ) {
        drive(&DramTimingParams::ddr5_8000b(), &steps);
    }

    #[test]
    fn random_sequences_respect_timing_under_test_parameters(
        steps in collection::vec((0u8..4, 0u32..8, 0u64..90), 1..250),
    ) {
        drive(&DramTimingParams::fast_for_tests(), &steps);
    }

    #[test]
    fn fresh_activates_gate_the_immediate_followups(
        row in 0u32..64,
        delta in 0u64..32,
    ) {
        let timing = DramTimingParams::ddr5_8000b();
        let (mut table, mut meta) = bank();
        let start = 10 + delta;
        activate(&mut table, &mut meta, row, start, &timing).unwrap();

        // Column access strictly inside tRCD must be rejected with the exact
        // release tick; the same for a precharge inside tRAS.
        prop_assume!(timing.t_rcd > 0 && timing.t_ras > 0);
        let too_early = table.read(0, row, start + timing.t_rcd - 1, &timing).unwrap_err();
        prop_assert!(
            matches!(too_early, IssueError::TooEarly { ready_at } if ready_at == start + timing.t_rcd)
        );
        let too_early = table.precharge(0, start + timing.t_ras - 1, &timing).unwrap_err();
        prop_assert!(
            matches!(too_early, IssueError::TooEarly { ready_at } if ready_at == start + timing.t_ras)
        );

        // And the bank's advertised next transition matches the earlier of
        // the two windows.
        prop_assert_eq!(
            table.next_transition_at(0),
            (start + timing.t_rcd).min(start + timing.t_ras)
        );
    }

    #[test]
    fn blocking_commands_push_the_next_transition_past_the_window(
        row in 0u32..64,
        duration in 1u64..5_000,
    ) {
        let timing = DramTimingParams::ddr5_8000b();
        let (mut table, mut meta) = bank();
        activate(&mut table, &mut meta, row, 0, &timing).unwrap();
        table.block_until(0, 10, duration);
        prop_assert_eq!(table.open_row(0), None, "blocking closes the row");
        prop_assert!(table.next_transition_at(0) >= 10 + duration);
        prop_assert!(matches!(
            activate(&mut table, &mut meta, row, 10 + duration - 1, &timing),
            Err(IssueError::TooEarly { .. })
        ));
    }
}
