//! Integration tests for the TPRAC defense: the analytically-sized TB-Window
//! must eliminate every Alert Back-Off event under adversarial access
//! patterns, and the defended system must hide the AES key from the
//! side-channel attack while remaining functional.

use prac_core::security::CounterResetPolicy;
use prac_timing::prelude::*;
use pracleak::agents::{MultiAgentRunner, SerializedAccessAgent};
use pracleak::covert::{activity_window_ticks, ActivitySender};

fn tprac_policy(nbo: u32) -> MitigationPolicy {
    let timing = DramTimingSummary::ddr5_8000b();
    let cfg = TpracConfig::solve_for_threshold(nbo, &timing, CounterResetPolicy::ResetEveryTrefw)
        .expect("TB-Window solvable");
    MitigationPolicy::Tprac(cfg)
}

#[test]
fn tprac_eliminates_abo_under_feinting_style_pattern() {
    let nbo = 256;
    let setup = AttackSetup::new(nbo).with_policy(tprac_policy(nbo));
    let controller = setup.build_controller();

    // Feinting-style pattern: uniformly activate a pool of decoys, then focus
    // every remaining activation on the target row.
    let decoys: Vec<u64> = (0..32)
        .map(|r| setup.row_address(&controller, 0, 500 + r, 0))
        .collect();
    let target = setup.row_address(&controller, 0, 7, 0);
    let mut decoy_agent = SerializedAccessAgent::new(decoys, 32 * 64);
    let mut runner = MultiAgentRunner::new(controller);
    runner.run(&mut [&mut decoy_agent], 40_000_000);
    let mut target_agent = SerializedAccessAgent::new(vec![target], u64::from(nbo) * 2);
    runner.run(&mut [&mut target_agent], 40_000_000);

    let device_stats = runner.controller().device().stats();
    let ctrl_stats = runner.controller().stats();
    assert_eq!(
        device_stats.alerts_asserted, 0,
        "no row may ever reach NBO under TPRAC"
    );
    assert_eq!(ctrl_stats.abo_rfms, 0);
    assert!(ctrl_stats.tb_rfms > 0, "TB-RFMs must be flowing");
    assert!(device_stats.rows_mitigated_by_rfm > 0);
}

#[test]
fn undefended_system_alerts_under_the_same_pattern() {
    let nbo = 256;
    let setup = AttackSetup::new(nbo); // ABO-only
    let controller = setup.build_controller();
    let target = setup.row_address(&controller, 0, 7, 0);
    let mut target_agent = SerializedAccessAgent::new(vec![target], u64::from(nbo) + 8);
    let mut runner = MultiAgentRunner::new(controller);
    runner.run(&mut [&mut target_agent], 40_000_000);
    assert!(runner.controller().device().stats().alerts_asserted >= 1);
    assert!(runner.controller().stats().abo_rfms >= 1);
}

#[test]
fn tprac_tb_rfm_times_are_independent_of_access_pattern() {
    // The same TPRAC configuration must issue RFMs at the same times whether
    // the memory is idle or hammered — that independence is the defense.
    let nbo = 512;
    let policy = tprac_policy(nbo);

    let idle_log = {
        // Completely idle memory system: just tick the controller.
        let setup = AttackSetup::new(nbo).with_policy(policy.clone());
        let mut controller = setup.build_controller();
        let _ = controller.run_until(0, 2_000_000);
        controller.rfm_log().to_vec()
    };

    let hammered_log = {
        let setup = AttackSetup::new(nbo).with_policy(policy);
        let controller = setup.build_controller();
        let target = setup.row_address(&controller, 0, 9, 0);
        let mut hammer = SerializedAccessAgent::new(vec![target], u64::MAX);
        let mut runner = MultiAgentRunner::new(controller);
        runner.run(&mut [&mut hammer], 2_000_000);
        runner.controller().rfm_log().to_vec()
    };

    assert!(!idle_log.is_empty());
    assert_eq!(
        idle_log, hammered_log,
        "TB-RFM issue times and kinds must not depend on activity"
    );
}

/// Non-interference, the paper's property of activity-independent RFMs:
/// under TPRAC and under PRFM the controller's RFM log (every RFM's issue
/// time) is the same whatever the victim's secret key byte, and no ABO ever
/// fires, so the RFM timing channel carries nothing about the key.  Under
/// ABO-Only the log moves with the key.
///
/// Measured on the paper attack (NBO 256, 200 encryptions): TPRAC logs
/// 1,080 identical entries per key, PRFM 135, and ABO-Only 16 that move
/// with the key.  ABO+ACB-RFM (66 entries) and PARA (29) also gave
/// identical logs for these five keys, but nothing in those policies
/// guarantees it, so it is not asserted.  Attacker latencies are not compared: contention between the
/// victim's and the attacker's requests is a separate channel that the
/// RFM schedule does not cover.
#[test]
fn defended_side_channel_observes_no_key_correlation() {
    const KEYS: [u8; 5] = [0x00, 0x10, 0x70, 0xa0, 0xf0];
    let runs = |policy: MitigationPolicy| {
        let attack = SideChannelExperiment::paper_attack().with_policy(policy);
        KEYS.map(|k0| attack.run_for_key_byte(k0, 0))
    };
    let constant = [
        ("TPRAC", tprac_policy(256)),
        ("PRFM", MitigationPolicy::PeriodicRfm { every_trefi: 2 }),
    ];
    for (name, policy) in constant {
        let outcomes = runs(policy);
        assert!(!outcomes[0].rfm_times_ns.is_empty(), "{name}: no RFMs");
        for (k0, outcome) in KEYS.iter().zip(&outcomes) {
            assert_eq!(outcome.abo_rfms, 0, "{name}, k0 {k0:#04x}: an ABO fired");
            assert_eq!(
                outcome.rfm_times_ns, outcomes[0].rfm_times_ns,
                "{name}: the RFM log moved with k0 {k0:#04x}"
            );
        }
    }
    let leaky = runs(MitigationPolicy::AboOnly);
    assert!(
        leaky
            .iter()
            .any(|outcome| outcome.rfm_times_ns != leaky[0].rfm_times_ns),
        "ABO-Only's RFM log must move with the key"
    );
}

/// Non-interference on the activity-based covert channel: an
/// `ActivitySender` transmits an all-zero, an all-one and a mixed payload
/// while a `SerializedAccessAgent` receiver runs on another bank group of
/// the same channel, with refresh off, with refresh on, and with refresh
/// on plus a Targeted Refresh every 4th refresh.  Under TPRAC and under
/// PRFM the controller's RFM log (tick and kind) is the same for every
/// payload and no ABO fires, so the RFM schedule carries nothing the
/// sender does.  Under ABO-Only the log moves with the payload: 0, 8 and 4
/// RFMs, with refresh off and on.  With a Targeted Refresh every 4th
/// refresh, every TREF mitigates the sender's row before its 256th
/// activation, so no Alert fires for any payload and ABO-Only is not
/// checked in that mode.
///
/// Measured at NBO 256 (TPRAC: 251 entries, 231 with TREF; PRFM every 2
/// tREFI: 41): ABO+ACB-RFM's and PARA's (1 in 64) logs move with the
/// payload in every mode; their RFM counts for the all-zero, all-one and
/// mixed payloads are 2, 27 and 13 (ACB) and 4, 36-37 and 21 (PARA), and
/// 0, 17 and 8 for ACB with TREF.  Neither policy claims otherwise, so
/// neither is asserted.  Receiver latencies are not compared: they differ
/// under TPRAC as well, through ordinary contention for the channel,
/// which is outside the paper's claim.
#[test]
fn defended_covert_channel_rfm_log_ignores_the_payload() {
    const NBO: u32 = 256;
    // The receiver probes every ~2 µs, longer than TPRAC's 1.3 µs TB-Window
    // at this NBO, so some windows see no receiver activation at all.
    const RECEIVER_THINK_TICKS: u64 = 8_000;
    let window_ticks = activity_window_ticks(NBO);
    let payloads = [
        vec![false; 8],
        vec![true; 8],
        (0..8).map(|bit| bit % 2 == 0).collect::<Vec<_>>(),
    ];
    let run = |setup: &AttackSetup, bits: &[bool]| {
        let controller = setup.build_controller();
        let sender_row = setup.row_address(&controller, 0, 99, 0);
        let receiver_rows = (0..64)
            .map(|r| setup.row_address(&controller, 2, 5_000 + r, 0))
            .collect();
        let mut sender = ActivitySender::new(sender_row, bits.to_vec(), NBO, window_ticks);
        let mut receiver = SerializedAccessAgent::new(receiver_rows, u64::MAX)
            .with_think_time(RECEIVER_THINK_TICKS);
        let mut runner = MultiAgentRunner::new(controller);
        let total_ticks = window_ticks * (bits.len() as u64 + 1);
        runner.run(&mut [&mut sender, &mut receiver], total_ticks);
        let controller = runner.controller();
        (controller.rfm_log().to_vec(), controller.stats().abo_rfms)
    };
    let refresh_modes = [
        ("refresh off", false, None),
        ("refresh on", true, None),
        ("refresh on, TREF every 4", true, Some(4)),
    ];
    for (mode, refresh, tref_every) in refresh_modes {
        let runs = |policy: &MitigationPolicy| {
            let setup = AttackSetup::new(NBO)
                .with_policy(policy.clone())
                .with_refresh(refresh)
                .with_tref_every(tref_every);
            payloads.each_ref().map(|bits| run(&setup, bits))
        };
        let constant = [
            ("TPRAC", tprac_policy(NBO)),
            ("PRFM", MitigationPolicy::PeriodicRfm { every_trefi: 2 }),
        ];
        for (name, policy) in constant {
            let outcomes = runs(&policy);
            assert!(!outcomes[0].0.is_empty(), "{name}, {mode}: no RFMs");
            for (bits, (log, abo_rfms)) in payloads.iter().zip(&outcomes) {
                assert_eq!(*abo_rfms, 0, "{name}, {mode}, {bits:?}: an ABO fired");
                assert_eq!(
                    *log, outcomes[0].0,
                    "{name}, {mode}: the RFM log moved with payload {bits:?}"
                );
            }
        }
        if tref_every.is_none() {
            let leaky = runs(&MitigationPolicy::AboOnly);
            assert!(
                leaky.iter().any(|(log, _)| *log != leaky[0].0),
                "{mode}: ABO-Only's RFM log must move with the payload"
            );
        }
    }
}

#[test]
fn solved_windows_reproduce_headline_operating_points() {
    // NRH = 1024 -> ~1.6 tREFI (reset); NRH = 512 -> roughly half of that.
    let timing = DramTimingSummary::ddr5_8000b();
    let w1024 = SecurityAnalysis::with_back_off_threshold(
        1024,
        &timing,
        CounterResetPolicy::ResetEveryTrefw,
    )
    .solve_tb_window()
    .unwrap();
    let w512 = SecurityAnalysis::with_back_off_threshold(
        512,
        &timing,
        CounterResetPolicy::ResetEveryTrefw,
    )
    .solve_tb_window()
    .unwrap();
    assert!((1.0..2.5).contains(&w1024.tb_window_trefi), "{w1024:?}");
    assert!(w512.tb_window_trefi < w1024.tb_window_trefi);
    let ratio = w1024.tb_window_trefi / w512.tb_window_trefi;
    assert!(
        (1.5..2.6).contains(&ratio),
        "window should roughly halve: {ratio}"
    );
}
