//! Integration tests for the performance study: the relative ordering of the
//! mitigation configurations must match the paper's Figure 10/13 trends.
//!
//! These tests run the full CPU + controller + DRAM stack, so they use small
//! instruction budgets; the trends they check are coarse by design.

use prac_core::tprac::TrefRate;
use prac_timing::prelude::*;
use system_sim::{run_workload, run_workload_normalized};
use workloads::generator::{AccessPattern, SyntheticWorkload};

const INSTR: u64 = 25_000;

fn memory_hungry() -> SyntheticWorkload {
    SyntheticWorkload::new("h-int", 60, AccessPattern::RandomLarge).with_footprint(64 << 20)
}

fn cache_friendly() -> SyntheticWorkload {
    SyntheticWorkload::new("l-int", 1, AccessPattern::CacheResident)
}

fn tprac_setup(counter_reset: bool) -> MitigationSetup {
    MitigationSetup::Tprac {
        tref_rate: TrefRate::None,
        counter_reset,
    }
}

#[test]
fn tprac_is_slower_than_insecure_baselines_but_not_catastrophic() {
    let workload = memory_hungry();
    let abo = ExperimentConfig::new(MitigationSetup::AboOnly, INSTR).with_cores(2);
    let acb = ExperimentConfig::new(MitigationSetup::AboPlusAcbRfm, INSTR).with_cores(2);
    let tprac = ExperimentConfig::new(tprac_setup(true), INSTR).with_cores(2);

    let (abo_perf, _, _) = run_workload_normalized(&abo, &workload, 11).unwrap();
    let (acb_perf, _, _) = run_workload_normalized(&acb, &workload, 11).unwrap();
    let (tprac_perf, tprac_run, _) = run_workload_normalized(&tprac, &workload, 11).unwrap();

    // Paper ordering at NRH=1024: ABO-Only ≈ 1.0 ≥ ABO+ACB ≥ TPRAC ≥ ~0.9.
    assert!(
        abo_perf > 0.97,
        "ABO-Only should be near baseline: {abo_perf}"
    );
    assert!(
        acb_perf > 0.95,
        "ABO+ACB should be near baseline: {acb_perf}"
    );
    assert!(
        tprac_perf <= abo_perf + 0.01,
        "TPRAC ({tprac_perf}) must not beat ABO-Only ({abo_perf})"
    );
    assert!(
        tprac_perf > 0.85,
        "TPRAC slowdown must stay moderate: {tprac_perf}"
    );
    assert!(tprac_run.controller_stats.tb_rfms > 0);
}

#[test]
fn tprac_overhead_grows_as_the_rowhammer_threshold_drops() {
    let workload = memory_hungry();
    let perf_at = |nrh: u32| {
        let config = ExperimentConfig::new(tprac_setup(true), INSTR)
            .with_cores(2)
            .with_rowhammer_threshold(nrh);
        run_workload_normalized(&config, &workload, 13).unwrap().0
    };
    let high = perf_at(4096);
    let low = perf_at(256);
    assert!(
        low < high,
        "lower NRH must cost more performance (NRH=256: {low}, NRH=4096: {high})"
    );
}

#[test]
fn low_intensity_workloads_see_negligible_tprac_overhead() {
    let config = ExperimentConfig::new(tprac_setup(true), INSTR).with_cores(2);
    let (perf, _, _) = run_workload_normalized(&config, &cache_friendly(), 17).unwrap();
    assert!(
        perf > 0.97,
        "cache-resident workloads should be nearly unaffected: {perf}"
    );
}

#[test]
fn targeted_refreshes_reduce_tb_rfm_count() {
    let workload = memory_hungry();
    let without_tref = ExperimentConfig::new(tprac_setup(true), INSTR).with_cores(2);
    let with_tref = ExperimentConfig::new(
        MitigationSetup::Tprac {
            tref_rate: TrefRate::EveryTrefi(1),
            counter_reset: true,
        },
        INSTR,
    )
    .with_cores(2);
    let plain = run_workload(&without_tref, &workload, 23).unwrap();
    let tref = run_workload(&with_tref, &workload, 23).unwrap();
    assert!(plain.controller_stats.tb_rfms > 0);
    assert!(
        tref.controller_stats.tb_rfms < plain.controller_stats.tb_rfms
            || tref.controller_stats.tb_rfms_skipped > 0,
        "TREF co-design must skip TB-RFMs: plain={:?} tref={:?}",
        plain.controller_stats,
        tref.controller_stats
    );
}

#[test]
fn energy_overhead_tracks_rfm_frequency() {
    let workload = memory_hungry();
    let overhead_at = |nrh: u32| {
        let config = ExperimentConfig::new(tprac_setup(true), INSTR)
            .with_cores(2)
            .with_rowhammer_threshold(nrh);
        let (_, protected, baseline) = run_workload_normalized(&config, &workload, 29).unwrap();
        system_sim::energy_overhead_for(&baseline, &protected)
    };
    let high_threshold = overhead_at(4096);
    let low_threshold = overhead_at(256);
    assert!(low_threshold.total > high_threshold.total);
    assert!(low_threshold.mitigation > 0.0);
}
