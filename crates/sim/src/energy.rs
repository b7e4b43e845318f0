//! Energy accounting for full-system runs (Table 5).

use prac_core::energy::{EnergyInputs, EnergyModel, EnergyOverhead};

use crate::system::SystemResult;

/// Converts a run result into the inputs of the `prac-core` energy model.
///
/// Following the paper's accounting (Section 6.7), each RFM is charged five
/// additional activations (four victim refreshes plus one counter-reset
/// activation of the aggressor); `banks_per_rfm` is therefore fixed at 1 and
/// the RFM count is the number of RFM commands issued by the controller.
#[must_use]
pub fn energy_inputs_for(result: &SystemResult) -> EnergyInputs {
    EnergyInputs {
        activations: result.dram_stats.activations,
        reads_writes: result.dram_stats.reads + result.dram_stats.writes,
        refreshes: result.dram_stats.refreshes,
        rfms: result.controller_stats.total_rfms(),
        banks_per_rfm: 1,
        execution_time_ns: result.execution_time_ns(),
    }
}

/// Computes the Table 5 energy-overhead row for a protected run relative to
/// its baseline.
#[must_use]
pub fn energy_overhead_for(baseline: &SystemResult, protected: &SystemResult) -> EnergyOverhead {
    EnergyModel::default().overhead(&energy_inputs_for(baseline), &energy_inputs_for(protected))
}

#[cfg(test)]
mod tests {
    use super::*;
    use cpu_sim::stats::CoreStats;
    use dram_sim::stats::DramStats;
    use memctrl::stats::ControllerStats;

    fn result(activations: u64, rows_mitigated: u64, ticks: u64) -> SystemResult {
        let controller_stats = ControllerStats {
            tb_rfms: rows_mitigated,
            ..Default::default()
        };
        SystemResult {
            core_stats: vec![CoreStats::default()],
            controller_stats,
            dram_stats: DramStats {
                activations,
                reads: activations,
                writes: 0,
                refreshes: 10,
                rows_mitigated_by_rfm: rows_mitigated,
                ..DramStats::default()
            },
            channel_stats: Vec::new(),
            rfm_log: Vec::new(),
            elapsed_ticks: ticks,
            completed: true,
        }
    }

    #[test]
    fn identical_runs_have_zero_overhead() {
        let base = result(10_000, 0, 1_000_000);
        let overhead = energy_overhead_for(&base, &base);
        assert!(overhead.total.abs() < 1e-12);
    }

    #[test]
    fn rfms_and_longer_runtime_increase_overhead() {
        let base = result(10_000, 0, 1_000_000);
        let protected = result(10_000, 500, 1_050_000);
        let overhead = energy_overhead_for(&base, &protected);
        assert!(overhead.mitigation > 0.0);
        assert!(overhead.non_mitigation > 0.0);
        assert!((overhead.total - overhead.mitigation - overhead.non_mitigation).abs() < 1e-12);
    }

    #[test]
    fn inputs_reflect_run_counters() {
        let r = result(123, 7, 400);
        let inputs = energy_inputs_for(&r);
        assert_eq!(inputs.activations, 123);
        assert_eq!(
            inputs.rfms, 7,
            "five activations are charged per issued RFM"
        );
        assert_eq!(inputs.banks_per_rfm, 1);
        assert!((inputs.execution_time_ns - 100.0).abs() < 1e-9);
    }
}
