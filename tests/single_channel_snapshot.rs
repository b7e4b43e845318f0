//! Golden snapshot of single-channel full-system results.
//!
//! The multi-channel memory-subsystem refactor promises that one-channel
//! runs stay **bit-identical** to the original single-controller wiring.
//! This test pins the complete observable outcome — elapsed ticks, per-core
//! progress, every controller and DRAM counter, and an order-sensitive hash
//! of the RFM issue log — for several mitigation setups and workloads
//! against a golden file generated *before* the refactor.  Any drift in a
//! single-channel result is a correctness regression, not noise.
//!
//! Regenerate (only with justification recorded in the commit message):
//!
//! ```text
//! UPDATE_SYSTEM_GOLDEN=1 cargo test --test single_channel_snapshot
//! ```

use std::fmt::Write as _;
use std::path::PathBuf;

use prac_core::tprac::TrefRate;
use system_sim::{run_workload, ExperimentConfig, MitigationSetup, SystemResult};
use workloads::{quick_suite, MemoryIntensity, WorkloadSpec};

fn golden_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("golden")
        .join("single_channel_results.txt")
}

/// The mitigation setups the snapshot covers: the normalisation baseline,
/// a reactive engine, the paper's defense, and a proactive periodic engine.
fn snapshot_setups() -> Vec<MitigationSetup> {
    vec![
        MitigationSetup::BaselineNoAbo,
        MitigationSetup::AboOnly,
        MitigationSetup::Tprac {
            tref_rate: TrefRate::None,
            counter_reset: true,
        },
        MitigationSetup::Prfm { every_trefi: 2 },
    ]
}

/// One workload per intensity band, mirroring the engine-equivalence suite.
fn snapshot_workloads() -> Vec<WorkloadSpec> {
    let suite = quick_suite();
    [MemoryIntensity::High, MemoryIntensity::Low]
        .into_iter()
        .filter_map(|band| suite.iter().find(|w| w.intensity == band).cloned())
        .collect()
}

/// 64-bit FNV-1a over the RFM log, order sensitive: any change to the cycle
/// or kind of any issued RFM changes the digest.
fn rfm_log_digest(result: &SystemResult) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    let mut mix = |value: u64| {
        for byte in value.to_le_bytes() {
            hash ^= u64::from(byte);
            hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for (tick, kind) in &result.rfm_log {
        mix(*tick);
        mix(*kind as u64);
    }
    hash
}

fn render_result(line: &mut String, result: &SystemResult) {
    let c = &result.controller_stats;
    let d = &result.dram_stats;
    write!(
        line,
        "elapsed={} completed={} cores=",
        result.elapsed_ticks, result.completed
    )
    .unwrap();
    for (i, core) in result.core_stats.iter().enumerate() {
        if i > 0 {
            line.push(',');
        }
        write!(line, "{}:{}", core.instructions, core.cycles).unwrap();
    }
    write!(
        line,
        " ctrl=[r{} w{} hit{} miss{} conf{} ref{} abo{} acb{} tb{} per{} para{} skip{} lat{} max{}]",
        c.reads_completed,
        c.writes_completed,
        c.row_hits,
        c.row_misses,
        c.row_conflicts,
        c.refreshes_issued,
        c.abo_rfms,
        c.acb_rfms,
        c.tb_rfms,
        c.periodic_rfms,
        c.para_rfms,
        c.tb_rfms_skipped,
        c.total_latency_ticks,
        c.max_latency_ticks,
    )
    .unwrap();
    write!(
        line,
        " dram=[act{} pre{} rd{} wr{} ref{} rfm{} mit{} tref{} alert{} reset{}]",
        d.activations,
        d.precharges,
        d.reads,
        d.writes,
        d.refreshes,
        d.rfm_all_bank,
        d.rows_mitigated_by_rfm,
        d.rows_mitigated_by_tref,
        d.alerts_asserted,
        d.counter_resets,
    )
    .unwrap();
    write!(
        line,
        " rfm_log=[n{} fnv{:016x}]",
        result.rfm_log.len(),
        rfm_log_digest(result)
    )
    .unwrap();
}

fn render_snapshot() -> String {
    let mut out = String::new();
    out.push_str(
        "# Golden single-channel system results: <setup>/<workload> = <observables>\n\
         # Regenerate with UPDATE_SYSTEM_GOLDEN=1 cargo test --test single_channel_snapshot\n",
    );
    for setup in snapshot_setups() {
        for workload in snapshot_workloads() {
            let config = ExperimentConfig::new(setup.clone(), 8_000).with_cores(2);
            let result = run_workload(&config, &workload.workload, 0x5EED ^ 8_000)
                .expect("snapshot setups resolve at NRH 1024");
            let mut line = format!("{}/{} = ", setup.slug(), workload.workload.name);
            render_result(&mut line, &result);
            out.push_str(&line);
            out.push('\n');
        }
    }
    out
}

#[test]
fn single_channel_results_match_the_pre_refactor_golden() {
    let rendered = render_snapshot();
    let path = golden_path();
    if std::env::var_os("UPDATE_SYSTEM_GOLDEN").is_some() {
        std::fs::create_dir_all(path.parent().expect("golden file has a parent"))
            .expect("create golden directory");
        std::fs::write(&path, &rendered).expect("write golden file");
        return;
    }
    let golden = std::fs::read_to_string(&path).unwrap_or_else(|error| {
        panic!(
            "missing golden file {} ({error}); regenerate with \
             UPDATE_SYSTEM_GOLDEN=1 cargo test --test single_channel_snapshot",
            path.display()
        )
    });
    if golden != rendered {
        let mut diff = String::new();
        for (g, r) in golden.lines().zip(rendered.lines()) {
            if g != r {
                let _ = writeln!(diff, "  golden:  {g}\n  current: {r}");
            }
        }
        panic!(
            "single-channel results drifted from the pre-refactor golden:\n{diff}\n\
             One-channel runs must stay bit-identical across memory-subsystem \
             changes; regenerate with UPDATE_SYSTEM_GOLDEN=1 only with a \
             justified explanation in the commit message."
        );
    }
}
