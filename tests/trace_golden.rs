//! Golden digests of every generated address stream.
//!
//! Pins, one FNV-1a digest per line, the exact op sequence of:
//!
//! * every `full_suite()` workload's trace at 20,000 instructions, seeds 0
//!   and 7 (the traces every perf campaign simulates);
//! * every `AccessPattern` over a deliberately misaligned base (`0x1001`),
//!   which a served spec may carry;
//! * the side-channel victim's first-round T0-line sequence for every key
//!   byte of `fig05`, quick and full profiles.
//!
//! Any change to how a trace or a victim stream is drawn, including the
//! order of the address and store-coin draws, changes a digest here before
//! it moves a result.
//!
//! Regenerate (only with justification recorded in the commit message):
//!
//! ```text
//! UPDATE_TRACE_GOLDEN=1 cargo test --test trace_golden
//! ```

use std::fmt::Write as _;
use std::path::PathBuf;

use campaign::{find_campaign, Profile, ScenarioSpec};
use cpu_sim::trace::{Trace, TraceOp};
use prac_core::config::MitigationPolicy;
use pracleak::SideChannelExperiment;
use workloads::{full_suite, AccessPattern, SyntheticWorkload};

fn golden_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("golden")
        .join("traces.txt")
}

/// 64-bit FNV-1a over a sequence of words, order sensitive.
fn fnv(words: impl IntoIterator<Item = u64>) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for word in words {
        for byte in word.to_le_bytes() {
            hash ^= u64::from(byte);
            hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    hash
}

fn trace_line(label: &str, trace: &Trace) -> String {
    let words = trace.ops().iter().flat_map(|op| match *op {
        TraceOp::Compute(n) => [0, u64::from(n)],
        TraceOp::Load(addr) => [1, addr],
        TraceOp::Store(addr) => [2, addr],
        TraceOp::Flush(addr) => [3, addr],
    });
    format!(
        "{label} = ops={} fnv={:016x}\n",
        trace.ops().len(),
        fnv(words)
    )
}

fn render_snapshot() -> String {
    let mut out = String::new();
    out.push_str(
        "# Golden trace and victim-stream digests: <case> = <length> <FNV-1a>\n\
         # Regenerate with UPDATE_TRACE_GOLDEN=1 cargo test --test trace_golden\n",
    );
    for spec in full_suite() {
        for seed in [0u64, 7] {
            let trace = spec.workload.generate(20_000, seed);
            out.push_str(&trace_line(
                &format!("suite/{}/seed{seed}", spec.workload.name),
                &trace,
            ));
        }
    }
    for pattern in AccessPattern::ALL {
        let workload = SyntheticWorkload::new(format!("{pattern:?}"), 100, pattern)
            .with_base_address(0x1001)
            .with_footprint(1 << 20);
        for seed in [0u64, 7] {
            let trace = workload.generate(20_000, seed);
            out.push_str(&trace_line(
                &format!("misaligned/{pattern:?}/seed{seed}"),
                &trace,
            ));
        }
    }
    for (profile_name, profile) in [("quick", Profile::quick()), ("full", Profile::full())] {
        let fig05 = find_campaign("fig05", &profile).expect("fig05 is registered");
        for scenario in &fig05.scenarios {
            let ScenarioSpec::SideChannel {
                nbo,
                encryptions,
                k0,
                p0,
                seed,
                ..
            } = scenario.spec
            else {
                panic!("fig05 holds only side-channel cells");
            };
            let experiment = SideChannelExperiment {
                nbo,
                encryptions,
                policy: MitigationPolicy::AboOnly,
                seed,
            };
            let lines = experiment.victim_lines(k0, p0);
            writeln!(
                out,
                "fig05-{profile_name}/{} = lines={} fnv={:016x}",
                scenario.name,
                lines.len(),
                fnv(lines.iter().map(|&line| line as u64))
            )
            .unwrap();
        }
    }
    out
}

#[test]
fn generated_streams_match_the_golden_digests() {
    let rendered = render_snapshot();
    let path = golden_path();
    if std::env::var_os("UPDATE_TRACE_GOLDEN").is_some() {
        std::fs::create_dir_all(path.parent().expect("golden file has a parent"))
            .expect("create golden directory");
        std::fs::write(&path, &rendered).expect("write golden file");
        return;
    }
    let golden = std::fs::read_to_string(&path).unwrap_or_else(|error| {
        panic!(
            "missing golden file {} ({error}); regenerate with \
             UPDATE_TRACE_GOLDEN=1 cargo test --test trace_golden",
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
            "generated streams drifted from the golden digests:\n{diff}\n\
             Traces and victim streams must stay bit-identical; regenerate \
             with UPDATE_TRACE_GOLDEN=1 only with a justified explanation in \
             the commit message."
        );
    }
}
