//! The named workload suite used by the performance experiments.
//!
//! The paper evaluates 50 workloads from SPEC2006, SPEC2017 and CloudSuite,
//! grouped by memory intensity (Table 4).  Those traces are proprietary, so
//! this suite substitutes synthetic workloads that land in the same
//! row-buffer-miss-per-kilo-instruction (RBMPKI) bands and the same
//! benchmark-suite grouping.  Workload names make the substitution explicit
//! (`h-stream-01` rather than a SPEC benchmark name).

use serde::{Deserialize, Serialize};

use crate::generator::{AccessPattern, SyntheticWorkload};

/// Memory-intensity bucket from Table 4.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum MemoryIntensity {
    /// RBMPKI ≥ 10.
    High,
    /// 1 ≤ RBMPKI < 10.
    Medium,
    /// RBMPKI < 1.
    Low,
}

impl MemoryIntensity {
    /// Every bucket, from most to least memory intensive.
    pub const ALL: [MemoryIntensity; 3] = [
        MemoryIntensity::High,
        MemoryIntensity::Medium,
        MemoryIntensity::Low,
    ];

    /// The bucket's stable name: its spelling in scenario JSON (and so in
    /// every cache key) and in the perf metric maps.
    #[must_use]
    pub fn slug(self) -> &'static str {
        match self {
            MemoryIntensity::High => "high",
            MemoryIntensity::Medium => "medium",
            MemoryIntensity::Low => "low",
        }
    }

    /// Parses a [`MemoryIntensity::slug`] back to its bucket.
    #[must_use]
    pub fn from_slug(slug: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|band| band.slug() == slug)
    }

    /// Classifies a measured misses-per-kilo-instruction value.
    #[must_use]
    pub fn classify(mpki: f64) -> Self {
        if mpki >= 10.0 {
            MemoryIntensity::High
        } else if mpki >= 1.0 {
            MemoryIntensity::Medium
        } else {
            MemoryIntensity::Low
        }
    }
}

/// Benchmark-suite grouping used by Figures 10 and 12.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum WorkloadGroup {
    /// Stand-ins for the SPEC2006 workloads.
    Spec2006Like,
    /// Stand-ins for the SPEC2017 workloads.
    Spec2017Like,
    /// Stand-ins for the CloudSuite workloads.
    CloudSuiteLike,
}

impl WorkloadGroup {
    /// Every group, in declaration order.
    pub const ALL: [WorkloadGroup; 3] = [
        WorkloadGroup::Spec2006Like,
        WorkloadGroup::Spec2017Like,
        WorkloadGroup::CloudSuiteLike,
    ];

    /// The group's stable name: its spelling in scenario JSON and so in
    /// every cache key (the `Display` label is for reports).
    #[must_use]
    pub fn slug(self) -> &'static str {
        match self {
            WorkloadGroup::Spec2006Like => "spec2006",
            WorkloadGroup::Spec2017Like => "spec2017",
            WorkloadGroup::CloudSuiteLike => "cloudsuite",
        }
    }

    /// Parses a [`WorkloadGroup::slug`] back to its group.
    #[must_use]
    pub fn from_slug(slug: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|group| group.slug() == slug)
    }
}

impl std::fmt::Display for WorkloadGroup {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WorkloadGroup::Spec2006Like => write!(f, "SPEC2K6-like"),
            WorkloadGroup::Spec2017Like => write!(f, "SPEC2K17-like"),
            WorkloadGroup::CloudSuiteLike => write!(f, "CloudSuite-like"),
        }
    }
}

/// One entry of the workload suite.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WorkloadSpec {
    /// The synthetic workload definition.
    pub workload: SyntheticWorkload,
    /// Intended memory-intensity bucket.
    pub intensity: MemoryIntensity,
    /// Benchmark-suite grouping.
    pub group: WorkloadGroup,
}

fn spec(
    name: &str,
    mem_ops_per_kilo: u32,
    pattern: AccessPattern,
    intensity: MemoryIntensity,
    group: WorkloadGroup,
    index: u64,
) -> WorkloadSpec {
    // Give every workload its own 256 MB region so four copies on four cores
    // do not share cache lines.
    let base = 0x1_0000_0000 + index * (256 << 20);
    let workload = SyntheticWorkload::new(name, mem_ops_per_kilo, pattern)
        .with_base_address(base)
        .with_footprint(match pattern {
            AccessPattern::CacheResident => 4 << 10,
            _ => 64 << 20,
        });
    WorkloadSpec {
        workload,
        intensity,
        group,
    }
}

/// The full 50-workload suite mirroring Table 4's distribution:
/// 28 high-intensity, 7 medium and 15 low workloads spread over the three
/// benchmark-suite groups.
#[must_use]
pub fn full_suite() -> Vec<WorkloadSpec> {
    use AccessPattern::{CacheResident, RandomLarge, RowStrided, Streaming};
    use MemoryIntensity::{High, Low, Medium};
    use WorkloadGroup::{CloudSuiteLike, Spec2006Like, Spec2017Like};

    let mut suite = Vec::new();
    let mut idx = 0u64;
    let mut push = |name: &str, ops: u32, pattern, intensity, group| {
        suite.push(spec(name, ops, pattern, intensity, group, idx));
        idx += 1;
    };

    // --- High intensity (28 entries: 14 SPEC2K6-like, 10 SPEC2K17-like, 4 Cloud-like).
    for i in 0..14u32 {
        let pattern = match i % 3 {
            0 => RandomLarge,
            1 => Streaming,
            _ => RowStrided,
        };
        push(
            &format!("h-spec06-{i:02}"),
            30 + (i % 5) * 10,
            pattern,
            High,
            Spec2006Like,
        );
    }
    for i in 0..10u32 {
        let pattern = if i % 2 == 0 { RandomLarge } else { Streaming };
        push(
            &format!("h-spec17-{i:02}"),
            25 + (i % 4) * 12,
            pattern,
            High,
            Spec2017Like,
        );
    }
    for i in 0..4u32 {
        push(
            &format!("h-cloud-{i:02}"),
            40 + i * 8,
            RandomLarge,
            High,
            CloudSuiteLike,
        );
    }

    // --- Medium intensity (7 entries).
    for i in 0..4u32 {
        push(
            &format!("m-spec06-{i:02}"),
            4 + i * 2,
            if i % 2 == 0 { RandomLarge } else { Streaming },
            Medium,
            Spec2006Like,
        );
    }
    for i in 0..3u32 {
        push(
            &format!("m-spec17-{i:02}"),
            3 + i * 3,
            RowStrided,
            Medium,
            Spec2017Like,
        );
    }

    // --- Low intensity (15 entries).
    for i in 0..8u32 {
        push(
            &format!("l-spec06-{i:02}"),
            1,
            CacheResident,
            Low,
            Spec2006Like,
        );
    }
    for i in 0..7u32 {
        push(
            &format!("l-spec17-{i:02}"),
            1,
            CacheResident,
            Low,
            Spec2017Like,
        );
    }

    suite
}

/// A reduced 9-workload suite (3 per intensity bucket) for quick runs and CI.
#[must_use]
pub fn quick_suite() -> Vec<WorkloadSpec> {
    let full = full_suite();
    let mut out = Vec::new();
    for intensity in [
        MemoryIntensity::High,
        MemoryIntensity::Medium,
        MemoryIntensity::Low,
    ] {
        out.extend(
            full.iter()
                .filter(|w| w.intensity == intensity)
                .take(3)
                .cloned(),
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slugs_parse_back() {
        for band in MemoryIntensity::ALL {
            assert_eq!(MemoryIntensity::from_slug(band.slug()), Some(band));
        }
        for group in WorkloadGroup::ALL {
            assert_eq!(WorkloadGroup::from_slug(group.slug()), Some(group));
        }
        assert_eq!(MemoryIntensity::from_slug("High"), None);
        assert_eq!(WorkloadGroup::from_slug("SPEC2K6-like"), None);
    }

    #[test]
    fn full_suite_has_50_workloads_with_paper_distribution() {
        let suite = full_suite();
        assert_eq!(suite.len(), 50);
        let count = |i: MemoryIntensity| suite.iter().filter(|w| w.intensity == i).count();
        assert_eq!(count(MemoryIntensity::High), 28);
        assert_eq!(count(MemoryIntensity::Medium), 7);
        assert_eq!(count(MemoryIntensity::Low), 15);
    }

    #[test]
    fn workload_names_are_unique() {
        let suite = full_suite();
        let mut names = std::collections::HashSet::new();
        for w in &suite {
            assert!(
                names.insert(w.workload.name.clone()),
                "duplicate {}",
                w.workload.name
            );
        }
    }

    #[test]
    fn workload_regions_do_not_overlap() {
        let suite = full_suite();
        let mut regions: Vec<(u64, u64)> = suite
            .iter()
            .map(|w| {
                (
                    w.workload.base_address,
                    w.workload.base_address + w.workload.footprint_bytes,
                )
            })
            .collect();
        regions.sort_unstable();
        for pair in regions.windows(2) {
            assert!(pair[0].1 <= pair[1].0, "overlapping regions {pair:?}");
        }
    }

    #[test]
    fn quick_suite_covers_all_buckets() {
        let q = quick_suite();
        assert_eq!(q.len(), 9);
        for intensity in [
            MemoryIntensity::High,
            MemoryIntensity::Medium,
            MemoryIntensity::Low,
        ] {
            assert_eq!(q.iter().filter(|w| w.intensity == intensity).count(), 3);
        }
    }

    #[test]
    fn intensity_targets_match_generated_traces() {
        // The generator's memory-ops-per-kilo-instruction should land in the
        // intended RBMPKI band, assuming large-footprint accesses mostly miss.
        for w in quick_suite() {
            let trace = w.workload.generate(20_000, 7);
            let mpki =
                trace.memory_ops_per_pass() as f64 * 1000.0 / trace.instructions_per_pass() as f64;
            match w.intensity {
                MemoryIntensity::High => assert!(mpki >= 10.0, "{}: {mpki}", w.workload.name),
                MemoryIntensity::Medium => {
                    assert!((1.0..30.0).contains(&mpki), "{}: {mpki}", w.workload.name);
                }
                MemoryIntensity::Low => {
                    // Cache-resident workloads have memory ops but almost no
                    // LLC misses; the trace-level bound just has to be small.
                    assert!(mpki <= 2.0, "{}: {mpki}", w.workload.name);
                }
            }
        }
    }

    #[test]
    fn classification_thresholds_match_table4() {
        assert_eq!(MemoryIntensity::classify(12.0), MemoryIntensity::High);
        assert_eq!(MemoryIntensity::classify(10.0), MemoryIntensity::High);
        assert_eq!(MemoryIntensity::classify(5.0), MemoryIntensity::Medium);
        assert_eq!(MemoryIntensity::classify(1.0), MemoryIntensity::Medium);
        assert_eq!(MemoryIntensity::classify(0.5), MemoryIntensity::Low);
    }

    #[test]
    fn group_labels_render() {
        assert_eq!(WorkloadGroup::Spec2006Like.to_string(), "SPEC2K6-like");
        assert_eq!(WorkloadGroup::CloudSuiteLike.to_string(), "CloudSuite-like");
    }
}
