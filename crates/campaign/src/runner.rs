//! The parallel campaign runner.
//!
//! Splits a campaign into cached hits and cells that must execute, fans the
//! misses out over [`system_sim::parallel_map`]'s scoped threads with
//! per-scenario timing and live progress lines, stores fresh results back
//! into the cache, and writes the JSON/CSV artifacts.
//!
//! Misses travel as work units.  Perf cells that differ only in their
//! mitigation setup always form one group, which
//! [`crate::exec::execute_perf_group`] runs on one shared trace set and one
//! shared baseline leg; every other cell is a unit of its own.

use std::io;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

use serde_json::Map;
use system_sim::{parallel_map, EngineKind};

use crate::artifact::{ArtifactPaths, ArtifactStore};
use crate::cache::{CachedResult, ResultCache};
use crate::exec::{execute_perf_group, execute_with};
use crate::scenario::{Campaign, Scenario, ScenarioSpec};

/// One unit of parallel work: a lone non-perf scenario, or a group of perf
/// cells sharing everything but their mitigation setup (executed together
/// so their traces and baseline leg are built once).
#[derive(Debug)]
enum WorkUnit {
    /// A scenario executed on its own, with its campaign index.
    Single(usize, Scenario),
    /// Perf cells with identical sweep parameters, as `(index, scenario)`.
    Group(Vec<(usize, Scenario)>),
}

impl WorkUnit {
    /// The scenario this unit holds at campaign index `index`.
    fn scenario_at(&self, index: usize) -> &Scenario {
        match self {
            WorkUnit::Single(_, scenario) => scenario,
            WorkUnit::Group(cells) => {
                &cells
                    .iter()
                    .find(|(cell_index, _)| *cell_index == index)
                    .expect("index belongs to this unit")
                    .1
            }
        }
    }
}

/// The grouping key of a perf cell: its canonical spec JSON with the
/// `setup` field removed.  Cells with equal keys share traces and the
/// baseline leg; non-perf cells never group.
fn group_key(spec: &ScenarioSpec) -> Option<String> {
    if !matches!(spec, ScenarioSpec::Perf(_)) {
        return None;
    }
    match spec.to_json() {
        serde_json::Value::Object(mut map) => {
            map.remove("setup");
            Some(serde_json::Value::Object(map).to_string())
        }
        _ => None,
    }
}

/// Splits the pending cells into work units, preserving campaign order of
/// first appearance.  A perf cell with no partner is a group of one.
fn plan_work_units(pending: Vec<(usize, Scenario)>) -> Vec<WorkUnit> {
    let mut units: Vec<WorkUnit> = Vec::new();
    let mut group_of: std::collections::HashMap<String, usize> = std::collections::HashMap::new();
    for (index, scenario) in pending {
        match group_key(&scenario.spec) {
            Some(key) => match group_of.get(&key) {
                Some(&unit) => match &mut units[unit] {
                    WorkUnit::Group(cells) => cells.push((index, scenario)),
                    WorkUnit::Single(..) => unreachable!("grouped units are `Group`s"),
                },
                None => {
                    group_of.insert(key, units.len());
                    units.push(WorkUnit::Group(vec![(index, scenario)]));
                }
            },
            None => units.push(WorkUnit::Single(index, scenario)),
        }
    }
    units
}

/// The outcome of one scenario within a campaign run.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioRecord {
    /// The scenario that produced this record.
    pub scenario: Scenario,
    /// Flat metric map.
    pub metrics: Map,
    /// Whether the result came from the incremental cache.
    pub cached: bool,
    /// Wall-clock milliseconds of the (original) execution.
    pub wall_ms: f64,
}

/// Summary of a completed campaign run.
#[derive(Debug)]
pub struct RunSummary {
    /// Per-scenario records, in campaign order.
    pub records: Vec<ScenarioRecord>,
    /// How many cells were served from the cache.
    pub cached: usize,
    /// How many cells actually executed.
    pub executed: usize,
    /// Total wall-clock milliseconds of the run (including cache lookups).
    pub wall_ms: f64,
    /// Artifact paths, when an artifact store was configured.
    pub artifacts: Option<ArtifactPaths>,
}

/// Campaign execution policy: parallelism, caching, artifacts, verbosity.
#[derive(Debug)]
pub struct CampaignRunner {
    workers: usize,
    cache: Option<ResultCache>,
    artifacts: Option<ArtifactStore>,
    progress: bool,
    engine: EngineKind,
    sim_threads: usize,
}

impl Default for CampaignRunner {
    fn default() -> Self {
        Self {
            workers: std::thread::available_parallelism().map_or(4, std::num::NonZeroUsize::get),
            cache: None,
            artifacts: None,
            progress: false,
            engine: EngineKind::default(),
            sim_threads: 1,
        }
    }
}

impl CampaignRunner {
    /// Creates a runner with default parallelism and no cache or artifacts.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the worker-thread count.
    #[must_use]
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.workers = workers.max(1);
        self
    }

    /// Enables the incremental result cache.
    #[must_use]
    pub fn with_cache(mut self, cache: ResultCache) -> Self {
        self.cache = Some(cache);
        self
    }

    /// Enables JSON/CSV artifact output.
    #[must_use]
    pub fn with_artifacts(mut self, artifacts: ArtifactStore) -> Self {
        self.artifacts = Some(artifacts);
        self
    }

    /// Enables per-scenario progress lines on stdout.
    #[must_use]
    pub fn with_progress(mut self, progress: bool) -> Self {
        self.progress = progress;
        self
    }

    /// Selects the simulation engine scenarios execute under.  Results (and
    /// therefore cache entries) are engine-independent; this only changes
    /// how fast the misses run.
    #[must_use]
    pub fn with_engine(mut self, engine: EngineKind) -> Self {
        self.engine = engine;
        self
    }

    /// Sets the worker-thread count each simulation uses to step due
    /// channels of one event round in parallel (default 1: sequential).
    /// Results and cache entries are thread-count-independent — like
    /// [`CampaignRunner::with_engine`], this only changes how fast the
    /// misses run.  Note this parallelism *multiplies* with
    /// [`CampaignRunner::with_workers`]: `workers` runs scenarios
    /// concurrently, `sim_threads` parallelises channels inside each one.
    #[must_use]
    pub fn with_sim_threads(mut self, sim_threads: usize) -> Self {
        self.sim_threads = sim_threads.max(1);
        self
    }

    /// Runs every scenario of `campaign`, returning records in campaign
    /// order.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from the cache or artifact store; simulation
    /// itself is infallible.
    pub fn run(&self, campaign: &Campaign) -> io::Result<RunSummary> {
        let started = Instant::now();
        let total = campaign.scenarios.len();

        // Phase 1: serve what we can from the cache.
        let mut records: Vec<Option<ScenarioRecord>> = Vec::with_capacity(total);
        let mut pending: Vec<(usize, Scenario)> = Vec::new();
        for (index, scenario) in campaign.scenarios.iter().enumerate() {
            let hit = self.cache.as_ref().and_then(|cache| cache.lookup(scenario));
            match hit {
                Some(cached) => records.push(Some(ScenarioRecord {
                    scenario: scenario.clone(),
                    metrics: cached.metrics,
                    cached: true,
                    wall_ms: cached.wall_ms,
                })),
                None => {
                    records.push(None);
                    pending.push((index, scenario.clone()));
                }
            }
        }
        let cached = total - pending.len();
        if self.progress && cached > 0 {
            println!(
                "[{}] {cached}/{total} scenarios served from cache",
                campaign.name
            );
        }

        // Phase 2: fan the misses out over the worker threads.  Perf cells
        // that differ only in their mitigation setup travel as one work
        // unit so the group executor builds their traces and baseline leg
        // once; everything else stays per-cell.
        let executed = pending.len();
        let units = plan_work_units(pending);
        let done = AtomicUsize::new(0);
        let campaign_name = campaign.name.as_str();
        let progress = self.progress;
        let engine = self.engine;
        let sim_threads = self.sim_threads;
        let fresh: Vec<(usize, ScenarioRecord)> = parallel_map(units, self.workers, |unit| {
            let unit_started = Instant::now();
            let results: Vec<(usize, Map)> = match unit {
                WorkUnit::Single(index, scenario) => {
                    vec![(*index, execute_with(&scenario.spec, engine, sim_threads))]
                }
                WorkUnit::Group(cells) => {
                    let perfs: Vec<&crate::scenario::PerfScenario> = cells
                        .iter()
                        .map(|(_, scenario)| match &scenario.spec {
                            ScenarioSpec::Perf(perf) => perf.as_ref(),
                            _ => unreachable!("groups contain only perf cells"),
                        })
                        .collect();
                    let metrics = execute_perf_group(&perfs, engine, sim_threads);
                    cells.iter().map(|(index, _)| *index).zip(metrics).collect()
                }
            };
            // Shared work cannot be attributed to one cell; spread the
            // unit's wall time evenly so per-cell costs stay meaningful.
            let wall_ms = unit_started.elapsed().as_secs_f64() * 1e3 / results.len() as f64;
            results
                .into_iter()
                .map(|(index, metrics)| {
                    let scenario = unit.scenario_at(index);
                    if progress {
                        let finished = done.fetch_add(1, Ordering::Relaxed) + 1;
                        println!(
                            "[{campaign_name}] {finished}/{executed} {} ({wall_ms:.0} ms)",
                            scenario.name
                        );
                    }
                    (
                        index,
                        ScenarioRecord {
                            scenario: scenario.clone(),
                            metrics,
                            cached: false,
                            wall_ms,
                        },
                    )
                })
                .collect::<Vec<_>>()
        })
        .into_iter()
        .flatten()
        .collect();

        // Phase 3: store fresh results and stitch the record list together.
        for (index, record) in fresh {
            if let Some(cache) = &self.cache {
                cache.store(
                    &record.scenario,
                    &CachedResult {
                        metrics: record.metrics.clone(),
                        wall_ms: record.wall_ms,
                    },
                )?;
            }
            records[index] = Some(record);
        }
        let records: Vec<ScenarioRecord> = records
            .into_iter()
            .map(|slot| slot.expect("every scenario produced a record"))
            .collect();

        let artifacts = match &self.artifacts {
            Some(store) => Some(store.write(campaign, &records)?),
            None => None,
        };

        Ok(RunSummary {
            records,
            cached,
            executed,
            wall_ms: started.elapsed().as_secs_f64() * 1e3,
            artifacts,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::ScenarioSpec;

    fn tiny_campaign() -> Campaign {
        let mut campaign = Campaign::new("tiny", "Tiny smoke campaign", "none");
        campaign.push(Scenario::new(
            "solve-1024",
            ScenarioSpec::SolveWindow {
                nrh: 1024,
                counter_reset: true,
            },
        ));
        campaign.push(Scenario::new(
            "storage-single",
            ScenarioSpec::Storage {
                queue: prac_core::queue::QueueKind::SingleEntryFrequency,
                banks: 128,
            },
        ));
        campaign
    }

    fn temp_dir(tag: &str) -> std::path::PathBuf {
        let dir =
            std::env::temp_dir().join(format!("prac-campaign-run-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn runs_and_writes_valid_artifacts() {
        let root = temp_dir("artifacts");
        let runner = CampaignRunner::new()
            .with_workers(2)
            .with_artifacts(ArtifactStore::new(&root));
        let summary = runner.run(&tiny_campaign()).unwrap();
        assert_eq!(summary.records.len(), 2);
        assert_eq!(summary.executed, 2);
        assert_eq!(summary.cached, 0);

        let paths = summary.artifacts.unwrap();
        let json = serde_json::from_str(&std::fs::read_to_string(&paths.json).unwrap()).unwrap();
        assert_eq!(json.get("campaign").and_then(|v| v.as_str()), Some("tiny"));
        assert_eq!(
            json.get("scenarios")
                .and_then(|v| v.as_array())
                .map(<[_]>::len),
            Some(2)
        );
        let csv = std::fs::read_to_string(&paths.csv).unwrap();
        assert!(csv.starts_with("scenario,key,cached,wall_ms"));
        assert_eq!(csv.lines().count(), 3, "header + one row per scenario");
    }

    #[test]
    fn second_run_hits_the_cache() {
        let root = temp_dir("cache");
        let campaign = tiny_campaign();
        let make_runner = || {
            CampaignRunner::new()
                .with_workers(2)
                .with_cache(ResultCache::open(root.join("cache")).unwrap())
        };

        let first = make_runner().run(&campaign).unwrap();
        assert_eq!((first.cached, first.executed), (0, 2));

        let second = make_runner().run(&campaign).unwrap();
        assert_eq!((second.cached, second.executed), (2, 0));
        assert_eq!(
            first.records[0].metrics, second.records[0].metrics,
            "cached metrics must round-trip exactly"
        );

        // Changing one cell re-runs only that cell.
        let mut changed = campaign.clone();
        changed.scenarios[0] = Scenario::new(
            "solve-2048",
            ScenarioSpec::SolveWindow {
                nrh: 2048,
                counter_reset: true,
            },
        );
        let third = make_runner().run(&changed).unwrap();
        assert_eq!((third.cached, third.executed), (1, 1));
    }
}
