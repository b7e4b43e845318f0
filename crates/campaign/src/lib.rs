//! # campaign
//!
//! Declarative scenario sweeps, parallel execution, incremental result
//! caching and the unified `prac-bench` CLI for the paper's evaluation
//! matrix.
//!
//! The paper's evaluation is a matrix of scenarios — mitigation policy ×
//! RowHammer threshold × PRAC level × workload — that this crate models as
//! data instead of code:
//!
//! * [`scenario`] — the serialisable [`Scenario`] / [`Campaign`] model and
//!   the stable FNV-1a cache key derived from a scenario's canonical JSON,
//! * [`exec`] — turns a [`ScenarioSpec`] into a flat metric map (running
//!   full-system simulations, attack instances or analytical models),
//! * [`cache`] — the [`ResultCache`]: a thin adapter over the
//!   content-addressed `result-store` crate (record identity = cache-key
//!   preimage), so re-runs only execute changed scenarios and result sets
//!   move between machines as store bundles,
//! * [`artifact`] — the [`ArtifactStore`] writing per-campaign
//!   `results.json` / `results.csv` under `target/campaigns/`,
//! * [`runner`] — the [`CampaignRunner`] fanning cache misses out over
//!   scoped worker threads with per-scenario timing and progress,
//! * [`registry`] — every paper figure/table as a registered campaign
//!   (`fig03` … `fig14`, `table2`, `table5`, `storage`) plus the
//!   beyond-paper sweeps (`defenses`, `scaling`, and the adversarial
//!   `attacks` matrix crossing the attack and mitigation registries),
//! * [`serve`] — the `prac-bench serve` query service: newline-delimited
//!   JSON over TCP / Unix socket, serve-from-store on hit, run-on-miss,
//! * [`cli`] — the `prac-bench` command line (`list`, `mitigations`,
//!   `attacks`, `run <name>`, `run --all`, `serve`, `query`, `store …`).
//!
//! ```no_run
//! use campaign::registry::{find_campaign, Profile};
//! use campaign::runner::CampaignRunner;
//!
//! let campaign = find_campaign("fig10", &Profile::quick()).unwrap();
//! let summary = CampaignRunner::new().run(&campaign).unwrap();
//! assert_eq!(summary.records.len(), campaign.scenarios.len());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod artifact;
pub mod cache;
pub mod cli;
pub mod exec;
pub mod registry;
pub mod runner;
pub mod scenario;
pub mod serve;

pub use artifact::{ArtifactPaths, ArtifactStore};
pub use cache::{CachedResult, ResultCache};
pub use registry::{all_campaigns, find_campaign, Profile};
pub use runner::{CampaignRunner, RunSummary, ScenarioRecord};
pub use scenario::{Campaign, PerfScenario, Scenario, ScenarioSpec};
pub use serve::Server;
