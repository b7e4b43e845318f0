//! Incremental result cache — a thin adapter over the content-addressed
//! [`result_store::ResultStore`].
//!
//! Each executed scenario is persisted as one store record whose identity is
//! the scenario's cache-key preimage (`sim-r<REV>:{canonical spec JSON}`), so
//! the store key *is* the scenario's [`Scenario::key`] hash.  A later run with the same configuration finds the record, verifies the
//! embedded spec matches (guarding against hash collisions and stale
//! formats), and skips the simulation.  Any change to the scenario —
//! threshold, seed, budget, workload — changes the key and misses.

use std::io;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use result_store::{ResultStore, StoreRecord};
use serde_json::{Map, Value};

use crate::scenario::{key_preimage, Scenario};

/// The campaign-facing result cache, backed by a shared [`ResultStore`].
#[derive(Debug, Clone)]
pub struct ResultCache {
    store: Arc<ResultStore>,
}

/// A cached (or freshly executed) scenario result.
#[derive(Debug, Clone, PartialEq)]
pub struct CachedResult {
    /// The scenario's metric map.
    pub metrics: Map,
    /// Wall-clock milliseconds the original execution took.
    pub wall_ms: f64,
}

impl ResultCache {
    /// Opens (and creates if needed) a cache rooted at `root`.
    ///
    /// # Errors
    ///
    /// Propagates the error if the store cannot be opened.
    pub fn open(root: impl Into<PathBuf>) -> io::Result<Self> {
        Ok(Self {
            store: Arc::new(ResultStore::open(root)?),
        })
    }

    /// The backing store.
    #[must_use]
    pub fn store_handle(&self) -> Arc<ResultStore> {
        Arc::clone(&self.store)
    }

    /// The default on-disk location, `target/campaigns/cache`.
    #[must_use]
    pub fn default_root() -> PathBuf {
        Path::new("target").join("campaigns").join("cache")
    }

    /// Looks the scenario up; `None` on miss, format mismatch, or a (wildly
    /// unlikely) hash collision.
    #[must_use]
    pub fn lookup(&self, scenario: &Scenario) -> Option<CachedResult> {
        let record = self.store.get(scenario.key())?;
        decode_payload(&record.payload, scenario)
    }

    /// Persists a freshly executed result.
    ///
    /// # Errors
    ///
    /// Propagates the error if the record cannot be appended.
    pub fn store(&self, scenario: &Scenario, result: &CachedResult) -> io::Result<()> {
        self.store
            .insert(&record_for(scenario, result))
            .map(|_key| ())
    }

    /// Durably flushes the backing store's index.
    ///
    /// # Errors
    ///
    /// Propagates the error from the store flush.
    pub fn flush(&self) -> io::Result<()> {
        self.store.flush()
    }
}

/// Builds the store record for a scenario result: a `spec` / `metrics` /
/// `wall_ms` object under the scenario's cache-key preimage.
fn record_for(scenario: &Scenario, result: &CachedResult) -> StoreRecord {
    let mut entry = Map::new();
    entry.insert("spec".into(), scenario.spec.to_json());
    entry.insert("metrics".into(), Value::Object(result.metrics.clone()));
    entry.insert("wall_ms".into(), result.wall_ms.into());
    StoreRecord::new(key_preimage(&scenario.spec), Value::Object(entry))
}

/// Decodes a store payload, applying the collision/staleness guard: the
/// embedded spec must match the scenario asking.
fn decode_payload(payload: &Value, scenario: &Scenario) -> Option<CachedResult> {
    if payload.get("spec") != Some(&scenario.spec.to_json()) {
        return None;
    }
    Some(CachedResult {
        metrics: payload.get("metrics")?.as_object()?.clone(),
        wall_ms: payload
            .get("wall_ms")
            .and_then(Value::as_f64)
            .unwrap_or(0.0),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::ScenarioSpec;

    fn temp_root(tag: &str) -> PathBuf {
        let root =
            std::env::temp_dir().join(format!("prac-campaign-cache-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        root
    }

    fn scenario(nrh: u32) -> Scenario {
        Scenario::new(
            "s",
            ScenarioSpec::SolveWindow {
                nrh,
                counter_reset: true,
            },
        )
    }

    fn result(tmax: u64) -> CachedResult {
        let mut metrics = Map::new();
        metrics.insert("tmax".into(), tmax.into());
        CachedResult {
            metrics,
            wall_ms: 1.5,
        }
    }

    #[test]
    fn miss_then_hit_then_miss_on_change() {
        let cache = ResultCache::open(temp_root("hit-miss")).unwrap();
        let s = scenario(1024);
        assert!(cache.lookup(&s).is_none(), "cold cache must miss");

        cache.store(&s, &result(572)).unwrap();
        assert_eq!(cache.lookup(&s), Some(result(572)), "same config must hit");

        assert!(
            cache.lookup(&scenario(2048)).is_none(),
            "changed threshold must miss"
        );
    }

    #[test]
    fn collision_guard_rejects_mismatched_spec() {
        let cache = ResultCache::open(temp_root("collision")).unwrap();
        let s = scenario(512);
        // Insert a record under s's key whose embedded spec is different —
        // the store-level analogue of the old corrupted-file test.
        let mut payload = Map::new();
        payload.insert(
            "spec".into(),
            serde_json::from_str(r#"{"kind":"other"}"#).unwrap(),
        );
        payload.insert("metrics".into(), Value::Object(Map::new()));
        let record = StoreRecord::new(key_preimage(&s.spec), Value::Object(payload));
        cache.store_handle().insert(&record).unwrap();
        assert!(cache.lookup(&s).is_none());
    }

    #[test]
    fn clones_share_one_store() {
        let cache = ResultCache::open(temp_root("clone")).unwrap();
        let other = cache.clone();
        cache.store(&scenario(64), &result(1)).unwrap();
        assert_eq!(other.lookup(&scenario(64)), Some(result(1)));
    }
}
