//! # result-store
//!
//! A content-addressed result store: the persistence substrate behind the
//! campaign cache and the `prac-bench serve` service.
//!
//! Results are [`StoreRecord`]s — an *identity* string (the content-hash
//! preimage, e.g. the campaign layer's `sim-r2:{canonical spec JSON}`) plus
//! an arbitrary JSON *payload*.  The record's key is the stable 64-bit
//! FNV-1a hash of the identity bytes, which makes the store a drop-in home
//! for the scenario cache keys: same preimage, same key.
//!
//! On disk a store is a directory of append-only newline-delimited segment
//! files plus a rebuildable index:
//!
//! ```text
//! <root>/
//!   segments/seg-000001.jsonl   one checksummed JSON record per line
//!   segments/seg-000002.jsonl   (a new segment starts when the active one
//!   ...                          exceeds the roll-over size)
//!   index.json                  key -> (segment, offset, len), written via
//!                               temp-file + rename; safe to delete
//! ```
//!
//! Crash-safety model:
//!
//! * every record line carries a FNV-1a checksum; a torn tail write (the
//!   crash case) fails to parse or checksum and is truncated away on the
//!   next open,
//! * corrupt lines *inside* a segment are quarantined in place — skipped by
//!   the loader, counted by [`ResultStore::stats`], reported by
//!   [`ResultStore::verify`] and dropped by [`ResultStore::compact`] —
//!   never a crash,
//! * the index file is an optimisation only: if it is missing, stale or
//!   corrupt, opening the store rebuilds it by scanning the segments,
//! * all whole-file writes (index, compacted segments, bundles) go through
//!   [`write_atomic`]: write to a temp file in the same directory, flush,
//!   rename over the target.
//!
//! Concurrency model: many readers, single writer.  The in-memory index
//! lives behind a reader-writer lock that the writer holds only for the
//! in-memory map update (never during file I/O), and
//! [`ResultStore::snapshot`] hands readers an immutable [`StoreSnapshot`]
//! whose lookups take no lock at all — the hot path of a serving process is
//! an index probe plus one positioned segment read.
//!
//! [`Bundle`]s are single-file archives of a store's live records, so result
//! sets move between CI, laptops and future distributed sweep workers with
//! plain file copies: `export` on one machine, `import` on another,
//! first-write-wins on key conflicts.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod bundle;
mod record;
mod store;

pub use bundle::{Bundle, BundleReport};
pub use record::{fnv1a64, RecordError, StoreRecord};
pub use store::{
    CompactReport, EntryLocation, ResultStore, StoreSnapshot, StoreStats, VerifyReport,
};

use std::fs;
use std::io::{self, Write as _};
use std::path::Path;

/// Writes `bytes` to `path` atomically: the content goes to a temp file in
/// the same directory, is flushed and synced, and is then renamed over the
/// target, so a crash mid-write can never leave a torn file at `path`.
///
/// # Errors
///
/// Propagates the error if the temp file cannot be created, written, synced
/// or renamed.
pub fn write_atomic(path: &Path, bytes: &[u8]) -> io::Result<()> {
    let directory = path.parent().unwrap_or_else(|| Path::new("."));
    fs::create_dir_all(directory)?;
    let file_name = path
        .file_name()
        .and_then(|name| name.to_str())
        .unwrap_or("file");
    // The temp name includes the pid so two processes writing the same
    // target cannot collide on the temp file itself.
    let temp = directory.join(format!(".{file_name}.tmp-{}", std::process::id()));
    let mut out = fs::File::create(&temp)?;
    out.write_all(bytes)?;
    out.sync_all()?;
    drop(out);
    match fs::rename(&temp, path) {
        Ok(()) => Ok(()),
        Err(error) => {
            let _ = fs::remove_file(&temp);
            Err(error)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn write_atomic_replaces_content() {
        let dir = std::env::temp_dir().join(format!("store-atomic-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let path = dir.join("nested").join("file.json");
        write_atomic(&path, b"first").unwrap();
        assert_eq!(fs::read(&path).unwrap(), b"first");
        write_atomic(&path, b"second").unwrap();
        assert_eq!(fs::read(&path).unwrap(), b"second");
        // No temp litter left behind.
        let litter: Vec<_> = fs::read_dir(path.parent().unwrap())
            .unwrap()
            .filter_map(Result::ok)
            .filter(|e| e.file_name().to_string_lossy().contains("tmp"))
            .collect();
        assert!(litter.is_empty(), "{litter:?}");
    }
}
