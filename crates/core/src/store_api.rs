//! The engine-side interface to a persistent artifact store.
//!
//! Hoare-Graph extraction is context-free per function (§4.2.2): a
//! function's artifact depends only on its instruction bytes (plus any
//! image bytes its lift read), the configuration
//! [`Fingerprint`](crate::Fingerprint), and the binary's segment/
//! external layout. That makes per-function artifacts safely cacheable
//! across processes. The concrete on-disk store lives in `hgl-store`
//! (which depends on this crate); the engine sees only this
//! object-safe trait, so `hgl-core` stays free of a dependency cycle.
//!
//! # Contract
//!
//! - [`ArtifactStore::lookup`] must return an artifact only if it is
//!   *valid for the current binary*: the bytes at the artifact's
//!   footprint (its graph's decoded instructions, a failed decode's
//!   window, its image reads) hash to the recorded content hash, and
//!   the requesting fingerprint matches the one the artifact was
//!   stored under. Corrupted, truncated or version-skewed
//!   entries must surface as `None` (a miss/invalidation), never as a
//!   wrong artifact — degrading to recompute is always sound.
//! - Implementations must never panic on malformed store contents;
//!   the never-crash pipeline contract extends to the cache layer.
//! - [`ArtifactStore::insert`] may be a no-op (e.g. read-only stores).

use crate::lift::FnLift;
use crate::Fingerprint;
use hgl_elf::Binary;

/// A persistent, content-addressed store of per-function lift
/// artifacts, as seen by the engine.
pub trait ArtifactStore: Sync {
    /// Fetch the artifact for the function at `entry`, if the store
    /// holds one valid for this binary and fingerprint.
    fn lookup(&self, binary: &Binary, fingerprint: &Fingerprint, entry: u64) -> Option<FnLift>;

    /// Persist a freshly computed artifact.
    fn insert(&self, binary: &Binary, fingerprint: &Fingerprint, lift: &FnLift);

    /// Point-in-time counters (folded into the metrics snapshot).
    fn stats(&self) -> StoreStats;
}

/// Point-in-time counters of a persistent artifact store.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StoreStats {
    /// Lookups answered with a valid artifact.
    pub hits: u64,
    /// Lookups with no stored entry.
    pub misses: u64,
    /// Lookups that found an entry but rejected it: stale content
    /// hash, version skew, corruption, or a failed `--store-verify`
    /// replay. Every invalidation degrades to recompute.
    pub invalidations: u64,
    /// Entries evicted to respect the store's capacity.
    pub evictions: u64,
    /// Artifacts written by this session.
    pub inserts: u64,
    /// Orphaned temp files collected by the startup sweep (crash
    /// leftovers from a process that died between tmp write and
    /// rename).
    pub tmp_swept: u64,
    /// Publish attempts retried after a transient I/O failure.
    pub write_retries: u64,
    /// Publishes abandoned after exhausting retries. Each one degrades
    /// to a recompute on the next lift — never an error.
    pub write_failures: u64,
}

impl StoreStats {
    /// Hit fraction in `[0, 1]` over all lookups; `0` when none.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses + self.invalidations;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}
