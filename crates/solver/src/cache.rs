//! Concurrent memoization of *necessarily*-relation queries.
//!
//! The paper reports that solver time dominates lifting, and the same
//! `≡ / ⊲⊳ / ⪯` question is asked over and over: every memory-model
//! insertion re-decides the inserted region against every resident
//! region, and loop bodies re-insert the same few stack slots once per
//! joined state. [`QueryCache`] memoizes [`decide`](crate::decide)
//! verdicts across an entire binary lift, shared by every worker of the
//! parallel engine.
//!
//! # Soundness of the cache key
//!
//! A verdict depends on exactly three inputs (see `relation.rs`):
//!
//! 1. the two regions' **canonicalized linear forms** (terms sorted by
//!    atom, zero coefficients dropped — [`Linear`](hgl_expr::Linear)
//!    guarantees both) and byte sizes,
//! 2. the **interval bounds** the context holds for the atoms that
//!    appear in either form (the arithmetic path reads only those
//!    atoms' bounds; provenance's `interval_of` likewise), and
//! 3. the binary **layout** (provenance classification of bounded
//!    computed addresses).
//!
//! The key holds the two [`Region`]s themselves plus (2). A region is
//! an interned address handle and a size, and every interned node has
//! exactly one linear form ([`Expr::linear_form`](hgl_expr::Expr::linear_form)
//! memoizes it), so equal regions have equal forms: the key is at least
//! as fine as (1). Comparing it compares handles, hashing it reads the
//! nodes' precomputed structural hashes, and building it allocates
//! nothing unless some atom is bounded. Two distinct nodes with one
//! linear form (a raw, non-canonical sum and its canonical twin) get
//! separate entries, so a hit requires the very same regions and a
//! cached answer's assumptions name exactly the queried regions, as a
//! fresh `decide` would; a key over linear forms alone could return
//! assumptions naming the other pair.
//!
//! (3) is deliberately *not* in the key: a cache is created per
//! [`Lifter`] session and never outlives one binary, so the layout is
//! constant for every query the cache will ever see. Provenance of
//! symbol-rooted addresses (`rsp0`, `rdi0`, fresh allocation symbols) is
//! a function of the base symbol alone — base-symbol provenance is part
//! of the linear form and thus of the key — so memoized provenance
//! verdicts are exact, not approximate.
//!
//! [`Lifter`]: ../hgl_core/engine/struct.Lifter.html

use crate::{Answer, Ctx, Region};
use hgl_expr::{Atom, Interval};
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Number of independently locked shards. Power of two; sized so that
/// a dozen workers rarely contend on one lock.
const SHARDS: usize = 64;

/// Entries per shard before the shard is wholesale evicted. Keys and
/// answers are a few hundred bytes each, so the worst-case footprint
/// stays in the tens of megabytes.
const SHARD_CAP: usize = 8192;

/// A fully canonicalized query: both regions plus the bounds of every
/// atom either region mentions.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct QueryKey {
    r0: Region,
    r1: Region,
    /// `(atom, bound)` for each mentioned atom with a context bound,
    /// in the canonical (sorted) order the linear forms iterate in.
    bounds: Vec<(Atom, Interval)>,
    /// Structural hash of the three fields above, computed once at
    /// construction. A key is hashed at least twice (shard selection,
    /// then the shard map) and often three times (lookup then insert on
    /// a miss); caching the digest makes the later passes a single
    /// `u64` write.
    hash: u64,
}

/// Hashing delegates to the precomputed digest. `PartialEq` stays
/// structural over the payload fields, which the `HashMap` contract
/// requires; equal payloads produce equal digests because the digest
/// is a pure function of the payload.
impl Hash for QueryKey {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.hash.hash(state);
    }
}

impl QueryKey {
    /// Build the key for `decide(ctx, r0, r1)`.
    pub fn of(ctx: &Ctx, r0: &Region, r1: &Region) -> QueryKey {
        let l0 = r0.linear();
        let l1 = r1.linear();
        let mut bounds = Vec::new();
        for atom in l0.terms.keys().chain(l1.terms.keys()) {
            if let Some(b) = ctx.bound_of(atom) {
                if !bounds.iter().any(|(a, _)| a == atom) {
                    bounds.push((*atom, b));
                }
            }
        }
        let mut h = std::collections::hash_map::DefaultHasher::new();
        r0.hash(&mut h);
        r1.hash(&mut h);
        bounds.hash(&mut h);
        QueryKey { r0: *r0, r1: *r1, bounds, hash: h.finish() }
    }

    fn shard(&self) -> usize {
        (self.hash as usize) % SHARDS
    }
}

/// Point-in-time cache statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Queries answered from the cache.
    pub hits: u64,
    /// Queries decided and inserted.
    pub misses: u64,
    /// Entries dropped by shard eviction.
    pub evictions: u64,
    /// Entries currently resident.
    pub entries: u64,
    /// Total wall time spent *computing* verdicts (cache misses only),
    /// in nanoseconds. Hits are not clocked — at the observed >90% hit
    /// rates the two `Instant::now` calls per hit cost more than the
    /// lookup they would measure. Feeds the metrics layer's solver
    /// phase, which therefore reports decision-procedure time.
    pub query_nanos: u64,
}

impl CacheStats {
    /// Hit fraction in `[0, 1]`; `0` when no query was made.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// A sharded, mutex-protected memo table for `decide` verdicts with
/// hit/miss/eviction counters. Cheap to share: wrap in an `Arc` and
/// clone the handle per worker.
pub struct QueryCache {
    shards: Vec<Mutex<HashMap<QueryKey, Answer>>>,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
    query_nanos: AtomicU64,
    /// Digest of the configuration fingerprint the resident entries
    /// were computed under (`0` = unbound). See
    /// [`QueryCache::bind_fingerprint`].
    fingerprint: AtomicU64,
}

impl Default for QueryCache {
    fn default() -> QueryCache {
        QueryCache::new()
    }
}

impl std::fmt::Debug for QueryCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("QueryCache").field("stats", &self.stats()).finish()
    }
}

impl QueryCache {
    /// An empty cache.
    pub fn new() -> QueryCache {
        QueryCache {
            shards: (0..SHARDS).map(|_| Mutex::new(HashMap::new())).collect(),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            query_nanos: AtomicU64::new(0),
            fingerprint: AtomicU64::new(0),
        }
    }

    /// Bind the cache to a configuration fingerprint digest (see
    /// `hgl_core::Fingerprint::digest64`). The cache key canonicalizes
    /// the solver's *inputs* but not the configuration that shaped
    /// them, so resident verdicts are only reusable while the
    /// fingerprint is unchanged: rebinding to a *different* digest
    /// flushes every shard (counted as evictions). Rebinding to the
    /// same digest is free.
    pub fn bind_fingerprint(&self, digest: u64) {
        let prev = self.fingerprint.swap(digest, Ordering::AcqRel);
        if prev != 0 && prev != digest {
            for shard in &self.shards {
                let mut guard = shard.lock().unwrap_or_else(|e| e.into_inner());
                self.evictions.fetch_add(guard.len() as u64, Ordering::Relaxed);
                guard.clear();
            }
        }
    }

    /// The bound fingerprint digest (`0` when unbound).
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint.load(Ordering::Acquire)
    }

    /// Look up a memoized verdict.
    pub fn get(&self, key: &QueryKey) -> Option<Answer> {
        let shard = &self.shards[key.shard()];
        let guard = shard.lock().unwrap_or_else(|e| e.into_inner());
        let found = guard.get(key).cloned();
        drop(guard);
        match &found {
            Some(_) => self.hits.fetch_add(1, Ordering::Relaxed),
            None => self.misses.fetch_add(1, Ordering::Relaxed),
        };
        found
    }

    /// Insert a decided verdict. When the shard is full it is cleared
    /// wholesale first — the working set of a lift is heavily skewed
    /// towards recent queries, so a coarse epoch eviction loses little
    /// and needs no per-entry bookkeeping on the hit path.
    pub fn insert(&self, key: QueryKey, answer: Answer) {
        let shard = &self.shards[key.shard()];
        let mut guard = shard.lock().unwrap_or_else(|e| e.into_inner());
        if guard.len() >= SHARD_CAP {
            self.evictions.fetch_add(guard.len() as u64, Ordering::Relaxed);
            guard.clear();
        }
        guard.insert(key, answer);
    }

    /// Add `nanos` of wall time spent answering queries.
    pub fn add_query_nanos(&self, nanos: u64) {
        self.query_nanos.fetch_add(nanos, Ordering::Relaxed);
    }

    /// Current statistics.
    pub fn stats(&self) -> CacheStats {
        let entries = self
            .shards
            .iter()
            .map(|s| s.lock().unwrap_or_else(|e| e.into_inner()).len() as u64)
            .sum();
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            entries,
            query_nanos: self.query_nanos.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{decide, RegionRel};
    use hgl_expr::{Clause, Expr, OpKind, Rel, Sym};
    use hgl_x86::Reg;
    use std::sync::Arc;

    #[test]
    fn hit_after_miss_returns_same_answer() {
        let cache = QueryCache::new();
        let ctx = Ctx::new();
        let a = Region::stack(-0x28, 8);
        let b = Region::stack(-0x10, 8);
        let key = QueryKey::of(&ctx, &a, &b);
        assert!(cache.get(&key).is_none());
        let ans = decide(&ctx, &a, &b);
        cache.insert(key.clone(), ans.clone());
        assert_eq!(cache.get(&key), Some(ans));
        let s = cache.stats();
        assert_eq!((s.hits, s.misses, s.entries), (1, 1, 1));
        assert!(s.hit_rate() > 0.49 && s.hit_rate() < 0.51);
    }

    #[test]
    fn constructors_normalise_equal_sums_to_one_key() {
        let ctx = Ctx::new();
        // rsp0 + (8 - 0x30)  vs  (rsp0 - 0x30) + 8: the constructors
        // normalise both to the same canonical sum, which interns to
        // one node, so the two regions and their keys are equal.
        let rsp = || Expr::sym(Sym::Init(Reg::Rsp));
        let a = Region::new(rsp().add(Expr::imm(8)).sub(Expr::imm(0x30)), 8);
        let b = Region::new(rsp().sub(Expr::imm(0x30)).add(Expr::imm(8)), 8);
        assert_eq!(a, b);
        let probe = Region::return_address_slot();
        assert_eq!(QueryKey::of(&ctx, &a, &probe), QueryKey::of(&ctx, &b, &probe));
    }

    #[test]
    fn distinct_nodes_with_one_linear_form_get_own_entries() {
        // A raw sum keeps its operand order, so `-0x28 + rsp0` is a
        // different node from the canonical `rsp0 - 0x28` of the same
        // linear form. Each gets its own entry, and each answer's
        // assumption names the pair that was asked about.
        let canonical = Region::stack(-0x28, 8);
        let raw = Region::new(
            Expr::op2_raw(OpKind::Add, Expr::imm(-0x28i64 as u64), Expr::sym(Sym::Init(Reg::Rsp))),
            8,
        );
        assert_ne!(canonical, raw);
        assert_eq!(canonical.linear(), raw.linear());
        let arg = Region::new(Expr::sym(Sym::Init(Reg::Rdi)), 8);
        let cache = Arc::new(QueryCache::new());
        let ctx = Ctx::new().with_cache(Arc::clone(&cache));
        for slot in [canonical, raw, canonical, raw] {
            let ans = decide(&ctx, &slot, &arg);
            assert_eq!(ans.rel, RegionRel::Separate);
            assert_eq!((ans.assumptions[0].r0, ans.assumptions[0].r1), (slot, arg));
        }
        let s = cache.stats();
        assert_eq!((s.hits, s.misses, s.entries), (2, 2, 2));
    }

    #[test]
    fn differing_bounds_produce_distinct_keys() {
        // The same regions under different clause contexts must not
        // share a verdict: the bound is what makes the table access
        // separate from the cell past it.
        let rax = Expr::sym(Sym::Init(Reg::Rax));
        let entry = Region::new(Expr::imm(0x1000).add(rax.mul(Expr::imm(8))), 8);
        let past = Region::global(0x1000 + 0xc3 * 8, 8);
        let free = Ctx::new();
        let c = Clause::new(rax, Rel::Lt, Expr::imm(0xc3));
        let bounded = Ctx::from_clauses([&c], crate::Layout::default());
        assert_ne!(QueryKey::of(&free, &entry, &past), QueryKey::of(&bounded, &entry, &past));
        assert_eq!(decide(&free, &entry, &past).rel, RegionRel::Unknown);
        assert_eq!(decide(&bounded, &entry, &past).rel, RegionRel::Separate);
    }

    #[test]
    fn eviction_counts_and_caps_shard() {
        let cache = QueryCache::new();
        let ctx = Ctx::new();
        // Far more distinct keys than total capacity.
        for i in 0..(SHARDS * SHARD_CAP + SHARDS * 64) as i64 {
            let a = Region::stack(-8 * i, 8);
            let key = QueryKey::of(&ctx, &a, &a);
            cache.insert(key, decide(&ctx, &a, &a));
        }
        let s = cache.stats();
        assert!(s.evictions > 0, "evictions must be counted: {s:?}");
        assert!(s.entries <= (SHARDS * SHARD_CAP) as u64);
    }

    #[test]
    fn rebinding_fingerprint_flushes() {
        let cache = QueryCache::new();
        let ctx = Ctx::new();
        let a = Region::stack(-8, 8);
        let key = QueryKey::of(&ctx, &a, &a);
        cache.bind_fingerprint(17);
        cache.insert(key.clone(), decide(&ctx, &a, &a));
        // Same digest: entries survive.
        cache.bind_fingerprint(17);
        assert!(cache.get(&key).is_some());
        // Different digest: flushed (and counted as evictions).
        cache.bind_fingerprint(23);
        assert!(cache.get(&key).is_none());
        assert_eq!(cache.fingerprint(), 23);
        assert!(cache.stats().evictions >= 1);
        assert_eq!(cache.stats().entries, 0);
    }

    #[test]
    fn concurrent_use_is_consistent() {
        let cache = Arc::new(QueryCache::new());
        let ctx = Ctx::new();
        std::thread::scope(|scope| {
            for t in 0..4 {
                let cache = Arc::clone(&cache);
                let ctx = ctx.clone();
                scope.spawn(move || {
                    for i in 0..200i64 {
                        let a = Region::stack(-8 * (i % 32), 8);
                        let b = Region::stack(-8 * ((i + t) % 32), 8);
                        let key = QueryKey::of(&ctx, &a, &b);
                        match cache.get(&key) {
                            Some(ans) => assert_eq!(ans, decide(&ctx, &a, &b)),
                            None => cache.insert(key, decide(&ctx, &a, &b)),
                        }
                    }
                });
            }
        });
        let s = cache.stats();
        assert!(s.hits + s.misses == 4 * 200);
    }
}
