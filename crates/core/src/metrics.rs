//! Phase-level pipeline metrics.
//!
//! The ROADMAP asks that every speed claim be measured, end to end and
//! layer by layer; this module is the instrument that makes such claims
//! checkable. A [`Metrics`] sink is threaded through the lifting
//! pipeline and accumulates, per [`Phase`], wall time and invocation
//! counts, plus binary-level gauges (states, instructions, functions)
//! and the solver cache's hit/miss/eviction statistics. Everything is
//! atomic, so one sink is shared by all workers of the parallel
//! engine.
//!
//! The phases follow the pipeline's structure, not a strict partition
//! of wall time: `decode` counts the decodes performed, one per
//! address a function's exploration steps (a revisit reads the
//! graph's instruction and is charged to `tau`); `tau` (symbolic
//! stepping) *contains* the `solver` time spent deciding region
//! relations during memory-model insertion, and the sum of phase
//! times is less than total wall time (worklist bookkeeping, the
//! compatible-vertex lookup, scheduling). `join`
//! includes Algorithm 1's covered check (line 4): a state that reaches
//! a compatible vertex is joined once, and the join is compared with
//! the vertex's state. So its count is every compatible visit plus
//! every join into the exit vertex, whether or not the join changed a
//! vertex. A
//! [`MetricsSnapshot`] freezes the counters; `hgl-export` serialises
//! it as the `hgl-metrics-v1` document behind `hgl lift --metrics`.

use crate::store_api::StoreStats;
use hgl_solver::CacheStats;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// A pipeline phase with its own wall-time and count counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Phase {
    /// Instruction fetch + decode: one count per decode performed.
    /// Exploration decodes an address at its first visit only (and
    /// again at each visit whose decode failed); a later visit reads
    /// the graph's instruction and is charged to `tau`.
    Decode,
    /// The symbolic step function `τ` (includes nested solver time).
    Tau,
    /// State joins at graph vertices, including the covered check: one
    /// count per compatible visit (whether or not the join changed the
    /// vertex) and per join into the exit vertex.
    Join,
    /// Solver-context construction and region-relation queries.
    Solver,
    /// Report assembly and serialisation.
    Export,
}

impl Phase {
    /// All phases, in pipeline order.
    pub const ALL: [Phase; 5] = [Phase::Decode, Phase::Tau, Phase::Join, Phase::Solver, Phase::Export];

    /// Stable lowercase name used in the JSON report.
    pub fn name(self) -> &'static str {
        match self {
            Phase::Decode => "decode",
            Phase::Tau => "tau",
            Phase::Join => "join",
            Phase::Solver => "solver",
            Phase::Export => "export",
        }
    }

    fn index(self) -> usize {
        match self {
            Phase::Decode => 0,
            Phase::Tau => 1,
            Phase::Join => 2,
            Phase::Solver => 3,
            Phase::Export => 4,
        }
    }
}

#[derive(Default)]
struct PhaseCell {
    nanos: AtomicU64,
    count: AtomicU64,
}

/// The shared, thread-safe metrics sink.
#[derive(Default)]
pub struct Metrics {
    phases: [PhaseCell; 5],
    states: AtomicU64,
    instructions: AtomicU64,
    functions_lifted: AtomicU64,
    functions_rejected: AtomicU64,
    rounds: AtomicU64,
    // A mutex, not atomics: decode rejects are rare (one ends the
    // exploration of its path), so contention is negligible and the
    // open key space rules out a fixed atomic array.
    decode_rejects: Mutex<BTreeMap<String, u64>>,
}

impl std::fmt::Debug for Metrics {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Metrics").field("snapshot", &self.snapshot(None, 0, Duration::ZERO)).finish()
    }
}

impl Metrics {
    /// A zeroed sink.
    pub fn new() -> Metrics {
        Metrics::default()
    }

    /// Record one timed invocation of `phase`.
    pub fn record(&self, phase: Phase, elapsed: Duration) {
        let cell = &self.phases[phase.index()];
        cell.nanos.fetch_add(elapsed.as_nanos() as u64, Ordering::Relaxed);
        cell.count.fetch_add(1, Ordering::Relaxed);
    }

    /// Time `f` under `phase`.
    pub fn time<T>(&self, phase: Phase, f: impl FnOnce() -> T) -> T {
        let started = Instant::now();
        let out = f();
        self.record(phase, started.elapsed());
        out
    }

    /// Accumulate the binary-level gauges (called at report assembly;
    /// additive so a session of several lifts sums its work).
    pub fn add_gauges(&self, states: u64, instructions: u64, lifted: u64, rejected: u64) {
        self.states.fetch_add(states, Ordering::Relaxed);
        self.instructions.fetch_add(instructions, Ordering::Relaxed);
        self.functions_lifted.fetch_add(lifted, Ordering::Relaxed);
        self.functions_rejected.fetch_add(rejected, Ordering::Relaxed);
    }

    /// Record one completed engine round.
    pub fn count_round(&self) {
        self.rounds.fetch_add(1, Ordering::Relaxed);
    }

    /// Record one decode rejection under its histogram bucket (a
    /// [`hgl_x86::DecodeError::reject_key`] such as `opcode:0f05`).
    pub fn count_decode_reject(&self, key: String) {
        let mut map = self.decode_rejects.lock().expect("decode-reject histogram poisoned");
        *map.entry(key).or_insert(0) += 1;
    }

    /// Freeze the counters. `cache` folds the solver cache's counters
    /// in (its accumulated query time is added to the `solver` phase);
    /// `workers`/`elapsed` describe the run that produced the numbers.
    pub fn snapshot(
        &self,
        cache: Option<CacheStats>,
        workers: usize,
        elapsed: Duration,
    ) -> MetricsSnapshot {
        let cache = cache.unwrap_or_default();
        let mut phases = Vec::with_capacity(Phase::ALL.len());
        for p in Phase::ALL {
            let cell = &self.phases[p.index()];
            let mut nanos = cell.nanos.load(Ordering::Relaxed);
            let mut count = cell.count.load(Ordering::Relaxed);
            if p == Phase::Solver {
                nanos += cache.query_nanos;
                count += cache.hits + cache.misses;
            }
            phases.push(PhaseSnapshot { phase: p, nanos, count });
        }
        MetricsSnapshot {
            phases,
            states: self.states.load(Ordering::Relaxed),
            instructions: self.instructions.load(Ordering::Relaxed),
            functions_lifted: self.functions_lifted.load(Ordering::Relaxed),
            functions_rejected: self.functions_rejected.load(Ordering::Relaxed),
            rounds: self.rounds.load(Ordering::Relaxed),
            decode_rejects: self
                .decode_rejects
                .lock()
                .expect("decode-reject histogram poisoned")
                .clone(),
            cache,
            store: None,
            rewrite: None,
            workers: workers as u64,
            elapsed_nanos: elapsed.as_nanos() as u64,
        }
    }
}

/// Counters of one `hgl-rewrite` run, carried in the metrics document
/// as the `rewrite` block. Defined here (not in `hgl-rewrite`) so the
/// exporter can serialise it without depending on the rewriter.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RewriteStats {
    /// Functions whose graphs were walked and re-encoded.
    pub functions: u64,
    /// Instructions re-encoded through `hgl_x86::encode`.
    pub instructions_reencoded: u64,
    /// Image-size delta in bytes (rewritten minus original).
    pub bytes_delta: i64,
    /// Shadow-stack guards inserted (0 for identity rewrites).
    pub guards_inserted: u64,
    /// Re-lift graph-correspondence verdict, when `--verify` ran.
    pub verify_relift_ok: Option<bool>,
    /// Differential trace-oracle verdict, when `--verify` ran.
    pub verify_traces_ok: Option<bool>,
}

/// One phase's frozen counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PhaseSnapshot {
    /// Which phase.
    pub phase: Phase,
    /// Accumulated wall time, in nanoseconds.
    pub nanos: u64,
    /// Invocation count (for `solver`, the number of region-relation
    /// queries plus context constructions).
    pub count: u64,
}

/// A frozen, plain-data view of a [`Metrics`] sink — the payload of
/// the `hgl-metrics-v1` report.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricsSnapshot {
    /// Per-phase timings, in [`Phase::ALL`] order.
    pub phases: Vec<PhaseSnapshot>,
    /// Total symbolic states across all lifted functions.
    pub states: u64,
    /// Distinct instruction addresses lifted.
    pub instructions: u64,
    /// Functions that lifted cleanly.
    pub functions_lifted: u64,
    /// Functions with a rejection verdict.
    pub functions_rejected: u64,
    /// Engine rounds run.
    pub rounds: u64,
    /// Histogram of decode rejections, keyed by
    /// [`hgl_x86::DecodeError::reject_key`] bucket. Empty when every
    /// fetched window decoded — the common case, and the shape the
    /// pre-telemetry metrics documents pin.
    pub decode_rejects: BTreeMap<String, u64>,
    /// Solver-cache counters.
    pub cache: CacheStats,
    /// Persistent artifact-store counters; `None` when the session runs
    /// without a store, so store-less metrics documents are unchanged.
    pub store: Option<StoreStats>,
    /// Rewriting counters; `None` for plain lifts, so pre-rewrite
    /// metrics documents are unchanged.
    pub rewrite: Option<RewriteStats>,
    /// Worker threads used.
    pub workers: u64,
    /// End-to-end wall time of the lift, in nanoseconds.
    pub elapsed_nanos: u64,
}

impl MetricsSnapshot {
    /// The frozen counters of one phase.
    pub fn phase(&self, phase: Phase) -> PhaseSnapshot {
        self.phases[phase.index()]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_accumulates() {
        let m = Metrics::new();
        m.record(Phase::Decode, Duration::from_nanos(100));
        m.record(Phase::Decode, Duration::from_nanos(50));
        m.time(Phase::Join, || std::thread::sleep(Duration::from_millis(1)));
        let s = m.snapshot(None, 2, Duration::from_millis(5));
        assert_eq!(s.phase(Phase::Decode).count, 2);
        assert_eq!(s.phase(Phase::Decode).nanos, 150);
        assert_eq!(s.phase(Phase::Join).count, 1);
        assert!(s.phase(Phase::Join).nanos >= 1_000_000);
        assert_eq!(s.phase(Phase::Tau).count, 0);
        assert_eq!(s.workers, 2);
    }

    #[test]
    fn cache_stats_fold_into_solver_phase() {
        let m = Metrics::new();
        m.record(Phase::Solver, Duration::from_nanos(10));
        let cache = CacheStats { hits: 3, misses: 2, evictions: 0, entries: 2, query_nanos: 90 };
        let s = m.snapshot(Some(cache), 1, Duration::ZERO);
        assert_eq!(s.phase(Phase::Solver).nanos, 100);
        assert_eq!(s.phase(Phase::Solver).count, 6);
        assert!((s.cache.hit_rate() - 0.6).abs() < 1e-9);
    }

    #[test]
    fn shared_across_threads() {
        let m = Metrics::new();
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| {
                    for _ in 0..100 {
                        m.record(Phase::Tau, Duration::from_nanos(1));
                    }
                });
            }
        });
        assert_eq!(m.snapshot(None, 4, Duration::ZERO).phase(Phase::Tau).count, 400);
    }
}
