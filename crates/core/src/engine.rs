//! The parallel whole-binary lifting engine and the [`Lifter`] session
//! API.
//!
//! A [`Lifter`] is one lifting *session* over one binary: it owns the
//! shared solver-query memo table ([`QueryCache`]) and the phase-level
//! [`Metrics`] sink. One engine lifts a set of root entries and their
//! call-target closure on a worker pool ([`parallel_map`]); the session
//! seeds it two ways —
//!
//! - [`Lifter::lift_entry`]: one root (the "Binaries" / "Library
//!   functions" modes of Table 1);
//! - [`Lifter::lift_all`]: every discovered function entry (the ELF
//!   entry point and the defined function symbols).
//!
//! # Determinism
//!
//! The engine is *bulk-synchronous*: each round runs every function
//! with bag work to quiescence in parallel, then a single coordinator
//! discovers new callees and activates pending returns in sorted
//! address order. Because functions are explored context-free (§4.2.2)
//! — no symbolic state ever flows between two functions — and each
//! function owns a private fresh-symbol counter, a function's Hoare
//! Graph depends only on the binary and the config, never on worker
//! scheduling or on which roots the run started from. A lift with N
//! workers is therefore byte-identical to one with one worker, and
//! `lift_entry` gives every function of its closure the graph
//! `lift_all` gives it, *except* when the global budget (the wall
//! clock) trips mid-round: exhaustion points depend on timing by
//! nature. The tests in `tests/engine.rs` pin the unlimited-budget
//! guarantees.
//!
//! # Memoization soundness
//!
//! All workers share one [`QueryCache`] attached to every solver
//! context of the session. The cache key canonicalizes exactly the
//! inputs `hgl_solver::decide` reads — see `crates/solver/src/cache.rs`
//! — so a hit returns the answer the solver would have computed.

use crate::budget::BudgetMeter;
use crate::explore::{ExploreCx, FnExploration};
use crate::fingerprint::Fingerprint;
use crate::lift::{
    assemble, concurrency_reject, isolated, lift_bytes_impl, panic_message, FnLift, LiftConfig,
    LiftResult, RejectReason,
};
use crate::metrics::{Metrics, MetricsSnapshot, Phase};
use crate::store_api::ArtifactStore;
use hgl_elf::Binary;
use hgl_solver::{Layout, QueryCache};
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::{Duration, Instant};

/// The number of workers the engine uses when none is requested:
/// `available_parallelism`, resolved once per process. Each call of
/// `available_parallelism` re-reads the cgroup CPU-quota files, and
/// the engine asks for every lift left at 0 workers.
pub fn default_workers() -> usize {
    static WORKERS: OnceLock<usize> = OnceLock::new();
    *WORKERS.get_or_init(|| std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1))
}

/// A lifting session over one binary.
///
/// ```
/// use hgl_asm::Asm;
/// use hgl_core::{Lifter, LiftConfig};
/// use hgl_x86::{Instr, Mnemonic, Operand, Reg, Width};
///
/// let mut asm = Asm::new();
/// asm.label("main");
/// asm.ins(Instr::new(Mnemonic::Xor,
///     vec![Operand::reg(Reg::Rax, Width::B4), Operand::reg(Reg::Rax, Width::B4)],
///     Width::B4));
/// asm.ret();
/// let bin = asm.entry("main").assemble()?;
///
/// let report = Lifter::new(&bin).with_config(LiftConfig::default()).lift_all();
/// assert!(report.is_lifted());
/// assert_eq!(report.roots, vec![bin.entry]);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub struct Lifter<'b> {
    binary: &'b Binary,
    config: LiftConfig,
    workers: usize,
    cache: Arc<QueryCache>,
    metrics: Metrics,
    /// Persistent artifact store for incremental re-lifting, if any.
    store: Option<&'b dyn ArtifactStore>,
    /// Absolute deadline composed into every lift's budget, if any.
    deadline: Option<Instant>,
    /// Wall time accumulated by this session's lifts, in nanoseconds.
    elapsed: AtomicU64,
}

/// The digest a session's solver cache is bound to: configuration
/// fingerprint *plus* the binary's text/data layout. The cache key
/// (`crates/solver/src/cache.rs`) deliberately omits the layout — it is
/// constant within one session — so a cache shared *across* sessions
/// (the `hgl serve` warm path) is sound only if re-binding flushes it
/// whenever the layout changes. Folding the layout into the bound
/// digest makes that automatic: same binary + same config → warm
/// replay, anything else → flush.
fn cache_scope(fp: &Fingerprint, binary: &Binary) -> u64 {
    let mut bytes = Vec::with_capacity(64);
    bytes.extend_from_slice(&fp.digest64().to_le_bytes());
    for (lo, hi) in binary.text_ranges().into_iter().chain(binary.data_ranges()) {
        bytes.extend_from_slice(&lo.to_le_bytes());
        bytes.extend_from_slice(&hi.to_le_bytes());
    }
    crate::fingerprint::fnv1a(&bytes)
}

impl<'b> Lifter<'b> {
    /// Opens a session on `binary` with a default config and an
    /// automatic worker count.
    pub fn new(binary: &'b Binary) -> Lifter<'b> {
        Lifter {
            binary,
            config: LiftConfig::default(),
            workers: 0,
            cache: Arc::new(QueryCache::new()),
            metrics: Metrics::new(),
            store: None,
            deadline: None,
            elapsed: AtomicU64::new(0),
        }
    }

    /// Shares an existing solver-query cache with this session instead
    /// of creating a fresh one. This is how a long-running server keeps
    /// the cache warm across requests: repeat lifts of the same binary
    /// under the same configuration replay memoized verdicts. Soundness
    /// is preserved by scope binding — every lift re-binds the cache to
    /// a digest of (configuration fingerprint ‖ binary layout) and the
    /// cache flushes itself whenever that digest changes, so verdicts
    /// never leak between binaries whose layouts differ.
    pub fn with_cache(mut self, cache: Arc<QueryCache>) -> Lifter<'b> {
        self.cache = cache;
        self
    }

    /// Sets an absolute deadline for this session's lifts. The deadline
    /// composes with the configured [`Budget`](crate::Budget): the
    /// effective wall clock is the tighter of the two, so an expiring
    /// request degrades gracefully to a partial Hoare Graph with
    /// `BudgetFrontier` annotations exactly like a configured timeout.
    /// Unlike tightening `budget.wall_clock`, a deadline does **not**
    /// change the configuration [`Fingerprint`](crate::Fingerprint), so
    /// deadline-carrying requests still share warm solver caches and
    /// persistent stores.
    pub fn with_deadline(mut self, deadline: Instant) -> Lifter<'b> {
        self.deadline = Some(deadline);
        self
    }

    /// Attaches a persistent artifact store, turning [`Lifter::lift_all`]
    /// into an *incremental* re-lift: every discovered root is looked up
    /// before lifting, confirmed hits are replayed instead of explored,
    /// and freshly computed artifacts are written back. The session's
    /// solver cache is bound to the configuration
    /// [`Fingerprint`](crate::Fingerprint); re-using one session across
    /// configs flushes it.
    pub fn with_store(mut self, store: &'b dyn ArtifactStore) -> Lifter<'b> {
        self.store = Some(store);
        self
    }

    /// Replaces the session's lifting configuration.
    pub fn with_config(mut self, config: LiftConfig) -> Lifter<'b> {
        self.config = config;
        self
    }

    /// Requests `n` engine worker threads (`0` = automatic, one per
    /// available core). Unless a global budget trips, the worker count
    /// changes a lift's speed, never its result.
    pub fn workers(mut self, n: usize) -> Lifter<'b> {
        self.workers = n;
        self
    }

    /// The worker count the engine will actually use.
    pub fn resolved_workers(&self) -> usize {
        if self.workers == 0 {
            default_workers()
        } else {
            self.workers
        }
    }

    /// The session's lifting configuration.
    pub fn config(&self) -> &LiftConfig {
        &self.config
    }

    /// The session's shared solver-query cache.
    pub fn cache(&self) -> &Arc<QueryCache> {
        &self.cache
    }

    /// Freezes the session's metrics: per-phase timings, gauges summed
    /// over every lift run so far, and the solver cache's counters.
    pub fn metrics_snapshot(&self) -> MetricsSnapshot {
        self.metrics.snapshot(
            Some(self.cache.stats()),
            self.resolved_workers(),
            Duration::from_nanos(self.elapsed.load(Ordering::Relaxed)),
        )
    }

    /// Parse raw bytes as an ELF image and lift it from its entry
    /// point in a one-shot session. Malformed images yield
    /// `RejectReason::MalformedBinary`, never a crash.
    pub fn from_bytes(bytes: &[u8], config: &LiftConfig) -> LiftResult {
        lift_bytes_impl(bytes, config)
    }

    /// Lift the call closure of one entry address: the engine run with
    /// `entry` as its only root, sharing this session's solver cache
    /// and metrics. Each function of the closure gets the graph
    /// [`Lifter::lift_all`] gives it. An attached store is not
    /// consulted.
    pub fn lift_entry(&self, entry: u64) -> LiftResult {
        let fp = Fingerprint::of(&self.config);
        self.cache.bind_fingerprint(cache_scope(&fp, self.binary));
        let result = isolated("lift", || self.run_engine(&[entry], BTreeMap::new()));
        self.account(&result);
        result
    }

    /// Lift every discovered function of the binary.
    ///
    /// Entry discovery seeds the ELF entry point plus every defined
    /// function symbol inside an executable segment; internal
    /// call targets are then added transitively as exploration finds
    /// them, exactly as for [`Lifter::lift_entry`].
    /// With a store attached (see [`Lifter::with_store`]), `lift_all`
    /// runs incrementally: confirmed cached artifacts are merged into
    /// the result without re-exploration, and only functions whose
    /// bytes, config or callee dependencies changed are lifted fresh.
    pub fn lift_all(&self) -> BinaryLiftReport {
        let started = Instant::now();
        let fp = Fingerprint::of(&self.config);
        self.cache.bind_fingerprint(cache_scope(&fp, self.binary));
        let roots = self.discover_roots();
        let cached = match self.store {
            Some(store) => self.preload(store, &fp, &roots),
            None => BTreeMap::new(),
        };
        let cached_keys: BTreeSet<u64> = cached.keys().copied().collect();
        let result = isolated("engine", || self.run_engine(&roots, cached));
        if let Some(store) = self.store {
            // Persist fresh artifacts — but only from a run whose
            // verdicts are intrinsic: a global budget trip leaves
            // return verdicts and frontier state premature, so nothing
            // from such a run may enter the store.
            if result.binary_reject.is_none() {
                for f in result.functions.values() {
                    if !cached_keys.contains(&f.entry) && f.is_storable() {
                        store.insert(self.binary, &fp, f);
                    }
                }
            }
        }
        self.account(&result);
        let mut metrics =
            self.metrics.snapshot(Some(self.cache.stats()), self.resolved_workers(), started.elapsed());
        metrics.store = self.store.map(|s| s.stats());
        BinaryLiftReport { roots, result, metrics }
    }

    /// Phase A of an incremental re-lift: fetch cached artifacts for
    /// every root (and, transitively, their callee dependencies), then
    /// *confirm* them by fixpoint — an artifact is usable only if every
    /// callee it depends on is itself confirmed with the same return
    /// verdict it had when the artifact was computed. Demoted artifacts
    /// are dropped and their functions re-lifted by the engine.
    fn preload(
        &self,
        store: &dyn ArtifactStore,
        fp: &Fingerprint,
        roots: &[u64],
    ) -> BTreeMap<u64, FnLift> {
        let mut fetched: BTreeMap<u64, FnLift> = BTreeMap::new();
        let mut queue: VecDeque<u64> = roots.to_vec().into();
        let mut seen: BTreeSet<u64> = queue.iter().copied().collect();
        while let Some(addr) = queue.pop_front() {
            if let Some(f) = store.lookup(self.binary, fp, addr) {
                for &c in f.callee_deps.keys() {
                    if seen.insert(c) {
                        queue.push_back(c);
                    }
                }
                fetched.insert(addr, f);
            }
        }
        let mut confirmed: BTreeSet<u64> = fetched.keys().copied().collect();
        loop {
            let demoted: Vec<u64> = confirmed
                .iter()
                .copied()
                .filter(|a| {
                    fetched[a].callee_deps.iter().any(|(c, consumed)| {
                        !confirmed.contains(c)
                            || fetched.get(c).map(|f| f.graph.returns()) != Some(*consumed)
                    })
                })
                .collect();
            if demoted.is_empty() {
                break;
            }
            for a in demoted {
                confirmed.remove(&a);
            }
        }
        fetched.retain(|a, _| confirmed.contains(a));
        fetched
    }

    /// Folds one lift's totals into the session gauges.
    fn account(&self, result: &LiftResult) {
        self.elapsed.fetch_add(result.elapsed.as_nanos() as u64, Ordering::Relaxed);
        let lifted = result.functions.values().filter(|f| f.is_lifted()).count() as u64;
        let rejected = result.functions.len() as u64 - lifted;
        self.metrics.add_gauges(
            result.state_count() as u64,
            result.instruction_count() as u64,
            lifted,
            rejected,
        );
    }

    /// The root entry set: the ELF entry point plus every defined
    /// function symbol that lies in executable memory, sorted.
    fn discover_roots(&self) -> Vec<u64> {
        let mut roots: Vec<u64> = Vec::new();
        if self.binary.is_code(self.binary.entry) {
            roots.push(self.binary.entry);
        }
        for &addr in self.binary.symbols.keys() {
            if self.binary.is_code(addr) && !self.binary.externals.contains_key(&addr) {
                roots.push(addr);
            }
        }
        roots.sort_unstable();
        roots.dedup();
        roots
    }

    /// The bulk-synchronous round loop (see the module docs). `cached`
    /// holds store artifacts confirmed by [`Lifter::preload`]: no slot
    /// is created for them, callees resolving to them are not
    /// materialised, and their proven returns are pre-seeded so callers
    /// wake up exactly as if the callee had been explored this run.
    fn run_engine(&self, roots: &[u64], cached: BTreeMap<u64, FnLift>) -> LiftResult {
        let start = Instant::now();
        let mut result = LiftResult::default();
        if let Some(reject) = concurrency_reject(self.binary) {
            result.binary_reject = Some(reject);
            result.elapsed = start.elapsed();
            return result;
        }

        let layout =
            Arc::new(Layout { text: self.binary.text_ranges(), data: self.binary.data_ranges() });
        let meter = BudgetMeter::start_with_deadline(&self.config.budget, self.deadline);
        let workers = self.resolved_workers();

        let mut slots: BTreeMap<u64, FnExploration> = roots
            .iter()
            .filter(|a| !cached.contains_key(a))
            .map(|&a| (a, FnExploration::new(a)))
            .collect();
        let mut returns_propagated: Vec<u64> =
            cached.values().filter(|f| f.graph.returns()).map(|f| f.entry).collect();

        loop {
            if let Some(ex) = meter.check_global() {
                for s in slots.values_mut() {
                    if !s.bag.is_empty() {
                        s.mark_frontier(ex);
                    }
                }
                result.binary_reject = Some(RejectReason::Timeout);
                break;
            }
            let runnable: Vec<u64> = slots
                .iter()
                .filter(|(_, s)| {
                    !s.bag.is_empty() && s.rejected.is_none() && s.internal_error.is_none()
                })
                .map(|(a, _)| *a)
                .collect();
            if !runnable.is_empty() {
                self.metrics.count_round();
                self.run_round(&mut slots, &runnable, &layout, &meter, workers);
                continue;
            }

            // Quiescent: sequential coordination, in sorted order.
            // 1. Materialise explorations for newly discovered callees.
            let mut new_callees = Vec::new();
            for s in slots.values() {
                for c in s.pending_callees() {
                    if !slots.contains_key(&c) && !cached.contains_key(&c) {
                        new_callees.push(c);
                    }
                }
            }
            if !new_callees.is_empty() {
                for c in new_callees {
                    slots.entry(c).or_insert_with(|| FnExploration::new(c));
                }
                continue;
            }
            // 2. Activate pendings created after their callee's return
            //    was first propagated.
            let mut activated = false;
            for callee in returns_propagated.clone() {
                for s in slots.values_mut() {
                    let before = s.bag.len();
                    s.activate_returns_from(callee);
                    activated |= s.bag.len() != before;
                }
            }
            if activated {
                continue;
            }
            // 3. Propagate newly proven returns.
            let newly: Vec<u64> = slots
                .iter()
                .filter(|(a, s)| s.graph.returns() && !returns_propagated.contains(a))
                .map(|(a, _)| *a)
                .collect();
            if newly.is_empty() {
                break; // fixpoint
            }
            for callee in newly {
                returns_propagated.push(callee);
                for s in slots.values_mut() {
                    s.activate_returns_from(callee);
                }
            }
        }

        self.metrics.time(Phase::Export, || {
            assemble(slots, cached, &mut result);
        });
        result.elapsed = start.elapsed();
        result
    }

    /// Runs every function in `runnable` to quiescence on
    /// [`parallel_map`]'s worker pool, with per-function panic
    /// isolation.
    fn run_round(
        &self,
        slots: &mut BTreeMap<u64, FnExploration>,
        runnable: &[u64],
        layout: &Arc<Layout>,
        meter: &BudgetMeter,
        workers: usize,
    ) {
        let cx = ExploreCx {
            binary: self.binary,
            layout,
            indirect_hints: &self.config.indirect_hints,
            limits: &self.config.limits,
            budget: &self.config.budget,
            meter,
            cache: &self.cache,
            metrics: &self.metrics,
        };
        let items: Vec<(u64, FnExploration)> = runnable
            .iter()
            .map(|&a| (a, slots.remove(&a).expect("runnable slot exists")))
            .collect();
        let ran = parallel_map(workers, items, |(a, mut s)| {
            if let Err(payload) = catch_unwind(AssertUnwindSafe(|| s.run(&cx))) {
                s.bag.clear();
                s.pending.clear();
                s.internal_error = Some(panic_message(payload));
            }
            (a, s)
        });
        slots.extend(ran);
    }

    /// Lift the function at `entry`, then run the analyze→re-lift
    /// refinement fixpoint: ask `resolver` for target sets of any
    /// indirect jumps the lift left unresolved *and* for a re-proof of
    /// every already-hinted jump on the current (grown) graph, update
    /// the configuration's hint set, and re-lift — until a round
    /// changes nothing or `max_rounds` lifts have run.
    ///
    /// A re-validated bound that grew merges into the hint; a hinted
    /// jump the resolver can no longer bound is *demoted*: its hint is
    /// withdrawn, the address is poisoned against re-admission (so an
    /// under-approximate claim cannot oscillate back in), and the next
    /// round reports the jump unresolved again. Hints and the lifter
    /// configuration are only committed when a re-lift actually runs,
    /// so [`RefinedLift::hints`](crate::refine::RefinedLift::hints) is
    /// always the set the returned result was lifted under — even on a
    /// round-bound trip. Returns the final lift and the refinement
    /// outcome.
    ///
    /// Each round is an ordinary [`Lifter::lift_entry`]: it shares
    /// this session's deadline, budget and solver cache, and because
    /// the hint set is part of the configuration fingerprint every
    /// round binds its own cache scope (no stale solver or store
    /// entries can leak between rounds). The final hint set stays in
    /// [`Lifter::config`], so a subsequent `lift_entry` reproduces the
    /// refined result.
    pub fn lift_entry_refined(
        &mut self,
        entry: u64,
        resolver: &dyn crate::refine::IndirectResolver,
        max_rounds: usize,
    ) -> (LiftResult, crate::refine::RefinedLift) {
        self.refine_fixpoint(resolver, max_rounds, |l| l.lift_entry(entry), |r| r)
    }

    /// [`Lifter::lift_all`] under the same refinement fixpoint as
    /// [`Lifter::lift_entry_refined`]: resolve over *all* lifted
    /// functions, update hints, re-lift the binary. Returns the final
    /// report plus the refinement outcome.
    pub fn lift_all_refined(
        &mut self,
        resolver: &dyn crate::refine::IndirectResolver,
        max_rounds: usize,
    ) -> (BinaryLiftReport, crate::refine::RefinedLift) {
        self.refine_fixpoint(resolver, max_rounds, Lifter::lift_all, |r| &r.result)
    }

    /// The refinement fixpoint behind [`Lifter::lift_entry_refined`]
    /// and [`Lifter::lift_all_refined`], repeating `lift` (whose
    /// [`LiftResult`] `result_of` exposes) until [`Lifter::refine_step`]
    /// finds nothing to change or `max_rounds` lifts have run. Returns
    /// the last lift and the fixpoint outcome.
    fn refine_fixpoint<T>(
        &mut self,
        resolver: &dyn crate::refine::IndirectResolver,
        max_rounds: usize,
        lift: impl Fn(&Lifter<'b>) -> T,
        result_of: impl Fn(&T) -> &LiftResult,
    ) -> (T, crate::refine::RefinedLift) {
        let mut hints = self.config.indirect_hints.clone();
        let mut last = lift(self);
        let mut rounds = 1usize;
        let mut converged = false;
        let mut poisoned = BTreeSet::new();
        loop {
            let result = result_of(&last);
            match Lifter::refine_step(self.binary, resolver, result, &hints, &mut poisoned) {
                None => {
                    converged = true;
                    break;
                }
                Some(next) => {
                    if rounds >= max_rounds {
                        // `next` stays uncommitted: `last` was lifted
                        // under `hints`, and that is what we report
                        // (and leave in the config).
                        break;
                    }
                    hints = next;
                    self.config.indirect_hints = hints.clone();
                    last = lift(self);
                    rounds += 1;
                }
            }
        }
        let refined = crate::refine::RefinedLift { rounds, converged, hints, demoted: poisoned };
        (last, refined)
    }

    /// One resolve pass of the refinement fixpoint: re-validate the
    /// current `hints` against `result` and collect new proposals.
    /// Returns the updated hint set when anything changed — a bound
    /// grew or a hint was demoted — or `None` at a fixpoint. Demoted
    /// addresses accumulate in `poisoned` and are never re-admitted,
    /// so a propose→demote cycle cannot oscillate: every non-fixpoint
    /// round strictly grows the hint set or the poison set, both of
    /// which are bounded by the binary.
    fn refine_step(
        binary: &Binary,
        resolver: &dyn crate::refine::IndirectResolver,
        result: &LiftResult,
        hints: &BTreeMap<u64, BTreeSet<u64>>,
        poisoned: &mut BTreeSet<u64>,
    ) -> Option<BTreeMap<u64, BTreeSet<u64>>> {
        let res = resolver.resolve(binary, result, hints);
        let mut next = hints.clone();
        let mut changed = false;
        for addr in &res.demoted {
            changed |= next.remove(addr).is_some();
            poisoned.insert(*addr);
        }
        let mut proposed = res.resolved;
        proposed.retain(|a, _| !poisoned.contains(a));
        changed |= crate::refine::merge_hints(&mut next, proposed);
        changed.then_some(next)
    }
}

/// The result of [`Lifter::lift_all`]: the per-function lift results
/// plus the session metrics of the run that produced them.
#[derive(Debug)]
pub struct BinaryLiftReport {
    /// Discovered root entries (ELF entry point + in-text function
    /// symbols), sorted. Call targets found transitively appear in
    /// `result.functions` but not here.
    pub roots: Vec<u64>,
    /// Per-function results, identical in shape to
    /// [`Lifter::lift_entry`]'s.
    pub result: LiftResult,
    /// Frozen metrics for this run: per-phase timings, gauges, solver
    /// cache counters, worker count and wall time.
    pub metrics: MetricsSnapshot,
}

impl BinaryLiftReport {
    /// True if every function lifted and no binary-level rejection
    /// occurred.
    pub fn is_lifted(&self) -> bool {
        self.result.is_lifted()
    }
}

/// Applies `f` to every item on a pool of `workers` threads, returning
/// results in input order. `workers == 0` means automatic; panics in
/// `f` propagate after the scope joins. The engine's rounds and the
/// corpus campaigns run on this; the daemon (`hgl-serve`) spawns its
/// own acceptor, worker, watchdog and per-connection threads.
pub fn parallel_map<T, R, F>(workers: usize, items: Vec<T>, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    let pool = if workers == 0 { default_workers() } else { workers };
    let pool = pool.min(items.len());
    if pool <= 1 {
        return items.into_iter().map(f).collect();
    }
    let n = items.len();
    let cells: Vec<Mutex<Option<T>>> = items.into_iter().map(|t| Mutex::new(Some(t))).collect();
    let out: Vec<Mutex<Option<R>>> = (0..n).map(|_| Mutex::new(None)).collect();
    let cursor = std::sync::atomic::AtomicUsize::new(0);
    std::thread::scope(|scope| {
        for _ in 0..pool {
            let cells = &cells;
            let out = &out;
            let cursor = &cursor;
            let f = &f;
            scope.spawn(move || loop {
                let i = cursor.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                let item = cells[i].lock().expect("item lock").take().expect("item present");
                let r = f(item);
                *out[i].lock().expect("result lock") = Some(r);
            });
        }
    });
    out.into_iter()
        .map(|m| m.into_inner().expect("result lock").expect("result present"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use hgl_asm::Asm;
    use hgl_x86::{Instr, MemOperand, Mnemonic, Operand, Reg, Width};

    fn leaf_binary() -> Binary {
        let mut asm = Asm::new();
        asm.label("main");
        asm.ins(Instr::new(
            Mnemonic::Xor,
            vec![Operand::reg(Reg::Rax, Width::B4), Operand::reg(Reg::Rax, Width::B4)],
            Width::B4,
        ));
        asm.ret();
        asm.entry("main").assemble().expect("assemble")
    }

    /// A function with stack traffic, so lifting it issues solver
    /// queries (region relations for the spill slots).
    fn spill_binary() -> Binary {
        let mut asm = Asm::new();
        asm.label("main");
        for slot in [-8i64, -16, -24] {
            asm.ins(Instr::new(
                Mnemonic::Mov,
                vec![
                    Operand::Mem(MemOperand::base_disp(Reg::Rsp, slot, Width::B8)),
                    Operand::reg64(Reg::Rax),
                ],
                Width::B8,
            ));
        }
        asm.ins(Instr::new(
            Mnemonic::Mov,
            vec![
                Operand::reg64(Reg::Rcx),
                Operand::Mem(MemOperand::base_disp(Reg::Rsp, -16, Width::B8)),
            ],
            Width::B8,
        ));
        asm.ret();
        asm.entry("main").assemble().expect("assemble")
    }

    #[test]
    fn lift_all_smoke() {
        let bin = leaf_binary();
        let report = Lifter::new(&bin).lift_all();
        assert!(report.is_lifted());
        assert_eq!(report.roots, vec![bin.entry]);
        assert_eq!(report.result.functions.len(), 1);
        assert!(report.metrics.phase(crate::metrics::Phase::Tau).count > 0);
    }

    #[test]
    fn lift_entry_deterministic_across_sessions() {
        let bin = leaf_binary();
        let a = Lifter::new(&bin).lift_entry(bin.entry);
        let b = Lifter::new(&bin).with_config(LiftConfig::default()).lift_entry(bin.entry);
        assert_eq!(format!("{:?}", a.functions), format!("{:?}", b.functions));
    }

    #[test]
    fn shared_cache_stays_warm_across_sessions_on_same_binary() {
        let bin = spill_binary();
        let cache = Arc::new(QueryCache::new());
        let first = Lifter::new(&bin).with_cache(cache.clone());
        first.lift_all();
        assert!(cache.stats().misses > 0, "stack traffic should query the solver");
        let second = Lifter::new(&bin).with_cache(cache.clone());
        second.lift_all();
        assert!(cache.stats().hits > 0, "second session must replay the shared cache");
    }

    #[test]
    fn cache_scope_depends_on_layout_and_config() {
        let a = spill_binary();
        let b = leaf_binary();
        let fp = Fingerprint::of(&LiftConfig::default());
        assert_ne!(cache_scope(&fp, &a), cache_scope(&fp, &b), "layout must change the scope");
        let mut config = LiftConfig::default();
        config.budget.max_fuel = Some(7);
        let fp2 = Fingerprint::of(&config);
        assert_ne!(cache_scope(&fp, &a), cache_scope(&fp2, &a), "config must change the scope");
    }

    #[test]
    fn shared_cache_flushes_when_binary_layout_changes() {
        let bin = spill_binary();
        let cache = Arc::new(QueryCache::new());
        Lifter::new(&bin).with_cache(cache.clone()).lift_all();
        let entries_warm = cache.stats().entries;
        assert!(entries_warm > 0);
        // A different layout re-binds the scope, flushing every
        // resident verdict before the new binary's queries land.
        let other = leaf_binary();
        Lifter::new(&other).with_cache(cache.clone()).lift_all();
        let fp = Fingerprint::of(&LiftConfig::default());
        assert_eq!(cache.fingerprint(), cache_scope(&fp, &other));
    }

    #[test]
    fn deadline_in_the_past_degrades_to_partial() {
        let bin = spill_binary();
        let report =
            Lifter::new(&bin).with_deadline(Instant::now() - Duration::from_secs(1)).lift_all();
        assert!(matches!(
            report.result.binary_reject,
            Some(crate::lift::RejectReason::Timeout)
        ));
    }

    #[test]
    fn session_metrics_accumulate_across_lifts() {
        let bin = spill_binary();
        let lifter = Lifter::new(&bin);
        lifter.lift_entry(bin.entry);
        lifter.lift_entry(bin.entry);
        let snap = lifter.metrics_snapshot();
        assert_eq!(snap.functions_lifted, 2);
        assert!(snap.cache.misses > 0, "stack traffic should query the solver");
        assert!(snap.cache.hits > 0, "second lift should hit the session cache");
    }

    #[test]
    fn parallel_map_preserves_order() {
        let items: Vec<u64> = (0..100).collect();
        let doubled = parallel_map(4, items, |x| x * 2);
        assert_eq!(doubled, (0..100).map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn parallel_map_zero_workers_is_auto() {
        let out = parallel_map(0, vec![1, 2, 3], |x| x + 1);
        assert_eq!(out, vec![2, 3, 4]);
    }
}
