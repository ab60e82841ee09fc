//! The engine's timing gates, over seeded study binaries:
//!
//! - cold-lift throughput (functions/second, sequential, no cache or
//!   store) at least 2x the pre-interning baseline pinned below — the
//!   acceptance gate of the hot-path rebuild (arena-interned
//!   expressions + table-driven decoder);
//! - the parallel engine no more than 1.5x slower than the sequential
//!   one (a regression gate, not a speedup requirement: small corpora
//!   on loaded runners can legitimately show no parallel win);
//! - a warm-store re-lift at least 2x faster than a cold one on the
//!   full corpus, and no more than 1.5x slower on the quick one.
//!
//! Timings only mean something in release mode, so both tests are
//! ignored by default:
//!
//! ```text
//! cargo test --release -p hgl-bench --test engine_gates -- --ignored --nocapture
//! ```
//!
//! `quick` lifts 6 binaries with 2 reps, `full` 24 with 5. Each test
//! prints every figure before it asserts a gate.

#![forbid(unsafe_code)]

use hgl_core::Lifter;
use hgl_corpus::xen::gen_study_binary;
use hgl_elf::Binary;
use hgl_store::Store;
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// The gates time whole passes, so the two tests never run at once.
static SERIAL: Mutex<()> = Mutex::new(());

struct Mode {
    name: &'static str,
    binaries: u64,
    reps: usize,
    /// Cold-lift throughput (functions/second, sequential pass)
    /// measured immediately before the hot-path rebuild, on the
    /// reference runner.
    baseline_fns_per_sec: f64,
    /// Floor on warm-store speedup over cold. Warm replay is bound by
    /// store reads and artifact decoding, so the full corpus gates at
    /// 2x; the quick corpus only gates against outright regression,
    /// since its tiny binaries leave the fixed per-run costs dominant.
    store_gate: f64,
}

const QUICK: Mode = Mode {
    name: "quick",
    binaries: 6,
    reps: 2,
    baseline_fns_per_sec: 1886.1,
    store_gate: 1.0 / 1.5,
};
const FULL: Mode = Mode {
    name: "full",
    binaries: 24,
    reps: 5,
    baseline_fns_per_sec: 1351.1,
    store_gate: 2.0,
};

/// Required cold-lift throughput, as a multiple of the baseline.
const COLD_GATE: f64 = 2.0;
/// Floor on parallel speedup over sequential.
const PARALLEL_GATE: f64 = 1.0 / 1.5;

fn corpus(n: u64) -> Vec<Binary> {
    (0..n)
        .map(|i| gen_study_binary(0x9e37_79b9_7f4a_7c15 ^ i, i % 3 == 2))
        .collect()
}

/// Minimum wall time of `reps` runs of `f`, after one untimed warm-up
/// run. The minimum is the noise-robust estimator: scheduling
/// interference only ever adds time.
fn measure(reps: usize, mut f: impl FnMut() -> usize) -> (Duration, usize) {
    let mut best = Duration::MAX;
    let mut lifted = f();
    for _ in 0..reps {
        let t0 = Instant::now();
        lifted = f();
        best = best.min(t0.elapsed());
    }
    (best, lifted)
}

/// One full pass over the corpus: every binary through `lift_all`.
/// Returns total functions lifted (a cheap checksum that the runs did
/// equivalent work).
fn run_pass(bins: &[Binary], workers: usize) -> usize {
    bins.iter()
        .map(|b| {
            Lifter::new(b)
                .workers(workers)
                .lift_all()
                .result
                .functions
                .len()
        })
        .sum()
}

/// Cold vs warm persistent store: lift each binary into a fresh store
/// directory (cold, includes the insert cost), then re-lift it through
/// a fresh `Store` *and* a fresh `Lifter` (warm: no session state
/// survives, only the on-disk artifacts). Per binary the fastest cold
/// and fastest warm run out of `reps` are summed.
fn store_pass(mode: &Mode, bins: &[Binary]) -> (Duration, Duration) {
    let root = std::env::temp_dir().join(format!(
        "hgl-engine-gates-{}-{}",
        mode.name,
        std::process::id()
    ));
    let (mut cold, mut warm) = (Duration::ZERO, Duration::ZERO);
    for (i, b) in bins.iter().enumerate() {
        let dir = root.join(format!("bin{i}"));
        let mut best_cold = Duration::MAX;
        let mut best_warm = Duration::MAX;
        for _ in 0..mode.reps {
            let _ = std::fs::remove_dir_all(&dir);
            let store = Store::open(&dir).expect("open bench store");
            let t0 = Instant::now();
            let cold_report = Lifter::new(b).with_store(&store).lift_all();
            best_cold = best_cold.min(t0.elapsed());

            let warm_store = Store::open(&dir).expect("reopen bench store");
            let t1 = Instant::now();
            let warm_report = Lifter::new(b).with_store(&warm_store).lift_all();
            best_warm = best_warm.min(t1.elapsed());
            assert_eq!(
                cold_report.result.functions.len(),
                warm_report.result.functions.len(),
                "warm store pass lifted a different function count"
            );
        }
        cold += best_cold;
        warm += best_warm;
    }
    let _ = std::fs::remove_dir_all(&root);
    (cold, warm)
}

fn run_gates(mode: &Mode) {
    let _serial = SERIAL
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner());
    let bins = corpus(mode.binaries);
    let workers = std::thread::available_parallelism().map_or(1, |n| n.get());
    eprintln!(
        "engine gates ({}): {} binaries, {} rep(s), {workers} worker(s) available",
        mode.name,
        bins.len(),
        mode.reps
    );

    let (seq, seq_fns) = measure(mode.reps, || run_pass(&bins, 1));
    let (par, par_fns) = measure(mode.reps, || run_pass(&bins, workers));
    assert_eq!(
        seq_fns, par_fns,
        "sequential and parallel passes lifted different function counts"
    );
    let speedup = seq.as_secs_f64() / par.as_secs_f64().max(1e-9);
    let cold_fns_per_sec = seq_fns as f64 / seq.as_secs_f64().max(1e-9);
    let baseline = mode.baseline_fns_per_sec;
    let cold_speedup = cold_fns_per_sec / baseline;
    let (store_cold, store_warm) = store_pass(mode, &bins);
    let store_speedup = store_cold.as_secs_f64() / store_warm.as_secs_f64().max(1e-9);

    eprintln!(
        "cold lift: {cold_fns_per_sec:.1} fns/s, {cold_speedup:.2}x of pre-interning baseline \
         {baseline:.1} (gate: {COLD_GATE}x)"
    );
    eprintln!(
        "sequential: {seq:?}  parallel: {par:?}  speedup: {speedup:.2}x (gate: {PARALLEL_GATE:.3}x)"
    );
    eprintln!(
        "store: cold {store_cold:?}  warm {store_warm:?}  speedup: {store_speedup:.2}x \
         (gate: {:.3}x)",
        mode.store_gate
    );

    assert!(
        cold_fns_per_sec >= COLD_GATE * baseline,
        "cold lift {cold_fns_per_sec:.1} fns/s is only {cold_speedup:.2}x of the pre-interning \
         baseline {baseline:.1} (gate: {COLD_GATE}x)"
    );
    assert!(
        speedup >= PARALLEL_GATE,
        "parallel engine {:.2}x slower than sequential (gate: 1.5x)",
        1.0 / speedup
    );
    assert!(
        store_speedup >= mode.store_gate,
        "warm store re-lift only {store_speedup:.2}x faster than cold (gate: {}x)",
        mode.store_gate
    );
}

#[test]
#[ignore = "release-mode timing gate; run with --release -- --ignored"]
fn quick() {
    run_gates(&QUICK);
}

#[test]
#[ignore = "release-mode timing gate; run with --release -- --ignored"]
fn full() {
    run_gates(&FULL);
}
