//! The Table-1 study: a synthetic corpus mirroring the Xen 4.12 case
//! study's structure — directories of binaries and shared-object
//! functions with the paper's mix of outcomes.
//!
//! Sizes are scaled down (the paper lifts 399 771 instructions in ~18
//! hours; this corpus lifts tens of thousands in minutes) but the
//! *composition* of each directory row — how many units lift, how many
//! are rejected for unprovable return addresses, concurrency or
//! timeout, and the ratio of resolved/unresolved indirections — follows
//! Table 1.

use crate::gen::{GenOptions, ProgramGen};
use hgl_core::lift::{panic_message, LiftConfig, LiftResult, RejectReason};
use hgl_core::Lifter;
use hgl_elf::Binary;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

/// Whether a unit is a whole binary (lifted from its entry point) or a
/// shared-object function (lifted from its exported symbol).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum UnitKind {
    /// A whole binary.
    Binary,
    /// One exported library function.
    LibraryFunction,
}

/// The outcome a unit was *constructed* to have.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExpectedOutcome {
    /// Lifts to a Hoare Graph.
    Lifted,
    /// Rejected: unprovable return address / calling convention.
    UnprovableReturn,
    /// Rejected: uses threading primitives.
    Concurrency,
    /// Rejected: exhausts the time/state budget.
    Timeout,
}

/// One corpus unit.
pub struct CorpusUnit {
    /// Table-1 directory this unit belongs to.
    pub directory: String,
    /// Unit name.
    pub name: String,
    /// Binary or library function.
    pub kind: UnitKind,
    /// The synthesized binary.
    pub binary: Binary,
    /// Lift entry point.
    pub entry: u64,
    /// Constructed outcome.
    pub expected: ExpectedOutcome,
}

/// One row of the study specification.
#[derive(Debug, Clone)]
pub struct RowSpec {
    /// Directory name (as printed in Table 1).
    pub directory: String,
    /// Binary or library row.
    pub kind: UnitKind,
    /// Units that should lift.
    pub lifted: usize,
    /// Units with unprovable return addresses.
    pub unprovable: usize,
    /// Units rejected for concurrency.
    pub concurrency: usize,
    /// Units that time out.
    pub timeout: usize,
}

/// The whole study specification.
#[derive(Debug, Clone)]
pub struct StudySpec {
    /// Rows, in Table-1 order.
    pub rows: Vec<RowSpec>,
}

impl StudySpec {
    /// The default specification: Table 1's rows with library-function
    /// counts scaled by ~1/10.
    pub fn table1() -> StudySpec {
        let row = |directory: &str, kind, lifted, unprovable, concurrency, timeout| RowSpec {
            directory: directory.to_string(),
            kind,
            lifted,
            unprovable,
            concurrency,
            timeout,
        };
        StudySpec {
            rows: vec![
                row(".../bin", UnitKind::Binary, 12, 2, 1, 0),
                row(".../xen/bin", UnitKind::Binary, 7, 1, 8, 1),
                row(".../libexec", UnitKind::Binary, 1, 0, 0, 0),
                row(".../sbin", UnitKind::Binary, 25, 1, 4, 0),
                row(".../lib", UnitKind::LibraryFunction, 186, 3, 0, 1),
                row(".../xenfsimage", UnitKind::LibraryFunction, 10, 1, 0, 0),
                row(".../dist-packages", UnitKind::LibraryFunction, 16, 0, 0, 0),
                row(".../lowlevel", UnitKind::LibraryFunction, 12, 0, 0, 0),
            ],
        }
    }

    /// A miniature spec for fast tests.
    pub fn mini() -> StudySpec {
        StudySpec {
            rows: vec![
                RowSpec {
                    directory: ".../bin".to_string(),
                    kind: UnitKind::Binary,
                    lifted: 2,
                    unprovable: 1,
                    concurrency: 1,
                    timeout: 0,
                },
                RowSpec {
                    directory: ".../lib".to_string(),
                    kind: UnitKind::LibraryFunction,
                    lifted: 4,
                    unprovable: 1,
                    concurrency: 0,
                    timeout: 1,
                },
            ],
        }
    }
}

/// The generated corpus.
pub struct XenStudy {
    /// All units, grouped by directory order of the spec.
    pub units: Vec<CorpusUnit>,
}

/// Build one liftable multi-function binary from a seed: the corpus
/// generator behind the `Lifted` rows, exposed for harnesses (the
/// engine determinism test, the bench driver) that need realistic
/// whole binaries with several exported functions.
pub fn gen_study_binary(seed: u64, is_library: bool) -> Binary {
    let mut rng = SmallRng::seed_from_u64(seed);
    gen_lifted_binary(&mut rng, is_library)
}

/// Build one liftable multi-function binary.
fn gen_lifted_binary(rng: &mut SmallRng, is_library: bool) -> Binary {
    let mut pg = ProgramGen::new();
    let n_fns = if is_library { rng.gen_range(1..4usize) } else { rng.gen_range(4..9usize) };
    // Acyclic call graph: function i may call j > i.
    let names: Vec<String> = (0..n_fns).map(|i| format!("fn_{i}")).collect();
    for i in 0..n_fns {
        let callees: Vec<String> = names[i + 1..].to_vec();
        // Three body profiles so per-instruction cost varies widely —
        // the paper's Figure 3 shows size and verification time are
        // only weakly correlated because join/fork behaviour dominates.
        let profile = rng.gen_range(0..10u32);
        let opts = if is_library && profile < 2 {
            // Small but fork-heavy: several writes through distinct
            // caller pointers multiply memory models.
            GenOptions {
                segments: rng.gen_range(3..6),
                callees,
                p_jump_table: 0.05,
                p_callback: 0.04,
                p_param_write: 0.55,
                ..GenOptions::default()
            }
        } else if is_library && profile < 4 {
            // Large but structurally simple: straight-line arithmetic.
            GenOptions {
                segments: rng.gen_range(16..40),
                callees,
                p_jump_table: 0.02,
                p_callback: 0.01,
                p_param_write: 0.0,
                ..GenOptions::default()
            }
        } else {
            GenOptions {
                segments: rng.gen_range(3..10),
                callees,
                p_jump_table: if is_library { 0.10 } else { 0.05 },
                p_callback: if is_library { 0.06 } else { 0.02 },
                p_param_write: if is_library { 0.12 } else { 0.06 },
                ..GenOptions::default()
            }
        };
        pg.gen_function(&names[i], rng, &opts);
    }
    pg.asm.entry("fn_0");
    pg.asm.export("fn_0", "entry_fn");
    pg.asm.assemble().expect("generated binary assembles")
}

fn gen_unprovable_binary(rng: &mut SmallRng) -> Binary {
    let mut pg = ProgramGen::new();
    let opts = GenOptions { segments: rng.gen_range(2..5), ..GenOptions::default() };
    // A normal prologue function that calls the vulnerable one.
    pg.gen_function("helper", rng, &opts);
    pg.gen_overflow_function("vuln");
    let mut asm = std::mem::take(&mut pg.asm);
    asm.label("main");
    asm.call("vuln");
    asm.ret();
    asm.entry("main");
    asm.assemble().expect("assembles")
}

fn gen_concurrency_binary(rng: &mut SmallRng) -> Binary {
    let mut pg = ProgramGen::new();
    let opts = GenOptions {
        segments: rng.gen_range(2..6),
        externals: vec!["pthread_create".into(), "pthread_join".into(), "puts".into()],
        ..GenOptions::default()
    };
    pg.gen_function("main", rng, &opts);
    // Guarantee the pthread marker is present even if the generator
    // rolled no external calls.
    pg.asm.label("spawn_helper");
    pg.asm.call_ext("pthread_create");
    pg.asm.ret();
    pg.asm.entry("main");
    pg.asm.assemble().expect("assembles")
}

fn gen_timeout_binary(rng: &mut SmallRng) -> Binary {
    let mut pg = ProgramGen::new();
    pg.gen_explosive_function("main", 14 + rng.gen_range(0..4usize));
    pg.asm.entry("main");
    pg.asm.assemble().expect("assembles")
}

/// Generate the corpus for a spec.
pub fn build_study(spec: &StudySpec, seed: u64) -> XenStudy {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut units = Vec::new();
    for row in &spec.rows {
        let is_library = row.kind == UnitKind::LibraryFunction;
        let mut push = |expected, idx: usize, binary: Binary, rng: &mut SmallRng| {
            let _ = rng;
            let entry = match row.kind {
                UnitKind::Binary => binary.entry,
                UnitKind::LibraryFunction => binary
                    .symbols
                    .iter()
                    .find(|(_, n)| *n == "entry_fn")
                    .map(|(a, _)| *a)
                    .unwrap_or(binary.entry),
            };
            units.push(CorpusUnit {
                directory: row.directory.clone(),
                name: format!("{}_{idx}", row.directory.rsplit('/').next().unwrap_or("unit")),
                kind: row.kind,
                binary,
                entry,
                expected,
            });
        };
        for i in 0..row.lifted {
            let b = gen_lifted_binary(&mut rng, is_library);
            push(ExpectedOutcome::Lifted, i, b, &mut rng);
        }
        for i in 0..row.unprovable {
            let b = gen_unprovable_binary(&mut rng);
            push(ExpectedOutcome::UnprovableReturn, row.lifted + i, b, &mut rng);
        }
        for i in 0..row.concurrency {
            let b = gen_concurrency_binary(&mut rng);
            push(ExpectedOutcome::Concurrency, row.lifted + row.unprovable + i, b, &mut rng);
        }
        for i in 0..row.timeout {
            let b = gen_timeout_binary(&mut rng);
            push(
                ExpectedOutcome::Timeout,
                row.lifted + row.unprovable + row.concurrency + i,
                b,
                &mut rng,
            );
        }
    }
    XenStudy { units }
}

/// Category under which a lift result is tallied.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    /// Lifted.
    Lifted,
    /// Unprovable return address (or other sound reject).
    Unprovable,
    /// Concurrency rejection.
    Concurrency,
    /// Timed out / exhausted budgets.
    Timeout,
    /// The pipeline panicked on this unit; the fault was isolated and
    /// the rest of the study completed.
    Internal,
}

/// Classify a [`LiftResult`] for the study tally.
pub fn classify(result: &LiftResult) -> Outcome {
    classify_reject(result.reject_reason().as_ref())
}

/// Classify a reject verdict (`None` means the unit lifted).
pub fn classify_reject(reject: Option<&RejectReason>) -> Outcome {
    match reject {
        None => Outcome::Lifted,
        Some(RejectReason::Concurrency) => Outcome::Concurrency,
        // Resource exhaustion in any dimension is the paper's timeout
        // category: the unit *might* lift with a larger budget.
        Some(RejectReason::Timeout) | Some(RejectReason::StateBudget { .. }) => Outcome::Timeout,
        Some(RejectReason::Internal { .. }) => Outcome::Internal,
        // Sound rejects: verification failures, undecodable reachable
        // bytes, malformed inputs, poisoned callees.
        Some(RejectReason::Verification(_))
        | Some(RejectReason::DecodeError { .. })
        | Some(RejectReason::MalformedBinary { .. })
        | Some(RejectReason::CalleeRejected(_)) => Outcome::Unprovable,
    }
}

/// Per-unit study measurement.
pub struct UnitResult {
    /// The unit's directory.
    pub directory: String,
    /// Unit name.
    pub name: String,
    /// Outcome category.
    pub outcome: Outcome,
    /// Constructed expectation.
    pub expected: ExpectedOutcome,
    /// Instructions lifted.
    pub instructions: usize,
    /// Symbolic states.
    pub states: usize,
    /// (resolved, unresolved jumps, unresolved calls).
    pub indirections: (usize, usize, usize),
    /// Wall-clock lift time.
    pub time: Duration,
    /// The structured reject verdict, if the unit did not lift.
    pub reject: Option<RejectReason>,
}

/// Lift one corpus unit with the mode matching its kind: a one-shot
/// [`Lifter`] session from the binary's entry point or the exported
/// symbol.
pub fn lift_unit(u: &CorpusUnit, config: &LiftConfig) -> LiftResult {
    let lifter = Lifter::new(&u.binary).with_config(config.clone());
    match u.kind {
        UnitKind::Binary => lifter.lift_entry(u.binary.entry),
        UnitKind::LibraryFunction => lifter.lift_entry(u.entry),
    }
}

/// Tally one unit's lift result.
fn measure(u: &CorpusUnit, result: &LiftResult, time: Duration) -> UnitResult {
    UnitResult {
        directory: u.directory.clone(),
        name: u.name.clone(),
        outcome: classify(result),
        expected: u.expected,
        instructions: result.instruction_count(),
        states: result.state_count(),
        indirections: result.indirection_counts(),
        time,
        reject: result.reject_reason(),
    }
}

/// A `UnitResult` recording an isolated pipeline fault.
fn internal_result(u: &CorpusUnit, message: String, time: Duration) -> UnitResult {
    UnitResult {
        directory: u.directory.clone(),
        name: u.name.clone(),
        outcome: Outcome::Internal,
        expected: u.expected,
        instructions: 0,
        states: 0,
        indirections: (0, 0, 0),
        time,
        reject: Some(RejectReason::Internal { stage: "worker", message }),
    }
}

/// Run the lifter over every unit of a study, one after another. A
/// panic while processing one unit is isolated into an
/// `Outcome::Internal` tally for that unit.
pub fn run_study(study: &XenStudy, config: &LiftConfig) -> Vec<UnitResult> {
    run_study_parallel_with(study, config, 1, lift_unit)
}

/// Run the lifter over every unit of a study, in parallel across
/// worker threads (the per-unit lifts are independent, mirroring the
/// paper's exploitation of Isabelle's parallel proof checking).
///
/// Fault tolerance: a panic while lifting or tallying one unit — in
/// `lift_fn` or anywhere else inside the per-unit closure — degrades
/// *that unit* to `Outcome::Internal` with a structured
/// `RejectReason::Internal`; every other unit still completes and the
/// study returns a result for all units.
pub fn run_study_parallel(study: &XenStudy, config: &LiftConfig, workers: usize) -> Vec<UnitResult> {
    run_study_parallel_with(study, config, workers, lift_unit)
}

/// [`run_study_parallel`] with a custom per-unit lift function. The
/// fault-injection harness uses this to drive poisoned lift pipelines
/// through the production study driver.
///
/// The worker pool is the engine's
/// [`parallel_map`](hgl_core::parallel_map), so the corpus campaign
/// and the whole-binary engine share one spawning path.
pub fn run_study_parallel_with<F>(
    study: &XenStudy,
    config: &LiftConfig,
    workers: usize,
    lift_fn: F,
) -> Vec<UnitResult>
where
    F: Fn(&CorpusUnit, &LiftConfig) -> LiftResult + Sync,
{
    hgl_core::parallel_map(workers.max(1), study.units.iter().collect(), |u| {
        let start = Instant::now();
        match catch_unwind(AssertUnwindSafe(|| {
            let result = lift_fn(u, config);
            measure(u, &result, start.elapsed())
        })) {
            Ok(r) => r,
            Err(payload) => internal_result(u, panic_message(payload), start.elapsed()),
        }
    })
}

/// A fast configuration for corpus studies: modest wall-clock and state
/// budgets so rejected units fail quickly.
pub fn study_config() -> LiftConfig {
    let mut c = LiftConfig::default();
    c.budget.wall_clock = Some(Duration::from_secs(10));
    c.limits.max_states = 4000;
    c
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mini_study_outcomes_match_expectations() {
        let study = build_study(&StudySpec::mini(), 42);
        assert_eq!(study.units.len(), 10);
        let results = run_study(&study, &study_config());
        for r in &results {
            let ok = match r.expected {
                ExpectedOutcome::Lifted => r.outcome == Outcome::Lifted,
                ExpectedOutcome::UnprovableReturn => r.outcome == Outcome::Unprovable,
                ExpectedOutcome::Concurrency => r.outcome == Outcome::Concurrency,
                ExpectedOutcome::Timeout => r.outcome == Outcome::Timeout,
            };
            assert!(ok, "{} ({:?}): expected {:?}, got {:?}", r.name, r.directory, r.expected, r.outcome);
        }
        // States stay close to instruction counts for lifted units (§2).
        for r in results.iter().filter(|r| r.outcome == Outcome::Lifted) {
            assert!(r.instructions > 0);
            assert!(
                r.states <= r.instructions * 3,
                "{}: states {} vs instrs {}",
                r.name,
                r.states,
                r.instructions
            );
        }
    }

    #[test]
    fn study_is_deterministic() {
        let a = build_study(&StudySpec::mini(), 7);
        let b = build_study(&StudySpec::mini(), 7);
        for (ua, ub) in a.units.iter().zip(&b.units) {
            assert_eq!(ua.binary, ub.binary, "same seed, same corpus");
        }
        let c = build_study(&StudySpec::mini(), 8);
        assert!(
            a.units.iter().zip(&c.units).any(|(x, y)| x.binary != y.binary),
            "different seeds differ"
        );
    }
}
