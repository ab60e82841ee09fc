//! `study_cold`: the Table-1 study corpus lifted cold, one unit after
//! another, with no shared cache and no store. Binary units go through
//! the parallel engine (`lift_all`), library units through the
//! single-entry driver (`lift_entry`). A unit fails its check when its
//! verdict differs from the outcome it was constructed to have, or when
//! the pipeline reports an internal fault.

use crate::report::{digest, PassReport};
use crate::trace::span;
use crate::PassOpts;
use hgl_core::{Lifter, MetricsSnapshot, Phase};
use hgl_corpus::inject::elf_image;
use hgl_corpus::xen::{build_study, classify, study_config, Outcome};
use hgl_corpus::{ExpectedOutcome, StudySpec, UnitKind};
use std::time::Instant;

/// Does `outcome` match what the unit was constructed to do?
fn as_expected(expected: ExpectedOutcome, outcome: Outcome) -> bool {
    matches!(
        (expected, outcome),
        (ExpectedOutcome::Lifted, Outcome::Lifted)
            | (ExpectedOutcome::UnprovableReturn, Outcome::Unprovable)
            | (ExpectedOutcome::Concurrency, Outcome::Concurrency)
            | (ExpectedOutcome::Timeout, Outcome::Timeout)
    )
}

/// Folds one lift's metrics snapshot into the pass's layer metrics.
pub fn add_snapshot(r: &mut PassReport, m: &MetricsSnapshot) {
    for (phase, name) in [
        (Phase::Decode, "core.phase.decode_ms"),
        (Phase::Tau, "core.phase.tau_ms"),
        (Phase::Join, "core.phase.join_ms"),
        (Phase::Solver, "core.phase.solver_ms"),
    ] {
        r.add(name, m.phase(phase).nanos as f64 / 1e6);
    }
    r.add("core.states", m.states as f64);
    r.add("core.instructions", m.instructions as f64);
    r.add("core.rounds", m.rounds as f64);
    r.add("solver.hits", m.cache.hits as f64);
    r.add("solver.misses", m.cache.misses as f64);
    r.add("solver.query_ms", m.cache.query_nanos as f64 / 1e6);
}

pub fn pass(o: &PassOpts) -> PassReport {
    let mut r = PassReport::default();
    let started = Instant::now();
    let study = span("corpus.build_study", 0, || {
        build_study(&StudySpec::table1(), o.seed)
    });
    r.setup_s = started.elapsed().as_secs_f64();
    let images: Vec<Vec<u8>> = study
        .units
        .iter()
        .map(|u| {
            let mut img = elf_image(&u.binary);
            img.extend_from_slice(&u.entry.to_le_bytes());
            img
        })
        .collect();
    r.digest = digest(images.iter().map(Vec::as_slice));

    // The planted case: the first lifted unit is checked against a
    // deliberately wrong expectation.
    let planted = o
        .plant
        .then(|| {
            study
                .units
                .iter()
                .position(|u| u.expected == ExpectedOutcome::Lifted)
        })
        .flatten();
    let config = study_config();
    let mut functions = 0usize;
    let mut tail_s = 0.0;
    let work = Instant::now();
    for (i, u) in study.units.iter().enumerate() {
        let id = i as u64;
        let t = Instant::now();
        let (result, metrics) = match u.kind {
            UnitKind::Binary => span("core.lift_all", id, || {
                let report = Lifter::new(&u.binary)
                    .with_config(config.clone())
                    .workers(o.workers)
                    .lift_all();
                (report.result, report.metrics)
            }),
            UnitKind::LibraryFunction => span("core.lift_entry", id, || {
                let lifter = Lifter::new(&u.binary).with_config(config.clone());
                let result = lifter.lift_entry(u.entry);
                (result, lifter.metrics_snapshot())
            }),
        };
        let took = t.elapsed().as_secs_f64();
        r.ops_ms.push(took * 1e3);
        let outcome = span("bench.check", id, || classify(&result));
        let expected = match planted {
            Some(p) if p == i => ExpectedOutcome::Timeout,
            _ => u.expected,
        };
        r.attempted += 1;
        if !as_expected(expected, outcome) {
            r.failed += 1;
            eprintln!(
                "study_cold: unit {} expected {expected:?}, got {outcome:?}",
                u.name
            );
        }
        if outcome == Outcome::Timeout {
            tail_s += took;
        }
        functions += result.functions.len();
        add_snapshot(&mut r, &metrics);
    }
    r.work_s = work.elapsed().as_secs_f64();
    r.rate_num = functions as f64;
    r.rate_den = r.work_s;
    r.add("core.tail_s", tail_s);
    r
}
