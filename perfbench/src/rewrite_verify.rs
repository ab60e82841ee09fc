//! `rewrite_verify`: liftable study binaries plus the corrupted-return
//! fixture through the `hgl rewrite --verify` path: lift, identity and
//! shadow-stack rewrite, ELF emission, re-parse, re-lift
//! correspondence, then seeded differential trace pairs. A binary
//! fails its check when the rewrite is refused, the identity rewrite
//! changes the image size, the re-lift does not correspond, a trace
//! pair diverges, or the fixture comes back without a guard.

use crate::report::{digest, mix, PassReport};
use crate::study::add_snapshot;
use crate::trace::span;
use crate::PassOpts;
use hgl_core::Lifter;
use hgl_corpus::failures::corrupted_return;
use hgl_corpus::inject::elf_image;
use hgl_corpus::xen::gen_study_binary;
use hgl_elf::Binary;
use hgl_oracle::{compare_runs, run_raw, EntryState};
use hgl_rewrite::{rewrite, verify_relift, RewritePass, ShadowStackPass};
use std::time::Instant;

/// Study binaries per pass (the fixture comes on top).
const BINARIES: u64 = 150;
/// Differential trace pairs per binary, as `hgl rewrite --verify` runs.
const TRACE_PAIRS: u64 = 16;
/// Normalised step budget per trace, as `hgl rewrite --verify` uses.
const MAX_STEPS: usize = 20_000;

/// The seeded entry states of the trace pairs.
fn entry_states(seed: u64) -> Vec<EntryState> {
    (0..TRACE_PAIRS)
        .map(|k| EntryState {
            // Small rdi values first (jump-table cases), then large.
            rdi: if k < 3 {
                k
            } else {
                64 + (mix(seed, k) & 0xfff)
            },
            scratch: [
                mix(seed, k ^ 0x100) & 0xffff,
                mix(seed, k ^ 0x200) & 0xffff,
                mix(seed, k ^ 0x300) & 0xffff,
                mix(seed, k ^ 0x400),
                mix(seed, k ^ 0x500) & 0xff,
                mix(seed, k ^ 0x600) & 0xff,
            ],
        })
        .collect()
}

/// What went wrong on one binary, if anything.
fn verify_one(
    r: &mut PassReport,
    bin: &Binary,
    id: u64,
    workers: usize,
    states: &[EntryState],
    guard: bool,
) -> (u64, u64, Option<String>) {
    let report = span("core.lift_all", id, || {
        Lifter::new(bin).workers(workers).lift_all()
    });
    add_snapshot(r, &report.metrics);
    let lift = report.result;
    if !lift.is_lifted() {
        return (
            0,
            0,
            Some(format!("did not lift: {:?}", lift.reject_reason())),
        );
    }
    let identity = match span("rewrite.identity", id, || rewrite(bin, &lift, &[])) {
        Ok(out) => out,
        Err(e) => return (0, 0, Some(format!("identity refused: {e}"))),
    };
    let instrs = identity.stats.instructions_reencoded;
    if identity.stats.bytes_delta != 0 {
        return (
            instrs,
            0,
            Some(format!(
                "identity bytes_delta {}",
                identity.stats.bytes_delta
            )),
        );
    }
    let shadow = if guard {
        let pass = ShadowStackPass;
        let passes: [&dyn RewritePass; 1] = [&pass];
        match span("rewrite.shadow", id, || rewrite(bin, &lift, &passes)) {
            Ok(out) => out,
            Err(e) => return (instrs, 0, Some(format!("shadow-stack refused: {e}"))),
        }
    } else {
        identity.clone()
    };
    let guards = shadow.stats.guards_inserted;
    let image = span("rewrite.emit", id, || {
        hgl_rewrite::elf_image(&identity.binary)
    });
    let reparsed = match span("elf.parse", id, || Binary::parse(&image)) {
        Ok(b) => b,
        Err(e) => {
            return (
                instrs,
                guards,
                Some(format!("emitted ELF does not parse: {e}")),
            )
        }
    };
    let verdict = span("rewrite.verify_relift", id, || {
        verify_relift(&lift, &reparsed)
    });
    if !verdict.ok() {
        return (
            instrs,
            guards,
            Some("re-lift does not correspond".to_string()),
        );
    }
    for (k, es) in states.iter().enumerate() {
        let diverged = span("oracle.trace", id, || {
            let orig = run_raw(bin, es, None, MAX_STEPS);
            let rw = run_raw(&shadow.binary, es, Some(&shadow), MAX_STEPS);
            compare_runs(&orig, &rw, true)
        });
        if let Some(detail) = diverged {
            return (
                instrs,
                guards,
                Some(format!("trace {k} diverges: {detail}")),
            );
        }
    }
    (instrs, guards, None)
}

pub fn pass(o: &PassOpts) -> PassReport {
    let mut r = PassReport::default();
    let started = Instant::now();
    let mut bins: Vec<Binary> = (0..BINARIES)
        .map(|i| {
            span("corpus.gen_study_binary", i, || {
                gen_study_binary(mix(o.seed, i), i % 3 == 2)
            })
        })
        .collect();
    bins.push(span("corpus.corrupted_return", BINARIES, corrupted_return));
    let states = entry_states(o.seed);
    r.setup_s = started.elapsed().as_secs_f64();
    let images: Vec<Vec<u8>> = bins.iter().map(elf_image).collect();
    r.digest = digest(images.iter().map(Vec::as_slice));

    let fixture = bins.len() - 1;
    let (mut instrs, mut verify_s) = (0u64, 0.0);
    let work = Instant::now();
    for (i, bin) in bins.iter().enumerate() {
        // The planted case runs the fixture without the shadow-stack
        // pass, so it comes back unguarded.
        let guard = !(o.plant && i == fixture);
        let t = Instant::now();
        let (n, guards, problem) = verify_one(&mut r, bin, i as u64, o.workers, &states, guard);
        let took = t.elapsed().as_secs_f64();
        verify_s += took;
        r.ops_ms.push(took * 1e3);
        instrs += n;
        r.add("rewrite.guards", guards as f64);
        r.attempted += 1;
        let problem = match problem {
            None if i == fixture && guards == 0 => Some("fixture is unguarded".to_string()),
            p => p,
        };
        if let Some(p) = problem {
            r.failed += 1;
            eprintln!("rewrite_verify: binary {i}: {p}");
        }
    }
    r.work_s = work.elapsed().as_secs_f64();
    r.rate_num = instrs as f64;
    r.rate_den = verify_s;
    r
}
