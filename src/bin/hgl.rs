//! `hgl` — the command-line lifter.
//!
//! ```text
//! hgl lift <binary.elf> [--function ADDR | --all] [--workers N]
//!                       [--timeout SECS] [--json] [--metrics]
//!                       [--refine-indirect]
//!                       [--store DIR] [--store-verify]
//! hgl lint <binary.elf> [--function ADDR] [--json]
//! hgl export <binary.elf> [--out theory.thy]
//! hgl validate <binary.elf> [--samples N]
//! hgl disasm <binary.elf>
//! hgl cfg <binary.elf> [--function ADDR]     # Graphviz DOT
//! hgl serve [--listen ADDR] [--workers N] [--queue N]
//!           [--store DIR] [--max-wall SECS]
//! hgl rewrite --in <binary.elf> --out <binary.elf>
//!             [--pass shadow-stack] [--verify] [--metrics]
//! ```
//!
//! `lift` prints the Hoare Graph summary, annotations, proof
//! obligations and assumptions; `--all` lifts every discovered
//! function on the parallel engine instead of one entry's closure;
//! `--metrics` appends the `hgl-metrics-v1` phase/cache report;
//! `--refine-indirect` runs the analyze→re-lift refinement fixpoint
//! (strided-interval VSA recovers jump-table targets, which feed back
//! into the lift as hints until no new targets appear);
//! `--store DIR` makes `--all` incremental against a persistent
//! content-addressed artifact store rooted at DIR, and
//! `--store-verify` replays every store hit through the executable
//! differential checker before trusting it.
//! `serve` runs the persistent lifting daemon: JSONL requests over
//! TCP multiplexed onto the engine with one warm solver cache and one
//! shared store, admission control, per-request deadlines and crash
//! isolation (see `crates/serve`).
//! `rewrite` re-emits a lifted binary as a runnable ELF: identity
//! recompilation by default (every lifted instruction re-encoded and
//! checked byte-identical), plus opt-in instrumentation passes —
//! `--pass shadow-stack` plants a shadow-stack guard at every return
//! the static lints could not prove safe. `--verify` validates the
//! artifact: re-lift Hoare-Graph correspondence for identity rewrites,
//! and a seeded original-vs-rewritten differential trace run in both
//! modes (see `crates/rewrite`).
//! `lint` runs the static analyses (write classification and
//! soundness lints) and exits non-zero on any error-severity finding;
//! `export` writes the Isabelle/HOL theory; `validate` runs the
//! executable Step-2 check; `disasm` is a plain recursive-traversal
//! disassembly listing of the lifted instructions. The JSON surfaces
//! (`--json`, `--metrics`) share one versioned envelope: a `schema`
//! name and a `version` field.

#![forbid(unsafe_code)]
use hgl_analysis::{analyze, Severity};
use hgl_core::lift::{LiftConfig, LiftResult};
use hgl_core::{Lifter, MetricsSnapshot};
use hgl_elf::Binary;
use hgl_export::{
    export_dot, export_json, export_lint_json, export_metrics_json, export_theory, validate_lift,
    ValidateConfig,
};
use hgl_serve::{ServeConfig, Server};
use hgl_store::{Store, StoreOptions};
use std::process::ExitCode;
use std::time::Duration;

fn usage() -> ExitCode {
    eprintln!("usage: hgl <lift|lint|export|validate|disasm|cfg> <binary.elf> [options]");
    eprintln!("       hgl serve [--listen ADDR] [--workers N] [--queue N] [--store DIR] [--max-wall SECS]");
    eprintln!("       hgl rewrite --in BIN --out BIN [--pass shadow-stack] [--verify] [--metrics]");
    eprintln!("  --function ADDR   lift from a function address (hex ok) instead of the entry point");
    eprintln!("  --all             lift every discovered function (parallel whole-binary engine)");
    eprintln!("  --workers N       worker threads for --all (default: one per core)");
    eprintln!("  --timeout SECS    lifting wall-clock budget (default 60)");
    eprintln!("  --metrics         append the hgl-metrics-v1 JSON report (phases, solver cache)");
    eprintln!("  --refine-indirect analyze->re-lift fixpoint: VSA-recovered jump-table targets");
    eprintln!("                    feed back into the lift until no new targets appear");
    eprintln!("  --store DIR       persistent artifact store for incremental --all re-lifts");
    eprintln!("  --store-verify    replay every store hit through the differential checker");
    eprintln!("  --out FILE        output path for `export`");
    eprintln!("  --samples N       samples per edge for `validate` (default 16)");
    eprintln!("  --pass NAME       rewrite pass (repeatable); available: shadow-stack");
    eprintln!("  --verify          validate the rewritten artifact (re-lift + differential traces)");
    ExitCode::from(2)
}

fn parse_u64(s: &str) -> Option<u64> {
    if let Some(hex) = s.strip_prefix("0x") {
        u64::from_str_radix(hex, 16).ok()
    } else {
        s.parse().ok()
    }
}

fn flag_value(args: &[String], name: &str) -> Option<String> {
    args.iter().position(|a| a == name).and_then(|i| args.get(i + 1)).cloned()
}

/// Parse a flag's value, distinguishing "absent" (fine, use the
/// default) from "present but unparseable" (a usage error — silently
/// falling back would mask the typo).
fn parsed_flag<T>(args: &[String], name: &str, parse: impl Fn(&str) -> Option<T>) -> Option<T> {
    let raw = flag_value(args, name)?;
    match parse(&raw) {
        Some(v) => Some(v),
        None => {
            eprintln!("hgl: invalid value for {name}: {raw:?}");
            std::process::exit(2);
        }
    }
}

/// One CLI lift invocation: the result plus the frozen session
/// metrics, (in `--all` mode) the discovered roots, and (under
/// `--refine-indirect`) the refinement-fixpoint outcome.
struct LiftInvocation {
    result: LiftResult,
    metrics: MetricsSnapshot,
    roots: Option<Vec<u64>>,
    refined: Option<Refinement>,
}

/// The refinement outcome the CLI reports: fixpoint shape plus the
/// final indirect-target claims.
struct Refinement {
    rounds: usize,
    converged: bool,
    hints: std::collections::BTreeMap<u64, std::collections::BTreeSet<u64>>,
    /// Hinted jumps withdrawn mid-fixpoint (claim failed re-validation
    /// on a later round's graph); reported unresolved in the result.
    demoted: std::collections::BTreeSet<u64>,
}

fn do_lift(binary: &Binary, args: &[String]) -> LiftInvocation {
    let mut config = LiftConfig::default();
    if let Some(t) = parsed_flag(args, "--timeout", |s| s.parse().ok()) {
        config.budget.wall_clock = Some(Duration::from_secs(t));
    }
    let workers = parsed_flag(args, "--workers", |s| s.parse().ok()).unwrap_or(0usize);
    let store = flag_value(args, "--store").map(|dir| {
        let options = StoreOptions {
            verify: args.iter().any(|a| a == "--store-verify"),
            ..StoreOptions::default()
        };
        match Store::open_with(&dir, options) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("hgl: cannot open store {dir}: {e}");
                std::process::exit(2);
            }
        }
    });
    let mut lifter = Lifter::new(binary).with_config(config).workers(workers);
    if let Some(store) = &store {
        lifter = lifter.with_store(store);
    }
    let refine = args.iter().any(|a| a == "--refine-indirect");
    let resolver = hgl_analysis::VsaResolver;
    const REFINE_ROUNDS: usize = 8;
    if args.iter().any(|a| a == "--all") {
        if refine {
            let (report, refined) = lifter.lift_all_refined(&resolver, REFINE_ROUNDS);
            LiftInvocation {
                result: report.result,
                metrics: report.metrics,
                roots: Some(report.roots),
                refined: Some(Refinement {
                    rounds: refined.rounds,
                    converged: refined.converged,
                    hints: refined.hints,
                    demoted: refined.demoted,
                }),
            }
        } else {
            let report = lifter.lift_all();
            LiftInvocation {
                result: report.result,
                metrics: report.metrics,
                roots: Some(report.roots),
                refined: None,
            }
        }
    } else {
        let entry = parsed_flag(args, "--function", parse_u64).unwrap_or(binary.entry);
        if refine {
            let refined = lifter.lift_entry_refined(entry, &resolver, REFINE_ROUNDS);
            let metrics = lifter.metrics_snapshot();
            LiftInvocation {
                result: refined.result,
                metrics,
                roots: None,
                refined: Some(Refinement {
                    rounds: refined.rounds,
                    converged: refined.converged,
                    hints: refined.hints,
                    demoted: refined.demoted,
                }),
            }
        } else {
            let result = lifter.lift_entry(entry);
            let metrics = lifter.metrics_snapshot();
            LiftInvocation { result, metrics, roots: None, refined: None }
        }
    }
}

/// `hgl serve`: run the lifting daemon until a client sends the
/// `shutdown` op (or the process is killed).
fn do_serve(args: &[String]) -> ExitCode {
    let listen = flag_value(args, "--listen").unwrap_or_else(|| "127.0.0.1:7878".to_string());
    let mut config = ServeConfig::default();
    if let Some(w) = parsed_flag(args, "--workers", |s| s.parse().ok()) {
        config.workers = w;
    }
    if let Some(q) = parsed_flag(args, "--queue", |s| s.parse().ok()) {
        config.queue_capacity = q;
    }
    if let Some(secs) = parsed_flag(args, "--max-wall", |s| s.parse().ok()) {
        config.max_request_wall = Duration::from_secs(secs);
    }
    config.store_dir = flag_value(args, "--store").map(std::path::PathBuf::from);
    let mut server = match Server::bind(&listen, config) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("hgl: cannot bind {listen}: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!("hgl serve: listening on {}", server.local_addr());
    server.join();
    println!("hgl serve: shut down");
    ExitCode::SUCCESS
}

/// Deterministic seeded entry states for `hgl rewrite --verify`'s
/// differential trace run (the CLI-sized version of the campaign in
/// `hgl_oracle::differential`).
fn verify_entry_states(n: usize) -> Vec<hgl_oracle::EntryState> {
    fn mix(mut z: u64) -> u64 {
        z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }
    (0..n as u64)
        .map(|k| hgl_oracle::EntryState {
            // Small rdi values first (jump-table cases), then large.
            rdi: if k < 3 { k } else { 64 + (mix(k) & 0xfff) },
            scratch: [
                mix(k ^ 1) & 0xffff,
                mix(k ^ 2) & 0xffff,
                mix(k ^ 3) & 0xffff,
                mix(k ^ 4),
                mix(k ^ 5) & 0xff,
                mix(k ^ 6) & 0xff,
            ],
        })
        .collect()
}

/// `hgl rewrite`: lift, transform, re-emit — refusing rather than
/// emitting anything it cannot argue is equivalent.
fn do_rewrite(args: &[String]) -> ExitCode {
    let (Some(in_path), Some(out_path)) = (flag_value(args, "--in"), flag_value(args, "--out"))
    else {
        eprintln!("hgl rewrite: both --in and --out are required");
        return usage();
    };
    let bytes = match std::fs::read(&in_path) {
        Ok(b) => b,
        Err(e) => {
            eprintln!("hgl: cannot read {in_path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let binary = match Binary::parse(&bytes) {
        Ok(b) => b,
        Err(e) => {
            eprintln!("hgl: cannot parse {in_path}: {e}");
            return ExitCode::FAILURE;
        }
    };

    let pass_names: Vec<String> = args
        .iter()
        .enumerate()
        .filter(|(_, a)| *a == "--pass")
        .filter_map(|(i, _)| args.get(i + 1).cloned())
        .collect();
    let mut passes: Vec<Box<dyn hgl_rewrite::RewritePass>> = Vec::new();
    for name in &pass_names {
        match hgl_rewrite::pass::by_name(name) {
            Some(p) => passes.push(p),
            None => {
                eprintln!("hgl rewrite: unknown pass {name:?} (available: shadow-stack)");
                return ExitCode::from(2);
            }
        }
    }

    let report = Lifter::new(&binary).lift_all();
    if !report.result.is_lifted() {
        eprintln!(
            "hgl rewrite: {in_path} did not lift: {:?}",
            report.result.reject_reason()
        );
        return ExitCode::FAILURE;
    }
    let pass_refs: Vec<&dyn hgl_rewrite::RewritePass> =
        passes.iter().map(std::convert::AsRef::as_ref).collect();
    let mut out = match hgl_rewrite::rewrite(&binary, &report.result, &pass_refs) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("hgl rewrite: refused: {e}");
            return ExitCode::FAILURE;
        }
    };

    let mut failed = false;
    if args.iter().any(|a| a == "--verify") {
        // Identity artifacts must re-lift to an equivalent graph.
        if passes.is_empty() {
            let image = hgl_rewrite::elf_image(&out.binary);
            let verdict = match Binary::parse(&image) {
                Ok(reparsed) => hgl_rewrite::verify_relift(&report.result, &reparsed),
                Err(e) => {
                    eprintln!("hgl rewrite: emitted ELF does not parse: {e}");
                    return ExitCode::FAILURE;
                }
            };
            out.stats.verify_relift_ok = Some(verdict.ok());
            if verdict.ok() {
                println!(
                    "verify: re-lift corresponds ({} function(s))",
                    verdict.report.functions
                );
            } else {
                failed = true;
                eprintln!("verify: re-lift graph mismatch:");
                for d in &verdict.report.details {
                    eprintln!("  {d}");
                }
            }
        }
        // Both modes: seeded differential traces, original vs
        // rewritten, compared modulo the guard ABI when instrumented.
        let guarded = !passes.is_empty();
        let states = verify_entry_states(16);
        let mut traces_ok = true;
        for (k, es) in states.iter().enumerate() {
            let orig = hgl_oracle::run_raw(&binary, es, None, 20_000);
            let rw = hgl_oracle::run_raw(&out.binary, es, Some(&out), 20_000);
            if let Some(detail) = hgl_oracle::compare_runs(&orig, &rw, guarded) {
                traces_ok = false;
                failed = true;
                eprintln!("verify: trace {k} diverges: {detail}");
            }
        }
        out.stats.verify_traces_ok = Some(traces_ok);
        if traces_ok {
            println!("verify: {} differential trace(s), zero divergences", states.len());
        }
    }

    let image = hgl_rewrite::elf_image(&out.binary);
    if let Err(e) = std::fs::write(&out_path, &image) {
        eprintln!("hgl: cannot write {out_path}: {e}");
        return ExitCode::FAILURE;
    }
    println!(
        "{out_path}: {} function(s), {} instruction(s) re-encoded, {} guard(s), {} byte(s) added",
        out.stats.functions,
        out.stats.instructions_reencoded,
        out.stats.guards_inserted,
        out.stats.bytes_delta
    );
    if args.iter().any(|a| a == "--metrics") {
        let mut snapshot = report.metrics;
        snapshot.rewrite = Some(out.stats);
        print!("{}", export_metrics_json(&snapshot));
    }
    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    // `serve` takes no binary path; dispatch before the path parsing.
    if args.first().map(String::as_str) == Some("serve") {
        return do_serve(&args);
    }
    // `rewrite` names its binaries with --in/--out, not positionally.
    if args.first().map(String::as_str) == Some("rewrite") {
        return do_rewrite(&args);
    }
    let (Some(cmd), Some(path)) = (args.first(), args.get(1)) else {
        return usage();
    };
    let bytes = match std::fs::read(path) {
        Ok(b) => b,
        Err(e) => {
            eprintln!("hgl: cannot read {path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let binary = match Binary::parse(&bytes) {
        Ok(b) => b,
        Err(e) => {
            eprintln!("hgl: cannot parse {path}: {e}");
            return ExitCode::FAILURE;
        }
    };

    match cmd.as_str() {
        "lift" => {
            let inv = do_lift(&binary, &args);
            let want_metrics = args.iter().any(|a| a == "--metrics");
            let result = inv.result;
            if args.iter().any(|a| a == "--json") {
                print!("{}", export_json(&result));
                if want_metrics {
                    print!("{}", export_metrics_json(&inv.metrics));
                }
                return if result.is_lifted() { ExitCode::SUCCESS } else { ExitCode::FAILURE };
            }
            if let Some(roots) = &inv.roots {
                println!("{path}: {} root(s) discovered by the whole-binary engine", roots.len());
            }
            println!(
                "{path}: {} function(s), {} instructions, {} symbolic states, {:?}",
                result.functions.len(),
                result.instruction_count(),
                result.state_count(),
                result.elapsed
            );
            let (a, b, c) = result.indirection_counts();
            println!("indirections: {a} resolved, {b} unresolved jumps, {c} unresolved calls");
            if let Some(r) = &inv.refined {
                let targets: usize = r.hints.values().map(std::collections::BTreeSet::len).sum();
                println!(
                    "refinement: {} round(s), {}, {} indirect site(s) resolved to {} target(s)",
                    r.rounds,
                    if r.converged { "converged" } else { "round bound hit" },
                    r.hints.len(),
                    targets,
                );
                for (site, set) in &r.hints {
                    let list: Vec<String> = set.iter().map(|t| format!("{t:#x}")).collect();
                    println!("  {site:#x} -> {{{}}}", list.join(", "));
                }
                if !r.demoted.is_empty() {
                    let list: Vec<String> = r.demoted.iter().map(|a| format!("{a:#x}")).collect();
                    println!(
                        "  {} claim(s) withdrawn (failed re-validation): {}",
                        r.demoted.len(),
                        list.join(", ")
                    );
                }
            }
            for (entry, f) in &result.functions {
                println!("\nfunction {entry:#x}: {} states, {} edges, returns: {}",
                    f.graph.state_count(), f.graph.edges.len(), f.returns);
                for ann in &f.annotations {
                    println!("  ANNOTATION {ann}");
                }
                for ob in &f.obligations {
                    println!("  OBLIGATION {ob}");
                }
                for asm in &f.assumptions {
                    println!("  ASSUMPTION {asm}");
                }
                for e in &f.verification_errors {
                    println!("  ERROR {e}");
                }
            }
            let code = match result.reject_reason() {
                None => {
                    println!("\nVERDICT: lifted (sound overapproximation under the stated assumptions)");
                    ExitCode::SUCCESS
                }
                Some(r) => {
                    println!("\nVERDICT: rejected — {r}");
                    ExitCode::FAILURE
                }
            };
            if want_metrics {
                print!("{}", export_metrics_json(&inv.metrics));
            }
            code
        }
        "lint" => {
            let result = do_lift(&binary, &args).result;
            let report = analyze(&binary, &result);
            if args.iter().any(|a| a == "--json") {
                print!("{}", export_lint_json(&report));
            } else {
                print!("{report}");
            }
            if report.count(Severity::Error) == 0 {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        "export" => {
            let result = do_lift(&binary, &args).result;
            if !result.is_lifted() {
                eprintln!("hgl: {path} did not lift: {:?}", result.reject_reason());
                return ExitCode::FAILURE;
            }
            let name = std::path::Path::new(path)
                .file_stem()
                .and_then(|s| s.to_str())
                .unwrap_or("binary")
                .replace(['-', '.'], "_");
            let thy = export_theory(&result, &name);
            match flag_value(&args, "--out") {
                Some(out) => {
                    if let Err(e) = std::fs::write(&out, &thy) {
                        eprintln!("hgl: cannot write {out}: {e}");
                        return ExitCode::FAILURE;
                    }
                    println!("{} lemmas written to {out}", hgl_export::isabelle::lemma_count(&thy));
                }
                None => print!("{thy}"),
            }
            ExitCode::SUCCESS
        }
        "validate" => {
            let result = do_lift(&binary, &args).result;
            if !result.is_lifted() {
                eprintln!("hgl: {path} did not lift: {:?}", result.reject_reason());
                return ExitCode::FAILURE;
            }
            let mut vc = ValidateConfig::default();
            if let Some(n) = parsed_flag(&args, "--samples", |s| s.parse().ok()) {
                vc.samples_per_edge = n;
            }
            let report = validate_lift(&binary, &result, &vc);
            println!(
                "{} edge groups: {} checked ({} samples), {} assumed, {} annotated, {} vacuous, {} FAILED",
                report.total,
                report.checked,
                report.samples_passed,
                report.assumed,
                report.annotated,
                report.vacuous,
                report.failed.len()
            );
            for f in &report.failed {
                println!("  COUNTEREXAMPLE fn {:#x} {} `{}`: {}", f.function, f.from, f.instr, f.detail);
            }
            if report.all_proven() {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        "cfg" => {
            let result = do_lift(&binary, &args).result;
            let entry = flag_value(&args, "--function")
                .and_then(|s| parse_u64(&s))
                .unwrap_or(binary.entry);
            match export_dot(&result, entry) {
                Some(dot) => {
                    print!("{dot}");
                    ExitCode::SUCCESS
                }
                None => {
                    eprintln!("hgl: no lifted function at {entry:#x}");
                    ExitCode::FAILURE
                }
            }
        }
        "disasm" => {
            let result = do_lift(&binary, &args).result;
            for (entry, f) in &result.functions {
                println!("function {entry:#x}:");
                for (addr, instr) in f.graph.instructions() {
                    println!("  {addr:#x}: {instr}");
                }
            }
            ExitCode::SUCCESS
        }
        _ => usage(),
    }
}
