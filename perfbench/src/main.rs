//! The repository's benchmark: one command, four named workloads, the
//! end-to-end metrics a user of the lifter sees, and a traced run that
//! splits the wall time by layer.
//!
//! ```text
//! cargo run --release --offline -q --manifest-path perfbench/Cargo.toml -- \
//!     --workload study_cold --seed 1 --seconds 10 --trace 0
//! cargo run --release --offline -q --manifest-path perfbench/Cargo.toml -- --self-test
//! ```
//!
//! A run spawns one process per pass (the expression arena is global
//! and never freed, so passes must not share a process). Each pass
//! generates its inputs from `(seed, pass)`, measures, checks every
//! output and reports back; the run combines the passes and prints one
//! JSON line last on stdout. See `perfbench/README.md`.

mod report;
mod rewrite_verify;
mod serve_open;
mod study;
mod trace;

use report::{median, mix, percentile, PassReport};
use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};

/// The workloads, with the nominal wall time of one pass in seconds
/// (which sets how many passes fit into `--seconds`).
const WORKLOADS: [(&str, f64); 3] = [
    ("study_cold", 1.4),
    ("serve_open", 0.0),
    ("rewrite_verify", 1.6),
];

/// A run stops spawning passes once it has taken this multiple of
/// `--seconds`.
const OVERRUN: f64 = 1.6;

/// End-to-end metrics: name and unit.
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("throughput_per_s", "1/s"),
    ("p50_ms", "ms"),
    ("p75_ms", "ms"),
];

/// Per-layer metrics of the traced run: name and unit. A layer a
/// workload does not exercise reads 0.
pub const PER_LAYER: [(&str, &str); 43] = [
    ("core.lift_ms", "ms"),
    ("core.phase.decode_ms", "ms"),
    ("core.phase.tau_ms", "ms"),
    ("core.phase.join_ms", "ms"),
    ("core.phase.solver_ms", "ms"),
    ("core.states", "count"),
    ("core.instructions", "count"),
    ("core.rounds", "count"),
    ("core.tail_share", "ratio"),
    ("core.speedup_nproc", "ratio"),
    ("solver.cache_hit_rate", "ratio"),
    ("solver.query_ms", "ms"),
    ("expr.interned_nodes", "count"),
    ("store.inserts", "count"),
    ("store.hits", "count"),
    ("serve.service_ms", "ms"),
    ("serve.wait_ms", "ms"),
    ("serve.lint_p50_ms", "ms"),
    ("serve.shed", "count"),
    ("serve.coalesced", "count"),
    ("serve.deadline_fired", "count"),
    ("serve.gen_lag_ms", "ms"),
    ("serve.repeat_share", "ratio"),
    ("serve.store_hit_share", "ratio"),
    ("serve.write_ms", "ms"),
    ("serve.read_ms", "ms"),
    ("rewrite.identity_ms", "ms"),
    ("rewrite.shadow_ms", "ms"),
    ("rewrite.emit_ms", "ms"),
    ("elf.parse_ms", "ms"),
    ("rewrite.verify_relift_ms", "ms"),
    ("oracle.trace_ms", "ms"),
    ("rewrite.guards", "count"),
    ("self.corpus_ms", "ms"),
    ("self.core_ms", "ms"),
    ("self.serve_ms", "ms"),
    ("self.rewrite_ms", "ms"),
    ("self.elf_ms", "ms"),
    ("self.oracle_ms", "ms"),
    ("self.bench_ms", "ms"),
    ("trace.other_ms", "ms"),
    ("trace.wall_ms", "ms"),
    ("bench.trace_overhead", "ratio"),
];

/// What a pass needs to know.
pub struct PassOpts {
    /// The pass's own seed, derived from the run seed and pass index.
    pub seed: u64,
    /// Engine workers for `lift_all`.
    pub workers: usize,
    /// Plant one known-wrong case (the failure-counting self-test).
    pub plant: bool,
    /// Scratch directory for stores, inside the checkout.
    pub work_dir: PathBuf,
    /// The run's measuring time, for workloads that are time-based.
    pub seconds: f64,
}

#[derive(Clone)]
struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    plant: bool,
    self_test: bool,
    pass: Option<u64>,
    traced: bool,
    workers: usize,
    work_dir: Option<PathBuf>,
    spans: Option<PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let value = |flag: &str| -> Option<&str> {
        argv.iter()
            .position(|a| a == flag)
            .and_then(|i| argv.get(i + 1))
            .map(String::as_str)
    };
    let number = |flag: &str, default: &str| -> Result<f64, String> {
        value(flag)
            .unwrap_or(default)
            .parse::<f64>()
            .map_err(|_| format!("invalid value for {flag}"))
    };
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    Ok(Args {
        workload: value("--workload").unwrap_or_default().to_string(),
        seed: value("--seed")
            .unwrap_or("1")
            .parse()
            .map_err(|_| "invalid value for --seed".to_string())?,
        seconds: number("--seconds", "10")?,
        trace: number("--trace", "0")? != 0.0,
        plant: argv.iter().any(|a| a == "--plant"),
        self_test: argv.iter().any(|a| a == "--self-test"),
        pass: value("--pass")
            .map(str::parse)
            .transpose()
            .map_err(|_| "invalid value for --pass".to_string())?,
        traced: argv.iter().any(|a| a == "--traced"),
        workers: number("--workers", &nproc.to_string())? as usize,
        work_dir: value("--work-dir").map(PathBuf::from),
        spans: value("--spans").map(PathBuf::from),
    })
}

/// Runs one pass in this process and prints its report.
fn child(args: &Args, pass: u64) -> ExitCode {
    let opts = PassOpts {
        seed: mix(args.seed, pass),
        workers: args.workers,
        plant: args.plant,
        work_dir: args
            .work_dir
            .clone()
            .unwrap_or_else(|| PathBuf::from(".bench_work")),
        seconds: args.seconds,
    };
    if args.traced {
        trace::enable();
    }
    let run: fn(&PassOpts) -> PassReport = match args.workload.as_str() {
        "study_cold" => study::pass,
        "serve_open" => serve_open::pass,
        "rewrite_verify" => rewrite_verify::pass,
        other => {
            eprintln!("perfbench: unknown workload {other:?}");
            return ExitCode::from(2);
        }
    };
    let mut r = trace::span("bench.pass", pass, || run(&opts));
    r.rss_mb = report::peak_rss_mb();
    // Clean up now rather than at the end of the run, so every pass
    // starts on a file system with the same amount of churn behind it.
    let _ = std::fs::remove_dir_all(&opts.work_dir);
    r.layer.insert(
        "expr.interned_nodes".into(),
        hgl_expr::interned_node_count() as f64,
    );
    if args.traced {
        let acc = trace::account();
        for (name, ms) in &acc.self_ms {
            r.add(&format!("{name}_ms"), *ms);
            let layer = name.split('.').next().unwrap_or(name);
            r.add(&format!("self.{layer}_ms"), *ms);
        }
        r.add("trace.other_ms", acc.other_ms);
        r.add("trace.wall_ms", acc.wall_ms);
        r.add("trace.lanes", acc.lanes as f64);
        if let Some(path) = &args.spans {
            if let Err(e) = trace::write_spans(path) {
                eprintln!("perfbench: cannot write spans to {}: {e}", path.display());
            }
        }
    }
    print!("{}", r.render());
    ExitCode::SUCCESS
}

/// Spawns one pass process and reads its report.
fn spawn_pass(
    args: &Args,
    pass: u64,
    traced: bool,
    workers: usize,
    work_dir: &std::path::Path,
) -> Result<PassReport, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", &args.workload])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--pass", &pass.to_string()])
        .args(["--workers", &workers.to_string()])
        .arg("--work-dir")
        .arg(work_dir.join(format!("pass-{pass}-{}", u8::from(traced))))
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit());
    if traced {
        cmd.arg("--traced");
        if let Some(path) = &args.spans {
            cmd.arg("--spans").arg(path);
        }
    }
    if args.plant {
        cmd.arg("--plant");
    }
    let out = cmd
        .output()
        .map_err(|e| format!("cannot spawn pass: {e}"))?;
    if !out.status.success() {
        return Err(format!(
            "pass {pass} of {} failed: {}",
            args.workload, out.status
        ));
    }
    PassReport::parse(&String::from_utf8_lossy(&out.stdout))
}

/// How many passes a run of `seconds` makes.
fn passes(workload: &str, seconds: f64) -> u64 {
    let pass_s = WORKLOADS
        .iter()
        .find(|(w, _)| *w == workload)
        .map_or(1.0, |(_, s)| *s);
    if pass_s == 0.0 {
        return 1;
    }
    ((seconds / pass_s).round() as u64).max(2)
}

/// The run: spawn passes, combine, print the result line.
fn run(args: &Args) -> Result<String, String> {
    if !WORKLOADS.iter().any(|(w, _)| *w == args.workload) {
        let names: Vec<&str> = WORKLOADS.iter().map(|(w, _)| *w).collect();
        return Err(format!(
            "unknown workload {:?} (one of {})",
            args.workload,
            names.join(", ")
        ));
    }
    let work_dir = std::env::current_dir()
        .map_err(|e| e.to_string())?
        .join(".bench_work")
        .join(format!("run-{}", std::process::id()));
    std::fs::create_dir_all(&work_dir)
        .map_err(|e| format!("cannot create {}: {e}", work_dir.display()))?;
    let result = if args.trace {
        traced_run(args, &work_dir)
    } else {
        plain_run(args, &work_dir)
    };
    let _ = std::fs::remove_dir_all(&work_dir);
    let _ = std::fs::remove_dir(work_dir.parent().expect("work dir has a parent"));
    result
}

/// Prints which inputs were measured, so two runs can prove they did
/// the same work.
fn log_inputs(args: &Args, reports: &[PassReport]) {
    let all: String = reports.iter().map(|r| r.digest.as_str()).collect();
    eprintln!(
        "perfbench: workload {} seed {} passes {} inputs_sha256 {}",
        args.workload,
        args.seed,
        reports.len(),
        report::digest([all.as_bytes()])
    );
}

fn plain_run(args: &Args, work_dir: &std::path::Path) -> Result<String, String> {
    // On a machine far slower than the nominal pass time assumes, stop
    // early rather than overrun: the digest then shows fewer passes.
    let started = std::time::Instant::now();
    let mut reports = Vec::new();
    for k in 0..passes(&args.workload, args.seconds) {
        if k >= 2 && started.elapsed().as_secs_f64() > OVERRUN * args.seconds {
            eprintln!("perfbench: stopping after {k} passes: the run overran its time");
            break;
        }
        reports.push(spawn_pass(args, k, false, args.workers, work_dir)?);
    }
    log_inputs(args, &reports);
    for (k, r) in reports.iter().enumerate() {
        eprintln!(
            "perfbench: pass {k}: setup_s {} rss_mb {} throughput_per_s {} p50_ms {} p75_ms {} ops {}",
            r.setup_s,
            r.rss_mb,
            r.rate_num / r.rate_den.max(1e-12),
            percentile(&r.ops_ms, 0.5),
            percentile(&r.ops_ms, 0.75),
            r.ops_ms.len()
        );
    }
    let ops: Vec<f64> = reports
        .iter()
        .flat_map(|r| r.ops_ms.iter().copied())
        .collect();
    let setup: Vec<f64> = reports.iter().map(|r| r.setup_s).collect();
    let rss: Vec<f64> = reports.iter().map(|r| r.rss_mb).collect();
    let num: f64 = reports.iter().map(|r| r.rate_num).sum();
    let den: f64 = reports.iter().map(|r| r.rate_den).sum();
    let values = [
        median(&setup),
        median(&rss),
        num / den.max(1e-12),
        percentile(&ops, 0.5),
        percentile(&ops, 0.75),
    ];
    eprintln!(
        "perfbench: {} operations timed (p50 and p75 over all of them), {} set-ups",
        ops.len(),
        setup.len()
    );
    let metrics: Vec<(&str, &str, f64)> = END_TO_END
        .iter()
        .zip(values)
        .map(|((n, u), v)| (*n, *u, v))
        .collect();
    Ok(result_line(&reports, &metrics))
}

fn traced_run(args: &Args, work_dir: &std::path::Path) -> Result<String, String> {
    let plain = spawn_pass(args, 0, false, args.workers, work_dir)?;
    let traced = spawn_pass(args, 0, true, args.workers, work_dir)?;
    log_inputs(args, std::slice::from_ref(&traced));
    let mut layer = traced.layer.clone();
    let get = |k: &str| layer.get(k).copied().unwrap_or(0.0);
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    let derived = [
        (
            "core.lift_ms",
            get("core.lift_all_ms") + get("core.lift_entry_ms"),
        ),
        ("core.tail_share", ratio(get("core.tail_s"), traced.work_s)),
        (
            "solver.cache_hit_rate",
            ratio(
                get("solver.hits"),
                get("solver.hits") + get("solver.misses"),
            ),
        ),
        (
            "bench.trace_overhead",
            ratio(traced.work_s, plain.work_s) - 1.0,
        ),
    ];
    for (k, v) in derived {
        layer.insert(k.to_string(), v);
    }
    if args.workload == "study_cold" {
        // The same corpus on one engine worker: ROADMAP item 3's rows.
        let single = spawn_pass(args, 0, false, 1, work_dir)?;
        layer.insert(
            "core.speedup_nproc".into(),
            ratio(single.work_s, plain.work_s),
        );
    }
    let covered: f64 = layer
        .iter()
        .filter(|(k, _)| k.starts_with("self."))
        .map(|(_, v)| v)
        .sum::<f64>()
        + layer.get("trace.other_ms").copied().unwrap_or(0.0);
    eprintln!(
        "perfbench: traced pass: layer self times + other = {covered:.3} ms, traced wall = {:.3} ms over {} lane(s)",
        layer.get("trace.wall_ms").copied().unwrap_or(0.0),
        layer.get("trace.lanes").copied().unwrap_or(0.0)
    );
    for (k, v) in &layer {
        eprintln!("perfbench:   {k} = {v}");
    }
    let metrics: Vec<(&str, &str, f64)> = PER_LAYER
        .iter()
        .map(|(n, u)| (*n, *u, layer.get(*n).copied().unwrap_or(0.0)))
        .collect();
    Ok(result_line(&[plain, traced], &metrics))
}

/// The last stdout line: `correct`, `attempted`, `failed`, `metrics`.
fn result_line(reports: &[PassReport], metrics: &[(&str, &str, f64)]) -> String {
    let attempted: u64 = reports.iter().map(|r| r.attempted).sum();
    let failed: u64 = reports.iter().map(|r| r.failed).sum();
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, unit, v)| {
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_number(*v)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        failed == 0,
        body.join(", ")
    )
}

/// A JSON number with every digit Rust prints (non-finite reads 0).
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0.0".to_string()
    }
}

/// Plants one known-wrong case per workload and checks that the run
/// counts it, then checks that the same pass without it is clean.
fn self_test(args: &Args) -> ExitCode {
    let work_dir = std::env::current_dir()
        .expect("current directory")
        .join(".bench_work")
        .join("self-test");
    let mut ok = true;
    for (workload, _) in WORKLOADS {
        for plant in [true, false] {
            let a = Args {
                workload: workload.to_string(),
                plant,
                seconds: 3.0,
                ..args.clone()
            };
            let verdict = match spawn_pass(&a, 0, false, a.workers, &work_dir) {
                Ok(r) if plant && r.failed >= 1 => {
                    format!("counted {} of {} as failed", r.failed, r.attempted)
                }
                Ok(r) if !plant && r.failed == 0 => format!("clean ({} attempted)", r.attempted),
                Ok(r) => {
                    ok = false;
                    format!("WRONG: {} of {} failed", r.failed, r.attempted)
                }
                Err(e) => {
                    ok = false;
                    format!("ERROR: {e}")
                }
            };
            println!(
                "{workload:>15} {:>9}: {verdict}",
                if plant { "planted" } else { "unplanted" }
            );
        }
    }
    let _ = std::fs::remove_dir_all(&work_dir);
    let _ = std::fs::remove_dir(work_dir.parent().expect("work dir has a parent"));
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if args.self_test {
        return self_test(&args);
    }
    if let Some(pass) = args.pass {
        return child(&args, pass);
    }
    match run(&args) {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hgl_serve::Json;

    fn names(doc: &Json, key: &str) -> Vec<(String, Option<String>)> {
        match doc.get(key) {
            Some(Json::Arr(items)) => items
                .iter()
                .map(|m| {
                    let name = m
                        .get("name")
                        .and_then(Json::as_str)
                        .expect("metric name")
                        .to_string();
                    (
                        name,
                        m.get("unit").and_then(Json::as_str).map(str::to_string),
                    )
                })
                .collect(),
            _ => panic!("BENCHMARK.json has no {key} list"),
        }
    }

    /// The manifest the benchmark is run from names exactly the
    /// workloads and metrics this program prints.
    #[test]
    fn manifest_matches_the_program() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("read BENCHMARK.json");
        let doc = Json::parse(&text).expect("BENCHMARK.json is json");
        let workloads: Vec<String> = names(&doc, "workloads")
            .into_iter()
            .map(|(n, _)| n)
            .collect();
        assert_eq!(
            workloads,
            WORKLOADS
                .iter()
                .map(|(w, _)| w.to_string())
                .collect::<Vec<_>>()
        );
        let as_pairs = |list: &[(&str, &str)]| -> Vec<(String, Option<String>)> {
            list.iter()
                .map(|(n, u)| (n.to_string(), Some(u.to_string())))
                .collect()
        };
        assert_eq!(names(&doc, "end_to_end"), as_pairs(&END_TO_END));
        assert_eq!(names(&doc, "per_layer"), as_pairs(&PER_LAYER));
    }

    #[test]
    fn result_line_has_the_required_keys() {
        let r = PassReport {
            attempted: 3,
            failed: 0,
            ..PassReport::default()
        };
        let line = result_line(&[r], &[("setup_s", "s", 0.125)]);
        let doc = Json::parse(&line).expect("result line is json");
        assert_eq!(doc.get("correct").and_then(Json::as_bool), Some(true));
        assert_eq!(doc.get("attempted").and_then(Json::as_u64), Some(3));
        let setup = doc
            .get("metrics")
            .and_then(|m| m.get("setup_s"))
            .expect("metric present");
        assert_eq!(setup.get("unit").and_then(Json::as_str), Some("s"));
    }
}
