//! Regenerates **Table 1** of the paper: the Xen-like case-study
//! statistics summary.
//!
//! ```text
//! cargo run --release --bin table1 [seed]
//! ```
//!
//! Columns mirror the paper: unit composition (lifted + unprovable +
//! concurrency + timeout), instructions, symbolic states, resolved
//! indirections (A), unresolved jumps (B), unresolved calls (C), and
//! wall-clock time.

#![forbid(unsafe_code)]

use hgl_corpus::xen::{build_study, run_study_parallel, study_config, Outcome, StudySpec, UnitKind, UnitResult};
use std::collections::BTreeMap;
use std::time::Duration;

#[derive(Default)]
struct RowAgg {
    total: usize,
    lifted: usize,
    unprovable: usize,
    concurrency: usize,
    timeout: usize,
    internal: usize,
    instrs: usize,
    states: usize,
    a: usize,
    b: usize,
    c: usize,
    time: Duration,
}

impl RowAgg {
    fn add(&mut self, r: &UnitResult) {
        self.total += 1;
        match r.outcome {
            Outcome::Lifted => self.lifted += 1,
            Outcome::Unprovable => self.unprovable += 1,
            Outcome::Concurrency => self.concurrency += 1,
            Outcome::Timeout => self.timeout += 1,
            Outcome::Internal => self.internal += 1,
        }
        if r.outcome == Outcome::Lifted {
            self.instrs += r.instructions;
            self.states += r.states;
            self.a += r.indirections.0;
            self.b += r.indirections.1;
            self.c += r.indirections.2;
        }
        self.time += r.time;
    }

    fn merge(&mut self, o: &RowAgg) {
        self.total += o.total;
        self.lifted += o.lifted;
        self.unprovable += o.unprovable;
        self.concurrency += o.concurrency;
        self.timeout += o.timeout;
        self.internal += o.internal;
        self.instrs += o.instrs;
        self.states += o.states;
        self.a += o.a;
        self.b += o.b;
        self.c += o.c;
        self.time += o.time;
    }
}

fn fmt_time(d: Duration) -> String {
    let s = d.as_secs();
    format!("{}:{:02}:{:02}.{:03}", s / 3600, s / 60 % 60, s % 60, d.subsec_millis())
}

fn print_row(name: &str, agg: &RowAgg) {
    println!(
        "{name:<20} {:>3} = {:>3}+{:>2}+{:>2}+{:>2}  {:>8} {:>8} {:>5} {:>4} {:>4}  {}",
        agg.total,
        agg.lifted,
        agg.unprovable,
        agg.concurrency,
        agg.timeout,
        agg.instrs,
        agg.states,
        agg.a,
        agg.b,
        agg.c,
        fmt_time(agg.time)
    );
}

fn main() {
    let seed: u64 = std::env::args().nth(1).and_then(|s| s.parse().ok()).unwrap_or(2022);
    let spec = StudySpec::table1();
    println!("Table 1: Xen-like Case Study Statistics Summary");
    println!("(synthetic corpus, seed {seed}; composition per DESIGN.md follows the paper's rows)");
    println!();
    let study = build_study(&spec, seed);
    let workers = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(4);
    let results = run_study_parallel(&study, &study_config(), workers);

    let mut rows: BTreeMap<(UnitKind, String), RowAgg> = BTreeMap::new();
    let kind_of: BTreeMap<String, UnitKind> =
        study.units.iter().map(|u| (u.directory.clone(), u.kind)).collect();
    for r in &results {
        let kind = kind_of[&r.directory];
        rows.entry((kind, r.directory.clone())).or_default().add(r);
    }

    println!(
        "{:<20} {:>20}  {:>8} {:>8} {:>5} {:>4} {:>4}  Time",
        "Directory", "Units (w+x+y+z)", "Instrs.", "States", "A", "B", "C"
    );
    for (section, kind) in [("Binaries", UnitKind::Binary), ("Library functions", UnitKind::LibraryFunction)] {
        println!("-- {section}");
        let mut total = RowAgg::default();
        // Preserve spec order.
        for row in &spec.rows {
            if row.kind != kind {
                continue;
            }
            if let Some(agg) = rows.get(&(kind, row.directory.clone())) {
                print_row(&row.directory, agg);
                total.merge(agg);
            }
        }
        print_row("Total", &total);
    }
    println!();
    println!("w lifted, x unprovable return address, y concurrency, z timeout");
    println!("A = resolved indirections   B = unresolved jumps   C = unresolved calls");
    let lifted: Vec<&UnitResult> = results.iter().filter(|r| r.outcome == Outcome::Lifted).collect();
    let instrs: usize = lifted.iter().map(|r| r.instructions).sum();
    let states: usize = lifted.iter().map(|r| r.states).sum();
    println!();
    println!(
        "Lifted units: {}/{}  |  states/instructions ratio: {:.2} (paper: \"close to 1\")",
        lifted.len(),
        results.len(),
        states as f64 / instrs.max(1) as f64
    );
    let mismatches = results
        .iter()
        .filter(|r| {
            use hgl_corpus::xen::ExpectedOutcome as E;
            !matches!(
                (r.expected, r.outcome),
                (E::Lifted, Outcome::Lifted)
                    | (E::UnprovableReturn, Outcome::Unprovable)
                    | (E::Concurrency, Outcome::Concurrency)
                    | (E::Timeout, Outcome::Timeout)
            )
        })
        .count();
    println!("Outcome mismatches vs construction: {mismatches}");
    // Graceful degradation: timed-out units still carry the partial
    // Hoare graph explored before the budget tripped.
    let timed_out: Vec<&UnitResult> = results.iter().filter(|r| r.outcome == Outcome::Timeout).collect();
    let partial_instrs: usize = timed_out.iter().map(|r| r.instructions).sum();
    println!(
        "Timed-out units: {}  |  instructions covered before budget exhaustion: {partial_instrs}",
        timed_out.len()
    );
    let internal = results.iter().filter(|r| r.outcome == Outcome::Internal).count();
    if internal > 0 {
        println!("Internal errors (isolated, study completed): {internal}");
    }
}
