//! Regenerates **Figure 3** of the paper: verification time vs
//! instruction count per lifted library function, demonstrating that
//! the two are only weakly correlated.
//!
//! ```text
//! cargo run --release --bin fig3 [seed]
//! ```
//!
//! Prints a CSV series (`instructions,micros`) followed by the summary
//! statistics the paper discusses (largest function, longest
//! verification, Pearson correlation).

#![forbid(unsafe_code)]

use hgl_corpus::xen::{build_study, run_study, study_config, Outcome, StudySpec, UnitKind};
// (fig3 runs sequentially: per-unit wall-clock times are the measurement)

fn main() {
    let seed: u64 = std::env::args().nth(1).and_then(|s| s.parse().ok()).unwrap_or(2022);
    let study = build_study(&StudySpec::table1(), seed);
    let results = run_study(&study, &study_config());

    let mut series: Vec<(usize, u128)> = Vec::new();
    for (u, r) in study.units.iter().zip(&results) {
        if u.kind == UnitKind::LibraryFunction && r.outcome == Outcome::Lifted {
            series.push((r.instructions, r.time.as_micros()));
        }
    }
    series.sort_unstable();

    println!("# Figure 3: verification time vs instruction count (library functions)");
    println!("instructions,micros");
    for (n, t) in &series {
        println!("{n},{t}");
    }

    // Summary statistics.
    let n = series.len() as f64;
    let mean_x = series.iter().map(|(x, _)| *x as f64).sum::<f64>() / n;
    let mean_y = series.iter().map(|(_, y)| *y as f64).sum::<f64>() / n;
    let cov = series
        .iter()
        .map(|(x, y)| (*x as f64 - mean_x) * (*y as f64 - mean_y))
        .sum::<f64>();
    let var_x = series.iter().map(|(x, _)| (*x as f64 - mean_x).powi(2)).sum::<f64>();
    let var_y = series.iter().map(|(_, y)| (*y as f64 - mean_y).powi(2)).sum::<f64>();
    let r = cov / (var_x.sqrt() * var_y.sqrt()).max(f64::EPSILON);
    let largest = series.iter().max_by_key(|(x, _)| *x).copied().unwrap_or((0, 0));
    let slowest = series.iter().max_by_key(|(_, y)| *y).copied().unwrap_or((0, 0));

    println!("# functions: {}", series.len());
    println!("# largest function: {} instructions, {} us", largest.0, largest.1);
    println!("# slowest verification: {} us at {} instructions", slowest.1, slowest.0);
    println!("# Pearson correlation(time, size): {r:.3}");
    println!("# (the paper finds \"very little correlation\"; the slowest unit is");
    println!("#  rarely the largest, because join behaviour dominates)");
}
