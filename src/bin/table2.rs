//! Regenerates **Table 2** of the paper: CoreUtils-like binaries
//! exported to Isabelle/HOL, with every Hoare triple validated.
//!
//! ```text
//! cargo run --release --bin table2 [seed] [--write-theories DIR]
//! ```
//!
//! For each binary: lift, count instructions and resolved indirections,
//! export the Isabelle theory (one lemma per edge), and validate every
//! edge on randomized concrete states ("without exception, all Hoare
//! triples could be proven automatically", §5.2).

#![forbid(unsafe_code)]

use hgl_core::Lifter;
use hgl_corpus::coreutils;
use hgl_export::{export_theory, validate_lift, ValidateConfig};

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let seed: u64 = args.get(1).and_then(|s| s.parse().ok()).unwrap_or(1);
    let out_dir = args
        .iter()
        .position(|a| a == "--write-theories")
        .and_then(|i| args.get(i + 1))
        .cloned();

    println!("Table 2: Overview of binaries exported to Isabelle/HOL (synthetic, seed {seed})");
    println!();
    println!(
        "{:<10} {:>8} {:>8} {:>13} {:>8} {:>9} {:>8} {:>8}",
        "Binary", "#Instrs", "#Indir.", "(paper)", "#Lemmas", "#Checked", "#Assumed", "Failures"
    );

    let mut tot_instr = 0;
    let mut tot_ind = 0;
    let mut tot_lemmas = 0;
    let mut tot_failed = 0;
    for (spec, bin) in coreutils::build_all(seed) {
        let result = Lifter::new(&bin).lift_entry(bin.entry);
        assert!(result.is_lifted(), "{}: rejected: {:?}", spec.name, result.reject_reason());
        let (a, b, c) = result.indirection_counts();
        assert_eq!(b + c, 0, "{}: Table-2 binaries have no unresolved indirections", spec.name);

        let thy = export_theory(&result, spec.name);
        let lemmas = hgl_export::isabelle::lemma_count(&thy);
        if let Some(dir) = &out_dir {
            std::fs::create_dir_all(dir).expect("create output dir");
            std::fs::write(format!("{dir}/{}.thy", spec.name), &thy).expect("write theory");
        }

        let report = validate_lift(&bin, &result, &ValidateConfig::default());
        println!(
            "{:<10} {:>8} {:>8} {:>6}/{:>4}  {:>8} {:>9} {:>8} {:>8}",
            spec.name,
            result.instruction_count(),
            a,
            spec.paper_instructions,
            spec.paper_indirections,
            lemmas,
            report.checked,
            report.assumed,
            report.failed.len()
        );
        for f in &report.failed {
            println!("    COUNTEREXAMPLE {} {}: {}", f.from, f.instr, f.detail);
        }
        tot_instr += result.instruction_count();
        tot_ind += a;
        tot_lemmas += lemmas;
        tot_failed += report.failed.len();
    }
    println!();
    println!("Total: {tot_instr} instructions, {tot_ind} indirections, {tot_lemmas} lemmas, {tot_failed} failures");
    println!("(paper totals: 16 078 instructions, 37 indirections; all triples proven)");
    if let Some(dir) = out_dir {
        println!("Isabelle theories written to {dir}/");
    }
}
