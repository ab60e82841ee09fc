//! Tier-1 trace-oracle campaign: the full differential loop between
//! the program generator, the lifter and the concrete emulator.
//!
//! Every trace step of every seeded execution is replayed against the
//! Hoare Graph: the machine must stay contained in some vertex
//! invariant, every concrete transition must be labelled by a graph
//! edge, and the paper's three sanity theorems (return-address
//! integrity, bounded control flow, calling-convention adherence)
//! must hold trace-wide. A failure prints one replay line (master
//! seed + program + entry index) and a shrunk minimal reproducer; the
//! shrinker keeps a candidate only if the campaign's own per-program
//! check still fails it.
//!
//! The injected-failure reports are pinned by SHA-256 in
//! `tests/golden/trace_oracle.sha256`; regenerate them with
//!
//! ```sh
//! UPDATE_GOLDEN=1 cargo test --test trace_oracle
//! ```

mod common;

use common::{check_digests, digest};
use hoare_lift::core::Lifter;
use hoare_lift::oracle::{
    entry_state, lift_program, run_campaign, synth_program, CampaignConfig, Coverage, ViolationKind,
};
use std::collections::BTreeMap;
use std::time::Duration;

/// The full campaign: 50 programs x 4 seeded entry states, zero
/// violations, and the coverage floor (every generator-emittable
/// mnemonic, every edge kind) exercised.
#[test]
fn campaign_conforms_and_meets_coverage_floor() {
    let cfg = CampaignConfig {
        programs: 50,
        entries_per_program: 4,
        // CI safety net; the campaign itself runs in seconds.
        budget: hoare_lift::core::Budget::from_timeout(Duration::from_secs(240)),
        ..CampaignConfig::default()
    };
    let report = run_campaign(&cfg);
    if let Some(f) = &report.failure {
        panic!("conformance violation (master_seed={:#x}):\n{f}", cfg.master_seed);
    }
    assert!(
        !report.budget_exhausted,
        "campaign hit its wall-clock budget (master_seed={:#x}):\n{report}",
        cfg.master_seed
    );
    assert!(
        report.floor_missing.is_empty(),
        "coverage floor regressed (master_seed={:#x}): {:?}\n{report}",
        cfg.master_seed,
        report.floor_missing
    );
    assert!(report.programs_run >= 45, "too many programs skipped:\n{report}");
    assert_eq!(report.traces_run, report.programs_run * cfg.entries_per_program);
}

/// Oracle power check: tracing against a mutated lift (the campaign
/// removes every edge from a `jcc` to its fall-through; the lifter is
/// unchanged) must be caught, and the failing program must shrink to a
/// minimal reproducer of at most 10 instructions with a printed replay
/// seed. The failure is pinned: it is program 0, entry 0, a missing
/// edge, and the rendered report's digest is fixed with the refinement
/// off and on.
#[test]
fn injected_missing_edge_is_caught_and_shrunk() {
    let mut digests = BTreeMap::new();
    for refine_indirect in [false, true] {
        let cfg = CampaignConfig {
            inject_drop_jcc_fallthrough: true,
            refine_indirect,
            budget: hoare_lift::core::Budget::from_timeout(Duration::from_secs(240)),
            ..CampaignConfig::default()
        };
        let report = run_campaign(&cfg);
        let failure = report
            .failure
            .as_ref()
            .expect("an unsound lifter must not pass the trace oracle");
        assert_eq!((failure.program, failure.entry), (0, 0), "{failure}");
        assert_eq!(failure.violation.kind, ViolationKind::MissingEdge, "{failure}");
        let rendered = failure.to_string();
        assert!(
            rendered.contains(&format!("master_seed={:#x}", cfg.master_seed)),
            "failure report must print the replay seed:\n{rendered}"
        );
        assert!(
            rendered.contains("gen-options:"),
            "failure report must print the generator options:\n{rendered}"
        );
        let shrunk = failure.shrunk.as_ref().expect("failure must be shrunk");
        assert!(
            shrunk.instructions <= 10,
            "shrunk reproducer has {} instructions (> 10):\n{}",
            shrunk.instructions,
            shrunk.listing
        );
        digests.insert(format!("injected/refine_indirect={refine_indirect}"), digest(&rendered));
    }
    check_digests("trace_oracle", "injected-failure reports", &digests);
}

/// The injected campaign's shrunk reproducer is a program the campaign
/// would itself trace: lifted on its own, no function is rejected, and
/// the campaign's per-program check still finds the failure's kind of
/// violation on the failing entry state.
#[test]
fn injected_reproducer_is_a_program_the_campaign_traces() {
    let cfg = CampaignConfig {
        inject_drop_jcc_fallthrough: true,
        budget: hoare_lift::core::Budget::from_timeout(Duration::from_secs(240)),
        ..CampaignConfig::default()
    };
    let report = run_campaign(&cfg);
    let failure = report.failure.as_ref().expect("an unsound lifter must not pass the trace oracle");
    let shrunk = failure.shrunk.as_ref().expect("failure must be shrunk");
    let bin = synth_program(cfg.master_seed, failure.program)
        .asm
        .without_text_items(&shrunk.removed)
        .assemble()
        .expect("the reproducer assembles");

    let lifted = Lifter::new(&bin).lift_entry(bin.entry);
    let rejects: Vec<String> = lifted
        .binary_reject
        .iter()
        .chain(lifted.functions.values().filter_map(|f| f.reject.as_ref()))
        .map(|r| format!("{r:?}"))
        .collect();
    assert!(rejects.is_empty(), "the reproducer is rejected: {rejects:?}\n{shrunk}");

    let lift = lift_program(&cfg, bin).expect("the campaign traces the reproducer");
    let es = entry_state(cfg.master_seed, failure.program, failure.entry);
    let outcome = lift.oracle().check_trace(&es, &mut Coverage::default());
    assert_eq!(outcome.violation.map(|v| v.kind), Some(failure.violation.kind.clone()), "{shrunk}");
}
