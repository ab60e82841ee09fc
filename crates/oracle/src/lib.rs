//! # hgl-oracle: trace-level conformance oracle
//!
//! Closes the loop between the three independently-built artifacts in
//! this reproduction — the program generator (`hgl-corpus`), the
//! lifter (`hgl-core`) and the concrete emulator (`hgl-emu`):
//!
//! 1. synthesize whole multi-function programs,
//! 2. lift them to Hoare Graphs,
//! 3. run the emulator from many seeded entry states, and
//! 4. replay every concrete step against the graph, asserting
//!    per-step invariant containment, edge correspondence, and the
//!    paper's three sanity theorems (return-address integrity,
//!    bounded control flow, calling-convention adherence) trace-wide.
//!
//! The edge-local validator (`hgl-export::validate`) checks each Hoare
//! triple on states *drawn from the precondition*; this oracle checks
//! whole *reachable* executions, catching bugs edge-local validation
//! cannot: missing edges (an unsound graph validates edge-locally —
//! the absent triple is never checked), wrong join results propagated
//! across paths, and cross-function contract mismatches.
//!
//! Failing campaigns auto-shrink to a minimal reproducer and print a
//! single replay line (master seed + program and entry index + the
//! generator options). Coverage is accounted per campaign and checked
//! against a floor, so the oracle's own power cannot silently rot.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod campaign;
pub mod coverage;
pub mod differential;
pub mod shrink;
pub mod trace;

pub use campaign::{
    entry_state, lift_program, run_campaign, synth_program, CampaignConfig, CampaignFailure,
    CampaignReport, ProgramLift, SynthProgram,
};
pub use coverage::{Coverage, CoverageFloor, EdgeKind};
pub use differential::{
    compare_runs, run_differential, run_raw, DiffConfig, DiffDivergence, DiffReport, DiffStop,
    RunSummary,
};
pub use shrink::{shrink, ShrinkResult};
pub use trace::{EntryState, TraceOracle, TraceOutcome, TraceStop, Violation, ViolationKind};
