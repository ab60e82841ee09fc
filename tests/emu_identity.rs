//! Emulator identity: everything the concrete emulator feeds into the
//! `hgl rewrite --verify` path and the edge validator is pinned across
//! commits.
//!
//! `hgl-emu` is the independent checker behind the trace oracle, the
//! rewrite differential and the Step-2 validator, so a change to its
//! memory or stepping must not move a single observable byte. This test
//! computes the SHA-256 of each of these outputs and compares them with
//! the checked-in digests in `tests/golden/emu_identity.sha256`:
//!
//! - for twelve generated study binaries plus the corrupted-return
//!   fixture, the identity and shadow-stack rewrites (`elf_image` bytes,
//!   `RewriteStats`, address maps and guard sites);
//! - every field of each `run_raw` summary, for the original binary and
//!   its shadow-stack rewrite, over four entry states;
//! - the `validate_lift` reports of the `wc` and `tar` Table-2 binaries
//!   at four samples per edge.
//!
//! The wall-clock budget is off, so every lift stops at the same place
//! on any machine. To intentionally change these outputs, regenerate the
//! digests with
//!
//! ```sh
//! UPDATE_GOLDEN=1 cargo test --test emu_identity
//! ```
//!
//! and commit the refreshed file together with the change.

mod common;

use common::digest;
use hoare_lift::core::lift::LiftResult;
use hoare_lift::core::{LiftConfig, Lifter};
use hoare_lift::corpus::coreutils;
use hoare_lift::corpus::failures::corrupted_return;
use hoare_lift::corpus::xen::gen_study_binary;
use hoare_lift::elf::Binary;
use hoare_lift::export::{validate_lift, ValidateConfig};
use hoare_lift::oracle::{run_raw, EntryState, RunSummary};
use hoare_lift::rewrite::{elf_image, rewrite, RewriteOutput, RewritePass, ShadowStackPass};
use hoare_lift::store::sha256::{hex, sha256};
use std::collections::BTreeMap;

/// Generated study binaries; every third one is a library.
const STUDY_BINARIES: u64 = 12;

/// Seed of the first study binary.
const STUDY_SEED: u64 = 0x00e1_0000;

/// Normalised step budget per trace, as `hgl rewrite --verify` uses.
const MAX_STEPS: usize = 20_000;

/// Deterministic configuration: no wall clock.
fn config() -> LiftConfig {
    let mut c = LiftConfig::default();
    c.budget.wall_clock = None;
    c
}

/// Four entry states: two small `rdi` values (jump-table cases), two
/// large ones, with distinct scratch registers.
fn entry_states() -> Vec<EntryState> {
    (0..4u64)
        .map(|k| EntryState {
            rdi: if k < 2 { k } else { 0x40 + 0x333 * k },
            scratch: [k, 0x100 + k, 0xffff - k, 0x1234_5678_9abc_def0 ^ k, 0x80 + k, 7 * k],
        })
        .collect()
}

fn summary_doc(s: &RunSummary) -> String {
    format!(
        "rips {:?}\nstop {:?}\nregs {:?}\nflags {:?}\nwrites {:?}\nraw_steps {}\n",
        s.rips, s.stop, s.regs, s.flags, s.writes, s.raw_steps
    )
}

fn rewrite_doc(out: &RewriteOutput) -> String {
    format!(
        "image {}\nstats {:?}\naddr_map {:?}\nskip_addrs {:?}\nshadow {:?}\nguards {:?}\n",
        hex(&sha256(&elf_image(&out.binary))),
        out.stats,
        out.addr_map,
        out.skip_addrs,
        out.shadow,
        out.guards
    )
}

fn lift(bin: &Binary) -> LiftResult {
    Lifter::new(bin).with_config(config()).lift_all().result
}

/// Pin both rewrites of `bin` and the original-vs-shadow trace pairs.
fn pin_rewrite_path(out: &mut BTreeMap<String, String>, name: &str, bin: &Binary) {
    let lift = lift(bin);
    if !lift.is_lifted() {
        out.insert(format!("{name}/lift"), digest(&format!("{:?}", lift.reject_reason())));
        return;
    }
    let pass = ShadowStackPass;
    let shadow_passes: [&dyn RewritePass; 1] = [&pass];
    for (tag, passes) in [("identity", &[][..]), ("shadow", &shadow_passes[..])] {
        let doc = match rewrite(bin, &lift, passes) {
            Ok(rw) => rewrite_doc(&rw),
            Err(e) => format!("refused: {e}"),
        };
        out.insert(format!("{name}/rewrite/{tag}"), digest(&doc));
    }
    let Ok(shadow) = rewrite(bin, &lift, &shadow_passes) else {
        return;
    };
    for (k, es) in entry_states().iter().enumerate() {
        let orig = run_raw(bin, es, None, MAX_STEPS);
        out.insert(format!("{name}/run{k}/original"), digest(&summary_doc(&orig)));
        let rw = run_raw(&shadow.binary, es, Some(&shadow), MAX_STEPS);
        out.insert(format!("{name}/run{k}/shadow"), digest(&summary_doc(&rw)));
    }
}

/// `name -> digest` for every pinned output.
fn current_digests() -> BTreeMap<String, String> {
    let mut out = BTreeMap::new();
    for i in 0..STUDY_BINARIES {
        let bin = gen_study_binary(STUDY_SEED + i, i % 3 == 2);
        pin_rewrite_path(&mut out, &format!("study{i:02}"), &bin);
    }
    pin_rewrite_path(&mut out, "corrupted_return", &corrupted_return());

    let vc = ValidateConfig { samples_per_edge: 4, ..ValidateConfig::default() };
    for (spec, bin) in coreutils::build_all(1) {
        if matches!(spec.name, "wc" | "tar") {
            let report = validate_lift(&bin, &lift(&bin), &vc);
            out.insert(format!("coreutils/{}/validate", spec.name), digest(&format!("{report:?}")));
        }
    }
    out
}

#[test]
fn emulator_driven_outputs_are_pinned() {
    common::check_digests("emu_identity", "emulator-driven output", &current_digests());
}
