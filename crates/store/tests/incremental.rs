//! Incremental re-lifting end-to-end: warm runs reuse every unchanged
//! artifact, edits invalidate exactly the functions whose inputs
//! changed, and the confirm fixpoint demotes callers whose callee
//! verdicts drifted — the store never changes *what* is computed, only
//! *how much* of it.

use hgl_asm::Asm;
use hgl_core::lift::{LiftConfig, RejectReason};
use hgl_core::Lifter;
use hgl_corpus::xen::gen_study_binary;
use hgl_elf::Binary;
use hgl_export::export_json;
use hgl_store::Store;
use hgl_x86::{Instr, Mnemonic, Operand, Reg, Width};
use std::path::PathBuf;

fn tmpdir(name: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("hgl-store-test-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    std::fs::create_dir_all(&d).expect("create temp store dir");
    d
}

fn ins(m: Mnemonic, ops: Vec<Operand>, w: Width) -> Instr {
    Instr::new(m, ops, w)
}

/// `main` calls `helper`; `leaf` is an independent exported root;
/// `helper` moves `imm` into eax. All three occupy fixed addresses so
/// two variants differing only in `imm` share every other byte.
fn three_fn_program(imm: i64) -> Binary {
    let mut asm = Asm::new();
    asm.label("main");
    asm.call("helper");
    asm.ins(ins(Mnemonic::Add, vec![Operand::reg64(Reg::Rax), Operand::Imm(1)], Width::B8));
    asm.ret();
    asm.label("leaf");
    asm.ret();
    asm.export("leaf", "leaf");
    asm.label("helper");
    asm.ins(ins(Mnemonic::Mov, vec![Operand::reg(Reg::Rax, Width::B4), Operand::Imm(imm)], Width::B4));
    asm.ret();
    asm.entry("main").assemble().expect("assembles")
}

#[test]
fn warm_rerun_hits_everything_and_is_byte_identical() {
    let dir = tmpdir("warm");
    let binary = gen_study_binary(42, false);

    let cold_store = Store::open(&dir).expect("open store");
    let cold = Lifter::new(&binary).with_store(&cold_store).lift_all();
    let cold_stats = cold.metrics.store.expect("store attached");
    assert!(cold_stats.inserts > 0, "cold run populated the store");
    assert_eq!(cold_stats.hits, 0, "nothing to hit on a cold store");

    // A *fresh* Store instance over the same directory: persistence,
    // not in-memory caching, carries the artifacts.
    let warm_store = Store::open(&dir).expect("reopen store");
    let warm = Lifter::new(&binary).with_store(&warm_store).lift_all();
    let warm_stats = warm.metrics.store.expect("store attached");
    assert_eq!(warm_stats.misses, 0, "warm run missed: {warm_stats:?}");
    assert_eq!(warm_stats.invalidations, 0, "warm run invalidated: {warm_stats:?}");
    assert_eq!(warm_stats.hits, cold_stats.inserts, "every stored artifact was reused");
    assert_eq!(warm_stats.inserts, 0, "nothing re-lifted, nothing re-inserted");

    // The replayed result is byte-identical on the export surface.
    assert_eq!(export_json(&cold.result), export_json(&warm.result));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn changed_byte_invalidates_exactly_the_changed_function() {
    let dir = tmpdir("edit");
    let v1 = three_fn_program(7);
    let v2 = three_fn_program(9);

    let s1 = Store::open(&dir).expect("open store");
    let cold = Lifter::new(&v1).with_store(&s1).lift_all();
    assert_eq!(cold.result.functions.len(), 3);

    let s2 = Store::open(&dir).expect("reopen store");
    let warm = Lifter::new(&v2).with_store(&s2).lift_all();
    let stats = warm.metrics.store.expect("store attached");
    // helper's immediate changed: its artifact fails the content hash
    // (an invalidation). leaf and main still hit — main is then
    // *demoted* by the confirm fixpoint (its callee changed), which by
    // design still counts as a lookup-level hit.
    assert_eq!(stats.invalidations, 1, "exactly the edited function invalidates: {stats:?}");
    assert_eq!(stats.hits, 2, "leaf and main artifacts were still readable: {stats:?}");

    // Correctness: the warm mixed run computes exactly what a
    // store-less cold lift of v2 computes.
    let fresh = Lifter::new(&v2).lift_all();
    assert_eq!(export_json(&warm.result), export_json(&fresh.result));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn config_change_misses_everything() {
    let dir = tmpdir("config");
    let binary = three_fn_program(7);

    let s1 = Store::open(&dir).expect("open store");
    let cold = Lifter::new(&binary).with_store(&s1).lift_all();
    let inserted = cold.metrics.store.expect("store attached").inserts;
    assert!(inserted > 0);

    // Any knob change re-keys every object: old artifacts are not even
    // looked at (different fingerprint, different path) — misses, not
    // invalidations.
    let mut config = LiftConfig::default();
    config.limits.max_states /= 2;
    let s2 = Store::open(&dir).expect("reopen store");
    let warm = Lifter::new(&binary).with_config(config).with_store(&s2).lift_all();
    let stats = warm.metrics.store.expect("store attached");
    assert_eq!(stats.hits, 0, "no artifact of the old config is reusable: {stats:?}");
    assert_eq!(stats.invalidations, 0, "re-keying is a miss, not an invalidation: {stats:?}");
    assert!(stats.misses > 0);
    assert_eq!(s2.object_count(), (inserted + stats.inserts) as usize, "both keyings coexist");
    let _ = std::fs::remove_dir_all(&dir);
}

/// `main` calls `helper`. v1's helper returns; v2's helper (same byte
/// length, same addresses) spins forever. A store holding v1's `main`
/// (which consumed helper's return proof) next to v2's `helper`
/// (returns: false) must NOT replay `main` from cache: the confirm
/// fixpoint sees the consumed-vs-current mismatch and demotes it.
#[test]
fn callee_return_flip_demotes_cached_caller() {
    fn program(returning_helper: bool) -> Binary {
        let mut asm = Asm::new();
        asm.label("main");
        asm.call("helper");
        asm.ret();
        asm.label("helper");
        if returning_helper {
            // nop×4; ret — 5 bytes, provably returns.
            for _ in 0..4 {
                asm.ins(ins(Mnemonic::Nop, vec![], Width::B8));
            }
            asm.ret();
        } else {
            // jmp helper — 5 bytes (e9 rel32), provably never returns.
            asm.jmp("helper");
        }
        asm.entry("main").assemble().expect("assembles")
    }
    let v1 = program(true);
    let v2 = program(false);
    let main = v1.entry;

    let dir1 = tmpdir("flip1");
    let dir2 = tmpdir("flip2");
    let s1 = Store::open(&dir1).expect("open store 1");
    let r1 = Lifter::new(&v1).with_store(&s1).lift_all();
    assert!(r1.result.functions[&main].graph.returns(), "v1 main returns");
    let helper = *r1
        .result
        .functions
        .keys()
        .find(|&&a| a != main)
        .expect("helper discovered transitively");
    let s2 = Store::open(&dir2).expect("open store 2");
    let r2 = Lifter::new(&v2).with_store(&s2).lift_all();
    assert!(!r2.result.functions[&main].graph.returns(), "v2 main cannot return");

    // Same segment layout and config ⇒ same object key in both stores.
    let fp = hgl_core::Fingerprint::of(&LiftConfig::default());
    let p1 = s1.object_path(&v1, &fp, helper);
    let p2 = s2.object_path(&v2, &fp, helper);
    assert_eq!(p1.file_name(), p2.file_name(), "binctx must match for this test to bite");

    // Graft v2's helper artifact into store 1, next to v1's main.
    std::fs::copy(&p2, &p1).expect("graft helper object");

    let s1b = Store::open(&dir1).expect("reopen store 1");
    let warm = Lifter::new(&v2).with_store(&s1b).lift_all();
    let stats = warm.metrics.store.expect("store attached");
    // Both artifacts are individually valid for v2's bytes (main's
    // bytes never changed), so both hit at lookup level...
    assert_eq!(stats.invalidations, 0, "{stats:?}");
    assert!(stats.hits >= 2, "{stats:?}");
    // ...but main must have been demoted and re-lifted, or this run
    // would wrongly claim main returns.
    assert!(!warm.result.functions[&main].graph.returns(), "stale caller artifact replayed!");
    assert_eq!(export_json(&warm.result), export_json(&r2.result));
    let _ = std::fs::remove_dir_all(&dir1);
    let _ = std::fs::remove_dir_all(&dir2);
}

/// `.text` = `0f ff <last>` at `0x401000`: `0f ff` does not decode,
/// so the entry is a `DecodeError` reject whose footprint is the whole
/// fetch window, `<last>` included, though no instruction covers it.
fn decode_reject_program(last: u8) -> Binary {
    use hgl_elf::{Builder, SegmentFlags};
    let elf = Builder::new()
        .entry(0x401000)
        .section(".text", 0x401000, vec![0x0f, 0xff, last], SegmentFlags::RX)
        .build();
    Binary::parse(&elf).expect("parses")
}

#[test]
fn decode_reject_footprint_covers_the_fetch_window() {
    let dir = tmpdir("decode-reject");
    let v1 = decode_reject_program(0xc3);
    let s1 = Store::open(&dir).expect("open store");
    let cold = Lifter::new(&v1).with_store(&s1).lift_all();
    let stats = cold.metrics.store.expect("store attached");
    assert_eq!(stats.inserts, 1, "the one decode reject is stored: {stats:?}");
    assert!(
        matches!(cold.result.functions[&v1.entry].reject, Some(RejectReason::DecodeError { .. })),
        "{:?}",
        cold.result.functions[&v1.entry].reject
    );

    let s2 = Store::open(&dir).expect("reopen store");
    let warm = Lifter::new(&v1).with_store(&s2).lift_all();
    let stats = warm.metrics.store.expect("store attached");
    assert_eq!((stats.hits, stats.invalidations), (1, 0), "unchanged rerun: {stats:?}");
    assert_eq!(export_json(&warm.result), export_json(&cold.result));

    // Only the `c3` changes: it lies in the failed decode's window past
    // its first byte, so the stored reject no longer holds.
    let v2 = decode_reject_program(0x90);
    let s3 = Store::open(&dir).expect("reopen store");
    let edited = Lifter::new(&v2).with_store(&s3).lift_all();
    let stats = edited.metrics.store.expect("store attached");
    assert_eq!(stats.invalidations, 1, "the window byte invalidates: {stats:?}");
    assert_eq!(export_json(&edited.result), export_json(&Lifter::new(&v2).lift_all().result));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn capacity_evicts_oldest() {
    let dir = tmpdir("cap");
    let binary = three_fn_program(7);
    let store = Store::open_with(
        &dir,
        hgl_store::StoreOptions { capacity: Some(2), ..Default::default() },
    )
    .expect("open store");
    let report = Lifter::new(&binary).with_store(&store).lift_all();
    let stats = report.metrics.store.expect("store attached");
    assert!(stats.inserts > 2, "program has three storable functions");
    assert_eq!(store.object_count(), 2, "capacity enforced");
    assert_eq!(stats.evictions, stats.inserts - 2);
    let _ = std::fs::remove_dir_all(&dir);
}
