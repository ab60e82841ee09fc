//! Serialisation round-trip properties: `decode(encode(artifact))` is
//! the identity on every artifact the lifter actually produces.
//!
//! `FnLift` deliberately has no `PartialEq` (graphs carry solver
//! state), so identity is asserted through the canonical encoding:
//! re-encoding the decoded artifact must reproduce the original bytes
//! exactly. Because the encoder is deterministic and injective on the
//! stored surface, byte equality implies structural equality of
//! everything the store persists.

use hgl_analysis::{analyze, classify_writes};
use hgl_asm::Asm;
use hgl_core::graph::HoareGraph;
use hgl_core::lift::FnLift;
use hgl_core::{LiftResult, Lifter};
use hgl_corpus::xen::gen_study_binary;
use hgl_elf::Binary;
use hgl_store::{decode_fn_lift, encode_fn_lift};
use hgl_x86::{Cond, Instr, Mnemonic, Operand, Reg, Width};
use proptest::prelude::*;

/// Round-trip every function of one lifted binary.
fn roundtrip_all(binary: &Binary) -> usize {
    let report = Lifter::new(binary).lift_all();
    let mut checked = 0;
    for f in report.result.functions.values() {
        if !f.is_storable() {
            continue;
        }
        checked += 1;
        roundtrip_one(binary, f);
    }
    checked
}

fn roundtrip_one(binary: &Binary, f: &FnLift) {
    let bytes = encode_fn_lift(f);
    let decoded = decode_fn_lift(&bytes, binary)
        .unwrap_or_else(|e| panic!("decode of fn {:#x} failed: {e}", f.entry));
    assert_eq!(decoded.entry, f.entry);
    assert_eq!(decoded.graph.returns(), f.graph.returns());
    assert_eq!(decoded.reject, f.reject, "fn {:#x}", f.entry);
    // The code half of the content-hash footprint.
    let code = |g: &HoareGraph| g.decoded().map(|i| (i.addr, i.len)).collect::<Vec<_>>();
    assert_eq!(code(&decoded.graph), code(&f.graph));
    assert_eq!(decoded.image_reads, f.image_reads);
    assert_eq!(decoded.callee_deps, f.callee_deps);
    assert_eq!(decoded.graph.vertices.len(), f.graph.vertices.len());
    assert_eq!(decoded.graph.edges.len(), f.graph.edges.len());
    // The decisive check: the canonical encoding is a fixpoint.
    assert_eq!(encode_fn_lift(&decoded), bytes, "fn {:#x} re-encode drifted", f.entry);
}

#[test]
fn study_corpus_roundtrips() {
    let mut total = 0;
    for i in 0..4u64 {
        let binary = gen_study_binary(0x9e37_79b9_7f4a_7c15 ^ i, i % 3 == 2);
        total += roundtrip_all(&binary);
    }
    assert!(total >= 8, "expected a real corpus, round-tripped only {total} functions");
}

#[test]
fn rejected_artifacts_roundtrip() {
    // Verification-rejected functions are storable (a negative verdict
    // is as cacheable as a positive one) and must survive the codec
    // with their error list and reject verdict intact.
    for binary in
        [hgl_corpus::failures::stack_probe(), hgl_corpus::failures::callee_saved_clobber()]
    {
        let report = Lifter::new(&binary).lift_all();
        let mut saw_reject = false;
        for f in report.result.functions.values().filter(|f| f.is_storable()) {
            saw_reject |= f.reject.is_some();
            roundtrip_one(&binary, f);
        }
        assert!(saw_reject, "failure corpus binary produced no storable reject");
    }
}

/// `main: test rdi, rdi; je die; ret; die: call exit`. The terminating
/// `call exit` has a vertex and a decoded instruction but no outgoing
/// edge, so only the graph's instruction list carries it.
fn exit_call_binary() -> Binary {
    let mut asm = Asm::new();
    asm.label("main");
    asm.ins(Instr::new(
        Mnemonic::Test,
        vec![Operand::reg64(Reg::Rdi), Operand::reg64(Reg::Rdi)],
        Width::B8,
    ));
    asm.jcc(Cond::E, "die");
    asm.ret();
    asm.label("die");
    asm.call_ext("exit");
    asm.entry("main").assemble().expect("assembles")
}

#[test]
fn vertex_without_outgoing_edge_roundtrips_with_same_analysis() {
    let binary = exit_call_binary();
    let fresh = Lifter::new(&binary).lift_entry(binary.entry);
    let f = &fresh.functions[&binary.entry];
    let exit_call = f
        .graph
        .vertices
        .keys()
        .filter(|id| f.graph.successors(**id).next().is_none())
        .find_map(|id| f.graph.instr_at(id.addr()?))
        .expect("a decoded vertex without outgoing edges");
    assert_eq!(exit_call.mnemonic, Mnemonic::Call);
    assert!(!f.graph.instructions().contains_key(&exit_call.addr));
    roundtrip_one(&binary, f);

    let loaded = decode_fn_lift(&encode_fn_lift(f), &binary).expect("decodes");
    assert_eq!(loaded.graph.instr_at(exit_call.addr), Some(exit_call));
    let loaded = LiftResult {
        functions: [(binary.entry, loaded)].into_iter().collect(),
        ..fresh.clone()
    };
    // The call's return-address push is a classified write that only
    // the vertex's own instruction can produce.
    assert!(classify_writes(&binary, &fresh).iter().any(|w| w.addr == exit_call.addr));
    assert_eq!(
        format!("{:?}", analyze(&binary, &fresh)),
        format!("{:?}", analyze(&binary, &loaded))
    );
}

#[test]
fn edge_source_without_listed_instruction_is_a_codec_error() {
    let binary = exit_call_binary();
    let fresh = Lifter::new(&binary).lift_entry(binary.entry);
    let mut f = fresh.functions[&binary.entry].clone();
    assert!(!f.graph.edges.is_empty());
    // The same vertices and edges, but no instruction recorded.
    let mut graph = HoareGraph::new();
    graph.vertices = f.graph.vertices.clone();
    graph.edges = f.graph.edges.clone();
    f.graph = graph;
    let err = decode_fn_lift(&encode_fn_lift(&f), &binary).expect_err("refused");
    assert_eq!(err.what, "edge source has no listed instruction");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Any seed, library-shaped or not: every storable artifact of the
    /// lifted binary round-trips bit-exactly.
    #[test]
    fn any_seed_roundtrips(seed in any::<u64>(), library in any::<bool>()) {
        let binary = gen_study_binary(seed, library);
        prop_assert!(roundtrip_all(&binary) > 0);
    }

    /// Decoding arbitrary garbage never panics — it returns a codec
    /// error (or, vanishingly rarely, a structurally valid artifact).
    #[test]
    fn decoding_garbage_never_panics(bytes in proptest::collection::vec(any::<u8>(), 0..512)) {
        let binary = gen_study_binary(1, false);
        let _ = decode_fn_lift(&bytes, &binary);
    }
}
