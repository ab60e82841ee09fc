//! Identity recompilation: the no-pass rewrite must reproduce the
//! image byte-for-byte, serialise to a parseable ELF, and re-lift to
//! an equivalent Hoare Graph.

use hgl_core::Lifter;
use hgl_corpus::xen::gen_study_binary;
use hgl_elf::Binary;
use hgl_rewrite::{elf_image, rewrite, verify_relift};

/// Each identity test's own study binary, then the eight seeded study
/// binaries of the engine-gate corpus (every third one a library).
fn inputs(seed: u64) -> Vec<Binary> {
    std::iter::once(gen_study_binary(seed, false))
        .chain((0..8).map(|i| gen_study_binary(0x9e37_79b9_7f4a_7c15 ^ i, i % 3 == 2)))
        .collect()
}

#[test]
fn identity_rewrite_is_byte_identical() {
    for (n, bin) in inputs(0x1dea_7111).iter().enumerate() {
        let lift = Lifter::new(bin).lift_all().result;
        assert!(lift.is_lifted(), "input {n} must lift");
        let out = rewrite(bin, &lift, &[]).expect("identity rewrite succeeds");
        assert!(out.stats.functions > 0, "nothing was checked");
        assert!(out.stats.instructions_reencoded > out.stats.functions);
        assert_eq!(out.stats.bytes_delta, 0);
        assert_eq!(out.stats.guards_inserted, 0);
        assert!(out.shadow.is_none());
        assert_eq!(out.binary.segments.len(), bin.segments.len());
        for (a, b) in out.binary.segments.iter().zip(bin.segments.iter()) {
            assert_eq!(a.vaddr, b.vaddr);
            assert_eq!(a.bytes, b.bytes, "input {n}: identity rewrite changed bytes at {:#x}", a.vaddr);
        }
    }
}

#[test]
fn identity_rewrite_elf_roundtrips_and_relifts() {
    for (n, bin) in inputs(0xeef_0001).iter().enumerate() {
        let lift = Lifter::new(bin).lift_all().result;
        assert!(lift.is_lifted(), "input {n} must lift");
        let out = rewrite(bin, &lift, &[]).expect("identity rewrite succeeds");
        let image = elf_image(&out.binary);
        let reparsed = Binary::parse(&image).expect("emitted ELF parses");
        assert_eq!(reparsed.entry, bin.entry);
        let verdict = verify_relift(&lift, &reparsed);
        assert!(
            verdict.ok(),
            "input {n}: identity output re-lifts to a different graph: {:?}",
            verdict.report.details
        );
    }
}

#[test]
fn normalize_rip_is_identity_without_passes() {
    let bin = gen_study_binary(0xabc_0002, false);
    let lift = Lifter::new(&bin).lift_all().result;
    let out = rewrite(&bin, &lift, &[]).expect("identity rewrite succeeds");
    assert_eq!(out.normalize_rip(bin.entry), Some(bin.entry));
    assert_eq!(out.normalize_rip(0xdead_beef), Some(0xdead_beef));
}
