//! The shadow-stack pass, end to end: instrumentation lands exactly on
//! the lint-unproven returns, benign executions are unchanged modulo
//! guard frames, and a real return-address corruption traps.

use hgl_analysis::{analyze, Rule};
use hgl_core::Lifter;
use hgl_corpus::failures::{corrupted_return, CORRUPT_TRIGGER};
use hgl_corpus::xen::gen_study_binary;
use hgl_elf::Binary;
use hgl_emu::{Event, Machine};
use hgl_rewrite::{rewrite, RewriteOutput, ShadowStackPass};
use hgl_x86::{decode, Mnemonic, Operand, Reg, RegRef};
use std::collections::BTreeSet;

const SENTINEL: u64 = 0x7fff_dead_beef;

/// How an emulated run ended.
#[derive(Debug, PartialEq, Eq)]
enum Stop {
    /// Returned to the sentinel return address.
    Returned,
    /// Executed `hlt` at the given instruction address.
    Halted(u64),
    /// `rip` left the image (wild control flow).
    Undecodable(u64),
    /// Step budget exhausted.
    Limit,
}

/// Run `bin` from its entry with the given `rdi`, optionally planting
/// an 8-byte value in memory first. Returns the executed instruction
/// addresses and the stop cause.
fn run(bin: &Binary, rdi: u64, plant: Option<(u64, u64)>) -> (Vec<u64>, Stop) {
    let mut m = Machine::from_binary(bin);
    m.rip = bin.entry;
    m.push_return_address(SENTINEL);
    m.set_reg(RegRef::full(Reg::Rdi), rdi);
    if let Some((addr, value)) = plant {
        m.mem.write(addr, 8, value);
    }
    let mut trace = Vec::new();
    for _ in 0..10_000 {
        if m.rip == SENTINEL {
            return (trace, Stop::Returned);
        }
        let Some(window) = bin.fetch_window(m.rip) else {
            return (trace, Stop::Undecodable(m.rip));
        };
        let Ok(instr) = decode(window, m.rip) else {
            return (trace, Stop::Undecodable(m.rip));
        };
        trace.push(instr.addr);
        match m.exec(&instr) {
            Ok(Event::Halt) => return (trace, Stop::Halted(instr.addr)),
            Ok(_) => {}
            Err(e) => panic!("emulator fault at {:#x}: {e:?}", instr.addr),
        }
    }
    (trace, Stop::Limit)
}

/// Normalise a rewritten-binary trace back to original addresses.
fn normalize(out: &RewriteOutput, trace: &[u64]) -> Vec<u64> {
    trace.iter().filter_map(|&rip| out.normalize_rip(rip)).collect()
}

fn instrumented_corrupted_return() -> (Binary, RewriteOutput) {
    let bin = corrupted_return();
    let lift = Lifter::new(&bin).lift_all().result;
    let pass = ShadowStackPass;
    let out = rewrite(&bin, &lift, &[&pass]).expect("shadow-stack rewrite succeeds");
    (bin, out)
}

/// The address `corrupted_return`'s `movabs rax, cell` loads from.
fn cell_addr(bin: &Binary) -> u64 {
    let lift = Lifter::new(bin).lift_all().result;
    for f in lift.functions.values() {
        for (_, i) in f.graph.instructions() {
            if i.mnemonic == Mnemonic::Movabs {
                if let Some(Operand::Imm(v)) = i.operands.get(1) {
                    return *v as u64;
                }
            }
        }
    }
    panic!("no movabs in corrupted_return");
}

#[test]
fn guards_land_exactly_on_lint_unproven_rets() {
    let bin = gen_study_binary(0x5eed_cafe, false);
    let lift = Lifter::new(&bin).lift_all().result;
    let report = analyze(&bin, &lift);
    let unproven: BTreeSet<u64> = report
        .diags
        .iter()
        .filter(|d| matches!(d.rule, Rule::RetSlotOverwrite | Rule::StackDepth))
        .map(|d| d.function)
        .collect();
    let mut expected = BTreeSet::new();
    for f in lift.functions.values() {
        if f.is_lifted() && unproven.contains(&f.entry) {
            let rets: Vec<u64> = f
                .graph
                .instructions()
                .iter()
                .filter(|(_, i)| i.mnemonic == Mnemonic::Ret)
                .map(|(a, _)| *a)
                .collect();
            if !rets.is_empty() {
                expected.extend(rets);
            }
        }
    }
    let pass = ShadowStackPass;
    let out = rewrite(&bin, &lift, &[&pass]).expect("shadow-stack rewrite succeeds");
    let got: BTreeSet<u64> = out.guards.iter().map(|g| g.ret_addr).collect();
    assert_eq!(got, expected, "guards must land exactly on the lint-unproven rets");
    assert_eq!(out.stats.guards_inserted, expected.len() as u64);

    // Functions the lints proved safe keep their bytes untouched.
    let patched: BTreeSet<u64> = out.skip_addrs.iter().copied().collect();
    for f in lift.functions.values() {
        if f.is_lifted() && !unproven.contains(&f.entry) {
            for (addr, i) in f.graph.instructions() {
                assert!(
                    !patched.contains(&addr),
                    "proven-safe function {:#x} was patched at {addr:#x} ({i})",
                    f.entry
                );
            }
        }
    }
}

#[test]
fn corrupted_return_gets_a_guard() {
    let (_, out) = instrumented_corrupted_return();
    assert_eq!(out.guards.len(), 1, "exactly the one unproven ret is guarded");
    assert_eq!(out.stats.guards_inserted, 1);
    let shadow = out.shadow.expect("instrumented output records the shadow layout");
    assert!(shadow.in_guard(out.guards[0].stub_addr));
    // The new sections really are in the binary.
    assert!(out
        .binary
        .segments
        .iter()
        .any(|s| s.vaddr == shadow.base && s.flags.w && !s.flags.x));
    assert!(out
        .binary
        .segments
        .iter()
        .any(|s| s.vaddr == shadow.guard_base && s.flags.x));
    assert_eq!(out.stats.bytes_delta, (shadow.size + shadow.guard_size) as i64);
}

#[test]
fn benign_run_is_unchanged_modulo_guard_frames() {
    let (bin, out) = instrumented_corrupted_return();
    let (orig_trace, orig_stop) = run(&bin, 0, None);
    let (rw_trace, rw_stop) = run(&out.binary, 0, None);
    assert_eq!(orig_stop, Stop::Returned);
    assert_eq!(rw_stop, Stop::Returned);
    assert_eq!(
        normalize(&out, &rw_trace),
        orig_trace,
        "normalised instrumented trace must equal the original trace"
    );
    assert!(rw_trace.len() > orig_trace.len(), "guard frames add steps pre-normalisation");
}

#[test]
fn corrupting_the_return_slot_traps_in_the_guard() {
    let (bin, out) = instrumented_corrupted_return();
    let cell = cell_addr(&bin);
    // The victim writes its payload through the pointer stored at
    // `cell`; aim it at the return-address slot ([initial rsp - 8],
    // where push_return_address puts the sentinel).
    let m = Machine::from_binary(&bin);
    let ret_slot = m.reg(Reg::Rsp) - 8;

    // Sanity: on the original binary the corruption hijacks control —
    // the ret lands on the payload, which is not a mapped address.
    let (_, orig_stop) = run(&bin, CORRUPT_TRIGGER as u64, Some((cell, ret_slot)));
    match orig_stop {
        Stop::Undecodable(rip) => assert_eq!(rip, 0x4141_4141, "ret followed the payload"),
        other => panic!("original binary should wild-jump, got {other:?}"),
    }

    // The instrumented binary refuses: the ret stub compares the live
    // slot against the shadow copy and halts inside the guard section.
    let (_, rw_stop) = run(&out.binary, CORRUPT_TRIGGER as u64, Some((cell, ret_slot)));
    let shadow = out.shadow.expect("shadow layout");
    match rw_stop {
        Stop::Halted(addr) => {
            assert!(
                shadow.in_guard(addr),
                "halt at {addr:#x} is outside the guard section"
            );
            assert!(out.skip_addrs.contains(&addr), "trap hlt is a guard-only step");
        }
        other => panic!("instrumented binary should trap, got {other:?}"),
    }

    // And with a benign rdi the planted pointer is never used: the
    // same run returns normally on both binaries.
    let (_, benign) = run(&out.binary, 0, Some((cell, ret_slot)));
    assert_eq!(benign, Stop::Returned);
}
