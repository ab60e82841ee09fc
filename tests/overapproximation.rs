//! Empirical soundness of the central theorem (Definition 4.6 /
//! Theorem 4.7): for every transition of a *concrete* execution of the
//! binary, the lifted Hoare Graph contains a corresponding transition.
//!
//! We execute lifted corpus binaries on the emulator with many
//! different inputs, record the instruction trace, and check
//!
//! 1. **disassembly soundness** — every executed instruction address
//!    was lifted by some function's graph, and
//! 2. **control-flow soundness** — every intra-function `(pc, pc')`
//!    transition appears as an edge (call/return boundaries switch
//!    between the context-free per-function graphs and are checked by
//!    membership instead).

use hoare_lift::core::lift::LiftResult;
use hoare_lift::core::Lifter;
use hoare_lift::core::VertexId;
use hoare_lift::corpus::{coreutils, failures};
use hoare_lift::corpus::xen::{build_study, ExpectedOutcome, StudySpec, UnitKind};
use hoare_lift::elf::Binary;
use hoare_lift::emu::{Event, Machine};
use hoare_lift::x86::{Mnemonic, Reg, RegRef};

const SENTINEL: u64 = 0x7fff_dead_beef;

/// One step of the trace.
struct TraceStep {
    pc: u64,
    next: u64,
    mnemonic: Mnemonic,
}

fn trace(bin: &Binary, entry: u64, rdi: u64) -> Vec<TraceStep> {
    let mut m = Machine::from_binary(bin);
    m.rip = entry;
    m.push_return_address(SENTINEL);
    m.set_reg(RegRef::full(Reg::Rdi), rdi);
    m.set_reg(RegRef::full(Reg::Rsi), 0x7ffe_0000_0000);
    m.set_reg(RegRef::full(Reg::Rdx), 0x7ffd_0000_0000);
    let mut out = Vec::new();
    for _ in 0..50_000 {
        if m.rip == SENTINEL || !bin.is_code(m.rip) {
            break;
        }
        if bin.external_at(m.rip).is_some() {
            let rsp = m.reg(Reg::Rsp);
            let ra = m.mem.read(rsp, 8);
            m.set_reg(RegRef::full(Reg::Rsp), rsp.wrapping_add(8));
            m.set_reg(RegRef::full(Reg::Rax), 0);
            m.rip = ra;
            continue;
        }
        let pc = m.rip;
        let window = bin.fetch_window(pc).expect("code");
        let mnemonic = hoare_lift::x86::decode(window, pc).expect("decodes").mnemonic;
        match m.step() {
            Ok(Event::Normal | Event::Syscall) => {}
            Ok(Event::Halt) => break,
            Err(e) => panic!("fault at {pc:#x}: {e}"),
        }
        out.push(TraceStep { pc, next: m.rip, mnemonic });
    }
    out
}

fn check_covered(bin: &Binary, result: &LiftResult, steps: &[TraceStep], what: &str) {
    // All lifted instruction addresses, across functions.
    let mut lifted: Vec<u64> = result
        .functions
        .values()
        .flat_map(|f| f.graph.instructions().keys().copied().collect::<Vec<_>>())
        .collect();
    lifted.sort_unstable();
    lifted.dedup();

    // Addresses carrying unsoundness annotations: successors there are
    // exempt from the guarantee (§1).
    let annotated: Vec<u64> = result
        .functions
        .values()
        .flat_map(|f| f.annotations.iter().map(|a| a.addr()))
        .collect();

    for s in steps {
        assert!(
            lifted.binary_search(&s.pc).is_ok(),
            "{what}: executed {:#x} ({}) was not disassembled",
            s.pc,
            s.mnemonic
        );
        // Control-flow check for intra-function, non-call transitions.
        if matches!(s.mnemonic, Mnemonic::Call | Mnemonic::Ret) {
            continue; // context-free per-function graphs switch here
        }
        if annotated.contains(&s.pc) {
            continue;
        }
        if !bin.is_code(s.next) {
            continue;
        }
        let edge_found = result.functions.values().any(|f| {
            f.graph.edges.iter().any(|e| {
                e.instr.addr == s.pc
                    && matches!(e.to, VertexId::At(a, _) if a == s.next)
            })
        });
        assert!(
            edge_found,
            "{what}: concrete transition {:#x} -> {:#x} ({}) missing from the Hoare Graph",
            s.pc,
            s.next,
            s.mnemonic
        );
    }
}

#[test]
fn coreutils_traces_covered() {
    for (spec, bin) in coreutils::build_all(1) {
        let result = Lifter::new(&bin).lift_entry(bin.entry);
        assert!(result.is_lifted(), "{}: {:?}", spec.name, result.reject_reason());
        let mut total = 0;
        for rdi in [0u64, 1, 2, 3, 7, 100, u64::MAX] {
            let steps = trace(&bin, bin.entry, rdi);
            total += steps.len();
            check_covered(&bin, &result, &steps, spec.name);
        }
        assert!(total > 50, "{}: traces too short to be meaningful ({total})", spec.name);
    }
}

#[test]
fn xen_unit_traces_covered() {
    let study = build_study(&StudySpec::mini(), 5);
    for unit in &study.units {
        if unit.expected != ExpectedOutcome::Lifted {
            continue;
        }
        let result = match unit.kind {
            UnitKind::Binary => Lifter::new(&unit.binary).lift_entry(unit.binary.entry),
            UnitKind::LibraryFunction => {
                Lifter::new(&unit.binary).lift_entry(unit.entry)
            }
        };
        assert!(result.is_lifted(), "{}: {:?}", unit.name, result.reject_reason());
        for rdi in [0u64, 1, 5, 1000] {
            let steps = trace(&unit.binary, unit.entry, rdi);
            check_covered(&unit.binary, &result, &steps, &unit.name);
        }
    }
}

/// The weird edge is part of the overapproximation: a trace through
/// the aliased pointers is covered too.
#[test]
fn weird_trace_covered() {
    let bin = failures::weird_edge();
    let result = Lifter::new(&bin).lift_entry(bin.entry);
    assert!(result.is_lifted());

    // Aliased execution: rsi == rdx.
    let mut m = Machine::from_binary(&bin);
    m.push_return_address(SENTINEL);
    m.set_reg(RegRef::full(Reg::Rdi), 0);
    m.set_reg(RegRef::full(Reg::Rsi), 0x7ffe_0000_0000);
    m.set_reg(RegRef::full(Reg::Rdx), 0x7ffe_0000_0000);
    let mut steps = Vec::new();
    for _ in 0..20 {
        if m.rip == SENTINEL {
            break;
        }
        let pc = m.rip;
        let mn = hoare_lift::x86::decode(bin.fetch_window(pc).expect("code"), pc).expect("d").mnemonic;
        m.step().expect("step");
        steps.push(TraceStep { pc, next: m.rip, mnemonic: mn });
    }
    assert!(m.rip == SENTINEL, "the hijacked path still returns (via the hidden ret)");
    check_covered(&bin, &result, &steps, "weird-edge (aliased)");
}
