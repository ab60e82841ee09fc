//! End-to-end lifting scenarios: each test assembles a real binary and
//! lifts it, reproducing the paper's worked examples — the §2 weird
//! edge, Table 1's rejection categories, and the §5.3 failure cases.

use hgl_asm::Asm;
use hgl_core::lift::{LiftConfig, RejectReason};
use hgl_core::Lifter;
use hgl_core::{Annotation, VerificationError, VertexId};
use hgl_solver::AssumptionKind;
use hgl_x86::{Cond, Instr, MemOperand, Mnemonic, Operand, Reg, Width};

fn ins(m: Mnemonic, ops: Vec<Operand>, w: Width) -> Instr {
    Instr::new(m, ops, w)
}

fn mem(base: Reg, disp: i64, size: Width) -> Operand {
    Operand::Mem(MemOperand::base_disp(base, disp, size))
}

/// A classic frame: prologue, local store/load, epilogue.
#[test]
fn simple_frame_function_lifts() {
    let mut asm = Asm::new();
    asm.label("main");
    asm.push(Reg::Rbp);
    asm.mov(Operand::reg64(Reg::Rbp), Operand::reg64(Reg::Rsp));
    asm.ins(ins(Mnemonic::Sub, vec![Operand::reg64(Reg::Rsp), Operand::Imm(0x20)], Width::B8));
    asm.ins(ins(Mnemonic::Mov, vec![mem(Reg::Rbp, -4, Width::B4), Operand::Imm(7)], Width::B4));
    asm.ins(ins(
        Mnemonic::Mov,
        vec![Operand::reg(Reg::Rax, Width::B4), mem(Reg::Rbp, -4, Width::B4)],
        Width::B4,
    ));
    asm.ins(ins(Mnemonic::Leave, vec![], Width::B8));
    asm.ret();
    let bin = asm.entry("main").assemble().expect("assembles");

    let result = Lifter::new(&bin).lift_entry(bin.entry);
    assert!(result.is_lifted(), "reject: {:?}", result.reject_reason());
    let f = &result.functions[&bin.entry];
    assert!(f.graph.returns(), "function provably returns");
    assert_eq!(f.graph.instruction_count(), 7);
    assert!(f.annotations.is_empty());
    // The loaded value is known: rax == 7 at the exit vertex.
    let exit = &f.graph.vertices[&VertexId::Exit];
    assert_eq!(exit.state.pred.reg(Reg::Rax).as_imm(), Some(7));
}

/// Internal calls are context-free; the return site becomes reachable
/// once the callee provably returns (§4.2.2).
#[test]
fn internal_call_chain() {
    let mut asm = Asm::new();
    asm.label("main");
    asm.call("helper");
    asm.ins(ins(Mnemonic::Add, vec![Operand::reg64(Reg::Rax), Operand::Imm(1)], Width::B8));
    asm.ret();
    asm.label("helper");
    asm.ins(ins(Mnemonic::Mov, vec![Operand::reg(Reg::Rax, Width::B4), Operand::Imm(5)], Width::B4));
    asm.ret();
    let bin = asm.entry("main").assemble().expect("assembles");

    let result = Lifter::new(&bin).lift_entry(bin.entry);
    assert!(result.is_lifted(), "reject: {:?}", result.reject_reason());
    assert_eq!(result.functions.len(), 2, "both functions explored");
    for f in result.functions.values() {
        assert!(f.graph.returns());
    }
    // The helper's entry is one of the explored functions.
    let helper_entry = *result.functions.keys().max().expect("two functions");
    assert!(result.functions[&helper_entry].graph.instruction_count() == 2);
}

/// Calling a terminating external (`exit`) ends the path: the function
/// lifts but never returns.
#[test]
fn call_to_exit_never_returns() {
    let mut asm = Asm::new();
    asm.label("main");
    asm.ins(ins(Mnemonic::Mov, vec![Operand::reg(Reg::Rdi, Width::B4), Operand::Imm(0)], Width::B4));
    asm.call_ext("exit");
    asm.ret(); // unreachable
    let bin = asm.entry("main").assemble().expect("assembles");

    let result = Lifter::new(&bin).lift_entry(bin.entry);
    assert!(result.is_lifted());
    let f = &result.functions[&bin.entry];
    assert!(!f.graph.returns(), "exit never returns");
    // The trailing ret is never reached.
    assert_eq!(f.graph.instruction_count(), 2);
}

/// An unknown external call havocs volatile state but preserves the
/// frame, generating a proof obligation.
#[test]
fn external_call_generates_obligation() {
    let mut asm = Asm::new();
    asm.label("main");
    asm.push(Reg::Rbp);
    asm.mov(Operand::reg64(Reg::Rbp), Operand::reg64(Reg::Rsp));
    asm.ins(ins(Mnemonic::Sub, vec![Operand::reg64(Reg::Rsp), Operand::Imm(0x20)], Width::B8));
    // lea rdi, [rbp-0x20]; mov esi, 0; mov edx, 48; call memset
    asm.ins(ins(
        Mnemonic::Lea,
        vec![Operand::reg64(Reg::Rdi), mem(Reg::Rbp, -0x20, Width::B8)],
        Width::B8,
    ));
    asm.ins(ins(Mnemonic::Mov, vec![Operand::reg(Reg::Rsi, Width::B4), Operand::Imm(0)], Width::B4));
    asm.ins(ins(Mnemonic::Mov, vec![Operand::reg(Reg::Rdx, Width::B4), Operand::Imm(48)], Width::B4));
    asm.call_ext("memset");
    asm.ins(ins(Mnemonic::Leave, vec![], Width::B8));
    asm.ret();
    let bin = asm.entry("main").assemble().expect("assembles");

    let result = Lifter::new(&bin).lift_entry(bin.entry);
    assert!(result.is_lifted(), "reject: {:?}", result.reject_reason());
    let f = &result.functions[&bin.entry];
    assert!(f.graph.returns(), "frame preserved by assumption; ret verifies");
    // The §5.3 ret2win-style obligation.
    let ob = f.obligations.iter().find(|o| o.callee == "memset").expect("memset obligation");
    assert!(
        ob.frame_args.iter().any(|(r, _)| *r == Reg::Rdi),
        "rdi points into the caller frame: {ob}"
    );
    assert!(!ob.must_preserve.is_empty(), "preserve set non-empty: {ob}");
    let display = ob.to_string();
    assert!(display.contains("MUST PRESERVE"), "{display}");
}

/// A write through an unbounded index into the stack frame makes
/// return-address integrity unprovable: the function is rejected
/// (the §5.1 induced-buffer-overflow experiment).
#[test]
fn buffer_overflow_rejected() {
    let mut asm = Asm::new();
    asm.label("bad");
    // mov eax, edi  (unbounded index)
    asm.ins(ins(
        Mnemonic::Mov,
        vec![Operand::reg(Reg::Rax, Width::B4), Operand::reg(Reg::Rdi, Width::B4)],
        Width::B4,
    ));
    // mov byte [rsp + rax - 0x20], 1
    asm.ins(ins(
        Mnemonic::Mov,
        vec![
            Operand::Mem(MemOperand::sib(Some(Reg::Rsp), Reg::Rax, 1, -0x20, Width::B1)),
            Operand::Imm(1),
        ],
        Width::B1,
    ));
    asm.ret();
    let bin = asm.entry("bad").assemble().expect("assembles");

    let result = Lifter::new(&bin).lift_entry(bin.entry);
    assert!(!result.is_lifted(), "overflow must reject");
    match result.reject_reason() {
        Some(RejectReason::Verification(VerificationError::ReturnAddressClobbered { .. })) => {}
        other => panic!("expected ReturnAddressClobbered, got {other:?}"),
    }
}

/// The same write with a *bounded* index verifies: the bound proves
/// separation from the return-address slot.
#[test]
fn bounded_stack_write_lifts() {
    let mut asm = Asm::new();
    asm.label("good");
    asm.ins(ins(
        Mnemonic::Mov,
        vec![Operand::reg(Reg::Rax, Width::B4), Operand::reg(Reg::Rdi, Width::B4)],
        Width::B4,
    ));
    // cmp eax, 0x10 ; ja out
    asm.ins(ins(
        Mnemonic::Cmp,
        vec![Operand::reg(Reg::Rax, Width::B4), Operand::Imm(0x10)],
        Width::B4,
    ));
    asm.jcc(Cond::A, "out");
    // mov byte [rsp + rax - 0x20], 1   — rax ≤ 0x10 < 0x18 keeps the
    // write below the return-address slot.
    asm.ins(ins(
        Mnemonic::Mov,
        vec![
            Operand::Mem(MemOperand::sib(Some(Reg::Rsp), Reg::Rax, 1, -0x20, Width::B1)),
            Operand::Imm(1),
        ],
        Width::B1,
    ));
    asm.label("out");
    asm.ret();
    let bin = asm.entry("good").assemble().expect("assembles");

    let result = Lifter::new(&bin).lift_entry(bin.entry);
    assert!(result.is_lifted(), "reject: {:?}", result.reject_reason());
    assert!(result.functions[&bin.entry].graph.returns());
}

/// A bounded jump table resolves to all entries (column A of Table 1).
#[test]
fn jump_table_resolved() {
    let mut asm = Asm::new();
    asm.label("dispatch");
    // mov eax, edi ; cmp eax, 2 ; ja default
    asm.ins(ins(
        Mnemonic::Mov,
        vec![Operand::reg(Reg::Rax, Width::B4), Operand::reg(Reg::Rdi, Width::B4)],
        Width::B4,
    ));
    asm.ins(ins(Mnemonic::Cmp, vec![Operand::reg(Reg::Rax, Width::B4), Operand::Imm(2)], Width::B4));
    asm.jcc(Cond::A, "default");
    // jmp qword [table + rax*8]
    let jmp_tbl = ins(
        Mnemonic::Jmp,
        vec![Operand::Mem(MemOperand::sib(None, Reg::Rax, 8, 0, Width::B8))],
        Width::B8,
    );
    asm.ins_mem_label(jmp_tbl, 0, "table");
    asm.label("case0");
    asm.ins(ins(Mnemonic::Mov, vec![Operand::reg(Reg::Rax, Width::B4), Operand::Imm(10)], Width::B4));
    asm.ret();
    asm.label("case1");
    asm.ins(ins(Mnemonic::Mov, vec![Operand::reg(Reg::Rax, Width::B4), Operand::Imm(11)], Width::B4));
    asm.ret();
    asm.label("case2");
    asm.ins(ins(Mnemonic::Mov, vec![Operand::reg(Reg::Rax, Width::B4), Operand::Imm(12)], Width::B4));
    asm.ret();
    asm.label("default");
    asm.ins(ins(
        Mnemonic::Xor,
        vec![Operand::reg(Reg::Rax, Width::B4), Operand::reg(Reg::Rax, Width::B4)],
        Width::B4,
    ));
    asm.ret();
    asm.jump_table("table", &["case0", "case1", "case2"]);
    let bin = asm.entry("dispatch").assemble().expect("assembles");

    let result = Lifter::new(&bin).lift_entry(bin.entry);
    assert!(result.is_lifted(), "reject: {:?}", result.reject_reason());
    let f = &result.functions[&bin.entry];
    assert!(f.graph.returns());
    assert_eq!(f.resolved_indirections, 1, "the jump table is resolved");
    assert!(f.annotations.is_empty(), "no unresolved indirections: {:?}", f.annotations);
    // All four cases (table entries + default) are in the graph.
    assert_eq!(f.graph.instruction_count(), 12);
}

/// The §2 example, ported to x86-64: whether `jmp [rsi]` lands on the
/// intended jump-table target or on a ROP gadget depends on pointer
/// aliasing. The lifted graph must contain the weird edge.
#[test]
fn weird_edge_found() {
    let mut asm = Asm::new();
    asm.label("weird");
    // mov eax, edi ; cmp eax, 1 ; ja done
    asm.ins(ins(
        Mnemonic::Mov,
        vec![Operand::reg(Reg::Rax, Width::B4), Operand::reg(Reg::Rdi, Width::B4)],
        Width::B4,
    ));
    asm.ins(ins(Mnemonic::Cmp, vec![Operand::reg(Reg::Rax, Width::B4), Operand::Imm(1)], Width::B4));
    asm.jcc(Cond::A, "done");
    // mov rax, [table + rax*8]    (a_jt)
    let load = ins(
        Mnemonic::Mov,
        vec![
            Operand::reg64(Reg::Rax),
            Operand::Mem(MemOperand::sib(None, Reg::Rax, 8, 0, Width::B8)),
        ],
        Width::B8,
    );
    asm.ins_mem_label(load, 1, "table");
    // mov [rsi], rax              (*rsi := a_jt)
    asm.ins(ins(Mnemonic::Mov, vec![mem(Reg::Rsi, 0, Width::B8), Operand::reg64(Reg::Rax)], Width::B8));
    // mov qword [rdx], carrier+1  (the §2 `mov [esi], 1`: the written
    // value is the address of a 0xc3 byte inside another instruction)
    let poison = ins(Mnemonic::Mov, vec![mem(Reg::Rdx, 0, Width::B8), Operand::Imm(0)], Width::B8);
    asm.ins_imm_label_off(poison, 1, "carrier", 1);
    // jmp [rsi]
    asm.ins(ins(Mnemonic::Jmp, vec![mem(Reg::Rsi, 0, Width::B8)], Width::B8));
    asm.label("t0");
    asm.ins(ins(Mnemonic::Mov, vec![Operand::reg(Reg::Rax, Width::B4), Operand::Imm(1)], Width::B4));
    asm.ret();
    asm.label("t1");
    asm.ins(ins(Mnemonic::Mov, vec![Operand::reg(Reg::Rax, Width::B4), Operand::Imm(2)], Width::B4));
    asm.ret();
    asm.label("done");
    asm.ret();
    // carrier: mov eax, 0xc3 — its immediate byte at carrier+1 is 0xc3,
    // i.e. a hidden `ret` instruction.
    asm.label("carrier");
    asm.ins(ins(Mnemonic::Mov, vec![Operand::reg(Reg::Rax, Width::B4), Operand::Imm(0xc3)], Width::B4));
    asm.ret();
    asm.jump_table("table", &["t0", "t1"]);
    let bin = asm.entry("weird").assemble().expect("assembles");

    // Locate the carrier instruction's address.
    let carrier_addr = {
        // carrier: the "mov eax, 0xc3" directly before the final ret;
        // find the byte pattern b8 c3 00 00 00 in .text.
        let seg = &bin.segments[0];
        let pos = seg
            .bytes
            .windows(5)
            .position(|w| w == [0xb8, 0xc3, 0x00, 0x00, 0x00])
            .expect("carrier pattern");
        seg.vaddr + pos as u64
    };
    let gadget = carrier_addr + 1;

    let result = Lifter::new(&bin).lift_entry(bin.entry);
    assert!(result.is_lifted(), "reject: {:?}", result.reject_reason());
    let f = &result.functions[&bin.entry];
    assert!(f.graph.returns());
    // The weird edge: a vertex at the mid-instruction ROP gadget.
    assert!(
        !f.graph.vertices_at(gadget).is_empty(),
        "weird edge to {gadget:#x} found; vertices: {:?}",
        f.graph.vertices.keys().collect::<Vec<_>>()
    );
    // And the intended targets as well (overapproximation).
    for label_addr in f.graph.instructions().keys() {
        let _ = label_addr;
    }
    let t0_found = f.graph.edges.iter().any(|e| f.graph.edge_instr(e).mnemonic == Mnemonic::Jmp
        && matches!(e.to, VertexId::At(a, _) if bin.is_code(a) && a != gadget));
    assert!(t0_found, "intended jump-table targets present");
    // The aliasing fork produced an equality clause somewhere: the
    // gadget vertex's invariant knows rsi0 == rdx0.
    let gadget_vid = f.graph.vertices_at(gadget)[0];
    let gadget_state = &f.graph.vertices[&gadget_vid].state;
    assert!(
        !gadget_state.pred.clauses.is_empty(),
        "aliasing clause recorded: {}",
        gadget_state.pred
    );
}

/// An indirect call through a register parameter is a callback: it is
/// annotated (column C) and treated as an unknown external call (§5.1).
#[test]
fn callback_annotated_not_rejected() {
    let mut asm = Asm::new();
    asm.label("invoke");
    // call rdi
    asm.ins(ins(Mnemonic::Call, vec![Operand::reg64(Reg::Rdi)], Width::B8));
    asm.ins(ins(Mnemonic::Mov, vec![Operand::reg(Reg::Rax, Width::B4), Operand::Imm(0)], Width::B4));
    asm.ret();
    let bin = asm.entry("invoke").assemble().expect("assembles");

    let result = Lifter::new(&bin).lift_entry(bin.entry);
    assert!(result.is_lifted(), "reject: {:?}", result.reject_reason());
    let f = &result.functions[&bin.entry];
    assert!(f.graph.returns());
    assert_eq!(f.annotations.len(), 1);
    assert!(matches!(f.annotations[0], Annotation::UnresolvedCall { .. }));
}

/// §5.3 stack probing: `sub rsp, rax` after a call makes the stack
/// pointer unprovable and the function is rejected.
#[test]
fn stack_probing_rejected() {
    let mut asm = Asm::new();
    asm.label("user");
    asm.ins(ins(
        Mnemonic::Mov,
        vec![Operand::reg(Reg::Rax, Width::B4), Operand::Imm(0x1400)],
        Width::B4,
    ));
    asm.call("probe");
    asm.ins(ins(Mnemonic::Sub, vec![Operand::reg64(Reg::Rsp), Operand::reg64(Reg::Rax)], Width::B8));
    asm.ins(ins(Mnemonic::Add, vec![Operand::reg64(Reg::Rsp), Operand::Imm(0x1400)], Width::B8));
    asm.ret();
    asm.label("probe");
    asm.ret();
    let bin = asm.entry("user").assemble().expect("assembles");

    let result = Lifter::new(&bin).lift_entry(bin.entry);
    assert!(!result.is_lifted());
    match result.reject_reason() {
        Some(RejectReason::Verification(
            VerificationError::NonStandardStackRestore { .. }
            | VerificationError::UnprovableReturnAddress { .. },
        )) => {}
        other => panic!("expected stack-restore failure, got {other:?}"),
    }
}

/// §5.3 non-standard stack-pointer restoration (`/usr/bin/ssh`): rsp
/// loaded from memory cannot be proven restored.
#[test]
fn nonstandard_rsp_restore_rejected() {
    let mut asm = Asm::new();
    asm.label("f");
    asm.mov(Operand::reg64(Reg::Rsp), mem(Reg::Rdi, 0, Width::B8));
    asm.ret();
    let bin = asm.entry("f").assemble().expect("assembles");

    let result = Lifter::new(&bin).lift_entry(bin.entry);
    assert!(!result.is_lifted());
    match result.reject_reason() {
        Some(RejectReason::Verification(VerificationError::NonStandardStackRestore { rsp, .. })) => {
            assert!(!rsp.is_bottom(), "the offending symbolic rsp is reported");
        }
        other => panic!("expected NonStandardStackRestore, got {other:?}"),
    }
}

/// Calling-convention adherence: clobbering a callee-saved register
/// rejects the function.
#[test]
fn callee_saved_violation_rejected() {
    let mut asm = Asm::new();
    asm.label("f");
    asm.ins(ins(Mnemonic::Mov, vec![Operand::reg64(Reg::Rbx), Operand::Imm(1)], Width::B8));
    asm.ret();
    let bin = asm.entry("f").assemble().expect("assembles");

    let result = Lifter::new(&bin).lift_entry(bin.entry);
    assert!(!result.is_lifted());
    match result.reject_reason() {
        Some(RejectReason::Verification(VerificationError::CallingConventionViolation {
            reg, ..
        })) => assert_eq!(reg, Reg::Rbx),
        other => panic!("expected CallingConventionViolation, got {other:?}"),
    }
}

/// Saving and restoring a callee-saved register through the frame is
/// fine.
#[test]
fn push_pop_callee_saved_lifts() {
    let mut asm = Asm::new();
    asm.label("f");
    asm.push(Reg::Rbx);
    asm.ins(ins(Mnemonic::Mov, vec![Operand::reg64(Reg::Rbx), Operand::Imm(42)], Width::B8));
    asm.mov(Operand::reg64(Reg::Rax), Operand::reg64(Reg::Rbx));
    asm.pop(Reg::Rbx);
    asm.ret();
    let bin = asm.entry("f").assemble().expect("assembles");

    let result = Lifter::new(&bin).lift_entry(bin.entry);
    assert!(result.is_lifted(), "reject: {:?}", result.reject_reason());
    assert!(result.functions[&bin.entry].graph.returns());
}

/// Binaries touching pthreads are out of scope (Table 1 "concurrency"
/// column).
#[test]
fn pthread_binary_rejected_as_concurrency() {
    let mut asm = Asm::new();
    asm.label("main");
    asm.call_ext("pthread_create");
    asm.ret();
    let bin = asm.entry("main").assemble().expect("assembles");

    let result = Lifter::new(&bin).lift_entry(bin.entry);
    assert_eq!(result.reject_reason(), Some(RejectReason::Concurrency));
}

/// Library mode: lifting an exported function that is not the entry
/// point.
#[test]
fn lift_function_library_mode() {
    let mut asm = Asm::new();
    asm.label("main");
    asm.ret();
    asm.label("exported_fn");
    asm.push(Reg::Rbp);
    asm.mov(Operand::reg64(Reg::Rbp), Operand::reg64(Reg::Rsp));
    asm.pop(Reg::Rbp);
    asm.ret();
    asm.export("exported_fn", "do_thing");
    let bin = asm.entry("main").assemble().expect("assembles");
    let addr = *bin.symbols.iter().find(|(_, n)| *n == "do_thing").expect("symbol").0;

    let result = Lifter::new(&bin).lift_entry(addr);
    assert!(result.is_lifted(), "reject: {:?}", result.reject_reason());
    assert!(result.functions[&addr].graph.returns());
    assert_eq!(result.functions[&addr].graph.instruction_count(), 4);
}

/// Loops terminate through joining: a simple counted loop reaches a
/// fixpoint rather than unrolling forever.
#[test]
fn loop_reaches_fixpoint() {
    let mut asm = Asm::new();
    asm.label("f");
    asm.ins(ins(Mnemonic::Mov, vec![Operand::reg(Reg::Rcx, Width::B4), Operand::Imm(10)], Width::B4));
    asm.label("loop");
    asm.ins(ins(Mnemonic::Add, vec![Operand::reg64(Reg::Rax), Operand::Imm(1)], Width::B8));
    asm.ins(ins(Mnemonic::Sub, vec![Operand::reg64(Reg::Rcx), Operand::Imm(1)], Width::B8));
    asm.jcc(Cond::Ne, "loop");
    asm.ret();
    let bin = asm.entry("f").assemble().expect("assembles");

    let mut config = LiftConfig::default();
    config.budget.wall_clock = Some(std::time::Duration::from_secs(20));
    let result = Lifter::new(&bin).with_config(config.clone()).lift_entry(bin.entry);
    assert!(result.is_lifted(), "reject: {:?}", result.reject_reason());
    let f = &result.functions[&bin.entry];
    assert!(f.graph.returns());
    assert_eq!(f.graph.instruction_count(), 5);
    // States stay close to the instruction count (§2's observation).
    assert!(f.graph.state_count() <= 10, "state count: {}", f.graph.state_count());
}

/// The caller-pointer separation assumption is recorded when writing
/// through parameters (the source of the paper's implicit-assumption
/// proof obligations).
#[test]
fn caller_pointer_assumptions_recorded() {
    let mut asm = Asm::new();
    asm.label("f");
    asm.ins(ins(Mnemonic::Mov, vec![mem(Reg::Rdi, 0, Width::B8), Operand::Imm(1)], Width::B8));
    asm.ret();
    let bin = asm.entry("f").assemble().expect("assembles");

    let result = Lifter::new(&bin).lift_entry(bin.entry);
    assert!(result.is_lifted(), "reject: {:?}", result.reject_reason());
    let f = &result.functions[&bin.entry];
    assert!(
        f.assumptions.iter().any(|a| a.kind == AssumptionKind::CallerVsFrame),
        "CallerVsFrame assumption recorded: {:?}",
        f.assumptions
    );
}

/// Root discovery deduplicates aliased symbols: two names bound to one
/// address (an ifunc alias, a versioned export) must produce a single
/// root and a single lifted function, not two redundant lifts.
#[test]
fn aliased_symbols_yield_one_root() {
    use hgl_elf::{Binary, Builder, SegmentFlags};
    let elf = Builder::new()
        .entry(0x401000)
        // One function: `ret`.
        .section(".text", 0x401000, vec![0xc3], SegmentFlags::RX)
        .symbol(0x401000, "func")
        .symbol_alias(0x401000, "func@v2")
        .build();
    let bin = Binary::parse(&elf).expect("parses");
    assert_eq!(bin.symbols.len(), 1, "aliases collapse at parse time");

    let report = Lifter::new(&bin).lift_all();
    assert_eq!(report.roots, vec![0x401000], "exactly one root");
    assert_eq!(report.result.functions.len(), 1);
    assert!(report.result.functions[&0x401000].reject.is_none());
}

/// Decode-failure telemetry end to end: lifting a function whose body
/// hits unimplemented bytes rejects it as `Undecodable` *and* files the
/// rejection under its `reject_key` bucket in the session metrics, so
/// the `hgl-metrics-v1` histogram names exactly what the decoder is
/// missing.
#[test]
fn decode_rejects_land_in_the_metrics_histogram() {
    use hgl_elf::{Binary, Builder, SegmentFlags};
    // `0f ff` is an unimplemented 0f-escape; the trailing `c3` is never
    // reached.
    let elf = Builder::new()
        .entry(0x401000)
        .section(".text", 0x401000, vec![0x0f, 0xff, 0xc3], SegmentFlags::RX)
        .build();
    let bin = Binary::parse(&elf).expect("parses");

    let lifter = Lifter::new(&bin);
    let result = lifter.lift_entry(bin.entry);
    assert!(
        matches!(result.reject_reason(), Some(RejectReason::DecodeError { .. })),
        "reject: {:?}",
        result.reject_reason()
    );

    let snap = lifter.metrics_snapshot();
    assert_eq!(snap.decode_rejects.get("opcode:0fff"), Some(&1), "{:?}", snap.decode_rejects);

    // A second lift of the same entry files a second sample — the
    // histogram accumulates across the session like every other gauge.
    let _ = lifter.lift_entry(bin.entry);
    assert_eq!(lifter.metrics_snapshot().decode_rejects.get("opcode:0fff"), Some(&2));
}
