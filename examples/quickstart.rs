//! Quickstart: assemble a small function, lift it to a Hoare Graph,
//! and inspect the generated invariants.
//!
//! ```text
//! cargo run --example quickstart
//! ```

use hgl_asm::Asm;
use hgl_core::{LiftConfig, Lifter};
use hgl_x86::{Instr, MemOperand, Mnemonic, Operand, Reg, Width};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. Synthesize a binary: a classic C-style frame function.
    //
    //    long f(long x) { long local = x + 1; return local * 2; }
    let mut asm = Asm::new();
    asm.label("f");
    asm.push(Reg::Rbp);
    asm.mov(Operand::reg64(Reg::Rbp), Operand::reg64(Reg::Rsp));
    // lea rax, [rdi + 1]
    asm.ins(Instr::new(
        Mnemonic::Lea,
        vec![
            Operand::reg64(Reg::Rax),
            Operand::Mem(MemOperand::base_disp(Reg::Rdi, 1, Width::B8)),
        ],
        Width::B8,
    ));
    // mov [rbp - 8], rax ; mov rax, [rbp - 8]
    asm.ins(Instr::new(
        Mnemonic::Mov,
        vec![Operand::Mem(MemOperand::base_disp(Reg::Rbp, -8, Width::B8)), Operand::reg64(Reg::Rax)],
        Width::B8,
    ));
    asm.ins(Instr::new(
        Mnemonic::Mov,
        vec![Operand::reg64(Reg::Rax), Operand::Mem(MemOperand::base_disp(Reg::Rbp, -8, Width::B8))],
        Width::B8,
    ));
    // shl rax, 1 ; pop rbp ; ret
    asm.ins(Instr::new(Mnemonic::Shl, vec![Operand::reg64(Reg::Rax), Operand::Imm(1)], Width::B8));
    asm.pop(Reg::Rbp);
    asm.ret();
    let binary = asm.entry("f").assemble()?;
    println!("Synthesized binary: entry {:#x}, {} mapped bytes\n", binary.entry, binary.mapped_len());

    // 2. Lift: disassembly + control flow + invariants, simultaneously.
    let result = Lifter::new(&binary).with_config(LiftConfig::default()).lift_entry(binary.entry);
    assert!(result.is_lifted(), "lift rejected: {:?}", result.reject_reason());
    let f = &result.functions[&binary.entry];

    println!("=== Hoare Graph ===");
    print!("{}", f.graph);

    println!("\n=== Invariants (one per vertex) ===");
    for (vid, v) in &f.graph.vertices {
        println!("{vid}:");
        println!("    {}", v.state.pred);
        println!("    memory model: {}", *v.state.model);
    }

    println!("\n=== Sanity properties ===");
    println!("returns normally:       {}", f.graph.returns());
    println!("verification errors:    {}", f.verification_errors.len());
    println!("annotations:            {}", f.annotations.len());
    println!("assumptions used:       {}", f.assumptions.len());
    for a in &f.assumptions {
        println!("    {a}");
    }

    // 3. The final invariant proves the function's result: the exit
    //    state knows rax == (rdi0 + 1) * 2.
    let exit = &f.graph.vertices[&hgl_core::VertexId::Exit];
    println!("\nAt exit, rax == {}", exit.state.pred.reg(Reg::Rax));
    Ok(())
}
