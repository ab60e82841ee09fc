//! Shared helpers for the benchmark harness.
//!
//! Each bench target regenerates one table or figure of the paper (see
//! `DESIGN.md`'s experiment index) or measures one of the design
//! choices called out there (memory-model insertion policy, the §4
//! join refinement). `tests/engine_gates.rs` holds the engine's
//! release-mode timing gates.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use hgl_asm::Asm;
use hgl_elf::Binary;
use hgl_x86::{Cond, Instr, MemOperand, Mnemonic, Operand, Reg, Width};

/// Assemble the §2 weird-edge binary used across benches.
pub fn weird_edge_binary() -> Binary {
    let ins = Instr::new;
    let mut asm = Asm::new();
    asm.label("weird");
    asm.ins(ins(Mnemonic::Mov, vec![Operand::reg(Reg::Rax, Width::B4), Operand::reg(Reg::Rdi, Width::B4)], Width::B4));
    asm.ins(ins(Mnemonic::Cmp, vec![Operand::reg(Reg::Rax, Width::B4), Operand::Imm(1)], Width::B4));
    asm.jcc(Cond::A, "done");
    let load = ins(
        Mnemonic::Mov,
        vec![Operand::reg64(Reg::Rax), Operand::Mem(MemOperand::sib(None, Reg::Rax, 8, 0, Width::B8))],
        Width::B8,
    );
    asm.ins_mem_label(load, 1, "table");
    asm.ins(ins(Mnemonic::Mov, vec![Operand::Mem(MemOperand::base_disp(Reg::Rsi, 0, Width::B8)), Operand::reg64(Reg::Rax)], Width::B8));
    let poison = ins(Mnemonic::Mov, vec![Operand::Mem(MemOperand::base_disp(Reg::Rdx, 0, Width::B8)), Operand::Imm(0)], Width::B8);
    asm.ins_imm_label_off(poison, 1, "carrier", 1);
    asm.ins(ins(Mnemonic::Jmp, vec![Operand::Mem(MemOperand::base_disp(Reg::Rsi, 0, Width::B8))], Width::B8));
    asm.label("t0");
    asm.ret();
    asm.label("t1");
    asm.ret();
    asm.label("done");
    asm.ret();
    asm.label("carrier");
    asm.ins(ins(Mnemonic::Mov, vec![Operand::reg(Reg::Rax, Width::B4), Operand::Imm(0xc3)], Width::B4));
    asm.ret();
    asm.jump_table("table", &["t0", "t1"]);
    asm.entry("weird").assemble().expect("assembles")
}
