//! The §2 example of the paper, ported to x86-64: overapproximative
//! lifting discovers a "weird" edge — a ROP gadget reachable only when
//! two caller pointers alias.
//!
//! ```text
//! cargo run --example weird_edge
//! ```

use hgl_core::{LiftConfig, Lifter};
use hgl_core::VertexId;
use hgl_emu::Machine;
use hgl_x86::{decode, Reg, RegRef};

/// The §2 binary and the address of its hidden `ret` gadget.
fn build() -> (hgl_elf::Binary, u64) {
    let bin = hgl_corpus::failures::weird_edge();
    let seg = &bin.segments.iter().find(|s| s.flags.x && s.covers(bin.entry, 1)).expect("text");
    let pos = seg.bytes.windows(5).position(|w| w == [0xb8, 0xc3, 0x00, 0x00, 0x00]).expect("carrier");
    let gadget = seg.vaddr + pos as u64 + 1;
    (bin, gadget)
}

fn main() {
    let (bin, gadget) = build();
    println!("=== The §2 example, ported to x86-64 ===\n");
    println!("The function reads a jump-table pointer a_jt, stores it through rsi,");
    println!("stores a constant through rdx, then jumps through rsi. If rsi and rdx");
    println!("alias, the constant overwrites a_jt — and the constant happens to be");
    println!("{gadget:#x}, the middle of another instruction, whose byte 0xc3 is a");
    println!("hidden `ret`: a ROP gadget.\n");

    // Step 1: the lifter finds the weird edge statically.
    let result = Lifter::new(&bin).with_config(LiftConfig::default()).lift_entry(bin.entry);
    assert!(result.is_lifted(), "reject: {:?}", result.reject_reason());
    let f = &result.functions[&bin.entry];
    println!("--- Lifted Hoare Graph ({} states, {} edges) ---", f.graph.state_count(), f.graph.edges.len());
    for e in &f.graph.edges {
        let weird = matches!(e.to, VertexId::At(a, _) if a == gadget);
        println!("  {} --[{}]--> {}{}", e.from, e.instr, e.to, if weird { "   <== WEIRD EDGE" } else { "" });
    }
    let weird_vertices = f.graph.vertices_at(gadget);
    assert!(!weird_vertices.is_empty(), "the weird edge must be found");
    println!("\nInvariant at the gadget vertex (note the aliasing clause):");
    println!("  {}", f.graph.vertices[&weird_vertices[0]].state.pred);

    // The gadget decodes as `ret`.
    let i = decode(bin.fetch_window(gadget).expect("code"), gadget).expect("decodes");
    println!("\nBytes at {gadget:#x} decode as: {i}");

    // Step 2 (dynamic confirmation): concretely execute both scenarios.
    println!("\n--- Concrete confirmation on the emulator ---");
    for (rsi, rdx, label) in [(0x9000u64, 0xa000u64, "separate"), (0x9000, 0x9000, "ALIASED")] {
        let mut m = Machine::from_binary(&bin);
        m.push_return_address(0x7fff_dead_0000);
        m.set_reg(RegRef::full(Reg::Rdi), 0);
        m.set_reg(RegRef::full(Reg::Rsi), rsi);
        m.set_reg(RegRef::full(Reg::Rdx), rdx);
        for _ in 0..7 {
            m.step().expect("step");
        }
        println!("  rsi={rsi:#x} rdx={rdx:#x} ({label}): after jmp, rip = {:#x}{}",
            m.rip,
            if m.rip == gadget { "  <- hijacked to the gadget" } else { "  (intended target)" });
    }
}
