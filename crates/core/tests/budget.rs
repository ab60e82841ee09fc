//! Graceful degradation: exhausting a budget dimension stops
//! exploration but keeps the partial Hoare Graph, annotates the
//! unexplored frontier, and reports a structured resource reject.

use hgl_asm::Asm;
use hgl_core::lift::{LiftConfig, RejectReason};
use hgl_core::{Annotation, BudgetDim, Lifter};
use hgl_elf::Binary;
use hgl_x86::{Instr, Mnemonic, Operand, Reg, Width};
use std::time::Duration;

fn ins(m: Mnemonic, ops: Vec<Operand>, w: Width) -> Instr {
    Instr::new(m, ops, w)
}

/// A straight-line function long enough to outlast a small fuel budget.
fn long_function(len: usize) -> Binary {
    let mut asm = Asm::new();
    asm.label("main");
    for i in 0..len {
        asm.ins(ins(
            Mnemonic::Mov,
            vec![Operand::reg(Reg::Rax, Width::B4), Operand::Imm(i as i64)],
            Width::B4,
        ));
    }
    asm.ret();
    asm.entry("main").assemble().expect("assembles")
}

#[test]
fn fuel_exhaustion_keeps_partial_graph_with_frontier() {
    let bin = long_function(40);
    let mut config = LiftConfig::default();
    config.budget.max_fuel = Some(10);

    let result = Lifter::new(&bin).with_config(config.clone()).lift_entry(bin.entry);
    assert!(!result.is_lifted(), "fuel budget must reject the lift");

    let f = &result.functions[&bin.entry];
    match &f.reject {
        Some(RejectReason::StateBudget { dimension: BudgetDim::Fuel, used, limit }) => {
            assert_eq!(*limit, 10);
            assert!(*used >= 10, "used {used} steps");
        }
        other => panic!("expected fuel StateBudget, got {other:?}"),
    }

    // Partial coverage: roughly one instruction per step survived.
    assert!(result.instruction_count() > 0, "partial graph must be non-empty");
    assert!(
        result.instruction_count() < 40,
        "only a prefix was explored, got {}",
        result.instruction_count()
    );

    // The stop point is annotated.
    let frontiers: Vec<&Annotation> = f
        .annotations
        .iter()
        .filter(|a| matches!(a, Annotation::BudgetFrontier { dimension: BudgetDim::Fuel, .. }))
        .collect();
    assert!(!frontiers.is_empty(), "unexplored frontier must be annotated: {:?}", f.annotations);
    // Frontier addresses lie inside the function body.
    for a in frontiers {
        let addr = a.addr();
        assert!(addr >= bin.entry, "frontier {addr:#x} before entry {:#x}", bin.entry);
    }
}

#[test]
fn expired_wall_clock_rejects_with_timeout() {
    let bin = long_function(8);
    let mut config = LiftConfig::default();
    config.budget.wall_clock = Some(Duration::ZERO);
    std::thread::sleep(Duration::from_millis(2));

    let result = Lifter::new(&bin).with_config(config.clone()).lift_entry(bin.entry);
    assert!(!result.is_lifted());
    assert_eq!(result.binary_reject, Some(RejectReason::Timeout));
    // A resource reject, not a soundness verdict.
    assert!(result.reject_reason().expect("rejected").is_resource());
}

#[test]
fn unlimited_budget_lifts_everything() {
    let bin = long_function(40);
    let config = LiftConfig { budget: hgl_core::Budget::unlimited(), ..LiftConfig::default() };
    let result = Lifter::new(&bin).with_config(config.clone()).lift_entry(bin.entry);
    assert!(result.is_lifted(), "reject: {:?}", result.reject_reason());
    assert_eq!(result.instruction_count(), 41); // 40 movs + ret
}
