//! Isabelle/HOL theory generation.
//!
//! The emitted theory mirrors the structure described in §5.2: a state
//! record with registers, flags and byte-level memory; one definition
//! per Hoare-Graph vertex (the invariant); one lemma per edge, proved
//! by a tailored symbolic-execution method (`se_step`); and explicit
//! axioms for each assumption the lifter made (memory-space
//! separations, external-call contracts).

use hgl_core::lift::LiftResult;
use hgl_core::{SymState, VertexId};
use hgl_expr::{Expr, ExprKind, OpKind, Sym};
use hgl_x86::Reg;
use std::fmt::Write;

/// Render a symbol as an Isabelle variable name.
fn sym_name(s: Sym) -> String {
    match s {
        Sym::Init(r) => format!("{}\\<^sub>0", r.name64()),
        Sym::RetAddr => "a\\<^sub>r".to_string(),
        Sym::RetSym(a) => format!("S\\<^sub>{a:x}"),
        Sym::Fresh(id) => format!("u\\<^sub>{id}"),
        Sym::Global(a) => format!("g\\<^sub>{a:x}"),
    }
}

/// Render an expression as an Isabelle 64-word term.
pub fn isa_expr(e: &Expr) -> String {
    match e.kind() {
        ExprKind::Imm(v) => format!("({v:#x}::64 word)"),
        ExprKind::Sym(s) => sym_name(*s),
        ExprKind::Bottom => "undefined".to_string(),
        ExprKind::Deref { addr, size } => format!("(mem_read \\<sigma> {} {})", isa_expr(addr), size),
        ExprKind::Op { op, args } => {
            if args.len() == 1 {
                let a = isa_expr(&args[0]);
                match op {
                    OpKind::Not => format!("(NOT {a})"),
                    OpKind::Neg => format!("(- {a})"),
                    OpKind::Trunc(w) => format!("(ucast (ucast {a} :: {} word) :: 64 word)", w.bits()),
                    OpKind::SExt(w) => format!("(scast (ucast {a} :: {} word) :: 64 word)", w.bits()),
                    OpKind::Popcnt => format!("(of_nat (pop_count {a}))"),
                    OpKind::Tzcnt => format!("(of_nat (word_ctz {a}))"),
                    OpKind::Bsf => format!("(of_nat (word_ctz {a}))"),
                    OpKind::Bsr => format!("(of_nat (word_clz {a}))"),
                    _ => format!("(undefined_op {a})"),
                }
            } else {
                let a = isa_expr(&args[0]);
                let b = isa_expr(&args[1]);
                let infix = match op {
                    OpKind::Add => "+",
                    OpKind::Sub => "-",
                    OpKind::Mul => "*",
                    OpKind::UDiv => "div",
                    OpKind::URem => "mod",
                    OpKind::SDiv => "sdiv",
                    OpKind::SRem => "smod",
                    OpKind::And => "AND",
                    OpKind::Or => "OR",
                    OpKind::Xor => "XOR",
                    OpKind::Shl => "<<",
                    OpKind::Shr => ">>",
                    OpKind::Sar => ">>>",
                    _ => return format!("(undefined_op2 {a} {b})"),
                };
                format!("({a} {infix} {b})")
            }
        }
    }
}

fn vid_name(v: VertexId) -> String {
    match v {
        VertexId::At(a, 0) => format!("{a:x}"),
        VertexId::At(a, n) => format!("{a:x}_{n}"),
        VertexId::Exit => "exit".to_string(),
    }
}

fn invariant_def(name: &str, state: &SymState, out: &mut String) {
    let _ = writeln!(out, "definition P_{name} :: \"state \\<Rightarrow> bool\" where");
    let _ = write!(out, "  \"P_{name} \\<sigma> \\<equiv> True");
    for (r, v) in state.pred.regs.iter() {
        if v.is_bottom() {
            continue;
        }
        // Registers equal to their own initial symbols still pin the
        // frame discipline; emit them all for faithfulness.
        let _ = write!(out, "\n     \\<and> reg \\<sigma> ''{}'' = {}", r.name64(), isa_expr(&v));
    }
    for (region, v) in &state.pred.mem {
        if v.is_bottom() {
            continue;
        }
        let _ = write!(
            out,
            "\n     \\<and> mem_read \\<sigma> {} {} = {}",
            isa_expr(&region.addr),
            region.size,
            isa_expr(v)
        );
    }
    for c in &state.pred.clauses {
        let rel = match c.rel {
            hgl_expr::Rel::Eq => "=",
            hgl_expr::Rel::Ne => "\\<noteq>",
            hgl_expr::Rel::Lt => "<",
            hgl_expr::Rel::Ge => "\\<ge>",
            hgl_expr::Rel::SLt => "<s",
            hgl_expr::Rel::SGe => "\\<ge>s",
        };
        let _ = write!(out, "\n     \\<and> {} {} {}", isa_expr(&c.lhs), rel, isa_expr(&c.rhs));
    }
    // Memory-model separations (Definition 3.9) become conjuncts too.
    for (i, t0) in state.model.trees.iter().enumerate() {
        for t1 in state.model.trees.iter().skip(i + 1) {
            for r0 in t0.all_regions() {
                for r1 in t1.all_regions() {
                    let _ = write!(
                        out,
                        "\n     \\<and> separate {} {} {} {}",
                        isa_expr(&r0.addr),
                        r0.size,
                        isa_expr(&r1.addr),
                        r1.size
                    );
                }
            }
        }
    }
    let _ = writeln!(out, "\"");
    let _ = writeln!(out);
}

/// Export a [`LiftResult`] as an Isabelle/HOL theory.
///
/// Every vertex invariant becomes a `definition`, every edge a `lemma`
/// of the form `{P_pre} instr {P_post₁ ∨ …}` discharged by the
/// `se_step` symbolic-execution method, and every generated assumption
/// an explicit named `axiomatization` — "each and any implicit
/// assumption made during HG generation is formalized" (§5.2).
pub fn export_theory(result: &LiftResult, theory_name: &str) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "theory {theory_name}");
    let _ = writeln!(out, "  imports X86_Semantics.StateModel X86_Semantics.SymbolicExecution");
    let _ = writeln!(out, "begin");
    let _ = writeln!(out);
    let _ = writeln!(out, "text \\<open>Generated by hoare-lift. One lemma per Hoare-Graph edge;");
    let _ = writeln!(out, "  each is mutually independent and proved by symbolic execution.\\<close>");
    let _ = writeln!(out);

    // Fixed symbols: initial register values plus every return symbol
    // and fresh unknown occurring anywhere in the export.
    let mut extra: Vec<Sym> = Vec::new();
    for f in result.functions.values() {
        for v in f.graph.vertices.values() {
            for e in v.state.pred.regs.values() {
                extra.extend(e.syms());
            }
            for (r, val) in &v.state.pred.mem {
                extra.extend(r.addr.syms());
                extra.extend(val.syms());
            }
            for c in &v.state.pred.clauses {
                extra.extend(c.lhs.syms());
                extra.extend(c.rhs.syms());
            }
            for r in v.state.model.all_regions() {
                extra.extend(r.addr.syms());
            }
        }
    }
    extra.retain(|s| !matches!(s, Sym::Init(_)));
    extra.sort();
    extra.dedup();
    let _ = writeln!(out, "context");
    let _ = write!(out, "  fixes");
    for r in Reg::ALL {
        let _ = write!(out, " {}\\<^sub>0", r.name64());
    }
    for s in &extra {
        let _ = write!(out, " {}", sym_name(*s));
    }
    let _ = writeln!(out, " :: \"64 word\"");
    let _ = writeln!(out, "begin");
    let _ = writeln!(out);

    let mut lemma_count = 0usize;
    for (entry, f) in &result.functions {
        let _ = writeln!(out, "subsection \\<open>Function {entry:#x}\\<close>");
        let _ = writeln!(out);

        // Assumptions become named axioms.
        for (i, a) in f.assumptions.iter().enumerate() {
            let _ = writeln!(out, "axiomatization where assume_{entry:x}_{i}:");
            let _ = writeln!(
                out,
                "  \"separate {} {} {} {}\"  \\<comment> \\<open>{}\\<close>",
                isa_expr(&a.r0.addr),
                a.r0.size,
                isa_expr(&a.r1.addr),
                a.r1.size,
                a.kind
            );
        }
        for (i, ob) in f.obligations.iter().enumerate() {
            let _ = writeln!(out, "axiomatization where obligation_{entry:x}_{i}:");
            let _ = writeln!(out, "  \"external_call_preserves ''{}'' \\<sigma>\"", ob.callee);
            let _ = writeln!(out, "  \\<comment> \\<open>{ob}\\<close>");
        }
        let _ = writeln!(out);

        for (vid, v) in &f.graph.vertices {
            invariant_def(&format!("{entry:x}_{}", vid_name(*vid)), &v.state, &mut out);
        }

        for (i, e) in f.graph.edges.iter().enumerate() {
            // The postcondition is the disjunction of the invariants of
            // all destinations reachable from this source, whose edges
            // share its instruction (§2: "vertex 14 is translated to a
            // Hoare triple … the disjunction of the invariants at 1a").
            let instr = f.graph.edge_instr(e);
            let posts: Vec<String> = f
                .graph
                .edges
                .iter()
                .filter(|e2| e2.from == e.from)
                .map(|e2| format!("P_{}_{} \\<sigma>'", format_args!("{entry:x}"), vid_name(e2.to)))
                .collect();
            let _ = writeln!(out, "lemma edge_{entry:x}_{i} [se_proofs]:");
            let _ = writeln!(
                out,
                "  assumes \"P_{}_{} \\<sigma>\"",
                format_args!("{entry:x}"),
                vid_name(e.from)
            );
            let _ = writeln!(
                out,
                "  and \"fetch \\<sigma> = instr_at {:#x} ''{}''\"",
                instr.addr, instr
            );
            let _ = writeln!(out, "  and \"\\<sigma>' = exec_instr (fetch \\<sigma>) \\<sigma>\"");
            let _ = writeln!(out, "  shows \"{}\"", posts.join(" \\<or> "));
            let _ = writeln!(out, "  using assms by se_step");
            let _ = writeln!(out);
            lemma_count += 1;
        }
    }

    let _ = writeln!(out, "end  \\<comment> \\<open>context\\<close>");
    let _ = writeln!(out);
    let _ = writeln!(out, "text \\<open>{lemma_count} Hoare-triple lemmas exported.\\<close>");
    let _ = writeln!(out, "end");
    out
}

/// Number of `lemma` lines in a generated theory (convenience for
/// reports and tests).
pub fn lemma_count(theory: &str) -> usize {
    theory.lines().filter(|l| l.starts_with("lemma ")).count()
}

#[cfg(test)]
mod tests {
    use super::*;
    use hgl_expr::Expr;

    #[test]
    fn expr_rendering() {
        let e = Expr::sym(Sym::Init(Reg::Rsp)).sub(Expr::imm(8));
        let s = isa_expr(&e);
        assert!(s.contains("rsp"), "{s}");
        assert!(s.contains('-') || s.contains("0xfffffffffffffff8"), "{s}");
        assert_eq!(isa_expr(&Expr::imm(16)), "(0x10::64 word)");
        assert_eq!(isa_expr(&Expr::bottom()), "undefined");
    }

    #[test]
    fn trunc_rendering() {
        let e = Expr::sym(Sym::Init(Reg::Rdi)).trunc(hgl_x86::Width::B4);
        let s = isa_expr(&e);
        assert!(s.contains("32 word"), "{s}");
    }
}
