//! Machine-readable export of lifted results.
//!
//! Emits a self-contained JSON document per lift: functions, vertices
//! with their invariants (registers, memory facts, clauses, memory
//! model), edges with disassembled instructions, annotations, proof
//! obligations and assumptions — the same information the Isabelle
//! export encodes, in a form downstream tools (decompilers, patchers,
//! CFG consumers; §7 of the paper) can ingest directly.
//!
//! The emitter is hand-rolled: the document structure is fixed and
//! tiny, so a serializer dependency would buy nothing.

use crate::envelope::{open, LIFT_SCHEMA};
use hgl_core::lift::LiftResult;
use hgl_core::VertexId;
use std::fmt::Write;

/// Escape `s` as a JSON string literal, quotes included, into `out`.
/// Control characters never appear raw, so an emitted string never
/// breaks a line.
pub fn write_json_string(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

pub(crate) fn vid(v: VertexId) -> String {
    match v {
        VertexId::At(a, 0) => format!("\"{a:#x}\""),
        VertexId::At(a, n) => format!("\"{a:#x}.{n}\""),
        VertexId::Exit => "\"exit\"".to_string(),
    }
}

/// Serialise a [`LiftResult`] to the `hgl-lift-v1` document.
pub fn export_json(result: &LiftResult) -> String {
    let mut o = open(LIFT_SCHEMA);
    let _ = writeln!(o, "  \"instruction_count\": {},", result.instruction_count());
    let _ = writeln!(o, "  \"state_count\": {},", result.state_count());
    let (a, b, c) = result.indirection_counts();
    let _ = writeln!(
        o,
        "  \"indirections\": {{ \"resolved\": {a}, \"unresolved_jumps\": {b}, \"unresolved_calls\": {c} }},"
    );
    let _ = writeln!(
        o,
        "  \"lifted\": {},",
        if result.is_lifted() { "true" } else { "false" }
    );
    match result.reject_reason() {
        Some(r) => {
            o.push_str("  \"reject_reason\": ");
            write_json_string(&r.to_string(), &mut o);
            o.push_str(",\n");
        }
        None => {
            let _ = writeln!(o, "  \"reject_reason\": null,");
        }
    }
    o.push_str("  \"functions\": [\n");
    for (fi, (entry, f)) in result.functions.iter().enumerate() {
        o.push_str("    {\n");
        let _ = writeln!(o, "      \"entry\": \"{entry:#x}\",");
        let _ = writeln!(o, "      \"returns\": {},", f.returns);
        // Vertices.
        o.push_str("      \"vertices\": [\n");
        for (vi, (id, v)) in f.graph.vertices.iter().enumerate() {
            o.push_str("        {");
            let _ = write!(o, " \"id\": {}, \"invariant\": ", vid(*id));
            write_json_string(&v.state.pred.to_string(), &mut o);
            o.push_str(", \"memory_model\": ");
            write_json_string(&v.state.model.to_string(), &mut o);
            o.push_str(" }");
            if vi + 1 < f.graph.vertices.len() {
                o.push(',');
            }
            o.push('\n');
        }
        o.push_str("      ],\n");
        // Edges.
        o.push_str("      \"edges\": [\n");
        for (ei, e) in f.graph.edges.iter().enumerate() {
            o.push_str("        {");
            let _ = write!(
                o,
                " \"from\": {}, \"to\": {}, \"address\": \"{:#x}\", \"instruction\": ",
                vid(e.from),
                vid(e.to),
                e.instr.addr,
            );
            write_json_string(&e.instr.to_string(), &mut o);
            o.push_str(" }");
            if ei + 1 < f.graph.edges.len() {
                o.push(',');
            }
            o.push('\n');
        }
        o.push_str("      ],\n");
        // Diagnostics.
        let list = |items: Vec<String>| -> String {
            let mut s = String::from("[");
            for (i, it) in items.iter().enumerate() {
                if i > 0 {
                    s.push_str(", ");
                }
                write_json_string(it, &mut s);
            }
            s.push(']');
            s
        };
        let _ = writeln!(
            o,
            "      \"annotations\": {},",
            list(f.annotations.iter().map(|x| x.to_string()).collect())
        );
        let _ = writeln!(
            o,
            "      \"obligations\": {},",
            list(f.obligations.iter().map(|x| x.to_string()).collect())
        );
        let _ = writeln!(
            o,
            "      \"assumptions\": {}",
            list(f.assumptions.iter().map(|x| x.to_string()).collect())
        );
        o.push_str("    }");
        if fi + 1 < result.functions.len() {
            o.push(',');
        }
        o.push('\n');
    }
    o.push_str("  ]\n}\n");
    o
}

/// Serialise one function's Hoare Graph to Graphviz DOT, for visual
/// inspection of the recovered control flow (weird edges included).
pub fn export_dot(result: &LiftResult, entry: u64) -> Option<String> {
    let f = result.functions.get(&entry)?;
    let mut o = String::new();
    let _ = writeln!(o, "digraph hg_{entry:x} {{");
    let _ = writeln!(o, "  node [shape=box, fontname=\"monospace\"];");
    for (id, v) in &f.graph.vertices {
        let label = match id {
            VertexId::At(a, _) => format!("{a:#x}\n{}", truncate(&v.state.pred.to_string(), 60)),
            VertexId::Exit => "exit".to_string(),
        };
        let _ = write!(o, "  {} [label=", node_name(*id));
        write_json_string(&label, &mut o);
        o.push_str("];\n");
    }
    for e in &f.graph.edges {
        let _ = write!(o, "  {} -> {} [label=", node_name(e.from), node_name(e.to));
        write_json_string(&e.instr.to_string(), &mut o);
        o.push_str("];\n");
    }
    let _ = writeln!(o, "}}");
    Some(o)
}

fn node_name(v: VertexId) -> String {
    match v {
        VertexId::At(a, n) => format!("n{a:x}_{n}"),
        VertexId::Exit => "exit".to_string(),
    }
}

fn truncate(s: &str, n: usize) -> String {
    if s.chars().count() <= n {
        s.to_string()
    } else {
        let mut out: String = s.chars().take(n).collect();
        out.push('…');
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hgl_core::Lifter;

    fn demo() -> (hgl_elf::Binary, LiftResult) {
        let mut asm = hgl_asm::Asm::new();
        asm.label("main");
        asm.push(hgl_x86::Reg::Rbp);
        asm.pop(hgl_x86::Reg::Rbp);
        asm.ret();
        let bin = asm.entry("main").assemble().expect("assembles");
        let result = Lifter::new(&bin).lift_entry(bin.entry);
        (bin, result)
    }

    #[test]
    fn json_structure() {
        let (_, result) = demo();
        let j = export_json(&result);
        assert!(j.starts_with('{') && j.trim_end().ends_with('}'));
        assert!(j.contains("\"lifted\": true"), "{j}");
        assert!(j.contains("\"entry\": \"0x401000\""), "{j}");
        assert!(j.contains("push rbp"), "{j}");
        assert!(j.contains("\"reject_reason\": null"), "{j}");
        // Every quote is escaped / balanced: crude sanity check that it
        // parses as JSON by brace counting.
        let opens = j.matches('{').count();
        let closes = j.matches('}').count();
        assert_eq!(opens, closes);
    }

    #[test]
    fn dot_structure() {
        let (bin, result) = demo();
        let dot = export_dot(&result, bin.entry).expect("dot");
        assert!(dot.starts_with("digraph"));
        assert!(dot.contains("->"));
        assert!(dot.contains("exit"));
        assert_eq!(export_dot(&result, 0xdead), None);
    }

    #[test]
    fn escaping() {
        let mut out = String::new();
        write_json_string("a\"b\\c\nd\r\te\u{1}", &mut out);
        assert_eq!(out, "\"a\\\"b\\\\c\\nd\\r\\te\\u0001\"");
    }
}
