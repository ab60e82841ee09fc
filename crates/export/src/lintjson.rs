//! JSON export of a static-analysis report (`hgl lint --json`).
//!
//! Like the lift export, the emitter is hand-rolled: the schema is
//! fixed and tiny. The document is fully deterministic — functions,
//! writes and diagnostics are emitted in their already-sorted order —
//! so it is golden-snapshot tested byte-for-byte.

use crate::envelope::{open, LINT_SCHEMA};
use crate::json::{vid, write_json_string};
use hgl_analysis::{AnalysisReport, ClassifiedWrite};
use std::fmt::Write;

fn write_json(o: &mut String, w: &ClassifiedWrite) {
    let _ = write!(
        o,
        "{{ \"addr\": \"{:#x}\", \"size\": {}, \"family\": \"{}\", \"resolved\": {}, \
         \"classes\": [",
        w.addr,
        w.size,
        w.family(),
        w.resolved(),
    );
    for (i, c) in w.classes.iter().enumerate() {
        if i > 0 {
            o.push_str(", ");
        }
        write_json_string(&c.to_string(), o);
    }
    o.push_str("] }");
}

/// Serialise an [`AnalysisReport`] to the `hgl-lint-v1` document.
pub fn export_lint_json(report: &AnalysisReport) -> String {
    let mut o = open(LINT_SCHEMA);
    let t = &report.totals;
    let _ = writeln!(
        o,
        "  \"write_totals\": {{ \"total\": {}, \"stack_local\": {}, \"global\": {}, \
         \"heap_symbol\": {}, \"unresolved\": {}, \"resolved_fraction\": {:.4} }},",
        t.total(),
        t.stack_local,
        t.global,
        t.heap_symbol,
        t.unresolved,
        t.resolved_fraction(),
    );

    o.push_str("  \"functions\": [\n");
    let mut first = true;
    for f in report.functions.values() {
        if !first {
            o.push_str(",\n");
        }
        first = false;
        let _ = write!(
            o,
            "    {{ \"entry\": \"{:#x}\", \"states\": {}, \"reachable_states\": {}, \
             \"exit_reaching_states\": {}, \"max_stack_depth\": ",
            f.entry, f.states, f.reachable_states, f.exit_reaching_states,
        );
        match f.max_stack_depth {
            Some(d) => {
                let _ = write!(o, "{d}");
            }
            None => o.push_str("null"),
        }
        o.push_str(", \"writes\": [");
        for (i, w) in f.writes.iter().enumerate() {
            if i > 0 {
                o.push_str(", ");
            }
            write_json(&mut o, w);
        }
        o.push_str("] }");
    }
    o.push_str("\n  ],\n");

    o.push_str("  \"diags\": [\n");
    let mut first = true;
    for d in &report.diags {
        if !first {
            o.push_str(",\n");
        }
        first = false;
        let node = d.node.map_or("null".to_string(), vid);
        let edge = d.edge.map_or("null".to_string(), |(a, b)| format!("[{}, {}]", vid(a), vid(b)));
        let _ = write!(
            o,
            "    {{ \"severity\": \"{}\", \"rule\": \"{}\", \"function\": \"{:#x}\", \
             \"node\": {node}, \"edge\": {edge}, \"detail\": ",
            d.severity,
            d.rule,
            d.function,
        );
        write_json_string(&d.detail, &mut o);
        o.push_str(" }");
    }
    o.push_str("\n  ]\n");
    o.push_str("}\n");
    o
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_report_is_valid_shape() {
        let json = export_lint_json(&AnalysisReport::default());
        assert!(json.contains("\"schema\": \"hgl-lint-v1\""));
        assert!(json.contains("\"resolved_fraction\": 1.0000"));
        assert!(json.starts_with("{\n"));
        assert!(json.ends_with("}\n"));
    }
}
