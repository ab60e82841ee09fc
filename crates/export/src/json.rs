//! The workspace's one JSON module: the lift-document exporter, the
//! string escaper every emitter shares, and the [`Json`] value that
//! reads and writes the `hgl serve` wire frames.
//!
//! [`export_json`] emits a self-contained document per lift:
//! functions, vertices with their invariants (registers, memory facts,
//! clauses, memory model), edges with disassembled instructions,
//! annotations, proof obligations and assumptions — the same
//! information the Isabelle export encodes, in a form downstream tools
//! (decompilers, patchers, CFG consumers; §7 of the paper) can ingest
//! directly.
//!
//! Every frame the daemon reads arrives from an untrusted client, so
//! [`Json::parse`] is written the way the ELF reader is: bounds-checked
//! at every byte, depth-limited, linear in the input, and returning
//! structured errors instead of panicking, ever. [`Json`]'s emitter is
//! deterministic (object keys keep insertion order) and never produces
//! raw control characters inside strings, which is what lets a frame
//! be delimited by a single `\n`.
//!
//! Both sides are hand-rolled: the documents are fixed and tiny, so a
//! serializer dependency would buy nothing. Numbers are held as `f64`;
//! every integer the protocol carries (ids, byte counts, millisecond
//! deadlines) fits `f64` exactly up to 2^53, far beyond any value the
//! daemon accepts.

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

/// Nesting depth cap: documents deeper than this are rejected rather
/// than recursed into (stack safety against `[[[[...` bombs).
const MAX_DEPTH: usize = 64;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any number.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object; insertion-ordered, duplicate keys keep the last.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Parse one complete JSON document; trailing non-whitespace is an
    /// error (a frame is exactly one value).
    pub fn parse(input: &str) -> Result<Json, String> {
        let mut p = Parser { src: input, bytes: input.as_bytes(), at: 0 };
        p.skip_ws();
        let v = p.value(0)?;
        p.skip_ws();
        if p.at != p.bytes.len() {
            return Err(format!("trailing bytes at offset {}", p.at));
        }
        Ok(v)
    }

    /// Object field lookup (`None` for non-objects and missing keys).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().rev().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The numeric payload as a non-negative integer, if it is one.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(n) if *n >= 0.0 && n.fract() == 0.0 && *n <= 2f64.powi(53) => {
                Some(*n as u64)
            }
            _ => None,
        }
    }

    /// The boolean payload, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    fn write(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(true) => out.push_str("true"),
            Json::Bool(false) => out.push_str("false"),
            Json::Num(n) => {
                if n.is_finite() {
                    if n.fract() == 0.0 && n.abs() <= 2f64.powi(53) {
                        let _ = write!(out, "{}", *n as i64);
                    } else {
                        let _ = write!(out, "{n}");
                    }
                } else {
                    out.push_str("null");
                }
            }
            Json::Str(s) => write_json_string(s, out),
            Json::Arr(items) => {
                out.push('[');
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    v.write(out);
                }
                out.push(']');
            }
            Json::Obj(fields) => {
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_json_string(k, out);
                    out.push(':');
                    v.write(out);
                }
                out.push('}');
            }
        }
    }
}

/// Single-line serialisation (no raw newlines anywhere); `to_string`
/// comes for free via `ToString`.
impl std::fmt::Display for Json {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let mut out = String::new();
        self.write(&mut out);
        f.write_str(&out)
    }
}

struct Parser<'a> {
    src: &'a str,
    bytes: &'a [u8],
    at: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while let Some(b' ' | b'\t' | b'\n' | b'\r') = self.bytes.get(self.at) {
            self.at += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.at).copied()
    }

    fn eat(&mut self, token: &str) -> bool {
        if self.bytes[self.at..].starts_with(token.as_bytes()) {
            self.at += token.len();
            true
        } else {
            false
        }
    }

    fn value(&mut self, depth: usize) -> Result<Json, String> {
        if depth > MAX_DEPTH {
            return Err(format!("nesting deeper than {MAX_DEPTH}"));
        }
        match self.peek() {
            None => Err("unexpected end of input".to_string()),
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => self.string().map(Json::Str),
            Some(b'[') => self.array(depth),
            Some(b'{') => self.object(depth),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(c) => Err(format!("unexpected byte {c:#04x} at offset {}", self.at)),
        }
    }

    fn literal(&mut self, token: &str, v: Json) -> Result<Json, String> {
        if self.eat(token) {
            Ok(v)
        } else {
            Err(format!("bad literal at offset {}", self.at))
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.at;
        if self.peek() == Some(b'-') {
            self.at += 1;
        }
        while let Some(b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-') = self.peek() {
            self.at += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.at])
            .map_err(|_| "non-utf8 number".to_string())?;
        text.parse::<f64>()
            .ok()
            .filter(|n| n.is_finite())
            .map(Json::Num)
            .ok_or_else(|| format!("bad number {text:?} at offset {start}"))
    }

    fn string(&mut self) -> Result<String, String> {
        if self.peek() != Some(b'"') {
            return Err(format!("expected string at offset {}", self.at));
        }
        self.at += 1;
        let mut out = String::new();
        loop {
            // Copy the run of plain bytes up to the next quote, escape or
            // control byte as one slice. The run ends on an ASCII byte or
            // at the end of the input, so on a char boundary.
            let run = self.bytes[self.at..]
                .iter()
                .position(|&c| c == b'"' || c == b'\\' || c < 0x20)
                .unwrap_or(self.bytes.len() - self.at);
            out.push_str(self.src.get(self.at..self.at + run).ok_or("non-utf8")?);
            self.at += run;
            match self.peek() {
                None => return Err("unterminated string".to_string()),
                Some(b'"') => {
                    self.at += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.at += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'u') => {
                            self.at += 1;
                            let cp = self.hex4()?;
                            // Surrogate pairs: decode when well-formed,
                            // U+FFFD when lone (never an error — ids
                            // round-trip, payloads are hex anyway).
                            let c = if (0xD800..0xDC00).contains(&cp) {
                                if self.eat("\\u") {
                                    let lo = self.hex4()?;
                                    let combined = 0x10000
                                        + ((cp - 0xD800) << 10)
                                        + lo.saturating_sub(0xDC00);
                                    char::from_u32(combined).unwrap_or('\u{FFFD}')
                                } else {
                                    '\u{FFFD}'
                                }
                            } else {
                                char::from_u32(cp).unwrap_or('\u{FFFD}')
                            };
                            out.push(c);
                            continue;
                        }
                        _ => return Err(format!("bad escape at offset {}", self.at)),
                    }
                    self.at += 1;
                }
                Some(c) => return Err(format!("raw control byte {c:#04x} in string")),
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, String> {
        let end = self.at.checked_add(4).filter(|e| *e <= self.bytes.len());
        let Some(end) = end else {
            return Err("truncated \\u escape".to_string());
        };
        let s = std::str::from_utf8(&self.bytes[self.at..end])
            .map_err(|_| "non-utf8 \\u escape".to_string())?;
        let cp = u32::from_str_radix(s, 16).map_err(|_| format!("bad \\u escape {s:?}"))?;
        self.at = end;
        Ok(cp)
    }

    fn array(&mut self, depth: usize) -> Result<Json, String> {
        self.at += 1; // '['
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.at += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value(depth + 1)?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.at += 1,
                Some(b']') => {
                    self.at += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(format!("expected ',' or ']' at offset {}", self.at)),
            }
        }
    }

    fn object(&mut self, depth: usize) -> Result<Json, String> {
        self.at += 1; // '{'
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.at += 1;
            return Ok(Json::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            if self.peek() != Some(b':') {
                return Err(format!("expected ':' at offset {}", self.at));
            }
            self.at += 1;
            self.skip_ws();
            let value = self.value(depth + 1)?;
            fields.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.at += 1,
                Some(b'}') => {
                    self.at += 1;
                    return Ok(Json::Obj(fields));
                }
                _ => return Err(format!("expected ',' or '}}' at offset {}", self.at)),
            }
        }
    }
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
        let _ = writeln!(o, "      \"returns\": {},", f.graph.returns());
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
            let instr = f.graph.edge_instr(e);
            o.push_str("        {");
            let _ = write!(
                o,
                " \"from\": {}, \"to\": {}, \"address\": \"{:#x}\", \"instruction\": ",
                vid(e.from),
                vid(e.to),
                instr.addr,
            );
            write_json_string(&instr.to_string(), &mut o);
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
        write_json_string(&f.graph.edge_instr(e).to_string(), &mut o);
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
        let doc = Json::parse(&j).expect("the lift document is json");
        assert_eq!(doc.get("lifted").and_then(Json::as_bool), Some(true));
        assert_eq!(doc.get("reject_reason"), Some(&Json::Null));
        let Some(Json::Arr(functions)) = doc.get("functions") else { panic!("functions: {j}") };
        assert_eq!(functions.len(), 1);
        assert_eq!(functions[0].get("entry").and_then(Json::as_str), Some("0x401000"));
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

    #[test]
    fn round_trips() {
        for doc in [
            r#"null"#,
            r#"true"#,
            r#"-3"#,
            r#"{"id":1,"op":"lift","full":false}"#,
            r#"{"a":[1,2,{"b":"c"}],"d":"\n\t\"x\""}"#,
        ] {
            let v = Json::parse(doc).expect(doc);
            let emitted = v.to_string();
            assert_eq!(Json::parse(&emitted).expect("reparse"), v, "{doc}");
            assert!(!emitted.contains('\n'), "single-line framing: {emitted}");
        }
    }

    #[test]
    fn rejects_garbage_without_panicking() {
        for doc in [
            "", "{", "[", "\"", "{\"a\"", "{\"a\":}", "[1,", "nul", "tru", "+1", "1 2",
            "{\"a\":1}x", "\u{1}", "\"\\u12\"", "\"\\q\"", "01a",
        ] {
            assert!(Json::parse(doc).is_err(), "should reject {doc:?}");
        }
    }

    #[test]
    fn depth_bomb_is_rejected() {
        let bomb = "[".repeat(100_000);
        assert!(Json::parse(&bomb).is_err());
    }

    #[test]
    fn field_access() {
        let v = Json::parse(r#"{"id":7,"op":"ping","deep":{"x":true}}"#).expect("parse");
        assert_eq!(v.get("id").and_then(Json::as_u64), Some(7));
        assert_eq!(v.get("op").and_then(Json::as_str), Some("ping"));
        assert_eq!(v.get("deep").and_then(|d| d.get("x")).and_then(Json::as_bool), Some(true));
        assert_eq!(v.get("missing"), None);
    }

    #[test]
    fn control_chars_escaped_on_emit() {
        let v = Json::Str("a\nb\u{2}c".to_string());
        assert_eq!(v.to_string(), "\"a\\nb\\u0002c\"");
    }
}
