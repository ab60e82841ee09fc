//! The `hgl serve` wire protocol: JSON Lines over a byte stream.
//!
//! One request per line, one response per line, correlated by the
//! client-chosen `id` (echoed verbatim, any JSON scalar). The protocol
//! is *total*: every line the client sends — including unparseable
//! garbage — produces exactly one structured response, and the daemon
//! never closes a connection in reaction to a bad frame.
//!
//! ## Requests
//!
//! ```json
//! {"id": 1, "op": "lift", "binary": "<hex ELF image>", "deadline_ms": 500}
//! {"id": 2, "op": "lint", "binary": "<hex>", "full": true}
//! {"id": 3, "op": "metrics"}
//! {"id": 4, "op": "ping"}
//! {"id": 5, "op": "shutdown"}
//! ```
//!
//! ## Responses
//!
//! Every response carries `id` and `status`:
//!
//! - `"ok"` — op-specific payload fields alongside;
//! - `"bad_request"` — the frame was malformed; `error` explains;
//! - `"overloaded"` — admission control shed the request before it
//!   consumed compute; `retry_after_ms` hints when to come back;
//! - `"deadline"` — the watchdog fired: the request's deadline (plus
//!   grace) passed before a worker finished it;
//! - `"shutting_down"` — the daemon is draining; the request was not
//!   executed;
//! - `"internal"` — the request panicked inside the engine; the panic
//!   was isolated to the request and the daemon is still healthy.

use crate::Json;
use std::io::{self, Write};

/// Upper bound on a hex-encoded binary payload (decoded bytes); frames
/// above it are rejected as `bad_request` before decoding allocates.
pub const MAX_BINARY_BYTES: usize = 32 << 20;

/// The operations a frame can request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// Liveness probe; answered on the connection thread.
    Ping,
    /// Server + cache + store counters; answered on the connection
    /// thread.
    Metrics,
    /// Begin graceful shutdown.
    Shutdown,
    /// Lift a binary (hex `binary` payload) on the engine.
    Lift,
    /// Lift and run the soundness lints over the result.
    Lint,
}

impl Op {
    /// Stable wire tag (also the coalescing-key discriminant).
    pub fn tag(self) -> &'static str {
        match self {
            Op::Ping => "ping",
            Op::Metrics => "metrics",
            Op::Shutdown => "shutdown",
            Op::Lift => "lift",
            Op::Lint => "lint",
        }
    }
}

/// A validated request frame.
#[derive(Debug, Clone)]
pub struct Request {
    /// The client's correlation id, re-serialised (echoed verbatim).
    pub id: String,
    /// The requested operation.
    pub op: Op,
    /// Decoded binary image for `lift` / `lint`.
    pub binary: Vec<u8>,
    /// Relative deadline in milliseconds, if the client set one.
    pub deadline_ms: Option<u64>,
    /// `lift`: embed the full `hgl-lift-v*` report; `lint`: embed the
    /// full `hgl-lint-v*` report.
    pub full: bool,
    /// Test hook: makes the handler panic inside the worker. Honored
    /// only when the server was built with fault injection enabled.
    pub inject_panic: bool,
}

/// A frame rejection: the echoed id (when one was recoverable) plus a
/// human-readable reason.
#[derive(Debug)]
pub struct BadFrame {
    /// Re-serialised `id` of the offending frame, `null` if none.
    pub id: String,
    /// What was wrong.
    pub error: String,
}

/// Parse and validate one JSONL frame.
pub fn parse_request(line: &str) -> Result<Request, BadFrame> {
    let doc = match Json::parse(line) {
        Ok(doc) => doc,
        Err(e) => return Err(BadFrame { id: "null".to_string(), error: format!("bad json: {e}") }),
    };
    // The id is echoed even when the rest of the frame is invalid, so
    // pipelined clients can correlate the rejection.
    let id = doc.get("id").map(Json::to_string).unwrap_or_else(|| "null".to_string());
    let fail = |error: String| BadFrame { id: id.clone(), error };

    if !matches!(doc, Json::Obj(_)) {
        return Err(fail("frame must be a json object".to_string()));
    }
    let op = match doc.get("op").and_then(Json::as_str) {
        Some("ping") => Op::Ping,
        Some("metrics") => Op::Metrics,
        Some("shutdown") => Op::Shutdown,
        Some("lift") => Op::Lift,
        Some("lint") => Op::Lint,
        Some(other) => return Err(fail(format!("unknown op {other:?}"))),
        None => return Err(fail("missing op".to_string())),
    };

    let mut binary = Vec::new();
    if matches!(op, Op::Lift | Op::Lint) {
        let hex = doc
            .get("binary")
            .and_then(Json::as_str)
            .ok_or_else(|| fail(format!("op {:?} requires a hex \"binary\" field", op.tag())))?;
        if hex.len() / 2 > MAX_BINARY_BYTES {
            return Err(fail(format!("binary exceeds {MAX_BINARY_BYTES} bytes")));
        }
        binary = hex_decode(hex).map_err(&fail)?;
        if binary.is_empty() {
            return Err(fail("binary payload is empty".to_string()));
        }
    }

    let deadline_ms = match doc.get("deadline_ms") {
        None | Some(Json::Null) => None,
        Some(v) => Some(
            v.as_u64().ok_or_else(|| fail("deadline_ms must be a non-negative integer".to_string()))?,
        ),
    };

    let flag = |key: &str| -> Result<bool, BadFrame> {
        match doc.get(key) {
            None | Some(Json::Null) => Ok(false),
            Some(v) => v.as_bool().ok_or_else(|| fail(format!("{key} must be a boolean"))),
        }
    };

    let full = flag("full")?;
    let inject_panic = flag("inject_panic")?;
    Ok(Request { id, op, binary, deadline_ms, full, inject_panic })
}

/// Lowercase hex digit of each nibble value.
const HEX_DIGITS: &[u8; 16] = b"0123456789abcdef";

/// Marks a non-hex byte in [`HEX_VALUES`].
const NOT_HEX: u8 = 0xff;

/// Nibble value of each byte (either case), or [`NOT_HEX`].
const HEX_VALUES: [u8; 256] = {
    let mut table = [NOT_HEX; 256];
    let mut i = 0;
    while i < 16 {
        table[HEX_DIGITS[i] as usize] = i as u8;
        table[HEX_DIGITS[i].to_ascii_uppercase() as usize] = i as u8;
        i += 1;
    }
    table
};

/// Decode a hex string (case-insensitive, no separators).
pub fn hex_decode(hex: &str) -> Result<Vec<u8>, String> {
    let bytes = hex.as_bytes();
    if !bytes.len().is_multiple_of(2) {
        return Err("hex payload has odd length".to_string());
    }
    let nibble = |b: u8| -> Result<u8, String> {
        match HEX_VALUES[usize::from(b)] {
            NOT_HEX => Err(format!("non-hex byte {:#04x} in binary payload", b)),
            v => Ok(v),
        }
    };
    let mut out = Vec::with_capacity(bytes.len() / 2);
    for pair in bytes.chunks_exact(2) {
        out.push((nibble(pair[0])? << 4) | nibble(pair[1])?);
    }
    Ok(out)
}

/// Encode bytes as lowercase hex (the client side of `hex_decode`).
pub fn hex_encode(bytes: &[u8]) -> String {
    let mut out = String::with_capacity(bytes.len() * 2);
    for &b in bytes {
        out.push(char::from(HEX_DIGITS[usize::from(b >> 4)]));
        out.push(char::from(HEX_DIGITS[usize::from(b & 0xf)]));
    }
    out
}

/// Start a response line: `{"id":<id>,"status":"<status>"`. The id is
/// already serialised JSON; callers append fields and close with `}`.
pub fn response_head(id: &str, status: &str) -> String {
    format!("{{\"id\":{id},\"status\":\"{status}\"")
}

/// A complete single-field error response.
pub fn error_response(id: &str, status: &str, error: &str) -> String {
    let mut out = response_head(id, status);
    out.push_str(",\"error\":");
    hgl_export::json::write_json_string(error, &mut out);
    out.push('}');
    out
}

/// The `overloaded` shed response with its retry hint.
pub fn overloaded_response(id: &str, retry_after_ms: u64) -> String {
    let mut out = response_head(id, "overloaded");
    out.push_str(&format!(",\"retry_after_ms\":{retry_after_ms}}}"));
    out
}

/// Write `line` as one JSON Lines frame: the line and its `\n` in a
/// single `write_all`. Sent as two writes on a socket with Nagle's
/// algorithm on, the lone newline would wait for the peer's delayed ACK.
pub(crate) fn write_frame(w: &mut impl Write, line: &str) -> io::Result<()> {
    let mut frame = Vec::with_capacity(line.len() + 1);
    frame.extend_from_slice(line.as_bytes());
    frame.push(b'\n');
    w.write_all(&frame)
}

/// Collapse a multi-line embedded JSON document onto one line so it can
/// ride inside a JSONL frame. Sound because the embedded emitters
/// (`hgl-export`) escape every newline that occurs *inside* a string;
/// raw `\n` bytes are pure formatting.
pub fn one_line(doc: &str) -> String {
    doc.split(['\n', '\r']).map(str::trim).collect::<Vec<_>>().join(" ").trim().to_string()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_minimal_ops() {
        let r = parse_request(r#"{"id":1,"op":"ping"}"#).expect("ping");
        assert_eq!(r.op, Op::Ping);
        assert_eq!(r.id, "1");
        let r = parse_request(r#"{"id":"x","op":"metrics"}"#).expect("metrics");
        assert_eq!(r.op, Op::Metrics);
        assert_eq!(r.id, "\"x\"");
    }

    #[test]
    fn parses_lift_with_payload_and_deadline() {
        let r = parse_request(r#"{"id":7,"op":"lift","binary":"7f454c46","deadline_ms":250,"full":true}"#)
            .expect("lift");
        assert_eq!(r.op, Op::Lift);
        assert_eq!(r.binary, vec![0x7f, b'E', b'L', b'F']);
        assert_eq!(r.deadline_ms, Some(250));
        assert!(r.full);
        assert!(!r.inject_panic);
    }

    #[test]
    fn echoes_id_on_rejection() {
        let e = parse_request(r#"{"id":42,"op":"nope"}"#).expect_err("bad op");
        assert_eq!(e.id, "42");
        assert!(e.error.contains("unknown op"));
        let e = parse_request(r#"{"id":42,"op":"lift"}"#).expect_err("missing binary");
        assert_eq!(e.id, "42");
        let e = parse_request("not json at all").expect_err("bad json");
        assert_eq!(e.id, "null");
    }

    #[test]
    fn rejects_bad_payloads() {
        for frame in [
            r#"{"id":1,"op":"lift","binary":"xyz1"}"#,
            r#"{"id":1,"op":"lift","binary":"abc"}"#,
            r#"{"id":1,"op":"lift","binary":""}"#,
            r#"{"id":1,"op":"lift","binary":"00","deadline_ms":-5}"#,
            r#"{"id":1,"op":"lift","binary":"00","deadline_ms":1.5}"#,
            r#"{"id":1,"op":"lift","binary":"00","full":"yes"}"#,
            r#"[1,2,3]"#,
            r#""just a string""#,
        ] {
            assert!(parse_request(frame).is_err(), "should reject {frame}");
        }
    }

    #[test]
    fn hex_round_trip() {
        let bytes: Vec<u8> = (0..=255).collect();
        assert_eq!(hex_decode(&hex_encode(&bytes)).expect("round trip"), bytes);
        assert_eq!(hex_decode("7F454C46").expect("uppercase"), vec![0x7f, 0x45, 0x4c, 0x46]);
    }

    #[test]
    fn hex_encode_is_lowercase_two_digits_per_byte() {
        let bytes: Vec<u8> = (0..=255).collect();
        let expected: String = bytes.iter().map(|b| format!("{b:02x}")).collect();
        assert_eq!(hex_encode(&bytes), expected);
    }

    #[test]
    fn hex_decode_error_messages_are_pinned() {
        assert_eq!(hex_decode("7f4").unwrap_err(), "hex payload has odd length");
        assert_eq!(hex_decode("7g").unwrap_err(), "non-hex byte 0x67 in binary payload");
        // The first offending byte is named, even in the high nibble.
        assert_eq!(hex_decode("00zG").unwrap_err(), "non-hex byte 0x7a in binary payload");
        assert_eq!(hex_decode("\u{e9}0").unwrap_err(), "hex payload has odd length");
        assert_eq!(hex_decode("0\u{e9}0").unwrap_err(), "non-hex byte 0xc3 in binary payload");
        // Every byte outside [0-9a-fA-F] is rejected, in either nibble;
        // every digit decodes to its value in either case.
        for b in 0..=255u8 {
            let digit = b.is_ascii_hexdigit();
            for pair in [[b'0', b], [b, b'0']] {
                let Ok(text) = std::str::from_utf8(&pair) else { continue };
                match hex_decode(text) {
                    Ok(v) => {
                        assert!(digit, "{b:#04x} decoded to {v:?}");
                        assert_eq!(v, [u8::from_str_radix(text, 16).expect("two hex digits")]);
                    }
                    Err(e) => {
                        assert!(!digit, "{b:#04x}: {e}");
                        assert_eq!(e, format!("non-hex byte {b:#04x} in binary payload"));
                    }
                }
            }
        }
    }

    #[test]
    fn response_builders_emit_valid_json() {
        for line in [
            error_response("null", "bad_request", "bad json: oops\nnewline"),
            overloaded_response("17", 120),
            response_head("\"abc\"", "ok") + "}",
        ] {
            assert!(!line.contains('\n'), "single-line: {line}");
            Json::parse(&line).expect("valid json");
        }
    }

    #[test]
    fn write_frame_makes_one_write_of_line_and_newline() {
        /// Records the buffer of every `write` call.
        struct Recorder(Vec<Vec<u8>>);
        impl Write for Recorder {
            fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
                self.0.push(buf.to_vec());
                Ok(buf.len())
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }
        let mut w = Recorder(Vec::new());
        write_frame(&mut w, r#"{"id":1,"status":"ok"}"#).expect("write");
        assert_eq!(w.0, vec![b"{\"id\":1,\"status\":\"ok\"}\n".to_vec()]);
    }

    #[test]
    fn one_line_flattens_pretty_json() {
        let doc = "{\n  \"a\": 1,\n  \"b\": \"x\\ny\"\n}\n";
        let flat = one_line(doc);
        assert!(!flat.contains('\n'));
        assert_eq!(Json::parse(&flat).expect("valid").get("b").and_then(Json::as_str), Some("x\ny"));
    }
}
