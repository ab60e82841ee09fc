//! Differential test of `Json::parse`'s string scan against the
//! per-character scan it replaced, which this file keeps as the
//! reference.
//!
//! The new scan copies each run of plain bytes as one slice; the old
//! one decoded one scalar per step by re-validating the rest of the
//! input, which made a parse quadratic in the frame size. On seeded
//! random strings — multi-byte UTF-8, every escape, paired and lone
//! surrogates, raw control bytes, unterminated input and trailing
//! bytes — both must accept the same documents with equal values and
//! reject the same documents with equal messages.

use hgl_export::json::Json;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// The replaced string scan, kept as it was.
struct Reference<'a> {
    bytes: &'a [u8],
    at: usize,
}

impl Reference<'_> {
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

    fn string(&mut self) -> Result<String, String> {
        if self.peek() != Some(b'"') {
            return Err(format!("expected string at offset {}", self.at));
        }
        self.at += 1;
        let mut out = String::new();
        loop {
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
                Some(c) if c < 0x20 => {
                    return Err(format!("raw control byte {c:#04x} in string"));
                }
                Some(_) => {
                    let rest = &self.bytes[self.at..];
                    let s = std::str::from_utf8(rest).map_err(|_| "non-utf8".to_string())?;
                    let c = s.chars().next().ok_or("empty")?;
                    out.push(c);
                    self.at += c.len_utf8();
                }
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
}

/// What `Json::parse` made of a document that opens with a string,
/// by the reference scan: the string, then only whitespace.
fn reference_parse(input: &str) -> Result<Json, String> {
    let mut p = Reference { bytes: input.as_bytes(), at: 0 };
    let s = p.string()?;
    while let Some(b' ' | b'\t' | b'\n' | b'\r') = p.peek() {
        p.at += 1;
    }
    if p.at != p.bytes.len() {
        return Err(format!("trailing bytes at offset {}", p.at));
    }
    Ok(Json::Str(s))
}

const MULTI_BYTE: [char; 8] = ['é', 'ß', '€', '中', '\u{7f}', '\u{fffd}', '😀', '𝄞'];
const ESCAPES: [&str; 8] = ["\\\"", "\\\\", "\\/", "\\b", "\\f", "\\n", "\\r", "\\t"];
const HEX: &[u8] = b"0123456789abcdefABCDEF";

fn hex_digits(rng: &mut SmallRng, n: usize) -> String {
    (0..n).map(|_| char::from(HEX[rng.gen_range(0..HEX.len())])).collect()
}

/// Up to three hex digits: too few for a `\u` escape.
fn short_hex(rng: &mut SmallRng) -> String {
    let n = rng.gen_range(0..4);
    hex_digits(rng, n)
}

fn surrogate(rng: &mut SmallRng, base: u32) -> String {
    let cp = base + rng.gen_range(0..0x400u32);
    if rng.gen_bool(0.5) {
        format!("\\u{cp:04x}")
    } else {
        format!("\\u{cp:04X}")
    }
}

/// Append one random piece of string body that parses to `out`.
fn piece(rng: &mut SmallRng, out: &mut String) {
    match rng.gen_range(0..8u32) {
        0 => {
            for _ in 0..rng.gen_range(0..40usize) {
                let c = char::from(rng.gen_range(0x20..0x7fu8));
                if c != '"' && c != '\\' {
                    out.push(c);
                }
            }
        }
        1 => out.push(MULTI_BYTE[rng.gen_range(0..MULTI_BYTE.len())]),
        2 => out.push_str(ESCAPES[rng.gen_range(0..ESCAPES.len())]),
        3 => {
            out.push_str("\\u");
            out.push_str(&hex_digits(rng, 4));
        }
        // A well-formed surrogate pair.
        4 => {
            out.push_str(&surrogate(rng, 0xD800));
            out.push_str(&surrogate(rng, 0xDC00));
        }
        // Lone high and lone low surrogates.
        5 => out.push_str(&surrogate(rng, 0xD800)),
        6 => out.push_str(&surrogate(rng, 0xDC00)),
        // A high surrogate followed by an escape that is no low one.
        _ => {
            out.push_str(&surrogate(rng, 0xD800));
            out.push_str("\\u");
            out.push_str(&hex_digits(rng, 4));
        }
    }
}

/// Append one random piece of string body that is (almost always) an
/// error to `out`.
fn bad_piece(rng: &mut SmallRng, out: &mut String) {
    match rng.gen_range(0..4u32) {
        // An unknown escape.
        0 => {
            out.push('\\');
            out.push(['q', 'x', '0', 'U', '\'', ' ', 'é'][rng.gen_range(0..7)]);
        }
        // A short or malformed `\u` escape: too few digits, a sign, or
        // a multi-byte char among the digits.
        1 => {
            out.push_str("\\u");
            out.push_str(&short_hex(rng));
            match rng.gen_range(0..3u32) {
                0 => out.push('+'),
                1 => out.push(MULTI_BYTE[rng.gen_range(0..MULTI_BYTE.len())]),
                _ => {}
            }
            out.push_str(&short_hex(rng));
        }
        2 => out.push(char::from(rng.gen_range(0..0x20u8))),
        // A high surrogate followed by a truncated escape.
        _ => {
            out.push_str(&surrogate(rng, 0xD800));
            out.push_str("\\u");
            out.push_str(&short_hex(rng));
        }
    }
}

/// A document that opens with a string: random pieces, one bad piece
/// in about a third of the documents, then a closing quote, nothing,
/// trailing bytes or a final backslash.
fn document(rng: &mut SmallRng) -> String {
    let mut doc = String::from("\"");
    let n = rng.gen_range(0..12usize);
    let bad_at = rng.gen_bool(0.35).then(|| rng.gen_range(0..=n));
    for i in 0..=n {
        if bad_at == Some(i) {
            bad_piece(rng, &mut doc);
        }
        if i < n {
            piece(rng, &mut doc);
        }
    }
    match rng.gen_range(0..10u32) {
        0 => {}
        1 => doc.push('\\'),
        2 => doc.push_str("\" \t\r\n"),
        3 => doc.push_str("\" x"),
        _ => doc.push('"'),
    }
    doc
}

#[test]
fn string_scan_matches_the_reference_scan() {
    let mut rng = SmallRng::seed_from_u64(0x6a73_6f6e);
    let mut accepted = 0;
    let mut errors: Vec<String> = Vec::new();
    for case in 0..20_000 {
        let doc = document(&mut rng);
        let expected = reference_parse(&doc);
        assert_eq!(Json::parse(&doc), expected, "case {case}: {doc:?}");
        match expected {
            Ok(v) => {
                accepted += 1;
                assert_eq!(Json::parse(&v.to_string()), Ok(v), "case {case}: {doc:?}");
            }
            Err(e) => errors.push(e),
        }
    }
    // Both outcomes, and every way a string can fail, must be exercised
    // for the comparison to mean anything.
    assert!(accepted > 5_000 && errors.len() > 5_000, "accepted {accepted}, rejected {}", errors.len());
    for kind in [
        "unterminated string",
        "bad escape at offset",
        "raw control byte",
        "truncated \\u escape",
        "bad \\u escape",
        "non-utf8 \\u escape",
        "trailing bytes at offset",
    ] {
        assert!(errors.iter().any(|e| e.starts_with(kind)), "no {kind:?} error among the cases");
    }
}

#[test]
fn any_string_round_trips() {
    let mut rng = SmallRng::seed_from_u64(0x7274);
    for case in 0..5_000 {
        let s: String = (0..rng.gen_range(0..40usize))
            .map(|_| match rng.gen_range(0..4u32) {
                0 => char::from(rng.gen_range(0..0x20u8)),
                1 => MULTI_BYTE[rng.gen_range(0..MULTI_BYTE.len())],
                2 => ['"', '\\', '/'][rng.gen_range(0..3)],
                _ => char::from(rng.gen_range(0x20..0x7fu8)),
            })
            .collect();
        let v = Json::Str(s);
        assert_eq!(Json::parse(&v.to_string()), Ok(v.clone()), "case {case}: {v:?}");
    }
}
