//! A minimal, dependency-free JSON value with a stable writer and a strict parser.
//!
//! The container image vendors no serde, so the sweep harness carries its own JSON:
//! objects are **ordered** `(key, value)` vectors, which makes the emitted
//! `BENCH_sweep.json` byte-stable across runs (map iteration order never leaks into
//! the artifact) and keeps committed-baseline diffs minimal. Numbers are written with
//! Rust's shortest round-trip `Display` for `f64`, so `parse(write(x)) == x` for every
//! finite value the harness produces.

use std::fmt::Write as _;

/// A JSON value.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any number (stored as `f64`; integers up to 2^53 round-trip exactly).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, as insertion-ordered key/value pairs.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Object field lookup (first match).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as a number, if it is one.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The value as a non-negative integer, if it is one.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(n) if *n >= 0.0 && n.fract() == 0.0 => Some(*n as u64),
            _ => None,
        }
    }

    /// The value as a string slice, if it is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as a bool, if it is one.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The value as an array slice, if it is one.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Serialize with two-space indentation and a trailing newline.
    pub fn to_pretty_string(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, Some(0));
        out.push('\n');
        out
    }

    /// Serialize on one line, with no whitespace between tokens and no trailing
    /// newline, so a line-oriented protocol can carry the document as one reply.
    pub fn to_line_string(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, None);
        out
    }

    /// Write at indentation `depth`, or on one line with `None`.
    fn write(&self, out: &mut String, depth: Option<usize>) {
        let inner = depth.map(|d| d + 1);
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(n) => {
                if n.is_finite() {
                    let _ = write!(out, "{n}");
                } else {
                    out.push_str("null");
                }
            }
            Json::Str(s) => write_escaped(out, s),
            Json::Arr(items) => {
                if items.is_empty() {
                    out.push_str("[]");
                    return;
                }
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    newline(out, inner);
                    item.write(out, inner);
                }
                newline(out, depth);
                out.push(']');
            }
            Json::Obj(pairs) => {
                if pairs.is_empty() {
                    out.push_str("{}");
                    return;
                }
                out.push('{');
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    newline(out, inner);
                    write_escaped(out, k);
                    out.push_str(if depth.is_some() { ": " } else { ":" });
                    v.write(out, inner);
                }
                newline(out, depth);
                out.push('}');
            }
        }
    }

    /// Parse a complete JSON document (trailing whitespace allowed, nothing else).
    pub fn parse(text: &str) -> Result<Json, String> {
        let bytes = text.as_bytes();
        let mut pos = 0;
        let value = parse_value(bytes, &mut pos)?;
        skip_ws(bytes, &mut pos);
        if pos != bytes.len() {
            return Err(format!("trailing garbage at byte {pos}"));
        }
        Ok(value)
    }
}

/// Break the line and indent to `depth`; nothing when writing on one line (`None`).
fn newline(out: &mut String, depth: Option<usize>) {
    if let Some(depth) = depth {
        out.push('\n');
        for _ in 0..depth {
            out.push_str("  ");
        }
    }
}

fn write_escaped(out: &mut String, s: &str) {
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

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(bytes: &[u8], pos: &mut usize, c: u8) -> Result<(), String> {
    if *pos < bytes.len() && bytes[*pos] == c {
        *pos += 1;
        Ok(())
    } else {
        Err(format!("expected `{}` at byte {}", c as char, *pos))
    }
}

fn parse_value(bytes: &[u8], pos: &mut usize) -> Result<Json, String> {
    skip_ws(bytes, pos);
    let Some(&c) = bytes.get(*pos) else { return Err("unexpected end of input".to_string()) };
    match c {
        b'n' => parse_literal(bytes, pos, "null", Json::Null),
        b't' => parse_literal(bytes, pos, "true", Json::Bool(true)),
        b'f' => parse_literal(bytes, pos, "false", Json::Bool(false)),
        b'"' => Ok(Json::Str(parse_string(bytes, pos)?)),
        b'[' => {
            *pos += 1;
            let mut items = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b']') {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            loop {
                items.push(parse_value(bytes, pos)?);
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b']') => {
                        *pos += 1;
                        return Ok(Json::Arr(items));
                    }
                    _ => return Err(format!("expected `,` or `]` at byte {}", *pos)),
                }
            }
        }
        b'{' => {
            *pos += 1;
            let mut pairs = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b'}') {
                *pos += 1;
                return Ok(Json::Obj(pairs));
            }
            loop {
                skip_ws(bytes, pos);
                let key = parse_string(bytes, pos)?;
                skip_ws(bytes, pos);
                expect(bytes, pos, b':')?;
                let value = parse_value(bytes, pos)?;
                pairs.push((key, value));
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b'}') => {
                        *pos += 1;
                        return Ok(Json::Obj(pairs));
                    }
                    _ => return Err(format!("expected `,` or `}}` at byte {}", *pos)),
                }
            }
        }
        b'-' | b'0'..=b'9' => {
            let start = *pos;
            if bytes[*pos] == b'-' {
                *pos += 1;
            }
            while *pos < bytes.len()
                && matches!(bytes[*pos], b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')
            {
                *pos += 1;
            }
            let text = std::str::from_utf8(&bytes[start..*pos]).expect("ascii");
            text.parse::<f64>()
                .map(Json::Num)
                .map_err(|e| format!("bad number `{text}` at byte {start}: {e}"))
        }
        other => Err(format!("unexpected byte `{}` at {}", other as char, *pos)),
    }
}

fn parse_literal(bytes: &[u8], pos: &mut usize, lit: &str, value: Json) -> Result<Json, String> {
    if bytes[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(value)
    } else {
        Err(format!("bad literal at byte {}", *pos))
    }
}

fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, String> {
    expect(bytes, pos, b'"')?;
    let mut out = String::new();
    loop {
        let Some(&c) = bytes.get(*pos) else { return Err("unterminated string".to_string()) };
        *pos += 1;
        match c {
            b'"' => return Ok(out),
            b'\\' => {
                let Some(&esc) = bytes.get(*pos) else {
                    return Err("unterminated escape".to_string());
                };
                *pos += 1;
                match esc {
                    b'"' => out.push('"'),
                    b'\\' => out.push('\\'),
                    b'/' => out.push('/'),
                    b'n' => out.push('\n'),
                    b'r' => out.push('\r'),
                    b't' => out.push('\t'),
                    b'b' => out.push('\u{8}'),
                    b'f' => out.push('\u{c}'),
                    b'u' => {
                        let hex = bytes
                            .get(*pos..*pos + 4)
                            .ok_or_else(|| "truncated \\u escape".to_string())?;
                        let hex = std::str::from_utf8(hex).map_err(|_| "bad \\u escape")?;
                        let code = u32::from_str_radix(hex, 16)
                            .map_err(|_| format!("bad \\u escape `{hex}`"))?;
                        *pos += 4;
                        out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                    }
                    other => return Err(format!("bad escape `\\{}`", other as char)),
                }
            }
            c if c < 0x80 => out.push(c as char),
            _ => {
                // Multi-byte UTF-8: find the full character from the source slice.
                let start = *pos - 1;
                let s = std::str::from_utf8(&bytes[start..]).map_err(|e| e.to_string())?;
                let ch = s.chars().next().expect("non-empty");
                out.push(ch);
                *pos = start + ch.len_utf8();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn obj(pairs: Vec<(&str, Json)>) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    }

    #[test]
    fn round_trips_a_nested_document() {
        let doc = obj(vec![
            ("schema", Json::Str("hoplite-sweep-v1".into())),
            ("count", Json::Num(124.0)),
            ("ratio", Json::Num(0.0625)),
            ("ok", Json::Bool(true)),
            ("failure", Json::Null),
            (
                "cells",
                Json::Arr(vec![obj(vec![
                    ("id", Json::Str("fat32/none/broadcast/s0".into())),
                    ("completion_s", Json::Num(0.123456789)),
                ])]),
            ),
        ]);
        let text = doc.to_pretty_string();
        let back = Json::parse(&text).expect("parses");
        assert_eq!(back, doc);
    }

    #[test]
    fn one_line_and_pretty_writers_spell_the_same_document() {
        let doc = obj(vec![
            ("peers", Json::Arr(vec![obj(vec![("state", Json::Str("a\nb".into()))])])),
            ("primaries", Json::Arr(vec![Json::Num(0.0), Json::Null])),
            ("empty", Json::Obj(vec![])),
        ]);
        let line = doc.to_line_string();
        assert_eq!(line, r#"{"peers":[{"state":"a\nb"}],"primaries":[0,null],"empty":{}}"#);
        assert_eq!(
            doc.to_pretty_string(),
            "{\n  \"peers\": [\n    {\n      \"state\": \"a\\nb\"\n    }\n  ],\n  \
             \"primaries\": [\n    0,\n    null\n  ],\n  \"empty\": {}\n}\n"
        );
        assert_eq!(Json::parse(&line).unwrap(), doc);
    }

    #[test]
    fn integers_write_without_decimal_point() {
        let text = Json::Num(1048576.0).to_pretty_string();
        assert_eq!(text.trim(), "1048576");
        assert_eq!(Json::parse("1048576").unwrap().as_u64(), Some(1048576));
    }

    #[test]
    fn floats_round_trip_exactly() {
        for v in [0.1, 1e-9, 123.456e12, -0.00742, f64::MAX] {
            let text = Json::Num(v).to_pretty_string();
            assert_eq!(Json::parse(text.trim()).unwrap().as_f64(), Some(v));
        }
    }

    #[test]
    fn strings_escape_and_unescape() {
        let s = "a \"b\"\\\n\tc — µ";
        let text = Json::Str(s.into()).to_pretty_string();
        assert_eq!(Json::parse(text.trim()).unwrap().as_str(), Some(s));
    }

    #[test]
    fn object_field_order_is_preserved() {
        let text = "{\"b\": 1, \"a\": 2}";
        let Json::Obj(pairs) = Json::parse(text).unwrap() else { panic!("object") };
        assert_eq!(pairs[0].0, "b");
        assert_eq!(pairs[1].0, "a");
    }

    #[test]
    fn rejects_garbage() {
        assert!(Json::parse("{\"a\": }").is_err());
        assert!(Json::parse("[1, 2").is_err());
        assert!(Json::parse("true false").is_err());
        assert!(Json::parse("nul").is_err());
    }
}
