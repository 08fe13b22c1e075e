//! Minimal JSON: an ordered value model, a renderer, and a
//! recursive-descent parser whose nesting depth is capped at
//! [`MAX_DEPTH`], so hostile input cannot overflow the stack.
//!
//! The vendored `serde` is a no-op stub (offline build), so everything that
//! needs to cross a process boundary — manifests, metrics artifacts, JSONL
//! traces — goes through this module instead. Numbers are `f64`; callers
//! that need full `u64` fidelity (seeds, content hashes) render them as hex
//! strings. Floats are rendered with Rust's `{:?}`, which round-trips
//! exactly through `str::parse::<f64>()`.

use std::fmt::Write as _;

/// The deepest nesting of arrays and objects [`Json::parse`] accepts.
/// Each level is one stack frame of the recursive-descent parser, so
/// without a cap a document of a few hundred kilobytes of `[` overflows
/// the stack. serde_json uses the same limit.
pub const MAX_DEPTH: usize = 128;

/// A JSON syntax error: what is wrong, and the byte offset in the text
/// where the parser found it. Displays as `{msg} at byte {at}`, the text
/// [`Json::parse`] returns.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SyntaxError {
    /// Byte offset into the parsed text.
    pub at: usize,
    /// What is wrong there.
    pub msg: String,
}

impl SyntaxError {
    fn new(at: usize, msg: impl Into<String>) -> Self {
        SyntaxError { at, msg: msg.into() }
    }
}

impl std::fmt::Display for SyntaxError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} at byte {}", self.msg, self.at)
    }
}

/// A JSON value. Object keys keep insertion order so rendered artifacts are
/// deterministic and diff-friendly.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }

    /// Renders a `u64` as a lowercase hex string value (lossless, unlike
    /// `Num`, which is an `f64` and truncates above 2^53).
    pub fn hex(v: u64) -> Json {
        Json::Str(format!("{v:#018x}"))
    }

    /// Looks up a key in an object; `None` for missing keys or non-objects.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(entries) => entries.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(v) => Some(*v),
            _ => None,
        }
    }

    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(v) if *v >= 0.0 && v.fract() == 0.0 => Some(*v as u64),
            _ => None,
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Parses a `Json::hex` rendered value back to a `u64`.
    pub fn as_hex(&self) -> Option<u64> {
        let s = self.as_str()?;
        u64::from_str_radix(s.strip_prefix("0x")?, 16).ok()
    }

    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Renders compact single-line JSON.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.render_into(&mut out);
        out
    }

    fn render_into(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(v) => {
                if v.is_finite() {
                    if v.fract() == 0.0 && v.abs() < 9.0e15 {
                        let _ = write!(out, "{}", *v as i64);
                    } else {
                        let _ = write!(out, "{v:?}");
                    }
                } else {
                    // JSON has no Inf/NaN; null is the conventional stand-in.
                    out.push_str("null");
                }
            }
            Json::Str(s) => render_string(s, out),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.render_into(out);
                }
                out.push(']');
            }
            Json::Obj(entries) => {
                out.push('{');
                for (i, (k, v)) in entries.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    render_string(k, out);
                    out.push(':');
                    v.render_into(out);
                }
                out.push('}');
            }
        }
    }

    /// Parses a complete JSON document (trailing whitespace allowed).
    /// Arrays and objects may nest at most [`MAX_DEPTH`] deep. An error
    /// names the byte offset it was found at.
    pub fn parse(text: &str) -> Result<Json, String> {
        parse_document(text, &mut |_| {}).map_err(|e| e.to_string())
    }

    /// Parses like [`Json::parse`], and also returns the byte offset of
    /// every object key's opening quote, in document order: the order a
    /// walk meets the keys that visits each object's entries in turn and
    /// descends into each value before the next key.
    pub fn parse_with_key_offsets(text: &str) -> Result<(Json, Vec<usize>), SyntaxError> {
        let mut keys = Vec::new();
        let value = parse_document(text, &mut |at| keys.push(at))?;
        Ok((value, keys))
    }
}

/// Parses a whole document, handing `key` each object key's offset.
fn parse_document(text: &str, key: &mut impl FnMut(usize)) -> Result<Json, SyntaxError> {
    let bytes = text.as_bytes();
    let mut pos = 0;
    let value = parse_value(bytes, &mut pos, 0, key)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(SyntaxError::new(pos, "trailing garbage"));
    }
    Ok(value)
}

fn render_string(s: &str, out: &mut String) {
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

/// Parses one value. `depth` counts the arrays and objects enclosing it.
fn parse_value(
    bytes: &[u8],
    pos: &mut usize,
    depth: usize,
    key: &mut impl FnMut(usize),
) -> Result<Json, SyntaxError> {
    skip_ws(bytes, pos);
    if matches!(bytes.get(*pos), Some(b'[' | b'{')) && depth == MAX_DEPTH {
        return Err(SyntaxError::new(*pos, format!("nesting deeper than {MAX_DEPTH}")));
    }
    match bytes.get(*pos) {
        None => Err(SyntaxError::new(*pos, "unexpected end of input")),
        Some(b'n') => parse_lit(bytes, pos, "null", Json::Null),
        Some(b't') => parse_lit(bytes, pos, "true", Json::Bool(true)),
        Some(b'f') => parse_lit(bytes, pos, "false", Json::Bool(false)),
        Some(b'"') => parse_string(bytes, pos).map(Json::Str),
        Some(b'[') => {
            *pos += 1;
            let mut items = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b']') {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            loop {
                items.push(parse_value(bytes, pos, depth + 1, key)?);
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b']') => {
                        *pos += 1;
                        return Ok(Json::Arr(items));
                    }
                    _ => return Err(SyntaxError::new(*pos, "expected ',' or ']'")),
                }
            }
        }
        Some(b'{') => {
            *pos += 1;
            let mut entries = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b'}') {
                *pos += 1;
                return Ok(Json::Obj(entries));
            }
            loop {
                skip_ws(bytes, pos);
                key(*pos);
                let name = parse_string(bytes, pos)?;
                skip_ws(bytes, pos);
                if bytes.get(*pos) != Some(&b':') {
                    return Err(SyntaxError::new(*pos, "expected ':'"));
                }
                *pos += 1;
                entries.push((name, parse_value(bytes, pos, depth + 1, key)?));
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b'}') => {
                        *pos += 1;
                        return Ok(Json::Obj(entries));
                    }
                    _ => return Err(SyntaxError::new(*pos, "expected ',' or '}'")),
                }
            }
        }
        Some(_) => parse_number(bytes, pos),
    }
}

fn parse_lit(bytes: &[u8], pos: &mut usize, lit: &str, value: Json) -> Result<Json, SyntaxError> {
    if bytes[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(value)
    } else {
        Err(SyntaxError::new(*pos, "invalid literal"))
    }
}

fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, SyntaxError> {
    let start = *pos;
    if bytes.get(*pos) != Some(&b'"') {
        return Err(SyntaxError::new(start, "expected string"));
    }
    *pos += 1;
    let mut out = String::new();
    loop {
        match bytes.get(*pos) {
            None => return Err(SyntaxError::new(start, "unterminated string")),
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(b'\\') => {
                let escape = *pos;
                *pos += 1;
                match bytes.get(*pos) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'b') => out.push('\u{8}'),
                    Some(b'f') => out.push('\u{c}'),
                    Some(b'u') => {
                        let hex = bytes
                            .get(*pos + 1..*pos + 5)
                            .ok_or_else(|| SyntaxError::new(escape, "truncated \\u escape"))?;
                        let bad = || SyntaxError::new(escape, "bad \\u escape");
                        let hex = std::str::from_utf8(hex).map_err(|_| bad())?;
                        if !hex.bytes().all(|b| b.is_ascii_hexdigit()) {
                            return Err(bad());
                        }
                        let code = u32::from_str_radix(hex, 16).map_err(|_| bad())?;
                        // Surrogate pairs are not produced by our renderer;
                        // map lone surrogates to the replacement character.
                        out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                        *pos += 4;
                    }
                    _ => return Err(SyntaxError::new(*pos, "bad escape")),
                }
                *pos += 1;
            }
            Some(_) => {
                // Copy the run up to the next quote or escape in one piece:
                // both are ASCII, so the run ends on a character boundary
                // of the (valid UTF-8) input.
                let run = bytes[*pos..].iter().position(|&b| b == b'"' || b == b'\\');
                let end = run.map_or(bytes.len(), |n| *pos + n);
                let text = std::str::from_utf8(&bytes[*pos..end])
                    .map_err(|_| SyntaxError::new(*pos, "invalid UTF-8"))?;
                out.push_str(text);
                *pos = end;
            }
        }
    }
}

fn parse_number(bytes: &[u8], pos: &mut usize) -> Result<Json, SyntaxError> {
    let start = *pos;
    while *pos < bytes.len()
        && matches!(bytes[*pos], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')
    {
        *pos += 1;
    }
    std::str::from_utf8(&bytes[start..*pos])
        .ok()
        .and_then(|s| s.parse::<f64>().ok())
        .map(Json::Num)
        .ok_or_else(|| SyntaxError::new(start, "invalid number"))
}

#[cfg(test)]
mod tests {
    use super::{Json, MAX_DEPTH};

    #[test]
    fn render_parse_round_trip() {
        let doc = Json::Obj(vec![
            ("name".into(), Json::str("fig6 \"smoke\"\n")),
            ("seed".into(), Json::hex(0x67fd_e585_6d82_96c6)),
            ("pi".into(), Json::Num(std::f64::consts::PI)),
            ("n".into(), Json::Num(200001.0)),
            ("arr".into(), Json::Arr(vec![Json::Null, Json::Bool(true), Json::Num(-0.5)])),
            ("empty".into(), Json::Obj(vec![])),
        ]);
        let text = doc.render();
        let back = Json::parse(&text).expect("parse");
        assert_eq!(back, doc);
        assert_eq!(back.get("seed").unwrap().as_hex(), Some(0x67fd_e585_6d82_96c6));
        assert_eq!(back.get("n").unwrap().as_u64(), Some(200001));
    }

    #[test]
    fn integers_render_without_fraction() {
        assert_eq!(Json::Num(42.0).render(), "42");
        assert_eq!(Json::Num(0.25).render(), "0.25");
        assert_eq!(Json::Num(f64::NAN).render(), "null");
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(Json::parse("{\"a\":}").is_err());
        assert!(Json::parse("[1,2,]").is_err());
        assert!(Json::parse("{} x").is_err());
        assert!(Json::parse("").is_err());
    }

    #[test]
    fn nesting_is_capped_at_max_depth() {
        let n = 200_000;
        for (open, close) in [("[", "]"), ("{\"a\":", "}")] {
            let doc = format!("{}0{}", open.repeat(n), close.repeat(n));
            let err = Json::parse(&doc).expect_err("200,000 levels must be rejected");
            let at = MAX_DEPTH * open.len();
            assert_eq!(err, format!("nesting deeper than {MAX_DEPTH} at byte {at}"));
        }
        let at_limit = format!("{}{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        let mut value = Json::parse(&at_limit).expect("a document at the limit parses");
        for _ in 1..MAX_DEPTH {
            value = value.as_arr().expect("nested array")[0].clone();
        }
        assert_eq!(value, Json::Arr(vec![]));
        let over = format!("{}{}", "[".repeat(MAX_DEPTH + 1), "]".repeat(MAX_DEPTH + 1));
        assert!(Json::parse(&over).is_err());
    }

    /// Keys come in the order a walk meets them that descends into each
    /// value before the next key, and every error names its offset.
    #[test]
    fn key_offsets_follow_document_order_and_errors_name_bytes() {
        let text = r#"{"a": {"b": [{"c": 1}], "d": 2}, "e": null}"#;
        let (json, keys) = Json::parse_with_key_offsets(text).expect("parses");
        let names: Vec<&str> = keys.iter().map(|&at| &text[at + 1..at + 2]).collect();
        assert_eq!(names, ["a", "b", "c", "d", "e"]);
        assert_eq!(json.get("e"), Some(&Json::Null));
        for (bad, at) in [("", 0), ("[1,", 3), ("\"ab", 0), ("\"\\u12", 1), ("\"\\u+041\"", 1)] {
            let err = Json::parse_with_key_offsets(bad).expect_err(bad);
            assert_eq!(err.at, at, "{bad}: {err}");
            assert_eq!(Json::parse(bad), Err(err.to_string()));
        }
    }

    #[test]
    fn parse_accepts_foreign_whitespace_and_escapes() {
        let doc = Json::parse(" { \"a\" : [ 1 , \"\\u0041\\t\" ] } ").unwrap();
        assert_eq!(doc.get("a").unwrap().as_arr().unwrap()[1].as_str(), Some("A\t"));
    }
}
