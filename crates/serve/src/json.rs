//! A minimal JSON value model with both a parser and a renderer.
//!
//! The workspace deliberately carries no external dependencies, so the
//! wire protocol's JSON is hand-rolled, in the same spirit as
//! `manticore_bench::json` (which only renders). The server and client
//! both speak through [`Value`]: parse with [`Value::parse`], render with
//! [`Value::render`].
//!
//! The model is deliberately small: unsigned integers are kept exact
//! ([`Value::Int`], so 64-bit register payloads and hashes round-trip
//! bit-for-bit), everything else numeric is an `f64`, and object keys
//! keep their insertion order (renders are deterministic).

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A non-negative integer written without fraction or exponent —
    /// kept exact so u64 payloads survive the wire.
    Int(u64),
    /// Any other number (negative, fractional, or exponent form).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Value>),
    /// An object; key order is preserved.
    Obj(Vec<(String, Value)>),
}

impl Value {
    /// Builds an object from key/value pairs.
    pub fn obj(fields: Vec<(&str, Value)>) -> Value {
        Value::Obj(
            fields
                .into_iter()
                .map(|(k, v)| (k.to_string(), v))
                .collect(),
        )
    }

    /// Looks up `key` in an object; `None` for other shapes or a missing
    /// key.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as a `u64`: an exact [`Value::Int`], or a [`Value::Num`]
    /// that is a non-negative integer.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::Int(v) => Some(*v),
            Value::Num(v) if *v >= 0.0 && v.fract() == 0.0 && *v <= u64::MAX as f64 => {
                Some(*v as u64)
            }
            _ => None,
        }
    }

    /// The boolean payload, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The array items, if this is an array.
    pub fn as_arr(&self) -> Option<&[Value]> {
        match self {
            Value::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// The object fields, if this is an object.
    pub fn as_obj(&self) -> Option<&[(String, Value)]> {
        match self {
            Value::Obj(fields) => Some(fields),
            _ => None,
        }
    }

    /// Renders to compact JSON (no whitespace; deterministic field
    /// order).
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.render_into(&mut out);
        out
    }

    /// The length in bytes of [`Value::render`]'s output, computed
    /// without building it: what a byte quota needs to know about a
    /// value it may reject.
    pub fn rendered_len(&self) -> usize {
        match self {
            Value::Null => 4,
            Value::Bool(true) => 4,
            Value::Bool(false) => 5,
            Value::Int(v) => display_len(v),
            Value::Num(v) if v.is_finite() => display_len(v),
            Value::Num(_) => 4,
            Value::Str(s) => str_len(s),
            Value::Arr(items) => {
                2 + items.len().saturating_sub(1)
                    + items.iter().map(Value::rendered_len).sum::<usize>()
            }
            Value::Obj(fields) => {
                2 + fields.len().saturating_sub(1)
                    + fields
                        .iter()
                        .map(|(k, v)| str_len(k) + 1 + v.rendered_len())
                        .sum::<usize>()
            }
        }
    }

    fn render_into(&self, out: &mut String) {
        match self {
            Value::Null => out.push_str("null"),
            Value::Bool(true) => out.push_str("true"),
            Value::Bool(false) => out.push_str("false"),
            Value::Int(v) => out.push_str(&v.to_string()),
            Value::Num(v) if v.is_finite() => out.push_str(&v.to_string()),
            Value::Num(_) => out.push_str("null"),
            Value::Str(s) => render_str(s, out),
            Value::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.render_into(out);
                }
                out.push(']');
            }
            Value::Obj(fields) => {
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    render_str(k, out);
                    out.push(':');
                    v.render_into(out);
                }
                out.push('}');
            }
        }
    }

    /// Parses one JSON value from `text`, requiring the whole input to be
    /// consumed (trailing whitespace allowed).
    ///
    /// # Errors
    ///
    /// A human-readable description of the first syntax error, with its
    /// byte offset.
    pub fn parse(text: &str) -> Result<Value, String> {
        let bytes = text.as_bytes();
        let mut pos = 0usize;
        let value = parse_value(bytes, &mut pos, 0)?;
        skip_ws(bytes, &mut pos);
        if pos != bytes.len() {
            return Err(format!("trailing garbage at byte {pos}"));
        }
        Ok(value)
    }
}

/// The byte length of `v`'s `Display` output, counted through a sink
/// that stores nothing.
fn display_len(v: &impl std::fmt::Display) -> usize {
    struct Count(usize);
    impl std::fmt::Write for Count {
        fn write_str(&mut self, s: &str) -> std::fmt::Result {
            self.0 += s.len();
            Ok(())
        }
    }
    let mut count = Count(0);
    let _ = std::fmt::write(&mut count, format_args!("{v}"));
    count.0
}

/// The byte length of [`render_str`]'s output for `s`.
fn str_len(s: &str) -> usize {
    2 + s
        .chars()
        .map(|c| match c {
            '"' | '\\' | '\n' | '\t' | '\r' => 2,
            c if (c as u32) < 0x20 => 6,
            c => c.len_utf8(),
        })
        .sum::<usize>()
}

fn render_str(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
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

/// Maximum container nesting depth. The parser recurses per `[`/`{`, so
/// without a cap a frame of a few hundred KiB of `[[[[…` would overflow
/// the reader thread's stack and abort the whole process — the cheapest
/// possible remote kill. No legitimate protocol shape nests deeper than a
/// handful of levels.
pub const MAX_DEPTH: usize = 64;

fn parse_value(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Value, String> {
    if depth > MAX_DEPTH {
        return Err(format!("nesting deeper than {MAX_DEPTH} at byte {pos}"));
    }
    skip_ws(bytes, pos);
    let Some(&b) = bytes.get(*pos) else {
        return Err("unexpected end of input".into());
    };
    match b {
        b'n' => parse_lit(bytes, pos, "null", Value::Null),
        b't' => parse_lit(bytes, pos, "true", Value::Bool(true)),
        b'f' => parse_lit(bytes, pos, "false", Value::Bool(false)),
        b'"' => parse_string(bytes, pos).map(Value::Str),
        b'[' => {
            *pos += 1;
            let mut items = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b']') {
                *pos += 1;
                return Ok(Value::Arr(items));
            }
            loop {
                items.push(parse_value(bytes, pos, depth + 1)?);
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b']') => {
                        *pos += 1;
                        return Ok(Value::Arr(items));
                    }
                    _ => return Err(format!("expected ',' or ']' at byte {pos}")),
                }
            }
        }
        b'{' => {
            *pos += 1;
            let mut fields = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b'}') {
                *pos += 1;
                return Ok(Value::Obj(fields));
            }
            loop {
                skip_ws(bytes, pos);
                let key = parse_string(bytes, pos)?;
                skip_ws(bytes, pos);
                if bytes.get(*pos) != Some(&b':') {
                    return Err(format!("expected ':' at byte {pos}"));
                }
                *pos += 1;
                let value = parse_value(bytes, pos, depth + 1)?;
                fields.push((key, value));
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b'}') => {
                        *pos += 1;
                        return Ok(Value::Obj(fields));
                    }
                    _ => return Err(format!("expected ',' or '}}' at byte {pos}")),
                }
            }
        }
        b'-' | b'0'..=b'9' => parse_number(bytes, pos),
        other => Err(format!("unexpected byte {:?} at {pos}", other as char)),
    }
}

fn parse_lit(bytes: &[u8], pos: &mut usize, lit: &str, value: Value) -> Result<Value, String> {
    if bytes[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(value)
    } else {
        Err(format!("expected `{lit}` at byte {pos}"))
    }
}

fn parse_number(bytes: &[u8], pos: &mut usize) -> Result<Value, String> {
    let start = *pos;
    if bytes.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    while *pos < bytes.len()
        && matches!(bytes[*pos], b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')
    {
        *pos += 1;
    }
    let text = std::str::from_utf8(&bytes[start..*pos]).expect("digits are ASCII");
    // A plain non-negative integer stays exact; everything else is f64.
    if !text.is_empty() && text.bytes().all(|b| b.is_ascii_digit()) {
        if let Ok(v) = text.parse::<u64>() {
            return Ok(Value::Int(v));
        }
    }
    text.parse::<f64>()
        .map(Value::Num)
        .map_err(|_| format!("malformed number `{text}` at byte {start}"))
}

fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, String> {
    if bytes.get(*pos) != Some(&b'"') {
        return Err(format!("expected string at byte {pos}"));
    }
    *pos += 1;
    let mut out = String::new();
    loop {
        let Some(&b) = bytes.get(*pos) else {
            return Err("unterminated string".into());
        };
        *pos += 1;
        match b {
            b'"' => return Ok(out),
            b'\\' => {
                let Some(&esc) = bytes.get(*pos) else {
                    return Err("unterminated escape".into());
                };
                *pos += 1;
                match esc {
                    b'"' => out.push('"'),
                    b'\\' => out.push('\\'),
                    b'/' => out.push('/'),
                    b'n' => out.push('\n'),
                    b't' => out.push('\t'),
                    b'r' => out.push('\r'),
                    b'b' => out.push('\u{8}'),
                    b'f' => out.push('\u{c}'),
                    b'u' => {
                        let hex = bytes
                            .get(*pos..*pos + 4)
                            .and_then(|h| std::str::from_utf8(h).ok())
                            .ok_or("truncated \\u escape")?;
                        *pos += 4;
                        let code =
                            u32::from_str_radix(hex, 16).map_err(|_| "malformed \\u escape")?;
                        // Surrogate pairs are not needed by this protocol;
                        // lone surrogates map to the replacement char.
                        out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                    }
                    other => return Err(format!("unknown escape \\{}", other as char)),
                }
            }
            _ => {
                // Re-decode the UTF-8 sequence starting here.
                let seq_start = *pos - 1;
                let len = utf8_len(b);
                let end = seq_start + len;
                let chunk = bytes
                    .get(seq_start..end)
                    .and_then(|c| std::str::from_utf8(c).ok())
                    .ok_or_else(|| format!("invalid UTF-8 at byte {seq_start}"))?;
                out.push_str(chunk);
                *pos = end;
            }
        }
    }
}

fn utf8_len(first: u8) -> usize {
    match first {
        0x00..=0x7f => 1,
        0xc0..=0xdf => 2,
        0xe0..=0xef => 3,
        _ => 4,
    }
}

#[cfg(test)]
mod tests {
    use super::Value;

    #[test]
    fn round_trips_the_protocol_shapes() {
        let v = Value::obj(vec![
            ("op", Value::Str("submit".into())),
            ("id", Value::Int(u64::MAX)),
            ("vcycles", Value::Int(1000)),
            ("park", Value::Bool(true)),
            ("pokes", Value::obj(vec![("count", Value::Int(42))])),
            (
                "reads",
                Value::Arr(vec![Value::Str("count".into()), Value::Str("q\"x".into())]),
            ),
            ("none", Value::Null),
            ("frac", Value::Num(-1.5)),
        ]);
        let text = v.render();
        let back = Value::parse(&text).unwrap();
        assert_eq!(back, v);
        // u64::MAX survived exactly — the reason Int exists.
        assert_eq!(back.get("id").unwrap().as_u64(), Some(u64::MAX));
    }

    #[test]
    fn parses_whitespace_escapes_and_unicode() {
        let v = Value::parse(" { \"a\" : [ 1 , 2.5 , \"x\\n\\u0041é\" ] , \"b\" : { } } ").unwrap();
        let arr = v.get("a").unwrap().as_arr().unwrap();
        assert_eq!(arr[0].as_u64(), Some(1));
        assert_eq!(arr[1], Value::Num(2.5));
        assert_eq!(arr[2].as_str(), Some("x\nAé"));
        assert_eq!(v.get("b").unwrap().as_obj().unwrap().len(), 0);
    }

    #[test]
    fn rendered_len_is_the_rendered_length() {
        let edge = Value::obj(vec![
            ("esc\"\\\n\t\r\u{1}\u{1f}", Value::Str("é€😀 \u{7f}".into())),
            (
                "nums",
                Value::Arr(vec![
                    Value::Int(0),
                    Value::Int(u64::MAX),
                    Value::Num(-1.5),
                    Value::Num(1e300),
                    Value::Num(-0.0),
                    Value::Num(f64::NAN),
                    Value::Num(f64::INFINITY),
                ]),
            ),
            ("empty", Value::obj(vec![])),
            ("none", Value::Arr(vec![])),
            (
                "lits",
                Value::Arr(vec![Value::Null, Value::Bool(true), Value::Bool(false)]),
            ),
        ]);
        assert_eq!(edge.rendered_len(), edge.render().len());
    }

    #[test]
    fn rejects_malformed_input() {
        for bad in ["", "{", "[1,", "{\"a\"1}", "tru", "\"\\q\"", "1 2"] {
            assert!(Value::parse(bad).is_err(), "{bad:?} must not parse");
        }
    }

    #[test]
    fn deep_nesting_is_an_error_not_a_stack_overflow() {
        // A megabyte of `[` used to recurse once per byte and abort the
        // process; now it must return an error well within the cap.
        let deep = "[".repeat(1 << 20);
        assert!(Value::parse(&deep).is_err());
        let deep_obj = "{\"a\":".repeat(1 << 18);
        assert!(Value::parse(&deep_obj).is_err());
        // Nesting at the cap still parses.
        let ok = format!(
            "{}1{}",
            "[".repeat(super::MAX_DEPTH),
            "]".repeat(super::MAX_DEPTH)
        );
        assert!(Value::parse(&ok).is_ok());
    }
}
