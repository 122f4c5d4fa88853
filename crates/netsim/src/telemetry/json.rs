//! Deterministic JSON rendering, no external crates.
//!
//! The run reports written by the experiments binary must be
//! byte-identical across `REPRO_THREADS`, machines, and reruns, so this
//! module makes every formatting decision explicit:
//!
//! * object keys are rendered in sorted order regardless of insertion
//!   order;
//! * floats use Rust's shortest-round-trip `{}` formatting, with `.0`
//!   appended to integral values (so `3` renders as `3.0`, never `3`),
//!   `-0.0` normalized to `0.0`, and non-finite values rendered as
//!   `null` (JSON has no NaN/Inf);
//! * output is pretty-printed with two-space indentation and `\n` line
//!   endings only.

use std::fmt::Write as _;

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A signed integer.
    Int(i64),
    /// An unsigned integer (covers `u64` values above `i64::MAX`).
    UInt(u64),
    /// A float, rendered per the module contract.
    Float(f64),
    /// A string (escaped on render).
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object. Keys are sorted at render time; duplicate keys keep
    /// their first occurrence.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Builds an object from key/value pairs.
    pub fn obj(pairs: Vec<(&str, Json)>) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    }

    /// Builds a string value from a `&str`.
    pub fn str(s: &str) -> Json {
        Json::Str(s.to_string())
    }

    /// Pushes a key/value pair onto an object.
    ///
    /// # Panics
    /// Panics if `self` is not [`Json::Obj`].
    pub fn push(&mut self, key: &str, value: Json) {
        match self {
            Json::Obj(pairs) => pairs.push((key.to_string(), value)),
            _ => panic!("Json::push on non-object"),
        }
    }

    /// Renders with sorted keys and 2-space indentation, ending in a
    /// single trailing newline.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, 0);
        out.push('\n');
        out
    }

    /// Parses a JSON document (the inverse of [`Json::render`], accepting
    /// any standard JSON, not just this module's pretty-printed shape).
    /// Numbers without `.`/exponent parse as [`Json::UInt`] (or
    /// [`Json::Int`] when negative), everything else as [`Json::Float`] —
    /// matching what the renderer emits so case files round-trip exactly.
    /// Numbers that do not fit a finite `f64` (`1e999`) and arrays or
    /// objects nested deeper than [`MAX_PARSE_DEPTH`] are rejected.
    /// Errors carry the byte offset of the first offending character.
    pub fn parse(input: &str) -> Result<Json, String> {
        let mut p = Parser {
            bytes: input.as_bytes(),
            pos: 0,
            depth: 0,
        };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(format!("trailing data at byte {}", p.pos));
        }
        Ok(v)
    }

    /// Looks up a key in an object (first occurrence, matching the
    /// renderer's duplicate-key rule). `None` for missing keys or
    /// non-objects.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as a `u64`, if it is an unsigned integer (or a
    /// non-negative signed one).
    pub fn as_u64(&self) -> Option<u64> {
        match *self {
            Json::UInt(u) => Some(u),
            Json::Int(i) if i >= 0 => Some(i as u64),
            _ => None,
        }
    }

    /// The value as a `&str`, if it is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as an array slice, if it is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    fn write(&self, out: &mut String, indent: usize) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Int(i) => {
                let _ = write!(out, "{i}");
            }
            Json::UInt(u) => {
                let _ = write!(out, "{u}");
            }
            Json::Float(f) => out.push_str(&fmt_f64(*f)),
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
                    out.push('\n');
                    push_indent(out, indent + 1);
                    item.write(out, indent + 1);
                }
                out.push('\n');
                push_indent(out, indent);
                out.push(']');
            }
            Json::Obj(pairs) => {
                if pairs.is_empty() {
                    out.push_str("{}");
                    return;
                }
                let mut order: Vec<usize> = (0..pairs.len()).collect();
                order.sort_by(|&a, &b| pairs[a].0.cmp(&pairs[b].0).then(a.cmp(&b)));
                out.push('{');
                let mut first = true;
                let mut last_key: Option<&str> = None;
                for &i in &order {
                    let (key, value) = &pairs[i];
                    if last_key == Some(key.as_str()) {
                        continue; // duplicate key: keep first occurrence
                    }
                    last_key = Some(key.as_str());
                    if !first {
                        out.push(',');
                    }
                    first = false;
                    out.push('\n');
                    push_indent(out, indent + 1);
                    write_escaped(out, key);
                    out.push_str(": ");
                    value.write(out, indent + 1);
                }
                out.push('\n');
                push_indent(out, indent);
                out.push('}');
            }
        }
    }
}

/// Deepest array/object nesting [`Json::parse`] accepts. The parser
/// recurses once per level, so the bound keeps hostile input from
/// overflowing the stack. It sits far above what the repo writes: the
/// fig3 `--json` report nests eight levels, Chrome traces four.
pub const MAX_PARSE_DEPTH: usize = 128;

/// Recursive-descent JSON parser state (byte cursor into the input).
struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Arrays/objects currently open around the cursor.
    depth: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if b == b' ' || b == b'\t' || b == b'\n' || b == b'\r' {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected '{}' at byte {}", b as char, self.pos))
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(format!("invalid literal at byte {}", self.pos))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(open @ (b'[' | b'{')) => {
                if self.depth == MAX_PARSE_DEPTH {
                    return Err(format!(
                        "nesting deeper than {MAX_PARSE_DEPTH} at byte {}",
                        self.pos
                    ));
                }
                self.depth += 1;
                let v = if open == b'[' {
                    self.array()
                } else {
                    self.object()
                };
                self.depth -= 1;
                v
            }
            Some(b) if b == b'-' || b.is_ascii_digit() => self.number(),
            _ => Err(format!("unexpected character at byte {}", self.pos)),
        }
    }

    fn array(&mut self) -> Result<Json, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(format!("expected ',' or ']' at byte {}", self.pos)),
            }
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.expect(b'{')?;
        let mut pairs = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(pairs));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            pairs.push((key, self.value()?));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(pairs));
                }
                _ => return Err(format!("expected ',' or '}}' at byte {}", self.pos)),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let start = self.pos;
            // Consume a run of plain UTF-8 up to the next escape or quote.
            while let Some(&b) = self.bytes.get(self.pos) {
                if b == b'"' || b == b'\\' || b < 0x20 {
                    break;
                }
                self.pos += 1;
            }
            // The input is a &str, so slicing on these boundaries is valid
            // UTF-8 (quotes/backslashes are never UTF-8 continuation bytes).
            out.push_str(
                std::str::from_utf8(&self.bytes[start..self.pos])
                    .map_err(|_| format!("invalid UTF-8 at byte {start}"))?,
            );
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = self
                        .peek()
                        .ok_or_else(|| format!("unterminated escape at byte {}", self.pos))?;
                    self.pos += 1;
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
                            let hex = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .ok_or_else(|| {
                                    format!("truncated \\u escape at byte {}", self.pos)
                                })?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| format!("bad \\u escape at byte {}", self.pos))?;
                            self.pos += 4;
                            // Surrogates are not emitted by the renderer;
                            // map unpaired ones to U+FFFD rather than err.
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                        }
                        _ => return Err(format!("unknown escape at byte {}", self.pos - 1)),
                    }
                }
                _ => return Err(format!("unterminated string at byte {}", self.pos)),
            }
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let mut float = false;
        while let Some(&b) = self.bytes.get(self.pos) {
            match b {
                b'0'..=b'9' => self.pos += 1,
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    float = true;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| format!("invalid number at byte {start}"))?;
        if float {
            match text.parse::<f64>() {
                Ok(f) if f.is_finite() => Ok(Json::Float(f)),
                Ok(_) => Err(format!("non-finite number '{text}' at byte {start}")),
                Err(_) => Err(format!("invalid number '{text}' at byte {start}")),
            }
        } else if text.starts_with('-') {
            text.parse::<i64>()
                .map(Json::Int)
                .map_err(|_| format!("invalid integer '{text}' at byte {start}"))
        } else {
            text.parse::<u64>()
                .map(Json::UInt)
                .map_err(|_| format!("invalid integer '{text}' at byte {start}"))
        }
    }
}

fn push_indent(out: &mut String, indent: usize) {
    for _ in 0..indent {
        out.push_str("  ");
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

/// Deterministic float formatting: shortest round-trip representation,
/// forced to contain a `.` or exponent (`3` → `"3.0"`), `-0.0`
/// normalized to `"0.0"`, non-finite values rendered as `"null"`.
pub fn fmt_f64(v: f64) -> String {
    if !v.is_finite() {
        return "null".to_string();
    }
    let v = if v == 0.0 { 0.0 } else { v }; // normalize -0.0
    let mut s = format!("{v}");
    if !s.contains('.') && !s.contains('e') && !s.contains('E') {
        s.push_str(".0");
    }
    s
}

impl From<bool> for Json {
    fn from(v: bool) -> Json {
        Json::Bool(v)
    }
}

impl From<u64> for Json {
    fn from(v: u64) -> Json {
        Json::UInt(v)
    }
}

impl From<usize> for Json {
    fn from(v: usize) -> Json {
        Json::UInt(v as u64)
    }
}

impl From<i64> for Json {
    fn from(v: i64) -> Json {
        Json::Int(v)
    }
}

impl From<f64> for Json {
    fn from(v: f64) -> Json {
        Json::Float(v)
    }
}

impl From<&str> for Json {
    fn from(v: &str) -> Json {
        Json::Str(v.to_string())
    }
}

impl From<String> for Json {
    fn from(v: String) -> Json {
        Json::Str(v)
    }
}

impl<T: Into<Json>> From<Vec<T>> for Json {
    fn from(v: Vec<T>) -> Json {
        Json::Arr(v.into_iter().map(Into::into).collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keys_render_sorted() {
        let j = Json::obj(vec![
            ("zeta", Json::UInt(1)),
            ("alpha", Json::UInt(2)),
            ("mid", Json::Null),
        ]);
        assert_eq!(
            j.render(),
            "{\n  \"alpha\": 2,\n  \"mid\": null,\n  \"zeta\": 1\n}\n"
        );
    }

    #[test]
    fn float_formatting_is_fixed() {
        assert_eq!(fmt_f64(3.0), "3.0");
        assert_eq!(fmt_f64(-0.0), "0.0");
        assert_eq!(fmt_f64(0.1), "0.1");
        assert_eq!(fmt_f64(1e30), "1000000000000000000000000000000.0");
        assert_eq!(fmt_f64(f64::NAN), "null");
        assert_eq!(fmt_f64(f64::INFINITY), "null");
        assert_eq!(fmt_f64(-2.5), "-2.5");
    }

    #[test]
    fn strings_are_escaped() {
        let j = Json::Str("a\"b\\c\nd\u{1}".to_string());
        assert_eq!(j.render(), "\"a\\\"b\\\\c\\nd\\u0001\"\n");
    }

    #[test]
    fn nested_structure_renders_stably() {
        let j = Json::obj(vec![
            ("arr", Json::Arr(vec![Json::UInt(1), Json::Bool(false)])),
            ("empty_arr", Json::Arr(vec![])),
            ("empty_obj", Json::obj(vec![])),
        ]);
        let expected = "{\n  \"arr\": [\n    1,\n    false\n  ],\n  \"empty_arr\": [],\n  \"empty_obj\": {}\n}\n";
        assert_eq!(j.render(), expected);
    }

    #[test]
    fn duplicate_keys_keep_first() {
        let j = Json::obj(vec![("k", Json::UInt(1)), ("k", Json::UInt(2))]);
        assert_eq!(j.render(), "{\n  \"k\": 1\n}\n");
    }

    #[test]
    fn parse_round_trips_rendered_documents() {
        let j = Json::obj(vec![
            (
                "arr",
                Json::Arr(vec![Json::UInt(1), Json::Bool(false), Json::Null]),
            ),
            ("empty_arr", Json::Arr(vec![])),
            ("empty_obj", Json::obj(vec![])),
            ("neg", Json::Int(-42)),
            ("pi", Json::Float(3.5)),
            ("s", Json::Str("a\"b\\c\nd\u{1}tab\t".to_string())),
            ("u", Json::UInt(u64::MAX)),
        ]);
        let parsed = Json::parse(&j.render()).unwrap();
        assert_eq!(parsed, j);
        // Render → parse → render is a fixpoint.
        assert_eq!(parsed.render(), j.render());
    }

    #[test]
    fn parse_classifies_numbers() {
        let j = Json::parse("[0, 17, -3, 2.5, 1e3, -0.25]").unwrap();
        let arr = j.as_arr().unwrap();
        assert_eq!(arr[0], Json::UInt(0));
        assert_eq!(arr[1], Json::UInt(17));
        assert_eq!(arr[2], Json::Int(-3));
        assert_eq!(arr[3], Json::Float(2.5));
        assert_eq!(arr[4], Json::Float(1000.0));
        assert_eq!(arr[5], Json::Float(-0.25));
    }

    #[test]
    fn parse_accessors_navigate_objects() {
        let j = Json::parse("{\"a\": {\"b\": [1, \"two\"]}, \"n\": 9}").unwrap();
        assert_eq!(j.get("n").and_then(Json::as_u64), Some(9));
        let b = j.get("a").and_then(|a| a.get("b")).unwrap();
        assert_eq!(b.as_arr().unwrap()[1].as_str(), Some("two"));
        assert!(j.get("missing").is_none());
    }

    #[test]
    fn parse_rejects_malformed_input() {
        assert!(Json::parse("{\"a\": 1} trailing").is_err());
        assert!(Json::parse("{\"a\"").is_err());
        assert!(Json::parse("[1,]").is_err());
        assert!(Json::parse("\"unterminated").is_err());
        assert!(Json::parse("\"bad \\x escape\"").is_err());
        assert!(Json::parse("nul").is_err());
        assert!(Json::parse("").is_err());
    }

    #[test]
    fn parse_rejects_non_finite_numbers() {
        let err = Json::parse("{\"x\": 1e999}").unwrap_err();
        assert_eq!(err, "non-finite number '1e999' at byte 6");
        assert!(Json::parse("[-1e999]").is_err());
        assert_eq!(Json::parse("1e308").unwrap(), Json::Float(1e308));
    }

    #[test]
    fn parse_bounds_nesting_depth() {
        let nest = |n: usize| format!("{}{}", "[".repeat(n), "]".repeat(n));
        let at_limit = Json::parse(&nest(MAX_PARSE_DEPTH)).unwrap();
        assert_eq!(Json::parse(&at_limit.render()).unwrap(), at_limit);
        let err = Json::parse(&nest(MAX_PARSE_DEPTH + 1)).unwrap_err();
        assert_eq!(
            err,
            format!("nesting deeper than {MAX_PARSE_DEPTH} at byte {MAX_PARSE_DEPTH}")
        );
        // Far past the limit fails the same way instead of overflowing
        // the stack; objects count toward the same bound.
        assert!(Json::parse(&"[".repeat(200_000)).is_err());
        assert!(Json::parse(&"{\"a\":".repeat(200_000)).is_err());
    }

    #[test]
    fn parse_unescapes_unicode() {
        let j = Json::parse("\"\\u0041\\u00e9\\n\"").unwrap();
        assert_eq!(j.as_str(), Some("Aé\n"));
    }
}
