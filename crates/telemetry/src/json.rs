//! A small self-contained JSON value type with a compact renderer and a
//! strict parser.
//!
//! The workspace builds offline (no serde_json), and the telemetry layer
//! needs real, machine-readable JSON for its JSONL event streams and the
//! regression `manifest.json`. This module provides exactly that: a value
//! enum, escaping-correct rendering, and the one parser every in-process
//! consumer of those artifacts shares.
//!
//! The parser is on two hot paths: every cell-cache hit
//! (`cell_codec::decode` in the regression crate) and every serve-daemon
//! request line and `--client` reply, a single line that runs to hundreds
//! of kilobytes. Its contract is therefore linear time in the input
//! length: string contents are copied run by run between the bytes that
//! need attention, never re-validated per character.

use std::collections::BTreeMap;
use std::fmt;

/// A JSON value.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any number (rendered shortest-round-trip via Rust's f64 formatter;
    /// integers up to 2^53 render without a decimal point).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object. Key order is preserved as inserted.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// An object from key/value pairs.
    pub fn obj(pairs: impl IntoIterator<Item = (impl Into<String>, Json)>) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    /// A string value.
    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }

    /// Looks up a key in an object.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as a float, if numeric.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The value as an unsigned integer, if numeric and integral.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(n) if *n >= 0.0 && n.fract() == 0.0 && *n <= u64::MAX as f64 => {
                Some(*n as u64)
            }
            _ => None,
        }
    }

    /// The value as a string slice.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as a bool.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The elements, if an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Renders compactly (no whitespace).
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    /// Renders with two-space indentation, for human-browsable artifacts.
    pub fn render_pretty(&self) -> String {
        let mut out = String::new();
        self.write_pretty(&mut out, 0);
        out.push('\n');
        out
    }

    fn write(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(n) => write_num(*n, out),
            Json::Str(s) => write_escaped(s, out),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write(out);
                }
                out.push(']');
            }
            Json::Obj(pairs) => {
                out.push('{');
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_escaped(k, out);
                    out.push(':');
                    v.write(out);
                }
                out.push('}');
            }
        }
    }

    fn write_pretty(&self, out: &mut String, indent: usize) {
        match self {
            Json::Arr(items) if !items.is_empty() => {
                out.push_str("[\n");
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push_str(",\n");
                    }
                    push_indent(out, indent + 1);
                    item.write_pretty(out, indent + 1);
                }
                out.push('\n');
                push_indent(out, indent);
                out.push(']');
            }
            Json::Obj(pairs) if !pairs.is_empty() => {
                out.push_str("{\n");
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push_str(",\n");
                    }
                    push_indent(out, indent + 1);
                    write_escaped(k, out);
                    out.push_str(": ");
                    v.write_pretty(out, indent + 1);
                }
                out.push('\n');
                push_indent(out, indent);
                out.push('}');
            }
            other => other.write(out),
        }
    }
}

fn push_indent(out: &mut String, indent: usize) {
    for _ in 0..indent {
        out.push_str("  ");
    }
}

fn write_num(n: f64, out: &mut String) {
    if n.is_finite() {
        if n.fract() == 0.0 && n.abs() < 9.007_199_254_740_992e15 {
            let _ = fmt::Write::write_fmt(out, format_args!("{}", n as i64));
        } else {
            let _ = fmt::Write::write_fmt(out, format_args!("{n}"));
        }
    } else {
        // JSON has no NaN/Inf; null is the conventional degradation.
        out.push_str("null");
    }
}

fn write_escaped(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = fmt::Write::write_fmt(out, format_args!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.render())
    }
}

impl From<bool> for Json {
    fn from(b: bool) -> Json {
        Json::Bool(b)
    }
}
impl From<f64> for Json {
    fn from(n: f64) -> Json {
        Json::Num(n)
    }
}
impl From<u64> for Json {
    fn from(n: u64) -> Json {
        Json::Num(n as f64)
    }
}
impl From<i64> for Json {
    fn from(n: i64) -> Json {
        Json::Num(n as f64)
    }
}
impl From<usize> for Json {
    fn from(n: usize) -> Json {
        Json::Num(n as f64)
    }
}
impl From<u32> for Json {
    fn from(n: u32) -> Json {
        Json::Num(f64::from(n))
    }
}
impl From<&str> for Json {
    fn from(s: &str) -> Json {
        Json::Str(s.to_owned())
    }
}
impl From<String> for Json {
    fn from(s: String) -> Json {
        Json::Str(s)
    }
}
impl<T: Into<Json>> From<Vec<T>> for Json {
    fn from(v: Vec<T>) -> Json {
        Json::Arr(v.into_iter().map(Into::into).collect())
    }
}
impl<T: Into<Json>> From<Option<T>> for Json {
    fn from(v: Option<T>) -> Json {
        v.map_or(Json::Null, Into::into)
    }
}
impl<V: Into<Json>> From<BTreeMap<String, V>> for Json {
    fn from(m: BTreeMap<String, V>) -> Json {
        Json::Obj(m.into_iter().map(|(k, v)| (k, v.into())).collect())
    }
}

/// A parse failure: byte offset plus message.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct JsonParseError {
    /// Byte offset of the failure.
    pub at: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for JsonParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "JSON parse error at byte {}: {}", self.at, self.message)
    }
}

impl std::error::Error for JsonParseError {}

impl Json {
    /// Parses one JSON document; trailing whitespace is allowed, trailing
    /// garbage is not. Runs in time linear in `text.len()`.
    ///
    /// # Errors
    ///
    /// [`JsonParseError`] with the byte offset of the first problem.
    pub fn parse(text: &str) -> Result<Json, JsonParseError> {
        let mut p = Parser {
            text,
            bytes: text.as_bytes(),
            pos: 0,
        };
        p.skip_ws();
        let value = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(p.err("trailing characters after document"));
        }
        Ok(value)
    }
}

struct Parser<'a> {
    /// The input, for slicing string runs out of.
    text: &'a str,
    /// The same input as bytes, for scanning.
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn err(&self, message: impl Into<String>) -> JsonParseError {
        JsonParseError {
            at: self.pos,
            message: message.into(),
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), JsonParseError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(format!("expected `{}`", b as char)))
        }
    }

    fn literal(&mut self, lit: &str, value: Json) -> Result<Json, JsonParseError> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(value)
        } else {
            Err(self.err(format!("expected `{lit}`")))
        }
    }

    fn value(&mut self) -> Result<Json, JsonParseError> {
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => self.string().map(Json::Str),
            Some(b'[') => self.array(),
            Some(b'{') => self.object(),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            Some(c) => Err(self.err(format!("unexpected `{}`", c as char))),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn array(&mut self) -> Result<Json, JsonParseError> {
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
                _ => return Err(self.err("expected `,` or `]`")),
            }
        }
    }

    fn object(&mut self) -> Result<Json, JsonParseError> {
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
            let value = self.value()?;
            pairs.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(pairs));
                }
                _ => return Err(self.err("expected `,` or `}`")),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonParseError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            // Copy the run up to the next quote, backslash or control byte
            // in one step. Every stop byte is ASCII, so both ends of the run
            // are char boundaries of the `&str` input: no re-validation.
            let rest = &self.bytes[self.pos..];
            let run = rest
                .iter()
                .position(|&b| b == b'"' || b == b'\\' || b < 0x20)
                .unwrap_or(rest.len());
            out.push_str(&self.text[self.pos..self.pos + run]);
            self.pos += run;
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    out.push(self.escape()?);
                }
                Some(_) => return Err(self.err("raw control character in string")),
            }
        }
    }

    /// Decodes the escape whose backslash was just consumed and steps past
    /// it. A `\u` high surrogate directly followed by a `\u` low surrogate
    /// decodes to the pair's scalar; any other surrogate is U+FFFD.
    fn escape(&mut self) -> Result<char, JsonParseError> {
        let c = match self.peek() {
            Some(b'"') => '"',
            Some(b'\\') => '\\',
            Some(b'/') => '/',
            Some(b'n') => '\n',
            Some(b'r') => '\r',
            Some(b't') => '\t',
            Some(b'b') => '\u{8}',
            Some(b'f') => '\u{c}',
            Some(b'u') => {
                let code = self.hex4()?;
                let scalar = match code {
                    0xD800..=0xDBFF => match self.low_surrogate() {
                        Some(low) => 0x1_0000 + ((code - 0xD800) << 10) + (low - 0xDC00),
                        None => code,
                    },
                    _ => code,
                };
                char::from_u32(scalar).unwrap_or('\u{FFFD}')
            }
            _ => return Err(self.err("invalid escape")),
        };
        self.pos += 1;
        Ok(c)
    }

    /// After the last digit of a `\u` escape at `self.pos`: consumes a
    /// directly following `\u` low-surrogate escape and returns its value.
    /// Consumes nothing otherwise, leaving any other escape to be decoded
    /// (or rejected) on its own.
    fn low_surrogate(&mut self) -> Option<u32> {
        let last_digit = self.pos;
        if !self.bytes[last_digit + 1..].starts_with(b"\\u") {
            return None;
        }
        self.pos += 2;
        match self.hex4() {
            Ok(low @ 0xDC00..=0xDFFF) => Some(low),
            _ => {
                self.pos = last_digit;
                None
            }
        }
    }

    /// The value of the exactly four hex digits after the `u` at
    /// `self.pos`; leaves `self.pos` on the last digit.
    fn hex4(&mut self) -> Result<u32, JsonParseError> {
        let digits = self
            .bytes
            .get(self.pos + 1..self.pos + 5)
            .ok_or_else(|| self.err("truncated \\u escape"))?;
        let mut code = 0;
        for &d in digits {
            let digit = char::from(d)
                .to_digit(16)
                .ok_or_else(|| self.err("invalid \\u escape"))?;
            code = code * 16 + digit;
        }
        self.pos += 4;
        Ok(code)
    }

    fn number(&mut self) -> Result<Json, JsonParseError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
            self.pos += 1;
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ASCII");
        text.parse::<f64>()
            .map(Json::Num)
            .map_err(|_| self.err(format!("invalid number `{text}`")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_and_parse_round_trip() {
        let doc = Json::obj([
            ("name", Json::str("run \"x\"\n")),
            ("count", Json::from(42u64)),
            ("rate", Json::Num(0.995)),
            ("neg", Json::from(-3i64)),
            ("ok", Json::Bool(true)),
            ("none", Json::Null),
            (
                "items",
                Json::Arr(vec![Json::from(1u64), Json::str("two"), Json::Null]),
            ),
        ]);
        let text = doc.render();
        let back = Json::parse(&text).expect("own output parses");
        assert_eq!(back, doc);
        let pretty = doc.render_pretty();
        assert_eq!(Json::parse(&pretty).expect("pretty parses"), doc);
    }

    #[test]
    fn integers_render_without_decimal_point() {
        assert_eq!(Json::from(7u64).render(), "7");
        assert_eq!(Json::Num(7.5).render(), "7.5");
        assert_eq!(Json::Num(f64::NAN).render(), "null");
    }

    #[test]
    fn accessors_navigate_objects() {
        let doc = Json::parse(r#"{"a": {"b": [1, 2, 3]}, "s": "x", "t": true}"#).unwrap();
        let arr = doc.get("a").unwrap().get("b").unwrap().as_arr().unwrap();
        assert_eq!(arr.len(), 3);
        assert_eq!(arr[2].as_u64(), Some(3));
        assert_eq!(doc.get("s").unwrap().as_str(), Some("x"));
        assert_eq!(doc.get("t").unwrap().as_bool(), Some(true));
        assert!(doc.get("missing").is_none());
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(Json::parse("").is_err());
        assert!(Json::parse("{").is_err());
        assert!(Json::parse("[1,]").is_err());
        assert!(Json::parse("{\"a\" 1}").is_err());
        assert!(Json::parse("true false").is_err());
        assert!(Json::parse("\"unterminated").is_err());
    }

    #[test]
    fn escapes_survive() {
        let s = "tab\there \"quote\" back\\slash\u{1}";
        let text = Json::str(s).render();
        assert_eq!(Json::parse(&text).unwrap().as_str(), Some(s));
    }

    #[test]
    fn unicode_escape_parses() {
        assert_eq!(
            Json::parse("\"\\u0041\\u00e9\"").unwrap().as_str(),
            Some("Aé")
        );
    }

    fn parse_str(text: &str) -> String {
        Json::parse(text).unwrap().as_str().unwrap().to_owned()
    }

    fn parse_err(text: &str) -> (usize, String) {
        let err = Json::parse(text).unwrap_err();
        (err.at, err.message)
    }

    #[test]
    fn multibyte_runs_meet_escapes() {
        assert_eq!(parse_str(r#""é\n日本\t😀""#), "é\n日本\t😀");
        assert_eq!(parse_str(r#""\"é\\日本\u00e9😀\/""#), "\"é\\日本é😀/");
        assert_eq!(parse_str(r#""😀\u0041é""#), "😀Aé");
        assert_eq!(parse_str(r#""""#), "");
        let s = "日本\u{1}é\"😀\\\u{7f}\u{2028}";
        assert_eq!(parse_str(&Json::str(s).render()), s);
    }

    #[test]
    fn raw_control_bytes_error_at_their_own_offset() {
        let control = |at| (at, "raw control character in string".to_owned());
        // At the start of a run: after the opening quote, after an escape.
        assert_eq!(parse_err("\"\u{1}abc\""), control(1));
        assert_eq!(parse_err("\"\\n\u{0}\""), control(3));
        // In the middle of one, after ASCII and after multibyte text.
        assert_eq!(parse_err("\"ab\u{1f}c\""), control(3));
        assert_eq!(parse_err("[\"x\", \"é日\nb\"]"), control(12));
    }

    #[test]
    fn a_run_reaching_eof_is_unterminated() {
        let unterminated = |at| (at, "unterminated string".to_owned());
        assert_eq!(parse_err("\"abc"), unterminated(4));
        assert_eq!(parse_err("\"日本😀"), unterminated(11));
        assert_eq!(parse_err("{\"k\": \"a\\n"), unterminated(10));
        assert_eq!(parse_err("\""), unterminated(1));
        assert_eq!(parse_err("\"ab\\"), (4, "invalid escape".to_owned()));
    }

    #[test]
    fn unicode_escapes_take_exactly_four_hex_digits() {
        for bad in [
            r#""\u+041""#,
            r#""\u-041""#,
            r#""\u 041""#,
            r#""\u00g1""#,
            r#""\u00é""#,
        ] {
            assert_eq!(
                parse_err(bad),
                (2, "invalid \\u escape".to_owned()),
                "{bad}"
            );
        }
        assert_eq!(
            parse_err(r#""\u004"#),
            (2, "truncated \\u escape".to_owned())
        );
        assert_eq!(parse_str(r#""\u004A\u004a""#), "JJ");
    }

    #[test]
    fn surrogate_pairs_combine_and_lone_surrogates_degrade() {
        // What Python's `json.dump` writes for a non-BMP character.
        assert_eq!(parse_str(r#""\ud83d\ude00""#), "😀");
        assert_eq!(
            parse_str(r#""a\uD83D\uDE00b\udbff\udfff""#),
            "a😀b\u{10FFFF}"
        );
        assert_eq!(parse_str(r#""\ud83d""#), "\u{FFFD}");
        assert_eq!(parse_str(r#""\ude00\ud83d""#), "\u{FFFD}\u{FFFD}");
        assert_eq!(parse_str(r#""\ud83dx""#), "\u{FFFD}x");
        assert_eq!(parse_str(r#""\ud83d\n""#), "\u{FFFD}\n");
        // The escape after a high surrogate stands on its own when it is
        // not a low one.
        assert_eq!(parse_str(r#""\ud83d\u0041""#), "\u{FFFD}A");
        assert_eq!(parse_str(r#""\ud83d\ud83d\ude00""#), "\u{FFFD}😀");
        assert_eq!(parse_str(r#""\u0041\ude00""#), "A\u{FFFD}");
        assert_eq!(
            parse_err(r#""\ud83d\u+041""#),
            (8, "invalid \\u escape".to_owned())
        );
        assert_eq!(
            parse_err(r#""\ud83d\ude0"#),
            (8, "truncated \\u escape".to_owned())
        );
    }

    /// A `--client` report line holds the whole manifest on one line. A
    /// parser that re-validates the remaining input per character needs
    /// minutes for this; a linear scan takes milliseconds, even in a debug
    /// build.
    #[test]
    fn a_multi_megabyte_line_of_short_strings_parses_in_linear_time() {
        let item = Json::obj([
            ("port", Json::str("init3")),
            ("message", Json::str("beat \"0\" é")),
            ("bins", Json::from(vec!["a", "bb", "日本"])),
        ]);
        let items = vec![item; 40_000];
        let line = Json::Arr(items.clone()).render();
        assert!(line.len() >= 2_000_000, "{} bytes", line.len());
        assert!(!line.contains('\n'));
        let start = std::time::Instant::now();
        let parsed = Json::parse(&line).unwrap();
        let elapsed = start.elapsed();
        assert_eq!(parsed, Json::Arr(items));
        assert!(elapsed.as_secs() < 10, "parse took {elapsed:?}");
    }
}
