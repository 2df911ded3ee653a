//! Shared hand-rolled JSON machinery (`std`-only).
//!
//! The workspace builds offline against a stub `serde_json`, so every
//! machine-readable export — fabric counters, channel loads, workload
//! reports, flight-recorder JSONL, engine telemetry — is written by
//! hand. This module is the single home for that machinery: a compact
//! [`JsonBuf`] writer with automatic comma management, the string
//! [`escape`] routine, and the minimal subset [`parse`]r the tests
//! validating those exports read documents back with.
//!
//! It lives in `ibfat-sim` because the dependency arrows point this way
//! (`ib-fabric` → `ibfat-sim` → …); `ib-fabric` re-exports it as
//! `ib_fabric::json` for the CLI.

/// Escape a string for inclusion in a JSON string literal.
pub fn escape(s: &str) -> String {
    s.chars()
        .flat_map(|c| match c {
            '"' => vec!['\\', '"'],
            '\\' => vec!['\\', '\\'],
            c if (c as u32) < 0x20 => format!("\\u{:04x}", c as u32).chars().collect(),
            c => vec![c],
        })
        .collect()
}

/// A compact JSON writer: no whitespace, automatic comma placement.
///
/// Structural calls ([`begin_obj`](JsonBuf::begin_obj) /
/// [`begin_arr`](JsonBuf::begin_arr) and their `end_*` twins) nest
/// freely; [`key`](JsonBuf::key) names the next value inside an object;
/// the `field_*` helpers fuse both. The writer inserts `,` between
/// siblings so call sites never track "first element" state.
///
/// ```
/// use ibfat_sim::json::JsonBuf;
/// let mut j = JsonBuf::new();
/// j.begin_obj();
/// j.field_u64("schema", 1);
/// j.key("rows");
/// j.begin_arr();
/// j.str_value("a\"b");
/// j.u64_value(7);
/// j.end_arr();
/// j.end_obj();
/// assert_eq!(j.into_string(), r#"{"schema":1,"rows":["a\"b",7]}"#);
/// ```
#[derive(Debug, Default)]
pub struct JsonBuf {
    out: String,
    /// Per-nesting-level "next sibling needs a comma" flags.
    comma: Vec<bool>,
    /// A `key` was just written; the next value must not be preceded by
    /// a comma.
    pending_value: bool,
}

impl JsonBuf {
    pub fn new() -> JsonBuf {
        JsonBuf::with_capacity(256)
    }

    pub fn with_capacity(cap: usize) -> JsonBuf {
        JsonBuf {
            out: String::with_capacity(cap),
            comma: Vec::new(),
            pending_value: false,
        }
    }

    /// Finish and take the document.
    pub fn into_string(self) -> String {
        debug_assert!(self.comma.is_empty(), "unbalanced begin/end");
        self.out
    }

    fn sep(&mut self) {
        if self.pending_value {
            self.pending_value = false;
            return;
        }
        if let Some(need) = self.comma.last_mut() {
            if *need {
                self.out.push(',');
            } else {
                *need = true;
            }
        }
    }

    pub fn begin_obj(&mut self) {
        self.sep();
        self.out.push('{');
        self.comma.push(false);
    }

    pub fn end_obj(&mut self) {
        self.comma.pop();
        self.out.push('}');
    }

    pub fn begin_arr(&mut self) {
        self.sep();
        self.out.push('[');
        self.comma.push(false);
    }

    pub fn end_arr(&mut self) {
        self.comma.pop();
        self.out.push(']');
    }

    /// Write `"k":`; the next value call provides the value.
    pub fn key(&mut self, k: &str) {
        self.sep();
        self.out.push('"');
        self.out.push_str(&escape(k));
        self.out.push_str("\":");
        self.pending_value = true;
    }

    pub fn str_value(&mut self, v: &str) {
        self.sep();
        self.out.push('"');
        self.out.push_str(&escape(v));
        self.out.push('"');
    }

    pub fn u64_value(&mut self, v: u64) {
        self.sep();
        let _ = std::fmt::Write::write_fmt(&mut self.out, format_args!("{v}"));
    }

    pub fn i64_value(&mut self, v: i64) {
        self.sep();
        let _ = std::fmt::Write::write_fmt(&mut self.out, format_args!("{v}"));
    }

    pub fn bool_value(&mut self, v: bool) {
        self.sep();
        self.out.push_str(if v { "true" } else { "false" });
    }

    /// Write a float with fixed `decimals` (JSON has no NaN/Inf; both
    /// are written as `0`).
    pub fn f64_value(&mut self, v: f64, decimals: usize) {
        self.sep();
        if v.is_finite() {
            let _ = std::fmt::Write::write_fmt(&mut self.out, format_args!("{v:.decimals$}"));
        } else {
            self.out.push('0');
        }
    }

    /// Escape hatch: splice pre-rendered JSON as one value.
    pub fn raw_value(&mut self, v: &str) {
        self.sep();
        self.out.push_str(v);
    }

    pub fn field_str(&mut self, k: &str, v: &str) {
        self.key(k);
        self.str_value(v);
    }

    pub fn field_u64(&mut self, k: &str, v: u64) {
        self.key(k);
        self.u64_value(v);
    }

    pub fn field_i64(&mut self, k: &str, v: i64) {
        self.key(k);
        self.i64_value(v);
    }

    pub fn field_bool(&mut self, k: &str, v: bool) {
        self.key(k);
        self.bool_value(v);
    }

    pub fn field_f64(&mut self, k: &str, v: f64, decimals: usize) {
        self.key(k);
        self.f64_value(v, decimals);
    }
}

// ----- a minimal JSON subset parser ------------------------------------

/// A parsed JSON value (the subset the workspace's writers emit).
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    Number(f64),
    String(String),
    Array(Vec<Json>),
    Object(Vec<(String, Json)>),
}

/// Field access over a parsed object.
pub struct Obj<'a>(pub &'a [(String, Json)]);

impl Obj<'_> {
    /// The value of field `key`, or an error naming the missing field.
    pub fn field(&self, key: &str) -> Result<&Json, String> {
        self.0
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v)
            .ok_or_else(|| format!("missing field \"{key}\""))
    }
}

impl Json {
    pub fn as_object(&self, what: &str) -> Result<Obj<'_>, String> {
        match self {
            Json::Object(fields) => Ok(Obj(fields)),
            _ => Err(format!("{what}: expected an object")),
        }
    }
    pub fn as_array(&self, what: &str) -> Result<&[Json], String> {
        match self {
            Json::Array(items) => Ok(items),
            _ => Err(format!("{what}: expected an array")),
        }
    }
    pub fn as_string(&self, what: &str) -> Result<&str, String> {
        match self {
            Json::String(s) => Ok(s),
            _ => Err(format!("{what}: expected a string")),
        }
    }
    pub fn as_f64(&self, what: &str) -> Result<f64, String> {
        match self {
            Json::Number(x) => Ok(*x),
            _ => Err(format!("{what}: expected a number")),
        }
    }
    pub fn as_u64(&self, what: &str) -> Result<u64, String> {
        let x = self.as_f64(what)?;
        if x < 0.0 || x.fract() != 0.0 {
            return Err(format!("{what}: expected a non-negative integer, got {x}"));
        }
        Ok(x as u64)
    }
    pub fn as_bool(&self, what: &str) -> Result<bool, String> {
        match self {
            Json::Bool(b) => Ok(*b),
            _ => Err(format!("{what}: expected a boolean")),
        }
    }
}

/// Parse one complete JSON document (tolerant of whitespace and key
/// order; not a general-purpose JSON parser — exactly the subset the
/// workspace writers emit, plus literals).
pub fn parse(text: &str) -> Result<Json, String> {
    Parser::new(text).parse_document()
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn new(text: &'a str) -> Self {
        Parser {
            bytes: text.as_bytes(),
            pos: 0,
        }
    }

    fn parse_document(&mut self) -> Result<Json, String> {
        let v = self.parse_value()?;
        self.skip_ws();
        if self.pos != self.bytes.len() {
            return Err(format!("trailing content at byte {}", self.pos));
        }
        Ok(v)
    }

    fn skip_ws(&mut self) {
        while self
            .bytes
            .get(self.pos)
            .is_some_and(|b| b.is_ascii_whitespace())
        {
            self.pos += 1;
        }
    }

    fn peek(&mut self) -> Result<u8, String> {
        self.skip_ws();
        self.bytes
            .get(self.pos)
            .copied()
            .ok_or_else(|| "unexpected end of input".to_string())
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        let got = self.peek()?;
        if got != b {
            return Err(format!(
                "expected '{}' at byte {}, found '{}'",
                b as char, self.pos, got as char
            ));
        }
        self.pos += 1;
        Ok(())
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(format!("invalid literal at byte {}", self.pos))
        }
    }

    fn parse_value(&mut self) -> Result<Json, String> {
        match self.peek()? {
            b'{' => self.parse_object(),
            b'[' => self.parse_array(),
            b'"' => Ok(Json::String(self.parse_string()?)),
            b't' => self.literal("true", Json::Bool(true)),
            b'f' => self.literal("false", Json::Bool(false)),
            b'n' => self.literal("null", Json::Null),
            _ => self.parse_number(),
        }
    }

    fn parse_object(&mut self) -> Result<Json, String> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        if self.peek()? == b'}' {
            self.pos += 1;
            return Ok(Json::Object(fields));
        }
        loop {
            self.skip_ws();
            let key = self.parse_string()?;
            self.expect(b':')?;
            let value = self.parse_value()?;
            fields.push((key, value));
            match self.peek()? {
                b',' => self.pos += 1,
                b'}' => {
                    self.pos += 1;
                    return Ok(Json::Object(fields));
                }
                other => return Err(format!("expected ',' or '}}', found '{}'", other as char)),
            }
        }
    }

    fn parse_array(&mut self) -> Result<Json, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        if self.peek()? == b']' {
            self.pos += 1;
            return Ok(Json::Array(items));
        }
        loop {
            items.push(self.parse_value()?);
            match self.peek()? {
                b',' => self.pos += 1,
                b']' => {
                    self.pos += 1;
                    return Ok(Json::Array(items));
                }
                other => return Err(format!("expected ',' or ']', found '{}'", other as char)),
            }
        }
    }

    fn parse_string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.bytes.get(self.pos) {
                None => return Err("unterminated string".into()),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.bytes.get(self.pos) {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'n') => out.push('\n'),
                        Some(b't') => out.push('\t'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .ok_or("truncated \\u escape")?;
                            let code = u32::from_str_radix(
                                std::str::from_utf8(hex).map_err(|e| e.to_string())?,
                                16,
                            )
                            .map_err(|e| e.to_string())?;
                            out.push(char::from_u32(code).ok_or("invalid \\u escape")?);
                            self.pos += 4;
                        }
                        other => return Err(format!("unsupported escape: {other:?}")),
                    }
                    self.pos += 1;
                }
                Some(&b) => {
                    // Multi-byte UTF-8 passes through byte by byte; the
                    // input is a &str, so the result stays valid.
                    let start = self.pos;
                    let len = match b {
                        _ if b < 0x80 => 1,
                        _ if b >= 0xF0 => 4,
                        _ if b >= 0xE0 => 3,
                        _ => 2,
                    };
                    let chunk = self
                        .bytes
                        .get(start..start + len)
                        .ok_or("truncated UTF-8 sequence")?;
                    out.push_str(std::str::from_utf8(chunk).map_err(|e| e.to_string())?);
                    self.pos += len;
                }
            }
        }
    }

    fn parse_number(&mut self) -> Result<Json, String> {
        self.skip_ws();
        let start = self.pos;
        while self
            .bytes
            .get(self.pos)
            .is_some_and(|b| b.is_ascii_digit() || matches!(b, b'-' | b'+' | b'.' | b'e' | b'E'))
        {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).map_err(|e| e.to_string())?;
        text.parse::<f64>()
            .map(Json::Number)
            .map_err(|_| format!("invalid number \"{text}\" at byte {start}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn writer_round_trips_through_the_parser() {
        let mut j = JsonBuf::new();
        j.begin_obj();
        j.field_u64("n", 42);
        j.field_str("s", "quote\" slash\\ tab\t");
        j.field_f64("f", 2.5, 3);
        j.field_bool("b", true);
        j.key("arr");
        j.begin_arr();
        j.begin_obj();
        j.field_i64("neg", -7);
        j.end_obj();
        j.u64_value(1);
        j.u64_value(2);
        j.end_arr();
        j.key("empty");
        j.begin_arr();
        j.end_arr();
        j.end_obj();
        let text = j.into_string();
        assert_eq!(
            text,
            "{\"n\":42,\"s\":\"quote\\\" slash\\\\ tab\\u0009\",\"f\":2.500,\
             \"b\":true,\"arr\":[{\"neg\":-7},1,2],\"empty\":[]}"
        );
        let doc = parse(&text).unwrap();
        let obj = doc.as_object("top").unwrap();
        assert_eq!(obj.field("n").unwrap().as_u64("n").unwrap(), 42);
        assert_eq!(
            obj.field("s").unwrap().as_string("s").unwrap(),
            "quote\" slash\\ tab\t"
        );
        assert!((obj.field("f").unwrap().as_f64("f").unwrap() - 2.5).abs() < 1e-12);
        assert!(obj.field("b").unwrap().as_bool("b").unwrap());
        assert_eq!(obj.field("arr").unwrap().as_array("arr").unwrap().len(), 3);
    }

    #[test]
    fn non_finite_floats_degrade_to_zero() {
        let mut j = JsonBuf::new();
        j.begin_obj();
        j.field_f64("nan", f64::NAN, 1);
        j.field_f64("inf", f64::INFINITY, 1);
        j.end_obj();
        assert_eq!(j.into_string(), "{\"nan\":0,\"inf\":0}");
    }

    #[test]
    fn parser_rejects_garbage() {
        assert!(parse("").is_err());
        assert!(parse("not json").is_err());
        assert!(parse("{\"a\": 1} x").is_err());
        assert!(parse("[1, 2").is_err());
        assert!(parse("\"unterminated").is_err());
    }

    #[test]
    fn parser_accepts_literals_and_whitespace() {
        let doc = parse(" { \"a\" : [ true , false , null ] } ").unwrap();
        let arr = doc
            .as_object("top")
            .unwrap()
            .field("a")
            .unwrap()
            .as_array("a")
            .unwrap()
            .to_vec();
        assert_eq!(arr, vec![Json::Bool(true), Json::Bool(false), Json::Null]);
    }
}
