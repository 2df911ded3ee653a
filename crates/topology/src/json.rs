//! The workspace's one JSON codec (`std`-only).
//!
//! Every machine-readable export — fabric counters, channel loads,
//! workload reports, flight-recorder JSONL, engine telemetry — and every
//! persisted object (a [`crate::Network`], a routing, a simulator
//! configuration or report) is written and read here: a compact
//! [`JsonBuf`] writer with automatic comma management, the string
//! [`escape`] routine, a [`parse`]r that keeps integer literals exact,
//! and the [`Codec`] trait the persisted types implement.
//!
//! It lives in `ibfat-topology`, the bottom crate, so every crate above
//! can implement [`Codec`] beside its own types; `ibfat_sim::json` and
//! `ib_fabric::json` re-export it.

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
/// use ibfat_topology::json::JsonBuf;
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

    /// Write a float in the shortest form that reads back as the same
    /// `f64` (the lossless form persisted values use; non-finite values
    /// are written as `0`, like [`f64_value`](JsonBuf::f64_value)).
    pub fn float_value(&mut self, v: f64) {
        self.sep();
        if v.is_finite() {
            let _ = std::fmt::Write::write_fmt(&mut self.out, format_args!("{v}"));
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

    pub fn field_float(&mut self, k: &str, v: f64) {
        self.key(k);
        self.float_value(v);
    }

    /// Write `"k":` and `v`'s [`Codec`] encoding.
    pub fn field<T: Codec>(&mut self, k: &str, v: &T) {
        self.key(k);
        v.encode(self);
    }
}

// ----- the parser --------------------------------------------------------

/// Deepest array/object nesting [`parse`] accepts. The workspace's
/// writers nest a handful of levels; the bound keeps a hostile input
/// (a replay line of a million `[`) from overflowing the stack.
pub const MAX_DEPTH: usize = 128;

/// A parsed JSON value.
///
/// A number keeps its literal text, so integers read back exactly
/// ([`as_u64`](Json::as_u64) of `9007199254740993` is that integer, not
/// the nearest `f64`).
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    Number(String),
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
            .ok_or_else(|| format!("missing \"{key}\""))
    }

    /// The value of field `key`, if present.
    pub fn get(&self, key: &str) -> Option<&Json> {
        self.0.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }

    /// Field `key` as an unsigned integer of type `T`.
    pub fn int<T: TryFrom<u64>>(&self, key: &str) -> Result<T, String> {
        self.field(key)?.as_int(key)
    }

    /// Field `key` as a float.
    pub fn f64(&self, key: &str) -> Result<f64, String> {
        self.field(key)?.as_f64(key)
    }

    /// Field `key` as a boolean.
    pub fn bool(&self, key: &str) -> Result<bool, String> {
        self.field(key)?.as_bool(key)
    }

    /// Field `key` as a string.
    pub fn str(&self, key: &str) -> Result<&str, String> {
        self.field(key)?.as_string(key)
    }

    /// Field `key` as an array.
    pub fn arr(&self, key: &str) -> Result<&[Json], String> {
        self.field(key)?.as_array(key)
    }

    /// Field `key` decoded as a `T`.
    pub fn decode<T: Codec>(&self, key: &str) -> Result<T, String> {
        T::decode(self.field(key)?).map_err(|e| format!("{key}: {e}"))
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
            Json::Number(text) => text
                .parse()
                .map_err(|_| format!("{what}: invalid number {text}")),
            _ => Err(format!("{what}: expected a number")),
        }
    }
    /// The value as an exact `u64`: a plain integer literal in range.
    /// Fractions, exponents and negative values are errors, never
    /// rounded or saturated.
    pub fn as_u64(&self, what: &str) -> Result<u64, String> {
        match self {
            Json::Number(text) => text
                .parse()
                .map_err(|_| format!("{what}: expected an integer in 0..=2^64-1, got {text}")),
            _ => Err(format!("{what}: expected a number")),
        }
    }
    /// The value as an exact unsigned integer of type `T` (`u8`, `u32`,
    /// `usize`, …); out of `T`'s range is an error.
    pub fn as_int<T: TryFrom<u64>>(&self, what: &str) -> Result<T, String> {
        let x = self.as_u64(what)?;
        T::try_from(x).map_err(|_| format!("{what}: {x} is out of range"))
    }
    pub fn as_bool(&self, what: &str) -> Result<bool, String> {
        match self {
            Json::Bool(b) => Ok(*b),
            _ => Err(format!("{what}: expected a boolean")),
        }
    }
}

/// Parse one complete JSON document (tolerant of whitespace and key
/// order; nesting is bounded by [`MAX_DEPTH`]).
pub fn parse(text: &str) -> Result<Json, String> {
    Parser::new(text).parse_document()
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    depth: usize,
}

impl<'a> Parser<'a> {
    fn new(text: &'a str) -> Self {
        Parser {
            bytes: text.as_bytes(),
            pos: 0,
            depth: 0,
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
            open @ (b'{' | b'[') => {
                if self.depth == MAX_DEPTH {
                    return Err(format!(
                        "nesting deeper than {MAX_DEPTH} levels at byte {}",
                        self.pos
                    ));
                }
                self.depth += 1;
                let v = if open == b'{' {
                    self.parse_object()
                } else {
                    self.parse_array()
                };
                self.depth -= 1;
                v
            }
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
                        Some(b'/') => out.push('/'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'r') => out.push('\r'),
                        Some(b'u') => {
                            let mut code = self.hex4(self.pos + 1)?;
                            self.pos += 4;
                            // A UTF-16 surrogate pair: `\ud83d\ude00`.
                            if (0xD800..0xDC00).contains(&code)
                                && self.bytes.get(self.pos + 1..self.pos + 3) == Some(b"\\u")
                            {
                                let low = self.hex4(self.pos + 3)?;
                                if (0xDC00..0xE000).contains(&low) {
                                    code = 0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00);
                                    self.pos += 6;
                                }
                            }
                            out.push(char::from_u32(code).ok_or("invalid \\u escape")?);
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

    /// The four hex digits of a `\u` escape starting at byte `at`.
    fn hex4(&self, at: usize) -> Result<u32, String> {
        let hex = self.bytes.get(at..at + 4).ok_or("truncated \\u escape")?;
        std::str::from_utf8(hex)
            .ok()
            .and_then(|h| u32::from_str_radix(h, 16).ok())
            .ok_or_else(|| "invalid \\u escape".to_string())
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
        match text.parse::<f64>() {
            Ok(_) => Ok(Json::Number(text.to_string())),
            Err(_) => Err(format!("invalid number \"{text}\" at byte {start}")),
        }
    }
}

// ----- the codec -----------------------------------------------------------

/// A type that persists as JSON: [`encode`](Codec::encode) writes one
/// value, [`decode`](Codec::decode) reads it back, and
/// `T::from_json(&x.to_json())` equals `x`.
pub trait Codec: Sized {
    /// Write `self` as one JSON value.
    fn encode(&self, j: &mut JsonBuf);

    /// Read a value written by [`encode`](Codec::encode). Malformed or
    /// out-of-range input is an error, never a panic.
    fn decode(v: &Json) -> Result<Self, String>;

    /// `self` as a compact JSON document.
    fn to_json(&self) -> String {
        let mut j = JsonBuf::new();
        self.encode(&mut j);
        j.into_string()
    }

    /// Parse and decode a document written by [`to_json`](Codec::to_json).
    fn from_json(text: &str) -> Result<Self, String> {
        Self::decode(&parse(text)?)
    }
}

/// The name of a fieldless enum variant in its `(variant, name)` table.
pub fn enum_name<T: PartialEq>(table: &[(T, &'static str)], v: &T) -> &'static str {
    table
        .iter()
        .find(|(x, _)| x == v)
        .map(|&(_, name)| name)
        .expect("every variant has a name")
}

/// The variant named `name` in a `(variant, name)` table.
pub fn enum_from<T: Copy>(table: &[(T, &'static str)], v: &Json, what: &str) -> Result<T, String> {
    let name = v.as_string(what)?;
    table
        .iter()
        .find(|&&(_, n)| n == name)
        .map(|&(x, _)| x)
        .ok_or_else(|| format!("{what}: unknown value \"{name}\""))
}

impl<T: Codec> Codec for Vec<T> {
    fn encode(&self, j: &mut JsonBuf) {
        j.begin_arr();
        for x in self {
            x.encode(j);
        }
        j.end_arr();
    }

    fn decode(v: &Json) -> Result<Self, String> {
        v.as_array("array")?
            .iter()
            .enumerate()
            .map(|(i, x)| T::decode(x).map_err(|e| format!("[{i}]: {e}")))
            .collect()
    }
}

macro_rules! int_codec {
    ($($t:ty),*) => {$(
        impl Codec for $t {
            fn encode(&self, j: &mut JsonBuf) {
                j.u64_value(u64::from(*self));
            }

            fn decode(v: &Json) -> Result<Self, String> {
                v.as_int(stringify!($t))
            }
        }
    )*};
}

int_codec!(u8, u32, u64);

/// A pair is a two-element array.
impl<A: Codec, B: Codec> Codec for (A, B) {
    fn encode(&self, j: &mut JsonBuf) {
        j.begin_arr();
        self.0.encode(j);
        self.1.encode(j);
        j.end_arr();
    }

    fn decode(v: &Json) -> Result<Self, String> {
        match v.as_array("pair")? {
            [a, b] => Ok((A::decode(a)?, B::decode(b)?)),
            _ => Err("pair: expected two elements".into()),
        }
    }
}

impl<T: Codec> Codec for Option<T> {
    fn encode(&self, j: &mut JsonBuf) {
        match self {
            Some(x) => x.encode(j),
            None => j.raw_value("null"),
        }
    }

    fn decode(v: &Json) -> Result<Self, String> {
        match v {
            Json::Null => Ok(None),
            v => T::decode(v).map(Some),
        }
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
    fn parser_reads_every_string_escape() {
        let doc = parse(r#""q\" b\\ s\/ \b\f\n\r\t \u00e9 \ud83d\ude00""#).unwrap();
        assert_eq!(
            doc.as_string("s").unwrap(),
            "q\" b\\ s/ \u{8}\u{c}\n\r\t \u{e9} \u{1f600}"
        );
        for bad in [r#""\x""#, r#""\ud83d""#, r#""\u12""#, r#""\uzzzz""#] {
            assert!(parse(bad).is_err(), "{bad}");
        }
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

    #[test]
    fn integers_read_back_exactly() {
        for x in [u64::MAX, (1 << 53) + 1, 0] {
            let mut j = JsonBuf::new();
            j.u64_value(x);
            assert_eq!(parse(&j.into_string()).unwrap().as_u64("x").unwrap(), x);
        }
        assert_eq!(
            parse("9007199254740993").unwrap().as_u64("x").unwrap(),
            9_007_199_254_740_993
        );
        for bad in ["1e20", "-1", "1.5", "18446744073709551616"] {
            assert!(parse(bad).unwrap().as_u64("x").is_err(), "{bad}");
        }
        assert!(parse("256").unwrap().as_int::<u8>("x").is_err());
        assert_eq!(parse("255").unwrap().as_int::<u8>("x").unwrap(), 255);
    }

    #[test]
    fn floats_read_back_exactly() {
        for x in [0.1, 1.0 / 3.0, 1e-300, 12345.678e100, -0.0, f64::MAX] {
            let mut j = JsonBuf::new();
            j.float_value(x);
            let back = parse(&j.into_string()).unwrap().as_f64("x").unwrap();
            assert_eq!(back.to_bits(), x.to_bits(), "{x}");
        }
    }

    #[test]
    fn nesting_is_bounded() {
        let deep = "[".repeat(1_000_000);
        let err = parse(&deep).unwrap_err();
        assert!(err.contains("nesting deeper"), "{err}");
        let ok = format!("{}{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        parse(&ok).unwrap();
        let over = format!("{}{}", "[".repeat(MAX_DEPTH + 1), "]".repeat(MAX_DEPTH + 1));
        assert!(parse(&over).is_err());
    }
}
