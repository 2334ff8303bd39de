//! A minimal hand-rolled JSON reader — the parsing half of the
//! workspace's no-serde JSON story (the emitting half is
//! [`BenchReport::json`](crate::BenchReport::json) and friends, built on
//! [`radio_network::json_escape`]).
//!
//! The shard merger ([`shard`](crate::shard)) must read back what shard
//! runs wrote and re-emit it **byte-identically**, so numbers are kept as
//! their raw source tokens ([`Json::Num`]) and only converted on access —
//! a `u64` round-trips exactly instead of being laundered through `f64`.
//!
//! The grammar is standard JSON (RFC 8259): objects, arrays, strings with
//! the usual escapes (including `\uXXXX` with surrogate pairs), numbers,
//! `true`/`false`/`null`. Errors carry the byte offset of the offending
//! input.
//!
//! The reader parses input from outside the program (trace lines, corpus
//! sidecars, shard files), and it recurses once per `[` or `{`. Documents
//! nested deeper than a fixed limit are therefore rejected with a
//! [`JsonError`] instead of overflowing the stack; every document the
//! workspace writes nests a handful of levels.

/// A parsed JSON value.
#[derive(Clone, PartialEq, Debug)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number, kept as its raw source token so integers round-trip
    /// exactly (convert with [`Json::as_u64`] / [`Json::as_f64`]).
    Num(String),
    /// A string, with escapes resolved.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object as an ordered key–value list (source order preserved).
    Obj(Vec<(String, Json)>),
}

/// A parse or access error: what went wrong, and where (byte offset into
/// the source for parse errors; 0 for access errors).
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct JsonError {
    /// Human-readable cause.
    pub message: String,
    /// Byte offset into the parsed text (0 when not applicable).
    pub offset: usize,
}

impl std::fmt::Display for JsonError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} (at byte {})", self.message, self.offset)
    }
}

impl std::error::Error for JsonError {}

impl Json {
    /// Parse `text` as a single JSON document (trailing whitespace
    /// allowed, trailing garbage rejected).
    ///
    /// # Errors
    ///
    /// [`JsonError`] with the byte offset of the first offending input —
    /// including truncated documents, the signature of a torn write.
    pub fn parse(text: &str) -> Result<Json, JsonError> {
        let mut p = Parser {
            bytes: text.as_bytes(),
            pos: 0,
            depth: 0,
        };
        p.skip_ws();
        let value = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(p.err("trailing characters after JSON document"));
        }
        Ok(value)
    }

    /// Object field lookup (`None` for non-objects and missing keys).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as `&str`, if it is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as `bool`, if it is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The value as an exact `u64`, if it is an unsigned integer token.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(raw) => raw.parse().ok(),
            _ => None,
        }
    }

    /// The value as an exact `usize`, if it is an unsigned integer token.
    pub fn as_usize(&self) -> Option<usize> {
        match self {
            Json::Num(raw) => raw.parse().ok(),
            _ => None,
        }
    }

    /// The value as an exact `i64`, if it is a (possibly signed) integer
    /// token.
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Json::Num(raw) => raw.parse().ok(),
            _ => None,
        }
    }

    /// The value as `f64`, if it is any number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(raw) => raw.parse().ok(),
            _ => None,
        }
    }

    /// The value as a slice of elements, if it is an array.
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// `true` for `null`.
    pub fn is_null(&self) -> bool {
        matches!(self, Json::Null)
    }
}

/// Look up a required object field, with a uniform error message.
///
/// # Errors
/// When the field is absent (the message names `context` and `key`).
pub fn field<'a>(v: &'a Json, key: &str, context: &str) -> Result<&'a Json, String> {
    v.get(key)
        .ok_or_else(|| format!("{context}: missing field \"{key}\""))
}

/// Look up a required exact-`u64` field.
///
/// # Errors
/// When the field is absent or not an unsigned integer.
pub fn u64_field(v: &Json, key: &str, context: &str) -> Result<u64, String> {
    field(v, key, context)?
        .as_u64()
        .ok_or_else(|| format!("{context}: field \"{key}\" is not an unsigned integer"))
}

/// Look up a required exact-`usize` field.
///
/// # Errors
/// When the field is absent or not an unsigned integer.
pub fn usize_field(v: &Json, key: &str, context: &str) -> Result<usize, String> {
    field(v, key, context)?
        .as_usize()
        .ok_or_else(|| format!("{context}: field \"{key}\" is not an unsigned integer"))
}

/// Look up a required string field.
///
/// # Errors
/// When the field is absent or not a string.
pub fn str_field<'a>(v: &'a Json, key: &str, context: &str) -> Result<&'a str, String> {
    field(v, key, context)?
        .as_str()
        .ok_or_else(|| format!("{context}: field \"{key}\" is not a string"))
}

/// Look up the `"kind"` discriminant of a tagged object.
///
/// # Errors
/// When `"kind"` is absent or not a string.
pub fn kind<'a>(v: &'a Json, context: &str) -> Result<&'a str, String> {
    str_field(v, "kind", context)
}

/// How many arrays and objects may enclose a value. The parser recurses
/// once per level, so the bound keeps hostile input off the end of the
/// stack.
const MAX_DEPTH: usize = 64;

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects currently open around `pos`.
    depth: usize,
}

impl Parser<'_> {
    fn err(&self, message: impl Into<String>) -> JsonError {
        JsonError {
            message: message.into(),
            offset: self.pos,
        }
    }

    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if matches!(b, b' ' | b'\t' | b'\n' | b'\r') {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(format!("expected '{}'", b as char)))
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, JsonError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.err(format!("expected '{word}'")))
        }
    }

    fn value(&mut self) -> Result<Json, JsonError> {
        match self.peek() {
            Some(b'{') => self.nested(Self::object),
            Some(b'[') => self.nested(Self::array),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(other) => Err(self.err(format!("unexpected character '{}'", other as char))),
            None => Err(self.err("unexpected end of input (truncated document?)")),
        }
    }

    /// Parse a container one nesting level down, refusing to go deeper
    /// than [`MAX_DEPTH`].
    fn nested(
        &mut self,
        container: fn(&mut Self) -> Result<Json, JsonError>,
    ) -> Result<Json, JsonError> {
        if self.depth == MAX_DEPTH {
            return Err(self.err(format!("nesting deeper than {MAX_DEPTH} levels")));
        }
        self.depth += 1;
        let value = container(self);
        self.depth -= 1;
        value
    }

    fn object(&mut self) -> Result<Json, JsonError> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            fields.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(fields));
                }
                Some(_) => return Err(self.err("expected ',' or '}' in object")),
                None => return Err(self.err("unterminated object (truncated document?)")),
            }
        }
    }

    fn array(&mut self) -> Result<Json, JsonError> {
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
                Some(_) => return Err(self.err("expected ',' or ']' in array")),
                None => return Err(self.err("unterminated array (truncated document?)")),
            }
        }
    }

    fn hex4(&mut self) -> Result<u16, JsonError> {
        let end = self.pos + 4;
        let slice = self
            .bytes
            .get(self.pos..end)
            .ok_or_else(|| self.err("truncated \\u escape"))?;
        let s = std::str::from_utf8(slice).map_err(|_| self.err("non-ASCII in \\u escape"))?;
        let code = u16::from_str_radix(s, 16).map_err(|_| self.err("invalid \\u escape"))?;
        self.pos = end;
        Ok(code)
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(self.err("unterminated string (truncated document?)")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
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
                            self.pos += 1;
                            let hi = self.hex4()?;
                            let ch = match hi {
                                0xD800..=0xDBFF => {
                                    // Surrogate pair: require \uXXXX low half.
                                    if self.bytes.get(self.pos) != Some(&b'\\')
                                        || self.bytes.get(self.pos + 1) != Some(&b'u')
                                    {
                                        return Err(self.err("lone high surrogate"));
                                    }
                                    self.pos += 2;
                                    let lo = self.hex4()?;
                                    if !(0xDC00..=0xDFFF).contains(&lo) {
                                        return Err(self.err("invalid low surrogate"));
                                    }
                                    let code = 0x10000
                                        + ((u32::from(hi) - 0xD800) << 10)
                                        + (u32::from(lo) - 0xDC00);
                                    char::from_u32(code)
                                        .ok_or_else(|| self.err("invalid surrogate pair"))?
                                }
                                0xDC00..=0xDFFF => return Err(self.err("lone low surrogate")),
                                other => char::from_u32(u32::from(other))
                                    .ok_or_else(|| self.err("invalid \\u escape"))?,
                            };
                            out.push(ch);
                            continue;
                        }
                        _ => return Err(self.err("invalid escape sequence")),
                    }
                    self.pos += 1;
                }
                Some(b) if b < 0x20 => {
                    return Err(self.err("unescaped control character in string"))
                }
                Some(_) => {
                    // Consume one UTF-8 scalar (the input is a &str, so
                    // boundaries are valid; find the next one).
                    let rest = &self.bytes[self.pos..];
                    let len = match rest[0] {
                        b if b < 0x80 => 1,
                        b if b >= 0xF0 => 4,
                        b if b >= 0xE0 => 3,
                        _ => 2,
                    };
                    let s = std::str::from_utf8(&rest[..len])
                        .map_err(|_| self.err("invalid UTF-8 in string"))?;
                    out.push_str(s);
                    self.pos += len;
                }
            }
        }
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let digits_from = self.pos;
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        if self.pos == digits_from {
            return Err(self.err("expected digits in number"));
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            let frac_from = self.pos;
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
            if self.pos == frac_from {
                return Err(self.err("expected digits after decimal point"));
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            let exp_from = self.pos;
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
            if self.pos == exp_from {
                return Err(self.err("expected digits in exponent"));
            }
        }
        let raw = std::str::from_utf8(&self.bytes[start..self.pos])
            .expect("number tokens are ASCII")
            .to_string();
        Ok(Json::Num(raw))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_scalars() {
        assert_eq!(Json::parse("null").unwrap(), Json::Null);
        assert_eq!(Json::parse(" true ").unwrap(), Json::Bool(true));
        assert_eq!(Json::parse("false").unwrap(), Json::Bool(false));
        assert_eq!(Json::parse("42").unwrap().as_u64(), Some(42));
        assert_eq!(Json::parse("-1.5e3").unwrap().as_f64(), Some(-1500.0));
        assert_eq!(Json::parse("\"hi\"").unwrap().as_str(), Some("hi"));
    }

    #[test]
    fn u64_round_trips_exactly() {
        let raw = u64::MAX.to_string();
        let v = Json::parse(&raw).unwrap();
        // f64 would land on 18446744073709551616; the raw token does not.
        assert_eq!(v.as_u64(), Some(u64::MAX));
        assert_eq!(v, Json::Num(raw));
    }

    #[test]
    fn parses_structures() {
        let v = Json::parse(r#"{"a": [1, {"b": null}, "x"], "c": false}"#).unwrap();
        let a = v.get("a").unwrap().as_array().unwrap();
        assert_eq!(a[0].as_u64(), Some(1));
        assert!(a[1].get("b").unwrap().is_null());
        assert_eq!(a[2].as_str(), Some("x"));
        assert_eq!(v.get("c").unwrap().as_bool(), Some(false));
        assert!(v.get("missing").is_none());
        assert_eq!(Json::parse("[]").unwrap(), Json::Arr(vec![]));
        assert_eq!(Json::parse("{}").unwrap(), Json::Obj(vec![]));
        assert_eq!(Json::parse("[ \n ]").unwrap(), Json::Arr(vec![]));
    }

    #[test]
    fn resolves_escapes() {
        let v = Json::parse(r#""a\n\t\\\"Aé""#).unwrap();
        assert_eq!(v.as_str(), Some("a\n\t\\\"Aé"));
        // Surrogate pair: U+1F600.
        let v = Json::parse(r#""😀""#).unwrap();
        assert_eq!(v.as_str(), Some("\u{1F600}"));
        assert!(Json::parse(r#""\ud83d""#).is_err());
        // Raw (unescaped) non-ASCII passes through.
        let v = Json::parse("\"naïve→\"").unwrap();
        assert_eq!(v.as_str(), Some("naïve→"));
    }

    #[test]
    fn escape_emit_parse_round_trip() {
        // What json_escape writes, this parser reads back verbatim.
        let nasty = "evil\nname\t\"quoted\"\\ bell\u{7} π";
        let doc = format!("\"{}\"", radio_network::json_escape(nasty));
        assert_eq!(Json::parse(&doc).unwrap().as_str(), Some(nasty));
    }

    #[test]
    fn truncated_documents_error() {
        for torn in [
            "{\"a\": 1",
            "[1, 2",
            "\"unterminated",
            "{\"a\"",
            "tru",
            "",
            "{\"report\": \"x\", \"scenarios\": [\n    {\"grid",
        ] {
            let err = Json::parse(torn).unwrap_err();
            assert!(!err.message.is_empty(), "no message for {torn:?}");
        }
    }

    #[test]
    fn deep_nesting_is_an_error_not_a_stack_overflow() {
        let nest = |depth: usize| format!("{}{}", "[".repeat(depth), "]".repeat(depth));
        assert!(Json::parse(&nest(MAX_DEPTH)).is_ok());
        let err = Json::parse(&nest(MAX_DEPTH + 1)).unwrap_err();
        assert!(err.message.contains("nesting"), "{err}");
        assert_eq!(err.offset, MAX_DEPTH);
        // Without the bound, 100 000 levels overflow the stack and abort.
        for hostile in [
            "[".repeat(100_000),
            "{\"a\":".repeat(100_000),
            "[{\"a\":".repeat(50_000),
        ] {
            let err = Json::parse(&hostile).unwrap_err();
            assert!(err.message.contains("nesting"), "{err}");
        }
    }

    #[test]
    fn rejects_trailing_garbage_and_bad_tokens() {
        assert!(Json::parse("1 2").is_err());
        assert!(Json::parse("{'a': 1}").is_err());
        assert!(Json::parse("{\"a\": 1,}").is_err());
        assert!(Json::parse("01abc").is_err());
        assert!(Json::parse("- 1").is_err());
        assert!(Json::parse("1.").is_err());
        assert!(Json::parse("1e").is_err());
        let err = Json::parse("[1, 2  3]").unwrap_err();
        assert!(err.offset > 0);
    }
}
