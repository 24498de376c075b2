//! A minimal JSON codec for the wire protocol.
//!
//! The container has no registry access, so rather than pulling in `serde`
//! this module implements exactly the JSON subset the protocol needs: the
//! six value kinds, UTF-8 strings with the standard escapes, and `f64`
//! numbers. Object encoding preserves insertion order, so responses are
//! byte-deterministic — the concurrency tests compare raw response lines
//! across servers and thread counts.
//!
//! Integers ride on `f64`, which is exact up to `2^53`; anything bigger
//! (witness counts, fingerprints) crosses the wire as a decimal or hex
//! *string* by protocol design — see `docs/ARCHITECTURE.md` §4.

use std::fmt::Write as _;

use lsc_automata::{Alphabet, Symbol};

/// A JSON value. Objects keep their insertion order (encoding is
/// deterministic); lookup is linear, which is fine at protocol-message
/// sizes.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number (integers are exact up to `2^53`).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in insertion order.
    Obj(Vec<(String, Json)>),
    /// Text that is already JSON, written as is: a reply member encoded
    /// straight from where its data lives (a witness page, see
    /// [`WordFormat::array`]). [`parse`] never produces it.
    Encoded(String),
}

impl Json {
    /// A string value.
    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }

    /// A number value from any unsigned integer (exact up to `2^53`).
    pub fn num(v: impl Into<f64>) -> Json {
        Json::Num(v.into())
    }

    /// Member lookup on an object (`None` elsewhere).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The boolean payload, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The numeric payload as `u64`, if this is a non-negative integer
    /// within the exact `f64` range.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(n) if *n >= 0.0 && n.fract() == 0.0 && *n <= 9_007_199_254_740_992.0 => {
                Some(*n as u64)
            }
            _ => None,
        }
    }

    /// [`Json::as_u64`] narrowed to `usize`.
    pub fn as_usize(&self) -> Option<usize> {
        self.as_u64().and_then(|v| usize::try_from(v).ok())
    }

    /// The array payload, if this is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Serializes to compact JSON (no whitespace), suitable for one
    /// protocol line.
    pub fn encode(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    fn write(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(true) => out.push_str("true"),
            Json::Bool(false) => out.push_str("false"),
            Json::Num(n) => {
                if n.fract() == 0.0 && n.abs() < 9e15 {
                    write!(out, "{}", *n as i64).expect("write to String");
                } else {
                    write!(out, "{n}").expect("write to String");
                }
            }
            Json::Str(s) => write_escaped(out, s),
            Json::Encoded(text) => out.push_str(text),
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
            Json::Obj(members) => {
                out.push('{');
                for (i, (key, value)) in members.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_escaped(out, key);
                    out.push(':');
                    value.write(out);
                }
                out.push('}');
            }
        }
    }
}

/// Writes `s` as a JSON string: runs with nothing to escape are copied
/// whole, and only the bytes [`needs_escape`] picks out are rewritten.
fn write_escaped(out: &mut String, s: &str) {
    out.push('"');
    let mut rest = s;
    while let Some(at) = rest.bytes().position(needs_escape) {
        out.push_str(&rest[..at]);
        push_escape(out, rest.as_bytes()[at]);
        rest = &rest[at + 1..];
    }
    out.push_str(rest);
    out.push('"');
}

/// Whether a byte must be escaped inside a JSON string: the quote, the
/// backslash and the control bytes. All are ASCII, so a UTF-8 string can
/// be scanned bytewise and split at them on char boundaries.
fn needs_escape(b: u8) -> bool {
    b < 0x20 || b == b'"' || b == b'\\'
}

/// The escape for a byte [`needs_escape`] picks out.
fn push_escape(out: &mut String, b: u8) {
    match b {
        b'"' => out.push_str("\\\""),
        b'\\' => out.push_str("\\\\"),
        b'\n' => out.push_str("\\n"),
        b'\r' => out.push_str("\\r"),
        b'\t' => out.push_str("\\t"),
        0x08 => out.push_str("\\b"),
        0x0C => out.push_str("\\f"),
        b => write!(out, "\\u{b:04x}").expect("write to String"),
    }
}

/// The byte to escape, if `c` is one that [`needs_escape`] picks out.
fn escaped_byte(c: char) -> Option<u8> {
    u8::try_from(c).ok().filter(|&b| needs_escape(b))
}

/// The most a word array reserves up front; a page past it grows by
/// doubling. A page that ends early (the stream ran out) never holds more
/// than this unused.
const MAX_RESERVE_BYTES: usize = 1 << 20;

/// How one alphabet's words encode as JSON strings. A session builds it
/// once, when it opens: the alphabet, and the longest encoded symbol,
/// which sizes a word array before it is written.
#[derive(Clone, Debug)]
pub struct WordFormat {
    alphabet: Alphabet,
    symbol_bytes: usize,
}

impl WordFormat {
    /// The encoding of `alphabet`'s words.
    pub fn new(alphabet: Alphabet) -> WordFormat {
        let symbol_bytes = alphabet
            .symbols()
            .map(|s| match alphabet.char_of(s) {
                // An escape is at most `\uXXXX`.
                Some(c) if escaped_byte(c).is_some() => 6,
                Some(c) => c.len_utf8(),
                // `⟨id⟩`: two 3-byte brackets around the digits.
                None => 6 + s.checked_ilog10().map_or(1, |d| d as usize + 1),
            })
            .max()
            .unwrap_or(0);
        WordFormat {
            alphabet,
            symbol_bytes,
        }
    }

    /// Writes one word as a JSON string: what `Json::Str` of
    /// `format_word(word, alphabet)` encodes to, byte for byte.
    fn write(&self, out: &mut String, word: &[Symbol]) {
        out.push('"');
        for &s in word {
            match self.alphabet.char_of(s) {
                Some(c) => match escaped_byte(c) {
                    Some(b) => push_escape(out, b),
                    None => out.push(c),
                },
                None => self.alphabet.write_name(out, s).expect("write to String"),
            }
        }
        out.push('"');
    }

    /// A JSON array of words, encoded as they are produced: `fill` gets a
    /// `push` to call on each word, and the array comes back as one
    /// [`Json::Encoded`] value with how many words were pushed. Room for
    /// `count` words of `length` symbols is reserved first, so the array
    /// costs no allocation per word.
    pub fn array(
        &self,
        (count, length): (usize, usize),
        fill: impl FnOnce(&mut dyn FnMut(&[Symbol])),
    ) -> (Json, usize) {
        let per_word = length.saturating_mul(self.symbol_bytes).saturating_add(3);
        let bytes = count.saturating_mul(per_word).saturating_add(2);
        let mut out = String::with_capacity(bytes.min(MAX_RESERVE_BYTES));
        out.push('[');
        let mut pushed = 0;
        fill(&mut |word| {
            if pushed > 0 {
                out.push(',');
            }
            self.write(&mut out, word);
            pushed += 1;
        });
        out.push(']');
        (Json::Encoded(out), pushed)
    }
}

/// Why a line failed to parse as JSON.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct JsonParseError {
    /// Byte offset of the failure.
    pub at: usize,
    /// Description.
    pub message: String,
}

impl std::fmt::Display for JsonParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "JSON parse error at byte {}: {}", self.at, self.message)
    }
}

impl std::error::Error for JsonParseError {}

/// The deepest array/object nesting [`parse`] accepts. A request nests at
/// most 3 levels; the bound keeps an untrusted line of `[[[[…` from
/// recursing the parser (and the value's drop) off the stack.
pub const MAX_DEPTH: usize = 128;

/// Parses one JSON value, requiring the whole input (modulo surrounding
/// whitespace) to be consumed.
///
/// # Errors
/// [`JsonParseError`] with the offending byte offset, including at the
/// bracket that nests past [`MAX_DEPTH`].
pub fn parse(text: &str) -> Result<Json, JsonParseError> {
    Parser::new(text).whole(Parser::value)
}

/// Parses an untrusted line that should hold one object, building only
/// the top-level members whose key is in `keep`. Every other value is
/// checked exactly as [`parse`] checks it (syntax and [`MAX_DEPTH`]) but
/// never built, so a line costs memory for its kept members alone; a
/// million-element array under an unread key costs nothing. Returns
/// `Ok(None)` for well-formed JSON that is not an object.
///
/// # Errors
/// As [`parse`].
pub fn parse_object(text: &str, keep: &[&str]) -> Result<Option<Json>, JsonParseError> {
    Parser::new(text).whole(|p| {
        if p.peek() != Some(b'{') {
            return p.skip().map(|()| None);
        }
        let mut members = Vec::new();
        p.seq(|p, key| match key.filter(|k| keep.contains(&k.as_str())) {
            Some(key) => {
                members.push((key, p.value()?));
                Ok(())
            }
            None => p.skip(),
        })?;
        Ok(Some(Json::Obj(members)))
    })
}

struct Parser<'a> {
    text: &'a str,
    bytes: &'a [u8],
    at: usize,
    /// Arrays and objects open around the current position.
    depth: usize,
}

impl<'a> Parser<'a> {
    fn new(text: &'a str) -> Self {
        Parser {
            text,
            bytes: text.as_bytes(),
            at: 0,
            depth: 0,
        }
    }

    /// Runs `read` on the whole input, which must hold exactly one value
    /// between optional whitespace.
    fn whole<T>(
        mut self,
        read: impl FnOnce(&mut Self) -> Result<T, JsonParseError>,
    ) -> Result<T, JsonParseError> {
        self.skip_ws();
        let value = read(&mut self)?;
        self.skip_ws();
        if self.at != self.bytes.len() {
            return Err(self.err("trailing input after value"));
        }
        Ok(value)
    }

    fn err(&self, message: &str) -> JsonParseError {
        JsonParseError {
            at: self.at,
            message: message.to_string(),
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.at).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.at += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), JsonParseError> {
        if self.peek() == Some(b) {
            self.at += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected {:?}", b as char)))
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, JsonParseError> {
        if self.bytes[self.at..].starts_with(word.as_bytes()) {
            self.at += word.len();
            Ok(value)
        } else {
            Err(self.err("invalid literal"))
        }
    }

    fn value(&mut self) -> Result<Json, JsonParseError> {
        match self.peek() {
            Some(b'{') => {
                let mut members = Vec::new();
                self.seq(|p, key| {
                    members.push((key.expect("objects pass keys"), p.value()?));
                    Ok(())
                })?;
                Ok(Json::Obj(members))
            }
            Some(b'[') => {
                let mut items = Vec::new();
                self.seq(|p, _| {
                    items.push(p.value()?);
                    Ok(())
                })?;
                Ok(Json::Arr(items))
            }
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(self.err("expected a value")),
        }
    }

    /// Checks one value as [`Parser::value`] would, building no array or
    /// object: only a string's own bytes are allocated, and freed at once.
    fn skip(&mut self) -> Result<(), JsonParseError> {
        match self.peek() {
            Some(b'{' | b'[') => self.seq(|p, _| p.skip()),
            _ => self.value().map(drop),
        }
    }

    /// Walks the array or object at the cursor, handing each element to
    /// `each` (with its key, for an object), which must consume the value.
    /// Each open container counts one level against [`MAX_DEPTH`].
    fn seq(
        &mut self,
        mut each: impl FnMut(&mut Self, Option<String>) -> Result<(), JsonParseError>,
    ) -> Result<(), JsonParseError> {
        let (keyed, close, expected) = match self.peek() {
            Some(b'{') => (true, b'}', "expected ',' or '}'"),
            _ => (false, b']', "expected ',' or ']'"),
        };
        if self.depth == MAX_DEPTH {
            return Err(self.err("nesting too deep"));
        }
        self.depth += 1;
        self.at += 1;
        self.skip_ws();
        if self.peek() == Some(close) {
            self.at += 1;
            self.depth -= 1;
            return Ok(());
        }
        loop {
            self.skip_ws();
            let key = if keyed {
                let key = self.string()?;
                self.skip_ws();
                self.expect(b':')?;
                self.skip_ws();
                Some(key)
            } else {
                None
            };
            each(self, key)?;
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.at += 1,
                Some(c) if c == close => {
                    self.at += 1;
                    self.depth -= 1;
                    return Ok(());
                }
                _ => return Err(self.err(expected)),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonParseError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.at += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.at += 1;
                    let esc = self.peek().ok_or_else(|| self.err("dangling escape"))?;
                    self.at += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'b' => out.push('\u{08}'),
                        b'f' => out.push('\u{0C}'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            let unit = self.hex4()?;
                            // Surrogate pairs: a high surrogate must be
                            // followed by an escaped low surrogate.
                            let c = if (0xD800..0xDC00).contains(&unit) {
                                if self.peek() == Some(b'\\') {
                                    self.at += 1;
                                    self.expect(b'u')?;
                                    let low = self.hex4()?;
                                    if !(0xDC00..0xE000).contains(&low) {
                                        return Err(self.err("invalid low surrogate"));
                                    }
                                    let cp = 0x10000
                                        + ((u32::from(unit) - 0xD800) << 10)
                                        + (u32::from(low) - 0xDC00);
                                    char::from_u32(cp).ok_or_else(|| self.err("bad code point"))?
                                } else {
                                    return Err(self.err("lone high surrogate"));
                                }
                            } else {
                                char::from_u32(u32::from(unit))
                                    .ok_or_else(|| self.err("bad code point"))?
                            };
                            out.push(c);
                        }
                        _ => return Err(self.err("unknown escape")),
                    }
                }
                Some(c) if c < 0x20 => return Err(self.err("raw control character in string")),
                Some(_) => {
                    // Copy the run up to the next quote, backslash or
                    // control byte in one slice. Those stop bytes are
                    // ASCII, so both ends fall on char boundaries.
                    let rest = &self.bytes[self.at..];
                    let run = rest
                        .iter()
                        .position(|&c| c < 0x20 || c == b'"' || c == b'\\')
                        .unwrap_or(rest.len());
                    out.push_str(&self.text[self.at..self.at + run]);
                    self.at += run;
                }
            }
        }
    }

    fn hex4(&mut self) -> Result<u16, JsonParseError> {
        let end = self.at + 4;
        if end > self.bytes.len() {
            return Err(self.err("truncated \\u escape"));
        }
        let hex = std::str::from_utf8(&self.bytes[self.at..end])
            .map_err(|_| self.err("non-ASCII in \\u escape"))?;
        let unit = u16::from_str_radix(hex, 16).map_err(|_| self.err("bad \\u escape"))?;
        self.at = end;
        Ok(unit)
    }

    fn number(&mut self) -> Result<Json, JsonParseError> {
        let start = self.at;
        if self.peek() == Some(b'-') {
            self.at += 1;
        }
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.at += 1;
        }
        if self.peek() == Some(b'.') {
            self.at += 1;
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.at += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.at += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.at += 1;
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.at += 1;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.at]).expect("digits are ASCII");
        text.parse::<f64>()
            .map(Json::Num)
            .map_err(|_| self.err("malformed number"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips() {
        let cases = [
            r#"null"#,
            r#"true"#,
            r#"false"#,
            r#"0"#,
            r#"-12"#,
            r#"3.5"#,
            r#""hello""#,
            r#""esc \" \\ \n \t""#,
            r#"[1,2,[3]]"#,
            r#"{"a":1,"b":[true,null],"c":{"d":"e"}}"#,
        ];
        for text in cases {
            let v = parse(text).unwrap();
            assert_eq!(parse(&v.encode()).unwrap(), v, "{text}");
        }
    }

    #[test]
    fn object_order_is_preserved() {
        let v = parse(r#"{"z":1,"a":2,"m":3}"#).unwrap();
        assert_eq!(v.encode(), r#"{"z":1,"a":2,"m":3}"#);
    }

    #[test]
    fn escapes_and_unicode() {
        let v = parse(r#""Aé😀""#).unwrap();
        assert_eq!(v.as_str(), Some("Aé😀"));
        // Control characters encode as escapes and round trip.
        let s = Json::str("line\nbreak\u{01}");
        assert_eq!(parse(&s.encode()).unwrap(), s);
    }

    #[test]
    fn malformed_inputs_error() {
        for text in [
            "",
            "{",
            "[1,",
            r#"{"a"}"#,
            r#"{"a":}"#,
            "nul",
            r#""unterminated"#,
            r#""\q""#,
            r#""\ud800""#,
            "1 2",
            "--1",
            "\"a\u{01}b\"",
        ] {
            assert!(parse(text).is_err(), "accepted {text:?}");
            // The same value skipped under an unread key, and as the line.
            let member = format!(r#"{{"a":{text}}}"#);
            assert!(parse_object(&member, &[]).is_err(), "accepted {member:?}");
            assert!(parse_object(text, &[]).is_err(), "accepted {text:?}");
        }
    }

    #[test]
    fn parse_object_builds_only_kept_members() {
        let line = r#" {"op":"hello","x":[1,{"y":"\u00e9"}],"id":[2]} "#;
        let value = parse_object(line, &["op", "id"]).unwrap().unwrap();
        assert_eq!(value.encode(), r#"{"op":"hello","id":[2]}"#);
        assert_eq!(parse_object("[1,[]]", &["op"]), Ok(None));
    }

    #[test]
    fn nesting_is_bounded() {
        let arrays = |depth: usize| format!("{}{}", "[".repeat(depth), "]".repeat(depth));
        assert!(parse(&arrays(MAX_DEPTH)).is_ok());
        let err = parse(&arrays(MAX_DEPTH + 1)).unwrap_err();
        assert_eq!(err.at, MAX_DEPTH);
        assert!(err.message.contains("nesting"), "{err}");
        // Objects count too, mixed with arrays.
        let objects = |depth: usize| {
            format!(
                "{}1{}",
                "{\"a\":[".repeat(depth / 2),
                "]}".repeat(depth / 2)
            )
        };
        assert!(parse(&objects(MAX_DEPTH)).is_ok());
        assert!(parse(&objects(MAX_DEPTH + 2)).is_err());
        // Far past the bound is refused, not a stack overflow.
        assert!(parse(&"[".repeat(20_000)).is_err());
        // Skipped values count the same levels (the object is one).
        let member = |depth: usize| format!(r#"{{"x":{}}}"#, arrays(depth));
        assert!(parse_object(&member(MAX_DEPTH - 1), &[]).is_ok());
        assert!(parse_object(&member(MAX_DEPTH), &[]).is_err());
        assert!(parse_object(&arrays(MAX_DEPTH + 1), &[]).is_err());
    }

    /// The escaper the encoder had before runs were copied whole: one
    /// char at a time. Kept as the reference the encoder must match.
    fn escaped_by_char(s: &str) -> String {
        let mut out = String::from('"');
        for c in s.chars() {
            match c {
                '"' => out.push_str("\\\""),
                '\\' => out.push_str("\\\\"),
                '\n' => out.push_str("\\n"),
                '\r' => out.push_str("\\r"),
                '\t' => out.push_str("\\t"),
                '\u{08}' => out.push_str("\\b"),
                '\u{0C}' => out.push_str("\\f"),
                c if (c as u32) < 0x20 => write!(out, "\\u{:04x}", c as u32).unwrap(),
                c => out.push(c),
            }
        }
        out.push('"');
        out
    }

    /// The alphabets the word writer is checked on: every escape class,
    /// multi-byte chars (`⟨` is also the anonymous names' bracket), plain
    /// binary, and an anonymous alphabet whose names have 1 to 3 digits.
    fn word_alphabets() -> [Alphabet; 3] {
        [
            Alphabet::from_chars(&['"', '\\', '\n', '\u{1}', 'é', '⟨', 'a', '\t']),
            Alphabet::binary(),
            Alphabet::sized(300),
        ]
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(256))]

        #[test]
        fn word_arrays_encode_as_the_per_word_values_do(
            pick in 0usize..3,
            symbols in proptest::collection::vec(0u32..300, 0..200),
            cuts in proptest::collection::vec(0usize..200, 0..12),
        ) {
            let alphabet = word_alphabets()[pick].clone();
            let symbols: Vec<Symbol> = symbols
                .iter()
                .map(|&s| s % alphabet.len() as Symbol)
                .collect();
            let mut cuts: Vec<usize> = cuts.iter().map(|&c| c.min(symbols.len())).collect();
            cuts.sort_unstable();
            let words: Vec<&[Symbol]> = std::iter::once(0)
                .chain(cuts.iter().copied())
                .zip(cuts.iter().copied().chain(std::iter::once(symbols.len())))
                .map(|(from, to)| &symbols[from..to])
                .collect();
            // The reference: one `String` per symbol, one value per word.
            let values: Vec<Json> = words
                .iter()
                .map(|w| Json::Str(w.iter().map(|&s| alphabet.name(s)).collect()))
                .collect();
            for value in &values {
                let text = value.as_str().unwrap();
                proptest::prop_assert_eq!(value.encode(), escaped_by_char(text));
            }
            let reference = Json::Obj(vec![
                ("words".to_string(), Json::Arr(values)),
                ("n".to_string(), Json::num(7.0)),
            ])
            .encode();
            let (array, pushed) = WordFormat::new(alphabet).array((words.len(), 8), |push| {
                words.iter().for_each(|w| push(w));
            });
            proptest::prop_assert_eq!(pushed, words.len());
            let written = Json::Obj(vec![
                ("words".to_string(), array),
                ("n".to_string(), Json::num(7.0)),
            ]);
            proptest::prop_assert_eq!(written.encode(), reference);
        }
    }

    #[test]
    fn numeric_accessors() {
        assert_eq!(parse("42").unwrap().as_u64(), Some(42));
        assert_eq!(parse("-1").unwrap().as_u64(), None);
        assert_eq!(parse("1.5").unwrap().as_u64(), None);
        assert_eq!(parse("42").unwrap().as_usize(), Some(42));
    }
}
