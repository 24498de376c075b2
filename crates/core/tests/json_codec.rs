//! Property tests for the wire protocol's JSON decoder.
//!
//! Every line a server, router or client reads goes through
//! `serve::json::parse`, so the decoder must round-trip whatever the
//! encoder writes, reject truncated or garbage input with a typed
//! [`JsonParseError`] (never a panic), and stay linear in the input: the
//! router's client parses every backend reply, including 1000-word
//! enumeration pages.

use std::time::{Duration, Instant};

use lsc_core::serve::json::{parse, Json, JsonParseError};
use proptest::prelude::*;

/// Characters from every class the string codec treats differently:
/// plain ASCII, the escaped specials, raw control characters, and one-
/// to four-byte UTF-8 scalars.
fn any_char() -> BoxedStrategy<char> {
    let scalar =
        |range: std::ops::Range<u32>| range.prop_map(|c| char::from_u32(c).unwrap_or('\u{FFFD}'));
    prop_oneof![
        // Plain ASCII twice: runs of it are what the decoder copies whole.
        scalar(0x20..0x7F),
        scalar(0x20..0x7F),
        prop_oneof![Just('"'), Just('\\'), Just('/')],
        scalar(0x00..0x20),
        scalar(0x80..0x800),
        scalar(0x800..0x1_0000),
        scalar(0x1_0000..0x11_0000),
    ]
    .boxed()
}

fn any_string() -> BoxedStrategy<String> {
    collection::vec(any_char(), 0..48)
        .prop_map(|chars| chars.into_iter().collect::<String>())
        .boxed()
}

/// Arbitrary JSON trees whose numbers are exactly representable as
/// written (finite, and integral or a short binary fraction).
fn any_json() -> BoxedStrategy<Json> {
    let leaf = prop_oneof![
        Just(Json::Null),
        any::<bool>().prop_map(Json::Bool),
        (-1_000_000i64..1_000_000).prop_map(|n| Json::Num(n as f64)),
        (-4096i64..4096).prop_map(|n| Json::Num(n as f64 / 8.0)),
        any_string().prop_map(Json::Str),
    ];
    leaf.prop_recursive(3, 32, 4, |inner| {
        prop_oneof![
            collection::vec(inner.clone(), 0..4).prop_map(Json::Arr),
            // Keys are encoded values: quotes, escapes and all.
            collection::vec(inner, 0..8).prop_map(|items| {
                Json::Obj(
                    items
                        .chunks(2)
                        .map(|pair| (pair[0].encode(), pair.get(1).cloned().unwrap_or(Json::Null)))
                        .collect(),
                )
            }),
        ]
    })
}

/// The string as JSON with every non-ASCII scalar written as a `\u`
/// escape (astral ones as surrogate pairs): the decoder's other path.
fn ascii_escaped(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if c.is_ascii() && c >= ' ' => out.push(c),
            c => {
                let mut units = [0u16; 2];
                for unit in c.encode_utf16(&mut units) {
                    out.push_str(&format!("\\u{unit:04X}"));
                }
            }
        }
    }
    out.push('"');
    out
}

/// Char-boundary prefixes of `text`, shortest first, excluding `text`.
fn strict_prefixes(text: &str) -> impl Iterator<Item = &str> {
    (0..text.len())
        .filter(|&end| text.is_char_boundary(end))
        .map(|end| &text[..end])
}

fn assert_typed_error(input: &str, result: Result<Json, JsonParseError>) {
    let error = result.expect_err("accepted an invalid document");
    assert!(
        error.at <= input.len(),
        "error offset {} past the input's {} bytes",
        error.at,
        input.len()
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn strings_round_trip_through_encode_and_parse(s in any_string()) {
        let value = Json::Str(s.clone());
        prop_assert_eq!(parse(&value.encode()).unwrap(), value.clone());
        prop_assert_eq!(parse(&ascii_escaped(&s)).unwrap(), value);
    }

    #[test]
    fn values_round_trip_through_encode_and_parse(value in any_json()) {
        let text = value.encode();
        prop_assert_eq!(parse(&text).unwrap(), value.clone());
        // Surrounding whitespace is allowed.
        prop_assert_eq!(parse(&format!(" \t{text}\r\n")).unwrap(), value);
    }

    #[test]
    fn every_truncated_document_is_a_typed_error(value in any_json()) {
        // Wrapped in an object, no strict prefix is a complete value (a
        // bare number's prefix could be).
        let text = Json::Obj(vec![("v".to_string(), value)]).encode();
        for prefix in strict_prefixes(&text) {
            assert_typed_error(prefix, parse(prefix));
        }
    }

    #[test]
    fn garbage_never_panics(
        bytes in collection::vec(any::<u8>(), 0..64),
        value in any_json(),
        cut in any::<usize>(),
    ) {
        // Random bytes, and random bytes spliced into a valid document.
        let garbage = String::from_utf8_lossy(&bytes).into_owned();
        if let Err(error) = parse(&garbage) {
            prop_assert!(error.at <= garbage.len());
        }
        let text = value.encode();
        let mut at = cut % (text.len() + 1);
        while !text.is_char_boundary(at) {
            at -= 1;
        }
        let spliced = format!("{}{garbage}{}", &text[..at], &text[at..]);
        if let Err(error) = parse(&spliced) {
            prop_assert!(error.at <= spliced.len());
        }
    }
}

#[test]
fn malformed_escapes_are_typed_errors() {
    for text in [
        r#""\u""#,
        r#""\u12""#,
        r#""\u12G4""#,
        r#""\ud83d""#,
        r#""\ud83d\u0041""#,
        r#""\ud83dx""#,
        r#""\udc00""#,
        "\"\\u00é\"",
        "\"tab\there\"",
        "\"\\",
        "\"é",
    ] {
        assert_typed_error(text, parse(text));
    }
}

/// A 1000-word `enumerate` reply, ~27 KB, shaped like the server's.
fn page_reply(words: usize) -> String {
    let words = (0..words)
        .map(|i| Json::str(format!("{:024b}", i * 7919)))
        .collect();
    Json::Obj(vec![
        ("ok".to_string(), Json::Bool(true)),
        ("words".to_string(), Json::Arr(words)),
        ("rank".to_string(), Json::num(1000.0)),
        ("done".to_string(), Json::Bool(false)),
        ("token".to_string(), Json::str("enum1.00ff.1000")),
    ])
    .encode()
}

fn best_of_five(mut run: impl FnMut()) -> Duration {
    (0..5)
        .map(|_| {
            let start = Instant::now();
            run();
            start.elapsed()
        })
        .min()
        .expect("five runs")
}

#[test]
fn a_thousand_word_reply_parses_in_one_pass() {
    let big = page_reply(1000);
    assert!(big.len() > 26_000, "reply is {} bytes", big.len());
    let parsed = parse(&big).unwrap();
    assert_eq!(
        parsed
            .get("words")
            .and_then(Json::as_arr)
            .map(<[Json]>::len),
        Some(1000)
    );
    // The same bytes as 100 ten-word replies: a linear parser takes about
    // as long for one as for the other, while a parser that rescans the
    // rest of the input per character takes several times longer for the
    // big one, even in a debug build.
    let small = page_reply(10);
    let one_big = best_of_five(|| {
        parse(&big).unwrap();
    });
    let many_small = best_of_five(|| {
        for _ in 0..100 {
            parse(&small).unwrap();
        }
    });
    assert!(
        one_big < many_small * 2,
        "1 x {} B took {one_big:?}, 100 x {} B took {many_small:?}",
        big.len(),
        small.len()
    );
}
