//! The versioned JSON-lines wire protocol.
//!
//! One request per line, one response per line, both JSON objects. Every
//! request names an `"op"`; every response carries `"ok"` (and echoes the
//! request's `"id"`, if any, so pipelining clients can match answers to
//! questions). The ops map 1:1 onto the typed [`Engine`] API:
//!
//! | op            | engine call                         |
//! |---------------|-------------------------------------|
//! | `hello`       | — (version handshake)               |
//! | `prepare`     | `Engine::prepare_nfa` (→ session)   |
//! | `count`       | `Engine::count_on` the handle       |
//! | `count_exact` | `Engine::count_exact_on`            |
//! | `enumerate`   | `Engine::cursor` / `resume_cursor`, then `settle` |
//! | `sample`      | `Engine::sample_on`                 |
//! | `close`       | — (drops the session)               |
//! | `stats`       | `ShardedEngine::stats` (aggregate + per-shard) + server counters |
//! | `health`      | — (liveness/degradation probe: shard count, pool depth, snapshot-store status) |
//! | `bye`         | — (ends the connection)             |
//!
//! The full normative reference — every field, an example session
//! transcript, and the resume-token grammar — lives in
//! `docs/ARCHITECTURE.md` §4. This module defines the message types,
//! their (de)serialization, and how a `prepare` spec compiles (one
//! compiler for the servers and the router); execution lives in
//! [`super::server::Server`].
//!
//! [`Engine`]: crate::engine::Engine

use lsc_automata::regex::Regex;
use lsc_automata::{io as nfa_io, Alphabet, Nfa};

use crate::serve::conn::Reply;
use crate::serve::json::{self, Json};

/// The protocol version this server speaks. Requests may carry `"proto"`;
/// a mismatch is rejected with [`ErrorCode::BadRequest`] rather than
/// half-understood.
pub const PROTOCOL_VERSION: u64 = 1;

/// A machine-readable failure class, carried as the response's `"code"`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ErrorCode {
    /// Malformed JSON, unknown op, missing/invalid fields, or a protocol
    /// version mismatch.
    BadRequest,
    /// The named session does not exist on this connection (never opened,
    /// closed, or evicted after idling past the server's TTL).
    UnknownSession,
    /// `count_exact` on an ambiguous instance (Theorem 5 requires MEM-UFA).
    NotUnambiguous,
    /// A resume token that does not parse or does not belong to the
    /// session's instance.
    InvalidToken,
    /// An FPRAS failure event on a randomized route.
    Fpras,
    /// Admission control: the worker queue is full. The response carries
    /// `"retry_after_ms"`; the request was not executed and is safe to
    /// retry verbatim.
    Overloaded,
    /// The request sat in the queue past the server's per-request deadline
    /// and was dropped without executing.
    DeadlineExceeded,
    /// The server failed internally (e.g. the automaton failed to compile).
    Internal,
}

impl ErrorCode {
    const ALL: [ErrorCode; 8] = [
        ErrorCode::BadRequest,
        ErrorCode::UnknownSession,
        ErrorCode::NotUnambiguous,
        ErrorCode::InvalidToken,
        ErrorCode::Fpras,
        ErrorCode::Overloaded,
        ErrorCode::DeadlineExceeded,
        ErrorCode::Internal,
    ];

    /// The code whose wire name is `text` ([`ErrorCode::as_str`]
    /// inverted); `None` for a name this version does not know.
    pub fn parse(text: &str) -> Option<ErrorCode> {
        ErrorCode::ALL
            .into_iter()
            .find(|code| code.as_str() == text)
    }

    /// The wire name.
    pub fn as_str(self) -> &'static str {
        match self {
            ErrorCode::BadRequest => "bad-request",
            ErrorCode::UnknownSession => "unknown-session",
            ErrorCode::NotUnambiguous => "not-unambiguous",
            ErrorCode::InvalidToken => "invalid-token",
            ErrorCode::Fpras => "fpras-failure",
            ErrorCode::Overloaded => "overloaded",
            ErrorCode::DeadlineExceeded => "deadline-exceeded",
            ErrorCode::Internal => "internal",
        }
    }
}

/// A protocol-level failure: what goes into an `"ok": false` response.
#[derive(Clone, Debug)]
pub struct WireError {
    /// The failure class.
    pub code: ErrorCode,
    /// Human-readable detail.
    pub message: String,
    /// For [`ErrorCode::Overloaded`]: how long the client should wait
    /// before retrying.
    pub retry_after_ms: Option<u64>,
}

impl WireError {
    /// A failure with no retry hint.
    pub fn new(code: ErrorCode, message: impl Into<String>) -> WireError {
        WireError {
            code,
            message: message.into(),
            retry_after_ms: None,
        }
    }

    fn bad(message: impl Into<String>) -> WireError {
        WireError::new(ErrorCode::BadRequest, message)
    }
}

/// How a `prepare` names its automaton.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum InstanceSpec {
    /// A regex over a single-character alphabet (defaults to the server's
    /// `default_alphabet`, normally `01`).
    Regex {
        /// The pattern, `lsc_automata::regex` syntax.
        pattern: String,
        /// The alphabet characters, in symbol order.
        alphabet: Option<String>,
    },
    /// A full automaton in the `lsc_automata::io` text format.
    NfaText(String),
}

impl InstanceSpec {
    /// Compiles the spec into its automaton and the alphabet its words
    /// print in; a regex without an alphabet uses `default_alphabet`.
    /// Every node that fingerprints a spec — a server's `prepare`, the
    /// router's placement — compiles it here, so their fingerprints agree
    /// whenever their default alphabets do.
    ///
    /// # Errors
    /// [`ErrorCode::BadRequest`] on an empty alphabet or a spec that does
    /// not parse.
    pub(crate) fn compile(&self, default_alphabet: &str) -> Result<(Nfa, Alphabet), WireError> {
        match self {
            InstanceSpec::Regex { pattern, alphabet } => {
                let chars: Vec<char> = alphabet
                    .as_deref()
                    .unwrap_or(default_alphabet)
                    .chars()
                    .collect();
                if chars.is_empty() {
                    return Err(WireError::bad("empty alphabet"));
                }
                let alphabet = Alphabet::from_chars(&chars);
                let regex =
                    Regex::parse(pattern, &alphabet).map_err(|e| WireError::bad(e.to_string()))?;
                Ok((regex.compile(), alphabet))
            }
            InstanceSpec::NfaText(text) => {
                let nfa = nfa_io::from_text(text).map_err(|e| WireError::bad(e.to_string()))?;
                let alphabet = nfa.alphabet().clone();
                Ok((nfa, alphabet))
            }
        }
    }
}

/// One parsed request: the op and its arguments.
#[derive(Clone, Debug, PartialEq)]
pub enum Request {
    /// Version handshake.
    Hello,
    /// Compile (or re-open) an instance and bind it to a session.
    Prepare {
        /// The automaton.
        spec: InstanceSpec,
        /// The witness length `n`.
        length: usize,
    },
    /// Routed `COUNT` on a session.
    Count {
        /// The session name.
        session: String,
    },
    /// Exact `COUNT` on a session (errors on ambiguous instances).
    CountExact {
        /// The session name.
        session: String,
    },
    /// One page of `ENUM` on a session, with optional token resumption.
    Enumerate {
        /// The session name.
        session: String,
        /// Witnesses per page (server default when absent).
        page_size: Option<usize>,
        /// Resume from this token instead of the session's live cursor.
        resume: Option<String>,
    },
    /// `GEN` on a session: `count` uniform witnesses under `seed`.
    Sample {
        /// The session name.
        session: String,
        /// Number of witnesses.
        count: usize,
        /// Draw randomness (equal seeds give equal witnesses).
        seed: u64,
    },
    /// Drop a session (its instance stays in the engine cache).
    Close {
        /// The session name.
        session: String,
    },
    /// Engine + server counters.
    Stats,
    /// Liveness and degradation probe: shard count, worker-pool depth,
    /// snapshot-store status, and the fault counters — cheap enough for a
    /// load balancer to poll (no engine work, no session required).
    Health,
    /// End the connection after the response.
    Bye,
}

/// A request plus its optional client-chosen `"id"` (echoed in the
/// response).
#[derive(Clone, Debug, PartialEq)]
pub struct Envelope {
    /// The client's correlation id, echoed verbatim.
    pub id: Option<Json>,
    /// The operation.
    pub request: Request,
}

/// Parses one request line.
///
/// # Errors
/// [`WireError`] with [`ErrorCode::BadRequest`] on malformed JSON, an
/// unknown op, a protocol-version mismatch, or missing/mistyped fields.
pub fn parse_request(line: &str) -> Result<Envelope, WireError> {
    let value = json::parse(line).map_err(|e| WireError::bad(e.to_string()))?;
    if !matches!(value, Json::Obj(_)) {
        return Err(WireError::bad("request must be a JSON object"));
    }
    if let Some(proto) = value.get("proto") {
        if proto.as_u64() != Some(PROTOCOL_VERSION) {
            return Err(WireError::bad(format!(
                "unsupported protocol version (server speaks {PROTOCOL_VERSION})"
            )));
        }
    }
    let id = value.get("id").cloned();
    let op = value
        .get("op")
        .and_then(Json::as_str)
        .ok_or_else(|| WireError::bad("missing \"op\""))?;
    let session = |value: &Json| -> Result<String, WireError> {
        value
            .get("session")
            .and_then(Json::as_str)
            .map(str::to_string)
            .ok_or_else(|| WireError::bad("missing \"session\""))
    };
    let request =
        match op {
            "hello" => Request::Hello,
            "prepare" => {
                let length = value
                    .get("length")
                    .and_then(Json::as_usize)
                    .ok_or_else(|| WireError::bad("missing or invalid \"length\""))?;
                let spec = match (value.get("regex"), value.get("nfa_text")) {
                    (Some(pattern), None) => InstanceSpec::Regex {
                        pattern: pattern
                            .as_str()
                            .ok_or_else(|| WireError::bad("\"regex\" must be a string"))?
                            .to_string(),
                        alphabet: match value.get("alphabet") {
                            None => None,
                            Some(a) => Some(
                                a.as_str()
                                    .ok_or_else(|| WireError::bad("\"alphabet\" must be a string"))?
                                    .to_string(),
                            ),
                        },
                    },
                    (None, Some(text)) => InstanceSpec::NfaText(
                        text.as_str()
                            .ok_or_else(|| WireError::bad("\"nfa_text\" must be a string"))?
                            .to_string(),
                    ),
                    _ => {
                        return Err(WireError::bad(
                            "provide exactly one of \"regex\" or \"nfa_text\"",
                        ))
                    }
                };
                Request::Prepare { spec, length }
            }
            "count" => Request::Count {
                session: session(&value)?,
            },
            "count_exact" => Request::CountExact {
                session: session(&value)?,
            },
            "enumerate" => Request::Enumerate {
                session: session(&value)?,
                page_size: match value.get("page_size") {
                    None => None,
                    Some(v) => Some(v.as_usize().filter(|&n| n > 0).ok_or_else(|| {
                        WireError::bad("\"page_size\" must be a positive integer")
                    })?),
                },
                resume: match value.get("resume") {
                    None => None,
                    Some(v) => Some(
                        v.as_str()
                            .ok_or_else(|| WireError::bad("\"resume\" must be a string"))?
                            .to_string(),
                    ),
                },
            },
            "sample" => Request::Sample {
                session: session(&value)?,
                count: match value.get("count") {
                    None => 1,
                    Some(v) => v.as_usize().ok_or_else(|| {
                        WireError::bad("\"count\" must be a non-negative integer")
                    })?,
                },
                seed: match value.get("seed") {
                    None => 0,
                    Some(v) => v
                        .as_u64()
                        .ok_or_else(|| WireError::bad("\"seed\" must be a non-negative integer"))?,
                },
            },
            "close" => Request::Close {
                session: session(&value)?,
            },
            "stats" => Request::Stats,
            "health" => Request::Health,
            "bye" => Request::Bye,
            other => return Err(WireError::bad(format!("unknown op {other:?}"))),
        };
    Ok(Envelope { id, request })
}

/// Answers one request line: parses it, runs `dispatch` on the request,
/// and encodes the outcome with the request's `"id"`. A `bye` closes the
/// connection; a line that does not parse is answered without one.
pub(crate) fn respond(
    line: &str,
    dispatch: impl FnOnce(Request) -> Result<Vec<(String, Json)>, WireError>,
) -> Reply {
    let Envelope { id, request } = match parse_request(line) {
        Ok(envelope) => envelope,
        Err(error) => {
            return Reply {
                text: error_response(None, &error),
                close: false,
            }
        }
    };
    let close = matches!(request, Request::Bye);
    let text = match dispatch(request) {
        Ok(fields) => ok_response(id.as_ref(), fields),
        Err(error) => error_response(id.as_ref(), &error),
    };
    Reply { text, close }
}

/// Builds an `"ok": true` response line from ordered fields.
pub fn ok_response(id: Option<&Json>, fields: Vec<(String, Json)>) -> String {
    let mut members = Vec::with_capacity(fields.len() + 2);
    members.push(("ok".to_string(), Json::Bool(true)));
    if let Some(id) = id {
        members.push(("id".to_string(), id.clone()));
    }
    members.extend(fields);
    Json::Obj(members).encode()
}

/// Builds an `"ok": false` response line.
pub fn error_response(id: Option<&Json>, error: &WireError) -> String {
    let mut members = vec![("ok".to_string(), Json::Bool(false))];
    if let Some(id) = id {
        members.push(("id".to_string(), id.clone()));
    }
    members.push(("code".to_string(), Json::str(error.code.as_str())));
    members.push(("error".to_string(), Json::str(error.message.clone())));
    if let Some(ms) = error.retry_after_ms {
        members.push(("retry_after_ms".to_string(), Json::num(ms as f64)));
    }
    Json::Obj(members).encode()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_every_op() {
        let cases: Vec<(&str, Request)> = vec![
            (r#"{"op":"hello","proto":1}"#, Request::Hello),
            (
                r#"{"op":"prepare","regex":"(0|1)*","length":4}"#,
                Request::Prepare {
                    spec: InstanceSpec::Regex {
                        pattern: "(0|1)*".into(),
                        alphabet: None,
                    },
                    length: 4,
                },
            ),
            (
                r#"{"op":"prepare","nfa_text":"alphabet: 01\n","length":2}"#,
                Request::Prepare {
                    spec: InstanceSpec::NfaText("alphabet: 01\n".into()),
                    length: 2,
                },
            ),
            (
                r#"{"op":"count","session":"s1"}"#,
                Request::Count {
                    session: "s1".into(),
                },
            ),
            (
                r#"{"op":"count_exact","session":"s1"}"#,
                Request::CountExact {
                    session: "s1".into(),
                },
            ),
            (
                r#"{"op":"enumerate","session":"s1","page_size":5,"resume":"enum1.x"}"#,
                Request::Enumerate {
                    session: "s1".into(),
                    page_size: Some(5),
                    resume: Some("enum1.x".into()),
                },
            ),
            (
                r#"{"op":"sample","session":"s1","count":3,"seed":7}"#,
                Request::Sample {
                    session: "s1".into(),
                    count: 3,
                    seed: 7,
                },
            ),
            (
                r#"{"op":"close","session":"s1"}"#,
                Request::Close {
                    session: "s1".into(),
                },
            ),
            (r#"{"op":"stats"}"#, Request::Stats),
            (r#"{"op":"health"}"#, Request::Health),
            (r#"{"op":"bye"}"#, Request::Bye),
        ];
        for (line, expected) in cases {
            assert_eq!(parse_request(line).unwrap().request, expected, "{line}");
        }
    }

    #[test]
    fn error_codes_round_trip_through_their_wire_names() {
        use ErrorCode::*;
        let every = [
            BadRequest,
            UnknownSession,
            NotUnambiguous,
            InvalidToken,
            Fpras,
            Overloaded,
            DeadlineExceeded,
            Internal,
        ];
        for code in every {
            assert_eq!(ErrorCode::parse(code.as_str()), Some(code), "{code:?}");
        }
        assert_eq!(ErrorCode::parse("no-such-code"), None);
    }

    #[test]
    fn id_is_carried_through() {
        let env = parse_request(r#"{"op":"stats","id":17}"#).unwrap();
        assert_eq!(env.id, Some(Json::Num(17.0)));
        let response = ok_response(env.id.as_ref(), vec![]);
        assert_eq!(response, r#"{"ok":true,"id":17}"#);
        let error = error_response(
            env.id.as_ref(),
            &WireError::new(ErrorCode::UnknownSession, "no such session"),
        );
        assert_eq!(
            error,
            r#"{"ok":false,"id":17,"code":"unknown-session","error":"no such session"}"#
        );
    }

    #[test]
    fn rejects_malformed_requests() {
        for line in [
            "",
            "not json",
            "[]",
            r#"{"op":"warp"}"#,
            r#"{"op":"prepare","length":4}"#,
            r#"{"op":"prepare","regex":"a","nfa_text":"b","length":4}"#,
            r#"{"op":"prepare","regex":"a"}"#,
            r#"{"op":"count"}"#,
            r#"{"op":"enumerate","session":"s1","page_size":0}"#,
            r#"{"op":"hello","proto":2}"#,
            r#"{"op":"sample","session":"s1","seed":-1}"#,
        ] {
            let err = parse_request(line).unwrap_err();
            assert_eq!(err.code, ErrorCode::BadRequest, "accepted {line:?}");
        }
    }

    #[test]
    fn overloaded_response_carries_retry_hint() {
        let mut err = WireError::new(ErrorCode::Overloaded, "queue full");
        err.retry_after_ms = Some(50);
        let line = error_response(None, &err);
        assert_eq!(
            line,
            r#"{"ok":false,"code":"overloaded","error":"queue full","retry_after_ms":50}"#
        );
    }
}
