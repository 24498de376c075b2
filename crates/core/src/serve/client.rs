//! The reconnecting client: retries, backoff, and cursor resumption.
//!
//! The server's failure semantics (see `docs/ARCHITECTURE.md` §7) make
//! every wire verb safe to replay: `count` / `count_exact` / `sample`
//! are pure given their arguments, `prepare` is idempotent, and
//! `enumerate` resumed by an explicit token re-serves exactly the page
//! the token names. This module is the client half of that contract —
//! a [`Client`] that owns one TCP connection and, on any failure,
//! classifies it and recovers without surfacing an error to the caller
//! until its retry budget is spent:
//!
//! * **Transport failures** (connect refused, reset, EOF, a torn frame —
//!   a response line with no trailing newline or unparseable JSON) —
//!   drop the connection, back off, reconnect, replay. Sessions are
//!   connection-scoped, so the replay transparently re-`prepare`s from
//!   the client-side spec registry first.
//! * **`overloaded`** — the request was *not* executed (admission
//!   control rejected it at the door); sleep the server's
//!   `retry_after_ms` hint and replay verbatim.
//! * **`deadline-exceeded`** — the request expired in the queue without
//!   executing; back off and replay.
//! * **`internal`** — the worker died mid-request (e.g. an injected
//!   panic); the connection is closing, so reconnect and replay.
//! * **`unknown-session`** — the session idled out (or the server
//!   restarted); re-`prepare` it and replay.
//!
//! Anything else (`bad-request`, `invalid-token`, `not-unambiguous`,
//! `fpras-failure`) is the caller's problem and returns immediately as
//! [`ClientError::Server`].
//!
//! **Why replay is exact, not just safe.** The one stateful verb is
//! `enumerate` through the session's *live* cursor. The client never
//! replays a live-cursor page across an ambiguous boundary: pages after
//! the first always carry the last received resume token (so a replay
//! re-serves that exact page), and a first page (no token yet) only ever
//! replays after a *reconnect* — which re-prepares a fresh session whose
//! live cursor is back at rank 0. The retryable error codes that do
//! *not* reconnect (`overloaded`, `deadline-exceeded`) are precisely the
//! ones where the server guarantees the request never executed.
//!
//! **Backoff.** `delay(attempt) = min(cap, base · 2^attempt · jitter)`
//! with jitter drawn from `[1.0, 1.5)` by SplitMix64 over
//! `seed ^ attempt`: deterministic per seed (the chaos suite replays
//! schedules exactly), monotone nondecreasing in the attempt (jitter
//! stays below the factor-2 growth), and capped. [`backoff_delay`] is
//! the pure function; the proptest in `tests/crash_safety.rs` pins all
//! three properties.

use std::collections::HashMap;
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

use crate::serve::faults::splitmix64;
use crate::serve::json::{self, Json};
use crate::serve::protocol::{ErrorCode, InstanceSpec, PROTOCOL_VERSION};

/// Client tuning knobs.
#[derive(Clone, Debug)]
pub struct ClientConfig {
    /// Jitter seed: equal seeds replay the same backoff schedule.
    pub seed: u64,
    /// Attempts per request (first try included) before
    /// [`ClientError::Exhausted`].
    pub max_attempts: usize,
    /// First backoff step (scaled by `2^attempt · jitter`).
    pub backoff_base: Duration,
    /// Upper bound on any single backoff sleep.
    pub backoff_cap: Duration,
    /// Client-side socket read/write timeouts (`None` waits forever).
    pub io_timeout: Option<Duration>,
}

impl Default for ClientConfig {
    fn default() -> Self {
        ClientConfig {
            seed: 0,
            max_attempts: 10,
            backoff_base: Duration::from_millis(5),
            backoff_cap: Duration::from_secs(1),
            io_timeout: Some(Duration::from_secs(30)),
        }
    }
}

/// Why a request ultimately failed (after the retry machinery gave up or
/// classified the failure as not-retryable).
#[derive(Clone, Debug)]
pub enum ClientError {
    /// The retry budget is spent; `last` describes the final failure.
    Exhausted {
        /// Attempts made (== the configured `max_attempts`).
        attempts: usize,
        /// The last failure the machinery absorbed.
        last: String,
    },
    /// The server answered with a non-retryable error code.
    Server {
        /// The wire `"code"`.
        code: String,
        /// The wire `"error"` message.
        message: String,
    },
    /// The caller misused the client (e.g. a session alias that was never
    /// prepared).
    Usage(String),
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Exhausted { attempts, last } => {
                write!(f, "request failed after {attempts} attempts: {last}")
            }
            ClientError::Server { code, message } => write!(f, "server error [{code}]: {message}"),
            ClientError::Usage(message) => write!(f, "client misuse: {message}"),
        }
    }
}

impl std::error::Error for ClientError {}

/// Client-side recovery counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ClientStats {
    /// Successful connections (the first one included).
    pub connects: u64,
    /// Connections after the first — each one is a failure survived.
    pub reconnects: u64,
    /// Request attempts beyond the first (replays of any cause).
    pub retries: u64,
    /// Sessions re-`prepare`d from the spec registry.
    pub re_prepares: u64,
    /// Response frames discarded as torn (no trailing newline, or
    /// unparseable JSON).
    pub torn_frames: u64,
    /// `retry_after_ms` hints honored (slept) from `overloaded` answers.
    pub hints_honored: u64,
    /// Pipelined batches sent via [`Client::pipeline_raw`].
    pub pipelined_batches: u64,
}

/// The pure backoff schedule: `min(cap, base · 2^attempt · jitter)` with
/// jitter in `[1.0, 1.5)` drawn by SplitMix64 over `seed ^ attempt`.
/// Deterministic per seed, monotone nondecreasing in `attempt`, capped.
pub fn backoff_delay(base: Duration, cap: Duration, seed: u64, attempt: u32) -> Duration {
    // [0, 2^24) / 2^25 ∈ [0, 0.5): high bits of the mix, so nearby seeds
    // do not share low-bit patterns.
    let jitter = 1.0 + (splitmix64(seed ^ u64::from(attempt)) >> 40) as f64 / (1u64 << 25) as f64;
    let exp = 2f64.powi(attempt.min(48) as i32);
    let raw = base.as_secs_f64() * exp * jitter;
    Duration::from_secs_f64(raw.min(cap.as_secs_f64()))
}

/// One session's client-side record: enough to re-`prepare` it from
/// scratch and to resume its cursor exactly.
#[derive(Clone, Debug)]
struct SessionEntry {
    spec: InstanceSpec,
    length: usize,
    /// The server-issued session name on the *current* connection
    /// (`None` after a reconnect or an idle eviction).
    session: Option<String>,
    /// The last resume token received for this session's cursor.
    token: Option<String>,
    /// The full response of the most recent server-side `prepare` —
    /// fingerprint, states, unambiguous, cached — so a proxying caller
    /// (the cluster router) can forward the backend's prepare fields
    /// without a second round trip.
    prepared: Option<Json>,
}

/// One live connection: a buffered reader over a cloned read half plus
/// the write half.
struct Conn {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

/// How one send/receive step failed (pre-classification).
enum Step {
    /// Transport trouble: reconnect and replay.
    Io(String),
    /// A server error response: classify by code.
    Wire {
        code: String,
        message: String,
        retry_after_ms: Option<u64>,
    },
}

/// A reconnecting JSON-lines client for `nfa_tool serve`. See the module
/// docs for the retry contract.
pub struct Client {
    addr: String,
    config: ClientConfig,
    conn: Option<Conn>,
    sessions: HashMap<String, SessionEntry>,
    stats: ClientStats,
}

impl Client {
    /// A client for the server at `addr` (standard `host:port`). No I/O
    /// happens until the first request.
    pub fn new(addr: impl Into<String>, config: ClientConfig) -> Client {
        Client {
            addr: addr.into(),
            config,
            conn: None,
            sessions: HashMap::new(),
            stats: ClientStats::default(),
        }
    }

    /// Recovery counters so far.
    pub fn stats(&self) -> ClientStats {
        self.stats
    }

    /// The last resume token received for `alias` (survives reconnects
    /// and server restarts; hand it to a future process via
    /// [`Client::resume_from`]).
    pub fn last_token(&self, alias: &str) -> Option<&str> {
        self.sessions.get(alias)?.token.as_deref()
    }

    /// The full response of the most recent server-side `prepare` for
    /// `alias` (fingerprint, length, states, unambiguous, cached), if one
    /// has happened on the current connection's lifetime. The cluster
    /// router forwards these fields to its own caller verbatim.
    pub fn last_prepare(&self, alias: &str) -> Option<&Json> {
        self.sessions.get(alias)?.prepared.as_ref()
    }

    /// Closes `alias`: drops its client-side record and, if it has a
    /// server session on the live connection, sends that session a
    /// `close`. Best-effort — one attempt, no retry or backoff, and no
    /// reconnect (a session on a lost connection is already gone). A
    /// transport failure drops the connection, like any torn exchange; a
    /// server error (the session idled out) is ignored. A later call with
    /// the same alias starts from a fresh `prepare`.
    pub fn close(&mut self, alias: &str) {
        let Some(SessionEntry {
            session: Some(session),
            ..
        }) = self.sessions.remove(alias)
        else {
            return;
        };
        if self.conn.is_none() {
            return;
        }
        let line = request_line("close", &[("session", Json::str(session))]);
        if let Err(Step::Io(_)) = self.send_recv(line) {
            self.drop_conn();
        }
    }

    /// Seeds `alias`'s cursor position from a token saved elsewhere: the
    /// next [`Client::enumerate_page`] resumes there.
    pub fn resume_from(
        &mut self,
        alias: &str,
        token: impl Into<String>,
    ) -> Result<(), ClientError> {
        let entry = self
            .sessions
            .get_mut(alias)
            .ok_or_else(|| ClientError::Usage(format!("no prepared session {alias:?}")))?;
        entry.token = Some(token.into());
        Ok(())
    }

    /// Prepares an instance under the client-chosen `alias` and binds a
    /// server session to it, in one round trip (plus the `hello`
    /// handshake when it has to connect first). Returns the server's
    /// `prepare` response — `session`, `fingerprint`, `length`, `states`,
    /// `unambiguous`, `cached` — which [`Client::last_prepare`] also
    /// keeps. The spec is kept so the session can be re-prepared
    /// transparently after resets, restarts, and idle evictions.
    ///
    /// # Errors
    /// [`ClientError`] per the module-level retry contract.
    pub fn prepare(
        &mut self,
        alias: impl Into<String>,
        spec: InstanceSpec,
        length: usize,
    ) -> Result<Json, ClientError> {
        let alias = alias.into();
        self.sessions.insert(
            alias.clone(),
            SessionEntry {
                spec,
                length,
                session: None,
                token: None,
                prepared: None,
            },
        );
        // The fresh entry has no session, so the retry loop's re-prepare
        // is the request itself.
        self.rpc(Some(&alias), |_| None)
    }

    /// Routed `COUNT` on `alias`.
    ///
    /// # Errors
    /// [`ClientError`] per the module-level retry contract.
    pub fn count(&mut self, alias: &str) -> Result<Json, ClientError> {
        self.rpc(Some(alias), |session| {
            Some(request_line(
                "count",
                &[("session", Json::str(session.unwrap_or_default()))],
            ))
        })
    }

    /// Exact `COUNT` on `alias` (server-side `not-unambiguous` errors
    /// surface as [`ClientError::Server`]).
    ///
    /// # Errors
    /// [`ClientError`] per the module-level retry contract.
    pub fn count_exact(&mut self, alias: &str) -> Result<Json, ClientError> {
        self.rpc(Some(alias), |session| {
            Some(request_line(
                "count_exact",
                &[("session", Json::str(session.unwrap_or_default()))],
            ))
        })
    }

    /// `GEN`: `count` uniform witnesses under `seed` (pure given the
    /// seed, so replays are exact).
    ///
    /// # Errors
    /// [`ClientError`] per the module-level retry contract.
    pub fn sample(&mut self, alias: &str, count: usize, seed: u64) -> Result<Json, ClientError> {
        self.rpc(Some(alias), move |session| {
            Some(request_line(
                "sample",
                &[
                    ("session", Json::str(session.unwrap_or_default())),
                    ("count", Json::num(count as f64)),
                    ("seed", Json::num(seed as f64)),
                ],
            ))
        })
    }

    /// The next `ENUM` page for `alias`, resuming from the last received
    /// token (explicitly, so a replay re-serves exactly this page). The
    /// returned object carries `words`, `rank`, `done`, and `token`; the
    /// token is also recorded for the next call.
    ///
    /// # Errors
    /// [`ClientError`] per the module-level retry contract.
    pub fn enumerate_page(
        &mut self,
        alias: &str,
        page_size: Option<usize>,
    ) -> Result<Json, ClientError> {
        let token = self
            .sessions
            .get(alias)
            .ok_or_else(|| ClientError::Usage(format!("no prepared session {alias:?}")))?
            .token
            .clone();
        let value = self.rpc(Some(alias), move |session| {
            let mut fields = vec![("session", Json::str(session.unwrap_or_default()))];
            if let Some(size) = page_size {
                fields.push(("page_size", Json::num(size as f64)));
            }
            if let Some(token) = &token {
                fields.push(("resume", Json::str(token.clone())));
            }
            Some(request_line("enumerate", &fields))
        })?;
        if let Some(token) = value.get("token").and_then(Json::as_str) {
            if let Some(entry) = self.sessions.get_mut(alias) {
                entry.token = Some(token.to_string());
            }
        }
        Ok(value)
    }

    /// Sends every request line as **one pipelined batch** — a single
    /// buffered write, usually one syscall — then reads exactly one
    /// response per line, in request order (the transports guarantee
    /// order per connection; see `docs/ARCHITECTURE.md` §4).
    ///
    /// Pipelining trades the per-request replay contract for round-trip
    /// elimination, so this mode is deliberately raw: lines are sent
    /// verbatim (no session aliasing), error responses (`ok: false`) are
    /// returned as values for the caller to inspect, and any transport
    /// failure mid-batch drops the connection and surfaces immediately —
    /// the retry machinery cannot know which requests of a half-answered
    /// batch executed.
    ///
    /// # Errors
    /// [`ClientError::Exhausted`] (single attempt) on connect failure,
    /// a mid-batch transport failure, or a torn response frame.
    pub fn pipeline_raw(&mut self, lines: &[impl AsRef<str>]) -> Result<Vec<Json>, ClientError> {
        let fail = |last: String| ClientError::Exhausted { attempts: 1, last };
        if self.conn.is_none() {
            self.try_connect().map_err(fail)?;
        }
        let mut batch = String::new();
        for line in lines {
            batch.push_str(line.as_ref());
            batch.push('\n');
        }
        let conn = self.conn.as_mut().expect("connected above");
        if let Err(e) = conn
            .writer
            .write_all(batch.as_bytes())
            .and_then(|()| conn.writer.flush())
        {
            self.drop_conn();
            return Err(fail(format!("pipelined write: {e}")));
        }
        self.stats.pipelined_batches += 1;
        let mut responses = Vec::with_capacity(lines.len());
        for index in 0..lines.len() {
            let conn = self.conn.as_mut().expect("still connected");
            let mut response = String::new();
            match conn.reader.read_line(&mut response) {
                Err(e) => {
                    self.drop_conn();
                    return Err(fail(format!("pipelined read {index}: {e}")));
                }
                Ok(0) => {
                    self.drop_conn();
                    return Err(fail(format!(
                        "connection closed after {index} of {} pipelined responses",
                        lines.len()
                    )));
                }
                Ok(_) => {}
            }
            if !response.ends_with('\n') {
                self.stats.torn_frames += 1;
                self.drop_conn();
                return Err(fail(format!("pipelined response {index}: torn frame")));
            }
            match json::parse(response.trim_end()) {
                Ok(value) => responses.push(value),
                Err(e) => {
                    self.stats.torn_frames += 1;
                    self.drop_conn();
                    return Err(fail(format!("pipelined response {index}: {e}")));
                }
            }
        }
        Ok(responses)
    }

    /// The server's `health` probe.
    ///
    /// # Errors
    /// [`ClientError`] per the module-level retry contract.
    pub fn health(&mut self) -> Result<Json, ClientError> {
        self.rpc(None, |_| Some(request_line("health", &[])))
    }

    /// The server's `stats` counters.
    ///
    /// # Errors
    /// [`ClientError`] per the module-level retry contract.
    pub fn server_stats(&mut self) -> Result<Json, ClientError> {
        self.rpc(None, |_| Some(request_line("stats", &[])))
    }

    /// Sends `bye` (best-effort) and drops the connection. The spec
    /// registry survives, so the next request reconnects.
    pub fn bye(&mut self) {
        if let Some(conn) = &mut self.conn {
            let _ = conn
                .writer
                .write_all(frame(request_line("bye", &[])).as_bytes());
        }
        self.conn = None;
        for entry in self.sessions.values_mut() {
            entry.session = None;
        }
    }

    /// The generic retry loop: classify every failure, recover where the
    /// contract allows, give up where it does not. `build` makes the
    /// request line from the live server session; `None` means the
    /// session itself was the request, answered by its `prepare`
    /// response.
    fn rpc(
        &mut self,
        alias: Option<&str>,
        build: impl Fn(Option<&str>) -> Option<String>,
    ) -> Result<Json, ClientError> {
        let mut last = "never attempted".to_string();
        for attempt in 0..self.config.max_attempts.max(1) {
            if attempt > 0 {
                self.stats.retries += 1;
            }
            if self.conn.is_none() {
                if let Err(message) = self.try_connect() {
                    last = message;
                    self.sleep_backoff(attempt as u32);
                    continue;
                }
            }
            // Session-scoped verbs need a live server session; re-prepare
            // from the registry when the current connection has none.
            let session = match alias {
                None => None,
                Some(alias) => match self.ensure_session(alias) {
                    Ok(session) => Some(session),
                    Err(step) => {
                        last = self.classify(step, attempt as u32, alias)?;
                        continue;
                    }
                },
            };
            let Some(line) = build(session.as_deref()) else {
                let prepared = alias.and_then(|alias| self.last_prepare(alias));
                return Ok(prepared.cloned().expect("the session was just prepared"));
            };
            match self.send_recv(line) {
                Ok(value) => return Ok(value),
                Err(step) => {
                    last = self.classify(step, attempt as u32, alias.unwrap_or(""))?;
                    continue;
                }
            }
        }
        Err(ClientError::Exhausted {
            attempts: self.config.max_attempts.max(1),
            last,
        })
    }

    /// Turns one failed step into either a fatal [`ClientError`] or an
    /// absorbed failure (returned as the retry-cause description),
    /// applying the recovery side effects — dropping the connection,
    /// forgetting the session, sleeping the hint or the backoff.
    fn classify(&mut self, step: Step, attempt: u32, alias: &str) -> Result<String, ClientError> {
        match step {
            Step::Io(message) => {
                self.drop_conn();
                self.sleep_backoff(attempt);
                Ok(message)
            }
            Step::Wire {
                code,
                message,
                retry_after_ms,
            } => match ErrorCode::parse(&code) {
                // Not executed: honor the server's hint and replay.
                Some(ErrorCode::Overloaded) => {
                    let hint = retry_after_ms
                        .map(Duration::from_millis)
                        .unwrap_or_else(|| {
                            backoff_delay(
                                self.config.backoff_base,
                                self.config.backoff_cap,
                                self.config.seed,
                                attempt,
                            )
                        });
                    self.stats.hints_honored += 1;
                    std::thread::sleep(hint.min(self.config.backoff_cap));
                    Ok(format!("{code}: {message}"))
                }
                // Expired unexecuted in the queue: replay.
                Some(ErrorCode::DeadlineExceeded) => {
                    self.sleep_backoff(attempt);
                    Ok(format!("{code}: {message}"))
                }
                // The worker died mid-request and the server is closing
                // the connection: reconnect and replay.
                Some(ErrorCode::Internal) => {
                    self.drop_conn();
                    self.sleep_backoff(attempt);
                    Ok(format!("{code}: {message}"))
                }
                // Idled out (or the server restarted behind a proxy):
                // forget the binding; the next attempt re-prepares.
                Some(ErrorCode::UnknownSession) => {
                    if let Some(entry) = self.sessions.get_mut(alias) {
                        entry.session = None;
                    }
                    Ok(format!("{code}: {message}"))
                }
                _ => Err(ClientError::Server { code, message }),
            },
        }
    }

    /// The server session for `alias`, re-`prepare`d from the registry if
    /// the current connection has none.
    fn ensure_session(&mut self, alias: &str) -> Result<String, Step> {
        let line = match self.sessions.get(alias) {
            None => {
                return Err(Step::Wire {
                    code: ErrorCode::BadRequest.as_str().to_string(),
                    message: format!("no prepared session {alias:?}"),
                    retry_after_ms: None,
                })
            }
            Some(entry) => match &entry.session {
                Some(session) => return Ok(session.clone()),
                None => prepare_line(&entry.spec, entry.length),
            },
        };
        let value = self.send_recv(line)?;
        let session = value
            .get("session")
            .and_then(Json::as_str)
            .ok_or_else(|| Step::Io("prepare response missing \"session\"".to_string()))?
            .to_string();
        self.stats.re_prepares += 1;
        if let Some(entry) = self.sessions.get_mut(alias) {
            entry.session = Some(session.clone());
            entry.prepared = Some(value);
        }
        Ok(session)
    }

    /// One connect attempt (handshake included). Any failure leaves the
    /// client disconnected.
    fn try_connect(&mut self) -> Result<(), String> {
        // lsc-analyze: allow(unrouted-io) reason="client-side socket: chaos injects faults at the server's FaultyStream and exercises this path via reconnects"
        let stream = TcpStream::connect(&self.addr).map_err(|e| format!("connect: {e}"))?;
        if is_self_connect(stream.local_addr().ok(), stream.peer_addr().ok()) {
            return Err("connect: self-connect".to_string());
        }
        let _ = stream.set_read_timeout(self.config.io_timeout);
        let _ = stream.set_write_timeout(self.config.io_timeout);
        // One full frame per write: Nagle + delayed ACK would otherwise
        // stall small request lines for tens of milliseconds.
        let _ = stream.set_nodelay(true);
        let read_half = stream.try_clone().map_err(|e| format!("clone: {e}"))?;
        self.conn = Some(Conn {
            reader: BufReader::new(read_half),
            writer: stream,
        });
        // Sessions are connection-scoped: anything bound to the previous
        // connection is gone.
        for entry in self.sessions.values_mut() {
            entry.session = None;
        }
        if self.stats.connects > 0 {
            self.stats.reconnects += 1;
        }
        self.stats.connects += 1;
        match self.send_recv(request_line("hello", &[])) {
            Ok(_) => Ok(()),
            Err(Step::Io(message)) => {
                self.drop_conn();
                Err(format!("handshake: {message}"))
            }
            Err(Step::Wire { code, message, .. }) => {
                self.drop_conn();
                Err(format!("handshake refused [{code}]: {message}"))
            }
        }
    }

    /// One request/response round trip on the live connection. A torn
    /// frame — EOF mid-line, a line with no trailing newline, or JSON
    /// that does not parse — is a transport failure, never a value.
    fn send_recv(&mut self, line: String) -> Result<Json, Step> {
        let conn = self
            .conn
            .as_mut()
            .ok_or_else(|| Step::Io("not connected".to_string()))?;
        conn.writer
            .write_all(frame(line).as_bytes())
            .map_err(|e| Step::Io(format!("write: {e}")))?;
        let mut response = String::new();
        match conn.reader.read_line(&mut response) {
            Err(e) => return Err(Step::Io(format!("read: {e}"))),
            Ok(0) => return Err(Step::Io("connection closed by server".to_string())),
            Ok(_) => {}
        }
        if !response.ends_with('\n') {
            self.stats.torn_frames += 1;
            return Err(Step::Io(
                "torn frame: response line not terminated".to_string(),
            ));
        }
        let value = match json::parse(response.trim_end()) {
            Ok(value) => value,
            Err(e) => {
                self.stats.torn_frames += 1;
                return Err(Step::Io(format!("torn frame: {e}")));
            }
        };
        if value.get("ok") == Some(&Json::Bool(true)) {
            return Ok(value);
        }
        Err(Step::Wire {
            code: value
                .get("code")
                .and_then(Json::as_str)
                .unwrap_or(ErrorCode::Internal.as_str())
                .to_string(),
            message: value
                .get("error")
                .and_then(Json::as_str)
                .unwrap_or("unspecified server error")
                .to_string(),
            retry_after_ms: value.get("retry_after_ms").and_then(Json::as_u64),
        })
    }

    fn drop_conn(&mut self) {
        self.conn = None;
        for entry in self.sessions.values_mut() {
            entry.session = None;
        }
    }

    fn sleep_backoff(&self, attempt: u32) {
        std::thread::sleep(backoff_delay(
            self.config.backoff_base,
            self.config.backoff_cap,
            self.config.seed,
            attempt,
        ));
    }
}

/// A TCP self-connect: a dial to a dead local port whose ephemeral source
/// port is the target port connects the socket to itself, and would then
/// hold the port a restarting server needs. It counts as a failed,
/// retryable connect attempt.
fn is_self_connect(local: Option<SocketAddr>, peer: Option<SocketAddr>) -> bool {
    local.is_some() && local == peer
}

/// Terminates a request line, so the whole frame goes out in one write
/// (on a raw `TcpStream`, `writeln!` would make two `send`s).
fn frame(mut line: String) -> String {
    line.push('\n');
    line
}

/// Builds one request line with proper JSON escaping.
fn request_line(op: &str, fields: &[(&str, Json)]) -> String {
    let mut members = Vec::with_capacity(fields.len() + 2);
    members.push(("op".to_string(), Json::str(op)));
    members.push(("proto".to_string(), Json::num(PROTOCOL_VERSION as f64)));
    members.extend(fields.iter().map(|(k, v)| ((*k).to_string(), v.clone())));
    Json::Obj(members).encode()
}

/// The `prepare` line for a registered spec.
fn prepare_line(spec: &InstanceSpec, length: usize) -> String {
    let mut fields: Vec<(&str, Json)> = Vec::with_capacity(3);
    match spec {
        InstanceSpec::Regex { pattern, alphabet } => {
            fields.push(("regex", Json::str(pattern.clone())));
            if let Some(alphabet) = alphabet {
                fields.push(("alphabet", Json::str(alphabet.clone())));
            }
        }
        InstanceSpec::NfaText(text) => fields.push(("nfa_text", Json::str(text.clone()))),
    }
    fields.push(("length", Json::num(length as f64)));
    request_line("prepare", &fields)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::serve::{FaultConfig, FaultPlan, ServeConfig, Server};

    fn spawn() -> (Server, crate::serve::TcpServerHandle) {
        let server = Server::new(ServeConfig::default()).unwrap();
        let handle = server.spawn_tcp("127.0.0.1:0").unwrap();
        (server, handle)
    }

    fn quick_config() -> ClientConfig {
        ClientConfig {
            backoff_base: Duration::from_millis(1),
            backoff_cap: Duration::from_millis(20),
            ..ClientConfig::default()
        }
    }

    #[test]
    fn round_trip_and_cursor_pagination() {
        let (server, handle) = spawn();
        let mut client = Client::new(handle.addr().to_string(), quick_config());
        client
            .prepare(
                "job",
                InstanceSpec::Regex {
                    pattern: "(0|1)*11".to_string(),
                    alphabet: None,
                },
                5,
            )
            .unwrap();
        let count = client.count("job").unwrap();
        assert!(count.get("estimate").is_some());
        let mut words = Vec::new();
        loop {
            let page = client.enumerate_page("job", Some(3)).unwrap();
            if let Some(Json::Arr(items)) = page.get("words") {
                words.extend(items.iter().filter_map(|w| w.as_str().map(str::to_string)));
            }
            if page.get("done") == Some(&Json::Bool(true)) {
                break;
            }
        }
        assert!(!words.is_empty());
        assert!(words.iter().all(|w| w.ends_with("11")));
        client.bye();
        server.shutdown();
    }

    #[test]
    fn close_releases_the_server_session() {
        let (server, handle) = spawn();
        let mut client = Client::new(handle.addr().to_string(), quick_config());
        let spec = InstanceSpec::Regex {
            pattern: "(0|1)*11".to_string(),
            alphabet: None,
        };
        let prepared = client.prepare("job", spec.clone(), 5).unwrap();
        assert!(
            prepared.get("fingerprint").is_some(),
            "the prepare response"
        );
        assert_eq!(client.last_prepare("job"), Some(&prepared));
        assert_eq!(server.stats().sessions_open, 1);
        client.close("job");
        assert_eq!(server.stats().sessions_open, 0);
        assert!(client.last_prepare("job").is_none(), "record dropped");
        client.close("job");
        // A session lost with its connection is simply forgotten.
        client.prepare("job", spec, 5).unwrap();
        client.bye();
        client.close("job");
        assert_eq!(client.stats().connects, 1, "close never reconnects");
        server.shutdown();
    }

    #[test]
    fn survives_a_server_side_session_eviction() {
        let config = ServeConfig {
            session_ttl: Duration::from_millis(150),
            ..ServeConfig::default()
        };
        let server = Server::new(config).unwrap();
        let handle = server.spawn_tcp("127.0.0.1:0").unwrap();
        let mut client = Client::new(handle.addr().to_string(), quick_config());
        client
            .prepare(
                "job",
                InstanceSpec::Regex {
                    pattern: "(0|1)*1".to_string(),
                    alphabet: None,
                },
                4,
            )
            .unwrap();
        std::thread::sleep(Duration::from_millis(300));
        // The session idled out; the client re-prepares transparently.
        let count = client.count("job").unwrap();
        assert!(count.get("estimate").is_some());
        assert!(client.stats().re_prepares >= 2);
        client.bye();
        server.shutdown();
    }

    #[test]
    fn reconnects_and_resumes_across_a_server_restart() {
        let (server, mut handle) = spawn();
        let port = handle.addr().port();
        let mut client = Client::new(format!("127.0.0.1:{port}"), quick_config());
        client
            .prepare(
                "job",
                InstanceSpec::Regex {
                    pattern: "(0|1)*101".to_string(),
                    alphabet: None,
                },
                6,
            )
            .unwrap();
        let first = client.enumerate_page("job", Some(2)).unwrap();
        // Kill the server (accept loop + pool), then restart on the port.
        handle.shutdown();
        server.shutdown();
        drop(handle);
        drop(server);
        let server = Server::new(ServeConfig::default()).unwrap();
        let _handle = server.spawn_tcp(&format!("127.0.0.1:{port}")).unwrap();
        // The next page resumes from the saved token on the new server.
        let second = client.enumerate_page("job", Some(2)).unwrap();
        assert!(client.stats().reconnects >= 1);
        assert_ne!(first.get("words"), second.get("words"));
        assert_eq!(second.get("rank").and_then(Json::as_u64), Some(4));
        client.bye();
        server.shutdown();
    }

    #[test]
    fn replay_mid_pagination_resumes_from_the_last_acknowledged_token() {
        // The resume-after-`unknown-session` audit, pinned end to end: a
        // paged enumerate under injected stream faults *and* aggressive
        // session eviction must assemble exactly the fault-free page
        // sequence — never a duplicated first page (replaying the
        // original `enumerate` instead of the last acked token), never a
        // skipped page (trusting a server-side cursor that advanced on a
        // torn reply). Every retried page is sent with an explicit
        // `resume` token captured *before* the attempt.
        let spec = || InstanceSpec::Regex {
            pattern: "(0|1)*11".to_string(),
            alphabet: None,
        };
        let paginate = |client: &mut Client, pause_every: Option<usize>| {
            client.prepare("job", spec(), 8).unwrap();
            let mut words = Vec::new();
            let mut pages = 0usize;
            loop {
                let page = client.enumerate_page("job", Some(2)).unwrap();
                if let Some(Json::Arr(items)) = page.get("words") {
                    words.extend(items.iter().filter_map(|w| w.as_str().map(str::to_string)));
                }
                pages += 1;
                if page.get("done") == Some(&Json::Bool(true)) {
                    break;
                }
                if pause_every.is_some_and(|n| pages.is_multiple_of(n)) {
                    // Outlive the server's session TTL mid-pagination so
                    // the next page replays through `unknown-session`.
                    std::thread::sleep(Duration::from_millis(220));
                }
            }
            client.bye();
            words
        };

        // Fault-free single-server reference.
        let (server, handle) = spawn();
        let mut client = Client::new(handle.addr().to_string(), quick_config());
        let expected = paginate(&mut client, None);
        assert!(expected.len() > 16, "workload too small to paginate");
        server.shutdown();

        // The same pagination under chaos-rate stream faults plus a
        // session TTL shorter than the mid-run pauses.
        let plan = FaultPlan::new(FaultConfig {
            disk_error_per_1024: 0, // no snapshots in this test
            torn_write_per_1024: 0,
            ..FaultConfig::chaos(0x7E57_0003)
        });
        let config = ServeConfig {
            session_ttl: Duration::from_millis(150),
            faults: Some(plan.clone()),
            ..ServeConfig::default()
        };
        let server = Server::new(config).unwrap();
        let handle = server.spawn_tcp("127.0.0.1:0").unwrap();
        let mut client = Client::new(
            handle.addr().to_string(),
            ClientConfig {
                max_attempts: 64,
                ..quick_config()
            },
        );
        let got = paginate(&mut client, Some(6));
        assert_eq!(expected, got, "pages duplicated or skipped under replay");
        let stats = client.stats();
        assert!(
            stats.re_prepares >= 3,
            "the eviction path never fired (re_prepares={})",
            stats.re_prepares
        );
        assert!(
            plan.stats().total() > 0,
            "no faults fired; the run was not actually under injection"
        );
        server.shutdown();
    }

    #[test]
    fn pipeline_raw_answers_each_line_in_request_order() {
        let (server, handle) = spawn();
        let mut client = Client::new(handle.addr().to_string(), quick_config());
        let responses = client
            .pipeline_raw(&[
                r#"{"op":"prepare","regex":"(0|1)*11","length":5}"#,
                r#"{"op":"count","session":"s1"}"#,
                r#"{"op":"nonsense"}"#,
                r#"{"op":"health"}"#,
            ])
            .unwrap();
        assert_eq!(responses.len(), 4);
        assert!(responses[0].get("session").is_some(), "prepare first");
        assert!(responses[1].get("estimate").is_some(), "count second");
        // Raw mode returns error responses as values, in position.
        assert_eq!(responses[2].get("ok"), Some(&Json::Bool(false)));
        assert!(responses[3].get("queued").is_some(), "health last");
        assert_eq!(client.stats().pipelined_batches, 1);
        client.bye();
        server.shutdown();
    }

    #[test]
    fn non_retryable_errors_surface_immediately() {
        let (server, handle) = spawn();
        let mut client = Client::new(handle.addr().to_string(), quick_config());
        client
            .prepare(
                "ambiguous",
                InstanceSpec::Regex {
                    pattern: "(0|1)*101(0|1)*".to_string(),
                    alphabet: None,
                },
                6,
            )
            .unwrap();
        let err = client.count_exact("ambiguous").unwrap_err();
        match err {
            ClientError::Server { code, .. } => assert_eq!(code, "not-unambiguous"),
            other => panic!("expected a server error, got {other}"),
        }
        client.bye();
        server.shutdown();
    }

    #[test]
    fn exhaustion_reports_the_last_failure() {
        // Nothing listens on this port (bound then dropped).
        let port = {
            let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
            listener.local_addr().unwrap().port()
        };
        let mut client = Client::new(
            format!("127.0.0.1:{port}"),
            ClientConfig {
                max_attempts: 3,
                backoff_base: Duration::from_millis(1),
                backoff_cap: Duration::from_millis(5),
                ..ClientConfig::default()
            },
        );
        let err = client.health().unwrap_err();
        match err {
            ClientError::Exhausted { attempts, last } => {
                assert_eq!(attempts, 3);
                assert!(last.contains("connect"), "{last}");
            }
            other => panic!("expected exhaustion, got {other}"),
        }
    }

    #[test]
    fn a_self_connected_socket_is_rejected() {
        let addr: SocketAddr = "127.0.0.1:40000".parse().unwrap();
        assert!(is_self_connect(Some(addr), Some(addr)));
        assert!(
            !is_self_connect(None, None),
            "unknown ends are not a self-connect"
        );
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let stream = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        assert!(!is_self_connect(
            stream.local_addr().ok(),
            stream.peer_addr().ok()
        ));
    }

    #[test]
    fn backoff_is_monotone_capped_and_deterministic() {
        let base = Duration::from_millis(5);
        let cap = Duration::from_secs(1);
        for seed in [0u64, 7, 0xDEAD_BEEF] {
            let mut prev = Duration::ZERO;
            for attempt in 0..24 {
                let d = backoff_delay(base, cap, seed, attempt);
                assert!(d >= prev, "monotone: {prev:?} then {d:?}");
                assert!(d <= cap, "capped: {d:?}");
                assert_eq!(d, backoff_delay(base, cap, seed, attempt), "deterministic");
                prev = d;
            }
            assert_eq!(prev, cap, "schedule reaches the cap");
        }
    }
}
