//! The system under test and the client that drives it.
//!
//! A [`Rig`] is one running configuration of the serve stack, reached
//! through one [`Rung`] of the layer ladder: a direct `handle_line` call,
//! the worker pool, a TCP connection to either transport, or a TCP
//! connection to a `Router` over two backends. A [`Player`] turns abstract
//! [`Op`]s into request lines, tracks sessions and resume tokens from the
//! replies, and records every exchange with its latency.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

use lsc_core::engine::EngineConfig;
use lsc_core::serve::json::Json;
use lsc_core::serve::{
    BackendSpec, RouteConfig, Router, ServeConfig, Server, TcpServerHandle, Transport,
};

use crate::gen::{Kind, Op, Workload};

/// The engine cache cap for cold-compile: a few sketch-bearing instances,
/// so the LRU evicts throughout the run.
pub const COLD_CACHE_BYTES: usize = 1;

/// One rung of the layer ladder, outermost last.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Rung {
    /// `Server::handle_line` on the calling thread.
    HandleLine,
    /// `Server::submit_and_wait`: adds the worker-pool hop.
    SubmitAndWait,
    /// One connection to the thread-per-connection TCP transport.
    Threaded,
    /// One connection to the event-loop TCP transport.
    EventLoop,
    /// One connection to a `Router` over two threaded backends.
    Routed,
}

impl Rung {
    /// The ladder, innermost first.
    pub const LADDER: [Rung; 5] = [
        Rung::HandleLine,
        Rung::SubmitAndWait,
        Rung::Threaded,
        Rung::EventLoop,
        Rung::Routed,
    ];

    /// A short name for reports and spans.
    pub fn name(self) -> &'static str {
        match self {
            Rung::HandleLine => "handle_line",
            Rung::SubmitAndWait => "submit_and_wait",
            Rung::Threaded => "threaded",
            Rung::EventLoop => "event_loop",
            Rung::Routed => "routed",
        }
    }

    /// The rung a workload's end-to-end runs use.
    pub fn of(kind: Kind) -> Rung {
        match kind {
            Kind::WarmWire | Kind::ColdCompile => Rung::Threaded,
            Kind::BulkStream => Rung::EventLoop,
            Kind::RoutedWire => Rung::Routed,
        }
    }
}

/// The server configuration a workload runs under: the defaults, except
/// cold-compile's small cache.
pub fn serve_config(kind: Kind) -> ServeConfig {
    let mut config = ServeConfig::default();
    if kind == Kind::ColdCompile {
        config.engine = EngineConfig {
            cache_bytes: COLD_CACHE_BYTES,
            ..config.engine
        };
    }
    config
}

enum Channel {
    Direct {
        server: Arc<Server>,
        conn: u64,
    },
    Pooled {
        server: Arc<Server>,
        conn: u64,
    },
    Wire {
        reader: BufReader<TcpStream>,
        writer: TcpStream,
        out: Vec<u8>,
    },
}

/// A running serve stack plus the one client channel into it.
pub struct Rig {
    server: Option<Arc<Server>>,
    listener: Option<TcpServerHandle>,
    backends: Vec<(Server, TcpServerHandle)>,
    router: Option<(Router, TcpServerHandle)>,
    channel: Channel,
}

fn connect(handle: &TcpServerHandle) -> std::io::Result<Channel> {
    let stream = TcpStream::connect(handle.addr())?;
    stream.set_nodelay(true)?;
    Ok(Channel::Wire {
        reader: BufReader::new(stream.try_clone()?),
        writer: stream,
        out: Vec::new(),
    })
}

impl Rig {
    /// Starts the stack for `rung` under `config`.
    ///
    /// # Errors
    /// Bind, connect and server-construction failures.
    pub fn start(rung: Rung, config: &ServeConfig) -> std::io::Result<Rig> {
        if rung == Rung::Routed {
            let mut backends = Vec::new();
            for _ in 0..2 {
                let server = Server::new(config.clone())?;
                let handle = server.spawn_tcp("127.0.0.1:0")?;
                backends.push((server, handle));
            }
            let router = Router::new(RouteConfig {
                backends: backends
                    .iter()
                    .map(|(_, h)| BackendSpec::new(h.addr().to_string()))
                    .collect(),
                ..RouteConfig::default()
            })?;
            let handle = router.spawn_tcp("127.0.0.1:0")?;
            let channel = connect(&handle)?;
            return Ok(Rig {
                server: None,
                listener: None,
                backends,
                router: Some((router, handle)),
                channel,
            });
        }
        let mut config = config.clone();
        config.transport = match rung {
            Rung::EventLoop => Transport::EventLoop,
            _ => Transport::Threaded,
        };
        let server = Arc::new(Server::new(config)?);
        let (listener, channel) = match rung {
            Rung::HandleLine => (
                None,
                Channel::Direct {
                    conn: server.open_conn(),
                    server: server.clone(),
                },
            ),
            Rung::SubmitAndWait => (
                None,
                Channel::Pooled {
                    conn: server.open_conn(),
                    server: server.clone(),
                },
            ),
            _ => {
                let handle = server.spawn_tcp("127.0.0.1:0")?;
                let channel = connect(&handle)?;
                (Some(handle), channel)
            }
        };
        Ok(Rig {
            server: Some(server),
            listener,
            backends: Vec::new(),
            router: None,
            channel,
        })
    }

    /// Sends one request line and reads its reply into `reply`.
    ///
    /// # Errors
    /// Socket failures, and a connection closed before the reply.
    pub fn call(&mut self, line: &str, reply: &mut String) -> std::io::Result<()> {
        reply.clear();
        match &mut self.channel {
            Channel::Direct { server, conn } => {
                reply.push_str(&server.handle_line(*conn, line).text)
            }
            Channel::Pooled { server, conn } => {
                reply.push_str(&server.submit_and_wait(*conn, line).text)
            }
            Channel::Wire {
                reader,
                writer,
                out,
            } => {
                out.clear();
                out.extend_from_slice(line.as_bytes());
                out.push(b'\n');
                writer.write_all(out)?;
                if reader.read_line(reply)? == 0 {
                    return Err(std::io::Error::new(
                        std::io::ErrorKind::UnexpectedEof,
                        "server closed the connection",
                    ));
                }
                while reply.ends_with('\n') || reply.ends_with('\r') {
                    reply.pop();
                }
            }
        }
        Ok(())
    }

    /// The serving node (absent on the routed rung).
    pub fn server(&self) -> Option<&Server> {
        self.server.as_deref()
    }

    /// The router (routed rung only).
    pub fn router(&self) -> Option<&Router> {
        self.router.as_ref().map(|(router, _)| router)
    }

    /// Closes the client channel and stops every listener and pool.
    pub fn stop(self) {
        let Rig {
            server,
            listener,
            backends,
            router,
            channel,
        } = self;
        drop(channel);
        if let Some((router, mut handle)) = router {
            handle.shutdown();
            drop(router);
        }
        for (server, mut handle) in backends {
            handle.shutdown();
            server.shutdown();
        }
        if let Some(mut handle) = listener {
            handle.shutdown();
        }
        if let Some(server) = server {
            server.shutdown();
        }
    }
}

/// One request/reply exchange.
#[derive(Clone, Debug)]
pub struct Record {
    /// The op the request served.
    pub op: Op,
    /// The request line.
    pub request: String,
    /// The reply line.
    pub reply: String,
    /// When the request was sent.
    pub start: Instant,
    /// Send-to-full-reply latency.
    pub ns: u64,
}

/// The string value of `"key":"…"` in a reply line (values the server
/// writes without escapes: session names and resume tokens).
pub fn str_field<'a>(reply: &'a str, key: &str) -> Option<&'a str> {
    let pattern = format!("\"{key}\":\"");
    let start = reply.find(&pattern)? + pattern.len();
    let len = reply[start..].find('"')?;
    Some(&reply[start..start + len])
}

/// The integer value of `"key":N` in a reply line.
pub fn num_field(reply: &str, key: &str) -> Option<u64> {
    let pattern = format!("\"{key}\":");
    let start = reply.find(&pattern)? + pattern.len();
    let digits: String = reply[start..]
        .chars()
        .take_while(char::is_ascii_digit)
        .collect();
    digits.parse().ok()
}

/// Turns ops into request lines and keeps the client-side session state.
pub struct Player<'w> {
    workload: &'w Workload,
    sessions: Vec<Option<String>>,
    tokens: Vec<Option<String>>,
    /// Whether the session has a live server-side cursor (a fresh page
    /// then needs a fresh session).
    cursor: Vec<bool>,
    reply: String,
}

impl<'w> Player<'w> {
    /// A player with no open sessions.
    pub fn new(workload: &'w Workload) -> Player<'w> {
        let n = workload.catalog.len();
        Player {
            workload,
            sessions: vec![None; n],
            tokens: vec![None; n],
            cursor: vec![false; n],
            reply: String::new(),
        }
    }

    fn exchange(
        &mut self,
        rig: &mut Rig,
        op: Op,
        request: String,
        out: &mut Vec<Record>,
    ) -> std::io::Result<()> {
        let start = Instant::now();
        rig.call(&request, &mut self.reply)?;
        let ns = start.elapsed().as_nanos() as u64;
        out.push(Record {
            op,
            request,
            reply: self.reply.clone(),
            start,
            ns,
        });
        Ok(())
    }

    fn session(
        &mut self,
        rig: &mut Rig,
        inst: usize,
        out: &mut Vec<Record>,
    ) -> std::io::Result<String> {
        if self.sessions[inst].is_none() {
            self.play(rig, Op::Prepare(inst), out)?;
        }
        Ok(self.sessions[inst].clone().unwrap_or_default())
    }

    /// Runs one op (plus any follow-up it implies: re-opening closes the
    /// old session; a fresh page on a session with a live cursor re-opens
    /// first), appending every exchange to `out`.
    ///
    /// # Errors
    /// Channel failures; `ok:false` replies are recorded, not errors.
    pub fn play(&mut self, rig: &mut Rig, op: Op, out: &mut Vec<Record>) -> std::io::Result<()> {
        match op {
            Op::Prepare(inst) => {
                let line = self.workload.catalog[inst].prepare_line();
                self.exchange(rig, op, line, out)?;
                let fresh = str_field(&self.reply, "session").map(str::to_string);
                if let Some(fresh) = fresh {
                    if let Some(old) = self.sessions[inst].replace(fresh) {
                        self.exchange(rig, Op::Close(inst), request("close", &old, &[]), out)?;
                    }
                    self.cursor[inst] = false;
                }
            }
            Op::Count(inst) => {
                let session = self.session(rig, inst, out)?;
                self.exchange(rig, op, request("count", &session, &[]), out)?;
            }
            Op::Enumerate { inst, page } => {
                if self.tokens[inst].is_none() && self.cursor[inst] {
                    self.play(rig, Op::Prepare(inst), out)?;
                }
                let session = self.session(rig, inst, out)?;
                let mut fields = vec![("page_size", Json::num(page as f64))];
                if let Some(token) = &self.tokens[inst] {
                    fields.push(("resume", Json::str(token.clone())));
                }
                self.exchange(rig, op, request("enumerate", &session, &fields), out)?;
                self.cursor[inst] = true;
                self.tokens[inst] = if self.reply.contains("\"done\":true") {
                    None
                } else {
                    str_field(&self.reply, "token").map(str::to_string)
                };
            }
            Op::Sample { inst, count, seed } => {
                let session = self.session(rig, inst, out)?;
                let fields = [
                    ("count", Json::num(count as f64)),
                    ("seed", Json::num(seed as f64)),
                ];
                self.exchange(rig, op, request("sample", &session, &fields), out)?;
            }
            Op::Close(inst) => {
                if let Some(session) = self.sessions[inst].take() {
                    self.exchange(rig, op, request("close", &session, &[]), out)?;
                }
                self.tokens[inst] = None;
                self.cursor[inst] = false;
            }
        }
        Ok(())
    }

    /// Plays ops from `ops` until `budget` has elapsed (checked between
    /// ops), `out` holds at least `batch` records, or the stream ends.
    /// Returns whether the run is over (budget spent or stream ended).
    ///
    /// # Errors
    /// Channel failures.
    pub fn play_batch(
        &mut self,
        rig: &mut Rig,
        ops: &mut impl Iterator<Item = Op>,
        budget: Duration,
        batch: usize,
        out: &mut Vec<Record>,
    ) -> std::io::Result<bool> {
        let start = Instant::now();
        while out.len() < batch {
            if start.elapsed() >= budget {
                return Ok(true);
            }
            match ops.next() {
                Some(op) => self.play(rig, op, out)?,
                None => return Ok(true),
            }
        }
        Ok(false)
    }
}

fn request(op: &str, session: &str, extra: &[(&str, Json)]) -> String {
    let mut fields = vec![
        ("op".to_string(), Json::str(op)),
        ("session".to_string(), Json::str(session)),
    ];
    fields.extend(extra.iter().map(|(k, v)| (k.to_string(), v.clone())));
    Json::Obj(fields).encode()
}
