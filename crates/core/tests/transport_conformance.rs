//! Transport conformance: the two TCP transports are observationally
//! interchangeable.
//!
//! `ServeConfig::transport` selects between thread-per-connection
//! (`Transport::Threaded`) and the readiness-based pipelining event loop
//! (`Transport::EventLoop`). The contract pinned here: for any sequence
//! of wire requests — every protocol verb, every error path, pipelined
//! batches, half-closed connections, mid-stream cursor resumption across
//! connections — the bytes a client reads back are **bit-identical**
//! across transports. The event loop buys concurrency and pipelining; it
//! is allowed to buy nothing else.
//!
//! The harness replays a scripted, seeded op log serially (one request
//! in flight per comparison run), so session names (`s1`, `s2`, …),
//! resume tokens, counters, and FPRAS estimates are all deterministic;
//! any transport-visible divergence fails an `assert_eq` on raw response
//! lines.
//!
//! Also here: the worker-respawn pin (an injected queued-job panic must
//! not shrink the pool — satellite of the transport work, since a lost
//! worker stalls an event-loop completion forever), and the
//! connection-scaling smoke (hundreds of idle connections must not
//! regress the hot path; bench E20 measures the same shape with real
//! statistics, and `DESIGN.md` documents the 10k-connection variant for
//! real hosts).

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

use lsc_core::engine::{EngineConfig, RouterConfig};
use lsc_core::serve::json::{self, Json};
use lsc_core::serve::{
    Client, ClientConfig, FaultConfig, FaultPlan, ServeConfig, Server, TcpServerHandle, Transport,
};

/// Every transport the host supports (the event loop needs epoll).
fn transports() -> Vec<Transport> {
    let mut all = vec![Transport::Threaded];
    if Transport::event_loop_supported() {
        all.push(Transport::EventLoop);
    } else {
        eprintln!("skipping Transport::EventLoop: no epoll on this host");
    }
    all
}

/// The deterministic engine config the serve e2e suite uses: FPRAS forced
/// where determinization would win, fixed seed — responses are a pure
/// function of the request sequence.
fn engine_config() -> EngineConfig {
    EngineConfig {
        router: RouterConfig {
            determinization_cap: 0,
            fpras: lsc_core::fpras::FprasParams::quick(),
            ..RouterConfig::default()
        },
        seed: 0xBEEF,
        ..EngineConfig::default()
    }
}

fn serve_config(transport: Transport) -> ServeConfig {
    ServeConfig {
        engine: engine_config(),
        workers: 2,
        queue_depth: 64,
        transport,
        ..ServeConfig::default()
    }
}

fn spawn(transport: Transport) -> (Server, TcpServerHandle) {
    let server = Server::new(serve_config(transport)).unwrap();
    let handle = server.spawn_tcp("127.0.0.1:0").unwrap();
    (server, handle)
}

/// A raw line client: sends request lines verbatim, returns response
/// lines verbatim (trailing newline stripped) for bit comparison.
struct Wire {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Wire {
    fn connect(addr: SocketAddr) -> Wire {
        let stream = TcpStream::connect(addr).expect("connect");
        stream
            .set_read_timeout(Some(Duration::from_secs(60)))
            .unwrap();
        Wire {
            reader: BufReader::new(stream.try_clone().expect("clone")),
            writer: stream,
        }
    }

    fn send(&mut self, line: &str) {
        self.writer.write_all(line.as_bytes()).expect("send");
        self.writer.write_all(b"\n").expect("send newline");
        self.writer.flush().expect("flush");
    }

    fn recv(&mut self) -> String {
        let mut response = String::new();
        self.reader.read_line(&mut response).expect("read response");
        assert!(
            response.ends_with('\n'),
            "torn response frame: {response:?}"
        );
        response.truncate(response.len() - 1);
        response
    }

    fn rpc(&mut self, line: &str) -> String {
        self.send(line);
        self.recv()
    }
}

fn field<'a>(raw: &'a Json, key: &str) -> &'a Json {
    raw.get(key)
        .unwrap_or_else(|| panic!("missing {key:?} in {}", raw.encode()))
}

fn str_field(raw: &str, key: &str) -> String {
    let value = json::parse(raw).expect("response is JSON");
    field(&value, key)
        .as_str()
        .unwrap_or_else(|| panic!("{key:?} not a string in {raw}"))
        .to_string()
}

/// The scripted verb matrix: every wire op, its major error paths, and a
/// cross-connection mid-stream cursor resume. Returns every raw response
/// line, in order — the transcript two transports must agree on byte for
/// byte.
fn verb_matrix_transcript(addr: SocketAddr) -> Vec<String> {
    let mut transcript = Vec::new();
    fn log(transcript: &mut Vec<String>, wire: &mut Wire, line: &str) -> String {
        let response = wire.rpc(line);
        transcript.push(response.clone());
        response
    }

    // Connection 1: the full verb tour.
    let mut a = Wire::connect(addr);
    log(&mut transcript, &mut a, r#"{"op":"hello","proto":1}"#);
    // Protocol-version mismatch: a typed error, connection stays up.
    log(&mut transcript, &mut a, r#"{"op":"hello","proto":99}"#);
    let prepared = log(
        &mut transcript,
        &mut a,
        r#"{"op":"prepare","regex":"(0|1)*101(0|1)*","length":8}"#,
    );
    let ambiguous = str_field(&prepared, "session");
    let prepared = log(
        &mut transcript,
        &mut a,
        r#"{"op":"prepare","regex":"(0|1)*11","length":7}"#,
    );
    let unambiguous = str_field(&prepared, "session");
    // Counting: routed estimate on both, exactness only where it exists.
    log(
        &mut transcript,
        &mut a,
        &format!(r#"{{"op":"count","session":"{ambiguous}"}}"#),
    );
    log(
        &mut transcript,
        &mut a,
        &format!(r#"{{"op":"count_exact","session":"{ambiguous}"}}"#),
    );
    log(
        &mut transcript,
        &mut a,
        &format!(r#"{{"op":"count_exact","session":"{unambiguous}"}}"#),
    );
    // Enumeration: a live-cursor page, an explicit token resume, a bad
    // token, an oversized page.
    let page = log(
        &mut transcript,
        &mut a,
        &format!(r#"{{"op":"enumerate","session":"{unambiguous}","page_size":5}}"#),
    );
    let token = str_field(&page, "token");
    let page = log(
        &mut transcript,
        &mut a,
        &format!(
            r#"{{"op":"enumerate","session":"{unambiguous}","page_size":5,"resume":"{token}"}}"#
        ),
    );
    let token = str_field(&page, "token");
    log(
        &mut transcript,
        &mut a,
        &format!(r#"{{"op":"enumerate","session":"{unambiguous}","resume":"enum1.garbage"}}"#),
    );
    log(
        &mut transcript,
        &mut a,
        &format!(r#"{{"op":"enumerate","session":"{unambiguous}","page_size":999999}}"#),
    );
    // Uniform generation, seeded: deterministic witnesses.
    log(
        &mut transcript,
        &mut a,
        &format!(r#"{{"op":"sample","session":"{ambiguous}","count":5,"seed":42}}"#),
    );
    // Session lifecycle: close, then the dangling-session error.
    log(
        &mut transcript,
        &mut a,
        &format!(r#"{{"op":"close","session":"{ambiguous}"}}"#),
    );
    log(
        &mut transcript,
        &mut a,
        &format!(r#"{{"op":"count","session":"{ambiguous}"}}"#),
    );
    log(
        &mut transcript,
        &mut a,
        r#"{"op":"count","session":"s999"}"#,
    );
    // Introspection and the malformed-request paths.
    log(&mut transcript, &mut a, r#"{"op":"health"}"#);
    log(&mut transcript, &mut a, r#"{"op":"stats"}"#);
    log(&mut transcript, &mut a, r#"{"op":"warp-core-breach"}"#);
    log(&mut transcript, &mut a, "this is not json");
    log(&mut transcript, &mut a, r#"{"op":"bye"}"#);
    // After `bye` the server hangs up.
    let mut rest = String::new();
    assert_eq!(a.reader.read_line(&mut rest).unwrap_or(0), 0);
    drop(a);

    // Connection 2: re-prepare (a cache hit) and resume connection 1's
    // cursor mid-stream from its token — CRLF-terminated requests, which
    // both transports must strip.
    let mut b = Wire::connect(addr);
    b.writer
        .write_all(b"{\"op\":\"prepare\",\"regex\":\"(0|1)*11\",\"length\":7}\r\n")
        .unwrap();
    let prepared = b.recv();
    transcript.push(prepared.clone());
    let session = str_field(&prepared, "session");
    let mut token = token;
    loop {
        let page = log(
            &mut transcript,
            &mut b,
            &format!(
                r#"{{"op":"enumerate","session":"{session}","page_size":5,"resume":"{token}"}}"#
            ),
        );
        let value = json::parse(&page).unwrap();
        token = field(&value, "token").as_str().unwrap().to_string();
        if value.get("done") == Some(&Json::Bool(true)) {
            break;
        }
    }
    log(&mut transcript, &mut b, r#"{"op":"bye"}"#);
    transcript
}

#[test]
fn verb_matrix_is_bit_identical_across_transports() {
    let mut reference: Option<Vec<String>> = None;
    for transport in transports() {
        let (server, mut handle) = spawn(transport);
        let transcript = verb_matrix_transcript(handle.addr());
        assert!(
            transcript.len() >= 25,
            "the matrix shrank: {} responses",
            transcript.len()
        );
        handle.shutdown();
        server.shutdown();
        match &reference {
            None => reference = Some(transcript),
            Some(expected) => {
                assert_eq!(expected.len(), transcript.len(), "{transport:?}");
                for (i, (want, got)) in expected.iter().zip(&transcript).enumerate() {
                    assert_eq!(
                        want, got,
                        "{transport:?} diverged from Threaded at response {i}"
                    );
                }
            }
        }
    }
}

/// The pipelined batch both tests below send: 8 requests, every one
/// known-deterministic, covering prepare/count/enumerate/sample plus an
/// error in the middle of the batch.
fn pipelined_batch() -> [&'static str; 8] {
    [
        r#"{"op":"hello","proto":1}"#,
        r#"{"op":"prepare","regex":"(0|1)*11","length":6}"#,
        r#"{"op":"count","session":"s1"}"#,
        r#"{"op":"enumerate","session":"s1","page_size":4}"#,
        r#"{"op":"count","session":"s77"}"#,
        r#"{"op":"sample","session":"s1","count":3,"seed":7}"#,
        r#"{"op":"enumerate","session":"s1","page_size":4}"#,
        r#"{"op":"health"}"#,
    ]
}

#[test]
fn pipelined_batch_matches_sequential_execution_bit_for_bit() {
    let mut reference: Option<Vec<String>> = None;
    for transport in transports() {
        // Sequential run: one request, one response, one at a time.
        let (server, mut handle) = spawn(transport);
        let mut wire = Wire::connect(handle.addr());
        let sequential: Vec<String> = pipelined_batch().iter().map(|l| wire.rpc(l)).collect();
        drop(wire);
        handle.shutdown();
        server.shutdown();

        // The library client's pipelined mode against a fresh server:
        // one batch write, every response present, in order, errors
        // returned in position.
        let (server, mut handle) = spawn(transport);
        let mut client = Client::new(handle.addr().to_string(), ClientConfig::default());
        let replies = client.pipeline_raw(&pipelined_batch()).expect("batch");
        assert_eq!(replies.len(), 8, "{transport:?}");
        assert_eq!(
            replies[1].get("session").and_then(Json::as_str),
            Some("s1"),
            "{transport:?}: prepare answered out of order"
        );
        assert_eq!(
            replies[4].get("code").and_then(Json::as_str),
            Some("unknown-session"),
            "{transport:?}: the mid-batch error lost its position"
        );
        assert_eq!(client.stats().pipelined_batches, 1);
        client.bye();
        handle.shutdown();
        server.shutdown();

        // Raw-socket pipelined run on another fresh server: all 8
        // requests in ONE write (one syscall), then 8 responses read
        // back in order off the same connection — compared bit for bit
        // against the sequential transcript.
        let (server, mut handle) = spawn(transport);
        let mut stream = TcpStream::connect(handle.addr()).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(60)))
            .unwrap();
        let batch: String = pipelined_batch().iter().map(|l| format!("{l}\n")).collect();
        stream.write_all(batch.as_bytes()).unwrap();
        stream.flush().unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let mut pipelined = Vec::with_capacity(8);
        for i in 0..8 {
            let mut line = String::new();
            let n = reader.read_line(&mut line).expect("pipelined response");
            assert!(n > 0, "connection closed after {i} of 8 responses");
            assert!(line.ends_with('\n'), "torn frame at {i}");
            line.truncate(line.len() - 1);
            pipelined.push(line);
        }
        drop(reader);
        drop(stream);
        handle.shutdown();
        server.shutdown();

        assert_eq!(
            sequential, pipelined,
            "{transport:?}: pipelining changed response content or order"
        );
        match &reference {
            None => reference = Some(sequential),
            Some(expected) => assert_eq!(
                expected, &sequential,
                "{transport:?} diverged from Threaded"
            ),
        }
    }
}

#[test]
fn half_closed_batch_with_unterminated_final_line_is_fully_answered() {
    // A client that writes its whole batch — final line missing its
    // newline — and shuts down the write half. Both transports must
    // serve every request, the unterminated one included (`BufRead::
    // lines` semantics), then close cleanly.
    let mut reference: Option<Vec<String>> = None;
    for transport in transports() {
        let (server, mut handle) = spawn(transport);
        let mut stream = TcpStream::connect(handle.addr()).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(60)))
            .unwrap();
        let batch = concat!(
            r#"{"op":"prepare","regex":"(0|1)*11","length":5}"#,
            "\n",
            r#"{"op":"count","session":"s1"}"#,
            "\n",
            r#"{"op":"enumerate","session":"s1","page_size":3}"#, // no \n
        );
        stream.write_all(batch.as_bytes()).unwrap();
        stream.flush().unwrap();
        stream.shutdown(std::net::Shutdown::Write).unwrap();
        let mut responses = String::new();
        BufReader::new(&stream)
            .read_to_string(&mut responses)
            .expect("read all responses to EOF");
        drop(stream);
        handle.shutdown();
        let stats = server.stats();
        assert_eq!(
            stats.resets_survived, 0,
            "{transport:?}: a half-close is a clean exit, not a reset"
        );
        server.shutdown();
        let lines: Vec<String> = responses.lines().map(str::to_string).collect();
        assert_eq!(lines.len(), 3, "{transport:?}: {responses:?}");
        assert!(lines[2].contains(r#""words""#), "{transport:?}");
        match &reference {
            None => reference = Some(lines),
            Some(expected) => assert_eq!(expected, &lines, "{transport:?}"),
        }
    }
}

/// The longest request line either transport accepts, its newline
/// included (`serve::conn::MAX_LINE_BYTES`).
const MAX_LINE_BYTES: usize = 4 << 20;

#[test]
fn a_request_line_past_the_cap_closes_the_connection_on_both_transports() {
    // 4 MiB + 1 byte without a newline: each transport must drop the
    // connection dirty, with no reply, and keep serving new ones.
    let mut outcomes = Vec::new();
    for transport in transports() {
        let (server, mut handle) = spawn(transport);
        let mut stream = TcpStream::connect(handle.addr()).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(60)))
            .unwrap();
        // The server may close (and reset) before the write finishes.
        let _ = stream.write_all(&vec![b'a'; MAX_LINE_BYTES + 1]);
        let mut reply = Vec::new();
        let mut chunk = [0u8; 4096];
        loop {
            match stream.read(&mut chunk) {
                Ok(0) => break,
                Ok(n) => reply.extend_from_slice(&chunk[..n]),
                Err(e) if e.kind() == std::io::ErrorKind::ConnectionReset => break,
                Err(e) => panic!("{transport:?}: {e}"),
            }
        }
        drop(stream);
        let mut wire = Wire::connect(handle.addr());
        let hello = wire.rpc(r#"{"op":"hello","proto":1}"#);
        assert!(hello.contains(r#""ok":true"#), "{transport:?}: {hello}");
        drop(wire);
        handle.shutdown();
        let resets = server.stats().resets_survived;
        server.shutdown();
        assert!(
            reply.is_empty(),
            "{transport:?} replied to an over-long line"
        );
        assert_eq!(resets, 1, "{transport:?}: the close must be dirty");
        outcomes.push((reply, resets));
    }
    assert!(outcomes.windows(2).all(|pair| pair[0] == pair[1]));
}

#[test]
fn deeply_nested_lines_are_bad_requests_on_both_transports() {
    // 20 000 open brackets, and a regex of 20 000 nested groups: each
    // recursed a worker off its stack before the parsers bounded their
    // nesting. Now each is a `bad-request`, and the connection (and its
    // worker) keeps serving.
    let groups = format!("{}0{}", "(".repeat(20_000), ")".repeat(20_000));
    let deep_lines = [
        "[".repeat(20_000),
        format!(r#"{{"op":"prepare","regex":"{groups}","length":3}}"#),
    ];
    for transport in transports() {
        let (server, mut handle) = spawn(transport);
        let mut wire = Wire::connect(handle.addr());
        for line in &deep_lines {
            let reply = wire.rpc(line);
            assert!(
                reply.contains(r#""code":"bad-request""#),
                "{transport:?}: {reply}"
            );
            let hello = wire.rpc(r#"{"op":"hello","proto":1}"#);
            assert!(hello.contains(r#""ok":true"#), "{transport:?}: {hello}");
        }
        drop(wire);
        handle.shutdown();
        server.shutdown();
    }
}

#[test]
fn injected_job_panics_respawn_workers_and_the_pool_keeps_serving() {
    // The pool.rs respawn pin, end to end: with queued-job panics
    // injected at a rate that *will* fire, a 2-worker server must keep
    // answering long after 2 panics have unwound — every unwound worker
    // is replaced, and the event loop's completion slot answers the
    // poisoned request with a typed `internal` instead of hanging the
    // connection.
    for transport in transports() {
        let config = ServeConfig {
            faults: Some(FaultPlan::new(FaultConfig {
                seed: 0xC0FFEE,
                job_panic_per_1024: 256, // ~25% of jobs
                ..FaultConfig::default()
            })),
            ..serve_config(transport)
        };
        let server = Server::new(config).unwrap();
        let mut handle = server.spawn_tcp("127.0.0.1:0").unwrap();
        // The reconnecting client absorbs each `internal` (reconnect +
        // replay), so 48 counts with a ~25% panic rate guarantee far
        // more unwinds than workers — without respawn the pool is dead
        // after 2.
        let mut client = Client::new(
            handle.addr().to_string(),
            ClientConfig {
                max_attempts: 64,
                backoff_base: Duration::from_millis(1),
                backoff_cap: Duration::from_millis(10),
                ..ClientConfig::default()
            },
        );
        client
            .prepare(
                "job",
                lsc_core::serve::protocol::InstanceSpec::Regex {
                    pattern: "(0|1)*11".to_string(),
                    alphabet: None,
                },
                6,
            )
            .unwrap();
        for _ in 0..48 {
            let count = client.count("job").expect("pool must keep serving");
            assert_eq!(
                count.get("estimate").and_then(Json::as_str),
                Some("16"),
                "{transport:?}"
            );
        }
        // The reply reaches the client from inside the unwind, so the
        // final panicking worker may still be between its two counter
        // bumps (`panicked` first, then the respawn) — wait for the
        // counters to settle before asserting the invariant.
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        let mut stats = server.stats().pool;
        while stats.respawned < stats.panicked && std::time::Instant::now() < deadline {
            std::thread::yield_now();
            stats = server.stats().pool;
        }
        assert!(
            stats.panicked > 2,
            "{transport:?}: panic rate never exceeded the worker count (panicked={})",
            stats.panicked
        );
        assert_eq!(
            stats.respawned, stats.panicked,
            "{transport:?}: some unwound worker was never replaced"
        );
        client.bye();
        handle.shutdown();
        server.shutdown();
    }
}

#[test]
fn slow_reader_draining_a_backpressured_response_is_not_reaped() {
    // The sweep_idle regression pin: a reader draining a response much
    // larger than the socket buffers, pausing between chunks, keeps the
    // server's write buffer backpressured for several read-timeout
    // windows while the connection holds no inflight job. The old event
    // loop saw that as idle (`last_activity` only bumped on reads and
    // completions) and reaped the connection mid-drain, truncating the
    // frame; partial writes now count as peer progress. The threaded
    // transport blocks in `write` for the same window, so both
    // transports must deliver the complete newline-terminated frame.
    for transport in transports() {
        let config = ServeConfig {
            read_timeout: Some(Duration::from_millis(400)),
            max_batch: 2_000_000,
            ..serve_config(transport)
        };
        let server = Server::new(config).unwrap();
        let mut handle = server.spawn_tcp("127.0.0.1:0").unwrap();

        let stream = TcpStream::connect(handle.addr()).expect("connect");
        stream
            .set_read_timeout(Some(Duration::from_secs(60)))
            .unwrap();
        let mut writer = stream.try_clone().expect("clone");
        let mut reader = BufReader::with_capacity(256 << 10, stream);
        let send = |writer: &mut TcpStream, line: &str| {
            writer.write_all(line.as_bytes()).expect("send");
            writer.write_all(b"\n").expect("send newline");
            writer.flush().expect("flush");
        };
        let recv_line = |reader: &mut BufReader<TcpStream>| {
            let mut line = String::new();
            reader.read_line(&mut line).expect("read response");
            line
        };
        send(
            &mut writer,
            r#"{"op":"prepare","regex":"(0|1)*","length":20}"#,
        );
        let session = str_field(&recv_line(&mut reader), "session");

        // One ~23 MiB page (2^20 binary words): far past loopback socket
        // buffering, so the server stays backpressured while we drain.
        send(
            &mut writer,
            &format!(r#"{{"op":"enumerate","session":"{session}","page_size":1048576}}"#),
        );
        let started = Instant::now();
        let mut response: Vec<u8> = Vec::new();
        loop {
            let chunk = reader.fill_buf().expect("mid-drain read");
            assert!(
                !chunk.is_empty(),
                "{transport:?}: server closed the connection mid-drain \
                 after {:?} ({} bytes received)",
                started.elapsed(),
                response.len()
            );
            let upto = chunk
                .iter()
                .position(|&b| b == b'\n')
                .map_or(chunk.len(), |i| i + 1);
            response.extend_from_slice(&chunk[..upto]);
            reader.consume(upto);
            if response.ends_with(b"\n") {
                break;
            }
            // The slow reader: every pause is shorter than the server's
            // read timeout, but the full drain spans several of them.
            std::thread::sleep(Duration::from_millis(20));
        }
        assert!(
            started.elapsed() > Duration::from_millis(800),
            "drain finished too fast to span a 400ms timeout window — \
             grow the page so the pin still bites"
        );
        assert!(
            response.len() > 20 << 20,
            "unexpectedly small page: {} bytes",
            response.len()
        );
        assert!(response.starts_with(b"{\"ok\":true"));

        // Only the event loop keeps the connection for a next request:
        // the threaded transport's socket read timeout has been ticking
        // since its blocking write returned, which is documented
        // idle-peer reaping, not the mid-drain bug.
        if transport == Transport::EventLoop {
            send(&mut writer, r#"{"op":"health"}"#);
            let health = recv_line(&mut reader);
            assert!(
                health.contains("\"ok\":true"),
                "{transport:?}: connection dead right after a slow drain: {health}"
            );
        }
        handle.shutdown();
        server.shutdown();
    }
}

/// Env-tunable knob with a default (smoke runs stay small; CI and real
/// hosts scale up: `LSC_SCALE_CONNS=512 cargo test`, 10k documented in
/// DESIGN.md).
fn env_knob(name: &str, default: usize) -> usize {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

#[test]
fn idle_connection_herds_do_not_regress_the_hot_path() {
    // The scaling contract: N mostly-idle connections must not regress
    // the RTT of an active one. Here N defaults to 128 (smoke-sized for
    // shared runners; `LSC_SCALE_CONNS=512` in CI) and the assertion is
    // deliberately loose — bench E20 measures the same shape with real
    // statistics and a 25% gate against the threaded transport.
    let conns = env_knob("LSC_SCALE_CONNS", 128);
    let warm = env_knob("LSC_SCALE_WARM", 32);
    let mut medians = Vec::new();
    for transport in transports() {
        let (server, mut handle) = spawn(transport);
        let addr = handle.addr();
        // The herd: connected, hello'd once, then silent.
        let mut herd: Vec<Wire> = (0..conns)
            .map(|_| {
                let mut wire = Wire::connect(addr);
                wire.rpc(r#"{"op":"hello","proto":1}"#);
                wire
            })
            .collect();
        // The hot path: one session, `count` round trips (cache-hot).
        let mut hot = Wire::connect(addr);
        let prepared = hot.rpc(r#"{"op":"prepare","regex":"(0|1)*11","length":8}"#);
        let session = str_field(&prepared, "session");
        let count_line = format!(r#"{{"op":"count","session":"{session}"}}"#);
        hot.rpc(&count_line); // warm the instance + route
        let mut rtts: Vec<Duration> = (0..warm)
            .map(|_| {
                let start = Instant::now();
                let response = hot.rpc(&count_line);
                assert!(response.contains(r#""ok":true"#));
                start.elapsed()
            })
            .collect();
        rtts.sort();
        let median = rtts[rtts.len() / 2];
        medians.push((transport, median));
        herd.drain(..).for_each(drop);
        handle.shutdown();
        server.shutdown();
    }
    eprintln!("warm-count RTT medians under {conns} idle conns: {medians:?}");
    if medians.len() == 2 {
        let threaded = medians[0].1;
        let event_loop = medians[1].1;
        // Loose smoke bound: same order of magnitude, with an absolute
        // floor so microsecond-scale jitter cannot flake the test.
        let bound = (threaded * 4).max(Duration::from_millis(5));
        assert!(
            event_loop <= bound,
            "event loop warm RTT {event_loop:?} vs threaded {threaded:?} (bound {bound:?})"
        );
    }
}
