//! The readiness-based TCP transport: one event loop, every connection.
//!
//! Where the threaded transport spends a blocking reader thread per
//! accepted socket, this module parks *all* of them behind one epoll
//! instance (via the vendored [`lsc_reactor`] poller) and a single loop
//! thread:
//!
//! * **Accept** — the nonblocking listener accepts until `WouldBlock`;
//!   each socket is set nonblocking and registered read-only under a
//!   fresh token.
//! * **Read** — a readability event drains the socket into the
//!   connection's read buffer and parses *every* complete JSON line out
//!   of it: a client that pipelines eight requests in one syscall gets
//!   all eight parsed off one wakeup and queued on the connection.
//! * **Execute** — parsed lines feed the same shared [`WorkerPool`] the
//!   threaded transport uses, **one in-flight job per connection**: a
//!   session is checked out of the registry while a request runs, and
//!   live cursors advance statefully, so per-connection serial execution
//!   is what makes responses bit-identical to the threaded transport
//!   (which enforces the same thing by blocking its reader thread).
//!   Pipelining overlaps *connections*, parsing, and socket I/O — not
//!   requests within one connection.
//! * **Complete** — workers push `(token, reply)` onto a shared
//!   completion queue and nudge the loop through a wake pipe
//!   ([`lsc_reactor::Waker`]); the loop appends replies to the
//!   connection's write buffer strictly in request order and submits the
//!   next queued line.
//! * **Write** — buffered responses flush until `WouldBlock`; only a
//!   backpressured connection registers write interest, and it drops it
//!   again once drained (level-triggered epoll would otherwise wake on
//!   every tick). Responses that complete while the socket is clogged
//!   coalesce into one buffer and usually one syscall.
//!
//! **Ordering guarantee.** Responses on one connection come back in
//! request order, always: lines are parsed in wire order into a FIFO,
//! executed one at a time, and appended to the write buffer as each
//! completes. A refusal (`overloaded`, shutdown) is appended at its
//! request's position the moment the submit is refused — exactly where
//! the threaded transport would write it.
//!
//! **Fault injection.** All socket I/O flows through [`FaultyStream`]
//! routed at the readiness sites ([`FaultSite::EventRead`] /
//! [`FaultSite::EventWrite`]), so the chaos suite drives partial reads,
//! partial writes, and mid-frame resets through the nonblocking paths
//! with the same seeded determinism as the blocking ones.
//!
//! **Buffer ownership.** Each connection owns exactly one read buffer
//! (unparsed bytes), one write buffer plus flush offset, and its pending
//! FIFO; nothing is shared with the loop or other connections, so an
//! event never touches memory racing with a worker. The only cross-thread
//! state is the completion queue (mutex-guarded, swapped out wholesale)
//! and the wake pipe.

use std::collections::{HashMap, VecDeque};
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use lsc_reactor::{Event, Interest, Poller, Token, Waker};

use crate::serve::conn::{Reply, TcpServerHandle, MAX_LINE_BYTES};
use crate::serve::faults::{FaultPlan, FaultSite, FaultyStream};
use crate::serve::server::ServerInner;

/// Registration token of the accept listener.
const LISTENER: usize = 0;
/// Registration token of the wake pipe.
const WAKER: usize = 1;
/// First connection token (monotonic from here; tokens are never reused,
/// so a late completion can never alias a newer connection).
const FIRST_CONN: usize = 2;

/// Sweep cadence for idle-connection reaping.
const SWEEP_EVERY: Duration = Duration::from_millis(500);

/// How long one `epoll_wait` may park (bounds shutdown + sweep latency).
const WAIT_TICK: Duration = Duration::from_millis(200);

/// One finished request: which connection, and what to write.
struct Completion {
    token: usize,
    reply: Reply,
}

/// Per-connection state. See the module docs for the ownership story.
struct Conn {
    /// The nonblocking socket behind the readiness fault sites.
    stream: FaultyStream<TcpStream>,
    /// The server-wide connection id (session registry key).
    id: u64,
    /// Bytes read but not yet parsed into lines.
    rbuf: Vec<u8>,
    /// Response bytes not yet flushed; `woff` is how far the flush got.
    wbuf: Vec<u8>,
    woff: usize,
    /// Parsed lines waiting their turn (FIFO — wire order), with the
    /// instant each was parsed (its queue-deadline clock starts there).
    pending: VecDeque<(String, Instant)>,
    /// One job at a time per connection (the serialization invariant).
    inflight: bool,
    /// What the poller currently watches for this socket.
    interest: Interest,
    /// Last read/completion activity, for idle reaping.
    last_activity: Instant,
    /// Peer sent EOF: drain what's queued, then close.
    read_closed: bool,
    /// A `bye` (or shutdown refusal) was answered: flush, then close,
    /// ignoring any further pipelined input — the threaded transport
    /// stops reading after `bye` too.
    closing: bool,
}

/// Spawns the event-loop transport for `inner` on `addr`.
///
/// # Errors
/// Propagates bind/poller-setup failures; hosts without epoll fail with
/// `Unsupported` (probe first via `Transport::event_loop_supported`).
pub(crate) fn spawn(inner: Arc<ServerInner>, addr: &str) -> std::io::Result<TcpServerHandle> {
    // lsc-analyze: allow(unrouted-io) reason="one-time listener setup before any connection exists; per-connection I/O flows through FaultyStream at the EventRead/EventWrite sites"
    let listener = TcpListener::bind(addr)?;
    listener.set_nonblocking(true)?;
    let local = listener.local_addr()?;
    let poller = Poller::new()?;
    let waker = Arc::new(Waker::new()?);
    poller.register(&listener, Token(LISTENER), Interest::READABLE)?;
    poller.register(&*waker, Token(WAKER), Interest::READABLE)?;
    let stop = Arc::new(AtomicBool::new(false));
    let event_loop = EventLoop {
        inner,
        listener,
        poller,
        waker: waker.clone(),
        stop: stop.clone(),
        completions: Arc::new(Mutex::new(Vec::new())),
        conns: HashMap::new(),
        next_token: FIRST_CONN,
    };
    let thread = std::thread::Builder::new()
        .name("lsc-serve-epoll".to_string())
        .spawn(move || event_loop.run())
        .expect("spawn event loop thread");
    Ok(TcpServerHandle::for_event_loop(local, stop, waker, thread))
}

struct EventLoop {
    inner: Arc<ServerInner>,
    listener: TcpListener,
    poller: Poller,
    waker: Arc<Waker>,
    stop: Arc<AtomicBool>,
    /// Finished requests, pushed by worker threads, swapped out wholesale
    /// by the loop after each wake.
    completions: Arc<Mutex<Vec<Completion>>>,
    conns: HashMap<usize, Conn>,
    next_token: usize,
}

impl EventLoop {
    fn run(mut self) {
        let mut events: Vec<Event> = Vec::new();
        let mut last_sweep = Instant::now();
        loop {
            if self.poller.wait(&mut events, Some(WAIT_TICK)).is_err() {
                // Transient epoll failure: re-check stop and try again
                // rather than silently wedging every connection.
                if self.stop.load(Ordering::Acquire) {
                    break;
                }
                continue;
            }
            if self.stop.load(Ordering::Acquire) {
                break;
            }
            for ev in events.drain(..) {
                match ev.token.0 {
                    LISTENER => self.accept_ready(),
                    WAKER => self.waker.drain(),
                    token => {
                        if ev.readable || ev.closed {
                            self.read_ready(token);
                        }
                        if ev.writable {
                            self.pump(token);
                        }
                    }
                }
            }
            self.deliver_completions();
            if last_sweep.elapsed() >= SWEEP_EVERY {
                self.sweep_idle();
                last_sweep = Instant::now();
            }
        }
        // Shutdown: close every socket (waking blocked peers with EOF) and
        // drop their sessions — resume tokens survive for reconnects.
        let tokens: Vec<usize> = self.conns.keys().copied().collect();
        for token in tokens {
            self.close_conn(token, false);
        }
    }

    /// Accepts until `WouldBlock`, registering each socket read-only.
    fn accept_ready(&mut self) {
        loop {
            match self.listener.accept() {
                Ok((stream, _peer)) => {
                    let id = self.inner.begin_conn();
                    if stream.set_nonblocking(true).is_err() {
                        self.inner.note_reset();
                        self.inner.end_conn(id);
                        continue;
                    }
                    // One full frame per flush: Nagle + delayed ACK would
                    // stall small response lines otherwise.
                    let _ = stream.set_nodelay(true);
                    let token = self.next_token;
                    if self
                        .poller
                        .register(&stream, Token(token), Interest::READABLE)
                        .is_err()
                    {
                        self.inner.note_reset();
                        self.inner.end_conn(id);
                        continue;
                    }
                    self.next_token += 1;
                    let plan: Option<Arc<FaultPlan>> = self.inner.faults();
                    self.conns.insert(
                        token,
                        Conn {
                            stream: FaultyStream::with_sites(
                                stream,
                                plan,
                                FaultSite::EventRead,
                                FaultSite::EventWrite,
                            ),
                            id,
                            rbuf: Vec::new(),
                            wbuf: Vec::new(),
                            woff: 0,
                            pending: VecDeque::new(),
                            inflight: false,
                            interest: Interest::READABLE,
                            last_activity: Instant::now(),
                            read_closed: false,
                            closing: false,
                        },
                    );
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                // Transient accept errors (peer already reset, fd
                // pressure): drop this wakeup, epoll will re-arm.
                Err(_) => break,
            }
        }
    }

    /// Drains the socket, parses every complete line, and pumps.
    fn read_ready(&mut self, token: usize) {
        let Some(conn) = self.conns.get_mut(&token) else {
            return;
        };
        conn.last_activity = Instant::now();
        let mut chunk = [0u8; 4096];
        loop {
            match conn.stream.read(&mut chunk) {
                Ok(0) => {
                    conn.read_closed = true;
                    break;
                }
                Ok(n) => {
                    conn.rbuf.extend_from_slice(&chunk[..n]);
                    // A runaway frame past the shared line cap: dirty
                    // close, no reply, as the blocking loop does.
                    if conn.rbuf.len() > MAX_LINE_BYTES {
                        self.close_conn(token, true);
                        return;
                    }
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                // Peer reset or an injected EventRead fault: dirty close,
                // every other connection unaffected.
                Err(_) => {
                    self.close_conn(token, true);
                    return;
                }
            }
        }
        if !self.parse_lines(token) {
            return;
        }
        self.pump(token);
    }

    /// Splits `rbuf` into complete lines and queues them. Mirrors
    /// `BufRead::lines` framing: `\n` terminates, a trailing `\r` is
    /// stripped, EOF flushes a final unterminated line, and invalid UTF-8
    /// is an error (dirty close). Returns false when the connection died.
    fn parse_lines(&mut self, token: usize) -> bool {
        let Some(conn) = self.conns.get_mut(&token) else {
            return false;
        };
        let now = Instant::now();
        let mut start = 0usize;
        while let Some(pos) = conn.rbuf[start..].iter().position(|&b| b == b'\n') {
            let end = start + pos;
            let mut line_bytes = &conn.rbuf[start..end];
            if line_bytes.last() == Some(&b'\r') {
                line_bytes = &line_bytes[..line_bytes.len() - 1];
            }
            let Ok(line) = std::str::from_utf8(line_bytes) else {
                self.close_conn(token, true);
                return false;
            };
            // `closing` drops any input pipelined after a `bye`, exactly
            // like the threaded loop that stopped reading.
            if !line.trim().is_empty() && !conn.closing {
                conn.pending.push_back((line.to_string(), now));
            }
            start = end + 1;
        }
        conn.rbuf.drain(..start);
        if conn.read_closed && !conn.rbuf.is_empty() {
            // EOF with a final unterminated line: serve it (threaded
            // `lines()` yields it too).
            let mut tail = std::mem::take(&mut conn.rbuf);
            if tail.last() == Some(&b'\r') {
                tail.pop();
            }
            let Ok(line) = String::from_utf8(tail) else {
                self.close_conn(token, true);
                return false;
            };
            if !line.trim().is_empty() && !conn.closing {
                conn.pending.push_back((line, now));
            }
        }
        if conn.rbuf.is_empty() && conn.rbuf.capacity() > (64 << 10) {
            conn.rbuf.shrink_to(4096);
        }
        true
    }

    /// Advances a connection: submit queued lines (one in flight at a
    /// time), flush buffered responses, update interest, close if done.
    fn pump(&mut self, token: usize) {
        self.submit_next(token);
        self.flush_conn(token);
    }

    /// Submits the head of the pending FIFO unless a job is already in
    /// flight. Refusals (`overloaded`, shutdown) are answered inline at
    /// their request's position and the loop tries the next line.
    fn submit_next(&mut self, token: usize) {
        loop {
            let Some(conn) = self.conns.get_mut(&token) else {
                return;
            };
            if conn.inflight || conn.closing {
                return;
            }
            let Some((line, parsed_at)) = conn.pending.pop_front() else {
                return;
            };
            let completions = self.completions.clone();
            let waker = self.waker.clone();
            let done = Box::new(move |reply: Reply| {
                {
                    let mut queue = completions.lock().expect("completion queue poisoned");
                    queue.push(Completion { token, reply });
                }
                waker.wake();
            });
            match self
                .inner
                .submit_async(conn.id, line, parsed_at.elapsed(), done)
            {
                Ok(()) => {
                    conn.inflight = true;
                    return;
                }
                Err(refusal) => {
                    push_reply(conn, &refusal);
                    // A shutdown refusal closes; otherwise keep answering
                    // the rest of the batch (each refusal consumes one
                    // pending line, so this terminates).
                    if conn.closing {
                        return;
                    }
                }
            }
        }
    }

    /// Swaps out the completion queue and applies each reply: clear the
    /// in-flight flag, append the response in order, submit the next line.
    fn deliver_completions(&mut self) {
        let batch: Vec<Completion> = {
            let mut queue = self.completions.lock().expect("completion queue poisoned");
            std::mem::take(&mut *queue)
        };
        let mut touched: Vec<usize> = Vec::with_capacity(batch.len());
        for completion in batch {
            // A connection that died while its job ran: the reply has
            // nowhere to go (the threaded transport's write would have
            // failed the same way).
            let Some(conn) = self.conns.get_mut(&completion.token) else {
                continue;
            };
            conn.inflight = false;
            conn.last_activity = Instant::now();
            push_reply(conn, &completion.reply);
            touched.push(completion.token);
        }
        for token in touched {
            self.pump(token);
        }
    }

    /// Flushes the write buffer until done or `WouldBlock`, keeps write
    /// interest only while backpressured, and closes drained connections
    /// that have nothing left to do.
    fn flush_conn(&mut self, token: usize) {
        let Some(conn) = self.conns.get_mut(&token) else {
            return;
        };
        while conn.woff < conn.wbuf.len() {
            match conn.stream.write(&conn.wbuf[conn.woff..]) {
                Ok(0) => {
                    self.close_conn(token, true);
                    return;
                }
                Ok(n) => {
                    conn.woff += n;
                    // A partial write is peer progress: a slow reader
                    // draining a large response must not look idle to
                    // `sweep_idle` while it is still consuming bytes.
                    conn.last_activity = Instant::now();
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                // Peer reset or an injected EventWrite fault (a mid-frame
                // tear pushed half the response; the peer sees a torn
                // frame, like the threaded transport's injected resets).
                Err(_) => {
                    self.close_conn(token, true);
                    return;
                }
            }
        }
        if conn.woff >= conn.wbuf.len() {
            conn.wbuf.clear();
            conn.woff = 0;
            if conn.wbuf.capacity() > (64 << 10) {
                conn.wbuf.shrink_to(4096);
            }
        }
        let backpressured = !conn.wbuf.is_empty();
        let idle = !backpressured && !conn.inflight && conn.pending.is_empty();
        if idle && (conn.closing || conn.read_closed) {
            // Clean exit: flushed, nothing queued, peer gone or `bye`d.
            self.close_conn(token, false);
            return;
        }
        let desired = Interest {
            // After `bye` (or EOF) there is nothing left to read.
            readable: !conn.closing && !conn.read_closed,
            writable: backpressured,
        };
        if desired != conn.interest
            && self
                .poller
                .reregister(conn.stream.get_ref(), Token(token), desired)
                .is_ok()
        {
            conn.interest = desired;
        }
    }

    /// Reaps connections idle past the configured read timeout — the
    /// event-loop analogue of the threaded transport's socket read
    /// timeout (idle-peer reap; sessions drop, resume tokens survive).
    fn sweep_idle(&mut self) {
        let Some(timeout) = self.inner.read_timeout() else {
            return;
        };
        let dead: Vec<usize> = self
            .conns
            .iter()
            .filter(|(_, conn)| {
                // Pipelined lines not yet submitted count as activity the
                // server owes, and partial writes bump `last_activity`, so
                // a slow reader draining a backpressured `wbuf` is never
                // reaped mid-drain — only a peer making *no* progress for
                // a full timeout window is.
                !conn.inflight && conn.pending.is_empty() && conn.last_activity.elapsed() > timeout
            })
            .map(|(&token, _)| token)
            .collect();
        for token in dead {
            self.close_conn(token, true);
        }
    }

    /// Removes a connection: deregister, drop its sessions, count dirty
    /// exits as survived resets.
    fn close_conn(&mut self, token: usize, dirty: bool) {
        if let Some(conn) = self.conns.remove(&token) {
            let _ = self.poller.deregister(conn.stream.get_ref());
            if dirty {
                self.inner.note_reset();
            }
            self.inner.end_conn(conn.id);
        }
    }
}

/// Appends one response line to the write buffer (in completion order ==
/// request order, per the serialization invariant) and latches `closing`
/// after a `bye`/shutdown reply, dropping any input queued behind it.
fn push_reply(conn: &mut Conn, reply: &Reply) {
    conn.wbuf.extend_from_slice(reply.text.as_bytes());
    conn.wbuf.push(b'\n');
    if reply.close {
        conn.closing = true;
        conn.pending.clear();
    }
}
