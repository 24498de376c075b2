//! The concurrent request server: transports, dispatch, and overload
//! behavior.
//!
//! A [`Server`] owns one [`ShardedEngine`] (N independent prepared-instance
//! caches behind a consistent-hash shard map — see
//! [`crate::engine::ShardedEngine`]), a [`SessionRegistry`], a bounded
//! [`WorkerPool`], and — optionally — a [`SnapshotStore`] it warms the
//! shard fleet from at startup and persists compiled artifacts into as
//! queries materialize them. Transports are
//! thin: the threaded TCP transport ([`Server::spawn_tcp`]) and the stdio
//! transport ([`Server::serve_stdio`]) both run the shared blocking line
//! loop of `conn.rs`, answering each line through the pool
//! ([`Server::submit_and_wait`]); every byte of protocol behavior lives
//! in [`Server::handle_line`], which is also the direct (transport-free)
//! entry the tests and benches drive.
//!
//! **Concurrency model.** Responses on one connection come back in
//! request order (the connection thread waits for each reply before
//! reading the next line); connections proceed in parallel up to the
//! pool's worker count; everything behind the pool — shard fleet,
//! session registry, snapshot store — is shared and thread-safe. Query
//! answers are bit-identical to direct single-threaded
//! [`Engine`](crate::engine::Engine) calls with the same configuration,
//! at any shard count: the server adds routing and bookkeeping around the
//! engines, never its own randomness.

use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::time::Duration;

use crate::engine::{
    CountRoute, EngineConfig, EngineStats, PreparedInstance, QueryError, ResumeToken,
    ShardedConfig, ShardedEngine, SnapshotStore, SweepReport, WarmReport,
};
use crate::serve::conn::{serve_lines, spawn_acceptor, Reply, TcpServerHandle};
use crate::serve::faults::{Fault, FaultPlan, FaultSite};
use crate::serve::json::Json;
use crate::serve::pool::{PoolStats, SubmitError, WorkerPool};
use crate::serve::protocol::{
    error_response, parse_request, respond, ErrorCode, InstanceSpec, Request, WireError,
};
use crate::serve::session::{Session, SessionRegistry};

/// Which accept-path implementation [`Server::spawn_tcp`] drives. Both
/// transports funnel every request line through the same worker pool and
/// [`Server::handle_line`] core, so responses are bit-identical between
/// them (pinned by `tests/transport_conformance.rs`).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum Transport {
    /// One blocking reader thread per accepted connection (the default):
    /// simple, portable, and fine up to a few hundred connections.
    #[default]
    Threaded,
    /// One readiness-driven event loop (epoll via `lsc-reactor`) owning
    /// every accepted socket: nonblocking reads parse pipelined request
    /// batches, responses write-coalesce in request order, and tens of
    /// thousands of mostly-idle connections cost buffers instead of
    /// threads. Linux-only; probe with
    /// [`Transport::event_loop_supported`].
    EventLoop,
}

impl Transport {
    /// Whether the event-loop transport has a working poller backend on
    /// this host (Linux epoll). When false, `spawn_tcp` under
    /// [`Transport::EventLoop`] fails with `Unsupported` — callers fall
    /// back to [`Transport::Threaded`] or skip.
    pub fn event_loop_supported() -> bool {
        lsc_reactor::supported()
    }

    /// The CLI/config spelling (`"threaded"` / `"event-loop"`).
    pub fn parse(text: &str) -> Option<Transport> {
        match text {
            "threaded" => Some(Transport::Threaded),
            "event-loop" | "event_loop" => Some(Transport::EventLoop),
            _ => None,
        }
    }
}

/// Page size for `enumerate` requests that do not specify one, on the wire
/// and on the command line.
pub const DEFAULT_PAGE_SIZE: usize = 100;

/// Server tuning knobs.
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// The engine configuration (cache cap, router, seed policy). The byte
    /// cap is the fleet-wide total — it is divided across shards.
    pub engine: EngineConfig,
    /// Instance-cache shards (consistent-hash routed, so cache resolution
    /// scales with cores); `0` means one per hardware thread.
    pub shards: usize,
    /// Worker threads executing requests.
    pub workers: usize,
    /// Bounded request-queue depth; submits beyond it are rejected with
    /// `overloaded` + `retry_after_ms` (admission control).
    pub queue_depth: usize,
    /// Per-request deadline: a request still queued past this long is
    /// answered `deadline-exceeded` instead of executed.
    pub deadline: Duration,
    /// The `retry_after_ms` hint sent with `overloaded` rejections.
    pub retry_after: Duration,
    /// Idle TTL for sessions; an untouched session is evicted and answers
    /// `unknown-session` afterwards.
    pub session_ttl: Duration,
    /// Snapshot directory: warm the engine cache from it at startup,
    /// persist compiled instances into it as queries run. `None` disables
    /// persistence.
    pub snapshot_dir: Option<PathBuf>,
    /// Alphabet for `prepare` ops that send a regex without one.
    pub default_alphabet: String,
    /// Upper bound on wire-supplied `page_size` and sample `count` —
    /// deadlines only cover queue time, so this is what stops one request
    /// from pinning a worker (and buffering unbounded witnesses)
    /// indefinitely. Requests beyond it are rejected `bad-request`.
    pub max_batch: usize,
    /// Read timeout on accepted sockets: a peer silent for this long is
    /// reaped (connection closed, sessions dropped at disconnect) instead
    /// of pinning a connection thread forever. `None` waits indefinitely
    /// (the pre-hardening behavior). Resume tokens survive the reap — a
    /// reaped client reconnects and continues its cursors.
    pub read_timeout: Option<Duration>,
    /// Write timeout on accepted sockets: a peer that stops draining its
    /// socket (slow-loris reads) fails the write and is reaped, instead
    /// of blocking a connection thread on a full kernel buffer.
    pub write_timeout: Option<Duration>,
    /// Deterministic fault injection ([`FaultPlan`]) threaded through the
    /// connection streams, the snapshot store, and the worker jobs.
    /// `None` — the production configuration — compiles to passthrough
    /// I/O (one pointer-null branch per operation).
    pub faults: Option<Arc<FaultPlan>>,
    /// Which TCP accept-path implementation `spawn_tcp` uses. The stdio
    /// transport and the transport-free test entry points are unaffected.
    pub transport: Transport,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            engine: EngineConfig::default(),
            shards: 0,
            workers: 4,
            queue_depth: 64,
            deadline: Duration::from_secs(30),
            retry_after: Duration::from_millis(50),
            session_ttl: Duration::from_secs(300),
            snapshot_dir: None,
            default_alphabet: "01".to_string(),
            max_batch: 100_000,
            read_timeout: Some(Duration::from_secs(300)),
            write_timeout: Some(Duration::from_secs(30)),
            faults: None,
            transport: Transport::default(),
        }
    }
}

/// A snapshot of every server-side counter, returned by [`Server::stats`]
/// and serialized by the `stats` op.
#[derive(Clone, Debug, Default)]
pub struct ServeStats {
    /// Requests answered (any outcome except pool rejection/expiry).
    pub requests: u64,
    /// Connections accepted so far.
    pub connections: u64,
    /// Open sessions.
    pub sessions_open: usize,
    /// Sessions evicted by the idle TTL.
    pub sessions_evicted: u64,
    /// Snapshots restored at startup.
    pub snapshots_loaded: usize,
    /// Snapshot files rejected as corrupt at startup.
    pub snapshots_rejected: usize,
    /// Snapshots written since startup.
    pub snapshots_saved: u64,
    /// Corrupt snapshot files quarantined by the startup sweep
    /// (`*.snap.quarantined.N` — out of the serving path, kept on disk,
    /// numbered so repeated corruptions keep every artifact).
    pub snapshots_quarantined: usize,
    /// Stale snapshot temp files reaped by the startup sweep (debris of
    /// writers that crashed mid-save).
    pub snapshot_tmp_swept: usize,
    /// Connections that ended on an I/O error (peer reset, torn frame,
    /// socket timeout) rather than a clean EOF/`bye` — each one is a
    /// fault the server absorbed without affecting any other connection.
    pub resets_survived: u64,
    /// `overloaded` rejections issued with a `retry_after_ms` hint (the
    /// server-side view of the client retry contract).
    pub retries: u64,
    /// Worker-pool counters (admission control and deadlines).
    pub pool: PoolStats,
    /// Engine cache counters, aggregated over the shard fleet.
    pub engine: EngineStats,
    /// Per-shard cache counters `(shard id, counters)`; the per-field sums
    /// equal [`ServeStats::engine`].
    pub shards: Vec<(usize, EngineStats)>,
}

pub(crate) struct ServerInner {
    config: ServeConfig,
    engine: ShardedEngine,
    sessions: SessionRegistry,
    pool: WorkerPool,
    snapshots: Option<SnapshotStore>,
    /// Which snapshot parts have been persisted per fingerprint (a bitmask
    /// of materialized artifacts), so the post-query save hook only
    /// re-encodes when something new materialized.
    snapshot_masks: Mutex<HashMap<u64, u8>>,
    warm: WarmReport,
    sweep: SweepReport,
    next_conn: AtomicU64,
    connections: AtomicU64,
    requests: AtomicU64,
    snapshots_saved: AtomicU64,
    resets_survived: AtomicU64,
    retries_hinted: AtomicU64,
}

/// The serving façade over one engine. See the module docs; construction
/// is [`Server::new`], transports are [`Server::spawn_tcp`] and
/// [`Server::serve_stdio`], and [`Server::handle_line`] is the
/// transport-free core.
pub struct Server {
    inner: Arc<ServerInner>,
}

impl Server {
    /// Builds a server: constructs the engine, opens the snapshot store
    /// (if configured) and warms the cache from it, and spawns the worker
    /// pool.
    ///
    /// # Errors
    /// Propagates snapshot-directory creation failures.
    pub fn new(config: ServeConfig) -> std::io::Result<Server> {
        let engine = ShardedEngine::new(ShardedConfig {
            engine: config.engine,
            shards: config.shards,
        });
        let snapshots = match &config.snapshot_dir {
            Some(dir) => Some(SnapshotStore::open_with_faults(dir, config.faults.clone())?),
            None => None,
        };
        let sweep = snapshots
            .as_ref()
            .map(|store| store.sweep_report())
            .unwrap_or_default();
        let warm = snapshots
            .as_ref()
            .map(|store| store.warm_sharded(&engine))
            .unwrap_or_default();
        let pool = WorkerPool::new(config.workers, config.queue_depth);
        let sessions = SessionRegistry::new(config.session_ttl);
        Ok(Server {
            inner: Arc::new(ServerInner {
                config,
                engine,
                sessions,
                pool,
                snapshots,
                snapshot_masks: Mutex::new(HashMap::new()),
                warm,
                sweep,
                next_conn: AtomicU64::new(1),
                connections: AtomicU64::new(0),
                requests: AtomicU64::new(0),
                snapshots_saved: AtomicU64::new(0),
                resets_survived: AtomicU64::new(0),
                retries_hinted: AtomicU64::new(0),
            }),
        })
    }

    /// The shared sharded engine (the tests compare server responses
    /// against direct calls on an identically configured single engine, and
    /// inspect shard residency).
    pub fn engine(&self) -> &ShardedEngine {
        &self.inner.engine
    }

    /// What the startup warm pass restored from the snapshot store.
    pub fn warm_report(&self) -> WarmReport {
        self.inner.warm
    }

    /// Current counters.
    pub fn stats(&self) -> ServeStats {
        self.inner.stats()
    }

    /// Allocates a fresh connection id for a transport-free client (tests,
    /// benches, the stdio loop).
    pub fn open_conn(&self) -> u64 {
        self.inner.begin_conn()
    }

    /// Drops every session a connection owns (the disconnect hook for
    /// transport-free clients).
    pub fn close_conn(&self, conn: u64) {
        self.inner.end_conn(conn);
    }

    /// Parses and executes one request line *directly* on the calling
    /// thread — the transport-free core every transport funnels into.
    /// Admission control and deadlines live in front of this (see
    /// [`Server::submit_and_wait`]); bit-for-bit, the response is the same
    /// either way.
    pub fn handle_line(&self, conn: u64, line: &str) -> Reply {
        self.inner.handle_line(conn, line)
    }

    /// Pushes one request line through the worker pool and waits for its
    /// response: the path the blocking transports use. Overload and
    /// deadline outcomes surface here as `overloaded` (with
    /// `retry_after_ms`) and `deadline-exceeded` responses.
    pub fn submit_and_wait(&self, conn: u64, line: &str) -> Reply {
        self.inner.submit_and_wait(conn, line)
    }

    /// Binds a TCP listener and spawns the configured transport
    /// ([`ServeConfig::transport`]): a thread-per-connection accept loop,
    /// or the readiness-based event loop. `addr` is standard `host:port`
    /// (port 0 picks a free port — read it back from
    /// [`TcpServerHandle::addr`]).
    ///
    /// # Errors
    /// Propagates the bind failure; [`Transport::EventLoop`] on a host
    /// without epoll fails with [`std::io::ErrorKind::Unsupported`].
    pub fn spawn_tcp(&self, addr: &str) -> std::io::Result<TcpServerHandle> {
        let config = &self.inner.config;
        match config.transport {
            Transport::Threaded => {
                let inner = self.inner.clone();
                spawn_acceptor(
                    addr,
                    "lsc-serve",
                    (config.read_timeout, config.write_timeout),
                    config.faults.clone(),
                    (FaultSite::StreamRead, FaultSite::StreamWrite),
                    move |reader, writer| {
                        let conn = inner.begin_conn();
                        if serve_lines(reader, writer, |line| inner.submit_and_wait(conn, line)) {
                            // An I/O error (peer reset, injected fault,
                            // socket timeout) ended this connection; every
                            // other connection is unaffected.
                            inner.note_reset();
                        }
                        inner.end_conn(conn);
                    },
                )
            }
            Transport::EventLoop => super::event_loop::spawn(self.inner.clone(), addr),
        }
    }

    /// Serves the stdio transport: one request line per stdin line, one
    /// response line per stdout line, until EOF or `bye`. Requests flow
    /// through the same pool as TCP traffic.
    pub fn serve_stdio(&self) {
        let conn = self.open_conn();
        serve_lines(std::io::stdin().lock(), std::io::stdout().lock(), |line| {
            self.submit_and_wait(conn, line)
        });
        self.close_conn(conn);
    }

    /// Stops the worker pool (drains queued requests first). Transports
    /// should be shut down first ([`TcpServerHandle::shutdown`]).
    pub fn shutdown(&self) {
        self.inner.pool.shutdown();
    }
}

/// Exactly-once completion slot for an asynchronously submitted request.
///
/// Whichever of the job's paths runs first — `work` with the real reply,
/// `expire` with `deadline-exceeded` — takes the callback and fires it;
/// the other finds the slot empty. If *neither* ran (the job panicked
/// before completing, or the pool dropped it), the slot's own `Drop` —
/// which runs once both closures are gone — delivers a typed `internal`
/// reply, so no connection can hang on a lost job.
struct DoneSlot {
    done: Mutex<Option<DoneCallback>>,
}

/// A transport's reply hand-off, boxed once at submission.
type DoneCallback = Box<dyn FnOnce(Reply) + Send>;

impl DoneSlot {
    fn new(done: DoneCallback) -> Arc<DoneSlot> {
        Arc::new(DoneSlot {
            done: Mutex::new(Some(done)),
        })
    }

    fn fire(&self, reply: Reply) {
        // Take the callback *outside* the lock scope before invoking it:
        // the callback touches the event loop's completion queue.
        let cb = { self.done.lock().ok().and_then(|mut slot| slot.take()) };
        if let Some(cb) = cb {
            cb(reply);
        }
    }

    /// Empties the slot without firing — the admission-refusal path, where
    /// the caller delivers the refusal reply itself and the `Drop`
    /// fallback must stay quiet.
    fn defuse(&self) {
        let _cb = self.done.lock().ok().and_then(|mut slot| slot.take());
    }
}

impl Drop for DoneSlot {
    fn drop(&mut self) {
        let cb = self.done.get_mut().ok().and_then(Option::take);
        if let Some(cb) = cb {
            cb(Reply {
                text: error_response(
                    None,
                    &WireError::new(ErrorCode::Internal, "worker dropped the request"),
                ),
                close: true,
            });
        }
    }
}

impl ServerInner {
    /// Allocates a fresh connection id and counts the connection.
    pub(crate) fn begin_conn(&self) -> u64 {
        self.connections.fetch_add(1, Ordering::Relaxed);
        self.next_conn.fetch_add(1, Ordering::Relaxed)
    }

    /// Disconnect hook: drops every session the connection owns.
    pub(crate) fn end_conn(&self, conn: u64) {
        self.sessions.drop_conn(conn);
    }

    /// Counts a connection that ended on an I/O error rather than a clean
    /// EOF/`bye`.
    pub(crate) fn note_reset(&self) {
        self.resets_survived.fetch_add(1, Ordering::Relaxed);
    }

    /// The fault plan connection streams must consult.
    pub(crate) fn faults(&self) -> Option<Arc<FaultPlan>> {
        self.config.faults.clone()
    }

    /// The configured idle-peer reap timeout.
    pub(crate) fn read_timeout(&self) -> Option<Duration> {
        self.config.read_timeout
    }

    /// Submits one request line for asynchronous execution — the one pool
    /// submission every transport goes through (the event loop directly,
    /// the blocking transports via [`ServerInner::submit_and_wait`]). `done` fires
    /// exactly once, on a worker thread, with the reply (real, expired,
    /// or — via [`DoneSlot`] — `internal` if the job was lost). `waited`
    /// is how long the line already sat parsed in the connection's
    /// pipeline buffer; it comes off the queue deadline so a pipelined
    /// request's total patience matches a sequentially submitted one's.
    ///
    /// # Errors
    /// An admission-control refusal returns the reply the caller must
    /// deliver itself, in order (`overloaded` + retry hint, or the
    /// shutdown `internal`); `done` will never fire for it.
    pub(crate) fn submit_async(
        self: &Arc<Self>,
        conn: u64,
        line: String,
        waited: Duration,
        done: DoneCallback,
    ) -> Result<(), Reply> {
        let slot = DoneSlot::new(done);
        let work = {
            let inner = self.clone();
            let line = line.clone();
            move || {
                if let Some(plan) = &inner.config.faults {
                    if let Some(planned) = plan.decide(FaultSite::Job) {
                        if planned.fault == Fault::Panic {
                            // The worker unwinds (and is respawned); the
                            // DoneSlot drops with it and answers
                            // `internal` (close: true).
                            panic!("injected: queued job panic");
                        }
                    }
                }
                inner.handle_line(conn, &line)
            }
        };
        // The pool counts the job completed before this delivers its
        // reply, so a client holding the reply sees the job in `stats`.
        let deliver = {
            let slot = slot.clone();
            move |reply| slot.fire(reply)
        };
        let expire = {
            let slot = slot.clone();
            let line = line.clone();
            move || {
                let id = parse_request(&line).ok().and_then(|e| e.id);
                let error = WireError::new(
                    ErrorCode::DeadlineExceeded,
                    "request expired in queue before execution",
                );
                slot.fire(Reply {
                    text: error_response(id.as_ref(), &error),
                    close: false,
                });
            }
        };
        let deadline = self.config.deadline.saturating_sub(waited);
        match self.pool.submit_then(deadline, work, deliver, expire) {
            Ok(()) => Ok(()),
            Err(refusal) => {
                // The job never entered the queue: the refusal reply below
                // is the only answer, so the slot's Drop fallback must not
                // add an `internal` on top of it.
                slot.defuse();
                Err(match refusal {
                    SubmitError::Full => {
                        let id = parse_request(&line).ok().and_then(|e| e.id);
                        let mut error = WireError::new(
                            ErrorCode::Overloaded,
                            "request queue is full; back off and retry",
                        );
                        error.retry_after_ms = Some(self.retry_after_ms());
                        self.retries_hinted.fetch_add(1, Ordering::Relaxed);
                        Reply {
                            text: error_response(id.as_ref(), &error),
                            close: false,
                        }
                    }
                    SubmitError::Shutdown => Reply {
                        text: error_response(
                            None,
                            &WireError::new(ErrorCode::Internal, "server is shutting down"),
                        ),
                        close: true,
                    },
                })
            }
        }
    }

    fn stats(&self) -> ServeStats {
        let engine = self.engine.stats();
        ServeStats {
            requests: self.requests.load(Ordering::Relaxed),
            connections: self.connections.load(Ordering::Relaxed),
            sessions_open: self.sessions.len(),
            sessions_evicted: self.sessions.evicted(),
            snapshots_loaded: self.warm.loaded,
            snapshots_rejected: self.warm.rejected,
            snapshots_saved: self.snapshots_saved.load(Ordering::Relaxed),
            snapshots_quarantined: self.sweep.quarantined,
            snapshot_tmp_swept: self.sweep.tmp_removed,
            resets_survived: self.resets_survived.load(Ordering::Relaxed),
            retries: self.retries_hinted.load(Ordering::Relaxed),
            pool: self.pool.stats(),
            engine: engine.aggregate,
            shards: engine.per_shard,
        }
    }

    /// [`ServerInner::submit_async`] behind a one-shot channel: the
    /// blocking transports' submission path.
    fn submit_and_wait(self: &Arc<Self>, conn: u64, line: &str) -> Reply {
        // `channel`, not `sync_channel(1)`: the bounded flavour measured
        // 47% worse cold-compile enumerate p90 in perfbench (2 vCPUs).
        let (tx, rx) = mpsc::channel();
        let done = Box::new(move |reply| {
            let _ = tx.send(reply);
        });
        match self.submit_async(conn, line.to_string(), Duration::ZERO, done) {
            Ok(()) => rx.recv().expect("DoneSlot answers every admitted job"),
            Err(refusal) => refusal,
        }
    }

    /// The `retry_after_ms` hint, scaled to the current backlog: the
    /// configured base times `1 + queued/workers` (roughly "how many
    /// queue generations stand between you and a worker"), capped at
    /// 32× the base so a pathological backlog never tells clients to
    /// sleep unboundedly.
    fn retry_after_ms(&self) -> u64 {
        let base = (self.config.retry_after.as_millis() as u64).max(1);
        let workers = self.config.workers.max(1) as u64;
        let generations = 1 + self.pool.queued() as u64 / workers;
        base.saturating_mul(generations).min(base * 32)
    }

    fn handle_line(&self, conn: u64, line: &str) -> Reply {
        self.requests.fetch_add(1, Ordering::Relaxed);
        respond(line, |request| self.dispatch(conn, request))
    }

    fn dispatch(&self, conn: u64, request: Request) -> Result<Vec<(String, Json)>, WireError> {
        match request {
            Request::Hello => Ok(vec![
                ("proto".to_string(), Json::num(1.0)),
                ("server".to_string(), Json::str("nfa_tool serve")),
            ]),
            Request::Prepare { spec, length } => self.op_prepare(conn, &spec, length),
            Request::Count { session } => self.with_session(conn, &session, |s, me| {
                let (routed, cache_hit) =
                    me.engine.count_on(&s.handle).map_err(wire_query_error)?;
                me.maybe_snapshot(s.handle.instance());
                let route = match routed.route {
                    CountRoute::ExactUnambiguous => "exact-unambiguous".to_string(),
                    CountRoute::ExactDeterminized { dfa_states } => {
                        format!("exact-determinized({dfa_states})")
                    }
                    CountRoute::Fpras => "fpras".to_string(),
                };
                let mut fields = vec![
                    ("route".to_string(), Json::str(route)),
                    ("exact".to_string(), Json::Bool(routed.is_exact())),
                    (
                        "estimate".to_string(),
                        Json::str(routed.estimate.to_string()),
                    ),
                ];
                if let Some(exact) = &routed.exact {
                    fields.push(("count".to_string(), Json::str(exact.to_string())));
                }
                fields.push(("cache_hit".to_string(), Json::Bool(cache_hit)));
                Ok(fields)
            }),
            Request::CountExact { session } => self.with_session(conn, &session, |s, me| {
                let (count, cache_hit) = me
                    .engine
                    .count_exact_on(&s.handle)
                    .map_err(wire_query_error)?;
                me.maybe_snapshot(s.handle.instance());
                Ok(vec![
                    ("count".to_string(), Json::str(count.to_string())),
                    ("cache_hit".to_string(), Json::Bool(cache_hit)),
                ])
            }),
            Request::Enumerate {
                session,
                page_size,
                resume,
            } => {
                let page_size = page_size.unwrap_or(DEFAULT_PAGE_SIZE);
                self.check_batch_size("page_size", page_size)?;
                self.with_session(conn, &session, |s, me| {
                    let mut cursor = match &resume {
                        Some(text) => {
                            let token = ResumeToken::parse(text).map_err(|e| {
                                WireError::new(ErrorCode::InvalidToken, e.to_string())
                            })?;
                            me.engine.resume_cursor(&s.handle, &token).map_err(|e| {
                                WireError::new(ErrorCode::InvalidToken, e.to_string())
                            })?
                        }
                        None => match s.cursor.take() {
                            Some(cursor) => cursor,
                            None => me.engine.cursor(&s.handle),
                        },
                    };
                    // Encode the page straight off the cursor's lent buffer:
                    // no owned `Word` and no JSON value per witness.
                    let size = (page_size, s.handle.length());
                    let (words, returned) = s.words.array(size, |push| {
                        for _ in 0..page_size {
                            match cursor.advance() {
                                Some(w) => push(w),
                                None => break,
                            }
                        }
                    });
                    let fields = vec![
                        ("words".to_string(), words),
                        ("returned".to_string(), Json::num(returned as f64)),
                        ("rank".to_string(), Json::num(cursor.rank() as f64)),
                        ("done".to_string(), Json::Bool(cursor.is_done())),
                        ("token".to_string(), Json::str(cursor.token().encode())),
                    ];
                    me.engine.settle(&s.handle);
                    me.maybe_snapshot(s.handle.instance());
                    s.cursor = Some(cursor);
                    Ok(fields)
                })
            }
            Request::Sample {
                session,
                count,
                seed,
            } => {
                self.check_batch_size("count", count)?;
                self.with_session(conn, &session, |s, me| {
                    let (words, cache_hit) = me
                        .engine
                        .sample_on(&s.handle, seed, count)
                        .map_err(wire_query_error)?;
                    me.maybe_snapshot(s.handle.instance());
                    let size = (words.len(), s.handle.length());
                    let (array, returned) = s.words.array(size, |push| {
                        words.iter().for_each(|w| push(w));
                    });
                    Ok(vec![
                        ("words".to_string(), array),
                        ("returned".to_string(), Json::num(returned as f64)),
                        ("cache_hit".to_string(), Json::Bool(cache_hit)),
                    ])
                })
            }
            Request::Close { session } => {
                if self.sessions.close(conn, &session) {
                    Ok(vec![("closed".to_string(), Json::str(session))])
                } else {
                    Err(WireError::new(
                        ErrorCode::UnknownSession,
                        format!("no session {session:?} on this connection"),
                    ))
                }
            }
            Request::Stats => {
                let stats = self.stats();
                Ok(vec![
                    (
                        "server".to_string(),
                        Json::Obj(vec![
                            ("requests".to_string(), Json::num(stats.requests as f64)),
                            (
                                "connections".to_string(),
                                Json::num(stats.connections as f64),
                            ),
                            (
                                "sessions_open".to_string(),
                                Json::num(stats.sessions_open as f64),
                            ),
                            (
                                "sessions_evicted".to_string(),
                                Json::num(stats.sessions_evicted as f64),
                            ),
                            (
                                "rejected".to_string(),
                                Json::num(stats.pool.rejected as f64),
                            ),
                            ("expired".to_string(), Json::num(stats.pool.expired as f64)),
                            (
                                "panicked".to_string(),
                                Json::num(stats.pool.panicked as f64),
                            ),
                            ("queued".to_string(), Json::num(stats.pool.queued as f64)),
                            (
                                "snapshots_loaded".to_string(),
                                Json::num(stats.snapshots_loaded as f64),
                            ),
                            (
                                "snapshots_saved".to_string(),
                                Json::num(stats.snapshots_saved as f64),
                            ),
                            (
                                "snapshots_quarantined".to_string(),
                                Json::num(stats.snapshots_quarantined as f64),
                            ),
                            (
                                "snapshot_tmp_swept".to_string(),
                                Json::num(stats.snapshot_tmp_swept as f64),
                            ),
                            (
                                "resets_survived".to_string(),
                                Json::num(stats.resets_survived as f64),
                            ),
                            ("retries".to_string(), Json::num(stats.retries as f64)),
                        ]),
                    ),
                    ("engine".to_string(), engine_stats_json(&stats.engine, None)),
                    (
                        "shards".to_string(),
                        Json::Arr(
                            stats
                                .shards
                                .iter()
                                .map(|(id, s)| engine_stats_json(s, Some(*id)))
                                .collect(),
                        ),
                    ),
                ])
            }
            Request::Health => {
                let queued = self.pool.queued();
                let capacity = self.pool.capacity();
                let status = if queued >= capacity {
                    "saturated"
                } else {
                    "ok"
                };
                Ok(vec![
                    ("status".to_string(), Json::str(status)),
                    ("queued".to_string(), Json::num(queued as f64)),
                    ("queue_capacity".to_string(), Json::num(capacity as f64)),
                    (
                        "sessions_open".to_string(),
                        Json::num(self.sessions.len() as f64),
                    ),
                    (
                        "retry_after_ms".to_string(),
                        Json::num(self.retry_after_ms() as f64),
                    ),
                ])
            }
            Request::Bye => Ok(vec![("bye".to_string(), Json::Bool(true))]),
        }
    }

    fn op_prepare(
        &self,
        conn: u64,
        spec: &InstanceSpec,
        length: usize,
    ) -> Result<Vec<(String, Json)>, WireError> {
        let (nfa, alphabet) = spec.compile(&self.config.default_alphabet, length)?;
        let nfa = Arc::new(nfa);
        let handle = self.engine.prepare_nfa(&nfa, length);
        // The classification is needed to answer (and report) anything, so
        // materialize it now — it is also the first artifact worth
        // persisting.
        let unambiguous = handle.instance().is_unambiguous();
        self.maybe_snapshot(handle.instance());
        let fields = vec![
            (
                "session".to_string(),
                Json::str(self.sessions.open(conn, handle.clone(), alphabet)),
            ),
            (
                "fingerprint".to_string(),
                Json::str(format!("{:016x}", handle.fingerprint())),
            ),
            ("length".to_string(), Json::num(length as f64)),
            ("states".to_string(), Json::num(nfa.num_states() as f64)),
            ("unambiguous".to_string(), Json::Bool(unambiguous)),
            ("cached".to_string(), Json::Bool(handle.was_cached())),
        ];
        Ok(fields)
    }

    /// Runs one request against a checked-out session, always returning
    /// the session to the registry (success or failure).
    fn with_session<T>(
        &self,
        conn: u64,
        name: &str,
        f: impl FnOnce(&mut Session, &Self) -> Result<T, WireError>,
    ) -> Result<T, WireError> {
        let mut session = self.sessions.take(conn, name).ok_or_else(|| {
            WireError::new(
                ErrorCode::UnknownSession,
                format!("no session {name:?} on this connection (closed or idled out?)"),
            )
        })?;
        let result = f(&mut session, self);
        self.sessions.put_back(conn, name, session);
        result
    }

    /// Post-query persistence hook: save a snapshot when (and only when) a
    /// new artifact materialized on the instance since the last save.
    fn maybe_snapshot(&self, inst: &Arc<PreparedInstance>) {
        let Some(store) = &self.snapshots else { return };
        let (unambiguous, degree, completions, det_count) = inst.snapshot_parts();
        let mask = u8::from(unambiguous.is_some())
            | (u8::from(degree.is_some()) << 1)
            | (u8::from(completions.is_some()) << 2)
            | (u8::from(det_count.is_some()) << 3)
            | (u8::from(inst.sketch_snapshot().is_some()) << 4);
        {
            let masks = self.snapshot_masks.lock().expect("snapshot masks poisoned");
            if masks.get(&inst.fingerprint()) == Some(&mask) {
                return;
            }
        }
        // Persist outside the mask lock (encoding can be slow); record the
        // mask only on success so failures retry on the next query. Only a
        // save that actually wrote a file counts toward `snapshots_saved`
        // ("snapshots written") — `Ok(false)` means an identical file was
        // already on disk.
        if let Ok(wrote) = store.save(inst) {
            if wrote {
                self.snapshots_saved.fetch_add(1, Ordering::Relaxed);
            }
            self.snapshot_masks
                .lock()
                .expect("snapshot masks poisoned")
                .insert(inst.fingerprint(), mask);
        }
    }

    /// Enforces the `max_batch` cap on wire-supplied page/count sizes.
    fn check_batch_size(&self, what: &str, requested: usize) -> Result<(), WireError> {
        if requested > self.config.max_batch {
            return Err(WireError::new(
                ErrorCode::BadRequest,
                format!(
                    "\"{what}\" {requested} exceeds this server's limit of {}",
                    self.config.max_batch
                ),
            ));
        }
        Ok(())
    }
}

/// Serializes one engine-stats block (the aggregate, or — with an id — one
/// shard's counters) for the `stats` op.
fn engine_stats_json(stats: &EngineStats, shard_id: Option<usize>) -> Json {
    let mut fields = Vec::with_capacity(7);
    if let Some(id) = shard_id {
        fields.push(("id".to_string(), Json::num(id as f64)));
    }
    fields.extend([
        ("hits".to_string(), Json::num(stats.hits as f64)),
        ("misses".to_string(), Json::num(stats.misses as f64)),
        ("evictions".to_string(), Json::num(stats.evictions as f64)),
        ("entries".to_string(), Json::num(stats.entries as f64)),
        ("bytes".to_string(), Json::num(stats.bytes as f64)),
        ("domains".to_string(), Json::num(stats.domains as f64)),
    ]);
    Json::Obj(fields)
}

fn wire_query_error(error: QueryError) -> WireError {
    match error {
        QueryError::NotUnambiguous => WireError::new(
            ErrorCode::NotUnambiguous,
            "instance is ambiguous; exact counting requires MEM-UFA (use \"count\")",
        ),
        QueryError::Fpras(e) => WireError::new(ErrorCode::Fpras, e.to_string()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::serve::json;

    fn server() -> Server {
        Server::new(ServeConfig::default()).unwrap()
    }

    fn ok(reply: &Reply) -> Json {
        let value = json::parse(&reply.text).unwrap();
        assert_eq!(
            value.get("ok"),
            Some(&Json::Bool(true)),
            "expected ok: {}",
            reply.text
        );
        value
    }

    #[test]
    fn hello_prepare_count_enumerate_sample_round_trip() {
        let server = server();
        let conn = server.open_conn();
        let hello = ok(&server.handle_line(conn, r#"{"op":"hello","proto":1}"#));
        assert_eq!(hello.get("proto").and_then(Json::as_u64), Some(1));

        let prepared = ok(&server.handle_line(
            conn,
            r#"{"op":"prepare","regex":"(0|1)*101(0|1)*","length":6}"#,
        ));
        let session = prepared
            .get("session")
            .unwrap()
            .as_str()
            .unwrap()
            .to_string();
        assert_eq!(prepared.get("cached"), Some(&Json::Bool(false)));

        // The routed count answers on any instance; exact counting rejects
        // this (ambiguous) one with its own error code.
        let count =
            ok(&server.handle_line(conn, &format!(r#"{{"op":"count","session":"{session}"}}"#)));
        assert!(count.get("route").is_some());
        let exact = server.handle_line(
            conn,
            &format!(r#"{{"op":"count_exact","session":"{session}"}}"#),
        );
        let exact = json::parse(&exact.text).unwrap();
        assert_eq!(
            exact.get("code").and_then(Json::as_str),
            Some("not-unambiguous")
        );

        let page = ok(&server.handle_line(
            conn,
            &format!(r#"{{"op":"enumerate","session":"{session}","page_size":4}}"#),
        ));
        assert_eq!(page.get("returned").and_then(Json::as_u64), Some(4));
        let token = page.get("token").unwrap().as_str().unwrap().to_string();
        assert!(token.starts_with("enum1."));

        let sample = ok(&server.handle_line(
            conn,
            &format!(r#"{{"op":"sample","session":"{session}","count":3,"seed":9}}"#),
        ));
        assert_eq!(sample.get("returned").and_then(Json::as_u64), Some(3));

        let bye = server.handle_line(conn, r#"{"op":"bye"}"#);
        assert!(bye.close);
        server.close_conn(conn);
        server.shutdown();
    }

    #[test]
    fn unknown_sessions_and_foreign_connections_are_rejected() {
        let server = server();
        let conn = server.open_conn();
        let reply = server.handle_line(conn, r#"{"op":"count","session":"s99"}"#);
        let value = json::parse(&reply.text).unwrap();
        assert_eq!(value.get("ok"), Some(&Json::Bool(false)));
        assert_eq!(
            value.get("code").and_then(Json::as_str),
            Some("unknown-session")
        );
        // A session opened on one connection is invisible to another.
        let prepared =
            ok(&server.handle_line(conn, r#"{"op":"prepare","regex":"(0|1)*1","length":4}"#));
        let session = prepared.get("session").unwrap().as_str().unwrap();
        let other = server.open_conn();
        let reply =
            server.handle_line(other, &format!(r#"{{"op":"count","session":"{session}"}}"#));
        let value = json::parse(&reply.text).unwrap();
        assert_eq!(
            value.get("code").and_then(Json::as_str),
            Some("unknown-session")
        );
        server.shutdown();
    }

    #[test]
    fn witness_replies_carry_exactly_the_engine_words_on_escaping_alphabets() {
        // Every JSON escape class plus multi-byte chars, and an anonymous
        // alphabet whose words print as `⟨id⟩` runs.
        let escaping = InstanceSpec::Regex {
            pattern: ".*".to_string(),
            alphabet: Some("\"\\\n\u{1}é⟨".to_string()),
        };
        let transitions: String = (0..12).map(|s| format!("0 {s} 0\n")).collect();
        let anonymous = InstanceSpec::NfaText(format!(
            "alphabet: sized 12\nstates: 1\ninitial: 0\naccepting: 0\n{transitions}"
        ));
        let server = server();
        let conn = server.open_conn();
        for (spec, length) in [(escaping, 3), (anonymous, 2)] {
            let (nfa, alphabet) = spec.compile("01", length).unwrap();
            let line = match &spec {
                InstanceSpec::Regex { pattern, alphabet } => Json::Obj(vec![
                    ("op".to_string(), Json::str("prepare")),
                    ("regex".to_string(), Json::str(pattern.as_str())),
                    ("alphabet".to_string(), Json::str(alphabet.clone().unwrap())),
                    ("length".to_string(), Json::num(length as f64)),
                ]),
                InstanceSpec::NfaText(text) => Json::Obj(vec![
                    ("op".to_string(), Json::str("prepare")),
                    ("nfa_text".to_string(), Json::str(text.as_str())),
                    ("length".to_string(), Json::num(length as f64)),
                ]),
            };
            let prepared = ok(&server.handle_line(conn, &line.encode()));
            let session = prepared.get("session").unwrap().as_str().unwrap();
            let words = |reply: &Json| -> Vec<String> {
                let words = reply.get("words").unwrap().as_arr().unwrap();
                words
                    .iter()
                    .map(|w| w.as_str().unwrap().to_string())
                    .collect()
            };
            let handle = server.engine().prepare_nfa(&Arc::new(nfa), length);

            let mut expected = Vec::new();
            let mut cursor = server.engine().cursor(&handle);
            while let Some(word) = cursor.advance() {
                expected.push(lsc_automata::format_word(word, &alphabet));
            }
            assert_eq!(expected.len(), alphabet.len().pow(length as u32));
            let mut paged = Vec::new();
            loop {
                let page = ok(&server.handle_line(
                    conn,
                    &format!(r#"{{"op":"enumerate","session":"{session}","page_size":50}}"#),
                ));
                paged.extend(words(&page));
                if page.get("done") == Some(&Json::Bool(true)) {
                    break;
                }
            }
            assert_eq!(paged, expected);

            let (draws, _) = server.engine().sample_on(&handle, 11, 40).unwrap();
            let expected: Vec<String> = draws
                .iter()
                .map(|w| lsc_automata::format_word(w, &alphabet))
                .collect();
            let sample = ok(&server.handle_line(
                conn,
                &format!(r#"{{"op":"sample","session":"{session}","count":40,"seed":11}}"#),
            ));
            assert_eq!(words(&sample), expected);
        }
        server.shutdown();
    }

    #[test]
    fn live_cursor_and_token_resume_agree() {
        let server = server();
        let conn = server.open_conn();
        let prepared =
            ok(&server.handle_line(conn, r#"{"op":"prepare","regex":"(0|1)*11","length":5}"#));
        let session = prepared
            .get("session")
            .unwrap()
            .as_str()
            .unwrap()
            .to_string();
        // Page twice through the live cursor.
        let p1 = ok(&server.handle_line(
            conn,
            &format!(r#"{{"op":"enumerate","session":"{session}","page_size":3}}"#),
        ));
        let p2 = ok(&server.handle_line(
            conn,
            &format!(r#"{{"op":"enumerate","session":"{session}","page_size":3}}"#),
        ));
        // Re-walk the same pages by explicit token resumption.
        let t1 = p1.get("token").unwrap().as_str().unwrap();
        let r2 = ok(&server.handle_line(
            conn,
            &format!(r#"{{"op":"enumerate","session":"{session}","page_size":3,"resume":"{t1}"}}"#),
        ));
        assert_eq!(p2.get("words"), r2.get("words"));
        assert_eq!(p2.get("rank"), r2.get("rank"));
        server.shutdown();
    }

    #[test]
    fn invalid_tokens_are_rejected_with_their_code() {
        let server = server();
        let conn = server.open_conn();
        let prepared =
            ok(&server.handle_line(conn, r#"{"op":"prepare","regex":"(0|1)*11","length":5}"#));
        let session = prepared
            .get("session")
            .unwrap()
            .as_str()
            .unwrap()
            .to_string();
        let reply = server.handle_line(
            conn,
            &format!(r#"{{"op":"enumerate","session":"{session}","resume":"enum1.garbage"}}"#),
        );
        let value = json::parse(&reply.text).unwrap();
        assert_eq!(
            value.get("code").and_then(Json::as_str),
            Some("invalid-token")
        );
        server.shutdown();
    }

    #[test]
    fn oversized_pages_and_sample_counts_are_rejected() {
        let config = ServeConfig {
            max_batch: 10,
            ..ServeConfig::default()
        };
        let server = Server::new(config).unwrap();
        let conn = server.open_conn();
        let prepared =
            ok(&server.handle_line(conn, r#"{"op":"prepare","regex":"(0|1)*11","length":5}"#));
        let session = prepared
            .get("session")
            .unwrap()
            .as_str()
            .unwrap()
            .to_string();
        for request in [
            format!(r#"{{"op":"enumerate","session":"{session}","page_size":11}}"#),
            format!(r#"{{"op":"sample","session":"{session}","count":11}}"#),
        ] {
            let reply = server.handle_line(conn, &request);
            let value = json::parse(&reply.text).unwrap();
            assert_eq!(
                value.get("code").and_then(Json::as_str),
                Some("bad-request"),
                "{request} must hit the max_batch cap: {}",
                reply.text
            );
        }
        // At the cap is fine.
        ok(&server.handle_line(
            conn,
            &format!(r#"{{"op":"enumerate","session":"{session}","page_size":10}}"#),
        ));
        server.shutdown();
    }

    #[test]
    fn oversized_instances_are_refused_and_the_server_keeps_serving() {
        let server = server();
        let conn = server.open_conn();
        // (length + 1) x states overflows any reservation: answered as a
        // bad request, with no session opened.
        let reply = server.handle_line(
            conn,
            r#"{"op":"prepare","regex":"(0|1)*","length":1000000000000}"#,
        );
        let value = json::parse(&reply.text).unwrap();
        assert_eq!(
            value.get("code").and_then(Json::as_str),
            Some("bad-request"),
            "{}",
            reply.text
        );
        let reply = server.handle_line(conn, r#"{"op":"count_exact","session":"s1"}"#);
        let value = json::parse(&reply.text).unwrap();
        assert_eq!(
            value.get("code").and_then(Json::as_str),
            Some("unknown-session")
        );
        let prepared =
            ok(&server.handle_line(conn, r#"{"op":"prepare","regex":"(0|1)*11","length":6}"#));
        let session = prepared.get("session").unwrap().as_str().unwrap();
        let exact = ok(&server.handle_line(
            conn,
            &format!(r#"{{"op":"count_exact","session":"{session}"}}"#),
        ));
        assert_eq!(exact.get("count").and_then(Json::as_str), Some("16"));
        server.shutdown();
    }

    #[test]
    fn stats_report_engine_and_server_counters() {
        let server = server();
        let conn = server.open_conn();
        ok(&server.handle_line(conn, r#"{"op":"prepare","regex":"(0|1)*11","length":5}"#));
        let stats = ok(&server.handle_line(conn, r#"{"op":"stats"}"#));
        let engine = stats.get("engine").unwrap();
        assert_eq!(engine.get("entries").and_then(Json::as_u64), Some(1));
        let srv = stats.get("server").unwrap();
        assert_eq!(srv.get("sessions_open").and_then(Json::as_u64), Some(1));
        server.shutdown();
    }

    #[test]
    fn every_reply_leaves_the_byte_cap_settled() {
        // FPRAS-route sessions (probe and classification off) under a cap
        // that holds about one warm instance: every verb — paged
        // `enumerate` included — must leave the accounting equal to what
        // the residents measure, and the cap holding.
        const CAP: usize = 96 << 10;
        let server = Server::new(ServeConfig {
            engine: EngineConfig {
                cache_bytes: CAP,
                router: crate::engine::RouterConfig {
                    determinization_cap: 0,
                    fpras: crate::fpras::FprasParams::quick(),
                    classify_ambiguity: false,
                },
                ..EngineConfig::default()
            },
            shards: 1,
            ..ServeConfig::default()
        })
        .unwrap();
        let conn = server.open_conn();
        let send = |line: String| {
            let reply = json::parse(&server.handle_line(conn, &line).text).unwrap();
            let stats = server.engine().stats().aggregate;
            assert_eq!(
                stats.bytes,
                server.engine().measured_bytes(),
                "after {line}: unsettled bytes"
            );
            assert!(
                stats.bytes <= CAP || stats.entries == 1,
                "after {line}: {} bytes in {} entries over the {CAP}-byte cap",
                stats.bytes,
                stats.entries
            );
            reply
        };
        let mut sessions = Vec::new();
        for pattern in [
            "(0|1)*1(0|1)*1(0|1)*",
            "(0|1)*0(0|1)*0(0|1)*",
            "(0|1)*10(0|1)*",
        ] {
            let prepared = send(format!(
                r#"{{"op":"prepare","regex":"{pattern}","length":12}}"#
            ));
            sessions.push(
                prepared
                    .get("session")
                    .unwrap()
                    .as_str()
                    .unwrap()
                    .to_string(),
            );
        }
        for round in 0..2 {
            for session in &sessions {
                // Enumerate first: the page alone materializes tables.
                for _ in 0..2 {
                    send(format!(
                        r#"{{"op":"enumerate","session":"{session}","page_size":3}}"#
                    ));
                }
                send(format!(r#"{{"op":"count","session":"{session}"}}"#));
                send(format!(r#"{{"op":"count_exact","session":"{session}"}}"#));
                send(format!(
                    r#"{{"op":"sample","session":"{session}","count":4,"seed":{round}}}"#
                ));
            }
        }
        assert!(
            server.engine().stats().aggregate.evictions > 0,
            "the cap bit"
        );
        server.shutdown();
    }
}
