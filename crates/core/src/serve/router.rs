//! The cluster router: the shard ring over the network.
//!
//! [`Router`] is a front-end that speaks the serve layer's JSON-lines
//! wire protocol *unmodified* and forwards every session-scoped request
//! to one of N backend `nfa_tool serve` nodes. Placement is the same
//! consistent-hash ring the in-process [`ShardedEngine`] uses — a
//! [`ShardMap`] keyed by **instance fingerprint**, computed locally from
//! the `prepare` spec — so a fingerprint's home node is a pure function
//! of the ring membership, and adding or removing a node moves only the
//! bounded set of fingerprints the ring reassigns.
//!
//! Router state is connection-scoped, like the server's sessions: each
//! front connection owns its routes (keyed by the `r<N>` aliases it was
//! issued — another connection's alias is `unknown-session` here) and
//! one reconnecting [`Client`] per backend, dialled on first use. No
//! backend socket is shared between front connections, and none is
//! locked; ending a front connection closes its backend sockets, and
//! each backend drops that connection's sessions at EOF.
//!
//! Three properties make failover-with-cursor-survival work by
//! construction rather than by protocol extension:
//!
//! * **Sessions are re-preparable.** A connection's [`Client`] for a
//!   backend keeps the `(spec, length)` registry needed to re-`prepare`
//!   any alias after a reset, restart, or idle eviction, and the last
//!   acknowledged resume token of every cursor.
//! * **Resume tokens are self-contained** (`enum1.<fp>.…`): the last
//!   *acknowledged* token for a cursor replays bit-identically on any
//!   node that has (or re-prepares) the instance, so a mid-stream
//!   `enumerate` survives its home node dying.
//! * **Snapshots are the replication unit.** On `prepare` the router
//!   ships the checksummed `<fp>.snap` artifact from the home node's
//!   snapshot store to the ring replica
//!   ([`SnapshotStore::export_fingerprint`] →
//!   [`SnapshotStore::import_bytes`]); on [`Router::add_backend`] it
//!   ships every fingerprint with an open front session whose home the
//!   new ring assigns to the joining node. A node started (or
//!   restarted) *after* the ship warms the instance from disk instead
//!   of recompiling.
//!
//! Failure routing: front-connection I/O draws from
//! [`FaultSite::RouterForward`], snapshot shipping from
//! [`FaultSite::SnapshotShip`]; backend sockets keep their own sites
//! inside [`Client`]. When a backend exhausts its retry budget the
//! router marks it dead, removes it from the ring, re-resolves the
//! fingerprint, re-prepares on the survivor, seeds the cursor from the
//! last acknowledged token, and replays the request — the caller sees
//! one slow page, not an error. Aggregation verbs (`stats`, `health`)
//! fan out to every live backend and merge counter-wise (documented in
//! `docs/ARCHITECTURE.md` §8).
//!
//! [`ShardedEngine`]: crate::engine::ShardedEngine

use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use crate::engine::{PreparedInstance, ShardMap, SnapshotStore};
use crate::serve::client::{Client, ClientConfig, ClientError};
use crate::serve::conn::{serve_lines, spawn_acceptor, TcpServerHandle};
use crate::serve::faults::{FaultPlan, FaultSite};
use crate::serve::json::Json;
use crate::serve::protocol::{respond, ErrorCode, InstanceSpec, Request, WireError};

/// One backend node: where it listens and, if it persists snapshots,
/// where — the directory the router ships replication artifacts into
/// and out of. It must be the same directory the backend's own
/// `ServeConfig::snapshot_dir` names, reachable from the router process
/// (same host or shared filesystem).
#[derive(Clone, Debug)]
pub struct BackendSpec {
    /// `host:port` of the backend's `nfa_tool serve` listener.
    pub addr: String,
    /// The backend's snapshot directory, if it runs with one.
    pub snapshot_dir: Option<PathBuf>,
}

impl BackendSpec {
    /// A backend with no snapshot store (shipping to/from it is a no-op).
    pub fn new(addr: impl Into<String>) -> BackendSpec {
        BackendSpec {
            addr: addr.into(),
            snapshot_dir: None,
        }
    }
}

/// Router configuration. `Default` is a zero-backend stub — a usable
/// router needs at least one [`BackendSpec`].
#[derive(Clone, Debug)]
pub struct RouteConfig {
    /// The backend fleet, index-identified: backend `i` is ring shard `i`.
    pub backends: Vec<BackendSpec>,
    /// Backend-client tuning (retry budget, backoff), for every front
    /// connection's client of every backend.
    pub client: ClientConfig,
    /// Virtual nodes per backend on the consistent-hash ring.
    pub ring_replicas: usize,
    /// Alphabet for `prepare` regexes that don't name one — must match
    /// the backends' `default_alphabet` or local fingerprints diverge
    /// from backend fingerprints.
    pub default_alphabet: String,
    /// Idle front-connection reap timeout (mirrors `ServeConfig`).
    pub read_timeout: Option<Duration>,
    /// Front-connection write timeout.
    pub write_timeout: Option<Duration>,
    /// Deterministic fault injection for front connections
    /// ([`FaultSite::RouterForward`]) and snapshot shipping
    /// ([`FaultSite::SnapshotShip`]). `None` is a passthrough.
    pub faults: Option<Arc<FaultPlan>>,
}

impl Default for RouteConfig {
    fn default() -> RouteConfig {
        RouteConfig {
            backends: Vec::new(),
            client: ClientConfig::default(),
            ring_replicas: 64,
            default_alphabet: "01".to_string(),
            read_timeout: Some(Duration::from_secs(300)),
            write_timeout: Some(Duration::from_secs(30)),
            faults: None,
        }
    }
}

/// Router counters (a point-in-time snapshot).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RouteStats {
    /// Requests forwarded to a backend (aggregation verbs count once).
    pub forwarded: u64,
    /// Sessions migrated to a surviving backend after their home died.
    pub failovers: u64,
    /// Backends declared dead and removed from the ring.
    pub backends_lost: u64,
    /// Snapshot artifacts shipped between backend stores.
    pub snapshots_shipped: u64,
    /// Ships that failed (missing artifact, injected fault, I/O error).
    /// Non-fatal: the receiving node recompiles instead of warming.
    pub ship_failures: u64,
}

/// One routed session: everything needed to re-home it.
#[derive(Debug)]
struct Route {
    spec: InstanceSpec,
    length: usize,
    fingerprint: u64,
    /// The backend currently holding this alias (the connection's client
    /// of it owns the last acknowledged resume token).
    backend: usize,
}

struct Backend {
    addr: String,
    store: Option<SnapshotStore>,
}

/// The ring and the backend table, which are always read together, plus
/// the open front sessions per fingerprint over every connection (the
/// fingerprints [`Router::add_backend`] ships). Backend `i` is ring
/// shard `i`; a retired backend leaves the ring but keeps its slot.
struct Fleet {
    ring: ShardMap,
    backends: Vec<Arc<Backend>>,
    open: HashMap<u64, usize>,
}

impl Fleet {
    /// One open front session on `fingerprint` closed.
    fn release(&mut self, fingerprint: u64) {
        if let Some(count) = self.open.get_mut(&fingerprint) {
            *count -= 1;
            if *count == 0 {
                self.open.remove(&fingerprint);
            }
        }
    }
}

struct RouterInner {
    config: RouteConfig,
    fleet: Mutex<Fleet>,
    next_session: AtomicU64,
    forwarded: AtomicU64,
    failovers: AtomicU64,
    backends_lost: AtomicU64,
    snapshots_shipped: AtomicU64,
    ship_failures: AtomicU64,
}

/// The cluster front-end. See the module docs for the routing and
/// failover contract; `docs/ARCHITECTURE.md` §8 is the operator view.
pub struct Router {
    inner: Arc<RouterInner>,
}

impl Router {
    /// Builds a router over `config.backends` (ring shard `i` =
    /// backend `i`). Opens each named snapshot directory; no backend
    /// connection is made until the first forwarded request.
    ///
    /// # Errors
    /// `InvalidInput` with no backends; snapshot-directory failures
    /// propagate.
    pub fn new(config: RouteConfig) -> std::io::Result<Router> {
        if config.backends.is_empty() {
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidInput,
                "a router needs at least one backend",
            ));
        }
        let backends = config
            .backends
            .iter()
            .map(backend_for)
            .collect::<std::io::Result<Vec<_>>>()?;
        let ring = ShardMap::new(backends.len(), config.ring_replicas);
        Ok(Router {
            inner: Arc::new(RouterInner {
                fleet: Mutex::new(Fleet {
                    ring,
                    backends,
                    open: HashMap::new(),
                }),
                next_session: AtomicU64::new(0),
                forwarded: AtomicU64::new(0),
                failovers: AtomicU64::new(0),
                backends_lost: AtomicU64::new(0),
                snapshots_shipped: AtomicU64::new(0),
                ship_failures: AtomicU64::new(0),
                config,
            }),
        })
    }

    /// Router counters so far.
    pub fn stats(&self) -> RouteStats {
        let inner = &self.inner;
        RouteStats {
            forwarded: inner.forwarded.load(Ordering::Relaxed),
            failovers: inner.failovers.load(Ordering::Relaxed),
            backends_lost: inner.backends_lost.load(Ordering::Relaxed),
            snapshots_shipped: inner.snapshots_shipped.load(Ordering::Relaxed),
            ship_failures: inner.ship_failures.load(Ordering::Relaxed),
        }
    }

    /// Joins a backend to the ring and ships every fingerprint with an
    /// open front session that the new ring homes on it, from its
    /// previous home (so a node started *after* this call warms those
    /// instances from disk). Returns the new backend's index.
    ///
    /// # Errors
    /// Snapshot-directory failures propagate; the ring is unchanged.
    pub fn add_backend(&self, spec: BackendSpec) -> std::io::Result<usize> {
        let backend = backend_for(&spec)?;
        let (id, moved) = {
            let mut fleet = self.inner.fleet.lock().expect("fleet poisoned");
            let id = fleet.backends.len();
            let homes: Vec<(u64, usize)> = fleet
                .open
                .keys()
                .map(|&fingerprint| (fingerprint, fleet.ring.shard_for(fingerprint)))
                .collect();
            fleet.backends.push(backend);
            fleet.ring.add_shard(id);
            let moved: Vec<(u64, usize)> = homes
                .into_iter()
                .filter(|&(fingerprint, _)| fleet.ring.shard_for(fingerprint) == id)
                .collect();
            (id, moved)
        };
        for (fingerprint, from) in moved {
            self.inner.ship(fingerprint, from, id);
        }
        Ok(id)
    }

    /// Removes a backend from the ring (existing sessions re-home on
    /// their next request). Returns `false` for the last live backend —
    /// the ring refuses to become empty.
    pub fn remove_backend(&self, id: usize) -> bool {
        self.inner.retire(id).is_ok()
    }

    /// Serves the wire protocol on `addr`, thread-per-connection (the
    /// router's work per request is one forwarded RPC, so a blocking
    /// thread per front connection is the right shape): the shared
    /// acceptor and line loop, with front-connection I/O at
    /// [`FaultSite::RouterForward`]. Each connection owns its sessions
    /// and its backend clients; both go when it ends. Returns a handle
    /// whose `shutdown` stops the accept loop.
    ///
    /// # Errors
    /// Propagates `bind` failures.
    pub fn spawn_tcp(&self, addr: &str) -> std::io::Result<TcpServerHandle> {
        let config = &self.inner.config;
        let inner = self.inner.clone();
        spawn_acceptor(
            addr,
            "lsc-route",
            (config.read_timeout, config.write_timeout),
            config.faults.clone(),
            (FaultSite::RouterForward, FaultSite::RouterForward),
            move |reader, writer| {
                let mut front = Front {
                    inner: inner.clone(),
                    routes: HashMap::new(),
                    clients: HashMap::new(),
                };
                serve_lines(reader, writer, |line| {
                    respond(line, |request| front.dispatch(request))
                });
            },
        )
    }
}

fn backend_for(spec: &BackendSpec) -> std::io::Result<Arc<Backend>> {
    let store = spec.snapshot_dir.as_ref().map(SnapshotStore::open);
    let (addr, store) = (spec.addr.clone(), store.transpose()?);
    Ok(Arc::new(Backend { addr, store }))
}

/// One front connection: its routes, keyed by front alias, and its own
/// client per backend index, dialled on first use.
struct Front {
    inner: Arc<RouterInner>,
    routes: HashMap<String, Route>,
    clients: HashMap<usize, Client>,
}

impl Drop for Front {
    /// Releases the connection's open sessions from the fleet tally; the
    /// clients drop with it, closing their sockets.
    fn drop(&mut self) {
        if let Ok(mut fleet) = self.inner.fleet.lock() {
            self.routes
                .values()
                .for_each(|route| fleet.release(route.fingerprint));
        }
    }
}

impl Front {
    /// This connection's client of backend `id`.
    fn client(&mut self, id: usize) -> &mut Client {
        let inner = &self.inner;
        self.clients.entry(id).or_insert_with(|| {
            let fleet = inner.fleet.lock().expect("fleet poisoned");
            Client::new(fleet.backends[id].addr.clone(), inner.config.client.clone())
        })
    }

    /// Transport-free dispatch of one request.
    fn dispatch(&mut self, request: Request) -> Result<Vec<(String, Json)>, WireError> {
        match request {
            Request::Hello => Ok(vec![
                ("proto".to_string(), Json::num(1.0)),
                ("server".to_string(), Json::str("nfa_tool route")),
            ]),
            Request::Prepare { spec, length } => self.op_prepare(spec, length),
            Request::Count { session } => {
                self.forward(&session, |client, alias| client.count(alias))
            }
            Request::CountExact { session } => {
                self.forward(&session, |client, alias| client.count_exact(alias))
            }
            Request::Sample {
                session,
                count,
                seed,
            } => self.forward(&session, move |client, alias| {
                client.sample(alias, count, seed)
            }),
            Request::Enumerate {
                session,
                page_size,
                resume,
            } => self.forward(&session, move |client, alias| {
                if let Some(token) = &resume {
                    client.resume_from(alias, token.clone())?;
                }
                client.enumerate_page(alias, page_size)
            }),
            Request::Close { session } => self
                .close(&session)
                .map(|()| vec![("closed".to_string(), Json::str(session))]),
            Request::Stats => self.op_stats(),
            Request::Health => self.op_health(),
            Request::Bye => Ok(vec![("bye".to_string(), Json::Bool(true))]),
        }
    }

    /// `prepare`: fingerprint the spec locally, route it on the ring,
    /// prepare on the home backend, ship the snapshot to the ring
    /// replica, and answer with the *backend's* prepare fields under the
    /// router-issued session name.
    fn op_prepare(
        &mut self,
        spec: InstanceSpec,
        length: usize,
    ) -> Result<Vec<(String, Json)>, WireError> {
        let inner = self.inner.clone();
        let fingerprint = inner.fingerprint_of(&spec, length)?;
        let number = inner.next_session.fetch_add(1, Ordering::Relaxed) + 1;
        let alias = format!("r{number}");
        let to_prepare = spec.clone();
        let home = {
            let mut fleet = inner.fleet.lock().expect("fleet poisoned");
            *fleet.open.entry(fingerprint).or_insert(0) += 1;
            fleet.ring.shard_for(fingerprint)
        };
        self.routes.insert(
            alias.clone(),
            Route {
                spec,
                length,
                fingerprint,
                backend: home,
            },
        );
        // `forward`'s migration path re-prepares on its own when the home
        // moved mid-call; the closure covers the first-landing case.
        let prepared = self.forward(&alias, move |client, alias| {
            match client.last_prepare(alias) {
                Some(prepared) => Ok(prepared.clone()),
                None => client.prepare(alias, to_prepare.clone(), length),
            }
        });
        let fields = match prepared {
            Ok(fields) => fields,
            Err(error) => {
                // No session without a backend prepare.
                let _ = self.close(&alias);
                return Err(error);
            }
        };
        // Replicate the artifact ahead of need: the ring minus the home
        // names the node a failover would land on.
        let mut ring = inner.fleet.lock().expect("fleet poisoned").ring.clone();
        let home = ring.shard_for(fingerprint);
        if ring.remove_shard(home) {
            inner.ship(fingerprint, home, ring.shard_for(fingerprint));
        }
        Ok(fields
            .into_iter()
            .map(|(key, value)| {
                if key == "session" {
                    (key, Json::str(alias.clone()))
                } else {
                    (key, value)
                }
            })
            .collect())
    }

    /// Drops the connection's route for `alias` and its backend session
    /// (one best-effort `close`; a backend that misses it idles the
    /// session out by TTL); `unknown-session` when the connection has
    /// no such alias.
    fn close(&mut self, alias: &str) -> Result<(), WireError> {
        let route = self.routes.remove(alias);
        let route = route.ok_or_else(|| unknown_session(alias))?;
        let mut fleet = self.inner.fleet.lock().expect("fleet poisoned");
        fleet.release(route.fingerprint);
        drop(fleet);
        self.client(route.backend).close(alias);
        Ok(())
    }

    /// Runs `op` against the session's home backend, following the ring
    /// through failovers: a backend that exhausts the client's retry
    /// budget is retired, the fingerprint re-resolves, the session is
    /// re-prepared on the survivor with its cursor seeded from the last
    /// acknowledged token, and `op` replays.
    fn forward<F>(&mut self, session: &str, op: F) -> Result<Vec<(String, Json)>, WireError>
    where
        F: Fn(&mut Client, &str) -> Result<Json, ClientError>,
    {
        loop {
            let route = self.routes.get(session);
            let route = route.ok_or_else(|| unknown_session(session))?;
            let current = route.backend;
            let fleet = self.inner.fleet.lock().expect("fleet poisoned");
            let home = fleet.ring.shard_for(route.fingerprint);
            drop(fleet);
            if home != current {
                // The ring moved this session (its home died or the
                // topology changed): carry the last acknowledged token
                // across, re-prepare, resume, then release the old home's
                // session.
                let (spec, length) = (route.spec.clone(), route.length);
                let token = self.client(current).last_token(session).map(str::to_string);
                match self.client(home).prepare(session, spec, length) {
                    Ok(_) => {}
                    Err(ClientError::Exhausted { .. }) => {
                        self.inner.retire(home)?;
                        continue;
                    }
                    Err(error) => return Err(wire_client_error(error)),
                }
                if let Some(token) = token {
                    let _ = self.client(home).resume_from(session, token);
                }
                self.inner.failovers.fetch_add(1, Ordering::Relaxed);
                self.routes.get_mut(session).expect("routed above").backend = home;
                self.client(current).close(session);
            }
            match op(self.client(home), session) {
                Ok(response) => {
                    self.inner.forwarded.fetch_add(1, Ordering::Relaxed);
                    let Json::Obj(fields) = response else {
                        return Err(WireError::new(
                            ErrorCode::Internal,
                            "backend response was not an object",
                        ));
                    };
                    return Ok(fields
                        .into_iter()
                        .filter(|(key, _)| key != "ok" && key != "id")
                        .collect());
                }
                Err(ClientError::Exhausted { .. }) => self.inner.retire(home)?,
                Err(error) => return Err(wire_client_error(error)),
            }
        }
    }

    /// `stats` over the cluster: per-field sums of every live backend's
    /// `server` and `engine` sections, one `shards` row per backend
    /// (`id` = backend index, engine totals as that node reports them),
    /// plus a `router` section with the ring counters. A backend that
    /// fails the fan-out is retired exactly as on the request path.
    fn op_stats(&mut self) -> Result<Vec<(String, Json)>, WireError> {
        let mut server_totals: Vec<(String, Json)> = Vec::new();
        let mut engine_totals: Vec<(String, Json)> = Vec::new();
        let mut shards: Vec<Json> = Vec::new();
        for (id, response) in self.fan_out(|client| client.server_stats())? {
            sum_fields(&mut server_totals, response.get("server"));
            sum_fields(&mut engine_totals, response.get("engine"));
            let mut row = vec![("id".to_string(), Json::num(id as f64))];
            sum_fields(&mut row, response.get("engine"));
            shards.push(Json::Obj(row));
        }
        let stats = self.inner.router_stats_json();
        Ok(vec![
            ("server".to_string(), Json::Obj(server_totals)),
            ("engine".to_string(), Json::Obj(engine_totals)),
            ("shards".to_string(), Json::Arr(shards)),
            ("router".to_string(), stats),
        ])
    }

    /// `health` over the cluster: `ok` only if every live backend reports
    /// `ok`; `queued` / `queue_capacity` / `sessions_open` sum;
    /// `retry_after_ms` is the fleet maximum (the safe wait).
    fn op_health(&mut self) -> Result<Vec<(String, Json)>, WireError> {
        let mut status = "ok";
        let mut queued = 0.0;
        let mut capacity = 0.0;
        let mut sessions = 0.0;
        let mut retry_after: f64 = 0.0;
        for (_, response) in self.fan_out(|client| client.health())? {
            if response.get("status").and_then(Json::as_str) != Some("ok") {
                status = "saturated";
            }
            let num = |key: &str| match response.get(key) {
                Some(Json::Num(n)) => *n,
                _ => 0.0,
            };
            queued += num("queued");
            capacity += num("queue_capacity");
            sessions += num("sessions_open");
            retry_after = retry_after.max(num("retry_after_ms"));
        }
        Ok(vec![
            ("status".to_string(), Json::str(status)),
            ("queued".to_string(), Json::num(queued)),
            ("queue_capacity".to_string(), Json::num(capacity)),
            ("sessions_open".to_string(), Json::num(sessions)),
            ("retry_after_ms".to_string(), Json::num(retry_after)),
        ])
    }

    /// Runs `op` once per live backend, retiring any that exhaust their
    /// retry budget; errors only when none are left.
    fn fan_out<F>(&mut self, op: F) -> Result<Vec<(usize, Json)>, WireError>
    where
        F: Fn(&mut Client) -> Result<Json, ClientError>,
    {
        let fleet = self.inner.fleet.lock().expect("fleet poisoned");
        let live = fleet.ring.shard_ids().to_vec();
        drop(fleet);
        let mut results = Vec::new();
        for id in live {
            match op(self.client(id)) {
                Ok(response) => results.push((id, response)),
                Err(ClientError::Exhausted { .. }) => self.inner.retire(id)?,
                Err(error) => return Err(wire_client_error(error)),
            }
        }
        if results.is_empty() {
            return Err(no_backends());
        }
        self.inner.forwarded.fetch_add(1, Ordering::Relaxed);
        Ok(results)
    }
}

impl RouterInner {
    /// Declares backend `id` dead and drops it from the ring, counting it
    /// lost once however many connections notice; errors instead if it
    /// is the last one (nothing left to fail over to).
    fn retire(&self, id: usize) -> Result<(), WireError> {
        let mut fleet = self.fleet.lock().expect("fleet poisoned");
        if fleet.ring.remove_shard(id) {
            self.backends_lost.fetch_add(1, Ordering::Relaxed);
        } else if fleet.ring.shard_ids().contains(&id) {
            return Err(no_backends());
        }
        Ok(())
    }

    /// Ships `<fingerprint>.snap` from one backend's store to another's,
    /// best-effort: a failure (no store, missing artifact, injected
    /// [`FaultSite::SnapshotShip`] fault, I/O error) is counted and the
    /// receiving node recompiles instead of warming.
    fn ship(&self, fingerprint: u64, from: usize, to: usize) {
        let (src, dst) = {
            let fleet = self.fleet.lock().expect("fleet poisoned");
            (fleet.backends[from].clone(), fleet.backends[to].clone())
        };
        let (Some(src), Some(dst)) = (&src.store, &dst.store) else {
            return;
        };
        if let Some(plan) = &self.config.faults {
            if plan.decide(FaultSite::SnapshotShip).is_some() {
                self.ship_failures.fetch_add(1, Ordering::Relaxed);
                return;
            }
        }
        match src
            .export_fingerprint(fingerprint)
            .and_then(|bytes| dst.import_bytes(&bytes))
        {
            Ok(_) => {
                self.snapshots_shipped.fetch_add(1, Ordering::Relaxed);
            }
            Err(_) => {
                self.ship_failures.fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    /// The instance fingerprint `prepare` would compute on any backend:
    /// the spec compiled by the servers' own compiler, under the
    /// configured default alphabet. Placement must be a pure function of
    /// the spec or the ring and the backends disagree.
    fn fingerprint_of(&self, spec: &InstanceSpec, length: usize) -> Result<u64, WireError> {
        let (nfa, _) = spec.compile(&self.config.default_alphabet)?;
        Ok(PreparedInstance::instance_fingerprint(&nfa, length))
    }

    fn router_stats_json(&self) -> Json {
        let (backends_alive, backends_total) = {
            let fleet = self.fleet.lock().expect("fleet poisoned");
            (fleet.ring.len(), fleet.backends.len())
        };
        let stat = |counter: &AtomicU64| Json::num(counter.load(Ordering::Relaxed) as f64);
        Json::Obj(vec![
            (
                "backends_alive".to_string(),
                Json::num(backends_alive as f64),
            ),
            (
                "backends_total".to_string(),
                Json::num(backends_total as f64),
            ),
            ("forwarded".to_string(), stat(&self.forwarded)),
            ("failovers".to_string(), stat(&self.failovers)),
            ("backends_lost".to_string(), stat(&self.backends_lost)),
            (
                "snapshots_shipped".to_string(),
                stat(&self.snapshots_shipped),
            ),
            ("ship_failures".to_string(), stat(&self.ship_failures)),
        ])
    }
}

/// Sums `obj`'s numeric fields into `acc` key-wise (non-numeric fields
/// are kept from the first backend that reports them).
fn sum_fields(acc: &mut Vec<(String, Json)>, obj: Option<&Json>) {
    let Some(Json::Obj(fields)) = obj else { return };
    for (key, value) in fields {
        match acc.iter_mut().find(|(existing, _)| existing == key) {
            Some((_, total)) => {
                if let (Json::Num(a), Json::Num(b)) = (&*total, value) {
                    *total = Json::Num(a + b);
                }
            }
            None => acc.push((key.clone(), value.clone())),
        }
    }
}

fn unknown_session(session: &str) -> WireError {
    WireError::new(
        ErrorCode::UnknownSession,
        format!("no session {session:?} on this connection"),
    )
}

fn no_backends() -> WireError {
    WireError::new(ErrorCode::Internal, "no live backends in the ring")
}

/// Maps a non-retryable client failure onto the wire error the backend
/// (or the client stack) produced. `Exhausted` never reaches here — the
/// forward loop converts it into a failover.
fn wire_client_error(error: ClientError) -> WireError {
    match error {
        ClientError::Server { code, message } => WireError::new(
            ErrorCode::parse(&code).unwrap_or(ErrorCode::Internal),
            message,
        ),
        other => WireError::new(ErrorCode::Internal, other.to_string()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{EngineConfig, RouterConfig};
    use crate::serve::{ServeConfig, Server};
    use std::collections::HashSet;

    impl Router {
        /// The ring's current home for `fingerprint`.
        fn home_of(&self, fingerprint: u64) -> usize {
            let fleet = self.inner.fleet.lock().unwrap();
            fleet.ring.shard_for(fingerprint)
        }
    }

    /// Deterministic engine config shared by every node (and the
    /// single-node references): FPRAS forced, fixed seed.
    fn engine_config() -> EngineConfig {
        EngineConfig {
            router: RouterConfig {
                determinization_cap: 0,
                fpras: crate::fpras::FprasParams::quick(),
                ..RouterConfig::default()
            },
            seed: 0xBEEF,
            ..EngineConfig::default()
        }
    }

    fn backend() -> (Server, TcpServerHandle) {
        let server = Server::new(ServeConfig {
            engine: engine_config(),
            workers: 2,
            ..ServeConfig::default()
        })
        .unwrap();
        let handle = server.spawn_tcp("127.0.0.1:0").unwrap();
        (server, handle)
    }

    fn quick_client() -> ClientConfig {
        ClientConfig {
            backoff_base: Duration::from_millis(1),
            backoff_cap: Duration::from_millis(20),
            ..ClientConfig::default()
        }
    }

    fn cluster(n: usize) -> (Vec<(Server, TcpServerHandle)>, Router, TcpServerHandle) {
        let nodes: Vec<_> = (0..n).map(|_| backend()).collect();
        let router = Router::new(RouteConfig {
            backends: nodes
                .iter()
                .map(|(_, h)| BackendSpec::new(h.addr().to_string()))
                .collect(),
            client: quick_client(),
            ..RouteConfig::default()
        })
        .unwrap();
        let front = router.spawn_tcp("127.0.0.1:0").unwrap();
        (nodes, router, front)
    }

    const SPECS: [(&str, usize); 4] = [
        ("(0|1)*11", 7),
        ("(0|1)*101(0|1)*", 8),
        ("1(0|1)*0", 6),
        ("(0|1)*", 5),
    ];

    fn spec(pattern: &str) -> InstanceSpec {
        InstanceSpec::Regex {
            pattern: pattern.to_string(),
            alphabet: None,
        }
    }

    /// Answers collected through any endpoint speaking the protocol:
    /// count + the full paged enumeration per spec, as canonical strings.
    fn collect(client: &mut Client) -> Vec<String> {
        let mut out = Vec::new();
        for (i, (pattern, length)) in SPECS.iter().enumerate() {
            let alias = format!("w{i}");
            client.prepare(&alias, spec(pattern), *length).unwrap();
            let count = client.count(&alias).unwrap();
            out.push(format!(
                "count {} = {}",
                pattern,
                count.get("estimate").and_then(Json::as_str).unwrap()
            ));
            loop {
                let page = client.enumerate_page(&alias, Some(3)).unwrap();
                if let Some(Json::Arr(words)) = page.get("words") {
                    for word in words {
                        out.push(format!("word {}", word.as_str().unwrap()));
                    }
                }
                if page.get("done") == Some(&Json::Bool(true)) {
                    break;
                }
            }
        }
        out
    }

    #[test]
    fn routed_answers_are_bit_identical_to_a_single_direct_node() {
        let (reference, direct_handle) = backend();
        let mut direct = Client::new(direct_handle.addr().to_string(), quick_client());
        let expected = collect(&mut direct);
        direct.bye();
        reference.shutdown();

        let (nodes, router, front) = cluster(3);
        let mut routed = Client::new(front.addr().to_string(), quick_client());
        assert_eq!(expected, collect(&mut routed));
        // The ring actually spread the four fingerprints around (the
        // cluster is doing routing, not proxying to one node).
        let placed: HashSet<usize> = SPECS
            .iter()
            .map(|(pattern, length)| {
                let fingerprint = router.inner.fingerprint_of(&spec(pattern), *length);
                router.home_of(fingerprint.unwrap())
            })
            .collect();
        assert!(placed.len() > 1, "all specs landed on one backend");
        assert!(router.stats().forwarded > 0);
        routed.bye();
        drop(front);
        for (server, handle) in nodes {
            drop(handle);
            server.shutdown();
        }
    }

    /// The front's framing over real TCP: one raw pipelined batch with a
    /// CRLF line, a blank line and a line after `bye` gets exactly one
    /// reply per non-blank line up to `bye`, in order, then EOF.
    #[test]
    fn front_framing_answers_a_pipelined_batch_in_order_then_closes() {
        use std::io::{BufRead, BufReader, Write};
        let (nodes, _router, front) = cluster(2);
        let mut stream = std::net::TcpStream::connect(front.addr()).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        stream
            .write_all(
                concat!(
                    r#"{"op":"hello","proto":1}"#,
                    "\n",
                    r#"{"op":"prepare","regex":"(0|1)*11","length":6}"#,
                    "\r\n\n",
                    r#"{"op":"count_exact","session":"r1"}"#,
                    "\n",
                    r#"{"op":"bye"}"#,
                    "\n",
                    r#"{"op":"hello"}"#,
                    "\n",
                )
                .as_bytes(),
            )
            .unwrap();
        let replies: Vec<Json> = BufReader::new(stream)
            .lines()
            .map(|line| crate::serve::json::parse(&line.unwrap()).unwrap())
            .collect();
        assert_eq!(replies.len(), 4, "{replies:?}");
        assert_eq!(
            replies[0].get("server").and_then(Json::as_str),
            Some("nfa_tool route")
        );
        assert_eq!(replies[1].get("session").and_then(Json::as_str), Some("r1"));
        assert_eq!(replies[2].get("count").and_then(Json::as_str), Some("16"));
        assert_eq!(replies[3].get("bye"), Some(&Json::Bool(true)));
        drop(front);
        for (server, handle) in nodes {
            drop(handle);
            server.shutdown();
        }
    }

    #[test]
    fn stats_and_health_aggregate_across_the_fleet() {
        let (nodes, _router, front) = cluster(2);
        let mut client = Client::new(front.addr().to_string(), quick_client());
        client.prepare("s", spec("(0|1)*11"), 6).unwrap();
        client.count("s").unwrap();
        let stats = client.server_stats().unwrap();
        // Sessions live on exactly one backend; requests summed over both.
        assert_eq!(
            stats
                .get("server")
                .and_then(|s| s.get("sessions_open"))
                .and_then(Json::as_u64),
            Some(1)
        );
        let shards = stats.get("shards").and_then(Json::as_arr).unwrap();
        assert_eq!(shards.len(), 2, "one shards row per backend");
        let router_section = stats.get("router").unwrap();
        assert_eq!(
            router_section.get("backends_alive").and_then(Json::as_u64),
            Some(2)
        );
        let health = client.health().unwrap();
        assert_eq!(health.get("status").and_then(Json::as_str), Some("ok"));
        // Two backends x queue_depth 64.
        assert_eq!(
            health.get("queue_capacity").and_then(Json::as_u64),
            Some(128)
        );
        client.bye();
        drop(front);
        for (server, handle) in nodes {
            drop(handle);
            server.shutdown();
        }
    }

    #[test]
    fn killing_the_home_node_fails_over_and_resumes_the_cursor() {
        let (mut nodes, router, front) = cluster(2);
        let mut client = Client::new(front.addr().to_string(), quick_client());

        // Fault-free reference pages, from a throwaway single node.
        let (reference, ref_handle) = backend();
        let mut direct = Client::new(ref_handle.addr().to_string(), quick_client());
        direct.prepare("ref", spec("(0|1)*11"), 7).unwrap();
        let mut expected = Vec::new();
        loop {
            let page = direct.enumerate_page("ref", Some(2)).unwrap();
            expected.push(page.encode());
            if page.get("done") == Some(&Json::Bool(true)) {
                break;
            }
        }
        direct.bye();
        reference.shutdown();

        client.prepare("job", spec("(0|1)*11"), 7).unwrap();
        let fingerprint = router.inner.fingerprint_of(&spec("(0|1)*11"), 7).unwrap();
        let mut pages = Vec::new();
        pages.push(client.enumerate_page("job", Some(2)).unwrap().encode());
        pages.push(client.enumerate_page("job", Some(2)).unwrap().encode());

        // Kill the session's home mid-stream.
        let home = router.home_of(fingerprint);
        let (server, mut handle) = nodes.remove(home);
        handle.shutdown();
        server.shutdown();
        drop(handle);
        drop(server);

        loop {
            let page = client.enumerate_page("job", Some(2)).unwrap();
            pages.push(page.encode());
            if page.get("done") == Some(&Json::Bool(true)) {
                break;
            }
        }
        assert_eq!(expected, pages, "resumed pages diverged after failover");
        assert!(router.stats().failovers >= 1);
        assert!(router.stats().backends_lost == 1);
        client.bye();
        drop(front);
        for (server, handle) in nodes {
            drop(handle);
            server.shutdown();
        }
    }

    /// Fleet-wide open backend sessions, as the router's `stats` sums them.
    fn fleet_sessions_open(client: &mut Client) -> Option<u64> {
        client
            .server_stats()
            .unwrap()
            .get("server")
            .and_then(|s| s.get("sessions_open"))
            .and_then(Json::as_u64)
    }

    #[test]
    fn closed_and_abandoned_front_sessions_release_their_backend_sessions() {
        let (nodes, _router, front) = cluster(2);
        let mut client = Client::new(front.addr().to_string(), quick_client());
        for i in 0..24 {
            let (pattern, length) = SPECS[i % SPECS.len()];
            let alias = format!("c{i}");
            client.prepare(&alias, spec(pattern), length).unwrap();
            client.count(&alias).unwrap();
            client.close(&alias);
        }
        assert_eq!(fleet_sessions_open(&mut client), Some(0), "explicit close");
        // A front connection that ends with sessions still open.
        for (i, (pattern, length)) in SPECS.iter().enumerate() {
            client
                .prepare(format!("open{i}"), spec(pattern), *length)
                .unwrap();
        }
        assert_eq!(fleet_sessions_open(&mut client), Some(SPECS.len() as u64));
        client.bye();
        let mut observer = Client::new(front.addr().to_string(), quick_client());
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        while fleet_sessions_open(&mut observer) != Some(0) {
            assert!(
                std::time::Instant::now() < deadline,
                "backend sessions outlived their front connection: {:?}",
                fleet_sessions_open(&mut observer)
            );
            std::thread::sleep(Duration::from_millis(10));
        }
        observer.bye();
        drop(front);
        for (server, handle) in nodes {
            drop(handle);
            server.shutdown();
        }
    }

    #[test]
    fn close_drops_the_front_session() {
        let (nodes, _router, front) = cluster(2);
        let mut client = Client::new(front.addr().to_string(), quick_client());
        let prepared = client.prepare("s", spec("(0|1)*1"), 4).unwrap();
        let session = prepared
            .get("session")
            .and_then(Json::as_str)
            .unwrap()
            .to_string();
        let closed = client
            .pipeline_raw(&[format!(r#"{{"op":"close","session":"{session}"}}"#)])
            .unwrap();
        assert!(closed[0].encode().contains("\"closed\""));
        let again = client
            .pipeline_raw(&[format!(r#"{{"op":"close","session":"{session}"}}"#)])
            .unwrap();
        assert!(
            again[0].encode().contains("unknown-session"),
            "double close must be unknown-session: {}",
            again[0].encode()
        );
        client.bye();
        drop(front);
        for (server, handle) in nodes {
            drop(handle);
            server.shutdown();
        }
    }

    /// Front sessions are connection-scoped: another connection naming
    /// this one's alias gets `unknown-session` for every verb, and the
    /// session and its cursor stay as they were.
    #[test]
    fn another_connections_session_is_unknown_and_untouched() {
        let (nodes, _router, front) = cluster(2);
        let mut owner = Client::new(front.addr().to_string(), quick_client());
        let mut other = Client::new(front.addr().to_string(), quick_client());
        let prepared = owner
            .pipeline_raw(&[r#"{"op":"prepare","regex":"(0|1)*11","length":6}"#])
            .unwrap();
        let session = prepared[0].get("session").and_then(Json::as_str).unwrap();
        assert_eq!(session, "r1");
        let replies = other
            .pipeline_raw(&[
                format!(r#"{{"op":"count","session":"{session}"}}"#),
                format!(r#"{{"op":"enumerate","session":"{session}","page_size":2}}"#),
                format!(r#"{{"op":"close","session":"{session}"}}"#),
            ])
            .unwrap();
        for reply in &replies {
            assert_eq!(
                reply.get("code").and_then(Json::as_str),
                Some("unknown-session"),
                "{}",
                reply.encode()
            );
        }
        let page = owner
            .pipeline_raw(&[format!(
                r#"{{"op":"enumerate","session":"{session}","page_size":2}}"#
            )])
            .unwrap();
        assert_eq!(
            page[0].get("rank").and_then(Json::as_u64),
            Some(2),
            "the owner's cursor moved: {}",
            page[0].encode()
        );
        owner.bye();
        other.bye();
        drop(front);
        for (server, handle) in nodes {
            drop(handle);
            server.shutdown();
        }
    }
}
