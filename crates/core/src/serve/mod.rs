//! The concurrent serving layer: `nfa_tool serve` as a library.
//!
//! The paper's point is that `ENUM` / `COUNT` / `GEN` are cheap enough
//! *per query* to serve interactively; this module is where that becomes a
//! server. It stacks four pieces on top of the [`engine`](crate::engine):
//!
//! * [`json`] — a dependency-free JSON codec (the container vendors no
//!   registry crates, so the protocol carries its own).
//! * [`protocol`] — the versioned JSON-lines wire protocol: one request
//!   object per line, one response per line, ops mapping 1:1 onto the
//!   typed engine API (`prepare`, `count`, `count_exact`, `enumerate`
//!   with resume-token round-trips, `sample`, plus `hello` / `close` /
//!   `stats` / `bye`). The normative message reference lives in
//!   `docs/ARCHITECTURE.md` §4.
//! * [`SessionRegistry`] — connection-scoped sessions owning
//!   [`InstanceHandle`](crate::engine::InstanceHandle)s and live cursors,
//!   with idle-TTL eviction.
//! * [`WorkerPool`] — a bounded queue with admission control (reject with
//!   `retry_after_ms` when full) and per-request deadlines.
//! * [`faults`] — seeded deterministic fault injection ([`FaultPlan`])
//!   threaded through the connection streams, the snapshot store, and the
//!   worker jobs; `None` (the production configuration) is a passthrough.
//! * [`client`] — the reconnecting client: exponential backoff with
//!   seeded jitter, `retry_after_ms` honored, idle-safe verbs replayed,
//!   cursors resumed from their last token across resets and restarts.
//! * [`router`] — the cluster front-end (`nfa_tool route`): the same
//!   wire protocol, forwarded by instance fingerprint over a
//!   [`ShardMap`](crate::engine::ShardMap) ring of backend `serve`
//!   nodes, with snapshot shipping on topology change and
//!   failover-with-cursor-survival on backend death.
//!
//! [`Server`] assembles them around one shared
//! [`ShardedEngine`](crate::engine::ShardedEngine) — N independent
//! instance caches behind a consistent-hash shard map, so cache resolution
//! scales with cores — and optionally persists compiled instances through
//! the engine's [`SnapshotStore`](crate::engine::SnapshotStore), so a
//! restarted server warms every shard from disk instead of recompiling. Transports are
//! TCP ([`Server::spawn_tcp`]) — thread-per-connection by default, or the
//! readiness-based pipelining event loop via
//! [`ServeConfig::transport`](ServeConfig) — and stdio
//! ([`Server::serve_stdio`]); [`Server::handle_line`] is the
//! transport-free core.
//!
//! The blocking transports share one connection layer (`conn.rs`): a
//! line loop (read a line, skip blanks, answer it, write and flush the
//! [`Reply`], stop at EOF or after `bye`, report whether an I/O error
//! ended it) and a thread-per-connection acceptor (socket timeouts,
//! nodelay, both halves wrapped in a [`FaultyStream`] at the caller's
//! fault sites). The threaded TCP transport and stdio run the loop over
//! the pool; the [`Router`] front runs the same acceptor and loop.
//!
//! ```
//! use lsc_core::serve::{Server, ServeConfig};
//!
//! let server = Server::new(ServeConfig::default()).unwrap();
//! let conn = server.open_conn();
//! let reply = server.handle_line(
//!     conn,
//!     r#"{"op":"prepare","regex":"(0|1)*101(0|1)*","length":8}"#,
//! );
//! assert!(reply.text.contains(r#""ok":true"#));
//! server.shutdown();
//! ```

pub mod client;
mod conn;
mod event_loop;
pub mod faults;
pub mod json;
mod pool;
pub mod protocol;
pub mod router;
mod server;
mod session;

pub use client::{Client, ClientConfig, ClientError, ClientStats};
pub use conn::{Reply, TcpServerHandle};
pub use faults::{Fault, FaultConfig, FaultPlan, FaultSite, FaultStats, FaultyStream};
pub use pool::{PoolStats, SubmitError, WorkerPool};
pub use protocol::{ErrorCode, WireError, PROTOCOL_VERSION};
pub use router::{BackendSpec, RouteConfig, RouteStats, Router};
pub use server::{ServeConfig, ServeStats, Server, Transport, DEFAULT_PAGE_SIZE};
pub use session::SessionRegistry;
