//! The unified query engine: typed domain sessions, streaming cursors, and
//! the prepared-instance cache behind them.
//!
//! The paper routes every application through the complete problems
//! `MEM-NFA` / `MEM-UFA` (Proposition 12), so one instance type funnels all
//! the traffic — and under repeated traffic, per-call recompilation (of the
//! unrolled DAG, the ambiguity classification, the counting tables, the
//! FPRAS sketches) dominates the cost of actually answering. This module
//! implements the preprocessing/serving split the enumeration-complexity
//! literature takes as primitive, end to end:
//!
//! * [`Queryable`] — the typed serving surface: every domain type (DNF
//!   formulas, RPQ instances, spanners, regular grammars, nOBDDs, raw
//!   automata) names its reduction, its witness decoding, and a stable
//!   domain fingerprint, and the generic [`Engine`] entry points
//!   ([`Engine::count`], [`Engine::enumerate`], [`Engine::sample`]) serve
//!   all of them from one shared cache, returning domain values instead of
//!   raw words.
//! * [`InstanceHandle`] — the session layer: [`Engine::prepare`] resolves a
//!   domain object to a cheap handle once, and the handle entries
//!   ([`Engine::count_on`], [`Engine::count_exact_on`],
//!   [`Engine::sample_on`]) answer the buffered verbs on it, settling the
//!   byte cap after each — no per-request automaton copies anywhere.
//! * [`EnumCursor`] / [`WordCursor`] / [`ResumeToken`] — streaming,
//!   resumable `ENUM`: witnesses are produced per `next()` call (preserving
//!   the paper's delay guarantees), and a cursor's position serializes to a
//!   compact token whose resumption is bit-identical to an uninterrupted
//!   run.
//! * [`GenStream`] / [`WordGenStream`] — amortized `GEN`: one stream keeps
//!   the exact table sampler or FPRAS sketch (and its scratch state) alive
//!   across draws.
//! * [`PreparedInstance`] — the compile-once artifact: fingerprint, CSR
//!   unrolled DAG, ambiguity classification, determinization probe, and the
//!   lazily-materialized per-problem tables (exact DP counts, FPRAS sketch).
//! * [`Engine`] — a fingerprint-keyed, byte-capped LRU cache of prepared
//!   instances and the domain-session memo.
//! * [`ShardedEngine`] / [`ShardMap`] — N independent engines behind a
//!   consistent-hash shard map, so cache resolution scales with cores: every
//!   instance fingerprint routes to exactly one shard, shards can be added
//!   or drained with bounded key movement, and answers stay bit-identical
//!   to the single-engine path.
//! * [`count_routed`] and the route vocabulary ([`CountRoute`],
//!   [`RouterConfig`], [`RoutedCount`]) — the ambiguity-aware counting
//!   router, with routing decisions cached per instance.
//!
//! [`crate::MemNfa`] is a thin convenience wrapper over one private
//! [`PreparedInstance`]; the engine is the same machinery with sharing
//! across instances, domains, and requests.

mod cache;
mod cursor;
mod prepared;
mod queryable;
mod router;
mod shard;
mod snapshot;

pub use cache::{Engine, EngineConfig, EngineStats, InstanceHandle, QueryError};
pub use cursor::{
    EnumCursor, GenStream, InvalidTokenError, ResumeToken, WordCursor, WordGenStream,
};
pub use prepared::PreparedInstance;
pub use queryable::{domain_fingerprint, Queryable};
pub use router::{count_routed, CountRoute, RoutedCount, RouterConfig};
pub use shard::{ShardMap, ShardedConfig, ShardedEngine, ShardedStats};
pub use snapshot::{SnapshotError, SnapshotStore, SweepReport, WarmReport};
