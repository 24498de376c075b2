//! The paper's contribution: efficient enumeration, counting, and uniform
//! generation for the logspace relation classes of Arenas, Croquevielle,
//! Jayaram & Riveros (PODS 2019).
//!
//! Everything pivots on two complete problems (Proposition 12):
//!
//! * **MEM-NFA** — `((N, 0^k), w)` with `w ∈ L(N)`, `|w| = k` — complete for
//!   `RelationNL`;
//! * **MEM-UFA** — the same with `N` unambiguous — complete for `RelationUL`.
//!
//! An instance is a [`MemNfa`] (automaton + unary length); every application in
//! the paper (§4) reduces to one by a witness-preserving reduction, after which
//! this crate supplies the full toolbox:
//!
//! | problem | UFA instance (Thm 5) | NFA instance (Thm 2) |
//! |---|---|---|
//! | `ENUM`  | constant delay ([`enumerate::constant_delay`], Alg. 1) | polynomial delay ([`enumerate::poly_delay`]) |
//! | `COUNT` | exact in P ([`count::exact`], §5.3.2) | FPRAS ([`fpras`], Algorithms 2–5, Thm 22) |
//! | `GEN`   | exact uniform ([`sample::ufa_exact`], §5.3.3) | Las Vegas uniform ([`sample::nfa_plvug`], Cor. 23) |
//!
//! The self-reducibility structure of §5.2 lives in [`self_reduce`], and the
//! naive Monte-Carlo estimator the paper dismisses in §6.1 is kept as a baseline
//! in [`count::naive`].
//!
//! For network traffic, [`serve`] wraps the engine in a concurrent request
//! server (`nfa_tool serve`): a versioned JSON-lines wire protocol over TCP
//! or stdio, connection-scoped sessions with idle eviction, a bounded
//! worker pool with admission control, and on-disk
//! [`engine::SnapshotStore`] persistence so restarts warm the cache
//! instead of recompiling.
//!
//! For repeated traffic, [`engine`] provides the compile-once serving layer:
//! a [`PreparedInstance`] caches the unrolled DAG, the ambiguity
//! classification, and the per-problem tables behind one artifact (a
//! [`MemNfa`] wraps exactly one of these), and an [`Engine`] keys prepared
//! instances by structural fingerprint in a byte-capped LRU cache whose
//! session handles answer every query. The ambiguity-aware counting router
//! lives there too ([`PreparedInstance::count_routed`]), with routing
//! decisions cached per instance.

#![forbid(unsafe_code)]

pub mod count;
pub mod engine;
pub mod enumerate;
pub mod fpras;
mod mem_nfa;
pub mod sample;
pub mod self_reduce;
pub mod serve;

pub use count::exact::NotUnambiguousError;
pub use engine::{Engine, EnumCursor, GenStream, PreparedInstance, Queryable, ResumeToken};
pub use mem_nfa::MemNfa;
