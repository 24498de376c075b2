//! # logspace-repro
//!
//! A from-scratch Rust reproduction of
//!
//! > Marcelo Arenas, Luis Alberto Croquevielle, Rajesh Jayaram, Cristian
//! > Riveros. *Efficient Logspace Classes for Enumeration, Counting, and
//! > Uniform Generation.* PODS 2019 (arXiv:1906.09226).
//!
//! The paper defines two relation classes by nondeterministic logspace
//! transducers — `RelationNL` and its unambiguous restriction `RelationUL` —
//! and shows both have remarkably good algorithmic properties for the three
//! fundamental query-answering problems:
//!
//! | | `ENUM` | `COUNT` | `GEN` |
//! |---|---|---|---|
//! | `RelationUL` | constant delay | exact, in P | exact uniform, in P |
//! | `RelationNL` | polynomial delay | **FPRAS** | Las Vegas uniform |
//!
//! The bolded cell is the headline: **#NFA admits an FPRAS** (previously open;
//! it follows that every SpanL function does). Everything routes through the
//! complete problems `MEM-NFA` / `MEM-UFA` ([`prelude::MemNfa`]), and the applications
//! of §4 — document spanners, regular path queries, (n)OBDDs — are thin
//! witness-preserving reductions onto them.
//!
//! ## Crate map
//!
//! * [`arith`] — big naturals and extended-range floats (substrate).
//! * [`automata`] — NFAs, regexes, the unrolled DAG (substrate).
//! * [`transducer`] — NL-transducers and the Lemma 13 compilation.
//! * [`core`] — the paper's algorithms: exact counting, the #NFA FPRAS,
//!   constant/polynomial-delay enumeration, exact/Las-Vegas uniform
//!   sampling — plus the unified query engine
//!   ([`core::engine`]): the [`Queryable`](prelude::Queryable)
//!   trait every domain implements, typed session handles, streaming
//!   [`EnumCursor`](prelude::EnumCursor)s with serializable
//!   [`ResumeToken`](prelude::ResumeToken)s, amortized
//!   [`GenStream`](prelude::GenStream)s, and a fingerprint-keyed,
//!   byte-capped LRU instance cache whose handle methods settle the byte
//!   cap after every query —
//!   and the concurrent serving layer ([`core::serve`]): `nfa_tool serve`,
//!   a versioned JSON-lines wire protocol over TCP/stdio with
//!   connection-scoped sessions, admission control, and on-disk
//!   prepared-instance snapshots (see `docs/ARCHITECTURE.md`).
//! * [`dnf`], [`graphdb`], [`bdd`], [`spanners`] — the §3/§4 applications.
//! * [`grammar`] — context-free grammars: exact counting/sampling for the
//!   unambiguous fragment, FPRAS routing for the regular fragment (the
//!   \[GJK+97\] contrast the paper draws in §1).
//! * [`nnf`] — d-DNNF knowledge compilation (the \[ABJM17\] contrast drawn
//!   in §3): circuit-level counting, enumeration, and sampling, with
//!   [`nnf::PreparedCircuit`] mirroring the
//!   engine's compile-once design on circuits.
//!
//! ## Quickstart
//!
//! ```
//! use logspace_repro::prelude::*;
//! use rand::SeedableRng;
//!
//! // Words of length 12 over {0,1} containing the substring 101.
//! let alphabet = Alphabet::binary();
//! let nfa = Regex::parse("(0|1)*101(0|1)*", &alphabet).unwrap().compile();
//! let instance = MemNfa::new(nfa, 12);
//!
//! // COUNT: the instance is ambiguous, so use the FPRAS...
//! let mut rng = rand::rngs::StdRng::seed_from_u64(1);
//! let estimate = instance.count_approx(FprasParams::quick(), &mut rng).unwrap();
//! // ...and compare with the exponential-time oracle on this small case.
//! let truth = instance.count_oracle();
//! assert!((estimate.to_f64() - truth.to_f64()).abs() / truth.to_f64() < 0.2);
//!
//! // ENUM: polynomial delay, no repetitions. The instance caches its
//! // compiled artifact, so this reuses the unrolling built above.
//! assert_eq!(instance.enumerate().count() as u64, truth.to_u64().unwrap());
//!
//! // GEN: Las Vegas uniform generation.
//! let generator = instance.las_vegas_generator(FprasParams::quick(), &mut rng).unwrap();
//! let witness = generator.generate(&mut rng).witness().unwrap();
//! assert!(instance.check_witness(&witness));
//! ```
//!
//! ## Serving repeated traffic: sessions, cursors, and handle methods
//!
//! Production workloads ask the same instances over and over. An
//! [`Engine`](prelude::Engine) caches prepared instances by structural
//! fingerprint and serves every domain through one typed surface:
//! [`Queryable`](prelude::Queryable) names the reduction and the witness
//! decoding, [`Engine::prepare`](prelude::Engine::prepare) opens a cheap
//! session handle, and the generic entry points stream typed answers —
//! including resumable enumeration cursors, whose
//! [`ResumeToken`](prelude::ResumeToken)s page `ENUM` across calls
//! bit-identically:
//!
//! ```
//! use logspace_repro::prelude::*;
//! use std::sync::Arc;
//!
//! let alphabet = Alphabet::binary();
//! let nfa = Arc::new(Regex::parse("(0|1)*101(0|1)*", &alphabet).unwrap().compile());
//! let engine = Engine::with_defaults();
//!
//! // The raw (automaton, length) pair is the identity Queryable; app types
//! // (DnfFormula, RpqInstance, SpannerInstance, RegularGrammar, NObdd)
//! // implement the same trait and decode to their own witness types.
//! let instance = (nfa.clone(), 12usize);
//!
//! // COUNT with provenance, ENUM as a streaming cursor, GEN as a draw stream.
//! let count = engine.count(&instance).unwrap();
//! let mut cursor = engine.enumerate(&instance);
//! let first_page: Vec<Word> = cursor.by_ref().take(10).collect();
//! let token = cursor.token(); // serializable; resume later, bit-identically
//! let rest: Vec<Word> = engine.resume(&instance, &token).unwrap().collect();
//! assert_eq!(first_page.len() + rest.len(), count.exact.unwrap().to_u64().unwrap() as usize);
//! let samples: Vec<Word> = engine.sample(&instance, 7).unwrap().take(3).collect();
//! assert!(samples.iter().all(|w| nfa.accepts(w)));
//!
//! // A server answers on session handles: each handle method resolves the
//! // handle once (reporting `cache_hit`), runs on its pinned artifact —
//! // never a per-request automaton copy — and settles the byte cap.
//! let handle = engine.prepare(&instance);
//! let (routed, cache_hit) = engine.count_on(&handle).unwrap();
//! assert!(cache_hit && routed.is_exact());
//! let page: Vec<Word> = engine.cursor(&handle).take(10).collect();
//! let (draws, cache_hit) = engine.sample_on(&handle, 2, 3).unwrap();
//! assert!(cache_hit && page.len() == 10 && draws.len() == 3);
//! // One compilation served everything above.
//! assert_eq!(engine.stats().misses, 1);
//! ```
//!
//! ## Serving over the wire
//!
//! `nfa_tool serve` ([`core::serve`]) exposes the same engine to concurrent
//! network clients: a versioned JSON-lines protocol (`prepare` → session,
//! `count` / `count_exact` / paged `enumerate` with resume-token round
//! trips / `sample`), a bounded worker pool with admission control, and an
//! on-disk snapshot store so a restarted server warms its cache instead of
//! recompiling. `examples/serve_client.rs` drives the protocol end to end
//! over TCP; `docs/ARCHITECTURE.md` specifies every message and the
//! snapshot format.

#![forbid(unsafe_code)]

pub use lsc_arith as arith;
pub use lsc_automata as automata;
pub use lsc_bdd as bdd;
pub use lsc_core as core;
pub use lsc_dnf as dnf;
pub use lsc_grammar as grammar;
pub use lsc_graphdb as graphdb;
pub use lsc_nnf as nnf;
pub use lsc_spanners as spanners;
pub use lsc_transducer as transducer;

/// The most common imports, for examples and downstream users.
pub mod prelude {
    pub use lsc_arith::{BigFloat, BigNat};
    pub use lsc_automata::regex::Regex;
    pub use lsc_automata::{Alphabet, Nfa, Word};
    pub use lsc_core::engine::{
        Engine, EngineConfig, EnumCursor, GenStream, InstanceHandle, Queryable, ResumeToken,
        RouterConfig, WordCursor, WordGenStream,
    };
    pub use lsc_core::fpras::FprasParams;
    pub use lsc_core::sample::GenOutcome;
    pub use lsc_core::{MemNfa, PreparedInstance};
}
