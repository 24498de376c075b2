//! The query engine: a fingerprint-keyed, byte-capped LRU cache of
//! [`PreparedInstance`]s plus the session, cursor, and batch serving APIs.
//!
//! A production deployment sees the same automata over and over (the same
//! RPQ against a slowly-changing graph, the same spanner over many
//! documents, the same DNF reduction re-counted under different lengths).
//! The engine makes the repeat traffic cheap, in three layers:
//!
//! * **Sessions** — [`Engine::prepare`] turns any [`Queryable`] domain object
//!   into a cheap [`InstanceHandle`]: the reduction runs once per distinct
//!   domain fingerprint, the prepared artifact lives in the shared cache, and
//!   the handle is a couple of words to clone. [`QueryRequest`]s take handles
//!   (or `Arc`'d automata) — nothing on the request path deep-copies an
//!   automaton.
//! * **Typed queries** — [`Engine::count`], [`Engine::enumerate`],
//!   [`Engine::sample`] are generic over [`Queryable`] and return domain
//!   values: counts with provenance, streaming [`EnumCursor`]s (resumable via
//!   [`ResumeToken`]s), and amortized [`GenStream`]s.
//! * **Batch** — the original [`QueryRequest`] / [`QueryResponse`] API,
//!   rebuilt on top of the cursor surface and kept as the thin compatibility
//!   layer for callers that want many answers at once, with deterministic
//!   multi-threaded dispatch.
//!
//! **Determinism.** Batch responses are bit-identical at any `threads`
//! setting and across warm/cold caches:
//!
//! * instance resolution (and with it the `cache_hit` flag) happens in a
//!   single-threaded pass before the fan-out, so flags never depend on
//!   thread interleaving;
//! * each request owns its randomness (`QueryRequest::seed`), so execution
//!   order cannot leak between requests;
//! * engine-owned randomness (the cached FPRAS sketch) is seeded from
//!   `config.seed` mixed with the instance fingerprint — a pure function of
//!   the configuration and the instance, never of arrival order.
//!
//! The fan-out itself reuses the thread-chunk scheme of the FPRAS sampling
//! pass: requests are split into contiguous chunks, one scoped thread per
//! chunk, each writing into its own slice of the result vector.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use lsc_arith::BigNat;
use lsc_automata::{Nfa, Word};

use crate::count::exact::NotUnambiguousError;
use crate::engine::cursor::{
    EnumCursor, GenStream, InvalidTokenError, ResumeToken, WordCursor, WordGenStream,
};
use crate::engine::prepared::PreparedInstance;
use crate::engine::queryable::Queryable;
use crate::engine::router::{RoutedCount, RouterConfig};
use crate::fpras::FprasError;

/// Engine tuning knobs.
#[derive(Clone, Copy, Debug)]
pub struct EngineConfig {
    /// Routing policy for `COUNT` requests (and the FPRAS parameters used by
    /// the ambiguous `GEN` route).
    pub router: RouterConfig,
    /// Byte cap on the instance cache (approximate accounting; the
    /// most-recently-used entry is never evicted, so one oversized instance
    /// still serves).
    pub cache_bytes: usize,
    /// Worker threads for batched dispatch (responses are identical at any
    /// setting).
    pub threads: usize,
    /// Master seed for engine-owned randomness (the cached FPRAS sketches).
    pub seed: u64,
    /// Las Vegas attempts per requested witness on the ambiguous `GEN` route.
    pub retries: usize,
    /// Entry cap on the domain-session memo (each entry pins one reduced
    /// automaton, which for document products scales with the document —
    /// least-recently-used sessions are evicted past the cap and simply
    /// re-run their reduction on the next `prepare`).
    pub domain_entries: usize,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            router: RouterConfig::default(),
            cache_bytes: 256 << 20,
            threads: 1,
            seed: 0x10_65C0,
            retries: 256,
            domain_entries: 1024,
        }
    }
}

/// A cheap, clonable reference to one prepared instance in the engine: the
/// session half of the query API. Obtained from [`Engine::prepare`] (typed)
/// or [`Engine::prepare_nfa`] (raw); holding one pins the artifact in memory
/// (the cache may still evict its entry, but the handle keeps serving), and
/// requests built on a handle skip instance resolution entirely.
#[derive(Clone)]
pub struct InstanceHandle {
    inst: Arc<PreparedInstance>,
    key: InstanceKey,
    cache_hit: bool,
}

impl InstanceHandle {
    /// The prepared artifact.
    pub fn instance(&self) -> &Arc<PreparedInstance> {
        &self.inst
    }

    /// The instance fingerprint (what resume tokens bind to).
    pub fn fingerprint(&self) -> u64 {
        self.inst.fingerprint()
    }

    /// The witness length `n`.
    pub fn length(&self) -> usize {
        self.inst.length()
    }

    /// Whether the instance was already cached when the handle was prepared
    /// (the session-level analogue of [`QueryResponse::cache_hit`]).
    pub fn was_cached(&self) -> bool {
        self.cache_hit
    }
}

/// What a [`QueryRequest`] runs against. Both forms are cheap to clone —
/// the per-request deep copy of the automaton is gone by construction.
#[derive(Clone)]
pub enum QueryTarget {
    /// An automaton and witness length, resolved through the instance cache
    /// at batch time (first occurrence pays the preparation, later ones hit).
    Automaton {
        /// The automaton `N`, shared.
        nfa: Arc<Nfa>,
        /// The witness length `n`.
        length: usize,
    },
    /// A pre-resolved session handle: no cache lookup cost beyond an LRU
    /// touch, and a guaranteed hit unless the entry was evicted meanwhile.
    Handle(InstanceHandle),
}

/// One query against one instance. `seed` feeds the randomized kinds
/// (`Count` on the FPRAS route is seeded by the engine instead — see the
/// module docs — so equal requests give equal answers regardless of order).
#[derive(Clone)]
pub struct QueryRequest {
    /// The instance to query.
    pub target: QueryTarget,
    /// Which of the paper's three problems to answer.
    pub kind: QueryKind,
    /// Request-owned randomness for `Sample`.
    pub seed: u64,
}

impl QueryRequest {
    /// A request against `(nfa, length)`. Accepts `Nfa` or `Arc<Nfa>`; pass
    /// the same `Arc` across requests to share one allocation batch-wide.
    pub fn automaton(nfa: impl Into<Arc<Nfa>>, length: usize, kind: QueryKind, seed: u64) -> Self {
        QueryRequest {
            target: QueryTarget::Automaton {
                nfa: nfa.into(),
                length,
            },
            kind,
            seed,
        }
    }

    /// A request against a prepared session handle.
    pub fn on(handle: &InstanceHandle, kind: QueryKind, seed: u64) -> Self {
        QueryRequest {
            target: QueryTarget::Handle(handle.clone()),
            kind,
            seed,
        }
    }
}

/// The problem to answer, in the paper's `COUNT` / `ENUM` / `GEN` taxonomy.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum QueryKind {
    /// Routed `COUNT`: exact where exactness is affordable, FPRAS otherwise.
    Count,
    /// Exact `COUNT` (Theorem 5) — errors on ambiguous instances.
    CountExact,
    /// `ENUM`: constant delay on UFA instances, polynomial delay otherwise,
    /// truncated to `limit` witnesses. Batch answers are buffered; use
    /// [`Engine::enumerate`] / [`Engine::cursor`] for streaming and paging.
    Enumerate {
        /// Maximum number of witnesses to return.
        limit: usize,
    },
    /// `GEN`: `count` uniform witnesses (exact on UFA instances, Las Vegas
    /// otherwise). Batch answers are buffered; use [`Engine::sample`] /
    /// [`Engine::gen_stream`] for an amortized draw stream.
    Sample {
        /// Number of witnesses requested.
        count: usize,
    },
}

/// A successful query answer.
#[derive(Clone, Debug)]
pub enum QueryOutput {
    /// `Count`: the routed count with provenance.
    Count(RoutedCount),
    /// `CountExact`: the exact witness count.
    Exact(BigNat),
    /// `Enumerate` / `Sample`: the witnesses.
    Words(Vec<Word>),
}

/// Why a query failed.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum QueryError {
    /// `CountExact` on an ambiguous instance.
    NotUnambiguous,
    /// An FPRAS failure event (vanishing probability) on a randomized route.
    Fpras(FprasError),
}

impl std::fmt::Display for QueryError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            QueryError::NotUnambiguous => NotUnambiguousError.fmt(f),
            QueryError::Fpras(e) => e.fmt(f),
        }
    }
}

impl std::error::Error for QueryError {}

impl From<FprasError> for QueryError {
    fn from(e: FprasError) -> Self {
        QueryError::Fpras(e)
    }
}

impl From<NotUnambiguousError> for QueryError {
    fn from(NotUnambiguousError: NotUnambiguousError) -> Self {
        QueryError::NotUnambiguous
    }
}

/// One answered query.
///
/// **`cache_hit` semantics.** Resolution runs single-threaded in request
/// order before the execution fan-out, and the flag records what the cache
/// held *at that request's turn*. Consequences, all deterministic:
///
/// * within one batch, a duplicate of an earlier request reports a hit even
///   if the batch as a whole arrived cold (the first occurrence inserted the
///   instance);
/// * a [`QueryTarget::Handle`] request reports a hit as long as its entry is
///   still cached — normally always, since [`Engine::prepare`] inserted it;
///   if the entry was evicted in between, the handle re-inserts its pinned
///   instance and reports a miss (no recompilation happens either way);
/// * hit/miss totals in [`EngineStats`] count resolutions, so `k` duplicate
///   requests contribute `1` miss and `k − 1` hits regardless of thread
///   count or arrival order.
#[derive(Clone, Debug)]
pub struct QueryResponse {
    /// The answer, or why there is none.
    pub output: Result<QueryOutput, QueryError>,
    /// Whether the instance was already cached when this request was
    /// resolved (see the type docs for the exact semantics).
    pub cache_hit: bool,
}

/// Cache counters, for observability and the cache-behavior tests.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct EngineStats {
    /// Requests that found their instance in the cache.
    pub hits: u64,
    /// Requests that had to insert a fresh instance.
    pub misses: u64,
    /// Instances evicted by the byte cap.
    pub evictions: u64,
    /// Instances currently cached.
    pub entries: usize,
    /// Approximate bytes currently cached.
    pub bytes: usize,
    /// Domain sessions memoized (distinct `Queryable` fingerprints whose
    /// reduction has run).
    pub domains: usize,
}

#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
struct InstanceKey {
    fingerprint: u64,
    states: usize,
    transitions: usize,
    length: usize,
}

impl InstanceKey {
    fn of(nfa: &Nfa, length: usize) -> Self {
        InstanceKey {
            fingerprint: nfa.fingerprint(),
            states: nfa.num_states(),
            transitions: nfa.num_transitions(),
            length,
        }
    }
}

struct Entry {
    inst: Arc<PreparedInstance>,
    bytes: usize,
    last_used: u64,
}

/// One request's resolved instance: the shared artifact, whether it was
/// already cached, and the cache key (computed once, reused by the
/// post-execution byte refresh).
struct Resolved {
    inst: Arc<PreparedInstance>,
    cache_hit: bool,
    key: InstanceKey,
}

struct CacheInner {
    entries: HashMap<InstanceKey, Entry>,
    total_bytes: usize,
    tick: u64,
    evictions: u64,
}

/// The domain-session memo behind [`Engine::prepare`]: an entry-capped LRU
/// of reduction outputs.
#[derive(Default)]
struct DomainMemo {
    entries: HashMap<u64, (Arc<Nfa>, usize, u64)>,
    tick: u64,
}

impl DomainMemo {
    /// Touches and returns a memoized reduction.
    fn get(&mut self, domain: u64) -> Option<(Arc<Nfa>, usize)> {
        self.tick += 1;
        let tick = self.tick;
        self.entries.get_mut(&domain).map(|(nfa, length, used)| {
            *used = tick;
            (nfa.clone(), *length)
        })
    }

    /// Inserts a reduction, evicting least-recently-used sessions past the
    /// cap (an evicted session just re-runs its reduction next time).
    fn insert(&mut self, domain: u64, nfa: Arc<Nfa>, length: usize, cap: usize) {
        self.tick += 1;
        let tick = self.tick;
        self.entries.insert(domain, (nfa, length, tick));
        while self.entries.len() > cap.max(1) {
            let Some((&victim, _)) = self
                .entries
                // lsc-analyze: allow(nondeterministic-iteration) reason="victim choice keyed on (unique monotonic tick, domain id); min is order-independent"
                .iter()
                .min_by_key(|(&domain, (_, _, used))| (*used, domain))
            else {
                break;
            };
            self.entries.remove(&victim);
        }
    }
}

/// The prepared-instance query engine. See the module docs.
///
/// The typical flow: build one engine for the process, [`Engine::prepare`]
/// a domain object into a session handle (compiling at most once per
/// distinct instance), then serve `COUNT` / `ENUM` / `GEN` from the shared
/// artifact:
///
/// ```
/// use std::sync::Arc;
/// use lsc_automata::regex::Regex;
/// use lsc_automata::{Alphabet, Word};
/// use lsc_core::engine::Engine;
///
/// let engine = Engine::with_defaults();
/// let ab = Alphabet::binary();
/// let nfa = Arc::new(Regex::parse("(0|1)*101(0|1)*", &ab).unwrap().compile());
/// let instance = (nfa, 10usize); // the identity Queryable
///
/// // COUNT with provenance (exact here: the router determinizes).
/// let count = engine.count(&instance).unwrap();
/// assert!(count.is_exact());
///
/// // ENUM as a streaming cursor, paged across calls via a resume token.
/// let mut cursor = engine.enumerate(&instance);
/// let page: Vec<Word> = cursor.by_ref().take(5).collect();
/// let token = cursor.token();
/// let rest: Vec<Word> = engine.resume(&instance, &token).unwrap().collect();
/// assert_eq!(
///     (page.len() + rest.len()) as u64,
///     count.exact.clone().unwrap().to_u64().unwrap(),
/// );
///
/// // GEN as an amortized uniform draw stream (deterministic in its seeds).
/// let draws: Vec<Word> = engine.sample(&instance, 7).unwrap().take(3).collect();
/// assert_eq!(draws.len(), 3);
///
/// // Everything above compiled the instance exactly once.
/// assert_eq!(engine.stats().misses, 1);
/// ```
pub struct Engine {
    config: EngineConfig,
    inner: Mutex<CacheInner>,
    /// Domain-session memo: `Queryable::domain_fingerprint` → the reduction's
    /// output, so `prepare` re-runs no reduction for a known domain object.
    /// Holds the automaton (which for document/graph products scales with
    /// the data, hence the `config.domain_entries` LRU cap), never the
    /// prepared tables — eviction of the instance cache stays effective.
    domains: Mutex<DomainMemo>,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl Engine {
    /// An engine with the given configuration.
    pub fn new(config: EngineConfig) -> Self {
        Engine {
            config,
            inner: Mutex::new(CacheInner {
                entries: HashMap::new(),
                total_bytes: 0,
                tick: 0,
                evictions: 0,
            }),
            domains: Mutex::new(DomainMemo::default()),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    /// An engine with default configuration.
    pub fn with_defaults() -> Self {
        Self::new(EngineConfig::default())
    }

    /// The configuration.
    pub fn config(&self) -> &EngineConfig {
        &self.config
    }

    /// Cache counters.
    pub fn stats(&self) -> EngineStats {
        let inner = self.inner.lock().expect("engine cache poisoned");
        EngineStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: inner.evictions,
            entries: inner.entries.len(),
            bytes: inner.total_bytes,
            domains: self
                .domains
                .lock()
                .expect("domain index poisoned")
                .entries
                .len(),
        }
    }

    // ---- sessions ----

    /// Opens (or re-opens) a session on a domain object: runs the reduction
    /// at most once per [`Queryable::domain_fingerprint`], resolves the
    /// prepared instance through the shared cache, and returns the cheap
    /// handle everything else is served from.
    pub fn prepare<Q: Queryable + ?Sized>(&self, queryable: &Q) -> InstanceHandle {
        let (nfa, length) = self.domain_instance(queryable);
        self.prepare_nfa(&nfa, length)
    }

    /// The memoized reduction of a domain object — [`Engine::prepare`]
    /// without the instance-cache resolution. The sharded resolver
    /// ([`crate::engine::ShardedEngine`]) uses this to run the reduction on
    /// the domain's home shard before routing the *instance* by its own
    /// fingerprint.
    pub fn domain_instance<Q: Queryable + ?Sized>(&self, queryable: &Q) -> (Arc<Nfa>, usize) {
        let domain = queryable.domain_fingerprint();
        let memoized = self
            .domains
            .lock()
            .expect("domain index poisoned")
            .get(domain);
        match memoized {
            Some(pair) => pair,
            None => {
                let (nfa, length) = queryable.to_instance();
                self.domains.lock().expect("domain index poisoned").insert(
                    domain,
                    nfa.clone(),
                    length,
                    self.config.domain_entries,
                );
                (nfa, length)
            }
        }
    }

    /// A session handle for a raw `(automaton, length)` instance — the
    /// identity-domain variant of [`Engine::prepare`]: served from the cache
    /// when present, inserted (lazily, nothing materialized yet) otherwise.
    pub fn prepare_nfa(&self, nfa: &Arc<Nfa>, length: usize) -> InstanceHandle {
        let resolved = self.lookup_or_insert(nfa, length);
        InstanceHandle {
            inst: resolved.inst,
            key: resolved.key,
            cache_hit: resolved.cache_hit,
        }
    }

    /// The prepared instance for `(nfa, length)` — [`Engine::prepare_nfa`]
    /// without the handle wrapper, for callers that only want the artifact.
    pub fn prepared(&self, nfa: &Arc<Nfa>, length: usize) -> Arc<PreparedInstance> {
        self.lookup_or_insert(nfa, length).inst
    }

    /// Inserts an externally constructed instance into the cache — the
    /// warm-restart hook behind [`crate::engine::SnapshotStore::warm`]. If
    /// the key is already cached, the existing artifact wins (and is
    /// returned); otherwise the given instance enters the LRU. Warm-loading
    /// is not request traffic, so neither path touches the hit/miss
    /// counters — the first *query* against a warmed instance reports a
    /// clean cache hit.
    pub fn insert_prepared(&self, inst: Arc<PreparedInstance>) -> InstanceHandle {
        let key = InstanceKey::of(inst.nfa_arc(), inst.length());
        let mut inner = self.inner.lock().expect("engine cache poisoned");
        inner.tick += 1;
        let tick = inner.tick;
        if let Some(entry) = inner.entries.get_mut(&key) {
            entry.last_used = tick;
            return InstanceHandle {
                inst: entry.inst.clone(),
                key,
                cache_hit: true,
            };
        }
        let bytes = inst.approx_bytes();
        inner.total_bytes += bytes;
        inner.entries.insert(
            key,
            Entry {
                inst: inst.clone(),
                bytes,
                last_used: tick,
            },
        );
        self.evict_locked(&mut inner);
        InstanceHandle {
            inst,
            key,
            cache_hit: false,
        }
    }

    /// The instance fingerprints currently resident in the cache, sorted.
    /// This is the sharding layer's (and the shard tests') introspection
    /// hook: which instances live *here*.
    pub fn resident_fingerprints(&self) -> Vec<u64> {
        let inner = self.inner.lock().expect("engine cache poisoned");
        let mut fps: Vec<u64> = inner
            .entries
            // lsc-analyze: allow(nondeterministic-iteration) reason="collected set is sorted before return; iteration order cannot leak"
            .values()
            .map(|e| e.inst.fingerprint())
            .collect();
        fps.sort_unstable();
        fps
    }

    /// Removes and returns every cached instance whose fingerprint matches
    /// the predicate, in fingerprint order. The byte accounting shrinks
    /// accordingly; nothing counts as an eviction (the instances are being
    /// *moved*, not dropped — this is the shard add/drain migration hook).
    pub fn take_instances_where(
        &self,
        mut pred: impl FnMut(u64) -> bool,
    ) -> Vec<Arc<PreparedInstance>> {
        let mut inner = self.inner.lock().expect("engine cache poisoned");
        let mut keys: Vec<InstanceKey> = inner
            .entries
            // lsc-analyze: allow(nondeterministic-iteration) reason="matched keys are sorted below and the output is sorted by fingerprint"
            .iter()
            .filter(|(_, e)| pred(e.inst.fingerprint()))
            .map(|(k, _)| *k)
            .collect();
        keys.sort_unstable();
        let mut out = Vec::with_capacity(keys.len());
        for key in keys {
            let entry = inner.entries.remove(&key).expect("key just listed");
            inner.total_bytes = inner.total_bytes.saturating_sub(entry.bytes);
            out.push(entry.inst);
        }
        out.sort_by_key(|inst| inst.fingerprint());
        out
    }

    // ---- typed queries ----

    /// Routed `COUNT` on a domain object: exact where exactness is
    /// affordable, the cached FPRAS sketch otherwise, with provenance.
    ///
    /// # Errors
    /// Propagates FPRAS failure events when the FPRAS route fires.
    pub fn count<Q: Queryable + ?Sized>(&self, queryable: &Q) -> Result<RoutedCount, QueryError> {
        let handle = self.prepare(queryable);
        let seed = self.sketch_seed(&handle.inst);
        Ok(handle.inst.count_routed_cached(&self.config.router, seed)?)
    }

    /// Exact `COUNT` on a domain object (Theorem 5, unambiguous reductions
    /// only).
    ///
    /// # Errors
    /// [`QueryError::NotUnambiguous`] on ambiguous instances.
    pub fn count_exact<Q: Queryable + ?Sized>(&self, queryable: &Q) -> Result<BigNat, QueryError> {
        Ok(self.prepare(queryable).inst.count_exact()?)
    }

    /// Streaming `ENUM` on a domain object: a typed cursor yielding decoded
    /// witnesses lazily (constant delay on unambiguous instances, polynomial
    /// otherwise), resumable across calls via [`EnumCursor::token`] and
    /// [`Engine::resume`].
    pub fn enumerate<'q, Q: Queryable + ?Sized>(&self, queryable: &'q Q) -> EnumCursor<'q, Q> {
        let handle = self.prepare(queryable);
        EnumCursor::new(queryable, WordCursor::fresh(handle.inst))
    }

    /// Reconstructs a typed cursor at a token's position; the continued
    /// stream is bit-identical to the uninterrupted one.
    ///
    /// # Errors
    /// [`InvalidTokenError`] if the token does not belong to this domain
    /// object's instance or encodes an impossible position.
    pub fn resume<'q, Q: Queryable + ?Sized>(
        &self,
        queryable: &'q Q,
        token: &ResumeToken,
    ) -> Result<EnumCursor<'q, Q>, InvalidTokenError> {
        let handle = self.prepare(queryable);
        Ok(EnumCursor::new(
            queryable,
            WordCursor::resume(handle.inst, token)?,
        ))
    }

    /// `GEN` on a domain object: an amortized uniform draw stream yielding
    /// decoded witnesses. Deterministic in `(instance, engine seed,
    /// draw_seed)`.
    ///
    /// # Errors
    /// Propagates FPRAS failure events from the (cached) sketch build on the
    /// ambiguous route.
    pub fn sample<'q, Q: Queryable + ?Sized>(
        &self,
        queryable: &'q Q,
        draw_seed: u64,
    ) -> Result<GenStream<'q, Q>, QueryError> {
        let handle = self.prepare(queryable);
        let stream = self.gen_stream(&handle, draw_seed)?;
        Ok(GenStream::new(queryable, stream))
    }

    // ---- word-level sessions (handles in, raw words out) ----

    /// A raw-word cursor over a session handle (the untyped sibling of
    /// [`Engine::enumerate`], for tools that print words directly).
    pub fn cursor(&self, handle: &InstanceHandle) -> WordCursor {
        WordCursor::fresh(handle.inst.clone())
    }

    /// Reconstructs a raw-word cursor at a token's position.
    ///
    /// # Errors
    /// [`InvalidTokenError`] if the token does not belong to the handle's
    /// instance or encodes an impossible position.
    pub fn resume_cursor(
        &self,
        handle: &InstanceHandle,
        token: &ResumeToken,
    ) -> Result<WordCursor, InvalidTokenError> {
        WordCursor::resume(handle.inst.clone(), token)
    }

    /// A raw-word uniform draw stream over a session handle (the untyped
    /// sibling of [`Engine::sample`]).
    ///
    /// # Errors
    /// Propagates FPRAS failure events from the (cached) sketch build on the
    /// ambiguous route.
    pub fn gen_stream(
        &self,
        handle: &InstanceHandle,
        draw_seed: u64,
    ) -> Result<WordGenStream, QueryError> {
        Ok(WordGenStream::new(
            &handle.inst,
            &self.config.router,
            self.config.retries,
            self.sketch_seed(&handle.inst),
            draw_seed,
        )?)
    }

    // ---- cache internals ----

    /// Resolves `key` through the cache: on a hit, touches LRU state and
    /// re-measures the entry; on a miss, inserts whatever `make` builds.
    fn resolve_with(
        &self,
        key: InstanceKey,
        make: impl FnOnce() -> Arc<PreparedInstance>,
    ) -> Resolved {
        let mut inner = self.inner.lock().expect("engine cache poisoned");
        inner.tick += 1;
        let tick = inner.tick;
        let touched = inner.entries.get_mut(&key).map(|entry| {
            entry.last_used = tick;
            // Re-measure on every touch (cheap — per-table sizes are
            // memoized) so tables materialized through a directly-held
            // `Arc` or `InstanceHandle` are accounted for too.
            let fresh = entry.inst.approx_bytes();
            let old = std::mem::replace(&mut entry.bytes, fresh);
            (entry.inst.clone(), fresh, old)
        });
        if let Some((inst, fresh, old)) = touched {
            inner.total_bytes = (inner.total_bytes + fresh).saturating_sub(old);
            self.hits.fetch_add(1, Ordering::Relaxed);
            self.evict_locked(&mut inner);
            return Resolved {
                inst,
                cache_hit: true,
                key,
            };
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        let inst = make();
        let bytes = inst.approx_bytes();
        inner.total_bytes += bytes;
        inner.entries.insert(
            key,
            Entry {
                inst: inst.clone(),
                bytes,
                last_used: tick,
            },
        );
        self.evict_locked(&mut inner);
        Resolved {
            inst,
            cache_hit: false,
            key,
        }
    }

    fn lookup_or_insert(&self, nfa: &Arc<Nfa>, length: usize) -> Resolved {
        let key = InstanceKey::of(nfa, length);
        // A miss clones only the `Arc` — the automaton itself is never
        // deep-copied on the request path.
        self.resolve_with(key, || {
            Arc::new(PreparedInstance::from_arc(nfa.clone(), length))
        })
    }

    /// Resolution for handle-carrying requests: an LRU touch when the entry
    /// survives, a re-insert of the pinned instance (reported as a miss, but
    /// with zero recompilation) when it was evicted.
    fn resolve_handle(&self, handle: &InstanceHandle) -> Resolved {
        self.resolve_with(handle.key, || handle.inst.clone())
    }

    fn resolve_target(&self, target: &QueryTarget) -> Resolved {
        match target {
            QueryTarget::Automaton { nfa, length } => self.lookup_or_insert(nfa, *length),
            QueryTarget::Handle(handle) => self.resolve_handle(handle),
        }
    }

    /// Re-measures the given instances (their lazy tables may have grown
    /// during execution) and evicts least-recently-used entries until the
    /// byte cap holds again. Keys come from the resolution pass — no
    /// re-fingerprinting here.
    fn refresh_bytes(&self, touched: &[Resolved]) {
        let mut inner = self.inner.lock().expect("engine cache poisoned");
        let mut delta: isize = 0;
        for r in touched {
            let fresh = r.inst.approx_bytes();
            if let Some(entry) = inner.entries.get_mut(&r.key) {
                if Arc::ptr_eq(&entry.inst, &r.inst) {
                    delta += fresh as isize - entry.bytes as isize;
                    entry.bytes = fresh;
                }
            }
        }
        inner.total_bytes = inner.total_bytes.saturating_add_signed(delta);
        self.evict_locked(&mut inner);
    }

    fn evict_locked(&self, inner: &mut CacheInner) {
        while inner.total_bytes > self.config.cache_bytes && inner.entries.len() > 1 {
            let newest = inner
                .entries
                // lsc-analyze: allow(nondeterministic-iteration) reason="max over unique monotonic last_used ticks; order-independent"
                .values()
                .map(|e| e.last_used)
                .max()
                .expect("nonempty");
            let Some((&victim, _)) = inner
                .entries
                // lsc-analyze: allow(nondeterministic-iteration) reason="victim choice keyed on (unique monotonic tick, instance key); min is order-independent"
                .iter()
                .filter(|(_, e)| e.last_used != newest)
                .min_by_key(|(&k, e)| (e.last_used, k))
            else {
                break;
            };
            let entry = inner.entries.remove(&victim).expect("victim present");
            inner.total_bytes -= entry.bytes;
            inner.evictions += 1;
        }
    }

    /// Engine-owned seed for an instance's cached FPRAS sketch: a pure
    /// function of the configuration and the fingerprint.
    fn sketch_seed(&self, inst: &PreparedInstance) -> u64 {
        self.config.seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ inst.fingerprint()
    }

    /// One batch execution, rebuilt on the streaming surface: `Enumerate`
    /// buffers a cursor page, `Sample` buffers a draw-stream prefix, so the
    /// compatibility layer and the cursors can never disagree on content or
    /// order.
    fn execute(
        &self,
        inst: &Arc<PreparedInstance>,
        kind: QueryKind,
        seed: u64,
    ) -> Result<QueryOutput, QueryError> {
        match kind {
            QueryKind::Count => Ok(QueryOutput::Count(
                inst.count_routed_cached(&self.config.router, self.sketch_seed(inst))?,
            )),
            QueryKind::CountExact => Ok(QueryOutput::Exact(inst.count_exact()?)),
            QueryKind::Enumerate { limit } => Ok(QueryOutput::Words(
                WordCursor::fresh(inst.clone()).take(limit).collect(),
            )),
            QueryKind::Sample { count } => {
                let stream = WordGenStream::new(
                    inst,
                    &self.config.router,
                    self.config.retries,
                    self.sketch_seed(inst),
                    seed,
                )?;
                Ok(QueryOutput::Words(stream.take(count).collect()))
            }
        }
    }

    /// Answers one request.
    pub fn query(&self, request: &QueryRequest) -> QueryResponse {
        self.query_batch(std::slice::from_ref(request))
            .pop()
            .expect("one response per request")
    }

    /// Answers a batch, fanning execution across `config.threads` workers
    /// (chunked like the FPRAS sampling pass; see the module docs for why the
    /// responses are identical at any thread count).
    pub fn query_batch(&self, requests: &[QueryRequest]) -> Vec<QueryResponse> {
        if requests.is_empty() {
            return Vec::new();
        }
        // Phase 1, single-threaded: resolve every instance (and the hit
        // flags) deterministically.
        let resolved: Vec<Resolved> = requests
            .iter()
            .map(|r| self.resolve_target(&r.target))
            .collect();
        // Phase 2: execute, chunked across scoped threads.
        let threads = self.config.threads.clamp(1, requests.len());
        let outputs: Vec<Result<QueryOutput, QueryError>> = if threads == 1 {
            requests
                .iter()
                .zip(&resolved)
                .map(|(r, res)| self.execute(&res.inst, r.kind, r.seed))
                .collect()
        } else {
            let mut slots: Vec<Option<Result<QueryOutput, QueryError>>> =
                (0..requests.len()).map(|_| None).collect();
            let chunk = requests.len().div_ceil(threads);
            std::thread::scope(|scope| {
                for ((reqs, insts), out) in requests
                    .chunks(chunk)
                    .zip(resolved.chunks(chunk))
                    .zip(slots.chunks_mut(chunk))
                {
                    scope.spawn(move || {
                        for ((r, res), slot) in reqs.iter().zip(insts).zip(out) {
                            *slot = Some(self.execute(&res.inst, r.kind, r.seed));
                        }
                    });
                }
            });
            slots
                .into_iter()
                .map(|s| s.expect("thread filled slot"))
                .collect()
        };
        // Phase 3, single-threaded: account for whatever the queries
        // materialized, and enforce the byte cap.
        self.refresh_bytes(&resolved);
        outputs
            .into_iter()
            .zip(resolved)
            .map(|(output, res)| QueryResponse {
                output,
                cache_hit: res.cache_hit,
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fpras::FprasParams;
    use lsc_automata::families::{ambiguity_gap_nfa, blowup_nfa};
    use lsc_automata::regex::Regex;
    use lsc_automata::Alphabet;

    fn exact_count_request(k: usize, n: usize) -> QueryRequest {
        QueryRequest::automaton(blowup_nfa(k), n, QueryKind::CountExact, 0)
    }

    fn target_nfa(r: &QueryRequest) -> Arc<Nfa> {
        match &r.target {
            QueryTarget::Automaton { nfa, .. } => nfa.clone(),
            QueryTarget::Handle(h) => h.instance().nfa_arc().clone(),
        }
    }

    fn target_length(r: &QueryRequest) -> usize {
        match &r.target {
            QueryTarget::Automaton { length, .. } => *length,
            QueryTarget::Handle(h) => h.length(),
        }
    }

    #[test]
    fn warm_requests_hit_the_cache() {
        let engine = Engine::with_defaults();
        let r = exact_count_request(4, 10);
        let cold = engine.query(&r);
        assert!(!cold.cache_hit);
        let warm = engine.query(&r);
        assert!(warm.cache_hit);
        let (Ok(QueryOutput::Exact(a)), Ok(QueryOutput::Exact(b))) = (cold.output, warm.output)
        else {
            panic!("exact counts expected");
        };
        assert_eq!(a, b);
        let stats = engine.stats();
        assert_eq!((stats.hits, stats.misses, stats.entries), (1, 1, 1));
        assert!(stats.bytes > 0);
    }

    #[test]
    fn byte_cap_evicts_least_recently_used() {
        // A cap small enough that two warmed instances cannot coexist.
        let config = EngineConfig {
            cache_bytes: 1, // everything over budget: keep only the newest
            ..EngineConfig::default()
        };
        let engine = Engine::new(config);
        let a = exact_count_request(4, 10);
        let b = exact_count_request(5, 12);
        engine.query(&a);
        engine.query(&b); // evicts a
        assert_eq!(engine.stats().entries, 1);
        assert!(engine.stats().evictions >= 1);
        let again = engine.query(&a); // must be a fresh miss
        assert!(!again.cache_hit, "evicted instance cannot hit");
        // A generous cap keeps both.
        let engine = Engine::with_defaults();
        engine.query(&a);
        engine.query(&b);
        assert_eq!(engine.stats().entries, 2);
        assert!(engine.query(&a).cache_hit);
        assert_eq!(engine.stats().evictions, 0);
    }

    #[test]
    fn byte_accounting_tracks_materialized_tables() {
        let engine = Engine::with_defaults();
        let r = exact_count_request(6, 20);
        engine.prepared(&target_nfa(&r), target_length(&r)); // lazy insert
        let before = engine.stats().bytes;
        engine.query(&r); // materializes the DAG + completion table
        assert!(
            engine.stats().bytes > before,
            "post-query refresh must record the grown tables"
        );
    }

    #[test]
    fn directly_held_arcs_are_accounted_on_next_touch() {
        // Tables materialized through an Arc from Engine::prepared (the
        // app-crate usage path) bypass query_batch's refresh; the next cache
        // touch must pick the growth up.
        let engine = Engine::with_defaults();
        let r = exact_count_request(6, 20);
        let inst = engine.prepared(&target_nfa(&r), target_length(&r));
        let before = engine.stats().bytes;
        let _ = inst.count_exact().unwrap();
        let _ = engine.prepared(&target_nfa(&r), target_length(&r));
        assert!(
            engine.stats().bytes > before,
            "hit-path re-measure must record tables built through the Arc"
        );
    }

    #[test]
    fn retained_sample_memo_is_charged_to_the_instance() {
        // The FPRAS route (probe off): samples walk the cached sketch, and
        // the weight memo they leave behind lives as long as the instance.
        let fpras_route = |cache_bytes| {
            let mut fpras = FprasParams::quick();
            fpras.k = 16;
            EngineConfig {
                cache_bytes,
                router: RouterConfig {
                    determinization_cap: 0,
                    fpras,
                    classify_ambiguity: false,
                },
                ..EngineConfig::default()
            }
        };
        let gap = Arc::new(ambiguity_gap_nfa(4));
        let sample =
            |h: &InstanceHandle, seed| QueryRequest::on(h, QueryKind::Sample { count: 8 }, seed);
        let engine = Engine::new(fpras_route(EngineConfig::default().cache_bytes));
        let handle = engine.prepare_nfa(&gap, 10);
        engine.query(&QueryRequest::on(&handle, QueryKind::Count, 0)); // builds the sketch
        let (inst_before, engine_before) = (handle.instance().approx_bytes(), engine.stats().bytes);
        for seed in 0..4 {
            assert!(engine.query(&sample(&handle, seed)).output.is_ok());
        }
        assert!(handle.instance().approx_bytes() > inst_before);
        assert!(engine.stats().bytes > engine_before);

        // Over a one-byte cap the next prepare still evicts the instance,
        // and its memo leaves the byte total with it.
        let engine = Engine::new(fpras_route(1));
        let handle = engine.prepare_nfa(&gap, 10);
        assert!(engine.query(&sample(&handle, 1)).output.is_ok());
        let sketch = handle.instance().sketch_snapshot().expect("sketch built").1;
        assert!(
            sketch.retained_memo_bytes() > 0,
            "the sample retained a memo"
        );
        let other = engine.prepare_nfa(&Arc::new(blowup_nfa(4)), 10);
        let stats = engine.stats();
        assert_eq!((stats.entries, stats.evictions), (1, 1));
        assert_eq!(stats.bytes, other.instance().approx_bytes());
    }

    #[test]
    fn batch_marks_duplicate_instances_as_hits() {
        // The regression pin for intra-batch duplicate semantics (see the
        // `QueryResponse` docs): flags and stats follow resolution order.
        let engine = Engine::with_defaults();
        let reqs = vec![
            exact_count_request(4, 10),
            exact_count_request(5, 10),
            exact_count_request(4, 10), // same instance as #0
            exact_count_request(4, 10), // and again
            exact_count_request(5, 10), // same instance as #1
        ];
        let responses = engine.query_batch(&reqs);
        assert_eq!(
            responses.iter().map(|r| r.cache_hit).collect::<Vec<_>>(),
            vec![false, false, true, true, true]
        );
        let stats = engine.stats();
        assert_eq!(
            (stats.hits, stats.misses, stats.entries),
            (3, 2, 2),
            "k duplicates = 1 miss + (k-1) hits, per instance"
        );
    }

    #[test]
    fn handle_requests_skip_resolution_and_report_hits() {
        let engine = Engine::with_defaults();
        let nfa = Arc::new(blowup_nfa(4));
        let handle = engine.prepare_nfa(&nfa, 10);
        assert!(!handle.was_cached(), "first prepare is the miss");
        assert!(engine.prepare_nfa(&nfa, 10).was_cached());
        let reqs = vec![
            QueryRequest::on(&handle, QueryKind::CountExact, 0),
            QueryRequest::on(&handle, QueryKind::Enumerate { limit: 4 }, 0),
        ];
        let responses = engine.query_batch(&reqs);
        assert!(
            responses.iter().all(|r| r.cache_hit),
            "handle requests are hits while the entry is cached"
        );
        // All resolutions point at the very Arc the handle pins.
        assert!(Arc::ptr_eq(handle.instance(), &engine.prepared(&nfa, 10)));
        let stats = engine.stats();
        assert_eq!((stats.hits, stats.misses), (4, 1));
    }

    #[test]
    fn evicted_handles_reinsert_without_recompiling() {
        let config = EngineConfig {
            cache_bytes: 1,
            ..EngineConfig::default()
        };
        let engine = Engine::new(config);
        let a = Arc::new(blowup_nfa(4));
        let handle = engine.prepare_nfa(&a, 10);
        engine.query(&exact_count_request(5, 12)); // evicts a's entry
        let response = engine.query(&QueryRequest::on(&handle, QueryKind::CountExact, 0));
        assert!(
            !response.cache_hit,
            "an evicted handle reports a miss on re-insert"
        );
        // ...but the served instance is still the pinned artifact, not a
        // recompilation.
        assert!(Arc::ptr_eq(handle.instance(), &engine.prepared(&a, 10)));
    }

    #[test]
    fn all_three_problems_serve_from_one_instance() {
        let ab = Alphabet::binary();
        let nfa = Arc::new(Regex::parse("(0|1)*11(0|1)*", &ab).unwrap().compile());
        let engine = Engine::with_defaults();
        let reqs = vec![
            QueryRequest::automaton(nfa.clone(), 7, QueryKind::Count, 1),
            QueryRequest::automaton(
                nfa.clone(),
                7,
                QueryKind::Enumerate { limit: usize::MAX },
                1,
            ),
            QueryRequest::automaton(nfa.clone(), 7, QueryKind::Sample { count: 5 }, 2),
        ];
        let responses = engine.query_batch(&reqs);
        let Ok(QueryOutput::Count(count)) = &responses[0].output else {
            panic!("count expected")
        };
        let Ok(QueryOutput::Words(words)) = &responses[1].output else {
            panic!("words expected")
        };
        let Ok(QueryOutput::Words(samples)) = &responses[2].output else {
            panic!("samples expected")
        };
        // One instance resolved three times.
        assert_eq!(engine.stats().misses, 1);
        assert_eq!(engine.stats().hits, 2);
        if let Some(exact) = &count.exact {
            assert_eq!(words.len() as u64, exact.to_u64().unwrap());
        }
        for w in samples {
            assert!(nfa.accepts(w));
        }
    }

    #[test]
    fn exact_count_on_ambiguous_reports_error() {
        let engine = Engine::with_defaults();
        let r = QueryRequest::automaton(ambiguity_gap_nfa(3), 8, QueryKind::CountExact, 0);
        assert_eq!(
            engine.query(&r).output.unwrap_err(),
            QueryError::NotUnambiguous
        );
    }

    #[test]
    fn typed_entry_points_reuse_one_domain_session() {
        // The raw identity Queryable through the generic surface: count,
        // cursor, and stream agree, and the domain index memoizes the
        // (trivial) reduction.
        let instance = (Arc::new(blowup_nfa(3)), 8usize);
        let engine = Engine::with_defaults();
        let count = engine.count_exact(&instance).unwrap().to_u64().unwrap();
        let words: Vec<Word> = engine.enumerate(&instance).collect();
        assert_eq!(words.len() as u64, count);
        let samples: Vec<Word> = engine.sample(&instance, 3).unwrap().take(4).collect();
        for w in &samples {
            assert!(instance.0.accepts(w));
        }
        let stats = engine.stats();
        assert_eq!(stats.misses, 1, "one prepared instance for all entries");
        assert_eq!(stats.domains, 1, "one memoized domain session");
    }

    #[test]
    fn domain_memo_is_entry_capped() {
        // The session memo pins reduced automata; past the cap it must evict
        // (least-recently-used first) instead of growing without bound.
        let config = EngineConfig {
            domain_entries: 2,
            ..EngineConfig::default()
        };
        let engine = Engine::new(config);
        let a = (Arc::new(blowup_nfa(3)), 6usize);
        let b = (Arc::new(blowup_nfa(4)), 6usize);
        let c = (Arc::new(blowup_nfa(5)), 6usize);
        engine.prepare(&a);
        engine.prepare(&b);
        assert_eq!(engine.stats().domains, 2);
        engine.prepare(&a); // touch: b is now the LRU session
        engine.prepare(&c); // evicts b
        assert_eq!(engine.stats().domains, 2, "cap holds");
        // An evicted session is not an error — it just re-runs the
        // reduction and re-enters the memo.
        engine.prepare(&b);
        assert_eq!(engine.stats().domains, 2);
    }

    #[test]
    fn typed_cursor_resume_round_trips() {
        let instance = (Arc::new(blowup_nfa(3)), 8usize);
        let engine = Engine::with_defaults();
        let all: Vec<Word> = engine.enumerate(&instance).collect();
        let mut cursor = engine.enumerate(&instance);
        let first: Vec<Word> = cursor.by_ref().take(3).collect();
        let token = ResumeToken::parse(&cursor.token().encode()).unwrap();
        let rest: Vec<Word> = engine.resume(&instance, &token).unwrap().collect();
        let stitched: Vec<Word> = first.into_iter().chain(rest).collect();
        assert_eq!(stitched, all);
    }
}
